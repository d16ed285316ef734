//! # pic-oracle
//!
//! The reference implementations that the production Dynamic Workload
//! Generator and discrete-event simulator are checked against, bit for
//! bit. Each is the simplest correct version of a path that production
//! code has since made fast:
//!
//! * [`generate_reference`] — straight-line sequential DWG replay over a
//!   [`BaselineRegionIndex`]. Its body lives in `pic_workload::generator`
//!   because the `perfbench` benchmark calls it by that path; this crate
//!   re-exports it so tests and benches name every oracle from one place.
//! * [`ghost_counts_chunked`] / [`multi_ghost_chunked`] — the scalar
//!   single- and multi-radius ghost kernels behind `pic_workload::soa`.
//! * [`simulate_reference`] / [`dense_state_bytes`] — the dense
//!   `BinaryHeap` DES engine behind `pic_des::simulate`.
//!
//! Only tests, `pic-bench` and CI depend on this crate; release builds of
//! `picpredict` do not link it (CI checks `cargo tree`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod kernels;

pub use des::{dense_state_bytes, simulate_reference};
pub use kernels::{ghost_counts_chunked, multi_ghost_chunked};
pub use pic_workload::generator::{generate_reference, BaselineRegionIndex};
