//! # pic-workload
//!
//! The **Dynamic Workload Generator** (paper §II-A) — the primary
//! contribution of the reproduced paper.
//!
//! Given a particle trace and a configuration (processor count, mapping
//! algorithm, grid, projection filter), the generator *mimics the mapping
//! algorithm's logic* over the trace to synthesize, without running the
//! application:
//!
//! * the **computation matrix** `P_comp[rank][sample]` — real and ghost
//!   particles residing on every rank at every sample;
//! * the **communication matrix** `P_comm[from][to][sample]` (stored
//!   sparsely) — particles migrating between rank pairs between
//!   consecutive samples;
//! * per-sample **bin counts** for the bin-based mapping (Figs 5/6/10a).
//!
//! Because particle movement is independent of the processor count, one
//! trace serves any target `R` — the basis of the paper's scalability
//! studies. Sample processing is embarrassingly parallel and runs on all
//! cores via rayon.
//!
//! Every replay entry point — [`generator::generate`], streaming,
//! reduced, and the multi-configuration sweeps — is a front-end over the
//! one engine in [`sweep`]. The reference implementations they are tested
//! against live in the dev-only `pic-oracle` crate.
//!
//! The [`reduce`] module adds SimPoint-style reduced replay: given a
//! [`reduce::ReductionPlan`] (cluster representatives + per-sample
//! assignment), [`reduce::generate_reduced`] replays only the
//! representatives and reconstructs the full workload series by cluster
//! broadcast — bit-identical to the full replay under the identity plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm_stats;
pub mod generator;
pub mod heatmap;
pub mod matrices;
pub mod metrics;
pub mod reduce;
pub mod soa;
pub mod sweep;

pub use generator::{generate_streaming_with_stats, DynamicWorkload, WorkloadConfig};
pub use matrices::{migration_pairs, CommMatrix, CompMatrix};
pub use reduce::{
    generate_reduced, generate_reduced_with_stats, peak_load_series, peak_rel_error, sweep_reduced,
    ReduceStats, ReductionPlan,
};
pub use soa::SoAPositions;
pub use sweep::{
    mesh_fingerprint, sweep_streaming, sweep_with_cache, sweep_with_stats, AssignmentCache,
    AssignmentCacheStats, AssignmentKey, IngestStats, SampleAssignment, SweepPoint, SweepStats,
};
