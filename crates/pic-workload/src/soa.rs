//! Structure-of-arrays particle storage and the matrixized ghost kernels
//! (the POLAR-PIC / Matrix-PIC recipe applied to this repo's hot path).
//!
//! The scalar ghost kernel walks particles one at a time: per particle it
//! enumerates candidate regions through the cell grid, dedups them with an
//! epoch stamp, and runs one sphere–box distance test per candidate — a
//! pointer-chasing loop the compiler cannot vectorize. This module
//! restructures the same computation into blocked matrix form:
//!
//! 1. **SoA layout.** [`SoAPositions`] stores x/y/z in separate lane-padded
//!    arrays; conversion from the AoS `Vec3` trace sample is a bit copy.
//! 2. **Signature grouping.** Particles are keyed by the packed cell range
//!    of their query box ([`pic_mapping::RegionIndex::query_cell_key`]).
//!    Equal keys walk identical grid cells, so sorting a span by key turns
//!    it into runs that share one candidate enumeration.
//! 3. **Matrix sweep.** Per run, candidate slots are gathered once and the
//!    group's coordinates are gathered into contiguous blocks; the kernel
//!    then loops *candidate-major* over fixed-width `[f64; LANE]` lanes,
//!    accumulating branch-free `d² ≤ r²` hit masks. Amortization is
//!    multiplicative: the candidate walk is paid once per group instead of
//!    once per particle, and the distance test vectorizes.
//! 4. **Padded merge.** Parallel spans accumulate into cache-line-padded
//!    per-worker histograms ([`pic_types::CachePadded`], capacities rounded
//!    to line multiples) merged by commutative `u32` addition.
//!
//! Outputs are **bit-identical** to the scalar kernels and the sequential
//! replay in the dev-only `pic-oracle` crate: every particle sees exactly
//! the candidate set, the same `f64` clamp/distance expressions, and
//! integer counts are order-independent. Particles whose query key is `None`
//! (empty index, NaN/out-of-bounds query boxes) are skipped exactly where
//! the scalar kernel's early returns fire. Lane padding uses NaN
//! coordinates, whose distance is NaN and therefore never satisfies
//! `d² ≤ r²`, plus a home id of `u32::MAX` that belongs to no rank.

use pic_mapping::{RegionIndex, RegionQueryScratch};
use pic_types::{CachePadded, Rank, Vec3};
use rayon::prelude::*;

/// Fixed lane width of the matrix kernels. Eight `f64`s span two AVX2 or
/// one AVX-512 register; on NEON the compiler splits each lane op into
/// four 2-wide µops, which still pipelines cleanly.
pub const LANE: usize = 8;

/// Minimum particles per parallel span: large enough to amortize one
/// scratch + two partial-histogram allocations per span, small enough
/// that short traces still fan out across cores.
pub(crate) const GHOST_CHUNK: usize = 2048;

/// Histogram capacities are rounded up to this many `u32`s (one 64-byte
/// cache line) so per-worker buffers never end mid-line.
const LINE_U32: usize = 16;

/// Per-rank `(recv, sent)` accumulators for one worker span.
type RecvSent = (Vec<u32>, Vec<u32>);

/// Structure-of-arrays particle positions: separate x/y/z coordinate
/// arrays, each padded to a [`LANE`] multiple with NaN so kernels can read
/// full lanes without bounds branches (NaN lanes can never produce a hit).
///
/// Conversion from and to the AoS `Vec3` form is a pure bit copy — NaNs
/// (payloads included), signed zeros, and subnormals round-trip exactly;
/// the property tests pin this down.
#[derive(Debug, Clone, Default)]
pub struct SoAPositions {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    len: usize,
}

impl SoAPositions {
    /// Transpose an AoS position slice into lane-padded SoA storage.
    pub fn from_positions(positions: &[Vec3]) -> SoAPositions {
        let len = positions.len();
        let padded = len.next_multiple_of(LANE);
        let mut xs = Vec::with_capacity(padded);
        let mut ys = Vec::with_capacity(padded);
        let mut zs = Vec::with_capacity(padded);
        for p in positions {
            xs.push(p.x);
            ys.push(p.y);
            zs.push(p.z);
        }
        xs.resize(padded, f64::NAN);
        ys.resize(padded, f64::NAN);
        zs.resize(padded, f64::NAN);
        SoAPositions { xs, ys, zs, len }
    }

    /// Number of real (unpadded) particles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no particles are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// X coordinates of the real particles (padding excluded).
    pub fn xs(&self) -> &[f64] {
        &self.xs[..self.len]
    }

    /// Y coordinates of the real particles (padding excluded).
    pub fn ys(&self) -> &[f64] {
        &self.ys[..self.len]
    }

    /// Z coordinates of the real particles (padding excluded).
    pub fn zs(&self) -> &[f64] {
        &self.zs[..self.len]
    }

    /// Reconstitute particle `i` (panics past [`len`](Self::len)).
    #[inline]
    pub fn get(&self, i: usize) -> Vec3 {
        assert!(i < self.len);
        Vec3::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Transpose back to the AoS form; bit-exact inverse of
    /// [`from_positions`](Self::from_positions).
    pub fn to_positions(&self) -> Vec<Vec3> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Reusable per-span working state: the key list, the gathered candidate
/// slots, and the group's coordinate/home/count blocks. Everything is
/// amortized across groups; steady state performs no heap allocation.
#[derive(Default)]
struct SpanScratch {
    keys: Vec<(u64, u32)>,
    slots: Vec<u32>,
    query: RegionQueryScratch,
    gx: Vec<f64>,
    gy: Vec<f64>,
    gz: Vec<f64>,
    ghome: Vec<u32>,
    gcopies: Vec<u32>,
    /// First-inclusion counts, `(radii + 1) × padded_group_len`, last row
    /// is the reject bucket (multi-radius kernel only).
    first: Vec<u32>,
    slot_hits: Vec<u32>,
}

impl SpanScratch {
    /// Gather one group's coordinates and home ranks into lane-padded
    /// blocks; returns the padded length.
    fn gather_group(&mut self, soa: &SoAPositions, owners: &[Rank], group: &[(u64, u32)]) -> usize {
        let padded = group.len().next_multiple_of(LANE);
        self.gx.clear();
        self.gx.resize(padded, f64::NAN);
        self.gy.clear();
        self.gy.resize(padded, f64::NAN);
        self.gz.clear();
        self.gz.resize(padded, f64::NAN);
        self.ghome.clear();
        self.ghome.resize(padded, u32::MAX);
        self.gcopies.clear();
        self.gcopies.resize(padded, 0);
        for (j, &(_, i)) in group.iter().enumerate() {
            let i = i as usize;
            self.gx[j] = soa.xs[i];
            self.gy[j] = soa.ys[i];
            self.gz[j] = soa.zs[i];
            self.ghome[j] = owners[i].index() as u32;
        }
        padded
    }

    /// Key every particle of `lo..hi` by its query's cell-range signature
    /// and sort so equal signatures become contiguous runs. Keyless
    /// particles (the scalar kernel's early-return cases) are dropped.
    fn build_keys(
        &mut self,
        soa: &SoAPositions,
        lo: usize,
        hi: usize,
        index: &RegionIndex,
        radius: f64,
    ) {
        self.keys.clear();
        for i in lo..hi {
            let center = Vec3::new(soa.xs[i], soa.ys[i], soa.zs[i]);
            if let Some(key) = index.query_cell_key(center, radius) {
                self.keys.push((key, i as u32));
            }
        }
        self.keys.sort_unstable();
    }
}

/// The lane kernel: test one candidate box against a gathered group,
/// accumulating per-particle hit counts into `copies` and returning the
/// group's total hits against this candidate.
///
/// Branch-free by construction: the `d² ≤ r²` mask and the home-rank
/// exclusion are `u32` masks combined with `&`, so the inner loop is a
/// straight-line clamp/subtract/fma/compare chain over `[f64; LANE]`
/// blocks that the compiler autovectorizes (verified via the committed
/// `ghost_kernel` speedup in BENCH_DWG.json).
#[inline]
#[allow(clippy::too_many_arguments)] // the lane operands are parallel slices
fn lane_candidate_hits(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    homes: &[u32],
    copies: &mut [u32],
    bmin: Vec3,
    bmax: Vec3,
    target: u32,
    rr: f64,
) -> u32 {
    let mut total = 0u32;
    for (((cx, cy), (cz, ch)), cc) in xs
        .chunks_exact(LANE)
        .zip(ys.chunks_exact(LANE))
        .zip(zs.chunks_exact(LANE).zip(homes.chunks_exact(LANE)))
        .zip(copies.chunks_exact_mut(LANE))
    {
        let mut hit = [0u32; LANE];
        for l in 0..LANE {
            // Exactly `Aabb::distance_sq_to_point`: clamp (max-then-min per
            // component), then the left-to-right dot of the residual.
            let qx = cx[l].max(bmin.x).min(bmax.x);
            let qy = cy[l].max(bmin.y).min(bmax.y);
            let qz = cz[l].max(bmin.z).min(bmax.z);
            let dx = cx[l] - qx;
            let dy = cy[l] - qy;
            let dz = cz[l] - qz;
            let d2 = dx * dx + dy * dy + dz * dz;
            hit[l] = u32::from(d2 <= rr) & u32::from(ch[l] != target);
        }
        for l in 0..LANE {
            cc[l] += hit[l];
            total += hit[l];
        }
    }
    total
}

/// Single-radius grouped kernel over one span; accumulates into `recv` /
/// `sent` (indexed by rank, length ≥ rank count).
#[allow(clippy::too_many_arguments)] // span bounds + kernel inputs + accumulators
fn ghost_span_soa(
    soa: &SoAPositions,
    owners: &[Rank],
    lo: usize,
    hi: usize,
    index: &RegionIndex,
    radius: f64,
    scratch: &mut SpanScratch,
    recv: &mut [u32],
    sent: &mut [u32],
) {
    scratch.build_keys(soa, lo, hi, index, radius);
    let rr = radius * radius;
    let keys = std::mem::take(&mut scratch.keys);
    let mut g0 = 0usize;
    while g0 < keys.len() {
        let key = keys[g0].0;
        let g1 = keys[g0..]
            .iter()
            .position(|&(k, _)| k != key)
            .map_or(keys.len(), |off| g0 + off);
        let group = &keys[g0..g1];
        index.gather_candidate_slots(key, &mut scratch.query, &mut scratch.slots);
        if !scratch.slots.is_empty() {
            scratch.gather_group(soa, owners, group);
            let slots = std::mem::take(&mut scratch.slots);
            for &slot in &slots {
                let b = index.slot_box(slot);
                let target = index.slot_rank(slot).index();
                let hits = lane_candidate_hits(
                    &scratch.gx,
                    &scratch.gy,
                    &scratch.gz,
                    &scratch.ghome,
                    &mut scratch.gcopies,
                    b.min,
                    b.max,
                    target as u32,
                    rr,
                );
                recv[target] += hits;
            }
            scratch.slots = slots;
            for (j, &(_, i)) in group.iter().enumerate() {
                sent[owners[i as usize].index()] += scratch.gcopies[j];
            }
        }
        g0 = g1;
    }
    scratch.keys = keys;
}

/// Split `len` items into `workers` near-equal contiguous spans.
#[inline]
fn span_bounds(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = len / workers;
    let rem = len % workers;
    let lo = w * base + w.min(rem);
    (lo, lo + base + usize::from(w < rem))
}

/// Worker count for a sample: the ambient thread budget, capped so spans
/// never shrink below [`GHOST_CHUNK`] particles.
fn workers_for(len: usize) -> usize {
    rayon::current_num_threads()
        .max(1)
        .min(len.div_ceil(GHOST_CHUNK).max(1))
}

/// SoA ghost counting: the grouped matrix kernel across parallel spans
/// with cache-line-padded per-worker histograms.
///
/// Bit-identical to `pic-oracle`'s scalar single-radius kernel (and hence
/// to the sequential reference) for every radius, NaN and negative
/// included: identical per-particle candidate sets, identical `f64`
/// expressions, commutative integer merges.
pub fn ghost_counts_soa(
    soa: &SoAPositions,
    owners: &[Rank],
    index: &RegionIndex,
    radius: f64,
    ranks: usize,
) -> RecvSent {
    let cap = ranks.next_multiple_of(LINE_U32);
    let workers = workers_for(soa.len());
    let run_span = |w: usize, workers: usize| -> CachePadded<RecvSent> {
        let (lo, hi) = span_bounds(soa.len(), workers, w);
        let mut recv = vec![0u32; cap];
        let mut sent = vec![0u32; cap];
        let mut scratch = SpanScratch::default();
        ghost_span_soa(
            soa,
            owners,
            lo,
            hi,
            index,
            radius,
            &mut scratch,
            &mut recv,
            &mut sent,
        );
        CachePadded::new((recv, sent))
    };
    let partials: Vec<CachePadded<RecvSent>> = if workers <= 1 {
        vec![run_span(0, 1)]
    } else {
        (0..workers)
            .into_par_iter()
            .map(|w| run_span(w, workers))
            .collect()
    };
    merge_partials(partials, ranks)
}

/// Elementwise-sum per-worker histogram pairs and trim the line padding.
fn merge_partials(partials: Vec<CachePadded<RecvSent>>, ranks: usize) -> RecvSent {
    let mut recv = vec![0u32; ranks];
    let mut sent = vec![0u32; ranks];
    for p in &partials {
        for (acc, v) in recv.iter_mut().zip(&p.0) {
            *acc += v;
        }
        for (acc, v) in sent.iter_mut().zip(&p.1) {
            *acc += v;
        }
    }
    (recv, sent)
}

/// Multi-radius grouped kernel over one span: first-inclusion counting at
/// the sorted radii (`rr_sorted` ascending) with a suffix pass completing
/// the larger radii — the grouped analog of the scalar sweep kernel.
#[allow(clippy::too_many_arguments)] // span bounds + kernel inputs + accumulators
fn multi_ghost_span_soa(
    soa: &SoAPositions,
    owners: &[Rank],
    lo: usize,
    hi: usize,
    index: &RegionIndex,
    r_max: f64,
    rr_sorted: &[f64],
    scratch: &mut SpanScratch,
    partial: &mut [RecvSent],
) {
    let nr = rr_sorted.len();
    let rr_max = r_max * r_max;
    scratch.build_keys(soa, lo, hi, index, r_max);
    let keys = std::mem::take(&mut scratch.keys);
    let mut g0 = 0usize;
    while g0 < keys.len() {
        let key = keys[g0].0;
        let g1 = keys[g0..]
            .iter()
            .position(|&(k, _)| k != key)
            .map_or(keys.len(), |off| g0 + off);
        let group = &keys[g0..g1];
        index.gather_candidate_slots(key, &mut scratch.query, &mut scratch.slots);
        if !scratch.slots.is_empty() {
            let padded = scratch.gather_group(soa, owners, group);
            // First-inclusion matrix, one row per radius plus a reject row
            // for misses / home hits / NaN padding lanes.
            scratch.first.clear();
            scratch.first.resize((nr + 1) * padded, 0);
            scratch.slot_hits.clear();
            scratch.slot_hits.resize(nr + 1, 0);
            let slots = std::mem::take(&mut scratch.slots);
            for &slot in &slots {
                let b = index.slot_box(slot);
                let target = index.slot_rank(slot).index();
                let t32 = target as u32;
                scratch.slot_hits.iter_mut().for_each(|h| *h = 0);
                for (base, ((cx, cy), (cz, ch))) in scratch
                    .gx
                    .chunks_exact(LANE)
                    .zip(scratch.gy.chunks_exact(LANE))
                    .zip(
                        scratch
                            .gz
                            .chunks_exact(LANE)
                            .zip(scratch.ghome.chunks_exact(LANE)),
                    )
                    .enumerate()
                {
                    for l in 0..LANE {
                        let qx = cx[l].max(b.min.x).min(b.max.x);
                        let qy = cy[l].max(b.min.y).min(b.max.y);
                        let qz = cz[l].max(b.min.z).min(b.max.z);
                        let dx = cx[l] - qx;
                        let dy = cy[l] - qy;
                        let dz = cz[l] - qz;
                        let d2 = dx * dx + dy * dy + dz * dz;
                        // First radius containing d²: the count of sorted
                        // radii it exceeds (identical to the scalar
                        // first-inclusion scan).
                        let mut j = 0usize;
                        for &r in rr_sorted {
                            j += usize::from(d2 > r);
                        }
                        let valid = d2 <= rr_max && ch[l] != t32;
                        let row = if valid { j } else { nr };
                        scratch.first[row * padded + base * LANE + l] += 1;
                        scratch.slot_hits[row] += 1;
                    }
                }
                for (j, &h) in scratch.slot_hits[..nr].iter().enumerate() {
                    partial[j].0[target] += h;
                }
            }
            scratch.slots = slots;
            // Per-particle prefix over the first-inclusion rows completes
            // the sent histograms, exactly like the scalar span kernel.
            for (jg, &(_, i)) in group.iter().enumerate() {
                let home = owners[i as usize].index();
                let mut copies = 0u32;
                for (j, row) in partial.iter_mut().enumerate().take(nr) {
                    copies += scratch.first[j * padded + jg];
                    row.1[home] += copies;
                }
            }
        }
        g0 = g1;
    }
    scratch.keys = keys;
    // Suffix-complete the recv histograms: a region first touched at
    // radius j receives at every radius ≥ j.
    for j in 1..nr {
        let (done, rest) = partial.split_at_mut(j);
        for (a, &v) in rest[0].0.iter_mut().zip(&done[j - 1].0) {
            *a += v;
        }
    }
}

/// SoA multi-radius ghost counting: one candidate pass at `r_max` serves
/// every radius in `rr` (squared radii, arbitrary order; results come back
/// in `rr` order). Bit-identical to `pic-oracle`'s scalar multi-radius
/// kernel.
pub fn multi_ghost_soa(
    soa: &SoAPositions,
    owners: &[Rank],
    index: &RegionIndex,
    r_max: f64,
    rr: &[f64],
    ranks: usize,
) -> Vec<RecvSent> {
    let mut order: Vec<usize> = (0..rr.len()).collect();
    order.sort_by(|&a, &b| rr[a].total_cmp(&rr[b]));
    let sorted_rr: Vec<f64> = order.iter().map(|&i| rr[i]).collect();
    let cap = ranks.next_multiple_of(LINE_U32);
    let fresh = || -> Vec<RecvSent> {
        rr.iter()
            .map(|_| (vec![0u32; cap], vec![0u32; cap]))
            .collect()
    };
    let workers = workers_for(soa.len());
    let run_span = |w: usize, workers: usize| -> CachePadded<Vec<RecvSent>> {
        let (lo, hi) = span_bounds(soa.len(), workers, w);
        let mut partial = fresh();
        multi_ghost_span_soa(
            soa,
            owners,
            lo,
            hi,
            index,
            r_max,
            &sorted_rr,
            &mut SpanScratch::default(),
            &mut partial,
        );
        CachePadded::new(partial)
    };
    let partials: Vec<CachePadded<Vec<RecvSent>>> = if workers <= 1 {
        vec![run_span(0, 1)]
    } else {
        (0..workers)
            .into_par_iter()
            .map(|w| run_span(w, workers))
            .collect()
    };
    let mut merged: Vec<RecvSent> = rr
        .iter()
        .map(|_| (vec![0u32; ranks], vec![0u32; ranks]))
        .collect();
    for p in &partials {
        for (acc, part) in merged.iter_mut().zip(p.iter()) {
            for (a, &v) in acc.0.iter_mut().zip(&part.0) {
                *a += v;
            }
            for (a, &v) in acc.1.iter_mut().zip(&part.1) {
                *a += v;
            }
        }
    }
    // Un-permute from ascending order back to the caller's slot order.
    let mut out: Vec<RecvSent> = rr.iter().map(|_| Default::default()).collect();
    for (pos, &slot) in order.iter().enumerate() {
        out[slot] = std::mem::take(&mut merged[pos]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_roundtrip_is_bit_exact_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            1.5e-308,
            -7.25,
        ];
        let mut positions = Vec::new();
        for (k, &v) in specials.iter().enumerate() {
            positions.push(Vec3::new(v, specials[(k + 1) % specials.len()], -v));
        }
        let soa = SoAPositions::from_positions(&positions);
        assert_eq!(soa.len(), positions.len());
        let back = soa.to_positions();
        for (a, b) in positions.iter().zip(&back) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn padding_is_nan_up_to_lane_multiple() {
        let soa = SoAPositions::from_positions(&[Vec3::ZERO; LANE + 3]);
        assert_eq!(soa.xs.len(), 2 * LANE);
        assert!(soa.xs[LANE + 3..].iter().all(|v| v.is_nan()));
        assert_eq!(soa.xs().len(), LANE + 3);
    }

    #[test]
    fn empty_input_yields_empty_soa() {
        let soa = SoAPositions::from_positions(&[]);
        assert!(soa.is_empty());
        assert!(soa.to_positions().is_empty());
        assert_eq!(soa.xs.len(), 0);
    }
}
