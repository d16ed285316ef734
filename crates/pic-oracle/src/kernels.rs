//! The scalar ghost kernels, kept as oracles for the SoA matrix kernels
//! in [`pic_workload::soa`].
//!
//! These walk particles one at a time through
//! [`RegionIndex::for_each_rank_touching_sphere`] /
//! [`RegionIndex::for_each_candidate_in_sphere`], splitting the particle
//! array into [`GHOST_CHUNK`]-sized chunks merged by commutative integer
//! addition. `tests/soa_kernels.rs` in `pic-workload` and `dwg_bench`
//! compare the production kernels against them bit for bit.

use pic_mapping::{RegionIndex, RegionQueryScratch};
use pic_types::{Rank, Vec3};
use rayon::prelude::*;

/// Particles per parallel work item.
pub const GHOST_CHUNK: usize = 2048;

/// Intra-sample parallel ghost counting.
///
/// Splits the particle array into [`GHOST_CHUNK`]-sized chunks processed in
/// parallel. Each chunk owns a [`RegionQueryScratch`] reused across all its
/// sphere queries — the epoch-stamp dedup in
/// [`RegionIndex::for_each_rank_touching_sphere`] replaces the old
/// per-query `sort_unstable` + `dedup`, so the steady-state query loop
/// performs no heap allocation. Chunk partials are dense `u32` histograms
/// merged by elementwise addition, which is order-independent, so the
/// result is bit-identical to a straight-line sequential replay regardless
/// of scheduling.
pub fn ghost_counts_chunked(
    positions: &[Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    radius: f64,
    ranks: usize,
) -> (Vec<u32>, Vec<u32>) {
    let chunks = positions.len().div_ceil(GHOST_CHUNK);
    if chunks <= 1 {
        let mut recv = vec![0u32; ranks];
        let mut sent = vec![0u32; ranks];
        let mut scratch = RegionQueryScratch::new();
        ghost_count_span(
            positions,
            owners,
            index,
            radius,
            &mut scratch,
            &mut recv,
            &mut sent,
        );
        return (recv, sent);
    }
    let partials: Vec<(Vec<u32>, Vec<u32>)> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * GHOST_CHUNK;
            let hi = (lo + GHOST_CHUNK).min(positions.len());
            let mut recv = vec![0u32; ranks];
            let mut sent = vec![0u32; ranks];
            let mut scratch = RegionQueryScratch::new();
            ghost_count_span(
                &positions[lo..hi],
                &owners[lo..hi],
                index,
                radius,
                &mut scratch,
                &mut recv,
                &mut sent,
            );
            (recv, sent)
        })
        .collect();
    let mut ghost_recv = vec![0u32; ranks];
    let mut ghost_sent = vec![0u32; ranks];
    for (recv, sent) in &partials {
        for (acc, v) in ghost_recv.iter_mut().zip(recv) {
            *acc += v;
        }
        for (acc, v) in ghost_sent.iter_mut().zip(sent) {
            *acc += v;
        }
    }
    (ghost_recv, ghost_sent)
}

/// Sequential ghost counting over one aligned span of particles.
#[inline]
fn ghost_count_span(
    positions: &[Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    radius: f64,
    scratch: &mut RegionQueryScratch,
    recv: &mut [u32],
    sent: &mut [u32],
) {
    for (&p, &home) in positions.iter().zip(owners) {
        let mut ghost_copies = 0u32;
        index.for_each_rank_touching_sphere(p, radius, scratch, |t| {
            if t != home {
                recv[t.index()] += 1;
                ghost_copies += 1;
            }
        });
        // One write per particle instead of one per touched rank; the sum
        // is identical, so outputs stay bit-equal to the reference.
        sent[home.index()] += ghost_copies;
    }
}

/// Chunked multi-radius ghost kernel: same chunk geometry and
/// order-independent histogram merge as the single-radius
/// `ghost_counts_chunked`, but each particle's candidate set is gathered
/// once at `r_max` and counted once at its *first* (smallest) containing
/// radius; suffix sums then recover the per-radius histograms. The counts
/// are integers, so the regrouping is bit-identical to filtering every
/// radius independently.
pub fn multi_ghost_chunked(
    positions: &[Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    r_max: f64,
    rr: &[f64],
    ranks: usize,
) -> Vec<(Vec<u32>, Vec<u32>)> {
    // First-inclusion counting needs the radii ascending; slot order is
    // arbitrary, so compute in sorted order and un-permute at the end.
    let mut order: Vec<usize> = (0..rr.len()).collect();
    order.sort_by(|&a, &b| rr[a].total_cmp(&rr[b]));
    let sorted_rr: Vec<f64> = order.iter().map(|&i| rr[i]).collect();
    let fresh = || -> Vec<(Vec<u32>, Vec<u32>)> {
        rr.iter()
            .map(|_| (vec![0u32; ranks], vec![0u32; ranks]))
            .collect()
    };
    let chunks = positions.len().div_ceil(GHOST_CHUNK);
    let mut merged = if chunks <= 1 {
        let mut partial = fresh();
        multi_ghost_span(
            positions,
            owners,
            index,
            r_max,
            &sorted_rr,
            &mut RegionQueryScratch::new(),
            &mut partial,
        );
        partial
    } else {
        let partials: Vec<Vec<(Vec<u32>, Vec<u32>)>> = (0..chunks)
            .into_par_iter()
            .map(|c| {
                let lo = c * GHOST_CHUNK;
                let hi = (lo + GHOST_CHUNK).min(positions.len());
                let mut partial = fresh();
                multi_ghost_span(
                    &positions[lo..hi],
                    &owners[lo..hi],
                    index,
                    r_max,
                    &sorted_rr,
                    &mut RegionQueryScratch::new(),
                    &mut partial,
                );
                partial
            })
            .collect();
        let mut merged = fresh();
        for partial in &partials {
            for (acc, p) in merged.iter_mut().zip(partial) {
                for (a, v) in acc.0.iter_mut().zip(&p.0) {
                    *a += v;
                }
                for (a, v) in acc.1.iter_mut().zip(&p.1) {
                    *a += v;
                }
            }
        }
        merged
    };
    let mut out = fresh();
    for (pos, &slot) in order.iter().enumerate() {
        out[slot] = std::mem::take(&mut merged[pos]);
    }
    out
}

/// Sequential multi-radius counting over one aligned span, `rr_sorted`
/// ascending: each candidate is tallied once at the first radius that
/// contains it, and a suffix pass completes the larger radii. Returns
/// histograms in `rr_sorted` order.
#[inline]
fn multi_ghost_span(
    positions: &[Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    r_max: f64,
    rr_sorted: &[f64],
    scratch: &mut RegionQueryScratch,
    partial: &mut [(Vec<u32>, Vec<u32>)],
) {
    let nr = rr_sorted.len();
    let mut count_first = vec![0u32; nr];
    for (&p, &home) in positions.iter().zip(owners) {
        count_first.iter_mut().for_each(|c| *c = 0);
        // Every candidate satisfies d2 ≤ r_max² (the query's own visit
        // condition), and r_max is the largest shared radius, so the
        // first-inclusion scan always terminates inside the slice.
        index.for_each_candidate_in_sphere(p, r_max, scratch, |t, d2| {
            if t == home {
                return;
            }
            let mut j = 0;
            while d2 > rr_sorted[j] {
                j += 1;
            }
            partial[j].0[t.index()] += 1;
            count_first[j] += 1;
        });
        let mut copies = 0u32;
        for (j, &c) in count_first.iter().enumerate() {
            copies += c;
            partial[j].1[home.index()] += copies;
        }
    }
    // Suffix-complete the recv histograms: a region first touched at
    // radius j is a ghost source at every radius ≥ j.
    for j in 1..nr {
        let (lo, hi) = partial.split_at_mut(j);
        for (a, &v) in hi[0].0.iter_mut().zip(&lo[j - 1].0) {
            *a += v;
        }
    }
}
