//! The workload generation pipeline (paper Fig 3).
//!
//! `generate` replays a particle trace through the configured mapping
//! algorithm: the *Computation Load Generator* computes each particle's
//! residing rank `R_p` per sample (plus ghost counts from projection-filter
//! overlap), and the *Communication Load Generator* diffs consecutive
//! samples' ownership to count migrating particles.
//!
//! The replay itself is the sweep engine's ([`crate::sweep`]): the
//! per-configuration entry points here are one-point sweeps.

use crate::matrices::{migration_pairs, CommMatrix, CompMatrix};
use crate::sweep::{self, IngestStats, SweepPoint};
use pic_grid::ElementMesh;
use pic_mapping::{
    BinMapper, ElementMapper, HilbertMapper, LoadBalancedMapper, MappingAlgorithm, ParticleMapper,
};
use pic_trace::ParticleTrace;
use pic_types::{PicError, Rank, Result};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of one workload-generation run — the framework's
/// "configuration file" content relevant to the DWG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Target processor count `R` (independent of the trace's origin!).
    pub ranks: usize,
    /// Mapping algorithm to mimic.
    pub mapping: MappingAlgorithm,
    /// Projection filter radius: ghost influence radius and bin-size
    /// threshold.
    pub projection_filter: f64,
    /// Whether to compute ghost-particle matrices (sphere queries are the
    /// dominant cost; skip when only real-particle workload is needed).
    pub compute_ghosts: bool,
}

impl WorkloadConfig {
    /// Convenience constructor with ghosts enabled.
    pub fn new(ranks: usize, mapping: MappingAlgorithm, projection_filter: f64) -> WorkloadConfig {
        WorkloadConfig {
            ranks,
            mapping,
            projection_filter,
            compute_ghosts: true,
        }
    }
}

/// The generator's output: the paper's computation and communication
/// matrices plus bin-count series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicWorkload {
    /// Target processor count.
    pub ranks: usize,
    /// Application iteration of each sample.
    pub iterations: Vec<u64>,
    /// Real particles per rank per sample.
    pub real: CompMatrix,
    /// Ghost particles received per rank per sample (zeros when ghosts are
    /// not computed).
    pub ghost_recv: CompMatrix,
    /// Ghost copies sent per rank per sample.
    pub ghost_sent: CompMatrix,
    /// Real-particle migrations between consecutive samples.
    pub comm: CommMatrix,
    /// Bins generated per sample (`None` for mappings without bins).
    pub bin_counts: Vec<Option<usize>>,
}

impl DynamicWorkload {
    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.iterations.len()
    }

    /// Peak real-particle workload over the whole run (Fig 5's headline
    /// number at a given `R`).
    pub fn peak_workload(&self) -> u32 {
        self.real.peak()
    }

    /// Maximum bin count over the run (Fig 6's cap, when bin-mapped).
    pub fn max_bin_count(&self) -> Option<usize> {
        self.bin_counts.iter().filter_map(|&b| b).max()
    }
}

/// Run the Dynamic Workload Generator over a trace.
///
/// A one-point [`sweep::sweep`]: samples are processed in parallel, and
/// the result is identical to the sequential replay because each sample's
/// mapping depends only on that sample's positions.
///
/// ```
/// use pic_trace::{ParticleTrace, TraceMeta};
/// use pic_types::{Aabb, Vec3};
/// use pic_workload::{generator, WorkloadConfig};
/// use pic_mapping::MappingAlgorithm;
///
/// // two particles drifting right over two samples
/// let mut trace = ParticleTrace::new(TraceMeta::new(2, 100, Aabb::unit(), "demo"));
/// trace.push_positions(vec![Vec3::new(0.2, 0.5, 0.5), Vec3::new(0.3, 0.5, 0.5)])?;
/// trace.push_positions(vec![Vec3::new(0.7, 0.5, 0.5), Vec3::new(0.8, 0.5, 0.5)])?;
///
/// let cfg = WorkloadConfig::new(4, MappingAlgorithm::BinBased, 0.05);
/// let workload = generator::generate(&trace, &cfg)?;
/// assert_eq!(workload.samples(), 2);
/// assert_eq!(workload.real.sample_total(0), 2); // particles conserved
/// # Ok::<(), pic_types::PicError>(())
/// ```
pub fn generate(trace: &ParticleTrace, cfg: &WorkloadConfig) -> Result<DynamicWorkload> {
    generate_with_mesh(trace, cfg, None)
}

/// Like [`generate`], but with an explicit mesh for element-based and
/// Hilbert mappings (required for those algorithms; ignored by bin-based).
pub fn generate_with_mesh(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<DynamicWorkload> {
    let (mut workloads, _) = sweep::sweep_with_stats(trace, &[SweepPoint::new(cfg.clone())], mesh)?;
    Ok(workloads
        .pop()
        .expect("one sweep point yields one workload"))
}

/// Construct the mapper the configuration selects (mesh-requiring
/// algorithms fail without one).
pub(crate) fn build_mapper(
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<Box<dyn ParticleMapper>> {
    if cfg.ranks == 0 {
        return Err(PicError::config(
            "workload generation needs at least one rank",
        ));
    }
    Ok(match cfg.mapping {
        MappingAlgorithm::BinBased => Box::new(BinMapper::new(cfg.ranks, cfg.projection_filter)?),
        MappingAlgorithm::ElementBased => {
            let mesh =
                mesh.ok_or_else(|| PicError::config("element-based mapping requires a mesh"))?;
            Box::new(ElementMapper::new(mesh, cfg.ranks)?)
        }
        MappingAlgorithm::HilbertOrdered => {
            let mesh =
                mesh.ok_or_else(|| PicError::config("hilbert-ordered mapping requires a mesh"))?;
            Box::new(HilbertMapper::new(mesh, cfg.ranks)?)
        }
        MappingAlgorithm::LoadBalanced => {
            let mesh =
                mesh.ok_or_else(|| PicError::config("load-balanced mapping requires a mesh"))?;
            Box::new(LoadBalancedMapper::new(mesh, cfg.ranks)?)
        }
    })
}

/// Streaming workload generation: a one-point [`sweep::sweep_streaming`].
///
/// Consumes trace frames from any
/// [`SampleSource`](pic_trace::SampleSource) — raw
/// [`TraceReader`](pic_trace::TraceReader), delta-encoded
/// `CompactReader`, or the magic-sniffing `AnyTraceReader` — through the
/// bounded decoder → workers → in-order merge pipeline, holding only a
/// handful of samples in memory at once. This is the path for the paper's
/// §II-D regime, where full-scale traces run to hundreds of gigabytes.
/// The output is bit-identical to [`generate`]; on a malformed stream the
/// decoder's positioned error is returned after every pipeline thread is
/// joined, so a corrupt trace fails the run without hanging it.
pub fn generate_streaming_with_stats<S: pic_trace::SampleSource + Send>(
    reader: S,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<(DynamicWorkload, IngestStats)> {
    let (mut workloads, stats) =
        sweep::sweep_streaming(reader, &[SweepPoint::new(cfg.clone())], mesh)?;
    Ok((
        workloads
            .pop()
            .expect("one sweep point yields one workload"),
        stats,
    ))
}

/// The pre-optimization region index, preserved verbatim for speedup
/// accounting: per-cell `Vec<Vec<u32>>` buckets over a clone of the full
/// regions slice, with per-query collect + `sort_unstable` + `dedup`.
/// Grid geometry matches [`RegionIndex`](pic_mapping::RegionIndex), so
/// query results are identical.
#[doc(hidden)]
pub struct BaselineRegionIndex {
    bounds: pic_types::Aabb,
    dims: [usize; 3],
    inv_cell: pic_types::Vec3,
    buckets: Vec<Vec<u32>>,
    regions: Vec<pic_types::Aabb>,
}

impl BaselineRegionIndex {
    /// Build the baseline bucket grid over `regions`.
    pub fn build(regions: &[pic_types::Aabb]) -> BaselineRegionIndex {
        use pic_types::{Aabb, Vec3};
        let mut bounds = Aabb::empty();
        let mut live = 0usize;
        for r in regions {
            if !r.is_empty() {
                bounds = bounds.union(r);
                live += 1;
            }
        }
        if bounds.is_empty() {
            return BaselineRegionIndex {
                bounds,
                dims: [1, 1, 1],
                inv_cell: Vec3::ZERO,
                buckets: vec![Vec::new()],
                regions: regions.to_vec(),
            };
        }
        let per_axis = ((live as f64 / 2.0).cbrt().ceil() as usize).clamp(1, 64);
        let dims = [per_axis, per_axis, per_axis];
        let ext = bounds.extent();
        let safe = |e: f64| if e > 0.0 { e } else { 1.0 };
        let inv_cell = Vec3::new(
            dims[0] as f64 / safe(ext.x),
            dims[1] as f64 / safe(ext.y),
            dims[2] as f64 / safe(ext.z),
        );
        let mut index = BaselineRegionIndex {
            bounds,
            dims,
            inv_cell,
            buckets: vec![Vec::new(); dims[0] * dims[1] * dims[2]],
            regions: regions.to_vec(),
        };
        for (i, r) in regions.iter().enumerate() {
            if r.is_empty() {
                continue;
            }
            let (lo, hi) = index.cell_range(r);
            for cz in lo[2]..=hi[2] {
                for cy in lo[1]..=hi[1] {
                    for cx in lo[0]..=hi[0] {
                        let c = index.cell_id(cx, cy, cz);
                        index.buckets[c].push(i as u32);
                    }
                }
            }
        }
        index
    }

    #[inline]
    fn cell_id(&self, cx: usize, cy: usize, cz: usize) -> usize {
        cx + self.dims[0] * (cy + self.dims[1] * cz)
    }

    fn cell_range(&self, b: &pic_types::Aabb) -> ([usize; 3], [usize; 3]) {
        let rel_lo = b.min - self.bounds.min;
        let rel_hi = b.max - self.bounds.min;
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        let inv = self.inv_cell.to_array();
        for a in 0..3 {
            let max_i = self.dims[a] as isize - 1;
            lo[a] = ((rel_lo.to_array()[a] * inv[a]).floor() as isize).clamp(0, max_i) as usize;
            hi[a] = ((rel_hi.to_array()[a] * inv[a]).floor() as isize).clamp(0, max_i) as usize;
        }
        (lo, hi)
    }

    /// Collect (sorted, deduplicated) ranks touching the sphere.
    pub fn ranks_touching_sphere(&self, center: pic_types::Vec3, radius: f64, out: &mut Vec<Rank>) {
        use pic_types::Aabb;
        out.clear();
        if self.bounds.is_empty() {
            return;
        }
        let query = Aabb::new(center, center).inflate(radius);
        if !self.bounds.intersects(&query) {
            return;
        }
        let (lo, hi) = self.cell_range(&query);
        for cz in lo[2]..=hi[2] {
            for cy in lo[1]..=hi[1] {
                for cx in lo[0]..=hi[0] {
                    for &ri in &self.buckets[self.cell_id(cx, cy, cz)] {
                        let region = &self.regions[ri as usize];
                        if region.intersects_sphere(center, radius) {
                            out.push(Rank::new(ri));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Straight-line sequential replay used as the determinism oracle and
/// speedup baseline for the parallel paths: no rayon, no chunking, no
/// channels — one thread walks samples in order querying a
/// [`BaselineRegionIndex`] (the pre-optimization bucket grid with
/// per-query sort + dedup). Tests assert every replay front-end equals
/// this exactly.
///
/// This oracle and [`BaselineRegionIndex`] are the two the dev-only
/// `pic-oracle` crate re-exports rather than owns: the `perfbench`
/// benchmark calls `generator::generate_reference` by this path.
#[doc(hidden)]
pub fn generate_reference(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<DynamicWorkload> {
    let mapper = build_mapper(cfg, mesh)?;
    let mut real = CompMatrix::new(cfg.ranks);
    let mut ghost_recv = CompMatrix::new(cfg.ranks);
    let mut ghost_sent = CompMatrix::new(cfg.ranks);
    let mut bin_counts = Vec::new();
    let mut comm_entries: Vec<Vec<(u32, u32, u32)>> = Vec::new();
    let mut prev_owners: Option<Vec<Rank>> = None;
    for sample in trace.samples() {
        let outcome = mapper.assign(&sample.positions);
        let mut r = vec![0u32; cfg.ranks];
        for rank in &outcome.ranks {
            r[rank.index()] += 1;
        }
        let mut recv = vec![0u32; cfg.ranks];
        let mut sent = vec![0u32; cfg.ranks];
        if cfg.compute_ghosts {
            let index = BaselineRegionIndex::build(&outcome.rank_regions);
            let mut touched = Vec::new();
            for (i, &p) in sample.positions.iter().enumerate() {
                index.ranks_touching_sphere(p, cfg.projection_filter, &mut touched);
                let home = outcome.ranks[i];
                for &t in &touched {
                    if t != home {
                        recv[t.index()] += 1;
                        sent[home.index()] += 1;
                    }
                }
            }
        }
        real.push_sample(&r);
        ghost_recv.push_sample(&recv);
        ghost_sent.push_sample(&sent);
        bin_counts.push(outcome.bin_count);
        comm_entries.push(match &prev_owners {
            Some(prev) => migration_pairs(prev, &outcome.ranks),
            None => Vec::new(),
        });
        prev_owners = Some(outcome.ranks);
    }
    Ok(DynamicWorkload {
        ranks: cfg.ranks,
        iterations: trace.iterations(),
        real,
        ghost_recv,
        ghost_sent,
        comm: CommMatrix {
            entries: comm_entries,
        },
        bin_counts,
    })
}

/// Unbounded bin-count series over a trace (Fig 6: "relaxing the processor
/// count limitation" to find the optimal `R`).
pub fn unbounded_bin_series(trace: &ParticleTrace, threshold: f64) -> Result<Vec<usize>> {
    let mapper = BinMapper::new(1, threshold)?;
    let samples: Vec<&pic_trace::TraceSample> = trace.samples().collect();
    Ok(pic_types::pool::install(|| {
        samples
            .par_iter()
            .map(|s| mapper.unbounded_bin_count(&s.positions))
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_grid::MeshDims;
    use pic_trace::TraceMeta;
    use pic_types::rng::SplitMix64;
    use pic_types::{Aabb, Vec3};

    fn make_trace(np: usize, t: usize, spread_growth: f64, seed: u64) -> ParticleTrace {
        // Cloud whose extent grows each sample.
        let mut rng = SplitMix64::new(seed);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "synthetic");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let scale = 0.05 + spread_growth * k as f64;
            // a slow x-drift so ownership actually changes between samples
            let drift = Vec3::new(0.03 * k as f64, 0.0, 0.0);
            let positions: Vec<Vec3> = dirs
                .iter()
                .map(|d| (Vec3::splat(0.5) + *d * scale + drift).clamp(Vec3::ZERO, Vec3::ONE))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap()
    }

    #[test]
    fn real_counts_conserve_particles() {
        let tr = make_trace(500, 5, 0.05, 1);
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.02);
        let w = generate(&tr, &cfg).unwrap();
        assert_eq!(w.samples(), 5);
        for t in 0..5 {
            assert_eq!(w.real.sample_total(t), 500);
        }
        // ghosts: sent == received in aggregate
        for t in 0..5 {
            assert_eq!(w.ghost_sent.sample_total(t), w.ghost_recv.sample_total(t));
        }
    }

    #[test]
    fn element_mapping_requires_mesh() {
        let tr = make_trace(100, 2, 0.05, 2);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.02);
        assert!(generate(&tr, &cfg).is_err());
        let m = mesh();
        assert!(generate_with_mesh(&tr, &cfg, Some(&m)).is_ok());
    }

    #[test]
    fn parallel_generation_matches_sequential_semantics() {
        // Determinism across runs (rayon ordering must not leak in).
        let tr = make_trace(300, 6, 0.05, 3);
        let cfg = WorkloadConfig::new(12, MappingAlgorithm::BinBased, 0.05);
        let a = generate(&tr, &cfg).unwrap();
        let b = generate(&tr, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn comm_matrix_first_sample_empty_and_conserves() {
        let tr = make_trace(400, 4, 0.08, 4);
        let m = mesh();
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.02);
        let w = generate_with_mesh(&tr, &cfg, Some(&m)).unwrap();
        assert!(w.comm.entries[0].is_empty());
        // expanding cloud with element mapping must migrate particles
        assert!(w.comm.total() > 0);
        // migration totals bounded by particle count per interval
        for t in 0..w.samples() {
            assert!(w.comm.sample_total(t) <= 400);
        }
    }

    #[test]
    fn one_trace_many_rank_counts() {
        // The paper's headline property: a single trace yields workloads at
        // any R; more ranks can only lower (or hold) the peak.
        let tr = make_trace(1000, 4, 0.06, 5);
        let mut prev_peak = u32::MAX;
        for ranks in [4, 16, 64] {
            let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 1e-4);
            let w = generate(&tr, &cfg).unwrap();
            let peak = w.peak_workload();
            assert!(
                peak <= prev_peak,
                "ranks={ranks} peak={peak} prev={prev_peak}"
            );
            prev_peak = peak;
        }
    }

    #[test]
    fn bin_threshold_caps_scaling() {
        // Fig 5's flat region: with a coarse threshold, increasing R beyond
        // the bin cap leaves the peak unchanged.
        let tr = make_trace(800, 3, 0.02, 6);
        let coarse = 0.2; // few bins possible
        let w_small = generate(
            &tr,
            &WorkloadConfig::new(32, MappingAlgorithm::BinBased, coarse),
        )
        .unwrap();
        let w_large = generate(
            &tr,
            &WorkloadConfig::new(256, MappingAlgorithm::BinBased, coarse),
        )
        .unwrap();
        let bins_small = w_small.max_bin_count().unwrap();
        let bins_large = w_large.max_bin_count().unwrap();
        assert_eq!(bins_small, bins_large, "bin cap must not depend on R");
        assert!(bins_small < 32);
        assert_eq!(w_small.real.peak_series(), w_large.real.peak_series());
    }

    #[test]
    fn unbounded_bins_grow_with_boundary() {
        let tr = make_trace(2000, 5, 0.08, 7);
        let series = unbounded_bin_series(&tr, 0.1).unwrap();
        assert_eq!(series.len(), 5);
        assert!(
            series.last().unwrap() > series.first().unwrap(),
            "{series:?}"
        );
    }

    #[test]
    fn ghost_counts_grow_with_filter() {
        let tr = make_trace(600, 3, 0.05, 8);
        let m = mesh();
        let total_at = |filter: f64| {
            let cfg = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, filter);
            let w = generate_with_mesh(&tr, &cfg, Some(&m)).unwrap();
            (0..w.samples())
                .map(|t| w.ghost_recv.sample_total(t))
                .sum::<u64>()
        };
        let small = total_at(0.01);
        let large = total_at(0.15);
        assert!(
            large > small,
            "filter 0.15 ghosts {large} vs 0.01 ghosts {small}"
        );
    }

    #[test]
    fn skipping_ghosts_zeroes_matrices() {
        let tr = make_trace(200, 3, 0.05, 9);
        let mut cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.1);
        cfg.compute_ghosts = false;
        let w = generate(&tr, &cfg).unwrap();
        for t in 0..3 {
            assert_eq!(w.ghost_recv.sample_total(t), 0);
            assert_eq!(w.ghost_sent.sample_total(t), 0);
        }
        // real counts unaffected
        assert_eq!(w.real.sample_total(0), 200);
    }

    #[test]
    fn zero_ranks_is_error() {
        let tr = make_trace(10, 1, 0.0, 10);
        let cfg = WorkloadConfig {
            ranks: 0,
            mapping: MappingAlgorithm::BinBased,
            projection_filter: 0.1,
            compute_ghosts: false,
        };
        assert!(generate(&tr, &cfg).is_err());
    }

    /// Assert the streamed pipeline, the in-memory parallel path, and the
    /// straight-line sequential reference all agree bit-for-bit.
    fn assert_streaming_equivalence(cfg: &WorkloadConfig, mesh: Option<&ElementMesh>) {
        use pic_trace::codec::{encode_trace, Precision};
        let tr = make_trace(400, 5, 0.05, 21);
        let in_memory = generate_with_mesh(&tr, cfg, mesh).unwrap();
        let reference = generate_reference(&tr, cfg, mesh).unwrap();
        assert_eq!(
            in_memory, reference,
            "parallel path diverged from sequential"
        );
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let reader = pic_trace::TraceReader::new(&bytes[..]).unwrap();
        let (streamed, _) = generate_streaming_with_stats(reader, cfg, mesh).unwrap();
        assert_eq!(streamed, in_memory, "streamed path diverged from in-memory");
    }

    #[test]
    fn streaming_matches_in_memory_generation() {
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.04);
        assert_streaming_equivalence(&cfg, None);
    }

    #[test]
    fn streaming_matches_in_memory_element_based() {
        let m = mesh();
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::ElementBased, 0.04);
        assert_streaming_equivalence(&cfg, Some(&m));
    }

    #[test]
    fn streaming_matches_in_memory_hilbert_ordered() {
        let m = mesh();
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::HilbertOrdered, 0.04);
        assert_streaming_equivalence(&cfg, Some(&m));
    }

    #[test]
    fn streaming_matches_in_memory_load_balanced() {
        let m = mesh();
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::LoadBalanced, 0.04);
        assert_streaming_equivalence(&cfg, Some(&m));
    }

    #[test]
    fn streaming_matches_in_memory_without_ghosts() {
        let mut cfg = WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.04);
        cfg.compute_ghosts = false;
        assert_streaming_equivalence(&cfg, None);
    }

    #[test]
    fn streaming_requires_mesh_for_element_mapping() {
        use pic_trace::codec::{encode_trace, Precision};
        let tr = make_trace(50, 2, 0.05, 22);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let cfg = WorkloadConfig::new(4, MappingAlgorithm::ElementBased, 0.04);
        let reader = pic_trace::TraceReader::new(&bytes[..]).unwrap();
        assert!(generate_streaming_with_stats(reader, &cfg, None).is_err());
    }

    #[test]
    fn chunked_kernel_matches_reference_on_large_sample() {
        // Big enough to split into several ghost-kernel chunks, so the
        // parallel partial-histogram merge actually runs.
        let tr = make_trace(crate::soa::GHOST_CHUNK * 2 + 123, 2, 0.05, 33);
        let cfg = WorkloadConfig::new(32, MappingAlgorithm::BinBased, 0.05);
        let parallel = generate(&tr, &cfg).unwrap();
        let reference = generate_reference(&tr, &cfg, None).unwrap();
        assert_eq!(parallel, reference);
    }

    #[test]
    fn empty_trace_yields_empty_workload() {
        let meta = TraceMeta::new(5, 100, Aabb::unit(), "empty");
        let tr = ParticleTrace::new(meta);
        let cfg = WorkloadConfig::new(4, MappingAlgorithm::BinBased, 0.1);
        let w = generate(&tr, &cfg).unwrap();
        assert_eq!(w.samples(), 0);
        assert_eq!(w.peak_workload(), 0);
        assert_eq!(w.max_bin_count(), None);
    }
}
