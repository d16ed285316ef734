//! Property-based tests: Dynamic Workload Generator conservation laws over
//! arbitrary traces.

use pic_mapping::MappingAlgorithm;
use pic_oracle::generate_reference;
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::{Aabb, Rank, Vec3};
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::{metrics, migration_pairs};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = ParticleTrace> {
    (1usize..40, 1usize..6).prop_flat_map(|(np, t)| {
        proptest::collection::vec(
            proptest::collection::vec(
                (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                np..=np,
            ),
            t..=t,
        )
        .prop_map(move |frames| {
            let meta = TraceMeta::new(np, 10, Aabb::unit(), "prop");
            let mut tr = ParticleTrace::new(meta);
            for f in frames {
                tr.push_positions(f).unwrap();
            }
            tr
        })
    })
}

fn mapping_strategy() -> impl Strategy<Value = MappingAlgorithm> {
    prop_oneof![
        Just(MappingAlgorithm::BinBased),
        Just(MappingAlgorithm::ElementBased),
        Just(MappingAlgorithm::HilbertOrdered),
        Just(MappingAlgorithm::LoadBalanced),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn real_counts_conserved_at_every_sample(tr in trace_strategy(), ranks in 1usize..32) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generator::generate(&tr, &cfg).unwrap();
        for t in 0..w.samples() {
            prop_assert_eq!(w.real.sample_total(t), tr.particle_count() as u64);
        }
    }

    #[test]
    fn ghost_send_receive_balance(tr in trace_strategy(), ranks in 1usize..24) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.08);
        let w = generator::generate(&tr, &cfg).unwrap();
        for t in 0..w.samples() {
            prop_assert_eq!(w.ghost_recv.sample_total(t), w.ghost_sent.sample_total(t));
        }
    }

    #[test]
    fn migrations_bounded_by_population(tr in trace_strategy(), ranks in 1usize..24) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generator::generate(&tr, &cfg).unwrap();
        prop_assert!(w.comm.entries[0].is_empty());
        for t in 0..w.samples() {
            prop_assert!(w.comm.sample_total(t) <= tr.particle_count() as u64);
            // no self-migrations
            for &(from, to, c) in &w.comm.entries[t] {
                prop_assert!(from != to);
                prop_assert!(c > 0);
            }
        }
    }

    #[test]
    fn single_rank_never_communicates(tr in trace_strategy()) {
        let cfg = WorkloadConfig::new(1, MappingAlgorithm::BinBased, 0.05);
        let w = generator::generate(&tr, &cfg).unwrap();
        prop_assert_eq!(w.comm.total(), 0);
        for t in 0..w.samples() {
            prop_assert_eq!(w.ghost_recv.sample_total(t), 0);
            prop_assert_eq!(w.real.get(Rank::new(0), t) as usize, tr.particle_count());
        }
    }

    #[test]
    fn utilization_bounds(tr in trace_strategy(), ranks in 1usize..32) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generator::generate(&tr, &cfg).unwrap();
        let ru = metrics::resource_utilization(&w.real);
        prop_assert!((0.0..=1.0).contains(&ru));
        let idle = metrics::mean_idle_fraction(&w.real);
        prop_assert!((0.0..=1.0).contains(&idle));
        // time-averaged utilization and idle fraction are complements
        prop_assert!((ru + idle - 1.0).abs() < 1e-12);
        // the "ever active" fraction dominates every per-sample fraction
        let ever = metrics::ever_active_fraction(&w.real);
        for t in 0..w.samples() {
            prop_assert!(ever >= metrics::active_fraction_at(&w.real, t) - 1e-12);
        }
        prop_assert!(ever >= ru - 1e-12);
    }

    #[test]
    fn migration_pairs_conserve_moves(
        prev in proptest::collection::vec(0u32..8, 1..60),
        cur_seed in any::<u64>(),
    ) {
        let prev: Vec<Rank> = prev.into_iter().map(Rank::new).collect();
        // derive cur by shifting some entries deterministically
        let cur: Vec<Rank> = prev
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if (cur_seed >> (i % 60)) & 1 == 1 {
                    Rank::new((r.0 + 1) % 8)
                } else {
                    r
                }
            })
            .collect();
        let pairs = migration_pairs(&prev, &cur);
        let moved: u32 = pairs.iter().map(|&(_, _, c)| c).sum();
        let expected = prev.iter().zip(&cur).filter(|(a, b)| a != b).count() as u32;
        prop_assert_eq!(moved, expected);
        // sorted and aggregated
        for w in pairs.windows(2) {
            prop_assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
        }
    }

    #[test]
    fn parallel_paths_match_sequential_reference(
        tr in trace_strategy(),
        ranks in 1usize..24,
        radius in 0.005..0.15f64,
        mapping in mapping_strategy(),
    ) {
        use pic_grid::{ElementMesh, MeshDims};
        let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap();
        let cfg = WorkloadConfig::new(ranks, mapping, radius);
        // The in-memory and the streamed drivers must both reproduce the straight-line sequential replay exactly.
        let reference = generate_reference(&tr, &cfg, Some(&mesh)).unwrap();
        let parallel = generator::generate_with_mesh(&tr, &cfg, Some(&mesh)).unwrap();
        prop_assert_eq!(&parallel, &reference);
        let bytes = pic_trace::codec::encode_trace(&tr, pic_trace::codec::Precision::F64).unwrap();
        let reader = pic_trace::TraceReader::new(&bytes[..]).unwrap();
        let (streamed, _) = generator::generate_streaming_with_stats(reader, &cfg, Some(&mesh)).unwrap();
        prop_assert_eq!(&streamed, &reference);
    }

    #[test]
    fn sweep_grid_matches_per_config_reference(
        tr in trace_strategy(),
        rank_counts in proptest::collection::vec(1usize..24, 1..3),
        radii in proptest::collection::vec(0.005..0.15f64, 1..4),
        strides in proptest::collection::vec(1usize..4, 1..3),
        mappings in proptest::collection::vec(mapping_strategy(), 1..3),
    ) {
        use pic_grid::{ElementMesh, MeshDims};
        use pic_workload::sweep::{self, SweepPoint};
        let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap();
        let mut points = Vec::new();
        for &mapping in &mappings {
            for &ranks in &rank_counts {
                for &radius in &radii {
                    for &stride in &strides {
                        points.push(SweepPoint::with_stride(
                            WorkloadConfig::new(ranks, mapping, radius),
                            stride,
                        ));
                    }
                }
            }
        }
        // Every grid point of the shared-replay sweep must reproduce the
        // straight-line sequential replay of its subsampled trace exactly.
        let workloads = sweep::sweep(&tr, &points, Some(&mesh)).unwrap();
        prop_assert_eq!(workloads.len(), points.len());
        for (p, w) in points.iter().zip(&workloads) {
            let sub = tr.subsample(p.stride);
            let reference = generate_reference(&sub, &p.config, Some(&mesh)).unwrap();
            prop_assert_eq!(w, &reference);
        }
        // The bounded-memory streaming sweep folds to the same grid.
        let bytes = pic_trace::codec::encode_trace(&tr, pic_trace::codec::Precision::F64).unwrap();
        let reader = pic_trace::TraceReader::new(&bytes[..]).unwrap();
        let (streamed, _) = sweep::sweep_streaming(reader, &points, Some(&mesh)).unwrap();
        prop_assert_eq!(&streamed, &workloads);
    }

    #[test]
    fn peak_series_dominates_every_rank(tr in trace_strategy(), ranks in 1usize..16) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generator::generate(&tr, &cfg).unwrap();
        let peaks = w.real.peak_series();
        #[allow(clippy::needless_range_loop)] // t is the sample id
        for t in 0..w.samples() {
            for r in 0..ranks {
                prop_assert!(w.real.get(Rank::from_index(r), t) <= peaks[t]);
            }
        }
    }
}
