//! Every replay front-end ≡ the sequential oracle, as one table.
//!
//! All of `pic-workload`'s replay entry points run on the one sweep
//! engine; this table pins each of them bit for bit to
//! `pic_oracle::generate_reference` over `trace.subsample(stride)`, across
//! all four mappings, radii `0`, positive, `-0.0`, negative and NaN,
//! strides 1 and 3, ghosts on and off, and empty and one-sample traces.
//! Where the oracle rejects a configuration (bin-based mapping with a
//! non-positive or NaN bin threshold), every front-end must reject it too.

use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_oracle::generate_reference;
use pic_trace::codec::{encode_trace, Precision};
use pic_trace::{ParticleTrace, TraceMeta, TraceReader};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Result, Vec3};
use pic_workload::generator::{self, DynamicWorkload, WorkloadConfig};
use pic_workload::sweep::{self, AssignmentCache, SweepPoint};
use pic_workload::{generate_reduced, sweep_reduced, ReductionPlan};

const MAPPINGS: [MappingAlgorithm; 4] = [
    MappingAlgorithm::BinBased,
    MappingAlgorithm::ElementBased,
    MappingAlgorithm::HilbertOrdered,
    MappingAlgorithm::LoadBalanced,
];

const RADII: [f64; 5] = [0.0, 0.04, -0.0, -0.3, f64::NAN];

/// An expanding, drifting particle cloud, so ownership and ghost counts
/// change from sample to sample.
fn cloud(np: usize, samples: usize, seed: u64) -> ParticleTrace {
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
    let mut tr = ParticleTrace::new(TraceMeta::new(np, 100, Aabb::unit(), "frontends"));
    for k in 0..samples {
        let scale = 0.05 + 0.05 * k as f64;
        let drift = Vec3::new(0.03 * k as f64, 0.0, 0.0);
        let positions = dirs
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

fn config(mapping: MappingAlgorithm, radius: f64, ghosts: bool) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::new(12, mapping, radius);
    cfg.compute_ghosts = ghosts;
    cfg
}

fn reader(trace: &ParticleTrace) -> TraceReader<std::io::Cursor<Vec<u8>>> {
    let bytes = encode_trace(trace, Precision::F64).unwrap();
    TraceReader::new(std::io::Cursor::new(bytes)).unwrap()
}

fn only(workloads: Result<Vec<DynamicWorkload>>) -> Result<DynamicWorkload> {
    workloads.map(|mut w| {
        assert_eq!(w.len(), 1, "one sweep point yields one workload");
        w.remove(0)
    })
}

/// Run every front-end on one configuration and stride.
fn frontends(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    stride: usize,
    mesh: &ElementMesh,
) -> Vec<(&'static str, Result<DynamicWorkload>)> {
    let sub = trace.subsample(stride);
    let point = [SweepPoint::with_stride(cfg.clone(), stride)];
    let identity = ReductionPlan::identity(sub.sample_count());
    let cache = AssignmentCache::new(64 << 20);
    let mut out = vec![
        (
            "generate_with_mesh",
            generator::generate_with_mesh(&sub, cfg, Some(mesh)),
        ),
        ("sweep", only(sweep::sweep(trace, &point, Some(mesh)))),
        (
            "sweep_with_stats",
            only(sweep::sweep_with_stats(trace, &point, Some(mesh)).map(|(w, _)| w)),
        ),
        (
            "sweep_with_cache (cold)",
            only(sweep::sweep_with_cache(trace, &point, Some(mesh), &cache).map(|(w, _)| w)),
        ),
        (
            "sweep_with_cache (warm)",
            only(
                sweep::sweep_with_cache(trace, &point, Some(mesh), &cache).map(|(w, s)| {
                    assert_eq!(s.cached_groups, 1, "warm sweep missed the cache");
                    assert_eq!(s.assign_passes, 0, "warm sweep re-ran the assignment");
                    w
                }),
            ),
        ),
        (
            "sweep_streaming",
            only(sweep::sweep_streaming(reader(trace), &point, Some(mesh)).map(|(w, _)| w)),
        ),
        (
            "generate_streaming_with_stats",
            generator::generate_streaming_with_stats(reader(&sub), cfg, Some(mesh)).map(|(w, _)| w),
        ),
        (
            "generate_reduced",
            generate_reduced(&sub, cfg, Some(mesh), &identity),
        ),
        (
            "sweep_reduced",
            only(sweep_reduced(
                &sub,
                &[SweepPoint::new(cfg.clone())],
                Some(mesh),
                &identity,
            )),
        ),
    ];
    if cfg.mapping == MappingAlgorithm::BinBased {
        out.push(("generate", generator::generate(&sub, cfg)));
    }
    out
}

fn assert_table(trace: &ParticleTrace) {
    let mesh = mesh();
    for mapping in MAPPINGS {
        for radius in RADII {
            for ghosts in [true, false] {
                for stride in [1, 3] {
                    let cfg = config(mapping, radius, ghosts);
                    let case = format!("{mapping:?} r={radius} ghosts={ghosts} stride={stride}");
                    let oracle = generate_reference(&trace.subsample(stride), &cfg, Some(&mesh));
                    for (name, got) in frontends(trace, &cfg, stride, &mesh) {
                        match (&oracle, got) {
                            (Ok(expected), Ok(got)) => {
                                assert_eq!(&got, expected, "{name} diverged: {case}")
                            }
                            (Err(_), Err(_)) => {}
                            (Ok(_), Err(e)) => {
                                panic!("{name} failed where the oracle ran: {case}: {e}")
                            }
                            (Err(e), Ok(_)) => {
                                panic!("{name} ran where the oracle failed: {case}: {e}")
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_frontend_matches_the_oracle() {
    assert_table(&cloud(150, 7, 1));
}

#[test]
fn every_frontend_matches_the_oracle_on_an_empty_trace() {
    assert_table(&ParticleTrace::new(TraceMeta::new(
        5,
        100,
        Aabb::unit(),
        "empty",
    )));
}

#[test]
fn every_frontend_matches_the_oracle_on_a_one_sample_trace() {
    assert_table(&cloud(80, 1, 2));
}

/// The multi-radius pass: one sweep over every radius and ghost toggle per
/// mapping and stride, so shared radii share one candidate query while NaN
/// and negative radii take the single-radius kernel in the same group.
#[test]
fn multi_radius_grids_match_the_oracle() {
    let trace = cloud(150, 7, 3);
    let mesh = mesh();
    for mapping in MAPPINGS {
        for stride in [1, 3] {
            let sub = trace.subsample(stride);
            let mut points = Vec::new();
            let mut expected = Vec::new();
            for radius in RADII {
                for ghosts in [true, false] {
                    let cfg = config(mapping, radius, ghosts);
                    if let Ok(w) = generate_reference(&sub, &cfg, Some(&mesh)) {
                        points.push(SweepPoint::with_stride(cfg, stride));
                        expected.push(w);
                    }
                }
            }
            let (swept, _) = sweep::sweep_with_stats(&trace, &points, Some(&mesh)).unwrap();
            assert_eq!(swept, expected, "{mapping:?} stride={stride} (in memory)");
            let (streamed, _) =
                sweep::sweep_streaming(reader(&trace), &points, Some(&mesh)).unwrap();
            assert_eq!(
                streamed, expected,
                "{mapping:?} stride={stride} (streaming)"
            );
        }
    }
}
