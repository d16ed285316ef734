//! Sample steps and motion steps advance particles identically.
//!
//! A sample step sends the particles through the instrumented per-rank
//! kernels; a motion step takes the bucketed, parallel path. Running a
//! configuration once with every step a sample step and once with a
//! sample every `K` steps must therefore record bit-identical positions
//! at the steps both runs sample.

use pic_grid::MeshDims;
use pic_sim::{MiniPic, ScenarioKind, SimConfig};
use pic_trace::ParticleTrace;

const K: usize = 4;

fn trace(cfg: &SimConfig, sample_interval: usize) -> ParticleTrace {
    let cfg = SimConfig {
        sample_interval,
        ..cfg.clone()
    };
    MiniPic::new(cfg).unwrap().run().unwrap().trace
}

fn bits(trace: &ParticleTrace, t: usize) -> Vec<[u64; 3]> {
    trace
        .positions_at(t)
        .iter()
        .map(|p| p.to_array().map(f64::to_bits))
        .collect()
}

#[test]
fn sample_steps_advance_particles_as_motion_steps_do() {
    for scenario in [
        ScenarioKind::HeleShaw,
        ScenarioKind::UniformCloud,
        ScenarioKind::VortexCluster,
    ] {
        for collision_radius in [0.0, 0.03] {
            for order in [3, 5] {
                let cfg = SimConfig {
                    ranks: 8,
                    mesh_dims: MeshDims::cube(4),
                    order,
                    particles: 400,
                    scenario,
                    steps: 3 * K,
                    collision_radius,
                    ..SimConfig::default()
                };
                let every = trace(&cfg, 1);
                let sparse = trace(&cfg, K);
                assert_eq!(sparse.sample_count(), 3);
                for t in 0..sparse.sample_count() {
                    assert_eq!(
                        bits(&sparse, t),
                        bits(&every, t * K),
                        "{scenario:?}, collision radius {collision_radius}, \
                         order {order}: sample {t} (step {})",
                        t * K
                    );
                }
            }
        }
    }
}
