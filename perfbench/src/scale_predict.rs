//! `scale-predict`: `picpredict predict` at a large rank count, in both
//! sync modes. A small trace with many samples (few particles per rank,
//! many ranks) is decoded in set-up; each operation makes the two
//! predictions a rebalancing study makes per candidate — BulkSynchronous
//! then NeighborSync — each generating the workload, gating it,
//! predicting kernel times, building the schedule and simulating.
//!
//! Here the prediction layers dominate: sequential kernel-time
//! prediction, the DWG at many ranks, and the NeighborSync DES, which is
//! the only run whose event queue matters (BulkSynchronous takes the
//! barrier fast path).

use crate::run::{digest_f64s, Run};
use crate::spans::Tracer;
use pic_des::{EngineConfig, MachineSpec, SyncMode};
use pic_grid::{ElementMesh, MeshDims, RcbDecomposition};
use pic_mapping::MappingAlgorithm;
use pic_predict::{pipeline, KernelModels};
use pic_trace::codec::{self, Precision};
use pic_trace::ParticleTrace;
use pic_workload::{generator, WorkloadConfig};
use std::path::PathBuf;

/// The generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The recorded trace.
    pub trace: ParticleTrace,
    /// Target rank count.
    pub ranks: usize,
    /// Mesh whose element decomposition gives the fluid workload.
    pub mesh_dims: MeshDims,
    /// Element order.
    pub order: usize,
    /// Projection filter.
    pub filter: f64,
    /// Seed for the model-fitting records.
    pub model_seed: u64,
}

/// Inputs for `seed`. `small` shrinks the case for tests.
pub fn inputs(seed: u64, small: bool) -> Inputs {
    let (particles, samples, ranks, mesh) = if small {
        (200, 20, 256, 8)
    } else {
        (2_000, 200, 16_384, 32)
    };
    Inputs {
        trace: pic_bench::synthetic_expanding_trace(particles, samples, seed),
        ranks,
        mesh_dims: MeshDims::cube(mesh),
        order: 5,
        filter: 0.03,
        model_seed: seed,
    }
}

struct Setup {
    trace: ParticleTrace,
    elements: Vec<u32>,
    models: KernelModels,
}

/// One prediction's results.
struct Prediction {
    total_seconds: f64,
    digest_parts: Vec<f64>,
    events: u64,
    peak_queue_len: usize,
    violations: usize,
}

fn predict(
    s: &Setup,
    inputs: &Inputs,
    mode: SyncMode,
    tr: &mut Tracer,
) -> Result<Prediction, String> {
    let e = |e: pic_types::PicError| e.to_string();
    let cfg = WorkloadConfig::new(inputs.ranks, MappingAlgorithm::BinBased, inputs.filter);
    let workload = tr
        .span("pic-workload.generate", |_| {
            generator::generate(&s.trace, &cfg)
        })
        .map_err(e)?;
    let particles = Some(s.trace.particle_count() as u64);
    let mut violations = tr.span("pic-analysis.gate", |_| {
        pic_analysis::check_workload(&workload, particles).len()
    });
    let predicted = tr.span("pic-predict.kernel_seconds", |_| {
        pipeline::predict_kernel_seconds(
            &workload,
            &s.models,
            &s.elements,
            inputs.order,
            inputs.filter,
        )
    });
    violations += tr.span("pic-analysis.gate", |_| {
        pic_analysis::check_prediction(&predicted).len()
    });
    let schedule = tr.span("pic-predict.build_schedule", |_| {
        pipeline::build_schedule(
            &workload,
            &predicted,
            s.trace.meta().sample_interval,
            pipeline::bytes_per_particle(),
        )
    });
    let stage = match mode {
        SyncMode::BulkSynchronous => "pic-des.simulate_barrier",
        SyncMode::NeighborSync => "pic-des.simulate_neighbor",
    };
    let (timeline, stats) = tr
        .span(stage, |_| {
            pic_des::simulate_with_stats(
                &schedule,
                &MachineSpec::quartz_like(),
                mode,
                EngineConfig::default(),
            )
        })
        .map_err(e)?;
    Ok(Prediction {
        total_seconds: timeline.total_seconds,
        digest_parts: std::iter::once(timeline.total_seconds)
            .chain(timeline.step_finish.iter().copied())
            .chain(timeline.rank_idle.iter().copied())
            .collect(),
        events: timeline.events_processed,
        peak_queue_len: stats.peak_queue_len,
        violations,
    })
}

/// Run the workload.
pub fn run(inputs: &Inputs, run: &mut Run) -> Result<(), String> {
    let dir = crate::scratch_dir()?;
    let path: PathBuf = dir.join(format!("scale-predict-{}.pictrace", std::process::id()));
    codec::save_file(&inputs.trace, &path, Precision::F64).map_err(|e| e.to_string())?;
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();

    let setup = run.setup(|tr| {
        let trace = tr
            .span("pic-trace.decode", |_| codec::load_file(&path))
            .map_err(|e| e.to_string())?;
        let elements = tr.span("pic-grid.decompose", |_| {
            let mesh = ElementMesh::new(trace.meta().domain, inputs.mesh_dims, inputs.order)
                .map_err(|e| e.to_string())?;
            let d = RcbDecomposition::decompose(&mesh, inputs.ranks).map_err(|e| e.to_string())?;
            Ok::<_, String>(d.element_counts().iter().map(|&c| c as u32).collect())
        })?;
        let models = tr.span("pic-models.fit", |_| {
            pic_bench::oracle_models(inputs.model_seed)
        });
        Ok(Setup {
            trace,
            elements,
            models,
        })
    });
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let setup = setup?;
    run.check(setup.trace == inputs.trace, || {
        "decoded trace differs from the recorded one".to_string()
    });

    let outputs = run.repeat("scale-predict", |tr| {
        let barrier = predict(&setup, inputs, SyncMode::BulkSynchronous, tr)?;
        let neighbor = predict(&setup, inputs, SyncMode::NeighborSync, tr)?;
        Ok((barrier, neighbor))
    });
    let Some((b0, n0)) = outputs.first() else {
        return Ok(());
    };
    let digest_of = |b: &Prediction, n: &Prediction| {
        digest_f64s(b.digest_parts.iter().chain(&n.digest_parts).copied())
    };
    let first_digest = digest_of(b0, n0);
    for (i, (b, n)) in outputs.iter().enumerate() {
        let d = digest_of(b, n);
        run.check(d == first_digest, || {
            format!("prediction {i} digest {d} differs from {first_digest}")
        });
        run.check(n.total_seconds <= b.total_seconds, || {
            format!(
                "prediction {i}: NeighborSync {} s exceeds BulkSynchronous {} s",
                n.total_seconds, b.total_seconds
            )
        });
        run.check(b.violations + n.violations == 0, || {
            format!(
                "prediction {i}: {} gate violations",
                b.violations + n.violations
            )
        });
    }
    eprintln!(
        "perfbench: scale-predict digest {first_digest} barrier {} s neighbor {} s",
        b0.total_seconds, n0.total_seconds
    );

    let samples = setup.trace.sample_count();
    let l = run.tracer.ledger("scale-predict");
    if l.roots > 0 {
        let replayed = (2 * setup.trace.particle_count() * samples) as f64;
        run.set(
            "pic-workload.particle_samples_per_s",
            replayed / l.per_root("pic-workload.generate"),
        );
        let evals = (2 * inputs.ranks * samples * 6) as f64;
        run.set(
            "pic-models.evals_per_s",
            evals / l.per_root("pic-predict.kernel_seconds"),
        );
        let des_s =
            l.per_root("pic-des.simulate_barrier") + l.per_root("pic-des.simulate_neighbor");
        run.set(
            "pic-des.events_per_s",
            (b0.events + n0.events) as f64 / des_s,
        );
    }
    run.set("pic-trace.bytes", file_bytes as f64);
    run.set("pic-des.events", (b0.events + n0.events) as f64);
    run.set(
        "pic-des.peak_queue_len",
        b0.peak_queue_len.max(n0.peak_queue_len) as f64,
    );
    let violations: usize = outputs
        .iter()
        .map(|(b, n)| b.violations + n.violations)
        .sum();
    run.set("pic-analysis.violations", violations as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_inputs() {
        assert_eq!(inputs(1, true), inputs(1, true));
        assert_ne!(inputs(1, true).trace, inputs(2, true).trace);
    }
}
