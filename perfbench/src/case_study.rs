//! `case-study`: the full pipeline of paper Fig 2 on the
//! `picpredict default-config` Hele-Shaw case — mini-app run, trace
//! encode, workload generation, validity gate, ground-truth match, model
//! fit, kernel-time prediction, kernel MAPE, schedule, DES.
//!
//! The seed picks the particles' initial positions; every other
//! parameter is the default configuration.

use crate::run::{digest_f64s, Run};
use crate::spans::Tracer;
use pic_des::{MachineSpec, SyncMode};
use pic_predict::{pipeline, validate, FitStrategy, KernelModels};
use pic_sim::{MiniPic, SimConfig};
use pic_trace::codec::{self, Precision};
use pic_types::rng::SplitMix64;
use pic_workload::{generator, WorkloadConfig};

/// The generated input: one mini-app configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The configuration the pipeline runs.
    pub config: SimConfig,
}

/// Inputs for `seed`. `small` shrinks the case for tests.
pub fn inputs(seed: u64, small: bool) -> Inputs {
    let mut config = SimConfig {
        seed: SplitMix64::new(seed).next_u64(),
        ..SimConfig::default()
    };
    if small {
        config.ranks = 8;
        config.mesh_dims = pic_grid::MeshDims::cube(4);
        config.order = 3;
        config.particles = 300;
        config.steps = 30;
    }
    Inputs { config }
}

/// What one case study returns for checking.
struct CaseOutput {
    /// Digest of the predicted timeline and the per-kernel MAPE.
    digest: String,
    mean_mape_pct: f64,
    trace_bytes: usize,
    particle_samples: f64,
    evals: f64,
    events: u64,
    peak_queue_len: usize,
    violations: usize,
}

fn case_study(cfg: &SimConfig, tr: &mut Tracer) -> Result<CaseOutput, String> {
    let e = |e: pic_types::PicError| e.to_string();
    let app = tr
        .span("pic-sim.new", |_| MiniPic::new(cfg.clone()))
        .map_err(e)?;
    let mesh = app.mesh().clone();
    let elements_per_rank: Vec<u32> = app
        .decomposition()
        .element_counts()
        .iter()
        .map(|&c| c as u32)
        .collect();
    let sim = tr.span("pic-sim.run", |_| app.run()).map_err(e)?;
    let encoded = tr
        .span("pic-trace.encode", |_| {
            codec::encode_trace(&sim.trace, Precision::F64)
        })
        .map_err(e)?;
    let wcfg = WorkloadConfig::new(cfg.ranks, cfg.mapping, cfg.projection_filter);
    let workload = tr
        .span("pic-workload.generate", |_| {
            generator::generate_with_mesh(&sim.trace, &wcfg, Some(&mesh))
        })
        .map_err(e)?;
    let particles = Some(sim.trace.particle_count() as u64);
    let violations = tr.span("pic-analysis.gate", |_| {
        pic_analysis::check_workload(&workload, particles).len()
    });
    tr.span("pic-predict.validate", |_| {
        validate::workload_matches_ground_truth(&workload, &sim.ground_truth)
    })
    .map_err(e)?;
    let models = tr
        .span("pic-models.fit", |_| {
            KernelModels::fit(&sim.recorder, &FitStrategy::Linear, cfg.seed)
        })
        .map_err(e)?;
    let predicted = tr.span("pic-predict.kernel_seconds", |_| {
        pipeline::predict_kernel_seconds(
            &workload,
            &models,
            &elements_per_rank,
            cfg.order,
            cfg.projection_filter,
        )
    });
    let kernel_mape = tr
        .span("pic-predict.validate", |_| {
            validate::kernel_mape_vs_ground_truth(&predicted, &sim.ground_truth)
        })
        .map_err(e)?;
    let schedule = tr.span("pic-predict.build_schedule", |_| {
        pipeline::build_schedule(
            &workload,
            &predicted,
            cfg.sample_interval as u32,
            pipeline::bytes_per_particle(),
        )
    });
    let (timeline, stats) = tr
        .span("pic-des.simulate_barrier", |_| {
            pic_des::simulate_with_stats(
                &schedule,
                &MachineSpec::quartz_like(),
                SyncMode::BulkSynchronous,
                pic_des::EngineConfig::default(),
            )
        })
        .map_err(e)?;
    let mapes: Vec<f64> = kernel_mape.iter().map(|&(_, m)| m).collect();
    Ok(CaseOutput {
        digest: digest_f64s(
            std::iter::once(timeline.total_seconds)
                .chain(timeline.rank_finish.iter().copied())
                .chain(timeline.rank_idle.iter().copied())
                .chain(mapes.iter().copied()),
        ),
        mean_mape_pct: pic_types::stats::mean(&mapes),
        trace_bytes: encoded.len(),
        particle_samples: (sim.trace.particle_count() * sim.trace.sample_count()) as f64,
        evals: (workload.ranks * workload.samples() * 6) as f64,
        events: timeline.events_processed,
        peak_queue_len: stats.peak_queue_len,
        violations,
    })
}

/// Run the workload.
pub fn run(inputs: &Inputs, run: &mut Run) -> Result<(), String> {
    let cfg = &inputs.config;
    // Set-up is the application's own initialisation: mesh, element
    // decomposition, particle seeding and mapper construction.
    run.setup(|tr| {
        tr.span("pic-sim.new", |_| MiniPic::new(cfg.clone()))
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    let outputs = run.repeat("case-study", |tr| case_study(cfg, tr));
    let Some(first) = outputs.first() else {
        return Ok(());
    };

    // The same seed must give the same timeline and MAPE every time, and
    // the library's own composition of the pipeline must agree.
    for (i, o) in outputs.iter().enumerate() {
        run.check(o.digest == first.digest, || {
            format!(
                "case study {i} digest {} differs from {}",
                o.digest, first.digest
            )
        });
        run.check(o.violations == 0, || {
            format!("case study {i}: {} workload violations", o.violations)
        });
    }
    match pic_predict::run_case_study(cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear) {
        Ok(reference) => {
            let mapes = reference.kernel_mape.iter().map(|&(_, m)| m);
            let t = &reference.timeline;
            let want = digest_f64s(
                std::iter::once(t.total_seconds)
                    .chain(t.rank_finish.iter().copied())
                    .chain(t.rank_idle.iter().copied())
                    .chain(mapes),
            );
            run.check(want == first.digest, || {
                format!(
                    "digest {} differs from run_case_study's {want}",
                    first.digest
                )
            });
        }
        Err(e) => run.check(false, || format!("run_case_study: {e}")),
    }
    eprintln!(
        "perfbench: case-study digest {} mean kernel MAPE {:.4}%",
        first.digest, first.mean_mape_pct
    );

    let particle_steps = (cfg.particles * cfg.steps) as f64;
    let l = run.tracer.ledger("case-study");
    let per = |stage| l.per_root(stage);
    if l.roots > 0 {
        run.set(
            "pic-sim.particle_steps_per_s",
            particle_steps / per("pic-sim.run"),
        );
        run.set(
            "pic-models.evals_per_s",
            first.evals / per("pic-predict.kernel_seconds"),
        );
        run.set(
            "pic-workload.particle_samples_per_s",
            first.particle_samples / per("pic-workload.generate"),
        );
        run.set(
            "pic-des.events_per_s",
            first.events as f64 / per("pic-des.simulate_barrier"),
        );
    }
    run.set("pic-trace.bytes", first.trace_bytes as f64);
    run.set("pic-models.kernel_mape_pct", first.mean_mape_pct);
    run.set("pic-des.events", first.events as f64);
    run.set("pic-des.peak_queue_len", first.peak_queue_len as f64);
    let violations = outputs.iter().map(|o| o.violations).sum::<usize>();
    run.set("pic-analysis.violations", violations as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_inputs() {
        assert_eq!(inputs(1, false), inputs(1, false));
        assert_ne!(inputs(1, false), inputs(2, false));
    }
}
