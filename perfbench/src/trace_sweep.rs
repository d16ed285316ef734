//! `trace-sweep`: `picpredict sweep` over a recorded trace. A synthetic
//! expanding cloud is written to disk, decoded in set-up, then each
//! operation sweeps it over a paper-style grid (bin-based and
//! Hilbert-ordered mappings, 64 to 1024 ranks, three filters, with a
//! mesh), gates the grid with `check_sweep`, and predicts every point in
//! BulkSynchronous mode.
//!
//! Hilbert-ordered points at 1024 ranks stay in the grid: their ghost
//! phase is the sweep's hotspot.

use crate::run::{digest, Run};
use crate::spans::Tracer;
use pic_des::{MachineSpec, SyncMode};
use pic_grid::{ElementMesh, MeshDims, RcbDecomposition};
use pic_mapping::MappingAlgorithm;
use pic_predict::{pipeline, KernelModels, SweepGridSpec};
use pic_trace::codec::{self, Precision};
use pic_trace::ParticleTrace;
use pic_workload::{generator, DynamicWorkload, SweepPoint};
use std::path::PathBuf;

/// The generated input: a trace and the grid to sweep it over.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The recorded trace.
    pub trace: ParticleTrace,
    /// The grid.
    pub grid: SweepGridSpec,
    /// Mesh for the element-based mappings.
    pub mesh_dims: MeshDims,
    /// Element order.
    pub order: usize,
    /// Seed for the model-fitting records.
    pub model_seed: u64,
    /// Grid point checked against the sequential reference generator.
    pub oracle_point: usize,
}

/// Inputs for `seed`. `small` shrinks the case for tests.
pub fn inputs(seed: u64, small: bool) -> Inputs {
    let (particles, samples) = if small { (2_000, 3) } else { (20_000, 6) };
    let ranks = if small {
        vec![16, 64]
    } else {
        vec![64, 256, 1024]
    };
    let grid = SweepGridSpec {
        mappings: vec![MappingAlgorithm::BinBased, MappingAlgorithm::HilbertOrdered],
        ranks,
        filters: vec![0.02, 0.03, 0.05],
        strides: vec![1],
        compute_ghosts: true,
    };
    Inputs {
        trace: pic_bench::synthetic_expanding_trace(particles, samples, seed),
        oracle_point: oracle_point(&grid, seed),
        grid,
        mesh_dims: MeshDims::cube(if small { 6 } else { 16 }),
        order: 5,
        model_seed: seed,
    }
}

/// The grid point the seed picks for the oracle comparison, among the
/// points below the largest rank count: the sequential oracle at 1024
/// Hilbert-ordered ranks takes longer than the whole measurement.
fn oracle_point(grid: &SweepGridSpec, seed: u64) -> usize {
    let largest = grid.ranks.iter().copied().max().unwrap_or(0);
    let cheap: Vec<usize> = grid
        .points()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.config.ranks < largest)
        .map(|(i, _)| i)
        .collect();
    cheap[(seed % cheap.len() as u64) as usize]
}

struct Setup {
    trace: ParticleTrace,
    mesh: ElementMesh,
    /// Elements per rank for each rank count of the grid.
    elements: Vec<(usize, Vec<u32>)>,
    models: KernelModels,
}

struct SweepOutput {
    workloads: Vec<DynamicWorkload>,
    /// Predicted application seconds of every point.
    totals: Vec<f64>,
    assign_pass_ratio: f64,
    violations: usize,
}

fn sweep(
    s: &Setup,
    points: &[SweepPoint],
    order: usize,
    tr: &mut Tracer,
) -> Result<SweepOutput, String> {
    let e = |e: pic_types::PicError| e.to_string();
    let (workloads, stats) = tr
        .span("pic-workload.sweep", |_| {
            pic_workload::sweep_with_stats(&s.trace, points, Some(&s.mesh))
        })
        .map_err(e)?;
    let particles = Some(s.trace.particle_count() as u64);
    let violations = tr.span("pic-analysis.gate", |_| {
        pic_analysis::check_sweep(&workloads, particles).len()
    });
    let machine = MachineSpec::quartz_like();
    let mut totals = Vec::with_capacity(points.len());
    for (p, w) in points.iter().zip(&workloads) {
        let elements = &s
            .elements
            .iter()
            .find(|(r, _)| *r == p.config.ranks)
            .expect("element counts for every grid rank count")
            .1;
        let filter = p.config.projection_filter;
        let predicted = tr.span("pic-predict.kernel_seconds", |_| {
            pipeline::predict_kernel_seconds(w, &s.models, elements, order, filter)
        });
        let schedule = tr.span("pic-predict.build_schedule", |_| {
            pipeline::build_schedule(
                w,
                &predicted,
                s.trace.meta().sample_interval,
                pipeline::bytes_per_particle(),
            )
        });
        let timeline = tr
            .span("pic-des.simulate_barrier", |_| {
                pic_des::simulate(&schedule, &machine, SyncMode::BulkSynchronous)
            })
            .map_err(e)?;
        totals.push(timeline.total_seconds);
    }
    Ok(SweepOutput {
        workloads,
        totals,
        assign_pass_ratio: stats.assign_passes as f64 / stats.naive_assign_passes as f64,
        violations,
    })
}

/// Run the workload.
pub fn run(inputs: &Inputs, run: &mut Run) -> Result<(), String> {
    let dir = crate::scratch_dir()?;
    let path: PathBuf = dir.join(format!("trace-sweep-{}.pictrace", std::process::id()));
    codec::save_file(&inputs.trace, &path, Precision::F64).map_err(|e| e.to_string())?;
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let points = inputs.grid.points();

    let setup = run.setup(|tr| {
        let trace = tr
            .span("pic-trace.decode", |_| codec::load_file(&path))
            .map_err(|e| e.to_string())?;
        let (mesh, elements) = tr.span("pic-grid.decompose", |_| {
            let mesh = ElementMesh::new(trace.meta().domain, inputs.mesh_dims, inputs.order)
                .map_err(|e| e.to_string())?;
            let elements = inputs
                .grid
                .ranks
                .iter()
                .map(|&r| {
                    let d = RcbDecomposition::decompose(&mesh, r).map_err(|e| e.to_string())?;
                    Ok((r, d.element_counts().iter().map(|&c| c as u32).collect()))
                })
                .collect::<Result<_, String>>()?;
            Ok::<_, String>((mesh, elements))
        })?;
        let models = tr.span("pic-models.fit", |_| {
            pic_bench::oracle_models(inputs.model_seed)
        });
        Ok(Setup {
            trace,
            mesh,
            elements,
            models,
        })
    });
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let setup = setup?;
    run.check(setup.trace == inputs.trace, || {
        "decoded trace differs from the recorded one".to_string()
    });

    let outputs = run.repeat("trace-sweep", |tr| sweep(&setup, &points, inputs.order, tr));
    let Some(first) = outputs.first() else {
        return Ok(());
    };
    let digest_of = |o: &SweepOutput| -> Result<String, String> {
        let mut bytes = serde_json::to_string(&o.workloads)
            .map_err(|e| e.to_string())?
            .into_bytes();
        for t in &o.totals {
            bytes.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        Ok(digest(&bytes))
    };
    let first_digest = digest_of(first)?;
    for (i, o) in outputs.iter().enumerate() {
        let d = digest_of(o)?;
        run.check(d == first_digest, || {
            format!("sweep {i} digest {d} differs from {first_digest}")
        });
        run.check(o.violations == 0, || {
            format!("sweep {i}: {} check_sweep violations", o.violations)
        });
    }
    // One grid point per run against the sequential reference generator.
    let k = inputs.oracle_point;
    match generator::generate_reference(&setup.trace, &points[k].config, Some(&setup.mesh)) {
        Ok(reference) => run.check(reference == first.workloads[k], || {
            format!("grid point {k} differs from generate_reference")
        }),
        Err(e) => run.check(false, || format!("generate_reference at point {k}: {e}")),
    }
    eprintln!("perfbench: trace-sweep digest {first_digest}");

    let l = run.tracer.ledger("trace-sweep");
    if l.roots > 0 {
        let particle_samples =
            (setup.trace.particle_count() * setup.trace.sample_count() * points.len()) as f64;
        run.set(
            "pic-workload.particle_samples_per_s",
            particle_samples / l.per_root("pic-workload.sweep"),
        );
        let evals: usize = points
            .iter()
            .map(|p| p.config.ranks * setup.trace.sample_count() * 6)
            .sum();
        run.set(
            "pic-models.evals_per_s",
            evals as f64 / l.per_root("pic-predict.kernel_seconds"),
        );
    }
    run.set("pic-trace.bytes", file_bytes as f64);
    run.set("pic-workload.assign_pass_ratio", first.assign_pass_ratio);
    let violations = outputs.iter().map(|o| o.violations).sum::<usize>();
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
