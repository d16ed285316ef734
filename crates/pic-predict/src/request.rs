//! The prediction request of `picpredict predict` and `POST /predict`
//! (DESIGN.md §13): one vocabulary of names and defaults, and
//! [`predict_point`], the gated one-point prediction whose [`Prediction`]
//! both surfaces serialize.

use crate::kernel_models::KernelModels;
use crate::pipeline::{
    build_schedule, bytes_per_particle, elements_per_rank, predict_kernel_seconds,
};
use pic_des::{MachineSpec, SyncMode};
use pic_grid::{ElementMesh, MeshDims, RcbDecomposition};
use pic_mapping::MappingAlgorithm;
use pic_trace::ParticleTrace;
use pic_types::{Aabb, PicError, Result};
use pic_workload::{AssignmentCache, SweepPoint, WorkloadConfig};
use serde::Serialize;

/// Mapping algorithm when none is named.
pub const DEFAULT_MAPPING: &str = "bin-based";
/// Projection-filter radius when none is given.
pub const DEFAULT_FILTER: f64 = 0.03;
/// Polynomial order of the element mesh when none is given.
pub const DEFAULT_ORDER: usize = 3;
/// Machine preset when none is named.
pub const DEFAULT_MACHINE: &str = "quartz";
/// Synchronization mode when none is named.
pub const DEFAULT_SYNC: &str = "barrier";

/// A mapping algorithm by its kebab-case name (`bin-based`, ...).
pub fn parse_mapping(name: &str) -> Result<MappingAlgorithm> {
    serde_json::from_str(&format!("\"{name}\""))
        .map_err(|_| PicError::config(format!("unknown mapping '{name}'")))
}

/// A machine preset: `quartz|quartz-like|vulcan|vulcan-like|localhost`.
pub fn machine_preset(name: &str) -> Result<MachineSpec> {
    match name {
        "quartz" | "quartz-like" => Ok(MachineSpec::quartz_like()),
        "vulcan" | "vulcan-like" => Ok(MachineSpec::vulcan_like()),
        "localhost" => Ok(MachineSpec::localhost(8)),
        _ => Err(PicError::config(format!(
            "unknown machine '{name}' (presets: quartz|quartz-like|vulcan|vulcan-like|localhost)"
        ))),
    }
}

/// A synchronization mode by name: `barrier|neighbor`.
pub fn parse_sync(name: &str) -> Result<SyncMode> {
    match name {
        "barrier" => Ok(SyncMode::BulkSynchronous),
        "neighbor" => Ok(SyncMode::NeighborSync),
        _ => Err(PicError::config(format!(
            "unknown sync mode '{name}' (expected barrier|neighbor)"
        ))),
    }
}

/// The name [`parse_sync`] accepts for `mode`; both surfaces print it.
pub fn sync_name(mode: SyncMode) -> &'static str {
    match mode {
        SyncMode::BulkSynchronous => "barrier",
        SyncMode::NeighborSync => "neighbor",
    }
}

/// An `AxBxC` element mesh of polynomial `order` over `domain`; `None`
/// when no spec is given.
pub fn parse_mesh(spec: Option<&str>, order: usize, domain: Aabb) -> Result<Option<ElementMesh>> {
    let Some(spec) = spec else { return Ok(None) };
    let bad = || PicError::config(format!("bad mesh spec '{spec}' (want AxBxC)"));
    let dims: Vec<usize> = spec
        .split('x')
        .map(|p| p.parse())
        .collect::<std::result::Result<_, _>>()
        .map_err(|_| bad())?;
    let &[a, b, c] = dims.as_slice() else {
        return Err(bad());
    };
    ElementMesh::new(domain, MeshDims::new(a, b, c), order).map(Some)
}

/// One prediction query, parsed: everything but the trace and models.
pub struct PredictSpec {
    /// The replayed point: rank count, mapping and projection filter.
    pub workload: WorkloadConfig,
    /// Target machine.
    pub machine: MachineSpec,
    /// Synchronization between steps.
    pub sync: SyncMode,
    /// Element mesh for the fluid share; `None` models no fluid work.
    pub mesh: Option<ElementMesh>,
    /// Polynomial order the models were trained with.
    pub order: usize,
}

/// One predicted application time: the `picpredict predict` stdout
/// document and the `POST /predict` response body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Prediction {
    /// Machine name (the preset's canonical name).
    pub machine: String,
    /// Synchronization mode, as [`sync_name`] spells it.
    pub sync: &'static str,
    /// Predicted application seconds.
    pub predicted_seconds: f64,
    /// Mean fraction of time ranks sit idle.
    pub mean_idle_fraction: f64,
    /// DES events processed.
    pub events_processed: u64,
    /// Event-queue implementation (`"none"` on the barrier fast path).
    pub des_queue: &'static str,
    /// Whether the bulk-synchronous fast path evaluated the run.
    pub des_barrier_fast_path: bool,
    /// Simulator wall-clock seconds for this prediction.
    pub des_wall_seconds: f64,
    /// Trace samples (DES super-steps).
    pub samples: usize,
    /// Rank count.
    pub ranks: usize,
}

/// Why [`predict_point`] made no prediction.
#[derive(Debug)]
pub enum PredictError {
    /// The input was refused (serve answers 422).
    Refused(PicError),
    /// The answer failed a response validity gate (serve answers 500).
    Gate(PicError),
}

/// Predict one application time: one-point replay, workload gate,
/// per-rank kernel seconds, prediction gate, DES schedule, timed
/// simulation. `cache` shares assignment artifacts with other requests
/// against the same trace; the result is bit-identical without it.
pub fn predict_point(
    trace: &ParticleTrace,
    models: &KernelModels,
    spec: &PredictSpec,
    cache: Option<&AssignmentCache>,
) -> std::result::Result<Prediction, PredictError> {
    use PredictError::{Gate, Refused};
    let point = [SweepPoint::new(spec.workload.clone())];
    let ranks = spec.workload.ranks;
    let mesh = spec.mesh.as_ref();
    let (mut workloads, _) = match cache {
        Some(cache) => pic_workload::sweep_with_cache(trace, &point, mesh, cache),
        None => pic_workload::sweep_with_stats(trace, &point, mesh),
    }
    .map_err(Refused)?;
    let workload = workloads.pop().expect("one point in, one workload out");
    pic_analysis::assert_workload_valid(&workload, Some(trace.particle_count() as u64))
        .map_err(Gate)?;
    // fluid share: uniform zero unless a mesh is given
    let elements: Vec<u32> = match mesh {
        Some(m) => elements_per_rank(&RcbDecomposition::decompose(m, ranks).map_err(Refused)?),
        None => vec![0; ranks],
    };
    let filter = spec.workload.projection_filter;
    let predicted = predict_kernel_seconds(&workload, models, &elements, spec.order, filter);
    // no NaN / negative / ragged kernel time reaches the simulator
    pic_analysis::assert_prediction_valid(&predicted).map_err(Gate)?;
    let schedule = build_schedule(
        &workload,
        &predicted,
        trace.meta().sample_interval,
        bytes_per_particle(),
    );
    let start = std::time::Instant::now();
    let (timeline, stats) =
        pic_des::simulate_with_stats(&schedule, &spec.machine, spec.sync, pic_des::EngineConfig)
            .map_err(Refused)?;
    Ok(Prediction {
        machine: spec.machine.name.clone(),
        sync: sync_name(spec.sync),
        predicted_seconds: timeline.total_seconds,
        mean_idle_fraction: timeline.mean_idle_fraction(),
        events_processed: timeline.events_processed,
        des_queue: stats.queue,
        des_barrier_fast_path: stats.barrier_fast_path,
        des_wall_seconds: start.elapsed().as_secs_f64(),
        samples: schedule.len(),
        ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_names_round_trip() {
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            assert_eq!(parse_sync(sync_name(mode)).unwrap(), mode);
        }
        assert!(parse_sync("bulk-synchronous").is_err());
        assert_eq!(sync_name(parse_sync(DEFAULT_SYNC).unwrap()), DEFAULT_SYNC);
    }

    #[test]
    fn machine_presets_and_default() {
        assert_eq!(machine_preset(DEFAULT_MACHINE).unwrap().name, "quartz-like");
        assert_eq!(machine_preset("vulcan").unwrap().name, "vulcan-like");
        assert!(machine_preset("cray").is_err());
    }

    #[test]
    fn mesh_spec_needs_three_numeric_axes() {
        let m = parse_mesh(Some("2x3x4"), DEFAULT_ORDER, Aabb::unit())
            .unwrap()
            .unwrap();
        assert_eq!(m.dims().to_array(), [2, 3, 4]);
        assert!(parse_mesh(None, 3, Aabb::unit()).unwrap().is_none());
        for bad in ["2x3", "2x3x4x5", "2xax4", ""] {
            assert!(parse_mesh(Some(bad), 3, Aabb::unit()).is_err(), "{bad}");
        }
    }
}
