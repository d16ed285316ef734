//! `picpredict` — command-line front end for the prediction framework.
//!
//! ```text
//! picpredict run       --config cfg.json --trace out.pictrace --records rec.json
//! picpredict workload  --trace t.pictrace --ranks 128 --mapping bin-based
//!                      [--stream true] [--filter 0.03] [--mesh 6x6x6 --order 3] [--out dir]
//! picpredict fit       --records rec.json --out models.json [--strategy linear|auto]
//! picpredict predict   --trace t.pictrace --models models.json --ranks 128
//!                      [--mapping bin-based] [--machine quartz|vulcan|localhost]
//!                      [--mesh 6x6x6 --order 3] [--filter 0.03] [--sync barrier|neighbor]
//! picpredict extrapolate --trace t.pictrace --out big.pictrace --particles 100000
//! ```
//!
//! `run` executes the mini PIC application and writes the trace + timing
//! records; the other commands never touch the application again — they
//! are the paper's "predict anything from one trace" workflow. Every
//! trace-consuming command sniffs the file magic and accepts either the
//! raw (`PICTRC01`) or the compact delta-encoded (`PICTRC02`) format;
//! `compact` converts between them and `simpoint` replays a clustered
//! reduction of the trace instead of every sample.
#![forbid(unsafe_code)]

use pic_des::{MachineSpec, SyncMode};
use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_predict::{
    build_schedule, kernel_models::FitStrategy, predict_application_with_stats,
    predict_kernel_seconds, KernelModels,
};
use pic_sim::{MiniPic, Recorder, SimConfig};
use pic_trace::codec;
use pic_types::{Aabb, PicError, Result};
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::metrics;
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "usage:
  picpredict run --config cfg.json --trace out.pictrace [--records rec.json] [--precision f64|f32]
  picpredict default-config                 # print a template configuration
  picpredict info --trace t.pictrace        # trace metadata and statistics
  picpredict check [--workload w.json] [--particles N | --trace t.pictrace] [--models m.json] [--pipeline true] [--serve true] [--des true]
  picpredict workload --trace t.pictrace --ranks N --mapping M [--stream true] [--filter F] [--mesh AxBxC --order K] [--out DIR]
  picpredict benchmark --out rec.json [--wallclock true] [--order K] [--filter F]
  picpredict fit --records rec.json --out models.json [--strategy linear|auto]
  picpredict predict --trace t.pictrace --models models.json --ranks N [--mapping M] [--machine NAME] [--sync barrier|neighbor] [--mesh AxBxC --order K] [--filter F]
  picpredict extrapolate --trace t.pictrace --out big.pictrace --particles N [--seed S]
  picpredict study scalability --trace T --ranks 16,32,64 --mapping M [--filter F] [--mesh AxBxC --order K]
  picpredict study bins --trace T --filter F
  picpredict study sampling --trace T --ranks N --mapping M --strides 1,2,4 [--filter F] [--mesh AxBxC]
  picpredict sweep --trace T --ranks 16,32 [--mappings M1,M2] [--filters F1,F2] [--strides 1,2]
                   [--ghosts false] [--stream true] [--mesh AxBxC --order K] [--out grid.json]
  picpredict simpoint --trace T --ranks N --mapping M [--k K] [--k-max 16] [--seed S] [--bins B]
                      [--features spatial|full]
                      [--filter F] [--mesh AxBxC --order K] [--budget 0.02] [--holdout 8]
                      [--plan-out plan.json] [--out workload.json]
  picpredict compact --trace t.pictrace --out t.pictrcz [--precision f64|f32]
  picpredict serve [--addr 127.0.0.1:7070] [--budget-mb 512] [--read-timeout-ms 2000] [--max-body-mb 256]

global flags:
  --threads N    run the command under an N-thread pool (default: shared
                 pool sized from RAYON_NUM_THREADS or machine parallelism)";

/// Parse `--key value` flags into a map; bare words are positional.
fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::new());
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (positional, flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| PicError::config(format!("missing required flag --{key}")))
}

fn parse_mapping(s: &str) -> Result<MappingAlgorithm> {
    serde_json::from_str(&format!("\"{s}\""))
        .map_err(|_| PicError::config(format!("unknown mapping '{s}'")))
}

fn parse_machine(s: &str) -> Result<MachineSpec> {
    match s {
        "quartz" | "quartz-like" => Ok(MachineSpec::quartz_like()),
        "vulcan" | "vulcan-like" => Ok(MachineSpec::vulcan_like()),
        "localhost" => Ok(MachineSpec::localhost(8)),
        path => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                PicError::config(format!(
                    "machine '{s}' is not a preset and not a readable file: {e}"
                ))
            })?;
            serde_json::from_str(&text)
                .map_err(|e| PicError::config(format!("bad machine JSON in {path}: {e}")))
        }
    }
}

/// Load a whole trace file in either on-disk format, sniffed by magic —
/// raw `PICTRC01` or compact delta-encoded `PICTRC02`.
fn load_trace(path: &str) -> Result<pic_trace::ParticleTrace> {
    pic_trace::compact::load_file_any(path)
}

fn parse_mesh(flags: &HashMap<String, String>, domain: Aabb) -> Result<Option<ElementMesh>> {
    let Some(spec) = flags.get("mesh") else {
        return Ok(None);
    };
    let dims: Vec<usize> = spec
        .split('x')
        .map(|p| {
            p.parse()
                .map_err(|_| PicError::config(format!("bad mesh spec '{spec}'")))
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(PicError::config("mesh spec must be AxBxC"));
    }
    let order: usize = flags
        .get("order")
        .map(|s| s.parse().unwrap_or(3))
        .unwrap_or(3);
    Ok(Some(ElementMesh::new(
        domain,
        MeshDims::new(dims[0], dims[1], dims[2]),
        order,
    )?))
}

fn dispatch(args: &[String]) -> Result<()> {
    let (positional, flags) = parse_flags(args);
    let cmd = positional.first().map(|s| s.as_str()).unwrap_or("");
    // Global `--threads N`: run the whole command under a pool of that
    // size. Without it, the shared-pool policy applies (pool sized from
    // `RAYON_NUM_THREADS`, falling back to the machine's parallelism).
    if let Some(spec) = flags.get("threads") {
        let n: usize = spec
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| PicError::config("--threads must be a positive integer"))?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| PicError::config(format!("cannot build {n}-thread pool: {e}")))?;
        return pool.install(|| dispatch_cmd(cmd, &positional, &flags));
    }
    dispatch_cmd(cmd, &positional, &flags)
}

fn dispatch_cmd(cmd: &str, positional: &[String], flags: &HashMap<String, String>) -> Result<()> {
    match cmd {
        "run" => cmd_run(flags),
        "default-config" => {
            println!("{}", SimConfig::default().to_json());
            Ok(())
        }
        "info" => cmd_info(flags),
        "check" => cmd_check(flags),
        "workload" => cmd_workload(flags),
        "benchmark" => cmd_benchmark(flags),
        "fit" => cmd_fit(flags),
        "predict" => cmd_predict(flags),
        "extrapolate" => cmd_extrapolate(flags),
        "study" => cmd_study(positional.get(1).map(String::as_str).unwrap_or(""), flags),
        "sweep" => cmd_sweep(flags),
        "simpoint" => cmd_simpoint(flags),
        "compact" => cmd_compact(flags),
        "serve" => cmd_serve(flags),
        "" => Err(PicError::config("no command given")),
        other => Err(PicError::config(format!("unknown command '{other}'"))),
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<()> {
    let cfg_path = required(flags, "config")?;
    let trace_path = required(flags, "trace")?;
    let cfg = SimConfig::from_json(&std::fs::read_to_string(cfg_path)?)?;
    eprintln!(
        "running: {} particles / {} elements / {} ranks / {} mapping / {} steps",
        cfg.particles,
        cfg.element_count(),
        cfg.ranks,
        cfg.mapping,
        cfg.steps
    );
    let t0 = std::time::Instant::now();
    let out = MiniPic::new(cfg)?.run()?;
    eprintln!(
        "application finished in {:.2} s",
        t0.elapsed().as_secs_f64()
    );
    let precision = match flags.get("precision").map(|s| s.as_str()) {
        Some("f32") => codec::Precision::F32,
        _ => codec::Precision::F64,
    };
    codec::save_file(&out.trace, trace_path, precision)?;
    eprintln!(
        "trace: {} samples x {} particles -> {}",
        out.trace.sample_count(),
        out.trace.particle_count(),
        trace_path
    );
    if let Some(records_path) = flags.get("records") {
        std::fs::write(records_path, out.recorder.to_json())?;
        eprintln!(
            "records: {} kernel timings -> {}",
            out.recorder.len(),
            records_path
        );
    }
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let meta = trace.meta();
    println!("description:     {}", meta.description);
    println!("particles:       {}", meta.particle_count);
    println!("samples:         {}", trace.sample_count());
    println!("sample interval: {} iterations", meta.sample_interval);
    println!("domain:          {}", meta.domain);
    let vols = pic_trace::stats::boundary_volume_series(&trace);
    if let (Some(first), Some(last)) = (vols.first(), vols.last()) {
        println!("boundary volume: {first:.4e} -> {last:.4e}");
    }
    println!(
        "max step move:   {:.4e}",
        pic_trace::stats::max_step_displacement(&trace)
    );
    Ok(())
}

/// Static verification driver: workload invariant catalog, kernel-model
/// admission + expression analysis, the pipeline interleaving matrix, and
/// the serve-layer protocol models (`--serve true`: single-flight, LRU
/// accounting, shutdown handshake — explored with ample-set reduction and
/// lasso liveness, plus the seeded-mutant corpus, every one of which must
/// be caught), and the DES batching-soundness model (`--des true`: every
/// causal processing order of a bulk-synchronous step must reach the
/// barrier fast path's closed-form time, with its own mutant corpus).
/// Exits nonzero if any check fails; warnings alone do not fail the run.
fn cmd_check(flags: &HashMap<String, String>) -> Result<()> {
    let mut ran_any = false;
    let mut failures = 0usize;

    if let Some(path) = flags.get("workload") {
        ran_any = true;
        let w: pic_workload::DynamicWorkload =
            serde_json::from_str(&std::fs::read_to_string(path)?)
                .map_err(|e| PicError::config(format!("bad workload JSON in {path}: {e}")))?;
        // the conservation reference: explicit flag, else the trace header
        let expected: Option<u64> = match flags.get("particles") {
            Some(n) => Some(
                n.parse()
                    .map_err(|_| PicError::config("--particles must be an integer"))?,
            ),
            None => match flags.get("trace") {
                Some(tp) => {
                    let file = std::fs::File::open(tp)?;
                    let reader = pic_trace::AnyTraceReader::new(std::io::BufReader::new(file))?;
                    Some(reader.meta().particle_count as u64)
                }
                None => None,
            },
        };
        let violations = pic_analysis::check_workload(&w, expected);
        if violations.is_empty() {
            println!(
                "workload {path}: OK ({} ranks x {} samples, all invariants hold)",
                w.ranks,
                w.samples()
            );
        } else {
            for v in &violations {
                eprintln!("error: {v}");
            }
            eprintln!("workload {path}: {} violation(s)", violations.len());
            failures += violations.len();
        }
    }

    if let Some(path) = flags.get("models") {
        ran_any = true;
        // from_json runs the admission pass: corrupt models error out here
        // with positioned diagnostics
        let models = KernelModels::from_json(&std::fs::read_to_string(path)?)?;
        let mut warnings = 0usize;
        for km in models.models() {
            if let pic_models::FittedModel::Symbolic(sm) = &km.model {
                let space = pic_analysis::FeatureSpace::unconstrained(km.feature_columns.len());
                let report = pic_analysis::analyze_expr(&sm.expr, &space);
                for d in &report.diagnostics {
                    println!("{}: {d}", km.kernel);
                    if d.severity == pic_analysis::Severity::Warning {
                        warnings += 1;
                    }
                }
                // Differential check: the compiled tape predictions run on
                // must match the tree evaluator on the space's corners.
                pic_analysis::check_compiled_equivalence(&sm.expr, &space)
                    .map_err(|e| PicError::model(format!("kernel '{}': {e}", km.kernel)))?;
            }
        }
        println!(
            "models {path}: OK ({} kernel model(s) admitted, {warnings} warning(s))",
            models.models().len()
        );
    }

    if flags.get("pipeline").map(|v| v != "false").unwrap_or(false) {
        ran_any = true;
        let stats = pic_analysis::verify_streaming_shutdown()
            .map_err(|e| PicError::model(format!("pipeline interleaving check failed: {e}")))?;
        println!(
            "pipeline: OK ({} states, {} terminal, {} transitions explored — no hangs or leaks)",
            stats.states, stats.terminal_states, stats.transitions
        );
    }

    if flags.get("serve").map(|v| v != "false").unwrap_or(false) {
        ran_any = true;
        // Exhaustive exploration of the three serve concurrency protocols
        // over their configuration matrices — any deadlock, liveness
        // lasso, or invariant breach comes back as a replayable schedule.
        let verdicts = pic_analysis::verify_serve_protocols()
            .map_err(|e| PicError::model(format!("serve protocol check failed: {e}")))?;
        for v in &verdicts {
            let full = match v.full {
                Some(f) => format!(
                    "full {} states, reduction {:.1}x",
                    f.states,
                    v.reduction_factor().unwrap_or(1.0)
                ),
                None => "full run skipped (reduced exploration already large)".to_string(),
            };
            println!(
                "serve {:>13} [{}]: OK — reduced {} states / {} terminal / {} ample; {}",
                v.model,
                v.config,
                v.reduced.states,
                v.reduced.terminal_states,
                v.reduced.ample_states,
                full
            );
        }
        println!(
            "serve protocols: OK ({} configuration(s) deadlock-, lost-wakeup-, and leak-free)",
            verdicts.len()
        );
        // The seeded-mutant corpus proves the checker's teeth: one
        // representative bug per class, each of which must be CAUGHT.
        let outcomes = pic_analysis::serve_mutant_corpus();
        let mut caught = 0usize;
        for o in &outcomes {
            if o.caught {
                caught += 1;
                println!("serve mutant {:<28} caught: {}", o.name, o.detail);
            } else {
                eprintln!("error: serve mutant {} ESCAPED: {}", o.name, o.detail);
                failures += 1;
            }
        }
        println!("serve mutants: {caught}/{} caught", outcomes.len());
    }

    if flags.get("des").map(|v| v != "false").unwrap_or(false) {
        ran_any = true;
        // Batching soundness for the DES barrier fast path: every causal
        // processing order of a bulk-synchronous step (compute completions,
        // inlined deliveries, redundant probes) must reach the closed-form
        // barrier time the fast path computes directly.
        let verdicts = pic_analysis::verify_des_batching()
            .map_err(|e| PicError::model(format!("des batching check failed: {e}")))?;
        for v in &verdicts {
            println!(
                "des {:>17}: OK — {} states / {} terminal / {} transitions, all orders reach the closed form",
                v.config, v.exploration.states, v.exploration.terminal_states, v.exploration.transitions
            );
        }
        println!(
            "des batching: OK ({} configuration(s), every causal order matches the fast path)",
            verdicts.len()
        );
        let outcomes = pic_analysis::des_batch_mutants();
        let mut caught = 0usize;
        for (name, was_caught) in &outcomes {
            if *was_caught {
                caught += 1;
                println!("des mutant {name:<20} caught");
            } else {
                eprintln!("error: des mutant {name} ESCAPED");
                failures += 1;
            }
        }
        println!("des mutants: {caught}/{} caught", outcomes.len());
    }

    if !ran_any {
        return Err(PicError::config(
            "nothing to check: pass --workload, --models, --pipeline true, --serve true, and/or --des true",
        ));
    }
    if failures > 0 {
        // diagnostics were already printed, positioned; no usage dump
        eprintln!("check failed with {failures} violation(s)");
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_workload(flags: &HashMap<String, String>) -> Result<()> {
    let trace_path = required(flags, "trace")?;
    let ranks: usize = required(flags, "ranks")?
        .parse()
        .map_err(|_| PicError::config("--ranks must be an integer"))?;
    let mapping = parse_mapping(required(flags, "mapping")?)?;
    let filter: f64 = flags
        .get("filter")
        .map(|s| s.parse().unwrap_or(0.03))
        .unwrap_or(0.03);
    let cfg = WorkloadConfig::new(ranks, mapping, filter);
    let streaming = flags.get("stream").map(|v| v != "false").unwrap_or(false);
    let t0 = std::time::Instant::now();
    // `--stream` replays the trace through the bounded pipeline without
    // ever loading it whole — the path for traces larger than memory. A
    // truncated or corrupt file fails here with a byte-positioned error.
    let (w, ingest, particles) = if streaming {
        let file = std::fs::File::open(trace_path)?;
        let reader = pic_trace::AnyTraceReader::new(std::io::BufReader::new(file))?;
        let particles = reader.meta().particle_count as u64;
        let mesh = parse_mesh(flags, reader.meta().domain)?;
        let (w, stats) = generator::generate_streaming_with_stats(reader, &cfg, mesh.as_ref())?;
        (w, Some(stats), particles)
    } else {
        let trace = load_trace(trace_path)?;
        let particles = trace.meta().particle_count as u64;
        let mesh = parse_mesh(flags, trace.meta().domain)?;
        (
            generator::generate_with_mesh(&trace, &cfg, mesh.as_ref())?,
            None,
            particles,
        )
    };
    eprintln!("workload generated in {:.2} s", t0.elapsed().as_secs_f64());
    // defense in depth: a generator bug (or a corrupted trace that decoded
    // cleanly) must not propagate silently into predictions
    pic_analysis::assert_workload_valid(&w, Some(particles))?;
    if let Some(stats) = &ingest {
        let json = serde_json::to_string_pretty(stats)
            .map_err(|e| PicError::config(format!("cannot serialize ingest stats: {e}")))?;
        println!("ingest stats: {json}");
    }

    let summary = metrics::summarize(&w);
    println!("ranks:                {}", summary.ranks);
    println!("samples:              {}", summary.samples);
    println!("peak workload:        {}", summary.peak_workload);
    println!(
        "resource utilization: {:.2}%",
        100.0 * summary.resource_utilization
    );
    println!(
        "mean idle fraction:   {:.2}%",
        100.0 * summary.mean_idle_fraction
    );
    println!("mean imbalance:       {:.2}", summary.mean_imbalance);
    println!("total migrations:     {}", summary.total_migrations);
    if let Some(bins) = summary.max_bins {
        println!("max bins:             {bins}");
    }
    if let Some(dir) = flags.get("out") {
        std::fs::create_dir_all(dir)?;
        std::fs::write(format!("{dir}/comp_real.csv"), w.real.to_csv())?;
        std::fs::write(format!("{dir}/comp_ghost_recv.csv"), w.ghost_recv.to_csv())?;
        let mut comm = String::from("sample,from,to,count\n");
        for (t, entries) in w.comm.entries.iter().enumerate() {
            for &(f, to, c) in entries {
                comm.push_str(&format!("{t},{f},{to},{c}\n"));
            }
        }
        std::fs::write(format!("{dir}/comm.csv"), comm)?;
        // the full workload as JSON — the input format of `picpredict check`
        let json = serde_json::to_string_pretty(&w)
            .map_err(|e| PicError::config(format!("cannot serialize workload: {e}")))?;
        std::fs::write(format!("{dir}/workload.json"), json)?;
        eprintln!("matrices written to {dir}/");
    }
    Ok(())
}

/// Kernel benchmarking sweep (paper §II-B): the preferred way to produce
/// training data, since it varies every workload parameter independently —
/// unlike a single application run, whose balanced mapping keeps `N_p`
/// nearly constant across ranks.
fn cmd_benchmark(flags: &HashMap<String, String>) -> Result<()> {
    let mut sweep = pic_sim::SweepConfig::default();
    if let Some(order) = flags.get("order") {
        sweep.order = order
            .parse()
            .map_err(|_| PicError::config("--order must be an integer"))?;
    }
    if let Some(filter) = flags.get("filter") {
        sweep.projection_filter = filter
            .parse()
            .map_err(|_| PicError::config("--filter must be a number"))?;
    }
    if flags
        .get("wallclock")
        .map(|v| v != "false")
        .unwrap_or(false)
    {
        sweep.timing = pic_sim::config::TimingMode::WallClock;
    }
    eprintln!(
        "benchmarking {} kernel observations ({:?} mode)...",
        sweep.record_count(),
        if matches!(sweep.timing, pic_sim::config::TimingMode::WallClock) {
            "wall-clock"
        } else {
            "oracle"
        }
    );
    let t0 = std::time::Instant::now();
    let rec = pic_sim::benchmark_kernels(&sweep)?;
    eprintln!("sweep finished in {:.2} s", t0.elapsed().as_secs_f64());
    let out = required(flags, "out")?;
    std::fs::write(out, rec.to_json())?;
    eprintln!("records: {} -> {out}", rec.len());
    Ok(())
}

fn cmd_fit(flags: &HashMap<String, String>) -> Result<()> {
    let recorder = Recorder::from_json(&std::fs::read_to_string(required(flags, "records")?)?)?;
    let strategy = match flags.get("strategy").map(|s| s.as_str()) {
        Some("linear") | None => FitStrategy::Linear,
        Some("auto") => FitStrategy::default(),
        Some(other) => return Err(PicError::config(format!("unknown strategy '{other}'"))),
    };
    let models = KernelModels::fit(&recorder, &strategy, 42)?;
    print!("{}", models.describe());
    println!(
        "average validation MAPE: {:.2}%",
        models.mean_validation_mape()
    );
    let out = required(flags, "out")?;
    std::fs::write(out, models.to_json())?;
    eprintln!("models -> {out}");
    Ok(())
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let models = KernelModels::from_json(&std::fs::read_to_string(required(flags, "models")?)?)?;
    let ranks: usize = required(flags, "ranks")?
        .parse()
        .map_err(|_| PicError::config("--ranks must be an integer"))?;
    let mapping = parse_mapping(
        flags
            .get("mapping")
            .map(|s| s.as_str())
            .unwrap_or("bin-based"),
    )?;
    let filter: f64 = flags
        .get("filter")
        .map(|s| s.parse().unwrap_or(0.03))
        .unwrap_or(0.03);
    let machine = parse_machine(flags.get("machine").map(|s| s.as_str()).unwrap_or("quartz"))?;
    let sync = match flags.get("sync").map(|s| s.as_str()) {
        Some("neighbor") => SyncMode::NeighborSync,
        _ => SyncMode::BulkSynchronous,
    };
    let mesh = parse_mesh(flags, trace.meta().domain)?;
    let order = flags
        .get("order")
        .map(|s| s.parse().unwrap_or(3))
        .unwrap_or(3);

    let wcfg = WorkloadConfig::new(ranks, mapping, filter);
    let w = generator::generate_with_mesh(&trace, &wcfg, mesh.as_ref())?;
    // fluid share: uniform unless a mesh is given
    let elements: Vec<u32> = match &mesh {
        Some(m) => {
            let d = pic_grid::RcbDecomposition::decompose(m, ranks)?;
            d.element_counts().iter().map(|&c| c as u32).collect()
        }
        None => vec![0; ranks],
    };
    let predicted = predict_kernel_seconds(&w, &models, &elements, order, filter);
    let schedule = build_schedule(
        &w,
        &predicted,
        trace.meta().sample_interval,
        pic_predict::pipeline::bytes_per_particle(),
    );
    let (timeline, des) = predict_application_with_stats(&schedule, &machine, sync)?;
    // machine-readable result on stdout, human summary on stderr
    #[derive(serde::Serialize)]
    struct PredictOutput {
        machine: String,
        sync: SyncMode,
        predicted_seconds: f64,
        mean_idle_fraction: f64,
        events_processed: u64,
        des_queue: &'static str,
        des_barrier_fast_path: bool,
        des_wall_seconds: f64,
        samples: usize,
        ranks: usize,
    }
    let out = PredictOutput {
        machine: machine.name.clone(),
        sync,
        predicted_seconds: timeline.total_seconds,
        mean_idle_fraction: timeline.mean_idle_fraction(),
        events_processed: des.events_processed,
        des_queue: des.queue,
        des_barrier_fast_path: des.barrier_fast_path,
        des_wall_seconds: des.wall_seconds,
        samples: schedule.len(),
        ranks,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&out)
            .map_err(|e| PicError::config(format!("cannot serialize prediction: {e}")))?
    );
    eprintln!("machine:             {}", machine.name);
    eprintln!("sync mode:           {sync:?}");
    eprintln!("predicted time:      {:.6} s", timeline.total_seconds);
    eprintln!(
        "mean idle fraction:  {:.2}%",
        100.0 * timeline.mean_idle_fraction()
    );
    eprintln!(
        "events processed:    {} (queue={}, {:.3} s simulator wall time)",
        des.events_processed, des.queue, des.wall_seconds
    );
    Ok(())
}

fn parse_usize_list(s: &str, what: &str) -> Result<Vec<usize>> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| PicError::config(format!("bad {what} entry '{p}'")))
        })
        .collect()
}

/// The paper's three analysis drivers plus the sampling-frequency study,
/// straight from the command line.
fn cmd_study(kind: &str, flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let filter: f64 = flags
        .get("filter")
        .map(|s| s.parse().unwrap_or(0.03))
        .unwrap_or(0.03);
    match kind {
        "scalability" => {
            let ranks = parse_usize_list(required(flags, "ranks")?, "ranks")?;
            let mapping = parse_mapping(
                flags
                    .get("mapping")
                    .map(|s| s.as_str())
                    .unwrap_or("bin-based"),
            )?;
            let mesh = parse_mesh(flags, trace.meta().domain)?;
            let pts = pic_predict::studies::scalability_study(
                &trace,
                mesh.as_ref(),
                mapping,
                filter,
                &ranks,
            )?;
            println!(
                "{:>8} {:>12} {:>14} {:>12}",
                "ranks", "peak", "utilization", "migrations"
            );
            for p in &pts {
                println!(
                    "{:>8} {:>12} {:>13.1}% {:>12}",
                    p.ranks,
                    p.summary.peak_workload,
                    100.0 * p.summary.resource_utilization,
                    p.summary.total_migrations
                );
            }
        }
        "bins" => {
            let study = pic_predict::studies::optimal_rank_study(&trace, filter)?;
            for (iter, bins) in study.iterations.iter().zip(&study.bin_series) {
                println!("iteration {iter:>8}: {bins} bins");
            }
            println!("optimal processor count: {}", study.optimal_rank_count());
        }
        "sampling" => {
            let ranks: usize = required(flags, "ranks")?
                .parse()
                .map_err(|_| PicError::config("--ranks must be an integer"))?;
            let mapping = parse_mapping(
                flags
                    .get("mapping")
                    .map(|s| s.as_str())
                    .unwrap_or("bin-based"),
            )?;
            let strides = parse_usize_list(
                flags
                    .get("strides")
                    .map(|s| s.as_str())
                    .unwrap_or("1,2,4,8"),
                "strides",
            )?;
            let mesh = parse_mesh(flags, trace.meta().domain)?;
            let pts = pic_predict::studies::sampling_frequency_study(
                &trace,
                ranks,
                mapping,
                mesh.as_ref(),
                filter,
                &strides,
            )?;
            println!(
                "{:>8} {:>14} {:>16} {:>22}",
                "stride", "trace bytes", "peak MAPE [%]", "migration loss [%]"
            );
            for p in &pts {
                println!(
                    "{:>8} {:>14} {:>16.2} {:>22.2}",
                    p.stride, p.trace_bytes, p.peak_workload_mape, p.migration_undercount_pct
                );
            }
        }
        other => {
            return Err(PicError::config(format!(
                "unknown study '{other}' (expected scalability | bins | sampling)"
            )))
        }
    }
    Ok(())
}

fn parse_f64_list(s: &str, what: &str) -> Result<Vec<f64>> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| PicError::config(format!("bad {what} entry '{p}'")))
        })
        .collect()
}

/// The multi-configuration sweep: replay the trace once, emit the whole
/// grid. Gated on the pic-analysis invariant catalog over every grid
/// point — a grid that fails verification is never written. The grid
/// expansion and `--out` serialization live in [`pic_predict::gridspec`],
/// shared with the resident service so both emit bit-identical bytes.
fn cmd_sweep(flags: &HashMap<String, String>) -> Result<()> {
    let trace_path = required(flags, "trace")?;
    let spec = pic_predict::SweepGridSpec {
        ranks: parse_usize_list(required(flags, "ranks")?, "ranks")?,
        mappings: flags
            .get("mappings")
            .map(|s| s.as_str())
            .unwrap_or("bin-based")
            .split(',')
            .map(|p| parse_mapping(p.trim()))
            .collect::<Result<_>>()?,
        filters: parse_f64_list(
            flags.get("filters").map(|s| s.as_str()).unwrap_or("0.03"),
            "filters",
        )?,
        strides: match flags.get("strides") {
            Some(s) => parse_usize_list(s, "strides")?,
            None => vec![1],
        },
        compute_ghosts: flags.get("ghosts").map(|v| v != "false").unwrap_or(true),
    };
    spec.validate()?;
    let streaming = flags.get("stream").map(|v| v != "false").unwrap_or(false);
    let points = spec.points();

    let t0 = std::time::Instant::now();
    let (workloads, stats, particles) = if streaming {
        let file = std::fs::File::open(trace_path)?;
        let reader = pic_trace::AnyTraceReader::new(std::io::BufReader::new(file))?;
        let particles = reader.meta().particle_count as u64;
        let mesh = parse_mesh(flags, reader.meta().domain)?;
        let (w, _) = pic_workload::sweep_streaming(reader, &points, mesh.as_ref())?;
        (w, None, particles)
    } else {
        let trace = load_trace(trace_path)?;
        let particles = trace.meta().particle_count as u64;
        let mesh = parse_mesh(flags, trace.meta().domain)?;
        let (w, stats) = pic_workload::sweep_with_stats(&trace, &points, mesh.as_ref())?;
        (w, Some(stats), particles)
    };
    eprintln!(
        "sweep of {} grid point(s) generated in {:.2} s",
        points.len(),
        t0.elapsed().as_secs_f64()
    );
    if let Some(stats) = &stats {
        eprintln!(
            "sharing: {} point(s) -> {} assignment group(s); {} of {} assignment passes run; {} ghost radii ({} group(s) served by one shared query)",
            stats.points,
            stats.groups,
            stats.assign_passes,
            stats.naive_assign_passes,
            stats.ghost_radii,
            stats.shared_query_groups,
        );
    }
    // The gate: every grid point through the full invariant catalog, with
    // (point, rank, sample)-positioned diagnostics on failure.
    pic_analysis::assert_sweep_valid(&workloads, Some(particles))?;

    println!(
        "{:>5} {:>16} {:>8} {:>10} {:>7} {:>10} {:>13} {:>12} {:>12}",
        "point",
        "mapping",
        "ranks",
        "filter",
        "stride",
        "peak",
        "utilization",
        "migrations",
        "ghosts"
    );
    for (i, (p, w)) in points.iter().zip(&workloads).enumerate() {
        let summary = metrics::summarize(w);
        let ghosts: u64 = (0..w.samples()).map(|t| w.ghost_recv.sample_total(t)).sum();
        println!(
            "{:>5} {:>16} {:>8} {:>10.4} {:>7} {:>10} {:>12.1}% {:>12} {:>12}",
            i,
            p.config.mapping.to_string(),
            p.config.ranks,
            p.config.projection_filter,
            p.stride,
            summary.peak_workload,
            100.0 * summary.resource_utilization,
            summary.total_migrations,
            ghosts
        );
    }
    if let Some(out) = flags.get("out") {
        let entries = pic_predict::grid_entries(&points, workloads);
        let json = pic_predict::grid_to_json(&entries)?;
        std::fs::write(out, json)?;
        eprintln!("full grid ({} point(s)) -> {out}", entries.len());
    }
    Ok(())
}

/// SimPoint-style reduced replay: cluster the trace's samples into
/// phases, replay one representative per phase (plus owner-only passes
/// for representative predecessors), broadcast each outcome across its
/// cluster, and gate the reconstruction on the holdout error budget
/// before anything is written. The full invariant catalog does not
/// apply here — `comm-flow` cannot hold across broadcast boundaries —
/// so the reduction gate (exact replay of held-out samples, compared on
/// peak load) is the acceptance check.
fn cmd_simpoint(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let ranks: usize = required(flags, "ranks")?
        .parse()
        .map_err(|_| PicError::config("--ranks must be an integer"))?;
    let mapping = parse_mapping(required(flags, "mapping")?)?;
    let filter: f64 = flags
        .get("filter")
        .map(|s| s.parse().unwrap_or(0.03))
        .unwrap_or(0.03);
    let cfg = WorkloadConfig::new(ranks, mapping, filter);
    let mesh = parse_mesh(flags, trace.meta().domain)?;

    let mut opts = pic_predict::SimpointOptions::default();
    if let Some(k) = flags.get("k") {
        opts.k = Some(
            k.parse()
                .map_err(|_| PicError::config("--k must be an integer"))?,
        );
    }
    if let Some(km) = flags.get("k-max") {
        opts.k_max = km
            .parse()
            .map_err(|_| PicError::config("--k-max must be an integer"))?;
    }
    if let Some(seed) = flags.get("seed") {
        opts.seed = seed
            .parse()
            .map_err(|_| PicError::config("--seed must be an integer"))?;
    }
    if let Some(bins) = flags.get("bins") {
        opts.features.bins_per_axis = bins
            .parse()
            .map_err(|_| PicError::config("--bins must be an integer"))?;
    }
    if let Some(f) = flags.get("features") {
        opts.spatial_only = match f.as_str() {
            "spatial" => true,
            "full" => false,
            _ => return Err(PicError::config("--features must be spatial or full")),
        };
    }
    let mut budget = pic_analysis::ReductionBudget::default();
    if let Some(b) = flags.get("budget") {
        budget.max_peak_rel_error = b
            .parse()
            .map_err(|_| PicError::config("--budget must be a number"))?;
    }
    if let Some(h) = flags.get("holdout") {
        budget.holdout = h
            .parse()
            .map_err(|_| PicError::config("--holdout must be an integer"))?;
    }

    let t0 = std::time::Instant::now();
    let plan = pic_predict::build_simpoint_plan(&trace, &opts)?;
    let cluster_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let (w, stats) = pic_workload::generate_reduced_with_stats(&trace, &cfg, mesh.as_ref(), &plan)?;
    let replay_s = t1.elapsed().as_secs_f64();
    let report =
        pic_analysis::assert_reduction_valid(&trace, &cfg, mesh.as_ref(), &plan, &w, &budget)?;

    println!("samples:            {}", plan.total_samples);
    println!("phases (K):         {}", plan.k());
    println!(
        "replayed samples:   {} full + {} owner-only",
        stats.representatives, stats.owner_only_samples
    );
    println!("reduction factor:   {:.1}x", stats.reduction_factor());
    println!(
        "holdout peak error: {:.4} (budget {:.4}, {} holdout sample(s))",
        report.max_rel_error,
        budget.max_peak_rel_error,
        report.points.len()
    );
    println!("timing:             cluster {cluster_s:.3} s + reduced replay {replay_s:.3} s");
    let summary = metrics::summarize(&w);
    println!("peak workload:      {}", summary.peak_workload);
    println!(
        "resource util:      {:.2}%",
        100.0 * summary.resource_utilization
    );
    if let Some(path) = flags.get("plan-out") {
        let json = serde_json::to_string_pretty(&plan)
            .map_err(|e| PicError::config(format!("cannot serialize plan: {e}")))?;
        std::fs::write(path, json)?;
        eprintln!("reduction plan -> {path}");
    }
    if let Some(path) = flags.get("out") {
        let json = serde_json::to_string_pretty(&w)
            .map_err(|e| PicError::config(format!("cannot serialize workload: {e}")))?;
        std::fs::write(path, json)?;
        eprintln!("reconstructed workload -> {path}");
    }
    Ok(())
}

/// Convert a trace (either format in) to the compact delta-encoded
/// format, reporting the size ratio. The conversion is gated on a
/// decode-back comparison: the compact file's dequantized positions must
/// bin identically under the decode path before the command succeeds.
fn cmd_compact(flags: &HashMap<String, String>) -> Result<()> {
    let in_path = required(flags, "trace")?;
    let out_path = required(flags, "out")?;
    let trace = load_trace(in_path)?;
    let precision = match flags.get("precision").map(|s| s.as_str()) {
        Some("f64") => codec::Precision::F64,
        _ => codec::Precision::F32,
    };
    let in_bytes = std::fs::metadata(in_path)?.len();
    let out_bytes = pic_trace::compact::save_file(&trace, out_path, precision)?;
    // round-trip gate: the file we just wrote must decode to the same
    // shape (sample/particle counts) before we report success
    let back = load_trace(out_path)?;
    if back.sample_count() != trace.sample_count()
        || back.particle_count() != trace.particle_count()
    {
        return Err(PicError::config(format!(
            "compact round-trip mismatch: wrote {}x{}, read back {}x{}",
            trace.sample_count(),
            trace.particle_count(),
            back.sample_count(),
            back.particle_count()
        )));
    }
    println!(
        "{in_path} ({in_bytes} B) -> {out_path} ({out_bytes} B, {:.2}x smaller)",
        in_bytes as f64 / out_bytes.max(1) as f64
    );
    Ok(())
}

/// The resident prediction service: bind, announce, serve until a
/// `POST /shutdown` arrives, then drain connections and exit cleanly.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<()> {
    let mut cfg = pic_predict::ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.clone();
    } else {
        cfg.addr = "127.0.0.1:7070".to_string();
    }
    if let Some(mb) = flags.get("budget-mb") {
        let n: usize = mb
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| PicError::config("--budget-mb must be a positive integer"))?;
        cfg.budget_bytes = n << 20;
    }
    if let Some(ms) = flags.get("read-timeout-ms") {
        let n: u64 = ms
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| PicError::config("--read-timeout-ms must be a positive integer"))?;
        cfg.read_timeout = std::time::Duration::from_millis(n);
    }
    if let Some(mb) = flags.get("max-body-mb") {
        let n: u64 = mb
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| PicError::config("--max-body-mb must be a positive integer"))?;
        cfg.max_body_bytes = n << 20;
    }
    let server = pic_predict::Server::start(cfg)?;
    println!("picpredict serve listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run_to_completion();
    println!("picpredict serve: shutdown complete");
    Ok(())
}

fn cmd_extrapolate(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let out = required(flags, "out")?;
    let particles: usize = required(flags, "particles")?
        .parse()
        .map_err(|_| PicError::config("--particles must be an integer"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().unwrap_or(1))
        .unwrap_or(1);
    let big = pic_trace::extrapolate(&trace, particles, seed)?;
    codec::save_file(&big, out, codec::Precision::F32)?;
    println!(
        "extrapolated {} -> {} particles ({} samples) -> {out}",
        trace.particle_count(),
        particles,
        big.sample_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_flags_splits_positional_and_flags() {
        let (pos, flags) = parse_flags(&argv("run --config c.json --trace t.bin"));
        assert_eq!(pos, vec!["run"]);
        assert_eq!(flags.get("config").map(String::as_str), Some("c.json"));
        assert_eq!(flags.get("trace").map(String::as_str), Some("t.bin"));
    }

    #[test]
    fn parse_flags_trailing_flag_without_value() {
        let (_, flags) = parse_flags(&argv("run --verbose"));
        assert_eq!(flags.get("verbose").map(String::as_str), Some(""));
    }

    #[test]
    fn required_reports_missing_flag() {
        let (_, flags) = parse_flags(&argv("run"));
        let err = required(&flags, "config").unwrap_err();
        assert!(err.to_string().contains("--config"));
    }

    #[test]
    fn parse_mapping_accepts_all_algorithms() {
        assert_eq!(
            parse_mapping("bin-based").unwrap(),
            MappingAlgorithm::BinBased
        );
        assert_eq!(
            parse_mapping("element-based").unwrap(),
            MappingAlgorithm::ElementBased
        );
        assert_eq!(
            parse_mapping("hilbert-ordered").unwrap(),
            MappingAlgorithm::HilbertOrdered
        );
        assert_eq!(
            parse_mapping("load-balanced").unwrap(),
            MappingAlgorithm::LoadBalanced
        );
        assert!(parse_mapping("nonsense").is_err());
    }

    #[test]
    fn parse_machine_presets() {
        assert_eq!(parse_machine("quartz").unwrap().name, "quartz-like");
        assert_eq!(parse_machine("vulcan-like").unwrap().name, "vulcan-like");
        assert_eq!(parse_machine("localhost").unwrap().nodes, 1);
        assert!(parse_machine("/nonexistent/machine.json").is_err());
    }

    #[test]
    fn parse_mesh_spec() {
        let (_, flags) = parse_flags(&argv("x --mesh 4x6x8 --order 3"));
        let mesh = parse_mesh(&flags, Aabb::unit()).unwrap().unwrap();
        assert_eq!(mesh.dims().to_array(), [4, 6, 8]);
        assert_eq!(mesh.order(), 3);
        // absent → None
        let (_, flags) = parse_flags(&argv("x"));
        assert!(parse_mesh(&flags, Aabb::unit()).unwrap().is_none());
        // malformed
        let (_, flags) = parse_flags(&argv("x --mesh 4x6"));
        assert!(parse_mesh(&flags, Aabb::unit()).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn usize_list_parsing() {
        assert_eq!(parse_usize_list("1,2, 4", "x").unwrap(), vec![1, 2, 4]);
        assert!(parse_usize_list("1,a", "x").is_err());
    }

    #[test]
    fn f64_list_parsing() {
        assert_eq!(
            parse_f64_list("0.01, 0.02,0.4", "x").unwrap(),
            vec![0.01, 0.02, 0.4]
        );
        assert!(parse_f64_list("0.01,oops", "x").is_err());
    }

    #[test]
    fn sweep_grid_is_mapping_major_cross_product() {
        // The expansion itself is tested in pic_predict::gridspec; here we
        // check the CLI builds the spec in the same canonical order.
        let spec = pic_predict::SweepGridSpec {
            mappings: vec![MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased],
            ranks: vec![16, 32],
            filters: vec![0.01, 0.02],
            strides: vec![1],
            compute_ghosts: true,
        };
        let points = spec.points();
        assert_eq!(points.len(), 8);
        // mapping-major: first half element-based, second half bin-based
        assert!(points[..4]
            .iter()
            .all(|p| p.config.mapping == MappingAlgorithm::ElementBased));
        assert!(points[4..]
            .iter()
            .all(|p| p.config.mapping == MappingAlgorithm::BinBased));
        // then ranks, then filter
        assert_eq!(points[0].config.ranks, 16);
        assert_eq!(points[1].config.projection_filter, 0.02);
        assert_eq!(points[2].config.ranks, 32);
        assert!(points
            .iter()
            .all(|p| p.stride == 1 && p.config.compute_ghosts));
    }
}
