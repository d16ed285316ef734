//! `picpredict` — command-line front end for the prediction framework.
//!
//! ```text
//! picpredict run       --config cfg.json --trace out.pictrace --records rec.json
//! picpredict workload  --trace t.pictrace --ranks 128 --mapping bin-based
//!                      [--stream true] [--filter 0.03] [--mesh 6x6x6 --order 3] [--out dir]
//! picpredict fit       --records rec.json --out models.json [--strategy linear|auto]
//! picpredict predict   --trace t.pictrace --models models.json --ranks 128
//!                      [--mapping bin-based] [--machine quartz|vulcan|localhost|file.json]
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

use pic_des::MachineSpec;
use pic_grid::ElementMesh;
use pic_predict::request::PredictError::{Gate, Refused};
use pic_predict::request::{self, parse_mapping, PredictSpec};
use pic_predict::{kernel_models::FitStrategy, KernelModels};
use pic_sim::{MiniPic, Recorder, SimConfig};
use pic_trace::codec;
// whole-file loads sniff the magic: raw `PICTRC01` or compact `PICTRC02`
use pic_trace::compact::load_file_any as load_trace;
use pic_types::{Aabb, PicError, Result};
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::metrics;
use std::collections::HashMap;
use std::str::FromStr;

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
  picpredict predict --trace t.pictrace --models models.json --ranks N [--mapping M] [--filter F] [--sync barrier|neighbor]
                     [--machine quartz|quartz-like|vulcan|vulcan-like|localhost|FILE.json] [--mesh AxBxC --order K]
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

boolean flags (--stream, --ghosts, --wallclock, --pipeline, --serve, --des): true|false; a bare last flag means true

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

/// `--key` as given, or `default` when the flag is absent.
fn flag_str<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map_or(default, String::as_str)
}

/// Parse `s`, the value of `--key`; a malformed value is a
/// configuration error that names the flag.
fn parse_value<T: FromStr>(key: &str, s: &str) -> Result<T> {
    s.parse().map_err(|_| {
        let want = std::any::type_name::<T>();
        PicError::config(format!("--{key}: cannot parse '{s}' as {want}"))
    })
}

/// `--key` parsed as `T`, or `default` when the flag is absent.
fn flag<T: FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> Result<T> {
    flags.get(key).map_or(Ok(default), |s| parse_value(key, s))
}

/// `--key` parsed as `T`, if given.
fn opt_flag<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<Option<T>> {
    flags.get(key).map(|s| parse_value(key, s)).transpose()
}

/// `--key` as a positive integer, if given.
fn positive<T: FromStr + PartialOrd + Default>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>> {
    match opt_flag(flags, key)? {
        Some(n) if n <= T::default() => Err(PicError::config(format!(
            "--{key} must be a positive integer"
        ))),
        n => Ok(n),
    }
}

/// Boolean `--key true|false`; a bare `--key` at the end of the line
/// means `true`.
fn switch(flags: &HashMap<String, String>, key: &str, default: bool) -> Result<bool> {
    match flags.get(key).map(String::as_str) {
        Some("") => Ok(true),
        _ => flag(flags, key, default),
    }
}

/// `--precision f32|f64`, or `default` when absent.
fn precision(flags: &HashMap<String, String>, default: &str) -> Result<codec::Precision> {
    match flag_str(flags, "precision", default) {
        "f32" => Ok(codec::Precision::F32),
        "f64" => Ok(codec::Precision::F64),
        other => Err(PicError::config(format!(
            "--precision must be f32 or f64, not '{other}'"
        ))),
    }
}

/// A comma-separated list, each entry parsed as `T`; `what` names the flag.
fn parse_list<T: FromStr>(s: &str, what: &str) -> Result<Vec<T>> {
    s.split(',').map(|p| parse_value(what, p.trim())).collect()
}

/// `value` as pretty-printed JSON; `what` names it in the error.
fn pretty_json<T: serde::Serialize>(value: &T, what: &str) -> Result<String> {
    serde_json::to_string_pretty(value)
        .map_err(|e| PicError::config(format!("cannot serialize {what}: {e}")))
}

/// `--machine`: a preset name, else a machine JSON file (the service
/// accepts presets only).
fn parse_machine(s: &str) -> Result<MachineSpec> {
    if let Ok(preset) = request::machine_preset(s) {
        return Ok(preset);
    }
    let text = std::fs::read_to_string(s).map_err(|e| {
        PicError::config(format!(
            "machine '{s}' is not a preset and not a readable file: {e}"
        ))
    })?;
    serde_json::from_str(&text)
        .map_err(|e| PicError::config(format!("bad machine JSON in {s}: {e}")))
}

/// `--mesh AxBxC [--order K]` over `domain`, if given.
fn parse_mesh(flags: &HashMap<String, String>, domain: Aabb) -> Result<Option<ElementMesh>> {
    let order = flag(flags, "order", request::DEFAULT_ORDER)?;
    request::parse_mesh(flags.get("mesh").map(String::as_str), order, domain)
}

fn dispatch(args: &[String]) -> Result<()> {
    let (positional, flags) = parse_flags(args);
    let cmd = positional.first().map(|s| s.as_str()).unwrap_or("");
    // Global `--threads N`: run the whole command under a pool of that
    // size. Without it, the shared-pool policy applies (pool sized from
    // `RAYON_NUM_THREADS`, falling back to the machine's parallelism).
    if let Some(n) = positive::<usize>(&flags, "threads")? {
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
    let precision = precision(flags, "f64")?;
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
        let expected: Option<u64> = match (opt_flag(flags, "particles")?, flags.get("trace")) {
            (None, Some(tp)) => {
                let file = std::fs::File::open(tp)?;
                let reader = pic_trace::AnyTraceReader::new(std::io::BufReader::new(file))?;
                Some(reader.meta().particle_count as u64)
            }
            (n, _) => n,
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

    if switch(flags, "pipeline", false)? {
        ran_any = true;
        let stats = pic_analysis::verify_streaming_shutdown()
            .map_err(|e| PicError::model(format!("pipeline interleaving check failed: {e}")))?;
        println!(
            "pipeline: OK ({} states, {} terminal, {} transitions explored — no hangs or leaks)",
            stats.states, stats.terminal_states, stats.transitions
        );
    }

    if switch(flags, "serve", false)? {
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

    if switch(flags, "des", false)? {
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
    let ranks = parse_value("ranks", required(flags, "ranks")?)?;
    let mapping = parse_mapping(required(flags, "mapping")?)?;
    let filter = flag(flags, "filter", request::DEFAULT_FILTER)?;
    let cfg = WorkloadConfig::new(ranks, mapping, filter);
    let streaming = switch(flags, "stream", false)?;
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
        println!("ingest stats: {}", pretty_json(stats, "ingest stats")?);
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
        std::fs::write(format!("{dir}/workload.json"), pretty_json(&w, "workload")?)?;
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
    sweep.order = flag(flags, "order", sweep.order)?;
    sweep.projection_filter = flag(flags, "filter", sweep.projection_filter)?;
    if switch(flags, "wallclock", false)? {
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

/// One gated prediction through [`request::predict_point`]: the JSON
/// document on stdout is the `POST /predict` response body, pretty-printed.
fn cmd_predict(flags: &HashMap<String, String>) -> Result<()> {
    let ranks = parse_value("ranks", required(flags, "ranks")?)?;
    let mapping = parse_mapping(flag_str(flags, "mapping", request::DEFAULT_MAPPING))?;
    let filter = flag(flags, "filter", request::DEFAULT_FILTER)?;
    let machine = parse_machine(flag_str(flags, "machine", request::DEFAULT_MACHINE))?;
    let sync = request::parse_sync(flag_str(flags, "sync", request::DEFAULT_SYNC))?;
    let order = flag(flags, "order", request::DEFAULT_ORDER)?;
    let trace = load_trace(required(flags, "trace")?)?;
    let models = KernelModels::from_json(&std::fs::read_to_string(required(flags, "models")?)?)?;
    let spec = PredictSpec {
        workload: WorkloadConfig::new(ranks, mapping, filter),
        machine,
        sync,
        mesh: parse_mesh(flags, trace.meta().domain)?,
        order,
    };
    let p =
        request::predict_point(&trace, &models, &spec, None).map_err(|(Refused(e) | Gate(e))| e)?;
    // machine-readable result on stdout, human summary on stderr
    println!("{}", pretty_json(&p, "prediction")?);
    eprintln!("machine:             {}", p.machine);
    eprintln!("sync mode:           {}", p.sync);
    eprintln!("predicted time:      {:.6} s", p.predicted_seconds);
    eprintln!("mean idle fraction:  {:.2}%", 100.0 * p.mean_idle_fraction);
    eprintln!(
        "events processed:    {} (queue={}, {:.3} s simulator wall time)",
        p.events_processed, p.des_queue, p.des_wall_seconds
    );
    Ok(())
}

/// The paper's three analysis drivers plus the sampling-frequency study,
/// straight from the command line.
fn cmd_study(kind: &str, flags: &HashMap<String, String>) -> Result<()> {
    let filter = flag(flags, "filter", request::DEFAULT_FILTER)?;
    let mapping = parse_mapping(flag_str(flags, "mapping", request::DEFAULT_MAPPING))?;
    let trace = load_trace(required(flags, "trace")?)?;
    match kind {
        "scalability" => {
            let ranks = parse_list(required(flags, "ranks")?, "ranks")?;
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
            let ranks = parse_value("ranks", required(flags, "ranks")?)?;
            let strides = parse_list(flag_str(flags, "strides", "1,2,4,8"), "strides")?;
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

/// The multi-configuration sweep: replay the trace once, emit the whole
/// grid. Gated on the pic-analysis invariant catalog over every grid
/// point — a grid that fails verification is never written. The grid
/// expansion and `--out` serialization live in [`pic_predict::gridspec`],
/// shared with the resident service so both emit bit-identical bytes.
fn cmd_sweep(flags: &HashMap<String, String>) -> Result<()> {
    let trace_path = required(flags, "trace")?;
    let spec = pic_predict::SweepGridSpec {
        ranks: parse_list(required(flags, "ranks")?, "ranks")?,
        mappings: flag_str(flags, "mappings", request::DEFAULT_MAPPING)
            .split(',')
            .map(|p| parse_mapping(p.trim()))
            .collect::<Result<_>>()?,
        filters: match flags.get("filters") {
            Some(s) => parse_list(s, "filters")?,
            None => vec![request::DEFAULT_FILTER],
        },
        strides: match flags.get("strides") {
            Some(s) => parse_list(s, "strides")?,
            None => vec![1],
        },
        compute_ghosts: switch(flags, "ghosts", true)?,
    };
    spec.validate()?;
    let streaming = switch(flags, "stream", false)?;
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
    let ranks = parse_value("ranks", required(flags, "ranks")?)?;
    let mapping = parse_mapping(required(flags, "mapping")?)?;
    let filter = flag(flags, "filter", request::DEFAULT_FILTER)?;
    let cfg = WorkloadConfig::new(ranks, mapping, filter);

    let mut opts = pic_predict::SimpointOptions::default();
    opts.k = opt_flag(flags, "k")?;
    opts.k_max = flag(flags, "k-max", opts.k_max)?;
    opts.seed = flag(flags, "seed", opts.seed)?;
    opts.features.bins_per_axis = flag(flags, "bins", opts.features.bins_per_axis)?;
    if let Some(f) = flags.get("features") {
        opts.spatial_only = match f.as_str() {
            "spatial" => true,
            "full" => false,
            _ => return Err(PicError::config("--features must be spatial or full")),
        };
    }
    let mut budget = pic_analysis::ReductionBudget::default();
    budget.max_peak_rel_error = flag(flags, "budget", budget.max_peak_rel_error)?;
    budget.holdout = flag(flags, "holdout", budget.holdout)?;
    let trace = load_trace(required(flags, "trace")?)?;
    let mesh = parse_mesh(flags, trace.meta().domain)?;

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
        std::fs::write(path, pretty_json(&plan, "plan")?)?;
        eprintln!("reduction plan -> {path}");
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, pretty_json(&w, "workload")?)?;
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
    let precision = precision(flags, "f32")?;
    let trace = load_trace(in_path)?;
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
    let mut cfg = pic_predict::ServeConfig {
        addr: flag_str(flags, "addr", "127.0.0.1:7070").to_string(),
        ..Default::default()
    };
    if let Some(mb) = positive::<usize>(flags, "budget-mb")? {
        cfg.budget_bytes = mb << 20;
    }
    if let Some(ms) = positive(flags, "read-timeout-ms")? {
        cfg.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(mb) = positive::<u64>(flags, "max-body-mb")? {
        cfg.max_body_bytes = mb << 20;
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
    let out = required(flags, "out")?;
    let particles: usize = parse_value("particles", required(flags, "particles")?)?;
    let seed = flag(flags, "seed", 1u64)?;
    let trace = load_trace(required(flags, "trace")?)?;
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
    use pic_mapping::MappingAlgorithm;

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
        assert_eq!(parse_list::<usize>("1,2, 4", "x").unwrap(), vec![1, 2, 4]);
        assert!(parse_list::<usize>("1,a", "x").is_err());
    }

    #[test]
    fn f64_list_parsing() {
        assert_eq!(
            parse_list::<f64>("0.01, 0.02,0.4", "x").unwrap(),
            vec![0.01, 0.02, 0.4]
        );
        assert!(parse_list::<f64>("0.01,oops", "x").is_err());
    }

    /// Run `args` and return its configuration error, which must name
    /// `--flag`. Every command checks its flags before it opens a file,
    /// so the missing trace paths below are never reached.
    fn flag_error(args: &str, flag: &str) -> String {
        let err = dispatch(&argv(args)).unwrap_err().to_string();
        assert!(err.contains(&format!("--{flag}")), "{args}: {err}");
        err
    }

    #[test]
    fn filter_flag_rejects_malformed_values() {
        for cmd in [
            "workload --trace none --ranks 4 --mapping bin-based",
            "predict --trace none --models none --ranks 4",
            "study bins --trace none",
            "simpoint --trace none --ranks 4 --mapping bin-based",
        ] {
            flag_error(&format!("{cmd} --filter abc"), "filter");
        }
        let (_, flags) = parse_flags(&argv("x --filter 0.05"));
        assert_eq!(flag(&flags, "filter", 0.03).unwrap(), 0.05);
        assert_eq!(flag(&HashMap::new(), "filter", 0.03).unwrap(), 0.03);
    }

    #[test]
    fn order_flag_rejects_malformed_values() {
        flag_error(
            "predict --trace none --models none --ranks 4 --order three",
            "order",
        );
        let (_, flags) = parse_flags(&argv("x --mesh 4x4x4 --order 2.5"));
        let err = parse_mesh(&flags, Aabb::unit()).unwrap_err().to_string();
        assert!(err.contains("--order"), "{err}");
    }

    #[test]
    fn seed_flag_rejects_malformed_values() {
        flag_error(
            "extrapolate --trace none --out none --particles 9 --seed -1",
            "seed",
        );
        flag_error(
            "simpoint --trace none --ranks 4 --mapping bin-based --seed x",
            "seed",
        );
    }

    #[test]
    fn sync_flag_accepts_only_barrier_or_neighbor() {
        for bad in ["bogus", "bulk-synchronous", "Barrier"] {
            let err = dispatch(&argv(&format!(
                "predict --trace none --models none --ranks 4 --sync {bad}"
            )))
            .unwrap_err();
            assert!(err.to_string().contains("sync mode"), "{err}");
        }
        // the accepted names get past the flag and fail on the trace
        for ok in ["barrier", "neighbor"] {
            let err = dispatch(&argv(&format!(
                "predict --trace /nonexistent/t --models none --ranks 4 --sync {ok}"
            )))
            .unwrap_err();
            assert!(!err.to_string().contains("sync"), "{err}");
        }
    }

    #[test]
    fn precision_flag_accepts_only_f32_or_f64() {
        for cmd in [
            "run --config none --trace none",
            "compact --trace none --out none",
        ] {
            for bad in ["F64", "f16", ""] {
                flag_error(&format!("{cmd} --precision {bad}"), "precision");
            }
        }
        let (_, flags) = parse_flags(&argv("x --precision f64"));
        assert_eq!(precision(&flags, "f32").unwrap(), codec::Precision::F64);
        let (_, flags) = parse_flags(&argv("x"));
        assert_eq!(precision(&flags, "f32").unwrap(), codec::Precision::F32);
    }

    #[test]
    fn boolean_flags_accept_only_true_or_false() {
        for (cmd, key) in [
            (
                "workload --trace none --ranks 4 --mapping bin-based",
                "stream",
            ),
            ("sweep --trace none --ranks 4", "stream"),
            ("sweep --trace none --ranks 4", "ghosts"),
            ("benchmark", "wallclock"),
            ("check", "pipeline"),
            ("check", "serve"),
            ("check", "des"),
        ] {
            flag_error(&format!("{cmd} --{key} yes"), key);
        }
        // `--stream --out d` no longer reads `--out` as "stream on"
        flag_error(
            "workload --trace none --ranks 4 --mapping bin-based --stream --out d",
            "stream",
        );
        let (_, flags) = parse_flags(&argv("x --a true --b false --c"));
        assert!(switch(&flags, "a", false).unwrap());
        assert!(!switch(&flags, "b", true).unwrap());
        assert!(switch(&flags, "c", false).unwrap(), "bare trailing flag");
        assert!(
            switch(&flags, "d", true).unwrap(),
            "absent flag keeps default"
        );
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
