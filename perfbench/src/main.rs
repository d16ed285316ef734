//! End-to-end and per-layer benchmark over the pic-predict workflows.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets up (several times,
//! reporting the median), runs operations for the given number of
//! seconds, checks every output, and prints one JSON line: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics from spans recorded around each call into a layer. See
//! `README.md` for the workloads and metrics.

mod case_study;
mod metrics;
mod run;
mod scale_predict;
mod serve;
mod spans;
mod trace_sweep;

use metrics::{Outcome, OP_STAGES, SETUP_STAGES};
use run::{median, peak_rss_mb, Run};
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["case-study", "trace-sweep", "scale-predict", "serve"];

/// Directory, relative to the working directory, for files a run writes:
/// recorded traces (removed after set-up) and span dumps.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run one workload; `small` selects the reduced inputs tests use.
fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
) -> Result<Run, String> {
    let mut run = Run::new(seconds, trace);
    match workload {
        "case-study" => case_study::run(&case_study::inputs(seed, small), &mut run)?,
        "trace-sweep" => trace_sweep::run(&trace_sweep::inputs(seed, small), &mut run)?,
        "scale-predict" => scale_predict::run(&scale_predict::inputs(seed, small), &mut run)?,
        "serve" => serve::run(&serve::inputs(seed, small), &mut run)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(run)
}

/// Root span name of a workload's operations.
fn op_root(workload: &str) -> &str {
    if workload == "serve" {
        "request"
    } else {
        workload
    }
}

/// Turn a finished run into the declared metrics.
fn outcome(workload: &str, run: &Run) -> Result<Outcome, String> {
    let mut values = std::collections::BTreeMap::new();
    if run.trace {
        run.tracer.check_well_nested()?;
        let threads = pic_types::pool::configured_threads();
        let op = run.tracer.ledger(op_root(workload));
        let setup = run.tracer.ledger("setup");
        // A stage or counter this workload never reaches reads 0.
        for (name, _) in metrics::per_layer() {
            values.insert(name, 0.0);
        }
        for stage in OP_STAGES {
            values.insert(format!("{stage}_s"), op.per_root(stage));
            values.insert(format!("{stage}_share"), op.share(stage));
        }
        for stage in SETUP_STAGES {
            values.insert(format!("setup.{stage}_s"), setup.per_root(stage));
        }
        let roots = op.roots.max(1) as f64;
        values.insert("ledger.op_s".into(), op.total_s / roots);
        values.insert("residual_s".into(), op.residual_s / roots);
        if op.total_s > 0.0 {
            values.insert("residual_share".into(), op.residual_s / op.total_s);
        }
        values.insert(
            "setup.total_s".into(),
            setup.total_s / setup.roots.max(1) as f64,
        );
        values.insert(
            "setup.residual_s".into(),
            setup.residual_s / setup.roots.max(1) as f64,
        );
        let (traced, untraced) = (median(&run.traced_op_ms), median(&run.op_ms));
        if traced > 0.0 && untraced > 0.0 {
            values.insert("trace_overhead_frac".into(), traced / untraced - 1.0);
        }
        values.insert("threads".into(), threads as f64);
        for (name, v) in &run.layer {
            values.insert(name.to_string(), *v);
        }
        eprint!(
            "{}",
            op.table(&format!("{workload} operation ledger"), threads)
        );
        eprint!(
            "{}",
            setup.table(&format!("{workload} set-up ledger"), threads)
        );
        let path = scratch_dir()?.join(format!("spans-{workload}.json"));
        std::fs::write(&path, run.tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    } else {
        values.insert("setup_s".into(), median(&run.setup_s));
        values.insert("op_p50_ms".into(), median(&run.op_ms));
        values.insert("peak_rss_mb".into(), peak_rss_mb()?);
    }
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failures.len() as u64,
        correct: run.failures.is_empty(),
        values,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|a| {
        let run = measure(&a.workload, a.seed, a.seconds, a.trace, false)?;
        let outcome = outcome(&a.workload, &run)?;
        metrics::render(&outcome, a.trace)
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(workload: &str, seed: u64, trace: bool) -> Vec<String> {
        let run = measure(workload, seed, 0.0, trace, true).unwrap();
        assert!(run.failures.is_empty(), "{workload}: {:?}", run.failures);
        let outcome = outcome(workload, &run).unwrap();
        let line = metrics::render(&outcome, trace).unwrap();
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        outcome.values.into_keys().collect()
    }

    #[test]
    fn seeds_change_inputs_but_not_the_metric_set() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                assert_eq!(
                    keys(workload, 1, trace),
                    keys(workload, 2, trace),
                    "{workload}"
                );
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert!(parse_args(&args("--workload serve --seed 3 --seconds 10 --trace 1")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload serve --seed x --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload serve --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve --seed 3 --seconds 10")).is_err());
    }
}
