//! DES engine scaling runner: times the dense `BinaryHeap` reference
//! engine (`pic_oracle::simulate_reference`) against the production
//! engine — the windowed calendar-queue engine in neighbor-sync mode, the
//! barrier fast path in bulk-synchronous mode — on PIC-shaped schedules
//! from 1k to 100k ranks, and writes the measurements to `BENCH_DES.json`.
//!
//! The production engine's full `SimTimeline` is compared bit-for-bit
//! against the reference on every configuration — the speedups are only
//! claimed on identical outputs. The report also carries the O(steps·ranks) dense
//! state footprint next to the windowed engine's measured peak, the
//! events/second for each engine, and a 100k-rank 200-step end-to-end
//! prediction run.
//!
//! Usage: `cargo run --release -p pic-bench --bin des_bench
//!         [output.json] [--smoke]`
//!
//! `--smoke` shrinks the matrix to CI scale; it still runs both engines
//! on every configuration and exits non-zero on any divergence from the
//! reference (in either mode this binary exits non-zero on divergence —
//! smoke only controls the scale).
#![forbid(unsafe_code)]

use pic_des::{
    simulate_with_stats, EngineConfig, MachineSpec, SimTimeline, StepWorkload, SyncMode,
};
use pic_oracle::{dense_state_bytes, simulate_reference};
use pic_types::rng::SplitMix64;
use serde::Serialize;
use std::time::Instant;

/// Message pattern of a synthetic schedule.
#[derive(Clone, Copy, Debug, Serialize)]
#[serde(rename_all = "kebab-case")]
enum Shape {
    /// `fanout` uniformly random destinations per rank per step — the
    /// heap-pressure pattern (deep queues, no structure to exploit).
    Scatter,
    /// Bidirectional ring halo (`fanout` is fixed at 2) — the pattern a
    /// 1-D domain decomposition produces, used for the large-rank runs.
    Ring,
}

fn schedule(
    ranks: usize,
    steps: usize,
    fanout: usize,
    shape: Shape,
    seed: u64,
) -> Vec<StepWorkload> {
    let mut rng = SplitMix64::new(seed);
    (0..steps)
        .map(|_| {
            let compute_seconds: Vec<f64> =
                (0..ranks).map(|_| rng.next_range(1e-4, 5e-3)).collect();
            let mut messages = Vec::new();
            match shape {
                Shape::Scatter => {
                    for from in 0..ranks as u32 {
                        for _ in 0..fanout {
                            let to = rng.next_below(ranks as u64) as u32;
                            messages.push((from, to, 800 + rng.next_below(1200)));
                        }
                    }
                }
                Shape::Ring => {
                    for from in 0..ranks as u32 {
                        let n = ranks as u32;
                        messages.push((from, (from + 1) % n, 1500));
                        messages.push((from, (from + n - 1) % n, 1500));
                    }
                }
            }
            StepWorkload {
                compute_seconds,
                messages,
            }
        })
        .collect()
}

/// One timed engine: best-of-`reps` wall seconds plus derived throughput.
#[derive(Serialize)]
struct EngineTiming {
    engine: &'static str,
    reps: usize,
    best_secs: f64,
    events_per_sec: f64,
    /// Peak pending events (0 on the fast path, which holds no queue).
    peak_queue_len: usize,
    /// Peak resident step slots in the sliding window.
    peak_window_steps: usize,
    /// Measured peak engine state, bytes (slots + outbox CSR + queue).
    state_bytes_peak: usize,
}

#[derive(Serialize)]
struct ConfigReport {
    name: String,
    ranks: usize,
    steps: usize,
    fanout: usize,
    shape: Shape,
    mode: SyncMode,
    /// Total events processed (identical across engines by construction —
    /// inlined deliveries are counted exactly like queued arrivals).
    events: u64,
    reference: EngineTiming,
    engines: Vec<EngineTiming>,
    /// Reference wall time over the production engine's.
    speedup_vs_reference: f64,
    /// Exact `SimTimeline` equality (production engine vs the reference).
    outputs_identical: bool,
    /// O(steps·ranks) dense footprint of the old engine, bytes.
    dense_state_bytes: usize,
    /// Dense footprint over the production engine's measured peak.
    state_reduction: f64,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    machine: String,
    configs: Vec<ConfigReport>,
    /// Smallest reference-vs-new speedup over the `deep-queue-*`
    /// heap-pressure configs — the acceptance headline.
    deep_queue_min_speedup: f64,
    /// Largest reference-vs-new speedup over all configs.
    max_speedup_vs_reference: f64,
    all_outputs_identical: bool,
}

fn time_engine(
    reps: usize,
    mut f: impl FnMut() -> (SimTimeline, pic_des::SimStats),
) -> (f64, SimTimeline, pic_des::SimStats) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    let (timeline, stats) = out.unwrap();
    (best, timeline, stats)
}

struct Case {
    name: &'static str,
    ranks: usize,
    steps: usize,
    fanout: usize,
    shape: Shape,
    mode: SyncMode,
    reps: usize,
    /// Repetitions for the dense reference (1 on the big configs, where a
    /// single heap run already takes tens of seconds).
    ref_reps: usize,
}

fn run_case(case: &Case, machine: &MachineSpec, seed: u64) -> ConfigReport {
    let sched = schedule(case.ranks, case.steps, case.fanout, case.shape, seed);
    let total_msgs: usize = sched.iter().map(|s| s.messages.len()).sum();

    eprintln!(
        "des_bench: {} — {} ranks x {} steps, {} messages, {:?}",
        case.name, case.ranks, case.steps, total_msgs, case.mode
    );

    let (ref_secs, ref_timeline, _) = time_engine(case.ref_reps, || {
        let t = simulate_reference(&sched, machine, case.mode).expect("reference engine");
        // the reference has no SimStats; synthesize an empty one
        (
            t,
            pic_des::SimStats {
                queue: "binary-heap",
                barrier_fast_path: false,
                peak_queue_len: 0,
                peak_window_steps: case.steps,
                state_bytes_peak: dense_state_bytes(case.ranks, case.steps, total_msgs),
            },
        )
    });
    let events = ref_timeline.events_processed;
    let dense_bytes = dense_state_bytes(case.ranks, case.steps, total_msgs);
    let reference = EngineTiming {
        engine: "reference-dense-heap",
        reps: case.ref_reps,
        best_secs: ref_secs,
        events_per_sec: events as f64 / ref_secs,
        peak_queue_len: 0,
        peak_window_steps: case.steps,
        state_bytes_peak: dense_bytes,
    };
    eprintln!(
        "  reference:        {:>9.3}s  {:>12.0} ev/s",
        ref_secs, reference.events_per_sec
    );

    // The contender: the production engine, which takes the barrier fast
    // path in bulk-synchronous mode and the windowed calendar-queue
    // engine in neighbor-sync mode.
    let name = match case.mode {
        SyncMode::BulkSynchronous => "barrier-fast-path",
        SyncMode::NeighborSync => "windowed-calendar",
    };
    let (secs, timeline, stats) = time_engine(case.reps, || {
        simulate_with_stats(&sched, machine, case.mode, EngineConfig).expect("engine")
    });
    let outputs_identical = timeline == ref_timeline;
    if !outputs_identical {
        eprintln!(
            "des_bench: OUTPUT DIVERGENCE — {name} != reference on {}",
            case.name
        );
    }
    eprintln!(
        "  {name:<17} {:>9.3}s  {:>12.0} ev/s  queue≤{} window≤{} state {:.1} MiB",
        secs,
        events as f64 / secs,
        stats.peak_queue_len,
        stats.peak_window_steps,
        stats.state_bytes_peak as f64 / (1024.0 * 1024.0)
    );
    let engines = vec![EngineTiming {
        engine: name,
        reps: case.reps,
        best_secs: secs,
        events_per_sec: events as f64 / secs,
        peak_queue_len: stats.peak_queue_len,
        peak_window_steps: stats.peak_window_steps,
        state_bytes_peak: stats.state_bytes_peak,
    }];

    ConfigReport {
        name: case.name.to_string(),
        ranks: case.ranks,
        steps: case.steps,
        fanout: case.fanout,
        shape: case.shape,
        mode: case.mode,
        events,
        reference,
        engines,
        speedup_vs_reference: ref_secs / secs,
        outputs_identical,
        dense_state_bytes: dense_bytes,
        state_reduction: dense_bytes as f64 / stats.state_bytes_peak as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_DES.json".to_string());

    let machine = MachineSpec::quartz_like();
    let cases: Vec<Case> = if smoke {
        vec![
            Case {
                name: "smoke-scatter-ns",
                ranks: 64,
                steps: 20,
                fanout: 8,
                shape: Shape::Scatter,
                mode: SyncMode::NeighborSync,
                reps: 2,
                ref_reps: 2,
            },
            Case {
                name: "smoke-scatter-bs",
                ranks: 64,
                steps: 20,
                fanout: 8,
                shape: Shape::Scatter,
                mode: SyncMode::BulkSynchronous,
                reps: 2,
                ref_reps: 2,
            },
            Case {
                name: "smoke-ring-bs",
                ranks: 512,
                steps: 30,
                fanout: 2,
                shape: Shape::Ring,
                mode: SyncMode::BulkSynchronous,
                reps: 2,
                ref_reps: 2,
            },
        ]
    } else {
        vec![
            // Heap-pressure matrix: scatter fan-out keeps tens of
            // thousands to millions of in-flight messages resident, the
            // regime where the old engine's MsgArrive heap dominated
            // (bulk-synchronous, so the full rebuilt engine — windowed
            // state + fast path — answers; the fast path's output is
            // oracle-checked like every other engine).
            Case {
                name: "deep-queue-2k-fanout32",
                ranks: 2048,
                steps: 60,
                fanout: 32,
                shape: Shape::Scatter,
                mode: SyncMode::BulkSynchronous,
                reps: 2,
                ref_reps: 2,
            },
            Case {
                name: "deep-queue-4k-fanout64",
                ranks: 4096,
                steps: 30,
                fanout: 64,
                shape: Shape::Scatter,
                mode: SyncMode::BulkSynchronous,
                reps: 2,
                ref_reps: 1,
            },
            Case {
                name: "deep-queue-8k-fanout128",
                ranks: 8192,
                steps: 12,
                fanout: 128,
                shape: Shape::Scatter,
                mode: SyncMode::BulkSynchronous,
                reps: 2,
                ref_reps: 1,
            },
            // Neighbor-sync coverage at scatter fan-out: no fast path
            // applies here, so this isolates windowed state + inlined
            // delivery + the calendar queue against the dense heap engine.
            Case {
                name: "neighbor-sync-1k-fanout16",
                ranks: 1024,
                steps: 100,
                fanout: 16,
                shape: Shape::Scatter,
                mode: SyncMode::NeighborSync,
                reps: 3,
                ref_reps: 2,
            },
            Case {
                name: "neighbor-sync-8k-fanout128",
                ranks: 8192,
                steps: 12,
                fanout: 128,
                shape: Shape::Scatter,
                mode: SyncMode::NeighborSync,
                reps: 2,
                ref_reps: 1,
            },
            // Machine-size scaling at halo fan-out: the paper's régime.
            Case {
                name: "ring-1k",
                ranks: 1_000,
                steps: 200,
                fanout: 2,
                shape: Shape::Ring,
                mode: SyncMode::BulkSynchronous,
                reps: 3,
                ref_reps: 2,
            },
            Case {
                name: "ring-10k",
                ranks: 10_000,
                steps: 200,
                fanout: 2,
                shape: Shape::Ring,
                mode: SyncMode::BulkSynchronous,
                reps: 2,
                ref_reps: 1,
            },
            // The 100k-rank end-to-end run: a full machine at 200 steps,
            // oracle-checked like every other configuration.
            Case {
                name: "e2e-100k-200steps",
                ranks: 100_000,
                steps: 200,
                fanout: 2,
                shape: Shape::Ring,
                mode: SyncMode::BulkSynchronous,
                reps: 1,
                ref_reps: 1,
            },
        ]
    };

    let mut configs = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        configs.push(run_case(case, &machine, 40 + i as u64));
    }

    let all_outputs_identical = configs.iter().all(|c| c.outputs_identical);
    let max_speedup = configs
        .iter()
        .map(|c| c.speedup_vs_reference)
        .fold(0.0f64, f64::max);
    let deep_queue_min = configs
        .iter()
        .filter(|c| c.name.starts_with("deep-queue"))
        .map(|c| c.speedup_vs_reference)
        .fold(f64::INFINITY, f64::min);
    // smoke configs carry no deep-queue rows; report the overall minimum
    let deep_queue_min = if deep_queue_min.is_finite() {
        deep_queue_min
    } else {
        configs
            .iter()
            .map(|c| c.speedup_vs_reference)
            .fold(f64::INFINITY, f64::min)
    };
    let report = Report {
        smoke,
        machine: machine.name.clone(),
        configs,
        deep_queue_min_speedup: deep_queue_min,
        max_speedup_vs_reference: max_speedup,
        all_outputs_identical,
    };
    eprintln!(
        "des_bench: deep-queue min speedup {:.2}x, max {:.2}x, outputs identical: {}",
        report.deep_queue_min_speedup,
        report.max_speedup_vs_reference,
        report.all_outputs_identical
    );
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");
    if !report.all_outputs_identical {
        std::process::exit(1);
    }
}
