//! The discrete-event engine and the PIC bulk-synchronous schedule.
//!
//! A classic event-queue simulator: events are totally ordered by
//! `(time, sequence)` so simulation is deterministic regardless of queue
//! internals. Components are ranks; the schedule is a list of *steps*
//! (one per trace-sample interval), each carrying per-rank compute times
//! and the point-to-point messages implied by the communication matrix.
//!
//! This module holds the paper-scale engine (see `DESIGN.md` §16):
//!
//! * one event queue, the [`crate::queue::CalendarQueue`];
//! * a **sliding step window**: only the steps some rank is currently on
//!   are resident, each as a flat CSR slot, so memory is
//!   O(window·ranks) instead of O(steps·ranks);
//! * **inlined message delivery**: a message's effect on its receiver is
//!   folded in when the *sender's* compute-done event fires, removing
//!   every `MsgArrive` from the queue (all cross-event merges are
//!   `max`/counter updates, so processing order cannot change the
//!   output);
//! * a **barrier fast path** for [`SyncMode::BulkSynchronous`]: with a
//!   global barrier every step is independent, so each reduces to a
//!   vectorized compute pass, a message epilogue, and a max — no event
//!   queue at all. The windowed engine therefore only ever runs
//!   [`SyncMode::NeighborSync`].
//!
//! Both paths return [`SimTimeline`]s bit-identical to the dense
//! reference engine in the dev-only `pic-oracle` crate;
//! `des_bench --smoke` and the `pic-des` integration tests assert exact
//! equality.

use crate::machine::MachineSpec;
use crate::queue::{CalendarQueue, Event, EventKind};
use pic_types::{PicError, Result};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One super-step of the PIC schedule: per-rank modelled compute seconds
/// plus the messages sent at the end of the step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepWorkload {
    /// Modelled compute seconds for each rank during this step.
    pub compute_seconds: Vec<f64>,
    /// Messages `(from, to, bytes)` sent after the step's compute.
    pub messages: Vec<(u32, u32, u64)>,
}

/// Synchronization semantics between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum SyncMode {
    /// Global barrier: no rank starts step `s+1` before every rank has
    /// finished step `s` (including message delivery).
    BulkSynchronous,
    /// A rank starts step `s+1` once its own compute is done and all its
    /// inbound step-`s` messages have arrived. Senders may run ahead of
    /// slow receivers.
    NeighborSync,
}

/// Simulation output: the predicted execution timeline. The default is
/// the all-zero timeline of an empty schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimTimeline {
    /// Predicted total application seconds.
    pub total_seconds: f64,
    /// Time each rank finished its final step.
    pub rank_finish: Vec<f64>,
    /// Per-rank idle seconds (waiting at barriers / for messages).
    pub rank_idle: Vec<f64>,
    /// Per-step completion time (when the last rank finished the step and
    /// its messages were delivered).
    pub step_finish: Vec<f64>,
    /// Number of discrete events processed. Inlined deliveries count one
    /// event per message, so the figure is engine-independent.
    pub events_processed: u64,
}

impl SimTimeline {
    /// Mean idle fraction across ranks (a load-imbalance signature).
    pub fn mean_idle_fraction(&self) -> f64 {
        if self.rank_idle.is_empty() || self.total_seconds == 0.0 {
            return 0.0;
        }
        let mean_idle: f64 = self.rank_idle.iter().sum::<f64>() / self.rank_idle.len() as f64;
        mean_idle / self.total_seconds
    }
}

/// Engine configuration. It has no fields: the engine always uses the
/// calendar queue, and the barrier fast path for
/// [`SyncMode::BulkSynchronous`]. The type and the config parameter of
/// [`simulate_with_stats`] stay only because the `perfbench` benchmark
/// constructs `EngineConfig::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig;

/// Execution statistics of one simulation run, for bench reports and the
/// `picpredict` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SimStats {
    /// Event-queue implementation used (`"none"` on the fast path).
    pub queue: &'static str,
    /// Whether the barrier fast path evaluated the schedule.
    pub barrier_fast_path: bool,
    /// Largest number of simultaneously pending events.
    pub peak_queue_len: usize,
    /// Largest number of simultaneously resident step slots.
    pub peak_window_steps: usize,
    /// Peak bookkeeping bytes (window slots + pending events) — the
    /// engine's memory proxy, to compare against the dense oracle's
    /// `pic_oracle::dense_state_bytes`.
    pub state_bytes_peak: usize,
}

/// Admission validation: every quantity that could produce a NaN or
/// infinite event time is rejected here with a positioned error, so the
/// `(time, seq)` comparison deeper in the engine never sees a non-finite
/// time (it would otherwise panic mid-simulation in `Event::cmp`).
///
/// Returns the rank count of a non-empty schedule.
pub fn validate_schedule(steps: &[StepWorkload]) -> Result<usize> {
    let ranks = steps[0].compute_seconds.len();
    if ranks == 0 {
        return Err(PicError::sim("schedule has zero ranks"));
    }
    for (s, st) in steps.iter().enumerate() {
        if st.compute_seconds.len() != ranks {
            return Err(PicError::sim(format!(
                "step {s} has {} ranks, expected {ranks}",
                st.compute_seconds.len()
            )));
        }
        for (r, &c) in st.compute_seconds.iter().enumerate() {
            if !c.is_finite() || c < 0.0 {
                return Err(PicError::sim(format!(
                    "step {s} rank {r}: compute_seconds is {c}, must be finite and non-negative"
                )));
            }
        }
        for (i, &(from, to, _)) in st.messages.iter().enumerate() {
            if from as usize >= ranks || to as usize >= ranks {
                return Err(PicError::sim(format!(
                    "step {s} message {i} ({from} -> {to}): endpoint out of range for {ranks} ranks"
                )));
            }
        }
    }
    Ok(ranks)
}

/// One resident step of the sliding window: flat per-rank arrays plus the
/// step's outbox in CSR form (`outbox_off[r]..outbox_off[r+1]` indexes
/// rank `r`'s outbound messages in `outbox_dst`/`outbox_bytes`).
#[derive(Debug, Default)]
struct Slot {
    expected: Vec<u32>,
    arrived: Vec<u32>,
    last_arrival: Vec<f64>,
    /// Ranks whose completion has already been recorded. The oracle never
    /// re-checks a completed `(rank, step)` because no further events for
    /// it exist; with inlined delivery a sender's handler may probe a
    /// receiver more than once, so completion must be made idempotent
    /// explicitly.
    completed: Vec<bool>,
    outbox_off: Vec<u32>,
    outbox_dst: Vec<u32>,
    outbox_bytes: Vec<u64>,
    /// Ranks that have moved past this step; the slot retires at `ranks`.
    passed: u32,
}

/// The windowed event-driven engine for [`SyncMode::NeighborSync`].
struct WindowEngine<'a> {
    steps: &'a [StepWorkload],
    machine: &'a MachineSpec,
    ranks: usize,
    queue: CalendarQueue,
    seq: u64,
    /// Current step of each rank (`u32::MAX` = finished).
    rank_step: Vec<u32>,
    /// Compute-finish time of each rank's current step (NaN = not yet).
    compute_done: Vec<f64>,
    idle: Vec<f64>,
    rank_finish: Vec<f64>,
    step_finish: Vec<f64>,
    /// Resident steps `win_base .. win_base + window.len()`.
    window: VecDeque<Slot>,
    win_base: usize,
    /// Retired slots, recycled to avoid churning allocations.
    free: Vec<Slot>,
    /// CSR fill cursor (scratch, reused across activations).
    cursor: Vec<u32>,
    events: u64,
    peak_queue: usize,
    peak_window: usize,
    live_bytes: usize,
    peak_bytes: usize,
}

impl<'a> WindowEngine<'a> {
    fn new(steps: &'a [StepWorkload], machine: &'a MachineSpec, ranks: usize) -> Self {
        WindowEngine {
            steps,
            machine,
            ranks,
            queue: CalendarQueue::new(),
            seq: 0,
            rank_step: vec![0; ranks],
            compute_done: vec![f64::NAN; ranks],
            idle: vec![0.0; ranks],
            rank_finish: vec![0.0; ranks],
            step_finish: vec![0.0; steps.len()],
            window: VecDeque::new(),
            win_base: 0,
            free: Vec::new(),
            cursor: Vec::new(),
            events: 0,
            peak_queue: 0,
            peak_window: 0,
            live_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn slot_bytes(ranks: usize, messages: usize) -> usize {
        ranks * (4 + 4 + 8 + 1) + (ranks + 1) * 4 + messages * (4 + 8)
    }

    /// Materialize step `s` as the next window slot (steps activate in
    /// strictly increasing order: the first rank to reach `s` does it).
    fn activate(&mut self, s: usize) {
        debug_assert_eq!(s, self.win_base + self.window.len());
        let ranks = self.ranks;
        let st = &self.steps[s];
        let mut slot = self.free.pop().unwrap_or_default();
        slot.expected.clear();
        slot.expected.resize(ranks, 0);
        slot.arrived.clear();
        slot.arrived.resize(ranks, 0);
        slot.last_arrival.clear();
        slot.last_arrival.resize(ranks, 0.0);
        slot.completed.clear();
        slot.completed.resize(ranks, false);
        slot.outbox_off.clear();
        slot.outbox_off.resize(ranks + 1, 0);
        slot.outbox_dst.clear();
        slot.outbox_dst.resize(st.messages.len(), 0);
        slot.outbox_bytes.clear();
        slot.outbox_bytes.resize(st.messages.len(), 0);
        slot.passed = 0;
        // CSR counting sort by sender; stable, so each sender's messages
        // keep their schedule order (matching the oracle's outboxes).
        for &(from, _, _) in &st.messages {
            slot.outbox_off[from as usize + 1] += 1;
        }
        for r in 0..ranks {
            slot.outbox_off[r + 1] += slot.outbox_off[r];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&slot.outbox_off[..ranks]);
        for &(from, to, bytes) in &st.messages {
            let c = &mut self.cursor[from as usize];
            slot.outbox_dst[*c as usize] = to;
            slot.outbox_bytes[*c as usize] = bytes;
            *c += 1;
            slot.expected[to as usize] += 1;
        }
        self.live_bytes += Self::slot_bytes(ranks, st.messages.len());
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.window.push_back(slot);
        self.peak_window = self.peak_window.max(self.window.len());
    }

    /// Start rank `r`'s compute for step `s` at time `start`.
    fn start_step(&mut self, r: usize, s: usize, start: f64) {
        if s == self.win_base + self.window.len() {
            self.activate(s);
        }
        debug_assert!(s >= self.win_base && s < self.win_base + self.window.len());
        self.rank_step[r] = s as u32;
        self.compute_done[r] = f64::NAN;
        let t = start + self.machine.compute_scale * self.steps[s].compute_seconds[r];
        self.queue.push(Event {
            time: t,
            seq: self.seq,
            kind: EventKind::ComputeDone {
                rank: r as u32,
                step: s as u32,
            },
        });
        self.seq += 1;
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// If rank `r` has completed step `s` (compute + inbound messages),
    /// mark it ready and advance it.
    fn try_ready(&mut self, r: usize, s: usize) {
        if self.rank_step[r] as usize != s {
            return;
        }
        let cdone = self.compute_done[r];
        if cdone.is_nan() {
            return;
        }
        let si = s - self.win_base;
        if self.window[si].completed[r] {
            return;
        }
        if self.window[si].arrived[r] < self.window[si].expected[r] {
            return;
        }
        self.window[si].completed[r] = true;
        let ready_at = cdone.max(self.window[si].last_arrival[r]);
        self.step_finish[s] = self.step_finish[s].max(ready_at);
        self.idle[r] += (ready_at - cdone).max(0.0);
        self.advance(r, s, ready_at);
    }

    /// Move rank `r` past step `s`: start the next step or record finish.
    fn advance(&mut self, r: usize, s: usize, start: f64) {
        self.window[s - self.win_base].passed += 1;
        let next = s + 1;
        if next >= self.steps.len() {
            self.rank_finish[r] = start;
            // park the rank beyond the last step
            self.rank_step[r] = u32::MAX;
            return;
        }
        self.start_step(r, next, start);
        // Messages for the next step may already have been delivered while
        // the rank was still on step `s`; completion is re-checked when
        // its compute-done event fires.
    }

    /// Retire fully-passed steps off the front of the window. Called only
    /// between events so no handler ever holds a stale slot index.
    fn retire(&mut self) {
        while let Some(front) = self.window.front() {
            if (front.passed as usize) < self.ranks {
                break;
            }
            let slot = self.window.pop_front().expect("front exists");
            self.live_bytes -= Self::slot_bytes(self.ranks, slot.outbox_dst.len());
            self.win_base += 1;
            self.free.push(slot);
        }
    }

    fn run(mut self) -> (SimTimeline, SimStats) {
        for r in 0..self.ranks {
            self.start_step(r, 0, 0.0);
        }
        while let Some(ev) = self.queue.pop() {
            self.events += 1;
            let EventKind::ComputeDone { rank, step } = ev.kind else {
                unreachable!("windowed engine schedules only ComputeDone events");
            };
            let r = rank as usize;
            let s = step as usize;
            debug_assert_eq!(self.rank_step[r], step);
            self.compute_done[r] = ev.time;
            let si = s - self.win_base;
            let (lo, hi) = {
                let slot = &self.window[si];
                (slot.outbox_off[r] as usize, slot.outbox_off[r + 1] as usize)
            };
            // Inlined delivery: each outbound message's effect is a
            // counter bump and a `max` fold on the receiver — both
            // order-independent — so the `MsgArrive` event the oracle
            // would enqueue is unnecessary. It still counts as one
            // processed event to keep `events_processed` comparable.
            let machine = self.machine;
            for i in lo..hi {
                let slot = &mut self.window[si];
                let to = slot.outbox_dst[i];
                let arrive = ev.time + machine.message_time_between(rank, to, slot.outbox_bytes[i]);
                let to = to as usize;
                slot.arrived[to] += 1;
                slot.last_arrival[to] = slot.last_arrival[to].max(arrive);
                debug_assert!(slot.arrived[to] <= slot.expected[to]);
            }
            self.events += (hi - lo) as u64;
            for i in lo..hi {
                let to = self.window[si].outbox_dst[i] as usize;
                self.try_ready(to, s);
            }
            self.try_ready(r, s);
            self.peak_queue = self.peak_queue.max(self.queue.len());
            self.retire();
        }
        let total = self.rank_finish.iter().copied().fold(0.0f64, f64::max);
        let stats = SimStats {
            queue: "calendar",
            barrier_fast_path: false,
            peak_queue_len: self.peak_queue,
            peak_window_steps: self.peak_window,
            state_bytes_peak: self.peak_bytes + self.peak_queue * std::mem::size_of::<Event>(),
        };
        (
            SimTimeline {
                total_seconds: total,
                rank_finish: self.rank_finish,
                rank_idle: self.idle,
                step_finish: self.step_finish,
                events_processed: self.events,
            },
            stats,
        )
    }
}

/// The bulk-synchronous fast path: under a global barrier every step is
/// independent, so the whole step is a vectorized compute pass, a message
/// epilogue, and one max — no event queue. Bit-identical to the
/// event-driven engines because every cross-event combination in a
/// barrier step is a `max` over the same value set (soundness is model-
/// checked by `pic_analysis::des_batch`).
fn simulate_barrier_fast(
    steps: &[StepWorkload],
    machine: &MachineSpec,
    ranks: usize,
) -> (SimTimeline, SimStats) {
    let mut done = vec![0.0f64; ranks];
    let mut last_arrival = vec![0.0f64; ranks];
    let mut idle = vec![0.0f64; ranks];
    let mut step_finish = vec![0.0f64; steps.len()];
    let barrier_cost = machine.barrier_time(ranks);
    let mut release = 0.0f64;
    let mut events = 0u64;
    for (s, st) in steps.iter().enumerate() {
        for (d, &c) in done.iter_mut().zip(&st.compute_seconds) {
            *d = release + machine.compute_scale * c;
        }
        last_arrival.iter_mut().for_each(|la| *la = 0.0);
        for &(from, to, bytes) in &st.messages {
            let arrive = done[from as usize] + machine.message_time_between(from, to, bytes);
            let la = &mut last_arrival[to as usize];
            *la = la.max(arrive);
        }
        let mut barrier = 0.0f64;
        for (d, la) in done.iter().zip(&last_arrival) {
            barrier = barrier.max(d.max(*la));
        }
        step_finish[s] = barrier;
        release = barrier + barrier_cost;
        for (i, d) in idle.iter_mut().zip(&done) {
            *i += (release - d).max(0.0);
        }
        events += ranks as u64 + st.messages.len() as u64;
    }
    let stats = SimStats {
        queue: "none",
        barrier_fast_path: true,
        peak_queue_len: 0,
        peak_window_steps: 1,
        state_bytes_peak: ranks * (8 + 8 + 8),
    };
    (
        SimTimeline {
            total_seconds: release,
            rank_finish: vec![release; ranks],
            rank_idle: idle,
            step_finish,
            events_processed: events,
        },
        stats,
    )
}

/// Simulate, returning execution statistics alongside the timeline.
/// `config` carries nothing (see [`EngineConfig`]).
pub fn simulate_with_stats(
    steps: &[StepWorkload],
    machine: &MachineSpec,
    mode: SyncMode,
    _config: EngineConfig,
) -> Result<(SimTimeline, SimStats)> {
    machine.validate()?;
    if steps.is_empty() {
        return Ok((
            SimTimeline::default(),
            SimStats {
                queue: "none",
                barrier_fast_path: false,
                peak_queue_len: 0,
                peak_window_steps: 0,
                state_bytes_peak: 0,
            },
        ));
    }
    let ranks = validate_schedule(steps)?;
    Ok(match mode {
        SyncMode::BulkSynchronous => simulate_barrier_fast(steps, machine, ranks),
        SyncMode::NeighborSync => WindowEngine::new(steps, machine, ranks).run(),
    })
}

/// Simulate the PIC schedule on a target machine.
///
/// `steps[s].compute_seconds` must have one entry per rank (consistent
/// across steps). Compute times are scaled by the machine's
/// `compute_scale`; message times come from its latency/bandwidth model.
pub fn simulate(
    steps: &[StepWorkload],
    machine: &MachineSpec,
    mode: SyncMode,
) -> Result<SimTimeline> {
    simulate_with_stats(steps, machine, mode, EngineConfig).map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        MachineSpec {
            name: "test".into(),
            nodes: 1,
            cores_per_node: 4,
            compute_scale: 1.0,
            link_latency: 0.5,
            link_bandwidth: 10.0,
            topology: Default::default(),
            collective_latency: 0.0,
        }
    }

    fn steps_uniform(ranks: usize, steps: usize, secs: f64) -> Vec<StepWorkload> {
        (0..steps)
            .map(|_| StepWorkload {
                compute_seconds: vec![secs; ranks],
                messages: vec![],
            })
            .collect()
    }

    /// Exact equality with the dense reference engine over these
    /// schedules lives in `tests/oracle.rs` (the oracle crate depends on
    /// this one, so unit tests cannot share types with it).
    fn run(steps: &[StepWorkload], m: &MachineSpec, mode: SyncMode) -> SimTimeline {
        simulate(steps, m, mode).expect("simulate")
    }

    #[test]
    fn empty_schedule() {
        let t = simulate(&[], &machine(), SyncMode::BulkSynchronous).unwrap();
        assert_eq!(t.total_seconds, 0.0);
        assert_eq!(t.events_processed, 0);
    }

    #[test]
    fn uniform_compute_no_messages() {
        let steps = steps_uniform(4, 3, 2.0);
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let t = run(&steps, &machine(), mode);
            assert!((t.total_seconds - 6.0).abs() < 1e-12, "{mode:?}");
            assert!(t.rank_idle.iter().all(|&i| i.abs() < 1e-12));
            assert_eq!(t.step_finish, vec![2.0, 4.0, 6.0]);
        }
    }

    #[test]
    fn barrier_takes_per_step_max() {
        // rank loads alternate: step0 = [3,1], step1 = [1,3].
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![3.0, 1.0],
                messages: vec![],
            },
            StepWorkload {
                compute_seconds: vec![1.0, 3.0],
                messages: vec![],
            },
        ];
        let t = run(&steps, &machine(), SyncMode::BulkSynchronous);
        // barrier: step0 ends at 3, step1 ends at 3+3=6
        assert!((t.total_seconds - 6.0).abs() < 1e-12);
        // rank1 idled 2s at the first barrier; rank0 none before its finish
        assert!((t.rank_idle[1] - 2.0).abs() < 1e-12);
        // neighbor sync: rank1 runs 1+3 = 4, rank0 runs 3+1 = 4
        let t = run(&steps, &machine(), SyncMode::NeighborSync);
        assert!((t.total_seconds - 4.0).abs() < 1e-12);
    }

    #[test]
    fn message_delays_receiver() {
        // rank0 computes 2s then sends 10 bytes to rank1 (msg time = 0.5 + 1.0).
        // rank1 computes 0.5s, then must wait for the message.
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![2.0, 0.5],
                messages: vec![(0, 1, 10)],
            },
            StepWorkload {
                compute_seconds: vec![0.1, 0.1],
                messages: vec![],
            },
        ];
        let t = run(&steps, &machine(), SyncMode::NeighborSync);
        // message arrives at 2 + 1.5 = 3.5; rank1 starts step1 at 3.5,
        // finishes at 3.6. rank0 finishes at 2.1.
        assert!((t.rank_finish[1] - 3.6).abs() < 1e-12);
        assert!((t.rank_finish[0] - 2.1).abs() < 1e-12);
        // rank1 idled 3.0 seconds waiting
        assert!((t.rank_idle[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sender_runs_ahead_of_slow_receiver() {
        // rank0 is fast and sends to rank1 every step; rank1 is slow. In
        // neighbor-sync mode rank0 must be able to finish all steps while
        // rank1 is still on step 0 — messages for future steps arrive early
        // and are buffered.
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![0.1, 10.0],
                messages: vec![(0, 1, 1)]
            };
            4
        ];
        let t = run(&steps, &machine(), SyncMode::NeighborSync);
        // rank0: 4 × 0.1 = 0.4 total, unaffected by rank1
        assert!(
            (t.rank_finish[0] - 0.4).abs() < 1e-12,
            "{}",
            t.rank_finish[0]
        );
        // rank1: messages always arrive before its compute ends → 40s
        assert!(
            (t.rank_finish[1] - 40.0).abs() < 1e-12,
            "{}",
            t.rank_finish[1]
        );
        assert!(t.rank_idle[1].abs() < 1e-12);
    }

    #[test]
    fn barrier_never_faster_than_neighbor() {
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0, 4.0, 2.0],
                messages: vec![(1, 0, 100)],
            },
            StepWorkload {
                compute_seconds: vec![3.0, 1.0, 1.0],
                messages: vec![(0, 2, 10)],
            },
            StepWorkload {
                compute_seconds: vec![2.0, 2.0, 5.0],
                messages: vec![],
            },
        ];
        let b = run(&steps, &machine(), SyncMode::BulkSynchronous);
        let n = run(&steps, &machine(), SyncMode::NeighborSync);
        assert!(b.total_seconds >= n.total_seconds - 1e-12);
    }

    #[test]
    fn compute_scale_multiplies_time() {
        let steps = steps_uniform(2, 2, 1.0);
        let mut m = machine();
        m.compute_scale = 3.0;
        let t = run(&steps, &m, SyncMode::BulkSynchronous);
        assert!((t.total_seconds - 6.0).abs() < 1e-12);
    }

    #[test]
    fn simulation_is_deterministic() {
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0, 1.0, 1.0, 1.0],
                messages: vec![(0, 1, 5), (2, 3, 7), (1, 0, 3), (3, 2, 9)],
            };
            5
        ];
        let a = simulate(&steps, &machine(), SyncMode::NeighborSync).unwrap();
        let b = simulate(&steps, &machine(), SyncMode::NeighborSync).unwrap();
        assert_eq!(a, b);
        assert!(a.events_processed > 0);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        // inconsistent rank counts
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0, 1.0],
                messages: vec![],
            },
            StepWorkload {
                compute_seconds: vec![1.0],
                messages: vec![],
            },
        ];
        assert!(simulate(&steps, &machine(), SyncMode::NeighborSync).is_err());
        // message endpoint out of range
        let steps = vec![StepWorkload {
            compute_seconds: vec![1.0],
            messages: vec![(0, 5, 1)],
        }];
        assert!(simulate(&steps, &machine(), SyncMode::NeighborSync).is_err());
        // zero ranks
        let steps = vec![StepWorkload {
            compute_seconds: vec![],
            messages: vec![],
        }];
        assert!(simulate(&steps, &machine(), SyncMode::NeighborSync).is_err());
    }

    #[test]
    fn non_finite_and_negative_compute_rejected_not_panicking() {
        // regression: these previously reached Event::cmp's
        // partial_cmp(...).expect("event times are finite") and panicked
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let steps = vec![StepWorkload {
                compute_seconds: vec![1.0, bad],
                messages: vec![],
            }];
            for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
                let err = simulate(&steps, &machine(), mode).unwrap_err();
                let msg = err.to_string();
                assert!(
                    msg.contains("step 0") && msg.contains("rank 1"),
                    "unpositioned error: {msg}"
                );
            }
        }
    }

    #[test]
    fn invalid_machines_are_rejected() {
        use crate::topology::Topology;
        let good = machine();
        assert!(good.validate().is_ok());
        type Mutation = Box<dyn Fn(&mut MachineSpec)>;
        let cases: Vec<Mutation> = vec![
            Box::new(|m| m.link_latency = -1.0),
            Box::new(|m| m.link_latency = f64::NAN),
            Box::new(|m| m.link_bandwidth = 0.0),
            Box::new(|m| m.link_bandwidth = -5.0),
            Box::new(|m| m.link_bandwidth = f64::INFINITY),
            Box::new(|m| m.compute_scale = f64::NAN),
            Box::new(|m| m.compute_scale = -1.0),
            Box::new(|m| m.collective_latency = f64::INFINITY),
            Box::new(|m| m.topology = Topology::Torus3D { x: 0, y: 4, z: 4 }),
        ];
        let steps = steps_uniform(2, 1, 1.0);
        for mutate in cases {
            let mut m = machine();
            mutate(&mut m);
            assert!(m.validate().is_err(), "{m:?}");
            assert!(simulate(&steps, &m, SyncMode::BulkSynchronous).is_err());
        }
    }

    #[test]
    fn idle_fraction_reflects_imbalance() {
        // one hot rank, three idle ranks, barrier mode
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![10.0, 1.0, 1.0, 1.0],
                messages: vec![]
            };
            3
        ];
        let t = run(&steps, &machine(), SyncMode::BulkSynchronous);
        assert!((t.total_seconds - 30.0).abs() < 1e-9);
        assert!(t.mean_idle_fraction() > 0.6, "{}", t.mean_idle_fraction());
    }

    #[test]
    fn collective_latency_charges_each_barrier() {
        let steps = steps_uniform(4, 3, 1.0);
        let mut m = machine();
        m.collective_latency = 0.5;
        // 4 ranks → ceil(log2 4) = 2 stages → 1.0 s per barrier, 3 barriers
        let with = run(&steps, &m, SyncMode::BulkSynchronous);
        let without = run(&steps, &machine(), SyncMode::BulkSynchronous);
        assert!((with.total_seconds - (without.total_seconds + 3.0)).abs() < 1e-12);
        // neighbor sync pays no barriers
        let n = run(&steps, &m, SyncMode::NeighborSync);
        assert!((n.total_seconds - without.total_seconds).abs() < 1e-12);
    }

    #[test]
    fn torus_topology_slows_distant_messages() {
        use crate::topology::Topology;
        // one message between torus-opposite ranks vs adjacent ranks
        let mk = |to: u32| {
            vec![
                StepWorkload {
                    compute_seconds: vec![1.0; 8],
                    messages: vec![(0, to, 0)],
                },
                StepWorkload {
                    compute_seconds: vec![0.0; 8],
                    messages: vec![],
                },
            ]
        };
        let mut m = machine();
        m.topology = Topology::Torus3D { x: 2, y: 2, z: 2 };
        // rank 7 = (1,1,1): 3 hops from rank 0; rank 1: 1 hop
        let near = run(&mk(1), &m, SyncMode::BulkSynchronous);
        let far = run(&mk(7), &m, SyncMode::BulkSynchronous);
        assert!(
            (far.total_seconds - near.total_seconds - 2.0 * m.link_latency).abs() < 1e-12,
            "far {} near {}",
            far.total_seconds,
            near.total_seconds
        );
    }

    #[test]
    fn self_messages_are_delivered() {
        // a rank "sending to itself" (possible if a comm matrix kept a
        // diagonal entry) must not deadlock
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0],
                messages: vec![(0, 0, 10)],
            },
            StepWorkload {
                compute_seconds: vec![1.0],
                messages: vec![],
            },
        ];
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            run(&steps, &machine(), mode);
        }
        let t = simulate(&steps, &machine(), SyncMode::NeighborSync).unwrap();
        // step0 ready at max(1.0, 1.0 + 1.5) = 2.5; finish = 2.5 + 1.0
        assert!((t.total_seconds - 3.5).abs() < 1e-12);
    }

    #[test]
    fn window_stays_small_and_stats_report() {
        // 2 ranks, 50 steps, tight coupling: window should stay tiny
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![0.5, 0.6],
                messages: vec![(0, 1, 4), (1, 0, 4)],
            };
            50
        ];
        let (t, stats) =
            simulate_with_stats(&steps, &machine(), SyncMode::NeighborSync, EngineConfig).unwrap();
        assert_eq!(stats.queue, "calendar");
        assert!(!stats.barrier_fast_path);
        assert!(stats.peak_window_steps <= 3, "{}", stats.peak_window_steps);
        assert!(stats.peak_queue_len <= 4, "{}", stats.peak_queue_len);
        assert_eq!(t.events_processed, 2 * 50 + 100);
        // fast path reports no queue at all
        let (_, stats) =
            simulate_with_stats(&steps, &machine(), SyncMode::BulkSynchronous, EngineConfig)
                .unwrap();
        assert_eq!(stats.queue, "none");
        assert!(stats.barrier_fast_path);
        assert_eq!(stats.peak_queue_len, 0);
    }
}
