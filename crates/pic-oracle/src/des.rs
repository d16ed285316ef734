//! The original dense `BinaryHeap` DES engine, kept as the oracle.
//!
//! This is the pre-windowing simulator: a flat binary heap over *all*
//! pending events (one `MsgArrive` per message) and dense
//! `[step][rank]` bookkeeping. It is O(steps·ranks) in memory and
//! O(E log E) in time, which is exactly why `pic-des`'s windowed engine
//! and barrier fast path replaced it — but its simplicity makes it the
//! ground truth: `des_bench --smoke` and the `pic-des` integration tests
//! assert **exact** [`SimTimeline`] equality between this engine and
//! [`pic_des::simulate`] on every configuration they run.

use pic_des::{
    validate_schedule, Event, EventKind, MachineSpec, SimTimeline, StepWorkload, SyncMode,
};
use pic_types::Result;
use std::collections::BinaryHeap;

/// All mutable simulation state, so helper functions stay tractable.
struct SimState<'a> {
    steps: &'a [StepWorkload],
    machine: &'a MachineSpec,
    mode: SyncMode,
    queue: BinaryHeap<Event>,
    seq: u64,
    /// Current step of each rank.
    rank_step: Vec<u32>,
    /// Compute-finish time of each rank's current step (NaN = not yet).
    compute_done: Vec<f64>,
    /// Accumulated idle seconds per rank.
    idle: Vec<f64>,
    /// Messages arrived so far, per `[step][rank]`.
    arrived: Vec<Vec<u32>>,
    /// Latest arrival time per `[step][rank]`.
    last_arrival: Vec<Vec<f64>>,
    /// Expected inbound message count per `[step][rank]`.
    expected: Vec<Vec<u32>>,
    /// Barrier bookkeeping (bulk-synchronous only).
    barrier_remaining: Vec<u32>,
    barrier_time: Vec<f64>,
    step_finish: Vec<f64>,
    rank_finish: Vec<f64>,
}

impl SimState<'_> {
    fn push(&mut self, time: f64, kind: EventKind) {
        self.queue.push(Event {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Start rank `r`'s compute for step `s` at time `start`.
    fn start_step(&mut self, r: usize, s: usize, start: f64) {
        self.rank_step[r] = s as u32;
        self.compute_done[r] = f64::NAN;
        let t = start + self.machine.compute_scale * self.steps[s].compute_seconds[r];
        self.push(
            t,
            EventKind::ComputeDone {
                rank: r as u32,
                step: s as u32,
            },
        );
    }

    /// If rank `r` has completed step `s` (compute + inbound messages),
    /// mark it ready and advance directly or via the barrier.
    fn try_ready(&mut self, r: usize, s: usize) {
        if self.rank_step[r] as usize != s {
            return;
        }
        let cdone = self.compute_done[r];
        if cdone.is_nan() {
            return;
        }
        if self.arrived[s][r] < self.expected[s][r] {
            return;
        }
        let ready_at = cdone.max(self.last_arrival[s][r]);
        self.step_finish[s] = self.step_finish[s].max(ready_at);
        match self.mode {
            SyncMode::NeighborSync => {
                self.idle[r] += (ready_at - cdone).max(0.0);
                self.advance(r, s, ready_at);
            }
            SyncMode::BulkSynchronous => {
                self.barrier_time[s] = self.barrier_time[s].max(ready_at);
                self.barrier_remaining[s] -= 1;
                if self.barrier_remaining[s] == 0 {
                    let release =
                        self.barrier_time[s] + self.machine.barrier_time(self.rank_step.len());
                    for rr in 0..self.rank_step.len() {
                        // idle covers both message wait and barrier wait
                        let cd = self.compute_done[rr];
                        debug_assert!(!cd.is_nan());
                        self.idle[rr] += (release - cd).max(0.0);
                        self.advance(rr, s, release);
                    }
                }
            }
        }
    }

    /// Move rank `r` past step `s`: start the next step or record finish.
    fn advance(&mut self, r: usize, s: usize, start: f64) {
        let next = s + 1;
        if next >= self.steps.len() {
            self.rank_finish[r] = start;
            // park the rank beyond the last step
            self.rank_step[r] = u32::MAX;
            return;
        }
        self.start_step(r, next, start);
        // Messages for the next step may already have arrived while the
        // rank was still on step `s`; completion is re-checked when its
        // compute-done event fires.
    }
}

/// Dense-engine bookkeeping bytes for a schedule shape — the memory the
/// windowed engine avoids. Used by `des_bench` as the peak-RSS proxy for
/// this oracle.
pub fn dense_state_bytes(ranks: usize, steps: usize, messages: usize) -> usize {
    // arrived (u32) + expected (u32) + last_arrival (f64) per [step][rank],
    // outbox entries (to: u32, bytes: u64) + per-(step,rank) Vec headers,
    // and the worst-case heap holding one MsgArrive per in-flight message.
    let per_cell = 4 + 4 + 8;
    let vec_header = std::mem::size_of::<Vec<(u32, u64)>>();
    steps * ranks * (per_cell + vec_header)
        + messages * (4 + 8)
        + (ranks + messages) * std::mem::size_of::<Event>()
}

/// Simulate with the original dense heap engine (the oracle).
///
/// Same contract as [`pic_des::simulate`]; the two must return bit-identical
/// [`SimTimeline`]s for every valid input.
pub fn simulate_reference(
    steps: &[StepWorkload],
    machine: &MachineSpec,
    mode: SyncMode,
) -> Result<SimTimeline> {
    machine.validate()?;
    if steps.is_empty() {
        return Ok(SimTimeline::default());
    }
    let ranks = validate_schedule(steps)?;

    let mut expected: Vec<Vec<u32>> = vec![vec![0; ranks]; steps.len()];
    // Per-(step, sender) outboxes so ComputeDone handling is O(own
    // messages) instead of scanning the whole step's message list — the
    // difference between O(M) and O(R·M) per step at thousands of ranks.
    let mut outbox: Vec<Vec<Vec<(u32, u64)>>> = vec![vec![Vec::new(); ranks]; steps.len()];
    for (s, st) in steps.iter().enumerate() {
        for &(from, to, bytes) in &st.messages {
            expected[s][to as usize] += 1;
            outbox[s][from as usize].push((to, bytes));
        }
    }

    let mut state = SimState {
        steps,
        machine,
        mode,
        queue: BinaryHeap::new(),
        seq: 0,
        rank_step: vec![0; ranks],
        compute_done: vec![f64::NAN; ranks],
        idle: vec![0.0; ranks],
        arrived: vec![vec![0; ranks]; steps.len()],
        last_arrival: vec![vec![0.0; ranks]; steps.len()],
        expected,
        barrier_remaining: (0..steps.len()).map(|_| ranks as u32).collect(),
        barrier_time: vec![0.0; steps.len()],
        step_finish: vec![0.0; steps.len()],
        rank_finish: vec![0.0; ranks],
    };

    for r in 0..ranks {
        state.start_step(r, 0, 0.0);
    }

    let mut events_processed = 0u64;
    while let Some(ev) = state.queue.pop() {
        events_processed += 1;
        match ev.kind {
            EventKind::ComputeDone { rank, step } => {
                let r = rank as usize;
                let s = step as usize;
                debug_assert_eq!(state.rank_step[r], step);
                state.compute_done[r] = ev.time;
                // Send this step's outbound messages.
                for &(to, bytes) in &outbox[s][r] {
                    let arrive = ev.time + machine.message_time_between(rank, to, bytes);
                    state.push(arrive, EventKind::MsgArrive { rank: to, step });
                }
                state.try_ready(r, s);
            }
            EventKind::MsgArrive { rank, step } => {
                let r = rank as usize;
                let s = step as usize;
                state.arrived[s][r] += 1;
                state.last_arrival[s][r] = state.last_arrival[s][r].max(ev.time);
                debug_assert!(state.arrived[s][r] <= state.expected[s][r]);
                // Only relevant immediately if the receiver is on this step.
                state.try_ready(r, s);
            }
        }
    }

    let total = state.rank_finish.iter().copied().fold(0.0f64, f64::max);
    Ok(SimTimeline {
        total_seconds: total,
        rank_finish: state.rank_finish,
        rank_idle: state.idle,
        step_finish: state.step_finish,
        events_processed,
    })
}
