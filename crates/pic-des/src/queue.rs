//! Simulation events and the calendar queue behind the engine.
//!
//! The engine's one event queue is a **calendar queue**: events are hashed into
//! time-width buckets, the current bucket is drained in exact
//! `(time, seq)` order, and both push and pop are O(1) amortized instead
//! of the heap's O(log n). The queue exploits the DES *monotonicity*
//! contract — an event pushed while processing an event at time `t`
//! never has a timestamp below `t` (compute times and message delays are
//! validated non-negative at admission) — so the calendar never needs to
//! look behind its current bucket.
//!
//! Ordering is bit-for-bit a `BinaryHeap<Event>`'s: the total order is
//! `(time, seq)`, ties on `time` broken by the monotonically assigned
//! sequence number, which also makes equal-time events FIFO. Bucket
//! boundaries cannot reorder events because the time→bucket mapping is
//! monotone (`floor((t - base)/width)` with a fixed base and positive
//! width), so any event in an earlier bucket precedes any event in a
//! later one.

use std::cmp::Ordering;

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A rank finished its modelled compute for a step.
    ComputeDone {
        /// The computing rank.
        rank: u32,
        /// The step whose compute finished.
        step: u32,
    },
    /// A point-to-point message arrived at a rank. Only the dense
    /// reference engine (in the dev-only `pic-oracle` crate) schedules
    /// these; the windowed engine folds deliveries into
    /// the sender's `ComputeDone` (see `DESIGN.md` §16 for why that is
    /// output-equivalent).
    MsgArrive {
        /// The receiving rank.
        rank: u32,
        /// The step the message belongs to.
        step: u32,
    },
}

/// A scheduled simulation event, totally ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Simulation time the event fires at. Always finite: schedules and
    /// machine specs are validated before any event is created.
    pub time: f64,
    /// Monotonically assigned sequence number; the deterministic
    /// tie-breaker for equal times.
    pub seq: u64,
    /// What happens when the event fires.
    pub kind: EventKind,
}

impl Event {
    /// Ascending `(time, seq)` order — the simulation's total order.
    #[inline]
    fn key_cmp(&self, other: &Event) -> Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are finite")
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison; ties broken by sequence number
        // for full determinism.
        other.key_cmp(self)
    }
}

/// Smallest and largest bucket counts the calendar will calibrate to.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 17;

/// A monotone calendar queue: O(1) amortized push/pop for DES workloads,
/// yielding events in exact `(time, seq)` order.
///
/// Events are mapped to buckets by `floor((time - base) / width)` relative
/// to the bucket currently being drained; events beyond one full rotation
/// (`width · nbuckets`) wait in an overflow list whose minimum is tracked
/// so due events migrate into the window before their bucket drains.
/// The first pop (and any moment the window runs dry) recalibrates bucket
/// count and width from the pending population — `width ≈ 3·span/n`, the
/// classic calendar sizing — so the queue adapts to the schedule's time
/// scale without tuning.
#[derive(Debug)]
pub struct CalendarQueue {
    buckets: Vec<Vec<Event>>,
    /// Index of the bucket currently being drained.
    cur: usize,
    /// Start time of bucket `cur`.
    base: f64,
    /// Time width of one bucket (always `> 0`).
    width: f64,
    /// Events resident in `buckets`.
    in_window: usize,
    /// Is `buckets[cur]` sorted (descending, so `pop()` takes the min)?
    cur_sorted: bool,
    /// Events at least one rotation ahead of `base`.
    overflow: Vec<Event>,
    /// Minimum time in `overflow` (`∞` when empty).
    overflow_min: f64,
    /// Calibration happens lazily at the first pop, when the initial
    /// event population is known.
    calibrated: bool,
    /// Largest number of pending events ever held.
    peak_len: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// An empty, uncalibrated calendar queue.
    pub fn new() -> CalendarQueue {
        CalendarQueue {
            buckets: Vec::new(),
            cur: 0,
            base: 0.0,
            width: 1.0,
            in_window: 0,
            cur_sorted: false,
            overflow: Vec::new(),
            overflow_min: f64::INFINITY,
            calibrated: false,
            peak_len: 0,
        }
    }

    /// Largest number of pending events ever held (for bench reports).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Try to place `ev` inside the bucket window; `false` means it lies
    /// at least one rotation ahead and belongs in overflow.
    fn push_to_window(&mut self, ev: Event) -> bool {
        let nb = self.buckets.len();
        let dt = ev.time - self.base;
        if dt >= self.width * nb as f64 {
            return false;
        }
        // dt < 0 can only happen for events due in the current bucket
        // (pushed after `base` advanced past their sub-width timestamp);
        // they clamp to offset 0, which is exactly where they must pop.
        let off = if dt > 0.0 {
            ((dt / self.width) as usize).min(nb - 1)
        } else {
            0
        };
        let idx = (self.cur + off) % nb;
        if idx == self.cur && self.cur_sorted {
            // Keep the draining bucket sorted descending so `pop` stays
            // O(1): binary-insert at the event's (time, seq) position.
            let b = &mut self.buckets[idx];
            let pos = b.partition_point(|e| e.key_cmp(&ev) == Ordering::Greater);
            b.insert(pos, ev);
        } else {
            self.buckets[idx].push(ev);
        }
        self.in_window += 1;
        true
    }

    /// Re-derive bucket count, width, and base from the entire pending
    /// population (plus `extra`, when resizing on a push).
    fn recalibrate(&mut self, extra: Option<Event>) {
        let mut all: Vec<Event> =
            Vec::with_capacity(self.in_window + self.overflow.len() + usize::from(extra.is_some()));
        for b in &mut self.buckets {
            all.append(b);
        }
        all.append(&mut self.overflow);
        if let Some(e) = extra {
            all.push(e);
        }
        self.in_window = 0;
        self.overflow_min = f64::INFINITY;
        self.cur = 0;
        self.cur_sorted = false;
        self.calibrated = true;
        let n = all.len();
        let nb = n.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.buckets.resize_with(nb, Vec::new);
        if n == 0 {
            return;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in &all {
            lo = lo.min(e.time);
            hi = hi.max(e.time);
        }
        let w = 3.0 * (hi - lo) / n as f64;
        self.width = if w.is_finite() && w > 0.0 { w } else { 1.0 };
        self.base = lo;
        for e in all {
            if !self.push_to_window(e) {
                self.overflow_min = self.overflow_min.min(e.time);
                self.overflow.push(e);
            }
        }
    }

    /// Move every overflow event that now falls inside the window into
    /// its bucket.
    fn migrate_due_overflow(&mut self) {
        let mut keep = Vec::with_capacity(self.overflow.len());
        let mut min_keep = f64::INFINITY;
        for ev in std::mem::take(&mut self.overflow) {
            if !self.push_to_window(ev) {
                min_keep = min_keep.min(ev.time);
                keep.push(ev);
            }
        }
        self.overflow = keep;
        self.overflow_min = min_keep;
    }

    /// Schedule an event. Callers uphold the monotonicity contract:
    /// `ev.time` is never below the time of the last popped event.
    pub fn push(&mut self, ev: Event) {
        debug_assert!(ev.time.is_finite(), "event times are finite");
        if !self.calibrated {
            // Pre-calibration (before the first pop): just accumulate.
            self.overflow_min = self.overflow_min.min(ev.time);
            self.overflow.push(ev);
        } else if self.in_window >= 8 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.recalibrate(Some(ev));
        } else if !self.push_to_window(ev) {
            self.overflow_min = self.overflow_min.min(ev.time);
            self.overflow.push(ev);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Event> {
        if !self.calibrated {
            self.recalibrate(None);
        }
        if self.in_window + self.overflow.len() == 0 {
            return None;
        }
        loop {
            // Overflow events become due when `base` catches up to them;
            // migrate before draining the current bucket so ordering
            // across the window/overflow boundary is preserved.
            if self.overflow_min < self.base + self.width {
                self.migrate_due_overflow();
            }
            if !self.buckets[self.cur].is_empty() {
                if !self.cur_sorted {
                    self.buckets[self.cur].sort_unstable_by(|a, b| b.key_cmp(a));
                    self.cur_sorted = true;
                }
                let ev = self.buckets[self.cur].pop().expect("non-empty bucket");
                self.in_window -= 1;
                return Some(ev);
            }
            if self.in_window == 0 {
                // The window ran dry but overflow still holds events:
                // jump straight to their era instead of rotating through
                // empty buckets, re-sizing to the surviving population.
                self.recalibrate(None);
                continue;
            }
            self.cur = (self.cur + 1) % self.buckets.len();
            self.base += self.width;
            self.cur_sorted = false;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_types::rng::SplitMix64;
    use std::collections::BinaryHeap;

    fn ev(time: f64, seq: u64) -> Event {
        Event {
            time,
            seq,
            kind: EventKind::ComputeDone { rank: 0, step: 0 },
        }
    }

    /// Drive both queues through an identical monotone push/pop script
    /// and assert every popped event matches.
    fn duel(script_seed: u64, ops: usize, time_scale: f64) {
        let mut rng = SplitMix64::new(script_seed);
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        // Seed population before the first pop, like the engine does.
        for _ in 0..(ops / 4).max(1) {
            let e = ev(now + rng.next_range(0.0, time_scale), seq);
            seq += 1;
            cal.push(e);
            heap.push(e);
        }
        for _ in 0..ops {
            if rng.next_below(3) == 0 || cal.is_empty() {
                // push 1–3 events at or after `now` (the DES contract)
                for _ in 0..=rng.next_below(2) {
                    let jump = if rng.next_below(20) == 0 {
                        time_scale * 1000.0 // a distant-era event
                    } else {
                        time_scale
                    };
                    let e = ev(now + rng.next_range(0.0, jump), seq);
                    seq += 1;
                    cal.push(e);
                    heap.push(e);
                }
            } else {
                let a = cal.pop().expect("calendar non-empty");
                let b = heap.pop().expect("heap non-empty");
                assert_eq!(a, b, "pop order diverged at now={now}");
                assert!(a.time >= now, "monotonicity violated");
                now = a.time;
            }
            assert_eq!(cal.len(), heap.len());
        }
        // Drain completely: the tails must agree too.
        while let Some(b) = heap.pop() {
            assert_eq!(cal.pop(), Some(b));
        }
        assert!(cal.pop().is_none());
    }

    #[test]
    fn calendar_matches_heap_on_random_monotone_scripts() {
        for seed in 0..8 {
            duel(seed, 4000, 1e-3);
        }
    }

    #[test]
    fn calendar_matches_heap_across_time_scales() {
        duel(99, 2000, 1e-9);
        duel(100, 2000, 1.0);
        duel(101, 2000, 1e6);
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut q = CalendarQueue::new();
        for seq in (0..100u64).rev() {
            q.push(ev(1.5, seq));
        }
        for seq in 0..100u64 {
            assert_eq!(q.pop().unwrap().seq, seq);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn distant_era_jump_is_handled() {
        let mut q = CalendarQueue::new();
        q.push(ev(0.0, 0));
        q.push(ev(1e9, 1));
        q.push(ev(0.5, 2));
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 2);
        // era jump: the queue must not rotate through 2^30 buckets
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn growth_resize_preserves_order() {
        let mut q = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        // calibrate small, then push far more than 8 events per bucket
        q.push(ev(0.0, 0));
        heap.push(ev(0.0, 0));
        assert_eq!(q.pop(), heap.pop());
        let mut rng = SplitMix64::new(7);
        for seq in 1..20_000u64 {
            let e = ev(rng.next_range(0.0, 1.0), seq);
            q.push(e);
            heap.push(e);
        }
        assert!(q.peak_len() >= 19_999);
        while let Some(b) = heap.pop() {
            assert_eq!(q.pop(), Some(b));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = CalendarQueue::new();
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }
}
