//! What one benchmark run collects, and the measurement loop the batch
//! workloads share.

use crate::spans::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up is repeated at least this many times per run, and its median
/// reported.
pub const SETUP_MIN_REPEATS: usize = 5;

/// Set-up repeats until this many seconds have passed (or
/// [`SETUP_MAX_REPEATS`]), so that a set-up of a millisecond still gets a
/// steady median.
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// Upper limit on set-up repetitions.
pub const SETUP_MAX_REPEATS: usize = 200;

/// A batch workload runs at least this many operations, however long
/// they take.
pub const MIN_OPS: usize = 3;

/// Everything a workload records during one run.
#[derive(Debug)]
pub struct Run {
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Spans around every layer call (recording only in traced runs).
    pub tracer: Tracer,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each untraced operation, ms.
    pub op_ms: Vec<f64>,
    /// Latency of each traced operation, ms.
    pub traced_op_ms: Vec<f64>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Failed operations and failed output checks, described.
    pub failures: Vec<String>,
    /// Workload-specific per-layer values (counts, rates, ratios).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Run {
    /// An empty run.
    pub fn new(seconds: f64, trace: bool) -> Run {
        Run {
            seconds,
            trace,
            tracer: Tracer::new(false),
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            layer: BTreeMap::new(),
        }
    }

    /// Record a failed operation or output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: FAILED: {what}");
        self.failures.push(what);
    }

    /// Check an output, recording a failure when the condition does not
    /// hold. Each check counts as an attempted operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Run set-up under a `setup` root span, timing each repetition, at
    /// least [`SETUP_MIN_REPEATS`] times and until [`SETUP_MIN_SECONDS`]
    /// have passed, and keep the last result. Earlier results are dropped
    /// before the next repetition starts.
    pub fn setup<S>(
        &mut self,
        mut f: impl FnMut(&mut Tracer) -> Result<S, String>,
    ) -> Result<S, String> {
        self.tracer.set_enabled(self.trace);
        let start = Instant::now();
        let mut last = None;
        while self.setup_s.len() < SETUP_MIN_REPEATS
            || (self.setup_s.len() < SETUP_MAX_REPEATS
                && start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
        {
            drop(last.take());
            let t0 = Instant::now();
            let s = self.tracer.span("setup", &mut f)?;
            self.setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(s);
        }
        self.tracer.set_enabled(false);
        Ok(last.expect("at least one set-up repetition"))
    }

    /// Run `op` until the measurement window has passed and at least
    /// [`MIN_OPS`] operations ran, each under a root span named `root`.
    /// A traced run alternates untraced and traced operations, so the two
    /// latency series give the tracing overhead. Errors count as failed
    /// operations; outputs of the others are returned for checking
    /// outside the timed section.
    pub fn repeat<T>(
        &mut self,
        root: &'static str,
        mut op: impl FnMut(&mut Tracer) -> Result<T, String>,
    ) -> Vec<T> {
        let mut outputs = Vec::new();
        let start = Instant::now();
        let mut i = 0usize;
        while i < MIN_OPS || start.elapsed().as_secs_f64() < self.seconds {
            let traced = self.trace && i % 2 == 1;
            self.tracer.set_enabled(traced);
            self.attempted += 1;
            let t0 = Instant::now();
            let out = self.tracer.span(root, &mut op);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if traced {
                self.traced_op_ms.push(ms);
            } else {
                self.op_ms.push(ms);
            }
            match out {
                Ok(o) => outputs.push(o),
                Err(e) => self.fail(format!("{root} operation {i}: {e}")),
            }
            i += 1;
        }
        self.tracer.set_enabled(false);
        outputs
    }

    /// Set a workload-specific per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `p` in [0, 100], interpolated linearly between order
/// statistics; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a-128 digest of `bytes`, as hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut d = pic_types::hash::Fnv128::new();
    d.update(bytes);
    d.hex()
}

/// Digest of a sequence of floats, bit for bit.
pub fn digest_f64s(xs: impl IntoIterator<Item = f64>) -> String {
    let mut d = pic_types::hash::Fnv128::new();
    for x in xs {
        d.update(&x.to_bits().to_le_bytes());
    }
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!((percentile(&xs, 99.0) - 198.01).abs() < 1e-9);
        assert_eq!(percentile(&xs, 50.0), 100.5);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 100.0), 9.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 75.0), 7.0);
    }

    #[test]
    fn repeat_runs_at_least_min_ops_and_alternates_when_traced() {
        let mut run = Run::new(0.0, true);
        let outs = run.repeat("op", |tr| Ok(tr.span("a.x", |_| 1)));
        assert_eq!(outs.len(), MIN_OPS);
        assert_eq!(run.op_ms.len() + run.traced_op_ms.len(), MIN_OPS);
        assert_eq!(run.traced_op_ms.len(), MIN_OPS / 2);
        run.tracer.check_well_nested().unwrap();
        assert_eq!(run.tracer.ledger("op").roots, MIN_OPS / 2);
    }

    #[test]
    fn failed_operations_are_counted() {
        let mut run = Run::new(0.0, false);
        let outs = run.repeat("op", |_| Err::<(), _>("boom".to_string()));
        assert!(outs.is_empty());
        assert_eq!(run.attempted, MIN_OPS as u64);
        assert_eq!(run.failures.len(), MIN_OPS);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
