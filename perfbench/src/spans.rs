//! In-memory spans recorded by the benchmark around each call into a layer,
//! and the per-stage ledger derived from them.
//!
//! A span has a name, a start, an end and a parent. Spans are kept in
//! memory while the workload runs and written out once at the end. A
//! span's self time is its duration minus the part of it its children
//! cover, so the self times of a root's descendants plus the root's own
//! self time (the residual: wall time no stage claims) add up to the
//! root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name, `<layer>.<operation>` for layer calls.
    pub name: &'static str,
    /// Start, seconds since the tracer origin.
    pub start: f64,
    /// End, seconds since the tracer origin; `None` while open.
    pub end: Option<f64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Span recorder. When disabled, [`Tracer::span`] only runs its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.at(Instant::now()),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let end = self.at(Instant::now());
        self.spans[id].end = Some(end);
        self.open.pop();
        out
    }

    /// Record an interval measured elsewhere (on another thread) as a
    /// closed span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            start,
            end: Some(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Check that every span is closed, ends no earlier than it starts,
    /// has an earlier-opened parent, and lies within that parent.
    pub fn check_well_nested(&self) -> Result<(), String> {
        check_well_nested(&self.spans)
    }

    /// The ledger over every root span called `root`.
    pub fn ledger(&self, root: &str) -> Ledger {
        ledger(&self.spans, root)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{}}}",
                    s.name,
                    s.start,
                    s.end.map_or("null".to_string(), |e| e.to_string()),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

fn check_well_nested(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let end = s
            .end
            .ok_or_else(|| format!("span {i} ({}) left open", s.name))?;
        if end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) has bad parent {p}", s.name))?;
            let parent_end = parent.end.unwrap_or(f64::NEG_INFINITY);
            if s.start < parent.start || end > parent_end {
                return Err(format!(
                    "span {i} ({}) [{}, {end}] escapes parent {p} ({}) [{}, {parent_end}]",
                    s.name, s.start, parent.name, parent.start
                ));
            }
        }
    }
    Ok(())
}

/// Self time of every span: duration minus the union of its children's
/// intervals.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end) {
            children[p].push((s.start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let end = s.end.unwrap_or(s.start);
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (end - s.start) - covered
        })
        .collect()
}

/// Per-stage accounting over a set of root spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Root spans covered.
    pub roots: usize,
    /// Summed root durations, seconds.
    pub total_s: f64,
    /// Summed self time per stage name over every descendant, seconds.
    pub stages: BTreeMap<&'static str, f64>,
    /// Summed self time of the roots themselves: time no stage claims.
    pub residual_s: f64,
}

impl Ledger {
    /// Mean seconds per root of `stage` (0 when absent).
    pub fn per_root(&self, stage: &str) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        self.stages.get(stage).copied().unwrap_or(0.0) / self.roots as f64
    }

    /// `stage`'s share of the total (0 when absent).
    pub fn share(&self, stage: &str) -> f64 {
        if self.total_s > 0.0 {
            self.stages.get(stage).copied().unwrap_or(0.0) / self.total_s
        } else {
            0.0
        }
    }

    /// Render as a table: stage, seconds per root, share of the total.
    pub fn table(&self, title: &str, threads: usize) -> String {
        let n = self.roots.max(1) as f64;
        let mut out = format!(
            "{title}: {} root(s), {:.6} s per root, threads {threads}\n",
            self.roots,
            self.total_s / n
        );
        let share = |s: f64| {
            if self.total_s > 0.0 {
                s / self.total_s
            } else {
                0.0
            }
        };
        for (name, s) in &self.stages {
            out.push_str(&format!(
                "  {name:<32} {:>12.6} s {:>7.2}%\n",
                s / n,
                100.0 * share(*s)
            ));
        }
        out.push_str(&format!(
            "  {:<32} {:>12.6} s {:>7.2}%\n",
            "residual",
            self.residual_s / n,
            100.0 * share(self.residual_s)
        ));
        out
    }
}

fn ledger(spans: &[Span], root: &str) -> Ledger {
    let selfs = self_times(spans);
    // Root index of every span (roots are their own root).
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = match s.parent {
            Some(p) => root_of[p],
            None => i,
        };
        root_of.push(r);
    }
    let mut out = Ledger::default();
    for (i, s) in spans.iter().enumerate() {
        let r = root_of[i];
        if spans[r].name != root {
            continue;
        }
        if i == r {
            out.roots += 1;
            out.total_s += s.end.unwrap_or(s.start) - s.start;
            out.residual_s += selfs[i];
        } else {
            *out.stages.entry(s.name).or_insert(0.0) += selfs[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end: Some(end),
            parent,
        }
    }

    #[test]
    fn recorded_tree_is_well_nested() {
        let mut tr = Tracer::new(true);
        tr.span("op", |tr| {
            tr.span("a.x", |tr| tr.span("b.y", |_| std::hint::black_box(1 + 1)));
            tr.span("c.z", |_| ());
        });
        tr.check_well_nested().unwrap();
        assert_eq!(tr.spans.len(), 4);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[3].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("op", |tr| tr.span("a.x", |_| 7)), 7);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn open_and_escaping_spans_are_rejected() {
        let open = vec![Span {
            name: "op",
            start: 0.0,
            end: None,
            parent: None,
        }];
        assert!(check_well_nested(&open).unwrap_err().contains("open"));
        let escaping = vec![span("op", 0.0, 1.0, None), span("a.x", 0.5, 1.5, Some(0))];
        assert!(check_well_nested(&escaping)
            .unwrap_err()
            .contains("escapes"));
        let forward = vec![span("a.x", 0.0, 1.0, Some(1)), span("op", 0.0, 1.0, None)];
        assert!(check_well_nested(&forward)
            .unwrap_err()
            .contains("bad parent"));
    }

    #[test]
    fn ledger_rows_and_residual_add_up_to_total() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("a.x", 1.0, 4.0, Some(0)),
            span("b.y", 2.0, 3.0, Some(1)),
            span("a.x", 5.0, 9.0, Some(0)),
            span("setup", 20.0, 21.0, None),
            span("c.z", 20.0, 20.5, Some(4)),
        ];
        check_well_nested(&spans).unwrap();
        let l = ledger(&spans, "op");
        assert_eq!(l.roots, 1);
        assert_eq!(l.stages["a.x"], 6.0);
        assert_eq!(l.stages["b.y"], 1.0);
        assert!(!l.stages.contains_key("c.z"));
        assert_eq!(l.residual_s, 3.0);
        let sum: f64 = l.stages.values().sum::<f64>() + l.residual_s;
        assert_eq!(sum, l.total_s);
        assert_eq!(l.share("a.x"), 0.6);
        assert_eq!(ledger(&spans, "setup").residual_s, 0.5);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("a.x", 1.0, 5.0, Some(0)),
            span("a.x", 3.0, 7.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 4.0);
    }
}
