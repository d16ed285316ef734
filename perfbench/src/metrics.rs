//! The benchmark's declared metrics and the result line.
//!
//! Every workload prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run); `BENCHMARK.json` declares the same
//! names and units, which a test checks. A per-layer metric of a stage a
//! workload never enters reads 0: the stage took no time there.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Stages timed inside an operation, in ledger order. Each yields a
/// `<stage>_s` (self seconds per operation) and a `<stage>_share` metric.
pub const OP_STAGES: &[&str] = &[
    "pic-sim.new",
    "pic-sim.run",
    "pic-trace.encode",
    "pic-workload.generate",
    "pic-workload.sweep",
    "pic-analysis.gate",
    "pic-models.fit",
    "pic-predict.kernel_seconds",
    "pic-predict.build_schedule",
    "pic-predict.validate",
    "pic-des.simulate_barrier",
    "pic-des.simulate_neighbor",
    "pic-predict.serve.queue",
    "pic-predict.serve.sweep",
    "pic-predict.serve.predict",
    "pic-predict.serve.ingest",
];

/// Stages timed inside set-up. Each yields a `setup.<stage>_s` metric.
pub const SETUP_STAGES: &[&str] = &[
    "pic-sim.new",
    "pic-trace.decode",
    "pic-grid.decompose",
    "pic-models.fit",
    "pic-predict.serve.start",
    "pic-predict.serve.ingest",
    "pic-predict.serve.warm",
];

/// Per-layer metrics that are not stage times: `(name, unit)`.
pub const PER_LAYER_EXTRA: &[(&str, &str)] = &[
    ("ledger.op_s", "s"),
    ("residual_s", "s"),
    ("residual_share", "frac"),
    ("setup.total_s", "s"),
    ("setup.residual_s", "s"),
    ("trace_overhead_frac", "frac"),
    ("threads", "count"),
    ("pic-sim.particle_steps_per_s", "1/s"),
    ("pic-trace.bytes", "B"),
    ("pic-workload.particle_samples_per_s", "1/s"),
    ("pic-workload.assign_pass_ratio", "frac"),
    ("pic-models.evals_per_s", "1/s"),
    ("pic-models.kernel_mape_pct", "%"),
    ("pic-analysis.violations", "count"),
    ("pic-des.events", "count"),
    ("pic-des.events_per_s", "1/s"),
    ("pic-des.peak_queue_len", "count"),
    ("pic-predict.serve.sweep_hit_p50_ms", "ms"),
    ("pic-predict.serve.sweep_hit_p99_ms", "ms"),
    ("pic-predict.serve.sweep_miss_p50_ms", "ms"),
    ("pic-predict.serve.sweep_miss_p99_ms", "ms"),
    ("pic-predict.serve.predict_p50_ms", "ms"),
    ("pic-predict.serve.predict_p99_ms", "ms"),
    ("pic-predict.serve.ingest_p50_ms", "ms"),
    ("pic-predict.serve.ingest_p99_ms", "ms"),
    ("pic-predict.serve.cache_hit_rate", "frac"),
    ("pic-predict.serve.batched_frac", "frac"),
    ("pic-predict.serve.evictions", "count"),
    ("pic-predict.serve.send_lag_p50_ms", "ms"),
    ("pic-predict.serve.send_lag_p99_ms", "ms"),
];

/// Every per-layer metric, `(name, unit)`, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for stage in OP_STAGES {
        out.push((format!("{stage}_s"), "s"));
        out.push((format!("{stage}_share"), "frac"));
    }
    for stage in SETUP_STAGES {
        out.push((format!("setup.{stage}_s"), "s"));
    }
    out.extend(PER_LAYER_EXTRA.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// The declared metric set for a run: end-to-end untraced, per-layer
/// traced.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or whose outputs failed a check.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

/// Render the result line. Fails if a declared metric is missing or not
/// finite, or if an undeclared one is present.
pub fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared = declared(trace);
    for name in outcome.values.keys() {
        if !declared.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not declared"));
        }
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let v = *outcome
            .values
            .get(name)
            .ok_or_else(|| format!("declared metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(v)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

/// Shortest round-trip decimal form (a valid JSON number when finite).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(text: &str) -> serde::Value {
        struct Raw(serde::Value);
        impl serde::Deserialize for Raw {
            fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
                Ok(Raw(v.clone()))
            }
        }
        serde_json::from_str::<Raw>(text).unwrap().0
    }

    fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
        v.as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn names(list: &serde::Value) -> Vec<(String, String)> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name").as_str().unwrap().to_string(),
                    field(m, "unit").as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = raw(&std::fs::read_to_string(path).unwrap());
        let own = |trace| -> Vec<(String, String)> {
            declared(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect()
        };
        assert_eq!(names(field(&bench, "end_to_end")), own(false));
        assert_eq!(names(field(&bench, "per_layer")), own(true));
        let workloads: Vec<String> = field(&bench, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<String> = declared(false)
            .into_iter()
            .chain(declared(true))
            .map(|(n, _)| n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(!all[..i].contains(n), "duplicate {n}");
        }
    }

    #[test]
    fn render_emits_every_metric_with_its_unit() {
        for trace in [false, true] {
            let values = declared(trace)
                .into_iter()
                .enumerate()
                .map(|(i, (n, _))| (n, i as f64 + 0.5))
                .collect();
            let outcome = Outcome {
                attempted: 3,
                failed: 0,
                correct: true,
                values,
            };
            let line = render(&outcome, trace).unwrap();
            let parsed = raw(&line);
            let metrics = field(&parsed, "metrics").as_map().unwrap();
            assert_eq!(metrics.len(), declared(trace).len());
            for ((name, unit), (key, m)) in declared(trace).iter().zip(metrics) {
                assert_eq!(name, key);
                assert_eq!(field(m, "unit").as_str().unwrap(), *unit);
                assert!(field(m, "value").as_f64().is_some());
            }
        }
    }

    #[test]
    fn render_rejects_missing_and_stray_metrics() {
        let mut outcome = Outcome {
            attempted: 1,
            failed: 0,
            correct: true,
            values: BTreeMap::new(),
        };
        assert!(render(&outcome, false)
            .unwrap_err()
            .contains("not measured"));
        outcome.values.insert("bogus".into(), 1.0);
        assert!(render(&outcome, false)
            .unwrap_err()
            .contains("not declared"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(1.2034567891234), "1.2034567891234");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e300), "1e300");
    }
}
