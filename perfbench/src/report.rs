//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of its mode: the end-to-end
//! metrics untraced, the per-layer metrics traced. A per-layer metric
//! of a layer a workload does not load reads 0. `BENCHMARK.json` lists
//! the same names and units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_eps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("executor.batch_calls", "count"),
    ("executor.batch_busy_s", "s"),
    ("executor.batch_p50_us", "us"),
    ("executor.batch_p99_us", "us"),
    ("executor.busy_ns_per_event", "ns"),
    ("executor.flush_s", "s"),
    ("executor.results", "count"),
    ("executor.emit_busy_s", "s"),
    ("executor.runs_created", "count"),
    ("executor.busy_ns_per_run", "ns"),
    ("metrics.state_bytes", "bytes"),
    ("metrics.state_bytes_call_us", "us"),
    ("optimizer.decisions", "count"),
    ("optimizer.shared_frac", "ratio"),
    ("optimizer.transitions", "count"),
    ("run.snapshots", "count"),
    ("optimizer.share_gain", "ratio"),
    ("checkpoint.cuts", "count"),
    ("checkpoint.cut_busy_s", "s"),
    ("checkpoint.cut_full_p50_ms", "ms"),
    ("checkpoint.cut_delta_p50_ms", "ms"),
    ("checkpoint.base_bytes", "bytes"),
    ("checkpoint.delta_bytes_mean", "bytes"),
    ("checkpoint.delta_ratio", "ratio"),
    ("store.append_busy_s", "s"),
    ("store.append_p99_ms", "ms"),
    ("store.load_chain_ms", "ms"),
    ("checkpoint.restore_chain_ms", "ms"),
    ("source.lag_p50_ms", "ms"),
    ("source.lag_p99_ms", "ms"),
    ("watermark.reorder_depth_max", "events"),
    ("pipeline.worker_depth_max", "events"),
    ("pipeline.sink_depth_max", "rows"),
    ("pipeline.shard_skew", "ratio"),
    ("pipeline.late", "events"),
    ("pipeline.drain_s", "s"),
    ("pipeline.latency_p90_ms", "ms"),
    ("sink.accepts", "count"),
    ("sink.rows_per_accept", "rows"),
    ("sink.closings", "count"),
    ("trace.overhead_frac", "ratio"),
    ("self.executor_s", "s"),
    ("self.metrics_s", "s"),
    ("self.checkpoint_s", "s"),
    ("self.store_s", "s"),
    ("self.pipeline_s", "s"),
    ("self.sink_s", "s"),
    ("self.bench_s", "s"),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Checks made: one per reference row per pass, plus one per extra
    /// check (byte-identical recovery, no early row, no late event).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed ahead of the result line (per-layer self time,
    /// sample counts, where the trace went).
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts `checks` checks of which `failed` failed.
    pub fn check(&mut self, checks: u64, failed: u64) {
        self.attempted += checks;
        self.failed += failed;
    }

    /// The final line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of `catalogue` with their units. Fails
    /// when a metric is missing or not a finite number.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut m = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut r = Report::default();
        r.check(10, 0);
        assert!(r.result_line(END_TO_END).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let line = r.result_line(END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        r.set("setup_s", f64::NAN);
        assert!(r.result_line(END_TO_END).is_err());
    }

    /// The catalogue here and the metric lists in `BENCHMARK.json` must
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let pairs = |section: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
    }
}
