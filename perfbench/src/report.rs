//! Metric names, units and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test checks
//! they agree). Every workload prints every name of the list its mode
//! reports.

/// Metrics a reader of the query server sees; printed by untraced runs.
/// `p99_ms` and `max_rps` are printed too but not listed: they follow
/// the host's CPU steal too closely to gate on.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_heap_mb", "MB"), ("p50_ms", "ms")];

/// Metrics of single layers; printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.s", "s"),
    ("synth.peak_mb", "MB"),
    ("synth.peak_bytes", "B"),
    ("filter.s", "s"),
    ("filter.peak_mb", "MB"),
    ("filter.peak_bytes", "B"),
    ("filter.retained_bytes", "B"),
    ("filter.rows_in", "count"),
    ("filter.rows_out", "count"),
    ("filter.same_day_collapsed", "count"),
    ("filter.bot_reverted.rows_in", "count"),
    ("filter.bot_reverted.rows_out", "count"),
    ("filter.same_day.rows_in", "count"),
    ("filter.same_day.rows_out", "count"),
    ("filter.creations_deletions.rows_in", "count"),
    ("filter.creations_deletions.rows_out", "count"),
    ("filter.min_changes.rows_in", "count"),
    ("filter.min_changes.rows_out", "count"),
    ("daylist.build_s", "s"),
    ("daylist.heap_bytes", "B"),
    ("index.build_s", "s"),
    ("cube.peak_bytes", "B"),
    ("cube.retained_bytes", "B"),
    ("daylist.last_before_ns", "ns"),
    ("daylist.count_before_ns", "ns"),
    ("daylist.changed_in_ns", "ns"),
    ("binio.decode_s", "s"),
    ("train.field_corr_s", "s"),
    ("train.assoc_s", "s"),
    ("train.mean_s", "s"),
    ("train.rules", "count"),
    ("train.field_corr_rules", "count"),
    ("train.assoc_rules", "count"),
    ("train.peak_bytes", "B"),
    ("train.retained_bytes", "B"),
    ("field_corr.change_distance_ns", "ns"),
    ("apriori.mine_s", "s"),
    ("predict.mean_s", "s"),
    ("predict.threshold_s", "s"),
    ("predict.field_corr_s", "s"),
    ("predict.assoc_s", "s"),
    ("predict.emitted", "count"),
    ("predict.field_corr.g1.emitted", "count"),
    ("predict.field_corr.g7.emitted", "count"),
    ("predict.field_corr.g30.emitted", "count"),
    ("predict.field_corr.g365.emitted", "count"),
    ("predict.assoc.g1.emitted", "count"),
    ("predict.assoc.g7.emitted", "count"),
    ("predict.assoc.g30.emitted", "count"),
    ("predict.assoc.g365.emitted", "count"),
    ("predict.mean.g1.emitted", "count"),
    ("predict.mean.g7.emitted", "count"),
    ("predict.mean.g30.emitted", "count"),
    ("predict.mean.g365.emitted", "count"),
    ("predict.threshold.g1.emitted", "count"),
    ("predict.threshold.g7.emitted", "count"),
    ("predict.threshold.g30.emitted", "count"),
    ("predict.threshold.g365.emitted", "count"),
    ("predict.peak_bytes", "B"),
    ("predict.retained_bytes", "B"),
    ("app.sets_warm_s", "s"),
    ("eval.s", "s"),
    ("eval.peak_bytes", "B"),
    ("scorer.page_flags_us", "us"),
    ("http.parse_us", "us"),
    ("route.stale_miss_us", "us"),
    ("route.stale_hit_us", "us"),
    ("route.score_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evicted", "count"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_504", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.achieved_rps", "1/s"),
    ("trace.overhead_ms", "ms"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Requests attempted.
    pub attempted: u64,
    /// Failed operations: non-2xx, transport errors, wrong outputs.
    pub failed: u64,
    /// Outputs that differ from the reference.
    pub mismatches: u64,
    /// Failed requests of the fixed-rate phase, where `p50_ms` and
    /// `p99_ms` are measured. Latency is taken over answered requests
    /// only, so a server that sheds or fails fast must not pass as fast.
    pub fixed_rate_failures: u64,
}

impl Report {
    /// Record a metric named in one of the tables.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        self.put_extra(name, value, unit);
    }

    /// Record a metric printed for people only, such as `samples`.
    pub fn put_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Whether every output matched its reference and no fixed-rate
    /// request failed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.fixed_rate_failures == 0
    }

    /// Human-readable lines for every metric, then the one-line JSON
    /// result holding exactly the metrics of `names`.
    pub fn render(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<38} {value:>16.6} {unit}\n"));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!("{:<38} {error_rate:>16.6} ratio\n", "error_rate"));
        let mut fields = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_obs::json::{self, Value};

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn the_result_line_holds_exactly_the_listed_metrics() {
        let mut r = Report {
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.put(name, 1.25);
        }
        r.put_extra("samples", 3.0, "count");
        let text = r.render(END_TO_END).unwrap();
        let last = text.lines().last().unwrap();
        let doc = json::parse(last).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert!(metrics.get("samples").is_none(), "extra metric leaked");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
        }
        assert!(text.contains("error_rate"));
        assert!(text.contains("0.250000 ratio"));
    }

    #[test]
    fn a_fixed_rate_failure_or_a_mismatch_makes_the_run_incorrect() {
        let mut r = Report::default();
        assert!(r.correct());
        r.fixed_rate_failures = 1;
        assert!(!r.correct(), "a shed request would pass as a fast one");
        r.fixed_rate_failures = 0;
        r.mismatches = 1;
        assert!(!r.correct());
    }

    #[test]
    fn a_missing_metric_refuses_to_render() {
        let mut r = Report::default();
        r.put("setup_s", 1.0);
        assert!(r.render(END_TO_END).is_err());
    }
}
