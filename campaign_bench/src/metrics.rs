//! The metric catalogue and the one-line JSON record a run prints.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// What a user of `hdiff run` / `hdiff fuzz` sees; printed by every
/// untraced run. `setup_s` and `wall_s` are assembled by `run.py` from
/// several fresh processes, the rest by the measuring process.
pub const END_TO_END: [MetricDef; 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("cases_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Per-layer numbers from the traced run, every one on every workload
/// (0 where the layer does not take part; see README.md).
pub const PER_LAYER: [MetricDef; 51] = [
    ("analyzer.busy_ms", "ms"),
    ("gen.busy_ms", "ms"),
    ("gen.cases", "count"),
    ("gen.ambiguous_share", "ratio"),
    ("servers.busy_ms", "ms"),
    ("servers.case_p50_us", "us"),
    ("servers.case_p99_us", "us"),
    ("servers.interpretations", "count"),
    ("servers.replay_share", "ratio"),
    ("servers.replay_repeat_ratio", "ratio"),
    ("wire.parse_busy_ms", "ms"),
    ("abnf.match_busy_ms", "ms"),
    ("abnf.matches", "count"),
    ("abnf.memo_miss", "count"),
    ("detect.busy_ms", "ms"),
    ("detect.case_p50_us", "us"),
    ("detect.case_p99_us", "us"),
    ("detect.findings", "count"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.overhead_ms", "ms"),
    ("engine.summarize_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.untraced_wall_ms", "ms"),
    ("engine.fail_ratio", "ratio"),
    ("net.setup_ms", "ms"),
    ("net.busy_ms", "ms"),
    ("net.case_p50_us", "us"),
    ("net.case_p99_us", "us"),
    ("net.tax_per_case_us", "us"),
    ("net.exchanges", "count"),
    ("net.exchange_p50_us", "us"),
    ("net.exchange_p99_us", "us"),
    ("net.conn_opens", "count"),
    ("net.pool_hit_ratio", "ratio"),
    ("net.errors", "count"),
    ("net.retries", "count"),
    ("fuzz.mutate_busy_ms", "ms"),
    ("fuzz.exec_busy_ms", "ms"),
    ("fuzz.exec_p50_us", "us"),
    ("fuzz.exec_p99_us", "us"),
    ("fuzz.score_busy_ms", "ms"),
    ("fuzz.corpus_add_ratio", "ratio"),
    ("fuzz.novel_classes", "count"),
    ("fuzz.stream_requests_mean", "count"),
    ("minimize.busy_ms", "ms"),
    ("minimize.attempts", "count"),
    ("minimize.accept_ratio", "ratio"),
    ("minimize.shrink_ratio", "ratio"),
    ("obs.overhead_pct", "%"),
    ("trace.cases", "count"),
    ("trace.tail_pct", "%"),
];

/// Metric values keyed by name, restricted to one catalogue.
#[derive(Debug)]
pub struct Metrics {
    catalogue: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `catalogue`, zeroed.
    pub fn zeroed(catalogue: &'static [MetricDef]) -> Metrics {
        Metrics { catalogue, values: catalogue.iter().map(|&(n, _)| (n, 0.0)).collect() }
    }

    /// Sets `name`. Panics on a name outside the catalogue: that is a
    /// bug in this benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| **n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        *slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    /// Current value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` in catalogue order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in self.catalogue.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(self.get(name))
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every measured digit (Rust's shortest round-trip
/// form), never `NaN`/`inf`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::new();
    hdiff::diff::json::push_json_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: 1–64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_use_only_the_allowed_characters_and_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names must be unique");
        for bad in ["", "_lead", "has space", "slash/y", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names =
            |defs: &[MetricDef]| defs.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
        let benchmarked = crate::Workload::BENCHMARKED;
        assert_eq!(section("workloads"), benchmarked.map(|w| w.name().to_string()));
        for w in benchmarked {
            assert!(text.contains(&format!("\"why\": \"{}\"", w.why())), "{} why", w.name());
        }
    }

    #[test]
    fn json_lists_every_catalogued_metric_with_its_unit() {
        let mut m = Metrics::zeroed(&END_TO_END);
        m.set("cases_per_s", 1234.5);
        let json = m.to_json();
        assert!(json.contains("\"cases_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"), "{json}");
        assert!(json.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"), "{json}");
        assert_eq!(num(f64::NAN), "0.0");
    }
}
