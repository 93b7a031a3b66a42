//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the catalogue: the end-to-end set
//! on untraced runs, the per-layer set on traced runs. The names and units
//! here are the ones `BENCHMARK.json` declares (a test holds the two
//! together); `README.md` in this directory says what each metric means on
//! each workload and which end-to-end metric each per-layer one should move.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("event_us_p50", "us"),
    ("events_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("sustainable_eps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed by untraced runs but left out of the result
/// line (and so out of any bound): over ten runs on a machine whose cores
/// and last-level cache other tenants share, the tails spread more than a
/// quarter of their median, and `register_ms_p50` up to 0.24 of it when a
/// set of runs crossed one of the host's slow or fast phases (see
/// `README.md`). Registration cost stays gated through `sub-churn`'s
/// `sustainable_eps` and through `setup_s`.
pub const UNGATED: &[(&str, &str)] = &[
    ("register_ms_p50", "ms"),
    ("event_us_p99", "us"),
    ("latency_us_p99", "us"),
    ("register_ms_p99", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Layer names are the
/// repository's modules.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.gen_us_per_doc", "us"),
    ("corpus.lag_us_p99", "us"),
    ("text.query_build_ms", "ms"),
    ("index.postings", "count"),
    ("index.postings_per_doc", "count"),
    ("index.longest_list", "count"),
    ("ita.process_us_per_event", "us"),
    ("ita.touched_arrival_per_event", "count"),
    ("ita.touched_expiration_per_event", "count"),
    ("ita.results_changed_per_event", "count"),
    ("ita.change_ratio", "ratio"),
    ("ita.postings_examined_per_event", "count"),
    ("ita.refills_per_event", "count"),
    ("ita.rollups_per_event", "count"),
    ("ita.result_set_mean", "count"),
    ("ita.register_postings_per_query", "count"),
    ("sharded.call_us_per_event", "us"),
    ("sharded.busy_us_per_event", "us"),
    ("sharded.critical_us_per_event", "us"),
    ("sharded.parallel_util", "ratio"),
    ("sharded.unattributed_us_per_event", "us"),
    ("sharded.load_skew", "ratio"),
    ("sharded.migrations", "count"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.self_us_per_event", "us"),
    ("service.coalesced_frac", "ratio"),
    ("service.mean_burst", "count"),
    ("service.queue_high_water", "count"),
    ("service.offer_us_p99", "us"),
    ("service.shed", "count"),
    ("service.retry", "count"),
    ("service.register_immediate_frac", "ratio"),
    ("service.deregister_us_p50", "us"),
    ("service.results_us_p50", "us"),
    ("fault.faults", "count"),
    ("fault.recoveries", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported value with a human-readable note (percentile actually
/// reported, sample count, or why a layer does not apply).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Context printed next to it.
    pub note: String,
}

/// The metrics a run produced, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Value>,
}

impl Metrics {
    /// Sets `name` (which must be in the catalogue) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            unit_of(name).is_some(),
            "{name} is not in the metric catalogue"
        );
        self.values.insert(
            name,
            Value {
                value,
                note: note.into(),
            },
        );
    }

    /// Sets `name` to a statistic that carries its own percentile and
    /// sample count.
    pub fn set_tail(&mut self, name: &'static str, tail: Option<crate::stats::Tail>) {
        match tail {
            Some(t) if t.windows > 1 => self.set(
                name,
                t.value,
                format!(
                    "p{:.1}, median over {} stretches; n={}",
                    t.percentile, t.windows, t.n
                ),
            ),
            Some(t) => self.set(name, t.value, format!("p{:.1} of n={}", t.percentile, t.n)),
            None => self.set(name, 0.0, "no samples"),
        }
    }

    /// Marks a per-layer metric whose layer the workload does not run.
    pub fn not_applicable(&mut self, name: &'static str, why: &str) {
        self.set(name, 0.0, format!("n/a: {why}"));
    }

    /// Checks that the catalogue's `set` is present with finite values,
    /// then renders one human-readable line per metric of `set` and of
    /// `extra` (when measured), and the final JSON result line, which holds
    /// `set` only.
    pub fn render(
        &self,
        set: &[(&str, &str)],
        extra: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut lines = String::new();
        for &(name, unit) in extra {
            if let Some(value) = self.values.get(name) {
                lines.push_str(&format!(
                    "{name} = {} {unit}  ({}; not in the result line)\n",
                    value.value, value.note
                ));
            }
        }
        let mut json = Vec::new();
        for &(name, unit) in set {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", value.value));
            }
            lines.push_str(&format!(
                "{name} = {} {unit}  ({})\n",
                value.value, value.note
            ));
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value.value)
            ));
        }
        lines.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            json.join(", ")
        ));
        Ok(lines)
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(UNGATED)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (always with a decimal point or exponent, so it reads as a float).
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(set: &[(&'static str, &str)]) -> Metrics {
        let mut m = Metrics::default();
        for (i, &(name, _)) in set.iter().enumerate() {
            m.set(name, 1.5 + i as f64, "test");
        }
        m
    }

    #[test]
    fn every_metric_is_printed_by_name_with_its_unit_and_in_the_json_line() {
        for set in [END_TO_END, PER_LAYER] {
            let out = full(set).render(set, &[], true, 10, 1).unwrap();
            let json = out.lines().last().unwrap();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1"));
            for &(name, unit) in set {
                assert!(
                    out.lines().any(|l| l.starts_with(&format!("{name} = "))
                        && l.contains(&format!(" {unit}  ("))),
                    "{name} not printed with {unit}"
                );
                assert!(json.contains(&format!("\"{name}\": {{\"value\": ")));
                assert!(json.contains(&format!("\"unit\": \"{unit}\"}}")));
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut m = full(END_TO_END);
        m.values.remove("setup_s");
        assert!(m.render(END_TO_END, &[], true, 1, 0).is_err());
        let mut m = full(END_TO_END);
        m.set("setup_s", f64::NAN, "");
        assert!(m.render(END_TO_END, &[], true, 1, 0).is_err());
    }

    #[test]
    fn ungated_metrics_are_printed_but_not_in_the_result_line() {
        let mut m = full(END_TO_END);
        m.set("latency_us_p99", 12.5, "test");
        let out = m.render(END_TO_END, UNGATED, true, 1, 0).unwrap();
        assert!(out.contains("latency_us_p99 = 12.5 us"));
        assert!(!out.lines().last().unwrap().contains("latency_us_p99"));
        // Not measured: simply not printed.
        assert!(!out.contains("register_ms_p99"));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

#[cfg(test)]
mod benchmark_json {
    use super::*;

    /// The `(name, unit)` pairs of one metric array of `BENCHMARK.json`.
    /// The arrays hold flat objects, so splitting on braces is enough.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let field = |object: &str, name: &str| {
            let at = object.find(&format!("\"{name}\"")).expect("field") + name.len() + 2;
            let rest = &object[at..];
            let first = rest.find('"').expect("string value") + 1;
            let len = rest[first..].find('"').expect("closing quote");
            rest[first..first + len].to_string()
        };
        json[open + 1..close]
            .split('}')
            .filter(|object| object.contains('{'))
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = set
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                declared(json, key),
                ours,
                "{key} differs from the catalogue"
            );
        }
    }
}
