//! The metric catalogue and the one-line JSON result.
//!
//! Every workload reports every metric of the catalogue it is asked for:
//! the end-to-end set untraced, the per-layer set traced. `BENCHMARK.json`
//! at the repository root lists the same names and units; a unit test
//! keeps the two in step.

use crate::procfs::Usage;
use exacoll_core::plan_cache::CacheMetrics;
use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("step_p50_us", "us"),
    ("step_tail_us", "us"),
    ("modeled_speedup", "x"),
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("select.select_ns", "ns"),
    ("select.hit_ratio", "ratio"),
    ("select.variants", "count"),
    ("core.plan_cache.get_ns", "ns"),
    ("core.plan_cache.insert_ns", "ns"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.executor.self_us", "us"),
    ("net.send_us", "us"),
    ("net.recv_post_us", "us"),
    ("net.frames", "count"),
    ("net.bytes", "B"),
    ("net.wait_us", "us"),
    ("net.waits", "count"),
    ("net.stalls_25ms", "count"),
    ("net.join_ms", "ms"),
    ("proc.cpu_us_per_op", "us"),
    ("proc.ctxsw_per_op", "count"),
    ("core.lower_ms", "ms"),
    ("opt.apply_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("comm.trace_ms", "ms"),
    ("comm.trace_ops", "count"),
    ("sim.simulate_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One run's outcome: the operation tally, the measured metrics, and the
/// provenance and detail notes printed ahead of the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (collectives for live runs, grid points priced
    /// for offline runs).
    pub attempted: u64,
    /// Attempted operations that errored or produced a wrong result.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form `key → value` notes (provenance, sample counts).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Record metric `name`; it must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.metrics.insert(name, value);
    }

    /// Record per-operation CPU time and context switches over `ops`
    /// operations.
    pub fn usage(&mut self, used: &Usage, ops: u64) {
        let ops = ops.max(1) as f64;
        self.set("proc.cpu_us_per_op", used.cpu_s * 1e6 / ops);
        self.set("proc.ctxsw_per_op", used.ctxsw as f64 / ops);
    }

    /// Record a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }

    /// The result line for catalogue `cat`: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Fails when a catalogued metric
    /// was not measured or is not a finite number.
    pub fn result_line(&self, cat: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in cat.iter().enumerate() {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(v),
                quote(unit)
            )
            .expect("writing to a String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }

    /// The notes as one JSON object line.
    pub fn notes_line(&self) -> String {
        let body: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        format!("{{\"exabench\": {{{}}}}}", body.join(", "))
    }
}

/// Plan-cache hits and lookups, from the cache's own counters, summed over
/// measured intervals.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheTally {
    hits: u64,
    lookups: u64,
}

impl CacheTally {
    /// Count the lookups between two metric snapshots.
    pub fn add(&mut self, before: &CacheMetrics, after: &CacheMetrics) {
        let hits = after.hits - before.hits;
        self.hits += hits;
        self.lookups += hits + after.misses - before.misses;
    }

    /// Report the hit ratio.
    pub fn report(&self, r: &mut Report) {
        r.set(
            "core.plan_cache.hit_ratio",
            self.hits as f64 / self.lookups.max(1) as f64,
        );
    }
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form (`Display` never uses exponent notation, so the text is valid JSON).
fn number(v: f64) -> String {
    format!("{v}")
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let line = r.result_line(END_TO_END).unwrap();
        let v = exacoll_json::parse(&line).unwrap();
        let exacoll_json::Value::Obj(pairs) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(v.req("correct").unwrap().as_bool().unwrap());
        let m = v.req("metrics").unwrap().req("setup_s").unwrap();
        assert_eq!(m.req("value").unwrap().as_f64().unwrap(), 1.25);
        assert_eq!(m.req("unit").unwrap().as_str().unwrap(), "s");
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let mut r = Report::default();
        assert!(r.result_line(END_TO_END).is_err());
        for (name, _) in END_TO_END {
            r.set(name, f64::NAN);
        }
        assert!(r.result_line(END_TO_END).is_err());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report {
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        for (name, _) in PER_LAYER {
            r.set(name, 0.0);
        }
        let v = exacoll_json::parse(&r.result_line(PER_LAYER).unwrap()).unwrap();
        assert!(!v.req("correct").unwrap().as_bool().unwrap());
        assert_eq!(v.req("failed").unwrap().as_f64().unwrap(), 1.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(1e-9), "0.000000001");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// The catalogues here and the metric lists in `BENCHMARK.json` name
    /// the same metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = exacoll_json::parse(&text).unwrap();
        for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .req(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.req("name").unwrap().as_str().unwrap().to_string(),
                        m.req("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = cat
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
