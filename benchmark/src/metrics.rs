//! The metric tables — the same names, units and directions as
//! `BENCHMARK.json` (a unit test holds the two together) — and the
//! result line the driver reads.

use crate::stats::Better;
use std::collections::BTreeMap;

/// One row of a metric table.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse before a change is rejected; 0 for per-layer metrics,
    /// which are not gated.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        better: Better::Higher,
        ..lower(name, unit)
    }
}

const fn bounded(m: MetricDef, bound: f64) -> MetricDef {
    MetricDef { bound, ..m }
}

/// What a user of the system sees; measured with tracing off, defined on
/// every workload, never zero.
pub const END_TO_END: &[MetricDef] = &[
    bounded(lower("setup_s", "s"), 0.25),
    bounded(higher("ingest_eps", "edges/s"), 0.25),
    bounded(lower("query_p50_ms", "ms"), 0.25),
    bounded(lower("query_p90_ms", "ms"), 0.25),
    bounded(higher("query_qps", "1/s"), 0.25),
    bounded(lower("peak_rss_mb", "MB"), 0.25),
];

/// Single layers, from the traced run. A workload that bypasses a layer
/// reports 0 for it. README.md maps each to the end-to-end metric it
/// should move.
pub const PER_LAYER: &[MetricDef] = &[
    higher("graphgen.gen_eps", "edges/s"),
    higher("grdb.store_eps", "entries/s"),
    lower("grdb.adj_us", "us"),
    higher("grdb.expand_eps", "entries/s"),
    higher("grdb.cache.hit_ratio", "ratio"),
    lower("grdb.cache.evictions_per_query", "count"),
    lower("grdb.disk_bytes_per_edge", "B"),
    lower("simio.block_reads_per_query", "count"),
    lower("simio.seeks_per_query", "count"),
    lower("simio.block_writes_per_kedge", "count"),
    lower("simio.bytes_written_per_edge", "B"),
    higher("graphdb.store_eps", "entries/s"),
    lower("graphdb.adj_us", "us"),
    lower("dc.run_setup_us", "us"),
    higher("dc.stream_mb_per_s", "MB/s"),
    lower("dc.ingest.source_busy_s", "s"),
    lower("dc.ingest.frontend_busy_s", "s"),
    lower("dc.ingest.store_busy_s", "s"),
    lower("dc.ingest.blocked_send_s", "s"),
    lower("dc.ingest.blocked_recv_s", "s"),
    lower("dc.ingest.msgs", "count"),
    lower("dc.ingest.bytes", "B"),
    higher("dc.bfs.busy_share", "ratio"),
    lower("dc.bfs.blocked_recv_s", "s"),
    lower("dc.bfs.msgs_per_query", "count"),
    lower("dc.bfs.bytes_per_query", "B"),
    higher("core.ingest_vs_store", "ratio"),
    lower("core.bfs_floor_ms", "ms"),
    higher("core.scan_eps", "entries/s"),
    lower("core.edges_scanned_per_query", "count"),
    lower("core.rounds_per_query", "count"),
    lower("core.khop2_ms", "ms"),
    lower("core.epoch.pin_ns", "ns"),
    lower("net.frames", "count"),
    lower("net.bytes", "B"),
    lower("net.credit_stalls", "count"),
    lower("net.bytes_per_edge", "B"),
    higher("net.tcp_over_inproc_ingest", "ratio"),
    lower("net.tcp_over_inproc_bfs", "ratio"),
    lower("net.rep_overhead_ms", "ms"),
    higher("net.wire.codec_mb_per_s", "MB/s"),
    lower("serve.hit_p50_us", "us"),
    lower("serve.miss_p50_ms", "ms"),
    lower("serve.p99_ms", "ms"),
    higher("serve.cache_hit_ratio", "ratio"),
    lower("serve.rejects", "count"),
    lower("serve.overhead_ms", "ms"),
    lower("serve.ingest_gate_ms", "ms"),
    lower("serve.proto.codec_ns", "ns"),
    lower("serve.cache.get_ns", "ns"),
    lower("serve.cache.insert_ns", "ns"),
    lower("serve.admission.cycle_ns", "ns"),
    lower("obs.trace_overhead_pct", "%"),
    lower("host.spin_ms", "ms"),
];

/// Per-layer counts that the program should repeat exactly for one seed;
/// `--spread` reports whether they did.
pub const COUNTS: &[&str] = &[
    "simio.block_reads_per_query",
    "simio.seeks_per_query",
    "simio.block_writes_per_kedge",
    "simio.bytes_written_per_edge",
    "grdb.cache.evictions_per_query",
    "grdb.disk_bytes_per_edge",
    "dc.ingest.msgs",
    "dc.ingest.bytes",
    "dc.bfs.msgs_per_query",
    "dc.bfs.bytes_per_query",
    "core.edges_scanned_per_query",
    "core.rounds_per_query",
    "net.frames",
    "net.bytes",
    "net.credit_stalls",
    "serve.rejects",
];

/// The row of `name` in one of the two tables; a name in neither is a
/// bug in the benchmark.
pub fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is in neither table"))
}

/// Values measured in one run, keyed by metric name.
#[derive(Default, Debug)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    /// Records `value` under `name`, which must be a row of one of the
    /// two tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(def(name).name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operations attempted and failed (error, exhausted retry, or oracle
/// mismatch), with the first few failures kept for the report.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(describe());
            }
        }
    }

    /// Adds another thread's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failures.extend(other.first_failures);
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `table` (0 where the run set none).
pub fn result_line(table: &[MetricDef], measured: &Measured, tally: &Tally) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(measured.get(m.name).unwrap_or(0.0)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    )
}

/// A float as JSON: all its digits, and never `NaN`/`inf`, which JSON
/// cannot carry.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssg_obs::json::{parse, Value};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Measured::default();
        m.set("setup_s", 1.25);
        m.set("ingest_eps", 5e5);
        let mut t = Tally::default();
        t.check(true, String::new);
        let v = parse(&result_line(END_TO_END, &m, &t)).unwrap();
        let Value::Object(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        // Unset metrics are still present.
        assert_eq!(
            metrics["query_qps"].get("value").and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn a_failure_makes_the_line_incorrect() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "mismatch".into());
        let v = parse(&result_line(END_TO_END, &Measured::default(), &t)).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        assert_eq!(t.first_failures, ["mismatch"]);
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
            assert!(m.name.chars().all(|c| ok(c, "_.-")), "{}", m.name);
            assert!(m.unit.chars().all(|c| ok(c, "_/%.-")), "{}", m.unit);
        }
        for c in COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *c), "{c}");
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above, in order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let v = parse(text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = v.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, m) in rows.iter().zip(table) {
                assert_eq!(row.get("name").and_then(Value::as_str), Some(m.name));
                assert_eq!(row.get("unit").and_then(Value::as_str), Some(m.unit));
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    row.get("better").and_then(Value::as_str),
                    Some(better),
                    "{}",
                    m.name
                );
                let bound = row.get("bound").and_then(Value::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
