//! Central registry of metric and span names used across MSSG crates.
//!
//! The `metric-names` xtask lint checks every literal `counter("…")` /
//! `gauge("…")` / `histogram("…")` / `span("…")` call in non-test code
//! against this file, so a typo in a metric name fails the build instead
//! of silently forking a time series. Names built dynamically (with
//! `format!`) cannot be checked literally; their prefixes are listed in
//! [`DYNAMIC_PREFIXES`] for documentation.

/// Counter names.
pub const COUNTERS: &[&str] = &[
    "dc.faults_injected",
    "ingest.windows",
    "ingest.windows_skipped",
    "net.bytes",
    "net.credit_stalls",
    "net.frames",
    "net.heartbeats",
    "net.telemetry_reports",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.overloaded",
    "serve.requests",
    "sim.bytes",
    "sim.faults",
    "sim.frames",
];

/// Gauge names.
pub const GAUGES: &[&str] = &[
    "grdb.cache.evictions",
    "grdb.cache.hits",
    "grdb.cache.misses",
    "serve.clients",
    "serve.inflight",
];

/// Histogram names.
pub const HISTOGRAMS: &[&str] = &["ingest.window_edges", "serve.latency_us", "serve.queue_us"];

/// Span names.
pub const SPANS: &[&str] = &[
    "bfs.level",
    "bfs.round",
    "filter.run",
    "ingest.shard",
    "ingest.window",
    "net.connect",
    "net.handshake",
    "net.telemetry_ship",
    "serve.execute",
    "superstep.job",
];

/// Prefixes of dynamically constructed names (the lint cannot check
/// these; they are documented here).
pub const DYNAMIC_PREFIXES: &[&str] = &["dc.queue_depth."];

/// `true` if `name` appears in any of the registries above.
pub fn is_registered(name: &str) -> bool {
    COUNTERS.contains(&name)
        || GAUGES.contains(&name)
        || HISTOGRAMS.contains(&name)
        || SPANS.contains(&name)
        || DYNAMIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_sorted_and_unique() {
        for list in [COUNTERS, GAUGES, HISTOGRAMS, SPANS] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(list, &sorted[..], "registry lists stay sorted and unique");
        }
    }

    #[test]
    fn lookup_covers_dynamic_prefixes() {
        assert!(is_registered("net.bytes"));
        assert!(is_registered("dc.queue_depth.store.edges"));
        assert!(!is_registered("net.bytez"));
    }
}
