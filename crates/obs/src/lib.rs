#![warn(missing_docs)]
//! `mssg-obs` — the unified telemetry layer for the MSSG pipeline.
//!
//! Two instruments, one bundle:
//!
//! - [`Tracer`] — lightweight spans (`tracer.span("bfs.level")` returns an
//!   RAII guard) exportable as Chrome trace-event JSON
//!   ([`Tracer::chrome_trace_json`], loadable in `chrome://tracing` /
//!   Perfetto) or a flamegraph-folded dump ([`Tracer::folded`]). Disabled
//!   tracers are free: no allocation, no locking.
//! - [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and
//!   log2-bucketed [`Histogram`]s (queue depths, window latencies, chunk
//!   sizes), snapshotable ([`MetricsSnapshot`]) and mergeable across
//!   simulated cluster nodes like `simio::IoSnapshot::merged`.
//!
//! [`Telemetry`] carries both through the stack; every MSSG layer
//! (DataCutter runtime, ingestion, BFS, the cluster) accepts one and
//! stays silent unless it is enabled.
//!
//! ```
//! use mssg_obs::Telemetry;
//! let t = Telemetry::enabled();
//! {
//!     let _span = t.tracer.span("ingest.window").with("edges", 512);
//!     t.metrics.counter("ingest.windows").inc();
//!     t.metrics.histogram("ingest.window_edges").record(512);
//! }
//! let snap = t.metrics.snapshot();
//! assert_eq!(snap.counters["ingest.windows"], 1);
//! assert!(t.tracer.chrome_trace_json().contains("ingest.window"));
//! ```

pub mod cluster;
pub mod json;
pub mod metrics;
pub mod names;
pub mod span;

pub use cluster::{ClusterTelemetryReport, NodeTelemetry};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{FieldValue, FlowRecord, SpanGuard, SpanRecord, Tracer};

/// The telemetry bundle handed through the pipeline: a span tracer plus a
/// metrics registry. Cloning shares both.
///
/// The default bundle has a *disabled* tracer (spans are free no-ops) and
/// a live metrics registry (atomic counters are cheap enough to always
/// keep on).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Span tracer.
    pub tracer: Tracer,
    /// Metrics registry.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// Disabled tracer + fresh registry (same as `Default`).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Recording tracer + fresh registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            tracer: Tracer::enabled(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// `true` if the tracer records spans.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_on_clone() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        {
            let _g = t2.tracer.span("x");
        }
        t2.metrics.counter("c").inc();
        assert_eq!(t.tracer.span_count(), 1);
        assert_eq!(t.metrics.snapshot().counters["c"], 1);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }
}
