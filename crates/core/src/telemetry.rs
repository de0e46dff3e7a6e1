//! Unified per-run telemetry: one report type folding wall-clock time,
//! disk traffic ([`IoSnapshot`]), message traffic ([`NetSnapshot`]),
//! per-filter-copy time breakdowns, and the metrics-registry snapshot.
//!
//! Every service run (ingestion, BFS, components, MSF, degrees) returns
//! one of these instead of an ad-hoc `(elapsed, net, io)` tuple, so
//! experiment drivers can print, diff, and merge observations uniformly.

use datacutter::{FaultEvent, FaultKind, FilterTiming, NetSnapshot, RunReport};
use mssg_obs::MetricsSnapshot;
use simio::IoSnapshot;
use std::fmt;
use std::time::Duration;

/// Everything observable about one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct TelemetryReport {
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Disk traffic during the run (all nodes merged).
    pub io: IoSnapshot,
    /// Message traffic during the run.
    pub net: NetSnapshot,
    /// Per-filter-copy busy/blocked breakdown.
    pub filters: Vec<FilterTiming>,
    /// Metrics-registry snapshot (queue depths, service counters, …).
    /// A search's is empty unless the cluster's
    /// [`Telemetry`](mssg_obs::Telemetry) is enabled; an ingest's is always
    /// taken, since `resume` reports its skipped windows there.
    pub metrics: MetricsSnapshot,
    /// Injected faults that fired during the run (chaos testing only).
    pub faults: Vec<FaultEvent<FaultKind>>,
}

impl TelemetryReport {
    /// Folds a substrate [`RunReport`] with the run's disk-I/O delta and
    /// metrics snapshot.
    pub fn from_run(run: RunReport, io: IoSnapshot, metrics: MetricsSnapshot) -> TelemetryReport {
        TelemetryReport {
            elapsed: run.elapsed,
            io,
            net: run.net,
            filters: run.filters,
            metrics,
            faults: run.faults,
        }
    }

    /// Breakdown rows for the filter named `name`, across its copies.
    pub fn filter(&self, name: &str) -> Vec<&FilterTiming> {
        self.filters.iter().filter(|t| t.filter == name).collect()
    }
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "elapsed: {:?}", self.elapsed)?;
        writeln!(f, "io:  {}", self.io)?;
        writeln!(f, "net: {}", self.net)?;
        for t in &self.filters {
            writeln!(
                f,
                "filter {}[{}]@node{}: total={:?} busy={:?} \
                 blocked_recv={:?} blocked_send={:?}",
                t.filter,
                t.copy,
                t.node,
                t.total,
                t.busy(),
                t.blocked_recv,
                t.blocked_send
            )?;
        }
        for e in &self.faults {
            writeln!(f, "fault {} at op {}: {:?}", e.site, e.at, e.kind)?;
        }
        if !self.metrics.is_empty() {
            write!(f, "{}", self.metrics)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_run_carries_all_parts() {
        let run = RunReport {
            elapsed: Duration::from_millis(5),
            net: NetSnapshot {
                local_msgs: 2,
                ..Default::default()
            },
            filters: vec![FilterTiming {
                filter: "f".into(),
                copy: 0,
                node: 3,
                total: Duration::from_millis(4),
                blocked_recv: Duration::from_millis(1),
                blocked_send: Duration::from_millis(1),
            }],
            faults: Vec::new(),
        };
        let report = TelemetryReport::from_run(
            run,
            IoSnapshot {
                block_reads: 7,
                ..Default::default()
            },
            MetricsSnapshot::default(),
        );
        assert_eq!(report.elapsed, Duration::from_millis(5));
        assert_eq!(report.io.block_reads, 7);
        assert_eq!(report.net.local_msgs, 2);
        assert_eq!(report.filter("f").len(), 1);
        assert!(report.filter("missing").is_empty());
    }

    #[test]
    fn display_lists_every_section() {
        let mut report = TelemetryReport::default();
        report.filters.push(FilterTiming {
            filter: "ingest".into(),
            copy: 1,
            node: 2,
            total: Duration::from_secs(1),
            blocked_recv: Duration::ZERO,
            blocked_send: Duration::ZERO,
        });
        let s = report.to_string();
        assert!(s.contains("elapsed:"), "{s}");
        assert!(s.contains("io:"), "{s}");
        assert!(s.contains("net:"), "{s}");
        assert!(s.contains("ingest[1]@node2"), "{s}");
    }
}
