//! Structured diagnostics from the filter-graph verifier.
//!
//! `datacutter`'s verifier (see `crates/datacutter/src/verify.rs`)
//! analyzes a graph's topology before launch: port wiring, copy-count
//! consistency, and bounded-buffer deadlock freedom via credit-flow
//! analysis over cycles. Its findings are values of [`VerifyError`] so
//! callers can match on the defect class instead of parsing prose; the
//! runtime surfaces them as `GraphStorageError::Verify`.

use std::fmt;

/// A defect found by static verification of a filter graph.
///
/// Each variant names the offending filters/ports, so a diagnostic can
/// be traced straight back to the `GraphBuilder` call that introduced
/// it. `Display` renders a one-line human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Two filters were registered under the same name.
    DuplicateFilter {
        /// The name used twice.
        filter: String,
    },
    /// A filter was declared with zero transparent copies.
    EmptyPlacement {
        /// The copyless filter.
        filter: String,
    },
    /// The exact same stream edge (same endpoints and ports) was
    /// connected twice.
    DuplicateStream {
        /// Producing filter.
        from: String,
        /// Producer's port.
        out_port: String,
        /// Consuming filter.
        to: String,
        /// Consumer's port.
        in_port: String,
    },
    /// One output port was wired to two different destinations (a
    /// stream fans out by consumer copies, not by re-connecting the
    /// port).
    OutPortConflict {
        /// Producing filter.
        filter: String,
        /// The port connected twice.
        out_port: String,
        /// Destination of the first connection, as `filter.port`.
        first: String,
        /// Destination of the offending second connection.
        second: String,
    },
    /// A filter declared an input port that no stream feeds.
    UnconnectedInPort {
        /// The filter whose declaration is unmet.
        filter: String,
        /// The dangling input port.
        port: String,
    },
    /// A filter declared an output port that no stream consumes.
    UnconnectedOutPort {
        /// The filter whose declaration is unmet.
        filter: String,
        /// The dangling output port.
        port: String,
    },
    /// A stream references a port the filter did not declare (only
    /// raised for filters that opted into port declarations).
    UndeclaredPort {
        /// The filter with the declaration mismatch.
        filter: String,
        /// The undeclared port named by a stream.
        port: String,
        /// `true` if the port was used as an input.
        input: bool,
    },
    /// A producer declared how many consumer copies an output port
    /// expects (its decluster contract), and the wired consumer has a
    /// different copy count.
    ConsumerMismatch {
        /// Producing filter.
        filter: String,
        /// The output port with the contract.
        out_port: String,
        /// Copies the producer addresses.
        expected: usize,
        /// Copies actually wired.
        actual: usize,
    },
    /// A cycle of bounded streams whose total buffer credit is smaller
    /// than the producers' in-flight window: some interleaving fills
    /// every buffer and blocks every filter on `send` — a guaranteed
    /// deadlock candidate that no schedule can be trusted to avoid.
    CapacityStarvedCycle {
        /// The cycle's stream edges, each rendered `from.out -> to.in`.
        cycle: Vec<String>,
        /// Total buffered messages the cycle can absorb.
        credit: u64,
        /// Messages the cycle's filters may have in flight before
        /// blocking on a receive.
        window: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DuplicateFilter { filter } => {
                write!(f, "duplicate filter name {filter:?}")
            }
            VerifyError::EmptyPlacement { filter } => {
                write!(f, "filter {filter:?} has an empty placement (zero copies)")
            }
            VerifyError::DuplicateStream {
                from,
                out_port,
                to,
                in_port,
            } => write!(
                f,
                "stream {from}.{out_port} -> {to}.{in_port} connected twice"
            ),
            VerifyError::OutPortConflict {
                filter,
                out_port,
                first,
                second,
            } => write!(
                f,
                "output port {filter}.{out_port} wired to both {first} and {second}"
            ),
            VerifyError::UnconnectedInPort { filter, port } => {
                write!(f, "declared input port {filter}.{port} is not connected")
            }
            VerifyError::UnconnectedOutPort { filter, port } => {
                write!(f, "declared output port {filter}.{port} is not connected")
            }
            VerifyError::UndeclaredPort {
                filter,
                port,
                input,
            } => write!(
                f,
                "stream uses undeclared {} port {filter}.{port}",
                if *input { "input" } else { "output" }
            ),
            VerifyError::ConsumerMismatch {
                filter,
                out_port,
                expected,
                actual,
            } => write!(
                f,
                "output port {filter}.{out_port} addresses {expected} consumer \
                 copies but {actual} are wired"
            ),
            VerifyError::CapacityStarvedCycle {
                cycle,
                credit,
                window,
            } => write!(
                f,
                "capacity-starved cycle [{}]: buffer credit {credit} < in-flight \
                 window {window}; raise channel capacity or lower the send window",
                cycle.join(", ")
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cycle() {
        let e = VerifyError::CapacityStarvedCycle {
            cycle: vec!["a.out -> b.in".into(), "b.out -> a.in".into()],
            credit: 2,
            window: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("a.out -> b.in"), "{msg}");
        assert!(msg.contains("credit 2"), "{msg}");
        assert!(msg.contains("window 4"), "{msg}");
    }

    #[test]
    fn display_names_ports() {
        let e = VerifyError::UnconnectedInPort {
            filter: "bfs".into(),
            port: "peers".into(),
        };
        assert!(e.to_string().contains("bfs.peers"));
        let e = VerifyError::ConsumerMismatch {
            filter: "ingest".into(),
            out_port: "batches".into(),
            expected: 4,
            actual: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("ingest.batches") && msg.contains('4') && msg.contains('2'));
    }
}
