//! Error types for the GraphDB service layer.
//!
//! The prototype's Java interface (thesis Listing 3.1) throws a single
//! `GraphStorageException` from every method; here we refine it into an enum
//! so callers can distinguish I/O failures from logical misuse, while the
//! blanket `From<io::Error>` keeps storage-engine code terse.

use std::fmt;
use std::io;

/// Convenience alias used across the storage crates.
pub type Result<T, E = GraphStorageError> = std::result::Result<T, E>;

/// Errors raised by GraphDB service implementations.
#[derive(Debug)]
pub enum GraphStorageError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The store's on-disk data failed a consistency check (bad magic,
    /// truncated block, broken level pointer, …).
    Corrupt(String),
    /// The caller asked for a vertex the store cannot represent (e.g. a
    /// tagged word where a plain vertex id was required).
    InvalidVertex(String),
    /// The store is full or an internal limit was exceeded.
    CapacityExceeded(String),
    /// The operation is not supported by this backend (e.g. point
    /// adjacency lookups on StreamDB, which only answers batch scans).
    Unsupported(String),
    /// A (mini-)SQL statement failed to parse or execute.
    Query(String),
    /// A stream send/recv exceeded its configured timeout (the runtime's
    /// guard against hangs when a peer filter dies).
    Timeout(String),
    /// A filter copy failed permanently: it panicked (or kept panicking
    /// after its restart budget was spent), or its factory could not
    /// rebuild it.
    FilterFailed(String),
    /// A fault deliberately injected by a `FaultPlan` (chaos testing).
    Fault(String),
    /// The network transport failed: a peer connection was lost, a frame
    /// arrived torn, or a handshake was refused. Raised by `mssg-net`
    /// when logical streams run over real sockets.
    Net(String),
    /// Static verification rejected the filter graph before launch
    /// (bad wiring or a capacity-starved cycle — see
    /// [`VerifyError`](crate::verify::VerifyError)).
    Verify(crate::verify::VerifyError),
    /// A launched node process exited non-zero (or was killed). Carries
    /// the worker's exit code so a launcher can propagate it as its own
    /// instead of collapsing every child failure to a generic status.
    NodeFailed {
        /// Index of the node whose process failed.
        node: usize,
        /// The process exit code; `None` when killed by a signal.
        code: Option<i32>,
        /// The node's own error report, when it printed one.
        detail: String,
    },
}

impl fmt::Display for GraphStorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphStorageError::Io(e) => write!(f, "graph storage I/O error: {e}"),
            GraphStorageError::Corrupt(m) => write!(f, "graph storage corrupt: {m}"),
            GraphStorageError::InvalidVertex(m) => write!(f, "invalid vertex: {m}"),
            GraphStorageError::CapacityExceeded(m) => write!(f, "capacity exceeded: {m}"),
            GraphStorageError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            GraphStorageError::Query(m) => write!(f, "query error: {m}"),
            GraphStorageError::Timeout(m) => write!(f, "timed out: {m}"),
            GraphStorageError::FilterFailed(m) => write!(f, "filter failed: {m}"),
            GraphStorageError::Fault(m) => write!(f, "injected fault: {m}"),
            GraphStorageError::Net(m) => write!(f, "network transport: {m}"),
            GraphStorageError::Verify(e) => write!(f, "graph verification failed: {e}"),
            GraphStorageError::NodeFailed { node, code, detail } => match code {
                Some(code) => write!(f, "node {node} failed (exit code {code}): {detail}"),
                None => write!(f, "node {node} failed (killed by signal): {detail}"),
            },
        }
    }
}

impl std::error::Error for GraphStorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphStorageError::Io(e) => Some(e),
            GraphStorageError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphStorageError {
    fn from(e: io::Error) -> Self {
        GraphStorageError::Io(e)
    }
}

impl From<crate::ontology::OntologyError> for GraphStorageError {
    fn from(e: crate::ontology::OntologyError) -> Self {
        GraphStorageError::InvalidVertex(e.to_string())
    }
}

impl From<crate::verify::VerifyError> for GraphStorageError {
    fn from(e: crate::verify::VerifyError) -> Self {
        GraphStorageError::Verify(e)
    }
}

impl GraphStorageError {
    /// Builds a [`GraphStorageError::Corrupt`] with a formatted message.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        GraphStorageError::Corrupt(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = GraphStorageError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let e = GraphStorageError::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn io_errors_keep_source() {
        use std::error::Error as _;
        let e = GraphStorageError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(GraphStorageError::corrupt("x").source().is_none());
    }

    #[test]
    fn node_failed_reports_the_exit_code() {
        let e = GraphStorageError::NodeFailed {
            node: 2,
            code: Some(7),
            detail: "store wedged".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("node 2") && msg.contains("exit code 7"),
            "{msg}"
        );
        let killed = GraphStorageError::NodeFailed {
            node: 0,
            code: None,
            detail: "no error report".into(),
        };
        assert!(killed.to_string().contains("signal"), "{killed}");
    }

    #[test]
    fn verify_errors_keep_structure() {
        use crate::verify::VerifyError;
        let e = GraphStorageError::from(VerifyError::UnconnectedInPort {
            filter: "bfs".into(),
            port: "peers".into(),
        });
        assert!(e.to_string().contains("bfs.peers"));
        use std::error::Error as _;
        assert!(e.source().is_some(), "structured cause is preserved");
    }

    #[test]
    fn fault_tolerance_variants_display() {
        let t = GraphStorageError::Timeout("recv on \"peers\" after 2s".into());
        assert!(t.to_string().contains("timed out"));
        let f = GraphStorageError::FilterFailed("filter store.1 panicked".into());
        assert!(f.to_string().contains("panicked"));
        let i = GraphStorageError::Fault("send error on batches".into());
        assert!(i.to_string().contains("injected fault"));
        let n = GraphStorageError::Net("connection to node 1 lost".into());
        assert!(n.to_string().contains("network transport"));
    }
}
