//! Network accounting — the communication-side counterpart
//! of `simio`'s disk accounting.

use crate::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared message counters, split by locality. Sends between filter
/// instances placed on the same node are memory copies (DataCutter
/// semantics); everything else would have crossed the cluster network.
#[derive(Debug, Default)]
pub struct NetStats {
    local_msgs: AtomicU64,
    local_bytes: AtomicU64,
    remote_msgs: AtomicU64,
    remote_bytes: AtomicU64,
}

impl NetStats {
    /// Fresh counters behind an `Arc`.
    pub fn new() -> Arc<NetStats> {
        Arc::new(NetStats::default())
    }

    /// Records one message from node `src` to node `dst`. `bytes` is what
    /// the message costs on the wire as reported by the transport
    /// endpoint — the payload for an in-process copy, payload plus frame
    /// header over a socket.
    #[inline]
    pub fn record(&self, src: NodeId, dst: NodeId, bytes: u64) {
        // racecheck: statistics counters — no reader orders memory on them.
        if src == dst {
            self.local_msgs.fetch_add(1, Ordering::Relaxed);
            self.local_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.remote_msgs.fetch_add(1, Ordering::Relaxed);
            self.remote_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> NetSnapshot {
        // racecheck: approximate snapshot of statistics counters.
        NetSnapshot {
            local_msgs: self.local_msgs.load(Ordering::Relaxed),
            local_bytes: self.local_bytes.load(Ordering::Relaxed),
            remote_msgs: self.remote_msgs.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`NetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Messages between co-located instances.
    pub local_msgs: u64,
    /// Bytes between co-located instances.
    pub local_bytes: u64,
    /// Messages that crossed nodes.
    pub remote_msgs: u64,
    /// Bytes that crossed nodes.
    pub remote_bytes: u64,
}

impl NetSnapshot {
    /// Counter deltas since `earlier`. Saturating, like `IoSnapshot::since`:
    /// if counters were reset between snapshots the delta clamps to zero
    /// instead of panicking in debug builds.
    pub fn since(&self, earlier: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            local_msgs: self.local_msgs.saturating_sub(earlier.local_msgs),
            local_bytes: self.local_bytes.saturating_sub(earlier.local_bytes),
            remote_msgs: self.remote_msgs.saturating_sub(earlier.remote_msgs),
            remote_bytes: self.remote_bytes.saturating_sub(earlier.remote_bytes),
        }
    }

    /// Sum of two snapshots — aggregate traffic across simulated nodes,
    /// mirroring `IoSnapshot::merged`.
    pub fn merged(&self, other: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            local_msgs: self.local_msgs + other.local_msgs,
            local_bytes: self.local_bytes + other.local_bytes,
            remote_msgs: self.remote_msgs + other.remote_msgs,
            remote_bytes: self.remote_bytes + other.remote_bytes,
        }
    }

    /// Total messages, regardless of locality.
    pub fn total_msgs(&self) -> u64 {
        self.local_msgs + self.remote_msgs
    }

    /// Total bytes, regardless of locality.
    pub fn total_bytes(&self) -> u64 {
        self.local_bytes + self.remote_bytes
    }
}

impl fmt::Display for NetSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "local_msgs={} local_bytes={} remote_msgs={} remote_bytes={}",
            self.local_msgs, self.local_bytes, self.remote_msgs, self.remote_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_split() {
        let s = NetStats::new();
        s.record(0, 0, 100);
        s.record(0, 1, 200);
        s.record(2, 1, 50);
        let snap = s.snapshot();
        assert_eq!(snap.local_msgs, 1);
        assert_eq!(snap.local_bytes, 100);
        assert_eq!(snap.remote_msgs, 2);
        assert_eq!(snap.remote_bytes, 250);
    }

    #[test]
    fn since_subtracts() {
        let s = NetStats::new();
        s.record(0, 1, 10);
        let a = s.snapshot();
        s.record(0, 1, 20);
        let d = s.snapshot().since(&a);
        assert_eq!(d.remote_msgs, 1);
        assert_eq!(d.remote_bytes, 20);
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        // A later snapshot from reset counters must clamp to zero, not
        // underflow.
        let high = NetSnapshot {
            local_msgs: 5,
            local_bytes: 50,
            remote_msgs: 7,
            remote_bytes: 70,
        };
        let fresh = NetSnapshot::default();
        let d = fresh.since(&high);
        assert_eq!(d, NetSnapshot::default());
    }

    #[test]
    fn merged_sums_all_fields() {
        let a = NetSnapshot {
            local_msgs: 1,
            local_bytes: 10,
            remote_msgs: 2,
            remote_bytes: 20,
        };
        let b = NetSnapshot {
            local_msgs: 3,
            local_bytes: 30,
            remote_msgs: 4,
            remote_bytes: 40,
        };
        let m = a.merged(&b);
        assert_eq!(m.local_msgs, 4);
        assert_eq!(m.local_bytes, 40);
        assert_eq!(m.remote_msgs, 6);
        assert_eq!(m.remote_bytes, 60);
        assert_eq!(m.total_msgs(), 10);
        assert_eq!(m.total_bytes(), 100);
    }

    #[test]
    fn display_mirrors_io_snapshot_style() {
        let s = NetSnapshot {
            local_msgs: 1,
            local_bytes: 2,
            remote_msgs: 3,
            remote_bytes: 4,
        };
        assert_eq!(
            s.to_string(),
            "local_msgs=1 local_bytes=2 remote_msgs=3 remote_bytes=4"
        );
    }
}
