//! I/O accounting.
//!
//! Every storage engine in the workspace threads an `Arc<IoStats>` through
//! its file layer. Counters are atomic so a multi-threaded harness (one
//! thread per simulated cluster node) can share a single sink or keep one
//! per node, as the experiment requires.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
///
/// All counters use relaxed ordering: they are statistics, not
/// synchronisation. Snapshots taken while I/O is in flight are approximate,
/// which is fine for benchmarking; quiesce the engine for exact numbers.
#[derive(Debug, Default)]
pub struct IoStats {
    block_reads: AtomicU64,
    block_writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    seeks: AtomicU64,
    syncs: AtomicU64,
}

impl IoStats {
    /// Creates a fresh, zeroed counter set behind an `Arc`.
    pub fn new() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Records one block read of `bytes` bytes.
    #[inline]
    pub fn record_read(&self, bytes: u64) {
        // racecheck: statistics counter — no reader orders memory on it.
        self.block_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one block write of `bytes` bytes.
    #[inline]
    pub fn record_write(&self, bytes: u64) {
        // racecheck: statistics counter — no reader orders memory on it.
        self.block_writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one head seek (a non-sequential access).
    #[inline]
    pub fn record_seek(&self) {
        // racecheck: statistics counter — no reader orders memory on it.
        self.seeks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one durability sync.
    #[inline]
    pub fn record_sync(&self) {
        // racecheck: statistics counter — no reader orders memory on it.
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        // racecheck: approximate-by-contract snapshot (see struct docs).
        IoSnapshot {
            block_reads: self.block_reads.load(Ordering::Relaxed),
            block_writes: self.block_writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        // racecheck: statistics counters; callers quiesce I/O before reset.
        self.block_reads.store(0, Ordering::Relaxed);
        self.block_writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`] counters; supports subtraction to
/// measure an interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Number of block-granularity reads.
    pub block_reads: u64,
    /// Number of block-granularity writes.
    pub block_writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of non-sequential accesses (head seeks).
    pub seeks: u64,
    /// Number of durability syncs.
    pub syncs: u64,
}

impl IoSnapshot {
    /// Counter deltas between two snapshots (`self` taken after `earlier`).
    /// Saturates at zero so a reset between snapshots doesn't underflow.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.block_reads.saturating_sub(earlier.block_reads),
            block_writes: self.block_writes.saturating_sub(earlier.block_writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            syncs: self.syncs.saturating_sub(earlier.syncs),
        }
    }

    /// Element-wise sum, for aggregating per-node stats across a cluster.
    pub fn merged(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.block_reads + other.block_reads,
            block_writes: self.block_writes + other.block_writes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            seeks: self.seeks + other.seeks,
            syncs: self.syncs + other.syncs,
        }
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} bytes_r={} bytes_w={} seeks={} syncs={}",
            self.block_reads,
            self.block_writes,
            self.bytes_read,
            self.bytes_written,
            self.seeks,
            self.syncs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(4096);
        s.record_read(4096);
        s.record_write(8192);
        s.record_seek();
        s.record_sync();
        let snap = s.snapshot();
        assert_eq!(snap.block_reads, 2);
        assert_eq!(snap.bytes_read, 8192);
        assert_eq!(snap.block_writes, 1);
        assert_eq!(snap.bytes_written, 8192);
        assert_eq!(snap.seeks, 1);
        assert_eq!(snap.syncs, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_read(10);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_computes_interval() {
        let s = IoStats::new();
        s.record_read(100);
        let a = s.snapshot();
        s.record_read(50);
        s.record_write(25);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.block_reads, 1);
        assert_eq!(d.bytes_read, 50);
        assert_eq!(d.block_writes, 1);
    }

    #[test]
    fn since_saturates_after_reset() {
        let s = IoStats::new();
        s.record_read(100);
        let a = s.snapshot();
        s.reset();
        let b = s.snapshot();
        assert_eq!(b.since(&a), IoSnapshot::default());
    }

    #[test]
    fn merged_sums() {
        let a = IoSnapshot {
            block_reads: 1,
            bytes_read: 10,
            ..Default::default()
        };
        let b = IoSnapshot {
            block_reads: 2,
            bytes_read: 20,
            seeks: 3,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.block_reads, 3);
        assert_eq!(m.bytes_read, 30);
        assert_eq!(m.seeks, 3);
    }

    #[test]
    fn shared_across_threads() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_read(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().block_reads, 4000);
    }
}
