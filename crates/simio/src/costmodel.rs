//! Disk cost model.
//!
//! The paper's experiments ran on software-RAID0 SATA disks where a random
//! block access pays a multi-millisecond seek and sequential transfer runs
//! at ~50 MB/s (the thesis' own back-of-envelope number in chapter 1). A
//! modern NVMe device plus OS page cache erases those costs, flattening the
//! differences between storage layouts that the paper measures. The
//! [`DiskCostModel`] converts an [`IoSnapshot`] into
//! *modeled I/O time* so figure-reproduction harnesses can report results on
//! the paper's terms.

use crate::stats::IoSnapshot;
use std::time::Duration;

/// A two-parameter disk model: fixed cost per seek, linear cost per byte.
///
/// `modeled_time = seeks × seek_latency + bytes × (1 / bandwidth)`
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskCostModel {
    /// Latency charged per non-sequential access.
    pub seek_latency: Duration,
    /// Sustained transfer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl DiskCostModel {
    /// A 2006-era SATA disk behind software RAID0, matching the thesis'
    /// evaluation hardware: ~8 ms average seek, ~50 MB/s sustained transfer.
    pub fn sata_2006() -> DiskCostModel {
        DiskCostModel {
            seek_latency: Duration::from_micros(8000),
            bandwidth_bytes_per_sec: 50.0 * 1024.0 * 1024.0,
        }
    }

    /// A model with zero costs; modeled time is always zero. Useful to turn
    /// the model off without changing harness code.
    pub fn free() -> DiskCostModel {
        DiskCostModel {
            seek_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Total modeled time for an interval of I/O activity.
    pub fn modeled_time(&self, io: &IoSnapshot) -> Duration {
        let bytes = io.bytes_read + io.bytes_written;
        let transfer = if self.bandwidth_bytes_per_sec.is_finite() {
            Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
        } else {
            Duration::ZERO
        };
        self.seek_latency * u32::try_from(io.seeks).unwrap_or(u32::MAX) + transfer
    }
}

impl Default for DiskCostModel {
    fn default() -> Self {
        DiskCostModel::sata_2006()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_is_zero() {
        let m = DiskCostModel::free();
        let io = IoSnapshot {
            bytes_read: 1 << 30,
            seeks: 1_000_000,
            ..Default::default()
        };
        assert_eq!(m.modeled_time(&io), Duration::ZERO);
    }

    #[test]
    fn seeks_dominate_small_random_io() {
        let m = DiskCostModel::sata_2006();
        // 1000 random 4 KB reads: ~8 s of seeks vs ~0.08 s of transfer.
        let io = IoSnapshot {
            block_reads: 1000,
            bytes_read: 1000 * 4096,
            seeks: 1000,
            ..Default::default()
        };
        let t = m.modeled_time(&io);
        assert!(t >= Duration::from_secs(8), "got {t:?}");
        assert!(t < Duration::from_secs(9), "got {t:?}");
    }

    #[test]
    fn sequential_io_pays_only_transfer() {
        let m = DiskCostModel::sata_2006();
        let io = IoSnapshot {
            block_reads: 1000,
            bytes_read: 50 * 1024 * 1024,
            seeks: 0,
            ..Default::default()
        };
        let t = m.modeled_time(&io);
        // 50 MB at 50 MB/s ≈ 1 s.
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01, "got {t:?}");
    }
}
