//! The simulated MSSG cluster.
//!
//! A cluster is `p` back-end logical nodes (threads when a service is
//! running), each owning one GraphDB instance rooted in its own directory —
//! its "local disk" — plus per-node I/O statistics. Nothing is shared
//! between nodes except messages, mirroring the distributed-memory target
//! (DESIGN.md §2).

use crate::backend::{open_backend, BackendKind, BackendOptions};
use crate::decluster::{DeclusterKind, Declustering};
use crate::epoch::EpochManager;
use crate::query::HopScratch;
use crate::superstep::Engines;
use crate::telemetry::TelemetryReport;
use datacutter::RunReport;
use graphdb::GraphDb;
use mssg_obs::{MetricsSnapshot, Telemetry};
use mssg_types::Result;
use parking_lot::Mutex;
use simio::{IoSnapshot, IoStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A back-end node's GraphDB, shareable with the filter threads that run
/// services over it. Only the filter placed on the owning node touches it
/// during a run; the mutex makes that safe, not concurrent.
pub type SharedBackend = Arc<Mutex<Box<dyn GraphDb + Send>>>;

/// One node's ingest checkpoint: job state of the latest stream, kept
/// beside the node's GraphDB rather than in it, and in memory only — a
/// reopened cluster starts without one.
#[derive(Debug, Default)]
pub(crate) struct Checkpoint {
    /// How many windows of the latest stream, from window 0, are durably
    /// stored on the node. Stores apply windows in ascending id order, so
    /// a node's durable windows are always such a prefix.
    pub(crate) watermark: u64,
    /// The window size the latest stream was cut into; `None` until a
    /// stream starts. A resume must cut the stream the same way, or the
    /// watermark counts other windows.
    pub(crate) window: Option<usize>,
}

/// The MSSG cluster: back-end storage nodes and their databases.
pub struct MssgCluster {
    /// Idle resident engines the analyses run on (`superstep`). Declared
    /// first, so a dropped cluster stops them before its backends go.
    pub(crate) engines: Engines,
    /// Idle scratch of the front end's k-hop expansions (`query::k_hop`).
    pub(crate) hops: Mutex<Vec<HopScratch>>,
    backends: Vec<SharedBackend>,
    /// Each node's ingest checkpoint, shared with the store copy that
    /// advances it (`ingest`).
    pub(crate) checkpoints: Vec<Arc<Mutex<Checkpoint>>>,
    stats: Vec<Arc<IoStats>>,
    kind: BackendKind,
    dir: PathBuf,
    /// Where every vertex and entry lives: fixed by the first ingest into
    /// the empty cluster, continued by every later one (`ingest`).
    pub(crate) placement: Declustering,
    /// Telemetry bundle handed to every service run over this cluster.
    telemetry: Telemetry,
    /// Epoch counter/gate advanced by ingestion at checkpoint boundaries
    /// and pinned by snapshot-consistent queries (DESIGN.md §13).
    epoch: Arc<EpochManager>,
}

impl MssgCluster {
    /// Creates a cluster of `nodes` back-ends with `kind` storage, rooted
    /// at `dir/node-<i>/`.
    pub fn new(
        dir: &Path,
        nodes: usize,
        kind: BackendKind,
        options: &BackendOptions,
    ) -> Result<MssgCluster> {
        assert!(nodes > 0, "cluster needs at least one back-end node");
        let mut backends = Vec::with_capacity(nodes);
        let mut stats = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let node_stats = IoStats::new();
            let db = open_backend(
                kind,
                &dir.join(format!("node-{i}")),
                options,
                Arc::clone(&node_stats),
            )?;
            backends.push(Arc::new(Mutex::new(db)));
            stats.push(node_stats);
        }
        Ok(MssgCluster {
            engines: Engines::new(),
            hops: Mutex::new(Vec::new()),
            backends,
            checkpoints: (0..nodes).map(|_| Arc::default()).collect(),
            stats,
            kind,
            dir: dir.to_path_buf(),
            placement: Declustering::new(DeclusterKind::default(), nodes),
            telemetry: Telemetry::disabled(),
            epoch: Arc::new(EpochManager::new()),
        })
    }

    /// Attaches a telemetry bundle: every subsequent service run (ingest,
    /// BFS, components, …) emits spans into its tracer and records metrics
    /// into its registry. Disabled by default. Idle engines, which carry
    /// the old bundle, are stopped; the next analysis starts one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.engines.shut_down();
        self.telemetry = telemetry;
    }

    /// The cluster's telemetry bundle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The cluster's epoch manager. Ingestion bumps it at window-checkpoint
    /// boundaries; queries that need snapshot consistency pin it. The
    /// `Arc` lets a serving layer hold the gate without borrowing the
    /// cluster itself.
    pub fn epoch_manager(&self) -> &Arc<EpochManager> {
        &self.epoch
    }

    /// The current graph epoch (completed checkpoint boundaries).
    pub fn epoch(&self) -> u64 {
        self.epoch.current()
    }

    /// Folds a search's run report with the cluster's disk-I/O delta since
    /// `io_before` and, if the cluster's telemetry is enabled, a
    /// [`metrics_snapshot`](MssgCluster::metrics_snapshot). A search with
    /// telemetry off locks no backend for it and snapshots nothing.
    pub(crate) fn telemetry_report(
        &self,
        run: RunReport,
        io_before: &simio::IoSnapshot,
    ) -> TelemetryReport {
        let metrics = if self.telemetry.is_enabled() {
            self.metrics_snapshot()
        } else {
            MetricsSnapshot::default()
        };
        TelemetryReport::from_run(run, self.io_snapshot().since(io_before), metrics)
    }

    /// The metrics registry, with the block-cache counters published as
    /// gauges first (cumulative values, `set` rather than `add`, so
    /// repeated service runs stay truthful).
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut cache = (0u64, 0u64, 0u64);
        let mut cached_backend = false;
        for b in &self.backends {
            if let Some((h, m, e)) = b.lock().cache_counters() {
                cached_backend = true;
                cache = (cache.0 + h, cache.1 + m, cache.2 + e);
            }
        }
        let metrics = &self.telemetry.metrics;
        if cached_backend {
            metrics.gauge("grdb.cache.hits").set(cache.0 as i64);
            metrics.gauge("grdb.cache.misses").set(cache.1 as i64);
            metrics.gauge("grdb.cache.evictions").set(cache.2 as i64);
        }
        metrics.snapshot()
    }

    /// Number of back-end nodes.
    pub fn nodes(&self) -> usize {
        self.backends.len()
    }

    /// The storage engine in use.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The cluster's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shared handle to node `i`'s backend.
    pub fn backend(&self, i: usize) -> SharedBackend {
        Arc::clone(&self.backends[i])
    }

    /// Runs a closure against node `i`'s backend.
    pub fn with_backend<T>(&self, i: usize, f: impl FnOnce(&mut (dyn GraphDb + Send)) -> T) -> T {
        let mut guard = self.backends[i].lock();
        f(guard.as_mut())
    }

    /// Node `i`'s ingestion watermark — how many windows (from the start
    /// of the latest stream) it has durably stored. The minimum across all
    /// nodes is the prefix a resumed ingestion can skip outright.
    pub fn ingest_watermark(&self, i: usize) -> u64 {
        self.checkpoints[i].lock().watermark
    }

    /// Node `i`'s I/O statistics handle.
    pub fn io_stats(&self, i: usize) -> Arc<IoStats> {
        Arc::clone(&self.stats[i])
    }

    /// Aggregate I/O snapshot across all nodes.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.stats
            .iter()
            .map(|s| s.snapshot())
            .fold(IoSnapshot::default(), |acc, s| acc.merged(&s))
    }

    /// Resets every node's I/O counters (between experiment phases).
    pub fn reset_io(&self) {
        for s in &self.stats {
            s.reset();
        }
    }

    /// Flushes every backend to disk.
    pub fn flush_all(&self) -> Result<()> {
        for b in &self.backends {
            b.lock().flush()?;
        }
        Ok(())
    }

    /// Total directed adjacency entries stored across the cluster.
    pub fn total_entries(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.lock().stored_entries())
            .sum()
    }

    /// Which node holds each vertex's adjacency: the one placement ingest
    /// assigns from and BFS and components route by. A new cluster is placed
    /// by `VertexHash` — also one reopened over stored data, since the
    /// placement is not written to the nodes' disks.
    pub fn placement(&self) -> &Declustering {
        &self.placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssg_types::{Edge, Gid};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("core-cluster-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn nodes_have_independent_storage() {
        let dir = tmpdir("indep");
        let cluster =
            MssgCluster::new(&dir, 3, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        cluster.with_backend(0, |db| db.store_edges(&[Edge::of(1, 2)]).unwrap());
        cluster.with_backend(1, |db| db.store_edges(&[Edge::of(1, 3)]).unwrap());
        // Node 2 knows nothing about vertex 1.
        let n2 = cluster.with_backend(2, |db| {
            use graphdb::GraphDbExt;
            db.neighbors(Gid::new(1)).unwrap()
        });
        assert!(n2.is_empty());
        assert_eq!(cluster.total_entries(), 2);
    }

    #[test]
    fn per_node_directories() {
        let dir = tmpdir("dirs");
        let _cluster =
            MssgCluster::new(&dir, 2, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        assert!(dir.join("node-0").join("grdb").exists());
        assert!(dir.join("node-1").join("grdb").exists());
    }

    #[test]
    fn io_snapshot_aggregates() {
        let dir = tmpdir("io");
        let cluster =
            MssgCluster::new(&dir, 2, BackendKind::StreamDb, &BackendOptions::default()).unwrap();
        cluster.with_backend(0, |db| {
            db.store_edges(&[Edge::of(0, 1)]).unwrap();
            db.flush().unwrap();
        });
        cluster.with_backend(1, |db| {
            db.store_edges(&[Edge::of(2, 3)]).unwrap();
            db.flush().unwrap();
        });
        let snap = cluster.io_snapshot();
        assert_eq!(snap.bytes_written, 32);
        cluster.reset_io();
        assert_eq!(cluster.io_snapshot().bytes_written, 0);
    }
}
