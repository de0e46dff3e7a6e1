//! The simulated MSSG cluster.
//!
//! A cluster is `p` back-end logical nodes (threads when a service is
//! running), each a [`Node`]: one GraphDB instance rooted in its own
//! directory — its "local disk" — with its ingest checkpoint and its I/O
//! statistics. Nothing is shared between nodes except messages, mirroring
//! the distributed-memory target (DESIGN.md §2).

use crate::backend::{open_backend, BackendKind, BackendOptions};
use crate::decluster::{DeclusterKind, Declustering};
use crate::epoch::EpochManager;
use crate::query::HopScratch;
use crate::superstep::Engines;
use crate::telemetry::TelemetryReport;
use datacutter::superstep::MAX_COPIES;
use datacutter::RunReport;
use graphdb::GraphDb;
use mssg_obs::{MetricsSnapshot, Telemetry};
use mssg_types::{GraphStorageError, Result};
use parking_lot::{Mutex, MutexGuard};
use simio::{IoSnapshot, IoStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A back-end node: its GraphDB, its ingest checkpoint, its disk-I/O
/// statistics and its directory. Every filter copy placed on the node — an
/// ingest store copy, a superstep engine copy — holds it by `Arc` and
/// reaches the node's state only through it. Every reader and writer of
/// the GraphDB — those copies, and the front end's reads — takes its lock.
pub struct Node {
    db: Mutex<Box<dyn GraphDb + Send>>,
    /// Advanced by the node's store copy (`ingest`).
    pub(crate) checkpoint: Mutex<Checkpoint>,
    /// Every disk access of the node's GraphDB and its copies' files.
    pub(crate) stats: Arc<IoStats>,
    /// Its local disk: its GraphDB's files, and its copies' scratch files
    /// under `scratch/`.
    pub(crate) dir: PathBuf,
}

impl Node {
    /// Opens a node of `kind` storage rooted at `dir`: the only code that
    /// opens a node's files.
    pub fn open(dir: &Path, kind: BackendKind, options: &BackendOptions) -> Result<Node> {
        let stats = IoStats::new();
        let db = open_backend(kind, dir, options, Arc::clone(&stats))?;
        Ok(Node {
            db: Mutex::new(db),
            checkpoint: Mutex::default(),
            stats,
            dir: dir.to_path_buf(),
        })
    }

    /// The node's GraphDB, locked.
    pub fn db(&self) -> MutexGuard<'_, Box<dyn GraphDb + Send>> {
        self.db.lock()
    }
}

/// The MSSG cluster: back-end storage nodes and their databases.
pub struct MssgCluster {
    /// Idle resident engines the analyses run on (`superstep`). Declared
    /// first, so a dropped cluster stops them before its backends go.
    pub(crate) engines: Engines,
    /// Idle scratch of the front end's k-hop expansions (`query::k_hop`).
    pub(crate) hops: Mutex<Vec<HopScratch>>,
    /// The back-end nodes, shared with the copies placed on them.
    pub(crate) members: Vec<Arc<Node>>,
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
    /// at `dir/node-<i>/`. A count outside `1..=MAX_COPIES` — more than a
    /// superstep program runs on — is `Unsupported`, before any node opens.
    pub fn new(
        dir: &Path,
        nodes: usize,
        kind: BackendKind,
        options: &BackendOptions,
    ) -> Result<MssgCluster> {
        if !(1..=MAX_COPIES).contains(&nodes) {
            return Err(GraphStorageError::Unsupported(format!(
                "a cluster of {nodes} back-end nodes (a superstep program runs on 1 to {MAX_COPIES})"
            )));
        }
        let members = (0..nodes)
            .map(|i| Node::open(&dir.join(format!("node-{i}")), kind, options).map(Arc::new))
            .collect::<Result<_>>()?;
        Ok(MssgCluster {
            engines: Engines::new(),
            hops: Mutex::new(Vec::new()),
            members,
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
        for node in &self.members {
            if let Some((h, m, e)) = node.db().cache_counters() {
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
        self.members.len()
    }

    /// The storage engine in use.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The cluster's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Runs a closure against node `i`'s backend.
    pub fn with_backend<T>(&self, i: usize, f: impl FnOnce(&mut (dyn GraphDb + Send)) -> T) -> T {
        f(self.members[i].db().as_mut())
    }

    /// Node `i`'s ingestion watermark — how many windows (from the start
    /// of the latest stream) it has durably stored. The minimum across all
    /// nodes is the prefix a resumed ingestion can skip outright.
    pub fn ingest_watermark(&self, i: usize) -> u64 {
        self.members[i].checkpoint.lock().watermark
    }

    /// Aggregate I/O snapshot across all nodes.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.members
            .iter()
            .map(|node| node.stats.snapshot())
            .fold(IoSnapshot::default(), |acc, s| acc.merged(&s))
    }

    /// Resets every node's I/O counters (between experiment phases).
    pub fn reset_io(&self) {
        for node in &self.members {
            node.stats.reset();
        }
    }

    /// Flushes every backend to disk.
    pub fn flush_all(&self) -> Result<()> {
        for node in &self.members {
            node.db().flush()?;
        }
        Ok(())
    }

    /// Total directed adjacency entries stored across the cluster.
    pub fn total_entries(&self) -> u64 {
        self.members
            .iter()
            .map(|node| node.db().stored_entries())
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

    impl Node {
        /// A node over `db`, with `like`'s statistics and directory.
        pub(crate) fn beside(like: &Node, db: Box<dyn GraphDb + Send>) -> Node {
            Node {
                db: Mutex::new(db),
                checkpoint: Mutex::default(),
                stats: Arc::clone(&like.stats),
                dir: like.dir.clone(),
            }
        }
    }

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
    fn node_counts_past_the_engines_bound_open_nothing() {
        let dir = tmpdir("bounds");
        for nodes in [0, MAX_COPIES + 1] {
            let cluster =
                MssgCluster::new(&dir, nodes, BackendKind::Grdb, &BackendOptions::default());
            let refused = matches!(cluster, Err(GraphStorageError::Unsupported(_)));
            assert!(refused && !dir.exists(), "{nodes} nodes");
        }
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
