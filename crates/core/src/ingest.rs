//! The Ingestion service (thesis §3.2), as a DataCutter filter graph.
//!
//! ```text
//!  external stream          front-end nodes                back-end nodes
//!  ┌────────┐  windows   ┌───────────────┐  edge batches  ┌───────────┐
//!  │ source │ ─────────> │ ingestion × F │ ─────────────> │ store × P │
//!  └────────┘   (RR)     │  (decluster)  │  (by owner)    │ (GraphDB) │
//!                        └───────────────┘                └───────────┘
//! ```
//!
//! The source models the external data feed: it cuts the incoming edge
//! stream into fixed-size *windows* ("blocks") and deals them round-robin
//! to the front-end ingestion nodes. Each ingestion filter places the two
//! directed entries of every edge in its windows by the cluster's
//! [`Declustering`] and ships per-back-end batches to the store filters,
//! which append them to their local GraphDB instances. Varying the number
//! of front-ends reproduces the Figure 5.3 experiment; varying back-ends,
//! Figure 5.5.
//!
//! The placement is the cluster's, not one call's: the first ingest into an
//! empty cluster fixes its kind, and every later one — a second stream, or
//! a `resume` of a killed run — continues it. `VertexHash` and
//! `EdgeRoundRobin` place an entry by its edge and stream position (window
//! id × `window_edges` + offset), so any front-end can place any window.
//! `VertexRoundRobin` hands each new vertex the next node in stream order;
//! its first-come map lives in the cluster, and it runs on one front-end.
//!
//! There is one distribution path — the round-robin deal above — and one
//! store path (DESIGN.md §10). Each store copy applies windows in
//! ascending id order — with several front-ends windows race to the
//! stores, and a small reorder buffer restores the single-front-end order,
//! so the stored graph is byte-identical for any `front_ends` — and
//! accumulates entries up to the batch size its backend asks for
//! ([`GraphDb::store_batch_entries`](graphdb::GraphDb::store_batch_entries))
//! before each `store_edges` call.

use crate::cluster::{Checkpoint, MssgCluster};
pub use crate::decluster::DeclusterKind;
use crate::decluster::Declustering;
use crate::superstep::DEADLINE;
use crate::telemetry::TelemetryReport;
use datacutter::{DataBuffer, FaultKind, FaultPlan, Filter, FilterContext, GraphBuilder};
use mssg_types::{Edge, GraphStorageError, Ontology, Result, TypedEdge};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Ingestion configuration.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Number of front-end ingestion nodes. The stored graph does not
    /// depend on it: entries are placed by their stream position, and the
    /// stores apply windows in ascending id order. `VertexRoundRobin`
    /// places vertices in stream order and needs exactly one
    /// (`Unsupported` otherwise).
    pub front_ends: usize,
    /// Edges per streaming window (thesis "blocks of a predetermined
    /// size, each of which fits into memory").
    pub window_edges: usize,
    /// The cluster's declustering. The first ingest into an empty cluster
    /// fixes it; naming another on a cluster that stores entries is
    /// `Unsupported`.
    pub declustering: DeclusterKind,
    /// Complete a failed ingestion by replaying its stream: the windows
    /// below each node's watermark are already durably stored there and
    /// are skipped instead of duplicated (counted in the
    /// `ingest.windows_skipped` metric). A `window_edges` other than the
    /// one the failed stream recorded is refused with `Unsupported`
    /// before anything runs, and so is a resume on a reopened cluster:
    /// the watermarks are the cluster's, kept in memory. Replaying the
    /// *same* edge stream is the caller's contract: the cluster cannot
    /// check it. Off by default.
    pub resume: bool,
    /// Deterministic fault plan for chaos testing the pipeline, over the
    /// sites `source.0`, `ingest.{i}` and `store.{i}`.
    pub fault_plan: Option<FaultPlan<FaultKind>>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            front_ends: 1,
            window_edges: 4096,
            declustering: DeclusterKind::VertexHash,
            resume: false,
            fault_plan: None,
        }
    }
}

/// Outcome of an ingestion run.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// Undirected edges ingested.
    pub edges: u64,
    /// Time, traffic, and per-filter breakdown of the run.
    pub telemetry: TelemetryReport,
}

/// Streams `edges` into the cluster. Returns when every back-end has
/// stored and flushed its partition.
pub fn ingest(
    cluster: &mut MssgCluster,
    edges: impl Iterator<Item = Edge> + Send + 'static,
    options: &IngestOptions,
) -> Result<IngestReport> {
    assert!(options.front_ends > 0, "need at least one ingestion node");
    assert!(
        options.window_edges > 0,
        "window must hold at least one edge"
    );
    let p = cluster.nodes();
    let f = options.front_ends;
    let kind = options.declustering;
    if kind == DeclusterKind::VertexRoundRobin && f > 1 {
        return Err(GraphStorageError::Unsupported(format!(
            "VertexRoundRobin places vertices in stream order, on one front-end, not {f}"
        )));
    }
    if kind != cluster.placement.kind() {
        if cluster.total_entries() > 0 {
            return Err(GraphStorageError::Unsupported(format!(
                "a {kind:?} ingest into a cluster placed by {:?}",
                cluster.placement.kind()
            )));
        }
        cluster.placement = Declustering::new(kind, p);
    }
    let io_before = cluster.io_snapshot();
    // The run's copy of the placement, extended in place by
    // `VertexRoundRobin`'s one front-end.
    let placement = Arc::new(Mutex::new(cluster.placement.clone()));

    // Each store copy's cursor: the next window id it applies. A fresh
    // stream starts at window 0: it resets every watermark to 0 and
    // records its window size, so a resume of *this* stream never trusts
    // what an earlier one left behind. A resumed run starts at the node's
    // watermark, and is refused before anything runs if a node recorded
    // another window size, or stores entries but recorded none: the
    // checkpoint lives in the cluster's memory, which a reopen does not
    // keep, so its watermark would replay the stream from window 0. (An
    // empty node that recorded none resumes as it is.)
    let window = options.window_edges;
    let mut cursors = vec![0; p];
    for (i, cursor) in cursors.iter_mut().enumerate() {
        let mut checkpoint = cluster.checkpoints[i].lock();
        if !options.resume {
            *checkpoint = Checkpoint {
                watermark: 0,
                window: Some(window),
            };
            continue;
        }
        match checkpoint.window {
            None if cluster.with_backend(i, |db| db.stored_entries()) > 0 => {
                return Err(GraphStorageError::Unsupported(format!(
                    "a resume on node {i}, which stores entries but no checkpoint \
                     (reopened since its stream ran)"
                )));
            }
            Some(recorded) if recorded != window => {
                return Err(GraphStorageError::Unsupported(format!(
                    "a resume with {window}-edge windows of a stream node {i} cut into \
                     {recorded}-edge windows"
                )));
            }
            _ => *cursor = checkpoint.watermark,
        }
    }
    // The source skips outright every window below the *minimum*
    // watermark — all nodes already hold those.
    let resume_from = cursors.iter().copied().min().unwrap_or(0);

    let mut g = GraphBuilder::new();
    g.telemetry(cluster.telemetry().clone());
    g.stream_timeout(DEADLINE);
    if let Some(plan) = &options.fault_plan {
        g.fault_plan(plan.clone());
    }
    // Node layout: back-ends 0..p, front-ends p..p+f, source at p+f.
    let mut source_holder = Some(SourceFilter {
        edges: Box::new(edges),
        window: options.window_edges,
        skip_before: resume_from,
        count: Arc::new(Mutex::new(0)),
    });
    let edge_count = Arc::clone(&source_holder.as_ref().unwrap().count);
    let src = g.add_filter("source", vec![p + f], move |_| {
        Box::new(source_holder.take().expect("source filter built once"))
    })?;
    let shared = Arc::clone(&placement);
    let window_edges = options.window_edges as u64;
    let ing = g.add_filter("ingest", (p..p + f).collect(), move |_| {
        Box::new(IngestFilter {
            placement: Arc::clone(&shared),
            window_edges,
        })
    })?;
    let backends: Vec<_> = (0..p).map(|i| cluster.backend(i)).collect();
    let checkpoints = cluster.checkpoints.clone();
    let store = g.add_filter("store", (0..p).collect(), move |i| {
        Box::new(StoreFilter {
            backend: backends[i].clone(),
            checkpoint: checkpoints[i].clone(),
            progress: StoreProgress {
                next: cursors[i],
                durable: cursors[i],
                ..Default::default()
            },
        })
    })?;
    g.declare_ports(src, &[], &["windows"]);
    g.declare_ports(ing, &["windows"], &["batches"]);
    g.declare_ports(store, &["batches"], &[]);
    g.expect_consumers(ing, "batches", p);
    g.connect(src, "windows", ing, "windows")?;
    g.connect(ing, "batches", store, "batches")?;
    let report = g.run();
    // What the run placed stays placed, whether or not it finished: a
    // `resume` continues the first-come map a killed run left.
    cluster.placement = placement.lock().clone();
    let report = report?;

    // Every store filter has flushed its last batch and advanced its
    // watermark — a window-checkpoint boundary (DESIGN.md §6) — so
    // the graph epoch advances. A failed run never reaches this line:
    // queries pinned to the old epoch keep their snapshot, and the
    // half-ingested windows become visible only once a `resume` replay
    // completes the boundary.
    cluster.epoch_manager().bump();

    let edges = *edge_count.lock();
    // An ingest's report always carries the registry, telemetry on or
    // off: a `resume` reports the windows it skipped there.
    let io = cluster.io_snapshot().since(&io_before);
    Ok(IngestReport {
        edges,
        telemetry: TelemetryReport::from_run(report, io, cluster.metrics_snapshot()),
    })
}

struct SourceFilter {
    edges: Box<dyn Iterator<Item = Edge> + Send>,
    window: usize,
    /// Windows below this id are not re-sent (resume fast path); their
    /// edges still count toward the reported total.
    skip_before: u64,
    count: Arc<Mutex<u64>>,
}

impl Filter for SourceFilter {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let skipped = ctx.telemetry().metrics.counter("ingest.windows_skipped");
        let mut total = 0u64;
        let mut w = 0u64;
        let mut buf = Vec::with_capacity(self.window);
        loop {
            buf.clear();
            buf.extend(self.edges.by_ref().take(self.window));
            if buf.is_empty() {
                break;
            }
            total += buf.len() as u64;
            if w < self.skip_before {
                skipped.inc();
            } else {
                ctx.output("windows")?
                    .send_rr(DataBuffer::from_edges(w, &buf))?;
            }
            w += 1;
        }
        *self.count.lock() = total;
        Ok(())
    }
}

struct IngestFilter {
    /// The run's placement (see `ingest`).
    placement: Arc<Mutex<Declustering>>,
    window_edges: u64,
}

impl Filter for IngestFilter {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        // A placement that is a function of the edge and its position is
        // read from this copy's own snapshot, with no lock;
        // `VertexRoundRobin`'s one copy extends the shared map.
        let mut own = Some(self.placement.lock().clone())
            .filter(|own| own.kind() != DeclusterKind::VertexRoundRobin);
        while let Some(window) = ctx.input("windows")?.recv()? {
            let w = window.tag;
            let _span = ctx
                .telemetry()
                .tracer
                .span("ingest.window")
                .with("edges", window.len() as u64 / 16)
                .with("bytes", window.len() as u64);
            let mut shared = None;
            let placement = match own.as_mut() {
                Some(own) => own,
                None => &mut **shared.insert(self.placement.lock()),
            };
            let mut batches = vec![Vec::new(); placement.nodes()];
            for (e, pos) in window.try_edges()?.zip(w * self.window_edges..) {
                for (node, entry) in placement.assign(e, pos) {
                    batches[node].push(entry);
                }
            }
            drop(shared);
            // Every back-end hears every window id — including ones it got
            // no edges from — so each node's checkpoint watermark advances
            // over empty windows too.
            for (node, batch) in batches.into_iter().enumerate() {
                ctx.output("batches")?
                    .send_to(node, DataBuffer::from_edges(w, &batch))?;
            }
        }
        Ok(())
    }
}

/// One store copy's place in the window sequence.
#[derive(Default)]
struct StoreProgress {
    /// The next window id to apply.
    next: u64,
    /// Windows that arrived ahead of `next`.
    early: BTreeMap<u64, DataBuffer>,
    /// Entries of the windows in `durable..next`, not yet stored.
    batch: Vec<Edge>,
    /// The watermark last written: every window below it is stored.
    durable: u64,
}

struct StoreFilter {
    backend: crate::cluster::SharedBackend,
    /// The node's checkpoint, whose watermark this copy advances.
    checkpoint: Arc<Mutex<Checkpoint>>,
    progress: StoreProgress,
}

impl StoreFilter {
    /// Stores the accumulated batch, then advances the watermark to the
    /// cursor. The watermark never passes a window before its edges are
    /// stored: a crash mid-batch leaves it below them, and a `resume`
    /// replay re-stores exactly those.
    fn flush_batch(&mut self) -> Result<()> {
        let st = &mut self.progress;
        if st.durable == st.next {
            return Ok(());
        }
        let mut db = self.backend.lock();
        if !st.batch.is_empty() {
            db.store_edges(&st.batch)?;
        }
        st.batch.clear();
        self.checkpoint.lock().watermark = st.next;
        st.durable = st.next;
        Ok(())
    }
}

impl Filter for StoreFilter {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let skipped = ctx.telemetry().metrics.counter("ingest.windows_skipped");
        let batch_entries = self.backend.lock().store_batch_entries();
        while let Some(buf) = ctx.input("batches")?.recv()? {
            if buf.tag < self.progress.next {
                // Below a resumed node's durable prefix.
                skipped.inc();
                continue;
            }
            self.progress.early.insert(buf.tag, buf);
            while let Some(window) = self.progress.early.remove(&self.progress.next) {
                self.progress.next += 1;
                self.progress.batch.extend(window.try_edges()?);
                if self.progress.batch.len() >= batch_entries {
                    self.flush_batch()?;
                }
            }
        }
        // Stream end. A cleanly finished stream delivered every window, so
        // `early` is empty; after an abnormal teardown it may hold windows
        // above a gap. Those are *dropped*, never applied out of order:
        // they lie above the watermark, so a resumed replay re-applies them
        // in their proper place.
        self.progress.early.clear();
        self.flush_batch()?;
        self.backend.lock().flush()
    }
}

/// Outcome of a typed (ontology-validated) ingestion.
#[derive(Clone, Debug)]
pub struct TypedIngestReport {
    /// The underlying ingestion report for the accepted edges.
    pub report: IngestReport,
    /// Edges rejected because their type triple violates the ontology.
    pub rejected: u64,
}

/// Streams a *semantic* (typed) edge feed into the cluster, validating
/// every assertion against the ontology first — the blueprint role of
/// thesis Figure 1.1. Edges whose `(src_type, edge_type, dst_type)` triple
/// the schema does not allow are counted and dropped; the survivors are
/// ingested untyped.
pub fn ingest_typed(
    cluster: &mut MssgCluster,
    edges: impl Iterator<Item = TypedEdge> + Send + 'static,
    ontology: &Ontology,
    options: &IngestOptions,
) -> Result<TypedIngestReport> {
    let ontology = ontology.clone();
    let rejected = Arc::new(Mutex::new(0u64));
    let rejected2 = Arc::clone(&rejected);
    let valid = edges.filter_map(move |te| {
        if ontology.validate(&te).is_ok() {
            Some(te.untyped())
        } else {
            *rejected2.lock() += 1;
            None
        }
    });
    let report = ingest(cluster, valid, options)?;
    let rejected = *rejected.lock();
    Ok(TypedIngestReport { report, rejected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use graphdb::GraphDbExt;
    use mssg_types::Gid;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("core-ingest-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn ring(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::of(i, (i + 1) % n)).collect()
    }

    #[test]
    fn vertex_hash_places_adjacency_at_owner() {
        let dir = tmpdir("hash");
        let mut cluster =
            MssgCluster::new(&dir, 3, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let report = ingest(
            &mut cluster,
            ring(30).into_iter(),
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(report.edges, 30);
        // Each undirected edge became two directed entries.
        assert_eq!(cluster.total_entries(), 60);
        for v in 0..30u64 {
            let owner = cluster.placement().owner(Gid::new(v)).unwrap();
            assert_eq!(owner, v as usize % 3);
            let n = cluster.with_backend(owner, |db| db.neighbors(Gid::new(v)).unwrap());
            assert_eq!(n.len(), 2, "ring vertex {v} has two neighbours");
            for other in 0..3 {
                if other != owner {
                    let n = cluster.with_backend(other, |db| db.neighbors(Gid::new(v)).unwrap());
                    assert!(n.is_empty(), "vertex {v} leaked to node {other}");
                }
            }
        }
    }

    #[test]
    fn multiple_front_ends_store_everything() {
        let dir = tmpdir("fe4");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let opts = IngestOptions {
            front_ends: 4,
            window_edges: 7,
            ..Default::default()
        };
        let report = ingest(&mut cluster, ring(100).into_iter(), &opts).unwrap();
        assert_eq!(report.edges, 100);
        assert_eq!(cluster.total_entries(), 200);
    }

    #[test]
    fn vertex_rr_placement_names_each_owner() {
        let dir = tmpdir("rr");
        let mut cluster =
            MssgCluster::new(&dir, 4, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let opts = IngestOptions {
            declustering: DeclusterKind::VertexRoundRobin,
            ..Default::default()
        };
        ingest(&mut cluster, ring(20).into_iter(), &opts).unwrap();
        let placement = cluster.placement();
        assert_eq!(placement.kind(), DeclusterKind::VertexRoundRobin);
        // The placement is truthful: the owner really holds the list, and
        // vertices were dealt round-robin as first seen.
        for v in 0..20u64 {
            let node = placement.owner(Gid::new(v)).unwrap();
            assert_eq!(node, v as usize % 4, "vertex {v}");
            let n = cluster.with_backend(node, |db| db.neighbors(Gid::new(v)).unwrap());
            assert_eq!(n.len(), 2);
        }
        // The one front-end decides the first-come order.
        let two = IngestOptions {
            front_ends: 2,
            ..opts
        };
        let err = ingest(&mut cluster, ring(20).into_iter(), &two).unwrap_err();
        assert!(matches!(err, GraphStorageError::Unsupported(_)), "{err}");
        assert_eq!(
            cluster.total_entries(),
            40,
            "a refused ingest stores nothing"
        );
    }

    #[test]
    fn edge_rr_spreads_and_keeps_everything() {
        let dir = tmpdir("edge");
        let mut cluster =
            MssgCluster::new(&dir, 4, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let opts = IngestOptions {
            declustering: DeclusterKind::EdgeRoundRobin,
            ..Default::default()
        };
        ingest(&mut cluster, ring(40).into_iter(), &opts).unwrap();
        assert_eq!(cluster.total_entries(), 80);
        // Union of all nodes' views of vertex 0 is its full neighbourhood.
        let mut all = Vec::new();
        for i in 0..4 {
            all.extend(cluster.with_backend(i, |db| db.neighbors(Gid::new(0)).unwrap()));
        }
        all.sort_unstable();
        assert_eq!(all, vec![Gid::new(1), Gid::new(39)]);
    }

    #[test]
    fn out_of_core_backend_roundtrip() {
        let dir = tmpdir("grdb");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        ingest(
            &mut cluster,
            ring(16).into_iter(),
            &IngestOptions::default(),
        )
        .unwrap();
        let report_io = cluster.io_snapshot();
        assert!(report_io.block_writes > 0, "grDB must have hit the disk");
        for v in 0..16u64 {
            let owner = cluster.placement().owner(Gid::new(v)).unwrap();
            let n = cluster.with_backend(owner, |db| db.neighbors(Gid::new(v)).unwrap());
            assert_eq!(n.len(), 2, "vertex {v}");
        }
    }

    #[test]
    fn typed_ingestion_enforces_the_ontology() {
        use mssg_types::TypedEdge;
        let dir = tmpdir("typed");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let ont = mssg_types::Ontology::example_meetings();
        let person = ont.vertex_type("Person").unwrap();
        let meeting = ont.vertex_type("Meeting").unwrap();
        let date = ont.vertex_type("Date").unwrap();
        let attends = ont.edge_type("attends").unwrap();
        let occurred = ont.edge_type("occurred on").unwrap();
        let feed = vec![
            TypedEdge::new(Edge::of(0, 100), person, attends, meeting),
            TypedEdge::new(Edge::of(100, 200), meeting, occurred, date),
            // Violations: Person-Date directly, and attends to a Date.
            TypedEdge::new(Edge::of(0, 200), person, attends, date),
            TypedEdge::new(Edge::of(1, 200), person, occurred, date),
        ];
        let out = ingest_typed(
            &mut cluster,
            feed.into_iter(),
            &ont,
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(out.rejected, 2);
        assert_eq!(out.report.edges, 2);
        assert_eq!(cluster.total_entries(), 4);
    }

    #[test]
    fn window_spans_and_queue_metrics_when_telemetry_enabled() {
        let dir = tmpdir("spans");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let telemetry = mssg_obs::Telemetry::enabled();
        cluster.set_telemetry(telemetry.clone());
        let opts = IngestOptions {
            window_edges: 10,
            ..Default::default()
        };
        let report = ingest(&mut cluster, ring(95).into_iter(), &opts).unwrap();

        // ceil(95 / 10) windows, each annotated with its edge count.
        let spans = telemetry.tracer.finished_spans();
        let windows: Vec<_> = spans.iter().filter(|s| s.name == "ingest.window").collect();
        assert_eq!(windows.len(), 10);
        let edges: u64 = windows.iter().map(|s| s.field_u64("edges").unwrap()).sum();
        assert_eq!(edges, 95);
        assert!(windows.iter().all(|s| s.field_u64("bytes").unwrap() > 0));

        // The unified report carries the per-filter breakdown and the
        // substrate's queue-occupancy histograms.
        assert_eq!(
            report.telemetry.filters.len(),
            4,
            "source + 1 ingest + 2 store copies"
        );
        assert!(report
            .telemetry
            .metrics
            .histograms
            .keys()
            .any(|k| k.starts_with("dc.queue_depth.")));
    }

    #[test]
    fn resume_skips_every_stored_window() {
        let dir = tmpdir("resume-all");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let opts = IngestOptions {
            window_edges: 10,
            ..Default::default()
        };
        ingest(&mut cluster, ring(60).into_iter(), &opts).unwrap();
        assert_eq!(cluster.total_entries(), 120);
        for i in 0..2 {
            let wm = cluster.ingest_watermark(i);
            assert_eq!(wm, 6, "node {i} stored all 6 windows contiguously");
        }

        // Replaying the identical stream with `resume` adds nothing: the
        // source fast-skips the whole prefix below the minimum watermark.
        let opts = IngestOptions {
            resume: true,
            ..opts
        };
        let report = ingest(&mut cluster, ring(60).into_iter(), &opts).unwrap();
        assert_eq!(report.edges, 60, "skipped windows still count edges");
        assert_eq!(cluster.total_entries(), 120, "no duplicated entries");
        assert_eq!(
            report.telemetry.metrics.counters["ingest.windows_skipped"],
            6
        );
    }

    #[test]
    fn killed_ingestion_resumes_without_duplicates() {
        use datacutter::{FaultKind, FaultPlan};
        let dir = tmpdir("resume-kill");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        // Store copy 1 panics at its 4th port operation (so it durably
        // stored exactly 3 windows before "the node died").
        let opts = IngestOptions {
            window_edges: 10,
            fault_plan: Some(FaultPlan::new().inject("store.1", 4, FaultKind::Panic)),
            ..Default::default()
        };
        let err = ingest(&mut cluster, ring(100).into_iter(), &opts).unwrap_err();
        assert!(
            matches!(err, GraphStorageError::FilterFailed(_)),
            "crash surfaces as the root-cause typed error, got: {err}"
        );
        let partial = cluster.total_entries();
        assert!(partial < 200, "the killed run must be incomplete");
        assert_eq!(cluster.ingest_watermark(1), 3);

        // Replay the same stream with `resume`: windows below each node's
        // watermark are skipped, the rest are stored — converging on
        // exactly the fault-free result.
        let opts = IngestOptions {
            window_edges: 10,
            resume: true,
            ..Default::default()
        };
        let report = ingest(&mut cluster, ring(100).into_iter(), &opts).unwrap();
        assert_eq!(report.edges, 100);
        assert_eq!(cluster.total_entries(), 200, "converged, no duplicates");
        assert!(report.telemetry.metrics.counters["ingest.windows_skipped"] > 0);
        for i in 0..2 {
            let wm = cluster.ingest_watermark(i);
            assert_eq!(wm, 10);
        }
    }

    #[test]
    fn resume_with_another_window_size_is_refused() {
        use datacutter::{FaultKind, FaultPlan};
        let dir = tmpdir("resume-window");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let opts = IngestOptions {
            window_edges: 10,
            fault_plan: Some(FaultPlan::new().inject("store.1", 4, FaultKind::Panic)),
            ..Default::default()
        };
        ingest(&mut cluster, ring(100).into_iter(), &opts).unwrap_err();
        let partial = cluster.total_entries();
        assert!(partial < 200, "the killed run must be incomplete");

        // Window ids of 7-edge windows name other edges than the 10-edge
        // windows the watermarks count: refused, nothing stored.
        let other = IngestOptions {
            window_edges: 7,
            resume: true,
            ..Default::default()
        };
        let err = ingest(&mut cluster, ring(100).into_iter(), &other).unwrap_err();
        assert!(matches!(err, GraphStorageError::Unsupported(_)), "{err}");
        assert_eq!(
            cluster.total_entries(),
            partial,
            "a refused resume stores nothing"
        );

        let same = IngestOptions {
            window_edges: 10,
            resume: true,
            ..Default::default()
        };
        ingest(&mut cluster, ring(100).into_iter(), &same).unwrap();
        assert_eq!(cluster.total_entries(), 200, "converged, no duplicates");
    }

    #[test]
    fn batched_flushes_store_everything_and_advance_watermark() {
        // grDB's thesis geometry asks for 32 Ki-entry batches, so the whole
        // stream is one batch, flushed at stream end.
        let dir = tmpdir("batch");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        let opts = IngestOptions {
            window_edges: 10,
            ..Default::default()
        };
        let report = ingest(&mut cluster, ring(100).into_iter(), &opts).unwrap();
        assert_eq!(report.edges, 100);
        assert_eq!(cluster.total_entries(), 200);
        for i in 0..2 {
            let wm = cluster.ingest_watermark(i);
            assert_eq!(wm, 10, "the deferred flush still covers every window");
        }
    }

    #[test]
    fn parallel_front_ends_match_single_front_end_order() {
        // Hub sources repeat across windows, so their adjacency order
        // depends on the order windows reach the stores; the ring with
        // 5-edge windows deals more windows than there are front-ends.
        let hubs: Vec<Edge> = (0..200u64).map(|i| Edge::of(i % 10, 100 + i)).collect();
        for (input, edges, window_edges, vertices) in
            [("hubs", hubs, 8, 10), ("ring", ring(100), 5, 100)]
        {
            let run = |front_ends: usize| {
                let dir = tmpdir(&format!("ord-{input}-{front_ends}"));
                let mut cluster =
                    MssgCluster::new(&dir, 3, BackendKind::HashMap, &BackendOptions::default())
                        .unwrap();
                let opts = IngestOptions {
                    front_ends,
                    window_edges,
                    ..Default::default()
                };
                let report = ingest(&mut cluster, edges.clone().into_iter(), &opts).unwrap();
                assert_eq!(report.edges, edges.len() as u64, "{input}");
                assert_eq!(cluster.total_entries(), 2 * edges.len() as u64, "{input}");
                (0..vertices)
                    .map(|v| {
                        let owner = cluster.placement().owner(Gid::new(v)).unwrap();
                        cluster.with_backend(owner, |db| db.neighbors(Gid::new(v)).unwrap())
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                run(1),
                run(4),
                "{input}: stores restore the single-front-end adjacency order"
            );
        }
    }

    #[test]
    fn killed_batched_ingestion_resumes_without_duplicates() {
        use datacutter::{FaultKind, FaultPlan};
        let dir = tmpdir("batch-kill");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        // grDB's batch never fills before the crash, so nothing this copy
        // received was flushed — and the watermark may not pass any of it.
        let opts = IngestOptions {
            window_edges: 10,
            fault_plan: Some(FaultPlan::new().inject("store.1", 4, FaultKind::Panic)),
            ..Default::default()
        };
        ingest(&mut cluster, ring(100).into_iter(), &opts).unwrap_err();
        assert_eq!(
            cluster.ingest_watermark(1),
            0,
            "unflushed windows stay above the watermark"
        );
        let retry = IngestOptions {
            window_edges: 10,
            resume: true,
            ..Default::default()
        };
        let report = ingest(&mut cluster, ring(100).into_iter(), &retry).unwrap();
        assert_eq!(report.edges, 100);
        assert_eq!(cluster.total_entries(), 200, "converged, no duplicates");
    }

    #[test]
    fn empty_stream_is_fine() {
        let dir = tmpdir("empty");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let report = ingest(&mut cluster, std::iter::empty(), &IngestOptions::default()).unwrap();
        assert_eq!(report.edges, 0);
        assert_eq!(cluster.total_entries(), 0);
    }
}
