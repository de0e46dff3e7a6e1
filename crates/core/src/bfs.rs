//! Parallel out-of-core breadth-first search — Algorithm 1 (`oocBFS`) and
//! the pipelined Algorithm 2 (`pOOCBFS`) of thesis §4.2.
//!
//! The search runs as `p` BFS filters (one per back-end node, each holding
//! its node's GraphDB) connected all-to-all on a `peers` stream. Rounds are
//! synchronized by per-round `ROUND_DONE` markers carrying each
//! processor's emission count; a global round with zero emissions
//! terminates the search, and a `FOUND` message short-circuits it.
//!
//! Fringe routing handles the three distribution cases of Algorithm 1:
//!
//! - **vertex granularity + globally known mapping** (`GID % p`): fringe
//!   vertices are sent straight to their owners,
//! - **vertex granularity + ingestion-published map**: likewise, using the
//!   owner map published by the round-robin ingestion,
//! - **edge granularity / unknown ownership**: the fringe is broadcast to
//!   all processors.
//!
//! Algorithm 2 differs only in the send discipline: fringe chunks go out
//! as soon as they reach `threshold` vertices, overlapping communication
//! with the remaining expansion, and waiting messages are drained
//! opportunistically during expansion (lines 16–27 of the listing).

use crate::cluster::{MssgCluster, SharedBackend};
use crate::telemetry::TelemetryReport;
use crate::visited::{VisitedKind, VisitedSet};
use datacutter::{DataBuffer, Filter, FilterContext, GraphBuilder, OutPort};
use mssg_types::{AdjBuffer, Gid, GraphStorageError, MetaOp, Result};
use parking_lot::Mutex;
use simio::IoStats;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Which algorithm variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfsMode {
    /// Algorithm 1: send each round's fringe in one batch per destination.
    Standard,
    /// Algorithm 2: send fringe chunks once they reach `threshold`
    /// vertices, overlapping communication with expansion.
    Pipelined {
        /// Chunk size in vertices.
        threshold: usize,
    },
}

/// Search configuration.
#[derive(Clone, Debug)]
pub struct BfsOptions {
    /// Algorithm variant.
    pub mode: BfsMode,
    /// Visited-structure choice (the Figures 5.8/5.9 ablation).
    pub visited: VisitedKind,
    /// Push visited filtering down into the storage engine: locally
    /// visited vertices are marked in the GraphDB's per-vertex metadata
    /// word, and fringe expansion asks for "neighbours whose metadata ≠
    /// visited" — the fused `getAdjacencyListUsingMetadata` path of
    /// Listing 3.1. Reduces routed traffic; results are identical.
    pub db_filter: bool,
    /// Record parent pointers and reconstruct the actual shortest path
    /// (returned in [`SearchMetrics::path`]). Expansion switches to
    /// per-vertex adjacency lookups to attribute each neighbour to its
    /// parent, and fringe messages carry (vertex, parent) pairs.
    pub record_parents: bool,
    /// Safety bound on rounds.
    pub max_rounds: u32,
    /// Scratch directory for external visited structures; defaults to
    /// `<cluster dir>/scratch`.
    pub scratch: Option<PathBuf>,
    /// Per-stream send/recv deadline. BFS's all-to-all exchange blocks on
    /// `ROUND_DONE` markers from every peer, so a dead storage filter
    /// would otherwise hang the search forever; with the deadline it
    /// surfaces as a typed `Timeout`/`FilterFailed` error instead.
    /// Defaults to 120 s; `None` blocks indefinitely (classic semantics).
    pub recv_timeout: Option<std::time::Duration>,
    /// Deterministic fault plan for chaos testing the search pipeline.
    /// Note BFS filters are deliberately *not* supervised: a restarted
    /// peer would have lost its visited set, so mid-search crashes are
    /// fail-stop and the caller retries the whole (idempotent, read-only)
    /// search.
    pub fault_plan: Option<datacutter::FaultPlan>,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions {
            mode: BfsMode::Standard,
            visited: VisitedKind::InMemory,
            db_filter: false,
            record_parents: false,
            max_rounds: 10_000,
            scratch: None,
            recv_timeout: Some(std::time::Duration::from_secs(120)),
            fault_plan: None,
        }
    }
}

/// Metadata word the `db_filter` mode writes for locally-visited vertices.
const VISITED_MARK: mssg_types::Meta = 1;

/// Measurements from one search.
#[derive(Clone, Debug)]
pub struct SearchMetrics {
    /// Shortest path length in edges, if the destination was reached.
    pub path_length: Option<u32>,
    /// The vertices of one shortest path (source first, destination
    /// last); only populated under [`BfsOptions::record_parents`].
    pub path: Option<Vec<Gid>>,
    /// BFS rounds executed (maximum over processors).
    pub rounds: u32,
    /// Aggregate adjacency entries scanned — the numerator of the paper's
    /// edges/s metric (Figures 5.7, 5.9).
    pub edges_scanned: u64,
    /// Vertices marked visited across all processors.
    pub vertices_visited: u64,
    /// Time, traffic, and per-filter breakdown of the run.
    pub telemetry: TelemetryReport,
}

impl SearchMetrics {
    /// Aggregate edges scanned per second.
    pub fn edges_per_sec(&self) -> f64 {
        if self.telemetry.elapsed.is_zero() {
            0.0
        } else {
            self.edges_scanned as f64 / self.telemetry.elapsed.as_secs_f64()
        }
    }
}

/// How fringe vertices find their owners.
#[derive(Clone)]
enum Routing {
    /// `GID % p`.
    Hash(usize),
    /// Ingestion-published ownership.
    Map(Arc<HashMap<Gid, usize>>),
    /// Unknown ownership: broadcast.
    Broadcast,
}

impl Routing {
    /// The processor to send `v` to; `None` means broadcast.
    fn target(&self, v: Gid) -> Option<usize> {
        match self {
            Routing::Hash(p) => Some((v.raw() % *p as u64) as usize),
            Routing::Map(m) => m.get(&v).copied(),
            Routing::Broadcast => None,
        }
    }

    fn is_broadcast(&self) -> bool {
        matches!(self, Routing::Broadcast)
    }
}

// Message kinds on the `peers` stream. Tag layout:
// [kind: 8 bits][round: 32 bits][sender: 24 bits].
const KIND_FRINGE: u64 = 0;
const KIND_ROUND_DONE: u64 = 1;
const KIND_FOUND: u64 = 2;

fn tag(kind: u64, round: u32, sender: usize) -> u64 {
    (kind << 56) | ((round as u64) << 24) | sender as u64
}

fn tag_kind(t: u64) -> u64 {
    t >> 56
}

fn tag_round(t: u64) -> u32 {
    ((t >> 24) & 0xffff_ffff) as u32
}

fn tag_sender(t: u64) -> usize {
    (t & 0xff_ffff) as usize
}

/// Shared result sink: each BFS filter merges its contribution on exit.
#[derive(Default)]
struct Outcome {
    found: Option<u32>,
    edges_scanned: u64,
    vertices_visited: u64,
    rounds: u32,
    /// Parent pointers merged from every processor (record_parents mode).
    parents: HashMap<Gid, Gid>,
}

impl Outcome {
    fn merge_found(&mut self, level: u32) {
        self.found = Some(self.found.map_or(level, |f| f.min(level)));
    }
}

/// Runs a BFS from `source` to `dest` over the cluster's stored graph.
pub fn bfs(
    cluster: &MssgCluster,
    source: Gid,
    dest: Gid,
    options: &BfsOptions,
) -> Result<SearchMetrics> {
    let p = cluster.nodes();
    let io_before = cluster.io_snapshot();
    if source == dest {
        return Ok(SearchMetrics {
            path_length: Some(0),
            path: options.record_parents.then(|| vec![source]),
            rounds: 0,
            edges_scanned: 0,
            vertices_visited: 1,
            telemetry: TelemetryReport::default(),
        });
    }
    let routing = if cluster.broadcast_fringe() {
        Routing::Broadcast
    } else if let Some(map) = cluster.owner_map() {
        Routing::Map(Arc::clone(map))
    } else {
        Routing::Hash(p)
    };
    let scratch = options
        .scratch
        .clone()
        .unwrap_or_else(|| cluster.dir().join("scratch"));
    let outcome = Arc::new(Mutex::new(Outcome::default()));

    let mut g = GraphBuilder::new();
    g.channel_capacity(8192);
    g.telemetry(cluster.telemetry().clone());
    if let Some(t) = options.recv_timeout {
        g.stream_timeout(t);
    }
    if let Some(plan) = &options.fault_plan {
        g.fault_plan(plan.clone());
    }
    let backends: Vec<SharedBackend> = (0..p).map(|i| cluster.backend(i)).collect();
    let io_stats: Vec<Arc<IoStats>> = (0..p).map(|i| cluster.io_stats(i)).collect();
    let routing2 = routing.clone();
    let outcome2 = Arc::clone(&outcome);
    let opts = options.clone();
    let filter = g.add_filter("bfs", (0..p).collect(), move |i| {
        Box::new(BfsFilter {
            backend: backends[i].clone(),
            visited_kind: opts.visited,
            scratch: scratch.clone(),
            io_stats: io_stats[i].clone(),
            routing: routing2.clone(),
            source,
            dest,
            mode: opts.mode,
            db_filter: opts.db_filter,
            record_parents: opts.record_parents,
            max_rounds: opts.max_rounds,
            outcome: Arc::clone(&outcome2),
        })
    })?;
    g.declare_ports(filter, &["peers"], &["peers"]);
    g.expect_consumers(filter, "peers", p);
    // Per round a copy drains opportunistically, but may burst up to one
    // fringe batch per destination plus the ROUND_DONE marker before its
    // first recv; 4 rounds of headroom keeps the declaration honest for
    // the pipelined mode's chunked sends.
    g.send_window(filter, "peers", 4 * (p as u64 + 1));
    g.connect(filter, "peers", filter, "peers")?;
    let report = g.run()?;

    let out = outcome.lock();
    let path = match (options.record_parents, out.found) {
        (true, Some(len)) => reconstruct_path(&out.parents, source, dest, len),
        _ => None,
    };
    Ok(SearchMetrics {
        path_length: out.found,
        path,
        rounds: out.rounds,
        edges_scanned: out.edges_scanned,
        vertices_visited: out.vertices_visited,
        telemetry: cluster.telemetry_report(report, &io_before),
    })
}

/// Walks parent pointers from `dest` back to `source`. Returns `None` if
/// the chain is broken (should not happen when the search found a path).
fn reconstruct_path(
    parents: &HashMap<Gid, Gid>,
    source: Gid,
    dest: Gid,
    len: u32,
) -> Option<Vec<Gid>> {
    let mut path = vec![dest];
    let mut cursor = dest;
    for _ in 0..len {
        let &p = parents.get(&cursor)?;
        path.push(p);
        cursor = p;
        if cursor == source {
            path.reverse();
            return Some(path);
        }
    }
    None
}

struct BfsFilter {
    backend: SharedBackend,
    visited_kind: VisitedKind,
    scratch: PathBuf,
    io_stats: Arc<IoStats>,
    routing: Routing,
    source: Gid,
    dest: Gid,
    mode: BfsMode,
    db_filter: bool,
    record_parents: bool,
    max_rounds: u32,
    outcome: Arc<Mutex<Outcome>>,
}

/// Sends that race filter shutdown (a peer found the target and exited)
/// must not fail the run.
fn send_quiet(port: &mut OutPort, copy: usize, buf: DataBuffer) -> Result<()> {
    match port.send_to(copy, buf) {
        Ok(()) => Ok(()),
        Err(GraphStorageError::Unsupported(m)) if m.contains("hung up") => Ok(()),
        Err(e) => Err(e),
    }
}

fn broadcast_quiet(port: &mut OutPort, buf: DataBuffer) -> Result<()> {
    for copy in 0..port.consumers() {
        send_quiet(port, copy, buf.clone())?;
    }
    Ok(())
}

/// Per-round send-side state: one pending batch per destination (index
/// `p` holds the broadcast batch).
struct SendState {
    batches: Vec<Vec<u64>>,
    emitted: u64,
}

impl BfsFilter {
    /// Routes one freshly discovered vertex, flushing a chunk early in
    /// pipelined mode.
    fn route_vertex(
        &self,
        ctx: &mut FilterContext,
        state: &mut SendState,
        round: u32,
        me: usize,
        u: Gid,
        parent: Gid,
    ) -> Result<()> {
        let slot = self.routing.target(u).unwrap_or(state.batches.len() - 1);
        state.batches[slot].push(u.raw());
        if self.record_parents {
            state.batches[slot].push(parent.raw());
        }
        state.emitted += 1;
        if let BfsMode::Pipelined { threshold } = self.mode {
            let words_per_entry = if self.record_parents { 2 } else { 1 };
            if state.batches[slot].len() >= threshold * words_per_entry {
                self.flush_slot(ctx, state, round, me, slot)?;
            }
        }
        Ok(())
    }

    fn flush_slot(
        &self,
        ctx: &mut FilterContext,
        state: &mut SendState,
        round: u32,
        me: usize,
        slot: usize,
    ) -> Result<()> {
        if state.batches[slot].is_empty() {
            return Ok(());
        }
        let words = std::mem::take(&mut state.batches[slot]);
        let buf = DataBuffer::from_words(tag(KIND_FRINGE, round, me), &words);
        let port = ctx.output("peers")?;
        if slot == port.consumers() {
            broadcast_quiet(port, buf)
        } else {
            send_quiet(port, slot, buf)
        }
    }

    fn flush_all(
        &self,
        ctx: &mut FilterContext,
        state: &mut SendState,
        round: u32,
        me: usize,
    ) -> Result<()> {
        for slot in 0..state.batches.len() {
            self.flush_slot(ctx, state, round, me, slot)?;
        }
        Ok(())
    }
}

/// What a message did to the receive loop.
enum Handled {
    Consumed,
    Stashed(DataBuffer),
    Found(u32),
}

#[allow(clippy::too_many_arguments)]
fn handle_message(
    msg: DataBuffer,
    round: u32,
    me: usize,
    visited: &mut dyn VisitedSet,
    db_mark: &mut dyn FnMut(Gid) -> Result<()>,
    parents: Option<&mut HashMap<Gid, Gid>>,
    next: &mut Vec<Gid>,
    done_from: &mut usize,
    emitted_sum: &mut u64,
    visited_count: &mut u64,
) -> Result<Handled> {
    match tag_kind(msg.tag) {
        KIND_FOUND => Ok(Handled::Found(msg.words()[0] as u32)),
        KIND_FRINGE => {
            if tag_round(msg.tag) != round {
                return Ok(Handled::Stashed(msg));
            }
            let from_self = tag_sender(msg.tag) == me;
            let words = msg.words();
            match parents {
                Some(parents) => {
                    // record_parents wire format: (vertex, parent) pairs.
                    if !words.len().is_multiple_of(2) {
                        return Err(GraphStorageError::corrupt(
                            "fringe pair payload has odd length",
                        ));
                    }
                    for pair in words.chunks_exact(2) {
                        let v = Gid::from_raw(pair[0]);
                        let parent = Gid::from_raw(pair[1]);
                        if from_self {
                            next.push(v);
                        } else if visited.try_visit(v, round)? {
                            *visited_count += 1;
                            db_mark(v)?;
                            parents.entry(v).or_insert(parent);
                            next.push(v);
                        }
                    }
                }
                None => {
                    for w in words {
                        let v = Gid::from_raw(w);
                        if from_self {
                            // Already marked at send time; trust our own gate.
                            next.push(v);
                        } else if visited.try_visit(v, round)? {
                            *visited_count += 1;
                            db_mark(v)?;
                            next.push(v);
                        }
                    }
                }
            }
            Ok(Handled::Consumed)
        }
        KIND_ROUND_DONE => {
            if tag_round(msg.tag) != round {
                return Ok(Handled::Stashed(msg));
            }
            *done_from += 1;
            *emitted_sum += msg.words()[0];
            Ok(Handled::Consumed)
        }
        k => Err(GraphStorageError::corrupt(format!(
            "unknown BFS message kind {k}"
        ))),
    }
}

impl Filter for BfsFilter {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let me = ctx.copy_index;
        let p = ctx.copies;
        let mut visited = self
            .visited_kind
            .open(&self.scratch, me, Arc::clone(&self.io_stats))?;
        let mut frontier: Vec<Gid> = Vec::new();
        let mut edges_scanned = 0u64;
        let mut visited_count = 0u64;
        let mut found: Option<u32> = None;
        let mut stash: Vec<DataBuffer> = Vec::new();
        let mut adj = AdjBuffer::new();
        let mut parents: HashMap<Gid, Gid> = HashMap::new();
        let mut round: u32 = 1;
        let db_filter = self.db_filter;
        // Vertices whose DB metadata this query marks; reset afterwards so
        // the next query starts from level[v] = ∞, as Algorithm 1 requires.
        let marked = std::rc::Rc::new(std::cell::RefCell::new(Vec::<Gid>::new()));
        let mark_backend = self.backend.clone();
        let marked_in_closure = std::rc::Rc::clone(&marked);
        let mut db_mark = move |v: Gid| -> Result<()> {
            if db_filter {
                mark_backend.lock().set_metadata(v, VISITED_MARK)?;
                marked_in_closure.borrow_mut().push(v);
            }
            Ok(())
        };

        // Initialisation: the source's owner (everyone, under broadcast
        // routing) seeds the frontier.
        let owns_source =
            self.routing.is_broadcast() || self.routing.target(self.source) == Some(me);
        if owns_source {
            visited.try_visit(self.source, 0)?;
            visited_count += 1;
            frontier.push(self.source);
            db_mark(self.source)?;
        }

        'rounds: while round <= self.max_rounds {
            let visited_at_level_start = visited_count;
            let mut level_span = ctx
                .telemetry()
                .tracer
                .span("bfs.level")
                .with("level", round as u64)
                .with("frontier", frontier.len() as u64);
            // ---- expansion ----
            let mut state = SendState {
                batches: vec![Vec::new(); p + 1],
                emitted: 0,
            };
            // (neighbour, parent) pairs; parent is NIL when not recorded.
            let mut expanded: Vec<(Gid, Gid)> = Vec::new();
            if !frontier.is_empty() {
                let mut db = self.backend.lock();
                let (meta, op) = if self.db_filter {
                    // The engine filters out locally-visited neighbours
                    // while its blocks are hot (Listing 3.1's fused path).
                    (VISITED_MARK, MetaOp::NotEqual)
                } else {
                    (0, MetaOp::Ignore)
                };
                if self.record_parents {
                    // Per-vertex lookups so each neighbour knows its parent.
                    for &v in &frontier {
                        adj.clear();
                        db.adjacency(v, &mut adj, meta, op)?;
                        edges_scanned += adj.len() as u64;
                        expanded.extend(adj.as_slice().iter().map(|&u| (u, v)));
                    }
                } else {
                    adj.clear();
                    db.expand_fringe(&frontier, &mut adj, meta, op)?;
                    edges_scanned += adj.len() as u64;
                    expanded.extend(adj.as_slice().iter().map(|&u| (u, Gid::NIL)));
                }
            }
            let mut next: Vec<Gid> = Vec::new();
            let mut done_from = 0usize;
            let mut emitted_sum = 0u64;
            for &(u, parent) in &expanded {
                if u == self.dest {
                    if self.record_parents {
                        parents.insert(u, parent);
                    }
                    found = Some(round);
                    break;
                }
                if visited.try_visit(u, round)? {
                    visited_count += 1;
                    db_mark(u)?;
                    // Record the parent only where the mark is
                    // authoritative: at u's owner, or under broadcast
                    // routing (where every local visited set is globally
                    // complete). A non-owner's local gate can wrongly pass
                    // an already-visited vertex — its owner will reject
                    // the vertex, so its parent guess must not survive.
                    if self.record_parents {
                        let target = self.routing.target(u);
                        if target == Some(me) || target.is_none() {
                            parents.insert(u, parent);
                        }
                    }
                    self.route_vertex(ctx, &mut state, round, me, u, parent)?;
                }
                // Algorithm 2: drain waiting messages while expanding.
                if matches!(self.mode, BfsMode::Pipelined { .. }) {
                    while let Some(msg) = ctx.input("peers")?.try_recv() {
                        match handle_message(
                            msg,
                            round,
                            me,
                            visited.as_mut(),
                            &mut db_mark,
                            self.record_parents.then_some(&mut parents),
                            &mut next,
                            &mut done_from,
                            &mut emitted_sum,
                            &mut visited_count,
                        )? {
                            Handled::Consumed => {}
                            Handled::Stashed(m) => stash.push(m),
                            Handled::Found(l) => {
                                found = Some(found.map_or(l, |f| f.min(l)));
                                break 'rounds;
                            }
                        }
                    }
                }
            }
            if let Some(level) = found {
                let port = ctx.output("peers")?;
                broadcast_quiet(
                    port,
                    DataBuffer::from_words(tag(KIND_FOUND, round, me), &[level as u64]),
                )?;
                break 'rounds;
            }
            self.flush_all(ctx, &mut state, round, me)?;
            broadcast_quiet(
                ctx.output("peers")?,
                DataBuffer::from_words(tag(KIND_ROUND_DONE, round, me), &[state.emitted]),
            )?;

            // ---- receive ----
            // Re-examine stashed messages now that the round advanced.
            for msg in std::mem::take(&mut stash) {
                match handle_message(
                    msg,
                    round,
                    me,
                    visited.as_mut(),
                    &mut db_mark,
                    self.record_parents.then_some(&mut parents),
                    &mut next,
                    &mut done_from,
                    &mut emitted_sum,
                    &mut visited_count,
                )? {
                    Handled::Consumed => {}
                    Handled::Stashed(m) => stash.push(m),
                    Handled::Found(l) => {
                        found = Some(found.map_or(l, |f| f.min(l)));
                        break 'rounds;
                    }
                }
            }
            while done_from < p {
                let Some(msg) = ctx.input("peers")?.recv()? else {
                    // A peer exited (it found the target): terminate.
                    break 'rounds;
                };
                match handle_message(
                    msg,
                    round,
                    me,
                    visited.as_mut(),
                    &mut db_mark,
                    self.record_parents.then_some(&mut parents),
                    &mut next,
                    &mut done_from,
                    &mut emitted_sum,
                    &mut visited_count,
                )? {
                    Handled::Consumed => {}
                    Handled::Stashed(m) => stash.push(m),
                    Handled::Found(l) => {
                        found = Some(found.map_or(l, |f| f.min(l)));
                        break 'rounds;
                    }
                }
            }
            // Visited hits this level (local marks from any peer's fringe).
            level_span.record("visited", visited_count - visited_at_level_start);
            if emitted_sum == 0 {
                break 'rounds; // Graph exhausted without reaching dest.
            }
            frontier = next;
            round += 1;
        }

        // Per-query cleanup: restore level[v] = ∞ in the engine metadata.
        if self.db_filter {
            let mut db = self.backend.lock();
            for v in marked.borrow().iter() {
                db.set_metadata(*v, mssg_types::UNVISITED)?;
            }
        }

        let mut out = self.outcome.lock();
        if let Some(level) = found {
            out.merge_found(level);
        }
        out.edges_scanned += edges_scanned;
        out.vertices_visited += visited_count;
        out.rounds = out.rounds.max(round.min(self.max_rounds));
        for (v, parent) in parents {
            out.parents.entry(v).or_insert(parent);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::ingest::{ingest, DeclusterKind, IngestOptions};
    use mssg_types::Edge;
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("core-bfs-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    /// Path graph 0-1-2-…-n.
    fn path_edges(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::of(i, i + 1)).collect()
    }

    fn build_cluster(
        tag: &str,
        nodes: usize,
        kind: BackendKind,
        edges: Vec<Edge>,
        decluster: DeclusterKind,
    ) -> MssgCluster {
        let dir = tmpdir(tag);
        let mut cluster = MssgCluster::new(&dir, nodes, kind, &BackendOptions::default()).unwrap();
        let opts = IngestOptions {
            declustering: decluster,
            ..Default::default()
        };
        ingest(&mut cluster, edges.into_iter(), &opts).unwrap();
        cluster
    }

    #[test]
    fn finds_exact_path_lengths_on_path_graph() {
        let cluster = build_cluster(
            "path",
            3,
            BackendKind::HashMap,
            path_edges(20),
            DeclusterKind::VertexHash,
        );
        for target in [1u64, 5, 13, 20] {
            let m = bfs(&cluster, g(0), g(target), &BfsOptions::default()).unwrap();
            assert_eq!(m.path_length, Some(target as u32), "target {target}");
        }
    }

    #[test]
    fn source_equals_dest() {
        let cluster = build_cluster(
            "self",
            2,
            BackendKind::HashMap,
            path_edges(3),
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(1), g(1), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(0));
    }

    #[test]
    fn unreachable_reports_none() {
        // Two disconnected components.
        let mut edges = path_edges(3);
        edges.push(Edge::of(100, 101));
        let cluster = build_cluster(
            "unreach",
            3,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(0), g(101), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, None);
        assert!(m.rounds >= 1);
    }

    #[test]
    fn undirected_search_works_backwards() {
        let cluster = build_cluster(
            "backwards",
            2,
            BackendKind::HashMap,
            path_edges(6),
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(6), g(0), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(6));
    }

    #[test]
    fn shortest_path_wins_over_longer() {
        // Triangle plus a long way round: 0-1, 1-5, and 0-2-3-4-5.
        let edges = vec![
            Edge::of(0, 1),
            Edge::of(1, 5),
            Edge::of(0, 2),
            Edge::of(2, 3),
            Edge::of(3, 4),
            Edge::of(4, 5),
        ];
        let cluster = build_cluster(
            "short",
            3,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(0), g(5), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(2));
    }

    #[test]
    fn every_backend_agrees() {
        let edges = {
            // Deterministic scale-free-ish test graph.
            let mut x = 33u64;
            let mut es = Vec::new();
            for _ in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = x % 50;
                let b = (x >> 17) % 50;
                if a != b {
                    es.push(Edge::of(a, b));
                }
            }
            es
        };
        let reference = {
            let cluster = build_cluster(
                "agree-ref",
                2,
                BackendKind::HashMap,
                edges.clone(),
                DeclusterKind::VertexHash,
            );
            bfs(&cluster, g(0), g(47), &BfsOptions::default())
                .unwrap()
                .path_length
        };
        for kind in BackendKind::ALL {
            let cluster = build_cluster(
                &format!("agree-{}", kind.name()),
                2,
                kind,
                edges.clone(),
                DeclusterKind::VertexHash,
            );
            let m = bfs(&cluster, g(0), g(47), &BfsOptions::default()).unwrap();
            assert_eq!(m.path_length, reference, "{} disagrees", kind.name());
        }
    }

    #[test]
    fn broadcast_routing_for_edge_granularity() {
        let cluster = build_cluster(
            "edgegran",
            3,
            BackendKind::HashMap,
            path_edges(10),
            DeclusterKind::EdgeRoundRobin,
        );
        let m = bfs(&cluster, g(0), g(10), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(10));
    }

    #[test]
    fn owner_map_routing_for_vertex_rr() {
        let cluster = build_cluster(
            "rrmap",
            3,
            BackendKind::HashMap,
            path_edges(10),
            DeclusterKind::VertexRoundRobin,
        );
        assert!(cluster.owner_map().is_some());
        let m = bfs(&cluster, g(0), g(7), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(7));
    }

    #[test]
    fn pipelined_matches_standard() {
        let edges = {
            let mut x = 77u64;
            let mut es = Vec::new();
            for _ in 0..600 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = x % 80;
                let b = (x >> 23) % 80;
                if a != b {
                    es.push(Edge::of(a, b));
                }
            }
            es
        };
        let standard = build_cluster(
            "pipe-std",
            4,
            BackendKind::HashMap,
            edges.clone(),
            DeclusterKind::VertexHash,
        );
        let pipelined = build_cluster(
            "pipe-pip",
            4,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        for dest in [9u64, 33, 61, 79] {
            let a = bfs(&standard, g(0), g(dest), &BfsOptions::default()).unwrap();
            let b = bfs(
                &pipelined,
                g(0),
                g(dest),
                &BfsOptions {
                    mode: BfsMode::Pipelined { threshold: 4 },
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(a.path_length, b.path_length, "dest {dest}");
        }
    }

    #[test]
    fn external_visited_matches_in_memory() {
        let cluster = build_cluster(
            "extvis",
            2,
            BackendKind::HashMap,
            path_edges(12),
            DeclusterKind::VertexHash,
        );
        let a = bfs(&cluster, g(0), g(12), &BfsOptions::default()).unwrap();
        let b = bfs(
            &cluster,
            g(0),
            g(12),
            &BfsOptions {
                visited: VisitedKind::External,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a.path_length, b.path_length);
        assert_eq!(a.path_length, Some(12));
    }

    #[test]
    fn dead_storage_filter_is_a_typed_error_not_a_hang() {
        use datacutter::{FaultKind, FaultPlan};
        use mssg_types::GraphStorageError;
        let cluster = build_cluster(
            "deadpeer",
            2,
            BackendKind::HashMap,
            path_edges(12),
            DeclusterKind::VertexHash,
        );
        // Kill one BFS storage filter on its first port operation. The
        // surviving peer blocks waiting for that peer's ROUND_DONE, which
        // would classically hang forever; the stream deadline turns it
        // into a typed error instead.
        let start = std::time::Instant::now();
        let err = bfs(
            &cluster,
            g(0),
            g(12),
            &BfsOptions {
                recv_timeout: Some(Duration::from_secs(2)),
                fault_plan: Some(FaultPlan::new().inject("bfs", Some(1), 1, FaultKind::Panic)),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                GraphStorageError::FilterFailed(_) | GraphStorageError::Timeout(_)
            ),
            "got: {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "search must give up quickly, took {:?}",
            start.elapsed()
        );
        // The search is read-only and idempotent: simply retrying without
        // the fault succeeds.
        let ok = bfs(&cluster, g(0), g(12), &BfsOptions::default()).unwrap();
        assert_eq!(ok.path_length, Some(12));
    }

    #[test]
    fn metrics_are_plausible() {
        let cluster = build_cluster(
            "metrics",
            2,
            BackendKind::HashMap,
            path_edges(8),
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(0), g(8), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(8));
        assert!(m.edges_scanned >= 8, "scanned {}", m.edges_scanned);
        assert!(m.vertices_visited >= 8);
        assert!(m.rounds >= 8);
        assert!(m.edges_per_sec() > 0.0);
    }

    #[test]
    fn db_filter_equivalent_and_reduces_traffic() {
        // The fused getAdjacencyListUsingMetadata path must return the
        // same shortest paths while routing fewer fringe vertices.
        let mut edges = {
            let mut x = 91u64;
            let mut es = Vec::new();
            for _ in 0..800 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = x % 60;
                let b = (x >> 19) % 60;
                if a != b {
                    es.push(Edge::of(a, b));
                }
            }
            es
        };
        // A second component: a destination the search can never reach.
        edges.push(Edge::of(100, 101));
        let plain = build_cluster(
            "dbf-plain",
            3,
            BackendKind::HashMap,
            edges.clone(),
            DeclusterKind::VertexHash,
        );
        let filtered = build_cluster(
            "dbf-filtered",
            3,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        let filter_on = BfsOptions {
            db_filter: true,
            ..Default::default()
        };
        for dest in [7u64, 23, 59] {
            let a = bfs(&plain, g(0), g(dest), &BfsOptions::default()).unwrap();
            let b = bfs(&filtered, g(0), g(dest), &filter_on).unwrap();
            assert_eq!(a.path_length, b.path_length, "dest {dest}");
        }
        // Scanned entries are compared on the unreachable destination
        // only: there both searches traverse the whole component, while
        // on a reachable one the count depends on which peer's FOUND ends
        // the search first.
        let a = bfs(&plain, g(0), g(101), &BfsOptions::default()).unwrap();
        let b = bfs(&filtered, g(0), g(101), &filter_on).unwrap();
        assert_eq!((a.path_length, b.path_length), (None, None));
        assert!(
            b.edges_scanned <= a.edges_scanned,
            "filter must not increase scanned entries ({} vs {})",
            b.edges_scanned,
            a.edges_scanned
        );
        // The per-query metadata reset means a second round of identical
        // queries must behave identically (no marks leak between queries).
        let again = bfs(&filtered, g(0), g(23), &filter_on).unwrap();
        let reference = bfs(&plain, g(0), g(23), &BfsOptions::default()).unwrap();
        assert_eq!(again.path_length, reference.path_length);
    }

    #[test]
    fn grdb_and_hashmap_clusters_answer_identically() {
        // grDB hands back a fringe's neighbours in block order, HashMap in
        // fringe order: no search variant may depend on which.
        let mut x = 0x0016_5eed_u64;
        let mut below = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        // Skewed sources: low ids are hubs whose chains climb grDB's levels.
        let mut edges = Vec::new();
        for _ in 0..1500 {
            let span = below(300) + 1;
            let (a, b) = (below(span), below(300));
            if a != b {
                edges.push(Edge::of(a, b));
            }
        }
        edges.push(Edge::of(1000, 1001)); // A component no search reaches.
        let cluster = |tag: &str, kind: BackendKind| {
            build_cluster(tag, 2, kind, edges.clone(), DeclusterKind::VertexHash)
        };
        let grdb = cluster("agree-grdb", BackendKind::Grdb);
        let hash = cluster("agree-hash", BackendKind::HashMap);
        let variants = [
            BfsOptions::default(),
            BfsOptions {
                record_parents: true,
                ..Default::default()
            },
            BfsOptions {
                db_filter: true,
                ..Default::default()
            },
            BfsOptions {
                mode: BfsMode::Pipelined { threshold: 16 },
                ..Default::default()
            },
        ];
        for pair in 0..50 {
            let source = g(below(300));
            let dest = if pair % 10 == 9 {
                g(1001)
            } else {
                g(below(300))
            };
            for opts in &variants {
                let a = bfs(&grdb, source, dest, opts).unwrap();
                let b = bfs(&hash, source, dest, opts).unwrap();
                assert_eq!(
                    a.path_length, b.path_length,
                    "{source:?} -> {dest:?} under {opts:?}"
                );
                // Ties may pick different parents; the path's length may not.
                assert_eq!(a.path.map(|p| p.len()), b.path.map(|p| p.len()));
            }
        }
    }

    #[test]
    fn path_reconstruction_on_path_graph() {
        let cluster = build_cluster(
            "parents-path",
            3,
            BackendKind::HashMap,
            path_edges(8),
            DeclusterKind::VertexHash,
        );
        let m = bfs(
            &cluster,
            g(0),
            g(8),
            &BfsOptions {
                record_parents: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(m.path_length, Some(8));
        assert_eq!(m.path, Some((0..=8).map(g).collect::<Vec<_>>()));
    }

    #[test]
    fn path_reconstruction_is_a_valid_shortest_path() {
        let edges = {
            let mut x = 13u64;
            let mut es = Vec::new();
            for _ in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = x % 70;
                let b = (x >> 21) % 70;
                if a != b {
                    es.push(Edge::of(a, b));
                }
            }
            es
        };
        let edge_set: std::collections::HashSet<(u64, u64)> = edges
            .iter()
            .flat_map(|e| [(e.src.raw(), e.dst.raw()), (e.dst.raw(), e.src.raw())])
            .collect();
        let cluster = build_cluster(
            "parents-random",
            4,
            BackendKind::Grdb,
            edges,
            DeclusterKind::VertexHash,
        );
        for dest in [9u64, 33, 69] {
            let m = bfs(
                &cluster,
                g(0),
                g(dest),
                &BfsOptions {
                    record_parents: true,
                    ..Default::default()
                },
            )
            .unwrap();
            let Some(len) = m.path_length else { continue };
            let path = m.path.expect("path recorded when found");
            assert_eq!(path.len() as u32, len + 1, "dest {dest}");
            assert_eq!(path[0], g(0));
            assert_eq!(*path.last().unwrap(), g(dest));
            for w in path.windows(2) {
                assert!(
                    edge_set.contains(&(w[0].raw(), w[1].raw())),
                    "dest {dest}: {:?}-{:?} is not an edge",
                    w[0],
                    w[1]
                );
            }
            // It is also shortest: same length without recording.
            let plain = bfs(&cluster, g(0), g(dest), &BfsOptions::default()).unwrap();
            assert_eq!(plain.path_length, Some(len));
        }
    }

    #[test]
    fn path_none_when_not_recording_or_unreachable() {
        let cluster = build_cluster(
            "parents-none",
            2,
            BackendKind::HashMap,
            path_edges(3),
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(0), g(3), &BfsOptions::default()).unwrap();
        assert!(m.path.is_none());
        let m = bfs(
            &cluster,
            g(0),
            g(999),
            &BfsOptions {
                record_parents: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(m.path_length, None);
        assert!(m.path.is_none());
        // Source == dest still yields the trivial path.
        let m = bfs(
            &cluster,
            g(2),
            g(2),
            &BfsOptions {
                record_parents: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(m.path, Some(vec![g(2)]));
    }

    #[test]
    fn level_spans_cover_every_round() {
        let dir = tmpdir("spans");
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        ingest(
            &mut cluster,
            path_edges(6).into_iter(),
            &IngestOptions::default(),
        )
        .unwrap();
        let telemetry = mssg_obs::Telemetry::enabled();
        cluster.set_telemetry(telemetry.clone());
        let m = bfs(&cluster, g(0), g(6), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(6));

        let spans = telemetry.tracer.finished_spans();
        let levels: Vec<_> = spans.iter().filter(|s| s.name == "bfs.level").collect();
        for level in 1..=6u64 {
            assert!(
                levels.iter().any(|s| s.field_u64("level") == Some(level)),
                "no bfs.level span for level {level}"
            );
        }
        // Every level span carries its frontier size and nests under the
        // runtime's per-copy span.
        assert!(levels.iter().all(|s| s.field_u64("frontier").is_some()));
        assert!(levels.iter().all(|s| s.path == "filter.run;bfs.level"));
        // The unified report has the per-copy breakdown too.
        assert_eq!(m.telemetry.filter("bfs").len(), 2);
    }

    #[test]
    fn single_node_cluster_works() {
        let cluster = build_cluster(
            "single",
            1,
            BackendKind::Grdb,
            path_edges(5),
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(0), g(5), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(5));
    }

    #[test]
    fn hub_graph_found_in_two_rounds() {
        // Star: 0 connected to 1..=50, dest 50 reachable via hub in 2 hops
        // from any leaf.
        let edges: Vec<Edge> = (1..=50).map(|i| Edge::of(0, i)).collect();
        let cluster = build_cluster(
            "hub",
            4,
            BackendKind::Grdb,
            edges,
            DeclusterKind::VertexHash,
        );
        let m = bfs(&cluster, g(3), g(42), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(2));
        assert!(m.rounds <= 3);
    }
}
