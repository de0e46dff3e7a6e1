//! Parallel out-of-core breadth-first search between two vertices —
//! Algorithm 1 (`oocBFS`) and the pipelined Algorithm 2 (`pOOCBFS`) of
//! thesis §4.2, run from both ends.
//!
//! The search grows two sides, one from the source and one from the
//! destination, each with its own visited set and frontier. A round expands
//! one side by a level: the side whose global frontier has fewer vertices,
//! and on a tie the side that did not expand last round — the source, in
//! round 1 (Pohl's bidirectional search, with the per-round choice by
//! frontier size of Beamer et al.'s direction-optimising BFS). A **meet** is
//! a vertex that its owner accepts as fresh on the expanding side and
//! already holds on the other; the round number is then the path length. A
//! side that runs out of fresh vertices ends a search whose ends are not
//! connected.
//!
//! The search is a `superstep` program (DESIGN.md §10.6), one copy per
//! back-end node with that node's GraphDB, run as a job on one of the
//! cluster's resident engines, and a round has two phases:
//!
//! 1. **the level**: fringe batches to the vertices' owners, then a marker;
//! 2. **the tally**: a marker with the number of fresh vertices the copy
//!    accepted — summed, the side's next frontier size — or, from a copy
//!    that met the other side, `FOUND` with the meet vertex in its place.
//!
//! An owner sees a meet only once it has every batch of the level, so a
//! copy sends `FOUND` only after every copy's level marker is in, and a
//! copy still receiving the level keeps it until its own tally. Every copy
//! expands and receives the whole level that meets and none expands past
//! it: the entries a search scans do not depend on message timing.
//!
//! # The level kernel
//!
//! A level is one `expand_fringe` of the expanding side's frontier into a
//! reused [`AdjBuffer`], then one kernel over that buffer's slice, in place
//! (DESIGN.md §10.5):
//!
//! 1. **filter** the slice through the side's visited set in one call,
//!    [`VisitedSet::visit_new`], into a reused `fresh` vector;
//! 2. **route** `fresh`: a vertex this copy owns goes straight into the
//!    side's next frontier, any other joins the pending batch of its owner.
//!
//! Nothing is decided per adjacency entry outside `visit_new`'s own loop:
//! no trait call, no `Result`, no second copy of the level. Meet detection
//! is one [`VisitedSet::first_visited`] call per round over the vertices
//! the copy accepted. This is the search's one expansion path: a search
//! answers the path *length* (Algorithm 1's output), so nothing is tracked
//! per fringe vertex and every level is one `expand_fringe` call.
//!
//! Fringe routing reads one function, the cluster placement's
//! [`owner`](crate::Declustering::owner), which covers the three
//! distribution cases of Algorithm 1:
//!
//! - **vertex granularity + globally known mapping** (`GID % p`): fringe
//!   vertices are sent straight to their owners,
//! - **vertex granularity + first-come map**: likewise, to the owners the
//!   round-robin ingestion assigned,
//! - **edge granularity**: no one node owns a vertex, so the fringe is
//!   broadcast to all processors, and every processor owns every vertex.
//!
//! Algorithm 2 differs only in the send discipline: the kernel runs over
//! `threshold`-sized chunks of the slice, a batch goes out as soon as it
//! reaches `threshold` vertices, and waiting messages are drained between
//! chunks (lines 16–27 of the listing), overlapping communication with the
//! remaining expansion.

use crate::cluster::{MssgCluster, Node};
use crate::decluster::Declustering;
use crate::superstep;
use crate::telemetry::TelemetryReport;
use crate::visited::{ExternalVisited, PagedBitmap, VisitedKind, VisitedSet};
use datacutter::superstep::{one_word, records, Barrier, Peers, Phase};
use datacutter::DataBuffer;
use mssg_types::{AdjBuffer, Gid, Meta, MetaOp, Result, UNVISITED};
use std::cmp::Ordering;
use std::convert::Infallible;
use std::ops::ControlFlow;
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
    /// Visited-structure choice (in memory, or Figures 5.8/5.9's external
    /// one, kept by each copy under its node's `<node dir>/scratch` in
    /// files of the engine that runs the search).
    pub visited: VisitedKind,
    /// Push visited filtering down into the storage engine: locally
    /// visited vertices are marked in the GraphDB's per-vertex metadata
    /// word, and fringe expansion asks for "neighbours whose metadata ≠
    /// visited" — the fused `getAdjacencyListUsingMetadata` path of
    /// Listing 3.1. Reduces routed traffic; results are identical. A
    /// search's marks are its own and are cleared however it ends; a
    /// search running beside another may find some of its marks cleared,
    /// which costs scanned entries, never answers.
    pub db_filter: bool,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions {
            mode: BfsMode::Standard,
            visited: VisitedKind::InMemory,
            db_filter: false,
        }
    }
}

/// Measurements from one search.
#[derive(Clone, Debug)]
pub struct SearchMetrics {
    /// Shortest path length in edges, if the destination was reached.
    pub path_length: Option<u32>,
    /// Rounds executed, each of which expands one side by a level: a
    /// search that finds the destination takes one round per edge of the
    /// path; one that does not stops in the round its smaller side runs
    /// out of fresh vertices.
    pub rounds: u32,
    /// Aggregate adjacency entries scanned over both sides' levels, the
    /// level that meets included whole — the numerator of the paper's
    /// edges/s metric (Figures 5.7, 5.9).
    pub edges_scanned: u64,
    /// Vertices marked visited across all processors, on both sides.
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

/// A round's first phase, the level: fringe batches of vertices, then a
/// marker.
pub(crate) const LEVEL: Phase = Phase::nth(0);
/// A round's second phase: a marker with the number of fresh vertices the
/// copy accepted, or in its place `FOUND`, the meet vertex in one word.
pub(crate) const TALLY: Phase = Phase::nth(1);
pub(crate) const KINDS: u64 = 4;

/// One copy's share of a search's result.
struct Outcome {
    /// Where the sides met, if they did.
    met: Option<Gid>,
    edges_scanned: u64,
    vertices_visited: u64,
    rounds: u32,
}

/// Runs a BFS from `source` to `dest` over the cluster's stored graph.
pub fn bfs(
    cluster: &MssgCluster,
    source: Gid,
    dest: Gid,
    options: &BfsOptions,
) -> Result<SearchMetrics> {
    if source == dest {
        return Ok(SearchMetrics {
            path_length: Some(0),
            rounds: 0,
            edges_scanned: 0,
            vertices_visited: 1,
            telemetry: TelemetryReport::default(),
        });
    }
    let search = BfsFilter {
        visited_kind: options.visited,
        placement: cluster.placement().clone(),
        ends: [source, dest],
        mode: options.mode,
        db_filter: options.db_filter,
    };
    let (copies, telemetry) =
        superstep::run(cluster, "bfs", KINDS, move |peers, node, scratch| {
            search.run(peers, node, scratch)
        })?;

    let met = copies.iter().find_map(|c| c.met);
    let rounds = copies.iter().map(|c| c.rounds).max().unwrap_or(0);
    let path_length = met.map(|_| rounds);
    let edges_scanned = copies.iter().map(|c| c.edges_scanned).sum();
    let vertices_visited = copies.iter().map(|c| c.vertices_visited).sum();
    Ok(SearchMetrics {
        path_length,
        rounds,
        edges_scanned,
        vertices_visited,
        telemetry,
    })
}

/// The search every copy of the `bfs` filter runs.
struct BfsFilter {
    visited_kind: VisitedKind,
    /// A snapshot of the cluster's placement: where each vertex's
    /// adjacency lives, or `None` where every node holds part of it.
    placement: Declustering,
    /// Where each side starts: the source, then the destination.
    ends: [Gid; 2],
    mode: BfsMode,
    db_filter: bool,
}

/// What an engine copy keeps between searches and lends to each
/// (DESIGN.md §10.5): the number of its engine, both sides' in-memory
/// visited sets, the level kernel's vectors, both frontiers, the adjacency
/// buffer and the `db_filter` marks. A search resets what it uses when it
/// starts, so nothing of an earlier search is read; a warm search
/// allocates only its messages. The external visited sets are files of
/// their own search.
#[derive(Default)]
pub(crate) struct Scratch {
    /// What the search names its marks and its files by: concurrent
    /// searches run on distinct engines, so they never share one.
    engine: u64,
    visited: [PagedBitmap; 2],
    fresh: Vec<Gid>,
    incoming: Vec<Gid>,
    next: Vec<Gid>,
    batches: Vec<Vec<u64>>,
    frontiers: [Vec<Gid>; 2],
    adj: AdjBuffer,
    marked: Vec<Gid>,
}

impl Scratch {
    /// An empty scratch for a copy of engine number `engine`.
    pub(crate) fn new(engine: u64) -> Scratch {
        Scratch {
            engine,
            ..Scratch::default()
        }
    }
}

/// The `db_filter` marks of one copy's search: the metadata words of its
/// two sides, and the vertices it marked in its node's engine. Dropping it
/// — the search done, failed, aborted or panicking — restores those
/// vertices to `UNVISITED`, so the next search starts from level[v] = ∞,
/// as Algorithm 1 requires.
struct Marks<'s> {
    node: &'s Node,
    /// By side. A vertex holds one at a time: the sides' visited sets are
    /// disjoint until they meet, and the search ends there.
    words: [Meta; 2],
    marked: &'s mut Vec<Gid>,
}

impl<'s> Marks<'s> {
    /// Searches that run at once run on distinct engines, so marks named
    /// after the engine are never shared; none is `UNVISITED`.
    fn new(node: &'s Node, engine: u64, marked: &'s mut Vec<Gid>) -> Marks<'s> {
        let base = (engine % (1 << 29)) as Meta * 2;
        Marks {
            node,
            words: [base + 1, base + 2],
            marked,
        }
    }

    /// Restores every marked vertex to `UNVISITED`.
    fn clear(&mut self) -> Result<()> {
        let mut db = self.node.db();
        for v in self.marked.drain(..) {
            db.set_metadata(v, UNVISITED)?;
        }
        Ok(())
    }
}

impl Drop for Marks<'_> {
    fn drop(&mut self) {
        // A search that ends well has cleared its marks and reported any
        // error doing so; one that failed reports its own.
        let _ = self.clear();
    }
}

/// One processor's state across the rounds of a search, on its copy's
/// [`Scratch`]. What a side owns is indexed by it: 0 grows from the
/// source, 1 from the destination.
struct Traversal<'s> {
    me: usize,
    visited: [&'s mut dyn VisitedSet; 2],
    /// What `db_filter` marked in the engine, if it is on.
    marks: Option<Marks<'s>>,
    /// Scratch: what the last `visit_new` call found fresh.
    fresh: &'s mut Vec<Gid>,
    /// Scratch: the vertices of the fringe message being received.
    incoming: &'s mut Vec<Gid>,
    /// The expanding side's next frontier: fresh vertices this copy owns.
    next: &'s mut Vec<Gid>,
    /// Pending fringe words per destination; the last is the broadcast
    /// batch.
    batches: &'s mut Vec<Vec<u64>>,
    visited_count: u64,
}

impl Traversal<'_> {
    /// Books the vertices in `fresh` as visited on `side` here: counts them
    /// and, under `db_filter`, marks them in the engine.
    fn book_fresh(&mut self, side: usize) -> Result<()> {
        self.visited_count += self.fresh.len() as u64;
        if let Some(marks) = &mut self.marks {
            let mut db = marks.node.db();
            for &v in self.fresh.iter() {
                db.set_metadata(v, marks.words[side])?;
            }
            marks.marked.extend_from_slice(self.fresh);
        }
        Ok(())
    }

    /// Takes one fringe batch of `side`'s level from a peer: this copy owns
    /// every vertex in it.
    fn receive(&mut self, msg: &DataBuffer, side: usize) -> Result<ControlFlow<Infallible>> {
        self.incoming.clear();
        self.incoming
            .extend(records::<1>(msg)?.map(|[v]| Gid::from_raw(v)));
        self.fresh.clear();
        self.visited[side].visit_new(self.incoming, self.fresh)?;
        self.book_fresh(side)?;
        self.next.extend_from_slice(self.fresh);
        Ok(ControlFlow::Continue(()))
    }
}

impl BfsFilter {
    /// The level kernel over `candidates`, the adjacency entries of
    /// `side`'s frontier: filter through the side's visited set, route what
    /// is fresh. The pipelined mode runs it chunk by chunk and takes
    /// waiting messages in between.
    fn expand_slice(
        &self,
        peers: &mut Peers<'_>,
        t: &mut Traversal,
        round: u32,
        side: usize,
        candidates: &[Gid],
    ) -> Result<()> {
        let (chunk, pipelined) = match self.mode {
            BfsMode::Standard => (usize::MAX, false),
            BfsMode::Pipelined { threshold } => (threshold.max(1), true),
        };
        for slice in candidates.chunks(chunk) {
            t.fresh.clear();
            t.visited[side].visit_new(slice, t.fresh)?;
            self.route_fresh(peers, t, round, side)?;
            if pipelined {
                peers.poll(LEVEL, round, &mut |msg| t.receive(msg, side))?;
            }
        }
        Ok(())
    }

    /// Routes the vertices in `t.fresh`: one this copy owns goes straight
    /// into the next fringe, any other into its owner's pending batch —
    /// flushed early in pipelined mode.
    fn route_fresh(
        &self,
        peers: &mut Peers<'_>,
        t: &mut Traversal,
        round: u32,
        side: usize,
    ) -> Result<()> {
        t.book_fresh(side)?;
        let broadcast_slot = t.batches.len() - 1;
        let flush_at = match self.mode {
            BfsMode::Standard => usize::MAX,
            BfsMode::Pipelined { threshold } => threshold,
        };
        for i in 0..t.fresh.len() {
            let u = t.fresh[i];
            let target = self.placement.owner(u);
            if target.is_none_or(|owner| owner == t.me) {
                t.next.push(u);
            }
            if target != Some(t.me) {
                let slot = target.unwrap_or(broadcast_slot);
                t.batches[slot].push(u.raw());
                if t.batches[slot].len() >= flush_at {
                    self.flush_slot(peers, t, round, slot)?;
                }
            }
        }
        Ok(())
    }

    fn flush_slot(
        &self,
        peers: &mut Peers<'_>,
        t: &mut Traversal,
        round: u32,
        slot: usize,
    ) -> Result<()> {
        if t.batches[slot].is_empty() {
            return Ok(());
        }
        if slot == peers.copies() {
            peers.send_all(LEVEL.data, round, &t.batches[slot])?;
        } else {
            peers.send(slot, LEVEL.data, round, &t.batches[slot])?;
        }
        t.batches[slot].clear();
        Ok(())
    }

    /// One copy's search over its `node`'s GraphDB, on the copy's
    /// `scratch`.
    fn run(&self, peers: &mut Peers<'_>, node: &Node, scratch: &mut Scratch) -> Result<Outcome> {
        let me = peers.me();
        let Scratch {
            engine,
            visited: [visited_0, visited_1],
            fresh,
            incoming,
            next,
            batches,
            frontiers,
            adj,
            marked,
        } = scratch;
        let mut external: [ExternalVisited; 2];
        let visited: [&mut dyn VisitedSet; 2] = match self.visited_kind {
            VisitedKind::InMemory => {
                visited_0.reset();
                visited_1.reset();
                [visited_0, visited_1]
            }
            VisitedKind::External => {
                let dir = node.dir.join("scratch");
                std::fs::create_dir_all(&dir)?;
                let open = |side: usize| {
                    let name = format!("visited-{engine}-{side}.db");
                    ExternalVisited::create(&dir.join(name), Arc::clone(&node.stats))
                };
                external = [open(0)?, open(1)?];
                let [external_0, external_1] = &mut external;
                [external_0, external_1]
            }
        };
        // A search that ended at a meet left its next frontier.
        next.clear();
        for frontier in frontiers.iter_mut() {
            frontier.clear();
        }
        batches.resize_with(peers.copies() + 1, Vec::new);
        let mut t = Traversal {
            me,
            visited,
            marks: self.db_filter.then(|| Marks::new(node, *engine, marked)),
            fresh,
            incoming,
            next,
            batches,
            visited_count: 0,
        };
        let mut edges_scanned = 0u64;
        let mut met: Option<Gid> = None;
        let mut round: u32 = 1;

        // Initialisation: each end's owner (everyone, when no one node owns
        // it) seeds its side. Global frontier sizes are as the tallies count
        // them: every copy holding a vertex counts it.
        let mut sizes = [1; 2];
        for (side, end) in self.ends.into_iter().enumerate() {
            let owner = self.placement.owner(end);
            if owner.is_none_or(|owner| owner == me) {
                t.fresh.clear();
                t.visited[side].visit_new(&[end], t.fresh)?;
                t.book_fresh(side)?;
                frontiers[side].push(end);
            }
            if owner.is_none() {
                sizes[side] = peers.copies() as u64;
            }
        }
        // The side that expanded last round: round 1's tie goes to the
        // source.
        let mut side = 1;

        while round <= superstep::MAX_ROUNDS {
            side = match sizes[0].cmp(&sizes[1]) {
                Ordering::Less => 0,
                Ordering::Greater => 1,
                Ordering::Equal => 1 - side,
            };
            let visited_at_level_start = t.visited_count;
            let mut level_span = peers
                .telemetry()
                .tracer
                .span("bfs.level")
                .with("level", round as u64)
                .with("side", side as u64)
                .with("frontier", frontiers[side].len() as u64);
            // Under `db_filter` the engine filters out neighbours visited
            // here on this side while its blocks are hot (Listing 3.1's
            // fused path).
            let (meta, op) = match &t.marks {
                Some(marks) => (marks.words[side], MetaOp::NotEqual),
                None => (0, MetaOp::Ignore),
            };

            // ---- the level: expansion ----
            if !frontiers[side].is_empty() {
                adj.clear();
                node.db().expand_fringe(&frontiers[side], adj, meta, op)?;
                edges_scanned += adj.len() as u64;
                self.expand_slice(peers, &mut t, round, side, adj.as_slice())?;
            }
            for slot in 0..t.batches.len() {
                self.flush_slot(peers, &mut t, round, slot)?;
            }
            peers.send_all(LEVEL.done, round, &[0])?;

            // ---- the level: receive ----
            match peers.barrier(LEVEL, round, &mut |msg| t.receive(msg, side))? {
                Barrier::Complete(_) => {}
                Barrier::Stopped(never) => match never {},
            }
            // Visited hits this level (local marks from any peer's fringe).
            level_span.record("visited", t.visited_count - visited_at_level_start);

            // ---- the tally ----
            if let Some(meet) = t.visited[1 - side].first_visited(t.next)? {
                peers.send_all(TALLY.data, round, &[meet.raw()])?;
                met = Some(meet);
                break;
            }
            let accepted = t.next.len() as u64;
            peers.send_all(TALLY.done, round, &[accepted])?;
            let mut found = |msg: &DataBuffer| -> Result<ControlFlow<Gid>> {
                Ok(ControlFlow::Break(Gid::from_raw(one_word(msg)?)))
            };
            match peers.barrier(TALLY, round, &mut found)? {
                Barrier::Complete(peers_accepted) => sizes[side] = peers_accepted + accepted,
                Barrier::Stopped(meet) => {
                    met = Some(meet);
                    break;
                }
            }
            if sizes[side] == 0 {
                break; // The side ran out: the ends are not connected.
            }
            std::mem::swap(&mut frontiers[side], t.next);
            t.next.clear();
            round += 1;
        }

        if let Some(marks) = &mut t.marks {
            marks.clear()?;
        }
        Ok(Outcome {
            met,
            edges_scanned,
            vertices_visited: t.visited_count,
            rounds: round.min(superstep::MAX_ROUNDS),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::ingest::{ingest, DeclusterKind, IngestOptions};
    use mssg_types::Edge;
    use std::collections::{HashMap, HashSet};
    use std::path::PathBuf;
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
    fn vertex_rr_routes_by_the_placement() {
        let cluster = build_cluster(
            "rrmap",
            3,
            BackendKind::HashMap,
            path_edges(10),
            DeclusterKind::VertexRoundRobin,
        );
        // First seen, first dealt: 0, 1, 2, … go to nodes 0, 1, 2, 0, …
        let placement = cluster.placement();
        assert_eq!(placement.owner(g(4)), Some(1));
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

    /// A node's GraphDB that dies at its `dies_at`-th fringe expansion, as
    /// a storage filter that crashes mid-search does.
    struct DiesMidSearch {
        node: Arc<Node>,
        expansions: usize,
        dies_at: usize,
    }

    impl graphdb::GraphDb for DiesMidSearch {
        fn store_edges(&mut self, edges: &[Edge]) -> Result<()> {
            self.node.db().store_edges(edges)
        }
        fn get_metadata(&mut self, v: Gid) -> Result<Meta> {
            self.node.db().get_metadata(v)
        }
        fn set_metadata(&mut self, v: Gid, meta: Meta) -> Result<()> {
            self.node.db().set_metadata(v, meta)
        }
        fn read_fringe(&mut self, fringe: &[Gid], out: &mut AdjBuffer) -> Result<()> {
            self.expansions += 1;
            assert!(self.expansions < self.dies_at, "the storage filter died");
            self.node.db().read_fringe(fringe, out)
        }
        fn local_vertices(&mut self) -> Result<Vec<Gid>> {
            self.node.db().local_vertices()
        }
        fn stored_entries(&self) -> u64 {
            self.node.db().stored_entries()
        }
        fn backend_name(&self) -> &'static str {
            "dies mid-search"
        }
    }

    /// Runs the search of `source` → `dest` with copy 1's storage filter
    /// dying at its `dies_at`-th expansion.
    fn search_where_copy_1_dies(
        cluster: &MssgCluster,
        dest: u64,
        options: &BfsOptions,
        dies_at: usize,
    ) -> Result<()> {
        let search = BfsFilter {
            visited_kind: options.visited,
            placement: cluster.placement().clone(),
            ends: [g(0), g(dest)],
            mode: options.mode,
            db_filter: options.db_filter,
        };
        let victim = Arc::clone(&cluster.members[1]);
        superstep::run(cluster, "bfs", KINDS, move |peers, node, scratch| {
            if peers.me() != 1 {
                return search.run(peers, node, scratch);
            }
            let dying = Box::new(DiesMidSearch {
                node: Arc::clone(&victim),
                expansions: 0,
                dies_at,
            });
            search.run(peers, &Node::beside(node, dying), scratch)
        })
        .map(drop)
    }

    #[test]
    fn dead_storage_filter_is_a_typed_error_not_a_hang() {
        use mssg_types::GraphStorageError;
        let cluster = build_cluster(
            "deadpeer",
            2,
            BackendKind::HashMap,
            path_edges(12),
            DeclusterKind::VertexHash,
        );
        // One BFS storage filter dies mid-search while its peer waits at a
        // barrier for its marker: the search fails at once, with the crash.
        let start = std::time::Instant::now();
        let err = search_where_copy_1_dies(&cluster, 12, &BfsOptions::default(), 2).unwrap_err();
        assert!(
            matches!(err, GraphStorageError::FilterFailed(_)),
            "got: {err}"
        );
        assert!(err.to_string().contains("died"), "got: {err}");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "search must give up at once, took {:?}",
            start.elapsed()
        );
        // The search is read-only and idempotent: simply retrying succeeds.
        let ok = bfs(&cluster, g(0), g(12), &BfsOptions::default()).unwrap();
        assert_eq!(ok.path_length, Some(12));
    }

    #[test]
    fn a_failed_db_filter_search_leaves_no_marks() {
        let cluster = build_cluster(
            "dbf-failed",
            2,
            BackendKind::HashMap,
            path_edges(12),
            DeclusterKind::VertexHash,
        );
        let filter_on = BfsOptions {
            db_filter: true,
            ..Default::default()
        };
        for dies_at in 1..=4 {
            assert!(search_where_copy_1_dies(&cluster, 12, &filter_on, dies_at).is_err());
            for options in [&filter_on, &BfsOptions::default()] {
                let m = bfs(&cluster, g(0), g(12), options).unwrap();
                assert_eq!(
                    m.path_length,
                    Some(12),
                    "after dying at {dies_at}, {options:?}"
                );
            }
        }
    }

    #[test]
    fn concurrent_db_filter_searches_answer_as_alone() {
        // Two callers mark the same engines at once; neither may take the
        // other's marks for its own.
        let cluster = build_cluster(
            "dbf-concurrent",
            2,
            BackendKind::HashMap,
            path_edges(40),
            DeclusterKind::VertexHash,
        );
        let filter_on = BfsOptions {
            db_filter: true,
            ..Default::default()
        };
        std::thread::scope(|scope| {
            for caller in 0..2u64 {
                let (cluster, filter_on) = (&cluster, &filter_on);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let (source, dest) = ((i + caller) % 10, 40 - (i * 7 + caller) % 10);
                        let m = bfs(cluster, g(source), g(dest), filter_on).unwrap();
                        assert_eq!(
                            m.path_length,
                            Some((dest - source) as u32),
                            "{source} -> {dest}"
                        );
                    }
                });
            }
        });
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
        let component = {
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
        // A copy of it, shifted to 100..160: a destination the search can
        // never reach, on a side as large as the source's.
        let shifted = component
            .iter()
            .map(|e| Edge::of(e.src.raw() + 100, e.dst.raw() + 100));
        let edges: Vec<Edge> = component.iter().copied().chain(shifted).collect();
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
        // Scanned entries are compared on the unreachable destination,
        // where the side that runs out has traversed its whole component.
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

    /// Every way a search can be asked to run, one option at a time.
    fn variants() -> Vec<BfsOptions> {
        vec![
            BfsOptions::default(),
            BfsOptions {
                mode: BfsMode::Pipelined { threshold: 16 },
                ..Default::default()
            },
            BfsOptions {
                db_filter: true,
                ..Default::default()
            },
            BfsOptions {
                visited: VisitedKind::External,
                ..Default::default()
            },
        ]
    }

    /// Algorithm 1's three distribution cases.
    const ROUTINGS: [DeclusterKind; 3] = [
        DeclusterKind::VertexHash,
        DeclusterKind::VertexRoundRobin,
        DeclusterKind::EdgeRoundRobin,
    ];

    /// A skewed 300-vertex graph (low ids are hubs whose chains climb
    /// grDB's levels) plus a component, {1000, 1001}, no search reaches.
    fn skewed_edges(below: &mut impl FnMut(u64) -> u64) -> Vec<Edge> {
        let mut edges = Vec::new();
        for _ in 0..1500 {
            let span = below(300) + 1;
            let (a, b) = (below(span), below(300));
            if a != b {
                edges.push(Edge::of(a, b));
            }
        }
        edges.push(Edge::of(1000, 1001));
        edges
    }

    /// Both directions of every edge, duplicates kept, as the engines store
    /// them.
    fn adjacency_of(edges: &[Edge]) -> HashMap<u64, Vec<u64>> {
        let mut adjacency: HashMap<u64, Vec<u64>> = HashMap::new();
        for e in edges {
            adjacency.entry(e.src.raw()).or_default().push(e.dst.raw());
            adjacency.entry(e.dst.raw()).or_default().push(e.src.raw());
        }
        adjacency
    }

    /// The two-sided search written out: each round expands, by a whole
    /// level, the side with the smaller frontier — on a tie the one that
    /// did not expand last round — and the search ends on a vertex fresh on
    /// that side and visited on the other, or when the side runs out.
    /// Returns the path length, the rounds and the entries scanned.
    fn two_sided(
        adjacency: &HashMap<u64, Vec<u64>>,
        source: u64,
        dest: u64,
    ) -> (Option<u32>, u32, u64) {
        if source == dest {
            return (Some(0), 0, 0);
        }
        let mut visited = [HashSet::from([source]), HashSet::from([dest])];
        let mut frontiers = [vec![source], vec![dest]];
        let (mut side, mut round, mut scanned) = (1, 0, 0);
        loop {
            round += 1;
            side = match frontiers[0].len().cmp(&frontiers[1].len()) {
                Ordering::Less => 0,
                Ordering::Greater => 1,
                Ordering::Equal => 1 - side,
            };
            let (mut next, mut met) = (Vec::new(), false);
            for v in &frontiers[side] {
                for &u in adjacency.get(v).into_iter().flatten() {
                    scanned += 1;
                    if visited[side].insert(u) {
                        met |= visited[1 - side].contains(&u);
                        next.push(u);
                    }
                }
            }
            if met || next.is_empty() {
                return (met.then_some(round), round, scanned);
            }
            frontiers[side] = next;
        }
    }

    fn xorshift(mut x: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        }
    }

    #[test]
    fn grdb_and_hashmap_clusters_answer_identically() {
        // grDB hands back a fringe's neighbours in block order, HashMap in
        // fringe order: no search variant, under no routing, may depend on
        // which — and both must agree with a BFS written out here.
        let mut below = xorshift(0x0016_5eed);
        let edges = skewed_edges(&mut below);
        let adjacency = adjacency_of(&edges);
        let reference = |source: u64| distances(&adjacency, source);
        for routing in ROUTINGS {
            let cluster = |kind: BackendKind| {
                let tag = format!("agree-{routing:?}-{}", kind.name());
                build_cluster(&tag, 3, kind, edges.clone(), routing)
            };
            let (grdb, hash) = (cluster(BackendKind::Grdb), cluster(BackendKind::HashMap));
            for pair in 0..15 {
                let source = below(300);
                let unreachable = pair % 3 == 2;
                let dest = if unreachable { 1001 } else { below(300) };
                let dist = reference(source);
                for opts in &variants() {
                    let a = bfs(&grdb, g(source), g(dest), opts).unwrap();
                    let b = bfs(&hash, g(source), g(dest), opts).unwrap();
                    let what = format!("{routing:?}: {source} -> {dest} under {opts:?}");
                    assert_eq!(a.path_length, dist.get(&dest).copied(), "grDB, {what}");
                    assert_eq!(b.path_length, a.path_length, "HashMap, {what}");
                    if !unreachable || source == dest {
                        continue;
                    }
                    // The destination's side, {1001, 1000}, holds 1, 1, then
                    // 0 vertices, so it is never the larger frontier: it
                    // expands in round 2 and runs out on its second
                    // expansion, in round 3 — or 4, when the source's first
                    // level is one vertex and the tie hands round 3 to the
                    // source. The engine's filter leaves every frontier as
                    // it is, so in every variant the rounds are the
                    // reference's, and so are the entries unless it filters.
                    let (_, rounds, entries) = two_sided(&adjacency, source, dest);
                    assert_eq!((a.rounds, b.rounds), (rounds, rounds), "{what}");
                    assert!(a.rounds <= 4, "{what}");
                    assert_eq!(a.edges_scanned, b.edges_scanned, "{what}");
                    if !opts.db_filter {
                        assert_eq!(a.edges_scanned, entries, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn two_sided_counts_match_the_reference() {
        // Which side each round expands, where the sides meet and where a
        // side runs out decide every count of a search: on every routing
        // and either engine they are the reference's, reachable or not.
        let mut below = xorshift(0x0028_5eed);
        let edges = skewed_edges(&mut below);
        let adjacency = adjacency_of(&edges);
        // Unreachable pairs run both ways: from {1000, 1001}, round 2 is a
        // tie of one-vertex frontiers.
        let pairs: Vec<(u64, u64)> = (0..15)
            .map(|pair| match pair % 6 {
                2 => (below(300), 1001),
                5 => (1001, below(300)),
                _ => (below(300), below(300)),
            })
            .collect();
        let mut both_sides_met = 0;
        for routing in ROUTINGS {
            for kind in [BackendKind::Grdb, BackendKind::HashMap] {
                let tag = format!("counts-{routing:?}-{}", kind.name());
                let cluster = build_cluster(&tag, 3, kind, edges.clone(), routing);
                for &(source, dest) in &pairs {
                    let m = bfs(&cluster, g(source), g(dest), &BfsOptions::default()).unwrap();
                    let want = two_sided(&adjacency, source, dest);
                    let what = format!("{routing:?}, {}: {source} -> {dest}", kind.name());
                    assert_eq!((m.path_length, m.rounds, m.edges_scanned), want, "{what}");
                    both_sides_met += usize::from(m.path_length.is_some_and(|len| len > 1));
                }
            }
        }
        assert!(both_sides_met > 0, "some pair needs both sides");
    }

    #[test]
    fn no_program_sends_to_itself() {
        // A copy's own vertices go straight into its next fringe, and it
        // does not tell itself its markers or FOUND: every message of a
        // search crosses nodes, under every routing, in every mode.
        let mut below = xorshift(0x5e1f);
        let edges = skewed_edges(&mut below);
        // The other analyses handle what they own in place too, and still
        // agree with their sequential oracles.
        let (components, vertices) = crate::components::tests::union_find_oracle(&edges);
        let (weight, forest_edges, trees) = crate::msf::tests::kruskal(&edges);
        let degrees = graphgen::degree_stats(edges.iter().copied(), 1002);
        for routing in ROUTINGS {
            let tag = format!("noself-{routing:?}");
            let cluster = build_cluster(&tag, 3, BackendKind::HashMap, edges.clone(), routing);
            for opts in &variants() {
                for dest in [150 + below(150), 1001] {
                    let m = bfs(&cluster, g(below(150)), g(dest), opts).unwrap();
                    let net = &m.telemetry.net;
                    assert_eq!(net.local_msgs, 0, "{routing:?} under {opts:?}");
                    assert!(net.total_msgs() > 0, "peers still hear the markers");
                }
            }
            let cc = crate::connected_components(&cluster).unwrap();
            assert_eq!(cc.telemetry.net.local_msgs, 0, "components, {routing:?}");
            assert_eq!(
                (cc.components as usize, cc.vertices as usize),
                (components, vertices),
                "{routing:?}"
            );
            let msf = crate::minimum_spanning_forest(&cluster).unwrap();
            assert_eq!(msf.telemetry.net.local_msgs, 0, "MSF, {routing:?}");
            assert_eq!(
                (msf.total_weight, msf.edges.len(), msf.components as usize),
                (weight, forest_edges, trees),
                "{routing:?}"
            );
            let deg = crate::degree_distribution(&cluster).unwrap();
            assert_eq!(deg.telemetry.net.local_msgs, 0, "degrees, {routing:?}");
            assert_eq!(
                (deg.vertices, deg.max_degree, deg.degree_sum),
                (degrees.vertices, degrees.max_degree, 2 * degrees.und_edges),
                "{routing:?}"
            );
            for r in [&cc.telemetry, &msf.telemetry, &deg.telemetry] {
                assert!(r.net.total_msgs() > 0, "peers still hear the markers");
            }
        }
    }

    /// Distances from `source` over its whole component.
    fn distances(adjacency: &HashMap<u64, Vec<u64>>, source: u64) -> HashMap<u64, u32> {
        let mut dist = HashMap::from([(source, 0u32)]);
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            for &u in adjacency.get(&v).into_iter().flatten() {
                if !dist.contains_key(&u) {
                    dist.insert(u, dist[&v] + 1);
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    #[test]
    fn one_engine_serves_every_search_of_a_cluster() {
        let cluster = build_cluster(
            "reuse",
            3,
            BackendKind::HashMap,
            path_edges(20),
            DeclusterKind::VertexHash,
        );
        for i in 0..200u64 {
            let (source, dest) = (i % 7, 20 - i % 5);
            let m = bfs(&cluster, g(source), g(dest), &BfsOptions::default()).unwrap();
            assert_eq!(m.path_length, Some((dest - source) as u32));
        }
        assert_eq!(cluster.engines.started(), 1);
    }

    #[test]
    fn back_to_back_searches_answer_as_the_reference_does() {
        // A search that meets ends on FOUND, and the copy that sends it
        // leaves its peers' last markers unread. The next search on the same
        // engine must not count them: every search answers, scans and
        // sends what it does alone.
        let mut below = xorshift(0x0b2b);
        let edges = skewed_edges(&mut below);
        let adjacency = adjacency_of(&edges);
        let pairs: Vec<(u64, u64)> = (0..40).map(|_| (below(300), below(300))).collect();
        let cluster = build_cluster(
            "b2b",
            3,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        let mut first_pass = Vec::new();
        for pass in 0..2 {
            for (i, &(source, dest)) in pairs.iter().enumerate() {
                let m = bfs(&cluster, g(source), g(dest), &BfsOptions::default()).unwrap();
                let what = format!("pass {pass}: {source} -> {dest}");
                let want = two_sided(&adjacency, source, dest);
                assert_eq!((m.path_length, m.rounds, m.edges_scanned), want, "{what}");
                let msgs = m.telemetry.net.total_msgs();
                if pass == 0 {
                    first_pass.push(msgs);
                } else {
                    assert_eq!(msgs, first_pass[i], "{what}: messages of this search alone");
                }
            }
        }
        assert_eq!(cluster.engines.started(), 1);
    }

    #[test]
    fn a_reused_engine_answers_as_a_fresh_cluster_does() {
        // An engine's copies keep their scratch from search to search: a
        // search after a larger one, in another mode, under the engine's
        // filter, or in memory after an external one, answers, scans,
        // visits and sends what it does on a cluster of its own.
        let mut below = xorshift(0x5c7a);
        let edges = skewed_edges(&mut below);
        let build = |tag: &str| {
            let edges = edges.clone();
            build_cluster(
                tag,
                3,
                BackendKind::HashMap,
                edges,
                DeclusterKind::VertexHash,
            )
        };
        let counts = |m: &SearchMetrics| {
            let net = &m.telemetry.net;
            let visits = (m.rounds, m.edges_scanned, m.vertices_visited);
            (m.path_length, visits, net.total_msgs(), net.total_bytes())
        };
        let cluster = build("reused");
        let variants = variants();
        for i in 0..12 {
            let source = below(300);
            let dest = if i % 3 == 2 { 1001 } else { below(300) };
            let opts = &variants[i % variants.len()];
            let what = format!("search {i}: {source} -> {dest} under {opts:?}");
            let alone = bfs(&build(&format!("alone-{i}")), g(source), g(dest), opts).unwrap();
            let reused = bfs(&cluster, g(source), g(dest), opts).unwrap();
            assert_eq!(counts(&reused), counts(&alone), "{what}");
        }
        assert_eq!(cluster.engines.started(), 1);
    }

    #[test]
    fn each_search_reports_its_own_job() {
        let cluster = build_cluster(
            "perjob",
            2,
            BackendKind::HashMap,
            path_edges(12),
            DeclusterKind::VertexHash,
        );
        let a = bfs(&cluster, g(0), g(12), &BfsOptions::default()).unwrap();
        let b = bfs(&cluster, g(0), g(12), &BfsOptions::default()).unwrap();
        assert!(a.telemetry.net.total_msgs() > 0);
        assert_eq!(b.telemetry.net.total_msgs(), a.telemetry.net.total_msgs());
        assert_eq!(b.telemetry.net.total_bytes(), a.telemetry.net.total_bytes());
        for t in [&a.telemetry, &b.telemetry] {
            let copies = t.filter("bfs");
            assert_eq!(copies.len(), 2);
            assert!(copies
                .iter()
                .all(|c| c.total <= t.elapsed && c.busy() <= c.total));
        }
    }

    #[test]
    fn concurrent_searches_and_components_answer_as_the_oracles_do() {
        // Four callers share one cluster, each on an engine of its own.
        let mut below = xorshift(0xc0c0);
        let edges = skewed_edges(&mut below);
        let adjacency = adjacency_of(&edges);
        let (components, vertices) = crate::components::tests::union_find_oracle(&edges);
        for kind in [BackendKind::HashMap, BackendKind::Grdb] {
            let tag = format!("concurrent-{}", kind.name());
            let cluster = build_cluster(&tag, 3, kind, edges.clone(), DeclusterKind::VertexHash);
            std::thread::scope(|scope| {
                for caller in 0..4u64 {
                    let (cluster, adjacency) = (&cluster, &adjacency);
                    scope.spawn(move || {
                        let mut below = xorshift(0x5eed + caller);
                        for call in 0..12 {
                            if (call + caller) % 4 == 0 {
                                let cc = crate::connected_components(cluster).unwrap();
                                assert_eq!(
                                    (cc.components as usize, cc.vertices as usize),
                                    (components, vertices)
                                );
                                continue;
                            }
                            let (source, dest) = (below(300), below(300));
                            let m =
                                bfs(cluster, g(source), g(dest), &BfsOptions::default()).unwrap();
                            let want = distances(adjacency, source).get(&dest).copied();
                            assert_eq!(m.path_length, want, "{source} -> {dest}");
                        }
                    });
                }
            });
            assert!(cluster.engines.started() <= 4, "{}", kind.name());
        }
    }

    #[test]
    fn concurrent_external_searches_keep_their_own_visited_files() {
        // The external visited sets are files under each node's scratch
        // directory: two searches at once must not share one.
        let mut below = xorshift(0xe7e7);
        let edges = skewed_edges(&mut below);
        let adjacency = adjacency_of(&edges);
        let cluster = build_cluster(
            "extconc",
            2,
            BackendKind::Grdb,
            edges,
            DeclusterKind::VertexHash,
        );
        let options = BfsOptions {
            visited: VisitedKind::External,
            ..Default::default()
        };
        std::thread::scope(|scope| {
            for caller in 0..2u64 {
                let (cluster, adjacency, options) = (&cluster, &adjacency, &options);
                scope.spawn(move || {
                    let mut below = xorshift(0xface + caller);
                    for _ in 0..10 {
                        let (source, dest) = (below(300), below(300));
                        let m = bfs(cluster, g(source), g(dest), options).unwrap();
                        let want = distances(adjacency, source).get(&dest).copied();
                        assert_eq!(m.path_length, want, "{source} -> {dest}");
                    }
                });
            }
        });
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
        assert_eq!((m.path_length, m.rounds), (Some(6), 6));

        let spans = telemetry.tracer.finished_spans();
        let levels: Vec<_> = spans.iter().filter(|s| s.name == "bfs.level").collect();
        // Every frontier is one vertex, so each round is a tie and the
        // sides alternate — the source's in odd rounds, the destination's
        // in even ones — until they meet at vertex 3.
        for level in 1..=6u64 {
            let side = 1 - level % 2;
            assert!(
                levels
                    .iter()
                    .any(|s| s.field_u64("level") == Some(level)
                        && s.field_u64("side") == Some(side)),
                "no bfs.level span for level {level} on side {side}"
            );
        }
        // Every level span carries its frontier size and nests under the
        // engine copy's job span, inside the runtime's per-copy span.
        assert!(levels.iter().all(|s| s.field_u64("frontier").is_some()));
        assert!(levels
            .iter()
            .all(|s| s.path == "filter.run;superstep.job;bfs.level"));
        let jobs: Vec<_> = spans.iter().filter(|s| s.name == "superstep.job").collect();
        assert_eq!(jobs.len(), 2, "one job span per copy");
        assert!(jobs.iter().all(|s| s.field_u64("job") == Some(1)));
        // The unified report has the per-copy breakdown too.
        assert_eq!(m.telemetry.filter("bfs").len(), 2);
    }

    #[test]
    fn search_metrics_need_enabled_telemetry() {
        let mut cluster = build_cluster(
            "metrics",
            2,
            BackendKind::Grdb,
            path_edges(6),
            DeclusterKind::VertexHash,
        );
        // Telemetry off: no snapshot, so no registry and no block-cache
        // gauges in the report.
        let m = bfs(&cluster, g(0), g(6), &BfsOptions::default()).unwrap();
        assert_eq!(m.path_length, Some(6));
        assert!(m.telemetry.metrics.is_empty(), "{}", m.telemetry.metrics);
        // Telemetry on: the report carries the block cache's counters.
        cluster.set_telemetry(mssg_obs::Telemetry::enabled());
        let m = bfs(&cluster, g(0), g(6), &BfsOptions::default()).unwrap();
        assert!(
            m.telemetry.metrics.gauges.contains_key("grdb.cache.hits"),
            "{}",
            m.telemetry.metrics
        );
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
