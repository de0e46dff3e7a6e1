//! Parallel out-of-core connected components.
//!
//! The thesis positions MSSG as a framework for the whole family of
//! out-of-core graph analyses — "directed and undirected search, connected
//! components, minimum spanning trees, etc." (chapter 2). BFS is the
//! worked example; this module adds the second classic, demonstrating that
//! the GraphDB/DataCutter substrate supports analyses beyond search.
//!
//! Algorithm: distributed **label propagation** (the hook structure of
//! Hirschberg-style CC, adapted to the storage layout). Every vertex's
//! label starts as its own id and converges to the minimum id in its
//! component:
//!
//! 1. *Registration*: each processor enumerates the vertices stored in its
//!    local GraphDB and reports them to their hash owners, which hold the
//!    label state.
//! 2. Rounds: owners push the labels of recently-changed vertices to
//!    wherever those vertices' adjacency lists live (locally under
//!    vertex-hash declustering; broadcast otherwise), the storage nodes
//!    expand them, and propose `min(label)` to each neighbour's owner.
//! 3. A round with zero label changes anywhere terminates the algorithm.
//!
//! Each phase is barrier-synchronised with per-round DONE markers, like
//! the BFS; early messages from a neighbour already in the next phase are
//! stashed and replayed.

use crate::cluster::{MssgCluster, SharedBackend};
use crate::telemetry::TelemetryReport;
use datacutter::{DataBuffer, Filter, FilterContext, GraphBuilder, OutPort};
use mssg_types::{AdjBuffer, Gid, GidMap, GraphStorageError, MetaOp, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration for a components run.
#[derive(Clone, Debug)]
pub struct ComponentsOptions {
    /// Safety bound on propagation rounds.
    pub max_rounds: u32,
    /// Per-stream send/recv deadline. The label-propagation rounds block
    /// on per-phase DONE markers from every peer, so a dead filter would
    /// otherwise hang the run forever; with the deadline it surfaces as a
    /// typed `Timeout` error instead. Defaults to 120 s; `None` blocks
    /// indefinitely (classic semantics).
    pub recv_timeout: Option<std::time::Duration>,
}

impl Default for ComponentsOptions {
    fn default() -> Self {
        ComponentsOptions {
            max_rounds: 10_000,
            recv_timeout: Some(std::time::Duration::from_secs(120)),
        }
    }
}

/// Result of a components run.
#[derive(Clone, Debug)]
pub struct ComponentsResult {
    /// Number of connected components.
    pub components: u64,
    /// Vertices in the largest component.
    pub largest: u64,
    /// Total distinct vertices seen.
    pub vertices: u64,
    /// Propagation rounds until convergence.
    pub rounds: u32,
    /// Time, traffic, and per-filter breakdown of the run.
    pub telemetry: TelemetryReport,
    /// Component sizes keyed by the component's minimum vertex id.
    pub sizes: HashMap<u64, u64>,
}

// Message kinds. Tag layout as in bfs.rs: [kind:8][round:32][sender:24].
const K_REGISTER: u64 = 0;
const K_REGISTER_DONE: u64 = 1;
const K_FRONTIER: u64 = 2;
const K_FRONTIER_DONE: u64 = 3;
const K_PROPOSE: u64 = 4;
const K_PROPOSE_DONE: u64 = 5;
const K_APPLIED: u64 = 6;

fn tag(kind: u64, round: u32, sender: usize) -> u64 {
    (kind << 56) | ((round as u64) << 24) | sender as u64
}

fn tag_kind(t: u64) -> u64 {
    t >> 56
}

fn tag_round(t: u64) -> u32 {
    ((t >> 24) & 0xffff_ffff) as u32
}

#[derive(Default)]
struct Outcome {
    sizes: HashMap<u64, u64>,
    rounds: u32,
}

/// Runs connected components over the cluster's stored graph.
pub fn connected_components(
    cluster: &MssgCluster,
    options: &ComponentsOptions,
) -> Result<ComponentsResult> {
    let p = cluster.nodes();
    let io_before = cluster.io_snapshot();
    // Frontier labels can stay local only when storage placement equals
    // the hash placement of label state.
    let storage_is_hash = !cluster.broadcast_fringe() && cluster.owner_map().is_none();
    let outcome = Arc::new(Mutex::new(Outcome::default()));

    let mut g = GraphBuilder::new();
    g.channel_capacity(8192);
    g.telemetry(cluster.telemetry().clone());
    if let Some(t) = options.recv_timeout {
        g.stream_timeout(t);
    }
    let backends: Vec<SharedBackend> = (0..p).map(|i| cluster.backend(i)).collect();
    let outcome2 = Arc::clone(&outcome);
    let max_rounds = options.max_rounds;
    let filter = g.add_filter("components", (0..p).collect(), move |i| {
        Box::new(CcFilter {
            backend: backends[i].clone(),
            storage_is_hash,
            max_rounds,
            outcome: Arc::clone(&outcome2),
        })
    })?;
    g.declare_ports(filter, &["peers"], &["peers"]);
    g.expect_consumers(filter, "peers", p);
    // Registration/propose phases burst at most one record batch per
    // destination plus a DONE marker before draining.
    g.send_window(filter, "peers", 4 * (p as u64 + 1));
    g.connect(filter, "peers", filter, "peers")?;
    let report = g.run()?;

    let out = outcome.lock();
    let components = out.sizes.len() as u64;
    let largest = out.sizes.values().copied().max().unwrap_or(0);
    let vertices = out.sizes.values().sum();
    Ok(ComponentsResult {
        components,
        largest,
        vertices,
        rounds: out.rounds,
        telemetry: cluster.telemetry_report(report, &io_before),
        sizes: out.sizes.clone(),
    })
}

struct CcFilter {
    backend: SharedBackend,
    storage_is_hash: bool,
    max_rounds: u32,
    outcome: Arc<Mutex<Outcome>>,
}

/// Encodes (vertex, label) pairs as interleaved words.
fn encode_pairs(pairs: &[(Gid, u64)]) -> Vec<u64> {
    let mut words = Vec::with_capacity(pairs.len() * 2);
    for &(v, l) in pairs {
        words.push(v.raw());
        words.push(l);
    }
    words
}

fn decode_pairs(buf: &DataBuffer) -> Result<Vec<(Gid, u64)>> {
    let words = buf.words();
    if !words.len().is_multiple_of(2) {
        return Err(GraphStorageError::corrupt("odd pair payload"));
    }
    Ok(words
        .chunks_exact(2)
        .map(|c| (Gid::from_raw(c[0]), c[1]))
        .collect())
}

fn send_pairs(
    port: &mut OutPort,
    target: Option<usize>,
    kind: u64,
    round: u32,
    me: usize,
    pairs: &[(Gid, u64)],
) -> Result<()> {
    let buf = DataBuffer::from_words(tag(kind, round, me), &encode_pairs(pairs));
    match target {
        Some(t) => quiet(port.send_to(t, buf)),
        None => {
            for copy in 0..port.consumers() {
                quiet(port.send_to(copy, buf.clone()))?;
            }
            Ok(())
        }
    }
}

fn quiet(r: Result<()>) -> Result<()> {
    match r {
        Err(GraphStorageError::Unsupported(m)) if m.contains("hung up") => Ok(()),
        other => other,
    }
}

/// Blocks until `p` DONE markers of `(done_kind, round)` have arrived,
/// handing every data message to `on_data` and stashing anything that
/// belongs to a later phase. Returns the sum of the DONE payloads.
#[allow(clippy::too_many_arguments)]
fn await_phase(
    ctx: &mut FilterContext,
    stash: &mut Vec<DataBuffer>,
    p: usize,
    data_kind: u64,
    done_kind: u64,
    round: u32,
    on_data: &mut dyn FnMut(&DataBuffer) -> Result<()>,
) -> Result<u64> {
    let mut done = 0usize;
    let mut sum = 0u64;
    // Replay stashed messages that belong to this phase.
    let mut i = 0;
    while i < stash.len() {
        let t = stash[i].tag;
        if tag_round(t) == round && (tag_kind(t) == data_kind || tag_kind(t) == done_kind) {
            let msg = stash.remove(i);
            if tag_kind(msg.tag) == done_kind {
                done += 1;
                sum += msg.words().first().copied().unwrap_or(0);
            } else {
                on_data(&msg)?;
            }
        } else {
            i += 1;
        }
    }
    while done < p {
        let Some(msg) = ctx.input("peers")?.recv()? else {
            return Err(GraphStorageError::Unsupported(
                "peer exited before components converged".into(),
            ));
        };
        let k = tag_kind(msg.tag);
        let r = tag_round(msg.tag);
        if r == round && k == data_kind {
            on_data(&msg)?;
        } else if r == round && k == done_kind {
            done += 1;
            sum += msg.words().first().copied().unwrap_or(0);
        } else {
            stash.push(msg);
        }
    }
    Ok(sum)
}

impl Filter for CcFilter {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let me = ctx.copy_index;
        let p = ctx.copies;
        let hash_owner = |v: Gid| (v.raw() % p as u64) as usize;
        let mut stash: Vec<DataBuffer> = Vec::new();

        // ---- registration ----
        let local = {
            let mut db = self.backend.lock();
            db.local_vertices()?
        };
        {
            let mut per_owner: Vec<Vec<(Gid, u64)>> = vec![Vec::new(); p];
            for v in local {
                per_owner[hash_owner(v)].push((v, v.raw()));
            }
            let port = ctx.output("peers")?;
            for (owner, pairs) in per_owner.iter().enumerate() {
                if !pairs.is_empty() {
                    send_pairs(port, Some(owner), K_REGISTER, 0, me, pairs)?;
                }
            }
            quiet(port.broadcast(DataBuffer::from_words(tag(K_REGISTER_DONE, 0, me), &[0])))?;
        }
        // Labels of the vertices this processor owns (hash placement).
        let mut labels: GidMap<u64> = GidMap::default();
        await_phase(
            ctx,
            &mut stash,
            p,
            K_REGISTER,
            K_REGISTER_DONE,
            0,
            &mut |msg| {
                for (v, _) in decode_pairs(msg)? {
                    labels.entry(v).or_insert(v.raw());
                }
                Ok(())
            },
        )?;

        // ---- propagation rounds ----
        let mut frontier: Vec<(Gid, u64)> = labels.iter().map(|(&v, &l)| (v, l)).collect();
        let mut rounds = 0u32;
        let mut adj = AdjBuffer::new();
        for round in 1..=self.max_rounds {
            rounds = round;
            // Phase A: distribute the frontier to wherever adjacency lives.
            let mut to_expand: Vec<(Gid, u64)> = Vec::new();
            if self.storage_is_hash {
                // Owner stores the adjacency too: expand locally.
                to_expand.append(&mut frontier);
                // Still need the barrier so rounds stay aligned.
                let port = ctx.output("peers")?;
                quiet(port.broadcast(DataBuffer::from_words(
                    tag(K_FRONTIER_DONE, round, me),
                    &[0],
                )))?;
            } else {
                let port = ctx.output("peers")?;
                send_pairs(port, None, K_FRONTIER, round, me, &frontier)?;
                frontier.clear();
                quiet(port.broadcast(DataBuffer::from_words(
                    tag(K_FRONTIER_DONE, round, me),
                    &[0],
                )))?;
            }
            await_phase(
                ctx,
                &mut stash,
                p,
                K_FRONTIER,
                K_FRONTIER_DONE,
                round,
                &mut |msg| {
                    to_expand.extend(decode_pairs(msg)?);
                    Ok(())
                },
            )?;

            // Phase B: expand against local storage and propose labels.
            let mut proposals: Vec<Vec<(Gid, u64)>> = vec![Vec::new(); p];
            {
                let mut db = self.backend.lock();
                for (v, lbl) in &to_expand {
                    adj.clear();
                    db.adjacency(*v, &mut adj, 0, MetaOp::Ignore)?;
                    for &u in adj.as_slice() {
                        // label[u] starts at u and only decreases, so a
                        // proposal ≥ u can never win — skip it at the source.
                        if *lbl < u.raw() {
                            proposals[hash_owner(u)].push((u, *lbl));
                        }
                    }
                }
            }
            let mut sent = 0u64;
            {
                let port = ctx.output("peers")?;
                for (owner, pairs) in proposals.iter().enumerate() {
                    if !pairs.is_empty() {
                        sent += pairs.len() as u64;
                        send_pairs(port, Some(owner), K_PROPOSE, round, me, pairs)?;
                    }
                }
                quiet(port.broadcast(DataBuffer::from_words(
                    tag(K_PROPOSE_DONE, round, me),
                    &[sent],
                )))?;
            }
            let mut changed: GidMap<u64> = GidMap::default();
            await_phase(
                ctx,
                &mut stash,
                p,
                K_PROPOSE,
                K_PROPOSE_DONE,
                round,
                &mut |msg| {
                    for (u, lbl) in decode_pairs(msg)? {
                        let entry = labels.entry(u).or_insert(u.raw());
                        if lbl < *entry {
                            *entry = lbl;
                            changed.insert(u, lbl);
                        }
                    }
                    Ok(())
                },
            )?;

            // Phase C: agree on global progress.
            let my_changed = changed.len() as u64;
            {
                let port = ctx.output("peers")?;
                quiet(port.broadcast(DataBuffer::from_words(
                    tag(K_APPLIED, round, me),
                    &[my_changed],
                )))?;
            }
            let global_changed = await_phase(
                ctx,
                &mut stash,
                p,
                u64::MAX, // no data messages in this phase
                K_APPLIED,
                round,
                &mut |_| Ok(()),
            )?;
            frontier = changed.into_iter().collect();
            if global_changed == 0 {
                break;
            }
        }

        // ---- aggregate ----
        let mut out = self.outcome.lock();
        for (_, &label) in labels.iter() {
            *out.sizes.entry(label).or_insert(0) += 1;
        }
        out.rounds = out.rounds.max(rounds);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::ingest::{ingest, DeclusterKind, IngestOptions};
    use mssg_types::Edge;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("core-cc-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn run_cc(
        tag: &str,
        nodes: usize,
        kind: BackendKind,
        edges: Vec<Edge>,
        decl: DeclusterKind,
    ) -> ComponentsResult {
        let dir = tmpdir(tag);
        let mut cluster = MssgCluster::new(&dir, nodes, kind, &BackendOptions::default()).unwrap();
        ingest(
            &mut cluster,
            edges.into_iter(),
            &IngestOptions {
                declustering: decl,
                ..Default::default()
            },
        )
        .unwrap();
        connected_components(&cluster, &ComponentsOptions::default()).unwrap()
    }

    #[test]
    fn single_path_is_one_component() {
        let edges: Vec<Edge> = (0..10).map(|i| Edge::of(i, i + 1)).collect();
        let r = run_cc(
            "path",
            3,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        assert_eq!(r.components, 1);
        assert_eq!(r.vertices, 11);
        assert_eq!(r.largest, 11);
        assert_eq!(r.sizes.get(&0), Some(&11));
    }

    #[test]
    fn disjoint_components_counted() {
        // Three components: {0..=3}, {10,11}, {20,21,22}.
        let mut edges = vec![Edge::of(0, 1), Edge::of(1, 2), Edge::of(2, 3)];
        edges.push(Edge::of(10, 11));
        edges.extend([Edge::of(20, 21), Edge::of(21, 22)]);
        let r = run_cc(
            "disjoint",
            4,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        assert_eq!(r.components, 3);
        assert_eq!(r.vertices, 9);
        assert_eq!(r.largest, 4);
        assert_eq!(r.sizes.get(&0), Some(&4));
        assert_eq!(r.sizes.get(&10), Some(&2));
        assert_eq!(r.sizes.get(&20), Some(&3));
    }

    #[test]
    fn all_declusterings_agree() {
        let mut x = 17u64;
        let mut edges = Vec::new();
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(Edge::of(x % 40, (x >> 16) % 40));
        }
        let mut results = Vec::new();
        for (i, decl) in [
            DeclusterKind::VertexHash,
            DeclusterKind::VertexRoundRobin,
            DeclusterKind::EdgeRoundRobin,
        ]
        .into_iter()
        .enumerate()
        {
            let r = run_cc(
                &format!("agree-{i}"),
                3,
                BackendKind::HashMap,
                edges.clone(),
                decl,
            );
            results.push((r.components, r.vertices, r.largest));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn matches_union_find_oracle() {
        let mut x = 23u64;
        let mut edges = Vec::new();
        for _ in 0..120 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Sparse so several components exist.
            edges.push(Edge::of(x % 100, (x >> 16) % 100));
        }
        // Union-find oracle.
        let mut parent: Vec<usize> = (0..100).collect();
        fn find(parent: &mut Vec<usize>, a: usize) -> usize {
            if parent[a] != a {
                let root = find(parent, parent[a]);
                parent[a] = root;
            }
            parent[a]
        }
        let mut seen = std::collections::HashSet::new();
        for e in &edges {
            let (a, b) = (e.src.raw() as usize, e.dst.raw() as usize);
            seen.insert(a);
            seen.insert(b);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let roots: std::collections::HashSet<usize> =
            seen.iter().map(|&v| find(&mut parent, v)).collect();

        let r = run_cc(
            "oracle",
            4,
            BackendKind::Grdb,
            edges,
            DeclusterKind::VertexHash,
        );
        assert_eq!(r.components as usize, roots.len());
        assert_eq!(r.vertices as usize, seen.len());
    }

    #[test]
    fn works_on_every_backend() {
        let edges = vec![Edge::of(0, 1), Edge::of(2, 3), Edge::of(3, 4)];
        for kind in BackendKind::ALL {
            let r = run_cc(
                &format!("backend-{}", kind.name()),
                2,
                kind,
                edges.clone(),
                DeclusterKind::VertexHash,
            );
            assert_eq!(r.components, 2, "{}", kind.name());
            assert_eq!(r.largest, 3, "{}", kind.name());
        }
    }

    #[test]
    fn single_node_cluster() {
        let edges: Vec<Edge> = (0..6).map(|i| Edge::of(i, (i + 1) % 6)).collect();
        let r = run_cc(
            "single",
            1,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        assert_eq!(r.components, 1);
        assert_eq!(r.vertices, 6);
    }
}
