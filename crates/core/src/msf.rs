//! Parallel out-of-core minimum spanning forest (Borůvka).
//!
//! The thesis names "minimum spanning trees" alongside search and
//! connected components as the out-of-core algorithm family MSSG exists to
//! host (chapter 2). This module implements distributed Borůvka over the
//! same substrate the other analyses use:
//!
//! - Edge weights: MSSG stores untyped, unweighted edges, so weights come
//!   from a deterministic symmetric hash of the endpoints
//!   ([`edge_weight`]) — every processor computes the same weight without
//!   communication. (Applications with real weights would store them as
//!   edge attributes; the algorithm is weight-source-agnostic.)
//! - Each round, every processor scans its local partition for the
//!   minimum-weight edge leaving each component and sends the candidates
//!   to the component's hash owner; owners pick global winners and
//!   broadcast them; every processor applies the same winner set to a
//!   replicated union-by-minimum structure, so component labels stay
//!   identical everywhere without further messages.
//! - A round with no winners terminates; Borůvka needs O(log V) rounds.
//!
//! Ties are broken lexicographically on `(weight, u, v)`, making the
//! forest unique and testable against a sequential Kruskal oracle.

use crate::cluster::{MssgCluster, Node};
use crate::decluster::hash_node;
use crate::superstep;
use crate::telemetry::TelemetryReport;
use datacutter::superstep::{Peers, Phase};
use mssg_types::{AdjBuffer, Edge, Gid, MetaOp, Result};
use std::collections::{HashMap, HashSet};

/// Deterministic symmetric edge weight: a 64-bit mix of the unordered
/// endpoint pair (SplitMix64 finalizer).
pub fn edge_weight(a: Gid, b: Gid) -> u64 {
    let (lo, hi) = if a <= b {
        (a.raw(), b.raw())
    } else {
        (b.raw(), a.raw())
    };
    let mut z = lo
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(hi.rotate_left(31))
        .wrapping_add(0x85eb_ca6b_c2b2_ae35);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Result of a minimum-spanning-forest run.
#[derive(Clone, Debug)]
pub struct MsfResult {
    /// The forest's edges (one per merge; `V - components` in total).
    pub edges: Vec<Edge>,
    /// Sum of the forest's edge weights.
    pub total_weight: u128,
    /// Number of trees in the forest (= connected components).
    pub components: u64,
    /// Distinct vertices.
    pub vertices: u64,
    /// Borůvka rounds executed.
    pub rounds: u32,
    /// Time, traffic, and per-filter breakdown of the run.
    pub telemetry: TelemetryReport,
}

/// Every copy's stored vertices, to every copy.
pub(crate) const REGISTER: Phase = Phase::nth(0);
/// (component, weight, u, v): a copy's lightest edge out of a component,
/// to the component's hash owner.
pub(crate) const CANDIDATE: Phase = Phase::nth(1);
/// The same records, for the edges the owners chose, to every copy; the
/// marker counts them.
pub(crate) const WINNER: Phase = Phase::nth(2);
pub(crate) const KINDS: u64 = 6;

/// Every round at least halves the components that can still merge.
const BORUVKA_ROUNDS: u32 = 64;

/// Union-find with union-by-minimum: the root of every set is its smallest
/// element, so the final partition (and every label) is independent of the
/// order unions are applied in — the property that lets each processor
/// apply the winner set independently.
#[derive(Default)]
struct MinUnionFind {
    parent: HashMap<u64, u64>,
}

impl MinUnionFind {
    fn insert(&mut self, v: u64) {
        self.parent.entry(v).or_insert(v);
    }

    fn find(&mut self, v: u64) -> u64 {
        let p = *self.parent.get(&v).unwrap_or(&v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    /// Unions the sets of `a` and `b`; the smaller root wins.
    fn union(&mut self, a: u64, b: u64) {
        self.insert(a);
        self.insert(b);
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (small, large) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(large, small);
    }
}

/// What copy 0 reports: every copy applies the same winners and ends with
/// the same forest, so one of them keeps it.
#[derive(Default)]
struct Forest {
    edges: Vec<(u64, Edge)>,
    vertices: u64,
    components: u64,
    rounds: u32,
}

/// Computes the minimum spanning forest of the stored graph.
pub fn minimum_spanning_forest(cluster: &MssgCluster) -> Result<MsfResult> {
    let (copies, telemetry) =
        superstep::run(cluster, "msf", KINDS, |peers, node, _| boruvka(peers, node))?;
    let forest = copies.into_iter().flatten().next().unwrap_or_default();
    Ok(MsfResult {
        total_weight: forest.edges.iter().map(|&(w, _)| w as u128).sum(),
        edges: forest.edges.into_iter().map(|(_, e)| e).collect(),
        components: forest.components,
        vertices: forest.vertices,
        rounds: forest.rounds,
        telemetry,
    })
}

/// One copy's Borůvka; copy 0 returns the forest.
fn boruvka(peers: &mut Peers<'_>, node: &Node) -> Result<Option<Forest>> {
    let me = peers.me();
    let p = peers.copies();

    // ---- registration: replicate the vertex set everywhere ----
    let local = node.db().local_vertices()?;
    let words: Vec<u64> = local.iter().map(|g| g.raw()).collect();
    let mut uf = MinUnionFind::default();
    peers.send_all(REGISTER.data, 0, &words)?;
    peers.finish::<1>(REGISTER, 0, &words, 0, |[v]| {
        uf.insert(v);
        Ok(())
    })?;
    let all_vertices: Vec<u64> = uf.parent.keys().copied().collect();

    // Cache the local adjacency once: Borůvka re-scans edges each round.
    let local_edges: Vec<(Gid, Gid)> = {
        let mut db = node.db();
        let mut adj = AdjBuffer::new();
        let mut out = Vec::new();
        for &v in &local {
            adj.clear();
            db.adjacency(v, &mut adj, 0, MetaOp::Ignore)?;
            for &u in adj.as_slice() {
                out.push((v, u));
            }
        }
        out
    };

    let mut forest: Vec<(u64, Edge)> = Vec::new();
    let mut batches: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut rounds = 0u32;
    for round in 1..=BORUVKA_ROUNDS {
        rounds = round;
        // Phase A: local minimum outgoing edge per component.
        let mut best: HashMap<u64, (u64, Gid, Gid)> = HashMap::new();
        for &(v, u) in &local_edges {
            let (cv, cu) = (uf.find(v.raw()), uf.find(u.raw()));
            if cv == cu {
                continue;
            }
            // Lexicographic tie-break on (w, min, max).
            let (a, b) = if v <= u { (v, u) } else { (u, v) };
            let cand = (edge_weight(v, u), a, b);
            if best.get(&cv).is_none_or(|&existing| cand < existing) {
                best.insert(cv, cand);
            }
        }
        for (c, (w, a, b)) in best {
            batches[hash_node(Gid::from_raw(c), p)].extend([c, w, a.raw(), b.raw()]);
        }
        // Phase B: owners pick global winners per component.
        let mut winners: HashMap<u64, (u64, u64, u64)> = HashMap::new();
        let own = peers.scatter(CANDIDATE.data, round, &mut batches)?;
        peers.finish::<4>(CANDIDATE, round, &own, 0, |[c, w, a, b]| {
            if winners.get(&c).is_none_or(|&existing| (w, a, b) < existing) {
                winners.insert(c, (w, a, b));
            }
            Ok(())
        })?;
        let words: Vec<u64> = winners
            .iter()
            .flat_map(|(&c, &(w, a, b))| [c, w, a, b])
            .collect();
        // Phase C: everyone applies the same winner set.
        let mut all_winners: Vec<[u64; 4]> = Vec::new();
        peers.send_all(WINNER.data, round, &words)?;
        let total = peers.finish::<4>(WINNER, round, &words, winners.len() as u64, |winner| {
            all_winners.push(winner);
            Ok(())
        })?;
        // Deterministic application order; a winner both its components
        // chose unions idempotently.
        all_winners.sort_unstable_by_key(|&[c, w, a, b]| (w, a, b, c));
        for &[_, w, a, b] in &all_winners {
            let (ra, rb) = (uf.find(a), uf.find(b));
            if ra != rb {
                uf.union(ra, rb);
                if me == 0 {
                    forest.push((w, Edge::new(Gid::from_raw(a), Gid::from_raw(b))));
                }
            }
        }
        if total == 0 {
            break;
        }
    }

    if me != 0 {
        return Ok(None);
    }
    let roots: HashSet<u64> = all_vertices.iter().map(|&v| uf.find(v)).collect();
    Ok(Some(Forest {
        edges: forest,
        vertices: all_vertices.len() as u64,
        components: roots.len() as u64,
        rounds,
    }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::ingest::{ingest, DeclusterKind, IngestOptions};

    fn run_msf(
        tag: &str,
        nodes: usize,
        kind: BackendKind,
        edges: Vec<Edge>,
        decl: DeclusterKind,
    ) -> MsfResult {
        let dir = std::env::temp_dir().join(format!("core-msf-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        minimum_spanning_forest(&cluster).unwrap()
    }

    /// Sequential Kruskal with the same weights and tie-breaking.
    pub(crate) fn kruskal(edges: &[Edge]) -> (u128, usize, usize) {
        let mut uf = MinUnionFind::default();
        let mut vertices = std::collections::HashSet::new();
        let mut weighted: Vec<(u64, Gid, Gid)> = edges
            .iter()
            .map(|e| {
                vertices.insert(e.src.raw());
                vertices.insert(e.dst.raw());
                let (a, b) = if e.src <= e.dst {
                    (e.src, e.dst)
                } else {
                    (e.dst, e.src)
                };
                (edge_weight(a, b), a, b)
            })
            .collect();
        weighted.sort_unstable();
        let mut total: u128 = 0;
        let mut count = 0usize;
        for (w, a, b) in weighted {
            if uf.find(a.raw()) != uf.find(b.raw()) {
                uf.union(a.raw(), b.raw());
                total += w as u128;
                count += 1;
            }
        }
        let roots: std::collections::HashSet<u64> = vertices.iter().map(|&v| uf.find(v)).collect();
        (total, count, roots.len())
    }

    fn random_edges(n: usize, vmax: u64, seed: u64) -> Vec<Edge> {
        let mut x = seed | 1;
        let mut out = Vec::new();
        while out.len() < n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x % vmax;
            let b = (x >> 17) % vmax;
            if a != b {
                out.push(Edge::of(a, b));
            }
        }
        out
    }

    #[test]
    fn path_graph_forest_is_the_path() {
        let edges: Vec<Edge> = (0..9).map(|i| Edge::of(i, i + 1)).collect();
        let r = run_msf(
            "path",
            3,
            BackendKind::HashMap,
            edges.clone(),
            DeclusterKind::VertexHash,
        );
        assert_eq!(r.vertices, 10);
        assert_eq!(r.components, 1);
        assert_eq!(r.edges.len(), 9, "a tree needs V-1 edges");
        let (want_w, want_n, want_c) = kruskal(&edges);
        assert_eq!(r.total_weight, want_w);
        assert_eq!(r.edges.len(), want_n);
        assert_eq!(r.components as usize, want_c);
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for (seed, nodes) in [(11u64, 2usize), (23, 4), (37, 3)] {
            let edges = random_edges(400, 60, seed);
            let r = run_msf(
                &format!("rand-{seed}"),
                nodes,
                BackendKind::HashMap,
                edges.clone(),
                DeclusterKind::VertexHash,
            );
            let (want_w, want_n, want_c) = kruskal(&edges);
            assert_eq!(r.total_weight, want_w, "seed {seed}");
            assert_eq!(r.edges.len(), want_n, "seed {seed}");
            assert_eq!(r.components as usize, want_c, "seed {seed}");
            assert_eq!(r.edges.len() as u64, r.vertices - r.components);
        }
    }

    #[test]
    fn forest_with_multiple_components() {
        let mut edges = random_edges(50, 20, 5);
        edges.extend(
            random_edges(50, 20, 7)
                .iter()
                .map(|e| Edge::of(e.src.raw() + 1000, e.dst.raw() + 1000)),
        );
        let r = run_msf(
            "multi",
            3,
            BackendKind::HashMap,
            edges.clone(),
            DeclusterKind::VertexHash,
        );
        let (want_w, _, want_c) = kruskal(&edges);
        assert!(want_c >= 2);
        assert_eq!(r.components as usize, want_c);
        assert_eq!(r.total_weight, want_w);
    }

    #[test]
    fn works_under_edge_granularity_and_grdb() {
        let edges = random_edges(200, 40, 9);
        let a = run_msf(
            "gran-a",
            3,
            BackendKind::Grdb,
            edges.clone(),
            DeclusterKind::VertexHash,
        );
        let b = run_msf(
            "gran-b",
            3,
            BackendKind::HashMap,
            edges.clone(),
            DeclusterKind::EdgeRoundRobin,
        );
        let (want_w, _, want_c) = kruskal(&edges);
        for r in [&a, &b] {
            assert_eq!(r.total_weight, want_w);
            assert_eq!(r.components as usize, want_c);
        }
    }

    #[test]
    fn edge_weight_is_symmetric_and_spread() {
        let a = Gid::new(3);
        let b = Gid::new(900);
        assert_eq!(edge_weight(a, b), edge_weight(b, a));
        // Weights look uniform-ish: no obvious collisions in a small set.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            seen.insert(edge_weight(Gid::new(i), Gid::new(i + 1)));
        }
        assert_eq!(seen.len(), 1000);
    }
}
