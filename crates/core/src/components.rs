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
//!    wherever those vertices' adjacency lists live, by the cluster's
//!    placement (the label's own node under vertex-hash declustering, the
//!    first-come owner under vertex round-robin, every node under edge
//!    granularity), the storage nodes expand them, and propose
//!    `min(label)` to each neighbour's hash owner.
//! 3. A round with zero label changes anywhere terminates the algorithm.

use crate::cluster::{MssgCluster, Node};
use crate::decluster::{hash_node, Declustering};
use crate::superstep;
use crate::telemetry::TelemetryReport;
use datacutter::superstep::{Peers, Phase};
use mssg_types::{AdjBuffer, Gid, GidMap, MetaOp, Result};
use std::collections::HashMap;

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

/// Stored vertices, to their hash owners.
pub(crate) const REGISTER: Phase = Phase::nth(0);
/// (vertex, label) of every vertex whose label changed, to its owner in the
/// placement, or to every copy where no one node owns it.
pub(crate) const FRONTIER: Phase = Phase::nth(1);
/// (neighbour, label) proposals, to the neighbour's hash owner.
pub(crate) const PROPOSE: Phase = Phase::nth(2);
/// No records: the marker counts the labels a copy lowered this round.
pub(crate) const APPLIED: Phase = Phase::nth(3);
pub(crate) const KINDS: u64 = 8;

/// Runs connected components over the cluster's stored graph. Every phase
/// ends on a marker from every peer: a copy that fails aborts the job on
/// the others at once, and one that wedges is a typed `Timeout` at the
/// 120 s engine deadline, not a hang.
pub fn connected_components(cluster: &MssgCluster) -> Result<ComponentsResult> {
    let placement = cluster.placement().clone();
    let (copies, telemetry) =
        superstep::run(cluster, "components", KINDS, move |peers, node, _| {
            propagate(peers, node, &placement)
        })?;
    let mut sizes: HashMap<u64, u64> = HashMap::new();
    let mut rounds = 0;
    for (labelled, copy_rounds) in copies {
        for (label, vertices) in labelled {
            *sizes.entry(label).or_insert(0) += vertices;
        }
        rounds = rounds.max(copy_rounds);
    }
    Ok(ComponentsResult {
        components: sizes.len() as u64,
        largest: sizes.values().copied().max().unwrap_or(0),
        vertices: sizes.values().sum(),
        rounds,
        telemetry,
        sizes,
    })
}

/// One copy's label propagation: how many of the vertices it owns ended
/// under each label, and the rounds it ran.
fn propagate(
    peers: &mut Peers<'_>,
    node: &Node,
    placement: &Declustering,
) -> Result<(HashMap<u64, u64>, u32)> {
    let p = peers.copies();
    // Pending records per owner, reused by every phase that routes by owner.
    let mut batches: Vec<Vec<u64>> = vec![Vec::new(); p];
    // Frontier records of vertices no one node owns, for every copy.
    let mut everywhere: Vec<u64> = Vec::new();

    // ---- registration ----
    let local = node.db().local_vertices()?;
    for v in local {
        batches[hash_node(v, p)].push(v.raw());
    }
    // Labels of the vertices this processor owns (hash placement).
    let mut labels: GidMap<u64> = GidMap::default();
    let own = peers.scatter(REGISTER.data, 0, &mut batches)?;
    peers.finish::<1>(REGISTER, 0, &own, 0, |[v]| {
        labels.entry(Gid::from_raw(v)).or_insert(v);
        Ok(())
    })?;

    // ---- propagation rounds ----
    let mut frontier: Vec<u64> = labels.iter().flat_map(|(v, &l)| [v.raw(), l]).collect();
    let mut to_expand: Vec<(Gid, u64)> = Vec::new();
    let mut rounds = 0u32;
    let mut adj = AdjBuffer::new();
    for round in 1..=superstep::MAX_ROUNDS {
        rounds = round;
        // Phase A: each record goes to where its vertex's adjacency lives —
        // under vertex-hash declustering the label's own node, so nothing
        // moves. The barrier keeps rounds aligned either way.
        for record in frontier.chunks_exact(2) {
            match placement.owner(Gid::from_raw(record[0])) {
                Some(owner) => batches[owner].extend_from_slice(record),
                None => everywhere.extend_from_slice(record),
            }
        }
        let mut own = peers.scatter(FRONTIER.data, round, &mut batches)?;
        if !everywhere.is_empty() {
            peers.send_all(FRONTIER.data, round, &everywhere)?;
            own.append(&mut everywhere);
        }
        to_expand.clear();
        peers.finish::<2>(FRONTIER, round, &own, 0, |[v, label]| {
            to_expand.push((Gid::from_raw(v), label));
            Ok(())
        })?;

        // Phase B: expand against local storage and propose labels.
        {
            let mut db = node.db();
            for &(v, label) in &to_expand {
                adj.clear();
                db.adjacency(v, &mut adj, 0, MetaOp::Ignore)?;
                for &u in adj.as_slice() {
                    // label[u] starts at u and only decreases, so a
                    // proposal ≥ u can never win — skip it at the source.
                    if label < u.raw() {
                        batches[hash_node(u, p)].extend([u.raw(), label]);
                    }
                }
            }
        }
        let mut changed: GidMap<u64> = GidMap::default();
        let own = peers.scatter(PROPOSE.data, round, &mut batches)?;
        peers.finish::<2>(PROPOSE, round, &own, 0, |[u, label]| {
            let u = Gid::from_raw(u);
            let entry = labels.entry(u).or_insert(u.raw());
            if label < *entry {
                *entry = label;
                changed.insert(u, label);
            }
            Ok(())
        })?;

        // Phase C: agree on global progress.
        let global_changed =
            peers.finish::<1>(APPLIED, round, &[], changed.len() as u64, |_| Ok(()))?;
        if global_changed == 0 {
            break;
        }
        frontier = changed.iter().flat_map(|(u, &l)| [u.raw(), l]).collect();
    }

    let mut labelled: HashMap<u64, u64> = HashMap::new();
    for &label in labels.values() {
        *labelled.entry(label).or_insert(0) += 1;
    }
    Ok((labelled, rounds))
}

#[cfg(test)]
pub(crate) mod tests {
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
        connected_components(&cluster).unwrap()
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

    /// Union-find oracle: (components, vertices) of `edges`.
    pub(crate) fn union_find_oracle(edges: &[Edge]) -> (usize, usize) {
        let ids = edges.iter().map(|e| e.src.raw().max(e.dst.raw()) as usize);
        let mut parent: Vec<usize> = (0..=ids.max().unwrap_or(0)).collect();
        fn find(parent: &mut Vec<usize>, a: usize) -> usize {
            if parent[a] != a {
                let root = find(parent, parent[a]);
                parent[a] = root;
            }
            parent[a]
        }
        let mut seen = std::collections::HashSet::new();
        for e in edges {
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
        (roots.len(), seen.len())
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
        let (components, vertices) = union_find_oracle(&edges);
        let r = run_cc(
            "oracle",
            4,
            BackendKind::Grdb,
            edges,
            DeclusterKind::VertexHash,
        );
        assert_eq!(r.components as usize, components);
        assert_eq!(r.vertices as usize, vertices);
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
