//! Placement: which back-end node holds each vertex's adjacency — the
//! Ingestion service's clustering / declustering (thesis §3.2).
//!
//! MSSG stores graphs at two granularities: *vertex* granularity (all of a
//! vertex's edges on one node) and *edge* granularity (each edge an
//! independent entity). At vertex granularity the critical question is
//! whether vertex ownership is **globally known**: with a deterministic
//! mapping like `GID % p` the search can send fringe vertices straight to
//! their owners; with a first-come assignment the mapping is what the
//! ingestion made it; at edge granularity no one node holds a vertex's
//! list and the search must broadcast (Algorithm 1's three cases).
//!
//! A cluster has one [`Declustering`], fixed by the first ingest into it
//! and continued by every later one; ingest assigns entries from it, and
//! BFS and components route by its [`owner`](Declustering::owner).

use mssg_types::{Edge, Gid, GidMap};
use std::sync::Arc;

/// Which declustering a cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DeclusterKind {
    /// Vertex granularity, `GID % p` (globally known).
    #[default]
    VertexHash,
    /// Vertex granularity, first-seen round-robin.
    VertexRoundRobin,
    /// Edge granularity round-robin.
    EdgeRoundRobin,
}

/// The hash mapping, `GID % p`: where `VertexHash` stores `v`'s adjacency,
/// and where every analysis keeps `v`'s state.
pub fn hash_node(v: Gid, nodes: usize) -> usize {
    (v.raw() % nodes as u64) as usize
}

/// A cluster's placement: the node each directed entry is stored on, and so
/// where a search finds a vertex's adjacency list.
///
/// `VertexHash` and `EdgeRoundRobin` are functions of an edge and its
/// position in the stream. `VertexRoundRobin` hands a vertex seen for the
/// first time the next node in rotation, so its assignments depend on every
/// edge before; they are kept here, and a clone is an immutable snapshot of
/// them.
#[derive(Clone, Debug)]
pub struct Declustering {
    kind: DeclusterKind,
    nodes: usize,
    /// `VertexRoundRobin`'s assignments: the `i`-th vertex seen went to node
    /// `i % nodes`. Empty under the other kinds.
    owners: Arc<GidMap<usize>>,
}

impl Declustering {
    /// An empty placement of `kind` over `nodes` back-ends.
    pub fn new(kind: DeclusterKind, nodes: usize) -> Declustering {
        assert!(nodes > 0);
        Declustering {
            kind,
            nodes,
            owners: Arc::default(),
        }
    }

    /// The declustering this placement runs.
    pub fn kind(&self) -> DeclusterKind {
        self.kind
    }

    /// Number of back-end nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node holding `v`'s whole adjacency list; `None` under edge
    /// granularity, where every node holds part of it and a search
    /// broadcasts. A vertex the first-come map has not seen has no list
    /// anywhere; it is placed by the hash.
    pub fn owner(&self, v: Gid) -> Option<usize> {
        match self.kind {
            DeclusterKind::VertexHash => Some(hash_node(v, self.nodes)),
            DeclusterKind::VertexRoundRobin => Some(
                self.owners
                    .get(&v)
                    .copied()
                    .unwrap_or_else(|| hash_node(v, self.nodes)),
            ),
            DeclusterKind::EdgeRoundRobin => None,
        }
    }

    /// The nodes the two directed entries of `e` go to, `e` being the edge
    /// at position `pos` of its stream. Vertex granularity stores each entry
    /// with its source's list; edge granularity deals entries round-robin,
    /// the `2·pos`-th and `2·pos + 1`-th of the stream.
    pub fn assign(&mut self, e: Edge, pos: u64) -> [(usize, Edge); 2] {
        let p = self.nodes;
        let bwd = e.reversed();
        match self.kind {
            DeclusterKind::VertexHash => [(hash_node(e.src, p), e), (hash_node(e.dst, p), bwd)],
            DeclusterKind::VertexRoundRobin => {
                let owners = Arc::make_mut(&mut self.owners);
                let mut own = |v: Gid| {
                    let next = owners.len() % p;
                    *owners.entry(v).or_insert(next)
                };
                [(own(e.src), e), (own(e.dst), bwd)]
            }
            DeclusterKind::EdgeRoundRobin => {
                let first = (pos % p as u64 * 2 % p as u64) as usize;
                [(first, e), ((first + 1) % p, bwd)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DeclusterKind::*;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    #[test]
    fn vertex_hash_is_deterministic_and_known() {
        let mut d = Declustering::new(VertexHash, 4);
        assert_eq!(d.owner(g(7)), Some(3));
        let [(n1, e1), (n2, e2)] = d.assign(Edge::of(7, 9), 0);
        assert_eq!(n1, 3);
        assert_eq!(e1, Edge::of(7, 9));
        assert_eq!(n2, 1); // 9 % 4
        assert_eq!(e2, Edge::of(9, 7));
    }

    #[test]
    fn vertex_rr_sticky_ownership() {
        let mut d = Declustering::new(VertexRoundRobin, 3);
        // Not yet seen: placed by the hash.
        assert_eq!(d.owner(g(10)), Some(1));
        let [(n1, _), (n2, _)] = d.assign(Edge::of(10, 20), 0);
        assert_eq!((n1, n2), (0, 1));
        // Same vertices keep their owners on later edges.
        let [(m1, _), (m2, _)] = d.assign(Edge::of(10, 20), 1);
        assert_eq!((m1, m2), (0, 1));
        assert_eq!(d.owner(g(10)), Some(0));
        // A new vertex continues the rotation.
        let [(k1, _), _] = d.assign(Edge::of(30, 10), 2);
        assert_eq!(k1, 2);
        // A clone is a snapshot: later assignments do not reach it.
        let snapshot = d.clone();
        d.assign(Edge::of(40, 10), 3);
        assert_eq!((snapshot.owner(g(40)), d.owner(g(40))), (Some(1), Some(0)));
    }

    #[test]
    fn vertex_strategies_keep_adjacency_together() {
        // All directed entries with the same source land on one node, the
        // one `owner` names.
        for kind in [VertexHash, VertexRoundRobin] {
            let mut d = Declustering::new(kind, 4);
            let mut seen: std::collections::HashMap<Gid, usize> = Default::default();
            let mut x = 5u64;
            for pos in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let e = Edge::of(x % 20, (x >> 16) % 20);
                for (node, entry) in d.assign(e, pos) {
                    let prior = seen.insert(entry.src, node);
                    if let Some(p) = prior {
                        assert_eq!(p, node, "vertex {} split across nodes", entry.src);
                    }
                }
            }
            for (v, node) in seen {
                assert_eq!(d.owner(v), Some(node), "{kind:?}");
            }
        }
    }

    #[test]
    fn edge_rr_spreads_adjacency_by_stream_position() {
        let mut d = Declustering::new(EdgeRoundRobin, 4);
        assert_eq!(d.owner(g(1)), None);
        let mut nodes_for_1 = std::collections::HashSet::new();
        for i in 0..8u64 {
            let [(a, fwd), (b, _)] = d.assign(Edge::of(1, 100 + i), i);
            // The rotation one front-end dealing entries in order makes.
            assert_eq!((a, b), ((2 * i % 4) as usize, (2 * i % 4 + 1) as usize));
            assert_eq!(fwd.src, g(1));
            nodes_for_1.insert(a);
        }
        assert!(
            nodes_for_1.len() > 1,
            "edge granularity must spread the list"
        );
        // A function of the position alone, however large.
        assert_eq!(d.assign(Edge::of(1, 2), u64::MAX)[0].0, 2);
    }

    #[test]
    fn assign_covers_both_directions() {
        let mut d = Declustering::new(VertexHash, 2);
        let [(_, e1), (_, e2)] = d.assign(Edge::of(3, 4), 0);
        assert_eq!(e1.reversed(), e2);
    }
}
