//! Clustering / declustering strategies for the Ingestion service
//! (thesis §3.2).
//!
//! MSSG stores graphs at two granularities: *vertex* granularity (all of a
//! vertex's edges on one node) and *edge* granularity (each edge an
//! independent entity). At vertex granularity the critical question is
//! whether vertex ownership is **globally known**: with a deterministic
//! mapping like `GID % p` the search can send fringe vertices straight to
//! their owners; with a first-come assignment the mapping lives only at
//! the ingestion service and the search must broadcast (Algorithm 1's
//! three cases).

use mssg_types::{Edge, Gid, GidMap};

/// A declustering strategy instance. Stateful: the round-robin variants
/// remember assignments made earlier in the stream.
#[derive(Clone, Debug)]
pub enum Declustering {
    /// Vertex granularity with the globally known mapping `GID % p`.
    VertexHash {
        /// Number of back-end nodes.
        nodes: usize,
    },
    /// Vertex granularity, first-seen round-robin assignment. Ownership is
    /// known only to the ingestion service, so searches broadcast.
    VertexRoundRobin {
        /// Number of back-end nodes.
        nodes: usize,
        /// Assignments made so far.
        owners: GidMap<usize>,
        /// Next node in rotation.
        next: usize,
    },
    /// Edge granularity round-robin: each *directed entry* goes to the next
    /// node; a vertex's adjacency list ends up spread everywhere.
    EdgeRoundRobin {
        /// Number of back-end nodes.
        nodes: usize,
        /// Next node in rotation.
        next: usize,
    },
}

impl Declustering {
    /// Creates the `GID % p` strategy.
    pub fn vertex_hash(nodes: usize) -> Declustering {
        assert!(nodes > 0);
        Declustering::VertexHash { nodes }
    }

    /// Creates the vertex round-robin strategy.
    pub fn vertex_round_robin(nodes: usize) -> Declustering {
        assert!(nodes > 0);
        Declustering::VertexRoundRobin {
            nodes,
            owners: GidMap::default(),
            next: 0,
        }
    }

    /// Creates the edge round-robin strategy.
    pub fn edge_round_robin(nodes: usize) -> Declustering {
        assert!(nodes > 0);
        Declustering::EdgeRoundRobin { nodes, next: 0 }
    }

    /// Number of back-end nodes.
    pub fn nodes(&self) -> usize {
        match self {
            Declustering::VertexHash { nodes }
            | Declustering::VertexRoundRobin { nodes, .. }
            | Declustering::EdgeRoundRobin { nodes, .. } => *nodes,
        }
    }

    /// `true` when every processor can compute vertex ownership locally —
    /// the condition for Algorithm 1's targeted sends.
    pub fn globally_known_mapping(&self) -> bool {
        matches!(self, Declustering::VertexHash { .. })
    }

    /// The owner of vertex `v` under a globally known mapping.
    pub fn owner(&self, v: Gid) -> Option<usize> {
        match self {
            Declustering::VertexHash { nodes } => Some((v.raw() % *nodes as u64) as usize),
            Declustering::VertexRoundRobin { owners, .. } => owners.get(&v).copied(),
            Declustering::EdgeRoundRobin { .. } => None,
        }
    }

    /// Assigns the two directed entries of an undirected edge, returning
    /// `(node, directed_entry)` pairs. Vertex strategies route each entry
    /// to the source vertex's owner; the edge strategy rotates.
    pub fn assign(&mut self, e: Edge) -> [(usize, Edge); 2] {
        let fwd = e;
        let bwd = e.reversed();
        match self {
            Declustering::VertexHash { nodes } => {
                let p = *nodes as u64;
                [
                    ((fwd.src.raw() % p) as usize, fwd),
                    ((bwd.src.raw() % p) as usize, bwd),
                ]
            }
            Declustering::VertexRoundRobin {
                nodes,
                owners,
                next,
            } => {
                let mut own = |v: Gid| -> usize {
                    *owners.entry(v).or_insert_with(|| {
                        let n = *next;
                        *next = (*next + 1) % *nodes;
                        n
                    })
                };
                [(own(fwd.src), fwd), (own(bwd.src), bwd)]
            }
            Declustering::EdgeRoundRobin { nodes, next } => {
                let a = *next;
                let b = (*next + 1) % *nodes;
                *next = (*next + 2) % *nodes;
                [(a, fwd), (b, bwd)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    #[test]
    fn vertex_hash_is_deterministic_and_known() {
        let mut d = Declustering::vertex_hash(4);
        assert!(d.globally_known_mapping());
        assert_eq!(d.owner(g(7)), Some(3));
        let [(n1, e1), (n2, e2)] = d.assign(Edge::of(7, 9));
        assert_eq!(n1, 3);
        assert_eq!(e1, Edge::of(7, 9));
        assert_eq!(n2, 1); // 9 % 4
        assert_eq!(e2, Edge::of(9, 7));
    }

    #[test]
    fn vertex_rr_sticky_ownership() {
        let mut d = Declustering::vertex_round_robin(3);
        assert!(!d.globally_known_mapping());
        let [(n1, _), (n2, _)] = d.assign(Edge::of(10, 20));
        assert_eq!((n1, n2), (0, 1));
        // Same vertices keep their owners on later edges.
        let [(m1, _), (m2, _)] = d.assign(Edge::of(10, 20));
        assert_eq!((m1, m2), (0, 1));
        assert_eq!(d.owner(g(10)), Some(0));
        // A new vertex continues the rotation.
        let [(k1, _), _] = d.assign(Edge::of(30, 10));
        assert_eq!(k1, 2);
    }

    #[test]
    fn vertex_strategies_keep_adjacency_together() {
        // All directed entries with the same source land on one node.
        for mut d in [
            Declustering::vertex_hash(4),
            Declustering::vertex_round_robin(4),
        ] {
            let mut seen: std::collections::HashMap<Gid, usize> = Default::default();
            let mut x = 5u64;
            for _ in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let e = Edge::of(x % 20, (x >> 16) % 20);
                for (node, entry) in d.assign(e) {
                    let prior = seen.insert(entry.src, node);
                    if let Some(p) = prior {
                        assert_eq!(p, node, "vertex {} split across nodes", entry.src);
                    }
                }
            }
        }
    }

    #[test]
    fn edge_rr_spreads_adjacency() {
        let mut d = Declustering::edge_round_robin(4);
        assert_eq!(d.owner(g(1)), None);
        let mut nodes_for_1 = std::collections::HashSet::new();
        for i in 0..8u64 {
            for (node, entry) in d.assign(Edge::of(1, 100 + i)) {
                if entry.src == g(1) {
                    nodes_for_1.insert(node);
                }
            }
        }
        assert!(
            nodes_for_1.len() > 1,
            "edge granularity must spread the list"
        );
    }

    #[test]
    fn assign_covers_both_directions() {
        let mut d = Declustering::vertex_hash(2);
        let [(_, e1), (_, e2)] = d.assign(Edge::of(3, 4));
        assert_eq!(e1.reversed(), e2);
    }
}
