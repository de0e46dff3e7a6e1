//! The HashMap backend — thesis §4.1.2.
//!
//! Each vertex's adjacency list lives in its own growable array; a hash map
//! holds the pointer to it (thesis Figure 4.2). This trades one hash lookup
//! per access for dynamic growth and per-node memory that scales with the
//! local partition only — the properties the Array format lacks. It is also
//! the staging structure the prototype uses during ingestion.

use crate::meta_table::MetaTable;
use crate::traits::GraphDb;
use mssg_types::{AdjBuffer, Edge, Gid, GidMap, Meta, Result};

/// Hash-map-of-adjacency-lists in-memory backend.
#[derive(Default)]
pub struct HashMapDb {
    adj: GidMap<Vec<Gid>>,
    entries: u64,
    meta: MetaTable,
}

impl HashMapDb {
    /// Creates an empty backend.
    pub fn new() -> HashMapDb {
        HashMapDb::default()
    }

    /// Number of distinct source vertices stored.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }
}

impl GraphDb for HashMapDb {
    fn store_edges(&mut self, edges: &[Edge]) -> Result<()> {
        for e in edges {
            self.adj.entry(e.src).or_default().push(e.dst);
            self.entries += 1;
        }
        Ok(())
    }

    fn get_metadata(&mut self, v: Gid) -> Result<Meta> {
        Ok(self.meta.get(v))
    }

    fn set_metadata(&mut self, v: Gid, meta: Meta) -> Result<()> {
        self.meta.set(v, meta);
        Ok(())
    }

    fn read_fringe(&mut self, fringe: &[Gid], out: &mut AdjBuffer) -> Result<()> {
        for v in fringe {
            if let Some(ns) = self.adj.get(v) {
                out.extend_from_slice(ns);
            }
        }
        Ok(())
    }

    fn local_vertices(&mut self) -> Result<Vec<Gid>> {
        let mut vs: Vec<Gid> = self.adj.keys().copied().collect();
        vs.sort_unstable();
        Ok(vs)
    }

    fn stored_entries(&self) -> u64 {
        self.entries
    }

    fn backend_name(&self) -> &'static str {
        "HashMap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::GraphDbExt;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    #[test]
    fn store_and_retrieve() {
        let mut db = HashMapDb::new();
        db.store_edges(&[Edge::of(0, 1), Edge::of(0, 2), Edge::of(9, 0)])
            .unwrap();
        let mut n = db.neighbors(g(0)).unwrap();
        n.sort_unstable();
        assert_eq!(n, vec![g(1), g(2)]);
        assert_eq!(db.neighbors(g(9)).unwrap(), vec![g(0)]);
        assert_eq!(db.vertex_count(), 2);
    }

    #[test]
    fn dynamic_growth_is_cheap_and_correct() {
        let mut db = HashMapDb::new();
        for i in 0..100 {
            db.store_edges(&[Edge::of(7, i)]).unwrap();
        }
        assert_eq!(db.degree(g(7)).unwrap(), 100);
    }

    #[test]
    fn unknown_vertex_empty() {
        let mut db = HashMapDb::new();
        assert!(db.neighbors(g(1)).unwrap().is_empty());
    }

    #[test]
    fn metadata_default_unvisited() {
        let mut db = HashMapDb::new();
        assert_eq!(db.get_metadata(g(12)).unwrap(), mssg_types::UNVISITED);
        db.set_metadata(g(12), 4).unwrap();
        assert_eq!(db.get_metadata(g(12)).unwrap(), 4);
    }

    #[test]
    fn agreement_with_array_backend() {
        use crate::array::ArrayDb;
        use graphgen_like_edges as edges;

        let es = edges();
        let mut a = ArrayDb::new();
        let mut h = HashMapDb::new();
        a.store_edges(&es).unwrap();
        h.store_edges(&es).unwrap();
        a.flush().unwrap();
        for v in 0..20u64 {
            let mut na = a.neighbors(g(v)).unwrap();
            let mut nh = h.neighbors(g(v)).unwrap();
            na.sort_unstable();
            nh.sort_unstable();
            assert_eq!(na, nh, "vertex {v}");
        }
    }

    /// Small deterministic pseudo-random edge set (no graphgen dependency
    /// to avoid a dev-dependency cycle).
    fn graphgen_like_edges() -> Vec<Edge> {
        let mut x = 0x12345678u64;
        let mut out = Vec::new();
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x % 20;
            let b = (x >> 8) % 20;
            if a != b {
                out.push(Edge::of(a, b));
            }
        }
        out
    }
}
