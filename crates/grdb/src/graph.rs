//! The grDB GraphDB adapter.

use crate::config::{GrdbConfig, WORD};
use crate::store::GrdbStore;
use graphdb::{group_by_source, GraphDb, MetaTable};
use mssg_types::{AdjBuffer, Edge, Gid, Meta, Result};
use simio::IoStats;
use std::path::Path;
use std::sync::Arc;

/// GraphDB backend over a [`GrdbStore`].
pub struct GrdbGraphDb {
    store: GrdbStore,
    meta: MetaTable,
}

impl GrdbGraphDb {
    /// Opens an instance in `dir`.
    pub fn open(dir: &Path, config: GrdbConfig, stats: Arc<IoStats>) -> Result<GrdbGraphDb> {
        Ok(GrdbGraphDb {
            store: GrdbStore::open(dir, config, stats)?,
            meta: MetaTable::new(),
        })
    }

    /// The underlying store (for defragmentation, chain inspection, cache
    /// statistics).
    pub fn store(&mut self) -> &mut GrdbStore {
        &mut self.store
    }

    /// Block-cache statistics.
    pub fn cache_stats(&self) -> simio::CacheStats {
        self.store.cache_stats()
    }
}

impl GraphDb for GrdbGraphDb {
    fn store_edges(&mut self, edges: &[Edge]) -> Result<()> {
        // One chain walk per source, in ascending source order: level 0 is
        // addressed by vertex id, so the batch is one sweep in file order.
        group_by_source(edges, |src, dsts| self.store.append_neighbours(src, dsts))
    }

    /// A batch the size of the largest block spans many ingest windows,
    /// so edges sharing a source vertex are merged into one chain walk per
    /// batch instead of one per window.
    fn store_batch_entries(&self) -> usize {
        let levels = &self.store.config().levels;
        levels
            .iter()
            .map(|l| l.block_bytes / WORD)
            .max()
            .unwrap_or(0)
    }

    fn get_metadata(&mut self, v: Gid) -> Result<Meta> {
        Ok(self.meta.get(v))
    }

    fn set_metadata(&mut self, v: Gid, meta: Meta) -> Result<()> {
        self.meta.set(v, meta);
        Ok(())
    }

    /// One block-ordered, merged pass over the whole fringe
    /// ([`GrdbStore::expand`]), decoded straight into `out`. A point lookup
    /// is a one-vertex fringe: same routine, and the list comes back in
    /// insertion order.
    fn read_fringe(&mut self, fringe: &[Gid], out: &mut AdjBuffer) -> Result<()> {
        self.store.expand(fringe, |u| out.push(u))
    }

    fn flush(&mut self) -> Result<()> {
        self.store.flush()
    }

    fn maintenance(&mut self) -> Result<()> {
        self.store.defragment_all()?;
        Ok(())
    }

    fn local_vertices(&mut self) -> Result<Vec<Gid>> {
        self.store.vertices()
    }

    fn stored_entries(&self) -> u64 {
        self.store.entries()
    }

    fn cache_counters(&self) -> Option<(u64, u64, u64)> {
        let s = self.store.cache_stats();
        Some((s.hits, s.misses, s.evictions))
    }

    fn backend_name(&self) -> &'static str {
        "grDB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdb::GraphDbExt;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    fn db(tag: &str) -> GrdbGraphDb {
        let d = std::env::temp_dir().join(format!("grdb-graph-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        GrdbGraphDb::open(&d, GrdbConfig::tiny(), IoStats::new()).unwrap()
    }

    #[test]
    fn store_and_read() {
        let mut db = db("basic");
        db.store_edges(&[Edge::of(1, 2), Edge::of(1, 3), Edge::of(4, 1)])
            .unwrap();
        let mut n = db.neighbors(g(1)).unwrap();
        n.sort_unstable();
        assert_eq!(n, vec![g(2), g(3)]);
        assert_eq!(db.stored_entries(), 3);
    }

    #[test]
    fn hub_through_levels_via_trait() {
        let mut db = db("hub");
        let edges: Vec<Edge> = (0..30).map(|i| Edge::of(9, 100 + i)).collect();
        db.store_edges(&edges).unwrap();
        assert_eq!(db.neighbors(g(9)).unwrap().len(), 30);
    }

    #[test]
    fn agrees_with_hashmap_reference() {
        use graphdb::HashMapDb;
        let mut gr = db("agree");
        let mut h = HashMapDb::new();
        let mut x = 41u64;
        let mut edges = Vec::new();
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(Edge::of(x % 40, (x >> 13) % 40));
        }
        gr.store_edges(&edges).unwrap();
        h.store_edges(&edges).unwrap();
        for v in 0..40u64 {
            let ng = gr.neighbors(g(v)).unwrap();
            let nh = h.neighbors(g(v)).unwrap();
            // grDB preserves insertion order, like the hash map.
            assert_eq!(ng, nh, "vertex {v}");
        }
    }

    #[test]
    fn agreement_survives_defragmentation() {
        use graphdb::HashMapDb;
        let mut gr = db("defrag-agree");
        let mut h = HashMapDb::new();
        let edges: Vec<Edge> = (0..25).map(|i| Edge::of(i % 3, 50 + i)).collect();
        gr.store_edges(&edges).unwrap();
        h.store_edges(&edges).unwrap();
        gr.store().defragment_all().unwrap();
        for v in 0..3u64 {
            assert_eq!(gr.neighbors(g(v)).unwrap(), h.neighbors(g(v)).unwrap());
        }
    }

    #[test]
    fn unknown_vertex_empty() {
        let mut db = db("unknown");
        assert!(db.neighbors(g(123)).unwrap().is_empty());
    }
}
