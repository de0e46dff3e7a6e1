//! The BerkeleyDB-style GraphDB adapter — thesis §4.1.4.
//!
//! "The chunking technique used in the MySQL implementation is also used
//! here": [`BdbGraphDb`] supplies B-tree records to the shared
//! [`ChunkedGraphDb`], which stores each vertex's adjacency list as 8 KB
//! binary chunks plus a directory record holding the chunk count.
//!
//! Key layout (big-endian so B-tree order clusters a vertex's records):
//! `[vertex u64 BE][chunk u32 BE]`, with chunk `0xFFFF_FFFF` reserved for
//! the directory record, whose value is the count as a `u32 BE`.

use crate::store::{KvOptions, KvStore};
use graphdb::chunk::{ChunkRecords, ChunkedGraphDb, CHUNK_BYTES};
use mssg_types::{Gid, GraphStorageError, Result};
use simio::IoStats;
use std::path::Path;
use std::sync::Arc;

/// Directory record chunk number.
const DIR_CHUNK: u32 = u32::MAX;

/// BerkeleyDB's records: chunks and directories in one B-tree.
pub struct BdbGraphDb {
    store: KvStore,
}

fn is_dir(key: &[u8]) -> bool {
    key.len() == 12 && key[8..] == DIR_CHUNK.to_be_bytes()
}

fn record_key(v: Gid, chunk_no: u32) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..8].copy_from_slice(&v.raw().to_be_bytes());
    k[8..].copy_from_slice(&chunk_no.to_be_bytes());
    k
}

impl BdbGraphDb {
    /// Opens the GraphDB stored at `path`, with the thesis' 8 KB chunks.
    pub fn open(
        path: &Path,
        options: KvOptions,
        stats: Arc<IoStats>,
    ) -> Result<ChunkedGraphDb<BdbGraphDb>> {
        let store = KvStore::open(path, options, stats)?;
        ChunkedGraphDb::open(BdbGraphDb { store }, CHUNK_BYTES)
    }
}

impl ChunkRecords for BdbGraphDb {
    fn read_dir(&mut self, v: Gid) -> Result<u32> {
        let Some(bytes) = self.store.get(&record_key(v, DIR_CHUNK))? else {
            return Ok(0);
        };
        let arr = bytes
            .try_into()
            .map_err(|_| GraphStorageError::corrupt("bad directory record"))?;
        Ok(u32::from_be_bytes(arr))
    }

    fn write_dir(&mut self, v: Gid, count: u32, _new: bool) -> Result<()> {
        self.store
            .put(&record_key(v, DIR_CHUNK), &count.to_be_bytes())?;
        Ok(())
    }

    fn read_chunk(&mut self, v: Gid, c: u32) -> Result<Option<Vec<u8>>> {
        self.store.get(&record_key(v, c))
    }

    fn read_chunks(&mut self, v: Gid, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        for c in 0..self.read_dir(v)? {
            let bytes = self
                .read_chunk(v, c)?
                .ok_or_else(|| GraphStorageError::corrupt(format!("missing chunk {c}")))?;
            f(&bytes)?;
        }
        Ok(())
    }

    fn write_chunk(&mut self, v: Gid, c: u32, data: &[u8], _new: bool) -> Result<()> {
        self.store.put(&record_key(v, c), data)?;
        Ok(())
    }

    fn vertices(&mut self) -> Result<Vec<Gid>> {
        let mut vs = Vec::new();
        self.store.for_each_range(None, None, &mut |k, _| {
            if is_dir(k) {
                vs.push(Gid::from_raw(u64::from_be_bytes(
                    k[..8].try_into().unwrap(),
                )));
            }
            true
        })?;
        Ok(vs)
    }

    fn for_each_chunk(&mut self, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let mut failed = Ok(());
        self.store.for_each_range(None, None, &mut |k, value| {
            if !is_dir(k) {
                failed = f(&value);
            }
            failed.is_ok()
        })?;
        failed
    }

    fn flush(&mut self) -> Result<()> {
        self.store.flush()
    }

    fn name(&self) -> &'static str {
        "BerkeleyDB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdb::{GraphDb, GraphDbExt, HashMapDb};
    use mssg_types::Edge;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    fn path(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("kvdb-graph-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(tag)
    }

    fn open(p: &Path, chunk_bytes: usize) -> ChunkedGraphDb<BdbGraphDb> {
        let store = KvStore::open(p, KvOptions::default(), IoStats::new()).unwrap();
        ChunkedGraphDb::open(BdbGraphDb { store }, chunk_bytes).unwrap()
    }

    fn db(tag: &str, chunk_bytes: usize) -> ChunkedGraphDb<BdbGraphDb> {
        let p = path(tag);
        let _ = std::fs::remove_file(&p);
        open(&p, chunk_bytes)
    }

    #[test]
    fn store_and_read_small_list() {
        let mut b = db("small.db", 8192);
        b.store_edges(&[Edge::of(1, 2), Edge::of(1, 3), Edge::of(4, 1)])
            .unwrap();
        assert_eq!(b.neighbors(g(1)).unwrap(), vec![g(2), g(3)]);
        assert_eq!(b.neighbors(g(4)).unwrap(), vec![g(1)]);
        assert_eq!(b.stored_entries(), 3);
        assert_eq!(b.local_vertices().unwrap(), vec![g(1), g(4)]);
        assert!(b.neighbors(g(9)).unwrap().is_empty());
    }

    #[test]
    fn multi_chunk_adjacency() {
        // Chunk of 28 bytes holds 3 entries; 10 neighbours = 4 chunks.
        let mut b = db("multichunk.db", 28);
        let edges: Vec<Edge> = (0..10).map(|i| Edge::of(7, 100 + i)).collect();
        b.store_edges(&edges).unwrap();
        let n = b.neighbors(g(7)).unwrap();
        assert_eq!(n, (0..10).map(|i| g(100 + i)).collect::<Vec<_>>());
        assert_eq!(b.records().read_dir(g(7)).unwrap(), 4);
    }

    #[test]
    fn reopen_keeps_lists_and_count() {
        let p = path("persist.db");
        let _ = std::fs::remove_file(&p);
        {
            let mut b = open(&p, 28);
            let edges: Vec<Edge> = (0..20).map(|i| Edge::of(5, i)).collect();
            b.store_edges(&edges).unwrap();
            b.flush().unwrap();
        }
        let mut b = open(&p, 28);
        assert_eq!(b.stored_entries(), 20);
        assert_eq!(b.neighbors(g(5)).unwrap().len(), 20);
    }

    #[test]
    fn agrees_with_hashmap_reference() {
        let mut b = db("agree.db", 28);
        let mut h = HashMapDb::new();
        let mut x = 7u64;
        let mut edges = Vec::new();
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(Edge::of(x % 25, (x >> 16) % 25));
        }
        for batch in edges.chunks(37) {
            b.store_edges(batch).unwrap();
            h.store_edges(batch).unwrap();
        }
        for v in 0..25u64 {
            assert_eq!(
                b.neighbors(g(v)).unwrap(),
                h.neighbors(g(v)).unwrap(),
                "vertex {v}"
            );
        }
    }
}
