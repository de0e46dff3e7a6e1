//! The MySQL-style GraphDB adapter — thesis §4.1.3.
//!
//! [`MySqlGraphDb`] supplies SQL rows to the shared [`ChunkedGraphDb`].
//! Adjacency lists are stored in the exact table of Figure 4.3:
//!
//! ```sql
//! CREATE TABLE adj (vertex BIGINT, chunk BIGINT, data BLOB,
//!                   PRIMARY KEY (vertex, chunk))
//! ```
//!
//! where `data` is an 8 KB binary chunk of the adjacency list and `chunk`
//! is the bookkeeping column that splits oversized lists across rows. A
//! reserved row `chunk = -1` holds the list's chunk count (an `i64 LE`
//! blob), the adapter's directory.
//!
//! Every operation goes through [`Database::execute`] with real SQL text —
//! lexing, parsing, planning, index lookup, heap fetch — so this backend
//! pays the full relational toll the thesis measured MySQL paying. A
//! vertex's adjacency read is one `SELECT … ORDER BY chunk`.

use crate::engine::Database;
use crate::value::Value;
use graphdb::chunk::{ChunkRecords, ChunkedGraphDb, CHUNK_BYTES};
use mssg_types::{Gid, GraphStorageError, Result};
use simio::IoStats;
use std::path::Path;
use std::sync::Arc;

/// MySQL's records: the rows of the `adj` table.
pub struct MySqlGraphDb {
    db: Database,
}

impl MySqlGraphDb {
    /// Opens the GraphDB stored in `dir`, with the thesis' 8 KB chunks.
    pub fn open(dir: &Path, stats: Arc<IoStats>) -> Result<ChunkedGraphDb<MySqlGraphDb>> {
        ChunkedGraphDb::open(MySqlGraphDb::records(dir, stats)?, CHUNK_BYTES)
    }

    /// Opens the `adj` table in `dir`, creating it on first use.
    fn records(dir: &Path, stats: Arc<IoStats>) -> Result<MySqlGraphDb> {
        let mut db = Database::open(dir, stats)?;
        let create = db.execute(
            "CREATE TABLE adj (vertex BIGINT, chunk BIGINT, data BLOB, \
             PRIMARY KEY (vertex, chunk))",
            &[],
        );
        match create {
            Ok(_) => {}
            // Reopening an existing database is fine.
            Err(GraphStorageError::Query(m)) if m.contains("already exists") => {}
            Err(e) => return Err(e),
        }
        Ok(MySqlGraphDb { db })
    }

    /// SQL statements issued so far (the relational-overhead counter).
    pub fn statements_executed(&self) -> u64 {
        self.db.statements_executed()
    }

    /// Inserts or updates the row `(v, chunk)`.
    fn write_row(&mut self, v: Gid, chunk: i64, data: &[u8], new: bool) -> Result<()> {
        let (vertex, chunk, data) = (
            Value::Int(v.raw() as i64),
            Value::Int(chunk),
            Value::Blob(data.to_vec()),
        );
        if new {
            self.db
                .execute("INSERT INTO adj VALUES (?, ?, ?)", &[vertex, chunk, data])?;
        } else {
            self.db.execute(
                "UPDATE adj SET data = ? WHERE vertex = ? AND chunk = ?",
                &[data, vertex, chunk],
            )?;
        }
        Ok(())
    }

    /// Runs a one-column `SELECT data …`, returning its blobs.
    fn blobs(&mut self, sql: &str, params: &[Value]) -> Result<Vec<Vec<u8>>> {
        let rs = self.db.execute(sql, params)?;
        rs.values
            .into_iter()
            .map(|value| match value {
                Value::Blob(b) => Ok(b),
                other => Err(GraphStorageError::corrupt(format!(
                    "non-blob chunk {other}"
                ))),
            })
            .collect()
    }
}

impl ChunkRecords for MySqlGraphDb {
    fn read_dir(&mut self, v: Gid) -> Result<u32> {
        let rows = self.blobs(
            "SELECT data FROM adj WHERE vertex = ? AND chunk = -1",
            &[Value::Int(v.raw() as i64)],
        )?;
        match rows.first() {
            Some(b) => b
                .as_slice()
                .try_into()
                .ok()
                .and_then(|arr| u32::try_from(i64::from_le_bytes(arr)).ok())
                .ok_or_else(|| GraphStorageError::corrupt("bad chunk-count row")),
            None => Ok(0),
        }
    }

    fn write_dir(&mut self, v: Gid, count: u32, new: bool) -> Result<()> {
        self.write_row(v, -1, &i64::from(count).to_le_bytes(), new)
    }

    fn read_chunk(&mut self, v: Gid, c: u32) -> Result<Option<Vec<u8>>> {
        let rows = self.blobs(
            "SELECT data FROM adj WHERE vertex = ? AND chunk = ?",
            &[Value::Int(v.raw() as i64), Value::Int(i64::from(c))],
        )?;
        Ok(rows.into_iter().next())
    }

    fn read_chunks(&mut self, v: Gid, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let rows = self.blobs(
            "SELECT data FROM adj WHERE vertex = ? AND chunk >= 0 ORDER BY chunk",
            &[Value::Int(v.raw() as i64)],
        )?;
        rows.iter().try_for_each(|b| f(b))
    }

    fn write_chunk(&mut self, v: Gid, c: u32, data: &[u8], new: bool) -> Result<()> {
        self.write_row(v, i64::from(c), data, new)
    }

    fn vertices(&mut self) -> Result<Vec<Gid>> {
        let rs = self.db.execute(
            "SELECT vertex FROM adj WHERE chunk = -1 ORDER BY vertex",
            &[],
        )?;
        rs.values
            .iter()
            .map(|v| Ok(Gid::new(v.as_int()? as u64)))
            .collect()
    }

    fn for_each_chunk(&mut self, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let rows = self.blobs("SELECT data FROM adj WHERE chunk >= 0", &[])?;
        rows.iter().try_for_each(|b| f(b))
    }

    fn flush(&mut self) -> Result<()> {
        self.db.flush()
    }

    fn name(&self) -> &'static str {
        "MySQL"
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

    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("minisql-graph-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(d: &Path, chunk_bytes: usize) -> ChunkedGraphDb<MySqlGraphDb> {
        ChunkedGraphDb::open(
            MySqlGraphDb::records(d, IoStats::new()).unwrap(),
            chunk_bytes,
        )
        .unwrap()
    }

    #[test]
    fn store_and_read() {
        let mut m = open(&dir("basic"), 8192);
        m.store_edges(&[Edge::of(1, 2), Edge::of(1, 3), Edge::of(4, 1)])
            .unwrap();
        assert_eq!(m.neighbors(g(1)).unwrap(), vec![g(2), g(3)]);
        assert_eq!(m.neighbors(g(4)).unwrap(), vec![g(1)]);
        assert_eq!(m.local_vertices().unwrap(), vec![g(1), g(4)]);
        assert!(m.neighbors(g(42)).unwrap().is_empty());
    }

    #[test]
    fn multi_chunk_lists() {
        let mut m = open(&dir("chunks"), 28); // 3 entries per chunk
        let edges: Vec<Edge> = (0..10).map(|i| Edge::of(7, 100 + i)).collect();
        m.store_edges(&edges).unwrap();
        let n = m.neighbors(g(7)).unwrap();
        assert_eq!(n, (0..10).map(|i| g(100 + i)).collect::<Vec<_>>());
        assert_eq!(m.records().read_dir(g(7)).unwrap(), 4);
    }

    #[test]
    fn sql_overhead_is_paid() {
        let mut m = open(&dir("overhead"), 8192);
        let before = m.records().statements_executed();
        m.store_edges(&[Edge::of(1, 2)]).unwrap();
        // Directory lookup, chunk insert, directory insert.
        assert_eq!(m.records().statements_executed() - before, 3);
        m.store_edges(&[Edge::of(1, 3)]).unwrap();
        // Directory lookup, tail read, tail update.
        assert_eq!(m.records().statements_executed() - before, 6);
        m.neighbors(g(1)).unwrap();
        assert_eq!(
            m.records().statements_executed() - before,
            7,
            "one SELECT per read"
        );
    }

    #[test]
    fn reopen_keeps_lists_and_count() {
        let d = dir("persist");
        {
            let mut m = open(&d, 28);
            m.store_edges(&(0..9).map(|i| Edge::of(3, i)).collect::<Vec<_>>())
                .unwrap();
            m.flush().unwrap();
        }
        let mut m = open(&d, 28);
        assert_eq!(m.stored_entries(), 9);
        assert_eq!(m.neighbors(g(3)).unwrap().len(), 9);
        // Appends continue correctly after reopen.
        m.store_edges(&[Edge::of(3, 99)]).unwrap();
        assert_eq!(m.neighbors(g(3)).unwrap().len(), 10);
        assert_eq!(m.stored_entries(), 10);
    }

    #[test]
    fn agrees_with_hashmap_reference() {
        let mut m = open(&dir("agree"), 28);
        let mut h = HashMapDb::new();
        let mut x = 77u64;
        let mut edges = Vec::new();
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(Edge::of(x % 15, (x >> 20) % 15));
        }
        // Feed in several batches to exercise tail handling.
        for batch in edges.chunks(37) {
            m.store_edges(batch).unwrap();
            h.store_edges(batch).unwrap();
        }
        for v in 0..15u64 {
            assert_eq!(
                m.neighbors(g(v)).unwrap(),
                h.neighbors(g(v)).unwrap(),
                "vertex {v}"
            );
        }
    }
}
