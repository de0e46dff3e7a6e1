#![warn(missing_docs)]
//! StreamDB — the streaming, scan-everything backend (thesis §4.1.5).
//!
//! Edges are appended to a binary log exactly as they arrive; no sorting,
//! no clustering, no index. Ingestion is therefore as fast as the disk can
//! sequentially write — the thesis shows StreamDB with "unrivaled ingestion
//! performance" in Figure 5.5 — but a vertex's adjacency list can only be
//! recovered by scanning the *entire* edge set.
//!
//! The design consequence, inherited from the Active Disks work the thesis
//! cites: "any search algorithm which needs the adjacent vertices to
//! another set of vertices must post a request for all of the 'fringe'
//! vertices at once, thereby allowing the database to only scan through its
//! data once." Accordingly a fringe read
//! ([`read_fringe`](GraphDb::read_fringe)) is the native operation (one
//! sequential pass answers the whole fringe) and a point query, while
//! correct, costs a full scan.

use graphdb::{GraphDb, MetaTable};
use mssg_types::{AdjBuffer, Edge, Gid, GraphStorageError, Meta, Result};
use simio::IoStats;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record size: two 64-bit words.
const RECORD: usize = 16;
/// Scan/append buffer size; counts as one "block" in the I/O statistics.
const BUF: usize = 64 * 1024;

/// The append-only streaming edge database.
pub struct StreamDb {
    file: File,
    path: PathBuf,
    /// Pending appended records not yet written to the file.
    pending: Vec<u8>,
    /// Records currently durable in the file.
    records_on_disk: u64,
    meta: MetaTable,
    stats: Arc<IoStats>,
}

impl StreamDb {
    /// Opens (creating if needed) a stream database at `path`.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> Result<StreamDb> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % RECORD as u64 != 0 {
            return Err(GraphStorageError::corrupt(format!(
                "{} has length {len}, not a multiple of the {RECORD}-byte record",
                path.display()
            )));
        }
        Ok(StreamDb {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
            records_on_disk: len / RECORD as u64,
            meta: MetaTable::new(),
            stats,
        })
    }

    /// Path of the backing log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens a log that may have a *torn tail* — a partial record left by
    /// a crash mid-append (the failure [`open`](StreamDb::open) rejects as
    /// corruption). The tail is truncated away and the database opens on
    /// the surviving whole-record prefix; since the log is append-only,
    /// everything before the tear is untouched. Returns the database and
    /// the number of trailing bytes discarded.
    ///
    /// This is the backend half of the recovery story in DESIGN.md
    /// §"Failure model": the ingestion checkpoint re-delivers whatever
    /// windows the discarded tail contained, so a crashed node converges
    /// on the full edge set after a resumed run. As with every StreamDB
    /// read path, verifying the recovered content costs a scan of the
    /// entire edge set (see the crate docs).
    pub fn recover(path: &Path, stats: Arc<IoStats>) -> Result<(StreamDb, u64)> {
        let torn = match std::fs::metadata(path) {
            Ok(m) => m.len() % RECORD as u64,
            Err(_) => 0, // no file yet: open will create it
        };
        if torn != 0 {
            let file = OpenOptions::new().write(true).open(path)?;
            let len = file.metadata()?.len();
            file.set_len(len - torn)?;
            file.sync_data()?;
        }
        Ok((StreamDb::open(path, stats)?, torn))
    }

    fn write_pending(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(&self.pending)?;
        self.stats.record_write(self.pending.len() as u64);
        self.records_on_disk += (self.pending.len() / RECORD) as u64;
        self.pending.clear();
        Ok(())
    }

    /// One sequential pass over the log, invoking `cb` for each edge.
    fn scan(&mut self, cb: &mut dyn FnMut(Edge)) -> Result<()> {
        self.write_pending()?;
        self.file.seek(SeekFrom::Start(0))?;
        self.stats.record_seek();
        let mut remaining = self.records_on_disk as usize * RECORD;
        let mut buf = vec![0u8; BUF];
        while remaining > 0 {
            let take = remaining.min(BUF);
            self.file.read_exact(&mut buf[..take])?;
            self.stats.record_read(take as u64);
            for rec in buf[..take].chunks_exact(RECORD) {
                cb(Edge::from_bytes(rec.try_into().unwrap()));
            }
            remaining -= take;
        }
        Ok(())
    }
}

impl GraphDb for StreamDb {
    fn store_edges(&mut self, edges: &[Edge]) -> Result<()> {
        for e in edges {
            self.pending.extend_from_slice(&e.to_bytes());
        }
        if self.pending.len() >= BUF {
            self.write_pending()?;
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

    /// The native operation: one sequential scan answers every fringe
    /// vertex at once. A point query is a one-vertex fringe, so it costs
    /// the same full scan — the whole point of the design is to ask for
    /// the fringe at once.
    fn read_fringe(&mut self, fringe: &[Gid], out: &mut AdjBuffer) -> Result<()> {
        let mut times: HashMap<Gid, usize> = HashMap::new();
        for &v in fringe {
            *times.entry(v).or_default() += 1;
        }
        self.scan(&mut |e| {
            for _ in 0..times.get(&e.src).copied().unwrap_or(0) {
                out.push(e.dst);
            }
        })
    }

    fn flush(&mut self) -> Result<()> {
        self.write_pending()?;
        self.file.sync_data()?;
        self.stats.record_sync();
        Ok(())
    }

    fn local_vertices(&mut self) -> Result<Vec<Gid>> {
        let mut set = HashSet::new();
        self.scan(&mut |e| {
            set.insert(e.src);
        })?;
        let mut vs: Vec<Gid> = set.into_iter().collect();
        vs.sort_unstable();
        Ok(vs)
    }

    fn stored_entries(&self) -> u64 {
        self.records_on_disk + (self.pending.len() / RECORD) as u64
    }

    fn backend_name(&self) -> &'static str {
        "StreamDB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdb::GraphDbExt;
    use mssg_types::MetaOp;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    fn db(tag: &str) -> StreamDb {
        let d = std::env::temp_dir().join(format!("streamdb-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(tag);
        let _ = std::fs::remove_file(&p);
        StreamDb::open(&p, IoStats::new()).unwrap()
    }

    #[test]
    fn store_and_point_query() {
        let mut s = db("point.log");
        s.store_edges(&[Edge::of(1, 2), Edge::of(1, 3), Edge::of(2, 1)])
            .unwrap();
        let mut n = s.neighbors(g(1)).unwrap();
        n.sort_unstable();
        assert_eq!(n, vec![g(2), g(3)]);
    }

    #[test]
    fn fringe_expansion_single_scan() {
        let stats = IoStats::new();
        let d = std::env::temp_dir().join(format!("streamdb-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("fringe.log");
        let _ = std::fs::remove_file(&p);
        let mut s = StreamDb::open(&p, Arc::clone(&stats)).unwrap();
        let edges: Vec<Edge> = (0..10_000u64).map(|i| Edge::of(i % 100, i)).collect();
        s.store_edges(&edges).unwrap();
        s.flush().unwrap();
        let before = stats.snapshot();
        let mut out = AdjBuffer::new();
        s.expand_fringe(&[g(0), g(1), g(2)], &mut out, 0, MetaOp::Ignore)
            .unwrap();
        assert_eq!(out.len(), 300);
        let delta = stats.snapshot().since(&before);
        // 10k records × 16 B = 160000 B -> ceil(160000/65536) = 3 buffered reads.
        assert_eq!(
            delta.block_reads, 3,
            "one sequential pass regardless of fringe size"
        );
    }

    #[test]
    fn ingestion_is_sequential() {
        let stats = IoStats::new();
        let d = std::env::temp_dir().join(format!("streamdb-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("ingest.log");
        let _ = std::fs::remove_file(&p);
        let mut s = StreamDb::open(&p, Arc::clone(&stats)).unwrap();
        let edges: Vec<Edge> = (0..50_000u64).map(|i| Edge::of(i, i + 1)).collect();
        s.store_edges(&edges).unwrap();
        s.flush().unwrap();
        let snap = stats.snapshot();
        // Appends never seek (writes land at the rolling end of file).
        assert_eq!(snap.seeks, 0);
        assert_eq!(snap.bytes_written, 50_000 * 16);
    }

    #[test]
    fn persistence_and_reopen() {
        let d = std::env::temp_dir().join(format!("streamdb-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("persist.log");
        let _ = std::fs::remove_file(&p);
        {
            let mut s = StreamDb::open(&p, IoStats::new()).unwrap();
            s.store_edges(&[Edge::of(9, 8)]).unwrap();
            s.flush().unwrap();
        }
        let mut s = StreamDb::open(&p, IoStats::new()).unwrap();
        assert_eq!(s.stored_entries(), 1);
        assert_eq!(s.neighbors(g(9)).unwrap(), vec![g(8)]);
        // Appending after reopen keeps old records.
        s.store_edges(&[Edge::of(9, 7)]).unwrap();
        assert_eq!(s.neighbors(g(9)).unwrap().len(), 2);
    }

    #[test]
    fn unknown_vertex_empty() {
        let mut s = db("unknown.log");
        s.store_edges(&[Edge::of(0, 1)]).unwrap();
        assert!(s.neighbors(g(5)).unwrap().is_empty());
    }

    #[test]
    fn truncated_log_rejected() {
        let d = std::env::temp_dir().join(format!("streamdb-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("trunc.log");
        std::fs::write(&p, [0u8; 20]).unwrap();
        assert!(StreamDb::open(&p, IoStats::new()).is_err());
    }

    #[test]
    fn recover_truncates_torn_tail_and_keeps_prefix() {
        let d = std::env::temp_dir().join(format!("streamdb-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("recover.log");
        let _ = std::fs::remove_file(&p);
        {
            let mut s = StreamDb::open(&p, IoStats::new()).unwrap();
            s.store_edges(&[Edge::of(1, 2), Edge::of(3, 4)]).unwrap();
            s.flush().unwrap();
        }
        // Simulate a crash mid-append: 7 stray bytes of a third record.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&[0xAB; 7]).unwrap();
        }
        assert!(
            StreamDb::open(&p, IoStats::new()).is_err(),
            "plain open still rejects the torn log"
        );
        let (mut s, torn) = StreamDb::recover(&p, IoStats::new()).unwrap();
        assert_eq!(torn, 7);
        assert_eq!(s.stored_entries(), 2, "whole-record prefix survives");
        assert_eq!(s.neighbors(g(1)).unwrap(), vec![g(2)]);
        assert_eq!(s.neighbors(g(3)).unwrap(), vec![g(4)]);
        // A clean log recovers with nothing to discard.
        drop(s);
        let (s, torn) = StreamDb::recover(&p, IoStats::new()).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(s.stored_entries(), 2);
    }

    #[test]
    fn pending_records_visible_before_flush() {
        let mut s = db("pending.log");
        s.store_edges(&[Edge::of(1, 2)]).unwrap();
        assert_eq!(s.stored_entries(), 1);
        // Scan must see unflushed records (write_pending happens lazily).
        assert_eq!(s.neighbors(g(1)).unwrap(), vec![g(2)]);
    }

    #[test]
    fn agrees_with_hashmap_reference() {
        use graphdb::HashMapDb;
        let mut s = db("agree.log");
        let mut h = HashMapDb::new();
        let mut x = 3u64;
        let mut edges = Vec::new();
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(Edge::of(x % 30, (x >> 24) % 30));
        }
        s.store_edges(&edges).unwrap();
        h.store_edges(&edges).unwrap();
        let fringe: Vec<Gid> = (0..30).map(g).collect();
        let mut out_s = AdjBuffer::new();
        let mut out_h = AdjBuffer::new();
        s.expand_fringe(&fringe, &mut out_s, 0, MetaOp::Ignore)
            .unwrap();
        h.expand_fringe(&fringe, &mut out_h, 0, MetaOp::Ignore)
            .unwrap();
        let mut vs = out_s.take();
        let mut vh = out_h.take();
        vs.sort_unstable();
        vh.sort_unstable();
        assert_eq!(vs, vh);
    }
}
