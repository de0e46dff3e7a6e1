//! The record-store GraphDB adapter — thesis §4.1.3–§4.1.4, Figure 4.3.
//!
//! MySQL and BerkeleyDB both store a vertex's adjacency list serialised into
//! fixed-size binary blobs: "we chose to chunk the adjacency list into
//! standard-sized blocks (8 KB) … if the adjacency list of a vertex is too
//! large to fit into one row, it is split over multiple rows" keyed by
//! `(vertex, chunk_no)`, and BerkeleyDB reuses "the chunking technique used
//! in the MySQL implementation". [`ChunkedGraphDb`] is that technique,
//! written once; each engine supplies only its [`ChunkRecords`].
//!
//! Chunk wire format: `u32` count, then `count` little-endian `u64` vertex
//! words. A chunk of `CHUNK_BYTES` holds up to
//! `(CHUNK_BYTES - 4) / 8` entries.

use crate::{group_by_source, GraphDb, MetaTable};
use mssg_types::{AdjBuffer, Edge, Gid, GraphStorageError, Meta, Result};

/// The thesis' standard chunk size.
pub const CHUNK_BYTES: usize = 8 * 1024;

/// Entries that fit in one chunk of `chunk_bytes`.
pub const fn capacity(chunk_bytes: usize) -> usize {
    (chunk_bytes - 4) / 8
}

/// Serialises `neighbours` into chunks of at most `chunk_bytes` bytes.
/// Every chunk except possibly the last is full.
pub fn encode(neighbours: &[Gid], chunk_bytes: usize) -> Vec<Vec<u8>> {
    assert!(
        chunk_bytes >= 12,
        "chunk too small to hold a count and one entry"
    );
    let cap = capacity(chunk_bytes);
    let mut chunks = Vec::with_capacity(neighbours.len().div_ceil(cap).max(1));
    if neighbours.is_empty() {
        return chunks;
    }
    for group in neighbours.chunks(cap) {
        let mut buf = Vec::with_capacity(4 + group.len() * 8);
        buf.extend_from_slice(&(group.len() as u32).to_le_bytes());
        for g in group {
            buf.extend_from_slice(&g.raw().to_le_bytes());
        }
        chunks.push(buf);
    }
    chunks
}

/// Appends the contents of one chunk to `out` (a `Vec<Gid>` or an
/// [`AdjBuffer`]).
pub fn decode_into(chunk: &[u8], out: &mut impl Extend<Gid>) -> Result<()> {
    if chunk.len() < 4 {
        return Err(GraphStorageError::corrupt("chunk shorter than its header"));
    }
    let count = u32::from_le_bytes(chunk[..4].try_into().unwrap()) as usize;
    let need = 4 + count * 8;
    if chunk.len() < need {
        return Err(GraphStorageError::corrupt(format!(
            "chunk claims {count} entries but holds only {} bytes",
            chunk.len()
        )));
    }
    out.extend(
        chunk[4..need]
            .chunks_exact(8)
            .map(|w| Gid::from_raw(u64::from_le_bytes(w.try_into().unwrap()))),
    );
    Ok(())
}

/// Decodes a full sequence of chunks into one adjacency list.
pub fn decode_all<'a>(chunks: impl Iterator<Item = &'a [u8]>) -> Result<Vec<Gid>> {
    let mut out = Vec::new();
    for c in chunks {
        decode_into(c, &mut out)?;
    }
    Ok(out)
}

/// Number of entries a chunk holds, without fully decoding it.
pub fn chunk_len(chunk: &[u8]) -> Result<usize> {
    if chunk.len() < 4 {
        return Err(GraphStorageError::corrupt("chunk shorter than its header"));
    }
    Ok(u32::from_le_bytes(chunk[..4].try_into().unwrap()) as usize)
}

/// `true` if one more entry still fits in a chunk of `chunk_bytes`.
pub fn has_room(chunk: &[u8], chunk_bytes: usize) -> Result<bool> {
    Ok(chunk_len(chunk)? < capacity(chunk_bytes))
}

/// Appends one entry to an existing (non-full) chunk in place.
pub fn append_entry(chunk: &mut Vec<u8>, g: Gid, chunk_bytes: usize) -> Result<()> {
    let len = chunk_len(chunk)?;
    if len >= capacity(chunk_bytes) {
        return Err(GraphStorageError::CapacityExceeded(format!(
            "chunk already holds {len} entries"
        )));
    }
    chunk[..4].copy_from_slice(&((len + 1) as u32).to_le_bytes());
    chunk.extend_from_slice(&g.raw().to_le_bytes());
    Ok(())
}

/// The record operations an engine supplies to [`ChunkedGraphDb`].
///
/// A stored vertex `v` has one directory record holding its chunk count
/// `n > 0`, and chunk records `0..n`; a vertex with no directory record
/// stores nothing.
pub trait ChunkRecords {
    /// `v`'s chunk count; 0 when `v` has no directory record.
    fn read_dir(&mut self, v: Gid) -> Result<u32>;

    /// Writes `v`'s chunk count, as a new record when `new`.
    fn write_dir(&mut self, v: Gid, count: u32, new: bool) -> Result<()>;

    /// Chunk `c` of `v`, if stored.
    fn read_chunk(&mut self, v: Gid, c: u32) -> Result<Option<Vec<u8>>>;

    /// Hands `f` every chunk of `v`, in order (MySQL: one `SELECT`).
    fn read_chunks(&mut self, v: Gid, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()>;

    /// Writes chunk `c` of `v`, as a new record when `new`.
    fn write_chunk(&mut self, v: Gid, c: u32, data: &[u8], new: bool) -> Result<()>;

    /// Every vertex with a directory record, ascending.
    fn vertices(&mut self) -> Result<Vec<Gid>>;

    /// Hands `f` every stored chunk of every vertex, in any order.
    fn for_each_chunk(&mut self, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()>;

    /// Makes every write durable.
    fn flush(&mut self) -> Result<()>;

    /// The engine's name for reports.
    fn name(&self) -> &'static str;
}

/// The GraphDB over any [`ChunkRecords`]: a per-vertex directory (the
/// chunk count) so appends touch only the tail chunk, the in-memory
/// [`MetaTable`], and the entry count.
pub struct ChunkedGraphDb<R> {
    records: R,
    chunk_bytes: usize,
    meta: MetaTable,
    entries: u64,
}

impl<R: ChunkRecords> ChunkedGraphDb<R> {
    /// Opens the adapter over `records` with chunks of `chunk_bytes`
    /// ([`CHUNK_BYTES`]; tests shrink it). The entry count is summed from
    /// the stored chunks' headers, so a reopened store counts what it holds.
    pub fn open(mut records: R, chunk_bytes: usize) -> Result<ChunkedGraphDb<R>> {
        let mut entries = 0;
        records.for_each_chunk(&mut |c| {
            entries += chunk_len(c)? as u64;
            Ok(())
        })?;
        Ok(ChunkedGraphDb {
            records,
            chunk_bytes,
            meta: MetaTable::new(),
            entries,
        })
    }

    /// The engine's records.
    pub fn records(&mut self) -> &mut R {
        &mut self.records
    }

    /// Appends a group of neighbours to one vertex. The tail chunk is read
    /// once, and each chunk the group touches is written once.
    fn append_group(&mut self, v: Gid, neighbours: &[Gid]) -> Result<()> {
        let count = self.records.read_dir(v)?;
        let mut tail = match count {
            0 => None,
            n => Some(
                self.records
                    .read_chunk(v, n - 1)?
                    .ok_or_else(|| GraphStorageError::corrupt("missing tail chunk"))?,
            ),
        };
        // Chunks of `v` once the group is in, the tail included.
        let mut chunks = count;
        for (i, &u) in neighbours.iter().enumerate() {
            let fits = match &tail {
                Some(t) => has_room(t, self.chunk_bytes)?,
                None => false,
            };
            if fits {
                append_entry(tail.as_mut().expect("checked"), u, self.chunk_bytes)?;
                continue;
            }
            let full = tail.replace(encode(&[u], self.chunk_bytes).remove(0));
            // A full tail the group has not touched is already stored.
            if let Some(t) = full.filter(|_| i > 0) {
                self.records
                    .write_chunk(v, chunks - 1, &t, chunks > count)?;
            }
            chunks += 1;
        }
        if let Some(t) = tail.filter(|_| !neighbours.is_empty()) {
            self.records
                .write_chunk(v, chunks - 1, &t, chunks > count)?;
        }
        if chunks != count {
            self.records.write_dir(v, chunks, count == 0)?;
        }
        Ok(())
    }
}

impl<R: ChunkRecords> GraphDb for ChunkedGraphDb<R> {
    fn store_edges(&mut self, edges: &[Edge]) -> Result<()> {
        group_by_source(edges, |v, ns| {
            self.append_group(v, ns)?;
            self.entries += ns.len() as u64;
            Ok(())
        })
    }

    fn get_metadata(&mut self, v: Gid) -> Result<Meta> {
        Ok(self.meta.get(v))
    }

    fn set_metadata(&mut self, v: Gid, meta: Meta) -> Result<()> {
        self.meta.set(v, meta);
        Ok(())
    }

    fn read_fringe(&mut self, fringe: &[Gid], out: &mut AdjBuffer) -> Result<()> {
        for &v in fringe {
            self.records.read_chunks(v, &mut |c| decode_into(c, out))?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.records.flush()
    }

    fn local_vertices(&mut self) -> Result<Vec<Gid>> {
        self.records.vertices()
    }

    fn stored_entries(&self) -> u64 {
        self.entries
    }

    fn backend_name(&self) -> &'static str {
        self.records.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphDbExt;
    use std::collections::BTreeMap;

    /// Records in a map keyed like BerkeleyDB's (`u32::MAX` is the
    /// directory), counting writes.
    #[derive(Default)]
    struct MemRecords {
        map: BTreeMap<(Gid, u32), Vec<u8>>,
        writes: usize,
    }

    impl ChunkRecords for MemRecords {
        fn read_dir(&mut self, v: Gid) -> Result<u32> {
            Ok(self.map.get(&(v, u32::MAX)).map_or(0, |b| b[0] as u32))
        }
        fn write_dir(&mut self, v: Gid, count: u32, new: bool) -> Result<()> {
            assert_eq!(new, !self.map.contains_key(&(v, u32::MAX)));
            self.map.insert((v, u32::MAX), vec![count as u8]);
            Ok(())
        }
        fn read_chunk(&mut self, v: Gid, c: u32) -> Result<Option<Vec<u8>>> {
            Ok(self.map.get(&(v, c)).cloned())
        }
        fn read_chunks(&mut self, v: Gid, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
            self.map
                .range((v, 0)..(v, u32::MAX))
                .try_for_each(|(_, b)| f(b))
        }
        fn write_chunk(&mut self, v: Gid, c: u32, data: &[u8], new: bool) -> Result<()> {
            assert_eq!(new, !self.map.contains_key(&(v, c)), "chunk {c} of {v:?}");
            self.map.insert((v, c), data.to_vec());
            self.writes += 1;
            Ok(())
        }
        fn vertices(&mut self) -> Result<Vec<Gid>> {
            Ok(self
                .map
                .keys()
                .filter(|k| k.1 == u32::MAX)
                .map(|k| k.0)
                .collect())
        }
        fn for_each_chunk(&mut self, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
            self.map
                .iter()
                .filter(|(k, _)| k.1 != u32::MAX)
                .try_for_each(|(_, b)| f(b))
        }
        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
        fn name(&self) -> &'static str {
            "Mem"
        }
    }

    /// Chunks of 28 bytes hold 3 entries.
    fn mem() -> ChunkedGraphDb<MemRecords> {
        ChunkedGraphDb::open(MemRecords::default(), 28).unwrap()
    }

    #[test]
    fn appends_fill_the_tail_and_write_each_chunk_once() {
        let mut db = mem();
        db.store_edges(&[Edge::of(5, 1)]).unwrap();
        assert_eq!(db.records().writes, 1);
        // Fills chunk 0, then chunks 1 and 2: three chunk writes.
        let edges: Vec<Edge> = (2..10).map(|i| Edge::of(5, i)).collect();
        db.store_edges(&edges).unwrap();
        assert_eq!(db.records().writes, 4);
        assert_eq!(db.records().read_dir(Gid::new(5)).unwrap(), 3);
        assert_eq!(db.neighbors(Gid::new(5)).unwrap(), gs(10)[1..].to_vec());
        // A full tail the next batch does not touch is not rewritten.
        db.store_edges(&[Edge::of(5, 10), Edge::of(5, 11)]).unwrap();
        assert_eq!(db.records().writes, 5);
        assert_eq!(db.stored_entries(), 11);
    }

    #[test]
    fn interleaved_vertices_keep_their_order() {
        let mut db = mem();
        let edges: Vec<Edge> = (0..12u64).map(|i| Edge::of(i % 3, 50 + i)).collect();
        for batch in edges.chunks(5) {
            db.store_edges(batch).unwrap();
        }
        for v in 0..3u64 {
            let want: Vec<Gid> = (0..4).map(|k| Gid::new(50 + v + 3 * k)).collect();
            assert_eq!(db.neighbors(Gid::new(v)).unwrap(), want, "vertex {v}");
        }
        assert_eq!(db.local_vertices().unwrap(), gs(3));
    }

    #[test]
    fn open_counts_what_is_stored() {
        let mut db = mem();
        let edges: Vec<Edge> = (0..20u64).map(|i| Edge::of(i % 4, i)).collect();
        db.store_edges(&edges).unwrap();
        let reopened = ChunkedGraphDb::open(std::mem::take(db.records()), 28).unwrap();
        assert_eq!(reopened.stored_entries(), 20);
    }

    fn gs(n: u64) -> Vec<Gid> {
        (0..n).map(Gid::new).collect()
    }

    #[test]
    fn empty_list_no_chunks() {
        assert!(encode(&[], CHUNK_BYTES).is_empty());
    }

    #[test]
    fn single_chunk_roundtrip() {
        let ns = gs(100);
        let chunks = encode(&ns, CHUNK_BYTES);
        assert_eq!(chunks.len(), 1);
        let back = decode_all(chunks.iter().map(|c| c.as_slice())).unwrap();
        assert_eq!(back, ns);
    }

    #[test]
    fn multi_chunk_roundtrip() {
        // 8 KB chunks hold (8192-4)/8 = 1023 entries.
        assert_eq!(capacity(CHUNK_BYTES), 1023);
        let ns = gs(3000);
        let chunks = encode(&ns, CHUNK_BYTES);
        assert_eq!(chunks.len(), 3); // 1023 + 1023 + 954
        assert_eq!(chunk_len(&chunks[0]).unwrap(), 1023);
        assert_eq!(chunk_len(&chunks[2]).unwrap(), 3000 - 2 * 1023);
        let back = decode_all(chunks.iter().map(|c| c.as_slice())).unwrap();
        assert_eq!(back, ns);
    }

    #[test]
    fn small_chunk_size() {
        let ns = gs(10);
        let chunks = encode(&ns, 28); // capacity 3
        assert_eq!(chunks.len(), 4);
        let back = decode_all(chunks.iter().map(|c| c.as_slice())).unwrap();
        assert_eq!(back, ns);
    }

    #[test]
    fn truncated_chunk_detected() {
        let mut c = encode(&gs(5), CHUNK_BYTES).remove(0);
        c.truncate(c.len() - 3);
        let mut out = Vec::new();
        assert!(decode_into(&c, &mut out).is_err());
        assert!(decode_into(&[1, 2], &mut out).is_err());
    }

    #[test]
    fn append_until_full() {
        let bytes = 28; // capacity 3
        let mut chunk = encode(&gs(1), bytes).remove(0);
        assert!(has_room(&chunk, bytes).unwrap());
        append_entry(&mut chunk, Gid::new(50), bytes).unwrap();
        append_entry(&mut chunk, Gid::new(51), bytes).unwrap();
        assert!(!has_room(&chunk, bytes).unwrap());
        assert!(append_entry(&mut chunk, Gid::new(52), bytes).is_err());
        let mut out = Vec::new();
        decode_into(&chunk, &mut out).unwrap();
        assert_eq!(out, vec![Gid::new(0), Gid::new(50), Gid::new(51)]);
    }

    #[test]
    fn tagged_words_pass_through() {
        let ns = vec![Gid::new(1), Gid::tagged(2, 99)];
        let chunks = encode(&ns, CHUNK_BYTES);
        let back = decode_all(chunks.iter().map(|c| c.as_slice())).unwrap();
        assert_eq!(back, ns);
    }
}
