//! Slotted-page heap file — the row storage under every table.
//!
//! Rows live in fixed-size pages (16 KB by default, InnoDB's page size, and
//! comfortably above the 8 KB BLOB chunks the MSSG adjacency table stores).
//! Each page is:
//!
//! ```text
//! [slot_count u16][data_start u16][slot 0][slot 1]…        … row data]
//!   slot: [offset u16][len u16]   (offset 0xFFFF = dead)
//! ```
//!
//! Slots grow up from the header; row bytes grow down from the page end.
//! A [`RowId`] (page, slot) is stable across updates that fit in place;
//! growing updates move the row, leaving a dead slot for a later insert to
//! reuse, and report the new id so the index can be fixed up.

use mssg_types::{GraphStorageError, Result};
use simio::{BlockFile, CacheKey, EngineCache, IoStats};
use std::path::Path;
use std::sync::Arc;

/// Default heap page size.
pub const DEFAULT_PAGE_SIZE: usize = 16 * 1024;

const HEADER: usize = 4;
const SLOT: usize = 4;
const DEAD: u16 = u16::MAX;

/// Identifies a row: page index and slot index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RowId {
    /// Page index within the heap file.
    pub page: u64,
    /// Slot index within the page.
    pub slot: u16,
}

impl RowId {
    /// Packs into a u64 for index payloads.
    pub fn pack(self) -> u64 {
        (self.page << 16) | self.slot as u64
    }

    /// Unpacks from [`RowId::pack`].
    pub fn unpack(word: u64) -> RowId {
        RowId {
            page: word >> 16,
            slot: (word & 0xffff) as u16,
        }
    }
}

/// A heap file of slotted pages.
pub struct HeapFile {
    file: BlockFile,
    cache: EngineCache,
    page_size: usize,
    /// Insert hint: the page most recently appended to.
    last_page: u64,
}

impl HeapFile {
    /// Opens or creates a heap file.
    pub fn open(
        path: &Path,
        page_size: usize,
        cache_pages: usize,
        stats: Arc<IoStats>,
    ) -> Result<HeapFile> {
        assert!(page_size >= 64 && page_size <= u16::MAX as usize + 1);
        let file = BlockFile::open(path, page_size, stats)?;
        let last_page = file.len_blocks().saturating_sub(1);
        Ok(HeapFile {
            file,
            cache: EngineCache::with_hasher(cache_pages),
            page_size,
            last_page,
        })
    }

    /// Largest storable row.
    pub fn max_row(&self) -> usize {
        self.page_size - HEADER - SLOT
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.file.len_blocks()
    }

    fn load(&mut self, page: u64) -> Result<Vec<u8>> {
        let key = CacheKey::new(0, page);
        if let Some(bytes) = self.cache.get(&key) {
            return Ok(bytes.clone());
        }
        let mut buf = vec![0u8; self.page_size];
        self.file.read_block(page, &mut buf)?;
        if let Some(ev) = self.cache.insert(key, buf.clone(), false) {
            if ev.dirty {
                self.file.write_block(ev.key.block, &ev.data)?;
            }
        }
        Ok(buf)
    }

    fn store(&mut self, page: u64, bytes: Vec<u8>) -> Result<()> {
        match self.cache.insert(CacheKey::new(0, page), bytes, true) {
            Some(ev) if ev.key.block == page => self.file.write_block(page, &ev.data)?,
            Some(ev) if ev.dirty => self.file.write_block(ev.key.block, &ev.data)?,
            _ => {}
        }
        Ok(())
    }

    fn new_page(&mut self) -> Result<u64> {
        let id = self.file.len_blocks();
        let mut page = vec![0u8; self.page_size];
        init_page(&mut page, self.page_size);
        self.file.write_block(id, &page)?;
        self.last_page = id;
        Ok(id)
    }

    /// Inserts a row, returning its id.
    pub fn insert(&mut self, row: &[u8]) -> Result<RowId> {
        if row.len() > self.max_row() {
            return Err(GraphStorageError::CapacityExceeded(format!(
                "row of {} bytes exceeds heap limit {}",
                row.len(),
                self.max_row()
            )));
        }
        if self.pages() == 0 {
            self.new_page()?;
        }
        // Try the hint page, then a fresh one.
        for attempt in 0..2 {
            let page_id = if attempt == 0 {
                self.last_page
            } else {
                self.new_page()?
            };
            let mut page = self.load(page_id)?;
            if let Some(slot) = page_insert(&mut page, row) {
                self.store(page_id, page)?;
                return Ok(RowId {
                    page: page_id,
                    slot,
                });
            }
        }
        unreachable!("a fresh page always fits a size-checked row")
    }

    /// Reads a row; `None` if the slot is dead or out of range.
    pub fn get(&mut self, rid: RowId) -> Result<Option<Vec<u8>>> {
        if rid.page >= self.pages() {
            return Ok(None);
        }
        let page = self.load(rid.page)?;
        Ok(page_get(&page, rid.slot).map(|s| s.to_vec()))
    }

    /// Updates a row in place when possible; otherwise moves it. Returns
    /// the row's (possibly new) id, or `None` if it did not exist.
    pub fn update(&mut self, rid: RowId, row: &[u8]) -> Result<Option<RowId>> {
        if rid.page >= self.pages() {
            return Ok(None);
        }
        let mut page = self.load(rid.page)?;
        match page_update_in_place(&mut page, rid.slot, row) {
            UpdateOutcome::Done => {
                self.store(rid.page, page)?;
                Ok(Some(rid))
            }
            UpdateOutcome::Missing => Ok(None),
            UpdateOutcome::TooBig => {
                set_slot(&mut page, rid.slot, DEAD, 0);
                self.store(rid.page, page)?;
                Ok(Some(self.insert(row)?))
            }
        }
    }

    /// The ids of every live row, in file order.
    pub fn row_ids(&mut self) -> Result<Vec<RowId>> {
        let mut rids = Vec::new();
        for page_id in 0..self.pages() {
            let page = self.load(page_id)?;
            for slot in 0..slot_count(&page) {
                if page_get(&page, slot).is_some() {
                    rids.push(RowId {
                        page: page_id,
                        slot,
                    });
                }
            }
        }
        Ok(rids)
    }

    /// Flushes dirty pages to disk.
    pub fn flush(&mut self) -> Result<()> {
        for ev in self.cache.flush_dirty() {
            self.file.write_block(ev.key.block, &ev.data)?;
        }
        self.file.sync()
    }
}

// ---- page-level byte manipulation ----

fn init_page(page: &mut [u8], page_size: usize) {
    page[0..2].copy_from_slice(&0u16.to_le_bytes());
    page[2..4].copy_from_slice(&(page_size as u32 as u16).to_le_bytes());
}

fn slot_count(page: &[u8]) -> u16 {
    u16::from_le_bytes(page[0..2].try_into().unwrap())
}

fn data_start(page: &[u8]) -> usize {
    // data_start == 0 encodes "page_size" (fresh page of max size 65536).
    let raw = u16::from_le_bytes(page[2..4].try_into().unwrap()) as usize;
    if raw == 0 {
        page.len()
    } else {
        raw
    }
}

fn slot_at(page: &[u8], slot: u16) -> (u16, u16) {
    let base = HEADER + slot as usize * SLOT;
    let off = u16::from_le_bytes(page[base..base + 2].try_into().unwrap());
    let len = u16::from_le_bytes(page[base + 2..base + 4].try_into().unwrap());
    (off, len)
}

fn set_slot(page: &mut [u8], slot: u16, off: u16, len: u16) {
    let base = HEADER + slot as usize * SLOT;
    page[base..base + 2].copy_from_slice(&off.to_le_bytes());
    page[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
}

fn page_get(page: &[u8], slot: u16) -> Option<&[u8]> {
    if slot >= slot_count(page) {
        return None;
    }
    let (off, len) = slot_at(page, slot);
    if off == DEAD {
        return None;
    }
    Some(&page[off as usize..off as usize + len as usize])
}

fn page_insert(page: &mut [u8], row: &[u8]) -> Option<u16> {
    let count = slot_count(page);
    let ds = data_start(page);
    // Reuse a dead slot if one exists (no new slot space needed).
    let mut slot = None;
    for s in 0..count {
        if slot_at(page, s).0 == DEAD {
            slot = Some(s);
            break;
        }
    }
    let need_slot_space = if slot.is_some() { 0 } else { SLOT };
    let slots_end = HEADER + count as usize * SLOT + need_slot_space;
    if ds < slots_end + row.len() {
        return None; // No room.
    }
    let new_off = ds - row.len();
    page[new_off..ds].copy_from_slice(row);
    let slot = match slot {
        Some(s) => s,
        None => {
            page[0..2].copy_from_slice(&(count + 1).to_le_bytes());
            count
        }
    };
    set_slot(page, slot, new_off as u16, row.len() as u16);
    page[2..4].copy_from_slice(&(new_off as u16).to_le_bytes());
    Some(slot)
}

enum UpdateOutcome {
    Done,
    Missing,
    TooBig,
}

fn page_update_in_place(page: &mut [u8], slot: u16, row: &[u8]) -> UpdateOutcome {
    if slot >= slot_count(page) {
        return UpdateOutcome::Missing;
    }
    let (off, len) = slot_at(page, slot);
    if off == DEAD {
        return UpdateOutcome::Missing;
    }
    if row.len() <= len as usize {
        let off = off as usize;
        page[off..off + row.len()].copy_from_slice(row);
        set_slot(page, slot, off as u16, row.len() as u16);
        UpdateOutcome::Done
    } else {
        UpdateOutcome::TooBig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(tag: &str) -> HeapFile {
        let d = std::env::temp_dir().join(format!("minisql-heap-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(tag);
        let _ = std::fs::remove_file(&p);
        HeapFile::open(&p, 256, 16, IoStats::new()).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut h = heap("basic.hp");
        let rid = h.insert(b"hello").unwrap();
        assert_eq!(h.get(rid).unwrap(), Some(b"hello".to_vec()));
    }

    #[test]
    fn rowid_pack_roundtrip() {
        let rid = RowId {
            page: 123456,
            slot: 42,
        };
        assert_eq!(RowId::unpack(rid.pack()), rid);
    }

    #[test]
    fn fills_multiple_pages() {
        let mut h = heap("pages.hp");
        let mut rids = Vec::new();
        for i in 0..100u32 {
            rids.push(h.insert(&i.to_le_bytes().repeat(4)).unwrap());
        }
        assert!(h.pages() > 1, "256-byte pages must overflow");
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(
                h.get(*rid).unwrap(),
                Some((i as u32).to_le_bytes().repeat(4))
            );
        }
    }

    /// Fills page 0 after `rid` so a grown `rid` must move to page 1.
    fn fill_first_page(h: &mut HeapFile) {
        while h.pages() == 1 {
            h.insert(&[7u8; 64]).unwrap();
        }
    }

    #[test]
    fn moved_row_leaves_a_reusable_slot() {
        let mut h = heap("reuse.hp");
        let a = h.insert(b"aaaa").unwrap();
        fill_first_page(&mut h);
        let moved = h.update(a, &[9u8; 100]).unwrap().unwrap();
        assert_ne!(moved.page, a.page);
        assert_eq!(h.get(a).unwrap(), None);
        assert_eq!(h.update(a, b"z").unwrap(), None);
        // An insert on a's page reuses its dead slot.
        h.last_page = a.page;
        let c = h.insert(b"c").unwrap();
        assert_eq!(c, a);
        assert_eq!(h.get(c).unwrap(), Some(b"c".to_vec()));
    }

    #[test]
    fn update_in_place_keeps_rowid() {
        let mut h = heap("upd.hp");
        let rid = h.insert(b"longer-row").unwrap();
        let new_rid = h.update(rid, b"short").unwrap().unwrap();
        assert_eq!(new_rid, rid);
        assert_eq!(h.get(rid).unwrap(), Some(b"short".to_vec()));
    }

    #[test]
    fn growing_update_moves_row() {
        let mut h = heap("grow.hp");
        let rid = h.insert(b"x").unwrap();
        fill_first_page(&mut h);
        let grown = vec![9u8; 100];
        let new_rid = h.update(rid, &grown).unwrap().unwrap();
        assert_eq!(h.get(new_rid).unwrap(), Some(grown));
        if new_rid != rid {
            assert_eq!(
                h.get(rid).unwrap(),
                None,
                "old slot must be dead after a move"
            );
        }
    }

    #[test]
    fn update_missing_row() {
        let mut h = heap("updmiss.hp");
        let rid = h.insert(b"a").unwrap();
        let unused = RowId { slot: 1, ..rid };
        assert_eq!(h.update(unused, b"b").unwrap(), None);
        // A growing update leaves the row's old slot dead.
        fill_first_page(&mut h);
        h.update(rid, &[9u8; 100]).unwrap().unwrap();
        assert_eq!(h.update(rid, b"b").unwrap(), None);
        assert_eq!(h.update(RowId { page: 99, slot: 0 }, b"b").unwrap(), None);
    }

    #[test]
    fn row_ids_sees_live_rows_only() {
        let mut h = heap("scan.hp");
        let a = h.insert(b"a").unwrap();
        let b = h.insert(b"b").unwrap();
        fill_first_page(&mut h);
        let before = h.row_ids().unwrap();
        let moved = h.update(a, &[9u8; 100]).unwrap().unwrap();
        let after = h.row_ids().unwrap();
        assert_eq!(after.len(), before.len());
        assert!(!after.contains(&a) && after.contains(&moved) && after.contains(&b));
    }

    #[test]
    fn oversized_row_rejected() {
        let mut h = heap("big.hp");
        assert!(h.insert(&vec![0u8; 256]).is_err());
        assert!(h.insert(&vec![0u8; h.max_row()]).is_ok());
    }

    #[test]
    fn persistence() {
        let d = std::env::temp_dir().join(format!("minisql-heap-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("persist.hp");
        let _ = std::fs::remove_file(&p);
        let rid;
        {
            let mut h = HeapFile::open(&p, 256, 16, IoStats::new()).unwrap();
            rid = h.insert(b"durable").unwrap();
            h.flush().unwrap();
        }
        let mut h = HeapFile::open(&p, 256, 16, IoStats::new()).unwrap();
        assert_eq!(h.get(rid).unwrap(), Some(b"durable".to_vec()));
        // Inserts continue on the recovered last page.
        let rid2 = h.insert(b"more").unwrap();
        assert_eq!(h.get(rid2).unwrap(), Some(b"more".to_vec()));
    }

    #[test]
    fn empty_rows_allowed() {
        let mut h = heap("empty.hp");
        let rid = h.insert(b"").unwrap();
        assert_eq!(h.get(rid).unwrap(), Some(vec![]));
    }
}
