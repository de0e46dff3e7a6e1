//! Page allocation and caching.
//!
//! The pager owns the store's [`BlockFile`] and its [`EngineCache`] (the
//! BerkeleyDB-style buffer pool, the same 2Q cache grDB runs: a page a
//! lookup re-reads outlives pages a scan touches once). All tree code goes
//! through [`Pager::read_page`] / [`Pager::write_page`]; the cache is
//! write-back, so dirty pages hit disk only on eviction or
//! [`Pager::flush`] — disabling the cache (capacity 0) degrades every
//! access to disk I/O, which is exactly the knob Figure 5.2 turns.

use crate::page::Page;
use mssg_types::{GraphStorageError, Result};
use simio::{BlockFile, CacheKey, EngineCache, IoStats};
use std::path::Path;
use std::sync::Arc;

/// Space id used for this store's pages in the shared cache key space.
const SPACE: u32 = 0;

/// Page manager: file + cache + meta page + free list.
pub struct Pager {
    file: BlockFile,
    cache: EngineCache,
    page_size: usize,
    /// In-memory copy of the meta page; persisted on flush.
    pub(crate) root: u64,
    pub(crate) pages: u64,
    pub(crate) free_head: u64,
    pub(crate) len: u64,
}

impl Pager {
    /// Opens or creates a store file.
    pub fn open(
        path: &Path,
        page_size: usize,
        cache_pages: usize,
        stats: Arc<IoStats>,
    ) -> Result<Pager> {
        let mut file = BlockFile::open(path, page_size, stats)?;
        let cache = EngineCache::with_hasher(cache_pages);
        if file.len_blocks() == 0 {
            // Fresh store: meta page + empty leaf root.
            let mut pager = Pager {
                file,
                cache,
                page_size,
                root: 1,
                pages: 2,
                free_head: 0,
                len: 0,
            };
            let meta = Page::Meta {
                root: 1,
                pages: 2,
                free_head: 0,
                len: 0,
            }
            .encode(page_size)?;
            pager.file.write_block(0, &meta)?;
            let leaf = Page::Leaf { entries: vec![] }.encode(page_size)?;
            pager.file.write_block(1, &leaf)?;
            Ok(pager)
        } else {
            let mut buf = vec![0u8; page_size];
            file.read_block(0, &mut buf)?;
            match Page::decode(&buf, page_size)? {
                Page::Meta {
                    root,
                    pages,
                    free_head,
                    len,
                } => {
                    if pages != file.len_blocks() {
                        return Err(GraphStorageError::corrupt(format!(
                            "meta page says {pages} pages, file has {}",
                            file.len_blocks()
                        )));
                    }
                    Ok(Pager {
                        file,
                        cache,
                        page_size,
                        root,
                        pages,
                        free_head,
                        len,
                    })
                }
                _ => Err(GraphStorageError::corrupt("page 0 is not a meta page")),
            }
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Cache statistics (for the Figure 5.2 experiment).
    pub fn cache_stats(&self) -> simio::CacheStats {
        self.cache.stats()
    }

    /// Reads and decodes page `id`, going through the cache.
    pub fn read_page(&mut self, id: u64) -> Result<Page> {
        if id == 0 || id >= self.pages {
            return Err(GraphStorageError::corrupt(format!(
                "page id {id} out of range (pages={})",
                self.pages
            )));
        }
        let key = CacheKey::new(SPACE, id);
        if let Some(bytes) = self.cache.get(&key) {
            return Page::decode(bytes, self.page_size);
        }
        let mut buf = vec![0u8; self.page_size];
        self.file.read_block(id, &mut buf)?;
        let page = Page::decode(&buf, self.page_size)?;
        if let Some(ev) = self.cache.insert(key, buf, false) {
            if ev.dirty {
                self.file.write_block(ev.key.block, &ev.data)?;
            }
        }
        Ok(page)
    }

    /// Encodes and writes page `id` (into the cache; disk on eviction).
    pub fn write_page(&mut self, id: u64, page: &Page) -> Result<()> {
        if id == 0 || id >= self.pages {
            return Err(GraphStorageError::corrupt(format!(
                "write to page id {id} out of range (pages={})",
                self.pages
            )));
        }
        let bytes = page.encode(self.page_size)?;
        match self.cache.insert(CacheKey::new(SPACE, id), bytes, true) {
            // Capacity-0 cache hands the page straight back.
            Some(ev) if ev.key.block == id => self.file.write_block(id, &ev.data)?,
            Some(ev) if ev.dirty => self.file.write_block(ev.key.block, &ev.data)?,
            _ => {}
        }
        Ok(())
    }

    /// Allocates a page, reusing the free list when possible.
    pub fn allocate(&mut self) -> Result<u64> {
        if self.free_head != 0 {
            let id = self.free_head;
            match self.read_page(id)? {
                Page::Free { next } => {
                    self.free_head = next;
                    Ok(id)
                }
                _ => Err(GraphStorageError::corrupt(format!(
                    "free list head {id} is not a free page"
                ))),
            }
        } else {
            let id = self.pages;
            self.pages += 1;
            // Materialise the block on disk so the file length tracks
            // `pages` (cache inserts alone do not extend the file).
            let zero = Page::Free { next: 0 }.encode(self.page_size)?;
            self.file.write_block(id, &zero)?;
            Ok(id)
        }
    }

    /// Returns a page to the free list.
    pub fn free(&mut self, id: u64) -> Result<()> {
        let page = Page::Free {
            next: self.free_head,
        };
        self.write_page(id, &page)?;
        self.free_head = id;
        Ok(())
    }

    /// Writes back every dirty cached page plus the meta page, then syncs.
    pub fn flush(&mut self) -> Result<()> {
        for ev in self.cache.flush_dirty() {
            self.file.write_block(ev.key.block, &ev.data)?;
        }
        let meta = Page::Meta {
            root: self.root,
            pages: self.pages,
            free_head: self.free_head,
            len: self.len,
        }
        .encode(self.page_size)?;
        self.file.write_block(0, &meta)?;
        self.file.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::LeafValue;

    fn tmppath(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("kvdb-pager-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(tag);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn open(tag: &str, cache: usize) -> Pager {
        Pager::open(&tmppath(tag), 256, cache, IoStats::new()).unwrap()
    }

    #[test]
    fn fresh_store_has_empty_root_leaf() {
        let mut p = open("fresh.db", 8);
        assert_eq!(p.root, 1);
        assert_eq!(p.read_page(1).unwrap(), Page::Leaf { entries: vec![] });
    }

    #[test]
    fn write_read_through_cache() {
        let mut p = open("wr.db", 8);
        let page = Page::Leaf {
            entries: vec![(b"k".to_vec(), LeafValue::Inline(b"v".to_vec()))],
        };
        p.write_page(1, &page).unwrap();
        assert_eq!(p.read_page(1).unwrap(), page);
    }

    #[test]
    fn allocate_extends_then_reuses() {
        let mut p = open("alloc.db", 8);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_eq!((a, b), (2, 3));
        p.free(a).unwrap();
        assert_eq!(p.allocate().unwrap(), a, "free list reuse");
        assert_eq!(p.allocate().unwrap(), 4);
    }

    #[test]
    fn persistence_across_reopen() {
        let path = tmppath("persist.db");
        {
            let mut p = Pager::open(&path, 256, 8, IoStats::new()).unwrap();
            let id = p.allocate().unwrap();
            p.write_page(
                id,
                &Page::Overflow {
                    next: 0,
                    data: vec![5u8; 50],
                },
            )
            .unwrap();
            p.root = id;
            p.len = 123;
            p.flush().unwrap();
        }
        let mut p = Pager::open(&path, 256, 8, IoStats::new()).unwrap();
        assert_eq!(p.len, 123);
        let root = p.root;
        assert_eq!(
            p.read_page(root).unwrap(),
            Page::Overflow {
                next: 0,
                data: vec![5u8; 50]
            }
        );
    }

    #[test]
    fn zero_cache_goes_straight_to_disk() {
        let stats = IoStats::new();
        let path = tmppath("nocache.db");
        let mut p = Pager::open(&path, 256, 0, Arc::clone(&stats)).unwrap();
        let before = stats.snapshot();
        let page = Page::Leaf { entries: vec![] };
        p.write_page(1, &page).unwrap();
        p.read_page(1).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.block_writes, 1);
        assert_eq!(delta.block_reads, 1);
    }

    #[test]
    fn cached_reads_avoid_disk() {
        let stats = IoStats::new();
        let path = tmppath("cached.db");
        let mut p = Pager::open(&path, 256, 8, Arc::clone(&stats)).unwrap();
        p.read_page(1).unwrap();
        let before = stats.snapshot();
        for _ in 0..10 {
            p.read_page(1).unwrap();
        }
        assert_eq!(stats.snapshot().since(&before).block_reads, 0);
        assert_eq!(p.cache_stats().hits, 10);
    }

    #[test]
    fn out_of_range_page_rejected() {
        let mut p = open("oob.db", 8);
        assert!(
            p.read_page(0).is_err(),
            "meta page not readable as tree page"
        );
        assert!(p.read_page(99).is_err());
        assert!(p.write_page(99, &Page::Free { next: 0 }).is_err());
    }

    #[test]
    fn meta_mismatch_detected() {
        let path = tmppath("badmeta.db");
        {
            let mut p = Pager::open(&path, 256, 8, IoStats::new()).unwrap();
            p.flush().unwrap();
        }
        // Append a stray block so the page count disagrees with meta.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&vec![0u8; 256]).unwrap();
        drop(f);
        assert!(Pager::open(&path, 256, 8, IoStats::new()).is_err());
    }
}
