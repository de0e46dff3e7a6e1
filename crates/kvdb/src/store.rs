//! The public key-value store API.

use crate::pager::Pager;
use crate::tree;
use mssg_types::Result;
use simio::{CacheStats, IoStats};
use std::path::Path;
use std::sync::Arc;

/// Tuning options for a [`KvStore`].
#[derive(Clone, Debug)]
pub struct KvOptions {
    /// Page size in bytes (power of two recommended). Default 4096.
    pub page_size: usize,
    /// Buffer-pool capacity in pages. 0 disables caching — the Figure 5.2
    /// "without cache" configuration.
    pub cache_pages: usize,
}

impl Default for KvOptions {
    fn default() -> Self {
        KvOptions {
            page_size: 4096,
            cache_pages: 1024,
        }
    }
}

impl KvOptions {
    /// Default options with the cache disabled.
    pub fn uncached() -> KvOptions {
        KvOptions {
            cache_pages: 0,
            ..Default::default()
        }
    }
}

/// A single-file B-tree key-value store (the BerkeleyDB stand-in).
///
/// ```
/// use kvdb::KvStore;
/// let dir = std::env::temp_dir().join("kvdb-doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("example.db");
/// let _ = std::fs::remove_file(&path);
///
/// let mut store = KvStore::open_default(&path).unwrap();
/// store.put(b"alpha", b"1").unwrap();
/// store.put(b"beta", b"2").unwrap();
/// assert_eq!(store.get(b"alpha").unwrap(), Some(b"1".to_vec()));
/// assert_eq!(store.len(), 2);
///
/// // Ordered range scans:
/// let all = store.range_to_vec(None, None).unwrap();
/// assert_eq!(all[0].0, b"alpha");
/// ```
pub struct KvStore {
    pager: Pager,
}

impl KvStore {
    /// Opens or creates a store at `path`.
    pub fn open(path: &Path, options: KvOptions, stats: Arc<IoStats>) -> Result<KvStore> {
        Ok(KvStore {
            pager: Pager::open(path, options.page_size, options.cache_pages, stats)?,
        })
    }

    /// Opens with default options and fresh statistics.
    pub fn open_default(path: &Path) -> Result<KvStore> {
        KvStore::open(path, KvOptions::default(), IoStats::new())
    }

    /// Looks up a key.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        tree::get(&mut self.pager, key)
    }

    /// Inserts or replaces a key. Returns `true` if the key was new.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        tree::put(&mut self.pager, key, value)
    }

    /// Removes a key. Returns `true` if it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        tree::delete(&mut self.pager, key)
    }

    /// Number of live keys.
    pub fn len(&self) -> u64 {
        self.pager.len
    }

    /// `true` when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.pager.len == 0
    }

    /// Visits all keys in `[start, end)` in order; see
    /// [`tree::for_each_range`].
    pub fn for_each_range(
        &mut self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        cb: &mut dyn FnMut(&[u8], Vec<u8>) -> bool,
    ) -> Result<()> {
        tree::for_each_range(&mut self.pager, start, end, cb)
    }

    /// Visits every key sharing `prefix`, in order.
    pub fn for_each_prefix(
        &mut self,
        prefix: &[u8],
        cb: &mut dyn FnMut(&[u8], Vec<u8>) -> bool,
    ) -> Result<()> {
        let end = prefix_end(prefix);
        tree::for_each_range(&mut self.pager, Some(prefix), end.as_deref(), cb)
    }

    /// Collects a range into a vector (testing / small scans).
    pub fn range_to_vec(
        &mut self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.for_each_range(start, end, &mut |k, v| {
            out.push((k.to_vec(), v));
            true
        })?;
        Ok(out)
    }

    /// Writes dirty pages and the header to disk.
    pub fn flush(&mut self) -> Result<()> {
        self.pager.flush()
    }

    /// Buffer-pool statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.pager.cache_stats()
    }
}

/// Smallest key strictly greater than every key with `prefix`, or `None`
/// if the prefix is all `0xff` (scan to the end).
fn prefix_end(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str) -> KvStore {
        let d = std::env::temp_dir().join(format!("kvdb-store-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(tag);
        let _ = std::fs::remove_file(&p);
        KvStore::open_default(&p).unwrap()
    }

    #[test]
    fn basic_crud() {
        let mut s = store("crud.db");
        assert!(s.is_empty());
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert!(s.delete(b"a").unwrap());
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn prefix_scan() {
        let mut s = store("prefix.db");
        s.put(b"user:1", b"alice").unwrap();
        s.put(b"user:2", b"bob").unwrap();
        s.put(b"item:1", b"hammer").unwrap();
        let mut names = Vec::new();
        s.for_each_prefix(b"user:", &mut |_, v| {
            names.push(String::from_utf8(v).unwrap());
            true
        })
        .unwrap();
        assert_eq!(names, vec!["alice", "bob"]);
    }

    #[test]
    fn prefix_end_edge_cases() {
        assert_eq!(prefix_end(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_end(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_end(&[0xff, 0xff]), None);
    }

    #[test]
    fn range_to_vec_sorted() {
        let mut s = store("rangevec.db");
        for i in [5u32, 1, 9, 3] {
            s.put(&i.to_be_bytes(), b"x").unwrap();
        }
        let all = s.range_to_vec(None, None).unwrap();
        let keys: Vec<u32> = all
            .iter()
            .map(|(k, _)| u32::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn uncached_store_works() {
        let d = std::env::temp_dir().join(format!("kvdb-store-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("uncached.db");
        let _ = std::fs::remove_file(&p);
        let mut s = KvStore::open(&p, KvOptions::uncached(), IoStats::new()).unwrap();
        for i in 0..200u32 {
            s.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        for i in 0..200u32 {
            assert_eq!(
                s.get(&i.to_be_bytes()).unwrap(),
                Some(i.to_le_bytes().to_vec())
            );
        }
        assert_eq!(s.cache_stats().hits, 0, "disabled cache can never hit");
    }

    #[test]
    fn cache_reduces_io() {
        let d = std::env::temp_dir().join(format!("kvdb-store-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        // Same workload with and without cache; cached must do fewer reads.
        let mut reads = Vec::new();
        for (tag, opts) in [
            ("io-c.db", KvOptions::default()),
            ("io-u.db", KvOptions::uncached()),
        ] {
            let p = d.join(tag);
            let _ = std::fs::remove_file(&p);
            let stats = IoStats::new();
            let mut s = KvStore::open(&p, opts, Arc::clone(&stats)).unwrap();
            for i in 0..500u32 {
                s.put(&i.to_be_bytes(), &[0u8; 32]).unwrap();
            }
            for _ in 0..3 {
                for i in 0..500u32 {
                    s.get(&i.to_be_bytes()).unwrap();
                }
            }
            reads.push(stats.snapshot().block_reads);
        }
        assert!(
            reads[0] < reads[1] / 4,
            "cached reads {} should be far below uncached {}",
            reads[0],
            reads[1]
        );
    }
}
