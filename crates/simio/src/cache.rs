//! Block cache — grDB's "block cache component", shared by every
//! out-of-core engine in the workspace and by the serving plane's result
//! cache.
//!
//! The cache holds values in memory under caller-chosen keys. Block engines
//! use the defaults: whole storage blocks keyed by `(space, block)`
//! ([`CacheKey`]), where *space* distinguishes independent block spaces
//! (e.g. grDB levels, or a B-tree's page file).
//!
//! The key hasher is a type parameter, `std`'s SipHash by default. A block
//! engine's keys are its own block numbers, never a client's, so the
//! engines run [`EngineCache`], hashed by [`GidHasher`] (a multiply and
//! two folds a probe; see `mssg_types::gidmap`). A cache keyed by bytes a
//! client sends — the serving plane's result cache — keeps the default.
//!
//! The thesis leaves the replacement policy open (§3.4.1); this cache runs
//! one, a segmented LRU (2Q). A new entry enters a probationary segment and
//! only a re-reference promotes it into the protected segment, which is
//! bounded to ~4/5 of capacity by demoting its LRU end back to probation.
//! Eviction takes the probationary tail first, so a one-touch scan — a BFS
//! level's block-ordered waves — streams through probation without
//! flushing the blocks that point lookups reuse.
//!
//! The cache is a passive container: it never touches disk. The storage
//! engine loads blocks, [`insert`](BlockCache::insert)s them, and writes
//! back the dirty [`Evicted`] entries the cache hands back. A capacity of
//! zero gives the exact "cache disabled" behaviour used by the Figure 5.2
//! reproduction: every insert is immediately evicted, every lookup misses.

use mssg_types::gidmap::GidHasher;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// Identifies a cached block: an engine-chosen space id plus a block index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Engine-defined namespace (grDB level, page file id, …).
    pub space: u32,
    /// Block index within the namespace.
    pub block: u64,
}

impl CacheKey {
    /// Shorthand constructor.
    pub fn new(space: u32, block: u64) -> CacheKey {
        CacheKey { space, block }
    }
}

/// The cache a block engine runs: blocks keyed by [`CacheKey`], hashed by
/// [`GidHasher`] (see the module docs).
pub type EngineCache = BlockCache<CacheKey, Vec<u8>, BuildHasherDefault<GidHasher>>;

/// An entry pushed out of the cache. `dirty` entries must be written back
/// by the caller.
#[derive(Debug)]
pub struct Evicted<K = CacheKey, V = Vec<u8>> {
    /// The evicted entry's key.
    pub key: K,
    /// The entry's contents.
    pub data: V,
    /// Whether the entry was modified since insertion.
    pub dirty: bool,
}

/// Hit/miss counters for cache-effect experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

/// Segment indices: new entries enter probation, a hit moves them to the
/// protected segment.
const PROBATION: usize = 0;
const PROTECTED: usize = 1;

struct Frame<K, V> {
    key: K,
    data: V,
    dirty: bool,
    /// Which recency list this frame is linked on.
    seg: usize,
    /// Recency list links (indices into `frames`).
    prev: usize,
    next: usize,
}

/// A fixed-capacity 2Q cache. See the module docs for the protocol.
///
/// ```
/// use simio::{BlockCache, CacheKey};
/// let mut cache = BlockCache::new(2);
/// cache.insert(CacheKey::new(0, 1), vec![1u8], false);
/// cache.insert(CacheKey::new(0, 2), vec![2u8], true);
/// // A hit promotes block 1 out of probation, so block 2 is the victim.
/// assert!(cache.get(&CacheKey::new(0, 1)).is_some());
/// let evicted = cache.insert(CacheKey::new(0, 3), vec![3u8], false).unwrap();
/// assert_eq!(evicted.key, CacheKey::new(0, 2));
/// assert!(evicted.dirty, "dirty victims must be written back by the caller");
/// ```
pub struct BlockCache<K = CacheKey, V = Vec<u8>, S = RandomState> {
    capacity: usize,
    map: HashMap<K, usize, S>,
    /// One frame per resident entry; a full cache reuses the victim's.
    frames: Vec<Frame<K, V>>,
    /// Most-recently-used end of each segment's list.
    heads: [usize; 2],
    /// Least-recently-used end of each segment's list.
    tails: [usize; 2],
    /// Resident frames per segment.
    seg_len: [usize; 2],
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V: Clone> BlockCache<K, V> {
    /// Creates a cache holding at most `capacity` entries, hashed by
    /// SipHash.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity)
    }
}

impl<K: Hash + Eq + Clone, V: Clone, S: BuildHasher + Default> BlockCache<K, V, S> {
    /// Creates a cache holding at most `capacity` entries, hashed by `S`.
    pub fn with_hasher(capacity: usize) -> Self {
        BlockCache {
            capacity,
            map: HashMap::default(),
            frames: Vec::new(),
            heads: [NIL; 2],
            tails: [NIL; 2],
            seg_len: [0; 2],
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks an entry up by any borrowed form of its key, promoting it on
    /// a hit. Returns a mutable view so engines can modify in place (they
    /// must call [`mark_dirty`](BlockCache::mark_dirty) if they do).
    pub fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.touch(idx);
                Some(&mut self.frames[idx].data)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks an entry up without counting a hit or a miss or promoting it;
    /// used by flush paths that should not perturb the statistics.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&idx| &self.frames[idx].data)
    }

    /// Inserts (or replaces) an entry, returning the evicted victim if the
    /// cache was full. With capacity 0, the inserted entry itself comes
    /// straight back as the victim.
    pub fn insert(&mut self, key: K, data: V, dirty: bool) -> Option<Evicted<K, V>> {
        if self.capacity == 0 {
            return Some(Evicted { key, data, dirty });
        }
        if let Some(&idx) = self.map.get(&key) {
            // Replace in place; dirtiness accumulates.
            let f = &mut self.frames[idx];
            f.data = data;
            f.dirty |= dirty;
            self.touch(idx);
            return None;
        }
        let frame = Frame {
            key: key.clone(),
            data,
            dirty,
            seg: PROBATION,
            prev: NIL,
            next: NIL,
        };
        let (idx, victim) = if self.frames.len() < self.capacity {
            self.frames.push(frame);
            (self.frames.len() - 1, None)
        } else {
            // Probationary tail first: one-touch entries leave before
            // anything a lookup re-referenced.
            let idx = match self.tails[PROBATION] {
                NIL => self.tails[PROTECTED],
                tail => tail,
            };
            self.unlink(idx);
            let old = std::mem::replace(&mut self.frames[idx], frame);
            self.map.remove(&old.key);
            self.stats.evictions += 1;
            let victim = Evicted {
                key: old.key,
                data: old.data,
                dirty: old.dirty,
            };
            (idx, Some(victim))
        };
        self.map.insert(key, idx);
        self.link_front(PROBATION, idx);
        victim
    }

    /// Marks a resident entry dirty. No-op if the entry is absent.
    pub fn mark_dirty<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&idx) = self.map.get(key) {
            self.frames[idx].dirty = true;
        }
    }

    /// Returns all dirty entries (clearing their dirty flags but keeping
    /// them resident) so the engine can write them back.
    pub fn flush_dirty(&mut self) -> Vec<Evicted<K, V>> {
        self.frames
            .iter_mut()
            .filter(|f| f.dirty)
            .map(|f| {
                f.dirty = false;
                Evicted {
                    key: f.key.clone(),
                    data: f.data.clone(),
                    dirty: true,
                }
            })
            .collect()
    }

    /// Empties the cache, returning every resident entry (dirty ones must
    /// be written back).
    pub fn drain(&mut self) -> Vec<Evicted<K, V>> {
        self.map.clear();
        self.heads = [NIL; 2];
        self.tails = [NIL; 2];
        self.seg_len = [0; 2];
        self.frames
            .drain(..)
            .map(|f| Evicted {
                key: f.key,
                data: f.data,
                dirty: f.dirty,
            })
            .collect()
    }

    /// A hit: move to the protected segment's front, demoting its LRU end
    /// back to probation (as most recent: one more chance) while it is
    /// over its bound, so probation always keeps room for newcomers.
    fn touch(&mut self, idx: usize) {
        self.unlink(idx);
        self.link_front(PROTECTED, idx);
        while self.seg_len[PROTECTED] > self.protected_cap() {
            let demote = self.tails[PROTECTED];
            self.unlink(demote);
            self.link_front(PROBATION, demote);
        }
    }

    /// Protected-segment bound: ~4/5 of capacity, so scans always find at
    /// least a fifth of the cache in probation.
    fn protected_cap(&self) -> usize {
        (self.capacity * 4 / 5).max(1)
    }

    fn link_front(&mut self, seg: usize, idx: usize) {
        self.frames[idx].seg = seg;
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.heads[seg];
        if self.heads[seg] != NIL {
            self.frames[self.heads[seg]].prev = idx;
        }
        self.heads[seg] = idx;
        if self.tails[seg] == NIL {
            self.tails[seg] = idx;
        }
        self.seg_len[seg] += 1;
    }

    fn unlink(&mut self, idx: usize) {
        let seg = self.frames[idx].seg;
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else if self.heads[seg] == idx {
            self.heads[seg] = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else if self.tails[seg] == idx {
            self.tails[seg] = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
        self.seg_len[seg] -= 1;
    }
}

impl<K, V, S> std::fmt::Debug for BlockCache<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u64) -> CacheKey {
        CacheKey::new(0, b)
    }

    /// Keys from the probationary tail to the protected tail: the order in
    /// which a full cache evicts.
    fn victim_order(c: &BlockCache) -> Vec<u64> {
        let mut out = Vec::new();
        for seg in [PROBATION, PROTECTED] {
            let mut idx = c.tails[seg];
            while idx != NIL {
                out.push(c.frames[idx].key.block);
                idx = c.frames[idx].prev;
            }
        }
        out
    }

    /// The map, both lists and the segment counts describe the same set of
    /// frames, and the protected segment stays within its bound.
    fn assert_consistent(c: &BlockCache) {
        assert!(c.len() <= c.capacity());
        assert_eq!(c.frames.len(), c.map.len());
        for (key, &idx) in &c.map {
            assert_eq!(c.frames[idx].key, *key, "map points at the key's frame");
        }
        for seg in [PROBATION, PROTECTED] {
            let (mut idx, mut prev, mut n) = (c.heads[seg], NIL, 0);
            while idx != NIL {
                let f = &c.frames[idx];
                assert_eq!((f.seg, f.prev), (seg, prev), "list links of frame {idx}");
                (prev, idx) = (idx, f.next);
                n += 1;
            }
            assert_eq!(c.tails[seg], prev, "tail of segment {seg}");
            assert_eq!(c.seg_len[seg], n, "length of segment {seg}");
        }
        assert_eq!(c.seg_len[PROBATION] + c.seg_len[PROTECTED], c.len());
        assert!(c.seg_len[PROTECTED] <= c.protected_cap());
    }

    #[test]
    fn hit_after_insert() {
        let mut c = BlockCache::new(4);
        assert!(c.insert(k(1), vec![1], false).is_none());
        assert_eq!(c.get(&k(1)).map(|d| d[0]), Some(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn miss_counted() {
        let mut c: BlockCache = BlockCache::new(4);
        assert!(c.get(&k(9)).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn evicts_probation_tail_first() {
        let mut c = BlockCache::new(4);
        for b in 1..=4 {
            c.insert(k(b), vec![], false);
        }
        let _ = c.get(&k(1)); // promoted: leaves probation
        assert_eq!(victim_order(&c), vec![2, 3, 4, 1]);
        for (newcomer, victim) in [(5, 2), (6, 3), (7, 4), (8, 5)] {
            let ev = c.insert(k(newcomer), vec![], false).expect("eviction");
            assert_eq!(ev.key, k(victim), "oldest probationary entry goes first");
        }
        assert!(
            c.peek(&k(1)).is_some(),
            "the re-referenced entry outlives them"
        );
        assert_consistent(&c);
    }

    #[test]
    fn protected_overflow_is_demoted_to_probation() {
        // Capacity 5: the protected segment holds at most 4.
        let mut c = BlockCache::new(5);
        for b in 1..=5 {
            c.insert(k(b), vec![], false);
        }
        for b in 1..=5 {
            let _ = c.get(&k(b));
        }
        // Promoting 5 pushed the protected tail, 1, back to probation.
        assert_eq!(victim_order(&c), vec![1, 2, 3, 4, 5]);
        assert_eq!(c.insert(k(6), vec![], false).unwrap().key, k(1));
        assert_consistent(&c);
    }

    #[test]
    fn dirty_travels_with_eviction() {
        let mut c = BlockCache::new(2);
        c.insert(k(1), vec![1], true);
        let _ = c.get(&k(1)); // dirty survives promotion
        c.insert(k(2), vec![2], false);
        let ev = c.insert(k(3), vec![3], false).unwrap();
        assert_eq!((ev.key, ev.dirty), (k(2), false));
        let _ = c.get(&k(3)); // demotes 1 (protected bound is 1)
        let ev = c.insert(k(4), vec![4], false).unwrap();
        assert_eq!(ev.key, k(1));
        assert!(
            ev.dirty,
            "dirty survives demotion and comes back on eviction"
        );
        assert_eq!(ev.data, vec![1]);
    }

    #[test]
    fn replace_in_place_accumulates_dirty() {
        let mut c = BlockCache::new(2);
        c.insert(k(1), vec![1], true);
        assert!(c.insert(k(1), vec![9], false).is_none());
        let dirty = c.flush_dirty();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].data, vec![9]);
        // After flushing, nothing is dirty.
        assert!(c.flush_dirty().is_empty());
    }

    #[test]
    fn mark_dirty_sets_flag() {
        let mut c = BlockCache::new(2);
        c.insert(k(1), vec![1], false);
        c.mark_dirty(&k(1));
        assert_eq!(c.flush_dirty().len(), 1);
    }

    #[test]
    fn capacity_zero_bounces_everything() {
        let mut c = BlockCache::new(0);
        let ev = c.insert(k(1), vec![7], true).unwrap();
        assert_eq!(ev.key, k(1));
        assert!(ev.dirty);
        assert!(c.get(&k(1)).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().evictions, 0, "a bounce is not an eviction");
    }

    #[test]
    fn capacity_one_evicts_the_protected_entry() {
        let mut c = BlockCache::new(1);
        c.insert(k(1), vec![1], false);
        assert!(c.get(&k(1)).is_some(), "promotion with capacity 1");
        let ev = c.insert(k(2), vec![2], true).unwrap();
        assert_eq!(ev.key, k(1), "an empty probation falls back to protected");
        assert!(c.peek(&k(2)).is_some());
        let ev = c.insert(k(3), vec![3], false).unwrap();
        assert!(ev.dirty);
        assert_consistent(&c);
    }

    #[test]
    fn drain_returns_everything() {
        let mut c = BlockCache::new(4);
        c.insert(k(1), vec![1], true);
        c.insert(k(2), vec![2], false);
        let _ = c.get(&k(2));
        let mut drained = c.drain();
        drained.sort_by_key(|e| e.key.block);
        assert_eq!(drained.len(), 2);
        assert!(drained[0].dirty);
        assert!(!drained[1].dirty);
        assert!(c.is_empty());
        assert_consistent(&c);
        // Cache is reusable after drain.
        assert!(c.insert(k(3), vec![3], false).is_none());
        assert_eq!(c.len(), 1);
        assert_consistent(&c);
    }

    #[test]
    fn spaces_are_independent() {
        let mut c = BlockCache::new(4);
        c.insert(CacheKey::new(0, 5), vec![0], false);
        c.insert(CacheKey::new(1, 5), vec![1], false);
        assert_eq!(c.get(&CacheKey::new(0, 5)).map(|d| d[0]), Some(0));
        assert_eq!(c.get(&CacheKey::new(1, 5)).map(|d| d[0]), Some(1));
    }

    #[test]
    fn eviction_count_tracked() {
        let mut c: BlockCache = BlockCache::new(1);
        c.insert(k(1), vec![], false);
        c.insert(k(2), vec![], false);
        c.insert(k(3), vec![], false);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn hit_ratio() {
        let mut c: BlockCache = BlockCache::new(2);
        c.insert(k(1), vec![], false);
        let _ = c.get(&k(1));
        let _ = c.get(&k(2));
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn borrowed_lookup_on_owned_keys() {
        let mut c: BlockCache<Box<[u8]>, String> = BlockCache::new(2);
        c.insert(b"query".as_slice().into(), "result".into(), false);
        assert_eq!(
            c.get(b"query".as_slice()).map(|r| r.as_str()),
            Some("result")
        );
        assert!(c.get(b"other".as_slice()).is_none());
    }

    #[test]
    fn scan_does_not_flush_hot_set() {
        let mut c = BlockCache::new(8);
        // Build a promoted hot set: insert, then hit (the hit promotes).
        for b in 0..4u64 {
            c.insert(k(b), vec![b as u8], false);
        }
        for b in 0..4u64 {
            assert!(c.get(&k(b)).is_some());
        }
        // Stream a long one-touch scan through the cache.
        for b in 100..200u64 {
            c.insert(k(b), vec![0], false);
        }
        for b in 0..4u64 {
            assert!(
                c.peek(&k(b)).is_some(),
                "hot block {b} must survive the scan"
            );
        }
    }

    #[test]
    fn stress_consistency() {
        // Pseudo-random workload; the map, the lists and the segment
        // counts must stay in sync, and dirtiness must never be lost.
        let mut c = BlockCache::new(8);
        let mut dirty_resident = std::collections::HashSet::new();
        let mut x: u64 = 0x6c62_272e_07bb_0142;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = k(x % 32);
            if x.is_multiple_of(3) {
                let _ = c.get(&key);
            } else {
                let dirty = x.is_multiple_of(5);
                if let Some(ev) = c.insert(key, vec![(x % 256) as u8], dirty) {
                    assert_eq!(ev.dirty, dirty_resident.remove(&ev.key.block));
                }
                if dirty {
                    dirty_resident.insert(key.block);
                }
            }
            assert_consistent(&c);
        }
    }
}
