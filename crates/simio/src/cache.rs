//! Block cache — grDB's "block cache component", shared by every
//! out-of-core engine in the workspace.
//!
//! The cache holds whole storage blocks in memory, keyed by
//! `(space, block)` where *space* distinguishes independent block spaces
//! (e.g. grDB levels, or a B-tree's page file). Three replacement policies
//! are provided — [`CachePolicy::Lru`], [`CachePolicy::Clock`], and the
//! scan-resistant [`CachePolicy::TwoQ`] — because the thesis leaves the
//! policy to the implementation and the benchmark suite ablates the
//! choice.
//!
//! The cache is a passive container: it never touches disk. The storage
//! engine loads blocks, [`insert`](BlockCache::insert)s them, and writes
//! back the dirty [`Evicted`] entries the cache hands back. A capacity of
//! zero gives the exact "cache disabled" behaviour used by the Figure 5.2
//! reproduction: every insert is immediately evicted, every lookup misses.

use std::collections::HashMap;

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

/// Replacement policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CachePolicy {
    /// Strict least-recently-used.
    #[default]
    Lru,
    /// CLOCK (second chance): cheaper bookkeeping, near-LRU behaviour.
    Clock,
    /// Segmented LRU (2Q-style): new blocks enter a probationary segment
    /// and only a re-reference promotes them into the protected segment
    /// (bounded to ~4/5 of capacity, demoting its LRU end back to
    /// probation). Eviction takes the probationary tail first, so a
    /// one-touch scan streams through probation without flushing the hot
    /// set — the scan resistance plain LRU lacks.
    TwoQ,
}

/// A block pushed out of the cache. `dirty` entries must be written back by
/// the caller.
#[derive(Debug)]
pub struct Evicted {
    /// The evicted block's key.
    pub key: CacheKey,
    /// The block contents.
    pub data: Vec<u8>,
    /// Whether the block was modified since insertion.
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

/// Segment indices for the segmented-LRU lists. `Lru` and `Clock` keep
/// every frame on `PROBATION`; `TwoQ` uses both.
const PROBATION: usize = 0;
const PROTECTED: usize = 1;

struct Frame {
    key: CacheKey,
    data: Vec<u8>,
    dirty: bool,
    /// CLOCK reference bit.
    referenced: bool,
    /// Which recency list this frame is linked on.
    seg: usize,
    /// Recency list links (indices into `frames`).
    prev: usize,
    next: usize,
}

/// A fixed-capacity block cache. See the module docs for the protocol.
///
/// ```
/// use simio::{BlockCache, CacheKey, CachePolicy};
/// let mut cache = BlockCache::new(2, CachePolicy::Lru);
/// cache.insert(CacheKey::new(0, 1), vec![1u8], false);
/// cache.insert(CacheKey::new(0, 2), vec![2u8], true);
/// // Touch block 1 so block 2 becomes the LRU victim.
/// assert!(cache.get(CacheKey::new(0, 1)).is_some());
/// let evicted = cache.insert(CacheKey::new(0, 3), vec![3u8], false).unwrap();
/// assert_eq!(evicted.key, CacheKey::new(0, 2));
/// assert!(evicted.dirty, "dirty victims must be written back by the caller");
/// ```
pub struct BlockCache {
    policy: CachePolicy,
    capacity: usize,
    map: HashMap<CacheKey, usize>,
    frames: Vec<Frame>,
    free: Vec<usize>,
    /// Most-recently-used end of each segment's list.
    heads: [usize; 2],
    /// Least-recently-used end of each segment's list.
    tails: [usize; 2],
    /// Resident frames per segment.
    seg_len: [usize; 2],
    /// CLOCK hand.
    hand: usize,
    stats: CacheStats,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks.
    pub fn new(capacity: usize, policy: CachePolicy) -> BlockCache {
        BlockCache {
            policy,
            capacity,
            map: HashMap::new(),
            frames: Vec::new(),
            free: Vec::new(),
            heads: [NIL; 2],
            tails: [NIL; 2],
            seg_len: [0; 2],
            hand: 0,
            stats: CacheStats::default(),
        }
    }

    /// A cache that caches nothing (capacity 0).
    pub fn disabled() -> BlockCache {
        BlockCache::new(0, CachePolicy::Lru)
    }

    /// Maximum number of resident blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks a block up, updating recency state. Returns a mutable view so
    /// engines can modify in place (they must call
    /// [`mark_dirty`](BlockCache::mark_dirty) if they do).
    pub fn get(&mut self, key: CacheKey) -> Option<&mut Vec<u8>> {
        match self.map.get(&key).copied() {
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

    /// Looks a block up without counting a hit or a miss; used by flush
    /// paths that should not perturb the experiment's statistics.
    pub fn peek(&self, key: CacheKey) -> Option<&Vec<u8>> {
        self.map.get(&key).map(|&idx| &self.frames[idx].data)
    }

    /// Inserts (or replaces) a block, returning the evicted victim if the
    /// cache was full. With capacity 0, the inserted block itself comes
    /// straight back as the victim.
    pub fn insert(&mut self, key: CacheKey, data: Vec<u8>, dirty: bool) -> Option<Evicted> {
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
        let victim = if self.map.len() >= self.capacity {
            self.evict()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.frames[i] = Frame {
                    key,
                    data,
                    dirty,
                    referenced: true,
                    seg: PROBATION,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.frames.push(Frame {
                    key,
                    data,
                    dirty,
                    referenced: true,
                    seg: PROBATION,
                    prev: NIL,
                    next: NIL,
                });
                self.frames.len() - 1
            }
        };
        self.map.insert(key, idx);
        // New blocks always enter probation; under TwoQ only a later hit
        // promotes them.
        self.link_front(PROBATION, idx);
        victim
    }

    /// Marks a resident block dirty. No-op if the block is absent.
    pub fn mark_dirty(&mut self, key: CacheKey) {
        if let Some(&idx) = self.map.get(&key) {
            self.frames[idx].dirty = true;
        }
    }

    /// Returns all dirty blocks (clearing their dirty flags but keeping them
    /// resident) so the engine can write them back.
    pub fn flush_dirty(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for (&key, &idx) in self.map.iter() {
            let f = &mut self.frames[idx];
            if f.dirty {
                f.dirty = false;
                out.push(Evicted {
                    key,
                    data: f.data.clone(),
                    dirty: true,
                });
            }
        }
        out
    }

    /// Empties the cache, returning every resident block (dirty ones must be
    /// written back).
    pub fn drain(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for (key, idx) in self.map.drain() {
            let f = &mut self.frames[idx];
            out.push(Evicted {
                key,
                data: std::mem::take(&mut f.data),
                dirty: f.dirty,
            });
        }
        self.frames.clear();
        self.free.clear();
        self.heads = [NIL; 2];
        self.tails = [NIL; 2];
        self.seg_len = [0; 2];
        self.hand = 0;
        out
    }

    fn touch(&mut self, idx: usize) {
        match self.policy {
            CachePolicy::Lru => {
                self.unlink(idx);
                self.link_front(PROBATION, idx);
            }
            CachePolicy::Clock => {
                self.frames[idx].referenced = true;
            }
            CachePolicy::TwoQ => {
                self.unlink(idx);
                self.link_front(PROTECTED, idx);
                // Keep the protected segment bounded so probation always
                // retains room for newcomers; its LRU end goes back to
                // probation as most-recent (one more chance).
                while self.seg_len[PROTECTED] > self.protected_cap() {
                    let demote = self.tails[PROTECTED];
                    self.unlink(demote);
                    self.link_front(PROBATION, demote);
                }
            }
        }
    }

    /// Protected-segment bound under TwoQ: ~4/5 of capacity, so scans
    /// always find at least a fifth of the cache in probation.
    fn protected_cap(&self) -> usize {
        (self.capacity * 4 / 5).max(1)
    }

    fn evict(&mut self) -> Option<Evicted> {
        let victim_idx = match self.policy {
            CachePolicy::Lru => self.tails[PROBATION],
            CachePolicy::Clock => self.clock_victim(),
            // Probationary tail first: one-touch blocks leave before
            // anything the hot set re-referenced.
            CachePolicy::TwoQ if self.tails[PROBATION] != NIL => self.tails[PROBATION],
            CachePolicy::TwoQ => self.tails[PROTECTED],
        };
        if victim_idx == NIL {
            return None;
        }
        self.unlink(victim_idx);
        let f = &mut self.frames[victim_idx];
        let key = f.key;
        let data = std::mem::take(&mut f.data);
        let dirty = f.dirty;
        self.map.remove(&key);
        self.free.push(victim_idx);
        self.stats.evictions += 1;
        Some(Evicted { key, data, dirty })
    }

    /// CLOCK: sweep from the hand, clearing reference bits, until an
    /// unreferenced resident frame is found.
    fn clock_victim(&mut self) -> usize {
        if self.frames.is_empty() {
            return NIL;
        }
        let n = self.frames.len();
        // At most two sweeps: the first clears all reference bits.
        for _ in 0..(2 * n + 1) {
            let idx = self.hand;
            self.hand = (self.hand + 1) % n;
            // Skip frames on the free list (not resident).
            if !self.map.contains_key(&self.frames[idx].key)
                || self.map.get(&self.frames[idx].key) != Some(&idx)
            {
                continue;
            }
            if self.frames[idx].referenced {
                self.frames[idx].referenced = false;
            } else {
                return idx;
            }
        }
        NIL
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

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("policy", &self.policy)
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

    #[test]
    fn hit_after_insert() {
        let mut c = BlockCache::new(4, CachePolicy::Lru);
        assert!(c.insert(k(1), vec![1], false).is_none());
        assert_eq!(c.get(k(1)).map(|d| d[0]), Some(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn miss_counted() {
        let mut c = BlockCache::new(4, CachePolicy::Lru);
        assert!(c.get(k(9)).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = BlockCache::new(2, CachePolicy::Lru);
        c.insert(k(1), vec![1], false);
        c.insert(k(2), vec![2], false);
        let _ = c.get(k(1)); // 2 is now least recent
        let ev = c.insert(k(3), vec![3], false).expect("eviction");
        assert_eq!(ev.key, k(2));
        assert!(c.peek(k(1)).is_some());
        assert!(c.peek(k(3)).is_some());
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut c = BlockCache::new(2, CachePolicy::Clock);
        c.insert(k(1), vec![1], false);
        c.insert(k(2), vec![2], false);
        let _ = c.get(k(1)); // ref bit on 1
        let ev = c.insert(k(3), vec![3], false).expect("eviction");
        // Victim must be a resident, non-referenced frame; with both
        // referenced at insert time, the sweep clears bits and evicts the
        // first it revisits — but never the one just touched without a
        // full sweep. Either way, exactly one of {1,2} leaves.
        assert!(ev.key == k(1) || ev.key == k(2));
        assert_eq!(c.len(), 2);
        assert!(c.peek(k(3)).is_some());
    }

    #[test]
    fn dirty_travels_with_eviction() {
        let mut c = BlockCache::new(1, CachePolicy::Lru);
        c.insert(k(1), vec![1], true);
        let ev = c.insert(k(2), vec![2], false).unwrap();
        assert_eq!(ev.key, k(1));
        assert!(ev.dirty);
    }

    #[test]
    fn replace_in_place_accumulates_dirty() {
        let mut c = BlockCache::new(2, CachePolicy::Lru);
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
        let mut c = BlockCache::new(2, CachePolicy::Lru);
        c.insert(k(1), vec![1], false);
        c.mark_dirty(k(1));
        assert_eq!(c.flush_dirty().len(), 1);
    }

    #[test]
    fn disabled_cache_bounces_everything() {
        let mut c = BlockCache::disabled();
        let ev = c.insert(k(1), vec![7], true).unwrap();
        assert_eq!(ev.key, k(1));
        assert!(ev.dirty);
        assert!(c.get(k(1)).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn drain_returns_everything() {
        let mut c = BlockCache::new(4, CachePolicy::Lru);
        c.insert(k(1), vec![1], true);
        c.insert(k(2), vec![2], false);
        let mut drained = c.drain();
        drained.sort_by_key(|e| e.key.block);
        assert_eq!(drained.len(), 2);
        assert!(drained[0].dirty);
        assert!(!drained[1].dirty);
        assert!(c.is_empty());
        // Cache is reusable after drain.
        assert!(c.insert(k(3), vec![3], false).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn spaces_are_independent() {
        let mut c = BlockCache::new(4, CachePolicy::Lru);
        c.insert(CacheKey::new(0, 5), vec![0], false);
        c.insert(CacheKey::new(1, 5), vec![1], false);
        assert_eq!(c.get(CacheKey::new(0, 5)).map(|d| d[0]), Some(0));
        assert_eq!(c.get(CacheKey::new(1, 5)).map(|d| d[0]), Some(1));
    }

    #[test]
    fn eviction_count_tracked() {
        let mut c = BlockCache::new(1, CachePolicy::Lru);
        c.insert(k(1), vec![], false);
        c.insert(k(2), vec![], false);
        c.insert(k(3), vec![], false);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn hit_ratio() {
        let mut c = BlockCache::new(2, CachePolicy::Lru);
        c.insert(k(1), vec![], false);
        let _ = c.get(k(1));
        let _ = c.get(k(2));
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_stress_consistency() {
        // Pseudo-random workload; the map and the list must stay in sync.
        let mut c = BlockCache::new(8, CachePolicy::Lru);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = k(x % 32);
            if x.is_multiple_of(3) {
                let _ = c.get(key);
            } else {
                let _ = c.insert(key, vec![(x % 256) as u8], x.is_multiple_of(5));
            }
            assert!(c.len() <= 8);
        }
    }

    #[test]
    fn twoq_scan_does_not_flush_hot_set() {
        let mut c = BlockCache::new(8, CachePolicy::TwoQ);
        // Build a promoted hot set: insert, then hit (the hit promotes).
        for b in 0..4u64 {
            c.insert(k(b), vec![b as u8], false);
        }
        for b in 0..4u64 {
            assert!(c.get(k(b)).is_some());
        }
        // Stream a long one-touch scan through the cache.
        for b in 100..200u64 {
            c.insert(k(b), vec![0], false);
        }
        for b in 0..4u64 {
            assert!(
                c.peek(k(b)).is_some(),
                "hot block {b} must survive the scan"
            );
        }
    }

    /// The satellite test from the perf issue: on a scan-with-hot-set
    /// workload, the scan-resistant policy must out-hit plain LRU.
    #[test]
    fn twoq_beats_lru_on_scan_workload() {
        let run = |policy: CachePolicy| {
            let mut c = BlockCache::new(16, policy);
            // Warm a hot set small enough to fit alongside the scan.
            for b in 0..8u64 {
                c.insert(k(b), vec![], false);
                let _ = c.get(k(b));
            }
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for i in 0..4000u64 {
                // Interleave hot-set hits with a sequential one-touch scan.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let hot = k(x % 8);
                if c.get(hot).is_none() {
                    c.insert(hot, vec![], false);
                }
                let scan = k(1000 + i);
                if c.get(scan).is_none() {
                    c.insert(scan, vec![], false);
                }
            }
            c.stats().hit_ratio()
        };
        let lru = run(CachePolicy::Lru);
        let twoq = run(CachePolicy::TwoQ);
        assert!(
            twoq > lru,
            "2Q must out-hit LRU on a scan workload: {twoq} !> {lru}"
        );
    }

    #[test]
    fn twoq_capacity_one_still_works() {
        let mut c = BlockCache::new(1, CachePolicy::TwoQ);
        c.insert(k(1), vec![1], false);
        assert!(c.get(k(1)).is_some(), "promotion with capacity 1");
        let ev = c.insert(k(2), vec![2], true).unwrap();
        assert_eq!(ev.key, k(1));
        assert!(c.peek(k(2)).is_some());
    }

    #[test]
    fn twoq_stress_consistency() {
        let mut c = BlockCache::new(8, CachePolicy::TwoQ);
        let mut x: u64 = 0x6c62_272e_07bb_0142;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = k(x % 32);
            if x.is_multiple_of(3) {
                let _ = c.get(key);
            } else {
                let _ = c.insert(key, vec![(x % 256) as u8], x.is_multiple_of(5));
            }
            assert!(c.len() <= 8);
            assert_eq!(c.seg_len[PROBATION] + c.seg_len[PROTECTED], c.len());
            assert!(c.seg_len[PROTECTED] <= c.protected_cap());
        }
    }

    #[test]
    fn clock_stress_consistency() {
        let mut c = BlockCache::new(8, CachePolicy::Clock);
        let mut x: u64 = 0x2545f4914f6cdd1d;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = k(x % 32);
            if x.is_multiple_of(3) {
                let _ = c.get(key);
            } else {
                let _ = c.insert(key, vec![(x % 256) as u8], false);
            }
            assert!(c.len() <= 8);
        }
    }
}
