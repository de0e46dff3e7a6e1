//! Result cache keyed by the encoded query, for one epoch at a time.
//!
//! Runs on [`simio::BlockCache`] — the same scan-resistant 2Q cache the
//! grDB block cache runs — holding each result under the encoded query
//! bytes themselves, so a key cannot collide and a lookup borrows the
//! caller's bytes.
//!
//! Every resident entry was computed at the cache's current epoch. An
//! access stamped with a newer epoch drains the cache wholesale; one
//! stamped with an older epoch misses. Stale-epoch entries are *never*
//! returned — a response's epoch stamp is exactly the epoch its result
//! was computed at.

use simio::BlockCache;

/// Hit/miss/invalidation tallies for one cache lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
    /// Whole-cache invalidations on epoch advance.
    pub invalidations: u64,
}

/// The epoch-keyed query result cache.
pub struct ResultCache {
    /// Encoded query → result, every entry computed at `epoch`.
    cache: BlockCache<Box<[u8]>, String>,
    /// Epoch of every resident entry; an access at a newer epoch drains.
    epoch: u64,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// A cache holding up to `capacity` results under 2Q eviction.
    /// Capacity 0 disables caching (every lookup misses).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            cache: BlockCache::new(capacity),
            epoch: 0,
            stats: ResultCacheStats::default(),
        }
    }

    /// Tallies so far.
    pub fn stats(&self) -> ResultCacheStats {
        self.stats
    }

    /// Resident entries (diagnostics).
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Drops every entry older than `epoch`. Called implicitly by
    /// `get`/`insert`; public so a serving layer can invalidate eagerly
    /// when it observes an epoch bump.
    pub fn advance(&mut self, epoch: u64) {
        if epoch > self.epoch {
            if !self.cache.is_empty() {
                self.cache.drain();
                self.stats.invalidations += 1;
            }
            self.epoch = epoch;
        }
    }

    /// The cached result for `query` at `epoch`, if present.
    pub fn get(&mut self, epoch: u64, query: &[u8]) -> Option<&str> {
        self.advance(epoch);
        let hit = if epoch == self.epoch {
            self.cache.get(query)
        } else {
            None
        };
        match hit {
            Some(result) => {
                self.stats.hits += 1;
                Some(result)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Caches `result` for `query` at `epoch`.
    pub fn insert(&mut self, epoch: u64, query: &[u8], result: &str) {
        self.advance(epoch);
        if epoch < self.epoch || self.cache.capacity() == 0 {
            return; // a stale result must never become visible
        }
        self.cache.insert(query.into(), result.to_string(), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = ResultCache::new(8);
        assert_eq!(c.get(1, b"q1"), None);
        c.insert(1, b"q1", "r1");
        assert_eq!(c.get(1, b"q1"), Some("r1"));
        assert_eq!(
            c.stats(),
            ResultCacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0
            }
        );
    }

    #[test]
    fn epoch_advance_invalidates_everything() {
        let mut c = ResultCache::new(8);
        c.insert(1, b"q1", "r1");
        c.insert(1, b"q2", "r2");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2, b"q1"), None, "epoch 2 sees nothing from epoch 1");
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 1);
        // Stale writers cannot resurrect an old epoch's result.
        c.insert(1, b"q1", "r1");
        assert_eq!(c.get(2, b"q1"), None);
        assert_eq!(c.get(1, b"q1"), None, "old-epoch reads miss too");
    }

    #[test]
    fn distinct_queries_hold_distinct_results() {
        let mut c = ResultCache::new(8);
        c.insert(1, b"q1", "r1");
        c.insert(1, b"q2", "r2");
        assert_eq!(c.get(1, b"q2"), Some("r2"));
        assert_eq!(c.get(1, b"q1"), Some("r1"));
        assert_eq!(c.get(1, b"q"), None, "a prefix is a different query");
    }

    #[test]
    fn older_epoch_reads_miss_current_entries() {
        let mut c = ResultCache::new(8);
        c.insert(2, b"q", "r@2");
        assert_eq!(c.get(1, b"q"), None, "a reader pinned at epoch 1");
        assert_eq!(c.get(2, b"q"), Some("r@2"));
    }

    #[test]
    fn capacity_zero_disables() {
        let mut c = ResultCache::new(0);
        c.insert(1, b"q", "r");
        assert_eq!(c.get(1, b"q"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn twoq_evicts_scans_before_hot_entries() {
        let mut c = ResultCache::new(4);
        c.insert(1, b"hot", "r");
        assert!(c.get(1, b"hot").is_some(), "promote to protected");
        assert!(c.get(1, b"hot").is_some());
        for i in 0..64u32 {
            c.insert(1, &i.to_le_bytes(), "scan"); // one-touch: stays probationary
        }
        assert_eq!(
            c.get(1, b"hot"),
            Some("r"),
            "a one-shot scan must not flush the protected entry"
        );
    }
}
