//! In-memory per-vertex metadata.
//!
//! The thesis runs its search experiments "with an in-memory visited data
//! structure … the simplest way to obtain a fair comparison is to simply
//! fix the visited data-structure". [`MetaTable`] is that fixed structure:
//! a hash map from vertex id to the 32-bit metadata word, defaulting to
//! [`UNVISITED`]. Every backend embeds one, so metadata behaviour is
//! identical across engines and the benchmarks measure only the adjacency
//! storage. It holds vertex words only: job state such as ingest's
//! checkpoint is the cluster's, not the graph's.

use mssg_types::{Gid, GidMap, Meta, UNVISITED};

/// Map from vertex to metadata word with an `UNVISITED` default.
#[derive(Clone, Debug, Default)]
pub struct MetaTable {
    map: GidMap<Meta>,
}

impl MetaTable {
    /// Creates an empty table.
    pub fn new() -> MetaTable {
        MetaTable::default()
    }

    /// Reads `v`'s metadata; unknown vertices read as [`UNVISITED`].
    #[inline]
    pub fn get(&self, v: Gid) -> Meta {
        self.map.get(&v).copied().unwrap_or(UNVISITED)
    }

    /// Writes `v`'s metadata. Writing `UNVISITED` removes the entry so the
    /// table's size tracks the visited set.
    #[inline]
    pub fn set(&mut self, v: Gid, meta: Meta) {
        if meta == UNVISITED {
            self.map.remove(&v);
        } else {
            self.map.insert(v, meta);
        }
    }

    /// Number of vertices holding a non-default word.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no vertex holds a non-default word.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unvisited() {
        let t = MetaTable::new();
        assert_eq!(t.get(Gid::new(5)), UNVISITED);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = MetaTable::new();
        t.set(Gid::new(1), 3);
        assert_eq!(t.get(Gid::new(1)), 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn setting_unvisited_removes() {
        let mut t = MetaTable::new();
        t.set(Gid::new(1), 3);
        t.set(Gid::new(1), UNVISITED);
        assert_eq!(t.get(Gid::new(1)), UNVISITED);
        assert!(t.is_empty());
    }

    #[test]
    fn zero_is_a_real_value() {
        // Level 0 (the BFS source) must be distinguishable from unvisited.
        let mut t = MetaTable::new();
        t.set(Gid::new(2), 0);
        assert_eq!(t.get(Gid::new(2)), 0);
        assert_eq!(t.len(), 1);
    }
}
