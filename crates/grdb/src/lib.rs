#![warn(missing_docs)]
//! grDB — the MSSG multi-level out-of-core graph database (thesis §3.4.1,
//! §4.1.6). This is the paper's primary storage contribution.
//!
//! # Layout
//!
//! A grDB instance keeps one *storage file space* per level ℓ. Level-ℓ
//! sub-blocks hold up to `d_ℓ` 8-byte words, with `d_ℓ ≥ 2·d_{ℓ−1}` — an
//! exponential schedule matched to the power-law degree distribution of
//! scale-free graphs: almost every vertex fits entirely in its level-0
//! sub-block, and only the rare hubs cascade into the big sub-blocks of the
//! high levels.
//!
//! - The beginning of vertex `v`'s adjacency list is the `v`-th sub-block of
//!   level 0 (direct addressing, no index).
//! - Sub-blocks are packed `k_ℓ = B_ℓ / (8·d_ℓ)` to a block (`B_ℓ` = block
//!   size, the unit of I/O and of caching) and blocks are packed
//!   `N_ℓ = M / B_ℓ` to a file of at most `M` bytes; sub-block `s` lives in
//!   file `s/k_ℓ/N_ℓ` at the offset the thesis gives by modulo arithmetic
//!   (realised by [`simio::MultiFile`]).
//! - When a sub-block fills, its **last slot** is replaced by a pointer —
//!   a word with a non-zero tag in its top 3 bits (§4.1.6) — to a sub-block
//!   at the next level, where the displaced entry and all later ones live.
//!
//! # Growth policies
//!
//! The thesis describes two ways to grow past a full sub-block: *move* the
//! full sub-block's contents up a level (extra copies, compact chains) or
//! *link* to a fresh sub-block (no copies, fragmented chains), optionally
//! compacted later by a background [`GrdbStore::defragment`]. Both are
//! implemented and selectable via [`GrowthPolicy`]; a bench ablates them.
//!
//! # Write path
//!
//! [`GrdbStore::append_neighbours`] walks a vertex's chain to its tail once
//! and writes each run of entries that fits the tail sub-block under one
//! block access; growth past a full tail is the same step whatever the
//! batch size, so batching never changes a chain. [`GrdbGraphDb`]'s
//! `store_edges` hands it a batch through [`graphdb::group_by_source`], in
//! ascending source order: level 0 is addressed by vertex id, so a batch
//! is one sweep over level 0 in file order — the write-side twin of the
//! read path's sorted waves — and each vertex keeps its stream order.
//!
//! # Block cache
//!
//! All block I/O goes through the instance's block cache
//! ([`simio::EngineCache`], a [`simio::BlockCache`] hashed by
//! `GidHasher`) — the "block cache component". Capacity 0
//! reproduces the Figure 5.2 cache-off configuration. The cache is 2Q: a
//! block enters probation and only a second reference protects it, so the
//! one-touch blocks of a level's waves leave first and the blocks point
//! lookups reuse stay resident. A read miss fetches exactly the block that
//! was asked for.
//!
//! # Read path
//!
//! There is one read routine, [`GrdbStore::expand`], and it takes a whole
//! fringe: each chain depth is one *wave* of sub-block requests, sorted
//! into file order, with requests that share a block served by one block
//! access and decoded in place — the thesis' §4.2 future work ("sorting
//! the pre-fetch disk accesses by file offsets"), FlashGraph's sorted and
//! merged request list. [`GrdbGraphDb`]'s `read_fringe` decodes straight
//! into the caller's buffer; a point lookup is the same routine on a
//! one-vertex fringe and returns the list in insertion order.
//!
//! ```
//! use grdb::{GrdbConfig, GrdbGraphDb};
//! use mssg_types::{Edge, Gid};
//! use std::sync::Arc;
//!
//! let mut cfg = GrdbConfig::tiny();          // 3 levels, 64-byte blocks
//! cfg.cache_blocks = 32;                     // cache capacity, in blocks
//!
//! let dir = std::env::temp_dir().join("grdb-doc-cache");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let stats = Arc::new(simio::IoStats::default());
//! let mut db = GrdbGraphDb::open(&dir, cfg, stats).unwrap();
//! use graphdb::{GraphDb, GraphDbExt};
//! db.store_edges(&[Edge::of(1, 2), Edge::of(1, 3)]).unwrap();
//! assert_eq!(db.neighbors(Gid::new(1)).unwrap(), vec![Gid::new(2), Gid::new(3)]);
//! let cache = db.cache_stats();
//! assert!(cache.hits > 0);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod config;
pub mod graph;
pub mod layout;
pub mod store;

pub use config::{GrdbConfig, GrowthPolicy, LevelConfig};
pub use graph::GrdbGraphDb;
pub use store::GrdbStore;
