#![warn(missing_docs)]
//! The GraphDB service interface and in-memory backends.
//!
//! The thesis' single most load-bearing abstraction is the tiny `Graph`
//! interface of Listing 3.1: *store edges*, *get/set per-vertex metadata*,
//! and *retrieve an adjacency list filtered by metadata*. Every storage
//! engine — in-memory or out-of-core — implements it, and every analysis
//! (the out-of-core BFS in `mssg-core`) is written against it. None of the
//! methods communicate: they operate purely on data local to one back-end
//! node, and return the **empty set** for vertices stored elsewhere, which
//! is exactly what lets Algorithm 1 handle all distribution cases uniformly.
//!
//! The metadata filter of Listing 3.1 is written once, in the trait: an
//! engine implements one unfiltered read,
//! [`read_fringe`](GraphDb::read_fringe), and keeps one metadata word per
//! vertex; [`adjacency`](GraphDb::adjacency) and
//! [`expand_fringe`](GraphDb::expand_fringe) are provided methods that call
//! it and drop the neighbours whose word the `MetaOp` rejects. So every
//! engine filters identically, and none probes metadata under
//! `MetaOp::Ignore`.
//!
//! This crate provides:
//! - [`GraphDb`] — the trait (Listing 3.1, plus the batch
//!   [`expand_fringe`](GraphDb::expand_fringe) entry point that StreamDB
//!   needs, per thesis §4.1.5),
//! - [`ArrayDb`] — the compressed-adjacency-list (CSR) backend (§4.1.1),
//! - [`HashMapDb`] — the hash-table-of-adjacency-lists backend (§4.1.2),
//! - [`MetaTable`] — the in-memory per-vertex metadata word every engine
//!   keeps, and nothing else,
//! - [`chunk`] — the record-store adapter the MySQL and BerkeleyDB engines
//!   share: 8 KB adjacency chunks behind one [`chunk::ChunkedGraphDb`]
//!   (§4.1.3–§4.1.4, Figure 4.3),
//! - [`group_by_source`] — the one way an engine groups a batch by source:
//!   sources in ascending order (file order for grDB's level 0), each
//!   source's entries in batch order.

pub mod array;
pub mod chunk;
pub mod hashmap;
pub mod meta_table;
pub mod traits;

pub use array::ArrayDb;
pub use hashmap::HashMapDb;
pub use meta_table::MetaTable;
pub use traits::{group_by_source, GraphDb, GraphDbExt};
