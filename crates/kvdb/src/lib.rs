#![warn(missing_docs)]
//! `kvdb` — a disk-backed B-tree key-value store.
//!
//! This crate is the workspace's substitute for BerkeleyDB (thesis §4.1.4):
//! a transactional-database-free, SQL-free, embeddable record store whose
//! access path is a B-tree of fixed-size pages behind a block cache. The
//! MSSG prototype stores each vertex's adjacency list in 8 KB chunks keyed
//! by `(vertex, chunk_no)`; [`BdbGraphDb`] supplies those records from the
//! generic [`KvStore`] to the chunked adapter the MySQL engine shares
//! (`graphdb::chunk`).
//!
//! Layout:
//! - [`page`] — on-disk page format (leaf / internal / overflow / meta),
//! - [`pager`] — page allocation, free list, block cache integration,
//! - [`tree`] — B-tree search / insert / split / delete / scan,
//! - [`store`] — the public [`KvStore`] API,
//! - [`graph`] — [`BdbGraphDb`], the B-tree records of the shared 8 KB
//!   chunked GraphDB adapter.
//!
//! The `minisql` crate reuses [`KvStore`] as its primary-key index, so
//! the MySQL-substitute's index path and the BerkeleyDB-substitute share
//! one B-tree implementation — mirroring how both real systems are built on
//! B-trees.

pub mod graph;
pub mod page;
pub mod pager;
pub mod store;
pub mod tree;

pub use graph::BdbGraphDb;
pub use store::{KvOptions, KvStore};
