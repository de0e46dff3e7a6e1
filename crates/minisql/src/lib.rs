#![warn(missing_docs)]
//! `minisql` — a minimal SQL engine, the workspace's MySQL substitute.
//!
//! The thesis' MySQL GraphDB backend (§4.1.3) stores each vertex's
//! adjacency list as 8 KB BLOB chunks in a table
//! `{vertex BIGINT, chunk BIGINT, data BLOB}` with a composite primary key,
//! and pays the relational toll on every operation: SQL text must be
//! lexed, parsed, and planned; rows travel through a heap file; lookups go
//! through a B-tree index *to find the row*, then a second hop to read it.
//! That indirection — not MySQL's implementation quality — is what makes
//! the relational path slow for graph workloads, and it is exactly what
//! this crate reproduces from scratch:
//!
//! - [`lexer`] / [`parser`] / [`ast`] — SQL front end (CREATE TABLE /
//!   CREATE INDEX / INSERT / SELECT / UPDATE / DELETE, `?` placeholders),
//! - [`value`] — the type system (BIGINT, BLOB) with order-preserving key
//!   encoding,
//! - [`heap`] — slotted-page row storage over `simio` block files,
//! - [`catalog`] — persistent table/index metadata,
//! - [`engine`] — planner + executor ([`Database`]), choosing index point /
//!   range scans over full scans when the WHERE clause allows,
//! - [`graph`] — [`MySqlGraphDb`], the `adj` table's rows as records of the
//!   chunked GraphDB adapter BerkeleyDB shares (`graphdb::chunk`); every
//!   store and lookup issues real SQL through the whole stack.
//!
//! Indexes reuse the `kvdb` B-tree — as in the real world, where both
//! BerkeleyDB and InnoDB are B-tree engines at heart.

pub mod ast;
pub mod catalog;
pub mod engine;
pub mod graph;
pub mod heap;
pub mod lexer;
pub mod parser;
pub mod value;

pub use engine::{Database, ResultSet};
pub use graph::MySqlGraphDb;
pub use value::Value;
