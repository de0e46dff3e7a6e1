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
//! this crate reproduces from scratch.
//!
//! The SQL it speaks is exactly the statements [`MySqlGraphDb`] issues:
//! `CREATE TABLE … PRIMARY KEY (…)`, a one-row `INSERT … VALUES (?, ?, ?)`,
//! `UPDATE … SET col = ? WHERE …`, and `SELECT col FROM … WHERE …
//! [ORDER BY col]`, with `=` and `>=` predicates over `?` placeholders and
//! integer literals. Anything else is a typed `Query` error. The modules:
//!
//! - [`lexer`] / [`parser`] / [`ast`] — the SQL front end,
//! - [`value`] — the type system (BIGINT, BLOB) with order-preserving key
//!   encoding,
//! - [`heap`] — slotted-page row storage over `simio` block files,
//! - [`catalog`] — the persistent definition of a database's one table,
//! - [`engine`] — planner + executor ([`Database`]), choosing a
//!   primary-key prefix scan over a full scan when the WHERE clause allows,
//! - [`graph`] — [`MySqlGraphDb`], the `adj` table's rows as records of the
//!   chunked GraphDB adapter BerkeleyDB shares (`graphdb::chunk`); every
//!   store and lookup issues real SQL through the whole stack.
//!
//! The primary-key index reuses the `kvdb` B-tree — as in the real world,
//! where both BerkeleyDB and InnoDB are B-tree engines at heart.

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
