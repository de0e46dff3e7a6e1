#![warn(missing_docs)]
//! `mssg-serve` — the persistent query-serving subsystem (DESIGN.md §13).
//!
//! Everything below this crate answers *one* run at a time: build a
//! cluster, ingest, run an analysis, exit. This crate turns a cluster
//! into a long-lived service that answers many clients *while* ingestion
//! keeps feeding the graph:
//!
//! - [`proto`] — the client wire protocol: versioned [`Query`] /
//!   [`ResponseBody`] / [`Reject`] / [`Failure`] encodings riding the
//!   `mssg-net` framing's `Request` / `Response` / `Reject` / `Failed` kinds;
//! - [`admission`] — bounded in-flight slots, per-client fair queues,
//!   and typed `Overloaded { retry_after }` rejection;
//! - [`server`] — the epoch-snapshot executor: every admitted query is
//!   pinned to a consistent graph epoch (ingestion advances the epoch at
//!   window-checkpoint boundaries), so a query never observes a
//!   half-applied ingestion; a failed execution answers a typed [`Failure`];
//! - [`cache`] — the result cache, keyed by the encoded query on
//!   `simio`'s scan-resistant 2Q cache, invalidated wholesale when the
//!   epoch advances;
//! - [`client`] — the synchronous [`Client`] library the tests, the
//!   smoke harness, and the `benchmark/` package drive the server with.
//!
//! The `mssg-node` binary (this crate's CLI) gains `serve` and `query`
//! modes on top of the distributed-workload modes it already had.

pub mod admission;
pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use admission::{Admission, ClientId, Overloaded, SlotGuard};
pub use cache::{ResultCache, ResultCacheStats};
pub use client::{Client, Outcome, RetryPolicy};
pub use proto::{Failure, FailureKind, Query, Reject, ResponseBody, ENCODING_VERSION};
pub use server::{ServeConfig, Server};
