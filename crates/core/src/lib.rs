#![warn(missing_docs)]
//! `mssg-core` — the MSSG framework: one or more front-end nodes for
//! ingestion and queries, a set of back-end nodes owning GraphDB instances,
//! and the services that tie them together over the DataCutter substrate
//! (thesis chapter 3).
//!
//! - [`backend`] — the GraphDB service registry: open any of the six
//!   storage engines behind one enum,
//! - [`cluster`] — [`MssgCluster`], the simulated cluster: one thread per
//!   back-end [`Node`], which owns its GraphDB instance rooted in its own
//!   directory, its ingest checkpoint and its I/O statistics,
//! - [`decluster`] — [`Declustering`], the cluster's one placement
//!   (vertex-hash, vertex-round-robin or edge-round-robin): ingestion
//!   assigns entries from it, and BFS and components route by it,
//! - [`ingest`] — the streaming Ingestion service: windows of edges flow
//!   from front-end filters to back-end store filters,
//! - [`epoch`] — graph epochs: ingestion advances the cluster epoch at
//!   window-checkpoint boundaries, queries pin it for consistent
//!   snapshots (the contract `mssg-serve` builds on),
//! - [`visited`] — the visited sets a search filters a level through: the
//!   in-memory paged bitmap and the external-memory B-tree of Figures
//!   5.8/5.9,
//! - [`bfs`] — parallel out-of-core BFS (Algorithm 1) and its pipelined
//!   variant (Algorithm 2), implemented as DataCutter filter graphs around
//!   one per-level kernel (scan, filter, route),
//! - `superstep` (crate-private) — the resident engines [`bfs`],
//!   [`components`], [`msf`] and [`degrees`] run on as jobs: each
//!   cluster's `peers` pipelines, kept up between calls, running programs
//!   over `datacutter::superstep`'s round protocol,
//! - [`query`] — the Query service: [`Query`], one variant per analysis,
//!   run by [`Query::run`]; [`QueryService`] runs one by name,
//! - [`telemetry`] — [`TelemetryReport`], the unified per-run observation
//!   record every service returns (wall time, disk and message traffic,
//!   per-filter breakdowns, metrics snapshot).

pub mod backend;
pub mod bfs;
pub mod cluster;
pub mod components;
pub mod decluster;
pub mod degrees;
pub mod epoch;
pub mod ingest;
pub mod msf;
pub mod query;
pub(crate) mod superstep;
pub mod telemetry;
pub mod visited;

pub use backend::{BackendKind, BackendOptions};
pub use bfs::{BfsMode, BfsOptions, SearchMetrics};
pub use cluster::{MssgCluster, Node};
pub use components::{connected_components, ComponentsResult};
pub use decluster::Declustering;
pub use degrees::{degree_distribution, DegreeReport};
pub use epoch::{EpochManager, EpochPin, EpochUpdate};
pub use ingest::{ingest_typed, IngestOptions, IngestReport, TypedIngestReport};
pub use msf::{minimum_spanning_forest, MsfResult};
pub use query::{k_hop, KHopResult, Query, QueryParams, QueryService};
pub use telemetry::TelemetryReport;
pub use visited::VisitedKind;
