#![warn(missing_docs)]
//! Benchmark harness regenerating every table and figure of the thesis'
//! evaluation (chapter 5).
//!
//! The paper ran on a 64-node Opteron cluster against graphs up to a
//! billion edges; this harness runs the same experiments on one machine
//! against *scaled* workloads (DESIGN.md §2). Absolute numbers therefore
//! differ; what must (and does) reproduce is the **shape**: which backend
//! wins, by roughly what factor, and where the crossovers fall. Every
//! experiment reports deterministic block-I/O counts and modeled 2006-disk
//! time alongside wall time, so the shapes can be checked on the paper's
//! own terms.
//!
//! Run everything:
//! ```text
//! cargo run -p mssg-bench --release --bin figures -- all
//! cargo run -p mssg-bench --release --bin figures -- fig5_4 --scale 256 --queries 20
//! ```
//!
//! Performance over time is the job of the repo-level `benchmark/`
//! package (BENCHMARK.json), not of this crate. Every experiment here
//! reports through [`report::Table`]:
//!
//! ```
//! use mssg_bench::Table;
//!
//! let mut t = Table::new("demo".to_string(), &["backend", "edges/s"]);
//! t.row(vec!["grDB".into(), "1.9 M".into()]);
//! assert!(t.to_markdown().contains("| grDB | 1.9 M |"));
//! ```

pub mod experiments;
pub mod report;
pub mod workloads;

pub use experiments::ExpConfig;
pub use report::Table;
