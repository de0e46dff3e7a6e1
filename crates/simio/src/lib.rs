#![warn(missing_docs)]
//! Block-oriented storage substrate for the MSSG out-of-core engines.
//!
//! The thesis evaluates its storage engines on a cluster whose nodes have
//! local SATA RAID — an environment where *seeks dominate*. On a modern
//! machine the OS page cache hides that effect, so this crate provides two
//! things the paper's environment gave for free:
//!
//! 1. **Accounting** ([`IoStats`]): every block read/write/seek performed by
//!    a storage engine is counted. Block-I/O counts are deterministic and
//!    hardware-independent, so the benchmark harness reports them alongside
//!    wall time.
//! 2. **A disk cost model** ([`DiskCostModel`]): converts the counters into
//!    modeled I/O time (seek latency + transfer time), re-imposing the
//!    relative costs the paper's hardware imposed.
//!
//! On top of those sit the building blocks the engines share:
//! [`BlockFile`] (a file of fixed-size blocks), [`MultiFile`] (a logical
//! block space split across many files of at most `M` bytes, as grDB
//! requires), and [`BlockCache`] (the "block cache component" of grDB, a
//! scan-resistant 2Q cache every engine and the serving plane share; the
//! engines run it as [`EngineCache`], keyed by block and hashed without
//! SipHash).

pub mod blockfile;
pub mod cache;
pub mod costmodel;
pub mod multifile;
pub mod stats;

pub use blockfile::BlockFile;
pub use cache::{BlockCache, CacheKey, CacheStats, EngineCache, Evicted};
pub use costmodel::DiskCostModel;
pub use multifile::MultiFile;
pub use stats::{IoSnapshot, IoStats};
