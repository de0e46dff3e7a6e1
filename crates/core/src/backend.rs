//! The GraphDB service registry: the six storage engines of thesis §4.1
//! behind one constructor.

use graphdb::{ArrayDb, GraphDb, HashMapDb};
use grdb::{GrdbConfig, GrdbGraphDb};
use kvdb::{BdbGraphDb, KvOptions};
use minisql::MySqlGraphDb;
use mssg_types::Result;
use simio::IoStats;
use std::path::Path;
use std::sync::Arc;
use streamdb::StreamDb;

/// The six GraphDB backends evaluated in the thesis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BackendKind {
    /// Compressed adjacency list (CSR) in memory — §4.1.1.
    Array,
    /// Hash map of adjacency lists in memory — §4.1.2.
    HashMap,
    /// Relational store through the mini-SQL engine — §4.1.3.
    MySql,
    /// B-tree record store with 8 KB chunking — §4.1.4.
    BerkeleyDb,
    /// Append-only scan-everything log — §4.1.5.
    StreamDb,
    /// The multi-level graph database — §4.1.6.
    Grdb,
}

impl BackendKind {
    /// All six kinds, in the order the thesis figures list them.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::Array,
        BackendKind::HashMap,
        BackendKind::MySql,
        BackendKind::BerkeleyDb,
        BackendKind::StreamDb,
        BackendKind::Grdb,
    ];

    /// The five backends of the PubMed-S comparative figures (5.3, 5.4):
    /// both in-memory engines plus MySQL, BerkeleyDB, and grDB.
    pub const FIGURE_FIVE: [BackendKind; 5] = [
        BackendKind::Array,
        BackendKind::HashMap,
        BackendKind::MySql,
        BackendKind::BerkeleyDb,
        BackendKind::Grdb,
    ];

    /// The five backends of the PubMed-L figures (5.5–5.7): the thesis
    /// drops MySQL after Figure 5.4 (it is hopeless at this size) and
    /// brings in StreamDB, whose "unrivaled ingestion performance" and
    /// scan-based search bound the comparison from both sides.
    pub const FIGURE_LARGE: [BackendKind; 5] = [
        BackendKind::Array,
        BackendKind::HashMap,
        BackendKind::BerkeleyDb,
        BackendKind::StreamDb,
        BackendKind::Grdb,
    ];

    /// Display name matching the thesis.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Array => "Array",
            BackendKind::HashMap => "HashMap",
            BackendKind::MySql => "MySQL",
            BackendKind::BerkeleyDb => "BerkeleyDB",
            BackendKind::StreamDb => "StreamDB",
            BackendKind::Grdb => "grDB",
        }
    }
}

/// Backend tuning shared by the benchmark harness.
#[derive(Clone, Debug)]
pub struct BackendOptions {
    /// Block-cache capacity, in blocks/pages, of the engines that have one
    /// (BerkeleyDB, grDB); 0 turns the cache off, as the Figure 5.2
    /// experiment does. Default 256.
    pub cache_blocks: usize,
    /// grDB configuration override (defaults to the thesis geometry). Its
    /// own `cache_blocks` is replaced by the count above.
    pub grdb: Option<GrdbConfig>,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            cache_blocks: 256,
            grdb: None,
        }
    }
}

/// Opens a backend of `kind` rooted at `dir` (a directory for directory
/// engines, a file path component otherwise).
pub fn open_backend(
    kind: BackendKind,
    dir: &Path,
    options: &BackendOptions,
    stats: Arc<IoStats>,
) -> Result<Box<dyn GraphDb + Send>> {
    std::fs::create_dir_all(dir)?;
    Ok(match kind {
        BackendKind::Array => Box::new(ArrayDb::new()),
        BackendKind::HashMap => Box::new(HashMapDb::new()),
        BackendKind::MySql => Box::new(MySqlGraphDb::open(&dir.join("mysql"), stats)?),
        BackendKind::BerkeleyDb => {
            let kv = KvOptions {
                cache_pages: options.cache_blocks,
                ..Default::default()
            };
            Box::new(BdbGraphDb::open(&dir.join("bdb.db"), kv, stats)?)
        }
        BackendKind::StreamDb => Box::new(StreamDb::open(&dir.join("stream.log"), stats)?),
        BackendKind::Grdb => {
            let mut cfg = options.grdb.clone().unwrap_or_default();
            cfg.cache_blocks = options.cache_blocks;
            Box::new(GrdbGraphDb::open(&dir.join("grdb"), cfg, stats)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdb::GraphDbExt;
    use mssg_types::{Edge, Gid};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("core-backend-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn every_backend_stores_and_reads() {
        for kind in BackendKind::ALL {
            let dir = tmpdir(kind.name());
            let mut db =
                open_backend(kind, &dir, &BackendOptions::default(), IoStats::new()).unwrap();
            db.store_edges(&[Edge::of(1, 2), Edge::of(1, 3)]).unwrap();
            db.flush().unwrap();
            let mut n = db.neighbors(Gid::new(1)).unwrap();
            n.sort_unstable();
            assert_eq!(n, vec![Gid::new(2), Gid::new(3)], "{}", kind.name());
            assert_eq!(db.backend_name(), kind.name());
        }
    }

    #[test]
    fn uncached_backends_work() {
        for kind in [BackendKind::BerkeleyDb, BackendKind::Grdb] {
            let dir = tmpdir(&format!("uncached-{}", kind.name()));
            let uncached = BackendOptions {
                cache_blocks: 0,
                ..Default::default()
            };
            let mut db = open_backend(kind, &dir, &uncached, IoStats::new()).unwrap();
            db.store_edges(&[Edge::of(5, 6)]).unwrap();
            assert_eq!(db.neighbors(Gid::new(5)).unwrap(), vec![Gid::new(6)]);
        }
    }

    #[test]
    fn kind_properties() {
        assert_eq!(BackendKind::ALL.len(), 6);
        assert_eq!(BackendKind::FIGURE_FIVE.len(), 5);
    }
}
