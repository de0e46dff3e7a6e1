//! Shared by the ingestion property suites (`fault_props`, `perf_props`).

use mssg_core::backend::{BackendKind, BackendOptions};
use mssg_core::MssgCluster;
use mssg_types::Gid;

pub fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("core-props-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The engines the properties run over: no batching (HashMap), a batch of
/// about one window (grDB-tiny asks for 8 entries), and a batch that
/// outlasts the stream (grDB's thesis geometry asks for 32 Ki), so every
/// window a crashed store copy had absorbed is still unflushed when it
/// dies.
pub fn backends() -> [(&'static str, BackendKind, BackendOptions); 3] {
    // `tiny()`'s own 8-block cache is replaced by `BackendOptions`'
    // `cache_blocks`, so this back-end runs the tiny geometry with the
    // default 256-block cache.
    let tiny = BackendOptions {
        grdb: Some(grdb::GrdbConfig::tiny()),
        ..Default::default()
    };
    [
        ("hashmap", BackendKind::HashMap, BackendOptions::default()),
        ("grdb-tiny", BackendKind::Grdb, tiny),
        ("grdb", BackendKind::Grdb, BackendOptions::default()),
    ]
}

/// Every node's adjacency lists in *stored* order: equal values ⇔
/// byte-identical stored graphs.
pub fn stored_graph(cluster: &MssgCluster) -> Vec<Vec<(Gid, Vec<Gid>)>> {
    (0..cluster.nodes())
        .map(|i| {
            cluster.with_backend(i, |db| {
                use graphdb::GraphDbExt;
                let mut vs = db.local_vertices().unwrap();
                vs.sort_unstable();
                vs.into_iter()
                    .map(|v| (v, db.neighbors(v).unwrap()))
                    .collect()
            })
        })
        .collect()
}
