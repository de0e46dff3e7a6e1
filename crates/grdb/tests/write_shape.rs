//! The shape of grDB's write path, gated on counts rather than time. A
//! store batch is applied in ascending source order — level 0 is addressed
//! by vertex id, so one batch is one sweep of the files in file order —
//! and a run of entries that fits a tail sub-block is written under one
//! block access. With a block cache far smaller than the graph, that makes
//! an ingest read no more blocks than it writes: the blocks a sweep
//! fetches are the blocks it dirties. A batch applied in the order its
//! sources first appear walks the files at random and misses the cache on
//! almost every chain walk, reading far more than it writes.

use graphdb::GraphDb;
use graphgen::GraphPreset;
use grdb::{GrdbConfig, GrdbGraphDb};
use mssg_types::Edge;
use simio::IoStats;
use std::sync::Arc;

#[test]
fn an_ingest_reads_no_more_blocks_than_it_writes() {
    let dir = std::env::temp_dir().join(format!("grdb-write-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GrdbConfig {
        cache_blocks: 32,
        ..GrdbConfig::default()
    };
    let stats = IoStats::new();
    let mut db = GrdbGraphDb::open(&dir, cfg, Arc::clone(&stats)).unwrap();

    // Each undirected edge as the two directed entries ingestion stores.
    let entries: Vec<Edge> = GraphPreset::PubMedS
        .workload(1024, 42)
        .edge_stream()
        .flat_map(|e| [e, e.reversed()])
        .collect();
    assert_eq!(entries.len(), 54_376);
    for batch in entries.chunks(db.store_batch_entries()) {
        db.store_edges(batch).unwrap();
    }
    db.flush().unwrap();

    let io = stats.snapshot();
    println!(
        "write shape: {} entries, {} block reads, {} block writes",
        entries.len(),
        io.block_reads,
        io.block_writes
    );
    assert!(
        io.block_reads <= io.block_writes,
        "an ingest read {} blocks to write {}",
        io.block_reads,
        io.block_writes
    );
    let _ = std::fs::remove_dir_all(&dir);
}
