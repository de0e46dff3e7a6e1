//! Quickstart: stand up an MSSG cluster, stream a graph in, and ask it
//! questions.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mssg::core::ingest::{ingest, IngestOptions};
use mssg::core::query::Query;
use mssg::core::{BackendKind, BackendOptions, BfsOptions, MssgCluster};
use mssg::prelude::*;

fn main() -> mssg::types::Result<()> {
    // A cluster of four back-end storage nodes, each running the paper's
    // grDB storage engine in its own directory.
    let dir = std::env::temp_dir().join("mssg-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = MssgCluster::new(&dir, 4, BackendKind::Grdb, &BackendOptions::default())?;

    // Any `Iterator<Item = Edge>` can be ingested. Here: a small collab
    // network, streamed through the ingestion service, which declusters
    // vertices over the back-ends with the GID % p mapping.
    let edges = vec![
        Edge::of(0, 1), // alice - bob
        Edge::of(1, 2), // bob - carol
        Edge::of(2, 3), // carol - dan
        Edge::of(3, 4), // dan - erin
        Edge::of(0, 5), // alice - frank
        Edge::of(5, 4), // frank - erin
    ];
    let report = ingest(&mut cluster, edges.into_iter(), &IngestOptions::default())?;
    println!(
        "ingested {} edges in {:?} ({} stored entries across {} nodes)",
        report.edges,
        report.telemetry.elapsed,
        cluster.total_entries(),
        cluster.nodes()
    );

    // Relationship analysis: how far is alice (0) from erin (4)?
    // The parallel out-of-core BFS runs one filter per back-end node.
    let metrics = mssg::core::bfs::bfs(&cluster, Gid::new(0), Gid::new(4), &BfsOptions::default())?;
    println!(
        "shortest path 0 -> 4: {:?} edges ({} adjacency entries scanned, {} rounds)",
        metrics.path_length, metrics.edges_scanned, metrics.rounds
    );
    assert_eq!(metrics.path_length, Some(2), "alice-frank-erin");

    // The same analysis as a typed query: what a served client asks.
    let query = Query::Bfs {
        source: Gid::new(1),
        dest: Gid::new(4),
    };
    println!("query service says: {}", query.run(&cluster)?);

    // Direct storage access for one vertex, on the node the cluster's
    // placement says holds its adjacency.
    let owner = cluster
        .placement()
        .owner(Gid::new(0))
        .expect("vertex granularity: one node holds each list");
    let neighbours = cluster.with_backend(owner, |db| {
        use mssg::graphdb::GraphDbExt;
        db.neighbors(Gid::new(0))
    })?;
    println!("neighbours of vertex 0 (on node {owner}): {neighbours:?}");
    Ok(())
}
