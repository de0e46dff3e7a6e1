//! Social-network analysis on a synthetic scale-free graph — the workload
//! class the thesis' introduction motivates (social networks whose degree
//! distributions follow a power law, where long-path queries touch a large
//! share of the graph).
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use mssg::core::ingest::{ingest, IngestOptions};
use mssg::core::{BackendKind, BackendOptions, BfsOptions, MssgCluster};
use mssg::graphgen::generate::BarabasiAlbert;
use mssg::graphgen::stats::{degree_histogram, powerlaw_exponent};
use mssg::graphgen::{degree_stats, Xoshiro256};
use mssg::prelude::*;

fn main() -> mssg::types::Result<()> {
    const PEOPLE: u64 = 20_000;
    const ATTACH: u64 = 5;
    const SEED: u64 = 2006;

    // Preferential attachment: newcomers befriend existing members with
    // probability proportional to their popularity.
    println!("growing a social network of {PEOPLE} people (BA, m = {ATTACH})...");
    let edges: Vec<Edge> = BarabasiAlbert::new(PEOPLE, ATTACH, SEED).collect();
    let stats = degree_stats(edges.iter().copied(), PEOPLE);
    println!("  {stats}");
    let hist = degree_histogram(edges.iter().copied(), PEOPLE);
    if let Some(beta) = powerlaw_exponent(&hist) {
        println!("  power-law exponent fit: β ≈ {beta:.2} (scale-free regime: ~2–3)");
    }
    println!(
        "  biggest hub knows {} people ({:.1} % of the network)",
        stats.max_degree,
        100.0 * stats.max_degree as f64 / PEOPLE as f64
    );

    // Store it across a 8-node MSSG cluster.
    let dir = std::env::temp_dir().join("mssg-social");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = MssgCluster::new(&dir, 8, BackendKind::Grdb, &BackendOptions::default())?;
    let report = ingest(&mut cluster, edges.into_iter(), &IngestOptions::default())?;
    println!(
        "ingested {} friendships in {:?} ({:.1} K edges/s)",
        report.edges,
        report.telemetry.elapsed,
        report.edges as f64 / report.telemetry.elapsed.as_secs_f64() / 1e3
    );

    // Degrees of separation: sample random pairs and measure path lengths —
    // the small-world property means almost everyone is a few hops apart.
    let mut rng = Xoshiro256::seeded(SEED);
    let mut histogram = std::collections::BTreeMap::<u32, u32>::new();
    let mut total_edges_scanned = 0u64;
    let samples = 30;
    for _ in 0..samples {
        let a = Gid::new(rng.next_below(PEOPLE));
        let b = Gid::new(rng.next_below(PEOPLE));
        if a == b {
            continue;
        }
        let m = mssg::core::bfs::bfs(&cluster, a, b, &BfsOptions::default())?;
        total_edges_scanned += m.edges_scanned;
        if let Some(len) = m.path_length {
            *histogram.entry(len).or_default() += 1;
        }
    }
    println!("degrees of separation over {samples} random pairs:");
    for (len, count) in &histogram {
        println!("  {len} hops: {count:2} {}", "#".repeat(*count as usize));
    }
    let max_sep = histogram.keys().max().copied().unwrap_or(0);
    println!(
        "small world: no sampled pair further than {max_sep} hops; \
         {total_edges_scanned} adjacency entries scanned in total"
    );
    assert!(max_sep <= 8, "a 20k BA graph has a tiny diameter");

    // Whole-graph analysis through the same framework: connected
    // components (a BA graph is connected by construction).
    let cc = mssg::core::connected_components(&cluster)?;
    println!(
        "components: {} ({} vertices, largest {}) in {} rounds",
        cc.components, cc.vertices, cc.largest, cc.rounds
    );
    assert_eq!(cc.components, 1);
    assert_eq!(cc.vertices, PEOPLE);
    Ok(())
}
