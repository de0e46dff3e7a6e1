//! Durability tests: graphs ingested into the disk backends survive a full
//! shutdown and reopen — each engine's files are its source of truth.

use mssg::core::bfs::{bfs, BfsOptions};
use mssg::core::ingest::{ingest, DeclusterKind, IngestOptions};
use mssg::core::{BackendKind, BackendOptions, MssgCluster};
use mssg::graphdb::GraphDbExt;
use mssg::graphgen::GraphPreset;
use mssg::prelude::*;
use mssg::types::GraphStorageError;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mssg-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Disk-backed engines that implement durable reopen. (StreamDB is also
/// durable; included. The in-memory engines are excluded by definition.)
const DURABLE: [BackendKind; 4] = [
    BackendKind::Grdb,
    BackendKind::BerkeleyDb,
    BackendKind::MySql,
    BackendKind::StreamDb,
];

#[test]
fn cluster_data_survives_reopen() {
    let workload = GraphPreset::PubMedS.workload(32768, 3);
    let edges = workload.collect_edges();
    for kind in DURABLE {
        let dir = tmpdir(&format!("reopen-{}", kind.name()));
        let degrees_before: Vec<usize>;
        let entries_before: u64;
        {
            let mut cluster = MssgCluster::new(&dir, 3, kind, &BackendOptions::default()).unwrap();
            ingest(
                &mut cluster,
                edges.clone().into_iter(),
                &IngestOptions::default(),
            )
            .unwrap();
            cluster.flush_all().unwrap();
            degrees_before = (0..20u64)
                .map(|v| {
                    (0..3)
                        .map(|n| cluster.with_backend(n, |db| db.degree(Gid::new(v)).unwrap()))
                        .sum()
                })
                .collect();
            entries_before = cluster.total_entries();
        } // Cluster dropped: all handles closed.

        // Reopen over the same directories; the data must still be there,
        // and counted.
        let mut cluster = MssgCluster::new(&dir, 3, kind, &BackendOptions::default()).unwrap();
        assert_eq!(
            cluster.total_entries(),
            entries_before,
            "{}: entry count changed across reopen",
            kind.name()
        );
        for (v, &want) in degrees_before.iter().enumerate() {
            let got: usize = (0..3)
                .map(|n| cluster.with_backend(n, |db| db.degree(Gid::new(v as u64)).unwrap()))
                .sum();
            assert_eq!(
                got,
                want,
                "{}: degree of {v} changed across reopen",
                kind.name()
            );
        }
        // The stored entries were placed by `VertexHash`: another
        // placement on top of them would route searches wrongly.
        let other = IngestOptions {
            declustering: DeclusterKind::EdgeRoundRobin,
            ..IngestOptions::default()
        };
        let err = ingest(&mut cluster, std::iter::once(Edge::of(0, 1)), &other).unwrap_err();
        assert!(
            matches!(err, GraphStorageError::Unsupported(_)),
            "{}: {err}",
            kind.name()
        );
        assert_eq!(cluster.total_entries(), entries_before, "{}", kind.name());
    }
}

/// Ingest's checkpoint (watermark and window size) is `MssgCluster` state
/// in memory, which a reopen does not keep: a `resume` after a reopen
/// would replay the stream from window 0 and store it twice, so it is
/// refused.
#[test]
fn resume_after_reopen_is_refused() {
    let edges: Vec<Edge> = (0..200)
        .map(|i| Edge::of(i % 37, (i * 7 + 1) % 101))
        .collect();
    for kind in DURABLE {
        let dir = tmpdir(&format!("resume-{}", kind.name()));
        {
            let mut cluster = MssgCluster::new(&dir, 2, kind, &BackendOptions::default()).unwrap();
            ingest(
                &mut cluster,
                edges.clone().into_iter(),
                &IngestOptions::default(),
            )
            .unwrap();
            cluster.flush_all().unwrap();
            assert_eq!(cluster.total_entries(), 400, "{}", kind.name());
        }
        let mut cluster = MssgCluster::new(&dir, 2, kind, &BackendOptions::default()).unwrap();
        let resume = IngestOptions {
            resume: true,
            ..IngestOptions::default()
        };
        let err = ingest(&mut cluster, edges.clone().into_iter(), &resume).unwrap_err();
        assert!(
            matches!(err, GraphStorageError::Unsupported(_)),
            "{}: {err}",
            kind.name()
        );
        let degree_sum: usize = (0..101u64)
            .map(|v| {
                (0..2)
                    .map(|n| cluster.with_backend(n, |db| db.degree(Gid::new(v)).unwrap()))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(degree_sum, 400, "{}: nothing stored twice", kind.name());
    }
}

#[test]
fn searches_work_after_reopen() {
    let dir = tmpdir("search-reopen");
    let edges: Vec<Edge> = (0..30).map(|i| Edge::of(i, i + 1)).collect();
    {
        let mut cluster =
            MssgCluster::new(&dir, 2, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        ingest(&mut cluster, edges.into_iter(), &IngestOptions::default()).unwrap();
        cluster.flush_all().unwrap();
    }
    let cluster = MssgCluster::new(&dir, 2, BackendKind::Grdb, &BackendOptions::default()).unwrap();
    let m = bfs(&cluster, Gid::new(0), Gid::new(30), &BfsOptions::default()).unwrap();
    assert_eq!(m.path_length, Some(30));
}

#[test]
fn corrupted_grdb_meta_detected_on_reopen() {
    let dir = tmpdir("corrupt");
    {
        let mut cluster =
            MssgCluster::new(&dir, 1, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        ingest(
            &mut cluster,
            vec![Edge::of(0, 1)].into_iter(),
            &IngestOptions::default(),
        )
        .unwrap();
        cluster.flush_all().unwrap();
    }
    // Scribble over the metadata file.
    let meta = dir.join("node-0").join("grdb").join("grdb.meta");
    assert!(meta.exists());
    std::fs::write(&meta, b"not a grdb meta file").unwrap();
    let err = MssgCluster::new(&dir, 1, BackendKind::Grdb, &BackendOptions::default());
    assert!(
        err.is_err(),
        "corrupt metadata must be rejected, not silently reset"
    );
}

#[test]
fn stream_log_grows_across_sessions() {
    let dir = tmpdir("stream-sessions");
    for round in 0..3u64 {
        let mut cluster =
            MssgCluster::new(&dir, 1, BackendKind::StreamDb, &BackendOptions::default()).unwrap();
        let edges = vec![Edge::of(round, round + 100)];
        ingest(&mut cluster, edges.into_iter(), &IngestOptions::default()).unwrap();
        cluster.flush_all().unwrap();
        // Directed entries accumulate 2 per session (note: stored_entries
        // counts only what this session knows plus the log, which is the
        // durable truth).
        let log = dir.join("node-0").join("stream.log");
        let len = std::fs::metadata(&log).unwrap().len();
        assert_eq!(
            len,
            (round + 1) * 2 * 16,
            "log must accumulate across sessions"
        );
    }
}

/// Ingest keeps its checkpoint in the cluster, not in the engines: after a
/// clean ingest, and after a kill and a `resume`, every engine's metadata
/// word reads `UNVISITED` — of every stored vertex and of the tagged keys
/// `Gid::tagged(6, 0)` and `Gid::tagged(6, 1)` — while the cluster's
/// watermarks count the stored windows.
#[test]
fn ingest_writes_no_engine_metadata() {
    use mssg::datacutter::{FaultKind, FaultPlan};
    let ring = || (0..100u64).map(|i| Edge::of(i, (i + 1) % 100));
    let window = |resume, fault_plan| IngestOptions {
        window_edges: 10,
        resume,
        fault_plan,
        ..IngestOptions::default()
    };
    let no_metadata = |cluster: &MssgCluster, kind: BackendKind| {
        for n in 0..cluster.nodes() {
            cluster.with_backend(n, |db| {
                let mut vs = db.local_vertices().unwrap();
                vs.extend([Gid::tagged(6, 0), Gid::tagged(6, 1)]);
                for v in vs {
                    assert_eq!(
                        db.get_metadata(v).unwrap(),
                        UNVISITED,
                        "{} {v:?}",
                        kind.name()
                    );
                }
            });
        }
    };
    for kind in BackendKind::ALL {
        let mut cluster = MssgCluster::new(
            &tmpdir(&format!("no-meta-{}", kind.name())),
            2,
            kind,
            &BackendOptions::default(),
        )
        .unwrap();
        ingest(&mut cluster, ring(), &window(false, None)).unwrap();
        no_metadata(&cluster, kind);
        assert_eq!(
            [cluster.ingest_watermark(0), cluster.ingest_watermark(1)],
            [10, 10]
        );

        // Store copy 1 dies at its 4th port operation: three windows are
        // stored, unless the engine batches past them (grDB).
        let mut cluster = MssgCluster::new(
            &tmpdir(&format!("no-meta-kill-{}", kind.name())),
            2,
            kind,
            &BackendOptions::default(),
        )
        .unwrap();
        let kill = FaultPlan::new().inject("store.1", 4, FaultKind::Panic);
        ingest(&mut cluster, ring(), &window(false, Some(kill))).unwrap_err();
        let stored = if kind == BackendKind::Grdb { 0 } else { 3 };
        assert_eq!(cluster.ingest_watermark(1), stored, "{}", kind.name());
        no_metadata(&cluster, kind);
        ingest(&mut cluster, ring(), &window(true, None)).unwrap();
        assert_eq!(cluster.total_entries(), 200, "{}", kind.name());
        no_metadata(&cluster, kind);
        assert_eq!(
            [cluster.ingest_watermark(0), cluster.ingest_watermark(1)],
            [10, 10]
        );
    }
}
