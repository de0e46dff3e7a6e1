//! Property tests for the recovery path: under *any* seeded chaos plan,
//! on a per-window engine (HashMap) and on batching ones (grDB), an
//! ingestion either completes with exactly the fault-free stored graph or
//! fails with a typed error — never a deadlock, never a silently wrong
//! graph — and a failed run always converges after a resumed retry.

mod common;

use common::{backends, stored_graph, tmpdir};
use datacutter::{FaultKind, FaultPlan};
use mssg_core::backend::{BackendKind, BackendOptions};
use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::MssgCluster;
use mssg_types::{Edge, Gid};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn ring(n: u64) -> Vec<Edge> {
    (0..n).map(|i| Edge::of(i, (i + 1) % n)).collect()
}

/// The graph a fault-free ingestion of `edges` stores.
fn fault_free(
    tag: &str,
    kind: BackendKind,
    opts: &BackendOptions,
    edges: Vec<Edge>,
) -> Vec<Vec<(Gid, Vec<Gid>)>> {
    let mut cluster = MssgCluster::new(&tmpdir(tag), 2, kind, opts).unwrap();
    let plain = IngestOptions {
        window_edges: 8,
        ..Default::default()
    };
    ingest(&mut cluster, edges.into_iter(), &plain).unwrap();
    stored_graph(&cluster)
}

/// A store copy that dies while its batch spans several windows leaves
/// the watermark below every unflushed window, so kill + resume, repeated,
/// converges on the fault-free graph.
#[test]
fn killed_store_copies_resume_to_the_fault_free_graph() {
    use mssg_types::GraphStorageError as E;
    for (name, kind, backend) in backends() {
        let want = fault_free(&format!("panics-want-{name}"), kind, &backend, ring(120));
        let dir = tmpdir(&format!("panics-{name}"));
        let mut cluster = MssgCluster::new(&dir, 2, kind, &backend).unwrap();
        let mut resume = false;
        for (site, at) in [("store.1", 2), ("store.0", 8), ("store.1", 11)] {
            let opts = IngestOptions {
                window_edges: 8,
                resume,
                fault_plan: Some(FaultPlan::new().inject(site, at, FaultKind::Panic)),
                stream_timeout: Duration::from_secs(30),
                ..Default::default()
            };
            match ingest(&mut cluster, ring(120).into_iter(), &opts) {
                // A resume may hand the copy too few windows to reach `at`.
                Ok(report) => assert!(report.telemetry.faults.is_empty(), "{name}"),
                Err(E::FilterFailed(m)) => assert!(m.contains(site), "{name}: {m}"),
                Err(other) => panic!("{name}: expected FilterFailed, got {other}"),
            }
            resume = true;
        }
        let clean = IngestOptions {
            window_edges: 8,
            resume: true,
            ..Default::default()
        };
        let report = ingest(&mut cluster, ring(120).into_iter(), &clean).unwrap();
        assert_eq!(report.edges, 120, "{name}");
        assert_eq!(cluster.total_entries(), 240, "{name}");
        assert_eq!(stored_graph(&cluster), want, "{name}");
    }
}

proptest! {
    // Each case spins up a real filter graph; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// The headline guarantee: chaos in, either the exact fault-free
    /// result or a typed error out — bounded by the stream timeout, so a
    /// dead filter can never hang the run. Half the ingest and store
    /// copies fault once in their first 24 port operations; the source
    /// is immune.
    #[test]
    fn chaos_completes_exactly_or_fails_typed(seed in any::<u64>()) {
        const EDGES: u64 = 80;
        const ENTRIES: u64 = 2 * EDGES; // each undirected edge stored twice
        for (name, kind, backend) in backends() {
            let want = fault_free(&format!("want-{name}-{seed:x}"), kind, &backend, ring(EDGES));
            let dir = tmpdir(&format!("{name}-{seed:x}"));
            let mut cluster = MssgCluster::new(&dir, 2, kind, &backend).unwrap();
            let opts = IngestOptions {
                front_ends: 2,
                window_edges: 8,
                stream_timeout: Duration::from_secs(20),
                fault_plan: Some(FaultPlan::chaos(seed, 50, 24).immune("source")),
                ..Default::default()
            };
            let start = Instant::now();
            let outcome = ingest(&mut cluster, ring(EDGES).into_iter(), &opts);
            prop_assert!(
                start.elapsed() < Duration::from_secs(60),
                "run must terminate promptly, took {:?}", start.elapsed()
            );
            match outcome {
                // Survived: only stalls fired (a panic or a send error
                // fails the run), and the stored graph must be *exactly*
                // right.
                Ok(report) => {
                    prop_assert!(
                        report.telemetry.faults.iter().all(|e| matches!(e.kind, FaultKind::Stall(_))),
                        "a run survived {:?}", report.telemetry.faults
                    );
                    prop_assert_eq!(report.edges, EDGES);
                    prop_assert_eq!(cluster.total_entries(), ENTRIES);
                }
                // Died: must be a typed error, and the checkpoint must make a
                // resumed replay of the same stream converge bit-for-bit.
                Err(err) => {
                    use mssg_types::GraphStorageError as E;
                    prop_assert!(
                        matches!(err, E::FilterFailed(_) | E::Fault(_) | E::Timeout(_) | E::Unsupported(_)),
                        "untyped failure: {}", err
                    );
                    let retry = IngestOptions {
                        front_ends: 2,
                        window_edges: 8,
                        resume: true,
                        ..Default::default()
                    };
                    let report = ingest(&mut cluster, ring(EDGES).into_iter(), &retry).unwrap();
                    prop_assert_eq!(report.edges, EDGES);
                    prop_assert_eq!(cluster.total_entries(), ENTRIES, "resume converged");
                }
            }
            prop_assert_eq!(stored_graph(&cluster), want, "{} (seed {:x})", name, seed);
        }
    }
}
