//! Property tests for the fault-tolerance layer: under *any* seeded chaos
//! plan, on a per-window engine (HashMap) and on batching ones (grDB), a
//! supervised ingestion either completes with exactly the fault-free
//! stored graph or fails with a typed error — never a deadlock, never a
//! silently wrong graph — and a failed run always converges after a
//! resumed retry.

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

/// Regression: a store copy that panics while its batch spans several
/// windows must hand the batch to its restarted incarnation. (The batch
/// used to live in the incarnation: the run returned `Ok` with 112 of
/// 240 entries.)
#[test]
fn supervised_store_panics_lose_no_absorbed_window() {
    for (name, kind, backend) in backends() {
        let want = fault_free(&format!("panics-want-{name}"), kind, &backend, ring(120));
        let dir = tmpdir(&format!("panics-{name}"));
        let mut cluster = MssgCluster::new(&dir, 2, kind, &backend).unwrap();
        let opts = IngestOptions {
            window_edges: 8,
            max_restarts: 5,
            fault_plan: Some(
                FaultPlan::new()
                    .inject("store.1", 2, FaultKind::Panic)
                    .inject("store.0", 8, FaultKind::Panic)
                    .inject("store.1", 11, FaultKind::Panic),
            ),
            stream_timeout: Duration::from_secs(30),
            ..Default::default()
        };
        let report = ingest(&mut cluster, ring(120).into_iter(), &opts).unwrap();
        assert_eq!(
            report.telemetry.restarts.len(),
            3,
            "{name}: all three fired"
        );
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
                max_restarts: 8,
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
                // Survived (faults absorbed by supervision or never
                // applicable): the stored graph must be *exactly* right.
                Ok(report) => {
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
