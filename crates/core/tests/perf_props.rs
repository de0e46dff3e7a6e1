//! Property tests for the ingest hot path (DESIGN.md §10): the store
//! filters apply windows in ascending id order and batch them to the
//! backend's block size, so under any seeded edge stream the stored graph
//! must be **byte-identical** (same per-vertex adjacency order) for every
//! front-end count — even when the run is killed mid-flight and resumed —
//! and a second stream into the same cluster must land in full.

mod common;

use common::{backends, stored_graph, tmpdir};
use datacutter::{FaultKind, FaultPlan};
use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::MssgCluster;
use mssg_types::Edge;
use proptest::prelude::*;

/// A seeded stream with repeated sources, so per-vertex adjacency order
/// spans many windows and any reordering shows up in the stored graph.
fn chaos_stream(seed: u64, edges: usize) -> Vec<Edge> {
    let mut x = seed | 1;
    (0..edges)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Edge::of(x % 23, (x >> 17) % 200)
        })
        .collect()
}

fn options(front_ends: usize) -> IngestOptions {
    IngestOptions {
        front_ends,
        window_edges: 16,
        ..Default::default()
    }
}

proptest! {
    // Each case runs several full filter graphs; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Parallel front-ends change *when* windows reach the stores, never
    /// *what* is stored — fault-free, and when a store copy is killed
    /// mid-batch (its unflushed windows stay unmarked) and the same stream
    /// is replayed with `resume`.
    #[test]
    fn stored_graph_is_independent_of_front_ends(seed in any::<u64>(), op in 2u64..8) {
        let stream = || chaos_stream(seed, 300).into_iter();
        for (name, kind, opts) in backends() {
            let cluster = |tag: &str| {
                let dir = tmpdir(&format!("{tag}-{name}-{seed:x}"));
                MssgCluster::new(&dir, 3, kind, &opts).unwrap()
            };
            let mut single = cluster("single");
            ingest(&mut single, stream(), &options(1)).unwrap();
            let want = stored_graph(&single);

            let mut parallel = cluster("parallel");
            ingest(&mut parallel, stream(), &options(3)).unwrap();
            prop_assert_eq!(
                stored_graph(&parallel), want,
                "3 front-ends diverged on {} (seed {:x})", name, seed
            );

            for front_ends in [1, 3] {
                let mut killed = cluster(&format!("killed{front_ends}"));
                let chaos = IngestOptions {
                    fault_plan: Some(FaultPlan::new().inject("store", Some(1), op, FaultKind::Panic)),
                    ..options(front_ends)
                };
                ingest(&mut killed, stream(), &chaos).unwrap_err();
                let retry = IngestOptions { resume: true, ..options(front_ends) };
                ingest(&mut killed, stream(), &retry).unwrap();
                prop_assert_eq!(
                    stored_graph(&killed), want,
                    "resume with {} front-ends diverged on {} (seed {:x})", front_ends, name, seed
                );
            }
        }
    }
}

/// Two different streams ingested back to back into one cluster both land
/// in full: a fresh stream's windows count from 0 again, whatever
/// watermark the previous stream left on the nodes.
#[test]
fn second_stream_into_the_same_cluster_is_stored_in_full() {
    for (name, kind, opts) in backends() {
        for front_ends in [1, 3] {
            let dir = tmpdir(&format!("two-streams-{name}-{front_ends}"));
            let mut cluster = MssgCluster::new(&dir, 3, kind, &opts).unwrap();
            ingest(
                &mut cluster,
                chaos_stream(7, 200).into_iter(),
                &options(front_ends),
            )
            .unwrap();
            ingest(
                &mut cluster,
                chaos_stream(11, 100).into_iter(),
                &options(front_ends),
            )
            .unwrap();
            assert_eq!(
                cluster.total_entries(),
                2 * (200 + 100),
                "{name}, {front_ends} front-end(s)"
            );
        }
    }
}
