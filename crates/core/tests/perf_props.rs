//! Property tests for the ingest hot path (DESIGN.md §10): entries are
//! placed by the cluster's one placement, from their edge and stream
//! position, and the store filters apply windows in ascending id order and
//! batch them to the backend's block size, so under any seeded edge stream
//! the stored graph must be **byte-identical** (same per-vertex adjacency
//! order) for every front-end count the declustering allows — even when
//! the run is killed mid-flight and resumed — and a second stream into the
//! same cluster must land in full, each vertex's list on one node.

mod common;

use common::{backends, stored_graph, tmpdir};
use datacutter::{FaultKind, FaultPlan};
use graphdb::GraphDbExt;
use mssg_core::bfs::{bfs, BfsOptions};
use mssg_core::ingest::{ingest, DeclusterKind, IngestOptions};
use mssg_core::{BackendKind, BackendOptions, MssgCluster};
use mssg_types::{Edge, Gid, GraphStorageError};
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

fn options(declustering: DeclusterKind, front_ends: usize) -> IngestOptions {
    IngestOptions {
        front_ends,
        window_edges: 16,
        declustering,
        ..Default::default()
    }
}

fn kinds() -> impl Strategy<Value = DeclusterKind> {
    prop_oneof![
        Just(DeclusterKind::VertexHash),
        Just(DeclusterKind::VertexRoundRobin),
        Just(DeclusterKind::EdgeRoundRobin),
    ]
}

proptest! {
    // Each case runs several full filter graphs; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Parallel front-ends change *when* windows reach the stores, never
    /// *what* is stored or where — fault-free, and when a store copy is
    /// killed mid-batch (its unflushed windows stay above the watermark) and the same
    /// stream is replayed with `resume`. `VertexRoundRobin` places vertices
    /// in stream order and refuses more than one front-end.
    #[test]
    fn stored_graph_is_independent_of_front_ends(
        seed in any::<u64>(),
        op in 2u64..8,
        kind in kinds(),
    ) {
        let stream = || chaos_stream(seed, 300).into_iter();
        let front_ends: &[usize] = match kind {
            DeclusterKind::VertexRoundRobin => &[1],
            _ => &[1, 3],
        };
        for (name, backend, opts) in backends() {
            let cluster = |tag: &str| {
                let dir = tmpdir(&format!("{tag}-{name}-{kind:?}-{seed:x}"));
                MssgCluster::new(&dir, 3, backend, &opts).unwrap()
            };
            let mut single = cluster("single");
            ingest(&mut single, stream(), &options(kind, 1)).unwrap();
            let want = stored_graph(&single);

            let mut parallel = cluster("parallel");
            match ingest(&mut parallel, stream(), &options(kind, 3)) {
                Ok(_) => prop_assert_eq!(
                    stored_graph(&parallel), want,
                    "3 front-ends diverged under {:?} on {} (seed {:x})", kind, name, seed
                ),
                Err(err) => {
                    prop_assert!(
                        kind == DeclusterKind::VertexRoundRobin
                            && matches!(err, GraphStorageError::Unsupported(_)),
                        "3 front-ends under {:?} on {}: {}", kind, name, err
                    );
                    prop_assert_eq!(parallel.total_entries(), 0);
                }
            }

            for &front_ends in front_ends {
                let mut killed = cluster(&format!("killed{front_ends}"));
                let chaos = IngestOptions {
                    fault_plan: Some(FaultPlan::new().inject("store.1", op, FaultKind::Panic)),
                    ..options(kind, front_ends)
                };
                ingest(&mut killed, stream(), &chaos).unwrap_err();
                let retry = IngestOptions { resume: true, ..options(kind, front_ends) };
                ingest(&mut killed, stream(), &retry).unwrap();
                prop_assert_eq!(
                    stored_graph(&killed), want,
                    "resume with {} front-ends diverged under {:?} on {} (seed {:x})",
                    front_ends, kind, name, seed
                );
            }
        }
    }
}

/// Two different streams ingested back to back into one cluster both land
/// in full: a fresh stream's windows count from 0 again and it resets the
/// watermark the previous stream left on the nodes, so a second stream
/// killed by a store-copy panic resumes from its own progress; and the
/// second stream continues the placement the first one fixed.
#[test]
fn second_stream_into_the_same_cluster_is_stored_in_full() {
    for (name, kind, opts) in backends() {
        for front_ends in [1, 3] {
            for killed in [false, true] {
                let dir = tmpdir(&format!("two-streams-{name}-{front_ends}-{killed}"));
                let mut cluster = MssgCluster::new(&dir, 3, kind, &opts).unwrap();
                let hash = options(DeclusterKind::VertexHash, front_ends);
                ingest(&mut cluster, chaos_stream(7, 200).into_iter(), &hash).unwrap();
                let second = || chaos_stream(11, 100).into_iter();
                if killed {
                    let chaos = IngestOptions {
                        fault_plan: Some(FaultPlan::new().inject("store.1", 4, FaultKind::Panic)),
                        ..hash.clone()
                    };
                    ingest(&mut cluster, second(), &chaos).unwrap_err();
                    let retry = IngestOptions {
                        resume: true,
                        ..hash.clone()
                    };
                    ingest(&mut cluster, second(), &retry).unwrap();
                } else {
                    ingest(&mut cluster, second(), &hash).unwrap();
                }
                assert_eq!(
                    cluster.total_entries(),
                    2 * (200 + 100),
                    "{name}, {front_ends} front-end(s), second stream killed: {killed}"
                );
            }
        }
    }

    // Under `VertexRoundRobin` the second stream extends the first-come
    // map the first one left: vertex i keeps its node, and 100 + i is
    // dealt the next.
    let dir = tmpdir("two-streams-vertex-rr");
    let mut cluster =
        MssgCluster::new(&dir, 4, BackendKind::HashMap, &BackendOptions::default()).unwrap();
    let rr = options(DeclusterKind::VertexRoundRobin, 1);
    let ring = (0..20u64).map(|i| Edge::of(i, (i + 1) % 20));
    ingest(&mut cluster, ring, &rr).unwrap();
    let spokes = (0..20u64).map(|i| Edge::of(i, 100 + i));
    ingest(&mut cluster, spokes, &rr).unwrap();
    assert_eq!(cluster.total_entries(), 2 * (20 + 20));
    for v in (0..20u64).chain(100..120) {
        let holders: Vec<usize> = (0..4)
            .filter(|&node| cluster.with_backend(node, |db| db.degree(Gid::new(v)).unwrap()) > 0)
            .collect();
        let owner = cluster.placement().owner(Gid::new(v)).unwrap();
        assert_eq!(
            holders,
            [owner],
            "vertex {v}'s list sits on its owner alone"
        );
    }
    // 101 – 1 – 2 – 3.
    let found = bfs(&cluster, Gid::new(101), Gid::new(3), &BfsOptions::default()).unwrap();
    assert_eq!(found.path_length, Some(3));

    // Another kind would split what is stored: refused, and nothing moves.
    for other in [DeclusterKind::VertexHash, DeclusterKind::EdgeRoundRobin] {
        let err = ingest(
            &mut cluster,
            std::iter::once(Edge::of(0, 200)),
            &options(other, 1),
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphStorageError::Unsupported(_)),
            "{other:?}: {err}"
        );
        assert_eq!(cluster.total_entries(), 2 * (20 + 20), "{other:?}");
        assert_eq!(cluster.placement().kind(), DeclusterKind::VertexRoundRobin);
    }
}
