//! The serving subsystem's snapshot contract: a query admitted at epoch
//! N answers from epoch N even while ingestion is concurrently advancing
//! the graph to N+1 — and the result cache never leaks epoch-N answers
//! into epoch N+1.

use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::{BackendKind, BackendOptions, MssgCluster};
use mssg_serve::{Client, Outcome, Query, Reject, ServeConfig, Server};
use mssg_types::{Edge, Gid, GraphStorageError};
use std::time::{Duration, Instant};

fn chain_cluster(tag: &str, n: u64) -> MssgCluster {
    let dir = std::env::temp_dir().join(format!("serve-ep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c =
        MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
    ingest(
        &mut c,
        (0..n).map(|i| Edge::of(i, i + 1)),
        &IngestOptions::default(),
    )
    .unwrap();
    c
}

/// The acceptance test for the epoch manager: an admitted query returns
/// results identical to its admission-time snapshot, before and after a
/// concurrent ingestion advances the graph from epoch N to N+1.
#[test]
fn admitted_query_is_isolated_from_concurrent_ingestion() {
    let config = ServeConfig {
        cache_capacity: 0, // isolate the snapshot property from caching
        exec_floor_ms: 400,
        ..ServeConfig::default()
    };
    let server = Server::start(chain_cluster("isolate", 10), &config).unwrap();
    assert_eq!(server.epoch(), 1);

    // The reference answer at epoch 1, before any concurrent ingestion.
    let mut client = Client::connect(server.addr()).unwrap();
    let q = Query::Degree {
        vertex: Gid::new(5),
    };
    let before = client.request(&q).unwrap().into_answer().unwrap();
    assert_eq!((before.epoch, before.result.as_str()), (1, "degree=2"));

    // Admit the same query again; the execution floor keeps its epoch
    // pin held for ~400ms, giving the ingestion below a wide window to
    // arrive *while the query is in flight*.
    let addr = server.addr();
    let q2 = q.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request(&q2).unwrap().into_answer().unwrap()
    });
    // Wait for the query's pin to actually be held, not a wall-clock
    // guess: once pinned, its snapshot is immune to what follows.
    let mgr = server.epoch_manager();
    let deadline = Instant::now() + Duration::from_secs(10);
    while mgr.pinned() == 0 {
        assert!(Instant::now() < deadline, "query never pinned");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Concurrent ingestion: two new edges at vertex 5. The epoch update
    // gate must drain the in-flight pin before the write applies.
    let started = Instant::now();
    server
        .ingest(
            vec![Edge::of(5, 100), Edge::of(5, 101)].into_iter(),
            &IngestOptions::default(),
        )
        .unwrap();
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "ingestion should have waited for the pinned query, returned in {:?}",
        started.elapsed()
    );
    assert_eq!(server.epoch(), 2, "checkpoint boundary advanced the epoch");

    // The admitted query saw epoch 1 — identical to the pre-ingestion
    // answer, untouched by the concurrent advance to epoch 2.
    let during = inflight.join().unwrap();
    assert_eq!((during.epoch, during.result.as_str()), (1, "degree=2"));

    // A *new* query (admitted after the advance) sees the new graph.
    let after = client.request(&q).unwrap().into_answer().unwrap();
    assert_eq!((after.epoch, after.result.as_str()), (2, "degree=4"));
}

/// Epoch advance invalidates the result cache: the same query re-asked
/// after ingestion recomputes (fresh epoch stamp, fresh answer) instead
/// of replaying the stale epoch's cached result.
#[test]
fn cache_is_invalidated_by_epoch_advance() {
    let server = Server::start(chain_cluster("invalidate", 10), &ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let q = Query::Degree {
        vertex: Gid::new(5),
    };
    let cold = client.request(&q).unwrap().into_answer().unwrap();
    let warm = client.request(&q).unwrap().into_answer().unwrap();
    assert!(!cold.cached && warm.cached);
    assert_eq!(warm.epoch, 1);

    server
        .ingest(
            vec![Edge::of(5, 100)].into_iter(),
            &IngestOptions::default(),
        )
        .unwrap();

    let fresh = client.request(&q).unwrap().into_answer().unwrap();
    assert!(
        !fresh.cached,
        "epoch 2 must not be served epoch 1's cached answer"
    );
    assert_eq!(fresh.epoch, 2);
    assert_eq!(fresh.result, "degree=3");
    let rewarm = client.request(&q).unwrap().into_answer().unwrap();
    assert!(rewarm.cached, "the epoch-2 answer is cacheable in turn");
    assert_eq!(rewarm.result, "degree=3");
    assert_eq!(server.cache_stats().invalidations, 1);
}

/// Live feeds are different streams into one cluster: each one's windows
/// count from 0 again and must all be stored, whatever watermark the
/// previous feed left on the nodes — on a per-window engine and on a
/// batching one, with one and with racing front-ends.
#[test]
fn back_to_back_live_feeds_are_stored_in_full() {
    for (name, kind) in [
        ("hashmap", BackendKind::HashMap),
        ("grdb", BackendKind::Grdb),
    ] {
        for front_ends in [1, 3] {
            let dir = std::env::temp_dir().join(format!(
                "serve-ep-feeds-{name}-{front_ends}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cluster = MssgCluster::new(&dir, 2, kind, &BackendOptions::default()).unwrap();
            let server = Server::start(cluster, &ServeConfig::default()).unwrap();
            let opts = IngestOptions {
                front_ends,
                window_edges: 4,
                ..Default::default()
            };
            // Vertex 0 gains 40 neighbours from the first feed (10
            // windows), then 20 more from the second (5 windows).
            let feed = |range: std::ops::Range<u64>| range.map(|i| Edge::of(0, i));
            server.ingest(feed(1..41), &opts).unwrap();
            server.ingest(feed(41..61), &opts).unwrap();
            let mut client = Client::connect(server.addr()).unwrap();
            let q = Query::Degree {
                vertex: Gid::new(0),
            };
            let answer = client.request(&q).unwrap().into_answer().unwrap();
            assert_eq!(
                answer.result, "degree=60",
                "{name}, {front_ends} front-end(s)"
            );
        }
    }
}

/// Regression: drop the client while its query is executing (the epoch
/// pin is held across the execution floor) and prove `begin_update`
/// still completes — the pin is released by the worker finishing
/// `execute`, not by anything the client does, so a dead connection can
/// never block ingestion forever.
#[test]
fn dropped_client_mid_request_cannot_block_begin_update() {
    let config = ServeConfig {
        slots: 2,
        cache_capacity: 0,
        // Long enough that the disconnect below lands mid-execution.
        exec_floor_ms: 400,
        ..ServeConfig::default()
    };
    let server = Server::start(chain_cluster("drop", 20), &config).unwrap();
    let mgr = server.epoch_manager();

    let mut client = Client::connect(server.addr()).unwrap();
    client
        .send(&Query::Bfs {
            source: Gid::new(0),
            dest: Gid::new(19),
        })
        .unwrap();
    // Wait for the worker to pick the job up and take its pin, then
    // vanish without ever reading the response.
    let deadline = Instant::now() + Duration::from_secs(10);
    while mgr.pinned() == 0 {
        assert!(Instant::now() < deadline, "query never pinned");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(client);

    // The gate must open once the in-flight execution finishes; the dead
    // connection must not matter. Bound the wait so a regression is a
    // typed failure, not a hung test.
    let started = Instant::now();
    let update = mgr
        .begin_update(Duration::from_secs(10))
        .expect("a dropped client must never leak its epoch pin");
    drop(update);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "gate opened only at the deadline"
    );
    assert_eq!(mgr.pinned(), 0);
}

/// A burst sent while an update holds the epoch gate is still answered
/// or rejected at once, not left in the socket: the reader's cache
/// lookup takes no pin, so hits are answered (at the epoch their entry
/// was computed at) and misses queue up to `queue_depth` or are refused
/// typed, while the worker that took the first miss waits on the gate.
#[test]
fn burst_during_a_held_update_gate_is_answered_or_rejected() {
    let config = ServeConfig {
        slots: 1,
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(chain_cluster("gate-burst", 20), &config).unwrap();
    let mgr = server.epoch_manager();
    let mut client = Client::connect_with_timeout(server.addr(), Duration::from_secs(3)).unwrap();
    let hot = Query::Degree {
        vertex: Gid::new(5),
    };
    let cold = client.request(&hot).unwrap().into_answer().unwrap();
    assert!(!cold.cached);

    let update = mgr.begin_update(Duration::from_secs(10)).unwrap();
    let mut hits = Vec::new();
    for _ in 0..3 {
        hits.push(client.send(&hot).unwrap());
    }
    let misses: Vec<u32> = (10..16)
        .map(|v| {
            client
                .send(&Query::Degree {
                    vertex: Gid::new(v),
                })
                .unwrap()
        })
        .collect();
    // At most one miss is taken by the worker and two are queued, so at
    // least three are rejected: nine requests, at least six frames back
    // before the gate opens. A reader stuck on the gate times out here.
    let mut replies = Vec::new();
    for _ in 0..6 {
        replies.push(client.recv().expect("a reply while the gate is held"));
    }
    drop(update);
    while replies.len() < hits.len() + misses.len() {
        replies.push(client.recv().unwrap());
    }

    let mut answered = Vec::new();
    let mut rejected = Vec::new();
    for (id, outcome) in replies {
        match outcome {
            Outcome::Answer(body) => answered.push((id, body)),
            Outcome::Rejected(Reject::Overloaded { .. }) => rejected.push(id),
            Outcome::Failed(failure) => panic!("request {id} failed: {failure:?}"),
        }
    }
    assert!(rejected.len() >= 3 && rejected.iter().all(|id| misses.contains(id)));
    for id in &hits {
        let (_, body) = answered.iter().find(|(got, _)| got == id).unwrap();
        assert!(body.cached, "request {id} should have hit");
        assert_eq!((body.epoch, body.result.as_str()), (1, "degree=2"));
    }
    for (id, body) in &answered {
        assert!(hits.contains(id) || (misses.contains(id) && !body.cached));
    }
}

/// The server-level guard for the same class of bug: even if a pin
/// *does* stay held (simulated by holding one across `ingest`), the
/// configured update gate turns the would-be-forever wait into a typed
/// `Timeout`, and a later ingest succeeds once the pin is gone.
#[test]
fn ingest_gate_times_out_typed_on_a_held_pin_then_recovers() {
    let config = ServeConfig {
        update_gate_ms: 200,
        ..ServeConfig::default()
    };
    let server = Server::start(chain_cluster("leak", 10), &config).unwrap();
    let mgr = server.epoch_manager();
    let leaked = mgr.pin();

    let outcome = server.ingest(std::iter::once(Edge::of(0, 40)), &IngestOptions::default());
    assert!(
        matches!(outcome, Err(GraphStorageError::Timeout(_))),
        "gate must fail typed behind a held pin, got {outcome:?}"
    );
    assert_eq!(
        server.epoch(),
        1,
        "failed ingest must not advance the epoch"
    );

    drop(leaked);
    server
        .ingest(std::iter::once(Edge::of(0, 41)), &IngestOptions::default())
        .expect("gate rolled back; a drained update proceeds");
    assert_eq!(server.epoch(), 2, "seed ingest plus ours");
}

/// Both serving deadlines are always on: a 0 is refused at start, typed.
#[test]
fn zero_deadlines_are_refused_at_start() {
    for config in [
        ServeConfig {
            update_gate_ms: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            write_timeout_ms: 0,
            ..ServeConfig::default()
        },
    ] {
        let outcome = Server::start(chain_cluster("zero", 3), &config);
        assert!(
            matches!(outcome, Err(GraphStorageError::Unsupported(_))),
            "{config:?}"
        );
    }
}
