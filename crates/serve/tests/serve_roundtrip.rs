//! In-process server + TCP clients: protocol round trips, cache
//! behaviour, and typed overload rejection.

use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::{BackendKind, BackendOptions, MssgCluster};
use mssg_obs::Telemetry;
use mssg_serve::{
    Client, FailureKind, Outcome, Query, Reject, ResultCacheStats, ServeConfig, Server,
};
use mssg_types::{Edge, Gid};
use std::time::{Duration, Instant};

/// A cluster holding the chain 0–1–…–n, ingested (epoch 1).
fn chain_cluster(tag: &str, n: u64) -> MssgCluster {
    let dir = std::env::temp_dir().join(format!("serve-rt-{tag}-{}", std::process::id()));
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

#[test]
fn every_query_kind_round_trips() {
    let server = Server::start(chain_cluster("kinds", 10), &ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let cases = [
        (
            Query::Bfs {
                source: Gid::new(0),
                dest: Gid::new(4),
            },
            "path_length=4",
        ),
        (
            Query::KHop {
                source: Gid::new(5),
                k: 2,
            },
            "vertices=5",
        ),
        (
            Query::Degree {
                vertex: Gid::new(5),
            },
            "degree=2",
        ),
        (Query::Components, "components=1"),
    ];
    for (query, want) in cases {
        let body = client.request(&query).unwrap().into_answer().unwrap();
        assert_eq!(body.epoch, 1, "{query:?}");
        assert!(!body.cached, "first ask computes: {query:?}");
        assert!(body.result.contains(want), "{query:?} -> {}", body.result);
    }
}

#[test]
fn repeated_queries_hit_the_cache() {
    let server = Server::start(chain_cluster("cache", 10), &ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let q = Query::Bfs {
        source: Gid::new(0),
        dest: Gid::new(7),
    };
    let cold = client.request(&q).unwrap().into_answer().unwrap();
    assert!(!cold.cached);
    let warm = client.request(&q).unwrap().into_answer().unwrap();
    assert!(
        warm.cached,
        "identical (query, epoch) must be served cached"
    );
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.epoch, cold.epoch);
    // A second client shares the same cache.
    let mut other = Client::connect(server.addr()).unwrap();
    let third = other.request(&q).unwrap().into_answer().unwrap();
    assert!(third.cached);
    let stats = server.cache_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 1);
}

/// A hit is answered by its connection's reader: it neither takes the
/// only slot nor waits behind the query that holds it.
#[test]
fn a_cache_hit_does_not_wait_for_a_busy_slot() {
    let config = ServeConfig {
        slots: 1,
        exec_floor_ms: 300,
        ..ServeConfig::default()
    };
    let server = Server::start(chain_cluster("busy-slot", 10), &config).unwrap();
    let q = Query::Degree {
        vertex: Gid::new(5),
    };
    let mut a = Client::connect(server.addr()).unwrap();
    let cold = a.request(&q).unwrap().into_answer().unwrap();
    assert!(!cold.cached);
    // B's distinct query holds the only slot for the 300 ms floor.
    let mut b = Client::connect(server.addr()).unwrap();
    b.send(&Query::Degree {
        vertex: Gid::new(6),
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    let warm = a.request(&q).unwrap().into_answer().unwrap();
    let waited = started.elapsed();
    assert!(warm.cached, "the second ask is a hit");
    assert_eq!(warm.result, cold.result);
    assert!(
        waited < Duration::from_millis(150),
        "a hit waited {waited:?} behind the busy slot"
    );
    let (_, busy) = b.recv().unwrap();
    let busy = busy.into_answer().unwrap();
    assert_eq!((busy.cached, busy.result.as_str()), (false, "degree=2"));
    let stats = server.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        3,
        "one lookup per request: {stats:?}"
    );
}

/// A hit answered on the reader is still a request, a cache hit and a
/// timed service; only executions are queued.
#[test]
fn reader_hits_are_counted_and_timed() {
    let telemetry = Telemetry::enabled();
    let mut cluster = chain_cluster("telemetry", 10);
    cluster.set_telemetry(telemetry.clone());
    let server = Server::start(cluster, &ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let asks = [3u64, 3, 4, 3, 4, 5];
    for v in asks {
        let q = Query::Degree {
            vertex: Gid::new(v),
        };
        client.request(&q).unwrap().into_answer().unwrap();
    }
    let stats = server.cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 3));
    let metrics = &telemetry.metrics;
    assert_eq!(metrics.counter("serve.cache.hits").get(), stats.hits);
    assert_eq!(metrics.counter("serve.cache.misses").get(), stats.misses);
    assert_eq!(metrics.counter("serve.requests").get(), asks.len() as u64);
    assert_eq!(
        metrics.histogram("serve.latency_us").snapshot().count,
        asks.len() as u64,
        "every answered request records its service time"
    );
    assert_eq!(
        metrics.histogram("serve.queue_us").snapshot().count,
        stats.misses,
        "only executions wait in the queue"
    );
}

#[test]
fn burst_past_the_queue_allowance_is_rejected_typed() {
    let config = ServeConfig {
        slots: 1,
        queue_depth: 1,
        cache_capacity: 0,
        retry_after_ms: 5,
        exec_floor_ms: 100,
        ..ServeConfig::default()
    };
    let server = Server::start(chain_cluster("overload", 50), &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Four distinct queries fired back-to-back against one slot and a
    // depth-1 queue (each held >= 100ms by the execution floor): at most
    // one executing plus one queued can be admitted.
    for i in 0..4u64 {
        client
            .send(&Query::Degree {
                vertex: Gid::new(10 + i),
            })
            .unwrap();
    }
    let (mut answered, mut rejected) = (0, 0);
    for _ in 0..4 {
        match client.recv().unwrap().1 {
            Outcome::Answer(body) => {
                assert!(body.result.starts_with("degree="), "{}", body.result);
                answered += 1;
            }
            Outcome::Rejected(Reject::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "hint must be actionable");
                rejected += 1;
            }
            Outcome::Failed(failure) => panic!("a degree lookup failed: {failure:?}"),
        }
    }
    assert!(
        rejected >= 2,
        "4 sent, at most 2 admissible; got {rejected}"
    );
    assert!(answered >= 1, "the admitted head must still be answered");
    // The typed hint is honoured by the retry helper: load drains and
    // the query eventually lands.
    let body = client
        .request_with_retry(
            &Query::Degree {
                vertex: Gid::new(40),
            },
            50,
        )
        .unwrap();
    assert_eq!(body.result, "degree=2");
}

#[test]
fn fair_queueing_interleaves_clients_under_load() {
    let config = ServeConfig {
        slots: 1,
        queue_depth: 8,
        cache_capacity: 0,
        retry_after_ms: 5,
        exec_floor_ms: 30,
        ..ServeConfig::default()
    };
    let server = Server::start(chain_cluster("fair", 50), &config).unwrap();
    // A flooding client queues 6 slow queries; a polite client then asks
    // one. Round-robin dispatch means the polite query waits behind at
    // most two flood entries (one executing, one dispatched), not six.
    let mut flood = Client::connect(server.addr()).unwrap();
    for i in 0..6u64 {
        flood
            .send(&Query::Degree {
                vertex: Gid::new(i),
            })
            .unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(10)); // flood enqueued first
    let mut polite = Client::connect(server.addr()).unwrap();
    let start = std::time::Instant::now();
    let body = polite
        .request(&Query::Degree {
            vertex: Gid::new(40),
        })
        .unwrap()
        .into_answer()
        .unwrap();
    let waited = start.elapsed();
    assert_eq!(body.result, "degree=2");
    assert!(
        waited < std::time::Duration::from_millis(6 * 30),
        "polite client waited out the whole flood: {waited:?}"
    );
    for _ in 0..6 {
        flood.recv().unwrap();
    }
}

#[test]
fn protocol_violations_close_the_connection_not_the_server() {
    use mssg_net::wire::{read_frame, write_frame};
    use mssg_net::{Frame, FrameKind};
    let server = Server::start(chain_cluster("viol", 10), &ServeConfig::default()).unwrap();
    // Speak a valid HELLO, then garbage: the server drops us.
    let mut bad = std::net::TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut bad, &Frame::hello(1, 0, 0, 0)).unwrap();
    read_frame(&mut bad).unwrap().expect("hello reply");
    let garbage = Frame::serve(FrameKind::Request, 9, &[0xFF, 0xEE]).unwrap();
    write_frame(&mut bad, &garbage).unwrap();
    assert!(
        read_frame(&mut bad).unwrap().is_none(),
        "server should close on an undecodable query"
    );
    // A well-behaved client is unaffected.
    let mut good = Client::connect(server.addr()).unwrap();
    let body = good
        .request(&Query::Degree {
            vertex: Gid::new(5),
        })
        .unwrap()
        .into_answer()
        .unwrap();
    assert_eq!(body.result, "degree=2");
}

/// An execution that fails reaches its client as a typed failure, is
/// never cached, and leaves the worker serving. The failure is a grDB
/// block file truncated under a cold block cache, so every read of it
/// fails the same way.
#[test]
fn a_failed_execution_is_a_typed_failure_and_is_not_cached() {
    let dir = std::env::temp_dir().join(format!("serve-rt-failed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || MssgCluster::new(&dir, 1, BackendKind::Grdb, &BackendOptions::default());
    {
        let mut c = open().unwrap();
        ingest(
            &mut c,
            (0..10).map(|i| Edge::of(i, i + 1)),
            &IngestOptions::default(),
        )
        .unwrap();
        c.flush_all().unwrap();
    }
    // Reopened, the cluster has read no block yet.
    let cluster = open().unwrap();
    let level0 = dir.join("node-0").join("grdb").join("level0.0000");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&level0)
        .unwrap()
        .set_len(0)
        .unwrap();
    let config = ServeConfig {
        slots: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(cluster, &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let q = Query::Degree {
        vertex: Gid::new(5),
    };
    for ask in 1..=2 {
        match client.request(&q).unwrap() {
            Outcome::Failed(failure) => {
                assert_eq!(failure.kind, FailureKind::Storage, "ask {ask}: {failure:?}")
            }
            other => panic!("ask {ask}: a truncated block file answered {other:?}"),
        }
        // Each ask misses and executes: the failure was not cached.
        assert_eq!(
            server.cache_stats(),
            ResultCacheStats {
                hits: 0,
                misses: ask,
                invalidations: 0
            }
        );
    }
    // The one worker lives on: a query that reads no block is answered.
    let body = client
        .request(&Query::KHop {
            source: Gid::new(5),
            k: 0,
        })
        .unwrap()
        .into_answer()
        .unwrap();
    assert_eq!(body.result, "vertices=1 edges_scanned=0");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
