//! The serving frontend: a TCP listener that executes queries against a
//! live [`MssgCluster`] under admission control and epoch snapshots.
//!
//! Threading model:
//!
//! - one **accept** thread hands each connection to a per-connection
//!   **reader** thread (handshake, decode, cache lookup, submit/reject).
//!   The reader answers a result-cache hit itself, through the
//!   connection's shared writer: a hit takes no slot and is never queued
//!   or rejected;
//! - `slots` **worker** threads pull admitted misses from the
//!   [`Admission`] controller (round-robin fair across clients), execute
//!   them with [`Query::run`] pinned to the current epoch, cache the
//!   result, and write the response through the connection's shared
//!   writer. An execution that fails or panics is answered with a typed
//!   [`Failure`] frame instead, which is never cached. Slots bound
//!   executions, not requests.
//!
//! Each request is looked up in the cache once, by its reader, and
//! counted there as one hit or one miss; the worker that executes a miss
//! inserts its result without looking again. A disabled cache
//! (`cache_capacity: 0`) sends every request to admission.
//!
//! Lock order (deadlock freedom): a query takes its epoch pin *before*
//! the cluster read lock; ingestion takes the epoch update gate
//! ([`EpochManager::begin_update`]) *before* the cluster write lock.
//! Pins are not held across the write lock and the update gate is not
//! held across read locks, so the two planes can only wait on each
//! other in one direction at a time. A reader's cache lookup takes no
//! pin, so it never waits on the update gate; an execution's pin is not
//! held across the response write.
//!
//! [`EpochManager::begin_update`]: mssg_core::EpochManager::begin_update

use crate::admission::{Admission, ClientId};
use crate::cache::{ResultCache, ResultCacheStats};
use crate::proto::{Failure, FailureKind, Query, Reject, ResponseBody};
use mssg_core::ingest::{ingest, IngestOptions, IngestReport};
use mssg_core::{EpochManager, MssgCluster};
use mssg_net::wire::{read_frame, write_frame};
use mssg_net::{Conn, Frame, FrameKind, Listener};
use mssg_obs::{Counter, Gauge, Histogram, MetricsRegistry, Telemetry};
use mssg_types::{Edge, GraphStorageError, Result};
use parking_lot::RwLock;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Queries executing concurrently (worker threads). A cache hit is
    /// answered by its connection's reader and takes no slot.
    pub slots: usize,
    /// Queued queries allowed per client before typed rejection.
    pub queue_depth: usize,
    /// Result-cache capacity, entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Base backoff hint in `Overloaded` rejections, milliseconds.
    pub retry_after_ms: u32,
    /// Load-shaping floor: an uncached execution takes at least this
    /// long (milliseconds), with its epoch pin held throughout. 0 (the
    /// default) disables it. The smoke tests use the floor to make
    /// overload and snapshot races deterministic instead of timing-
    /// dependent; cache hits are never slowed.
    pub exec_floor_ms: u64,
    /// Per-connection write deadline, milliseconds. A client that stops
    /// reading cannot wedge a worker forever: the blocked response write
    /// fails, the response is dropped, and the slot is freed. Must be
    /// positive.
    pub write_timeout_ms: u64,
    /// Deadline for the epoch update gate during [`Server::ingest`],
    /// milliseconds: if in-flight query pins do not drain in time the
    /// ingest fails with a typed `Timeout` instead of blocking forever
    /// behind a leaked pin. Must be positive.
    pub update_gate_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            slots: 4,
            queue_depth: 16,
            cache_capacity: 1024,
            retry_after_ms: 50,
            exec_floor_ms: 0,
            write_timeout_ms: 10_000,
            update_gate_ms: 30_000,
        }
    }
}

/// One admitted query waiting for (or holding) an execution slot.
struct Job {
    id: u32,
    query: Query,
    /// The request payload, which is `query.encode()` (`Query::decode`
    /// accepts only the canonical encoding): the result-cache key the
    /// reader missed on.
    key: Vec<u8>,
    writer: Arc<Mutex<Box<dyn Conn>>>,
    queued_at: Instant,
}

/// The serving plane's metrics, looked up once at start: a request
/// touches their atomics, never the registry's lock.
struct ServeMetrics {
    requests: Counter,
    overloaded: Counter,
    hits: Counter,
    misses: Counter,
    clients: Gauge,
    inflight: Gauge,
    latency_us: Histogram,
    queue_us: Histogram,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            overloaded: registry.counter("serve.overloaded"),
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            clients: registry.gauge("serve.clients"),
            inflight: registry.gauge("serve.inflight"),
            latency_us: registry.histogram("serve.latency_us"),
            queue_us: registry.histogram("serve.queue_us"),
        }
    }
}

struct Shared {
    cluster: RwLock<MssgCluster>,
    epoch: Arc<EpochManager>,
    cache: Mutex<ResultCache>,
    adm: Admission<Job>,
    telemetry: Telemetry,
    metrics: ServeMetrics,
    exec_floor: Duration,
    write_timeout: Duration,
    update_gate: Duration,
}

/// A running query server. Dropping it shuts the listener and workers
/// down (live client connections are simply closed).
pub struct Server {
    addr: SocketAddr,
    listener: Arc<dyn Listener>,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Takes ownership of `cluster` and starts serving it on
    /// `127.0.0.1:0` (the chosen port is in [`Server::addr`]).
    pub fn start(cluster: MssgCluster, config: &ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(GraphStorageError::Io)?;
        let addr = listener.local_addr().map_err(GraphStorageError::Io)?;
        let mut server = Self::start_on(cluster, config, Arc::new(listener))?;
        server.addr = addr;
        Ok(server)
    }

    /// [`Server::start`] over a caller-supplied accept surface — any
    /// [`Listener`], e.g. the deterministic wire simulator's
    /// `SimNet::listen`. [`Server::addr`] is meaningless for non-TCP
    /// listeners (it reports `127.0.0.1:0`); connect through the same
    /// simulator instead.
    pub fn start_on(
        cluster: MssgCluster,
        config: &ServeConfig,
        listener: Arc<dyn Listener>,
    ) -> Result<Server> {
        if config.write_timeout_ms == 0 || config.update_gate_ms == 0 {
            return Err(GraphStorageError::Unsupported(
                "a serving deadline of 0 ms: write_timeout_ms and update_gate_ms must be positive"
                    .into(),
            ));
        }
        let addr = SocketAddr::from(([127, 0, 0, 1], 0));
        let telemetry = cluster.telemetry().clone();
        let epoch = Arc::clone(cluster.epoch_manager());
        let shared = Arc::new(Shared {
            cluster: RwLock::new(cluster),
            epoch,
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            adm: Admission::new(config.slots, config.queue_depth, config.retry_after_ms),
            metrics: ServeMetrics::new(&telemetry.metrics),
            telemetry,
            exec_floor: Duration::from_millis(config.exec_floor_ms),
            write_timeout: Duration::from_millis(config.write_timeout_ms),
            update_gate: Duration::from_millis(config.update_gate_ms),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..config.slots.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(GraphStorageError::Io)
            })
            .collect::<Result<Vec<_>>>()?;
        let accept = {
            let listener = Arc::clone(&listener);
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&*listener, &shared, &shutdown))
                .map_err(GraphStorageError::Io)?
        };
        Ok(Server {
            addr,
            listener,
            shared,
            shutdown,
            accept: Some(accept),
            workers,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's telemetry bundle (shared with the cluster).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Result-cache tallies so far.
    pub fn cache_stats(&self) -> ResultCacheStats {
        lock(&self.shared.cache).stats()
    }

    /// The epoch queries are currently being pinned to.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.current()
    }

    /// The epoch manager shared with the served cluster, for embedders
    /// (and tests) that coordinate their own pins with the server's.
    pub fn epoch_manager(&self) -> Arc<EpochManager> {
        Arc::clone(&self.shared.epoch)
    }

    /// Streams `edges` into the served graph *while serving*. The epoch
    /// update gate drains in-flight pins first (admitted queries keep
    /// their snapshot), blocks new pins for the duration, and the
    /// completed ingestion bumps the epoch — invalidating the result
    /// cache — before queries resume on the new graph.
    pub fn ingest(
        &self,
        edges: impl Iterator<Item = Edge> + Send + 'static,
        options: &IngestOptions,
    ) -> Result<IngestReport> {
        let update = self.shared.epoch.begin_update(self.shared.update_gate)?;
        let mut cluster = self.shared.cluster.write();
        let report = ingest(&mut cluster, edges, options)?;
        // Eagerly drop the now-stale cached results; lazily they would
        // also miss (the cache verifies epochs), but the memory is dead.
        lock(&self.shared.cache).advance(self.shared.epoch.current());
        drop(cluster);
        drop(update);
        Ok(report)
    }

    /// Stops accepting, drains queued queries, and joins the workers.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop so it can observe the stop flag.
        self.listener.unblock();
        self.shared.adm.close();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn accept_loop(listener: &dyn Listener, shared: &Arc<Shared>, shutdown: &Arc<AtomicBool>) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept_conn() {
            Ok(stream) => stream,
            Err(_) if shutdown.load(Ordering::SeqCst) => break,
            Err(_) => {
                // Transient accept failure; don't spin.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        let shared = Arc::clone(shared);
        // Readers detach: they exit when their client disconnects (or at
        // process exit) and hold nothing but the shared Arc.
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                let _ = serve_connection(&shared, stream);
            });
    }
}

/// Handshake + read loop for one client connection. Returns (closing the
/// connection) on EOF, an I/O error, or a protocol violation.
fn serve_connection(shared: &Arc<Shared>, mut stream: Box<dyn Conn>) -> Result<()> {
    // Same HELLO the transport plane speaks: magic and version are
    // checked, so a client from a different wire version is refused
    // before any query bytes are interpreted.
    let hello = read_frame(&mut stream)?
        .ok_or_else(|| GraphStorageError::Net("client closed before HELLO".into()))?;
    hello.parse_hello()?;
    write_frame(&mut stream, &Frame::hello(0, 0, 0, 0)).map_err(GraphStorageError::Io)?;
    let write_half = stream.try_clone_conn().map_err(GraphStorageError::Io)?;
    // A dead or wedged client must not hold a worker (or its own reader)
    // hostage on a blocked response write; epoch pins are already
    // released before any write, but the slot matters too.
    let _ = write_half.set_write_deadline(Some(shared.write_timeout));
    let writer = Arc::new(Mutex::new(write_half));
    let client = shared.adm.register();
    shared.metrics.clients.set(shared.adm.clients() as i64);
    // Buffered after the handshake: a request's length prefix, header
    // and payload usually arrive together and take one read.
    let outcome = read_requests(shared, &mut BufReader::new(stream), client, &writer);
    shared.adm.deregister(client);
    shared.metrics.clients.set(shared.adm.clients() as i64);
    outcome
}

fn read_requests(
    shared: &Arc<Shared>,
    stream: &mut impl Read,
    client: ClientId,
    writer: &Arc<Mutex<Box<dyn Conn>>>,
) -> Result<()> {
    let metrics = &shared.metrics;
    while let Some(frame) = read_frame(stream)? {
        if frame.kind != FrameKind::Request {
            return Err(GraphStorageError::Net(format!(
                "client sent a {:?} frame on a serving connection",
                frame.kind
            )));
        }
        let query = Query::decode(&frame.payload)?;
        metrics.requests.inc();
        let started = Instant::now();
        if let Some(body) = lookup(shared, &frame.payload) {
            metrics
                .latency_us
                .record(started.elapsed().as_micros() as u64);
            respond(writer, FrameKind::Response, frame.stream, &body.encode())?;
            continue;
        }
        let job = Job {
            id: frame.stream,
            query,
            key: frame.payload,
            writer: Arc::clone(writer),
            queued_at: Instant::now(),
        };
        if let Err(over) = shared.adm.submit(client, job) {
            metrics.overloaded.inc();
            let reject = Reject::Overloaded {
                retry_after_ms: over.retry_after_ms,
            };
            respond(writer, FrameKind::Reject, frame.stream, &reject.encode())?;
        }
    }
    Ok(())
}

/// Writes one serving frame through a connection's shared writer.
fn respond(writer: &Mutex<Box<dyn Conn>>, kind: FrameKind, id: u32, payload: &[u8]) -> Result<()> {
    let frame = Frame::serve(kind, id, payload)?;
    write_frame(&mut *lock(writer), &frame).map_err(GraphStorageError::Io)
}

/// The cached answer to `key` at the current epoch, counted as one hit
/// or one miss. It takes no epoch pin, so a lookup never waits out an
/// ingest: the cache holds only entries computed at its own epoch and
/// [`Server::ingest`] drains it after the bump, so a hit while an update
/// is in progress is still a correct answer for the epoch it is stamped
/// with, and a lookup that races the bump misses and goes to a worker,
/// which pins.
fn lookup(shared: &Shared, key: &[u8]) -> Option<ResponseBody> {
    let epoch = shared.epoch.current();
    let result = lock(&shared.cache).get(epoch, key).map(str::to_owned);
    let Some(result) = result else {
        shared.metrics.misses.inc();
        return None;
    };
    shared.metrics.hits.inc();
    Some(ResponseBody {
        epoch,
        cached: true,
        result,
    })
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((job, _slot)) = shared.adm.next() {
        let metrics = &shared.metrics;
        metrics
            .queue_us
            .record(job.queued_at.elapsed().as_micros() as u64);
        metrics.inflight.set(shared.adm.inflight() as i64);
        let started = Instant::now();
        // A panicking analysis must not kill the worker (the pool would
        // shrink until admission deadlocks); it answers a typed failure
        // instead. The epoch pin is dropped during unwind.
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(shared, &job.query, &job.key)
        }))
        .unwrap_or_else(|panic| {
            Err(Failure {
                kind: FailureKind::Panicked,
                message: format!("query panicked: {}", panic_label(&panic)),
            })
        });
        metrics
            .latency_us
            .record(started.elapsed().as_micros() as u64);
        // A client that vanished mid-query just loses its response.
        let _ = match reply {
            Ok(body) => respond(&job.writer, FrameKind::Response, job.id, &body.encode()),
            Err(failure) => respond(&job.writer, FrameKind::Failed, job.id, &failure.encode()),
        };
    }
}

/// Runs a query the cache missed, pinned to the current epoch, and
/// caches its result under `key` at that epoch. The reader has already
/// counted the miss, so there is no second lookup: if an ingest moved
/// the epoch on since, the query simply runs on the newer graph. A
/// failed execution answers its [`Failure`] and caches nothing.
fn execute(shared: &Arc<Shared>, query: &Query, key: &[u8]) -> Result<ResponseBody, Failure> {
    let _span = shared.telemetry.tracer.span("serve.execute");
    // Pin first, then read-lock: the graph cannot advance past a
    // checkpoint boundary until this pin drops, so the cache key and
    // everything the analysis reads agree on the epoch.
    let pin = shared.epoch.pin();
    let epoch = pin.epoch();
    if !shared.exec_floor.is_zero() {
        std::thread::sleep(shared.exec_floor); // pin stays held: see ServeConfig
    }
    let result = query
        .run(&shared.cluster.read())
        .map_err(|e| Failure::of(&e))?;
    lock(&shared.cache).insert(epoch, key, &result);
    Ok(ResponseBody {
        epoch,
        cached: false,
        result,
    })
}

fn panic_label(panic: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}
