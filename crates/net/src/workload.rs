//! A self-contained distributed ingest → BFS workload.
//!
//! `mssg-core`'s analyses run against shared-memory storage backends, so
//! they cannot cross a process boundary yet. This module keeps every
//! vertex in plain per-shard memory instead, which makes it runnable
//! unchanged on [`InProc`] threads, as one OS process per node over
//! [`TcpTransport`], or over the wire simulator: sharded ingestion, then a
//! level-synchronous BFS. The BFS is a program over
//! [`datacutter::superstep`] — the same tag, exchange, barrier and record
//! codec the core analyses run on — so the round protocol the transports
//! carry is the shipping one. A round sends each peer the candidates it
//! owns, visits this shard's own in place, and ends with a marker carrying
//! the shard's frontier size; a round whose frontiers sum to zero ends the
//! search. Every run of one [`WorkloadConfig`] must produce
//! **byte-identical** BFS levels, whatever the transport; the distributed
//! smoke test holds the transport to that.
//!
//! Filter graph (`p` = participating nodes):
//!
//! ```text
//! gen (node 0) --edges--> store (copy i on node i) --levels--> collect (node 0)
//!                              \__peers (all-to-all)__/
//! ```
//!
//! [`InProc`]: datacutter::InProc
//! [`TcpTransport`]: crate::tcp::TcpTransport

use crate::tcp::{TcpOptions, TcpTransport};
use datacutter::superstep::{self, Peers, Phase, PORT};
use datacutter::{DataBuffer, Filter, FilterContext, GraphBuilder, NodeId, Transport};
use mssg_obs::Telemetry;
use mssg_types::{fnv1a, Edge, GraphStorageError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic workload description; equal configs give equal levels
/// no matter which transport runs the graph.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Participating nodes = store shards (gen and collect ride node 0).
    pub nodes: usize,
    /// Vertex count; vertex ids are `0..vertices`.
    pub vertices: u64,
    /// Random extra edges layered over the connectivity spine.
    pub extra_edges: u64,
    /// Seed for the extra-edge generator.
    pub seed: u64,
    /// Edges per `DataBuffer` block on the ingest stream.
    pub block: usize,
    /// Blocking-op deadline for the run (peer death must not hang us).
    pub stream_timeout: Duration,
    /// Fault knob: `(store copy, block count)` — that store copy calls
    /// `process::exit(113)` after ingesting this many blocks. Only
    /// meaningful in multi-process runs.
    pub die_at: Option<(usize, u64)>,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            nodes: 3,
            vertices: 2_000,
            extra_edges: 6_000,
            seed: 0xC0FFEE,
            block: 512,
            stream_timeout: Duration::from_secs(20),
            die_at: None,
        }
    }
}

/// What the collector assembled at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct WorkloadReport {
    /// `(vertex, bfs level)` for every reached vertex, sorted by vertex —
    /// the canonical result order.
    pub levels: Vec<(u64, u32)>,
    /// FNV-1a over the level pairs' little-endian bytes: equal digests ⇔
    /// byte-identical levels.
    pub digest: u64,
    /// BFS rounds until global quiescence.
    pub rounds: u32,
    /// Edges ingested across all stores.
    pub edges: u64,
    /// Slowest store's ingest wall time.
    pub ingest_secs: f64,
    /// Slowest store's BFS wall time.
    pub bfs_secs: f64,
}

impl WorkloadReport {
    /// Ingest throughput over the slowest shard's wall time.
    pub fn ingest_edges_per_sec(&self) -> f64 {
        if self.ingest_secs > 0.0 {
            self.edges as f64 / self.ingest_secs
        } else {
            0.0
        }
    }

    /// BFS edge-scan throughput over the slowest shard's wall time.
    pub fn bfs_edges_per_sec(&self) -> f64 {
        if self.bfs_secs > 0.0 {
            self.edges as f64 / self.bfs_secs
        } else {
            0.0
        }
    }
}

/// Where a vertex's adjacency (and level) lives.
fn owner(v: u64, p: usize) -> usize {
    (v % p as u64) as usize
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A BFS round: candidate vertices to their owners, then a marker with
/// the sender's frontier size.
const ROUND: Phase = Phase::nth(0);
const KINDS: u64 = 2;
// Tags on the `levels` stream.
const TAG_LEVELS: u64 = 0;
const TAG_STATS: u64 = 1;

/// Generates the deterministic edge list and shards it to store copies
/// by source-vertex owner. Both directions of every edge are emitted, so
/// the BFS explores the graph as undirected.
struct Gen {
    cfg: WorkloadConfig,
}

impl Filter for Gen {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let p = self.cfg.nodes;
        let mut batches: Vec<Vec<Edge>> = vec![Vec::new(); p];
        let block = self.cfg.block.max(1);
        // Collect every directed edge first so sharding order is a pure
        // function of the config, then flush in shard order.
        let push =
            |batches: &mut Vec<Vec<Edge>>, ctx: &mut FilterContext, a: u64, b: u64| -> Result<()> {
                let shard = owner(a, p);
                batches[shard].push(Edge::of(a, b));
                if batches[shard].len() >= block {
                    let buf = DataBuffer::from_edges(0, &batches[shard]);
                    batches[shard].clear();
                    ctx.output("edges")?.send_to(shard, buf)?;
                }
                Ok(())
            };
        for v in 0..self.cfg.vertices.saturating_sub(1) {
            push(&mut batches, ctx, v, v + 1)?;
            push(&mut batches, ctx, v + 1, v)?;
        }
        let mut state = self.cfg.seed | 1;
        for _ in 0..self.cfg.extra_edges {
            let a = xorshift(&mut state) % self.cfg.vertices;
            let b = xorshift(&mut state) % self.cfg.vertices;
            push(&mut batches, ctx, a, b)?;
            push(&mut batches, ctx, b, a)?;
        }
        for (shard, batch) in batches.iter().enumerate() {
            if !batch.is_empty() {
                ctx.output("edges")?
                    .send_to(shard, DataBuffer::from_edges(0, batch))?;
            }
        }
        Ok(())
    }
}

/// One shard: ingests its adjacency, then runs level-synchronous BFS
/// rounds with its peers, and finally ships `(vertex, level)` pairs plus
/// timing stats to the collector.
struct Store {
    cfg: WorkloadConfig,
    adj: HashMap<u64, Vec<u64>>,
}

impl Store {
    fn ingest(&mut self, ctx: &mut FilterContext) -> Result<u64> {
        let mut edges = 0u64;
        let mut blocks = 0u64;
        let copy = ctx.copy_index;
        let telemetry = ctx.telemetry().clone();
        let _span = telemetry
            .tracer
            .span("ingest.shard")
            .with("copy", copy as u64);
        let windows = telemetry.metrics.counter("ingest.windows");
        while let Some(buf) = ctx.input("edges")?.recv()? {
            let block = buf.try_edges()?;
            edges += block.len() as u64;
            for e in block {
                self.adj
                    .entry(e.src.payload())
                    .or_default()
                    .push(e.dst.payload());
            }
            blocks += 1;
            windows.inc();
            if self.cfg.die_at == Some((copy, blocks)) {
                // The fault knob: this process vanishes mid-ingest, as a
                // SIGKILLed or crashed peer would. Peers must turn the
                // silence into a typed error, never a hang.
                std::process::exit(113);
            }
        }
        Ok(edges)
    }

    fn bfs(&self, peers: &mut Peers<'_>) -> Result<(HashMap<u64, u32>, u32)> {
        let (p, me) = (peers.copies(), peers.me());
        let mut levels: HashMap<u64, u32> = HashMap::new();
        let mut frontier: Vec<u64> = Vec::new();
        if owner(0, p) == me && self.cfg.vertices > 0 {
            levels.insert(0, 0);
            frontier.push(0);
        }
        // Candidates per owner: one buffer per peer a round, which is what
        // the declared send_window and the transport's credit window bound.
        let mut batches: Vec<Vec<u64>> = vec![Vec::new(); p];
        let tracer = peers.telemetry().tracer.clone();
        let mut round: u32 = 0;
        loop {
            let _round_span = tracer.span("bfs.round").with("round", round as u64);
            for v in &frontier {
                for &w in self.adj.get(v).map_or(&[][..], Vec::as_slice) {
                    batches[owner(w, p)].push(w);
                }
            }
            let own = peers.scatter(ROUND.data, round, &mut batches)?;
            let mut next: Vec<u64> = Vec::new();
            let global = peers.finish::<1>(ROUND, round, &own, frontier.len() as u64, |[w]| {
                levels.entry(w).or_insert_with(|| {
                    next.push(w);
                    round + 1
                });
                Ok(())
            })?;
            // Nobody had a frontier this round: every shard agrees, all
            // stop after it.
            if global == 0 {
                return Ok((levels, round));
            }
            frontier = next;
            round += 1;
        }
    }
}

impl Filter for Store {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let me = ctx.copy_index;
        let t0 = Instant::now();
        let edges = self.ingest(ctx)?;
        let ingest = t0.elapsed();

        let t1 = Instant::now();
        let (levels, rounds) = self.bfs(&mut Peers::new(ctx, KINDS, 0)?)?;
        let bfs = t1.elapsed();

        // Ship owned levels in canonical (sorted) order, then stats.
        let mut pairs: Vec<(u64, u32)> = levels.into_iter().collect();
        pairs.sort_unstable();
        for chunk in pairs.chunks(4096) {
            let words: Vec<u64> = chunk.iter().flat_map(|&(v, l)| [v, l as u64]).collect();
            ctx.output("levels")?
                .send_to(0, DataBuffer::from_words(TAG_LEVELS, &words))?;
        }
        ctx.output("levels")?.send_to(
            0,
            DataBuffer::from_words(
                TAG_STATS,
                &[
                    edges,
                    ingest.as_nanos() as u64,
                    bfs.as_nanos() as u64,
                    rounds as u64,
                    me as u64,
                ],
            ),
        )?;
        Ok(())
    }
}

/// Gathers every shard's levels and stats into the [`WorkloadReport`].
struct Collect {
    sink: Arc<Mutex<Option<WorkloadReport>>>,
}

impl Filter for Collect {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let mut report = WorkloadReport::default();
        let mut ingest_ns = 0u64;
        let mut bfs_ns = 0u64;
        while let Some(buf) = ctx.input("levels")?.recv()? {
            match buf.tag {
                TAG_LEVELS => {
                    for [v, level] in superstep::records::<2>(&buf)? {
                        report.levels.push((v, level as u32));
                    }
                }
                TAG_STATS => {
                    let mut stats = superstep::records::<5>(&buf)?;
                    let (Some([edges, ingest, bfs, rounds, _copy]), None) =
                        (stats.next(), stats.next())
                    else {
                        return Err(GraphStorageError::corrupt(format!(
                            "a stats message of {} bytes",
                            buf.len()
                        )));
                    };
                    report.edges += edges;
                    ingest_ns = ingest_ns.max(ingest);
                    bfs_ns = bfs_ns.max(bfs);
                    report.rounds = report.rounds.max(rounds as u32);
                }
                tag => {
                    return Err(GraphStorageError::corrupt(format!(
                        "unknown levels tag {tag}"
                    )))
                }
            }
        }
        report.levels.sort_unstable();
        let mut bytes = Vec::with_capacity(report.levels.len() * 12);
        for &(v, l) in &report.levels {
            bytes.extend_from_slice(&v.to_le_bytes());
            bytes.extend_from_slice(&l.to_le_bytes());
        }
        report.digest = fnv1a(&bytes);
        report.ingest_secs = ingest_ns as f64 / 1e9;
        report.bfs_secs = bfs_ns as f64 / 1e9;
        // A poisoned sink just means another copy panicked first; the
        // report is still worth delivering.
        let mut sink = match self.sink.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *sink = Some(report);
        Ok(())
    }
}

/// Builds the workload graph. The returned sink is filled by the
/// collector (which runs on node 0) when the run completes.
pub fn build(
    cfg: &WorkloadConfig,
    telemetry: Telemetry,
) -> Result<(GraphBuilder, Arc<Mutex<Option<WorkloadReport>>>)> {
    if cfg.nodes == 0 {
        return Err(GraphStorageError::Unsupported(
            "workload needs at least one node".into(),
        ));
    }
    let p = cfg.nodes;
    let sink: Arc<Mutex<Option<WorkloadReport>>> = Arc::new(Mutex::new(None));
    let mut g = GraphBuilder::new();
    // Burst bound per store copy per round: one candidate buffer plus one
    // round marker per destination, with a round of pipeline headroom.
    g.channel_capacity((8 * (p + 1)).max(64));
    g.telemetry(telemetry);
    g.stream_timeout(cfg.stream_timeout);

    let cfg_gen = cfg.clone();
    let gen = g.add_filter("gen", vec![0], move |_| {
        Box::new(Gen {
            cfg: cfg_gen.clone(),
        })
    })?;
    let cfg_store = cfg.clone();
    let store = g.add_filter("store", (0..p).collect(), move |_| {
        Box::new(Store {
            cfg: cfg_store.clone(),
            adj: HashMap::new(),
        })
    })?;
    let sink2 = Arc::clone(&sink);
    let collect = g.add_filter("collect", vec![0], move |_| {
        Box::new(Collect {
            sink: Arc::clone(&sink2),
        })
    })?;

    g.declare_ports(store, &["edges", PORT], &[PORT, "levels"]);
    g.expect_consumers(store, PORT, p);
    g.send_window(store, PORT, 4 * (p as u64 + 1));
    g.connect(gen, "edges", store, "edges")?;
    g.connect(store, PORT, store, PORT)?;
    g.connect(store, "levels", collect, "levels")?;
    Ok((g, sink))
}

fn take_report(sink: &Arc<Mutex<Option<WorkloadReport>>>) -> Result<WorkloadReport> {
    sink.lock()
        .unwrap()
        .take()
        .ok_or_else(|| GraphStorageError::Net("run finished without a collected report".into()))
}

/// Runs the workload on the classic in-process substrate.
pub fn run_inproc(cfg: &WorkloadConfig, telemetry: Telemetry) -> Result<WorkloadReport> {
    let (g, sink) = build(cfg, telemetry)?;
    g.run()?;
    take_report(&sink)
}

/// Runs this process's share of the workload over `transport`. Returns
/// the assembled report on node 0, `None` elsewhere. The telemetry
/// bundle should be the same one handed to the transport, so one report
/// covers both the workload's `ingest.*`/`bfs.*` and the transport's
/// `net.*` series.
pub fn run_node(
    cfg: &WorkloadConfig,
    node: NodeId,
    transport: &mut dyn Transport,
    telemetry: Telemetry,
) -> Result<Option<WorkloadReport>> {
    let (g, sink) = build(cfg, telemetry)?;
    g.run_node(node, transport)?;
    if node == 0 {
        Ok(Some(take_report(&sink)?))
    } else {
        Ok(None)
    }
}

/// Runs the workload over TCP-localhost: one transport per node, each
/// driven by its own thread in this process. The single-machine stand-in
/// for a real multi-process launch (`mssg-node` provides that one) —
/// byte-identical to [`run_inproc`] by construction, and the substrate
/// the transport bench measures. `telemetry` receives the `net.*`
/// counters from every node's transport.
pub fn run_tcp_localhost(cfg: &WorkloadConfig, telemetry: Telemetry) -> Result<WorkloadReport> {
    let listeners: Vec<std::net::TcpListener> = (0..cfg.nodes)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()
        .map_err(|e| GraphStorageError::Net(format!("bind 127.0.0.1:0: {e}")))?;
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<std::io::Result<_>>()
        .map_err(|e| GraphStorageError::Net(format!("local_addr: {e}")))?;
    run_node_threads(
        cfg,
        telemetry,
        listeners,
        |node, listener, topology, opts| {
            TcpTransport::establish(node, listener, &addrs, topology, opts)
        },
    )
}

/// Runs every node of the workload on its own thread of this process,
/// node `i` over the transport `establish` builds from `links[i]`.
/// Returns node 0's report, or the first typed error any node hit (in
/// node order).
pub(crate) fn run_node_threads<L: Send>(
    cfg: &WorkloadConfig,
    telemetry: Telemetry,
    links: Vec<L>,
    establish: impl Fn(NodeId, L, u64, TcpOptions) -> Result<TcpTransport> + Sync,
) -> Result<WorkloadReport> {
    let (g0, _) = build(cfg, Telemetry::disabled())?;
    let topology = g0.topology_signature();
    std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(node, link)| {
                let (establish, telemetry) = (&establish, telemetry.clone());
                scope.spawn(move || {
                    let opts = TcpOptions {
                        io_timeout: cfg.stream_timeout,
                        dial_timeout: cfg.stream_timeout,
                        telemetry: telemetry.clone(),
                        ..TcpOptions::default()
                    };
                    let mut transport = establish(node, link, topology, opts)?;
                    run_node(cfg, node, &mut transport, telemetry)
                })
            })
            .collect();
        // Leaving early with an error still joins the other nodes: the
        // scope waits for every thread it spawned.
        let mut report = None;
        for h in handles {
            report = report.or(h.join().expect("workload node thread never panics")?);
        }
        report.ok_or_else(|| GraphStorageError::Net("node 0 produced no report".into()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_levels_are_deterministic_and_plausible() {
        let cfg = WorkloadConfig {
            nodes: 3,
            vertices: 300,
            extra_edges: 400,
            ..WorkloadConfig::default()
        };
        let a = run_inproc(&cfg, Telemetry::disabled()).unwrap();
        let b = run_inproc(&cfg, Telemetry::disabled()).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.levels, b.levels);
        // The spine connects everything, so every vertex is reached.
        assert_eq!(a.levels.len(), 300);
        assert_eq!(a.levels[0], (0, 0));
        // Extra edges create shortcuts: the far end must be closer than
        // its spine distance.
        let far = a.levels.last().unwrap();
        assert!(far.1 < 299, "no shortcut found: {far:?}");
        assert!(a.edges == 2 * (299 + 400));
    }

    /// The acceptance gate, in-process edition: the same graph run over
    /// real sockets (three transports in threads) produces byte-identical
    /// levels to the in-process run.
    #[test]
    fn tcp_levels_match_inproc_levels() {
        let cfg = WorkloadConfig {
            nodes: 3,
            vertices: 400,
            extra_edges: 600,
            ..WorkloadConfig::default()
        };
        let want = run_inproc(&cfg, Telemetry::disabled()).unwrap();

        let telemetry = Telemetry::enabled();
        let got = run_tcp_localhost(&cfg, telemetry.clone()).unwrap();
        assert_eq!(got.digest, want.digest);
        assert_eq!(got.levels, want.levels);
        assert_eq!(got.edges, want.edges);

        // The transport actually moved framed bytes, and the counters saw
        // them: every frame carries at least its header.
        let counters = telemetry.metrics.snapshot().counters;
        let frames = counters.get("net.frames").copied().unwrap_or(0);
        let bytes = counters.get("net.bytes").copied().unwrap_or(0);
        assert!(frames > 0, "no frames counted");
        assert!(bytes >= frames * crate::wire::FRAME_OVERHEAD as u64);
    }

    #[test]
    fn no_peers_message_goes_from_a_shard_to_itself() {
        // Shard 0's edge block, its levels and its stats are the only
        // messages that stay on a node: a candidate or marker a shard sent
        // itself would be one more.
        let random = WorkloadConfig {
            nodes: 3,
            vertices: 300,
            extra_edges: 400,
            ..WorkloadConfig::default()
        };
        let (g, _) = build(&random, Telemetry::disabled()).unwrap();
        assert_eq!(g.run().unwrap().net.local_msgs, 3);

        // The path 0 – 1 – 2, one vertex per shard: every count is exact.
        let path = WorkloadConfig {
            nodes: 3,
            vertices: 3,
            extra_edges: 0,
            ..WorkloadConfig::default()
        };
        let (g, sink) = build(&path, Telemetry::disabled()).unwrap();
        let net = g.run().unwrap().net;
        let report = take_report(&sink).unwrap();
        assert_eq!(report.levels, [(0, 0), (1, 1), (2, 2)]);
        assert_eq!(report.rounds, 3);
        // Remote: the other two shards' blocks, levels and stats (6), per
        // round 0..=3 one marker to each of 2 peers from each of 3 shards
        // (24), and the candidates 0→1, 1→0, 1→2, 2→1 (4).
        assert_eq!((net.local_msgs, net.remote_msgs), (3, 6 + 24 + 4));
    }

    /// Sends `msg` to copy 0 on `port` — after draining `drain`, if any.
    #[derive(Clone)]
    struct Rogue {
        drain: Option<&'static str>,
        port: &'static str,
        msg: DataBuffer,
    }

    impl Filter for Rogue {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            if let Some(port) = self.drain {
                while ctx.input(port)?.recv()?.is_some() {}
            }
            ctx.output(self.port)?.send_to(0, self.msg.clone())
        }
    }

    /// A graph whose blocking operations give up: a message a regression
    /// makes the receiver wait on fails the test instead of hanging it.
    fn graph() -> GraphBuilder {
        let mut g = GraphBuilder::new();
        g.stream_timeout(Duration::from_secs(10));
        g
    }

    fn assert_corrupt(g: GraphBuilder, what: &str) {
        match g.run() {
            Err(GraphStorageError::Corrupt(_)) => {}
            other => panic!("{what}: want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn malformed_messages_are_typed_errors() {
        let cfg = WorkloadConfig {
            nodes: 2,
            vertices: 50,
            extra_edges: 50,
            ..WorkloadConfig::default()
        };
        let store = |cfg: WorkloadConfig| {
            move |_| -> Box<dyn Filter> {
                Box::new(Store {
                    cfg: cfg.clone(),
                    adj: HashMap::new(),
                })
            }
        };

        let mut g = graph();
        let rogue = Rogue {
            drain: None,
            port: "edges",
            msg: DataBuffer::new(0, vec![0; 17]),
        };
        let gen = g
            .add_filter("gen", vec![0], move |_| Box::new(rogue.clone()))
            .unwrap();
        let shard = g.add_filter("store", vec![0], store(cfg.clone())).unwrap();
        g.connect(gen, "edges", shard, "edges").unwrap();
        assert_corrupt(g, "a 17-byte edge block");

        for (what, msg) in [
            (
                "a 3-word stats message",
                DataBuffer::from_words(TAG_STATS, &[1, 2, 3]),
            ),
            (
                "a 3-word level message",
                DataBuffer::from_words(TAG_LEVELS, &[1, 2, 3]),
            ),
            ("an unknown levels tag", DataBuffer::control(2)),
        ] {
            let mut g = graph();
            let rogue = Rogue {
                drain: None,
                port: "levels",
                msg,
            };
            let shard = g
                .add_filter("store", vec![0], move |_| Box::new(rogue.clone()))
                .unwrap();
            let collect = g
                .add_filter("collect", vec![0], |_| {
                    Box::new(Collect {
                        sink: Arc::default(),
                    })
                })
                .unwrap();
            g.connect(shard, "levels", collect, "levels").unwrap();
            assert_corrupt(g, what);
        }

        // Shard 1 ingests its edges and then sends shard 0, in round 0:
        for (what, msg) in [
            (
                "a 7-byte candidate payload",
                DataBuffer::new(superstep::tag(ROUND.data, 0, 0, 1), vec![0; 7]),
            ),
            (
                "an unknown peers kind",
                DataBuffer::control(superstep::tag(KINDS, 0, 0, 1)),
            ),
        ] {
            let mut g = graph();
            let c = cfg.clone();
            let gen = g
                .add_filter("gen", vec![0], move |_| Box::new(Gen { cfg: c.clone() }))
                .unwrap();
            let rogue = Rogue {
                drain: Some("edges"),
                port: PORT,
                msg,
            };
            let store = store(cfg.clone());
            let shards = g
                .add_filter("store", vec![0, 1], move |i| match i {
                    0 => store(i),
                    _ => Box::new(rogue.clone()),
                })
                .unwrap();
            g.connect(gen, "edges", shards, "edges").unwrap();
            g.connect(shards, PORT, shards, PORT).unwrap();
            assert_corrupt(g, what);
        }
    }
}
