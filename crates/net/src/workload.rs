//! A self-contained distributed ingest → BFS workload.
//!
//! `mssg-core`'s BFS runs against shared-memory storage backends, so it
//! cannot cross a process boundary. This module carries the same
//! communication structure — sharded ingestion, then level-synchronous
//! BFS with round markers over an all-to-all `peers` stream — but keeps
//! every vertex in plain per-shard memory, making it runnable unchanged
//! on [`InProc`] threads or as one OS process per node over
//! [`TcpTransport`]. The two must produce **byte-identical** BFS levels
//! for the same [`WorkloadConfig`]; the distributed smoke test holds the
//! transport to that.
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

use datacutter::{DataBuffer, Filter, FilterContext, GraphBuilder, NodeId, Transport};
use mssg_obs::Telemetry;
use mssg_types::{Edge, GraphStorageError, Result};
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
    /// Chaos knob: `(store copy, millis)` — that store copy sleeps this
    /// long after every ingested block, making it a straggler without
    /// changing the result. Exercised by the straggler-detection smoke.
    pub stall: Option<(usize, u64)>,
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
            stall: None,
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

// Tag layout on the `peers` stream: [kind: 8][round: 32][sender: 24].
const KIND_CAND: u64 = 0;
const KIND_DONE: u64 = 1;
// Tags on the `levels` stream.
const TAG_LEVELS: u64 = 0;
const TAG_STATS: u64 = 1;

fn tag(kind: u64, round: u32, sender: usize) -> u64 {
    (kind << 56) | ((round as u64) << 24) | sender as u64
}

fn tag_kind(t: u64) -> u64 {
    t >> 56
}

fn tag_round(t: u64) -> u32 {
    ((t >> 24) & 0xffff_ffff) as u32
}

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

/// Buffered `peers` traffic for a round this copy has not reached yet
/// (a fast peer can run one round ahead).
#[derive(Default)]
struct RoundBox {
    cands: Vec<u64>,
    done: usize,
    global: u64,
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
            for e in buf.edges() {
                self.adj
                    .entry(e.src.payload())
                    .or_default()
                    .push(e.dst.payload());
            }
            edges += (buf.len() / 16) as u64;
            blocks += 1;
            windows.inc();
            if self.cfg.die_at == Some((copy, blocks)) {
                // The fault knob: this process vanishes mid-ingest, as a
                // SIGKILLed or crashed peer would. Peers must turn the
                // silence into a typed error, never a hang.
                std::process::exit(113);
            }
            if let Some((c, ms)) = self.cfg.stall {
                if c == copy {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
        }
        Ok(edges)
    }

    fn bfs(&mut self, ctx: &mut FilterContext) -> Result<(HashMap<u64, u32>, u32)> {
        let p = ctx.copies;
        let me = ctx.copy_index;
        let mut levels: HashMap<u64, u32> = HashMap::new();
        let mut frontier: Vec<u64> = Vec::new();
        if owner(0, p) == me && self.cfg.vertices > 0 {
            levels.insert(0, 0);
            frontier.push(0);
        }
        let mut pending: HashMap<u32, RoundBox> = HashMap::new();
        let mut round: u32 = 0;
        let tracer = ctx.telemetry().tracer.clone();
        loop {
            let _round_span = tracer.span("bfs.round").with("round", round as u64);
            // Send this round's candidates: one buffer per destination
            // shard (bounding the burst, which is what the declared
            // send_window and the transport's credit window rely on).
            let mut out: Vec<Vec<u64>> = vec![Vec::new(); p];
            for &v in &frontier {
                if let Some(nbrs) = self.adj.get(&v) {
                    for &w in nbrs {
                        out[owner(w, p)].push(w);
                    }
                }
            }
            for (dest, cands) in out.into_iter().enumerate() {
                if !cands.is_empty() {
                    ctx.output("peers")?.send_to(
                        dest,
                        DataBuffer::from_words(tag(KIND_CAND, round, me), &cands),
                    )?;
                }
            }
            for dest in 0..p {
                ctx.output("peers")?.send_to(
                    dest,
                    DataBuffer::from_words(tag(KIND_DONE, round, me), &[frontier.len() as u64]),
                )?;
            }

            // Collect candidates until every peer's round marker arrives.
            // Per-sender FIFO guarantees a peer's candidates precede its
            // marker; traffic from peers already in round+1 is stashed.
            let mut rb = pending.remove(&round).unwrap_or_default();
            let mut next: Vec<u64> = Vec::new();
            let visit = |cands: &[u64], levels: &mut HashMap<u64, u32>, next: &mut Vec<u64>| {
                for &w in cands {
                    levels.entry(w).or_insert_with(|| {
                        next.push(w);
                        round + 1
                    });
                }
            };
            visit(&rb.cands, &mut levels, &mut next);
            while rb.done < p {
                let Some(buf) = ctx.input("peers")?.recv()? else {
                    return Err(GraphStorageError::Net(format!(
                        "peers stream closed mid-BFS on shard {me} (round {round})"
                    )));
                };
                let r = tag_round(buf.tag);
                if r == round {
                    match tag_kind(buf.tag) {
                        KIND_CAND => visit(&buf.words(), &mut levels, &mut next),
                        _ => {
                            rb.done += 1;
                            rb.global += buf.words().first().copied().unwrap_or(0);
                        }
                    }
                } else {
                    let stash = pending.entry(r).or_default();
                    match tag_kind(buf.tag) {
                        KIND_CAND => stash.cands.extend(buf.words()),
                        _ => {
                            stash.done += 1;
                            stash.global += buf.words().first().copied().unwrap_or(0);
                        }
                    }
                }
            }
            // Global frontier size this round was zero: nobody sent a
            // candidate, every shard agrees, all stop after this round.
            if rb.global == 0 {
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
        let (levels, rounds) = self.bfs(ctx)?;
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
            let words = buf.words();
            if buf.tag == TAG_STATS {
                report.edges += words[0];
                ingest_ns = ingest_ns.max(words[1]);
                bfs_ns = bfs_ns.max(words[2]);
                report.rounds = report.rounds.max(words[3] as u32);
            } else {
                for pair in words.chunks_exact(2) {
                    report.levels.push((pair[0], pair[1] as u32));
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

    g.declare_ports(store, &["edges", "peers"], &["peers", "levels"]);
    g.expect_consumers(store, "peers", p);
    g.send_window(store, "peers", 4 * (p as u64 + 1));
    g.connect(gen, "edges", store, "edges")?;
    g.connect(store, "peers", store, "peers")?;
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
    use crate::tcp::{TcpOptions, TcpTransport};

    let listeners: Vec<std::net::TcpListener> = (0..cfg.nodes)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()
        .map_err(|e| GraphStorageError::Net(format!("bind 127.0.0.1:0: {e}")))?;
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<std::io::Result<_>>()
        .map_err(|e| GraphStorageError::Net(format!("local_addr: {e}")))?;
    let (g0, _) = build(cfg, Telemetry::disabled())?;
    let topology = g0.topology_signature();

    let mut handles = Vec::new();
    for (node, listener) in listeners.into_iter().enumerate() {
        let cfg = cfg.clone();
        let addrs = addrs.clone();
        let opts = TcpOptions {
            io_timeout: cfg.stream_timeout,
            dial_timeout: cfg.stream_timeout,
            telemetry: telemetry.clone(),
            ..TcpOptions::default()
        };
        let node_telemetry = telemetry.clone();
        handles.push(std::thread::spawn(move || {
            let mut transport = TcpTransport::establish(node, listener, &addrs, topology, opts)?;
            run_node(&cfg, node, &mut transport, node_telemetry)
        }));
    }
    let mut report = None;
    let mut first_err = None;
    for h in handles {
        match h.join().expect("workload node thread never panics") {
            Ok(Some(r)) => report = Some(r),
            Ok(None) => {}
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.ok_or_else(|| GraphStorageError::Net("node 0 produced no report".into()))
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
}
