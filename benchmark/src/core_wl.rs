//! The two workloads that drive `mssg-core` directly — `grdb-ooc` and
//! `mem-hashmap` — which differ only in the storage engine under the
//! cluster and in graph size: ingest a PubMed-S-shaped graph through
//! `core::ingest::ingest`, then answer seeded (source, destination)
//! searches through `core::bfs::bfs`, one caller, closed loop.

use crate::layers;
use crate::oracle::Csr;
use crate::stats::{per_query_min, quantile, Summary};
use crate::{host, Ctx, Outcome};
use graphgen::{GraphPreset, Workload, Xoshiro256};
use mssg_core::ingest::{ingest, IngestOptions, IngestReport};
use mssg_core::{BackendKind, BackendOptions, BfsOptions, MssgCluster, SearchMetrics};
use mssg_obs::Telemetry;
use mssg_types::{Edge, Gid, Result};
use std::sync::Arc;
use std::time::Instant;

/// Back-end nodes of the cluster.
const NODES: usize = 2;

/// PubMed-S scaled down by this divisor: 29 k vertices, 217 k edges.
/// Both workloads run on the same graph, so what separates their numbers
/// is the storage engine alone.
const SCALE: u64 = 128;

/// What distinguishes one core workload from the other.
pub struct CoreSpec {
    pub kind: BackendKind,
    /// Searches per query repetition.
    pub queries: usize,
    /// An ingest repetition streams the edge list this many times over
    /// into one fresh cluster, so that one `ingest` call runs for at
    /// least 0.2 s and thread start-up is a small share of it.
    pub ingest_copies: usize,
}

/// 14 MB of grDB blocks against its default 2 × 1 MiB block cache, so
/// searches read from the files.
pub const GRDB_OOC: CoreSpec = CoreSpec {
    kind: BackendKind::Grdb,
    queries: 120,
    ingest_copies: 1,
};

/// The same graph in hash maps: storage is O(1), so time goes to the
/// filter runtime and the traversal itself.
pub const MEM_HASHMAP: CoreSpec = CoreSpec {
    kind: BackendKind::HashMap,
    queries: 120,
    ingest_copies: 16,
};

const SMOKE_SCALE: u64 = 4096;
const SMOKE_QUERIES: usize = 12;

/// Everything built before the first timed repetition.
struct Setup {
    workload: Workload,
    edges: Arc<[Edge]>,
    queries: Vec<(Gid, Gid)>,
    /// The oracle's path length for each query.
    expected: Vec<Option<u32>>,
    /// The cluster the searches run on, loaded with `edges`.
    cluster: MssgCluster,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.cluster.dir());
    }
}

/// The edge list `copies` times over, as a stream that owns what it
/// reads: nothing is copied while `ingest` is being timed.
fn stream(edges: &Arc<[Edge]>, copies: usize) -> impl Iterator<Item = Edge> + Send + 'static {
    let edges = Arc::clone(edges);
    (0..copies).flat_map(move |_| {
        let edges = Arc::clone(&edges);
        (0..edges.len()).map(move |i| edges[i])
    })
}

fn new_cluster(spec: &CoreSpec, ctx: &Ctx, tag: &str) -> Result<MssgCluster> {
    MssgCluster::new(
        &ctx.scratch.fresh(tag),
        NODES,
        spec.kind,
        &BackendOptions::default(),
    )
}

/// Edge generation, the oracle, and the program's own open and load.
fn set_up(spec: &CoreSpec, ctx: &Ctx) -> Result<Setup> {
    let _span = ctx.spans.enter("setup", 0);
    let workload = GraphPreset::PubMedS.workload(ctx.size(SCALE, SMOKE_SCALE), ctx.seed);
    let edges: Arc<[Edge]> = {
        let _span = ctx.spans.enter("graphgen.collect_edges", 0);
        workload.collect_edges().into()
    };
    let (queries, expected) = {
        let _span = ctx.spans.enter("oracle.reference_bfs", 0);
        let mut rng = Xoshiro256::seeded(ctx.seed ^ 0x5eed_cafe);
        Csr::build(workload.vertices(), &edges)
            .representative_searches(ctx.size(spec.queries, SMOKE_QUERIES), &mut rng)
            .into_iter()
            .map(|(s, d, distance)| ((Gid::new(s), Gid::new(d)), distance))
            .unzip()
    };
    let cluster = {
        let _span = ctx.spans.enter("core.load", 0);
        let mut cluster = new_cluster(spec, ctx, "db")?;
        ingest(&mut cluster, stream(&edges, 1), &IngestOptions::default())?;
        cluster
    };
    Ok(Setup {
        workload,
        edges,
        queries,
        expected,
        cluster,
    })
}

/// One ingest repetition: the edge list, `ingest_copies` times over,
/// into a fresh cluster (creating and deleting it is not timed). Returns
/// the undirected edges per second through `ingest` and its report.
fn ingest_rep(
    spec: &CoreSpec,
    ctx: &Ctx,
    s: &Setup,
    telemetry: Option<&Telemetry>,
    out: &mut Outcome,
    rep: u64,
) -> Result<(f64, IngestReport)> {
    let mut cluster = new_cluster(spec, ctx, "ingest")?;
    if let Some(t) = telemetry {
        cluster.set_telemetry(t.clone());
    }
    let copies = ctx.size(spec.ingest_copies, 1);
    let edges = stream(&s.edges, copies);
    let want = (copies * s.edges.len()) as u64;
    let options = IngestOptions::default();
    let (secs, report) = {
        let _span = ctx.spans.enter("core.ingest", rep);
        let started = Instant::now();
        let report = ingest(&mut cluster, edges, &options);
        (started.elapsed().as_secs_f64(), report)
    };
    let stored = cluster.total_entries();
    let dir = cluster.dir().to_path_buf();
    drop(cluster);
    let _ = std::fs::remove_dir_all(dir);
    out.tally.check(
        matches!(&report, Ok(r) if r.edges == want) && stored == 2 * want,
        || format!("ingest rep {rep}: stored {stored} entries of {want} edges, {report:?}"),
    );
    Ok((want as f64 / secs, report?))
}

/// One query repetition: every search once, each timed by its caller
/// and checked against the oracle. Returns per-query milliseconds, the
/// repetition's wall seconds, and what each search reported.
fn query_rep(
    ctx: &Ctx,
    s: &Setup,
    out: &mut Outcome,
    rep: u64,
) -> (Vec<f64>, f64, Vec<SearchMetrics>) {
    let _span = ctx.spans.enter("query_rep", rep);
    let options = BfsOptions::default();
    let mut millis = Vec::with_capacity(s.queries.len());
    let mut reports = Vec::with_capacity(s.queries.len());
    let started = Instant::now();
    for (i, (&(src, dst), &want)) in s.queries.iter().zip(&s.expected).enumerate() {
        let result = {
            let _span = ctx.spans.enter("core.bfs", i as u64);
            let t = Instant::now();
            let result = mssg_core::bfs::bfs(&s.cluster, src, dst, &options);
            millis.push(t.elapsed().as_secs_f64() * 1e3);
            result
        };
        out.tally
            .check(matches!(&result, Ok(m) if m.path_length == want), || {
                let got = result.as_ref().map(|m| m.path_length);
                format!("bfs {src:?}->{dst:?}: got {got:?}, oracle says {want:?}")
            });
        reports.extend(result);
    }
    (millis, started.elapsed().as_secs_f64(), reports)
}

/// The six end-to-end metrics, tracing off.
pub fn end_to_end(spec: &CoreSpec, ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let s = out.timed_set_ups(ctx, || set_up(spec, ctx))?;

    // One discarded pass warms the page cache, the allocator and the
    // block cache; memory is read after it.
    ingest_rep(spec, ctx, &s, None, &mut out, 0)?;
    query_rep(ctx, &s, &mut out, 0);
    out.measured.set("peak_rss_mb", host::peak_rss_mb());

    let (mut ingest_eps, mut qps, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while ctx.more_reps(latencies.len(), 3, started, 1.0) {
        let rep = latencies.len() as u64 + 1;
        ingest_eps.push(ingest_rep(spec, ctx, &s, None, &mut out, rep)?.0);
        let (millis, wall, _) = query_rep(ctx, &s, &mut out, rep);
        qps.push(millis.len() as f64 / wall);
        latencies.push(millis);
    }
    out.set_best("ingest_eps", &ingest_eps);
    let fastest = per_query_min(&latencies);
    // One caller, closed loop: the phase lasts as long as its queries,
    // each at its fastest.
    out.measured.set(
        "query_qps",
        fastest.len() as f64 / (fastest.iter().sum::<f64>() / 1e3),
    );
    out.spread("query_qps.per_rep", &qps);
    out.measured.set("query_p50_ms", quantile(&fastest, 0.5));
    out.measured.set("query_p90_ms", quantile(&fastest, 0.9));
    for (name, q) in [("query_p50_ms", 0.5), ("query_p90_ms", 0.9)] {
        let per_rep: Vec<f64> = latencies.iter().map(|rep| quantile(rep, q)).collect();
        out.spread(&format!("{name}.per_rep"), &per_rep);
    }
    Ok(out)
}

/// Block-cache counters `(hits, misses, evictions)` summed over nodes.
fn cache_counters(cluster: &MssgCluster) -> (u64, u64, u64) {
    (0..cluster.nodes())
        .filter_map(|i| cluster.with_backend(i, |db| db.cache_counters()))
        .fold((0, 0, 0), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2))
}

/// The per-layer metrics: passes with the program's telemetry on, timed
/// against passes with it off, then direct calls into the layers.
pub fn traced(spec: &CoreSpec, ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut s = set_up(spec, ctx)?;
    let queries = s.queries.len() as f64;

    // Alternate untraced and traced passes for the first 60 % of the run.
    let (mut plain_ingest, mut plain_query) = (Vec::new(), Vec::new());
    let (mut traced_ingest, mut traced_query) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while ctx.more_reps(traced_query.len(), 2, started, 0.6) {
        let rep = traced_query.len() as u64;
        let _pass = ctx.spans.enter("pass.untraced", rep);
        plain_ingest.push(ingest_rep(spec, ctx, &s, None, &mut out, rep)?.0);
        plain_query.push(query_rep(ctx, &s, &mut out, rep).0);
        drop(_pass);

        let _pass = ctx.spans.enter("pass.traced", rep);
        let telemetry = Telemetry::enabled();
        let (eps, ingest_report) = ingest_rep(spec, ctx, &s, Some(&telemetry), &mut out, rep)?;
        traced_ingest.push(eps);
        s.cluster.set_telemetry(telemetry);
        let (cache_before, io_before) = (cache_counters(&s.cluster), s.cluster.io_snapshot());
        let (millis, _, searches) = query_rep(ctx, &s, &mut out, rep);
        let cache_after = cache_counters(&s.cluster);
        let io = s.cluster.io_snapshot().since(&io_before);
        s.cluster.set_telemetry(Telemetry::disabled());
        traced_query.push(millis);
        let cache = (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
            cache_after.2 - cache_before.2,
        );
        last = Some((ingest_report, searches, cache, io));
    }
    let (ingest_report, searches, (hits, misses, evictions), query_io) =
        last.expect("at least one traced pass ran");

    // Best against best: ingest rates (higher is faster), and the query
    // phase with every search at its fastest.
    let ingest_eps = Summary::of(&plain_ingest).max;
    let ingest_overhead = ingest_eps / Summary::of(&traced_ingest).max - 1.0;
    let phase_ms = |reps: &[Vec<f64>]| per_query_min(reps).iter().sum::<f64>();
    let query_overhead = phase_ms(&traced_query) / phase_ms(&plain_query) - 1.0;
    let m = &mut out.measured;
    m.set(
        "obs.trace_overhead_pct",
        100.0 * ingest_overhead.max(query_overhead),
    );

    // Records the public functions returned: the ingest pipeline …
    let t = &ingest_report.telemetry;
    let edges = ingest_report.edges as f64;
    let busy = |name: &str| -> f64 { t.filter(name).iter().map(|f| f.busy().as_secs_f64()).sum() };
    m.set("dc.ingest.source_busy_s", busy("source"));
    m.set("dc.ingest.frontend_busy_s", busy("ingest"));
    m.set("dc.ingest.store_busy_s", busy("store"));
    m.set(
        "dc.ingest.blocked_send_s",
        t.filters.iter().map(|f| f.blocked_send.as_secs_f64()).sum(),
    );
    m.set(
        "dc.ingest.blocked_recv_s",
        t.filters.iter().map(|f| f.blocked_recv.as_secs_f64()).sum(),
    );
    m.set("dc.ingest.msgs", t.net.total_msgs() as f64);
    m.set("dc.ingest.bytes", t.net.total_bytes() as f64);
    m.set(
        "simio.block_writes_per_kedge",
        t.io.block_writes as f64 / (edges / 1e3),
    );
    m.set(
        "simio.bytes_written_per_edge",
        t.io.bytes_written as f64 / edges,
    );

    // … and the searches.
    let filters = || searches.iter().flat_map(|r| &r.telemetry.filters);
    let total: f64 = filters().map(|f| f.total.as_secs_f64()).sum();
    let busy: f64 = filters().map(|f| f.busy().as_secs_f64()).sum();
    m.set("dc.bfs.busy_share", busy / total);
    m.set(
        "dc.bfs.blocked_recv_s",
        filters().map(|f| f.blocked_recv.as_secs_f64()).sum(),
    );
    let per_query = |f: &dyn Fn(&SearchMetrics) -> u64| -> f64 {
        searches.iter().map(f).sum::<u64>() as f64 / queries
    };
    m.set(
        "dc.bfs.msgs_per_query",
        per_query(&|r| r.telemetry.net.total_msgs()),
    );
    m.set(
        "dc.bfs.bytes_per_query",
        per_query(&|r| r.telemetry.net.total_bytes()),
    );
    m.set(
        "core.edges_scanned_per_query",
        per_query(&|r| r.edges_scanned),
    );
    m.set("core.rounds_per_query", per_query(&|r| r.rounds as u64));
    let search_secs: f64 = searches
        .iter()
        .map(|r| r.telemetry.elapsed.as_secs_f64())
        .sum();
    m.set(
        "core.scan_eps",
        per_query(&|r| r.edges_scanned) * queries / search_secs,
    );
    m.set(
        "simio.block_reads_per_query",
        query_io.block_reads as f64 / queries,
    );
    m.set("simio.seeks_per_query", query_io.seeks as f64 / queries);
    if hits + misses > 0 {
        m.set("grdb.cache.hit_ratio", hits as f64 / (hits + misses) as f64);
        m.set("grdb.cache.evictions_per_query", evictions as f64 / queries);
    }

    // Direct calls into the layers, on this workload's graph.
    m.set("graphgen.gen_eps", layers::gen_eps(ctx, &s.workload)?);
    let direct = layers::backend(ctx, spec.kind, &s.edges, s.workload.vertices())?;
    m.set("core.ingest_vs_store", 2.0 * ingest_eps / direct.store_eps);
    if spec.kind == BackendKind::Grdb {
        m.set("grdb.store_eps", direct.store_eps);
        m.set("grdb.adj_us", direct.adj_us);
        m.set("grdb.expand_eps", direct.expand_eps);
        m.set("grdb.disk_bytes_per_edge", direct.disk_bytes_per_entry);
    } else {
        m.set("graphdb.store_eps", direct.store_eps);
        m.set("graphdb.adj_us", direct.adj_us);
    }
    m.set("dc.run_setup_us", layers::dc_run_setup_us(ctx)?);
    m.set("dc.stream_mb_per_s", layers::dc_stream_mb_per_s(ctx)?);
    m.set(
        "core.bfs_floor_ms",
        layers::bfs_floor_ms(ctx, &s.cluster, &s.edges)?,
    );
    Ok(out)
}
