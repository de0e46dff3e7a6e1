//! `serve-mixed`: the serving plane under reads beside writes. Two
//! `serve::Client` threads send pre-generated requests to a live
//! `Server` over loopback TCP, closed loop, one request outstanding
//! each; one of them also feeds the graph through `Server::ingest`
//! every so often, which drains the result cache and gates queries.
//!
//! The mix: 65 % from a 16-query hot set (12 two-hop expansions, 4
//! searches), 15 % degree lookups of uniform vertices, 20 % two-hop
//! expansions nobody asked before. About 80 % of requests are therefore
//! fast (a cache hit or a degree lookup), so the median sits in the hit
//! path and the 90th percentile in the cold-execution path.
//!
//! The live ingests add edges among vertices the generated graph does not
//! have, so every answer is the same at every epoch and every repetition
//! does the same work.

use crate::metrics::Tally;
use crate::oracle::Csr;
use crate::spans::SpanId;
use crate::stats::{per_query_min, quantile};
use crate::{host, layers, Ctx, Outcome};
use graphgen::{GraphPreset, Workload, Xoshiro256};
use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::{BackendKind, BackendOptions, MssgCluster, QueryParams, QueryService};
use mssg_obs::Telemetry;
use mssg_serve::{Client, Outcome as Served, Query, ServeConfig, Server};
use mssg_types::{Edge, Gid, Result};
use std::collections::HashMap;
use std::time::Instant;

const NODES: usize = 2;
const CLIENTS: usize = 2;
/// PubMed-S divisor: 29 k vertices, 217 k edges — the core workloads'
/// graph.
const SCALE: u64 = 128;
/// The hot set: two-hop expansions and searches every client repeats.
const HOT_EXPANSIONS: usize = 12;
const HOT_SEARCHES: usize = 4;
const SMOKE_SCALE: u64 = 4096;
/// Requests per client per repetition.
const REQUESTS: usize = 4000;
const SMOKE_REQUESTS: usize = 80;
/// The ingesting client feeds the graph after this many of its requests.
const INGEST_EVERY: usize = 500;
const SMOKE_INGEST_EVERY: usize = 40;
/// Edges per live ingest.
const FEED_EDGES: u64 = 200_000;
const SMOKE_FEED_EDGES: u64 = 2_000;
/// Each live ingest spreads its edges over this many fresh vertices (an
/// even number, which keeps the generator below free of self-loops).
const FEED_VERTICES: u64 = 25_000;

/// What the oracle says about one distinct query.
struct Answer {
    /// `QueryService::run`'s answer on the cluster before it is served.
    text: String,
    /// Milliseconds that direct run took.
    direct_ms: f64,
}

/// Everything a repetition needs, made once from the seed.
struct Plan {
    workload: Workload,
    edges: Vec<Edge>,
    /// One request list per client.
    requests: Vec<Vec<Query>>,
    answers: HashMap<Query, Answer>,
}

/// A served cluster with its clients connected.
struct Live {
    server: Server,
    clients: Vec<Client>,
}

/// The registered analysis and parameters that answer `q`; the oracle's
/// own copy of the mapping the server applies.
fn analysis(q: &Query) -> (&'static str, QueryParams) {
    let mut p = QueryParams::new();
    let name = match q {
        Query::Bfs { source, dest } => {
            p.insert("source".into(), source.raw().to_string());
            p.insert("dest".into(), dest.raw().to_string());
            "bfs"
        }
        Query::KHop { source, k } => {
            p.insert("source".into(), source.raw().to_string());
            p.insert("k".into(), k.to_string());
            "khop"
        }
        Query::Degree { vertex } => {
            p.insert("vertex".into(), vertex.raw().to_string());
            "degree"
        }
        Query::Components => "components",
    };
    (name, p)
}

/// The part of an answer that must not change. A search stops its peers
/// as soon as one finds the destination, so how much they had scanned by
/// then depends on timing; its path length does not.
fn invariant_part<'a>(q: &Query, answer: &'a str) -> &'a str {
    match q {
        Query::Bfs { .. } => answer.split_whitespace().next().unwrap_or(answer),
        _ => answer,
    }
}

fn load_cluster(ctx: &Ctx, edges: &[Edge], telemetry: Option<&Telemetry>) -> Result<MssgCluster> {
    let mut cluster = MssgCluster::new(
        &ctx.scratch.fresh("served"),
        NODES,
        BackendKind::HashMap,
        &BackendOptions::default(),
    )?;
    if let Some(t) = telemetry {
        cluster.set_telemetry(t.clone());
    }
    ingest(
        &mut cluster,
        Vec::from(edges).into_iter(), // `ingest` wants a stream that owns its edges
        &IngestOptions::default(),
    )?;
    Ok(cluster)
}

fn serve(cluster: MssgCluster) -> Result<Live> {
    let server = Server::start(cluster, &ServeConfig::default())?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<_>>()?;
    Ok(Live { server, clients })
}

/// Generates the request lists from the seed. Expansion sources and
/// searches are the oracle's representative ones, so the cost of the hot
/// set and of the cold tail is the same share of the graph's on every
/// seed.
fn requests(ctx: &Ctx, csr: &mut Csr, vertices: u64) -> Vec<Vec<Query>> {
    let mut rng = Xoshiro256::seeded(ctx.seed ^ 0x5e57_e417);
    let per_client = ctx.size(REQUESTS, SMOKE_REQUESTS);
    // A fifth of the requests are unique expansions; draw a few spare.
    let mut sources = csr
        .representative_expansions(HOT_EXPANSIONS + CLIENTS * per_client / 4, &mut rng)
        .into_iter()
        .map(|source| Query::KHop {
            source: Gid::new(source),
            k: 2,
        });
    let mut hot: Vec<Query> = sources.by_ref().take(HOT_EXPANSIONS).collect();
    hot.extend(
        csr.representative_searches(HOT_SEARCHES, &mut rng)
            .into_iter()
            .map(|(s, d, _)| Query::Bfs {
                source: Gid::new(s),
                dest: Gid::new(d),
            }),
    );
    (0..CLIENTS)
        .map(|_| {
            (0..per_client)
                .map(|_| match rng.next_below(100) {
                    0..65 => rng.choose(&hot).clone(),
                    65..80 => Query::Degree {
                        vertex: Gid::new(rng.next_below(vertices)),
                    },
                    _ => sources.next().expect("spare sources were drawn"),
                })
                .collect()
        })
        .collect()
}

/// Edge generation, the oracle's answers, and the program's own load.
/// The served cluster of the first repetition is part of set-up too; it
/// is returned alongside the plan.
fn set_up(ctx: &Ctx) -> Result<(Plan, Live)> {
    let _span = ctx.spans.enter("setup", 0);
    let workload = GraphPreset::PubMedS.workload(ctx.size(SCALE, SMOKE_SCALE), ctx.seed);
    let edges = {
        let _span = ctx.spans.enter("graphgen.collect_edges", 0);
        workload.collect_edges()
    };
    let requests = {
        let _span = ctx.spans.enter("oracle.representative_queries", 0);
        let mut csr = Csr::build(workload.vertices(), &edges);
        requests(ctx, &mut csr, workload.vertices())
    };
    let cluster = {
        let _span = ctx.spans.enter("core.load", 0);
        load_cluster(ctx, &edges, None)?
    };
    let mut answers = HashMap::new();
    {
        let _span = ctx.spans.enter("oracle.direct_answers", 0);
        let service = QueryService::new();
        for q in requests.iter().flatten() {
            if !answers.contains_key(q) {
                let (name, params) = analysis(q);
                let started = Instant::now();
                let text = service.run(&cluster, name, &params)?;
                let direct_ms = started.elapsed().as_secs_f64() * 1e3;
                answers.insert(q.clone(), Answer { text, direct_ms });
            }
        }
    }
    let live = {
        let _span = ctx.spans.enter("serve.start", 0);
        serve(cluster)?
    };
    let plan = Plan {
        workload,
        edges,
        requests,
        answers,
    };
    Ok((plan, live))
}

/// One request as its client saw it.
#[derive(Clone, Copy)]
struct Sample {
    ms: f64,
    cached: bool,
}

/// One live ingest as its caller saw it.
struct Feed {
    /// Seconds inside `Server::ingest`.
    secs: f64,
    /// Of which not inside the ingestion pipeline: waiting at the epoch
    /// gate for pins to drain, the cluster write lock, the cache drain.
    gate_ms: f64,
}

/// What one repetition measured.
struct Rep {
    /// Client 0's samples, then client 1's.
    samples: Vec<Sample>,
    feeds: Vec<Feed>,
    wall: f64,
    rejects: u64,
    hit_ratio: f64,
}

impl Rep {
    fn millis(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }

    fn feed_secs(&self) -> Vec<f64> {
        self.feeds.iter().map(|f| f.secs).collect()
    }
}

/// One client's share of a repetition.
struct ClientRun {
    samples: Vec<Sample>,
    feeds: Vec<Feed>,
    rejects: u64,
    tally: Tally,
}

/// Sends client `who`'s requests one after another. Client 1 also feeds
/// the graph.
fn client_loop(
    ctx: &Ctx,
    plan: &Plan,
    server: &Server,
    client: &mut Client,
    who: usize,
    (parent, rep): (Option<SpanId>, u64),
) -> ClientRun {
    let _span = ctx.spans.enter_under(parent, "client", rep);
    let list = &plan.requests[who];
    let mut run = ClientRun {
        samples: Vec::with_capacity(list.len()),
        feeds: Vec::new(),
        rejects: 0,
        tally: Tally::default(),
    };
    let feed_edges = ctx.size(FEED_EDGES, SMOKE_FEED_EDGES);
    let every = ctx.size(INGEST_EVERY, SMOKE_INGEST_EVERY);
    for (i, q) in list.iter().enumerate() {
        let (ms, outcome) = {
            let _span = ctx
                .spans
                .enter("serve.request", (who * list.len() + i) as u64);
            let started = Instant::now();
            let outcome = client.request(q);
            (started.elapsed().as_secs_f64() * 1e3, outcome)
        };
        let want = invariant_part(q, &plan.answers[q].text);
        let cached = matches!(&outcome, Ok(Served::Answer(body)) if body.cached);
        run.rejects += matches!(outcome, Ok(Served::Rejected(_))) as u64;
        run.tally.check(
            matches!(&outcome, Ok(Served::Answer(body)) if invariant_part(q, &body.result) == want),
            || format!("client {who} request {i} {q:?}: got {outcome:?}, oracle says {want:?}"),
        );
        run.samples.push(Sample { ms, cached });

        if who == 1 && (i + 1) % every == 0 {
            // Edges among vertices nothing else touches, new ones each time.
            let base = (1 << 40) + run.feeds.len() as u64 * FEED_VERTICES;
            let vertex = move |j: u64| base + j % FEED_VERTICES;
            let edges = (0..feed_edges).map(move |j| Edge::of(vertex(j), vertex(7 * j + 1)));
            let _span = ctx.spans.enter("serve.ingest", rep);
            let started = Instant::now();
            let report = server.ingest(edges, &IngestOptions::default());
            let secs = started.elapsed().as_secs_f64();
            run.tally
                .check(matches!(&report, Ok(r) if r.edges == feed_edges), || {
                    format!("live ingest {}: {report:?}", run.feeds.len())
                });
            if let Ok(r) = report {
                run.feeds.push(Feed {
                    secs,
                    gate_ms: (secs - r.telemetry.elapsed.as_secs_f64()) * 1e3,
                });
            }
        }
    }
    run
}

/// Runs one repetition against `live`, which it consumes: the graph has
/// grown by the end, so the next repetition gets a fresh one.
fn run_rep(ctx: &Ctx, plan: &Plan, live: Live, out: &mut Outcome, rep: u64) -> Rep {
    let span = ctx.spans.enter("rep", rep);
    let parent = span.id();
    let Live {
        server,
        mut clients,
    } = live;
    let started = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(who, client)| {
                let server = &server;
                scope.spawn(move || client_loop(ctx, plan, server, client, who, (parent, rep)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    drop(span);
    let stats = server.cache_stats();
    let mut rep = Rep {
        samples: Vec::new(),
        feeds: Vec::new(),
        wall,
        rejects: 0,
        hit_ratio: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    };
    for run in runs {
        rep.samples.extend(run.samples);
        rep.feeds.extend(run.feeds);
        rep.rejects += run.rejects;
        out.tally.merge(run.tally);
    }
    rep
}

/// Repetitions folded into one: every request and every live ingest at
/// its fastest over the repetitions (they are the same operations in the
/// same order every time).
struct Fastest {
    /// Milliseconds per request, client 0's then client 1's.
    millis: Vec<f64>,
    /// Seconds inside `Server::ingest`, all live ingests of a repetition.
    feed_secs: f64,
    feeds: usize,
}

impl Fastest {
    fn of(reps: &[Rep]) -> Fastest {
        let feeds = per_query_min(&reps.iter().map(Rep::feed_secs).collect::<Vec<_>>());
        Fastest {
            millis: per_query_min(&reps.iter().map(Rep::millis).collect::<Vec<_>>()),
            feed_secs: feeds.iter().sum(),
            feeds: feeds.len(),
        }
    }

    /// Closed loop: the phase lasts as long as its slower client, and
    /// client 1 also waits for its live ingests.
    fn phase_secs(&self) -> f64 {
        let per_client = self.millis.len() / CLIENTS;
        let client = |who: usize| -> f64 {
            self.millis[who * per_client..(who + 1) * per_client]
                .iter()
                .sum::<f64>()
                / 1e3
        };
        client(0).max(client(1) + self.feed_secs)
    }
}

/// A fresh served cluster (not timed by the callers), optionally with
/// the program's telemetry on.
fn fresh_live(ctx: &Ctx, plan: &Plan, telemetry: Option<&Telemetry>) -> Result<Live> {
    serve(load_cluster(ctx, &plan.edges, telemetry)?)
}

/// The six end-to-end metrics, tracing off.
pub fn end_to_end(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (plan, live) = out.timed_set_ups(ctx, || set_up(ctx))?;

    run_rep(ctx, &plan, live, &mut out, 0);
    out.measured.set("peak_rss_mb", host::peak_rss_mb());

    let feed_edges = ctx.size(FEED_EDGES, SMOKE_FEED_EDGES);
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while ctx.more_reps(reps.len(), 3, started, 1.0) {
        let live = fresh_live(ctx, &plan, None)?;
        reps.push(run_rep(ctx, &plan, live, &mut out, reps.len() as u64 + 1));
    }
    let fastest = Fastest::of(&reps);
    out.measured.set(
        "ingest_eps",
        (feed_edges * fastest.feeds as u64) as f64 / fastest.feed_secs,
    );
    out.measured
        .set("query_p50_ms", quantile(&fastest.millis, 0.5));
    out.measured
        .set("query_p90_ms", quantile(&fastest.millis, 0.9));
    out.measured.set(
        "query_qps",
        fastest.millis.len() as f64 / fastest.phase_secs(),
    );
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    out.spread(
        "query_p50_ms.per_rep",
        &per_rep(&|r| quantile(&r.millis(), 0.5)),
    );
    out.spread(
        "query_p90_ms.per_rep",
        &per_rep(&|r| quantile(&r.millis(), 0.9)),
    );
    out.spread(
        "query_qps.per_rep",
        &per_rep(&|r| r.samples.len() as f64 / r.wall),
    );
    out.spread(
        "ingest_secs.per_rep",
        &per_rep(&|r| r.feed_secs().iter().sum()),
    );
    Ok(out)
}

/// The per-layer metrics: repetitions with the program's telemetry on
/// against repetitions with it off, then direct calls into the layers.
pub fn traced(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (plan, live) = set_up(ctx)?;
    run_rep(ctx, &plan, live, &mut out, 0);

    let (mut plain, mut with_telemetry): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while ctx.more_reps(with_telemetry.len(), 2, started, 0.7) {
        let n = with_telemetry.len() as u64 + 1;
        let live = fresh_live(ctx, &plan, None)?;
        plain.push(run_rep(ctx, &plan, live, &mut out, 2 * n - 1));
        let live = fresh_live(ctx, &plan, Some(&Telemetry::enabled()))?;
        with_telemetry.push(run_rep(ctx, &plan, live, &mut out, 2 * n));
    }
    // The latency split needs one repetition's hit/miss flags: the one
    // that finished first.
    let best = plain
        .iter()
        .min_by(|a, b| a.wall.total_cmp(&b.wall))
        .expect("at least one repetition ran");

    let m = &mut out.measured;
    let (plain_secs, traced_secs) = (
        Fastest::of(&plain).phase_secs(),
        Fastest::of(&with_telemetry).phase_secs(),
    );
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_secs / plain_secs - 1.0),
    );
    let of = |cached: bool| -> Vec<f64> {
        best.samples
            .iter()
            .filter(|s| s.cached == cached)
            .map(|s| s.ms)
            .collect()
    };
    let (hits, misses) = (of(true), of(false));
    m.set("serve.hit_p50_us", quantile(&hits, 0.5) * 1e3);
    m.set("serve.miss_p50_ms", quantile(&misses, 0.5));
    m.set("serve.p99_ms", quantile(&best.millis(), 0.99));
    m.set("serve.cache_hit_ratio", best.hit_ratio);
    m.set(
        "serve.rejects",
        plain
            .iter()
            .chain(&with_telemetry)
            .map(|r| r.rejects)
            .sum::<u64>() as f64,
    );
    // The same queries, run directly: what the serving plane adds to a miss.
    let direct: Vec<f64> = plan
        .requests
        .iter()
        .flatten()
        .zip(&best.samples)
        .filter(|(_, s)| !s.cached)
        .map(|(q, _)| plan.answers[q].direct_ms)
        .collect();
    m.set(
        "serve.overhead_ms",
        quantile(&misses, 0.5) - quantile(&direct, 0.5),
    );
    let gates: Vec<f64> = best.feeds.iter().map(|f| f.gate_ms).collect();
    m.set("serve.ingest_gate_ms", quantile(&gates, 0.5));

    m.set("graphgen.gen_eps", layers::gen_eps(ctx, &plan.workload)?);
    let cluster = load_cluster(ctx, &plan.edges, None)?;
    m.set(
        "core.khop2_ms",
        layers::khop2_ms(ctx, &cluster, plan.workload.vertices())?,
    );
    m.set("core.epoch.pin_ns", layers::epoch_pin_ns(ctx, &cluster)?);
    m.set(
        "core.bfs_floor_ms",
        layers::bfs_floor_ms(ctx, &cluster, &plan.edges)?,
    );
    m.set("dc.run_setup_us", layers::dc_run_setup_us(ctx)?);
    m.set("serve.proto.codec_ns", layers::serve_proto_codec_ns(ctx)?);
    let (insert_ns, get_ns) = layers::serve_cache_ns(ctx)?;
    m.set("serve.cache.insert_ns", insert_ns);
    m.set("serve.cache.get_ns", get_ns);
    m.set(
        "serve.admission.cycle_ns",
        layers::serve_admission_cycle_ns(ctx)?,
    );
    Ok(out)
}
