//! `wire-tcp`: the one path that drives `net::tcp` framing, credit flow
//! and the READY/BYE barriers — `net::workload`'s sharded ingest then
//! whole-graph BFS, each node on its own thread behind a loopback
//! socket. Storage and serving layers do nothing here.
//!
//! The same configuration run in-process is both the oracle (digests
//! must be equal) and the bypass: a transport change must move the TCP
//! numbers and leave the in-process ones alone.

use crate::stats::Summary;
use crate::{host, layers, Ctx, Outcome};
use mssg_net::{run_inproc, run_tcp_localhost, WorkloadConfig, WorkloadReport};
use mssg_obs::Telemetry;
use mssg_types::Result;
use std::time::Instant;

fn config(ctx: &Ctx) -> WorkloadConfig {
    WorkloadConfig {
        nodes: 2,
        vertices: ctx.size(500_000, 5_000),
        extra_edges: ctx.size(1_500_000, 15_000),
        block: 512,
        seed: ctx.seed,
        ..WorkloadConfig::default()
    }
}

/// The in-process run whose levels every TCP run must reproduce.
fn set_up(ctx: &Ctx, cfg: &WorkloadConfig) -> Result<WorkloadReport> {
    let _span = ctx.spans.enter("setup", 0);
    let _inner = ctx.spans.enter("net.run_inproc", 0);
    run_inproc(cfg, Telemetry::disabled())
}

/// One run of the workload over `run`, timed by the caller and checked
/// against the reference. Returns the report and the wall seconds.
fn rep(
    ctx: &Ctx,
    cfg: &WorkloadConfig,
    reference: &WorkloadReport,
    out: &mut Outcome,
    (name, n): (&str, u64),
    run: impl FnOnce(&WorkloadConfig) -> Result<WorkloadReport>,
) -> Result<(WorkloadReport, f64)> {
    let _span = ctx.spans.enter(name, n);
    let started = Instant::now();
    let report = run(cfg);
    let wall = started.elapsed().as_secs_f64();
    out.tally.check(
        matches!(&report, Ok(r) if r.digest == reference.digest
            && r.levels.len() as u64 == cfg.vertices
            && r.edges == reference.edges),
        || {
            let got = report.as_ref().map(|r| (r.digest, r.levels.len(), r.edges));
            format!(
                "{name} rep {n}: got {got:?}, in-process reference says {:?}",
                (reference.digest, reference.levels.len(), reference.edges)
            )
        },
    );
    Ok((report?, wall))
}

fn tcp(cfg: &WorkloadConfig) -> Result<WorkloadReport> {
    run_tcp_localhost(cfg, Telemetry::disabled())
}

/// The six end-to-end metrics, tracing off. The query is the one
/// whole-graph BFS, so both latency quantiles are its time.
pub fn end_to_end(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let cfg = config(ctx);
    let reference = out.timed_set_ups(ctx, || set_up(ctx, &cfg))?;

    rep(ctx, &cfg, &reference, &mut out, ("net.run_tcp", 0), tcp)?;
    out.measured.set("peak_rss_mb", host::peak_rss_mb());

    let (mut ingest_eps, mut bfs_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while ctx.more_reps(bfs_ms.len(), 3, started, 1.0) {
        let n = bfs_ms.len() as u64 + 1;
        let (r, _) = rep(ctx, &cfg, &reference, &mut out, ("net.run_tcp", n), tcp)?;
        ingest_eps.push(r.ingest_edges_per_sec());
        bfs_ms.push(r.bfs_secs * 1e3);
    }
    out.set_best("ingest_eps", &ingest_eps);
    out.set_best("query_p50_ms", &bfs_ms);
    out.set_best("query_p90_ms", &bfs_ms);
    let qps: Vec<f64> = bfs_ms.iter().map(|ms| 1e3 / ms).collect();
    out.set_best("query_qps", &qps);
    Ok(out)
}

/// The per-layer metrics: TCP runs with the program's telemetry on,
/// against TCP runs with it off and in-process runs of the same graph.
pub fn traced(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let cfg = config(ctx);
    let reference = set_up(ctx, &cfg)?;

    let (mut inproc, mut plain, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = None;
    let started = Instant::now();
    while ctx.more_reps(traced.len(), 2, started, 0.8) {
        let n = traced.len() as u64;
        inproc.push(rep(
            ctx,
            &cfg,
            &reference,
            &mut out,
            ("net.run_inproc", n),
            |c| run_inproc(c, Telemetry::disabled()),
        )?);
        plain.push(rep(
            ctx,
            &cfg,
            &reference,
            &mut out,
            ("net.run_tcp", n),
            tcp,
        )?);
        let telemetry = Telemetry::enabled();
        traced.push(rep(
            ctx,
            &cfg,
            &reference,
            &mut out,
            ("net.run_tcp.traced", n),
            |c| run_tcp_localhost(c, telemetry.clone()),
        )?);
        counters = Some(telemetry.metrics.snapshot().counters);
    }
    let counters = counters.expect("at least one traced run");
    let best = |reps: &[(WorkloadReport, f64)], f: &dyn Fn(&(WorkloadReport, f64)) -> f64| {
        Summary::of(&reps.iter().map(f).collect::<Vec<_>>()).min
    };
    let ingest = |r: &(WorkloadReport, f64)| r.0.ingest_secs;
    let bfs = |r: &(WorkloadReport, f64)| r.0.bfs_secs;
    let active = |r: &(WorkloadReport, f64)| r.0.ingest_secs + r.0.bfs_secs;

    let m = &mut out.measured;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    m.set("net.frames", counter("net.frames"));
    m.set("net.bytes", counter("net.bytes"));
    m.set("net.credit_stalls", counter("net.credit_stalls"));
    m.set(
        "net.bytes_per_edge",
        counter("net.bytes") / reference.edges as f64,
    );
    // Rates: TCP ÷ in-process; below 1 the wire costs throughput.
    m.set(
        "net.tcp_over_inproc_ingest",
        best(&inproc, &ingest) / best(&plain, &ingest),
    );
    // Times: TCP ÷ in-process; above 1 the wire costs time.
    m.set(
        "net.tcp_over_inproc_bfs",
        best(&plain, &bfs) / best(&inproc, &bfs),
    );
    m.set(
        "net.rep_overhead_ms",
        best(&plain, &|r| (r.1 - active(r)) * 1e3),
    );
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (best(&traced, &active) - best(&plain, &active)) / best(&plain, &active),
    );
    m.set("net.wire.codec_mb_per_s", layers::wire_codec_mb_per_s(ctx)?);
    m.set("dc.stream_mb_per_s", layers::dc_stream_mb_per_s(ctx)?);
    Ok(out)
}
