//! `mssg-node` — run the distributed ingest→BFS workload as real OS
//! processes over TCP (or in-process, for comparison), or serve a graph
//! to query clients.
//!
//! ```text
//! mssg-node launch [workload flags] [--deadline-secs N]
//!     Parent: spawns one `mssg-node worker` per node on localhost,
//!     brokers the address exchange, re-prints the workers' result and
//!     stat lines, and enforces an overall deadline. A worker that dies
//!     after READY fails the launch with the worker's own exit code.
//!
//! mssg-node worker --node I [workload flags]
//!     Child: binds 127.0.0.1:0, speaks the launcher stdio protocol,
//!     runs its share of the graph over TCP.
//!
//! mssg-node inproc [workload flags]
//!     Runs the identical workload on in-process threads and prints the
//!     same result lines — `diff` its digest against a launch to check
//!     transport fidelity.
//!
//! mssg-node serve [--backend-nodes N --vertices V --slots S
//!                  --queue-depth D --cache CAP --retry-ms MS
//!                  --exec-floor-ms F]
//!     Builds a cluster, ingests a V-vertex chain (epoch 1), and serves
//!     queries on 127.0.0.1:0. Prints `MSSG-SERVE-ADDR <addr>` then
//!     `MSSG-SERVE-READY …`, then blocks until stdin closes (or says
//!     "stop"), finally printing `MSSG-SERVE-STATS …`.
//!
//! mssg-node query --addr A [--clients C --requests R --burst B
//!                           --k K --span N]
//!     Drives a serving node with C concurrent clients, each issuing R
//!     degree/k-hop queries over a span of N vertices (bursting B
//!     requests at a time), and prints
//!     `MSSG-QUERY-RESULT ok=… overloaded=… failed=… cached=…`.
//! ```
//!
//! Workload flags: `--nodes N --vertices V --extra-edges E --seed S
//! --block B --timeout-secs T --die-at COPY:BLOCKS`.
//!
//! Cluster telemetry (launch mode): `--cluster-trace PATH` turns it on,
//! prints per-node `MSSG-NODE-TELEM` and merged `MSSG-NODE-CLUSTER`
//! lines, and writes one merged Chrome trace with a process lane per
//! node, with remote timestamps rebased onto node 0's clock.

use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::{BackendKind, BackendOptions, MssgCluster};
use mssg_net::launcher::{self, run_cluster};
use mssg_net::tcp::{TcpOptions, TcpTransport};
use mssg_net::workload::{self, WorkloadConfig, WorkloadReport};
use mssg_obs::{ClusterTelemetryReport, NodeTelemetry, Telemetry};
use mssg_serve::{Client, Outcome, Query, ServeConfig, Server};
use mssg_types::{Edge, Gid, GraphStorageError, Result};
use std::io::BufRead;
use std::net::TcpListener;
use std::process::{Command, ExitCode};
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        eprintln!("usage: mssg-node <launch|worker|inproc|serve|query> [flags] (see --help)");
        return ExitCode::FAILURE;
    };
    if mode == "--help" || mode == "-h" || mode == "help" {
        eprintln!("modes: launch | worker --node I | inproc | serve | query --addr A");
        eprintln!(
            "workload flags: --nodes N --vertices V --extra-edges E --seed S \
             --block B --timeout-secs T --die-at COPY:BLOCKS; \
             launch adds --deadline-secs N --cluster-trace PATH; \
             serve takes --backend-nodes N --vertices V --slots S \
             --queue-depth D --cache CAP --retry-ms MS --exec-floor-ms F; query takes \
             --addr A --clients C --requests R --burst B --k K --span N"
        );
        return ExitCode::SUCCESS;
    }
    let result = match mode {
        "launch" => launch(&args[1..]),
        "worker" => worker(&args[1..]),
        "inproc" => inproc(&args[1..]),
        "serve" => serve(&args[1..]),
        "query" => query(&args[1..]),
        other => Err(GraphStorageError::Unsupported(format!(
            "unknown mode {other:?} (want launch, worker, inproc, serve, or query)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if mode == "worker" {
                // Parent reads this off our stdout; stderr is pass-through.
                launcher::report_error(&e.to_string());
            }
            eprintln!("mssg-node {mode}: {e}");
            // A worker that died after READY decides our own exit code:
            // the launch fails with the child's code, not a generic 1.
            if let GraphStorageError::NodeFailed {
                code: Some(code), ..
            } = e
            {
                if code != 0 {
                    return ExitCode::from(code.clamp(1, 255) as u8);
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// The workload flags, which `launch` hands on to its workers.
const WORKLOAD_FLAGS: &[&str] = &[
    "--nodes",
    "--vertices",
    "--extra-edges",
    "--seed",
    "--block",
    "--timeout-secs",
    "--die-at",
];

/// Refuses `args` unless each is a `--flag value` pair whose flag is in
/// one of `flags`: a misspelt or removed flag is an error, not ignored.
fn takes(args: &[String], flags: &[&[&str]]) -> Result<()> {
    for pair in args.chunks(2) {
        let name = pair[0].as_str();
        if !flags.iter().any(|group| group.contains(&name)) {
            return Err(GraphStorageError::Unsupported(format!(
                "unknown argument {name:?} (see --help)"
            )));
        }
    }
    Ok(())
}

/// One `--flag value` pair out of `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| GraphStorageError::Unsupported(format!("flag {name} needs a value")))?;
    value
        .parse::<T>()
        .map(Some)
        .map_err(|_| GraphStorageError::Unsupported(format!("flag {name}: cannot parse {value:?}")))
}

fn workload_config(args: &[String]) -> Result<WorkloadConfig> {
    let mut cfg = WorkloadConfig::default();
    if let Some(n) = flag(args, "--nodes")? {
        cfg.nodes = n;
    }
    if let Some(v) = flag(args, "--vertices")? {
        cfg.vertices = v;
    }
    if let Some(e) = flag(args, "--extra-edges")? {
        cfg.extra_edges = e;
    }
    if let Some(s) = flag(args, "--seed")? {
        cfg.seed = s;
    }
    if let Some(b) = flag(args, "--block")? {
        cfg.block = b;
    }
    if let Some(t) = flag(args, "--timeout-secs")? {
        cfg.stream_timeout = Duration::from_secs(t);
    }
    if let Some(spec) = flag::<String>(args, "--die-at")? {
        cfg.die_at = Some(die_at(&spec)?);
    }
    Ok(cfg)
}

/// Parses the `--die-at COPY:BLOCKS` fault-knob spec.
fn die_at(spec: &str) -> Result<(usize, u64)> {
    let bad = |what: &str| GraphStorageError::Unsupported(format!("--die-at {what} in {spec:?}"));
    let (copy, blocks) = spec
        .split_once(':')
        .ok_or_else(|| bad("wants COPY:BLOCKS"))?;
    Ok((
        copy.parse().map_err(|_| bad("cannot parse COPY"))?,
        blocks.parse().map_err(|_| bad("cannot parse BLOCKS"))?,
    ))
}

fn print_report(report: &WorkloadReport) {
    println!(
        "MSSG-NODE-RESULT digest={:016x} visited={} rounds={}",
        report.digest,
        report.levels.len(),
        report.rounds
    );
    println!(
        "MSSG-NODE-STAT edges={} ingest_secs={:.6} bfs_secs={:.6} ingest_eps={:.0} bfs_eps={:.0}",
        report.edges,
        report.ingest_secs,
        report.bfs_secs,
        report.ingest_edges_per_sec(),
        report.bfs_edges_per_sec(),
    );
}

fn launch(args: &[String]) -> Result<()> {
    takes(
        args,
        &[WORKLOAD_FLAGS, &["--deadline-secs", "--cluster-trace"]],
    )?;
    let cfg = workload_config(args)?;
    let deadline = Duration::from_secs(flag(args, "--deadline-secs")?.unwrap_or(120));
    let cluster_trace: Option<String> = flag(args, "--cluster-trace")?;
    // One run-wide trace id, checked by every handshake: a stale worker
    // from a previous launch cannot join (and corrupt) this run's trace.
    let trace_id = if cluster_trace.is_some() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        (nanos ^ (std::process::id() as u64) << 32).max(1)
    } else {
        0
    };
    let exe = std::env::current_exe().map_err(GraphStorageError::Io)?;
    let commands: Vec<Command> = (0..cfg.nodes)
        .map(|node| {
            let mut cmd = Command::new(&exe);
            cmd.arg("worker").arg("--node").arg(node.to_string());
            if trace_id != 0 {
                cmd.arg("--trace-id").arg(trace_id.to_string());
            }
            if node == 0 {
                if let Some(path) = &cluster_trace {
                    cmd.arg("--cluster-trace").arg(path);
                }
            }
            for &carry in WORKLOAD_FLAGS {
                if let Some(pos) = args.iter().position(|a| a == carry) {
                    if let Some(value) = args.get(pos + 1) {
                        cmd.arg(carry).arg(value);
                    }
                }
            }
            cmd
        })
        .collect();
    let out = run_cluster(commands, deadline)?;
    // Surface the workers' reports as our own output, in per-node order.
    for line in out.lines.iter().flatten() {
        println!("{line}");
    }
    Ok(())
}

fn worker(args: &[String]) -> Result<()> {
    takes(
        args,
        &[WORKLOAD_FLAGS, &["--node", "--trace-id", "--cluster-trace"]],
    )?;
    let cfg = workload_config(args)?;
    let node: usize = flag(args, "--node")?
        .ok_or_else(|| GraphStorageError::Unsupported("worker mode needs --node I".into()))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(GraphStorageError::Io)?;
    let addr = listener
        .local_addr()
        .map_err(GraphStorageError::Io)?
        .to_string();
    let peers = launcher::announce_and_gather(&addr)?;
    if peers.len() != cfg.nodes {
        return Err(GraphStorageError::Net(format!(
            "launcher sent {} peer addresses for a {}-node workload",
            peers.len(),
            cfg.nodes
        )));
    }
    let trace_id: u64 = flag(args, "--trace-id")?.unwrap_or(0);
    let cluster_trace: Option<String> = flag(args, "--cluster-trace")?;
    let telemetry = if trace_id != 0 {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (graph, _) = workload::build(&cfg, Telemetry::disabled())?;
    let topology = graph.topology_signature();
    let opts = TcpOptions {
        io_timeout: cfg.stream_timeout,
        dial_timeout: cfg.stream_timeout,
        telemetry: telemetry.clone(),
        trace_id,
    };
    let mut transport = TcpTransport::establish(node, listener, &peers, topology, opts)?;
    let report = workload::run_node(&cfg, node, &mut transport, telemetry.clone())?;
    if node == 0 && trace_id != 0 {
        print_cluster_telemetry(&transport, &telemetry, cluster_trace.as_deref())?;
    }
    if let Some(report) = report {
        print_report(&report);
    }
    Ok(())
}

/// Node 0's end-of-run duty: merge its own telemetry with every shipped
/// peer report, print per-node and cluster summary lines, and (when
/// asked) write the merged Chrome trace.
fn print_cluster_telemetry(
    transport: &TcpTransport,
    telemetry: &Telemetry,
    cluster_trace: Option<&str>,
) -> Result<()> {
    let mut reports = vec![NodeTelemetry::capture(0, telemetry)];
    reports.extend(transport.collected_reports()?);
    reports.sort_by_key(|r| r.node);
    let offsets = transport.clock_offsets();
    let mut cluster = ClusterTelemetryReport::new();
    for report in reports {
        let offset = offsets.get(&(report.node as usize)).copied().unwrap_or(0);
        let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
        println!(
            "MSSG-NODE-TELEM node={} spans={} windows={} bytes={} offset_ns={}",
            report.node,
            report.spans.len(),
            counter("ingest.windows"),
            counter("net.bytes"),
            offset,
        );
        cluster.add_node(report, offset);
    }
    let merged = cluster.merged_metrics();
    let merged_counter = |name: &str| merged.counters.get(name).copied().unwrap_or(0);
    println!(
        "MSSG-NODE-CLUSTER nodes={} spans={} windows={} bytes={}",
        cluster.node_count(),
        cluster.span_count(),
        merged_counter("ingest.windows"),
        merged_counter("net.bytes"),
    );
    if let Some(path) = cluster_trace {
        std::fs::write(path, cluster.chrome_trace_json()).map_err(GraphStorageError::Io)?;
    }
    Ok(())
}

fn inproc(args: &[String]) -> Result<()> {
    takes(args, &[WORKLOAD_FLAGS])?;
    let cfg = workload_config(args)?;
    let report = workload::run_inproc(&cfg, Telemetry::disabled())?;
    print_report(&report);
    Ok(())
}

/// Builds a cluster, ingests a chain graph, and serves it until stdin
/// closes (the stdio contract mirrors the launcher's: the parent learns
/// the address from `MSSG-SERVE-ADDR`, and closing our stdin stops us).
fn serve(args: &[String]) -> Result<()> {
    takes(
        args,
        &[&[
            "--backend-nodes",
            "--vertices",
            "--slots",
            "--queue-depth",
            "--cache",
            "--retry-ms",
            "--exec-floor-ms",
        ]],
    )?;
    let backend_nodes: usize = flag(args, "--backend-nodes")?.unwrap_or(2);
    let vertices: u64 = flag(args, "--vertices")?.unwrap_or(1000);
    let mut config = ServeConfig::default();
    if let Some(s) = flag(args, "--slots")? {
        config.slots = s;
    }
    if let Some(d) = flag(args, "--queue-depth")? {
        config.queue_depth = d;
    }
    if let Some(c) = flag(args, "--cache")? {
        config.cache_capacity = c;
    }
    if let Some(ms) = flag(args, "--retry-ms")? {
        config.retry_after_ms = ms;
    }
    if let Some(ms) = flag(args, "--exec-floor-ms")? {
        config.exec_floor_ms = ms;
    }
    let dir = std::env::temp_dir().join(format!("mssg-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = MssgCluster::new(
        &dir,
        backend_nodes,
        BackendKind::HashMap,
        &BackendOptions::default(),
    )?;
    // A chain 0–1–…–V: every interior vertex has degree 2, k-hop balls
    // have predictable sizes, and clients can derive queries from V.
    let edges = (0..vertices).map(|i| Edge::of(i, i + 1));
    ingest(&mut cluster, edges, &IngestOptions::default())?;
    let epoch = cluster.epoch();
    let mut server = Server::start(cluster, &config)?;
    println!("MSSG-SERVE-ADDR {}", server.addr());
    println!(
        "MSSG-SERVE-READY nodes={backend_nodes} vertices={vertices} epoch={epoch} slots={}",
        config.slots
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());
    // Serve until the parent closes our stdin (or says "stop").
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "stop" {
            break;
        }
    }
    server.stop();
    let stats = server.cache_stats();
    println!(
        "MSSG-SERVE-STATS hits={} misses={} invalidations={}",
        stats.hits, stats.misses, stats.invalidations
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Drives a serving node with concurrent clients and tallies outcomes.
fn query(args: &[String]) -> Result<()> {
    takes(
        args,
        &[&[
            "--addr",
            "--clients",
            "--requests",
            "--burst",
            "--k",
            "--span",
        ]],
    )?;
    let addr: String = flag(args, "--addr")?.ok_or_else(|| {
        GraphStorageError::Unsupported("query mode needs --addr HOST:PORT".into())
    })?;
    let clients: usize = flag(args, "--clients")?.unwrap_or(1);
    let requests: usize = flag(args, "--requests")?.unwrap_or(16);
    let burst: usize = flag::<usize>(args, "--burst")?.unwrap_or(1).max(1);
    let k: u32 = flag(args, "--k")?.unwrap_or(2);
    let span: u64 = flag::<u64>(args, "--span")?.unwrap_or(64).max(1);
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<[u64; 4]> {
                let mut client = Client::connect(addr.as_str())?;
                let [mut ok, mut overloaded, mut failed, mut cached] = [0u64; 4];
                let mut sent = 0usize;
                while sent < requests {
                    let n = burst.min(requests - sent);
                    for j in 0..n {
                        let v = Gid::new(((c * requests + sent + j) as u64) % span);
                        let q = if (sent + j).is_multiple_of(2) {
                            Query::Degree { vertex: v }
                        } else {
                            Query::KHop { source: v, k }
                        };
                        client.send(&q)?;
                    }
                    for _ in 0..n {
                        match client.recv()?.1 {
                            Outcome::Answer(body) => {
                                ok += 1;
                                cached += body.cached as u64;
                            }
                            Outcome::Rejected(_) => overloaded += 1,
                            Outcome::Failed(_) => failed += 1,
                        }
                    }
                    sent += n;
                }
                Ok([ok, overloaded, failed, cached])
            })
        })
        .collect();
    let mut totals = [0u64; 4];
    for w in workers {
        let counts = w
            .join()
            .map_err(|_| GraphStorageError::Net("query client thread panicked".into()))??;
        for (total, n) in totals.iter_mut().zip(counts) {
            *total += n;
        }
    }
    let [ok, overloaded, failed, cached] = totals;
    println!("MSSG-QUERY-RESULT ok={ok} overloaded={overloaded} failed={failed} cached={cached}");
    Ok(())
}
