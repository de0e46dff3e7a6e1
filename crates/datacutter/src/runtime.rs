//! The filtering service: instantiates filter copies on their nodes,
//! connects logical endpoints, and drives the filter lifecycle — the role
//! DataCutter's runtime plays on a real cluster.

use crate::fault::{
    panic_message, silence_injected_panics, CopyFaults, FaultEvent, FaultKind, FaultLog,
};
use crate::filter::{is_hung_up, Filter, FilterContext, InPort, OutPort, PortClocks};
use crate::graph::GraphBuilder;
use crate::netstats::{NetSnapshot, NetStats};
use crate::transport::{EndpointSpec, InProc, Transport};
use crate::NodeId;
use mssg_obs::Tracer;
use mssg_types::{GraphStorageError, Result};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where one filter copy spent its run: busy computing, parked on a
/// `recv`, or parked on a full downstream channel.
#[derive(Clone, Debug)]
pub struct FilterTiming {
    /// Filter name (as given to `add_filter`).
    pub filter: String,
    /// Transparent-copy index.
    pub copy: usize,
    /// Node the copy ran on.
    pub node: NodeId,
    /// Wall time from `init` through `finalize`.
    pub total: Duration,
    /// Time parked inside `InPort::recv` (starved for input).
    pub blocked_recv: Duration,
    /// Time parked inside sends (downstream backpressure).
    pub blocked_send: Duration,
}

impl FilterTiming {
    /// Time neither starved nor backpressured: `total − blocked`.
    pub fn busy(&self) -> Duration {
        self.total
            .saturating_sub(self.blocked_recv + self.blocked_send)
    }
}

/// Outcome of a completed graph run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Message traffic, split local/remote.
    pub net: NetSnapshot,
    /// Per-filter-copy time breakdown (busy vs. blocked on recv/send).
    pub filters: Vec<FilterTiming>,
    /// Injected faults that actually fired (empty without a
    /// [`FaultPlan`](crate::FaultPlan)).
    pub faults: Vec<FaultEvent<FaultKind>>,
}

/// Derives the deterministic endpoint table — one spec per consumer copy
/// of each (consumer, in_port) key, indexed by copy, planned identically
/// by every process from the shared graph description: iterate streams
/// in declaration order, assign dense ids to each key on first sight,
/// and split each endpoint's producers into co-located vs. remote
/// relative to `only_node` (in single-process mode everything is
/// co-located).
fn plan_endpoints(
    graph: &GraphBuilder,
    only_node: Option<NodeId>,
) -> HashMap<(usize, String), Vec<EndpointSpec>> {
    // Group producer streams by consumer port, preserving first-seen
    // order for id assignment.
    let mut order: Vec<(usize, String)> = Vec::new();
    let mut producers: HashMap<(usize, String), Vec<NodeId>> = HashMap::new();
    for s in &graph.streams {
        let key = (s.to, s.in_port.clone());
        let entry = producers.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            Vec::new()
        });
        entry.extend(graph.filters[s.from].placement.iter().copied());
    }

    // In single-process mode every node lives in this process, so all
    // producers are "local" to every endpoint.
    let distributed = only_node.is_some();
    let mut plans = HashMap::new();
    let mut next_id: u64 = 0;
    for key in order {
        let prods = &producers[&key];
        let filter = &graph.filters[key.0];
        let mut specs = Vec::new();
        for (ci, &node) in filter.placement.iter().enumerate() {
            let (mut local, mut remote) = (0usize, HashMap::<NodeId, usize>::new());
            for &p in prods {
                if !distributed || p == node {
                    local += 1;
                } else {
                    *remote.entry(p).or_insert(0) += 1;
                }
            }
            let mut remote_producers: Vec<(NodeId, usize)> = remote.into_iter().collect();
            remote_producers.sort_unstable();
            specs.push(EndpointSpec {
                id: next_id,
                filter: filter.name.clone(),
                in_port: key.1.clone(),
                copy: ci,
                node,
                capacity: graph.channel_capacity,
                local_producers: local,
                remote_producers,
            });
            next_id += 1;
        }
        plans.insert(key, specs);
    }
    plans
}

/// Runs a built graph to completion with every node as a thread in this
/// process — the classic substrate.
pub fn run(graph: GraphBuilder) -> Result<RunReport> {
    run_with(graph, &mut InProc::new(), None)
}

/// Runs only the filter copies placed on `node`, wiring cross-node
/// streams through `transport` — one call per OS process in a
/// distributed launch. Every process must build the *same* graph
/// description (the transport's handshake checks
/// [`GraphBuilder::topology_signature`]) so all processes derive the
/// same endpoint ids. The returned report covers this node's copies and
/// this node's send-side traffic only.
pub fn run_node(
    graph: GraphBuilder,
    node: NodeId,
    transport: &mut dyn Transport,
) -> Result<RunReport> {
    run_with(graph, transport, Some(node))
}

fn run_with(
    mut graph: GraphBuilder,
    transport: &mut dyn Transport,
    only_node: Option<NodeId>,
) -> Result<RunReport> {
    // Refuse unverified graphs: a topology the static analysis rejects
    // would at best hang until a stream timeout. Experiments that *want*
    // the pathological launch opt out via `allow_unverified`. Every
    // process of a distributed run verifies the same full graph.
    if graph.verify_gate {
        if let Err(mut errs) = graph.verify() {
            return Err(GraphStorageError::Verify(errs.remove(0)));
        }
    }
    let telemetry = graph.telemetry.clone();
    let is_local = |node: NodeId| only_node.is_none_or(|n| n == node);

    let plans = plan_endpoints(&graph, only_node);

    // Build per-copy contexts (local copies only), each with its own
    // blocked-time clocks and sent-traffic counters.
    let nfilters = graph.filters.len();
    let per_copy = |fi: usize| 0..graph.filters[fi].placement.len();
    let clocks: Vec<Vec<Arc<PortClocks>>> = (0..nfilters)
        .map(|fi| per_copy(fi).map(|_| Arc::default()).collect())
        .collect();
    let stats: Vec<Vec<Arc<NetStats>>> = (0..nfilters)
        .map(|fi| per_copy(fi).map(|_| NetStats::new()).collect())
        .collect();
    let mut contexts: Vec<Vec<Option<FilterContext>>> = (0..nfilters)
        .map(|fi| {
            let placement = &graph.filters[fi].placement;
            placement
                .iter()
                .enumerate()
                .map(|(ci, &node)| {
                    is_local(node).then(|| FilterContext {
                        copy_index: ci,
                        copies: placement.len(),
                        node,
                        inputs: HashMap::new(),
                        outputs: HashMap::new(),
                        telemetry: telemetry.clone(),
                        clocks: Arc::clone(&clocks[fi][ci]),
                        sent: Arc::clone(&stats[fi][ci]),
                    })
                })
                .collect()
        })
        .collect();

    // Open receive endpoints and attach them to local consumer copies —
    // all endpoints before any sender, so the transport can route local
    // senders to already-registered queues.
    let mut keys: Vec<&(usize, String)> = plans.keys().collect();
    keys.sort();
    for key in keys {
        let (fi, port) = (key.0, key.1.as_str());
        for spec in &plans[key] {
            if !is_local(spec.node) {
                continue;
            }
            let rx = transport.open_endpoint(spec)?;
            let ci = spec.copy;
            if let Some(ctx) = contexts[fi][ci].as_mut() {
                ctx.inputs.insert(
                    port.to_string(),
                    InPort {
                        name: port.to_string(),
                        rx,
                        clocks: Some(Arc::clone(&clocks[fi][ci])),
                        timeout: graph.stream_timeout,
                        faults: None,
                    },
                );
            }
        }
    }

    // Attach out ports to local producer copies: one send endpoint per
    // (producer copy, consumer endpoint).
    for s in &graph.streams {
        let specs = &plans[&(s.to, s.in_port.clone())];
        // One occupancy histogram per logical stream, sampled after each
        // send — the backpressure picture per consumer port.
        let queue_depth = if telemetry.is_enabled() {
            Some(telemetry.metrics.histogram(&format!(
                "dc.queue_depth.{}.{}",
                graph.filters[s.to].name, s.in_port
            )))
        } else {
            None
        };
        for (ci, slot) in contexts[s.from].iter_mut().enumerate() {
            let Some(ctx) = slot else { continue };
            let mut senders = Vec::new();
            for spec in specs {
                senders.push(transport.open_sender(spec)?);
            }
            // connect() allows listing the same stream only once per
            // out_port, so insertion here cannot clobber a different
            // destination.
            ctx.outputs.insert(
                s.out_port.clone(),
                OutPort {
                    name: s.out_port.clone(),
                    senders,
                    my_node: ctx.node,
                    rr: ctx.copy_index, // Stagger round-robin across copies.
                    stats: Arc::clone(&stats[s.from][ci]),
                    clocks: Some(Arc::clone(&clocks[s.from][ci])),
                    queue_depth: queue_depth.clone(),
                    timeout: graph.stream_timeout,
                    faults: None,
                },
            );
        }
    }
    // Wiring is done: the transport releases its own endpoint handles
    // (streams then close once producers finish) and synchronizes with
    // peer processes before any filter runs.
    transport.start()?;

    // Attach per-copy fault-injection state wherever the plan schedules a
    // fault at a copy's site, `"{filter}.{copy}"` (the state is shared by
    // all of the copy's ports).
    let mut fault_log = None;
    if let Some(plan) = &graph.fault_plan {
        silence_injected_panics();
        let log = fault_log.insert(FaultLog::new(
            telemetry.metrics.counter("dc.faults_injected"),
        ));
        for (fi, def) in graph.filters.iter().enumerate() {
            for (ci, slot) in contexts[fi].iter_mut().enumerate() {
                let Some(ctx) = slot else { continue };
                let site = plan.site(&format!("{}.{ci}", def.name), log);
                if site.is_empty() {
                    continue;
                }
                let state = Arc::new(CopyFaults::new(site));
                for p in ctx.inputs.values_mut() {
                    p.faults = Some(Arc::clone(&state));
                }
                for p in ctx.outputs.values_mut() {
                    p.faults = Some(Arc::clone(&state));
                }
            }
        }
    }

    // Build each local copy from its factory on the caller's thread (a
    // factory panic propagates), then run its lifecycle on its own thread.
    let start = Instant::now();
    let mut handles = Vec::new();
    for (fi, def) in graph.filters.iter_mut().enumerate() {
        for (ci, slot) in std::mem::take(&mut contexts[fi]).into_iter().enumerate() {
            let Some(ctx) = slot else { continue };
            let name = format!("{}.{}", def.name, ci);
            let filter = (def.factory)(ci);
            let filter_name = def.name.clone();
            let tracer = telemetry.tracer.clone();
            let copy_clocks = Arc::clone(&clocks[fi][ci]);
            let handle = std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || -> Result<()> {
                    let started = Instant::now();
                    let result = run_copy(filter, ctx, &filter_name, &tracer);
                    // racecheck: timing slot; the thread join below is the
                    // happens-before edge to whoever reads it.
                    copy_clocks
                        .total_ns
                        .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    result
                })
                .map_err(GraphStorageError::Io)?;
            handles.push((name, handle));
        }
    }

    // Collect outcomes. When several copies fail, the run reports the
    // root cause (`root_cause`), not the errors it cascades into.
    let mut errors: Vec<GraphStorageError> = Vec::new();
    for (name, handle) in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => errors.push(e),
            // Unreachable: `run_copy` catches filter panics. Kept as a
            // backstop so a runtime bug still surfaces as an error.
            Err(_) => errors.push(GraphStorageError::FilterFailed(format!(
                "filter {name} panicked"
            ))),
        }
    }
    // All local filters joined: flush close notifications to peer
    // processes and wait for theirs (no-op in-process). Best-effort when
    // the run already failed.
    let finish = transport.finish();
    if errors.is_empty() {
        finish?;
    }
    if let Some((root, _)) = errors.iter().enumerate().min_by_key(|(_, e)| root_cause(e)) {
        return Err(errors.swap_remove(root));
    }
    let mut filters = Vec::new();
    let mut net = NetSnapshot::default();
    for (fi, def) in graph.filters.iter().enumerate() {
        for (ci, &node) in def.placement.iter().enumerate() {
            if !is_local(node) {
                continue;
            }
            net = net.merged(&stats[fi][ci].snapshot());
            let c = &clocks[fi][ci];
            // racecheck: timing counters read after every writer joined.
            filters.push(FilterTiming {
                filter: def.name.clone(),
                copy: ci,
                node,
                total: Duration::from_nanos(c.total_ns.load(Ordering::Relaxed)),
                blocked_recv: Duration::from_nanos(c.blocked_recv_ns.load(Ordering::Relaxed)),
                blocked_send: Duration::from_nanos(c.blocked_send_ns.load(Ordering::Relaxed)),
            });
        }
    }
    let faults = fault_log.map(|log| log.events()).unwrap_or_default();
    Ok(RunReport {
        elapsed: start.elapsed(),
        net,
        filters,
        faults,
    })
}

/// Where `err` stands among the errors of one failed run, root causes
/// first: a crash or an injected fault; any other error a copy returns (a
/// corrupt message, a store's I/O error); a lost connection; a timeout,
/// which is what ends the first copy of a wedged graph; and last a copy
/// that hung up, which only happens after another copy stopped.
fn root_cause(err: &GraphStorageError) -> u8 {
    match err {
        GraphStorageError::FilterFailed(_) | GraphStorageError::Fault(_) => 0,
        GraphStorageError::Net(_) => 2,
        GraphStorageError::Timeout(_) => 3,
        err if is_hung_up(err) => 4,
        _ => 1,
    }
}

/// Runs one filter copy's init → process → finalize inside its
/// `filter.run` span. A panic fails the copy (and with it the run) with a
/// typed `FilterFailed` naming the copy and the panic; a returned error
/// propagates as it is.
fn run_copy(
    mut filter: Box<dyn Filter>,
    mut ctx: FilterContext,
    name: &str,
    tracer: &Tracer,
) -> Result<()> {
    let _span = tracer
        .span("filter.run")
        .with_str("filter", name)
        .with("copy", ctx.copy_index as u64)
        .with("node", ctx.node as u64);
    catch_unwind(AssertUnwindSafe(|| {
        filter.init(&mut ctx)?;
        filter.process(&mut ctx)?;
        filter.finalize(&mut ctx)
    }))
    .unwrap_or_else(|payload| {
        Err(GraphStorageError::FilterFailed(format!(
            "filter {name}.{} panicked: {}",
            ctx.copy_index,
            panic_message(payload.as_ref())
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DataBuffer;
    use crate::filter::Filter;
    use crate::superstep::one_word;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Producer {
        count: u64,
    }

    impl Filter for Producer {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            for i in 0..self.count {
                ctx.output("out")?
                    .send_rr(DataBuffer::from_words(0, &[i]))?;
            }
            Ok(())
        }
    }

    struct Collector {
        sum: Arc<AtomicU64>,
    }

    impl Filter for Collector {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            while let Some(b) = ctx.input("in")?.recv()? {
                for w in b.try_words()? {
                    self.sum.fetch_add(w, Ordering::Relaxed);
                }
            }
            Ok(())
        }
    }

    #[test]
    fn pipeline_delivers_all_data() {
        let sum = Arc::new(AtomicU64::new(0));
        let mut g = GraphBuilder::new();
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 100 }))
            .unwrap();
        let sum2 = Arc::clone(&sum);
        let c = g
            .add_filter("c", vec![1, 2], move |_| {
                Box::new(Collector {
                    sum: Arc::clone(&sum2),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        let report = g.run().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<u64>());
        assert_eq!(report.net.local_msgs + report.net.remote_msgs, 100);
    }

    #[test]
    fn colocated_filters_count_as_local() {
        let sum = Arc::new(AtomicU64::new(0));
        let mut g = GraphBuilder::new();
        let p = g
            .add_filter("p", vec![3], |_| Box::new(Producer { count: 10 }))
            .unwrap();
        let sum2 = Arc::clone(&sum);
        let c = g
            .add_filter("c", vec![3], move |_| {
                Box::new(Collector {
                    sum: Arc::clone(&sum2),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        let report = g.run().unwrap();
        assert_eq!(report.net.local_msgs, 10);
        assert_eq!(report.net.remote_msgs, 0);
    }

    struct Broadcaster;
    impl Filter for Broadcaster {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            ctx.output("out")?
                .broadcast(DataBuffer::from_words(0, &[7]))?;
            Ok(())
        }
    }

    #[test]
    fn broadcast_reaches_every_copy() {
        let sum = Arc::new(AtomicU64::new(0));
        let mut g = GraphBuilder::new();
        let b = g
            .add_filter("b", vec![0], |_| Box::new(Broadcaster))
            .unwrap();
        let sum2 = Arc::clone(&sum);
        let c = g
            .add_filter("c", vec![1, 2, 3, 4], move |_| {
                Box::new(Collector {
                    sum: Arc::clone(&sum2),
                })
            })
            .unwrap();
        g.connect(b, "out", c, "in").unwrap();
        g.run().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    struct Failer;
    impl Filter for Failer {
        fn process(&mut self, _ctx: &mut FilterContext) -> Result<()> {
            Err(GraphStorageError::Unsupported("deliberate".into()))
        }
    }

    #[test]
    fn filter_errors_propagate() {
        let mut g = GraphBuilder::new();
        g.add_filter("f", vec![0], |_| Box::new(Failer)).unwrap();
        let err = g.run().unwrap_err();
        assert!(err.to_string().contains("deliberate"));
    }

    struct Panicker;
    impl Filter for Panicker {
        fn process(&mut self, _ctx: &mut FilterContext) -> Result<()> {
            panic!("boom");
        }
    }

    #[test]
    fn filter_panics_become_errors() {
        let mut g = GraphBuilder::new();
        g.add_filter("f", vec![0], |_| Box::new(Panicker)).unwrap();
        let err = g.run().unwrap_err();
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn panicking_copy_fails_the_run_ahead_of_its_peers() {
        // The consumer panics at its third receive; the producer, still
        // sending, then fails with "consumer hung up". The run reports the
        // crash, not the cascade, and well inside the stream deadline.
        let deadline = Duration::from_secs(10);
        let mut g = GraphBuilder::new();
        g.channel_capacity(2);
        g.stream_timeout(deadline);
        g.fault_plan(crate::FaultPlan::new().inject("c.0", 3, crate::FaultKind::Panic));
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 1000 }))
            .unwrap();
        let c = g
            .add_filter("c", vec![1], |_| {
                Box::new(Collector {
                    sum: Arc::new(AtomicU64::new(0)),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        let start = Instant::now();
        match g.run().unwrap_err() {
            GraphStorageError::FilterFailed(m) => {
                assert!(m.contains("filter c.0 panicked"), "got: {m}");
                assert!(m.contains("injected"), "got: {m}");
            }
            other => panic!("expected FilterFailed, got {other:?}"),
        }
        assert!(start.elapsed() < deadline, "took {:?}", start.elapsed());
    }

    #[test]
    fn a_copys_own_error_outranks_the_hang_up_it_causes() {
        // The consumer fails after one receive, with an error that is not
        // a crash; the producer, still sending, then fails with "consumer
        // hung up". The run reports the consumer's error.
        struct FailsAfterOne;
        impl Filter for FailsAfterOne {
            fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
                ctx.input("in")?.recv()?;
                Err(GraphStorageError::corrupt("the consumer's own error"))
            }
        }
        let mut g = GraphBuilder::new();
        g.channel_capacity(2);
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 1000 }))
            .unwrap();
        let c = g
            .add_filter("c", vec![1], |_| Box::new(FailsAfterOne))
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        match g.run().unwrap_err() {
            GraphStorageError::Corrupt(m) => assert!(m.contains("own error"), "got: {m}"),
            other => panic!("expected the consumer's Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn injected_send_error_is_fail_stop() {
        let mut g = GraphBuilder::new();
        g.fault_plan(crate::FaultPlan::new().inject("p.0", 3, crate::FaultKind::SendError));
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 50 }))
            .unwrap();
        let c = g
            .add_filter("c", vec![1], |_| {
                Box::new(Collector {
                    sum: Arc::new(AtomicU64::new(0)),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        let err = g.run().unwrap_err();
        assert!(
            matches!(err, GraphStorageError::Fault(_)),
            "expected injected fault to propagate, got {err:?}"
        );
    }

    #[test]
    fn stalls_fire_and_are_audited() {
        let mut g = GraphBuilder::new();
        g.fault_plan(crate::FaultPlan::new().inject(
            "p.0",
            1,
            crate::FaultKind::Stall(Duration::from_millis(5)),
        ));
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 10 }))
            .unwrap();
        let c = g
            .add_filter("c", vec![1], |_| {
                Box::new(Collector {
                    sum: Arc::new(AtomicU64::new(0)),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        let report = g.run().unwrap();
        assert_eq!(report.faults.len(), 1);
        assert!(matches!(report.faults[0].kind, crate::FaultKind::Stall(_)));
    }

    /// Holds an output port open without ever sending, then exits.
    struct Mute {
        linger: Duration,
    }
    impl Filter for Mute {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            let _ = ctx.output("out")?;
            std::thread::sleep(self.linger);
            Ok(())
        }
    }

    #[test]
    fn stream_timeout_turns_starved_recv_into_typed_error() {
        let mut g = GraphBuilder::new();
        g.stream_timeout(Duration::from_millis(20));
        let p = g
            .add_filter("p", vec![0], |_| {
                Box::new(Mute {
                    linger: Duration::from_millis(300),
                })
            })
            .unwrap();
        let c = g
            .add_filter("c", vec![1], |_| {
                Box::new(Collector {
                    sum: Arc::new(AtomicU64::new(0)),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        let start = Instant::now();
        let err = g.run().unwrap_err();
        assert!(
            matches!(err, GraphStorageError::Timeout(_)),
            "expected timeout, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the run must not hang"
        );
    }

    #[test]
    fn double_connected_out_port_rejected() {
        let mut g = GraphBuilder::new();
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 1 }))
            .unwrap();
        let c1 = g
            .add_filter("c1", vec![0], |_| {
                Box::new(Collector {
                    sum: Arc::new(AtomicU64::new(0)),
                })
            })
            .unwrap();
        let c2 = g
            .add_filter("c2", vec![0], |_| {
                Box::new(Collector {
                    sum: Arc::new(AtomicU64::new(0)),
                })
            })
            .unwrap();
        g.connect(p, "out", c1, "in").unwrap();
        // Re-wiring the same out port is now rejected when the stream is
        // declared, with a typed error naming both destinations.
        let err = g.connect(p, "out", c2, "in").unwrap_err();
        assert!(
            matches!(err, mssg_types::VerifyError::OutPortConflict { .. }),
            "got {err:?}"
        );
    }

    /// All-to-all exchange among copies of one filter — the communication
    /// pattern of the parallel BFS.
    struct Exchanger {
        got: Arc<AtomicU64>,
    }

    impl Filter for Exchanger {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            let me = ctx.copy_index as u64;
            let copies = ctx.copies;
            ctx.output("peers")?
                .broadcast(DataBuffer::from_words(me, &[me * 10]))?;
            ctx.close_output("peers");
            let mut received = 0;
            while let Some(b) = ctx.input("peers")?.recv()? {
                self.got.fetch_add(one_word(&b)?, Ordering::Relaxed);
                received += 1;
            }
            assert_eq!(
                received, copies,
                "each copy hears every copy (incl. itself)"
            );
            Ok(())
        }
    }

    #[test]
    fn self_connected_all_to_all() {
        let got = Arc::new(AtomicU64::new(0));
        let mut g = GraphBuilder::new();
        let got2 = Arc::clone(&got);
        let e = g
            .add_filter("x", vec![0, 1, 2], move |_| {
                Box::new(Exchanger {
                    got: Arc::clone(&got2),
                })
            })
            .unwrap();
        g.connect(e, "peers", e, "peers").unwrap();
        g.run().unwrap();
        // Each of 3 copies broadcasts its value to all 3: sum = 3*(0+10+20).
        assert_eq!(got.load(Ordering::Relaxed), 90);
    }

    /// Consumer that sleeps per item, simulating a slow node.
    struct SlowCollector {
        delay_us: u64,
        got: Arc<AtomicU64>,
        total: Arc<AtomicU64>,
    }

    impl Filter for SlowCollector {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            while let Some(b) = ctx.input("in")?.recv()? {
                std::thread::sleep(std::time::Duration::from_micros(self.delay_us));
                self.got.fetch_add(1, Ordering::Relaxed);
                self.total.fetch_add(one_word(&b)?, Ordering::Relaxed);
            }
            Ok(())
        }
    }

    #[test]
    fn report_includes_per_filter_breakdown() {
        let sum = Arc::new(AtomicU64::new(0));
        let mut g = GraphBuilder::new();
        // Tiny channel + slow consumer: the producer must spend most of
        // its time blocked on send.
        g.channel_capacity(2);
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 50 }))
            .unwrap();
        let sum2 = Arc::clone(&sum);
        let c = g
            .add_filter("c", vec![1], move |_| {
                Box::new(SlowCollector {
                    delay_us: 500,
                    got: Arc::new(AtomicU64::new(0)),
                    total: Arc::clone(&sum2),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        let report = g.run().unwrap();
        assert_eq!(report.filters.len(), 2);
        let timing = |name: &str| report.filters.iter().find(|t| t.filter == name).unwrap();
        let producer = timing("p");
        assert!(producer.total > Duration::ZERO);
        assert!(
            producer.blocked_send > producer.total / 2,
            "producer should be mostly backpressured (blocked {:?} of {:?})",
            producer.blocked_send,
            producer.total
        );
        let consumer = timing("c");
        assert!(consumer.busy() <= consumer.total);
        assert_eq!(consumer.copy, 0);
        assert_eq!(consumer.node, 1);
    }

    #[test]
    fn telemetry_records_spans_and_queue_depth() {
        let telemetry = mssg_obs::Telemetry::enabled();
        let sum = Arc::new(AtomicU64::new(0));
        let mut g = GraphBuilder::new();
        g.telemetry(telemetry.clone());
        let p = g
            .add_filter("p", vec![0], |_| Box::new(Producer { count: 100 }))
            .unwrap();
        let sum2 = Arc::clone(&sum);
        let c = g
            .add_filter("c", vec![1, 2], move |_| {
                Box::new(Collector {
                    sum: Arc::clone(&sum2),
                })
            })
            .unwrap();
        g.connect(p, "out", c, "in").unwrap();
        g.run().unwrap();

        // One filter.run span per copy (1 producer + 2 consumers).
        let spans = telemetry.tracer.finished_spans();
        let runs: Vec<_> = spans.iter().filter(|s| s.name == "filter.run").collect();
        assert_eq!(runs.len(), 3);

        // Queue occupancy was sampled once per send into the stream's
        // histogram.
        let snap = telemetry.metrics.snapshot();
        let depth = &snap.histograms["dc.queue_depth.c.in"];
        assert_eq!(depth.count, 100);
    }

    #[test]
    fn filters_reach_telemetry_through_context() {
        struct Spanner;
        impl Filter for Spanner {
            fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
                let _s = ctx.telemetry().tracer.span("inner.work").with("copy", 1);
                ctx.telemetry().metrics.counter("spanner.calls").inc();
                Ok(())
            }
        }
        let telemetry = mssg_obs::Telemetry::enabled();
        let mut g = GraphBuilder::new();
        g.telemetry(telemetry.clone());
        g.add_filter("s", vec![0], |_| Box::new(Spanner)).unwrap();
        g.run().unwrap();
        assert!(telemetry
            .tracer
            .finished_spans()
            .iter()
            .any(|s| s.name == "inner.work"));
        assert_eq!(telemetry.metrics.snapshot().counters["spanner.calls"], 1);
        // The inner span nests under the runtime's filter.run span.
        let inner = telemetry
            .tracer
            .finished_spans()
            .into_iter()
            .find(|s| s.name == "inner.work");
        assert_eq!(inner.unwrap().path, "filter.run;inner.work");
    }

    #[test]
    fn missing_port_is_an_error() {
        struct NeedsPort;
        impl Filter for NeedsPort {
            fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
                ctx.output("ghost")?;
                Ok(())
            }
        }
        let mut g = GraphBuilder::new();
        g.add_filter("n", vec![0], |_| Box::new(NeedsPort)).unwrap();
        assert!(g.run().is_err());
    }
}
