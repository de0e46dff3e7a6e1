//! Static verification of filter graphs: wiring checks and
//! bounded-buffer deadlock analysis, run by [`GraphBuilder::verify`] and
//! gating [`GraphBuilder::run`] by default.
//!
//! ## What is checked
//!
//! **Wiring** (for filters that opted in via
//! [`GraphBuilder::declare_ports`]): every declared port is connected,
//! and every stream touching the filter uses a declared port name. The
//! runtime only discovers a missing port when a filter first asks for it
//! — possibly minutes into a run; declarations move that to launch time.
//!
//! **Decluster contracts** ([`GraphBuilder::expect_consumers`]): a
//! producer that addresses consumer copies by index (`send_to(i)`,
//! round-robin ranges) encodes an assumption about the consumer's copy
//! count. The verifier checks the assumption against the placement
//! actually wired.
//!
//! **Capacity-starved cycles** — the credit-flow analysis. Every stream
//! is a bounded buffer; a cycle of filters can deadlock when all of its
//! buffers fill and every filter blocks on `send` while holding back the
//! `recv` that would drain its predecessor. For each elementary cycle
//! `C` the verifier compares:
//!
//! - `credit(C)`: total messages the cycle's buffers can absorb —
//!   `Σ capacity × copies(consumer)`, since every stream has one queue
//!   per consumer copy;
//! - `window(C)`: the largest burst any producing stage may have in
//!   flight before it drains its own input —
//!   `max(send_window(filter, out_port) × copies(filter))` over the
//!   cycle's edges (send windows declared via
//!   [`GraphBuilder::send_window`], default 1).
//!
//! If `credit(C) < window(C)`, some schedule can wedge the cycle and the
//! graph is rejected with
//! [`VerifyError::CapacityStarvedCycle`] naming the cycle's edges.
//!
//! ## What it cannot prove
//!
//! The analysis is *topological*: it ignores buffers a filter holds in
//! hand between `recv` and `send` (each forwarder in a k-ring can park
//! one extra message, so rings with `credit < window ≤ credit + k − 1`
//! are rejected conservatively even though they squeak by), it trusts
//! declared send windows rather than inferring them from filter code,
//! and it says nothing about protocol-level hangs — a filter that simply
//! never sends what its peer awaits deadlocks with empty buffers; that
//! class is covered by `stream_timeout` at runtime, not statically.
//! Cross-validation of both directions lives in
//! `tests/verify_props.rs` (accepted graphs complete; rejected ring
//! topologies demonstrably deadlock when run unverified).

use crate::graph::GraphBuilder;
use mssg_types::VerifyError;
use std::collections::HashMap;

/// Most elementary cycles examined before the analysis stops adding
/// findings (a safety valve for pathological topologies; real graphs in
/// this workspace have a handful).
const MAX_CYCLES: usize = 256;

/// Runs every static check over the built graph, returning all findings
/// (empty result = verified). See the module docs for the check list.
pub(crate) fn verify(g: &GraphBuilder) -> Result<(), Vec<VerifyError>> {
    let mut errs: Vec<VerifyError> = Vec::new();
    check_declarations(g, &mut errs);
    check_consumer_contracts(g, &mut errs);
    check_cycles(g, &mut errs);
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn check_declarations(g: &GraphBuilder, errs: &mut Vec<VerifyError>) {
    for (&fi, decl) in &g.decls {
        let name = &g.filters[fi].name;
        for port in &decl.inputs {
            if !g.streams.iter().any(|s| s.to == fi && &s.in_port == port) {
                errs.push(VerifyError::UnconnectedInPort {
                    filter: name.clone(),
                    port: port.clone(),
                });
            }
        }
        for port in &decl.outputs {
            if !g
                .streams
                .iter()
                .any(|s| s.from == fi && &s.out_port == port)
            {
                errs.push(VerifyError::UnconnectedOutPort {
                    filter: name.clone(),
                    port: port.clone(),
                });
            }
        }
        for s in &g.streams {
            if s.to == fi && !decl.inputs.contains(&s.in_port) {
                errs.push(VerifyError::UndeclaredPort {
                    filter: name.clone(),
                    port: s.in_port.clone(),
                    input: true,
                });
            }
            if s.from == fi && !decl.outputs.contains(&s.out_port) {
                errs.push(VerifyError::UndeclaredPort {
                    filter: name.clone(),
                    port: s.out_port.clone(),
                    input: false,
                });
            }
        }
    }
}

fn check_consumer_contracts(g: &GraphBuilder, errs: &mut Vec<VerifyError>) {
    for ((fi, out_port), &expected) in &g.expected_consumers {
        for s in &g.streams {
            if s.from == *fi && &s.out_port == out_port {
                let actual = g.filters[s.to].placement.len();
                if actual != expected {
                    errs.push(VerifyError::ConsumerMismatch {
                        filter: g.filters[*fi].name.clone(),
                        out_port: out_port.clone(),
                        expected,
                        actual,
                    });
                }
            }
        }
    }
}

/// Buffer credit one stream contributes to a cycle: its capacity times
/// its queue count, one queue per consumer copy.
fn stream_credit(g: &GraphBuilder, edge: usize) -> u64 {
    let queues = g.filters[g.streams[edge].to].placement.len();
    g.channel_capacity as u64 * queues as u64
}

/// In-flight demand one stream's producer contributes: its declared
/// per-copy send window times its copy count.
fn stream_window(g: &GraphBuilder, edge: usize) -> u64 {
    let s = &g.streams[edge];
    let per_copy = g
        .windows
        .get(&(s.from, s.out_port.clone()))
        .copied()
        .unwrap_or(1);
    per_copy * g.filters[s.from].placement.len() as u64
}

fn check_cycles(g: &GraphBuilder, errs: &mut Vec<VerifyError>) {
    // Adjacency by filter: for each ordered filter pair, the cheapest
    // (least-credit) stream edge — the conservative representative when
    // parallel edges exist, since a cycle through the tightest buffers
    // is the first to starve.
    let n = g.filters.len();
    let mut adj: HashMap<(usize, usize), usize> = HashMap::new();
    for (ei, s) in g.streams.iter().enumerate() {
        let key = (s.from, s.to);
        match adj.get(&key) {
            Some(&prev) if stream_credit(g, prev) <= stream_credit(g, ei) => {}
            _ => {
                adj.insert(key, ei);
            }
        }
    }
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|f| {
            let mut out: Vec<usize> = adj
                .iter()
                .filter(|((from, _), _)| *from == f)
                .map(|(_, &e)| e)
                .collect();
            out.sort_unstable();
            out
        })
        .collect();

    // Elementary-cycle enumeration: DFS from each start filter, visiting
    // only filters ≥ start (each cycle is found exactly once, rooted at
    // its smallest filter index).
    let mut found = 0usize;
    for start in 0..n {
        let mut path: Vec<usize> = Vec::new(); // stream edge indices
        let mut on_stack = vec![false; n];
        dfs(
            g,
            &succ,
            start,
            start,
            &mut path,
            &mut on_stack,
            &mut found,
            errs,
        );
        if found >= MAX_CYCLES {
            break;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &GraphBuilder,
    succ: &[Vec<usize>],
    start: usize,
    at: usize,
    path: &mut Vec<usize>,
    on_stack: &mut [bool],
    found: &mut usize,
    errs: &mut Vec<VerifyError>,
) {
    if *found >= MAX_CYCLES {
        return;
    }
    on_stack[at] = true;
    for &edge in &succ[at] {
        let to = g.streams[edge].to;
        if to < start {
            continue;
        }
        if to == start {
            path.push(edge);
            *found += 1;
            audit_cycle(g, path, errs);
            path.pop();
        } else if !on_stack[to] {
            path.push(edge);
            dfs(g, succ, start, to, path, on_stack, found, errs);
            path.pop();
        }
    }
    on_stack[at] = false;
}

fn audit_cycle(g: &GraphBuilder, edges: &[usize], errs: &mut Vec<VerifyError>) {
    let credit: u64 = edges.iter().map(|&e| stream_credit(g, e)).sum();
    let window: u64 = edges
        .iter()
        .map(|&e| stream_window(g, e))
        .max()
        .unwrap_or(1);
    if credit < window {
        let cycle = edges
            .iter()
            .map(|&e| {
                let s = &g.streams[e];
                format!(
                    "{}.{} -> {}.{}",
                    g.filters[s.from].name, s.out_port, g.filters[s.to].name, s.in_port
                )
            })
            .collect();
        errs.push(VerifyError::CapacityStarvedCycle {
            cycle,
            credit,
            window,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DataBuffer;
    use crate::filter::{Filter, FilterContext};
    use mssg_types::Result;

    /// Inert filter for topology-only tests.
    struct Nop;
    impl Filter for Nop {
        fn process(&mut self, _ctx: &mut FilterContext) -> Result<()> {
            Ok(())
        }
    }

    fn nop() -> Box<dyn Filter> {
        Box::new(Nop)
    }

    #[test]
    fn empty_graph_verifies() {
        let g = GraphBuilder::new();
        assert!(g.verify().is_ok());
    }

    #[test]
    fn undeclared_graphs_get_structural_checks_only() {
        // No declarations: a dangling filter is fine (sources/sinks exist).
        let mut g = GraphBuilder::new();
        g.add_filter("solo", vec![0], |_| nop()).unwrap();
        assert!(g.verify().is_ok());
    }

    #[test]
    fn declared_ports_must_be_connected() {
        let mut g = GraphBuilder::new();
        let f = g.add_filter("f", vec![0], |_| nop()).unwrap();
        g.declare_ports(f, &["in"], &["out"]);
        let errs = g.verify().unwrap_err();
        assert!(errs.iter().any(
            |e| matches!(e, VerifyError::UnconnectedInPort { filter, port }
                if filter == "f" && port == "in")
        ));
        assert!(errs.iter().any(
            |e| matches!(e, VerifyError::UnconnectedOutPort { filter, port }
                if filter == "f" && port == "out")
        ));
    }

    #[test]
    fn streams_must_use_declared_ports() {
        let mut g = GraphBuilder::new();
        let a = g.add_filter("a", vec![0], |_| nop()).unwrap();
        let b = g.add_filter("b", vec![0], |_| nop()).unwrap();
        g.declare_ports(b, &["expected"], &[]);
        g.connect(a, "out", b, "typo").unwrap();
        let errs = g.verify().unwrap_err();
        assert!(errs.iter().any(
            |e| matches!(e, VerifyError::UndeclaredPort { filter, port, input: true }
                if filter == "b" && port == "typo")
        ));
    }

    #[test]
    fn consumer_contract_mismatch_detected() {
        let mut g = GraphBuilder::new();
        let p = g.add_filter("p", vec![0], |_| nop()).unwrap();
        let c = g.add_filter("c", vec![1, 2], |_| nop()).unwrap();
        g.connect(p, "out", c, "in").unwrap();
        g.expect_consumers(p, "out", 4);
        let errs = g.verify().unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            VerifyError::ConsumerMismatch {
                expected: 4,
                actual: 2,
                ..
            }
        )));
        // Matching contract verifies clean.
        let mut g = GraphBuilder::new();
        let p = g.add_filter("p", vec![0], |_| nop()).unwrap();
        let c = g.add_filter("c", vec![1, 2], |_| nop()).unwrap();
        g.connect(p, "out", c, "in").unwrap();
        g.expect_consumers(p, "out", 2);
        assert!(g.verify().is_ok());
    }

    #[test]
    fn acyclic_pipelines_always_pass_the_cycle_check() {
        let mut g = GraphBuilder::new();
        g.channel_capacity(1);
        let a = g.add_filter("a", vec![0], |_| nop()).unwrap();
        let b = g.add_filter("b", vec![0], |_| nop()).unwrap();
        let c = g.add_filter("c", vec![0], |_| nop()).unwrap();
        g.connect(a, "out", b, "in").unwrap();
        g.connect(b, "out", c, "in").unwrap();
        g.send_window(a, "out", 1_000_000);
        assert!(g.verify().is_ok(), "no cycle, no credit constraint");
    }

    #[test]
    fn capacity_starved_ring_rejected_with_named_cycle() {
        // Two-filter ring, capacity 1 each way (credit 2), but the driver
        // declares it bursts 4 before draining: starved.
        let mut g = GraphBuilder::new();
        g.channel_capacity(1);
        let a = g.add_filter("a", vec![0], |_| nop()).unwrap();
        let b = g.add_filter("b", vec![0], |_| nop()).unwrap();
        g.connect(a, "down", b, "in").unwrap();
        g.connect(b, "up", a, "back").unwrap();
        g.send_window(a, "down", 4);
        let errs = g.verify().unwrap_err();
        let starved = errs
            .iter()
            .find_map(|e| match e {
                VerifyError::CapacityStarvedCycle {
                    cycle,
                    credit,
                    window,
                } => Some((cycle, *credit, *window)),
                _ => None,
            })
            .expect("starved cycle reported");
        let (cycle, credit, window) = starved;
        assert_eq!(credit, 2);
        assert_eq!(window, 4);
        assert!(
            cycle.iter().any(|e| e.contains("a.down -> b.in")),
            "{cycle:?}"
        );
        assert!(
            cycle.iter().any(|e| e.contains("b.up -> a.back")),
            "{cycle:?}"
        );
        // The same ring with enough credit passes.
        let mut g = GraphBuilder::new();
        g.channel_capacity(2);
        let a = g.add_filter("a", vec![0], |_| nop()).unwrap();
        let b = g.add_filter("b", vec![0], |_| nop()).unwrap();
        g.connect(a, "down", b, "in").unwrap();
        g.connect(b, "up", a, "back").unwrap();
        g.send_window(a, "down", 4);
        assert!(g.verify().is_ok());
    }

    #[test]
    fn self_loop_window_scales_with_copies() {
        // One filter, 3 copies, all-to-all self-loop. Each copy may have
        // `w` in flight, so the cycle's window is 3w; the addressed
        // stream has one queue per copy, so credit is 3·cap.
        let mut g = GraphBuilder::new();
        g.channel_capacity(2);
        let x = g.add_filter("x", vec![0, 1, 2], |_| nop()).unwrap();
        g.connect(x, "peers", x, "peers").unwrap();
        g.send_window(x, "peers", 2);
        assert!(g.verify().is_ok(), "3·2 credit ≥ 3·2 window");
        let mut g = GraphBuilder::new();
        g.channel_capacity(2);
        let x = g.add_filter("x", vec![0, 1, 2], |_| nop()).unwrap();
        g.connect(x, "peers", x, "peers").unwrap();
        g.send_window(x, "peers", 3);
        let errs = g.verify().unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            VerifyError::CapacityStarvedCycle {
                credit: 6,
                window: 9,
                ..
            }
        )));
    }

    #[test]
    fn builder_rejects_duplicates_at_build_time() {
        let mut g = GraphBuilder::new();
        g.add_filter("same", vec![0], |_| nop()).unwrap();
        assert!(matches!(
            g.add_filter("same", vec![1], |_| nop()),
            Err(VerifyError::DuplicateFilter { .. })
        ));
        assert!(matches!(
            g.add_filter("empty", vec![], |_| nop()),
            Err(VerifyError::EmptyPlacement { .. })
        ));
        let a = g.add_filter("a", vec![0], |_| nop()).unwrap();
        let b = g.add_filter("b", vec![0], |_| nop()).unwrap();
        g.connect(a, "out", b, "in").unwrap();
        assert!(matches!(
            g.connect(a, "out", b, "in"),
            Err(VerifyError::DuplicateStream { .. })
        ));
        let c = g.add_filter("c", vec![0], |_| nop()).unwrap();
        assert!(matches!(
            g.connect(a, "out", c, "in"),
            Err(VerifyError::OutPortConflict { .. })
        ));
    }

    /// A real starved ring must also be *dynamically* refused by the
    /// default gate in `run` — the static diagnostic and the gate agree.
    struct Burst {
        n: u64,
    }
    impl Filter for Burst {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            for i in 0..self.n {
                ctx.output("down")?
                    .send_to(0, DataBuffer::from_words(0, &[i]))?;
            }
            Ok(())
        }
    }

    #[test]
    fn run_refuses_unverified_graph_by_default() {
        let mut g = GraphBuilder::new();
        g.channel_capacity(1);
        let a = g
            .add_filter("a", vec![0], |_| Box::new(Burst { n: 4 }))
            .unwrap();
        let b = g.add_filter("b", vec![0], |_| nop()).unwrap();
        g.connect(a, "down", b, "in").unwrap();
        g.connect(b, "up", a, "back").unwrap();
        g.send_window(a, "down", 4);
        let err = g.run().unwrap_err();
        match err {
            mssg_types::GraphStorageError::Verify(VerifyError::CapacityStarvedCycle {
                cycle,
                ..
            }) => {
                assert!(cycle.iter().any(|e| e.contains("a.down")), "{cycle:?}");
            }
            other => panic!("expected a verify rejection, got {other:?}"),
        }
    }
}
