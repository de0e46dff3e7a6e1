//! The model link: [`TcpTransport`] explored exhaustively under
//! `mssg-modelcheck`.
//!
//! Over sockets a protocol bug — a lost credit, a missed CLOSE, a barrier
//! that never completes — shows up as a rare hang under load.
//! [`model_cluster`] builds the *same* transports (same credit window,
//! routes, control barrier, `dispatch` and endpoints; see the link seam
//! in [`crate::tcp`]) inside a [`mssg_modelcheck::check`] execution, where
//! the scheduler drives every interleaving of the node threads. A
//! deadlock, a lost frame, or a credit leak in *any* schedule fails the
//! check with the exact trace.
//!
//! # What the link abstracts
//!
//! Wires are **zero-latency FIFO**: the link runs the destination node's
//! frame dispatcher inline at the send point, where a socket would hand
//! the frame to the peer's reader thread. TCP's arbitrary delivery delay
//! is subsumed by the scheduler's freedom to delay the *threads* on both
//! sides around each dispatch: every observable ordering of protocol
//! state transitions is still explored, without the per-connection
//! reader threads whose independent stepping would blow the schedule
//! space past exhaustive reach (measured: a bare two-node READY/BYE
//! exchange exceeds 2M schedules with reader threads, and sits in the
//! hundreds without).
//!
//! - There is no handshake, and no reader threads: clusters
//!   start past HELLO with all wires established, and frames are Rust
//!   values, so the wire *format* is out of scope — [`crate::wire`] has
//!   its own round-trip suite.
//! - Barriers are untimed (sends and receives take the caller's timeout,
//!   and the scenarios pass none): a protocol state that would stall a
//!   production node forever is *reported* as a model deadlock instead
//!   of papered over by a timeout.
//! - A [`FaultPlan<LinkFault>`] breaks the wire on purpose — negative
//!   controls proving the exploration would catch a real implementation
//!   bug. It is the workspace's one fault grammar (`datacutter::fault`):
//!   sites are `"{from}->{to}:{frame kind}"` (`"1->0:Credit"`), ops count
//!   that site's frames from 0, and each injection fires once.
//!
//! Build a cluster with [`model_cluster`] *inside* a `check` closure,
//! run one model thread per node, then call
//! [`CreditAudit::assert_balanced`] after every node thread has joined:
//! all refunds dispatch no later than the producer-side `finish`
//! returns, so a non-full credit window at that point is a leak in the
//! protocol, not an artifact of timing.

use crate::tcp::{Link, Shared, TcpOptions, TcpTransport};
use crate::wire::{Frame, FrameKind};
use datacutter::fault::{Fault, FaultLog, FaultPlan, SiteFaults};
use datacutter::NodeId;
use mssg_types::{splitmix64, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What a model link does to one frame when a fault fires. Each negative
/// control must make the exploration fail (deadlock, credit leak, or typed
/// transport death), proving the checker would catch the equivalent
/// implementation bug: a dropped CREDIT starves the producer window (or,
/// with window to spare, leaks); a dropped CLOSE leaves the consumer's
/// merged stream connected; a duplicated CREDIT lifts the window above
/// its capacity, which the receiver must refuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// The frame vanishes on the wire.
    Drop,
    /// The frame arrives twice.
    Duplicate,
}

impl Fault for LinkFault {
    fn draw(rng: &mut u64) -> LinkFault {
        match splitmix64(rng) % 2 {
            0 => LinkFault::Drop,
            _ => LinkFault::Duplicate,
        }
    }
}

/// One node's fault state: the plan, and per site the frames seen so far
/// and what is left to fire. The scenarios read what a fault did from the
/// exploration's report, so what fires is logged nowhere.
struct NodeFaults {
    plan: FaultPlan<LinkFault>,
    sites: Mutex<HashMap<String, (u64, SiteFaults<LinkFault>)>>,
}

/// One node's outgoing wires: every node's protocol state, indexed by
/// [`NodeId`]. Filled by [`model_cluster`]; cleared by the owning node's
/// `finish`, which also breaks the reference cycle (each node's state
/// holds its link, which holds every node's state).
type Wires = Arc<Mutex<Vec<Arc<Shared>>>>;

struct ModelLink {
    from: NodeId,
    wires: Wires,
    /// `None` when the plan is empty: no per-frame work.
    faults: Option<NodeFaults>,
}

impl ModelLink {
    /// How many copies of a `kind` frame to `to` the wire delivers.
    fn copies(&self, to: NodeId, kind: FrameKind) -> usize {
        let Some(faults) = &self.faults else {
            return 1;
        };
        let site = format!("{}->{to}:{kind:?}", self.from);
        let mut sites = faults.sites.lock().unwrap();
        let (frames, pending) = sites
            .entry(site)
            .or_insert_with_key(|site| (0, faults.plan.site(site, &FaultLog::default())));
        let op = *frames;
        *frames += 1;
        match pending.fire(op, |_| true) {
            None => 1,
            Some(LinkFault::Drop) => 0,
            Some(LinkFault::Duplicate) => 2,
        }
    }

    /// Delivers `frame` to node `to` inline, on the sending thread.
    /// Frames sent after this node's `finish` released its wires are
    /// dropped, like best-effort teardown traffic on a half-closed
    /// socket.
    fn carry(&self, to: NodeId, frame: Frame) {
        let copies = self.copies(to, frame.kind);
        // The guard is released before dispatch: no `std` lock is held
        // across a scheduling point.
        let dst = self.wires.lock().unwrap().get(to).cloned();
        if let Some(dst) = dst {
            for _ in 0..copies {
                // A violation kills the *receiving* node, as a reader
                // thread would; the wire itself accepted the frame.
                let _ = dst.deliver(self.from, frame.clone());
            }
        }
    }
}

impl Link for ModelLink {
    fn send_frame(&self, to: NodeId, frame: Frame) -> Result<()> {
        self.carry(to, frame);
        Ok(())
    }

    fn send_data(
        &self,
        to: NodeId,
        stream: u32,
        tag: u64,
        span: u64,
        payload: &[u8],
    ) -> Result<()> {
        self.carry(to, Frame::data(stream, tag, payload).with_span(span));
        Ok(())
    }

    fn shutdown(&self) {
        self.wires.lock().unwrap().clear();
    }
}

/// Post-run credit-balance check for one node; obtain via
/// [`TcpTransport::audit`] *before* moving the transport into its node
/// thread, and assert *after* joining every node thread.
pub struct CreditAudit {
    shared: Arc<Shared>,
}

impl CreditAudit {
    /// Why this node is not at rest, if it is not: the transport died, or
    /// some stream's window is short of its configured capacity. Each
    /// spent credit must have been refunded — by a pop, by the
    /// consumers-gone path, or by the endpoint-drop drain.
    pub fn imbalance(&self) -> Option<String> {
        if let Some(e) = self.shared.dead() {
            return Some(format!("node died: {e}"));
        }
        let cells: Vec<_> = {
            let map = self.shared.credits.lock().unwrap();
            map.iter().map(|(s, c)| (*s, Arc::clone(c))).collect()
        };
        cells.into_iter().find_map(|(stream, cell)| {
            let leaked = cell.in_flight();
            (leaked > 0).then(|| {
                format!("credit leak on stream {stream}: {leaked} credit(s) never refunded")
            })
        })
    }

    /// Panics (failing the check with a counterexample schedule) on any
    /// [`CreditAudit::imbalance`].
    pub fn assert_balanced(&self) {
        if let Some(why) = self.imbalance() {
            panic!("{why}");
        }
    }
}

impl TcpTransport {
    /// This node's credit-balance checker (a handle on the shared state,
    /// so it stays valid after the transport moves into its node thread).
    pub fn audit(&self) -> CreditAudit {
        CreditAudit {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Builds an `n_nodes`-node cluster of transports joined by model links,
/// every wire established, breaking frames as `faults` schedules (pass
/// `FaultPlan::new()` for clean wires). Must be called inside a
/// [`mssg_modelcheck::check`] closure; run each returned transport on its
/// own model thread, exactly like one process per node.
pub fn model_cluster(n_nodes: usize, faults: &FaultPlan<LinkFault>) -> Vec<TcpTransport> {
    let wires: Vec<Wires> = (0..n_nodes).map(|_| Wires::default()).collect();
    let nodes: Vec<TcpTransport> = wires
        .iter()
        .enumerate()
        .map(|(from, wires)| {
            let link = ModelLink {
                from,
                wires: Arc::clone(wires),
                faults: (!faults.is_empty()).then(|| NodeFaults {
                    plan: faults.clone(),
                    sites: Mutex::default(),
                }),
            };
            TcpTransport::over_link(
                from,
                n_nodes,
                Box::new(link),
                None,
                HashMap::new(),
                &TcpOptions::default(),
            )
        })
        .collect();
    let cluster: Vec<Arc<Shared>> = nodes.iter().map(|t| Arc::clone(&t.shared)).collect();
    for wires in &wires {
        *wires.lock().unwrap() = cluster.clone();
    }
    nodes
}
