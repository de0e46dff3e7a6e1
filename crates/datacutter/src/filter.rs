//! The filter interface and its stream ports.

use crate::buffer::DataBuffer;
use crate::fault::CopyFaults;
use crate::netstats::{NetSnapshot, NetStats};
use crate::transport::{RecvOutcome, RxEndpoint, SendOutcome, TxEndpoint};
use crate::NodeId;
use mssg_obs::{Histogram, Telemetry};
use mssg_types::{GraphStorageError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-copy blocked-time accounting, shared between a copy's ports and
/// the runtime. Nanoseconds spent parked on channel operations; the
/// runtime subtracts them from the copy's wall time to get busy time.
#[derive(Debug, Default)]
pub(crate) struct PortClocks {
    /// Time blocked inside `InPort::recv`.
    pub(crate) blocked_recv_ns: AtomicU64,
    /// Time blocked inside `OutPort` sends.
    pub(crate) blocked_send_ns: AtomicU64,
    /// Wall time of the whole filter lifecycle, set once by the runtime.
    pub(crate) total_ns: AtomicU64,
}

/// What one filter copy has done so far in its run: the time its ports
/// spent parked and the traffic it sent. A copy that runs one job after
/// another diffs two readings ([`CopyUsage::since`]) to account one job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyUsage {
    /// Time blocked inside `InPort::recv`.
    pub blocked_recv: Duration,
    /// Time blocked inside `OutPort` sends.
    pub blocked_send: Duration,
    /// Messages and bytes this copy sent.
    pub sent: NetSnapshot,
}

impl CopyUsage {
    /// What was done between `earlier` and this reading.
    pub fn since(&self, earlier: &CopyUsage) -> CopyUsage {
        CopyUsage {
            blocked_recv: self.blocked_recv.saturating_sub(earlier.blocked_recv),
            blocked_send: self.blocked_send.saturating_sub(earlier.blocked_send),
            sent: self.sent.since(&earlier.sent),
        }
    }
}

/// A processing component. The runtime calls `init`, then `process`, then
/// `finalize`, on the filter's own thread. `process` typically loops on an
/// input port until it drains (`recv` returns `Ok(None)` once every
/// producer has finished).
pub trait Filter: Send {
    /// One-time setup before any data flows.
    fn init(&mut self, _ctx: &mut FilterContext) -> Result<()> {
        Ok(())
    }

    /// The filter's main loop.
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()>;

    /// Cleanup after `process` returns; output ports are still open.
    fn finalize(&mut self, _ctx: &mut FilterContext) -> Result<()> {
        Ok(())
    }
}

/// Receiving end of a logical stream (all producer copies merged).
pub struct InPort {
    pub(crate) name: String,
    pub(crate) rx: Box<dyn RxEndpoint>,
    /// Blocked-time clocks of the owning copy (absent in bare test ports).
    pub(crate) clocks: Option<Arc<PortClocks>>,
    /// Give-up deadline per `recv` (from `GraphBuilder::stream_timeout`).
    pub(crate) timeout: Option<Duration>,
    /// Injection state when a `FaultPlan` targets the owning copy.
    pub(crate) faults: Option<Arc<CopyFaults>>,
}

impl InPort {
    /// Blocks for the next buffer. `Ok(None)` once every producer has
    /// closed; [`GraphStorageError::Timeout`] if a stream timeout is
    /// configured and elapses first (the guard against a dead peer that
    /// never closes its end); [`GraphStorageError::Net`] if the transport
    /// itself fails (a lost peer connection over sockets); an injected
    /// fault may panic or stall here.
    pub fn recv(&self) -> Result<Option<DataBuffer>> {
        if let Some(f) = &self.faults {
            f.tick(false)?;
        }
        let start = self.clocks.as_ref().map(|_| Instant::now());
        let got = match self.rx.recv(self.timeout) {
            RecvOutcome::Buf(buf) => Ok(Some(buf)),
            RecvOutcome::Closed => Ok(None),
            RecvOutcome::TimedOut => Err(GraphStorageError::Timeout(format!(
                "recv on input port {:?} gave up after {:?}",
                self.name,
                self.timeout.unwrap_or_default()
            ))),
            RecvOutcome::Failed(e) => Err(e),
        };
        if let (Some(clocks), Some(start)) = (&self.clocks, start) {
            // racecheck: timing counter, read on this copy's thread (`usage`)
            // or after the runtime joins.
            clocks
                .blocked_recv_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        got
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<DataBuffer> {
        self.rx.try_recv()
    }

    /// Drains everything currently queued without blocking.
    pub fn drain(&self) -> Vec<DataBuffer> {
        let mut out = Vec::new();
        while let Some(b) = self.try_recv() {
            out.push(b);
        }
        out
    }
}

/// Sending end of a logical stream: one endpoint per consumer copy.
pub struct OutPort {
    pub(crate) name: String,
    pub(crate) senders: Vec<Box<dyn TxEndpoint>>,
    pub(crate) my_node: NodeId,
    pub(crate) rr: usize,
    pub(crate) stats: Arc<NetStats>,
    /// Blocked-time clocks of the owning copy (absent in bare test ports).
    pub(crate) clocks: Option<Arc<PortClocks>>,
    /// Queue occupancy sampled after each send — backpressure visibility.
    pub(crate) queue_depth: Option<Histogram>,
    /// Give-up deadline per send (from `GraphBuilder::stream_timeout`).
    pub(crate) timeout: Option<Duration>,
    /// Injection state when a `FaultPlan` targets the owning copy.
    pub(crate) faults: Option<Arc<CopyFaults>>,
}

impl OutPort {
    /// Number of consumer copies reachable from this port.
    pub fn consumers(&self) -> usize {
        self.senders.len()
    }

    /// Sends to a specific consumer copy — the addressing mode the
    /// declustering strategies and the vertex-owner fringe exchange use.
    ///
    /// With a stream timeout configured, a send that stays backpressured
    /// past the deadline fails with [`GraphStorageError::Timeout`]; an
    /// injected [`FaultKind::SendError`](crate::FaultKind::SendError)
    /// surfaces as [`GraphStorageError::Fault`] without delivering; a
    /// transport failure (lost peer connection) surfaces as
    /// [`GraphStorageError::Net`].
    pub fn send_to(&mut self, copy: usize, buf: DataBuffer) -> Result<()> {
        if let Some(f) = &self.faults {
            f.tick(true)?;
        }
        let sender = self.senders.get(copy).ok_or_else(|| {
            GraphStorageError::Unsupported(format!(
                "port has {} consumers, copy {copy} addressed",
                self.senders.len()
            ))
        })?;
        // The endpoint reports what this payload costs on *its* wire —
        // payload-only for a memory copy, payload + frame header over a
        // socket — so NetStats reflects real framing overhead.
        self.stats.record(
            self.my_node,
            sender.dst_node(),
            sender.wire_bytes(buf.len()),
        );
        let start = self.clocks.as_ref().map(|_| Instant::now());
        let sent: Result<()> = match sender.send(buf, self.timeout) {
            SendOutcome::Sent => Ok(()),
            SendOutcome::Closed => Err(GraphStorageError::Unsupported("consumer hung up".into())),
            SendOutcome::TimedOut => Err(GraphStorageError::Timeout(format!(
                "send on output port {:?} gave up after {:?}",
                self.name,
                self.timeout.unwrap_or_default()
            ))),
            SendOutcome::Failed(e) => Err(e),
        };
        if let (Some(clocks), Some(start)) = (&self.clocks, start) {
            // racecheck: timing counter, read on this copy's thread (`usage`)
            // or after the runtime joins.
            clocks
                .blocked_send_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if let Some(depth) = &self.queue_depth {
            depth.record(sender.queue_len() as u64);
        }
        sent
    }

    /// Sends to the next consumer in round-robin order.
    pub fn send_rr(&mut self, buf: DataBuffer) -> Result<()> {
        let copy = self.rr % self.senders.len();
        self.rr += 1;
        self.send_to(copy, buf)
    }

    /// Sends a clone to every consumer copy (payload shared, not copied).
    pub fn broadcast(&mut self, buf: DataBuffer) -> Result<()> {
        for copy in 0..self.senders.len() {
            self.send_to(copy, buf.clone())?;
        }
        Ok(())
    }
}

/// Per-instance execution context handed to every [`Filter`] callback.
pub struct FilterContext {
    /// This instance's index among the filter's transparent copies.
    pub copy_index: usize,
    /// Total transparent copies of this filter.
    pub copies: usize,
    /// The logical node this instance is placed on.
    pub node: NodeId,
    pub(crate) inputs: HashMap<String, InPort>,
    pub(crate) outputs: HashMap<String, OutPort>,
    pub(crate) telemetry: Telemetry,
    /// The copy's blocked-time clocks, shared with its ports.
    pub(crate) clocks: Arc<PortClocks>,
    /// What the copy's out ports sent.
    pub(crate) sent: Arc<NetStats>,
}

impl FilterContext {
    /// The run's telemetry bundle: open spans and record metrics from
    /// inside a filter. Disabled (free) unless the graph was built with an
    /// enabled [`Telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// This copy's port clocks and sent traffic, so far in the run.
    pub fn usage(&self) -> CopyUsage {
        // racecheck: timing counters of this copy, read on its own thread.
        let ns = |clock: &AtomicU64| Duration::from_nanos(clock.load(Ordering::Relaxed));
        CopyUsage {
            blocked_recv: ns(&self.clocks.blocked_recv_ns),
            blocked_send: ns(&self.clocks.blocked_send_ns),
            sent: self.sent.snapshot(),
        }
    }

    /// Looks up an input port by name.
    pub fn input(&mut self, name: &str) -> Result<&mut InPort> {
        self.inputs.get_mut(name).ok_or_else(|| {
            GraphStorageError::Unsupported(format!("no input port {name:?} connected"))
        })
    }

    /// Looks up an output port by name.
    pub fn output(&mut self, name: &str) -> Result<&mut OutPort> {
        self.outputs.get_mut(name).ok_or_else(|| {
            GraphStorageError::Unsupported(format!("no output port {name:?} connected"))
        })
    }

    /// Closes an output port early (drops its senders), letting downstream
    /// filters drain before this one finishes.
    pub fn close_output(&mut self, name: &str) {
        self.outputs.remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelRx, ChannelTx};
    use crossbeam::channel::{bounded, Receiver};

    fn out_port(n: usize) -> (OutPort, Vec<Receiver<DataBuffer>>) {
        let mut senders: Vec<Box<dyn TxEndpoint>> = Vec::new();
        let mut receivers = Vec::new();
        for dst in 0..n {
            let (tx, rx) = bounded(16);
            senders.push(Box::new(ChannelTx { tx, dst }));
            receivers.push(rx);
        }
        (
            OutPort {
                name: "out".into(),
                senders,
                my_node: 0,
                rr: 0,
                stats: NetStats::new(),
                clocks: None,
                queue_depth: None,
                timeout: None,
                faults: None,
            },
            receivers,
        )
    }

    fn in_port(rx: Receiver<DataBuffer>, clocks: Option<Arc<PortClocks>>) -> InPort {
        InPort {
            name: "in".into(),
            rx: Box::new(ChannelRx { rx }),
            clocks,
            timeout: None,
            faults: None,
        }
    }

    #[test]
    fn send_to_targets_one_copy() {
        let (mut port, rxs) = out_port(3);
        port.send_to(1, DataBuffer::control(42)).unwrap();
        assert!(rxs[0].try_recv().is_err());
        assert_eq!(rxs[1].try_recv().unwrap().tag, 42);
        assert!(port.send_to(9, DataBuffer::control(0)).is_err());
    }

    #[test]
    fn round_robin_cycles() {
        let (mut port, rxs) = out_port(2);
        for i in 0..4 {
            port.send_rr(DataBuffer::control(i)).unwrap();
        }
        assert_eq!(rxs[0].try_recv().unwrap().tag, 0);
        assert_eq!(rxs[1].try_recv().unwrap().tag, 1);
        assert_eq!(rxs[0].try_recv().unwrap().tag, 2);
        assert_eq!(rxs[1].try_recv().unwrap().tag, 3);
    }

    #[test]
    fn broadcast_reaches_all() {
        let (mut port, rxs) = out_port(3);
        port.broadcast(DataBuffer::from_words(5, &[1])).unwrap();
        for rx in &rxs {
            assert_eq!(rx.try_recv().unwrap().tag, 5);
        }
    }

    #[test]
    fn local_vs_remote_accounting() {
        let (mut port, _rxs) = out_port(2); // consumer nodes 0 and 1; we are node 0
        port.send_to(0, DataBuffer::from_words(0, &[1])).unwrap();
        port.send_to(1, DataBuffer::from_words(0, &[1])).unwrap();
        let snap = port.stats.snapshot();
        assert_eq!(snap.local_msgs, 1);
        assert_eq!(snap.remote_msgs, 1);
        assert_eq!(snap.remote_bytes, 8);
    }

    #[test]
    fn inport_drains() {
        let (tx, rx) = bounded(8);
        tx.send(DataBuffer::control(1)).unwrap();
        tx.send(DataBuffer::control(2)).unwrap();
        let port = in_port(rx, None);
        let drained = port.drain();
        assert_eq!(drained.len(), 2);
        drop(tx);
        assert!(port.recv().unwrap().is_none());
    }

    #[test]
    fn blocked_recv_time_is_accounted() {
        let (tx, rx) = bounded(1);
        let clocks = Arc::new(PortClocks::default());
        let port = in_port(rx, Some(Arc::clone(&clocks)));
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(DataBuffer::control(1)).unwrap();
        });
        assert!(port.recv().unwrap().is_some());
        t.join().unwrap();
        assert!(
            clocks.blocked_recv_ns.load(Ordering::Relaxed) >= 10_000_000,
            "a recv parked ~20ms must show up in the blocked clock"
        );
    }

    #[test]
    fn port_timeouts_surface_as_typed_errors() {
        let (tx, rx) = bounded(1);
        let mut port = in_port(rx, None);
        port.timeout = Some(Duration::from_millis(15));
        match port.recv() {
            Err(GraphStorageError::Timeout(m)) => assert!(m.contains("in")),
            other => panic!("expected recv timeout, got {other:?}"),
        }
        tx.send(DataBuffer::control(1)).unwrap();
        assert!(port.recv().unwrap().is_some());

        let (mut out, rxs) = out_port(1);
        out.timeout = Some(Duration::from_millis(15));
        out.send_to(0, DataBuffer::control(1)).unwrap();
        // Channel capacity is 16: fill it, then the next send must time out.
        for i in 0..15 {
            out.send_to(0, DataBuffer::control(i)).unwrap();
        }
        match out.send_to(0, DataBuffer::control(99)) {
            Err(GraphStorageError::Timeout(_)) => {}
            other => panic!("expected send timeout, got {other:?}"),
        }
        drop(rxs);
        match out.send_to(0, DataBuffer::control(0)) {
            Err(GraphStorageError::Unsupported(m)) => assert!(m.contains("hung up")),
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn queue_depth_sampled_per_send() {
        let depth = Histogram::default();
        let (tx, _rx) = bounded(8);
        let mut port = OutPort {
            name: "out".into(),
            senders: vec![Box::new(ChannelTx { tx, dst: 1 })],
            my_node: 0,
            rr: 0,
            stats: NetStats::new(),
            clocks: Some(Arc::new(PortClocks::default())),
            queue_depth: Some(depth.clone()),
            timeout: None,
            faults: None,
        };
        port.send_to(0, DataBuffer::control(1)).unwrap();
        port.send_to(0, DataBuffer::control(2)).unwrap();
        port.send_to(0, DataBuffer::control(3)).unwrap();
        let snap = depth.snapshot();
        assert_eq!(snap.count, 3, "one occupancy sample per send");
        // Depths observed were 1, 2, 3.
        assert_eq!(snap.sum, 6);
    }
}
