//! The transport abstraction: how logical stream endpoints move
//! [`DataBuffer`]s between filter copies.
//!
//! The runtime wires ports through the [`Transport`] trait instead of
//! touching channels directly, so the same [`GraphBuilder`] description
//! can run all copies in one process ([`InProc`], crossbeam channels —
//! the classic substrate) or as one OS process per [`NodeId`] with
//! streams carried over TCP (`mssg-net`'s `TcpTransport`).
//!
//! Endpoint identity is *deterministic*: every process derives the same
//! [`EndpointSpec`] table from the same graph description (specs are
//! assigned in stream-declaration order), which is what lets separate
//! processes agree on stream ids without any coordination beyond the
//! topology handshake. Every endpoint is addressed: one receive queue
//! per consumer copy's input port, on the node that copy is placed on, so
//! every stream can cross a process boundary.
//!
//! [`GraphBuilder`]: crate::GraphBuilder

use crate::buffer::DataBuffer;
use crate::NodeId;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender};
use mssg_types::{GraphStorageError, Result};
use std::collections::HashMap;
use std::time::Duration;

/// What a blocking receive produced.
#[derive(Debug)]
pub enum RecvOutcome {
    /// A buffer arrived.
    Buf(DataBuffer),
    /// Every producer has closed its end; the stream is drained.
    Closed,
    /// The optional deadline elapsed first.
    TimedOut,
    /// The transport failed (e.g. a peer connection was lost).
    Failed(GraphStorageError),
}

/// What a blocking send produced.
#[derive(Debug)]
pub enum SendOutcome {
    /// The buffer was accepted.
    Sent,
    /// The consumer endpoint is gone ("consumer hung up").
    Closed,
    /// The optional deadline elapsed with the stream still backpressured.
    TimedOut,
    /// The transport failed (e.g. a peer connection was lost).
    Failed(GraphStorageError),
}

/// Receiving half of one logical stream endpoint (all producer copies
/// merged), as handed to an `InPort`.
pub trait RxEndpoint: Send {
    /// Blocks for the next buffer, up to `timeout` if given.
    /// `timeout: None` blocks until data or close — it never returns
    /// [`RecvOutcome::TimedOut`].
    fn recv(&self, timeout: Option<Duration>) -> RecvOutcome;

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<DataBuffer>;
}

/// Sending half of one logical stream endpoint, as held by an `OutPort`
/// (one per consumer copy).
pub trait TxEndpoint: Send {
    /// Blocks until the buffer is accepted, up to `timeout` if given.
    fn send(&self, buf: DataBuffer, timeout: Option<Duration>) -> SendOutcome;

    /// Node the consumer endpoint lives on, for locality accounting.
    fn dst_node(&self) -> NodeId;

    /// Bytes a payload of `payload_len` puts on the wire: the payload
    /// itself in-process, payload plus frame header over a socket. Feeds
    /// `NetStats` so remote byte counts reflect real framing overhead.
    fn wire_bytes(&self, payload_len: usize) -> u64;

    /// Current occupancy of the destination queue (in-flight buffers for
    /// socket transports) — the backpressure sample.
    fn queue_len(&self) -> usize;
}

/// One logical stream endpoint: the receive queue of one consumer copy's
/// input port.
/// Derived deterministically from the graph, identical in every process.
#[derive(Clone, Debug)]
pub struct EndpointSpec {
    /// Dense id, assigned in stream-declaration order — the wire-level
    /// stream id.
    pub id: u64,
    /// Consumer filter name (diagnostics).
    pub filter: String,
    /// Consumer input port name (diagnostics).
    pub in_port: String,
    /// Consumer copy index.
    pub copy: usize,
    /// Node the consumer copy is placed on.
    pub node: NodeId,
    /// Bounded queue depth (backpressure credit).
    pub capacity: usize,
    /// Producer copies co-located with `node` (they never touch a socket,
    /// whatever the transport).
    pub local_producers: usize,
    /// Producer copies on *other* nodes, as `(producer node, copies)` —
    /// the peers a socket transport must accept frames and closes from.
    pub remote_producers: Vec<(NodeId, usize)>,
}

impl EndpointSpec {
    /// Total producer copies feeding this endpoint.
    pub fn producers(&self) -> usize {
        self.local_producers + self.remote_producers.iter().map(|(_, c)| c).sum::<usize>()
    }
}

/// Carries logical streams between filter copies. `open_endpoint` /
/// `open_sender` are called during graph wiring (endpoints first, then
/// senders), `start` once wiring is complete and before any filter runs,
/// `finish` after every local filter has joined.
pub trait Transport {
    /// Creates the receive side of `spec`. Called exactly once per local
    /// endpoint.
    fn open_endpoint(&mut self, spec: &EndpointSpec) -> Result<Box<dyn RxEndpoint>>;

    /// Creates one producer copy's send handle onto `spec`. Called once
    /// per (local producer copy, endpoint); each handle has its own close
    /// identity.
    fn open_sender(&mut self, spec: &EndpointSpec) -> Result<Box<dyn TxEndpoint>>;

    /// Wiring is complete: release the transport's own endpoint handles
    /// (so streams close when producers finish) and synchronize with
    /// peers before data flows.
    fn start(&mut self) -> Result<()> {
        Ok(())
    }

    /// All local filters have joined: flush close notifications and wait
    /// for peers to finish theirs. Best-effort — a dead peer must not
    /// turn a completed local run into an error here.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The classic substrate: every node is a thread in this process and a
/// stream endpoint is a bounded crossbeam channel. Zero behavior change
/// from the pre-transport runtime.
#[derive(Default)]
pub struct InProc {
    /// Master senders, dropped at `start` so streams close once the
    /// producer-held clones do.
    masters: HashMap<u64, Sender<DataBuffer>>,
}

impl InProc {
    /// An empty in-process transport.
    pub fn new() -> InProc {
        InProc::default()
    }
}

impl Transport for InProc {
    fn open_endpoint(&mut self, spec: &EndpointSpec) -> Result<Box<dyn RxEndpoint>> {
        let (tx, rx) = bounded(spec.capacity);
        self.masters.insert(spec.id, tx);
        Ok(Box::new(ChannelRx { rx }))
    }

    fn open_sender(&mut self, spec: &EndpointSpec) -> Result<Box<dyn TxEndpoint>> {
        let tx = self.masters.get(&spec.id).ok_or_else(|| {
            GraphStorageError::Unsupported(format!(
                "no endpoint {} ({}.{}) opened before its sender",
                spec.id, spec.filter, spec.in_port
            ))
        })?;
        Ok(Box::new(ChannelTx {
            tx: tx.clone(),
            dst: spec.node,
        }))
    }

    fn start(&mut self) -> Result<()> {
        // Drop the master senders so each stream disconnects once every
        // producer-held clone is gone.
        self.masters.clear();
        Ok(())
    }
}

/// [`RxEndpoint`] over a crossbeam receiver.
pub struct ChannelRx {
    pub(crate) rx: Receiver<DataBuffer>,
}

impl ChannelRx {
    /// Wraps a receiver as an endpoint — for transports that serve some
    /// endpoints from plain local channels (e.g. `mssg-net`'s co-located
    /// producer paths).
    pub fn new(rx: Receiver<DataBuffer>) -> ChannelRx {
        ChannelRx { rx }
    }
}

impl RxEndpoint for ChannelRx {
    fn recv(&self, timeout: Option<Duration>) -> RecvOutcome {
        match timeout {
            None => match self.rx.recv() {
                Ok(buf) => RecvOutcome::Buf(buf),
                Err(_) => RecvOutcome::Closed,
            },
            Some(limit) => match self.rx.recv_timeout(limit) {
                Ok(buf) => RecvOutcome::Buf(buf),
                Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
                Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            },
        }
    }

    fn try_recv(&self) -> Option<DataBuffer> {
        self.rx.try_recv().ok()
    }
}

/// [`TxEndpoint`] over a crossbeam sender.
pub struct ChannelTx {
    pub(crate) tx: Sender<DataBuffer>,
    pub(crate) dst: NodeId,
}

impl ChannelTx {
    /// Wraps a sender as an endpoint charging traffic to `dst`.
    pub fn new(tx: Sender<DataBuffer>, dst: NodeId) -> ChannelTx {
        ChannelTx { tx, dst }
    }
}

impl TxEndpoint for ChannelTx {
    fn send(&self, buf: DataBuffer, timeout: Option<Duration>) -> SendOutcome {
        match timeout {
            None => match self.tx.send(buf) {
                Ok(()) => SendOutcome::Sent,
                Err(_) => SendOutcome::Closed,
            },
            Some(limit) => match self.tx.send_timeout(buf, limit) {
                Ok(()) => SendOutcome::Sent,
                Err(SendTimeoutError::Disconnected(_)) => SendOutcome::Closed,
                Err(SendTimeoutError::Timeout(_)) => SendOutcome::TimedOut,
            },
        }
    }

    fn dst_node(&self) -> NodeId {
        self.dst
    }

    fn wire_bytes(&self, payload_len: usize) -> u64 {
        // A memory copy carries exactly the payload.
        payload_len as u64
    }

    fn queue_len(&self) -> usize {
        self.tx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, node: NodeId) -> EndpointSpec {
        EndpointSpec {
            id,
            filter: "c".into(),
            in_port: "in".into(),
            copy: 0,
            node,
            capacity: 4,
            local_producers: 1,
            remote_producers: Vec::new(),
        }
    }

    #[test]
    fn inproc_round_trip_and_close() {
        let mut t = InProc::new();
        let rx = t.open_endpoint(&spec(0, 1)).unwrap();
        let tx = t.open_sender(&spec(0, 1)).unwrap();
        t.start().unwrap();
        assert!(matches!(
            tx.send(DataBuffer::control(7), None),
            SendOutcome::Sent
        ));
        assert_eq!(tx.dst_node(), 1);
        assert_eq!(tx.wire_bytes(100), 100);
        match rx.recv(None) {
            RecvOutcome::Buf(b) => assert_eq!(b.tag, 7),
            other => panic!("expected a buffer, got {other:?}"),
        }
        drop(tx);
        assert!(matches!(rx.recv(None), RecvOutcome::Closed));
    }

    #[test]
    fn inproc_timeouts_and_backpressure() {
        let mut t = InProc::new();
        let rx = t.open_endpoint(&spec(0, 0)).unwrap();
        let tx = t.open_sender(&spec(0, 0)).unwrap();
        t.start().unwrap();
        assert!(matches!(
            rx.recv(Some(Duration::from_millis(5))),
            RecvOutcome::TimedOut
        ));
        for i in 0..4 {
            assert!(matches!(
                tx.send(DataBuffer::control(i), Some(Duration::from_millis(50))),
                SendOutcome::Sent
            ));
        }
        assert_eq!(tx.queue_len(), 4);
        assert!(matches!(
            tx.send(DataBuffer::control(9), Some(Duration::from_millis(5))),
            SendOutcome::TimedOut
        ));
        drop(rx);
        assert!(matches!(
            tx.send(DataBuffer::control(9), None),
            SendOutcome::Closed
        ));
    }

    #[test]
    fn sender_without_endpoint_is_an_error() {
        let mut t = InProc::new();
        assert!(t.open_sender(&spec(9, 0)).is_err());
    }
}
