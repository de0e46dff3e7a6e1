//! [`TcpTransport`]: DataCutter logical streams over real sockets.
//!
//! One TCP connection per node pair (node *i* dials every *j < i* and
//! accepts from every *j > i*), with all logical streams multiplexed
//! over it as [`Frame`]s. Each connection opens with a HELLO exchange
//! validating the wire version and the graph *topology signature*, so
//! two processes running different graph descriptions refuse to talk
//! instead of misrouting frames.
//!
//! ## Credit-based flow control
//!
//! The in-process substrate gets backpressure for free from bounded
//! channels, and the verifier's deadlock analysis *assumes* those
//! bounds. Sockets would break that: a fast producer could buffer
//! unboundedly in the kernel. So every remote stream carries explicit
//! credit — the sending process holds `capacity` credits per stream,
//! spends one per DATA frame, and gets them back as the consumer pops
//! buffers. A producer out of credit blocks exactly like a producer
//! facing a full channel (`net.credit_stalls` counts these). The
//! receive-side demux queue is sized `capacity × producer-nodes`, so a
//! conforming peer can never block the connection's reader thread —
//! a full demux queue is a protocol violation, not backpressure, and so
//! is a CREDIT that would lift a window above its capacity.
//!
//! Producers co-located with a consumer that also has remote producers
//! run the same protocol: this node is one more producer node of the
//! stream, and its frames reach `dispatch` by loopback instead of a
//! connection. The endpoint therefore reads *one* queue. (An endpoint
//! with only co-located producers stays a plain channel, exactly as
//! in-process.)
//!
//! ## Close accounting
//!
//! Every producer copy holds one send handle per endpoint, and dropping
//! it sends CLOSE. The consumer counts expected closes per producer node
//! and hangs up the merged stream when all arrive — mirroring how
//! dropping every in-process sender disconnects a channel. A consumer
//! that quits early broadcasts EP_CLOSED so remote producers observe
//! "consumer hung up" just like a dropped receiver.
//!
//! ## Failure mapping
//!
//! EOF without a BYE frame, a torn frame, or any socket error marks the
//! transport *dead*: every blocked send and recv wakes and returns a
//! typed [`GraphStorageError::Net`] — a killed peer becomes an error,
//! never a hang. A protocol violation by a peer (unknown stream, window
//! overrun, excess credit, unexpected CLOSE) takes the same path.
//!
//! ## The link seam
//!
//! Everything above is written once. The only thing that varies is how
//! a [`Frame`] leaves this node — the `Link` trait: over sockets a
//! frame is written to a [`Conn`] and the peer's reader thread hands it
//! to `dispatch`; under the model checker ([`crate::model`]) the link
//! calls the destination node's `dispatch` inline. The credit window
//! and the control barrier block on `mssg_modelcheck::shim` primitives
//! (plain `std` ones outside a `check` execution), so the exploration
//! schedules this code, not a copy of it. The route and credit *maps*
//! never block; they sit behind `std` mutexes whose guards are never
//! held across a queue push, a wait, or a link send.

use crate::conn::Conn;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender};
use datacutter::{
    ChannelRx, ChannelTx, DataBuffer, EndpointSpec, NodeId, RecvOutcome, RxEndpoint, SendOutcome,
    Transport, TxEndpoint,
};
use mssg_modelcheck::shim;
use mssg_obs::{Counter, NodeTelemetry, Telemetry};
use mssg_types::{GraphStorageError, Result};
use std::collections::{HashMap, HashSet};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::wire::{read_frame, write_data_frame, write_frame, Frame, FrameKind, FRAME_OVERHEAD};

/// Tuning for [`TcpTransport::establish`].
#[derive(Clone)]
pub struct TcpOptions {
    /// Deadline for the handshake, the READY barrier in `start`, and the
    /// BYE drain in `finish`. A peer that stays silent past this long at
    /// a synchronization point is reported dead.
    pub io_timeout: Duration,
    /// Retry window for dialing peers (and accepting their dials) while
    /// the cluster boots.
    pub dial_timeout: Duration,
    /// Telemetry sink for `net.*` counters and connect/handshake spans.
    /// When the tracer is enabled, data and credit frames carry the
    /// sender's current span id and handshakes exchange tracer clocks
    /// for per-peer offset estimation.
    pub telemetry: Telemetry,
    /// Run-wide trace id, carried in the HELLO; every process of a run
    /// must agree (0 = tracing off, also validated). A nonzero id also
    /// ships this node's [`NodeTelemetry`] to node 0 during `finish`
    /// (before BYE, so FIFO ordering guarantees arrival). Node 0 itself
    /// collects reports; see [`TcpTransport::collected_reports`].
    pub trace_id: u64,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            io_timeout: Duration::from_secs(10),
            dial_timeout: Duration::from_secs(10),
            telemetry: Telemetry::disabled(),
            trace_id: 0,
        }
    }
}

/// Time left until `deadline` on the shim clock (virtual under the model
/// checker), `None` once it has passed.
fn time_left(deadline: shim::Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(shim::Instant::now())
        .filter(|left| !left.is_zero())
}

/// Sender-side flow-control window for one stream: starts at the
/// stream's channel capacity, spends one per DATA frame, refills on
/// CREDIT frames.
pub(crate) struct CreditCell {
    state: shim::Mutex<CreditState>,
    cv: shim::Condvar,
    capacity: u64,
}

struct CreditState {
    avail: u64,
    /// Consumer endpoint is gone (EP_CLOSED): sends return `Closed`.
    closed: bool,
    /// Transport failed: sends return `Failed`.
    dead: bool,
}

enum Acquire {
    Got,
    TimedOut,
    Closed,
    Dead,
}

impl CreditCell {
    fn new(capacity: u64) -> CreditCell {
        CreditCell {
            state: shim::Mutex::new(CreditState {
                avail: capacity,
                closed: false,
                dead: false,
            }),
            cv: shim::Condvar::new(),
            capacity,
        }
    }

    fn acquire(&self, timeout: Option<Duration>, stalls: &Counter) -> Acquire {
        let deadline = timeout.map(|t| shim::Instant::now() + t);
        let mut st = self.state.lock().unwrap();
        let mut stalled = false;
        loop {
            if st.dead {
                return Acquire::Dead;
            }
            if st.closed {
                return Acquire::Closed;
            }
            if st.avail > 0 {
                st.avail -= 1;
                return Acquire::Got;
            }
            if !stalled {
                stalls.inc();
                stalled = true;
            }
            match deadline {
                None => st = self.cv.wait(st).unwrap(),
                Some(d) => {
                    let Some(left) = time_left(d) else {
                        return Acquire::TimedOut;
                    };
                    st = self.cv.wait_timeout(st, left).unwrap().0;
                }
            }
        }
    }

    /// Returns `n` credits to the window. `false` — and nothing granted —
    /// if that would lift it above its capacity: the peer returned credit
    /// nobody spent.
    fn grant(&self, n: u64) -> bool {
        {
            let mut st = self.state.lock().unwrap();
            if n > self.capacity - st.avail {
                return false;
            }
            st.avail += n;
        }
        self.cv.notify_all();
        true
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    fn poison(&self) {
        self.state.lock().unwrap().dead = true;
        self.cv.notify_all();
    }

    /// Buffers currently in flight to the consumer (spent credit).
    pub(crate) fn in_flight(&self) -> usize {
        (self.capacity - self.state.lock().unwrap().avail) as usize
    }
}

/// What the demux queue carries: `(buffer, origin node, sender span id)`.
type Demuxed = (DataBuffer, NodeId, u64);

/// Receive-side state for one local endpoint fed through the protocol.
struct Route {
    /// Demux sender into the endpoint's queue; taken once every expected
    /// CLOSE has arrived, which disconnects the merged stream. `Arc`-
    /// wrapped so [`deliver_data`] can snapshot it under the routes guard
    /// and push outside it.
    tx: Option<Arc<Sender<Demuxed>>>,
    /// The receiver the endpoint reads, kept so a push that lands *after*
    /// the consumer dropped (and drained) can be reaped and its credit
    /// refunded ([`reap_if_gone`]).
    drain_rx: Arc<Receiver<Demuxed>>,
    /// CLOSE frames still expected, per producer node.
    pending_closes: HashMap<NodeId, usize>,
    /// The consumer endpoint was dropped early: drop frames, refund
    /// credit.
    consumers_gone: bool,
}

impl Route {
    /// Every producer copy has sent its CLOSE.
    fn all_closed(&self) -> bool {
        self.pending_closes.values().all(|&left| left == 0)
    }
}

struct Ctrl {
    ready_from: HashSet<NodeId>,
    bye_from: HashSet<NodeId>,
    /// First fatal transport error; set once, observed everywhere.
    dead: Option<String>,
}

/// How a frame leaves this node for a peer — the one seam between the
/// protocol and what carries it (see the module docs).
pub(crate) trait Link: Send + Sync {
    /// Puts a control frame on the wire to node `to`.
    fn send_frame(&self, to: NodeId, frame: Frame) -> Result<()>;

    /// Puts one DATA frame on the wire to node `to`; the payload stays
    /// borrowed end to end.
    fn send_data(&self, to: NodeId, stream: u32, tag: u64, span: u64, payload: &[u8])
        -> Result<()>;

    /// This node will send nothing more: peers see a clean end of stream.
    fn shutdown(&self);
}

/// [`Link`] over one [`Conn`] per peer; the peer's [`reader_loop`] is the
/// receiving end.
struct SocketLink {
    my_node: NodeId,
    /// Write half of the connection to each node (`None` at `my_node`).
    writers: Vec<Option<Mutex<Box<dyn Conn>>>>,
}

impl SocketLink {
    fn writer(&self, to: NodeId) -> Result<MutexGuard<'_, Box<dyn Conn>>> {
        let writer = self
            .writers
            .get(to)
            .and_then(|w| w.as_ref())
            .ok_or_else(|| {
                GraphStorageError::Net(format!(
                    "node {} has no connection to node {to}",
                    self.my_node
                ))
            })?;
        Ok(writer.lock().unwrap())
    }
}

impl Link for SocketLink {
    fn send_frame(&self, to: NodeId, frame: Frame) -> Result<()> {
        write_frame(&mut *self.writer(to)?, &frame)
            .map_err(|e| GraphStorageError::Net(format!("writing to node {to} failed: {e}")))
    }

    fn send_data(
        &self,
        to: NodeId,
        stream: u32,
        tag: u64,
        span: u64,
        payload: &[u8],
    ) -> Result<()> {
        write_data_frame(&mut *self.writer(to)?, stream, tag, span, payload)
            .map_err(|e| GraphStorageError::Net(format!("writing to node {to} failed: {e}")))
    }

    fn shutdown(&self) {
        // Half-close every connection so peer reader threads see EOF (a
        // clean one — our BYE precedes it) instead of blocking forever.
        for writer in self.writers.iter().flatten() {
            let _ = writer.lock().unwrap().shutdown_write();
        }
    }
}

/// One node's protocol state, shared between the transport handle, its
/// endpoints, and whoever delivers inbound frames (the per-connection
/// reader threads, or a peer's model link).
pub(crate) struct Shared {
    my_node: NodeId,
    link: Box<dyn Link>,
    routes: Mutex<HashMap<u32, Route>>,
    pub(crate) credits: Mutex<HashMap<u32, Arc<CreditCell>>>,
    ctrl: shim::Mutex<Ctrl>,
    ctrl_cv: shim::Condvar,
    /// The node's telemetry bundle: frame spans and the report captured
    /// at `finish` both read from here.
    telemetry: Telemetry,
    frames: Counter,
    bytes: Counter,
    credit_stalls: Counter,
    /// Serialized `NodeTelemetry` payloads received from peers (node 0).
    reports_from: Mutex<Vec<(NodeId, Vec<u8>)>>,
}

impl Shared {
    /// Sends a control frame to `node` — by loopback when that is this
    /// node (a co-located producer or consumer of one of our own routes).
    fn send_frame(&self, node: NodeId, frame: Frame) -> Result<()> {
        if node == self.my_node {
            return self.deliver(node, frame);
        }
        let wire_len = frame.wire_len() as u64;
        self.link.send_frame(node, frame)?;
        self.frames.inc();
        self.bytes.add(wire_len);
        Ok(())
    }

    /// [`Shared::send_frame`] for DATA: over the link the payload stays
    /// borrowed (no `Frame` built, no encode buffer); by loopback the
    /// buffer moves into the queue as is.
    fn send_data(&self, node: NodeId, stream: u32, span: u64, buf: DataBuffer) -> Result<()> {
        if node == self.my_node {
            return deliver_data(self, node, stream, span, buf).map_err(|msg| self.violated(msg));
        }
        self.link
            .send_data(node, stream, buf.tag, span, &buf.data)?;
        self.frames.inc();
        self.bytes.add((FRAME_OVERHEAD + buf.data.len()) as u64);
        Ok(())
    }

    /// Hands a frame that arrived from `peer` to [`dispatch`]; a protocol
    /// violation kills the transport and comes back as the typed error.
    pub(crate) fn deliver(&self, peer: NodeId, frame: Frame) -> Result<()> {
        dispatch(self, peer, frame).map_err(|msg| self.violated(msg))
    }

    fn violated(&self, msg: String) -> GraphStorageError {
        self.fail(msg.clone());
        GraphStorageError::Net(msg)
    }

    /// Returns one credit for `stream` to the node that spent it.
    fn refund(&self, origin: NodeId, stream: u32) {
        let _ = self.send_frame(origin, Frame::credit(stream, 1));
    }

    /// Empties `stream`'s demux queue, refunding every frame in it: its
    /// consumer is gone, and the producers' windows must not leak.
    fn refund_queued(&self, stream: u32, rx: &Receiver<Demuxed>) {
        while let Ok((_, origin, _)) = rx.try_recv() {
            self.refund(origin, stream);
        }
    }

    /// The credit window for `stream`, cloned out so no caller holds the
    /// map guard across the cell's (blocking) operations.
    fn cell(&self, stream: u32) -> Option<Arc<CreditCell>> {
        self.credits.lock().unwrap().get(&stream).cloned()
    }

    /// Marks the transport dead and wakes everything blocked on it.
    fn fail(&self, msg: String) {
        {
            let mut ctrl = self.ctrl.lock().unwrap();
            if ctrl.dead.is_none() {
                ctrl.dead = Some(msg);
            }
        }
        self.ctrl_cv.notify_all();
        let cells: Vec<Arc<CreditCell>> = self.credits.lock().unwrap().values().cloned().collect();
        for cell in cells {
            cell.poison();
        }
        // Dropping the demux senders wakes receivers blocked on their
        // queues; with CLOSEs outstanding they report the failure, not a
        // close.
        let senders: Vec<_> = self
            .routes
            .lock()
            .unwrap()
            .values_mut()
            .filter_map(|route| route.tx.take())
            .collect();
        drop(senders);
    }

    pub(crate) fn dead(&self) -> Option<GraphStorageError> {
        self.ctrl
            .lock()
            .unwrap()
            .dead
            .clone()
            .map(GraphStorageError::Net)
    }

    /// The error to report from an operation the dead transport woke.
    fn failure(&self) -> GraphStorageError {
        self.dead()
            .unwrap_or_else(|| GraphStorageError::Net("transport failed".into()))
    }
}

/// [`Transport`] carrying streams between one OS process per node over
/// TCP. Build with [`TcpTransport::establish`], then hand to
/// [`datacutter::run_node`].
pub struct TcpTransport {
    pub(crate) shared: Arc<Shared>,
    my_node: NodeId,
    n_nodes: usize,
    /// [`TcpOptions::io_timeout`]; `None` only under the model link,
    /// where a barrier that would stall forever must show up as a
    /// deadlock, not as a timeout.
    io_timeout: Option<Duration>,
    /// Estimated `peer_clock − our_clock` per peer, from handshake RTT
    /// midpoints (tracer-epoch nanoseconds; 0 when tracing is off).
    clock_offsets: HashMap<NodeId, i64>,
    /// [`TcpOptions::trace_id`] is nonzero: ship telemetry at `finish`.
    ship_telemetry: bool,
    /// Master senders of purely local endpoints, dropped at `start`
    /// exactly like `InProc`.
    masters: HashMap<u64, Sender<DataBuffer>>,
}

impl TcpTransport {
    /// Connects this node to every peer and runs the HELLO handshake.
    ///
    /// `listener` is this node's own accept socket (its address is what
    /// the launcher advertised to peers); `peer_addrs[j]` is node `j`'s
    /// address (the entry at `my_node` is ignored). `topology` must be
    /// the [`GraphBuilder::topology_signature`] of the graph every
    /// process is about to run.
    ///
    /// [`GraphBuilder::topology_signature`]: datacutter::GraphBuilder::topology_signature
    pub fn establish(
        my_node: NodeId,
        listener: TcpListener,
        peer_addrs: &[String],
        topology: u64,
        opts: TcpOptions,
    ) -> Result<TcpTransport> {
        let n = peer_addrs.len();
        if my_node >= n {
            return Err(GraphStorageError::Unsupported(format!(
                "node {my_node} outside the {n}-address peer list"
            )));
        }
        let telemetry = &opts.telemetry;
        let mut conns: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut clock_offsets: HashMap<NodeId, i64> = HashMap::new();

        // Dial every lower-numbered peer (they accept from us). Retry
        // while the cluster boots: our peer may not be listening yet.
        for (j, addr) in peer_addrs.iter().enumerate().take(my_node) {
            let _span = telemetry
                .tracer
                .span("net.connect")
                .with("peer", j as u64)
                .with_str("addr", addr);
            let mut stream = dial(addr, j, opts.dial_timeout)?;
            let (_, offset) = handshake(&mut stream, my_node, Some(j), topology, &opts)?;
            clock_offsets.insert(j, offset);
            conns[j] = Some(stream);
        }

        // Accept every higher-numbered peer, bounded so a peer that died
        // before dialing cannot hang us.
        let mut need = n - 1 - my_node;
        if need > 0 {
            listener.set_nonblocking(true).map_err(net_io)?;
            let deadline = Instant::now() + opts.dial_timeout;
            while need > 0 {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        stream.set_nonblocking(false).map_err(net_io)?;
                        let _ = stream.set_nodelay(true);
                        let (peer, offset) =
                            handshake(&mut stream, my_node, None, topology, &opts)?;
                        if peer <= my_node || peer >= n {
                            return Err(GraphStorageError::Net(format!(
                                "node {peer} dialed node {my_node}, which only accepts from nodes {}..{}",
                                my_node + 1,
                                n
                            )));
                        }
                        if conns[peer].is_some() {
                            return Err(GraphStorageError::Net(format!(
                                "node {peer} connected twice"
                            )));
                        }
                        clock_offsets.insert(peer, offset);
                        conns[peer] = Some(stream);
                        need -= 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(GraphStorageError::Net(format!(
                                "{need} peer(s) never dialed node {my_node} within {:?}",
                                opts.dial_timeout
                            )));
                        }
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => return Err(net_io(e)),
                }
            }
        }

        let conns = conns
            .into_iter()
            .map(|c| c.map(|s| Box::new(s) as Box<dyn Conn>))
            .collect();
        Self::from_conns(my_node, conns, clock_offsets, opts)
    }

    /// Builds a transport over *already handshaken* connections — the
    /// shared tail of [`TcpTransport::establish`] and
    /// [`TcpTransport::establish_over`].
    fn from_conns(
        my_node: NodeId,
        conns: Vec<Option<Box<dyn Conn>>>,
        clock_offsets: HashMap<NodeId, i64>,
        opts: TcpOptions,
    ) -> Result<TcpTransport> {
        let n = conns.len();
        let link = SocketLink {
            my_node,
            writers: conns
                .iter()
                .map(|c| {
                    c.as_ref()
                        .map(|s| s.try_clone_conn().map(Mutex::new))
                        .transpose()
                })
                .collect::<std::io::Result<_>>()
                .map_err(net_io)?,
        };
        let transport = TcpTransport::over_link(
            my_node,
            n,
            Box::new(link),
            Some(opts.io_timeout),
            clock_offsets,
            &opts,
        );
        let shared = &transport.shared;
        // The handshake already put one HELLO per peer on the wire.
        let hello_len = Frame::hello(0, 0, 0, 0).wire_len() as u64;
        shared.frames.add((n - 1) as u64);
        shared.bytes.add((n - 1) as u64 * hello_len);

        // One reader thread per connection demultiplexes frames into
        // routes, credit cells, and the control barrier.
        for (peer, conn) in conns.into_iter().enumerate() {
            let Some(stream) = conn else { continue };
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("net-rx-{my_node}-{peer}"))
                .spawn(move || reader_loop(&shared, peer, stream))
                .map_err(GraphStorageError::Io)?;
        }
        Ok(transport)
    }

    /// The protocol state of node `my_node` of `n_nodes`, sending through
    /// `link`. Whoever builds the link arranges for inbound frames to
    /// reach [`Shared::deliver`]. `io_timeout` replaces the one in `opts`
    /// (see the field).
    pub(crate) fn over_link(
        my_node: NodeId,
        n_nodes: usize,
        link: Box<dyn Link>,
        io_timeout: Option<Duration>,
        clock_offsets: HashMap<NodeId, i64>,
        opts: &TcpOptions,
    ) -> TcpTransport {
        let telemetry = &opts.telemetry;
        let shared = Arc::new(Shared {
            my_node,
            link,
            routes: Mutex::new(HashMap::new()),
            credits: Mutex::new(HashMap::new()),
            ctrl: shim::Mutex::new(Ctrl {
                ready_from: HashSet::new(),
                bye_from: HashSet::new(),
                dead: None,
            }),
            ctrl_cv: shim::Condvar::new(),
            telemetry: telemetry.clone(),
            frames: telemetry.metrics.counter("net.frames"),
            bytes: telemetry.metrics.counter("net.bytes"),
            credit_stalls: telemetry.metrics.counter("net.credit_stalls"),
            reports_from: Mutex::new(Vec::new()),
        });
        TcpTransport {
            shared,
            my_node,
            n_nodes,
            io_timeout,
            clock_offsets,
            ship_telemetry: opts.trace_id != 0,
            masters: HashMap::new(),
        }
    }

    /// [`TcpTransport::establish`] over caller-supplied [`Conn`]s — the
    /// entry point the deterministic wire simulator uses to run a whole
    /// cluster in one process ([`crate::sim`]).
    ///
    /// `conns[j]` is this node's connection to node `j` (the entry at
    /// `my_node` must be `None`). The full protocol still runs: each
    /// connection is HELLO-handshaken against `topology` (so a sim plan
    /// can abort or corrupt the handshake itself), then reader threads
    /// and the credit machinery start exactly as over TCP.
    pub fn establish_over(
        my_node: NodeId,
        mut conns: Vec<Option<Box<dyn Conn>>>,
        topology: u64,
        opts: TcpOptions,
    ) -> Result<TcpTransport> {
        let n = conns.len();
        if my_node >= n || conns.get(my_node).is_some_and(|c| c.is_some()) {
            return Err(GraphStorageError::Unsupported(format!(
                "node {my_node} needs a {n}-slot conn list with `None` at its own index"
            )));
        }
        let mut clock_offsets: HashMap<NodeId, i64> = HashMap::new();
        for (j, conn) in conns.iter_mut().enumerate() {
            let Some(conn) = conn else { continue };
            let (_, offset) = handshake(&mut **conn, my_node, Some(j), topology, &opts)?;
            clock_offsets.insert(j, offset);
        }
        Self::from_conns(my_node, conns, clock_offsets, opts)
    }

    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_nodes).filter(move |&j| j != self.my_node)
    }

    /// Estimated `peer_clock − our_clock` per connected peer, in
    /// tracer-epoch nanoseconds (0 when tracing was off during the
    /// handshake). On node 0 these rebase remote span timestamps onto
    /// its timeline when merging the cluster trace.
    pub fn clock_offsets(&self) -> &HashMap<NodeId, i64> {
        &self.clock_offsets
    }

    /// Telemetry reports shipped by peers (meaningful on node 0 after
    /// [`Transport::finish`], which waits for every peer's BYE — and
    /// telemetry precedes BYE on each connection). A report that fails
    /// to parse is a protocol error, reported as `Corrupt`.
    pub fn collected_reports(&self) -> Result<Vec<NodeTelemetry>> {
        let raw = self.shared.reports_from.lock().unwrap();
        let mut out = Vec::with_capacity(raw.len());
        for (peer, payload) in raw.iter() {
            let text = std::str::from_utf8(payload).map_err(|e| {
                GraphStorageError::Corrupt(format!(
                    "telemetry report from node {peer} is not UTF-8: {e}"
                ))
            })?;
            let report = NodeTelemetry::from_json(text).map_err(|e| {
                GraphStorageError::Corrupt(format!(
                    "telemetry report from node {peer} failed to parse: {e}"
                ))
            })?;
            out.push(report);
        }
        Ok(out)
    }

    /// Waits until `pick` is satisfied on the control state or the io
    /// timeout passes; `what` names the wait in the timeout error.
    fn await_ctrl(&self, what: &str, pick: impl Fn(&Ctrl) -> bool, timeout_ok: bool) -> Result<()> {
        let deadline = self.io_timeout.map(|t| (shim::Instant::now() + t, t));
        let mut ctrl = self.shared.ctrl.lock().unwrap();
        loop {
            if let Some(msg) = &ctrl.dead {
                return Err(GraphStorageError::Net(msg.clone()));
            }
            if pick(&ctrl) {
                return Ok(());
            }
            ctrl = match deadline {
                None => self.shared.ctrl_cv.wait(ctrl).unwrap(),
                Some((deadline, io_timeout)) => {
                    let Some(left) = time_left(deadline) else {
                        if timeout_ok {
                            return Ok(());
                        }
                        return Err(GraphStorageError::Net(format!(
                            "peers never reached {what} within {io_timeout:?}"
                        )));
                    };
                    self.shared.ctrl_cv.wait_timeout(ctrl, left).unwrap().0
                }
            };
        }
    }
}

impl Transport for TcpTransport {
    fn open_endpoint(&mut self, spec: &EndpointSpec) -> Result<Box<dyn RxEndpoint>> {
        if spec.node != self.my_node {
            return Err(GraphStorageError::Unsupported(format!(
                "endpoint {}.{} belongs to node {}, not node {}",
                spec.filter, spec.in_port, spec.node, self.my_node
            )));
        }
        if spec.remote_producers.is_empty() {
            // Purely local: exact InProc behavior.
            let (tx, rx) = bounded(spec.capacity);
            self.masters.insert(spec.id, tx);
            return Ok(Box::new(ChannelRx::new(rx)));
        }
        let stream = stream_id(spec)?;
        // Co-located producers make this node one more producer node of
        // the stream, reached by loopback.
        let mut producers = spec.remote_producers.clone();
        if spec.local_producers > 0 {
            producers.push((self.my_node, spec.local_producers));
        }
        let peers: Vec<NodeId> = producers.iter().map(|&(node, _)| node).collect();
        // Sized so that conforming producers (≤ capacity outstanding
        // frames per node) can never fill it: the non-blocking demux push
        // must always succeed.
        let (demux_tx, demux_rx) = bounded(spec.capacity * peers.len());
        let demux_rx = Arc::new(demux_rx);
        self.shared.routes.lock().unwrap().insert(
            stream,
            Route {
                tx: Some(Arc::new(demux_tx)),
                drain_rx: Arc::clone(&demux_rx),
                pending_closes: producers.into_iter().collect(),
                consumers_gone: false,
            },
        );
        Ok(Box::new(NetRx {
            stream,
            rx: demux_rx,
            peers,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn open_sender(&mut self, spec: &EndpointSpec) -> Result<Box<dyn TxEndpoint>> {
        if spec.node == self.my_node && spec.remote_producers.is_empty() {
            // Purely local endpoint: a plain channel clone, as in-process.
            let tx = self.masters.get(&spec.id).ok_or_else(|| {
                GraphStorageError::Unsupported(format!(
                    "no endpoint {} ({}.{}) opened before its sender",
                    spec.id, spec.filter, spec.in_port
                ))
            })?;
            return Ok(Box::new(ChannelTx::new(tx.clone(), spec.node)));
        }
        let stream = stream_id(spec)?;
        let cell = Arc::clone(
            self.shared
                .credits
                .lock()
                .unwrap()
                .entry(stream)
                .or_insert_with(|| Arc::new(CreditCell::new(spec.capacity as u64))),
        );
        Ok(Box::new(TcpTx {
            stream,
            dst: spec.node,
            cell,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn start(&mut self) -> Result<()> {
        // Release the master senders (streams close once producer-held
        // clones drop), then barrier: no DATA may reach a peer before it
        // has registered every route, which it signals with READY.
        self.masters.clear();
        for peer in self.peers().collect::<Vec<_>>() {
            self.shared
                .send_frame(peer, Frame::control(FrameKind::Ready, 0))?;
        }
        let want = self.n_nodes - 1;
        self.await_ctrl("the READY barrier", |c| c.ready_from.len() == want, false)
    }

    fn finish(&mut self) -> Result<()> {
        // Ship this node's telemetry to node 0 before BYE: FIFO ordering
        // on the connection means node 0's BYE wait also collects every
        // report. Best-effort — a dead connection already surfaces below.
        if self.ship_telemetry && self.my_node != 0 {
            let _span = self.shared.telemetry.tracer.span("net.telemetry_ship");
            let report = NodeTelemetry::capture(self.my_node as u32, &self.shared.telemetry);
            if let Ok(frame) = Frame::telemetry(report.to_json().as_bytes()) {
                let _ = self.shared.send_frame(0, frame);
            }
        }
        // Tell every peer our run is complete — after this, our EOF is a
        // clean close — then give them a bounded window to say the same.
        // Missing BYEs after the window are forgiven (best-effort), but a
        // transport death is not: a peer that died mid-run must surface
        // even when every local filter finished first.
        for peer in self.peers().collect::<Vec<_>>() {
            let _ = self
                .shared
                .send_frame(peer, Frame::control(FrameKind::Bye, 0));
        }
        let want = self.n_nodes - 1;
        let outcome = self.await_ctrl("BYE exchange", |c| c.bye_from.len() == want, true);
        self.shared.link.shutdown();
        outcome
    }
}

fn stream_id(spec: &EndpointSpec) -> Result<u32> {
    u32::try_from(spec.id).map_err(|_| {
        GraphStorageError::Unsupported(format!("stream id {} exceeds the wire format", spec.id))
    })
}

fn net_io(e: std::io::Error) -> GraphStorageError {
    GraphStorageError::Net(e.to_string())
}

fn dial(addr: &str, peer: NodeId, window: Duration) -> Result<TcpStream> {
    let deadline = Instant::now() + window;
    let mut pause = Duration::from_millis(2);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(GraphStorageError::Net(format!(
                        "dialing node {peer} at {addr} failed for {window:?}: {e}"
                    )));
                }
                thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_millis(100));
            }
        }
    }
}

/// Sends our HELLO, reads and validates the peer's. Returns the peer's
/// node id and the estimated clock offset `peer_clock − our_clock`.
///
/// The offset comes from the classic RTT-midpoint estimate: the peer's
/// clock reading is assumed to correspond to the midpoint between our
/// send and our receive, so `offset = peer_now − (t0 + t1) / 2`. Error
/// is bounded by half the handshake RTT — microseconds on a LAN,
/// plenty for aligning trace lanes. 0 when either side traces nothing.
fn handshake(
    stream: &mut dyn Conn,
    my_node: NodeId,
    expect: Option<NodeId>,
    topology: u64,
    opts: &TcpOptions,
) -> Result<(NodeId, i64)> {
    let tracer = &opts.telemetry.tracer;
    let _span = tracer.span("net.handshake");
    stream
        .set_read_deadline(Some(opts.io_timeout))
        .map_err(net_io)?;
    let t0 = tracer.now_ns();
    let hello = Frame::hello(my_node as u32, topology, opts.trace_id, t0);
    let mut io = &mut *stream;
    write_frame(&mut io, &hello).map_err(net_io)?;
    let frame = read_frame(&mut io)?.ok_or_else(|| {
        GraphStorageError::Net("peer closed the connection during the handshake".into())
    })?;
    let t1 = tracer.now_ns();
    let info = frame.parse_hello()?;
    let peer = info.node as NodeId;
    if info.topology != topology {
        return Err(GraphStorageError::Net(format!(
            "graph topology mismatch: node {peer} runs signature {:#x}, \
             this node runs {topology:#x} — all processes must be launched from the \
             same graph description",
            info.topology
        )));
    }
    if info.trace_id != opts.trace_id {
        return Err(GraphStorageError::Net(format!(
            "trace id mismatch: node {peer} runs trace {:#x}, this node runs {:#x} — \
             all processes must be launched with the same --trace-id",
            info.trace_id, opts.trace_id
        )));
    }
    if expect.is_some_and(|want| want != peer) {
        return Err(GraphStorageError::Net(format!(
            "dialed node {} but node {peer} answered",
            expect.unwrap()
        )));
    }
    stream.set_read_deadline(None).map_err(net_io)?;
    let offset = if tracer.is_enabled() && info.now_ns != 0 {
        info.now_ns as i64 - ((t0 + t1) / 2) as i64
    } else {
        0
    };
    Ok((peer, offset))
}

fn reader_loop(shared: &Shared, peer: NodeId, mut stream: Box<dyn Conn>) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                if shared.deliver(peer, frame).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let clean = shared.ctrl.lock().unwrap().bye_from.contains(&peer);
                if !clean {
                    shared.fail(format!(
                        "connection to node {peer} closed without BYE (peer process died?)"
                    ));
                }
                return;
            }
            Err(e) => {
                // A reset after the peer's BYE (or once the transport is
                // already dead) is teardown noise, not a new failure.
                let quiet = {
                    let ctrl = shared.ctrl.lock().unwrap();
                    ctrl.bye_from.contains(&peer) || ctrl.dead.is_some()
                };
                if !quiet {
                    shared.fail(format!("reading from node {peer}: {e}"));
                }
                return;
            }
        }
    }
}

/// Applies one frame that arrived from `peer` to this node's protocol
/// state. `Err` is a protocol violation (see [`Shared::deliver`]).
fn dispatch(shared: &Shared, peer: NodeId, frame: Frame) -> std::result::Result<(), String> {
    match frame.kind {
        FrameKind::Data => {
            let buf = DataBuffer::new(frame.tag, frame.payload);
            deliver_data(shared, peer, frame.stream, frame.span, buf)
        }
        FrameKind::Credit => {
            let amount = frame.parse_credit().map_err(|e| e.to_string())?;
            match shared.cell(frame.stream) {
                Some(cell) if !cell.grant(amount as u64) => Err(format!(
                    "credit protocol violation: node {peer} returned {amount} credit(s) on \
                     stream {} beyond its window of {}",
                    frame.stream, cell.capacity
                )),
                _ => Ok(()),
            }
        }
        FrameKind::Close => {
            let last_tx = {
                let mut routes = shared.routes.lock().unwrap();
                let Some(route) = routes.get_mut(&frame.stream) else {
                    return Err(format!(
                        "CLOSE on unknown stream {} from node {peer}",
                        frame.stream
                    ));
                };
                match route.pending_closes.get_mut(&peer) {
                    Some(left) if *left > 0 => *left -= 1,
                    _ => {
                        return Err(format!(
                            "unexpected CLOSE on stream {} from node {peer}",
                            frame.stream
                        ));
                    }
                }
                if route.all_closed() {
                    route.tx.take()
                } else {
                    None
                }
            };
            // Last producer copy is done: dropping the demux sender
            // disconnects the merged stream once drained — and wakes a
            // blocked receiver, so it happens outside the routes guard.
            drop(last_tx);
            Ok(())
        }
        FrameKind::EpClosed => {
            if let Some(cell) = shared.cell(frame.stream) {
                cell.close();
            }
            Ok(())
        }
        FrameKind::Ready => {
            shared.ctrl.lock().unwrap().ready_from.insert(peer);
            shared.ctrl_cv.notify_all();
            Ok(())
        }
        FrameKind::Bye => {
            shared.ctrl.lock().unwrap().bye_from.insert(peer);
            shared.ctrl_cv.notify_all();
            Ok(())
        }
        FrameKind::Telemetry => {
            shared
                .telemetry
                .metrics
                .counter("net.telemetry_reports")
                .inc();
            shared
                .reports_from
                .lock()
                .unwrap()
                .push((peer, frame.payload));
            Ok(())
        }
        FrameKind::Hello => Err(format!("unexpected HELLO from node {peer} after handshake")),
        // Serving-plane frames belong on client connections to an
        // `mssg-serve` frontend, never on an inter-node transport link.
        FrameKind::Request | FrameKind::Response | FrameKind::Reject | FrameKind::Failed => {
            Err(format!(
                "serving-plane {:?} frame from node {peer} on a transport link",
                frame.kind
            ))
        }
    }
}

/// Routes one DATA buffer from `peer` into its endpoint's demux queue,
/// or hands its credit straight back if the consumer is gone.
fn deliver_data(
    shared: &Shared,
    peer: NodeId,
    stream: u32,
    span: u64,
    buf: DataBuffer,
) -> std::result::Result<(), String> {
    // Snapshot the route under the guard, push outside it: the push
    // wakes a blocked receiver.
    let tx = {
        let routes = shared.routes.lock().unwrap();
        let Some(route) = routes.get(&stream) else {
            return Err(format!("DATA on unknown stream {stream} from node {peer}"));
        };
        if route.consumers_gone {
            None
        } else {
            route.tx.clone()
        }
    };
    let queued = match tx {
        None => false,
        Some(tx) => match tx.send_timeout((buf, peer, span), Duration::ZERO) {
            Ok(()) => true,
            Err(SendTimeoutError::Timeout(_)) => {
                return Err(format!(
                    "credit protocol violation: node {peer} overran stream {stream}"
                ));
            }
            Err(SendTimeoutError::Disconnected(_)) => false,
        },
    };
    if queued {
        // The consumer may have dropped — and drained — while the push
        // was in flight.
        reap_if_gone(shared, stream);
    } else {
        // Consumer is gone: hand the credit straight back and make sure
        // the producer knows to stop.
        shared.refund(peer, stream);
        let _ = shared.send_frame(peer, Frame::control(FrameKind::EpClosed, stream));
    }
    Ok(())
}

/// Refunds every frame stranded in `stream`'s demux queue if its
/// consumers are gone: the endpoint may have dropped (and drained the
/// queue) between [`deliver_data`]'s route snapshot and its push landing,
/// in which case nobody else will ever pop the frame. Queue pops are
/// atomic, so a frame is refunded exactly once even when the
/// endpoint-drop drain runs concurrently.
fn reap_if_gone(shared: &Shared, stream: u32) {
    let rx = {
        let routes = shared.routes.lock().unwrap();
        routes
            .get(&stream)
            .filter(|route| route.consumers_gone)
            .map(|route| Arc::clone(&route.drain_rx))
    };
    if let Some(rx) = rx {
        shared.refund_queued(stream, &rx);
    }
}

/// Receive endpoint over the credit-bounded demux queue that merges
/// every producer node's frames.
struct NetRx {
    stream: u32,
    rx: Arc<Receiver<Demuxed>>,
    /// Producer nodes, told EP_CLOSED when this endpoint drops.
    peers: Vec<NodeId>,
    shared: Arc<Shared>,
}

impl NetRx {
    fn producers_closed(&self) -> bool {
        let routes = self.shared.routes.lock().unwrap();
        routes.get(&self.stream).is_some_and(Route::all_closed)
    }

    /// Bookkeeping for a buffer taken off the demux queue: record the
    /// sender-span → current-span causal edge (cross-node only) and
    /// return the credit to the origin node, stamped with our span so the
    /// ack is traceable.
    fn took(&self, (buf, origin, span): Demuxed) -> DataBuffer {
        let tracer = &self.shared.telemetry.tracer;
        if origin != self.shared.my_node {
            tracer.flow_in(origin as u32, span);
        }
        let credit = Frame::credit(self.stream, 1).with_span(tracer.current_span_id());
        let _ = self.shared.send_frame(origin, credit);
        buf
    }
}

impl RxEndpoint for NetRx {
    fn recv(&self, timeout: Option<Duration>) -> RecvOutcome {
        let popped = match timeout {
            None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(limit) => self.rx.recv_timeout(limit),
        };
        match popped {
            Ok(item) => RecvOutcome::Buf(self.took(item)),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) if self.producers_closed() => RecvOutcome::Closed,
            // Disconnected with CLOSEs outstanding: the transport failed,
            // which drops every demux sender to wake its receiver.
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Failed(self.shared.failure()),
        }
    }

    fn try_recv(&self) -> Option<DataBuffer> {
        let item = self.rx.try_recv().ok()?;
        Some(self.took(item))
    }
}

impl Drop for NetRx {
    fn drop(&mut self) {
        // The consumer endpoint is gone (normally at end of run, possibly
        // early). Stop routing to it, refund the credit of every frame
        // still queued, and tell the producers, so their sends observe
        // "consumer hung up" like a dropped channel.
        let tx = {
            let mut routes = self.shared.routes.lock().unwrap();
            routes.get_mut(&self.stream).and_then(|route| {
                route.consumers_gone = true;
                route.tx.take()
            })
        };
        drop(tx);
        self.shared.refund_queued(self.stream, &self.rx);
        for &peer in &self.peers {
            let _ = self
                .shared
                .send_frame(peer, Frame::control(FrameKind::EpClosed, self.stream));
        }
    }
}

/// One producer copy's handle onto a stream: CLOSE goes on the wire when
/// it drops.
struct TcpTx {
    stream: u32,
    dst: NodeId,
    cell: Arc<CreditCell>,
    shared: Arc<Shared>,
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        let _ = self
            .shared
            .send_frame(self.dst, Frame::control(FrameKind::Close, self.stream));
    }
}

impl TxEndpoint for TcpTx {
    fn send(&self, buf: DataBuffer, timeout: Option<Duration>) -> SendOutcome {
        match self.cell.acquire(timeout, &self.shared.credit_stalls) {
            Acquire::Got => {}
            Acquire::TimedOut => return SendOutcome::TimedOut,
            Acquire::Closed => return SendOutcome::Closed,
            Acquire::Dead => return SendOutcome::Failed(self.shared.failure()),
        }
        let span = self.shared.telemetry.tracer.current_span_id();
        match self.shared.send_data(self.dst, self.stream, span, buf) {
            Ok(()) => SendOutcome::Sent,
            Err(e) => {
                self.shared.fail(e.to_string());
                SendOutcome::Failed(e)
            }
        }
    }

    fn dst_node(&self) -> NodeId {
        self.dst
    }

    fn wire_bytes(&self, payload_len: usize) -> u64 {
        if self.dst == self.shared.my_node {
            // Loopback is a memory copy: exactly the payload.
            payload_len as u64
        } else {
            (FRAME_OVERHEAD + payload_len) as u64
        }
    }

    fn queue_len(&self) -> usize {
        self.cell.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacutter::superstep::one_word;

    /// Establishes a fully-connected `n`-node transport set over
    /// localhost, each node on its own thread.
    fn mesh(n: usize, topology: u64) -> Vec<TcpTransport> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let mut handles = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            handles.push(thread::spawn(move || {
                TcpTransport::establish(i, listener, &addrs, topology, TcpOptions::default())
                    .unwrap()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn spec(id: u64, node: NodeId, capacity: usize, remote: Vec<(NodeId, usize)>) -> EndpointSpec {
        EndpointSpec {
            id,
            filter: "consumer".into(),
            in_port: "in".into(),
            copy: 0,
            node,
            capacity,
            local_producers: 0,
            remote_producers: remote,
        }
    }

    /// Starts both nodes of a two-node mesh (each `start` waits for the
    /// other's READY).
    fn start_pair(n0: &mut TcpTransport, n1: &mut TcpTransport) {
        thread::scope(|scope| {
            let a = scope.spawn(|| n0.start());
            n1.start().unwrap();
            a.join().unwrap().unwrap();
        });
    }

    /// Polls `tx.queue_len()` until it reaches `want` (credit returns
    /// asynchronously over the socket).
    fn await_queue_len(tx: &dyn TxEndpoint, want: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while tx.queue_len() != want {
            assert!(
                Instant::now() < deadline,
                "queue_len stuck at {}, want {want}",
                tx.queue_len()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn two_nodes_round_trip_and_close() {
        let mut nodes = mesh(2, 1);
        let mut n1 = nodes.pop().unwrap();
        let mut n0 = nodes.pop().unwrap();
        // Capacity must cover the 10 buffers sent before the first recv:
        // a sender out of credit blocks exactly like a full channel.
        let s = spec(0, 1, 16, vec![(0, 1)]);
        let rx = n1.open_endpoint(&s).unwrap();
        let tx = n0.open_sender(&s).unwrap();
        let (a, b) = thread::scope(|scope| {
            let a = scope.spawn(|| n0.start());
            let b = scope.spawn(|| n1.start());
            (a.join().unwrap(), b.join().unwrap())
        });
        a.unwrap();
        b.unwrap();

        assert_eq!(tx.dst_node(), 1);
        assert_eq!(tx.wire_bytes(10), (FRAME_OVERHEAD + 10) as u64);
        for i in 0..10u64 {
            assert!(matches!(
                tx.send(DataBuffer::from_words(i, &[i * 7]), None),
                SendOutcome::Sent
            ));
        }
        for i in 0..10u64 {
            match rx.recv(Some(Duration::from_secs(5))) {
                RecvOutcome::Buf(buf) => {
                    assert_eq!(buf.tag, i);
                    assert_eq!(one_word(&buf).unwrap(), i * 7);
                }
                other => panic!("expected buffer {i}, got {other:?}"),
            }
        }
        drop(tx); // CLOSE goes on the wire
        assert!(matches!(
            rx.recv(Some(Duration::from_secs(5))),
            RecvOutcome::Closed
        ));
        drop(rx);
        // Finish on both sides concurrently: each waits for the other's
        // BYE, so sequential calls would stall for the io timeout.
        thread::scope(|scope| {
            let a = scope.spawn(|| n0.finish());
            let b = scope.spawn(|| n1.finish());
            assert!(a.join().unwrap().is_ok());
            assert!(b.join().unwrap().is_ok());
        });
    }

    #[test]
    fn credit_bounds_inflight_and_unblocks() {
        let mut nodes = mesh(2, 2);
        let mut n1 = nodes.pop().unwrap();
        let mut n0 = nodes.pop().unwrap();
        let s = spec(0, 1, 2, vec![(0, 1)]);
        let rx = n1.open_endpoint(&s).unwrap();
        let tx = n0.open_sender(&s).unwrap();
        start_pair(&mut n0, &mut n1);

        // Capacity 2: the third send must block until the consumer pops.
        assert!(matches!(
            tx.send(DataBuffer::control(0), None),
            SendOutcome::Sent
        ));
        assert!(matches!(
            tx.send(DataBuffer::control(1), None),
            SendOutcome::Sent
        ));
        assert!(matches!(
            tx.send(DataBuffer::control(2), Some(Duration::from_millis(50))),
            SendOutcome::TimedOut
        ));
        assert_eq!(tx.queue_len(), 2);
        match rx.recv(Some(Duration::from_secs(5))) {
            RecvOutcome::Buf(buf) => assert_eq!(buf.tag, 0),
            other => panic!("expected tag 0, got {other:?}"),
        }
        // The returned credit lets the blocked send through.
        assert!(matches!(
            tx.send(DataBuffer::control(2), Some(Duration::from_secs(5))),
            SendOutcome::Sent
        ));
    }

    #[test]
    fn early_consumer_drop_reports_closed_to_producer() {
        let mut nodes = mesh(2, 3);
        let mut n1 = nodes.pop().unwrap();
        let mut n0 = nodes.pop().unwrap();
        let s = spec(0, 1, 4, vec![(0, 1)]);
        let rx = n1.open_endpoint(&s).unwrap();
        let tx = n0.open_sender(&s).unwrap();
        start_pair(&mut n0, &mut n1);
        drop(rx); // consumer hangs up before any data
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match tx.send(DataBuffer::control(0), Some(Duration::from_millis(100))) {
                SendOutcome::Closed => break,
                SendOutcome::Sent if Instant::now() < deadline => continue,
                other => panic!("expected Closed before the deadline, got {other:?}"),
            }
        }
    }

    #[test]
    fn early_consumer_drop_refunds_queued_frames() {
        let mut nodes = mesh(2, 5);
        let mut n1 = nodes.pop().unwrap();
        let mut n0 = nodes.pop().unwrap();
        let s = spec(0, 1, 4, vec![(0, 1)]);
        let barrier = spec(1, 1, 4, vec![(0, 1)]);
        let rx = n1.open_endpoint(&s).unwrap();
        let barrier_rx = n1.open_endpoint(&barrier).unwrap();
        let tx = n0.open_sender(&s).unwrap();
        let barrier_tx = n0.open_sender(&barrier).unwrap();
        start_pair(&mut n0, &mut n1);
        for tag in 0..4 {
            assert!(matches!(
                tx.send(DataBuffer::control(tag), None),
                SendOutcome::Sent
            ));
        }
        assert_eq!(tx.queue_len(), 4);
        // One connection, FIFO: once the barrier frame is out of node 1's
        // reader, the four frames before it sit in the endpoint's queue.
        assert!(matches!(
            barrier_tx.send(DataBuffer::control(9), None),
            SendOutcome::Sent
        ));
        assert!(matches!(
            barrier_rx.recv(Some(Duration::from_secs(5))),
            RecvOutcome::Buf(_)
        ));
        drop(rx); // never popped a frame: the drop must hand all four back
        await_queue_len(&*tx, 0);
    }

    #[test]
    fn excess_credit_from_the_wire_fails_the_transport() {
        let mut nodes = mesh(2, 6);
        let mut n1 = nodes.pop().unwrap();
        let mut n0 = nodes.pop().unwrap();
        let s = spec(0, 1, 2, vec![(0, 1)]);
        let _rx = n1.open_endpoint(&s).unwrap();
        let tx = n0.open_sender(&s).unwrap();
        start_pair(&mut n0, &mut n1);
        // Node 0's window is full; a CREDIT for a frame it never sent is
        // a protocol violation, not extra window.
        n1.shared.link.send_frame(0, Frame::credit(0, 1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while n0.shared.dead().is_none() {
            assert!(Instant::now() < deadline, "the excess CREDIT was accepted");
            thread::sleep(Duration::from_millis(1));
        }
        match tx.send(DataBuffer::control(0), None) {
            SendOutcome::Failed(GraphStorageError::Net(msg)) => {
                assert!(msg.contains("credit protocol violation"), "got: {msg}")
            }
            other => panic!("expected Failed(Net), got {other:?}"),
        }
        assert_eq!(
            tx.queue_len(),
            0,
            "the refused grant must not move the window"
        );
    }

    #[test]
    fn local_and_remote_producers_merge_into_one_endpoint() {
        let mut nodes = mesh(2, 7);
        let mut n1 = nodes.pop().unwrap();
        let mut n0 = nodes.pop().unwrap();
        let s = EndpointSpec {
            local_producers: 1,
            ..spec(0, 1, 2, vec![(0, 1)])
        };
        let rx = n1.open_endpoint(&s).unwrap();
        let remote_tx = n0.open_sender(&s).unwrap();
        let local_tx = n1.open_sender(&s).unwrap();
        start_pair(&mut n0, &mut n1);
        assert_eq!(local_tx.dst_node(), 1);
        assert_eq!(local_tx.wire_bytes(10), 10);
        assert_eq!(remote_tx.wire_bytes(10), (FRAME_OVERHEAD + 10) as u64);
        // Each producer node has its own window of 2.
        for tag in [10, 11] {
            assert!(matches!(
                local_tx.send(DataBuffer::control(tag), None),
                SendOutcome::Sent
            ));
        }
        assert!(matches!(
            local_tx.send(DataBuffer::control(12), Some(Duration::from_millis(20))),
            SendOutcome::TimedOut
        ));
        for tag in [20, 21] {
            assert!(matches!(
                remote_tx.send(DataBuffer::control(tag), None),
                SendOutcome::Sent
            ));
        }
        drop(local_tx);
        drop(remote_tx);
        let mut tags = Vec::new();
        loop {
            match rx.recv(Some(Duration::from_secs(5))) {
                RecvOutcome::Buf(buf) => tags.push(buf.tag),
                RecvOutcome::Closed => break,
                other => panic!("expected a buffer or Closed, got {other:?}"),
            }
        }
        tags.sort_unstable();
        assert_eq!(tags, vec![10, 11, 20, 21]);
    }

    #[test]
    fn topology_mismatch_refuses_handshake() {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let opts = TcpOptions {
            io_timeout: Duration::from_secs(2),
            dial_timeout: Duration::from_secs(2),
            ..TcpOptions::default()
        };
        let mut it = listeners.into_iter();
        let (l0, l1) = (it.next().unwrap(), it.next().unwrap());
        let a0 = addrs.clone();
        let o0 = opts.clone();
        let h = thread::spawn(move || TcpTransport::establish(0, l0, &a0, 7, o0));
        let r1 = TcpTransport::establish(1, l1, &addrs, 8, opts);
        let r0 = h.join().unwrap();
        let msg = match (r0, r1) {
            (Err(e), _) | (_, Err(e)) => e.to_string(),
            _ => panic!("expected at least one side to refuse the handshake"),
        };
        assert!(msg.contains("topology"), "got: {msg}");
    }

    #[test]
    fn peer_death_fails_blocked_recv_with_net_error() {
        let mut nodes = mesh(2, 4);
        let mut n1 = nodes.pop().unwrap();
        let mut n0 = nodes.pop().unwrap();
        let s = spec(0, 1, 4, vec![(0, 1)]);
        let rx = n1.open_endpoint(&s).unwrap();
        let tx = n0.open_sender(&s).unwrap();
        start_pair(&mut n0, &mut n1);
        // Node 0 "dies": its connections end without BYE.
        drop(tx);
        n0.shared.link.shutdown();
        // ...makes node 1's blocked recv fail, not hang. (The CLOSE from
        // dropping tx may race the shutdown, so Closed is also possible,
        // but a hang is not.)
        match rx.recv(Some(Duration::from_secs(10))) {
            RecvOutcome::Failed(GraphStorageError::Net(msg)) => {
                assert!(
                    msg.contains("without BYE") || msg.contains("reading"),
                    "got: {msg}"
                )
            }
            RecvOutcome::Closed => {}
            other => panic!("expected Failed(Net) or Closed, got {other:?}"),
        }
    }
}
