//! `SimNet` — a seeded, deterministic in-process wire simulator.
//!
//! Every abstraction the real cluster runs over a kernel socket —
//! [`TcpTransport`] links, the `mssg-serve`
//! accept loop, client connections — also runs over a [`SimConn`]: a
//! virtual duplex link whose two directed byte pipes live in process
//! memory. That buys three things the kernel cannot give:
//!
//! 1. **Determinism.** No ports, no ephemeral addresses, no kernel
//!    buffering heuristics. A whole N-node cluster plus its serving
//!    clients runs in one process, and a chaos run is reproducible from
//!    a single seed.
//! 2. **Exact fault placement.** The pipe tracks wire-format frame
//!    boundaries ([`wire::declared_frame_len`]), so a
//!    [`FaultPlan<SimFault>`] can inject a connection reset *at frame 3*,
//!    corrupt the length prefix of frame 0 (the handshake HELLO), cut a
//!    frame after 7 bytes, or stall a link past the read deadline — at a
//!    chosen offset, every time. The plan is the workspace's one fault
//!    grammar (`datacutter::fault`): sites are directed pipe labels
//!    (`"n0->n1"`), ops are 0-based frame indexes, and seeded chaos gives
//!    each pipe its own stream, so a schedule never depends on thread
//!    interleaving.
//! 3. **An audit.** Every injected fault is recorded as a
//!    [`FaultEvent<SimFault>`] ([`SimNet::audit`]); the chaos harnesses
//!    assert that a run which diverged from the fault-free digest has a
//!    non-empty audit, and that faults always surface as typed errors —
//!    never a hang, never a panic.
//!
//! The simulator sits *below* the framing layer: it moves (and
//! sabotages) raw bytes, and the unmodified production code above it —
//! handshake, credit protocol, serving protocol — must turn whatever
//! comes out into a typed `GraphStorageError`. See DESIGN.md §14.

use crate::conn::{Conn, Listener};
use crate::tcp::TcpTransport;
use crate::wire;
use crate::workload::{self, WorkloadConfig, WorkloadReport};
use datacutter::fault::{Fault, FaultEvent, FaultLog, FaultPlan, SiteFaults};
use mssg_obs::{Counter, Telemetry};
use mssg_types::{splitmix64, Result};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// One wire-level fault a [`FaultPlan`] can inject into a directed pipe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimFault {
    /// Connection reset: the frame is not delivered and both directions
    /// of the link fail with `ConnectionReset` I/O errors (which the
    /// framing layer maps to typed `Net` errors).
    Reset,
    /// The first `n` bytes of the frame are delivered, then the link is
    /// reset — the peer's reader sees a torn frame.
    PartialWrite(usize),
    /// The frame's 4-byte length prefix is overwritten with a value far
    /// beyond `MAX_PAYLOAD`; the decoder must answer `Corrupt` without
    /// allocating.
    CorruptLength,
    /// The frame's kind byte is overwritten with an unassigned value;
    /// the decoder must answer `Corrupt`.
    CorruptKind,
    /// Delivery on this pipe pauses for the duration, then resumes —
    /// long stalls push readers past their deadline into typed timeouts,
    /// short ones just perturb timing.
    Stall(Duration),
    /// Both directions of the link stall, healing after the given
    /// duration (`None` = never heals; only directed tests use that).
    Partition(Option<Duration>),
    /// Audit marker recorded by [`SimNet::heal`]; never scheduled.
    Heal,
}

impl Fault for SimFault {
    /// One of the six schedulable faults, uniformly: stalls of 5–40 ms,
    /// partitions that heal after 10–40 ms, partial writes of 1–24 bytes.
    fn draw(rng: &mut u64) -> SimFault {
        match splitmix64(rng) % 6 {
            0 => SimFault::Reset,
            1 => SimFault::PartialWrite(1 + (splitmix64(rng) % 24) as usize),
            2 => SimFault::CorruptLength,
            3 => SimFault::CorruptKind,
            4 => SimFault::Stall(Duration::from_millis(5 + splitmix64(rng) % 36)),
            _ => SimFault::Partition(Some(Duration::from_millis(10 + splitmix64(rng) % 31))),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stall {
    Until(Instant),
    Forever,
}

/// One directed byte pipe with frame tracking and a fault schedule.
struct PipeState {
    buf: VecDeque<u8>,
    /// Writer side closed (EOF after the buffer drains).
    eof: bool,
    /// Link reset: reads drain the buffer then error, writes error.
    reset: bool,
    stall: Option<Stall>,
    /// The pipe's fault schedule; its ops are frame indexes.
    faults: SiteFaults<SimFault>,
    /// 0-based index of the frame currently being written.
    frame_idx: u64,
    /// Byte offset within the current frame (0 = at a frame boundary).
    frame_pos: u64,
    /// Declared wire length of the current frame, known once 4 header
    /// bytes are in.
    frame_len: u64,
    /// The frame's *original* length-prefix bytes — kept pristine for
    /// boundary tracking even when `CorruptLength` mangles the wire.
    hdr: [u8; 4],
    corrupt_len: bool,
    corrupt_kind: bool,
    /// `PartialWrite` byte budget for the current frame.
    partial_left: Option<usize>,
}

struct Pipe {
    dir: String,
    state: Mutex<PipeState>,
    cv: Condvar,
}

impl Pipe {
    fn new(dir: String, faults: SiteFaults<SimFault>) -> Pipe {
        Pipe {
            dir,
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                eof: false,
                reset: false,
                stall: None,
                faults,
                frame_idx: 0,
                frame_pos: 0,
                frame_len: 0,
                hdr: [0; 4],
                corrupt_len: false,
                corrupt_kind: false,
                partial_left: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn notify(&self) {
        self.cv.notify_all();
    }
}

/// The two directed pipes between a pair of endpoints. `pipes[0]`
/// carries `a`'s writes toward `b`, `pipes[1]` the reverse.
struct LinkConn {
    a: String,
    b: String,
    pipes: [Pipe; 2],
}

impl LinkConn {
    /// Fails both directions, as a TCP RST would.
    fn reset_both(&self) {
        for p in &self.pipes {
            p.lock().reset = true;
            p.notify();
        }
    }

    fn stall_both(&self, heal_after: Option<Duration>) {
        let stall = match heal_after {
            Some(d) => Stall::Until(Instant::now() + d),
            None => Stall::Forever,
        };
        for p in &self.pipes {
            p.lock().stall = Some(stall);
            p.notify();
        }
    }

    fn clear_stall(&self) {
        for p in &self.pipes {
            p.lock().stall = None;
            p.notify();
        }
    }

    fn touches(&self, label: &str) -> bool {
        self.a == label || self.b == label
    }
}

struct NetInner {
    plan: FaultPlan<SimFault>,
    log: FaultLog<SimFault>,
    listeners: Mutex<HashMap<String, Arc<ListenerInner>>>,
    links: Mutex<Vec<Weak<LinkConn>>>,
    frames: Counter,
    bytes: Counter,
}

impl NetInner {
    fn pipe(&self, dir: String) -> Pipe {
        let faults = self.plan.site(&dir, &self.log);
        Pipe::new(dir, faults)
    }
}

/// The simulator: a factory for virtual links plus the name registry
/// the serving plane's [`SimListener`] / [`SimNet::connect`] use.
///
/// Cloneable handle semantics come from the `Arc` inside; tests keep one
/// `SimNet` and hand conns to cluster threads.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl SimNet {
    /// A simulator executing `plan`, with metrics discarded.
    pub fn new(plan: FaultPlan<SimFault>) -> SimNet {
        Self::with_telemetry(plan, Telemetry::disabled())
    }

    /// A simulator executing `plan`, counting `sim.frames` /
    /// `sim.bytes` / `sim.faults` into `telemetry`.
    pub fn with_telemetry(plan: FaultPlan<SimFault>, telemetry: Telemetry) -> SimNet {
        SimNet {
            inner: Arc::new(NetInner {
                plan,
                log: FaultLog::new(telemetry.metrics.counter("sim.faults")),
                listeners: Mutex::new(HashMap::new()),
                links: Mutex::new(Vec::new()),
                frames: telemetry.metrics.counter("sim.frames"),
                bytes: telemetry.metrics.counter("sim.bytes"),
            }),
        }
    }

    /// Every fault injected so far, in firing order.
    pub fn audit(&self) -> Vec<FaultEvent<SimFault>> {
        self.inner.log.events()
    }

    /// Creates a virtual duplex link between endpoints labeled `a` and
    /// `b`; returns (`a`'s end, `b`'s end). The directed pipe labels —
    /// `"{a}->{b}"` and `"{b}->{a}"` — are the sites a [`FaultPlan`]
    /// addresses.
    pub fn link(&self, a: &str, b: &str) -> (SimConn, SimConn) {
        let link = Arc::new(LinkConn {
            a: a.to_string(),
            b: b.to_string(),
            pipes: [
                self.inner.pipe(format!("{a}->{b}")),
                self.inner.pipe(format!("{b}->{a}")),
            ],
        });
        self.inner
            .links
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::downgrade(&link));
        let end = |side| SimConn {
            end: Arc::new(ConnEnd {
                link: Arc::clone(&link),
                side,
                net: Arc::clone(&self.inner),
                read_deadline: Mutex::new(None),
            }),
        };
        (end(0), end(1))
    }

    /// Registers a named accept surface (the sim analogue of binding a
    /// TCP listener). Connecting clients get per-listener sequence
    /// labels `"{name}#0"`, `"{name}#1"`, …
    pub fn listen(&self, name: &str) -> SimListener {
        let inner = Arc::new(ListenerInner {
            name: name.to_string(),
            state: Mutex::new(AcceptState {
                pending: VecDeque::new(),
                closed: false,
                accepted_total: 0,
            }),
            cv: Condvar::new(),
        });
        self.inner
            .listeners
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), Arc::clone(&inner));
        SimListener { inner }
    }

    /// Dials the listener registered as `name`, yielding the client end
    /// of a fresh link (the server end lands in the listener's accept
    /// queue). `ConnectionRefused` if nothing is listening.
    pub fn connect(&self, name: &str) -> io::Result<SimConn> {
        let listener = self
            .inner
            .listeners
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("no sim listener named {name:?}"),
                )
            })?;
        let client_label = {
            let mut st = listener.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.closed {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("sim listener {name:?} is closed"),
                ));
            }
            let k = st.accepted_total;
            st.accepted_total += 1;
            format!("{name}#{k}")
        };
        let (client, server) = self.link(&client_label, name);
        {
            let mut st = listener.state.lock().unwrap_or_else(|e| e.into_inner());
            st.pending.push_back(server);
        }
        listener.cv.notify_all();
        Ok(client)
    }

    /// Partitions every live link touching endpoint label `node` (both
    /// directions stall until [`SimNet::heal`]). Audited as a
    /// [`SimFault::Partition`] with no heal time.
    pub fn partition(&self, node: &str) {
        self.for_links_of(node, |l| l.stall_both(None));
        self.inner.log.record(node, 0, SimFault::Partition(None));
    }

    /// Heals every live link touching endpoint label `node` (clears any
    /// stall, including chaos stalls). Audited as [`SimFault::Heal`].
    pub fn heal(&self, node: &str) {
        self.for_links_of(node, |l| l.clear_stall());
        self.inner.log.record(node, 0, SimFault::Heal);
    }

    fn for_links_of(&self, node: &str, f: impl Fn(&LinkConn)) {
        let links = self.inner.links.lock().unwrap_or_else(|e| e.into_inner());
        for weak in links.iter() {
            if let Some(link) = weak.upgrade() {
                if link.touches(node) {
                    f(&link);
                }
            }
        }
    }
}

struct AcceptState {
    pending: VecDeque<SimConn>,
    closed: bool,
    accepted_total: u64,
}

struct ListenerInner {
    name: String,
    state: Mutex<AcceptState>,
    cv: Condvar,
}

/// The sim analogue of a bound [`std::net::TcpListener`]; implements
/// [`Listener`] so `serve::Server::start_on` can accept virtual clients.
pub struct SimListener {
    inner: Arc<ListenerInner>,
}

impl Listener for SimListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(conn) = st.pending.pop_front() {
                return Ok(Box::new(conn));
            }
            if st.closed {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("sim listener {:?} unblocked", self.inner.name),
                ));
            }
            st = self.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn unblock(&self) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        drop(st);
        self.inner.cv.notify_all();
    }

    fn label(&self) -> String {
        format!("sim:{}", self.inner.name)
    }
}

struct ConnEnd {
    link: Arc<LinkConn>,
    side: usize,
    net: Arc<NetInner>,
    /// Shared across clones, mirroring how a cloned `TcpStream` shares
    /// its file description's timeout.
    read_deadline: Mutex<Option<Duration>>,
}

/// Cross-pipe consequence of a fault, applied after the pipe lock is
/// released (both pipes are locked in array order, never nested).
enum CrossAction {
    Reset,
    Stall(Option<Duration>),
}

fn reset_err(dir: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("simulated connection reset on {dir}"),
    )
}

impl ConnEnd {
    fn out_pipe(&self) -> &Pipe {
        &self.link.pipes[self.side]
    }

    fn in_pipe(&self) -> &Pipe {
        &self.link.pipes[1 - self.side]
    }

    fn write_bytes(&self, data: &[u8]) -> io::Result<usize> {
        let mut done = 0;
        while done < data.len() {
            let (n, action) = self.write_step(&data[done..])?;
            done += n;
            match action {
                None => {}
                Some(CrossAction::Reset) => {
                    self.link.reset_both();
                    return Err(reset_err(&self.out_pipe().dir));
                }
                // A partition stalls delivery but the writer keeps
                // writing into the (now dammed) pipe, like a TCP sender
                // filling its window.
                Some(CrossAction::Stall(heal)) => self.link.stall_both(heal),
            }
        }
        Ok(data.len())
    }

    /// Moves bytes into the outgoing pipe until `data` runs out or a
    /// fault interrupts; returns bytes consumed plus any action that
    /// must be applied to both pipes.
    fn write_step(&self, data: &[u8]) -> io::Result<(usize, Option<CrossAction>)> {
        let pipe = self.out_pipe();
        let mut st = pipe.lock();
        if st.reset {
            return Err(reset_err(&pipe.dir));
        }
        if st.eof {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("write on closed sim pipe {}", pipe.dir),
            ));
        }
        let mut pushed = 0usize;
        let mut action = None;
        for &byte in data {
            if st.frame_pos == 0 {
                let frame = st.frame_idx;
                if let Some(fault) = st.faults.fire(frame, |_| true) {
                    match fault {
                        SimFault::Reset => {
                            action = Some(CrossAction::Reset);
                            break;
                        }
                        SimFault::PartialWrite(n) => st.partial_left = Some(n.max(1)),
                        SimFault::CorruptLength => st.corrupt_len = true,
                        SimFault::CorruptKind => st.corrupt_kind = true,
                        SimFault::Stall(d) => st.stall = Some(Stall::Until(Instant::now() + d)),
                        SimFault::Partition(heal) => {
                            action = Some(CrossAction::Stall(heal));
                            break;
                        }
                        SimFault::Heal => {}
                    }
                }
            }
            let pos = st.frame_pos;
            let mut wire_byte = byte;
            if pos < 4 {
                st.hdr[pos as usize] = byte;
                // Setting the length's top bits declares a body far past
                // MAX_PAYLOAD; the decoder must refuse before allocating.
                if st.corrupt_len && pos == 3 {
                    wire_byte |= 0x70;
                }
            } else if pos == 4 && st.corrupt_kind {
                wire_byte = 0xEE;
            }
            st.buf.push_back(wire_byte);
            pushed += 1;
            st.frame_pos += 1;
            if st.frame_pos == 4 {
                st.frame_len = wire::declared_frame_len(st.hdr);
            }
            if let Some(left) = st.partial_left.as_mut() {
                *left -= 1;
                if *left == 0 {
                    st.partial_left = None;
                    action = Some(CrossAction::Reset);
                    break;
                }
            }
            if st.frame_pos >= 4 && st.frame_pos == st.frame_len {
                st.frame_pos = 0;
                st.frame_idx += 1;
                st.corrupt_len = false;
                st.corrupt_kind = false;
                self.net.frames.inc();
            }
        }
        drop(st);
        if pushed > 0 {
            self.net.bytes.add(pushed as u64);
            pipe.notify();
        }
        Ok((pushed, action))
    }

    fn read_bytes(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let deadline = self
            .read_deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|t| Instant::now() + t);
        let pipe = self.in_pipe();
        let mut st = pipe.lock();
        loop {
            // A reset outranks a stall (the RST arrives out of band),
            // but already-delivered bytes are served first so a torn
            // frame surfaces as *torn*, not as an instant reset.
            if st.reset {
                if st.buf.is_empty() {
                    return Err(reset_err(&pipe.dir));
                }
                return Ok(drain(&mut st.buf, out));
            }
            let now = Instant::now();
            let mut heal_at = None;
            let stalled = match st.stall {
                Some(Stall::Forever) => true,
                Some(Stall::Until(t)) => {
                    if t > now {
                        heal_at = Some(t);
                        true
                    } else {
                        st.stall = None;
                        false
                    }
                }
                None => false,
            };
            if !stalled {
                if !st.buf.is_empty() {
                    return Ok(drain(&mut st.buf, out));
                }
                if st.eof {
                    return Ok(0);
                }
            }
            if let Some(d) = deadline {
                if now >= d {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!("simulated read deadline expired on {}", pipe.dir),
                    ));
                }
            }
            // Bounded waits so stall heals and deadlines are honored
            // even without a wakeup.
            let mut slice = Duration::from_millis(50);
            if let Some(h) = heal_at {
                slice = slice.min(h.saturating_duration_since(now));
            }
            if let Some(d) = deadline {
                slice = slice.min(d.saturating_duration_since(now));
            }
            let (guard, _) = pipe
                .cv
                .wait_timeout(st, slice.max(Duration::from_millis(1)))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    fn close_write(&self) {
        let pipe = self.out_pipe();
        pipe.lock().eof = true;
        pipe.notify();
    }
}

fn drain(buf: &mut VecDeque<u8>, out: &mut [u8]) -> usize {
    let n = buf.len().min(out.len());
    for slot in out.iter_mut().take(n) {
        *slot = buf.pop_front().expect("n bounded by buf.len()");
    }
    n
}

impl Drop for ConnEnd {
    fn drop(&mut self) {
        self.close_write();
    }
}

/// One endpoint of a virtual duplex link; the sim analogue of a
/// connected [`std::net::TcpStream`]. Cloning (via
/// [`Conn::try_clone_conn`]) shares the endpoint, so a reader thread and
/// a writer thread can own handles to the same conn — the pipe closes
/// when the last handle drops.
pub struct SimConn {
    end: Arc<ConnEnd>,
}

impl Read for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.end.read_bytes(buf)
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.end.write_bytes(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for SimConn {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(SimConn {
            end: Arc::clone(&self.end),
        }))
    }

    fn shutdown_write(&self) -> io::Result<()> {
        self.end.close_write();
        Ok(())
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.end.close_write();
        // Closing the read side makes subsequent peer writes fail, as a
        // kernel socket eventually would after a full shutdown.
        let pipe = self.end.in_pipe();
        pipe.lock().eof = true;
        pipe.notify();
        Ok(())
    }

    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        *self
            .end
            .read_deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = timeout;
        Ok(())
    }

    fn set_write_deadline(&self, _timeout: Option<Duration>) -> io::Result<()> {
        // Sim writes never block: the pipe buffer is unbounded.
        Ok(())
    }

    fn peer_label(&self) -> String {
        format!("sim:{}", self.end.in_pipe().dir)
    }
}

/// Runs the distributed ingest → BFS workload with every transport link
/// virtualized through `sim` — the whole cluster in one process, under
/// the sim's fault plan. Node `i` is labeled `"n{i}"`, so the pipe from
/// node 0 to node 1 is addressable as `"n0->n1"`.
///
/// The same runner as [`workload::run_tcp_localhost`]: same graph, same
/// per-node threads, same report; only the wire differs. Returns node 0's
/// report, or the first typed error any node hit.
pub fn run_workload_sim(
    cfg: &WorkloadConfig,
    sim: &SimNet,
    telemetry: Telemetry,
) -> Result<WorkloadReport> {
    let n = cfg.nodes;
    let mut conns: Vec<Vec<Option<Box<dyn Conn>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    // Both halves of each link land in different rows, so indexing is
    // the only borrow-legal shape here.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = sim.link(&format!("n{i}"), &format!("n{j}"));
            conns[i][j] = Some(Box::new(a));
            conns[j][i] = Some(Box::new(b));
        }
    }
    workload::run_node_threads(cfg, telemetry, conns, TcpTransport::establish_over)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, Frame};
    use mssg_types::GraphStorageError;

    #[test]
    fn bytes_round_trip_and_eof_propagates() {
        let sim = SimNet::new(FaultPlan::new());
        let (mut a, mut b) = sim.link("l", "r");
        let frame = Frame::data(3, 7, &[1, 2, 3, 4]);
        write_frame(&mut a, &frame).unwrap();
        let got = read_frame(&mut b).unwrap().expect("one frame");
        assert_eq!(got.payload, frame.payload);
        drop(a);
        assert!(read_frame(&mut b).unwrap().is_none(), "EOF after drop");
        assert!(sim.audit().is_empty());
    }

    #[test]
    fn corrupt_length_is_a_typed_corrupt_never_a_giant_alloc() {
        let plan = FaultPlan::new().inject("l->r", 0, SimFault::CorruptLength);
        let sim = SimNet::new(plan);
        let (mut a, mut b) = sim.link("l", "r");
        write_frame(&mut a, &Frame::data(0, 0, &[9; 32])).unwrap();
        match read_frame(&mut b) {
            Err(GraphStorageError::Corrupt(_)) => {}
            other => panic!("want Corrupt, got {other:?}"),
        }
        assert_eq!(sim.audit().len(), 1);
    }

    #[test]
    fn reset_surfaces_as_net_error_and_partial_write_tears_the_frame() {
        let plan = FaultPlan::new().inject("l->r", 1, SimFault::PartialWrite(7));
        let sim = SimNet::new(plan);
        let (mut a, mut b) = sim.link("l", "r");
        write_frame(&mut a, &Frame::data(0, 0, &[1; 8])).unwrap();
        assert!(write_frame(&mut a, &Frame::data(0, 1, &[2; 8])).is_err());
        // Frame 0 arrives whole; frame 1 is torn after 7 bytes.
        assert!(read_frame(&mut b).unwrap().is_some());
        match read_frame(&mut b) {
            Err(GraphStorageError::Net(_)) => {}
            other => panic!("want Net, got {other:?}"),
        }
        let audit = sim.audit();
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].at, 1);
    }

    #[test]
    fn stall_delays_but_delivers_and_deadline_turns_into_would_block() {
        let plan = FaultPlan::new().inject("l->r", 0, SimFault::Stall(Duration::from_millis(30)));
        let sim = SimNet::new(plan);
        let (mut a, mut b) = sim.link("l", "r");
        write_frame(&mut a, &Frame::data(0, 0, &[5; 4])).unwrap();
        let started = Instant::now();
        assert!(read_frame(&mut b).unwrap().is_some());
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "stall observed"
        );

        // A forever-partition plus a read deadline = typed timeout.
        let plan = FaultPlan::new().inject("x->y", 0, SimFault::Partition(None));
        let sim = SimNet::new(plan);
        let (mut x, y) = sim.link("x", "y");
        write_frame(&mut x, &Frame::data(0, 0, &[1])).unwrap();
        y.set_read_deadline(Some(Duration::from_millis(40)))
            .unwrap();
        let mut y = y;
        match read_frame(&mut y) {
            Err(GraphStorageError::Net(msg)) => assert!(msg.contains("deadline"), "{msg}"),
            other => panic!("want Net timeout, got {other:?}"),
        }
    }

    #[test]
    fn listener_accepts_connects_and_unblocks() {
        let sim = SimNet::new(FaultPlan::new());
        let listener = sim.listen("svc");
        let mut client = sim.connect("svc").unwrap();
        let mut server = listener.accept_conn().unwrap();
        client.write_all(b"hi").unwrap();
        drop(client);
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"hi");
        assert_eq!(server.peer_label(), "sim:svc#0->svc");
        listener.unblock();
        assert!(listener.accept_conn().is_err());
        assert!(sim.connect("nobody").is_err());
    }

    #[test]
    fn partition_and_heal_round_trip() {
        let sim = SimNet::new(FaultPlan::new());
        let (mut a, mut b) = sim.link("n0", "n1");
        sim.partition("n0");
        write_frame(&mut a, &Frame::data(0, 0, &[1])).unwrap();
        b.set_read_deadline(Some(Duration::from_millis(30)))
            .unwrap();
        assert!(read_frame(&mut b).is_err(), "partitioned link times out");
        sim.heal("n0");
        b.set_read_deadline(None).unwrap();
        assert!(
            read_frame(&mut b).unwrap().is_some(),
            "healed link delivers"
        );
        let kinds: Vec<_> = sim.audit().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![SimFault::Partition(None), SimFault::Heal]);
    }
}
