#![warn(missing_docs)]
//! A filter/stream component middleware — the DataCutter substrate
//! (thesis §3.1) that MSSG is built on.
//!
//! DataCutter's model: an application is a graph of *filters* that exchange
//! [`DataBuffer`]s over unidirectional *logical streams*. The runtime
//! places filter instances ("transparent copies") on cluster nodes,
//! connects the logical endpoints, and drives each filter's
//! `init` / `process` / `finalize` interface. Data exchange between filters
//! on the same host is a memory copy; between hosts it crosses the network.
//!
//! ## The cluster substitution
//!
//! The original runs over MPI on a physical cluster. Here a *node* is an OS
//! thread and a stream is a bounded crossbeam channel — preserving message
//! ordering, backpressure, and the communication structure, which is what
//! the algorithms actually observe. What a thread pool cannot preserve is
//! the *cost* of remote messages, so every send is classified local/remote
//! and counted in [`NetStats`]; [`NetworkCostModel`] converts the counts
//! into modeled network time (per-message latency + bandwidth), mirroring
//! how `simio` treats disk I/O. See DESIGN.md §2.
//!
//! ## Shape of an application
//!
//! ```
//! use datacutter::{DataBuffer, Filter, FilterContext, GraphBuilder};
//! use mssg_types::Result;
//!
//! struct Producer;
//! impl Filter for Producer {
//!     fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
//!         for i in 0..10u64 {
//!             ctx.output("out")?.send_rr(DataBuffer::from_words(0, &[i]))?;
//!         }
//!         Ok(())
//!     }
//! }
//!
//! struct Summer(u64);
//! impl Filter for Summer {
//!     fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
//!         while let Some(buf) = ctx.input("in")?.recv()? {
//!             self.0 += buf.try_words()?.sum::<u64>();
//!         }
//!         Ok(())
//!     }
//! }
//!
//! let mut g = GraphBuilder::new();
//! let p = g.add_filter("producer", vec![0], |_| Box::new(Producer)).unwrap();
//! let s = g.add_filter("summer", vec![1, 2], |_| Box::new(Summer(0))).unwrap();
//! g.connect(p, "out", s, "in").unwrap();
//! let report = g.run().unwrap();
//! assert_eq!(report.net.remote_msgs + report.net.local_msgs, 10);
//! ```
//!
//! A payload from another filter is read through a checked view
//! ([`DataBuffer::try_words`], [`DataBuffer::try_edges`]): a length that
//! is not whole words or edges is `Corrupt`, never a panic.
//!
//! ## Bulk-synchronous programs
//!
//! [`superstep`] is the round protocol of `p` copies of one filter joined
//! all-to-all: tagged messages, a per-phase barrier that stashes early
//! messages, and checked record decoding. `mssg-core`'s analyses and
//! `mssg-net`'s distributed workload both run on it, so the exchange that
//! crosses process boundaries is the one the analyses use. Copies may run
//! one program after another as numbered jobs, each dropping the messages
//! of any other, and [`FilterContext::usage`] lets a copy account each job
//! on its own.
//!
//! ## Static verification
//!
//! Misbuilt graphs fail *before* launch, not minutes into a run:
//! [`GraphBuilder::add_filter`] and [`GraphBuilder::connect`] reject
//! duplicate names and conflicting wiring with a typed
//! [`VerifyError`](mssg_types::VerifyError), and [`GraphBuilder::run`]
//! gates on [`GraphBuilder::verify`] — declared-port wiring, decluster
//! contracts ([`GraphBuilder::expect_consumers`]), and a credit-flow
//! analysis that rejects bounded-buffer cycles capable of deadlock,
//! naming the starved cycle. See the [`verify`] module for the
//! analysis and its limits, and [`GraphBuilder::allow_unverified`] for
//! the experiment escape hatch.
//!
//! ## Fault tolerance
//!
//! The runtime is fail-stop, like the classic DataCutter one: a copy that
//! panics or returns an error fails the run, and [`GraphBuilder::run`]
//! reports the root cause — a panic as a typed `FilterFailed` naming the
//! copy and its panic. Recovery is the application's, by re-running: the
//! ingestion checkpoint in `mssg-core` resumes a failed stream from each
//! node's window watermark. Two opt-in mechanisms keep failures prompt
//! and testable:
//!
//! - **Stream timeouts** ([`GraphBuilder::stream_timeout`]): every
//!   blocking send/recv gains a deadline; exceeding it fails the
//!   operation with a typed `Timeout` error instead of hanging — the
//!   guard that turns "a peer died and will never send ROUND_DONE" into
//!   a clean error.
//! - **Fault injection** ([`FaultPlan`], [`GraphBuilder::fault_plan`]):
//!   deterministic, seed-driven panics, send errors, and stalls at
//!   chosen port operations of a copy's site `"{filter}.{copy}"`, for
//!   chaos testing. The plan is the workspace's one fault grammar, which
//!   the wire simulator and the model link in `mssg-net` speak too (see
//!   [`fault`]). Fired faults are audited in [`RunReport::faults`] and
//!   the `dc.faults_injected` counter.
//!
//! See DESIGN.md §"Failure model" for what is and is not guaranteed.
//!
//! ## Hot-path buffers
//!
//! Payloads are `Arc`-backed ([`bytes::Bytes`]): point-to-point sends move
//! one allocation end to end, broadcast shares it across consumers, and
//! the TCP transport encodes it without an intermediate copy.

pub mod buffer;
pub mod fault;
pub mod filter;
pub mod graph;
pub mod netstats;
pub mod runtime;
pub mod superstep;
pub mod transport;
pub mod verify;

pub use buffer::DataBuffer;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use filter::{CopyUsage, Filter, FilterContext, InPort, OutPort};
pub use graph::{FilterHandle, GraphBuilder};
pub use netstats::{NetSnapshot, NetStats, NetworkCostModel};
pub use runtime::{run_node, FilterTiming, RunReport};
pub use transport::{
    ChannelRx, ChannelTx, EndpointSpec, InProc, RecvOutcome, RxEndpoint, SendOutcome, Transport,
    TxEndpoint,
};

/// Identifies a logical cluster node (a thread in this substrate).
pub type NodeId = usize;
