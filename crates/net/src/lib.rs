#![warn(missing_docs)]
//! `mssg-net` — DataCutter logical streams over real sockets.
//!
//! The in-process substrate (`datacutter::InProc`) runs every node as a
//! thread. This crate supplies the other implementation of the same
//! [`Transport`](datacutter::Transport) trait: [`TcpTransport`] carries
//! streams between one OS process per node over TCP, with a
//! length-prefixed wire format ([`wire`]), credit-based flow control
//! that preserves the bounded-channel backpressure the static verifier
//! reasons about, and a handshake that refuses peers running a
//! different wire version or graph topology.
//!
//! The [`launcher`] spawns a graph as N localhost processes from the
//! same `GraphBuilder` description (the `mssg-node` binary is its CLI),
//! and [`workload`] is a self-contained distributed ingest → BFS
//! pipeline used by the smoke tests and benchmarks to prove transport
//! fidelity: TCP and in-process runs must produce byte-identical BFS
//! levels.
//!
//! The credit protocol exists once, in [`tcp`]; what carries its frames
//! is a seam. Besides sockets there are two other carriers: [`sim`] runs
//! whole clusters in one process over virtual connections with seeded
//! wire faults, and [`model`] joins transports by inline delivery so
//! `mssg-modelcheck` can explore every interleaving of the shipping code.
//!
//! See DESIGN.md §8 "Distributed transport" for the wire format, the
//! credit protocol, and the failure mapping, and §12.2 for the model
//! link.

pub mod conn;
pub mod launcher;
pub mod model;
pub mod sim;
pub mod tcp;
pub mod wire;
pub mod workload;

pub use conn::{Conn, Listener};
pub use launcher::{announce_and_gather, report_error, run_cluster, ClusterOutput};
pub use model::{model_cluster, CreditAudit, LinkFault};
pub use sim::{run_workload_sim, SimConn, SimFault, SimListener, SimNet};
pub use tcp::{TcpOptions, TcpTransport};
pub use wire::{Frame, FrameKind, FRAME_OVERHEAD, MAX_PAYLOAD};
pub use workload::{run_inproc, run_tcp_localhost, WorkloadConfig, WorkloadReport};
