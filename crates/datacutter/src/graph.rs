//! Filter-graph construction.
//!
//! Every stream is addressed: a producer copy reaches each consumer copy's
//! own queue, chosen per send (targeted, round-robin or broadcast). There
//! is no shared work queue, so every stream can cross a process boundary.

use crate::fault::{FaultKind, FaultPlan};
use crate::filter::Filter;
use crate::NodeId;
use mssg_obs::Telemetry;
use mssg_types::VerifyError;
use std::collections::HashMap;
use std::time::Duration;

/// Factory producing one filter instance per transparent copy. Receives
/// the copy index.
pub type FilterFactory = Box<dyn FnMut(usize) -> Box<dyn Filter> + Send>;

/// Handle to a filter added to a [`GraphBuilder`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FilterHandle(pub(crate) usize);

pub(crate) struct FilterDef {
    pub name: String,
    pub placement: Vec<NodeId>,
    pub factory: FilterFactory,
}

pub(crate) struct StreamDef {
    pub from: usize,
    pub out_port: String,
    pub to: usize,
    pub in_port: String,
}

/// Opt-in port declarations for one filter, enabling the verifier's
/// wiring checks (see [`GraphBuilder::declare_ports`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct PortDecls {
    pub inputs: Vec<String>,
    pub outputs: Vec<String>,
}

/// Builds a filter graph: filters with placements, connected by logical
/// streams. Consumed by [`GraphBuilder::run`].
pub struct GraphBuilder {
    pub(crate) filters: Vec<FilterDef>,
    pub(crate) streams: Vec<StreamDef>,
    pub(crate) channel_capacity: usize,
    pub(crate) telemetry: Telemetry,
    pub(crate) stream_timeout: Option<Duration>,
    pub(crate) fault_plan: Option<FaultPlan<FaultKind>>,
    pub(crate) max_restarts: u32,
    pub(crate) restart_backoff: Duration,
    /// Opt-in port declarations, keyed by filter index.
    pub(crate) decls: HashMap<usize, PortDecls>,
    /// Declared per-copy send windows, keyed by (filter, out_port):
    /// the most buffers one copy may emit on that port before it next
    /// blocks on a receive. Default 1 (see the verifier docs).
    pub(crate) windows: HashMap<(usize, String), u64>,
    /// Declared consumer-copy contracts, keyed by (filter, out_port).
    pub(crate) expected_consumers: HashMap<(usize, String), usize>,
    /// When `true` (default), `run` rejects graphs that fail `verify`.
    pub(crate) verify_gate: bool,
}

impl GraphBuilder {
    /// An empty graph with the default stream capacity (1024 buffers),
    /// disabled telemetry, no stream timeouts, no fault plan, and no
    /// supervision (a failed copy fails the run, as DataCutter's did).
    pub fn new() -> GraphBuilder {
        GraphBuilder {
            filters: Vec::new(),
            streams: Vec::new(),
            channel_capacity: 1024,
            telemetry: Telemetry::disabled(),
            stream_timeout: None,
            fault_plan: None,
            max_restarts: 0,
            restart_backoff: Duration::from_millis(25),
            decls: HashMap::new(),
            windows: HashMap::new(),
            expected_consumers: HashMap::new(),
            verify_gate: true,
        }
    }

    /// Sets the bounded capacity of every stream (backpressure depth).
    pub fn channel_capacity(&mut self, cap: usize) -> &mut Self {
        assert!(cap > 0, "capacity must be positive");
        self.channel_capacity = cap;
        self
    }

    /// Attaches a telemetry bundle: the runtime then emits per-filter-copy
    /// spans, samples queue occupancy into the metrics registry, and
    /// filters can reach it via `FilterContext::telemetry`.
    pub fn telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.telemetry = telemetry;
        self
    }

    /// Bounds every stream send and recv: an operation still blocked after
    /// `timeout` fails with a typed
    /// [`GraphStorageError::Timeout`](mssg_types::GraphStorageError::Timeout)
    /// instead of hanging — the guard that turns a dead peer into a clean
    /// error. Off by default (operations block indefinitely).
    pub fn stream_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.stream_timeout = Some(timeout);
        self
    }

    /// Attaches a [`FaultPlan`] over the sites `"{filter}.{copy}"`: the
    /// scheduled panics, send errors, and stalls are injected at the
    /// planned port operations, and every fault that fires is recorded in
    /// [`RunReport::faults`](crate::RunReport::faults) and the
    /// `dc.faults_injected` counter.
    pub fn fault_plan(&mut self, plan: FaultPlan<FaultKind>) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Supervises filter copies: a copy that *panics* is rebuilt from its
    /// factory and restarted — up to `max_restarts` times per copy, with
    /// exponential backoff starting at `backoff` — before the run fails
    /// with a typed
    /// [`GraphStorageError::FilterFailed`](mssg_types::GraphStorageError::FilterFailed).
    /// Restarts are recorded in
    /// [`RunReport::restarts`](crate::RunReport::restarts) and the
    /// `dc.restarts` counter.
    ///
    /// Restart re-delivers nothing the crashed incarnation had already
    /// consumed, and errors *returned* by a filter are fail-stop (they
    /// propagate immediately, like an unsupervised run) — see the crate's
    /// "Fault tolerance" section for the exact guarantees.
    pub fn supervise(&mut self, max_restarts: u32, backoff: Duration) -> &mut Self {
        self.max_restarts = max_restarts;
        self.restart_backoff = backoff;
        self
    }

    /// Adds a filter with one transparent copy per placement entry.
    /// `factory(i)` builds the `i`-th copy.
    ///
    /// Rejects duplicate filter names and empty placements with a typed
    /// [`VerifyError`] — silently shadowing an existing filter was the
    /// classic last-write-wins footgun.
    pub fn add_filter(
        &mut self,
        name: &str,
        placement: Vec<NodeId>,
        factory: impl FnMut(usize) -> Box<dyn Filter> + Send + 'static,
    ) -> Result<FilterHandle, VerifyError> {
        if placement.is_empty() {
            return Err(VerifyError::EmptyPlacement {
                filter: name.to_string(),
            });
        }
        if self.filters.iter().any(|f| f.name == name) {
            return Err(VerifyError::DuplicateFilter {
                filter: name.to_string(),
            });
        }
        self.filters.push(FilterDef {
            name: name.to_string(),
            placement,
            factory: Box::new(factory),
        });
        Ok(FilterHandle(self.filters.len() - 1))
    }

    /// Connects `from.out_port` to `to.in_port`. Every copy of `from` can
    /// address every copy of `to` (targeted, round-robin, or broadcast —
    /// chosen per send). Cycles, self-connections, and multiple streams
    /// into one input port are allowed; the input port merges producers.
    ///
    /// Rejects, with a typed [`VerifyError`]: the exact same edge
    /// connected twice and an out port re-wired to a second destination.
    pub fn connect(
        &mut self,
        from: FilterHandle,
        out_port: &str,
        to: FilterHandle,
        in_port: &str,
    ) -> Result<(), VerifyError> {
        assert!(from.0 < self.filters.len() && to.0 < self.filters.len());
        for s in &self.streams {
            if s.from == from.0 && s.out_port == out_port && s.to == to.0 && s.in_port == in_port {
                return Err(VerifyError::DuplicateStream {
                    from: self.filters[from.0].name.clone(),
                    out_port: out_port.to_string(),
                    to: self.filters[to.0].name.clone(),
                    in_port: in_port.to_string(),
                });
            }
            // A logical stream is point-to-point in the DataCutter model:
            // one out_port feeds exactly one (filter, in_port). Fan-out is
            // expressed by consumer copies, not by re-connecting the port.
            if s.from == from.0 && s.out_port == out_port {
                return Err(VerifyError::OutPortConflict {
                    filter: self.filters[from.0].name.clone(),
                    out_port: out_port.to_string(),
                    first: format!("{}.{}", self.filters[s.to].name, s.in_port),
                    second: format!("{}.{}", self.filters[to.0].name, in_port),
                });
            }
        }
        self.streams.push(StreamDef {
            from: from.0,
            out_port: out_port.to_string(),
            to: to.0,
            in_port: in_port.to_string(),
        });
        Ok(())
    }

    /// Declares the complete port set of `filter`, opting it into the
    /// verifier's wiring checks: every declared port must be connected,
    /// and every stream touching the filter must use a declared port.
    /// Filters without declarations only get the structural checks.
    pub fn declare_ports(
        &mut self,
        filter: FilterHandle,
        inputs: &[&str],
        outputs: &[&str],
    ) -> &mut Self {
        self.decls.insert(
            filter.0,
            PortDecls {
                inputs: inputs.iter().map(|s| s.to_string()).collect(),
                outputs: outputs.iter().map(|s| s.to_string()).collect(),
            },
        );
        self
    }

    /// Declares the per-copy **send window** of `filter.out_port`: the
    /// most buffers one copy may emit on that port before it next blocks
    /// on a receive (a broadcast counts as one send per consumer copy).
    /// The verifier's credit-flow analysis uses it to bound the
    /// in-flight demand of cycles through this port; the default is 1,
    /// the weakest assumption that still accepts ordinary
    /// recv-one-send-one pipelines.
    pub fn send_window(&mut self, filter: FilterHandle, out_port: &str, window: u64) -> &mut Self {
        self.windows
            .insert((filter.0, out_port.to_string()), window.max(1));
        self
    }

    /// Declares how many consumer copies `filter.out_port` addresses —
    /// its decluster contract. The verifier then checks the wired
    /// consumer's copy count against it, catching the classic mismatch
    /// where a producer round-robins or targets by `copy_index` across a
    /// different fan-out than the one actually deployed.
    pub fn expect_consumers(
        &mut self,
        filter: FilterHandle,
        out_port: &str,
        copies: usize,
    ) -> &mut Self {
        self.expected_consumers
            .insert((filter.0, out_port.to_string()), copies);
        self
    }

    /// Disables the pre-launch verification gate in
    /// [`run`](Self::run) — for experiments that deliberately launch a
    /// rejected topology (e.g. to demonstrate the deadlock the verifier
    /// predicted). Production callers should never need this.
    pub fn allow_unverified(&mut self) -> &mut Self {
        self.verify_gate = false;
        self
    }

    /// Statically verifies the graph's topology: declared-port wiring,
    /// consumer-copy contracts, and bounded-buffer deadlock freedom of
    /// every cycle (credit-flow analysis). Returns *all* findings, not
    /// just the first. See [`crate::verify`] for what the analysis
    /// proves and what it cannot.
    pub fn verify(&self) -> Result<(), Vec<VerifyError>> {
        crate::verify::verify(self)
    }

    /// Instantiates and runs the graph to completion; see
    /// [`crate::runtime`]. Unless [`allow_unverified`](Self::allow_unverified)
    /// was called, a graph that fails [`verify`](Self::verify) is
    /// refused with `GraphStorageError::Verify` before any filter runs.
    pub fn run(self) -> mssg_types::Result<crate::runtime::RunReport> {
        crate::runtime::run(self)
    }

    /// Runs only the copies placed on `node`, carrying cross-node
    /// streams over `transport` — see [`crate::runtime::run_node`].
    pub fn run_node(
        self,
        node: NodeId,
        transport: &mut dyn crate::transport::Transport,
    ) -> mssg_types::Result<crate::runtime::RunReport> {
        crate::runtime::run_node(self, node, transport)
    }

    /// A stable hash of the graph's wiring-relevant shape: filter names
    /// and placements, stream edges, and the channel capacity. Two
    /// processes can cooperate on one distributed run only if their
    /// descriptions hash identically — the transport's handshake
    /// compares this value and refuses mismatched peers.
    /// Factories, telemetry, timeouts, and fault plans are process-local
    /// and deliberately excluded.
    pub fn topology_signature(&self) -> u64 {
        // FNV-1a over a canonical rendering; stable across processes and
        // platforms (no pointer- or hashmap-order-dependent input).
        let mut r: Vec<u8> = (self.channel_capacity as u64).to_le_bytes().to_vec();
        for f in &self.filters {
            r.extend_from_slice(f.name.as_bytes());
            r.push(0);
            for &n in &f.placement {
                r.extend_from_slice(&(n as u64).to_le_bytes());
            }
            r.push(1);
        }
        for s in &self.streams {
            r.extend_from_slice(&(s.from as u64).to_le_bytes());
            r.extend_from_slice(s.out_port.as_bytes());
            r.push(0);
            r.extend_from_slice(&(s.to as u64).to_le_bytes());
            r.extend_from_slice(s.in_port.as_bytes());
            r.push(0);
        }
        mssg_types::fnv1a(&r)
    }
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new()
    }
}
