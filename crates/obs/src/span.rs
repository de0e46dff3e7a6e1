//! Span tracing: RAII-guarded timed regions with Chrome trace-event JSON
//! and flamegraph-folded export.

use crate::cluster::{ClusterTelemetryReport, NodeTelemetry};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A recorded field value on a span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Numeric field (counts, sizes, levels).
    U64(u64),
    /// Text field (names, kinds).
    Str(String),
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Per-tracer span id (1-based, assigned at open). Carried on wire
    /// frames so remote receives can stitch back to the sending span.
    pub id: u64,
    /// Span name (e.g. `"bfs.level"`).
    pub name: String,
    /// Semicolon-joined ancestry ending in this span's name — the
    /// flamegraph-folded stack path.
    pub path: String,
    /// Start offset from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Logical thread id (dense, per tracer-observing thread).
    pub tid: u64,
    /// Key/value annotations.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// The numeric field `key`, if recorded.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }
}

/// A cross-node causal edge: a frame stamped with the sender's span id
/// arrived while a local span was open. Pairs of flow records become
/// Chrome flow events (`ph:"s"`/`ph:"f"`) in the merged cluster trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// Node id of the sender.
    pub from_node: u32,
    /// Span id on the sender's tracer.
    pub from_span: u64,
    /// Span id on this tracer that observed the arrival (0 = none open).
    pub to_span: u64,
    /// Arrival time, nanoseconds since this tracer's epoch.
    pub at_ns: u64,
}

struct TracerInner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    /// Thread names keyed by logical tid, for Chrome metadata events.
    threads: Mutex<HashMap<u64, String>>,
    /// Cross-node causal edges observed by this tracer.
    flows: Mutex<Vec<FlowRecord>>,
    /// Next span id (1-based; 0 means "no span").
    next_span: AtomicU64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Dense per-thread id, assigned on first use.
    // racecheck: id allocation needs uniqueness (RMW atomicity), not order.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Stack of active `(name, span id)` pairs on this thread (for
    /// folded paths and current-span lookup).
    static STACK: RefCell<Vec<(String, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A lightweight span tracer.
///
/// Cloning shares the underlying buffer. A tracer is either *enabled*
/// (records spans) or *disabled* (every operation is a no-op that
/// allocates nothing — verified by the `no_alloc` integration test), so
/// instrumentation can stay in place permanently:
///
/// ```
/// use mssg_obs::Tracer;
/// let tracer = Tracer::enabled();
/// {
///     let _outer = tracer.span("query");
///     let _inner = tracer.span("bfs.level").with("level", 0).with("frontier", 1);
/// }
/// assert_eq!(tracer.span_count(), 2);
/// assert!(tracer.chrome_trace_json().contains("bfs.level"));
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.span_count())
            .finish()
    }
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                threads: Mutex::new(HashMap::new()),
                flows: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// A no-op tracer (the default).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// `true` if spans are being recorded. Callers building dynamic span
    /// names or expensive field values should gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; the returned guard records the span when dropped.
    /// On a disabled tracer this is a no-op and does not allocate.
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(inner) => {
                let tid = TID.with(|t| *t);
                // Register the OS thread's name once per logical tid.
                {
                    let mut threads = inner.threads.lock().unwrap();
                    threads.entry(tid).or_insert_with(|| {
                        std::thread::current()
                            .name()
                            .unwrap_or("unnamed")
                            .to_string()
                    });
                }
                // racecheck: span-id allocation — uniqueness, not ordering.
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let path = STACK.with(|s| {
                    let mut s = s.borrow_mut();
                    let path = if s.is_empty() {
                        name.to_string()
                    } else {
                        let mut p = String::with_capacity(s.len() * 8 + name.len());
                        for (n, _) in s.iter() {
                            p.push_str(n);
                            p.push(';');
                        }
                        p.push_str(name);
                        p
                    };
                    s.push((name.to_string(), id));
                    path
                });
                SpanGuard {
                    active: Some(ActiveSpan {
                        tracer: Arc::clone(inner),
                        id,
                        name: name.to_string(),
                        path,
                        start: Instant::now(),
                        tid,
                        fields: Vec::new(),
                    }),
                }
            }
        }
    }

    /// Number of completed spans so far.
    pub fn span_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.spans.lock().unwrap().len(),
        }
    }

    /// Copies of all completed spans (test/report introspection).
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.spans.lock().unwrap().clone(),
        }
    }

    /// Id of the innermost span currently open on *this thread*, or 0 if
    /// none (or the tracer is disabled). This is what senders stamp on
    /// outgoing wire frames. Does not allocate.
    #[inline]
    pub fn current_span_id(&self) -> u64 {
        if self.inner.is_none() {
            return 0;
        }
        STACK.with(|s| s.borrow().last().map(|(_, id)| *id).unwrap_or(0))
    }

    /// Nanoseconds elapsed since this tracer's epoch (0 when disabled).
    /// Exchanged in handshakes to estimate per-peer clock offsets.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Records a cross-node causal edge: a frame from `from_node`,
    /// stamped with the sender's span id `from_span`, was consumed on
    /// this thread now. No-op on a disabled tracer or when `from_span`
    /// is 0 (sender had no span open).
    pub fn flow_in(&self, from_node: u32, from_span: u64) {
        let Some(inner) = &self.inner else { return };
        if from_span == 0 {
            return;
        }
        let to_span = STACK.with(|s| s.borrow().last().map(|(_, id)| *id).unwrap_or(0));
        let at_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.flows.lock().unwrap().push(FlowRecord {
            from_node,
            from_span,
            to_span,
            at_ns,
        });
    }

    /// Copies of all recorded cross-node flow edges.
    pub fn flows(&self) -> Vec<FlowRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.flows.lock().unwrap().clone(),
        }
    }

    /// Thread names observed so far, as sorted `(tid, name)` pairs —
    /// shipped alongside spans so merged traces keep lane labels.
    pub fn thread_names(&self) -> Vec<(u64, String)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut v: Vec<(u64, String)> = inner
                    .threads
                    .lock()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                v.sort();
                v
            }
        }
    }

    /// Serializes every completed span as Chrome trace-event JSON —
    /// loadable in `chrome://tracing` or <https://ui.perfetto.dev>. It is
    /// the merged cluster trace of one node, 0, at clock offset 0
    /// ([`ClusterTelemetryReport::chrome_trace_json`]); a lone tracer holds
    /// no sender spans, so it carries no flow events.
    pub fn chrome_trace_json(&self) -> String {
        let mut report = ClusterTelemetryReport::new();
        if self.is_enabled() {
            let node = NodeTelemetry {
                spans: self.finished_spans(),
                threads: self.thread_names(),
                ..Default::default()
            };
            report.add_node(node, 0);
        }
        report.chrome_trace_json()
    }

    /// Flamegraph-folded dump: one `path total_self_nanoseconds` line per
    /// distinct stack path, suitable for `inferno`/`flamegraph.pl`.
    pub fn folded(&self) -> String {
        let spans = self.finished_spans();
        // Total time per path, then subtract direct children to get self
        // time.
        let mut totals: std::collections::BTreeMap<String, u64> = Default::default();
        for s in &spans {
            *totals.entry(s.path.clone()).or_insert(0) += s.dur_ns;
        }
        let mut selfs = totals.clone();
        for (path, total) in &totals {
            if let Some((parent, _leaf)) = path.rsplit_once(';') {
                if let Some(p) = selfs.get_mut(parent) {
                    *p = p.saturating_sub(*total);
                }
            }
        }
        let mut out = String::new();
        for (path, self_ns) in &selfs {
            writeln!(out, "{path} {self_ns}").unwrap();
        }
        out
    }
}

struct ActiveSpan {
    tracer: Arc<TracerInner>,
    id: u64,
    name: String,
    path: String,
    start: Instant,
    tid: u64,
    fields: Vec<(String, FieldValue)>,
}

/// RAII guard for an open span; records the span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Attaches a numeric field (builder style).
    #[inline]
    pub fn with(mut self, key: &'static str, value: u64) -> SpanGuard {
        self.record(key, value);
        self
    }

    /// Attaches a text field (builder style).
    #[inline]
    pub fn with_str(mut self, key: &'static str, value: &str) -> SpanGuard {
        if let Some(a) = &mut self.active {
            a.fields
                .push((key.to_string(), FieldValue::Str(value.to_string())));
        }
        self
    }

    /// Attaches a numeric field to an already-open span (for values only
    /// known while the span runs, e.g. items processed).
    #[inline]
    pub fn record(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            a.fields.push((key.to_string(), FieldValue::U64(value)));
        }
    }

    /// Id of this span on its tracer (0 for a disabled tracer's no-op
    /// guard).
    #[inline]
    pub fn id(&self) -> u64 {
        self.active.as_ref().map(|a| a.id).unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        let start_ns = a.start.duration_since(a.tracer.epoch).as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(
                s.last().map(|(n, _)| n),
                Some(&a.name),
                "span guards dropped out of order"
            );
            s.pop();
        });
        a.tracer.spans.lock().unwrap().push(SpanRecord {
            id: a.id,
            name: a.name,
            path: a.path,
            start_ns,
            dur_ns,
            tid: a.tid,
            fields: a.fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        {
            let _g = t.span("x").with("k", 1);
        }
        assert_eq!(t.span_count(), 0);
        assert!(!t.is_enabled());
        assert_eq!(t.chrome_trace_json(), "{\"traceEvents\":[]}");
        assert_eq!(t.folded(), "");
    }

    #[test]
    fn nesting_builds_paths() {
        let t = Tracer::enabled();
        {
            let _a = t.span("a");
            {
                let _b = t.span("b");
                let _c = t.span("c");
            }
            let _d = t.span("d");
        }
        let spans = t.finished_spans();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["a;b;c", "a;b", "a;d", "a"]);
    }

    #[test]
    fn fields_survive_to_record() {
        let t = Tracer::enabled();
        {
            let mut g = t.span("win").with("edges", 10).with_str("kind", "pubmed");
            g.record("bytes", 160);
        }
        let s = &t.finished_spans()[0];
        assert_eq!(
            s.fields,
            vec![
                ("edges".to_string(), FieldValue::U64(10)),
                ("kind".to_string(), FieldValue::Str("pubmed".into())),
                ("bytes".to_string(), FieldValue::U64(160)),
            ]
        );
    }

    #[test]
    fn span_ids_are_unique_and_current_tracks_nesting() {
        let t = Tracer::enabled();
        assert_eq!(t.current_span_id(), 0);
        {
            let a = t.span("a");
            assert_eq!(t.current_span_id(), a.id());
            {
                let b = t.span("b");
                assert_ne!(a.id(), b.id());
                assert_eq!(t.current_span_id(), b.id());
            }
            assert_eq!(t.current_span_id(), a.id());
        }
        assert_eq!(t.current_span_id(), 0);
        let ids: std::collections::BTreeSet<u64> =
            t.finished_spans().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&0), "0 is reserved for 'no span'");

        let disabled = Tracer::disabled();
        assert_eq!(disabled.current_span_id(), 0);
        assert_eq!(disabled.span("x").id(), 0);
        assert_eq!(disabled.now_ns(), 0);
    }

    #[test]
    fn flow_in_records_causal_edges() {
        let t = Tracer::enabled();
        let to;
        {
            let g = t.span("consume");
            to = g.id();
            t.flow_in(2, 7);
            t.flow_in(2, 0); // sender had no span: dropped
        }
        t.flow_in(1, 9); // no local span open: recorded with to_span 0
        let flows = t.flows();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].from_node, 2);
        assert_eq!(flows[0].from_span, 7);
        assert_eq!(flows[0].to_span, to);
        assert_eq!(flows[1].to_span, 0);

        let disabled = Tracer::disabled();
        disabled.flow_in(1, 1);
        assert!(disabled.flows().is_empty());
    }

    #[test]
    fn thread_names_are_exposed() {
        let t = Tracer::enabled();
        {
            let _g = t.span("x");
        }
        let names = t.thread_names();
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn folded_subtracts_child_self_time() {
        let t = Tracer::enabled();
        {
            let _a = t.span("a");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = t.span("b");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let folded = t.folded();
        let mut lines: Vec<(&str, u64)> = folded
            .lines()
            .map(|l| {
                let (p, n) = l.rsplit_once(' ').unwrap();
                (p, n.parse().unwrap())
            })
            .collect();
        lines.sort();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].0, "a");
        assert_eq!(lines[1].0, "a;b");
        let total_a: u64 = t
            .finished_spans()
            .iter()
            .find(|s| s.path == "a")
            .map(|s| s.dur_ns)
            .unwrap();
        // a's self time excludes b's time.
        assert!(lines[0].1 < total_a);
    }

    #[test]
    fn spans_across_threads_get_distinct_tids() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        let h = std::thread::Builder::new()
            .name("worker".into())
            .spawn(move || {
                let _g = t2.span("remote");
            })
            .unwrap();
        {
            let _g = t.span("local");
        }
        h.join().unwrap();
        let spans = t.finished_spans();
        assert_eq!(spans.len(), 2);
        let tid_of = |n: &str| spans.iter().find(|s| s.name == n).unwrap().tid;
        assert_ne!(tid_of("remote"), tid_of("local"));
        let json = t.chrome_trace_json();
        assert!(
            json.contains("\"worker\""),
            "thread name metadata present: {json}"
        );
    }
}
