//! Cluster-wide telemetry: per-node report serialization, clock-offset
//! rebasing, and merged Chrome traces with one process lane per node.
//!
//! A distributed run produces one [`NodeTelemetry`] per process (spans,
//! cross-node flow edges, thread names, metrics). Non-root nodes
//! serialize theirs with [`NodeTelemetry::to_json`] and ship it over the
//! wire at shutdown; the root parses them back
//! ([`NodeTelemetry::from_json`]) and folds everything into a
//! [`ClusterTelemetryReport`], which merges metrics via
//! [`MetricsSnapshot::merged`] and emits a single Chrome trace where
//! each node is a process lane and remote timestamps are rebased by the
//! handshake-estimated clock offset.
//!
//! Serialized values ride through an `f64`-backed JSON parser, so exact
//! round-tripping holds for integers up to 2^53 — comfortably above any
//! nanosecond timestamp or counter a run produces.

use crate::json::{self, Value};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::span::{FieldValue, FlowRecord, SpanRecord};
use crate::Telemetry;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Everything one node observed during a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeTelemetry {
    /// The node's id in the cluster.
    pub node: u32,
    /// Completed spans, timestamps relative to the node's tracer epoch.
    pub spans: Vec<SpanRecord>,
    /// Cross-node causal edges observed by this node.
    pub flows: Vec<FlowRecord>,
    /// Thread names by logical tid, for lane labels.
    pub threads: Vec<(u64, String)>,
    /// Metrics snapshot at capture time.
    pub metrics: MetricsSnapshot,
}

impl NodeTelemetry {
    /// Captures the current state of `telemetry` for `node`.
    pub fn capture(node: u32, telemetry: &Telemetry) -> NodeTelemetry {
        NodeTelemetry {
            node,
            spans: telemetry.tracer.finished_spans(),
            flows: telemetry.tracer.flows(),
            threads: telemetry.tracer.thread_names(),
            metrics: telemetry.metrics.snapshot(),
        }
    }

    /// Serializes the report as a compact JSON document. Span fields are
    /// written as `[key, value]` pairs so order and duplicate keys
    /// survive the round trip.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.spans.len() * 128);
        write!(out, "{{\"node\":{},\"spans\":[", self.node).unwrap();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"id\":{},\"name\":{},\"path\":{},\"start_ns\":{},\
                 \"dur_ns\":{},\"tid\":{},\"fields\":[",
                s.id,
                json::escape(&s.name),
                json::escape(&s.path),
                s.start_ns,
                s.dur_ns,
                s.tid,
            )
            .unwrap();
            for (j, (k, v)) in s.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match v {
                    FieldValue::U64(n) => write!(out, "[{},{n}]", json::escape(k)).unwrap(),
                    FieldValue::Str(t) => {
                        write!(out, "[{},{}]", json::escape(k), json::escape(t)).unwrap()
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("],\"flows\":[");
        for (i, f) in self.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"from_node\":{},\"from_span\":{},\"to_span\":{},\"at_ns\":{}}}",
                f.from_node, f.from_span, f.to_span, f.at_ns
            )
            .unwrap();
        }
        out.push_str("],\"threads\":[");
        for (i, (tid, name)) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "[{tid},{}]", json::escape(name)).unwrap();
        }
        out.push_str("],\"metrics\":{\"counters\":{");
        for (i, (name, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}:{v}", json::escape(name)).unwrap();
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}:{v}", json::escape(name)).unwrap();
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.metrics.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json::escape(name),
                h.count,
                h.sum
            )
            .unwrap();
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(out, "{b}").unwrap();
            }
            out.push_str("]}");
        }
        out.push_str("}}}");
        out
    }

    /// Parses a document produced by [`NodeTelemetry::to_json`].
    pub fn from_json(text: &str) -> Result<NodeTelemetry, String> {
        let doc = json::parse(text).map_err(|e| format!("telemetry report: {e}"))?;
        let node = req_u64(&doc, "node")? as u32;
        let mut spans = Vec::new();
        for s in req_array(&doc, "spans")? {
            let mut fields = Vec::new();
            for pair in req_array(s, "fields")? {
                let pair = pair.as_array().ok_or("span field is not a pair")?;
                let [k, v] = pair else {
                    return Err("span field is not a [key, value] pair".into());
                };
                let k = k.as_str().ok_or("span field key is not a string")?;
                let v = match v {
                    Value::String(t) => FieldValue::Str(t.clone()),
                    Value::Number(n) => FieldValue::U64(*n as u64),
                    _ => return Err("span field value is not a string or number".into()),
                };
                fields.push((k.to_string(), v));
            }
            spans.push(SpanRecord {
                id: req_u64(s, "id")?,
                name: req_str(s, "name")?,
                path: req_str(s, "path")?,
                start_ns: req_u64(s, "start_ns")?,
                dur_ns: req_u64(s, "dur_ns")?,
                tid: req_u64(s, "tid")?,
                fields,
            });
        }
        let mut flows = Vec::new();
        for f in req_array(&doc, "flows")? {
            flows.push(FlowRecord {
                from_node: req_u64(f, "from_node")? as u32,
                from_span: req_u64(f, "from_span")?,
                to_span: req_u64(f, "to_span")?,
                at_ns: req_u64(f, "at_ns")?,
            });
        }
        let mut threads = Vec::new();
        for t in req_array(&doc, "threads")? {
            let pair = t.as_array().ok_or("thread entry is not a pair")?;
            let [tid, name] = pair else {
                return Err("thread entry is not a [tid, name] pair".into());
            };
            let tid = tid.as_f64().ok_or("thread tid is not a number")? as u64;
            let name = name.as_str().ok_or("thread name is not a string")?;
            threads.push((tid, name.to_string()));
        }
        let m = doc.get("metrics").ok_or("missing metrics")?;
        let mut metrics = MetricsSnapshot::default();
        for (name, v) in req_object(m, "counters")? {
            let v = v.as_f64().ok_or("counter value is not a number")?;
            metrics.counters.insert(name.clone(), v as u64);
        }
        for (name, v) in req_object(m, "gauges")? {
            let v = v.as_f64().ok_or("gauge value is not a number")?;
            metrics.gauges.insert(name.clone(), v as i64);
        }
        for (name, h) in req_object(m, "histograms")? {
            let mut buckets = Vec::new();
            for b in req_array(h, "buckets")? {
                buckets.push(b.as_f64().ok_or("histogram bucket is not a number")? as u64);
            }
            metrics.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    buckets,
                    count: req_u64(h, "count")?,
                    sum: req_u64(h, "sum")?,
                },
            );
        }
        Ok(NodeTelemetry {
            node,
            spans,
            flows,
            threads,
            metrics,
        })
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array field {key:?}"))
}

fn req_object<'a>(
    v: &'a Value,
    key: &str,
) -> Result<&'a std::collections::BTreeMap<String, Value>, String> {
    match v.get(key) {
        Some(Value::Object(m)) => Ok(m),
        _ => Err(format!("missing object field {key:?}")),
    }
}

struct NodeEntry {
    telemetry: NodeTelemetry,
    /// Estimated `remote_clock - root_clock` in nanoseconds; subtracted
    /// from the node's timestamps to land them on the root's timeline.
    offset_ns: i64,
}

/// Telemetry from every node of a run, merged on the root.
#[derive(Default)]
pub struct ClusterTelemetryReport {
    nodes: Vec<NodeEntry>,
}

impl ClusterTelemetryReport {
    /// An empty report.
    pub fn new() -> ClusterTelemetryReport {
        ClusterTelemetryReport::default()
    }

    /// Adds one node's telemetry. `clock_offset_ns` is the estimated
    /// `node_clock - root_clock` (0 for the root itself); the node's
    /// timestamps are rebased by it when the merged trace is emitted.
    pub fn add_node(&mut self, telemetry: NodeTelemetry, clock_offset_ns: i64) {
        self.nodes.push(NodeEntry {
            telemetry,
            offset_ns: clock_offset_ns,
        });
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total spans across all nodes.
    pub fn span_count(&self) -> usize {
        self.nodes.iter().map(|n| n.telemetry.spans.len()).sum()
    }

    /// Cluster-wide metrics: every node's snapshot folded together with
    /// [`MetricsSnapshot::merged`] (counters and gauges sum, histograms
    /// merge bucketwise).
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for n in &self.nodes {
            out = out.merged(&n.telemetry.metrics);
        }
        out
    }

    /// One Chrome trace for the whole cluster: each node becomes a
    /// process lane (`pid` = node id), remote timestamps are rebased by
    /// the per-node clock offset, and cross-node flow edges are emitted
    /// as Chrome flow events (`ph:"s"`/`ph:"f"`) so stream activity is
    /// visually stitched across lanes.
    pub fn chrome_trace_json(&self) -> String {
        // Rebase everything onto the root's timeline, then shift so the
        // earliest event lands at t=0 (Chrome dislikes negative ts).
        let mut min_ts = i64::MAX;
        for n in &self.nodes {
            for s in &n.telemetry.spans {
                min_ts = min_ts.min(s.start_ns as i64 - n.offset_ns);
            }
            for f in &n.telemetry.flows {
                min_ts = min_ts.min(f.at_ns as i64 - n.offset_ns);
            }
        }
        let shift = if min_ts == i64::MAX {
            0
        } else {
            -min_ts.min(0)
        };
        let rebase = |ns: u64, offset: i64| (ns as i64 - offset + shift).max(0) as u64;

        // Index spans by (node, span id) for flow endpoint lookup.
        let mut by_id: HashMap<(u32, u64), &SpanRecord> = HashMap::new();
        for n in &self.nodes {
            for s in &n.telemetry.spans {
                by_id.insert((n.telemetry.node, s.id), s);
            }
        }
        let offset_of: HashMap<u32, i64> = self
            .nodes
            .iter()
            .map(|n| (n.telemetry.node, n.offset_ns))
            .collect();

        let mut out = String::with_capacity(4096 + self.span_count() * 160);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let push_event = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
        };

        for n in &self.nodes {
            let pid = n.telemetry.node;
            push_event(&mut out, &mut first);
            write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"node {pid}\"}}}}"
            )
            .unwrap();
            for (tid, name) in &n.telemetry.threads {
                push_event(&mut out, &mut first);
                write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json::escape(name)
                )
                .unwrap();
            }
            for s in &n.telemetry.spans {
                let ts = rebase(s.start_ns, n.offset_ns);
                push_event(&mut out, &mut first);
                write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":{},\
                     \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"span_id\":{}",
                    s.tid,
                    json::escape(&s.name),
                    ts / 1_000,
                    ts % 1_000,
                    s.dur_ns / 1_000,
                    s.dur_ns % 1_000,
                    s.id,
                )
                .unwrap();
                for (k, v) in &s.fields {
                    out.push(',');
                    match v {
                        FieldValue::U64(x) => write!(out, "{}:{x}", json::escape(k)).unwrap(),
                        FieldValue::Str(t) => {
                            write!(out, "{}:{}", json::escape(k), json::escape(t)).unwrap()
                        }
                    }
                }
                out.push_str("}}");
            }
        }

        // Flow events: one s/f pair per observed cross-node edge whose
        // endpoints both resolved to recorded spans.
        let mut flow_id = 0u64;
        for n in &self.nodes {
            let to_node = n.telemetry.node;
            for f in &n.telemetry.flows {
                if f.to_span == 0 {
                    continue;
                }
                let (Some(src), Some(dst)) = (
                    by_id.get(&(f.from_node, f.from_span)),
                    by_id.get(&(to_node, f.to_span)),
                ) else {
                    continue;
                };
                let Some(src_offset) = offset_of.get(&f.from_node) else {
                    continue;
                };
                flow_id += 1;
                // Start the flow where the sending span ends, finish it
                // at the observed arrival inside the receiving span.
                let src_ts = rebase(src.start_ns.saturating_add(src.dur_ns), *src_offset);
                let dst_ts = rebase(f.at_ns, n.offset_ns);
                push_event(&mut out, &mut first);
                write!(
                    out,
                    "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"name\":\"net.flow\",\
                     \"cat\":\"net\",\"id\":{flow_id},\"ts\":{}.{:03}}}",
                    f.from_node,
                    src.tid,
                    src_ts / 1_000,
                    src_ts % 1_000,
                )
                .unwrap();
                push_event(&mut out, &mut first);
                write!(
                    out,
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{to_node},\"tid\":{},\
                     \"name\":\"net.flow\",\"cat\":\"net\",\"id\":{flow_id},\
                     \"ts\":{}.{:03}}}",
                    dst.tid,
                    dst_ts / 1_000,
                    dst_ts % 1_000,
                )
                .unwrap();
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> NodeTelemetry {
        let t = Telemetry::enabled();
        {
            let _a = t.tracer.span("ingest.shard").with("edges", 512);
            let _b = t.tracer.span("ingest.window").with_str("kind", "pubmed");
        }
        t.tracer.flow_in(2, 9);
        t.metrics.counter("net.bytes").add(1234);
        t.metrics.gauge("depth").set(-3);
        t.metrics.histogram("ingest.window_edges").record(512);
        NodeTelemetry::capture(1, &t)
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json();
        let back = NodeTelemetry::from_json(&text).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(NodeTelemetry::from_json("not json").is_err());
        assert!(NodeTelemetry::from_json("{}").is_err());
        assert!(NodeTelemetry::from_json("{\"node\":0}").is_err());
    }

    #[test]
    fn capture_of_disabled_telemetry_is_empty_but_valid() {
        let t = Telemetry::disabled();
        t.metrics.counter("net.frames").inc();
        let r = NodeTelemetry::capture(3, &t);
        assert!(r.spans.is_empty());
        assert_eq!(r.metrics.counters["net.frames"], 1);
        let back = NodeTelemetry::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn merged_metrics_sum_across_nodes() {
        let mut cluster = ClusterTelemetryReport::new();
        for (node, bytes) in [(0u32, 100u64), (1, 250), (2, 650)] {
            let t = Telemetry::disabled();
            t.metrics.counter("net.bytes").add(bytes);
            cluster.add_node(NodeTelemetry::capture(node, &t), 0);
        }
        let merged = cluster.merged_metrics();
        assert_eq!(merged.counters["net.bytes"], 1000);
    }

    #[test]
    fn chrome_trace_has_a_lane_per_node_and_rebases_offsets() {
        let mut cluster = ClusterTelemetryReport::new();
        for node in 0..3u32 {
            let t = Telemetry::enabled();
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _g = t.tracer.span("filter.run");
            }
            // Pretend node clocks disagree wildly; the rebase must pull
            // them back together.
            let offset = (node as i64) * 1_000_000_000;
            let mut report = NodeTelemetry::capture(node, &t);
            for s in &mut report.spans {
                s.start_ns += (offset) as u64;
            }
            cluster.add_node(report, offset);
        }
        let text = cluster.chrome_trace_json();
        let doc = json::parse(&text).expect("valid json");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let mut pids = std::collections::BTreeSet::new();
        let mut max_ts = 0.0f64;
        for e in events {
            if e.get("ph").and_then(Value::as_str) == Some("X") {
                pids.insert(e.get("pid").unwrap().as_f64().unwrap() as u32);
                max_ts = max_ts.max(e.get("ts").unwrap().as_f64().unwrap());
            }
        }
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Without rebasing, node 2's lane would start ≥ 2 s out; with
        // it, every event lands within a few ms of t=0 (µs units).
        assert!(max_ts < 1_000_000.0, "timestamps rebased, got {max_ts}");
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .filter_map(Value::as_str)
            .collect();
        assert!(names.contains(&"node 0"));
        assert!(names.contains(&"node 2"));
    }

    #[test]
    fn chrome_trace_emits_flow_pairs_for_resolved_edges() {
        // Node 0 sends from span 1; node 1 consumes inside its span 1.
        let mut sender = NodeTelemetry {
            node: 0,
            ..Default::default()
        };
        sender.spans.push(SpanRecord {
            id: 1,
            name: "filter.run".into(),
            path: "filter.run".into(),
            start_ns: 1000,
            dur_ns: 500,
            tid: 0,
            fields: Vec::new(),
        });
        let mut receiver = NodeTelemetry {
            node: 1,
            ..Default::default()
        };
        receiver.spans.push(SpanRecord {
            id: 1,
            name: "filter.run".into(),
            path: "filter.run".into(),
            start_ns: 1600,
            dur_ns: 700,
            tid: 0,
            fields: Vec::new(),
        });
        receiver.flows.push(FlowRecord {
            from_node: 0,
            from_span: 1,
            to_span: 1,
            at_ns: 1800,
        });
        // An unresolvable edge (unknown sender span) is skipped.
        receiver.flows.push(FlowRecord {
            from_node: 0,
            from_span: 99,
            to_span: 1,
            at_ns: 1900,
        });
        let mut cluster = ClusterTelemetryReport::new();
        cluster.add_node(sender, 0);
        cluster.add_node(receiver, 0);
        let doc = json::parse(&cluster.chrome_trace_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let starts: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("s"))
            .collect();
        let finishes: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("f"))
            .collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(finishes.len(), 1);
        assert_eq!(
            starts[0].get("id").unwrap().as_f64(),
            finishes[0].get("id").unwrap().as_f64()
        );
        assert_eq!(starts[0].get("pid").unwrap().as_f64(), Some(0.0));
        assert_eq!(finishes[0].get("pid").unwrap().as_f64(), Some(1.0));
    }
}
