//! Spans emitted from interleaved threads must serialize to valid Chrome
//! trace-event JSON that parses back with the right structure.

use mssg_obs::{json, Tracer};

#[test]
fn nested_and_interleaved_spans_produce_valid_chrome_json() {
    let tracer = Tracer::enabled();

    // Interleave spans across four threads, each with nesting.
    let handles: Vec<_> = (0..4)
        .map(|worker| {
            let t = tracer.clone();
            std::thread::Builder::new()
                .name(format!("worker.{worker}"))
                .spawn(move || {
                    for round in 0..5u64 {
                        let _outer = t.span("round").with("worker", worker).with("round", round);
                        let _inner = t.span("work").with("items", round * 3);
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(tracer.span_count(), 4 * 5 * 2);

    let text = tracer.chrome_trace_json();
    let doc = json::parse(&text).expect("emitted trace is valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("top-level traceEvents array");

    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    assert_eq!(complete.len(), 40);

    let metadata: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .collect();
    assert_eq!(
        metadata.len(),
        5,
        "one process_name record, and one thread_name record per worker"
    );

    // Every complete event carries name, ts, dur, tid; args hold the
    // fields we attached.
    let mut tids = std::collections::BTreeSet::new();
    for e in &complete {
        let name = e.get("name").and_then(|n| n.as_str()).expect("span name");
        assert!(name == "round" || name == "work");
        assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        tids.insert(e.get("tid").and_then(|v| v.as_f64()).unwrap() as u64);
        if name == "round" {
            let worker = e
                .get("args")
                .and_then(|a| a.get("worker"))
                .and_then(|v| v.as_f64());
            assert!(worker.is_some(), "round spans carry the worker field");
        }
    }
    assert_eq!(tids.len(), 4, "spans landed on four distinct tids");
}

#[test]
fn folded_output_covers_all_paths() {
    let tracer = Tracer::enabled();
    {
        let _q = tracer.span("query");
        for _ in 0..3 {
            let _l = tracer.span("bfs.level");
        }
    }
    let folded = tracer.folded();
    let paths: Vec<&str> = folded
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().0)
        .collect();
    assert_eq!(paths, vec!["query", "query;bfs.level"]);
    // Every line ends in a parseable nanosecond count.
    for line in folded.lines() {
        let (_, ns) = line.rsplit_once(' ').unwrap();
        ns.parse::<u64>().unwrap();
    }
}
