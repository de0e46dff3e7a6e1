//! The benchmark's own span recorder: one span around every call into a
//! layer, kept in memory and written as Chrome-trace JSON when the run
//! ends. Spans inside the program are a later change (ROADMAP item 7);
//! these are recorded from outside, at the public-function boundary.
//!
//! A span has a name, a start and an end, the span that caused it, and a
//! trace id shared by everything done for one rep or query. A span's self
//! time is its duration minus the part of it that its children cover.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub trace: u64,
    pub tid: u64,
}

/// In-memory span store. Disabled (the end-to-end runs) it records
/// nothing and `enter` costs one branch.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span store poisoned")
    }

    /// Opens a span under this thread's innermost open span.
    pub fn enter(&self, name: &str, trace: u64) -> Guard<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.enter_under(parent, name, trace)
    }

    /// Opens a span under `parent` — for the first span of a thread the
    /// parent's thread spawned.
    pub fn enter_under(&self, parent: Option<SpanId>, name: &str, trace: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                rec: self,
                id: None,
            };
        }
        let mut spans = self.lock();
        let id = spans.len();
        spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            trace,
            tid: thread_number(),
        });
        drop(spans);
        OPEN.with(|o| o.borrow_mut().push(id));
        Guard {
            rec: self,
            id: Some(id),
        }
    }

    /// Every span recorded so far; one still open has `end_ns == 0`.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, with parent, trace id and self time as arguments.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let events: Vec<String> = spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{},\"parent\":{},\"trace\":{},\"self_us\":{:.3}}}}}",
                    mssg_obs::json::escape(&s.name),
                    s.tid,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.trace,
                    *self_ns as f64 / 1e3,
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: Option<SpanId>,
}

impl Guard<'_> {
    /// This span's id, to parent spans opened on other threads.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.rec.now_ns();
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans[id].end_ns = end;
        }
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if open.last() == Some(&id) {
                open.pop();
            }
        });
    }
}

/// A small stable number for the calling thread.
fn thread_number() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // racecheck: a ticket counter; it publishes no other data.
        static MINE: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    MINE.with(|t| *t)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span. Children on several
/// threads may overlap; the union counts covered time once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Checks the shape the README promises of a written trace: every span
/// closed, and every non-root span inside its parent's interval. Returns
/// the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (id, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {id} ({}) was never closed", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {id} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            trace: 0,
            tid: 1,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        let g = rec.enter("a", 1);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn spans_nest_by_thread_and_by_explicit_parent() {
        let rec = Recorder::new(true);
        let root = rec.enter("root", 7);
        let root_id = root.id();
        {
            let _child = rec.enter("child", 7);
            let _grandchild = rec.enter("grandchild", 8);
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _remote = rec.enter_under(root_id, "remote", 9);
                let _inner = rec.enter("inner", 9);
            });
        });
        drop(root);
        let spans = rec.spans();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(spans[by_name("root")].parent, None);
        assert_eq!(spans[by_name("child")].parent, Some(by_name("root")));
        assert_eq!(spans[by_name("grandchild")].parent, Some(by_name("child")));
        assert_eq!(spans[by_name("remote")].parent, Some(by_name("root")));
        assert_eq!(spans[by_name("inner")].parent, Some(by_name("remote")));
        assert_ne!(spans[by_name("remote")].tid, spans[by_name("root")].tid);
        check_nesting(&spans).unwrap();
        // A sibling opened after the scope closes hangs off nothing.
        let later = rec.enter("later", 0);
        assert_eq!(rec.spans()[later.id().unwrap()].parent, None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)), // overlaps the first child by 10
            span(90, 100, Some(0)),
            span(15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 10, 5]);
    }

    #[test]
    fn nesting_check_names_the_escaping_span() {
        let bad = vec![span(10, 20, None), span(5, 15, Some(0))];
        assert!(check_nesting(&bad).unwrap_err().contains("escapes"));
        let open = vec![span(10, 0, None)];
        assert!(check_nesting(&open).unwrap_err().contains("never closed"));
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let rec = Recorder::new(true);
        {
            let _a = rec.enter("layer \"a\"", 3);
            let _b = rec.enter("b", 3);
        }
        let v = mssg_obs::json::parse(&rec.chrome_trace_json()).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(args.get("trace").and_then(|p| p.as_f64()), Some(3.0));
        assert!(args.get("self_us").and_then(|p| p.as_f64()).unwrap() >= 0.0);
    }
}
