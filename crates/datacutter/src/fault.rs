//! Deterministic fault injection — the substrate's chaos layer.
//!
//! A [`FaultPlan`] schedules faults against named filter copies: panics
//! (a crashed copy), stream-send errors (a dropped connection), and
//! artificial stalls (a slow node). Plans are plain data — deterministic
//! and replayable — and the seed-driven constructors derive every
//! injection point from a single `u64`, so a failing chaos run can be
//! reproduced exactly from its seed.
//!
//! Injection points are counted in **port operations**: every entry into
//! [`InPort::recv`](crate::InPort::recv) and every send on an
//! [`OutPort`](crate::OutPort) advances the copy's operation counter by
//! one, and a fault fires at the first *applicable* operation at or after
//! its `at_op` mark. Panics fire only at receive boundaries — before the
//! next buffer is popped from the channel — so a supervised restart
//! re-receives the buffer and no message is lost to the crash itself.
//! Send errors fire only on sends; stalls fire on either. Each scheduled
//! fault fires at most once, and the fired/operation state survives a
//! supervised restart (the restarted incarnation does not replay its
//! predecessor's faults).

use mssg_types::{splitmix64, GraphStorageError, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an injection point does when it fires.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// The filter copy panics, modelling a crashed process. Fires at a
    /// message-receive boundary (before the buffer is popped), so a
    /// supervised restart loses no in-flight message.
    Panic,
    /// The next send on any of the copy's output ports fails with a typed
    /// [`GraphStorageError::Fault`], modelling a dropped connection. The
    /// message is *not* delivered.
    SendError,
    /// The copy stalls for the given duration before the operation,
    /// modelling a slow node — the scenario stream timeouts guard against.
    Stall(Duration),
}

impl FaultKind {
    fn label(&self) -> String {
        match self {
            FaultKind::Panic => "panic".into(),
            FaultKind::SendError => "send_error".into(),
            FaultKind::Stall(d) => format!("stall:{}ms", d.as_millis()),
        }
    }
}

/// One scheduled fault: which copy, when, and what happens.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Filter name, as given to `GraphBuilder::add_filter`.
    pub filter: String,
    /// Copy index the fault targets, or `None` for every copy.
    pub copy: Option<usize>,
    /// Fires at the first applicable port operation at or after this
    /// count (operations are numbered from 1).
    pub at_op: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// An audit record of one fault that actually fired, collected into
/// [`RunReport::faults`](crate::RunReport::faults).
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Filter name.
    pub filter: String,
    /// Copy index the fault fired on.
    pub copy: usize,
    /// The copy's port-operation count when it fired.
    pub at_op: u64,
    /// Human-readable fault kind (`panic`, `send_error`, `stall:..ms`).
    pub kind: String,
}

/// A deterministic schedule of injected faults, attached to a graph with
/// [`GraphBuilder::fault_plan`](crate::GraphBuilder::fault_plan).
///
/// Build one explicitly with [`inject`](FaultPlan::inject), or derive a
/// randomized-but-reproducible plan from a seed with
/// [`panics`](FaultPlan::panics) or [`chaos`](FaultPlan::chaos).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules one fault against `filter` (copy `copy`, or all copies if
    /// `None`) at port operation `at_op`.
    pub fn inject(
        mut self,
        filter: &str,
        copy: Option<usize>,
        at_op: u64,
        kind: FaultKind,
    ) -> FaultPlan {
        self.specs.push(FaultSpec {
            filter: filter.to_string(),
            copy,
            at_op,
            kind,
        });
        self
    }

    /// Schedules `count` copy panics against `filter`, with the target
    /// copy (out of `copies`) and the operation mark (in `1..=max_op`)
    /// derived deterministically from `seed`.
    pub fn panics(
        mut self,
        seed: u64,
        filter: &str,
        copies: usize,
        count: usize,
        max_op: u64,
    ) -> FaultPlan {
        let mut state = seed ^ 0xC0FF_EE00_D15E_A5E5;
        for _ in 0..count {
            let copy = (splitmix64(&mut state) as usize) % copies.max(1);
            let at_op = 1 + splitmix64(&mut state) % max_op.max(1);
            self.specs.push(FaultSpec {
                filter: filter.to_string(),
                copy: Some(copy),
                at_op,
                kind: FaultKind::Panic,
            });
        }
        self
    }

    /// Derives a mixed plan (panics, send errors, short stalls) against
    /// the given `(filter, copies)` targets, entirely from `seed` — the
    /// constructor the chaos property test sweeps.
    pub fn chaos(seed: u64, targets: &[(&str, usize)]) -> FaultPlan {
        let mut state = seed ^ 0x5EED_5EED_5EED_5EED;
        let mut plan = FaultPlan::new();
        if targets.is_empty() {
            return plan;
        }
        let count = 1 + (splitmix64(&mut state) % 4) as usize;
        for _ in 0..count {
            let (filter, copies) = targets[(splitmix64(&mut state) as usize) % targets.len()];
            let copy = (splitmix64(&mut state) as usize) % copies.max(1);
            let at_op = 1 + splitmix64(&mut state) % 24;
            let kind = match splitmix64(&mut state) % 4 {
                0 => FaultKind::SendError,
                1 => FaultKind::Stall(Duration::from_millis(1 + splitmix64(&mut state) % 10)),
                _ => FaultKind::Panic,
            };
            plan.specs.push(FaultSpec {
                filter: filter.to_string(),
                copy: Some(copy),
                at_op,
                kind,
            });
        }
        plan
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The scheduled faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The specs that apply to one copy of one filter.
    pub(crate) fn for_copy(&self, filter: &str, copy: usize) -> Vec<FaultSpec> {
        self.specs
            .iter()
            .filter(|s| s.filter == filter && s.copy.is_none_or(|c| c == copy))
            .cloned()
            .collect()
    }
}

/// Panic payload used for injected [`FaultKind::Panic`] faults. The
/// runtime's panic hook recognises it and keeps injected crashes out of
/// stderr (real panics still print as usual).
pub(crate) struct InjectedPanic {
    pub(crate) msg: String,
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// [`InjectedPanic`] payloads and delegates everything else to the
/// previous hook — chaos runs inject crashes on purpose and should not
/// spray backtraces over the output.
pub(crate) fn silence_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        p.msg.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

struct FaultPoint {
    at_op: u64,
    kind: FaultKind,
    fired: AtomicBool,
}

/// Per-copy injection state, shared across restart incarnations so the
/// operation counter keeps advancing and fired faults stay fired.
pub(crate) struct CopyFaults {
    filter: String,
    copy: usize,
    ops: AtomicU64,
    points: Vec<FaultPoint>,
    log: Arc<Mutex<Vec<FaultEvent>>>,
    counter: mssg_obs::Counter,
}

impl CopyFaults {
    pub(crate) fn new(
        filter: String,
        copy: usize,
        specs: Vec<FaultSpec>,
        log: Arc<Mutex<Vec<FaultEvent>>>,
        counter: mssg_obs::Counter,
    ) -> CopyFaults {
        CopyFaults {
            filter,
            copy,
            ops: AtomicU64::new(0),
            points: specs
                .into_iter()
                .map(|s| FaultPoint {
                    at_op: s.at_op,
                    kind: s.kind,
                    fired: AtomicBool::new(false),
                })
                .collect(),
            log,
            counter,
        }
    }

    fn record(&self, op: u64, kind: &FaultKind) {
        self.counter.inc();
        self.log.lock().unwrap().push(FaultEvent {
            filter: self.filter.clone(),
            copy: self.copy,
            at_op: op,
            kind: kind.label(),
        });
    }

    /// Advances the operation counter and fires due faults. Called at a
    /// receive boundary (`is_send == false`) or before a send. May panic
    /// (injected crash), sleep (stall), or return a typed
    /// [`GraphStorageError::Fault`] (send error).
    pub(crate) fn tick(&self, is_send: bool) -> Result<()> {
        // racecheck: op counting only orders faults, not memory; the
        // at-most-once `fired` claim below rests on RMW atomicity, and the
        // preceding load is a best-effort skip re-checked by the swap.
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        for p in &self.points {
            if p.at_op > op || p.fired.load(Ordering::Relaxed) {
                continue;
            }
            let applicable = match p.kind {
                FaultKind::Panic => !is_send,
                FaultKind::SendError => is_send,
                FaultKind::Stall(_) => true,
            };
            // racecheck: see the tick doc above — atomicity, not ordering.
            if !applicable || p.fired.swap(true, Ordering::Relaxed) {
                continue;
            }
            self.record(op, &p.kind);
            match p.kind {
                FaultKind::Stall(d) => std::thread::sleep(d),
                FaultKind::SendError => {
                    return Err(GraphStorageError::Fault(format!(
                        "send error injected into filter {}.{} at op {op}",
                        self.filter, self.copy
                    )));
                }
                FaultKind::Panic => std::panic::panic_any(InjectedPanic {
                    msg: format!(
                        "panic injected into filter {}.{} at op {op}",
                        self.filter, self.copy
                    ),
                }),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::new().panics(42, "store", 4, 3, 20);
        let b = FaultPlan::new().panics(42, "store", 4, 3, 20);
        assert_eq!(a.len(), 3);
        for (x, y) in a.specs().iter().zip(b.specs()) {
            assert_eq!(x.copy, y.copy);
            assert_eq!(x.at_op, y.at_op);
        }
        let c = FaultPlan::new().panics(43, "store", 4, 3, 20);
        assert!(
            a.specs()
                .iter()
                .zip(c.specs())
                .any(|(x, y)| x.copy != y.copy || x.at_op != y.at_op),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn chaos_plans_bounded_and_reproducible() {
        for seed in 0..50 {
            let p = FaultPlan::chaos(seed, &[("ingest", 2), ("store", 3)]);
            assert!((1..=4).contains(&p.len()));
            let q = FaultPlan::chaos(seed, &[("ingest", 2), ("store", 3)]);
            assert_eq!(p.len(), q.len());
            for s in p.specs() {
                assert!(s.at_op >= 1 && s.at_op <= 24);
                assert!(s.filter == "ingest" || s.filter == "store");
            }
        }
    }

    #[test]
    fn for_copy_filters_by_name_and_copy() {
        let plan = FaultPlan::new()
            .inject("store", Some(1), 5, FaultKind::Panic)
            .inject("store", None, 9, FaultKind::SendError)
            .inject("ingest", Some(0), 2, FaultKind::Panic);
        assert_eq!(plan.for_copy("store", 1).len(), 2);
        assert_eq!(plan.for_copy("store", 0).len(), 1);
        assert_eq!(plan.for_copy("bfs", 0).len(), 0);
    }

    #[test]
    fn faults_fire_once_at_applicable_ops() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let cf = CopyFaults::new(
            "f".into(),
            0,
            vec![
                FaultSpec {
                    filter: "f".into(),
                    copy: Some(0),
                    at_op: 2,
                    kind: FaultKind::SendError,
                },
                FaultSpec {
                    filter: "f".into(),
                    copy: Some(0),
                    at_op: 1,
                    kind: FaultKind::Stall(Duration::from_millis(1)),
                },
            ],
            Arc::clone(&log),
            mssg_obs::Counter::default(),
        );
        cf.tick(false).unwrap(); // op 1: stall fires, send error not applicable
        assert_eq!(log.lock().unwrap().len(), 1);
        cf.tick(false).unwrap(); // op 2: send error still waits for a send
        let err = cf.tick(true).unwrap_err(); // op 3: send error fires
        assert!(matches!(err, GraphStorageError::Fault(_)));
        cf.tick(true).unwrap(); // fired faults stay fired
        assert_eq!(log.lock().unwrap().len(), 2);
    }
}
