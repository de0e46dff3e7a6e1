//! Deterministic fault injection: the workspace's one fault grammar.
//!
//! Three places inject faults, and all of them speak it (DESIGN.md §6,
//! "Fault grammar"):
//!
//! | place | site | op | kinds |
//! |---|---|---|---|
//! | the filter runtime | `"{filter}.{copy}"` | port operation, from 1 | [`FaultKind`] |
//! | `mssg_net::sim` | directed pipe, `"n0->n1"` | wire frame, from 0 | `SimFault` |
//! | `mssg_net::model` | `"{from}->{to}:{frame kind}"` | frame of that kind, from 0 | `LinkFault` |
//!
//! A [`FaultPlan<K>`] is plain data with three parts:
//! - **injections**, `(site, at, kind)` triples placed by hand;
//! - optional **chaos**: [`FaultPlan::chaos`]`(seed, pct, max_at)` gives
//!   each site one SplitMix64 stream seeded with `seed ^ fnv1a(site)`. Its
//!   first draw decides whether the site faults (`pct` percent do), the
//!   second at which op (`0..=max_at`), and [`Fault::draw`] which kind. A
//!   site's schedule depends on the seed and its name alone, never on
//!   thread interleaving;
//! - **immunity**: [`FaultPlan::immune`]`(substr)` exempts every site whose
//!   name contains `substr` from both.
//!
//! Each injecting place asks the plan for its site's schedule
//! ([`FaultPlan::site`]) and calls [`SiteFaults::fire`] at every op: it
//! fires each entry once, at the first *applicable* op at or after its
//! `at`. Every fault that fires is recorded as a [`FaultEvent`] in the
//! place's [`FaultLog`], which is the audit, and counted.
//!
//! In the filter runtime a panic applies only at a receive boundary —
//! before the next buffer is popped — and fails the run (the crash a
//! `resume` recovers from). Send errors apply only to sends; stalls to
//! either. One op counter per copy is shared by all of its ports.

use mssg_types::{fnv1a, splitmix64, GraphStorageError, Result};
use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The faults one kind of injection site can fire.
pub trait Fault: Clone + Debug + Send + 'static {
    /// Draws one fault from a site's chaos stream (see [`FaultPlan::chaos`]).
    fn draw(rng: &mut u64) -> Self;
}

/// What a filter copy's injection point does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The filter copy panics, modelling a crashed process: the run fails
    /// with a typed `FilterFailed`. Fires at a message-receive boundary
    /// (before the buffer is popped).
    Panic,
    /// The send fails with a typed [`GraphStorageError::Fault`], modelling
    /// a dropped connection. The message is *not* delivered.
    SendError,
    /// The copy stalls for the given duration before the operation,
    /// modelling a slow node — the scenario stream timeouts guard against.
    Stall(Duration),
}

impl Fault for FaultKind {
    /// Half panics, a quarter send errors, a quarter stalls of 1–10 ms.
    fn draw(rng: &mut u64) -> FaultKind {
        match splitmix64(rng) % 4 {
            0 => FaultKind::SendError,
            1 => FaultKind::Stall(Duration::from_millis(1 + splitmix64(rng) % 10)),
            _ => FaultKind::Panic,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Chaos {
    seed: u64,
    pct: u64,
    max_at: u64,
}

/// A deterministic schedule of faults of kind `K`: injections, optional
/// seeded chaos, and immune sites (see the module docs).
#[derive(Clone, Debug)]
pub struct FaultPlan<K> {
    injected: Vec<(String, u64, K)>,
    chaos: Option<Chaos>,
    immune: Vec<String>,
}

impl<K> Default for FaultPlan<K> {
    fn default() -> Self {
        FaultPlan {
            injected: Vec::new(),
            chaos: None,
            immune: Vec::new(),
        }
    }
}

impl<K: Fault> FaultPlan<K> {
    /// A plan that injects nothing.
    pub fn new() -> FaultPlan<K> {
        FaultPlan::default()
    }

    /// Seeded chaos: `pct` percent of sites get one fault, at an op drawn
    /// from `0..=max_at`, of a kind drawn by [`Fault::draw`].
    pub fn chaos(seed: u64, pct: u64, max_at: u64) -> FaultPlan<K> {
        FaultPlan {
            chaos: Some(Chaos {
                seed,
                pct: pct.min(100),
                max_at,
            }),
            ..FaultPlan::default()
        }
    }

    /// Schedules `kind` at `site`, to fire at the first applicable op at
    /// or after `at`.
    pub fn inject(mut self, site: &str, at: u64, kind: K) -> FaultPlan<K> {
        self.injected.push((site.to_string(), at, kind));
        self
    }

    /// Exempts every site whose name contains `substr` from all faults,
    /// chaos and injected.
    pub fn immune(mut self, substr: &str) -> FaultPlan<K> {
        self.immune.push(substr.to_string());
        self
    }

    /// `true` if no site can fault: no injections and no chaos.
    pub fn is_empty(&self) -> bool {
        self.injected.is_empty() && self.chaos.is_none()
    }

    /// One site's schedule, ascending by `at` (injections in the order
    /// given where they tie, the chaos entry after them).
    pub fn schedule(&self, site: &str) -> Vec<(u64, K)> {
        if self.immune.iter().any(|m| site.contains(m.as_str())) {
            return Vec::new();
        }
        let mut out: Vec<(u64, K)> = self
            .injected
            .iter()
            .filter(|(s, _, _)| s == site)
            .map(|(_, at, kind)| (*at, kind.clone()))
            .collect();
        if let Some(c) = self.chaos {
            let mut rng = c.seed ^ fnv1a(site.as_bytes());
            if splitmix64(&mut rng) % 100 < c.pct {
                let at = splitmix64(&mut rng) % (c.max_at + 1);
                out.push((at, K::draw(&mut rng)));
            }
        }
        out.sort_by_key(|(at, _)| *at);
        out
    }

    /// One site's schedule, ready to fire, recording into `log`.
    pub fn site(&self, site: &str, log: &FaultLog<K>) -> SiteFaults<K> {
        SiteFaults {
            site: site.to_string(),
            pending: self.schedule(site),
            log: log.clone(),
        }
    }
}

/// Audit record of one fault that fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent<K> {
    /// The site it fired at.
    pub site: String,
    /// The op it fired at (not its `at`, when the two differ).
    pub at: u64,
    /// What fired.
    pub kind: K,
}

/// The audit of one injecting place: every fault that fired, in firing
/// order, plus a counter. Cloning shares the log.
#[derive(Clone, Debug)]
pub struct FaultLog<K> {
    events: Arc<Mutex<Vec<FaultEvent<K>>>>,
    counter: mssg_obs::Counter,
}

impl<K: Clone> Default for FaultLog<K> {
    fn default() -> Self {
        FaultLog::new(mssg_obs::Counter::default())
    }
}

impl<K: Clone> FaultLog<K> {
    /// An empty log that also counts into `counter`.
    pub fn new(counter: mssg_obs::Counter) -> FaultLog<K> {
        FaultLog {
            events: Arc::new(Mutex::new(Vec::new())),
            counter,
        }
    }

    /// Records one fault. [`SiteFaults::fire`] calls it; a place calls it
    /// directly only for faults it applies outside a schedule (the wire
    /// simulator's partition and heal).
    pub fn record(&self, site: &str, at: u64, kind: K) {
        self.counter.inc();
        self.lock().push(FaultEvent {
            site: site.to_string(),
            at,
            kind,
        });
    }

    /// Every fault recorded so far, in firing order.
    pub fn events(&self) -> Vec<FaultEvent<K>> {
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<FaultEvent<K>>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One site's pending faults (from [`FaultPlan::site`]).
#[derive(Debug)]
pub struct SiteFaults<K> {
    site: String,
    pending: Vec<(u64, K)>,
    log: FaultLog<K>,
}

impl<K: Clone> SiteFaults<K> {
    /// The site's name.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// `true` once nothing is left to fire.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Fires the first pending fault that is due at `op` (its `at` ≤ `op`)
    /// and `applicable` to it: removes it, records it in the log, and
    /// returns its kind. Call again for the next one due at the same op.
    pub fn fire(&mut self, op: u64, applicable: impl Fn(&K) -> bool) -> Option<K> {
        let i = self
            .pending
            .iter()
            .take_while(|(at, _)| *at <= op)
            .position(|(_, kind)| applicable(kind))?;
        let (_, kind) = self.pending.remove(i);
        self.log.record(&self.site, op, kind.clone());
        Some(kind)
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

/// One filter copy's injection state: its port-op counter and its site's
/// schedule, shared by all the copy's ports.
pub(crate) struct CopyFaults {
    state: Mutex<(u64, SiteFaults<FaultKind>)>,
}

impl CopyFaults {
    pub(crate) fn new(site: SiteFaults<FaultKind>) -> CopyFaults {
        CopyFaults {
            state: Mutex::new((0, site)),
        }
    }

    /// Counts one port operation and fires what is due at it. Called at a
    /// receive boundary (`is_send == false`) or before a send. May panic
    /// (injected crash), sleep (stall), or return a typed
    /// [`GraphStorageError::Fault`] (send error).
    pub(crate) fn tick(&self, is_send: bool) -> Result<()> {
        let op = {
            let mut st = self.lock();
            st.0 += 1;
            st.0
        };
        loop {
            let mut st = self.lock();
            let Some(fired) = st.1.fire(op, |kind| match kind {
                FaultKind::Panic => !is_send,
                FaultKind::SendError => is_send,
                FaultKind::Stall(_) => true,
            }) else {
                return Ok(());
            };
            let site = st.1.site().to_string();
            // The guard drops before a stall sleeps or a panic unwinds.
            drop(st);
            match fired {
                FaultKind::Stall(d) => std::thread::sleep(d),
                FaultKind::SendError => {
                    return Err(GraphStorageError::Fault(format!(
                        "send error injected into filter {site} at op {op}"
                    )))
                }
                FaultKind::Panic => std::panic::panic_any(InjectedPanic {
                    msg: format!("panic injected into filter {site} at op {op}"),
                }),
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, (u64, SiteFaults<FaultKind>)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sites of all three places, the chaos suites' filter sites among them.
    const SITES: [&str; 8] = [
        "ingest.0",
        "ingest.1",
        "store.0",
        "store.1",
        "store.2",
        "n0->n1",
        "serve#0->serve",
        "0->1:Credit",
    ];

    proptest! {
        /// The grammar, whatever the kind: the same seed gives the same
        /// schedule at every site, chaos stays inside its window, an immune
        /// site schedules nothing, schedules come back ordered by `at`, and
        /// firing takes each entry once, at its first applicable op at or
        /// after `at`, with the log holding exactly what fired.
        #[test]
        fn one_grammar_schedules_fires_once_and_audits(
            seed in any::<u64>(),
            pct in 0u64..=100,
            max_at in 0u64..24,
            injected in proptest::collection::vec((0usize..SITES.len(), 0u64..32, 0u8..3), 0..10),
            sends in proptest::collection::vec(any::<bool>(), 40),
        ) {
            let kind = |k: u8| match k {
                0 => FaultKind::Panic,
                1 => FaultKind::SendError,
                _ => FaultKind::Stall(Duration::from_millis(1)),
            };
            let plan = injected.iter().fold(
                FaultPlan::chaos(seed, pct, max_at),
                |plan, &(site, at, k)| plan.inject(SITES[site], at, kind(k)),
            );
            let again = FaultPlan::<FaultKind>::chaos(seed, pct, max_at);
            for site in SITES {
                let chaos = FaultPlan::<FaultKind>::chaos(seed, pct, max_at).schedule(site);
                prop_assert_eq!(&chaos, &again.schedule(site));
                prop_assert!(chaos.len() <= 1 && chaos.iter().all(|(at, _)| *at <= max_at));
                prop_assert!(plan.clone().immune(site).schedule(site).is_empty());
                prop_assert!(plan.clone().immune(&site[..2]).schedule(site).is_empty());

                let schedule = plan.schedule(site);
                prop_assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0));
                let mine: Vec<_> = injected
                    .iter()
                    .filter(|(s, _, _)| SITES[*s] == site)
                    .map(|&(_, at, k)| (at, kind(k)))
                    .collect();
                prop_assert_eq!(schedule.len(), mine.len() + chaos.len());

                // Op `op` is a send where `sends[op]`; a panic applies to
                // receives, a send error to sends, a stall to both.
                let applies = |k: &FaultKind, op: u64| match k {
                    FaultKind::Panic => !sends[op as usize],
                    FaultKind::SendError => sends[op as usize],
                    FaultKind::Stall(_) => true,
                };
                let mut want: Vec<(u64, usize, FaultKind)> = schedule
                    .iter()
                    .enumerate()
                    .filter_map(|(i, (at, k))| {
                        (*at..sends.len() as u64)
                            .find(|&op| applies(k, op))
                            .map(|op| (op, i, k.clone()))
                    })
                    .collect();
                want.sort_by_key(|(op, i, _)| (*op, *i));

                let log = FaultLog::default();
                let mut faults = plan.site(site, &log);
                let mut fired = Vec::new();
                for op in 0..sends.len() as u64 {
                    while let Some(k) = faults.fire(op, |k| applies(k, op)) {
                        fired.push((op, k));
                    }
                }
                let want: Vec<_> = want.into_iter().map(|(op, _, k)| (op, k)).collect();
                prop_assert_eq!(&fired, &want);
                let audit: Vec<_> = log.events().into_iter().map(|e| (e.at, e.kind)).collect();
                prop_assert_eq!(&audit, &want);
                prop_assert!(log.events().iter().all(|e| e.site == site));
            }
        }
    }

    #[test]
    fn faults_fire_once_at_applicable_ops() {
        let log = FaultLog::default();
        let plan = FaultPlan::new()
            .inject("f.0", 2, FaultKind::SendError)
            .inject("f.0", 1, FaultKind::Stall(Duration::from_millis(1)))
            .inject("f.0", 4, FaultKind::Panic);
        let cf = CopyFaults::new(plan.site("f.0", &log));
        cf.tick(false).unwrap(); // op 1: stall fires, send error not due
        assert_eq!(log.events().len(), 1);
        cf.tick(false).unwrap(); // op 2: send error still waits for a send
        let err = cf.tick(true).unwrap_err(); // op 3: send error fires
        assert!(matches!(err, GraphStorageError::Fault(_)));
        cf.tick(true).unwrap(); // op 4: the panic waits for a receive
        silence_injected_panics();
        let crash = std::panic::catch_unwind(|| cf.tick(false)).unwrap_err();
        assert!(panic_message(crash.as_ref()).contains("f.0 at op 5"));
        cf.tick(false).unwrap(); // fired faults stay fired
        let kinds: Vec<_> = log.events().into_iter().map(|e| (e.at, e.kind)).collect();
        assert_eq!(
            kinds,
            [
                (1, FaultKind::Stall(Duration::from_millis(1))),
                (3, FaultKind::SendError),
                (5, FaultKind::Panic)
            ]
        );
    }
}
