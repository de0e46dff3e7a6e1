//! The deterministic scheduler: runs a closure's threads one at a time,
//! choosing at every synchronization point which thread proceeds next, and
//! explores every such choice by depth-first search over schedules.
//!
//! ## Model
//!
//! A *model thread* is an OS thread whose every interaction with shared
//! state goes through the [`shim`](crate::shim) primitives. Exactly one
//! model thread holds the *token* (runs) at any moment; it surrenders the
//! token at each synchronization point (lock acquisition, condvar wait,
//! join, finish). Because the code under test shares state only through
//! its mutexes, interleaving at these points is equivalent to
//! interleaving at every instruction — which is what makes exhaustive
//! exploration of 2–3 thread programs both complete and tractable.
//!
//! Condition-variable semantics are modeled faithfully: `notify_one` on an
//! empty waiter set is *lost* (this is what makes lost-wakeup bugs
//! detectable), the waiter woken by `notify_one` is a scheduler choice,
//! and a timed wait may always fire its timeout instead of being
//! notified (time is virtual: firing a timeout advances the clock past
//! the deadline). Spurious wakeups are not generated; code relying on
//! them for progress would pass here and hang in production — see the
//! crate docs for the full soundness statement.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex};
use std::time::Duration;

/// Exploration limits and expectations for one [`check_config`] run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Abort (panic) if the schedule space exceeds this many executions.
    pub max_executions: usize,
    /// Abort an execution that makes more scheduling steps than this
    /// (livelock guard).
    pub max_steps: usize,
    /// When `true` (the default), a deadlocked schedule fails the check
    /// with a counterexample trace. When `false`, deadlocks are counted
    /// in [`Report::deadlocks`] and exploration continues — used to
    /// assert that a negative control *does* deadlock.
    pub fail_on_deadlock: bool,
    /// When `true` (the default), exceeding [`Config::max_executions`]
    /// panics: the caller claimed the scenario was exhaustively
    /// checkable within the budget and it was not. When `false`, the
    /// exploration stops cleanly at the budget instead and reports
    /// [`Report::complete`] as `false` — bounded coverage of a schedule
    /// tree too deep for exhaustive DFS (e.g. three-node protocol
    /// scenarios), still checking every assertion on every schedule it
    /// does run.
    pub exhaustive: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_executions: 200_000,
            max_steps: 20_000,
            fail_on_deadlock: true,
            exhaustive: true,
        }
    }
}

/// Outcome of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub executions: usize,
    /// Number of schedules that ended in deadlock (always 0 when
    /// [`Config::fail_on_deadlock`] is set — those panic instead).
    pub deadlocks: usize,
    /// Number of wakes (summed over all schedules) where a notify landed
    /// on a waiter whose virtual deadline had already passed and the
    /// scheduler resolved the race as "timed out". Greater than zero
    /// proves the notify-vs-expiry edge was actually explored.
    pub notified_expiries: usize,
    /// Number of `notify_one` calls (summed over all schedules) that found
    /// no thread waiting. Outside the model each is a system call that
    /// wakes nobody.
    pub lost_notifies: usize,
    /// `true` when the DFS enumerated every schedule; `false` when a
    /// non-[`exhaustive`](Config::exhaustive) run stopped at its
    /// execution budget with alternatives still unexplored.
    pub complete: bool,
}

/// Panic payload used to unwind model threads when an execution aborts
/// (deadlock found, violation found, or exploration shutting down).
struct AbortPayload;

/// Why a waiting thread resumed, reported by `wait_timeout`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Wake {
    /// Not woken from a wait (initial state / plain lock).
    None,
    /// A `notify_one`/`notify_all` selected this thread.
    Notified,
    /// The virtual timeout fired.
    TimedOut,
}

#[derive(Clone, Debug)]
enum ThrState {
    /// Registered, waiting to be scheduled for the first time.
    Spawned,
    /// Holds the token.
    Running,
    /// Blocked until `lock` is free (covers both plain acquisition and
    /// re-acquisition after a condvar wake).
    WantsLock { lock: usize },
    /// Parked on condition variable `cond`, having released `lock`;
    /// `deadline` is the virtual-clock expiry of a timed wait.
    InCond {
        cond: usize,
        lock: usize,
        deadline: Option<u64>,
    },
    /// Blocked until `target` finishes.
    WantsJoin { target: usize },
    /// Surrendered the token at an always-enabled scheduling point (a
    /// traced memory access or refcount transition) — runnable as-is.
    Yielded,
    /// Ran to completion (or unwound during abort).
    Finished,
}

/// One recorded access to a traced cell: who, at which epoch of their own
/// clock, and from which source location.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Access {
    tid: usize,
    at: u64,
    site: &'static Location<'static>,
}

/// Happens-before bookkeeping for one [`race::TracedCell`](crate::race::TracedCell).
#[derive(Debug, Default)]
pub(crate) struct CellState {
    name: &'static str,
    last_write: Option<Access>,
    reads: Vec<Access>,
}

/// `dst := dst ⊔ src` (pointwise max), growing `dst` as needed.
fn vc_join(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// Advances `vc[tid]` (the thread's own epoch), growing as needed.
fn vc_tick(vc: &mut Vec<u64>, tid: usize) {
    if vc.len() <= tid {
        vc.resize(tid + 1, 0);
    }
    vc[tid] += 1;
}

#[derive(Debug)]
struct Thr {
    state: ThrState,
    wake: Wake,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Running,
    Done,
    Deadlock,
    Violation,
}

pub(crate) struct ExecState {
    threads: Vec<Thr>,
    /// `true` = held. Index = lock id.
    locks: Vec<bool>,
    /// Waiter thread ids per condvar, in arrival order.
    conds: Vec<Vec<usize>>,
    /// Virtual clock, nanoseconds. Advances only when a timeout fires.
    clock: u64,
    steps: usize,
    max_steps: usize,
    /// Schedule prefix to replay (from the previous execution's DFS step).
    forced: Vec<usize>,
    /// Choices made this execution: (chosen, alternatives). Only points
    /// with >1 alternative are recorded.
    recorded: Vec<(usize, usize)>,
    trace: Vec<String>,
    outcome: Outcome,
    /// Human-readable report for a deadlock/violation outcome.
    failure: Option<String>,
    /// Set when the execution is being torn down; parked threads unwind.
    aborted: bool,
    /// Thread currently granted the token (consumed by the grantee).
    granted: Option<usize>,
    /// Per-thread vector clocks (index = thread id). Every lock release,
    /// notify, spawn and join publishes clocks; acquires join them — the
    /// happens-before relation the race detector checks against.
    vclocks: Vec<Vec<u64>>,
    /// Per-lock release clocks: the clock of the thread that last
    /// released the lock (joined by the next acquirer).
    lock_vc: Vec<Vec<u64>>,
    /// Release clocks of refcounted objects (vendored `Bytes`, channel
    /// queues), keyed by allocation address. Entries die with the object
    /// so a reused address cannot leak a stale edge.
    obj_vc: HashMap<usize, Vec<u64>>,
    /// Traced-cell access history, index = cell id.
    cells: Vec<CellState>,
    /// Wakes resolved as "notify arrived after the deadline → report
    /// timeout" in this execution (see [`Report::notified_expiries`]).
    notified_expiries: usize,
    /// `notify_one` calls that found no waiter in this execution (see
    /// [`Report::lost_notifies`]).
    lost_notifies: usize,
}

pub(crate) struct ExecShared {
    st: OsMutex<ExecState>,
    cv: OsCondvar,
    handles: OsMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<ExecShared>, usize)>> = const { RefCell::new(None) };
}

/// The executing model thread's (scheduler, thread id), if any.
pub(crate) fn current() -> Option<(Arc<ExecShared>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn lock_state(exec: &ExecShared) -> std::sync::MutexGuard<'_, ExecState> {
    exec.st.lock().unwrap_or_else(|p| p.into_inner())
}

/// Installs (once) a panic hook that silences the expected
/// [`AbortPayload`] unwinds and assertion panics inside model threads;
/// violations are re-reported with their trace by [`check_config`].
fn silence_model_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if current().is_some() {
                return; // a model thread: reported via the checker
            }
            previous(info);
        }));
    });
}

impl ExecState {
    fn new(forced: Vec<usize>, max_steps: usize) -> ExecState {
        ExecState {
            threads: vec![Thr {
                state: ThrState::Spawned,
                wake: Wake::None,
            }],
            locks: Vec::new(),
            conds: Vec::new(),
            clock: 0,
            steps: 0,
            max_steps,
            forced,
            recorded: Vec::new(),
            trace: Vec::new(),
            outcome: Outcome::Running,
            failure: None,
            aborted: false,
            granted: None,
            vclocks: vec![vec![1]],
            lock_vc: Vec::new(),
            obj_vc: HashMap::new(),
            cells: Vec::new(),
            notified_expiries: 0,
            lost_notifies: 0,
        }
    }

    /// Makes (or replays) one scheduling decision among `n` alternatives.
    fn choose(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let c = self.forced.get(self.recorded.len()).copied().unwrap_or(0);
        debug_assert!(c < n, "replayed schedule diverged");
        self.recorded.push((c, n));
        c
    }

    fn thread_summary(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, t)| format!("  T{i}: {:?}", t.state))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn failure_report(&self, kind: &str, detail: &str) -> String {
        format!(
            "{kind}: {detail}\nthreads:\n{}\nschedule trace:\n  {}",
            self.thread_summary(),
            self.trace.join("\n  ")
        )
    }
}

#[derive(Clone, Copy)]
enum Transition {
    /// Grant the token to the thread (acquiring its wanted lock, if any).
    Run(usize),
    /// Fire the virtual timeout of a thread parked in a timed wait.
    Timeout(usize),
}

/// Picks and applies scheduling transitions until a thread is granted the
/// token, the execution completes, or no transition is enabled
/// (deadlock). Called with the state lock held, by whichever thread just
/// reached a synchronization point.
fn dispatch(exec: &ExecShared, st: &mut ExecState) {
    loop {
        if st.aborted || st.outcome != Outcome::Running {
            return;
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            st.outcome = Outcome::Violation;
            st.failure = Some(st.failure_report(
                "step bound exceeded",
                "execution did not terminate within the step budget (livelock?)",
            ));
            st.aborted = true;
            exec.cv.notify_all();
            return;
        }
        let mut enabled: Vec<Transition> = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            match &t.state {
                ThrState::Spawned => enabled.push(Transition::Run(tid)),
                ThrState::WantsLock { lock } if !st.locks[*lock] => {
                    enabled.push(Transition::Run(tid))
                }
                ThrState::WantsJoin { target }
                    if matches!(st.threads[*target].state, ThrState::Finished) =>
                {
                    enabled.push(Transition::Run(tid))
                }
                ThrState::Yielded => enabled.push(Transition::Run(tid)),
                ThrState::InCond {
                    deadline: Some(_), ..
                } => enabled.push(Transition::Timeout(tid)),
                _ => {}
            }
        }
        if enabled.is_empty() {
            if st
                .threads
                .iter()
                .all(|t| matches!(t.state, ThrState::Finished))
            {
                st.outcome = Outcome::Done;
            } else {
                st.outcome = Outcome::Deadlock;
                st.failure = Some(st.failure_report(
                    "deadlock",
                    "no thread can make progress and not all have finished",
                ));
                st.aborted = true;
            }
            exec.cv.notify_all();
            return;
        }
        let choice = st.choose(enabled.len());
        match enabled[choice] {
            Transition::Timeout(tid) => {
                let ThrState::InCond {
                    cond,
                    lock,
                    deadline: Some(deadline),
                } = st.threads[tid].state
                else {
                    unreachable!("timeout transition on a non-timed-wait thread")
                };
                st.clock = st.clock.max(deadline);
                st.conds[cond].retain(|&w| w != tid);
                st.threads[tid].wake = Wake::TimedOut;
                st.threads[tid].state = ThrState::WantsLock { lock };
                st.trace
                    .push(format!("T{tid}: timed wait on C{cond} expires"));
                // A timeout only *unparks* the thread; granting it the
                // token (after reacquiring the lock) is a further choice.
            }
            Transition::Run(tid) => {
                match st.threads[tid].state {
                    ThrState::Spawned => st.trace.push(format!("T{tid}: starts")),
                    ThrState::Yielded => st.trace.push(format!("T{tid}: resumes")),
                    ThrState::WantsLock { lock } => {
                        st.locks[lock] = true;
                        // Acquire edge: everything the last releaser did
                        // happens-before everything this thread does next.
                        let src = st.lock_vc[lock].clone();
                        vc_join(&mut st.vclocks[tid], &src);
                        st.trace.push(format!("T{tid}: acquires M{lock}"));
                    }
                    ThrState::WantsJoin { target } => {
                        // Join edge: the joined thread's whole history is
                        // visible to the joiner.
                        let src = st.vclocks[target].clone();
                        vc_join(&mut st.vclocks[tid], &src);
                        st.trace.push(format!("T{tid}: joins T{target}"))
                    }
                    _ => unreachable!("run transition on an unrunnable thread"),
                }
                st.threads[tid].state = ThrState::Running;
                st.granted = Some(tid);
                exec.cv.notify_all();
                return;
            }
        }
    }
}

/// Surrenders the token at a synchronization point (the caller must have
/// already moved itself out of `Running`) and blocks until re-granted.
/// Panics with [`AbortPayload`] if the execution is torn down meanwhile.
fn yield_to_scheduler(exec: &ExecShared, mut st: std::sync::MutexGuard<'_, ExecState>, me: usize) {
    dispatch(exec, &mut st);
    loop {
        if st.granted == Some(me) {
            st.granted = None;
            return;
        }
        if st.aborted {
            drop(st);
            std::panic::panic_any(AbortPayload);
        }
        st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
    }
}

// ---- operations invoked by the shim primitives ----------------------------

pub(crate) fn register_lock(exec: &ExecShared) -> usize {
    let mut st = lock_state(exec);
    st.locks.push(false);
    st.lock_vc.push(Vec::new());
    st.locks.len() - 1
}

pub(crate) fn register_cond(exec: &ExecShared) -> usize {
    let mut st = lock_state(exec);
    st.conds.push(Vec::new());
    st.conds.len() - 1
}

/// Blocking lock acquisition (a scheduling point even when free).
///
/// On a *panicking* thread (unwinding user code, or tearing down after
/// an abort) the scheduler must not be re-entered — a second panic would
/// abort the process — so locking degrades to plain OS-blocking mutual
/// exclusion: correct for the `Drop` impls that run during unwind, and
/// the model no longer needs the schedule once the execution is dead.
pub(crate) fn acquire(exec: &ExecShared, me: usize, lock: usize) {
    if std::thread::panicking() {
        let mut st = lock_state(exec);
        while st.locks[lock] {
            st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.locks[lock] = true;
        return;
    }
    let mut st = lock_state(exec);
    st.threads[me].state = ThrState::WantsLock { lock };
    yield_to_scheduler(exec, st, me);
}

/// Lock release. Not a scheduling point: the next point the releasing
/// thread reaches lets every now-unblocked thread compete for the token.
pub(crate) fn release(exec: &ExecShared, me: usize, lock: usize) {
    let mut st = lock_state(exec);
    st.locks[lock] = false;
    if std::thread::panicking() {
        // Wake peers blocked in the teardown path of `acquire`.
        exec.cv.notify_all();
        return;
    }
    // Release edge: publish this thread's clock on the lock, then open a
    // new epoch so later unprotected accesses are *not* covered by it.
    st.lock_vc[lock] = st.vclocks[me].clone();
    vc_tick(&mut st.vclocks[me], me);
    st.trace.push(format!("T{me}: releases M{lock}"));
}

/// Atomically releases `lock`, parks on `cond` (with an optional virtual
/// timeout), and blocks until notified or expired *and* `lock` is
/// reacquired. Returns the wake reason.
pub(crate) fn cond_wait(
    exec: &ExecShared,
    me: usize,
    cond: usize,
    lock: usize,
    timeout: Option<Duration>,
) -> Wake {
    let mut st = lock_state(exec);
    st.locks[lock] = false;
    // Waiting releases the lock: same release edge as an unlock.
    st.lock_vc[lock] = st.vclocks[me].clone();
    vc_tick(&mut st.vclocks[me], me);
    st.conds[cond].push(me);
    let deadline = timeout.map(|d| {
        st.clock
            .saturating_add(d.as_nanos().min(u64::MAX as u128) as u64)
    });
    st.threads[me].wake = Wake::None;
    st.threads[me].state = ThrState::InCond {
        cond,
        lock,
        deadline,
    };
    st.trace.push(match timeout {
        Some(d) => format!("T{me}: waits on C{cond} (timeout {d:?})"),
        None => format!("T{me}: waits on C{cond}"),
    });
    yield_to_scheduler(exec, st, me);
    lock_state(exec).threads[me].wake
}

/// Wakes one waiter (scheduler's choice of which); lost if none wait.
pub(crate) fn notify_one(exec: &ExecShared, me: usize, cond: usize) {
    if std::thread::panicking() {
        // Teardown: parked waiters are woken by the abort broadcast, and
        // recording a choice on a dead execution would corrupt the DFS.
        return;
    }
    let mut st = lock_state(exec);
    if st.conds[cond].is_empty() {
        st.lost_notifies += 1;
        st.trace.push(format!("T{me}: notify_one C{cond} (lost)"));
        return;
    }
    let n = st.conds[cond].len();
    let k = st.choose(n);
    let tid = st.conds[cond].remove(k);
    wake_waiter(&mut st, me, tid);
    vc_tick(&mut st.vclocks[me], me);
    st.trace
        .push(format!("T{me}: notify_one C{cond} wakes T{tid}"));
}

/// Wakes every waiter.
pub(crate) fn notify_all(exec: &ExecShared, me: usize, cond: usize) {
    if std::thread::panicking() {
        return; // see notify_one
    }
    let mut st = lock_state(exec);
    let waiters = std::mem::take(&mut st.conds[cond]);
    if waiters.is_empty() {
        st.trace.push(format!("T{me}: notify_all C{cond} (lost)"));
        return;
    }
    for &tid in &waiters {
        wake_waiter(&mut st, me, tid);
    }
    vc_tick(&mut st.vclocks[me], me);
    st.trace
        .push(format!("T{me}: notify_all C{cond} wakes {waiters:?}"));
}

fn wake_waiter(st: &mut ExecState, me: usize, tid: usize) {
    let ThrState::InCond { lock, deadline, .. } = st.threads[tid].state else {
        unreachable!("woke a thread that was not waiting")
    };
    // A notify landing on (or after) the waiter's expiry tick is a real
    // OS race: the waiter may observe either the notification or its own
    // timeout. Explore both outcomes.
    let wake = match deadline {
        Some(d) if d <= st.clock && st.choose(2) == 1 => {
            st.notified_expiries += 1;
            st.trace.push(format!(
                "T{tid}: notify arrives after its deadline — resolved as timeout"
            ));
            Wake::TimedOut
        }
        _ => Wake::Notified,
    };
    if wake == Wake::Notified {
        // Signal edge: the notifier's history is visible to the waiter.
        // A wake reported as a timeout synchronizes only through the
        // mutex reacquisition, exactly like the real primitive.
        let src = st.vclocks[me].clone();
        vc_join(&mut st.vclocks[tid], &src);
    }
    st.threads[tid].wake = wake;
    st.threads[tid].state = ThrState::WantsLock { lock };
}

/// Current virtual clock (nanoseconds).
pub(crate) fn virtual_clock(exec: &ExecShared) -> u64 {
    lock_state(exec).clock
}

// ---- operations invoked by the race detector (crate::race) ----------------

/// An always-enabled scheduling point: surrenders the token so the
/// scheduler can interleave other threads before the caller's next
/// (unsynchronized) action. `what` goes into the schedule trace.
pub(crate) fn yield_point(exec: &ExecShared, me: usize, what: &str) {
    if std::thread::panicking() {
        return;
    }
    let mut st = lock_state(exec);
    st.trace.push(format!("T{me}: {what}"));
    st.threads[me].state = ThrState::Yielded;
    yield_to_scheduler(exec, st, me);
}

/// Registers a traced cell; returns its id.
pub(crate) fn register_cell(exec: &ExecShared, name: &'static str) -> usize {
    let mut st = lock_state(exec);
    st.cells.push(CellState {
        name,
        ..CellState::default()
    });
    st.cells.len() - 1
}

/// Checks one access to a traced cell against the recorded history and
/// the accessor's vector clock; records it. Returns a race report naming
/// both unordered sites if the access races with a previous one. Also a
/// scheduling point (so the DFS reaches every access interleaving).
pub(crate) fn traced_access(
    exec: &ExecShared,
    me: usize,
    cell: usize,
    is_write: bool,
    site: &'static Location<'static>,
) -> Option<String> {
    if std::thread::panicking() {
        return None;
    }
    let kind = if is_write { "write" } else { "read" };
    {
        let mut st = lock_state(exec);
        let name = st.cells[cell].name;
        st.trace.push(format!("T{me}: {kind}s `{name}` at {site}"));
        st.threads[me].state = ThrState::Yielded;
        yield_to_scheduler(exec, st, me);
    }
    let mut st = lock_state(exec);
    let my_vc = st.vclocks[me].clone();
    let epoch = my_vc.get(me).copied().unwrap_or(0);
    // `prev` happened-before this access iff our clock has caught up with
    // the epoch `prev` was made at (FastTrack's epoch comparison).
    let ordered = |a: &Access| my_vc.get(a.tid).copied().unwrap_or(0) >= a.at;
    let conflict = {
        let c = &st.cells[cell];
        let mut hit: Option<(&'static str, Access)> = None;
        if let Some(w) = &c.last_write {
            if w.tid != me && !ordered(w) {
                hit = Some(("write", *w));
            }
        }
        if hit.is_none() && is_write {
            hit = c
                .reads
                .iter()
                .find(|r| r.tid != me && !ordered(r))
                .map(|r| ("read", *r));
        }
        hit
    };
    let name = st.cells[cell].name;
    if let Some((prev_kind, prev)) = conflict {
        return Some(format!(
            "data race on `{name}`: {prev_kind} at {} (T{}) is unordered with {kind} at {site} (T{me})",
            prev.site, prev.tid,
        ));
    }
    let c = &mut st.cells[cell];
    let access = Access {
        tid: me,
        at: epoch,
        site,
    };
    if is_write {
        c.last_write = Some(access);
        c.reads.clear();
    } else {
        c.reads.retain(|a| a.tid != me);
        c.reads.push(access);
    }
    None
}

/// Marks `addr` as shared: a second handle now exists, so its later
/// refcount transitions are cross-thread-visible. Idempotent; the entry
/// is retired when the object dies or is consumed.
pub(crate) fn obj_mark_shared(exec: &ExecShared, addr: usize) {
    lock_state(exec).obj_vc.entry(addr).or_default();
}

/// `true` once `addr` has been marked shared (and not yet retired). A
/// never-cloned object is thread-local: its refcount operations cannot
/// order anything across threads, so the race hooks skip the scheduling
/// point — a sound partial-order reduction that keeps uniquely owned
/// buffers out of the schedule space.
pub(crate) fn obj_is_shared(exec: &ExecShared, addr: usize) -> bool {
    lock_state(exec).obj_vc.contains_key(&addr)
}

/// Release edge onto a refcounted object: joins the caller's clock into
/// the object's release clock (dropping a handle publishes every access
/// made through it). `dying` (refcount hitting zero) retires the entry so
/// a reused allocation address cannot inherit a stale edge.
pub(crate) fn obj_release(exec: &ExecShared, me: usize, addr: usize, dying: bool) {
    let mut st = lock_state(exec);
    let src = st.vclocks[me].clone();
    if dying {
        st.obj_vc.remove(&addr);
    } else {
        let vc = st.obj_vc.entry(addr).or_default();
        vc_join(vc, &src);
    }
    vc_tick(&mut st.vclocks[me], me);
}

/// Acquire edge from a refcounted object: joins the object's release
/// clock into the caller's (observing uniqueness — or receiving a message
/// — makes every publisher's history visible). `consume` retires the
/// entry (the object is gone, e.g. `try_into_vec` succeeded).
pub(crate) fn obj_acquire(exec: &ExecShared, me: usize, addr: usize, consume: bool) {
    let mut st = lock_state(exec);
    let vc = if consume {
        st.obj_vc.remove(&addr)
    } else {
        st.obj_vc.get(&addr).cloned()
    };
    if let Some(vc) = vc {
        vc_join(&mut st.vclocks[me], &vc);
    }
}

fn finish(exec: &ExecShared, me: usize) {
    let mut st = lock_state(exec);
    st.threads[me].state = ThrState::Finished;
    st.trace.push(format!("T{me}: finishes"));
    dispatch(exec, &mut st);
}

fn record_violation(exec: &ExecShared, me: usize, msg: String) {
    let mut st = lock_state(exec);
    st.threads[me].state = ThrState::Finished;
    if st.outcome == Outcome::Running {
        st.outcome = Outcome::Violation;
        let report = st.failure_report("violation", &format!("T{me} panicked: {msg}"));
        st.failure = Some(report);
    }
    st.aborted = true;
    exec.cv.notify_all();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Body of every model OS thread: wait to be scheduled, run the closure,
/// then hand the token on (or report the violation that unwound us).
fn run_model_thread(exec: &Arc<ExecShared>, me: usize, f: impl FnOnce()) {
    // Initial grant: not inside user code, so abort just exits.
    {
        let mut st = lock_state(exec);
        loop {
            if st.granted == Some(me) {
                st.granted = None;
                break;
            }
            if st.aborted {
                return;
            }
            st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(()) => finish(exec, me),
        Err(payload) if payload.is::<AbortPayload>() => {}
        Err(payload) => record_violation(exec, me, panic_message(payload.as_ref())),
    }
}

/// Handle to a thread spawned with [`spawn`] inside a model execution.
pub struct JoinHandle {
    tid: usize,
}

impl JoinHandle {
    /// Blocks (as a scheduling point) until the thread finishes. A panic
    /// in the target thread fails the whole check with a trace, so there
    /// is no per-thread result to return.
    pub fn join(self) {
        let (exec, me) = current().expect("JoinHandle::join outside a model thread");
        let mut st = lock_state(&exec);
        st.threads[me].state = ThrState::WantsJoin { target: self.tid };
        yield_to_scheduler(&exec, st, me);
    }
}

/// Spawns a model thread running `f`. Must be called from inside a
/// [`check`] closure (or a thread transitively spawned by one).
pub fn spawn<F>(f: F) -> JoinHandle
where
    F: FnOnce() + Send + 'static,
{
    let (exec, me) = current().expect("modelcheck::spawn outside a model thread");
    let tid = {
        let mut st = lock_state(&exec);
        st.threads.push(Thr {
            state: ThrState::Spawned,
            wake: Wake::None,
        });
        let tid = st.threads.len() - 1;
        // Fork edge: the child starts with the parent's history, in a
        // fresh epoch of its own; the parent's later actions are not
        // ordered before the child's.
        let mut child = st.vclocks[me].clone();
        if child.len() <= tid {
            child.resize(tid + 1, 0);
        }
        child[tid] = 1;
        st.vclocks.push(child);
        vc_tick(&mut st.vclocks[me], me);
        tid
    };
    let exec2 = Arc::clone(&exec);
    let handle = std::thread::Builder::new()
        .name(format!("model-{tid}"))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), tid)));
            run_model_thread(&exec2, tid, f);
        })
        .expect("spawn model thread");
    exec.handles
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(handle);
    JoinHandle { tid }
}

/// Exhaustively explores every schedule of `f` with the default
/// [`Config`]. Panics with a counterexample trace on any deadlock or
/// assertion failure; returns the exploration [`Report`] otherwise.
pub fn check<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    check_config(Config::default(), f)
}

/// [`check`] with explicit limits / deadlock expectations.
pub fn check_config<F>(config: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    silence_model_panics();
    // Arm the vendor-side race hooks (Bytes, channel edges) for the
    // duration of the exploration; disarmed again on unwind.
    let _active = crate::race::ActiveGuard::new();
    let f = Arc::new(f);
    let mut forced: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    let mut deadlocks = 0usize;
    let mut notified_expiries = 0usize;
    let mut lost_notifies = 0usize;
    loop {
        if executions >= config.max_executions && !config.exhaustive {
            // Budget spent with alternatives left: bounded coverage.
            return Report {
                executions,
                deadlocks,
                notified_expiries,
                lost_notifies,
                complete: false,
            };
        }
        executions += 1;
        assert!(
            executions <= config.max_executions,
            "model checker exceeded {} executions; reduce the scenario",
            config.max_executions
        );
        let exec = Arc::new(ExecShared {
            st: OsMutex::new(ExecState::new(
                std::mem::take(&mut forced),
                config.max_steps,
            )),
            cv: OsCondvar::new(),
            handles: OsMutex::new(Vec::new()),
        });
        // Thread 0 runs the closure itself.
        let exec2 = Arc::clone(&exec);
        let f2 = Arc::clone(&f);
        let t0 = std::thread::Builder::new()
            .name("model-0".to_string())
            .spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), 0)));
                run_model_thread(&exec2, 0, move || f2());
            })
            .expect("spawn model thread 0");
        // Kick: schedule the first thread.
        {
            let mut st = lock_state(&exec);
            dispatch(&exec, &mut st);
        }
        // Wait for the execution to settle.
        {
            let mut st = lock_state(&exec);
            while st.outcome == Outcome::Running && !st.aborted {
                st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
        t0.join().ok();
        for h in exec
            .handles
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
        {
            h.join().ok();
        }
        let st = lock_state(&exec);
        notified_expiries += st.notified_expiries;
        lost_notifies += st.lost_notifies;
        match st.outcome {
            Outcome::Done => {}
            Outcome::Deadlock => {
                deadlocks += 1;
                if config.fail_on_deadlock {
                    let report = st.failure.clone().unwrap_or_default();
                    drop(st);
                    panic!(
                        "model checker found a counterexample (execution {executions}):\n{report}"
                    );
                }
            }
            Outcome::Violation => {
                let report = st.failure.clone().unwrap_or_default();
                drop(st);
                panic!("model checker found a counterexample (execution {executions}):\n{report}");
            }
            Outcome::Running => unreachable!("execution settled while still running"),
        }
        // DFS step: rewind to the deepest choice with an unexplored
        // alternative and take it.
        let recorded = st.recorded.clone();
        drop(st);
        let Some(i) = recorded.iter().rposition(|&(c, n)| c + 1 < n) else {
            return Report {
                executions,
                deadlocks,
                notified_expiries,
                lost_notifies,
                complete: true,
            };
        };
        forced = recorded[..i].iter().map(|&(c, _)| c).collect();
        forced.push(recorded[i].0 + 1);
    }
}
