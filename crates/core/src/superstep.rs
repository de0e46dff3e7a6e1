//! The analyses' resident engines over the round protocol (DESIGN.md
//! §10.6).
//!
//! BFS, connected components, the minimum spanning forest and the degree
//! distribution are bulk-synchronous programs over
//! [`datacutter::superstep`]: `p` copies of one filter, one per back-end
//! node, joined all-to-all, exchanging tagged records and markers phase by
//! phase. A program is a function from a [`Peers`] and its node's GraphDB
//! to that copy's share of the result, and [`run`] runs it as a *job* on an
//! engine.
//!
//! An engine is that all-to-all pipeline over the cluster's backends,
//! built and verified once, whose copies stay up between jobs: each waits
//! for its next job, runs it and replies on a channel of its own. The
//! cluster keeps its idle engines ([`Engines`]). A call takes one, or
//! starts one, and hands it back after a successful job, so concurrent
//! calls never share an engine. A call with another stream deadline than
//! [`DEADLINE`], or with a fault plan, gets an engine that serves it alone
//! and is named after its program, so fault sites (`bfs.{i}`) and the
//! port operations they count are those of that one call.
//!
//! Every message carries its job's number, and a copy drops messages of
//! any other job: a job that ends early leaves no marker the next job
//! could count. A job that fails ends its engine — the failed copy returns
//! the error, which ends the pipeline's run, and the call reports the
//! run's root cause. A failed engine never serves again.

use crate::cluster::{MssgCluster, SharedBackend};
use crate::telemetry::TelemetryReport;
use crossbeam::channel::{bounded, Receiver, Sender};
use datacutter::superstep::{Peers, PORT};
use datacutter::{
    CopyUsage, FaultKind, FaultPlan, Filter, FilterContext, FilterTiming, GraphBuilder,
    NetSnapshot, RunReport,
};
use mssg_types::{GraphStorageError, Result};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rounds after which a program gives up.
pub(crate) const MAX_ROUNDS: u32 = 10_000;

/// The stream deadline of every pipeline: what an analysis with no option
/// for it uses, and what `BfsOptions` and `IngestOptions` default to.
pub(crate) const DEADLINE: Duration = Duration::from_secs(120);

/// What an engine's copies run: a program whose result its closure has
/// already put in the copy's slot.
type Program = dyn Fn(&mut Peers<'_>, &SharedBackend) -> Result<()> + Send + Sync;

/// Runs `program` on every back-end node, the copies joined all-to-all,
/// and returns what each copy computed, by copy index, with the report of
/// this job alone. `kinds` is how many message kinds the program uses
/// (`0..kinds`).
pub(crate) fn run<T: Send + 'static>(
    cluster: &MssgCluster,
    name: &str,
    kinds: u64,
    timeout: Duration,
    fault_plan: Option<&FaultPlan<FaultKind>>,
    program: impl Fn(&mut Peers<'_>, &SharedBackend) -> Result<T> + Send + Sync + 'static,
) -> Result<(Vec<T>, TelemetryReport)> {
    let p = cluster.nodes();
    let results = Arc::new(Mutex::new((0..p).map(|_| None).collect::<Vec<_>>()));
    let slots = Arc::clone(&results);
    let job: Arc<Program> = Arc::new(move |peers, backend| {
        let result = program(peers, backend)?;
        slots.lock()[peers.me()] = Some(result);
        Ok(())
    });
    // A pooled engine serves every program, so it is not named after one.
    let resident = timeout == DEADLINE && fault_plan.is_none();
    let filter = if resident { "superstep" } else { name };
    let mut engine = match resident.then(|| cluster.engines.take()).flatten() {
        Some(engine) => engine,
        None => Engine::start(cluster, filter, timeout, fault_plan)?,
    };
    let io_before = cluster.io_snapshot();
    let started = Instant::now();
    let Some(replies) = engine.submit(name, kinds, job) else {
        // A copy failed, which ended the run: its error says why.
        return Err(engine.shut_down().err().unwrap_or_else(|| no_result(name)));
    };
    let elapsed = started.elapsed();
    let faults = if resident {
        cluster.engines.put(engine);
        Vec::new()
    } else {
        engine.shut_down()?.faults
    };
    let results: Option<Vec<T>> = std::mem::take(&mut *results.lock()).into_iter().collect();
    let results = results.ok_or_else(|| no_result(name))?;
    let filters = replies
        .iter()
        .enumerate()
        .map(|(copy, done)| FilterTiming {
            filter: name.to_string(),
            copy,
            node: copy,
            total: done.total,
            blocked_recv: done.usage.blocked_recv,
            blocked_send: done.usage.blocked_send,
        })
        .collect();
    let net = replies.iter().fold(NetSnapshot::default(), |net, done| {
        net.merged(&done.usage.sent)
    });
    let report = RunReport {
        elapsed,
        net,
        filters,
        faults,
    };
    Ok((results, cluster.telemetry_report(report, &io_before)))
}

fn no_result(name: &str) -> GraphStorageError {
    GraphStorageError::Unsupported(format!("a {name} copy finished without a result"))
}

thread_local! {
    /// The engine whose copy runs on this thread.
    static ENGINE: Cell<u64> = const { Cell::new(0) };
}

/// The number of the engine whose copy is running the calling program:
/// what a program names the scratch files it keeps by, so that concurrent
/// engines never share one.
pub(crate) fn engine() -> u64 {
    ENGINE.with(Cell::get)
}

/// A cluster's idle engines.
pub(crate) struct Engines {
    idle: Mutex<Vec<Engine>>,
    /// Engines started so far; the next one's number.
    started: AtomicU64,
}

impl Engines {
    pub(crate) fn new() -> Engines {
        Engines {
            idle: Mutex::new(Vec::new()),
            started: AtomicU64::new(0),
        }
    }

    fn take(&self) -> Option<Engine> {
        self.idle.lock().pop()
    }

    fn put(&self, engine: Engine) {
        self.idle.lock().push(engine);
    }

    /// Stops every idle engine and waits for its copies.
    pub(crate) fn shut_down(&self) {
        let idle = std::mem::take(&mut *self.idle.lock());
        drop(idle);
    }

    /// How many engines this cluster has started.
    #[cfg(test)]
    pub(crate) fn started(&self) -> u64 {
        // racecheck: a count, read after the calls that started engines.
        self.started.load(Ordering::Relaxed)
    }
}

/// One job, as each copy receives it.
struct Job {
    number: u32,
    name: Arc<str>,
    kinds: u64,
    program: Arc<Program>,
}

/// A copy's reply to a job it ran: its wall time and its ports' usage.
struct Done {
    total: Duration,
    usage: CopyUsage,
}

/// A running pipeline of `p` resident copies.
struct Engine {
    /// Per copy, where its jobs go; dropping them stops the copies.
    jobs: Vec<Sender<Job>>,
    /// Per copy, where it replies; disconnected once the copy has failed.
    replies: Vec<Receiver<Done>>,
    /// The pipeline's run: its report, or the error that ended it.
    run: Option<JoinHandle<Result<RunReport>>>,
    /// Jobs submitted so far; the last one's number.
    submitted: u32,
}

impl Engine {
    /// Builds the pipeline over `cluster`'s backends, with its telemetry
    /// and the stream deadline `timeout`, and starts it.
    fn start(
        cluster: &MssgCluster,
        name: &str,
        timeout: Duration,
        fault_plan: Option<&FaultPlan<FaultKind>>,
    ) -> Result<Engine> {
        let p = cluster.nodes();
        // racecheck: a counter that numbers engines; it orders no memory.
        let number = cluster.engines.started.fetch_add(1, Ordering::Relaxed) + 1;
        let mut g = GraphBuilder::new();
        g.channel_capacity(8192);
        g.telemetry(cluster.telemetry().clone());
        // A barrier blocks on a marker from every peer: with the deadline a
        // dead peer is a typed `Timeout`, not a hang.
        g.stream_timeout(timeout);
        // A crashed copy fails the engine, and the caller repeats the job.
        if let Some(plan) = fault_plan {
            g.fault_plan(plan.clone());
        }
        let (mut jobs, mut replies, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..p {
            let (job_tx, job_rx) = bounded(1);
            let (reply_tx, reply_rx) = bounded(1);
            jobs.push(job_tx);
            replies.push(reply_rx);
            ends.push(Some(Processor {
                backend: cluster.backend(i),
                engine: number,
                jobs: job_rx,
                replies: reply_tx,
            }));
        }
        // The runtime builds each copy once, so each end moves into its
        // copy: a copy that exits drops its reply sender.
        let filter = g.add_filter(name, (0..p).collect(), move |i| {
            Box::new(ends[i].take().expect("one copy per node"))
        })?;
        g.declare_ports(filter, &[PORT], &[PORT]);
        g.expect_consumers(filter, PORT, p);
        // Between two barriers a copy sends each peer one batch and one
        // marker. (Algorithm 2's extra chunks go out between non-blocking
        // polls and are bounded by the channel capacity.)
        g.send_window(filter, PORT, 2 * (p as u64 - 1));
        g.connect(filter, PORT, filter, PORT)?;
        // A graph the runtime refuses ends its run at once, with the
        // copies' ends: the first job finds the engine failed.
        let run = std::thread::Builder::new()
            .name(format!("superstep-{number}"))
            .spawn(move || g.run())
            .map_err(GraphStorageError::Io)?;
        Ok(Engine {
            jobs,
            replies,
            run: Some(run),
            submitted: 0,
        })
    }

    /// Runs `program` as the next job on every copy and waits for every
    /// copy's reply; `None` once a copy has failed.
    fn submit(&mut self, name: &str, kinds: u64, program: Arc<Program>) -> Option<Vec<Done>> {
        self.submitted = self.submitted.wrapping_add(1);
        let name: Arc<str> = Arc::from(name);
        for copy in &self.jobs {
            let job = Job {
                number: self.submitted,
                name: Arc::clone(&name),
                kinds,
                program: Arc::clone(&program),
            };
            copy.send(job).ok()?;
        }
        // A copy that fails exits without a reply, and its channel
        // disconnects: this wait ends as the copy's does.
        self.replies.iter().map(|copy| copy.recv().ok()).collect()
    }

    /// Stops the copies and waits for them: the pipeline's report, or the
    /// error that ended it — by the runtime's root-cause order.
    fn shut_down(&mut self) -> Result<RunReport> {
        self.jobs.clear();
        match self.run.take().map(JoinHandle::join) {
            Some(Ok(outcome)) => outcome,
            Some(Err(_)) => Err(GraphStorageError::FilterFailed(
                "a superstep engine's runtime panicked".into(),
            )),
            None => Err(GraphStorageError::Unsupported(
                "the superstep engine was already shut down".into(),
            )),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if self.run.is_some() {
            let _ = self.shut_down();
        }
    }
}

/// One copy of an engine: it runs jobs until the engine is stopped.
struct Processor {
    backend: SharedBackend,
    engine: u64,
    jobs: Receiver<Job>,
    replies: Sender<Done>,
}

impl Filter for Processor {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        ENGINE.with(|engine| engine.set(self.engine));
        // The idle wait has no deadline: an engine waits for its next job
        // as long as it lives, and stops when its job senders drop.
        while let Ok(job) = self.jobs.recv() {
            let (started, before) = (Instant::now(), ctx.usage());
            {
                let _span = ctx
                    .telemetry()
                    .tracer
                    .span("superstep.job")
                    .with_str("program", &job.name)
                    .with("job", job.number as u64);
                let mut peers = Peers::new(ctx, job.kinds, job.number)?;
                (job.program)(&mut peers, &self.backend)?;
            }
            let done = Done {
                total: started.elapsed(),
                usage: ctx.usage().since(&before),
            };
            if self.replies.send(done).is_err() {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::{bfs, components, degrees, msf};
    use datacutter::superstep::Phase;
    use datacutter::{FaultKind, FaultPlan};

    /// Ends round 1 of `phase` as a program reading `arity`-word records
    /// does; returns how many records arrived and the summed count.
    fn finish_round(
        peers: &mut Peers<'_>,
        phase: Phase,
        arity: usize,
        count: u64,
    ) -> Result<(usize, u64)> {
        let mut records = 0;
        let mut counted = || -> Result<()> {
            records += 1;
            Ok(())
        };
        let sum = match arity {
            1 => peers.finish::<1>(phase, 1, &[], count, |_| counted())?,
            2 => peers.finish::<2>(phase, 1, &[], count, |_| counted())?,
            _ => peers.finish::<4>(phase, 1, &[], count, |_| counted())?,
        };
        Ok((records, sum))
    }

    #[test]
    fn every_phase_of_every_program_refuses_malformed_messages() {
        // Every phase of every program: its kinds, and words per record.
        use {components as cc, degrees as deg};
        let rows = [
            ("bfs fringe", bfs::KINDS, bfs::LEVEL, 1),
            ("bfs tally", bfs::KINDS, bfs::TALLY, 1),
            ("components register", cc::KINDS, cc::REGISTER, 1),
            ("components frontier", cc::KINDS, cc::FRONTIER, 2),
            ("components propose", cc::KINDS, cc::PROPOSE, 2),
            ("components applied", cc::KINDS, cc::APPLIED, 1),
            ("msf register", msf::KINDS, msf::REGISTER, 1),
            ("msf candidate", msf::KINDS, msf::CANDIDATE, 4),
            ("msf winner", msf::KINDS, msf::WINNER, 4),
            ("degrees partials", deg::KINDS, deg::PARTIALS, 2),
        ];
        let cluster = cluster("rows");
        let deadline = DEADLINE;
        let mut failed = 0;
        for (what, kinds, phase, arity) in rows {
            // What copy 1 sends copy 0 in round 1: (fault, kind, words).
            let mut malformed = vec![
                ("0-word marker", phase.done, vec![]),
                ("2-word marker", phase.done, vec![5, 5]),
                ("unknown kind", kinds, vec![]),
            ];
            if arity > 1 {
                // Whole words are not enough: they must be whole records.
                malformed.push(("ragged records", phase.data, vec![3; arity + 1]));
            }
            for (fault, kind, words) in malformed {
                let err = run(&cluster, "rows", kinds, deadline, None, move |peers, _| {
                    if peers.me() == 1 {
                        return peers.send(0, kind, 1, &words);
                    }
                    finish_round(peers, phase, arity, 0).map(drop)
                })
                .unwrap_err();
                assert!(
                    matches!(err, GraphStorageError::Corrupt(_)),
                    "{what}, {fault}: {err}"
                );
                failed += 1;
                // Well formed, copy 1's two records and its count arrive —
                // on a new engine: the failed one was not kept.
                let (got, _) = run(&cluster, "rows", kinds, deadline, None, move |peers, _| {
                    let me = peers.me();
                    if me == 1 {
                        peers.send(0, phase.data, 1, &vec![3; 2 * arity])?;
                    }
                    finish_round(peers, phase, arity, 5 * me as u64)
                })
                .unwrap();
                assert_eq!(got, [(2, 5), (0, 5)], "{what}, after {fault}");
                assert_eq!(cluster.engines.started(), failed + 1, "{what}, {fault}");
            }
        }
    }

    fn cluster(tag: &str) -> MssgCluster {
        let dir = std::env::temp_dir().join(format!("core-superstep-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap()
    }

    #[test]
    fn a_job_never_counts_what_an_earlier_job_left_unread() {
        const PHASE: Phase = Phase::nth(0);
        let cluster = cluster("isolation");
        // Job 1: copy 1 sends copy 0 a round-1 marker copy 0 never reads.
        run(&cluster, "leave", 2, DEADLINE, None, |peers, _| {
            if peers.me() == 1 {
                peers.send(0, PHASE.done, 1, &[100])?;
            }
            Ok(())
        })
        .unwrap();
        // Job 2, on the same engine: round 1 again, and each copy's count
        // is summed once.
        for _ in 0..3 {
            let (sums, _) = run(&cluster, "count", 2, DEADLINE, None, |peers, _| {
                let count = peers.me() as u64 + 1;
                peers.finish::<1>(PHASE, 1, &[], count, |_| Ok(()))
            })
            .unwrap();
            assert_eq!(sums, [3, 3]);
        }
        assert_eq!(cluster.engines.started(), 1);
    }

    #[test]
    fn a_failed_job_ends_its_engine_and_the_next_call_succeeds() {
        const PHASE: Phase = Phase::nth(0);
        let cluster = cluster("failure");
        let sum = |cluster: &MssgCluster| {
            let (sums, _) = run(cluster, "count", 2, DEADLINE, None, |peers, _| {
                peers.finish::<1>(PHASE, 1, &[], 1, |_| Ok(()))
            })
            .unwrap();
            sums
        };
        assert_eq!(sum(&cluster), [2, 2]);
        // A program that panics on a resident engine.
        let err = run(&cluster, "panics", 2, DEADLINE, None, |peers, _| {
            assert_eq!(peers.me(), 0, "copy 1 fails");
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, GraphStorageError::FilterFailed(_)), "{err}");
        assert_eq!((sum(&cluster), cluster.engines.started()), (vec![2, 2], 2));
        // An injected panic, on an engine of the call's own: the peer
        // waiting on the dead copy's marker gives up at the call's deadline.
        let plan = FaultPlan::new().inject("chaos.1", 1, FaultKind::Panic);
        let err = run(
            &cluster,
            "chaos",
            2,
            Duration::from_secs(2),
            Some(&plan),
            |peers, _| peers.finish::<1>(PHASE, 1, &[], 1, |_| Ok(())),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                GraphStorageError::FilterFailed(_) | GraphStorageError::Timeout(_)
            ),
            "{err}"
        );
        assert_eq!((sum(&cluster), cluster.engines.started()), (vec![2, 2], 3));
    }

    #[test]
    fn dropping_a_cluster_stops_its_idle_engine() {
        let cluster = cluster("drop");
        run(&cluster, "idle", 1, DEADLINE, None, |_, _| Ok(())).unwrap();
        assert_eq!(cluster.engines.started(), 1);
        let started = std::time::Instant::now();
        drop(cluster);
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
