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
//! calls never share an engine.
//!
//! Every message carries its job's number, and a copy drops messages of
//! any other job: a job that ends early leaves no marker the next job
//! could count. A job that fails ends its engine at once: the failed copy
//! aborts the job on every peer ([`Peers::run`]) and returns its error,
//! which ends the pipeline's run, and the call reports that error — the
//! run's root cause. A failed engine never serves again.

use crate::bfs::Scratch;
use crate::cluster::{MssgCluster, SharedBackend};
use crate::telemetry::TelemetryReport;
use crossbeam::channel::{bounded, Receiver, Sender};
use datacutter::superstep::{Peers, PORT};
use datacutter::{
    poll, CopyUsage, Filter, FilterContext, FilterTiming, GraphBuilder, NetSnapshot, RunReport,
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

/// The stream deadline of every pipeline: the engines', and what
/// `IngestOptions` defaults to. It ends the part of a copy whose peer
/// wedged without failing.
pub(crate) const DEADLINE: Duration = Duration::from_secs(120);

/// What an engine's copies run: a program whose result its closure has
/// already put in the copy's slot.
type Program = dyn Fn(&mut Peers<'_>, &SharedBackend, &mut Scratch) -> Result<()> + Send + Sync;

/// Runs `program` on every back-end node, the copies joined all-to-all,
/// and returns what each copy computed, by copy index, with the report of
/// this job alone. `kinds` is how many message kinds the program uses
/// (`0..kinds`). Each copy lends the program its [`Scratch`]; a program
/// that uses it resets what it takes.
pub(crate) fn run<T: Send + 'static>(
    cluster: &MssgCluster,
    name: &str,
    kinds: u64,
    program: impl Fn(&mut Peers<'_>, &SharedBackend, &mut Scratch) -> Result<T> + Send + Sync + 'static,
) -> Result<(Vec<T>, TelemetryReport)> {
    let p = cluster.nodes();
    let results = Arc::new(Mutex::new((0..p).map(|_| None).collect::<Vec<_>>()));
    let slots = Arc::clone(&results);
    let job: Arc<Program> = Arc::new(move |peers, backend, scratch| {
        let result = program(peers, backend, scratch)?;
        slots.lock()[peers.me()] = Some(result);
        Ok(())
    });
    let mut engine = match cluster.engines.take() {
        Some(engine) => engine,
        None => Engine::start(cluster)?,
    };
    let io_before = cluster.io_snapshot();
    let started = Instant::now();
    let Some(replies) = engine.submit(name, kinds, job) else {
        // A copy failed, which ended the run: its error says why.
        return Err(engine.shut_down().unwrap_or_else(|| no_result(name)));
    };
    let elapsed = started.elapsed();
    cluster.engines.put(engine);
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
        faults: Vec::new(),
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
    /// and the stream deadline [`DEADLINE`], and starts it.
    fn start(cluster: &MssgCluster) -> Result<Engine> {
        let p = cluster.nodes();
        // racecheck: a counter that numbers engines; it orders no memory.
        let number = cluster.engines.started.fetch_add(1, Ordering::Relaxed) + 1;
        let mut g = GraphBuilder::new();
        g.channel_capacity(8192);
        g.telemetry(cluster.telemetry().clone());
        // A barrier blocks on a marker from every peer. A peer that fails
        // aborts the job; with the deadline, one that wedges is a typed
        // `Timeout`, not a hang.
        g.stream_timeout(DEADLINE);
        let (mut jobs, mut replies, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..p {
            let (job_tx, job_rx) = bounded(1);
            let (reply_tx, reply_rx) = bounded(1);
            jobs.push(job_tx);
            replies.push(reply_rx);
            ends.push(Some(Processor {
                backend: cluster.backend(i),
                scratch: Scratch::default(),
                engine: number,
                jobs: job_rx,
                replies: reply_tx,
            }));
        }
        // The runtime builds each copy once, so each end moves into its
        // copy: a copy that exits drops its reply sender.
        let filter = g.add_filter("superstep", (0..p).collect(), move |i| {
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
        // Polled first: a copy's reply mostly lands within the poll. A copy
        // that fails exits without a reply, and its channel disconnects:
        // this wait ends as the copy's does, polling or parked.
        self.replies
            .iter()
            .map(|copy| poll::recv(copy).ok())
            .collect()
    }

    /// Stops the copies and waits for them: the error that ended the
    /// pipeline's run, if one did — by the runtime's root-cause order.
    fn shut_down(&mut self) -> Option<GraphStorageError> {
        self.jobs.clear();
        match self.run.take()?.join() {
            Ok(outcome) => outcome.err(),
            Err(_) => Some(GraphStorageError::FilterFailed(
                "a superstep engine's runtime panicked".into(),
            )),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// One copy of an engine: it runs jobs until the engine is stopped.
struct Processor {
    backend: SharedBackend,
    /// What the copy lends each job; it goes with a failed engine.
    scratch: Scratch,
    engine: u64,
    jobs: Receiver<Job>,
    replies: Sender<Done>,
}

impl Filter for Processor {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        ENGINE.with(|engine| engine.set(self.engine));
        // The idle wait has no deadline: an engine waits for its next job
        // as long as it lives, and stops when its job senders drop. It
        // polls first: a closed loop's next job follows its reply by a few
        // µs, and a longer gap costs one poll and then a parked wait.
        while let Ok(job) = poll::recv(&self.jobs) {
            let (started, before) = (Instant::now(), ctx.usage());
            {
                let _span = ctx
                    .telemetry()
                    .tracer
                    .span("superstep.job")
                    .with_str("program", &job.name)
                    .with("job", job.number as u64);
                Peers::new(ctx, job.kinds, job.number)?
                    .run(|peers| (job.program)(peers, &self.backend, &mut self.scratch))?;
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

    impl Engines {
        /// How many engines this cluster has started.
        pub(crate) fn started(&self) -> u64 {
            // racecheck: a count, read after the calls that started engines.
            self.started.load(Ordering::Relaxed)
        }
    }

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
        for nodes in [2, 3] {
            let cluster = cluster(&format!("rows-{nodes}"), nodes);
            let mut failed = 0;
            for (what, kinds, phase, arity) in rows {
                // What copy 1 does in round 1 while its peers wait at the
                // phase's barrier: send copy 0 a malformed (kind, words),
                // or fail.
                let mut inputs = vec![
                    ("0-word marker", Some((phase.done, vec![]))),
                    ("2-word marker", Some((phase.done, vec![5, 5]))),
                    ("unknown kind", Some((kinds, vec![]))),
                    ("copy 1 fails", None),
                ];
                if arity > 1 {
                    // Whole words are not enough: they must be whole records.
                    let ragged = (phase.data, vec![3; arity + 1]);
                    inputs.push(("ragged records", Some(ragged)));
                }
                for (fault, malformed) in inputs {
                    let fails = malformed.is_none();
                    let started = Instant::now();
                    let err = run(&cluster, "rows", kinds, move |peers, _, _| {
                        if peers.me() != 1 {
                            return finish_round(peers, phase, arity, 0).map(drop);
                        }
                        match &malformed {
                            Some((kind, words)) => peers.send(0, *kind, 1, words),
                            None => Err(GraphStorageError::corrupt("copy 1's own error")),
                        }
                    })
                    .unwrap_err();
                    let what = format!("{what}, {fault}, p = {nodes}: {err}");
                    assert!(matches!(err, GraphStorageError::Corrupt(_)), "{what}");
                    assert_eq!(err.to_string().contains("copy 1's own"), fails, "{what}");
                    // Every peer's part ended at once, not at the deadline.
                    assert!(started.elapsed() < Duration::from_secs(1), "{what}");
                    failed += 1;
                    // Well formed, copy 1's two records and every count
                    // arrive — on a new engine: the failed one was not kept.
                    let (got, _) = run(&cluster, "rows", kinds, move |peers, _, _| {
                        let me = peers.me();
                        if me == 1 {
                            peers.send(0, phase.data, 1, &vec![3; 2 * arity])?;
                        }
                        finish_round(peers, phase, arity, 5 * me as u64)
                    })
                    .unwrap();
                    let sum = 5 * (0..nodes as u64).sum::<u64>();
                    let want: Vec<_> = (0..nodes).map(|me| (2 * (me == 0) as usize, sum)).collect();
                    assert_eq!(got, want, "{what}");
                    assert_eq!(cluster.engines.started(), failed + 1, "{what}");
                }
            }
        }
    }

    fn cluster(tag: &str, nodes: usize) -> MssgCluster {
        let dir = std::env::temp_dir().join(format!("core-superstep-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MssgCluster::new(
            &dir,
            nodes,
            BackendKind::HashMap,
            &BackendOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn a_job_never_counts_what_an_earlier_job_left_unread() {
        const PHASE: Phase = Phase::nth(0);
        let cluster = cluster("isolation", 2);
        // Job 1: copy 1 sends copy 0 a round-1 marker copy 0 never reads.
        run(&cluster, "leave", 2, |peers, _, _| {
            if peers.me() == 1 {
                peers.send(0, PHASE.done, 1, &[100])?;
            }
            Ok(())
        })
        .unwrap();
        // Job 2, on the same engine: round 1 again, and each copy's count
        // is summed once.
        for _ in 0..3 {
            let (sums, _) = run(&cluster, "count", 2, |peers, _, _| {
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
        let cluster = cluster("failure", 2);
        let sum = |cluster: &MssgCluster| {
            let (sums, _) = run(cluster, "count", 2, |peers, _, _| {
                peers.finish::<1>(PHASE, 1, &[], 1, |_| Ok(()))
            })
            .unwrap();
            sums
        };
        assert_eq!(sum(&cluster), [2, 2]);
        // Copy 1 panics while copy 0 waits for its marker: the call ends
        // at once, with the panic.
        let started = Instant::now();
        let err = run(&cluster, "panics", 2, |peers, _, _| {
            assert_eq!(peers.me(), 0, "copy 1 fails");
            peers.finish::<1>(PHASE, 1, &[], 1, |_| Ok(()))
        })
        .unwrap_err();
        assert!(matches!(err, GraphStorageError::FilterFailed(_)), "{err}");
        assert!(err.to_string().contains("copy 1 fails"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!((sum(&cluster), cluster.engines.started()), (vec![2, 2], 2));
    }

    /// CPU time this thread has run, from the scheduler's own account.
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
        let ns = stat.split_whitespace().next().and_then(|f| f.parse().ok());
        Duration::from_nanos(ns.expect("a run time in ns"))
    }

    #[test]
    fn an_idle_engine_parks_after_its_poll() {
        // Each copy reads its CPU clock as the last step of one job and
        // the first step of the next, 50 ms later. A copy polls for its
        // next job only briefly and then parks: it burns almost no CPU
        // over the gap.
        let cluster = cluster("idle-cpu", 2);
        let (ends, _) = run(&cluster, "before", 1, |_, _, _| Ok(thread_cpu())).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let (starts, _) = run(&cluster, "after", 1, |_, _, _| Ok(thread_cpu())).unwrap();
        assert_eq!(cluster.engines.started(), 1, "both jobs ran on one engine");
        for (copy, (end, start)) in ends.iter().zip(&starts).enumerate() {
            let cpu = *start - *end;
            assert!(
                cpu < Duration::from_millis(2),
                "copy {copy}: {cpu:?} of CPU over a 50 ms idle gap"
            );
        }
    }

    #[test]
    fn dropping_a_cluster_stops_its_idle_engine() {
        let cluster = cluster("drop", 2);
        run(&cluster, "idle", 1, |_, _, _| Ok(())).unwrap();
        assert_eq!(cluster.engines.started(), 1);
        let started = std::time::Instant::now();
        drop(cluster);
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
