//! The round protocol of bulk-synchronous filter programs (DESIGN.md
//! §10.6).
//!
//! `p` copies of one filter, joined all-to-all by a [`PORT`] stream, advance
//! through *phases*. In a phase a copy sends records to the copies that own
//! them, tells every peer it is done with a marker carrying one count, and
//! waits for the markers of the other `p − 1`. This module owns what that
//! takes — the message tag, the exchange, the barrier with its stash of
//! early messages, and the record codec — and a program is code over a
//! [`Peers`]. Its two users are `mssg-core`'s analyses (BFS, components,
//! MSF, degrees) and `mssg-net`'s distributed workload, so the protocol
//! that crosses a process boundary is the one the analyses ship.
//!
//! A copy sends itself nothing: what it owns it handles in place.
//!
//! Copies may run one program after another on the same streams, as
//! `mssg-core`'s resident engines do. Each run is a *job* with a number
//! that every message carries in its tag, and a copy drops any message
//! of another job unread: a job that ends early (BFS's `FOUND`) may leave
//! its peers' last markers in the input, and the next job must not count
//! them. A one-shot pipeline is job 0.
//! A copy that fails its job tells every peer, which ends theirs at once
//! ([`Peers::run`]).

use crate::filter::{hung_up, is_hung_up};
use crate::{DataBuffer, FilterContext};
use mssg_obs::Telemetry;
use mssg_types::{GraphStorageError, Result};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The port a program's copies exchange messages on, in and out.
pub const PORT: &str = "peers";

/// The most copies a program may have: the sender field's range.
pub const MAX_COPIES: usize = 1 << 12;

/// The kind of the message a failing copy sends its peers: its job is
/// over. No program may use it for a phase.
pub const ABORT: u64 = 0xff;

/// Message tag: `[kind: 8 bits][round: 32 bits][job: 12 bits][sender: 12
/// bits]`. Only the low 12 bits of the job number are carried. That is
/// enough: a copy reads a peer's messages in the order they were sent, so
/// the leftovers of one job are read (and dropped) by the first barrier of
/// the next.
pub fn tag(kind: u64, round: u32, job: u32, sender: usize) -> u64 {
    (kind << 56) | ((round as u64) << 24) | (job_bits(job) << 12) | sender as u64
}

fn tag_kind(t: u64) -> u64 {
    t >> 56
}

fn tag_round(t: u64) -> u32 {
    ((t >> 24) & 0xffff_ffff) as u32
}

fn tag_job(t: u64) -> u64 {
    (t >> 12) & 0xfff
}

fn job_bits(job: u32) -> u64 {
    job as u64 & 0xfff
}

/// One phase of a program: the kind of its record messages and the kind
/// of the marker that ends it.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Kind of the phase's record messages.
    pub data: u64,
    /// Kind of the marker that ends the phase.
    pub done: u64,
}

impl Phase {
    /// A program's `n`-th phase: kinds `2n` and `2n + 1`.
    pub const fn nth(n: u64) -> Phase {
        Phase {
            data: 2 * n,
            done: 2 * n + 1,
        }
    }
}

/// How a barrier ended.
pub enum Barrier<B> {
    /// Every peer's marker arrived; the sum of the counts they carried.
    Complete(u64),
    /// The handler ended the program (BFS: a peer met the other side).
    Stopped(B),
}

/// What has arrived at a copy: the markers of the phase it is in, and the
/// messages of phases it has not reached.
struct Inbox {
    kinds: u64,
    job: u32,
    done: usize,
    sum: u64,
    stash: Vec<DataBuffer>,
}

impl Inbox {
    fn new(kinds: u64, job: u32) -> Inbox {
        Inbox {
            kinds,
            job,
            done: 0,
            sum: 0,
            stash: Vec::new(),
        }
    }

    /// Takes one message at a copy in `phase` of `round`: a message of
    /// another job is dropped, an abort ends the job, that phase's marker
    /// is counted, its records go to `on_data`, everything else waits in
    /// the stash.
    fn accept<B>(
        &mut self,
        phase: Phase,
        round: u32,
        msg: DataBuffer,
        on_data: &mut impl FnMut(&DataBuffer) -> Result<ControlFlow<B>>,
    ) -> Result<ControlFlow<B>> {
        if tag_job(msg.tag) != job_bits(self.job) {
            return Ok(ControlFlow::Continue(()));
        }
        let (kind, of_round) = (tag_kind(msg.tag), tag_round(msg.tag));
        if kind == ABORT {
            let failed = msg.tag & 0xfff;
            let job = self.job;
            return Err(hung_up(&format!(
                "copy {failed} failed job {job}, and its peer"
            )));
        }
        if kind >= self.kinds {
            return Err(GraphStorageError::corrupt(format!(
                "unknown message kind {kind}"
            )));
        }
        if of_round == round && kind == phase.data {
            return on_data(&msg);
        }
        if of_round == round && kind == phase.done {
            self.sum = self.sum.saturating_add(one_word(&msg)?);
            self.done += 1;
        } else {
            self.stash.push(msg);
        }
        Ok(ControlFlow::Continue(()))
    }
}

/// A copy's end of the exchange with its `p − 1` peers.
pub struct Peers<'a> {
    ctx: &'a mut FilterContext,
    inbox: Inbox,
}

impl<'a> Peers<'a> {
    /// The exchange of the copy `ctx` belongs to, in job `job`, for a
    /// program whose messages are of kinds `0..kinds`; any other kind is
    /// `Corrupt`. A program of more than [`MAX_COPIES`] copies is refused.
    pub fn new(ctx: &'a mut FilterContext, kinds: u64, job: u32) -> Result<Peers<'a>> {
        if ctx.copies > MAX_COPIES {
            return Err(GraphStorageError::Unsupported(format!(
                "{} copies; a superstep program has at most {MAX_COPIES}",
                ctx.copies
            )));
        }
        Ok(Peers {
            ctx,
            inbox: Inbox::new(kinds, job),
        })
    }

    /// Runs `program` as this copy's part of the job. If it fails — returns
    /// an error or panics — every peer is sent an [`ABORT`] before the
    /// failure goes on as it was; a copy that stopped because a peer had
    /// failed tells nobody.
    pub fn run<T>(&mut self, program: impl FnOnce(&mut Peers<'a>) -> Result<T>) -> Result<T> {
        let outcome = catch_unwind(AssertUnwindSafe(|| program(self)));
        let failed = match &outcome {
            Ok(Ok(_)) => false,
            Ok(Err(err)) => !is_hung_up(err),
            Err(_panic) => true,
        };
        if failed {
            // A control message on the endpoints themselves, not program
            // traffic, and it does not wait: a peer whose input is full is
            // not at a barrier, and is not told.
            let abort = DataBuffer::control(self.tag(ABORT, 0));
            let senders = self.ctx.outputs.get(PORT).map_or(&[][..], |p| &p.senders);
            for (to, peer) in senders.iter().enumerate() {
                if to != self.ctx.copy_index {
                    let _ = peer.send(abort.clone(), Some(Duration::ZERO));
                }
            }
        }
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// This copy's index.
    pub fn me(&self) -> usize {
        self.ctx.copy_index
    }

    /// `p`: this copy and its peers.
    pub fn copies(&self) -> usize {
        self.ctx.copies
    }

    /// The run's telemetry bundle.
    pub fn telemetry(&self) -> &Telemetry {
        self.ctx.telemetry()
    }

    /// Sends `words` to the peer `to`.
    pub fn send(&mut self, to: usize, kind: u64, round: u32, words: &[u64]) -> Result<()> {
        debug_assert_ne!(to, self.me(), "a copy sends itself nothing");
        let buf = DataBuffer::from_words(self.tag(kind, round), words);
        self.post(to, buf)
    }

    /// Sends `words` to every peer, as one shared buffer.
    pub fn send_all(&mut self, kind: u64, round: u32, words: &[u64]) -> Result<()> {
        let me = self.me();
        let buf = DataBuffer::from_words(self.tag(kind, round), words);
        for to in (0..self.copies()).filter(|&to| to != me) {
            self.post(to, buf.clone())?;
        }
        Ok(())
    }

    /// Sends every peer that has a batch its batch and empties it; returns
    /// this copy's own.
    pub fn scatter(&mut self, kind: u64, round: u32, batches: &mut [Vec<u64>]) -> Result<Vec<u64>> {
        let me = self.me();
        for (to, batch) in batches.iter_mut().enumerate() {
            if to != me && !batch.is_empty() {
                self.send(to, kind, round, batch)?;
                batch.clear();
            }
        }
        Ok(std::mem::take(&mut batches[me]))
    }

    fn tag(&self, kind: u64, round: u32) -> u64 {
        tag(kind, round, self.inbox.job, self.me())
    }

    fn post(&mut self, to: usize, buf: DataBuffer) -> Result<()> {
        match self.ctx.output(PORT)?.send_to(to, buf) {
            // The receiver has exited: it met the other side of a search,
            // or it failed and the run reports that. Nobody waits for this.
            Err(GraphStorageError::Unsupported(m)) if m.contains("hung up") => Ok(()),
            sent => sent,
        }
    }

    /// Takes the messages that are waiting, without blocking — Algorithm 2
    /// overlaps them with expansion. Markers taken here count towards the
    /// round's [`barrier`](Peers::barrier).
    pub fn poll<B>(
        &mut self,
        phase: Phase,
        round: u32,
        on_data: &mut impl FnMut(&DataBuffer) -> Result<ControlFlow<B>>,
    ) -> Result<ControlFlow<B>> {
        while let Some(msg) = self.ctx.input(PORT)?.try_recv() {
            if let ControlFlow::Break(b) = self.inbox.accept(phase, round, msg, on_data)? {
                return Ok(ControlFlow::Break(b));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Blocks until every peer's marker for `phase` of `round` is in,
    /// handing that phase's record messages to `on_data` as they arrive —
    /// first the ones that came early and waited in the stash. Each wait
    /// polls before it parks ([`crate::poll`]). A peer's
    /// [`ABORT`] ends it; so does an input that closes, every peer gone, as
    /// a `Net` error. In process a copy's own sender keeps its input open.
    pub fn barrier<B>(
        &mut self,
        phase: Phase,
        round: u32,
        on_data: &mut impl FnMut(&DataBuffer) -> Result<ControlFlow<B>>,
    ) -> Result<Barrier<B>> {
        for msg in std::mem::take(&mut self.inbox.stash) {
            if let ControlFlow::Break(b) = self.inbox.accept(phase, round, msg, on_data)? {
                return Ok(Barrier::Stopped(b));
            }
        }
        while self.inbox.done + 1 < self.copies() {
            let Some(msg) = self.ctx.input(PORT)?.recv_after_poll()? else {
                return Err(GraphStorageError::Net(format!(
                    "peers exited before round {round} ended"
                )));
            };
            if let ControlFlow::Break(b) = self.inbox.accept(phase, round, msg, on_data)? {
                return Ok(Barrier::Stopped(b));
            }
        }
        self.inbox.done = 0;
        Ok(Barrier::Complete(std::mem::take(&mut self.inbox.sum)))
    }

    /// Ends a phase whose records are `N` words: tells every peer this
    /// copy is done, with `count`; hands `on_record` this copy's `own`
    /// records and then every peer's, until their markers are in; returns
    /// the counts of all `p` copies, summed.
    pub fn finish<const N: usize>(
        &mut self,
        phase: Phase,
        round: u32,
        own: &[u64],
        count: u64,
        mut on_record: impl FnMut([u64; N]) -> Result<()>,
    ) -> Result<u64> {
        self.send_all(phase.done, round, &[count])?;
        for record in records_of(own.iter().copied())? {
            on_record(record)?;
        }
        let mut on_data = |msg: &DataBuffer| {
            for record in records(msg)? {
                on_record(record)?;
            }
            Ok(ControlFlow::<Infallible>::Continue(()))
        };
        match self.barrier(phase, round, &mut on_data)? {
            Barrier::Complete(sum) => Ok(sum.saturating_add(count)),
            Barrier::Stopped(never) => match never {},
        }
    }
}

/// `words` as `N`-word records; a count that is not whole records is
/// `Corrupt`.
fn records_of<const N: usize>(
    mut words: impl ExactSizeIterator<Item = u64>,
) -> Result<impl Iterator<Item = [u64; N]>> {
    if !words.len().is_multiple_of(N) {
        return Err(GraphStorageError::corrupt(format!(
            "{} words are not {N}-word records",
            words.len()
        )));
    }
    // The length was checked: `words` never runs dry inside a record.
    Ok(
        (0..words.len() / N)
            .map(move |_| std::array::from_fn(|_| words.next().unwrap_or_default())),
    )
}

/// A peer's payload as `N`-word records, read in place.
pub fn records<const N: usize>(msg: &DataBuffer) -> Result<impl Iterator<Item = [u64; N]> + '_> {
    records_of(msg.try_words()?)
}

/// A peer's payload that must be exactly one word: a marker's count.
pub fn one_word(msg: &DataBuffer) -> Result<u64> {
    let mut words = msg.try_words()?;
    match (words.next(), words.next()) {
        (Some(word), None) => Ok(word),
        _ => Err(GraphStorageError::corrupt(format!(
            "a payload of {} bytes where one word belongs",
            msg.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Filter, GraphBuilder};
    use parking_lot::Mutex;
    use std::cell::Cell;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    type Program<T> = dyn Fn(&mut Peers<'_>) -> Result<T> + Send + Sync;

    struct Copy<T> {
        program: Arc<Program<T>>,
        results: Arc<Mutex<Vec<Option<T>>>>,
    }

    impl<T: Send> Filter for Copy<T> {
        fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
            let me = ctx.copy_index;
            let result = Peers::new(ctx, 4, 0)?.run(|peers| (self.program)(peers))?;
            self.results.lock()[me] = Some(result);
            Ok(())
        }
    }

    /// Runs `program` on two copies of a two-phase program (kinds 0 to 3)
    /// with a 2 s stream deadline; returns what each computed, by copy index.
    fn run_pair<T: Send + 'static>(
        program: impl Fn(&mut Peers<'_>) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        let program: Arc<Program<T>> = Arc::new(program);
        let results = Arc::new(Mutex::new(vec![None, None]));
        let slots = Arc::clone(&results);
        let mut g = GraphBuilder::new();
        g.stream_timeout(Duration::from_secs(2));
        let f = g.add_filter("pair", vec![0, 1], move |_| {
            Box::new(Copy {
                program: Arc::clone(&program),
                results: Arc::clone(&slots),
            })
        })?;
        g.connect(f, PORT, f, PORT)?;
        g.run()?;
        let results = std::mem::take(&mut *results.lock());
        Ok(results.into_iter().map(|r| r.expect("ran")).collect())
    }

    #[test]
    fn malformed_peer_messages_are_typed_errors() {
        // Programs of up to four kinds, a phase of each, records of 1, 2
        // and 4 words.
        for (kinds, phase) in [(2, Phase::nth(0)), (3, Phase::nth(0)), (4, Phase::nth(1))] {
            for arity in [1, 2, 4] {
                let what = format!("{kinds} kinds, phase {phase:?}, {arity}-word records");
                let mut inbox = Inbox::new(kinds, 0);
                let delivered = Cell::new(0);
                let mut read = |msg: &DataBuffer| {
                    delivered.set(match arity {
                        1 => records::<1>(msg)?.count(),
                        2 => records::<2>(msg)?.count(),
                        _ => records::<4>(msg)?.count(),
                    });
                    Ok(ControlFlow::<()>::Continue(()))
                };
                let (data, done) = (tag(phase.data, 1, 0, 1), tag(phase.done, 1, 0, 1));
                let mut malformed = vec![
                    ("0-byte marker", DataBuffer::control(done)),
                    ("2-word marker", DataBuffer::from_words(done, &[0, 0])),
                    ("7-byte marker", DataBuffer::new(done, vec![0; 7])),
                    ("7-byte records", DataBuffer::new(data, vec![0; 7])),
                    ("unknown kind", DataBuffer::control(tag(kinds, 1, 0, 1))),
                ];
                if arity > 1 {
                    // Whole words are not enough: they must be whole records.
                    let ragged = DataBuffer::from_words(data, &vec![0; arity + 1]);
                    malformed.push(("ragged records", ragged));
                }
                for (fault, msg) in malformed {
                    let err = inbox.accept(phase, 1, msg, &mut read).unwrap_err();
                    assert!(
                        matches!(err, GraphStorageError::Corrupt(_)),
                        "{what}, {fault}: {err}"
                    );
                }
                // Nothing malformed was counted or kept, and a well-formed
                // message still is.
                assert_eq!((inbox.done, inbox.stash.len()), (0, 0), "{what}");
                let two = DataBuffer::from_words(data, &vec![3; 2 * arity]);
                let marker = DataBuffer::from_words(done, &[5]);
                for msg in [two, marker] {
                    assert!(inbox
                        .accept(phase, 1, msg, &mut read)
                        .unwrap()
                        .is_continue());
                }
                assert_eq!(
                    (delivered.get(), inbox.done, inbox.sum),
                    (2, 1, 5),
                    "{what}"
                );
            }
        }
        // BFS's FOUND carries the vertex where the sides met, one word.
        for words in [&[][..], &[3, 3]] {
            let found = DataBuffer::from_words(tag(2, 1, 0, 1), words);
            let err = one_word(&found).unwrap_err();
            assert!(matches!(err, GraphStorageError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn messages_of_another_job_are_dropped_unread() {
        const PHASE: Phase = Phase::nth(0);
        let mut inbox = Inbox::new(2, 7);
        let mut read = |_: &DataBuffer| Ok(ControlFlow::<()>::Continue(()));
        // Leftovers of other jobs — a marker, a record, a marker of a later
        // round, an unknown kind, a malformed marker and an abort — are
        // neither counted, nor stashed, nor decoded, nor end this job.
        for job in [0, 6, 8] {
            let msgs = [
                DataBuffer::from_words(tag(PHASE.done, 1, job, 1), &[5]),
                DataBuffer::from_words(tag(PHASE.data, 1, job, 1), &[9]),
                DataBuffer::from_words(tag(PHASE.done, 2, job, 1), &[5]),
                DataBuffer::control(tag(9, 1, job, 1)),
                DataBuffer::new(tag(PHASE.done, 1, job, 1), vec![0; 7]),
                DataBuffer::control(tag(ABORT, 0, job, 1)),
            ];
            for msg in msgs {
                let mut never = |_: &DataBuffer| -> Result<ControlFlow<()>> {
                    panic!("a record of job {job} reached the handler")
                };
                assert!(inbox
                    .accept(PHASE, 1, msg, &mut never)
                    .unwrap()
                    .is_continue());
            }
        }
        assert_eq!((inbox.done, inbox.sum, inbox.stash.len()), (0, 0, 0));
        // The job's own marker counts; tags carry the number mod 4096.
        let own = DataBuffer::from_words(tag(PHASE.done, 1, 7 + 4096, 1), &[5]);
        assert!(inbox
            .accept(PHASE, 1, own, &mut read)
            .unwrap()
            .is_continue());
        assert_eq!((inbox.done, inbox.sum), (1, 5));
    }

    #[test]
    fn an_abort_ends_its_job_in_any_phase_and_round() {
        let mut never =
            |_: &DataBuffer| -> Result<ControlFlow<()>> { panic!("an abort reached the handler") };
        for (phase, round) in [(Phase::nth(0), 1), (Phase::nth(1), 1), (Phase::nth(0), 9)] {
            // Whatever the copy has taken in so far, and whatever round
            // the abort names.
            let mut inbox = Inbox::new(4, 7);
            let marker = DataBuffer::from_words(tag(phase.done, round, 7, 2), &[5]);
            assert!(inbox
                .accept(phase, round, marker, &mut never)
                .unwrap()
                .is_continue());
            let abort = DataBuffer::control(tag(ABORT, 0, 7, 1));
            let err = inbox.accept(phase, round, abort, &mut never).unwrap_err();
            assert!(is_hung_up(&err), "{err}");
            assert!(err.to_string().contains("copy 1 failed job 7"), "{err}");
        }
    }

    #[test]
    fn a_failed_copy_ends_its_peers_part_at_once() {
        const PHASE: Phase = Phase::nth(0);
        // Copy 1 fails — an error, or a panic — while copy 0 waits for its
        // marker, in a barrier or in `poll`. The run reports copy 1's own
        // failure, long before the 2 s deadline.
        for panics in [false, true] {
            for polls in [false, true] {
                let started = Instant::now();
                let err = run_pair(move |peers| {
                    if peers.me() == 1 {
                        assert!(!panics, "copy 1 panics");
                        return Err(GraphStorageError::corrupt("copy 1's own error"));
                    }
                    if polls {
                        let mut read = |_: &DataBuffer| Ok(ControlFlow::<()>::Continue(()));
                        while started.elapsed() < Duration::from_secs(2)
                            && peers.poll(PHASE, 1, &mut read)?.is_continue()
                        {
                            std::thread::yield_now();
                        }
                    }
                    peers.finish::<1>(PHASE, 1, &[], 0, |_| Ok(()))
                })
                .unwrap_err();
                let what = format!("panics: {panics}, polls: {polls}: {err}");
                match &err {
                    GraphStorageError::FilterFailed(m) => {
                        assert!(panics && m.contains("copy 1 panics"), "{what}")
                    }
                    GraphStorageError::Corrupt(m) => {
                        assert!(!panics && m.contains("own error"), "{what}")
                    }
                    _ => panic!("{what}"),
                }
                assert!(started.elapsed() < Duration::from_secs(1), "{what}");
            }
        }
    }

    #[test]
    fn early_messages_wait_for_their_round_and_a_departed_peer_is_a_typed_error() {
        const PHASE: Phase = Phase::nth(0);
        // Copy 1 runs ahead: a round-2 record of its is on the wire before
        // its round-1 marker. Copy 0 must keep it through round 1 and see
        // it once, in round 2.
        let seen = run_pair(|peers| {
            let mut seen = [Vec::new(), Vec::new()];
            if peers.me() == 1 {
                peers.send(0, PHASE.data, 2, &[7])?;
            }
            for round in [1, 2] {
                peers.finish::<1>(PHASE, round, &[], 0, |[word]| {
                    seen[round as usize - 1].push(word);
                    Ok(())
                })?;
            }
            Ok(seen)
        })
        .unwrap();
        assert_eq!(seen[0], [vec![], vec![7]]);
        assert_eq!(seen[1], [vec![], vec![]]);

        // Copy 1 leaves without its marker, and without failing. In
        // process, copy 0's own sender keeps its input open, so the
        // deadline reports it.
        let start = Instant::now();
        let err = run_pair(|peers| {
            if peers.me() == 0 {
                peers.finish::<1>(PHASE, 1, &[], 0, |_| Ok(()))?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                GraphStorageError::Timeout(_) | GraphStorageError::Net(_)
            ),
            "{err}"
        );
        assert!(start.elapsed() < Duration::from_secs(30), "no hang");
    }

    /// CPU time this thread has run, from the scheduler's own account.
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
        let ns = stat.split_whitespace().next().and_then(|f| f.parse().ok());
        Duration::from_nanos(ns.expect("a run time in ns"))
    }

    #[test]
    fn a_barrier_wait_parks_after_its_poll_and_is_blocked_time() {
        const PHASE: Phase = Phase::nth(0);
        // Copy 1 sends its marker 20 ms after copy 0 starts to wait for
        // it. Copy 0 polls for its budget and then parks: it burns almost
        // no CPU over the wait, and the whole wait is blocked time of its
        // job.
        let start = Arc::new(std::sync::Barrier::new(2));
        let waits = run_pair(move |peers| {
            start.wait();
            if peers.me() == 1 {
                std::thread::sleep(Duration::from_millis(20));
            }
            let (cpu, usage) = (thread_cpu(), peers.ctx.usage());
            peers.finish::<1>(PHASE, 1, &[], 0, |_| Ok(()))?;
            Ok((thread_cpu() - cpu, peers.ctx.usage().since(&usage)))
        })
        .unwrap();
        let (cpu, usage) = waits[0];
        assert!(
            cpu < Duration::from_millis(2),
            "{cpu:?} of CPU over a 20 ms wait"
        );
        assert!(
            usage.blocked_recv >= Duration::from_millis(19),
            "{:?} blocked of a 20 ms wait",
            usage.blocked_recv
        );
    }

    #[test]
    fn a_message_that_arrives_during_the_poll_keeps_the_protocol() {
        const PHASE: Phase = Phase::nth(0);
        const NEXT: Phase = Phase::nth(1);
        // Both copies start together, so copy 1's traffic lands while copy
        // 0 polls at its first barrier: a record of the next phase, the
        // marker, then (copy 1 fails) an abort. The record waits in the
        // stash for its own phase; the abort ends that phase at once.
        let start = Arc::new(std::sync::Barrier::new(2));
        let seen = Arc::new(Mutex::new(None));
        let seen_copy = Arc::clone(&seen);
        let err = run_pair(move |peers| {
            start.wait();
            if peers.me() == 1 {
                peers.send(0, NEXT.data, 1, &[7])?;
                peers.send_all(PHASE.done, 1, &[0])?;
                return Err(GraphStorageError::corrupt("copy 1's own error"));
            }
            let started = Instant::now();
            let mut records = [Vec::new(), Vec::new()];
            peers.finish::<1>(PHASE, 1, &[], 0, |[word]| {
                records[0].push(word);
                Ok(())
            })?;
            let ended = peers.finish::<1>(NEXT, 1, &[], 0, |[word]| {
                records[1].push(word);
                Ok(())
            });
            *seen_copy.lock() =
                Some((records, ended.map_err(|e| e.to_string()), started.elapsed()));
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(&err, GraphStorageError::Corrupt(m) if m.contains("own error")),
            "{err}"
        );
        let (records, ended, took) = seen.lock().take().expect("copy 0 reached its second phase");
        assert_eq!(records, [vec![], vec![7]]);
        let abort = ended.unwrap_err();
        assert!(abort.contains("copy 1 failed job 0"), "{abort}");
        assert!(took < Duration::from_secs(1), "the abort took {took:?}");
    }
}
