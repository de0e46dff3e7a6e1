//! The round protocol the analyses share (DESIGN.md §10.6).
//!
//! BFS, connected components, the minimum spanning forest and the degree
//! distribution are bulk-synchronous: `p` copies of one filter, one per
//! back-end node, joined all-to-all by a `peers` stream, advance through
//! *phases*. In a phase a copy sends records to the copies that own them,
//! tells every peer it is done with a marker carrying one count, and waits
//! for the markers of the other `p − 1`. This module owns what that takes —
//! the pipeline, the message tag, the exchange, the barrier and the record
//! codec — and a program is a function from a [`Peers`] and its node's
//! GraphDB to that copy's share of the result.
//!
//! A copy sends itself nothing: what it owns it handles in place.

use crate::cluster::{MssgCluster, SharedBackend};
use crate::telemetry::TelemetryReport;
use datacutter::{DataBuffer, FaultPlan, Filter, FilterContext, GraphBuilder};
use mssg_obs::Telemetry;
use mssg_types::{GraphStorageError, Result};
use parking_lot::Mutex;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

/// Rounds after which a program gives up.
pub(crate) const MAX_ROUNDS: u32 = 10_000;

/// The stream deadline of an analysis that has no option for it.
pub(crate) const DEADLINE: Duration = Duration::from_secs(120);

/// The round of a message its receiver takes whatever round it is in
/// itself (BFS's `FOUND`).
pub(crate) const ANY_ROUND: u32 = u32::MAX;

const PORT: &str = "peers";

/// Message tag: `[kind: 8 bits][round: 32 bits][sender: 24 bits]`.
fn tag(kind: u64, round: u32, sender: usize) -> u64 {
    (kind << 56) | ((round as u64) << 24) | sender as u64
}

fn tag_kind(t: u64) -> u64 {
    t >> 56
}

fn tag_round(t: u64) -> u32 {
    ((t >> 24) & 0xffff_ffff) as u32
}

/// One phase of a program: the kind of its record messages and the kind
/// of the marker that ends it.
#[derive(Clone, Copy)]
pub(crate) struct Phase {
    pub(crate) data: u64,
    pub(crate) done: u64,
}

impl Phase {
    /// A program's `n`-th phase: kinds `2n` and `2n + 1`.
    pub(crate) const fn nth(n: u64) -> Phase {
        Phase {
            data: 2 * n,
            done: 2 * n + 1,
        }
    }
}

/// How a barrier ended.
pub(crate) enum Barrier<B> {
    /// Every peer's marker arrived; the sum of the counts they carried.
    Complete(u64),
    /// The handler ended the program (BFS: a peer found the destination).
    Stopped(B),
    /// The input closed: every peer has exited. Over in-process channels a
    /// copy's own sender keeps its input open, and a peer that left
    /// without its marker is reported by the stream deadline instead.
    PeerLeft,
}

type Program<T> = dyn Fn(&mut Peers<'_>, &SharedBackend) -> Result<T> + Send + Sync;

/// Runs `program` on every back-end node, the copies joined all-to-all,
/// and returns what each copy computed, by copy index. `kinds` is how many
/// message kinds the program uses (`0..kinds`).
pub(crate) fn run<T: Send + 'static>(
    cluster: &MssgCluster,
    name: &str,
    kinds: u64,
    timeout: Option<Duration>,
    fault_plan: Option<&FaultPlan>,
    program: impl Fn(&mut Peers<'_>, &SharedBackend) -> Result<T> + Send + Sync + 'static,
) -> Result<(Vec<T>, TelemetryReport)> {
    let p = cluster.nodes();
    let io_before = cluster.io_snapshot();
    let mut g = GraphBuilder::new();
    g.channel_capacity(8192);
    g.telemetry(cluster.telemetry().clone());
    // A barrier blocks on a marker from every peer: with the deadline a
    // dead peer is a typed `Timeout`, without it a hang.
    if let Some(t) = timeout {
        g.stream_timeout(t);
    }
    // Copies are not supervised: a restarted one would have lost its
    // state, so a crash fails the run and the caller repeats it.
    if let Some(plan) = fault_plan {
        g.fault_plan(plan.clone());
    }
    let backends: Vec<SharedBackend> = (0..p).map(|i| cluster.backend(i)).collect();
    let program: Arc<Program<T>> = Arc::new(program);
    let results = Arc::new(Mutex::new((0..p).map(|_| None).collect::<Vec<_>>()));
    let slots = Arc::clone(&results);
    let filter = g.add_filter(name, (0..p).collect(), move |i| {
        Box::new(Processor {
            backend: backends[i].clone(),
            kinds,
            program: Arc::clone(&program),
            results: Arc::clone(&slots),
        })
    })?;
    g.declare_ports(filter, &[PORT], &[PORT]);
    g.expect_consumers(filter, PORT, p);
    // Between two barriers a copy sends each peer one batch and one
    // marker. (Algorithm 2's extra chunks go out between non-blocking
    // polls and are bounded by the channel capacity.)
    g.send_window(filter, PORT, 2 * (p as u64 - 1));
    g.connect(filter, PORT, filter, PORT)?;
    let report = g.run()?;
    let results: Option<Vec<T>> = std::mem::take(&mut *results.lock()).into_iter().collect();
    let results = results.ok_or_else(|| {
        GraphStorageError::Unsupported(format!("a {name} copy finished without a result"))
    })?;
    Ok((results, cluster.telemetry_report(report, &io_before)))
}

/// One copy of a program's filter.
struct Processor<T> {
    backend: SharedBackend,
    kinds: u64,
    program: Arc<Program<T>>,
    results: Arc<Mutex<Vec<Option<T>>>>,
}

impl<T: Send> Filter for Processor<T> {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let me = ctx.copy_index;
        let mut peers = Peers {
            ctx,
            inbox: Inbox::new(self.kinds),
        };
        let result = (self.program)(&mut peers, &self.backend)?;
        self.results.lock()[me] = Some(result);
        Ok(())
    }
}

/// What has arrived at a copy: the markers of the phase it is in, and the
/// messages of phases it has not reached.
struct Inbox {
    kinds: u64,
    done: usize,
    sum: u64,
    stash: Vec<DataBuffer>,
}

impl Inbox {
    fn new(kinds: u64) -> Inbox {
        Inbox {
            kinds,
            done: 0,
            sum: 0,
            stash: Vec::new(),
        }
    }

    /// Takes one message at a copy in `phase` of `round`: that phase's
    /// marker is counted, its records — and any [`ANY_ROUND`] message —
    /// go to `on_data`, everything else waits in the stash.
    fn accept<B>(
        &mut self,
        phase: Phase,
        round: u32,
        msg: DataBuffer,
        on_data: &mut impl FnMut(u64, &DataBuffer) -> Result<ControlFlow<B>>,
    ) -> Result<ControlFlow<B>> {
        let (kind, of_round) = (tag_kind(msg.tag), tag_round(msg.tag));
        if kind >= self.kinds {
            return Err(GraphStorageError::corrupt(format!(
                "unknown message kind {kind}"
            )));
        }
        if of_round == ANY_ROUND || (of_round == round && kind == phase.data) {
            return on_data(kind, &msg);
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
pub(crate) struct Peers<'a> {
    ctx: &'a mut FilterContext,
    inbox: Inbox,
}

impl Peers<'_> {
    /// This copy's index.
    pub(crate) fn me(&self) -> usize {
        self.ctx.copy_index
    }

    /// `p`: this copy and its peers.
    pub(crate) fn copies(&self) -> usize {
        self.ctx.copies
    }

    /// The run's telemetry bundle.
    pub(crate) fn telemetry(&self) -> &Telemetry {
        self.ctx.telemetry()
    }

    /// Sends `words` to the peer `to`.
    pub(crate) fn send(&mut self, to: usize, kind: u64, round: u32, words: &[u64]) -> Result<()> {
        debug_assert_ne!(to, self.me(), "a copy sends itself nothing");
        let buf = DataBuffer::from_words(tag(kind, round, self.me()), words);
        self.post(to, buf)
    }

    /// Sends `words` to every peer, as one shared buffer.
    pub(crate) fn send_all(&mut self, kind: u64, round: u32, words: &[u64]) -> Result<()> {
        let me = self.me();
        let buf = DataBuffer::from_words(tag(kind, round, me), words);
        for to in (0..self.copies()).filter(|&to| to != me) {
            self.post(to, buf.clone())?;
        }
        Ok(())
    }

    /// Sends every peer that has a batch its batch and empties it; returns
    /// this copy's own.
    pub(crate) fn scatter(
        &mut self,
        kind: u64,
        round: u32,
        batches: &mut [Vec<u64>],
    ) -> Result<Vec<u64>> {
        let me = self.me();
        for (to, batch) in batches.iter_mut().enumerate() {
            if to != me && !batch.is_empty() {
                self.send(to, kind, round, batch)?;
                batch.clear();
            }
        }
        Ok(std::mem::take(&mut batches[me]))
    }

    fn post(&mut self, to: usize, buf: DataBuffer) -> Result<()> {
        match self.ctx.output(PORT)?.send_to(to, buf) {
            // The receiver has exited: it found the destination, or it
            // failed and the run reports that. Nobody waits for this.
            Err(GraphStorageError::Unsupported(m)) if m.contains("hung up") => Ok(()),
            sent => sent,
        }
    }

    /// Takes the messages that are waiting, without blocking — Algorithm 2
    /// overlaps them with expansion. Markers taken here count towards the
    /// round's [`barrier`](Peers::barrier).
    pub(crate) fn poll<B>(
        &mut self,
        phase: Phase,
        round: u32,
        on_data: &mut impl FnMut(u64, &DataBuffer) -> Result<ControlFlow<B>>,
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
    /// first the ones that came early and waited in the stash.
    pub(crate) fn barrier<B>(
        &mut self,
        phase: Phase,
        round: u32,
        on_data: &mut impl FnMut(u64, &DataBuffer) -> Result<ControlFlow<B>>,
    ) -> Result<Barrier<B>> {
        for msg in std::mem::take(&mut self.inbox.stash) {
            if let ControlFlow::Break(b) = self.inbox.accept(phase, round, msg, on_data)? {
                return Ok(Barrier::Stopped(b));
            }
        }
        while self.inbox.done + 1 < self.copies() {
            let Some(msg) = self.ctx.input(PORT)?.recv()? else {
                return Ok(Barrier::PeerLeft);
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
    /// the counts of all `p` copies, summed. A peer that has left is an
    /// error.
    pub(crate) fn finish<const N: usize>(
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
        let mut on_data = |kind: u64, msg: &DataBuffer| {
            if kind != phase.data {
                return Err(GraphStorageError::corrupt(format!(
                    "message of kind {kind} outside its round"
                )));
            }
            for record in records(msg)? {
                on_record(record)?;
            }
            Ok(ControlFlow::<Infallible>::Continue(()))
        };
        match self.barrier(phase, round, &mut on_data)? {
            Barrier::Complete(sum) => Ok(sum.saturating_add(count)),
            Barrier::Stopped(never) => match never {},
            Barrier::PeerLeft => Err(GraphStorageError::Unsupported(format!(
                "peers exited before round {round} ended"
            ))),
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
pub(crate) fn records<const N: usize>(
    msg: &DataBuffer,
) -> Result<impl Iterator<Item = [u64; N]> + '_> {
    records_of(msg.try_words()?)
}

/// A peer's payload that must be exactly one word: a marker's count.
pub(crate) fn one_word(msg: &DataBuffer) -> Result<u64> {
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
    use crate::backend::{BackendKind, BackendOptions};
    use crate::{bfs, components, degrees, msf};
    use std::cell::Cell;

    #[test]
    fn malformed_peer_messages_are_typed_errors() {
        // Every phase of every program: its kinds, and words per record.
        use {components as cc, degrees as deg};
        let rows = [
            ("bfs fringe", bfs::KINDS, bfs::ROUND, 1),
            ("bfs fringe with parents", bfs::KINDS, bfs::ROUND, 2),
            ("components register", cc::KINDS, cc::REGISTER, 1),
            ("components frontier", cc::KINDS, cc::FRONTIER, 2),
            ("components propose", cc::KINDS, cc::PROPOSE, 2),
            ("components applied", cc::KINDS, cc::APPLIED, 1),
            ("msf register", msf::KINDS, msf::REGISTER, 1),
            ("msf candidate", msf::KINDS, msf::CANDIDATE, 4),
            ("msf winner", msf::KINDS, msf::WINNER, 4),
            ("degrees partials", deg::KINDS, deg::PARTIALS, 2),
        ];
        for (what, kinds, phase, arity) in rows {
            let mut inbox = Inbox::new(kinds);
            let delivered = Cell::new(0);
            let mut read = |_kind: u64, msg: &DataBuffer| {
                delivered.set(match arity {
                    1 => records::<1>(msg)?.count(),
                    2 => records::<2>(msg)?.count(),
                    _ => records::<4>(msg)?.count(),
                });
                Ok(ControlFlow::<()>::Continue(()))
            };
            let (data, done) = (tag(phase.data, 1, 1), tag(phase.done, 1, 1));
            let mut malformed = vec![
                ("0-byte marker", DataBuffer::control(done)),
                ("2-word marker", DataBuffer::from_words(done, &[0, 0])),
                ("7-byte marker", DataBuffer::new(done, vec![0; 7])),
                ("7-byte records", DataBuffer::new(data, vec![0; 7])),
                ("unknown kind", DataBuffer::control(tag(kinds, 1, 1))),
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
        // BFS's FOUND carries the level, one word.
        for words in [&[][..], &[3, 3]] {
            let found = DataBuffer::from_words(tag(2, ANY_ROUND, 1), words);
            let err = one_word(&found).unwrap_err();
            assert!(matches!(err, GraphStorageError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn early_messages_wait_for_their_round_and_a_departed_peer_is_a_typed_error() {
        const PHASE: Phase = Phase::nth(0);
        let dir = std::env::temp_dir().join(format!("core-superstep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let deadline = Some(Duration::from_secs(2));

        // Copy 1 runs ahead: a round-2 record of its is on the wire before
        // its round-1 marker. Copy 0 must keep it through round 1 and see
        // it once, in round 2.
        let (seen, _) = run(&cluster, "early", 2, deadline, None, |peers, _| {
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

        // Copy 1 leaves without its marker. In process, copy 0's own
        // sender keeps its input open, so the deadline reports it.
        let start = std::time::Instant::now();
        let err = run(&cluster, "departed", 2, deadline, None, |peers, _| {
            if peers.me() == 0 {
                peers.finish::<1>(PHASE, 1, &[], 0, |_| Ok(()))?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                GraphStorageError::Timeout(_) | GraphStorageError::Unsupported(_)
            ),
            "{err}"
        );
        assert!(start.elapsed() < Duration::from_secs(30), "no hang");
    }
}
