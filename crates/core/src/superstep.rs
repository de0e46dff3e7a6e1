//! The analyses' pipeline over the round protocol (DESIGN.md §10.6).
//!
//! BFS, connected components, the minimum spanning forest and the degree
//! distribution are bulk-synchronous programs over
//! [`datacutter::superstep`]: `p` copies of one filter, one per back-end
//! node, joined all-to-all, exchanging tagged records and markers phase by
//! phase. What is particular to `mssg-core` lives here: [`run`] builds the
//! pipeline over the cluster's backends, and a program is a function from
//! a [`Peers`] and its node's GraphDB to that copy's share of the result.

use crate::cluster::{MssgCluster, SharedBackend};
use crate::telemetry::TelemetryReport;
use datacutter::superstep::{Peers, PORT};
use datacutter::{FaultKind, FaultPlan, Filter, FilterContext, GraphBuilder};
use mssg_types::{GraphStorageError, Result};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Rounds after which a program gives up.
pub(crate) const MAX_ROUNDS: u32 = 10_000;

/// The stream deadline of every pipeline: what an analysis with no option
/// for it uses, and what `BfsOptions` and `IngestOptions` default to.
pub(crate) const DEADLINE: Duration = Duration::from_secs(120);

type Program<T> = dyn Fn(&mut Peers<'_>, &SharedBackend) -> Result<T> + Send + Sync;

/// Runs `program` on every back-end node, the copies joined all-to-all,
/// and returns what each copy computed, by copy index. `kinds` is how many
/// message kinds the program uses (`0..kinds`).
pub(crate) fn run<T: Send + 'static>(
    cluster: &MssgCluster,
    name: &str,
    kinds: u64,
    timeout: Duration,
    fault_plan: Option<&FaultPlan<FaultKind>>,
    program: impl Fn(&mut Peers<'_>, &SharedBackend) -> Result<T> + Send + Sync + 'static,
) -> Result<(Vec<T>, TelemetryReport)> {
    let p = cluster.nodes();
    let io_before = cluster.io_snapshot();
    let mut g = GraphBuilder::new();
    g.channel_capacity(8192);
    g.telemetry(cluster.telemetry().clone());
    // A barrier blocks on a marker from every peer: with the deadline a
    // dead peer is a typed `Timeout`, not a hang.
    g.stream_timeout(timeout);
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
        let result = (self.program)(&mut Peers::new(ctx, self.kinds), &self.backend)?;
        self.results.lock()[me] = Some(result);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::{bfs, components, degrees, msf};
    use datacutter::superstep::Phase;

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
        let dir = std::env::temp_dir().join(format!("core-superstep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let deadline = Duration::from_secs(10);
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
            }
            // Well formed, copy 1's two records and its count arrive.
            let (got, _) = run(&cluster, "rows", kinds, deadline, None, move |peers, _| {
                let me = peers.me();
                if me == 1 {
                    peers.send(0, phase.data, 1, &vec![3; 2 * arity])?;
                }
                finish_round(peers, phase, arity, 5 * me as u64)
            })
            .unwrap();
            assert_eq!(got, [(2, 5), (0, 5)], "{what}");
        }
    }
}
