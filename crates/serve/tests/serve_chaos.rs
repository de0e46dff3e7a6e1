//! Chaos sweep over the serving plane: a live `Server` on the
//! deterministic wire simulator, seeded fault plans tearing at client
//! connections, proving the tentpole invariant — every request
//! terminates with either an answer identical to the fault-free run or
//! a typed error/rejection; never a hang, never a poisoned epoch
//! (ingestion always proceeds after the chaos clients are gone).
//!
//! Reproduce a failing seed locally with
//! `CHAOS_SEED=<n> cargo test -p mssg-serve --test serve_chaos -- one_seed --nocapture`;
//! widen the sweep with `CHAOS_SEEDS=<count>`.

use datacutter::{FaultEvent, FaultPlan};
use mssg_core::ingest::{ingest, IngestOptions};
use mssg_core::{BackendKind, BackendOptions, MssgCluster};
use mssg_net::sim::{SimFault, SimNet};
use mssg_serve::{Client, Outcome, Query, ServeConfig, Server};
use mssg_types::{Edge, Gid};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Chaos clients per run (connection labels `serve#0..2`); the
/// verification client after them is `serve#3` and is kept immune.
const CHAOS_CLIENTS: u32 = 3;
const VERIFY_LABEL: &str = "serve#3";

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        slots: 2,
        queue_depth: 8,
        cache_capacity: 32,
        retry_after_ms: 5,
        exec_floor_ms: 0,
        // A client wedged by a fault must not hold a worker's response
        // write, and a leaked pin must surface as a typed Timeout on
        // ingest rather than wedging the run (both bounds are well under
        // the per-seed watchdog).
        write_timeout_ms: 500,
        update_gate_ms: 2_000,
    }
}

fn queries() -> Vec<Query> {
    vec![
        Query::Bfs {
            source: Gid::new(0),
            dest: Gid::new(9),
        },
        Query::KHop {
            source: Gid::new(4),
            k: 2,
        },
        Query::Degree {
            vertex: Gid::new(6),
        },
        Query::Components,
    ]
}

/// Fresh cluster per run: the chain 0–1–…–12 at epoch 1. The nonce keeps
/// the first run and the same-seed rerun from sharing a directory.
fn build_cluster(seed: u64) -> MssgCluster {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "serve-chaos-{}-{seed}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c =
        MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
    ingest(
        &mut c,
        (0..12).map(|i| Edge::of(i, i + 1)),
        &IngestOptions::default(),
    )
    .unwrap();
    c
}

/// The chaos plan for one seed: seeded wire faults on the chaos clients'
/// connections (both directions), first 6 frames, verification client
/// immune.
fn plan_for(seed: u64) -> FaultPlan<SimFault> {
    FaultPlan::chaos(seed, 45, 5).immune(VERIFY_LABEL)
}

/// One run's observable outcome: per-request classifications for the
/// chaos clients, then the verification client's answers. Epochs and
/// cached flags are excluded — cache warmth legitimately differs with
/// which chaos requests survive; the *answers* may not.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    chaos: Vec<String>,
    verified: Vec<String>,
}

fn run_once(seed: u64, plan: FaultPlan<SimFault>) -> (RunOutcome, Vec<FaultEvent<SimFault>>) {
    let sim = SimNet::new(plan);
    let server = Server::start_on(
        build_cluster(seed),
        &serve_cfg(),
        Arc::new(sim.listen("serve")),
    )
    .expect("server starts on the simulated listener");

    let mut chaos = Vec::new();
    for _ in 0..CHAOS_CLIENTS {
        // Each client dials, handshakes, and walks the query set until
        // its connection dies. Every failure must already be typed (a
        // `GraphStorageError` / `io::Error`), so classification only
        // records *that* it failed.
        let conn = match sim.connect("serve") {
            Ok(conn) => conn,
            Err(_) => {
                chaos.push("dial-err".to_string());
                continue;
            }
        };
        let mut client = match Client::handshake_over(Box::new(conn), Duration::from_secs(2)) {
            Ok(client) => client,
            Err(_) => {
                chaos.push("hs-err".to_string());
                continue;
            }
        };
        for q in &queries() {
            match client.request(q) {
                Ok(Outcome::Answer(body)) => chaos.push(format!("ok:{}", body.result)),
                Ok(Outcome::Rejected(_)) => chaos.push("rej".to_string()),
                Ok(Outcome::Failed(failure)) => chaos.push(format!("failed:{:?}", failure.kind)),
                Err(_) => {
                    chaos.push("err".to_string());
                    break; // the connection is gone; next client
                }
            }
        }
    }

    // Never a poisoned epoch: whatever the faults did to those clients,
    // ingestion must still be able to take the update gate. A leaked pin
    // would surface here as a typed Timeout — and fail the sweep loudly.
    server
        .ingest(std::iter::once(Edge::of(0, 100)), &IngestOptions::default())
        .unwrap_or_else(|e| {
            panic!("CHAOS SEED {seed}: post-chaos ingest failed (leaked pin?): {e}")
        });

    // A clean client over an immune connection must now see exactly the
    // fault-free answers: the chaos clients changed nothing.
    let conn = sim.connect("serve").expect("verification dial");
    let mut verify =
        Client::handshake_over(Box::new(conn), Duration::from_secs(5)).unwrap_or_else(|e| {
            panic!("CHAOS SEED {seed}: verification handshake on an immune link failed: {e}")
        });
    let mut verified = Vec::new();
    for q in &queries() {
        let body = verify
            .request(q)
            .unwrap_or_else(|e| panic!("CHAOS SEED {seed}: verification request failed: {e}"))
            .into_answer()
            .unwrap_or_else(|e| panic!("CHAOS SEED {seed}: verification rejected: {e}"));
        verified.push(body.result);
    }
    drop(verify);

    (RunOutcome { chaos, verified }, sim.audit())
}

/// Runs one seeded plan under a watchdog; panics (naming the seed) on a
/// hang or an in-run panic.
fn run_seed(seed: u64, plan: FaultPlan<SimFault>) -> (RunOutcome, Vec<FaultEvent<SimFault>>) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_once(seed, plan));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(result) => result,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("CHAOS SEED {seed}: serve run wedged past the 60s watchdog (hang)")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("CHAOS SEED {seed}: serve run panicked (see stderr above)")
        }
    }
}

fn baseline() -> RunOutcome {
    let (outcome, audit) = run_seed(u64::MAX, FaultPlan::new());
    assert!(audit.is_empty(), "fault-free baseline fired faults");
    assert_eq!(
        outcome.chaos.len(),
        (CHAOS_CLIENTS as usize) * queries().len(),
        "baseline clients must all complete"
    );
    outcome
}

/// The full per-seed invariant check, shared by the sweep and the
/// single-seed repro entry point. Returns whether the seed fired any
/// fault.
fn check_seed(seed: u64, baseline: &RunOutcome) -> bool {
    let (first, audit) = run_seed(seed, plan_for(seed));
    // The verification answers are digest-grade: identical to the
    // fault-free run on every seed, faulted or not.
    assert_eq!(
        first.verified, baseline.verified,
        "CHAOS SEED {seed}: post-chaos answers diverged (audit: {audit:?})"
    );
    if audit.is_empty() {
        assert_eq!(
            first, *baseline,
            "CHAOS SEED {seed}: no fault fired yet the run did not match the baseline"
        );
    }
    // A chaos client that got an answer got a fault-free one: faults may
    // cut requests short, never change what they return.
    for answer in first.chaos.iter().filter(|o| o.starts_with("ok:")) {
        assert!(
            baseline.chaos.contains(answer),
            "CHAOS SEED {seed}: answered {answer:?}, which the fault-free run never did"
        );
    }
    if first.chaos != baseline.chaos {
        assert!(
            !audit.is_empty(),
            "CHAOS SEED {seed}: chaos outcomes {:?} differ from the baseline with an empty \
             fault audit",
            first.chaos
        );
    }
    // Same seed, fresh simulator and server: byte-identical outcome.
    let (second, audit2) = run_seed(seed, plan_for(seed));
    assert_eq!(
        first, second,
        "CHAOS SEED {seed}: rerun diverged (first audit {audit:?}, second audit {audit2:?})"
    );
    !audit.is_empty()
}

fn seed_range() -> std::ops::Range<u64> {
    match std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => 0..n,
        None => 0..350,
    }
}

#[test]
fn chaos_sweep_serve_requests_answer_identically_or_fail_typed() {
    let baseline = baseline();
    let mut faulted = 0u64;
    for seed in seed_range() {
        if check_seed(seed, &baseline) {
            faulted += 1;
        }
    }
    assert!(
        faulted * 5 >= seed_range().end,
        "only {faulted} faulting seeds in {:?}; the chaos plan is too tame",
        seed_range()
    );
}

/// Entry point for reproducing one failing seed from a red sweep:
/// `CHAOS_SEED=<n> cargo test -p mssg-serve --test serve_chaos -- one_seed --nocapture`.
#[test]
fn one_seed() {
    let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    else {
        return;
    };
    let baseline = baseline();
    println!("replaying serve chaos seed {seed}");
    check_seed(seed, &baseline);
    println!("seed {seed} upholds the invariant");
}

#[test]
fn mid_request_reset_is_typed_and_ingest_still_proceeds() {
    // Kill the first client's connection right after its handshake (its
    // first request frame dies): typed error for that client, clean
    // answers for everyone else, and the post-chaos ingest inside
    // run_once proves no pin leaked.
    let plan = FaultPlan::new()
        .inject("serve#0->serve", 1, SimFault::Reset)
        .immune(VERIFY_LABEL);
    let (outcome, audit) = run_seed(77_000, plan);
    assert_eq!(audit.len(), 1);
    assert_eq!(outcome.chaos[0], "err", "first request died on the reset");
    let per_client = queries().len();
    assert_eq!(
        outcome.chaos.len(),
        1 + 2 * per_client,
        "later clients ran the full query set"
    );
}

#[test]
fn corrupted_response_length_is_typed_never_a_client_panic() {
    // Corrupt the length prefix of the server's HELLO reply: the client
    // decoder must answer Corrupt (no allocation bomb), classified as a
    // handshake failure.
    let plan = FaultPlan::new()
        .inject("serve->serve#0", 0, SimFault::CorruptLength)
        .immune(VERIFY_LABEL);
    let (outcome, audit) = run_seed(77_001, plan);
    assert_eq!(audit.len(), 1);
    assert_eq!(outcome.chaos[0], "hs-err");
}

#[test]
fn stalled_link_delays_but_preserves_answers() {
    let base = baseline();
    // A stall far below every deadline: pure timing noise; all answers
    // (chaos clients included) match the fault-free run.
    let plan = FaultPlan::new()
        .inject(
            "serve#1->serve",
            2,
            SimFault::Stall(Duration::from_millis(40)),
        )
        .immune(VERIFY_LABEL);
    let (outcome, audit) = run_seed(77_002, plan);
    assert_eq!(audit.len(), 1);
    assert_eq!(outcome, base);
}

#[test]
fn partitioned_then_healed_client_preserves_answers() {
    let base = baseline();
    let plan = FaultPlan::new()
        .inject(
            "serve#2->serve",
            1,
            SimFault::Partition(Some(Duration::from_millis(60))),
        )
        .immune(VERIFY_LABEL);
    let (outcome, audit) = run_seed(77_003, plan);
    assert_eq!(audit.len(), 1);
    assert_eq!(outcome, base);
}
