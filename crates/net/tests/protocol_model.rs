//! Exhaustive exploration of the credit-flow protocol as
//! [`mssg_net::TcpTransport`] implements it, joined by model links
//! ([`mssg_net::model_cluster`]) instead of sockets: every interleaving
//! of node threads and frame deliveries in small multi-node graphs,
//! checked for deadlock, lost frames, and credit leaks — plus negative
//! controls proving each class of bug is actually caught.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use datacutter::FaultPlan;
use datacutter::{DataBuffer, EndpointSpec, NodeId, RecvOutcome, SendOutcome, Transport};
use mssg_modelcheck::{check, check_config, spawn, Config};
use mssg_net::{model_cluster, LinkFault};

fn spec(id: u64, node: NodeId, capacity: usize, remote: Vec<(NodeId, usize)>) -> EndpointSpec {
    EndpointSpec {
        id,
        filter: "consumer".into(),
        in_port: "in".into(),
        copy: 0,
        node,
        capacity,
        local_producers: 0,
        remote_producers: remote,
    }
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

/// The core positive result: a two-node stream with a capacity-1 window
/// and two frames completes in every schedule — no deadlock, frames
/// delivered in order with none lost, and the producer's credit window
/// back at capacity once all threads have joined.
#[test]
fn two_node_credit_protocol_is_clean_in_every_schedule() {
    let report = check(|| {
        let mut cluster = model_cluster(2, &FaultPlan::new());
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let (audit_p, audit_c) = (producer.audit(), consumer.audit());
        let sp = spec(0, 1, 1, vec![(0, 1)]);
        let sc = sp.clone();
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            let mut tags = Vec::new();
            loop {
                match rx.recv(None) {
                    RecvOutcome::Buf(b) => tags.push(b.tag),
                    RecvOutcome::Closed => break,
                    other => panic!("unexpected recv outcome: {other:?}"),
                }
            }
            assert_eq!(tags, vec![1, 2], "frames lost or reordered");
            drop(rx);
            consumer.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        for tag in [1, 2] {
            assert!(matches!(
                tx.send(DataBuffer::control(tag), None),
                SendOutcome::Sent
            ));
        }
        drop(tx);
        producer.finish().unwrap();
        t.join();
        audit_p.assert_balanced();
        audit_c.assert_balanced();
    });
    println!(
        "two_node_credit_protocol: {} schedules explored, all clean",
        report.executions
    );
    assert!(report.executions > 1, "interleavings must be explored");
    assert!(report.complete, "the two-node DFS must be exhaustive");
}

/// An endpoint dropped mid-stream: queued and in-flight frames refund
/// their credit through the consumers-gone path, producers eventually
/// observe `Closed` (in schedules where EP_CLOSED wins the race), and
/// the window is balanced in every schedule.
#[test]
fn early_endpoint_drop_refunds_credit_in_every_schedule() {
    let closed_seen = Arc::new(AtomicUsize::new(0));
    let closed_seen2 = Arc::clone(&closed_seen);
    let report = check(move || {
        let mut cluster = model_cluster(2, &FaultPlan::new());
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let (audit_p, audit_c) = (producer.audit(), consumer.audit());
        let sp = spec(0, 1, 1, vec![(0, 1)]);
        let sc = sp.clone();
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            match rx.recv(None) {
                RecvOutcome::Buf(b) => assert_eq!(b.tag, 0),
                other => panic!("unexpected recv outcome: {other:?}"),
            }
            drop(rx); // consumer walks away mid-stream
            consumer.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        let mut saw_closed = false;
        for tag in 0..3 {
            match tx.send(DataBuffer::control(tag), None) {
                SendOutcome::Sent => {}
                SendOutcome::Closed => {
                    saw_closed = true;
                    break;
                }
                other => panic!("unexpected send outcome: {other:?}"),
            }
        }
        if saw_closed {
            closed_seen2.fetch_add(1, Ordering::Relaxed);
        }
        drop(tx);
        producer.finish().unwrap();
        t.join();
        audit_p.assert_balanced();
        audit_c.assert_balanced();
    });
    assert!(
        closed_seen.load(Ordering::Relaxed) > 0,
        "some schedule must deliver EP_CLOSED before the producer finishes"
    );
    println!(
        "early_endpoint_drop: {} schedules ({} observed Closed), all balanced",
        report.executions,
        closed_seen.load(Ordering::Relaxed)
    );
    assert!(report.complete, "the two-node DFS must be exhaustive");
}

/// CLOSE accounting with two producer copies on one node: the merged
/// stream must disconnect only after *both* copies close, with both
/// frames delivered, in every schedule.
#[test]
fn close_accounting_tracks_every_producer_copy() {
    let report = check(|| {
        let mut cluster = model_cluster(2, &FaultPlan::new());
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let (audit_p, audit_c) = (producer.audit(), consumer.audit());
        let sp = spec(0, 1, 2, vec![(0, 2)]);
        let sc = sp.clone();
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            let mut tags = Vec::new();
            loop {
                match rx.recv(None) {
                    RecvOutcome::Buf(b) => tags.push(b.tag),
                    RecvOutcome::Closed => break,
                    other => panic!("unexpected recv outcome: {other:?}"),
                }
            }
            tags.sort_unstable();
            assert_eq!(tags, vec![7, 8], "a copy's frame was lost");
            drop(rx);
            consumer.finish().unwrap();
        });
        let tx_a = producer.open_sender(&sp).unwrap();
        let tx_b = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        assert!(matches!(
            tx_a.send(DataBuffer::control(7), None),
            SendOutcome::Sent
        ));
        drop(tx_a); // first copy closes while the second still runs
        assert!(matches!(
            tx_b.send(DataBuffer::control(8), None),
            SendOutcome::Sent
        ));
        drop(tx_b);
        producer.finish().unwrap();
        t.join();
        audit_p.assert_balanced();
        audit_c.assert_balanced();
    });
    println!(
        "close_accounting: {} schedules explored, all clean",
        report.executions
    );
    assert!(report.complete, "the two-node DFS must be exhaustive");
}

/// An endpoint fed by a co-located producer *and* a remote one: the
/// local copy's frames, credit and CLOSE take the loopback path through
/// the same dispatcher, both producers' frames arrive, the stream
/// disconnects only after both closed, and both nodes' windows balance.
#[test]
fn local_and_remote_producers_share_one_endpoint() {
    let report = check(|| {
        let mut cluster = model_cluster(2, &FaultPlan::new());
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let (audit_p, audit_c) = (producer.audit(), consumer.audit());
        let sp = EndpointSpec {
            local_producers: 1,
            ..spec(0, 1, 1, vec![(0, 1)])
        };
        let sc = sp.clone();
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            let local_tx = consumer.open_sender(&sc).unwrap();
            consumer.start().unwrap();
            assert!(matches!(
                local_tx.send(DataBuffer::control(5), None),
                SendOutcome::Sent
            ));
            drop(local_tx);
            let mut tags = Vec::new();
            loop {
                match rx.recv(None) {
                    RecvOutcome::Buf(b) => tags.push(b.tag),
                    RecvOutcome::Closed => break,
                    other => panic!("unexpected recv outcome: {other:?}"),
                }
            }
            tags.sort_unstable();
            assert_eq!(tags, vec![5, 6], "a producer's frame was lost");
            drop(rx);
            consumer.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        assert!(matches!(
            tx.send(DataBuffer::control(6), None),
            SendOutcome::Sent
        ));
        drop(tx);
        producer.finish().unwrap();
        t.join();
        audit_p.assert_balanced();
        audit_c.assert_balanced();
    });
    println!(
        "mixed_producers: {} schedules explored, all clean",
        report.executions
    );
    assert!(report.complete, "the two-node DFS must be exhaustive");
}

/// Three nodes, one stream 0→2 plus the full READY/BYE mesh: the
/// barriers and the data path compose without deadlock, with the
/// bystander node participating in both barriers.
///
/// Three threads push the schedule tree past what plain DFS can
/// enumerate (even the bare three-node barrier mesh exceeds two
/// million schedules), so this one runs *bounded*: a fixed budget of
/// schedules, every one still checked for deadlock, lost frames, and
/// ordering violations. The two-node scenarios above stay exhaustive.
#[test]
fn three_node_barriers_and_stream_compose() {
    let config = Config {
        max_executions: 100_000,
        exhaustive: false,
        ..Config::default()
    };
    let report = check_config(config, || {
        let mut cluster = model_cluster(3, &FaultPlan::new());
        let mut consumer = cluster.pop().unwrap(); // node 2
        let mut bystander = cluster.pop().unwrap(); // node 1
        let mut producer = cluster.pop().unwrap(); // node 0
        let audit_p = producer.audit();
        let sp = spec(0, 2, 1, vec![(0, 1)]);
        let sc = sp.clone();
        let tc = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            match rx.recv(None) {
                RecvOutcome::Buf(b) => assert_eq!(b.tag, 3),
                other => panic!("unexpected recv outcome: {other:?}"),
            }
            assert!(matches!(rx.recv(None), RecvOutcome::Closed));
            drop(rx);
            consumer.finish().unwrap();
        });
        let tb = spawn(move || {
            bystander.start().unwrap();
            bystander.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        assert!(matches!(
            tx.send(DataBuffer::control(3), None),
            SendOutcome::Sent
        ));
        drop(tx);
        producer.finish().unwrap();
        tc.join();
        tb.join();
        audit_p.assert_balanced();
    });
    assert_eq!(
        report.executions, 100_000,
        "the bounded run must spend its whole schedule budget"
    );
    println!(
        "three_node_barriers: {} schedules explored (bounded, complete={}), all clean",
        report.executions, report.complete
    );
}

/// Negative control: a wire that drops the first CREDIT frame starves a
/// capacity-1 window — *every* schedule must deadlock, or the
/// exploration has lost the ability to catch flow-control leaks.
#[test]
fn swallowed_credit_starves_the_window() {
    let config = Config {
        fail_on_deadlock: false,
        ..Config::default()
    };
    let report = check_config(config, || {
        let mut cluster = model_cluster(
            2,
            &FaultPlan::new().inject("1->0:Credit", 0, LinkFault::Drop),
        );
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let sp = spec(0, 1, 1, vec![(0, 1)]);
        let sc = sp.clone();
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            while let RecvOutcome::Buf(_) = rx.recv(None) {}
            drop(rx);
            consumer.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        for tag in [1, 2] {
            // The second send needs a refund that never comes.
            tx.send(DataBuffer::control(tag), None);
        }
        drop(tx);
        producer.finish().unwrap();
        t.join();
    });
    assert_eq!(
        report.deadlocks, report.executions,
        "every schedule must starve: {report:?}"
    );
    assert!(report.deadlocks > 0, "the control stopped firing");
}

/// Negative control: a wire that drops the CLOSE frame leaves the merged
/// stream connected — the consumer's drain loop never sees `Closed` and
/// every schedule must deadlock.
#[test]
fn skipped_close_hangs_the_consumer() {
    let config = Config {
        fail_on_deadlock: false,
        ..Config::default()
    };
    let report = check_config(config, || {
        let mut cluster = model_cluster(
            2,
            &FaultPlan::new().inject("0->1:Close", 0, LinkFault::Drop),
        );
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let sp = spec(0, 1, 1, vec![(0, 1)]);
        let sc = sp.clone();
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            while let RecvOutcome::Buf(_) = rx.recv(None) {}
            drop(rx);
            consumer.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        tx.send(DataBuffer::control(1), None);
        drop(tx); // CLOSE dropped by the link
        producer.finish().unwrap();
        t.join();
    });
    assert_eq!(
        report.deadlocks, report.executions,
        "every schedule must hang on the missing CLOSE: {report:?}"
    );
    assert!(report.deadlocks > 0, "the control stopped firing");
}

/// Negative control: a link that delivers the first CREDIT twice returns
/// credit nobody spent. The producer node must refuse the excess grant
/// and die with the typed violation in *every* schedule — its `finish`
/// reports it and its audit refuses to call the node balanced.
#[test]
fn duplicated_credit_kills_the_producer_node() {
    let report = check(|| {
        let mut cluster = model_cluster(
            2,
            &FaultPlan::new().inject("1->0:Credit", 0, LinkFault::Duplicate),
        );
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let audit_p = producer.audit();
        let sp = spec(0, 1, 1, vec![(0, 1)]);
        let sc = sp.clone();
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            while let RecvOutcome::Buf(_) = rx.recv(None) {}
            drop(rx);
            consumer.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        assert!(matches!(
            tx.send(DataBuffer::control(1), None),
            SendOutcome::Sent
        ));
        drop(tx);
        // The consumer pops the frame (doubling its CREDIT) before it
        // says BYE, so the violation always precedes the barrier.
        let err = producer
            .finish()
            .expect_err("excess credit must kill the node");
        assert!(
            err.to_string().contains("credit protocol violation"),
            "got: {err}"
        );
        t.join();
        let why = audit_p.imbalance().expect("a dead node is not at rest");
        assert!(why.contains("node died"), "got: {why}");
    });
    println!(
        "duplicated_credit: {} schedules explored, every one caught",
        report.executions
    );
    assert!(report.executions > 1, "interleavings must be explored");
    assert!(report.complete, "the two-node DFS must be exhaustive");
}

/// Negative control for the audit itself: with a capacity-2 window and a
/// single dropped refund the run *completes* — only the final credit
/// balance betrays the leak, and [`CreditAudit::assert_balanced`] must
/// fail the check with the leaking stream named.
#[test]
fn leaked_credit_fails_the_audit() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        check(|| {
            let mut cluster = model_cluster(
                2,
                &FaultPlan::new().inject("1->0:Credit", 0, LinkFault::Drop),
            );
            let mut consumer = cluster.pop().unwrap();
            let mut producer = cluster.pop().unwrap();
            let audit_p = producer.audit();
            let sp = spec(0, 1, 2, vec![(0, 1)]);
            let sc = sp.clone();
            let t = spawn(move || {
                let rx = consumer.open_endpoint(&sc).unwrap();
                consumer.start().unwrap();
                while let RecvOutcome::Buf(_) = rx.recv(None) {}
                drop(rx);
                consumer.finish().unwrap();
            });
            let tx = producer.open_sender(&sp).unwrap();
            producer.start().unwrap();
            assert!(matches!(
                tx.send(DataBuffer::control(1), None),
                SendOutcome::Sent
            ));
            drop(tx);
            producer.finish().unwrap();
            t.join();
            audit_p.assert_balanced();
        })
    }));
    let msg = panic_message(result.expect_err("the audit must fire").as_ref());
    assert!(
        msg.contains("credit leak on stream 0"),
        "audit must name the leaking stream, got: {msg}"
    );
}

/// Frames delivered via `try_recv` refund credit exactly like blocking
/// receives: a polling probe races the producer's push, so across
/// schedules the frame is refunded through *both* paths — and the
/// window must balance either way.
#[test]
fn try_recv_refunds_like_recv() {
    let try_hits = Arc::new(AtomicUsize::new(0));
    let recv_hits = Arc::new(AtomicUsize::new(0));
    let (try_hits2, recv_hits2) = (Arc::clone(&try_hits), Arc::clone(&recv_hits));
    let report = check(move || {
        let mut cluster = model_cluster(2, &FaultPlan::new());
        let mut consumer = cluster.pop().unwrap();
        let mut producer = cluster.pop().unwrap();
        let (audit_p, audit_c) = (producer.audit(), consumer.audit());
        let sp = spec(0, 1, 1, vec![(0, 1)]);
        let sc = sp.clone();
        let (try_hits3, recv_hits3) = (Arc::clone(&try_hits2), Arc::clone(&recv_hits2));
        let t = spawn(move || {
            let rx = consumer.open_endpoint(&sc).unwrap();
            consumer.start().unwrap();
            // One polling probe (the try_recv refund path under test),
            // then a blocking drain: schedules where the frame is
            // already queued refund it through try_recv, the rest
            // through recv.
            let mut got = 0usize;
            if rx.try_recv().is_some() {
                try_hits3.fetch_add(1, Ordering::Relaxed);
                got += 1;
            }
            loop {
                match rx.recv(None) {
                    RecvOutcome::Buf(_) => {
                        recv_hits3.fetch_add(1, Ordering::Relaxed);
                        got += 1;
                    }
                    RecvOutcome::Closed => break,
                    other => panic!("unexpected recv outcome: {other:?}"),
                }
            }
            assert_eq!(got, 1, "frame lost");
            drop(rx);
            consumer.finish().unwrap();
        });
        let tx = producer.open_sender(&sp).unwrap();
        producer.start().unwrap();
        assert!(matches!(
            tx.send(DataBuffer::control(1), None),
            SendOutcome::Sent
        ));
        drop(tx);
        producer.finish().unwrap();
        t.join();
        audit_p.assert_balanced();
        audit_c.assert_balanced();
    });
    assert!(report.complete, "the two-node DFS must be exhaustive");
    assert!(
        try_hits.load(Ordering::Relaxed) > 0,
        "some schedule must refund through the try_recv path"
    );
    assert!(
        recv_hits.load(Ordering::Relaxed) > 0,
        "some schedule must refund through the blocking path"
    );
    println!(
        "try_recv_refunds: {} schedules explored ({} try / {} blocking), all balanced",
        report.executions,
        try_hits.load(Ordering::Relaxed),
        recv_hits.load(Ordering::Relaxed)
    );
}
