//! Model-checking regression corpus for the vendored bounded channel.
//!
//! Every test here runs a 2–3 thread channel scenario under
//! `mssg_modelcheck::check`, which explores **all** interleavings of the
//! threads' lock/wait/notify operations (plus every timeout-expiry
//! branch). Passing means the property holds on every schedule — these
//! are proofs for the scenario sizes, not samples. The properties are
//! exactly the ones PR 2's fault-tolerance layer silently depends on:
//! no lost wakeup (a blocked peer always sees a send/recv/disconnect),
//! every message delivered exactly once, and the timed/disconnect paths
//! always terminating.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, RecvError, RecvTimeoutError, SendTimeoutError, TryRecvError};
use mssg_modelcheck::shim::Mutex;
use mssg_modelcheck::{check, check_config, spawn, Config, Report};

#[test]
fn spsc_fifo_through_a_full_buffer() {
    // cap-1 channel, two messages: the second send must block until the
    // consumer drains one. No schedule may lose the not_full wakeup.
    let report = check(|| {
        let (tx, rx) = bounded::<u32>(1);
        let t = spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join();
    });
    assert!(report.executions >= 2);
    assert_eq!(report.deadlocks, 0);
}

#[test]
fn mpsc_two_producers_deliver_everything() {
    let report = check(|| {
        let (tx, rx) = bounded::<u32>(1);
        let tx2 = tx.clone();
        let a = spawn(move || tx.send(10).unwrap());
        let b = spawn(move || tx2.send(20).unwrap());
        let x = rx.recv().unwrap();
        let y = rx.recv().unwrap();
        assert_eq!(x + y, 30, "both messages delivered, whatever the order");
        a.join();
        b.join();
    });
    assert!(report.executions >= 2);
}

/// Two consumers share one queue of capacity `cap`, and one producer
/// sends them 1 and 2; every schedule must deliver each exactly once.
fn two_consumers_two_sends(cap: usize) -> Report {
    check(move || {
        let (tx, rx) = bounded::<u32>(cap);
        let rx2 = rx.clone();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (s1, s2) = (Arc::clone(&seen), Arc::clone(&seen));
        // Each receives before it takes the `seen` lock: a consumer that
        // held it across `recv` would keep the other from ever reaching
        // the channel while it waits.
        let a = spawn(move || {
            let v = rx.recv().unwrap();
            s1.lock().unwrap().push(v);
        });
        let b = spawn(move || {
            let v = rx2.recv().unwrap();
            s2.lock().unwrap().push(v);
        });
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        a.join();
        b.join();
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "each message exactly once");
    })
}

#[test]
fn spmc_each_message_delivered_exactly_once() {
    // Exactly-once delivery is the channel-level statement of "no
    // double-free of a slot": no schedule hands the same message to both
    // consumers or drops one on the floor.
    let report = two_consumers_two_sends(2);
    assert!(report.executions >= 2);
}

#[test]
fn send_timeout_terminates_on_a_stuck_consumer() {
    // The receiver exists but never drains: send_timeout on the full
    // channel must return Timeout on every schedule — never hang, never
    // sneak the message in.
    check(|| {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        match tx.send_timeout(2, Duration::from_millis(5)) {
            Err(SendTimeoutError::Timeout(v)) => assert_eq!(v, 2),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    });
}

#[test]
fn recv_timeout_always_terminates_against_a_racing_producer() {
    // Producer races the consumer's deadline. Depending on the schedule
    // the consumer is notified or expires — both must terminate, and an
    // expiry must leave the late message intact in the buffer.
    let report = check(|| {
        let (tx, rx) = bounded::<u32>(1);
        let t = spawn(move || {
            tx.send(7).unwrap();
        });
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(v) => assert_eq!(v, 7),
            Err(RecvTimeoutError::Timeout) => {
                // The send may still be in flight; the message must not
                // be lost once it lands.
                t.join();
                assert_eq!(rx.try_recv(), Ok(7));
                return;
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
        t.join();
    });
    assert!(
        report.executions >= 2,
        "both the notified and the expired branch must be explored"
    );
}

#[test]
fn disconnect_wakes_a_blocked_receiver() {
    // Consumer parks in an untimed recv(); the producer drops without
    // sending. Every schedule must observe RecvError — a lost disconnect
    // wakeup would deadlock and fail the check.
    check(|| {
        let (tx, rx) = bounded::<u32>(1);
        let t = spawn(move || {
            drop(tx);
        });
        assert_eq!(rx.recv(), Err(RecvError));
        t.join();
    });
}

#[test]
fn disconnect_wakes_a_blocked_sender() {
    // Producer parks in a blocking send() on a full channel; the
    // consumer drops without draining. Every schedule must observe
    // SendError.
    check(|| {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = spawn(move || {
            drop(rx);
        });
        assert!(tx.send(2).is_err());
        t.join();
    });
}

#[test]
fn recv_timeout_observes_disconnect_or_expiry_but_never_hangs() {
    let report = check(|| {
        let (tx, rx) = bounded::<u32>(1);
        let t = spawn(move || {
            drop(tx);
        });
        match rx.recv_timeout(Duration::from_millis(5)) {
            Err(RecvTimeoutError::Disconnected) | Err(RecvTimeoutError::Timeout) => {}
            Ok(v) => panic!("nothing was sent, got {v}"),
        }
        t.join();
    });
    assert!(report.executions >= 2);
}

// The channel counts the threads parked on each condvar and signals only
// a counted one. The next three scenarios check that count: a waiter the
// count misses is a lost wakeup (a deadlock here), and a count a waiter
// leaves behind is a signal that wakes nobody (`Report::lost_notifies`).

#[test]
fn two_parked_receivers_are_each_woken_by_a_send() {
    // Both receivers may park before either send: each send must then
    // signal one of them, and the second send must still see the other
    // counted, whichever woke first. With one slot the producer may park
    // too, between the two sends.
    let report = two_consumers_two_sends(1);
    assert!(report.complete && report.executions >= 2);
    assert_eq!(report.deadlocks, 0);
}

#[test]
fn a_parked_sender_is_freed_by_try_recv() {
    // The sender may park on the full channel before the receiver takes
    // the first message with `try_recv`, which must then signal it: the
    // receiver's blocking `recv` waits on the sender's second message.
    let report = check(|| {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = spawn(move || tx.send(2).unwrap());
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join();
    });
    assert!(report.complete && report.executions >= 2);
    assert_eq!(report.deadlocks, 0);
}

#[test]
fn an_expired_recv_timeout_leaves_no_count_behind() {
    // The expired wait must leave the count as it found it: a later
    // blocking `recv` that parks is still counted and woken by the send,
    // and a send that finds it not yet parked signals nobody.
    let report = check(|| {
        let (tx, rx) = bounded::<u32>(1);
        let tx2 = tx.clone();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        let t = spawn(move || tx2.send(7).unwrap());
        assert_eq!(rx.recv(), Ok(7));
        t.join();
        drop(tx);
    });
    assert!(report.complete && report.executions >= 2);
    assert_eq!(report.deadlocks, 0);
    assert_eq!(report.lost_notifies, 0, "a signal to nobody");
}

#[test]
fn cross_blocked_receivers_deadlock_negative_control() {
    // Sanity check that the checker still detects real channel
    // deadlocks: two threads each recv() on a channel only the *other*
    // could feed, while keeping their own sender alive (so no
    // disconnect rescue). Every schedule deadlocks.
    let report = check_config(
        Config {
            fail_on_deadlock: false,
            ..Config::default()
        },
        || {
            let (tx_a, rx_a) = bounded::<u32>(1);
            let (tx_b, rx_b) = bounded::<u32>(1);
            let t = spawn(move || {
                // Would send on A only after hearing from B.
                let v = rx_b.recv().unwrap();
                tx_a.send(v).unwrap();
            });
            // Would send on B only after hearing from A.
            let v = rx_a.recv().unwrap();
            tx_b.send(v).unwrap();
            t.join();
        },
    );
    assert!(
        report.deadlocks > 0,
        "the cross-blocked topology must deadlock"
    );
    assert_eq!(
        report.deadlocks, report.executions,
        "no schedule can rescue the cross-blocked topology"
    );
}
