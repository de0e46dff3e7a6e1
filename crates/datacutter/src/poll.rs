//! Poll, then park: how a thread waits for a hand-off that usually
//! lands within microseconds (DESIGN.md §10.6).
//!
//! A parked waiter costs its waker a futex wake and itself a reschedule,
//! 17–18 µs per round trip on a 2-vCPU host against 0.5 µs polled. Three
//! waits are that short on a search: a copy's wait at a superstep barrier,
//! an engine copy's wait for its next job, and the caller's wait for the
//! copies' replies. Each polls for `POLL_BUDGET` before it parks; every
//! other wait in the workspace parks at once.

use crossbeam::channel::{Receiver, RecvError, TryRecvError};
use std::time::{Duration, Instant};

/// How long a wait polls before it parks: long enough that on a small
/// search a peer's marker, the next job of a closed loop and a copy's
/// reply mostly land within it. Of 20, 50 and 100 µs at the barrier, 100
/// served searches best; the other two waits share it.
const POLL_BUDGET: Duration = Duration::from_micros(100);

/// Tries `poll` until it yields an outcome or `POLL_BUDGET` has passed,
/// yielding the CPU between tries, and then returns what `park` (a
/// blocking wait) returns. `poll` returns `None` only while there is
/// nothing to take yet.
pub fn poll_then_park<R>(mut poll: impl FnMut() -> Option<R>, park: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    loop {
        if let Some(outcome) = poll() {
            return outcome;
        }
        if start.elapsed() >= POLL_BUDGET {
            return park();
        }
        // Yield, not spin: on two cores the CPU a spin burns is the one
        // the thread that would hand over may need.
        std::thread::yield_now();
    }
}

/// `rx.recv()`, polled first: a disconnected channel ends the poll with
/// the `RecvError` that `recv` returns.
pub fn recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    poll_then_park(
        || match rx.try_recv() {
            Ok(msg) => Some(Ok(msg)),
            Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
            Err(TryRecvError::Empty) => None,
        },
        || rx.recv(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    #[test]
    fn a_polled_recv_ends_as_recv_does() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        assert_eq!(recv(&rx), Ok(1));
        // Sent after the poll's budget: the parked `recv` takes it.
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(2).unwrap();
        });
        assert_eq!(recv(&rx), Ok(2));
        sender.join().unwrap();
        // Every sender gone: the disconnect, as from `recv`.
        assert_eq!(recv(&rx), Err(RecvError));
    }
}
