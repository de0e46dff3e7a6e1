//! Admission control: bounded in-flight slots and per-client fair queues.
//!
//! The serving frontend must not melt under a flood from one client, and
//! must say *no* in a typed way instead of queueing unboundedly. The
//! [`Admission`] controller enforces both properties for the queries that
//! execute; a result-cache hit is answered by its connection's reader
//! and never reaches it:
//!
//! - at most `slots` queries execute concurrently (workers block in
//!   [`Admission::next`] until a slot frees);
//! - each registered client gets its own bounded queue; a submit against
//!   a full queue is rejected immediately with an `Overloaded` hint
//!   instead of being buffered;
//! - dispatch round-robins across client queues, so a client issuing one
//!   query is served after at most one queued query from each peer, no
//!   matter how deep another client's backlog is.
//!
//! The controller is generic over the queued job type so tests can drive
//! it with plain integers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Handle naming one registered client's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClientId(u64);

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// Suggested client backoff before retrying, milliseconds. Scales
    /// with the backlog at rejection time.
    pub retry_after_ms: u32,
}

struct ClientQueue<T> {
    id: ClientId,
    jobs: VecDeque<T>,
}

struct Inner<T> {
    clients: Vec<ClientQueue<T>>,
    /// Round-robin cursor into `clients`.
    cursor: usize,
    inflight: usize,
    queued: usize,
    next_id: u64,
    closed: bool,
}

/// The admission controller. See the module docs for the protocol.
pub struct Admission<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    slots: usize,
    queue_depth: usize,
    retry_base_ms: u32,
}

impl<T> Admission<T> {
    /// A controller running `slots` queries concurrently, buffering at
    /// most `queue_depth` queries per client, hinting `retry_base_ms` as
    /// the unit of backoff. Both `slots` and `queue_depth` are clamped to
    /// at least 1.
    pub fn new(slots: usize, queue_depth: usize, retry_base_ms: u32) -> Admission<T> {
        Admission {
            inner: Mutex::new(Inner {
                clients: Vec::new(),
                cursor: 0,
                inflight: 0,
                queued: 0,
                next_id: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            slots: slots.max(1),
            queue_depth: queue_depth.max(1),
            retry_base_ms,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Concurrent execution slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Queries queued but not yet dispatched.
    pub fn queued(&self) -> usize {
        self.lock().queued
    }

    /// Queries currently executing.
    pub fn inflight(&self) -> usize {
        self.lock().inflight
    }

    /// Registered clients.
    pub fn clients(&self) -> usize {
        self.lock().clients.len()
    }

    /// Opens a queue for a new client.
    pub fn register(&self) -> ClientId {
        let mut inner = self.lock();
        let id = ClientId(inner.next_id);
        inner.next_id += 1;
        inner.clients.push(ClientQueue {
            id,
            jobs: VecDeque::new(),
        });
        id
    }

    /// Closes `client`'s queue, dropping its pending jobs (the
    /// connection that would carry their responses is gone).
    pub fn deregister(&self, client: ClientId) {
        let mut inner = self.lock();
        if let Some(at) = inner.clients.iter().position(|c| c.id == client) {
            let dropped = inner.clients.remove(at).jobs.len();
            inner.queued -= dropped;
            if at < inner.cursor {
                inner.cursor -= 1;
            }
        }
    }

    /// Queues a job for `client`, or rejects it when the client's queue
    /// allowance is exhausted. An unknown (deregistered) client is
    /// rejected too — its responses have nowhere to go.
    pub fn submit(&self, client: ClientId, job: T) -> Result<(), Overloaded> {
        let mut inner = self.lock();
        let backlog = inner.queued + inner.inflight;
        let Some(q) = inner.clients.iter_mut().find(|c| c.id == client) else {
            return Err(self.overloaded(backlog));
        };
        if q.jobs.len() >= self.queue_depth {
            return Err(self.overloaded(backlog));
        }
        q.jobs.push_back(job);
        inner.queued += 1;
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    fn overloaded(&self, backlog: usize) -> Overloaded {
        // Deeper backlog, longer hint: at least one base unit, plus one
        // per slots' worth of queued work ahead of the retry.
        let units = 1 + (backlog / self.slots) as u32;
        Overloaded {
            retry_after_ms: self.retry_base_ms.saturating_mul(units),
        }
    }

    /// Blocks until a job and an execution slot are both available, then
    /// dispatches the next job round-robin across client queues. Returns
    /// `None` once the controller is closed and drained. The returned
    /// [`SlotGuard`] frees the slot when dropped.
    pub fn next(&self) -> Option<(T, SlotGuard<'_, T>)> {
        let mut inner = self.lock();
        loop {
            if inner.queued > 0 && inner.inflight < self.slots {
                let job = Self::pop_round_robin(&mut inner)?;
                inner.inflight += 1;
                return Some((job, SlotGuard { adm: self }));
            }
            if inner.closed && inner.queued == 0 {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn pop_round_robin(inner: &mut Inner<T>) -> Option<T> {
        let n = inner.clients.len();
        for step in 0..n {
            let at = (inner.cursor + step) % n;
            if let Some(job) = inner.clients[at].jobs.pop_front() {
                inner.cursor = (at + 1) % n;
                inner.queued -= 1;
                return Some(job);
            }
        }
        None // queued said otherwise; unreachable but never panic here
    }

    /// Shuts the controller down: queued jobs still drain, then every
    /// blocked [`Admission::next`] returns `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Holds one execution slot; dropping it frees the slot and wakes a
/// waiting worker.
pub struct SlotGuard<'a, T> {
    adm: &'a Admission<T>,
}

impl<T> Drop for SlotGuard<'_, T> {
    fn drop(&mut self) {
        let mut inner = self.adm.lock();
        inner.inflight -= 1;
        drop(inner);
        self.adm.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn round_robin_interleaves_a_flood_with_a_single_query() {
        let adm = Admission::new(1, 16, 10);
        let flood = adm.register();
        let polite = adm.register();
        for i in 0..5 {
            adm.submit(flood, format!("flood-{i}")).unwrap();
        }
        adm.submit(polite, "polite-0".to_string()).unwrap();
        let (first, g1) = adm.next().unwrap();
        drop(g1);
        let (second, g2) = adm.next().unwrap();
        drop(g2);
        assert_eq!(first, "flood-0");
        assert_eq!(
            second, "polite-0",
            "the polite client must not wait behind the whole flood"
        );
    }

    #[test]
    fn full_queue_rejects_with_a_scaled_hint() {
        let adm = Admission::new(1, 2, 10);
        let c = adm.register();
        adm.submit(c, 1).unwrap();
        adm.submit(c, 2).unwrap();
        let rej = adm.submit(c, 3).unwrap_err();
        assert!(rej.retry_after_ms >= 30, "2 queued / 1 slot: {rej:?}");
        // Unknown clients are rejected, not queued into the void.
        let ghost = adm.register();
        adm.deregister(ghost);
        assert!(adm.submit(ghost, 4).is_err());
        assert_eq!(adm.queued(), 2);
    }

    #[test]
    fn slots_bound_concurrency() {
        let adm = Arc::new(Admission::new(2, 32, 10));
        let c = adm.register();
        for i in 0..32 {
            adm.submit(c, i).unwrap();
        }
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        adm.close(); // drain mode: workers exit when the queue empties
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (adm, peak, live) = (adm.clone(), peak.clone(), live.clone());
                std::thread::spawn(move || {
                    while let Some((_job, _slot)) = adm.next() {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "slots=2 exceeded");
        assert_eq!(adm.queued(), 0);
        assert_eq!(adm.inflight(), 0);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let adm = Arc::new(Admission::<u32>::new(1, 1, 10));
        let waiter = {
            let adm = adm.clone();
            std::thread::spawn(move || adm.next().is_none())
        };
        std::thread::sleep(Duration::from_millis(20));
        adm.close();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn deregister_drops_pending_jobs_and_keeps_cursor_sane() {
        let adm = Admission::new(4, 8, 10);
        let a = adm.register();
        let b = adm.register();
        adm.submit(a, 'a').unwrap();
        adm.submit(b, 'b').unwrap();
        adm.deregister(a);
        assert_eq!(adm.queued(), 1);
        let (job, _slot) = adm.next().unwrap();
        assert_eq!(job, 'b');
    }
}
