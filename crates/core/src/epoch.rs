//! Graph epochs: consistent snapshots for concurrent query serving.
//!
//! An *epoch* counts window-checkpoint boundaries: ingestion advances the
//! cluster's epoch exactly when a batch of windows has been durably
//! stored and flushed on every back-end (the PR-2 checkpoint machinery),
//! so the graph visible at any single epoch is never a half-applied
//! window.
//!
//! The [`EpochManager`] is the coordination point between readers and the
//! ingestion writer:
//!
//! - a query **pins** the current epoch ([`EpochManager::pin`]) for its
//!   whole execution, promising the serving layer that everything it
//!   reads belongs to that epoch;
//! - an updater **registers** before mutating ([`EpochManager::begin_update`]),
//!   which blocks until every pin drains or its deadline passes — and
//!   blocks *new* pins until the update finishes (writer priority, so a
//!   steady query stream can never starve ingestion);
//! - completed checkpoint boundaries **bump** the counter
//!   ([`EpochManager::bump`]); [`crate::ingest::ingest`] does this
//!   automatically after its final flush.
//!
//! Code that never pins (batch analyses over an exclusively-owned
//! cluster) pays one atomic load per ingest run and nothing else: Rust's
//! `&mut MssgCluster` already serializes those callers.

use std::sync::{Condvar, Mutex};

#[derive(Default)]
struct EpochState {
    /// Completed checkpoint boundaries since the cluster opened.
    epoch: u64,
    /// Queries currently pinned to `epoch`.
    pins: u64,
    /// An updater is waiting for pins to drain or is mutating the graph.
    updating: bool,
}

/// Epoch counter plus the pin/update gate described in the module docs.
pub struct EpochManager {
    state: Mutex<EpochState>,
    cv: Condvar,
}

impl Default for EpochManager {
    fn default() -> Self {
        EpochManager::new()
    }
}

impl EpochManager {
    /// A manager starting at epoch 0 with no pins.
    pub fn new() -> EpochManager {
        EpochManager {
            state: Mutex::new(EpochState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EpochState> {
        // A poisoned lock means a panic while holding it; the state is a
        // trio of integers with no invariant a panic can tear.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current epoch.
    pub fn current(&self) -> u64 {
        self.lock().epoch
    }

    /// Queries currently pinned (diagnostics / metrics).
    pub fn pinned(&self) -> u64 {
        self.lock().pins
    }

    /// Pins the current epoch for a query. Blocks while an update is
    /// registered or in progress, so the returned guard's epoch is stable
    /// for the guard's whole lifetime.
    pub fn pin(&self) -> EpochPin<'_> {
        let mut s = self.lock();
        while s.updating {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.pins += 1;
        EpochPin {
            mgr: self,
            epoch: s.epoch,
        }
    }

    /// Registers an update: marks the updater active (blocking new pins)
    /// and waits for in-flight pins to drain. Mutate the graph only while
    /// holding the returned guard; drop it when the mutation — including
    /// its [`bump`](EpochManager::bump) — is complete.
    ///
    /// If in-flight pins have not drained within `timeout`, the
    /// registration is rolled back (new pins unblock) and a typed
    /// [`Timeout`](mssg_types::GraphStorageError::Timeout) comes back
    /// instead of waiting forever. This is the serving plane's guard
    /// against a leaked pin — a worker stuck writing to a dead client, a
    /// panicked analysis, any bug that keeps a pin alive — turning
    /// "ingestion hangs forever" into an error the operator can see and
    /// retry.
    ///
    /// # Panics
    /// Panics if an update is already registered: updates must be
    /// serialized by the caller (the serving layer runs one ingestion at
    /// a time; batch callers hold `&mut MssgCluster`).
    pub fn begin_update(
        &self,
        timeout: std::time::Duration,
    ) -> mssg_types::Result<EpochUpdate<'_>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.lock();
        assert!(!s.updating, "concurrent epoch updates are not supported");
        s.updating = true;
        while s.pins > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                let stuck = s.pins;
                s.updating = false;
                drop(s);
                self.cv.notify_all();
                return Err(mssg_types::GraphStorageError::Timeout(format!(
                    "epoch update gate: {stuck} pin(s) still held after {timeout:?}"
                )));
            }
            let (guard, _) = self
                .cv
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
        }
        Ok(EpochUpdate { mgr: self })
    }

    /// Records a completed checkpoint boundary: the epoch advances and
    /// every waiter is woken. Called by ingestion after its final flush;
    /// legal with or without a registered update.
    pub fn bump(&self) -> u64 {
        let mut s = self.lock();
        s.epoch += 1;
        let now = s.epoch;
        drop(s);
        self.cv.notify_all();
        now
    }
}

/// A query's claim on one epoch; the graph cannot change while any pin
/// is alive. Released on drop.
pub struct EpochPin<'a> {
    mgr: &'a EpochManager,
    epoch: u64,
}

impl EpochPin<'_> {
    /// The epoch this pin holds stable.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        let mut s = self.mgr.lock();
        s.pins -= 1;
        // Only `begin_update` waits for the pins to drain, and it sets
        // `updating` under the lock before it waits; without one, a
        // notify would be a system call that wakes nobody.
        let wake = s.pins == 0 && s.updating;
        drop(s);
        if wake {
            self.mgr.cv.notify_all();
        }
    }
}

/// An updater's exclusive claim: no pins exist and none can be taken
/// until this guard drops.
pub struct EpochUpdate<'a> {
    mgr: &'a EpochManager,
}

impl Drop for EpochUpdate<'_> {
    fn drop(&mut self) {
        let mut s = self.mgr.lock();
        s.updating = false;
        drop(s);
        self.mgr.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pins_share_one_epoch_and_bump_advances() {
        let m = EpochManager::new();
        assert_eq!(m.current(), 0);
        let a = m.pin();
        let b = m.pin();
        assert_eq!((a.epoch(), b.epoch()), (0, 0));
        assert_eq!(m.pinned(), 2);
        drop((a, b));
        assert_eq!(m.bump(), 1);
        assert_eq!(m.pin().epoch(), 1);
    }

    #[test]
    fn update_waits_for_pins_and_blocks_new_ones() {
        let m = Arc::new(EpochManager::new());
        let pin = m.pin();
        let observed = Arc::new(AtomicU64::new(u64::MAX));

        let m2 = Arc::clone(&m);
        let obs2 = Arc::clone(&observed);
        let updater = std::thread::spawn(move || {
            // Blocks until the pin drops.
            let update = m2.begin_update(Duration::from_secs(10)).unwrap();
            obs2.store(m2.pinned(), Ordering::SeqCst);
            m2.bump();
            drop(update);
        });

        // The updater is parked on our pin; a late reader must see the
        // *post-update* epoch, never epoch 0 mid-mutation.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(observed.load(Ordering::SeqCst), u64::MAX, "still parked");
        drop(pin);
        let m3 = Arc::clone(&m);
        let reader = std::thread::spawn(move || m3.pin().epoch());
        updater.join().unwrap();
        assert_eq!(observed.load(Ordering::SeqCst), 0, "pins drained first");
        assert_eq!(reader.join().unwrap(), 1, "reader waited out the update");
    }

    #[test]
    fn an_update_wakes_when_its_last_pin_drops_and_not_before() {
        let m = Arc::new(EpochManager::new());
        let (first, second) = (m.pin(), m.pin());
        let updated = Arc::new(AtomicU64::new(0));
        let (m2, updated2) = (Arc::clone(&m), Arc::clone(&updated));
        let updater = std::thread::spawn(move || {
            // Its deadline is far off: only the last pin's drop wakes it.
            let update = m2.begin_update(Duration::from_secs(30)).unwrap();
            updated2.store(1, Ordering::SeqCst);
            drop(update);
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(first);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(updated.load(Ordering::SeqCst), 0, "one pin still held");
        let dropped = std::time::Instant::now();
        drop(second);
        updater.join().unwrap();
        assert_eq!(updated.load(Ordering::SeqCst), 1);
        assert!(
            dropped.elapsed() < Duration::from_secs(5),
            "woken by the drop"
        );
    }

    #[test]
    fn update_timeout_rolls_back_and_unblocks_pins() {
        let m = EpochManager::new();
        let stuck = m.pin(); // a pin that never drains
        let outcome = m.begin_update(Duration::from_millis(50));
        assert!(
            matches!(outcome, Err(mssg_types::GraphStorageError::Timeout(_))),
            "pin held; the gate must time out"
        );
        drop(outcome);
        // The failed registration rolled back: new pins proceed and a
        // later (drained) update succeeds.
        let late = m.pin();
        drop((stuck, late));
        let update = m
            .begin_update(Duration::from_millis(50))
            .expect("no pins held");
        drop(update);
    }
}
