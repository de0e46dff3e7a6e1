//! Metrics: named counters, gauges, and log2-bucketed histograms, with
//! snapshotting and cross-node merging.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one per possible bit length of a `u64`
/// (0..=64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter handle. Cloning shares the counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // racecheck: metric counter — no reader orders memory on it.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // racecheck: approximate metric read.
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable signed value. Cloning shares the gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        // racecheck: metric gauge — no reader orders memory on it.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        // racecheck: metric gauge — no reader orders memory on it.
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // racecheck: approximate metric read.
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram handle. Bucket `0` holds the value `0`;
/// bucket `b > 0` holds values in `[2^(b-1), 2^b)` — i.e. values of bit
/// length `b`. Cloning shares the histogram.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Index of the bucket holding `value`: its bit length.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive `(low, high)` bounds of bucket `index`. Indices past the
    /// last bucket saturate to the last bucket's bounds, so callers
    /// iterating hostile (deserialized) snapshots can never overflow the
    /// shift.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 0),
            b if b >= HISTOGRAM_BUCKETS - 1 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), (1 << b) - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        // racecheck: histogram cells tear across fields by design — a
        // snapshot may catch the bucket without the count; tolerated.
        self.0.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time copy. Trailing empty buckets are trimmed so
    /// snapshots stay small to ship between nodes.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // racecheck: approximate snapshot, see record() — fields may tear.
        let mut buckets: Vec<u64> = (0..HISTOGRAM_BUCKETS)
            .map(|i| self.0.buckets[i].load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            buckets,
            // racecheck: approximate, may tear against the buckets above.
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
///
/// `buckets` holds the occupied log2-bucket prefix: trailing empty
/// buckets are trimmed, so two snapshots of different lengths are still
/// mergeable (missing buckets count as zero).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per log2 bucket (possibly shorter than
    /// [`HISTOGRAM_BUCKETS`]; absent trailing buckets are empty).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucketwise sum of two snapshots. Handles mismatched bucket
    /// lengths (shorter snapshot is zero-extended) and saturates instead
    /// of overflowing on adversarial inputs.
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(other.buckets.len());
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let mut buckets: Vec<u64> = (0..len)
            .map(|i| at(&self.buckets, i).saturating_add(at(&other.buckets, i)))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
        }
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.1}", self.count, self.mean())?;
        for (i, n) in self.buckets.iter().enumerate() {
            if *n > 0 {
                let (lo, hi) = Histogram::bucket_bounds(i);
                write!(f, " [{lo},{hi}]:{n}")?;
            }
        }
        Ok(())
    }
}

#[derive(Clone, Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Handle>>,
}

/// A registry of named metrics. Cloning shares the registry; handles
/// returned by the accessors are cheap `Arc` clones, so hot paths look a
/// metric up once and keep the handle.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it if absent.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.inner.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Handle::Counter(Counter::default()))
        {
            Handle::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the gauge named `name`, registering it if absent.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.inner.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Handle::Gauge(Gauge::default()))
        {
            Handle::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the histogram named `name`, registering it if absent.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.inner.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Handle::Histogram(Histogram::default()))
        {
            Handle::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.inner.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, handle) in m.iter() {
            match handle {
                Handle::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Handle::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Handle::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], mergeable across
/// simulated cluster nodes like `IoSnapshot::merged`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Union of two snapshots: counters and gauges sum, histograms merge
    /// bucketwise.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in &other.counters {
            *out.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *out.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            let entry = out.histograms.entry(name.clone()).or_default();
            *entry = entry.merged(h);
        }
        out
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter {name} = {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge {name} = {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(f, "histogram {name}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for b in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_index(lo), b, "low bound of bucket {b}");
            assert_eq!(Histogram::bucket_index(hi), b, "high bound of bucket {b}");
            if b > 0 {
                assert_eq!(Histogram::bucket_bounds(b - 1).1, lo.wrapping_sub(1));
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.sum, 1050);
        assert_eq!(s.buckets[0], 1); // {0}
        assert_eq!(s.buckets[1], 2); // {1}
        assert_eq!(s.buckets[2], 2); // {2,3}
        assert_eq!(s.buckets[3], 2); // {4..7}
        assert_eq!(s.buckets[4], 1); // {8..15}
        assert_eq!(s.buckets[11], 1); // {1024..2047}
        assert!((s.mean() - 1050.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_bounds_saturates_past_last_bucket() {
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        // Hostile indices (e.g. from a deserialized snapshot with too
        // many buckets) must not overflow the shift.
        assert_eq!(Histogram::bucket_bounds(65), (1 << 63, u64::MAX));
        assert_eq!(Histogram::bucket_bounds(usize::MAX), (1 << 63, u64::MAX));
    }

    #[test]
    fn snapshot_trims_trailing_empty_buckets() {
        let h = Histogram::default();
        h.record(5); // bucket 3
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 4);
        assert_eq!(s.buckets, vec![0, 0, 0, 1]);
        let empty = Histogram::default().snapshot();
        assert!(empty.buckets.is_empty());
        assert_eq!(empty, HistogramSnapshot::default());
    }

    #[test]
    fn merged_handles_mismatched_bucket_lengths() {
        let a = Histogram::default();
        a.record(1); // bucket 1 -> len 2
        let b = Histogram::default();
        b.record(1024); // bucket 11 -> len 12
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.count, 2);
        assert_eq!(m.sum, 1025);
        assert_eq!(m.buckets.len(), 12);
        assert_eq!(m.buckets[1], 1);
        assert_eq!(m.buckets[11], 1);
        // Merge is symmetric in length handling.
        assert_eq!(m, b.snapshot().merged(&a.snapshot()));
    }

    #[test]
    fn merged_empty_vs_nonempty_is_identity() {
        let h = Histogram::default();
        for v in [0, 3, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.merged(&s), s);
        assert_eq!(s.merged(&empty), s);
        assert_eq!(empty.merged(&empty), empty);
    }

    #[test]
    fn merged_saturates_instead_of_overflowing() {
        let a = HistogramSnapshot {
            buckets: vec![u64::MAX],
            count: u64::MAX,
            sum: u64::MAX,
        };
        let m = a.merged(&a);
        assert_eq!(m.count, u64::MAX);
        assert_eq!(m.sum, u64::MAX);
        assert_eq!(m.buckets[0], u64::MAX);
    }

    #[test]
    fn registry_reuses_handles() {
        let r = MetricsRegistry::new();
        r.counter("x").inc();
        r.counter("x").add(2);
        assert_eq!(r.counter("x").get(), 3);
        r.gauge("g").set(-5);
        assert_eq!(r.gauge("g").get(), -5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn merge_across_threads() {
        let r = MetricsRegistry::new();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.counter("work");
                    let h = r.histogram("sizes");
                    for j in 0..100 {
                        c.inc();
                        h.record(i * 100 + j);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters["work"], 400);
        assert_eq!(snap.histograms["sizes"].count, 400);

        // Merging two disjoint node snapshots behaves like one registry
        // that saw both loads.
        let r2 = MetricsRegistry::new();
        r2.counter("work").add(10);
        r2.counter("other").inc();
        r2.histogram("sizes").record(7);
        let merged = snap.merged(&r2.snapshot());
        assert_eq!(merged.counters["work"], 410);
        assert_eq!(merged.counters["other"], 1);
        assert_eq!(merged.histograms["sizes"].count, 401);
        assert_eq!(
            merged.histograms["sizes"].buckets[3],
            snap.histograms["sizes"].buckets[3] + 1
        );
    }

    #[test]
    fn display_lists_everything() {
        let r = MetricsRegistry::new();
        r.counter("c").inc();
        r.gauge("g").set(2);
        r.histogram("h").record(5);
        let text = r.snapshot().to_string();
        assert!(text.contains("counter c = 1"));
        assert!(text.contains("gauge g = 2"));
        assert!(text.contains("histogram h: n=1"));
    }
}
