//! Lightweight concurrent metrics: counters, log-bucketed histograms,
//! and a registry that unifies them behind one sampling surface.
//!
//! The benchmark harness and the schedulers use these to report latency
//! distributions (p50/p90/p99) without external dependencies. Histograms
//! use power-of-two buckets from 1 ns to ~2.3 hours, giving ≤ 2x relative
//! error on percentile estimates — plenty for systems benchmarking.
//!
//! [`MetricsRegistry`] is the one place a counter gets its name: the
//! crate that counts registers its stats struct's counters on it (each
//! struct's `register_metrics`), and every reader reads them back by
//! that name — a periodic sampler through [`MetricsRegistry::sample`]
//! (a deterministic, name-sorted flat list of `u64`s) into the
//! telemetry time-series table, profiles and tests through
//! [`MetricsRegistry::get`], and sums over many registries through
//! [`MetricsRegistry::read`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets (covers 1ns..2^43ns ≈ 2.4h).
const BUCKETS: usize = 44;

/// A monotonically increasing counter, safe to share across threads.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes back `n` of what was added (a count that turned out not to
    /// hold). Never more than was added.
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A concurrent log-bucketed histogram of `u64` samples (typically
/// nanoseconds).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(value: u64) -> usize {
        // Bucket b holds values in [2^b, 2^(b+1)); value 0 goes to bucket 0.
        (64 - value.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds every sample of `snap` into this histogram, bucket-wise —
    /// how per-node latency histograms fold into one cluster-wide
    /// distribution (bucket layouts are identical by construction).
    pub fn merge_snapshot(&self, snap: &Snapshot) {
        for (i, &n) in snap.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i.min(BUCKETS - 1)].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> Snapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Snapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.snapshot())
    }
}

/// An immutable view of a [`Histogram`] at one point in time.
#[derive(Clone, PartialEq, Eq)]
pub struct Snapshot {
    count: u64,
    sum: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Snapshot {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample observed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Estimates the `q`-quantile (0.0..=1.0). Returns the geometric
    /// midpoint of the bucket containing the quantile; 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = 1u64 << i;
                let hi = lo << 1;
                let mid = lo + (hi - lo) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Snapshot{{n={}, mean={:.0}, p50={}, p99={}, max={}}}",
            self.count,
            self.mean(),
            self.p50(),
            self.p99(),
            self.max
        )
    }
}

/// One registered metric source: either a single value read on demand,
/// or a histogram whose snapshot is flattened into several values.
enum Source {
    Value(Arc<dyn Fn() -> u64 + Send + Sync>),
    Histogram(Arc<dyn Fn() -> Snapshot + Send + Sync>),
}

/// What one source reads right now, before a histogram is flattened:
/// the raw form [`MetricsRegistry::read`] hands out, so readers that sum
/// registries can add values and merge histograms bucket by bucket.
#[derive(Debug)]
pub enum Reading {
    /// A counter or gauge.
    Value(u64),
    /// A histogram's snapshot.
    Histogram(Snapshot),
}

/// The suffixes a histogram source flattens into, in sample order.
const HISTOGRAM_FIELDS: [&str; 4] = ["count", "p50", "p99", "max"];

/// The one place a counter is named.
///
/// Each crate registers the counters of its own stats struct here
/// (closures over the live `Arc`'d struct), and every reader — the
/// telemetry sampler, profiles, benchmarks and tests — reads them back
/// by name. Sampling ([`MetricsRegistry::sample`]) reads every source
/// and returns a flat, **name-sorted** `(name, value)` list: the name
/// set and order are deterministic regardless of registration order or
/// concurrent recording, so consecutive samples line up column-wise
/// into a time-series. Histograms flatten into `name.count` /
/// `name.p50` / `name.p99` / `name.max` columns.
///
/// Registering a name twice replaces the earlier source (restarted
/// components re-register cleanly).
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<BTreeMap<String, Source>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a single-value source (gauge or counter) under `name`.
    pub fn register_value(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.sources
            .lock()
            .expect("metrics registry poisoned")
            .insert(name.to_string(), Source::Value(Arc::new(read)));
    }

    /// Registers a histogram source under `name`; it samples as the
    /// flattened `name.count` / `name.p50` / `name.p99` / `name.max`
    /// columns.
    pub fn register_histogram(
        &self,
        name: &str,
        snapshot: impl Fn() -> Snapshot + Send + Sync + 'static,
    ) {
        self.sources
            .lock()
            .expect("metrics registry poisoned")
            .insert(name.to_string(), Source::Histogram(Arc::new(snapshot)));
    }

    /// Number of registered sources (histograms count once).
    pub fn len(&self) -> usize {
        self.sources
            .lock()
            .expect("metrics registry poisoned")
            .len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every column name a [`MetricsRegistry::sample`] call will emit,
    /// sorted — histogram sources expand to their flattened fields.
    pub fn sample_names(&self) -> Vec<String> {
        self.sample().into_iter().map(|(name, _)| name).collect()
    }

    /// Reads every source unflattened, in name order.
    pub fn read(&self) -> Vec<(String, Reading)> {
        let sources = self.sources.lock().expect("metrics registry poisoned");
        sources
            .iter()
            .map(|(name, source)| {
                let reading = match source {
                    Source::Value(read) => Reading::Value(read()),
                    Source::Histogram(snapshot) => Reading::Histogram(snapshot()),
                };
                (name.clone(), reading)
            })
            .collect()
    }

    /// Reads every source into one flat, name-sorted `(name, value)`
    /// list. The shape (names and order) is a pure function of the
    /// registered set, so samples taken while other threads record
    /// concurrently still align column-wise.
    pub fn sample(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, reading) in self.read() {
            match reading {
                Reading::Value(value) => out.push((name, value)),
                Reading::Histogram(snap) => {
                    let values = [snap.count(), snap.p50(), snap.p99(), snap.max()];
                    for (field, value) in HISTOGRAM_FIELDS.iter().zip(values) {
                        out.push((format!("{name}.{field}"), value));
                    }
                }
            }
        }
        // Sources come name-sorted, but flattened histogram fields
        // interleave with neighbouring names ("h.count" sorts after a
        // sibling "h2" would) — sort the flat list so the column order
        // is exactly lexicographic.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The value [`MetricsRegistry::sample`] emits under `name` (a
    /// histogram's by its flattened `name.p50`-style column); `None`
    /// when no such column is registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.sample()
            .into_iter()
            .find_map(|(column, value)| (column == name).then_some(value))
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsRegistry({} sources)", self.len())
    }
}

/// Formats a nanosecond quantity as a human-readable duration.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        // p50 of uniform 1k..1M should be within 2x of 500k.
        let p50 = s.p50();
        assert!((250_000..=1_000_000).contains(&p50), "p50={p50}");
        assert!(s.p99() >= s.p50());
        assert_eq!(s.max(), 1_000_000);
        let mean = s.mean();
        assert!((mean - 500_500.0 * 1.0).abs() < 1_000.0, "mean={mean}");
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn zero_and_huge_samples_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), u64::MAX);
    }

    #[test]
    fn bucket_index_monotone() {
        let mut prev = 0;
        for shift in 0..63 {
            let idx = Histogram::bucket_index(1u64 << shift);
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn merge_snapshot_folds_distributions() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
            b.record(v * 1_000_000);
        }
        a.merge_snapshot(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.count(), 200);
        assert_eq!(s.max(), 100_000_000);
        // The merged p99 lives in b's range, the p50 straddles both.
        assert!(s.p99() >= 1_000_000);
        let empty = Histogram::new();
        empty.merge_snapshot(&Histogram::new().snapshot());
        assert_eq!(empty.snapshot().count(), 0);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for v in 0..10_000u64 {
                    h.record(v);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn registry_sample_is_name_sorted_and_flattens_histograms() {
        let registry = MetricsRegistry::new();
        let c = Arc::new(Counter::new());
        c.add(5);
        registry.register_value("z.spill.batches", move || c.get());
        registry.register_value("a.fetches", || 7);
        let h = Arc::new(Histogram::new());
        h.record(1000);
        let h2 = h.clone();
        registry.register_histogram("m.latency", move || h2.snapshot());
        assert_eq!(registry.len(), 3);

        let sample = registry.sample();
        let names: Vec<&str> = sample.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "a.fetches",
                "m.latency.count",
                "m.latency.max",
                "m.latency.p50",
                "m.latency.p99",
                "z.spill.batches",
            ]
        );
        assert_eq!(sample[0].1, 7);
        assert_eq!(sample[1].1, 1); // count
        assert_eq!(sample[2].1, 1000); // max
        assert_eq!(sample[5].1, 5);
        assert_eq!(registry.sample_names().len(), 6);

        // Read back by the column name, or raw and unflattened.
        assert_eq!(registry.get("a.fetches"), Some(7));
        assert_eq!(registry.get("m.latency.max"), Some(1000));
        assert_eq!(registry.get("m.latency"), None);
        assert_eq!(registry.get("nope"), None);
        let raw = registry.read();
        assert_eq!(raw.len(), 3);
        assert!(
            matches!(&raw[1], (name, Reading::Histogram(s)) if name == "m.latency" && s.count() == 1)
        );
    }

    #[test]
    fn registry_re_registration_replaces() {
        let registry = MetricsRegistry::new();
        registry.register_value("x", || 1);
        registry.register_value("x", || 2);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.sample(), vec![("x".to_string(), 2)]);
    }

    #[test]
    fn registry_shape_is_stable_under_concurrent_recording() {
        let registry = Arc::new(MetricsRegistry::new());
        let c = Arc::new(Counter::new());
        let hits = c.clone();
        registry.register_value("hits", move || hits.get());
        let h = Arc::new(Histogram::new());
        let h2 = h.clone();
        registry.register_histogram("lat", move || h2.snapshot());

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for _ in 0..3 {
            let c = c.clone();
            let h = h.clone();
            let stop = stop.clone();
            writers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    h.record(42);
                }
            }));
        }
        let names = registry.sample_names();
        let mut last_hits = 0;
        for _ in 0..100 {
            let sample = registry.sample();
            let got: Vec<&String> = sample.iter().map(|(n, _)| n).collect();
            assert!(got
                .iter()
                .map(|n| n.as_str())
                .eq(names.iter().map(|n| n.as_str())));
            let hits = sample
                .iter()
                .find(|(n, _)| n == "hits")
                .expect("registered")
                .1;
            assert!(hits >= last_hits, "counters are monotone across samples");
            last_hits = hits;
        }
        stop.store(true, Ordering::Relaxed);
        for t in writers {
            t.join().unwrap();
        }
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(500), "500 ns");
        assert_eq!(fmt_nanos(1_500), "1.5 µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50 ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00 s");
    }
}
