//! The metrics registry: named atomic counters, gauges, and fixed-bucket
//! latency histograms.
//!
//! Design goals, in order:
//!
//! 1. **Hot paths touch only atomics.** A caller resolves a metric name to
//!    an `Arc` handle once (per query, per connection, per pool) and then
//!    increments without locks or allocation.
//! 2. **One process-wide registry.** Like the engine's log sink, metrics
//!    are process scoped: every layer (VM, IPC, pool, SQL, net) feeds the
//!    same [`global`] registry, so one snapshot shows the whole cost
//!    picture the paper's Table 1 and Figures 4–8 break down per backend.
//! 3. **Snapshots are plain data.** [`MetricsSnapshot`] is `Clone` +
//!    comparable, renders itself as text, and is small enough to ship over
//!    the wire protocol's stats request.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (pool occupancy, open connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, in microseconds) of the fixed latency buckets.
/// Spans 1 µs – 10 s, roughly logarithmic — wide enough for a native UDF
/// call (sub-µs rounds to the first bucket) and a cross-process crossing
/// alike. The final implicit bucket is +∞.
pub const BUCKET_BOUNDS_US: [u64; 18] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    1_000_000, 10_000_000,
];

const N_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1; // + overflow

/// A fixed-bucket histogram of durations, recorded in microseconds.
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one duration.
    #[inline]
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one duration given in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(N_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_us: u64,
    pub max_us: u64,
    /// Per-bucket counts, parallel to [`BUCKET_BOUNDS_US`] plus a final
    /// overflow bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Upper-bound estimate of the given quantile (0.0–1.0) from the
    /// bucket boundaries; the overflow bucket reports the observed max.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS_US.get(i).copied().unwrap_or(self.max_us);
            }
        }
        self.max_us
    }
}

/// Point-in-time copy of every metric in a registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a named counter (0 if absent — counters spring into being
    /// on first touch).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Value of a named gauge (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Snapshot of a named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Sum of every counter whose name starts with `prefix` — e.g.
    /// `sum_counters("udf.invocations.")` totals invocations across all
    /// execution designs.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// Text rendering, one metric per line, stable order — the format the
    /// wire stats request and the CLI surface.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter {name} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge {name} {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "histogram {name} count={} mean_us={} p50_us={} p99_us={} max_us={}",
                h.count,
                h.mean_us(),
                h.quantile_us(0.50),
                h.quantile_us(0.99),
                h.max_us,
            )?;
        }
        Ok(())
    }
}

/// A named collection of metrics. Use [`global`] unless you need an
/// isolated registry (tests).
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter with this name. Resolve once, then hold
    /// the `Arc` — the lookup takes a lock, the increments do not.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the gauge with this name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get or create the histogram with this name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Copy out every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The metric named `name` in `map`, created on first use. A lookup that
/// finds it allocates nothing; only a miss copies the name into the map.
fn get_or_create<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(metric) = map.get(name) {
        return Arc::clone(metric);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// The process-wide registry every Jaguar layer reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("x.count");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("x.count").get(), 5, "same handle by name");
        let g = r.gauge("x.gauge");
        g.add(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        g.set(-7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x.count"), 5);
        assert_eq!(snap.gauge("x.gauge"), -7);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for us in [1, 3, 8, 120, 900, 40_000] {
            h.observe_us(us);
        }
        h.observe(std::time::Duration::from_micros(50_000_000)); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.max_us, 50_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 7);
        assert!(s.quantile_us(0.5) <= 250, "{s:?}");
        assert_eq!(s.quantile_us(1.0), 50_000_000);
        assert!(s.mean_us() > 0);
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_us(0.99), 0);
        assert_eq!(empty.mean_us(), 0);
    }

    #[test]
    fn snapshot_renders_and_sums_prefixes() {
        let r = Registry::new();
        r.counter("udf.invocations.cpp").add(2);
        r.counter("udf.invocations.jsm").add(3);
        r.histogram("q.latency_us").observe_us(10);
        let snap = r.snapshot();
        assert_eq!(snap.sum_counters("udf.invocations."), 5);
        let text = snap.to_string();
        assert!(text.contains("counter udf.invocations.cpp 2"), "{text}");
        assert!(text.contains("histogram q.latency_us count=1"), "{text}");
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.global").inc();
        assert!(global().snapshot().counter("obs.test.global") >= 1);
    }
}
