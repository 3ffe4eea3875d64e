//! Allocation-free counters, gauges, and log₂-bucketed histograms,
//! registered per `(name, shard)`.
//!
//! Handles are `Arc`s acquired once (at task/stage construction) from a
//! global registry; the hot-path operations are single relaxed atomic
//! instructions. The registry is a [`BTreeMap`], so snapshots iterate in
//! a deterministic order regardless of registration interleaving — a
//! `--metrics` file from a 4-thread run diffs cleanly against a 1-thread
//! run's.
//!
//! Metrics are always-on: they cannot change what a run computes, and a
//! relaxed add is cheaper than gating one.

use crate::json::{js_str, JsonObject};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depths, staged pairs).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds value 0, bucket *i* holds
/// values in `[2^(i−1), 2^i)`, and every `u64` fits.
const BUCKETS: usize = 65;

/// A fixed-size log₂ histogram (latencies in µs, batch sizes): recording
/// is one relaxed add into one of 65 buckets plus count/sum bookkeeping —
/// no allocation, no lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty `(exclusive upper bound, count)` buckets, ascending.
    /// Bucket 0 reports bound 1 (it holds only the value 0).
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (1u64.checked_shl(i as u32).unwrap_or(u64::MAX), n))
            })
            .collect()
    }
}

/// One registered metric (snapshots borrow the same handles the hot
/// paths update).
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

static REGISTRY: Mutex<BTreeMap<(&'static str, u32), Metric>> = Mutex::new(BTreeMap::new());

/// The counter registered as `(name, shard)`, created on first use. Use
/// [`NO_SHARD`](crate::event::NO_SHARD) for job-level metrics.
///
/// # Panics
///
/// Panics if `(name, shard)` is already registered as a different metric
/// kind.
#[must_use]
pub fn counter(name: &'static str, shard: u32) -> Arc<Counter> {
    let mut reg = REGISTRY.lock().expect("obs metric registry poisoned");
    let metric =
        reg.entry((name, shard)).or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
    match metric {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name} (shard {shard}) is not a counter"),
    }
}

/// The gauge registered as `(name, shard)`, created on first use.
///
/// # Panics
///
/// Panics if `(name, shard)` is already registered as a different metric
/// kind.
#[must_use]
pub fn gauge(name: &'static str, shard: u32) -> Arc<Gauge> {
    let mut reg = REGISTRY.lock().expect("obs metric registry poisoned");
    let metric =
        reg.entry((name, shard)).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
    match metric {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name} (shard {shard}) is not a gauge"),
    }
}

/// The histogram registered as `(name, shard)`, created on first use.
///
/// # Panics
///
/// Panics if `(name, shard)` is already registered as a different metric
/// kind.
#[must_use]
pub fn histogram(name: &'static str, shard: u32) -> Arc<Histogram> {
    let mut reg = REGISTRY.lock().expect("obs metric registry poisoned");
    let metric = reg
        .entry((name, shard))
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
    match metric {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name} (shard {shard}) is not a histogram"),
    }
}

/// A point-in-time view of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered metric name.
    pub name: &'static str,
    /// Shard the metric is scoped to ([`NO_SHARD`](crate::NO_SHARD) for
    /// job-level).
    pub shard: u32,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// Snapshot value of a metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram summary: observation count, sum, and non-empty
    /// `(exclusive upper bound, count)` buckets.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of all observations.
        sum: u64,
        /// Non-empty buckets, ascending by bound.
        buckets: Vec<(u64, u64)>,
    },
}

/// Snapshots every registered metric, in deterministic `(name, shard)`
/// order.
#[must_use]
pub fn snapshot_metrics() -> Vec<MetricSnapshot> {
    let reg = REGISTRY.lock().expect("obs metric registry poisoned");
    reg.iter()
        .map(|(&(name, shard), metric)| MetricSnapshot {
            name,
            shard,
            value: match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.nonzero_buckets(),
                },
            },
        })
        .collect()
}

/// Clears the registry (tests and multi-job processes).
pub fn reset_metrics() {
    REGISTRY.lock().expect("obs metric registry poisoned").clear();
}

/// Renders every registered metric as one JSON object (the `--metrics`
/// file format): a `schema` tag plus a `metrics` array of
/// `{name, shard, kind, …}` rows in deterministic order.
#[must_use]
pub fn metrics_json() -> String {
    let mut out = String::from("{\n  \"schema\": \"crowdjoin-metrics/1\",\n  \"metrics\": [\n");
    let snaps = snapshot_metrics();
    for (i, snap) in snaps.iter().enumerate() {
        let mut row = JsonObject::new();
        row.field("name", js_str(snap.name));
        row.field("shard", snap.shard.to_string());
        match &snap.value {
            MetricValue::Counter(v) => {
                row.field("kind", js_str("counter"));
                row.field("value", v.to_string());
            }
            MetricValue::Gauge(v) => {
                row.field("kind", js_str("gauge"));
                row.field("value", v.to_string());
            }
            MetricValue::Histogram { count, sum, buckets } => {
                row.field("kind", js_str("histogram"));
                row.field("count", count.to_string());
                row.field("sum", sum.to_string());
                let rendered: Vec<String> =
                    buckets.iter().map(|(le, n)| format!("[{le}, {n}]")).collect();
                row.field("buckets", format!("[{}]", rendered.join(", ")));
            }
        }
        out.push_str("    ");
        out.push_str(&row.render());
        out.push_str(if i + 1 == snaps.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_SHARD;
    use crate::recorder::tests::GLOBAL_TEST_LOCK;

    #[test]
    fn registry_is_deterministic_and_shared() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset_metrics();
        let c1 = counter("z.pairs", 1);
        let c0 = counter("a.rounds", NO_SHARD);
        let again = counter("z.pairs", 1);
        c1.add(5);
        again.add(2);
        c0.add(1);
        let snaps = snapshot_metrics();
        assert_eq!(snaps.len(), 2);
        // BTreeMap order: name first, then shard.
        assert_eq!(snaps[0].name, "a.rounds");
        assert_eq!(snaps[0].value, MetricValue::Counter(1));
        assert_eq!(snaps[1].name, "z.pairs");
        assert_eq!(snaps[1].shard, 1);
        assert_eq!(snaps[1].value, MetricValue::Counter(7));
        reset_metrics();
        assert!(snapshot_metrics().is_empty());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::default();
        h.record(0); // bucket 0, bound 1
        h.record(1); // bucket 1, bound 2
        h.record(3); // bucket 2, bound 4
        h.record(3);
        h.record(1024); // bucket 11, bound 2048
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1031);
        assert_eq!(h.nonzero_buckets(), vec![(1, 1), (2, 1), (4, 2), (2048, 1)]);
        h.record(u64::MAX); // top bucket saturates its bound
        assert_eq!(*h.nonzero_buckets().last().unwrap(), (u64::MAX, 1));
    }

    #[test]
    fn gauge_levels() {
        let g = Gauge::default();
        g.set(10);
        assert_eq!(g.get(), 10);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn json_rendering_is_stable() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset_metrics();
        counter("answers", 0).add(3);
        gauge("queue.depth", 0).set(4);
        histogram("poll.us", 0).record(100);
        let json = metrics_json();
        assert!(json.contains("\"schema\": \"crowdjoin-metrics/1\""));
        assert!(json.contains(
            "{\"name\": \"answers\", \"shard\": 0, \"kind\": \"counter\", \"value\": 3}"
        ));
        assert!(json.contains(
            "{\"name\": \"poll.us\", \"shard\": 0, \"kind\": \"histogram\", \"count\": 1, \
             \"sum\": 100, \"buckets\": [[128, 1]]}"
        ));
        reset_metrics();
    }
}
