//! Metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Hot paths touch only relaxed atomics on leaked `'static` metric
//! handles; the registry mutex is paid once per callsite (callers cache
//! the returned reference, typically in a `OnceLock`). Snapshots are
//! name-sorted so dumps are deterministic, and [`MetricsSnapshot::delta_since`]
//! supports before/after accounting without resetting live counters.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i` counts values `v` with
/// `64 - v.leading_zeros() == i`, i.e. power-of-two ranges
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros and the last bucket absorbs
/// everything above `2^(BUCKETS-1)`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Power-of-two bucketed histogram of `u64` samples (typically
/// nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Per-bucket counts; see [`HISTOGRAM_BUCKETS`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

/// Bucket index for a sample value.
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Largest sample value a bucket can hold: 0 for bucket 0, `2^i - 1` for
/// the power-of-two ranges, `u64::MAX` for the open-ended last bucket.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Counts since `base` (saturating; counters are monotonic so a
    /// negative delta only appears if the registry was swapped out).
    pub fn delta_since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, (cur, old)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&base.buckets))
        {
            *b = cur.saturating_sub(*old);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            buckets,
        }
    }

    /// Pointwise combination of two snapshots — the inverse of
    /// [`HistogramSnapshot::delta_since`], used to aggregate interval
    /// deltas back into window totals. Counts saturate (a saturated
    /// histogram stays saturated instead of wrapping back to small
    /// values); the sum wraps, matching the recording path. Merge is
    /// commutative and associative, so windows can be folded in any
    /// grouping.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, (x, y)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&other.buckets))
        {
            *b = x.saturating_add(*y);
        }
        HistogramSnapshot {
            count: self.count.saturating_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
            buckets,
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` clamped to `[0, 1]`); 0 for an empty histogram. Ranks are
    /// computed against the bucket totals in `u128`, so snapshots with
    /// saturated (`u64::MAX`) bucket counts still resolve instead of
    /// overflowing. Power-of-two buckets bound the result to within 2×
    /// of the true sample quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u128 = self.buckets.iter().map(|&b| b as u128).sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based; q = 0 selects the first.
        let rank = ((q * total as f64).ceil() as u128).clamp(1, total);
        let mut acc = 0u128;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b as u128;
            if acc >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

#[derive(Default)]
struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    histograms: Vec::new(),
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Gets or registers the counter named `name`. The handle is `'static`;
/// cache it at the callsite to avoid repeated registry locks.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry();
    if let Some(c) = reg.counters.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name,
        value: AtomicU64::new(0),
    }));
    reg.counters.push(c);
    c
}

/// Gets or registers the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry();
    if let Some(g) = reg.gauges.iter().find(|g| g.name == name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        value: AtomicI64::new(0),
    }));
    reg.gauges.push(g);
    g
}

/// Gets or registers the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry();
    if let Some(h) = reg.histograms.iter().find(|h| h.name == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        name,
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
    }));
    reg.histograms.push(h);
    h
}

/// Merge-join over two name-sorted metric lists; `combine` resolves
/// names present in both, names in only one side pass through.
fn merge_by_name<V: Clone>(
    a: &[(String, V)],
    b: &[(String, V)],
    combine: impl Fn(&V, &V) -> V,
) -> Vec<(String, V)> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0.clone(), combine(&a[i].1, &b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().cloned());
    out.extend(b[j..].iter().cloned());
    out
}

/// Name-sorted snapshot of every registered metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots the whole registry.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|c| (c.name.to_string(), c.get()))
        .collect();
    let mut gauges: Vec<(String, i64)> = reg
        .gauges
        .iter()
        .map(|g| (g.name.to_string(), g.get()))
        .collect();
    let mut histograms: Vec<(String, HistogramSnapshot)> = reg
        .histograms
        .iter()
        .map(|h| (h.name.to_string(), h.snapshot()))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

impl MetricsSnapshot {
    /// Value of a counter in the snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Change since `base`: counter and histogram counts subtract
    /// (saturating), gauges keep their current value. Metrics registered
    /// after `base` appear with their full value.
    pub fn delta_since(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(base.counter(n))))
            .collect();
        let gauges = self.gauges.clone();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let d = match base.histogram(n) {
                    Some(b) => h.delta_since(b),
                    None => h.clone(),
                };
                (n.clone(), d)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Combines two snapshots (or interval deltas) pointwise — the
    /// inverse of [`MetricsSnapshot::delta_since`]: counters add
    /// (saturating), histograms merge via
    /// [`HistogramSnapshot::merge`], gauges take the right-hand value
    /// when present (deltas carry the gauge level, not a difference, so
    /// the later sample wins). Associative, so interval windows can be
    /// folded in any grouping.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: merge_by_name(&self.counters, &other.counters, |x, y| x.saturating_add(*y)),
            gauges: merge_by_name(&self.gauges, &other.gauges, |_, y| *y),
            histograms: merge_by_name(&self.histograms, &other.histograms, |x, y| x.merge(y)),
        }
    }

    /// Serializes the snapshot as JSONL `metric` lines (one per metric,
    /// each line newline-terminated).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str("{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"");
            crate::event::escape_json_into(&mut out, name);
            let _ = writeln!(out, "\",\"value\":{v}}}");
        }
        for (name, v) in &self.gauges {
            out.push_str("{\"type\":\"metric\",\"metric\":\"gauge\",\"name\":\"");
            crate::event::escape_json_into(&mut out, name);
            let _ = writeln!(out, "\",\"value\":{v}}}");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"metric\",\"metric\":\"histogram\",\"name\":\"");
            crate::event::escape_json_into(&mut out, name);
            let _ = write!(
                out,
                "\",\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            );
            // Trailing zero buckets are elided to keep lines short; the
            // reader treats missing buckets as zero.
            let last = h
                .buckets
                .iter()
                .rposition(|&b| b != 0)
                .map(|i| i + 1)
                .unwrap_or(0);
            for (i, b) in h.buckets[..last].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = counter("test.metrics.counter_basics");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name returns the same leaked handle.
        assert!(std::ptr::eq(c, counter("test.metrics.counter_basics")));

        let g = gauge("test.metrics.gauge_basics");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_power_of_two_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = histogram("test.metrics.hist_buckets");
        let base = h.snapshot();
        for v in [0, 1, 3, 1024, u64::MAX] {
            h.record(v);
        }
        let d = h.snapshot().delta_since(&base);
        assert_eq!(d.count, 5);
        assert_eq!(d.buckets[0], 1);
        assert_eq!(d.buckets[1], 1);
        assert_eq!(d.buckets[2], 1);
        assert_eq!(d.buckets[11], 1);
        assert_eq!(d.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn snapshot_delta_and_jsonl() {
        let c = counter("test.metrics.snap_counter");
        let h = histogram("test.metrics.snap_hist");
        let base = snapshot();
        c.add(3);
        h.record(7);
        let now = snapshot();
        let d = now.delta_since(&base);
        assert_eq!(d.counter("test.metrics.snap_counter"), 3);
        assert_eq!(d.histogram("test.metrics.snap_hist").unwrap().count, 1);

        let jsonl = d.to_jsonl();
        let line = jsonl
            .lines()
            .find(|l| l.contains("test.metrics.snap_counter"))
            .unwrap();
        let v = crate::json::parse(line).unwrap();
        assert_eq!(
            v.get("metric").and_then(crate::json::Json::as_str),
            Some("counter")
        );
        assert_eq!(v.get("value").and_then(crate::json::Json::as_u64), Some(3));
        // Counter names come out sorted within their section.
        let counter_names: Vec<String> = d.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = counter_names.clone();
        sorted.sort();
        assert_eq!(counter_names, sorted);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn quantile_with_single_bucket_returns_its_upper_bound() {
        // All mass in one bucket: every quantile lands on that bucket.
        let mut h = HistogramSnapshot {
            count: 9,
            ..Default::default()
        };
        h.buckets[bucket_index(100)] = 9;
        let ub = bucket_upper_bound(bucket_index(100));
        assert_eq!(ub, 127);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), ub, "q={q}");
        }
        // Bucket 0 holds only the value 0.
        let mut z = HistogramSnapshot {
            count: 1,
            ..Default::default()
        };
        z.buckets[0] = 1;
        assert_eq!(z.quantile(1.0), 0);
        // The open-ended last bucket reports u64::MAX.
        let mut top = HistogramSnapshot {
            count: 1,
            ..Default::default()
        };
        top.buckets[HISTOGRAM_BUCKETS - 1] = 1;
        assert_eq!(top.quantile(0.5), u64::MAX);
    }

    #[test]
    fn quantile_survives_saturating_counts() {
        // Bucket totals beyond u64::MAX must not overflow the rank
        // arithmetic: ranks accumulate in u128.
        let mut h = HistogramSnapshot {
            count: u64::MAX,
            ..Default::default()
        };
        h.buckets[3] = u64::MAX;
        h.buckets[7] = u64::MAX;
        assert_eq!(h.quantile(0.0), bucket_upper_bound(3));
        assert_eq!(h.quantile(0.25), bucket_upper_bound(3));
        assert_eq!(h.quantile(0.75), bucket_upper_bound(7));
        assert_eq!(h.quantile(1.0), bucket_upper_bound(7));
    }

    #[test]
    fn histogram_merge_saturates_and_inverts_delta() {
        let mut a = HistogramSnapshot {
            count: u64::MAX - 1,
            sum: 10,
            ..Default::default()
        };
        a.buckets[2] = u64::MAX - 1;
        let mut b = HistogramSnapshot {
            count: 5,
            sum: 7,
            ..Default::default()
        };
        b.buckets[2] = 5;
        let m = a.merge(&b);
        assert_eq!(m.count, u64::MAX, "count saturates");
        assert_eq!(m.buckets[2], u64::MAX, "buckets saturate");
        assert_eq!(m.sum, 17);

        // merge is the inverse of delta_since away from saturation.
        let mut base = HistogramSnapshot {
            count: 4,
            sum: 40,
            ..Default::default()
        };
        base.buckets[5] = 4;
        let mut cur = base.clone();
        cur.count += 3;
        cur.sum += 21;
        cur.buckets[5] += 2;
        cur.buckets[6] += 1;
        assert_eq!(base.merge(&cur.delta_since(&base)), cur);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        fn snap(entries: &[(&str, u64)], gauges: &[(&str, i64)]) -> MetricsSnapshot {
            let mut h = HistogramSnapshot::default();
            for (_, v) in entries {
                h.count += 1;
                h.sum = h.sum.wrapping_add(*v);
                h.buckets[bucket_index(*v)] += 1;
            }
            MetricsSnapshot {
                counters: entries
                    .iter()
                    .map(|(n, v)| (format!("c.{n}"), *v))
                    .collect(),
                gauges: gauges.iter().map(|(n, v)| ((*n).to_string(), *v)).collect(),
                histograms: vec![("h.shared".to_string(), h)],
            }
        }
        // Overlapping and disjoint names across the three operands.
        let a = snap(&[("alpha", 1), ("both", 10)], &[("g.depth", 3)]);
        let b = snap(&[("beta", u64::MAX), ("both", 5)], &[("g.depth", -1)]);
        let c = snap(&[("both", u64::MAX), ("gamma", 2)], &[("g.other", 9)]);
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right);
        // Saturation behaves, and gauges are last-writer-wins.
        assert_eq!(left.counter("c.both"), u64::MAX);
        let depth = left.gauges.iter().find(|(n, _)| n == "g.depth").unwrap().1;
        assert_eq!(depth, -1);
        // Name lists stay sorted after merging disjoint sets.
        let names: Vec<&String> = left.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
