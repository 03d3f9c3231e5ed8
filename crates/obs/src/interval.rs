//! Interval time-series over the metrics registry.
//!
//! Cumulative counters answer "how much since boot"; operators and the
//! streaming telemetry path need "how much since the last look". An
//! [`IntervalSeries`] owns a baseline [`MetricsSnapshot`] and a
//! fixed-capacity ring of per-interval deltas: each call to
//! [`IntervalSeries::sample`] snapshots the registry, subtracts the
//! baseline, pushes the delta (dropping the oldest interval when the
//! ring is full) and advances the baseline. Consumers read rates and
//! short histories from the ring instead of diffing lifetime totals
//! themselves.
//!
//! The metric *recording* hot path (counter adds, histogram records) is
//! untouched — it stays relaxed-atomic and allocation-free. Sampling is
//! the slow periodic path (the daemon's telemetry push loop, a test
//! harness tick) and is the only place this module allocates.
//!
//! Ring slots are totally ordered by `seq`; `seq` values are never
//! reused, so a consumer that remembers the last `seq` it saw can tell
//! exactly how many intervals it missed after falling behind
//! ([`IntervalSeries::dropped`] counts evictions globally).

use crate::metrics::{self, MetricsSnapshot};
use std::collections::VecDeque;

/// One interval: the change in every metric between two consecutive
/// samples.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Monotonic sample number, starting at 0; never reused.
    pub seq: u64,
    /// Metric deltas over the interval (counters/histogram counts are
    /// differences; gauges carry the level at sample time).
    pub delta: MetricsSnapshot,
}

/// Fixed-capacity ring of periodic snapshot deltas (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct IntervalSeries {
    capacity: usize,
    base: MetricsSnapshot,
    ring: VecDeque<IntervalSample>,
    next_seq: u64,
    dropped: u64,
}

impl IntervalSeries {
    /// Creates a series keeping at most `capacity` intervals
    /// (`capacity` is clamped to at least 1). The baseline starts
    /// empty, so the first sample reports every metric at its full
    /// cumulative value.
    pub fn new(capacity: usize) -> IntervalSeries {
        let capacity = capacity.max(1);
        IntervalSeries {
            capacity,
            base: MetricsSnapshot::default(),
            ring: VecDeque::with_capacity(capacity),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Creates a series whose baseline is `base`, so the first sample
    /// reports changes since that snapshot rather than since boot.
    pub fn with_base(capacity: usize, base: MetricsSnapshot) -> IntervalSeries {
        let mut s = IntervalSeries::new(capacity);
        s.base = base;
        s
    }

    /// Maximum number of intervals retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of intervals currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no interval has been sampled yet (or all were
    /// evicted — impossible while `capacity >= 1`).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total number of intervals evicted to make room (drop-oldest).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sequence number the next sample will get; equivalently the
    /// total number of samples taken so far.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Samples the global metrics registry and records the interval
    /// since the previous sample. Returns the new interval.
    pub fn sample(&mut self) -> &IntervalSample {
        self.sample_from(metrics::snapshot())
    }

    /// Records the interval between the current baseline and `snap`,
    /// then makes `snap` the new baseline. Deterministic variant of
    /// [`IntervalSeries::sample`] for tests and replay harnesses that
    /// construct snapshots by hand.
    pub fn sample_from(&mut self, snap: MetricsSnapshot) -> &IntervalSample {
        let delta = snap.delta_since(&self.base);
        self.base = snap;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push_back(IntervalSample { seq, delta });
        // Just pushed; the ring cannot be empty.
        self.ring.back().expect("ring is non-empty after push")
    }

    /// Most recent interval, if any.
    pub fn latest(&self) -> Option<&IntervalSample> {
        self.ring.back()
    }

    /// Retained intervals, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &IntervalSample> {
        self.ring.iter()
    }

    /// Folds every retained interval into one snapshot covering the
    /// whole window ([`MetricsSnapshot::merge`] is associative, so this
    /// equals the delta between the window's endpoints away from
    /// saturation).
    pub fn window(&self) -> MetricsSnapshot {
        self.ring
            .iter()
            .fold(MetricsSnapshot::default(), |acc, s| acc.merge(&s.delta))
    }

    /// Per-interval history of one counter, oldest first (0 for
    /// intervals where the counter was absent).
    pub fn counter_history(&self, name: &str) -> Vec<u64> {
        self.ring.iter().map(|s| s.delta.counter(name)).collect()
    }

    /// Rate of a counter over the latest interval, given the interval
    /// length in seconds; `None` before the first sample or for a
    /// non-positive `dt_s`.
    pub fn rate(&self, name: &str, dt_s: f64) -> Option<f64> {
        if dt_s <= 0.0 {
            return None;
        }
        self.latest().map(|s| s.delta.counter(name) as f64 / dt_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn snap(counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters
                .iter()
                .map(|(n, v)| ((*n).to_string(), *v))
                .collect(),
            gauges: vec![("g.level".to_string(), counters.len() as i64)],
            histograms: vec![("h.lat".to_string(), HistogramSnapshot::default())],
        }
    }

    #[test]
    fn samples_report_deltas_not_cumulatives() {
        let mut s = IntervalSeries::new(4);
        s.sample_from(snap(&[("c.ticks", 10)]));
        let last = s.sample_from(snap(&[("c.ticks", 25)]));
        assert_eq!(last.seq, 1);
        assert_eq!(last.delta.counter("c.ticks"), 15);
        // First sample saw the full cumulative value.
        assert_eq!(s.counter_history("c.ticks"), vec![10, 15]);
        assert_eq!(s.rate("c.ticks", 0.5), Some(30.0));
        assert_eq!(s.rate("c.ticks", 0.0), None);
    }

    #[test]
    fn ring_drops_oldest_and_keeps_seq_monotonic() {
        let mut s = IntervalSeries::new(2);
        for i in 1..=5u64 {
            s.sample_from(snap(&[("c.ticks", i * 10)]));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.next_seq(), 5);
        let seqs: Vec<u64> = s.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        // Retained deltas are the last two 10-unit increments.
        assert_eq!(s.counter_history("c.ticks"), vec![10, 10]);
    }

    #[test]
    fn window_fold_matches_endpoint_delta() {
        let base = snap(&[("c.a", 5), ("c.b", 100)]);
        let mut series = IntervalSeries::with_base(8, base.clone());
        let mid = snap(&[("c.a", 9), ("c.b", 140)]);
        let end = snap(&[("c.a", 20), ("c.b", 141)]);
        series.sample_from(mid);
        series.sample_from(end.clone());
        let window = series.window();
        let direct = end.delta_since(&base);
        assert_eq!(window.counters, direct.counters);

        // A zero-capacity request still retains one interval.
        let mut s = IntervalSeries::new(0);
        assert_eq!(s.capacity(), 1);
        s.sample_from(snap(&[("c.a", 1)]));
        assert!(!s.is_empty());
        assert_eq!(s.latest().unwrap().seq, 0);
    }

    #[test]
    fn sampling_the_global_registry_is_quiescent_safe() {
        let c = crate::metrics::counter("test.interval.global_counter");
        let mut s = IntervalSeries::new(2);
        s.sample();
        c.add(7);
        let last = s.sample();
        assert!(last.delta.counter("test.interval.global_counter") >= 7);
    }
}
