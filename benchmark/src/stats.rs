//! Order statistics over samples kept in memory.

/// Sorts in place and returns the median (mean of the two middle values
/// for an even count; 0 for an empty slice).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile a sample count supports: p99 needs ten samples beyond
/// it, i.e. 1000; a smaller pool reports the highest quantile that still
/// has ten samples beyond, and a pool under 20 reports its maximum.
pub fn tail_q(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else if n >= 20 {
        1.0 - 10.0 / n as f64
    } else {
        1.0
    }
}

/// Median and supported tail of a sample pool, in the pool's unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// The quantile `tail` was read at (see [`tail_q`]).
    pub tail_q: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let q = tail_q(v.len());
    Summary {
        n: v.len(),
        p50: quantile(&v, 0.5),
        tail: quantile(&v, q),
        tail_q: q,
    }
}

/// The tail of an operation latency over a run's repetitions: each
/// repetition's samples are read at the quantile their count supports
/// ([`tail_q`]) and the median of those readings is reported, with the
/// lowest quantile used. Machine hiccups cluster in time; pooled, one bad
/// second moves a p99 backed by twenty samples a long way, while here it
/// moves one reading of five.
pub fn tail_over_reps(reps: &[Vec<f64>]) -> (f64, f64) {
    let mut readings = Vec::with_capacity(reps.len());
    let mut q_min = 1.0f64;
    for samples in reps.iter().filter(|r| !r.is_empty()) {
        let mut v = samples.clone();
        v.sort_by(f64::total_cmp);
        let q = tail_q(v.len());
        q_min = q_min.min(q);
        readings.push(quantile(&v, q));
    }
    (median(&mut readings), q_min)
}

/// Median with the range beside it, for values taken once per repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reps {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Reps {
    /// Range over the median, in percent.
    pub fn spread_pct(&self) -> f64 {
        (self.max - self.min) / self.median * 100.0
    }
}

pub fn reps(values: &[f64]) -> Reps {
    let mut v = values.to_vec();
    let median = median(&mut v);
    Reps {
        median,
        min: v.first().copied().unwrap_or(0.0),
        max: v.last().copied().unwrap_or(0.0),
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_over_reps_shrugs_off_one_bad_repetition() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut noisy = calm.clone();
        noisy.iter_mut().skip(80).for_each(|x| *x *= 10.0);
        let (tail, q) = tail_over_reps(&[calm.clone(), noisy, calm.clone()]);
        assert_eq!(q, 0.9);
        assert_eq!(tail, 90.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(5000), 0.99);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(14), 1.0);
    }
}
