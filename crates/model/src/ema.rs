//! Exponential moving average used to smooth measured utility and power
//! (paper §5.1: smoothing factor 0.1).

/// An exponential moving average: `s ← α·x + (1−α)·s`.
///
/// The paper applies α = 0.1 to utility and power measurements, which
/// "stabilizes short-term fluctuations while adapting to significant shifts
/// in application behavior".
///
/// # Example
///
/// ```
/// use harp_model::Ema;
/// let mut ema = Ema::new(0.1);
/// assert_eq!(ema.update(10.0), 10.0); // first sample initializes
/// let s = ema.update(20.0);
/// assert!((s - 11.0).abs() < 1e-12); // 0.1·20 + 0.9·10
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ema {
    alpha: f64,
    value: Option<f64>,
}

impl Ema {
    /// Creates an EMA with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "smoothing factor must be in (0, 1]"
        );
        Ema { alpha, value: None }
    }

    /// The paper's configuration (α = 0.1).
    pub fn paper_default() -> Self {
        Ema::new(0.1)
    }

    /// Feeds one sample and returns the new smoothed value. The first
    /// sample initializes the average.
    pub fn update(&mut self, sample: f64) -> f64 {
        let next = match self.value {
            Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
            None => sample,
        };
        self.value = Some(next);
        next
    }

    /// The current smoothed value, if any sample has arrived.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Discards all state (e.g. when an application enters a new phase).
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ema::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(4.0), 4.0);
        assert_eq!(e.value(), Some(4.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ema::paper_default();
        e.update(0.0);
        let mut last = 0.0;
        for _ in 0..200 {
            last = e.update(10.0);
        }
        assert!((last - 10.0).abs() < 1e-6);
    }

    #[test]
    fn smooths_noise_but_tracks_shift() {
        let mut e = Ema::paper_default();
        // Noisy signal around 5.0.
        for i in 0..100 {
            let noise = if i % 2 == 0 { 1.0 } else { -1.0 };
            e.update(5.0 + noise);
        }
        let settled = e.value().unwrap();
        assert!((settled - 5.0).abs() < 0.15, "settled at {settled}");
        // Behaviour shift to 15.0: tracked within a few tens of samples.
        for _ in 0..50 {
            e.update(15.0);
        }
        assert!((e.value().unwrap() - 15.0).abs() < 0.1);
    }

    #[test]
    fn alpha_one_is_passthrough() {
        let mut e = Ema::new(1.0);
        e.update(1.0);
        assert_eq!(e.update(9.0), 9.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut e = Ema::new(0.3);
        e.update(2.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.update(7.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn invalid_alpha_panics() {
        let _ = Ema::new(0.0);
    }
}
