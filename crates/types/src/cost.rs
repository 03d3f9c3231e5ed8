//! The energy-utility cost function (paper §4.2.2, Eq. 2).

/// Computes the energy-utility cost `ζ` of an operating point (paper Eq. 2):
///
/// ```text
/// ζ = (p / v*) · (1 / v*)        with   v* = v / v_max
/// ```
///
/// The formula is an adaptation of the Energy-Delay Product: assuming utility
/// is inversely proportional to delay, `p / v*` plays the role of energy per
/// unit of work and the second factor weights it by the (relative) delay.
/// Lower is better.
///
/// Degenerate inputs are mapped to `f64::INFINITY` (a point that performs no
/// useful work can never be preferable), keeping the allocator total-order
/// safe without `NaN`s.
///
/// # Example
///
/// ```
/// use harp_types::energy_utility_cost;
/// // Running at maximum utility: cost equals power.
/// assert_eq!(energy_utility_cost(4.0, 10.0, 4.0), 10.0);
/// // Half utility at the same power: 4x the cost (EDP-like quadratic).
/// assert_eq!(energy_utility_cost(2.0, 10.0, 4.0), 40.0);
/// // No useful work: infinite cost.
/// assert!(energy_utility_cost(0.0, 10.0, 4.0).is_infinite());
/// ```
pub fn energy_utility_cost(utility: f64, power: f64, v_max: f64) -> f64 {
    // NaN inputs fall through to infinite cost, like non-positive ones.
    let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !positive(utility) || !positive(v_max) || !power.is_finite() {
        return f64::INFINITY;
    }
    let v_star = utility / v_max;
    (power / v_star) * (1.0 / v_star)
}

/// An energy-utility cost paired with the normalized utility it was computed
/// from — useful when callers also need the relative performance of a point
/// (e.g. for reporting or tie-breaking).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedCost {
    /// Energy-utility cost `ζ` (lower is better).
    pub zeta: f64,
    /// Normalized utility `v* = v / v_max` in `(0, 1]` for valid points.
    pub v_star: f64,
}

impl NormalizedCost {
    /// Computes cost and normalized utility together.
    pub fn compute(utility: f64, power: f64, v_max: f64) -> Self {
        let zeta = energy_utility_cost(utility, power, v_max);
        let v_star = if v_max > 0.0 { utility / v_max } else { 0.0 };
        NormalizedCost { zeta, v_star }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_edp_like() {
        // Doubling power doubles cost.
        let c1 = energy_utility_cost(1.0, 5.0, 1.0);
        let c2 = energy_utility_cost(1.0, 10.0, 1.0);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
        // Halving utility quadruples cost (delay enters twice).
        let c3 = energy_utility_cost(0.5, 5.0, 1.0);
        assert!((c3 / c1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_infinite_not_nan() {
        for &(v, p, vm) in &[
            (0.0, 1.0, 1.0),
            (-1.0, 1.0, 1.0),
            (1.0, 1.0, 0.0),
            (f64::NAN, 1.0, 1.0),
            (1.0, f64::NAN, 1.0),
            (1.0, f64::INFINITY, 1.0),
        ] {
            let c = energy_utility_cost(v, p, vm);
            assert!(c.is_infinite() && c > 0.0, "({v},{p},{vm}) -> {c}");
        }
    }

    #[test]
    fn normalized_cost_carries_v_star() {
        let n = NormalizedCost::compute(2.0, 8.0, 4.0);
        assert!((n.v_star - 0.5).abs() < 1e-12);
        assert!((n.zeta - 32.0).abs() < 1e-12);
    }

    #[test]
    fn lower_power_same_utility_is_cheaper() {
        let fast_hot = energy_utility_cost(10.0, 30.0, 10.0);
        let fast_cool = energy_utility_cost(10.0, 12.0, 10.0);
        assert!(fast_cool < fast_hot);
    }
}
