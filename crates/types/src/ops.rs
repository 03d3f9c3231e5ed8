//! Operating points: the primary data structure linking the HARP RM and
//! `libharp` (paper §4.1.2).

use crate::{energy_utility_cost, ExtResourceVector, HarpError, ResourceVector, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an operating point within one application's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Non-functional characteristics of an operating point (paper §4.2.1).
///
/// HARP deliberately uses *instant* metrics rather than end-to-end execution
/// time and energy:
///
/// * `utility` — useful work per second. Generic applications report
///   Instructions Per Second (IPS, via perf); applications with their own
///   notion of progress report e.g. transactions or frames per second.
/// * `power` — the power (in watts) attributed to the application while
///   running in this configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NonFunctional {
    /// Useful work per second (IPS or application-specific).
    pub utility: f64,
    /// Attributed power draw in watts.
    pub power: f64,
}

impl NonFunctional {
    /// Creates a characteristics record.
    pub fn new(utility: f64, power: f64) -> Self {
        NonFunctional { utility, power }
    }
}

/// One operating point: a configuration variant of an application.
///
/// It encodes the resource allocation (as an [`ExtResourceVector`]) together
/// with its [`NonFunctional`] characteristics. In-application configuration
/// details (thread-to-core mappings, adaptivity-knob values of fine-grained
/// points) remain on the application side — the RM only ever sees the
/// extended resource vector, exactly as the paper specifies (§4.1.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Resource demand of this configuration.
    pub erv: ExtResourceVector,
    /// Measured or predicted utility and power.
    pub nfc: NonFunctional,
}

impl OperatingPoint {
    /// Creates an operating point.
    pub fn new(erv: ExtResourceVector, nfc: NonFunctional) -> Self {
        OperatingPoint { erv, nfc }
    }

    /// The coarse resource demand charged against platform capacity.
    pub fn resource_vector(&self) -> ResourceVector {
        self.erv.resource_vector()
    }

    /// Energy-utility cost of this point given the application's maximum
    /// observed utility `v_max` (paper Eq. 2).
    pub fn cost(&self, v_max: f64) -> f64 {
        energy_utility_cost(self.nfc.utility, self.nfc.power, v_max)
    }
}

/// The set of operating points known for one application, maintained by the
/// RM and refined over time (paper §4.3: "profiles are refined over time,
/// enabling self-improving resource management").
///
/// The table tracks, per point, whether its characteristics were *measured*
/// (from online monitoring or a description file) or *predicted* by a
/// regression model, and it maintains the maximum observed utility used to
/// normalize the energy-utility cost.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OperatingPointTable {
    points: Vec<OperatingPoint>,
    measured: Vec<bool>,
    max_utility: f64,
}

impl OperatingPointTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        OperatingPointTable::default()
    }

    /// Builds a table from measured points (e.g. parsed from an application
    /// description file, paper §4.1.1 step 2).
    pub fn from_measured(points: Vec<OperatingPoint>) -> Self {
        let max_utility = points.iter().map(|p| p.nfc.utility).fold(0.0_f64, f64::max);
        let measured = vec![true; points.len()];
        OperatingPointTable {
            points,
            measured,
            max_utility,
        }
    }

    /// Number of points in the table.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the table holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of points with measured (not model-predicted) characteristics.
    pub fn measured_count(&self) -> usize {
        self.measured.iter().filter(|&&m| m).count()
    }

    /// The maximum utility observed so far (the paper's `o[v*]`
    /// normalization base). Zero if nothing was measured yet.
    pub fn max_utility(&self) -> f64 {
        self.max_utility
    }

    /// The point with the given id.
    pub fn get(&self, id: OpId) -> Option<&OperatingPoint> {
        self.points.get(id.0)
    }

    /// Whether the given point's characteristics were measured.
    pub fn is_measured(&self, id: OpId) -> bool {
        self.measured.get(id.0).copied().unwrap_or(false)
    }

    /// Iterates over `(id, point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &OperatingPoint)> {
        self.points.iter().enumerate().map(|(i, p)| (OpId(i), p))
    }

    /// Iterates over the measured points only.
    pub fn iter_measured(&self) -> impl Iterator<Item = (OpId, &OperatingPoint)> {
        self.points
            .iter()
            .enumerate()
            .filter(|(i, _)| self.measured[*i])
            .map(|(i, p)| (OpId(i), p))
    }

    /// Finds the point with exactly this extended resource vector.
    pub fn find_by_erv(&self, erv: &ExtResourceVector) -> Option<OpId> {
        self.points.iter().position(|p| &p.erv == erv).map(OpId)
    }

    /// Inserts or replaces the point for `erv` with *measured*
    /// characteristics, updating the utility normalization base.
    ///
    /// Returns the point's id.
    pub fn record_measurement(&mut self, erv: ExtResourceVector, nfc: NonFunctional) -> OpId {
        self.max_utility = self.max_utility.max(nfc.utility);
        match self.find_by_erv(&erv) {
            Some(id) => {
                self.points[id.0].nfc = nfc;
                self.measured[id.0] = true;
                id
            }
            None => {
                self.points.push(OperatingPoint::new(erv, nfc));
                self.measured.push(true);
                OpId(self.points.len() - 1)
            }
        }
    }

    /// Inserts or replaces the point for `erv` with *predicted*
    /// characteristics. A prediction never overwrites a measurement and does
    /// not move the utility normalization base.
    ///
    /// Returns the point's id, or `None` if a measured point already exists
    /// for this vector.
    pub fn record_prediction(
        &mut self,
        erv: ExtResourceVector,
        nfc: NonFunctional,
    ) -> Option<OpId> {
        match self.find_by_erv(&erv) {
            Some(id) if self.measured[id.0] => None,
            Some(id) => {
                self.points[id.0].nfc = nfc;
                Some(id)
            }
            None => {
                self.points.push(OperatingPoint::new(erv, nfc));
                self.measured.push(false);
                Some(OpId(self.points.len() - 1))
            }
        }
    }

    /// Energy-utility cost of point `id` (paper Eq. 2), normalized by this
    /// table's maximum observed utility.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for an unknown id and
    /// [`HarpError::Numeric`] if no utility has been observed yet (the cost
    /// would be undefined).
    pub fn cost(&self, id: OpId) -> Result<f64> {
        let p = self
            .get(id)
            .ok_or_else(|| HarpError::not_found(format!("operating point {id}")))?;
        if self.max_utility <= 0.0 {
            return Err(HarpError::Numeric {
                detail: "energy-utility cost undefined before any utility was observed".into(),
            });
        }
        Ok(p.cost(self.max_utility))
    }

    /// Removes all predicted (non-measured) points, e.g. before re-running
    /// a regression model with more training data.
    pub fn clear_predictions(&mut self) {
        let mut i = 0;
        while i < self.points.len() {
            if self.measured[i] {
                i += 1;
            } else {
                self.points.swap_remove(i);
                self.measured.swap_remove(i);
            }
        }
    }

    /// Consumes the table and returns one holding only its measured points,
    /// in their current relative order — the same table as collecting
    /// [`OperatingPointTable::iter_measured`], without cloning a point.
    pub fn into_measured(mut self) -> Self {
        let mut measured = self.measured.iter();
        self.points
            .retain(|_| *measured.next().expect("one flag per point"));
        OperatingPointTable::from_measured(self.points)
    }
}

impl FromIterator<OperatingPoint> for OperatingPointTable {
    fn from_iter<I: IntoIterator<Item = OperatingPoint>>(iter: I) -> Self {
        OperatingPointTable::from_measured(iter.into_iter().collect())
    }
}

impl Extend<OperatingPoint> for OperatingPointTable {
    fn extend<I: IntoIterator<Item = OperatingPoint>>(&mut self, iter: I) {
        for p in iter {
            self.record_measurement(p.erv, p.nfc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErvShape;

    fn erv(flat: &[u32]) -> ExtResourceVector {
        let shape = ErvShape::new(vec![2, 1]);
        ExtResourceVector::from_flat(&shape, flat).unwrap()
    }

    #[test]
    fn table_records_measurements_and_normalizes() {
        let mut t = OperatingPointTable::new();
        assert!(t.is_empty());
        let a = t.record_measurement(erv(&[0, 2, 0]), NonFunctional::new(10.0, 5.0));
        let b = t.record_measurement(erv(&[0, 0, 4]), NonFunctional::new(20.0, 4.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.measured_count(), 2);
        assert_eq!(t.max_utility(), 20.0);
        // cost(a) = (5/ (10/20)) ... Eq2: (p / v*) * (1 / v*), v* = v/vmax.
        let va = 10.0 / 20.0;
        assert!((t.cost(a).unwrap() - (5.0 / va) * (1.0 / va)).abs() < 1e-12);
        let vb = 1.0;
        assert!((t.cost(b).unwrap() - 4.0 / vb / vb).abs() < 1e-12);
    }

    #[test]
    fn remeasuring_same_erv_replaces_in_place() {
        let mut t = OperatingPointTable::new();
        let a = t.record_measurement(erv(&[1, 0, 0]), NonFunctional::new(1.0, 1.0));
        let b = t.record_measurement(erv(&[1, 0, 0]), NonFunctional::new(2.0, 1.5));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(a).unwrap().nfc.utility, 2.0);
    }

    #[test]
    fn predictions_never_overwrite_measurements() {
        let mut t = OperatingPointTable::new();
        let m = t.record_measurement(erv(&[1, 0, 0]), NonFunctional::new(3.0, 2.0));
        assert!(t
            .record_prediction(erv(&[1, 0, 0]), NonFunctional::new(99.0, 99.0))
            .is_none());
        assert_eq!(t.get(m).unwrap().nfc.utility, 3.0);
        // But predictions on new vectors are fine and don't move max utility.
        let p = t
            .record_prediction(erv(&[0, 1, 0]), NonFunctional::new(50.0, 1.0))
            .unwrap();
        assert!(!t.is_measured(p));
        assert_eq!(t.max_utility(), 3.0);
        // A second prediction for the same vector replaces the first.
        let p2 = t
            .record_prediction(erv(&[0, 1, 0]), NonFunctional::new(40.0, 1.0))
            .unwrap();
        assert_eq!(p, p2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_predictions_keeps_measured() {
        let mut t = OperatingPointTable::new();
        t.record_measurement(erv(&[1, 0, 0]), NonFunctional::new(3.0, 2.0));
        t.record_prediction(erv(&[0, 1, 0]), NonFunctional::new(5.0, 1.0));
        t.record_prediction(erv(&[0, 0, 1]), NonFunctional::new(6.0, 1.0));
        assert_eq!(t.len(), 3);
        t.clear_predictions();
        assert_eq!(t.len(), 1);
        assert_eq!(t.measured_count(), 1);
    }

    #[test]
    fn into_measured_equals_collecting_the_measured_points() {
        let mut t = OperatingPointTable::new();
        // Predictions interleaved with measurements, and a re-measurement
        // that lowers the utility the normalization base came from.
        t.record_prediction(erv(&[0, 1, 0]), NonFunctional::new(50.0, 1.0));
        t.record_measurement(erv(&[1, 0, 0]), NonFunctional::new(9.0, 2.0));
        t.record_prediction(erv(&[0, 0, 1]), NonFunctional::new(6.0, 1.0));
        t.record_measurement(erv(&[0, 0, 2]), NonFunctional::new(4.0, 1.0));
        t.record_measurement(erv(&[1, 0, 0]), NonFunctional::new(3.0, 2.0));
        let collected: OperatingPointTable = t.iter_measured().map(|(_, p)| p.clone()).collect();
        let moved = t.into_measured();
        assert_eq!(
            moved.iter().collect::<Vec<_>>(),
            collected.iter().collect::<Vec<_>>()
        );
        assert_eq!(moved.measured_count(), 2);
        assert_eq!(moved.max_utility().to_bits(), 4.0f64.to_bits());
        assert_eq!(moved.max_utility(), collected.max_utility());
    }

    #[test]
    fn cost_errors() {
        let t = OperatingPointTable::new();
        assert!(matches!(t.cost(OpId(0)), Err(HarpError::NotFound { .. })));
        let mut t = OperatingPointTable::new();
        let id = t
            .record_prediction(erv(&[1, 0, 0]), NonFunctional::new(1.0, 1.0))
            .unwrap();
        // No measurement yet -> max utility 0 -> cost undefined.
        assert!(matches!(t.cost(id), Err(HarpError::Numeric { .. })));
    }

    #[test]
    fn from_iterator_and_extend() {
        let pts = vec![
            OperatingPoint::new(erv(&[1, 0, 0]), NonFunctional::new(1.0, 1.0)),
            OperatingPoint::new(erv(&[0, 1, 0]), NonFunctional::new(2.0, 2.0)),
        ];
        let mut t: OperatingPointTable = pts.into_iter().collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.max_utility(), 2.0);
        t.extend(vec![OperatingPoint::new(
            erv(&[0, 0, 3]),
            NonFunctional::new(4.0, 1.0),
        )]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.max_utility(), 4.0);
    }

    #[test]
    fn find_by_erv() {
        let mut t = OperatingPointTable::new();
        let id = t.record_measurement(erv(&[0, 2, 4]), NonFunctional::new(1.0, 1.0));
        assert_eq!(t.find_by_erv(&erv(&[0, 2, 4])), Some(id));
        assert_eq!(t.find_by_erv(&erv(&[1, 2, 4])), None);
    }
}
