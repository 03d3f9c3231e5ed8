//! Resource vectors: the compact resource-demand representation that links
//! the HARP RM and `libharp` (paper §4.1.2).
//!
//! A [`ResourceVector`] counts *cores per kind* and is what the capacity
//! constraint of the allocation problem (Eq. 1b) is expressed in.
//!
//! An [`ExtResourceVector`] additionally distinguishes how many hardware
//! threads each core contributes: the paper's example — four E-cores plus
//! three P-cores of which two use both SMT siblings — is written `[1, 2, 4]ᵀ`
//! (one P-core with one hardware thread, two P-cores with two, four E-cores).

use crate::{CoreKind, HarpError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The *shape* of extended resource vectors on a platform: the SMT width
/// (hardware threads per core) of every core kind.
///
/// All extended resource vectors on a platform share one shape; operations
/// mixing vectors of different shapes return
/// [`HarpError::ShapeMismatch`].
///
/// # Example
///
/// ```
/// use harp_types::ErvShape;
/// // Raptor Lake: P-cores are 2-way SMT, E-cores are single-threaded.
/// let shape = ErvShape::new(vec![2, 1]);
/// assert_eq!(shape.num_kinds(), 2);
/// assert_eq!(shape.smt_width(harp_types::CoreKind(0)), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ErvShape {
    smt_widths: Vec<usize>,
}

impl ErvShape {
    /// Creates a shape from the per-kind SMT widths.
    ///
    /// # Panics
    ///
    /// Panics if any width is zero (a core always has at least one hardware
    /// thread).
    pub fn new(smt_widths: Vec<usize>) -> Self {
        assert!(
            smt_widths.iter().all(|&w| w >= 1),
            "SMT widths must be >= 1"
        );
        ErvShape { smt_widths }
    }

    /// Number of core kinds on the platform.
    pub fn num_kinds(&self) -> usize {
        self.smt_widths.len()
    }

    /// SMT width of `kind`, or `None` if the kind is out of range.
    pub fn smt_width(&self, kind: CoreKind) -> Option<usize> {
        self.smt_widths.get(kind.0).copied()
    }

    /// All per-kind SMT widths.
    pub fn smt_widths(&self) -> &[usize] {
        &self.smt_widths
    }

    /// Length of the flattened slot representation
    /// (`Σ_kind smt_width(kind)`).
    pub fn flat_len(&self) -> usize {
        self.smt_widths.iter().sum()
    }
}

/// Coarse resource vector: number of cores per core kind.
///
/// This is the unit of the platform capacity constraint (Eq. 1b in the
/// paper): the allocator guarantees `Σ_apps r ≤ R` component-wise.
///
/// # Example
///
/// ```
/// use harp_types::ResourceVector;
/// let demand = ResourceVector::new(vec![3, 4]);
/// let capacity = ResourceVector::new(vec![8, 16]);
/// assert!(demand.fits_within(&capacity));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceVector(Vec<u32>);

impl ResourceVector {
    /// Creates a resource vector from per-kind core counts.
    pub fn new(counts: Vec<u32>) -> Self {
        ResourceVector(counts)
    }

    /// The all-zero vector with `num_kinds` components.
    pub fn zero(num_kinds: usize) -> Self {
        ResourceVector(vec![0; num_kinds])
    }

    /// Number of core kinds.
    pub fn num_kinds(&self) -> usize {
        self.0.len()
    }

    /// Core count of `kind` (zero if out of range).
    pub fn count(&self, kind: CoreKind) -> u32 {
        self.0.get(kind.0).copied().unwrap_or(0)
    }

    /// The per-kind counts as a slice.
    pub fn counts(&self) -> &[u32] {
        &self.0
    }

    /// Total cores across all kinds.
    pub fn total(&self) -> u32 {
        self.0.iter().sum()
    }

    /// Whether every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Component-wise `self ≤ other`. Vectors of different lengths never fit.
    pub fn fits_within(&self, other: &ResourceVector) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Component-wise saturating addition.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if the vectors have a different
    /// number of kinds.
    pub fn checked_add(&self, other: &ResourceVector) -> Result<ResourceVector> {
        if self.0.len() != other.0.len() {
            return Err(HarpError::ShapeMismatch {
                detail: format!("{} kinds vs {} kinds", self.0.len(), other.0.len()),
            });
        }
        Ok(ResourceVector(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
        ))
    }

    /// Component-wise subtraction, failing if any component would underflow.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] on length mismatch and
    /// [`HarpError::InsufficientResources`] on underflow.
    pub fn checked_sub(&self, other: &ResourceVector) -> Result<ResourceVector> {
        if self.0.len() != other.0.len() {
            return Err(HarpError::ShapeMismatch {
                detail: format!("{} kinds vs {} kinds", self.0.len(), other.0.len()),
            });
        }
        let mut out = Vec::with_capacity(self.0.len());
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.checked_sub(*b) {
                Some(v) => out.push(v),
                None => {
                    return Err(HarpError::InsufficientResources {
                        detail: format!("cannot subtract {other} from {self}"),
                    })
                }
            }
        }
        Ok(ResourceVector(out))
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<u32> for ResourceVector {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        ResourceVector(iter.into_iter().collect())
    }
}

/// Extended resource vector (paper §4.1.2).
///
/// For each core kind the vector holds a histogram over hardware-thread
/// usage: `per_kind[k][t-1]` is the number of kind-`k` cores on which the
/// application runs `t` of the core's hardware threads.
///
/// The flattened form (kind-major, thread-count-minor) is the canonical
/// feature representation used by the regression models of the runtime
/// exploration (paper §5.2) and by the distance metric of the initial-stage
/// exploration heuristic (§5.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExtResourceVector {
    per_kind: Vec<Vec<u32>>,
}

impl ExtResourceVector {
    /// The all-zero vector for the given shape.
    pub fn zero(shape: &ErvShape) -> Self {
        ExtResourceVector {
            per_kind: shape.smt_widths().iter().map(|&w| vec![0; w]).collect(),
        }
    }

    /// Reconstructs a vector from its flattened slot counts.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if `flat.len() != shape.flat_len()`.
    pub fn from_flat(shape: &ErvShape, flat: &[u32]) -> Result<Self> {
        if flat.len() != shape.flat_len() {
            return Err(HarpError::ShapeMismatch {
                detail: format!(
                    "flat length {} vs shape flat length {}",
                    flat.len(),
                    shape.flat_len()
                ),
            });
        }
        let mut per_kind = Vec::with_capacity(shape.num_kinds());
        let mut idx = 0;
        for &w in shape.smt_widths() {
            per_kind.push(flat[idx..idx + w].to_vec());
            idx += w;
        }
        Ok(ExtResourceVector { per_kind })
    }

    /// Convenience constructor: a vector that uses `cores` cores of each
    /// kind at full SMT width (`counts[k]` cores of kind `k`, all hardware
    /// threads).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if `counts.len()` differs from
    /// the number of kinds.
    pub fn full_smt(shape: &ErvShape, counts: &[u32]) -> Result<Self> {
        if counts.len() != shape.num_kinds() {
            return Err(HarpError::ShapeMismatch {
                detail: format!("{} counts vs {} kinds", counts.len(), shape.num_kinds()),
            });
        }
        let mut erv = ExtResourceVector::zero(shape);
        for (k, &c) in counts.iter().enumerate() {
            if c > 0 {
                let w = shape.smt_widths()[k];
                erv.add_cores(k, w, c)?;
            }
        }
        Ok(erv)
    }

    /// Number of core kinds.
    pub fn num_kinds(&self) -> usize {
        self.per_kind.len()
    }

    /// The shape this vector conforms to.
    pub fn shape(&self) -> ErvShape {
        ErvShape::new(self.per_kind.iter().map(Vec::len).collect())
    }

    /// Whether this vector conforms to `shape` — `self.shape() == *shape`
    /// without materializing the shape.
    pub fn has_shape(&self, shape: &ErvShape) -> bool {
        self.per_kind.len() == shape.num_kinds()
            && self
                .per_kind
                .iter()
                .zip(shape.smt_widths())
                .all(|(hist, &w)| hist.len() == w)
    }

    /// Whether the per-kind core demand fits `capacity` —
    /// `self.resource_vector().fits_within(capacity)` without materializing
    /// the coarse vector.
    pub fn fits_within(&self, capacity: &ResourceVector) -> bool {
        self.per_kind.len() == capacity.num_kinds()
            && (0..self.per_kind.len()).all(|k| self.cores_of_kind(k) <= capacity.counts()[k])
    }

    /// Adds `count` cores of kind `kind`, each using `threads_per_core`
    /// hardware threads.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::UnknownCoreKind`] for an out-of-range kind and
    /// [`HarpError::InvalidThreadCount`] if `threads_per_core` is zero or
    /// exceeds the kind's SMT width.
    pub fn add_cores(&mut self, kind: usize, threads_per_core: usize, count: u32) -> Result<()> {
        let num_kinds = self.per_kind.len();
        let hist = self
            .per_kind
            .get_mut(kind)
            .ok_or(HarpError::UnknownCoreKind { kind, num_kinds })?;
        if threads_per_core == 0 || threads_per_core > hist.len() {
            return Err(HarpError::InvalidThreadCount {
                threads: threads_per_core,
                smt_width: hist.len(),
            });
        }
        hist[threads_per_core - 1] = hist[threads_per_core - 1].saturating_add(count);
        Ok(())
    }

    /// Number of kind-`kind` cores using exactly `threads_per_core` threads
    /// (zero for out-of-range arguments).
    pub fn cores_with_threads(&self, kind: usize, threads_per_core: usize) -> u32 {
        self.per_kind
            .get(kind)
            .and_then(|h| threads_per_core.checked_sub(1).and_then(|i| h.get(i)))
            .copied()
            .unwrap_or(0)
    }

    /// Total cores of `kind` used, regardless of thread count.
    pub fn cores_of_kind(&self, kind: usize) -> u32 {
        self.per_kind.get(kind).map_or(0, |h| h.iter().sum())
    }

    /// Total hardware threads of `kind` used.
    pub fn threads_of_kind(&self, kind: usize) -> u32 {
        self.per_kind.get(kind).map_or(0, |h| {
            h.iter().enumerate().map(|(i, &c)| c * (i as u32 + 1)).sum()
        })
    }

    /// Total cores used across all kinds.
    pub fn total_cores(&self) -> u32 {
        (0..self.num_kinds()).map(|k| self.cores_of_kind(k)).sum()
    }

    /// Total hardware threads used across all kinds. This is the
    /// parallelization degree HARP communicates to scalable applications
    /// (paper §4.1.3).
    pub fn total_threads(&self) -> u32 {
        (0..self.num_kinds()).map(|k| self.threads_of_kind(k)).sum()
    }

    /// Whether no resources at all are used.
    pub fn is_zero(&self) -> bool {
        self.per_kind.iter().all(|h| h.iter().all(|&c| c == 0))
    }

    /// The coarse [`ResourceVector`] (cores per kind) of this vector — what
    /// the RM charges against platform capacity.
    pub fn resource_vector(&self) -> ResourceVector {
        (0..self.num_kinds())
            .map(|k| self.cores_of_kind(k))
            .collect()
    }

    /// The flattened slot counts (kind-major, thread-count-minor).
    pub fn flat(&self) -> Vec<u32> {
        self.per_kind.iter().flatten().copied().collect()
    }

    /// The flattened counts as `f64` features for regression models.
    pub fn features(&self) -> Vec<f64> {
        self.per_kind.iter().flatten().map(|&c| c as f64).collect()
    }

    /// Component-wise dominance: `self` uses at least as many cores in every
    /// slot as `other`.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if the shapes differ.
    pub fn dominates(&self, other: &ExtResourceVector) -> Result<bool> {
        if self.shape() != other.shape() {
            return Err(HarpError::ShapeMismatch {
                detail: "dominance between vectors of different shapes".into(),
            });
        }
        Ok(self
            .flat()
            .iter()
            .zip(other.flat().iter())
            .all(|(a, b)| a >= b))
    }

    /// Euclidean distance between the flattened representations, used by the
    /// initial-stage exploration heuristic to maximize configuration
    /// diversity (paper §5.3).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if the shapes differ.
    pub fn distance(&self, other: &ExtResourceVector) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(HarpError::ShapeMismatch {
                detail: "distance between vectors of different shapes".into(),
            });
        }
        let d = self
            .flat()
            .iter()
            .zip(other.flat().iter())
            .map(|(a, b)| {
                let d = *a as f64 - *b as f64;
                d * d
            })
            .sum::<f64>();
        Ok(d.sqrt())
    }

    /// Enumerates every extended resource vector realizable on a platform
    /// with `capacity.count(k)` cores of kind `k` (including the zero
    /// vector). This is the candidate space of the runtime exploration.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if `capacity` has a different
    /// number of kinds than `shape`.
    pub fn enumerate(shape: &ErvShape, capacity: &ResourceVector) -> Result<Vec<Self>> {
        if capacity.num_kinds() != shape.num_kinds() {
            return Err(HarpError::ShapeMismatch {
                detail: format!(
                    "capacity has {} kinds, shape has {}",
                    capacity.num_kinds(),
                    shape.num_kinds()
                ),
            });
        }
        // Per kind, enumerate all histograms h[0..w] with sum(h) <= max cores.
        let mut per_kind_options: Vec<Vec<Vec<u32>>> = Vec::with_capacity(shape.num_kinds());
        for (k, &w) in shape.smt_widths().iter().enumerate() {
            let max = capacity.count(CoreKind(k));
            let mut opts = Vec::new();
            let mut hist = vec![0u32; w];
            enumerate_histograms(&mut hist, 0, max, &mut opts);
            per_kind_options.push(opts);
        }
        // Cartesian product across kinds.
        let mut out = Vec::new();
        let mut current: Vec<Vec<u32>> = Vec::with_capacity(shape.num_kinds());
        cartesian(&per_kind_options, &mut current, &mut out);
        Ok(out)
    }
}

fn enumerate_histograms(hist: &mut Vec<u32>, pos: usize, remaining: u32, out: &mut Vec<Vec<u32>>) {
    if pos == hist.len() {
        out.push(hist.clone());
        return;
    }
    for c in 0..=remaining {
        hist[pos] = c;
        enumerate_histograms(hist, pos + 1, remaining - c, out);
    }
    hist[pos] = 0;
}

fn cartesian(
    options: &[Vec<Vec<u32>>],
    current: &mut Vec<Vec<u32>>,
    out: &mut Vec<ExtResourceVector>,
) {
    if current.len() == options.len() {
        out.push(ExtResourceVector {
            per_kind: current.clone(),
        });
        return;
    }
    for opt in &options[current.len()] {
        current.push(opt.clone());
        cartesian(options, current, out);
        current.pop();
    }
}

impl fmt::Display for ExtResourceVector {
    /// Renders the paper-style bracketed form, e.g. `[1,2|4]` for one P-core
    /// with one thread, two P-cores with two threads and four E-cores
    /// (kinds separated by `|`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (k, hist) in self.per_kind.iter().enumerate() {
            if k > 0 {
                write!(f, "|")?;
            }
            for (i, c) in hist.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{c}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rpl_shape() -> ErvShape {
        ErvShape::new(vec![2, 1])
    }

    #[test]
    fn paper_example_vector() {
        // [1, 2, 4]: 1 P-core w/ 1 HT, 2 P-cores w/ 2 HT, 4 E-cores.
        let shape = rpl_shape();
        let mut erv = ExtResourceVector::zero(&shape);
        erv.add_cores(0, 1, 1).unwrap();
        erv.add_cores(0, 2, 2).unwrap();
        erv.add_cores(1, 1, 4).unwrap();
        assert_eq!(erv.cores_of_kind(0), 3);
        assert_eq!(erv.threads_of_kind(0), 5);
        assert_eq!(erv.cores_of_kind(1), 4);
        assert_eq!(erv.total_threads(), 9);
        assert_eq!(erv.total_cores(), 7);
        assert_eq!(erv.resource_vector(), ResourceVector::new(vec![3, 4]));
        assert_eq!(erv.to_string(), "[1,2|4]");
        assert_eq!(erv.flat(), vec![1, 2, 4]);
    }

    #[test]
    fn add_cores_validates_kind_and_threads() {
        let shape = rpl_shape();
        let mut erv = ExtResourceVector::zero(&shape);
        assert!(matches!(
            erv.add_cores(5, 1, 1),
            Err(HarpError::UnknownCoreKind { kind: 5, .. })
        ));
        assert!(matches!(
            erv.add_cores(1, 2, 1),
            Err(HarpError::InvalidThreadCount {
                threads: 2,
                smt_width: 1
            })
        ));
        assert!(matches!(
            erv.add_cores(0, 0, 1),
            Err(HarpError::InvalidThreadCount { threads: 0, .. })
        ));
    }

    #[test]
    fn flat_round_trip() {
        let shape = rpl_shape();
        let flat = vec![3, 1, 7];
        let erv = ExtResourceVector::from_flat(&shape, &flat).unwrap();
        assert_eq!(erv.flat(), flat);
        assert_eq!(erv.shape(), shape);
        assert!(erv.has_shape(&shape));
        assert!(!erv.has_shape(&ErvShape::new(vec![1, 1, 1])));
        assert!(!erv.has_shape(&ErvShape::new(vec![2])));
        assert!(ExtResourceVector::from_flat(&shape, &[1, 2]).is_err());
    }

    #[test]
    fn full_smt_uses_all_threads() {
        let shape = rpl_shape();
        let erv = ExtResourceVector::full_smt(&shape, &[8, 16]).unwrap();
        assert_eq!(erv.total_threads(), 32);
        assert_eq!(erv.cores_with_threads(0, 2), 8);
        assert_eq!(erv.cores_with_threads(0, 1), 0);
        assert_eq!(erv.cores_with_threads(1, 1), 16);
    }

    #[test]
    fn dominance_and_distance() {
        let shape = rpl_shape();
        let a = ExtResourceVector::from_flat(&shape, &[2, 2, 4]).unwrap();
        let b = ExtResourceVector::from_flat(&shape, &[1, 2, 4]).unwrap();
        assert!(a.dominates(&b).unwrap());
        assert!(!b.dominates(&a).unwrap());
        assert!((a.distance(&b).unwrap() - 1.0).abs() < 1e-12);
        let other_shape = ErvShape::new(vec![1, 1]);
        let c = ExtResourceVector::zero(&other_shape);
        assert!(a.dominates(&c).is_err());
        assert!(a.distance(&c).is_err());
    }

    #[test]
    fn enumerate_small_platform() {
        // 2 P-cores (SMT 2) and 1 E-core: P histograms with sum<=2 over 2
        // slots = C(2+2,2)=6 options {00,10,01,20,11,02}; E: 2 options.
        let shape = rpl_shape();
        let cap = ResourceVector::new(vec![2, 1]);
        let all = ExtResourceVector::enumerate(&shape, &cap).unwrap();
        assert_eq!(all.len(), 12);
        assert!(all.iter().any(|e| e.is_zero()));
        // All within capacity.
        let tight = ResourceVector::new(vec![1, 1]);
        for e in &all {
            assert!(e.fits_within(&cap));
            assert_eq!(
                e.fits_within(&tight),
                e.resource_vector().fits_within(&tight)
            );
            assert!(!e.fits_within(&ResourceVector::zero(3)));
        }
        // All distinct.
        let mut flats: Vec<_> = all.iter().map(|e| e.flat()).collect();
        flats.sort();
        flats.dedup();
        assert_eq!(flats.len(), 12);
    }

    #[test]
    fn resource_vector_arithmetic() {
        let a = ResourceVector::new(vec![3, 4]);
        let b = ResourceVector::new(vec![1, 2]);
        assert_eq!(a.checked_add(&b).unwrap(), ResourceVector::new(vec![4, 6]));
        assert_eq!(a.checked_sub(&b).unwrap(), ResourceVector::new(vec![2, 2]));
        assert!(b.checked_sub(&a).is_err());
        assert!(a.checked_add(&ResourceVector::zero(3)).is_err());
        assert!(b.fits_within(&a));
        assert!(!a.fits_within(&b));
        assert_eq!(a.total(), 7);
        assert_eq!(a.to_string(), "(3,4)");
    }

    #[test]
    fn zero_vector_properties() {
        let shape = rpl_shape();
        let z = ExtResourceVector::zero(&shape);
        assert!(z.is_zero());
        assert_eq!(z.total_threads(), 0);
        assert!(z.resource_vector().is_zero());
    }

    #[test]
    fn serde_round_trip() {
        let shape = rpl_shape();
        let erv = ExtResourceVector::from_flat(&shape, &[1, 2, 4]).unwrap();
        let json = serde_json::to_string(&erv).unwrap();
        let back: ExtResourceVector = serde_json::from_str(&json).unwrap();
        assert_eq!(erv, back);
    }
}
