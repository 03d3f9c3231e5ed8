//! CPU affinity masks over hardware threads.

use harp_types::HwThreadId;
use std::fmt;

/// A set of hardware threads a simulated thread may run on — the simulated
/// counterpart of a `cpu_set_t` passed to `sched_setaffinity`.
///
/// Backed by a `u128`, which covers every platform in this reproduction
/// (the largest, Raptor Lake, has 32 hardware threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affinity(u128);

impl Affinity {
    /// Maximum number of hardware threads an affinity mask can address.
    pub const MAX_THREADS: usize = 128;

    /// The empty mask (no CPU allowed). Threads with an empty mask cannot
    /// run; the simulator treats this as "allow all" never — callers should
    /// use [`Affinity::all`] for unrestricted threads.
    pub fn empty() -> Self {
        Affinity(0)
    }

    /// A mask allowing hardware threads `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= Self::MAX_THREADS, "affinity mask supports 128 CPUs");
        if n == 128 {
            Affinity(u128::MAX)
        } else {
            Affinity((1u128 << n) - 1)
        }
    }

    /// Shorthand for an unrestricted mask on a machine with `n` hardware
    /// threads.
    pub fn all(n: usize) -> Self {
        Self::first_n(n)
    }

    /// Builds a mask from hardware-thread ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is ≥ 128.
    pub fn from_threads<I: IntoIterator<Item = HwThreadId>>(threads: I) -> Self {
        let mut mask = 0u128;
        for t in threads {
            assert!(t.0 < Self::MAX_THREADS, "hw thread id {} out of range", t.0);
            mask |= 1u128 << t.0;
        }
        Affinity(mask)
    }

    /// The raw mask (bit `i` = hardware thread `i`), which the placement
    /// loop intersects with its hardware-thread buckets.
    pub(crate) fn bits(&self) -> u128 {
        self.0
    }

    /// Whether hardware thread `t` is allowed.
    pub fn allows(&self, t: HwThreadId) -> bool {
        t.0 < Self::MAX_THREADS && self.0 & (1u128 << t.0) != 0
    }

    /// Adds a hardware thread to the mask.
    ///
    /// # Panics
    ///
    /// Panics if the id is ≥ 128.
    pub fn insert(&mut self, t: HwThreadId) {
        assert!(t.0 < Self::MAX_THREADS, "hw thread id {} out of range", t.0);
        self.0 |= 1u128 << t.0;
    }

    /// Number of allowed hardware threads.
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the mask allows nothing.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the allowed hardware-thread ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = HwThreadId> + '_ {
        (0..Self::MAX_THREADS)
            .filter(move |i| self.0 & (1u128 << i) != 0)
            .map(HwThreadId)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Affinity) -> Affinity {
        Affinity(self.0 & other.0)
    }

    /// Set union.
    pub fn union(&self, other: &Affinity) -> Affinity {
        Affinity(self.0 | other.0)
    }
}

impl fmt::Display for Affinity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for t in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", t.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<HwThreadId> for Affinity {
    fn from_iter<I: IntoIterator<Item = HwThreadId>>(iter: I) -> Self {
        Affinity::from_threads(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_allows_exactly_n() {
        let a = Affinity::first_n(4);
        assert_eq!(a.count(), 4);
        assert!(a.allows(HwThreadId(0)));
        assert!(a.allows(HwThreadId(3)));
        assert!(!a.allows(HwThreadId(4)));
        assert_eq!(Affinity::first_n(128).count(), 128);
        assert_eq!(Affinity::first_n(0).count(), 0);
    }

    #[test]
    fn from_threads_and_iter_round_trip() {
        let ids = vec![HwThreadId(1), HwThreadId(5), HwThreadId(31)];
        let a: Affinity = ids.iter().copied().collect();
        assert_eq!(a.iter().collect::<Vec<_>>(), ids);
        assert_eq!(a.count(), 3);
        assert_eq!(a.to_string(), "{1,5,31}");
    }

    #[test]
    fn set_operations() {
        let a = Affinity::from_threads([HwThreadId(0), HwThreadId(1)]);
        let b = Affinity::from_threads([HwThreadId(1), HwThreadId(2)]);
        assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            vec![HwThreadId(1)]
        );
        assert_eq!(a.union(&b).count(), 3);
        assert!(Affinity::empty().is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn insert_extends_mask() {
        let mut a = Affinity::empty();
        a.insert(HwThreadId(7));
        assert!(a.allows(HwThreadId(7)));
        assert_eq!(a.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_id_panics() {
        Affinity::from_threads([HwThreadId(128)]);
    }
}
