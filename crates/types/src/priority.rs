//! Multi-tenant priority classes.
//!
//! Production deployments rarely treat all applications equally: batch
//! analytics can wait, interactive services cannot, and premium tenants
//! pay for headroom. HARP's MMKP objective (paper §4.2) minimizes a
//! normalized energy/utility cost per operating point; a priority class
//! scales that cost so that under λ-pressure (contention) the solver
//! downgrades low-weight sessions off their preferred operating points
//! first. The class rides on `AppSpec` (simulator side) and on the RM
//! session (via `RmCore::set_priority`), and is journaled so crash
//! recovery replays to the same allocation.

use std::fmt;

/// Tenant priority class of a managed application.
///
/// Classes map to fixed cost weights (see [`PriorityClass::weight`]):
/// the allocator multiplies an option's normalized cost by the weight,
/// amplifying a heavy session's penalty for leaving its preferred point
/// — so under contention a `Premium` app holds its allocation while a
/// `Batch` app is downgraded first. `Standard` has weight exactly
/// `1.0`, which keeps every pre-priority allocation bit-identical
/// (multiplying an IEEE-754 double by 1.0 is the identity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Throughput workloads that tolerate deferral (weight 0.5).
    Batch,
    /// The default tenant class (weight 1.0; cost unchanged).
    #[default]
    Standard,
    /// Latency- or SLO-critical tenants (weight 2.0).
    Premium,
}

impl PriorityClass {
    /// All classes, in ascending weight order.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Batch,
        PriorityClass::Standard,
        PriorityClass::Premium,
    ];

    /// The cost weight the allocator multiplies by. Strictly positive.
    pub fn weight(self) -> f64 {
        match self {
            PriorityClass::Batch => 0.5,
            PriorityClass::Standard => 1.0,
            PriorityClass::Premium => 2.0,
        }
    }

    /// Canonical token used by the trace text format.
    pub fn as_str(self) -> &'static str {
        match self {
            PriorityClass::Batch => "batch",
            PriorityClass::Standard => "std",
            PriorityClass::Premium => "premium",
        }
    }

    /// Parses a canonical token (see [`PriorityClass::as_str`]).
    pub fn parse(s: &str) -> Option<PriorityClass> {
        match s {
            "batch" => Some(PriorityClass::Batch),
            "std" => Some(PriorityClass::Standard),
            "premium" => Some(PriorityClass::Premium),
            _ => None,
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_positive_and_ordered() {
        let w: Vec<f64> = PriorityClass::ALL.iter().map(|c| c.weight()).collect();
        assert!(w.iter().all(|&x| x > 0.0 && x.is_finite()));
        assert!(w.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(PriorityClass::Standard.weight(), 1.0);
    }

    #[test]
    fn token_round_trip() {
        for c in PriorityClass::ALL {
            assert_eq!(PriorityClass::parse(c.as_str()), Some(c));
            assert_eq!(format!("{c}"), c.as_str());
        }
        assert_eq!(PriorityClass::parse("gold"), None);
    }

    #[test]
    fn default_is_standard() {
        assert_eq!(PriorityClass::default(), PriorityClass::Standard);
    }
}
