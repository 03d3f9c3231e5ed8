//! Process-global solver counters for the experiment harness.
//!
//! Every call to [`crate::select`] (and therefore every allocation round)
//! records its wall time and outcome here with relaxed atomics.
//! `tab_overhead` prints a snapshot after its table so real solver cost
//! shows up next to the modeled `SOLVE_COST_NS` overhead — *outside* the
//! rendered table, which is byte-compared across worker counts and must
//! stay wall-clock free — and the `benchmark/` package reads the same
//! counters for its `sched.*` layer.

use crate::solvers::SolveOutcome;
use std::sync::atomic::{AtomicU64, Ordering};

static SOLVES: AtomicU64 = AtomicU64::new(0);
static WALL_NS: AtomicU64 = AtomicU64::new(0);
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static CERTIFIED: AtomicU64 = AtomicU64::new(0);
static FULL: AtomicU64 = AtomicU64::new(0);
static PRUNED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide solver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total selection solves.
    pub solves: u64,
    /// Summed solver wall time in nanoseconds.
    pub wall_ns: u64,
    /// Solves answered from the warm-start memo.
    pub memo_hits: u64,
    /// Solves that exited early on a duality-gap certificate.
    pub certified: u64,
    /// Solves that ran a full schedule (or a non-Lagrangian solver).
    pub full: u64,
    /// Options dropped by dominance pruning, summed over solves.
    pub pruned_options: u64,
}

impl SolverStats {
    /// Summed solver wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }
}

/// Reads the current counters.
pub fn snapshot() -> SolverStats {
    SolverStats {
        solves: SOLVES.load(Ordering::Relaxed),
        wall_ns: WALL_NS.load(Ordering::Relaxed),
        memo_hits: MEMO_HITS.load(Ordering::Relaxed),
        certified: CERTIFIED.load(Ordering::Relaxed),
        full: FULL.load(Ordering::Relaxed),
        pruned_options: PRUNED.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters (between harness passes).
pub fn reset() {
    SOLVES.store(0, Ordering::Relaxed);
    WALL_NS.store(0, Ordering::Relaxed);
    MEMO_HITS.store(0, Ordering::Relaxed);
    CERTIFIED.store(0, Ordering::Relaxed);
    FULL.store(0, Ordering::Relaxed);
    PRUNED.store(0, Ordering::Relaxed);
}

pub(crate) fn record(ns: u64, outcome: SolveOutcome) {
    SOLVES.fetch_add(1, Ordering::Relaxed);
    WALL_NS.fetch_add(ns, Ordering::Relaxed);
    match outcome {
        SolveOutcome::MemoHit => MEMO_HITS.fetch_add(1, Ordering::Relaxed),
        SolveOutcome::Certified => CERTIFIED.fetch_add(1, Ordering::Relaxed),
        SolveOutcome::Full => FULL.fetch_add(1, Ordering::Relaxed),
    };
    // Mirror into the obs registry so telemetry dumps carry solver
    // totals; gated on enabled() to keep the disabled path unchanged.
    if harp_obs::enabled() {
        harp_obs::metrics::counter("solver.solves").inc();
        harp_obs::metrics::histogram("solver.solve_ns").record(ns);
        harp_obs::metrics::counter(match outcome {
            SolveOutcome::MemoHit => "solver.memo_hits",
            SolveOutcome::Certified => "solver.certified",
            SolveOutcome::Full => "solver.full",
        })
        .inc();
    }
}

pub(crate) fn record_pruned(n: u64) {
    if n > 0 {
        PRUNED.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        // Counters are process-global and other tests solve concurrently,
        // so assert deltas with ≥ rather than exact values.
        let before = snapshot();
        record(1_000, SolveOutcome::Full);
        record(500, SolveOutcome::MemoHit);
        record_pruned(3);
        let after = snapshot();
        assert!(after.solves >= before.solves + 2);
        assert!(after.wall_ns >= before.wall_ns + 1_500);
        assert!(after.memo_hits > before.memo_hits);
        assert!(after.full > before.full);
        assert!(after.pruned_options >= before.pruned_options + 3);
    }

    #[test]
    fn wall_ms_converts_nanoseconds() {
        let s = SolverStats {
            wall_ns: 2_500_000,
            ..SolverStats::default()
        };
        assert!((s.wall_ms() - 2.5).abs() < 1e-12);
    }
}
