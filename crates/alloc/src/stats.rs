//! Process-global solver counters for the experiment harness.
//!
//! Every call to [`crate::select`] (and therefore every allocation round)
//! records its outcome and counted effort here with relaxed atomics —
//! counts only, no clock: `benchmark/` is the one place that reports wall
//! time. `tab_overhead` prints a snapshot after its table so the solver
//! effort behind the modeled `SOLVE_COST_NS` overhead is visible, and the
//! `benchmark/` package reads the same counters for its `sched.*` layer.

use crate::solvers::SolveOutcome;
use std::sync::atomic::{AtomicU64, Ordering};

static SOLVES: AtomicU64 = AtomicU64::new(0);
static WORK_MICRO: AtomicU64 = AtomicU64::new(0);
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static CERTIFIED: AtomicU64 = AtomicU64::new(0);
static FULL: AtomicU64 = AtomicU64::new(0);
static PRUNED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide solver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total selection solves.
    pub solves: u64,
    /// Summed [`Selection::work`](crate::Selection) in millionths of a
    /// full reference schedule (each solve rounded to the nearest one).
    pub work_micro: u64,
    /// Solves answered from the warm-start memo.
    pub memo_hits: u64,
    /// Solves that exited early on a duality-gap certificate.
    pub certified: u64,
    /// Solves that ran a full schedule (or a non-Lagrangian solver).
    pub full: u64,
    /// Options dropped by dominance pruning, summed over solves.
    pub pruned_options: u64,
}

/// Reads the current counters.
pub fn snapshot() -> SolverStats {
    SolverStats {
        solves: SOLVES.load(Ordering::Relaxed),
        work_micro: WORK_MICRO.load(Ordering::Relaxed),
        memo_hits: MEMO_HITS.load(Ordering::Relaxed),
        certified: CERTIFIED.load(Ordering::Relaxed),
        full: FULL.load(Ordering::Relaxed),
        pruned_options: PRUNED.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters (between harness passes).
pub fn reset() {
    SOLVES.store(0, Ordering::Relaxed);
    WORK_MICRO.store(0, Ordering::Relaxed);
    MEMO_HITS.store(0, Ordering::Relaxed);
    CERTIFIED.store(0, Ordering::Relaxed);
    FULL.store(0, Ordering::Relaxed);
    PRUNED.store(0, Ordering::Relaxed);
}

pub(crate) fn record(work: f64, outcome: SolveOutcome) {
    SOLVES.fetch_add(1, Ordering::Relaxed);
    WORK_MICRO.fetch_add((work * 1e6).round() as u64, Ordering::Relaxed);
    match outcome {
        SolveOutcome::MemoHit => MEMO_HITS.fetch_add(1, Ordering::Relaxed),
        SolveOutcome::Certified => CERTIFIED.fetch_add(1, Ordering::Relaxed),
        SolveOutcome::Full => FULL.fetch_add(1, Ordering::Relaxed),
    };
    // Mirror into the obs registry so telemetry dumps carry solver
    // totals; gated on enabled() to keep the disabled path unchanged.
    if harp_obs::enabled() {
        harp_obs::metrics::counter("solver.solves").inc();
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
        record(1.0, SolveOutcome::Full);
        record(0.5, SolveOutcome::MemoHit);
        record_pruned(3);
        let after = snapshot();
        assert!(after.solves >= before.solves + 2);
        assert!(after.work_micro >= before.work_micro + 1_500_000);
        assert!(after.memo_hits > before.memo_hits);
        assert!(after.full > before.full);
        assert!(after.pruned_options >= before.pruned_options + 3);
    }
}
