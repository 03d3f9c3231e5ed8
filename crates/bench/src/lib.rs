//! The experiment harness: every table and figure of the HARP evaluation
//! (paper §6), regenerated against the simulated machines.
//!
//! | Experiment | Paper | Module | Binary |
//! |---|---|---|---|
//! | Fig. 1 | per-configuration time/energy + Pareto front of `ep.C`/`mg.C` | [`fig1`] | `fig1_sweep` |
//! | Fig. 5 | regression-model comparison (MAPE, IGD, common ratio) | [`fig5`] | `fig5_models` |
//! | Fig. 6 | HARP/ITD/Offline/NoScaling vs CFS on Raptor Lake | [`fig6`] | `fig6_intel` |
//! | Fig. 7 | HARP (Offline) vs EAS on the Odroid XU3-E | [`fig7`] | `fig7_odroid` |
//! | Fig. 8 | learning-phase snapshots, time-to-stable | [`fig8`] | `fig8_learning` |
//! | §6.3.3 | frequency-governor study | [`tables`] | `tab_governor` |
//! | §6.6 | RM overhead | [`tables`] | `tab_overhead` |
//! | §5.1 | energy-attribution accuracy (MAPE 8.76 %) | [`tables`] | `tab_attribution` |
//! | headline | avg 12 % time / 28 % energy | [`tables`] | `headline_summary` |
//! | ablations | solver / exploration / EMA design choices (DESIGN.md §3) | — | `tab_ablations` |
//!
//! The shared machinery lives in [`runner`] (scenario execution under any
//! manager, improvement factors), [`dse`] (offline design-space
//! exploration producing operating-point profiles), [`jobs`] (the
//! evaluation-cell worker pool: every figure enumerates its cells as
//! [`jobs::Job`]s and executes them in parallel with deterministic,
//! bit-identical reassembly — pool size via `HARP_BENCH_THREADS`), and
//! [`cache`] (the content-addressed profile cache sharing DSE sweeps and
//! warm-up learning runs across experiments and, optionally, processes).
//!
//! Absolute numbers depend on the calibrated simulator, not the authors'
//! testbed; the harness asserts and reports the *shape* of every result
//! (who wins, by roughly what factor). `EXPERIMENTS.md` records
//! paper-vs-measured values. Nothing here reports wall-clock performance
//! of the stack itself: that is the standalone `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dse;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod jobs;
pub mod runner;
pub mod tables;

/// Formats an improvement factor the way the paper's figures label bars.
pub fn fmt_factor(f: f64) -> String {
    format!("{f:.2}x")
}

#[cfg(test)]
mod tests {
    #[test]
    fn factor_formatting() {
        assert_eq!(super::fmt_factor(1.339), "1.34x");
        assert_eq!(super::fmt_factor(0.5), "0.50x");
    }
}
