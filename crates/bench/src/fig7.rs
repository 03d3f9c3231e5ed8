//! Figure 7: HARP (Offline) vs the Linux Energy-Aware Scheduler on the
//! Odroid XU3-E (§6.4).
//!
//! The Odroid cannot track performance counters on both clusters at once,
//! so only the offline variant is evaluated there — operating points come
//! from a design-space-exploration sweep, and EAS is the baseline.

use crate::dse::offline_profiles;
use crate::runner::{
    fold_repetitions, improvement, repetition_jobs, run_jobs, Improvement, ManagerKind, RunOptions,
};
use harp_model::metrics::geometric_mean;
use harp_types::Result;
use harp_workload::{scenarios, Platform, Scenario};

/// Experiment options.
#[derive(Debug, Clone)]
pub struct Fig7Options {
    /// Repetitions per scenario (paper: 10).
    pub reps: u32,
    /// Measurement horizon per DSE configuration (simulated seconds).
    pub dse_horizon_s: f64,
    /// Single-application scenarios.
    pub singles: Vec<Scenario>,
    /// Multi-application scenarios.
    pub multis: Vec<Scenario>,
}

impl Default for Fig7Options {
    fn default() -> Self {
        Fig7Options {
            reps: 3,
            dse_horizon_s: 600.0,
            singles: scenarios::odroid_single(),
            multis: scenarios::odroid_multi(),
        }
    }
}

impl Fig7Options {
    /// A reduced configuration for tests and micro-benchmarks.
    pub fn reduced() -> Self {
        Fig7Options {
            reps: 1,
            dse_horizon_s: 600.0,
            singles: vec![
                Scenario::of(Platform::Odroid, &["mg"]),
                Scenario::of(Platform::Odroid, &["mandelbrot"]),
                Scenario::of(Platform::Odroid, &["mandelbrot-static"]),
            ],
            multis: vec![Scenario::of(Platform::Odroid, &["is", "mg"])],
        }
    }
}

/// Result of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario name.
    pub scenario: String,
    /// Whether it is a multi-application scenario.
    pub multi: bool,
    /// EAS makespan (the gray boxes of the figure).
    pub eas_makespan_s: f64,
    /// Improvement of HARP (Offline) over EAS.
    pub harp: Improvement,
}

/// Runs the experiment, one row per scenario.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_rows(opts: &Fig7Options) -> Result<Vec<ScenarioRow>> {
    let mut all_apps = Vec::new();
    for s in opts.singles.iter().chain(&opts.multis) {
        for a in &s.apps {
            all_apps.push(a.clone());
        }
    }
    let offline = offline_profiles(Platform::Odroid, &all_apps, opts.dse_horizon_s)?;

    let scens: Vec<(&Scenario, bool)> = opts
        .singles
        .iter()
        .map(|s| (s, false))
        .chain(opts.multis.iter().map(|s| (s, true)))
        .collect();

    // One flat job set — per scenario the EAS baseline group then the
    // HARP (Offline) group — folded in enumeration order.
    let base_opts = RunOptions {
        governor: harp_platform::Governor::Schedutil,
        ..RunOptions::default()
    };
    let mut hopts = base_opts.clone();
    hopts.profiles = Some(offline);
    let mut jobs = Vec::new();
    for (scenario, _) in &scens {
        jobs.extend(repetition_jobs(
            Platform::Odroid,
            scenario,
            ManagerKind::Eas,
            &base_opts,
            opts.reps,
        ));
        jobs.extend(repetition_jobs(
            Platform::Odroid,
            scenario,
            ManagerKind::HarpOffline,
            &hopts,
            opts.reps,
        ));
    }
    let metrics = run_jobs(&jobs)?;

    let reps = opts.reps.max(1) as usize;
    let mut groups = metrics.chunks(reps);
    let mut rows = Vec::new();
    for (scenario, multi) in scens {
        let eas = fold_repetitions(groups.next().expect("EAS group per scenario"));
        let harp = fold_repetitions(groups.next().expect("HARP group per scenario"));
        rows.push(ScenarioRow {
            scenario: scenario.name.clone(),
            multi,
            eas_makespan_s: eas.makespan_s,
            harp: improvement(eas, harp),
        });
    }
    Ok(rows)
}

/// Geometric means over a group.
pub fn geomean_of(rows: &[ScenarioRow], multi: bool) -> Option<Improvement> {
    let group: Vec<&ScenarioRow> = rows.iter().filter(|r| r.multi == multi).collect();
    Some(Improvement {
        time: geometric_mean(&group.iter().map(|r| r.harp.time).collect::<Vec<_>>()).ok()?,
        energy: geometric_mean(&group.iter().map(|r| r.harp.energy).collect::<Vec<_>>()).ok()?,
    })
}

/// Renders the paper-style table.
pub fn render(rows: &[ScenarioRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 7: HARP (Offline) improvement over EAS — Odroid XU3-E\n\
         (time x / energy x; >1 is better; [EAS makespan])\n\n",
    );
    for group in [false, true] {
        out.push_str(if group {
            "--- multi-application scenarios ---\n"
        } else {
            "--- single-application scenarios ---\n"
        });
        out.push_str("  scenario                EAS[s]     HARP(Offline)\n");
        for r in rows.iter().filter(|r| r.multi == group) {
            out.push_str(&format!(
                "  {:<22} {:7.2}     {:4.2}/{:4.2}\n",
                r.scenario, r.eas_makespan_s, r.harp.time, r.harp.energy
            ));
        }
        if let Some(g) = geomean_of(rows, group) {
            out.push_str(&format!(
                "  geomean                           {:4.2}/{:4.2}\n",
                g.time, g.energy
            ));
        }
        out.push('\n');
    }
    out.push_str(
        "(paper geomeans — single: 1.07/1.27; multi: 1.20/1.38;\n \
         ep+ft regresses in both metrics due to cluster reassignments)\n",
    );
    out
}

/// Runs and renders.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(opts: &Fig7Options) -> Result<String> {
    Ok(render(&run_rows(opts)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_fig7_shapes_hold() {
        let rows = run_rows(&Fig7Options::reduced()).unwrap();
        assert_eq!(rows.len(), 4);
        // mg: offline HARP should save energy on the big.LITTLE board.
        let mg = rows.iter().find(|r| r.scenario == "mg").unwrap();
        assert!(mg.harp.energy > 1.0, "mg {:?}", mg.harp);
        // The adaptive mandelbrot should benefit at least as much as the
        // static variant (which HARP can only place, not resize).
        let adaptive = rows.iter().find(|r| r.scenario == "mandelbrot").unwrap();
        let fixed = rows
            .iter()
            .find(|r| r.scenario == "mandelbrot-static")
            .unwrap();
        assert!(
            adaptive.harp.energy >= fixed.harp.energy * 0.95,
            "adaptive {:?} vs static {:?}",
            adaptive.harp,
            fixed.harp
        );
        let table = render(&rows);
        assert!(table.contains("geomean"));
    }
}
