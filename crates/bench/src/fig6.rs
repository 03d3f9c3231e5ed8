//! Figure 6: improvement factors over CFS on the Intel Raptor Lake machine
//! (§6.3) — ITD, HARP (stable online-learned points), HARP (Offline), and
//! HARP (No Scaling), for every single- and multi-application scenario,
//! with geometric means per group.

use crate::dse::offline_profiles;
use crate::runner::{
    fold_repetitions, improvement, learn_profiles, repetition_jobs, run_jobs, Improvement,
    ManagerKind, ProfileStore, RunOptions,
};
use harp_model::metrics::geometric_mean;
use harp_sim::SECOND;
use harp_types::Result;
use harp_workload::{scenarios, Platform, Scenario};

/// Experiment options.
#[derive(Debug, Clone)]
pub struct Fig6Options {
    /// Repetitions per scenario (paper: 10).
    pub reps: u32,
    /// Online-learning warmup per scenario (simulated seconds).
    pub warmup_s: u64,
    /// Measurement horizon per DSE configuration (simulated seconds).
    pub dse_horizon_s: f64,
    /// Single-application scenarios.
    pub singles: Vec<Scenario>,
    /// Multi-application scenarios.
    pub multis: Vec<Scenario>,
}

impl Default for Fig6Options {
    fn default() -> Self {
        Fig6Options {
            reps: 3,
            warmup_s: 240,
            dse_horizon_s: 600.0,
            singles: scenarios::intel_single(),
            multis: scenarios::intel_multi(),
        }
    }
}

impl Fig6Options {
    /// A reduced configuration for tests and micro-benchmarks.
    pub fn reduced() -> Self {
        Fig6Options {
            reps: 1,
            warmup_s: 90,
            dse_horizon_s: 600.0,
            singles: vec![
                Scenario::of(Platform::RaptorLake, &["mg"]),
                Scenario::of(Platform::RaptorLake, &["binpack"]),
            ],
            multis: vec![Scenario::of(Platform::RaptorLake, &["cg", "ep", "ft"])],
        }
    }
}

/// Result of one scenario: improvement factors of each variant over CFS.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario name.
    pub scenario: String,
    /// Whether it is a multi-application scenario.
    pub multi: bool,
    /// CFS makespan (the gray boxes of the paper's figure).
    pub cfs_makespan_s: f64,
    /// `(variant, improvement over CFS)` in presentation order.
    pub variants: Vec<(ManagerKind, Improvement)>,
}

const VARIANTS: [ManagerKind; 4] = [
    ManagerKind::Itd,
    ManagerKind::Harp,
    ManagerKind::HarpOffline,
    ManagerKind::HarpNoScaling,
];

/// Runs the full experiment, returning one row per scenario.
///
/// Three phases: the shared offline DSE (one sweep per distinct
/// application), the per-scenario warm-up learning runs, and finally one
/// flat job set with every (scenario, manager, repetition) cell, folded in
/// enumeration order.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_rows(opts: &Fig6Options) -> Result<Vec<ScenarioRow>> {
    // Offline profiles are shared across scenarios (one DSE per app).
    let mut all_apps = Vec::new();
    for s in opts.singles.iter().chain(&opts.multis) {
        for a in &s.apps {
            all_apps.push(a.clone());
        }
    }
    let offline = offline_profiles(Platform::RaptorLake, &all_apps, opts.dse_horizon_s)?;

    let scens: Vec<(&Scenario, bool)> = opts
        .singles
        .iter()
        .map(|s| (s, false))
        .chain(opts.multis.iter().map(|s| (s, true)))
        .collect();

    // Warm-up learning: one independent run per scenario.
    let learned: Vec<ProfileStore> = scens
        .iter()
        .map(|(scenario, _)| {
            learn_profiles(Platform::RaptorLake, scenario, opts.warmup_s * SECOND, 23)
        })
        .collect::<Result<_>>()?;

    // Flat measurement set: per scenario, the CFS baseline group then
    // each variant's group, every repetition its own job.
    let base_opts = RunOptions::default();
    let mut jobs = Vec::new();
    for ((scenario, _), learned) in scens.iter().zip(&learned) {
        jobs.extend(repetition_jobs(
            Platform::RaptorLake,
            scenario,
            ManagerKind::Cfs,
            &base_opts,
            opts.reps,
        ));
        for kind in VARIANTS {
            let mut vopts = base_opts.clone();
            vopts.profiles = match kind {
                ManagerKind::HarpOffline => Some(offline.clone()),
                ManagerKind::Harp | ManagerKind::HarpNoScaling => Some(learned.clone()),
                _ => None,
            };
            jobs.extend(repetition_jobs(
                Platform::RaptorLake,
                scenario,
                kind,
                &vopts,
                opts.reps,
            ));
        }
    }
    let metrics = run_jobs(&jobs)?;

    // Groups come back in enumeration order.
    let reps = opts.reps.max(1) as usize;
    let mut groups = metrics.chunks(reps);
    let mut rows = Vec::new();
    for (scenario, multi) in scens {
        let cfs = fold_repetitions(groups.next().expect("CFS group per scenario"));
        let mut variants = Vec::new();
        for kind in VARIANTS {
            let m = fold_repetitions(groups.next().expect("variant group per scenario"));
            variants.push((kind, improvement(cfs, m)));
        }
        rows.push(ScenarioRow {
            scenario: scenario.name.clone(),
            multi,
            cfs_makespan_s: cfs.makespan_s,
            variants,
        });
    }
    Ok(rows)
}

/// Geometric-mean improvements of one variant over a scenario group.
pub fn geomean_of(rows: &[ScenarioRow], kind: ManagerKind, multi: bool) -> Option<Improvement> {
    let times: Vec<f64> = rows
        .iter()
        .filter(|r| r.multi == multi)
        .filter_map(|r| r.variants.iter().find(|(k, _)| *k == kind))
        .map(|(_, i)| i.time)
        .collect();
    let energies: Vec<f64> = rows
        .iter()
        .filter(|r| r.multi == multi)
        .filter_map(|r| r.variants.iter().find(|(k, _)| *k == kind))
        .map(|(_, i)| i.energy)
        .collect();
    Some(Improvement {
        time: geometric_mean(&times).ok()?,
        energy: geometric_mean(&energies).ok()?,
    })
}

/// Renders rows + geometric means as the paper-style table.
pub fn render(rows: &[ScenarioRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 6: improvement factors over CFS — Intel Raptor Lake i9-13900K\n\
         (time x / energy x; >1 is better; [CFS makespan])\n\n",
    );
    for group in [false, true] {
        out.push_str(if group {
            "--- multi-application scenarios ---\n"
        } else {
            "--- single-application scenarios ---\n"
        });
        out.push_str(
            "  scenario              CFS[s]   ITD          HARP         HARP(Offl)   HARP(NoScal)\n",
        );
        for r in rows.iter().filter(|r| r.multi == group) {
            out.push_str(&format!("  {:<20} {:7.2}", r.scenario, r.cfs_makespan_s));
            for (_, imp) in &r.variants {
                out.push_str(&format!("  {:4.2}/{:4.2} ", imp.time, imp.energy));
            }
            out.push('\n');
        }
        out.push_str("  geomean                     ");
        for kind in VARIANTS {
            if let Some(g) = geomean_of(rows, kind, group) {
                out.push_str(&format!("  {:4.2}/{:4.2} ", g.time, g.energy));
            }
        }
        out.push_str("\n\n");
    }
    out.push_str(
        "(paper geomeans — single: ITD 1.02/1.04, HARP 0.92/1.34, Offline 1.22/1.44,\n \
         NoScaling 0.60/0.74; multi: ITD 0.84/0.88, HARP 1.40/1.52, Offline 1.58/1.73,\n \
         NoScaling 0.52/0.74)\n",
    );
    out
}

/// Runs the experiment and renders the table.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(opts: &Fig6Options) -> Result<String> {
    Ok(render(&run_rows(opts)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_fig6_shapes_hold() {
        let rows = run_rows(&Fig6Options::reduced()).unwrap();
        assert_eq!(rows.len(), 3);
        // mg: HARP should save energy vs CFS.
        let mg = rows.iter().find(|r| r.scenario == "mg").unwrap();
        let harp = mg
            .variants
            .iter()
            .find(|(k, _)| *k == ManagerKind::Harp)
            .unwrap()
            .1;
        assert!(harp.energy > 1.0, "mg HARP energy factor {:?}", harp);
        // binpack: HARP should be much faster than CFS (paper: 6.9x).
        let bp = rows.iter().find(|r| r.scenario == "binpack").unwrap();
        let harp_bp = bp
            .variants
            .iter()
            .find(|(k, _)| *k == ManagerKind::Harp)
            .unwrap()
            .1;
        assert!(
            harp_bp.time > 2.0,
            "binpack HARP speedup {:?} (paper ≈6.9x)",
            harp_bp
        );
        // Offline beats or matches online HARP on the multi scenario's energy.
        let multi = rows.iter().find(|r| r.multi).unwrap();
        let get = |kind| multi.variants.iter().find(|(k, _)| *k == kind).unwrap().1;
        let offline = get(ManagerKind::HarpOffline);
        let noscale = get(ManagerKind::HarpNoScaling);
        assert!(
            offline.energy > noscale.energy,
            "offline {offline:?} should beat no-scaling {noscale:?}"
        );
        let table = render(&rows);
        assert!(table.contains("geomean"));
    }
}
