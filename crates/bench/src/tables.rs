//! The in-text tables of the evaluation: the frequency-governor study
//! (§6.3.3), the RM overhead (§6.6), the energy-attribution accuracy
//! (§5.1), and the headline summary of the abstract.

use crate::dse::offline_profiles;
use crate::runner::{
    fold_repetitions, improvement, learn_profiles, repetition_jobs, run_jobs, run_with_manager,
    ManagerKind, ProfileStore, RunOptions,
};
use crate::{fig6, fig7};
use harp_energy::EnergyAttributor;
use harp_model::metrics::geometric_mean;
use harp_platform::Governor;
use harp_sim::{Manager, MgrEvent, SimState, SECOND};
use harp_types::{AppId, Result};
use harp_workload::{Platform, Scenario};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// §6.3.3 — influence of frequency scaling
// ---------------------------------------------------------------------

/// Options of the governor study.
#[derive(Debug, Clone)]
pub struct GovernorOptions {
    /// Scenarios evaluated under both governors.
    pub scenarios: Vec<Scenario>,
    /// Repetitions.
    pub reps: u32,
    /// Warmup for online learning (simulated seconds).
    pub warmup_s: u64,
    /// DSE horizon per configuration.
    pub dse_horizon_s: f64,
}

impl Default for GovernorOptions {
    fn default() -> Self {
        GovernorOptions {
            scenarios: vec![
                Scenario::of(Platform::RaptorLake, &["mg"]),
                Scenario::of(Platform::RaptorLake, &["ep"]),
                Scenario::of(Platform::RaptorLake, &["cg", "ep", "ft"]),
                Scenario::of(Platform::RaptorLake, &["mg", "sp", "ua"]),
            ],
            reps: 2,
            warmup_s: 90,
            dse_horizon_s: 600.0,
        }
    }
}

impl GovernorOptions {
    /// Reduced configuration for tests.
    pub fn reduced() -> Self {
        GovernorOptions {
            scenarios: vec![
                Scenario::of(Platform::RaptorLake, &["mg"]),
                Scenario::of(Platform::RaptorLake, &["cg", "ep", "ft"]),
            ],
            reps: 1,
            warmup_s: 60,
            dse_horizon_s: 600.0,
        }
    }
}

/// Aggregate improvements of one HARP variant under one governor.
#[derive(Debug, Clone)]
pub struct GovernorCell {
    /// The governor.
    pub governor: Governor,
    /// The HARP variant.
    pub variant: ManagerKind,
    /// Geomean time improvement over CFS (same governor).
    pub time: f64,
    /// Geomean energy improvement over CFS (same governor).
    pub energy: f64,
}

/// Runs the governor study.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn governor_cells(opts: &GovernorOptions) -> Result<Vec<GovernorCell>> {
    let mut all_apps = Vec::new();
    for s in &opts.scenarios {
        all_apps.extend(s.apps.iter().cloned());
    }
    let offline = offline_profiles(Platform::RaptorLake, &all_apps, opts.dse_horizon_s)?;

    // Warm-up learning for the online variant (one run per scenario, used
    // under both governors).
    let learned: Vec<ProfileStore> = opts
        .scenarios
        .iter()
        .map(|scenario| learn_profiles(Platform::RaptorLake, scenario, opts.warmup_s * SECOND, 29))
        .collect::<Result<_>>()?;

    const VARIANTS: [ManagerKind; 2] = [ManagerKind::Harp, ManagerKind::HarpOffline];

    // One flat job set per governor: the shared CFS baseline group of each
    // scenario, then each variant's group. Folded in enumeration order.
    let mut jobs = Vec::new();
    for governor in [Governor::Powersave, Governor::Performance] {
        let base_opts = RunOptions {
            governor,
            ..RunOptions::default()
        };
        for scenario in &opts.scenarios {
            jobs.extend(repetition_jobs(
                Platform::RaptorLake,
                scenario,
                ManagerKind::Cfs,
                &base_opts,
                opts.reps,
            ));
        }
        for variant in VARIANTS {
            for (scenario, learned) in opts.scenarios.iter().zip(&learned) {
                let mut vopts = base_opts.clone();
                vopts.profiles = Some(match variant {
                    ManagerKind::HarpOffline => offline.clone(),
                    _ => learned.clone(),
                });
                jobs.extend(repetition_jobs(
                    Platform::RaptorLake,
                    scenario,
                    variant,
                    &vopts,
                    opts.reps,
                ));
            }
        }
    }
    let metrics = run_jobs(&jobs)?;

    let reps = opts.reps.max(1) as usize;
    let mut groups = metrics.chunks(reps);
    let mut cells = Vec::new();
    for governor in [Governor::Powersave, Governor::Performance] {
        let cfs: Vec<_> = opts
            .scenarios
            .iter()
            .map(|_| fold_repetitions(groups.next().expect("CFS group per scenario")))
            .collect();
        for variant in VARIANTS {
            let mut times = Vec::new();
            let mut energies = Vec::new();
            for cfs in &cfs {
                let harp = fold_repetitions(groups.next().expect("variant group per scenario"));
                let imp = improvement(*cfs, harp);
                times.push(imp.time);
                energies.push(imp.energy);
            }
            cells.push(GovernorCell {
                governor,
                variant,
                time: geometric_mean(&times)?,
                energy: geometric_mean(&energies)?,
            });
        }
    }
    Ok(cells)
}

/// Runs and renders the §6.3.3 table.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn governor_table(opts: &GovernorOptions) -> Result<String> {
    let cells = governor_cells(opts)?;
    let mut out = String::new();
    out.push_str("§6.3.3: influence of the frequency-scaling governor\n\n");
    out.push_str("  governor      variant          time x   energy x\n");
    for c in &cells {
        out.push_str(&format!(
            "  {:<12}  {:<15}  {:5.2}    {:5.2}\n",
            c.governor.to_string(),
            c.variant.to_string(),
            c.time,
            c.energy
        ));
    }
    out.push_str(
        "\n(paper: powersave HARP 1.14/1.42, performance HARP 1.20/1.44;\n \
         powersave Offline 1.34/1.58, performance Offline 1.36/1.61 —\n \
         i.e. the governor has only a minor effect)\n",
    );
    Ok(out)
}

// ---------------------------------------------------------------------
// §6.6 — performance overhead of HARP
// ---------------------------------------------------------------------

/// Overhead study result.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// Mean single-application overhead (fraction, e.g. 0.01 = 1 %).
    pub single: f64,
    /// Mean multi-application overhead.
    pub multi: f64,
}

/// Runs the §6.6 overhead study: HARP with all machinery running but
/// actuation disabled, compared to plain CFS.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn overhead(singles: &[Scenario], multis: &[Scenario], reps: u32) -> Result<OverheadResult> {
    // One flat job set across both groups: per scenario the CFS baseline
    // then the overhead-only variant, folded in enumeration order.
    let opts = RunOptions::default();
    let mut jobs = Vec::new();
    for s in singles.iter().chain(multis) {
        for kind in [ManagerKind::Cfs, ManagerKind::HarpOverheadOnly] {
            jobs.extend(repetition_jobs(Platform::RaptorLake, s, kind, &opts, reps));
        }
    }
    let metrics = run_jobs(&jobs)?;

    let mut groups = metrics.chunks(reps.max(1) as usize);
    let mut measure = |n: usize| -> f64 {
        let mut overheads = Vec::new();
        for _ in 0..n {
            let base = fold_repetitions(groups.next().expect("CFS group per scenario"));
            let taxed = fold_repetitions(groups.next().expect("taxed group per scenario"));
            overheads.push((taxed.makespan_s / base.makespan_s - 1.0).max(0.0));
        }
        overheads.iter().sum::<f64>() / overheads.len().max(1) as f64
    };
    Ok(OverheadResult {
        single: measure(singles.len()),
        multi: measure(multis.len()),
    })
}

/// Runs and renders the overhead table.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn overhead_table(singles: &[Scenario], multis: &[Scenario], reps: u32) -> Result<String> {
    let r = overhead(singles, multis, reps)?;
    Ok(format!(
        "§6.6: performance overhead of HARP (monitoring + exploration +\n\
         communication, actuation disabled)\n\n\
         \x20 single-application scenarios: {:.2}%   (paper: <1%)\n\
         \x20 multi-application scenarios:  {:.2}%   (paper: ≈2.5%)\n",
        r.single * 100.0,
        r.multi * 100.0
    ))
}

// ---------------------------------------------------------------------
// §5.1 — energy-attribution accuracy
// ---------------------------------------------------------------------

/// A manager that only samples counters and runs the energy attribution —
/// used to score attribution accuracy against the simulator ground truth.
struct AttributionProbe {
    att: EnergyAttributor,
    last_energy: f64,
    last_cpu: HashMap<AppId, Vec<f64>>,
    last_t: u64,
    results: Vec<(String, f64, f64)>, // (app, attributed, truth)
    truths: HashMap<AppId, String>,
}

impl AttributionProbe {
    fn new(hw: &harp_platform::HardwareDescription) -> Self {
        AttributionProbe {
            att: EnergyAttributor::dynamic_only(hw),
            last_energy: 0.0,
            last_cpu: HashMap::new(),
            last_t: 0,
            results: Vec::new(),
            truths: HashMap::new(),
        }
    }

    fn sample(&mut self, st: &mut SimState) {
        let now = st.now();
        let dt = (now - self.last_t) as f64 / 1e9;
        if dt <= 0.0 {
            return;
        }
        self.last_t = now;
        let e = st.package_energy();
        let de = e - self.last_energy;
        self.last_energy = e;
        let mut deltas = Vec::new();
        for &app in st.app_ids() {
            let cpu = st.app_cpu_time(app);
            let prev = self
                .last_cpu
                .get(&app)
                .cloned()
                .unwrap_or_else(|| vec![0.0; cpu.len()]);
            let d: Vec<f64> = cpu.iter().zip(&prev).map(|(a, b)| a - b).collect();
            self.last_cpu.insert(app, cpu.to_vec());
            deltas.push((app, d));
        }
        self.att.update(dt, de, &deltas);
    }
}

impl Manager for AttributionProbe {
    fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
        match ev {
            MgrEvent::AppStarted { app, name } => {
                self.truths.insert(app, name);
                st.set_timer(st.now() + 10_000_000, 1);
            }
            MgrEvent::Timer { .. } => {
                self.sample(st);
                if !st.app_ids().is_empty() {
                    st.set_timer(st.now() + 10_000_000, 1);
                }
            }
            MgrEvent::AppExited { app } => {
                self.sample(st);
                let name = self.truths.remove(&app).unwrap_or_default();
                let attributed = self.att.attributed_energy(app);
                let truth = st.true_app_energy(app);
                self.results.push((name, attributed, truth));
                self.att.remove(app);
            }
            _ => {}
        }
    }
}

/// Runs the attribution-accuracy study over multi-application scenarios and
/// returns the overall MAPE (percent).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn attribution_mape(scenarios: &[Scenario]) -> Result<f64> {
    let hw = Platform::RaptorLake.hardware();
    let mut attributed = Vec::new();
    let mut truth = Vec::new();
    for s in scenarios {
        let mut probe = AttributionProbe::new(&hw);
        run_with_manager(Platform::RaptorLake, s, &RunOptions::default(), &mut probe)?;
        for (_, a, t) in &probe.results {
            if *t > 0.0 {
                attributed.push(*a);
                truth.push(*t);
            }
        }
    }
    harp_model::metrics::mape(&attributed, &truth)
}

/// Runs and renders the §5.1 validation.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn attribution_table(scenarios: &[Scenario]) -> Result<String> {
    let m = attribution_mape(scenarios)?;
    Ok(format!(
        "§5.1: per-application energy-attribution accuracy\n\n\
         \x20 MAPE vs ground truth across {} multi-application scenarios: {:.2}%\n\
         \x20 (paper: 8.76% vs isolated executions)\n",
        scenarios.len(),
        m
    ))
}

// ---------------------------------------------------------------------
// Headline summary
// ---------------------------------------------------------------------

/// Computes the headline numbers (abstract: 12 % faster, 28 % less energy
/// on average across both systems) from full Fig. 6 + Fig. 7 runs.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn headline(fig6_opts: &fig6::Fig6Options, fig7_opts: &fig7::Fig7Options) -> Result<String> {
    let rows6 = fig6::run_rows(fig6_opts)?;
    let rows7 = fig7::run_rows(fig7_opts)?;
    // Intel: the online-HARP variant (single + multi); Odroid: offline.
    let mut times = Vec::new();
    let mut energies = Vec::new();
    for r in &rows6 {
        if let Some((_, imp)) = r.variants.iter().find(|(k, _)| *k == ManagerKind::Harp) {
            times.push(imp.time);
            energies.push(imp.energy);
        }
    }
    for r in &rows7 {
        times.push(r.harp.time);
        energies.push(r.harp.energy);
    }
    let t = geometric_mean(&times)?;
    let e = geometric_mean(&energies)?;
    Ok(format!(
        "Headline (abstract): average improvement of HARP across both systems\n\n\
         \x20 execution time: {:+.1}%   (paper: ≈ +12%)\n\
         \x20 energy:         {:+.1}%   (paper: ≈ +28%)\n",
        (t - 1.0) * 100.0,
        (e - 1.0) * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_workload::scenarios;

    #[test]
    fn overhead_is_small() {
        let singles = vec![Scenario::of(Platform::RaptorLake, &["ep"])];
        let multis = vec![Scenario::of(Platform::RaptorLake, &["cg", "ft"])];
        let r = overhead(&singles, &multis, 1).unwrap();
        assert!(r.single < 0.05, "single overhead {:.3}", r.single);
        assert!(r.multi < 0.08, "multi overhead {:.3}", r.multi);
    }

    #[test]
    fn attribution_accuracy_matches_paper_ballpark() {
        let scen = vec![scenarios::intel_multi()[0].clone()];
        let m = attribution_mape(&scen).unwrap();
        assert!(m < 25.0, "attribution MAPE {m:.1}% too large");
    }
}
