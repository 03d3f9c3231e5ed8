//! Scenario execution under each evaluated resource manager.

use harp_platform::Governor;
use harp_sched::{CfsManager, EasManager, HarpManagerConfig, HarpSimManager, ItdManager};
use harp_sim::{LaunchOpts, Manager, RunReport, SimConfig, SimTime, Simulation, SECOND};
use harp_types::{OperatingPointTable, Result};
use harp_workload::{Platform, Scenario};
use std::collections::HashMap;

/// The resource managers compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManagerKind {
    /// Linux CFS (the Fig. 6 baseline).
    Cfs,
    /// Linux EAS (the Fig. 7 baseline).
    Eas,
    /// The ITD-based allocator.
    Itd,
    /// HARP with online-learned (stable) operating points.
    Harp,
    /// HARP with offline-generated operating points.
    HarpOffline,
    /// HARP without application adaptation (*HARP (No Scaling)*).
    HarpNoScaling,
    /// HARP with monitoring and communication but no actuation (§6.6).
    HarpOverheadOnly,
}

impl std::fmt::Display for ManagerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ManagerKind::Cfs => "CFS",
            ManagerKind::Eas => "EAS",
            ManagerKind::Itd => "ITD",
            ManagerKind::Harp => "HARP",
            ManagerKind::HarpOffline => "HARP (Offline)",
            ManagerKind::HarpNoScaling => "HARP (No Scaling)",
            ManagerKind::HarpOverheadOnly => "HARP (overhead only)",
        };
        f.write_str(s)
    }
}

/// Profiles (operating-point tables keyed by application name) preloaded
/// into HARP variants.
pub type ProfileStore = HashMap<String, OperatingPointTable>;

/// Metrics of one scenario execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Scenario makespan in seconds.
    pub makespan_s: f64,
    /// Total package energy in joules.
    pub energy_j: f64,
}

impl RunMetrics {
    fn from_report(r: &RunReport) -> Self {
        RunMetrics {
            makespan_s: r.makespan_s(),
            energy_j: r.total_energy_j,
        }
    }
}

/// Improvement factors over a baseline (the paper's y-axes): `>1` means the
/// variant is faster / consumes less energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Improvement {
    /// Execution-time improvement factor.
    pub time: f64,
    /// Energy improvement factor.
    pub energy: f64,
}

/// Computes improvement factors of `variant` over `baseline`.
pub fn improvement(baseline: RunMetrics, variant: RunMetrics) -> Improvement {
    Improvement {
        time: baseline.makespan_s / variant.makespan_s,
        energy: baseline.energy_j / variant.energy_j,
    }
}

/// Options of one scenario execution.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Random seed (per repetition).
    pub seed: u64,
    /// Frequency governor.
    pub governor: Governor,
    /// Profiles for the HARP variants (offline tables or pre-learned).
    pub profiles: Option<ProfileStore>,
    /// Simulation horizon (safety stop).
    pub horizon: Option<SimTime>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            governor: Governor::Powersave,
            profiles: None,
            horizon: Some(600 * SECOND),
        }
    }
}

fn sim_for(platform: Platform, scenario: &Scenario, opts: &RunOptions) -> Simulation {
    let mut sim = Simulation::new(
        platform.hardware(),
        SimConfig {
            seed: opts.seed,
            governor: opts.governor,
            horizon_ns: opts.horizon,
            ..SimConfig::default()
        },
    );
    for app in &scenario.apps {
        sim.add_arrival(0, app.clone(), LaunchOpts::all_hw_threads());
    }
    sim
}

fn harp_manager(kind: ManagerKind, opts: &RunOptions, platform: Platform) -> HarpSimManager {
    let mut cfg = HarpManagerConfig::default();
    match kind {
        ManagerKind::Harp => {}
        ManagerKind::HarpOffline => cfg.rm.offline = true,
        ManagerKind::HarpNoScaling => cfg.scaling = false,
        ManagerKind::HarpOverheadOnly => cfg.actuation = false,
        _ => unreachable!("harp_manager called for {kind}"),
    }
    let mut mgr = HarpSimManager::new(cfg);
    if let Some(profiles) = &opts.profiles {
        let rm = mgr.init_rm(platform.hardware());
        for (name, table) in profiles {
            rm.load_profile(name.clone(), table.clone());
        }
    }
    mgr
}

/// Runs one scenario under one manager and returns its metrics.
///
/// # Errors
///
/// Propagates simulation errors (invalid specs).
pub fn run_scenario(
    platform: Platform,
    scenario: &Scenario,
    kind: ManagerKind,
    opts: &RunOptions,
) -> Result<RunMetrics> {
    let mut sim = sim_for(platform, scenario, opts);
    let report = match kind {
        ManagerKind::Cfs => sim.run(&mut CfsManager::new())?,
        ManagerKind::Eas => sim.run(&mut EasManager::new())?,
        ManagerKind::Itd => sim.run(&mut ItdManager::new())?,
        _ => {
            let mut mgr = harp_manager(kind, opts, platform);
            sim.run(&mut mgr)?
        }
    };
    Ok(RunMetrics::from_report(&report))
}

/// Learns operating points for a scenario by running it online with
/// restarts for `warmup` simulated time, then returns the learned profiles
/// — how the Fig. 6 "HARP" bars obtain their *stable* operating points
/// (§6.3: "we show the performance of HARP with stable operating points").
///
/// # Errors
///
/// Propagates simulation errors.
pub fn learn_profiles(
    platform: Platform,
    scenario: &Scenario,
    warmup: SimTime,
    seed: u64,
) -> Result<ProfileStore> {
    let mut sim = Simulation::new(
        platform.hardware(),
        SimConfig {
            seed,
            governor: Governor::Powersave,
            horizon_ns: Some(warmup),
            ..SimConfig::default()
        },
    );
    for app in &scenario.apps {
        sim.add_arrival(
            0,
            app.clone(),
            LaunchOpts::all_hw_threads().restart_until(warmup),
        );
    }
    let mut mgr = HarpSimManager::online();
    sim.run(&mut mgr)?;
    Ok(mgr
        .rm()
        .map(|rm| rm.snapshot_profiles())
        .unwrap_or_default())
}

/// Convenience: run a scenario under a custom manager (ablations, tests).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_with_manager(
    platform: Platform,
    scenario: &Scenario,
    opts: &RunOptions,
    mgr: &mut dyn Manager,
) -> Result<RunReport> {
    let mut sim = sim_for(platform, scenario, opts);
    sim.run(mgr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_workload::scenarios;

    #[test]
    fn cfs_run_produces_metrics() {
        let sc = Scenario::of(Platform::RaptorLake, &["ep"]);
        let m = run_scenario(
            Platform::RaptorLake,
            &sc,
            ManagerKind::Cfs,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(m.makespan_s > 0.5 && m.makespan_s < 10.0);
        assert!(m.energy_j > 0.0);
    }

    #[test]
    fn improvement_factors_are_ratios() {
        let base = RunMetrics {
            makespan_s: 10.0,
            energy_j: 100.0,
        };
        let var = RunMetrics {
            makespan_s: 5.0,
            energy_j: 200.0,
        };
        let imp = improvement(base, var);
        assert_eq!(imp.time, 2.0);
        assert_eq!(imp.energy, 0.5);
    }

    #[test]
    fn learned_profiles_are_nonempty() {
        let sc = Scenario::of(Platform::RaptorLake, &["mg"]);
        let profiles = learn_profiles(Platform::RaptorLake, &sc, 40 * SECOND, 3).unwrap();
        let table = profiles.get("mg").expect("mg profile learned");
        assert!(
            table.measured_count() >= 5,
            "only {} measured points",
            table.measured_count()
        );
    }

    #[test]
    fn harp_beats_cfs_on_a_multi_scenario() {
        // End-to-end sanity for the harness: a memory+compute pair, HARP
        // with learned points vs CFS.
        let sc = &scenarios::intel_multi()[2]; // cg+ep+ft
        let opts = RunOptions::default();
        let base = run_scenario(Platform::RaptorLake, sc, ManagerKind::Cfs, &opts).unwrap();
        let profiles = learn_profiles(Platform::RaptorLake, sc, 90 * SECOND, 5).unwrap();
        let mut opts2 = opts.clone();
        opts2.profiles = Some(profiles);
        let harp = run_scenario(Platform::RaptorLake, sc, ManagerKind::Harp, &opts2).unwrap();
        let imp = improvement(base, harp);
        assert!(
            imp.energy > 1.0,
            "HARP should save energy on cg+ep+ft: {imp:?}"
        );
    }
}
