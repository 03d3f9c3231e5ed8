//! Figure 8: HARP during the learning phase (§6.5).
//!
//! Each scenario runs online with applications restarting continuously; the
//! RM's operating-point tables are snapshotted every 5 s. Each snapshot is
//! then evaluated like an offline profile (scenario re-run, improvement
//! over CFS), and the background stage (learning vs stable) is recorded.
//! The paper reports time-to-stable of 29.8 ± 5.9 s (single-application)
//! and 36.6 ± 8.0 s (multi-application).

use crate::runner::{improvement, run_scenario, Improvement, ManagerKind, RunOptions};
use harp_model::metrics::{mean, std_dev};
use harp_sched::HarpSimManager;
use harp_sim::{LaunchOpts, Manager, MgrEvent, SimConfig, SimState, SimTime, Simulation, SECOND};
use harp_types::{OperatingPointTable, Result};
use harp_workload::{Platform, Scenario};
use std::collections::HashMap;

const SNAP_TIMER: u64 = 0x5AAF;

/// One 5-second snapshot of the learning run.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot time (seconds since scenario start).
    pub t_s: f64,
    /// Whether every application had reached the stable stage.
    pub all_stable: bool,
    /// The operating-point tables at this moment.
    pub profiles: HashMap<String, OperatingPointTable>,
}

/// Snapshot + evaluated improvement over CFS.
#[derive(Debug, Clone)]
pub struct EvaluatedSnapshot {
    /// Snapshot time (seconds).
    pub t_s: f64,
    /// Whether the RM considered all applications stable.
    pub all_stable: bool,
    /// Improvement of HARP-with-these-tables over CFS.
    pub improvement: Improvement,
}

/// Result of one scenario's learning study.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Scenario name.
    pub scenario: String,
    /// Whether multi-application.
    pub multi: bool,
    /// Evaluated snapshots in time order.
    pub points: Vec<EvaluatedSnapshot>,
    /// Time (seconds) at which all applications first became stable.
    pub time_to_stable_s: Option<f64>,
}

/// Wraps the HARP manager and snapshots its RM state periodically.
struct SnapshotManager {
    inner: HarpSimManager,
    every: SimTime,
    armed: bool,
    snapshots: Vec<Snapshot>,
}

impl SnapshotManager {
    fn new(every: SimTime) -> Self {
        SnapshotManager {
            inner: HarpSimManager::online(),
            every,
            armed: false,
            snapshots: Vec::new(),
        }
    }

    fn take_snapshot(&mut self, st: &SimState) {
        if let Some(rm) = self.inner.rm() {
            self.snapshots.push(Snapshot {
                t_s: st.now() as f64 / 1e9,
                all_stable: rm.all_stable(),
                profiles: rm.snapshot_profiles(),
            });
        }
    }
}

impl Manager for SnapshotManager {
    fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
        match ev {
            MgrEvent::Timer { id } if id == SNAP_TIMER => {
                self.take_snapshot(st);
                if !st.app_ids().is_empty() {
                    st.set_timer(st.now() + self.every, SNAP_TIMER);
                }
            }
            ev => {
                if let MgrEvent::AppStarted { .. } = ev {
                    if !self.armed {
                        self.armed = true;
                        st.set_timer(st.now() + self.every, SNAP_TIMER);
                    }
                }
                self.inner.on_event(st, ev);
            }
        }
    }
}

/// Experiment options.
#[derive(Debug, Clone)]
pub struct Fig8Options {
    /// Learning horizon per scenario (simulated seconds).
    pub horizon_s: u64,
    /// Snapshot interval (paper: 5 s).
    pub snapshot_every_s: u64,
    /// Scenarios to study.
    pub scenarios: Vec<(Scenario, bool)>,
}

impl Default for Fig8Options {
    fn default() -> Self {
        let singles = ["bt", "ep", "ft", "lu", "mg"]
            .iter()
            .map(|n| (Scenario::of(Platform::RaptorLake, &[n]), false));
        let multis = [
            vec!["is", "lu"],
            vec!["cg", "ep", "ft"],
            vec!["bt", "cg", "ft", "is", "lu"],
        ]
        .into_iter()
        .map(|names| (Scenario::of(Platform::RaptorLake, &names.to_vec()), true));
        Fig8Options {
            horizon_s: 120,
            snapshot_every_s: 5,
            scenarios: singles.chain(multis).collect(),
        }
    }
}

impl Fig8Options {
    /// Reduced configuration for tests.
    pub fn reduced() -> Self {
        Fig8Options {
            horizon_s: 60,
            snapshot_every_s: 10,
            scenarios: vec![(Scenario::of(Platform::RaptorLake, &["mg"]), false)],
        }
    }
}

/// Runs the learning study for one scenario.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn study_scenario(scenario: &Scenario, multi: bool, opts: &Fig8Options) -> Result<Fig8Row> {
    let horizon = opts.horizon_s * SECOND;
    let mut sim = Simulation::new(
        Platform::RaptorLake.hardware(),
        SimConfig {
            seed: 31,
            horizon_ns: Some(horizon),
            governor: harp_platform::Governor::Powersave,
            ..SimConfig::default()
        },
    );
    for app in &scenario.apps {
        sim.add_arrival(
            0,
            app.clone(),
            LaunchOpts::all_hw_threads().restart_until(horizon),
        );
    }
    let mut mgr = SnapshotManager::new(opts.snapshot_every_s * SECOND);
    sim.run(&mut mgr)?;

    // Baseline for the improvement factors.
    let base = run_scenario(
        Platform::RaptorLake,
        scenario,
        ManagerKind::Cfs,
        &RunOptions::default(),
    )?;

    let mut points = Vec::new();
    let mut time_to_stable = None;
    for snap in &mgr.snapshots {
        if snap.all_stable && time_to_stable.is_none() {
            time_to_stable = Some(snap.t_s);
        }
        let vopts = RunOptions {
            profiles: Some(snap.profiles.clone()),
            ..Default::default()
        };
        let metrics = run_scenario(Platform::RaptorLake, scenario, ManagerKind::Harp, &vopts)?;
        points.push(EvaluatedSnapshot {
            t_s: snap.t_s,
            all_stable: snap.all_stable,
            improvement: improvement(base, metrics),
        });
    }
    Ok(Fig8Row {
        scenario: scenario.name.clone(),
        multi,
        points,
        time_to_stable_s: time_to_stable,
    })
}

/// Runs all scenarios of the study, in scenario order.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_rows(opts: &Fig8Options) -> Result<Vec<Fig8Row>> {
    opts.scenarios
        .iter()
        .map(|(scenario, multi)| study_scenario(scenario, *multi, opts))
        .collect()
}

/// Mean ± std of time-to-stable for a group.
pub fn time_to_stable_stats(rows: &[Fig8Row], multi: bool) -> Option<(f64, f64)> {
    let times: Vec<f64> = rows
        .iter()
        .filter(|r| r.multi == multi)
        .filter_map(|r| r.time_to_stable_s)
        .collect();
    Some((mean(&times).ok()?, std_dev(&times).ok()?))
}

/// Renders the paper-style series.
pub fn render(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 8: improvement over CFS during the learning phase\n\
         (each dot = one 5s operating-point-table snapshot; S = stable stage)\n\n",
    );
    for r in rows {
        out.push_str(&format!(
            "--- {}{} ---  (stable after {})\n",
            r.scenario,
            if r.multi { " [multi]" } else { "" },
            r.time_to_stable_s
                .map(|t| format!("{t:.1}s"))
                .unwrap_or_else(|| "never (horizon reached)".into())
        ));
        out.push_str("    t[s]   stage   time-factor  energy-factor\n");
        for p in &r.points {
            out.push_str(&format!(
                "  {:6.1}   {}      {:6.2}       {:6.2}\n",
                p.t_s,
                if p.all_stable { "S" } else { "L" },
                p.improvement.time,
                p.improvement.energy
            ));
        }
        out.push('\n');
    }
    for (multi, label, paper) in [
        (false, "single-application", "29.8 ± 5.9 s"),
        (true, "multi-application", "36.6 ± 8.0 s"),
    ] {
        if let Some((m, s)) = time_to_stable_stats(rows, multi) {
            out.push_str(&format!(
                "time-to-stable {label}: {m:.1} ± {s:.1} s   (paper: {paper})\n"
            ));
        }
    }
    out
}

/// Runs and renders.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run(opts: &Fig8Options) -> Result<String> {
    Ok(render(&run_rows(opts)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learning_progresses_to_stable_and_improves() {
        let rows = run_rows(&Fig8Options::reduced()).unwrap();
        let r = &rows[0];
        assert!(r.points.len() >= 3, "{} snapshots", r.points.len());
        // mg alone should reach the stable stage within the 60s horizon.
        assert!(
            r.time_to_stable_s.is_some(),
            "never stabilized in {} snapshots",
            r.points.len()
        );
        // Late snapshots should beat early ones on energy (learning works).
        let first = &r.points[0];
        let last = r.points.last().unwrap();
        assert!(
            last.improvement.energy >= first.improvement.energy * 0.9,
            "energy got much worse while learning: {first:?} -> {last:?}"
        );
        assert!(
            last.improvement.energy > 1.0,
            "stable mg tables should save energy: {:?}",
            last.improvement
        );
    }
}
