//! The HARP RM driving the simulated machine.
//!
//! This is the evaluation frontend of `harp-rm`: it registers arriving
//! applications, samples perf/energy counters every 50 ms (the paper's
//! measurement interval), feeds the RM, and applies the returned
//! operating-point activations through the simulator's actuation
//! primitives — affinity masks (all variants) and team sizes (unless
//! application adaptation is disabled, the *HARP (No Scaling)* variant).
//! RM communication costs are charged to the applications so the §6.6
//! overhead study measures something real.

use harp_rm::{
    AppObservation, Directive, LedgerTick, RmConfig, RmCore, RmOutput, TickObservations,
};
use harp_sim::{Affinity, Manager, MgrEvent, SimState};
use harp_types::AppId;
use std::collections::HashMap;

const TIMER_ID: u64 = 0x4A52;

/// Modelled CPU cost of one RM↔libharp message round trip, charged to the
/// application (overhead study, §6.6).
const MESSAGE_COST_NS: u64 = 300_000;
/// Modelled CPU cost of one full allocation solve (`solve_work == 1.0`).
const SOLVE_COST_NS: u64 = 2_000_000;

/// Configuration of the simulator frontend.
#[derive(Debug, Clone)]
pub struct HarpManagerConfig {
    /// RM configuration (exploration, offline mode, solve budget).
    pub rm: RmConfig,
    /// Apply team-size adaptations (`false` = *HARP (No Scaling)*, §6.3).
    pub scaling: bool,
    /// Apply any actuation at all (`false` = the §6.6 overhead study:
    /// monitoring, exploration bookkeeping and communication run, but
    /// applications stay unmanaged).
    pub actuation: bool,
}

impl Default for HarpManagerConfig {
    fn default() -> Self {
        HarpManagerConfig {
            rm: RmConfig::default(),
            scaling: true,
            actuation: true,
        }
    }
}

/// HARP inside the simulator (see module docs).
pub struct HarpSimManager {
    cfg: HarpManagerConfig,
    rm: Option<RmCore>,
    provides_utility: HashMap<AppId, bool>,
    last_tick_ns: u64,
    timer_armed: bool,
    last_energy: Option<LedgerTick>,
}

impl std::fmt::Debug for HarpSimManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarpSimManager")
            .field("scaling", &self.cfg.scaling)
            .field("actuation", &self.cfg.actuation)
            .finish()
    }
}

impl HarpSimManager {
    /// Creates the frontend; the RM core is instantiated lazily on the
    /// first event (it needs the machine description).
    pub fn new(cfg: HarpManagerConfig) -> Self {
        HarpSimManager {
            cfg,
            rm: None,
            provides_utility: HashMap::new(),
            last_tick_ns: 0,
            timer_armed: false,
            last_energy: None,
        }
    }

    /// With default configuration (online exploration, full adaptation).
    pub fn online() -> Self {
        HarpSimManager::new(HarpManagerConfig::default())
    }

    /// Offline variant: allocation from preinstalled profiles only.
    pub fn offline() -> Self {
        let mut cfg = HarpManagerConfig::default();
        cfg.rm.offline = true;
        HarpSimManager::new(cfg)
    }

    /// Access to the RM core (e.g. to preload profiles before running, or
    /// to inspect learned tables afterwards). `None` before the first
    /// event unless [`Self::init_rm`] was called.
    pub fn rm(&mut self) -> Option<&mut RmCore> {
        self.rm.as_mut()
    }

    /// Eagerly instantiates the RM for a machine (needed to preload
    /// profiles before the simulation starts).
    pub fn init_rm(&mut self, hw: harp_platform::HardwareDescription) -> &mut RmCore {
        self.rm
            .get_or_insert_with(|| RmCore::new(hw, self.cfg.rm.clone()))
    }

    fn ensure_rm(&mut self, st: &SimState) -> &mut RmCore {
        let cfg = self.cfg.rm.clone();
        self.rm
            .get_or_insert_with(|| RmCore::new(st.hw().clone(), cfg))
    }

    /// The energy ledger tick of the most recent RM tick: modeled package
    /// energy apportioned over the live sessions (µJ, conserving — the
    /// entries plus the idle share sum exactly to the tick total).
    pub fn last_energy(&self) -> Option<&LedgerTick> {
        self.last_energy.as_ref()
    }

    fn apply(&mut self, st: &mut SimState, out: RmOutput) {
        if let Some(tick) = out.energy {
            debug_assert_eq!(
                tick.tick_uj,
                tick.idle_tick_uj + tick.entries.iter().map(|e| e.tick_uj).sum::<u64>(),
                "ledger tick does not conserve"
            );
            self.last_energy = Some(tick);
        }
        let napps = out.directives.len().max(1) as u64;
        // `solve_work` scales the modeled solve cost by the actual solver
        // effort (fraction of the reference iteration schedule) — warm
        // rounds answered from the memo or a duality-gap certificate charge
        // a fraction of a full solve. Iteration counts are deterministic,
        // so this keeps runs bit-reproducible (unlike wall time).
        let solve_charge = (SOLVE_COST_NS as f64 * out.solve_work) as u64 / napps;
        for d in &out.directives {
            // Communication + (spread) solve cost land on the application's
            // critical path, managed or not.
            st.charge_overhead(d.app, MESSAGE_COST_NS + solve_charge);
            if !self.cfg.actuation {
                continue;
            }
            self.apply_directive(st, d);
        }
    }

    fn apply_directive(&self, st: &mut SimState, d: &Directive) {
        if d.hw_threads.is_empty() {
            return;
        }
        let mask = Affinity::from_threads(d.hw_threads.iter().copied());
        let _ = st.set_app_affinity(d.app, mask);
        if self.cfg.scaling {
            let _ = st.set_team_size(d.app, d.parallelism.max(1));
        }
    }

    fn tick(&mut self, st: &mut SimState) {
        let now = st.now();
        let dt_s = (now - self.last_tick_ns) as f64 / 1e9;
        self.last_tick_ns = now;
        if dt_s <= 0.0 {
            return;
        }
        let mut sp = harp_obs::span(harp_obs::Subsystem::Sched, "tick");
        let mut apps = Vec::with_capacity(st.app_ids().len());
        // Sampling and overhead charging mutate the state but not the
        // cached id view, so walk it by index instead of copying it.
        for i in 0..st.app_ids().len() {
            let app = st.app_ids()[i];
            if !self.provides_utility.contains_key(&app) {
                continue; // not registered (arrived between timer and tick)
            }
            let own_metric = self.provides_utility[&app];
            let sample = if own_metric {
                st.sample_app_utility(app)
            } else {
                st.sample_app_work(app)
            };
            let utility_rate = sample
                .map(|(dw, dns)| {
                    if dns > 0 {
                        dw / (dns as f64 / 1e9)
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0);
            // Sampling perf counters costs a message round trip.
            st.charge_overhead(app, MESSAGE_COST_NS / 2);
            apps.push(AppObservation {
                app,
                utility_rate,
                cpu_time: st.app_cpu_time(app).to_vec(),
            });
        }
        let obs = TickObservations {
            dt_s,
            package_energy_j: st.package_energy(),
            apps,
        };
        if sp.is_active() {
            sp.set_field("apps", obs.apps.len());
            sp.set_field("dt_ms", dt_s * 1e3);
        }
        let rm = self.ensure_rm(st);
        if let Ok(out) = rm.tick(&obs) {
            self.apply(st, out);
        }
    }

    fn interval(&self) -> u64 {
        self.cfg.rm.exploration.measurement_interval_ns
    }
}

impl Manager for HarpSimManager {
    fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
        match ev {
            MgrEvent::AppStarted { app, ref name } => {
                if harp_obs::enabled() {
                    harp_obs::instant(harp_obs::Subsystem::Sched, "app_started")
                        .field("app", app.0)
                        .field("name", name.clone());
                }
                let (provides, weight) = st
                    .app_spec(app)
                    .map(|s| (s.provides_utility, s.priority.weight()))
                    .unwrap_or((false, 1.0));
                self.provides_utility.insert(app, provides);
                let name = name.clone();
                let rm = self.ensure_rm(st);
                if let Ok(out) = rm.register(app, &name, provides) {
                    self.apply(st, out);
                }
                if weight != 1.0 {
                    let rm = self.ensure_rm(st);
                    if let Ok(out) = rm.set_priority(app, weight) {
                        self.apply(st, out);
                    }
                }
                if !self.timer_armed {
                    self.timer_armed = true;
                    self.last_tick_ns = st.now();
                    st.set_timer(st.now() + self.interval(), TIMER_ID);
                }
            }
            MgrEvent::AppExited { app } => {
                if harp_obs::enabled() {
                    harp_obs::instant(harp_obs::Subsystem::Sched, "app_exited").field("app", app.0);
                }
                self.provides_utility.remove(&app);
                if let Some(rm) = self.rm.as_mut() {
                    if let Ok(out) = rm.deregister(app) {
                        self.apply(st, out);
                    }
                }
            }
            MgrEvent::Timer { id } if id == TIMER_ID => {
                self.tick(st);
                if st.app_ids().is_empty() {
                    self.timer_armed = false;
                } else {
                    st.set_timer(st.now() + self.interval(), TIMER_ID);
                }
            }
            MgrEvent::PriorityChanged { app, class } => {
                if let Some(rm) = self.rm.as_mut() {
                    if let Ok(out) = rm.set_priority(app, class.weight()) {
                        self.apply(st, out);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfsManager;
    use harp_platform::presets;
    use harp_sim::{LaunchOpts, SimConfig, Simulation};
    use harp_workload::{benchmark, Platform};

    fn run_with(mgr: &mut dyn Manager, names: &[&str]) -> harp_sim::RunReport {
        let mut sim = Simulation::new(presets::raptor_lake(), SimConfig::default());
        for n in names {
            sim.add_arrival(
                0,
                benchmark(Platform::RaptorLake, n).unwrap(),
                LaunchOpts::all_hw_threads(),
            );
        }
        sim.run(mgr).unwrap()
    }

    #[test]
    fn harp_manages_single_app_to_completion() {
        let mut mgr = HarpSimManager::online();
        let r = run_with(&mut mgr, &["mg"]);
        assert_eq!(r.apps.len(), 1);
        // The RM learned operating points along the way.
        let rm = mgr.rm().unwrap();
        let profile = rm.profile("mg").expect("profile persisted on exit");
        assert!(profile.measured_count() >= 2);
    }

    #[test]
    fn harp_surfaces_a_conserving_energy_ledger_tick() {
        let mut mgr = HarpSimManager::online();
        run_with(&mut mgr, &["mg"]);
        let tick = mgr.last_energy().expect("RM ticks populate the ledger");
        assert!(tick.tick_uj > 0, "modeled energy must be nonzero");
        let attributed: u64 = tick.entries.iter().map(|e| e.tick_uj).sum();
        assert_eq!(tick.tick_uj, tick.idle_tick_uj + attributed);
        // The lifetime ledger conserves too: per-session totals plus idle
        // plus retired shares sum exactly to everything ever charged.
        assert_eq!(mgr.rm().unwrap().ledger().conservation_error(), 0);
    }

    #[test]
    fn harp_saves_energy_on_memory_bound_app() {
        let mut cfs = CfsManager::new();
        let base = run_with(&mut cfs, &["mg"]);
        // Warm-up: learn operating points across restarted executions
        // (the paper evaluates HARP with *stable* points, §6.3).
        let mut warm = HarpSimManager::online();
        let horizon = 60 * harp_sim::SECOND;
        let mut sim = Simulation::new(
            presets::raptor_lake(),
            SimConfig {
                horizon_ns: Some(horizon),
                ..SimConfig::default()
            },
        );
        sim.add_arrival(
            0,
            benchmark(Platform::RaptorLake, "mg").unwrap(),
            LaunchOpts::all_hw_threads().restart_until(horizon),
        );
        sim.run(&mut warm).unwrap();
        let profiles = warm.rm().unwrap().snapshot_profiles();
        // Measured run with the learned profiles.
        let mut mgr = HarpSimManager::online();
        let rm = mgr.init_rm(presets::raptor_lake());
        for (name, table) in profiles {
            rm.load_profile(name, table);
        }
        let managed = run_with(&mut mgr, &["mg"]);
        assert!(
            managed.total_energy_j < base.total_energy_j,
            "HARP {}J vs CFS {}J",
            managed.total_energy_j,
            base.total_energy_j
        );
    }

    #[test]
    fn no_scaling_variant_is_worse_than_full_harp() {
        let mut full = HarpSimManager::online();
        let with_scaling = run_with(&mut full, &["cg", "ft"]);
        let cfg = HarpManagerConfig {
            scaling: false,
            ..Default::default()
        };
        let mut noscale = HarpSimManager::new(cfg);
        let without = run_with(&mut noscale, &["cg", "ft"]);
        assert!(
            without.makespan_ns >= with_scaling.makespan_ns,
            "no-scaling {} vs full {}",
            without.makespan_ns,
            with_scaling.makespan_ns
        );
    }

    #[test]
    fn overhead_mode_changes_little_but_costs_something() {
        let mut cfs = CfsManager::new();
        let base = run_with(&mut cfs, &["ep"]);
        let cfg = HarpManagerConfig {
            actuation: false,
            ..Default::default()
        };
        let mut overhead_mgr = HarpSimManager::new(cfg);
        let taxed = run_with(&mut overhead_mgr, &["ep"]);
        let ratio = taxed.makespan_ns as f64 / base.makespan_ns as f64;
        assert!(
            (1.0..1.08).contains(&ratio),
            "overhead-only run cost {ratio}x (paper: <1% single-app)"
        );
    }

    #[test]
    fn offline_profiles_are_used() {
        use harp_types::{ExtResourceVector, NonFunctional};
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let mut mgr = HarpSimManager::offline();
        let rm = mgr.init_rm(hw.clone());
        rm.load_profile(
            "mg",
            harp_rm::table_from_points(vec![
                (
                    ExtResourceVector::from_flat(&shape, &[0, 8, 16]).unwrap(),
                    NonFunctional::new(5.0e10, 90.0),
                ),
                (
                    ExtResourceVector::from_flat(&shape, &[0, 0, 6]).unwrap(),
                    NonFunctional::new(4.0e10, 18.0),
                ),
            ]),
        );
        let r = run_with(&mut mgr, &["mg"]);
        assert_eq!(r.apps.len(), 1);
        // The cheap 6-E-core point should have been activated: energy far
        // below the CFS baseline.
        let mut cfs = CfsManager::new();
        let base = run_with(&mut cfs, &["mg"]);
        assert!(r.total_energy_j < base.total_energy_j);
    }
}
