//! Per-application energy attribution on heterogeneous CPUs (paper §5.1).
//!
//! Built-in power sensors (RAPL on Intel, the INA sensors on the Odroid)
//! measure *system-wide* energy. To drive its cost function HARP needs
//! *per-application* power. The paper builds on EnergAt (Hè et al.,
//! HotCarbon '23) — attribute dynamic energy to applications proportionally
//! to their CPU time — and extends it for heterogeneous processors with
//! per-core-type power coefficients, because a P-core second costs several
//! times more energy than an E-core second (Eq. 3):
//!
//! ```text
//! E_Δ = T_P · Pᴾ + T_E · Pᴱ,    with Pᴾ = γ · Pᴱ  (γ determined offline)
//! ```
//!
//! [`EnergyAttributor`] implements the generalized n-kind version: the
//! measured dynamic energy of each interval is decomposed over per-kind CPU
//! time weighted by the offline coefficients, yielding a per-kind base
//! power, which is then charged to applications according to their own
//! per-kind CPU time. The paper validates this attribution at 8.76 % MAPE;
//! the reproduction of that experiment lives in `harp-bench`
//! (`tab_attribution`).
//!
//! # Example
//!
//! ```
//! use harp_energy::EnergyAttributor;
//! use harp_platform::HardwareDescription;
//! use harp_types::AppId;
//!
//! let hw = HardwareDescription::raptor_lake();
//! let mut att = EnergyAttributor::new(&hw);
//! // One 100 ms interval: package counter grew by 2 J; app 1 spent
//! // 0.1 s on P-cores, app 2 spent 0.1 s on E-cores.
//! att.update(
//!     0.1,
//!     2.0,
//!     &[(AppId(1), vec![0.1, 0.0]), (AppId(2), vec![0.0, 0.1])],
//! );
//! assert!(att.attributed_energy(AppId(1)) > att.attributed_energy(AppId(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use harp_platform::HardwareDescription;
use harp_types::AppId;
use std::collections::HashMap;

/// Incremental per-application energy attribution.
///
/// Feed it one sample per measurement interval: the interval length, the
/// *increase* of the package energy counter, and each application's
/// cumulative per-kind CPU time delta for the interval.
#[derive(Debug, Clone)]
pub struct EnergyAttributor {
    /// Per-kind active-power coefficients relative to the last kind
    /// (`γ` in Eq. 3; the paper determines them offline — here they come
    /// from the hardware description's calibrated power parameters).
    coefficients: Vec<f64>,
    /// Estimated always-on power (package static + cluster static + idle
    /// cores). Only subtracted in [`EnergyAttributor::dynamic_only`] mode.
    idle_power_w: f64,
    /// Whether static/idle energy is distributed to applications (EnergAt
    /// semantics, the default) or subtracted first (dynamic-only mode, for
    /// validation against the simulator's dynamic ground truth).
    include_static: bool,
    totals: HashMap<AppId, f64>,
    last_power: HashMap<AppId, f64>,
}

impl EnergyAttributor {
    /// Builds an EnergAt-faithful attributor: the *entire* measured energy
    /// delta of each interval — static and idle power included — is
    /// distributed over the applications' weighted CPU time. A lone small
    /// application is therefore charged the package's baseline power too,
    /// which is what makes under-utilizing a machine expensive in HARP's
    /// energy-utility cost.
    pub fn new(hw: &HardwareDescription) -> Self {
        let base = hw
            .clusters
            .last()
            .map(|c| c.power.core_active_w)
            .unwrap_or(1.0)
            .max(1e-9);
        let coefficients = hw
            .clusters
            .iter()
            .map(|c| c.power.core_active_w / base)
            .collect();
        let idle_power_w = hw.package_static_w
            + hw.clusters
                .iter()
                .map(|c| c.power.cluster_static_w + c.cores as f64 * c.power.core_idle_w)
                .sum::<f64>();
        EnergyAttributor {
            coefficients,
            idle_power_w,
            include_static: true,
            totals: HashMap::new(),
            last_power: HashMap::new(),
        }
    }

    /// Builds an attributor that subtracts the estimated idle/static power
    /// before distributing — attributing *dynamic* energy only. Used to
    /// validate the attribution against the simulator's per-application
    /// dynamic ground truth (§5.1).
    pub fn dynamic_only(hw: &HardwareDescription) -> Self {
        let mut a = EnergyAttributor::new(hw);
        a.include_static = false;
        a
    }

    /// The `γ` coefficient of kind `kind` (active power relative to the
    /// most efficient kind).
    pub fn coefficient(&self, kind: usize) -> f64 {
        self.coefficients.get(kind).copied().unwrap_or(1.0)
    }

    /// Processes one measurement interval.
    ///
    /// * `dt_s` — interval length in seconds;
    /// * `package_energy_delta_j` — increase of the package energy counter;
    /// * `app_cpu_time_delta` — per application, CPU seconds spent on each
    ///   core kind during the interval.
    pub fn update(
        &mut self,
        dt_s: f64,
        package_energy_delta_j: f64,
        app_cpu_time_delta: &[(AppId, Vec<f64>)],
    ) {
        if dt_s <= 0.0 {
            return;
        }
        // Energy to distribute this interval.
        let dynamic = if self.include_static {
            package_energy_delta_j.max(0.0)
        } else {
            (package_energy_delta_j - self.idle_power_w * dt_s).max(0.0)
        };
        // Weighted total busy time: Σ_k γ_k · T_k.
        let mut weighted_total = 0.0;
        for (_, times) in app_cpu_time_delta {
            for (k, &t) in times.iter().enumerate() {
                weighted_total += self.coefficient(k) * t.max(0.0);
            }
        }
        if weighted_total <= 0.0 {
            for (app, _) in app_cpu_time_delta {
                self.last_power.insert(*app, 0.0);
            }
            return;
        }
        // Base (efficient-kind) power implied by the measurement.
        let base_power_seconds = dynamic / weighted_total;
        for (app, times) in app_cpu_time_delta {
            let app_weighted: f64 = times
                .iter()
                .enumerate()
                .map(|(k, &t)| self.coefficient(k) * t.max(0.0))
                .sum();
            let joules = base_power_seconds * app_weighted;
            *self.totals.entry(*app).or_insert(0.0) += joules;
            self.last_power.insert(*app, joules / dt_s);
        }
    }

    /// Total energy attributed to an application so far (joules).
    pub fn attributed_energy(&self, app: AppId) -> f64 {
        self.totals.get(&app).copied().unwrap_or(0.0)
    }

    /// The application's power during the most recent interval (watts) —
    /// the `o[p]` metric recorded into operating points.
    pub fn last_power(&self, app: AppId) -> f64 {
        self.last_power.get(&app).copied().unwrap_or(0.0)
    }

    /// Forgets an application (after it exits).
    pub fn remove(&mut self, app: AppId) {
        self.totals.remove(&app);
        self.last_power.remove(&app);
    }

    /// The idle-power estimate subtracted each interval (watts).
    pub fn idle_power(&self) -> f64 {
        self.idle_power_w
    }
}

/// One session's share of a ledger tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The session.
    pub app: AppId,
    /// Micro-joules attributed to the session this tick.
    pub tick_uj: u64,
    /// Cumulative micro-joules attributed to the session so far.
    pub total_uj: u64,
}

/// The outcome of one [`EnergyLedger::charge`] call: an exact integer
/// decomposition of the tick's energy. `tick_uj == idle_tick_uj +
/// Σ entries.tick_uj` always holds bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerTick {
    /// Total micro-joules accounted this tick.
    pub tick_uj: u64,
    /// Micro-joules charged to the idle account this tick (energy measured
    /// while no session contributed weighted CPU time).
    pub idle_tick_uj: u64,
    /// Per-session shares, in the caller's weight order.
    pub entries: Vec<LedgerEntry>,
}

/// Exact integer micro-joule energy ledger over the attribution model.
///
/// [`EnergyAttributor`] works in floating point, which is the right tool
/// for the cost function but cannot promise that per-app shares sum to
/// the measured total — rounding leaks energy. The ledger re-runs the
/// same proportional split in integer arithmetic: each tick's modeled
/// energy is converted to micro-joules (a sub-µJ floating remainder is
/// carried forward so the long-run integer total tracks the float sum)
/// and apportioned over the per-session weights by the largest-remainder
/// method, so per-session entries sum *exactly* to the tick total.
/// Energy measured while nothing ran lands in an explicit idle account;
/// energy already attributed to sessions that since exited moves to a
/// retired account on [`EnergyLedger::remove`]. The conservation
/// invariant — checkable bit-exactly at any time — is:
///
/// ```text
/// idle_uj + retired_uj + Σ_sessions total_uj == total_uj
/// ```
///
/// All arithmetic is sequential integer (plus one deterministic f64
/// multiply per tick), so ledgers fed identical observations are
/// bit-identical regardless of solver parallelism or platform.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    /// Sub-micro-joule remainder carried between ticks.
    carry_uj: f64,
    total_uj: u64,
    idle_uj: u64,
    retired_uj: u64,
    sessions: HashMap<AppId, u64>,
}

/// Scale used to convert normalized f64 weights into integer numerators
/// for the largest-remainder split (2^53: every float in `[0, 1]` with
/// 53-bit precision maps to a distinct integer).
const WEIGHT_SCALE: f64 = 9_007_199_254_740_992.0;

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Accounts one tick: converts `energy_delta_j` (joules, negative
    /// clamped to zero) to micro-joules and apportions it over `weights`
    /// (per-session non-negative attribution weights, e.g. Σ_k γ_k·T_k).
    /// Zero total weight — idle machine, or no sessions — charges the
    /// whole tick to the idle account; sessions still get zero-valued
    /// entries so consumers see every live session each tick.
    pub fn charge(&mut self, energy_delta_j: f64, weights: &[(AppId, f64)]) -> LedgerTick {
        let exact_uj = energy_delta_j.max(0.0) * 1e6 + self.carry_uj;
        // `exact_uj` is finite and non-negative by construction; the cast
        // saturates on absurd inputs rather than wrapping.
        let tick_uj = exact_uj.floor().min(u64::MAX as f64) as u64;
        self.carry_uj = (exact_uj - tick_uj as f64).max(0.0);
        self.total_uj += tick_uj;

        let total_weight: f64 = weights.iter().map(|(_, w)| w.max(0.0)).sum();
        let mut entries: Vec<LedgerEntry> = weights
            .iter()
            .map(|&(app, _)| LedgerEntry {
                app,
                tick_uj: 0,
                total_uj: 0,
            })
            .collect();

        let mut idle_tick_uj = tick_uj;
        if total_weight > 0.0 && tick_uj > 0 {
            // Integer numerators of each session's share. The f64 divide
            // and scale are deterministic (fixed order, IEEE semantics);
            // everything after is exact integer arithmetic.
            let scaled: Vec<u128> = weights
                .iter()
                .map(|(_, w)| ((w.max(0.0) / total_weight) * WEIGHT_SCALE) as u128)
                .collect();
            let den: u128 = scaled.iter().sum();
            if den > 0 {
                let mut assigned: u64 = 0;
                let mut remainders: Vec<(u128, AppId, usize)> = Vec::with_capacity(scaled.len());
                for (i, &s) in scaled.iter().enumerate() {
                    let num = tick_uj as u128 * s;
                    // `den > 0` here, so the checked ops never fall back.
                    let base = num.checked_div(den).unwrap_or(0) as u64;
                    entries[i].tick_uj = base;
                    assigned += base;
                    remainders.push((num.checked_rem(den).unwrap_or(0), weights[i].0, i));
                }
                // Largest remainder first; ties broken by ascending AppId
                // so the distribution is a pure function of the inputs.
                remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let leftover = tick_uj - assigned;
                for &(_, _, i) in remainders.iter().take(leftover as usize) {
                    entries[i].tick_uj += 1;
                }
                idle_tick_uj = 0;
            }
        }
        self.idle_uj += idle_tick_uj;
        for e in &mut entries {
            let total = self.sessions.entry(e.app).or_insert(0);
            *total += e.tick_uj;
            e.total_uj = *total;
        }
        LedgerTick {
            tick_uj,
            idle_tick_uj,
            entries,
        }
    }

    /// Retires a session: its accumulated micro-joules move to the retired
    /// account so the conservation invariant keeps holding after exits.
    pub fn remove(&mut self, app: AppId) {
        if let Some(uj) = self.sessions.remove(&app) {
            self.retired_uj += uj;
        }
    }

    /// Total micro-joules accounted since the ledger was created.
    pub fn total_uj(&self) -> u64 {
        self.total_uj
    }

    /// Micro-joules in the idle account (ticks with zero total weight).
    pub fn idle_uj(&self) -> u64 {
        self.idle_uj
    }

    /// Micro-joules attributed to sessions that have since exited.
    pub fn retired_uj(&self) -> u64 {
        self.retired_uj
    }

    /// Cumulative micro-joules attributed to a live session.
    pub fn session_uj(&self, app: AppId) -> u64 {
        self.sessions.get(&app).copied().unwrap_or(0)
    }

    /// Live sessions and their cumulative micro-joules, ascending by id.
    pub fn sessions(&self) -> Vec<(AppId, u64)> {
        let mut v: Vec<(AppId, u64)> = self.sessions.iter().map(|(&a, &uj)| (a, uj)).collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }

    /// Checks the conservation invariant; returns the imbalance (always 0
    /// unless the ledger itself is buggy — callers assert on this).
    pub fn conservation_error(&self) -> i128 {
        let accounted = self.idle_uj as i128
            + self.retired_uj as i128
            + self.sessions.values().map(|&uj| uj as i128).sum::<i128>();
        self.total_uj as i128 - accounted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_platform::presets;

    #[test]
    fn coefficients_reflect_power_ratio() {
        let hw = presets::raptor_lake();
        let att = EnergyAttributor::new(&hw);
        // P-cores draw ~5.3x the active power of E-cores in the preset.
        let gamma = att.coefficient(0);
        assert!(gamma > 3.0 && gamma < 8.0, "gamma {gamma}");
        assert_eq!(att.coefficient(1), 1.0);
        assert!(att.idle_power() > 0.0);
    }

    #[test]
    fn attribution_splits_by_weighted_cpu_time() {
        let hw = presets::raptor_lake();
        let mut att = EnergyAttributor::dynamic_only(&hw);
        let gamma = att.coefficient(0);
        // Equal CPU time, app1 on P, app2 on E: energy ratio = gamma.
        att.update(
            1.0,
            att.idle_power() + 10.0,
            &[(AppId(1), vec![1.0, 0.0]), (AppId(2), vec![0.0, 1.0])],
        );
        let e1 = att.attributed_energy(AppId(1));
        let e2 = att.attributed_energy(AppId(2));
        assert!((e1 / e2 - gamma).abs() < 1e-9, "{e1} / {e2} vs {gamma}");
        // All dynamic energy is distributed.
        assert!((e1 + e2 - 10.0).abs() < 1e-9);
        // EnergAt mode distributes everything, static included.
        let mut full = EnergyAttributor::new(&hw);
        full.update(1.0, full.idle_power() + 10.0, &[(AppId(1), vec![1.0, 0.0])]);
        let total = full.idle_power() + 10.0;
        assert!((full.attributed_energy(AppId(1)) - total).abs() < 1e-9);
    }

    #[test]
    fn attribution_is_conservative() {
        // Attributed energy never exceeds measured dynamic energy.
        let hw = presets::odroid_xu3();
        let mut att = EnergyAttributor::dynamic_only(&hw);
        let apps = vec![
            (AppId(1), vec![0.3, 0.1]),
            (AppId(2), vec![0.0, 0.5]),
            (AppId(3), vec![0.2, 0.2]),
        ];
        att.update(0.5, att.idle_power() * 0.5 + 3.0, &apps);
        let total: f64 = (1..=3).map(|i| att.attributed_energy(AppId(i))).sum();
        assert!(total <= 3.0 + 1e-9);
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn idle_interval_attributes_nothing() {
        let hw = presets::raptor_lake();
        let mut att = EnergyAttributor::dynamic_only(&hw);
        att.update(1.0, att.idle_power(), &[(AppId(1), vec![0.0, 0.0])]);
        assert_eq!(att.attributed_energy(AppId(1)), 0.0);
        assert_eq!(att.last_power(AppId(1)), 0.0);
    }

    #[test]
    fn last_power_tracks_current_interval() {
        let hw = presets::raptor_lake();
        let mut att = EnergyAttributor::dynamic_only(&hw);
        att.update(
            0.1,
            att.idle_power() * 0.1 + 1.0,
            &[(AppId(1), vec![0.1, 0.0])],
        );
        assert!((att.last_power(AppId(1)) - 10.0).abs() < 1e-9);
        att.update(
            0.1,
            att.idle_power() * 0.1 + 0.5,
            &[(AppId(1), vec![0.1, 0.0])],
        );
        assert!((att.last_power(AppId(1)) - 5.0).abs() < 1e-9);
        // Totals accumulate.
        assert!((att.attributed_energy(AppId(1)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn remove_clears_state() {
        let hw = presets::raptor_lake();
        let mut att = EnergyAttributor::new(&hw);
        att.update(0.1, 5.0, &[(AppId(1), vec![0.1, 0.0])]);
        att.remove(AppId(1));
        assert_eq!(att.attributed_energy(AppId(1)), 0.0);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let hw = presets::raptor_lake();
        let mut att = EnergyAttributor::dynamic_only(&hw);
        att.update(0.0, 100.0, &[(AppId(1), vec![1.0, 1.0])]); // zero dt
        assert_eq!(att.attributed_energy(AppId(1)), 0.0);
        att.update(0.1, -5.0, &[(AppId(1), vec![0.1, 0.0])]); // negative delta
        assert_eq!(att.attributed_energy(AppId(1)), 0.0);
        att.update(0.1, 5.0, &[]); // nobody ran
        assert_eq!(att.attributed_energy(AppId(1)), 0.0);
    }

    #[test]
    fn ledger_conserves_every_tick_exactly() {
        let mut ledger = EnergyLedger::new();
        // Irrational-ish weights that cannot split 1000001 µJ evenly.
        let weights = vec![
            (AppId(1), 0.3337),
            (AppId(2), 1.777),
            (AppId(3), 0.000213),
            (AppId(4), 5.25),
        ];
        let mut per_app = [0u64; 4];
        for tick in 0..500 {
            let delta_j = 1.000001 + (tick as f64) * 1e-4;
            let out = ledger.charge(delta_j, &weights);
            let sum: u64 = out.entries.iter().map(|e| e.tick_uj).sum();
            assert_eq!(
                out.tick_uj,
                sum + out.idle_tick_uj,
                "tick {tick} leaked energy"
            );
            assert_eq!(out.idle_tick_uj, 0, "weighted tick must not hit idle");
            for (i, e) in out.entries.iter().enumerate() {
                per_app[i] += e.tick_uj;
                assert_eq!(e.total_uj, per_app[i]);
            }
        }
        assert_eq!(ledger.conservation_error(), 0);
        // The integer total tracks the float sum to within the un-flushed
        // sub-µJ carry (< 1 µJ) plus accumulated float rounding.
        let float_total: f64 = (0..500).map(|t| 1.000001 + (t as f64) * 1e-4).sum::<f64>() * 1e6;
        assert!((ledger.total_uj() as f64 - float_total).abs() < 2.0);
    }

    #[test]
    fn ledger_largest_remainder_prefers_big_shares_then_low_ids() {
        let mut ledger = EnergyLedger::new();
        // 10 µJ over three equal weights: 3/3/3 base, 1 leftover µJ goes
        // to the lowest id on the remainder tie.
        let out = ledger.charge(10e-6, &[(AppId(7), 1.0), (AppId(3), 1.0), (AppId(5), 1.0)]);
        assert_eq!(out.tick_uj, 10);
        let get = |app: u64| {
            out.entries
                .iter()
                .find(|e| e.app == AppId(app))
                .unwrap()
                .tick_uj
        };
        assert_eq!(get(3), 4, "tie-break goes to the lowest AppId");
        assert_eq!(get(5), 3);
        assert_eq!(get(7), 3);
    }

    #[test]
    fn ledger_idle_account_absorbs_unweighted_energy() {
        let mut ledger = EnergyLedger::new();
        let out = ledger.charge(2.5e-6, &[]);
        assert_eq!(out.tick_uj, 2);
        assert_eq!(out.idle_tick_uj, 2);
        // Sub-µJ carry survives to the next tick.
        let out = ledger.charge(0.5e-6, &[(AppId(1), 0.0)]);
        assert_eq!(out.tick_uj, 1, "carried 0.5 µJ + 0.5 µJ");
        assert_eq!(out.idle_tick_uj, 1, "zero-weight session stays idle");
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].tick_uj, 0);
        assert_eq!(ledger.idle_uj(), 3);
        assert_eq!(ledger.conservation_error(), 0);
    }

    #[test]
    fn ledger_remove_retires_energy_without_leaking() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(1.0, &[(AppId(1), 1.0), (AppId(2), 3.0)]);
        let before = ledger.session_uj(AppId(1));
        assert!(before > 0);
        ledger.remove(AppId(1));
        assert_eq!(ledger.session_uj(AppId(1)), 0);
        assert_eq!(ledger.retired_uj(), before);
        assert_eq!(ledger.conservation_error(), 0);
        assert_eq!(ledger.sessions().len(), 1);
    }

    #[test]
    fn ledger_is_deterministic_across_runs() {
        let run = || {
            let mut ledger = EnergyLedger::new();
            let mut out = Vec::new();
            for tick in 0..200u64 {
                let weights: Vec<(AppId, f64)> = (1..=5)
                    .map(|a| (AppId(a), ((tick * 31 + a * 17) % 13) as f64 * 0.173))
                    .collect();
                let t = ledger.charge(0.0137 + tick as f64 * 3.3e-5, &weights);
                out.push(t);
            }
            (out, ledger.total_uj(), ledger.idle_uj())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn attribution_tracks_ground_truth_in_simulation() {
        // End-to-end: run two co-located apps in the simulator, feed the
        // attributor only observable counters, compare against the
        // simulator's ground truth (the §5.1 validation, small scale).
        use harp_sim::{AppSpec, LaunchOpts, Manager, MgrEvent, SimConfig, SimState, Simulation};
        struct Sampler {
            att: EnergyAttributor,
            last_energy: f64,
            last_cpu: HashMap<AppId, Vec<f64>>,
            last_t: u64,
        }
        impl Sampler {
            fn sample(&mut self, st: &mut SimState) {
                let now = st.now();
                let dt = (now - self.last_t) as f64 / 1e9;
                if dt <= 0.0 {
                    return;
                }
                let e = st.package_energy();
                let de = e - self.last_energy;
                self.last_energy = e;
                self.last_t = now;
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
        impl Manager for Sampler {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                match ev {
                    MgrEvent::AppStarted { .. } => st.set_timer(st.now() + 10_000_000, 1),
                    MgrEvent::Timer { .. } => {
                        self.sample(st);
                        if !st.app_ids().is_empty() {
                            st.set_timer(st.now() + 10_000_000, 1);
                        }
                    }
                    MgrEvent::AppExited { .. } => self.sample(st),
                    _ => {}
                }
            }
        }
        let hw = presets::raptor_lake();
        let mut sim = Simulation::new(hw.clone(), SimConfig::default());
        let compute = AppSpec::builder("compute", 2)
            .total_work(4.0e10)
            .build()
            .unwrap();
        let membound = AppSpec::builder("membound", 2)
            .total_work(2.0e10)
            .mem_intensity(0.8)
            .build()
            .unwrap();
        sim.add_arrival(0, compute, LaunchOpts::fixed_team(16));
        sim.add_arrival(0, membound, LaunchOpts::fixed_team(16));
        let mut mgr = Sampler {
            att: EnergyAttributor::dynamic_only(&hw),
            last_energy: 0.0,
            last_cpu: HashMap::new(),
            last_t: 0,
        };
        let report = sim.run(&mut mgr).unwrap();
        for a in &report.apps {
            let attributed = mgr.att.attributed_energy(a.app_id);
            let truth = a.energy_true_j;
            let err = (attributed - truth).abs() / truth;
            assert!(
                err < 0.30,
                "{}: attributed {attributed:.2}J vs true {truth:.2}J ({:.1}% error)",
                a.name,
                err * 100.0
            );
        }
    }
}
