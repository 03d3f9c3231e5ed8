//! Executes lifecycle traces against a live [`RmCore`] while checking
//! global invariants.
//!
//! The runner is the oracle of the chaos suite: it maintains a tiny mirror
//! of what the RM *should* be doing (live sessions, latest grants,
//! cumulative CPU time) and records every divergence as a violation string
//! instead of panicking, so the [shrinker](crate::shrink) can minimize a
//! failing trace by re-running it. Panics inside the RM are still caught
//! (via `catch_unwind`) and reported as a violation of their own.

use crate::trace::{Trace, TraceOp};
use harp_platform::{presets, HardwareDescription};
use harp_rm::{AppObservation, Directive, RmConfig, RmCore, TickObservations};
use harp_types::{AppId, ErvShape, ExtResourceVector, NonFunctional};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic summary of one trace execution.
///
/// Two runs of the same trace must produce `==` reports — that is itself
/// one of the chaos suite's assertions. `solve_work` is kept in integer
/// micro-units so equality is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Operations executed (always the full trace unless a panic cut it short).
    pub steps: usize,
    /// Raw ids of applications still registered at the end, sorted.
    pub final_apps: Vec<u64>,
    /// Total directives emitted across the run.
    pub directives: usize,
    /// Total full-reference-equivalent solves.
    pub solves: u32,
    /// Total solver work in micro-units (1 full reference solve = 1_000_000).
    pub solve_work_micro: u64,
    /// Invariant violations, in discovery order. Empty means the trace passed.
    pub violations: Vec<String>,
    /// Whether the RM panicked mid-trace (also recorded as a violation).
    pub panicked: bool,
}

impl TraceReport {
    /// Whether the run upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && !self.panicked
    }
}

/// Profile variants a [`TraceOp::Submit`] can draw from: small distinct
/// point sets so different variants produce different measured tables.
fn profile_points(
    shape: &ErvShape,
    app: u64,
    profile: u8,
) -> Vec<(ExtResourceVector, NonFunctional)> {
    let flats: &[&[u32]] = match profile % 4 {
        0 => &[&[0, 4, 0], &[0, 0, 8]],
        1 => &[&[0, 2, 0], &[0, 0, 4]],
        2 => &[&[0, 1, 0], &[0, 0, 2]],
        _ => &[&[0, 4, 0], &[0, 2, 0], &[0, 0, 8]],
    };
    flats
        .iter()
        .enumerate()
        .map(|(i, flat)| {
            let erv = ExtResourceVector::from_flat(shape, flat).expect("preset flat is valid");
            let utility = 1.0e10 * (1.0 + i as f64) + app as f64 * 1.0e8;
            let power = 10.0 + 5.0 * i as f64 + profile as f64;
            (erv, NonFunctional::new(utility, power))
        })
        .collect()
}

/// Mirror state the runner checks the RM against. Shared with the
/// workload-trace replay engine (`crate::replay`), which drives the same
/// directive checks from arrival/departure traces instead of lifecycle ops.
pub(crate) struct Oracle {
    pub(crate) hw: HardwareDescription,
    pub(crate) live: HashSet<u64>,
    pub(crate) latest: HashMap<u64, Directive>,
    pub(crate) cpu: HashMap<u64, Vec<f64>>,
    pub(crate) energy_j: f64,
    /// Cores the RM must never grant: hardware-offline or quarantined.
    /// The replay engine refreshes this from the RM's availability view
    /// after every fault injection and measurement tick.
    pub(crate) banned: HashSet<usize>,
    pub(crate) violations: Vec<String>,
}

impl Oracle {
    pub(crate) fn new(hw: HardwareDescription) -> Oracle {
        Oracle {
            hw,
            live: HashSet::new(),
            latest: HashMap::new(),
            cpu: HashMap::new(),
            energy_j: 0.0,
            banned: HashSet::new(),
            violations: Vec::new(),
        }
    }

    pub(crate) fn violation(&mut self, step: usize, what: impl std::fmt::Display) {
        self.violations.push(format!("step {step}: {what}"));
    }

    /// Checks a batch of directives and folds them into the grant mirror.
    pub(crate) fn check_directives(&mut self, step: usize, directives: &[Directive]) {
        for d in directives {
            if !self.live.contains(&d.app.raw()) {
                self.violation(step, format!("directive for departed app {}", d.app));
            }
            let mut seen = HashSet::new();
            let mut per_kind = vec![0u32; self.hw.num_kinds()];
            for c in &d.cores {
                if c.0 >= self.hw.num_cores() {
                    self.violation(step, format!("core id {} out of range", c.0));
                    continue;
                }
                if self.banned.contains(&c.0) {
                    self.violation(
                        step,
                        format!("unavailable core {} granted to {}", c.0, d.app),
                    );
                }
                if !seen.insert(c.0) {
                    self.violation(step, format!("core {} granted twice to {}", c.0, d.app));
                }
                per_kind[self.hw.kind_of_core(*c).expect("core id checked").0] += 1;
            }
            let mismatches: Vec<String> = per_kind
                .iter()
                .enumerate()
                .filter(|&(kind, &granted)| granted != d.erv.cores_of_kind(kind))
                .map(|(kind, &granted)| {
                    format!(
                        "kind {kind} grant {granted} != vector demand {} for {}",
                        d.erv.cores_of_kind(kind),
                        d.app
                    )
                })
                .collect();
            for m in mismatches {
                self.violation(step, m);
            }
            if d.hw_threads.len() as u32 != d.parallelism {
                self.violation(
                    step,
                    format!(
                        "{} got {} hw threads but parallelism {}",
                        d.app,
                        d.hw_threads.len(),
                        d.parallelism
                    ),
                );
            }
            self.latest.insert(d.app.raw(), d.clone());
        }
        let live = &self.live;
        self.latest.retain(|app, _| live.contains(app));
        // Capacity: when every live grant is disjoint, per-kind totals must
        // fit the machine (overlap is the explicit co-allocation fallback).
        let all_cores: Vec<usize> = self
            .latest
            .values()
            .flat_map(|d| d.cores.iter().map(|c| c.0))
            .collect();
        let unique: HashSet<_> = all_cores.iter().copied().collect();
        if unique.len() == all_cores.len() {
            let capacity = self.hw.capacity();
            for kind in 0..self.hw.num_kinds() {
                let used: u32 = self
                    .latest
                    .values()
                    .map(|d| d.erv.cores_of_kind(kind))
                    .sum();
                if used > capacity.count(harp_types::CoreKind(kind)) {
                    self.violation(
                        step,
                        format!("kind {kind} oversubscribed without co-allocation: {used} granted"),
                    );
                }
            }
        }
    }
}

/// Runs a trace against a fresh online-mode RM on the Raptor Lake preset
/// and reports the outcome. Deterministic per trace.
pub fn run_trace(trace: &Trace) -> TraceReport {
    let hw = presets::raptor_lake();
    let shape = hw.erv_shape();
    let mut rm = RmCore::new(hw.clone(), RmConfig::default());
    let mut oracle = Oracle::new(hw);
    let mut steps = 0usize;
    let mut directives = 0usize;
    let mut solves = 0u32;
    let mut solve_work = 0.0f64;
    let mut panicked = false;

    for (step, op) in trace.ops.iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_op(&mut rm, &mut oracle, step, op, &shape)
        }));
        match result {
            Ok(Some(out)) => {
                directives += out.directives.len();
                solves += out.solves;
                solve_work += out.solve_work;
                oracle.check_directives(step, &out.directives);
            }
            Ok(None) => {}
            Err(_) => {
                oracle.violation(step, format!("RM panicked on {op:?}"));
                panicked = true;
                break;
            }
        }
        // The RM's own live view must match the mirror after every step.
        let managed: HashSet<u64> = rm.managed_apps().iter().map(|a| a.raw()).collect();
        if managed != oracle.live {
            oracle.violation(
                step,
                format!(
                    "live-set mismatch: rm {managed:?} vs oracle {:?}",
                    oracle.live
                ),
            );
        }
        steps += 1;
    }
    if solve_work > solves as f64 + 1e-9 {
        oracle.violations.push(format!(
            "warm solve work {solve_work} exceeds {solves} full solves"
        ));
    }

    let mut final_apps: Vec<u64> = oracle.live.iter().copied().collect();
    final_apps.sort_unstable();
    TraceReport {
        steps,
        final_apps,
        directives,
        solves,
        solve_work_micro: (solve_work * 1e6).round() as u64,
        violations: oracle.violations,
        panicked,
    }
}

/// Runs a trace with a thread-local flight recorder installed and returns
/// the report alongside the telemetry dump.
///
/// The local collector disables timing and restarts span ids, so the dump
/// is deterministic per trace: the same trace always yields the same bytes.
/// Chaos failures are written next to the shrunken trace in the corpus so
/// a regression arrives with its own flight recording attached.
pub fn run_trace_with_telemetry(trace: &Trace) -> (TraceReport, String) {
    let local = harp_obs::LocalCollector::install();
    let report = run_trace(trace);
    let dump = local.dump_jsonl();
    (report, dump)
}

/// Executes one operation, updating the oracle mirror. Returns the RM
/// output when the operation was expected to succeed and did.
fn run_op(
    rm: &mut RmCore,
    oracle: &mut Oracle,
    step: usize,
    op: &TraceOp,
    shape: &ErvShape,
) -> Option<harp_rm::RmOutput> {
    match op {
        TraceOp::Register { app } => {
            let r = rm.register(AppId(*app), &format!("app-{app}"), false);
            if oracle.live.contains(app) {
                if r.is_ok() {
                    oracle.violation(step, format!("duplicate register of {app} accepted"));
                }
                return None;
            }
            match r {
                Ok(out) => {
                    oracle.live.insert(*app);
                    oracle.cpu.entry(*app).or_insert_with(|| vec![0.0, 0.0]);
                    Some(out)
                }
                Err(e) => {
                    oracle.violation(step, format!("fresh register of {app} rejected: {e}"));
                    None
                }
            }
        }
        TraceOp::Submit { app, profile } => {
            let points = profile_points(shape, *app, *profile);
            let r = rm.submit_points(AppId(*app), points);
            if !oracle.live.contains(app) {
                if r.is_ok() {
                    oracle.violation(step, format!("submit to unknown {app} accepted"));
                }
                return None;
            }
            match r {
                Ok(out) => Some(out),
                Err(e) => {
                    oracle.violation(step, format!("submit to live {app} rejected: {e}"));
                    None
                }
            }
        }
        TraceOp::SubmitMalformed { app } => {
            // A batch with an alien vector shape must be rejected whole —
            // whether or not the app exists.
            let alien_shape = ErvShape::new(vec![1]);
            let alien = ExtResourceVector::from_flat(&alien_shape, &[1]).expect("1-slot vector");
            let r = rm.submit_points(AppId(*app), vec![(alien, NonFunctional::new(1.0, 1.0))]);
            if r.is_ok() {
                oracle.violation(step, format!("malformed submit for {app} accepted"));
            }
            None
        }
        TraceOp::Tick { energy_mj } => {
            oracle.energy_j += *energy_mj as f64 * 1e-3;
            tick(rm, oracle, step)
        }
        TraceOp::TickSkew => {
            // Energy counter runs backwards (RAPL wrap / reset).
            oracle.energy_j = (oracle.energy_j - 5.0).max(0.0);
            tick(rm, oracle, step)
        }
        TraceOp::Deregister { app } => {
            let r = rm.deregister(AppId(*app));
            if !oracle.live.contains(app) {
                if r.is_ok() {
                    oracle.violation(step, format!("unknown deregister of {app} accepted"));
                }
                return None;
            }
            match r {
                Ok(out) => {
                    oracle.live.remove(app);
                    Some(out)
                }
                Err(e) => {
                    oracle.violation(step, format!("deregister of live {app} rejected: {e}"));
                    None
                }
            }
        }
    }
}

fn tick(rm: &mut RmCore, oracle: &mut Oracle, step: usize) -> Option<harp_rm::RmOutput> {
    let dt = 0.05;
    let apps: Vec<AppObservation> = {
        let live = &oracle.live;
        let cpu = &mut oracle.cpu;
        live.iter()
            .map(|&a| {
                let c = cpu.entry(a).or_insert_with(|| vec![0.0, 0.0]);
                c[0] += dt;
                AppObservation {
                    app: AppId(a),
                    utility_rate: 1.0e9 * (1.0 + a as f64),
                    cpu_time: c.clone(),
                }
            })
            .collect()
    };
    match rm.tick(&TickObservations {
        dt_s: dt,
        package_energy_j: oracle.energy_j,
        apps,
    }) {
        Ok(out) => Some(out),
        Err(e) => {
            oracle.violation(step, format!("tick failed: {e}"));
            None
        }
    }
}

/// Drives a multi-app RM to exploration quiescence: registers `napps`
/// applications, submits enough distinct measured points to cross the
/// (shrunk) stability threshold, then ticks under unchanging conditions.
///
/// Returns the number of ticks needed for [`RmCore::all_stable`] to hold,
/// or an error description if `max_ticks` elapse first or stability is
/// later lost while conditions stay quiescent.
pub fn run_to_quiescence(napps: u64, max_ticks: usize) -> std::result::Result<usize, String> {
    let hw = presets::raptor_lake();
    let shape = hw.erv_shape();
    let mut cfg = RmConfig::default();
    // Shrink the paper's thresholds (25 points × 20 samples) so the suite
    // stays CI-sized; the *shape* of the invariant is unchanged.
    cfg.exploration.initial_threshold = 2;
    cfg.exploration.stable_threshold = 3;
    cfg.exploration.measurements_per_point = 2;
    let mut rm = RmCore::new(hw, cfg);
    for app in 1..=napps {
        rm.register(AppId(app), &format!("app-{app}"), false)
            .map_err(|e| format!("register {app}: {e}"))?;
        // Four distinct vectors ≥ stable_threshold of 3.
        let points = [
            (&[0u32, 4, 0], 3.0e10, 40.0),
            (&[0, 2, 0], 2.0e10, 22.0),
            (&[0, 0, 8], 2.5e10, 15.0),
            (&[0, 0, 4], 1.4e10, 8.0),
        ]
        .iter()
        .map(|(flat, u, p)| {
            (
                ExtResourceVector::from_flat(&shape, *flat).expect("valid flat"),
                NonFunctional::new(*u, *p),
            )
        })
        .collect();
        rm.submit_points(AppId(app), points)
            .map_err(|e| format!("submit {app}: {e}"))?;
    }
    let mut cpu: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut energy = 0.0;
    let mut stable_at = None;
    for t in 0..max_ticks {
        energy += 1.2;
        let apps = (1..=napps)
            .map(|a| {
                let c = cpu.entry(a).or_insert_with(|| vec![0.0, 0.0]);
                c[0] += 0.05;
                AppObservation {
                    app: AppId(a),
                    utility_rate: 2.0e9,
                    cpu_time: c.clone(),
                }
            })
            .collect();
        rm.tick(&TickObservations {
            dt_s: 0.05,
            package_energy_j: energy,
            apps,
        })
        .map_err(|e| format!("tick {t}: {e}"))?;
        match (rm.all_stable(), stable_at) {
            (true, None) => stable_at = Some(t),
            (false, Some(at)) => {
                return Err(format!(
                    "stability reached at tick {at} but lost at tick {t}"
                ));
            }
            _ => {}
        }
    }
    stable_at.ok_or_else(|| format!("not all stable after {max_ticks} quiescent ticks"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_passes() {
        let report = run_trace(&Trace {
            seed: 0,
            ops: vec![],
        });
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn simple_lifecycle_passes() {
        let trace = Trace {
            seed: 0,
            ops: vec![
                TraceOp::Register { app: 1 },
                TraceOp::Submit { app: 1, profile: 0 },
                TraceOp::Tick { energy_mj: 1200 },
                TraceOp::SubmitMalformed { app: 1 },
                TraceOp::TickSkew,
                TraceOp::Deregister { app: 1 },
                TraceOp::Deregister { app: 1 },
            ],
        };
        let report = run_trace(&trace);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.final_apps.is_empty());
        assert!(report.directives > 0);
    }

    #[test]
    fn quiescence_is_reached() {
        let ticks = run_to_quiescence(2, 400).expect("quiesces");
        assert!(ticks < 400);
    }
}
