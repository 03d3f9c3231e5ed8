//! Whole-trace replays of `harp-workload` scenario traces against a live
//! [`RmCore`], oracle-checked end to end.
//!
//! Where [`crate::runner`] executes low-level lifecycle *operations*
//! (register/submit/tick/deregister), this module consumes the canonical
//! workload [`Trace`] format — timed arrivals, departures, priority
//! changes and load-phase shifts — and drives the RM through the whole
//! scenario while the shared [`Oracle`](crate::runner::Oracle) checks
//! every directive batch: no core oversubscription without co-allocation,
//! per-kind grants matching the chosen vector, departed apps holding
//! nothing, and — for v2 traces carrying fault directives — no grant ever
//! naming a core the RM reports offline or quarantined. Fault directives
//! are forwarded to [`RmCore::inject_fault`] and mirrored into a local
//! [`FaultState`], whose degradation factor scales the synthetic power
//! and utility model (exactly `1.0` on a healthy machine, so fault-free
//! replays are unchanged). On top of those per-step checks the replay
//! asserts the
//! warm-≤-cold solver-work bound and drives the RM to exploration
//! quiescence after the last event.
//!
//! Replays are deterministic: every synthetic observation is a pure
//! function of the trace, so the same trace yields a bit-identical
//! [`RmCore::state_fingerprint`] and the same telemetry event count on
//! every run — the contract the committed headline corpus pins with
//! `.expect` files.

use crate::runner::Oracle;
use harp_platform::{presets, FaultState, HardwareDescription, CAP_NOMINAL_PERMILLE};
use harp_rm::{AppObservation, RmConfig, RmCore, TickObservations};
use harp_types::{AppId, CoreId, ErvShape, ExtResourceVector, NonFunctional, PriorityClass};
use harp_workload::{Template, Trace, TraceEvent};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic summary of one whole-trace replay. Two replays of the
/// same trace must produce `==` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Arrival events applied.
    pub arrivals: usize,
    /// Departures that hit a live session (early exits).
    pub departures: usize,
    /// Priority changes that hit a live session.
    pub priority_changes: usize,
    /// Load-phase shifts applied.
    pub load_shifts: usize,
    /// Synthetic measurement ticks driven (one per distinct event time,
    /// plus the quiescence drive).
    pub ticks: usize,
    /// Total directives emitted by the RM.
    pub directives: usize,
    /// FNV-1a hash of the final [`RmCore::state_fingerprint`].
    pub fingerprint: u64,
    /// Lifetime energy-ledger total (µJ) — everything the RM's power
    /// model charged across the replay, conserving over per-session,
    /// idle and retired shares. Integer arithmetic end to end, so it is
    /// bit-identical from run to run.
    pub energy_uj: u64,
    /// Fault directives replayed from the trace (v2 traces only).
    pub faults: usize,
    /// Sessions the RM migrated off failing cores, from [`RmCore::migrations`].
    pub migrations: u64,
    /// Whether the RM reached `all_stable` during the quiescence drive.
    pub quiesced: bool,
    /// Invariant violations, in discovery order. Empty means passed.
    pub violations: Vec<String>,
    /// Whether the RM panicked mid-replay.
    pub panicked: bool,
}

impl ReplayReport {
    /// Whether the replay upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && !self.panicked && self.quiesced
    }

    /// The fingerprint as the fixed-width hex string used in `.expect`
    /// files.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

/// Deterministic machine-degradation factor for the synthetic tick model:
/// the online-core fraction times the mean thermal cap. Exactly `1.0` on a
/// healthy platform, so fault-free replays are bit-identical to the
/// pre-fault engine; under degradation both the synthetic package power
/// and every session's utility rate shrink by the same factor.
fn degrade_factor(faults: &FaultState, hw: &HardwareDescription) -> f64 {
    let online = faults.online_count() as f64 / hw.num_cores() as f64;
    let kinds = hw.num_kinds();
    let cap_sum: u32 = (0..kinds).map(|k| faults.cap_permille(k)).sum();
    let cap = f64::from(cap_sum) / (f64::from(CAP_NOMINAL_PERMILLE) * kinds as f64);
    online * cap
}

/// FNV-1a over a string — a stable 64-bit digest for fingerprint files
/// (no dependency on any hasher whose layout could drift).
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-template operating points: each template maps to a fixed, distinct
/// point set so the MMKP solver faces heterogeneous preferences (big
/// P-core teams, bandwidth-limited small teams, convoy-averse singletons).
/// Utilities get a small per-key offset so sessions are not degenerate
/// duplicates. Every template carries at least as many points as the
/// shrunk `stable_threshold`, so sessions are stable from submission —
/// under flash-crowd contention in-band exploration campaigns can starve
/// forever, which would make all-stable-under-quiescence unprovable.
fn template_points(
    shape: &ErvShape,
    template: Template,
    key: u64,
) -> Vec<(ExtResourceVector, NonFunctional)> {
    let sets: &[(&[u32], f64, f64)] = match template {
        Template::Cpu => &[
            (&[0, 6, 0], 8.0e10, 64.0),
            (&[0, 3, 0], 4.5e10, 34.0),
            (&[0, 0, 8], 3.0e10, 18.0),
        ],
        Template::Mem => &[
            (&[0, 2, 0], 2.2e10, 24.0),
            (&[0, 0, 8], 2.0e10, 15.0),
            (&[0, 0, 4], 1.3e10, 9.0),
        ],
        Template::Convoy => &[
            (&[0, 1, 0], 2.0e10, 12.0),
            (&[0, 2, 0], 2.2e10, 22.0),
            (&[0, 0, 2], 0.8e10, 6.0),
        ],
        Template::Balanced => &[
            (&[0, 4, 0], 5.0e10, 42.0),
            (&[0, 0, 12], 4.0e10, 22.0),
            (&[0, 2, 4], 4.6e10, 30.0),
        ],
        Template::Bursty => &[
            (&[1, 0, 0], 1.5e10, 8.0),
            (&[0, 2, 0], 2.5e10, 24.0),
            (&[0, 0, 6], 1.8e10, 11.0),
        ],
    };
    sets.iter()
        .map(|(flat, u, p)| {
            let erv = ExtResourceVector::from_flat(shape, flat).expect("template flat is valid");
            (erv, NonFunctional::new(u + key as f64 * 1.0e6, *p))
        })
        .collect()
}

/// Replays a workload trace against a fresh online-mode RM on the Raptor
/// Lake preset under the testkit oracles. Deterministic per trace.
pub fn replay_trace(trace: &Trace) -> ReplayReport {
    let hw = presets::raptor_lake();
    let shape = hw.erv_shape();
    let mut cfg = RmConfig::default();
    // CI-sized exploration thresholds, as in `run_to_quiescence`: the
    // invariant shapes are unchanged, the constants are smaller.
    cfg.exploration.initial_threshold = 2;
    cfg.exploration.stable_threshold = 3;
    cfg.exploration.measurements_per_point = 2;
    let mut rm = RmCore::new(hw.clone(), cfg);
    // Hardware mirror for the synthetic tick model: tracks what the trace
    // did to the machine, independently of the RM's own fault view.
    let mut fstate = FaultState::new(&hw);
    let mut oracle = Oracle::new(hw);

    // Refresh the oracle's banned-core set from the RM's availability
    // (offline or quarantined); called after every fault injection and
    // every tick, since ticks can readmit quarantined cores.
    let sync_banned = |oracle: &mut Oracle, rm: &RmCore| {
        oracle.banned = (0..oracle.hw.num_cores())
            .filter(|&c| !rm.core_available(CoreId(c)))
            .collect();
    };

    let mut report = ReplayReport {
        arrivals: 0,
        departures: 0,
        priority_changes: 0,
        load_shifts: 0,
        ticks: 0,
        directives: 0,
        fingerprint: 0,
        energy_uj: 0,
        faults: 0,
        migrations: 0,
        quiesced: false,
        violations: Vec::new(),
        panicked: false,
    };
    if let Err(e) = trace.validate() {
        report.violations.push(format!("invalid trace: {e}"));
        return report;
    }

    // Sorted so tick observation order is independent of event order and
    // hash-map iteration; values are per-kind cumulative CPU time.
    let mut live: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut load_milli: u64 = 1000;
    let mut energy_j: f64 = 0.0;
    let mut solves = 0u32;
    let mut solve_work = 0.0f64;

    let absorb = |oracle: &mut Oracle,
                  report: &mut ReplayReport,
                  solves: &mut u32,
                  solve_work: &mut f64,
                  step: usize,
                  out: harp_rm::RmOutput| {
        report.directives += out.directives.len();
        *solves += out.solves;
        *solve_work += out.solve_work;
        // Ledger oracle: every measurement tick's energy must apportion
        // exactly — attributed shares plus the idle share reassemble the
        // tick total with zero remainder.
        if let Some(energy) = &out.energy {
            let attributed: u64 = energy.entries.iter().map(|e| e.tick_uj).sum();
            if energy.tick_uj != energy.idle_tick_uj + attributed {
                oracle.violation(
                    step,
                    format!(
                        "ledger tick not conserving: {} != {} idle + {} attributed",
                        energy.tick_uj, energy.idle_tick_uj, attributed
                    ),
                );
            }
        }
        oracle.check_directives(step, &out.directives);
    };

    let tick = |rm: &mut RmCore,
                oracle: &mut Oracle,
                live: &mut BTreeMap<u64, Vec<f64>>,
                energy_j: &mut f64,
                load_milli: u64,
                degrade: f64,
                step: usize|
     -> Option<harp_rm::RmOutput> {
        let dt = 0.05;
        let load = load_milli as f64 / 1000.0;
        *energy_j += dt * (20.0 + 2.0 * live.len() as f64) * load * degrade;
        let apps: Vec<AppObservation> = live
            .iter_mut()
            .map(|(&key, cpu)| {
                cpu[0] += dt * load * degrade;
                AppObservation {
                    app: AppId(key),
                    // Pure function of (key, load, machine health):
                    // deterministic, scaled by the machine-wide load
                    // phase and the trace-driven degradation factor.
                    utility_rate: (1.0 + (key % 7) as f64) * 1.0e9 * load * degrade,
                    cpu_time: cpu.clone(),
                }
            })
            .collect();
        match rm.tick(&TickObservations {
            dt_s: dt,
            package_energy_j: *energy_j,
            apps,
        }) {
            Ok(out) => Some(out),
            Err(e) => {
                oracle.violation(step, format!("tick failed: {e}"));
                None
            }
        }
    };

    let events = &trace.events;
    let mut i = 0usize;
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        while i < events.len() {
            let t = events[i].at();
            while i < events.len() && events[i].at() == t {
                let step = i;
                match events[i] {
                    TraceEvent::Arrive {
                        key,
                        class,
                        template,
                        ..
                    } => {
                        report.arrivals += 1;
                        match rm.register(AppId(key), template.as_str(), false) {
                            Ok(out) => {
                                oracle.live.insert(key);
                                absorb(
                                    &mut oracle,
                                    &mut report,
                                    &mut solves,
                                    &mut solve_work,
                                    step,
                                    out,
                                );
                            }
                            Err(e) => {
                                oracle.violation(step, format!("register {key} rejected: {e}"))
                            }
                        }
                        match rm.submit_points(AppId(key), template_points(&shape, template, key)) {
                            Ok(out) => absorb(
                                &mut oracle,
                                &mut report,
                                &mut solves,
                                &mut solve_work,
                                step,
                                out,
                            ),
                            Err(e) => oracle.violation(step, format!("submit {key} rejected: {e}")),
                        }
                        if class != PriorityClass::Standard {
                            match rm.set_priority(AppId(key), class.weight()) {
                                Ok(out) => absorb(
                                    &mut oracle,
                                    &mut report,
                                    &mut solves,
                                    &mut solve_work,
                                    step,
                                    out,
                                ),
                                Err(e) => oracle
                                    .violation(step, format!("set_priority {key} failed: {e}")),
                            }
                        }
                        live.insert(key, vec![0.0, 0.0]);
                    }
                    TraceEvent::Depart { key, .. } => {
                        // Departures for instances that already left are
                        // trace no-ops, never RM calls.
                        if live.remove(&key).is_some() {
                            report.departures += 1;
                            match rm.deregister(AppId(key)) {
                                Ok(out) => {
                                    oracle.live.remove(&key);
                                    absorb(
                                        &mut oracle,
                                        &mut report,
                                        &mut solves,
                                        &mut solve_work,
                                        step,
                                        out,
                                    );
                                }
                                Err(e) => oracle
                                    .violation(step, format!("deregister {key} rejected: {e}")),
                            }
                            // Deregister-frees-all: nothing may still be
                            // granted to the departed session.
                            if oracle.latest.contains_key(&key) {
                                oracle.violation(
                                    step,
                                    format!("departed app {key} still holds a grant"),
                                );
                            }
                            if rm.last_directive(AppId(key)).is_some() {
                                oracle.violation(
                                    step,
                                    format!("RM retains directive for departed app {key}"),
                                );
                            }
                        }
                    }
                    TraceEvent::Priority { key, class, .. } => {
                        if live.contains_key(&key) {
                            report.priority_changes += 1;
                            match rm.set_priority(AppId(key), class.weight()) {
                                Ok(out) => absorb(
                                    &mut oracle,
                                    &mut report,
                                    &mut solves,
                                    &mut solve_work,
                                    step,
                                    out,
                                ),
                                Err(e) => oracle
                                    .violation(step, format!("set_priority {key} failed: {e}")),
                            }
                        }
                    }
                    TraceEvent::Load { permille, .. } => {
                        report.load_shifts += 1;
                        load_milli = permille as u64;
                    }
                    TraceEvent::Fault { ev, .. } => {
                        report.faults += 1;
                        fstate.apply(&ev);
                        match rm.inject_fault(&ev) {
                            Ok(out) => {
                                sync_banned(&mut oracle, &rm);
                                absorb(
                                    &mut oracle,
                                    &mut report,
                                    &mut solves,
                                    &mut solve_work,
                                    step,
                                    out,
                                );
                            }
                            Err(e) => oracle.violation(step, format!("fault {ev:?} rejected: {e}")),
                        }
                    }
                }
                i += 1;
            }
            // One synthetic measurement interval per distinct event time.
            let degrade = degrade_factor(&fstate, &oracle.hw);
            if let Some(out) = tick(
                &mut rm,
                &mut oracle,
                &mut live,
                &mut energy_j,
                load_milli,
                degrade,
                i,
            ) {
                report.ticks += 1;
                sync_banned(&mut oracle, &rm);
                absorb(
                    &mut oracle,
                    &mut report,
                    &mut solves,
                    &mut solve_work,
                    i,
                    out,
                );
            }
        }
        // Quiescence drive: with conditions frozen, exploration must
        // settle. 400 ticks is far beyond the shrunk thresholds.
        for _ in 0..400 {
            if rm.all_stable() {
                break;
            }
            let degrade = degrade_factor(&fstate, &oracle.hw);
            if let Some(out) = tick(
                &mut rm,
                &mut oracle,
                &mut live,
                &mut energy_j,
                load_milli,
                degrade,
                i,
            ) {
                report.ticks += 1;
                sync_banned(&mut oracle, &rm);
                absorb(
                    &mut oracle,
                    &mut report,
                    &mut solves,
                    &mut solve_work,
                    i,
                    out,
                );
            }
        }
        report.quiesced = rm.all_stable();
        if !report.quiesced {
            oracle.violation(i, "RM never stabilized under quiescence");
        }
        // Warm ≤ cold: cumulative solver work can never exceed one full
        // reference solve per counted solve.
        if solve_work > solves as f64 + 1e-9 {
            oracle.violation(
                i,
                format!("warm solve work {solve_work} exceeds {solves} full solves"),
            );
        }
        // The RM's live view must match the trace's at the end.
        let managed: Vec<u64> = {
            let mut v: Vec<u64> = rm.managed_apps().iter().map(|a| a.raw()).collect();
            v.sort_unstable();
            v
        };
        let expected: Vec<u64> = live.keys().copied().collect();
        if managed != expected {
            oracle.violation(
                i,
                format!("final live-set mismatch: rm {managed:?} vs trace {expected:?}"),
            );
        }
        // Lifetime ledger conservation: per-session totals plus the idle
        // and retired shares sum exactly to everything ever charged.
        if rm.ledger().conservation_error() != 0 {
            oracle.violation(
                i,
                format!(
                    "lifetime ledger off by {} uJ",
                    rm.ledger().conservation_error()
                ),
            );
        }
        report.energy_uj = rm.ledger().total_uj();
        report.migrations = rm.migrations();
        report.fingerprint = fnv1a64(&rm.state_fingerprint());
    }))
    .is_err();
    if panicked {
        report.panicked = true;
        report.violations.push("RM panicked mid-replay".to_string());
    }
    report.violations.extend(oracle.violations);
    report
}

/// Replays with a thread-local flight recorder installed; returns the
/// report plus the number of telemetry events recorded. Deterministic per
/// trace: same trace, same count.
pub fn replay_trace_with_telemetry(trace: &Trace) -> (ReplayReport, usize) {
    let local = harp_obs::LocalCollector::install();
    let report = replay_trace(trace);
    let dump = local.dump_jsonl();
    let events = dump.lines().filter(|l| !l.trim().is_empty()).count();
    (report, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_workload::{generate_trace, TraceGenConfig, TraceShape};

    fn small_cfg(shape: TraceShape, seed: u64) -> TraceGenConfig {
        TraceGenConfig {
            seed,
            shape,
            arrivals: 40,
            window_ns: 10 * 1_000_000_000,
            ..TraceGenConfig::default()
        }
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64("ab"), fnv1a64("ba"));
    }

    #[test]
    fn generated_traces_replay_clean() {
        for shape in [
            TraceShape::Diurnal,
            TraceShape::FlashCrowd,
            TraceShape::HeavyTailChurn,
        ] {
            let trace = generate_trace(shape.as_str(), &small_cfg(shape, 5));
            let report = replay_trace(&trace);
            assert!(
                report.passed(),
                "{shape:?}: {:?}",
                &report.violations[..report.violations.len().min(5)]
            );
            assert_eq!(report.arrivals, 40);
            assert!(report.ticks > 0);
            assert!(report.directives > 0);
        }
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let trace = generate_trace("det", &small_cfg(TraceShape::HeavyTailChurn, 9));
        let base = replay_trace(&trace);
        assert!(base.passed(), "{:?}", base.violations);
        assert_eq!(replay_trace(&trace), base, "second replay diverged");
    }

    #[test]
    fn invalid_trace_is_reported_not_replayed() {
        let mut t = harp_workload::Trace::new("bad", 0, 100);
        t.events
            .push(harp_workload::TraceEvent::Depart { at: 0, key: 1 });
        let report = replay_trace(&t);
        assert!(!report.passed());
        assert_eq!(report.arrivals, 0);
    }
}
