//! `online_ticks`: no sockets. An online-mode `RmCore` (default
//! `RmConfig`, journal attached) is driven through its public entry
//! points by a seeded churn trace with a fault schedule, one measurement
//! tick per distinct event time. Exploration, the regression models,
//! energy attribution, warm solves and fault handling do the work here
//! and none of it in the churn workloads; `daemon`, `proto` and `libharp`
//! do nothing.
//!
//! One repetition is one complete replay of the trace on a fresh core, so
//! every repetition does identical work and its outputs must be identical.

use crate::counted::{Counters, Probe};
use crate::inputs::{
    noise, online_inputs, template_index, OnlineInputs, Points, Truth, ONLINE_ARRIVALS,
    ONLINE_WINDOW_S,
};
use crate::spans::Spans;
use crate::stats::{self, summarize};
use crate::tap::{directive_hash, now_ns};
use crate::{layers, Outcome, RunArgs};
use harp_platform::{FaultState, HardwareDescription, CAP_NOMINAL_PERMILLE};
use harp_rm::journal::read_journal;
use harp_rm::{AppObservation, JournalWriter, RmConfig, RmCore, RmOutput, Stage, TickObservations};
use harp_types::{energy_utility_cost, AppId, ExtResourceVector, PriorityClass};
use harp_workload::{Trace, TraceEvent};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Multiplier on the trace's work sizes. The generator sizes jobs for the
/// machine simulator; here a job must outlive a few 20-tick measurement
/// campaigns for exploration to learn anything.
const WORK_SCALE: f64 = 20.0;

/// Noise variants whose outcomes make up the reported quality: the first
/// replays of every run, however many more its time allows.
const QUALITY_VARIANTS: usize = 4;

/// Which public entry point an operation called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Register,
    Deregister,
    SetPriority,
    InjectFault,
    Tick,
}

impl Call {
    fn span_name(self) -> &'static str {
        match self {
            Call::Register => "rm.register",
            Call::Deregister => "rm.deregister",
            Call::SetPriority => "rm.set_priority",
            Call::InjectFault => "rm.inject_fault",
            Call::Tick => "rm.tick",
        }
    }
}

/// Per-template constants of the quality measure, made at set-up: the
/// highest utility and the lowest energy-utility cost any resource vector
/// reaches under the template's ground truth.
struct TruthTable {
    truth: Truth,
    v_max: f64,
    floor: f64,
}

struct Prepared {
    inputs: OnlineInputs,
    tables: Vec<TruthTable>,
}

/// Set-up: everything between the seed and the first RM call. The trace
/// goes through its canonical text form, as a trace file would.
fn prepare(
    seed: u64,
    hw: &HardwareDescription,
    arrivals: u32,
    window_s: u64,
) -> Result<Prepared, String> {
    let mut inputs = online_inputs(seed, hw, arrivals, window_s);
    inputs.trace = Trace::parse(&inputs.trace.to_canonical_text())
        .map_err(|e| format!("generated trace does not parse back: {e}"))?;
    let candidates = ExtResourceVector::enumerate(&hw.erv_shape(), &hw.capacity())
        .map_err(|e| format!("candidate enumeration: {e}"))?;
    let flats: Vec<Vec<u32>> = candidates
        .iter()
        .filter(|e| !e.is_zero())
        .map(ExtResourceVector::flat)
        .collect();
    let tables = inputs
        .truths
        .iter()
        .map(|&truth| {
            let v_max = flats.iter().map(|f| truth.utility(f)).fold(0.0, f64::max);
            let floor = flats
                .iter()
                .map(|f| energy_utility_cost(truth.utility(f), truth.power(f), v_max))
                .fold(f64::INFINITY, f64::min);
            TruthTable {
                truth,
                v_max,
                floor,
            }
        })
        .collect();
    Ok(Prepared { inputs, tables })
}

struct LiveApp {
    template: usize,
    work_left: f64,
    cpu: Vec<f64>,
    /// Flat vector of the session's last directive.
    erv: Option<Vec<u32>>,
    arrived_tick: u64,
    stable_at: Option<u64>,
}

/// What one replay produced. Everything but the timings must be equal
/// between replays of the same inputs.
#[derive(Default)]
struct Replay {
    /// (entry point, start, end, directives returned) per RM call.
    calls: Vec<(Call, u64, u64, u32)>,
    wall_s: f64,
    fingerprint: String,
    /// Wrapping sum over every directive of every call.
    directive_hash: u64,
    /// Geometric mean over every (session, tick) of granted cost over the
    /// session's floor.
    cost_ratio: f64,
    solves: u64,
    solve_work: f64,
    directives: u64,
    degraded: u64,
    ticks: u64,
    peak_live: usize,
    conservation_error: i128,
    stable_share_end: f64,
    ticks_to_stable: Vec<f64>,
    warm: (u64, u64, u64),
    /// Operating-point tables the sessions and the profile store held at
    /// the end (the shapes the layer micro-measurements run on).
    tables: Vec<Points>,
    errors: Vec<String>,
    journal_bytes: u64,
}

/// Same degradation factor the RM's own replay tests use: online share of
/// the cores times the mean thermal cap; exactly 1 on a healthy machine.
fn degrade_factor(faults: &FaultState, hw: &HardwareDescription) -> f64 {
    let online = faults.online_count() as f64 / hw.num_cores() as f64;
    let kinds = hw.num_kinds();
    let caps: u32 = (0..kinds).map(|k| faults.cap_permille(k)).sum();
    online * f64::from(caps) / (f64::from(CAP_NOMINAL_PERMILLE) * kinds as f64)
}

/// One replay of the trace on a fresh core. `variant` picks the
/// observation-noise stream: the same cluster, trace and faults on a
/// different day. Exploration amplifies any noise into a different
/// trajectory, so a run pools several variants (see [`run_phase`]) to
/// report what is typical of the seed rather than of one trajectory.
fn replay(prep: &Prepared, hw: &HardwareDescription, journal: &Path, variant: u64) -> Replay {
    let mut r = Replay::default();
    let seed = prep.inputs.seed ^ variant.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut rm = RmCore::new(hw.clone(), RmConfig::default());
    let _ = std::fs::remove_file(journal);
    match JournalWriter::open(journal) {
        // Full history, so that recovery is bit-identical to the live core.
        Ok(w) => rm.attach_journal(w, 0),
        Err(e) => r.errors.push(format!("journal: {e}")),
    }
    let mut faults = FaultState::new(hw);
    let mut live: BTreeMap<u64, LiveApp> = BTreeMap::new();
    let mut load = 1.0f64;
    let mut energy_j = 0.0f64;
    let mut tick_no = 0u64;
    let (mut log_ratio_sum, mut ratio_n) = (0.0f64, 0u64);
    let dt = 0.05;

    let t_start = Instant::now();
    // Times one RM call and folds its output into the replay's state.
    macro_rules! call {
        ($kind:expr, $what:expr, $body:expr) => {{
            let a = now_ns();
            let res: harp_types::Result<RmOutput> = $body;
            let b = now_ns();
            match res {
                Ok(out) => {
                    r.calls.push(($kind, a, b, out.directives.len() as u32));
                    r.solves += u64::from(out.solves);
                    r.solve_work += out.solve_work;
                    r.directives += out.directives.len() as u64;
                    r.degraded += u64::from(out.degraded);
                    for d in &out.directives {
                        r.directive_hash = r.directive_hash.wrapping_add(directive_hash(d));
                        if let Some(app) = live.get_mut(&d.app.raw()) {
                            app.erv = Some(d.erv.flat());
                        }
                    }
                }
                Err(e) => {
                    r.calls.push(($kind, a, b, 0));
                    if r.errors.len() < 10 {
                        r.errors.push(format!("{}: {e}", $what));
                    }
                }
            }
        }};
    }

    let events = &prep.inputs.trace.events;
    let tick_ns = (dt * 1e9) as u64;
    let total_ticks = prep.inputs.trace.window_ns / tick_ns;
    let mut i = 0;
    while tick_no < total_ticks {
        // Everything the trace schedules up to this measurement tick.
        let t = tick_no * tick_ns;
        while i < events.len() && events[i].at() <= t {
            match events[i] {
                TraceEvent::Arrive {
                    key,
                    class,
                    template,
                    work,
                    ..
                } => {
                    live.insert(
                        key,
                        LiveApp {
                            template: template_index(template),
                            work_left: work as f64 * WORK_SCALE,
                            cpu: vec![0.0; hw.num_kinds()],
                            erv: None,
                            arrived_tick: tick_no,
                            stable_at: None,
                        },
                    );
                    call!(
                        Call::Register,
                        format!("register {key}"),
                        rm.register(AppId(key), template.as_str(), false)
                    );
                    if class != PriorityClass::Standard {
                        call!(
                            Call::SetPriority,
                            format!("set_priority {key}"),
                            rm.set_priority(AppId(key), class.weight())
                        );
                    }
                }
                TraceEvent::Depart { key, .. } => {
                    if live.remove(&key).is_some() {
                        call!(
                            Call::Deregister,
                            format!("deregister {key}"),
                            rm.deregister(AppId(key))
                        );
                    }
                }
                TraceEvent::Priority { key, class, .. } => {
                    if live.contains_key(&key) {
                        call!(
                            Call::SetPriority,
                            format!("set_priority {key}"),
                            rm.set_priority(AppId(key), class.weight())
                        );
                    }
                }
                TraceEvent::Load { permille, .. } => load = f64::from(permille) / 1000.0,
                TraceEvent::Fault { ev, .. } => {
                    faults.apply(&ev);
                    call!(
                        Call::InjectFault,
                        format!("inject_fault {ev:?}"),
                        rm.inject_fault(&ev)
                    );
                }
            }
            i += 1;
        }

        // One measurement interval (the RM's 50 ms cadence). Observations
        // are a pure function of (seed, key, granted vector, tick).
        tick_no += 1;
        r.peak_live = r.peak_live.max(live.len());
        let degrade = degrade_factor(&faults, hw) * load;
        let mut power = 20.0;
        let mut progress: Vec<(u64, f64)> = Vec::with_capacity(live.len());
        let apps: Vec<AppObservation> = live
            .iter_mut()
            .map(|(&key, app)| {
                let truth = &prep.tables[app.template].truth;
                let (utility, watts) = match &app.erv {
                    Some(flat) => {
                        app.cpu[0] += dt * f64::from(flat[0] + 2 * flat[1]);
                        app.cpu[1] += dt * f64::from(flat[2]);
                        (truth.utility(flat), truth.power(flat))
                    }
                    None => (0.0, 0.0),
                };
                let rate = utility * degrade * noise(seed, key, tick_no, 0.02);
                power += watts * degrade;
                progress.push((key, rate * dt));
                AppObservation {
                    app: AppId(key),
                    utility_rate: rate,
                    cpu_time: app.cpu.clone(),
                }
            })
            .collect();
        energy_j += dt * power * noise(seed, u64::MAX, tick_no, 0.01);
        let obs = TickObservations {
            dt_s: dt,
            package_energy_j: energy_j,
            apps,
        };
        call!(Call::Tick, format!("tick {tick_no}"), rm.tick(&obs));
        r.ticks += 1;

        // Quality of the standing allocation, by the ground truth: how
        // far above its floor each session's granted vector costs.
        for app in live.values() {
            let tt = &prep.tables[app.template];
            if let Some(flat) = &app.erv {
                let c = energy_utility_cost(tt.truth.utility(flat), tt.truth.power(flat), tt.v_max);
                if c.is_finite() && c > 0.0 {
                    log_ratio_sum += (c / tt.floor).ln();
                    ratio_n += 1;
                }
            }
        }
        for (key, app) in live.iter_mut() {
            if app.stable_at.is_none() && rm.stage_of(AppId(*key)) == Some(Stage::Stable) {
                app.stable_at = Some(tick_no);
                r.ticks_to_stable.push((tick_no - app.arrived_tick) as f64);
            }
        }

        // Applications that finished their work exit.
        for (key, done) in progress {
            let Some(app) = live.get_mut(&key) else {
                continue;
            };
            app.work_left -= done;
            if app.work_left <= 0.0 {
                live.remove(&key);
                call!(
                    Call::Deregister,
                    format!("deregister {key}"),
                    rm.deregister(AppId(key))
                );
            }
        }
    }
    r.wall_s = t_start.elapsed().as_secs_f64();

    r.cost_ratio = if ratio_n > 0 {
        (log_ratio_sum / ratio_n as f64).exp()
    } else {
        1.0
    };
    let managed = rm.managed_apps();
    if managed.len() != live.len() {
        r.errors.push(format!(
            "RM manages {} sessions at the end, the trace left {}",
            managed.len(),
            live.len()
        ));
    }
    let stable = managed
        .iter()
        .filter(|a| rm.stage_of(**a) == Some(Stage::Stable))
        .count();
    r.stable_share_end = stable as f64 / managed.len().max(1) as f64;
    r.conservation_error = rm.ledger().conservation_error();
    r.warm = (
        rm.warm_start().memo_hits(),
        rm.warm_start().certified_exits(),
        rm.warm_start().full_solves(),
    );
    let mut names: Vec<(String, Points)> = rm
        .snapshot_profiles()
        .into_iter()
        .map(|(name, table)| {
            let points = table
                .iter_measured()
                .map(|(_, p)| (p.erv.clone(), p.nfc))
                .collect();
            (name, points)
        })
        .collect();
    names.sort_by(|a, b| a.0.cmp(&b.0));
    r.tables = names
        .into_iter()
        .map(|(_, p)| p)
        .filter(|p: &Points| !p.is_empty())
        .collect();
    r.fingerprint = rm.state_fingerprint();
    drop(rm.detach_journal());
    r.journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
    r
}

/// Replays back to back for `seconds` (at least `min_reps`); replay `k`
/// runs noise variant `k`.
fn run_phase(
    prep: &Prepared,
    hw: &HardwareDescription,
    journal: &Path,
    seconds: f64,
    min_reps: usize,
) -> (Vec<Replay>, Vec<Counters>) {
    let probe = Probe::calibrate();
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut counted = Vec::new();
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        let base = Counters::now();
        reps.push(replay(prep, hw, journal, reps.len() as u64));
        counted.push(probe.region(&base, &Counters::now()));
    }
    (reps, counted)
}

fn call_us(reps: &[Replay], which: impl Fn(&(Call, u64, u64, u32)) -> bool) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| r.calls.iter())
        .filter(|c| which(c))
        .map(|c| (c.2 - c.1) as f64 / 1e3)
        .collect()
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let hw = HardwareDescription::raptor_lake();
    let (arrivals, window_s) = if args.quick {
        (ONLINE_ARRIVALS / 8, ONLINE_WINDOW_S / 8)
    } else {
        (ONLINE_ARRIVALS, ONLINE_WINDOW_S)
    };
    let journal = args.scratch.join("online.journal");

    let mut setup_s = Vec::new();
    let mut prep = None;
    while args.another_setup(setup_s.len(), setup_s.iter().sum()) {
        let t = Instant::now();
        match prepare(args.seed, &hw, arrivals, window_s) {
            Ok(p) => prep = Some(p),
            Err(e) => {
                out.violations.push(format!("set-up: {e}"));
                out.attempted = 1;
                out.failed = 1;
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up");

    // Unmeasured warm-up: one replay (caches, allocator arenas, the
    // journal file's blocks). The first measured replay repeats it.
    let warm = replay(&prep, &hw, &journal, 0);
    let (plain_s, traced_s) = if args.trace {
        (args.seconds * 0.4, args.seconds * 0.6)
    } else {
        (args.seconds, 0.0)
    };
    let min_reps = if args.quick { 2 } else { QUALITY_VARIANTS };
    let (plain, plain_counted) = run_phase(&prep, &hw, &journal, plain_s, min_reps);

    // Oracle. The same variant replays to the same state and directives;
    // the ledger conserves; the journal recovers to the live state.
    let mut violations: Vec<String> = Vec::new();
    for (i, r) in std::iter::once(&warm).chain(&plain).enumerate() {
        violations.extend(r.errors.iter().map(|e| format!("replay {i}: {e}")));
        if r.conservation_error != 0 {
            violations.push(format!(
                "replay {i}: energy ledger off by {} uJ",
                r.conservation_error
            ));
        }
    }
    if plain[0].fingerprint != warm.fingerprint || plain[0].directive_hash != warm.directive_hash {
        violations.push("two replays of the same inputs differ".into());
    }
    let last = plain.last().expect("at least one measured replay");
    let recover_ms = {
        let t = Instant::now();
        match read_journal(&journal) {
            Ok(o) => match RmCore::recover(hw.clone(), RmConfig::default(), &o.records) {
                Ok(core) => {
                    if core.state_fingerprint() != last.fingerprint {
                        violations.push(
                            "RmCore::recover of the journal fingerprints differently from the live core"
                                .into(),
                        );
                    }
                    t.elapsed().as_secs_f64() * 1e3
                }
                Err(e) => {
                    violations.push(format!("RmCore::recover failed: {e}"));
                    0.0
                }
            },
            Err(e) => {
                violations.push(format!("read_journal failed: {e}"));
                0.0
            }
        }
    };

    // ---- end-to-end ----
    let ops: u64 = plain.iter().map(|r| r.calls.len() as u64).sum();
    let failed: u64 = plain.iter().map(|r| r.errors.len() as u64).sum();
    out.attempted = ops;
    out.failed = failed.min(ops);
    let op = summarize(&call_us(&plain, |_| true));
    let act = summarize(&call_us(&plain, |c| c.3 > 0));
    let per_replay = |which: fn(&(Call, u64, u64, u32)) -> bool| -> Vec<Vec<f64>> {
        plain
            .iter()
            .map(|r| call_us(std::slice::from_ref(r), which))
            .collect()
    };
    let (op_tail, op_tail_q) = stats::tail_over_reps(&per_replay(|_| true));
    let (act_tail, act_tail_q) = stats::tail_over_reps(&per_replay(|c| c.3 > 0));
    let rate = stats::reps(
        &plain
            .iter()
            .map(|r| r.calls.len() as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    );
    let cpu = stats::reps(
        &plain
            .iter()
            .zip(&plain_counted)
            .map(|(r, c)| c.cpu_ns as f64 / 1e3 / r.calls.len() as f64)
            .collect::<Vec<_>>(),
    );
    let e = &mut out.e2e;
    e.set("setup_s", stats::reps(&setup_s).median);
    e.set("ops_per_s", rate.median);
    e.set("op_p50_us", op.p50);
    e.set("op_p99_us", op_tail);
    e.set("activate_p50_us", act.p50);
    e.set("activate_p99_us", act_tail);
    e.set("cpu_us_per_op", cpu.median);
    e.set("peak_rss_mb", crate::counted::peak_rss_mb());
    e.set(
        "alloc_cost_x",
        stats::geomean(
            &plain
                .iter()
                .take(QUALITY_VARIANTS)
                .map(|r| r.cost_ratio)
                .collect::<Vec<_>>(),
        ),
    );
    out.notes.push(format!(
        "{} RM calls over {} replays of {} trace events ({} ticks, {} arrivals); \
         {} calls returned directives; tails are the median replay's, read at p{:.1} / p{:.1}",
        ops,
        plain.len(),
        prep.inputs.trace.events.len(),
        warm.ticks,
        arrivals,
        act.n,
        op_tail_q * 100.0,
        act_tail_q * 100.0
    ));
    out.notes.push(format!(
        "ops_per_s median {:.1} (min {:.1}, max {:.1}); cpu_us_per_op median {:.2} (min {:.2}, max {:.2})",
        rate.median, rate.min, rate.max, cpu.median, cpu.min, cpu.max
    ));
    out.notes.push(format!(
        "one replay: {:.3} s, {} solves, solve work {:.1}, {} directives, peak {} live sessions, \
         {} sessions reached the stable stage, end tables hold {:?} measured points",
        warm.wall_s,
        warm.solves,
        warm.solve_work,
        warm.directives,
        warm.peak_live,
        warm.ticks_to_stable.len(),
        warm.tables.iter().map(Vec::len).collect::<Vec<_>>()
    ));

    // ---- per-layer ----
    if args.trace {
        crate::counted::count_allocs(true);
        let (traced, _) = layers::with_obs(|| run_phase(&prep, &hw, &journal, traced_s, min_reps));
        crate::counted::count_allocs(false);
        let dump = harp_obs::dump_global(false);
        for (i, (t, p)) in traced.iter().zip(&plain).enumerate() {
            if t.fingerprint != p.fingerprint {
                violations.push(format!("traced replay {i} differs from the untraced one"));
            }
        }
        let l = &mut out.layers;
        let tops: f64 = traced.iter().map(|r| r.calls.len() as f64).sum();
        let p50 = |c: Call| summarize(&call_us(&traced, |x| x.0 == c)).p50;
        l.set("rm.register_p50_us", p50(Call::Register));
        l.set("rm.deregister_p50_us", p50(Call::Deregister));
        l.set("rm.set_priority_p50_us", p50(Call::SetPriority));
        l.set("rm.inject_fault_p50_us", p50(Call::InjectFault));
        let ticks = summarize(&call_us(&traced, |x| x.0 == Call::Tick));
        l.set("rm.tick_p50_us", ticks.p50);
        l.set("rm.tick_p99_us", ticks.tail);
        let w = &warm;
        let n = w.calls.len() as f64;
        l.set("rm.solves_per_op", w.solves as f64 / n);
        l.set("rm.solve_work_per_op", w.solve_work / n);
        l.set("rm.directives_per_op", w.directives as f64 / n);
        l.set("rm.degraded_rounds", w.degraded as f64);
        l.set("rm.journal_bytes_per_op", w.journal_bytes as f64 / n);
        l.set("rm.recover_ms", recover_ms);
        let (memo, cert, full) = w.warm;
        layers::warm_shares(l, memo, cert, full);
        l.set("explore.stable_share_end", w.stable_share_end);
        l.set(
            "explore.ticks_to_stable_p50",
            summarize(&w.ticks_to_stable).p50,
        );
        l.set(
            "energy.conservation_error",
            w.conservation_error.unsigned_abs() as f64,
        );
        layers::journal_io(l, &journal, n);
        layers::harvest_obs(l, &dump, tops);
        let top = summarize(&call_us(&traced, |_| true));
        l.set("obs.traced_overhead_pct", (top.p50 / op.p50 - 1.0) * 100.0);
        let spread = stats::reps(
            &traced
                .iter()
                .map(|r| r.calls.len() as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        );
        l.set("bench.repeat_spread_pct", spread.spread_pct());
        // An op is one RM call and the benchmark times exactly that call:
        // what is left is the instrument (two clock reads).
        let per_kind: f64 = [
            Call::Register,
            Call::Deregister,
            Call::SetPriority,
            Call::InjectFault,
            Call::Tick,
        ]
        .iter()
        .map(|&c| {
            let v = call_us(&traced, |x| x.0 == c);
            v.iter().sum::<f64>()
        })
        .sum();
        let wall_us: f64 = traced.iter().map(|r| r.wall_s * 1e6).sum();
        l.set("bench.residual_pct", (1.0 - per_kind / wall_us) * 100.0);
        out.notes.push(format!(
            "traced: {:.1}% of replay wall time is outside RM calls (observation building, \
             quality accounting, clock reads)",
            (1.0 - per_kind / wall_us) * 100.0
        ));
        layers::micro(l, &hw, &warm.tables, args);
        write_spans(&traced, args);
    }
    let _ = std::fs::remove_file(&journal);
    out.violations = violations;
    out
}

fn write_spans(traced: &[Replay], args: &RunArgs) {
    let mut spans = Spans::new(200_000);
    let mut op = 0u64;
    for r in traced {
        for c in &r.calls {
            spans.push(c.0.span_name(), c.1, c.2, 0, op);
            op += 1;
        }
    }
    let path = args.out_dir.join("trace-online_ticks.jsonl");
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
