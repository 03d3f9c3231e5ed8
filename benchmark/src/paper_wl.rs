//! `paper_outcome`: the paper's headline shape. Every `intel_multi()`
//! scenario runs in the machine simulator under the CFS baseline and
//! under HARP with stable operating points learned in a seeded warm-up
//! (as Fig. 6 does), single-threaded. The result is energy and time
//! against CFS, not a latency: this workload guards decision quality, and
//! it is where simulator and scheduler-adapter throughput is measured.
//!
//! One operation is one `Simulation::run`; one repetition is one pass
//! over every (scenario, manager) pair. The simulator is deterministic,
//! so every pass must reproduce the first pass's outcomes exactly.

use crate::counted::{Counters, Probe};
use crate::inputs::Points;
use crate::spans::Spans;
use crate::stats::{self, geomean, summarize};
use crate::tap::now_ns;
use crate::{layers, Outcome, RunArgs};
use harp_platform::Governor;
use harp_sched::{CfsManager, HarpSimManager};
use harp_sim::{LaunchOpts, Manager, MgrEvent, SimConfig, SimState, SimTime, Simulation, SECOND};
use harp_types::OperatingPointTable;
use harp_workload::{scenarios, Platform, Scenario};
use std::collections::HashMap;
use std::time::Instant;

type Profiles = HashMap<String, OperatingPointTable>;

/// Simulated seconds of online learning per scenario before the measured
/// runs (Fig. 6's reduced setting).
const WARMUP_S: u64 = 90;

/// Safety horizon of a measured run.
const HORIZON_S: u64 = 600;

/// Times the manager's handling of every event: how long the simulated
/// machine waits for it. Application starts and exits each trigger an
/// allocation round whose directives are applied before the call returns
/// (event -> directive applied, the in-simulator counterpart of the
/// daemon workloads' activation latency); timer events are the 50 ms
/// measurement ticks.
struct Timed<'a> {
    inner: &'a mut dyn Manager,
    arrivals_ns: Vec<u64>,
    ticks_ns: Vec<u64>,
}

impl Manager for Timed<'_> {
    fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
        let lifecycle = matches!(ev, MgrEvent::AppStarted { .. } | MgrEvent::AppExited { .. });
        let tick = matches!(ev, MgrEvent::Timer { .. });
        let t = Instant::now();
        self.inner.on_event(st, ev);
        let ns = t.elapsed().as_nanos() as u64;
        if lifecycle {
            self.arrivals_ns.push(ns);
        } else if tick {
            self.ticks_ns.push(ns);
        }
    }
}

fn sim_for(scenario: &Scenario, seed: u64, horizon: SimTime, restart: bool) -> Simulation {
    let mut sim = Simulation::new(
        Platform::RaptorLake.hardware(),
        SimConfig {
            seed,
            governor: Governor::Powersave,
            horizon_ns: Some(horizon),
            ..SimConfig::default()
        },
    );
    for app in &scenario.apps {
        let opts = LaunchOpts::all_hw_threads();
        sim.add_arrival(
            0,
            app.clone(),
            if restart {
                opts.restart_until(horizon)
            } else {
                opts
            },
        );
    }
    sim
}

/// The seeded warm-up: the scenario runs online with restarts for
/// `WARMUP_S` simulated seconds and the RM's learned tables are kept.
fn learn(scenario: &Scenario, seed: u64) -> Result<Profiles, String> {
    let mut sim = sim_for(scenario, seed, WARMUP_S * SECOND, true);
    let mut mgr = HarpSimManager::online();
    sim.run(&mut mgr)
        .map_err(|e| format!("warm-up of {}: {e}", scenario.name))?;
    Ok(mgr
        .rm()
        .map(|rm| rm.snapshot_profiles())
        .unwrap_or_default())
}

/// What one measured simulation produced.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    makespan_s: f64,
    energy_j: f64,
    sim_events: u64,
}

struct Op {
    start_ns: u64,
    end_ns: u64,
    harp: bool,
    result: RunResult,
    /// Start/exit events handled (allocation rounds) and timer ticks.
    decisions_ns: Vec<u64>,
    ticks_ns: Vec<u64>,
    rm_ticks: u64,
}

fn run_one(scenario: &Scenario, profiles: Option<&Profiles>, seed: u64) -> Result<Op, String> {
    let mut sim = sim_for(scenario, seed, HORIZON_S * SECOND, false);
    let mut cfs = CfsManager::new();
    let mut harp = HarpSimManager::online();
    if let Some(profiles) = profiles {
        let rm = harp.init_rm(Platform::RaptorLake.hardware());
        for (name, table) in profiles {
            rm.load_profile(name.clone(), table.clone());
        }
    }
    let inner: &mut dyn Manager = if profiles.is_some() {
        &mut harp
    } else {
        &mut cfs
    };
    let mut timed = Timed {
        inner,
        arrivals_ns: Vec::new(),
        ticks_ns: Vec::new(),
    };
    let start_ns = now_ns();
    let report = sim
        .run(&mut timed)
        .map_err(|e| format!("{}: {e}", scenario.name))?;
    let end_ns = now_ns();
    let (decisions_ns, ticks_ns) = (timed.arrivals_ns, timed.ticks_ns);
    if report.apps.len() != scenario.apps.len() {
        return Err(format!(
            "{}: {} of {} applications finished within the horizon",
            scenario.name,
            report.apps.len(),
            scenario.apps.len()
        ));
    }
    Ok(Op {
        start_ns,
        end_ns,
        harp: profiles.is_some(),
        result: RunResult {
            makespan_s: report.makespan_s(),
            energy_j: report.total_energy_j,
            sim_events: report.events,
        },
        decisions_ns,
        ticks_ns,
        rm_ticks: harp.rm().map_or(0, |rm| rm.ticks()),
    })
}

struct Measured {
    passes: Vec<Vec<Op>>,
    counted: Vec<Counters>,
    walls: Vec<f64>,
}

/// Passes back to back for `seconds` (at least one).
fn measure(
    scens: &[Scenario],
    learned: &[Profiles],
    seed: u64,
    seconds: f64,
    violations: &mut Vec<String>,
) -> Measured {
    let mut m = Measured {
        passes: Vec::new(),
        counted: Vec::new(),
        walls: Vec::new(),
    };
    let probe = Probe::calibrate();
    let t0 = Instant::now();
    while m.passes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let base = Counters::now();
        let t = Instant::now();
        m.passes.push(pass(scens, learned, seed, violations));
        m.walls.push(t.elapsed().as_secs_f64());
        m.counted.push(probe.region(&base, &Counters::now()));
    }
    m
}

/// One pass: every scenario under CFS, then under HARP.
fn pass(
    scens: &[Scenario],
    learned: &[Profiles],
    seed: u64,
    violations: &mut Vec<String>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for (s, profiles) in scens.iter().zip(learned) {
        for p in [None, Some(profiles)] {
            match run_one(s, p, seed) {
                Ok(op) => ops.push(op),
                Err(e) => violations.push(e),
            }
        }
    }
    ops
}

/// Median wall time in microseconds of each (scenario, manager) pair over
/// the passes.
fn pair_medians_us(passes: &[Vec<Op>], per_pass: usize) -> Vec<f64> {
    (0..per_pass)
        .map(|k| {
            let mut v: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.get(k))
                .map(|op| (op.end_ns - op.start_ns) as f64 / 1e3)
                .collect();
            stats::median(&mut v)
        })
        .collect()
}

/// Whether two passes produced the same outcomes, run for run.
fn same_outcomes(a: &[Op], b: &[Op]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.result == y.result)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut scens = scenarios::intel_multi();
    if args.quick {
        scens.truncate(2);
    }
    // As Fig. 6 does: one learning warm-up at a fixed seed, measured
    // repetitions at the run's seed.
    let sim_seed = args.seed;
    let learn_seed = 23;

    // Set-up: the learning warm-ups.
    let mut setup_s = Vec::new();
    let mut learned: Vec<Profiles> = Vec::new();
    while args.another_setup(setup_s.len(), setup_s.iter().sum()) {
        let t = Instant::now();
        match scens.iter().map(|s| learn(s, learn_seed)).collect() {
            Ok(l) => learned = l,
            Err(e) => {
                out.violations.push(format!("set-up: {e}"));
                out.attempted = 1;
                out.failed = 1;
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut violations = Vec::new();
    // Unmeasured warm-up: the first scenario once under each manager.
    let _ = pass(&scens[..1], &learned[..1], sim_seed, &mut violations);

    // A traced run measures plain passes first (the reference the tracing
    // overhead is taken against), then the traced passes.
    let (plain_s, traced_s) = if args.trace {
        (args.seconds * 0.4, args.seconds * 0.6)
    } else {
        (args.seconds, 0.0)
    };
    let plain = measure(&scens, &learned, sim_seed, plain_s, &mut violations);
    let solver_base = harp_alloc::stats::snapshot();
    let traced = args.trace.then(|| {
        let m = layers::with_obs(|| measure(&scens, &learned, sim_seed, traced_s, &mut violations));
        (m, harp_obs::dump_global(false))
    });
    let solver = harp_alloc::stats::snapshot();
    let Measured {
        passes,
        counted,
        walls,
    } = plain;

    let first = &passes[0];
    let per_pass = scens.len() * 2;
    out.attempted = (passes.len() * per_pass) as u64;
    out.failed = (violations.len() as u64).min(out.attempted);
    if first.len() != per_pass {
        out.violations = violations;
        return out;
    }
    // Oracle: the same seed run again gives the same outcomes.
    for (i, p) in passes.iter().enumerate().skip(1) {
        if !same_outcomes(p, first) {
            violations.push(format!(
                "pass {i} differs from the first pass of the same seed"
            ));
        }
    }

    // ---- end-to-end ----
    // Each (scenario, manager) pair is its own kind of operation; pooling
    // raw times over a varying number of passes would move the tail with
    // the pass count, so percentiles are over the per-pair medians.
    let op = summarize(&pair_medians_us(&passes, per_pass));
    // Every pass handles the same start/exit events in the same order;
    // the median over passes of each event's handling time takes the
    // machine's noise out before the percentiles are read.
    let per_event: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            p.iter()
                .filter(|o| o.harp)
                .flat_map(|o| o.decisions_ns.iter())
                .map(|&ns| ns as f64 / 1e3)
                .collect()
        })
        .collect();
    let decisions: Vec<f64> = (0..per_event[0].len())
        .map(|k| {
            let mut v: Vec<f64> = per_event.iter().filter_map(|p| p.get(k)).copied().collect();
            stats::median(&mut v)
        })
        .collect();
    let dec = summarize(&decisions);
    let rate = stats::reps(
        &walls
            .iter()
            .map(|w| per_pass as f64 / w)
            .collect::<Vec<_>>(),
    );
    let cpu = stats::reps(
        &counted
            .iter()
            .map(|c| c.cpu_ns as f64 / 1e3 / per_pass as f64)
            .collect::<Vec<_>>(),
    );
    let factors = |f: fn(&RunResult) -> f64| -> Vec<f64> {
        first
            .chunks(2)
            .map(|pair| f(&pair[0].result) / f(&pair[1].result))
            .collect()
    };
    let energy = factors(|r| r.energy_j);
    let time = factors(|r| r.makespan_s);
    let e = &mut out.e2e;
    e.set("setup_s", stats::reps(&setup_s).median);
    e.set("ops_per_s", rate.median);
    // Fourteen heterogeneous pairs have no meaningful middle: the typical
    // op time is the median pass's mean, the tail the slowest pair.
    let mean_op_us = stats::reps(
        &walls
            .iter()
            .map(|w| w * 1e6 / per_pass as f64)
            .collect::<Vec<_>>(),
    );
    e.set("op_p50_us", mean_op_us.median);
    e.set("op_p99_us", op.tail);
    e.set("activate_p50_us", dec.p50);
    e.set("activate_p99_us", dec.tail);
    e.set("cpu_us_per_op", cpu.median);
    e.set("peak_rss_mb", crate::counted::peak_rss_mb());
    e.set("energy_vs_cfs_x", geomean(&energy));
    e.set("time_vs_cfs_x", geomean(&time));
    out.notes.push(format!(
        "{} simulation runs in {} passes over {} scenarios x (CFS, HARP); op percentiles over \
         the {} per-pair medians (tail = maximum); {} start/exit events under HARP timed per pass (tail at p{:.0})",
        out.attempted,
        passes.len(),
        scens.len(),
        per_pass,
        dec.n,
        dec.tail_q * 100.0
    ));
    for (s, (en, ti)) in scens.iter().zip(energy.iter().zip(&time)) {
        out.notes.push(format!(
            "{:<28} energy x{en:.3}  time x{ti:.3} vs CFS",
            s.name
        ));
    }
    out.notes.push(format!(
        "ops_per_s median {:.2} (min {:.2}, max {:.2}); set-ups {:?}",
        rate.median, rate.min, rate.max, setup_s
    ));

    // ---- per-layer ----
    if let Some((tr, dump)) = &traced {
        let l = &mut out.layers;
        for (i, p) in tr.passes.iter().enumerate() {
            if !same_outcomes(p, first) {
                violations.push(format!("traced pass {i} differs from the untraced ones"));
            }
        }
        l.set(
            "obs.traced_overhead_pct",
            (summarize(&pair_medians_us(&tr.passes, per_pass)).p50 / op.p50 - 1.0) * 100.0,
        );
        let passes = &tr.passes;
        let walls = &tr.walls;
        let traced_ops = (passes.len() * per_pass) as f64;
        let sim_rate = |harp: bool| -> f64 {
            let (mut sim_s, mut wall_s) = (0.0, 0.0);
            for o in passes.iter().flatten().filter(|o| o.harp == harp) {
                sim_s += o.result.makespan_s;
                wall_s += (o.end_ns - o.start_ns) as f64 / 1e9;
            }
            sim_s / wall_s.max(1e-9)
        };
        l.set("sim.cfs_sim_s_per_wall_s", sim_rate(false));
        l.set("sim.harp_sim_s_per_wall_s", sim_rate(true));
        l.set("sched.learn_s", stats::reps(&setup_s).median);
        let harp_runs = (passes.len() * scens.len()) as f64;
        let tick_us: Vec<f64> = passes
            .iter()
            .flatten()
            .filter(|o| o.harp)
            .flat_map(|o| o.ticks_ns.iter())
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        let tick = summarize(&tick_us);
        l.set("rm.tick_p50_us", tick.p50);
        l.set("rm.tick_p99_us", tick.tail);
        let ticks: u64 = passes.iter().flatten().map(|o| o.rm_ticks).sum();
        l.set("sched.rm_ticks_per_run", ticks as f64 / harp_runs);
        let solves = (solver.solves - solver_base.solves) as f64;
        layers::warm_shares(
            l,
            solver.memo_hits - solver_base.memo_hits,
            solver.certified - solver_base.certified,
            solver.full - solver_base.full,
        );
        l.set("rm.solves_per_op", solves / traced_ops);
        layers::harvest_obs(l, dump, traced_ops);
        // Solves per HARP run are counted exactly; the work of one solve
        // is the mean over the reallocation spans still in the recorder.
        l.set(
            "sched.solve_work_per_run",
            solves / harp_runs * layers::mean_span_field(dump, "rm", "reallocate", "solve_work"),
        );
        let spread = stats::reps(
            &walls
                .iter()
                .map(|w| per_pass as f64 / w)
                .collect::<Vec<_>>(),
        );
        l.set("bench.repeat_spread_pct", spread.spread_pct());
        // An op is one `Simulation::run` and is timed as exactly that.
        let inside: f64 = passes
            .iter()
            .flatten()
            .map(|o| (o.end_ns - o.start_ns) as f64 / 1e9)
            .sum();
        l.set(
            "bench.residual_pct",
            (1.0 - inside / walls.iter().sum::<f64>()) * 100.0,
        );
        let tables: Vec<Points> = learned
            .last()
            .map(|p| {
                let mut names: Vec<&String> = p.keys().collect();
                names.sort();
                names
                    .into_iter()
                    .map(|n| {
                        p[n].iter_measured()
                            .map(|(_, pt)| (pt.erv.clone(), pt.nfc))
                            .collect()
                    })
                    .collect()
            })
            .unwrap_or_default();
        layers::micro(l, &Platform::RaptorLake.hardware(), &tables, args);
        let mut spans = Spans::new(100_000);
        for (i, o) in passes.iter().flatten().enumerate() {
            spans.push(
                if o.harp {
                    "sim.run.harp"
                } else {
                    "sim.run.cfs"
                },
                o.start_ns,
                o.end_ns,
                0,
                i as u64,
            );
        }
        let path = args.out_dir.join("trace-paper_outcome.jsonl");
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    out.violations = violations;
    out
}
