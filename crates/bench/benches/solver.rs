//! Solver-engine microbenchmark: sweeps apps × options × kinds and
//! compares the incremental MMKP engine (cold and warm-started) against
//! the frozen reference solver, emitting `BENCH_solver.json`.
//!
//! Two measurements per configuration:
//!
//! * **cold** — a single one-shot solve, engine vs reference, on a
//!   congested instance (cheap options oversubscribe capacity so the
//!   subgradient schedule actually runs).
//! * **warm ticks** — a 32-tick RM-style sequence (arrival burst, cost
//!   drift, departure, re-arrival, with unchanged instances in between).
//!   The engine threads one [`WarmStart`] through all ticks; the
//!   reference re-solves every tick from scratch. `warm_speedup` is the
//!   reference total divided by the engine total.
//!
//! Run with `cargo bench -p harp-bench --bench solver`. Environment:
//!
//! * `HARP_SOLVER_BENCH_QUICK=1` — smoke mode: small configs, few reps
//!   (used by `ci.sh`; the compat criterion harness has no CLI parsing,
//!   so quick mode is an env var rather than a flag).
//! * `HARP_SOLVER_BENCH_JSON=path` — output path (defaults to the repo
//!   root `BENCH_solver.json`).
//!
//! The binary re-parses whatever it wrote and exits non-zero if the
//! JSON is malformed, so CI can gate on the artifact.

use criterion::{black_box, Criterion};
use harp_alloc::{reference, select, AllocOption, AllocRequest, SolverKind, WarmStart};
use harp_types::{AppId, ErvShape, ExtResourceVector, OpId, ResourceVector};
use serde::Deserialize;
use std::time::Instant;

/// The committed headline (apps=32 × options=16 × kinds=3) warm-engine
/// time, re-anchored in PR 6 on the SoA lane engine (the PR 3 anchor of
/// 2 757 343 ns was measured on a different machine and made the signed
/// drift gate read −26%, i.e. it gated machine identity rather than obs
/// overhead), and again in PR 9 when the A/B workload grew a per-tick
/// energy-ledger charge (32-session largest-remainder apportionment, the
/// tick-path cost the RM now pays). The telemetry layer on top of the
/// solver must not tax the disabled path: `bench_artifacts.rs` gates the
/// committed `obs.disabled_delta_pct` (fresh disabled-path run vs this
/// anchor) at +2%. Re-anchor (and note it in EXPERIMENTS.md) whenever
/// the solver hot path legitimately changes.
const OBS_ANCHOR_WARM_ENGINE_NS: u128 = 1_551_432;

/// Shape the emitted JSON is checked against before it is written: the
/// bench re-parses its own output so CI can trust the committed artifact.
#[derive(Deserialize)]
struct CheckFile {
    quick: bool,
    rows: Vec<CheckRow>,
    obs: CheckObs,
}

#[derive(Deserialize)]
struct CheckObs {
    disabled_delta_pct: f64,
    enabled_overhead_pct: f64,
}

#[derive(Deserialize)]
struct CheckRow {
    apps: u64,
    options: u64,
    warm_speedup: f64,
}

/// One benched configuration plus its measurements.
struct Row {
    apps: usize,
    options: usize,
    kinds: usize,
    cold_engine_ns: u128,
    cold_reference_ns: u128,
    warm_ticks: usize,
    warm_engine_ns: u128,
    warm_reference_ns: u128,
    memo_hits: u64,
    certified: u64,
    full: u64,
}

impl Row {
    fn warm_speedup(&self) -> f64 {
        self.warm_reference_ns as f64 / (self.warm_engine_ns as f64).max(1.0)
    }
}

/// Deterministic congested instance: cheaper operating points demand more
/// cores (the classic MMKP shape), so the per-app minima oversubscribe
/// capacity and the solver has to trade cost against congestion.
fn requests(apps: usize, options: usize, kinds: usize, shape: &ErvShape) -> Vec<AllocRequest> {
    (0..apps)
        .map(|a| AllocRequest {
            app: AppId(a as u64 + 1),
            options: (0..options)
                .map(|o| {
                    let mut flat = vec![0u32; kinds];
                    flat[a % kinds] = (options - o) as u32;
                    flat[(a + o) % kinds] += ((a * 5 + o * 3) % 2) as u32;
                    AllocOption {
                        op: OpId(o),
                        cost: 1.0 + (o * 5) as f64 + ((a * 7 + o * 13) % 9) as f64 * 0.1,
                        erv: ExtResourceVector::from_flat(shape, &flat).expect("fits shape"),
                    }
                })
                .collect(),
        })
        .collect()
}

fn capacity_for(apps: usize, kinds: usize) -> ResourceVector {
    ResourceVector::new(vec![(apps * 2) as u32; kinds])
}

/// The RM-style tick schedule: 4 distinct instances (initial, drifted,
/// departed, drifted-again), each followed by a run of unchanged ticks.
fn tick_schedule(reqs: &[AllocRequest], ticks: usize) -> Vec<Vec<AllocRequest>> {
    let mut drifted = reqs.to_vec();
    for o in &mut drifted[0].options {
        o.cost *= 1.0 + 5e-4;
    }
    let mut departed = drifted.clone();
    departed.pop();
    let phases: [&[AllocRequest]; 4] = [reqs, &drifted, &departed, &drifted];
    (0..ticks)
        .map(|t| phases[(t * phases.len()) / ticks].to_vec())
        .collect()
}

/// Median of `reps` timed runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    f(); // warm-up
    let mut samples: Vec<u128> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_config(apps: usize, options: usize, kinds: usize, reps: usize) -> Row {
    let shape = ErvShape::new(vec![1; kinds]);
    let reqs = requests(apps, options, kinds, &shape);
    let capacity = capacity_for(apps, kinds);

    let cold_engine_ns = median_ns(reps, || {
        black_box(select(&reqs, &capacity, SolverKind::Lagrangian, None)).ok();
    });
    let cold_reference_ns = median_ns(reps, || {
        black_box(reference::select(&reqs, &capacity, SolverKind::Lagrangian)).ok();
    });

    let warm_ticks = 32;
    let ticks = tick_schedule(&reqs, warm_ticks);
    let mut counters = (0u64, 0u64, 0u64);
    let warm_engine_ns = median_ns(reps, || {
        let mut warm = WarmStart::new();
        for tick in &ticks {
            black_box(select(
                tick,
                &capacity,
                SolverKind::Lagrangian,
                Some(&mut warm),
            ))
            .ok();
        }
        counters = (warm.memo_hits(), warm.certified_exits(), warm.full_solves());
    });
    let warm_reference_ns = median_ns(reps, || {
        for tick in &ticks {
            black_box(reference::select(tick, &capacity, SolverKind::Lagrangian)).ok();
        }
    });

    Row {
        apps,
        options,
        kinds,
        cold_engine_ns,
        cold_reference_ns,
        warm_ticks,
        warm_engine_ns,
        warm_reference_ns,
        memo_hits: counters.0,
        certified: counters.1,
        full: counters.2,
    }
}

/// Telemetry overhead on the headline warm-tick workload: the same
/// 32-tick sequence timed with instrumentation disabled (the default:
/// every callsite is one relaxed atomic load) and with the global
/// collector enabled.
struct ObsRow {
    apps: usize,
    options: usize,
    kinds: usize,
    disabled_ns: u128,
    enabled_ns: u128,
}

impl ObsRow {
    /// Signed drift of the disabled path vs the committed anchor, in
    /// percent.
    fn disabled_delta_pct(&self) -> f64 {
        (self.disabled_ns as f64 - OBS_ANCHOR_WARM_ENGINE_NS as f64)
            / OBS_ANCHOR_WARM_ENGINE_NS as f64
            * 100.0
    }

    /// Cost of turning tracing on, in percent of the disabled run.
    fn enabled_overhead_pct(&self) -> f64 {
        (self.enabled_ns as f64 - self.disabled_ns as f64) / (self.disabled_ns as f64).max(1.0)
            * 100.0
    }
}

fn bench_obs_overhead(reps: usize) -> ObsRow {
    let (apps, options, kinds) = (32, 16, 3);
    let shape = ErvShape::new(vec![1; kinds]);
    let reqs = requests(apps, options, kinds, &shape);
    let capacity = capacity_for(apps, kinds);
    let ticks = tick_schedule(&reqs, 32);
    // Attribution weights as the RM tick computes them (Σ_k γ_k·ΔT_k):
    // one strictly positive weight per headline app, so every ledger
    // charge runs the full 32-way largest-remainder apportionment.
    let weights: Vec<(AppId, f64)> = (0..apps)
        .map(|a| (AppId(a as u64), 1.0 + (a % 7) as f64 * 0.25))
        .collect();
    let mut ledger = harp_energy::EnergyLedger::new();
    let mut warm_run = || {
        let mut warm = WarmStart::new();
        for tick in &ticks {
            black_box(select(
                tick,
                &capacity,
                SolverKind::Lagrangian,
                Some(&mut warm),
            ))
            .ok();
            // The ledger rides the same tick path in the RM, so the A/B
            // charges it too — its integer apportionment must stay cheap
            // whether or not tracing is on.
            black_box(ledger.charge(black_box(0.0031), &weights));
        }
    };
    assert!(
        !harp_obs::enabled(),
        "obs A/B needs a cold start: tracing already on"
    );
    // The effect being measured is a few percent of a ~2 ms workload, so
    // this A/B uses a much larger sample than the sweep rows, plus extra
    // warm-up passes so neither side pays first-touch page faults or a
    // cold branch predictor.
    let reps = reps.max(5) * 5;
    for _ in 0..3 {
        warm_run();
    }
    let disabled_ns = median_ns(reps, &mut warm_run);
    harp_obs::enable_global();
    let enabled_ns = median_ns(reps, &mut warm_run);
    harp_obs::disable_global();
    harp_obs::reset_global();
    assert_eq!(
        ledger.conservation_error(),
        0,
        "A/B ledger stopped conserving"
    );
    ObsRow {
        apps,
        options,
        kinds,
        disabled_ns,
        enabled_ns,
    }
}

fn render_json(quick: bool, rows: &[Row], obs: &ObsRow) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"quick\": {quick},\n  \"rows\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"apps\": {}, \"options\": {}, \"kinds\": {}, \
             \"cold_engine_ns\": {}, \"cold_reference_ns\": {}, \
             \"warm_ticks\": {}, \"warm_engine_ns\": {}, \"warm_reference_ns\": {}, \
             \"warm_speedup\": {:.3}, \
             \"memo_hits\": {}, \"certified\": {}, \"full\": {}}}{}\n",
            r.apps,
            r.options,
            r.kinds,
            r.cold_engine_ns,
            r.cold_reference_ns,
            r.warm_ticks,
            r.warm_engine_ns,
            r.warm_reference_ns,
            r.warm_speedup(),
            r.memo_hits,
            r.certified,
            r.full,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"obs\": {{\"apps\": {}, \"options\": {}, \"kinds\": {}, \
         \"anchor_warm_engine_ns\": {OBS_ANCHOR_WARM_ENGINE_NS}, \
         \"disabled_warm_engine_ns\": {}, \"enabled_warm_engine_ns\": {}, \
         \"disabled_delta_pct\": {:.3}, \"enabled_overhead_pct\": {:.3}}}\n",
        obs.apps,
        obs.options,
        obs.kinds,
        obs.disabled_ns,
        obs.enabled_ns,
        obs.disabled_delta_pct(),
        obs.enabled_overhead_pct(),
    ));
    out.push_str("}\n");
    out
}

fn criterion_display(c: &mut Criterion) {
    let kinds = 3;
    let shape = ErvShape::new(vec![1; kinds]);
    let reqs = requests(16, 8, kinds, &shape);
    let capacity = capacity_for(16, kinds);
    let ticks = tick_schedule(&reqs, 32);
    let mut group = c.benchmark_group("solver");
    group.bench_function("cold_engine_16x8x3", |b| {
        b.iter(|| select(black_box(&reqs), &capacity, SolverKind::Lagrangian, None))
    });
    group.bench_function("cold_reference_16x8x3", |b| {
        b.iter(|| reference::select(black_box(&reqs), &capacity, SolverKind::Lagrangian))
    });
    group.bench_function("warm_32ticks_16x8x3", |b| {
        b.iter(|| {
            let mut warm = WarmStart::new();
            for tick in &ticks {
                select(
                    black_box(tick),
                    &capacity,
                    SolverKind::Lagrangian,
                    Some(&mut warm),
                )
                .ok();
            }
            warm.memo_hits()
        })
    });
    group.finish();
}

fn main() {
    let quick = std::env::var("HARP_SOLVER_BENCH_QUICK").is_ok();
    let (configs, reps): (&[(usize, usize, usize)], usize) = if quick {
        (&[(4, 4, 2), (16, 8, 3)], 3)
    } else {
        (
            &[(4, 4, 2), (8, 8, 2), (16, 8, 3), (16, 12, 4), (32, 16, 3)],
            9,
        )
    };

    if !quick {
        criterion_display(&mut Criterion::default());
    }

    let rows: Vec<Row> = configs
        .iter()
        .map(|&(apps, options, kinds)| {
            let row = bench_config(apps, options, kinds, reps);
            println!(
                "sweep {apps}x{options}x{kinds}: cold engine {} ns vs reference {} ns; \
                 warm {} ticks {} ns vs reference {} ns ({:.1}x, {} memo / {} certified / {} full)",
                row.cold_engine_ns,
                row.cold_reference_ns,
                row.warm_ticks,
                row.warm_engine_ns,
                row.warm_reference_ns,
                row.warm_speedup(),
                row.memo_hits,
                row.certified,
                row.full,
            );
            row
        })
        .collect();

    let obs = bench_obs_overhead(reps);
    println!(
        "obs overhead {}x{}x{}: disabled {} ns (anchor {} ns, {:+.2}%), \
         enabled {} ns ({:+.2}%)",
        obs.apps,
        obs.options,
        obs.kinds,
        obs.disabled_ns,
        OBS_ANCHOR_WARM_ENGINE_NS,
        obs.disabled_delta_pct(),
        obs.enabled_ns,
        obs.enabled_overhead_pct(),
    );

    let json = render_json(quick, &rows, &obs);
    let parsed: CheckFile = match serde_json::from_str(&json) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("solver bench: generated JSON does not parse: {e}");
            std::process::exit(1);
        }
    };
    if parsed.quick != quick || parsed.rows.len() != rows.len() {
        eprintln!("solver bench: generated JSON does not round-trip");
        std::process::exit(1);
    }
    if parsed.obs.disabled_delta_pct > 2.0 {
        eprintln!(
            "solver bench: WARNING: disabled-path drift {:+.2}% exceeds the +2% gate \
             (obs overhead or machine noise)",
            parsed.obs.disabled_delta_pct
        );
    }
    if parsed.obs.enabled_overhead_pct > 50.0 {
        eprintln!(
            "solver bench: WARNING: enabled tracing costs {:+.2}% on the headline workload",
            parsed.obs.enabled_overhead_pct
        );
    }
    for r in &parsed.rows {
        if r.apps >= 16 && r.options >= 8 && r.warm_speedup < 3.0 {
            eprintln!(
                "solver bench: WARNING: warm speedup {:.2}x below 3x at {}x{}",
                r.warm_speedup, r.apps, r.options
            );
        }
    }
    let path = std::env::var("HARP_SOLVER_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json").to_string()
    });
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("solver bench: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}
