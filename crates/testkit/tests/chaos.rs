//! The chaos suite: scripted fault scenarios, seeded lifecycle fuzzing,
//! determinism checks and corpus replay.
//!
//! Quick mode (the default, and what `ci.sh` runs) keeps seed counts and
//! trace lengths CI-sized; `HARP_CHAOS_FULL=1` runs the long sweep. Every failure is written to `tests/corpus/` as a
//! minimized trace with replay instructions — see `EXPERIMENTS.md`.

use harp_testkit::trace::{Trace, TraceOp};
use harp_testkit::{install_panic_monitor, panic_count, quick_mode, runner, scenarios, shrink};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

#[test]
fn scripted_fault_scenarios_survive() {
    install_panic_monitor();
    let before = panic_count();
    let scenarios = scenarios::all();
    assert!(
        scenarios.len() >= 8,
        "fault matrix shrank below the documented floor"
    );
    let mut failures = Vec::new();
    for s in &scenarios {
        if let Err(e) = (s.run)() {
            failures.push(format!("  {}: {e}", s.name));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} scenarios failed:\n{}",
        failures.len(),
        scenarios.len(),
        failures.join("\n")
    );
    assert_eq!(
        panic_count(),
        before,
        "a background thread panicked during the scenarios"
    );
}

#[test]
fn random_trace_sweep_holds_invariants() {
    install_panic_monitor();
    let before = panic_count();
    let (seeds, len) = if quick_mode() { (8, 48) } else { (64, 160) };
    for seed in 0..seeds {
        let trace = Trace::generate(seed, len);
        let report = runner::run_trace(&trace);
        if !report.passed() {
            // Minimize and persist the repro before failing, alongside a
            // flight recording of the minimized run so the regression
            // arrives with its own telemetry.
            let min = shrink::shrink(&trace, |t| !runner::run_trace(t).passed());
            let path = corpus_dir().join(format!("failure-seed{seed}.trace"));
            let _ = std::fs::write(&path, min.to_text());
            let (_, telemetry) = runner::run_trace_with_telemetry(&min);
            let tpath = corpus_dir().join(format!("failure-seed{seed}.telemetry.jsonl"));
            let _ = std::fs::write(&tpath, telemetry);
            panic!(
                "seed {seed} violated invariants: {:?}\nminimized to {} ops, written to {}\n\
                 (telemetry: {})\n\
                 replay: commit the file and re-run `cargo test -p harp-testkit corpus`",
                report.violations,
                min.ops.len(),
                path.display(),
                tpath.display()
            );
        }
    }
    assert_eq!(panic_count(), before, "the RM panicked during the sweep");
}

#[test]
fn trace_execution_is_deterministic() {
    // Same seed → same trace text byte-for-byte → same report, including
    // solver-work accounting. This is what makes every chaos failure
    // replayable from just a seed.
    for seed in [1u64, 7, 42] {
        let t1 = Trace::generate(seed, 64);
        let t2 = Trace::generate(seed, 64);
        assert_eq!(t1.to_text(), t2.to_text());
        assert_eq!(runner::run_trace(&t1), runner::run_trace(&t2));
    }
}

#[test]
fn committed_corpus_replays_clean() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 4,
        "expected a committed corpus, found {} traces",
        entries.len()
    );
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("read corpus trace");
        let trace = Trace::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            trace.to_text(),
            text,
            "{} is not canonical — regenerate with the corpus helper",
            path.display()
        );
        let report = runner::run_trace(&trace);
        assert!(
            report.passed(),
            "{} regressed: {:?}",
            path.display(),
            report.violations
        );
    }
}

#[test]
fn telemetry_dump_is_deterministic_per_seed() {
    // The flight recording written next to a failing trace must be exactly
    // reproducible from the seed: the local collector zeroes durations and
    // restarts span ids, so two runs of the same trace dump identical bytes.
    for seed in [1u64, 7] {
        let trace = Trace::generate(seed, 48);
        let (r1, d1) = runner::run_trace_with_telemetry(&trace);
        let (r2, d2) = runner::run_trace_with_telemetry(&trace);
        assert_eq!(r1, r2, "seed {seed}: report not deterministic");
        assert_eq!(d1, d2, "seed {seed}: telemetry dump not byte-identical");
        let stats = harp_obs::schema::validate_dump(&d1)
            .unwrap_or_else(|e| panic!("seed {seed}: dump fails schema: {e}"));
        assert!(stats.events > 0, "seed {seed}: empty flight recording");
    }
    // Telemetry capture must not perturb the report itself.
    let trace = Trace::generate(3, 48);
    let (with_obs, _) = runner::run_trace_with_telemetry(&trace);
    assert_eq!(with_obs, runner::run_trace(&trace));
}

#[test]
fn quiescence_reaches_all_stable() {
    // Under unchanging conditions every app must reach the stable stage
    // and stay there (shrunk thresholds; see runner docs).
    let ticks = runner::run_to_quiescence(3, 600).expect("all_stable under quiescence");
    assert!(ticks < 600);
}

/// Canonical corpus traces. Runs as part of the suite so drift between the
/// generator and the committed files is caught; with `--ignored` it can
/// also be used to regenerate them after an intentional format change
/// (write mode triggers when a file is missing).
#[test]
fn corpus_matches_generator() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    // The handcrafted regression trace: the out-of-order lifecycle attack
    // the RM hardening in this change rejects (duplicate register, submit
    // to unknown, deregister twice).
    let regression = Trace {
        seed: 0,
        ops: vec![
            TraceOp::Deregister { app: 1 },
            TraceOp::Register { app: 1 },
            TraceOp::Register { app: 1 },
            TraceOp::Submit { app: 2, profile: 0 },
            TraceOp::Submit { app: 1, profile: 1 },
            TraceOp::SubmitMalformed { app: 1 },
            TraceOp::Tick { energy_mj: 1500 },
            TraceOp::TickSkew,
            TraceOp::Deregister { app: 1 },
            TraceOp::Deregister { app: 1 },
        ],
    };
    let mut expected = vec![("lifecycle-out-of-order.trace".to_string(), regression)];
    for seed in [1u64, 2, 3] {
        expected.push((
            format!("generated-seed{seed}.trace"),
            Trace::generate(seed, 40),
        ));
    }
    for (name, trace) in expected {
        let path = dir.join(&name);
        let text = trace.to_text();
        match std::fs::read_to_string(&path) {
            Ok(existing) => assert_eq!(existing, text, "{name} drifted from the generator"),
            Err(_) => std::fs::write(&path, &text).expect("write corpus trace"),
        }
    }
}
