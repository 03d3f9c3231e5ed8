//! Degradation corpus: committed fault-laced headline traces replayed
//! end to end under the testkit oracles, with pinned fingerprints.
//!
//! The healthy headline corpus (`trace_replay.rs`) pins the RM's behaviour
//! on an intact machine; this suite pins it on a machine that breaks
//! mid-run. Two v2 traces live in `tests/corpus/` as `fault-*.wtrace`:
//!
//! * `fault-single-core` — one P-core fails and later recovers, with a
//!   thermal cap and a power-sensor dropout in between: the transient-
//!   degradation path (no quarantine).
//! * `fault-cascade` — a flapping P-core (fail/recover twice, tripping
//!   the quarantine state machine), a concurrent E-core failure, a deep
//!   E-cluster thermal cap and a sensor dropout: the worst-case path,
//!   exercising eviction, quarantine, backoff readmission and deferred
//!   energy attribution together.
//!
//! Contracts, mirroring the healthy corpus: committed bytes match the
//! generator, replays are oracle-clean (now including "no grant ever
//! names an offline or quarantined core" and exact ledger conservation
//! across sensor-dark windows), and fingerprints plus fault counters
//! match the committed `.expect` files on every run.
//!
//! To regenerate after an intentional change, run with
//! `HARP_TRACE_BLESS=1` and commit the rewritten files.

use harp_testkit::replay::{replay_trace, ReplayReport};
use harp_types::{CoreId, FaultEvent};
use harp_workload::{generate_trace, Trace, TraceGenConfig, TraceShape};
use std::path::PathBuf;

const SEC: u64 = 1_000_000_000;

/// The degradation corpus: name, generator config (fault schedule
/// included). Everything else derives from these entries.
fn degradations() -> Vec<(&'static str, TraceGenConfig)> {
    vec![
        (
            "fault-single-core",
            TraceGenConfig {
                seed: 44,
                window_ns: 30 * SEC,
                arrivals: 100,
                shape: TraceShape::Diurnal,
                churn_permille: 250,
                reprioritize_permille: 80,
                faults: vec![
                    (10 * SEC, FaultEvent::CoreFail { core: CoreId(2) }),
                    (
                        14 * SEC,
                        FaultEvent::ThermalCap {
                            cluster: 0,
                            permille: 700,
                        },
                    ),
                    (16 * SEC, FaultEvent::SensorDrop { ticks: 3 }),
                    (20 * SEC, FaultEvent::CoreRecover { core: CoreId(2) }),
                ],
            },
        ),
        (
            "fault-cascade",
            TraceGenConfig {
                seed: 55,
                window_ns: 30 * SEC,
                arrivals: 120,
                shape: TraceShape::FlashCrowd,
                churn_permille: 400,
                reprioritize_permille: 50,
                faults: vec![
                    // Flapping P-core: the second recovery arrives with
                    // two strikes on record and lands in quarantine.
                    (10 * SEC, FaultEvent::CoreFail { core: CoreId(5) }),
                    (12 * SEC, FaultEvent::CoreRecover { core: CoreId(5) }),
                    (14 * SEC, FaultEvent::CoreFail { core: CoreId(5) }),
                    (16 * SEC, FaultEvent::CoreRecover { core: CoreId(5) }),
                    (18 * SEC, FaultEvent::CoreFail { core: CoreId(10) }),
                    (
                        19 * SEC,
                        FaultEvent::ThermalCap {
                            cluster: 1,
                            permille: 500,
                        },
                    ),
                    (20 * SEC, FaultEvent::SensorDrop { ticks: 4 }),
                    (
                        24 * SEC,
                        FaultEvent::ThermalCap {
                            cluster: 1,
                            permille: 1000,
                        },
                    ),
                    (26 * SEC, FaultEvent::CoreRecover { core: CoreId(10) }),
                ],
            },
        ),
    ]
}

fn corpus_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(file)
}

fn bless_mode() -> bool {
    std::env::var_os("HARP_TRACE_BLESS").is_some_and(|v| v == "1")
}

/// Renders the deterministic portion of a degraded replay as the
/// `.expect` format: the healthy keys plus the fault counters.
fn expect_text(report: &ReplayReport) -> String {
    format!(
        "fingerprint {}\narrivals {}\ndepartures {}\npriority_changes {}\n\
         load_shifts {}\nticks {}\ndirectives {}\nenergy_uj {}\n\
         faults {}\nmigrations {}\n",
        report.fingerprint_hex(),
        report.arrivals,
        report.departures,
        report.priority_changes,
        report.load_shifts,
        report.ticks,
        report.directives,
        report.energy_uj,
        report.faults,
        report.migrations,
    )
}

fn load_committed(name: &str) -> Trace {
    let path = corpus_path(&format!("{name}.wtrace"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with HARP_TRACE_BLESS=1?)",
            path.display()
        )
    });
    Trace::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The committed bytes are exactly what the generator produces from the
/// hardcoded configs, fault schedule included — and they are v2 traces.
#[test]
fn committed_fault_corpus_matches_generator() {
    for (name, cfg) in degradations() {
        let trace = generate_trace(name, &cfg);
        assert_eq!(trace.version, 2, "{name}: fault schedule must force v2");
        let generated = trace.to_canonical_text();
        let path = corpus_path(&format!("{name}.wtrace"));
        if bless_mode() {
            std::fs::write(&path, &generated).expect("write corpus trace");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e} (run with HARP_TRACE_BLESS=1?)",
                path.display()
            )
        });
        assert_eq!(
            committed, generated,
            "{name}: committed trace no longer matches its generator config"
        );
    }
}

/// Each committed fault trace replays oracle-clean — no grant ever names
/// an offline or quarantined core, the ledger conserves exactly across
/// sensor-dark windows, warm ≤ cold holds across the capacity shrink —
/// and the fingerprint plus fault counters match the committed `.expect`.
#[test]
fn committed_fault_corpus_replays_clean_and_matches_expect() {
    for (name, cfg) in degradations() {
        let trace = load_committed(name);
        let report = replay_trace(&trace);
        assert!(
            report.passed(),
            "{name}: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
        assert_eq!(
            report.faults,
            cfg.faults.len(),
            "{name}: not every fault directive was replayed"
        );
        assert!(
            report.migrations > 0,
            "{name}: core failures never forced a migration"
        );
        let actual = expect_text(&report);
        let path = corpus_path(&format!("{name}.expect"));
        if bless_mode() {
            std::fs::write(&path, &actual).expect("write expect file");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e} (run with HARP_TRACE_BLESS=1?)",
                path.display()
            )
        });
        assert_eq!(
            committed, actual,
            "{name}: degraded replay drifted from the committed .expect"
        );
    }
}

/// Degraded replays are deterministic too: a second run yields the first
/// run's report, fingerprint included.
#[test]
fn fault_replays_are_bit_identical_across_runs() {
    for (name, _) in degradations() {
        let trace = load_committed(name);
        let base = replay_trace(&trace);
        assert!(base.passed(), "{name}: {:?}", base.violations);
        assert_eq!(replay_trace(&trace), base, "{name}: second replay diverged");
    }
}

/// Only state-changing faults leave a mark. Replaying the same scenario
/// with every fault replaced by a no-op (recovering a core that is
/// already online, at the same instants — so the tick structure is
/// identical) must migrate nothing and end with a fingerprint different
/// from the genuinely degraded run: the quarantine history and fault
/// counters are durable, observable state.
#[test]
fn no_op_fault_schedules_leave_no_degradation_mark() {
    for (name, cfg) in degradations() {
        let degraded = replay_trace(&load_committed(name));
        let noop_cfg = TraceGenConfig {
            faults: cfg
                .faults
                .iter()
                .map(|&(at, _)| (at, FaultEvent::CoreRecover { core: CoreId(0) }))
                .collect(),
            ..cfg
        };
        let benign = replay_trace(&generate_trace(name, &noop_cfg));
        assert!(degraded.passed(), "{name}: {:?}", degraded.violations);
        assert!(benign.passed(), "{name}: {:?}", benign.violations);
        assert_eq!(
            benign.migrations, 0,
            "{name}: no-op faults must not move sessions"
        );
        assert_ne!(
            degraded.fingerprint, benign.fingerprint,
            "{name}: real faults must be visible in durable state"
        );
    }
}

/// Degradation matrix for EXPERIMENTS.md: energy and violation counts at
/// 0, 1 and 2 failed cores per headline preset. Run with
/// `cargo test -p harp-testkit --test degradation -- --ignored --nocapture`.
#[test]
#[ignore = "matrix printer for EXPERIMENTS.md, not a gate"]
fn print_degradation_matrix() {
    let presets = [
        ("diurnal", TraceShape::Diurnal, 11u64),
        ("flash-crowd", TraceShape::FlashCrowd, 22),
        ("heavy-tail-churn", TraceShape::HeavyTailChurn, 33),
    ];
    println!("preset | failed_cores | energy_uj | migrations | violations");
    for (label, shape, seed) in presets {
        for failed in 0usize..=2 {
            let faults: Vec<(u64, FaultEvent)> = [CoreId(2), CoreId(5)]
                .into_iter()
                .take(failed)
                .enumerate()
                .map(|(i, core)| ((10 + 2 * i as u64) * SEC, FaultEvent::CoreFail { core }))
                .collect();
            let cfg = TraceGenConfig {
                seed,
                window_ns: 30 * SEC,
                arrivals: 120,
                shape,
                churn_permille: 250,
                reprioritize_permille: 80,
                faults,
            };
            let trace = generate_trace(label, &cfg);
            let r = replay_trace(&trace);
            println!(
                "{label} | {failed} | {} | {} | {}",
                r.energy_uj,
                r.migrations,
                r.violations.len()
            );
        }
    }
}
