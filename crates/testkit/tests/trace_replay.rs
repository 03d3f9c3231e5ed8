//! Headline workload corpus: committed canonical traces replayed end to
//! end under the testkit oracles, with pinned state fingerprints.
//!
//! Three seeded headline traces live in `tests/corpus/` as
//! `headline-*.wtrace` (canonical `harp-workload` text) next to `.expect`
//! files holding the replay's fingerprint and deterministic counters.
//! The tests here pin three independent contracts:
//!
//! 1. **Generator determinism across platforms** — regenerating each
//!    headline trace from its hardcoded config must reproduce the
//!    committed bytes exactly. Since the files were generated once and
//!    committed, any platform- or toolchain-dependence in the generator
//!    shows up as a byte diff here.
//! 2. **Replay cleanliness** — every committed trace replays with zero
//!    oracle violations (no oversubscription, deregister-frees-all,
//!    warm ≤ cold, all-stable-under-quiescence).
//! 3. **Replay determinism** — replaying a committed trace twice yields
//!    bit-identical `RmCore` state fingerprints and identical telemetry
//!    event counts, matching the committed `.expect` file; solver thread
//!    counts do not enter the result.
//!
//! To regenerate the corpus after an intentional change, run with
//! `HARP_TRACE_BLESS=1` and commit the rewritten files.

use harp_testkit::replay::{replay_trace, replay_trace_with_telemetry, ReplayReport};
use harp_workload::{generate_trace, Trace, TraceGenConfig, TraceShape};
use std::path::PathBuf;

/// The headline corpus: name, generator config. Everything else —
/// file names, expected fingerprints — derives from these entries.
fn headlines() -> Vec<(&'static str, TraceGenConfig)> {
    vec![
        (
            "headline-diurnal",
            TraceGenConfig {
                seed: 11,
                window_ns: 30_000_000_000,
                arrivals: 120,
                shape: TraceShape::Diurnal,
                churn_permille: 250,
                reprioritize_permille: 80,
                faults: Vec::new(),
            },
        ),
        (
            "headline-flash-crowd",
            TraceGenConfig {
                seed: 22,
                window_ns: 30_000_000_000,
                arrivals: 140,
                shape: TraceShape::FlashCrowd,
                churn_permille: 400,
                reprioritize_permille: 50,
                faults: Vec::new(),
            },
        ),
        (
            "headline-heavy-tail-churn",
            TraceGenConfig {
                seed: 33,
                window_ns: 30_000_000_000,
                arrivals: 120,
                shape: TraceShape::HeavyTailChurn,
                churn_permille: 600,
                reprioritize_permille: 120,
                faults: Vec::new(),
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

/// Renders the deterministic portion of a replay as the `.expect` format:
/// one `key value` pair per line, fingerprint first.
fn expect_text(report: &ReplayReport, telemetry_events: usize) -> String {
    format!(
        "fingerprint {}\narrivals {}\ndepartures {}\npriority_changes {}\n\
         load_shifts {}\nticks {}\ndirectives {}\nenergy_uj {}\ntelemetry_events {}\n",
        report.fingerprint_hex(),
        report.arrivals,
        report.departures,
        report.priority_changes,
        report.load_shifts,
        report.ticks,
        report.directives,
        report.energy_uj,
        telemetry_events,
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

/// Contract 1: the committed bytes are exactly what the generator produces
/// from the hardcoded configs — on this platform, today. In bless mode,
/// rewrites the corpus instead.
#[test]
fn committed_corpus_matches_generator() {
    for (name, cfg) in headlines() {
        let generated = generate_trace(name, &cfg).to_canonical_text();
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

/// Contracts 2 + 3: each committed trace replays oracle-clean, and the
/// replay's fingerprint and counters match the committed `.expect` file.
/// In bless mode, rewrites the `.expect` files instead.
#[test]
fn committed_corpus_replays_clean_and_matches_expect() {
    for (name, _) in headlines() {
        let trace = load_committed(name);
        let (report, telemetry_events) = replay_trace_with_telemetry(&trace);
        assert!(
            report.passed(),
            "{name}: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
        let actual = expect_text(&report, telemetry_events);
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
            "{name}: replay fingerprint or counters drifted from the committed .expect"
        );
    }
}

/// Contract 3, directly: two replays of the same committed trace are
/// bit-identical — same `RmCore` fingerprint, same telemetry count.
#[test]
fn replaying_a_committed_trace_twice_is_bit_identical() {
    let trace = load_committed("headline-flash-crowd");
    let (first, first_events) = replay_trace_with_telemetry(&trace);
    let (second, second_events) = replay_trace_with_telemetry(&trace);
    assert!(first.passed(), "{:?}", first.violations);
    assert_eq!(first, second, "replay reports diverged between runs");
    assert_eq!(
        first.fingerprint_hex(),
        second.fingerprint_hex(),
        "state fingerprints diverged"
    );
    assert_eq!(first_events, second_events, "telemetry counts diverged");
}

/// The energy ledger conserves on every committed headline trace and a
/// second replay yields the same report, ledger total and fingerprint
/// included. The per-tick apportionment check itself runs inside the
/// replay oracle (`absorb`); a non-conserving tick would fail
/// `report.passed()`.
#[test]
fn committed_corpus_conserves_ledger_energy_and_replays_identically() {
    for (name, _) in headlines() {
        let trace = load_committed(name);
        let base = replay_trace(&trace);
        assert!(base.passed(), "{name}: {:?}", base.violations);
        assert!(
            base.energy_uj > 0,
            "{name}: replay charged no energy to the ledger"
        );
        assert_eq!(replay_trace(&trace), base, "{name}: second replay diverged");
    }
}
