//! Property tests for the workload generators.
//!
//! Two families: (1) fuzzing `random_spec`/`random_scenario` over
//! degenerate platform shapes (zero kinds, zero apps, single-thread
//! machines) — every output must validate, never panic; (2) the trace
//! generator's determinism contract — the same seed yields a byte-identical
//! canonical trace on every repetition.

use harp_workload::generator::{random_scenario, random_spec};
use harp_workload::{generate_trace, Platform, Trace, TraceGenConfig, TraceShape};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Degenerate-input fuzz: 0 kinds must fall back to a single-kind spec,
    // and any spec that comes out must validate.
    #[test]
    fn random_spec_survives_degenerate_platforms(
        seed in any::<u64>(),
        num_kinds in 0usize..5
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = random_spec(&mut rng, "fuzz", num_kinds);
        s.validate().unwrap();
        prop_assert_eq!(s.kind_efficiency.len(), num_kinds.max(1));
        prop_assert!(s.total_work() > 0.0);
    }

    #[test]
    fn random_scenario_survives_degenerate_sizes(
        seed in any::<u64>(),
        n_apps in 0usize..8
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for platform in [Platform::RaptorLake, Platform::Odroid] {
            let sc = random_scenario(&mut rng, platform, n_apps);
            prop_assert_eq!(sc.len(), n_apps);
            prop_assert!(!sc.name.is_empty(), "even an empty mix is named");
            for a in &sc.apps {
                a.validate().unwrap();
            }
        }
    }

    // Seed determinism: repeated generation is byte-identical, different
    // seeds (virtually always) differ.
    #[test]
    fn trace_generation_is_seed_deterministic(
        seed in any::<u64>(),
        arrivals in 1u32..400
    ) {
        for shape in [
            TraceShape::Diurnal,
            TraceShape::FlashCrowd,
            TraceShape::HeavyTailChurn,
        ] {
            let cfg = TraceGenConfig { seed, arrivals, shape, ..TraceGenConfig::default() };
            let a = generate_trace("t", &cfg).to_canonical_text();
            let b = generate_trace("t", &cfg).to_canonical_text();
            prop_assert_eq!(&a, &b, "same seed, same bytes");
            let other = TraceGenConfig { seed: seed.wrapping_add(1), ..cfg };
            let c = generate_trace("t", &other).to_canonical_text();
            prop_assert!(a != c, "different seed produced identical trace");
        }
    }

    // Parser round-trip holds for arbitrary generated traces, not just the
    // hand-written samples.
    #[test]
    fn generated_traces_round_trip_through_text(
        seed in any::<u64>(),
        arrivals in 1u32..200,
        churn in 0u32..1000,
        reprio in 0u32..1000
    ) {
        let cfg = TraceGenConfig {
            seed,
            arrivals,
            churn_permille: churn,
            reprioritize_permille: reprio,
            shape: TraceShape::HeavyTailChurn,
            ..TraceGenConfig::default()
        };
        let t = generate_trace("rt", &cfg);
        let back = Trace::parse(&t.to_canonical_text()).unwrap();
        prop_assert_eq!(back, t);
    }
}

/// Generation is a pure function of `(name, config)`: a second call
/// yields the same canonical bytes. (Replay determinism is covered in
/// `harp-testkit`.)
#[test]
fn trace_bytes_are_identical_across_runs() {
    let cfg = TraceGenConfig {
        seed: 99,
        arrivals: 300,
        shape: TraceShape::FlashCrowd,
        ..TraceGenConfig::default()
    };
    let first = generate_trace("env", &cfg).to_canonical_text();
    let second = generate_trace("env", &cfg).to_canonical_text();
    assert_eq!(first, second, "second generation changed trace bytes");
}
