//! Property tests for the trace generator: the same seed yields a
//! byte-identical canonical trace on every repetition, and every generated
//! trace survives the text round trip.

use harp_workload::{generate_trace, Trace, TraceGenConfig, TraceShape};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
