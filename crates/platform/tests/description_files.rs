//! The on-disk hardware description format `harpd --hw <file>` reads.
//!
//! `tests/data/{raptor_lake,odroid_xu3}.json` are the two presets as
//! `HardwareDescription::to_json` wrote them with the earlier,
//! derive-based encoder; each must still decode to its preset bit for
//! bit. Every class of malformed input fails with
//! [`HarpError::Description`].

use harp_platform::{presets, HardwareDescription};
use harp_types::HarpError;

const RAPTOR_LAKE: &str = include_str!("data/raptor_lake.json");
const ODROID_XU3: &str = include_str!("data/odroid_xu3.json");

/// Every float of a description as raw bits, in field order.
fn float_bits(hw: &HardwareDescription) -> Vec<u64> {
    let mut out = vec![hw.package_static_w.to_bits(), hw.mem_bandwidth.to_bits()];
    for c in &hw.clusters {
        out.extend(
            [
                c.min_freq_mhz,
                c.max_freq_mhz,
                c.perf.ips_per_thread,
                c.perf.smt_rate_factor,
                c.power.core_idle_w,
                c.power.core_active_w,
                c.power.smt_active_extra,
                c.power.cluster_static_w,
            ]
            .map(f64::to_bits),
        );
    }
    out
}

fn assert_same(a: &HardwareDescription, b: &HardwareDescription) {
    assert_eq!(a, b);
    assert_eq!(float_bits(a), float_bits(b));
}

#[test]
fn committed_files_decode_to_the_presets() {
    let rl = HardwareDescription::from_json(RAPTOR_LAKE).expect("raptor_lake.json");
    assert_same(&rl, &presets::raptor_lake());
    let od = HardwareDescription::from_json(ODROID_XU3).expect("odroid_xu3.json");
    assert_same(&od, &presets::odroid_xu3());
}

#[test]
fn encode_then_decode_is_bit_identical() {
    for hw in [presets::raptor_lake(), presets::odroid_xu3()] {
        let back = HardwareDescription::from_json(&hw.to_json()).expect("own output decodes");
        assert_same(&back, &hw);
    }
}

/// The Raptor Lake file with the first occurrence of `from` replaced.
fn edited(from: &str, to: &str) -> String {
    assert!(RAPTOR_LAKE.contains(from), "fixture lacks {from:?}");
    RAPTOR_LAKE.replacen(from, to, 1)
}

/// Decoding fails with a [`HarpError::Description`] whose detail names
/// `reason`.
fn assert_rejected(json: &str, class: &str, reason: &str) {
    match HardwareDescription::from_json(json) {
        Err(HarpError::Description { detail }) => {
            assert!(
                detail.contains(reason),
                "{class}: {detail:?} lacks {reason:?}"
            )
        }
        other => panic!("{class}: expected a Description error, got {other:?}"),
    }
}

#[test]
fn malformed_files_are_rejected() {
    let count = "field `cores`: expected a non-negative integer that fits u32";
    let cases = [
        (
            "missing field",
            edited("\"cores\": 8,", ""),
            "missing field `cores`",
        ),
        (
            "wrong type",
            edited("\"cores\": 8,", "\"cores\": \"8\","),
            count,
        ),
        (
            "negative integer",
            edited("\"cores\": 8,", "\"cores\": -8,"),
            count,
        ),
        (
            "fractional integer",
            edited("\"cores\": 8,", "\"cores\": 8.5,"),
            count,
        ),
        (
            "out-of-range integer",
            edited("\"cores\": 8,", "\"cores\": 4294967296,"),
            count,
        ),
        (
            "null float",
            edited(
                "\"ips_per_thread\": 9200000000.0,",
                "\"ips_per_thread\": null,",
            ),
            "field `ips_per_thread`: expected a number",
        ),
        (
            "null float validate() would pass as NaN",
            edited("\"core_idle_w\": 0.7,", "\"core_idle_w\": null,"),
            "field `core_idle_w`: expected a number",
        ),
        (
            "trailing data",
            format!("{RAPTOR_LAKE} {{}}"),
            "trailing data",
        ),
        (
            "truncated",
            RAPTOR_LAKE[..RAPTOR_LAKE.len() / 2].to_string(),
            "malformed hardware description",
        ),
    ];
    for (class, json, reason) in &cases {
        assert_rejected(json, class, reason);
    }
}

/// JSON does not tell `8` from `8.0`: a count written as an integral
/// float reads as that count.
#[test]
fn integral_float_counts_are_accepted() {
    let json = edited("\"cores\": 8,", "\"cores\": 8.0,");
    let hw = HardwareDescription::from_json(&json).expect("8.0 reads as 8");
    assert_same(&hw, &presets::raptor_lake());
}

#[test]
fn unknown_keys_are_ignored() {
    let json = edited("\"cores\": 8,", "\"cores\": 8, \"vendor_note\": [1, {}],");
    let hw = HardwareDescription::from_json(&json).expect("unknown key ignored");
    assert_same(&hw, &presets::raptor_lake());
}
