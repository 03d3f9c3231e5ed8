//! The on-disk application description format `harpd --profile
//! <name>=<file>` reads.
//!
//! `tests/data/mg.json` is `AppDescription::from_points` over the offline
//! operating-point table of `mg` on Raptor Lake (127 points, DSE seed 17,
//! 600 s horizon) as `AppDescription::to_json` wrote it with the earlier,
//! derive-based encoder; it must still decode to the same values bit for
//! bit. Every class of malformed input fails with
//! [`HarpError::Description`].

use harp_types::HarpError;
use libharp::description::{AppDescription, DescribedPoint};

const MG: &str = include_str!("data/mg.json");
/// The opening of the first point's `erv` array in `mg.json`.
const FIRST_ERV: &str = "\"erv\": [\n        0,";

/// Every number of a description as raw bits, in field order.
fn bits(d: &AppDescription) -> Vec<u64> {
    let mut out: Vec<u64> = d.smt_widths.iter().map(|&w| w as u64).collect();
    for p in &d.points {
        out.extend(p.erv.iter().map(|&c| u64::from(c)));
        out.push(p.utility.to_bits());
        out.push(p.power.to_bits());
    }
    out
}

fn assert_same(a: &AppDescription, b: &AppDescription) {
    assert_eq!(a, b);
    assert_eq!(bits(a), bits(b));
}

#[test]
fn committed_file_decodes_to_the_offline_mg_table() {
    let d = AppDescription::from_json(MG).expect("mg.json");
    assert_eq!(d.name, "mg");
    assert_eq!(d.smt_widths, vec![2, 1]);
    assert_eq!(d.points.len(), 127);
    assert_eq!(
        d.points[0],
        DescribedPoint {
            erv: vec![0, 0, 1],
            utility: 5099999996.29485,
            power: 30.29999999999998,
        }
    );
    let last = d.points.last().expect("points");
    assert_eq!(last.erv, vec![2, 6, 16]);
    assert_eq!(last.utility.to_bits(), 51098611661.97184f64.to_bits());
    assert_eq!(last.power.to_bits(), 77.76059112463483f64.to_bits());
    assert_eq!(d.to_points().expect("valid points").len(), 127);
}

#[test]
fn encode_then_decode_is_bit_identical() {
    let d = AppDescription::from_json(MG).expect("mg.json");
    let back = AppDescription::from_json(&d.to_json()).expect("own output decodes");
    assert_same(&back, &d);
}

/// The mg file with the first occurrence of `from` replaced.
fn edited(from: &str, to: &str) -> String {
    assert!(MG.contains(from), "fixture lacks {from:?}");
    MG.replacen(from, to, 1)
}

/// Decoding fails with a [`HarpError::Description`] whose detail names
/// `reason`.
fn assert_rejected(json: &str, class: &str, reason: &str) {
    match AppDescription::from_json(json) {
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
    let first_power = "\"power\": 30.29999999999998";
    let count = "field `erv`: expected a non-negative integer that fits u32";
    let cases = [
        (
            "missing field",
            edited(&format!(",\n      {first_power}"), ""),
            "missing field `power`",
        ),
        (
            "wrong type",
            edited("\"name\": \"mg\"", "\"name\": 7"),
            "field `name`: expected a string",
        ),
        (
            "negative integer",
            edited(FIRST_ERV, "\"erv\": [\n        -1,"),
            count,
        ),
        (
            "fractional integer",
            edited(FIRST_ERV, "\"erv\": [\n        0.5,"),
            count,
        ),
        (
            "out-of-range integer",
            edited(FIRST_ERV, "\"erv\": [\n        4294967296,"),
            count,
        ),
        (
            "null float",
            edited(first_power, "\"power\": null"),
            "field `power`: expected a number",
        ),
        ("trailing data", format!("{MG}\n[]"), "trailing data"),
        (
            "truncated",
            MG[..MG.len() / 2].to_string(),
            "malformed application description",
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
    let json = edited(FIRST_ERV, "\"erv\": [\n        0.0,");
    let d = AppDescription::from_json(&json).expect("0.0 reads as 0");
    assert_same(&d, &AppDescription::from_json(MG).expect("mg.json"));
    let widths = edited("\"smt_widths\": [\n    2,", "\"smt_widths\": [\n    2.0,");
    let d = AppDescription::from_json(&widths).expect("2.0 reads as 2");
    assert_eq!(d.smt_widths, vec![2, 1]);
}

#[test]
fn unknown_keys_are_ignored() {
    let json = edited(
        "\"name\": \"mg\",",
        "\"name\": \"mg\", \"source\": \"dse\",",
    );
    let d = AppDescription::from_json(&json).expect("unknown key ignored");
    assert_same(&d, &AppDescription::from_json(MG).expect("mg.json"));
}
