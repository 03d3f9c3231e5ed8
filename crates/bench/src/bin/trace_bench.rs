//! Trace-engine benchmark driver: measures the seeded workload generator
//! at 10k+ arrivals per simulated window, the canonical-text round trip,
//! and whole-trace oracle-checked replays through `harp-testkit`, then
//! merges a `trace_bench` section into `BENCH_harness.json` (see
//! DESIGN.md §13 and EXPERIMENTS.md for methodology).
//!
//! Tiers: generation at 10 000 and 50 000 arrivals per shape by default;
//! `HARP_TRACE_BENCH_QUICK=1` runs the 10k generation tier and a smaller
//! replay alone (the ci.sh gate). Output path: `HARP_TRACE_BENCH_JSON`,
//! else `HARP_BENCH_JSON`, else `BENCH_harness.json`; all other keys in
//! an existing file are preserved (read-modify-write).
//!
//! Exits non-zero when any generated trace fails to round-trip through
//! the canonical text, any replay violates a testkit oracle, or two
//! replays of the same trace disagree on the RM state fingerprint.

use harp_testkit::replay::replay_trace;
use harp_workload::{generate_trace, Trace, TraceGenConfig, TraceShape};
use serde_json::JsonValue as V;
use std::time::Instant;

fn obj(fields: Vec<(&str, V)>) -> V {
    V::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Inserts or replaces `key` in an object (no-op on non-objects).
fn set_key(doc: &mut V, key: &str, val: V) {
    if let V::Obj(fields) = doc {
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = val;
        } else {
            fields.push((key.to_string(), val));
        }
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1")
}

const SHAPES: [TraceShape; 3] = [
    TraceShape::Diurnal,
    TraceShape::FlashCrowd,
    TraceShape::HeavyTailChurn,
];

fn main() {
    let quick = env_flag("HARP_TRACE_BENCH_QUICK");
    let gen_tiers: &[u32] = if quick { &[10_000] } else { &[10_000, 50_000] };
    let replay_arrivals: u32 = if quick { 60 } else { 200 };
    let mut failed = false;

    // Generation + canonical round trip, per shape and arrival tier.
    let mut gen_rows = Vec::new();
    for shape in SHAPES {
        for &arrivals in gen_tiers {
            let cfg = TraceGenConfig {
                seed: 7,
                arrivals,
                shape,
                ..TraceGenConfig::default()
            };
            let t0 = Instant::now();
            let trace = generate_trace(shape.as_str(), &cfg);
            let gen_ns = t0.elapsed().as_nanos() as u64;
            let events = trace.events.len() as u64;

            let t1 = Instant::now();
            let text = trace.to_canonical_text();
            let parsed = Trace::parse(&text);
            let round_trip_ns = t1.elapsed().as_nanos() as u64;
            let round_trip_ok = parsed.as_ref().is_ok_and(|p| *p == trace);
            if !round_trip_ok {
                eprintln!(
                    "trace_bench: {} x{arrivals} failed the canonical round trip",
                    shape.as_str()
                );
                failed = true;
            }
            let events_per_sec = events as f64 * 1e9 / gen_ns.max(1) as f64;
            println!(
                "gen {:>16} x{arrivals:>6}: {events:>6} events in {:.2} ms \
                 ({:.0} events/s, {} bytes canonical)",
                shape.as_str(),
                gen_ns as f64 / 1e6,
                events_per_sec,
                text.len()
            );
            gen_rows.push(obj(vec![
                ("shape", V::Str(shape.as_str().to_string())),
                ("arrivals", V::UInt(arrivals as u64)),
                ("events", V::UInt(events)),
                ("gen_ns", V::UInt(gen_ns)),
                ("events_per_sec", V::Float(events_per_sec.round())),
                ("canonical_bytes", V::UInt(text.len() as u64)),
                ("round_trip_ns", V::UInt(round_trip_ns)),
                ("round_trip_ok", V::Bool(round_trip_ok)),
            ]));
        }
    }

    // Oracle-checked replays, per shape: replay twice, require a clean
    // oracle and a stable fingerprint.
    let mut replay_rows = Vec::new();
    for shape in SHAPES {
        let cfg = TraceGenConfig {
            seed: 7,
            arrivals: replay_arrivals,
            window_ns: 20_000_000_000,
            shape,
            ..TraceGenConfig::default()
        };
        let trace = generate_trace(shape.as_str(), &cfg);
        let events = trace.events.len() as u64;
        let t0 = Instant::now();
        let report = replay_trace(&trace);
        let replay_ns = t0.elapsed().as_nanos() as u64;
        let again = replay_trace(&trace);
        let deterministic = again == report;
        if !report.passed() {
            eprintln!(
                "trace_bench: {} replay violated the oracle: {:?}",
                shape.as_str(),
                &report.violations[..report.violations.len().min(3)]
            );
            failed = true;
        }
        if !deterministic {
            eprintln!(
                "trace_bench: {} replay fingerprint drifted between runs \
                 ({} vs {})",
                shape.as_str(),
                report.fingerprint_hex(),
                again.fingerprint_hex()
            );
            failed = true;
        }
        let events_per_sec = events as f64 * 1e9 / replay_ns.max(1) as f64;
        println!(
            "replay {:>16} x{replay_arrivals:>4}: {events:>5} events, {} ticks, \
             {} directives in {:.1} ms ({:.0} events/s, fingerprint {})",
            shape.as_str(),
            report.ticks,
            report.directives,
            replay_ns as f64 / 1e6,
            events_per_sec,
            report.fingerprint_hex()
        );
        replay_rows.push(obj(vec![
            ("shape", V::Str(shape.as_str().to_string())),
            ("arrivals", V::UInt(replay_arrivals as u64)),
            ("events", V::UInt(events)),
            ("ticks", V::UInt(report.ticks as u64)),
            ("directives", V::UInt(report.directives as u64)),
            ("replay_ns", V::UInt(replay_ns)),
            ("events_per_sec", V::Float(events_per_sec.round())),
            ("fingerprint", V::Str(report.fingerprint_hex())),
            ("violations", V::UInt(report.violations.len() as u64)),
            ("quiesced", V::Bool(report.quiesced)),
            ("deterministic", V::Bool(deterministic)),
        ]));
    }

    let section = obj(vec![
        ("quick", V::Bool(quick)),
        ("generation", V::Arr(gen_rows)),
        ("replay", V::Arr(replay_rows)),
    ]);

    let path = std::env::var("HARP_TRACE_BENCH_JSON")
        .or_else(|_| std::env::var("HARP_BENCH_JSON"))
        .unwrap_or_else(|_| "BENCH_harness.json".to_string());
    let mut doc: V = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or(V::Obj(Vec::new()));
    if !matches!(doc, V::Obj(_)) {
        doc = V::Obj(Vec::new());
    }
    set_key(&mut doc, "trace_bench", section);
    let mut rendered = serde_json::to_string_pretty(&doc).expect("serializable");
    rendered.push('\n');
    if let Err(e) = std::fs::write(&path, rendered) {
        eprintln!("trace_bench: cannot write {path}: {e}");
        std::process::exit(1);
    }

    if failed {
        std::process::exit(1);
    }
}
