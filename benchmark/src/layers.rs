//! Per-layer measurements taken from outside: each function calls one
//! crate's public API on inputs shaped like the workload's own and sets
//! that layer's metrics. Traced runs only.

use crate::counted;
use crate::inputs::{online_inputs, Points};
use crate::spec::Values;
use crate::stats::median;
use crate::RunArgs;
use harp_alloc::{allocate, allocate_warm, AllocOption, AllocRequest, SolverKind, WarmStart};
use harp_energy::{EnergyAttributor, EnergyLedger};
use harp_explore::{ExplorationConfig, Explorer};
use harp_model::{ModelKind, NfcModel};
use harp_platform::HardwareDescription;
use harp_proto::frame::{encode_frame, FrameDecoder};
use harp_proto::Message;
use harp_rm::journal::read_journal;
use harp_rm::{JournalRecord, JournalWriter};
use harp_types::{energy_utility_cost, AppId};
use harp_workload::Trace;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays a sample of the messages the benchmark's sockets carried
/// through `encode_frame` and `FrameDecoder`.
pub fn proto_replay(l: &mut Values, sample: &[Message], frames_per_op: f64) {
    if sample.is_empty() {
        return;
    }
    let n = sample.len() as f64;
    counted::count_allocs(true);
    let was = counted::allocs();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .filter_map(|m| encode_frame(black_box(m)).ok())
        .collect();
    l.set("proto.encode_ns_per_frame", ns_since(t) / n);
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let stream: Vec<u8> = encoded.concat();
    // Fed in socket-read-sized chunks so frames straddle reads, as they
    // do on the wire.
    let mut dec = FrameDecoder::new();
    let mut decoded = 0usize;
    let allocs_before_decode = counted::allocs();
    let t = Instant::now();
    for chunk in stream.chunks(16 * 1024) {
        dec.read_space(chunk.len())[..chunk.len()].copy_from_slice(chunk);
        dec.commit(chunk.len());
        while let Ok(Some(frame)) = dec.next_frame() {
            if black_box(frame.decode()).is_ok() {
                decoded += 1;
            }
        }
    }
    l.set(
        "proto.decode_ns_per_frame",
        ns_since(t) / decoded.max(1) as f64,
    );
    let decode_allocs = counted::allocs() - allocs_before_decode;
    counted::count_allocs(false);
    // `concat` and the outer Vec are the replay's own; encode allocates
    // one buffer per frame, decode whatever the message owns.
    let encode_allocs = (allocs_before_decode - was).saturating_sub(2);
    l.set(
        "proto.allocs_per_frame",
        (encode_allocs + decode_allocs) as f64 / n,
    );
    l.set("proto.bytes_per_op", bytes as f64 / n * frames_per_op);
}

/// `libharp`'s client-side apply path, on a session connected over the
/// in-process duplex transport (handshake answered by a stand-in RM): the
/// cost of `apply_activation`, i.e. callbacks plus the `AllocationHandle`
/// store, per activation.
pub fn libharp_apply(l: &mut Values) {
    use harp_proto::{duplex, AdaptivityType, RegisterAck};
    use libharp::{HarpSession, SessionConfig};
    let (app_side, rm_side) = duplex();
    let rm = std::thread::spawn(move || {
        let _ = rm_side.recv();
        let _ = rm_side.send(&Message::RegisterAck(RegisterAck::new(1)));
        // Hold the endpoint until the application side hangs up.
        while rm_side.recv().is_ok() {}
    });
    if let Ok(mut s) = HarpSession::connect(
        app_side,
        SessionConfig::new("bench", AdaptivityType::Scalable),
    ) {
        let erv = vec![0u32, 4, 0];
        let threads: Vec<harp_types::HwThreadId> = (0..8).map(harp_types::HwThreadId).collect();
        let n = 20_000;
        let t = Instant::now();
        for _ in 0..n {
            s.apply_activation(black_box(erv.clone()), black_box(threads.clone()), 8);
        }
        l.set("libharp.apply_ns_per_activation", ns_since(t) / n as f64);
        let _ = s.exit();
    }
    let _ = rm.join();
}

/// Reads beside writes: the run's final journal read back with
/// `read_journal`, and its records re-appended to a scratch copy with
/// `JournalWriter::append`. `ops` is the number of operations the journal
/// covers. Returns the records for the caller's recovery check.
pub fn journal_io(l: &mut Values, journal: &Path, ops: f64) -> Option<Vec<JournalRecord>> {
    let bytes = std::fs::metadata(journal).ok()?.len();
    let t = Instant::now();
    let outcome = read_journal(journal).ok()?;
    let read_s = t.elapsed().as_secs_f64();
    l.set(
        "rm.journal_read_mb_per_s",
        bytes as f64 / 1e6 / read_s.max(1e-9),
    );
    l.set(
        "rm.journal_records_per_op",
        outcome.records.len() as f64 / ops.max(1.0),
    );
    l.set("rm.journal_bytes_per_op", bytes as f64 / ops.max(1.0));
    let copy = journal.with_extension("copy");
    let _ = std::fs::remove_file(&copy);
    if let Ok(mut w) = JournalWriter::open(&copy) {
        let t = Instant::now();
        for r in &outcome.records {
            let _ = w.append(black_box(r));
        }
        l.set(
            "rm.journal_append_ns_per_record",
            ns_since(t) / outcome.records.len().max(1) as f64,
        );
    }
    let _ = std::fs::remove_file(&copy);
    Some(outcome.records)
}

/// How the warm-started solves ended: memo hit, certified early exit or
/// full schedule, as shares of all of them.
pub fn warm_shares(l: &mut Values, memo: u64, certified: u64, full: u64) {
    let total = (memo + certified + full).max(1) as f64;
    l.set("alloc.memo_hit_share", memo as f64 / total);
    l.set("alloc.certified_share", certified as f64 / total);
    l.set("alloc.full_share", full as f64 / total);
}

/// Runs `f` with the `harp-obs` global collector recording (timed spans,
/// from an empty recorder) and switches it off again.
pub fn with_obs<T>(f: impl FnOnce() -> T) -> T {
    harp_obs::reset_global();
    harp_obs::set_timing(true);
    harp_obs::enable_global();
    let out = f();
    harp_obs::disable_global();
    out
}

/// Harvests the spans `harp-obs` already emits from a flight-recorder
/// dump (a sample: the recorder keeps the last 4096 events per
/// subsystem). No callsite is added or edited.
pub fn harvest_obs(l: &mut Values, dump: &str, ops: f64) {
    let Ok(parsed) = harp_obs::render::parse_dump(dump) else {
        return;
    };
    let ends: Vec<&harp_obs::render::DumpEvent> = parsed
        .events
        .iter()
        .filter(|e| e.kind == "span_end")
        .collect();
    let p50 = |sub: &str, name: &str| -> f64 {
        let mut v: Vec<f64> = ends
            .iter()
            .filter(|e| e.sub == sub && e.name == name)
            .map(|e| e.dur_ns as f64 / 1e3)
            .collect();
        median(&mut v)
    };
    // Self time: a span's duration minus its direct children's, over the
    // spans whose children are in the sample too.
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for c in ends.iter().filter(|c| c.parent != c.span) {
        *children_ns.entry(c.parent).or_default() += c.dur_ns;
    }
    let self_p50 = |sub: &str, name: &str| -> f64 {
        let mut v: Vec<f64> = ends
            .iter()
            .filter(|e| e.sub == sub && e.name == name)
            .map(|e| {
                let children = children_ns.get(&e.span).copied().unwrap_or(0);
                e.dur_ns.saturating_sub(children) as f64 / 1e3
            })
            .collect();
        median(&mut v)
    };
    l.set(
        "rm.span.reallocate_self_us_p50",
        self_p50("rm", "reallocate"),
    );
    l.set("rm.span.tick_self_us_p50", self_p50("rm", "tick"));
    l.set("alloc.span.solve_us_p50", p50("solver", "solve"));
    l.set(
        "alloc.span.cold_schedule_us_p50",
        p50("solver", "cold_schedule"),
    );
    l.set(
        "alloc.span.warm_certify_us_p50",
        p50("solver", "warm_certify"),
    );
    l.set(
        "alloc.span.repair_upgrade_us_p50",
        p50("solver", "repair_upgrade"),
    );
    l.set("sched.span.tick_us_p50", p50("sched", "tick"));
    l.set("obs.events_per_op", parsed.recorded as f64 / ops.max(1.0));
    l.set("obs.events_dropped", harp_obs::global_dropped() as f64);
}

/// Mean of a numeric field over the `span_end` events of one callsite
/// still in the dump (0 when there are none).
pub fn mean_span_field(dump: &str, sub: &str, name: &str, field: &str) -> f64 {
    let Ok(parsed) = harp_obs::render::parse_dump(dump) else {
        return 0.0;
    };
    let v: Vec<f64> = parsed
        .events
        .iter()
        .filter(|e| e.kind == "span_end" && e.sub == sub && e.name == name)
        .filter_map(|e| e.fields.iter().find(|(k, _)| k == field))
        .filter_map(|(_, v)| v.as_f64())
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// An `AllocRequest` per table, built the way the RM builds them: the
/// Pareto front of the table, costed by Eq. 2.
fn requests_from(hw: &HardwareDescription, tables: &[Points]) -> Vec<AllocRequest> {
    tables
        .iter()
        .enumerate()
        .filter_map(|(i, points)| {
            let mut ex = Explorer::new(
                &hw.erv_shape(),
                &hw.capacity(),
                ExplorationConfig::default(),
            )
            .ok()?;
            ex.seed_measured(points.iter().cloned());
            let v_max = ex.table().max_utility();
            let options: Vec<AllocOption> = ex
                .pareto_options()
                .into_iter()
                .map(|(op, erv, nfc)| AllocOption {
                    op,
                    cost: energy_utility_cost(nfc.utility, nfc.power, v_max),
                    erv,
                })
                .collect();
            (!options.is_empty()).then_some(AllocRequest {
                app: AppId(i as u64 + 1),
                options,
            })
        })
        .collect()
}

/// `alloc`, `explore`, `model`, `energy`, `workload`, `obs` and the
/// instrument itself, on inputs shaped like the workload's: `tables` are
/// the operating-point tables its sessions hold (one per session).
pub fn micro(l: &mut Values, hw: &HardwareDescription, tables: &[Points], args: &RunArgs) {
    let iters = if args.quick { 5 } else { 41 };

    // alloc: cold solves of the full population; warm solves alternating
    // between the population with and without its last session, as an
    // arrival and a departure do.
    let requests = requests_from(hw, tables);
    if !requests.is_empty() {
        let mut cold = Vec::new();
        let mut cold_work = 0.0;
        for _ in 0..iters {
            let t = Instant::now();
            if let Ok(a) = allocate(black_box(&requests), hw, SolverKind::Lagrangian) {
                cold_work = a.solve_work;
            }
            cold.push(ns_since(t) / 1e3);
        }
        let mut warm = WarmStart::new();
        let _ = allocate_warm(&requests, hw, SolverKind::Lagrangian, &mut warm);
        let without = &requests[..requests.len() - 1];
        let mut warm_us = Vec::new();
        let mut warm_work = Vec::new();
        for i in 0..iters * 2 {
            let reqs = if i % 2 == 0 { without } else { &requests[..] };
            if reqs.is_empty() {
                break;
            }
            let t = Instant::now();
            if let Ok(a) = allocate_warm(black_box(reqs), hw, SolverKind::Lagrangian, &mut warm) {
                warm_work.push(a.solve_work);
            }
            warm_us.push(ns_since(t) / 1e3);
        }
        l.set("alloc.cold_solve_us_p50", median(&mut cold));
        l.set("alloc.warm_solve_us_p50", median(&mut warm_us));
        l.set("alloc.cold_work", cold_work);
        l.set("alloc.warm_work", median(&mut warm_work));
    }

    // explore + model, on the workload's first table (sampling campaigns
    // need free candidates, so the explorer is given the whole machine).
    if let Some(points) = tables.first() {
        let mk = || {
            let mut ex = Explorer::new(
                &hw.erv_shape(),
                &hw.capacity(),
                ExplorationConfig::default(),
            )
            .expect("raptor_lake has candidates");
            ex.seed_measured(points.iter().cloned());
            ex
        };
        let ex = mk();
        let mut pareto = Vec::new();
        for _ in 0..iters * 5 {
            let t = Instant::now();
            black_box(ex.pareto_options());
            pareto.push(ns_since(t));
        }
        l.set("explore.pareto_options_ns_p50", median(&mut pareto));

        let mut ex = mk();
        let mut sample_ns = Vec::new();
        let mut refresh_us = Vec::new();
        for round in 0..iters.min(12) {
            if ex.begin_target(&hw.capacity()).is_none() {
                break;
            }
            loop {
                let t = Instant::now();
                let r = ex.record_sample(1.0e10 + round as f64, 20.0);
                sample_ns.push(ns_since(t));
                if !matches!(r, Ok(harp_explore::SampleOutcome::Continue)) {
                    break;
                }
            }
            let t = Instant::now();
            black_box(ex.refresh_predictions());
            refresh_us.push(ns_since(t) / 1e3);
        }
        l.set("explore.record_sample_ns_p50", median(&mut sample_ns));
        l.set(
            "explore.refresh_predictions_us_p50",
            median(&mut refresh_us),
        );

        // model: fit and predict at the sample count the table holds.
        let samples: Points = ex
            .table()
            .iter_measured()
            .map(|(_, p)| (p.erv.clone(), p.nfc))
            .collect();
        let mut fit_us = Vec::new();
        let mut model = NfcModel::new(ModelKind::runtime_default(), 0);
        for _ in 0..iters {
            let t = Instant::now();
            let _ = black_box(model.fit(&samples));
            fit_us.push(ns_since(t) / 1e3);
        }
        l.set("model.fit_us_p50", median(&mut fit_us));
        let probe = &samples[0].0;
        let n = 2000;
        let t = Instant::now();
        for _ in 0..n {
            black_box(model.predict(black_box(probe)));
        }
        l.set("model.predict_ns", ns_since(t) / n as f64);
    }

    // energy: one tick's attribution and ledger charge at the live
    // session count.
    let sessions = tables.len().max(1);
    let mut attributor = EnergyAttributor::new(hw);
    let mut ledger = EnergyLedger::new();
    let deltas: Vec<(AppId, Vec<f64>)> = (0..sessions)
        .map(|i| (AppId(i as u64 + 1), vec![0.02 + i as f64 * 1e-4, 0.03]))
        .collect();
    let weights: Vec<(AppId, f64)> = deltas
        .iter()
        .map(|(a, t)| {
            (
                *a,
                t[0] * attributor.coefficient(0) + t[1] * attributor.coefficient(1),
            )
        })
        .collect();
    let n = 500;
    let t = Instant::now();
    for _ in 0..n {
        attributor.update(0.05, 2.5, black_box(&deltas));
    }
    l.set("energy.attribute_ns_per_tick", ns_since(t) / n as f64);
    let t = Instant::now();
    for _ in 0..n {
        black_box(ledger.charge(2.5, black_box(&weights)));
    }
    l.set("energy.ledger_charge_ns_per_tick", ns_since(t) / n as f64);
    if l.get("energy.conservation_error").is_none() {
        l.set(
            "energy.conservation_error",
            ledger.conservation_error().unsigned_abs() as f64,
        );
    }

    // workload: trace generation and the canonical text round trip.
    let arrivals = if args.quick { 200 } else { 4000 };
    let t = Instant::now();
    let inp = online_inputs(args.seed, hw, arrivals, 600);
    let gen_s = t.elapsed().as_secs_f64();
    l.set(
        "workload.generate_events_per_s",
        inp.trace.events.len() as f64 / gen_s.max(1e-9),
    );
    let text = inp.trace.to_canonical_text();
    let t = Instant::now();
    let parsed = Trace::parse(black_box(&text));
    let parse_s = t.elapsed().as_secs_f64();
    if parsed.is_ok() {
        l.set(
            "workload.parse_mb_per_s",
            text.len() as f64 / 1e6 / parse_s.max(1e-9),
        );
    }

    // obs: a disabled callsite (the state every untraced run is in).
    let was_on = harp_obs::global_enabled();
    harp_obs::disable_global();
    let n = 200_000;
    let t = Instant::now();
    for i in 0..n {
        let _sp = harp_obs::span(harp_obs::Subsystem::Rm, "bench_probe").field("i", i as u64);
    }
    l.set("obs.disabled_callsite_ns", ns_since(t) / n as f64);
    if was_on {
        harp_obs::enable_global();
    }

    l.set("bench.timer_ns", counted::timer_ns());
}
