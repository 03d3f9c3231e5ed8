//! Simulator outcome fingerprints: the engine behind every paper number
//! (Figs. 6–8, §6.6) must reproduce its `RunReport`s bit for bit across
//! refactors. `tests/sim_outcomes.expect` pins, per run, the event count,
//! the makespan, the package-energy bits and every instance's end time
//! and ground-truth energy bits. The file was written by the engine as it
//! stood before the dense-slot rewrite; regenerate it deliberately with
//! `HARP_TRACE_BLESS=1` and diff before committing.

use harp::platform::Governor;
use harp::sched::{CfsManager, HarpSimManager};
use harp::sim::{LaunchOpts, Manager, RunReport, SimConfig, Simulation, MILLISECOND, SECOND};
use harp::types::{CoreId, FaultEvent, PriorityClass};
use harp::workload::{benchmark, scenarios, Platform};
use std::fmt::Write as _;
use std::path::PathBuf;

fn machine(seed: u64, horizon_s: u64) -> Simulation {
    Simulation::new(
        Platform::RaptorLake.hardware(),
        SimConfig {
            seed,
            governor: Governor::Powersave,
            horizon_ns: Some(horizon_s * SECOND),
            ..SimConfig::default()
        },
    )
}

fn line(out: &mut String, label: &str, r: &RunReport) {
    write!(
        out,
        "{label} events={} makespan_ns={} energy_bits={:016x}",
        r.events,
        r.makespan_ns,
        r.total_energy_j.to_bits()
    )
    .unwrap();
    for (tag, recs) in [("done", &r.apps), ("partial", &r.partial)] {
        for a in recs {
            write!(
                out,
                " {tag}:{}#{}@{}/{:016x}",
                a.name,
                a.instance,
                a.end_ns,
                a.energy_true_j.to_bits()
            )
            .unwrap();
        }
    }
    out.push('\n');
}

fn run(mut sim: Simulation, mgr: &mut dyn Manager) -> RunReport {
    sim.run(mgr).expect("scenario specs are valid")
}

fn outcomes() -> String {
    let mut out = String::new();
    // Every Fig. 6 multi-application scenario under the CFS baseline, at
    // full size (the `paper_outcome` benchmark's measured CFS runs).
    for s in scenarios::intel_multi() {
        let mut sim = machine(303, 600);
        for app in &s.apps {
            sim.add_arrival(0, app.clone(), LaunchOpts::all_hw_threads());
        }
        line(
            &mut out,
            &format!("cfs {}", s.name),
            &run(sim, &mut CfsManager::new()),
        );
    }
    // Online HARP with restarts: the learning warm-up shape (restarts keep
    // spawning instances and threads; RM ticks sample, charge overhead and
    // re-pin through affinity and team size).
    let s = &scenarios::intel_multi()[0];
    let mut sim = machine(23, 60);
    for app in &s.apps {
        sim.add_arrival(
            0,
            app.clone(),
            LaunchOpts::all_hw_threads().restart_until(60 * SECOND),
        );
    }
    line(
        &mut out,
        &format!("harp-online-restart {}", s.name),
        &run(sim, &mut HarpSimManager::online()),
    );
    // A keyed trace: staggered arrivals, a forced departure, a priority
    // change, a load shift and a core failing and recovering.
    let spec = |n: &str| benchmark(Platform::RaptorLake, n).expect("known benchmark");
    let mut sim = machine(7, 40);
    sim.add_arrival_keyed(0, 1, spec("ep"), LaunchOpts::all_hw_threads());
    sim.add_arrival_keyed(300 * MILLISECOND, 2, spec("mg"), LaunchOpts::fixed_team(8));
    sim.add_arrival_keyed(700 * MILLISECOND, 3, spec("is"), LaunchOpts::fixed_team(4));
    sim.add_priority_change(900 * MILLISECOND, 2, PriorityClass::Premium);
    sim.add_fault(SECOND, FaultEvent::CoreFail { core: CoreId(3) });
    sim.add_load_shift(1500 * MILLISECOND, 600);
    sim.add_departure(2 * SECOND, 1);
    sim.add_fault(
        2500 * MILLISECOND,
        FaultEvent::CoreRecover { core: CoreId(3) },
    );
    sim.add_fault(
        3 * SECOND,
        FaultEvent::ThermalCap {
            cluster: 0,
            permille: 700,
        },
    );
    line(
        &mut out,
        "harp-online-trace ep+mg+is",
        &run(sim, &mut HarpSimManager::online()),
    );
    out
}

#[test]
fn simulator_outcomes_match_the_committed_fingerprints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/sim_outcomes.expect");
    let got = outcomes();
    if std::env::var_os("HARP_TRACE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write sim_outcomes.expect");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with HARP_TRACE_BLESS=1?)",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "simulator outcome drifted");
    }
    assert_eq!(got, want, "simulator outcomes drifted");
}
