//! Tracing is observation only: a run with the `harp-obs` global
//! collector on must produce the same bits as one with it off, record
//! events and drop none.
//!
//! The global collector is process-global state, so everything lives in
//! one `#[test]` (the libtest runner executes sibling tests concurrently).

use harp::bench::runner::{run_scenario, ManagerKind, RunMetrics, RunOptions};
use harp::workload::{Platform, Scenario};

fn bits(m: RunMetrics) -> (u64, u64) {
    (m.makespan_s.to_bits(), m.energy_j.to_bits())
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    // The reduced Fig. 6 multi-application scenario under online HARP
    // (RM ticks, exploration, solver rounds all emit events).
    let sc = Scenario::of(Platform::RaptorLake, &["cg", "ep", "ft"]);
    let opts = RunOptions::default();
    let run =
        || run_scenario(Platform::RaptorLake, &sc, ManagerKind::Harp, &opts).expect("harp run");
    let untraced = run();
    harp::obs::enable_global();
    let traced = run();
    harp::obs::disable_global();
    let recorded = harp::obs::render::parse_dump(&harp::obs::dump_global(false))
        .expect("own dump parses")
        .recorded;
    harp::obs::reset_global();
    assert!(recorded > 0, "the traced run recorded no events");
    assert_eq!(bits(traced), bits(untraced), "tracing perturbed the run");
    assert_eq!(harp::obs::global_dropped(), 0, "collector dropped events");
}
