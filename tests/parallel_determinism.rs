//! The parallel harness must be a pure optimization: for a fixed seed the
//! job-pool runner has to produce bit-identical metrics for any worker
//! count, and the profile cache has to return exactly what a cold
//! computation would. Likewise tracing: a run with the `harp-obs` global
//! collector on must produce the same bits as one with it off.
//!
//! Everything lives in one `#[test]` because the worker-count override
//! and the global collector are process-global state (the libtest runner
//! executes sibling tests concurrently).

use harp::bench::runner::{ManagerKind, RunMetrics, RunOptions};
use harp::bench::{cache, dse, jobs};
use harp::sim::SECOND;
use harp::workload::{benchmark, Platform, Scenario};

fn bits(m: RunMetrics) -> (u64, u64) {
    (m.makespan_s.to_bits(), m.energy_j.to_bits())
}

#[test]
fn parallel_runner_and_cache_are_bit_identical_to_serial() {
    // --- Job pool: 1, 2 and 8 workers vs the serial path. -------------
    let opts = RunOptions::default();
    let mut job_set = jobs::repetition_jobs(
        "determinism",
        Platform::RaptorLake,
        &Scenario::of(Platform::RaptorLake, &["ep"]),
        ManagerKind::Cfs,
        &opts,
        3,
    );
    job_set.extend(jobs::repetition_jobs(
        "determinism",
        Platform::RaptorLake,
        &Scenario::of(Platform::RaptorLake, &["mg"]),
        ManagerKind::Itd,
        &opts,
        2,
    ));

    // Serial reference: each job executed in order on this thread.
    let serial: Vec<RunMetrics> = job_set
        .iter()
        .map(|j| j.run().expect("serial job"))
        .collect();

    for workers in [1usize, 2, 8] {
        jobs::set_worker_override(Some(workers));
        let parallel = jobs::run_jobs(&job_set).expect("parallel jobs");
        jobs::set_worker_override(None);
        assert_eq!(parallel.len(), serial.len());
        for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(
                bits(*p),
                bits(*s),
                "job {i} differs with {workers} workers: {p:?} vs {s:?}"
            );
        }
        // The averaged cell a figure prints: the pooled group folds to the
        // serial group's bits.
        assert_eq!(
            bits(jobs::fold_repetitions(&parallel[..3])),
            bits(jobs::fold_repetitions(&serial[..3])),
            "folded repetitions differ with {workers} workers"
        );
    }

    // --- Tracing is observation only. ---------------------------------
    // The reduced Fig. 6 multi-application scenario under online HARP
    // (RM ticks, exploration, solver rounds all emit events) with the
    // global collector on: same metric bits, nothing dropped.
    let sc = Scenario::of(Platform::RaptorLake, &["cg", "ep", "ft"]);
    let run = || {
        harp::bench::runner::run_scenario(Platform::RaptorLake, &sc, ManagerKind::Harp, &opts)
            .expect("harp run")
    };
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

    // --- Profile cache: hit == cold computation. ----------------------
    cache::reset();
    cache::set_spill_dir(None);
    let spec = benchmark(Platform::Odroid, "ep").expect("known benchmark");
    let cold = dse::sweep_table(Platform::Odroid, &spec, 60.0, 17).expect("cold sweep");
    let first = cache::offline_table(Platform::Odroid, &spec, 60.0, 17).expect("miss");
    assert_eq!(cache::misses(), 1, "first lookup computes");
    let second = cache::offline_table(Platform::Odroid, &spec, 60.0, 17).expect("hit");
    assert_eq!(cache::hits(), 1, "second lookup hits");
    let json = |t| serde_json::to_string(t).expect("serializable table");
    assert_eq!(json(&first), json(&cold), "cached vs uncached computation");
    assert_eq!(json(&first), json(&second), "hit vs miss");

    // Learned profiles: cached result == direct computation.
    let sc = Scenario::of(Platform::RaptorLake, &["mg"]);
    let direct = harp::bench::runner::learn_profiles(Platform::RaptorLake, &sc, 30 * SECOND, 23)
        .expect("direct learn");
    let cached =
        cache::learned_profiles(Platform::RaptorLake, &sc, 30 * SECOND, 23).expect("cached learn");
    assert_eq!(
        serde_json::to_string(&direct).expect("store json"),
        serde_json::to_string(&cached).expect("store json"),
        "learned profiles: cached vs direct"
    );

    // --- JSON spill: a fresh in-memory cache reloads from disk. -------
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("harp-profile-cache-test");
    let _ = std::fs::remove_dir_all(&dir);
    cache::set_spill_dir(Some(dir.clone()));
    cache::reset();
    let spilled = cache::offline_table(Platform::Odroid, &spec, 60.0, 17).expect("spill miss");
    assert_eq!(cache::misses(), 1);
    cache::reset(); // drop the in-memory copy, keep the spill file
    let reloaded = cache::offline_table(Platform::Odroid, &spec, 60.0, 17).expect("spill hit");
    assert_eq!(cache::hits(), 1, "reloaded from the spill directory");
    assert_eq!(cache::misses(), 0, "no recomputation after reload");
    assert_eq!(json(&spilled), json(&reloaded), "spill round-trip");
    cache::set_spill_dir(None);
    cache::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
