//! Property tests on the allocator's safety invariants: whatever the
//! instance, a successful allocation never exceeds capacity, never grants
//! the same core twice (outside co-allocation), and always honours the
//! selected point's resource structure.

use harp_alloc::{
    allocate, select, AllocOption, AllocRequest, SolveOutcome, SolverKind, WarmStart,
};
use harp_types::{AppId, CoreKind, ErvShape, ExtResourceVector, OpId, ResourceVector};
use proptest::prelude::*;

mod reference;

/// One request per row of `(d0, d1, d2, cost)` option tuples, demands laid
/// flat over `shape`.
fn build_requests(shape: &ErvShape, apps: Vec<Vec<(u32, u32, u32, f64)>>) -> Vec<AllocRequest> {
    apps.into_iter()
        .enumerate()
        .map(|(a, opts)| AllocRequest {
            app: AppId(a as u64 + 1),
            options: opts
                .into_iter()
                .enumerate()
                .map(|(o, (d0, d1, d2, cost))| {
                    // Guarantee nonzero demand.
                    let d2 = if d0 + d1 == 0 { d2.max(1) } else { d2 };
                    AllocOption {
                        op: OpId(o),
                        cost,
                        erv: ExtResourceVector::from_flat(shape, &[d0, d1, d2])
                            .expect("fits shape"),
                    }
                })
                .collect(),
        })
        .collect()
}

fn arb_requests() -> impl Strategy<Value = Vec<AllocRequest>> {
    let shape = harp_platform::presets::raptor_lake().erv_shape();
    proptest::collection::vec(
        proptest::collection::vec((0u32..3, 0u32..5, 0u32..9, 0.1f64..100.0), 1..6),
        1..6,
    )
    .prop_map(move |apps| build_requests(&shape, apps))
}

/// Mid-size instances (40–140 apps over three single-lane kinds) with a
/// congested capacity — one core per kind per app, about half the
/// population's worst-case demand — so the subgradient schedule, repair
/// and upgrade phases all run rather than the trivial per-app minimum.
fn arb_mid_instance() -> impl Strategy<Value = (Vec<AllocRequest>, ResourceVector)> {
    let shape = ErvShape::new(vec![1; 3]);
    proptest::collection::vec(
        proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, 0.1f64..100.0), 1..5),
        40..140,
    )
    .prop_map(move |apps| {
        let capacity = ResourceVector::new(vec![apps.len() as u32; 3]);
        (build_requests(&shape, apps), capacity)
    })
}

/// RM-style tick sequence: identical repeat (memo path), small cost drift
/// (certify path), a departure, the departed app returning, and a fresh
/// arrival.
fn tick_trace(reqs: &[AllocRequest]) -> Vec<Vec<AllocRequest>> {
    let mut ticks = vec![reqs.to_vec(), reqs.to_vec()];
    let mut drifted = reqs.to_vec();
    for o in &mut drifted[0].options {
        o.cost *= 1.0 + 1e-3;
    }
    ticks.push(drifted.clone());
    if drifted.len() > 1 {
        let mut departed = drifted.clone();
        departed.pop();
        ticks.push(departed);
    }
    ticks.push(drifted.clone());
    let mut newcomer = drifted[0].clone();
    newcomer.app = AppId(reqs.len() as u64 + 1);
    drifted.push(newcomer);
    ticks.push(drifted);
    ticks
}

/// Without warm state the engine replays the reference solver's exact
/// subgradient trajectory (same step schedule, tie-breaking and update
/// order); the duality-gap exit only fires when the incumbent is certified
/// within 1e-9·scale of optimal, so the cold-start cost matches the
/// reference to that tolerance.
fn check_cold_matches_reference(
    reqs: &[AllocRequest],
    capacity: &ResourceVector,
) -> Result<(), TestCaseError> {
    let engine = select(reqs, capacity, SolverKind::Lagrangian, None);
    let refr = reference::select(reqs, capacity, SolverKind::Lagrangian);
    match (engine, refr) {
        (Ok(e), Ok(r)) => {
            prop_assert!(reference::is_feasible(reqs, &e.picks, capacity));
            let r_cost = reference::selection_cost(reqs, &r);
            let tol = 1e-9 * r_cost.abs().max(100.0);
            prop_assert!(
                (e.cost - r_cost).abs() <= tol,
                "cold engine {} vs reference {}",
                e.cost,
                r_cost
            );
        }
        (Err(_), Err(_)) => {}
        (e, r) => prop_assert!(false, "solvability diverged: {e:?} vs {r:?}"),
    }
    Ok(())
}

/// What one warm tick produced, down to the float bits (`None` = error).
type TickKey = Option<(Vec<usize>, u64, u64, SolveOutcome)>;

/// A warm sequence's per-tick results and its final `(memo hits,
/// certified exits, full solves)` counters.
type WarmRun = (Vec<TickKey>, (u64, u64, u64));

/// Threads one fresh [`WarmStart`] through `ticks` and requires every warm
/// answer to be feasible and no costlier than a cold solve of the same
/// instance. A certified warm answer is within 1e-9·scale of optimal, so
/// for it the bound is exact; an uncertified one climbs from a different
/// incumbent than the cold solve and may exceed it by `uncertified_slack`
/// (relative). Returns each tick's result and the final outcome counters.
fn check_warm_tracks_cold(
    ticks: &[Vec<AllocRequest>],
    capacity: &ResourceVector,
    uncertified_slack: f64,
) -> Result<WarmRun, TestCaseError> {
    let mut warm = WarmStart::new();
    let mut keys = Vec::with_capacity(ticks.len());
    for (t, tick_reqs) in ticks.iter().enumerate() {
        let cold = select(tick_reqs, capacity, SolverKind::Lagrangian, None);
        let w = select(tick_reqs, capacity, SolverKind::Lagrangian, Some(&mut warm));
        if let Ok(w) = &w {
            // Warm state may rescue instances the cold solver gives up
            // on; the answer must still be feasible.
            prop_assert!(
                reference::is_feasible(tick_reqs, &w.picks, capacity),
                "tick {t}: warm selection infeasible"
            );
            if let Ok(c) = &cold {
                let slack = match w.outcome {
                    SolveOutcome::Certified => 0.0,
                    _ => uncertified_slack * c.cost.abs(),
                };
                prop_assert!(
                    w.cost <= c.cost + 1e-9 * c.cost.abs().max(1.0) + slack,
                    "tick {t}: warm {} ({:?}) vs cold {}",
                    w.cost,
                    w.outcome,
                    c.cost
                );
            }
        }
        keys.push(
            w.ok()
                .map(|w| (w.picks, w.cost.to_bits(), w.work.to_bits(), w.outcome)),
        );
    }
    let counters = (warm.memo_hits(), warm.certified_exits(), warm.full_solves());
    Ok((keys, counters))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn allocations_are_safe(reqs in arb_requests(), solver_pick in 0usize..2) {
        let hw = harp_platform::presets::raptor_lake();
        let solver = [SolverKind::Lagrangian, SolverKind::Greedy][solver_pick];
        let Ok(alloc) = allocate(&reqs, &hw, solver) else {
            // Errors are allowed (e.g. an app whose every option exceeds the
            // machine); panics are not.
            return Ok(());
        };
        // Every request received a choice.
        prop_assert_eq!(alloc.choices.len(), reqs.len());
        // The chosen op belongs to the request and matches its vector.
        for r in &reqs {
            let c = &alloc.choices[&r.app];
            let opt = r.options.iter().find(|o| o.op == c.op)
                .expect("chosen op exists");
            prop_assert_eq!(&opt.erv, &c.erv);
            // Granted cores match the per-kind demand exactly.
            for kind in 0..hw.num_kinds() {
                let granted = c.cores.iter()
                    .filter(|core| hw.kind_of_core(**core).unwrap() == CoreKind(kind))
                    .count() as u32;
                prop_assert_eq!(granted, c.erv.cores_of_kind(kind));
            }
            // Parallelism equals the granted hardware threads.
            prop_assert_eq!(c.parallelism() as usize, c.hw_threads.len());
        }
        if !alloc.co_allocated {
            // Disjoint cores and within capacity.
            let mut all: Vec<_> = alloc.choices.values()
                .flat_map(|c| c.cores.clone())
                .collect();
            let n = all.len();
            all.sort();
            all.dedup();
            prop_assert_eq!(all.len(), n, "core granted twice");
            let capacity = hw.capacity();
            for kind in 0..hw.num_kinds() {
                let used: u32 = alloc.choices.values()
                    .map(|c| c.erv.cores_of_kind(kind))
                    .sum();
                prop_assert!(used <= capacity.counts()[kind]);
            }
        }
    }

    #[test]
    fn lagrangian_never_worse_than_greedy(reqs in arb_requests()) {
        // The production solver keeps the better of its subgradient
        // solution and the greedy climb, so it dominates by construction.
        let hw = harp_platform::presets::raptor_lake();
        let (Ok(l), Ok(g)) = (
            allocate(&reqs, &hw, SolverKind::Lagrangian),
            allocate(&reqs, &hw, SolverKind::Greedy),
        ) else { return Ok(()); };
        if !l.co_allocated && !g.co_allocated {
            prop_assert!(l.total_cost <= g.total_cost + 1e-6,
                "lagrangian {} vs greedy {}", l.total_cost, g.total_cost);
        }
    }

    #[test]
    fn dominance_pruning_preserves_exact_optimum(reqs in arb_requests()) {
        // The engine's Exact solver searches the dominance-pruned option
        // space; the reference searches the full space. A dominated option
        // can always be replaced by its dominator without raising cost or
        // demand, so the optima must coincide.
        let hw = harp_platform::presets::raptor_lake();
        let capacity = hw.capacity();
        let engine = select(&reqs, &capacity, SolverKind::Exact, None);
        let refr = reference::select(&reqs, &capacity, SolverKind::Exact);
        match (engine, refr) {
            (Ok(e), Ok(r)) => {
                prop_assert!(reference::is_feasible(&reqs, &e.picks, &capacity));
                let r_cost = reference::selection_cost(&reqs, &r);
                prop_assert!(
                    (e.cost - r_cost).abs() <= 1e-9 * r_cost.abs().max(1.0),
                    "pruned optimum {} vs unpruned {}", e.cost, r_cost
                );
            }
            (Err(_), Err(_)) => {}
            (e, r) => prop_assert!(false, "solvability diverged: {e:?} vs {r:?}"),
        }
    }

    #[test]
    fn cold_engine_is_cost_equal_to_reference_lagrangian(reqs in arb_requests()) {
        let capacity = harp_platform::presets::raptor_lake().capacity();
        check_cold_matches_reference(&reqs, &capacity)?;
    }

    #[test]
    fn warm_solves_track_cold_across_arrivals_and_departures(reqs in arb_requests()) {
        let capacity = harp_platform::presets::raptor_lake().capacity();
        check_warm_tracks_cold(&tick_trace(&reqs), &capacity, 0.0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mid_size_tick_sequences_track_reference_and_repeat_exactly(
        (reqs, capacity) in arb_mid_instance()
    ) {
        // The same checks at 40–140 apps, plus run-to-run determinism: a
        // second identical warm sequence yields the same picks, cost and
        // work bits, outcomes and outcome counters. At this size about one
        // warm tick in twenty finishes uncertified above its cold solve
        // (worst 2.1 % over 2 400 measured ticks), hence the 5 % slack.
        check_cold_matches_reference(&reqs, &capacity)?;
        let ticks = tick_trace(&reqs);
        let first = check_warm_tracks_cold(&ticks, &capacity, 0.05)?;
        let second = check_warm_tracks_cold(&ticks, &capacity, 0.05)?;
        prop_assert_eq!(first, second, "second identical run diverged");
    }
}

/// The RM tick workload the warm engine was sized on: a congested
/// `apps × options × kinds` instance (cheaper points demand more cores,
/// so the per-app minima oversubscribe the `2·apps`-per-kind capacity)
/// held for 32 ticks across four phases — initial, one app's costs
/// drifted, one app departed, the drifted population again.
fn congested_tick_schedule(
    apps: usize,
    options: usize,
    kinds: usize,
) -> (Vec<Vec<AllocRequest>>, ResourceVector) {
    let shape = ErvShape::new(vec![1; kinds]);
    let reqs: Vec<AllocRequest> = (0..apps)
        .map(|a| AllocRequest {
            app: AppId(a as u64 + 1),
            options: (0..options)
                .map(|o| {
                    let mut flat = vec![0u32; kinds];
                    flat[a % kinds] = (options - o) as u32;
                    flat[(a + o) % kinds] += ((a * 5 + o * 3) % 2) as u32;
                    AllocOption {
                        op: OpId(o),
                        cost: 1.0 + (o * 5) as f64 + ((a * 7 + o * 13) % 9) as f64 * 0.1,
                        erv: ExtResourceVector::from_flat(&shape, &flat).expect("fits shape"),
                    }
                })
                .collect(),
        })
        .collect();
    let mut drifted = reqs.clone();
    for o in &mut drifted[0].options {
        o.cost *= 1.0 + 5e-4;
    }
    let mut departed = drifted.clone();
    departed.pop();
    let phases = [&reqs, &drifted, &departed, &drifted];
    let ticks = (0..32).map(|t| phases[t * 4 / 32].clone()).collect();
    (ticks, ResourceVector::new(vec![(apps * 2) as u32; kinds]))
}

/// The warm engine's reason to exist, in counted work rather than
/// wall-clock: over an RM-style tick schedule a threaded [`WarmStart`]
/// does at most a third of the solve work of cold-solving every tick
/// (measured 4.97 vs 32.0 schedule units: 28 memo hits and 4 full
/// solves), every tick lands in exactly one outcome counter, and a second
/// run reproduces the first to the bit.
#[test]
fn warm_ticks_cost_a_third_of_cold_in_counted_work() {
    for (apps, options, kinds) in [(16, 8, 3), (32, 16, 3)] {
        let (ticks, capacity) = congested_tick_schedule(apps, options, kinds);
        let cold: f64 = ticks
            .iter()
            .map(|t| {
                select(t, &capacity, SolverKind::Lagrangian, None)
                    .expect("congested instance is feasible")
                    .work
            })
            .sum();
        let first = check_warm_tracks_cold(&ticks, &capacity, 0.05).expect("warm tracks cold");
        let (keys, (memo, certified, full)) = &first;
        let warm: f64 = keys
            .iter()
            .map(|k| f64::from_bits(k.as_ref().expect("warm tick solved").2))
            .sum();
        assert!(
            cold >= 3.0 * warm,
            "{apps}x{options}x{kinds}: cold work {cold:.3} < 3 x warm work {warm:.3}"
        );
        assert_eq!(memo + certified + full, 32, "one outcome per tick");
        let second = check_warm_tracks_cold(&ticks, &capacity, 0.05).expect("warm tracks cold");
        assert_eq!(first, second, "second identical run diverged");
    }
}
