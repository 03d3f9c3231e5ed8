//! Counted work of the event loop, not wall time: one simulator event
//! costs a constant number of passes over the *live* threads — however
//! many instances ran before — a steady-state event never touches the
//! allocator, and placement searches only for threads that did not run
//! under the same masks before.
//!
//! The allocation counter is a thread-local tally fed by a wrapper global
//! allocator, so concurrent test threads cannot pollute the measurement.

use harp_platform::presets;
use harp_sim::{
    AppSpec, LaunchOpts, Manager, MgrEvent, NullManager, PhaseWidth, SimConfig, SimState,
    Simulation, SECOND,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping around it does not
// allocate (Cell<u64> in a thread-local).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Passes over the live threads one event may make: placement 2 (runnable
/// set with the per-app lists; placing, which also sums each hardware
/// thread's busy fraction), rates 3 (per-instance straggler factors; raw
/// rate with bandwidth demand; final rate with the earliest completion),
/// next-event rescan 1 (only after a step that did not re-place, or a
/// dynamic chunk re-split), integration 2 (progress with completion
/// detection; attribution). Power walks cores, not threads.
const PASSES_PER_EVENT: u64 = 8;

/// Samples the engine's work counters at every instance exit.
#[derive(Default)]
struct ExitProbe {
    /// `(events, thread_visits, live_threads)` per exit.
    samples: Vec<(u64, u64, u64)>,
}

impl Manager for ExitProbe {
    fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
        if let MgrEvent::AppExited { .. } = ev {
            let work = st.work_counters();
            let live = st
                .app_ids()
                .iter()
                .map(|&a| st.threads_of_app(a).len() as u64)
                .sum();
            self.samples.push((work.events, work.thread_visits, live));
        }
    }
}

#[test]
fn thread_visits_per_event_follow_live_threads_not_history() {
    const TEAM: u64 = 4;
    let spec = AppSpec::builder("loop", 2)
        .total_work(2.0e7)
        .iterations(4)
        .build()
        .unwrap();
    let horizon = 20 * SECOND;
    let mut sim = Simulation::new(
        presets::tiny_test(),
        SimConfig {
            horizon_ns: Some(horizon),
            ..SimConfig::default()
        },
    );
    sim.add_arrival(
        0,
        spec,
        LaunchOpts::fixed_team(TEAM as u32).restart_until(horizon),
    );
    let mut probe = ExitProbe::default();
    let report = sim.run(&mut probe).unwrap();
    assert!(
        report.apps.len() > 200,
        "expected 200+ restarts, got {}",
        report.apps.len()
    );
    // Between any two exits one instance is live, however many ran before.
    for (i, w) in probe.samples.windows(2).enumerate() {
        let ((e0, v0, _), (e1, v1, live)) = (w[0], w[1]);
        assert!(live <= TEAM, "restart {i}: {live} live threads");
        assert!(
            v1 - v0 <= PASSES_PER_EVENT * TEAM * (e1 - e0),
            "restart {i}: {} thread visits over {} events with {TEAM} live threads",
            v1 - v0,
            e1 - e0
        );
    }
    // And the cost of a late instance is the cost of an early one.
    let cost = |i: usize| probe.samples[i + 1].1 - probe.samples[i].1;
    assert_eq!(cost(1), cost(probe.samples.len() - 2));
}

/// Allocator calls and simulator events of one `NullManager` run of a
/// 4-thread team over `iterations` barrier iterations.
fn run_cost(iterations: u32) -> (u64, u64) {
    let spec = AppSpec::builder("steady", 2)
        .total_work(1.0e6 * f64::from(iterations))
        .iterations(iterations)
        .build()
        .unwrap();
    let mut sim = Simulation::new(presets::tiny_test(), SimConfig::default());
    sim.add_arrival(0, spec, LaunchOpts::fixed_team(4));
    let before = ALLOCS.with(|c| c.get());
    let report = sim.run(&mut NullManager).unwrap();
    let allocs = ALLOCS.with(|c| c.get()) - before;
    assert_eq!(report.apps.len(), 1);
    (allocs, report.events)
}

#[test]
fn steady_state_events_do_not_allocate() {
    // Same run, 10 000+ more steady-state events: set-up and report cost
    // the same allocations, so any difference is per-event traffic.
    let (short_allocs, short_events) = run_cost(100);
    let (long_allocs, long_events) = run_cost(6_000);
    assert!(
        long_events >= short_events + 10_000,
        "{short_events} vs {long_events} events"
    );
    assert_eq!(
        long_allocs,
        short_allocs,
        "{} extra events made {} extra allocator calls",
        long_events - short_events,
        long_allocs.abs_diff(short_allocs)
    );
}

#[test]
fn cfs_placement_searches_only_newly_runnable_threads() {
    // Three unmanaged 32-worker teams on the 32 hardware threads of the
    // Intel machine: every worker may run anywhere, and every event is a
    // chunk completion that re-places all of them.
    let hw = presets::raptor_lake();
    let n_threads = hw.total_hw_threads() as u64;
    let mut sim = Simulation::new(hw, SimConfig::default());
    let mut made_runnable = 0;
    for (name, iterations, e_core, mem) in
        [("a", 12, 0.6, 0.1), ("b", 9, 0.8, 0.4), ("c", 15, 0.7, 0.0)]
    {
        let spec = AppSpec::builder(name, 2)
            .total_work(2.0e9)
            .iterations(iterations)
            .kind_efficiency(vec![1.0, e_core])
            .mem_intensity(mem)
            .build()
            .unwrap();
        // Every iteration start makes the phase's whole width runnable: the
        // serial phase's master, then the team of one worker per thread.
        for phase in &spec.phases {
            let width = if phase.width == PhaseWidth::Serial {
                1
            } else {
                n_threads
            };
            made_runnable += u64::from(phase.iterations) * width;
        }
        sim.add_arrival(0, spec, LaunchOpts::all_hw_threads());
    }
    let report = sim.run(&mut NullManager).unwrap();
    assert_eq!(report.apps.len(), 3);
    let work = sim.state().work_counters();
    assert!(
        work.searches <= made_runnable,
        "{} searches for {made_runnable} threads made runnable by iteration starts",
        work.searches
    );
    // A placement from scratch would search every one of these positions.
    assert!(
        work.replayed > 10 * work.searches,
        "{} positions replayed, {} searched over {} events",
        work.replayed,
        work.searches,
        work.events
    );
}
