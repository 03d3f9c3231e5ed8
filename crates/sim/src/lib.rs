//! A discrete-event simulator for heterogeneous multi-core machines.
//!
//! This crate is the hardware substrate of the HARP reproduction: it stands
//! in for the paper's two physical evaluation systems (Intel Raptor Lake
//! i9-13900K, Odroid XU3-E) and for the kernel facilities HARP builds on
//! (perf counters, RAPL energy counters, affinity, DVFS governors). The
//! resource managers under evaluation — CFS/EAS/ITD baselines (`harp-sched`)
//! and the HARP RM (`harp-rm`) — observe and actuate the simulated machine
//! through exactly the interfaces they would use on Linux:
//!
//! * per-application *retired work* counters, sampled with measurement noise
//!   ([`SimState::sample_app_work`]) — the perf IPS source;
//! * per-domain energy counters ([`SimState::package_energy`],
//!   [`SimState::cluster_energy`]) — the RAPL source;
//! * affinity masks and team-size control — the actuation primitives.
//!
//! # Execution model
//!
//! Applications are described by an [`AppSpec`]: a sequence of phases, each
//! either serial or a barrier-synchronized parallel loop. Within a parallel
//! phase, each *iteration*'s work is split across the team's workers (equal
//! chunks, or rate-proportional chunks for applications with dynamic load
//! balancing) and the barrier closes when the slowest worker finishes — the
//! heterogeneous-straggler effect of paper §2.2. Team-size changes (the
//! malleability libharp adds to OpenMP/TBB-style runtimes) take effect at
//! iteration boundaries, like real parallel-region entries.
//!
//! Between events all execution rates are constant, so the simulator
//! advances directly from event to event (worker completions, timers,
//! arrivals). Rates account for: core kind and frequency, SMT sibling
//! contention, shared memory bandwidth, synchronization/contention losses,
//! time-sharing of oversubscribed hardware threads, and lock-holder
//! preemption penalties.
//!
//! # Example
//!
//! ```
//! use harp_platform::HardwareDescription;
//! use harp_sim::{AppSpec, LaunchOpts, Simulation, SimConfig, NullManager};
//!
//! let hw = HardwareDescription::raptor_lake();
//! let spec = AppSpec::builder("demo", 2)
//!     .total_work(2.0e9)
//!     .build()?;
//! let mut sim = Simulation::new(hw, SimConfig::default());
//! sim.add_arrival(0, spec, LaunchOpts::all_hw_threads());
//! let report = sim.run(&mut NullManager)?;
//! assert_eq!(report.apps.len(), 1);
//! assert!(report.makespan_ns > 0);
//! # Ok::<(), harp_types::HarpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affinity;
mod app;
mod machine;
mod prepare;
mod report;
mod sim;
mod spec;

pub use affinity::Affinity;
pub use report::{AppReport, RunReport};
pub use sim::{
    LaunchOpts, Manager, MgrEvent, NullManager, RestartPolicy, SimConfig, SimState, Simulation,
    TeamPolicy, WorkCounters,
};
pub use spec::{AppSpec, AppSpecBuilder, ContentionModel, PhaseSpec, PhaseWidth};

/// Simulated time in nanoseconds since simulation start.
pub type SimTime = u64;

/// One second in simulated nanoseconds.
pub const SECOND: SimTime = 1_000_000_000;

/// One millisecond in simulated nanoseconds.
pub const MILLISECOND: SimTime = 1_000_000;

/// Identifier of a simulated thread, unique within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimThreadId(pub usize);

impl std::fmt::Display for SimThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}
