//! Runtime state of simulated applications and threads.

use crate::prepare::completion_after;
use crate::spec::{AppSpec, PhaseWidth};
use crate::{Affinity, SimThreadId, SimTime};
use harp_types::AppId;

/// State of one simulated thread.
#[derive(Debug, Clone)]
pub(crate) struct ThreadState {
    pub app: AppId,
    /// Dense instance slot of `app`; meaningful while the instance lives
    /// (slots are reused, finished instances' threads are never visited).
    pub slot: usize,
    /// Per-thread affinity override (set by per-thread managers like the
    /// ITD allocator); `None` means the thread inherits the app mask.
    pub affinity_override: Option<Affinity>,
    /// Remaining work of the currently executing chunk; `None` while the
    /// thread is parked (waiting at a barrier or outside its phase width).
    pub chunk: Option<f64>,
    /// Hardware thread this thread is currently assigned to.
    pub assigned_hwt: Option<usize>,
    /// Progress rate (work units/s) as of the last placement.
    pub rate: f64,
    /// Counter rate (inflated work units/s) as of the last placement.
    pub counter_rate: f64,
}

impl ThreadState {
    pub fn runnable(&self) -> bool {
        self.chunk.is_some()
    }

    /// When the current chunk completes at the current rate, seen from
    /// `now` (rounded up to whole nanoseconds, at least one).
    pub fn completion(&self, now: SimTime) -> Option<SimTime> {
        let chunk = self.chunk?;
        if self.rate <= 0.0 {
            return None;
        }
        completion_after(now, chunk / self.rate)
    }

    /// Whether the current chunk counts as done: less than about a
    /// nanosecond of work remains.
    pub fn chunk_done(&self) -> bool {
        self.chunk
            .is_some_and(|chunk| chunk <= 0.0 || (self.rate > 0.0 && chunk / self.rate < 1.5e-9))
    }
}

/// Baseline of the last perf/utility sample of one instance.
#[derive(Debug, Clone, Default)]
pub(crate) struct SampleState {
    pub last_time: SimTime,
    pub last_counted: f64,
    pub last_done: f64,
}

/// Progress state and accounts of one application instance.
#[derive(Debug, Clone)]
pub(crate) struct AppInstance {
    pub id: AppId,
    pub spec: AppSpec,
    pub name: String,
    /// Restart generation (0 for the first execution of a restarting app).
    pub instance: u32,
    pub start: SimTime,
    /// Desired team size; applied at the next parallel-region entry
    /// (iteration boundary), like a real `num_threads` adjustment.
    pub team_target: u32,
    /// Application-wide affinity mask.
    pub affinity: Affinity,
    /// All threads ever spawned for this app (index = worker rank).
    pub threads: Vec<SimThreadId>,
    pub phase_idx: usize,
    pub iter_idx: u32,
    /// Workers active in the current iteration (subset of `threads`).
    pub active: Vec<SimThreadId>,
    /// Ground-truth progress (work units completed).
    pub done_work: f64,
    /// Observable retired-instruction counter (includes per-kind inflation).
    pub counted_work: f64,
    /// RM-induced overhead waiting to be charged to the master thread
    /// (work units).
    pub pending_overhead: f64,
    /// Ground-truth dynamic energy attributed so far (joules) — used only
    /// to validate the attribution algorithm of `harp-energy` (paper §5.1).
    pub energy_j: f64,
    /// CPU seconds consumed per core kind (the scheduler statistics
    /// EnergAt-style attribution reads).
    pub cpu_time: Vec<f64>,
    pub sample: SampleState,
    /// Synchronization-contention factor of the current active team (set
    /// when the iteration starts); also each placed thread's busy fraction
    /// for the power model.
    pub contention: f64,
    /// Heterogeneous-barrier-imbalance factor (1.0 when the team sits on
    /// one core kind or balances dynamically).
    pub span_factor: f64,
}

impl AppInstance {
    /// The width the current phase wants, given the current team target.
    pub fn phase_width(&self) -> u32 {
        match self.spec.phases[self.phase_idx].width {
            PhaseWidth::Serial => 1,
            PhaseWidth::Team => self.team_target.max(1),
            PhaseWidth::Fixed(n) => n,
        }
    }

    /// Work per iteration of the current phase.
    pub fn iteration_work(&self) -> f64 {
        let p = &self.spec.phases[self.phase_idx];
        p.work / p.iterations as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppSpec, PhaseSpec};

    fn mk(spec: AppSpec) -> AppInstance {
        AppInstance {
            id: AppId(1),
            name: spec.name.clone(),
            spec,
            instance: 0,
            start: 0,
            team_target: 8,
            affinity: Affinity::all(32),
            threads: Vec::new(),
            phase_idx: 0,
            iter_idx: 0,
            active: Vec::new(),
            done_work: 0.0,
            counted_work: 0.0,
            pending_overhead: 0.0,
            energy_j: 0.0,
            cpu_time: vec![0.0; 2],
            sample: SampleState::default(),
            contention: 1.0,
            span_factor: 1.0,
        }
    }

    #[test]
    fn phase_width_follows_team_target() {
        let spec = AppSpec::builder("a", 2).build().unwrap();
        let mut inst = mk(spec);
        assert_eq!(inst.phase_width(), 1); // serial phase first
        inst.phase_idx = 1;
        assert_eq!(inst.phase_width(), 8);
        inst.team_target = 0;
        assert_eq!(inst.phase_width(), 1); // clamped
    }

    #[test]
    fn fixed_phase_ignores_team() {
        let spec = AppSpec::builder("kpn", 2)
            .phases(vec![PhaseSpec {
                work: 10.0,
                iterations: 2,
                width: PhaseWidth::Fixed(3),
            }])
            .build()
            .unwrap();
        let inst = mk(spec);
        assert_eq!(inst.phase_width(), 3);
        assert_eq!(inst.iteration_work(), 5.0);
    }
}
