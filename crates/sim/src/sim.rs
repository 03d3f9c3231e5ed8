//! The event-driven simulation engine.

use crate::app::{AppInstance, SampleState, ThreadState};
use crate::machine::{EnergyAccount, Share, Topology};
use crate::prepare::Placement;
use crate::report::{AppReport, RunReport};
use crate::spec::AppSpec;
use crate::{Affinity, SimThreadId, SimTime};
use harp_platform::{FaultState, Governor, HardwareDescription};
use harp_types::{AppId, FaultEvent, HarpError, PriorityClass, Result};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for measurement noise (and any other stochastic behaviour).
    pub seed: u64,
    /// Frequency-scaling governor (paper §6.1/§6.3.3).
    pub governor: Governor,
    /// Relative noise applied to sampled perf counters (σ of a zero-mean
    /// distribution; the paper smooths such noise with an EMA, §5.1).
    pub sample_noise: f64,
    /// Optional hard stop; the run ends at this simulated time even if
    /// applications are still active.
    pub horizon_ns: Option<SimTime>,
    /// Upper bound on team sizes.
    pub max_team: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xDEADBEEF,
            governor: Governor::Schedutil,
            sample_noise: 0.03,
            horizon_ns: None,
            max_team: 128,
        }
    }
}

/// Initial team-size policy of a launched application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeamPolicy {
    /// Spawn as many workers as the machine has hardware threads — the
    /// OpenMP/TBB default an unmanaged run uses.
    AllHwThreads,
    /// A fixed initial team size.
    Fixed(u32),
}

/// Restart behaviour after an instance completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Run once.
    None,
    /// Restart immediately after each completion until the given simulated
    /// time (used by the learning-phase experiments, Fig. 8).
    Until(SimTime),
}

/// Launch options of one application arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchOpts {
    /// Initial team size.
    pub team: TeamPolicy,
    /// Restart behaviour.
    pub restart: RestartPolicy,
}

impl LaunchOpts {
    /// The unmanaged default: all hardware threads, run once.
    pub fn all_hw_threads() -> Self {
        LaunchOpts {
            team: TeamPolicy::AllHwThreads,
            restart: RestartPolicy::None,
        }
    }

    /// Fixed initial team size, run once.
    pub fn fixed_team(n: u32) -> Self {
        LaunchOpts {
            team: TeamPolicy::Fixed(n),
            restart: RestartPolicy::None,
        }
    }

    /// Adds a restart-until policy.
    pub fn restart_until(mut self, t: SimTime) -> Self {
        self.restart = RestartPolicy::Until(t);
        self
    }
}

/// Events delivered to the [`Manager`].
#[derive(Debug, Clone, PartialEq)]
pub enum MgrEvent {
    /// An application instance registered/started.
    AppStarted {
        /// Session id.
        app: AppId,
        /// Application name.
        name: String,
    },
    /// An application instance completed.
    AppExited {
        /// Session id.
        app: AppId,
    },
    /// A timer set via [`SimState::set_timer`] fired.
    Timer {
        /// The id passed at `set_timer`.
        id: u64,
    },
    /// A trace schedule changed a running application's priority class.
    PriorityChanged {
        /// Session id.
        app: AppId,
        /// The new class.
        class: PriorityClass,
    },
    /// A trace schedule shifted the machine-wide load phase: all progress
    /// rates are scaled by `permille / 1000` until the next shift.
    LoadShifted {
        /// New rate scale in permille (1000 = nominal speed).
        permille: u32,
    },
    /// A trace schedule degraded (or un-degraded) the hardware: a core
    /// hotplug, a thermal capacity cap, or a power-sensor dropout. The
    /// machine model already reflects the event when the manager sees it.
    Fault(FaultEvent),
}

/// A resource manager driving the simulated machine — the role played by
/// CFS/EAS/ITD baselines and by the HARP RM.
pub trait Manager {
    /// Called for every manager-visible event. The manager may inspect and
    /// actuate the machine through the [`SimState`] API.
    fn on_event(&mut self, st: &mut SimState, ev: MgrEvent);
}

/// A manager that never intervenes: applications run wherever the default
/// placement puts them (the CFS baseline without any hinting).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullManager;

impl Manager for NullManager {
    fn on_event(&mut self, _st: &mut SimState, _ev: MgrEvent) {}
}

#[derive(Debug, Clone)]
struct ArrivalRec {
    at: SimTime,
    spec: AppSpec,
    opts: LaunchOpts,
    /// Trace key for later departure/priority events (None for plain
    /// `add_arrival` scenarios).
    key: Option<u64>,
}

/// A non-arrival trace event consumed by the discrete-event loop.
#[derive(Debug, Clone)]
enum ScheduleOp {
    /// Force-exit the instance launched under `key` (app churn: the user
    /// closes the application before it finishes its work).
    Depart { key: u64 },
    /// Change the priority class of the instance launched under `key`.
    SetPriority { key: u64, class: PriorityClass },
    /// Scale all progress rates to `permille / 1000` of nominal (diurnal
    /// load-phase shifts: the same services demand less at night).
    LoadShift { permille: u32 },
    /// Degrade (or recover) the machine: hotplug, thermal cap, sensor
    /// dropout (trace format v2 fault directives).
    Fault { ev: FaultEvent },
}

#[derive(Debug, Clone)]
struct ScheduleRec {
    at: SimTime,
    op: ScheduleOp,
}

/// `slot_of_app` entry of an instance that finished or departed.
const NO_SLOT: usize = usize::MAX;

/// Counted work of the engine, for tests that bound it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Events processed.
    pub events: u64,
    /// Thread entries walked by the event-loop passes (placement, rates,
    /// next-event rescan, integration). Visits per event are bounded by a
    /// constant number of passes over the live threads, however many
    /// instances ran before.
    pub thread_visits: u64,
    /// Round-robin positions placed by a bucket search.
    pub searches: u64,
    /// Round-robin positions replayed from earlier placements.
    pub replayed: u64,
}

/// The observable and actuatable state of the simulated machine — the
/// interface managers program against.
///
/// One event costs O(live threads): instances sit in dense slots reached
/// by index, the per-event loops walk only the runnable threads of live
/// instances, and everything that changes only with placement (rates,
/// power, attribution shares) is computed once per placement.
pub struct SimState {
    pub(crate) topo: Topology,
    pub(crate) config: SimConfig,
    pub(crate) time: SimTime,
    /// Instance slots; a dead instance's slot is reused by the next spawn.
    pub(crate) insts: Vec<AppInstance>,
    free_slots: Vec<usize>,
    /// Slot per session id (`AppId(n)` at index `n - 1`; ids are handed
    /// out monotonically from 1), [`NO_SLOT`] once the instance is gone.
    slot_of_app: Vec<usize>,
    /// Every thread ever spawned (thread ids are never reused).
    pub(crate) threads: Vec<ThreadState>,
    /// Threads of live instances, ascending.
    pub(crate) live: Vec<SimThreadId>,
    /// The runnable subset of `live` as of the last placement, ascending —
    /// what the per-event loops walk.
    pub(crate) running: Vec<SimThreadId>,
    /// Per hardware thread: runnable threads assigned (time-shared).
    pub(crate) queues: Vec<Vec<SimThreadId>>,
    /// Per physical core: hardware threads with a non-empty queue.
    pub(crate) core_busy: Vec<usize>,
    /// Per hardware thread: what each thread in its queue is attributed.
    pub(crate) shares: Vec<Share>,
    /// Per cluster: current frequency (MHz).
    pub(crate) freqs: Vec<f64>,
    pub(crate) energy: EnergyAccount,
    timers: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Arrivals in insertion order (the restart policy looks names up in
    /// this order); `arrival_order[arrival_cursor..]` are the pending ones
    /// by time.
    arrivals: Vec<ArrivalRec>,
    arrival_order: Vec<usize>,
    arrival_cursor: usize,
    /// Non-arrival trace events (departures, priority changes, load
    /// shifts, faults); `schedule[schedule_cursor..]` are pending, by time.
    schedule: Vec<ScheduleRec>,
    schedule_cursor: usize,
    /// Trace key → live session id for keyed arrivals.
    trace_keys: HashMap<u64, AppId>,
    /// Machine-wide progress-rate scale set by load-phase shifts (1.0 =
    /// nominal; multiplying by 1.0 is the identity, so unshifted runs are
    /// bit-identical to the pre-trace engine).
    pub(crate) rate_scale: f64,
    /// Degraded-hardware state driven by trace fault directives: offline
    /// cores run (and draw) nothing, thermally capped clusters scale both
    /// the delivered rate and the modeled power (DESIGN.md §15). A default
    /// state multiplies by 1.0 everywhere, keeping fault-free runs
    /// bit-identical to the pre-fault engine.
    pub(crate) faults: FaultState,
    /// Online hardware threads as a mask, kept in step with `faults`.
    pub(crate) online: u128,
    next_app_id: u64,
    /// Placement inputs changed since the last `prepare` (runnable set,
    /// affinity, team, load scale, faults): placement, rates and power are
    /// recomputed; otherwise an event reuses them.
    pub(crate) dirty: bool,
    /// Earliest chunk completion at the current rates, as the last rate
    /// pass found it; valid while `completion_fresh` (no progress was
    /// integrated and no chunk re-split since).
    pub(crate) completion: Option<SimTime>,
    pub(crate) completion_fresh: bool,
    pub(crate) needs_chunks: Vec<AppId>,
    rng: ChaCha8Rng,
    completed: Vec<AppReport>,
    notifications: VecDeque<MgrEvent>,
    pub(crate) work: WorkCounters,
    /// Sorted cache of live app ids; app ids are monotonically increasing,
    /// so spawns append and exits remove — no per-query clone-and-sort.
    pub(crate) sorted_app_ids: Vec<AppId>,
    /// Recorded placements (replayed by the next) and placement scratch.
    pub(crate) placement: Placement,
    /// Threads whose chunk the last `advance_to` found done, ascending
    /// (reused across events).
    finished: Vec<SimThreadId>,
}

impl std::fmt::Debug for SimState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimState")
            .field("time", &self.time)
            .field("apps", &self.sorted_app_ids.len())
            .field("threads", &self.threads.len())
            .field("events", &self.work.events)
            .finish()
    }
}

impl SimState {
    pub(crate) fn new(hw: HardwareDescription, config: SimConfig) -> Self {
        let faults = FaultState::new(&hw);
        let topo = Topology::new(hw);
        let n_threads = topo.n_threads;
        let num_kinds = topo.hw.num_kinds();
        let freqs = topo
            .hw
            .clusters
            .iter()
            .map(|c| config.governor.frequency(c, 0.0))
            .collect();
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut st = SimState {
            config,
            time: 0,
            insts: Vec::new(),
            free_slots: Vec::new(),
            slot_of_app: Vec::new(),
            threads: Vec::new(),
            live: Vec::new(),
            running: Vec::new(),
            queues: vec![Vec::new(); n_threads],
            core_busy: vec![0; topo.n_cores],
            shares: vec![Share::default(); n_threads],
            freqs,
            energy: EnergyAccount::new(num_kinds),
            timers: BinaryHeap::new(),
            arrivals: Vec::new(),
            arrival_order: Vec::new(),
            arrival_cursor: 0,
            schedule: Vec::new(),
            schedule_cursor: 0,
            trace_keys: HashMap::new(),
            rate_scale: 1.0,
            faults,
            online: 0,
            next_app_id: 1,
            // The first `prepare` computes the idle machine's draw.
            dirty: true,
            completion: None,
            completion_fresh: false,
            needs_chunks: Vec::new(),
            rng,
            completed: Vec::new(),
            notifications: VecDeque::new(),
            work: WorkCounters::default(),
            sorted_app_ids: Vec::new(),
            placement: Placement::default(),
            finished: Vec::new(),
            topo,
        };
        st.online = st.online_hwts();
        st
    }

    /// Slot of a live session.
    pub(crate) fn slot_of(&self, app: AppId) -> Option<usize> {
        let idx = usize::try_from(app.0.checked_sub(1)?).ok()?;
        self.slot_of_app.get(idx).copied().filter(|&s| s != NO_SLOT)
    }

    fn inst(&self, app: AppId) -> Option<&AppInstance> {
        self.slot_of(app).map(|s| &self.insts[s])
    }

    fn live_slot(&self, app: AppId) -> Result<usize> {
        self.slot_of(app)
            .ok_or_else(|| HarpError::not_found(format!("{app}")))
    }

    fn inst_mut(&mut self, app: AppId) -> Result<&mut AppInstance> {
        let slot = self.live_slot(app)?;
        Ok(&mut self.insts[slot])
    }

    // ------------------------------------------------------------------
    // Observables (the "kernel interfaces" managers read)
    // ------------------------------------------------------------------

    /// Current simulated time in nanoseconds.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The machine's hardware description.
    pub fn hw(&self) -> &HardwareDescription {
        &self.topo.hw
    }

    /// Ids of all currently running applications, sorted ascending. This is
    /// a cached view maintained on app start/exit — no allocation per call.
    /// Sampling, overhead charging and actuation leave it untouched, so a
    /// caller that mutates the state per app can walk it by index.
    pub fn app_ids(&self) -> &[AppId] {
        &self.sorted_app_ids
    }

    /// Name of a running application.
    pub fn app_name(&self, app: AppId) -> Option<&str> {
        self.inst(app).map(|a| a.name.as_str())
    }

    /// Behaviour spec of a running application. Managers that classify
    /// threads by instruction mix (the ITD baseline) read the observable
    /// mix characteristics from here.
    pub fn app_spec(&self, app: AppId) -> Option<&AppSpec> {
        self.inst(app).map(|a| &a.spec)
    }

    /// Current team size (parallelization degree) of an application.
    pub fn team_size(&self, app: AppId) -> Option<u32> {
        self.inst(app).map(|a| a.team_target)
    }

    /// Current application-wide affinity mask.
    pub fn app_affinity(&self, app: AppId) -> Option<Affinity> {
        self.inst(app).map(|a| a.affinity)
    }

    /// Thread ids of an application (worker rank order). Returns a borrowed
    /// view into the instance — no per-query clone; unknown apps yield an
    /// empty slice.
    pub fn threads_of_app(&self, app: AppId) -> &[SimThreadId] {
        self.inst(app).map(|a| a.threads.as_slice()).unwrap_or(&[])
    }

    /// Samples the application's retired-instruction counter since the last
    /// sample: returns `(work_units, elapsed_ns)` — an IPS measurement with
    /// perf-style noise. Returns `None` for unknown apps or when no time
    /// elapsed.
    pub fn sample_app_work(&mut self, app: AppId) -> Option<(f64, SimTime)> {
        let slot = self.slot_of(app)?;
        let inst = &mut self.insts[slot];
        let dt = self.time.checked_sub(inst.sample.last_time)?;
        if dt == 0 {
            return None;
        }
        let dw = (inst.counted_work - inst.sample.last_counted).max(0.0);
        inst.sample.last_time = self.time;
        inst.sample.last_counted = inst.counted_work;
        let noise = self.config.sample_noise;
        let factor = 1.0 + (self.rng.random::<f64>() * 2.0 - 1.0) * noise * 1.732;
        Some((dw * factor.max(0.0), dt))
    }

    /// Samples the application's *own* utility metric (true progress) since
    /// the last utility sample — what libharp reports for applications with
    /// `provides_utility`. Less noisy than perf sampling.
    pub fn sample_app_utility(&mut self, app: AppId) -> Option<(f64, SimTime)> {
        let slot = self.slot_of(app)?;
        let inst = &mut self.insts[slot];
        let dt = self.time.checked_sub(inst.sample.last_time)?;
        if dt == 0 {
            return None;
        }
        let dw = (inst.done_work - inst.sample.last_done).max(0.0);
        inst.sample.last_done = inst.done_work;
        inst.sample.last_time = self.time;
        inst.sample.last_counted = inst.counted_work;
        Some((dw, dt))
    }

    /// Cumulative energy (joules) of one cluster — the RAPL-style counter.
    pub fn cluster_energy(&self, kind: usize) -> f64 {
        self.energy.cluster_energy.get(kind).copied().unwrap_or(0.0)
    }

    /// Cumulative package energy (joules).
    pub fn package_energy(&self) -> f64 {
        self.energy.package_energy
    }

    /// Per-kind CPU seconds a running application has consumed — the
    /// scheduler accounting the EnergAt-style attribution reads (paper
    /// §5.1). A borrowed view of the instance's account, index = core
    /// kind; empty for sessions that are not running.
    pub fn app_cpu_time(&self, app: AppId) -> &[f64] {
        self.inst(app).map_or(&[], |a| &a.cpu_time)
    }

    /// Ground-truth dynamic energy attributed to an application, running
    /// or completed — used only to *validate* attribution, never by
    /// managers.
    pub fn true_app_energy(&self, app: AppId) -> f64 {
        match self.inst(app) {
            Some(inst) => inst.energy_j,
            None => self
                .completed
                .iter()
                .rev()
                .find(|r| r.app_id == app)
                .map_or(0.0, |r| r.energy_true_j),
        }
    }

    /// Counted work of the engine so far (see [`WorkCounters`]).
    #[doc(hidden)]
    pub fn work_counters(&self) -> WorkCounters {
        self.work
    }

    // ------------------------------------------------------------------
    // Actuation (the "kernel interfaces" managers write)
    // ------------------------------------------------------------------

    /// Sets the application-wide affinity mask (all threads).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for unknown apps and
    /// [`HarpError::Other`] for an empty mask.
    pub fn set_app_affinity(&mut self, app: AppId, affinity: Affinity) -> Result<()> {
        if affinity.is_empty() {
            return Err(HarpError::other("affinity mask must not be empty"));
        }
        let slot = self.live_slot(app)?;
        let inst = &mut self.insts[slot];
        inst.affinity = affinity;
        for &t in &inst.threads {
            self.threads[t.0].affinity_override = None;
        }
        self.dirty = true;
        Ok(())
    }

    /// Sets a per-thread affinity mask (thread-to-core pinning managers).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for unknown threads and
    /// [`HarpError::Other`] for an empty mask.
    pub fn set_thread_affinity(&mut self, thread: SimThreadId, affinity: Affinity) -> Result<()> {
        if affinity.is_empty() {
            return Err(HarpError::other("affinity mask must not be empty"));
        }
        let t = self
            .threads
            .get_mut(thread.0)
            .ok_or_else(|| HarpError::not_found(format!("{thread}")))?;
        t.affinity_override = Some(affinity);
        self.dirty = true;
        Ok(())
    }

    /// Adjusts the application's parallelization degree; takes effect at the
    /// next parallel-region entry (iteration boundary), exactly like the
    /// libharp team-size hook.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for unknown apps.
    pub fn set_team_size(&mut self, app: AppId, team: u32) -> Result<()> {
        let max = self.config.max_team;
        self.inst_mut(app)?.team_target = team.clamp(1, max);
        Ok(())
    }

    /// Schedules a manager timer at absolute simulated time `at`.
    pub fn set_timer(&mut self, at: SimTime, id: u64) {
        self.timers.push(Reverse((at.max(self.time), id)));
    }

    /// The live session launched under trace key `key`, if any.
    pub fn app_of_key(&self, key: u64) -> Option<AppId> {
        self.trace_keys
            .get(&key)
            .copied()
            .filter(|&app| self.slot_of(app).is_some())
    }

    /// The current machine-wide load-phase rate scale (1.0 = nominal).
    pub fn load_scale(&self) -> f64 {
        self.rate_scale
    }

    /// The machine's degraded-hardware state (hotplug, caps, dropout).
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Charges management overhead to an application: the given CPU time is
    /// converted to work units and prepended to the master thread's next
    /// chunk — modelling libharp message handling on the application's
    /// critical path (used for the §6.6 overhead study).
    pub fn charge_overhead(&mut self, app: AppId, ns: SimTime) {
        let base_rate = self.topo.hw.clusters[0].perf.ips_per_thread;
        if let Ok(inst) = self.inst_mut(app) {
            let eff = inst.spec.kind_efficiency[0].max(1e-9);
            inst.pending_overhead += ns as f64 / 1e9 * base_rate * eff;
        }
    }

    // ------------------------------------------------------------------
    // Engine internals
    // ------------------------------------------------------------------

    pub(crate) fn spawn_app(&mut self, spec: AppSpec, opts: LaunchOpts, instance: u32) -> AppId {
        let id = AppId(self.next_app_id);
        self.next_app_id += 1;
        let team = match opts.team {
            TeamPolicy::AllHwThreads => self.topo.n_threads as u32,
            TeamPolicy::Fixed(n) => n.max(1),
        }
        .min(self.config.max_team);
        let name = spec.name.clone();
        let inst = AppInstance {
            id,
            name: name.clone(),
            spec,
            instance,
            start: self.time,
            team_target: team,
            affinity: Affinity::all(self.topo.n_threads),
            threads: Vec::new(),
            phase_idx: 0,
            iter_idx: 0,
            active: Vec::new(),
            done_work: 0.0,
            counted_work: 0.0,
            pending_overhead: 0.0,
            energy_j: 0.0,
            cpu_time: vec![0.0; self.topo.hw.num_kinds()],
            sample: SampleState {
                last_time: self.time,
                last_counted: 0.0,
                last_done: 0.0,
            },
            contention: 1.0,
            span_factor: 1.0,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.insts[slot] = inst;
                slot
            }
            None => {
                self.insts.push(inst);
                self.insts.len() - 1
            }
        };
        // Ids are handed out monotonically, so appending keeps both the
        // id → slot table dense and the id cache sorted.
        self.slot_of_app.push(slot);
        self.sorted_app_ids.push(id);
        self.start_iteration(slot);
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Sim, "app_started")
                .field("app", id.0)
                .field("name", name.clone())
                .field("now_ns", self.time);
        }
        self.notifications
            .push_back(MgrEvent::AppStarted { app: id, name });
        id
    }

    /// Activates the workers of the current iteration of the current phase.
    fn start_iteration(&mut self, slot: usize) {
        let inst = &mut self.insts[slot];
        let width = inst.phase_width().min(self.config.max_team) as usize;
        // Spawn missing worker threads. Thread ids grow monotonically, so
        // appending keeps the live list ascending.
        for _ in inst.threads.len()..width {
            let tid = SimThreadId(self.threads.len());
            self.threads.push(ThreadState {
                app: inst.id,
                slot,
                affinity_override: None,
                chunk: None,
                assigned_hwt: None,
                rate: 0.0,
                counter_rate: 0.0,
            });
            inst.threads.push(tid);
            self.live.push(tid);
        }
        inst.active.clear();
        inst.active.extend_from_slice(&inst.threads[..width]);
        inst.contention = inst.spec.contention.factor(width as u32);
        if !self.needs_chunks.contains(&inst.id) {
            self.needs_chunks.push(inst.id);
        }
        self.dirty = true;
    }

    /// Time of the next event (chunk completion, timer, arrival), if any.
    /// Chunk completions come from the last rate pass while no progress
    /// was integrated since; otherwise `running` is rescanned.
    fn next_event_time(&mut self) -> Option<SimTime> {
        let mut next = if self.completion_fresh {
            self.completion
        } else {
            self.work.thread_visits += self.running.len() as u64;
            let threads = &self.threads;
            self.running
                .iter()
                .filter_map(|t| threads[t.0].completion(self.time))
                .min()
        };
        let mut consider = |t: SimTime| {
            next = Some(next.map_or(t, |n| n.min(t)));
        };
        let next_arrival = self.arrival_order.get(self.arrival_cursor);
        let next_sched = self.schedule.get(self.schedule_cursor);
        if let Some(&Reverse((t, _))) = self.timers.peek() {
            // Timers only keep the simulation alive while work remains.
            if !self.sorted_app_ids.is_empty() || next_arrival.is_some() || next_sched.is_some() {
                consider(t);
            }
        }
        if let Some(&i) = next_arrival {
            consider(self.arrivals[i].at);
        }
        if let Some(s) = next_sched {
            consider(s.at);
        }
        if let (Some(h), Some(n)) = (self.config.horizon_ns, next) {
            if n > h && self.time < h {
                return Some(h);
            }
        }
        next
    }

    /// Integrates energy and progress up to time `t`: a multiply-add per
    /// runnable thread, per queued thread and per power domain. Collects
    /// the threads whose chunk is then done into `finished`; a step of
    /// zero length only checks.
    fn advance_to(&mut self, t: SimTime) {
        let dt_ns = t.saturating_sub(self.time);
        self.finished.clear();
        if dt_ns > 0 {
            let dt = dt_ns as f64 / 1e9;
            // Progress and counters, in ascending thread order.
            for &t in &self.running {
                let th = &mut self.threads[t.0];
                if let Some(chunk) = th.chunk {
                    let done = th.rate * dt;
                    th.chunk = Some((chunk - done).max(0.0));
                    let inst = &mut self.insts[th.slot];
                    inst.done_work += done.min(chunk);
                    inst.counted_work += th.counter_rate * dt;
                    if th.chunk_done() {
                        self.finished.push(t);
                    }
                }
            }
            // Ground-truth attribution, queue by queue.
            for (h, queue) in self.queues.iter().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let Share { power_w, sharers } = self.shares[h];
                let (energy, cpu) = (power_w * dt, dt / sharers);
                let kind = self.topo.thread_kind[h];
                for t in queue {
                    let inst = &mut self.insts[self.threads[t.0].slot];
                    inst.energy_j += energy;
                    inst.cpu_time[kind] += cpu;
                }
            }
            self.energy.integrate(dt);
            self.work.thread_visits += 2 * self.running.len() as u64;
            self.completion_fresh = false;
        } else {
            let threads = &self.threads;
            self.finished
                .extend(self.running.iter().filter(|t| threads[t.0].chunk_done()));
            self.work.thread_visits += self.running.len() as u64;
        }
        self.time = t;
    }

    /// Handles everything due at the current time: worker completions
    /// (collected by `advance_to`), barrier/phase/app transitions, timers,
    /// arrivals.
    fn process_due(&mut self) {
        self.work.events += 1;
        let finished = std::mem::take(&mut self.finished);
        for &t in &finished {
            self.complete_chunk(t);
        }
        self.finished = finished;
        // Timers.
        while let Some(&Reverse((t, id))) = self.timers.peek() {
            if t <= self.time {
                self.timers.pop();
                self.notifications.push_back(MgrEvent::Timer { id });
            } else {
                break;
            }
        }
        // Arrivals.
        while let Some(&i) = self.arrival_order.get(self.arrival_cursor) {
            if self.arrivals[i].at > self.time {
                break;
            }
            self.arrival_cursor += 1;
            let spec = self.arrivals[i].spec.clone();
            let opts = self.arrivals[i].opts;
            let key = self.arrivals[i].key;
            let id = self.spawn_app(spec, opts, 0);
            if let Some(key) = key {
                self.trace_keys.insert(key, id);
            }
        }
        // Trace schedule (after arrivals, so a same-instant arrive+depart
        // pair resolves the key before the departure looks it up).
        while let Some(rec) = self.schedule.get(self.schedule_cursor) {
            if rec.at > self.time {
                break;
            }
            self.schedule_cursor += 1;
            match rec.op.clone() {
                ScheduleOp::Depart { key } => {
                    // A key that never arrived, or whose instance already
                    // finished on its own, departs as a no-op.
                    if let Some(app) = self.app_of_key(key) {
                        self.finish_app(app, false);
                    }
                }
                ScheduleOp::SetPriority { key, class } => {
                    if let Some(app) = self.app_of_key(key) {
                        let inst = self.inst_mut(app).expect("keyed session is live");
                        if inst.spec.priority != class {
                            inst.spec.priority = class;
                            self.notifications
                                .push_back(MgrEvent::PriorityChanged { app, class });
                        }
                    }
                }
                ScheduleOp::LoadShift { permille } => {
                    self.rate_scale = permille as f64 / 1000.0;
                    self.dirty = true;
                    self.notifications
                        .push_back(MgrEvent::LoadShifted { permille });
                }
                ScheduleOp::Fault { ev } => {
                    // The machine degrades whether or not anything changed
                    // state (a duplicate fail is absorbed by FaultState);
                    // the manager is only told about real transitions.
                    if self.apply_fault(&ev) {
                        self.notifications.push_back(MgrEvent::Fault(ev));
                    }
                }
            }
        }
    }

    /// Retires a worker's chunk: the worker parks, and its iteration
    /// closes if it was the last one running.
    pub(crate) fn complete_chunk(&mut self, t: SimThreadId) {
        let app = self.threads[t.0].app;
        let leftover = self.threads[t.0].chunk.take().unwrap_or(0.0);
        self.dirty = true;
        // An earlier completion of this event may have ended the instance
        // (and a restart may already sit in its slot).
        if let Some(slot) = self.slot_of(app) {
            self.insts[slot].done_work += leftover; // account the sub-ns residue
            self.maybe_finish_iteration(slot);
        }
    }

    fn maybe_finish_iteration(&mut self, slot: usize) {
        let inst = &mut self.insts[slot];
        if !inst
            .active
            .iter()
            .all(|t| self.threads[t.0].chunk.is_none())
        {
            return;
        }
        inst.iter_idx += 1;
        if inst.iter_idx >= inst.spec.phases[inst.phase_idx].iterations {
            inst.iter_idx = 0;
            inst.phase_idx += 1;
            if inst.phase_idx >= inst.spec.phases.len() {
                let app = inst.id;
                self.finish_app(app, true);
                return;
            }
        }
        self.start_iteration(slot);
    }

    /// Removes an instance from the machine. `allow_restart` is false for
    /// trace departures: a force-exited app must not resurrect through the
    /// restart-until policy.
    pub(crate) fn finish_app(&mut self, app: AppId, allow_restart: bool) {
        let slot = self.slot_of(app).expect("finishing a live app");
        self.slot_of_app[(app.0 - 1) as usize] = NO_SLOT;
        self.free_slots.push(slot);
        if let Ok(pos) = self.sorted_app_ids.binary_search(&app) {
            self.sorted_app_ids.remove(pos);
        }
        let inst = &mut self.insts[slot];
        // Release the app's threads entirely.
        for t in &inst.threads {
            self.threads[t.0].chunk = None;
        }
        let threads = &self.threads;
        self.live.retain(|t| threads[t.0].slot != slot);
        self.completed.push(AppReport {
            app_id: app,
            name: inst.name.clone(),
            instance: inst.instance,
            start_ns: inst.start,
            end_ns: self.time,
            energy_true_j: inst.energy_j,
            work_done: inst.done_work,
        });
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Sim, "app_exited")
                .field("app", app.0)
                .field("now_ns", self.time);
        }
        self.notifications.push_back(MgrEvent::AppExited { app });
        self.dirty = true;
        // Stale trace-key mappings are harmless: app ids are never reused,
        // so later events for this key find a dead id and no-op.
        if !allow_restart {
            return;
        }
        // Restart policy: the first arrival (in insertion order) of this
        // name says how its instances relaunch.
        let inst = &self.insts[slot];
        let restart = self
            .arrivals
            .iter()
            .find(|a| a.spec.name == inst.name)
            .map(|a| a.opts);
        if let Some(opts) = restart {
            if let RestartPolicy::Until(until) = opts.restart {
                if self.time < until {
                    let (spec, generation) = (inst.spec.clone(), inst.instance + 1);
                    self.spawn_app(spec, opts, generation);
                }
            }
        }
    }

    /// Applies a hardware fault; returns whether the machine changed.
    pub(crate) fn apply_fault(&mut self, ev: &FaultEvent) -> bool {
        if !self.faults.apply(ev) {
            return false;
        }
        self.online = self.online_hwts();
        self.dirty = true;
        true
    }

    fn pop_notification(&mut self) -> Option<MgrEvent> {
        self.notifications.pop_front()
    }

    fn report(&self) -> RunReport {
        let makespan = self
            .completed
            .iter()
            .map(|a| a.end_ns)
            .max()
            .unwrap_or(self.time);
        // Live ids are sorted, so the partial records come out by app id.
        let partial: Vec<AppReport> = self
            .sorted_app_ids
            .iter()
            .filter_map(|&app| self.inst(app))
            .map(|inst| AppReport {
                app_id: inst.id,
                name: inst.name.clone(),
                instance: inst.instance,
                start_ns: inst.start,
                end_ns: self.time,
                energy_true_j: inst.energy_j,
                work_done: inst.done_work,
            })
            .collect();
        RunReport {
            makespan_ns: makespan,
            total_energy_j: self.energy.package_energy,
            cluster_energy_j: self.energy.cluster_energy.clone(),
            apps: self.completed.clone(),
            partial,
            events: self.work.events,
        }
    }
}

/// A configured simulation: machine + scenario + engine.
#[derive(Debug)]
pub struct Simulation {
    st: SimState,
}

impl Simulation {
    /// Creates a simulation of the given machine.
    pub fn new(hw: HardwareDescription, config: SimConfig) -> Self {
        Simulation {
            st: SimState::new(hw, config),
        }
    }

    /// Schedules an application arrival at simulated time `at`.
    pub fn add_arrival(&mut self, at: SimTime, spec: AppSpec, opts: LaunchOpts) {
        self.st.arrivals.push(ArrivalRec {
            at,
            spec,
            opts,
            key: None,
        });
    }

    /// Schedules a *keyed* arrival: later trace events (departure, priority
    /// change) reference the instance through `key`. Keys are
    /// caller-assigned and must be unique per trace.
    pub fn add_arrival_keyed(&mut self, at: SimTime, key: u64, spec: AppSpec, opts: LaunchOpts) {
        self.st.arrivals.push(ArrivalRec {
            at,
            spec,
            opts,
            key: Some(key),
        });
    }

    /// Schedules a forced departure of the instance arrived under `key` at
    /// simulated time `at`. A no-op if the instance already completed (or
    /// the key never arrives).
    pub fn add_departure(&mut self, at: SimTime, key: u64) {
        self.st.schedule.push(ScheduleRec {
            at,
            op: ScheduleOp::Depart { key },
        });
    }

    /// Schedules a priority-class change for the instance arrived under
    /// `key`. Delivered to the manager as [`MgrEvent::PriorityChanged`].
    pub fn add_priority_change(&mut self, at: SimTime, key: u64, class: PriorityClass) {
        self.st.schedule.push(ScheduleRec {
            at,
            op: ScheduleOp::SetPriority { key, class },
        });
    }

    /// Schedules a machine-wide load-phase shift: from `at` on, all
    /// progress rates are scaled by `permille / 1000` (1000 = nominal).
    pub fn add_load_shift(&mut self, at: SimTime, permille: u32) {
        self.st.schedule.push(ScheduleRec {
            at,
            op: ScheduleOp::LoadShift { permille },
        });
    }

    /// Schedules a hardware-degradation event (trace v2 fault directive):
    /// core hotplug, thermal capacity cap, or power-sensor dropout. The
    /// manager is notified via [`MgrEvent::Fault`] when the event actually
    /// changes machine state.
    pub fn add_fault(&mut self, at: SimTime, ev: FaultEvent) {
        self.st.schedule.push(ScheduleRec {
            at,
            op: ScheduleOp::Fault { ev },
        });
    }

    /// Read-only access to the machine state (e.g. for assertions in tests
    /// before running).
    pub fn state(&self) -> &SimState {
        &self.st
    }

    /// Runs the simulation to completion (all instances finished and no
    /// pending arrivals, or the configured horizon reached).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Description`] if the machine has more hardware
    /// threads than an [`Affinity`] mask addresses, or if any scheduled
    /// application spec fails validation.
    pub fn run(&mut self, manager: &mut dyn Manager) -> Result<RunReport> {
        if self.st.topo.n_threads > Affinity::MAX_THREADS {
            return Err(HarpError::Description {
                detail: format!(
                    "the machine has {} hardware threads but affinity masks address at most {}",
                    self.st.topo.n_threads,
                    Affinity::MAX_THREADS
                ),
            });
        }
        for a in &self.st.arrivals {
            a.spec.validate()?;
            if a.spec.kind_efficiency.len() != self.st.topo.hw.num_kinds() {
                return Err(HarpError::Description {
                    detail: format!(
                        "app '{}' has {} kind efficiencies but the machine has {} kinds",
                        a.spec.name,
                        a.spec.kind_efficiency.len(),
                        self.st.topo.hw.num_kinds()
                    ),
                });
            }
        }
        // Pending arrivals and trace events are consumed through time-sorted
        // cursors. Everything due at one event shares its timestamp (the
        // loop never steps past a pending one), so the stable sort keeps
        // the firing order what insertion order made it.
        let st = &mut self.st;
        st.arrival_order
            .extend(st.arrival_order.len()..st.arrivals.len());
        let arrivals = &st.arrivals;
        st.arrival_order[st.arrival_cursor..].sort_by_key(|&i| arrivals[i].at);
        st.schedule[st.schedule_cursor..].sort_by_key(|s| s.at);
        let mut sp = harp_obs::span(harp_obs::Subsystem::Sim, "run");
        if sp.is_active() {
            sp.set_field("arrivals", self.st.arrivals.len());
        }
        loop {
            while let Some(ev) = self.st.pop_notification() {
                manager.on_event(&mut self.st, ev);
            }
            self.st.prepare();
            let next = match self.st.next_event_time() {
                Some(t) => t,
                None => break,
            };
            if let Some(h) = self.st.config.horizon_ns {
                if next > h {
                    self.st.advance_to(h);
                    break;
                }
            }
            self.st.advance_to(next);
            self.st.process_due();
        }
        // Drain any final notifications (app exits at the very end).
        while let Some(ev) = self.st.pop_notification() {
            manager.on_event(&mut self.st, ev);
        }
        if sp.is_active() {
            sp.set_field("completed", self.st.completed.len());
            sp.set_field("end_ns", self.st.time);
        }
        Ok(self.st.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_platform::presets;
    use harp_types::CoreId;

    fn spec(name: &str, work: f64) -> AppSpec {
        AppSpec::builder(name, 2)
            .total_work(work)
            .iterations(20)
            .build()
            .unwrap()
    }

    #[test]
    fn single_app_completes_all_work() {
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e9), LaunchOpts::all_hw_threads());
        let r = sim.run(&mut NullManager).unwrap();
        assert_eq!(r.apps.len(), 1);
        let a = &r.apps[0];
        assert!(a.end_ns > 0);
        assert!(
            (a.work_done - 1.0e9).abs() / 1.0e9 < 1e-6,
            "work done {} vs 1e9",
            a.work_done
        );
        assert!(r.total_energy_j > 0.0);
    }

    #[test]
    fn faults_degrade_rates_and_power() {
        let hw = presets::tiny_test();
        let run = |faults: &[(SimTime, FaultEvent)]| {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, spec("a", 4.0e9), LaunchOpts::all_hw_threads());
            for (at, ev) in faults {
                sim.add_fault(*at, ev.clone());
            }
            let r = sim.run(&mut NullManager).unwrap();
            (r.makespan_ns, r.total_energy_j)
        };
        let (t0, e0) = run(&[]);
        // A schedule of only no-op faults is bit-identical to none at all.
        let (t_noop, e_noop) = run(&[(1, FaultEvent::CoreRecover { core: CoreId(0) })]);
        assert_eq!(t0, t_noop);
        assert_eq!(e0.to_bits(), e_noop.to_bits());
        // A thermal cap slows the run down.
        let (t_cap, _) = run(&[(
            0,
            FaultEvent::ThermalCap {
                cluster: 0,
                permille: 500,
            },
        )]);
        assert!(t_cap > t0, "capped run {t_cap} vs nominal {t0}");
        // Failing cores shrinks throughput further; the manager is told.
        let (t_fail, _) = run(&[
            (0, FaultEvent::CoreFail { core: CoreId(0) }),
            (0, FaultEvent::CoreFail { core: CoreId(1) }),
        ]);
        assert!(t_fail > t0, "degraded run {t_fail} vs nominal {t0}");
    }

    #[test]
    fn offline_core_is_powered_down_and_recovery_notifies() {
        struct Recorder(Vec<MgrEvent>);
        impl Manager for Recorder {
            fn on_event(&mut self, _st: &mut SimState, ev: MgrEvent) {
                self.0.push(ev);
            }
        }
        let hw = presets::tiny_test();
        // Idle machine, one long-lived app pinned by default everywhere.
        let mut sim = Simulation::new(hw.clone(), SimConfig::default());
        sim.add_arrival(0, spec("a", 2.0e9), LaunchOpts::all_hw_threads());
        sim.add_fault(1_000, FaultEvent::CoreFail { core: CoreId(2) });
        sim.add_fault(2_000_000, FaultEvent::CoreRecover { core: CoreId(2) });
        // Duplicate fail: absorbed, no second notification.
        sim.add_fault(1_500, FaultEvent::CoreFail { core: CoreId(2) });
        let mut rec = Recorder(Vec::new());
        let r = sim.run(&mut rec).unwrap();
        assert_eq!(r.apps.len(), 1);
        let fails: Vec<_> = rec
            .0
            .iter()
            .filter(|e| matches!(e, MgrEvent::Fault(FaultEvent::CoreFail { .. })))
            .collect();
        let recovers: Vec<_> = rec
            .0
            .iter()
            .filter(|e| matches!(e, MgrEvent::Fault(FaultEvent::CoreRecover { .. })))
            .collect();
        assert_eq!(fails.len(), 1, "duplicate fail must be absorbed");
        assert_eq!(recovers.len(), 1);
    }

    #[test]
    fn more_resources_run_faster() {
        let hw = presets::raptor_lake();
        let run = |team: u32| {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, spec("a", 2.0e10), LaunchOpts::fixed_team(team));
            sim.run(&mut NullManager).unwrap().makespan_ns
        };
        let t1 = run(1);
        let t8 = run(8);
        let t32 = run(32);
        assert!(t8 < t1 / 4, "t1={t1} t8={t8}");
        assert!(t32 < t8, "t8={t8} t32={t32}");
    }

    #[test]
    fn serial_fraction_limits_speedup() {
        let hw = presets::raptor_lake();
        let amdahl = AppSpec::builder("amdahl", 2)
            .total_work(1.0e10)
            .serial_fraction(0.5)
            .build()
            .unwrap();
        let run = |team: u32| {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, amdahl.clone(), LaunchOpts::fixed_team(team));
            sim.run(&mut NullManager).unwrap().makespan_ns as f64
        };
        let speedup = run(1) / run(32);
        assert!(speedup < 2.2, "speedup {speedup} should be Amdahl-limited");
        assert!(speedup > 1.2);
    }

    #[test]
    fn memory_bound_app_does_not_scale() {
        let hw = presets::raptor_lake();
        let membound = AppSpec::builder("mem", 2)
            .total_work(2.0e10)
            .mem_intensity(0.95)
            .build()
            .unwrap();
        let run = |team: u32| {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, membound.clone(), LaunchOpts::fixed_team(team));
            sim.run(&mut NullManager).unwrap()
        };
        let r8 = run(8);
        let r32 = run(32);
        // Performance saturates...
        let ratio = r8.makespan_ns as f64 / r32.makespan_ns as f64;
        assert!(ratio < 1.35, "membound speedup 8->32 was {ratio}");
        // ...but energy keeps growing with more active cores.
        assert!(r32.total_energy_j > r8.total_energy_j * 0.95);
    }

    #[test]
    fn two_apps_share_and_both_finish() {
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e9), LaunchOpts::all_hw_threads());
        sim.add_arrival(0, spec("b", 1.0e9), LaunchOpts::all_hw_threads());
        let r = sim.run(&mut NullManager).unwrap();
        assert_eq!(r.apps.len(), 2);
        assert!(r.instances_of("a").len() == 1 && r.instances_of("b").len() == 1);
    }

    #[test]
    fn oversubscription_hurts_time_and_partitioning_saves_energy() {
        let hw = presets::raptor_lake();
        // (1) A team twice as large as the machine is slower than a matched
        // one: time-sharing + lock-holder preemption cost real throughput.
        let run_team = |team: u32| {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, spec("a", 2.0e10), LaunchOpts::fixed_team(team));
            sim.run(&mut NullManager).unwrap().makespan_ns
        };
        let matched = run_team(32);
        let oversized = run_team(64);
        assert!(
            oversized > matched,
            "64 threads ({oversized}) should be slower than 32 ({matched})"
        );

        // (2) Spatially partitioning two co-running apps consumes less
        // energy than letting both time-share the whole machine.
        let mk = || {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, spec("a", 2.0e10), LaunchOpts::all_hw_threads());
            sim.add_arrival(0, spec("b", 2.0e10), LaunchOpts::all_hw_threads());
            sim
        };
        let oversub = mk().run(&mut NullManager).unwrap();
        struct Partition;
        impl Manager for Partition {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                if let MgrEvent::AppStarted { app, ref name } = ev {
                    let (aff, team) = if name == "a" {
                        (
                            Affinity::from_threads((0..16).map(harp_types::HwThreadId)),
                            16,
                        )
                    } else {
                        (
                            Affinity::from_threads((16..32).map(harp_types::HwThreadId)),
                            16,
                        )
                    };
                    st.set_app_affinity(app, aff).unwrap();
                    st.set_team_size(app, team).unwrap();
                }
            }
        }
        let part = mk().run(&mut Partition).unwrap();
        assert!(
            part.total_energy_j < oversub.total_energy_j,
            "partitioned {}J vs oversubscribed {}J",
            part.total_energy_j,
            oversub.total_energy_j
        );
        // Partitioning costs at most a modest makespan premium here.
        assert!(part.makespan_ns < oversub.makespan_ns * 13 / 10);
    }

    #[test]
    fn timer_events_fire_in_order() {
        struct TimerMgr {
            fired: Vec<u64>,
        }
        impl Manager for TimerMgr {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                match ev {
                    MgrEvent::AppStarted { .. } => {
                        st.set_timer(st.now() + 1_000_000, 1);
                        st.set_timer(st.now() + 2_000_000, 2);
                    }
                    MgrEvent::Timer { id } => self.fired.push(id),
                    _ => {}
                }
            }
        }
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e9), LaunchOpts::fixed_team(2));
        let mut mgr = TimerMgr { fired: Vec::new() };
        sim.run(&mut mgr).unwrap();
        assert_eq!(mgr.fired, vec![1, 2]);
    }

    #[test]
    fn perf_sampling_reports_progress() {
        struct Sampler {
            samples: Vec<f64>,
        }
        impl Manager for Sampler {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                match ev {
                    MgrEvent::AppStarted { .. } => st.set_timer(st.now() + 50_000_000, 7),
                    MgrEvent::Timer { .. } => {
                        for app in st.app_ids().to_vec() {
                            if let Some((dw, dns)) = st.sample_app_work(app) {
                                self.samples.push(dw / (dns as f64 / 1e9));
                            }
                        }
                        if !st.app_ids().is_empty() {
                            st.set_timer(st.now() + 50_000_000, 7);
                        }
                    }
                    _ => {}
                }
            }
        }
        let hw = presets::raptor_lake();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 3.0e10), LaunchOpts::fixed_team(8));
        let mut mgr = Sampler {
            samples: Vec::new(),
        };
        sim.run(&mut mgr).unwrap();
        assert!(mgr.samples.len() > 3);
        // IPS samples should be in a plausible range (noisy but positive).
        for s in &mgr.samples {
            assert!(*s > 0.0, "sample {s}");
        }
    }

    #[test]
    fn energy_counters_are_monotone_and_consistent() {
        let hw = presets::raptor_lake();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e10), LaunchOpts::fixed_team(8));
        let r = sim.run(&mut NullManager).unwrap();
        let cluster_sum: f64 = r.cluster_energy_j.iter().sum();
        // Package = clusters + package-static portion.
        assert!(r.total_energy_j > cluster_sum);
        for &c in &r.cluster_energy_j {
            assert!(c > 0.0);
        }
    }

    #[test]
    fn restart_until_re_executes() {
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(
            hw,
            SimConfig {
                horizon_ns: Some(20 * crate::SECOND),
                ..SimConfig::default()
            },
        );
        sim.add_arrival(
            0,
            spec("loop", 5.0e8),
            LaunchOpts::fixed_team(2).restart_until(2 * crate::SECOND),
        );
        let r = sim.run(&mut NullManager).unwrap();
        assert!(
            r.instances_of("loop").len() >= 2,
            "expected restarts, got {}",
            r.instances_of("loop").len()
        );
    }

    #[test]
    fn affinity_restricts_execution() {
        // Pin the app to one little core; it should take ~work/rate of that
        // core, regardless of its team size.
        let hw = presets::tiny_test();
        struct Pin;
        impl Manager for Pin {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                if let MgrEvent::AppStarted { app, .. } = ev {
                    st.set_app_affinity(app, Affinity::from_threads([harp_types::HwThreadId(4)]))
                        .unwrap();
                }
            }
        }
        let work = 1.0e9;
        let mut sim = Simulation::new(hw.clone(), SimConfig::default());
        sim.add_arrival(
            0,
            AppSpec::builder("pinned", 2)
                .total_work(work)
                .serial_fraction(0.0)
                .build()
                .unwrap(),
            LaunchOpts::fixed_team(4),
        );
        let r = sim.run(&mut Pin).unwrap();
        // hw thread 4 is a little core (2 big cores × 2 smt = threads 0..4).
        let little_rate = hw.clusters[1].perf.ips_per_thread;
        let expect_s = work / little_rate;
        let got_s = r.makespan_s();
        // Oversubscription penalties make it slower than the ideal, never faster.
        assert!(got_s >= expect_s * 0.99, "{got_s} vs {expect_s}");
        assert!(got_s < expect_s * 3.0, "{got_s} vs {expect_s}");
    }

    #[test]
    fn team_resize_takes_effect() {
        let hw = presets::raptor_lake();
        struct Shrink;
        impl Manager for Shrink {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                if let MgrEvent::AppStarted { app, .. } = ev {
                    st.set_team_size(app, 2).unwrap();
                }
            }
        }
        let mut sim = Simulation::new(hw.clone(), SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e10), LaunchOpts::all_hw_threads());
        let shrunk = sim.run(&mut Shrink).unwrap();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e10), LaunchOpts::all_hw_threads());
        let full = sim.run(&mut NullManager).unwrap();
        assert!(shrunk.makespan_ns > full.makespan_ns);
    }

    #[test]
    fn dynamic_balance_beats_static_split_on_mixed_cores() {
        // 2 threads on one big + one little core: static equal split waits
        // for the little straggler; dynamic split finishes sooner.
        let hw = presets::tiny_test();
        struct MixPin;
        impl Manager for MixPin {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                if let MgrEvent::AppStarted { app, .. } = ev {
                    // hwt 0 = big core 0, hwt 4 = little core 0.
                    st.set_app_affinity(
                        app,
                        Affinity::from_threads([
                            harp_types::HwThreadId(0),
                            harp_types::HwThreadId(4),
                        ]),
                    )
                    .unwrap();
                    st.set_team_size(app, 2).unwrap();
                }
            }
        }
        let run = |dynamic: bool| {
            let s = AppSpec::builder("mix", 2)
                .total_work(2.0e9)
                .serial_fraction(0.0)
                .iterations(50)
                .dynamic_balance(dynamic)
                .build()
                .unwrap();
            let mut sim = Simulation::new(presets::tiny_test(), SimConfig::default());
            sim.add_arrival(0, s, LaunchOpts::fixed_team(2));
            sim.run(&mut MixPin).unwrap().makespan_ns
        };
        let _ = hw;
        let static_t = run(false);
        let dynamic_t = run(true);
        assert!(
            dynamic_t < static_t,
            "dynamic {dynamic_t} should beat static {static_t}"
        );
    }

    #[test]
    fn contention_makes_small_teams_win() {
        let hw = presets::raptor_lake();
        let convoy = AppSpec::builder("binpackish", 2)
            .total_work(5.0e9)
            .serial_fraction(0.0)
            .contention(crate::ContentionModel {
                linear: 0.05,
                quadratic: 0.1,
            })
            .build()
            .unwrap();
        let run = |team: u32| {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, convoy.clone(), LaunchOpts::fixed_team(team));
            sim.run(&mut NullManager).unwrap().makespan_ns
        };
        let t32 = run(32);
        let t4 = run(4);
        assert!(
            t4 * 3 < t32,
            "4 threads ({t4}) should be >3x faster than 32 ({t32})"
        );
    }

    #[test]
    fn charge_overhead_slows_app_down() {
        let hw = presets::tiny_test();
        struct Overhead;
        impl Manager for Overhead {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                match ev {
                    MgrEvent::AppStarted { app, .. } => {
                        st.set_timer(st.now() + 10_000_000, app.0);
                    }
                    MgrEvent::Timer { id } => {
                        let app = AppId(id);
                        if st.app_ids().contains(&app) {
                            st.charge_overhead(app, 3_000_000); // 3 ms per 10 ms
                            st.set_timer(st.now() + 10_000_000, id);
                        }
                    }
                    _ => {}
                }
            }
        }
        let run = |with_overhead: bool| {
            let mut sim = Simulation::new(presets::tiny_test(), SimConfig::default());
            sim.add_arrival(0, spec("a", 2.0e9), LaunchOpts::fixed_team(4));
            if with_overhead {
                sim.run(&mut Overhead).unwrap().makespan_ns
            } else {
                sim.run(&mut NullManager).unwrap().makespan_ns
            }
        };
        let _ = hw;
        let plain = run(false);
        let taxed = run(true);
        assert!(taxed > plain, "taxed {taxed} vs plain {plain}");
    }

    #[test]
    fn horizon_caps_run() {
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(
            hw,
            SimConfig {
                horizon_ns: Some(crate::MILLISECOND),
                ..SimConfig::default()
            },
        );
        sim.add_arrival(0, spec("slow", 1.0e12), LaunchOpts::fixed_team(2));
        let r = sim.run(&mut NullManager).unwrap();
        assert!(r.apps.is_empty());
        assert_eq!(r.partial.len(), 1);
        assert!(r.partial[0].work_done > 0.0);
        assert!(r.makespan_ns <= 2 * crate::MILLISECOND);
    }

    #[test]
    fn invalid_spec_is_rejected_at_run() {
        let hw = presets::tiny_test();
        let mut bad = spec("bad", 1.0e9);
        bad.kind_efficiency = vec![1.0]; // machine has 2 kinds
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, bad, LaunchOpts::fixed_team(1));
        assert!(sim.run(&mut NullManager).is_err());
    }

    #[test]
    fn machine_wider_than_a_mask_is_rejected_at_run() {
        // 16 P-core threads + 120 E-cores: a valid description, but wider
        // than the 128 hardware threads an affinity mask addresses.
        let mut hw = presets::raptor_lake();
        hw.clusters[1].cores = 120;
        hw.validate().unwrap();
        assert_eq!(hw.total_hw_threads(), 136);
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e9), LaunchOpts::all_hw_threads());
        let err = sim.run(&mut NullManager).unwrap_err();
        assert!(
            matches!(err, HarpError::Description { .. }),
            "unexpected error {err}"
        );
    }

    #[test]
    fn departure_force_exits_before_work_completes() {
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        // 1e12 work units would take far longer than 1 ms on the tiny
        // machine; the trace kills the instance at 1 ms.
        sim.add_arrival_keyed(0, 7, spec("victim", 1.0e12), LaunchOpts::fixed_team(2));
        sim.add_departure(crate::MILLISECOND, 7);
        let r = sim.run(&mut NullManager).unwrap();
        assert_eq!(r.apps.len(), 1, "forced exit still yields a report");
        let a = &r.apps[0];
        assert_eq!(a.end_ns, crate::MILLISECOND);
        assert!(a.work_done < 1.0e12);
        assert!(r.partial.is_empty());
    }

    #[test]
    fn departure_after_natural_completion_is_a_noop() {
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival_keyed(0, 1, spec("quick", 1.0e8), LaunchOpts::fixed_team(2));
        // Departs long after the tiny workload finishes on its own.
        sim.add_departure(crate::SECOND, 1);
        let r = sim.run(&mut NullManager).unwrap();
        assert_eq!(r.apps.len(), 1);
        assert!(
            (r.apps[0].work_done - 1.0e8).abs() / 1.0e8 < 1e-6,
            "work fully completed: {}",
            r.apps[0].work_done
        );
    }

    #[test]
    fn departed_instance_does_not_restart() {
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival_keyed(
            0,
            3,
            spec("churner", 1.0e12),
            LaunchOpts::fixed_team(2).restart_until(crate::SECOND),
        );
        sim.add_departure(crate::MILLISECOND, 3);
        let r = sim.run(&mut NullManager).unwrap();
        assert_eq!(r.apps.len(), 1, "no restart after a forced departure");
    }

    #[test]
    fn load_shift_slows_progress() {
        let hw = presets::tiny_test();
        let run = |permille: Option<u32>| {
            let mut sim = Simulation::new(hw.clone(), SimConfig::default());
            sim.add_arrival(0, spec("a", 1.0e9), LaunchOpts::fixed_team(2));
            if let Some(p) = permille {
                sim.add_load_shift(0, p);
            }
            sim.run(&mut NullManager).unwrap().makespan_ns
        };
        let nominal = run(None);
        let unchanged = run(Some(1000));
        let half = run(Some(500));
        assert_eq!(
            nominal, unchanged,
            "permille=1000 must be bit-identical to no shift"
        );
        assert!(
            half > nominal * 19 / 10,
            "half rate ≈ double time: {half} vs {nominal}"
        );
    }

    #[test]
    fn priority_change_reaches_the_manager() {
        struct Recorder {
            seen: Vec<(AppId, PriorityClass)>,
            keyed: Option<AppId>,
        }
        impl Manager for Recorder {
            fn on_event(&mut self, st: &mut SimState, ev: MgrEvent) {
                if let MgrEvent::PriorityChanged { app, class } = ev {
                    self.seen.push((app, class));
                    self.keyed = st.app_of_key(9);
                }
            }
        }
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival_keyed(0, 9, spec("tenant", 1.0e10), LaunchOpts::fixed_team(2));
        sim.add_priority_change(crate::MILLISECOND, 9, PriorityClass::Premium);
        // Re-setting the same class later must not emit a second event.
        sim.add_priority_change(2 * crate::MILLISECOND, 9, PriorityClass::Premium);
        let mut mgr = Recorder {
            seen: Vec::new(),
            keyed: None,
        };
        sim.run(&mut mgr).unwrap();
        assert_eq!(mgr.seen.len(), 1);
        assert_eq!(mgr.seen[0].1, PriorityClass::Premium);
        assert_eq!(mgr.keyed, Some(mgr.seen[0].0), "key resolves to session");
    }

    #[test]
    fn schedule_alone_keeps_sim_alive_until_drained() {
        // A load shift scheduled after all work completes must still fire
        // (the event loop stays alive while unfired schedule events exist).
        let hw = presets::tiny_test();
        let mut sim = Simulation::new(hw, SimConfig::default());
        sim.add_arrival(0, spec("a", 1.0e8), LaunchOpts::fixed_team(2));
        sim.add_load_shift(crate::SECOND, 250);
        sim.run(&mut NullManager).unwrap();
        assert_eq!(sim.state().load_scale(), 0.25);
    }
}
