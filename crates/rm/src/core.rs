//! The transport-agnostic RM state machine.

use crate::journal::{
    JournalAppObs, JournalPoint, JournalRecord, JournalWriter, Snapshot, SnapshotFaults,
    SnapshotSession,
};
use harp_alloc::{
    allocate_avail, hw_threads_for, AllocOption, AllocRequest, SolveDeadline, SolverKind,
    WarmStart, REFERENCE_ITERS,
};
use harp_energy::{EnergyAttributor, EnergyLedger, LedgerTick};
use harp_explore::{ExplorationConfig, Explorer, SampleOutcome, Stage};
use harp_platform::{CoreAvailability, FaultState, HardwareDescription, CAP_NOMINAL_PERMILLE};
use harp_types::{
    energy_utility_cost, AppId, CoreId, CoreKind, ErvShape, ExtResourceVector, FaultEvent,
    HarpError, HwThreadId, NonFunctional, OperatingPointTable, ResourceVector, Result,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// RM configuration. Allocation rounds always run the Lagrangian MMKP
/// solver ([`SolverKind::Lagrangian`]); the modelled communication and
/// solve costs of the §6.6 overhead study are the simulator frontend's
/// constants (`harp-sched`), not RM state.
#[derive(Debug, Clone, Default)]
pub struct RmConfig {
    /// Online-exploration parameters.
    pub exploration: ExplorationConfig,
    /// Offline mode: applications run on their preloaded profiles and no
    /// runtime exploration happens (the *HARP (Offline)* variant, and the
    /// only mode on the Odroid, §6.4).
    pub offline: bool,
    /// Cooperative solver budget per allocation round in subgradient
    /// iterations (`0` = unbounded). Deterministic, so journal replay takes
    /// the same degraded/non-degraded path as the live run — the production
    /// choice for crash-recoverable daemons. On overrun the RM keeps the
    /// previous feasible allocation, marks the tick degraded
    /// (`rm.degraded_ticks`) and re-solves next tick.
    pub solve_deadline_iters: u32,
}

/// An operating-point activation the frontend must relay to an application
/// (paper §4.1.1 step 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    /// Target application.
    pub app: AppId,
    /// The activated extended resource vector.
    pub erv: ExtResourceVector,
    /// Concrete granted cores.
    pub cores: Vec<CoreId>,
    /// Concrete granted hardware threads.
    pub hw_threads: Vec<HwThreadId>,
    /// The parallelization degree libharp should apply.
    pub parallelism: u32,
}

/// The result of an RM entry point: activations to relay plus bookkeeping
/// for overhead accounting.
#[derive(Debug, Clone, Default)]
pub struct RmOutput {
    /// Activations to deliver.
    pub directives: Vec<Directive>,
    /// Number of allocation solves performed.
    pub solves: u32,
    /// Summed solver effort of those solves, as a fraction of the
    /// reference solver's full iteration schedule (see
    /// [`harp_alloc::Selection::work`]). Warm-started rounds report far
    /// less than `solves × 1.0`; the simulator frontend's overhead model
    /// charges its per-solve cost × `solve_work`.
    pub solve_work: f64,
    /// The solver overran its deadline this round: the previous feasible
    /// allocation stays applied (new arrivals fall back to whole-machine
    /// co-allocation) and a full re-solve is retried next tick.
    pub degraded: bool,
    /// The tick's exact integer energy decomposition ([`RmCore::tick`]
    /// only; register/deregister rounds report `None`). Per-session
    /// micro-joules sum bit-exactly to `energy.tick_uj` — see
    /// [`harp_energy::EnergyLedger`].
    pub energy: Option<LedgerTick>,
}

impl RmOutput {
    fn merge(&mut self, other: RmOutput) {
        // Later directives supersede earlier ones for the same app.
        for d in other.directives {
            self.directives.retain(|x| x.app != d.app);
            self.directives.push(d);
        }
        self.solves += other.solves;
        self.solve_work += other.solve_work;
        self.degraded |= other.degraded;
        if other.energy.is_some() {
            self.energy = other.energy;
        }
    }
}

/// One application observation of a measurement tick.
#[derive(Debug, Clone)]
pub struct AppObservation {
    /// The application.
    pub app: AppId,
    /// Utility rate over the tick: IPS from perf sampling, or the
    /// application-specific metric for apps that provide one (§4.2.1).
    pub utility_rate: f64,
    /// Cumulative per-kind CPU seconds (scheduler accounting).
    pub cpu_time: Vec<f64>,
}

/// Observations of one measurement tick (50 ms cadence by default).
#[derive(Debug, Clone)]
pub struct TickObservations {
    /// Interval length in seconds.
    pub dt_s: f64,
    /// Cumulative package energy counter in joules (RAPL-style).
    pub package_energy_j: f64,
    /// Per-application observations.
    pub apps: Vec<AppObservation>,
}

struct Session {
    name: String,
    provides_utility: bool,
    explorer: Explorer,
    /// Disjoint core envelope this session may use until the next
    /// allocation round (selected point + leftover share while exploring).
    envelope: Vec<CoreId>,
    /// The configuration the application currently runs.
    active_erv: Option<ExtResourceVector>,
    samples_since_realloc: u64,
    co_allocated: bool,
    /// Opaque token a disconnected client presents to reclaim the session
    /// (0 = resume not supported for this session).
    resume_token: u64,
    /// Tenant priority weight: the allocator multiplies option costs by
    /// it, so under λ-pressure a weight < 1 session is downgraded off its
    /// preferred point before a weight > 1 session. Exactly 1.0 for the
    /// default class, which leaves costs bit-identical.
    priority: f64,
    /// The session's allocation request as last built (`None` until its
    /// first round); see [`Session::lend_request`].
    request: Option<CachedRequest>,
}

/// A session's unfiltered allocation request — the Pareto front of its
/// table, costed by Eq. 2 and weighted by its priority — kept across
/// rounds for as long as neither input moves.
struct CachedRequest {
    /// What the options were built from: the explorer's table generation
    /// and the priority weight's bits.
    key: (u64, u64),
    /// `None` when the table offers nothing to allocate from, and while
    /// the request is lent to a running round.
    request: Option<AllocRequest>,
}

impl Session {
    /// Takes the session's request for one allocation round, rebuilding it
    /// first (and counting that in `rebuilt`) iff the table or the priority
    /// changed since it was built. The round owns the request while the
    /// solver reads it and hands it back to `request`.
    fn lend_request(&mut self, app: AppId, rebuilt: &mut u64) -> Option<AllocRequest> {
        let key = (self.explorer.generation(), self.priority.to_bits());
        if self.request.as_ref().map(|c| c.key) != Some(key) {
            *rebuilt += 1;
            self.request = Some(CachedRequest {
                key,
                request: build_request(app, &self.explorer, self.priority),
            });
        }
        self.request.as_mut().and_then(|c| c.request.take())
    }
}

/// The allocation request of one session: the Pareto-optimal operating
/// points of its table as solver options, or `None` when there are none.
fn build_request(app: AppId, explorer: &Explorer, priority: f64) -> Option<AllocRequest> {
    let v_max = explorer.table().max_utility();
    if v_max <= 0.0 {
        return None;
    }
    let options: Vec<AllocOption> = explorer
        .pareto_options()
        .into_iter()
        .map(|(op, erv, nfc)| AllocOption {
            op,
            // Priority-weighted: scaling a session's costs up amplifies
            // the penalty of moving it off its preferred point, so
            // λ-pressure under contention downgrades low-weight sessions
            // first. Weight 1.0 multiplies out exactly (bit-identical to
            // the unweighted cost).
            cost: energy_utility_cost(nfc.utility, nfc.power, v_max) * priority,
            erv,
        })
        .collect();
    (!options.is_empty()).then_some(AllocRequest { app, options })
}

/// A core enters probation instead of returning to service once it has
/// failed this many times.
const QUARANTINE_AFTER_FAILS: u32 = 2;
/// Base probation length in measurement ticks; doubles per additional
/// failure beyond the threshold, capped at `<< QUARANTINE_BACKOFF_CAP`.
const QUARANTINE_BASE_TICKS: u64 = 8;
/// Cap on the exponential-backoff shift (8 << 6 = 512 ticks max).
const QUARANTINE_BACKOFF_CAP: u32 = 6;
/// An in-service core that stays clean this many ticks has one past
/// failure forgiven, so ancient flaps do not quarantine forever.
const HEALTH_DECAY_TICKS: u64 = 64;

/// Per-core health record backing the quarantine policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CoreHealth {
    /// Lifetime failure count (decayed while the core stays clean).
    fails: u32,
    /// Probation re-admission tick; 0 = not quarantined.
    quarantined_until: u64,
    /// Tick of the last fail/recover/quarantine/decay transition.
    last_change_tick: u64,
}

/// The HARP RM state machine. See the [crate docs](crate) for the overall
/// role; frontends call [`RmCore::register`], [`RmCore::deregister`] and
/// [`RmCore::tick`] and relay the returned [`Directive`]s.
pub struct RmCore {
    hw: HardwareDescription,
    /// `hw.erv_shape()`, built once.
    shape: ErvShape,
    /// The machine's exploration candidate space: built by the first
    /// registration, then shared by every session's explorer.
    candidates: Option<Arc<[ExtResourceVector]>>,
    cfg: RmConfig,
    sessions: HashMap<AppId, Session>,
    attributor: EnergyAttributor,
    /// Exact integer micro-joule energy accounting over the attribution
    /// model — the per-session ledger surfaced via [`RmOutput::energy`].
    ledger: EnergyLedger,
    last_package_energy: f64,
    last_cpu: HashMap<AppId, Vec<f64>>,
    /// Operating-point profiles persisted across application runs, keyed by
    /// application name (the `/etc/harp` profile store, §4.3).
    profiles: HashMap<String, OperatingPointTable>,
    /// Solver warm-start state carried between allocation rounds:
    /// consecutive rounds differ by at most an arrival, departure or small
    /// cost drift, so the λ multipliers, previous picks and instance memo
    /// let warm rounds converge in a handful of iterations.
    warm: WarmStart,
    /// Ticks processed so far; scopes telemetry events via
    /// [`harp_obs::set_tick`].
    ticks: u64,
    /// Attached crash-recovery journal (None = journaling off).
    journal: Option<JournalWriter>,
    /// Records appended since the last compaction.
    ops_since_compact: u64,
    /// Compact the journal after this many records (0 = never).
    compact_every: u64,
    /// Resume-token → session lookup for idempotent reconnects.
    resume_tokens: HashMap<u64, AppId>,
    /// Last activation emitted per app — replayed to a resuming client so
    /// it re-applies its current allocation without waiting for a round.
    last_directives: HashMap<AppId, Directive>,
    /// Highest app id ever registered; survives recovery so a restarted
    /// frontend never reuses ids.
    max_app_seen: u64,
    /// The last allocation round overran its solver deadline; the next
    /// tick forces a full re-solve even if nothing else changed.
    pending_resolve: bool,
    /// Allocation rounds that overran the solver deadline since creation.
    degraded_ticks: u64,
    /// Degraded-hardware state: core hotplug, thermal caps, sensor dropout
    /// (DESIGN.md §15).
    faults: FaultState,
    /// Per-core quarantine health records (indexed by raw core id).
    health: Vec<CoreHealth>,
    /// Sessions migrated off failing cores so far (`rm.migrations`).
    migrations: u64,
    /// Session requests rebuilt from their tables so far
    /// (`rm.option_sets_rebuilt`); a round rebuilds only what changed.
    option_sets_rebuilt: u64,
}

impl std::fmt::Debug for RmCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmCore")
            .field("sessions", &self.sessions.len())
            .field("profiles", &self.profiles.len())
            .field("offline", &self.cfg.offline)
            .finish()
    }
}

impl RmCore {
    /// Creates an RM for a machine.
    pub fn new(hw: HardwareDescription, cfg: RmConfig) -> Self {
        let attributor = EnergyAttributor::new(&hw);
        let faults = FaultState::new(&hw);
        let health = vec![CoreHealth::default(); hw.num_cores()];
        let shape = hw.erv_shape();
        RmCore {
            hw,
            shape,
            candidates: None,
            cfg,
            sessions: HashMap::new(),
            attributor,
            ledger: EnergyLedger::new(),
            last_package_energy: 0.0,
            last_cpu: HashMap::new(),
            profiles: HashMap::new(),
            warm: WarmStart::new(),
            ticks: 0,
            journal: None,
            ops_since_compact: 0,
            compact_every: 0,
            resume_tokens: HashMap::new(),
            last_directives: HashMap::new(),
            max_app_seen: 0,
            pending_resolve: false,
            degraded_ticks: 0,
            faults,
            health,
            migrations: 0,
            option_sets_rebuilt: 0,
        }
    }

    /// Rebuilds a core by replaying a journal record sequence through the
    /// real entry points. With a full (uncompacted) history the result is
    /// bit-identical to the crashed core — sessions, measured points,
    /// solver warm-start and exploration state all evolve deterministically
    /// from the same inputs. A leading [`JournalRecord::Snapshot`] restores
    /// durable state exactly (profiles, sessions, points, tokens, counters)
    /// and the allocation is re-derived on the first round.
    ///
    /// The recovered core has no journal attached; call
    /// [`RmCore::attach_journal`] to resume journaling.
    ///
    /// # Errors
    ///
    /// Propagates replay errors — a journal written by a correct core never
    /// produces them, so they indicate the records belong to a different
    /// machine description or configuration.
    pub fn recover(
        hw: HardwareDescription,
        cfg: RmConfig,
        records: &[JournalRecord],
    ) -> Result<RmCore> {
        let mut core = RmCore::new(hw, cfg);
        for rec in records {
            core.apply_record(rec)?;
        }
        Ok(core)
    }

    /// Attaches a journal; subsequent successful state changes are appended
    /// to it. `compact_every` > 0 rewrites the file as one snapshot after
    /// that many appended records.
    pub fn attach_journal(&mut self, journal: JournalWriter, compact_every: u64) {
        self.journal = Some(journal);
        self.ops_since_compact = 0;
        self.compact_every = compact_every;
    }

    /// Detaches and returns the journal, if any (flushed state stays on
    /// disk).
    pub fn detach_journal(&mut self) -> Option<JournalWriter> {
        self.journal.take()
    }

    /// Mutable access to the attached journal (daemon epoch bumps).
    pub fn journal_mut(&mut self) -> Option<&mut JournalWriter> {
        self.journal.as_mut()
    }

    /// Resolves a resume token to the session it is bound to.
    pub fn resolve_resume_token(&self, token: u64) -> Option<AppId> {
        if token == 0 {
            return None;
        }
        self.resume_tokens.get(&token).copied()
    }

    /// The resume token bound to a session (0 = none).
    pub fn resume_token_of(&self, app: AppId) -> u64 {
        self.sessions.get(&app).map_or(0, |s| s.resume_token)
    }

    /// The last activation emitted for an app (replayed on resume).
    pub fn last_directive(&self, app: AppId) -> Option<&Directive> {
        self.last_directives.get(&app)
    }

    /// Highest app id ever registered on this core (including recovered
    /// history); frontends seed their id counters past it after a restart.
    pub fn max_app_seen(&self) -> u64 {
        self.max_app_seen
    }

    /// Number of measurement ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The exact integer micro-joule energy ledger (per-session
    /// attribution that conserves the modeled total bit-exactly; see
    /// [`harp_energy::EnergyLedger`]). Frontends read it to build
    /// telemetry frames; the per-tick decomposition is also returned via
    /// [`RmOutput::energy`].
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The display name of a live session, if registered.
    pub fn session_name(&self, app: AppId) -> Option<&str> {
        self.sessions.get(&app).map(|s| s.name.as_str())
    }

    /// Allocation rounds that overran the solver deadline and fell back to
    /// the previous feasible allocation (also surfaced as the
    /// `rm.degraded_ticks` metric).
    pub fn degraded_ticks(&self) -> u64 {
        self.degraded_ticks
    }

    /// The RM configuration.
    pub fn config(&self) -> &RmConfig {
        &self.cfg
    }

    /// The solver warm-start state carried between allocation rounds
    /// (memo/certificate counters for the overhead study).
    pub fn warm_start(&self) -> &WarmStart {
        &self.warm
    }

    /// Installs an operating-point profile for an application name (from a
    /// description file or a previous run).
    pub fn load_profile(&mut self, name: impl Into<String>, table: OperatingPointTable) {
        self.profiles.insert(name.into(), table);
    }

    /// The stored profile of an application name, if any.
    pub fn profile(&self, name: &str) -> Option<&OperatingPointTable> {
        self.profiles.get(name)
    }

    /// The exploration stage of a managed application (always `Stable` in
    /// offline mode).
    pub fn stage_of(&self, app: AppId) -> Option<Stage> {
        let s = self.sessions.get(&app)?;
        Some(self.session_stage(s))
    }

    /// Whether every managed application has reached the stable stage.
    pub fn all_stable(&self) -> bool {
        self.sessions
            .values()
            .all(|s| self.session_stage(s) == Stage::Stable)
    }

    /// Ids of all managed applications.
    pub fn managed_apps(&self) -> Vec<AppId> {
        let mut v: Vec<AppId> = self.sessions.keys().copied().collect();
        v.sort();
        v
    }

    fn session_stage(&self, s: &Session) -> Stage {
        if self.cfg.offline {
            Stage::Stable
        } else {
            s.explorer.stage()
        }
    }

    /// Registers an application (paper §4.1.1 steps 1–3). Returns the
    /// activations of the triggered allocation round.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Other`] on duplicate registration.
    pub fn register(&mut self, app: AppId, name: &str, provides_utility: bool) -> Result<RmOutput> {
        self.register_resumable(app, name, provides_utility, 0)
    }

    /// [`RmCore::register`] with a resume token bound to the session: a
    /// disconnected client presenting the token later reclaims this exact
    /// session instead of registering fresh (crash-recovery protocol,
    /// DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Other`] on duplicate registration or a token
    /// already bound to another session.
    pub fn register_resumable(
        &mut self,
        app: AppId,
        name: &str,
        provides_utility: bool,
        resume_token: u64,
    ) -> Result<RmOutput> {
        let mut sp = harp_obs::span(harp_obs::Subsystem::Rm, "register").field("app", app.0);
        if sp.is_active() {
            sp.set_field("name", name.to_string());
        }
        if self.sessions.contains_key(&app) {
            return Err(HarpError::other(format!("{app} already registered")));
        }
        if resume_token != 0 && self.resume_tokens.contains_key(&resume_token) {
            return Err(HarpError::other(format!(
                "resume token {resume_token} already bound"
            )));
        }
        let candidates = match &self.candidates {
            Some(space) => Arc::clone(space),
            None => {
                let space = Explorer::candidate_space(&self.shape, &self.hw.capacity())?;
                self.candidates.insert(space).clone()
            }
        };
        let mut explorer =
            Explorer::with_candidates(&self.shape, candidates, self.cfg.exploration.clone())?;
        if let Some(profile) = self.profiles.get(name) {
            explorer.seed_measured(profile.iter_measured().map(|(_, p)| (p.erv.clone(), p.nfc)));
        }
        self.sessions.insert(
            app,
            Session {
                name: name.to_string(),
                provides_utility,
                explorer,
                envelope: Vec::new(),
                active_erv: None,
                samples_since_realloc: 0,
                co_allocated: false,
                resume_token,
                priority: 1.0,
                request: None,
            },
        );
        if resume_token != 0 {
            self.resume_tokens.insert(resume_token, app);
        }
        self.max_app_seen = self.max_app_seen.max(app.0);
        let out = self.reallocate()?;
        self.journal_append(JournalRecord::Register {
            app: app.0,
            name: name.to_string(),
            provides_utility,
            resume_token,
        });
        self.note_output(&out);
        Ok(out)
    }

    /// The live operating-point table of a managed application.
    pub fn session_table(&self, app: AppId) -> Option<&OperatingPointTable> {
        self.sessions.get(&app).map(|s| s.explorer.table())
    }

    /// A snapshot of every known operating-point table: stored profiles
    /// overlaid with the live tables of currently managed applications
    /// (used by the learning-phase study, Fig. 8).
    pub fn snapshot_profiles(&self) -> HashMap<String, OperatingPointTable> {
        let mut out = self.profiles.clone();
        for s in self.sessions.values() {
            let table: OperatingPointTable = s
                .explorer
                .table()
                .iter_measured()
                .map(|(_, p)| harp_types::OperatingPoint::new(p.erv.clone(), p.nfc))
                .collect();
            out.insert(s.name.clone(), table);
        }
        out
    }

    /// Submits operating points for a registered application (paper §4.1.1
    /// step 2: points parsed from the application description file). The
    /// points are recorded as measured and an allocation round runs.
    ///
    /// The whole batch is validated before any point is recorded, so a
    /// malformed submission leaves the session table untouched rather than
    /// half-updated.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for unknown applications,
    /// [`HarpError::ShapeMismatch`] for points whose vector shape differs
    /// from the machine's, and [`HarpError::Numeric`] for non-finite or
    /// negative utility/power values.
    pub fn submit_points(
        &mut self,
        app: AppId,
        points: Vec<(ExtResourceVector, NonFunctional)>,
    ) -> Result<RmOutput> {
        let _sp = harp_obs::span(harp_obs::Subsystem::Rm, "submit_points")
            .field("app", app.0)
            .field("points", points.len());
        let session = self
            .sessions
            .get_mut(&app)
            .ok_or_else(|| HarpError::not_found(format!("{app}")))?;
        for (erv, nfc) in &points {
            if !erv.has_shape(&self.shape) {
                return Err(HarpError::ShapeMismatch {
                    detail: format!(
                        "submitted point shape {:?} does not match machine shape {:?}",
                        erv.shape(),
                        self.shape
                    ),
                });
            }
            if !nfc.utility.is_finite()
                || !nfc.power.is_finite()
                || nfc.utility < 0.0
                || nfc.power < 0.0
            {
                return Err(HarpError::Numeric {
                    detail: format!(
                        "submitted point has non-finite or negative characteristics \
                         (utility {}, power {})",
                        nfc.utility, nfc.power
                    ),
                });
            }
        }
        let journaled: Option<Vec<JournalPoint>> = self
            .journal
            .is_some()
            .then(|| points.iter().map(encode_point).collect());
        session.explorer.seed_measured(points);
        let out = self.reallocate()?;
        if let Some(points) = journaled {
            self.journal_append(JournalRecord::SubmitPoints { app: app.0, points });
        }
        self.note_output(&out);
        Ok(out)
    }

    /// The priority weight of a managed application (1.0 = default class).
    pub fn priority_of(&self, app: AppId) -> Option<f64> {
        self.sessions.get(&app).map(|s| s.priority)
    }

    /// Changes an application's tenant priority weight and re-balances.
    /// The weight scales the session's option costs in the MMKP objective
    /// (see `harp_types::PriorityClass` for the canonical classes): heavier
    /// sessions hold their preferred operating points under contention
    /// while lighter ones absorb the downgrade. Setting the current weight
    /// again is a no-op: no allocation round runs and nothing is
    /// journaled, so replays stay bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for unknown applications and
    /// [`HarpError::Numeric`] for a non-finite or non-positive weight.
    pub fn set_priority(&mut self, app: AppId, weight: f64) -> Result<RmOutput> {
        let _sp = harp_obs::span(harp_obs::Subsystem::Rm, "set_priority")
            .field("app", app.0)
            .field("weight", weight);
        if !weight.is_finite() || weight <= 0.0 {
            return Err(HarpError::Numeric {
                detail: format!("priority weight must be finite and positive, got {weight}"),
            });
        }
        let session = self
            .sessions
            .get_mut(&app)
            .ok_or_else(|| HarpError::not_found(format!("{app} is not registered")))?;
        if session.priority == weight {
            return Ok(RmOutput::default());
        }
        session.priority = weight;
        let out = self.reallocate()?;
        self.journal_append(JournalRecord::SetPriority {
            app: app.0,
            weight_bits: weight.to_bits(),
        });
        self.note_output(&out);
        Ok(out)
    }

    /// Deregisters an application: its learned profile is persisted (the
    /// self-improving store of §4.3) and resources are re-balanced.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for unknown applications — an
    /// out-of-order deregistration (duplicate exit, exit before register)
    /// is rejected without triggering a spurious allocation round.
    pub fn deregister(&mut self, app: AppId) -> Result<RmOutput> {
        let _sp = harp_obs::span(harp_obs::Subsystem::Rm, "deregister").field("app", app.0);
        let Some(s) = self.sessions.remove(&app) else {
            return Err(HarpError::not_found(format!("{app} is not registered")));
        };
        if s.resume_token != 0 {
            self.resume_tokens.remove(&s.resume_token);
        }
        self.last_directives.remove(&app);
        self.profiles.insert(s.name, s.explorer.into_table());
        self.attributor.remove(app);
        self.ledger.remove(app);
        self.last_cpu.remove(&app);
        let out = if self.sessions.is_empty() {
            RmOutput::default()
        } else {
            self.reallocate()?
        };
        self.journal_append(JournalRecord::Deregister { app: app.0 });
        self.note_output(&out);
        Ok(out)
    }

    /// The usable-core mask: every hardware-online core that is not in
    /// quarantine. This is the set the allocator may grant from.
    pub fn availability(&self) -> CoreAvailability {
        let mut avail = CoreAvailability::full(&self.hw);
        for i in 0..self.hw.num_cores() {
            if !self.faults.is_online(CoreId(i)) || self.health[i].quarantined_until != 0 {
                avail.ban(CoreId(i));
            }
        }
        avail
    }

    /// The current degraded-hardware state (hotplug, caps, sensor dropout).
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Sessions migrated off failing cores since creation.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Cores currently held in quarantine (hardware-online, policy-banned).
    pub fn quarantined_cores(&self) -> Vec<CoreId> {
        (0..self.hw.num_cores())
            .filter(|&i| self.health[i].quarantined_until != 0)
            .map(CoreId)
            .collect()
    }

    /// Whether `core` may currently receive work.
    pub fn core_available(&self, core: CoreId) -> bool {
        self.faults.core_in_range(core)
            && self.faults.is_online(core)
            && self.health[core.0].quarantined_until == 0
    }

    /// Number of cores the allocator may currently grant.
    pub fn available_core_count(&self) -> usize {
        (0..self.hw.num_cores())
            .filter(|&i| self.core_available(CoreId(i)))
            .count()
    }

    /// Injects one hardware-degradation event (paper-style hotplug,
    /// thermal capping, or sensor dropout; DESIGN.md §15).
    ///
    /// A `CoreFail` of an in-service core evicts every session holding it
    /// (counted in `rm.migrations`), shrinks the MMKP capacity vector and
    /// forces a cold re-solve. A `CoreRecover` either readmits the core
    /// (again a topology change, so cold re-solve) or — once the core has
    /// failed [`QUARANTINE_AFTER_FAILS`] times — places it in probation
    /// with exponential-backoff re-admission. Thermal caps do not change
    /// the capacity vector; they schedule a full re-solve so the solver
    /// re-reads the shifted power landscape. Applied events are journaled
    /// and replay deterministically on recovery.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::NotFound`] for an out-of-range core or
    /// cluster; allocation errors propagate from the eviction re-solve.
    pub fn inject_fault(&mut self, ev: &FaultEvent) -> Result<RmOutput> {
        let (kind, a, b) = ev.encode_words();
        let (out, applied) = self.fault_inner(ev)?;
        if applied {
            self.journal_append(JournalRecord::Fault { kind, a, b });
            self.note_output(&out);
        }
        Ok(out)
    }

    fn fault_inner(&mut self, ev: &FaultEvent) -> Result<(RmOutput, bool)> {
        let mut realloc = false;
        match *ev {
            FaultEvent::CoreFail { core } => {
                if !self.faults.core_in_range(core) {
                    return Err(HarpError::not_found(format!("{core} out of range")));
                }
                if !self.faults.is_online(core) {
                    return Ok((RmOutput::default(), false));
                }
                let was_available = self.health[core.0].quarantined_until == 0;
                self.faults.apply(ev);
                let h = &mut self.health[core.0];
                h.fails = h.fails.saturating_add(1);
                h.quarantined_until = 0;
                h.last_change_tick = self.ticks;
                if was_available {
                    // Evict and migrate every session holding the dead core.
                    let holders = self
                        .sessions
                        .iter()
                        .filter(|(_, s)| s.envelope.contains(&core))
                        .map(|(a, _)| *a)
                        .collect::<Vec<_>>();
                    if harp_obs::enabled() {
                        for &app in &holders {
                            harp_obs::instant(harp_obs::Subsystem::Rm, "migrate")
                                .field("app", app.0)
                                .field("core", core.0 as u64);
                        }
                    }
                    self.migrations += holders.len() as u64;
                    harp_obs::metrics::counter("rm.migrations").add(holders.len() as u64);
                    realloc = true;
                }
            }
            FaultEvent::CoreRecover { core } => {
                if !self.faults.core_in_range(core) {
                    return Err(HarpError::not_found(format!("{core} out of range")));
                }
                if self.faults.is_online(core) {
                    // Already recovered (possibly sitting in quarantine).
                    return Ok((RmOutput::default(), false));
                }
                self.faults.apply(ev);
                let h = &mut self.health[core.0];
                h.last_change_tick = self.ticks;
                if h.fails >= QUARANTINE_AFTER_FAILS {
                    // Repeat offender: probation with exponential backoff
                    // instead of immediate readmission.
                    let shift = (h.fails - QUARANTINE_AFTER_FAILS).min(QUARANTINE_BACKOFF_CAP);
                    h.quarantined_until = self.ticks + (QUARANTINE_BASE_TICKS << shift);
                    if harp_obs::enabled() {
                        harp_obs::instant(harp_obs::Subsystem::Rm, "quarantine")
                            .field("core", core.0 as u64)
                            .field("fails", u64::from(h.fails))
                            .field("until_tick", h.quarantined_until);
                    }
                } else {
                    realloc = true;
                }
            }
            FaultEvent::ThermalCap { cluster, permille } => {
                if cluster as usize >= self.hw.num_kinds() {
                    return Err(HarpError::not_found(format!(
                        "cluster {cluster} out of range"
                    )));
                }
                if !self.faults.apply(ev) {
                    return Ok((RmOutput::default(), false));
                }
                let _ = permille;
                // Capacity vectors are unchanged; the power landscape is
                // not, so schedule a full re-solve on the next tick.
                self.pending_resolve = true;
            }
            FaultEvent::SensorDrop { ticks } => {
                if ticks == 0 || !self.faults.apply(ev) {
                    return Ok((RmOutput::default(), false));
                }
            }
        }
        harp_obs::metrics::counter("platform.faults_injected").inc();
        harp_obs::metrics::counter(match ev.kind() {
            harp_types::FaultKind::CoreFail => "platform.fault.core_fail",
            harp_types::FaultKind::CoreRecover => "platform.fault.core_recover",
            harp_types::FaultKind::ThermalCap => "platform.fault.thermal_cap",
            harp_types::FaultKind::SensorDrop => "platform.fault.sensor_drop",
        })
        .inc();
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Rm, "fault")
                .field("kind", ev.kind().as_str())
                .field("available_cores", self.available_core_count() as u64);
        }
        self.publish_fault_gauges();
        let out = if realloc {
            // Topology changed: the warm-start state describes a machine
            // that no longer exists, so the next solve must run cold.
            self.warm.clear();
            if self.sessions.is_empty() {
                RmOutput::default()
            } else {
                self.reallocate()?
            }
        } else {
            RmOutput::default()
        };
        Ok((out, true))
    }

    fn publish_fault_gauges(&self) {
        harp_obs::metrics::gauge("rm.quarantined_cores").set(self.quarantined_cores().len() as i64);
        harp_obs::metrics::gauge("rm.offline_cores").set(self.faults.offline_cores().len() as i64);
    }

    /// Processes one measurement tick (paper §5.1/§5.3): energy
    /// attribution, EMA-smoothed sampling, exploration progress, and —
    /// when campaigns complete or the stable re-evaluation cycle elapses —
    /// new allocation rounds.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors (which indicate an inconsistent
    /// machine description rather than a runtime condition).
    pub fn tick(&mut self, obs: &TickObservations) -> Result<RmOutput> {
        self.ticks += 1;
        harp_obs::set_tick(self.ticks);
        let mut sp = harp_obs::span(harp_obs::Subsystem::Rm, "tick").field("apps", obs.apps.len());
        let out = self.tick_inner(obs);
        if let Ok(out) = &out {
            if sp.is_active() {
                sp.set_field("directives", out.directives.len());
                sp.set_field("solves", out.solves);
                sp.set_field("solve_work", out.solve_work);
            }
        }
        if let Ok(out) = &out {
            if self.journal.is_some() {
                self.journal_append(JournalRecord::Tick {
                    dt_bits: obs.dt_s.to_bits(),
                    package_energy_bits: obs.package_energy_j.to_bits(),
                    apps: obs
                        .apps
                        .iter()
                        .map(|a| JournalAppObs {
                            app: a.app.0,
                            utility_rate_bits: a.utility_rate.to_bits(),
                            cpu_time_bits: a.cpu_time.iter().map(|v| v.to_bits()).collect(),
                        })
                        .collect(),
                });
            }
            self.note_output(out);
        }
        out
    }

    fn tick_inner(&mut self, obs: &TickObservations) -> Result<RmOutput> {
        // Energy attribution from observable counters. While the package
        // power sensor is dark the tick is charged zero energy and the
        // baseline reading is left untouched, so the whole dark-window
        // delta lands on the first tick after the sensor returns: deferred
        // attribution keeps ledger conservation exact (DESIGN.md §15).
        let sensor_dark = self.faults.consume_sensor_tick();
        let energy_delta = if sensor_dark {
            harp_obs::metrics::counter("platform.sensor_dark_ticks").inc();
            0.0
        } else {
            let d = (obs.package_energy_j - self.last_package_energy).max(0.0);
            self.last_package_energy = obs.package_energy_j;
            d
        };
        let mut cpu_deltas = Vec::with_capacity(obs.apps.len());
        for a in &obs.apps {
            // Read the previous sample in place (cloning it every tick was
            // pure allocation churn) and reuse its buffer for the update.
            let prev = self.last_cpu.get(&a.app);
            let delta: Vec<f64> = a
                .cpu_time
                .iter()
                .enumerate()
                .map(|(i, now)| {
                    let before = prev.and_then(|p| p.get(i)).copied().unwrap_or(0.0);
                    (now - before).max(0.0)
                })
                .collect();
            self.last_cpu
                .entry(a.app)
                .or_default()
                .clone_from(&a.cpu_time);
            cpu_deltas.push((a.app, delta));
        }
        self.attributor.update(obs.dt_s, energy_delta, &cpu_deltas);

        // Integer ledger over the same model: per-session weights are the
        // attributor's Σ_k γ_k·T_k, so the exact micro-joule split follows
        // the float attribution proportions. Sequential tick-path
        // arithmetic only — solver parallelism cannot reach it.
        let weights: Vec<(AppId, f64)> = cpu_deltas
            .iter()
            .map(|(app, times)| {
                let w: f64 = times
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| self.attributor.coefficient(k) * t.max(0.0))
                    .sum();
                (*app, w)
            })
            .collect();
        let ledger_tick = self.ledger.charge(energy_delta, &weights);
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Rm, "energy")
                .field("tick_uj", ledger_tick.tick_uj)
                .field("idle_uj", ledger_tick.idle_tick_uj)
                .field("total_uj", self.ledger.total_uj())
                .field("sessions", ledger_tick.entries.len() as u64);
        }

        let mut out = RmOutput::default();
        let mut want_realloc = false;
        let mut retarget: Vec<AppId> = Vec::new();

        for a in &obs.apps {
            let power = self.attributor.last_power(a.app);
            let Some(session) = self.sessions.get_mut(&a.app) else {
                continue;
            };
            if session.co_allocated {
                // Co-allocation distorts measurements; monitoring is
                // suspended (paper §4.2.2).
                continue;
            }
            if self.cfg.offline {
                continue;
            }
            if session.explorer.current_target().is_some() {
                let stage_before = session.explorer.stage();
                match session.explorer.record_sample(a.utility_rate, power)? {
                    SampleOutcome::Continue => {}
                    SampleOutcome::TargetDone => {
                        session.explorer.refresh_predictions();
                        let stage_after = session.explorer.stage();
                        if harp_obs::enabled() {
                            harp_obs::instant(harp_obs::Subsystem::Explore, "campaign_done")
                                .field("app", a.app.0)
                                .field("stage", stage_name(stage_after));
                            if stage_after != stage_before {
                                harp_obs::instant(harp_obs::Subsystem::Explore, "stage_transition")
                                    .field("app", a.app.0)
                                    .field("from", stage_name(stage_before))
                                    .field("to", stage_name(stage_after));
                            }
                        }
                        if stage_after == Stage::Stable {
                            want_realloc = true;
                        } else {
                            retarget.push(a.app);
                        }
                    }
                }
            } else if let Some(erv) = session.active_erv.clone() {
                session.explorer.record_ambient(&erv, a.utility_rate, power);
                session.samples_since_realloc += 1;
                if session.samples_since_realloc >= self.cfg.exploration.stable_realloc_every {
                    session.samples_since_realloc = 0;
                    want_realloc = true;
                }
            }
        }

        // Quarantine re-admission and health decay (DESIGN.md §15): a core
        // whose probation expired rejoins the usable set (cold re-solve,
        // since the topology changed), and an in-service core that stayed
        // clean for HEALTH_DECAY_TICKS has one past failure forgiven.
        let now = self.ticks;
        let mut readmitted = false;
        for (i, h) in self.health.iter_mut().enumerate() {
            if h.quarantined_until != 0 && now >= h.quarantined_until {
                h.quarantined_until = 0;
                h.last_change_tick = now;
                readmitted = true;
                if harp_obs::enabled() {
                    harp_obs::instant(harp_obs::Subsystem::Rm, "readmit")
                        .field("core", i as u64)
                        .field("fails", u64::from(h.fails));
                }
            } else if h.fails > 0
                && h.quarantined_until == 0
                && self.faults.is_online(CoreId(i))
                && now.saturating_sub(h.last_change_tick) >= HEALTH_DECAY_TICKS
            {
                h.fails -= 1;
                h.last_change_tick = now;
            }
        }
        if readmitted {
            self.warm.clear();
            self.publish_fault_gauges();
            if !self.sessions.is_empty() {
                want_realloc = true;
            }
        }

        // A degraded round leaves the previous allocation in place; retry
        // the full solve on the next tick even if nothing else changed.
        if want_realloc || self.pending_resolve {
            out.merge(self.reallocate()?);
        } else {
            for app in retarget {
                if let Some(d) = self.next_target_directive(app) {
                    out.merge(RmOutput {
                        directives: vec![d],
                        solves: 0,
                        solve_work: 0.0,
                        degraded: false,
                        energy: None,
                    });
                }
            }
        }
        out.energy = Some(ledger_tick);
        Ok(out)
    }

    /// Chooses the next exploration target for `app` within its existing
    /// envelope and produces the corresponding activation.
    fn next_target_directive(&mut self, app: AppId) -> Option<Directive> {
        // Disjoint field borrows: the machine description is only read
        // while the session is mutated (cloning it per call was churn).
        let (hw, shape) = (&self.hw, &self.shape);
        let session = self.sessions.get_mut(&app)?;
        let envelope_rv = cores_to_rv(&session.envelope, hw);
        // With the candidate space within the envelope exhausted, run on
        // the full envelope until the next allocation round.
        let erv = session
            .explorer
            .begin_target(&envelope_rv)
            .unwrap_or_else(|| full_envelope_erv(&session.envelope, hw, shape));
        session.active_erv = Some(erv.clone());
        Some(directive_for(app, erv, &session.envelope, hw))
    }

    /// Runs one allocation round (paper §4.2 + §5.3 integration): MMKP over
    /// the Pareto-optimal operating points of every application, leftover
    /// cores to exploring applications, exploration targets within the
    /// envelopes.
    fn reallocate(&mut self) -> Result<RmOutput> {
        let mut sp = harp_obs::span(harp_obs::Subsystem::Rm, "reallocate");
        let avail = self.availability();
        // Only a degraded platform takes the masked path, so the healthy
        // solve stays bit-identical to the pre-fault code.
        let degraded_hw = !avail.is_full();
        let mut ids: Vec<AppId> = self.sessions.keys().copied().collect();
        ids.sort_unstable();

        // 1. Allocation requests from sessions with usable tables. Each
        //    session lends the request it keeps; only one whose table or
        //    priority changed since its last round builds anything here.
        let mut requests = Vec::with_capacity(ids.len());
        let mut rebuilt = 0u64;
        for &app in &ids {
            let session = self.sessions.get_mut(&app).expect("session exists");
            requests.extend(session.lend_request(app, &mut rebuilt));
        }
        if rebuilt > 0 {
            self.option_sets_rebuilt += rebuilt;
            harp_obs::metrics::counter("rm.option_sets_rebuilt").add(rebuilt);
        }
        // Under shrunk capacity the solver sees a per-round view without
        // the options that no longer fit the usable cores; an app left
        // with no options falls through to the co-allocated
        // whole-available-machine envelope below instead of failing the
        // solve. The kept requests stay unfiltered: capacity may return.
        let fitting: Option<Vec<AllocRequest>> = degraded_hw.then(|| {
            let eff_capacity = avail.capacity(&self.hw);
            requests
                .iter()
                .filter_map(|r| {
                    let options: Vec<AllocOption> = r
                        .options
                        .iter()
                        .filter(|o| o.erv.fits_within(&eff_capacity))
                        .cloned()
                        .collect();
                    (!options.is_empty()).then_some(AllocRequest {
                        app: r.app,
                        options,
                    })
                })
                .collect()
        });
        let solver_view = fitting.as_deref().unwrap_or(&requests);

        let deadline = match self.cfg.solve_deadline_iters {
            0 => SolveDeadline::UNBOUNDED,
            iters => SolveDeadline::iterations(iters),
        };
        let result = allocate_avail(
            solver_view,
            &self.hw,
            degraded_hw.then_some(&avail),
            SolverKind::Lagrangian,
            &mut self.warm,
            deadline,
        );
        let num_requests = solver_view.len();
        for request in requests {
            let session = self.sessions.get_mut(&request.app);
            let kept = session.and_then(|s| s.request.as_mut());
            kept.expect("lent by this session").request = Some(request);
        }
        let mut allocation = match result {
            Ok(a) => a,
            Err(HarpError::DeadlineExceeded { .. }) => {
                drop(sp);
                return self.degraded_fallback(&ids);
            }
            Err(e) => return Err(e),
        };
        self.pending_resolve = false;
        let co = allocation.co_allocated;
        if sp.is_active() {
            sp.set_field("requests", num_requests);
            sp.set_field("co_allocated", co);
            sp.set_field("solve_work", allocation.solve_work);
        }
        let (hw, shape) = (&self.hw, &self.shape);

        // 2. Exploring sessions share the cores the selection left over
        //    evenly (round-robin per kind keeps the shares heterogeneous).
        let exploring: Vec<AppId> = if self.cfg.offline {
            Vec::new()
        } else {
            let measuring = |app: &AppId| self.sessions[app].explorer.stage() != Stage::Stable;
            ids.iter().copied().filter(measuring).collect()
        };
        let mut extra: HashMap<AppId, Vec<CoreId>> = HashMap::new();
        if !exploring.is_empty() && !co {
            let mut used = vec![false; hw.num_cores()];
            for core in allocation.choices.values().flat_map(|c| &c.cores) {
                used[core.0] = true;
            }
            let leftovers = (0..hw.num_cores())
                .map(CoreId)
                .filter(|c| !used[c.0] && avail.is_available(*c));
            for (i, core) in leftovers.enumerate() {
                extra
                    .entry(exploring[i % exploring.len()])
                    .or_default()
                    .push(core);
            }
        }

        // 3. Build envelopes and activations.
        let mut out = RmOutput {
            directives: Vec::with_capacity(ids.len()),
            solves: 1,
            solve_work: allocation.solve_work,
            degraded: false,
            energy: None,
        };
        for &app in &ids {
            // `exploring` is a subsequence of the sorted `ids`.
            let measures = !co && exploring.binary_search(&app).is_ok();
            let session = self.sessions.get_mut(&app).expect("session exists");
            session.samples_since_realloc = 0;
            let directive = match allocation.choices.remove(&app) {
                // A session that is not measuring runs exactly its selected
                // point on exactly the granted cores (leftovers only go to
                // measuring sessions), so the choice is the activation,
                // cores and threads as `assign_cores` laid them out.
                Some(c) if !measures => {
                    debug_assert!(!extra.contains_key(&app));
                    session.envelope.clone_from(&c.cores);
                    session.co_allocated = co;
                    session.active_erv = Some(c.erv.clone());
                    Directive::emit(app, c.erv, c.cores, c.hw_threads)
                }
                // A measuring session picks its next target within its
                // selected cores plus its share of the leftovers; a session
                // the solver had nothing for runs its whole envelope.
                choice => {
                    let mut envelope = choice.map(|c| c.cores).unwrap_or_default();
                    envelope.extend(extra.remove(&app).into_iter().flatten());
                    let session_co = if envelope.is_empty() {
                        // Nothing at all for this app (e.g. empty table and
                        // no leftovers): co-allocate it onto the whole
                        // usable machine.
                        envelope = avail.available_cores();
                        true
                    } else {
                        co
                    };
                    envelope.sort_unstable();
                    let target = if measures && !session_co {
                        let envelope_rv = cores_to_rv(&envelope, hw);
                        session.explorer.begin_target(&envelope_rv)
                    } else {
                        None
                    };
                    let erv = target.unwrap_or_else(|| full_envelope_erv(&envelope, hw, shape));
                    session.co_allocated = session_co;
                    session.active_erv = Some(erv.clone());
                    let directive = directive_for(app, erv, &envelope, hw);
                    session.envelope = envelope;
                    directive
                }
            };
            out.directives.push(directive);
        }
        Ok(out)
    }

    /// The solver overran its deadline: keep the previous feasible
    /// allocation applied (sessions, envelopes and directives untouched),
    /// hand any application that never received an activation the whole
    /// machine co-allocated, and schedule a full re-solve for the next
    /// tick. The round is marked degraded for the frontend and the
    /// `rm.degraded_ticks` metric.
    fn degraded_fallback(&mut self, ids: &[AppId]) -> Result<RmOutput> {
        self.pending_resolve = true;
        self.degraded_ticks += 1;
        harp_obs::metrics::counter("rm.degraded_ticks").inc();
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Rm, "degraded_tick").field("apps", ids.len());
        }
        // The overrun burned up to the configured iteration budget of
        // solver time; charge that fraction of the reference schedule.
        let work = if self.cfg.solve_deadline_iters > 0 {
            (self.cfg.solve_deadline_iters as f64 / REFERENCE_ITERS as f64).min(1.0)
        } else {
            1.0
        };
        let mut out = RmOutput {
            directives: Vec::new(),
            solves: 1,
            solve_work: work,
            degraded: true,
            energy: None,
        };
        let usable = self.availability().available_cores();
        let (hw, shape) = (&self.hw, &self.shape);
        for &app in ids {
            if self.last_directives.contains_key(&app) {
                // The previous activation stays applied; nothing to send.
                continue;
            }
            // A new arrival with no prior activation must not be left
            // hanging until the re-solve: the whole usable machine,
            // co-allocated.
            let session = self.sessions.get_mut(&app).expect("session exists");
            session.envelope.clone_from(&usable);
            session.co_allocated = true;
            session.samples_since_realloc = 0;
            let erv = full_envelope_erv(&usable, hw, shape);
            session.active_erv = Some(erv.clone());
            out.directives.push(directive_for(app, erv, &usable, hw));
        }
        Ok(out)
    }

    /// Appends a record to the attached journal, compacting when due. A
    /// journal write failure detaches the journal (availability over
    /// durability) and is surfaced via the `rm.journal_errors` counter.
    fn journal_append(&mut self, rec: JournalRecord) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        if j.append(&rec).is_err() {
            harp_obs::metrics::counter("rm.journal_errors").inc();
            self.journal = None;
            return;
        }
        self.ops_since_compact += 1;
        if self.compact_every > 0 && self.ops_since_compact >= self.compact_every {
            self.compact_now();
        }
    }

    /// Rewrites the journal as one snapshot of the durable state.
    pub fn compact_now(&mut self) {
        let snap = JournalRecord::Snapshot(self.snapshot());
        if let Some(j) = self.journal.as_mut() {
            if j.rewrite(std::slice::from_ref(&snap)).is_err() {
                harp_obs::metrics::counter("rm.journal_errors").inc();
            } else {
                harp_obs::metrics::counter("rm.journal_compactions").inc();
            }
        }
        self.ops_since_compact = 0;
    }

    /// Captures the durable state: stored profiles, live sessions with
    /// their measured points and resume tokens, and the id/tick counters.
    pub fn snapshot(&self) -> Snapshot {
        let mut profiles: Vec<(String, Vec<JournalPoint>)> = self
            .profiles
            .iter()
            .map(|(name, table)| (name.clone(), encode_table(table)))
            .collect();
        profiles.sort_by(|a, b| a.0.cmp(&b.0));
        let mut sessions: Vec<SnapshotSession> = self
            .sessions
            .iter()
            .map(|(app, s)| SnapshotSession {
                app: app.0,
                name: s.name.clone(),
                provides_utility: s.provides_utility,
                resume_token: s.resume_token,
                priority_bits: s.priority.to_bits(),
                points: encode_table(s.explorer.table()),
            })
            .collect();
        sessions.sort_by_key(|s| s.app);
        let healthy = self.faults.is_default()
            && self.migrations == 0
            && self.health.iter().all(|h| *h == CoreHealth::default());
        let faults = if healthy {
            // A healthy platform snapshots to the same bytes as before the
            // fault layer existed.
            SnapshotFaults::default()
        } else {
            SnapshotFaults {
                online: (0..self.hw.num_cores())
                    .map(|i| u64::from(self.faults.is_online(CoreId(i))))
                    .collect(),
                fails: self.health.iter().map(|h| u64::from(h.fails)).collect(),
                quarantined_until: self.health.iter().map(|h| h.quarantined_until).collect(),
                last_change_tick: self.health.iter().map(|h| h.last_change_tick).collect(),
                caps: (0..self.hw.num_kinds())
                    .map(|c| u64::from(self.faults.cap_permille(c)))
                    .collect(),
                sensor_drop_ticks: self.faults.sensor_drop_ticks(),
                faults_injected: self.faults.faults_injected(),
                migrations: self.migrations,
            }
        };
        Snapshot {
            profiles,
            sessions,
            max_app_seen: self.max_app_seen,
            ticks: self.ticks,
            faults,
        }
    }

    /// Replays one journal record through the real entry points.
    fn apply_record(&mut self, rec: &JournalRecord) -> Result<()> {
        match rec {
            JournalRecord::Register {
                app,
                name,
                provides_utility,
                resume_token,
            } => {
                self.register_resumable(AppId(*app), name, *provides_utility, *resume_token)?;
            }
            JournalRecord::SubmitPoints { app, points } => {
                let points = decode_points(&self.shape, points)?;
                self.submit_points(AppId(*app), points)?;
            }
            JournalRecord::Deregister { app } => {
                self.deregister(AppId(*app))?;
            }
            JournalRecord::Tick {
                dt_bits,
                package_energy_bits,
                apps,
            } => {
                let obs = TickObservations {
                    dt_s: f64::from_bits(*dt_bits),
                    package_energy_j: f64::from_bits(*package_energy_bits),
                    apps: apps
                        .iter()
                        .map(|a| AppObservation {
                            app: AppId(a.app),
                            utility_rate: f64::from_bits(a.utility_rate_bits),
                            cpu_time: a.cpu_time_bits.iter().map(|b| f64::from_bits(*b)).collect(),
                        })
                        .collect(),
                };
                self.tick(&obs)?;
            }
            JournalRecord::SetPriority { app, weight_bits } => {
                self.set_priority(AppId(*app), f64::from_bits(*weight_bits))?;
            }
            JournalRecord::Fault { kind, a, b } => {
                let ev = FaultEvent::decode_words(*kind, *a, *b).ok_or_else(|| {
                    HarpError::other(format!("journal fault record with unknown kind {kind}"))
                })?;
                self.inject_fault(&ev)?;
            }
            JournalRecord::EpochBump { .. } => {} // daemon-level, not RM state
            JournalRecord::Snapshot(s) => self.apply_snapshot(s)?,
        }
        Ok(())
    }

    /// Restores durable state from a snapshot through the real register /
    /// submit paths (so allocation, warm-start and exploration state are
    /// re-derived consistently).
    fn apply_snapshot(&mut self, s: &Snapshot) -> Result<()> {
        // Degraded-hardware state first, so the reallocations triggered by
        // the session re-registrations below already see the restored
        // topology and quarantine set.
        if !s.faults.is_default() {
            let n = self.hw.num_cores();
            for (i, &on) in s.faults.online.iter().enumerate().take(n) {
                self.faults.set_online(CoreId(i), on != 0);
            }
            for (i, h) in self.health.iter_mut().enumerate() {
                *h = CoreHealth {
                    fails: s.faults.fails.get(i).map_or(0, |&f| f as u32),
                    quarantined_until: s.faults.quarantined_until.get(i).copied().unwrap_or(0),
                    last_change_tick: s.faults.last_change_tick.get(i).copied().unwrap_or(0),
                };
            }
            for (c, &cap) in s.faults.caps.iter().enumerate().take(self.hw.num_kinds()) {
                self.faults.set_cap_permille(c, cap as u32);
            }
            self.faults
                .set_sensor_drop_ticks(s.faults.sensor_drop_ticks);
            self.faults.set_faults_injected(s.faults.faults_injected);
            self.migrations = s.faults.migrations;
            self.publish_fault_gauges();
        }
        for (name, points) in &s.profiles {
            self.profiles.insert(
                name.clone(),
                table_from_points(decode_points(&self.shape, points)?),
            );
        }
        for sess in &s.sessions {
            self.register_resumable(
                AppId(sess.app),
                &sess.name,
                sess.provides_utility,
                sess.resume_token,
            )?;
            // Restore the weight directly (no extra allocation round): the
            // submit below — or the first post-recovery round — re-derives
            // the allocation with the restored weight in effect.
            let weight = f64::from_bits(sess.priority_bits);
            if let Some(live) = self.sessions.get_mut(&AppId(sess.app)) {
                live.priority = if weight.is_finite() && weight > 0.0 {
                    weight
                } else {
                    1.0
                };
            }
            if !sess.points.is_empty() {
                let points = decode_points(&self.shape, &sess.points)?;
                self.submit_points(AppId(sess.app), points)?;
            }
        }
        self.max_app_seen = self.max_app_seen.max(s.max_app_seen);
        self.ticks = self.ticks.max(s.ticks);
        Ok(())
    }

    /// Remembers the last directive emitted per app (resume replay). A
    /// round re-emits every session's activation and most repeat the
    /// previous one, so only those that differ are copied.
    fn note_output(&mut self, out: &RmOutput) {
        for d in &out.directives {
            match self.last_directives.get_mut(&d.app) {
                Some(last) if last == d => {}
                Some(last) => *last = d.clone(),
                None => {
                    self.last_directives.insert(d.app, d.clone());
                }
            }
        }
    }

    /// Session requests rebuilt from their tables since creation: a round
    /// rebuilds one only for a session whose table or priority changed
    /// since its last round (also the `rm.option_sets_rebuilt` metric).
    pub fn option_sets_rebuilt(&self) -> u64 {
        self.option_sets_rebuilt
    }

    /// Test support: every way the state kept between rounds disagrees
    /// with recomputing it. A kept request whose key still holds must equal
    /// the request built from the session's table now, and the last
    /// activation of every session — built from the solver's `Choice` or
    /// from the envelope — must equal the one derived from the session's
    /// active vector and envelope.
    #[doc(hidden)]
    pub fn round_cache_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (&app, s) in &self.sessions {
            let key = (s.explorer.generation(), s.priority.to_bits());
            if let Some(kept) = s.request.as_ref().filter(|c| c.key == key) {
                if kept.request != build_request(app, &s.explorer, s.priority) {
                    violations.push(format!("{app}: kept request differs from a rebuilt one"));
                }
            }
            if let Some(d) = self.last_directives.get(&app) {
                let derived = s.active_erv.as_ref().map(|erv| {
                    let (cores, hw_threads) = envelope_grant(erv, &s.envelope, &self.hw);
                    Directive {
                        app,
                        erv: erv.clone(),
                        cores,
                        hw_threads,
                        parallelism: erv.total_threads(),
                    }
                });
                if derived.as_ref() != Some(d) {
                    violations.push(format!(
                        "{app}: last activation {d:?} differs from the derived {derived:?}"
                    ));
                }
            }
        }
        violations
    }

    /// A deterministic, human-diffable digest of the full RM state. Two
    /// cores that processed the same op sequence — e.g. a live core and its
    /// journal-recovered twin — produce identical fingerprints; any state
    /// divergence (sessions, measured points, envelopes, energy accounting,
    /// solver counters) shows up as a differing line.
    pub fn state_fingerprint(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ticks={} energy_bits={:016x} max_app={}",
            self.ticks,
            self.last_package_energy.to_bits(),
            self.max_app_seen
        );
        let _ = writeln!(
            s,
            "warm memo_hits={} certified={} full={}",
            self.warm.memo_hits(),
            self.warm.certified_exits(),
            self.warm.full_solves()
        );
        let _ = writeln!(
            s,
            "ledger total_uj={} idle_uj={} retired_uj={}",
            self.ledger.total_uj(),
            self.ledger.idle_uj(),
            self.ledger.retired_uj()
        );
        let mut apps: Vec<AppId> = self.sessions.keys().copied().collect();
        apps.sort();
        for app in apps {
            let sess = &self.sessions[&app];
            let _ = writeln!(
                s,
                "session {} name={} provides={} token={} prio={:016x} stage={:?} co={} \
                 since_realloc={}",
                app.0,
                sess.name,
                sess.provides_utility,
                sess.resume_token,
                sess.priority.to_bits(),
                self.session_stage(sess),
                sess.co_allocated,
                sess.samples_since_realloc
            );
            let _ = writeln!(
                s,
                "  envelope={:?} power_bits={:016x} energy_uj={}",
                sess.envelope.iter().map(|c| c.0).collect::<Vec<_>>(),
                self.attributor.last_power(app).to_bits(),
                self.ledger.session_uj(app)
            );
            let _ = writeln!(
                s,
                "  active_erv={:?}",
                sess.active_erv.as_ref().map(|e| e.flat())
            );
            let _ = writeln!(
                s,
                "  cpu_bits={:?}",
                self.last_cpu
                    .get(&app)
                    .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            );
            for p in encode_table(sess.explorer.table()) {
                let _ = writeln!(
                    s,
                    "  point erv={:?} u={:016x} p={:016x}",
                    p.erv_flat, p.utility_bits, p.power_bits
                );
            }
            if let Some(d) = self.last_directives.get(&app) {
                let _ = writeln!(
                    s,
                    "  directive erv={:?} cores={:?} threads={:?} par={}",
                    d.erv.flat(),
                    d.cores.iter().map(|c| c.0).collect::<Vec<_>>(),
                    d.hw_threads.iter().map(|t| t.0).collect::<Vec<_>>(),
                    d.parallelism
                );
            }
        }
        let mut names: Vec<&String> = self.profiles.keys().collect();
        names.sort();
        for name in names {
            let _ = writeln!(s, "profile {name}");
            for p in encode_table(&self.profiles[name]) {
                let _ = writeln!(
                    s,
                    "  point erv={:?} u={:016x} p={:016x}",
                    p.erv_flat, p.utility_bits, p.power_bits
                );
            }
        }
        // Degradation lines appear only once a fault has been seen, so a
        // healthy RM fingerprints to the exact pre-fault-layer string.
        let fault_active = !self.faults.is_default()
            || self.migrations != 0
            || self.health.iter().any(|h| *h != CoreHealth::default());
        if fault_active {
            let _ = writeln!(
                s,
                "faults injected={} sensor_drop={} migrations={}",
                self.faults.faults_injected(),
                self.faults.sensor_drop_ticks(),
                self.migrations
            );
            for (i, h) in self.health.iter().enumerate() {
                let online = self.faults.is_online(CoreId(i));
                if !online || *h != CoreHealth::default() {
                    let _ = writeln!(
                        s,
                        "  core {i} online={online} fails={} quarantined_until={} changed={}",
                        h.fails, h.quarantined_until, h.last_change_tick
                    );
                }
            }
            for c in 0..self.hw.num_kinds() {
                let cap = self.faults.cap_permille(c);
                if cap != CAP_NOMINAL_PERMILLE {
                    let _ = writeln!(s, "  cap {c} permille={cap}");
                }
            }
        }
        s
    }
}

/// A point in journal form.
fn encode_point((erv, nfc): &(ExtResourceVector, NonFunctional)) -> JournalPoint {
    JournalPoint {
        erv_flat: erv.flat(),
        utility_bits: nfc.utility.to_bits(),
        power_bits: nfc.power.to_bits(),
    }
}

/// The measured points of a table, in journal form.
fn encode_table(table: &OperatingPointTable) -> Vec<JournalPoint> {
    table
        .iter_measured()
        .map(|(_, p)| {
            encode_point(&(p.erv.clone(), p.nfc)) // reuse the single-point encoding
        })
        .collect()
}

/// Journal points back to typed points against the machine shape.
fn decode_points(
    shape: &ErvShape,
    points: &[JournalPoint],
) -> Result<Vec<(ExtResourceVector, NonFunctional)>> {
    points
        .iter()
        .map(|p| {
            let erv = ExtResourceVector::from_flat(shape, &p.erv_flat)?;
            Ok((
                erv,
                NonFunctional::new(f64::from_bits(p.utility_bits), f64::from_bits(p.power_bits)),
            ))
        })
        .collect()
}

/// Per-kind core counts of a concrete core list.
fn cores_to_rv(cores: &[CoreId], hw: &HardwareDescription) -> ResourceVector {
    let mut counts = vec![0u32; hw.num_kinds()];
    for &c in cores {
        if let Ok(kind) = hw.kind_of_core(c) {
            counts[kind.0] += 1;
        }
    }
    ResourceVector::new(counts)
}

/// The full-SMT extended resource vector over a concrete core list.
fn full_envelope_erv(
    cores: &[CoreId],
    hw: &HardwareDescription,
    shape: &ErvShape,
) -> ExtResourceVector {
    let rv = cores_to_rv(cores, hw);
    ExtResourceVector::full_smt(shape, rv.counts()).expect("envelope matches shape")
}

impl Directive {
    /// Builds an activation and records it in the trace. Every activation
    /// the RM emits is made here — allocation rounds and per-app
    /// exploration retargets alike.
    fn emit(
        app: AppId,
        erv: ExtResourceVector,
        cores: Vec<CoreId>,
        hw_threads: Vec<HwThreadId>,
    ) -> Directive {
        let parallelism = erv.total_threads();
        if harp_obs::enabled() {
            harp_obs::instant(harp_obs::Subsystem::Rm, "directive")
                .field("app", app.0)
                .field("parallelism", parallelism)
                .field("cores", cores.len());
        }
        Directive {
            app,
            erv,
            cores,
            hw_threads,
            parallelism,
        }
    }
}

/// The cores and hardware threads `erv` uses out of a session envelope:
/// the demanded number of cores of each kind, lowest ids first.
fn envelope_grant(
    erv: &ExtResourceVector,
    envelope: &[CoreId],
    hw: &HardwareDescription,
) -> (Vec<CoreId>, Vec<HwThreadId>) {
    let mut cores = Vec::with_capacity(erv.total_cores() as usize);
    for kind in 0..hw.num_kinds() {
        let needed = erv.cores_of_kind(kind) as usize;
        let of_kind = hw
            .core_range_of_kind(CoreKind(kind))
            .expect("kind of this machine");
        let granted = envelope.iter().filter(|c| of_kind.contains(&c.0));
        cores.extend(granted.take(needed));
    }
    cores.sort_unstable();
    let hw_threads = hw_threads_for(erv, &cores, hw).unwrap_or_default();
    (cores, hw_threads)
}

/// Builds the activation for `erv` using cores from the session envelope.
fn directive_for(
    app: AppId,
    erv: ExtResourceVector,
    envelope: &[CoreId],
    hw: &HardwareDescription,
) -> Directive {
    let (cores, hw_threads) = envelope_grant(&erv, envelope, hw);
    Directive::emit(app, erv, cores, hw_threads)
}

/// Stable telemetry name of an exploration stage.
fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Initial => "initial",
        Stage::Refinement => "refinement",
        Stage::Stable => "stable",
    }
}

// Re-exported for frontends that need to seed tables directly.
#[doc(hidden)]
pub fn table_from_points(points: Vec<(ExtResourceVector, NonFunctional)>) -> OperatingPointTable {
    points
        .into_iter()
        .map(|(erv, nfc)| harp_types::OperatingPoint::new(erv, nfc))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_platform::presets;

    fn rm() -> RmCore {
        RmCore::new(presets::raptor_lake(), RmConfig::default())
    }

    #[test]
    fn fresh_app_gets_whole_machine_envelope() {
        let mut rm = rm();
        let out = rm.register(AppId(1), "ep", false).unwrap();
        assert_eq!(out.directives.len(), 1);
        let d = &out.directives[0];
        assert_eq!(d.app, AppId(1));
        assert!(!d.cores.is_empty());
        assert_eq!(rm.stage_of(AppId(1)), Some(Stage::Initial));
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut rm = rm();
        rm.register(AppId(1), "ep", false).unwrap();
        assert!(rm.register(AppId(1), "ep", false).is_err());
    }

    #[test]
    fn two_exploring_apps_get_disjoint_envelopes() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        let out = rm.register(AppId(2), "b", false).unwrap();
        assert_eq!(out.directives.len(), 2);
        let d1 = out.directives.iter().find(|d| d.app == AppId(1)).unwrap();
        let d2 = out.directives.iter().find(|d| d.app == AppId(2)).unwrap();
        let overlap = d1.cores.iter().any(|c| d2.cores.contains(c));
        assert!(!overlap, "exploration envelopes must not overlap");
    }

    #[test]
    fn ticks_drive_campaigns_to_completion() {
        let mut rm = rm();
        rm.register(AppId(1), "app", false).unwrap();
        let per_point = rm.config().exploration.measurements_per_point as usize;
        // Drive enough ticks for several campaigns.
        let mut directives_seen = 0;
        for i in 0..(per_point * 3 + 1) {
            let obs = TickObservations {
                dt_s: 0.05,
                package_energy_j: (i as f64 + 1.0) * 1.0,
                apps: vec![AppObservation {
                    app: AppId(1),
                    utility_rate: 1.0e9,
                    cpu_time: vec![0.05 * (i + 1) as f64, 0.0],
                }],
            };
            let out = rm.tick(&obs).unwrap();
            directives_seen += out.directives.len();
        }
        // At least two new targets were activated.
        assert!(directives_seen >= 2, "saw {directives_seen} directives");
        let table = rm.sessions[&AppId(1)].explorer.table();
        assert!(table.measured_count() >= 3);
    }

    #[test]
    fn ticks_surface_a_conserving_energy_ledger() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        rm.register(AppId(2), "b", false).unwrap();
        let mut attributed = 0u64;
        for i in 0..40u64 {
            let t = (i + 1) as f64;
            let obs = TickObservations {
                dt_s: 0.05,
                package_energy_j: t * 1.37,
                apps: vec![
                    AppObservation {
                        app: AppId(1),
                        utility_rate: 1.0e9,
                        cpu_time: vec![0.05 * t, 0.0],
                    },
                    AppObservation {
                        app: AppId(2),
                        utility_rate: 2.0e9,
                        cpu_time: vec![0.0, 0.03 * t],
                    },
                ],
            };
            let out = rm.tick(&obs).unwrap();
            let energy = out.energy.expect("ticks carry the ledger");
            // Exact per-tick conservation: sessions + idle == tick total.
            let session_sum: u64 = energy.entries.iter().map(|e| e.tick_uj).sum();
            assert_eq!(energy.tick_uj, session_sum + energy.idle_tick_uj);
            assert_eq!(energy.entries.len(), 2);
            attributed += session_sum;
        }
        assert!(attributed > 0, "busy ticks attribute energy");
        assert_eq!(rm.ledger().conservation_error(), 0);
        // ~40 × 1.37 J accounted in µJ (the first tick's delta is 1.37 J).
        assert_eq!(rm.ledger().total_uj(), 54_800_000);
        // Register/deregister rounds carry no ledger tick.
        assert!(rm.register(AppId(3), "c", false).unwrap().energy.is_none());
        let before = rm.ledger().session_uj(AppId(1));
        assert!(before > 0);
        let out = rm.deregister(AppId(1)).unwrap();
        assert!(out.energy.is_none());
        assert_eq!(rm.ledger().retired_uj(), before);
        assert_eq!(rm.ledger().conservation_error(), 0);
        // The fingerprint pins the ledger state.
        let fp = rm.state_fingerprint();
        assert!(fp.contains(&format!("retired_uj={before}")), "{fp}");
        assert!(fp.contains("ledger total_uj=54800000"), "{fp}");
    }

    #[test]
    fn profile_persists_across_runs() {
        let mut rm = rm();
        rm.register(AppId(1), "app", false).unwrap();
        for i in 0..60 {
            let obs = TickObservations {
                dt_s: 0.05,
                package_energy_j: (i as f64 + 1.0) * 1.5,
                apps: vec![AppObservation {
                    app: AppId(1),
                    utility_rate: 2.0e9,
                    cpu_time: vec![0.05 * (i + 1) as f64, 0.0],
                }],
            };
            rm.tick(&obs).unwrap();
        }
        rm.deregister(AppId(1)).unwrap();
        let profile_points = rm.profile("app").unwrap().measured_count();
        assert!(profile_points >= 2);
        // A new run of the same app resumes from the stored profile.
        rm.register(AppId(7), "app", false).unwrap();
        let resumed = rm.sessions[&AppId(7)].explorer.table().measured_count();
        assert_eq!(resumed, profile_points);
    }

    #[test]
    fn offline_mode_uses_profiles_without_exploring() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let cfg = RmConfig {
            offline: true,
            ..Default::default()
        };
        let mut rm = RmCore::new(hw, cfg);
        let points = vec![
            (
                ExtResourceVector::from_flat(&shape, &[0, 4, 0]).unwrap(),
                NonFunctional::new(10.0, 30.0),
            ),
            (
                ExtResourceVector::from_flat(&shape, &[0, 0, 8]).unwrap(),
                NonFunctional::new(8.0, 10.0),
            ),
        ];
        rm.load_profile("mg", table_from_points(points));
        let out = rm.register(AppId(1), "mg", false).unwrap();
        assert_eq!(out.directives.len(), 1);
        let d = &out.directives[0];
        // The cheap E-core point wins on energy-utility cost:
        // P: (30/(10/10))·(1/1)=30; E: (10/0.8)·(1/0.8)=15.6.
        assert_eq!(d.erv.cores_of_kind(1), 8);
        assert_eq!(rm.stage_of(AppId(1)), Some(Stage::Stable));
        // Offline mode never starts campaigns.
        let obs = TickObservations {
            dt_s: 0.05,
            package_energy_j: 1.0,
            apps: vec![AppObservation {
                app: AppId(1),
                utility_rate: 8.0,
                cpu_time: vec![0.0, 0.4],
            }],
        };
        let out = rm.tick(&obs).unwrap();
        assert!(out.directives.is_empty());
    }

    #[test]
    fn deregistration_rebalances_remaining_apps() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        rm.register(AppId(2), "b", false).unwrap();
        let out = rm.deregister(AppId(1)).unwrap();
        // The survivor is re-activated with a larger envelope.
        assert_eq!(out.directives.len(), 1);
        assert_eq!(out.directives[0].app, AppId(2));
        assert_eq!(rm.managed_apps(), vec![AppId(2)]);
        // Removing the last app yields no directives.
        let out = rm.deregister(AppId(2)).unwrap();
        assert!(out.directives.is_empty());
    }

    #[test]
    fn out_of_order_lifecycle_is_rejected_without_state_damage() {
        let mut rm = rm();
        // Deregistration of an app that never registered: clean error.
        assert!(rm.deregister(AppId(1)).is_err());
        rm.register(AppId(1), "a", false).unwrap();
        rm.register(AppId(2), "b", false).unwrap();
        rm.deregister(AppId(1)).unwrap();
        // Duplicate exit: rejected, the survivor keeps its resources.
        assert!(rm.deregister(AppId(1)).is_err());
        assert_eq!(rm.managed_apps(), vec![AppId(2)]);
    }

    #[test]
    fn malformed_point_submissions_are_rejected_atomically() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let mut rm = RmCore::new(hw, RmConfig::default());
        rm.register(AppId(1), "a", false).unwrap();
        let good = ExtResourceVector::from_flat(&shape, &[0, 4, 0]).unwrap();
        // Wrong shape (single-kind, no-SMT vector on the Raptor Lake RM).
        let alien_shape = harp_types::ErvShape::new(vec![1]);
        let alien = ExtResourceVector::from_flat(&alien_shape, &[1]).unwrap();
        let r = rm.submit_points(
            AppId(1),
            vec![
                (good.clone(), NonFunctional::new(1.0, 1.0)),
                (alien, NonFunctional::new(1.0, 1.0)),
            ],
        );
        assert!(matches!(r, Err(HarpError::ShapeMismatch { .. })));
        // Non-finite characteristics.
        let r = rm.submit_points(
            AppId(1),
            vec![(good.clone(), NonFunctional::new(f64::NAN, 1.0))],
        );
        assert!(matches!(r, Err(HarpError::Numeric { .. })));
        let r = rm.submit_points(AppId(1), vec![(good, NonFunctional::new(1.0, -3.0))]);
        assert!(matches!(r, Err(HarpError::Numeric { .. })));
        // The rejected batches left no measured points behind.
        assert_eq!(
            rm.session_table(AppId(1)).map(|t| t.measured_count()),
            Some(0)
        );
    }

    #[test]
    fn unknown_app_ticks_are_ignored() {
        let mut rm = rm();
        let obs = TickObservations {
            dt_s: 0.05,
            package_energy_j: 1.0,
            apps: vec![AppObservation {
                app: AppId(99),
                utility_rate: 1.0,
                cpu_time: vec![0.0, 0.0],
            }],
        };
        let out = rm.tick(&obs).unwrap();
        assert!(out.directives.is_empty());
    }

    #[test]
    fn submit_points_triggers_profile_driven_allocation() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let cfg = RmConfig {
            offline: true,
            ..Default::default()
        };
        let mut rm = RmCore::new(hw, cfg);
        rm.register(AppId(1), "late-points", false).unwrap();
        let out = rm
            .submit_points(
                AppId(1),
                vec![
                    (
                        ExtResourceVector::from_flat(&shape, &[0, 6, 0]).unwrap(),
                        NonFunctional::new(5.0e10, 70.0),
                    ),
                    (
                        ExtResourceVector::from_flat(&shape, &[0, 0, 12]).unwrap(),
                        NonFunctional::new(4.5e10, 35.0),
                    ),
                ],
            )
            .unwrap();
        let d = out.directives.iter().find(|d| d.app == AppId(1)).unwrap();
        // One of the submitted points was activated (both happen to grant
        // 12 hardware threads: 6 P-cores with SMT or 12 E-cores).
        assert_eq!(d.parallelism, 12);
        let is_p_point = d.erv.cores_of_kind(0) == 6 && d.erv.cores_of_kind(1) == 0;
        let is_e_point = d.erv.cores_of_kind(0) == 0 && d.erv.cores_of_kind(1) == 12;
        assert!(is_p_point || is_e_point, "unexpected activation {}", d.erv);
        assert!(rm.submit_points(AppId(9), vec![]).is_err());
    }

    #[test]
    fn many_apps_on_a_tiny_machine_co_allocate() {
        let hw = presets::tiny_test(); // 4 cores total
        let shape = hw.erv_shape();
        let cfg = RmConfig {
            offline: true,
            ..Default::default()
        };
        let mut rm = RmCore::new(hw, cfg);
        // Six apps each demanding at least 2 big cores: no disjoint fit.
        for i in 1..=6u64 {
            let name = format!("greedy{i}");
            rm.load_profile(
                &name,
                table_from_points(vec![(
                    ExtResourceVector::from_flat(&shape, &[0, 2, 0]).unwrap(),
                    NonFunctional::new(10.0, 4.0),
                )]),
            );
            let out = rm.register(AppId(i), &name, false).unwrap();
            // Every registered app receives a (possibly overlapping) grant.
            assert_eq!(out.directives.len() as u64, i);
            for d in &out.directives {
                assert!(!d.cores.is_empty(), "{} got nothing", d.app);
            }
        }
        // Monitoring is suspended for co-allocated sessions: ticks yield
        // no directives and must not panic.
        let obs = TickObservations {
            dt_s: 0.05,
            package_energy_j: 1.0,
            apps: (1..=6)
                .map(|i| AppObservation {
                    app: AppId(i),
                    utility_rate: 1.0,
                    cpu_time: vec![0.05, 0.0],
                })
                .collect(),
        };
        let out = rm.tick(&obs).unwrap();
        assert!(out.directives.is_empty());
    }

    #[test]
    fn warm_start_persists_between_allocation_rounds() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let cfg = RmConfig {
            offline: true,
            ..Default::default()
        };
        let mut rm = RmCore::new(hw, cfg);
        for (i, name) in ["wa", "wb", "wc"].iter().enumerate() {
            rm.load_profile(
                *name,
                table_from_points(vec![
                    (
                        ExtResourceVector::from_flat(&shape, &[0, 2, 0]).unwrap(),
                        NonFunctional::new(10.0, 20.0 + i as f64),
                    ),
                    (
                        ExtResourceVector::from_flat(&shape, &[0, 0, 4]).unwrap(),
                        NonFunctional::new(8.0, 9.0 + i as f64),
                    ),
                ]),
            );
        }
        let mut total_work = 0.0;
        for (i, name) in ["wa", "wb", "wc"].iter().enumerate() {
            let out = rm.register(AppId(i as u64 + 1), name, false).unwrap();
            assert_eq!(out.solves, 1);
            total_work += out.solve_work;
        }
        // Departures re-solve against warm state too.
        let out = rm.deregister(AppId(3)).unwrap();
        total_work += out.solve_work;
        // Four allocation rounds over a slowly changing app set: the warm
        // solver must not have paid 4 full reference schedules.
        assert!(
            total_work < 4.0,
            "warm rounds should cost less than cold ones, got {total_work}"
        );
        let w = rm.warm_start();
        assert!(
            w.memo_hits() + w.certified_exits() + w.full_solves() >= 4,
            "warm state not threaded through reallocation"
        );
    }

    #[test]
    fn journal_recovery_is_bit_identical_including_future_behavior() {
        let dir = std::env::temp_dir().join(format!("harp-core-jrnl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recover.jrnl");
        let _ = std::fs::remove_file(&path);

        let mut live = rm();
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        live.register_resumable(AppId(1), "a", false, 101).unwrap();
        live.register(AppId(2), "b", true).unwrap();
        for i in 0..40 {
            let obs = TickObservations {
                dt_s: 0.05,
                package_energy_j: (i as f64 + 1.0) * 1.3,
                apps: vec![
                    AppObservation {
                        app: AppId(1),
                        utility_rate: 1.0e9 + i as f64,
                        cpu_time: vec![0.05 * (i + 1) as f64, 0.0],
                    },
                    AppObservation {
                        app: AppId(2),
                        utility_rate: 2.0e9,
                        cpu_time: vec![0.0, 0.03 * (i + 1) as f64],
                    },
                ],
            };
            live.tick(&obs).unwrap();
        }
        live.deregister(AppId(2)).unwrap();

        let outcome = crate::journal::read_journal(&path).unwrap();
        assert!(!outcome.truncated);
        let mut recovered = RmCore::recover(
            presets::raptor_lake(),
            RmConfig::default(),
            &outcome.records,
        )
        .unwrap();
        assert_eq!(recovered.state_fingerprint(), live.state_fingerprint());
        assert_eq!(recovered.resolve_resume_token(101), Some(AppId(1)));
        assert_eq!(recovered.max_app_seen(), 2);

        // Future behavior equality: both cores answer the next ops
        // identically, proving hidden state (attributor, explorer, warm
        // start) recovered too.
        let obs = TickObservations {
            dt_s: 0.05,
            package_energy_j: 60.0,
            apps: vec![AppObservation {
                app: AppId(1),
                utility_rate: 1.5e9,
                cpu_time: vec![2.1, 0.0],
            }],
        };
        let a = live.tick(&obs).unwrap();
        let b = recovered.tick(&obs).unwrap();
        assert_eq!(a.directives, b.directives);
        assert_eq!(live.state_fingerprint(), recovered.state_fingerprint());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_from_corrupted_tail_drops_only_the_tail() {
        let dir = std::env::temp_dir().join(format!("harp-core-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.jrnl");
        let _ = std::fs::remove_file(&path);

        let mut live = rm();
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        live.register(AppId(1), "a", false).unwrap();
        live.register(AppId(2), "b", false).unwrap();
        live.detach_journal();

        // Corrupt the last byte (inside the final record body).
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let outcome = crate::journal::read_journal(&path).unwrap();
        assert!(outcome.truncated);
        assert_eq!(outcome.records.len(), 1);
        let recovered = RmCore::recover(
            presets::raptor_lake(),
            RmConfig::default(),
            &outcome.records,
        )
        .unwrap();
        // Only the first registration survived — matching a core that never
        // saw the second.
        let mut reference = rm();
        reference.register(AppId(1), "a", false).unwrap();
        assert_eq!(recovered.state_fingerprint(), reference.state_fingerprint());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compacted_journal_restores_durable_state() {
        let dir = std::env::temp_dir().join(format!("harp-core-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jrnl");
        let _ = std::fs::remove_file(&path);

        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let cfg = RmConfig {
            offline: true,
            ..Default::default()
        };
        let mut live = RmCore::new(hw, cfg.clone());
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        live.register_resumable(AppId(1), "snap-app", false, 77)
            .unwrap();
        live.submit_points(
            AppId(1),
            vec![
                (
                    ExtResourceVector::from_flat(&shape, &[0, 4, 0]).unwrap(),
                    NonFunctional::new(10.0, 30.0),
                ),
                (
                    ExtResourceVector::from_flat(&shape, &[0, 0, 8]).unwrap(),
                    NonFunctional::new(8.0, 10.0),
                ),
            ],
        )
        .unwrap();
        // A second app learns its points and leaves: its table becomes a
        // stored profile, the only place those points live from here on.
        live.register(AppId(2), "leaver", false).unwrap();
        live.submit_points(
            AppId(2),
            vec![
                (
                    ExtResourceVector::from_flat(&shape, &[0, 2, 0]).unwrap(),
                    NonFunctional::new(6.0, 20.0),
                ),
                (
                    ExtResourceVector::from_flat(&shape, &[0, 0, 4]).unwrap(),
                    NonFunctional::new(5.0, 6.0),
                ),
            ],
        )
        .unwrap();
        live.deregister(AppId(2)).unwrap();
        live.compact_now();

        let outcome = crate::journal::read_journal(&path).unwrap();
        assert!(!outcome.truncated);
        assert!(
            matches!(outcome.records.as_slice(), [JournalRecord::Snapshot(_)]),
            "compaction leaves one snapshot and no record to replay"
        );
        let mut recovered = RmCore::recover(presets::raptor_lake(), cfg, &outcome.records).unwrap();
        assert_eq!(recovered.managed_apps(), vec![AppId(1)]);
        assert_eq!(recovered.resolve_resume_token(77), Some(AppId(1)));
        assert_eq!(
            recovered
                .session_table(AppId(1))
                .map(|t| t.measured_count()),
            live.session_table(AppId(1)).map(|t| t.measured_count())
        );
        // The re-derived allocation matches: same directive for the session.
        assert_eq!(
            recovered.last_directive(AppId(1)),
            live.last_directive(AppId(1))
        );
        // The departed app's profile came through the snapshot with every
        // measured point, and a re-registration under its name starts
        // from them.
        let measured = |t: &OperatingPointTable| -> Vec<harp_types::OperatingPoint> {
            t.iter_measured().map(|(_, p)| p.clone()).collect()
        };
        let learned = measured(live.profile("leaver").expect("deregister stores the table"));
        assert_eq!(learned.len(), 2);
        assert_eq!(
            recovered.profile("leaver").map(measured),
            Some(learned.clone())
        );
        recovered.register(AppId(3), "leaver", false).unwrap();
        assert_eq!(
            recovered.session_table(AppId(3)).map(measured),
            Some(learned)
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// An offline RM whose two profiled apps compete for P cores: each
    /// app's cost-optimal point wants 6 of the 8 P cores, so the two-app
    /// instance is congested and needs subgradient work beyond the first
    /// iteration — a tight budget overruns deterministically.
    fn congested_offline_rm(solve_deadline_iters: u32) -> RmCore {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let cfg = RmConfig {
            offline: true,
            solve_deadline_iters,
            ..Default::default()
        };
        let mut rm = RmCore::new(hw, cfg);
        let points = || {
            vec![
                (
                    ExtResourceVector::from_flat(&shape, &[0, 6, 0]).unwrap(),
                    NonFunctional::new(10.0, 50.0),
                ),
                (
                    ExtResourceVector::from_flat(&shape, &[0, 0, 4]).unwrap(),
                    NonFunctional::new(4.0, 40.0),
                ),
            ]
        };
        rm.load_profile("a", table_from_points(points()));
        rm.load_profile("b", table_from_points(points()));
        rm
    }

    fn empty_obs() -> TickObservations {
        TickObservations {
            dt_s: 0.05,
            package_energy_j: 1.0,
            apps: Vec::new(),
        }
    }

    #[test]
    fn deadline_overrun_keeps_previous_allocation() {
        let mut rm = congested_offline_rm(1);
        // App 1 alone certifies within the budget and gets its 6-P-core
        // optimum applied.
        let out = rm.register(AppId(1), "a", false).unwrap();
        assert!(!out.degraded);
        let d1 = rm.last_directive(AppId(1)).unwrap().clone();
        assert_eq!(d1.erv.cores_of_kind(0), 6);

        // App 2 arrives: the congested two-app solve overruns the 1-iter
        // budget. App 1's allocation must stay applied untouched and the
        // newcomer gets the whole machine co-allocated instead of nothing.
        let out = rm.register(AppId(2), "b", false).unwrap();
        assert!(out.degraded);
        assert_eq!(rm.degraded_ticks(), 1);
        assert_eq!(rm.last_directive(AppId(1)).unwrap(), &d1);
        assert_eq!(out.directives.len(), 1);
        let d2 = &out.directives[0];
        assert_eq!(d2.app, AppId(2));
        assert_eq!(d2.cores.len(), presets::raptor_lake().num_cores());

        // Every session still holds a feasible envelope and activation.
        for app in rm.managed_apps() {
            let s = &rm.sessions[&app];
            assert!(!s.envelope.is_empty(), "{app} left without an envelope");
            assert!(s.active_erv.is_some(), "{app} left without an activation");
        }

        // The overrun is retried every tick while the congestion persists.
        let out = rm.tick(&empty_obs()).unwrap();
        assert!(out.degraded);
        assert_eq!(out.solves, 1);
        assert_eq!(rm.degraded_ticks(), 2);

        // Once the instance shrinks back to one app the re-solve succeeds
        // and the pending flag clears: the next tick is solve-free.
        let out = rm.deregister(AppId(2)).unwrap();
        assert!(!out.degraded);
        let out = rm.tick(&empty_obs()).unwrap();
        assert_eq!(out.solves, 0);
        assert!(!out.degraded);
    }

    #[test]
    fn generous_deadline_matches_unbounded_bitwise() {
        let drive = |mut rm: RmCore| {
            rm.register(AppId(1), "a", false).unwrap();
            rm.register(AppId(2), "b", false).unwrap();
            for _ in 0..5 {
                rm.tick(&empty_obs()).unwrap();
            }
            rm
        };
        let free = drive(congested_offline_rm(0));
        let budgeted = drive(congested_offline_rm(100_000));
        assert_eq!(free.state_fingerprint(), budgeted.state_fingerprint());
        assert_eq!(budgeted.degraded_ticks(), 0);
    }

    #[test]
    fn degraded_rounds_replay_bit_identically_from_journal() {
        let dir = std::env::temp_dir().join(format!("harp-core-degr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("degraded.jrnl");
        let _ = std::fs::remove_file(&path);

        let mut live = congested_offline_rm(1);
        let cfg = live.config().clone();
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        // Loaded profiles are not journaled ops; snapshot them so the
        // replay starts from the same stored-profile state.
        live.compact_now();
        live.register(AppId(1), "a", false).unwrap();
        live.register(AppId(2), "b", false).unwrap();
        for _ in 0..3 {
            live.tick(&empty_obs()).unwrap();
        }
        assert!(live.degraded_ticks() > 0);

        let outcome = crate::journal::read_journal(&path).unwrap();
        assert!(!outcome.truncated);
        let recovered = RmCore::recover(presets::raptor_lake(), cfg, &outcome.records).unwrap();
        // The iteration budget is deterministic, so the replay takes the
        // exact same degraded/non-degraded path as the live run.
        assert_eq!(recovered.state_fingerprint(), live.state_fingerprint());
        assert_eq!(recovered.degraded_ticks(), live.degraded_ticks());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn directive_cores_match_erv_demand() {
        let mut rm = rm();
        let out = rm.register(AppId(1), "x", false).unwrap();
        let d = &out.directives[0];
        let hw = presets::raptor_lake();
        let mut per_kind = [0u32; 2];
        for c in &d.cores {
            per_kind[hw.kind_of_core(*c).unwrap().0] += 1;
        }
        assert_eq!(per_kind[0], d.erv.cores_of_kind(0));
        assert_eq!(per_kind[1], d.erv.cores_of_kind(1));
        assert_eq!(d.hw_threads.len() as u32, d.parallelism);
    }

    #[test]
    fn set_priority_validates_inputs() {
        let mut rm = rm();
        assert!(rm.set_priority(AppId(9), 2.0).is_err()); // unknown app
        rm.register(AppId(1), "a", false).unwrap();
        assert!(rm.set_priority(AppId(1), 0.0).is_err());
        assert!(rm.set_priority(AppId(1), -1.0).is_err());
        assert!(rm.set_priority(AppId(1), f64::NAN).is_err());
        assert_eq!(rm.priority_of(AppId(1)), Some(1.0));
        rm.set_priority(AppId(1), 2.0).unwrap();
        assert_eq!(rm.priority_of(AppId(1)), Some(2.0));
    }

    #[test]
    fn set_priority_same_weight_is_a_pure_noop() {
        let mut a = rm();
        let mut b = rm();
        a.register(AppId(1), "a", false).unwrap();
        b.register(AppId(1), "a", false).unwrap();
        let out = b.set_priority(AppId(1), 1.0).unwrap();
        assert!(out.directives.is_empty());
        assert_eq!(out.solves, 0);
        // No allocation round ran, so all state (warm counters included)
        // matches a core that never called set_priority.
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn premium_app_wins_the_contended_point() {
        use harp_types::PriorityClass;
        // Two apps with identical tables competing for the P-cores. Each
        // prefers the big efficient point (6 P-cores, 2-way), but both
        // together exceed the 8 P-core capacity, so one must be downgraded
        // to the small point — the batch app, never the premium one.
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let points = |rm: &mut RmCore, app: AppId| {
            rm.submit_points(
                app,
                vec![
                    (
                        ExtResourceVector::from_flat(&shape, &[0, 6, 0]).unwrap(),
                        NonFunctional::new(8.0e10, 64.0),
                    ),
                    (
                        ExtResourceVector::from_flat(&shape, &[0, 1, 0]).unwrap(),
                        NonFunctional::new(2.0e10, 24.0),
                    ),
                ],
            )
            .unwrap()
        };
        let mut rm = RmCore::new(
            hw.clone(),
            RmConfig {
                offline: true,
                ..RmConfig::default()
            },
        );
        rm.register(AppId(1), "premium", false).unwrap();
        rm.register(AppId(2), "batch", false).unwrap();
        points(&mut rm, AppId(1));
        points(&mut rm, AppId(2));
        rm.set_priority(AppId(1), PriorityClass::Premium.weight())
            .unwrap();
        let out = rm
            .set_priority(AppId(2), PriorityClass::Batch.weight())
            .unwrap();
        let threads = |app: AppId| {
            out.directives
                .iter()
                .find(|d| d.app == app)
                .map(|d| d.parallelism)
        };
        let premium = threads(AppId(1)).unwrap_or(0);
        let batch = threads(AppId(2)).unwrap_or(0);
        assert!(
            premium > batch,
            "premium got {premium} threads vs batch {batch}"
        );
    }

    #[test]
    fn priority_changes_replay_bit_identically_from_journal() {
        let dir = std::env::temp_dir().join(format!("harp-core-prio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("priority.jrnl");
        let _ = std::fs::remove_file(&path);

        let mut live = rm();
        let cfg = live.config().clone();
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        live.register(AppId(1), "a", false).unwrap();
        live.register(AppId(2), "b", false).unwrap();
        live.set_priority(AppId(1), 2.0).unwrap();
        for i in 0..3 {
            let obs = TickObservations {
                dt_s: 0.05,
                package_energy_j: (i + 1) as f64,
                apps: vec![
                    AppObservation {
                        app: AppId(1),
                        utility_rate: 1.0e9,
                        cpu_time: vec![0.05 * (i + 1) as f64, 0.0],
                    },
                    AppObservation {
                        app: AppId(2),
                        utility_rate: 2.0e9,
                        cpu_time: vec![0.0, 0.05 * (i + 1) as f64],
                    },
                ],
            };
            live.tick(&obs).unwrap();
        }
        live.set_priority(AppId(2), 0.5).unwrap();

        let outcome = crate::journal::read_journal(&path).unwrap();
        assert!(!outcome.truncated);
        let recovered = RmCore::recover(presets::raptor_lake(), cfg, &outcome.records).unwrap();
        assert_eq!(recovered.state_fingerprint(), live.state_fingerprint());
        assert_eq!(recovered.priority_of(AppId(1)), Some(2.0));
        assert_eq!(recovered.priority_of(AppId(2)), Some(0.5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn priority_survives_snapshot_compaction() {
        let dir = std::env::temp_dir().join(format!("harp-core-prio-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("priority-snap.jrnl");
        let _ = std::fs::remove_file(&path);

        let mut live = rm();
        let cfg = live.config().clone();
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        live.register(AppId(1), "a", false).unwrap();
        live.set_priority(AppId(1), 2.0).unwrap();
        live.compact_now();

        let outcome = crate::journal::read_journal(&path).unwrap();
        let recovered = RmCore::recover(presets::raptor_lake(), cfg, &outcome.records).unwrap();
        assert_eq!(recovered.priority_of(AppId(1)), Some(2.0));
        std::fs::remove_file(&path).unwrap();
    }

    fn tick_obs(i: u64, apps: &[(u64, f64, [f64; 2])]) -> TickObservations {
        TickObservations {
            dt_s: 0.05,
            package_energy_j: (i as f64 + 1.0) * 1.3,
            apps: apps
                .iter()
                .map(|&(app, u, cpu)| AppObservation {
                    app: AppId(app),
                    utility_rate: u,
                    cpu_time: vec![cpu[0] * (i + 1) as f64, cpu[1] * (i + 1) as f64],
                })
                .collect(),
        }
    }

    #[test]
    fn core_fail_evicts_holders_and_bans_the_core() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        rm.register(AppId(2), "b", false).unwrap();
        // Every core is in some envelope (exploring apps split the whole
        // machine), so failing core 0 must evict at least one holder.
        let dead = CoreId(0);
        let out = rm
            .inject_fault(&FaultEvent::CoreFail { core: dead })
            .unwrap();
        assert!(rm.migrations() >= 1, "holder not counted as migrated");
        assert!(!rm.core_available(dead));
        assert_eq!(rm.available_core_count(), rm.hw.num_cores() - 1);
        assert!(!out.directives.is_empty());
        for d in &out.directives {
            assert!(!d.cores.contains(&dead), "directive targets a dead core");
            assert!(d.hw_threads.iter().all(|t| {
                rm.hw
                    .threads_of_core(dead)
                    .unwrap()
                    .iter()
                    .all(|dt| dt != t)
            }));
        }
        // Duplicate failure is a no-op; out-of-range cores are rejected.
        assert_eq!(rm.fault_state().faults_injected(), 1);
        rm.inject_fault(&FaultEvent::CoreFail { core: dead })
            .unwrap();
        assert_eq!(rm.fault_state().faults_injected(), 1);
        assert!(rm
            .inject_fault(&FaultEvent::CoreFail { core: CoreId(999) })
            .is_err());

        // First recovery readmits immediately (fails=1 < threshold) and the
        // core becomes grantable again.
        rm.inject_fault(&FaultEvent::CoreRecover { core: dead })
            .unwrap();
        assert!(rm.core_available(dead));
        assert!(rm.quarantined_cores().is_empty());
    }

    #[test]
    fn repeat_offender_quarantines_with_exponential_backoff() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        let flaky = CoreId(3);
        // Two fail/recover cycles: the second recover hits the threshold.
        rm.inject_fault(&FaultEvent::CoreFail { core: flaky })
            .unwrap();
        rm.inject_fault(&FaultEvent::CoreRecover { core: flaky })
            .unwrap();
        assert!(rm.core_available(flaky));
        rm.inject_fault(&FaultEvent::CoreFail { core: flaky })
            .unwrap();
        rm.inject_fault(&FaultEvent::CoreRecover { core: flaky })
            .unwrap();
        assert_eq!(rm.quarantined_cores(), vec![flaky]);
        assert!(!rm.core_available(flaky), "probation must ban the core");

        // Probation expires QUARANTINE_BASE_TICKS ticks later.
        let start = rm.ticks();
        let mut readmitted_at = None;
        for i in 0..(QUARANTINE_BASE_TICKS + 2) {
            rm.tick(&tick_obs(i, &[(1, 1.0e9, [0.05, 0.0])])).unwrap();
            if readmitted_at.is_none() && rm.core_available(flaky) {
                readmitted_at = Some(rm.ticks());
            }
        }
        assert_eq!(readmitted_at, Some(start + QUARANTINE_BASE_TICKS));
        assert!(rm.quarantined_cores().is_empty());

        // A third strike doubles the probation window.
        rm.inject_fault(&FaultEvent::CoreFail { core: flaky })
            .unwrap();
        rm.inject_fault(&FaultEvent::CoreRecover { core: flaky })
            .unwrap();
        let until = rm.health[flaky.0].quarantined_until;
        assert_eq!(until, rm.ticks() + (QUARANTINE_BASE_TICKS << 1));
    }

    #[test]
    fn sensor_dropout_defers_attribution_and_conserves_energy() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        rm.tick(&tick_obs(0, &[(1, 1.0e9, [0.05, 0.0])])).unwrap();
        let before = rm.ledger().total_uj();
        rm.inject_fault(&FaultEvent::SensorDrop { ticks: 3 })
            .unwrap();
        for i in 1..=3u64 {
            let out = rm.tick(&tick_obs(i, &[(1, 1.0e9, [0.05, 0.0])])).unwrap();
            // Dark ticks charge exactly zero energy.
            assert_eq!(out.energy.unwrap().tick_uj, 0);
        }
        assert_eq!(rm.ledger().total_uj(), before);
        // The first bright tick attributes the whole dark window at once.
        let out = rm.tick(&tick_obs(4, &[(1, 1.0e9, [0.05, 0.0])])).unwrap();
        assert_eq!(out.energy.unwrap().tick_uj, 4 * 1_300_000);
        assert_eq!(rm.ledger().conservation_error(), 0);
        assert_eq!(rm.ledger().total_uj(), 5 * 1_300_000);
    }

    #[test]
    fn thermal_cap_tracks_state_and_schedules_a_resolve() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        rm.inject_fault(&FaultEvent::ThermalCap {
            cluster: 1,
            permille: 600,
        })
        .unwrap();
        assert_eq!(rm.fault_state().cap_permille(1), 600);
        assert!(rm
            .inject_fault(&FaultEvent::ThermalCap {
                cluster: 9,
                permille: 500
            })
            .is_err());
        // The cap forces a full re-solve on the next tick even though no
        // campaign completed.
        let out = rm.tick(&tick_obs(0, &[(1, 1.0e9, [0.05, 0.0])])).unwrap();
        assert!(out.solves >= 1);
        // Restoring nominal capacity is a state change too; a repeat is not.
        rm.inject_fault(&FaultEvent::ThermalCap {
            cluster: 1,
            permille: 1000,
        })
        .unwrap();
        let n = rm.fault_state().faults_injected();
        rm.inject_fault(&FaultEvent::ThermalCap {
            cluster: 1,
            permille: 1000,
        })
        .unwrap();
        assert_eq!(rm.fault_state().faults_injected(), n);
    }

    #[test]
    fn healthy_state_has_no_fault_fingerprint_lines() {
        let mut rm = rm();
        rm.register(AppId(1), "a", false).unwrap();
        rm.tick(&tick_obs(0, &[(1, 1.0e9, [0.05, 0.0])])).unwrap();
        let fp = rm.state_fingerprint();
        assert!(!fp.contains("faults "), "healthy fingerprint drifted: {fp}");
        assert!(rm.snapshot().faults.is_default());
    }

    #[test]
    fn fault_laced_journal_recovers_bit_identically() {
        let dir = std::env::temp_dir().join(format!("harp-core-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.jrnl");
        let _ = std::fs::remove_file(&path);

        let mut live = rm();
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        live.register(AppId(1), "a", false).unwrap();
        live.register(AppId(2), "b", true).unwrap();
        let flaky = CoreId(2);
        for i in 0..30u64 {
            match i {
                4 => {
                    live.inject_fault(&FaultEvent::CoreFail { core: flaky })
                        .unwrap();
                }
                7 => {
                    live.inject_fault(&FaultEvent::CoreRecover { core: flaky })
                        .unwrap();
                }
                10 => {
                    live.inject_fault(&FaultEvent::CoreFail { core: flaky })
                        .unwrap();
                    live.inject_fault(&FaultEvent::ThermalCap {
                        cluster: 1,
                        permille: 700,
                    })
                    .unwrap();
                }
                12 => {
                    // Hits the quarantine threshold: probation, not service.
                    live.inject_fault(&FaultEvent::CoreRecover { core: flaky })
                        .unwrap();
                    live.inject_fault(&FaultEvent::SensorDrop { ticks: 2 })
                        .unwrap();
                }
                _ => {}
            }
            live.tick(&tick_obs(
                i,
                &[(1, 1.0e9, [0.05, 0.0]), (2, 2.0e9, [0.0, 0.03])],
            ))
            .unwrap();
        }
        assert!(live.migrations() >= 1);
        assert!(live.fault_state().faults_injected() >= 5);

        let outcome = crate::journal::read_journal(&path).unwrap();
        assert!(!outcome.truncated);
        let mut recovered = RmCore::recover(
            presets::raptor_lake(),
            RmConfig::default(),
            &outcome.records,
        )
        .unwrap();
        // Quarantine state, health counters and migrations replay exactly.
        assert_eq!(recovered.state_fingerprint(), live.state_fingerprint());
        assert_eq!(recovered.migrations(), live.migrations());
        assert_eq!(recovered.quarantined_cores(), live.quarantined_cores());
        assert_eq!(recovered.availability(), live.availability());

        // Future behavior equality across a readmission boundary.
        for i in 30..50u64 {
            let obs = tick_obs(i, &[(1, 1.0e9, [0.05, 0.0]), (2, 2.0e9, [0.0, 0.03])]);
            let a = live.tick(&obs).unwrap();
            let b = recovered.tick(&obs).unwrap();
            assert_eq!(a.directives, b.directives);
        }
        assert_eq!(recovered.state_fingerprint(), live.state_fingerprint());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_compaction_preserves_fault_state() {
        let dir = std::env::temp_dir().join(format!("harp-core-fsnap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fsnap.jrnl");
        let _ = std::fs::remove_file(&path);

        let mut live = rm();
        live.attach_journal(JournalWriter::open(&path).unwrap(), 0);
        live.register(AppId(1), "a", false).unwrap();
        let flaky = CoreId(5);
        live.inject_fault(&FaultEvent::CoreFail { core: flaky })
            .unwrap();
        live.inject_fault(&FaultEvent::CoreRecover { core: flaky })
            .unwrap();
        live.inject_fault(&FaultEvent::CoreFail { core: flaky })
            .unwrap();
        live.inject_fault(&FaultEvent::CoreRecover { core: flaky })
            .unwrap();
        assert_eq!(live.quarantined_cores(), vec![flaky]);
        for i in 0..3u64 {
            live.tick(&tick_obs(i, &[(1, 1.0e9, [0.05, 0.0])])).unwrap();
        }
        // Compact: the journal becomes a single snapshot record that must
        // carry the quarantine ledger.
        live.compact_now();
        let outcome = crate::journal::read_journal(&path).unwrap();
        assert_eq!(outcome.records.len(), 1);
        let recovered = RmCore::recover(
            presets::raptor_lake(),
            RmConfig::default(),
            &outcome.records,
        )
        .unwrap();
        // Snapshot recovery re-derives exploration/ledger state, so only
        // the durable fault ledger is compared (like the other snapshot
        // tests): quarantine set, health counters, caps and migrations.
        assert_eq!(recovered.fault_state(), live.fault_state());
        assert_eq!(recovered.quarantined_cores(), vec![flaky]);
        assert_eq!(recovered.migrations(), live.migrations());
        assert_eq!(recovered.availability(), live.availability());
        assert_eq!(recovered.health, live.health);
        std::fs::remove_file(&path).unwrap();
    }
}
