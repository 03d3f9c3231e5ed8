//! Incremental MMKP selection engine.
//!
//! All solver kinds run on the flattened [`SolveInstance`] built by the
//! prepass in [`crate::instance`]: contiguous structure-of-arrays demand
//! rows, sentinel-clamped costs, dominance-pruned option sets. Selection
//! totals are delta-maintained ([`Totals`]), so the repair and upgrade
//! phases evaluate a candidate swap in O(kinds) instead of
//! O(apps × kinds), and the subgradient loop computes per-iteration demand
//! into a reused scratch buffer without allocating.
//!
//! The Lagrangian path is *warm-startable* (see [`WarmStart`]):
//!
//! 1. **Memo** — if the instance fingerprint matches the previous solve,
//!    the previous answer is returned without iterating.
//! 2. **Certify** — otherwise a short subgradient phase starts from the
//!    carried λ vector; if the duality gap
//!    `best_feasible − L(λ)` drops within `1e-9 · cost_scale`, the
//!    incumbent is certified near-optimal and returned early.
//! 3. **Cold fallback** — failing that, λ resets to zero and the full
//!    reference iteration schedule runs (with the same gap-based exit, the
//!    common uncongested case certifies at iteration zero). A certified
//!    warm answer is within the tolerance of optimal, hence never costlier
//!    than the cold solve of the same instance; an uncertified one climbs
//!    from the warm incumbent instead of the cold one and can end a few
//!    percent above it on instances of 40+ apps (`tests/prop_alloc.rs`).
//!
//! Cold-start behavior is conservative by construction: the subgradient
//! trajectory (step sizes, tie-breaking, update order) replicates the
//! frozen pre-engine solver in `tests/reference/` exactly, which the
//! property tests in `tests/prop_alloc.rs` verify on seeded instances.

use crate::instance::{SolveInstance, SolveScratch, Totals, WarmStart};
use crate::AllocRequest;
use harp_types::{HarpError, ResourceVector, Result};

/// The available selection strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Lagrangian relaxation with subgradient updates, repair and upgrade
    /// phases (Wildermann et al. style) — HARP's production solver.
    Lagrangian,
    /// Greedy incremental upgrades from the minimal selection
    /// (Ykman-Couvreur style) — ablation baseline.
    Greedy,
    /// Exact branch-and-bound — exponential; for small instances and tests.
    Exact,
}

/// How a [`Selection`] was produced — drives the RM overhead model and the
/// warm-start statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Instance fingerprint matched the previous solve; answer replayed.
    MemoHit,
    /// Duality-gap certificate reached before the full iteration schedule.
    Certified,
    /// Full iteration schedule ran (or a non-Lagrangian solver).
    Full,
}

impl SolveOutcome {
    /// Stable name used in telemetry events and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SolveOutcome::MemoHit => "memo_hit",
            SolveOutcome::Certified => "certified",
            SolveOutcome::Full => "full",
        }
    }
}

/// The subgradient iteration count of the reference solver; `work == 1.0`
/// corresponds to this effort (the `SOLVE_COST_NS` overhead model in
/// `crates/sched` is calibrated against it).
pub const REFERENCE_ITERS: u32 = 60;

/// A cooperative budget for one solve: a cap on total subgradient
/// iterations across the warm and cold phases of the Lagrangian path,
/// checked before every iteration (memo hits are exempt — they cost no
/// iterations; the greedy and exact solvers ignore the budget). An
/// iteration count, unlike a wall-clock cut-off, replays bit-identically
/// from an RM journal.
///
/// When the budget exhausts before a duality-gap certificate is reached,
/// the solve fails with [`HarpError::DeadlineExceeded`] instead of spending
/// unbounded time in the repair/upgrade phases; callers (the RM) fall back
/// to their previous feasible allocation and re-solve next tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveDeadline {
    iters: Option<u32>,
}

impl SolveDeadline {
    /// No budget: the solver runs its full schedule (the default).
    pub const UNBOUNDED: SolveDeadline = SolveDeadline { iters: None };

    /// Budget of `budget` total subgradient iterations.
    pub fn iterations(budget: u32) -> Self {
        SolveDeadline {
            iters: Some(budget),
        }
    }

    /// True when the budget leaves no room for another iteration after
    /// `done` iterations have run.
    fn exhausted(&self, done: u32) -> bool {
        self.iters.is_some_and(|b| done >= b)
    }
}

/// Iterations granted to the warm certify phase before falling back cold.
const WARM_ITERS: u32 = 10;

/// One solved selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Chosen option index per request (indices into the request's original
    /// option list).
    pub picks: Vec<usize>,
    /// Sentinel-clamped total cost of the selection.
    pub cost: f64,
    /// Solve effort as a fraction of the reference solver's fixed
    /// 60-iteration schedule (memo hits cost `1/60`, certified exits
    /// `iterations/60`). The simulator frontend scales its modeled solve
    /// cost by this.
    pub work: f64,
    /// How the answer was produced.
    pub outcome: SolveOutcome,
}

/// Solves the selection problem on the incremental engine and returns the
/// chosen option index per request. Callers guarantee the instance is
/// feasible at minimal demands. Pass a [`WarmStart`] to carry λ
/// multipliers, previous picks and the instance memo across consecutive
/// solves (only the Lagrangian path uses it).
///
/// # Errors
///
/// [`HarpError::InsufficientResources`] when no feasible selection exists,
/// [`HarpError::Numeric`] when [`SolverKind::Exact`] refuses an instance
/// with more than 5·10⁷ combinations (measured on the unpruned space).
pub fn select(
    requests: &[AllocRequest],
    capacity: &ResourceVector,
    kind: SolverKind,
    warm: Option<&mut WarmStart>,
) -> Result<Selection> {
    select_deadline(requests, capacity, kind, warm, SolveDeadline::UNBOUNDED)
}

/// Like [`select`], but with a cooperative [`SolveDeadline`]. When the
/// budget exhausts before the Lagrangian path certifies an answer, returns
/// [`HarpError::DeadlineExceeded`] (memo hits are exempt; the greedy and
/// exact solvers ignore the budget).
///
/// # Errors
///
/// Same contract as [`select`], plus [`HarpError::DeadlineExceeded`] on
/// budget exhaustion.
pub fn select_deadline(
    requests: &[AllocRequest],
    capacity: &ResourceVector,
    kind: SolverKind,
    warm: Option<&mut WarmStart>,
    deadline: SolveDeadline,
) -> Result<Selection> {
    let mut sp = harp_obs::span(harp_obs::Subsystem::Solver, "solve").field("apps", requests.len());
    let res = select_inner(requests, capacity, kind, warm, deadline);
    if let Ok(sel) = &res {
        crate::stats::record(sel.work, sel.outcome);
        if sp.is_active() {
            sp.set_field("outcome", sel.outcome.name());
            sp.set_field("work", sel.work);
            sp.set_field("cost", sel.cost);
        }
    }
    res
}

fn select_inner(
    requests: &[AllocRequest],
    capacity: &ResourceVector,
    kind: SolverKind,
    mut warm: Option<&mut WarmStart>,
    deadline: SolveDeadline,
) -> Result<Selection> {
    if requests.is_empty() {
        return Ok(Selection {
            picks: Vec::new(),
            cost: 0.0,
            work: 0.0,
            outcome: SolveOutcome::Full,
        });
    }
    let mut scratch = match warm.as_deref_mut() {
        Some(w) => std::mem::take(&mut w.scratch),
        None => SolveScratch::default(),
    };
    let inst = SolveInstance::build(requests, capacity, &mut scratch);
    crate::stats::record_pruned(inst.pruned as u64);
    if harp_obs::enabled() {
        harp_obs::instant(harp_obs::Subsystem::Solver, "prepass")
            .field("pruned", inst.pruned as u64)
            .field("kinds", inst.num_kinds);
    }
    let res = match kind {
        SolverKind::Lagrangian => {
            lagrangian(&inst, requests, warm.as_deref_mut(), deadline, &mut scratch)
        }
        SolverKind::Greedy => {
            greedy_picks(&inst).map(|p| finish(&inst, p, 1.0, SolveOutcome::Full))
        }
        SolverKind::Exact => {
            exact(&inst, requests).map(|p| finish(&inst, p, 1.0, SolveOutcome::Full))
        }
    };
    if let Some(w) = warm {
        scratch.reclaim(inst);
        w.scratch = scratch;
    }
    res
}

/// Maps internal picks to original option indices and packages the result.
fn finish(inst: &SolveInstance, picks: Vec<usize>, work: f64, outcome: SolveOutcome) -> Selection {
    Selection {
        cost: inst.selection_cost(&picks),
        picks: inst.to_original(&picks),
        work,
        outcome,
    }
}

/// One subgradient iteration's relaxed solve: per-app argmin of
/// `cost + λ·demand` over the padded lane arrays, accumulated demand in
/// `demand`, relaxed picks in `picks`. Returns the Lagrangian dual value
/// `L(λ)` — a valid lower bound on the optimal selection cost for any
/// λ ≥ 0.
///
/// Penalty lanes accumulate kind-major from `0.0` (zero multipliers are
/// skipped — they contribute exactly `+0.0`), then a branch-light argmin
/// runs over each app's padded slice. Pads score `INFINITY + 0.0` and can
/// never win the strict `<`.
fn relax(
    inst: &SolveInstance,
    lambda: &[f64],
    picks: &mut [usize],
    demand: &mut [u32],
    scratch: &mut SolveScratch,
) -> f64 {
    let pen = &mut scratch.pen;
    let best_v = &mut scratch.best_v;
    pen.clear();
    pen.resize(inst.lane_len(), 0.0);
    best_v.clear();
    best_v.resize(inst.num_apps(), 0.0);
    demand.fill(0);

    for (k, &lk) in lambda.iter().enumerate() {
        if lk == 0.0 {
            continue;
        }
        for (p, &d) in pen.iter_mut().zip(inst.lane_demands(k)) {
            *p += lk * d;
        }
    }
    let costs = inst.lane_costs();
    for (app, (pick, best)) in picks.iter_mut().zip(best_v.iter_mut()).enumerate() {
        let lr = inst.lanes(app);
        let mut bi = 0usize;
        let mut bv = f64::INFINITY;
        for (j, (&c, &p)) in costs[lr.clone()].iter().zip(&pen[lr]).enumerate() {
            let v = c + p;
            if v < bv {
                bv = v;
                bi = j;
            }
        }
        *pick = inst.options(app).start + bi;
        *best = bv;
        for (t, &d) in demand.iter_mut().zip(inst.demand(*pick)) {
            *t += d;
        }
    }

    let value: f64 = best_v.iter().sum();
    let relaxed_capacity: f64 = lambda
        .iter()
        .zip(&inst.capacity)
        .map(|(&l, &r)| l * r as f64)
        .sum();
    value - relaxed_capacity
}

/// Projected subgradient step with the reference solver's diminishing step
/// schedule (`it` counts from zero within the phase).
fn subgradient_step(inst: &SolveInstance, lambda: &mut [f64], demand: &[u32], it: u32) {
    let step = inst.cost_scale / ((it + 1) as f64).sqrt() / inst.capacity_total.max(1) as f64;
    for ((l, &d), &r) in lambda.iter_mut().zip(demand).zip(&inst.capacity) {
        let g = d as f64 - r as f64;
        *l = (*l + step * g).max(0.0);
    }
}

struct Subgradient {
    lambda: Vec<f64>,
    picks: Vec<usize>,
    demand: Vec<u32>,
    best: Option<(f64, Vec<usize>)>,
    iters: u32,
    certified: bool,
    deadline_hit: bool,
}

impl Subgradient {
    /// Runs up to `max_iters` subgradient iterations, exiting early once
    /// the duality gap of the incumbent drops within `tol`. The deadline is
    /// checked cooperatively before every iteration against the total
    /// iteration count (which spans the warm and cold phases).
    fn run(
        &mut self,
        inst: &SolveInstance,
        max_iters: u32,
        tol: f64,
        deadline: SolveDeadline,
        scratch: &mut SolveScratch,
    ) {
        for it in 0..max_iters {
            if deadline.exhausted(self.iters) {
                self.deadline_hit = true;
                return;
            }
            self.iters += 1;
            let lower = relax(
                inst,
                &self.lambda,
                &mut self.picks,
                &mut self.demand,
                scratch,
            );
            if inst.fits(&self.demand) {
                let cost = inst.selection_cost(&self.picks);
                if self.best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    self.best = Some((cost, self.picks.clone()));
                }
            }
            if let Some((best_cost, _)) = &self.best {
                if best_cost - lower <= tol {
                    self.certified = true;
                    return;
                }
            }
            subgradient_step(inst, &mut self.lambda, &self.demand, it);
        }
    }
}

fn lagrangian(
    inst: &SolveInstance,
    requests: &[AllocRequest],
    mut warm: Option<&mut WarmStart>,
    deadline: SolveDeadline,
    scratch: &mut SolveScratch,
) -> Result<Selection> {
    // Phase 0: memo — bit-identical instance, replay the previous answer.
    if let Some(w) = warm.as_deref_mut() {
        if let Some((fp, memo_picks)) = &w.memo {
            if *fp == inst.fingerprint && inst.picks_valid(memo_picks) {
                w.memo_hits += 1;
                harp_obs::instant(harp_obs::Subsystem::Solver, "memo_hit");
                let picks = memo_picks.clone();
                return Ok(finish(
                    inst,
                    picks,
                    1.0 / REFERENCE_ITERS as f64,
                    SolveOutcome::MemoHit,
                ));
            }
        }
    }

    // Seed candidate from the previous tick's picks (keyed by app/op so it
    // survives arrivals and departures), repaired to feasibility.
    let seed = warm
        .as_deref()
        .and_then(|w| seed_candidate(inst, requests, w));

    let tol = 1e-9 * inst.cost_scale.max(1.0);
    let mut sg = Subgradient {
        lambda: vec![0.0; inst.num_kinds],
        picks: vec![0usize; inst.num_apps()],
        demand: vec![0u32; inst.num_kinds],
        best: seed.clone(),
        iters: 0,
        certified: false,
        deadline_hit: false,
    };

    // Phase 1: certify from the carried λ vector. Consecutive RM ticks
    // shift the instance only slightly, so the previous multipliers usually
    // certify the incumbent within a few iterations.
    if let Some(w) = warm.as_deref() {
        if w.lambda.len() == inst.num_kinds && w.lambda.iter().any(|&l| l > 0.0) {
            let mut sp = harp_obs::span(harp_obs::Subsystem::Solver, "warm_certify");
            sg.lambda.copy_from_slice(&w.lambda);
            sg.run(inst, WARM_ITERS, tol, deadline, scratch);
            sp.set_field("iters", sg.iters);
            sp.set_field("certified", sg.certified);
        }
    }

    // Phase 2: cold schedule — λ from zero, the reference solver's exact
    // trajectory (same step sizes, tie-breaking and update order). In the
    // uncongested case the relaxed picks at λ = 0 are feasible with a zero
    // gap, so even cold solves certify at iteration zero.
    if !sg.certified {
        let before = sg.iters;
        let mut sp = harp_obs::span(harp_obs::Subsystem::Solver, "cold_schedule");
        sg.lambda.fill(0.0);
        sg.run(inst, REFERENCE_ITERS, tol, deadline, scratch);
        sp.set_field("iters", sg.iters - before);
        sp.set_field("certified", sg.certified);
    }

    // Budget exhausted without a certificate: bail out before the
    // repair/upgrade phases rather than spend unbudgeted time there. The
    // caller keeps its previous feasible allocation and re-solves later.
    if sg.deadline_hit && !sg.certified {
        harp_obs::instant(harp_obs::Subsystem::Solver, "deadline_exceeded")
            .field("iters", sg.iters);
        return Err(HarpError::deadline(format!(
            "solve budget exhausted after {} subgradient iterations without a certificate",
            sg.iters
        )));
    }

    let picks = if sg.certified {
        harp_obs::instant(harp_obs::Subsystem::Solver, "duality_gap_exit").field("iters", sg.iters);
        sg.best.take().expect("certified implies incumbent").1
    } else {
        // No certificate: finish the way the reference solver does —
        // repair the last relaxed selection if nothing feasible was seen,
        // climb with upgrades, and keep the better of the subgradient and
        // greedy basins (plus the warm seed, which only improves things).
        let mut sp = harp_obs::span(harp_obs::Subsystem::Solver, "repair_upgrade");
        let mut repair_rounds = 0u32;
        let mut picks = match sg.best.take() {
            Some((_, p)) => p,
            None => {
                let (p, rounds) = repair(inst, sg.picks.clone())?;
                repair_rounds = rounds;
                p
            }
        };
        let mut totals = Totals::new(inst, &picks);
        upgrade(inst, &mut picks, &mut totals);
        sp.set_field("repair_rounds", repair_rounds);
        let mut cost = inst.selection_cost(&picks);
        if let Ok(g) = greedy_picks(inst) {
            let g_cost = inst.selection_cost(&g);
            if g_cost < cost {
                picks = g;
                cost = g_cost;
            }
        }
        if let Some((s_cost, s_picks)) = seed {
            if s_cost < cost {
                picks = s_picks;
            }
        }
        picks
    };

    let outcome = if sg.certified {
        SolveOutcome::Certified
    } else {
        SolveOutcome::Full
    };
    if let Some(w) = warm {
        w.lambda.clone_from(&sg.lambda);
        w.last_picks = requests
            .iter()
            .zip(&picks)
            .map(|(r, &p)| (r.app, r.options[inst.original(p)].op))
            .collect();
        w.memo = Some((inst.fingerprint, picks.clone()));
        match outcome {
            SolveOutcome::Certified => w.certified_exits += 1,
            SolveOutcome::Full => w.full_solves += 1,
            SolveOutcome::MemoHit => unreachable!("memo returns earlier"),
        }
    }
    Ok(finish(
        inst,
        picks,
        sg.iters.max(1) as f64 / REFERENCE_ITERS as f64,
        outcome,
    ))
}

/// Maps the previous tick's `(app, op)` picks onto the current instance
/// (apps may have arrived, departed, or lost options to pruning), repairs
/// to feasibility and climbs. Returns `(cost, picks)` or `None` when
/// nothing carries over.
fn seed_candidate(
    inst: &SolveInstance,
    requests: &[AllocRequest],
    w: &WarmStart,
) -> Option<(f64, Vec<usize>)> {
    if w.last_picks.is_empty() {
        return None;
    }
    let minimal = inst.minimal_picks();
    let mut mapped = 0usize;
    let picks: Vec<usize> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let carried = w
                .last_picks
                .iter()
                .find(|(app, _)| *app == r.app)
                .and_then(|(_, op)| {
                    let orig = r.options.iter().position(|o| o.op == *op)?;
                    inst.kept_original(i, orig)
                });
            match carried {
                Some(p) => {
                    mapped += 1;
                    p
                }
                None => minimal[i],
            }
        })
        .collect();
    if mapped == 0 {
        return None;
    }
    let totals = Totals::new(inst, &picks);
    let (mut picks, _) = if totals.fits(inst) {
        (picks, 0)
    } else {
        repair(inst, picks).ok()?
    };
    let mut totals = Totals::new(inst, &picks);
    upgrade(inst, &mut picks, &mut totals);
    Some((inst.selection_cost(&picks), picks))
}

/// Repair an infeasible selection: repeatedly apply the downgrade with the
/// best (cost increase) / (overshoot reduction) ratio until feasible.
/// Totals are delta-maintained, so each candidate swap costs O(kinds).
pub(crate) fn repair(inst: &SolveInstance, mut picks: Vec<usize>) -> Result<(Vec<usize>, u32)> {
    let mut totals = Totals::new(inst, &picks);
    let mut rounds = 0u32;
    loop {
        if totals.overshoot(inst) == 0 {
            return Ok((picks, rounds));
        }
        rounds += 1;
        let mut best: Option<(f64, usize, usize)> = None; // (ratio, app, option)
        for (i, &cur) in picks.iter().enumerate() {
            for j in inst.options(i) {
                if j == cur {
                    continue;
                }
                let reduction = totals.reduction_after_swap(inst, cur, j);
                if reduction <= 0 {
                    continue;
                }
                let dcost = inst.cost(j) - inst.cost(cur);
                let ratio = dcost / reduction as f64;
                if best.is_none_or(|(b, _, _)| ratio < b) {
                    best = Some((ratio, i, j));
                }
            }
        }
        match best {
            Some((_, i, j)) => {
                totals.swap(inst, picks[i], j);
                picks[i] = j;
            }
            None => {
                // No single swap helps; fall back to the minimal selection,
                // which the caller guarantees is feasible.
                let min = inst.minimal_picks();
                if Totals::new(inst, &min).fits(inst) {
                    return Ok((min, rounds));
                }
                return Err(HarpError::InsufficientResources {
                    detail: "repair failed on an infeasible instance".into(),
                });
            }
        }
    }
}

/// Greedy improvement: while feasible swaps with lower cost exist, apply
/// the best one. Candidate feasibility is checked against the
/// delta-maintained totals in O(kinds).
pub(crate) fn upgrade(inst: &SolveInstance, picks: &mut [usize], totals: &mut Totals) {
    loop {
        let mut best: Option<(f64, usize, usize)> = None; // (gain, app, option)
        for (i, &cur) in picks.iter().enumerate() {
            let cur_cost = inst.cost(cur);
            for j in inst.options(i) {
                if j == cur {
                    continue;
                }
                let gain = cur_cost - inst.cost(j);
                if gain <= 1e-12 {
                    continue;
                }
                if totals.fits_after_swap(inst, cur, j) && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, i, j));
                }
            }
        }
        match best {
            Some((_, i, j)) => {
                totals.swap(inst, picks[i], j);
                picks[i] = j;
            }
            None => return,
        }
    }
}

/// Greedy heuristic: start from the minimal selection (repaired if the
/// min-total choices overload a kind), then apply upgrades.
fn greedy_picks(inst: &SolveInstance) -> Result<Vec<usize>> {
    let mut picks = inst.minimal_picks();
    if !Totals::new(inst, &picks).fits(inst) {
        picks = repair(inst, picks)?.0;
    }
    let mut totals = Totals::new(inst, &picks);
    upgrade(inst, &mut picks, &mut totals);
    Ok(picks)
}

/// Exact branch-and-bound. The refusal guard measures the *unpruned*
/// option space (the caller-visible instance size); the search itself runs
/// on the pruned arrays with a push/pop scratch demand vector.
fn exact(inst: &SolveInstance, requests: &[AllocRequest]) -> Result<Vec<usize>> {
    let space: f64 = requests.iter().map(|r| r.options.len() as f64).product();
    if space > 5e7 {
        return Err(HarpError::Numeric {
            detail: format!("exact solver refuses {space:.0} combinations"),
        });
    }
    let n = inst.num_apps();
    // Per-app lower bound on remaining cost for pruning.
    let mut suffix_min = vec![0.0f64; n + 1];
    for app in (0..n).rev() {
        let min_cost = inst
            .options(app)
            .map(|j| inst.cost(j))
            .fold(f64::INFINITY, f64::min);
        suffix_min[app] = suffix_min[app + 1] + min_cost;
    }
    let mut search = ExactSearch {
        inst,
        suffix_min,
        best_cost: f64::INFINITY,
        best: None,
        picks: vec![0usize; n],
        used: vec![0u32; inst.num_kinds],
    };
    search.dfs(0, 0.0);
    search.best.ok_or_else(|| HarpError::InsufficientResources {
        detail: "exact solver found no feasible selection".into(),
    })
}

struct ExactSearch<'a> {
    inst: &'a SolveInstance,
    suffix_min: Vec<f64>,
    best_cost: f64,
    best: Option<Vec<usize>>,
    picks: Vec<usize>,
    used: Vec<u32>,
}

impl ExactSearch<'_> {
    fn dfs(&mut self, depth: usize, cost: f64) {
        if cost + self.suffix_min[depth] >= self.best_cost {
            return;
        }
        if depth == self.inst.num_apps() {
            self.best_cost = cost;
            self.best = Some(self.picks.clone());
            return;
        }
        for j in self.inst.options(depth) {
            let row = self.inst.demand(j);
            let fits = self
                .used
                .iter()
                .zip(row)
                .zip(&self.inst.capacity)
                .all(|((&u, &d), &c)| u + d <= c);
            if !fits {
                continue;
            }
            for (u, &d) in self.used.iter_mut().zip(row) {
                *u += d;
            }
            self.picks[depth] = j;
            self.dfs(depth + 1, cost + self.inst.cost(j));
            let row = self.inst.demand(j);
            for (u, &d) in self.used.iter_mut().zip(row) {
                *u -= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::INFINITE_COST;
    use crate::AllocOption;
    use harp_types::{AppId, ErvShape, ExtResourceVector, OpId};

    fn shape() -> ErvShape {
        ErvShape::new(vec![1, 1])
    }

    fn opt(flat: &[u32], cost: f64) -> AllocOption {
        AllocOption {
            op: OpId(0),
            cost,
            erv: ExtResourceVector::from_flat(&shape(), flat).unwrap(),
        }
    }

    fn req(app: u64, options: Vec<AllocOption>) -> AllocRequest {
        let options = options
            .into_iter()
            .enumerate()
            .map(|(i, mut o)| {
                o.op = OpId(i);
                o
            })
            .collect();
        AllocRequest {
            app: AppId(app),
            options,
        }
    }

    fn solve(reqs: &[AllocRequest], capacity: &ResourceVector, kind: SolverKind) -> Vec<usize> {
        select(reqs, capacity, kind, None).unwrap().picks
    }

    fn feasible(reqs: &[AllocRequest], picks: &[usize], capacity: &ResourceVector) -> bool {
        let used = reqs.iter().zip(picks).fold(
            ResourceVector::zero(capacity.num_kinds()),
            |used, (r, &p)| used.checked_add(&r.options[p].demand()).unwrap(),
        );
        used.fits_within(capacity)
    }

    #[test]
    fn exact_finds_optimum() {
        // capacity (2,2): optimum is app1 big (1), app2 little (2): cost 3.
        let capacity = ResourceVector::new(vec![2, 2]);
        let reqs = vec![
            req(1, vec![opt(&[1, 0], 1.0), opt(&[0, 1], 5.0)]),
            req(2, vec![opt(&[2, 0], 1.0), opt(&[0, 2], 2.0)]),
        ];
        let sel = select(&reqs, &capacity, SolverKind::Exact, None).unwrap();
        assert_eq!(sel.cost, 3.0);
        assert!(feasible(&reqs, &sel.picks, &capacity));
    }

    #[test]
    fn exact_prunes_infeasible_branches() {
        let capacity = ResourceVector::new(vec![1, 0]);
        let reqs = vec![req(1, vec![opt(&[1, 0], 1.0), opt(&[0, 1], 0.1)])];
        // The cheap option needs a little core that doesn't exist.
        assert_eq!(solve(&reqs, &capacity, SolverKind::Exact), vec![0]);
    }

    #[test]
    fn all_solvers_agree_on_obvious_instance() {
        let capacity = ResourceVector::new(vec![4, 4]);
        let reqs = vec![
            req(1, vec![opt(&[2, 0], 1.0), opt(&[4, 0], 10.0)]),
            req(2, vec![opt(&[0, 2], 1.0), opt(&[0, 4], 10.0)]),
        ];
        for kind in [
            SolverKind::Lagrangian,
            SolverKind::Greedy,
            SolverKind::Exact,
        ] {
            assert_eq!(solve(&reqs, &capacity, kind), vec![0, 0], "{kind:?}");
        }
    }

    #[test]
    fn lagrangian_near_exact_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let mut worst_gap: f64 = 1.0;
        for _ in 0..30 {
            let capacity = ResourceVector::new(vec![4, 8]);
            let n_apps = rng.random_range(2..=4);
            let reqs: Vec<AllocRequest> = (0..n_apps)
                .map(|a| {
                    let n_opts = rng.random_range(2..=5);
                    let options = (0..n_opts)
                        .map(|_| {
                            let big = rng.random_range(0..=2u32);
                            let little = rng.random_range(if big == 0 { 1 } else { 0 }..=3u32);
                            opt(&[big, little], rng.random_range(1.0..20.0))
                        })
                        .collect();
                    req(a as u64 + 1, options)
                })
                .collect();
            // Only evaluate feasible instances (callers guarantee this).
            let inst = SolveInstance::build(&reqs, &capacity, &mut SolveScratch::default());
            if !Totals::new(&inst, &inst.minimal_picks()).fits(&inst) {
                continue;
            }
            let e = select(&reqs, &capacity, SolverKind::Exact, None).unwrap();
            let l = select(&reqs, &capacity, SolverKind::Lagrangian, None).unwrap();
            assert!(feasible(&reqs, &l.picks, &capacity));
            let gap = l.cost / e.cost.max(1e-9);
            worst_gap = worst_gap.max(gap);
        }
        assert!(worst_gap < 1.5, "worst approximation gap {worst_gap}");
    }

    #[test]
    fn greedy_upgrades_use_leftover_capacity() {
        let capacity = ResourceVector::new(vec![4, 4]);
        // Minimal pick is the small/expensive one; capacity allows upgrade.
        let reqs = vec![req(1, vec![opt(&[1, 0], 10.0), opt(&[3, 2], 2.0)])];
        assert_eq!(solve(&reqs, &capacity, SolverKind::Greedy), vec![1]);
    }

    #[test]
    fn repair_restores_feasibility() {
        let capacity = ResourceVector::new(vec![2, 2]);
        let reqs = vec![
            req(1, vec![opt(&[2, 0], 1.0), opt(&[0, 1], 4.0)]),
            req(2, vec![opt(&[2, 0], 1.0), opt(&[0, 1], 4.0)]),
        ];
        // Both at their favourite: infeasible (4 big > 2).
        let inst = SolveInstance::build(&reqs, &capacity, &mut SolveScratch::default());
        let start = vec![inst.options(0).start, inst.options(1).start];
        let (picks, _) = repair(&inst, start).unwrap();
        assert!(feasible(&reqs, &inst.to_original(&picks), &capacity));
    }

    #[test]
    fn repair_uses_multi_unit_swaps_sparingly() {
        // 50 apps each holding a 4-core option with a 1-core downgrade.
        // Capacity forces ~47 downgrades worth ~3 units each; with
        // delta-maintained totals repair must finish in far fewer rounds
        // than the total overshoot (the regression guarded here: the old
        // solver recomputed total demand from scratch every round, and a
        // round per overshoot *unit* would be 3× as many rounds).
        let n = 50u32;
        let capacity = ResourceVector::new(vec![60, 200]);
        let reqs: Vec<AllocRequest> = (0..n)
            .map(|a| {
                req(
                    a as u64 + 1,
                    vec![opt(&[4, 0], 1.0), opt(&[0, 1], 2.0 + a as f64 * 0.01)],
                )
            })
            .collect();
        let inst = SolveInstance::build(&reqs, &capacity, &mut SolveScratch::default());
        let start: Vec<usize> = (0..n as usize).map(|i| inst.options(i).start).collect();
        let overshoot = Totals::new(&inst, &start).overshoot(&inst);
        assert!(overshoot > 0);
        let (picks, rounds) = repair(&inst, start).unwrap();
        assert!(Totals::new(&inst, &picks).fits(&inst));
        assert!(
            (rounds as i64) < overshoot,
            "repair took {rounds} rounds for overshoot {overshoot}"
        );
    }

    #[test]
    fn all_infinite_cost_app_still_gets_minimal_option() {
        // Every option of app 1 is infinite-cost: the sentinel keeps the
        // argmin well-defined and the app receives its minimal option
        // rather than crashing or starving.
        let capacity = ResourceVector::new(vec![4, 4]);
        let reqs = vec![req(
            1,
            vec![
                opt(&[3, 0], f64::INFINITY),
                opt(&[1, 0], f64::INFINITY),
                opt(&[0, 2], f64::INFINITY),
            ],
        )];
        for kind in [
            SolverKind::Lagrangian,
            SolverKind::Greedy,
            SolverKind::Exact,
        ] {
            let sel = select(&reqs, &capacity, kind, None).unwrap();
            assert!(feasible(&reqs, &sel.picks, &capacity), "{kind:?}");
            assert_eq!(sel.picks, vec![1], "{kind:?}");
            assert_eq!(sel.cost, INFINITE_COST, "{kind:?}");
        }
    }

    #[test]
    fn exact_refuses_huge_instances() {
        let capacity = ResourceVector::new(vec![100, 100]);
        let opts: Vec<AllocOption> = (0..60).map(|i| opt(&[1, 0], i as f64)).collect();
        let reqs: Vec<AllocRequest> = (0..10).map(|a| req(a, opts.clone())).collect();
        // Dominance pruning would collapse each app to one option, but the
        // refusal guard must key on the caller-visible (unpruned) space.
        assert!(matches!(
            select(&reqs, &capacity, SolverKind::Exact, None),
            Err(HarpError::Numeric { .. })
        ));
    }

    #[test]
    fn memo_replays_identical_instances() {
        let capacity = ResourceVector::new(vec![4, 4]);
        let reqs = vec![
            req(1, vec![opt(&[2, 0], 1.0), opt(&[0, 2], 3.0)]),
            req(2, vec![opt(&[0, 2], 1.0), opt(&[2, 0], 3.0)]),
        ];
        let mut warm = WarmStart::new();
        let first = select(&reqs, &capacity, SolverKind::Lagrangian, Some(&mut warm)).unwrap();
        let second = select(&reqs, &capacity, SolverKind::Lagrangian, Some(&mut warm)).unwrap();
        assert_eq!(second.outcome, SolveOutcome::MemoHit);
        assert_eq!(second.picks, first.picks);
        assert_eq!(warm.memo_hits(), 1);
        assert!(second.work < 0.05);
    }

    #[test]
    fn uncongested_instances_certify_at_iteration_zero() {
        // Plenty of capacity: the λ=0 relaxed picks are feasible and the
        // duality gap is exactly zero, so even a cold solve exits after one
        // iteration with work 1/60.
        let capacity = ResourceVector::new(vec![16, 16]);
        let reqs = vec![
            req(1, vec![opt(&[2, 0], 1.0), opt(&[0, 2], 3.0)]),
            req(2, vec![opt(&[0, 2], 1.0), opt(&[2, 0], 3.0)]),
        ];
        let sel = select(&reqs, &capacity, SolverKind::Lagrangian, None).unwrap();
        assert_eq!(sel.outcome, SolveOutcome::Certified);
        assert_eq!(sel.picks, vec![0, 0]);
        assert!((sel.work - 1.0 / REFERENCE_ITERS as f64).abs() < 1e-12);
    }

    /// A congested instance: at λ = 0 both apps pick the cheap big option,
    /// which overflows capacity, so no incumbent exists after the first
    /// iteration and certification needs further subgradient work.
    fn congested() -> (ResourceVector, Vec<AllocRequest>) {
        let capacity = ResourceVector::new(vec![2, 2]);
        let reqs = vec![
            req(1, vec![opt(&[2, 0], 1.0), opt(&[0, 1], 5.0)]),
            req(2, vec![opt(&[2, 0], 1.0), opt(&[0, 2], 2.0)]),
        ];
        (capacity, reqs)
    }

    #[test]
    fn exhausted_iteration_budget_is_a_deadline_error() {
        let (capacity, reqs) = congested();
        let res = select_deadline(
            &reqs,
            &capacity,
            SolverKind::Lagrangian,
            None,
            SolveDeadline::iterations(1),
        );
        assert!(
            matches!(res, Err(HarpError::DeadlineExceeded { .. })),
            "expected deadline error, got {res:?}"
        );
    }

    #[test]
    fn memo_hits_are_exempt_from_the_deadline() {
        let (capacity, reqs) = congested();
        let mut warm = WarmStart::new();
        let first = select(&reqs, &capacity, SolverKind::Lagrangian, Some(&mut warm)).unwrap();
        // Identical instance, zero budget: the memo replays without
        // spending a single iteration.
        let second = select_deadline(
            &reqs,
            &capacity,
            SolverKind::Lagrangian,
            Some(&mut warm),
            SolveDeadline::iterations(0),
        )
        .unwrap();
        assert_eq!(second.outcome, SolveOutcome::MemoHit);
        assert_eq!(second.picks, first.picks);
    }

    #[test]
    fn generous_deadline_is_bit_identical_to_unbounded() {
        let (capacity, reqs) = congested();
        let free = select(&reqs, &capacity, SolverKind::Lagrangian, None).unwrap();
        let budgeted = select_deadline(
            &reqs,
            &capacity,
            SolverKind::Lagrangian,
            None,
            SolveDeadline::iterations(10_000),
        )
        .unwrap();
        assert_eq!(budgeted.picks, free.picks);
        assert_eq!(budgeted.cost.to_bits(), free.cost.to_bits());
        assert_eq!(budgeted.outcome, free.outcome);
    }

    #[test]
    fn greedy_and_exact_ignore_the_budget() {
        let (capacity, reqs) = congested();
        for kind in [SolverKind::Greedy, SolverKind::Exact] {
            let sel = select_deadline(&reqs, &capacity, kind, None, SolveDeadline::iterations(0))
                .unwrap();
            assert!(feasible(&reqs, &sel.picks, &capacity), "{kind:?}");
        }
    }

    #[test]
    fn warm_solve_stays_feasible_after_cost_drift() {
        let capacity = ResourceVector::new(vec![4, 8]);
        let mk = |bump: f64| {
            vec![
                req(1, vec![opt(&[2, 0], 1.0 + bump), opt(&[0, 3], 4.0)]),
                req(2, vec![opt(&[2, 0], 1.5), opt(&[0, 3], 3.5 + bump)]),
                req(3, vec![opt(&[2, 0], 2.0), opt(&[0, 3], 3.0)]),
            ]
        };
        let mut warm = WarmStart::new();
        for t in 0..6 {
            let reqs = mk(t as f64 * 1e-3);
            let w = select(&reqs, &capacity, SolverKind::Lagrangian, Some(&mut warm)).unwrap();
            let cold = select(&reqs, &capacity, SolverKind::Lagrangian, None).unwrap();
            assert!(feasible(&reqs, &w.picks, &capacity), "tick {t}");
            assert!(
                w.cost <= cold.cost + 1e-9 * cold.cost.abs().max(1.0),
                "tick {t}: warm {} vs cold {}",
                w.cost,
                cold.cost
            );
        }
        assert!(warm.memo_hits() + warm.certified_exits() + warm.full_solves() == 6);
    }
}
