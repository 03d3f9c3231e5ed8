//! Flattened MMKP solve instances and cross-solve warm-start state.
//!
//! The solvers in [`crate::solvers`] used to walk `AllocRequest` option
//! lists directly, recomputing each option's coarse demand (an allocation)
//! at every touch and rebuilding the running per-kind totals from scratch
//! for every candidate swap. [`SolveInstance`] is the prepass that fixes
//! this: each request's options are flattened into a contiguous
//! structure-of-arrays demand matrix (one `u32` row per option), per-option
//! costs are clamped to the single [`INFINITE_COST`] sentinel, and
//! *dominated* options — at least as expensive as and at least as demanding
//! in every kind as another option of the same application — are pruned.
//! Dominance pruning never changes the optimal cost (a dominated option can
//! be replaced by its dominator in any selection without raising cost or
//! demand), which the property tests verify against the unpruned
//! reference solver (`tests/reference/`).
//!
//! [`Totals`] maintains the running per-kind demand of a selection under
//! swap deltas, so the repair and upgrade phases evaluate a candidate swap
//! in O(kinds) instead of O(apps × kinds).
//!
//! [`WarmStart`] carries solver state across consecutive solves: the λ
//! multiplier vector, the previous picks (keyed by application and
//! operating point), and a fingerprint-keyed memo of the last solved
//! instance. Consecutive RM ticks differ by at most one application
//! arriving or leaving (or by slightly drifted costs), so warm ticks
//! usually converge in a handful of subgradient iterations — or skip the
//! iteration entirely when the instance is bit-identical.

use crate::AllocRequest;
use harp_types::{AppId, OpId, ResourceVector};

/// The single infinite-cost sentinel used by every solver phase.
///
/// Operating points whose energy-utility cost ζ is non-finite mark
/// last-resort configurations: they must only be chosen when an application
/// has no finite-cost alternative. Internally every solver arithmetic is
/// performed on costs clamped to this sentinel (`f64::MAX / 4.0`) — large
/// enough that any finite cost beats it, small enough that summing a
/// selection's costs and adding λ-penalties never overflows to `inf`/NaN.
pub const INFINITE_COST: f64 = f64::MAX / 4.0;

/// Clamps a possibly non-finite cost to the [`INFINITE_COST`] sentinel.
pub fn cost_or_large(c: f64) -> f64 {
    if c.is_finite() {
        c
    } else {
        INFINITE_COST
    }
}

/// Lane width of the padded per-app option slices in the structure-of-
/// arrays λ-scoring layout: each application's kept options are padded up
/// to a multiple of this, so the inner scoring loop runs over fixed-stride
/// `f64` lanes with no per-option branching.
pub(crate) const LANES: usize = 4;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv_bytes(h, &v.to_le_bytes());
}

/// A solve-ready, flattened view of one allocation round.
///
/// Options are stored structure-of-arrays: `demands` holds one
/// `num_kinds`-wide `u32` row per *kept* (non-dominated) option, `costs`
/// the sentinel-clamped cost, and `orig` the index of the option in its
/// request's original option list. `offsets[a]..offsets[a + 1]` is the
/// kept-option range of application `a`. Picks at this layer are global
/// option indices into those arrays.
pub(crate) struct SolveInstance {
    pub(crate) num_kinds: usize,
    pub(crate) capacity: Vec<u32>,
    pub(crate) capacity_total: u32,
    demands: Vec<u32>,
    costs: Vec<f64>,
    row_totals: Vec<u32>,
    orig: Vec<usize>,
    offsets: Vec<usize>,
    /// Per-app start of the *padded* option slice in the lane arrays;
    /// `lane_offsets[a + 1] - lane_offsets[a]` is `options(a).len()` rounded
    /// up to a multiple of [`LANES`]. `lane_offsets[num_apps]` is the total
    /// lane length.
    lane_offsets: Vec<usize>,
    /// Padded per-option costs. Pad lanes hold `f64::INFINITY`, which can
    /// never win the strict-`<` argmin against a real option (real costs
    /// are clamped to [`INFINITE_COST`] = `f64::MAX / 4`).
    lane_costs: Vec<f64>,
    /// Kind-major `f64` demand lanes: kind `k` of lane `i` lives at
    /// `lane_demands[k * lane_len + i]`. Pad lanes hold `0.0`, so a skipped
    /// or zero multiplier contributes exactly `+0.0` to a pad's penalty and
    /// its score stays `INFINITY`.
    lane_demands: Vec<f64>,
    /// Largest finite positive cost across *all* original options (also the
    /// dominated ones, so the subgradient step schedule matches the
    /// reference solver exactly), floored at `1e-9`.
    pub(crate) cost_scale: f64,
    /// FNV-1a fingerprint of the raw instance (capacity + every original
    /// option's demand and cost bits), used to key the warm-start memo.
    pub(crate) fingerprint: u64,
    /// Number of options dropped by dominance pruning.
    pub(crate) pruned: usize,
}

impl SolveInstance {
    /// Flattens and prunes `requests` against `capacity`, reusing the
    /// buffers carried in `scratch` (the arrays built here are handed back
    /// via [`SolveScratch::reclaim`] after the solve, so steady-state RM
    /// ticks run the prepass without allocating).
    pub(crate) fn build(
        requests: &[AllocRequest],
        capacity: &ResourceVector,
        scratch: &mut SolveScratch,
    ) -> Self {
        let num_kinds = capacity.num_kinds();
        let mut fingerprint = FNV_OFFSET;
        fnv_u64(&mut fingerprint, num_kinds as u64);
        for &c in capacity.counts() {
            fnv_u64(&mut fingerprint, c as u64);
        }

        let mut demands = std::mem::take(&mut scratch.demands);
        let mut costs = std::mem::take(&mut scratch.costs);
        let mut row_totals = std::mem::take(&mut scratch.row_totals);
        let mut orig = std::mem::take(&mut scratch.orig);
        let mut offsets = std::mem::take(&mut scratch.offsets);
        demands.clear();
        costs.clear();
        row_totals.clear();
        orig.clear();
        offsets.clear();
        offsets.reserve(requests.len() + 1);
        offsets.push(0);
        let mut cost_scale = 0.0f64;
        let mut pruned = 0usize;

        // Per-request scratch: demand rows and clamped costs of every
        // original option, computed once.
        let rows = &mut scratch.rows;
        let ccosts = &mut scratch.ccosts;
        for r in requests {
            fnv_u64(&mut fingerprint, r.app.0);
            fnv_u64(&mut fingerprint, r.options.len() as u64);
            rows.clear();
            ccosts.clear();
            for o in &r.options {
                fnv_u64(&mut fingerprint, o.op.0 as u64);
                for k in 0..num_kinds {
                    let d = o.erv.cores_of_kind(k);
                    rows.push(d);
                    fnv_u64(&mut fingerprint, d as u64);
                }
                fnv_u64(&mut fingerprint, o.cost.to_bits());
                ccosts.push(cost_or_large(o.cost));
                if o.cost.is_finite() && o.cost > 0.0 {
                    cost_scale = cost_scale.max(o.cost);
                }
            }
            let m = r.options.len();
            for j in 0..m {
                if dominated(rows, ccosts, num_kinds, j, m) {
                    pruned += 1;
                    continue;
                }
                let row = &rows[j * num_kinds..(j + 1) * num_kinds];
                demands.extend_from_slice(row);
                costs.push(ccosts[j]);
                row_totals.push(row.iter().sum());
                orig.push(j);
            }
            offsets.push(costs.len());
        }

        // Lane layout for the λ-scoring loop: pad each app's kept options
        // up to a LANES multiple, costs row-padded with +∞ (can never win
        // the strict-< argmin), demands transposed kind-major as f64 with
        // 0.0 pads.
        let napps = offsets.len() - 1;
        let mut lane_offsets = std::mem::take(&mut scratch.lane_offsets);
        lane_offsets.clear();
        lane_offsets.reserve(napps + 1);
        lane_offsets.push(0);
        for a in 0..napps {
            let m = offsets[a + 1] - offsets[a];
            lane_offsets.push(lane_offsets[a] + m.div_ceil(LANES) * LANES);
        }
        let lane_len = lane_offsets[napps];
        let mut lane_costs = std::mem::take(&mut scratch.lane_costs);
        lane_costs.clear();
        lane_costs.resize(lane_len, f64::INFINITY);
        let mut lane_demands = std::mem::take(&mut scratch.lane_demands);
        lane_demands.clear();
        lane_demands.resize(lane_len * num_kinds, 0.0);
        for a in 0..napps {
            let lo = lane_offsets[a];
            for (i, j) in (offsets[a]..offsets[a + 1]).enumerate() {
                lane_costs[lo + i] = costs[j];
                for k in 0..num_kinds {
                    lane_demands[k * lane_len + lo + i] = demands[j * num_kinds + k] as f64;
                }
            }
        }

        SolveInstance {
            num_kinds,
            capacity: capacity.counts().to_vec(),
            capacity_total: capacity.total(),
            demands,
            costs,
            row_totals,
            orig,
            offsets,
            lane_offsets,
            lane_costs,
            lane_demands,
            cost_scale: cost_scale.max(1e-9),
            fingerprint,
            pruned,
        }
    }

    pub(crate) fn num_apps(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Kept-option index range of application `app`.
    pub(crate) fn options(&self, app: usize) -> std::ops::Range<usize> {
        self.offsets[app]..self.offsets[app + 1]
    }

    /// Demand row of a kept option.
    pub(crate) fn demand(&self, opt: usize) -> &[u32] {
        &self.demands[opt * self.num_kinds..(opt + 1) * self.num_kinds]
    }

    /// Sentinel-clamped cost of a kept option.
    pub(crate) fn cost(&self, opt: usize) -> f64 {
        self.costs[opt]
    }

    /// Original option index of a kept option.
    pub(crate) fn original(&self, opt: usize) -> usize {
        self.orig[opt]
    }

    /// Maps internal picks (one kept-option index per app) to original
    /// option indices as returned by the public API.
    pub(crate) fn to_original(&self, picks: &[usize]) -> Vec<usize> {
        picks.iter().map(|&p| self.orig[p]).collect()
    }

    /// The kept option of `app` whose original index is `orig_idx`, if it
    /// survived pruning.
    pub(crate) fn kept_original(&self, app: usize, orig_idx: usize) -> Option<usize> {
        self.options(app).find(|&j| self.orig[j] == orig_idx)
    }

    /// Whether `picks` is a structurally valid selection (one kept option
    /// of each app, in range).
    pub(crate) fn picks_valid(&self, picks: &[usize]) -> bool {
        picks.len() == self.num_apps()
            && picks
                .iter()
                .enumerate()
                .all(|(a, &p)| self.options(a).contains(&p))
    }

    /// Per-app minimal selection: smallest total demand, ties broken by
    /// cost (the same rule as the reference solver).
    pub(crate) fn minimal_picks(&self) -> Vec<usize> {
        (0..self.num_apps())
            .map(|a| {
                self.options(a)
                    .min_by(|&i, &j| {
                        self.row_totals[i].cmp(&self.row_totals[j]).then(
                            self.costs[i]
                                .partial_cmp(&self.costs[j])
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                    })
                    .expect("validated nonempty")
            })
            .collect()
    }

    /// Sentinel-clamped total cost of a selection.
    pub(crate) fn selection_cost(&self, picks: &[usize]) -> f64 {
        picks.iter().map(|&p| self.costs[p]).sum()
    }

    /// Whether a per-kind demand vector fits within capacity.
    pub(crate) fn fits(&self, demand: &[u32]) -> bool {
        demand.iter().zip(&self.capacity).all(|(d, c)| d <= c)
    }

    /// Total padded lane length (`lane_offsets[num_apps]`).
    pub(crate) fn lane_len(&self) -> usize {
        *self.lane_offsets.last().expect("lane_offsets nonempty")
    }

    /// Padded lane range of application `app` (a superset of
    /// [`SolveInstance::options`]; pads score `INFINITY`).
    pub(crate) fn lanes(&self, app: usize) -> std::ops::Range<usize> {
        self.lane_offsets[app]..self.lane_offsets[app + 1]
    }

    /// Padded per-option costs (pads hold `f64::INFINITY`).
    pub(crate) fn lane_costs(&self) -> &[f64] {
        &self.lane_costs
    }

    /// Demand lanes of core kind `k` (kind-major, `lane_len()` wide).
    pub(crate) fn lane_demands(&self, k: usize) -> &[f64] {
        &self.lane_demands[k * self.lane_len()..(k + 1) * self.lane_len()]
    }
}

/// Reusable buffers for the [`SolveInstance`] prepass and the λ-scoring
/// loop, carried across solves by [`WarmStart`] so steady-state RM ticks
/// allocate nothing: [`SolveInstance::build`] takes the instance arrays out
/// of here, the solver borrows the scoring buffers (`pen`, `best_v`)
/// directly, and [`SolveScratch::reclaim`] hands the instance arrays back
/// once the solve finishes.
#[derive(Default)]
pub(crate) struct SolveScratch {
    demands: Vec<u32>,
    costs: Vec<f64>,
    row_totals: Vec<u32>,
    orig: Vec<usize>,
    offsets: Vec<usize>,
    lane_offsets: Vec<usize>,
    lane_costs: Vec<f64>,
    lane_demands: Vec<f64>,
    rows: Vec<u32>,
    ccosts: Vec<f64>,
    /// Per-lane λ-penalty accumulator (`lane_len()` wide during a solve).
    pub(crate) pen: Vec<f64>,
    /// Per-app relaxed best value of the current iteration.
    pub(crate) best_v: Vec<f64>,
}

impl SolveScratch {
    /// Takes the instance arrays back for reuse by the next solve.
    pub(crate) fn reclaim(&mut self, inst: SolveInstance) {
        self.demands = inst.demands;
        self.costs = inst.costs;
        self.row_totals = inst.row_totals;
        self.orig = inst.orig;
        self.offsets = inst.offsets;
        self.lane_offsets = inst.lane_offsets;
        self.lane_costs = inst.lane_costs;
        self.lane_demands = inst.lane_demands;
    }
}

// Scratch contents are meaningless between solves: cloning a WarmStart
// (e.g. when the RM snapshots state) starts the copy with empty buffers.
impl Clone for SolveScratch {
    fn clone(&self) -> Self {
        SolveScratch::default()
    }
}

impl std::fmt::Debug for SolveScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveScratch")
            .field("lane_cap", &self.lane_costs.capacity())
            .field("pen_cap", &self.pen.capacity())
            .finish()
    }
}

/// `true` if option `j` is dominated by another option of the same app:
/// some `i` has cost ≤ and per-kind demand ≤ everywhere (exact duplicates
/// keep the lowest index).
fn dominated(rows: &[u32], costs: &[f64], num_kinds: usize, j: usize, m: usize) -> bool {
    let dj = &rows[j * num_kinds..(j + 1) * num_kinds];
    (0..m).any(|i| {
        if i == j || costs[i] > costs[j] {
            return false;
        }
        let di = &rows[i * num_kinds..(i + 1) * num_kinds];
        if !di.iter().zip(dj).all(|(a, b)| a <= b) {
            return false;
        }
        // Strictly better somewhere, or an exact duplicate with lower index.
        costs[i] < costs[j] || di != dj || i < j
    })
}

/// Delta-maintained per-kind demand totals of a selection.
///
/// Swapping one application's pick updates the totals in O(kinds); the
/// feasibility and overshoot impact of a *candidate* swap is evaluated in
/// O(kinds) without mutating anything.
pub(crate) struct Totals {
    counts: Vec<u32>,
}

impl Totals {
    pub(crate) fn new(inst: &SolveInstance, picks: &[usize]) -> Self {
        let mut counts = vec![0u32; inst.num_kinds];
        for &p in picks {
            for (t, &d) in counts.iter_mut().zip(inst.demand(p)) {
                *t = t.saturating_add(d);
            }
        }
        Totals { counts }
    }

    pub(crate) fn fits(&self, inst: &SolveInstance) -> bool {
        inst.fits(&self.counts)
    }

    /// Total units above capacity, summed over kinds.
    pub(crate) fn overshoot(&self, inst: &SolveInstance) -> i64 {
        self.counts
            .iter()
            .zip(&inst.capacity)
            .map(|(&d, &c)| (d as i64 - c as i64).max(0))
            .sum()
    }

    /// Applies the swap `from → to` for one application.
    pub(crate) fn swap(&mut self, inst: &SolveInstance, from: usize, to: usize) {
        let f = inst.demand(from);
        let t = inst.demand(to);
        for (k, c) in self.counts.iter_mut().enumerate() {
            *c = (*c - f[k]).saturating_add(t[k]);
        }
    }

    /// Whether the selection stays within capacity after swapping
    /// `from → to` (O(kinds), no mutation).
    pub(crate) fn fits_after_swap(&self, inst: &SolveInstance, from: usize, to: usize) -> bool {
        let f = inst.demand(from);
        let t = inst.demand(to);
        self.counts
            .iter()
            .enumerate()
            .all(|(k, &c)| c - f[k] + t[k] <= inst.capacity[k])
    }

    /// Overshoot reduction of the swap `from → to` (positive = helps).
    pub(crate) fn reduction_after_swap(&self, inst: &SolveInstance, from: usize, to: usize) -> i64 {
        let f = inst.demand(from);
        let t = inst.demand(to);
        let mut reduction = 0i64;
        for (k, &c) in self.counts.iter().enumerate() {
            let d = c as i64;
            let cap = inst.capacity[k] as i64;
            let delta = t[k] as i64 - f[k] as i64;
            reduction += (d - cap).max(0) - (d + delta - cap).max(0);
        }
        reduction
    }
}

/// Solver state threaded across consecutive solves of slowly changing
/// instances (the RM re-solves on every allocation round; consecutive
/// rounds differ by at most one application arriving or leaving).
///
/// Holds the λ multiplier vector of the last Lagrangian solve, the last
/// picks keyed by `(application, operating point)`, and a memo of the last
/// solved instance fingerprint with its answer. Create one with
/// [`WarmStart::default`] and pass it to [`crate::allocate_warm`] (or
/// [`crate::select`]); the solver reads and refreshes it on every
/// successful Lagrangian solve.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    pub(crate) lambda: Vec<f64>,
    pub(crate) last_picks: Vec<(AppId, OpId)>,
    pub(crate) memo: Option<(u64, Vec<usize>)>,
    pub(crate) memo_hits: u64,
    pub(crate) certified_exits: u64,
    pub(crate) full_solves: u64,
    /// Reusable prepass/scoring buffers (see [`SolveScratch`]).
    pub(crate) scratch: SolveScratch,
}

impl WarmStart {
    /// Fresh, empty warm-start state.
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Solves answered from the instance memo (identical instance, zero
    /// iterations).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Solves that exited early with a duality-gap certificate.
    pub fn certified_exits(&self) -> u64 {
        self.certified_exits
    }

    /// Solves that ran the full cold iteration schedule.
    pub fn full_solves(&self) -> u64 {
        self.full_solves
    }

    /// Drops all carried state (the next solve runs cold).
    pub fn clear(&mut self) {
        self.lambda.clear();
        self.last_picks.clear();
        self.memo = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocOption;
    use harp_types::{ErvShape, ExtResourceVector};

    fn build(requests: &[AllocRequest], capacity: &ResourceVector) -> SolveInstance {
        SolveInstance::build(requests, capacity, &mut SolveScratch::default())
    }

    fn req(app: u64, options: &[(&[u32], f64)]) -> AllocRequest {
        let shape = ErvShape::new(vec![1; options[0].0.len()]);
        AllocRequest {
            app: AppId(app),
            options: options
                .iter()
                .enumerate()
                .map(|(i, (flat, cost))| AllocOption {
                    op: OpId(i),
                    cost: *cost,
                    erv: ExtResourceVector::from_flat(&shape, flat).unwrap(),
                })
                .collect(),
        }
    }

    #[test]
    fn sentinel_clamps_only_non_finite() {
        assert_eq!(cost_or_large(3.5), 3.5);
        assert_eq!(cost_or_large(f64::INFINITY), INFINITE_COST);
        assert_eq!(cost_or_large(f64::NEG_INFINITY), INFINITE_COST);
        assert!(cost_or_large(f64::INFINITY).is_finite());
    }

    #[test]
    fn pruning_drops_dominated_and_keeps_minimal() {
        let capacity = ResourceVector::new(vec![4, 4]);
        // Option 1 dominates option 2 (cheaper, smaller); option 0 is
        // incomparable; option 3 duplicates option 1 (same cost/demand).
        let r = req(
            1,
            &[
                (&[2, 0], 5.0),
                (&[0, 1], 1.0),
                (&[1, 2], 2.0),
                (&[0, 1], 1.0),
            ],
        );
        let inst = build(&[r], &capacity);
        assert_eq!(inst.pruned, 2);
        let kept: Vec<usize> = inst.options(0).map(|j| inst.original(j)).collect();
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(inst.minimal_picks(), vec![1]);
        assert_eq!(inst.kept_original(0, 2), None);
        assert_eq!(inst.kept_original(0, 1), Some(1));
    }

    #[test]
    fn fingerprint_tracks_instance_identity() {
        let capacity = ResourceVector::new(vec![4, 4]);
        let a = build(&[req(1, &[(&[1, 0], 2.0)])], &capacity);
        let b = build(&[req(1, &[(&[1, 0], 2.0)])], &capacity);
        assert_eq!(a.fingerprint, b.fingerprint);
        let c = build(&[req(1, &[(&[1, 0], 2.0 + 1e-12)])], &capacity);
        assert_ne!(a.fingerprint, c.fingerprint);
        let d = build(&[req(2, &[(&[1, 0], 2.0)])], &capacity);
        assert_ne!(a.fingerprint, d.fingerprint);
        let e = build(
            &[req(1, &[(&[1, 0], 2.0)])],
            &ResourceVector::new(vec![4, 3]),
        );
        assert_ne!(a.fingerprint, e.fingerprint);
    }

    #[test]
    fn totals_deltas_match_recomputation() {
        let capacity = ResourceVector::new(vec![3, 2]);
        let reqs = vec![
            req(1, &[(&[2, 0], 1.0), (&[0, 2], 2.0)]),
            req(2, &[(&[1, 1], 1.0), (&[0, 3], 2.0)]),
        ];
        let inst = build(&reqs, &capacity);
        let mut picks = vec![inst.options(0).start, inst.options(1).start];
        let mut totals = Totals::new(&inst, &picks); // (3, 1)
        assert!(totals.fits(&inst));
        // Swap app 2 to its (0,3) option: totals become (2, 3) — kind 1
        // overshoots by one. Verify against a from-scratch recompute.
        let to = inst.options(1).start + 1;
        assert!(!totals.fits_after_swap(&inst, picks[1], to));
        assert_eq!(totals.reduction_after_swap(&inst, picks[1], to), -1);
        totals.swap(&inst, picks[1], to);
        picks[1] = to;
        let fresh = Totals::new(&inst, &picks);
        assert_eq!(totals.counts, fresh.counts);
        assert_eq!(totals.overshoot(&inst), 1);
    }
}
