//! The pre-warm-start MMKP solvers, kept verbatim as the behavioral
//! baseline.
//!
//! This module is the solver exactly as it shipped before the incremental
//! engine in `harp_alloc`'s `solvers.rs` existed: it walks `AllocRequest` option
//! lists directly, recomputes total demand from scratch (allocating a
//! `ResourceVector` per evaluation), and runs a fixed 60-iteration
//! subgradient schedule with no state carried between solves.
//!
//! It exists for differential testing: the property tests in
//! `tests/prop_alloc.rs` assert that the engine's cold-start output is
//! cost-equal to this solver on every seeded instance, and that
//! dominance pruning never changes the exact optimum. Its fixed schedule
//! is also the unit of [`harp_alloc::Selection::work`]. It lives under
//! `tests/` so no library build carries it.
//!
//! Do not "optimize" this module — its value is being the fixed reference.

use harp_alloc::{cost_or_large, AllocRequest};
use harp_types::{HarpError, ResourceVector, Result};

pub use harp_alloc::SolverKind;

/// Solves the selection problem with the pre-engine reference
/// implementation: returns the chosen option index per request. Callers
/// guarantee the instance is feasible at minimal demands.
///
/// # Errors
///
/// [`HarpError::InsufficientResources`] when no feasible selection exists,
/// [`HarpError::Numeric`] when [`SolverKind::Exact`] refuses an instance
/// with more than 5·10⁷ combinations.
pub fn select(
    requests: &[AllocRequest],
    capacity: &ResourceVector,
    kind: SolverKind,
) -> Result<Vec<usize>> {
    match kind {
        SolverKind::Lagrangian => lagrangian(requests, capacity),
        SolverKind::Greedy => greedy(requests, capacity),
        SolverKind::Exact => exact(requests, capacity),
    }
}

/// Sentinel-clamped total cost of a selection — the quantity the reference
/// lagrangian/greedy/exact phases minimize. Exposed so differential tests
/// and the benchmark compare engine and reference on the same objective.
pub fn selection_cost(requests: &[AllocRequest], picks: &[usize]) -> f64 {
    requests
        .iter()
        .zip(picks)
        .map(|(r, &p)| cost_or_large(r.options[p].cost))
        .sum()
}

/// Whether `picks` keeps total demand within `capacity`.
pub fn is_feasible(requests: &[AllocRequest], picks: &[usize], capacity: &ResourceVector) -> bool {
    total_demand(requests, picks, capacity.num_kinds()).fits_within(capacity)
}

fn total_demand(requests: &[AllocRequest], picks: &[usize], num_kinds: usize) -> ResourceVector {
    let mut total = ResourceVector::zero(num_kinds);
    for (r, &p) in requests.iter().zip(picks) {
        total = total
            .checked_add(&r.options[p].demand())
            .expect("uniform shapes");
    }
    total
}

fn raw_selection_cost(requests: &[AllocRequest], picks: &[usize]) -> f64 {
    requests
        .iter()
        .zip(picks)
        .map(|(r, &p)| r.options[p].cost)
        .sum()
}

/// The index of each request's smallest-total-demand option (ties broken by
/// cost) — the guaranteed-feasible fallback selection.
fn minimal_picks(requests: &[AllocRequest]) -> Vec<usize> {
    requests
        .iter()
        .map(|r| {
            r.options
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.demand().total().cmp(&b.demand().total()).then(
                        a.cost
                            .partial_cmp(&b.cost)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                })
                .map(|(i, _)| i)
                .expect("validated nonempty")
        })
        .collect()
}

/// Lagrangian relaxation: relax Eq. 1b with multipliers λ ≥ 0, solve the
/// separable per-application subproblems, update λ by projected
/// subgradient, then repair to feasibility and greedily use leftovers.
fn lagrangian(requests: &[AllocRequest], capacity: &ResourceVector) -> Result<Vec<usize>> {
    let num_kinds = capacity.num_kinds();
    let mut lambda = vec![0.0f64; num_kinds];
    let mut picks = minimal_picks(requests);
    let mut best_feasible: Option<(f64, Vec<usize>)> = None;

    // Normalize the subgradient step by the cost scale so convergence does
    // not depend on the magnitude of ζ.
    let cost_scale = requests
        .iter()
        .flat_map(|r| r.options.iter().map(|o| o.cost))
        .filter(|c| c.is_finite() && *c > 0.0)
        .fold(0.0f64, f64::max)
        .max(1e-9);

    const ITERS: usize = 60;
    for it in 0..ITERS {
        // Per-app argmin of ζ + λ·r.
        for (i, r) in requests.iter().enumerate() {
            let mut best = 0usize;
            let mut best_v = f64::INFINITY;
            for (j, o) in r.options.iter().enumerate() {
                let d = o.demand();
                let penalty: f64 = d
                    .counts()
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| lambda[k] * c as f64)
                    .sum();
                // Infinite-cost options only win if nothing else exists.
                let v = cost_or_large(o.cost) + penalty;
                if v < best_v {
                    best_v = v;
                    best = j;
                }
            }
            picks[i] = best;
        }
        let demand = total_demand(requests, &picks, num_kinds);
        if demand.fits_within(capacity) {
            let cost = raw_selection_cost(requests, &picks);
            if best_feasible.as_ref().is_none_or(|(c, _)| cost < *c) {
                best_feasible = Some((cost, picks.clone()));
            }
        }
        // Projected subgradient step with diminishing step size.
        let step = cost_scale / ((it + 1) as f64).sqrt() / capacity.total().max(1) as f64;
        for (k, l) in lambda.iter_mut().enumerate() {
            let g = demand.counts()[k] as f64 - capacity.counts()[k] as f64;
            *l = (*l + step * g).max(0.0);
        }
    }

    let mut picks = match best_feasible {
        Some((_, p)) => p,
        None => {
            // Repair from the last relaxed selection.
            repair(requests, picks, capacity)?
        }
    };
    upgrade(requests, &mut picks, capacity);
    // The subgradient iteration and the greedy climb explore different
    // basins; keep whichever feasible selection is cheaper (this makes the
    // production solver dominate the greedy baseline by construction).
    if let Ok(greedy_picks) = greedy(requests, capacity) {
        if raw_selection_cost(requests, &greedy_picks) < raw_selection_cost(requests, &picks) {
            picks = greedy_picks;
        }
    }
    Ok(picks)
}

/// Repair an infeasible selection: repeatedly apply the downgrade with the
/// best (cost increase) / (overshoot reduction) ratio until feasible.
fn repair(
    requests: &[AllocRequest],
    mut picks: Vec<usize>,
    capacity: &ResourceVector,
) -> Result<Vec<usize>> {
    let num_kinds = capacity.num_kinds();
    loop {
        let demand = total_demand(requests, &picks, num_kinds);
        let overshoot: i64 = demand
            .counts()
            .iter()
            .zip(capacity.counts())
            .map(|(&d, &c)| (d as i64 - c as i64).max(0))
            .sum();
        if overshoot == 0 {
            return Ok(picks);
        }
        let mut best: Option<(f64, usize, usize)> = None; // (ratio, app, option)
        for (i, r) in requests.iter().enumerate() {
            let cur = &r.options[picks[i]];
            for (j, o) in r.options.iter().enumerate() {
                if j == picks[i] {
                    continue;
                }
                // Overshoot reduction if we swap.
                let mut reduction = 0i64;
                for k in 0..num_kinds {
                    let d = demand.counts()[k] as i64;
                    let cap = capacity.counts()[k] as i64;
                    let delta = o.demand().counts()[k] as i64 - cur.demand().counts()[k] as i64;
                    let new_over = (d + delta - cap).max(0);
                    let old_over = (d - cap).max(0);
                    reduction += old_over - new_over;
                }
                if reduction <= 0 {
                    continue;
                }
                let dcost = cost_or_large(o.cost) - cost_or_large(cur.cost);
                let ratio = dcost / reduction as f64;
                if best.is_none_or(|(b, _, _)| ratio < b) {
                    best = Some((ratio, i, j));
                }
            }
        }
        match best {
            Some((_, i, j)) => picks[i] = j,
            None => {
                // No single swap helps; fall back to the minimal selection,
                // which the caller guarantees is feasible.
                let min = minimal_picks(requests);
                if is_feasible(requests, &min, capacity) {
                    return Ok(min);
                }
                return Err(HarpError::InsufficientResources {
                    detail: "repair failed on an infeasible instance".into(),
                });
            }
        }
    }
}

/// Greedy improvement: while feasible swaps with lower cost exist, apply the
/// best one. Uses leftover capacity (the paper's RM hands unassigned cores
/// to exploring applications; here they go to whoever benefits most).
fn upgrade(requests: &[AllocRequest], picks: &mut [usize], capacity: &ResourceVector) {
    loop {
        let mut best: Option<(f64, usize, usize)> = None;
        for (i, r) in requests.iter().enumerate() {
            let cur_cost = cost_or_large(r.options[picks[i]].cost);
            for (j, o) in r.options.iter().enumerate() {
                if j == picks[i] {
                    continue;
                }
                let gain = cur_cost - cost_or_large(o.cost);
                if gain <= 1e-12 {
                    continue;
                }
                let old = picks[i];
                picks[i] = j;
                let ok = is_feasible(requests, picks, capacity);
                picks[i] = old;
                if ok && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, i, j));
                }
            }
        }
        match best {
            Some((_, i, j)) => picks[i] = j,
            None => return,
        }
    }
}

/// Greedy heuristic: start from the minimal selection (repaired if the
/// min-total choices overload a kind), then apply upgrades.
fn greedy(requests: &[AllocRequest], capacity: &ResourceVector) -> Result<Vec<usize>> {
    let mut picks = minimal_picks(requests);
    if !is_feasible(requests, &picks, capacity) {
        picks = repair(requests, picks, capacity)?;
    }
    upgrade(requests, &mut picks, capacity);
    Ok(picks)
}

/// Exact branch-and-bound over the (small) selection space.
fn exact(requests: &[AllocRequest], capacity: &ResourceVector) -> Result<Vec<usize>> {
    let space: f64 = requests.iter().map(|r| r.options.len() as f64).product();
    if space > 5e7 {
        return Err(HarpError::Numeric {
            detail: format!("exact solver refuses {space:.0} combinations"),
        });
    }
    let num_kinds = capacity.num_kinds();
    let mut best_cost = f64::INFINITY;
    let mut best: Option<Vec<usize>> = None;
    let mut picks = vec![0usize; requests.len()];

    // Per-app lower bound on remaining cost for pruning.
    let min_costs: Vec<f64> = requests
        .iter()
        .map(|r| {
            r.options
                .iter()
                .map(|o| cost_or_large(o.cost))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let suffix_min: Vec<f64> = {
        let mut v = vec![0.0; requests.len() + 1];
        for i in (0..requests.len()).rev() {
            v[i] = v[i + 1] + min_costs[i];
        }
        v
    };

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        requests: &[AllocRequest],
        capacity: &ResourceVector,
        suffix_min: &[f64],
        picks: &mut Vec<usize>,
        depth: usize,
        used: ResourceVector,
        cost: f64,
        best_cost: &mut f64,
        best: &mut Option<Vec<usize>>,
    ) {
        if cost + suffix_min[depth] >= *best_cost {
            return;
        }
        if depth == requests.len() {
            *best_cost = cost;
            *best = Some(picks.clone());
            return;
        }
        for (j, o) in requests[depth].options.iter().enumerate() {
            let next_used = match used.checked_add(&o.demand()) {
                Ok(u) => u,
                Err(_) => continue,
            };
            if !next_used.fits_within(capacity) {
                continue;
            }
            picks[depth] = j;
            dfs(
                requests,
                capacity,
                suffix_min,
                picks,
                depth + 1,
                next_used,
                cost + cost_or_large(o.cost),
                best_cost,
                best,
            );
        }
    }

    dfs(
        requests,
        capacity,
        &suffix_min,
        &mut picks,
        0,
        ResourceVector::zero(num_kinds),
        0.0,
        &mut best_cost,
        &mut best,
    );
    best.ok_or_else(|| HarpError::InsufficientResources {
        detail: "exact solver found no feasible selection".into(),
    })
}
