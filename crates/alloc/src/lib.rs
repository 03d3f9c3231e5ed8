//! Energy-efficient multi-application resource allocation (paper §4.2).
//!
//! The HARP RM selects one operating point per application so that the
//! summed energy-utility cost is minimal while per-kind core demand stays
//! within platform capacity — a Multiple-choice Multi-dimensional Knapsack
//! Problem (Eq. 1):
//!
//! ```text
//! minimize   Σ_apps  ζ(selected point)
//! subject to Σ_apps  r(selected point) ≤ R      (per core kind)
//! ```
//!
//! Since MMKP is NP-hard, HARP uses a Lagrangian-relaxation approximation in
//! the style of Wildermann et al. ([`SolverKind::Lagrangian`]); a greedy
//! upgrade heuristic ([`SolverKind::Greedy`]) and an exact branch-and-bound
//! solver ([`SolverKind::Exact`], small instances only) are provided for the
//! ablation study and for testing the approximation gap.
//!
//! After point selection, [`allocate`] maps each application to *concrete,
//! disjoint* physical cores (spatial isolation). If the instance is
//! infeasible even at minimal demands (more applications than resources),
//! the allocator falls back to *co-allocation* — capacity is relaxed and
//! applications time-share, flagged so the RM can suspend performance
//! monitoring (paper §4.2.2 "Limitations").
//!
//! # Example
//!
//! ```
//! use harp_alloc::{allocate, AllocOption, AllocRequest, SolverKind};
//! use harp_platform::HardwareDescription;
//! use harp_types::{AppId, ExtResourceVector, OpId};
//!
//! let hw = HardwareDescription::raptor_lake();
//! let shape = hw.erv_shape();
//! let opt = |flat: &[u32], cost: f64| AllocOption {
//!     op: OpId(0),
//!     cost,
//!     erv: ExtResourceVector::from_flat(&shape, flat).unwrap(),
//! };
//! let reqs = vec![
//!     AllocRequest { app: AppId(1), options: vec![opt(&[0, 4, 0], 10.0), opt(&[0, 0, 8], 14.0)] },
//!     AllocRequest { app: AppId(2), options: vec![opt(&[0, 4, 0], 12.0), opt(&[0, 0, 8], 13.0)] },
//! ];
//! let alloc = allocate(&reqs, &hw, SolverKind::Lagrangian)?;
//! assert_eq!(alloc.choices.len(), 2);
//! assert!(!alloc.co_allocated);
//! # Ok::<(), harp_types::HarpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assign;
mod instance;
mod solvers;
pub mod stats;

pub use assign::hw_threads_for;
pub use instance::{cost_or_large, WarmStart, INFINITE_COST};
pub use solvers::{
    select, select_deadline, Selection, SolveDeadline, SolveOutcome, SolverKind, REFERENCE_ITERS,
};

use harp_platform::{CoreAvailability, HardwareDescription};
use harp_types::{
    AppId, CoreId, ExtResourceVector, HarpError, HwThreadId, OpId, ResourceVector, Result,
};
use std::collections::HashMap;

/// One candidate operating point of an application, as seen by the
/// allocator: its id, its energy-utility cost and its resource demand.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocOption {
    /// Operating-point id within the application's table.
    pub op: OpId,
    /// Energy-utility cost ζ (Eq. 2); `f64::INFINITY` marks points that
    /// must only be chosen as a last resort.
    pub cost: f64,
    /// The extended resource vector of the point.
    pub erv: ExtResourceVector,
}

impl AllocOption {
    /// The coarse per-kind core demand.
    pub fn demand(&self) -> ResourceVector {
        self.erv.resource_vector()
    }
}

/// The candidate set of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocRequest {
    /// The application.
    pub app: AppId,
    /// Candidate operating points (at least one, all with nonzero demand).
    pub options: Vec<AllocOption>,
}

/// The outcome for one application.
#[derive(Debug, Clone)]
pub struct Choice {
    /// The selected operating point.
    pub op: OpId,
    /// Its extended resource vector.
    pub erv: ExtResourceVector,
    /// The concrete physical cores granted (disjoint across applications
    /// unless `co_allocated`).
    pub cores: Vec<CoreId>,
    /// The hardware threads on the granted cores the application should
    /// use, honouring the vector's threads-per-core structure.
    pub hw_threads: Vec<HwThreadId>,
}

impl Choice {
    /// The parallelization degree implied by the selection (total hardware
    /// threads) — what libharp's team-size hook applies.
    pub fn parallelism(&self) -> u32 {
        self.erv.total_threads()
    }
}

/// A complete allocation round result.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Per-application choices.
    pub choices: HashMap<AppId, Choice>,
    /// Whether capacity had to be relaxed (applications overlap and
    /// time-share; the RM suspends monitoring in this mode, §4.2.2).
    pub co_allocated: bool,
    /// Total energy-utility cost of the selection (finite costs only).
    pub total_cost: f64,
    /// Solve effort as a fraction of the reference solver's fixed
    /// iteration schedule (see [`Selection::work`]); `1.0` for full solves
    /// and the co-allocation fallback. The simulator frontend scales its
    /// modeled solve cost by this.
    pub solve_work: f64,
}

/// Solves the selection problem and maps the selection onto disjoint
/// physical cores.
///
/// # Errors
///
/// Returns [`HarpError::InsufficientResources`] if a single application's
/// smallest option exceeds the whole machine, and
/// [`HarpError::Other`]/[`HarpError::ShapeMismatch`] for malformed requests
/// (no options, zero-demand options, wrong shape).
pub fn allocate(
    requests: &[AllocRequest],
    hw: &HardwareDescription,
    solver: SolverKind,
) -> Result<Allocation> {
    allocate_impl(requests, hw, None, solver, None, SolveDeadline::UNBOUNDED)
}

/// Like [`allocate`], but threads a [`WarmStart`] through the solver so λ
/// multipliers, previous picks and the instance memo carry across
/// consecutive rounds. The RM persists one `WarmStart` between ticks;
/// consecutive instances differ by at most an arrival or departure, so
/// warm rounds converge in a handful of iterations (or none at all).
///
/// # Errors
///
/// Same contract as [`allocate`].
pub fn allocate_warm(
    requests: &[AllocRequest],
    hw: &HardwareDescription,
    solver: SolverKind,
    warm: &mut WarmStart,
) -> Result<Allocation> {
    allocate_avail(requests, hw, None, solver, warm, SolveDeadline::UNBOUNDED)
}

/// Like [`allocate_warm`], but with a cooperative [`SolveDeadline`] and
/// restricted to the cores a [`CoreAvailability`] mask leaves usable: the
/// MMKP capacity vector shrinks to the per-kind count of usable cores, and
/// the spatial assignment skips banned cores entirely, so a degraded
/// platform (core hotplug, quarantine) never receives work on an offline
/// core. With `avail == None` (or a full mask) and
/// [`SolveDeadline::UNBOUNDED`] this is bit-identical to [`allocate_warm`].
///
/// # Errors
///
/// Same contract as [`allocate`], plus [`HarpError::DeadlineExceeded`] when
/// the budget exhausts before the solver certifies an answer. Unlike other
/// solver failures, a deadline overrun does **not** fall back to
/// co-allocation — tearing up every application's placement is exactly the
/// wrong response to a transient time crunch. The caller keeps its previous
/// feasible allocation and re-solves on the next round.
///
/// An instance that the necessary-condition bounds already prove infeasible
/// (per-kind minima, or the sum of every application's smallest option in
/// total cores, exceed capacity) never reaches the solver: it co-allocates
/// at once whatever the deadline, since no budget could have found a
/// disjoint placement.
///
/// A request whose every option exceeds the *shrunk* capacity yields
/// [`HarpError::InsufficientResources`] — callers managing degradation
/// should pre-filter such options.
pub fn allocate_avail(
    requests: &[AllocRequest],
    hw: &HardwareDescription,
    avail: Option<&CoreAvailability>,
    solver: SolverKind,
    warm: &mut WarmStart,
    deadline: SolveDeadline,
) -> Result<Allocation> {
    allocate_impl(requests, hw, avail, solver, Some(warm), deadline)
}

fn allocate_impl(
    requests: &[AllocRequest],
    hw: &HardwareDescription,
    avail: Option<&CoreAvailability>,
    solver: SolverKind,
    warm: Option<&mut WarmStart>,
    deadline: SolveDeadline,
) -> Result<Allocation> {
    let capacity = match avail {
        Some(a) => a.capacity(hw),
        None => hw.capacity(),
    };
    validate_requests(requests, hw)?;
    if requests.is_empty() {
        return Ok(Allocation {
            choices: HashMap::new(),
            co_allocated: false,
            total_cost: 0.0,
            solve_work: 0.0,
        });
    }

    // Necessary feasibility conditions (lower bounds — the real selection
    // couples kinds, which the solvers handle). Per kind: even if every app
    // chose its kind-minimal option, does the demand fit? And over all
    // kinds: every selection needs at least each app's smallest option in
    // total cores, so that sum must fit the machine. The second catches
    // profiles whose per-kind minima are all zero (a P-only option beside
    // an E-only one) before the solver burns its whole schedule proving the
    // same. Both read the counts straight off the extended vectors instead
    // of materializing a `ResourceVector` per option.
    let num_kinds = capacity.num_kinds();
    let mut lower_bound = vec![0u32; num_kinds];
    let mut min_total_cores = 0u32;
    for r in requests {
        for (k, lb) in lower_bound.iter_mut().enumerate() {
            let min_k = r
                .options
                .iter()
                .map(|o| o.erv.cores_of_kind(k))
                .min()
                .expect("validated nonempty");
            *lb += min_k;
        }
        let min_total = r
            .options
            .iter()
            .map(|o| o.erv.total_cores())
            .min()
            .expect("validated nonempty");
        min_total_cores = min_total_cores.saturating_add(min_total);
    }
    let maybe_feasible = min_total_cores <= capacity.total()
        && lower_bound
            .iter()
            .zip(capacity.counts())
            .all(|(lb, cap)| lb <= cap);

    let solved = if maybe_feasible {
        match solvers::select_deadline(requests, &capacity, solver, warm, deadline) {
            Ok(sel) => Some(sel),
            // A deadline overrun is a *time* failure, not a capacity one:
            // propagate it instead of tearing up placements via the
            // co-allocation fallback below.
            Err(e @ HarpError::DeadlineExceeded { .. }) => return Err(e),
            Err(_) => None,
        }
    } else {
        None
    };

    if let Some(sel) = solved {
        let picks = sel.picks;
        let choices = assign::assign_cores(requests, &picks, hw, avail, false)?;
        let total_cost = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| requests[i].options[p].cost)
            .filter(|c| c.is_finite())
            .sum();
        Ok(Allocation {
            choices,
            co_allocated: false,
            total_cost,
            solve_work: sel.work,
        })
    } else {
        // Co-allocation: relax Eq. 1b; every app gets its cheapest option
        // that fits the machine alone, and cores may overlap.
        let mut picks = Vec::with_capacity(requests.len());
        for r in requests {
            let pick = r
                .options
                .iter()
                .enumerate()
                .filter(|(_, o)| o.erv.fits_within(&capacity))
                .min_by(|(_, a), (_, b)| {
                    a.cost
                        .partial_cmp(&b.cost)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.erv.total_cores().cmp(&b.erv.total_cores()))
                })
                .map(|(i, _)| i)
                .ok_or_else(|| HarpError::InsufficientResources {
                    detail: format!("app {} has no operating point fitting the machine", r.app),
                })?;
            picks.push(pick);
        }
        let choices = assign::assign_cores(requests, &picks, hw, avail, true)?;
        let total_cost = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| requests[i].options[p].cost)
            .filter(|c| c.is_finite())
            .sum();
        Ok(Allocation {
            choices,
            co_allocated: true,
            total_cost,
            solve_work: 1.0,
        })
    }
}

fn validate_requests(requests: &[AllocRequest], hw: &HardwareDescription) -> Result<()> {
    let shape = hw.erv_shape();
    let mut seen = std::collections::HashSet::new();
    for r in requests {
        if !seen.insert(r.app) {
            return Err(HarpError::other(format!("duplicate request for {}", r.app)));
        }
        if r.options.is_empty() {
            return Err(HarpError::other(format!("{} has no options", r.app)));
        }
        for o in &r.options {
            if !o.erv.has_shape(&shape) {
                return Err(HarpError::ShapeMismatch {
                    detail: format!("option of {} has wrong shape", r.app),
                });
            }
            if o.erv.is_zero() {
                return Err(HarpError::other(format!(
                    "option of {} demands zero resources",
                    r.app
                )));
            }
            if o.cost.is_nan() {
                return Err(HarpError::other(format!(
                    "option of {} has NaN cost",
                    r.app
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_platform::presets;
    use harp_types::ErvShape;

    fn opt(shape: &ErvShape, flat: &[u32], cost: f64) -> AllocOption {
        AllocOption {
            op: OpId(0),
            cost,
            erv: ExtResourceVector::from_flat(shape, flat).unwrap(),
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

    #[test]
    fn empty_request_list_is_trivial() {
        let hw = presets::raptor_lake();
        let a = allocate(&[], &hw, SolverKind::Lagrangian).unwrap();
        assert!(a.choices.is_empty());
        assert!(!a.co_allocated);
    }

    #[test]
    fn single_app_gets_cheapest_option() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let reqs = vec![req(
            1,
            vec![
                opt(&shape, &[0, 8, 0], 20.0),
                opt(&shape, &[0, 0, 8], 10.0),
                opt(&shape, &[0, 8, 16], 15.0),
            ],
        )];
        for solver in [
            SolverKind::Lagrangian,
            SolverKind::Greedy,
            SolverKind::Exact,
        ] {
            let a = allocate(&reqs, &hw, solver).unwrap();
            let c = &a.choices[&AppId(1)];
            assert_eq!(c.op, OpId(1), "{solver:?}");
            assert_eq!(c.cores.len(), 8);
            assert_eq!(c.parallelism(), 8);
        }
    }

    #[test]
    fn two_apps_partition_without_overlap() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let mk = |cost_p: f64, cost_e: f64| {
            vec![
                opt(&shape, &[0, 6, 0], cost_p),
                opt(&shape, &[0, 0, 10], cost_e),
            ]
        };
        let reqs = vec![req(1, mk(5.0, 9.0)), req(2, mk(9.0, 5.0))];
        let a = allocate(&reqs, &hw, SolverKind::Lagrangian).unwrap();
        assert!(!a.co_allocated);
        let c1 = &a.choices[&AppId(1)];
        let c2 = &a.choices[&AppId(2)];
        // App 1 should prefer P-cores, app 2 E-cores (their cheap options).
        assert_eq!(c1.op, OpId(0));
        assert_eq!(c2.op, OpId(1));
        let overlap = c1.cores.iter().any(|c| c2.cores.contains(c));
        assert!(!overlap);
    }

    #[test]
    fn capacity_forces_downgrades() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        // Three apps each preferring all 8 P-cores; only one can have them.
        let mk = || {
            vec![
                opt(&shape, &[0, 8, 0], 1.0), // preferred but scarce
                opt(&shape, &[0, 0, 5], 3.0), // fallback
            ]
        };
        let reqs = vec![req(1, mk()), req(2, mk()), req(3, mk())];
        for solver in [
            SolverKind::Lagrangian,
            SolverKind::Greedy,
            SolverKind::Exact,
        ] {
            let a = allocate(&reqs, &hw, solver).unwrap();
            assert!(!a.co_allocated, "{solver:?}");
            // Capacity respected: at most one app on the P-cores.
            let p_users = a
                .choices
                .values()
                .filter(|c| c.erv.cores_of_kind(0) > 0)
                .count();
            assert!(p_users <= 1, "{solver:?}: {p_users} apps on P-cores");
            // No core is granted twice.
            let mut all: Vec<CoreId> = a.choices.values().flat_map(|c| c.cores.clone()).collect();
            let n = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), n, "{solver:?}");
        }
    }

    #[test]
    fn lagrangian_matches_exact_on_small_instances() {
        let hw = presets::tiny_test(); // 2 big + 2 little
        let shape = hw.erv_shape();
        let reqs = vec![
            req(
                1,
                vec![
                    opt(&shape, &[0, 1, 0], 4.0),
                    opt(&shape, &[0, 2, 0], 2.5),
                    opt(&shape, &[0, 0, 1], 6.0),
                ],
            ),
            req(
                2,
                vec![opt(&shape, &[0, 1, 0], 3.0), opt(&shape, &[0, 0, 2], 3.5)],
            ),
        ];
        let exact = allocate(&reqs, &hw, SolverKind::Exact).unwrap();
        let lagr = allocate(&reqs, &hw, SolverKind::Lagrangian).unwrap();
        // The approximation should be within 30% of optimal here.
        assert!(lagr.total_cost <= exact.total_cost * 1.3 + 1e-9);
    }

    #[test]
    fn overload_triggers_co_allocation() {
        let hw = presets::tiny_test(); // 4 cores total
        let shape = hw.erv_shape();
        // Five apps, each needing at least 1 big core: no disjoint fit.
        let reqs: Vec<AllocRequest> = (1..=5)
            .map(|i| req(i, vec![opt(&shape, &[0, 2, 0], 1.0)]))
            .collect();
        let a = allocate(&reqs, &hw, SolverKind::Lagrangian).unwrap();
        assert!(a.co_allocated);
        assert_eq!(a.choices.len(), 5);
        for c in a.choices.values() {
            assert_eq!(c.cores.len(), 2);
        }
    }

    #[test]
    fn provably_infeasible_instances_skip_the_solver() {
        let hw = presets::raptor_lake(); // 8 P + 16 E
        let shape = hw.erv_shape();
        // The storm profile: 4 P-cores or 8 E-cores. Every per-kind minimum
        // is zero, so only the total-cores bound sees that seven such apps
        // (7 x 4 = 28 > 24 cores) cannot be placed disjointly.
        let storm = |n: u64| -> Vec<AllocRequest> {
            (1..=n)
                .map(|i| {
                    req(
                        i,
                        vec![opt(&shape, &[0, 4, 0], 1.0), opt(&shape, &[0, 0, 8], 1.5)],
                    )
                })
                .collect()
        };
        let one_iter = SolveDeadline::iterations(1);
        // A solver that ran would exhaust a 1-iteration budget and report
        // `DeadlineExceeded`; the bound co-allocates without calling it.
        let mut warm = WarmStart::new();
        let a = allocate_avail(
            &storm(7),
            &hw,
            None,
            SolverKind::Lagrangian,
            &mut warm,
            one_iter,
        )
        .unwrap();
        assert!(a.co_allocated);
        assert_eq!(a.choices.len(), 7);
        assert_eq!(a.solve_work, 1.0);
        assert_eq!(
            warm.memo_hits() + warm.certified_exits() + warm.full_solves(),
            0
        );
        // Same picks and grants as the unbudgeted co-allocation.
        let free = allocate(&storm(7), &hw, SolverKind::Lagrangian).unwrap();
        assert!(free.co_allocated);
        for (app, c) in &free.choices {
            assert_eq!(a.choices[app].op, c.op);
            assert_eq!(a.choices[app].cores, c.cores);
        }
        // The bound is only a necessary condition: a contended instance it
        // cannot rule out (3 apps: 12 <= 24 cores) still goes to the solver
        // and still reports an exhausted budget as such.
        let mut warm = WarmStart::new();
        assert!(matches!(
            allocate_avail(
                &storm(3),
                &hw,
                None,
                SolverKind::Lagrangian,
                &mut warm,
                one_iter
            ),
            Err(HarpError::DeadlineExceeded { .. })
        ));
        assert!(
            !allocate(&storm(3), &hw, SolverKind::Lagrangian)
                .unwrap()
                .co_allocated
        );
    }

    #[test]
    fn impossible_single_app_is_an_error() {
        let hw = presets::tiny_test();
        let shape = hw.erv_shape();
        // Demands 3 big cores; machine has 2.
        let reqs = vec![req(1, vec![opt(&shape, &[0, 3, 0], 1.0)])];
        assert!(matches!(
            allocate(&reqs, &hw, SolverKind::Lagrangian),
            Err(HarpError::InsufficientResources { .. })
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let hw = presets::tiny_test();
        let shape = hw.erv_shape();
        // No options.
        assert!(allocate(
            &[AllocRequest {
                app: AppId(1),
                options: vec![]
            }],
            &hw,
            SolverKind::Greedy
        )
        .is_err());
        // Zero demand.
        assert!(allocate(
            &[req(1, vec![opt(&shape, &[0, 0, 0], 1.0)])],
            &hw,
            SolverKind::Greedy
        )
        .is_err());
        // Wrong shape.
        let wrong = ErvShape::new(vec![1, 1, 1]);
        assert!(allocate(
            &[req(1, vec![opt(&wrong, &[1, 0, 0], 1.0)])],
            &hw,
            SolverKind::Greedy
        )
        .is_err());
        // NaN cost.
        assert!(allocate(
            &[req(1, vec![opt(&shape, &[0, 1, 0], f64::NAN)])],
            &hw,
            SolverKind::Greedy
        )
        .is_err());
        // Duplicate app.
        let r = req(1, vec![opt(&shape, &[0, 1, 0], 1.0)]);
        assert!(allocate(&[r.clone(), r], &hw, SolverKind::Greedy).is_err());
    }

    #[test]
    fn infinite_costs_are_avoided_when_possible() {
        let hw = presets::tiny_test();
        let shape = hw.erv_shape();
        let reqs = vec![req(
            1,
            vec![
                opt(&shape, &[0, 2, 0], f64::INFINITY),
                opt(&shape, &[0, 0, 1], 5.0),
            ],
        )];
        for solver in [
            SolverKind::Lagrangian,
            SolverKind::Greedy,
            SolverKind::Exact,
        ] {
            let a = allocate(&reqs, &hw, solver).unwrap();
            assert_eq!(a.choices[&AppId(1)].op, OpId(1), "{solver:?}");
        }
    }

    #[test]
    fn availability_mask_shrinks_capacity_and_skips_banned_cores() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        let mut avail = harp_platform::CoreAvailability::full(&hw);
        avail.ban(CoreId(0));
        avail.ban(CoreId(1));
        // 7 P-cores fit the healthy machine but not the degraded one (6
        // usable P-cores) — the solver must fall to the E-core option.
        let reqs = vec![req(
            1,
            vec![opt(&shape, &[0, 7, 0], 1.0), opt(&shape, &[0, 0, 8], 2.0)],
        )];
        let mut warm = WarmStart::new();
        let a = allocate_avail(
            &reqs,
            &hw,
            Some(&avail),
            SolverKind::Lagrangian,
            &mut warm,
            SolveDeadline::UNBOUNDED,
        )
        .unwrap();
        assert_eq!(a.choices[&AppId(1)].op, OpId(1));
        // When P-cores are used, the banned ones are skipped entirely.
        let reqs2 = vec![req(2, vec![opt(&shape, &[0, 3, 0], 1.0)])];
        let mut warm2 = WarmStart::new();
        let a2 = allocate_avail(
            &reqs2,
            &hw,
            Some(&avail),
            SolverKind::Lagrangian,
            &mut warm2,
            SolveDeadline::UNBOUNDED,
        )
        .unwrap();
        assert_eq!(
            a2.choices[&AppId(2)].cores,
            vec![CoreId(2), CoreId(3), CoreId(4)]
        );
        // A full mask reproduces the unmasked allocation exactly.
        let mut warm3 = WarmStart::new();
        let full = harp_platform::CoreAvailability::full(&hw);
        let masked = allocate_avail(
            &reqs2,
            &hw,
            Some(&full),
            SolverKind::Lagrangian,
            &mut warm3,
            SolveDeadline::UNBOUNDED,
        )
        .unwrap();
        let plain = allocate(&reqs2, &hw, SolverKind::Lagrangian).unwrap();
        assert_eq!(
            masked.choices[&AppId(2)].cores,
            plain.choices[&AppId(2)].cores
        );
    }

    #[test]
    fn hw_threads_honour_erv_structure() {
        let hw = presets::raptor_lake();
        let shape = hw.erv_shape();
        // 1 P-core with one thread + 2 P-cores with two threads + 4 E-cores.
        let reqs = vec![req(1, vec![opt(&shape, &[1, 2, 4], 1.0)])];
        let a = allocate(&reqs, &hw, SolverKind::Exact).unwrap();
        let c = &a.choices[&AppId(1)];
        assert_eq!(c.cores.len(), 7);
        assert_eq!(c.hw_threads.len(), 9); // 1 + 4 + 4
        assert_eq!(c.parallelism(), 9);
    }
}
