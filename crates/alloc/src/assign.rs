//! Concrete spatial assignment of selected operating points to physical
//! cores (the final step of paper §4.2.2: "finds a concrete allocation of
//! resources to applications, ensuring no overlap").

use crate::{AllocRequest, Choice};
use harp_platform::{CoreAvailability, HardwareDescription};
use harp_types::{AppId, CoreId, CoreKind, ExtResourceVector, HarpError, HwThreadId, Result};
use std::collections::HashMap;

/// Maps an extended resource vector onto a concrete set of granted cores,
/// returning the hardware threads the application should use.
///
/// The granted `cores` must contain exactly `erv.cores_of_kind(k)` cores of
/// each kind `k`. Within a kind, cores that use more hardware threads are
/// assigned first (deterministically), matching the vector's threads-per-
/// core histogram.
///
/// # Errors
///
/// Returns [`HarpError::Other`] if the granted cores do not match the
/// vector's per-kind core counts, or [`HarpError::NotFound`] for invalid
/// core ids.
pub fn hw_threads_for(
    erv: &ExtResourceVector,
    cores: &[CoreId],
    hw: &HardwareDescription,
) -> Result<Vec<HwThreadId>> {
    let mut per_kind: Vec<Vec<CoreId>> = vec![Vec::new(); hw.num_kinds()];
    for &c in cores {
        per_kind[hw.kind_of_core(c)?.0].push(c);
    }
    let mut out = Vec::with_capacity(erv.total_threads() as usize);
    for (kind, granted) in per_kind.iter_mut().enumerate() {
        granted.sort_unstable();
        push_kind_threads(erv, kind, granted, hw, &mut out)?;
    }
    out.sort_unstable_by_key(|t| t.0);
    Ok(out)
}

/// Appends the hardware threads `erv` uses on `granted`, the ascending
/// kind-`kind` cores it was given: cores running more threads first.
fn push_kind_threads(
    erv: &ExtResourceVector,
    kind: usize,
    granted: &[CoreId],
    hw: &HardwareDescription,
    out: &mut Vec<HwThreadId>,
) -> Result<()> {
    if granted.len() != erv.cores_of_kind(kind) as usize {
        return Err(HarpError::other(format!(
            "kind {kind}: {} granted cores vs {} demanded",
            granted.len(),
            erv.cores_of_kind(kind)
        )));
    }
    let smt_width = hw.cluster(CoreKind(kind))?.smt_width;
    let mut core_iter = granted.iter();
    for threads_per_core in (1..=smt_width).rev() {
        for _ in 0..erv.cores_with_threads(kind, threads_per_core) {
            let core = core_iter.next().expect("counts verified");
            let threads = hw.thread_range_of_core(*core)?;
            out.extend(threads.take(threads_per_core).map(HwThreadId));
        }
    }
    Ok(())
}

/// Maps the selected option of each request onto physical cores.
///
/// Applications are placed kind by kind, taking consecutive free cores from
/// each cluster, which keeps every application spatially contiguous (good
/// for shared caches). In co-allocation mode each application is placed
/// independently from core 0 of each cluster, so masks overlap and the OS
/// scheduler time-shares.
///
/// With an availability mask, banned cores vanish from each cluster's
/// free list before placement, so degraded platforms never grant an
/// offline or quarantined core; a `None` (or full) mask reproduces the
/// healthy placement exactly.
pub(crate) fn assign_cores(
    requests: &[AllocRequest],
    picks: &[usize],
    hw: &HardwareDescription,
    avail: Option<&CoreAvailability>,
    co_allocated: bool,
) -> Result<HashMap<AppId, Choice>> {
    // Each cluster's free list, once per round.
    let kind_cores = (0..hw.num_kinds())
        .map(|kind| match avail {
            Some(a) => a.cores_of_kind(hw, CoreKind(kind)),
            None => hw.cores_of_kind(CoreKind(kind)),
        })
        .collect::<Result<Vec<Vec<CoreId>>>>()?;
    let mut next_free: Vec<usize> = vec![0; kind_cores.len()]; // per-kind cursor
    let mut out = HashMap::with_capacity(requests.len());
    for (r, &p) in requests.iter().zip(picks) {
        let option = &r.options[p];
        let mut cores = Vec::with_capacity(option.erv.total_cores() as usize);
        let mut hw_threads = Vec::with_capacity(option.erv.total_threads() as usize);
        for (kind, (free, cursor)) in kind_cores.iter().zip(&mut next_free).enumerate() {
            let needed = option.erv.cores_of_kind(kind) as usize;
            if needed == 0 {
                continue;
            }
            let start = if co_allocated { 0 } else { *cursor };
            if start + needed > free.len() {
                return Err(HarpError::InsufficientResources {
                    detail: format!(
                        "kind {kind}: need {needed} cores starting at {start}, have {}",
                        free.len()
                    ),
                });
            }
            let granted = &free[start..start + needed];
            if !co_allocated {
                *cursor += needed;
            }
            cores.extend_from_slice(granted);
            push_kind_threads(&option.erv, kind, granted, hw, &mut hw_threads)?;
        }
        // Kinds are visited in order and numbering is cluster-major, so
        // both lists are ascending already; the sorts only pin that.
        cores.sort_unstable();
        hw_threads.sort_unstable_by_key(|t| t.0);
        out.insert(
            r.app,
            Choice {
                op: option.op,
                erv: option.erv.clone(),
                cores,
                hw_threads,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocOption;
    use harp_platform::presets;
    use harp_types::{ExtResourceVector, OpId};

    fn req(app: u64, flat: &[u32], hw: &HardwareDescription) -> AllocRequest {
        AllocRequest {
            app: AppId(app),
            options: vec![AllocOption {
                op: OpId(0),
                cost: 1.0,
                erv: ExtResourceVector::from_flat(&hw.erv_shape(), flat).unwrap(),
            }],
        }
    }

    #[test]
    fn disjoint_contiguous_assignment() {
        let hw = presets::raptor_lake();
        let reqs = vec![req(1, &[0, 3, 0], &hw), req(2, &[0, 2, 4], &hw)];
        let out = assign_cores(&reqs, &[0, 0], &hw, None, false).unwrap();
        let c1 = &out[&AppId(1)];
        let c2 = &out[&AppId(2)];
        assert_eq!(c1.cores, vec![CoreId(0), CoreId(1), CoreId(2)]);
        assert_eq!(
            c2.cores,
            vec![
                CoreId(3),
                CoreId(4),
                CoreId(8),
                CoreId(9),
                CoreId(10),
                CoreId(11)
            ]
        );
        // App 1: 3 P-cores × 2 threads = 6 hw threads (0..6).
        assert_eq!(c1.hw_threads.len(), 6);
        assert_eq!(c1.parallelism(), 6);
        // App 2: 2 P-cores × 2 + 4 E-cores = 8 threads.
        assert_eq!(c2.hw_threads.len(), 8);
    }

    #[test]
    fn mixed_thread_histogram_assigns_partial_smt() {
        let hw = presets::raptor_lake();
        // [1,2,4]: two P-cores with both threads, one with a single thread.
        let reqs = vec![req(1, &[1, 2, 4], &hw)];
        let out = assign_cores(&reqs, &[0], &hw, None, false).unwrap();
        let c = &out[&AppId(1)];
        assert_eq!(c.cores.len(), 7);
        assert_eq!(c.hw_threads.len(), 9);
        // Full-SMT cores come first: threads 0,1 (core0), 2,3 (core1), then
        // a single thread of core2, then the four E-cores.
        assert_eq!(
            c.hw_threads.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 16, 17, 18, 19]
        );
    }

    #[test]
    fn co_allocation_overlaps_from_cluster_start() {
        let hw = presets::tiny_test();
        let reqs = vec![req(1, &[0, 2, 0], &hw), req(2, &[0, 2, 0], &hw)];
        let out = assign_cores(&reqs, &[0, 0], &hw, None, true).unwrap();
        assert_eq!(out[&AppId(1)].cores, out[&AppId(2)].cores);
    }

    #[test]
    fn exceeding_cluster_is_an_error() {
        let hw = presets::tiny_test();
        let reqs = vec![req(1, &[0, 2, 0], &hw), req(2, &[0, 1, 0], &hw)];
        assert!(assign_cores(&reqs, &[0, 0], &hw, None, false).is_err());
    }
}
