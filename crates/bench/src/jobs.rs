//! Parallel execution of the evaluation job set.
//!
//! Every cell of the evaluation — one (figure, scenario, manager,
//! repetition) tuple — is an independent simulation, so the harness
//! enumerates them as [`Job`]s and executes the set on a fixed-size worker
//! pool. Results are reassembled **in job order**, and each job carries a
//! fully resolved seed, so the output is bit-identical to the serial path
//! for any worker count.
//!
//! The pool size comes from, in priority order:
//!
//! 1. [`set_worker_override`] (used by tests),
//! 2. the `HARP_BENCH_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

use crate::runner::{run_scenario, ManagerKind, RunMetrics, RunOptions};
use harp_types::Result;
use harp_workload::{Platform, Scenario};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One evaluation cell: a single simulation run with a fully resolved seed.
#[derive(Debug, Clone)]
pub struct Job {
    /// The figure or table this cell belongs to (labelling/reporting only;
    /// does not influence execution).
    pub figure: &'static str,
    /// Target platform.
    pub platform: Platform,
    /// The workload scenario.
    pub scenario: Scenario,
    /// The resource manager under test.
    pub manager: ManagerKind,
    /// Repetition index within the cell's averaging group.
    pub repetition: u32,
    /// Fully resolved RNG seed of this repetition (already combined with
    /// the repetition index; overrides `opts.seed`).
    pub seed: u64,
    /// Governor, profiles and horizon for this cell.
    pub opts: RunOptions,
}

impl Job {
    /// Executes the cell.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(&self) -> Result<RunMetrics> {
        let mut opts = self.opts.clone();
        opts.seed = self.seed;
        run_scenario(self.platform, &self.scenario, self.manager, &opts)
    }
}

/// Enumerates the repetition jobs of one cell (the paper averages ten
/// repetitions): repetition `r` uses seed `opts.seed + r * 7919`
/// (wrapping).
pub fn repetition_jobs(
    figure: &'static str,
    platform: Platform,
    scenario: &Scenario,
    manager: ManagerKind,
    opts: &RunOptions,
    reps: u32,
) -> Vec<Job> {
    (0..reps.max(1))
        .map(|rep| Job {
            figure,
            platform,
            scenario: scenario.clone(),
            manager,
            repetition: rep,
            seed: opts.seed.wrapping_add(rep as u64 * 7919),
            opts: opts.clone(),
        })
        .collect()
}

/// Averages the metrics of one repetition group in repetition order —
/// always the same left-to-right summation, so the folded result carries
/// the same bits whichever workers produced the group.
pub fn fold_repetitions(metrics: &[RunMetrics]) -> RunMetrics {
    let mut time = 0.0;
    let mut energy = 0.0;
    for m in metrics {
        time += m.makespan_s;
        energy += m.energy_j;
    }
    let n = metrics.len().max(1) as f64;
    RunMetrics {
        makespan_s: time / n,
        energy_j: energy / n,
    }
}

/// Runs a job set on the worker pool, returning metrics **in job order**.
///
/// # Errors
///
/// Returns the error of the first (lowest-index) failing job.
pub fn run_jobs(jobs: &[Job]) -> Result<Vec<RunMetrics>> {
    parallel_map(jobs, Job::run).into_iter().collect()
}

/// `0` means "no override".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-pool size for this process, taking precedence over
/// `HARP_BENCH_THREADS`. `None` (or `Some(0)`) removes the override.
///
/// This exists so tests can vary the pool size without mutating the
/// process environment (which is racy under a multi-threaded test runner).
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.unwrap_or(0), Ordering::SeqCst);
}

/// The worker-pool size used by [`run_jobs`]/[`parallel_map`]: the
/// override if set, else `HARP_BENCH_THREADS` if set to a positive
/// integer, else the machine's available parallelism.
pub fn worker_count() -> usize {
    let o = WORKER_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("HARP_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on the worker pool and returns the results in
/// item order (deterministic reassembly: workers pull indices from a shared
/// counter and send `(index, result)` back over a channel; the results are
/// slotted by index, so ordering — and therefore every downstream fold —
/// is independent of the worker count and of scheduling).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = worker_count().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|o| o.expect("every index was claimed by exactly one worker"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        set_worker_override(Some(7));
        let out = parallel_map(&items, |&x| x * x);
        set_worker_override(None);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn repetition_jobs_step_the_seed_by_7919() {
        let sc = Scenario::of(Platform::RaptorLake, &["ep"]);
        let opts = RunOptions {
            seed: 42,
            ..RunOptions::default()
        };
        let jobs = repetition_jobs("t", Platform::RaptorLake, &sc, ManagerKind::Cfs, &opts, 3);
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].seed, 42);
        assert_eq!(jobs[1].seed, 42 + 7919);
        assert_eq!(jobs[2].seed, 42 + 2 * 7919);
    }

    #[test]
    fn fold_matches_manual_average() {
        let ms = [
            RunMetrics {
                makespan_s: 1.0,
                energy_j: 10.0,
            },
            RunMetrics {
                makespan_s: 3.0,
                energy_j: 30.0,
            },
        ];
        let m = fold_repetitions(&ms);
        assert_eq!(m.makespan_s, 2.0);
        assert_eq!(m.energy_j, 20.0);
    }
}
