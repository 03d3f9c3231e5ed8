//! Ablation tables for the design choices called out in `DESIGN.md`:
//!
//! * **Allocator**: Lagrangian relaxation vs the greedy heuristic vs the
//!   exact solver — solution quality (cost gap).
//! * **Exploration heuristics**: the staged max-distance / anomaly-hunting
//!   selection (§5.3) vs uniform-random target selection — model accuracy
//!   after the same measurement budget.
//! * **EMA smoothing factor**: the paper's α = 0.1 vs alternatives — error
//!   of learned characteristics under measurement noise.
//!
//! Every table is seeded; nothing here is timed.

use harp_alloc::{allocate, AllocOption, AllocRequest, SolverKind};
use harp_explore::{ExplorationConfig, Explorer, SampleOutcome};
use harp_model::Ema;
use harp_types::{AppId, ExtResourceVector, OpId, ResourceVector};
use harp_workload::Platform;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

// ---------------------------------------------------------------------
// Allocator ablation
// ---------------------------------------------------------------------

fn random_instance(rng: &mut ChaCha8Rng, n_apps: usize) -> Vec<AllocRequest> {
    let hw = Platform::RaptorLake.hardware();
    let shape = hw.erv_shape();
    (0..n_apps)
        .map(|a| AllocRequest {
            app: AppId(a as u64 + 1),
            options: (0..rng.random_range(3..8usize))
                .map(|o| {
                    let p2 = rng.random_range(0..5u32);
                    let e = rng.random_range(if p2 == 0 { 1 } else { 0 }..9u32);
                    AllocOption {
                        op: OpId(o),
                        cost: rng.random_range(1.0..50.0),
                        erv: ExtResourceVector::from_flat(&shape, &[0, p2, e]).unwrap(),
                    }
                })
                .collect(),
        })
        .collect()
}

fn alloc_quality_table() {
    let hw = Platform::RaptorLake.hardware();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut gaps_lagr = Vec::new();
    let mut gaps_greedy = Vec::new();
    for _ in 0..50 {
        let reqs = random_instance(&mut rng, 3);
        let Ok(exact) = allocate(&reqs, &hw, SolverKind::Exact) else {
            continue;
        };
        if exact.co_allocated || exact.total_cost <= 0.0 {
            continue;
        }
        if let Ok(l) = allocate(&reqs, &hw, SolverKind::Lagrangian) {
            gaps_lagr.push(l.total_cost / exact.total_cost);
        }
        if let Ok(g) = allocate(&reqs, &hw, SolverKind::Greedy) {
            gaps_greedy.push(g.total_cost / exact.total_cost);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().fold(1.0f64, |a, &b| a.max(b));
    println!("\nAblation: MMKP solver quality vs exact (50 random 3-app instances)");
    println!(
        "  Lagrangian:  mean gap {:.3}x   worst {:.3}x",
        mean(&gaps_lagr),
        max(&gaps_lagr)
    );
    println!(
        "  Greedy:      mean gap {:.3}x   worst {:.3}x\n",
        mean(&gaps_greedy),
        max(&gaps_greedy)
    );
}

// ---------------------------------------------------------------------
// Exploration-heuristic ablation
// ---------------------------------------------------------------------

fn synthetic_truth(erv: &ExtResourceVector) -> (f64, f64) {
    let p_threads = erv.threads_of_kind(0) as f64;
    let e_threads = erv.threads_of_kind(1) as f64;
    let raw = 6.0 * p_threads + 5.1 * e_threads;
    let utility = raw / (1.0 + 0.01 * (p_threads + e_threads));
    let power = 8.0 * erv.cores_of_kind(0) as f64 + 1.8 * e_threads + 20.0;
    (utility, power)
}

/// Runs `campaigns` exploration campaigns with the paper heuristics and
/// returns the mean relative prediction error over the whole space.
fn explore_error(heuristic: bool, campaigns: usize, seed: u64) -> f64 {
    let hw = Platform::RaptorLake.hardware();
    let shape = hw.erv_shape();
    let capacity = hw.capacity();
    let cfg = ExplorationConfig {
        measurements_per_point: 5,
        stable_threshold: usize::MAX, // keep exploring
        ..Default::default()
    };
    let mut ex = Explorer::new(&shape, &capacity, cfg).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let all = ExtResourceVector::enumerate(&shape, &ResourceVector::new(vec![3, 8]))
        .unwrap()
        .into_iter()
        .filter(|e| !e.is_zero())
        .collect::<Vec<_>>();
    for _ in 0..campaigns {
        let target = if heuristic {
            match ex.begin_target(&capacity) {
                Some(t) => t,
                None => break,
            }
        } else {
            // Random selection baseline (measured via record_ambient to
            // bypass the campaign machinery).
            all[rng.random_range(0..all.len())].clone()
        };
        let (u, p) = synthetic_truth(&target);
        if heuristic {
            loop {
                let noisy_u = u * rng.random_range(0.97..1.03);
                let noisy_p = p * rng.random_range(0.97..1.03);
                if ex.record_sample(noisy_u, noisy_p).unwrap() == SampleOutcome::TargetDone {
                    break;
                }
            }
        } else {
            for _ in 0..5 {
                let noisy_u = u * rng.random_range(0.97..1.03);
                let noisy_p = p * rng.random_range(0.97..1.03);
                ex.record_ambient(&target, noisy_u, noisy_p);
            }
        }
    }
    let model = match ex.refresh_predictions() {
        Some(m) => m,
        None => return f64::INFINITY,
    };
    let mut err = 0.0;
    for e in &all {
        let (u, _) = synthetic_truth(e);
        let pred = model.predict(e);
        err += ((pred.utility - u) / u).abs();
    }
    err / all.len() as f64
}

fn explore_quality_table() {
    println!("\nAblation: exploration heuristics vs random target selection");
    println!("(mean relative utility-prediction error after N campaigns)");
    for n in [8usize, 15, 25] {
        let h: f64 = (0..5).map(|s| explore_error(true, n, s)).sum::<f64>() / 5.0;
        let r: f64 = (0..5).map(|s| explore_error(false, n, s)).sum::<f64>() / 5.0;
        println!("  {n:>3} campaigns: heuristic {:.3}  random {:.3}", h, r);
    }
    println!();
}

// ---------------------------------------------------------------------
// EMA ablation
// ---------------------------------------------------------------------

fn ema_quality_table() {
    println!("\nAblation: EMA smoothing factor under 10% measurement noise");
    println!("(abs error of the smoothed estimate after 20 samples; truth = 100)");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for alpha in [0.05, 0.1, 0.3, 0.7, 1.0] {
        let mut errs = Vec::new();
        for _ in 0..200 {
            let mut ema = Ema::new(alpha);
            for _ in 0..20 {
                ema.update(100.0 * rng.random_range(0.9..1.1));
            }
            errs.push((ema.value().unwrap() - 100.0).abs());
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        println!("  alpha {alpha:>4}: mean abs error {mean:.2}");
    }
    println!("(the paper uses alpha = 0.1)\n");
}

fn main() {
    alloc_quality_table();
    explore_quality_table();
    ema_quality_table();
}
