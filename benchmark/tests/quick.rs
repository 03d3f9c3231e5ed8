//! The harness's own fast gate: `run --quick` drives all five workloads
//! at 1/50 size through the real stack, untraced and traced, and every
//! oracle must hold. No timing claim is made at this size.

use std::process::Command;

fn run_quick(extra: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_harp-benchmark"))
        .args(["run", "--quick", "--seed", "2"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "run --quick {extra:?} failed\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn quick_set_passes_its_oracles() {
    run_quick(&[]);
}

#[test]
fn quick_traced_set_passes_its_oracles() {
    run_quick(&["--traced"]);
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_harp-benchmark"))
        .args([
            "--workload",
            "nosuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
