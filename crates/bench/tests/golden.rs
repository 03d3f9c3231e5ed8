//! Every refactor leaves the `fig*`/`tab*` `--reduced` stdout
//! byte-identical: each harness binary runs and its stdout is compared
//! with the committed file under `crates/bench/golden/`. The goldens were
//! produced by the engine as it stood before the dense-slot simulator
//! rewrite; regenerate them deliberately with `HARP_TRACE_BLESS=1` and
//! diff before committing.

use std::path::PathBuf;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe)
        .arg("--reduced")
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} --reduced exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("harness output is UTF-8");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("HARP_TRACE_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with HARP_TRACE_BLESS=1?)",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{name} --reduced, line {}", i + 1);
    }
    assert_eq!(got, want, "{name} --reduced stdout drifted");
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

golden!(
    fig1_sweep,
    fig5_models,
    fig6_intel,
    fig7_odroid,
    fig8_learning,
    headline_summary,
    tab_ablations,
    tab_attribution,
    tab_governor,
    tab_overhead,
);
