#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the tier-1 test suite.
# Run from the repository root. Fails fast on the first violation.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> unsafe gate (non-test unsafe stays in its three homes)"
# Raw syscalls (compat/reactor), thread affinity (daemon) and the obs
# event queue are the only non-test code allowed to say `unsafe`; every
# other first-party crate carries #![forbid(unsafe_code)].
stray=$(grep -rlw unsafe --include='*.rs' crates compat src examples |
    grep -v -e '/tests/' -e '^compat/reactor/src/' \
        -e '^crates/daemon/src/affinity\.rs$' -e '^crates/obs/src/channel\.rs$' || true)
if [ -n "$stray" ]; then
    echo "unsafe outside its allowed homes:" $stray
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1 gate)"
cargo test -q

echo "==> chaos suite (quick mode, fixed seeds)"
# Deterministic bounded sweep of the fault-injection harness, including
# the crash-recovery scenarios (daemon kill mid-session, reconnect storm,
# solver deadline overrun); the full sweep is opt-in via HARP_CHAOS_FULL=1
# (see DESIGN.md sections 8 and 10).
cargo test -q -p harp-testkit --test chaos

echo "==> crash recovery gate (journal round trip, kill/restart resume)"
# Journal recovery must be bit-identical (including torn/corrupted tails),
# and a client must ride out a daemon kill+restart and resume onto the
# exact pre-crash allocation (DESIGN.md section 10).
cargo test -q -p harp-rm --test prop_journal
cargo test -q --test end_to_end killed_daemon_restart_resumes_client_with_bit_identical_allocation

echo "==> telemetry round trip (traced daemon session, schema check)"
# Starts a traced daemon, runs a client session plus a 4-tick RM run,
# dumps the flight recorder over the wire and validates the JSONL
# against the harp-obs-v1 schema (crates/obs/tests/schema.rs), then
# checks the daemon-side event guarantees (crates/daemon/tests/telemetry.rs).
cargo test -q -p harp-obs --test schema
cargo test -q -p harp-daemon --test telemetry

echo "==> solver bench smoke (quick mode)"
# Quick sweep into a scratch path: never clobbers the committed
# BENCH_solver.json (regenerate that with a full `cargo bench` run).
mkdir -p target
HARP_SOLVER_BENCH_QUICK=1 \
    HARP_SOLVER_BENCH_JSON="$PWD/target/BENCH_solver_smoke.json" \
    cargo bench -p harp-bench --bench solver
test -s target/BENCH_solver_smoke.json

echo "==> connection-storm smoke (quick mode, 512-session mini-storm)"
# Boots a 4-shard reactor daemon and churns 512 session lifecycles
# through a 64-connection sliding window with tracing on. Exits
# non-zero on any lost or duplicated directive, any session-level
# transport error, or events_dropped > 0 (DESIGN.md section 12). The
# scratch path keeps the committed BENCH_harness.json storm section
# (regenerate that with a full `storm_bench` run) untouched.
HARP_STORM_QUICK=1 \
    HARP_STORM_JSON="$PWD/target/BENCH_storm_smoke.json" \
    cargo run --release -q -p harp-bench --bin storm_bench
test -s target/BENCH_storm_smoke.json

echo "==> workload-trace replay gate (committed headline corpus)"
# Replays the three committed headline traces (diurnal, flash-crowd,
# heavy-tail-churn) through the testkit oracles and pins their RM state
# fingerprints and telemetry counts against the committed .expect files
# (DESIGN.md section 13). Fails on any invariant violation or
# fingerprint drift; regenerate deliberately with HARP_TRACE_BLESS=1.
cargo test -q -p harp-testkit --test trace_replay

echo "==> energy-ledger conservation gate (headline replay + live stream)"
# Replays a committed headline trace under the testkit oracles — which
# reject any tick whose per-session attributed energy plus idle share
# misses the modeled total — while a live daemon streams telemetry
# frames to an in-process subscriber that fails on any
# seq/dropped_frames miscount (DESIGN.md section 14). Every headline
# trace's ledger total is checked in the trace_replay gate above.
cargo test -q -p harp-testkit --test telemetry_gate

echo "==> trace-engine smoke (quick mode, 10k-arrival generation + replays)"
# Generates each headline shape at 10k arrivals, checks the canonical
# round trip, and replays a small trace per shape under the oracles,
# requiring clean, quiescent, fingerprint-deterministic runs. The
# scratch path keeps the committed BENCH_harness.json trace_bench
# section (regenerate that with a full `trace_bench` run) untouched.
HARP_TRACE_BENCH_QUICK=1 \
    HARP_TRACE_BENCH_JSON="$PWD/target/BENCH_trace_smoke.json" \
    cargo run --release -q -p harp-bench --bin trace_bench
test -s target/BENCH_trace_smoke.json

echo "==> degradation gate (committed fault-laced corpus)"
# Replays the two committed fault-injection headline traces (a transient
# single-core failure and a flapping-core cascade that trips quarantine)
# through the testkit oracles, twice each. Fails on any oracle violation — a grant naming an offline or
# quarantined core, a non-conserving ledger tick across sensor-dark
# windows, warm solve work exceeding cold — or on fingerprint/counter
# drift from the committed .expect files (DESIGN.md section 15).
# Regenerate deliberately with HARP_TRACE_BLESS=1.
cargo test -q -p harp-testkit --test degradation

echo "==> benchmark harness gate (wire == mirror directives, untraced and traced)"
# The reference benchmark's own tests: its unit tests plus `run --quick`
# (all five workloads at 1/50 size, oracle only, no timing claims), once
# untraced and once traced. The oracle compares every activation the
# daemon put on the wire with a mirror RmCore's directives and recovers
# the final journal, so a change to the allocation round that alters any
# directive fails here, before the driver runs the full benchmark. The
# package is standalone (own workspace and target directory).
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
