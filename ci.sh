#!/usr/bin/env bash
# Local CI gate: formatting, lints, the dependency audit, build, the tier-1
# test suite, the whole workspace's tests, and the reference benchmark's own
# oracle tests.
# Run from the repository root. Fails fast on the first violation.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> dependency audit (deps are what their crate names; harpd links no simulator)"
# Every [dependencies] key of a first-party crate must be named by a
# non-comment line of that crate's src/ above the file's first
# #[cfg(test)]; what only tests or doctests use goes under
# [dev-dependencies]. Every [dev-dependencies] key must be named by some
# .rs file of its crate (unit, integration and doc tests, benches,
# examples). The daemon's normal graph stays free of the simulator, the
# workloads, the harness and the test toolkits. No graph links serde (the
# two description files go through harp_obs::json), and no source names
# the deleted profile-cache or worker-pool knobs.
section_keys() {
    awk -v want="[$1]" '/^\[/ { on = ($0 == want) } on && /^[a-z]/ { sub(/[ .=].*/, ""); print }' "$2"
}
unused=""
unused_dev=""
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    code=$(find "$dir/src" -name '*.rs' -exec awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t && !/^[ \t]*\/\//' {} +)
    for dep in $(section_keys dependencies "$manifest"); do
        grep -qw "${dep//-/_}" <<<"$code" || unused="$unused $dir:$dep"
    done
    all=$(find "$dir" -name '*.rs' -exec cat {} +)
    for dep in $(section_keys dev-dependencies "$manifest"); do
        grep -qw "${dep//-/_}" <<<"$all" || unused_dev="$unused_dev $dir:$dep"
    done
done
if [ -n "$unused" ]; then
    echo "[dependencies] entries no non-test source line names:$unused"
    exit 1
fi
if [ -n "$unused_dev" ]; then
    echo "[dev-dependencies] entries no .rs file of their crate names:$unused_dev"
    exit 1
fi
linked=$(cargo tree -p harp-daemon -e normal |
    grep -oE 'harp-(sim|workload|bench|testkit)|proptest' | sort -u || true)
if [ -n "$linked" ]; then
    echo "harp-daemon's normal dependency graph links:" $linked
    exit 1
fi
serde=$(cargo tree --workspace -e normal,dev --prefix none | grep -oE '^serde[a-z_]*' | sort -u || true)
if [ -n "$serde" ]; then
    echo "the workspace dependency graph links:" $serde
    exit 1
fi
knobs=$(grep -rlE --include='*.rs' 'HARP_(PROFILE_CACHE|BENCH_THREADS)' crates compat src tests examples || true)
if [ -n "$knobs" ]; then
    echo "deleted harness knobs named in:" $knobs
    exit 1
fi

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

echo "==> cargo test -q --workspace (every crate's unit, integration and doc tests)"
# Tier-1 above runs only the facade package. This stage gates the rest:
# the chaos suite in quick mode (fixed seeds; the full sweep is opt-in via
# HARP_CHAOS_FULL=1, DESIGN.md sections 8 and 10), bit-identical journal
# recovery and kill/restart resume (section 10), the traced-daemon
# telemetry round trip against the harp-obs-v1 schema (section 9), the
# multi-shard connection storm (section 12), the committed headline and
# fault-laced trace corpora with their .expect fingerprints (sections 13
# and 15; regenerate deliberately with HARP_TRACE_BLESS=1), energy-ledger
# conservation under a live telemetry stream (section 14), the solver's
# engine-vs-reference and warm-vs-cold counted-work properties (section 7),
# the simulator's counted event cost (section 4), and every harness
# binary's --reduced stdout against crates/bench/golden/ (section 6; same
# HARP_TRACE_BLESS=1 to regenerate).
cargo test -q --workspace

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
