//! Chaos-testing toolkit for the HARP stack.
//!
//! The production crates are tested twice over: unit tests pin individual
//! behaviors, and this crate attacks the *integration* — the RM core, the
//! daemon, the wire protocol and the client runtime wired together — with
//! seeded, reproducible adversity:
//!
//! * [`trace`] — a tiny text-serializable DSL of lifecycle operations
//!   (register / submit / tick / deregister, plus deliberately out-of-order
//!   and skewed variants) and a seeded generator of random interleavings.
//! * [`runner`] — executes a [`trace::Trace`] against a live [`harp_rm::RmCore`]
//!   while checking global invariants (no panics, no core oversubscription,
//!   departed apps hold nothing, warm-started solves never cost more than
//!   cold ones, exploration quiesces), producing a deterministic
//!   [`runner::TraceReport`].
//! * [`replay`] — whole-scenario replays of `harp-workload` canonical
//!   traces (timed arrivals, departures, priority changes, load shifts)
//!   under the same oracles, pinning fingerprints of the committed
//!   headline corpus.
//! * [`fault`] — byte-level wire faults (truncation, corruption, lying
//!   length prefixes, split writes, mid-frame disconnects) and a
//!   [`fault::ChaosClient`] that speaks `harp-proto` framing *wrong on
//!   purpose* against a real daemon socket.
//! * [`scenarios`] — a library of scripted fault scenarios, each a
//!   self-contained attack on a freshly-started daemon asserting that the
//!   daemon survives and keeps serving healthy sessions.
//! * [`shrink`] — greedy delta-debugging of failing traces so regressions
//!   land in the committed corpus at minimal length.
//!
//! Everything is deterministic per seed: the same seed always produces the
//! same trace, the same report, byte-for-byte. Failing traces are written
//! next to the corpus with replay instructions (see `EXPERIMENTS.md`).
//!
//! # Quick vs. full mode
//!
//! The chaos suite runs in *quick* mode by default (bounded seeds and trace
//! lengths, suitable for tier-1 CI). Set `HARP_CHAOS_FULL=1` for a longer
//! sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod replay;
pub mod runner;
pub mod scenarios;
pub mod shrink;
pub mod trace;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

static PANIC_HOOK: Once = Once::new();
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-global panic hook that counts panics on *any* thread
/// (connection threads, reader threads, …) while still chaining to the
/// previous hook. Idempotent.
///
/// The daemon isolates client connections on their own threads, so a panic
/// there does not fail a test by itself — this counter is how the chaos
/// suite turns "a background thread quietly died" into an assertable fact.
pub fn install_panic_monitor() {
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            dump_telemetry_on_panic();
            previous(info);
        }));
    });
}

/// If `HARP_OBS_PANIC_DUMP` names a path, writes the flight recorder of
/// the panicking thread's local collector (falling back to the global
/// recorder when tracing is enabled process-wide) to it as JSONL. Best
/// effort: I/O errors are swallowed — we are already panicking.
fn dump_telemetry_on_panic() {
    let Some(path) = std::env::var_os("HARP_OBS_PANIC_DUMP") else {
        return;
    };
    let dump = harp_obs::local_dump_jsonl().or_else(|| {
        if harp_obs::global_enabled() {
            harp_obs::flush_global();
            Some(harp_obs::dump_global(true))
        } else {
            None
        }
    });
    if let Some(dump) = dump {
        let _ = std::fs::write(path, dump);
    }
}

/// Number of panics observed process-wide since
/// [`install_panic_monitor`] was called.
pub fn panic_count() -> usize {
    PANICS.load(Ordering::SeqCst)
}

/// Whether the chaos suite should run in quick (CI) mode. Quick is the
/// default; `HARP_CHAOS_FULL=1` opts into the long sweep.
pub fn quick_mode() -> bool {
    std::env::var_os("HARP_CHAOS_FULL").is_none_or(|v| v != "1")
}
