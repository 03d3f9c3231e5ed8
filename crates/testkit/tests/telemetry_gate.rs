//! CI gate for the energy/telemetry pipeline: a committed headline trace
//! replays under the testkit oracles (which fail on any non-conserving
//! ledger tick) while a live daemon streams telemetry frames to a
//! subscriber in the same process. The gate fails on:
//!
//! * ledger non-conservation — per-tick (oracle check inside the replay)
//!   or lifetime (`conservation_error != 0`);
//! * run-to-run divergence of the bit-exact ledger total;
//! * dropped-frame miscounts — [`TelemetrySubscription::next_frame`]
//!   errors unless `seq == delivered + dropped_frames` on every frame;
//! * frame rows that do not reassemble the frame's tick total.

use harp_daemon::{DaemonConfig, HarpDaemon, UnixTransport};
use harp_testkit::replay::replay_trace;
use harp_workload::Trace;
use libharp::TelemetrySubscription;
use std::path::PathBuf;

fn load_headline(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(format!("{name}.wtrace"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Trace::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

#[test]
fn headline_replay_under_live_subscription_conserves_and_accounts() {
    let hw = harp_platform::HardwareDescription::raptor_lake();
    let socket =
        std::env::temp_dir().join(format!("harp-telemetry-gate-{}.sock", std::process::id()));
    // Tracing on: solver/RM metric counters are gated on the obs enabled
    // flag, and the gate wants to see the replay's activity streamed live.
    let daemon =
        HarpDaemon::start(DaemonConfig::new(&socket, hw).with_shards(2).with_tracing()).unwrap();

    // Subscribe before the replay starts so the stream brackets it.
    let transport = UnixTransport::connect(&socket).unwrap();
    let mut sub = TelemetrySubscription::subscribe(transport, 20, true).unwrap();

    // Replay a committed headline trace concurrently. Its oracle rejects
    // any tick whose attributed + idle energy misses the tick total.
    let replayer = std::thread::spawn(|| {
        let trace = load_headline("headline-flash-crowd");
        (replay_trace(&trace), replay_trace(&trace))
    });

    // Drain frames while the replay runs; `next_frame` itself fails the
    // gate on any seq/dropped miscount.
    let mut frames = 0u64;
    let mut saw_rm_metrics = false;
    while !replayer.is_finished() || frames < 5 {
        let f = sub.next_frame().expect("frame accounting violated");
        frames += 1;
        assert_eq!(
            f.tick_uj,
            f.idle_uj + f.sessions.iter().map(|r| r.tick_uj).sum::<u64>(),
            "frame {} rows do not reassemble the tick total",
            f.seq
        );
        // The replay's solver activity is visible live through the
        // global metrics registry riding along in the frame deltas.
        saw_rm_metrics |= f.metrics_jsonl.contains("\"solver.");
    }
    let (first, second) = replayer.join().unwrap();
    daemon.shutdown();

    assert!(first.passed(), "first replay: {:?}", first.violations);
    assert!(second.passed(), "second replay: {:?}", second.violations);
    assert!(first.energy_uj > 0, "replay charged no energy");
    assert_eq!(
        first.energy_uj, second.energy_uj,
        "ledger total diverged between runs"
    );
    assert!(frames >= 5, "subscription delivered too few frames");
    assert_eq!(sub.delivered(), frames);
    assert!(
        saw_rm_metrics,
        "no solver.* metric deltas observed in {frames} live frames"
    );
}
