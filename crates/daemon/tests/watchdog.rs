//! The watchdog swap end to end: a wedged RM operation is replaced by a
//! core recovered from the journal, sessions survive, new clients are
//! served, and the recovered core keeps the configured compaction cadence
//! (regression: the restart used to re-attach the journal with a
//! hard-coded cadence of 256).

use harp_daemon::{DaemonConfig, HarpDaemon, UnixTransport};
use harp_platform::HardwareDescription;
use harp_proto::AdaptivityType;
use harp_rm::journal::{read_journal, JournalRecord};
use harp_types::{AppId, ErvShape, ExtResourceVector, NonFunctional};
use libharp::{HarpSession, SessionConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_path(ext: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("harp-wd-{}.{ext}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn points(shape: &ErvShape) -> Vec<(ExtResourceVector, NonFunctional)> {
    vec![
        (
            ExtResourceVector::from_flat(shape, &[0, 4, 0]).unwrap(),
            NonFunctional::new(3.0e10, 40.0),
        ),
        (
            ExtResourceVector::from_flat(shape, &[0, 0, 8]).unwrap(),
            NonFunctional::new(2.5e10, 15.0),
        ),
    ]
}

/// Polls `cond` for up to 5 seconds.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn watchdog_restart_keeps_sessions_and_the_configured_compaction_cadence() {
    let hw = HardwareDescription::raptor_lake();
    let shape = hw.erv_shape();
    let socket = temp_path("sock");
    let journal = temp_path("journal");
    let mut cfg = DaemonConfig::new(&socket, hw)
        .with_journal(&journal)
        .with_watchdog(Duration::from_millis(40));
    cfg.compact_every = 2;
    let daemon = HarpDaemon::start(cfg).unwrap();

    let connect = |name: &str| {
        let cfg = SessionConfig::new(name, AdaptivityType::Scalable)
            .with_points(vec![2, 1], points(&shape));
        HarpSession::connect(UnixTransport::connect(&socket).unwrap(), cfg).unwrap()
    };
    let mut survivor = connect("survivor");
    wait_for(
        || {
            survivor.poll(|| 0.0).unwrap();
            survivor.allocation().current().is_some()
        },
        "activation before the wedge",
    );

    // Hold the core mutex with an op in flight far past the threshold.
    let restarts = harp_obs::metrics::counter("daemon.watchdog_restarts");
    assert_eq!(restarts.get(), 0);
    daemon.wedge_for(Duration::from_secs(1));
    wait_for(|| restarts.get() >= 1, "watchdog restart");

    // The swapped-in core was recovered from the journal and serves at
    // once, without waiting for the wedged thread to release the old one.
    assert_eq!(daemon.managed_apps(), vec![AppId(survivor.app_id())]);
    assert!(
        journal.with_extension("wedge.jsonl").exists(),
        "telemetry postmortem missing next to the journal"
    );
    let mut newcomer = connect("newcomer");
    assert_ne!(newcomer.app_id(), survivor.app_id());
    assert_eq!(daemon.managed_apps().len(), 2);

    // The newcomer's register and point submission are two journaled
    // operations: at a cadence of 2 the recovered core compacts, leaving a
    // snapshot behind the restart's epoch bump.
    wait_for(
        || {
            newcomer.poll(|| 0.0).unwrap();
            let records = read_journal(&journal).unwrap().records;
            let bump = records
                .iter()
                .rposition(|r| matches!(r, JournalRecord::EpochBump { .. }));
            let snapshot = records
                .iter()
                .rposition(|r| matches!(r, JournalRecord::Snapshot(_)));
            snapshot > bump
        },
        "compaction after the watchdog restart",
    );

    daemon.shutdown();
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(journal.with_extension("wedge.jsonl"));
}
