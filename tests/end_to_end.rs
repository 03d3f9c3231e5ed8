//! Cross-crate integration tests: the full HARP stack — protocol, libharp,
//! RM core, allocation, simulator, workloads — wired together the way a
//! deployment would use it.

use harp::libharp::{HarpSession, MalleableRuntime, SessionConfig};
use harp::platform::HardwareDescription;
use harp::proto::{duplex, AdaptivityType, Message, RegisterAck};
use harp::rm::{RmConfig, RmCore};
use harp::types::{AppId, ExtResourceVector, NonFunctional};

/// A minimal in-process RM frontend over the duplex transport: receives
/// registration + points, runs the real `RmCore`, pushes activations back —
/// the paper's Fig. 3 control flow.
#[test]
fn registration_points_activation_flow_over_protocol() {
    let hw = HardwareDescription::raptor_lake();
    let shape = hw.erv_shape();
    let (app_side, rm_side) = duplex();

    let server = std::thread::spawn(move || {
        let cfg = RmConfig {
            offline: true,
            ..Default::default()
        };
        let mut rm = RmCore::new(HardwareDescription::raptor_lake(), cfg);
        let shape = HardwareDescription::raptor_lake().erv_shape();
        let mut app_id = None;
        loop {
            let msg = match rm_side.recv() {
                Ok(m) => m,
                Err(_) => return,
            };
            match msg {
                Message::Register(reg) => {
                    let id = AppId(1);
                    app_id = Some(id);
                    rm.register(id, &reg.app_name, reg.provides_utility)
                        .expect("register");
                    rm_side
                        .send(&Message::RegisterAck(RegisterAck::new(id.raw())))
                        .unwrap();
                }
                Message::SubmitPoints(sp) => {
                    let id = app_id.expect("registered");
                    let points = sp
                        .points
                        .iter()
                        .map(|p| {
                            (
                                ExtResourceVector::from_flat(&shape, &p.erv_flat).unwrap(),
                                NonFunctional::new(p.utility, p.power),
                            )
                        })
                        .collect();
                    let out = rm.submit_points(id, points).expect("submit");
                    for d in &out.directives {
                        rm_side
                            .send(&Message::Activate(harp::proto::Activate {
                                app_id: d.app.raw(),
                                erv_flat: d.erv.flat(),
                                core_ids: d.cores.iter().map(|c| c.0 as u32).collect(),
                                parallelism: d.parallelism,
                                hw_thread_ids: d.hw_threads.iter().map(|t| t.0 as u32).collect(),
                            }))
                            .unwrap();
                    }
                }
                Message::Exit { .. } => return,
                _ => {}
            }
        }
    });

    // Application side: description file with an efficient small point.
    let points = vec![
        (
            ExtResourceVector::from_flat(&shape, &[0, 8, 16]).unwrap(),
            NonFunctional::new(1.0e11, 140.0),
        ),
        (
            ExtResourceVector::from_flat(&shape, &[0, 0, 6]).unwrap(),
            NonFunctional::new(7.0e10, 32.0),
        ),
    ];
    let cfg =
        SessionConfig::new("integration", AdaptivityType::Scalable).with_points(vec![2, 1], points);
    let mut session = HarpSession::connect(app_side, cfg).unwrap();

    // Receive the activation and wire it into the malleable runtime.
    let runtime = MalleableRuntime::new(session.allocation(), 32);
    session.poll_blocking(|| 0.0).unwrap();
    let act = session.allocation().current().expect("activation arrived");
    assert_eq!(act.parallelism, 6, "the efficient 6-E-core point wins");
    assert_eq!(runtime.current_team(), 6);
    // The parallel region actually runs with the RM-chosen team.
    let widths = runtime.parallel_region(|_, team| team);
    assert_eq!(widths, vec![6; 6]);

    session.exit().unwrap();
    server.join().unwrap();
}

/// The full daemon path over a real Unix socket, including profile
/// persistence across two runs of the same application.
#[cfg(unix)]
#[test]
fn daemon_round_trip_with_profile_reuse() {
    use harp::daemon::{DaemonConfig, HarpDaemon, UnixTransport};
    let hw = HardwareDescription::raptor_lake();
    let shape = hw.erv_shape();
    let socket = std::env::temp_dir().join(format!("harp-int-{}.sock", std::process::id()));
    let daemon = HarpDaemon::start(DaemonConfig::new(&socket, hw)).unwrap();

    // First run submits points.
    let points = vec![(
        ExtResourceVector::from_flat(&shape, &[0, 2, 0]).unwrap(),
        NonFunctional::new(2.0e10, 20.0),
    )];
    let s1 = HarpSession::connect(
        UnixTransport::connect(&socket).unwrap(),
        SessionConfig::new("reuse-me", AdaptivityType::Scalable).with_points(vec![2, 1], points),
    )
    .unwrap();
    s1.exit().unwrap();
    // Give the daemon a moment to persist the profile on disconnect.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Second run of the same name: no points submitted, yet the stored
    // profile drives the activation.
    let mut s2 = HarpSession::connect(
        UnixTransport::connect(&socket).unwrap(),
        SessionConfig::new("reuse-me", AdaptivityType::Scalable),
    )
    .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        s2.poll(|| 0.0).unwrap();
        if let Some(act) = s2.allocation().current() {
            if act.parallelism == 4 {
                break; // 2 P-cores x 2 threads, from the persisted profile
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "profile-driven activation never arrived: {:?}",
            s2.allocation().current()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    s2.exit().unwrap();
    daemon.shutdown();
}

/// The daemon path must be a pure transport: running the same scenario
/// through a real loopback socket and directly against an in-process
/// `RmCore` with the daemon's configuration must converge to the *same*
/// final allocation, bit for bit — vector, core ids, thread ids,
/// parallelism. Any divergence means the daemon (framing, routing, session
/// bookkeeping) is editorializing on RM decisions.
#[cfg(unix)]
#[test]
fn daemon_allocation_matches_in_process_run_bitwise() {
    use harp::daemon::{DaemonConfig, HarpDaemon, UnixTransport};
    let hw = HardwareDescription::raptor_lake();
    let shape = hw.erv_shape();
    let points = vec![
        (
            ExtResourceVector::from_flat(&shape, &[0, 6, 0]).unwrap(),
            NonFunctional::new(6.0e10, 90.0),
        ),
        (
            ExtResourceVector::from_flat(&shape, &[0, 2, 4]).unwrap(),
            NonFunctional::new(5.0e10, 45.0),
        ),
        (
            ExtResourceVector::from_flat(&shape, &[0, 0, 8]).unwrap(),
            NonFunctional::new(3.5e10, 18.0),
        ),
    ];

    // Reference run: the RM core driven directly, using the exact
    // configuration the daemon constructs (offline mode).
    let cfg = DaemonConfig::new("/unused", hw.clone());
    let mut rm = RmCore::new(hw, cfg.rm.clone());
    let id = AppId(1); // the daemon's id counter also starts at 1
    rm.register(id, "bitwise", false).expect("register");
    let out = rm.submit_points(id, points.clone()).expect("submit");
    let reference = out
        .directives
        .iter()
        .find(|d| d.app == id)
        .expect("allocation for the only app")
        .clone();

    // Daemon run: same app, same points, over a real Unix socket.
    let socket = std::env::temp_dir().join(format!("harp-bitwise-{}.sock", std::process::id()));
    let daemon = HarpDaemon::start(DaemonConfig::new(&socket, cfg.hw)).unwrap();
    let mut session = HarpSession::connect(
        UnixTransport::connect(&socket).unwrap(),
        SessionConfig::new("bitwise", AdaptivityType::Scalable).with_points(vec![2, 1], points),
    )
    .unwrap();
    assert_eq!(session.app_id(), id.raw(), "daemon assigned a different id");

    let want_threads: Vec<_> = reference.hw_threads.clone();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let act = loop {
        session.poll(|| 0.0).unwrap();
        // The provisional whole-machine activation from registration may
        // arrive first; wait for the post-submission allocation.
        if let Some(act) = session.allocation().current() {
            if act.parallelism == reference.parallelism {
                break act;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never converged to the reference allocation {reference:?}; last {:?}",
            session.allocation().current()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(act.erv_flat, reference.erv.flat(), "vector differs");
    assert_eq!(act.hw_threads, want_threads, "hw threads differ");
    assert_eq!(act.parallelism, reference.parallelism);

    session.exit().unwrap();
    daemon.shutdown();
}

/// Crash recovery end to end: a journaled daemon is killed mid-session and
/// restarted from its journal; the client (connected with a reconnect
/// policy) rides out the outage in degraded mode with its last activation
/// still applied, resumes idempotently under its token, and the replayed
/// allocation is bit-identical to the pre-crash one.
#[cfg(unix)]
#[test]
fn killed_daemon_restart_resumes_client_with_bit_identical_allocation() {
    use harp::daemon::{DaemonConfig, HarpDaemon, UnixTransport};
    use harp::libharp::{ReconnectPolicy, SessionState};
    use std::time::{Duration, Instant};

    let hw = HardwareDescription::raptor_lake();
    let shape = hw.erv_shape();
    let pid = std::process::id();
    let socket = std::env::temp_dir().join(format!("harp-recover-{pid}.sock"));
    let journal = std::env::temp_dir().join(format!("harp-recover-{pid}.journal"));
    let _ = std::fs::remove_file(&journal);

    let daemon =
        HarpDaemon::start(DaemonConfig::new(&socket, hw.clone()).with_journal(&journal)).unwrap();
    let epoch_before = daemon.epoch();

    let points = vec![
        (
            ExtResourceVector::from_flat(&shape, &[0, 4, 0]).unwrap(),
            NonFunctional::new(3.0e10, 40.0),
        ),
        (
            ExtResourceVector::from_flat(&shape, &[0, 0, 8]).unwrap(),
            NonFunctional::new(2.5e10, 15.0),
        ),
    ];
    let sock = socket.clone();
    let mut session = HarpSession::connect_with_reconnect(
        move || UnixTransport::connect(&sock),
        SessionConfig::new("survivor", AdaptivityType::Scalable).with_points(vec![2, 1], points),
        ReconnectPolicy::new(Duration::from_millis(2), Duration::from_millis(50), 500)
            .with_seed(0x5EED_CAFE),
    )
    .unwrap();
    let app_id = session.app_id();

    // Settle on the post-submission allocation (8 E-core threads).
    type Session = HarpSession<UnixTransport>;
    fn poll_until(session: &mut Session, what: &str, mut cond: impl FnMut(&mut Session) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let _ = session.poll(|| 0.0);
            if cond(session) {
                break;
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    poll_until(&mut session, "first allocation", |s: &mut Session| {
        s.allocation().current().is_some_and(|a| a.parallelism == 8)
    });
    let before = session.allocation().current().expect("allocation");

    // Crash: connections severed, journal kept. The session degrades but
    // keeps the last activation applied.
    daemon.kill();
    poll_until(&mut session, "degraded state", |s: &mut Session| {
        s.state() == SessionState::Degraded
    });
    assert_eq!(
        session.allocation().current(),
        Some(before.clone()),
        "degraded session must keep the last activation applied"
    );

    // Restart from the same journal: epoch bumps, the session resumes
    // under its token and replays the identical allocation.
    let daemon = HarpDaemon::start(DaemonConfig::new(&socket, hw).with_journal(&journal)).unwrap();
    assert!(daemon.epoch() > epoch_before, "boot epoch must increase");
    poll_until(&mut session, "reconnect", |s: &mut Session| {
        s.state() == SessionState::Connected
    });
    assert_eq!(session.app_id(), app_id, "resume must keep the session id");
    assert!(
        session.epoch() > epoch_before,
        "client must observe the bump"
    );
    poll_until(&mut session, "replayed allocation", |s: &mut Session| {
        s.allocation().current() == Some(before.clone())
    });

    session.exit().unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_file(&journal);
}

/// End-to-end evaluation shape: on the simulated Raptor Lake, HARP with
/// learned points must beat CFS on energy for a memory+compute mix, and the
/// binpack convoy must yield a multi-x speedup.
#[test]
fn simulated_evaluation_shapes_hold() {
    use harp_bench::runner::{improvement, learn_profiles, run_scenario, ManagerKind, RunOptions};
    use harp_workload::{Platform, Scenario};

    let scenario = Scenario::of(Platform::RaptorLake, &["mg", "ep"]);
    let opts = RunOptions::default();
    let cfs = run_scenario(Platform::RaptorLake, &scenario, ManagerKind::Cfs, &opts).unwrap();
    let profiles =
        learn_profiles(Platform::RaptorLake, &scenario, 120 * harp::sim::SECOND, 9).unwrap();
    let mut hopts = opts.clone();
    hopts.profiles = Some(profiles);
    let harp_run =
        run_scenario(Platform::RaptorLake, &scenario, ManagerKind::Harp, &hopts).unwrap();
    let imp = improvement(cfs, harp_run);
    assert!(imp.energy > 1.0, "HARP must save energy on mg+ep: {imp:?}");

    let binpack = Scenario::of(Platform::RaptorLake, &["binpack"]);
    let cfs_bp = run_scenario(Platform::RaptorLake, &binpack, ManagerKind::Cfs, &opts).unwrap();
    let profiles =
        learn_profiles(Platform::RaptorLake, &binpack, 90 * harp::sim::SECOND, 9).unwrap();
    let mut bopts = opts.clone();
    bopts.profiles = Some(profiles);
    let harp_bp = run_scenario(Platform::RaptorLake, &binpack, ManagerKind::Harp, &bopts).unwrap();
    let imp = improvement(cfs_bp, harp_bp);
    assert!(
        imp.time > 2.0,
        "binpack should speed up multi-x under HARP (paper 6.9x): {imp:?}"
    );
}

/// The Odroid path: HARP (Offline) with DSE profiles vs EAS on a
/// mixed-characteristics pair.
#[test]
fn odroid_offline_beats_eas_on_multi_scenario() {
    use harp_bench::dse::offline_profiles;
    use harp_bench::runner::{improvement, run_scenario, ManagerKind, RunOptions};
    use harp_workload::{Platform, Scenario};

    let scenario = Scenario::of(Platform::Odroid, &["bt", "cg", "lu"]);
    let profiles = offline_profiles(Platform::Odroid, &scenario.apps, 600.0).unwrap();
    let opts = RunOptions {
        governor: harp::platform::Governor::Schedutil,
        ..RunOptions::default()
    };
    let eas = run_scenario(Platform::Odroid, &scenario, ManagerKind::Eas, &opts).unwrap();
    let mut hopts = opts.clone();
    hopts.profiles = Some(profiles);
    let harp_run = run_scenario(
        Platform::Odroid,
        &scenario,
        ManagerKind::HarpOffline,
        &hopts,
    )
    .unwrap();
    let imp = improvement(eas, harp_run);
    assert!(
        imp.time > 1.0 && imp.energy > 1.0,
        "HARP (Offline) should beat EAS on bt+cg+lu: {imp:?}"
    );
}
