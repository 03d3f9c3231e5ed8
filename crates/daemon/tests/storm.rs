//! Connection storm against a multi-shard reactor daemon: many client
//! threads churn full session lifecycles concurrently, and every one of
//! them must be served.
//!
//! A lifecycle is connect → `Register` → ack → `SubmitPoints` → at least
//! one `Activate` → `Exit`. Each register, submission and exit triggers
//! an allocation round whose directives are routed from the shard that
//! ran the round to the shards that own the recipients' sockets, so a
//! directive lost or misrouted between shards shows up here as a
//! lifecycle that never sees its activation.

use harp_daemon::{DaemonConfig, HarpDaemon, UnixTransport};
use harp_platform::HardwareDescription;
use harp_proto::AdaptivityType;
use harp_types::{ExtResourceVector, NonFunctional};
use libharp::{HarpSession, SessionConfig};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const CLIENTS: usize = 16;
const LIFECYCLES_PER_CLIENT: usize = 32;

/// Upper bound on any single wait; a healthy daemon answers in
/// milliseconds, so this long a silence means the traffic is gone.
const WAIT: Duration = Duration::from_secs(10);

fn accepted_per_shard() -> [u64; SHARDS] {
    let snap = harp_obs::metrics::snapshot();
    std::array::from_fn(|i| snap.counter(&format!("daemon.shard{i}.accepted")))
}

#[test]
fn every_lifecycle_of_a_multi_shard_storm_is_served() {
    let hw = HardwareDescription::raptor_lake();
    let shape = hw.erv_shape();
    let socket = std::env::temp_dir().join(format!("harp-storm-{}.sock", std::process::id()));
    let daemon = HarpDaemon::start(DaemonConfig::new(&socket, hw).with_shards(SHARDS)).unwrap();
    let accepted_before = accepted_per_shard();

    // A 4-P-core point and an 8-E-core point: a real trade-off per round.
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
    let lifecycle = || -> Result<(), String> {
        let cfg = SessionConfig::new("storm", AdaptivityType::Scalable)
            .with_points(vec![2, 1], points.clone());
        let transport = UnixTransport::connect(&socket).map_err(|e| format!("connect: {e}"))?;
        let mut session =
            HarpSession::connect(transport, cfg).map_err(|e| format!("register: {e}"))?;
        let deadline = Instant::now() + WAIT;
        while session.allocation().current().is_none() {
            session.poll(|| 0.0).map_err(|e| format!("poll: {e}"))?;
            if Instant::now() >= deadline {
                return Err("no activation: directive lost".into());
            }
            std::thread::yield_now();
        }
        session.exit().map_err(|e| format!("exit: {e}"))
    };

    let failures: Vec<String> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                // A client stops at its first failure, so a daemon that
                // loses directives fails the test after one `WAIT`.
                s.spawn(|| (0..LIFECYCLES_PER_CLIENT).try_for_each(|_| lifecycle()))
            })
            .collect();
        clients
            .into_iter()
            .filter_map(|c| c.join().expect("client thread panicked").err())
            .collect()
    });
    assert!(failures.is_empty(), "clients failed: {failures:?}");

    // Every lifecycle saw an activation, so its connection was installed:
    // the accept counters are final. Exits are processed asynchronously.
    let accepted_after = accepted_per_shard();
    let accepted: Vec<u64> = (0..SHARDS)
        .map(|i| accepted_after[i] - accepted_before[i])
        .collect();
    assert!(
        accepted.iter().all(|&n| n > 0),
        "idle shard: accepted {accepted:?}"
    );
    assert_eq!(
        accepted.iter().sum::<u64>(),
        (CLIENTS * LIFECYCLES_PER_CLIENT) as u64,
        "accepted {accepted:?}"
    );
    let deadline = Instant::now() + WAIT;
    while !daemon.managed_apps().is_empty() {
        assert!(
            Instant::now() < deadline,
            "sessions never reaped: {:?}",
            daemon.managed_apps()
        );
        std::thread::yield_now();
    }
    daemon.shutdown();
}
