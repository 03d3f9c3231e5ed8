//! A `SubmitPoints` batch is accepted or rejected whole.
//!
//! One point whose `erv_flat` does not fit the machine shape rejects the
//! batch with `ERR_SUBMIT_REJECTED` before the RM sees any of it — the
//! client never ends up with a table it did not describe — and the session
//! stays usable.

use harp_daemon::{DaemonConfig, HarpDaemon, ERR_SUBMIT_REJECTED};
use harp_platform::HardwareDescription;
use harp_proto::frame;
use harp_proto::{AdaptivityType, Message, Register, SubmitPoints, WirePoint};
use std::io::{ErrorKind, Read as _};
use std::os::unix::net::UnixStream;
use std::time::Duration;

fn point(erv_flat: &[u32], utility: f64, power: f64) -> WirePoint {
    WirePoint {
        erv_flat: erv_flat.to_vec(),
        utility,
        power,
    }
}

#[test]
fn one_malformed_point_rejects_the_batch_and_the_session_keeps_working() {
    let socket =
        std::env::temp_dir().join(format!("harp-submit-reject-{}.sock", std::process::id()));
    let daemon = HarpDaemon::start(DaemonConfig::new(
        &socket,
        HardwareDescription::raptor_lake(),
    ))
    .unwrap();

    let c = UnixStream::connect(&socket).unwrap();
    let mut c_read = c.try_clone().unwrap();
    let mut next = || {
        frame::read_frame(&mut c_read)
            .unwrap()
            .expect("open stream")
    };
    frame::write_frame(
        &c,
        &Message::Register(Register {
            pid: 7,
            app_name: "picky".into(),
            adaptivity: AdaptivityType::Scalable,
            provides_utility: false,
        }),
    )
    .unwrap();
    // The daemon greets with `Hello` and answers registration with the ack
    // and the provisional whole-machine activation; drain all three so
    // every later frame answers a batch.
    assert!(matches!(next(), Message::Hello(_)));
    let Message::RegisterAck(ack) = next() else {
        panic!("registration was not acknowledged");
    };
    assert!(matches!(next(), Message::Activate(_)));

    let submit = |points: Vec<WirePoint>| {
        let msg = Message::SubmitPoints(SubmitPoints {
            app_id: ack.app_id,
            smt_widths: vec![2, 1],
            points,
        });
        frame::write_frame(&c, &msg).unwrap();
    };

    // Two good points around one vector of the wrong length.
    submit(vec![
        point(&[0, 4, 0], 3.0e10, 40.0),
        point(&[0, 4], 9.9e10, 1.0),
        point(&[0, 0, 8], 2.5e10, 15.0),
    ]);
    match next() {
        Message::Error(e) => assert_eq!(e.code, ERR_SUBMIT_REJECTED, "{}", e.detail),
        other => panic!("expected the batch to be rejected, got {other:?}"),
    }
    // Nothing was submitted, so no allocation round ran: the stream stays
    // silent until the client speaks again.
    c.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut byte = [0u8; 1];
    match (&c).read(&mut byte) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a frame followed the rejection: {other:?}"),
    }
    c.set_read_timeout(None).unwrap();

    // The session is intact: the corrected batch activates the efficient
    // 8-E-core point.
    submit(vec![
        point(&[0, 4, 0], 3.0e10, 40.0),
        point(&[0, 0, 8], 2.5e10, 15.0),
    ]);
    match next() {
        Message::Activate(a) => assert_eq!((a.erv_flat, a.parallelism), (vec![0, 0, 8], 8)),
        other => panic!("expected an activation, got {other:?}"),
    }
    assert_eq!(daemon.managed_apps().len(), 1);
    daemon.shutdown();
}
