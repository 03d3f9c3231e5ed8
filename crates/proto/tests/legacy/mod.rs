//! The pre-reactor *allocating* message decoder, frozen verbatim.
//!
//! [`Message::decode`] now borrows the envelope payload and nested
//! submessages out of the input instead of copying them. This module
//! keeps the old implementation — envelope payload extracted as an owned
//! `Vec`, every nested point copied, strings/packed sequences read via
//! the allocating [`wire`] helpers — as a differential oracle: the
//! corpus and property tests in `tests/corpus_decode.rs` assert both
//! decoders accept/reject byte-identically and produce equal messages.
//! It lives under `tests/` so no library build carries it.
//!
//! Do not "improve" this code; its value is that it does not change.

mod wire;

use harp_proto::{
    Activate, AdaptivityType, DumpTelemetry, ErrorMsg, Hello, Message, Register, RegisterAck,
    Resume, SessionEnergy, SubmitPoints, SubscribeTelemetry, TelemetryDump, TelemetryFrame,
    UtilityReport, UtilityRequest, WirePoint,
};
use harp_types::{HarpError, Result};
use wire::WireType;

fn adaptivity_from_raw(raw: u64) -> Result<AdaptivityType> {
    match raw {
        0 => Ok(AdaptivityType::Static),
        1 => Ok(AdaptivityType::Scalable),
        2 => Ok(AdaptivityType::Custom),
        other => Err(HarpError::protocol(format!(
            "unknown adaptivity type {other}"
        ))),
    }
}

/// Decodes a message with the frozen allocating code path.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] exactly where [`Message::decode`] does.
pub fn decode(mut bytes: &[u8]) -> Result<Message> {
    let buf = &mut bytes;
    let mut discriminant: Option<u64> = None;
    let mut payload: Option<Vec<u8>> = None;
    while !buf.is_empty() {
        let (field, wiretype) = wire::get_key(buf)?;
        match (field, wiretype) {
            (1, WireType::Varint) => discriminant = Some(wire::get_varint(buf)?),
            (2, WireType::LengthDelimited) => payload = Some(wire::get_bytes(buf)?),
            (_, w) => wire::skip_field(buf, w)?,
        }
    }
    let discriminant =
        discriminant.ok_or_else(|| HarpError::protocol("missing message discriminant"))?;
    let payload = payload.ok_or_else(|| HarpError::protocol("missing message payload"))?;
    let mut p = payload.as_slice();
    decode_payload(discriminant, &mut p)
}

fn decode_payload(discriminant: u64, buf: &mut &[u8]) -> Result<Message> {
    match discriminant {
        1 => {
            let (mut pid, mut name, mut adapt, mut provides) = (0u64, String::new(), 0u64, false);
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => pid = wire::get_varint(buf)?,
                    (2, WireType::LengthDelimited) => name = wire::get_string(buf)?,
                    (3, WireType::Varint) => adapt = wire::get_varint(buf)?,
                    (4, WireType::Varint) => provides = wire::get_varint(buf)? != 0,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::Register(Register {
                pid,
                app_name: name,
                adaptivity: adaptivity_from_raw(adapt)?,
                provides_utility: provides,
            }))
        }
        2 => {
            let (mut app_id, mut epoch, mut resume_token, mut resumed) = (0u64, 0u64, 0u64, false);
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => app_id = wire::get_varint(buf)?,
                    (2, WireType::Varint) => epoch = wire::get_varint(buf)?,
                    (3, WireType::Varint) => resume_token = wire::get_varint(buf)?,
                    (4, WireType::Varint) => resumed = wire::get_varint(buf)? != 0,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::RegisterAck(RegisterAck {
                app_id,
                epoch,
                resume_token,
                resumed,
            }))
        }
        3 => {
            let mut app_id = 0u64;
            let mut smt_widths = Vec::new();
            let mut points = Vec::new();
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => app_id = wire::get_varint(buf)?,
                    (2, WireType::LengthDelimited) => smt_widths = wire::get_packed_u32(buf)?,
                    (3, WireType::LengthDelimited) => {
                        let inner = wire::get_bytes(buf)?;
                        points.push(decode_point(&mut inner.as_slice())?);
                    }
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::SubmitPoints(SubmitPoints {
                app_id,
                smt_widths,
                points,
            }))
        }
        4 => {
            let mut app_id = 0u64;
            let mut erv_flat = Vec::new();
            let mut core_ids = Vec::new();
            let mut parallelism = 0u32;
            let mut hw_thread_ids = Vec::new();
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => app_id = wire::get_varint(buf)?,
                    (2, WireType::LengthDelimited) => erv_flat = wire::get_packed_u32(buf)?,
                    (3, WireType::LengthDelimited) => core_ids = wire::get_packed_u32(buf)?,
                    (4, WireType::Varint) => {
                        parallelism = u32::try_from(wire::get_varint(buf)?)
                            .map_err(|_| HarpError::protocol("parallelism too large"))?
                    }
                    (5, WireType::LengthDelimited) => hw_thread_ids = wire::get_packed_u32(buf)?,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::Activate(Activate {
                app_id,
                erv_flat,
                core_ids,
                parallelism,
                hw_thread_ids,
            }))
        }
        5 => {
            let mut app_id = 0u64;
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => app_id = wire::get_varint(buf)?,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::UtilityRequest(UtilityRequest { app_id }))
        }
        6 => {
            let mut app_id = 0u64;
            let mut utility = 0.0;
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => app_id = wire::get_varint(buf)?,
                    (2, WireType::Fixed64) => utility = wire::get_f64(buf)?,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::UtilityReport(UtilityReport { app_id, utility }))
        }
        7 => {
            let mut app_id = 0u64;
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => app_id = wire::get_varint(buf)?,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::Exit { app_id })
        }
        8 => {
            let mut code = 0u32;
            let mut detail = String::new();
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => {
                        code = u32::try_from(wire::get_varint(buf)?)
                            .map_err(|_| HarpError::protocol("error code too large"))?
                    }
                    (2, WireType::LengthDelimited) => detail = wire::get_string(buf)?,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::Error(ErrorMsg { code, detail }))
        }
        9 => {
            let mut include_metrics = false;
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => include_metrics = wire::get_varint(buf)? != 0,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::DumpTelemetry(DumpTelemetry { include_metrics }))
        }
        10 => {
            let mut jsonl = String::new();
            let mut truncated = false;
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::LengthDelimited) => jsonl = wire::get_string(buf)?,
                    (2, WireType::Varint) => truncated = wire::get_varint(buf)? != 0,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::TelemetryDump(TelemetryDump { jsonl, truncated }))
        }
        11 => {
            let (mut epoch, mut resume_token) = (0u64, 0u64);
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => epoch = wire::get_varint(buf)?,
                    (2, WireType::Varint) => resume_token = wire::get_varint(buf)?,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::Hello(Hello {
                epoch,
                resume_token,
            }))
        }
        12 => {
            let (mut resume_token, mut pid, mut name, mut adapt, mut provides) =
                (0u64, 0u64, String::new(), 0u64, false);
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => resume_token = wire::get_varint(buf)?,
                    (2, WireType::Varint) => pid = wire::get_varint(buf)?,
                    (3, WireType::LengthDelimited) => name = wire::get_string(buf)?,
                    (4, WireType::Varint) => adapt = wire::get_varint(buf)?,
                    (5, WireType::Varint) => provides = wire::get_varint(buf)? != 0,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::Resume(Resume {
                resume_token,
                pid,
                app_name: name,
                adaptivity: adaptivity_from_raw(adapt)?,
                provides_utility: provides,
            }))
        }
        // Discriminants 13/14 postdate the freeze; these arms keep the
        // differential property (legacy == zero-copy on every input)
        // total, written in the module's original allocating style.
        13 => {
            let mut interval_ms = 0u32;
            let mut include_metrics = false;
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => {
                        interval_ms = u32::try_from(wire::get_varint(buf)?)
                            .map_err(|_| HarpError::protocol("interval too large"))?
                    }
                    (2, WireType::Varint) => include_metrics = wire::get_varint(buf)? != 0,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::SubscribeTelemetry(SubscribeTelemetry {
                interval_ms,
                include_metrics,
            }))
        }
        14 => {
            let mut frame = TelemetryFrame {
                seq: 0,
                dropped_frames: 0,
                interval_ms: 0,
                tick_uj: 0,
                idle_uj: 0,
                total_uj: 0,
                sessions: Vec::new(),
                metrics_jsonl: String::new(),
            };
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => frame.seq = wire::get_varint(buf)?,
                    (2, WireType::Varint) => frame.dropped_frames = wire::get_varint(buf)?,
                    (3, WireType::Varint) => {
                        frame.interval_ms = u32::try_from(wire::get_varint(buf)?)
                            .map_err(|_| HarpError::protocol("interval too large"))?
                    }
                    (4, WireType::Varint) => frame.tick_uj = wire::get_varint(buf)?,
                    (5, WireType::Varint) => frame.idle_uj = wire::get_varint(buf)?,
                    (6, WireType::Varint) => frame.total_uj = wire::get_varint(buf)?,
                    (7, WireType::LengthDelimited) => {
                        let inner = wire::get_bytes(buf)?;
                        frame
                            .sessions
                            .push(decode_session_energy(&mut inner.as_slice())?);
                    }
                    (8, WireType::LengthDelimited) => frame.metrics_jsonl = wire::get_string(buf)?,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::TelemetryFrame(frame))
        }
        other => Err(HarpError::protocol(format!(
            "unknown message discriminant {other}"
        ))),
    }
}

fn decode_session_energy(buf: &mut &[u8]) -> Result<SessionEnergy> {
    let mut s = SessionEnergy {
        app_id: 0,
        name: String::new(),
        tick_uj: 0,
        total_uj: 0,
        latency_p99_us: 0,
    };
    for_each_field(buf, |field, wiretype, buf| {
        match (field, wiretype) {
            (1, WireType::Varint) => s.app_id = wire::get_varint(buf)?,
            (2, WireType::LengthDelimited) => s.name = wire::get_string(buf)?,
            (3, WireType::Varint) => s.tick_uj = wire::get_varint(buf)?,
            (4, WireType::Varint) => s.total_uj = wire::get_varint(buf)?,
            (5, WireType::Varint) => s.latency_p99_us = wire::get_varint(buf)?,
            (_, w) => wire::skip_field(buf, w)?,
        }
        Ok(())
    })?;
    Ok(s)
}

fn decode_point(buf: &mut &[u8]) -> Result<WirePoint> {
    let mut erv_flat = Vec::new();
    let mut utility = 0.0;
    let mut power = 0.0;
    for_each_field(buf, |field, wiretype, buf| {
        match (field, wiretype) {
            (1, WireType::LengthDelimited) => erv_flat = wire::get_packed_u32(buf)?,
            (2, WireType::Fixed64) => utility = wire::get_f64(buf)?,
            (3, WireType::Fixed64) => power = wire::get_f64(buf)?,
            (_, w) => wire::skip_field(buf, w)?,
        }
        Ok(())
    })?;
    Ok(WirePoint {
        erv_flat,
        utility,
        power,
    })
}

fn for_each_field(
    buf: &mut &[u8],
    mut f: impl FnMut(u32, WireType, &mut &[u8]) -> Result<()>,
) -> Result<()> {
    while !buf.is_empty() {
        let (field, wiretype) = wire::get_key(buf)?;
        f(field, wiretype, buf)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_matches_primary_on_every_message_type() {
        let msgs = vec![
            Message::Register(Register {
                pid: 31337,
                app_name: "binpack".into(),
                adaptivity: AdaptivityType::Scalable,
                provides_utility: true,
            }),
            Message::RegisterAck(RegisterAck {
                app_id: 9,
                epoch: 4,
                resume_token: 0xdead_beef,
                resumed: true,
            }),
            Message::SubmitPoints(SubmitPoints {
                app_id: 9,
                smt_widths: vec![2, 1],
                points: vec![WirePoint {
                    erv_flat: vec![0, 8, 16],
                    utility: 3.3e10,
                    power: 110.5,
                }],
            }),
            Message::Activate(Activate {
                app_id: 9,
                erv_flat: vec![1, 2, 4],
                core_ids: vec![0, 1, 2],
                parallelism: 9,
                hw_thread_ids: vec![0, 1, 2, 3],
            }),
            Message::Exit { app_id: 9 },
            Message::Hello(Hello {
                epoch: 3,
                resume_token: 77,
            }),
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(decode(&bytes).unwrap(), msg);
            assert_eq!(Message::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn legacy_rejects_garbage_like_primary() {
        for bad in [&[][..], &[0xff, 0xff, 0xff][..], &[0x08][..]] {
            assert_eq!(decode(bad).is_err(), Message::decode(bad).is_err());
            assert!(decode(bad).is_err());
        }
    }
}
