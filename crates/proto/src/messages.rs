//! The HARP protocol message set (paper §4.1.1 and Fig. 3).
//!
//! The typical control flow between a managed application and the RM:
//!
//! 1. [`Register`] / [`RegisterAck`] — registration request with the
//!    process id and the supported adaptivity type.
//! 2. [`SubmitPoints`] — operating points from the application description
//!    file, plus the utility-subscription flag carried by [`Register`].
//! 3. [`Activate`] — operating-point activation: the RM communicates the
//!    selected extended resource vector and the concrete core allocation.
//! 4. [`UtilityRequest`] / [`UtilityReport`] — periodic utility feedback.
//! 5. [`Message::Exit`] — deregistration.

use crate::wire::{self, WireType};
use harp_types::{HarpError, Result};

/// Application adaptivity classification (paper §4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptivityType {
    /// No runtime adaptation; threads are managed purely via affinity.
    Static,
    /// Data-parallel application whose parallelization degree libharp can
    /// adjust at runtime (OpenMP/TBB-style, made *malleable*).
    Scalable,
    /// Application-specific adaptation via registered callbacks
    /// (e.g. KPN region scaling, algorithm switching).
    Custom,
}

impl AdaptivityType {
    fn to_raw(self) -> u64 {
        match self {
            AdaptivityType::Static => 0,
            AdaptivityType::Scalable => 1,
            AdaptivityType::Custom => 2,
        }
    }

    fn from_raw(raw: u64) -> Result<Self> {
        match raw {
            0 => Ok(AdaptivityType::Static),
            1 => Ok(AdaptivityType::Scalable),
            2 => Ok(AdaptivityType::Custom),
            other => Err(HarpError::protocol(format!(
                "unknown adaptivity type {other}"
            ))),
        }
    }
}

/// Registration request (application → RM).
#[derive(Debug, Clone, PartialEq)]
pub struct Register {
    /// Process id of the registering application.
    pub pid: u64,
    /// Application name (used to look up stored operating-point profiles).
    pub app_name: String,
    /// Supported adaptivity type.
    pub adaptivity: AdaptivityType,
    /// Whether the application can provide its own utility metric
    /// (otherwise the RM falls back to IPS from perf, paper §4.2.1).
    pub provides_utility: bool,
}

/// Registration acknowledgement (RM → application).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterAck {
    /// The session id assigned by the RM.
    pub app_id: u64,
    /// Daemon boot epoch the session was (re)registered under. `0` from
    /// daemons that predate crash recovery (the decoder skips unknown
    /// fields, so old and new peers interoperate).
    pub epoch: u64,
    /// Opaque token the client presents in a [`Resume`] after a disconnect
    /// to reclaim this session idempotently. `0` means "no resume support".
    pub resume_token: u64,
    /// True when this ack answers a [`Resume`] that reclaimed existing
    /// session state; false for a fresh registration (the client must then
    /// resubmit its operating points).
    pub resumed: bool,
}

impl RegisterAck {
    /// Ack for a fresh registration without resume support (the pre-recovery
    /// wire shape; `epoch`/`resume_token`/`resumed` all zero).
    pub fn new(app_id: u64) -> Self {
        RegisterAck {
            app_id,
            epoch: 0,
            resume_token: 0,
            resumed: false,
        }
    }
}

/// Greeting pushed by the daemon as the first frame on every accepted
/// connection. Carries the daemon's boot epoch so clients can detect a
/// restart, plus a pre-minted resume token for this connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Monotonically increasing daemon boot epoch (bumped on every start
    /// and on every watchdog-triggered internal restart).
    pub epoch: u64,
    /// Token minted for this connection; the daemon also embeds the
    /// authoritative per-session token in [`RegisterAck`].
    pub resume_token: u64,
}

/// Idempotent re-registration after a disconnect (application → RM).
///
/// Presents the resume token from the previous [`RegisterAck`]. If the
/// daemon still (or again, after journal recovery) knows the session, it
/// re-binds the connection to the existing state and replies with
/// `RegisterAck { resumed: true }`; otherwise it falls back to a fresh
/// registration using the carried [`Register`]-equivalent fields and
/// replies `resumed: false`, telling the client to resubmit its points.
#[derive(Debug, Clone, PartialEq)]
pub struct Resume {
    /// Token from the previous registration acknowledgement.
    pub resume_token: u64,
    /// Process id of the resuming application.
    pub pid: u64,
    /// Application name (for the fresh-registration fallback).
    pub app_name: String,
    /// Supported adaptivity type.
    pub adaptivity: AdaptivityType,
    /// Whether the application provides its own utility metric.
    pub provides_utility: bool,
}

/// One operating point on the wire: the flattened extended resource vector
/// plus utility and power. Fine-grained details never cross the interface
/// (paper §4.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct WirePoint {
    /// Flattened extended resource vector (kind-major slot counts).
    pub erv_flat: Vec<u32>,
    /// Utility (IPS or application-specific).
    pub utility: f64,
    /// Attributed power in watts.
    pub power: f64,
}

/// Operating points from an application description file
/// (application → RM).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitPoints {
    /// Session id.
    pub app_id: u64,
    /// Per-kind SMT widths describing the vector shape.
    pub smt_widths: Vec<u32>,
    /// The submitted points.
    pub points: Vec<WirePoint>,
}

/// Operating-point activation (RM → application): the new allocation the
/// application must adapt to (paper §4.1.1 step 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Activate {
    /// Session id.
    pub app_id: u64,
    /// The selected extended resource vector (flattened).
    pub erv_flat: Vec<u32>,
    /// The concrete physical cores allocated (spatial isolation).
    pub core_ids: Vec<u32>,
    /// The parallelization degree derived from the vector — the value the
    /// scalable-application hook clamps the team size to.
    pub parallelism: u32,
    /// The concrete hardware threads (SMT siblings) granted — what
    /// `sched_setaffinity` masks are built from.
    pub hw_thread_ids: Vec<u32>,
}

/// Utility poll (RM → application).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UtilityRequest {
    /// Session id.
    pub app_id: u64,
}

/// Utility feedback (application → RM, paper §4.1.1 step 4).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityReport {
    /// Session id.
    pub app_id: u64,
    /// Current application-specific utility (work per second).
    pub utility: f64,
}

/// Protocol-level error notification.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMsg {
    /// Numeric error code.
    pub code: u32,
    /// Human-readable description.
    pub detail: String,
}

/// Telemetry dump request (observer → RM daemon).
///
/// Any client may ask the daemon to serialize its flight recorder; the
/// daemon replies with a [`TelemetryDump`]. This is how `harp-trace`
/// inspects a live daemon without attaching a debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpTelemetry {
    /// Whether to append a metrics snapshot after the event lines.
    pub include_metrics: bool,
}

/// Telemetry dump reply (RM daemon → observer).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDump {
    /// `harp-obs-v1` JSONL document (may be truncated to respect the
    /// frame limit; truncation always happens at a line boundary).
    pub jsonl: String,
    /// True when the daemon had to drop trailing lines to fit the frame.
    pub truncated: bool,
}

/// Live telemetry subscription request (observer → RM daemon).
///
/// Unlike the one-shot [`DumpTelemetry`], a subscription asks the daemon
/// to push a [`TelemetryFrame`] roughly every `interval_ms` until the
/// connection closes. Frames are bounded and drop-oldest under
/// backpressure: when the subscriber's outbound queue is saturated the
/// daemon skips pushes and accounts for them in
/// [`TelemetryFrame::dropped_frames`], so a slow observer can always
/// detect exactly how many intervals it missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeTelemetry {
    /// Requested push interval in milliseconds; the daemon clamps it to
    /// its own floor (0 means "daemon default").
    pub interval_ms: u32,
    /// Whether frames should include interval metric deltas rendered as
    /// `harp-obs-v1` metric JSONL lines.
    pub include_metrics: bool,
}

/// Per-session row in a [`TelemetryFrame`]: the energy-ledger slice and
/// latency digest for one live session over the frame interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionEnergy {
    /// Session id.
    pub app_id: u64,
    /// Application name.
    pub name: String,
    /// Micro-joules attributed to the session over this interval.
    pub tick_uj: u64,
    /// Cumulative micro-joules attributed since the session registered.
    pub total_uj: u64,
    /// p99 request-handling latency over the interval, microseconds
    /// (0 when the session issued no requests this interval).
    pub latency_p99_us: u64,
}

/// One pushed telemetry interval (RM daemon → subscriber).
///
/// Energy fields mirror the RM's [`EnergyLedger`] tick accounting: the
/// per-session `tick_uj` values plus `idle_uj` sum exactly to the global
/// `tick_uj` (largest-remainder apportionment; see DESIGN.md §14).
///
/// [`EnergyLedger`]: https://docs.rs/harp-rm
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Frame sequence number within this subscription, starting at 0.
    /// `seq` advances even for dropped frames, so
    /// `seq + 1 == delivered + dropped_frames` holds at the subscriber.
    pub seq: u64,
    /// Cumulative count of frames this subscription dropped under
    /// backpressure (drop-oldest; never delivered, never re-sent).
    pub dropped_frames: u64,
    /// Actual push interval in milliseconds after daemon clamping.
    pub interval_ms: u32,
    /// Global modeled energy over this interval, micro-joules.
    pub tick_uj: u64,
    /// Share of `tick_uj` charged to the idle account this interval.
    pub idle_uj: u64,
    /// Cumulative global modeled energy, micro-joules.
    pub total_uj: u64,
    /// Per-session ledger rows, ascending `app_id`.
    pub sessions: Vec<SessionEnergy>,
    /// Interval metric deltas as `harp-obs-v1` metric JSONL lines
    /// (empty unless the subscription asked for metrics).
    pub metrics_jsonl: String,
}

/// Envelope over all protocol messages.
///
/// On the wire: field 1 (varint) holds the message-type discriminant,
/// field 2 (length-delimited) the type-specific payload. Unknown fields in
/// any payload are skipped.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Message {
    Register(Register),
    RegisterAck(RegisterAck),
    SubmitPoints(SubmitPoints),
    Activate(Activate),
    UtilityRequest(UtilityRequest),
    UtilityReport(UtilityReport),
    Exit {
        /// Session id of the exiting application.
        app_id: u64,
    },
    Error(ErrorMsg),
    DumpTelemetry(DumpTelemetry),
    TelemetryDump(TelemetryDump),
    Hello(Hello),
    Resume(Resume),
    SubscribeTelemetry(SubscribeTelemetry),
    TelemetryFrame(TelemetryFrame),
}

impl Message {
    fn discriminant(&self) -> u64 {
        match self {
            Message::Register(_) => 1,
            Message::RegisterAck(_) => 2,
            Message::SubmitPoints(_) => 3,
            Message::Activate(_) => 4,
            Message::UtilityRequest(_) => 5,
            Message::UtilityReport(_) => 6,
            Message::Exit { .. } => 7,
            Message::Error(_) => 8,
            Message::DumpTelemetry(_) => 9,
            Message::TelemetryDump(_) => 10,
            Message::Hello(_) => 11,
            Message::Resume(_) => 12,
            Message::SubscribeTelemetry(_) => 13,
            Message::TelemetryFrame(_) => 14,
        }
    }

    /// Encodes the message to its wire representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Message::Register(m) => {
                wire::put_uint_field(&mut payload, 1, m.pid);
                wire::put_str_field(&mut payload, 2, &m.app_name);
                wire::put_uint_field(&mut payload, 3, m.adaptivity.to_raw());
                wire::put_uint_field(&mut payload, 4, u64::from(m.provides_utility));
            }
            Message::RegisterAck(m) => {
                wire::put_uint_field(&mut payload, 1, m.app_id);
                wire::put_uint_field(&mut payload, 2, m.epoch);
                wire::put_uint_field(&mut payload, 3, m.resume_token);
                wire::put_uint_field(&mut payload, 4, u64::from(m.resumed));
            }
            Message::SubmitPoints(m) => {
                wire::put_uint_field(&mut payload, 1, m.app_id);
                wire::put_packed_u32_field(&mut payload, 2, &m.smt_widths);
                for p in &m.points {
                    let mut inner = Vec::new();
                    wire::put_packed_u32_field(&mut inner, 1, &p.erv_flat);
                    wire::put_f64_field(&mut inner, 2, p.utility);
                    wire::put_f64_field(&mut inner, 3, p.power);
                    wire::put_bytes_field(&mut payload, 3, &inner);
                }
            }
            Message::Activate(m) => {
                wire::put_uint_field(&mut payload, 1, m.app_id);
                wire::put_packed_u32_field(&mut payload, 2, &m.erv_flat);
                wire::put_packed_u32_field(&mut payload, 3, &m.core_ids);
                wire::put_uint_field(&mut payload, 4, u64::from(m.parallelism));
                wire::put_packed_u32_field(&mut payload, 5, &m.hw_thread_ids);
            }
            Message::UtilityRequest(m) => {
                wire::put_uint_field(&mut payload, 1, m.app_id);
            }
            Message::UtilityReport(m) => {
                wire::put_uint_field(&mut payload, 1, m.app_id);
                wire::put_f64_field(&mut payload, 2, m.utility);
            }
            Message::Exit { app_id } => {
                wire::put_uint_field(&mut payload, 1, *app_id);
            }
            Message::Error(m) => {
                wire::put_uint_field(&mut payload, 1, u64::from(m.code));
                wire::put_str_field(&mut payload, 2, &m.detail);
            }
            Message::DumpTelemetry(m) => {
                wire::put_uint_field(&mut payload, 1, u64::from(m.include_metrics));
            }
            Message::TelemetryDump(m) => {
                wire::put_str_field(&mut payload, 1, &m.jsonl);
                wire::put_uint_field(&mut payload, 2, u64::from(m.truncated));
            }
            Message::Hello(m) => {
                wire::put_uint_field(&mut payload, 1, m.epoch);
                wire::put_uint_field(&mut payload, 2, m.resume_token);
            }
            Message::Resume(m) => {
                wire::put_uint_field(&mut payload, 1, m.resume_token);
                wire::put_uint_field(&mut payload, 2, m.pid);
                wire::put_str_field(&mut payload, 3, &m.app_name);
                wire::put_uint_field(&mut payload, 4, m.adaptivity.to_raw());
                wire::put_uint_field(&mut payload, 5, u64::from(m.provides_utility));
            }
            Message::SubscribeTelemetry(m) => {
                wire::put_uint_field(&mut payload, 1, u64::from(m.interval_ms));
                wire::put_uint_field(&mut payload, 2, u64::from(m.include_metrics));
            }
            Message::TelemetryFrame(m) => {
                wire::put_uint_field(&mut payload, 1, m.seq);
                wire::put_uint_field(&mut payload, 2, m.dropped_frames);
                wire::put_uint_field(&mut payload, 3, u64::from(m.interval_ms));
                wire::put_uint_field(&mut payload, 4, m.tick_uj);
                wire::put_uint_field(&mut payload, 5, m.idle_uj);
                wire::put_uint_field(&mut payload, 6, m.total_uj);
                for s in &m.sessions {
                    let mut inner = Vec::new();
                    wire::put_uint_field(&mut inner, 1, s.app_id);
                    wire::put_str_field(&mut inner, 2, &s.name);
                    wire::put_uint_field(&mut inner, 3, s.tick_uj);
                    wire::put_uint_field(&mut inner, 4, s.total_uj);
                    wire::put_uint_field(&mut inner, 5, s.latency_p99_us);
                    wire::put_bytes_field(&mut payload, 7, &inner);
                }
                wire::put_str_field(&mut payload, 8, &m.metrics_jsonl);
            }
        }
        let mut out = Vec::with_capacity(payload.len() + 8);
        wire::put_uint_field(&mut out, 1, self.discriminant());
        wire::put_bytes_field(&mut out, 2, &payload);
        out
    }

    /// Decodes a message from its wire representation.
    ///
    /// The envelope payload and every nested submessage are *borrowed*
    /// from `bytes` while parsing — no intermediate copies are made. Only
    /// the owned fields of the resulting [`Message`] (strings, vectors)
    /// allocate; messages without such fields decode allocation-free.
    /// The pre-reactor allocating decoder is frozen in `tests/legacy/` as
    /// the differential oracle of `tests/corpus_decode.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Protocol`] for truncated or malformed input,
    /// unknown discriminants, or missing required fields.
    pub fn decode(mut bytes: &[u8]) -> Result<Message> {
        let buf = &mut bytes;
        let mut discriminant: Option<u64> = None;
        let mut payload: Option<&[u8]> = None;
        while !buf.is_empty() {
            let (field, wiretype) = wire::get_key(buf)?;
            match (field, wiretype) {
                (1, WireType::Varint) => discriminant = Some(wire::get_varint(buf)?),
                (2, WireType::LengthDelimited) => payload = Some(wire::take_bytes(buf)?),
                (_, w) => wire::skip_field(buf, w)?,
            }
        }
        let discriminant =
            discriminant.ok_or_else(|| HarpError::protocol("missing message discriminant"))?;
        let mut p = payload.ok_or_else(|| HarpError::protocol("missing message payload"))?;
        decode_payload(discriminant, &mut p)
    }
}

fn decode_payload(discriminant: u64, buf: &mut &[u8]) -> Result<Message> {
    match discriminant {
        1 => {
            let (mut pid, mut name, mut adapt, mut provides) = (0u64, String::new(), 0u64, false);
            for_each_field(buf, |field, wiretype, buf| {
                match (field, wiretype) {
                    (1, WireType::Varint) => pid = wire::get_varint(buf)?,
                    (2, WireType::LengthDelimited) => name = wire::take_str(buf)?.to_owned(),
                    (3, WireType::Varint) => adapt = wire::get_varint(buf)?,
                    (4, WireType::Varint) => provides = wire::get_varint(buf)? != 0,
                    (_, w) => wire::skip_field(buf, w)?,
                }
                Ok(())
            })?;
            Ok(Message::Register(Register {
                pid,
                app_name: name,
                adaptivity: AdaptivityType::from_raw(adapt)?,
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
                    (2, WireType::LengthDelimited) => smt_widths = wire::take_packed_u32(buf)?,
                    (3, WireType::LengthDelimited) => {
                        let mut inner = wire::take_bytes(buf)?;
                        points.push(decode_point(&mut inner)?);
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
                    (2, WireType::LengthDelimited) => erv_flat = wire::take_packed_u32(buf)?,
                    (3, WireType::LengthDelimited) => core_ids = wire::take_packed_u32(buf)?,
                    (4, WireType::Varint) => {
                        parallelism = u32::try_from(wire::get_varint(buf)?)
                            .map_err(|_| HarpError::protocol("parallelism too large"))?
                    }
                    (5, WireType::LengthDelimited) => hw_thread_ids = wire::take_packed_u32(buf)?,
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
                    (2, WireType::LengthDelimited) => detail = wire::take_str(buf)?.to_owned(),
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
                    (1, WireType::LengthDelimited) => jsonl = wire::take_str(buf)?.to_owned(),
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
                    (3, WireType::LengthDelimited) => name = wire::take_str(buf)?.to_owned(),
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
                adaptivity: AdaptivityType::from_raw(adapt)?,
                provides_utility: provides,
            }))
        }
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
                        let mut inner = wire::take_bytes(buf)?;
                        frame.sessions.push(decode_session_energy(&mut inner)?);
                    }
                    (8, WireType::LengthDelimited) => {
                        frame.metrics_jsonl = wire::take_str(buf)?.to_owned()
                    }
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
            (2, WireType::LengthDelimited) => s.name = wire::take_str(buf)?.to_owned(),
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
            (1, WireType::LengthDelimited) => erv_flat = wire::take_packed_u32(buf)?,
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

    fn round_trip(msg: Message) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn all_message_types_round_trip() {
        round_trip(Message::Register(Register {
            pid: 31337,
            app_name: "binpack".into(),
            adaptivity: AdaptivityType::Scalable,
            provides_utility: true,
        }));
        round_trip(Message::RegisterAck(RegisterAck::new(9)));
        round_trip(Message::RegisterAck(RegisterAck {
            app_id: 9,
            epoch: 4,
            resume_token: 0xdead_beef,
            resumed: true,
        }));
        round_trip(Message::Hello(Hello {
            epoch: 3,
            resume_token: 77,
        }));
        round_trip(Message::Resume(Resume {
            resume_token: 77,
            pid: 4242,
            app_name: "binpack".into(),
            adaptivity: AdaptivityType::Scalable,
            provides_utility: false,
        }));
        round_trip(Message::SubmitPoints(SubmitPoints {
            app_id: 9,
            smt_widths: vec![2, 1],
            points: vec![
                WirePoint {
                    erv_flat: vec![0, 8, 16],
                    utility: 3.3e10,
                    power: 110.5,
                },
                WirePoint {
                    erv_flat: vec![1, 0, 0],
                    utility: 9.0e9,
                    power: 11.0,
                },
            ],
        }));
        round_trip(Message::Activate(Activate {
            app_id: 9,
            erv_flat: vec![1, 2, 4],
            core_ids: vec![0, 1, 2, 8, 9, 10, 11],
            parallelism: 9,
            hw_thread_ids: vec![0, 1, 2, 3, 4, 16, 17, 18, 19],
        }));
        round_trip(Message::UtilityRequest(UtilityRequest { app_id: 9 }));
        round_trip(Message::UtilityReport(UtilityReport {
            app_id: 9,
            utility: 1234.5,
        }));
        round_trip(Message::Exit { app_id: 9 });
        round_trip(Message::Error(ErrorMsg {
            code: 3,
            detail: "no such session".into(),
        }));
        round_trip(Message::DumpTelemetry(DumpTelemetry {
            include_metrics: true,
        }));
        round_trip(Message::DumpTelemetry(DumpTelemetry {
            include_metrics: false,
        }));
        round_trip(Message::TelemetryDump(TelemetryDump {
            jsonl: "{\"type\":\"meta\",\"format\":\"harp-obs-v1\"}\n".into(),
            truncated: false,
        }));
        round_trip(Message::TelemetryDump(TelemetryDump {
            jsonl: String::new(),
            truncated: true,
        }));
        round_trip(Message::SubscribeTelemetry(SubscribeTelemetry {
            interval_ms: 250,
            include_metrics: true,
        }));
        round_trip(Message::SubscribeTelemetry(SubscribeTelemetry {
            interval_ms: 0,
            include_metrics: false,
        }));
        round_trip(Message::TelemetryFrame(TelemetryFrame {
            seq: 41,
            dropped_frames: 3,
            interval_ms: 250,
            tick_uj: 1_000_001,
            idle_uj: 17,
            total_uj: 99_000_000,
            sessions: vec![
                SessionEnergy {
                    app_id: 1,
                    name: "mg".into(),
                    tick_uj: 700_000,
                    total_uj: 60_000_000,
                    latency_p99_us: 812,
                },
                SessionEnergy {
                    app_id: 2,
                    name: "binpack".into(),
                    tick_uj: 299_984,
                    total_uj: 38_999_983,
                    latency_p99_us: 0,
                },
            ],
            metrics_jsonl:
                "{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"rm.ticks\",\"value\":4}\n"
                    .into(),
        }));
        round_trip(Message::TelemetryFrame(TelemetryFrame {
            seq: 0,
            dropped_frames: 0,
            interval_ms: 0,
            tick_uj: 0,
            idle_uj: 0,
            total_uj: 0,
            sessions: vec![],
            metrics_jsonl: String::new(),
        }));
    }

    #[test]
    fn empty_collections_round_trip() {
        round_trip(Message::SubmitPoints(SubmitPoints {
            app_id: 0,
            smt_widths: vec![],
            points: vec![],
        }));
        round_trip(Message::Activate(Activate {
            app_id: 0,
            erv_flat: vec![],
            core_ids: vec![],
            parallelism: 0,
            hw_thread_ids: vec![],
        }));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[0xff, 0xff, 0xff]).is_err());
        // Valid envelope but unknown discriminant.
        let mut out = Vec::new();
        wire::put_uint_field(&mut out, 1, 99);
        wire::put_bytes_field(&mut out, 2, &[]);
        assert!(Message::decode(&out).is_err());
    }

    #[test]
    fn telemetry_frame_decoder_skips_unknown_fields_everywhere() {
        // A future daemon may extend both the frame and its per-session
        // rows; today's decoder must skip the extensions at both levels.
        let mut inner = Vec::new();
        wire::put_uint_field(&mut inner, 1, 7);
        wire::put_str_field(&mut inner, 2, "mg");
        wire::put_uint_field(&mut inner, 3, 5);
        wire::put_uint_field(&mut inner, 9, 0xfeed); // unknown session field
        let mut payload = Vec::new();
        wire::put_uint_field(&mut payload, 1, 2);
        wire::put_uint_field(&mut payload, 4, 5);
        wire::put_bytes_field(&mut payload, 7, &inner);
        wire::put_str_field(&mut payload, 21, "future"); // unknown frame field
        let mut out = Vec::new();
        wire::put_uint_field(&mut out, 1, 14);
        wire::put_bytes_field(&mut out, 2, &payload);
        let got = Message::decode(&out).unwrap();
        let Message::TelemetryFrame(f) = got else {
            panic!("expected TelemetryFrame, got {got:?}");
        };
        assert_eq!(f.seq, 2);
        assert_eq!(f.tick_uj, 5);
        assert_eq!(f.sessions.len(), 1);
        assert_eq!(f.sessions[0].app_id, 7);
        assert_eq!(f.sessions[0].name, "mg");
        assert_eq!(f.sessions[0].tick_uj, 5);
    }

    #[test]
    fn telemetry_frame_decode_rejects_garbage_sessions() {
        // A corrupt nested session row must surface as a protocol error,
        // not a panic or silent skip.
        let mut payload = Vec::new();
        wire::put_uint_field(&mut payload, 1, 2);
        wire::put_bytes_field(&mut payload, 7, &[0xff, 0xff, 0xff, 0xff]);
        let mut out = Vec::new();
        wire::put_uint_field(&mut out, 1, 14);
        wire::put_bytes_field(&mut out, 2, &payload);
        assert!(Message::decode(&out).is_err());
    }

    #[test]
    fn decoder_skips_unknown_fields() {
        // Encode a RegisterAck with an extra field 17 appended to its payload.
        let mut payload = Vec::new();
        wire::put_uint_field(&mut payload, 1, 5);
        wire::put_str_field(&mut payload, 17, "future extension");
        let mut out = Vec::new();
        wire::put_uint_field(&mut out, 1, 2);
        wire::put_bytes_field(&mut out, 2, &payload);
        assert_eq!(
            Message::decode(&out).unwrap(),
            Message::RegisterAck(RegisterAck::new(5))
        );
    }

    #[test]
    fn old_register_ack_payload_decodes_with_zero_recovery_fields() {
        // A pre-recovery daemon only emits field 1; the new decoder must
        // fill the recovery fields with their compatibility defaults.
        let mut payload = Vec::new();
        wire::put_uint_field(&mut payload, 1, 5);
        let mut out = Vec::new();
        wire::put_uint_field(&mut out, 1, 2);
        wire::put_bytes_field(&mut out, 2, &payload);
        let got = Message::decode(&out).unwrap();
        assert_eq!(got, Message::RegisterAck(RegisterAck::new(5)));
    }

    #[test]
    fn adaptivity_type_raw_values_are_stable() {
        // Wire compatibility: these values must never change.
        assert_eq!(AdaptivityType::Static.to_raw(), 0);
        assert_eq!(AdaptivityType::Scalable.to_raw(), 1);
        assert_eq!(AdaptivityType::Custom.to_raw(), 2);
        assert!(AdaptivityType::from_raw(3).is_err());
    }
}
