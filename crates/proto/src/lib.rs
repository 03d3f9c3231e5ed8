//! The HARP communication protocol between `libharp` and the HARP RM.
//!
//! The paper (§4.1.1) specifies "protobuf messages over Unix sockets". This
//! crate implements the message set with a hand-rolled, protobuf-compatible
//! wire format (varints, little-endian fixed64, length-delimited fields —
//! the three encodings the 14 messages use) so that no code generation is
//! needed:
//!
//! * [`wire`] — low-level encoding primitives over [`bytes`] buffers.
//! * [`Message`] — the protocol message set: registration, operating-point
//!   submission, activation, utility feedback, exit.
//! * [`frame`] — length-prefixed framing for byte streams (Unix sockets):
//!   blocking [`frame::write_frame`] / [`frame::read_frame`] and the
//!   incremental, zero-copy [`frame::FrameDecoder`].
//! * [`duplex`] — an in-process transport pair used by the simulator and by
//!   tests; the daemon (`harp-daemon`) speaks the same frames over real
//!   `UnixStream`s.
//!
//! Decoders skip unknown fields, so the format is forward compatible in the
//! protobuf sense.
//!
//! # Example
//!
//! ```
//! use harp_proto::{AdaptivityType, Message};
//!
//! let msg = Message::Register(harp_proto::Register {
//!     pid: 4242,
//!     app_name: "mg.C".to_string(),
//!     adaptivity: AdaptivityType::Scalable,
//!     provides_utility: false,
//! });
//! let bytes = msg.encode();
//! let back = Message::decode(&bytes)?;
//! assert_eq!(msg, back);
//! # Ok::<(), harp_types::HarpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod frame;
mod messages;
pub mod wire;

pub use messages::{
    Activate, AdaptivityType, DumpTelemetry, ErrorMsg, Hello, Message, Register, RegisterAck,
    Resume, SessionEnergy, SubmitPoints, SubscribeTelemetry, TelemetryDump, TelemetryFrame,
    UtilityReport, UtilityRequest, WirePoint,
};

use std::sync::mpsc;

/// One endpoint of an in-process, bidirectional message channel.
///
/// Messages are encoded to their wire representation on send and decoded on
/// receive, so in-process communication exercises the same codec as the real
/// Unix-socket transport.
#[derive(Debug)]
pub struct DuplexEndpoint {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

impl DuplexEndpoint {
    /// Sends a message to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`harp_types::HarpError::Disconnected`] if the peer
    /// endpoint was dropped — the same classification the Unix-socket
    /// transport gives a hangup, so reconnect logic behaves identically
    /// over both.
    pub fn send(&self, msg: &Message) -> harp_types::Result<()> {
        self.tx
            .send(msg.encode())
            .map_err(|_| harp_types::HarpError::disconnected("peer endpoint closed"))
    }

    /// Receives the next message, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`harp_types::HarpError::Disconnected`] if the peer
    /// endpoint was dropped, or [`harp_types::HarpError::Protocol`] if the
    /// payload fails to decode.
    pub fn recv(&self) -> harp_types::Result<Message> {
        let bytes = self
            .rx
            .recv()
            .map_err(|_| harp_types::HarpError::disconnected("peer endpoint closed"))?;
        Message::decode(&bytes)
    }

    /// Receives the next message if one is already queued.
    ///
    /// Returns `Ok(None)` when the queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`harp_types::HarpError::Disconnected`] if the peer
    /// endpoint was dropped, or [`harp_types::HarpError::Protocol`] if the
    /// payload fails to decode.
    pub fn try_recv(&self) -> harp_types::Result<Option<Message>> {
        match self.rx.try_recv() {
            Ok(bytes) => Message::decode(&bytes).map(Some),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => {
                Err(harp_types::HarpError::disconnected("peer endpoint closed"))
            }
        }
    }
}

/// Creates a connected pair of in-process endpoints (application side, RM
/// side).
pub fn duplex() -> (DuplexEndpoint, DuplexEndpoint) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    (
        DuplexEndpoint { tx: a_tx, rx: a_rx },
        DuplexEndpoint { tx: b_tx, rx: b_rx },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_round_trips_messages() {
        let (app, rm) = duplex();
        app.send(&Message::UtilityRequest(UtilityRequest { app_id: 7 }))
            .unwrap();
        let got = rm.recv().unwrap();
        assert_eq!(got, Message::UtilityRequest(UtilityRequest { app_id: 7 }));
        rm.send(&Message::RegisterAck(RegisterAck::new(7))).unwrap();
        assert_eq!(
            app.try_recv().unwrap(),
            Some(Message::RegisterAck(RegisterAck::new(7)))
        );
        assert_eq!(app.try_recv().unwrap(), None);
    }

    #[test]
    fn dropped_peer_is_a_disconnect() {
        let (app, rm) = duplex();
        drop(rm);
        assert!(app
            .send(&Message::Exit { app_id: 1 })
            .unwrap_err()
            .is_disconnect());
        assert!(app.recv().unwrap_err().is_disconnect());
        assert!(app.try_recv().unwrap_err().is_retryable());
    }
}
