//! Client-side Unix-socket transport for libharp.

use harp_proto::frame::{encode_frame, FrameDecoder};
use harp_proto::Message;
use harp_types::{HarpError, Result};
use reactor::poll_fd;
use std::io::{ErrorKind, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// A [`libharp::Transport`] over a Unix domain socket.
///
/// The socket is non-blocking; an incremental [`FrameDecoder`] reassembles
/// partial reads, so [`libharp::Transport::try_recv`] never blocks and
/// never tears a partially-read frame. No reader thread is spawned — a
/// process with hundreds of HARP sessions costs one file descriptor per
/// session, not one thread.
#[derive(Debug)]
pub struct UnixTransport {
    stream: UnixStream,
    decoder: FrameDecoder,
}

impl UnixTransport {
    /// Connects to a HARP daemon socket.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Connect`] classifying *why* the daemon is
    /// unreachable — [`harp_types::ConnectKind::SocketMissing`] (no daemon
    /// ever started, or it removed its socket on shutdown),
    /// [`harp_types::ConnectKind::Refused`] (socket file exists but nothing
    /// is listening — a crashed daemon), or
    /// [`harp_types::ConnectKind::PermissionDenied`] (not retryable).
    /// Reconnect loops use [`HarpError::is_retryable`] to decide whether
    /// backing off can help.
    pub fn connect(path: impl AsRef<Path>) -> Result<Self> {
        let stream = UnixStream::connect(path).map_err(|e| HarpError::from_connect_io(&e))?;
        Self::from_stream(stream)
    }

    /// Wraps an already-connected stream.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Io`] if the stream cannot be switched to
    /// non-blocking mode.
    pub fn from_stream(stream: UnixStream) -> Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(UnixTransport {
            stream,
            decoder: FrameDecoder::new(),
        })
    }

    /// Pulls whatever the socket has buffered into the decoder.
    ///
    /// Returns `true` if the peer has hung up (EOF). With or without a
    /// clean frame boundary, EOF means the daemon is gone — the session
    /// layer treats both identically as a retryable disconnect.
    fn fill(&mut self) -> Result<bool> {
        loop {
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => return Ok(true),
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Decodes the next buffered frame, if a complete one is present.
    fn next_msg(&mut self) -> Result<Option<Message>> {
        match self.decoder.next_frame()? {
            Some(frame) => frame.decode().map(Some),
            None => Ok(None),
        }
    }
}

impl Drop for UnixTransport {
    /// Hang up on drop. Dropping the stream closes the fd anyway, but an
    /// explicit bidirectional shutdown severs clones too, so a crashed (or
    /// merely dropped) client is always reaped by the daemon — the chaos
    /// suite's `client_crash_mid_exploration` scenario catches exactly
    /// that.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl libharp::Transport for UnixTransport {
    fn send(&mut self, msg: &Message) -> Result<()> {
        let bytes = encode_frame(msg)?;
        let mut sent = 0;
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(0) => return Err(HarpError::disconnected("daemon connection closed")),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // The daemon's socket buffer is full; wait for drain.
                    poll_fd(self.stream.as_raw_fd(), false, true, None)?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Message> {
        loop {
            if let Some(msg) = self.next_msg()? {
                return Ok(msg);
            }
            if self.fill()? {
                // EOF: surface any already-buffered frame, then report the
                // hangup exactly as the old reader thread did.
                if let Some(msg) = self.next_msg()? {
                    return Ok(msg);
                }
                return Err(HarpError::disconnected("daemon connection closed"));
            }
            if let Some(msg) = self.next_msg()? {
                return Ok(msg);
            }
            poll_fd(self.stream.as_raw_fd(), true, false, None)?;
        }
    }

    fn try_recv(&mut self) -> Result<Option<Message>> {
        if let Some(msg) = self.next_msg()? {
            return Ok(Some(msg));
        }
        if self.fill()? {
            if let Some(msg) = self.next_msg()? {
                return Ok(Some(msg));
            }
            return Err(HarpError::disconnected("daemon connection closed"));
        }
        self.next_msg()
    }

    fn poll_ready(&mut self, timeout: Option<Duration>) -> Result<bool> {
        if self.decoder.pending() > 0 {
            return Ok(true);
        }
        Ok(poll_fd(self.stream.as_raw_fd(), true, false, timeout)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libharp::Transport as _;

    #[test]
    fn socketpair_round_trip() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut ta = UnixTransport::from_stream(a).unwrap();
        let mut tb = UnixTransport::from_stream(b).unwrap();
        ta.send(&Message::Exit { app_id: 5 }).unwrap();
        assert_eq!(tb.recv().unwrap(), Message::Exit { app_id: 5 });
        assert_eq!(tb.try_recv().unwrap(), None);
        tb.send(&Message::Exit { app_id: 6 }).unwrap();
        assert_eq!(ta.recv().unwrap(), Message::Exit { app_id: 6 });
    }

    #[test]
    fn closed_peer_is_a_disconnect() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut ta = UnixTransport::from_stream(a).unwrap();
        drop(b);
        // recv drains EOF -> a retryable disconnect, not a protocol error.
        let err = ta.recv().unwrap_err();
        assert!(err.is_disconnect(), "got {err:?}");
        assert!(err.is_retryable());
    }

    #[test]
    fn buffered_frames_survive_a_hangup() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut ta = UnixTransport::from_stream(a).unwrap();
        let mut tb = UnixTransport::from_stream(b).unwrap();
        // Peer sends then hangs up: the queued frame must still arrive
        // before the disconnect is reported (the daemon's final error
        // reply travels this path).
        tb.send(&Message::Exit { app_id: 9 }).unwrap();
        drop(tb);
        assert_eq!(ta.recv().unwrap(), Message::Exit { app_id: 9 });
        assert!(ta.recv().unwrap_err().is_disconnect());
    }

    #[test]
    fn poll_ready_reflects_pending_bytes() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut ta = UnixTransport::from_stream(a).unwrap();
        let mut tb = UnixTransport::from_stream(b).unwrap();
        assert!(!ta.poll_ready(Some(Duration::from_millis(10))).unwrap());
        tb.send(&Message::Exit { app_id: 1 }).unwrap();
        assert!(ta.poll_ready(Some(Duration::from_secs(2))).unwrap());
        assert_eq!(ta.try_recv().unwrap(), Some(Message::Exit { app_id: 1 }));
    }

    #[test]
    fn missing_socket_is_classified() {
        let path = std::env::temp_dir().join(format!("harp-nosock-{}.sock", std::process::id()));
        let err = UnixTransport::connect(&path).unwrap_err();
        assert_eq!(
            err.connect_kind(),
            Some(harp_types::ConnectKind::SocketMissing)
        );
        assert!(err.is_retryable());
    }

    #[test]
    fn dead_socket_file_is_refused() {
        use std::os::unix::net::UnixListener;
        let path = std::env::temp_dir().join(format!("harp-dead-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Bind then drop the listener: the file stays, nobody listens.
        drop(UnixListener::bind(&path).unwrap());
        let err = UnixTransport::connect(&path).unwrap_err();
        assert_eq!(err.connect_kind(), Some(harp_types::ConnectKind::Refused));
        assert!(err.is_retryable());
        let _ = std::fs::remove_file(&path);
    }
}
