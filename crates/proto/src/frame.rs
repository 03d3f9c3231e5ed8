//! Length-prefixed framing for byte-stream transports (Unix sockets).
//!
//! Each frame is a little-endian `u32` length followed by the encoded
//! [`crate::Message`]. Blocking peers (`libharp`, tests) call
//! [`write_frame`] / [`read_frame`] on the stream directly; the daemon's
//! non-blocking reactor shards feed socket reads through a
//! [`FrameDecoder`] and batch outbound [`encode_frame`] buffers.

use crate::Message;
use harp_types::{HarpError, Result};
use std::io::{Read, Write};

/// Maximum accepted frame size (16 MiB) — guards against corrupted length
/// prefixes allocating unbounded memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Allocation granularity of the frame-body reader. A corrupted length
/// prefix can claim up to [`MAX_FRAME_LEN`] bytes; reading in chunks means
/// memory only grows as bytes actually arrive, so a peer that lies about
/// the length and then stalls or disconnects costs at most one chunk.
const READ_CHUNK: usize = 64 * 1024;

/// Writes one framed message to `w`.
///
/// A `&mut W` can be passed for any `W: Write`.
///
/// # Errors
///
/// Returns [`HarpError::Io`] on write failure.
pub fn write_frame<W: Write>(mut w: W, msg: &Message) -> Result<()> {
    let body = msg.encode();
    let len = u32::try_from(body.len()).map_err(|_| HarpError::protocol("frame too large"))?;
    if len > MAX_FRAME_LEN {
        return Err(HarpError::protocol("frame too large"));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Encodes one framed message (length prefix + body) into a byte vector —
/// the buffer-building counterpart of [`write_frame`] for outbound rings
/// that batch many frames per `write`.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] if the encoded body exceeds
/// [`MAX_FRAME_LEN`].
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    let body = msg.encode();
    let len = u32::try_from(body.len()).map_err(|_| HarpError::protocol("frame too large"))?;
    if len > MAX_FRAME_LEN {
        return Err(HarpError::protocol("frame too large"));
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Reads one framed message from `r`, blocking until a full frame arrives.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary.
///
/// # Errors
///
/// Returns [`HarpError::Io`] on read failure, [`HarpError::Protocol`] on an
/// oversized frame, a mid-frame end-of-stream, or a malformed body.
///
/// # Example
///
/// ```
/// use harp_proto::frame::{write_frame, read_frame};
/// use harp_proto::Message;
///
/// let mut buf = Vec::new();
/// write_frame(&mut buf, &Message::Exit { app_id: 1 })?;
/// write_frame(&mut buf, &Message::Exit { app_id: 2 })?;
/// let mut cursor = std::io::Cursor::new(buf);
/// assert_eq!(read_frame(&mut cursor)?, Some(Message::Exit { app_id: 1 }));
/// assert_eq!(read_frame(&mut cursor)?, Some(Message::Exit { app_id: 2 }));
/// assert_eq!(read_frame(&mut cursor)?, None);
/// # Ok::<(), harp_types::HarpError>(())
/// ```
pub fn read_frame<R: Read>(mut r: R) -> Result<Option<Message>> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (zero bytes) from a truncated prefix.
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None),
        1 => {}
        _ => unreachable!("read of one byte cannot return more"),
    }
    r.read_exact(&mut len_buf[1..])
        .map_err(|_| HarpError::protocol("truncated frame length"))?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(HarpError::protocol(format!("oversized frame: {len} bytes")));
    }
    let mut body = Vec::with_capacity((len as usize).min(READ_CHUNK));
    let mut remaining = len as usize;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        let start = body.len();
        body.resize(start + take, 0);
        r.read_exact(&mut body[start..])
            .map_err(|_| HarpError::protocol("truncated frame body"))?;
        remaining -= take;
    }
    Message::decode(&body).map(Some)
}

/// Minimum space the decoder exposes per read — one syscall can pull in
/// many small frames at once, which is what makes per-wakeup batching in
/// the reactor shards pay off.
const MIN_READ_SPACE: usize = 16 * 1024;

/// Consumed-prefix size beyond which [`FrameDecoder`] slides remaining
/// bytes to the front of its buffer instead of growing it.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// One complete frame borrowed out of a [`FrameDecoder`]'s buffer.
///
/// The payload aliases the decoder's internal buffer — no copy is made
/// between the socket read and [`Message::decode`] (which itself borrows
/// all nested payloads). Drop the frame (typically by calling
/// [`Frame::decode`]) before pulling the next one.
#[derive(Debug)]
pub struct Frame<'a> {
    payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// The raw frame body (without the length prefix).
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Decodes the body into an owned [`Message`].
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Protocol`] on a malformed body.
    pub fn decode(&self) -> Result<Message> {
        Message::decode(self.payload)
    }
}

/// Incremental, zero-copy frame extraction over a reusable buffer.
///
/// This is the non-blocking counterpart of [`read_frame`]: bytes arrive in
/// arbitrary chunks (`read_space` → `commit`, or [`FrameDecoder::read_from`]
/// for `Read` streams), and [`FrameDecoder::next_frame`] yields complete
/// frames as borrowed [`Frame`]s without copying the body out. The buffer
/// is compacted lazily, so a long-lived session reuses one allocation in
/// steady state.
///
/// # Example
///
/// ```
/// use harp_proto::frame::{write_frame, FrameDecoder};
/// use harp_proto::Message;
///
/// let mut bytes = Vec::new();
/// write_frame(&mut bytes, &Message::Exit { app_id: 1 })?;
/// write_frame(&mut bytes, &Message::Exit { app_id: 2 })?;
///
/// let mut dec = FrameDecoder::new();
/// // Feed an arbitrary split; frames appear once complete.
/// dec.read_space(bytes.len())[..3].copy_from_slice(&bytes[..3]);
/// dec.commit(3);
/// assert!(dec.next_frame()?.is_none());
/// let rest = bytes.len() - 3;
/// dec.read_space(rest)[..rest].copy_from_slice(&bytes[3..]);
/// dec.commit(rest);
/// assert_eq!(dec.next_frame()?.unwrap().decode()?, Message::Exit { app_id: 1 });
/// assert_eq!(dec.next_frame()?.unwrap().decode()?, Message::Exit { app_id: 2 });
/// assert!(dec.next_frame()?.is_none() && dec.is_clean());
/// # Ok::<(), harp_types::HarpError>(())
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Backing storage; valid bytes live in `buf[head..end]`.
    buf: Vec<u8>,
    head: usize,
    end: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Number of buffered bytes not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.end - self.head
    }

    /// True when the decoder sits at a frame boundary — the state in which
    /// an end-of-stream is a clean close rather than a truncated frame.
    pub fn is_clean(&self) -> bool {
        self.pending() == 0
    }

    /// Returns writable space of at least `min.max(16 KiB)` bytes to read
    /// socket data into; follow with [`FrameDecoder::commit`]. Consumed
    /// prefix space is reclaimed here (never while a [`Frame`] borrow is
    /// live).
    pub fn read_space(&mut self, min: usize) -> &mut [u8] {
        if self.head == self.end {
            self.head = 0;
            self.end = 0;
        } else if self.head >= COMPACT_THRESHOLD {
            self.buf.copy_within(self.head..self.end, 0);
            self.end -= self.head;
            self.head = 0;
        }
        let want = self.end + min.max(MIN_READ_SPACE);
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Marks `n` bytes of the last [`FrameDecoder::read_space`] as filled.
    pub fn commit(&mut self, n: usize) {
        self.end += n;
        debug_assert!(self.end <= self.buf.len());
    }

    /// Reads once from `r` into the buffer. Returns the byte count (0 at
    /// end-of-stream). `WouldBlock` is surfaced for non-blocking streams.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        let space = self.read_space(MIN_READ_SPACE);
        let n = r.read(space)?;
        self.commit(n);
        Ok(n)
    }

    /// Extracts the next complete frame, or `None` if more bytes are
    /// needed. The frame borrows the internal buffer; it is already
    /// consumed, so dropping it without decoding skips the frame.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Protocol`] on an oversized length prefix.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>> {
        if self.pending() < 4 {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&self.buf[self.head..self.head + 4]);
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME_LEN {
            return Err(HarpError::protocol(format!("oversized frame: {len} bytes")));
        }
        let total = 4 + len as usize;
        if self.pending() < total {
            return Ok(None);
        }
        let start = self.head + 4;
        self.head += total;
        Ok(Some(Frame {
            payload: &self.buf[start..start + len as usize],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptivityType, Register, TelemetryDump};
    use std::io::Cursor;

    #[test]
    fn frame_round_trip_multiple_messages() {
        let msgs = vec![
            Message::Register(Register {
                pid: 1,
                app_name: "ep.C".into(),
                adaptivity: AdaptivityType::Scalable,
                provides_utility: false,
            }),
            Message::Exit { app_id: 1 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for m in &msgs {
            assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(m));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn clean_eof_returns_none_truncation_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Exit { app_id: 3 }).unwrap();
        // Truncate mid-frame.
        buf.truncate(buf.len() - 2);
        let mut cursor = Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn truncated_length_prefix_is_error() {
        let mut cursor = Cursor::new(vec![5u8, 0]);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn frame_decoder_batches_many_frames_per_commit() {
        let mut bytes = Vec::new();
        for id in 0..100u64 {
            write_frame(&mut bytes, &Message::Exit { app_id: id }).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let space = dec.read_space(bytes.len());
        space[..bytes.len()].copy_from_slice(&bytes);
        dec.commit(bytes.len());
        for id in 0..100u64 {
            let frame = dec.next_frame().unwrap().expect("frame available");
            assert_eq!(frame.decode().unwrap(), Message::Exit { app_id: id });
        }
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.is_clean());
    }

    #[test]
    fn frame_decoder_read_from_matches_read_frame() {
        let mut bytes = Vec::new();
        let msgs = vec![
            Message::Register(Register {
                pid: 7,
                app_name: "ft.B".into(),
                adaptivity: AdaptivityType::Static,
                provides_utility: true,
            }),
            Message::Exit { app_id: 7 },
        ];
        for m in &msgs {
            write_frame(&mut bytes, m).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut cursor = Cursor::new(bytes);
        let mut got = Vec::new();
        loop {
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.decode().unwrap());
            }
            if dec.read_from(&mut cursor).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(got, msgs);
        assert!(dec.is_clean(), "EOF at frame boundary");
    }

    #[test]
    fn frame_decoder_rejects_oversized_prefix() {
        let mut dec = FrameDecoder::new();
        let poison = u32::MAX.to_le_bytes();
        dec.read_space(4)[..4].copy_from_slice(&poison);
        dec.commit(4);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn frame_decoder_partial_frame_is_not_clean() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Message::Exit { app_id: 3 }).unwrap();
        let cut = bytes.len() - 2;
        let mut dec = FrameDecoder::new();
        dec.read_space(cut)[..cut].copy_from_slice(&bytes[..cut]);
        dec.commit(cut);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(!dec.is_clean(), "mid-frame EOF must be detectable");
    }

    #[test]
    fn frame_decoder_compacts_and_survives_many_rounds() {
        // Push enough traffic through a small decoder that the consumed
        // prefix crosses the compaction threshold repeatedly.
        let mut one = Vec::new();
        write_frame(
            &mut one,
            &Message::TelemetryDump(TelemetryDump {
                jsonl: "x".repeat(8 * 1024),
                truncated: false,
            }),
        )
        .unwrap();
        let mut dec = FrameDecoder::new();
        for _ in 0..64 {
            let space = dec.read_space(one.len());
            space[..one.len()].copy_from_slice(&one);
            dec.commit(one.len());
            let f = dec.next_frame().unwrap().expect("frame");
            assert_eq!(f.payload().len(), one.len() - 4);
            assert!(dec.next_frame().unwrap().is_none());
        }
        assert!(dec.is_clean());
    }
}
