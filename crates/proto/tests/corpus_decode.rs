//! Malformed-input regression suite for the frame codec.
//!
//! `tests/corpus/*.bin` holds hand-written and fuzz-discovered byte streams
//! that must decode to a clean [`harp_types::HarpError`] — never a panic,
//! a hang, or an unbounded allocation. Each file is one raw stream fed to
//! [`harp_proto::frame::read_frame`]. To add a regression: drop the
//! offending bytes into the directory; this test picks it up by name.

use harp_proto::frame::{read_frame, write_frame, FrameDecoder, MAX_FRAME_LEN};
use harp_proto::{AdaptivityType, Message, Register, SubmitPoints, WirePoint};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Cursor;
use std::path::PathBuf;

mod legacy;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every committed corpus entry decodes to an error (or a clean EOF for
/// streams that are empty at a frame boundary) without panicking.
#[test]
fn corpus_entries_decode_to_clean_errors() {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 10,
        "corpus unexpectedly small: {} entries",
        entries.len()
    );
    for path in entries {
        let bytes = std::fs::read(&path).expect("readable corpus file");
        let mut cursor = Cursor::new(bytes.as_slice());
        let result = read_frame(&mut cursor);
        assert!(
            result.is_err(),
            "{} decoded to {result:?}, expected a clean error",
            path.display()
        );
        // The error must be a HarpError (protocol or I/O), not a panic —
        // reaching this line at all is the real assertion. Also ensure the
        // Display impl is usable (the daemon echoes it to the peer).
        let msg = result.unwrap_err().to_string();
        assert!(
            !msg.is_empty(),
            "{} produced an empty error",
            path.display()
        );
    }
}

/// A length prefix that claims `MAX_FRAME_LEN` bytes but delivers almost
/// none must fail after at most one allocation chunk, not reserve 16 MiB.
#[test]
fn lying_length_prefix_fails_fast() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    stream.extend_from_slice(&[0u8; 32]);
    let mut cursor = Cursor::new(stream.as_slice());
    assert!(read_frame(&mut cursor).is_err());
}

/// Frames larger than one read chunk (64 KiB) still round-trip: the
/// chunked body reader must reassemble them byte-for-byte.
#[test]
fn multi_chunk_frame_round_trips() {
    let points: Vec<WirePoint> = (0..6000)
        .map(|i| WirePoint {
            erv_flat: vec![i % 7, i % 5, i % 3],
            utility: f64::from(i),
            power: 0.5 * f64::from(i),
        })
        .collect();
    let msg = Message::SubmitPoints(SubmitPoints {
        app_id: 42,
        smt_widths: vec![2, 1],
        points,
    });
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg).unwrap();
    assert!(buf.len() > 64 * 1024, "frame too small to cross a chunk");
    let mut cursor = Cursor::new(buf.as_slice());
    assert_eq!(read_frame(&mut cursor).unwrap(), Some(msg));
    assert_eq!(read_frame(&mut cursor).unwrap(), None);
}

/// Seeded fuzz sweep: random byte blobs and bit-flipped valid frames never
/// panic the decoder. Failures found here should be minimized and added to
/// `tests/corpus/` as named regressions.
#[test]
fn fuzzed_streams_never_panic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4841_5250); // "HARP"
    let template = Message::Register(Register {
        pid: 7,
        app_name: "fuzz-target".into(),
        adaptivity: AdaptivityType::Scalable,
        provides_utility: true,
    });
    let mut valid = Vec::new();
    write_frame(&mut valid, &template).unwrap();

    for case in 0..600 {
        let stream: Vec<u8> = if case % 2 == 0 {
            // Pure noise of random length.
            let len = rng.random_range(0usize..128);
            (0..len).map(|_| rng.next_u32() as u8).collect()
        } else {
            // A valid frame with 1-4 mutations: flips, truncation, growth.
            let mut bytes = valid.clone();
            for _ in 0..rng.random_range(1usize..=4) {
                match rng.random_range(0u8..3) {
                    0 => {
                        let i = rng.random_range(0usize..bytes.len());
                        bytes[i] ^= 1 << rng.random_range(0u32..8);
                    }
                    1 => {
                        let keep = rng.random_range(0usize..=bytes.len());
                        bytes.truncate(keep);
                    }
                    _ => bytes.push(rng.next_u32() as u8),
                }
            }
            bytes
        };
        // Drain the stream: every frame either decodes, errors, or ends.
        let mut cursor = Cursor::new(stream.as_slice());
        for _ in 0..8 {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
        // Raw body decode must be total as well.
        let _ = Message::decode(&stream);
    }
}

/// Drains `bytes` through the incremental zero-copy decoder, feeding it in
/// `chunk`-sized slices the way a non-blocking socket would. Returns the
/// decoded messages and whether the stream ended in an error (framing or
/// payload) or a torn frame.
fn drain_zero_copy(bytes: &[u8], chunk: usize) -> (Vec<Message>, bool) {
    let mut dec = FrameDecoder::new();
    let mut msgs = Vec::new();
    let mut fed = 0;
    loop {
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => match frame.decode() {
                    Ok(m) => msgs.push(m),
                    Err(_) => return (msgs, true),
                },
                Ok(None) => break,
                Err(_) => return (msgs, true),
            }
        }
        if fed == bytes.len() {
            // Stream over: a torn frame left in the buffer is an error.
            return (msgs, !dec.is_clean());
        }
        let n = chunk.min(bytes.len() - fed);
        let space = dec.read_space(n);
        space[..n].copy_from_slice(&bytes[fed..fed + n]);
        dec.commit(n);
        fed += n;
    }
}

/// Every corpus entry must fail through the zero-copy decoder exactly as
/// it does through the legacy blocking reader — for *every* chunking of
/// the stream, since a reactor feeds the decoder whatever sizes the
/// socket coughs up.
#[test]
fn corpus_entries_fail_identically_through_the_zero_copy_decoder() {
    let entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    assert!(entries.len() >= 10);
    for path in entries {
        let bytes = std::fs::read(&path).expect("readable corpus file");
        for chunk in [1, 2, 3, 7, bytes.len().max(1)] {
            let (msgs, errored) = drain_zero_copy(&bytes, chunk);
            assert!(
                errored,
                "{} (chunk {chunk}) decoded {msgs:?} cleanly; read_frame rejects it",
                path.display()
            );
        }
    }
}

/// Valid frame streams decode identically through the zero-copy decoder
/// regardless of chunking, and identically to the blocking reader.
#[test]
fn zero_copy_decoder_matches_read_frame_on_valid_streams() {
    let msgs = vec![
        Message::Register(Register {
            pid: 1,
            app_name: "chunks".into(),
            adaptivity: AdaptivityType::Custom,
            provides_utility: true,
        }),
        Message::SubmitPoints(SubmitPoints {
            app_id: 9,
            smt_widths: vec![2, 1],
            points: (0..40)
                .map(|i| WirePoint {
                    erv_flat: vec![i, i + 1],
                    utility: f64::from(i),
                    power: 1.5,
                })
                .collect(),
        }),
        Message::Exit { app_id: 9 },
    ];
    let mut stream = Vec::new();
    for m in &msgs {
        write_frame(&mut stream, m).unwrap();
    }
    for chunk in [1, 3, 16, 4096, stream.len()] {
        let (got, errored) = drain_zero_copy(&stream, chunk);
        assert!(!errored, "chunk {chunk} errored");
        assert_eq!(got, msgs, "chunk {chunk} reordered or lost frames");
    }
    // Blocking reader agrees.
    let mut cursor = Cursor::new(stream.as_slice());
    for m in &msgs {
        assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(m));
    }
}

fn arb_adaptivity() -> impl Strategy<Value = AdaptivityType> {
    prop_oneof![
        Just(AdaptivityType::Static),
        Just(AdaptivityType::Scalable),
        Just(AdaptivityType::Custom),
    ]
}

/// A message mix that exercises every borrowed decode path: strings,
/// nested length-delimited points, and packed u32 lists.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), ".{0,40}", arb_adaptivity(), any::<bool>()).prop_map(
            |(pid, app_name, adaptivity, provides_utility)| Message::Register(Register {
                pid,
                app_name,
                adaptivity,
                provides_utility,
            })
        ),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..4),
            proptest::collection::vec(
                (
                    proptest::collection::vec(any::<u32>(), 0..5),
                    any::<f64>(),
                    any::<f64>()
                )
                    .prop_map(|(erv_flat, utility, power)| WirePoint {
                        erv_flat,
                        utility,
                        power
                    }),
                0..5
            ),
        )
            .prop_map(
                |(app_id, smt_widths, points)| Message::SubmitPoints(SubmitPoints {
                    app_id,
                    smt_widths,
                    points,
                })
            ),
        (any::<u32>(), ".{0,60}")
            .prop_map(|(code, detail)| Message::Error(harp_proto::ErrorMsg { code, detail })),
        any::<u64>().prop_map(|app_id| Message::Exit { app_id }),
    ]
}

/// Outcome of a decoder on one byte stream, comparable across decoders:
/// accepted messages are compared by re-encoding (NaN-proof), rejections
/// collapse to `None`.
fn outcome(result: harp_types::Result<Message>) -> Option<Vec<u8>> {
    result.ok().map(|m| m.encode())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The borrowing decoder and the frozen allocating decoder accept and
    /// reject *byte-identically* on arbitrary garbage.
    #[test]
    fn legacy_and_zero_copy_agree_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        prop_assert_eq!(
            outcome(Message::decode(&bytes)),
            outcome(legacy::decode(&bytes)),
            "decoders disagree on {:?}", bytes
        );
    }

    /// ...and on valid encodings of every message shape.
    #[test]
    fn legacy_and_zero_copy_agree_on_valid_messages(msg in arb_message()) {
        let bytes = msg.encode();
        let primary = outcome(Message::decode(&bytes));
        let old = outcome(legacy::decode(&bytes));
        prop_assert!(primary.is_some(), "primary rejected its own encoding");
        prop_assert_eq!(primary, old);
    }

    /// ...and on every truncation of a valid encoding (torn frames).
    #[test]
    fn legacy_and_zero_copy_agree_on_truncations(msg in arb_message(), cut in 0.0f64..1.0) {
        let bytes = msg.encode();
        let keep = ((bytes.len() as f64) * cut) as usize;
        let cut_bytes = &bytes[..keep.min(bytes.len())];
        prop_assert_eq!(
            outcome(Message::decode(cut_bytes)),
            outcome(legacy::decode(cut_bytes))
        );
    }

    /// ...and under random single-byte corruption.
    #[test]
    fn legacy_and_zero_copy_agree_under_corruption(
        msg in arb_message(),
        pos in any::<u16>(),
        bit in 0u32..8,
    ) {
        let mut bytes = msg.encode();
        if bytes.is_empty() {
            return Ok(());
        }
        let idx = (pos as usize) % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert_eq!(
            outcome(Message::decode(&bytes)),
            outcome(legacy::decode(&bytes))
        );
    }
}
