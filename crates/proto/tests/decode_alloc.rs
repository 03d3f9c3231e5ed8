//! Proof of the zero-copy property: steady-state frame decoding performs
//! no per-message payload allocation.
//!
//! The old `read_frame` path allocated a fresh body `Vec<u8>` for every
//! frame. The incremental [`FrameDecoder`] instead lends out borrowed
//! [`harp_proto::frame::Frame`]s over its internal ring, so once the ring
//! has grown to its working size, pushing messages through it touches the
//! allocator only for whatever owned fields the decoded `Message` itself
//! carries — and for payload-free messages, not at all.
//!
//! The counter is a thread-local tally fed by a wrapper global allocator,
//! so concurrent test threads cannot pollute the measurement.

use harp_proto::frame::{encode_frame, FrameDecoder};
use harp_proto::Message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping around it does not
// allocate (Cell<u64> in a thread-local).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn steady_state_decode_is_allocation_free() {
    // One payload-free message, framed once, replayed many times.
    let frame_bytes = encode_frame(&Message::Exit { app_id: 77 }).unwrap();
    let mut dec = FrameDecoder::new();

    let feed_and_decode = |dec: &mut FrameDecoder| {
        let space = dec.read_space(frame_bytes.len());
        space[..frame_bytes.len()].copy_from_slice(&frame_bytes);
        dec.commit(frame_bytes.len());
        let mut n = 0;
        while let Some(frame) = dec.next_frame().unwrap() {
            assert_eq!(frame.decode().unwrap(), Message::Exit { app_id: 77 });
            n += 1;
        }
        n
    };

    // Warm-up: let the decoder's ring grow to its working size.
    for _ in 0..64 {
        feed_and_decode(&mut dec);
    }

    // Steady state: thousands of messages, zero allocator traffic.
    let before = allocs();
    let mut decoded = 0;
    for _ in 0..4096 {
        decoded += feed_and_decode(&mut dec);
    }
    let delta = allocs() - before;
    assert_eq!(decoded, 4096);
    assert_eq!(
        delta, 0,
        "steady-state decode of {decoded} messages hit the allocator {delta} times"
    );
}

/// Contrast: the legacy blocking reader allocates at least one body buffer
/// per frame. This pins down *why* the reactor uses the incremental
/// decoder, and fails loudly if someone "simplifies" it back.
#[test]
fn blocking_reader_allocates_per_frame() {
    let mut stream = Vec::new();
    for _ in 0..256 {
        stream.extend_from_slice(&encode_frame(&Message::Exit { app_id: 77 }).unwrap());
    }
    let mut cursor = std::io::Cursor::new(stream.as_slice());
    // Warm-up one frame so lazy statics settle.
    assert!(harp_proto::frame::read_frame(&mut cursor)
        .unwrap()
        .is_some());

    let before = allocs();
    let mut n = 0;
    while let Some(msg) = harp_proto::frame::read_frame(&mut cursor).unwrap() {
        assert_eq!(msg, Message::Exit { app_id: 77 });
        n += 1;
    }
    let delta = allocs() - before;
    assert_eq!(n, 255);
    assert!(
        delta >= n,
        "expected >= {n} allocations from the per-frame body buffers, saw {delta}"
    );
}
