//! The allocation bound of the wire path: an input of `L` bytes, however
//! hostile, never makes a decoder or the frame reader hold more than
//! `C·L + K` bytes — and never panics.
//!
//! `C` is the largest in-memory/wire ratio any codec has, rounded up: an
//! empty forwarded frame inside an `EdgeCombined` is 4 bytes on the wire
//! and a 24-byte `Vec` header in memory (6×). `K` covers error strings
//! and the reader's fixed header buffer. The bound holds because every
//! peer-supplied count goes through `bytes::Reader::count(min_stride)`
//! before anything is sized from it.
//!
//! One `#[test]` on purpose: the counting allocator is process-global, so
//! concurrent tests would see each other's allocations.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use spatl_wire::{FramePoll, FrameReader};

const C: usize = 8;
const K: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `p` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak bytes `f` held above what was live when it started.
fn peak_of(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

fn assert_bounded(what: &str, input_len: usize, f: impl FnOnce()) {
    let held = peak_of(f);
    assert!(
        held <= C * input_len + K,
        "{what}: {input_len} input bytes held {held} bytes (bound {})",
        C * input_len + K
    );
}

/// Assemble whatever frames `bytes` holds, capped at the input's own
/// length — the reader may size its buffer from the header, never past
/// the cap.
fn drain_frame_reader(bytes: &[u8]) {
    let mut reader = FrameReader::new(bytes.len());
    let mut src = std::io::Cursor::new(bytes);
    while let Ok(FramePoll::Frame(frame)) = reader.poll(&mut src) {
        drop(frame);
    }
}

#[test]
fn no_input_makes_the_wire_path_hold_more_than_a_multiple_of_its_length() {
    let fixtures = common::fixtures();

    // The shown defect: an EdgeCombined whose n_entries (offset 52, after
    // edge_id + round + 11 counters) claims a million 69-byte entries in
    // front of 1 MiB of zeros. Sizing from that count reserved ~100 MB.
    let (_, bare) = fixtures
        .iter()
        .find(|(name, _)| *name == "edge_bare")
        .expect("edge_bare fixture");
    let mut hostile = bare.clone();
    hostile[52..56].copy_from_slice(&1_000_000u32.to_le_bytes());
    hostile.resize(1 << 20, 0);
    assert_bounded("EdgeCombined claiming 1M entries", hostile.len(), || {
        assert!(common::decode_as("edge_bare", &hostile).is_err());
    });
    // Same shape one level down: the first real entry's n_frames (its
    // last field, 65 bytes in) claims a million frames.
    let (_, framed) = fixtures
        .iter()
        .find(|(name, _)| *name == "edge_frames")
        .expect("edge_frames fixture");
    let mut hostile = framed.clone();
    hostile[56 + 65..56 + 69].copy_from_slice(&1_000_000u32.to_le_bytes());
    hostile.resize(1 << 20, 0);
    assert_bounded("EdgeEntry claiming 1M frames", hostile.len(), || {
        assert!(common::decode_as("edge_frames", &hostile).is_err());
    });

    // Mutated-valid: every fixture, every mutation kind, every offset,
    // hostile and plausible values — through its own decoder and through
    // the frame reader.
    for (name, valid) in &fixtures {
        assert_bounded(name, valid.len(), || {
            common::decode_as(name, valid).expect("fixtures are valid");
        });
        for kind in 0..4u8 {
            for at in 0..valid.len().max(1) {
                for value in [u32::MAX, 0x7FFF_FFFF, 0x0100_0000, valid.len() as u32, 1] {
                    let input = common::mutate(valid, kind, at, value);
                    assert_bounded(name, input.len(), || {
                        let _ = common::decode_as(name, &input);
                    });
                    assert_bounded("FrameReader::poll", input.len(), || {
                        drain_frame_reader(&input);
                    });
                }
            }
        }
    }

    // Arbitrary bytes through every decoder (xorshift; no corpus).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..2000usize {
        let input: Vec<u8> = (0..round % 257)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for (name, _) in &fixtures {
            assert_bounded(name, input.len(), || {
                let _ = common::decode_as(name, &input);
            });
        }
        assert_bounded("FrameReader::poll", input.len(), || {
            drain_frame_reader(&input)
        });
    }
}
