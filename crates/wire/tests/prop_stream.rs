//! Property tests for the streaming frame reader: short reads, arbitrary
//! fragmentation, back-to-back frames on one stream, hostile length
//! headers staying inside the allocation bound, and mutated-valid streams
//! reading the same through the blocking and the polled front.

mod common;

use std::io::{self, Read};

use proptest::prelude::*;
use spatl_wire::{
    encode_dense, open, read_frame, seal, write_frame, FramePoll, FrameReader, MsgType,
    StreamError, WireError, HEADER_LEN, MAX_FRAME_PAYLOAD,
};

/// A reader that delivers its buffer in chunks whose sizes cycle through
/// a caller-chosen pattern — the worst-case fragmented TCP delivery.
/// Chunk size 0 entries are skipped (a `Read` returning 0 means EOF, not
/// "try again").
struct DripReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next_chunk: usize,
}

impl DripReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        DripReader {
            data,
            pos: 0,
            chunks,
            next_chunk: 0,
        }
    }
}

impl Read for DripReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        let step = self.chunks[self.next_chunk % self.chunks.len()].max(1);
        self.next_chunk += 1;
        let n = step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Tags exercised by the session strategy: a mix of data-plane and
/// control-plane message types.
const TAGS: [u8; 6] = [0x01, 0x02, 0x0C, 0x0E, 0x0F, 0x10];

fn frames() -> impl Strategy<Value = Vec<(usize, Vec<f32>)>> {
    // A short session: 1–4 frames of varying type and payload size.
    prop::collection::vec(
        (
            0usize..TAGS.len(),
            prop::collection::vec(-1.0e3f32..1.0e3, 0..33),
        ),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fragmented_delivery_reassembles_every_frame(
        session in frames(),
        chunks in prop::collection::vec(1usize..7, 1..5),
    ) {
        let mut wire_bytes = Vec::new();
        let mut expected = Vec::new();
        for (tag_idx, values) in &session {
            let msg = MsgType::from_tag(TAGS[*tag_idx]).unwrap();
            let frame = seal(msg, &encode_dense(values));
            write_frame(&mut wire_bytes, &frame).unwrap();
            expected.push(frame);
        }
        // However the transport fragments the byte stream, the reader
        // must reassemble exactly the frames that were written, in order,
        // then report a clean EOF.
        let mut r = DripReader::new(wire_bytes, chunks);
        for want in &expected {
            let got = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().unwrap();
            prop_assert_eq!(&got, want);
            prop_assert!(open(&got).is_ok());
        }
        prop_assert!(read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().is_none());
    }

    #[test]
    fn eof_at_any_cut_is_truncated_never_a_panic(
        values in prop::collection::vec(-1.0f32..1.0, 1..17),
        cut_seed in 0usize..1000,
        chunks in prop::collection::vec(1usize..5, 1..4),
    ) {
        let frame = seal(MsgType::DenseUpdate, &encode_dense(&values));
        // Cut strictly inside the frame: every prefix must surface as a
        // Truncated wire error through the stream reader.
        let cut = 1 + cut_seed % (frame.len() - 1);
        let mut r = DripReader::new(frame[..cut].to_vec(), chunks);
        let err = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap_err();
        prop_assert!(
            matches!(err, StreamError::Wire(WireError::Truncated { .. })),
            "cut {} gave {:?}", cut, err
        );
    }

    #[test]
    fn hostile_length_never_allocates_past_the_cap(
        advertised in 0u32..u32::MAX,
        cap in 0usize..4096,
    ) {
        let mut frame = seal(MsgType::DenseModel, &[]);
        frame[8..12].copy_from_slice(&advertised.to_le_bytes());
        let mut r = io::Cursor::new(frame);
        match read_frame(&mut r, cap) {
            Err(StreamError::Oversized { advertised: a, max }) => {
                prop_assert!(a as u64 == advertised as u64 && a > cap);
                prop_assert_eq!(max, cap);
            }
            // Within the cap the reader proceeds to the payload; with an
            // empty buffer behind the header, a non-zero advertised
            // length is a truncation and zero is a clean (CRC-checkable)
            // frame.
            Err(StreamError::Wire(WireError::Truncated { .. })) => {
                prop_assert!(advertised as usize <= cap && advertised > 0);
            }
            Ok(Some(f)) => {
                prop_assert_eq!(advertised, 0);
                prop_assert_eq!(f.len(), HEADER_LEN);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn mutated_streams_read_the_same_blocking_and_polled(
        kind in 0u8..4,
        at in 0usize..4096,
        value in prop_oneof![Just(u32::MAX), Just(0u32), 0u32..u32::MAX, 0u32..64],
        chunks in prop::collection::vec(1usize..7, 1..5),
    ) {
        // A valid three-frame stream built from the golden payloads,
        // then one mutation anywhere in it.
        let mut valid = Vec::new();
        for (name, payload) in common::fixtures() {
            match name {
                "dense" => valid.extend(seal(MsgType::DenseUpdate, &payload)),
                "edge_frames" => valid.extend(seal(MsgType::EdgeCombined, &payload)),
                "unmask_shares" => valid.extend(seal(MsgType::UnmaskShare, &payload)),
                _ => {}
            }
        }
        let stream = common::mutate(&valid, kind, at, value);
        let cap = 1 << 16;

        let mut blocking = Vec::new();
        let mut r = DripReader::new(stream.clone(), chunks.clone());
        let blocking_end = loop {
            match read_frame(&mut r, cap) {
                Ok(Some(f)) => blocking.push(f),
                Ok(None) => break None,
                Err(e) => break Some(format!("{e:?}")),
            }
        };
        let mut polled = Vec::new();
        let mut r = DripReader::new(stream, chunks);
        let mut reader = FrameReader::new(cap);
        let polled_end = loop {
            match reader.poll(&mut r) {
                Ok(FramePoll::Frame(f)) => polled.push(f),
                Ok(FramePoll::Eof) => break None,
                Ok(FramePoll::Pending) => prop_assert!(false, "a blocking source never pends"),
                Err(e) => break Some(format!("{e:?}")),
            }
        };
        prop_assert_eq!(&blocking, &polled);
        prop_assert_eq!(blocking_end, polled_end);
        // Whatever got framed either opens or is rejected, never panics.
        for f in &blocking {
            let _ = open(f);
        }
    }

    #[test]
    fn corrupted_payload_passes_reader_but_fails_open(
        values in prop::collection::vec(-1.0f32..1.0, 1..17),
        pos_seed in 0usize..1000,
        bit in 0u8..8,
    ) {
        // The stream reader only frames; corruption detection is open()'s
        // job. A payload flip must flow through read_frame untouched and
        // then fail the CRC.
        let mut frame = seal(MsgType::DenseUpdate, &encode_dense(&values));
        let pos = HEADER_LEN + pos_seed % (frame.len() - HEADER_LEN);
        frame[pos] ^= 1 << bit;
        let mut r = io::Cursor::new(frame.clone());
        let got = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        prop_assert_eq!(got.clone(), frame);
        prop_assert!(matches!(open(&got), Err(WireError::Crc { .. })));
    }
}
