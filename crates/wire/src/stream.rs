//! Streaming frame I/O over `io::Read` / `io::Write`.
//!
//! [`seal`](crate::envelope::seal) and [`open`](crate::envelope::open)
//! operate on complete in-memory frames; a TCP stream delivers bytes in
//! arbitrary fragments with no record boundaries. This module bridges the
//! two: [`write_frame`] pushes a sealed frame onto any [`Write`] sink, and
//! [`read_frame`] reassembles exactly one frame from any [`Read`] source —
//! tolerating short reads, split delivery, and back-to-back frames on the
//! same stream.
//!
//! Safety property: the advertised payload length is validated against a
//! caller-supplied cap *before* any allocation, so a corrupt (or hostile)
//! length header cannot trigger an unbounded allocation. The header's
//! magic, version and tag are also checked before the payload is read,
//! failing fast on garbage streams. The CRC is *not* checked here — the
//! returned buffer is a complete frame meant to be handed to
//! [`open`](crate::envelope::open), which performs the full validation
//! exactly once.

use std::io::{self, Read, Write};

use crate::envelope::{parse_header, HEADER_LEN};
use crate::error::WireError;

/// Default cap on a single frame's payload, in bytes.
///
/// Generous for this workload: the largest legitimate frame is a dense
/// f32 model broadcast (a few MB for the synthetic VGG-ish models), so
/// 64 MiB leaves two orders of magnitude of headroom while still bounding
/// what a flipped length bit can make a receiver allocate.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Failure while reading or writing a frame on a byte stream.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying transport failed (connection reset, timeout, …).
    Io(io::Error),
    /// The stream ended or delivered bytes that violate the envelope
    /// (bad magic/version/tag, or EOF in the middle of a frame).
    Wire(WireError),
    /// The header advertised a payload larger than the caller's cap.
    /// Nothing was allocated; the stream is left mid-frame and should be
    /// closed.
    Oversized {
        /// Payload length the header advertised.
        advertised: usize,
        /// Cap the caller imposed.
        max: usize,
    },
}

impl StreamError {
    /// Whether this failure is consistent with transport damage or loss
    /// (as opposed to a peer speaking invalid structure on a healthy
    /// connection). Mirrors [`WireError::is_transport_corruption`].
    pub fn is_transport_corruption(&self) -> bool {
        match self {
            StreamError::Io(_) => true,
            StreamError::Wire(w) => w.is_transport_corruption(),
            StreamError::Oversized { .. } => true,
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Wire(e) => write!(f, "stream frame error: {e}"),
            StreamError::Oversized { advertised, max } => {
                write!(
                    f,
                    "frame payload of {advertised} bytes exceeds the {max}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Wire(e) => Some(e),
            StreamError::Oversized { .. } => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<WireError> for StreamError {
    fn from(e: WireError) -> Self {
        StreamError::Wire(e)
    }
}

/// Write one sealed frame to `w`.
///
/// Frames are self-delimiting (the header carries the payload length), so
/// no extra length prefix is added. The sink is flushed so a frame handed
/// to a buffered writer is actually on the wire when this returns — round
/// barriers depend on that.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Read exactly one complete frame from `r`, or `None` on a clean EOF at
/// a frame boundary: one blocking drive of a [`FrameReader`], so frames
/// are assembled (and their headers validated, see
/// [`FrameReader::poll`]) by one loop.
///
/// The returned buffer is the *entire* frame (header + payload), ready
/// for [`open`](crate::envelope::open). EOF in the middle of a frame maps
/// to [`WireError::Truncated`]; a read timeout or reset surfaces as
/// [`StreamError::Io`] with the underlying [`io::ErrorKind`]
/// (`WouldBlock`/`TimedOut` for socket deadlines).
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Option<Vec<u8>>, StreamError> {
    match FrameReader::new(max_payload).poll(r)? {
        FramePoll::Frame(frame) => Ok(Some(frame)),
        FramePoll::Eof => Ok(None),
        // A blocking source only says `WouldBlock` when its read
        // deadline expired; the partial frame is lost with the reader.
        FramePoll::Pending => Err(StreamError::Io(io::ErrorKind::WouldBlock.into())),
    }
}

/// Outcome of one [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum FramePoll {
    /// One complete frame (header + payload), ready for
    /// [`open`](crate::envelope::open). The reader is back at a frame
    /// boundary — poll again to drain further buffered frames.
    Frame(Vec<u8>),
    /// The source has no bytes available right now (`WouldBlock`); the
    /// partial frame stays buffered for the next poll.
    Pending,
    /// Clean EOF on a frame boundary — the peer closed between frames.
    Eof,
}

/// Incremental frame assembly — the one loop behind [`read_frame`] and
/// every non-blocking connection.
///
/// [`read_frame`] parks the calling thread until a whole frame arrives —
/// fine for one connection, fatal for a coordinator multiplexing
/// thousands. A `FrameReader` instead *accumulates*: each
/// [`poll`](FrameReader::poll) consumes whatever bytes the source has
/// (designed for sockets in non-blocking mode), buffers a partial frame
/// across calls, and yields [`FramePoll::Frame`] the moment one
/// completes. One reader per connection; a readiness loop sweeps them.
///
/// Validation, the moment the header completes and *before* the payload
/// buffer is grown: magic (fail fast on a stream that is not speaking
/// this protocol), version, tag, then the advertised length against the
/// cap — the bounded-allocation guarantee. EOF mid-frame maps to
/// [`WireError::Truncated`]; EOF on a boundary is [`FramePoll::Eof`].
#[derive(Debug)]
pub struct FrameReader {
    max_payload: usize,
    /// Sized to what is being assembled: the header until it has been
    /// parsed, then the whole frame.
    buf: Vec<u8>,
    /// Bytes of `buf` received so far.
    filled: usize,
    header_parsed: bool,
}

impl FrameReader {
    /// A reader enforcing `max_payload` on every frame it assembles.
    pub fn new(max_payload: usize) -> Self {
        FrameReader {
            max_payload,
            buf: Vec::new(),
            filled: 0,
            header_parsed: false,
        }
    }

    /// Bytes buffered towards the current frame.
    pub fn buffered(&self) -> usize {
        self.filled
    }

    /// Advance frame assembly with whatever `r` can deliver.
    ///
    /// Call in a loop to drain back-to-back frames: each `Frame` return
    /// resets the reader to the next boundary. `Pending` means the
    /// source returned `WouldBlock`; errors poison the stream (the
    /// caller should drop the connection — resynchronising inside a
    /// byte stream is not possible).
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<FramePoll, StreamError> {
        loop {
            if self.buf.len() < HEADER_LEN {
                self.buf.resize(HEADER_LEN, 0);
            }
            if self.filled < self.buf.len() {
                match r.read(&mut self.buf[self.filled..]) {
                    Ok(0) if self.filled == 0 => return Ok(FramePoll::Eof),
                    Ok(0) => {
                        return Err(WireError::Truncated {
                            needed: self.buf.len(),
                            available: self.filled,
                        }
                        .into())
                    }
                    Ok(n) => self.filled += n,
                    Err(e) => match e.kind() {
                        io::ErrorKind::Interrupted => {}
                        io::ErrorKind::WouldBlock => return Ok(FramePoll::Pending),
                        _ => return Err(e.into()),
                    },
                }
                continue;
            }
            if !self.header_parsed {
                // Header complete: validate before growing the buffer.
                let header = parse_header(&self.buf, self.max_payload, |advertised| {
                    StreamError::Oversized {
                        advertised,
                        max: self.max_payload,
                    }
                })?;
                self.buf.resize(HEADER_LEN + header.payload_len, 0);
                self.header_parsed = true;
                continue;
            }
            // A whole frame is buffered: hand it over and reset.
            self.filled = 0;
            self.header_parsed = false;
            return Ok(FramePoll::Frame(std::mem::take(&mut self.buf)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{open, seal, MsgType};

    #[test]
    fn write_then_read_round_trips() {
        let frame = seal(MsgType::DenseUpdate, b"payload bytes");
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let got = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!(got, frame);
        let (msg, payload) = open(&got).unwrap();
        assert_eq!(msg, MsgType::DenseUpdate);
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cursor = io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cursor, MAX_FRAME_PAYLOAD)
            .unwrap()
            .is_none());
    }

    #[test]
    fn eof_mid_header_is_truncated() {
        let frame = seal(MsgType::Hello, b"hi");
        for cut in 1..HEADER_LEN {
            let mut cursor = io::Cursor::new(frame[..cut].to_vec());
            let err = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, StreamError::Wire(WireError::Truncated { .. })),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn eof_mid_payload_is_truncated() {
        let frame = seal(MsgType::Hello, b"hello world");
        for cut in HEADER_LEN..frame.len() {
            let mut cursor = io::Cursor::new(frame[..cut].to_vec());
            let err = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, StreamError::Wire(WireError::Truncated { .. })),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn oversized_header_rejected_before_allocation() {
        // A frame whose length field claims just over the cap: read_frame
        // must refuse without attempting the allocation.
        let mut frame = seal(MsgType::DenseModel, &[0u8; 8]);
        let cap = 4;
        frame[8..12].copy_from_slice(&(cap as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(frame);
        match read_frame(&mut cursor, cap) {
            Err(StreamError::Oversized { advertised, max }) => {
                assert_eq!(advertised, cap + 1);
                assert_eq!(max, cap);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn hostile_length_header_cannot_trigger_unbounded_allocation() {
        // u32::MAX advertised payload against the default cap: must fail
        // fast instead of allocating 4 GiB.
        let mut frame = seal(MsgType::DenseModel, b"x");
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_PAYLOAD),
            Err(StreamError::Oversized { .. })
        ));
    }

    #[test]
    fn bad_magic_fails_before_payload_read() {
        let mut frame = seal(MsgType::DenseModel, b"abc");
        frame[0] = b'X';
        let mut cursor = io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_PAYLOAD),
            Err(StreamError::Wire(WireError::BadMagic(_)))
        ));
    }

    /// A source that yields its script one chunk per read, interleaving
    /// `WouldBlock` between chunks — the shape of a non-blocking socket.
    struct Chunked {
        chunks: Vec<Vec<u8>>,
        next: usize,
        blocked: bool,
    }

    impl Chunked {
        fn new(bytes: &[u8], chunk: usize) -> Self {
            Chunked {
                chunks: bytes.chunks(chunk.max(1)).map(<[u8]>::to_vec).collect(),
                next: 0,
                blocked: false,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not ready"));
            }
            self.blocked = false;
            match self.chunks.get(self.next) {
                None => Ok(0),
                Some(c) => {
                    let n = c.len().min(buf.len());
                    buf[..n].copy_from_slice(&c[..n]);
                    if n == c.len() {
                        self.next += 1;
                    } else {
                        self.chunks[self.next].drain(..n);
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Drive a reader over a chunked source to completion, counting the
    /// `Pending` returns along the way.
    fn poll_all(src: &mut Chunked, reader: &mut FrameReader) -> (Vec<Vec<u8>>, usize) {
        let mut frames = Vec::new();
        let mut pendings = 0;
        loop {
            match reader.poll(src).unwrap() {
                FramePoll::Frame(f) => frames.push(f),
                FramePoll::Pending => pendings += 1,
                FramePoll::Eof => return (frames, pendings),
            }
        }
    }

    #[test]
    fn frame_reader_reassembles_split_delivery() {
        let a = seal(MsgType::RoundAssign, b"round 7");
        let b = seal(MsgType::DenseUpdate, &vec![0xAB; 301]);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&a);
        bytes.extend_from_slice(&b);
        for chunk in [1, 3, HEADER_LEN, 64, bytes.len()] {
            let mut src = Chunked::new(&bytes, chunk);
            let mut reader = FrameReader::new(MAX_FRAME_PAYLOAD);
            let (frames, pendings) = poll_all(&mut src, &mut reader);
            assert_eq!(frames, vec![a.clone(), b.clone()], "chunk {chunk}");
            assert!(pendings > 0, "the source interleaves WouldBlock");
            assert_eq!(reader.buffered(), 0, "boundary after a clean drain");
        }
    }

    #[test]
    fn frame_reader_agrees_with_blocking_read_frame() {
        let frame = seal(MsgType::ScaffoldUpdate, b"pairs");
        let mut cursor = io::Cursor::new(frame.clone());
        let blocking = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        let mut src = Chunked::new(&frame, 5);
        let mut reader = FrameReader::new(MAX_FRAME_PAYLOAD);
        let (frames, _) = poll_all(&mut src, &mut reader);
        assert_eq!(frames, vec![blocking]);
    }

    #[test]
    fn frame_reader_eof_mid_frame_is_truncated() {
        let frame = seal(MsgType::Hello, b"hello world");
        for cut in 1..frame.len() {
            let mut src = Chunked::new(&frame[..cut], 4);
            let mut reader = FrameReader::new(MAX_FRAME_PAYLOAD);
            let err = loop {
                match reader.poll(&mut src) {
                    Ok(FramePoll::Pending) => {}
                    Ok(other) => panic!("cut at {cut} gave {other:?}"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, StreamError::Wire(WireError::Truncated { .. })),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn frame_reader_rejects_oversized_before_allocation() {
        let mut frame = seal(MsgType::DenseModel, &[0u8; 8]);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut src = Chunked::new(&frame, 3);
        let mut reader = FrameReader::new(MAX_FRAME_PAYLOAD);
        let err = loop {
            match reader.poll(&mut src) {
                Ok(FramePoll::Pending) => {}
                Ok(other) => panic!("expected Oversized, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StreamError::Oversized { .. }), "{err:?}");
        assert!(
            reader.buffered() <= HEADER_LEN,
            "nothing beyond the header may be allocated"
        );
    }

    #[test]
    fn frame_reader_clean_eof_between_frames() {
        let frame = seal(MsgType::Shutdown, b"");
        let mut src = Chunked::new(&frame, frame.len());
        let mut reader = FrameReader::new(MAX_FRAME_PAYLOAD);
        let (frames, _) = poll_all(&mut src, &mut reader);
        assert_eq!(frames, vec![frame]);
    }

    #[test]
    fn back_to_back_frames_on_one_stream() {
        let a = seal(MsgType::RoundAssign, b"round 0");
        let b = seal(MsgType::DenseModel, b"weights");
        let c = seal(MsgType::Shutdown, b"");
        let mut buf = Vec::new();
        for f in [&a, &b, &c] {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap().unwrap(),
            a
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap().unwrap(),
            b
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap().unwrap(),
            c
        );
        assert!(read_frame(&mut cursor, MAX_FRAME_PAYLOAD)
            .unwrap()
            .is_none());
    }
}
