//! Length-prefixed wire format for DataCutter streams over sockets.
//!
//! Every frame is
//!
//! ```text
//! [len: u32 LE] [kind: u8] [stream: u32 LE] [tag: u64 LE] [span: u64 LE] [payload]
//! ```
//!
//! where `len` counts everything after the length word itself. `stream`
//! is the deterministic endpoint id both sides derived from the shared
//! graph description ([`EndpointSpec::id`]), `tag` carries the
//! `DataBuffer` tag so a data frame round-trips without re-encoding,
//! and `span` is the sender's current span id (0 = none) so cross-node
//! stream activity stitches into one causal trace.
//!
//! Frame lengths are **bounded**: a length prefix above
//! [`MAX_PAYLOAD`] + the fixed header is rejected as corrupt *before* any allocation,
//! so a hostile or scrambled peer cannot make the reader allocate
//! gigabytes from a 4-byte header (the `wire-alloc` lint in `xtask`
//! keeps it that way). A clean EOF at a frame boundary is a normal
//! close; EOF inside a frame ("torn frame") is a typed
//! [`GraphStorageError::Net`].
//!
//! [`EndpointSpec::id`]: datacutter::EndpointSpec

use mssg_types::{GraphStorageError, Result};
use std::io::{ErrorKind, Read, Write};

/// Protocol magic in the HELLO payload ("MSSG").
pub const MAGIC: u32 = 0x4D53_5347;

/// Wire protocol version; bumped on any incompatible format change.
/// v2 added the span-id header field, the HELLO trace-context extension,
/// and the `Telemetry` frame kind.
pub const VERSION: u16 = 2;

/// Hard ceiling on a frame's payload (64 MiB) — far above any
/// `DataBuffer` the services emit, far below an allocation bomb.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// Fixed bytes after the length word: kind (1) + stream (4) + tag (8) +
/// span (8).
const FIXED: usize = 21;

/// Total header bytes a frame adds on the wire beyond its payload:
/// the length word plus the fixed fields.
pub const FRAME_OVERHEAD: usize = 4 + FIXED;

/// Frame discriminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Connection handshake: magic, version, sender node, topology hash.
    Hello = 1,
    /// One `DataBuffer` on a logical stream.
    Data = 2,
    /// Returns flow-control credit for a stream to its producer node.
    Credit = 3,
    /// One producer copy finished with a stream (close accounting).
    Close = 4,
    /// The consumer endpoint of a stream is gone ("consumer hung up").
    EpClosed = 5,
    /// Wiring-complete barrier: no Data flows until all peers are ready.
    Ready = 6,
    /// This node's run is complete; a following EOF is a clean close.
    Bye = 7,
    /// A node's serialized `NodeTelemetry` report, shipped to node 0 at
    /// shutdown (sent before BYE so FIFO ordering guarantees arrival).
    Telemetry = 8,
    // Kind 9 is unassigned (it decodes as corruption); the kinds after it
    // keep their numbers, which are the bytes on the wire.
    /// A client query on a serving connection (`mssg-serve`). The
    /// `stream` field carries the client's request id; the payload is a
    /// versioned query encoding (`mssg_serve::proto`).
    Request = 10,
    /// A completed query's answer: same request id, payload carries the
    /// epoch stamp, cache flag, and result.
    Response = 11,
    /// Typed admission rejection (`Overloaded { retry_after }`): same
    /// request id, payload carries the reject code and retry hint.
    Reject = 12,
    /// Typed execution failure: same request id, payload carries the
    /// failure kind and message. Never cached, never retried.
    Failed = 13,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Data),
            3 => Some(FrameKind::Credit),
            4 => Some(FrameKind::Close),
            5 => Some(FrameKind::EpClosed),
            6 => Some(FrameKind::Ready),
            7 => Some(FrameKind::Bye),
            8 => Some(FrameKind::Telemetry),
            10 => Some(FrameKind::Request),
            11 => Some(FrameKind::Response),
            12 => Some(FrameKind::Reject),
            13 => Some(FrameKind::Failed),
            _ => None,
        }
    }
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame discriminator.
    pub kind: FrameKind,
    /// Logical stream (endpoint) id; 0 for connection-level frames.
    pub stream: u32,
    /// `DataBuffer` tag for data frames; 0 otherwise.
    pub tag: u64,
    /// The sender's current span id when the frame was sent (0 = none);
    /// receivers record it as a cross-node flow edge.
    pub span: u64,
    /// Frame payload.
    pub payload: Vec<u8>,
}

/// Decoded HELLO handshake contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloInfo {
    /// Sender's node id.
    pub node: u32,
    /// Sender's topology signature (must match ours).
    pub topology: u64,
    /// Run-wide trace id (must match ours; 0 = tracing off).
    pub trace_id: u64,
    /// Sender's tracer clock at send time, nanoseconds since its epoch
    /// (0 = tracing off). Used to estimate per-peer clock offsets.
    pub now_ns: u64,
}

impl Frame {
    /// A payload-free control frame.
    pub fn control(kind: FrameKind, stream: u32) -> Frame {
        Frame {
            kind,
            stream,
            tag: 0,
            span: 0,
            payload: Vec::new(),
        }
    }

    /// A data frame carrying `payload` on `stream` with the buffer tag.
    pub fn data(stream: u32, tag: u64, payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::Data,
            stream,
            tag,
            span: 0,
            payload: payload.to_vec(),
        }
    }

    /// A serving-plane frame (`Request`/`Response`/`Reject`/`Failed`) carrying
    /// `payload` for request `id`. Payloads above [`MAX_PAYLOAD`] are
    /// refused up front, mirroring [`Frame::telemetry`].
    pub fn serve(kind: FrameKind, id: u32, payload: &[u8]) -> Result<Frame> {
        debug_assert!(matches!(
            kind,
            FrameKind::Request | FrameKind::Response | FrameKind::Reject | FrameKind::Failed
        ));
        if payload.len() > MAX_PAYLOAD {
            return Err(GraphStorageError::Corrupt(format!(
                "{kind:?} payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame ceiling",
                payload.len()
            )));
        }
        Ok(Frame {
            kind,
            stream: id,
            tag: 0,
            span: 0,
            payload: payload.to_vec(),
        })
    }

    /// A credit-return frame granting `amount` slots on `stream`.
    pub fn credit(stream: u32, amount: u32) -> Frame {
        Frame {
            kind: FrameKind::Credit,
            stream,
            tag: 0,
            span: 0,
            payload: amount.to_le_bytes().to_vec(),
        }
    }

    /// Stamps the sender's current span id (builder style).
    pub fn with_span(mut self, span: u64) -> Frame {
        self.span = span;
        self
    }

    /// The handshake frame: magic, version, sender node, topology hash,
    /// run-wide trace id, and the sender's tracer clock (for clock-offset
    /// estimation; 0 when tracing is off).
    pub fn hello(node: u32, topology: u64, trace_id: u64, now_ns: u64) -> Frame {
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC.to_le_bytes());
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&[0, 0]);
        payload.extend_from_slice(&node.to_le_bytes());
        payload.extend_from_slice(&topology.to_le_bytes());
        payload.extend_from_slice(&trace_id.to_le_bytes());
        payload.extend_from_slice(&now_ns.to_le_bytes());
        Frame {
            kind: FrameKind::Hello,
            stream: 0,
            tag: 0,
            span: 0,
            payload,
        }
    }

    /// Decodes a HELLO payload, validating magic and version.
    pub fn parse_hello(&self) -> Result<HelloInfo> {
        if self.kind != FrameKind::Hello || self.payload.len() != 36 {
            return Err(GraphStorageError::Net(format!(
                "expected a 36-byte HELLO, got {:?} with {} bytes",
                self.kind,
                self.payload.len()
            )));
        }
        let p = &self.payload;
        let magic = u32::from_le_bytes(p[0..4].try_into().unwrap());
        let version = u16::from_le_bytes(p[4..6].try_into().unwrap());
        if magic != MAGIC {
            return Err(GraphStorageError::Net(format!(
                "bad handshake magic {magic:#x} (not an mssg-net peer?)"
            )));
        }
        if version != VERSION {
            return Err(GraphStorageError::Net(format!(
                "wire protocol version mismatch: peer speaks v{version}, we speak v{VERSION}"
            )));
        }
        Ok(HelloInfo {
            node: u32::from_le_bytes(p[8..12].try_into().unwrap()),
            topology: u64::from_le_bytes(p[12..20].try_into().unwrap()),
            trace_id: u64::from_le_bytes(p[20..28].try_into().unwrap()),
            now_ns: u64::from_le_bytes(p[28..36].try_into().unwrap()),
        })
    }

    /// A telemetry-report frame carrying a serialized `NodeTelemetry`
    /// JSON document. Reports above [`MAX_PAYLOAD`] are refused as
    /// [`GraphStorageError::Corrupt`] — the receiver would reject the
    /// frame anyway, so the sender fails fast instead of poisoning the
    /// connection.
    pub fn telemetry(report_json: &[u8]) -> Result<Frame> {
        if report_json.len() > MAX_PAYLOAD {
            return Err(GraphStorageError::Corrupt(format!(
                "telemetry report of {} bytes exceeds the {MAX_PAYLOAD}-byte frame ceiling",
                report_json.len()
            )));
        }
        Ok(Frame {
            kind: FrameKind::Telemetry,
            stream: 0,
            tag: 0,
            span: 0,
            payload: report_json.to_vec(),
        })
    }

    /// Decodes a CREDIT payload.
    pub fn parse_credit(&self) -> Result<u32> {
        let bytes: [u8; 4] = self.payload.as_slice().try_into().map_err(|_| {
            GraphStorageError::Corrupt(format!(
                "CREDIT frame with {}-byte payload (want 4)",
                self.payload.len()
            ))
        })?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload.len()
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = (FIXED + self.payload.len()) as u32;
        out.extend_from_slice(&len.to_le_bytes());
        out.push(self.kind as u8);
        out.extend_from_slice(&self.stream.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.span.to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// The encoded frame as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Total on-wire bytes of the frame whose 4-byte length prefix is
/// `header` — the prefix itself plus the declared body length. The wire
/// simulator uses this to track frame boundaries so faults land at exact
/// frame offsets; it never sizes an allocation (the simulator forwards
/// bytes as they arrive).
pub fn declared_frame_len(header: [u8; 4]) -> u64 {
    4 + u64::from(u32::from_le_bytes(header))
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// Writes a data frame with a **borrowed** payload: the 25-byte header is
/// assembled in a stack buffer and the payload bytes go to the writer
/// as-is. This is the hot-path twin of `write_frame(&Frame::data(...))`,
/// which would copy the payload twice (once into the `Frame`, once into
/// the encoded buffer); here it is copied zero times. Callers holding the
/// writer lock get the same frame atomicity either way.
pub fn write_data_frame(
    w: &mut impl Write,
    stream: u32,
    tag: u64,
    span: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut header = [0u8; FRAME_OVERHEAD];
    header[0..4].copy_from_slice(&((FIXED + payload.len()) as u32).to_le_bytes());
    header[4] = FrameKind::Data as u8;
    header[5..9].copy_from_slice(&stream.to_le_bytes());
    header[9..17].copy_from_slice(&tag.to_le_bytes());
    header[17..25].copy_from_slice(&span.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` on a clean EOF at a frame boundary;
/// [`GraphStorageError::Net`] on a torn frame or truncated stream;
/// [`GraphStorageError::Corrupt`] on an oversized length prefix or an
/// unknown frame kind.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        Eof::Clean => return Ok(None),
        Eof::Torn => {
            return Err(GraphStorageError::Net(
                "torn frame: EOF inside a length prefix".into(),
            ))
        }
        Eof::No => {}
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    // Clamp the wire-provided length BEFORE allocating: an oversized
    // prefix is corruption (or hostility), not an allocation request.
    if len < FIXED || len - FIXED > MAX_PAYLOAD {
        return Err(GraphStorageError::Corrupt(format!(
            "frame length {len} outside [{FIXED}, {}]",
            FIXED + MAX_PAYLOAD
        )));
    }
    let mut head = [0u8; FIXED];
    r.read_exact(&mut head).map_err(|e| {
        GraphStorageError::Net(format!("truncated stream: EOF inside a frame header: {e}"))
    })?;
    let kind = FrameKind::from_u8(head[0])
        .ok_or_else(|| GraphStorageError::Corrupt(format!("unknown frame kind {:#x}", head[0])))?;
    let stream = u32::from_le_bytes(head[1..5].try_into().unwrap());
    let tag = u64::from_le_bytes(head[5..13].try_into().unwrap());
    let span = u64::from_le_bytes(head[13..21].try_into().unwrap());
    // The payload Vec is exactly what the frame carries — no whole-body
    // scratch buffer plus a second copy of the payload slice. `len` was
    // range-checked above; the clamp re-asserts the bound at the
    // allocation site.
    let mut payload = vec![0u8; (len - FIXED).min(MAX_PAYLOAD)];
    r.read_exact(&mut payload).map_err(|e| {
        GraphStorageError::Net(format!("truncated stream: EOF inside a frame body: {e}"))
    })?;
    Ok(Some(Frame {
        kind,
        stream,
        tag,
        span,
        payload,
    }))
}

enum Eof {
    No,
    Clean,
    Torn,
}

/// `read_exact` that distinguishes EOF-before-any-byte (clean close)
/// from EOF-mid-buffer (torn frame).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<Eof> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 { Eof::Clean } else { Eof::Torn });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(GraphStorageError::Net(format!("socket read failed: {e}")));
            }
        }
    }
    Ok(Eof::No)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn data_frame_round_trips() {
        let f = Frame::data(7, 0xDEAD_BEEF, b"hello").with_span(41);
        let mut cur = Cursor::new(f.encode());
        let back = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(back, f);
        assert_eq!(back.span, 41);
        assert_eq!(f.wire_len(), 4 + 21 + 5);
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF after");
    }

    #[test]
    fn borrowed_payload_writer_matches_encode() {
        let f = Frame::data(7, 0xDEAD_BEEF, b"hello").with_span(41);
        let mut wire = Vec::new();
        write_data_frame(&mut wire, 7, 0xDEAD_BEEF, 41, b"hello").unwrap();
        assert_eq!(wire, f.encode(), "byte-identical to the copying path");
        let back = read_frame(&mut Cursor::new(wire)).unwrap().unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn hello_round_trips_and_validates() {
        let f = Frame::hello(3, 0x1234_5678_9ABC_DEF0, 77, 123_456);
        let back = read_frame(&mut Cursor::new(f.encode())).unwrap().unwrap();
        assert_eq!(
            back.parse_hello().unwrap(),
            HelloInfo {
                node: 3,
                topology: 0x1234_5678_9ABC_DEF0,
                trace_id: 77,
                now_ns: 123_456,
            }
        );

        let mut wrong = f.clone();
        wrong.payload[0] ^= 0xFF; // break the magic
        assert!(matches!(
            wrong.parse_hello(),
            Err(GraphStorageError::Net(_))
        ));
        let mut newer = f.clone();
        newer.payload[4] = 99; // future version
        let msg = newer.parse_hello().unwrap_err().to_string();
        assert!(msg.contains("version"), "got: {msg}");
    }

    #[test]
    fn credit_round_trips() {
        let f = Frame::credit(9, 42);
        let back = read_frame(&mut Cursor::new(f.encode())).unwrap().unwrap();
        assert_eq!(back.parse_credit().unwrap(), 42);
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut bytes = ((FIXED + MAX_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 32]);
        match read_frame(&mut Cursor::new(bytes)) {
            Err(GraphStorageError::Corrupt(m)) => assert!(m.contains("length"), "got: {m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn undersized_length_prefix_rejected() {
        let bytes = 5u32.to_le_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes)),
            Err(GraphStorageError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_and_truncated_frames_are_net_errors() {
        // EOF inside the length prefix.
        let enc = Frame::data(1, 2, b"abc").encode();
        assert!(matches!(
            read_frame(&mut Cursor::new(&enc[..2])),
            Err(GraphStorageError::Net(_))
        ));
        // EOF inside the body.
        assert!(matches!(
            read_frame(&mut Cursor::new(&enc[..10])),
            Err(GraphStorageError::Net(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut enc = Frame::data(1, 2, b"x").encode();
        enc[4] = 0xEE;
        assert!(matches!(
            read_frame(&mut Cursor::new(enc)),
            Err(GraphStorageError::Corrupt(_))
        ));
    }

    #[test]
    fn serve_frames_round_trip_and_bound_payloads() {
        for kind in [
            FrameKind::Request,
            FrameKind::Response,
            FrameKind::Reject,
            FrameKind::Failed,
        ] {
            let f = Frame::serve(kind, 42, b"query-bytes").unwrap();
            let back = read_frame(&mut Cursor::new(f.encode())).unwrap().unwrap();
            assert_eq!(back, f);
            assert_eq!(back.stream, 42, "request id rides the stream field");
        }
        let huge = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            Frame::serve(FrameKind::Request, 1, &huge),
            Err(GraphStorageError::Corrupt(_))
        ));
    }

    #[test]
    fn telemetry_refuses_oversized_reports() {
        let ok = Frame::telemetry(b"{\"node\":0}").unwrap();
        assert_eq!(ok.kind, FrameKind::Telemetry);
        let huge = vec![b'x'; MAX_PAYLOAD + 1];
        assert!(matches!(
            Frame::telemetry(&huge),
            Err(GraphStorageError::Corrupt(_))
        ));
    }
}
