//! Property tests for the wire framing: arbitrary `DataBuffer`s and
//! `Edge` blocks must round-trip bit-exactly through the frame codec,
//! and every way a byte stream can lie about itself — torn frames,
//! truncated streams, oversized length prefixes — must be rejected with
//! a typed error, never an allocation bomb or a silent misparse.

use datacutter::DataBuffer;
use mssg_net::wire::{read_frame, write_frame, Frame, FrameKind, FRAME_OVERHEAD, MAX_PAYLOAD};
use mssg_types::{Edge, GraphStorageError};
use proptest::prelude::*;
use std::io::Cursor;

proptest! {
    #[test]
    fn random_data_buffers_roundtrip(
        stream in any::<u32>(),
        tag in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let buf = DataBuffer::new(tag, payload.clone());
        let frame = Frame::data(stream, buf.tag, &buf.data);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        prop_assert_eq!(wire.len(), FRAME_OVERHEAD + payload.len());

        let mut cur = Cursor::new(wire);
        let back = read_frame(&mut cur).unwrap().expect("one frame");
        prop_assert_eq!(back.kind, FrameKind::Data);
        prop_assert_eq!(back.stream, stream);
        prop_assert_eq!(back.tag, tag);
        prop_assert_eq!(&back.payload, &payload);
        // The stream ends exactly at the frame boundary: clean EOF.
        prop_assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn edge_blocks_roundtrip(
        stream in any::<u32>(),
        raw in prop::collection::vec((0u64..(1 << 61), 0u64..(1 << 61)), 0..256),
    ) {
        let edges: Vec<Edge> = raw.iter().map(|&(s, d)| Edge::of(s, d)).collect();
        let buf = DataBuffer::from_edges(7, &edges);
        let frame = Frame::data(stream, buf.tag, &buf.data);
        let back = read_frame(&mut Cursor::new(frame.encode())).unwrap().unwrap();
        let decoded: Vec<Edge> = DataBuffer::new(back.tag, back.payload)
            .try_edges()
            .unwrap()
            .collect();
        prop_assert_eq!(decoded, edges);
    }

    #[test]
    fn back_to_back_frames_keep_their_boundaries(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..16),
    ) {
        let mut wire = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            Frame::data(i as u32, i as u64, p).encode_into(&mut wire);
        }
        let mut cur = Cursor::new(wire);
        for (i, p) in payloads.iter().enumerate() {
            let f = read_frame(&mut cur).unwrap().expect("frame");
            prop_assert_eq!(f.stream, i as u32);
            prop_assert_eq!(&f.payload, p);
        }
        prop_assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn torn_frames_are_typed_net_errors(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        cut_pick in any::<u64>(),
    ) {
        // Cut anywhere strictly inside the encoded frame.
        let enc = Frame::data(3, 9, &payload).encode();
        let cut = 1 + (cut_pick % (enc.len() as u64 - 1)) as usize;
        match read_frame(&mut Cursor::new(&enc[..cut])) {
            Err(GraphStorageError::Net(_)) => {}
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    #[test]
    fn oversized_length_prefixes_rejected_without_allocating(
        excess in 1u64..(u32::MAX as u64 >> 8),
        noise in any::<u64>(),
    ) {
        // A 4-byte header claiming a body beyond MAX_PAYLOAD must fail
        // before the reader trusts it with an allocation.
        let len = (FRAME_OVERHEAD - 4 + MAX_PAYLOAD) as u64 + excess;
        let mut wire = ((len.min(u32::MAX as u64)) as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&noise.to_le_bytes());
        match read_frame(&mut Cursor::new(wire)) {
            Err(GraphStorageError::Corrupt(m)) => prop_assert!(m.contains("length"), "msg: {}", m),
            other => prop_assert!(false, "got {:?}", other),
        }
    }

    #[test]
    fn corrupted_kind_bytes_never_misparse(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        // Kinds 1..=8 (transport) and 10..=13 (serving plane) are
        // assigned; everything else, 9 included, must be refused as Corrupt.
        bad_kind in any::<u8>().prop_filter("unassigned kind", |k| {
            !(1..=8).contains(k) && !(10..=13).contains(k)
        }),
    ) {
        let mut enc = Frame::data(1, 2, &payload).encode();
        enc[4] = bad_kind; // kind byte lives right after the length word
        match read_frame(&mut Cursor::new(enc)) {
            Err(GraphStorageError::Corrupt(m)) => prop_assert!(m.contains("kind"), "msg: {}", m),
            other => prop_assert!(false, "got {:?}", other),
        }
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_the_frame_decoder(
        soup in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Whatever the wire says, the decoder answers Ok or a typed
        // error — never a panic, never an allocation sized by the soup.
        let mut cur = Cursor::new(&soup);
        loop {
            match read_frame(&mut cur) {
                Ok(None) => break,                   // clean EOF
                Ok(Some(_)) => {}                    // soup happened to frame-align
                Err(GraphStorageError::Net(_)) | Err(GraphStorageError::Corrupt(_)) => break,
                Err(other) => prop_assert!(false, "untyped decode failure: {:?}", other),
            }
        }
    }

    #[test]
    fn single_bit_flips_decode_or_fail_typed(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut enc = Frame::data(5, 11, &payload).encode();
        let at = (byte_pick % enc.len() as u64) as usize;
        enc[at] ^= 1 << bit;
        // A flipped length prefix may leave the stream torn (Net), claim
        // an insane size (Corrupt), or still parse; all are acceptable —
        // a panic or a misparse that *grows* the frame is not.
        match read_frame(&mut Cursor::new(enc)) {
            Ok(Some(f)) => prop_assert!(f.payload.len() <= payload.len() + (1 << bit)),
            Ok(None) => {}
            Err(GraphStorageError::Net(_)) | Err(GraphStorageError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "untyped decode failure: {:?}", other),
        }
    }

    #[test]
    fn control_payload_parsers_reject_soup_typed(
        soup in prop::collection::vec(any::<u8>(), 0..64),
        stream in any::<u32>(),
        tag in any::<u64>(),
    ) {
        // parse_hello / parse_credit on a frame whose payload is
        // arbitrary bytes: a typed error or a successful parse, never a
        // panic.
        let frame = Frame {
            kind: FrameKind::Hello,
            stream,
            tag,
            span: 0,
            payload: soup,
        };
        for outcome in [
            frame.parse_hello().map(|_| ()),
            frame.parse_credit().map(|_| ()),
        ] {
            if let Err(e) = outcome {
                prop_assert!(
                    matches!(
                        e,
                        GraphStorageError::Corrupt(_)
                            | GraphStorageError::Net(_)
                            | GraphStorageError::Unsupported(_)
                    ),
                    "untyped parse failure: {:?}", e
                );
            }
        }
    }

    #[test]
    fn telemetry_frames_roundtrip_with_span_ids(
        report in prop::collection::vec(any::<u8>(), 0..4096),
        span in any::<u64>(),
    ) {
        let frame = Frame::telemetry(&report).unwrap().with_span(span);
        let back = read_frame(&mut Cursor::new(frame.encode())).unwrap().unwrap();
        prop_assert_eq!(back.kind, FrameKind::Telemetry);
        prop_assert_eq!(back.span, span);
        prop_assert_eq!(&back.payload, &report);
    }
}

#[test]
fn oversized_telemetry_reports_are_rejected_as_corrupt() {
    // Just over the payload ceiling: the constructor must refuse rather
    // than let the peer's reader kill the connection on a huge frame.
    let report = vec![0u8; MAX_PAYLOAD + 1];
    match Frame::telemetry(&report) {
        Err(GraphStorageError::Corrupt(m)) => {
            assert!(m.contains("telemetry"), "msg: {m}")
        }
        other => panic!("oversized report gave {other:?}"),
    }
    assert!(Frame::telemetry(&vec![0u8; 1024]).is_ok());
}

#[test]
fn unassigned_kind_nine_is_refused_as_corrupt() {
    let mut enc = Frame::data(1, 2, b"payload").encode();
    enc[4] = 9;
    match read_frame(&mut Cursor::new(enc)) {
        Err(GraphStorageError::Corrupt(m)) => assert!(m.contains("kind"), "msg: {m}"),
        other => panic!("kind 9 gave {other:?}"),
    }
}

#[test]
fn truncated_stream_mid_length_prefix_is_torn() {
    let enc = Frame::data(1, 1, b"abcd").encode();
    for cut in 1..4 {
        assert!(matches!(
            read_frame(&mut Cursor::new(&enc[..cut])),
            Err(GraphStorageError::Net(_))
        ));
    }
}
