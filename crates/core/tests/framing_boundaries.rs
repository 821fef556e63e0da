//! Boundary tests of the framing layer: frame sizes exactly at and just
//! over `max_frame`, zero-length bodies, and truncated length headers.

use protoobf_core::framing::{FrameBuffer, FrameError, FrameReader, FrameWriter};
use protoobf_core::graph::{Boundary, GraphBuilder};
use protoobf_core::value::TerminalKind;
use protoobf_core::Codec;

fn codec() -> Codec {
    let mut b = GraphBuilder::new("fb");
    let root = b.root_sequence("m", Boundary::End);
    b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
    Codec::identity(&b.build().unwrap())
}

/// One raw frame: 4-byte big-endian length prefix plus body.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Takes the next complete frame body out of `fb` through `peek` +
/// `consume`, the way event-driven callers drain it.
fn pop(fb: &mut FrameBuffer) -> Result<Option<Vec<u8>>, FrameError> {
    let body = fb.peek()?.map(<[u8]>::to_vec);
    if body.is_some() {
        fb.consume();
    }
    Ok(body)
}

#[test]
fn writer_accepts_exactly_max_frame_and_rejects_one_more() {
    let c = codec();
    let mut out = Vec::new();
    let mut w = FrameWriter::new(&c, &mut out).max_frame(8);
    w.send_raw(&[0xAA; 8]).expect("a body of exactly max_frame is legal");
    match w.send_raw(&[0xAA; 9]) {
        Err(FrameError::TooLarge { limit: 8, got: 9 }) => {}
        other => panic!("one byte over the limit must be TooLarge, got {other:?}"),
    }
}

#[test]
fn reader_accepts_exactly_max_frame_and_rejects_one_more() {
    let c = codec();
    let at_limit = frame(&[0x42; 8]);
    let mut r = FrameReader::new(&c, at_limit.as_slice()).max_frame(8);
    let m = r.recv().unwrap().expect("frame present");
    assert_eq!(m.get("body").unwrap().as_bytes(), [0x42; 8]);

    let over = frame(&[0x42; 9]);
    let mut r = FrameReader::new(&c, over.as_slice()).max_frame(8);
    match r.recv() {
        Err(FrameError::TooLarge { limit: 8, got: 9 }) => {}
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn frame_buffer_boundary_at_and_over_limit() {
    let mut fb = FrameBuffer::new().max_frame(8);
    fb.feed(&frame(&[1; 8]));
    assert_eq!(pop(&mut fb).unwrap(), Some(vec![1; 8]), "at the limit pops cleanly");
    fb.feed(&frame(&[1; 9]));
    assert!(matches!(pop(&mut fb), Err(FrameError::TooLarge { limit: 8, got: 9 })));
}

#[test]
fn zero_length_bodies_are_framed_and_recovered() {
    let c = codec();
    // Writer side: a zero-length raw body is a legal frame.
    let mut out = Vec::new();
    FrameWriter::new(&c, &mut out).send_raw(&[]).unwrap();
    assert_eq!(out, frame(&[]));

    // Reader side: the empty frame is delivered (here the codec accepts an
    // empty body because the spec is a single End-bounded field).
    let mut r = FrameReader::new(&c, out.as_slice());
    let m = r.recv().unwrap().expect("empty frame present");
    assert_eq!(m.get("body").unwrap().as_bytes(), b"");
    assert!(r.recv().unwrap().is_none(), "clean EOF after the empty frame");

    // Two adjacent empty frames do not desynchronize reassembly.
    let mut fb = FrameBuffer::new();
    fb.feed(&[frame(&[]), frame(&[])].concat());
    assert_eq!(pop(&mut fb).unwrap(), Some(Vec::new()));
    assert_eq!(pop(&mut fb).unwrap(), Some(Vec::new()));
    assert_eq!(fb.pending(), 0);
}

#[test]
fn truncated_header_regression() {
    // Regression: a stream ending inside the 4-byte length prefix must be
    // Truncated (EOF mid-header), never a clean EOF and never a hang —
    // for every possible cut.
    let c = codec();
    let full = frame(b"xyz");
    for cut in 1..4 {
        let mut r = FrameReader::new(&c, &full[..cut]);
        match r.recv() {
            Err(FrameError::Truncated) => {}
            other => panic!("header cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    // A partial header buffered in a FrameBuffer simply stays pending.
    let mut fb = FrameBuffer::new();
    fb.feed(&full[..3]);
    assert_eq!(pop(&mut fb).unwrap(), None);
    assert_eq!(fb.pending(), 3);
    fb.feed(&full[3..]);
    assert_eq!(pop(&mut fb).unwrap(), Some(b"xyz".to_vec()));
}
