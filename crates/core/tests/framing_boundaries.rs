//! Boundary tests of the framing layer: frame sizes exactly at and just
//! over `max_frame`, zero-length bodies, truncated length headers, and
//! the edges of reading a stream straight into a `FrameBuffer`.

use protoobf_core::framing::{FrameBuffer, FrameError, FrameReader, FrameWriter, READ_MIN};
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

/// A scripted stream: each `read` call takes the next step, delivering
/// at most that many bytes of `data` (`Ok(0)` once it is spent) or
/// failing with the step's error kind; past the script, reads deliver
/// whatever room they are offered.
struct Scripted {
    data: Vec<u8>,
    at: usize,
    steps: std::vec::IntoIter<Result<usize, std::io::ErrorKind>>,
}

impl Scripted {
    fn new(data: Vec<u8>, steps: Vec<Result<usize, std::io::ErrorKind>>) -> Scripted {
        Scripted { data, at: 0, steps: steps.into_iter() }
    }
}

impl std::io::Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let max = match self.steps.next() {
            Some(Err(kind)) => return Err(kind.into()),
            Some(Ok(max)) => max,
            None => usize::MAX,
        };
        let n = buf.len().min(max).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Reads `src` through `fb` until it ends, popping every frame as soon as
/// it is complete; transient errors are retried.
fn drain(fb: &mut FrameBuffer, src: &mut Scripted) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    loop {
        while let Some(body) = pop(fb).unwrap() {
            frames.push(body);
        }
        match fb.read_from(src) {
            Ok(0) => return frames,
            Ok(_) => {}
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
}

fn bodies() -> Vec<Vec<u8>> {
    [0, 1, 3, READ_MIN - 1, READ_MIN, READ_MIN + 1, 3 * READ_MIN + 7, 70_000]
        .iter()
        .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
        .collect()
}

#[test]
fn read_from_reassembles_one_byte_per_read() {
    let wire: Vec<u8> = bodies().iter().flat_map(|b| frame(b)).collect();
    let steps = vec![Ok(1); wire.len() + 1];
    let mut fb = FrameBuffer::new();
    assert_eq!(drain(&mut fb, &mut Scripted::new(wire, steps)), bodies());
    assert_eq!(fb.pending(), 0);
}

#[test]
fn read_from_resumes_a_frame_across_would_block_and_interrupted() {
    use std::io::ErrorKind::{Interrupted, WouldBlock};
    let bodies = bodies();
    let wire: Vec<u8> = bodies.iter().flat_map(|b| frame(b)).collect();
    // Errors inside a prefix (after 2 bytes), inside a body and between
    // frames; the bytes before each error stay buffered.
    let steps = vec![
        Ok(2),
        Err(WouldBlock),
        Ok(3),
        Err(Interrupted),
        Ok(5),
        Err(WouldBlock),
        Err(Interrupted),
        Ok(READ_MIN),
        Err(WouldBlock),
        Ok(1),
    ];
    let mut fb = FrameBuffer::new();
    assert_eq!(drain(&mut fb, &mut Scripted::new(wire, steps)), bodies);
}

#[test]
fn read_from_takes_several_frames_and_a_partial_in_one_read() {
    let small: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; i as usize * 3]).collect();
    let mut wire: Vec<u8> = small.iter().flat_map(|b| frame(b)).collect();
    let partial = frame(b"the partial frame");
    wire.extend_from_slice(&partial[..9]);
    let whole = wire.len();
    let mut fb = FrameBuffer::new();
    let mut src = Scripted::new(wire, vec![]);
    assert_eq!(fb.read_from(&mut src).unwrap(), whole, "one read takes the burst");
    for body in &small {
        assert_eq!(pop(&mut fb).unwrap().as_ref(), Some(body));
    }
    assert_eq!(pop(&mut fb).unwrap(), None, "the partial frame stays pending");
    assert_eq!(fb.pending(), 9);
    fb.feed(&partial[9..]);
    assert_eq!(pop(&mut fb).unwrap(), Some(b"the partial frame".to_vec()));
}

#[test]
fn read_from_end_of_stream_inside_a_frame_is_truncated() {
    let c = codec();
    let full = frame(b"a body cut short");
    for cut in 1..full.len() {
        let mut r = FrameReader::new(&c, Scripted::new(full[..cut].to_vec(), vec![Ok(1); cut]));
        match r.recv() {
            Err(FrameError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn feed_and_read_from_interleave_on_one_buffer() {
    let bodies = bodies();
    let wire: Vec<u8> = bodies.iter().flat_map(|b| frame(b)).collect();
    let mut fb = FrameBuffer::new();
    let mut got = Vec::new();
    let (mut at, mut turn) = (0, 0usize);
    while at < wire.len() {
        // Alternate a fed chunk and a read of a varying size.
        let n = [1, 7, READ_MIN + 3, 2, 40_000][turn % 5].min(wire.len() - at);
        if turn % 2 == 0 {
            fb.feed(&wire[at..at + n]);
        } else {
            let mut src = &wire[at..at + n];
            let mut read = 0;
            while read < n {
                read += fb.read_from(&mut src).unwrap();
            }
        }
        at += n;
        turn += 1;
        while let Some(body) = pop(&mut fb).unwrap() {
            got.push(body);
        }
    }
    assert_eq!(got, bodies);
    assert_eq!(fb.pending(), 0);
}
