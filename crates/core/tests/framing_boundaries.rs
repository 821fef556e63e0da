//! Boundary tests of the framing layer: frame sizes exactly at and just
//! over `max_frame`, zero-length bodies, truncated length headers, and
//! the edges of reading a stream straight into a `FrameBuffer`.

use protoobf_core::framing::{append_frame, FrameBuffer, FrameError, READ_MIN};
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
fn append_frame_accepts_exactly_max_frame_and_rejects_one_more() {
    let c = codec();
    let mut session = c.serializer();
    let mut msg = c.message();
    let mut out = frame(b"an earlier frame");
    msg.set("body", vec![0xAA; 8]).unwrap();
    append_frame(&mut session, &msg, &mut out, 8).expect("a body of exactly max_frame is legal");
    let framed = [frame(b"an earlier frame"), frame(&[0xAA; 8])].concat();
    assert_eq!(out, framed);
    msg.set("body", vec![0xAA; 9]).unwrap();
    match append_frame(&mut session, &msg, &mut out, 8) {
        Err(FrameError::TooLarge { limit: 8, got: 9 }) => {}
        other => panic!("one byte over the limit must be TooLarge, got {other:?}"),
    }
    assert_eq!(out, framed, "a rejected frame leaves `out` as it was");
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
    // Writer side: an empty body is a legal frame.
    let mut msg = c.message();
    msg.set("body", Vec::new()).unwrap();
    let mut out = Vec::new();
    append_frame(&mut c.serializer(), &msg, &mut out, 8).unwrap();
    assert_eq!(out, frame(&[]));

    // Reader side: the empty frame is delivered (here the codec accepts an
    // empty body because the spec is a single End-bounded field).
    let mut fb = FrameBuffer::new();
    fb.feed(&out);
    let m = c.parse(fb.peek().unwrap().expect("empty frame present")).unwrap();
    assert_eq!(m.get("body").unwrap().as_bytes(), b"");
    fb.consume();
    assert_eq!(fb.pending(), 0);

    // Two adjacent empty frames do not desynchronize reassembly.
    let mut fb = FrameBuffer::new();
    fb.feed(&[frame(&[]), frame(&[])].concat());
    assert_eq!(pop(&mut fb).unwrap(), Some(Vec::new()));
    assert_eq!(pop(&mut fb).unwrap(), Some(Vec::new()));
    assert_eq!(fb.pending(), 0);
}

#[test]
fn truncated_header_regression() {
    // A partial header buffered in a FrameBuffer stays pending (a
    // connection's end of stream turns it into `Truncated`).
    let full = frame(b"xyz");
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
