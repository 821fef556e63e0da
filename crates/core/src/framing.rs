//! Stream framing: carrying obfuscated messages over byte streams.
//!
//! The paper's protocols run over TCP, where message boundaries must be
//! recovered from a stream. Obfuscated messages cannot rely on their own
//! delimiters (that is the point), so deployments frame them with an outer
//! length prefix — which leaks nothing beyond what the transport already
//! reveals through segment sizes.
//!
//! [`append_frame`] serializes a message through the caller's session
//! straight into an outbound buffer as one length-prefixed frame, and
//! [`FrameBuffer`] reassembles inbound frames read straight into it
//! ([`FrameBuffer::read_from`]) or fed in chunks, for parsing in place.
//! With one codec session per direction, steady-state streaming does not
//! allocate per message. The frame-size bound defaults to [`MAX_FRAME`];
//! a buffer sets its own ([`FrameBuffer::max_frame`]) and
//! [`append_frame`] takes it per call.

use std::io::{self, Read};

use crate::error::{BuildError, ParseError};
use crate::message::Message;
use crate::parse::ParseSession;
use crate::serialize::SerializeSession;

/// Default maximum frame size (sanity bound against corrupted or hostile
/// length prefixes). Override per buffer with [`FrameBuffer::max_frame`].
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Errors produced by the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The message could not be serialized.
    Build(BuildError),
    /// The framed bytes did not parse under the codec.
    Parse(ParseError),
    /// A frame exceeded the configured size limit.
    TooLarge {
        /// The limit of the rejecting buffer or [`append_frame`] call.
        limit: usize,
        /// The offending frame size.
        got: usize,
    },
    /// The stream ended inside a frame.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Build(e) => write!(f, "serialization error: {e}"),
            FrameError::Parse(e) => write!(f, "parse error: {e}"),
            FrameError::TooLarge { limit, got } => {
                write!(f, "frame of {got} bytes exceeds the limit of {limit}")
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Build(e) => Some(e),
            FrameError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serializes `msg` through an existing session and appends it to `out`
/// as one length-prefixed frame: the body is written straight into `out`
/// after a backfilled 4-byte prefix — no intermediate copy. On error,
/// `out` is left exactly as it was. This is the one framing routine of
/// every outbound frame.
///
/// # Errors
///
/// [`FrameError::Build`] for serialization failures,
/// [`FrameError::TooLarge`] when the body exceeds `max_frame`.
pub fn append_frame(
    session: &mut SerializeSession<'_>,
    msg: &Message<'_>,
    out: &mut Vec<u8>,
    max_frame: usize,
) -> Result<(), FrameError> {
    append_wired_frame(session, msg, &[], out, max_frame)
}

/// [`append_frame`] of an echo's parsed message, whose wired runs lie
/// in the inbound `frame` ([`WireHop`]).
fn append_wired_frame(
    session: &mut SerializeSession<'_>,
    msg: &Message<'_>,
    frame: &[u8],
    out: &mut Vec<u8>,
    max_frame: usize,
) -> Result<(), FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    if let Err(e) = session.serialize_wired(msg, frame, out) {
        out.truncate(start);
        return Err(FrameError::Build(e));
    }
    match frame_len(out.len() - start - 4, max_frame) {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len);
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// One echo of an inbound frame: parse it and append **the parsed
/// message itself** to an outbound queue as one frame, on the same
/// codec. The parse window-checks each element run the plan copies frame
/// to frame ([`crate::plan::CodecPlan::frame_copies`]: plain terminals of
/// a fixed plain width that nothing else reads) and leaves it in the
/// frame, and the serializer's element kernel copies that window into
/// the outbound frame as it is: the table is not gathered into a store
/// and scattered back out. A message re-serialized on the plan that
/// parsed it re-emits what was stored, so the hop's wire, RNG draws and
/// errors are those of [`ParseSession::parse_in_place`] →
/// [`append_frame`] of the parsed message.
///
/// The hop borrows the frame from parse to send. The parsed message
/// holds columns left in the frame only while it lives: dropping the hop
/// clears it, so no other reader ever sees one.
#[derive(Debug)]
pub struct WireHop<'a, 'c> {
    parser: &'a mut ParseSession<'c>,
    frame: &'a [u8],
}

impl<'a, 'c> WireHop<'a, 'c> {
    /// Parses `frame` with `parser`, leaving the runs copied frame to
    /// frame in it.
    ///
    /// # Errors
    ///
    /// The [`ParseError`] of [`ParseSession::parse_in_place`].
    pub fn parse(parser: &'a mut ParseSession<'c>, frame: &'a [u8]) -> Result<Self, ParseError> {
        match parser.parse_wired(frame) {
            Ok(()) => Ok(WireHop { parser, frame }),
            Err(e) => {
                parser.release_wired();
                Err(e)
            }
        }
    }

    /// Appends the parsed message to `out` as one frame, through
    /// `session` (bound to the parser's codec).
    ///
    /// # Errors
    ///
    /// The [`FrameError`] of [`append_frame`].
    pub fn send(
        &mut self,
        session: &mut SerializeSession<'_>,
        out: &mut Vec<u8>,
        max_frame: usize,
    ) -> Result<(), FrameError> {
        append_wired_frame(session, self.parser.message(), self.frame, out, max_frame)
    }
}

impl Drop for WireHop<'_, '_> {
    fn drop(&mut self) {
        self.parser.release_wired();
    }
}

/// The 4-byte length prefix of a `body_len`-byte frame, or
/// [`FrameError::TooLarge`] past `max_frame`. The prefix caps frames at
/// `u32::MAX` even if the configured limit is larger; a truncated prefix
/// would desynchronize the peer.
fn frame_len(body_len: usize, max_frame: usize) -> Result<[u8; 4], FrameError> {
    let limit = max_frame.min(u32::MAX as usize);
    if body_len > limit {
        return Err(FrameError::TooLarge { limit, got: body_len });
    }
    Ok((body_len as u32).to_be_bytes())
}

/// Capacity (bytes) a long-lived [`FrameBuffer`] shrinks back to after an
/// oversized backlog drains.
/// Large enough that typical bulk frames never trigger shrink/regrow
/// churn, small enough that one peer trickling a single near-limit frame
/// cannot pin megabytes per connection forever.
pub const FRAME_BUFFER_RETAIN: usize = 256 * 1024;

/// The least room a [`FrameBuffer::read_from`] offers its `read`, and the
/// most a buffer grows by on the strength of bytes it has not received: a
/// read may grow the buffer to at most `max(READ_MIN, 2 × bytes buffered)`.
pub const READ_MIN: usize = 8 * 1024;

/// Incremental frame reassembly for event-driven code: read a stream
/// straight into the buffer ([`FrameBuffer::read_from`]) or feed it
/// arbitrary chunks ([`FrameBuffer::feed`]), then peek at and consume
/// complete frames.
///
/// The backing vector is initialized storage split by two cursors:
/// `buf[start..end]` holds the received bytes not yet consumed and
/// `buf[end..]` is room kept for the next read. Consumed frames advance
/// `start` instead of memmoving the whole buffer, so draining a burst of
/// pipelined frames is linear in the bytes received, not quadratic; the
/// buffer compacts itself once the drained prefix dominates the live
/// bytes. A read offers all the room the buffer keeps, so once a
/// connection's frames have grown it, each frame lands with no zero fill
/// and no second copy. Capacity is **bounded by what the peer sent**: a
/// read grows the buffer only towards the end of the frame whose length
/// prefix is buffered, at most to twice the bytes buffered (or
/// [`READ_MIN`]), so a hostile prefix alone reserves nothing. A peer that
/// trickles one maximum-size frame grows the buffer to the frame limit,
/// but once that backlog is consumed the buffer shrinks back to
/// [`FRAME_BUFFER_RETAIN`] instead of holding the high-water allocation
/// for the rest of a long-lived gateway connection.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor: bytes before it were consumed and await compaction.
    start: usize,
    /// Fill cursor: bytes from it on are room for the next read.
    end: usize,
    max_frame: usize,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer { buf: Vec::new(), start: 0, end: 0, max_frame: MAX_FRAME }
    }
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Sets the maximum accepted frame size (default [`MAX_FRAME`]).
    pub fn max_frame(mut self, limit: usize) -> Self {
        self.max_frame = limit;
        self
    }

    /// Bytes of backing capacity currently held (buffered + spare).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Room kept behind the buffered bytes: the least the next
    /// [`FrameBuffer::read_from`] offers. Zero right after a read means
    /// that read filled all the room it was offered.
    pub fn spare(&self) -> usize {
        self.buf.len() - self.end
    }

    /// Moves the live bytes to the front of the buffer.
    fn compact(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }

    /// Compacts when the drained prefix is at least as large as the live
    /// tail: amortized O(1) per byte over the buffer's lifetime.
    fn compact_if_drained(&mut self) {
        if self.start > 0 && self.start >= self.end - self.start {
            self.compact();
        }
    }

    /// Appends received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.compact_if_drained();
        let (fits, rest) = chunk.split_at(self.spare().min(chunk.len()));
        self.buf[self.end..self.end + fits.len()].copy_from_slice(fits);
        self.buf.extend_from_slice(rest);
        self.end += chunk.len();
    }

    /// Makes **one** `read` call on `src` straight into the buffer's room
    /// and returns the bytes it delivered (0: end of stream). The read is
    /// offered all the room the buffer keeps. The buffer grows first only
    /// when that room is short of the rest of the frame whose length
    /// prefix is buffered (or of [`READ_MIN`] when no frame is under way),
    /// and then to at most `max(READ_MIN, 2 × bytes buffered)`.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the buffered length prefix exceeds
    /// the limit (checked before reading; the buffer does not grow), and
    /// [`FrameError::Io`] with the `read`'s own error, `WouldBlock` and
    /// `Interrupted` included: the buffered bytes stay, so the caller
    /// retries the same frame.
    pub fn read_from<R: Read + ?Sized>(&mut self, src: &mut R) -> Result<usize, FrameError> {
        let live = self.end - self.start;
        let want = match self.prefix()? {
            Some(len) if 4 + len > live => 4 + len,
            _ => live + READ_MIN,
        };
        let region = want.min(READ_MIN.max(2 * live));
        if self.start > 0 && (self.start >= live || self.buf.len() - self.start < region) {
            self.compact();
        }
        if self.buf.len() - self.start < region {
            let len = self.start + region;
            self.buf.reserve_exact(len - self.buf.len());
            self.buf.resize(len, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Body length announced by the buffered length prefix, if all four
    /// of its bytes are buffered.
    fn prefix(&self) -> Result<Option<usize>, FrameError> {
        let Some(&[a, b, c, d]) = self.buf[self.start..self.end].first_chunk() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([a, b, c, d]) as usize;
        if len > self.max_frame {
            return Err(FrameError::TooLarge { limit: self.max_frame, got: len });
        }
        Ok(Some(len))
    }

    /// Length of the next complete frame's body, or `None` if the buffered
    /// bytes do not yet hold a full frame.
    fn next_len(&self) -> Result<Option<usize>, FrameError> {
        Ok(self.prefix()?.filter(|len| self.end - self.start >= 4 + len))
    }

    /// Borrows the next complete frame body without consuming it — the
    /// copy-free entry point for event-driven parsing: peek, parse in
    /// place, then [`FrameBuffer::consume`].
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when a buffered length prefix exceeds the
    /// limit (the stream should be dropped).
    pub fn peek(&self) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.next_len()?.map(|len| &self.buf[self.start + 4..self.start + 4 + len]))
    }

    /// Consumes the frame last returned by [`FrameBuffer::peek`]. No-op if
    /// no complete frame is buffered.
    pub fn consume(&mut self) {
        if let Ok(Some(len)) = self.next_len() {
            self.start += 4 + len;
            if self.start == self.end {
                self.start = 0;
                self.end = 0;
            }
            self.bound_capacity(4 + len);
        }
    }

    /// Returns an oversized backing allocation to the retained cap once
    /// the traffic that grew it is gone, so a long-lived connection does
    /// not keep paying for one historic burst. The shrink threshold
    /// scales with the frame just consumed: steady traffic of any frame
    /// size keeps its working set (no shrink/regrow churn per message);
    /// only a buffer left several times larger than the current frames —
    /// a drained backlog — is returned, at one realloc per episode.
    fn bound_capacity(&mut self, consumed: usize) {
        let threshold = FRAME_BUFFER_RETAIN.max(4 * consumed);
        if self.buf.capacity() <= threshold || self.pending() > FRAME_BUFFER_RETAIN {
            return;
        }
        self.compact();
        self.buf.truncate(FRAME_BUFFER_RETAIN);
        self.buf.shrink_to(FRAME_BUFFER_RETAIN);
    }

    /// Bytes currently buffered and not yet consumed (complete or partial
    /// frame data).
    pub fn pending(&self) -> usize {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::engine::Obfuscator;
    use crate::graph::{Boundary, GraphBuilder};

    fn codec() -> Codec {
        let mut b = GraphBuilder::new("f");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "id", 2);
        b.terminal(root, "body", crate::value::TerminalKind::Bytes, Boundary::End);
        let g = b.build().unwrap();
        Obfuscator::new(&g).seed(3).max_per_node(2).obfuscate().unwrap()
    }

    fn sample_stream(codec: &Codec, ids: &[u64]) -> Vec<u8> {
        let mut session = codec.serializer();
        let mut out = Vec::new();
        for &id in ids {
            let mut m = codec.message_seeded(id);
            m.set_uint("id", id).unwrap();
            m.set("body", format!("payload {id}").into_bytes()).unwrap();
            append_frame(&mut session, &m, &mut out, MAX_FRAME).unwrap();
        }
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
    fn frame_buffer_peek_consume_matches_pop() {
        let c = codec();
        let stream = sample_stream(&c, &[60, 61, 62]);
        let mut by_pop = FrameBuffer::new();
        by_pop.feed(&stream);
        let mut by_peek = FrameBuffer::new();
        by_peek.feed(&stream);
        while let Some(frame) = pop(&mut by_pop).unwrap() {
            let peeked = by_peek.peek().unwrap().expect("same frame boundary");
            assert_eq!(peeked, frame.as_slice());
            by_peek.consume();
        }
        assert!(by_peek.peek().unwrap().is_none());
        assert_eq!(by_peek.pending(), 0);
    }

    #[test]
    fn frame_buffer_split_feed_across_prefix_boundary() {
        // Feeding stops inside the 4-byte prefix, then inside the body:
        // pop must return None (not a bogus frame) until the frame
        // completes.
        let body = b"frame body".to_vec();
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        for cut1 in 1..4 {
            for cut2 in cut1..wire.len() {
                let mut fb = FrameBuffer::new();
                fb.feed(&wire[..cut1]);
                assert_eq!(pop(&mut fb).unwrap(), None, "cut inside prefix at {cut1}");
                fb.feed(&wire[cut1..cut2]);
                if cut2 < wire.len() {
                    assert_eq!(pop(&mut fb).unwrap(), None, "cut inside body at {cut2}");
                    fb.feed(&wire[cut2..]);
                }
                assert_eq!(pop(&mut fb).unwrap(), Some(body.clone()));
                assert_eq!(fb.pending(), 0);
            }
        }
    }

    #[test]
    fn frame_buffer_cursor_compaction_keeps_frames_intact() {
        // Many small frames consumed interleaved with feeds: the cursor +
        // compaction bookkeeping must never corrupt frame boundaries.
        let mut fb = FrameBuffer::new();
        let mut fed = 0u32;
        let mut popped = 0u32;
        while popped < 300 {
            while fed < popped + 3 {
                let body = fed.to_be_bytes();
                fb.feed(&(body.len() as u32).to_be_bytes());
                fb.feed(&body);
                fed += 1;
            }
            let frame = pop(&mut fb).unwrap().expect("frame buffered");
            assert_eq!(frame, popped.to_be_bytes());
            popped += 1;
        }
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let c = codec();
        let stream = sample_stream(&c, &[10, 20]);
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for &b in &stream {
            fb.feed(&[b]);
            while let Some(frame) = pop(&mut fb).unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(fb.pending(), 0);
        let m = c.parse(&frames[1]).unwrap();
        assert_eq!(m.get_uint("id").unwrap(), 20);
    }

    #[test]
    fn frame_buffer_custom_limit() {
        let mut fb = FrameBuffer::new().max_frame(2);
        fb.feed(&3u32.to_be_bytes());
        fb.feed(&[1, 2, 3]);
        assert!(matches!(pop(&mut fb), Err(FrameError::TooLarge { limit: 2, got: 3 })));
    }

    #[test]
    fn frame_buffer_returns_oversized_capacity_after_trickled_giant_frame() {
        // A peer trickles one near-limit frame a byte at a time: the
        // buffer must grow to hold it, but once that backlog is consumed
        // a long-lived gateway connection must not hold the high-water
        // allocation forever — the next (small) frame returns it to the
        // retained cap.
        let big = vec![0x5A; 2 * 1024 * 1024];
        let mut wire = (big.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&big);
        let mut fb = FrameBuffer::new();
        for b in &wire {
            fb.feed(std::slice::from_ref(b));
        }
        assert!(fb.capacity() >= big.len(), "buffer grew to the backlog");
        assert_eq!(pop(&mut fb).unwrap(), Some(big));
        // Many small frames afterwards: the first consume shrinks, and
        // the capacity stays bounded while the frames stay intact.
        for i in 0..1000u32 {
            let body = i.to_be_bytes();
            fb.feed(&(body.len() as u32).to_be_bytes());
            fb.feed(&body);
            assert_eq!(pop(&mut fb).unwrap(), Some(body.to_vec()));
            assert!(
                fb.capacity() <= FRAME_BUFFER_RETAIN,
                "capacity {} still above the retain cap after small frame {i}",
                fb.capacity()
            );
        }
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_steady_large_frames_do_not_shrink_churn() {
        // Frames consistently larger than the retain cap are the
        // connection's real working set: consuming them must keep the
        // capacity (the shrink threshold scales with the frame size), not
        // realloc on every message.
        let body = vec![7u8; FRAME_BUFFER_RETAIN + 1024];
        let mut fb = FrameBuffer::new();
        let mut high_water = 0;
        for _ in 0..5 {
            fb.feed(&(body.len() as u32).to_be_bytes());
            fb.feed(&body);
            assert_eq!(pop(&mut fb).unwrap().as_deref(), Some(body.as_slice()));
            high_water = high_water.max(fb.capacity());
            assert!(fb.capacity() > FRAME_BUFFER_RETAIN, "working set kept");
        }
        assert_eq!(fb.capacity(), high_water, "no shrink/regrow churn");
    }

    /// Delivers at most `per_read` bytes of `data` per `read` call.
    struct Trickle<'a> {
        data: &'a [u8],
        per_read: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.per_read).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_from_grows_only_with_the_bytes_received() {
        // A peer announces a frame of the full limit and then trickles
        // it, one byte and then 1 KiB per read: the buffer may grow to
        // at most max(READ_MIN, 2 × bytes received), never towards the
        // announced length on the strength of the prefix alone.
        let limit = 1 << 20;
        let body: Vec<u8> = (0..limit).map(|i| (i % 251) as u8).collect();
        let mut wire = (limit as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        let mut fb = FrameBuffer::new().max_frame(limit);
        let before = fb.capacity();
        let mut received = 0;
        for per_read in [1, 1024] {
            let stop = if per_read == 1 { 64 } else { wire.len() };
            while received < stop {
                let mut src = Trickle { data: &wire[received..stop], per_read };
                received += fb.read_from(&mut src).unwrap();
                let bound = READ_MIN.max(2 * received) + before;
                assert!(fb.capacity() <= bound, "{} over {bound} at {received}", fb.capacity());
            }
        }
        assert_eq!(pop(&mut fb).unwrap(), Some(body));
        // The next (small) frame returns the backlog's allocation.
        let small = [9u8; 4];
        let mut next = 4u32.to_be_bytes().to_vec();
        next.extend_from_slice(&small);
        fb.read_from(&mut next.as_slice()).unwrap();
        assert_eq!(pop(&mut fb).unwrap(), Some(small.to_vec()));
        assert!(fb.capacity() <= FRAME_BUFFER_RETAIN, "{} kept", fb.capacity());
    }

    #[test]
    fn read_from_rejects_an_oversized_prefix_without_growing() {
        let mut fb = FrameBuffer::new().max_frame(1000);
        let wire = [1001u32.to_be_bytes().as_slice(), &[0; 64]].concat();
        let mut src = Trickle { data: &wire, per_read: 1 };
        for _ in 0..4 {
            assert_eq!(fb.read_from(&mut src).unwrap(), 1);
        }
        let held = fb.capacity();
        assert!(held <= READ_MIN);
        for _ in 0..3 {
            match fb.read_from(&mut src) {
                Err(FrameError::TooLarge { limit: 1000, got: 1001 }) => {}
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(fb.capacity(), held, "no growth for a rejected prefix");
            assert_eq!(fb.pending(), 4, "nothing read past the prefix");
        }
    }

    #[test]
    fn read_from_lands_steady_frames_in_one_read() {
        // Once a connection's first frame has grown the buffer, every
        // frame of that size arrives in one read, into kept room.
        let body = vec![0xC3; 64 * 1024];
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        let mut fb = FrameBuffer::new();
        let mut src = wire.as_slice();
        while fb.peek().unwrap().is_none() {
            fb.read_from(&mut src).unwrap();
        }
        fb.consume();
        let grown = fb.capacity();
        for _ in 0..3 {
            let mut src = wire.as_slice();
            assert_eq!(fb.read_from(&mut src).unwrap(), wire.len(), "one read per frame");
            assert_eq!(fb.peek().unwrap(), Some(body.as_slice()));
            fb.consume();
            assert_eq!(fb.capacity(), grown, "no regrowth");
        }
    }

    #[test]
    fn empty_frame_supported() {
        // A zero-length frame is legal at the framing layer (the codec
        // will reject it, but framing must not hang or mis-frame).
        let mut fb = FrameBuffer::new();
        fb.feed(&0u32.to_be_bytes());
        assert_eq!(pop(&mut fb).unwrap(), Some(Vec::new()));
    }
}
