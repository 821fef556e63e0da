//! The sans-io connection state machine.
//!
//! A [`Conn`] owns no socket: the transport (event loop, test harness,
//! in-memory test pipes) moves raw bytes in and out, and the
//! `Conn` turns them into codec messages:
//!
//! ```text
//!      read_inbound(socket) / feed_inbound(bytes)    poll_inbound() -> &Message
//!   wire ──────────────▶ [FrameBuffer ▶ pooled ParseSession] ──────────▶ app
//!   wire ◀────────────── [pooled SerializeSession ▶ frames]  ◀────────── app
//!      outbound() / consume_outbound(n)        send(&Message)
//! ```
//!
//! A socket is read straight into the inbound [`FrameBuffer`]
//! ([`Conn::read_inbound`]): each inbound byte is copied once, kernel to
//! frame buffer, and parsed where it lands.
//!
//! The gateway's pumps move each message from one connection to another
//! (or back onto the same one) with one `Conn::forward` per frame: parse,
//! the pump's reply (a transcode into a relay target, a fixed message, or
//! the parsed message itself for an echo, whose tables go from the
//! inbound frame to the outbound one as blocks through a [`WireHop`]),
//! and send, with the pump's timers and counters.
//!
//! Each connection checks **one** parser and **one** serializer out of its
//! [`CodecService`]s at construction and holds them for its lifetime — the
//! long-lived-checkout pattern: pool traffic happens per connection, not
//! per message, and every message is decoded/encoded with warmed,
//! allocation-free session scratch against the one shared compiled plan.
//!
//! All failure paths are typed ([`TransportError`]); hostile bytes move
//! the connection to [`ConnState::Failed`] and never panic.
//!
//! The outbound queue is **bounded** ([`Conn::outbound_cap`], default
//! [`DEFAULT_OUTBOUND_CAP`]): once the queued bytes reach the cap,
//! further [`Conn::send`]s are refused with
//! [`TransportError::Backpressure`] instead of buffering without limit —
//! a peer that stops reading can stall its own stream but can no longer
//! balloon the process's memory. The cap is *soft*: it is checked before
//! a message is encoded, so the queue can overshoot by at most one frame
//! (bounded by the tx codec's frame limit). Cooperative producers check
//! [`Conn::can_send`] first and pause their inbound side instead — the
//! gateway relay does exactly that, turning a slow downstream into a
//! closed TCP window for the upstream sender.

use std::io::Read;

use protoobf_core::framing::{append_frame, FrameBuffer, FrameError, WireHop};
use protoobf_core::message::Message;
use protoobf_core::profile::Endpoint;
use protoobf_core::sample::sample_into;
use protoobf_core::serialize::SerializeSession;
use protoobf_core::service::{CodecService, PooledParser, PooledSerializer};

use crate::error::TransportError;
use crate::gateway::Reply;
use crate::metrics::Metrics;

/// Where a [`Conn`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Both directions are live.
    Open,
    /// The peer finished sending (clean EOF at a frame boundary). The
    /// outbound direction may still queue and flush messages.
    PeerClosed,
    /// [`Conn::close`] was requested and every queued outbound byte has
    /// been drained by the transport. Terminal.
    Closed,
    /// A framing or codec error killed the connection. Terminal.
    Failed,
}

/// Default outbound queue cap in bytes ([`Conn::outbound_cap`]): large
/// enough that a healthy socket never notices, small enough that one
/// stalled peer holds a bounded amount of process memory.
pub const DEFAULT_OUTBOUND_CAP: usize = 1 << 20;

/// A sans-io framed-codec connection; see the [module docs](self).
#[derive(Debug)]
pub struct Conn<'s> {
    parser: PooledParser<'s>,
    inbuf: FrameBuffer,
    tx: Outbound<'s>,
    state: ConnState,
    closing: bool,
    msgs_in: u64,
    last_rx_frame: usize,
}

/// The outbound half of a [`Conn`]: its serializer and frame queue.
#[derive(Debug)]
struct Outbound<'s> {
    serializer: PooledSerializer<'s>,
    out: Vec<u8>,
    out_start: usize,
    out_cap: usize,
    max_frame: usize,
    msgs: u64,
    last_frame: usize,
}

impl<'s> Outbound<'s> {
    fn len(&self) -> usize {
        self.out.len() - self.out_start
    }

    fn can_send(&self) -> bool {
        self.len() < self.out_cap
    }

    /// Queues one frame that `append` writes through the serializer (the
    /// queue, the frame limit), when the connection's state admits it:
    /// `open` is false after [`Conn::close`] or on a terminal state.
    fn push(
        &mut self,
        open: bool,
        append: impl FnOnce(&mut SerializeSession<'s>, &mut Vec<u8>, usize) -> Result<(), FrameError>,
    ) -> Result<(), TransportError> {
        if !open {
            return Err(TransportError::Closed);
        }
        if !self.can_send() {
            return Err(TransportError::Backpressure { queued: self.len(), cap: self.out_cap });
        }
        let before = self.out.len();
        match append(&mut self.serializer, &mut self.out, self.max_frame) {
            Ok(()) => {
                self.msgs += 1;
                self.last_frame = self.out.len() - before;
                Ok(())
            }
            // A build failure is the local caller's fault, not the wire's:
            // the connection stays usable.
            Err(FrameError::Build(e)) => Err(TransportError::Build(e)),
            Err(e) => Err(TransportError::Frame(e)),
        }
    }
}

impl<'s> Conn<'s> {
    /// Creates a connection that parses inbound frames with `rx`'s codec
    /// and serializes outbound messages with `tx`'s codec. The two may be
    /// the same service (symmetric protocols) or differ (request/response
    /// formats, clear/obfuscated gateway legs). Frame-size limits are
    /// inherited from each service ([`CodecService::frame_limit`]).
    pub fn new(rx: &'s CodecService, tx: &'s CodecService) -> Conn<'s> {
        Conn {
            parser: rx.parser(),
            inbuf: FrameBuffer::new().max_frame(rx.frame_limit()),
            tx: Outbound {
                serializer: tx.serializer(),
                out: Vec::new(),
                out_start: 0,
                out_cap: DEFAULT_OUTBOUND_CAP,
                max_frame: tx.frame_limit(),
                msgs: 0,
                last_frame: 0,
            },
            state: ConnState::Open,
            closing: false,
            msgs_in: 0,
            last_rx_frame: 0,
        }
    }

    /// An initiator-side connection over a profile endpoint's obfuscated
    /// stacks: sends the endpoint's `tx` spec, receives its `rx` spec
    /// (asymmetric profiles give the two directions distinct codecs).
    pub fn initiator(endpoint: &'s Endpoint) -> Conn<'s> {
        Conn::new(endpoint.rx_service(), endpoint.tx_service())
    }

    /// The responder-side mirror of [`Conn::initiator`]: receives the
    /// endpoint's `tx` spec, sends its `rx` spec. Both peers build from
    /// the same profile; the role picks the orientation.
    pub fn responder(endpoint: &'s Endpoint) -> Conn<'s> {
        Conn::new(endpoint.tx_service(), endpoint.rx_service())
    }

    /// Sets the outbound queue's byte cap (builder form; default
    /// [`DEFAULT_OUTBOUND_CAP`]). Clamped to at least one byte so an
    /// empty queue always admits the next frame — a zero cap would
    /// deadlock every producer forever.
    pub fn outbound_cap(mut self, cap: usize) -> Conn<'s> {
        self.set_outbound_cap(cap);
        self
    }

    /// In-place form of [`Conn::outbound_cap`].
    pub fn set_outbound_cap(&mut self, cap: usize) {
        self.tx.out_cap = cap.max(1);
    }

    /// True when the outbound queue is below its cap, i.e. the next
    /// [`Conn::send`] will not be refused with
    /// [`TransportError::Backpressure`]. Cooperative producers (the
    /// gateway relay) poll this before decoding more inbound work.
    pub fn can_send(&self) -> bool {
        self.tx.can_send()
    }

    /// Bytes currently queued outbound (not yet consumed by the
    /// transport).
    pub fn outbound_len(&self) -> usize {
        self.tx.len()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Messages decoded from the inbound direction so far.
    pub fn messages_in(&self) -> u64 {
        self.msgs_in
    }

    /// Messages queued on the outbound direction so far.
    pub fn messages_out(&self) -> u64 {
        self.tx.msgs
    }

    /// Payload length in bytes of the most recent frame decoded by
    /// [`Conn::poll_inbound`] (0 before the first). Telemetry reads this
    /// right after a successful poll to feed the inbound frame-size
    /// histogram without re-deriving framing state.
    pub fn last_inbound_frame_len(&self) -> usize {
        self.last_rx_frame
    }

    /// Encoded wire length in bytes (length prefix included) of the most
    /// recent frame queued by [`Conn::send`] (0 before the first) — the
    /// outbound mirror of [`Conn::last_inbound_frame_len`].
    pub fn last_outbound_frame_len(&self) -> usize {
        self.tx.last_frame
    }

    /// Buffers raw transport bytes for decoding. Cheap: frames are only
    /// parsed when [`Conn::poll_inbound`] is called.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] on a terminal connection.
    pub fn feed_inbound(&mut self, chunk: &[u8]) -> Result<(), TransportError> {
        match self.state {
            ConnState::Closed | ConnState::Failed => Err(TransportError::Closed),
            _ => {
                self.inbuf.feed(chunk);
                Ok(())
            }
        }
    }

    /// Makes one `read` call on `src` straight into the inbound frame
    /// buffer ([`FrameBuffer::read_from`]) and returns the bytes it
    /// delivered. Zero is the end of the stream, fed to the connection as
    /// [`Conn::feed_eof`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] with the `read`'s own error (`WouldBlock`
    /// and `Interrupted` included: nothing is lost, read again later);
    /// [`TransportError::Frame`] ([`FrameError::TooLarge`]) when the
    /// buffered length prefix exceeds the rx limit, which fails the
    /// connection; [`TransportError::Closed`] on a terminal connection.
    pub fn read_inbound<R: Read + ?Sized>(&mut self, src: &mut R) -> Result<usize, TransportError> {
        if matches!(self.state, ConnState::Closed | ConnState::Failed) {
            return Err(TransportError::Closed);
        }
        match self.inbuf.read_from(src) {
            Ok(0) => {
                self.feed_eof();
                Ok(0)
            }
            Ok(n) => Ok(n),
            Err(FrameError::Io(e)) => Err(TransportError::Io(e)),
            Err(e) => {
                self.state = ConnState::Failed;
                Err(TransportError::Frame(e))
            }
        }
    }

    /// Whether the last [`Conn::read_inbound`] filled all the room it was
    /// offered without completing a frame: the source may hold the rest.
    pub(crate) fn read_again(&self) -> bool {
        self.inbuf.spare() == 0 && matches!(self.inbuf.peek(), Ok(None))
    }

    /// Signals a clean end of the inbound byte stream (the transport saw
    /// EOF). Complete frames already buffered remain pollable; leftover
    /// partial bytes surface as [`FrameError::Truncated`] on the next
    /// [`Conn::poll_inbound`].
    pub fn feed_eof(&mut self) {
        if self.state == ConnState::Open {
            self.state = ConnState::PeerClosed;
        }
    }

    /// Decodes and returns the next complete inbound message, or `None`
    /// when no full frame is buffered. The returned message borrows the
    /// connection's parse session and is overwritten by the next poll —
    /// steady-state decoding allocates nothing.
    ///
    /// # Errors
    ///
    /// [`TransportError::Frame`] for hostile input (oversized prefix,
    /// undecodable frame, EOF inside a frame); the connection moves to
    /// [`ConnState::Failed`]. [`TransportError::Closed`] on a terminal
    /// connection.
    pub fn poll_inbound(&mut self) -> Result<Option<&Message<'s>>, TransportError> {
        let Some(frame) = next_frame(&self.inbuf, &mut self.state)? else { return Ok(None) };
        let frame_len = frame.len();
        match self.parser.parse_in_place(frame) {
            Ok(_) => {
                self.inbuf.consume();
                self.msgs_in += 1;
                self.last_rx_frame = frame_len;
                Ok(Some(self.parser.message()))
            }
            Err(e) => {
                self.state = ConnState::Failed;
                Err(TransportError::Frame(FrameError::Parse(e)))
            }
        }
    }

    /// Whether the connection takes outbound messages ([`Conn::send`]).
    fn sendable(&self) -> bool {
        sendable(self.closing, self.state)
    }

    /// Moves the next complete inbound frame through one pump step:
    /// parses it, answers it with `reply` and queues the answer as one
    /// frame on `to`, or back on this connection when `to` is `None`. It
    /// is [`Conn::poll_inbound`], the reply and [`Conn::send`], with the
    /// frame borrowed from parse to send, and the pump's bookkeeping in
    /// `metrics`: the parse and serialize stages under their sampled
    /// timers, the transcode's too where one runs, the message counted in
    /// and out (and the transcode), and both frame sizes recorded.
    /// Returns whether a frame moved (`false`: none is complete).
    ///
    /// # Errors
    ///
    /// Those of [`Conn::poll_inbound`], of a transcode
    /// ([`TransportError::Build`]), and of [`Conn::send`] on the
    /// destination.
    pub(crate) fn forward(
        &mut self,
        to: Option<&mut Conn<'s>>,
        mut reply: Reply<'_, 's>,
        metrics: &Metrics,
    ) -> Result<bool, TransportError> {
        /// A parsed frame: an echo's hop, or the message.
        enum Parsed<'a, 's> {
            Hop(WireHop<'a, 's>),
            Message(&'a Message<'s>),
        }
        let parse_t = metrics.stages.parse.start();
        let Conn { parser, inbuf, tx, state, closing, msgs_in, last_rx_frame } = self;
        let Some(frame) = next_frame(inbuf, state)? else { return Ok(false) };
        let parsed = match reply {
            Reply::Parsed => WireHop::parse(parser, frame).map(Parsed::Hop),
            _ => parser.parse_in_place(frame).map(Parsed::Message),
        };
        let mut parsed = parsed.map_err(|e| {
            *state = ConnState::Failed;
            TransportError::Frame(FrameError::Parse(e))
        })?;
        *msgs_in += 1;
        *last_rx_frame = frame.len();
        metrics.stages.parse.finish(parse_t);
        Metrics::add(&metrics.messages_in, 1);
        let sent = (|| {
            match (&mut reply, &parsed) {
                (Reply::Transcode(target), Parsed::Message(msg)) => {
                    let transcode_t = metrics.stages.transcode.start();
                    msg.transcode_into(target)?;
                    metrics.stages.transcode.finish(transcode_t);
                    Metrics::add(&metrics.transcodes, 1);
                }
                (Reply::Sample(codec, msg, rng), _) => sample_into(codec, msg, &mut **rng, &[]),
                _ => {}
            }
            metrics.frame_bytes_in.record(frame.len() as u64);
            let serialize_t = metrics.stages.serialize.start();
            let (tx, open) = match to {
                Some(to) => (&mut to.tx, sendable(to.closing, to.state)),
                None => (tx, sendable(*closing, *state)),
            };
            let answer = match &reply {
                Reply::Parsed => None,
                Reply::Transcode(msg) | Reply::Sample(_, msg, _) => Some(&**msg),
            };
            tx.push(open, |ser, out, max| match &mut parsed {
                Parsed::Hop(hop) => hop.send(ser, out, max),
                Parsed::Message(msg) => append_frame(ser, answer.unwrap_or(msg), out, max),
            })?;
            metrics.stages.serialize.finish(serialize_t);
            Metrics::add(&metrics.messages_out, 1);
            metrics.frame_bytes_out.record(tx.last_frame as u64);
            Ok(())
        })();
        drop(parsed);
        inbuf.consume();
        sent.map(|()| true)
    }

    /// Serializes `msg` (which must be bound to the `tx` codec's graph)
    /// into the outbound queue as one length-prefixed frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Build`] when the message does not serialize (the
    /// connection stays usable — the fault is local, not the wire's),
    /// [`TransportError::Frame`] ([`FrameError::TooLarge`]) when the frame
    /// exceeds the tx limit, [`TransportError::Backpressure`] when the
    /// outbound queue is at its cap (also non-fatal: drain and retry),
    /// [`TransportError::Closed`] after [`Conn::close`] or on a terminal
    /// connection.
    pub fn send(&mut self, msg: &Message<'_>) -> Result<(), TransportError> {
        let open = self.sendable();
        self.tx.push(open, |ser, out, max| append_frame(ser, msg, out, max))
    }

    /// The encoded bytes waiting for the transport to write.
    pub fn outbound(&self) -> &[u8] {
        &self.tx.out[self.tx.out_start..]
    }

    /// True when encoded bytes are waiting to be written.
    pub fn has_outbound(&self) -> bool {
        self.tx.len() > 0
    }

    /// Marks `n` outbound bytes as written by the transport (a partial
    /// write advances a cursor; the buffer compacts itself).
    pub fn consume_outbound(&mut self, n: usize) {
        let tx = &mut self.tx;
        tx.out_start = (tx.out_start + n).min(tx.out.len());
        if tx.out_start == tx.out.len() {
            tx.out.clear();
            tx.out_start = 0;
        } else if tx.out_start >= tx.out.len() - tx.out_start {
            tx.out.copy_within(tx.out_start.., 0);
            tx.out.truncate(tx.out.len() - tx.out_start);
            tx.out_start = 0;
        }
        self.finish_close_if_drained();
    }

    /// Requests a clean close of the outbound direction: no further
    /// [`Conn::send`]s are accepted, and once the transport drains the
    /// queued bytes the connection reaches [`ConnState::Closed`].
    pub fn close(&mut self) {
        self.closing = true;
        self.finish_close_if_drained();
    }

    fn finish_close_if_drained(&mut self) {
        if self.closing && !self.has_outbound() && self.state != ConnState::Failed {
            self.state = ConnState::Closed;
        }
    }
}

/// The next complete frame buffered in `inbuf`, or `None`; a hostile or
/// truncated stream fails the connection (`state`).
///
/// # Errors
///
/// Those of [`Conn::poll_inbound`] before it parses.
fn next_frame<'b>(
    inbuf: &'b FrameBuffer,
    state: &mut ConnState,
) -> Result<Option<&'b [u8]>, TransportError> {
    if matches!(*state, ConnState::Failed | ConnState::Closed) {
        return Err(TransportError::Closed);
    }
    match inbuf.peek() {
        Ok(Some(frame)) => Ok(Some(frame)),
        Ok(None) => {
            if *state == ConnState::PeerClosed && inbuf.pending() > 0 {
                *state = ConnState::Failed;
                return Err(TransportError::Frame(FrameError::Truncated));
            }
            Ok(None)
        }
        Err(e) => {
            *state = ConnState::Failed;
            Err(TransportError::Frame(e))
        }
    }
}

/// Whether a connection in `state`, closing or not, takes outbound
/// messages.
fn sendable(closing: bool, state: ConnState) -> bool {
    !closing && !matches!(state, ConnState::Failed | ConnState::Closed)
}
