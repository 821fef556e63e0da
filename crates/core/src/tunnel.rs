//! Covert payload tunneling inside grammar-perfect cover traffic.
//!
//! The obfuscator rewrites *how* one protocol's messages look on the wire;
//! this module carries *arbitrary byte streams* inside sampled, grammar-
//! valid messages of any specified protocol (in the spirit of Fu et al.'s
//! covert data transport protocol). Three pieces:
//!
//! 1. **Capacity analysis** — [`ChannelMap::analyze`] walks the plain
//!    specification (cross-checked against the compiled [`crate::plan::
//!    CodecPlan`]) and classifies each terminal: fixed-width, enum-like,
//!    numeric, delimited and auto-computed slots are *cover-only* (their
//!    values are structural, constrained, or recomputed by the
//!    serializer), while free `bytes` slots bounded by `rest` or by an
//!    auto length prefix are *carriers* — any byte string round-trips
//!    through them without breaking grammar validity or auto-field
//!    consistency. Carriers guarded by optional branches contribute
//!    *pins* ([`ChannelMap::pins`]): enabling subject values lifted from
//!    the grammar's own predicates that steer the sampler toward
//!    carrier-bearing shapes (e.g. `method = "POST"` so an HTTP request
//!    has a body, `function = 0x0F` so a Modbus request has coil data).
//!
//! 2. **Codec** — [`TunnelEncoder`] chunks a payload stream into framed
//!    slices written across the carrier slots of sampler-generated cover
//!    messages; every non-carrier slot keeps its sampled value, and
//!    carrier *lengths* keep their sampled distribution (only the byte
//!    *contents* change), so tunnel traffic is grammar-perfect and
//!    length-distributed like plain cover traffic. [`TunnelDecoder`]
//!    reassembles the stream with out-of-order tolerance and surfaces
//!    every corruption as a typed [`TunnelError`] — never a panic, never
//!    silently wrong bytes.
//!
//! 3. The `protoobf-transport` crate adds the socket half: a tunnel
//!    session pumps stdin through an ordinary framed connection as cover
//!    messages and back, riding the existing event loop, backpressure and
//!    telemetry (`payload_bytes_in`/`payload_bytes_out` goodput
//!    counters).
//!
//! Each cover message carries at most one frame laid out across its
//! carrier bytes in document order:
//!
//! ```text
//! magic(1) flags(1) seq(4 BE) len(2 BE) crc(4 BE) payload(len) padding…
//! ```
//!
//! `crc` is FNV-1a over flags/seq/len/payload folded to 32 bits — an
//! integrity check against transport corruption, *not* an authenticator
//! (the channel inherits its secrecy from the obfuscation profile, not
//! from the frame header). The final frame (`flags & FIN`) carries the
//! total stream length so the receiver knows when the stream is whole.
//! Messages whose capacity cannot even hold a header are classified
//! [`Accepted::Cover`] and ignored — the encoder resamples past them too.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::Codec;
use crate::error::BuildError;
use crate::graph::{AutoValue, Boundary, FormatGraph, NodeId, NodeType, Predicate};
use crate::message::{Message, ScopeKey, MAX_SCOPE};
use crate::sample::random_message_pinned;
use crate::value::{TerminalKind, Value};

/// First channel byte of every tunnel frame.
pub const FRAME_MAGIC: u8 = 0xC7;
/// Fixed frame header size: magic, flags, seq, len, crc.
pub const FRAME_HEADER_LEN: usize = 12;
/// FIN payload size (total stream length, u64 BE).
pub const FIN_PAYLOAD_LEN: usize = 8;
/// Flag bit marking the final frame of a stream.
const FLAG_FIN: u8 = 0x01;
/// How many cover messages the encoder samples before giving up on
/// finding one with enough carrier capacity for the next frame.
pub const DEFAULT_MAX_RESAMPLE: usize = 4096;
/// How many out-of-order frames the decoder buffers before refusing more.
pub const DEFAULT_REORDER_WINDOW: usize = 4096;

/// Everything that can go wrong while tunneling. Corrupt input surfaces
/// here — decoding must never panic and never deliver wrong bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunnelError {
    /// The specification has no carrier slots at all: every terminal is
    /// fixed, numeric, delimited, auto-computed or a condition subject.
    NoCarriers {
        /// Name of the carrier-free specification.
        spec: String,
    },
    /// The sampler could not produce a cover message with enough carrier
    /// capacity after the configured number of attempts.
    CapacityExhausted {
        /// Bytes the next frame needs (header + at least one byte).
        needed: usize,
        /// Samples tried.
        attempts: usize,
    },
    /// `write_channel` was handed a byte string that does not exactly
    /// fill the message's carrier capacity.
    ChannelMismatch {
        /// Carrier capacity of the message.
        expected: usize,
        /// Bytes offered.
        got: usize,
    },
    /// A carrier path failed to resolve or accept its value (a message
    /// from a different specification, or an internal inconsistency).
    Build(BuildError),
    /// The channel starts with the wrong magic byte: not a tunnel frame.
    BadMagic {
        /// The byte found where [`FRAME_MAGIC`] was expected.
        got: u8,
    },
    /// The declared payload length exceeds the carrier bytes present —
    /// the frame was truncated in transit.
    Truncated {
        /// Declared payload length.
        declared: usize,
        /// Payload bytes actually available.
        available: usize,
    },
    /// The frame checksum does not match its contents.
    ChecksumMismatch {
        /// Sequence number of the corrupt frame.
        seq: u32,
    },
    /// A FIN frame with a malformed payload (must be exactly 8 bytes).
    BadFin {
        /// Payload length found.
        len: usize,
    },
    /// Two FIN frames declared different stream lengths.
    ConflictingFin {
        /// First declared total.
        expected: u64,
        /// Second, conflicting total.
        got: u64,
    },
    /// The same sequence number arrived twice with different payloads.
    ConflictingFrame {
        /// The duplicated sequence number.
        seq: u32,
    },
    /// Too many out-of-order frames buffered; the stream has a hole the
    /// peer is not filling.
    ReorderOverflow {
        /// The configured buffering window (frames).
        window: usize,
    },
    /// More payload bytes arrived than the FIN frame declared.
    LengthExceeded {
        /// Declared stream total.
        expected: u64,
        /// Bytes actually delivered.
        delivered: u64,
    },
    /// The stream ended (no more cover messages) before it was whole.
    Incomplete {
        /// In-order bytes delivered.
        delivered: u64,
        /// Declared total, if a FIN arrived at all.
        expected: Option<u64>,
    },
}

impl fmt::Display for TunnelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunnelError::NoCarriers { spec } => {
                write!(f, "specification '{spec}' has no carrier slots to tunnel through")
            }
            TunnelError::CapacityExhausted { needed, attempts } => write!(
                f,
                "no sampled cover message reached {needed} carrier bytes in {attempts} attempts"
            ),
            TunnelError::ChannelMismatch { expected, got } => {
                write!(f, "channel write of {got} bytes does not fill capacity {expected}")
            }
            TunnelError::Build(e) => write!(f, "carrier slot access failed: {e}"),
            TunnelError::BadMagic { got } => {
                write!(f, "bad tunnel frame magic {got:#04x} (expected {FRAME_MAGIC:#04x})")
            }
            TunnelError::Truncated { declared, available } => {
                write!(f, "truncated frame: declares {declared} payload bytes, {available} present")
            }
            TunnelError::ChecksumMismatch { seq } => {
                write!(f, "checksum mismatch on frame {seq}")
            }
            TunnelError::BadFin { len } => {
                write!(f, "FIN frame payload must be {FIN_PAYLOAD_LEN} bytes, got {len}")
            }
            TunnelError::ConflictingFin { expected, got } => {
                write!(f, "conflicting FIN totals: {expected} then {got}")
            }
            TunnelError::ConflictingFrame { seq } => {
                write!(f, "frame {seq} arrived twice with different payloads")
            }
            TunnelError::ReorderOverflow { window } => {
                write!(f, "more than {window} out-of-order frames buffered")
            }
            TunnelError::LengthExceeded { expected, delivered } => {
                write!(f, "stream declared {expected} bytes but {delivered} were delivered")
            }
            TunnelError::Incomplete { delivered, expected } => match expected {
                Some(t) => write!(f, "stream incomplete: {delivered} of {t} bytes delivered"),
                None => write!(f, "stream incomplete: {delivered} bytes delivered, no FIN seen"),
            },
        }
    }
}

impl std::error::Error for TunnelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TunnelError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for TunnelError {
    fn from(e: BuildError) -> Self {
        TunnelError::Build(e)
    }
}

/// FNV-1a over the frame header fields and payload, folded to 32 bits.
fn frame_crc(flags: u8, seq: u32, payload: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    eat(flags);
    seq.to_be_bytes().iter().for_each(|&b| eat(b));
    (payload.len() as u16).to_be_bytes().iter().for_each(|&b| eat(b));
    payload.iter().for_each(|&b| eat(b));
    ((h >> 32) ^ (h & 0xffff_ffff)) as u32
}

/// Which slots of one specification can carry attacker-chosen bytes.
///
/// Classification runs over the *plain* graph, so both tunnel endpoints —
/// whatever their obfuscation levels — derive the identical carrier set;
/// the compiled plan of the analyzed codec is only consulted to verify
/// each carrier's value channel survives the wire round-trip.
///
/// A terminal is a carrier iff it is application-set raw `bytes`, is not
/// the subject of any optional-presence condition, and is bounded either
/// by `rest` ([`Boundary::End`]) or by a length prefix that is itself
/// auto-computed from it (`sized_by` an `= len(...)` field). Everything
/// else — fixed-width, delimited, numeric, auto — stays cover-only: those
/// values are structural, constrained, or recomputed by the serializer.
#[derive(Debug, Clone)]
pub struct ChannelMap<'g> {
    plain: &'g FormatGraph,
    carrier: Vec<bool>,
    carriers: Vec<NodeId>,
    pins: Vec<(NodeId, Value)>,
}

impl<'g> ChannelMap<'g> {
    /// Classifies `codec`'s plain specification (see the type docs).
    pub fn analyze(codec: &'g Codec) -> ChannelMap<'g> {
        let plain = codec.plain();
        let plan = codec.plan();
        let n = plain.ids().count();
        let mut is_subject = vec![false; n];
        for id in plain.ids() {
            if let NodeType::Optional(cond) = plain.node(id).node_type() {
                is_subject[cond.subject.index()] = true;
            }
        }
        let mut carrier = vec![false; n];
        let mut carriers = Vec::new();
        for id in plain.preorder() {
            let node = plain.node(id);
            if !matches!(node.node_type(), NodeType::Terminal(TerminalKind::Bytes)) {
                continue;
            }
            if node.auto().is_auto() || is_subject[id.index()] {
                continue;
            }
            let free = match node.boundary() {
                Boundary::End => true,
                Boundary::Length(l) => {
                    matches!(plain.node(*l).auto(), AutoValue::LengthOf(t) if *t == id)
                }
                _ => false,
            };
            // A carrier must also own a value channel in the compiled
            // plan, or its bytes would not survive the wire round-trip.
            if !free || plan.holder_slot(id).is_none() {
                continue;
            }
            carrier[id.index()] = true;
            carriers.push(id);
        }
        // Carriers behind optional branches contribute sampler pins: the
        // enabling subject value straight out of the grammar's predicate.
        // Carriers whose requirements conflict with already-chosen pins
        // (e.g. the four mutually exclusive Modbus response bodies) stay
        // unpinned — they are still read when present, just not steered.
        let mut pins: Vec<(NodeId, Value)> = Vec::new();
        'carrier: for &c in &carriers {
            let mut wanted: Vec<(NodeId, Value)> = Vec::new();
            let mut cur = plain.node(c).parent();
            while let Some(p) = cur {
                if let NodeType::Optional(cond) = plain.node(p).node_type() {
                    match &cond.predicate {
                        Predicate::Equals(v) => wanted.push((cond.subject, v.clone())),
                        Predicate::OneOf(vs) => {
                            if let Some(v) = vs.first() {
                                wanted.push((cond.subject, v.clone()));
                            }
                        }
                        // A sample collides with the single excluded
                        // value rarely enough that resampling covers it.
                        Predicate::NotEquals(_) => {}
                    }
                }
                cur = plain.node(p).parent();
            }
            for (s, v) in &wanted {
                if pins.iter().any(|(ps, pv)| ps == s && pv != v) {
                    continue 'carrier;
                }
            }
            for (s, v) in wanted {
                if !pins.iter().any(|(ps, _)| *ps == s) {
                    pins.push((s, v));
                }
            }
        }
        ChannelMap { plain, carrier, carriers, pins }
    }

    /// The carrier terminals, in document order.
    pub fn carriers(&self) -> &[NodeId] {
        &self.carriers
    }

    /// True when `id` is a carrier terminal.
    pub fn is_carrier(&self, id: NodeId) -> bool {
        self.carrier.get(id.index()).copied().unwrap_or(false)
    }

    /// Sampler pins that steer cover messages toward carrier-bearing
    /// shapes (see [`crate::sample::random_message_pinned`]).
    pub fn pins(&self) -> &[(NodeId, Value)] {
        &self.pins
    }

    /// True when the specification has no carriers at all.
    pub fn is_empty(&self) -> bool {
        self.carriers.is_empty()
    }

    /// Name of the analyzed specification.
    pub fn spec(&self) -> &str {
        self.plain.name()
    }

    /// Concrete carrier instances of `msg` — node and element scope, in
    /// document order. Presence and element counts come from the message
    /// itself.
    fn instances(&self, msg: &Message<'_>) -> Vec<(NodeId, ScopeKey)> {
        let mut out = Vec::new();
        self.visit(msg, self.plain.root(), &mut [0; MAX_SCOPE], 0, &mut out);
        out
    }

    fn visit(
        &self,
        msg: &Message<'_>,
        id: NodeId,
        scope: &mut [u32; MAX_SCOPE],
        depth: usize,
        out: &mut Vec<(NodeId, ScopeKey)>,
    ) {
        let node = self.plain.node(id);
        match node.node_type() {
            NodeType::Terminal(_) => {
                if self.carrier[id.index()] {
                    out.push((id, ScopeKey::from_slice(&scope[..depth])));
                }
            }
            NodeType::Sequence => {
                for &c in node.children() {
                    self.visit(msg, c, scope, depth, out);
                }
            }
            NodeType::Optional(_) => {
                if msg.presence_of(id, &scope[..depth]) {
                    self.visit(msg, node.children()[0], scope, depth, out);
                }
            }
            NodeType::Repetition(_) | NodeType::Tabular => {
                for i in 0..msg.count_of(id, &scope[..depth]) {
                    scope[depth] = i as u32;
                    self.visit(msg, node.children()[0], scope, depth + 1, out);
                }
            }
        }
    }

    /// Channel capacity of one concrete message: the summed byte length
    /// of its carrier instances.
    pub fn capacity(&self, msg: &Message<'_>) -> usize {
        let instances = self.instances(msg);
        instances.iter().map(|(x, sc)| msg.value_len_at(*x, sc.as_slice()).unwrap_or(0)).sum()
    }

    /// Appends the message's channel bytes (carrier instance values in
    /// document order) to `out`.
    pub fn read_channel(&self, msg: &Message<'_>, out: &mut Vec<u8>) {
        for (x, sc) in self.instances(msg) {
            if let Some(v) = msg.value_at(x, sc.as_slice()) {
                out.extend_from_slice(v.as_bytes());
            }
        }
    }

    /// Overwrites the message's channel with `bytes`, keeping every
    /// carrier instance's sampled *length* (so the wire length
    /// distribution stays that of plain cover traffic — only the byte
    /// contents change). `bytes` must exactly fill the capacity.
    pub fn write_channel(&self, msg: &mut Message<'_>, bytes: &[u8]) -> Result<(), TunnelError> {
        let mut off = 0usize;
        for (x, sc) in self.instances(msg) {
            let end = off + msg.value_len_at(x, sc.as_slice()).unwrap_or(0);
            let Some(chunk) = bytes.get(off..end) else {
                return Err(TunnelError::ChannelMismatch {
                    expected: self.capacity(msg),
                    got: bytes.len(),
                });
            };
            msg.set_at(x, sc.as_slice(), chunk)?;
            off = end;
        }
        if off != bytes.len() {
            return Err(TunnelError::ChannelMismatch { expected: off, got: bytes.len() });
        }
        Ok(())
    }
}

/// One cover message produced by [`TunnelEncoder::next_cover`].
#[derive(Debug)]
pub struct CoverFrame<'c> {
    /// The grammar-valid cover message, channel bytes written.
    pub message: Message<'c>,
    /// The frame's sequence number.
    pub seq: u32,
    /// Payload bytes consumed from the stream by this frame (0 for FIN).
    pub payload_len: usize,
    /// True when this is the stream's final (FIN) frame.
    pub fin: bool,
}

/// Chunks an arbitrary byte stream into the carrier slots of sampled
/// cover messages. Feed with [`push`](TunnelEncoder::push), signal end of
/// stream with [`finish`](TunnelEncoder::finish), and drain with
/// [`next_cover`](TunnelEncoder::next_cover) until it returns `None`.
#[derive(Debug)]
pub struct TunnelEncoder<'c> {
    codec: &'c Codec,
    map: ChannelMap<'c>,
    rng: StdRng,
    pending: VecDeque<u8>,
    chunk: Vec<u8>,
    seq: u32,
    total: u64,
    finished: bool,
    fin_emitted: bool,
    max_resample: usize,
}

impl<'c> TunnelEncoder<'c> {
    /// Builds an encoder over `codec`, seeding the cover sampler.
    pub fn new(codec: &'c Codec, seed: u64) -> Result<TunnelEncoder<'c>, TunnelError> {
        let map = ChannelMap::analyze(codec);
        if map.is_empty() {
            return Err(TunnelError::NoCarriers { spec: codec.plain().name().to_string() });
        }
        Ok(TunnelEncoder {
            codec,
            map,
            rng: StdRng::seed_from_u64(seed),
            pending: VecDeque::new(),
            chunk: Vec::new(),
            seq: 0,
            total: 0,
            finished: false,
            fin_emitted: false,
            max_resample: DEFAULT_MAX_RESAMPLE,
        })
    }

    /// The carrier classification this encoder writes through.
    pub fn map(&self) -> &ChannelMap<'c> {
        &self.map
    }

    /// Queues payload bytes for transmission.
    pub fn push(&mut self, data: &[u8]) {
        debug_assert!(!self.finished, "push after finish");
        self.pending.extend(data);
        self.total += data.len() as u64;
    }

    /// Declares the payload stream complete: once the queue drains, one
    /// FIN frame carrying the total stream length is emitted.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Payload bytes queued but not yet encoded.
    pub fn pending_payload(&self) -> usize {
        self.pending.len()
    }

    /// True once the whole stream — including the FIN frame — has been
    /// handed out as cover messages.
    pub fn is_drained(&self) -> bool {
        self.finished && self.pending.is_empty() && self.fin_emitted
    }

    /// Produces the next cover message, or `None` when there is nothing
    /// to send right now (queue empty and either the stream is still
    /// open or FIN already went out).
    ///
    /// Samples cover messages (with the map's pins applied) until one has
    /// enough carrier capacity, writes the frame plus random padding into
    /// the channel, and leaves every cover slot as sampled.
    pub fn next_cover(&mut self) -> Result<Option<CoverFrame<'c>>, TunnelError> {
        let fin_frame = self.pending.is_empty();
        if fin_frame && (!self.finished || self.fin_emitted) {
            return Ok(None);
        }
        let need = FRAME_HEADER_LEN + if fin_frame { FIN_PAYLOAD_LEN } else { 1 };
        for _ in 0..self.max_resample {
            let mut msg = random_message_pinned(self.codec, &mut self.rng, self.map.pins());
            let cap = self.map.capacity(&msg);
            if cap < need {
                continue;
            }
            let (flags, payload): (u8, Vec<u8>) = if fin_frame {
                (FLAG_FIN, self.total.to_be_bytes().to_vec())
            } else {
                let take = self.pending.len().min(cap - FRAME_HEADER_LEN).min(u16::MAX as usize);
                (0, self.pending.drain(..take).collect())
            };
            self.chunk.clear();
            self.chunk.push(FRAME_MAGIC);
            self.chunk.push(flags);
            self.chunk.extend_from_slice(&self.seq.to_be_bytes());
            self.chunk.extend_from_slice(&(payload.len() as u16).to_be_bytes());
            self.chunk.extend_from_slice(&frame_crc(flags, self.seq, &payload).to_be_bytes());
            self.chunk.extend_from_slice(&payload);
            while self.chunk.len() < cap {
                self.chunk.push(self.rng.gen());
            }
            self.map.write_channel(&mut msg, &self.chunk)?;
            let seq = self.seq;
            self.seq = self.seq.wrapping_add(1);
            if fin_frame {
                self.fin_emitted = true;
            }
            return Ok(Some(CoverFrame {
                message: msg,
                seq,
                payload_len: if fin_frame { 0 } else { payload.len() },
                fin: fin_frame,
            }));
        }
        Err(TunnelError::CapacityExhausted { needed: need, attempts: self.max_resample })
    }
}

/// What [`TunnelDecoder::accept`] made of one cover message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accepted {
    /// In-order payload: `bytes` new in-order bytes became readable
    /// (includes any out-of-order frames this one unblocked).
    Data {
        /// Newly readable in-order bytes.
        bytes: usize,
    },
    /// A valid frame ahead of the stream cursor, buffered for later.
    Buffered {
        /// Its sequence number.
        seq: u32,
    },
    /// The stream-terminating frame; `total` is the declared length.
    Fin {
        /// Declared total stream length.
        total: u64,
    },
    /// A frame already seen (identical re-delivery); ignored.
    Duplicate {
        /// Its sequence number.
        seq: u32,
    },
    /// Not a tunnel frame: the message's carrier capacity cannot even
    /// hold a header. Plain cover traffic; ignored.
    Cover {
        /// The message's carrier capacity.
        capacity: usize,
    },
}

/// Reassembles a payload stream from decoded cover messages, tolerating
/// out-of-order and duplicated delivery. Corruption surfaces as typed
/// [`TunnelError`]s; bytes are released strictly in order.
#[derive(Debug)]
pub struct TunnelDecoder<'c> {
    map: ChannelMap<'c>,
    chunk: Vec<u8>,
    next_seq: u32,
    ahead: BTreeMap<u32, Vec<u8>>,
    ready: Vec<u8>,
    delivered: u64,
    expected: Option<u64>,
    reorder_window: usize,
}

impl<'c> TunnelDecoder<'c> {
    /// Builds a decoder over the receiving side's codec.
    pub fn new(codec: &'c Codec) -> Result<TunnelDecoder<'c>, TunnelError> {
        let map = ChannelMap::analyze(codec);
        if map.is_empty() {
            return Err(TunnelError::NoCarriers { spec: codec.plain().name().to_string() });
        }
        Ok(TunnelDecoder {
            map,
            chunk: Vec::new(),
            next_seq: 0,
            ahead: BTreeMap::new(),
            ready: Vec::new(),
            delivered: 0,
            expected: None,
            reorder_window: DEFAULT_REORDER_WINDOW,
        })
    }

    /// The carrier classification this decoder reads through.
    pub fn map(&self) -> &ChannelMap<'c> {
        &self.map
    }

    /// Ingests one decoded cover message.
    pub fn accept(&mut self, msg: &Message<'_>) -> Result<Accepted, TunnelError> {
        self.chunk.clear();
        let mut chunk = std::mem::take(&mut self.chunk);
        self.map.read_channel(msg, &mut chunk);
        let r = self.accept_channel_inner(&chunk);
        self.chunk = chunk;
        r
    }

    /// Ingests raw channel bytes (the carrier concatenation) directly.
    pub fn accept_channel(&mut self, chunk: &[u8]) -> Result<Accepted, TunnelError> {
        self.accept_channel_inner(chunk)
    }

    fn accept_channel_inner(&mut self, chunk: &[u8]) -> Result<Accepted, TunnelError> {
        if chunk.len() < FRAME_HEADER_LEN {
            return Ok(Accepted::Cover { capacity: chunk.len() });
        }
        if chunk[0] != FRAME_MAGIC {
            return Err(TunnelError::BadMagic { got: chunk[0] });
        }
        let flags = chunk[1];
        let seq = u32::from_be_bytes(chunk[2..6].try_into().expect("4 bytes"));
        let len = u16::from_be_bytes(chunk[6..8].try_into().expect("2 bytes")) as usize;
        let crc = u32::from_be_bytes(chunk[8..12].try_into().expect("4 bytes"));
        let available = chunk.len() - FRAME_HEADER_LEN;
        if len > available {
            return Err(TunnelError::Truncated { declared: len, available });
        }
        let payload = &chunk[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        if frame_crc(flags, seq, payload) != crc {
            return Err(TunnelError::ChecksumMismatch { seq });
        }
        if flags & FLAG_FIN != 0 {
            if len != FIN_PAYLOAD_LEN {
                return Err(TunnelError::BadFin { len });
            }
            let total = u64::from_be_bytes(payload.try_into().expect("8 bytes"));
            if let Some(t) = self.expected {
                if t != total {
                    return Err(TunnelError::ConflictingFin { expected: t, got: total });
                }
                return Ok(Accepted::Duplicate { seq });
            }
            if self.delivered > total {
                return Err(TunnelError::LengthExceeded {
                    expected: total,
                    delivered: self.delivered,
                });
            }
            self.expected = Some(total);
            return Ok(Accepted::Fin { total });
        }
        if seq < self.next_seq {
            return Ok(Accepted::Duplicate { seq });
        }
        if seq > self.next_seq {
            if let Some(prev) = self.ahead.get(&seq) {
                return if prev.as_slice() == payload {
                    Ok(Accepted::Duplicate { seq })
                } else {
                    Err(TunnelError::ConflictingFrame { seq })
                };
            }
            if self.ahead.len() >= self.reorder_window {
                return Err(TunnelError::ReorderOverflow { window: self.reorder_window });
            }
            self.ahead.insert(seq, payload.to_vec());
            return Ok(Accepted::Buffered { seq });
        }
        let mut appended = payload.len();
        self.ready.extend_from_slice(payload);
        self.next_seq = self.next_seq.wrapping_add(1);
        while let Some(p) = self.ahead.remove(&self.next_seq) {
            appended += p.len();
            self.ready.extend_from_slice(&p);
            self.next_seq = self.next_seq.wrapping_add(1);
        }
        self.delivered += appended as u64;
        if let Some(t) = self.expected {
            if self.delivered > t {
                return Err(TunnelError::LengthExceeded { expected: t, delivered: self.delivered });
            }
        }
        Ok(Accepted::Data { bytes: appended })
    }

    /// Moves all in-order bytes into `out`; returns how many.
    pub fn take_ready(&mut self, out: &mut Vec<u8>) -> usize {
        let n = self.ready.len();
        out.extend_from_slice(&self.ready);
        self.ready.clear();
        n
    }

    /// In-order bytes waiting to be taken.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// In-order payload bytes delivered so far (taken or waiting).
    pub fn bytes_delivered(&self) -> u64 {
        self.delivered
    }

    /// The total stream length declared by the FIN frame, if seen.
    pub fn total_expected(&self) -> Option<u64> {
        self.expected
    }

    /// True once every declared payload byte has arrived in order.
    pub fn is_complete(&self) -> bool {
        self.expected == Some(self.delivered)
    }
}

/// Encodes a whole payload into a sequence of cover messages (one-shot
/// convenience over [`TunnelEncoder`]).
pub fn encode_stream<'c>(
    codec: &'c Codec,
    payload: &[u8],
    seed: u64,
) -> Result<Vec<Message<'c>>, TunnelError> {
    let mut enc = TunnelEncoder::new(codec, seed)?;
    enc.push(payload);
    enc.finish();
    let mut out = Vec::new();
    while let Some(f) = enc.next_cover()? {
        out.push(f.message);
    }
    Ok(out)
}

/// Reassembles a payload from a complete sequence of cover messages
/// (one-shot convenience over [`TunnelDecoder`]).
pub fn decode_stream(codec: &Codec, msgs: &[Message<'_>]) -> Result<Vec<u8>, TunnelError> {
    let mut dec = TunnelDecoder::new(codec)?;
    for m in msgs {
        dec.accept(m)?;
    }
    if !dec.is_complete() {
        return Err(TunnelError::Incomplete {
            delivered: dec.bytes_delivered(),
            expected: dec.total_expected(),
        });
    }
    let mut out = Vec::new();
    dec.take_ready(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Obfuscator;
    use crate::graph::{Condition, GraphBuilder};

    /// A gadget spec covering every carrier class: an auto length-prefixed
    /// bytes field, an optional `rest` body behind an equality predicate,
    /// a delimited ascii field (cover-only), and a numeric subject.
    fn gadget() -> FormatGraph {
        let mut b = GraphBuilder::new("gadget");
        let root = b.root_sequence("m", Boundary::End);
        let dlen = b.uint_be(root, "dlen", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(dlen));
        b.set_auto(dlen, AutoValue::LengthOf(data));
        b.terminal(root, "tag", TerminalKind::Ascii, Boundary::Delimited(b"|".to_vec()));
        let kind = b.uint_be(root, "kind", 1);
        let opt = b.optional(
            root,
            "body",
            Condition { subject: kind, predicate: Predicate::Equals(Value::from_bytes(vec![7])) },
        );
        b.terminal(opt, "content", TerminalKind::Bytes, Boundary::End);
        b.build().unwrap()
    }

    #[test]
    fn classification_finds_carriers_and_pins() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let map = ChannelMap::analyze(&codec);
        let names: Vec<&str> = map.carriers().iter().map(|&id| g.node(id).name()).collect();
        assert_eq!(names, vec!["data", "content"]);
        // The optional body's subject is pinned to its enabling value.
        assert_eq!(map.pins().len(), 1);
        let (subject, v) = &map.pins()[0];
        assert_eq!(g.node(*subject).name(), "kind");
        assert_eq!(v.as_bytes(), &[7]);
    }

    #[test]
    fn cover_only_slots_are_never_carriers() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let map = ChannelMap::analyze(&codec);
        for id in g.ids() {
            let n = g.node(id);
            if ["dlen", "tag", "kind"].contains(&n.name()) {
                assert!(!map.is_carrier(id), "{} must stay cover-only", n.name());
            }
        }
    }

    #[test]
    fn round_trip_plain_and_obfuscated() {
        let g = gadget();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        for level in [0u64, 1, 2] {
            let codec = if level == 0 {
                Codec::identity(&g)
            } else {
                Obfuscator::new(&g).seed(level).max_per_node(2).obfuscate().unwrap()
            };
            let msgs = encode_stream(&codec, &payload, 42 + level).unwrap();
            // Through the real wire: serialize then parse each cover.
            let mut wires = Vec::new();
            for m in &msgs {
                wires.push(codec.serialize(m).unwrap());
            }
            let parsed: Vec<Message<'_>> = wires.iter().map(|w| codec.parse(w).unwrap()).collect();
            let back = decode_stream(&codec, &parsed).unwrap();
            assert_eq!(back, payload, "level {level}");
        }
    }

    #[test]
    fn empty_stream_is_one_fin_frame() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let msgs = encode_stream(&codec, &[], 7).unwrap();
        assert_eq!(msgs.len(), 1);
        let back = decode_stream(&codec, &msgs).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn reordered_frames_reassemble() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let payload: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        let mut msgs = encode_stream(&codec, &payload, 9).unwrap();
        // Reverse everything: worst-case reordering, FIN first.
        msgs.reverse();
        let mut dec = TunnelDecoder::new(&codec).unwrap();
        for m in &msgs {
            dec.accept(m).unwrap();
        }
        assert!(dec.is_complete());
        let mut out = Vec::new();
        dec.take_ready(&mut out);
        assert_eq!(out, payload);
    }

    #[test]
    fn duplicates_are_ignored() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let payload = b"duplicate delivery is idempotent".to_vec();
        let msgs = encode_stream(&codec, &payload, 3).unwrap();
        let mut dec = TunnelDecoder::new(&codec).unwrap();
        for m in msgs.iter().chain(msgs.iter()) {
            dec.accept(m).unwrap();
        }
        assert!(dec.is_complete());
        let mut out = Vec::new();
        dec.take_ready(&mut out);
        assert_eq!(out, payload);
    }

    #[test]
    fn corruption_yields_typed_errors_never_wrong_bytes() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let payload: Vec<u8> = (0..512u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut enc = TunnelEncoder::new(&codec, 11).unwrap();
        enc.push(&payload);
        enc.finish();
        let mut channels = Vec::new();
        while let Some(f) = enc.next_cover().unwrap() {
            let mut ch = Vec::new();
            enc.map().read_channel(&f.message, &mut ch);
            channels.push(ch);
        }
        // Flip every byte position of the first frame in turn: each
        // corruption must be a typed error or a detected non-frame; a
        // reassembled stream differing from the payload is the only
        // failure.
        for pos in 0..channels[0].len() {
            let mut dec = TunnelDecoder::new(&codec).unwrap();
            let mut bad = channels.clone();
            bad[0][pos] ^= 0xA5;
            let mut failed = false;
            for ch in &bad {
                if dec.accept_channel(ch).is_err() {
                    failed = true;
                    break;
                }
            }
            if !failed && dec.is_complete() {
                let mut out = Vec::new();
                dec.take_ready(&mut out);
                // Padding corruption is invisible — and harmless.
                assert_eq!(out, payload, "flip at {pos} delivered wrong bytes");
            }
        }
    }

    #[test]
    fn truncated_declared_length_is_typed() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let mut dec = TunnelDecoder::new(&codec).unwrap();
        // Hand-build a frame whose declared length exceeds the channel.
        let payload = b"xx";
        let mut ch = vec![FRAME_MAGIC, 0];
        ch.extend_from_slice(&0u32.to_be_bytes());
        ch.extend_from_slice(&200u16.to_be_bytes());
        ch.extend_from_slice(&frame_crc(0, 0, payload).to_be_bytes());
        ch.extend_from_slice(payload);
        match dec.accept_channel(&ch) {
            Err(TunnelError::Truncated { declared: 200, .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_stream_is_typed() {
        let g = gadget();
        let codec = Codec::identity(&g);
        let payload: Vec<u8> = vec![1; 600];
        let msgs = encode_stream(&codec, &payload, 5).unwrap();
        assert!(msgs.len() > 2);
        // Drop a middle frame: the stream must refuse to complete.
        let mut dec = TunnelDecoder::new(&codec).unwrap();
        for (i, m) in msgs.iter().enumerate() {
            if i != 1 {
                dec.accept(m).unwrap();
            }
        }
        assert!(!dec.is_complete());
        assert!(dec.total_expected().is_some());
        assert!(dec.bytes_delivered() < payload.len() as u64);
    }

    #[test]
    fn wire_length_distribution_matches_plain_cover() {
        // Tunnel covers keep sampled structure and value lengths; only
        // carrier *contents* change. Same sampler seed => same wire
        // lengths as plain sampled traffic.
        let g = gadget();
        let codec = Codec::identity(&g);
        let mut enc = TunnelEncoder::new(&codec, 77).unwrap();
        enc.push(&[0xAB; 300]);
        enc.finish();
        while let Some(mut f) = enc.next_cover().unwrap() {
            let wire = codec.serialize(&f.message).unwrap();
            let cap = enc.map().capacity(&f.message);
            assert!(cap >= FRAME_HEADER_LEN);
            // Overwriting the channel must not change the wire length:
            // re-serializing after zeroing every carrier gives equal
            // length, because write_channel preserves instance lengths.
            enc.map().write_channel(&mut f.message, &vec![0u8; cap]).unwrap();
            assert_eq!(codec.serialize(&f.message).unwrap().len(), wire.len());
        }
    }
}
