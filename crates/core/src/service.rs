//! The concurrent codec service: one compiled plan, N worker sessions.
//!
//! A [`crate::codec::Codec`] compiles its [`crate::plan::CodecPlan`] once;
//! the plan is immutable and every session interprets it with private
//! scratch state. [`CodecService`] exploits that split at scale: it owns
//! the codec and a **sharded pool** of warmed-up session scratch states,
//! so any number of threads can check out a serializer or parser without
//! per-message setup and without contending on a single lock.
//!
//! ```text
//!                      ┌──────────────── CodecService ────────────────┐
//!   thread A ── checkout ─▶ shard 0 [scratch, scratch]   Codec        │
//!   thread B ── checkout ─▶ shard 1 [scratch]            └─ CodecPlan │ (shared, immutable)
//!   thread C ── checkout ─▶ shard 2 []  → fresh scratch                │
//!                      └───────────────────────────────────────────────┘
//! ```
//!
//! Checkout hands back a [`PooledSerializer`] / [`PooledParser`] guard
//! that derefs to the underlying session; dropping the guard returns the
//! scratch (stores, recovery/distribution buffers, message capacity) to a
//! shard, so the next checkout — on any thread — starts warm. Each shard
//! is a **lock-free Treiber-stack free list** ([`crate::pool::FreeList`]):
//! checkout and checkin are single-CAS operations, shard selection is
//! round-robin with fallback scanning of the other shards, and no thread
//! ever blocks (or even spins against) another — a worker preempted
//! mid-checkout cannot stall its siblings the way the earlier
//! `Mutex<Vec<_>>` shards could. The contention counters in
//! [`ServiceStats`] remain for compatibility and observability: under the
//! lock-free pools they are structurally zero.
//!
//! Wrap the service in an [`std::sync::Arc`] to share it:
//!
//! ```
//! use std::sync::Arc;
//! use protoobf_core::graph::{Boundary, GraphBuilder};
//! use protoobf_core::{Codec, CodecService};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("demo");
//! let root = b.root_sequence("msg", Boundary::End);
//! b.uint_be(root, "id", 2);
//! let service = Arc::new(CodecService::new(Codec::identity(&b.build()?)));
//!
//! let handles: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let svc = Arc::clone(&service);
//!         std::thread::spawn(move || {
//!             let mut serializer = svc.serializer();
//!             let mut parser = svc.parser();
//!             let mut wire = Vec::new();
//!             let mut msg = svc.codec().message_seeded(t);
//!             msg.set_uint("id", t).unwrap();
//!             serializer.serialize_into(&msg, &mut wire).unwrap();
//!             parser.parse_in_place(&wire).unwrap().get_uint("id").unwrap()
//!         })
//!     })
//!     .collect();
//! for (t, h) in handles.into_iter().enumerate() {
//!     assert_eq!(h.join().unwrap(), t as u64);
//! }
//! # Ok(())
//! # }
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::codec::Codec;
use crate::error::{BuildError, ParseError};
use crate::framing::{FrameBuffer, FrameError, MAX_FRAME};
use crate::message::Message;
use crate::parse::{ParseScratch, ParseSession};
use crate::pool::FreeList;
use crate::serialize::{SerializeScratch, SerializeSession};

/// Default upper bound of pooled scratch states kept per shard. Checkins
/// beyond the cap drop the scratch instead of growing the pool without
/// bound under bursty checkout patterns. Tunable per service with
/// [`CodecService::pool_capacity`].
const MAX_POOLED_PER_SHARD: usize = 32;

/// A thread-safe codec front end: one shared [`Codec`] (and compiled
/// plan) behind sharded pools of reusable serializer/parser scratch.
///
/// See the [module docs](self) for the concurrency model. All methods
/// take `&self`; share the service across threads with an
/// [`std::sync::Arc`].
#[derive(Debug)]
pub struct CodecService {
    codec: Codec,
    shards: Vec<Shard>,
    /// Round-robin checkout cursor (shard selection hint, not a lock).
    next: AtomicUsize,
    max_frame: usize,
    serialized: AtomicU64,
    parsed: AtomicU64,
    /// Checkout-side contention. The shards are lock-free Treiber stacks,
    /// so nothing can be contended in the blocking sense any more — this
    /// counter is kept for [`ServiceStats`] compatibility and as the
    /// observable proof of that property: it stays zero by construction.
    contended_checkout: AtomicU64,
    /// Checkin-side contention; structurally zero, as above.
    contended_checkin: AtomicU64,
}

/// One pool shard: a lock-free bounded free list per scratch kind.
#[derive(Debug)]
struct Shard {
    serializers: FreeList<SerializeScratch>,
    parsers: FreeList<ParseScratch>,
}

impl Shard {
    fn new(cap: usize) -> Shard {
        Shard { serializers: FreeList::new(cap), parsers: FreeList::new(cap) }
    }
}

/// Point-in-time service counters, from [`CodecService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Number of pool shards.
    pub shards: usize,
    /// Messages serialized through the batch/framing entry points.
    pub serialized_messages: u64,
    /// Messages parsed through the batch/framing entry points.
    pub parsed_messages: u64,
    /// Serializer scratch states currently parked in the pools.
    pub pooled_serializers: usize,
    /// Parser scratch states currently parked in the pools.
    pub pooled_parsers: usize,
    /// Peak serializer pool occupancy across all shards (sum of each
    /// shard's high-water mark) — the gauge that tells whether
    /// `MAX_POOLED_PER_SHARD` is sized right for the offered load.
    pub pooled_serializer_peak: usize,
    /// Peak parser pool occupancy, as above.
    pub pooled_parser_peak: usize,
    /// Checkout-side pool contention. Historically this counted
    /// `try_lock` misses while scanning the old `Mutex<Vec<_>>` shards;
    /// the shards are now lock-free Treiber stacks
    /// ([`crate::pool::FreeList`]), so there is no lock to miss and this
    /// is **zero by construction** — kept so dashboards that alerted on
    /// it keep working (and now read a structural guarantee).
    pub checkout_contention: u64,
    /// Checkin-side pool contention; zero by construction, as above.
    pub checkin_contention: u64,
}

impl CodecService {
    /// Wraps a codec with one pool shard per available CPU.
    pub fn new(codec: Codec) -> Self {
        let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
        CodecService::with_shards(codec, shards)
    }

    /// Wraps a codec with an explicit shard count (≥ 1). More shards mean
    /// less checkout contention; scratch memory scales with the number of
    /// concurrently live sessions either way.
    pub fn with_shards(codec: Codec, shards: usize) -> Self {
        // Compile eagerly: the first request should not pay for it.
        let _ = codec.plan();
        CodecService {
            codec,
            shards: (0..shards.max(1)).map(|_| Shard::new(MAX_POOLED_PER_SHARD)).collect(),
            next: AtomicUsize::new(0),
            max_frame: MAX_FRAME,
            serialized: AtomicU64::new(0),
            parsed: AtomicU64::new(0),
            contended_checkout: AtomicU64::new(0),
            contended_checkin: AtomicU64::new(0),
        }
    }

    /// Sets the maximum frame size accepted/emitted by the framing entry
    /// points (default [`MAX_FRAME`]).
    pub fn max_frame(mut self, limit: usize) -> Self {
        self.max_frame = limit;
        self
    }

    /// Sets how many warmed scratch states each shard may park (default
    /// 32). Lower caps bound memory on bursty workloads; zero disables
    /// pooling entirely (every checkout starts a fresh session). The
    /// lock-free free lists size their slabs up front, so this is a
    /// construction-time builder: the (still empty) shards are rebuilt at
    /// the new capacity.
    pub fn pool_capacity(mut self, cap: usize) -> Self {
        let shards = self.shards.len();
        self.shards = (0..shards).map(|_| Shard::new(cap)).collect();
        self
    }

    /// The underlying codec (for building messages and inspecting the
    /// obfuscation plan).
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// The frame-size limit enforced by the framing entry points (set with
    /// [`CodecService::max_frame`]). Transport layers stacking their own
    /// [`FrameBuffer`]s on this service should adopt the same bound.
    pub fn frame_limit(&self) -> usize {
        self.max_frame
    }

    /// Checks a serializer session out of the pool (or starts a fresh one
    /// when every pooled scratch is in use). Dropping the guard returns
    /// the warmed-up scratch to a shard.
    pub fn serializer(&self) -> PooledSerializer<'_> {
        let home = self.shard_hint();
        let session = match self.checkout_serializer(home) {
            Some(scratch) => {
                SerializeSession::from_scratch(self.codec.obf_graph(), self.codec.plan(), scratch)
            }
            None => self.codec.serializer(),
        };
        PooledSerializer { svc: self, home, session: Some(session) }
    }

    /// Checks a parser session out of the pool (or starts a fresh one when
    /// every pooled scratch is in use). Dropping the guard returns the
    /// warmed-up scratch to a shard.
    pub fn parser(&self) -> PooledParser<'_> {
        let home = self.shard_hint();
        let session = match self.checkout_parser(home) {
            Some(scratch) => {
                ParseSession::from_scratch(self.codec.obf_graph(), self.codec.plan(), scratch)
            }
            None => self.codec.parser(),
        };
        PooledParser { svc: self, home, session: Some(session) }
    }

    /// An empty message of this service's codec pre-armed as a reusable
    /// transcode destination for messages parsed by `src` — the relay
    /// target of an obfuscating gateway leg. The compiled copy program
    /// for the (src, self) pairing is cached on the codec and shared by
    /// every target (and thus every relay connection), so per-connection
    /// setup is an `Arc` clone, and per-message transcoding runs the
    /// allocation-free compiled path from the first frame on.
    ///
    /// # Errors
    ///
    /// [`BuildError::GraphMismatch`] when the two services do not share a
    /// structurally identical plain specification (a misconfigured
    /// gateway pair — caught here, before any traffic flows).
    pub fn transcode_target(&self, src: &CodecService) -> Result<Message<'_>, BuildError> {
        self.codec.transcode_target(src.codec())
    }

    /// Serializes a batch of messages through one pooled session,
    /// returning one wire per message.
    ///
    /// # Errors
    ///
    /// The first [`BuildError`] aborts the batch.
    pub fn serialize_batch(&self, msgs: &[Message<'_>]) -> Result<Vec<Vec<u8>>, BuildError> {
        let mut session = self.serializer();
        let mut wires = Vec::with_capacity(msgs.len());
        for msg in msgs {
            let mut wire = Vec::new();
            session.serialize_into(msg, &mut wire)?;
            wires.push(wire);
        }
        self.serialized.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        Ok(wires)
    }

    /// Parses a batch of wires through one pooled session, returning one
    /// recovered message per wire.
    ///
    /// # Errors
    ///
    /// The first [`ParseError`] aborts the batch.
    pub fn parse_batch<'s, B: AsRef<[u8]>>(
        &'s self,
        wires: &[B],
    ) -> Result<Vec<Message<'s>>, ParseError> {
        let mut session = self.parser();
        let mut msgs = Vec::with_capacity(wires.len());
        for wire in wires {
            session.parse_in_place(wire.as_ref())?;
            msgs.push(session.take_message());
        }
        self.parsed.fetch_add(wires.len() as u64, Ordering::Relaxed);
        Ok(msgs)
    }

    /// Serializes one message and appends it to `out` as a length-framed
    /// record (the format of [`crate::framing::FrameWriter`]): the body is
    /// written straight into `out` after a backfilled 4-byte prefix — no
    /// intermediate copy. On error, `out` is left exactly as it was.
    ///
    /// # Errors
    ///
    /// [`FrameError::Build`] for serialization failures,
    /// [`FrameError::TooLarge`] when the body exceeds the service's frame
    /// limit.
    pub fn serialize_framed(&self, msg: &Message<'_>, out: &mut Vec<u8>) -> Result<(), FrameError> {
        let mut session = self.serializer();
        crate::framing::append_frame(&mut session, msg, out, self.max_frame)?;
        self.serialized.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Pops every complete frame buffered in `buf` (fed by the caller's
    /// transport) and parses each through one pooled session.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] for hostile length prefixes,
    /// [`FrameError::Parse`] when a frame does not decode. Earlier frames
    /// of the batch are dropped with the error; the stream should be torn
    /// down anyway.
    pub fn parse_framed<'s>(
        &'s self,
        buf: &mut FrameBuffer,
    ) -> Result<Vec<Message<'s>>, FrameError> {
        let mut session = self.parser();
        let mut msgs = Vec::new();
        while let Some(frame) = buf.peek()? {
            // The buffer enforces its own limit at the length prefix; the
            // service's limit also applies on the receive side, so one
            // misconfigured FrameBuffer cannot bypass it. The offending
            // frame is consumed with the error (as below) so a retry does
            // not re-fail on it.
            if frame.len() > self.max_frame {
                let got = frame.len();
                buf.consume();
                return Err(FrameError::TooLarge { limit: self.max_frame, got });
            }
            // Parse straight out of the buffer (no per-frame copy), then
            // advance the buffer's cursor past the frame. The cursor moves
            // even when the frame does not decode — matching the previous
            // pop()-based contract — so a caller that treats the error as
            // recoverable does not spin on the same poison frame forever.
            let parsed = session.parse_in_place(frame).map_err(FrameError::Parse);
            buf.consume();
            parsed?;
            msgs.push(session.take_message());
        }
        self.parsed.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        Ok(msgs)
    }

    /// Current counters and pool occupancy.
    pub fn stats(&self) -> ServiceStats {
        let count = |f: fn(&Shard) -> usize| self.shards.iter().map(f).sum();
        let out = self.contended_checkout.load(Ordering::Relaxed);
        let inn = self.contended_checkin.load(Ordering::Relaxed);
        ServiceStats {
            shards: self.shards.len(),
            serialized_messages: self.serialized.load(Ordering::Relaxed),
            parsed_messages: self.parsed.load(Ordering::Relaxed),
            pooled_serializers: count(|s| s.serializers.len()),
            pooled_parsers: count(|s| s.parsers.len()),
            pooled_serializer_peak: count(|s| s.serializers.high_water()),
            pooled_parser_peak: count(|s| s.parsers.high_water()),
            checkout_contention: out,
            checkin_contention: inn,
        }
    }

    fn shard_hint(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Scans the shards starting at `home`, popping the first parked
    /// scratch. Every probe is one lock-free [`FreeList::pop`] — a
    /// concurrent checkout on the same shard costs a CAS retry, never a
    /// wait. `None` means every pool is empty — the caller starts a fresh
    /// session instead.
    fn checkout<T>(&self, home: usize, pool_of: impl Fn(&Shard) -> &FreeList<T>) -> Option<T> {
        let n = self.shards.len();
        (0..n).find_map(|i| pool_of(&self.shards[(home + i) % n]).pop())
    }

    /// Parks `item` in the first shard with a free slot, scanning from
    /// `home`; when every shard is at capacity the scratch is dropped —
    /// the pools' memory bound holds even under a burst of returns.
    fn checkin<T>(&self, home: usize, item: T, pool_of: impl Fn(&Shard) -> &FreeList<T>) {
        let n = self.shards.len();
        let mut item = item;
        for i in 0..n {
            match pool_of(&self.shards[(home + i) % n]).push(item) {
                Ok(()) => return,
                Err(bounced) => item = bounced,
            }
        }
    }

    fn checkout_serializer(&self, home: usize) -> Option<SerializeScratch> {
        self.checkout(home, |s| &s.serializers)
    }

    fn checkout_parser(&self, home: usize) -> Option<ParseScratch> {
        self.checkout(home, |s| &s.parsers)
    }

    fn checkin_serializer(&self, home: usize, scratch: SerializeScratch) {
        self.checkin(home, scratch, |s| &s.serializers);
    }

    fn checkin_parser(&self, home: usize, scratch: ParseScratch) {
        self.checkin(home, scratch, |s| &s.parsers);
    }
}

/// A pooled serialization session checked out of a [`CodecService`].
/// Derefs to [`SerializeSession`]; dropping it returns the scratch state
/// to the service.
#[derive(Debug)]
pub struct PooledSerializer<'s> {
    svc: &'s CodecService,
    home: usize,
    session: Option<SerializeSession<'s>>,
}

impl<'s> Deref for PooledSerializer<'s> {
    type Target = SerializeSession<'s>;

    fn deref(&self) -> &SerializeSession<'s> {
        self.session.as_ref().expect("present until drop")
    }
}

impl<'s> DerefMut for PooledSerializer<'s> {
    fn deref_mut(&mut self) -> &mut SerializeSession<'s> {
        self.session.as_mut().expect("present until drop")
    }
}

impl Drop for PooledSerializer<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.svc.checkin_serializer(self.home, session.into_scratch());
        }
    }
}

/// A pooled parse session checked out of a [`CodecService`]. Derefs to
/// [`ParseSession`]; dropping it returns the scratch state to the service.
#[derive(Debug)]
pub struct PooledParser<'s> {
    svc: &'s CodecService,
    home: usize,
    session: Option<ParseSession<'s>>,
}

impl<'s> Deref for PooledParser<'s> {
    type Target = ParseSession<'s>;

    fn deref(&self) -> &ParseSession<'s> {
        self.session.as_ref().expect("present until drop")
    }
}

impl<'s> DerefMut for PooledParser<'s> {
    fn deref_mut(&mut self) -> &mut ParseSession<'s> {
        self.session.as_mut().expect("present until drop")
    }
}

impl Drop for PooledParser<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.svc.checkin_parser(self.home, session.into_scratch());
        }
    }
}

/// Compile-time audit that the shared pieces really cross threads: the
/// codec (graph + cached plan) must be shareable, sessions and messages
/// must be movable to worker threads.
#[allow(dead_code)]
fn assert_thread_safety() {
    fn shared<T: Send + Sync>() {}
    fn movable<T: Send>() {}
    shared::<Codec>();
    shared::<crate::plan::CodecPlan>();
    shared::<crate::obf::ObfGraph>();
    shared::<CodecService>();
    movable::<SerializeSession<'_>>();
    movable::<ParseSession<'_>>();
    movable::<Message<'_>>();
    movable::<PooledSerializer<'_>>();
    movable::<PooledParser<'_>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Obfuscator;
    use crate::graph::{AutoValue, Boundary, GraphBuilder};
    use crate::sample::random_message;
    use crate::value::TerminalKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obfuscated_codec() -> Codec {
        let mut b = GraphBuilder::new("svc");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        b.uint_be(root, "code", 4);
        let g = b.build().unwrap();
        Obfuscator::new(&g).seed(5).max_per_node(2).obfuscate().unwrap()
    }

    #[test]
    fn pooled_sessions_roundtrip_and_are_reused() {
        let svc = CodecService::with_shards(obfuscated_codec(), 2);
        for round in 0..5u64 {
            let mut s = svc.serializer();
            let mut p = svc.parser();
            let mut msg = svc.codec().message_seeded(round);
            msg.set("data", b"hello".as_slice()).unwrap();
            msg.set_uint("code", round).unwrap();
            let mut wire = Vec::new();
            s.serialize_into(&msg, &mut wire).unwrap();
            let back = p.parse_in_place(&wire).unwrap();
            assert_eq!(back.get("data").unwrap().as_bytes(), b"hello");
            assert_eq!(back.get_uint("code").unwrap(), round);
        }
        let stats = svc.stats();
        assert_eq!(stats.pooled_serializers, 1, "scratch returned to the pool and reused");
        assert_eq!(stats.pooled_parsers, 1);
    }

    #[test]
    fn pooled_wire_matches_direct_session_wire() {
        let svc = CodecService::with_shards(obfuscated_codec(), 2);
        let mut msg = svc.codec().message_seeded(1);
        msg.set("data", b"determinism".as_slice()).unwrap();
        msg.set_uint("code", 9).unwrap();
        let mut pooled = Vec::new();
        svc.serializer().serialize_into_seeded(&msg, &mut pooled, 42).unwrap();
        let direct = svc.codec().serialize_seeded(&msg, 42).unwrap();
        assert_eq!(pooled, direct);
    }

    #[test]
    fn batch_apis_roundtrip() {
        let svc = CodecService::with_shards(obfuscated_codec(), 4);
        let mut rng = StdRng::seed_from_u64(3);
        let msgs: Vec<_> = (0..16).map(|_| random_message(svc.codec(), &mut rng)).collect();
        let wires = svc.serialize_batch(&msgs).unwrap();
        assert_eq!(wires.len(), msgs.len());
        let back = svc.parse_batch(&wires).unwrap();
        assert_eq!(back.len(), msgs.len());
        for (orig, parsed) in msgs.iter().zip(&back) {
            assert_eq!(
                crate::serialize::serialize_seeded(svc.codec().obf_graph(), orig, 0).unwrap(),
                crate::serialize::serialize_seeded(svc.codec().obf_graph(), parsed, 0).unwrap(),
                "batch roundtrip must preserve message structure"
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.serialized_messages, 16);
        assert_eq!(stats.parsed_messages, 16);
    }

    #[test]
    fn framed_entry_points_roundtrip() {
        let svc = CodecService::with_shards(obfuscated_codec(), 2);
        let mut stream = Vec::new();
        for i in 0..3u64 {
            let mut msg = svc.codec().message_seeded(i);
            msg.set("data", format!("payload {i}").into_bytes()).unwrap();
            msg.set_uint("code", i).unwrap();
            svc.serialize_framed(&msg, &mut stream).unwrap();
        }
        let mut fb = FrameBuffer::new();
        fb.feed(&stream);
        let msgs = svc.parse_framed(&mut fb).unwrap();
        assert_eq!(msgs.len(), 3);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.get_string("data").unwrap(), format!("payload {i}"));
        }
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn framed_respects_service_frame_limit() {
        let svc = CodecService::with_shards(obfuscated_codec(), 1).max_frame(4);
        let mut msg = svc.codec().message_seeded(1);
        msg.set("data", vec![7u8; 64]).unwrap();
        msg.set_uint("code", 1).unwrap();
        let mut out = Vec::new();
        assert!(matches!(
            svc.serialize_framed(&msg, &mut out),
            Err(FrameError::TooLarge { limit: 4, .. })
        ));
        assert!(out.is_empty(), "nothing written for rejected frames");
    }

    /// A codec that draws random material at serialize time: the auto
    /// length's holder is split with xor, so materialization generates a
    /// fresh share per message.
    fn random_material_codec() -> Codec {
        let mut b = GraphBuilder::new("svc-rng");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        let mut g = crate::obf::ObfGraph::from_plain(&b.build().unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let lp = g.plain().resolve_names(&["len"]).unwrap();
        let holder = g.holder_of(lp).unwrap();
        crate::transform::apply(
            &mut g,
            holder,
            crate::transform::TransformKind::SplitXor,
            &mut rng,
        )
        .unwrap();
        Codec::from_parts(g, Vec::new())
    }

    #[test]
    fn pooled_rng_does_not_leak_across_checkouts() {
        let svc = CodecService::with_shards(random_material_codec(), 1);
        let mut msg = svc.codec().message_seeded(1);
        msg.set("data", b"rng".as_slice()).unwrap();
        // Precondition: the plan draws random material at serialize time
        // (otherwise this test cannot distinguish RNG streams).
        assert_ne!(
            svc.codec().serialize_seeded(&msg, 1).unwrap(),
            svc.codec().serialize_seeded(&msg, 2).unwrap(),
            "fixture must have serialize-time randomness"
        );
        // Park scratch whose RNG sits at a known position (seed 42).
        {
            let mut s = svc.serializer();
            s.reseed(42);
        }
        // The wire an attacker would predict if the pooled session simply
        // continued the seed-42 stream.
        let mut predicted = Vec::new();
        let mut direct = svc.codec().serializer();
        direct.reseed(42);
        direct.serialize_into(&msg, &mut predicted).unwrap();
        // A fresh checkout must NOT reproduce it: from_scratch reseeds.
        let mut got = Vec::new();
        svc.serializer().serialize_into(&msg, &mut got).unwrap();
        assert_ne!(got, predicted, "pooled session continued a caller-seeded RNG stream");
    }

    #[test]
    fn parse_framed_enforces_service_limit() {
        // Even when the caller's FrameBuffer is permissive, the service's
        // own max_frame applies on the receive side.
        let svc = CodecService::with_shards(obfuscated_codec(), 1).max_frame(8);
        let mut fb = FrameBuffer::new(); // default (much larger) limit
        let mut frame = 16u32.to_be_bytes().to_vec();
        frame.extend_from_slice(&[0xAB; 16]);
        fb.feed(&frame);
        assert!(matches!(
            svc.parse_framed(&mut fb),
            Err(FrameError::TooLarge { limit: 8, got: 16 })
        ));
        // The oversized frame was consumed with the error: a retry must
        // not re-fail on it forever.
        assert_eq!(fb.pending(), 0);
        assert!(svc.parse_framed(&mut fb).unwrap().is_empty());
    }

    #[test]
    fn parse_framed_drops_undecodable_frame_instead_of_poisoning() {
        let svc = CodecService::with_shards(obfuscated_codec(), 1);
        let mut fb = FrameBuffer::new();
        // One garbage frame queued ahead of one valid frame.
        let mut garbage = 8u32.to_be_bytes().to_vec();
        garbage.extend_from_slice(&[0xFF; 8]);
        fb.feed(&garbage);
        let mut msg = svc.codec().message_seeded(1);
        msg.set("data", b"ok".as_slice()).unwrap();
        msg.set_uint("code", 1).unwrap();
        let mut valid = Vec::new();
        svc.serialize_framed(&msg, &mut valid).unwrap();
        fb.feed(&valid);
        assert!(matches!(svc.parse_framed(&mut fb), Err(FrameError::Parse(_))));
        // The bad frame was consumed with the error: a retry must deliver
        // the valid frame behind it, not the same error forever.
        let msgs = svc.parse_framed(&mut fb).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].get_uint("code").unwrap(), 1);
        assert_eq!(fb.pending(), 0);
    }

    /// The lock-free pools' headline property, observed through the
    /// legacy counters: 8 threads hammering checkout/checkin on a single
    /// shard record **zero** contention — there is no lock left to miss.
    /// (Under the old `Mutex<Vec<_>>` shards this workload reliably drove
    /// the counters up.)
    #[test]
    fn contention_counters_stay_zero_under_concurrent_hammer() {
        let svc = std::sync::Arc::new(CodecService::with_shards(obfuscated_codec(), 1));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let svc = std::sync::Arc::clone(&svc);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let s = svc.serializer();
                        let p = svc.parser();
                        drop(p);
                        drop(s);
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.checkout_contention, 0, "lock-free checkout cannot contend");
        assert_eq!(stats.checkin_contention, 0, "lock-free checkin cannot contend");
        // The scratch itself still pools and reuses across the churn.
        assert!(stats.pooled_serializers >= 1, "scratch returned to the pool");
    }

    /// The capacity bound is structural: a burst of returns beyond the
    /// per-shard cap drops the excess scratch instead of growing the pool.
    #[test]
    fn pool_capacity_bounds_parked_scratch() {
        let svc = CodecService::with_shards(obfuscated_codec(), 1).pool_capacity(2);
        let guards: Vec<_> = (0..5).map(|_| svc.serializer()).collect();
        drop(guards);
        assert_eq!(svc.stats().pooled_serializers, 2, "checkins beyond the cap are dropped");
        // Zero disables pooling entirely.
        let svc = CodecService::with_shards(obfuscated_codec(), 1).pool_capacity(0);
        drop(svc.serializer());
        drop(svc.parser());
        let stats = svc.stats();
        assert_eq!(stats.pooled_serializers, 0);
        assert_eq!(stats.pooled_parsers, 0);
    }

    #[test]
    fn transcode_target_runs_the_shared_program() {
        let clear = CodecService::with_shards(Codec::identity(obfuscated_codec().plain()), 1);
        let obf = CodecService::with_shards(obfuscated_codec(), 1);
        let mut msg = clear.codec().message_seeded(1);
        msg.set("data", b"via service".as_slice()).unwrap();
        msg.set_uint("code", 4).unwrap();
        let mut target = obf.transcode_target(&clear).unwrap();
        msg.transcode_into(&mut target).unwrap();
        assert_eq!(target.get("data").unwrap().as_bytes(), b"via service");
        assert_eq!(target.get_uint("code").unwrap(), 4);
    }

    #[test]
    fn concurrent_smoke() {
        let svc = std::sync::Arc::new(CodecService::new(obfuscated_codec()));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || {
                    let mut s = svc.serializer();
                    let mut p = svc.parser();
                    let mut wire = Vec::new();
                    for round in 0..50u64 {
                        let mut msg = svc.codec().message_seeded(t * 1000 + round);
                        msg.set("data", format!("t{t} r{round}").into_bytes()).unwrap();
                        msg.set_uint("code", t ^ round).unwrap();
                        s.serialize_into(&msg, &mut wire).unwrap();
                        let back = p.parse_in_place(&wire).unwrap();
                        assert_eq!(back.get_uint("code").unwrap(), t ^ round);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
