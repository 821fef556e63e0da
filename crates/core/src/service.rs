//! The concurrent codec service: one compiled plan, N worker sessions.
//!
//! A [`crate::codec::Codec`] compiles its [`crate::plan::CodecPlan`] once;
//! the plan is immutable and every session interprets it with private
//! scratch state. [`CodecService`] exploits that split: it owns the codec
//! and two **capped pools** of warmed-up session scratch, one for
//! serializers and one for parsers, so any number of threads can check
//! out a session without per-session setup.
//!
//! ```text
//!                        ┌────────────────── CodecService ──────────────────┐
//!   thread A ── serializer() ─▶ Mutex<Vec<SerializeScratch>>  (≤ 32 parked) │
//!   thread B ── parser() ─────▶ Mutex<Vec<ParseScratch>>      (≤ 32 parked) │
//!   thread C ── parser() ─────▶ pool empty → fresh scratch                  │
//!                        │      Codec └─ CodecPlan  (shared, immutable)     │
//!                        └──────────────────────────────────────────────────┘
//! ```
//!
//! Checkout hands back a [`PooledSerializer`] / [`PooledParser`] guard
//! that derefs to the underlying session; dropping the guard returns the
//! scratch (stores, recovery/distribution buffers, message capacity) to
//! the pool, so the next checkout — on any thread — starts warm. A pool
//! parks at most [`POOL_CAPACITY`] scratch states; checkins beyond that
//! drop the scratch. Each checkout and checkin holds the pool's lock for
//! one `Vec` pop or push. The transport checks sessions out once per
//! connection and keeps them for its lifetime, so the lock is never on
//! the per-message path.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::codec::Codec;
use crate::error::BuildError;
use crate::framing::MAX_FRAME;
use crate::message::Message;
use crate::parse::{ParseScratch, ParseSession};
use crate::serialize::{SerializeScratch, SerializeSession};

/// Upper bound of warmed scratch states parked per kind. Checkins beyond
/// the cap drop the scratch instead of growing the pool without bound
/// under bursty connection churn.
pub const POOL_CAPACITY: usize = 32;

/// A thread-safe codec front end: one shared [`Codec`] (and compiled
/// plan) behind capped pools of reusable serializer/parser scratch.
///
/// See the [module docs](self) for the concurrency model. All methods
/// take `&self`; share the service across threads with an
/// [`std::sync::Arc`].
#[derive(Debug)]
pub struct CodecService {
    codec: Codec,
    max_frame: usize,
    serializers: Pool<SerializeScratch>,
    parsers: Pool<ParseScratch>,
}

/// One capped free list of warmed scratch plus its high-water mark.
#[derive(Debug)]
struct Pool<T> {
    parked: Mutex<Vec<T>>,
    peak: AtomicUsize,
}

impl<T> Pool<T> {
    fn new() -> Pool<T> {
        Pool { parked: Mutex::new(Vec::new()), peak: AtomicUsize::new(0) }
    }

    /// The parked list. A panic while the lock is held cannot leave the
    /// `Vec` half-updated, so a poisoned lock is taken over as is.
    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn checkout(&self) -> Option<T> {
        self.lock().pop()
    }

    /// Parks `item` unless the pool is full; a full pool drops it.
    fn checkin(&self, item: T) {
        let mut parked = self.lock();
        if parked.len() < POOL_CAPACITY {
            parked.push(item);
            self.peak.fetch_max(parked.len(), Ordering::Relaxed);
        }
    }
}

/// Point-in-time pool gauges, from [`CodecService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Serializer scratch states currently parked in the pool.
    pub pooled_serializers: usize,
    /// Parser scratch states currently parked in the pool.
    pub pooled_parsers: usize,
    /// Peak serializer pool occupancy — the gauge that tells whether
    /// [`POOL_CAPACITY`] is sized right for the offered load.
    pub pooled_serializer_peak: usize,
    /// Peak parser pool occupancy, as above.
    pub pooled_parser_peak: usize,
}

impl CodecService {
    /// Wraps a codec with empty session pools.
    pub fn new(codec: Codec) -> Self {
        // Compile eagerly: the first request should not pay for it.
        let _ = codec.plan();
        CodecService { codec, max_frame: MAX_FRAME, serializers: Pool::new(), parsers: Pool::new() }
    }

    /// Sets the maximum frame size this service's connections accept and
    /// emit (default [`MAX_FRAME`]).
    pub fn max_frame(mut self, limit: usize) -> Self {
        self.max_frame = limit;
        self
    }

    /// The underlying codec (for building messages and inspecting the
    /// obfuscation plan).
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// The frame-size limit set with [`CodecService::max_frame`].
    /// Transport layers stacking their own
    /// [`crate::framing::FrameBuffer`]s on this service adopt this bound.
    pub fn frame_limit(&self) -> usize {
        self.max_frame
    }

    /// Checks a serializer session out of the pool (or starts a fresh one
    /// when the pool is empty). Dropping the guard returns the warmed-up
    /// scratch to the pool.
    pub fn serializer(&self) -> PooledSerializer<'_> {
        let session = match self.serializers.checkout() {
            Some(scratch) => {
                SerializeSession::from_scratch(self.codec.obf_graph(), self.codec.plan(), scratch)
            }
            None => self.codec.serializer(),
        };
        PooledSerializer { svc: self, session: Some(session) }
    }

    /// Checks a parser session out of the pool (or starts a fresh one when
    /// the pool is empty). Dropping the guard returns the warmed-up
    /// scratch to the pool.
    pub fn parser(&self) -> PooledParser<'_> {
        let session = match self.parsers.checkout() {
            Some(scratch) => {
                ParseSession::from_scratch(self.codec.obf_graph(), self.codec.plan(), scratch)
            }
            None => self.codec.parser(),
        };
        PooledParser { svc: self, session: Some(session) }
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

    /// Current pool occupancy and peaks.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            pooled_serializers: self.serializers.lock().len(),
            pooled_parsers: self.parsers.lock().len(),
            pooled_serializer_peak: self.serializers.peak.load(Ordering::Relaxed),
            pooled_parser_peak: self.parsers.peak.load(Ordering::Relaxed),
        }
    }
}

/// A pooled serialization session checked out of a [`CodecService`].
/// Derefs to [`SerializeSession`]; dropping it returns the scratch state
/// to the service.
#[derive(Debug)]
pub struct PooledSerializer<'s> {
    svc: &'s CodecService,
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
            self.svc.serializers.checkin(session.into_scratch());
        }
    }
}

/// A pooled parse session checked out of a [`CodecService`]. Derefs to
/// [`ParseSession`]; dropping it returns the scratch state to the service.
#[derive(Debug)]
pub struct PooledParser<'s> {
    svc: &'s CodecService,
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
            self.svc.parsers.checkin(session.into_scratch());
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
        let svc = CodecService::new(obfuscated_codec());
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
        let svc = CodecService::new(obfuscated_codec());
        let mut msg = svc.codec().message_seeded(1);
        msg.set("data", b"determinism".as_slice()).unwrap();
        msg.set_uint("code", 9).unwrap();
        let mut pooled = Vec::new();
        svc.serializer().serialize_into_seeded(&msg, &mut pooled, 42).unwrap();
        let direct = svc.codec().serialize_seeded(&msg, 42).unwrap();
        assert_eq!(pooled, direct);
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
        let svc = CodecService::new(random_material_codec());
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

    /// The capacity bound is structural: a burst of returns beyond the
    /// cap drops the excess scratch instead of growing the pool.
    #[test]
    fn pool_capacity_bounds_parked_scratch() {
        let svc = CodecService::new(obfuscated_codec());
        let guards: Vec<_> = (0..POOL_CAPACITY + 3).map(|_| svc.serializer()).collect();
        drop(guards);
        let stats = svc.stats();
        assert_eq!(stats.pooled_serializers, POOL_CAPACITY, "checkins beyond the cap are dropped");
        assert_eq!(stats.pooled_serializer_peak, POOL_CAPACITY);
        assert_eq!(stats.pooled_parsers, 0);
    }

    #[test]
    fn transcode_target_runs_the_shared_program() {
        let clear = CodecService::new(Codec::identity(obfuscated_codec().plain()));
        let obf = CodecService::new(obfuscated_codec());
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
