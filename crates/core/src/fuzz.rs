//! Grammar-aware differential fuzzing over compiled codec plans.
//!
//! The in-tree proptest harnesses (`tests/fuzz_differential.rs`,
//! `tests/transcode_differential.rs`) mutate at random byte offsets.
//! This module is the plan-aware engine behind `protoobf fuzz`: it reads
//! the field and scope boundaries straight off a traced serialization of
//! the compiled [`CodecPlan`](crate::plan::CodecPlan) (see
//! [`SerializeSession::serialize_traced`](crate::serialize::SerializeSession::serialize_traced))
//! and mutates **at those boundaries** — flip the first/last byte of a
//! slot, truncate at a slot edge, delete or duplicate a whole slot's
//! bytes — which is where off-by-one and boundary-recovery bugs live.
//!
//! Every input, pristine or mutated, runs through the full differential
//! stack:
//!
//! 1. **Parse agreement** — compiled-plan session
//!    ([`Codec::parser`]) vs the reference graph-walk parser
//!    ([`crate::reference::parse`]): both reject, or both accept with
//!    structurally equal messages (compared under the seeded reference
//!    serializer).
//! 2. **Transcode agreement** — whenever the parser accepts, the parsed
//!    message is re-expressed through both transcode implementations
//!    ([`Message::transcode_into`] vs [`crate::reference::transcode_into`])
//!    onto the clear codec *and* onto a second obfuscation of the same
//!    spec: the two gateway relay directions.
//! 3. **Echo agreement** — on each of the three codecs, every input
//!    echoed with its element runs copied frame to frame ([`WireHop`])
//!    must give the bytes or the error of parse → [`append_frame`] of the
//!    parsed message, from identically seeded serializers.
//!
//! Any disagreement is a **divergence**: the engine shrinks it to a
//! smallest reproducer with a deterministic ddmin-style loop
//! ([`minimize`]) and dedupes reproducers by plan-slot coverage
//! signature ([`coverage_signature`]), so one root cause files one
//! corpus entry no matter how many mutants tripped over it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::Codec;
use crate::engine::Obfuscator;
use crate::framing::{append_frame, WireHop, MAX_FRAME};
use crate::message::Message;
use crate::reference;
use crate::sample::random_message;
pub use crate::serialize::SlotSpan;

// ---------------------------------------------------------------------------
// differential oracle
// ---------------------------------------------------------------------------

/// Test-only fault injection: rewrites the plan path's normalized parse
/// in place (a `Vec` so a fault may also grow or truncate it).
#[cfg(test)]
type Tamper = fn(&[u8], &mut Vec<u8>);

/// The full differential stack over one codec: plan-vs-walk parsing plus
/// both gateway transcode directions. Holds the three codecs every check
/// needs so per-input checks allocate nothing beyond the parse itself.
#[derive(Debug)]
pub struct DiffOracle<'a> {
    codec: &'a Codec,
    clear: &'a Codec,
    other: &'a Codec,
    /// Seed for the destination-message RNGs of the transcode check
    /// (both paths get identically seeded destinations, so the random
    /// shares of op-splits must line up too).
    seed: u64,
    /// A deliberately broken "transform" applied to the plan path's
    /// normalized parse, used to prove the minimizer shrinks a real
    /// divergence through the real stack.
    #[cfg(test)]
    tamper: Option<Tamper>,
}

impl<'a> DiffOracle<'a> {
    /// Builds the oracle for `codec`. `clear` and `other` must be built
    /// over the same plain spec: the identity codec and a *different*
    /// obfuscation — the two directions a gateway relay transcodes in.
    pub fn new(codec: &'a Codec, clear: &'a Codec, other: &'a Codec, seed: u64) -> Self {
        DiffOracle {
            codec,
            clear,
            other,
            seed,
            #[cfg(test)]
            tamper: None,
        }
    }

    #[cfg(test)]
    fn with_tamper(mut self, tamper: Tamper) -> Self {
        self.tamper = Some(tamper);
        self
    }

    /// Runs `wire` through the whole stack. `None` means every pair of
    /// implementations agreed; `Some(detail)` describes the first
    /// divergence found.
    pub fn check(&self, wire: &[u8]) -> Option<String> {
        let codec = self.codec;
        let echo = [codec, self.clear, self.other]
            .into_iter()
            .find_map(|c| echo_divergence(c, wire, self.seed));
        if echo.is_some() {
            return echo;
        }
        let walk = reference::parse(codec.obf_graph(), wire);
        let mut session = codec.parser();
        let plan = session.parse_in_place(wire).map(|_| ()).map_err(|e| e.to_string());
        let msg = match (walk, plan) {
            (Ok(w), Ok(())) => {
                let p = session.take_message();
                let nw = normalize(codec, &w);
                #[allow(unused_mut)]
                let mut np = normalize(codec, &p);
                #[cfg(test)]
                if let Some(t) = self.tamper {
                    t(wire, &mut np);
                }
                if nw != np {
                    return Some(format!(
                        "parsers accepted {} bytes but recovered different structures\n  \
                         walk: {nw:02x?}\n  plan: {np:02x?}",
                        wire.len()
                    ));
                }
                p
            }
            (Err(_), Err(_)) => return None,
            (Ok(_), Err(e)) => {
                return Some(format!("graph-walk accepted but plan session rejected ({e})"))
            }
            (Err(e), Ok(())) => {
                return Some(format!("plan session accepted but graph-walk rejected ({e})"))
            }
        };
        // Parsed: the relay step must agree in both gateway directions.
        transcode_divergence(&msg, self.clear, self.seed)
            .or_else(|| transcode_divergence(&msg, self.other, self.seed))
    }
}

/// Normalized bytes of a message: reference-serialized with a fixed seed.
fn normalize(codec: &Codec, msg: &Message<'_>) -> Vec<u8> {
    reference::serialize(codec.obf_graph(), msg, 0).expect("normalization serializes")
}

/// Transcodes `src` through both implementations onto `dst` (identically
/// seeded destination messages) and reports any disagreement.
fn transcode_divergence(src: &Message<'_>, dst: &Codec, seed: u64) -> Option<String> {
    let mut compiled = dst.message_seeded(seed);
    let mut walked = dst.message_seeded(seed);
    let ra = src.transcode_into(&mut compiled);
    let rb = reference::transcode_into(src, &mut walked);
    match (ra, rb) {
        (Ok(()), Ok(())) => {
            let sa = reference::serialize(dst.obf_graph(), &compiled, 0).map_err(|e| e.to_string());
            let sb = reference::serialize(dst.obf_graph(), &walked, 0).map_err(|e| e.to_string());
            if sa != sb {
                Some(format!(
                    "transcode paths diverged onto {}\n  compiled: {sa:02x?}\n  walk:     {sb:02x?}",
                    dst.plain().name()
                ))
            } else {
                None
            }
        }
        (Err(ea), Err(eb)) => {
            if std::mem::discriminant(&ea) == std::mem::discriminant(&eb) {
                None
            } else {
                Some(format!("transcode errors diverged: compiled {ea:?} vs walk {eb:?}"))
            }
        }
        (ra, rb) => Some(format!("transcode outcomes diverged: compiled {ra:?} vs walk {rb:?}")),
    }
}

/// Echoes `wire` on `codec` through one [`WireHop`] and through parse →
/// [`append_frame`] of the parsed message, from identically seeded
/// serializers, and reports any disagreement.
fn echo_divergence(codec: &Codec, wire: &[u8], seed: u64) -> Option<String> {
    let (mut staged_ser, mut hop_ser) = (codec.serializer(), codec.serializer());
    staged_ser.reseed(seed);
    hop_ser.reseed(seed);
    let (mut staged_out, mut hop_out) = (Vec::new(), Vec::new());
    let mut parser = codec.parser();
    let staged = match parser.parse_in_place(wire) {
        Err(e) => Err(format!("parse: {e}")),
        Ok(msg) => append_frame(&mut staged_ser, msg, &mut staged_out, MAX_FRAME)
            .map_err(|e| format!("send: {e}")),
    };
    let hopped = match WireHop::parse(&mut parser, wire) {
        Err(e) => Err(format!("parse: {e}")),
        Ok(mut hop) => {
            hop.send(&mut hop_ser, &mut hop_out, MAX_FRAME).map_err(|e| format!("send: {e}"))
        }
    };
    (staged != hopped || staged_out != hop_out).then(|| {
        format!(
            "echo on {} diverged from parse then serialize\n  staged: {staged:?} \
             {staged_out:02x?}\n  hop:    {hopped:?} {hop_out:02x?}",
            codec.plain().name()
        )
    })
}

// ---------------------------------------------------------------------------
// plan-aware mutation
// ---------------------------------------------------------------------------

/// Applies one plan-aware mutation to `wire`, targeting the slot
/// boundaries recorded in `spans` (a traced serialization of the
/// pristine ancestor — offsets are clamped to the current length, so a
/// chain of mutations keeps aiming near real field edges).
pub fn mutate_plan_aware(wire: &mut Vec<u8>, spans: &[SlotSpan], rng: &mut StdRng) {
    if wire.is_empty() {
        wire.push(rng.gen());
        return;
    }
    // Prefer a non-empty span; fall back to whatever we drew.
    let span = (0..4)
        .map(|_| spans[rng.gen_range(0..spans.len().max(1)).min(spans.len() - 1)])
        .find(|s| !s.is_empty())
        .unwrap_or(spans[0]);
    let len = wire.len();
    let start = (span.start as usize).min(len - 1);
    let end = (span.end as usize).clamp(start + 1, len);
    match rng.gen_range(0u8..8) {
        // Flip the first byte of the slot.
        0 => wire[start] ^= rng.gen::<u8>() | 1,
        // Flip the last byte of the slot.
        1 => wire[end - 1] ^= rng.gen::<u8>() | 1,
        // Truncate at the slot edge (start, or end when that shortens).
        2 => wire.truncate(if rng.gen() && end < len { end } else { start }),
        // Delete the slot's bytes: structural absence, aligned.
        3 => {
            wire.drain(start..end);
        }
        // Duplicate the slot's bytes in place: repeated element / double
        // header, still boundary-aligned.
        4 => {
            let dup: Vec<u8> = wire[start..end].to_vec();
            wire.splice(end..end, dup);
        }
        // Zero the slot (minimum values, empty counters).
        5 => wire[start..end].fill(0),
        // Saturate the slot (overflow lengths/counters).
        6 => wire[start..end].fill(0xFF),
        // Insert a byte exactly at the slot boundary.
        _ => wire.insert(start, rng.gen()),
    }
}

// ---------------------------------------------------------------------------
// minimization & coverage
// ---------------------------------------------------------------------------

/// Shrinks `wire` to a locally minimal input for which `diverges` still
/// holds, with a deterministic ddmin-style loop: chunk removal at
/// halving granularities down to single bytes, iterated to a fixpoint.
/// The result is 1-minimal with respect to byte removal — deleting any
/// single byte no longer diverges.
///
/// `diverges(wire)` must be true on entry; the result preserves it.
pub fn minimize(wire: &[u8], diverges: &mut dyn FnMut(&[u8]) -> bool) -> Vec<u8> {
    let mut cur = wire.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < cur.len() {
            let end = (i + chunk).min(cur.len());
            let cand: Vec<u8> = [&cur[..i], &cur[end..]].concat();
            if diverges(&cand) {
                cur = cand;
                reduced = true;
                // Do not advance: the next chunk shifted into place.
            } else {
                i = end;
            }
        }
        if cur.is_empty() || (chunk == 1 && !reduced) {
            break;
        }
        if chunk > 1 {
            chunk = (chunk / 2).max(1);
        }
    }
    cur
}

/// A dedupe key for fuzz inputs: hashes *which plan slots* the parse
/// populated (with their repetition scopes and value widths) — or, for
/// rejected inputs, the typed parse error — so inputs exercising the
/// same structural path collapse to one signature. Stable within a
/// process run, which is the dedupe scope.
pub fn coverage_signature(codec: &Codec, wire: &[u8]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut session = codec.parser();
    match session.parse_in_place(wire) {
        Ok(_) => {
            0u8.hash(&mut h);
            let msg = session.take_message();
            for (slot, scope, bytes) in msg.populated_wires() {
                slot.hash(&mut h);
                scope.as_slice().hash(&mut h);
                bytes.len().hash(&mut h);
            }
        }
        Err(e) => {
            1u8.hash(&mut h);
            std::mem::discriminant(&e).hash(&mut h);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// the fuzzing loop
// ---------------------------------------------------------------------------

/// Configuration of one [`fuzz_codec`] run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of seed messages to sample (each spawns a mutation chain).
    pub cases: u32,
    /// RNG seed: same seed + same codec → same run, bit for bit.
    pub seed: u64,
    /// Mutations chained per case (each link is checked).
    pub mutations_per_case: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { cases: 256, seed: 0x0BF5_CA7E, mutations_per_case: 6 }
    }
}

/// A minimized, deduplicated divergence found by [`fuzz_codec`].
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The minimized diverging wire.
    pub wire: Vec<u8>,
    /// The original (pre-minimization) diverging wire.
    pub original: Vec<u8>,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Plan-slot coverage signature of the minimized wire (dedupe key).
    pub signature: u64,
}

/// Aggregate result of a [`fuzz_codec`] run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Inputs executed through the differential stack.
    pub executions: u64,
    /// Inputs both parsers accepted.
    pub accepted: u64,
    /// Inputs both parsers rejected.
    pub rejected: u64,
    /// Distinct plan-slot coverage signatures observed.
    pub signatures: usize,
    /// Minimized divergences, deduplicated by coverage signature.
    pub divergences: Vec<Reproducer>,
}

/// Fuzzes one codec: samples `cfg.cases` random messages, serializes
/// each with span tracing, then walks a chain of plan-aware mutations —
/// checking the pristine wire and every mutant through the full
/// differential stack. Divergences are minimized ([`minimize`]) and
/// deduplicated by coverage signature before being reported.
pub fn fuzz_codec(codec: &Codec, cfg: &FuzzConfig) -> FuzzReport {
    let clear = Codec::identity(codec.plain());
    let other = Obfuscator::new(codec.plain())
        .seed(cfg.seed ^ 0x0007_EA11)
        .max_per_node(2)
        .obfuscate()
        .expect("builtin specs obfuscate at level 2");
    let oracle = DiffOracle::new(codec, &clear, &other, cfg.seed);
    fuzz_with_oracle(codec, &oracle, cfg)
}

/// The [`fuzz_codec`] loop over a caller-built oracle (the test seam the
/// fault-injection tests use).
fn fuzz_with_oracle(codec: &Codec, oracle: &DiffOracle<'_>, cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut seen = std::collections::HashSet::new();
    let mut found = std::collections::HashSet::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut session = codec.serializer();
    let mut wire = Vec::new();
    let mut spans = Vec::new();

    let mut run_one = |report: &mut FuzzReport, wire: &[u8]| {
        report.executions += 1;
        let sig = coverage_signature(codec, wire);
        seen.insert(sig);
        if coverage_ok(codec, wire) {
            report.accepted += 1;
        } else {
            report.rejected += 1;
        }
        if let Some(detail) = oracle.check(wire) {
            let min = minimize(wire, &mut |w| oracle.check(w).is_some());
            let min_sig = coverage_signature(codec, &min);
            if found.insert(min_sig) {
                report.divergences.push(Reproducer {
                    wire: min,
                    original: wire.to_vec(),
                    detail,
                    signature: min_sig,
                });
            }
        }
    };

    // Covert-tunnel corpus: when the spec has carrier slots, every fourth
    // seed case is a cover message whose carriers hold a live tunnel
    // frame (header + payload chunk), so the plan-aware boundary
    // mutations exercise the spans a [`crate::tunnel::ChannelMap`]
    // writes through — not just sampler-shaped values.
    let mut tunnel_enc = crate::tunnel::TunnelEncoder::new(codec, cfg.seed ^ 0x7u64).ok();

    for case in 0..cfg.cases {
        let mut msg = None;
        if case % 4 == 3 {
            if let Some(enc) = &mut tunnel_enc {
                let chunk: Vec<u8> = (0..rng.gen_range(1usize..48)).map(|_| rng.gen()).collect();
                enc.push(&chunk);
                msg = enc.next_cover().ok().flatten().map(|f| f.message);
            }
        }
        let msg = msg.unwrap_or_else(|| random_message(codec, &mut rng));
        session.reseed(rng.gen());
        if session.serialize_traced(&msg, &mut wire, &mut spans).is_err() {
            // Sampled messages serialize for all builtin specs; a failure
            // here would itself be a sampler bug — skip defensively.
            continue;
        }
        run_one(&mut report, &wire);
        for _ in 0..cfg.mutations_per_case {
            mutate_plan_aware(&mut wire, &spans, &mut rng);
            run_one(&mut report, &wire);
        }
    }
    report.signatures = seen.len();
    report
}

/// Whether the plan session accepts `wire` (bookkeeping only — the
/// differential verdict comes from [`DiffOracle::check`]).
fn coverage_ok(codec: &Codec, wire: &[u8]) -> bool {
    codec.parser().parse_in_place(wire).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Boundary, GraphBuilder};
    use crate::FormatGraph;

    fn toy_graph() -> FormatGraph {
        let mut b = GraphBuilder::new("toy");
        let root = b.root_sequence("msg", Boundary::End);
        b.uint_be(root, "id", 2);
        b.uint_be(root, "code", 1);
        b.build().unwrap()
    }

    fn toy_codec(level: u32, seed: u64) -> Codec {
        let g = toy_graph();
        if level == 0 {
            Codec::identity(&g)
        } else {
            Obfuscator::new(&g).seed(seed).max_per_node(level).obfuscate().unwrap()
        }
    }

    #[test]
    fn traced_spans_cover_the_wire_and_nest() {
        let codec = toy_codec(2, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let msg = random_message(&codec, &mut rng);
        let mut session = codec.serializer();
        let (mut wire, mut spans) = (Vec::new(), Vec::new());
        session.reseed(3);
        session.serialize_traced(&msg, &mut wire, &mut spans).unwrap();
        assert!(!spans.is_empty());
        // The root span covers the whole wire; every span is in bounds
        // and well-formed.
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans[0].end as usize, wire.len());
        for s in &spans {
            assert!(s.start <= s.end, "inverted span {s:?}");
            assert!(s.end as usize <= wire.len(), "span out of bounds {s:?}");
        }
        // Tracing must not change the bytes: a plain serialization with
        // the same seed produces the identical wire.
        let mut plain = Vec::new();
        session.serialize_into_seeded(&msg, &mut plain, 3).unwrap();
        assert_eq!(plain, wire);
    }

    #[test]
    fn minimize_shrinks_to_locally_minimal_input() {
        // A toy oracle: diverges iff the wire contains the byte 0xAB.
        let mut oracle = |w: &[u8]| w.contains(&0xAB);
        let wire: Vec<u8> = (0..64u8).chain([0xAB]).chain(64..128u8).collect();
        let min = minimize(&wire, &mut oracle);
        assert_eq!(min, vec![0xAB], "must shrink to the single guilty byte");
    }

    #[test]
    fn minimize_preserves_multi_byte_witness() {
        // Diverges iff 0xDE appears before 0xAD (order-sensitive pair).
        let mut oracle = |w: &[u8]| {
            let d = w.iter().position(|&b| b == 0xDE);
            let a = w.iter().position(|&b| b == 0xAD);
            matches!((d, a), (Some(d), Some(a)) if d < a)
        };
        let wire: Vec<u8> = [1, 2, 0xDE, 3, 4, 5, 0xAD, 6, 7].to_vec();
        let min = minimize(&wire, &mut oracle);
        assert_eq!(min, vec![0xDE, 0xAD]);
        // 1-minimality: removing either byte kills the divergence.
        for i in 0..min.len() {
            let cand: Vec<u8> = [&min[..i], &min[i + 1..]].concat();
            assert!(!oracle(&cand), "not 1-minimal at {i}");
        }
    }

    /// The deliberately broken toy transform: mis-normalizes the plan
    /// path whenever the wire is ≥ 2 bytes — a fault the differential
    /// stack must surface and the minimizer must preserve while
    /// shrinking.
    #[allow(clippy::ptr_arg)] // signature is pinned by the `Tamper` fn type
    fn broken_transform(wire: &[u8], plan_normalized: &mut Vec<u8>) {
        if wire.len() >= 2 {
            if let Some(b) = plan_normalized.first_mut() {
                *b ^= 0x40;
            }
        }
    }

    #[test]
    fn seeded_divergence_shrinks_to_minimal_reproducer() {
        let codec = toy_codec(0, 0); // identity: 3-byte wires, all parse
        let clear = Codec::identity(codec.plain());
        let other = Obfuscator::new(codec.plain()).seed(5).max_per_node(2).obfuscate().unwrap();
        let oracle = DiffOracle::new(&codec, &clear, &other, 11).with_tamper(broken_transform);

        let wire = vec![0x01, 0x02, 0x03];
        let detail = oracle.check(&wire).expect("tampered stack must diverge");
        assert!(detail.contains("different structures"), "unexpected divergence: {detail}");

        let min = minimize(&wire, &mut |w| oracle.check(w).is_some());
        // The toy spec needs exactly 3 bytes to parse at all, and the
        // tamper fires on ≥2 — so the minimal reproducer is the full
        // 3-byte frame, still diverging.
        assert!(oracle.check(&min).is_some(), "minimized input no longer diverges");
        assert_eq!(min.len(), 3, "minimal reproducer must stay exactly one parseable frame");
    }

    #[test]
    fn fuzz_loop_reports_seeded_divergence_once() {
        let codec = toy_codec(0, 0);
        let clear = Codec::identity(codec.plain());
        let other = Obfuscator::new(codec.plain()).seed(5).max_per_node(2).obfuscate().unwrap();
        let oracle = DiffOracle::new(&codec, &clear, &other, 11).with_tamper(broken_transform);
        let cfg = FuzzConfig { cases: 8, seed: 42, mutations_per_case: 4 };
        let report = fuzz_with_oracle(&codec, &oracle, &cfg);
        assert!(report.executions >= 8);
        // Every accepted wire diverges under the tamper, but they all
        // shrink to the same structural signature: exactly one
        // reproducer survives dedupe.
        assert_eq!(report.divergences.len(), 1, "dedupe by coverage signature failed");
        let rep = &report.divergences[0];
        assert!(oracle.check(&rep.wire).is_some(), "pinned reproducer must still diverge");
        assert!(rep.wire.len() <= rep.original.len());
    }

    #[test]
    fn clean_codecs_survive_plan_aware_fuzzing() {
        for (level, seed) in [(0u32, 0u64), (1, 1), (3, 2)] {
            let codec = toy_codec(level, seed);
            let report =
                fuzz_codec(&codec, &FuzzConfig { cases: 24, seed: 7, mutations_per_case: 5 });
            assert!(
                report.divergences.is_empty(),
                "level {level} diverged: {:?}",
                report.divergences.iter().map(|d| &d.detail).collect::<Vec<_>>()
            );
            assert!(report.accepted > 0, "no valid wire survived at level {level}");
            assert!(report.rejected > 0, "mutations never produced a hostile wire");
            assert!(report.signatures > 1, "coverage signatures collapsed");
        }
    }

    #[test]
    fn mutations_hit_slot_boundaries() {
        let codec = toy_codec(1, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let msg = random_message(&codec, &mut rng);
        let mut session = codec.serializer();
        let (mut wire, mut spans) = (Vec::new(), Vec::new());
        session.reseed(1);
        session.serialize_traced(&msg, &mut wire, &mut spans).unwrap();
        let pristine = wire.clone();
        let mut changed = 0;
        for _ in 0..32 {
            let mut w = pristine.clone();
            mutate_plan_aware(&mut w, &spans, &mut rng);
            if w != pristine {
                changed += 1;
            }
        }
        // Zero-filling an already-zero slot is the one remaining no-op;
        // everything else must visibly change the wire.
        assert!(changed >= 26, "mutator left the wire untouched too often ({changed}/32)");
    }
}
