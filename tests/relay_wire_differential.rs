//! Differential testing of the relay's wire programs.
//!
//! A relay hop ([`WireHop`]) runs the column copies of its copy program
//! that are block copies (one element layout at both ends, no ops, no
//! pads) frame to frame: the parse leaves the element run in the inbound
//! frame and the serializer copies that window into the outbound frame.
//! Everything else is parse → transcode → serialize. For every frame below, the hop must equal that path run
//! from the same serializer seed: the same outbound bytes and the same
//! RNG state after, or the same error at the same stage. The frames are
//! sampled messages, every truncation of the small ones (a stride of cuts
//! through the large one) and byte flips at both ends, where the counts
//! lie.

use protoobf::core::framing::{append_frame, WireHop, MAX_FRAME};
use protoobf::core::plan::CopyProgram;
use protoobf::core::sample::random_message;
use protoobf::core::{BuildError, ParseError};
use protoobf::protocols::modbus;
use protoobf::{Codec, FormatGraph, Message, Obfuscator, TransformKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod kernel;
use kernel::{kernel_message, KERNEL_SPEC};

/// The benchmark's bulk record table (`e2ebench/specs/bulk.spec`).
const BULK_SPEC: &str = include_str!("../e2ebench/specs/bulk.spec");

/// The benchmark's key, and a second one.
const KEYS: [&str; 2] = ["e2ebench shared secret", "pinned key 2"];

/// How a hop ended: the outbound frame, or the stage that failed and
/// its error.
#[derive(Debug, PartialEq)]
enum Outcome {
    Sent(Vec<u8>),
    Parse(ParseError),
    Transcode(BuildError),
    Send(String),
}

/// One hop of `frame` from `src` onto `dst` through the stages a relay
/// ran before wire programs: parse, transcode, serialize.
fn staged(src: &Codec, dst: &Codec, frame: &[u8], seed: u64) -> (Outcome, Vec<u8>) {
    let mut parser = src.parser();
    let mut target = armed_target(src, dst, seed);
    let mut ser = dst.serializer();
    ser.reseed(seed);
    let outcome = match parser.parse_in_place(frame) {
        Err(e) => Outcome::Parse(e),
        Ok(msg) => match msg.transcode_into(&mut target) {
            Err(e) => Outcome::Transcode(e),
            Ok(()) => {
                let mut out = Vec::new();
                match append_frame(&mut ser, &target, &mut out, MAX_FRAME) {
                    Ok(()) => Outcome::Sent(out),
                    Err(e) => Outcome::Send(e.to_string()),
                }
            }
        },
    };
    (outcome, next_draws(&mut ser, dst))
}

/// The same hop through [`WireHop`].
fn hopped(src: &Codec, dst: &Codec, frame: &[u8], seed: u64) -> (Outcome, Vec<u8>) {
    let mut parser = src.parser();
    let mut target = armed_target(src, dst, seed);
    let mut ser = dst.serializer();
    ser.reseed(seed);
    let outcome = match WireHop::parse(&mut parser, frame, &mut target) {
        Err(e) => Outcome::Parse(e),
        Ok(mut hop) => match hop.transcode() {
            Err(e) => Outcome::Transcode(e),
            Ok(()) => {
                let mut out = Vec::new();
                match hop.send(&mut ser, &mut out, MAX_FRAME) {
                    Ok(()) => Outcome::Sent(out),
                    Err(e) => Outcome::Send(e.to_string()),
                }
            }
        },
    };
    (outcome, next_draws(&mut ser, dst))
}

/// A relay target of `dst` for messages of `src` with a seeded RNG (the
/// copy program draws split shares from it), armed with the pairing's
/// copy program by transcoding an empty message.
fn armed_target<'d>(src: &Codec, dst: &'d Codec, seed: u64) -> Message<'d> {
    let mut target = dst.message_seeded(seed);
    let _ = src.message_seeded(0).transcode_into(&mut target);
    target
}

/// What the serializer writes next for a sampled message of `dst`, which
/// draws pads and split shares: equal output means equal RNG states after
/// the hop.
fn next_draws(ser: &mut protoobf::core::serialize::SerializeSession<'_>, dst: &Codec) -> Vec<u8> {
    let probe = random_message(dst, &mut StdRng::seed_from_u64(99));
    let mut out = Vec::new();
    ser.serialize_into(&probe, &mut out).unwrap();
    out
}

/// Checks the hop against the staged path on `frame` and on its
/// truncations and byte flips. Returns how many frames went out.
fn check_frame(src: &Codec, dst: &Codec, frame: &[u8], every_cut: bool, what: &str) -> usize {
    let mut sent = 0;
    let mut check = |f: &[u8], how: &str| {
        let seed = f.len() as u64 ^ 0x5eed;
        let a = staged(src, dst, f, seed);
        let b = hopped(src, dst, f, seed);
        assert_eq!(a, b, "{what}: {how}");
        sent += usize::from(matches!(a.0, Outcome::Sent(_)));
    };
    check(frame, "whole frame");
    let step = if every_cut { 1 } else { 97 };
    for cut in (0..frame.len()).step_by(step) {
        check(&frame[..cut], &format!("cut at {cut}"));
    }
    let ends = (0..frame.len().min(16)).chain(frame.len().saturating_sub(16)..frame.len());
    for at in ends {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut f = frame.to_vec();
            f[at] ^= flip;
            check(&f, &format!("byte {at} ^ {flip:#x}"));
        }
    }
    sent
}

/// A bulk message with `n` records and a short tail.
fn bulk_message<'c>(codec: &'c Codec, n: u32, seed: u64) -> Message<'c> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut msg = codec.message_seeded(seed);
    for i in 0..n {
        msg.set_uint(&format!("records[{i}].key"), rng.gen::<u32>().into()).unwrap();
        msg.set_uint(&format!("records[{i}].flags"), rng.gen::<u16>().into()).unwrap();
        let payload: Vec<u8> = (0..24).map(|_| rng.gen()).collect();
        msg.set(&format!("records[{i}].payload"), payload).unwrap();
    }
    msg.set("tail", b"tail bytes".to_vec()).unwrap();
    msg
}

/// Every direction a relay chain runs over `codecs` (the clear codec
/// first): each codec into every other, and into itself (the echo).
fn pairs(codecs: &[Codec]) -> impl Iterator<Item = (&Codec, &Codec)> {
    codecs.iter().flat_map(move |a| codecs.iter().map(move |b| (a, b)))
}

fn bulk_codecs(graph: &FormatGraph, key: &str) -> Vec<Codec> {
    let mut codecs = vec![Codec::identity(graph)];
    for level in 1..=3 {
        codecs.push(Obfuscator::new(graph).key(key).max_per_node(level).obfuscate().unwrap());
    }
    codecs
}

/// The bulk spec at levels 0–3 under both keys, every direction, with
/// 0, 1, 3 and 300 records (300 × 30 bytes spans two serializer blocks).
/// The clear codec's self-transcode (the echo) runs its column copy wire
/// to wire.
#[test]
fn bulk_hops_match_the_staged_relay() {
    let graph = protoobf::spec::parse_spec(BULK_SPEC).unwrap();
    for key in KEYS {
        let codecs = bulk_codecs(&graph, key);
        for (src, dst) in pairs(&codecs) {
            let prog = CopyProgram::compile(src.obf_graph(), dst.obf_graph()).unwrap();
            let wired = prog.wire_copies();
            if std::ptr::eq(src, &codecs[0]) && std::ptr::eq(dst, &codecs[0]) {
                assert!(wired.kernels == wired.loops && wired.loops > 0, "{key}: {wired:?}");
            }
            for n in [0, 1, 3, 300] {
                let msg = bulk_message(src, n, u64::from(n));
                let frame = src.serialize_seeded(&msg, 7).unwrap();
                let sent = check_frame(src, dst, &frame, n <= 3, &format!("{key}, {n} records"));
                assert!(sent > 0);
            }
        }
    }
}

/// Mirror-only derivations: folded mirrors and reversed columns on
/// either side of a hop.
#[test]
fn mirrored_bulk_hops_match_the_staged_relay() {
    let graph = protoobf::spec::parse_spec(BULK_SPEC).unwrap();
    let mut codecs = vec![Codec::identity(&graph)];
    for seed in 0..4 {
        codecs.push(
            Obfuscator::new(&graph)
                .seed(seed)
                .max_per_node(2)
                .allowed([TransformKind::ReadFromEnd])
                .obfuscate()
                .unwrap(),
        );
    }
    let folds: usize = codecs.iter().map(|c| c.plan().mirror_folds().kernels).sum();
    assert!(folds > 0, "no derivation folds a mirror");
    let mut wired = 0;
    for (src, dst) in pairs(&codecs) {
        let prog = CopyProgram::compile(src.obf_graph(), dst.obf_graph()).unwrap();
        let folded = src.plan().mirror_folds().kernels > 0 && dst.plan().mirror_folds().kernels > 0;
        wired += usize::from(folded) * prog.wire_copies().kernels;
        for n in [1, 3] {
            let frame = src.serialize_seeded(&bulk_message(src, n, 5), 3).unwrap();
            check_frame(src, dst, &frame, true, &format!("mirrored, {n} records"));
        }
    }
    assert!(wired > 0, "no block copy between two folded derivations");
}

/// The kernel grammar (a `Tab` and a `Rep{CountOf}`, nested tables, a
/// one-column table, an element with an optional) at levels 0–3 under
/// several seeds, on sampled messages.
#[test]
fn kernel_grammar_hops_match_the_staged_relay() {
    let graph = protoobf::spec::parse_spec(KERNEL_SPEC).unwrap();
    let mut wired = 0;
    for seed in 0..3u64 {
        let mut codecs = vec![Codec::identity(&graph)];
        for level in 1..=3 {
            codecs
                .push(Obfuscator::new(&graph).seed(seed).max_per_node(level).obfuscate().unwrap());
        }
        for (src, dst) in pairs(&codecs) {
            wired += CopyProgram::compile(src.obf_graph(), dst.obf_graph())
                .unwrap()
                .wire_copies()
                .kernels;
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..3 {
                let msg = kernel_message(src, &mut rng);
                let frame = src.serialize_seeded(&msg, rng.gen()).unwrap();
                check_frame(src, dst, &frame, frame.len() < 200, "kernel grammar");
            }
        }
    }
    assert!(wired > 0, "no kernel-grammar column copy runs wire to wire");
}

/// `modbus-request` at levels 0–1, whose register table is a column
/// copy (a block copy between the level-0 codecs), on sampled requests.
#[test]
fn modbus_hops_match_the_staged_relay() {
    let graph = modbus::request_graph();
    let codecs: Vec<Codec> = (0..=1)
        .map(|level| {
            if level == 0 {
                Codec::identity(&graph)
            } else {
                Obfuscator::new(&graph).key(KEYS[0]).max_per_node(level).obfuscate().unwrap()
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(3);
    for (src, dst) in pairs(&codecs) {
        for _ in 0..8 {
            let msg = random_message(src, &mut rng);
            let frame = src.serialize_seeded(&msg, rng.gen()).unwrap();
            check_frame(src, dst, &frame, true, "modbus-request");
        }
    }
}
