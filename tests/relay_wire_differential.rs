//! Differential testing of the echo's frame-to-frame copy.
//!
//! An echo ([`WireHop`]) sends the message it parsed back on the same
//! codec. Its parse leaves each element run the plan copies frame to
//! frame ([`CodecPlan::frame_copies`]) in the inbound frame, and its
//! serializer copies that window into the outbound frame as one block.
//! For every frame below, the hop must equal parse → [`append_frame`] of
//! the parsed message from the same serializer seed: the same outbound
//! bytes and the same RNG state after, or the same error at the same
//! stage. On an identity codec it must also equal the staged relay the
//! echo server ran before: parse → self-transcode → serialize. The frames
//! are sampled messages, every truncation of the small ones (a stride of
//! cuts through the large one) and byte flips at both ends, where the
//! counts lie.
//!
//! [`CodecPlan::frame_copies`]: protoobf::core::plan::CodecPlan::frame_copies

use protoobf::core::framing::{append_frame, WireHop, MAX_FRAME};
use protoobf::core::sample::random_message;
use protoobf::core::serialize::SerializeSession;
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

/// Appends `msg` as one frame through `ser`.
fn sent(ser: &mut SerializeSession<'_>, msg: &Message<'_>) -> Outcome {
    let mut out = Vec::new();
    match append_frame(ser, msg, &mut out, MAX_FRAME) {
        Ok(()) => Outcome::Sent(out),
        Err(e) => Outcome::Send(e.to_string()),
    }
}

/// Parse → [`append_frame`] of the parsed message.
fn staged(codec: &Codec, frame: &[u8], seed: u64) -> (Outcome, Vec<u8>) {
    let mut parser = codec.parser();
    let mut ser = codec.serializer();
    ser.reseed(seed);
    let outcome = match parser.parse_in_place(frame) {
        Err(e) => Outcome::Parse(e),
        Ok(msg) => sent(&mut ser, msg),
    };
    (outcome, next_draws(&mut ser, codec))
}

/// The same echo through [`WireHop`].
fn echoed(codec: &Codec, frame: &[u8], seed: u64) -> (Outcome, Vec<u8>) {
    let mut parser = codec.parser();
    let mut ser = codec.serializer();
    ser.reseed(seed);
    let outcome = match WireHop::parse(&mut parser, frame) {
        Err(e) => Outcome::Parse(e),
        Ok(mut hop) => {
            let mut out = Vec::new();
            match hop.send(&mut ser, &mut out, MAX_FRAME) {
                Ok(()) => Outcome::Sent(out),
                Err(e) => Outcome::Send(e.to_string()),
            }
        }
    };
    (outcome, next_draws(&mut ser, codec))
}

/// The echo server's staged relay before it sent the parsed message
/// back: parse, transcode into a seeded self-pair target, serialize.
fn self_transcoded(codec: &Codec, frame: &[u8], seed: u64) -> (Outcome, Vec<u8>) {
    let mut parser = codec.parser();
    let mut target = codec.message_seeded(seed);
    let mut ser = codec.serializer();
    ser.reseed(seed);
    let outcome = match parser.parse_in_place(frame) {
        Err(e) => Outcome::Parse(e),
        Ok(msg) => match msg.transcode_into(&mut target) {
            Err(e) => Outcome::Transcode(e),
            Ok(()) => sent(&mut ser, &target),
        },
    };
    (outcome, next_draws(&mut ser, codec))
}

/// What the serializer writes next for a sampled message of `codec`,
/// which draws pads and split shares: equal output means equal RNG states
/// after the hop.
fn next_draws(ser: &mut SerializeSession<'_>, codec: &Codec) -> Vec<u8> {
    let probe = random_message(codec, &mut StdRng::seed_from_u64(99));
    let mut out = Vec::new();
    ser.serialize_into(&probe, &mut out).unwrap();
    out
}

/// Checks the echo against parse then serialize on `frame` and on its
/// truncations and byte flips, and against the self-transcode when
/// `codec` is an identity codec. Returns how many frames went out.
fn check_frame(codec: &Codec, identity: bool, frame: &[u8], every_cut: bool, what: &str) -> usize {
    let mut sent = 0;
    let mut check = |f: &[u8], how: &str| {
        let seed = f.len() as u64 ^ 0x5eed;
        let echo = echoed(codec, f, seed);
        assert_eq!(staged(codec, f, seed), echo, "{what}: {how}");
        if identity {
            assert_eq!(self_transcoded(codec, f, seed), echo, "{what}: {how}, self-transcode");
        }
        sent += usize::from(matches!(echo.0, Outcome::Sent(_)));
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

/// The identity codec of `graph`, then its obfuscations at levels 1–3
/// under `derive` (a configured obfuscator per level).
fn leveled(graph: &FormatGraph, derive: impl Fn(Obfuscator) -> Obfuscator) -> Vec<Codec> {
    let mut codecs = vec![Codec::identity(graph)];
    for level in 1..=3 {
        codecs.push(derive(Obfuscator::new(graph).max_per_node(level)).obfuscate().unwrap());
    }
    codecs
}

/// The bulk spec at levels 0–3 under both keys, clear and obfuscated,
/// with 0, 1, 3 and 300 records (300 × 30 bytes spans two serializer
/// blocks). Every codec's echo copies every element run frame to frame:
/// ops, pads, reversed columns and folded mirrors included.
#[test]
fn bulk_hops_match_the_staged_relay() {
    let graph = protoobf::spec::parse_spec(BULK_SPEC).unwrap();
    for key in KEYS {
        let codecs = leveled(&graph, |o| o.key(key));
        for (level, codec) in codecs.iter().enumerate() {
            let copies = codec.plan().frame_copies();
            assert!(copies.kernels == copies.loops && copies.loops > 0, "{key}, L{level}");
            for n in [0, 1, 3, 300] {
                let msg = bulk_message(codec, n, u64::from(n));
                let frame = codec.serialize_seeded(&msg, 7).unwrap();
                let what = format!("{key}, L{level}, {n} records");
                assert!(check_frame(codec, level == 0, &frame, n <= 3, &what) > 0);
            }
        }
    }
}

/// Mirror-only derivations: folded mirrors and reversed columns, echoed
/// frame to frame.
#[test]
fn mirrored_bulk_hops_match_the_staged_relay() {
    let graph = protoobf::spec::parse_spec(BULK_SPEC).unwrap();
    let mut folded = 0;
    for seed in 0..4 {
        let codecs = leveled(&graph, |o| o.seed(seed).allowed([TransformKind::ReadFromEnd]));
        for (level, codec) in codecs.iter().enumerate() {
            let copies = codec.plan().frame_copies().kernels;
            folded += usize::from(codec.plan().mirror_folds().kernels > 0 && copies > 0);
            for n in [1, 3] {
                let frame = codec.serialize_seeded(&bulk_message(codec, n, 5), 3).unwrap();
                let what = format!("mirrored, seed {seed}, L{level}, {n} records");
                check_frame(codec, level == 0, &frame, true, &what);
            }
        }
    }
    assert!(folded > 0, "no folded mirror is copied frame to frame");
}

/// Tables that hold the counter of a nested table (and a length
/// reference): an obfuscation that splits such a table puts the counter
/// in an element run of its own, which the echo must gather, since the
/// nested table's parse reads it.
const COUNTED_SPEC: &str = r#"
message Counted {
    u8 n = count(groups);
    tabular groups count_by n {
        u8 k;
        u16 tag;
        tabular items count_by k {
            u16 v;
        }
    }
    u8 m = count(rows);
    tabular rows count_by m {
        u8 len;
        u16 id;
        bytes data sized_by len;
    }
}
"#;

/// The kernel grammar (a `Tab` and a `Rep{CountOf}`, nested tables, a
/// one-column table, an element with an optional) and [`COUNTED_SPEC`]
/// at levels 0–3 under several seeds, on sampled messages.
#[test]
fn kernel_grammar_hops_match_the_staged_relay() {
    let mut copies = 0;
    for spec in [KERNEL_SPEC, COUNTED_SPEC] {
        let graph = protoobf::spec::parse_spec(spec).unwrap();
        for seed in 0..3u64 {
            for (level, codec) in leveled(&graph, |o| o.seed(seed)).iter().enumerate() {
                copies += codec.plan().frame_copies().kernels;
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..3 {
                    let msg = if spec == KERNEL_SPEC {
                        kernel_message(codec, &mut rng)
                    } else {
                        random_message(codec, &mut rng)
                    };
                    let frame = codec.serialize_seeded(&msg, rng.gen()).unwrap();
                    let what = format!("{}, seed {seed}, L{level}", graph.name());
                    check_frame(codec, level == 0, &frame, frame.len() < 200, &what);
                }
            }
        }
    }
    assert!(copies > 0, "no kernel-grammar element run is copied frame to frame");
}

/// `modbus-request` at levels 0–3, whose register table is an element
/// run, on sampled requests.
#[test]
fn modbus_hops_match_the_staged_relay() {
    let graph = modbus::request_graph();
    let mut rng = StdRng::seed_from_u64(3);
    for (level, codec) in leveled(&graph, |o| o.key(KEYS[0])).iter().enumerate() {
        for _ in 0..8 {
            let msg = random_message(codec, &mut rng);
            let frame = codec.serialize_seeded(&msg, rng.gen()).unwrap();
            check_frame(codec, level == 0, &frame, true, &format!("modbus-request, L{level}"));
        }
    }
}
