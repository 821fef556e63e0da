//! Differential/property tests of the covert tunnel subsystem
//! (`core::tunnel`) across the builtin protocol suite.
//!
//! Three claims are pinned, over every builtin × obfuscation level:
//!
//! * **lossless**: any payload (0 bytes up to 64 KiB) pushed through
//!   encoder → gateway pair (clear → obfuscated → clear transcode, the
//!   exact per-message work a deployed relay chain performs) → decoder
//!   comes out byte-identical;
//! * **tamper-safe**: corrupted carrier channels produce typed
//!   [`TunnelError`]s or are ignored as plain cover — never a panic and
//!   never silently wrong bytes;
//! * **delivery-tolerant**: reordered frames reassemble, dropped frames
//!   leave the decoder typed-incomplete.
//!
//! Case counts share the `PROTOOBF_FUZZ_CASES` knob with the other
//! differential harnesses so the CI stress matrix drives all of them
//! from one variable.

use proptest::prelude::*;
use protoobf::core::tunnel::{encode_stream, ChannelMap, TunnelDecoder, TunnelError};
use protoobf::protocols::{builtin, BUILTIN_NAMES};
use protoobf::{Codec, FormatGraph, Message, Obfuscator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn graph_of(proto: &str) -> FormatGraph {
    builtin(proto).unwrap_or_else(|| panic!("unknown builtin {proto:?}"))
}

fn obf_codec(graph: &FormatGraph, level: u32) -> Codec {
    if level == 0 {
        Codec::identity(graph)
    } else {
        Obfuscator::new(graph).seed(23).max_per_node(level).obfuscate().unwrap()
    }
}

/// Pushes every encoded cover message through the full gateway-pair
/// chain — clear parse, transcode to the obfuscated grammar, obfuscated
/// serialize + parse, transcode back to clear — and feeds the surviving
/// clear messages to a decoder. Returns the reassembled payload.
fn round_trip_via_gateways(
    clear: &Codec,
    obf: &Codec,
    msgs: &[Message<'_>],
    seed: u64,
) -> Result<Vec<u8>, TunnelError> {
    let mut clear_parser = clear.parser();
    let mut obf_parser = obf.parser();
    let mut obf_serializer = obf.serializer();
    let mut to_obf = obf.transcode_target(clear).unwrap();
    let mut to_clear = clear.transcode_target(obf).unwrap();
    let mut obf_wire = Vec::new();

    let mut dec = TunnelDecoder::new(clear)?;
    let mut out = Vec::new();
    for (i, msg) in msgs.iter().enumerate() {
        let clear_wire = clear.serialize_seeded(msg, seed ^ i as u64).unwrap();
        let inbound = clear_parser.parse_in_place(&clear_wire).unwrap();
        inbound.transcode_into(&mut to_obf).unwrap();
        obf_serializer
            .serialize_into_seeded(&to_obf, &mut obf_wire, seed ^ (i as u64) << 1)
            .unwrap();
        let upstream = obf_parser.parse_in_place(&obf_wire).unwrap();
        upstream.transcode_into(&mut to_clear).unwrap();
        dec.accept(&to_clear)?;
        dec.take_ready(&mut out);
    }
    if !dec.is_complete() {
        return Err(TunnelError::Incomplete {
            delivered: dec.bytes_delivered(),
            expected: dec.total_expected(),
        });
    }
    Ok(out)
}

fn tunnel_cases() -> u32 {
    std::env::var("PROTOOBF_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(tunnel_cases()))]

    /// Lossless round trip: random payloads through the full chain.
    #[test]
    fn payload_round_trips_byte_identically(
        proto_idx in 0usize..6,
        level_idx in 0usize..2,
        len in 0usize..16384,
        payload_seed in any::<u64>(),
    ) {
        let level = [0u32, 2][level_idx];
        let graph = graph_of(BUILTIN_NAMES[proto_idx]);
        let clear = Codec::identity(&graph);
        let obf = obf_codec(&graph, level);
        let mut rng = StdRng::seed_from_u64(payload_seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();

        let msgs = encode_stream(&clear, &payload, payload_seed ^ 0xC0DE).unwrap();
        let out = round_trip_via_gateways(&clear, &obf, &msgs, payload_seed).unwrap();
        prop_assert_eq!(
            out, payload,
            "{} level {} must deliver the payload byte-identically", BUILTIN_NAMES[proto_idx], level
        );
    }

    /// Tamper safety: a byte flipped anywhere in a cover message's
    /// carrier channel either surfaces as a typed decoder error, is
    /// ignored as plain cover, or (padding hits) leaves the payload
    /// intact — never a panic, never silently wrong bytes.
    #[test]
    fn corrupted_carriers_never_yield_wrong_bytes(
        proto_idx in 0usize..6,
        len in 1usize..512,
        payload_seed in any::<u64>(),
        victim in any::<usize>(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let graph = graph_of(BUILTIN_NAMES[proto_idx]);
        let clear = Codec::identity(&graph);
        let map = ChannelMap::analyze(&clear);
        let mut rng = StdRng::seed_from_u64(payload_seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();

        let mut msgs = encode_stream(&clear, &payload, payload_seed ^ 0xBAD).unwrap();
        let victim = victim % msgs.len();
        let mut channel = Vec::new();
        map.read_channel(&msgs[victim], &mut channel);
        let pos = pos % channel.len();
        channel[pos] ^= flip;
        map.write_channel(&mut msgs[victim], &channel).unwrap();

        let mut dec = TunnelDecoder::new(&clear).unwrap();
        let mut out = Vec::new();
        let mut failed = false;
        for msg in &msgs {
            match dec.accept(msg) {
                Ok(_) => { dec.take_ready(&mut out); }
                Err(_) => { failed = true; break; }
            }
        }
        if !failed && dec.is_complete() {
            // Flip landed in padding (or was repaired by a duplicate):
            // the delivered stream must still be exactly the payload.
            prop_assert_eq!(out, payload, "{}: undetected corruption", BUILTIN_NAMES[proto_idx]);
        } else if !failed {
            // Frame rejected as cover or stream left open: everything
            // actually delivered must be a prefix of the true payload.
            prop_assert!(
                out.as_slice() == &payload[..out.len()],
                "{}: delivered bytes diverge from the payload", BUILTIN_NAMES[proto_idx]
            );
        }
    }

    /// Delivery tolerance: frames arriving in any order reassemble; a
    /// dropped frame leaves the decoder typed-incomplete.
    #[test]
    fn reordered_and_dropped_frames_are_tolerated(
        proto_idx in 0usize..6,
        len in 1usize..2048,
        payload_seed in any::<u64>(),
        order_seed in any::<u64>(),
        drop_idx in any::<usize>(),
    ) {
        let graph = graph_of(BUILTIN_NAMES[proto_idx]);
        let clear = Codec::identity(&graph);
        let mut rng = StdRng::seed_from_u64(payload_seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let msgs = encode_stream(&clear, &payload, payload_seed ^ 0x0DD).unwrap();

        // Shuffle (Fisher–Yates over indices, deterministic per seed).
        let mut order: Vec<usize> = (0..msgs.len()).collect();
        let mut orng = StdRng::seed_from_u64(order_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, orng.gen_range(0..=i));
        }
        let mut dec = TunnelDecoder::new(&clear).unwrap();
        let mut out = Vec::new();
        for &i in &order {
            dec.accept(&msgs[i]).unwrap();
            dec.take_ready(&mut out);
        }
        prop_assert!(dec.is_complete(), "{}: reordered stream must complete", BUILTIN_NAMES[proto_idx]);
        prop_assert_eq!(out, payload);

        // Drop one frame: the stream must stay typed-incomplete.
        if msgs.len() > 1 {
            let drop_idx = drop_idx % msgs.len();
            let mut dec = TunnelDecoder::new(&clear).unwrap();
            let mut out = Vec::new();
            for (i, msg) in msgs.iter().enumerate() {
                if i == drop_idx {
                    continue;
                }
                dec.accept(msg).unwrap();
                dec.take_ready(&mut out);
            }
            prop_assert!(
                !dec.is_complete(),
                "{}: a dropped frame must leave the stream incomplete", BUILTIN_NAMES[proto_idx]
            );
            prop_assert!(out.as_slice() == &payload[..out.len()], "prefix property violated");
        }
    }
}

/// The upper end of the advertised payload range, deterministic: one
/// 64 KiB stream through the level-2 gateway chain of each builtin.
#[test]
fn sixty_four_kib_payload_round_trips_on_every_builtin() {
    let mut rng = StdRng::seed_from_u64(0x64_000);
    let payload: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
    for proto in BUILTIN_NAMES {
        let graph = graph_of(proto);
        let clear = Codec::identity(&graph);
        let obf = obf_codec(&graph, 2);
        let msgs = encode_stream(&clear, &payload, 0xFEED).unwrap();
        let out = round_trip_via_gateways(&clear, &obf, &msgs, 0xFEED).unwrap();
        assert_eq!(out, payload, "{proto}: 64 KiB stream must round-trip");
    }
}
