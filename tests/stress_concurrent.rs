//! Concurrency stress test: N threads share one [`CodecService`] and
//! round-trip thousands of sampled messages across the DNS/HTTP/Modbus
//! specifications, asserting that every wire is **byte-identical** to the
//! single-threaded reference path (same message, same seed) and that
//! every parse recovers the same structure.
//!
//! What this protects: the service's pooled scratch must never leak state
//! between checkouts, the shared `CodecPlan` must behave as the immutable
//! value it claims to be, and deterministic seeding must hold regardless
//! of which thread/scratch combination serves a message.
//!
//! Message identity across threads relies on the deterministic builders:
//! `Message::with_seed(s)` + `serialize_into_seeded(seed)` reproduce the
//! exact wire of the reference `reference::serialize` walk for the same
//! `(s, seed)` pair.

use std::sync::Arc;

use protoobf::core::reference;
use protoobf::core::sample::random_message;
use protoobf::protocols::{dns, http, modbus};
use protoobf::{Codec, CodecService, FormatGraph, Obfuscator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: u64 = 8;
const ROUNDS_PER_THREAD: u64 = 150; // × 3 protocols × 8 threads = 3600 messages

fn codec_for(graph: &FormatGraph, level: u32, seed: u64) -> Codec {
    if level == 0 {
        Codec::identity(graph)
    } else {
        Obfuscator::new(graph).seed(seed).max_per_node(level).obfuscate().unwrap()
    }
}

/// Deterministic per-(thread, round) seed, well spread.
fn seed_of(thread: u64, round: u64) -> u64 {
    (thread << 32 ^ round).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn shared_service_matches_single_threaded_reference() {
    let specs: Vec<(&str, FormatGraph)> = vec![
        ("dns-resp", dns::response_graph()),
        ("http-req", http::request_graph()),
        ("modbus-req", modbus::request_graph()),
    ];
    for (name, graph) in &specs {
        for level in [0u32, 2] {
            let service = Arc::new(CodecService::new(codec_for(graph, level, 7)));

            // Single-threaded reference wires, computed up front with the
            // same deterministic (message seed, serialize seed) pairs the
            // workers will use.
            let mut reference: Vec<Vec<Vec<u8>>> = Vec::new();
            for t in 0..THREADS {
                let mut per_thread = Vec::new();
                for r in 0..ROUNDS_PER_THREAD {
                    let mut rng = StdRng::seed_from_u64(seed_of(t, r));
                    let msg = random_message(service.codec(), &mut rng);
                    let wire = reference::serialize(
                        service.codec().obf_graph(),
                        &msg,
                        seed_of(t, r) ^ 0xA5,
                    )
                    .unwrap();
                    per_thread.push(wire);
                }
                reference.push(per_thread);
            }
            let reference = Arc::new(reference);

            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let service = Arc::clone(&service);
                    let reference = Arc::clone(&reference);
                    scope.spawn(move || {
                        let mut serializer = service.serializer();
                        let mut parser = service.parser();
                        let mut wire = Vec::new();
                        for r in 0..ROUNDS_PER_THREAD {
                            // Rebuild the same message the reference used.
                            let mut rng = StdRng::seed_from_u64(seed_of(t, r));
                            let msg = random_message(service.codec(), &mut rng);
                            serializer
                                .serialize_into_seeded(&msg, &mut wire, seed_of(t, r) ^ 0xA5)
                                .unwrap_or_else(|e| {
                                    panic!("{name} level={level} t={t} r={r}: serialize: {e}")
                                });
                            assert_eq!(
                                wire, reference[t as usize][r as usize],
                                "{name} level={level} t={t} r={r}: wire diverged from the \
                                 single-threaded reference"
                            );
                            let back = parser.parse_in_place(&wire).unwrap_or_else(|e| {
                                panic!("{name} level={level} t={t} r={r}: parse: {e}")
                            });
                            // Structural equality against the reference
                            // graph-walk parser, via normalization (both
                            // sides carry the same parsed wires, so pads
                            // and shares normalize identically).
                            let ref_parsed =
                                reference::parse(service.codec().obf_graph(), &wire).unwrap();
                            assert_eq!(
                                reference::serialize(service.codec().obf_graph(), back, 0).unwrap(),
                                reference::serialize(service.codec().obf_graph(), &ref_parsed, 0)
                                    .unwrap(),
                                "{name} level={level} t={t} r={r}: parse diverged"
                            );
                        }
                    });
                }
            });

            // Every round-trip used pooled sessions; after the scope the
            // scratch is parked again (bounded by threads, not messages).
            let stats = service.stats();
            assert!(
                stats.pooled_serializers <= THREADS as usize,
                "{name}: pool retained more scratch than peak concurrency"
            );
        }
    }
}
