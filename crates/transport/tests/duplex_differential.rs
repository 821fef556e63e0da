//! Differential test of the sans-io transport against the direct codec
//! path: every valid corpus message round-tripped through a pair of
//! [`Conn`]s — under hostile chunking patterns — must come back
//! byte-identical to a direct `CodecService` serialize/parse; hostile,
//! truncated and oversized frames must fail the connection with a typed
//! error instead of panicking.

use protoobf_core::service::CodecService;
use protoobf_core::{Codec, FormatGraph, Message, Obfuscator};
use protoobf_transport::{Conn, ConnState, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::shuttle;

struct Fixture {
    clear: CodecService,
    obf: CodecService,
}

impl Fixture {
    fn new(graph: &FormatGraph, seed: u64) -> Fixture {
        let obf = Obfuscator::new(graph).seed(seed).max_per_node(2).obfuscate().unwrap();
        Fixture { clear: CodecService::new(Codec::identity(graph)), obf: CodecService::new(obf) }
    }
}

/// Corpus messages for every protocol, built against the clear codec.
fn corpus<'c>(clear: &'c CodecService, proto: &str, rng: &mut StdRng) -> Vec<Message<'c>> {
    let codec = clear.codec();
    match proto {
        "dns-query" => (0..8).map(|_| protoobf_protocols::dns::build_query(codec, rng)).collect(),
        "http-request" => {
            (0..8).map(|_| protoobf_protocols::http::build_request(codec, rng)).collect()
        }
        "modbus-request" => protoobf_protocols::modbus::Function::ALL
            .into_iter()
            .map(|f| protoobf_protocols::modbus::build_request(codec, f, rng))
            .collect(),
        other => panic!("unknown corpus {other}"),
    }
}

fn graph_for(proto: &str) -> FormatGraph {
    protoobf_protocols::builtin(proto).unwrap_or_else(|| panic!("unknown builtin {proto}"))
}

/// The deterministic reference wire: identity codecs draw no random
/// material, so clear serialization is reproducible byte-for-byte.
fn reference_wire(clear: &CodecService, msg: &Message<'_>) -> Vec<u8> {
    clear.codec().serialize_seeded(msg, 0).unwrap()
}

/// Round-trips `msgs` through an obfuscated Conn pair (the two gateway
/// legs of the paper's deployment) with the given chunking pattern, and
/// checks clear-side byte identity for every message.
fn roundtrip_pair(fx: &Fixture, msgs: &[Message<'_>], mut chunk: impl FnMut(usize) -> usize) {
    // a = encode-gateway upstream leg, b = decode-gateway downstream leg.
    let mut a = Conn::new(&fx.obf, &fx.obf);
    let mut b = Conn::new(&fx.obf, &fx.obf);
    let mut to_obf = fx.obf.codec().message();
    let mut to_clear = fx.clear.codec().message();

    // Pipelined: queue every message before any byte moves.
    for msg in msgs {
        msg.transcode_into(&mut to_obf).unwrap();
        a.send(&to_obf).unwrap();
    }
    shuttle(&mut a, &mut b, &mut chunk).unwrap();

    // Decode on b, transcode back to clear, compare with the direct path.
    let mut received = 0usize;
    while let Some(got) = b.poll_inbound().unwrap() {
        got.transcode_into(&mut to_clear).unwrap();
        assert_eq!(
            reference_wire(&fx.clear, &to_clear),
            reference_wire(&fx.clear, &msgs[received]),
            "message {received}: transport round-trip diverged from the direct codec path"
        );
        received += 1;
    }
    assert_eq!(received, msgs.len(), "every pipelined message must arrive");

    // Reverse direction: the same pipeline must hold b → a.
    for msg in msgs {
        msg.transcode_into(&mut to_obf).unwrap();
        b.send(&to_obf).unwrap();
    }
    shuttle(&mut a, &mut b, &mut chunk).unwrap();
    let mut back = 0usize;
    while let Some(got) = a.poll_inbound().unwrap() {
        got.transcode_into(&mut to_clear).unwrap();
        assert_eq!(
            reference_wire(&fx.clear, &to_clear),
            reference_wire(&fx.clear, &msgs[back]),
            "reverse message {back} diverged"
        );
        back += 1;
    }
    assert_eq!(back, msgs.len(), "every reverse message must arrive");
}

#[test]
fn conn_pairs_match_direct_codec_for_all_protocols() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for proto in ["dns-query", "http-request", "modbus-request"] {
        let graph = graph_for(proto);
        let fx = Fixture::new(&graph, 0x5EED);
        let msgs = corpus(&fx.clear, proto, &mut rng);
        // Bulk chunks, random small chunks, and a 1-byte slow-loris
        // trickle: framing must be split-agnostic.
        roundtrip_pair(&fx, &msgs, |_| 64 * 1024);
        let mut chunk_rng = StdRng::seed_from_u64(7);
        roundtrip_pair(&fx, &msgs, move |_| chunk_rng.gen_range(1..=7));
        roundtrip_pair(&fx, &msgs, |_| 1);
    }
}

#[test]
fn hostile_frame_fails_connection_with_typed_error() {
    let graph = graph_for("modbus-request");
    let fx = Fixture::new(&graph, 1);
    let mut conn = Conn::new(&fx.obf, &fx.obf);
    // A well-formed prefix carrying undecodable garbage.
    let mut frame = 64u32.to_be_bytes().to_vec();
    frame.extend_from_slice(&[0xA5; 64]);
    conn.feed_inbound(&frame).unwrap();
    match conn.poll_inbound() {
        Err(TransportError::Frame(_)) => {}
        other => panic!("hostile frame must fail with a frame error, got {other:?}"),
    }
    assert_eq!(conn.state(), ConnState::Failed);
    // The failed connection is inert, not panicky.
    assert!(matches!(conn.poll_inbound(), Err(TransportError::Closed)));
    assert!(matches!(conn.feed_inbound(b"more"), Err(TransportError::Closed)));
    let msg = fx.obf.codec().message();
    assert!(matches!(conn.send(&msg), Err(TransportError::Closed)));
}

#[test]
fn oversized_prefix_fails_connection() {
    let graph = graph_for("modbus-request");
    let fx = Fixture::new(&graph, 1);
    let mut conn = Conn::new(&fx.obf, &fx.obf);
    let limit = fx.obf.frame_limit();
    conn.feed_inbound(&((limit as u32) + 1).to_be_bytes()).unwrap();
    match conn.poll_inbound() {
        Err(TransportError::Frame(protoobf_core::framing::FrameError::TooLarge {
            got, ..
        })) => assert_eq!(got, limit + 1),
        other => panic!("oversized prefix must be rejected, got {other:?}"),
    }
    assert_eq!(conn.state(), ConnState::Failed);
}

#[test]
fn truncated_stream_fails_connection() {
    let mut rng = StdRng::seed_from_u64(3);
    let graph = graph_for("dns-query");
    let fx = Fixture::new(&graph, 2);
    let msg = protoobf_protocols::dns::build_query(fx.clear.codec(), &mut rng);
    let mut obf_msg = fx.obf.codec().message();
    msg.transcode_into(&mut obf_msg).unwrap();

    let mut sender = Conn::new(&fx.obf, &fx.obf);
    sender.send(&obf_msg).unwrap();
    let wire = sender.outbound().to_vec();

    for cut in 1..wire.len() {
        let mut conn = Conn::new(&fx.obf, &fx.obf);
        conn.feed_inbound(&wire[..cut]).unwrap();
        conn.feed_eof();
        match conn.poll_inbound() {
            Err(TransportError::Frame(_)) => {}
            Ok(None) => panic!("cut {cut}: truncation went unnoticed"),
            other => panic!("cut {cut}: unexpected {other:?}"),
        }
        assert_eq!(conn.state(), ConnState::Failed, "cut {cut}");
    }
}

#[test]
fn close_drains_then_terminates() {
    let graph = graph_for("modbus-request");
    let fx = Fixture::new(&graph, 4);
    let mut rng = StdRng::seed_from_u64(9);
    let msg = protoobf_protocols::modbus::build_request(
        fx.clear.codec(),
        protoobf_protocols::modbus::Function::ReadCoils,
        &mut rng,
    );
    let mut obf_msg = fx.obf.codec().message();
    msg.transcode_into(&mut obf_msg).unwrap();

    let mut conn = Conn::new(&fx.obf, &fx.obf);
    conn.send(&obf_msg).unwrap();
    conn.close();
    assert_eq!(conn.state(), ConnState::Open, "close waits for the transport to drain");
    assert!(matches!(conn.send(&obf_msg), Err(TransportError::Closed)));
    let mut sink = [0u8; 16];
    while conn.poll_outbound(&mut sink) > 0 {}
    assert_eq!(conn.state(), ConnState::Closed);
}

#[test]
fn mem_duplex_streams_carry_framed_traffic() {
    use protoobf_core::framing::{FrameError, FrameReader, FrameWriter};
    use std::io::ErrorKind;

    let graph = graph_for("modbus-request");
    let codec = Codec::identity(&graph);
    let mut rng = StdRng::seed_from_u64(21);
    let (client, server) = common::mem_duplex(1); // 1-byte reads
    let mut writer = FrameWriter::new(&codec, client);
    let mut reader = FrameReader::new(&codec, server);
    let mut sent = Vec::new();
    for f in protoobf_protocols::modbus::Function::ALL {
        let msg = protoobf_protocols::modbus::build_request(&codec, f, &mut rng);
        sent.push(codec.serialize_seeded(&msg, 0).unwrap());
        writer.send(&msg).unwrap();
    }
    writer.into_inner().close();
    // Non-blocking 1-byte reads: WouldBlock interleaves with progress and
    // the resumable reader must reassemble every frame.
    let mut got = Vec::new();
    loop {
        match reader.recv() {
            Ok(Some(m)) => got.push(codec.serialize_seeded(&m, 0).unwrap()),
            Ok(None) => break,
            Err(FrameError::Io(e)) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
    assert_eq!(got, sent);
}
