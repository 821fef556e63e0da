//! Profile-driven gateway chains over real loopback sockets, asymmetric
//! and symmetric:
//!
//! ```text
//! client ──tx grammar──▶ encode gw ──obf──▶ decode gw ──tx grammar──▶ server
//!        ◀──rx grammar──            ◀──obf──           ◀──rx grammar──
//! ```
//!
//! Both gateways are configured **only** by copies of the same profile
//! text. The tests assert the relay is byte-identical per direction for
//! the DNS (query/response, asymmetric) and Modbus (symmetric) bundled
//! protocols, that fingerprints agree across the pair, and that a key
//! mismatch is caught by fingerprint comparison before any traffic —
//! and really does break the wire if ignored.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use protoobf_core::framing::{FrameBuffer, FrameReader, FrameWriter};
use protoobf_core::profile::{Endpoint, Profile, SpecSource};
use protoobf_core::sample::{random_message, sample_into};
use protoobf_core::FormatGraph;
use protoobf_transport::{
    duplex, evloop, Conn, Gateway, GatewayMode, LoopConfig, Metrics, Responder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The builtin half of the facade's standard resolver (transport cannot
/// depend on the facade).
fn resolver(src: &SpecSource) -> Result<FormatGraph, String> {
    match src {
        SpecSource::Builtin(name) => {
            protoobf_protocols::builtin(name).ok_or_else(|| format!("unknown builtin {name}"))
        }
        other => Err(format!("unexpected source {other}")),
    }
}

const ASYM_PROFILE: &str = "profile protoobf/1\n\
                            tx builtin:dns-query\n\
                            rx builtin:dns-response\n\
                            key \"loopback asymmetric secret\"\n\
                            level 2\n";

const SYM_PROFILE: &str = "profile protoobf/1\n\
                           spec builtin:modbus-request\n\
                           key \"loopback symmetric secret\"\n\
                           level 2\n";

const MSGS: usize = 24;

/// Runs encode gw + decode gw (each from its own copy of `profile_text`)
/// and a raw recording server, drives one client connection with `MSGS`
/// request/response rounds, and asserts both directions relayed
/// byte-identically.
fn run_chain(profile_text: &str) {
    let encode_ep = Profile::parse(profile_text).unwrap().build_with(&resolver).unwrap();
    let decode_ep = Profile::parse(profile_text).unwrap().build_with(&resolver).unwrap();
    assert_eq!(
        encode_ep.fingerprint(),
        decode_ep.fingerprint(),
        "copies of one profile must derive identical stacks"
    );

    let server_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let decode_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let client_addr = encode_l.local_addr().unwrap();

    let encode_gw =
        Gateway::from_endpoint(&encode_ep, GatewayMode::Encode, decode_l.local_addr().unwrap())
            .unwrap();
    let decode_gw =
        Gateway::from_endpoint(&decode_ep, GatewayMode::Decode, server_l.local_addr().unwrap())
            .unwrap();
    assert_eq!(encode_gw.fingerprint(), decode_gw.fingerprint());

    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 2, accept_limit: None, ..LoopConfig::default() };

    std::thread::scope(|scope| {
        let loops = [
            scope.spawn(|| decode_gw.serve(decode_l, &cfg, &shutdown)),
            scope.spawn(|| encode_gw.serve(encode_l, &cfg, &shutdown)),
        ];

        // Server: record every request frame, answer with a response
        // frame, record what was sent.
        let server = scope.spawn(|| {
            let request_codec = decode_ep.clear_tx_service().codec();
            let response_codec = decode_ep.clear_rx_service().codec();
            let (stream, _) = server_l.accept().unwrap();
            let mut reader = FrameReader::new(request_codec, &stream);
            let mut writer = FrameWriter::new(response_codec, &stream);
            let mut rng = StdRng::seed_from_u64(11);
            let mut seen = Vec::new();
            let mut sent = Vec::new();
            for _ in 0..MSGS {
                let request = reader.recv_raw().unwrap().expect("request frame");
                request_codec.parse(&request).expect("relayed request parses");
                seen.push(request);
                let wire =
                    response_codec.serialize(&random_message(response_codec, &mut rng)).unwrap();
                writer.send_raw(&wire).unwrap();
                sent.push(wire);
            }
            (seen, sent)
        });

        // Client: send request frames, record them and the responses.
        let request_codec = encode_ep.clear_tx_service().codec();
        let response_codec = encode_ep.clear_rx_service().codec();
        let stream = TcpStream::connect(client_addr).unwrap();
        let mut writer = FrameWriter::new(request_codec, &stream);
        let mut reader = FrameReader::new(response_codec, &stream);
        let mut rng = StdRng::seed_from_u64(5);
        let mut client_sent = Vec::new();
        let mut client_got = Vec::new();
        for _ in 0..MSGS {
            let wire = request_codec.serialize(&random_message(request_codec, &mut rng)).unwrap();
            writer.send_raw(&wire).unwrap();
            client_sent.push(wire);
            let response = reader.recv_raw().unwrap().expect("response frame");
            response_codec.parse(&response).expect("relayed response parses");
            client_got.push(response);
        }
        drop((reader, writer));
        drop(stream);

        let (server_seen, server_sent) = server.join().unwrap();
        assert_eq!(client_sent, server_seen, "request direction must relay byte-identical");
        assert_eq!(server_sent, client_got, "response direction must relay byte-identical");

        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().unwrap().unwrap();
        }
    });

    assert_eq!(encode_gw.metrics().snapshot().failed, 0);
    assert_eq!(decode_gw.metrics().snapshot().failed, 0);
}

#[test]
fn asymmetric_profile_chain_relays_byte_identical() {
    run_chain(ASYM_PROFILE);
}

#[test]
fn symmetric_profile_chain_relays_byte_identical() {
    run_chain(SYM_PROFILE);
}

/// The asymmetric chain with the production [`Responder`] as its server:
/// every request gets exactly one reply, sampled from the response
/// grammar as `Responder::new` seeds it, and relayed byte-identical. The
/// responder transcodes nothing: its replies are sampled, not copied.
#[test]
fn responder_answers_every_request_through_the_chain() {
    const SEED: u64 = 0x5EED;
    let encode_ep = Profile::parse(ASYM_PROFILE).unwrap().build_with(&resolver).unwrap();
    let decode_ep = Profile::parse(ASYM_PROFILE).unwrap().build_with(&resolver).unwrap();

    let server_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let decode_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let client_addr = encode_l.local_addr().unwrap();
    let encode_gw =
        Gateway::from_endpoint(&encode_ep, GatewayMode::Encode, decode_l.local_addr().unwrap())
            .unwrap();
    let decode_gw =
        Gateway::from_endpoint(&decode_ep, GatewayMode::Decode, server_l.local_addr().unwrap())
            .unwrap();
    let (requests, replies) = (decode_ep.clear_tx_service(), decode_ep.clear_rx_service());
    let server_metrics = Metrics::new();

    // The replies the responder must send, in order.
    let reply_codec = replies.codec();
    let mut reply = reply_codec.message_seeded(SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let expected: Vec<Vec<u8>> = (0..MSGS)
        .map(|_| {
            sample_into(reply_codec, &mut reply, &mut rng, &[]);
            reply_codec.serialize(&reply).unwrap()
        })
        .collect();

    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 1, accept_limit: None, ..LoopConfig::default() };
    std::thread::scope(|scope| {
        let loops = [
            scope.spawn(|| {
                evloop::serve(server_l, &cfg, &shutdown, &server_metrics, |s, _| {
                    Ok(Responder::new(s, requests, replies, SEED, &server_metrics))
                })
            }),
            scope.spawn(|| decode_gw.serve(decode_l, &cfg, &shutdown)),
            scope.spawn(|| encode_gw.serve(encode_l, &cfg, &shutdown)),
        ];

        let request_codec = encode_ep.clear_tx_service().codec();
        let stream = TcpStream::connect(client_addr).unwrap();
        let mut writer = FrameWriter::new(request_codec, &stream);
        let mut reader = FrameReader::new(encode_ep.clear_rx_service().codec(), &stream);
        let mut rng = StdRng::seed_from_u64(8);
        for (i, want) in expected.iter().enumerate() {
            let wire = request_codec.serialize(&random_message(request_codec, &mut rng)).unwrap();
            writer.send_raw(&wire).unwrap();
            let got = reader.recv_raw().unwrap().expect("reply frame");
            assert_eq!(&got, want, "reply {i} diverged from the seeded sample");
        }
        drop((reader, writer));
        drop(stream);

        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().unwrap().unwrap();
        }
    });

    let server = server_metrics.snapshot();
    assert_eq!(server.messages_in, MSGS as u64, "{server}");
    assert_eq!(server.messages_out, server.messages_in, "{server}");
    assert_eq!(server.transcodes, 0, "replies are sampled, not transcoded: {server}");
    assert_eq!(server.frame_bytes_in.count(), MSGS as u64, "{server}");
    assert_eq!(server.frame_bytes_out.count(), MSGS as u64, "{server}");
    assert_eq!(server.failed, 0, "{server}");
    for gw in [&encode_gw, &decode_gw] {
        let stats = gw.metrics().snapshot();
        assert_eq!(stats.transcodes, 2 * MSGS as u64, "{stats}");
        assert_eq!(stats.failed, 0, "{stats}");
    }
}

#[test]
fn key_mismatch_is_detected_by_fingerprint_before_traffic() {
    let good = Profile::parse(ASYM_PROFILE).unwrap();
    let bad = good.clone().key("tampered secret");
    let good_ep = good.build_with(&resolver).unwrap();
    let bad_ep = bad.build_with(&resolver).unwrap();

    // The pre-traffic check: fingerprints disagree.
    assert_ne!(good_ep.fingerprint(), bad_ep.fingerprint());

    // And the check is honest — ignoring it, the mismatched stacks do
    // not interoperate: a good-side obfuscated wire fails (or garbles)
    // on the bad side's parser.
    let tx = good_ep.tx_service();
    let reference = {
        let mut wire = Vec::new();
        let msg = random_message(tx.codec(), &mut StdRng::seed_from_u64(3));
        tx.serializer().serialize_into_seeded(&msg, &mut wire, 9).unwrap();
        wire
    };
    let survived = bad_ep.tx_service().parser().parse_in_place(&reference).is_ok();
    assert!(!survived, "mismatched keys must not decode each other's wires");
}

/// The sans-io path: a [`Conn::initiator`]/[`Conn::responder`] pair built
/// from two copies of one asymmetric profile exchanges native obfuscated
/// traffic (no gateways, no clear legs) through the in-memory duplex,
/// under 1-byte trickle chunking.
#[test]
fn native_endpoint_conns_speak_asymmetric_profiles() {
    let a: Endpoint = Profile::parse(ASYM_PROFILE).unwrap().build_with(&resolver).unwrap();
    let b: Endpoint = Profile::parse(ASYM_PROFILE).unwrap().build_with(&resolver).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());

    let mut initiator = Conn::initiator(&a);
    let mut responder = Conn::responder(&b);
    let mut rng = StdRng::seed_from_u64(21);

    for round in 0..8usize {
        let request = random_message(a.tx_service().codec(), &mut rng);
        initiator.send(&request).unwrap();
        duplex::shuttle(&mut initiator, &mut responder, |i| if round % 2 == 0 { 1 } else { i + 7 })
            .unwrap();
        assert!(responder.poll_inbound().unwrap().is_some(), "round {round}: request arrives");

        let reply = random_message(b.rx_service().codec(), &mut rng);
        responder.send(&reply).unwrap();
        duplex::shuttle(&mut initiator, &mut responder, |_| 3).unwrap();
        assert!(initiator.poll_inbound().unwrap().is_some(), "round {round}: reply arrives");
    }
    assert_eq!(initiator.messages_out(), 8);
    assert_eq!(responder.messages_out(), 8);
}

/// The obfuscated leg between a profile pair's gateways must not be the
/// clear protocol: sniff the encode→decode segment and check the frames
/// do not parse as the plain tx grammar.
#[test]
fn obfuscated_leg_is_not_the_clear_grammar() {
    let ep = Profile::parse(ASYM_PROFILE).unwrap().build_with(&resolver).unwrap();
    // A sniffing "decode gateway": accept the obfuscated stream raw.
    let sniff_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let client_addr = encode_l.local_addr().unwrap();
    let encode_gw =
        Gateway::from_endpoint(&ep, GatewayMode::Encode, sniff_l.local_addr().unwrap()).unwrap();

    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 1, accept_limit: Some(1), ..LoopConfig::default() };

    std::thread::scope(|scope| {
        let gw_loop = scope.spawn(|| encode_gw.serve(encode_l, &cfg, &shutdown));
        let sniffer = scope.spawn(|| {
            let (mut stream, _) = sniff_l.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) => panic!("sniffer read: {e}"),
                }
            }
            buf
        });

        let clear = ep.clear_tx_service().codec();
        let mut stream = TcpStream::connect(client_addr).unwrap();
        let mut writer = FrameWriter::new(clear, &stream);
        let mut rng = StdRng::seed_from_u64(2);
        let mut clear_wires = Vec::new();
        for _ in 0..4 {
            let wire = clear.serialize(&random_message(clear, &mut rng)).unwrap();
            writer.send_raw(&wire).unwrap();
            clear_wires.push(wire);
        }
        drop(writer);
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();

        let sniffed = sniffer.join().unwrap();
        shutdown.store(true, Ordering::Relaxed);
        gw_loop.join().unwrap().unwrap();

        // Re-frame the sniffed bytes and check each body differs from
        // the corresponding clear wire (the grammars diverged).
        let mut fb = FrameBuffer::new();
        fb.feed(&sniffed);
        let mut bodies = Vec::new();
        while let Some(frame) = fb.peek().unwrap() {
            bodies.push(frame.to_vec());
            fb.consume();
        }
        assert_eq!(bodies.len(), 4, "four obfuscated frames expected");
        for (obf, clear_wire) in bodies.iter().zip(&clear_wires) {
            assert_ne!(obf, clear_wire, "obfuscated leg must not carry the clear wire");
        }
    });
}
