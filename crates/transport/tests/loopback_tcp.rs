//! End-to-end gateway pair over real loopback sockets:
//!
//! ```text
//! clients ──clear──▶ encode gw ──obf──▶ decode gw ──clear──▶ echo server
//! ```
//!
//! 64 concurrent client connections round-trip framed messages through the
//! whole chain; every echoed wire must be byte-identical to the client's
//! own (single-threaded, deterministic) reference serialization. A hostile
//! client must take down only its own relay.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use protoobf_core::framing::{FrameReader, FrameWriter};
use protoobf_core::profile::{Endpoint, Profile, SpecSource};
use protoobf_core::service::CodecService;
use protoobf_core::Codec;
use protoobf_protocols::modbus::{self, Function};
use protoobf_transport::{
    evloop, Echo, Gateway, GatewayMode, LoopConfig, Metrics, MetricsSnapshot,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROFILE: &str = "profile protoobf/1\n\
                       spec builtin:modbus-request\n\
                       key \"loopback tcp secret\"\n\
                       level 2\n";
const CLIENTS: usize = 64;
const MSGS_PER_CLIENT: usize = 4;

/// Builds one gateway's endpoint from its own copy of the shared profile,
/// resolving builtins from the protocols crate.
fn endpoint() -> Endpoint {
    let resolve = |src: &SpecSource| match src {
        SpecSource::Builtin(name) => {
            protoobf_protocols::builtin(name).ok_or_else(|| format!("unknown builtin {name}"))
        }
        other => Err(format!("unexpected source {other}")),
    };
    Profile::parse(PROFILE).unwrap().build_with(&resolve).unwrap()
}

/// Runs the echo server + gateway pair, calls `clients` against the
/// encode gateway's address, shuts everything down, and returns the final
/// metric snapshots of the encode gateway, the decode gateway and the
/// echo server.
fn with_gateway_chain(
    clients: impl FnOnce(std::net::SocketAddr) + Send,
) -> (MetricsSnapshot, MetricsSnapshot, MetricsSnapshot) {
    let graph = modbus::request_graph();

    let server_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server_addr = server_listener.local_addr().unwrap();
    let decode_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let decode_addr = decode_listener.local_addr().unwrap();
    let encode_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_addr = encode_listener.local_addr().unwrap();

    let encode_gw = Gateway::from_endpoint(&endpoint(), GatewayMode::Encode, decode_addr).unwrap();
    let decode_gw = Gateway::from_endpoint(&endpoint(), GatewayMode::Decode, server_addr).unwrap();
    let server_svc = CodecService::new(Codec::identity(&graph));
    let server_metrics = Metrics::new();

    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 2, accept_limit: None, ..LoopConfig::default() };

    std::thread::scope(|scope| {
        let loops = [
            scope.spawn(|| {
                evloop::serve(server_listener, &cfg, &shutdown, &server_metrics, |s, _| {
                    Ok(Echo::new(s, &server_svc, &server_metrics))
                })
            }),
            scope.spawn(|| decode_gw.serve(decode_listener, &cfg, &shutdown)),
            scope.spawn(|| encode_gw.serve(encode_listener, &cfg, &shutdown)),
        ];
        clients(encode_addr);
        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().unwrap().unwrap();
        }
    });
    (encode_gw.metrics().snapshot(), decode_gw.metrics().snapshot(), server_metrics.snapshot())
}

#[test]
fn sixty_four_concurrent_connections_roundtrip_byte_identical() {
    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);

    let (encode_stats, decode_stats, server_stats) = with_gateway_chain(|gateway_addr| {
        std::thread::scope(|scope| {
            for t in 0..CLIENTS {
                let clear = &clear;
                scope.spawn(move || {
                    let stream = TcpStream::connect(gateway_addr).unwrap();
                    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                    let mut writer = FrameWriter::new(clear, &stream);
                    let mut reader = FrameReader::new(clear, &stream);
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for i in 0..MSGS_PER_CLIENT {
                        let f = Function::ALL[(t + i) % Function::ALL.len()];
                        let msg = modbus::build_request(clear, f, &mut rng);
                        // Identity codecs are deterministic: the bytes we
                        // send ARE the single-threaded reference.
                        let reference = clear.serialize(&msg).unwrap();
                        writer.send_raw(&reference).unwrap();
                        let echoed = reader.recv_raw().unwrap().expect("echo before EOF");
                        assert_eq!(
                            echoed, reference,
                            "client {t} message {i}: echoed wire diverged from reference"
                        );
                    }
                });
            }
        });
    });

    assert_eq!(encode_stats.accepted as usize, CLIENTS);
    assert_eq!(decode_stats.accepted as usize, CLIENTS);
    // Every relayed message is decoded once, transcoded once and
    // re-encoded once, and each side of that records one frame size.
    let expect = (CLIENTS * MSGS_PER_CLIENT * 2) as u64; // requests + echoes
    for stats in [&encode_stats, &decode_stats] {
        assert_eq!(stats.messages_in, expect, "{stats}");
        assert_eq!(stats.messages_out, expect, "{stats}");
        assert_eq!(stats.transcodes, expect, "{stats}");
        assert_eq!(stats.frame_bytes_in.count(), expect, "{stats}");
        assert_eq!(stats.frame_bytes_out.count(), expect, "{stats}");
        assert_eq!(stats.failed, 0, "no relay may fail: {stats}");
    }
    // The echo decodes each request once and answers it once.
    let requests = (CLIENTS * MSGS_PER_CLIENT) as u64;
    assert_eq!(server_stats.messages_in, requests, "{server_stats}");
    assert_eq!(server_stats.messages_out, requests, "{server_stats}");
    assert_eq!(server_stats.transcodes, requests, "{server_stats}");
    assert_eq!(server_stats.frame_bytes_in.count(), requests, "{server_stats}");
    assert_eq!(server_stats.frame_bytes_out.count(), requests, "{server_stats}");
}

#[test]
fn hostile_client_fails_only_its_own_relay() {
    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);

    let (encode_stats, _, _) = with_gateway_chain(|gateway_addr| {
        // A client that speaks garbage: well-formed prefix, undecodable
        // body. Its relay must die with a typed error server-side; the
        // client observes EOF/reset, never a wedged gateway.
        {
            use std::io::{Read, Write};
            let mut stream = TcpStream::connect(gateway_addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            let mut junk = 32u32.to_be_bytes().to_vec();
            junk.extend_from_slice(&[0xEE; 32]);
            stream.write_all(&junk).unwrap();
            let mut sink = Vec::new();
            // Read until the gateway drops us (0 bytes) or resets.
            let _ = stream.read_to_end(&mut sink);
        }

        // A well-behaved client right after must still be served.
        let stream = TcpStream::connect(gateway_addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = FrameWriter::new(&clear, &stream);
        let mut reader = FrameReader::new(&clear, &stream);
        let mut rng = StdRng::seed_from_u64(5);
        let msg = modbus::build_request(&clear, Function::ReadHoldingRegisters, &mut rng);
        let reference = clear.serialize(&msg).unwrap();
        writer.send_raw(&reference).unwrap();
        assert_eq!(reader.recv_raw().unwrap().expect("echo"), reference);
    });

    assert!(encode_stats.failed >= 1, "hostile relay must be counted: {encode_stats}");
    assert!(encode_stats.messages_in >= 2, "good client served after hostile one");
}
