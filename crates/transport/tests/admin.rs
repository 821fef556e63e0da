//! The admin scrape plane against a live gateway chain: while an encode
//! gateway relays real traffic over loopback sockets, `/metrics`,
//! `/events` and `/health` are scraped over a real socket — exactly what
//! a Prometheus scraper (or `bash /dev/tcp`) does in production.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use protoobf_core::profile::{Endpoint, Profile, SpecSource};
use protoobf_core::service::CodecService;
use protoobf_core::Codec;
use protoobf_protocols::modbus::{self, Function};
use protoobf_transport::{evloop, serve_admin, Echo, Gateway, GatewayMode, LoopConfig, Metrics};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{framed, recv_frame};

const PROFILE: &str = "profile protoobf/1\n\
                       spec builtin:modbus-request\n\
                       key \"admin plane secret\"\n\
                       level 2\n";
const MSGS: usize = 16;

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

/// One blocking HTTP request against the admin endpoint, the way curl
/// does it: connect, write the request, read to EOF.
fn http_get(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Extracts the value of a Prometheus sample line (`name 42` → 42).
fn sample(body: &str, series: &str) -> Option<u64> {
    body.lines()
        .find(|l| l.split_whitespace().next() == Some(series))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn admin_endpoint_serves_scrapes_while_the_gateway_relays() {
    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);

    let server_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server_addr = server_listener.local_addr().unwrap();
    let decode_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let decode_addr = decode_listener.local_addr().unwrap();
    let encode_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_addr = encode_listener.local_addr().unwrap();
    let admin_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let admin_addr = admin_listener.local_addr().unwrap();

    let encode_gw = Gateway::from_endpoint(&endpoint(), GatewayMode::Encode, decode_addr).unwrap();
    let decode_gw = Gateway::from_endpoint(&endpoint(), GatewayMode::Decode, server_addr).unwrap();
    let server_svc = CodecService::new(Codec::identity(&graph));
    let server_metrics = Metrics::new();
    let telemetry = Arc::new(encode_gw.telemetry());

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
            scope.spawn(|| serve_admin(admin_listener, Arc::clone(&telemetry), &shutdown)),
        ];

        // /health answers before any data-plane traffic exists, and names
        // the running derivation.
        let fingerprint = encode_gw.fingerprint();
        let health = http_get(admin_addr, "GET /health HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        assert!(health.ends_with(&format!("\r\n\r\nok\nfingerprint {fingerprint}\n")), "{health}");

        // Relay real traffic and keep the connection open across the
        // scrapes: the registry must report a *live* chain, not a
        // drained one.
        let stream = TcpStream::connect(encode_addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..MSGS {
            let f = Function::ALL[i % Function::ALL.len()];
            let msg = modbus::build_request(&clear, f, &mut rng);
            let reference = clear.serialize(&msg).unwrap();
            (&stream).write_all(&framed(&reference)).unwrap();
            let echoed = recv_frame(&stream).expect("echo before EOF");
            assert_eq!(echoed, reference, "message {i} diverged through the chain");
        }

        // Mid-run /metrics scrape: the encode gateway has decoded the
        // requests AND their echoes by the time the last echo reached
        // the client.
        let metrics = http_get(admin_addr, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.0 200"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        let msgs_in = sample(&metrics, "protoobf_messages_in_total").unwrap();
        assert!(
            msgs_in >= 2 * MSGS as u64,
            "encode gateway must have decoded requests + echoes, saw {msgs_in}\n{metrics}"
        );
        assert_eq!(sample(&metrics, "protoobf_accepted_total"), Some(1), "{metrics}");
        // The frame-shape histogram and the per-service series are live.
        assert!(metrics.contains("protoobf_frame_bytes_bucket"), "{metrics}");
        assert!(metrics.contains("service=\"down_rx\""), "{metrics}");
        assert!(metrics.contains("protoobf_stage_calls_total{stage=\"transcode\"}"), "{metrics}");
        let build_info = format!(
            "protoobf_build_info{{fingerprint=\"{fingerprint}\",level=\"2\",mode=\"encode\"}}"
        );
        assert_eq!(sample(&metrics, &build_info), Some(1), "{metrics}");

        // A second scrape additionally exposes the per-interval series
        // (delta since the scrape above).
        let again = http_get(admin_addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(again.contains("protoobf_wake_latency_interval_micros"), "{again}");

        // /events carries the client connection's accept, with a peer
        // token that decodes back to a loopback address.
        let events = http_get(admin_addr, "GET /events HTTP/1.0\r\n\r\n");
        assert!(events.starts_with("HTTP/1.0 200"), "{events}");
        assert!(events.contains("accept"), "{events}");
        assert!(events.contains("peer=127.0.0.1:"), "{events}");

        // Unknown paths and non-GET methods get one-line errors, and the
        // plane keeps serving afterwards.
        let missing = http_get(admin_addr, "GET /nope HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        let post = http_get(admin_addr, "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(post.starts_with("HTTP/1.0 405"), "{post}");
        let still = http_get(admin_addr, "GET /health HTTP/1.0\r\n\r\n");
        assert!(still.starts_with("HTTP/1.0 200"), "{still}");

        drop(stream);
        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().unwrap().unwrap();
        }
    });

    // The flight recorder saw the whole lifecycle: accept and (after
    // shutdown) the close/shutdown edge of the relay.
    let events = telemetry.metrics().recorder.dump();
    assert!(events.iter().any(|e| e.kind.name() == "accept"), "{events:?}");
}

/// An oversized request head must be rejected without tearing down the
/// admin plane.
#[test]
fn oversized_request_heads_get_431_and_the_plane_survives() {
    let admin_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let admin_addr = admin_listener.local_addr().unwrap();
    let telemetry = Arc::new(protoobf_transport::Telemetry::new(Arc::new(Metrics::new())));
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let admin = scope.spawn(|| serve_admin(admin_listener, Arc::clone(&telemetry), &shutdown));

        let huge = format!("GET /metrics HTTP/1.0\r\nX-Junk: {}\r\n\r\n", "j".repeat(16 * 1024));
        let response = http_get(admin_addr, &huge);
        assert!(response.starts_with("HTTP/1.0 431"), "{response}");

        let ok = http_get(admin_addr, "GET /health HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200"), "{ok}");
        // A registry that names no derivation reports bare health.
        assert!(ok.ends_with("\r\n\r\nok\n"), "{ok}");

        shutdown.store(true, Ordering::Relaxed);
        admin.join().unwrap().unwrap();
    });
}
