//! Coverage for the portable **readiness-scan fallback**: every test in
//! this file (its own process) sets `PROTOOBF_EVLOOP=scan` before
//! starting an event loop, forcing the worker the epoll-less targets
//! get. The suite proves the fallback still serves correctly — round
//! trips, accept caps, wake-latency recording, backpressure gating — so
//! the compile-time backend split cannot silently rot.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use protoobf_core::profile::{Profile, SpecSource};
use protoobf_core::sample::sample_into;
use protoobf_core::service::CodecService;
use protoobf_core::{Codec, FormatGraph};
use protoobf_protocols::modbus::{self, Function};
use protoobf_transport::{
    evloop, Drive, Echo, Gateway, GatewayMode, LoopConfig, Metrics, MetricsSnapshot, Responder,
    Session, TransportError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{framed, recv_frame};

/// Forces the scan worker for this whole test process. All tests set the
/// same value, so the (process-global) write is race-free in effect.
fn force_scan() {
    // SAFETY: all writers in this process store the same value, and the
    // event loop only reads it.
    unsafe { std::env::set_var("PROTOOBF_EVLOOP", "scan") };
}

fn framed_request(clear: &Codec, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = Function::ALL[seed as usize % Function::ALL.len()];
    framed(&clear.serialize(&modbus::build_request(clear, f, &mut rng)).unwrap())
}

/// 32 concurrent echo round trips on the scan worker, byte-identical,
/// with wake latency recorded and idle naps observed (the scan path's
/// signature the epoll path never produces while parked).
#[test]
fn scan_fallback_roundtrips_and_records_wake_latency() {
    force_scan();
    const CLIENTS: usize = 32;

    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);
    let svc = CodecService::new(Codec::identity(&graph));
    let metrics = Metrics::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 2, ..LoopConfig::default() };

    std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            evloop::serve(listener, &cfg, &shutdown, &metrics, |s, _| {
                Ok(Echo::new(s, &svc, &metrics))
            })
        });
        std::thread::scope(|clients| {
            for t in 0..CLIENTS {
                let clear = &clear;
                clients.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    let framed = framed_request(clear, t as u64);
                    for _ in 0..4 {
                        stream.write_all(&framed).unwrap();
                        let echoed = recv_frame(&stream).unwrap();
                        assert_eq!(echoed, framed[4..], "client {t}: echo diverged on scan path");
                    }
                });
            }
        });
        // Linger until an idle worker demonstrably backs off, or give up
        // after 10 s and let the assertion below fail.
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.snapshot().idle_naps == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        shutdown.store(true, Ordering::Relaxed);
        served.join().unwrap().unwrap();
    });

    let snap = metrics.snapshot();
    assert_eq!(snap.accepted as usize, CLIENTS);
    assert_eq!(snap.failed, 0, "{snap}");
    assert!(snap.wake_latency.count() > 0, "scan wakes must be recorded: {snap}");
    assert!(snap.idle_naps > 0, "idle scan workers must nap: {snap}");
}

/// The server behind the flooded listener in
/// [`scan_fallback_gates_reads_under_backpressure`].
#[derive(Debug, Clone, Copy)]
enum Server {
    /// An `Echo` with a one-byte outbound cap.
    Echo,
    /// A `Responder` with a one-byte outbound cap.
    Responder,
    /// An encode + decode gateway pair, both capped at one byte, in front
    /// of an uncapped `Echo`.
    RelayChain,
}

const RESPONDER_SEED: u64 = 0x5EED;
/// Requests each flood sends before reading a reply.
const MSGS: usize = 64;

const PROFILE: &str = "profile protoobf/1\n\
                       spec builtin:modbus-request\n\
                       key \"scan backpressure\"\n\
                       level 2\n";

fn resolver(src: &SpecSource) -> Result<FormatGraph, String> {
    match src {
        SpecSource::Builtin(name) if name == "modbus-request" => Ok(modbus::request_graph()),
        other => Err(format!("not in the test table: {other}")),
    }
}

/// Floods `MSGS` requests at `server` without reading a reply, then
/// drains. Returns the reply bodies expected, the reply bodies received
/// and the metrics of every session in the path.
fn flood_and_drain(server: Server) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<MetricsSnapshot>) {
    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);
    let requests = CodecService::new(Codec::identity(&graph));
    let replies = CodecService::new(Codec::identity(&modbus::response_graph()));
    let server_metrics = Metrics::new();
    let encode_ep = Profile::parse(PROFILE).unwrap().build_with(&resolver).unwrap();
    let decode_ep = Profile::parse(PROFILE).unwrap().build_with(&resolver).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server_addr = listener.local_addr().unwrap();
    let decode_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_gw =
        Gateway::from_endpoint(&encode_ep, GatewayMode::Encode, decode_l.local_addr().unwrap())
            .unwrap()
            .with_outbound_cap(1);
    let decode_gw = Gateway::from_endpoint(&decode_ep, GatewayMode::Decode, server_addr)
        .unwrap()
        .with_outbound_cap(1);
    let client_addr = match server {
        Server::RelayChain => encode_l.local_addr().unwrap(),
        Server::Echo | Server::Responder => server_addr,
    };

    let request = framed_request(&clear, 3);
    let expected: Vec<Vec<u8>> = match server {
        Server::Echo | Server::RelayChain => vec![request[4..].to_vec(); MSGS],
        Server::Responder => {
            let codec = replies.codec();
            let mut reply = codec.message_seeded(RESPONDER_SEED);
            let mut rng = StdRng::seed_from_u64(RESPONDER_SEED);
            (0..MSGS)
                .map(|_| {
                    sample_into(codec, &mut reply, &mut rng, &[]);
                    codec.serialize(&reply).unwrap()
                })
                .collect()
        }
    };

    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 1, ..LoopConfig::default() };
    let mut received = Vec::new();
    std::thread::scope(|scope| {
        let mut loops = vec![scope.spawn(|| {
            evloop::serve(listener, &cfg, &shutdown, &server_metrics, |s, _| {
                // One frame's worth of cap: pressure engages immediately.
                Ok(match server {
                    Server::Echo => Either::Echo(Box::new(
                        Echo::new(s, &requests, &server_metrics).outbound_cap(1),
                    )),
                    Server::RelayChain => {
                        Either::Echo(Box::new(Echo::new(s, &requests, &server_metrics)))
                    }
                    Server::Responder => Either::Responder(Box::new(
                        Responder::new(s, &requests, &replies, RESPONDER_SEED, &server_metrics)
                            .outbound_cap(1),
                    )),
                })
            })
        })];
        if let Server::RelayChain = server {
            loops.push(scope.spawn(|| decode_gw.serve(decode_l, &cfg, &shutdown)));
            loops.push(scope.spawn(|| encode_gw.serve(encode_l, &cfg, &shutdown)));
        }

        let mut stream = TcpStream::connect(client_addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // Flood all requests without reading a single reply.
        for _ in 0..MSGS {
            stream.write_all(&request).unwrap();
        }
        // Now drain: every reply must still arrive, in order, intact.
        for i in 0..MSGS {
            let reply = recv_frame(&stream).unwrap_or_else(|e| panic!("{server:?} reply {i}: {e}"));
            received.push(reply);
        }
        drop(stream);

        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().unwrap().unwrap();
        }
    });

    let mut stats = vec![server_metrics.snapshot()];
    if let Server::RelayChain = server {
        stats.push(encode_gw.metrics().snapshot());
        stats.push(decode_gw.metrics().snapshot());
    }
    (expected, received, stats)
}

/// Either server session, so one factory can return both (boxed: the
/// two differ in size).
#[derive(Debug)]
enum Either<'s> {
    Echo(Box<Echo<'s>>),
    Responder(Box<Responder<'s>>),
}

impl Session for Either<'_> {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        match self {
            Either::Echo(s) => s.drive(),
            Either::Responder(s) => s.drive(),
        }
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        match self {
            Either::Echo(s) => s.sockets(out),
            Either::Responder(s) => s.sockets(out),
        }
    }
}

/// Backpressure on the scan worker: a one-byte outbound cap against a
/// client that floods requests while not reading replies, for each
/// session kind that gates its reads on the cap. Each must gate (pressure
/// recorded), survive (no failure, no unbounded queue), and deliver every
/// reply intact once the client drains.
#[test]
fn scan_fallback_gates_reads_under_backpressure() {
    force_scan();
    for server in [Server::Echo, Server::Responder, Server::RelayChain] {
        let (expected, received, stats) = flood_and_drain(server);
        assert_eq!(received.len(), MSGS);
        for (i, (got, want)) in received.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "{server:?}: reply {i} diverged under backpressure");
        }
        for snap in &stats {
            assert_eq!(snap.failed, 0, "{server:?}: backpressure must pause, not kill: {snap}");
        }
        assert_eq!(stats[0].messages_in as usize, MSGS, "{server:?}: every request served");
        let pressure: u64 = match server {
            // The gateways carry the caps; the echo behind them does not.
            Server::RelayChain => stats[1..].iter().map(|s| s.backpressure_events).sum(),
            Server::Echo | Server::Responder => stats[0].backpressure_events,
        };
        assert!(pressure > 0, "{server:?}: a 1-byte cap against a flood must record pressure");
    }
}
