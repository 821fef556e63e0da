//! C10K stress: ten thousand concurrent client connections through the
//! full loopback gateway chain —
//!
//! ```text
//! clients ──clear──▶ encode gw ──obf──▶ decode gw ──clear──▶ echo server
//! ```
//!
//! — every echo byte-identical to the client's framed request, no relay
//! failures, and the event loop's wake-servicing p99 bounded. The whole
//! chain runs in this one process, so each client connection costs six
//! file descriptors end to end; the test raises its own `RLIMIT_NOFILE`
//! (via the same raw-syscall shim the event loop uses) and scales the
//! connection count down to whatever limit it actually got.
//!
//! Connection count is env-tunable: `PROTOOBF_C10K_CONNS=1000` runs the
//! CI-sized variant; the default is the full 10 000. The clients are
//! driven off one epoll instance of their own — a readiness *scan* over
//! 10k client sockets would make the test harness the bottleneck being
//! measured.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use protoobf_core::profile::{Endpoint, Profile, SpecSource};
use protoobf_core::service::CodecService;
use protoobf_core::Codec;
use protoobf_protocols::modbus::{self, Function};
use protoobf_transport::{evloop, sys, Echo, Gateway, GatewayMode, LoopConfig, Metrics};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROFILE: &str = "profile protoobf/1\n\
                       spec builtin:modbus-request\n\
                       key \"c10k secret\"\n\
                       level 2\n";
const DEFAULT_CONNS: usize = 10_000;
/// Six sockets per end-to-end connection: client, encode down+up, decode
/// down+up, echo.
const FDS_PER_CONN: usize = 6;
/// Wake-servicing p99 bound (µs). Deliberately loose — the point is
/// "bounded under 10k connections", not a latency benchmark on shared CI
/// hardware.
const P99_BOUND_MICROS: u64 = 2_000_000;

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

fn target_conns() -> usize {
    std::env::var("PROTOOBF_C10K_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CONNS)
}

/// One client: sends a single framed modbus request, expects the exact
/// bytes echoed back through the chain.
struct Client {
    stream: TcpStream,
    framed: Vec<u8>,
    sent: usize,
    echoed: Vec<u8>,
    done: bool,
}

impl Client {
    /// Pumps writes then reads until both would block; flips `done` once
    /// the full echo arrived.
    fn pump(&mut self) -> std::io::Result<()> {
        while self.sent < self.framed.len() {
            match self.stream.write(&self.framed[self.sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut buf = [0u8; 4096];
        while self.echoed.len() < self.framed.len() {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.echoed.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.echoed.len() >= self.framed.len() {
            self.done = true;
        }
        Ok(())
    }
}

#[test]
fn c10k_chain_relays_byte_identical_with_bounded_wake_latency() {
    if !sys::supported() {
        eprintln!("skipping: no raw-syscall epoll shim on this target");
        return;
    }
    let mut conns = target_conns();
    let want = (conns * FDS_PER_CONN + 1024) as u64;
    match sys::raise_nofile_limit(want) {
        Ok(achieved) if achieved >= want => {}
        Ok(achieved) => {
            conns = ((achieved.saturating_sub(1024)) as usize / FDS_PER_CONN).max(64).min(conns);
            eprintln!("fd limit capped at {achieved}; scaling to {conns} connections");
        }
        Err(e) => {
            conns = 256.min(conns);
            eprintln!("cannot raise fd limit ({e}); scaling to {conns} connections");
        }
    }

    let graph = modbus::request_graph();
    let clear = Codec::identity(&graph);

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

        // Phase 1: open every connection before any traffic flows — the
        // chain really holds `conns` concurrent relays per gateway.
        let epoll = sys::Epoll::new().unwrap();
        let mut clients: Vec<Client> = Vec::with_capacity(conns);
        for i in 0..conns {
            let stream = TcpStream::connect(encode_addr)
                .unwrap_or_else(|e| panic!("connect {i}/{conns}: {e}"));
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true).unwrap();
            let interest = sys::flags::IN | sys::flags::OUT | sys::flags::RDHUP | sys::flags::ET;
            epoll.add(stream.as_raw_fd(), interest, i as u64).unwrap();
            // Per-client distinct payload: function and field values are
            // seeded by the client index.
            let mut rng = StdRng::seed_from_u64(i as u64);
            let f = Function::ALL[i % Function::ALL.len()];
            let msg = modbus::build_request(&clear, f, &mut rng);
            let body = clear.serialize(&msg).unwrap();
            let mut framed = (body.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(&body);
            clients.push(Client { stream, framed, sent: 0, echoed: Vec::new(), done: false });
        }

        // Phase 2: fire all requests and drive by kernel readiness until
        // every echo is home. Connections stay open until the last one
        // finishes, so the in-flight phase is fully concurrent.
        let mut remaining = clients.len();
        for c in clients.iter_mut() {
            c.pump().unwrap();
            if c.done {
                remaining -= 1;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(300);
        let mut events = vec![sys::EpollEvent::zeroed(); 1024];
        while remaining > 0 {
            assert!(
                Instant::now() < deadline,
                "timed out with {remaining}/{} echoes outstanding",
                clients.len()
            );
            let n = epoll.wait(&mut events, Some(Duration::from_millis(200))).unwrap();
            for ev in events.iter().take(n) {
                let idx = ev.token() as usize;
                let c = &mut clients[idx];
                if c.done {
                    continue;
                }
                c.pump().unwrap_or_else(|e| panic!("client {idx}: {e}"));
                if c.done {
                    remaining -= 1;
                }
            }
        }

        // Byte-identical through encode → obfuscated hop → decode → echo
        // and all the way back.
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(
                c.echoed, c.framed,
                "client {i}: echoed bytes diverged from the framed request"
            );
        }
        drop(clients);

        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().unwrap().unwrap();
        }
    });

    let conns = conns as u64;
    for (name, snap) in
        [("encode", encode_gw.metrics().snapshot()), ("decode", decode_gw.metrics().snapshot())]
    {
        eprintln!("{name}: {snap}");
        assert_eq!(snap.accepted, conns, "{name} gateway must accept every connection");
        assert_eq!(snap.failed, 0, "{name} gateway relays must not fail: {snap}");
        assert_eq!(snap.accept_errors, 0, "{name} gateway accepts must not fail: {snap}");
        // Every connection carries one request and one echo.
        assert_eq!(snap.messages_in, conns * 2, "{name} gateway message count");
        let wakes = snap.wake_latency;
        assert!(wakes.count() > 0, "{name} gateway recorded no wakes");
        assert!(
            wakes.p99() <= P99_BOUND_MICROS,
            "{name} gateway wake p99 {} µs exceeds {} µs",
            wakes.p99(),
            P99_BOUND_MICROS
        );
    }
}
