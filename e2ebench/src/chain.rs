//! The gateway chain under test: clear client → encode gateway → decode
//! gateway → server and back, over loopback TCP, hosted by one
//! `evloop::serve` worker.
//!
//! Each accepted client connection becomes one composite [`ChainSession`]
//! that owns the chain's three production sessions (the encode `Relay`,
//! the decode `Relay` and the server's `Echo` or `Responder`), joined by
//! real loopback TCP hops that the session factory dials. The composite
//! reports all of their sockets and drives each inner session once per
//! drive, so every byte crosses the kernel and the production pumps; only
//! the scheduling is collapsed onto one worker thread.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use protoobf::transport::error::TransportError;
use protoobf::transport::evloop::{self, Drive, LoopConfig, Session};
use protoobf::transport::gateway::{Echo, Gateway, GatewayMode, Relay, Responder};
use protoobf::transport::metrics::Metrics;
use protoobf::{Endpoint, Profile, ProfileExt};

use crate::trace::{Span, Stamp, Tracer, MAX_TRACED_RTS};
use crate::workload::{responder_seed, Kind};

/// Everything set-up produces: two independently derived endpoints, the
/// gateways over them (all four relay pairings armed), the client-facing
/// listener and the listener the factory dials the hops through.
#[derive(Debug)]
pub struct Chain {
    pub enc: Endpoint,
    pub dec: Endpoint,
    pub enc_gw: Gateway,
    pub dec_gw: Gateway,
    pub listener: TcpListener,
    hop: TcpListener,
}

impl Chain {
    /// From profile text to a chain ready to relay: the profile parse, one
    /// endpoint derivation per gateway, the four relay pairings' transcode
    /// programs, and the listeners bound. This is what `setup_s` times.
    pub fn setup(profile_text: &str) -> Result<Chain, String> {
        let profile = Profile::parse(profile_text).map_err(|e| e.to_string())?;
        let enc = profile.build().map_err(|e| e.to_string())?;
        let dec = profile.build().map_err(|e| e.to_string())?;
        if enc.fingerprint() != dec.fingerprint() {
            return Err("the two gateways derived different stacks".into());
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let hop = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let hop_addr = hop.local_addr().map_err(|e| e.to_string())?;
        let enc_gw = Gateway::from_endpoint(&enc, GatewayMode::Encode, hop_addr)
            .map_err(|e| e.to_string())?;
        let dec_gw = Gateway::from_endpoint(&dec, GatewayMode::Decode, hop_addr)
            .map_err(|e| e.to_string())?;
        for gw in [&enc_gw, &dec_gw] {
            let (down, up) = (gw.down_services(), gw.up_services());
            up.tx.transcode_target(down.rx).map_err(|e| e.to_string())?;
            down.tx.transcode_target(up.rx).map_err(|e| e.to_string())?;
        }
        Ok(Chain { enc, dec, enc_gw, dec_gw, listener, hop })
    }

    /// Runs the chain on one event-loop worker (a scoped thread) while
    /// `client` drives it from the calling thread; returns the client's
    /// result once the worker has stopped. `tracer` turns on span
    /// recording inside the chain sessions.
    pub fn serve<R>(
        &self,
        kind: Kind,
        seed: u64,
        metrics: &Metrics,
        tracer: Option<&Tracer>,
        client: impl FnOnce(SocketAddr) -> R,
    ) -> Result<R, String> {
        let listener = self.listener.try_clone().map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let cfg = LoopConfig { workers: 1, ..LoopConfig::default() };
        let shutdown = AtomicBool::new(false);
        let conns = AtomicU64::new(0);
        let factory = |down: TcpStream, _peer: SocketAddr| {
            // Only a connection opened by a recorded round trip pays for
            // its span, as in `ChainSession::drive`.
            let rt = tracer.map_or(0, Tracer::current);
            let start = (rt != 0 && rt <= MAX_TRACED_RTS).then(Stamp::now);
            let conn = conns.fetch_add(1, Ordering::Relaxed);
            let session =
                self.session(kind, responder_seed(kind, seed, conn), down, metrics, tracer);
            if let (Some(tr), Some(start)) = (tracer, start) {
                let span = Span {
                    rt,
                    name: "conn.setup",
                    parent: "client.wait",
                    note: "",
                    start,
                    end: Stamp::now(),
                };
                tr.hand_over(&mut vec![span]);
            }
            session
        };
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| evloop::serve(listener, &cfg, &shutdown, metrics, factory));
            let result = client(addr);
            shutdown.store(true, Ordering::Relaxed);
            match worker.join() {
                Ok(Ok(())) => Ok(result),
                Ok(Err(e)) => Err(format!("event loop: {e}")),
                Err(_) => Err("event-loop worker panicked".into()),
            }
        })
    }

    /// The session factory's work for one accepted client connection:
    /// dial both hops, then build the two relays and the server.
    fn session<'s>(
        &'s self,
        kind: Kind,
        responder_seed: u64,
        down: TcpStream,
        metrics: &'s Metrics,
        tracer: Option<&'s Tracer>,
    ) -> Result<ChainSession<'s>, TransportError> {
        let (a_up, a_down) = self.hop_pair().map_err(TransportError::Io)?;
        let (b_up, b_down) = self.hop_pair().map_err(TransportError::Io)?;
        let enc = Relay::new(
            down,
            a_up,
            self.enc_gw.down_services(),
            self.enc_gw.up_services(),
            metrics,
        )?;
        let dec = Relay::new(
            a_down,
            b_up,
            self.dec_gw.down_services(),
            self.dec_gw.up_services(),
            metrics,
        )?;
        let (requests, replies) = (self.dec.clear_tx_service(), self.dec.clear_rx_service());
        let server = if kind == Kind::Bulk64k {
            Server::Echo(Echo::new(b_down, requests, metrics))
        } else {
            Server::Responder(Responder::new(b_down, requests, replies, responder_seed, metrics))
        };
        Ok(ChainSession {
            enc,
            dec,
            server,
            done: [false; 3],
            tracer,
            spans: Vec::new(),
            last_idle: true,
        })
    }

    /// One loopback TCP hop: a dialed end and its accepted peer, both
    /// non-blocking with Nagle off, as the production gateway configures
    /// its upstream dials.
    fn hop_pair(&self) -> std::io::Result<(TcpStream, TcpStream)> {
        let up = TcpStream::connect(self.hop.local_addr()?)?;
        let (down, _) = self.hop.accept()?;
        for s in [&up, &down] {
            s.set_nonblocking(true)?;
            s.set_nodelay(true)?;
        }
        Ok((up, down))
    }
}

/// The chain's server: `Echo` for symmetric profiles, `Responder` for
/// request/response ones.
#[derive(Debug)]
enum Server<'s> {
    Echo(Echo<'s>),
    Responder(Responder<'s>),
}

/// The whole chain for one client connection, as one event-loop session.
#[derive(Debug)]
pub struct ChainSession<'s> {
    enc: Relay<'s>,
    dec: Relay<'s>,
    server: Server<'s>,
    /// Which inner sessions have finished (and are no longer driven).
    done: [bool; 3],
    tracer: Option<&'s Tracer>,
    spans: Vec<Span>,
    /// Whether the previous drive found nothing to do, so the next one
    /// follows a wake-up of the worker.
    last_idle: bool,
}

const PARTS: [&str; 3] = ["gateway.enc", "gateway.dec", "gateway.server"];

impl ChainSession<'_> {
    fn drive_part(&mut self, part: usize) -> Result<Drive, TransportError> {
        match part {
            0 => self.enc.drive(),
            1 => self.dec.drive(),
            _ => match &mut self.server {
                Server::Echo(s) => s.drive(),
                Server::Responder(s) => s.drive(),
            },
        }
    }
}

impl Session for ChainSession<'_> {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        let rt = self.tracer.map_or(0, Tracer::current);
        let traced = rt != 0 && rt <= MAX_TRACED_RTS;
        let start = traced.then(Stamp::now);
        let mut progress = false;
        for (part, &name) in PARTS.iter().enumerate() {
            if self.done[part] {
                continue;
            }
            let t = traced.then(Stamp::now);
            let drive = self.drive_part(part)?;
            match drive {
                Drive::Progress => progress = true,
                Drive::Idle => {}
                Drive::Done => {
                    self.done[part] = true;
                    progress = true;
                }
            }
            if let Some(t) = t {
                let note = if drive == Drive::Idle { "idle" } else { "" };
                self.spans.push(Span {
                    rt,
                    name,
                    parent: "chain.drive",
                    note,
                    start: t,
                    end: Stamp::now(),
                });
            }
        }
        if let Some(start) = start {
            let note = if self.last_idle { "wake" } else { "" };
            self.spans.push(Span {
                rt,
                name: "chain.drive",
                parent: "client.wait",
                note,
                start,
                end: Stamp::now(),
            });
        }
        self.last_idle = !progress;
        Ok(if self.done.iter().all(|&d| d) {
            Drive::Done
        } else if progress {
            Drive::Progress
        } else {
            Drive::Idle
        })
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        self.enc.sockets(out);
        self.dec.sockets(out);
        match &self.server {
            Server::Echo(s) => s.sockets(out),
            Server::Responder(s) => s.sockets(out),
        }
    }
}

impl Drop for ChainSession<'_> {
    fn drop(&mut self) {
        if let Some(tr) = self.tracer {
            tr.hand_over(&mut self.spans);
        }
    }
}

/// Lets callers time set-up without keeping the chain.
pub fn time_setup(profile_text: &str) -> Result<Duration, String> {
    let t = Instant::now();
    let chain = Chain::setup(profile_text)?;
    let elapsed = t.elapsed();
    drop(chain);
    Ok(elapsed)
}
