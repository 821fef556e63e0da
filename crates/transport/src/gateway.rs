//! The obfuscating gateway: the paper's deployment model as a transparent
//! TCP relay pair.
//!
//! An **encode** gateway accepts clear-framed connections (unmodified
//! client software linked against the plain spec), transcodes every
//! message onto the obfuscated codec and relays it upstream; a **decode**
//! gateway does the inverse in front of the real server. Response traffic
//! flows back through the same pair in reverse. Both directions of both
//! legs run over one shared compiled plan per codec ([`CodecService`]),
//! with per-connection pooled sessions ([`Conn`]); the per-message
//! transcode step runs a compiled plan-level copy program shared per leg
//! pairing ([`CodecService::transcode_target`]), so the steady-state
//! relay loop — decode, transcode, re-encode — allocates nothing.
//!
//! ```text
//!        clear frames          obfuscated frames          clear frames
//! client ───────────▶ encode gateway ───────────▶ decode gateway ───────────▶ server
//!        ◀─────────── (Relay per connection)     ◀─────────── (Relay)
//! ```
//!
//! A gateway pair is configured by two copies of one
//! [`protoobf_core::profile::Profile`] file ([`Gateway::from_endpoint`]):
//! each side independently derives the whole stack from the shared key,
//! and the two derivations can be verified equal by comparing
//! [`Gateway::fingerprint`]s before any traffic flows. Profiles with
//! distinct `tx`/`rx` specs run **asymmetric** request/response chains —
//! each relay leg carries a different grammar per direction.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use protoobf_core::message::Message;
use protoobf_core::profile::{Endpoint, Fingerprint};
use protoobf_core::service::CodecService;

use crate::conn::{Conn, ConnState, DEFAULT_OUTBOUND_CAP};
use crate::error::TransportError;
use crate::evloop::{self, Drive, LoopConfig, Session};
use crate::metrics::{peer_token, EventKind, Metrics, Telemetry};

/// Bound on the per-connection upstream dial. The dial happens on the
/// accepting worker's thread, so an unreachable upstream must stall that
/// worker's other relays for at most this long (a fully non-blocking
/// connect is a ROADMAP item).
const UPSTREAM_DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Which side of the obfuscated wire this gateway faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayMode {
    /// Accept clear traffic, emit obfuscated traffic upstream (client
    /// side).
    Encode,
    /// Accept obfuscated traffic, emit clear traffic upstream (server
    /// side).
    Decode,
}

/// The two codec services of one relay leg: what the leg's socket is
/// parsed with (`rx`) and serialized onto (`tx`). Symmetric protocols
/// pass the same service twice ([`LegServices::symmetric`]).
#[derive(Debug, Clone, Copy)]
pub struct LegServices<'s> {
    /// Codec of the leg's inbound frames.
    pub rx: &'s CodecService,
    /// Codec of the leg's outbound frames.
    pub tx: &'s CodecService,
}

impl<'s> LegServices<'s> {
    /// Both directions of the leg speak `svc`'s codec.
    pub fn symmetric(svc: &'s CodecService) -> LegServices<'s> {
        LegServices { rx: svc, tx: svc }
    }
}

/// One socket of a session and the sans-io [`Conn`] framing it.
#[derive(Debug)]
pub(crate) struct Leg<'s> {
    pub(crate) stream: TcpStream,
    pub(crate) conn: Conn<'s>,
    /// Whether this leg's outbound cap paused its producer on the last
    /// pass — edge-detects [`Metrics::backpressure_events`] so a long
    /// stall counts once, not once per drive.
    gated: bool,
    /// Whether this leg's write side has been shut down.
    pub(crate) write_closed: bool,
}

impl<'s> Leg<'s> {
    pub(crate) fn new(stream: TcpStream, conn: Conn<'s>) -> Leg<'s> {
        Leg { stream, conn, gated: false, write_closed: false }
    }

    /// Drains the socket's ready bytes into the connection (non-blocking).
    /// Returns whether any byte moved; clean EOF is fed to the connection.
    pub(crate) fn read_into(
        &mut self,
        buf: &mut [u8],
        metrics: &Metrics,
    ) -> Result<bool, TransportError> {
        if self.conn.state() != ConnState::Open {
            return Ok(false);
        }
        let mut progress = false;
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    self.conn.feed_eof();
                    progress = true;
                    break;
                }
                Ok(n) => {
                    self.conn.feed_inbound(&buf[..n])?;
                    Metrics::add(&metrics.bytes_in, n as u64);
                    progress = true;
                    if n < buf.len() {
                        break; // drained the socket's ready bytes
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        Ok(progress)
    }

    /// Writes the queued outbound bytes until the socket would block or
    /// the queue drains, then records a backpressure event if `engaged`
    /// (this pass's producer was paused by the cap) starts a stall.
    /// Returns whether any byte moved.
    pub(crate) fn flush_from(
        &mut self,
        engaged: bool,
        metrics: &Metrics,
        token: u64,
    ) -> Result<bool, TransportError> {
        let mut progress = false;
        while self.conn.has_outbound() {
            match self.stream.write(self.conn.outbound()) {
                Ok(0) => return Err(TransportError::Io(io::Error::from(io::ErrorKind::WriteZero))),
                Ok(n) => {
                    self.conn.consume_outbound(n);
                    Metrics::add(&metrics.bytes_out, n as u64);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        if engaged && !self.gated {
            Metrics::add(&metrics.backpressure_events, 1);
            metrics.recorder.record(
                EventKind::Backpressure,
                token,
                self.conn.outbound_len() as u64,
            );
        }
        self.gated = engaged;
        Ok(progress)
    }

    /// Shuts the write side down once `finished` holds and everything
    /// queued is delivered. Returns whether it did so on this call.
    pub(crate) fn close_write(&mut self, finished: bool) -> bool {
        if self.write_closed || !finished || self.conn.has_outbound() {
            return false;
        }
        let _ = self.stream.shutdown(Shutdown::Write);
        self.write_closed = true;
        true
    }
}

/// The per-message steps of the [`Pump`] sessions. Sealed in a private
/// module: [`Relay`], [`Echo`] and [`Responder`] are the pump's only
/// instances.
mod step {
    use protoobf_core::codec::Codec;
    use protoobf_core::message::Message;
    use protoobf_core::service::CodecService;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// What a pump answers each decoded message with (`Conn::forward`).
    #[derive(Debug)]
    pub enum Reply<'a, 's> {
        /// The parsed message itself, on the codec that parsed it (an
        /// echo): the parse leaves the element runs its plan copies frame
        /// to frame in the frame, and the serializer copies them back as
        /// blocks ([`protoobf_core::framing::WireHop`]).
        Parsed,
        /// The parsed message transcoded into this relay target, armed for
        /// the connection's inbound codec
        /// ([`CodecService::transcode_target`]).
        Transcode(&'a mut Message<'s>),
        /// A fresh sample of this codec's grammar, drawn from the RNG into
        /// the pooled message ([`protoobf_core::sample::sample_into`]),
        /// whatever the parsed message holds.
        Sample(&'a Codec, &'a mut Message<'s>, &'a mut StdRng),
    }

    /// A pump's per-message step: the [`Reply`] to direction `dir`'s next
    /// decoded message.
    pub trait Step<'s> {
        fn reply(&mut self, dir: usize) -> Reply<'_, 's>;
    }

    /// Transcodes direction `dir`'s messages into its armed target: the
    /// compiled copy program shared per leg pairing
    /// ([`CodecService::transcode_target`]), allocation-free.
    impl<'s, const N: usize> Step<'s> for [Message<'s>; N] {
        fn reply(&mut self, dir: usize) -> Reply<'_, 's> {
            Reply::Transcode(&mut self[dir])
        }
    }

    /// The echo's step: sends every parsed message itself back, on the
    /// codec that parsed it, with no transcode.
    #[derive(Debug)]
    pub struct SendBack;

    impl<'s> Step<'s> for SendBack {
        fn reply(&mut self, _dir: usize) -> Reply<'_, 's> {
            Reply::Parsed
        }
    }

    /// The responder's step: answers every request, whatever its content,
    /// with a fresh sample of the reply grammar drawn into one pooled
    /// message ([`Reply::Sample`]: stores reused across replies; only the
    /// sampled values themselves still allocate).
    #[derive(Debug)]
    pub struct Sample<'s> {
        svc: &'s CodecService,
        reply: Message<'s>,
        rng: StdRng,
    }

    impl<'s> Sample<'s> {
        /// Replies of `svc`'s codec, deterministic per `seed`.
        pub(super) fn new(svc: &'s CodecService, seed: u64) -> Sample<'s> {
            Sample {
                svc,
                reply: svc.codec().message_seeded(seed),
                rng: StdRng::seed_from_u64(seed),
            }
        }
    }

    impl<'s> Step<'s> for Sample<'s> {
        fn reply(&mut self, _dir: usize) -> Reply<'_, 's> {
            Reply::Sample(self.svc.codec(), &mut self.reply, &mut self.rng)
        }
    }
}

pub(crate) use step::Reply;
use step::{Sample, SendBack, Step};

/// A socket session over `N` legs that decodes every inbound message,
/// runs it through the session's step and sends the result: direction `i` reads
/// leg `i` and writes leg `(i + 1) % N`, so a one-leg session answers on
/// the socket it reads. [`Relay`], [`Echo`] and [`Responder`] are its
/// instances.
///
/// Ingestion is **gated on the destination's outbound cap**
/// ([`Conn::can_send`]): while the destination queue is at capacity a
/// direction neither reads its socket nor decodes buffered frames, so
/// [`TransportError::Backpressure`] is never hit — the pressure
/// propagates backwards as an unread socket (a closed TCP window to the
/// sender) instead of killing the session or growing its memory. This is
/// safe under edge-triggered readiness: a pass whose queue stays at
/// capacity past the flush has queued bytes behind a write-blocked
/// socket, so that socket's next writability edge re-drives the session
/// and reopens the gate. Each direction passes its source's half-close on
/// once everything in flight is delivered; the session is
/// [`Drive::Done`] when every leg's write side is shut.
#[derive(Debug)]
pub struct Pump<'s, S, const N: usize> {
    legs: [Leg<'s>; N],
    step: S,
    read_buf: Vec<u8>,
    metrics: &'s Metrics,
    token: u64,
}

impl<'s, S, const N: usize> Pump<'s, S, N> {
    fn with_legs(legs: [Leg<'s>; N], step: S, metrics: &'s Metrics) -> Pump<'s, S, N> {
        Pump { legs, step, read_buf: vec![0u8; 16 * 1024], metrics, token: 0 }
    }

    /// Sets the flight-recorder token for this session's lifecycle events
    /// (builder; conventionally [`peer_token`] of the accepted peer).
    pub fn with_token(mut self, token: u64) -> Pump<'s, S, N> {
        self.token = token;
        self
    }

    /// Caps every leg's outbound queue at `cap` bytes (builder; default
    /// [`crate::conn::DEFAULT_OUTBOUND_CAP`]). When a leg's queue reaches
    /// its cap the session stops *reading* the socket that feeds it, so a
    /// slow receiver surfaces to the original sender as a closed TCP
    /// window rather than as unbounded memory.
    pub fn outbound_cap(mut self, cap: usize) -> Pump<'s, S, N> {
        for leg in &mut self.legs {
            leg.conn.set_outbound_cap(cap);
        }
        self
    }
}

/// Pumps direction `src` once: socket bytes → frames → `step` (decode,
/// answer, encode) → destination socket, then the backpressure edge and
/// the half-close. Each codec stage runs under a sampled timer (an armed
/// sample on an empty poll is dropped — under-sampling, never skew) and
/// frame sizes feed the traffic-shape histograms; all of it relaxed
/// atomics, allocation-free. Returns whether any byte or message moved.
fn pump<'s, const N: usize>(
    legs: &mut [Leg<'s>; N],
    src: usize,
    step: &mut impl Step<'s>,
    read_buf: &mut [u8],
    metrics: &Metrics,
    token: u64,
) -> Result<bool, TransportError> {
    let dst = (src + 1) % N;
    let mut progress = false;
    let engaged = if legs[dst].conn.can_send() {
        progress |= legs[src].read_into(read_buf, metrics)?;
        while legs[dst].conn.can_send() {
            let (from, to) = conns(legs, src, dst);
            if !from.forward(to, step.reply(src), metrics)? {
                break;
            }
            progress = true;
        }
        !legs[dst].conn.can_send()
    } else {
        true
    };
    progress |= legs[dst].flush_from(engaged, metrics, token)?;
    let peer_closed = legs[src].conn.state() == ConnState::PeerClosed;
    progress |= legs[dst].close_write(peer_closed);
    Ok(progress)
}

/// The connections of legs `src` and `dst`: `dst`'s is `None` when it is
/// `src`'s own (a one-leg session).
fn conns<'a, 's, const N: usize>(
    legs: &'a mut [Leg<'s>; N],
    src: usize,
    dst: usize,
) -> (&'a mut Conn<'s>, Option<&'a mut Conn<'s>>) {
    if src == dst {
        return (&mut legs[src].conn, None);
    }
    let (lo, hi) = legs.split_at_mut(src.max(dst));
    let (a, b) = (&mut lo[src.min(dst)].conn, &mut hi[0].conn);
    if src < dst {
        (a, Some(b))
    } else {
        (b, Some(a))
    }
}

impl<'s, S: Step<'s>, const N: usize> Session for Pump<'s, S, N> {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        let mut progress = false;
        for src in 0..N {
            progress |= pump(
                &mut self.legs,
                src,
                &mut self.step,
                &mut self.read_buf,
                self.metrics,
                self.token,
            )?;
        }
        if self.legs.iter().all(|leg| leg.write_closed) {
            return Ok(Drive::Done);
        }
        Ok(if progress { Drive::Progress } else { Drive::Idle })
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        out.extend(self.legs.iter().map(|leg| &leg.stream));
    }

    fn token(&self) -> u64 {
        self.token
    }
}

/// One relayed connection: the accepted ("down") leg and the dialed
/// upstream ("up") leg, glued together by transcoding every decoded
/// message onto the other leg's codec. Done once both half-closes have
/// been passed on.
///
/// Buffers and sessions are all reused across messages: decode borrows
/// the parse session's message, transcode refills a long-lived
/// destination message, encode appends to the outbound buffer. The
/// transcode step runs a compiled plan-level **copy program**
/// ([`protoobf_core::plan::CopyProgram`], compiled once per (rx, tx)
/// codec pairing and shared by every connection via
/// [`CodecService::transcode_target`]), so the whole steady-state relay
/// loop — decode, transcode, re-encode — performs zero per-message heap
/// allocation.
pub type Relay<'s> = Pump<'s, [Message<'s>; 2], 2>;

impl<'s> Relay<'s> {
    /// Builds a relay between an accepted socket (framed with `down`'s
    /// services) and a dialed upstream socket (framed with `up`'s). The
    /// two legs may differ per direction (asymmetric request/response
    /// profiles); `down.rx` must share its plain spec with `up.tx`, and
    /// `up.rx` with `down.tx` (the transcode path — validated here, at
    /// connection setup, by compiling/sharing the copy programs, so no
    /// structural check runs per message). Both sockets must already be
    /// non-blocking.
    ///
    /// # Errors
    ///
    /// [`TransportError::Build`]
    /// ([`protoobf_core::BuildError::GraphMismatch`]) when a
    /// leg pairing does not share its plain specification — a
    /// misconfigured gateway, surfaced before any byte is relayed.
    pub fn new(
        down_stream: TcpStream,
        up_stream: TcpStream,
        down: LegServices<'s>,
        up: LegServices<'s>,
        metrics: &'s Metrics,
    ) -> Result<Relay<'s>, TransportError> {
        let to_up = up.tx.transcode_target(down.rx)?;
        let to_down = down.tx.transcode_target(up.rx)?;
        let legs = [
            Leg::new(down_stream, Conn::new(down.rx, down.tx)),
            Leg::new(up_stream, Conn::new(up.rx, up.tx)),
        ];
        Ok(Pump::with_legs(legs, [to_up, to_down], metrics))
    }
}

/// A framed echo session: parses every inbound message and sends **the
/// parsed message itself** back on the same codec, with no transcode —
/// the stand-in "real server" for gateway smoke tests and the `protoobf
/// recv` subcommand. Element runs the plan copies frame to frame stay in
/// the inbound frame and are copied into the reply as blocks
/// ([`protoobf_core::framing::WireHop`]). The reply is the parsed message
/// re-serialized: on an identity codec that is the request byte for
/// byte; on an obfuscated codec the pads and field shares the parse
/// stored are sent again, not redrawn (auto-computed and constant fields
/// are recomputed, as on every serialize). Done once the peer has closed
/// and every reply is delivered.
pub type Echo<'s> = Pump<'s, SendBack, 1>;

impl<'s> Echo<'s> {
    /// Wraps an accepted (non-blocking) socket speaking `svc`'s codec in
    /// both directions.
    pub fn new(stream: TcpStream, svc: &'s CodecService, metrics: &'s Metrics) -> Echo<'s> {
        Pump::with_legs([Leg::new(stream, Conn::new(svc, svc))], SendBack, metrics)
    }
}

/// A framed request/response session for **asymmetric** protocols: every
/// inbound message (the request spec) is answered with a freshly sampled
/// message of the response spec — the stand-in "real server"
/// behind a decode gateway when the two directions speak different
/// grammars and a byte [`Echo`] therefore cannot apply. Used by
/// `protoobf recv` for asymmetric profiles.
pub type Responder<'s> = Pump<'s, Sample<'s>, 1>;

impl<'s> Responder<'s> {
    /// Wraps an accepted (non-blocking) socket that receives
    /// `request_svc`-framed messages and answers each with a random
    /// message of `reply_svc`'s codec (deterministic per `seed`).
    pub fn new(
        stream: TcpStream,
        request_svc: &'s CodecService,
        reply_svc: &'s CodecService,
        seed: u64,
        metrics: &'s Metrics,
    ) -> Responder<'s> {
        let legs = [Leg::new(stream, Conn::new(request_svc, reply_svc))];
        Pump::with_legs(legs, Sample::new(reply_svc, seed), metrics)
    }
}

/// One obfuscation gateway: the four codec services of its two relay legs
/// (accepted "down" side and dialed "up" side, one `rx`/`tx` pair each),
/// plus which side of the obfuscated wire this instance faces.
/// [`Gateway::serve`] relays accepted connections to `upstream` until
/// shut down.
#[derive(Debug)]
pub struct Gateway {
    down_rx: Arc<CodecService>,
    down_tx: Arc<CodecService>,
    up_rx: Arc<CodecService>,
    up_tx: Arc<CodecService>,
    mode: GatewayMode,
    upstream: SocketAddr,
    metrics: Arc<Metrics>,
    /// Per-connection outbound queue cap for both relay legs.
    outbound_cap: usize,
    /// The derivation fingerprint of the profile endpoint.
    fingerprint: Fingerprint,
    /// The profile's obfuscation level.
    level: u32,
}

impl Gateway {
    /// Builds a gateway from a compiled profile [`Endpoint`] — the whole
    /// point of the profile API: both gateways of a pair are configured
    /// by two copies of the same profile file and derive identical
    /// stacks, verifiable via [`Gateway::fingerprint`] before traffic
    /// flows.
    ///
    /// The encode gateway faces the initiator: its clear leg parses the
    /// profile's `tx` spec and emits the `rx` spec, its obfuscated leg
    /// the reverse. The decode gateway mirrors that onto the responder
    /// side. Asymmetric profiles (distinct `tx`/`rx`) thus run a
    /// different grammar per direction on every leg.
    ///
    /// # Errors
    ///
    /// I/O errors resolving `upstream`.
    pub fn from_endpoint(
        endpoint: &Endpoint,
        mode: GatewayMode,
        upstream: impl ToSocketAddrs,
    ) -> io::Result<Gateway> {
        let (down_rx, down_tx, up_rx, up_tx) = match mode {
            GatewayMode::Encode => (
                endpoint.clear_tx_service(),
                endpoint.clear_rx_service(),
                endpoint.rx_service(),
                endpoint.tx_service(),
            ),
            GatewayMode::Decode => (
                endpoint.tx_service(),
                endpoint.rx_service(),
                endpoint.clear_rx_service(),
                endpoint.clear_tx_service(),
            ),
        };
        Ok(Gateway {
            down_rx: Arc::clone(down_rx),
            down_tx: Arc::clone(down_tx),
            up_rx: Arc::clone(up_rx),
            up_tx: Arc::clone(up_tx),
            mode,
            upstream: resolve_upstream(upstream)?,
            metrics: Arc::new(Metrics::new()),
            outbound_cap: DEFAULT_OUTBOUND_CAP,
            fingerprint: endpoint.fingerprint(),
            level: endpoint.profile().obf().level,
        })
    }

    /// Caps every relayed connection's outbound queues at `cap` bytes
    /// (builder; default [`crate::conn::DEFAULT_OUTBOUND_CAP`]) — see
    /// [`Pump::outbound_cap`] for the semantics. The `protoobf` binary
    /// exposes this as `--backpressure BYTES`.
    pub fn with_outbound_cap(mut self, cap: usize) -> Gateway {
        self.outbound_cap = cap;
        self
    }

    /// The gateway's live counters.
    pub fn metrics(&self) -> &Metrics {
        self.metrics.as_ref()
    }

    /// The gateway's whole observable state as a [`Telemetry`] registry:
    /// the shared metrics block plus every distinct codec service of the
    /// two relay legs (symmetric gateways collapse to their two unique
    /// services via the registry's `Arc`-identity dedup), named by the
    /// gateway's derivation and mode ([`Telemetry::set_build`]). This is
    /// what the admin endpoint serves; it stays live while the gateway
    /// runs — scrapes see current counters, not a snapshot.
    pub fn telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new(Arc::clone(&self.metrics));
        t.register_service("down_rx", &self.down_rx);
        t.register_service("down_tx", &self.down_tx);
        t.register_service("up_rx", &self.up_rx);
        t.register_service("up_tx", &self.up_tx);
        let mode = match self.mode {
            GatewayMode::Encode => "encode",
            GatewayMode::Decode => "decode",
        };
        t.set_build(self.fingerprint, self.level, mode);
        t
    }

    /// Which side of the obfuscated wire this gateway faces.
    pub fn mode(&self) -> GatewayMode {
        self.mode
    }

    /// The profile derivation fingerprint. Operators compare this across
    /// the pair — equal fingerprints mean both sides derived identical
    /// stacks; a key mismatch is caught here, before any traffic flows.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Services of the accepted ("down") leg, `(rx, tx)`.
    pub fn down_services(&self) -> LegServices<'_> {
        LegServices { rx: &self.down_rx, tx: &self.down_tx }
    }

    /// Services of the dialed upstream ("up") leg, `(rx, tx)`.
    pub fn up_services(&self) -> LegServices<'_> {
        LegServices { rx: &self.up_rx, tx: &self.up_tx }
    }

    /// Accepts and relays connections until `shutdown` is raised (or
    /// `cfg.accept_limit` is reached and the last relay drains). Each
    /// accepted connection dials one upstream connection.
    ///
    /// # Errors
    ///
    /// Listener-level failures only; per-connection errors are counted in
    /// [`Gateway::metrics`].
    pub fn serve(
        &self,
        listener: TcpListener,
        cfg: &LoopConfig,
        shutdown: &AtomicBool,
    ) -> io::Result<()> {
        evloop::serve(listener, cfg, shutdown, self.metrics.as_ref(), |down, peer| {
            let up = TcpStream::connect_timeout(&self.upstream, UPSTREAM_DIAL_TIMEOUT)
                .map_err(TransportError::Io)?;
            up.set_nonblocking(true).map_err(TransportError::Io)?;
            let _ = up.set_nodelay(true);
            Ok(Relay::new(down, up, self.down_services(), self.up_services(), &self.metrics)?
                .with_token(peer_token(&peer))
                .outbound_cap(self.outbound_cap))
        })
    }
}

fn resolve_upstream(upstream: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    upstream.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "upstream resolves to no address")
    })
}
