//! Covert-tunnel transport: pump a local byte stream through cover
//! messages over an ordinary framed connection.
//!
//! [`TunnelSession`] is a regular event-loop [`Session`]: it reads payload
//! from a thread-safe [`PayloadBuf`] (typically fed from stdin by
//! [`spawn_reader`]), folds it into sampled cover messages with a
//! [`protoobf_core::tunnel::TunnelEncoder`], and sends them through a
//! sans-io [`Conn`] — so tunnels ride the existing epoll loop, outbound
//! backpressure caps, pooled codec sessions and telemetry. The reverse
//! direction decodes inbound cover messages back into payload bytes and
//! writes them to a local sink (typically stdout), counting goodput in
//! [`Metrics::payload_bytes_in`] / [`Metrics::payload_bytes_out`].
//!
//! The epoll backend only re-drives a session on *socket* readiness, and
//! stdin is not a socket — so a feeder thread blocking on the local
//! source pairs with a loopback **wake pipe** ([`wake_pair`]): after
//! appending payload it writes one byte to the pipe's send half, and the
//! session lists the receive half among its [`Session::sockets`], turning
//! local payload arrival into an ordinary readiness event.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use protoobf_core::service::CodecService;
use protoobf_core::tunnel::{TunnelDecoder, TunnelEncoder, TunnelError};

use crate::conn::{Conn, ConnState};
use crate::error::TransportError;
use crate::evloop::{Drive, Session};
use crate::gateway::Leg;
use crate::metrics::Metrics;

/// Default byte cap of a [`PayloadBuf`]: a local source that outruns the
/// tunnel's (deliberately modest) goodput blocks at the buffer instead of
/// growing process memory without bound.
pub const DEFAULT_PAYLOAD_BUF_CAP: usize = 1 << 20;

/// How many queued-but-unencoded payload bytes the session tolerates
/// before it stops pulling from its [`PayloadBuf`] for a pass.
const ENCODER_PENDING_CAP: usize = 256 * 1024;

#[derive(Debug, Default)]
struct PayloadInner {
    data: VecDeque<u8>,
    eof: bool,
}

/// A bounded, thread-safe byte queue between a blocking local source
/// (stdin reader thread) and a non-blocking tunnel session. `push` blocks
/// while the buffer is at capacity — backpressure propagates to the local
/// producer the same way the outbound cap propagates to the socket.
#[derive(Debug)]
pub struct PayloadBuf {
    cap: usize,
    inner: Mutex<PayloadInner>,
    can_push: Condvar,
}

impl Default for PayloadBuf {
    fn default() -> Self {
        PayloadBuf::with_cap(DEFAULT_PAYLOAD_BUF_CAP)
    }
}

impl PayloadBuf {
    /// A shareable buffer with the default cap.
    pub fn new() -> Arc<PayloadBuf> {
        Arc::new(PayloadBuf::default())
    }

    /// A buffer holding at most `cap` bytes (clamped to at least one).
    pub fn with_cap(cap: usize) -> PayloadBuf {
        PayloadBuf {
            cap: cap.max(1),
            inner: Mutex::new(PayloadInner::default()),
            can_push: Condvar::new(),
        }
    }

    /// Appends payload, blocking while the buffer is at capacity. Bytes
    /// pushed after [`close`](PayloadBuf::close) are discarded.
    pub fn push(&self, mut bytes: &[u8]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while !bytes.is_empty() && !inner.eof {
            while inner.data.len() >= self.cap && !inner.eof {
                inner = self.can_push.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
            if inner.eof {
                break;
            }
            let room = self.cap - inner.data.len();
            let take = room.min(bytes.len());
            inner.data.extend(&bytes[..take]);
            bytes = &bytes[take..];
        }
    }

    /// Declares the local source finished; unblocks any waiting pusher.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.eof = true;
        self.can_push.notify_all();
    }

    /// Moves up to `max` bytes into `out`; returns how many moved.
    pub fn pop_into(&self, out: &mut Vec<u8>, max: usize) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let take = inner.data.len().min(max);
        out.extend(inner.data.drain(..take));
        if take > 0 {
            self.can_push.notify_all();
        }
        take
    }

    /// True once the source closed and every byte was popped.
    pub fn is_drained(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.eof && inner.data.is_empty()
    }
}

/// A loopback TCP pair `(receive, send)` used as a wake pipe: the receive
/// half is non-blocking (listed among a session's sockets so epoll sees
/// it), the send half is handed to the feeder thread.
pub fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let send = TcpStream::connect(addr)?;
    let (recv, _) = listener.accept()?;
    recv.set_nonblocking(true)?;
    Ok((recv, send))
}

/// Spawns a detached thread that drains the blocking `source` into `buf`,
/// poking one byte down `wake` after every chunk so an epoll-driven
/// session re-drives. On source EOF (or error) the buffer is closed and a
/// final wake is sent. The thread exits on its own; it is deliberately
/// not joined — a source that never ends (an interactive stdin) must not
/// keep the process alive once the tunnel is done.
pub fn spawn_reader(
    mut source: impl Read + Send + 'static,
    buf: Arc<PayloadBuf>,
    mut wake: Option<TcpStream>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let mut chunk = [0u8; 8192];
        loop {
            match source.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.push(&chunk[..n]);
                    if let Some(w) = &mut wake {
                        if w.write_all(&[1]).is_err() {
                            wake = None; // session gone; keep draining
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        buf.close();
        if let Some(w) = &mut wake {
            let _ = w.write_all(&[1]);
            let _ = w.shutdown(Shutdown::Write);
        }
    })
}

/// One covert tunnel over one framed connection: an ordinary event-loop
/// session gluing a local payload source/sink to a [`Conn`] through the
/// tunnel codec. See the module docs for the data flow and wake-pipe
/// rationale.
pub struct TunnelSession<'s, W: Write + Send> {
    leg: Leg<'s>,
    wake_rx: Option<TcpStream>,
    enc: TunnelEncoder<'s>,
    dec: TunnelDecoder<'s>,
    source: Arc<PayloadBuf>,
    sink: W,
    scratch: Vec<u8>,
    source_finished: bool,
    exit_on_eof: bool,
    metrics: &'s Metrics,
    token: u64,
}

// Manual impl: the payload sink `W` is any `Write` and need not be
// `Debug`; everything identifying the session is printed.
impl<W: Write + Send> std::fmt::Debug for TunnelSession<'_, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TunnelSession")
            .field("token", &self.token)
            .field("leg", &self.leg)
            .field("source_finished", &self.source_finished)
            .field("exit_on_eof", &self.exit_on_eof)
            .finish_non_exhaustive()
    }
}

impl<'s, W: Write + Send> TunnelSession<'s, W> {
    /// Wraps a connected (non-blocking) socket: inbound frames parse with
    /// `rx`'s codec and feed the decoder, outbound cover messages sample
    /// from `tx`'s codec (deterministically per `seed`). Payload flows
    /// `source` → covers → socket and socket → covers → `sink`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Tunnel`] when either codec's specification has
    /// no carrier slots at all.
    pub fn new(
        stream: TcpStream,
        rx: &'s CodecService,
        tx: &'s CodecService,
        source: Arc<PayloadBuf>,
        sink: W,
        seed: u64,
        metrics: &'s Metrics,
    ) -> Result<TunnelSession<'s, W>, TransportError> {
        let enc = TunnelEncoder::new(tx.codec(), seed)?;
        let dec = TunnelDecoder::new(rx.codec())?;
        Ok(TunnelSession {
            leg: Leg::new(stream, Conn::new(rx, tx)),
            wake_rx: None,
            enc,
            dec,
            source,
            sink,
            scratch: Vec::new(),
            source_finished: false,
            exit_on_eof: false,
            metrics,
            token: 0,
        })
    }

    /// Attaches the receive half of a [`wake_pair`] (builder): payload
    /// arrival becomes a socket readiness event on the epoll backend.
    pub fn with_wake(mut self, wake_rx: TcpStream) -> Self {
        self.wake_rx = Some(wake_rx);
        self
    }

    /// Finish once both directions complete (builder): our stream fully
    /// sent *and* the peer's stream fully delivered. Without it the
    /// session ends only when the peer closes.
    pub fn exit_on_eof(mut self, yes: bool) -> Self {
        self.exit_on_eof = yes;
        self
    }

    /// Caps the outbound queue at `cap` bytes (builder; default
    /// [`crate::conn::DEFAULT_OUTBOUND_CAP`]). A full queue pauses cover
    /// production, which pauses payload pulls, which blocks the local
    /// producer — end-to-end backpressure.
    pub fn outbound_cap(mut self, cap: usize) -> Self {
        self.leg.conn.set_outbound_cap(cap);
        self
    }

    /// Sets the flight-recorder token (builder).
    pub fn with_token(mut self, token: u64) -> Self {
        self.token = token;
        self
    }

    fn drain_wake(&mut self) -> bool {
        let Some(w) = &mut self.wake_rx else { return false };
        let mut gone = false;
        let mut woke = false;
        let mut b = [0u8; 64];
        loop {
            match w.read(&mut b) {
                Ok(0) => {
                    gone = true;
                    break;
                }
                Ok(_) => woke = true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    gone = true;
                    break;
                }
            }
        }
        if gone {
            self.wake_rx = None;
        }
        woke || gone
    }
}

impl<W: Write + Send> Session for TunnelSession<'_, W> {
    fn drive(&mut self) -> Result<Drive, TransportError> {
        let mut progress = self.drain_wake();

        // Inbound: socket bytes → frames → decoder → local sink.
        progress |= self.leg.read_into(self.metrics)?;
        loop {
            let parse_t = self.metrics.stages.parse.start();
            let Some(msg) = self.leg.conn.poll_inbound()? else { break };
            self.metrics.stages.parse.finish(parse_t);
            Metrics::add(&self.metrics.messages_in, 1);
            self.dec.accept(msg)?;
            self.metrics.frame_bytes_in.record(self.leg.conn.last_inbound_frame_len() as u64);
            progress = true;
        }
        self.scratch.clear();
        let delivered = self.dec.take_ready(&mut self.scratch);
        if delivered > 0 {
            self.sink.write_all(&self.scratch)?;
            let _ = self.sink.flush();
            Metrics::add(&self.metrics.payload_bytes_in, delivered as u64);
            progress = true;
        }

        // Outbound: local source → encoder → cover messages → socket.
        if self.enc.pending_payload() < ENCODER_PENDING_CAP {
            self.scratch.clear();
            let pulled = self.source.pop_into(&mut self.scratch, ENCODER_PENDING_CAP);
            if pulled > 0 {
                self.enc.push(&self.scratch);
                progress = true;
            }
        }
        if !self.source_finished && self.source.is_drained() {
            self.enc.finish();
            self.source_finished = true;
            progress = true;
        }
        while self.leg.conn.can_send() {
            let Some(frame) = self.enc.next_cover()? else { break };
            let serialize_t = self.metrics.stages.serialize.start();
            self.leg.conn.send(&frame.message)?;
            self.metrics.stages.serialize.finish(serialize_t);
            Metrics::add(&self.metrics.messages_out, 1);
            Metrics::add(&self.metrics.payload_bytes_out, frame.payload_len as u64);
            self.metrics.frame_bytes_out.record(self.leg.conn.last_outbound_frame_len() as u64);
            progress = true;
        }
        let engaged = !self.leg.conn.can_send();
        progress |= self.leg.flush_from(engaged, self.metrics, self.token)?;
        // Half-close once our whole stream (incl. FIN) is on the wire.
        progress |= self.leg.close_write(self.source_finished && self.enc.is_drained());

        let peer_closed = self.leg.conn.state() == ConnState::PeerClosed;
        if peer_closed && !self.dec.is_complete() {
            // The peer's write side ended mid-stream: bytes are gone.
            return Err(TransportError::Tunnel(TunnelError::Incomplete {
                delivered: self.dec.bytes_delivered(),
                expected: self.dec.total_expected(),
            }));
        }
        let local_done = self.leg.write_closed;
        let remote_done = self.dec.is_complete();
        if local_done && remote_done && (self.exit_on_eof || peer_closed) {
            return Ok(Drive::Done);
        }
        Ok(if progress { Drive::Progress } else { Drive::Idle })
    }

    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
        out.push(&self.leg.stream);
        if let Some(w) = &self.wake_rx {
            out.push(w);
        }
    }

    fn token(&self) -> u64 {
        self.token
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoobf_core::graph::Boundary;
    use protoobf_core::value::TerminalKind;
    use protoobf_core::{Codec, CodecService, GraphBuilder};
    use std::net::TcpListener;

    fn pipe_spec_service() -> CodecService {
        let mut b = GraphBuilder::new("pipe");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "kind", 1);
        b.terminal(root, "blob", TerminalKind::Bytes, Boundary::End);
        CodecService::new(Codec::identity(&b.build().unwrap()))
    }

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn payload_buf_round_trips_and_drains() {
        let buf = PayloadBuf::new();
        buf.push(b"hello");
        buf.close();
        let mut out = Vec::new();
        assert_eq!(buf.pop_into(&mut out, 3), 3);
        assert!(!buf.is_drained());
        assert_eq!(buf.pop_into(&mut out, 64), 2);
        assert_eq!(out, b"hello");
        assert!(buf.is_drained());
    }

    #[test]
    fn two_sessions_tunnel_both_directions_over_tcp() {
        let svc = pipe_spec_service();
        let metrics = Metrics::new();
        let (sa, sb) = tcp_pair();

        let a_src = PayloadBuf::new();
        a_src.push(b"payload from a to b: the quick brown fox");
        a_src.close();
        let b_src = PayloadBuf::new();
        b_src.push(&[0u8; 3000]);
        b_src.close();

        let mut a_out = Vec::new();
        let mut b_out = Vec::new();
        {
            let mut a = TunnelSession::new(sa, &svc, &svc, a_src, &mut a_out, 1, &metrics)
                .unwrap()
                .exit_on_eof(true);
            let mut b = TunnelSession::new(sb, &svc, &svc, b_src, &mut b_out, 2, &metrics)
                .unwrap()
                .exit_on_eof(true);
            let mut a_done = false;
            let mut b_done = false;
            for _ in 0..10_000 {
                if !a_done && matches!(a.drive().unwrap(), Drive::Done) {
                    a_done = true;
                }
                if !b_done && matches!(b.drive().unwrap(), Drive::Done) {
                    b_done = true;
                }
                if a_done && b_done {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            assert!(a_done && b_done, "both sessions must finish");
        }
        assert_eq!(b_out, b"payload from a to b: the quick brown fox");
        assert_eq!(a_out, vec![0u8; 3000]);
        let snap = metrics.snapshot();
        assert_eq!(snap.payload_bytes_in, snap.payload_bytes_out);
        assert_eq!(snap.payload_bytes_in, (40 + 3000) as u64);
        assert!(snap.bytes_out > snap.payload_bytes_out, "cover overhead exists");
    }

    #[test]
    fn wake_pair_delivers_readiness() {
        let (recv, mut send) = wake_pair().unwrap();
        let buf = PayloadBuf::new();
        send.write_all(&[1]).unwrap();
        let mut b = [0u8; 8];
        // The non-blocking receive half sees the poke (retry for arrival).
        let mut got = 0;
        for _ in 0..100 {
            match (&recv).read(&mut b) {
                Ok(n) => {
                    got = n;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(got > 0);
        drop(buf);
    }
}
