//! The non-blocking event loop: thread-per-core workers over `std::net`,
//! with **kernel readiness** on Linux and a portable scan fallback.
//!
//! Workers share nothing but the listener and the [`Metrics`]: each
//! accepted connection lives on the worker that accepted it, so there is
//! no cross-thread session locking — the codec state sessions share (the
//! compiled plan inside each [`protoobf_core::CodecService`]) is
//! immutable by construction.
//!
//! ## One worker, two readiness sources
//!
//! Every worker runs the same loop: it owns a slab of sessions, accepts
//! a capped burst, drives each ready session once per pass (retiring
//! the finished and failed ones), drops everything at shutdown, records
//! each pass's servicing time and exits once the accept limit is met
//! and its sessions drained. The backends differ only in how sockets
//! are registered at accept and deregistered at retirement, in how the
//! worker learns which sessions are ready, and in the scan backend's
//! backoff.
//!
//! On targets with the raw-syscall shim ([`crate::sys`], Linux
//! x86-64/aarch64 — no libc) each worker owns an epoll instance:
//! connection sockets are registered **edge-triggered** when the session
//! is accepted (the session reports them via [`Session::sockets`]),
//! sessions are re-armed by simply going back to `epoll_wait` after a
//! drive hits `WouldBlock`, and deregistered when they finish or fail.
//! Discovering work is then O(ready), not O(connections): ten thousand
//! quiet flows cost one sleeping syscall, and a wake services exactly
//! the sessions the kernel named. The listener is registered
//! level-triggered so a capped accept burst (see below) resumes without
//! a new edge.
//!
//! The portable fallback — selected at **compile time** on targets
//! without the shim, at run time when epoll setup fails, or by setting
//! `PROTOOBF_EVLOOP=scan` (how the test suite covers both paths on one
//! machine) — treats every live session as ready on every pass, backing
//! off exponentially (yield → 50 µs … 1.6 ms naps) when a whole pass
//! makes no progress. That is O(n) per quiet connection and adds up to a
//! nap of latency — fine for hundreds of connections, the reason the
//! epoll path exists for thousands.
//!
//! Accepts are capped per wake ([`LoopConfig::accept_burst`]) so a
//! continuous stream of new connections cannot starve established
//! sessions, and each wake's time spent servicing ready sessions goes
//! into [`Metrics::wake_latency`] (p50/p95/p99 visible in the snapshot).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::error::TransportError;
use crate::metrics::{peer_token, EventKind, Metrics};
use crate::sys;

/// What one [`Session::drive`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Bytes or messages moved; scan again immediately.
    Progress,
    /// Nothing to do right now (all reads/writes would block).
    Idle,
    /// The session finished cleanly and can be dropped.
    Done,
}

/// One unit of work owned by an event-loop worker: typically a
/// [`crate::gateway::Relay`] or [`crate::gateway::Echo`], but any
/// state machine that can be pumped without blocking fits.
pub trait Session {
    /// Pumps the session once: read what's readable, decode/encode what's
    /// complete, write what's writable — never blocking.
    ///
    /// # Errors
    ///
    /// A [`TransportError`] tears the session down (the loop counts it in
    /// [`Metrics::failed`] and drops it, closing its sockets).
    fn drive(&mut self) -> Result<Drive, TransportError>;

    /// The sockets whose readiness gates this session's progress. The
    /// epoll backend registers them (edge-triggered, read and write
    /// interest) at accept, deregisters them at close/fail, and wakes the
    /// session **only** through them: after its first drive, a session
    /// is driven again only when one of the sockets it reports becomes
    /// ready or its last drive made progress.
    fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>);

    /// An opaque identity for this session's flight-recorder events —
    /// conventionally [`peer_token`] of the accepted peer, so `/events`
    /// lines correlate with client addresses. The default (0) renders as
    /// an anonymous token; lifecycle events are still recorded.
    fn token(&self) -> u64 {
        0
    }
}

/// Event-loop sizing and lifecycle knobs.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Worker threads (acceptor + driver each). Defaults to the number of
    /// available CPUs.
    pub workers: usize,
    /// Stop accepting after this many connections in total and return once
    /// the last session drains — bounded runs for tests and smoke jobs.
    /// `None` runs until `shutdown` is raised.
    pub accept_limit: Option<u64>,
    /// Most connections a worker accepts per wake before it services its
    /// established sessions again (default
    /// [`LoopConfig::DEFAULT_ACCEPT_BURST`]). A continuous accept flood
    /// therefore delays established traffic by at most one bounded burst,
    /// never a whole backlog. Clamped to at least 1.
    pub accept_burst: usize,
}

impl LoopConfig {
    /// Default [`LoopConfig::accept_burst`].
    pub const DEFAULT_ACCEPT_BURST: usize = 32;
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            accept_limit: None,
            accept_burst: LoopConfig::DEFAULT_ACCEPT_BURST,
        }
    }
}

/// Runs the event loop until `shutdown` is raised (live sessions are
/// dropped immediately, closing their sockets) or `accept_limit` is
/// reached and every session drains gracefully. `factory` is called once
/// per accepted connection — on the accepting worker's thread — to build
/// its session; a factory error, or a failure to register the session's
/// sockets, closes the connection and counts one accept error.
///
/// Workers use kernel readiness (epoll via [`crate::sys`]) where the
/// build supports it, unless `PROTOOBF_EVLOOP=scan` forces the portable
/// readiness-scan fallback; see the [module docs](self).
///
/// # Errors
///
/// Only listener-level failures (clone/configure) abort the loop; per-
/// connection errors are absorbed into `metrics`.
pub fn serve<S, F>(
    listener: TcpListener,
    cfg: &LoopConfig,
    shutdown: &AtomicBool,
    metrics: &Metrics,
    factory: F,
) -> io::Result<()>
where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    listener.set_nonblocking(true)?;
    let workers = cfg.workers.max(1);
    let counters = AcceptCounters::default();
    let factory = &factory;
    let counters = &counters;
    // Backend choice: compile-time (sys::supported() is const-false off
    // Linux) plus the runtime escape hatch the tests use to cover the
    // fallback on epoll-capable hosts.
    let use_epoll =
        sys::supported() && !matches!(std::env::var("PROTOOBF_EVLOOP").as_deref(), Ok("scan"));
    // Clone every worker's listener handle *before* spawning: a clone
    // failure mid-spawn would otherwise leave already-running workers
    // looping (shutdown never raised) while `?` waits on the scope join —
    // a hang instead of an error.
    let mut listeners = Vec::with_capacity(workers);
    for _ in 0..workers {
        listeners.push(listener.try_clone()?);
    }
    drop(listener);
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .map(|listener| {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    worker(listener, &cfg, shutdown, metrics, counters, factory, use_epoll)
                })
            })
            .collect();
        for h in handles {
            // Worker panics propagate: a crashed worker is a bug, not a
            // recoverable condition.
            h.join().expect("event-loop worker panicked");
        }
    });
    Ok(())
}

/// Shared accept accounting. `reserved` bounds admissions (slots are taken
/// *before* `accept` so concurrent workers cannot collectively over-admit
/// and released when the accept yields nothing); `admitted` counts
/// completed accepts and drives the workers' exit check — a transient
/// reservation must not make sibling workers conclude the limit was
/// reached and retire early.
#[derive(Debug, Default)]
struct AcceptCounters {
    reserved: AtomicU64,
    admitted: AtomicU64,
}

/// A worker's live sessions, indexed by slot (the slot doubles as the
/// session's epoll token), plus the slots to drive on the next pass.
struct Slab<S> {
    slots: Vec<Option<S>>,
    free: Vec<usize>,
    /// Slots queued in `ready`, so a session named twice is driven once.
    queued: Vec<bool>,
    ready: Vec<usize>,
    live: usize,
}

impl<S> Slab<S> {
    /// The slot the next [`Slab::insert`] will fill.
    fn next_slot(&self) -> usize {
        self.free.last().copied().unwrap_or(self.slots.len())
    }

    /// Stores a new session and queues it: bytes may already be buffered,
    /// and on epoll the registration consumed the first edge.
    fn insert(&mut self, session: S) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.queued.push(false);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(session);
        self.live += 1;
        self.queue(slot);
    }

    /// Queues a live slot for the next pass (stale tokens are ignored).
    fn queue(&mut self, slot: usize) {
        if self.slots.get(slot).is_some_and(Option::is_some) && !self.queued[slot] {
            self.queued[slot] = true;
            self.ready.push(slot);
        }
    }

    fn remove(&mut self, slot: usize) -> Option<S> {
        let session = self.slots[slot].take()?;
        self.queued[slot] = false;
        self.free.push(slot);
        self.live -= 1;
        Some(session)
    }
}

/// Token of the worker's listener in its epoll interest list; session
/// tokens are their slot index, which can never reach this.
const LISTENER_TOKEN: u64 = u64::MAX;

/// How a worker learns which sessions are ready — the only state in
/// which the two backends differ.
enum Readiness {
    /// Kernel readiness: the worker's epoll instance, its wait buffer and
    /// scratch for one session's raw fds.
    Epoll { epoll: sys::Epoll, events: Vec<sys::EpollEvent>, fds: Vec<i32> },
    /// Every live session is ready on every pass; `idle_scans` counts the
    /// passes in a row without progress, for [`backoff`].
    Scan { idle_scans: u32 },
}

impl Readiness {
    /// Epoll when asked for and its setup succeeds; setup failures (fd
    /// exhaustion, odd kernels) fall back to scanning instead of taking
    /// the worker down.
    fn new(listener: &TcpListener, use_epoll: bool) -> Readiness {
        let epoll = || -> io::Result<Readiness> {
            let epoll = sys::Epoll::new()?;
            // Level-triggered listener: a burst capped short of draining
            // the backlog re-reports immediately, so established sessions
            // get their turn without new connections waiting for a fresh
            // edge.
            epoll.add(raw_fd(listener), sys::flags::IN, LISTENER_TOKEN)?;
            let events = vec![sys::EpollEvent::zeroed(); 256];
            Ok(Readiness::Epoll { epoll, events, fds: Vec::new() })
        };
        match use_epoll.then(epoll) {
            Some(Ok(readiness)) => readiness,
            _ => Readiness::Scan { idle_scans: 0 },
        }
    }

    /// Registers a new session's sockets under `slot`. On failure none of
    /// them stays registered.
    fn register<S: Session>(&mut self, session: &S, slot: usize) -> io::Result<()> {
        let Readiness::Epoll { epoll, fds, .. } = self else { return Ok(()) };
        collect_fds(session, fds);
        let interest = sys::flags::IN | sys::flags::OUT | sys::flags::RDHUP | sys::flags::ET;
        for (i, &fd) in fds.iter().enumerate() {
            if let Err(e) = epoll.add(fd, interest, slot as u64) {
                for &added in &fds[..i] {
                    let _ = epoll.del(added);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn deregister<S: Session>(&mut self, session: &S) {
        if let Readiness::Epoll { epoll, fds, .. } = self {
            collect_fds(session, fds);
            for &fd in fds.iter() {
                let _ = epoll.del(fd);
            }
        }
    }

    /// Queues this pass's ready sessions and reports whether the listener
    /// may have connections pending. `busy` (work already queued or an
    /// undrained backlog) makes epoll poll instead of parking.
    fn poll<S>(&mut self, slab: &mut Slab<S>, accept_ready: &mut bool, busy: bool) {
        match self {
            Readiness::Epoll { epoll, events, .. } => {
                // The 10 ms cap bounds how stale the shutdown/limit check
                // can get. Wait failures are not setup failures; treat one
                // as a timeout tick rather than abandoning live sessions.
                let timeout = Duration::from_millis(if busy { 0 } else { 10 });
                let n = epoll.wait(events, Some(timeout)).unwrap_or_default();
                for ev in &events[..n] {
                    match ev.token() {
                        LISTENER_TOKEN => *accept_ready = true,
                        slot => slab.queue(slot as usize),
                    }
                }
            }
            Readiness::Scan { .. } => {
                *accept_ready = true;
                for slot in 0..slab.slots.len() {
                    slab.queue(slot);
                }
            }
        }
    }
}

/// One event-loop worker: see the [module docs](self).
fn worker<S, F>(
    listener: TcpListener,
    cfg: &LoopConfig,
    shutdown: &AtomicBool,
    metrics: &Metrics,
    counters: &AcceptCounters,
    factory: &F,
    use_epoll: bool,
) where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    let mut readiness = Readiness::new(&listener, use_epoll);
    let mut slab: Slab<S> = Slab {
        slots: Vec::new(),
        free: Vec::new(),
        queued: Vec::new(),
        ready: Vec::new(),
        live: 0,
    };
    let mut pass: Vec<usize> = Vec::new();
    // Assume a pending backlog at startup: connections may have queued
    // before the listener's registration.
    let mut accept_ready = true;
    loop {
        let stop = shutdown.load(Ordering::Relaxed);
        if stop && slab.live > 0 {
            // Shutdown is immediate: drop every live session (closing its
            // sockets) rather than waiting out idle peers that may never
            // send or hang up — otherwise one lingering connection keeps
            // serve() from ever returning. Bounded runs that want a
            // graceful drain use `accept_limit` instead.
            Metrics::add(&metrics.closed, slab.live as u64);
            for slot in 0..slab.slots.len() {
                if let Some(session) = slab.remove(slot) {
                    metrics.recorder.record(EventKind::Shutdown, session.token(), 0);
                    readiness.deregister(&session);
                }
            }
            slab.ready.clear();
        }
        let accepting = !stop && !limit_reached(cfg, counters);
        if !accepting && slab.live == 0 {
            return;
        }

        let mut progress = false;
        if accepting && accept_ready {
            let accepted = accept_pass(&listener, cfg, metrics, counters, factory, |session| {
                readiness.register(&session, slab.next_slot()).map_err(TransportError::Io)?;
                slab.insert(session);
                Ok(())
            });
            progress = accepted.progress;
            accept_ready = !accepted.drained;
        }
        let busy = !slab.ready.is_empty() || (accepting && accept_ready);
        readiness.poll(&mut slab, &mut accept_ready, busy);

        // One drive per ready session per pass (fairness — a firehose
        // session cannot monopolize the worker); sessions that made
        // progress are queued again for the next pass.
        std::mem::swap(&mut slab.ready, &mut pass);
        let serviced = (!pass.is_empty()).then(std::time::Instant::now);
        for &slot in &pass {
            slab.queued[slot] = false;
            let Some(session) = slab.slots[slot].as_mut() else { continue };
            let (kind, counter, code) = match session.drive() {
                Ok(Drive::Idle) => continue,
                Ok(Drive::Progress) => {
                    progress = true;
                    slab.queue(slot);
                    continue;
                }
                Ok(Drive::Done) => (EventKind::Close, &metrics.closed, 0),
                Err(e) => (EventKind::Fail, &metrics.failed, e.code()),
            };
            progress = true;
            Metrics::add(counter, 1);
            if let Some(session) = slab.remove(slot) {
                metrics.recorder.record(kind, session.token(), code);
                readiness.deregister(&session);
            }
        }
        pass.clear();

        // A scan pass that found nothing to do is no wake: it backs off.
        if let Readiness::Scan { idle_scans } = &mut readiness {
            if !progress {
                backoff(*idle_scans, metrics);
                *idle_scans = idle_scans.saturating_add(1);
                continue;
            }
            *idle_scans = 0;
        }
        if let Some(t0) = serviced {
            metrics.wake_latency.record(t0.elapsed().as_micros() as u64);
        }
    }
}

/// What one bounded accept pass did.
struct AcceptPass {
    /// At least one connection was admitted (or definitively errored).
    progress: bool,
    /// The kernel's queue emptied (`WouldBlock`): no accepts are pending,
    /// so an epoll worker may park until the listener's next event.
    drained: bool,
}

/// Accepts up to `cfg.accept_burst` connections, building a session for
/// each and handing it to `sink`. Each accept is recorded once, after
/// the sink: an `Accept`, or one `AcceptError` if socket setup, the
/// factory or the sink (socket registration) failed. Honors the
/// accept-limit reservation protocol; the caller must already have
/// checked shutdown/limit.
fn accept_pass<S, F>(
    listener: &TcpListener,
    cfg: &LoopConfig,
    metrics: &Metrics,
    counters: &AcceptCounters,
    factory: &F,
    mut sink: impl FnMut(S) -> Result<(), TransportError>,
) -> AcceptPass
where
    S: Session,
    F: Fn(TcpStream, SocketAddr) -> Result<S, TransportError> + Sync,
{
    let mut pass = AcceptPass { progress: false, drained: false };
    let release = || {
        if cfg.accept_limit.is_some() {
            counters.reserved.fetch_sub(1, Ordering::Relaxed);
        }
    };
    // Bounded burst: one worker can neither hoard every pending
    // connection while its siblings starve, nor let a connect flood
    // starve its own established sessions.
    for _ in 0..cfg.accept_burst.max(1) {
        if let Some(limit) = cfg.accept_limit {
            let reservation =
                counters.reserved.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < limit).then_some(n + 1)
                });
            if reservation.is_err() {
                break;
            }
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                counters.admitted.fetch_add(1, Ordering::Relaxed);
                pass.progress = true;
                let admitted = configure(&stream)
                    .map_err(TransportError::Io)
                    .and_then(|()| factory(stream, peer))
                    .and_then(|session| {
                        let token = session.token();
                        sink(session).map(|()| token)
                    });
                match admitted {
                    Ok(token) => {
                        Metrics::add(&metrics.accepted, 1);
                        metrics.recorder.record(EventKind::Accept, token, 0);
                    }
                    Err(e) => {
                        Metrics::add(&metrics.accept_errors, 1);
                        metrics.recorder.record(
                            EventKind::AcceptError,
                            peer_token(&peer),
                            e.code(),
                        );
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                release();
                pass.drained = true;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => release(),
            // Transient accept failures (peer reset mid-handshake,
            // fd pressure): count and keep serving.
            Err(_) => {
                release();
                Metrics::add(&metrics.accept_errors, 1);
                metrics.recorder.record(EventKind::AcceptError, 0, 0);
                break;
            }
        }
    }
    pass
}

fn limit_reached(cfg: &LoopConfig, counters: &AcceptCounters) -> bool {
    cfg.accept_limit.is_some_and(|limit| counters.admitted.load(Ordering::Relaxed) >= limit)
}

/// Extracts the raw fds a session's sockets expose (epoll registration
/// currency) into the reused `out`.
fn collect_fds<S: Session>(session: &S, out: &mut Vec<i32>) {
    let mut streams = Vec::new();
    session.sockets(&mut streams);
    out.clear();
    out.extend(streams.into_iter().map(raw_fd));
}

#[cfg(unix)]
fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

/// Never reached: without unix fds there is no epoll either, so
/// `sys::Epoll::new` fails first and the worker scans.
#[cfg(not(unix))]
fn raw_fd<T>(_: &T) -> i32 {
    -1
}

fn configure(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    // Latency over batching: gateway frames are message-sized.
    let _ = stream.set_nodelay(true);
    Ok(())
}

/// Idle strategy of the scan fallback: stay hot for a few dozen scans
/// (another thread likely holds the bytes we're waiting for), then sleep
/// exponentially up to ~1.6 ms — long enough to be cheap, short enough
/// that shutdown and new connections are picked up promptly. Naps (count
/// and slept time) are recorded in [`Metrics`]. The epoll path never
/// calls this: it parks in `epoll_wait` instead.
fn backoff(idle_scans: u32, metrics: &Metrics) {
    match backoff_duration(idle_scans) {
        None => std::thread::yield_now(),
        Some(nap) => {
            Metrics::add(&metrics.idle_naps, 1);
            Metrics::add(&metrics.idle_nap_micros, nap.as_micros() as u64);
            std::thread::sleep(nap);
        }
    }
}

/// The backoff envelope, as a pure function of the idle-scan counter:
/// `None` (spin-yield) for the first 32 scans, then 50 µs doubling every
/// 32 further scans up to a hard 1.6 ms cap. The exponent is clamped
/// **before** the shift (`min(5)`, so the shifted value is at most
/// `50 << 5`), which makes the envelope safe for every `u32` input — an
/// idle-scan counter that saturates at `u32::MAX` still naps 1.6 ms, it
/// can never shift past the cap or overflow. Pinned by `backoff_envelope`
/// below.
fn backoff_duration(idle_scans: u32) -> Option<Duration> {
    if idle_scans < 32 {
        return None;
    }
    let exp = ((idle_scans - 32) / 32).min(5);
    Some(Duration::from_micros(50u64 << exp))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 50 µs .. 1.6 ms envelope, pinned across the whole `u32` domain
    /// (a counter overflow/saturation can never escape the cap).
    #[test]
    fn backoff_envelope() {
        // Hot phase: pure yields, no naps.
        for scans in 0..32 {
            assert_eq!(backoff_duration(scans), None, "scan {scans} must spin");
        }
        // First nap tier and the doubling schedule.
        assert_eq!(backoff_duration(32), Some(Duration::from_micros(50)));
        assert_eq!(backoff_duration(63), Some(Duration::from_micros(50)));
        assert_eq!(backoff_duration(64), Some(Duration::from_micros(100)));
        assert_eq!(backoff_duration(96), Some(Duration::from_micros(200)));
        assert_eq!(backoff_duration(128), Some(Duration::from_micros(400)));
        assert_eq!(backoff_duration(160), Some(Duration::from_micros(800)));
        // Cap tier: reached at 192 scans and held forever after.
        assert_eq!(backoff_duration(192), Some(Duration::from_micros(1600)));
        for scans in [193, 1 << 16, 1 << 24, u32::MAX - 1, u32::MAX] {
            let nap = backoff_duration(scans).expect("idle workers nap");
            assert_eq!(nap, Duration::from_micros(1600), "scan {scans} escaped the cap");
        }
        // Monotone within the envelope: longer idling never naps shorter.
        let mut last = Duration::ZERO;
        for scans in 32..512 {
            let nap = backoff_duration(scans).unwrap();
            assert!(nap >= last, "nap shrank at scan {scans}");
            assert!((50..=1600).contains(&(nap.as_micros() as u64)));
            last = nap;
        }
    }

    /// A session whose socket registration fails is exactly one accept
    /// error: never accepted, closed or failed. Reporting its one socket
    /// twice makes the second `epoll_ctl(ADD)` fail with `EEXIST`,
    /// standing in for watch or fd exhaustion.
    #[test]
    fn registration_failure_is_one_accept_error() {
        if !sys::supported() || matches!(std::env::var("PROTOOBF_EVLOOP").as_deref(), Ok("scan")) {
            return;
        }
        struct Twice(TcpStream);
        impl Session for Twice {
            fn drive(&mut self) -> Result<Drive, TransportError> {
                Ok(Drive::Done)
            }
            fn sockets<'a>(&'a self, out: &mut Vec<&'a TcpStream>) {
                out.extend([&self.0, &self.0]);
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let metrics = Metrics::new();
        let cfg = LoopConfig { workers: 1, accept_limit: Some(1), ..LoopConfig::default() };
        serve(listener, &cfg, &AtomicBool::new(false), &metrics, |s, _| Ok(Twice(s))).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.accepted, snap.accept_errors, snap.closed, snap.failed),
            (0, 1, 0, 0),
            "{snap}"
        );
        let kinds: Vec<_> = metrics.recorder.dump().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::AcceptError]);
    }

    /// Worker naps are visible in the metrics (count and slept micros).
    #[test]
    fn backoff_records_naps_in_metrics() {
        let metrics = Metrics::new();
        backoff(0, &metrics); // yield: not a nap
        backoff(32, &metrics); // 50 µs
        backoff(500, &metrics); // capped 1.6 ms
        let snap = metrics.snapshot();
        assert_eq!(snap.idle_naps, 2);
        assert_eq!(snap.idle_nap_micros, 50 + 1600);
    }
}
