//! Unified observability: lock-free counters, log₂-bucketed histograms,
//! sampled stage timers, a connection flight recorder, and the
//! [`Telemetry`] registry that renders them all for the admin endpoint.
//!
//! Everything a hot path touches here is a relaxed atomic on
//! pre-allocated storage — recording a latency sample, a frame size, or
//! a flight-recorder event never allocates, never locks, and never
//! blocks another thread (`crates/core/tests/zero_alloc.rs` pins the
//! steady-state codec/relay paths at zero allocations *with* this
//! instrumentation enabled). The read side — snapshots, percentile
//! math, Prometheus rendering, event dumps — runs on the admin plane
//! and may allocate freely.
//!
//! The module grew out of `protoobf-transport`'s metrics (which now
//! re-exports it): hoisting it into core lets one registry aggregate
//! transport [`Metrics`] *and* [`crate::service::ServiceStats`] without
//! a dependency cycle.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::service::CodecService;

/// Log-bucketed bucket count of [`LatencyHistogram`]: bucket `i` holds
/// values whose bit length is `i` (bucket 0 is exactly zero, bucket 1 is
/// 1, bucket 2 is 2–3, ... bucket 39 is everything ≥ 2³⁸ µs ≈ 76 h).
/// Forty buckets span nanoscale to absurd with ~2× resolution — plenty
/// for p50/p95/p99 tuning.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A lock-free log₂-bucketed histogram. Despite the name it is a
/// general value histogram — the gateway records frame *sizes* through
/// the same type. Recording is two relaxed `fetch_add`s — cheap enough
/// for the event loop's per-wake hot path — and percentiles are
/// computed from a snapshot, so readers never block writers.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of every recorded value (for Prometheus `_sum` / mean).
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// The bucket index a value lands in: its bit length, clamped to the
    /// last bucket.
    pub fn bucket_of(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The largest value bucket `i` can hold (the value percentiles
    /// report): `0` for bucket 0, `2^i - 1` for the rest, `u64::MAX` for
    /// the clamp bucket.
    pub fn bucket_ceiling(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one value (relaxed; never blocks, never allocates).
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Folds a frozen snapshot into this histogram — the aggregation
    /// primitive for registries that combine per-worker or per-plane
    /// histograms into one scrape series.
    pub fn merge(&self, other: &HistogramSnapshot) {
        for (bucket, &n) in self.buckets.iter().zip(&other.buckets) {
            if n != 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed) }
    }
}

/// A frozen [`LatencyHistogram`], from [`LatencyHistogram::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw per-bucket counts; see [`LatencyHistogram::bucket_of`] for the
    /// boundaries.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of every recorded value.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The counts recorded since `prev` was taken: per-bucket (and sum)
    /// saturating difference. With `prev` the previous scrape's
    /// snapshot, the result's percentiles are *per-interval* — the
    /// latency shape of the last scrape window, not of the process
    /// lifetime. Saturation (rather than wrap) keeps a mismatched or
    /// restarted `prev` harmless: stale buckets clamp to zero.
    pub fn delta(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, (&now, &old)) in buckets.iter_mut().zip(self.buckets.iter().zip(&prev.buckets)) {
            *out = now.saturating_sub(old);
        }
        HistogramSnapshot { buckets, sum: self.sum.saturating_sub(prev.sum) }
    }

    /// The value at percentile `p` (0–100): the ceiling of the first
    /// bucket whose cumulative count reaches `p`% of the total, i.e. an
    /// upper bound within one 2× bucket of the true percentile. Zero on
    /// an empty histogram.
    pub fn percentile(&self, p: u8) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // ceil(total * p / 100), saturating: the rank of the percentile.
        // At least 1 so p0 reports the smallest recorded value's bucket,
        // not an empty leading bucket.
        let rank = total.saturating_mul(u64::from(p.min(100))).div_ceil(100).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return LatencyHistogram::bucket_ceiling(i);
            }
        }
        LatencyHistogram::bucket_ceiling(HISTOGRAM_BUCKETS - 1)
    }

    /// Median upper bound, `percentile(50)`.
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// `percentile(95)`.
    pub fn p95(&self) -> u64 {
        self.percentile(95)
    }

    /// `percentile(99)`.
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }
}

/// Every how many calls a [`StageTimer`] actually reads the clock. A
/// power of two so the arm check is one mask on a relaxed counter; at
/// 1/32 the pair of `Instant` calls amortizes to noise even on the
/// per-message relay path while percentiles still converge within a few
/// thousand messages.
pub const STAGE_SAMPLE_PERIOD: u64 = 32;

/// A sampled latency timer for one codec stage. Every call bumps a
/// relaxed counter; every [`STAGE_SAMPLE_PERIOD`]th call arms a clock
/// read whose elapsed nanoseconds land in a [`LatencyHistogram`]. The
/// un-sampled calls cost one `fetch_add` — the clock syscall stays off
/// the per-byte path, which is what lets the zero-alloc/hot-loop
/// guarantees hold with timing enabled.
#[derive(Debug, Default)]
pub struct StageTimer {
    calls: AtomicU64,
    /// Sampled stage latency in **nanoseconds** (stage work is sub-µs).
    pub latency: LatencyHistogram,
}

impl StageTimer {
    /// Creates an idle timer.
    pub fn new() -> StageTimer {
        StageTimer::default()
    }

    /// Counts one call and, on sampled calls, returns an armed start
    /// instant to hand back to [`StageTimer::finish`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        (n & (STAGE_SAMPLE_PERIOD - 1) == 0).then(Instant::now)
    }

    /// Records an armed sample; a `None` pass-through is free. Dropping
    /// an armed instant instead (e.g. the stage bailed early) simply
    /// under-samples — never skews.
    #[inline]
    pub fn finish(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.latency.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Total calls counted (sampled or not).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Frozen copy: total calls + sampled latency distribution.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot { calls: self.calls(), latency: self.latency.snapshot() }
    }
}

/// A frozen [`StageTimer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Total stage invocations (every call, sampled or not).
    pub calls: u64,
    /// Sampled latency distribution, nanoseconds.
    pub latency: HistogramSnapshot,
}

/// The three codec stages a relay runs per message, each behind a
/// sampled [`StageTimer`]: `serialize` (message → wire bytes, including
/// framing), `parse` (wire bytes → message), `transcode` (compiled
/// copy-program run between codecs).
#[derive(Debug, Default)]
pub struct StageTimers {
    pub serialize: StageTimer,
    pub parse: StageTimer,
    pub transcode: StageTimer,
}

impl StageTimers {
    /// Frozen copy of all three stages.
    pub fn snapshot(&self) -> StagesSnapshot {
        StagesSnapshot {
            serialize: self.serialize.snapshot(),
            parse: self.parse.snapshot(),
            transcode: self.transcode.snapshot(),
        }
    }
}

/// Frozen [`StageTimers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagesSnapshot {
    pub serialize: StageSnapshot,
    pub parse: StageSnapshot,
    pub transcode: StageSnapshot,
}

/// Connection lifecycle event kinds recorded by the [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A session was accepted and registered with the event loop.
    Accept = 0,
    /// Accept-time failure (socket setup, upstream dial): `detail` is a
    /// transport error code when the factory reported one, else 0.
    AcceptError = 1,
    /// A session finished cleanly.
    Close = 2,
    /// A session was torn down by a typed transport error; `detail`
    /// carries the error's stable numeric code.
    Fail = 3,
    /// A backpressure stall *edge*: the session's outbound cap closed
    /// its read gate (`detail` = queued bytes at the stall).
    Backpressure = 4,
    /// Event-loop shutdown dropped the session mid-flight.
    Shutdown = 5,
}

impl EventKind {
    fn from_u64(v: u64) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Accept,
            1 => EventKind::AcceptError,
            2 => EventKind::Close,
            3 => EventKind::Fail,
            4 => EventKind::Backpressure,
            5 => EventKind::Shutdown,
            _ => return None,
        })
    }

    /// Stable lowercase name, as rendered at `/events`.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Accept => "accept",
            EventKind::AcceptError => "accept-error",
            EventKind::Close => "close",
            EventKind::Fail => "fail",
            EventKind::Backpressure => "backpressure",
            EventKind::Shutdown => "shutdown",
        }
    }
}

/// Packs a peer address into the opaque `u64` token that flight-recorder
/// events carry. IPv4 round-trips losslessly (`ip << 16 | port`, upper
/// 16 bits zero); IPv6 is FNV-1a-hashed with the port mixed in and its
/// top bit forced so the two shapes cannot collide.
pub fn peer_token(addr: &SocketAddr) -> u64 {
    match addr {
        SocketAddr::V4(v4) => {
            (u64::from(u32::from_be_bytes(v4.ip().octets())) << 16) | u64::from(v4.port())
        }
        SocketAddr::V6(v6) => {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in v6.ip().octets() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h = (h ^ u64::from(v6.port())).wrapping_mul(0x0000_0100_0000_01b3);
            h | (1 << 63)
        }
    }
}

/// Renders a [`peer_token`] for humans: decoded `a.b.c.d:port` when it
/// carries an IPv4 address, bare hex otherwise.
pub fn format_token(token: u64) -> String {
    if token != 0 && token >> 48 == 0 {
        let ip = (token >> 16) as u32;
        let [a, b, c, d] = ip.to_be_bytes();
        format!("{a}.{b}.{c}.{d}:{}", token & 0xffff)
    } else {
        format!("{token:#018x}")
    }
}

/// Slots in a default-capacity [`FlightRecorder`]. Power of two (the
/// ring index is a mask).
pub const FLIGHT_RECORDER_CAPACITY: usize = 1024;

/// One pre-allocated recorder slot. A per-slot sequence implements a
/// seqlock: the writer publishes `2·index + 1` (odd: in progress),
/// writes the fields, then `2·index + 2` (even: stable), so a reader
/// that observes the same even sequence before and after its field
/// reads holds a consistent event.
#[derive(Debug)]
struct EventSlot {
    seq: AtomicU64,
    micros: AtomicU64,
    kind: AtomicU64,
    token: AtomicU64,
    detail: AtomicU64,
}

/// A fixed-capacity lock-free ring of recent connection lifecycle
/// events — the black box a long-lived gateway dumps at `/events` to
/// reconstruct *what happened* around a teardown or a backpressure
/// stall without any log volume on the happy path.
///
/// Recording claims a slot with one `fetch_add` on the head counter and
/// publishes through the slot seqlock — no allocation, no lock, safe
/// from any number of threads. The ring keeps the most recent
/// `capacity` events; older ones are overwritten. Reading
/// ([`FlightRecorder::dump`]) is best-effort by design: a slot caught
/// mid-write is skipped, and a reader racing ≥ `capacity` concurrent
/// writes may drop a torn slot — acceptable for a postmortem aid,
/// disqualifying for billing.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    /// Total events ever recorded (head of the ring).
    head: AtomicU64,
    slots: Box<[EventSlot]>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_capacity(FLIGHT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the `capacity` most recent events (rounded up
    /// to a power of two, min 2).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.next_power_of_two().max(2);
        FlightRecorder {
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| EventSlot {
                    seq: AtomicU64::new(0),
                    micros: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    token: AtomicU64::new(0),
                    detail: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (≥ what [`FlightRecorder::dump`]
    /// returns once the ring has wrapped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event: relaxed atomics on pre-allocated slots only —
    /// hot-path safe.
    pub fn record(&self, kind: EventKind, token: u64, detail: u64) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n as usize) & (self.slots.len() - 1)];
        slot.seq.store(n.wrapping_mul(2) + 1, Ordering::Release);
        slot.micros.store(self.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.token.store(token, Ordering::Relaxed);
        slot.detail.store(detail, Ordering::Relaxed);
        slot.seq.store(n.wrapping_mul(2) + 2, Ordering::Release);
    }

    /// Snapshots the ring: stable events, oldest first. Admin-plane
    /// only (allocates the result vector).
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written / mid-write
            }
            let micros = slot.micros.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let token = slot.token.load(Ordering::Relaxed);
            let detail = slot.detail.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // overwritten while reading
            }
            let Some(kind) = EventKind::from_u64(kind) else { continue };
            events.push(FlightEvent { index: before / 2 - 1, micros, kind, token, detail });
        }
        events.sort_unstable_by_key(|e| e.index);
        events
    }
}

/// One stable event out of [`FlightRecorder::dump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone event number (0 = first event since process start).
    pub index: u64,
    /// Microseconds since the recorder was created.
    pub micros: u64,
    pub kind: EventKind,
    /// Peer token ([`peer_token`]); 0 when the session has no peer.
    pub token: u64,
    /// Kind-specific payload: error code for [`EventKind::Fail`], queued
    /// bytes for [`EventKind::Backpressure`], else 0.
    pub detail: u64,
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{:06} +{}.{:06}s {:<12} peer={}",
            self.index,
            self.micros / 1_000_000,
            self.micros % 1_000_000,
            self.kind.name(),
            format_token(self.token),
        )?;
        if self.detail != 0 {
            write!(f, " detail={}", self.detail)?;
        }
        Ok(())
    }
}

/// Cumulative transport + codec-stage counters. All fields are relaxed
/// atomics on pre-allocated storage — cheap enough for per-chunk
/// increments on the hot path. Share by reference (the event loop takes
/// `&Metrics`) or wrap in an `Arc` for reporting threads and the admin
/// endpoint.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted by the event loop.
    pub accepted: AtomicU64,
    /// Accept-time failures (socket setup, upstream dial, handshake).
    pub accept_errors: AtomicU64,
    /// Sessions that finished cleanly.
    pub closed: AtomicU64,
    /// Sessions torn down by a typed transport error (hostile frames,
    /// socket failures).
    pub failed: AtomicU64,
    /// Messages decoded from transport bytes.
    pub messages_in: AtomicU64,
    /// Messages re-encoded onto transport bytes (relay: after transcode).
    pub messages_out: AtomicU64,
    /// Messages transcoded between codecs (compiled copy-program runs on
    /// the gateway relay / echo hot path). For a healthy relay this
    /// tracks `messages_in`; a lag means messages decoded but not yet
    /// re-expressed.
    pub transcodes: AtomicU64,
    /// Raw bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Raw bytes written to sockets.
    pub bytes_out: AtomicU64,
    /// Idle backoff naps taken by event-loop workers on the readiness-
    /// scan fallback path (the epoll path sleeps in the kernel instead
    /// and never naps). High and climbing while traffic flows = workers
    /// starved of readiness, consider more workers; high while idle =
    /// normal.
    pub idle_naps: AtomicU64,
    /// Cumulative microseconds spent in idle backoff sleeps — with
    /// [`Metrics::idle_naps`], the full shape of the backoff envelope
    /// (many short naps vs. few capped ones).
    pub idle_nap_micros: AtomicU64,
    /// Wake-servicing latency in microseconds: for every event-loop wake
    /// that found work, the time from discovering readiness to having
    /// driven every ready session back to idle. The percentiles bound
    /// how long a ready connection waits for its worker — the C10K
    /// health metric (an O(n) readiness scan shows up here long before
    /// throughput collapses).
    pub wake_latency: LatencyHistogram,
    /// Stalls where a session's outbound cap paused its ingestion (the
    /// relay/echo read gate closed mid-pass; see the transport crate's
    /// `TransportError::Backpressure`). Edge-detected: a stall spanning
    /// many drives counts once.
    pub backpressure_events: AtomicU64,
    /// Covert-tunnel payload bytes recovered from inbound cover messages
    /// and handed to the local sink — tunnel *goodput*, as opposed to
    /// [`Metrics::bytes_in`] which counts the (much larger) cover wire.
    pub payload_bytes_in: AtomicU64,
    /// Covert-tunnel payload bytes consumed from the local source and
    /// folded into outbound cover messages. `bytes_out /
    /// payload_bytes_out` is the live overhead ratio.
    pub payload_bytes_out: AtomicU64,
    /// Distribution of decoded inbound frame lengths (payload bytes).
    /// With [`Metrics::frame_bytes_out`], the traffic-shape series the
    /// ScrambleSuit-style morphing roadmap item consumes.
    pub frame_bytes_in: LatencyHistogram,
    /// Distribution of encoded outbound frame lengths (wire bytes,
    /// length prefix included).
    pub frame_bytes_out: LatencyHistogram,
    /// Sampled per-stage codec latency (serialize / parse / transcode).
    pub stages: StageTimers,
    /// Connection lifecycle ring buffer, dumped at `/events`.
    pub recorder: FlightRecorder,
}

impl Metrics {
    /// Creates zeroed counters and an empty flight recorder.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// One relaxed increment — the idiom every hot-path call site uses.
    pub fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            messages_in: self.messages_in.load(Ordering::Relaxed),
            messages_out: self.messages_out.load(Ordering::Relaxed),
            transcodes: self.transcodes.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            idle_naps: self.idle_naps.load(Ordering::Relaxed),
            idle_nap_micros: self.idle_nap_micros.load(Ordering::Relaxed),
            wake_latency: self.wake_latency.snapshot(),
            backpressure_events: self.backpressure_events.load(Ordering::Relaxed),
            payload_bytes_in: self.payload_bytes_in.load(Ordering::Relaxed),
            payload_bytes_out: self.payload_bytes_out.load(Ordering::Relaxed),
            frame_bytes_in: self.frame_bytes_in.snapshot(),
            frame_bytes_out: self.frame_bytes_out.snapshot(),
            stages: self.stages.snapshot(),
        }
    }
}

/// A frozen copy of [`Metrics`], from [`Metrics::snapshot`] (the flight
/// recorder is dumped separately — events are not a counter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub accepted: u64,
    pub accept_errors: u64,
    pub closed: u64,
    pub failed: u64,
    pub messages_in: u64,
    pub messages_out: u64,
    pub transcodes: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub idle_naps: u64,
    pub idle_nap_micros: u64,
    /// Wake-servicing latency distribution (µs); see
    /// [`Metrics::wake_latency`].
    pub wake_latency: HistogramSnapshot,
    pub backpressure_events: u64,
    /// Tunnel payload goodput delivered to the local sink (bytes).
    pub payload_bytes_in: u64,
    /// Tunnel payload goodput taken from the local source (bytes).
    pub payload_bytes_out: u64,
    /// Inbound frame-length distribution (bytes).
    pub frame_bytes_in: HistogramSnapshot,
    /// Outbound frame-length distribution (bytes).
    pub frame_bytes_out: HistogramSnapshot,
    /// Sampled codec-stage latencies (ns).
    pub stages: StagesSnapshot,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {} accepted / {} closed / {} failed ({} accept errors); \
             msgs {} in / {} transcoded / {} out; bytes {} in / {} out; \
             payload {} in / {} out; \
             {} idle naps ({} µs); {} backpressure events; \
             wake latency p50/p95/p99 {}/{}/{} µs over {} wakes",
            self.accepted,
            self.closed,
            self.failed,
            self.accept_errors,
            self.messages_in,
            self.transcodes,
            self.messages_out,
            self.bytes_in,
            self.bytes_out,
            self.payload_bytes_in,
            self.payload_bytes_out,
            self.idle_naps,
            self.idle_nap_micros,
            self.backpressure_events,
            self.wake_latency.p50(),
            self.wake_latency.p95(),
            self.wake_latency.p99(),
            self.wake_latency.count(),
        )
    }
}

/// The unified observability registry behind the admin endpoint: one
/// [`Metrics`] (transport counters + stage timers + flight recorder)
/// plus any number of named [`CodecService`]s whose
/// [`crate::service::ServiceStats`] become per-service gauge/counter series. Renders
/// the whole lot as Prometheus text exposition (`/metrics`), a flight-
/// recorder dump (`/events`), or a human summary (the CLI's final
/// line). Cheap to build — services register as `Arc` clones.
#[derive(Debug)]
pub struct Telemetry {
    metrics: Arc<Metrics>,
    services: Vec<(String, Arc<CodecService>)>,
    started: Instant,
    /// Previous scrape's snapshot: `/metrics` reports *interval*
    /// percentiles (this scrape minus the last) next to cumulative
    /// ones, via [`HistogramSnapshot::delta`].
    last_scrape: Mutex<Option<MetricsSnapshot>>,
}

impl Telemetry {
    /// A registry over one shared metrics block.
    pub fn new(metrics: Arc<Metrics>) -> Telemetry {
        Telemetry {
            metrics,
            services: Vec::new(),
            started: Instant::now(),
            last_scrape: Mutex::new(None),
        }
    }

    /// Registers a named codec service. Re-registering the same service
    /// (by `Arc` identity) is a no-op — a symmetric gateway's four legs
    /// collapse to the two distinct services they share.
    pub fn register_service(&mut self, name: &str, service: &Arc<CodecService>) {
        if !self.services.iter().any(|(_, s)| Arc::ptr_eq(s, service)) {
            self.services.push((name.to_string(), Arc::clone(service)));
        }
    }

    /// The shared metrics block.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Registered `(name, service)` pairs, registration order.
    pub fn services(&self) -> &[(String, Arc<CodecService>)] {
        &self.services
    }

    /// The `/metrics` body: Prometheus text exposition format 0.0.4.
    /// Counters end in `_total`, latency summaries carry
    /// p50/p95/p99 `quantile` labels (cumulative and `_interval_` since
    /// the previous scrape), frame sizes are cumulative `le` histograms,
    /// and every registered service contributes labeled series.
    pub fn render_prometheus(&self) -> String {
        let snap = self.metrics.snapshot();
        let prev = {
            let mut last = self.last_scrape.lock().unwrap_or_else(|e| e.into_inner());
            last.replace(snap)
        };

        let mut out = String::with_capacity(4096);
        let counters: [(&str, &str, u64); 14] = [
            ("accepted", "Connections accepted by the event loop", snap.accepted),
            ("accept_errors", "Accept-time failures", snap.accept_errors),
            ("closed", "Sessions finished cleanly", snap.closed),
            ("failed", "Sessions torn down by a transport error", snap.failed),
            ("messages_in", "Messages decoded from transport bytes", snap.messages_in),
            ("messages_out", "Messages re-encoded onto transport bytes", snap.messages_out),
            ("transcodes", "Messages transcoded between codecs", snap.transcodes),
            ("bytes_in", "Raw bytes read off sockets", snap.bytes_in),
            ("bytes_out", "Raw bytes written to sockets", snap.bytes_out),
            (
                "payload_bytes_in",
                "Tunnel payload goodput delivered to the local sink",
                snap.payload_bytes_in,
            ),
            (
                "payload_bytes_out",
                "Tunnel payload goodput taken from the local source",
                snap.payload_bytes_out,
            ),
            ("idle_naps", "Idle backoff naps (scan backend)", snap.idle_naps),
            ("idle_nap_micros", "Microseconds slept in idle backoff", snap.idle_nap_micros),
            (
                "backpressure_events",
                "Outbound-cap read-gate stalls (edge-detected)",
                snap.backpressure_events,
            ),
        ];
        for (name, help, value) in counters {
            use std::fmt::Write;
            let _ = writeln!(out, "# HELP protoobf_{name}_total {help}");
            let _ = writeln!(out, "# TYPE protoobf_{name}_total counter");
            let _ = writeln!(out, "protoobf_{name}_total {value}");
        }

        render_summary(&mut out, "protoobf_wake_latency_micros", "", &snap.wake_latency);
        if let Some(prev) = &prev {
            render_summary(
                &mut out,
                "protoobf_wake_latency_interval_micros",
                "",
                &snap.wake_latency.delta(&prev.wake_latency),
            );
        }

        for (stage, cur, old) in [
            ("serialize", &snap.stages.serialize, prev.as_ref().map(|p| &p.stages.serialize)),
            ("parse", &snap.stages.parse, prev.as_ref().map(|p| &p.stages.parse)),
            ("transcode", &snap.stages.transcode, prev.as_ref().map(|p| &p.stages.transcode)),
        ] {
            use std::fmt::Write;
            let _ = writeln!(out, "protoobf_stage_calls_total{{stage=\"{stage}\"}} {}", cur.calls);
            let label = format!("{{stage=\"{stage}\"}}");
            render_summary(&mut out, "protoobf_stage_latency_nanos", &label, &cur.latency);
            if let Some(old) = old {
                render_summary(
                    &mut out,
                    "protoobf_stage_latency_interval_nanos",
                    &label,
                    &cur.latency.delta(&old.latency),
                );
            }
        }

        render_histogram(&mut out, "protoobf_frame_bytes", "in", &snap.frame_bytes_in);
        render_histogram(&mut out, "protoobf_frame_bytes", "out", &snap.frame_bytes_out);

        for (name, service) in &self.services {
            use std::fmt::Write;
            let s = service.stats();
            let label = format!("{{service=\"{name}\"}}");
            let _ = writeln!(out, "protoobf_service_shards{label} {}", s.shards);
            let _ = writeln!(
                out,
                "protoobf_service_pooled_serializers{label} {}",
                s.pooled_serializers
            );
            let _ = writeln!(out, "protoobf_service_pooled_parsers{label} {}", s.pooled_parsers);
            let _ = writeln!(
                out,
                "protoobf_service_pooled_serializers_peak{label} {}",
                s.pooled_serializer_peak
            );
            let _ = writeln!(
                out,
                "protoobf_service_pooled_parsers_peak{label} {}",
                s.pooled_parser_peak
            );
            let _ =
                writeln!(out, "protoobf_service_serialized_total{label} {}", s.serialized_messages);
            let _ = writeln!(out, "protoobf_service_parsed_total{label} {}", s.parsed_messages);
        }

        {
            use std::fmt::Write;
            let _ =
                writeln!(out, "protoobf_flight_events_total {}", self.metrics.recorder.recorded());
            let _ = writeln!(out, "protoobf_uptime_seconds {}", self.started.elapsed().as_secs());
        }
        out
    }

    /// The `/events` body: the flight-recorder dump, oldest first, one
    /// event per line, prefixed by a `#` header describing the window.
    pub fn render_events(&self) -> String {
        use std::fmt::Write;
        let events = self.metrics.recorder.dump();
        let mut out = String::with_capacity(64 + events.len() * 64);
        let _ = writeln!(
            out,
            "# flight recorder: {} events recorded, showing {} (capacity {})",
            self.metrics.recorder.recorded(),
            events.len(),
            self.metrics.recorder.capacity(),
        );
        for e in events {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// The unified human summary every networked CLI subcommand prints
    /// at exit (unless `--quiet`): the transport snapshot line plus
    /// frame-shape, stage-latency, per-service, and flight-recorder
    /// lines — one place to read a run's whole story.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let snap = self.metrics.snapshot();
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "{snap}");
        let fin = &snap.frame_bytes_in;
        let fout = &snap.frame_bytes_out;
        let _ = writeln!(
            out,
            "  frames: in p50/p99 {}/{} B over {}; out p50/p99 {}/{} B over {}",
            fin.p50(),
            fin.p99(),
            fin.count(),
            fout.p50(),
            fout.p99(),
            fout.count(),
        );
        let stage_line = |s: &StageSnapshot| {
            format!(
                "p50/p99 {}/{} ns ({} calls, {} sampled)",
                s.latency.p50(),
                s.latency.p99(),
                s.calls,
                s.latency.count()
            )
        };
        let _ = writeln!(
            out,
            "  stages: serialize {}; parse {}; transcode {}",
            stage_line(&snap.stages.serialize),
            stage_line(&snap.stages.parse),
            stage_line(&snap.stages.transcode),
        );
        for (name, service) in &self.services {
            let s = service.stats();
            let _ = writeln!(
                out,
                "  service {name}: {} serialized / {} parsed; pooled {}+{} (peak {}+{}); \
                 contention {} checkout / {} checkin",
                s.serialized_messages,
                s.parsed_messages,
                s.pooled_serializers,
                s.pooled_parsers,
                s.pooled_serializer_peak,
                s.pooled_parser_peak,
                s.checkout_contention,
                s.checkin_contention,
            );
        }
        let _ = write!(
            out,
            "  flight recorder: {} events (capacity {})",
            self.metrics.recorder.recorded(),
            self.metrics.recorder.capacity(),
        );
        out
    }
}

/// Emits a Prometheus summary: p50/p95/p99 `quantile` series plus
/// `_sum`/`_count`. `labels` is either empty or `{k="v"}` (merged with
/// the quantile label as needed).
fn render_summary(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    use std::fmt::Write;
    let base = labels.trim_start_matches('{').trim_end_matches('}');
    let sep = if base.is_empty() { "" } else { "," };
    if labels.is_empty() {
        let _ = writeln!(out, "# TYPE {name} summary");
    }
    for (q, p) in [("0.5", 50u8), ("0.95", 95), ("0.99", 99)] {
        let _ = writeln!(out, "{name}{{{base}{sep}quantile=\"{q}\"}} {}", snap.percentile(p));
    }
    let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum);
    let _ = writeln!(out, "{name}_count{labels} {}", snap.count());
}

/// Emits a Prometheus histogram with cumulative `le` buckets from the
/// log₂ bucket ceilings (only buckets up to the last non-empty one,
/// plus `+Inf`), labeled by `direction`.
fn render_histogram(out: &mut String, name: &str, direction: &str, snap: &HistogramSnapshot) {
    use std::fmt::Write;
    if direction == "in" {
        let _ = writeln!(out, "# TYPE {name} histogram");
    }
    let last = snap.buckets.iter().rposition(|&n| n != 0);
    let mut cumulative = 0u64;
    if let Some(last) = last {
        for (i, &n) in snap.buckets.iter().enumerate().take(last + 1) {
            cumulative += n;
            let _ = writeln!(
                out,
                "{name}_bucket{{direction=\"{direction}\",le=\"{}\"}} {cumulative}",
                LatencyHistogram::bucket_ceiling(i),
            );
        }
    }
    let _ =
        writeln!(out, "{name}_bucket{{direction=\"{direction}\",le=\"+Inf\"}} {}", snap.count());
    let _ = writeln!(out, "{name}_sum{{direction=\"{direction}\"}} {}", snap.sum);
    let _ = writeln!(out, "{name}_count{{direction=\"{direction}\"}} {}", snap.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented bucket boundaries, pinned: bucket 0 is exactly 0,
    /// bucket i covers [2^(i-1), 2^i - 1], and everything ≥ 2^38 lands in
    /// the clamp bucket.
    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(LatencyHistogram::bucket_of(lo), i, "lower edge of bucket {i}");
            assert_eq!(LatencyHistogram::bucket_of(hi), i, "upper edge of bucket {i}");
            assert_eq!(LatencyHistogram::bucket_ceiling(i), hi);
        }
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_ceiling(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every representable value has a bucket and its ceiling bounds it.
        for v in [0u64, 1, 2, 5, 50, 1600, 123_456, 1 << 37, 1 << 38, u64::MAX] {
            let b = LatencyHistogram::bucket_of(v);
            assert!(v <= LatencyHistogram::bucket_ceiling(b), "value {v} above its ceiling");
        }
    }

    #[test]
    fn histogram_percentiles_report_bucket_ceilings() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(40); // bucket 6 (32..63), ceiling 63
        }
        for _ in 0..10 {
            h.record(5000); // bucket 13 (4096..8191), ceiling 8191
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.sum, 90 * 40 + 10 * 5000);
        assert_eq!(snap.p50(), 63);
        assert_eq!(snap.percentile(90), 63);
        assert_eq!(snap.p95(), 8191);
        assert_eq!(snap.p99(), 8191);
        assert_eq!(snap.percentile(0), 63, "p0 reports the first non-empty bucket");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.sum, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.percentile(0), 0);
        assert_eq!(snap.percentile(255), 0, "p>100 on empty stays 0");
    }

    /// Satellite-pinned percentile edges: p0 on a single sample reports
    /// that sample's bucket; values past the last boundary saturate into
    /// the clamp bucket (ceiling u64::MAX); p>100 clamps to p100.
    #[test]
    fn percentile_edge_cases() {
        let h = LatencyHistogram::new();
        h.record(7);
        let one = h.snapshot();
        assert_eq!(one.percentile(0), 7, "p0 on a single sample is its bucket ceiling");
        assert_eq!(one.percentile(100), 7);
        assert_eq!(one.percentile(101), 7, "p>100 clamps to p100");
        assert_eq!(one.percentile(255), 7);

        let h = LatencyHistogram::new();
        h.record(1u64 << 39); // beyond the last finite boundary
        h.record(u64::MAX);
        let sat = h.snapshot();
        assert_eq!(sat.buckets[HISTOGRAM_BUCKETS - 1], 2, "saturates into the clamp bucket");
        assert_eq!(sat.p50(), u64::MAX);
        assert_eq!(sat.percentile(200), u64::MAX);
    }

    #[test]
    fn merge_folds_snapshot_counts_in() {
        let a = LatencyHistogram::new();
        a.record(10);
        a.record(100);
        let b = LatencyHistogram::new();
        b.record(100);
        b.record(1000);
        a.merge(&b.snapshot());
        let merged = a.snapshot();
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum, 10 + 100 + 100 + 1000);
        assert_eq!(merged.buckets[LatencyHistogram::bucket_of(100)], 2);
        // Merging an empty snapshot is the identity.
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a.snapshot(), merged);
    }

    #[test]
    fn delta_reports_the_interval() {
        let h = LatencyHistogram::new();
        h.record(50);
        h.record(50);
        let prev = h.snapshot();
        h.record(50);
        h.record(7000);
        let delta = h.snapshot().delta(&prev);
        assert_eq!(delta.count(), 2, "only the post-prev records");
        assert_eq!(delta.sum, 50 + 7000);
        assert_eq!(delta.p99(), 8191, "interval percentiles see only new samples");
        // Deltaing against a *newer* snapshot saturates to empty rather
        // than wrapping.
        let stale = prev.delta(&h.snapshot());
        assert_eq!(stale.count(), 0);
        assert_eq!(stale.sum, 0);
    }

    #[test]
    fn display_includes_percentiles() {
        let m = Metrics::new();
        m.wake_latency.record(100);
        let rendered = m.snapshot().to_string();
        assert!(rendered.contains("wake latency"), "{rendered}");
        assert!(rendered.contains("over 1 wakes"), "{rendered}");
    }

    #[test]
    fn stage_timer_samples_every_nth_call() {
        let t = StageTimer::new();
        for _ in 0..(STAGE_SAMPLE_PERIOD * 3) {
            let armed = t.start();
            t.finish(armed);
        }
        let snap = t.snapshot();
        assert_eq!(snap.calls, STAGE_SAMPLE_PERIOD * 3);
        assert_eq!(snap.latency.count(), 3, "exactly one sample per period");
        // Call 0 arms (0 & mask == 0); dropping an armed instant only
        // under-samples.
        let t = StageTimer::new();
        let armed = t.start();
        assert!(armed.is_some());
        let _ = armed;
        assert_eq!(t.snapshot().latency.count(), 0);
    }

    #[test]
    fn flight_recorder_keeps_most_recent_events_in_order() {
        let r = FlightRecorder::with_capacity(8);
        assert_eq!(r.capacity(), 8);
        for i in 0..20u64 {
            r.record(EventKind::Accept, i, 0);
        }
        let events = r.dump();
        assert_eq!(r.recorded(), 20);
        assert_eq!(events.len(), 8, "ring keeps the last `capacity` events");
        let tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        assert_eq!(tokens, (12..20).collect::<Vec<u64>>(), "oldest first, wrapped");
        let indices: Vec<u64> = events.iter().map(|e| e.index).collect();
        assert_eq!(indices, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn flight_recorder_survives_concurrent_writers() {
        let r = FlightRecorder::with_capacity(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        r.record(EventKind::Close, t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 2000);
        let events = r.dump();
        assert!(events.len() <= 64);
        assert!(!events.is_empty());
        // Quiescent dump: every surviving slot is stable and ordered.
        for pair in events.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
        for e in &events {
            assert_eq!(e.kind, EventKind::Close);
            assert_eq!(e.token % 1000, e.detail, "fields from one write, not torn");
        }
    }

    #[test]
    fn peer_tokens_round_trip_v4_and_mark_v6() {
        let v4: SocketAddr = "192.168.1.9:4433".parse().unwrap();
        let tok = peer_token(&v4);
        assert_eq!(format_token(tok), "192.168.1.9:4433");
        let v6: SocketAddr = "[::1]:80".parse().unwrap();
        let tok6 = peer_token(&v6);
        assert!(tok6 >> 63 == 1, "v6 tokens carry the high bit");
        assert!(format_token(tok6).starts_with("0x"));
        assert_eq!(format_token(0), "0x0000000000000000");
    }

    fn tiny_service() -> Arc<CodecService> {
        use crate::graph::{Boundary, GraphBuilder};
        let mut b = GraphBuilder::new("t");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "id", 2);
        let graph = b.build().unwrap();
        let codec = crate::engine::Obfuscator::new(&graph).seed(1).obfuscate().unwrap();
        Arc::new(CodecService::with_shards(codec, 1))
    }

    #[test]
    fn registry_dedups_services_and_renders_prometheus() {
        let metrics = Arc::new(Metrics::new());
        Metrics::add(&metrics.messages_in, 3);
        metrics.wake_latency.record(100);
        metrics.frame_bytes_in.record(64);
        metrics.stages.parse.finish(metrics.stages.parse.start());
        metrics.recorder.record(EventKind::Accept, 7, 0);

        let svc = tiny_service();
        let mut telemetry = Telemetry::new(Arc::clone(&metrics));
        telemetry.register_service("down", &svc);
        telemetry.register_service("up", &svc); // same Arc: dropped
        telemetry.register_service("other", &tiny_service());
        assert_eq!(telemetry.services().len(), 2);
        assert_eq!(telemetry.services()[0].0, "down");

        let text = telemetry.render_prometheus();
        assert!(text.contains("protoobf_messages_in_total 3"), "{text}");
        assert!(text.contains("# TYPE protoobf_accepted_total counter"), "{text}");
        assert!(text.contains("protoobf_wake_latency_micros{quantile=\"0.5\"} 127"), "{text}");
        assert!(text.contains("protoobf_wake_latency_micros_count 1"), "{text}");
        assert!(text.contains("protoobf_stage_calls_total{stage=\"parse\"} 1"), "{text}");
        assert!(
            text.contains("protoobf_frame_bytes_bucket{direction=\"in\",le=\"127\"} 1"),
            "{text}"
        );
        assert!(text.contains("protoobf_frame_bytes_sum{direction=\"in\"} 64"), "{text}");
        assert!(text.contains("protoobf_service_shards{service=\"down\"} 1"), "{text}");
        assert!(text.contains("protoobf_flight_events_total 1"), "{text}");
        // First scrape has no interval series; the second does.
        assert!(!text.contains("interval"), "{text}");
        metrics.wake_latency.record(100_000);
        let text2 = telemetry.render_prometheus();
        assert!(
            text2.contains("protoobf_wake_latency_interval_micros{quantile=\"0.5\"} 131071"),
            "only the new sample is in the interval: {text2}"
        );

        let events = telemetry.render_events();
        assert!(events.starts_with("# flight recorder: 1 events"), "{events}");
        assert!(events.contains("accept"), "{events}");

        let summary = telemetry.summary();
        assert!(summary.contains("frames: in"), "{summary}");
        assert!(summary.contains("service down:"), "{summary}");
        assert!(summary.contains("flight recorder: 1 events"), "{summary}");
    }
}
