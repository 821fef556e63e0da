//! The closed-loop client: one connection open at a time, one request in
//! flight, every reply verified before the next request is sent.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use protoobf::core::framing::append_frame;
use protoobf::core::parse::ParseSession;
use protoobf::core::serialize::SerializeSession;
use protoobf::Codec;

use crate::chain::time_setup;
use crate::probe;
use crate::trace::{self, Span, Stamp, Tracer, MAX_TRACED_RTS};
use crate::workload::{Kind, Source};

/// A measurement slice lasts at least this long and holds at least
/// `SLICE_ROUND_TRIPS` round trips, so that its rate means something on
/// every workload (`bulk-64k` round trips take ~7 ms). Host contention
/// toggles within milliseconds; short slices let the fastest ones catch
/// the uncontended stretches.
pub const SLICE: Duration = Duration::from_millis(50);
const SLICE_ROUND_TRIPS: usize = 32;
/// Set-up samples and host probes are taken after every this many slices,
/// outside the measured time.
const INTERLUDE_EVERY: usize = 5;
/// Share of a run's slices, the ones with the most round trips per
/// second, that the end-to-end figures are taken over. Co-tenants slow
/// the host in phases that can cover most of a run; the fastest slices
/// are what the program does when the host lets it run, and they move
/// with the program, not with the phases. In runs where the host was
/// fast less than a tenth of the time, the fastest tenth still fell
/// 12–19% below the median run; the fastest 2% fell 2–8%.
pub const FAST_SHARE: f64 = 0.02;
/// Fewest slices the figures are taken over: `bulk-64k` runs only ~125
/// slices of ~0.25 s, and 2% of them would be 3.
const FAST_MIN_SLICES: usize = 5;
/// Round-trip times one slice's buffer holds before it has to grow: ~3x
/// the most a 50 ms slice held on the reference host.
const SLICE_SAMPLES: usize = 4 * 1024;

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Verified round trips.
    pub ok: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Clear application bytes (request plus reply bodies) of verified
    /// round trips.
    pub clear_bytes: u64,
    /// Time inside measurement slices.
    pub busy: Duration,
    /// Process CPU time inside measurement slices.
    pub cpu: Duration,
    pub slices: usize,
    pub setup_s: Vec<f64>,
    pub probe_int: Vec<f64>,
    pub probe_alloc: Vec<f64>,
    /// Client-side spans (traced phases only).
    pub spans: Vec<Span>,
    /// Last round trip id handed to the tracer.
    pub last_rt: u64,
    /// Context switches of the whole process during the phase (traced
    /// phases only).
    pub ctx_switches: u64,
    /// The fastest slices so far, fastest first, with their round-trip
    /// times: at most `keep` of them, the most the fastest share of a
    /// whole phase can hold.
    fastest: Vec<Slice>,
    keep: usize,
    /// Round-trip time buffers for the next slices.
    spare: Vec<Vec<f32>>,
    /// Round-trip times (µs) of the slice in progress.
    current: Vec<f32>,
}

impl Phase {
    pub fn msgs_per_s(&self) -> f64 {
        self.ok as f64 / self.busy.as_secs_f64()
    }

    pub fn cpu_us_per_msg(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.ok.max(1) as f64
    }

    /// Adds a later phase's counts, samples and spans to this one.
    pub fn absorb(&mut self, later: Phase) {
        self.ok += later.ok;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.clear_bytes += later.clear_bytes;
        self.busy += later.busy;
        self.cpu += later.cpu;
        self.slices += later.slices;
        self.setup_s.extend(later.setup_s);
        self.probe_int.extend(later.probe_int);
        self.probe_alloc.extend(later.probe_alloc);
        self.spans.extend(later.spans);
        self.last_rt = self.last_rt.max(later.last_rt);
        self.ctx_switches += later.ctx_switches;
    }

    /// A phase of `seconds` of slices. A slice lasts at least [`SLICE`],
    /// so the phase holds at most `ceil(seconds / SLICE)` of them, and its
    /// fastest [`FAST_SHARE`] at most `keep`. Keeping the `keep` fastest so
    /// far, evicting only the slowest, leaves the exact fastest share
    /// among them at the end, whatever order the fast slices came in.
    ///
    /// `peak_rss_mib` counts the benchmark's own memory too, so the
    /// round-trip times live in `keep + 1` buffers of a fixed size,
    /// allocated and written here and recycled: the memory they hold
    /// depends on the run's length, not on its throughput.
    fn new(first_rt: u64, seconds: f64) -> Phase {
        let keep = fast_count((seconds / SLICE.as_secs_f64()).ceil() as usize);
        Phase {
            last_rt: first_rt,
            keep,
            spare: (0..keep).map(|_| sample_buffer()).collect(),
            current: sample_buffer(),
            ..Phase::default()
        }
    }

    /// Ends the slice in progress.
    fn close_slice(&mut self, clear_bytes: u64, busy: Duration, cpu: Duration) {
        self.slices += 1;
        let rtts_us = std::mem::take(&mut self.current);
        self.fastest.push(Slice { rtts_us, clear_bytes, busy, cpu });
        self.fastest.sort_by(|a, b| b.msgs_per_s().total_cmp(&a.msgs_per_s()));
        if self.fastest.len() > self.keep {
            let slowest = self.fastest.pop().expect("more slices than kept");
            self.spare.push(slowest.rtts_us);
        }
        let mut next = self.spare.pop().unwrap_or_else(sample_buffer);
        next.clear();
        self.current = next;
        self.busy += busy;
        self.cpu += cpu;
    }

    /// The end-to-end figures of the fastest [`FAST_SHARE`] of the
    /// slices, over their pooled round trips.
    pub fn fast_figures(&self) -> Figures {
        let fast = &self.fastest[..fast_count(self.slices).min(self.fastest.len())];
        let rtts: Vec<f64> =
            fast.iter().flat_map(|s| s.rtts_us.iter().map(|&t| f64::from(t))).collect();
        let busy: f64 = fast.iter().map(|s| s.busy.as_secs_f64()).sum();
        let bytes: u64 = fast.iter().map(|s| s.clear_bytes).sum();
        Figures {
            slices: fast.len(),
            round_trips: rtts.len(),
            msgs_per_s: rtts.len() as f64 / busy,
            goodput_mib_s: bytes as f64 / busy / f64::from(1 << 20),
            rtt_p50_us: trace::quantile(&rtts, 0.5),
            rtt_p90_us: trace::quantile(&rtts, 0.9),
            rtt_p99_us: trace::quantile(&rtts, 0.99),
            cpu_us_per_msg: fast.iter().map(|s| s.cpu.as_secs_f64()).sum::<f64>() * 1e6
                / rtts.len().max(1) as f64,
        }
    }
}

/// The number of slices in the fastest [`FAST_SHARE`] of `slices`, at
/// least [`FAST_MIN_SLICES`].
fn fast_count(slices: usize) -> usize {
    ((slices as f64 * FAST_SHARE).ceil() as usize).max(FAST_MIN_SLICES)
}

/// An empty round-trip time buffer whose memory is already resident.
fn sample_buffer() -> Vec<f32> {
    let mut buffer = vec![1.0; SLICE_SAMPLES];
    buffer.clear();
    buffer
}

/// One measurement slice.
#[derive(Debug)]
struct Slice {
    rtts_us: Vec<f32>,
    clear_bytes: u64,
    busy: Duration,
    cpu: Duration,
}

impl Slice {
    fn msgs_per_s(&self) -> f64 {
        self.rtts_us.len() as f64 / self.busy.as_secs_f64()
    }
}

/// End-to-end figures of a set of slices.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub slices: usize,
    pub round_trips: usize,
    pub msgs_per_s: f64,
    pub goodput_mib_s: f64,
    pub rtt_p50_us: f64,
    pub rtt_p90_us: f64,
    pub rtt_p99_us: f64,
    pub cpu_us_per_msg: f64,
}

/// How one phase interleaves its diagnostics and whether it is traced.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCfg<'t> {
    pub seconds: f64,
    /// Take set-up samples and host probes between slices.
    pub interludes: bool,
    pub tracer: Option<&'t Tracer>,
}

#[derive(Debug)]
pub struct Client<'c> {
    kind: Kind,
    profile: String,
    addr: SocketAddr,
    source: Source<'c>,
    serializer: SerializeSession<'c>,
    verifier: ParseSession<'c>,
    max_frame: usize,
    stream: Option<TcpStream>,
    frame: Vec<u8>,
    reply: Vec<u8>,
    chunk: Vec<u8>,
}

/// Timestamps of one round trip (on the CPU clock too when traced).
struct RoundTrip {
    start: Stamp,
    written: Stamp,
    received: Stamp,
    verified: Stamp,
    ok: bool,
}

impl<'c> Client<'c> {
    /// A client speaking the clear grammars: requests of `tx`, replies of
    /// `rx`.
    pub fn new(
        kind: Kind,
        addr: SocketAddr,
        tx: &'c Codec,
        rx: &'c Codec,
        max_frame: usize,
        seed: u64,
    ) -> Client<'c> {
        Client {
            kind,
            profile: kind.profile_text(),
            addr,
            source: Source::new(kind, tx, seed),
            serializer: tx.serializer(),
            verifier: rx.parser(),
            max_frame,
            stream: None,
            frame: Vec::new(),
            reply: Vec::new(),
            chunk: vec![0u8; 64 * 1024],
        }
    }

    /// Round trips for `duration`, unmeasured, so that caches, pools and
    /// lazy set-up are warm before timing.
    pub fn warm_up(&mut self, duration: Duration) -> Result<(), String> {
        let t = Instant::now();
        let mut n = 0;
        while t.elapsed() < duration || n < 20 {
            if !self.round_trip(false)?.ok {
                return Err("warm-up round trip failed verification".into());
            }
            n += 1;
        }
        Ok(())
    }

    /// One timed phase of `cfg.seconds` of measurement slices.
    pub fn run(&mut self, cfg: PhaseCfg<'_>, first_rt: u64) -> Phase {
        let mut phase = Phase::new(first_rt, cfg.seconds);
        // A traced phase of a persistent workload opens its connection
        // afresh, so that the connection lifecycle is traced on every
        // workload, not only on the one that churns connections.
        if cfg.tracer.is_some() && self.kind.persistent() && self.close().is_err() {
            phase.failed += 1;
        }
        let ctx = cfg.tracer.map(|_| trace::ctx_switches());
        while phase.busy.as_secs_f64() < cfg.seconds {
            let bytes0 = phase.clear_bytes;
            let cpu0 = trace::cpu_time();
            let start = Instant::now();
            while start.elapsed() < SLICE || phase.current.len() < SLICE_ROUND_TRIPS {
                self.timed_round_trip(&mut phase, cfg.tracer);
                // A chain that keeps failing would spin here for the whole
                // run; give up and report it.
                if phase.failed > 100 && phase.failed > phase.ok {
                    phase.busy += start.elapsed();
                    return phase;
                }
            }
            let cpu = trace::cpu_time().saturating_sub(cpu0);
            phase.close_slice(phase.clear_bytes - bytes0, start.elapsed(), cpu);
            if cfg.interludes && phase.slices.is_multiple_of(INTERLUDE_EVERY) {
                phase.probe_int.push(probe::integer_rate());
                phase.probe_alloc.push(probe::alloc_rate());
                match time_setup(&self.profile) {
                    Ok(d) => phase.setup_s.push(d.as_secs_f64()),
                    Err(_) => phase.failed += 1,
                }
            }
        }
        if let Some(tr) = cfg.tracer {
            tr.set_current(0);
        }
        if let Some(ctx) = ctx {
            phase.ctx_switches = trace::ctx_switches().saturating_sub(ctx);
        }
        phase
    }

    fn timed_round_trip(&mut self, phase: &mut Phase, tracer: Option<&Tracer>) {
        let rt = phase.last_rt + 1;
        let traced = tracer.is_some() && rt <= MAX_TRACED_RTS;
        if let (true, Some(tr)) = (traced, tracer) {
            tr.set_current(rt);
            phase.last_rt = rt;
        }
        phase.attempted += 1;
        let r = match self.round_trip(traced) {
            Ok(r) if r.ok => r,
            _ => {
                phase.failed += 1;
                return;
            }
        };
        phase.ok += 1;
        phase.current.push((r.verified.at.duration_since(r.start.at).as_secs_f64() * 1e6) as f32);
        phase.clear_bytes += (self.frame.len() - 4 + self.reply.len() - 4) as u64;
        if traced {
            let span = |name, start, end| Span { rt, name, parent: "rtt", note: "", start, end };
            phase.spans.extend([
                Span { parent: "", ..span("rtt", r.start, r.verified) },
                span("client.write", r.start, r.written),
                span("client.wait", r.written, r.received),
                span("client.verify", r.received, r.verified),
            ]);
        }
    }

    /// Sends the next request and reads and verifies its reply. Errors
    /// are I/O failures; a reply that fails verification returns
    /// `ok: false`.
    fn round_trip(&mut self, traced: bool) -> Result<RoundTrip, String> {
        if self.source.builds_per_request() || self.frame.is_empty() {
            self.frame.clear();
            let request = self.source.request();
            append_frame(&mut self.serializer, request, &mut self.frame, self.max_frame)
                .map_err(|e| e.to_string())?;
        }
        let result = self.exchange(traced);
        if result.is_err() {
            // The chain dropped the connection; the next round trip
            // reconnects.
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, traced: bool) -> Result<RoundTrip, String> {
        // The CPU clock costs a system call; only traced round trips read it.
        let stamp = || if traced { Stamp::now() } else { Stamp::wall(Instant::now()) };
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let start = stamp();
        stream.write_all(&self.frame).map_err(|e| e.to_string())?;
        let written = stamp();
        read_frame(stream, &mut self.reply, &mut self.chunk)?;
        let received = stamp();
        let body = &self.reply[4..];
        let ok = if self.kind == Kind::Bulk64k {
            body == &self.frame[4..]
        } else {
            self.verifier.parse_in_place(body).is_ok()
        };
        let verified = stamp();
        if !self.kind.persistent() {
            self.close()?;
        }
        Ok(RoundTrip { start, written, received, verified, ok })
    }

    /// Closes the connection cleanly: half-close, then drain to EOF, so
    /// that the chain's sessions end `Done` rather than failed.
    pub fn close(&mut self) -> Result<(), String> {
        let Some(mut stream) = self.stream.take() else { return Ok(()) };
        stream.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
        match stream.read(&mut self.chunk) {
            Ok(0) => Ok(()),
            Ok(_) => Err("unexpected bytes after the last reply".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Reads one length-prefixed frame into `out` (prefix included).
fn read_frame(stream: &mut TcpStream, out: &mut Vec<u8>, chunk: &mut [u8]) -> Result<(), String> {
    out.clear();
    loop {
        if out.len() >= 4 {
            let len = u32::from_be_bytes([out[0], out[1], out[2], out[3]]) as usize;
            if out.len() == 4 + len {
                return Ok(());
            }
            if out.len() > 4 + len {
                return Err("reply longer than its frame".into());
            }
        }
        match stream.read(chunk) {
            Ok(0) => return Err("connection closed before the reply".into()),
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}
