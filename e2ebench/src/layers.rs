//! Per-layer breakdowns for the traced run: set-up split into its layers'
//! public calls, and the socket pass's spans reduced to self times per
//! round trip.

use std::time::{Duration, Instant};

use protoobf::core::Codec;
use protoobf::{CodecService, Obfuscator, Profile, SpecResolver, StdResolver};

use crate::trace::{quantile, Span};

/// Set-up layer times (µs, both derivations together) and sizes.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupLayers {
    pub resolve_us: f64,
    pub obfuscate_us: f64,
    pub compile_us: f64,
    pub service_us: f64,
    pub copyprog_us: f64,
    /// Transformations applied and plan slots, per derivation.
    pub transforms: usize,
    pub slots: usize,
}

/// Times set-up layer by layer, repeating it `reps` times and keeping each
/// layer's median. The calls are the ones `Profile::build` and the relay
/// pairings make, issued one layer at a time.
pub fn setup_layers(profile_text: &str, reps: usize) -> Result<SetupLayers, String> {
    let mut samples: Vec<SetupLayers> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut s = SetupLayers::default();
        for _gateway in 0..2 {
            derive_once(profile_text, &mut s)?;
        }
        samples.push(s);
    }
    let med =
        |f: fn(&SetupLayers) -> f64| quantile(&samples.iter().map(f).collect::<Vec<_>>(), 0.5);
    Ok(SetupLayers {
        resolve_us: med(|s| s.resolve_us),
        obfuscate_us: med(|s| s.obfuscate_us),
        compile_us: med(|s| s.compile_us),
        service_us: med(|s| s.service_us),
        copyprog_us: med(|s| s.copyprog_us),
        transforms: samples[0].transforms,
        slots: samples[0].slots,
    })
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One gateway's derivation, adding each layer's time into `s`.
fn derive_once(profile_text: &str, s: &mut SetupLayers) -> Result<(), String> {
    let profile = Profile::parse(profile_text).map_err(|e| e.to_string())?;
    let mut sources = vec![profile.tx()];
    if !profile.is_symmetric() {
        sources.push(profile.rx());
    }

    let t = Instant::now();
    let graphs =
        sources.iter().map(|src| StdResolver.resolve(src)).collect::<Result<Vec<_>, _>>()?;
    s.resolve_us += micros(t);

    let t = Instant::now();
    let obf = graphs
        .iter()
        .map(|g| Obfuscator::new(g).config(profile.obf()).obfuscate())
        .collect::<Result<Vec<Codec>, _>>()
        .map_err(|e| e.to_string())?;
    s.obfuscate_us += micros(t);
    s.transforms = obf.iter().map(Codec::transform_count).sum();

    let clear: Vec<Codec> = graphs.iter().map(Codec::identity).collect();
    let t = Instant::now();
    for codec in obf.iter().chain(&clear) {
        codec.plan();
    }
    s.compile_us += micros(t);
    s.slots = obf.iter().map(|c| c.plan().slots()).sum();

    let t = Instant::now();
    let max_frame = profile.tuning().max_frame;
    let obf: Vec<CodecService> =
        obf.into_iter().map(|c| CodecService::new(c).max_frame(max_frame)).collect();
    let clear: Vec<CodecService> =
        clear.into_iter().map(|c| CodecService::new(c).max_frame(max_frame)).collect();
    s.service_us += micros(t);

    // A gateway arms two relay pairings: requests clear → obfuscated and
    // replies obfuscated → clear (the decode gateway mirrors both).
    let (obf_tx, obf_rx) = (&obf[0], obf.last().expect("one codec per direction"));
    let (clear_tx, clear_rx) = (&clear[0], clear.last().expect("one codec per direction"));
    let t = Instant::now();
    obf_tx.transcode_target(clear_tx).map_err(|e| e.to_string())?;
    clear_rx.transcode_target(obf_rx).map_err(|e| e.to_string())?;
    s.copyprog_us += micros(t);
    Ok(())
}

/// Socket-pass layers: self times per round trip, averaged over the
/// round trips around the median.
///
/// The benchmark runs on one CPU, so a wall-clock span of one thread also
/// holds whatever the other thread ran meanwhile (a relay's drive that
/// writes the reply to the client is preempted by the client). Self times
/// are therefore CPU times of the thread that recorded the span, and the
/// time no thread spent in a span, against the traced `rtt_p50_us`, is
/// the `unattributed` remainder: context switches, wake-ups and the
/// scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct SocketLayers {
    pub round_trips: usize,
    pub rtt_p50_us: f64,
    pub write_us: f64,
    /// Wall time from the write to the whole reply.
    pub wait_us: f64,
    /// Client CPU time inside that wait (its reads).
    pub wait_cpu_us: f64,
    pub verify_us: f64,
    /// Composite drive time not spent in the three inner sessions.
    pub chain_self_us: f64,
    pub enc_us: f64,
    pub dec_us: f64,
    pub server_us: f64,
    /// Accept-time session set-up (hop dials, relay and server
    /// construction) that ran while the client waited.
    pub conn_setup_us: f64,
    /// Inner session drives, and the share of them that found no work.
    pub drives: f64,
    pub idle_ratio: f64,
    /// Composite drives that followed an idle one: the worker had gone
    /// back to the event loop and was woken by readiness.
    pub wakes: f64,
    /// Worker CPU time between the round trip's first and last drive not
    /// spent inside a drive or a session set-up: the event loop's own
    /// work.
    pub outside_drive_us: f64,
}

impl SocketLayers {
    /// The traced p50 minus every spanned layer's self time.
    pub fn unattributed_us(&self) -> f64 {
        self.rtt_p50_us
            - (self.write_us
                + self.wait_cpu_us
                + self.verify_us
                + self.chain_self_us
                + self.enc_us
                + self.dec_us
                + self.server_us
                + self.conn_setup_us
                + self.outside_drive_us)
    }
}

/// One round trip's spans, reduced.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    /// The client's wait, on the wall clock.
    wait: Option<(Instant, Instant)>,
    rtt: Duration,
    write: Duration,
    wait_cpu: Duration,
    verify: Duration,
    chain: Duration,
    parts: [Duration; 3],
    conn_setup: Duration,
    /// Worker CPU clock at the first drive or set-up start and at the
    /// last end inside the wait.
    first: Option<u64>,
    last: Option<u64>,
    drives: u32,
    idle: u32,
    wakes: u32,
}

impl Acc {
    /// Whether `s` started while the client waited for this round trip's
    /// reply. Drives outside the wait (connection set-up and teardown,
    /// a trailing idle pass) are not part of the round trip.
    fn in_wait(&self, s: &Span) -> bool {
        self.wait.is_some_and(|(w0, w1)| s.start.at >= w0 && s.start.at < w1)
    }
}

/// Quantile band of round trips the attribution averages over.
const BAND: (f64, f64) = (0.4, 0.6);

/// Reduces the client's and the worker's spans of a traced socket pass.
pub fn socket_layers(client: &[Span], worker: &[Span]) -> SocketLayers {
    let max_rt = client.iter().map(|s| s.rt).max().unwrap_or(0) as usize;
    let mut acc = vec![Acc::default(); max_rt + 1];
    for s in client {
        let a = &mut acc[s.rt as usize];
        match s.name {
            "rtt" => a.rtt = s.wall(),
            "client.write" => a.write = s.cpu(),
            "client.wait" => {
                a.wait = Some((s.start.at, s.end.at));
                a.wait_cpu = s.cpu();
            }
            "client.verify" => a.verify = s.cpu(),
            _ => {}
        }
    }
    // Inner drives nest in their composite drive, so both pass the same
    // wait test.
    for s in worker.iter().filter(|s| (s.rt as usize) <= max_rt) {
        let a = &mut acc[s.rt as usize];
        if !a.in_wait(s) {
            continue;
        }
        if let Some(p) =
            ["gateway.enc", "gateway.dec", "gateway.server"].iter().position(|p| *p == s.name)
        {
            a.parts[p] += s.cpu();
            a.drives += 1;
            a.idle += u32::from(s.note == "idle");
            continue;
        }
        match s.name {
            "conn.setup" => a.conn_setup += s.cpu(),
            "chain.drive" => {
                a.chain += s.cpu();
                a.wakes += u32::from(s.note == "wake");
            }
            _ => continue,
        }
        a.first = Some(a.first.map_or(s.start.cpu_ns, |f| f.min(s.start.cpu_ns)));
        a.last = Some(a.last.map_or(s.end.cpu_ns, |l| l.max(s.end.cpu_ns)));
    }
    let all: Vec<&Acc> = acc.iter().filter(|a| a.wait.is_some()).collect();
    let rtts: Vec<f64> = all.iter().map(|a| a.rtt.as_secs_f64() * 1e6).collect();
    let (lo, hi) = (quantile(&rtts, BAND.0), quantile(&rtts, BAND.1));
    let band: Vec<&Acc> =
        all.iter().copied().filter(|a| (lo..=hi).contains(&(a.rtt.as_secs_f64() * 1e6))).collect();
    let n = band.len().max(1) as f64;
    let us = |f: &dyn Fn(&Acc) -> Duration| {
        band.iter().map(|a| f(a).as_secs_f64()).sum::<f64>() / n * 1e6
    };
    let drives: u32 = band.iter().map(|a| a.drives).sum();
    let idle: u32 = band.iter().map(|a| a.idle).sum();
    SocketLayers {
        round_trips: all.len(),
        rtt_p50_us: quantile(&rtts, 0.5),
        write_us: us(&|a| a.write),
        wait_us: us(&|a| a.wait.map_or(Duration::ZERO, |(s, e)| e.saturating_duration_since(s))),
        wait_cpu_us: us(&|a| a.wait_cpu),
        verify_us: us(&|a| a.verify),
        chain_self_us: us(&|a| a.chain.saturating_sub(a.parts.iter().sum())),
        enc_us: us(&|a| a.parts[0]),
        dec_us: us(&|a| a.parts[1]),
        server_us: us(&|a| a.parts[2]),
        conn_setup_us: us(&|a| a.conn_setup),
        drives: f64::from(drives) / n,
        idle_ratio: if drives == 0 { 0.0 } else { f64::from(idle) / f64::from(drives) },
        wakes: band.iter().map(|a| f64::from(a.wakes)).sum::<f64>() / n,
        outside_drive_us: us(&|a| match (a.first, a.last) {
            (Some(f), Some(l)) => {
                Duration::from_nanos(l.saturating_sub(f)).saturating_sub(a.chain + a.conn_setup)
            }
            _ => Duration::ZERO,
        }),
    }
}
