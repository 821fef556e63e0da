//! One benchmark run: set up the chain, warm it, measure it, replay the
//! seeded messages in memory, score the attack, and collect the metrics.

use std::io::Write;
use std::time::{Duration, Instant};

use protoobf::core::Metrics;

use crate::chain::Chain;
use crate::client::{Client, Phase, PhaseCfg, SLICE};
use crate::inmem::{self, PreScore, Replay, LAYERS};
use crate::layers::{self, SocketLayers};
use crate::trace::{self, quantile, spread, Tracer};
use crate::workload::Kind;
use crate::{MetricDef, END_TO_END, PER_LAYER};

/// Unmeasured round trips before timing starts.
const WARM_UP: Duration = Duration::from_millis(500);
/// Repetitions of the traced set-up breakdown.
const SETUP_REPS: usize = 5;
/// Round trips per pass written to the span file.
const SPAN_FILE_RTS: u64 = 500;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run prints: report lines, then the result line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its value and unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn run(args: Args) -> Result<Outcome, String> {
    let kind = args.kind;
    let text = kind.profile_text();
    let t = Instant::now();
    let chain = Chain::setup(&text)?;
    let first_setup = t.elapsed().as_secs_f64();
    let rss_after_setup = trace::rss_mib();
    let tx = chain.enc.clear_tx_service();
    let rx = chain.enc.clear_rx_service();
    let metrics = Metrics::new();
    let tracer = args.trace.then(Tracer::new);
    let epoch = Instant::now();

    let phases = chain.serve(kind, args.seed, &metrics, tracer.as_ref(), |addr| {
        let mut client =
            Client::new(kind, addr, tx.codec(), rx.codec(), tx.frame_limit(), args.seed);
        client.warm_up(WARM_UP)?;
        let phases = if args.trace {
            // Traced and untraced slices alternate, so that both see the
            // same host phases and their ratio is the tracing overhead.
            let slice = PhaseCfg { seconds: SLICE.as_secs_f64(), interludes: false, tracer: None };
            let (mut untraced, mut traced) = (Phase::default(), Phase::default());
            while (untraced.busy + traced.busy).as_secs_f64() < args.seconds {
                untraced.absorb(client.run(slice, 0));
                traced.absorb(
                    client.run(PhaseCfg { tracer: tracer.as_ref(), ..slice }, traced.last_rt),
                );
            }
            vec![untraced, traced]
        } else {
            vec![client.run(PhaseCfg { seconds: args.seconds, interludes: true, tracer: None }, 0)]
        };
        client.close()?;
        Ok::<_, String>(phases)
    })??;
    let peak_rss = trace::peak_rss_mib();
    let sessions = metrics.snapshot();
    let torn_down = sessions.failed + sessions.accept_errors;

    let replay = inmem::replay(&chain, kind, args.seed, args.trace);
    let pre = replay.attack(kind);

    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum::<u64>() + replay.failed + torn_down;
    let mut report = vec![format!(
        "e2ebench {} seed {} seconds {} trace {}: {} round trips attempted, {} failed \
         ({} chain sessions torn down by errors, {} replay failures)",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        attempted,
        failed,
        torn_down,
        replay.failed
    )];

    let values = if let Some(tr) = &tracer {
        let worker_spans = tr.take();
        let (untraced, traced) = (&phases[0], &phases[1]);
        let socket = layers::socket_layers(&traced.spans, &worker_spans);
        let setup = layers::setup_layers(&text, SETUP_REPS)?;
        write_span_file(kind, args.seed, epoch, traced, &worker_spans, &replay, &mut report);
        let conn_setups: Vec<f64> = worker_spans
            .iter()
            .filter(|s| s.name == "conn.setup")
            .map(|s| s.cpu().as_secs_f64() * 1e6)
            .collect();
        let conn_setup_us = trace::mean(&conn_setups);
        let layer_values = per_layer(
            &setup,
            &socket,
            &replay,
            untraced,
            traced,
            conn_setup_us,
            rss_after_setup,
            &pre,
        );
        layer_report(&socket, &replay, untraced, traced, &mut report);
        layer_values
    } else {
        let phase = &phases[0];
        let mut setup_samples = phase.setup_s.clone();
        setup_samples.push(first_setup);
        let fast = phase.fast_figures();
        let values = vec![
            // The minimum: set-up is fixed work, and host phases only ever
            // slow it down.
            quantile(&setup_samples, 0.0),
            fast.msgs_per_s,
            fast.goodput_mib_s,
            fast.rtt_p50_us,
            fast.cpu_us_per_msg,
            peak_rss,
            replay.obf_bytes as f64 / replay.clear_bytes.max(1) as f64,
            1.0 - pre.score,
        ];
        report.push(format!(
            "fastest slices: {} of {} slices, {} round trips, {:.1} msgs/s, rtt p50 {:.1} us, p90 {:.1} us, \
             p99 {:.1} us, {:.2} cpu us/msg",
            fast.slices,
            phase.slices,
            fast.round_trips,
            fast.msgs_per_s,
            fast.rtt_p50_us,
            fast.rtt_p90_us,
            fast.rtt_p99_us,
            fast.cpu_us_per_msg
        ));
        report.push(format!(
            "whole run: {} round trips, {:.1} msgs/s, {:.2} cpu us/msg; setup {} samples, p10 {:.6} s, median {:.6} s",
            phase.ok,
            phase.msgs_per_s(),
            phase.cpu_us_per_msg(),
            setup_samples.len(),
            quantile(&setup_samples, 0.1),
            quantile(&setup_samples, 0.5),
        ));
        report.push(format!(
            "diagnostic, not gated: host probes integer {:.1} Mit/s (IQR {:.1}%), map {:.1} kkeys/s (IQR {:.1}%) over {} samples",
            quantile(&phase.probe_int, 0.5),
            spread(&phase.probe_int) * 100.0,
            quantile(&phase.probe_alloc, 0.5),
            spread(&phase.probe_alloc) * 100.0,
            phase.probe_int.len()
        ));
        values
    };

    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let finite = values.iter().all(|v| v.is_finite());
    let metrics: Vec<(MetricDef, f64)> = defs.iter().copied().zip(values).collect();
    for (d, v) in &metrics {
        report.push(format!("{:<26} {v:>16.4} {}", d.name, d.unit));
    }
    let ok: u64 = phases.iter().map(|p| p.ok).sum();
    Ok(Outcome { correct: failed == 0 && ok > 0 && finite, attempted, failed, metrics, report })
}

/// Per-layer values in [`PER_LAYER`] order.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    setup: &layers::SetupLayers,
    socket: &SocketLayers,
    replay: &Replay,
    untraced: &Phase,
    traced: &Phase,
    conn_setup_us: f64,
    rss_after_setup: f64,
    pre: &PreScore,
) -> Vec<f64> {
    let rts = replay.round_trips.max(1) as f64;
    let us = |layer: usize| replay.ns[layer] as f64 / rts / 1e3;
    let allocs = |layer: usize| replay.allocs[layer] as f64 / rts;
    let traced_ok = traced.ok.max(1) as f64;
    vec![
        setup.resolve_us,
        setup.obfuscate_us,
        setup.transforms as f64,
        setup.compile_us,
        setup.copyprog_us,
        setup.slots as f64,
        setup.service_us,
        us(0),
        allocs(0),
        us(1),
        allocs(1),
        us(3),
        allocs(3),
        us(4),
        allocs(4),
        us(2),
        us(5),
        allocs(5),
        replay.clear_bytes as f64 / rts,
        replay.obf_bytes as f64 / rts,
        socket.enc_us,
        socket.dec_us,
        socket.server_us,
        socket.drives,
        socket.idle_ratio,
        socket.wakes,
        socket.outside_drive_us,
        traced.ctx_switches as f64 / traced_ok,
        conn_setup_us,
        socket.write_us,
        socket.wait_us,
        rss_after_setup,
        pre.score,
        pre.ari,
        pre.static_fraction,
        pre.random_fraction,
        socket.rtt_p50_us,
        socket.unattributed_us(),
        traced.msgs_per_s(),
        untraced.msgs_per_s(),
        untraced.msgs_per_s() / traced.msgs_per_s(),
    ]
}

/// The traced run's attribution table: socket-pass self times against
/// the traced p50, the in-memory per-call breakdown, and the tracing
/// overhead.
fn layer_report(
    socket: &SocketLayers,
    replay: &Replay,
    untraced: &Phase,
    traced: &Phase,
    report: &mut Vec<String>,
) {
    report.push(format!(
        "socket pass: {} traced round trips, rtt p50 {:.1} us; self CPU time per round trip \
         (round trips between the 40th and 60th rtt percentile):",
        socket.round_trips, socket.rtt_p50_us
    ));
    for (name, us) in [
        ("client.write", socket.write_us),
        ("client.wait (CPU in its reads)", socket.wait_cpu_us),
        ("client.verify", socket.verify_us),
        ("gateway.enc (encode relay drives)", socket.enc_us),
        ("gateway.dec (decode relay drives)", socket.dec_us),
        ("gateway.server (server drives)", socket.server_us),
        ("chain.drive (composite, self)", socket.chain_self_us),
        ("conn.setup (accept-time session set-up)", socket.conn_setup_us),
        ("evloop.outside_drive (between drives)", socket.outside_drive_us),
        ("unattributed (switches, wake-ups, scheduler)", socket.unattributed_us()),
    ] {
        report.push(format!("  {name:<42} {us:>10.2} us"));
    }
    let rts = replay.round_trips.max(1) as f64;
    report.push(format!("in-memory pass: {} round trips; per round trip:", replay.round_trips));
    for (i, name) in LAYERS.iter().enumerate() {
        report.push(format!(
            "  {name:<42} {:>10.2} us {:>8.1} allocs",
            replay.ns[i] as f64 / rts / 1e3,
            replay.allocs[i] as f64 / rts
        ));
    }
    report.push(format!(
        "tracing overhead: untraced {:.1} msgs/s, traced {:.1} msgs/s, ratio {:.3}",
        untraced.msgs_per_s(),
        traced.msgs_per_s(),
        untraced.msgs_per_s() / traced.msgs_per_s()
    ));
}

/// Writes the span file (JSON lines; see README.md) under `e2ebench/out/`.
fn write_span_file(
    kind: Kind,
    seed: u64,
    epoch: Instant,
    traced: &Phase,
    worker: &[trace::Span],
    replay: &Replay,
    report: &mut Vec<String>,
) {
    let path = format!("e2ebench/out/spans-{}-{seed}.jsonl", kind.name());
    let result = std::fs::create_dir_all("e2ebench/out").and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_spans(&mut out, "socket", &traced.spans, epoch, SPAN_FILE_RTS)?;
        trace::write_spans(&mut out, "socket", worker, epoch, SPAN_FILE_RTS)?;
        trace::write_spans(&mut out, "memory", &replay.spans, epoch, SPAN_FILE_RTS)?;
        out.flush()
    });
    report.push(match result {
        Ok(()) => format!("spans written to {path}"),
        Err(e) => format!("spans not written ({path}): {e}"),
    });
}
