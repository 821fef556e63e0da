//! Criterion microbenchmarks of the cost metrics (paper Tables III/IV,
//! Figures 4/5): per-message serialization and parsing time at obfuscation
//! levels 0–4 for the evaluated protocols, with bytes/second throughput
//! reporting.
//!
//! Each protocol × level is measured on three paths:
//!
//! * `*-session` — reusable plan sessions
//!   ([`Codec::serializer`]/[`Codec::parser`]): the steady-state hot path;
//! * `*-oneshot` — the compat entry points `Codec::serialize`/`parse`
//!   (cached plan, fresh session per call);
//! * `*-walk` — the reference graph-walk interpreters the plan layer
//!   replaced (`core::serialize::serialize_seeded` / `core::parse::parse`).
//!
//! The `large` group drives a ≥64 KiB deeply repeated message so
//! plan-layer wins are measurable across message sizes, not just on the
//! small protocol PDUs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use protoobf_core::graph::{AutoValue, Boundary, GraphBuilder};
use protoobf_core::telemetry::Metrics;
use protoobf_core::value::TerminalKind;
use protoobf_core::{parse as parse_mod, serialize as serialize_mod};
use protoobf_core::{Codec, CodecService, FormatGraph, Message, Obfuscator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn codec_for(graph: &FormatGraph, level: u32) -> Codec {
    if level == 0 {
        Codec::identity(graph)
    } else {
        Obfuscator::new(graph).seed(42).max_per_node(level).obfuscate().unwrap()
    }
}

/// Benchmarks all three serialize paths and all three parse paths for one
/// prepared message.
fn bench_paths(
    group: &mut criterion::BenchmarkGroup<'_>,
    level: u32,
    codec: &Codec,
    msg: &Message<'_>,
) {
    let wire = codec.serialize_seeded(msg, 1).unwrap();
    group.throughput(Throughput::Bytes(wire.len() as u64));

    let mut session = codec.serializer();
    let mut out = Vec::new();
    group.bench_with_input(BenchmarkId::new("serialize-session", level), &level, |b, _| {
        b.iter(|| session.serialize_into_seeded(msg, &mut out, 1).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("serialize-oneshot", level), &level, |b, _| {
        b.iter(|| codec.serialize_seeded(msg, 1).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("serialize-walk", level), &level, |b, _| {
        b.iter(|| serialize_mod::serialize_seeded(codec.obf_graph(), msg, 1).unwrap())
    });

    let mut parser = codec.parser();
    group.bench_with_input(BenchmarkId::new("parse-session", level), &level, |b, _| {
        b.iter(|| {
            parser.parse_in_place(&wire).unwrap();
        })
    });
    group.bench_with_input(BenchmarkId::new("parse-oneshot", level), &level, |b, _| {
        b.iter(|| codec.parse(&wire).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("parse-walk", level), &level, |b, _| {
        b.iter(|| parse_mod::parse(codec.obf_graph(), &wire).unwrap())
    });
}

fn bench_modbus(c: &mut Criterion) {
    use protoobf_protocols::modbus;
    let graph = modbus::request_graph();
    let mut group = c.benchmark_group("modbus");
    for level in [0u32, 1, 2, 4] {
        let codec = codec_for(&graph, level);
        let mut rng = StdRng::seed_from_u64(7);
        let msg = modbus::build_request(&codec, modbus::Function::WriteMultipleRegisters, &mut rng);
        bench_paths(&mut group, level, &codec, &msg);
    }
    group.finish();
}

fn bench_http(c: &mut Criterion) {
    use protoobf_protocols::http;
    let graph = http::request_graph();
    let mut group = c.benchmark_group("http");
    for level in [0u32, 1, 2, 4] {
        let codec = codec_for(&graph, level);
        let mut rng = StdRng::seed_from_u64(7);
        let msg = http::build_request(&codec, &mut rng);
        bench_paths(&mut group, level, &codec, &msg);
    }
    group.finish();
}

fn bench_dns(c: &mut Criterion) {
    use protoobf_protocols::dns;
    let graph = dns::response_graph();
    let mut group = c.benchmark_group("dns");
    for level in [0u32, 1, 2, 4] {
        let codec = codec_for(&graph, level);
        let mut rng = StdRng::seed_from_u64(7);
        let msg = dns::build_response(&codec, &mut rng);
        bench_paths(&mut group, level, &codec, &msg);
    }
    group.finish();
}

/// A bulk-transfer style spec: a counted table of 30-byte records nested
/// one level deep, plus a rest-of-message payload. At 2048 records the
/// wire is ≥64 KiB.
fn bulk_graph() -> FormatGraph {
    let mut b = GraphBuilder::new("bulk");
    let root = b.root_sequence("m", Boundary::End);
    let count = b.uint_be(root, "count", 2);
    let tab = b.tabular(root, "records", count);
    b.set_auto(count, AutoValue::CounterOf(tab));
    let rec = b.sequence(tab, "record", Boundary::Delegated);
    b.uint_be(rec, "key", 4);
    b.uint_be(rec, "flags", 2);
    b.terminal(rec, "payload", TerminalKind::Bytes, Boundary::Fixed(24));
    b.terminal(root, "tail", TerminalKind::Bytes, Boundary::End);
    b.build().unwrap()
}

/// The ≥64 KiB bulk message used by the `large` and `service` groups.
fn bulk_message(codec: &Codec) -> Message<'_> {
    let mut msg = codec.message_seeded(3);
    let mut rng = StdRng::seed_from_u64(5);
    for i in 0..2048u64 {
        msg.set_uint(&format!("records[{i}].key"), i).unwrap();
        msg.set_uint(&format!("records[{i}].flags"), i & 0xFFFF).unwrap();
        let payload: Vec<u8> = (0..24).map(|_| rand::Rng::gen::<u8>(&mut rng)).collect();
        msg.set(&format!("records[{i}].payload"), payload).unwrap();
    }
    msg.set("tail", vec![0xAB; 4096]).unwrap();
    msg
}

fn bench_large(c: &mut Criterion) {
    let graph = bulk_graph();
    let mut group = c.benchmark_group("large");
    group.sample_size(10);
    for level in [0u32, 2] {
        let codec = codec_for(&graph, level);
        let msg = bulk_message(&codec);
        let wire = codec.serialize_seeded(&msg, 1).unwrap();
        assert!(wire.len() >= 64 * 1024, "large scenario must be ≥64 KiB, got {}", wire.len());
        bench_paths(&mut group, level, &codec, &msg);
    }
    group.finish();
}

/// Multi-threaded service scenario: W workers share one [`CodecService`]
/// (one compiled plan, pooled sessions) and round-trip the 64 KiB bulk
/// message. The reported bytes/sec is the **aggregate** round-trip
/// throughput (each message is serialized and parsed once); near-linear
/// growth from 1 → 4 workers on a multi-core host demonstrates that the
/// shared plan does not serialize the hot path (each worker checks its
/// sessions out once, so the pool lock is off the per-message path).
fn bench_service(c: &mut Criterion) {
    const PER_WORKER: u64 = 4;
    let graph = bulk_graph();
    let service = CodecService::new(codec_for(&graph, 2));
    let msg = bulk_message(service.codec());
    let wire = service.codec().serialize_seeded(&msg, 1).unwrap();
    {
        let mut group = c.benchmark_group("service");
        group.sample_size(10);
        for workers in [1usize, 2, 4, 8] {
            group.throughput(Throughput::Bytes(wire.len() as u64 * workers as u64 * PER_WORKER));
            group.bench_with_input(
                BenchmarkId::new("roundtrip-64KiB", workers),
                &workers,
                |b, &w| {
                    b.iter(|| {
                        std::thread::scope(|scope| {
                            for _ in 0..w {
                                scope.spawn(|| {
                                    let mut serializer = service.serializer();
                                    let mut parser = service.parser();
                                    let mut out = Vec::new();
                                    for _ in 0..PER_WORKER {
                                        serializer
                                            .serialize_into_seeded(&msg, &mut out, 1)
                                            .unwrap();
                                        parser.parse_in_place(&out).unwrap();
                                    }
                                });
                            }
                        })
                    })
                },
            );
        }

        // The same 8-worker round trip with the full telemetry plane
        // wired in exactly as the transport relay wires it: stage
        // timers, frame-shape histograms and message counters per
        // message. Benched next to the plain run so the overhead guard
        // below compares medians from the *same* host and load.
        let metrics = Metrics::new();
        group.throughput(Throughput::Bytes(wire.len() as u64 * 8 * PER_WORKER));
        group.bench_with_input(
            BenchmarkId::new("roundtrip-64KiB-telemetry", 8),
            &8usize,
            |b, &w| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..w {
                            scope.spawn(|| {
                                let mut serializer = service.serializer();
                                let mut parser = service.parser();
                                let mut out = Vec::new();
                                for _ in 0..PER_WORKER {
                                    let serialize_t = metrics.stages.serialize.start();
                                    serializer.serialize_into_seeded(&msg, &mut out, 1).unwrap();
                                    metrics.stages.serialize.finish(serialize_t);
                                    metrics.frame_bytes_out.record(out.len() as u64);
                                    Metrics::add(&metrics.messages_out, 1);
                                    let parse_t = metrics.stages.parse.start();
                                    parser.parse_in_place(&out).unwrap();
                                    metrics.stages.parse.finish(parse_t);
                                    metrics.frame_bytes_in.record(out.len() as u64);
                                    Metrics::add(&metrics.messages_in, 1);
                                }
                            });
                        }
                    })
                })
            },
        );
        group.finish();
    }
    // Telemetry-overhead guard: the instrumented 8-worker run must stay
    // within noise of the plain one (relaxed atomics and 1-in-32
    // sampled timers on 64 KiB messages are sub-percent work; 1.5x is a
    // generous noise floor for a loaded CI host). A regression here
    // means instrumentation crept onto the hot path — a lock, an
    // allocation, an unsampled syscall.
    let median = |suffix: &str| {
        c.results().iter().find(|r| r.name.contains(suffix)).map(|r| r.stats.median_ns)
    };
    if let (Some(plain), Some(instrumented)) =
        (median("roundtrip-64KiB/8"), median("roundtrip-64KiB-telemetry/8"))
    {
        let ratio = instrumented / plain.max(f64::MIN_POSITIVE);
        eprintln!("telemetry overhead on the 8-worker service roundtrip: {ratio:.2}x");
        assert!(
            ratio < 1.5,
            "telemetry instrumentation must be within noise of the plain hot path \
             (plain {plain:.0} ns vs instrumented {instrumented:.0} ns, ratio {ratio:.2}x)"
        );
    }
    // Trajectory file for cross-run comparison of the serving layer
    // (min/median/max + aggregate throughput per worker count).
    export_trajectory(c, "service");
}

/// The level-2 derivation e2ebench runs: its shared secret, stretched
/// the way a profile stretches it.
fn e2ebench_codec(graph: &FormatGraph) -> Codec {
    Obfuscator::new(graph).key("e2ebench shared secret").max_per_node(2).obfuscate().unwrap()
}

/// Gateway relay scenario: the per-message transcode step on the 64 KiB
/// bulk message — compiled copy program vs. the graph-walk reference it
/// replaced — plus the **aggregate gateway round trip** (decode the
/// clear frame, transcode, encode obfuscated; then the decode gateway's
/// inverse back to clear), which is exactly the per-message work a
/// `Relay` pair performs. Throughput is bytes of relayed payload per
/// second; the round trip counts the payload once per gateway. The
/// `serialize-session`/`parse-session` rows time the clear codec's two
/// directions on the same message, and the group asserts that
/// serializing costs at most twice as much as parsing. The
/// `*/e2ebench-l2` rows repeat the transcode and obfuscated session steps
/// on the benchmark's own derivation, and the group asserts that each
/// obfuscated session row costs at most twice its clear row. The
/// `modbus-*` rows time one small request at levels 0 and 2.
fn bench_relay(c: &mut Criterion) {
    let graph = bulk_graph();
    let clear = Codec::identity(&graph);
    let obf = codec_for(&graph, 2);
    let msg = bulk_message(&clear);
    let clear_wire = clear.serialize_seeded(&msg, 1).unwrap();
    assert!(clear_wire.len() >= 64 * 1024, "bulk scenario must be ≥64 KiB");
    {
        let mut group = c.benchmark_group("relay");
        group.sample_size(10);
        group.throughput(Throughput::Bytes(clear_wire.len() as u64));

        // The relay transcodes *parsed* messages; bench against one.
        let mut parser = clear.parser();
        parser.parse_in_place(&clear_wire).unwrap();
        let src = parser.take_message();

        let mut compiled_dst = obf.transcode_target(&clear).unwrap();
        group.bench_with_input(BenchmarkId::new("transcode-compiled", "64KiB"), &0u32, |b, _| {
            b.iter(|| src.transcode_into(&mut compiled_dst).unwrap())
        });
        let mut walk_dst = obf.message();
        group.bench_with_input(BenchmarkId::new("transcode-walk", "64KiB"), &0u32, |b, _| {
            b.iter(|| src.transcode_into_walk(&mut walk_dst).unwrap())
        });

        let mut serializer = clear.serializer();
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("serialize-session", "64KiB"), &0u32, |b, _| {
            b.iter(|| serializer.serialize_into_seeded(&msg, &mut out, 1).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("parse-session", "64KiB"), &0u32, |b, _| {
            b.iter(|| {
                parser.parse_in_place(&clear_wire).unwrap();
            })
        });

        // Full gateway pair: encode side (clear in → obf out) and decode
        // side (obf in → clear out), all sessions and targets long-lived.
        let mut clear_parser = clear.parser();
        let mut obf_parser = obf.parser();
        let mut obf_serializer = obf.serializer();
        let mut clear_serializer = clear.serializer();
        let mut to_obf = obf.transcode_target(&clear).unwrap();
        let mut to_clear = clear.transcode_target(&obf).unwrap();
        let mut obf_wire = Vec::new();
        let mut back_wire = Vec::new();
        group.throughput(Throughput::Bytes(2 * clear_wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("gateway-roundtrip", "64KiB"), &0u32, |b, _| {
            b.iter(|| {
                let inbound = clear_parser.parse_in_place(&clear_wire).unwrap();
                inbound.transcode_into(&mut to_obf).unwrap();
                obf_serializer.serialize_into_seeded(&to_obf, &mut obf_wire, 1).unwrap();
                let upstream = obf_parser.parse_in_place(&obf_wire).unwrap();
                upstream.transcode_into(&mut to_clear).unwrap();
                clear_serializer.serialize_into_seeded(&to_clear, &mut back_wire, 1).unwrap();
            })
        });

        // The benchmark's own derivation (its shared secret, level 2),
        // where every table loop of both relay directions is a column
        // copy: the per-message steps of bulk-64k's two gateways.
        let e2e = e2ebench_codec(&graph);
        let mut to_e2e = e2e.transcode_target(&clear).unwrap();
        src.transcode_into(&mut to_e2e).unwrap();
        let mut e2e_serializer = e2e.serializer();
        let mut e2e_wire = Vec::new();
        e2e_serializer.serialize_into_seeded(&to_e2e, &mut e2e_wire, 1).unwrap();
        let e2e_src = e2e.parse(&e2e_wire).unwrap();
        group.throughput(Throughput::Bytes(clear_wire.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("transcode-clear-obf", "e2ebench-l2"),
            &0u32,
            |b, _| b.iter(|| src.transcode_into(&mut to_e2e).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("serialize-session-obf", "e2ebench-l2"),
            &0u32,
            |b, _| {
                b.iter(|| e2e_serializer.serialize_into_seeded(&to_e2e, &mut e2e_wire, 1).unwrap())
            },
        );
        let mut e2e_parser = e2e.parser();
        group.bench_with_input(
            BenchmarkId::new("parse-session-obf", "e2ebench-l2"),
            &0u32,
            |b, _| {
                b.iter(|| {
                    e2e_parser.parse_in_place(&e2e_wire).unwrap();
                })
            },
        );
        let mut from_e2e = clear.transcode_target(&e2e).unwrap();
        group.bench_with_input(
            BenchmarkId::new("transcode-obf-clear", "e2ebench-l2"),
            &0u32,
            |b, _| b.iter(|| e2e_src.transcode_into(&mut from_e2e).unwrap()),
        );

        // Small messages: one modbus request, where the plan's per-node
        // work rather than the bytes sets the cost (levels 0 and 2 under
        // the benchmark's shared secret, as modbus-rr runs it).
        let modbus = protoobf_protocols::modbus::request_graph();
        for level in [0u32, 2] {
            let codec = if level == 0 { Codec::identity(&modbus) } else { e2ebench_codec(&modbus) };
            let mut rng = StdRng::seed_from_u64(7);
            let msg = protoobf_protocols::modbus::build_request(
                &codec,
                protoobf_protocols::modbus::Function::WriteMultipleRegisters,
                &mut rng,
            );
            let mut serializer = codec.serializer();
            let mut wire = Vec::new();
            serializer.serialize_into_seeded(&msg, &mut wire, 1).unwrap();
            group.throughput(Throughput::Bytes(wire.len() as u64));
            let mut out = Vec::new();
            group.bench_with_input(
                BenchmarkId::new("modbus-serialize-session", level),
                &level,
                |b, _| b.iter(|| serializer.serialize_into_seeded(&msg, &mut out, 1).unwrap()),
            );
            let mut parser = codec.parser();
            group.bench_with_input(
                BenchmarkId::new("modbus-parse-session", level),
                &level,
                |b, _| {
                    b.iter(|| {
                        parser.parse_in_place(&wire).unwrap();
                    })
                },
            );
        }
        group.finish();
    }
    // Serializer guard: the emit walk reads every store in order through
    // sequential cursors, so serializing the bulk message should cost
    // about what parsing it does. A return to a per-instance search of
    // the stores makes it several times dearer and fails here.
    let median =
        |name: &str| c.results().iter().find(|r| r.name == name).map(|r| r.stats.median_ns);
    if let (Some(ser), Some(parse)) =
        (median("relay/serialize-session/64KiB"), median("relay/parse-session/64KiB"))
    {
        let ratio = ser / parse.max(f64::MIN_POSITIVE);
        eprintln!("64 KiB clear bulk message: serialize/parse = {ratio:.2}x");
        assert!(
            ratio <= 2.0,
            "serializing must cost at most 2x parsing \
             (serialize {ser:.0} ns vs parse {parse:.0} ns, ratio {ratio:.2}x)"
        );
    }
    // Obfuscated-side guard: on the benchmark's derivation every counted
    // loop runs its element kernel (mirrored columns included), so the
    // obfuscated sessions cost at most twice the clear ones. A loop that
    // falls back to the per-element walk makes them 3-5x dearer.
    for (obf, clear) in [
        ("relay/serialize-session-obf/e2ebench-l2", "relay/serialize-session/64KiB"),
        ("relay/parse-session-obf/e2ebench-l2", "relay/parse-session/64KiB"),
    ] {
        if let (Some(o), Some(c)) = (median(obf), median(clear)) {
            let ratio = o / c.max(f64::MIN_POSITIVE);
            eprintln!("{obf} / {clear} = {ratio:.2}x");
            assert!(
                ratio <= 2.0,
                "{obf} must cost at most 2x {clear} ({o:.0} ns vs {c:.0} ns, ratio {ratio:.2}x)"
            );
        }
    }
    export_trajectory(c, "relay");
}

/// Idle-wake cost of the event loop's two readiness backends — the
/// tentpole claim of the epoll path. With `CONNS` established-but-idle
/// connections, one **scan** pass costs `CONNS` read syscalls that all
/// return `WouldBlock`, while one **epoll** pass costs a single
/// `epoll_wait` that returns zero events. The asserted ≥5× gap is what
/// makes the kernel-readiness backend worth its registration
/// bookkeeping; in practice the gap is closer to the fd count.
fn bench_evloop(c: &mut Criterion) {
    use protoobf_transport::sys;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    const CONNS: usize = 1024;
    // Two fds per pair plus the listener and slack; best-effort — on a
    // capped host the connect loop below fails loudly instead.
    let _ = sys::raise_nofile_limit(CONNS as u64 * 2 + 512);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut clients = Vec::with_capacity(CONNS);
    let mut servers = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        clients.push(TcpStream::connect(addr).unwrap());
        let (s, _) = listener.accept().unwrap();
        s.set_nonblocking(true).unwrap();
        servers.push(s);
    }

    {
        let mut group = c.benchmark_group("evloop");
        group.throughput(Throughput::Elements(CONNS as u64));

        let mut buf = [0u8; 1];
        group.bench_with_input(BenchmarkId::new("idle-wake-scan", CONNS), &CONNS, |b, _| {
            b.iter(|| {
                let mut ready = 0usize;
                for s in &servers {
                    match (&*s).read(&mut buf) {
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        _ => ready += 1,
                    }
                }
                ready
            })
        });

        #[cfg(unix)]
        if sys::supported() {
            use std::os::fd::AsRawFd;
            let epoll = sys::Epoll::new().unwrap();
            for (i, s) in servers.iter().enumerate() {
                let interest = sys::flags::IN | sys::flags::RDHUP | sys::flags::ET;
                epoll.add(s.as_raw_fd(), interest, i as u64).unwrap();
            }
            let mut events = [sys::EpollEvent::zeroed(); 64];
            group.bench_with_input(BenchmarkId::new("idle-wake-epoll", CONNS), &CONNS, |b, _| {
                b.iter(|| epoll.wait(&mut events, Some(std::time::Duration::ZERO)).unwrap())
            });
        }
        group.finish();
    }

    // Claim guard: the README/ISSUE advertise kernel readiness as ≥5×
    // cheaper per idle wake than scanning. Enforce it whenever both
    // backends actually ran (the epoll side is compile-time gated).
    let median = |suffix: &str| {
        c.results().iter().find(|r| r.name.contains(suffix)).map(|r| r.stats.median_ns)
    };
    if let (Some(scan), Some(epoll)) = (median("idle-wake-scan"), median("idle-wake-epoll")) {
        let ratio = scan / epoll.max(f64::MIN_POSITIVE);
        eprintln!("evloop idle-wake scan/epoll cost ratio at {CONNS} conns: {ratio:.1}x");
        assert!(
            ratio >= 5.0,
            "epoll idle wake must be >=5x cheaper than the scan pass \
             (scan {scan:.0} ns vs epoll {epoll:.0} ns, ratio {ratio:.1}x)"
        );
    }

    export_trajectory(c, "evloop");
}

/// Covert-tunnel cost metrics: **goodput** (payload bytes per second
/// through the full encode → serialize → parse → decode covert path) and
/// **overhead ratio** (cover wire bytes per payload byte) for every
/// builtin protocol at obfuscation levels 0–3.
///
/// The ratio is a deterministic property of (protocol, level, seed) —
/// the encoder's cover sampling is seeded — so it is computed once in
/// setup and folded into the benchmark *name* (`-ovhN.NN`), which is how
/// it reaches `BENCH_tunnel.json` (the trajectory format only carries
/// timing stats and declared throughput).
fn bench_tunnel(c: &mut Criterion) {
    use protoobf_core::tunnel::{encode_stream, TunnelDecoder};
    use protoobf_protocols::{builtin, BUILTIN_NAMES};

    // Deterministic 4 KiB payload: enough to span many cover messages on
    // every builtin without dominating CI wall-clock.
    let payload: Vec<u8> = (0..4096usize).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
    {
        let mut group = c.benchmark_group("tunnel");
        group.sample_size(10);
        for name in BUILTIN_NAMES {
            let graph = builtin(name).expect("every builtin name resolves");
            for level in [0u32, 1, 2, 3] {
                let codec = codec_for(&graph, level);
                // Overhead in setup: serialized cover bytes per payload
                // byte at this (protocol, level), seed fixed.
                let msgs = encode_stream(&codec, &payload, 7).unwrap();
                let wire_bytes: usize =
                    msgs.iter().map(|m| codec.serialize_seeded(m, 1).unwrap().len()).sum();
                let ratio = wire_bytes as f64 / payload.len() as f64;
                group.throughput(Throughput::Bytes(payload.len() as u64));
                group.bench_with_input(
                    BenchmarkId::new(format!("goodput-{name}-ovh{ratio:.2}"), level),
                    &level,
                    |b, _| {
                        b.iter(|| {
                            let msgs = encode_stream(&codec, &payload, 7).unwrap();
                            let mut serializer = codec.serializer();
                            let mut parser = codec.parser();
                            let mut dec = TunnelDecoder::new(&codec).unwrap();
                            let mut wire = Vec::new();
                            let mut out = Vec::with_capacity(payload.len());
                            for m in &msgs {
                                serializer.serialize_into_seeded(m, &mut wire, 1).unwrap();
                                dec.accept(parser.parse_in_place(&wire).unwrap()).unwrap();
                                dec.take_ready(&mut out);
                            }
                            assert!(dec.is_complete());
                            assert_eq!(out.len(), payload.len());
                            out
                        })
                    },
                );
            }
        }
        group.finish();
    }
    export_trajectory(c, "tunnel");
}

/// Writes `group`'s results to `BENCH_<group>.json` at the workspace
/// root (`cargo bench` runs with this package as its working directory,
/// so the path is anchored on the manifest, not the cwd). A run that
/// filtered the group out writes nothing: `export_json` skips prefixes
/// with no recorded results.
fn export_trajectory(c: &Criterion, group: &str) {
    let path = format!("{}/../../BENCH_{group}.json", env!("CARGO_MANIFEST_DIR"));
    match c.export_json(&path, &format!("{group}/")) {
        Ok(true) => eprintln!("{group} trajectory written to {path}"),
        Ok(false) => {}
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_modbus,
    bench_http,
    bench_dns,
    bench_large,
    bench_service,
    bench_relay,
    bench_evloop,
    bench_tunnel
);
criterion_main!(benches);
