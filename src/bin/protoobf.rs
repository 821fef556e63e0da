//! `protoobf` — command-line front end to the obfuscation framework.
//!
//! ```text
//! protoobf check <target>                    validate; with --profile also
//!                                            print the derivation fingerprint
//! protoobf lint <target> [--deny-warnings]   static verification + spec lint:
//!                                            machine-readable diagnostics
//!                                            (P… errors exit 1, L… warnings
//!                                            exit 0 unless --deny-warnings)
//!                                            and per-leg loop-kernel coverage
//! protoobf print <target>                    re-print the canonical form
//!                                            (spec text, or profile + summary)
//! protoobf dot <target> [--level N --key K]  Graphviz (plain or obfuscated)
//! protoobf gen <target> [--level N --key K] [-o lib.c]
//!                                            generate the C library + metrics
//! protoobf demo <target> [--level N --key K] round-trip a random message
//! protoobf gateway <target> --listen A --upstream B --mode encode|decode
//!                  [--workers N --accept-limit N --accept-burst N
//!                   --backpressure BYTES --admin HOST:PORT --quiet]
//!                                            run one obfuscation gateway
//! protoobf recv <target> --listen A [--workers N --accept-limit N
//!                  --accept-burst N --backpressure BYTES
//!                  --admin HOST:PORT --quiet]
//!                                            clear-framed echo/responder server
//! protoobf send <target> --connect A [--count N --admin HOST:PORT --quiet]
//!                                            clear-framed client, verifies echoes
//! protoobf tunnel <target> --connect A | --listen A
//!                  [--exit-on-eof --backpressure BYTES --accept-limit N
//!                   --admin HOST:PORT --quiet]
//!                                            covert byte tunnel: stdin rides
//!                                            carrier slots of sampled cover
//!                                            messages, peer payload → stdout
//! protoobf fuzz <target> [--cases N] [--corpus DIR]
//!                                            plan-aware differential fuzzing;
//!                                            exits non-zero on any divergence
//! protoobf resilience [--samples N] [--max-level N] [-o FILE]
//!                                            PRE attack trajectory over the
//!                                            builtin protocols × levels
//! protoobf list-builtins                     the builtin protocol names,
//!                                            one per line
//! ```
//!
//! `<target>` is either a positional spec — a DSL file, or `builtin:NAME`
//! for the bundled experiment protocols (`dns-query`, `dns-response`,
//! `http-request`, `http-response`, `modbus-request`,
//! `modbus-response`) — or `--profile FILE`, a profile in the
//! [`protoobf::Profile`] text format. The profile is the deployment's
//! single source of truth: spec source(s) (optionally distinct per
//! direction — asymmetric request/response), the shared key, level,
//! allowed transformations and service tuning. Flags map onto an implicit
//! symmetric profile: `--key STRING` sets the secret (default `"0"`),
//! `--level N` the budget.
//!
//! A full loopback deployment (the paper's gateway-pair model), driven by
//! two copies of one profile file:
//!
//! ```sh
//! cat > chain.profile <<'EOF'
//! profile protoobf/1
//! tx builtin:dns-query
//! rx builtin:dns-response
//! key "shared-secret"
//! level 2
//! EOF
//! protoobf recv    --profile chain.profile --listen 127.0.0.1:9002 &
//! protoobf gateway --profile chain.profile --mode decode \
//!     --listen 127.0.0.1:9001 --upstream 127.0.0.1:9002 &
//! protoobf gateway --profile chain.profile --mode encode \
//!     --listen 127.0.0.1:9000 --upstream 127.0.0.1:9001 &
//! protoobf send    --profile chain.profile --connect 127.0.0.1:9000 --count 64
//! ```
//!
//! Both gateways print the same `fingerprint` line when (and only when)
//! their profiles agree — compare them before sending traffic.
//!
//! Every networked subcommand takes `--admin HOST:PORT` to serve a live
//! scrape plane next to the data plane (`/metrics` in Prometheus text
//! format, `/events` for the connection flight recorder, `/health`),
//! and prints one unified telemetry summary at exit unless `--quiet`.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use protoobf::codegen::{generate, measure};
use protoobf::core::framing::{append_frame, FrameBuffer};
use protoobf::core::fuzz::{fuzz_codec, FuzzConfig, Reproducer};
use protoobf::core::plan::CopyProgram;
use protoobf::core::sample::random_message;
use protoobf::core::verify;
use protoobf::resilience;
use protoobf::transport::conn::DEFAULT_OUTBOUND_CAP;
use protoobf::transport::{
    evloop, peer_token, serve_admin, spawn_reader, wake_pair, Echo, Gateway, GatewayMode,
    LoopConfig, Metrics, PayloadBuf, Responder, Session, Telemetry, TunnelSession,
};
use protoobf::{
    Codec, Endpoint, FormatGraph, ObfConfig, Profile, ProfileExt, SpecSource, TransformKind,
};

/// A CLI failure: usage errors re-print the usage text naming the
/// offending token (exit 2); run errors report and exit 1.
enum CliError {
    Usage(String),
    Run(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Run(msg)
    }
}

fn usage(msg: &str) -> String {
    format!(
        "error: {msg}\n\
         usage: protoobf <check|lint|print|dot|gen|demo|gateway|recv|send|tunnel|fuzz|resilience>\n\
         \x20      <spec-file|builtin:NAME> | --profile FILE\n\
         \x20      [--key STRING] [--level N]\n\
         \x20      [-o FILE] [--listen ADDR] [--upstream ADDR] [--connect ADDR]\n\
         \x20      [--mode encode|decode] [--workers N] [--accept-limit N] [--count N]\n\
         \x20      [--accept-burst N] [--backpressure BYTES]\n\
         \x20      [--admin HOST:PORT] [--quiet] [--exit-on-eof] [--deny-warnings]\n\
         \x20      [--cases N] [--corpus DIR] [--samples N] [--max-level N]\n\
         \x20      protoobf list-builtins"
    )
}

struct Options {
    spec_path: Option<String>,
    profile: Option<String>,
    level: Option<u32>,
    key: Option<String>,
    out: Option<String>,
    listen: Option<String>,
    upstream: Option<String>,
    connect: Option<String>,
    mode: Option<String>,
    workers: Option<usize>,
    accept_limit: Option<u64>,
    accept_burst: Option<usize>,
    /// Per-connection outbound queue cap: `--backpressure`, else the
    /// transport default.
    outbound_cap: usize,
    admin: Option<String>,
    quiet: bool,
    exit_on_eof: bool,
    deny_warnings: bool,
    count: usize,
    cases: Option<u32>,
    corpus: Option<String>,
    samples: Option<usize>,
    max_level: Option<u32>,
}

fn parse_options(args: &[String], spec_required: bool) -> Result<Options, String> {
    let mut opts = Options {
        spec_path: None,
        profile: None,
        level: None,
        key: None,
        out: None,
        listen: None,
        upstream: None,
        connect: None,
        mode: None,
        workers: None,
        accept_limit: None,
        accept_burst: None,
        outbound_cap: DEFAULT_OUTBOUND_CAP,
        admin: None,
        quiet: false,
        exit_on_eof: false,
        deny_warnings: false,
        count: 16,
        cases: None,
        corpus: None,
        samples: None,
        max_level: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--profile" => opts.profile = Some(value("--profile")?),
            "--level" => opts.level = Some(number("--level", &value("--level")?)?),
            "--key" => opts.key = Some(value("--key")?),
            "-o" | "--out" => opts.out = Some(value("-o")?),
            "--listen" => opts.listen = Some(addr("--listen", &value("--listen")?)?),
            "--upstream" => opts.upstream = Some(addr("--upstream", &value("--upstream")?)?),
            "--connect" => opts.connect = Some(addr("--connect", &value("--connect")?)?),
            "--mode" => opts.mode = Some(value("--mode")?),
            "--workers" => opts.workers = Some(number("--workers", &value("--workers")?)?),
            "--accept-limit" => {
                opts.accept_limit = Some(number("--accept-limit", &value("--accept-limit")?)?);
            }
            "--accept-burst" => {
                opts.accept_burst = Some(number("--accept-burst", &value("--accept-burst")?)?);
            }
            "--backpressure" => {
                opts.outbound_cap = number("--backpressure", &value("--backpressure")?)?;
            }
            "--admin" => opts.admin = Some(addr("--admin", &value("--admin")?)?),
            "--quiet" => opts.quiet = true,
            "--exit-on-eof" => opts.exit_on_eof = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--count" => opts.count = number("--count", &value("--count")?)?,
            "--cases" => opts.cases = Some(number("--cases", &value("--cases")?)?),
            "--corpus" => opts.corpus = Some(value("--corpus")?),
            "--samples" => opts.samples = Some(number("--samples", &value("--samples")?)?),
            "--max-level" => {
                opts.max_level = Some(number("--max-level", &value("--max-level")?)?);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other if opts.spec_path.is_none() => opts.spec_path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if opts.profile.is_some() {
        if let Some(spec) = &opts.spec_path {
            return Err(format!("--profile excludes the positional spec {spec:?}"));
        }
        for (flag, given) in [("--key", opts.key.is_some()), ("--level", opts.level.is_some())] {
            if given {
                return Err(format!("--profile excludes {flag} (set it in the profile file)"));
            }
        }
    } else if opts.spec_path.is_none() && spec_required {
        return Err("missing specification (give a spec file, builtin:NAME or --profile)".into());
    }
    Ok(opts)
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: invalid number {v:?}"))
}

/// Validates an address flag's **shape** eagerly (typos surface as usage
/// errors naming the token), without resolving hostnames: DNS stays a
/// runtime concern, so a transient resolver failure cannot masquerade as
/// a usage error.
fn addr(flag: &str, v: &str) -> Result<String, String> {
    if v.parse::<std::net::SocketAddr>().is_ok() {
        return Ok(v.to_string());
    }
    match v.rsplit_once(':') {
        Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => Ok(v.to_string()),
        _ => Err(format!("{flag}: invalid address {v:?} (expected HOST:PORT)")),
    }
}

/// The profile driving this invocation: `--profile FILE`, or an implicit
/// symmetric profile assembled from the spec, `--key` and `--level`.
fn profile_for(opts: &Options) -> Result<Profile, CliError> {
    if let Some(path) = &opts.profile {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Run(format!("cannot read {path}: {e}")))?;
        return Profile::parse(&text).map_err(|e| CliError::Run(format!("{path}: {e}")));
    }
    // The positional spec is taken verbatim (unlike sources inside a
    // profile file, a CLI path may contain spaces or '#').
    let raw = opts.spec_path.as_deref().expect("parse_options guarantees a spec");
    let spec = match raw.strip_prefix("builtin:") {
        Some(name) => SpecSource::Builtin(name.to_string()),
        None => SpecSource::File(raw.to_string()),
    };
    let key = opts.key.clone().unwrap_or_else(|| "0".to_string());
    Ok(Profile::symmetric(spec).key(key).level(opts.level.unwrap_or(1)))
}

fn endpoint_for(opts: &Options) -> Result<Endpoint, CliError> {
    profile_for(opts)?.build().map_err(|e| CliError::Run(e.to_string()))
}

/// The endpoint's legs as `(name, spec source, codec, clear codec)`, the
/// clear codec being the identity side of the gateway pairing the leg
/// runs in: `tx`, then `rx` unless the profile is symmetric (both
/// directions then share one codec).
fn legs(ep: &Endpoint) -> impl Iterator<Item = (&'static str, &SpecSource, &Codec, &Codec)> {
    let p = ep.profile();
    let tx = ("tx", p.tx(), ep.tx_service(), ep.clear_tx_service());
    let rx = ("rx", p.rx(), ep.rx_service(), ep.clear_rx_service());
    std::iter::once(tx)
        .chain((!ep.is_symmetric()).then_some(rx))
        .map(|(name, src, obf, clear)| (name, src, obf.codec(), clear.codec()))
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) =
        args.split_first().ok_or_else(|| CliError::Usage("missing command".into()))?;
    if command == "list-builtins" {
        return list_builtins(rest);
    }
    let opts = parse_options(rest, command != "resilience").map_err(CliError::Usage)?;
    match command.as_str() {
        "check" => check(&opts),
        "lint" => lint(&opts),
        "print" => print(&opts),
        "dot" => dot(&opts),
        "gen" => gen(&opts),
        "demo" => demo(&opts),
        "gateway" => gateway(&opts),
        "recv" => recv(&opts),
        "send" => send(&opts),
        "tunnel" => tunnel(&opts),
        "fuzz" => fuzz(&opts),
        "resilience" => resilience(&opts),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Prints the builtin protocol names, one per line, so scripts iterate
/// over the same table the `builtin:NAME` resolver reads.
fn list_builtins(rest: &[String]) -> Result<(), CliError> {
    if let Some(arg) = rest.first() {
        return Err(CliError::Usage(format!("list-builtins takes no arguments, got {arg:?}")));
    }
    for name in protoobf::protocols::BUILTIN_NAMES {
        println!("{name}");
    }
    Ok(())
}

fn check(opts: &Options) -> Result<(), CliError> {
    let describe = |label: &str, graph: &FormatGraph| {
        println!(
            "{label}{}: ok — {} nodes, {} terminals",
            graph.name(),
            graph.len(),
            graph.ids().filter(|&i| graph.node(i).is_terminal()).count()
        );
    };
    if opts.profile.is_some() {
        // A profile check validates the whole derivation (both halves)
        // and reports the fingerprint to diff against the peer's.
        let endpoint = endpoint_for(opts)?;
        for (leg, _, codec, _) in legs(&endpoint) {
            describe(&format!("{leg} "), codec.plain());
        }
        println!("fingerprint {}", endpoint.fingerprint());
    } else {
        // A bare spec check only parses and validates — no obfuscation
        // derivation is paid for.
        let graph = protoobf::resolve_spec(profile_for(opts)?.tx()).map_err(CliError::Run)?;
        graph.validate().map_err(|e| CliError::Run(e.to_string()))?;
        describe("", &graph);
    }
    Ok(())
}

/// Static verification of the compiled IR (P… errors) plus the
/// specification lints (L… warnings) — the offline form of the
/// debug-build compile asserts, over every leg of the profile — and,
/// per leg, how many loops run kernels: counted containers with element
/// runs in both plans, mirrors over counted containers folded into their
/// element kernels, column copies in both relay directions, and the
/// element runs an echo server copies frame to frame in both plans.
fn lint(opts: &Options) -> Result<(), CliError> {
    let endpoint = endpoint_for(opts)?;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (leg, _, codec, clear) in legs(&endpoint) {
        let name = codec.plain().name();
        let mut emit = |code: &str, message: &str| {
            let severity = if code.starts_with('P') { "error" } else { "warning" };
            if severity == "error" {
                errors += 1;
            } else {
                warnings += 1;
            }
            println!("{code} {severity} {leg} {name}: {message}");
        };
        for d in verify::verify_codec(codec) {
            emit(d.code, &d.message);
        }
        // The gateway pairing this leg runs in production: the endpoint's
        // clear↔obfuscated transcode programs, both directions.
        let mut columns = Vec::new();
        for (src, dst) in [(clear, codec), (codec, clear)] {
            match CopyProgram::compile(src.obf_graph(), dst.obf_graph()) {
                Some(prog) => {
                    for d in verify::verify_copy_program(src.obf_graph(), dst.obf_graph(), &prog) {
                        emit(d.code, &d.message);
                    }
                    columns.push(prog.column_copies());
                }
                None => emit(
                    verify::COPY_TYPE_MISMATCH,
                    "clear↔obfuscated pairing rejected: plain specifications diverged",
                ),
            }
        }
        // Loop-kernel coverage: which loops skip per-element dispatch.
        let (obf_runs, clear_runs) =
            (codec.plan().element_kernels(), clear.plan().element_kernels());
        println!(
            "kernels {leg} {name}: {} of {} counted loops run element kernels (obfuscated), \
             {} of {} (clear)",
            obf_runs.kernels, obf_runs.loops, clear_runs.kernels, clear_runs.loops
        );
        let folds = codec.plan().mirror_folds();
        println!(
            "kernels {leg} {name}: {} of {} mirrored counted loops fold into element kernels",
            folds.kernels, folds.loops
        );
        if let [to_obf, to_clear] = columns[..] {
            println!(
                "kernels {leg} {name}: {} of {} copy-program loops are column copies \
                 (clear→obfuscated), {} of {} (obfuscated→clear)",
                to_obf.kernels, to_obf.loops, to_clear.kernels, to_clear.loops
            );
        }
        let (obf_echo, clear_echo) = (codec.plan().frame_copies(), clear.plan().frame_copies());
        println!(
            "kernels {leg} {name}: {} of {} element runs an echo copies frame to frame \
             (obfuscated), {} of {} (clear)",
            obf_echo.kernels, obf_echo.loops, clear_echo.kernels, clear_echo.loops
        );
        for l in protoobf::spec::lint::lint_graph(codec.plain()) {
            emit(l.code, &l.message);
        }
        for l in protoobf::spec::lint::lint_codec(codec, endpoint.profile().obf()) {
            emit(l.code, &l.message);
        }
    }
    println!("lint: {errors} error(s), {warnings} warning(s)");
    if errors > 0 {
        return Err(CliError::Run(format!("lint failed with {errors} error(s)")));
    }
    if warnings > 0 && opts.deny_warnings {
        return Err(CliError::Run(format!("lint: {warnings} warning(s) denied (--deny-warnings)")));
    }
    Ok(())
}

fn print(opts: &Options) -> Result<(), CliError> {
    if opts.profile.is_some() {
        let endpoint = endpoint_for(opts)?;
        print!("{}", endpoint.profile().to_text());
        println!();
        print!("{}", endpoint.summary());
    } else {
        // Reuse the implicit profile's verbatim source mapping so paths
        // with spaces keep working.
        let graph = protoobf::resolve_spec(profile_for(opts)?.tx()).map_err(CliError::Run)?;
        print!("{}", protoobf::spec::to_text(&graph));
    }
    Ok(())
}

/// Profiles may be asymmetric; dot renders the tx half.
fn dot(opts: &Options) -> Result<(), CliError> {
    let endpoint = endpoint_for(opts)?;
    let codec = endpoint.tx_service().codec();
    if codec.transform_count() == 0 {
        print!("{}", protoobf::core::dot::format_graph_to_dot(codec.plain()));
    } else {
        print!("{}", protoobf::core::dot::obf_graph_to_dot(codec.obf_graph()));
    }
    Ok(())
}

/// Code generation covers the tx half (run twice with swapped halves of
/// an asymmetric profile for both libraries).
fn gen(opts: &Options) -> Result<(), CliError> {
    let endpoint = endpoint_for(opts)?;
    let codec = endpoint.tx_service().codec();
    let lib = generate(codec);
    let m = measure(&lib);
    eprintln!(
        "{} transformations; {} lines, {} structs, call graph {}x{}",
        codec.transform_count(),
        m.lines,
        m.structs,
        m.callgraph_size,
        m.callgraph_depth
    );
    write_out(opts, &lib.source)
}

fn demo(opts: &Options) -> Result<(), CliError> {
    let endpoint = endpoint_for(opts)?;
    let codec = endpoint.tx_service().codec();
    let mut rng = rand::thread_rng();
    let msg = random_message(codec, &mut rng);
    // Reusable sessions over the compiled plan: the steady-state
    // encode/decode path a deployment would hold per connection.
    let mut serializer = codec.serializer();
    let mut parser = codec.parser();
    let mut wire = Vec::new();
    serializer.serialize_into(&msg, &mut wire).map_err(|e| e.to_string())?;
    println!(
        "plan: {} transformations, {} slots, {} recovery steps; wire: {} bytes",
        codec.transform_count(),
        codec.plan().slots(),
        codec.plan().recovery_steps(),
        wire.len()
    );
    for chunk in wire.chunks(16) {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        println!("  {}", hex.join(" "));
    }
    parser.parse_in_place(&wire).map_err(|e| format!("self-parse failed: {e}"))?;
    println!("round-trip: ok ({})", endpoint.fingerprint());
    Ok(())
}

fn gateway(opts: &Options) -> Result<(), CliError> {
    let listen =
        opts.listen.as_deref().ok_or(CliError::Usage("gateway needs --listen ADDR".into()))?;
    let upstream =
        opts.upstream.as_deref().ok_or(CliError::Usage("gateway needs --upstream ADDR".into()))?;
    let mode = match opts.mode.as_deref() {
        Some("encode") => GatewayMode::Encode,
        Some("decode") => GatewayMode::Decode,
        Some(other) => {
            return Err(CliError::Usage(format!("--mode must be encode or decode, got {other:?}")));
        }
        None => return Err(CliError::Usage("gateway needs --mode encode|decode".into())),
    };
    let endpoint = endpoint_for(opts)?;
    let gw = Gateway::from_endpoint(&endpoint, mode, upstream)
        .map_err(|e| e.to_string())?
        .with_outbound_cap(opts.outbound_cap);
    let cfg = loop_config(opts);
    let banner = format!(
        "{mode:?} gateway on {listen} → {upstream} ({} workers)\nfingerprint {}",
        cfg.workers,
        endpoint.fingerprint()
    );
    serve_on(opts, listen, &banner, &Arc::new(gw.telemetry()), "gateway done", |listener, sd| {
        gw.serve(listener, &cfg, sd)
    })
}

/// The responder side of the chain: parse the profile's tx spec, answer
/// on the rx spec — clear framing on both (the decode gateway faces the
/// obfuscated wire for us). A symmetric profile echoes.
fn recv(opts: &Options) -> Result<(), CliError> {
    let listen =
        opts.listen.as_deref().ok_or(CliError::Usage("recv needs --listen ADDR".into()))?;
    let endpoint = endpoint_for(opts)?;
    let (request_svc, reply_svc) = (endpoint.clear_tx_service(), endpoint.clear_rx_service());
    let telemetry = clear_telemetry(&endpoint, "recv", ["request", "reply"]);
    let metrics = telemetry.metrics();
    let cfg = loop_config(opts);
    let symmetric = endpoint.is_symmetric();
    let banner = if symmetric {
        format!("echo server on {listen} ({} workers)", cfg.workers)
    } else {
        format!(
            "responder on {listen} ({} workers): {} in, {} out",
            cfg.workers,
            endpoint.profile().tx(),
            endpoint.profile().rx()
        )
    };
    let seed = AtomicU64::new(1);
    serve_on(opts, listen, &banner, &telemetry, "server done", |listener, sd| {
        if symmetric {
            evloop::serve(listener, &cfg, sd, metrics, |stream, peer| {
                Ok(Echo::new(stream, request_svc, metrics)
                    .with_token(peer_token(&peer))
                    .outbound_cap(opts.outbound_cap))
            })
        } else {
            evloop::serve(listener, &cfg, sd, metrics, |stream, peer| {
                let s = seed.fetch_add(1, Ordering::Relaxed);
                Ok(Responder::new(stream, request_svc, reply_svc, s, metrics)
                    .with_token(peer_token(&peer))
                    .outbound_cap(opts.outbound_cap))
            })
        }
    })
}

fn send(opts: &Options) -> Result<(), CliError> {
    let connect =
        opts.connect.as_deref().ok_or(CliError::Usage("send needs --connect ADDR".into()))?;
    let endpoint = endpoint_for(opts)?;
    let (tx_svc, rx_svc) = (endpoint.clear_tx_service(), endpoint.clear_rx_service());
    let rx_clear = rx_svc.codec();
    let telemetry = clear_telemetry(&endpoint, "send", ["tx_clear", "rx_clear"]);
    let metrics = telemetry.metrics();
    let stream =
        std::net::TcpStream::connect(connect).map_err(|e| format!("connect {connect}: {e}"))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).map_err(|e| e.to_string())?;
    let mut serializer = tx_svc.serializer();
    let mut frame = Vec::new();
    let mut inbuf = FrameBuffer::new().max_frame(rx_svc.frame_limit());
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let symmetric = endpoint.is_symmetric();
    let mut bytes = 0usize;
    eprintln!("fingerprint {}", endpoint.fingerprint());
    with_telemetry(opts, &telemetry, "client done", |_shutdown| {
        for i in 0..opts.count {
            let msg = random_message(tx_svc.codec(), &mut rng);
            // Identity serialization is deterministic: the body sent is
            // the reference a symmetric echo must match byte-for-byte.
            let serialize_t = metrics.stages.serialize.start();
            frame.clear();
            append_frame(&mut serializer, &msg, &mut frame, tx_svc.frame_limit())
                .map_err(|e| e.to_string())?;
            metrics.stages.serialize.finish(serialize_t);
            (&stream).write_all(&frame).map_err(|e| e.to_string())?;
            Metrics::add(&metrics.messages_out, 1);
            Metrics::add(&metrics.bytes_out, frame.len() as u64);
            metrics.frame_bytes_out.record(frame.len() as u64);
            while inbuf.peek().map_err(|e| e.to_string())?.is_none() {
                if inbuf.read_from(&mut &stream).map_err(|e| e.to_string())? == 0 {
                    let at = if inbuf.pending() == 0 { "" } else { ", inside a frame" };
                    return Err(format!("stream ended after {i} messages{at}").into());
                }
            }
            let echoed = inbuf.peek().ok().flatten().expect("a complete frame is buffered");
            Metrics::add(&metrics.messages_in, 1);
            Metrics::add(&metrics.bytes_in, (echoed.len() + 4) as u64);
            metrics.frame_bytes_in.record(echoed.len() as u64);
            if symmetric {
                if echoed != &frame[4..] {
                    return Err(CliError::Run(format!(
                        "message {i}: echoed wire differs from reference"
                    )));
                }
            } else {
                // Asymmetric chains answer in the rx grammar: verify the
                // response parses as such.
                let parse_t = metrics.stages.parse.start();
                rx_clear
                    .parse(echoed)
                    .map_err(|e| format!("message {i}: response does not parse: {e}"))?;
                metrics.stages.parse.finish(parse_t);
            }
            inbuf.consume();
            bytes += frame.len();
        }
        println!(
            "{} messages ({} bytes framed) round-tripped {} through {connect}",
            opts.count,
            bytes,
            if symmetric { "byte-identical" } else { "with parsed responses" }
        );
        Ok(())
    })
}

/// Like send/recv, tunnel endpoints speak clear framing: the obfuscation
/// gateways in between own the hostile wire. The carrier slots are
/// classified on the *plain* grammar, and the gateways' transcode
/// preserves plain values, so the covert payload survives any level of
/// obfuscation in the chain.
fn tunnel(opts: &Options) -> Result<(), CliError> {
    let endpoint = endpoint_for(opts)?;
    let (tx_svc, rx_svc) = (endpoint.clear_tx_service(), endpoint.clear_rx_service());
    let telemetry = clear_telemetry(&endpoint, "tunnel", ["tx_clear", "rx_clear"]);
    let metrics = telemetry.metrics();
    // Stdin feeds a bounded payload buffer from a detached thread; the
    // wake pipe turns payload arrival into socket readiness so the epoll
    // loop re-drives the session.
    let source = PayloadBuf::new();
    let (wake_rx, wake_tx) = wake_pair().map_err(|e| e.to_string())?;
    spawn_reader(std::io::stdin(), Arc::clone(&source), Some(wake_tx));
    match (opts.connect.as_deref(), opts.listen.as_deref()) {
        (Some(connect), None) => {
            let stream = std::net::TcpStream::connect(connect)
                .map_err(|e| format!("connect {connect}: {e}"))?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            eprintln!("tunnel client → {connect}\nfingerprint {}", endpoint.fingerprint());
            let mut session =
                TunnelSession::new(stream, rx_svc, tx_svc, source, std::io::stdout(), 1, metrics)
                    .map_err(|e| e.to_string())?
                    .with_wake(wake_rx)
                    .exit_on_eof(opts.exit_on_eof)
                    .outbound_cap(opts.outbound_cap);
            // A single client connection doesn't need the full event
            // loop: a mini drive loop with a short nap on Idle keeps the
            // binary simple and the socket hot.
            with_telemetry(opts, &telemetry, "tunnel client done", |_shutdown| loop {
                match session.drive().map_err(|e| CliError::Run(e.to_string()))? {
                    evloop::Drive::Done => break Ok(()),
                    evloop::Drive::Progress => {}
                    evloop::Drive::Idle => std::thread::sleep(std::time::Duration::from_millis(1)),
                }
            })
        }
        (None, Some(listen)) => {
            let mut cfg = loop_config(opts);
            // Stdin is one stream: by default serve exactly one tunnel,
            // then exit (--accept-limit overrides).
            cfg.accept_limit = cfg.accept_limit.or(Some(1));
            let banner = format!(
                "tunnel server on {listen} ({} workers)\nfingerprint {}",
                cfg.workers,
                endpoint.fingerprint()
            );
            // Only the first accepted session gets the stdin wake pipe
            // (and with it, fresh local payload).
            let wake_slot = Mutex::new(Some(wake_rx));
            let seed = AtomicU64::new(2);
            serve_on(opts, listen, &banner, &telemetry, "tunnel server done", |listener, sd| {
                evloop::serve(listener, &cfg, sd, metrics, |stream, peer| {
                    let s = seed.fetch_add(1, Ordering::Relaxed);
                    let mut sess = TunnelSession::new(
                        stream,
                        tx_svc,
                        rx_svc,
                        Arc::clone(&source),
                        std::io::stdout(),
                        s,
                        metrics,
                    )?
                    .exit_on_eof(opts.exit_on_eof)
                    .with_token(peer_token(&peer))
                    .outbound_cap(opts.outbound_cap);
                    if let Some(w) = wake_slot.lock().expect("wake slot lock poisoned").take() {
                        sess = sess.with_wake(w);
                    }
                    Ok(sess)
                })
            })
        }
        _ => Err(CliError::Usage(
            "tunnel needs exactly one of --connect ADDR or --listen ADDR".into(),
        )),
    }
}

fn fuzz(opts: &Options) -> Result<(), CliError> {
    let endpoint = endpoint_for(opts)?;
    let obf = endpoint.profile().obf();
    // One entry point for the fast PR gate and the long stress run:
    // --cases wins, then PROTOOBF_FUZZ_CASES (the knob the CI stress
    // matrix already sets), then a fast default.
    let cases = opts
        .cases
        .or_else(|| std::env::var("PROTOOBF_FUZZ_CASES").ok().and_then(|v| v.parse().ok()))
        .unwrap_or(256);
    let corpus = opts.corpus.as_deref().unwrap_or("tests/corpus");
    let cfg = FuzzConfig { cases, seed: obf.rng_seed() ^ 0x0BF5_CA7E, ..FuzzConfig::default() };
    let mut total = 0usize;
    for (leg, src, codec, _) in legs(&endpoint) {
        let report = fuzz_codec(codec, &cfg);
        eprintln!(
            "{} {}: {} executions ({} accepted, {} rejected), {} coverage signatures, {} \
             divergence(s)",
            leg,
            codec.plain().name(),
            report.executions,
            report.accepted,
            report.rejected,
            report.signatures,
            report.divergences.len()
        );
        for rep in &report.divergences {
            let path = pin_reproducer(corpus, src, obf, leg, rep)?;
            eprintln!(
                "  divergence ({} bytes, minimized from {}): {}\n  pinned {path}",
                rep.wire.len(),
                rep.original.len(),
                rep.detail.lines().next().unwrap_or("")
            );
        }
        total += report.divergences.len();
    }
    if total > 0 {
        return Err(CliError::Run(format!(
            "{total} divergence(s) found — minimized reproducers pinned under {corpus}"
        )));
    }
    println!("fuzz: ok — {cases} cases per leg, no divergence");
    Ok(())
}

fn resilience(opts: &Options) -> Result<(), CliError> {
    if let Some(spec) = &opts.spec_path {
        return Err(CliError::Usage(format!(
            "resilience scores the builtin protocol suite and takes no specification (got \
             {spec:?})"
        )));
    }
    let samples = opts.samples.unwrap_or(16);
    let max_level = opts.max_level.unwrap_or(3);
    let report = resilience::score_trajectory(max_level, samples, 0xD5C_0BF);
    for cell in &report.levels {
        eprintln!("{}", resilience::summarize(cell));
    }
    write_out(opts, &resilience::export_json(&report))
}

/// Writes `text` to `-o FILE`, or to stdout without one.
fn write_out(opts: &Options, text: &str) -> Result<(), CliError> {
    match &opts.out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Writes a minimized reproducer into the corpus directory. When the
/// fuzzed leg is a builtin spec obfuscated with the full transformation
/// set, the file uses the regression-corpus name format
/// (`<proto>-l<level>-p<seed>-<desc>.bin`) so `tests/fuzz_differential.rs`
/// and `tests/transcode_differential.rs` replay it on every run; other
/// configurations (DSL files, restricted `allow` lists) can't be
/// reconstructed from the name alone and are pinned as `.repro` files
/// the harnesses ignore.
fn pin_reproducer(
    dir: &str,
    src: &SpecSource,
    obf: &ObfConfig,
    leg: &str,
    rep: &Reproducer,
) -> Result<String, CliError> {
    std::fs::create_dir_all(dir).map_err(|e| CliError::Run(format!("cannot create {dir}: {e}")))?;
    let tag = match src {
        SpecSource::Builtin(name) => protoobf::protocols::builtin_tag(name),
        SpecSource::File(_) => None,
    };
    let name = match tag {
        Some(tag) if obf.allowed == TransformKind::ALL => {
            format!("{tag}-l{}-p{}-fuzz{:08x}.bin", obf.level, obf.rng_seed(), rep.signature as u32)
        }
        _ => format!("fuzz-{leg}-{:08x}.repro", rep.signature as u32),
    };
    let path = format!("{dir}/{name}");
    std::fs::write(&path, &rep.wire)
        .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    Ok(path)
}

/// The telemetry registry of a clear-framed endpoint process (`recv`,
/// `send`, `tunnel`, named by `mode`): a fresh metrics block plus the
/// endpoint's clear tx and rx services, registered under `names`, and
/// the endpoint's derivation.
fn clear_telemetry(endpoint: &Endpoint, mode: &'static str, names: [&str; 2]) -> Arc<Telemetry> {
    let mut registry = Telemetry::new(Arc::new(Metrics::new()));
    registry.register_service(names[0], endpoint.clear_tx_service());
    registry.register_service(names[1], endpoint.clear_rx_service());
    registry.set_build(endpoint.fingerprint(), endpoint.profile().obf().level, mode);
    Arc::new(registry)
}

/// The serving subcommands' (`gateway`, `recv`, `tunnel --listen`) one
/// run: binds `listen`, prints `banner`, then hands the listener to
/// `serve` under [`with_telemetry`].
fn serve_on(
    opts: &Options,
    listen: &str,
    banner: &str,
    telemetry: &Arc<Telemetry>,
    done: &str,
    serve: impl FnOnce(TcpListener, &AtomicBool) -> std::io::Result<()>,
) -> Result<(), CliError> {
    let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    eprintln!("{banner}");
    with_telemetry(opts, telemetry, done, |shutdown| {
        serve(listener, shutdown).map_err(|e| CliError::Run(e.to_string()))
    })
}

/// Runs `body` with the optional `--admin` scrape plane live next to it,
/// then prints the end-of-run telemetry summary as `{done}: …` (unless
/// `--quiet`). The admin listener is bound eagerly (a bad `--admin`
/// address fails before any traffic flows), [`serve_admin`] runs on a
/// scoped thread over the shared registry, and the shared shutdown flag
/// is raised as soon as the body returns so the scraper thread winds
/// down with the data plane.
fn with_telemetry(
    opts: &Options,
    telemetry: &Arc<Telemetry>,
    done: &str,
    body: impl FnOnce(&AtomicBool) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let listener = match &opts.admin {
        Some(a) => {
            let l =
                TcpListener::bind(a).map_err(|e| CliError::Run(format!("bind admin {a}: {e}")))?;
            eprintln!("admin endpoint on {a} (/metrics /events /health)");
            Some(l)
        }
        None => None,
    };
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if let Some(listener) = listener {
            let tel = Arc::clone(telemetry);
            let sd = &shutdown;
            scope.spawn(move || {
                if let Err(e) = serve_admin(listener, tel, sd) {
                    eprintln!("admin endpoint failed: {e}");
                }
            });
        }
        let result = body(&shutdown);
        shutdown.store(true, Ordering::Release);
        result
    })?;
    if !opts.quiet {
        eprintln!("{done}: {}", telemetry.summary());
    }
    Ok(())
}

fn loop_config(opts: &Options) -> LoopConfig {
    let mut cfg = LoopConfig::default();
    if let Some(w) = opts.workers {
        cfg.workers = w.max(1);
    }
    cfg.accept_limit = opts.accept_limit;
    if let Some(burst) = opts.accept_burst {
        cfg.accept_burst = burst.max(1);
    }
    cfg
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("{}", usage(&msg));
            ExitCode::from(2)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
