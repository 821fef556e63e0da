//! Integration tests for the `protoobf` command-line tool.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_protoobf"))
}

fn write_spec(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("protoobf-cli-test-{name}.pobf"));
    std::fs::write(&path, body).unwrap();
    path
}

const SPEC: &str = r#"
message Cli {
    u16 id;
    u16 length = len(payload);
    bytes payload sized_by length;
    ascii tag until ";";
}
"#;

#[test]
fn check_validates_a_spec() {
    let path = write_spec("check", SPEC);
    let out = cli().arg("check").arg(&path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Cli: ok"));
    assert!(stdout.contains("nodes"));
}

#[test]
fn check_rejects_a_bad_spec() {
    let path = write_spec("bad", "message M { bytes x; }");
    let out = cli().arg("check").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn print_is_reparseable() {
    let path = write_spec("print", SPEC);
    let out = cli().arg("print").arg(&path).output().unwrap();
    assert!(out.status.success());
    let printed = String::from_utf8(out.stdout).unwrap();
    protoobf::spec::parse_spec(&printed).expect("printed spec parses");
}

#[test]
fn demo_roundtrips() {
    let path = write_spec("demo", SPEC);
    let out =
        cli().args(["demo"]).arg(&path).args(["--level", "2", "--key", "9"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("round-trip: ok"), "{stdout}");
}

#[test]
fn gen_writes_c_library() {
    let path = write_spec("gen", SPEC);
    let out_path = std::env::temp_dir().join("protoobf-cli-test-lib.c");
    let out = cli()
        .arg("gen")
        .arg(&path)
        .args(["--level", "1", "--key", "3", "-o"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let source = std::fs::read_to_string(&out_path).unwrap();
    assert!(source.contains("static int parse_"));
    assert!(source.contains("ProtoObf"));
}

#[test]
fn dot_emits_graphviz() {
    let path = write_spec("dot", SPEC);
    for level in ["0", "2"] {
        let out = cli().arg("dot").arg(&path).args(["--level", level]).output().unwrap();
        assert!(out.status.success());
        let dot = String::from_utf8_lossy(&out.stdout);
        assert!(dot.starts_with("digraph"), "level {level}: {dot}");
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let path = write_spec("unknown", SPEC);
    let out = cli().arg("bogus").arg(&path).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn missing_file_reports_error() {
    let out = cli().args(["check", "/nonexistent/spec.pobf"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Every subcommand must reject trailing garbage with the usage text and
/// the offending token named (exit code 2: a usage error, not a runtime
/// failure).
#[test]
fn every_subcommand_rejects_trailing_garbage() {
    let path = write_spec("garbage", SPEC);
    for cmd in ["check", "print", "dot", "gen", "demo", "gateway", "recv", "send"] {
        let out = cli().arg(cmd).arg(&path).arg("trailing-garbage").output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}: garbage must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("trailing-garbage"), "{cmd}: must name the token: {stderr}");
        assert!(stderr.contains("usage:"), "{cmd}: must print usage: {stderr}");
    }
}

#[test]
fn unknown_flags_and_malformed_values_route_through_usage() {
    let path = write_spec("badflags", SPEC);
    let cases: &[(&[&str], &str)] = &[
        (&["check", "--bogus-flag"], "--bogus-flag"),
        (&["demo", "--seed", "3"], "--seed"),
        (&["demo", "--level", "x9"], "x9"),
        (&["gateway", "--listen", "not@an:addr"], "not@an:addr"),
        (&["send", "--connect", "12345"], "12345"),
        (&["recv", "--workers", "two"], "two"),
        (&["recv", "--admin", "nohostport"], "nohostport"),
        (&["gateway", "--admin", ":9"], ":9"),
    ];
    for (args, needle) in cases {
        let out = cli().args(*args).arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: must name {needle:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: must print usage: {stderr}");
    }

    // A flag at the very end with its value missing (no spec path after
    // it to swallow).
    let out = cli().arg("demo").arg(&path).arg("--key").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--key needs a value"));
}

#[test]
fn missing_spec_and_profile_conflicts_are_usage_errors() {
    let out = cli().arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing specification"));

    // --profile and a positional spec are mutually exclusive, as are
    // --profile and the legacy derivation flags.
    let profile = write_profile("conflict", "profile protoobf/1\nspec builtin:dns-query\n");
    let spec = write_spec("conflict", SPEC);
    let out = cli().arg("check").arg(&spec).arg("--profile").arg(&profile).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile excludes"));
    let out =
        cli().args(["check", "--profile"]).arg(&profile).args(["--key", "3"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--key"));
}

fn write_profile(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("protoobf-cli-test-{name}.profile"));
    std::fs::write(&path, body).unwrap();
    path
}

const ASYM_PROFILE: &str = "profile protoobf/1\n\
                            tx builtin:dns-query\n\
                            rx builtin:dns-response\n\
                            key \"cli test secret\"\n\
                            level 2\n";

/// `check --profile` and `print --profile` expose the derivation
/// fingerprint, and two runs over the same file agree (the operator's
/// offline diff of two endpoints).
#[test]
fn profile_check_and_print_report_a_stable_fingerprint() {
    let path = write_profile("fp", ASYM_PROFILE);
    let fingerprint_of = |out: &std::process::Output| -> String {
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .unwrap_or_else(|| panic!("no fingerprint line in {stdout:?}"))
            .to_string()
    };

    let a = cli().args(["check", "--profile"]).arg(&path).output().unwrap();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("tx DnsQuery"), "{stdout}");
    assert!(stdout.contains("rx DnsResponse"), "{stdout}");
    let fp_a = fingerprint_of(&a);
    assert_eq!(fp_a.len(), 32, "fingerprint is 32 hex chars: {fp_a}");

    let b = cli().args(["print", "--profile"]).arg(&path).output().unwrap();
    assert!(b.status.success());
    let printed = String::from_utf8_lossy(&b.stdout);
    // The canonical profile text round-trips through the printout...
    assert!(printed.contains("tx builtin:dns-query"), "{printed}");
    assert!(printed.contains("rx builtin:dns-response"), "{printed}");
    // ...and the summary carries the same fingerprint as `check`.
    assert_eq!(fingerprint_of(&b), fp_a);

    // A different key must print a different fingerprint.
    let other = write_profile("fp2", &ASYM_PROFILE.replace("cli test secret", "other secret"));
    let c = cli().args(["check", "--profile"]).arg(&other).output().unwrap();
    assert!(c.status.success());
    assert_ne!(fingerprint_of(&c), fp_a, "key change must change the fingerprint");
}

#[test]
fn malformed_profile_reports_line_and_token() {
    let path = write_profile("bad", "profile protoobf/1\nspec builtin:dns-query\nbogus 1\n");
    let out = cli().args(["check", "--profile"]).arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "a bad profile file is a data error, not usage");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
    assert!(stderr.contains("bogus"), "{stderr}");
}

/// Spec paths are taken verbatim on the command line: whitespace (legal
/// in filenames, illegal only inside profile text sources) must work.
#[test]
fn spec_paths_with_spaces_keep_working() {
    let path = std::env::temp_dir().join("protoobf cli test with spaces.pobf");
    std::fs::write(&path, SPEC).unwrap();
    let out = cli().arg("check").arg(&path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Cli: ok"));
}

/// The telemetry summary every networked subcommand prints at exit, and
/// the `--quiet` flag that suppresses it: a real echo chain over
/// loopback, one client run with the summary and one without.
#[test]
fn telemetry_summary_prints_at_exit_and_quiet_suppresses_it() {
    // Reserve a loopback port the OS considers free, then hand it to
    // recv. The probe loop below absorbs the (unlikely) bind race.
    let listen = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    // Budget: one readiness probe + two client runs.
    let recv = cli()
        .args(["recv", "builtin:dns-query", "--listen", &listen, "--accept-limit", "3"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    for attempt in 0.. {
        match std::net::TcpStream::connect(&listen) {
            Ok(_) => break, // dropped: consumes one accept, answers EOF
            Err(e) if attempt > 100 => panic!("recv never became reachable: {e}"),
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }

    let loud = cli()
        .args(["send", "builtin:dns-query", "--connect", &listen, "--count", "2"])
        .output()
        .unwrap();
    assert!(loud.status.success(), "{}", String::from_utf8_lossy(&loud.stderr));
    let stderr = String::from_utf8_lossy(&loud.stderr);
    assert!(stderr.contains("client done:"), "summary must print by default: {stderr}");
    assert!(stderr.contains("frames:"), "{stderr}");

    let quiet = cli()
        .args(["send", "builtin:dns-query", "--connect", &listen, "--count", "2", "--quiet"])
        .output()
        .unwrap();
    assert!(quiet.status.success(), "{}", String::from_utf8_lossy(&quiet.stderr));
    let stderr = String::from_utf8_lossy(&quiet.stderr);
    assert!(!stderr.contains("client done:"), "--quiet must suppress the summary: {stderr}");

    // The server prints its own unified summary once the accept budget
    // drains, flight-recorder line included.
    let out = recv.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("server done:"), "{stderr}");
    assert!(stderr.contains("flight recorder:"), "{stderr}");
    assert!(stderr.contains("stages:"), "{stderr}");
}

/// `--backpressure` reaches the echo sessions' outbound queues: with a
/// 1-byte cap every echoed frame fills the queue and pauses the session's
/// reads until it drains, and the echoes still come back byte-identical.
#[test]
fn recv_backpressure_cap_still_echoes_byte_identically() {
    use std::io::BufRead;
    let listen = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let mut recv = cli()
        .args(["recv", "builtin:modbus-request", "--listen", &listen])
        .args(["--backpressure", "1", "--accept-limit", "1"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The banner prints once the listener is bound; a probe connection
    // would use up the one accept.
    let mut stderr = std::io::BufReader::new(recv.stderr.take().unwrap());
    let mut line = String::new();
    while !line.contains("echo server on") {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "recv exited before serving");
    }

    let send = cli()
        .args(["send", "builtin:modbus-request", "--connect", &listen, "--count", "8"])
        .output()
        .unwrap();
    assert!(send.status.success(), "{}", String::from_utf8_lossy(&send.stderr));
    let stdout = String::from_utf8_lossy(&send.stdout);
    assert!(stdout.contains("8 messages"), "{stdout}");
    assert!(stdout.contains("round-tripped byte-identical"), "{stdout}");

    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).unwrap();
    assert!(recv.wait().unwrap().success(), "{rest}");
    assert!(rest.contains("server done:"), "{rest}");
    // The cap bit: queued echoes stalled the sessions' reads.
    let stalls = rest
        .split("; ")
        .find_map(|part| part.strip_suffix(" backpressure events"))
        .and_then(|n| n.rsplit(' ').next()?.parse::<u64>().ok())
        .expect("summary reports backpressure events");
    assert!(stalls > 0, "{rest}");
}

/// Address flags validate shape only — an unresolvable hostname is a
/// runtime failure (exit 1), never a usage error (exit 2), so transient
/// DNS trouble cannot masquerade as a typo.
#[test]
fn hostnames_pass_flag_parsing_and_fail_at_runtime() {
    let out = cli()
        .args(["send", "builtin:dns-query", "--connect", "unresolvable.invalid:9", "--count", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn demo_accepts_profile_and_key() {
    let path = write_profile("demo", ASYM_PROFILE);
    let out = cli().args(["demo", "--profile"]).arg(&path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("round-trip: ok"));

    // Legacy spec form with --key: same derivation path, new secret flag.
    let out = cli()
        .args(["demo", "builtin:modbus-request", "--key", "demo secret", "--level", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

// ---------------------------------------------------------------------------
// fuzz / resilience
// ---------------------------------------------------------------------------

#[test]
fn fuzz_runs_clean_on_a_builtin_spec() {
    let corpus = std::env::temp_dir().join("protoobf-cli-test-fuzz-corpus");
    let out = cli()
        .args(["fuzz", "builtin:modbus-request", "--level", "2", "--key", "fuzz secret"])
        .args(["--cases", "8", "--corpus"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fuzz: ok"), "{stdout}");
    assert!(stdout.contains("8 cases"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 divergence(s)"), "{stderr}");
    // A clean run must not grow the corpus directory.
    assert!(!corpus.exists() || std::fs::read_dir(&corpus).unwrap().next().is_none());
}

/// The case budget: `--cases` wins over `PROTOOBF_FUZZ_CASES`, which
/// wins over the default — the same knob the CI stress matrix sets.
#[test]
fn fuzz_case_budget_resolves_flag_over_env() {
    let base = ["fuzz", "builtin:modbus-request", "--key", "budget"];
    let out = cli().args(base).env("PROTOOBF_FUZZ_CASES", "5").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("5 cases per leg"));

    let out =
        cli().args(base).args(["--cases", "7"]).env("PROTOOBF_FUZZ_CASES", "5").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("7 cases per leg"));
}

/// A profile with asymmetric rx/tx fuzzes both gateway legs.
#[test]
fn fuzz_profile_covers_both_gateway_legs() {
    let path = write_profile("fuzz", ASYM_PROFILE);
    let out = cli().args(["fuzz", "--profile"]).arg(&path).args(["--cases", "5"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tx DnsQuery"), "{stderr}");
    assert!(stderr.contains("rx DnsResponse"), "{stderr}");
}

#[test]
fn resilience_exports_the_trajectory_json() {
    let out_path = std::env::temp_dir().join("protoobf-cli-test-resilience.json");
    let out = cli()
        .args(["resilience", "--samples", "4", "--max-level", "1", "-o"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("level 0:"), "{stderr}");
    assert!(stderr.contains("level 1:"), "{stderr}");
    assert!(stderr.contains("wrote"), "{stderr}");
    let json = std::fs::read_to_string(&out_path).unwrap();
    assert!(json.contains("\"prefix\": \"resilience\""));
    assert!(json.contains("resilience/level-1"));

    // Without -o the JSON lands on stdout.
    let out = cli().args(["resilience", "--samples", "4", "--max-level", "0"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("resilience/level-0"));
}

#[test]
fn resilience_rejects_a_spec_argument() {
    let out = cli().args(["resilience", "builtin:dns-query"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// `lint` over a clean builtin: zero diagnostics, exit 0.
#[test]
fn lint_passes_a_clean_builtin() {
    let out = cli()
        .args(["lint", "builtin:modbus-request", "--level", "2", "--key", "lint"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lint: 0 error(s), 0 warning(s)"), "{stdout}");
}

/// DNS retains the label/terminator ambiguity by protocol convention:
/// `lint` reports it as an `L002` warning and still exits 0.
#[test]
fn lint_warns_on_dns_terminator_aliasing() {
    let out = cli().args(["lint", "builtin:dns-query", "--level", "1"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("L002 warning"), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

/// `--deny-warnings` turns those warnings into exit 1.
#[test]
fn lint_deny_warnings_fails_on_warnings() {
    let out = cli()
        .args(["lint", "builtin:dns-query", "--level", "1", "--deny-warnings"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deny-warnings"));

    // A warning-free spec passes even under --deny-warnings.
    let out = cli()
        .args(["lint", "builtin:modbus-response", "--level", "2", "--deny-warnings"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A statically false optional branch in a user spec is an L001 warning.
#[test]
fn lint_flags_unreachable_optional() {
    let path = write_spec(
        "lint-unreachable",
        r#"
        message M {
            u8 version = const 2;
            optional legacy if version == 1 {
                u16 pad;
            }
        }
        "#,
    );
    let out = cli().args(["lint"]).arg(&path).args(["--deny-warnings"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("L001 warning"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `lint --profile` covers both legs of an asymmetric deployment.
#[test]
fn lint_profile_covers_both_legs() {
    let path = write_profile("lint", ASYM_PROFILE);
    let out = cli().args(["lint", "--profile"]).arg(&path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tx DnsQuery"), "{stdout}");
    assert!(stdout.contains("rx DnsResponse"), "{stdout}");
}

/// `lint` without a target is a usage error (exit 2).
#[test]
fn lint_without_target_is_a_usage_error() {
    let out = cli().args(["lint"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
