//! No-false-positive sweep for the static verifier and spec linter: every
//! builtin protocol, at every experiment level, must verify with zero
//! errors — including the clear↔obfuscated transcode pairings a gateway
//! deployment would compile. The tamper tests inside `core::verify` prove
//! each rule *fires*; this sweep proves the rules stay *silent* on every
//! derivation the project ships.

use protoobf::core::plan::CopyProgram;
use protoobf::core::verify;
use protoobf::protocols::BUILTIN_NAMES;
use protoobf::spec::lint;
use protoobf::{Codec, Endpoint, Profile, ProfileExt, SpecSource};

fn endpoint(name: &str, level: u32) -> Endpoint {
    Profile::symmetric(SpecSource::Builtin(name.to_string()))
        .key("lint sweep")
        .level(level)
        .build()
        .expect("builtin derives")
}

/// Verifies one leg the way `protoobf lint` does: the plan + channel-map
/// pass, then both directions of the endpoint's clear↔obfuscated gateway
/// pairing.
fn assert_verifies_clean(label: &str, codec: &Codec, clear: &Codec) {
    let diags = verify::verify_codec(codec);
    assert!(diags.is_empty(), "{label}: {diags:?}");
    for (dir, src, dst) in [("clear→obf", clear, codec), ("obf→clear", codec, clear)] {
        let prog = CopyProgram::compile(src.obf_graph(), dst.obf_graph())
            .expect("identity pairing shares the plain spec");
        let diags = verify::verify_copy_program(src.obf_graph(), dst.obf_graph(), &prog);
        assert!(diags.is_empty(), "{label} {dir}: {diags:?}");
    }
}

#[test]
fn all_builtins_verify_clean_across_levels() {
    for name in BUILTIN_NAMES {
        for level in 0..=3 {
            let ep = endpoint(name, level);
            let label = format!("{name} level {level}");
            assert_verifies_clean(&label, ep.tx_service().codec(), ep.clear_tx_service().codec());
        }
    }
}

/// Builtins may carry *warnings* (DNS/HTTP retain inherent terminator
/// ambiguity by protocol convention) but the lint pass must never produce
/// a surprise: the warning set is stable per protocol and modbus is
/// entirely clean.
#[test]
fn builtin_lint_warnings_are_stable() {
    for name in BUILTIN_NAMES {
        let ep = endpoint(name, 2);
        let lints = lint::lint_graph(ep.tx_service().codec().plain());
        match name {
            "modbus-request" | "modbus-response" => {
                assert!(lints.is_empty(), "{name}: {lints:?}");
            }
            _ => {
                // DNS: zero-length labels alias the name terminator.
                // HTTP: free text can begin with the header terminator.
                assert!(!lints.is_empty(), "{name}: expected the known ambiguity");
                assert!(
                    lints.iter().all(|l| l.code == lint::TERMINATOR_ALIASING),
                    "{name}: {lints:?}"
                );
            }
        }
    }
}

/// Both legs of an asymmetric request/response profile verify clean —
/// the exact configuration the loopback smoke chain deploys.
#[test]
fn asymmetric_profile_verifies_both_legs() {
    let profile = Profile::asymmetric(
        SpecSource::Builtin("dns-query".into()),
        SpecSource::Builtin("dns-response".into()),
    )
    .key("asym sweep")
    .level(3);
    let ep = profile.build().expect("derives");
    assert!(!ep.is_symmetric(), "asymmetric profile has an rx codec");
    assert_verifies_clean("tx dns-query", ep.tx_service().codec(), ep.clear_tx_service().codec());
    assert_verifies_clean(
        "rx dns-response",
        ep.rx_service().codec(),
        ep.clear_rx_service().codec(),
    );
}
