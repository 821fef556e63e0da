//! Property and integration tests of the [`protoobf_core::profile`]
//! layer: the text format round-trips **exactly** for arbitrary
//! profiles, and the fingerprint behaves like a derivation digest —
//! equal profiles agree, any divergence (key above all) is detected.

use proptest::prelude::*;
use protoobf_core::profile::{Profile, SpecSource};
use protoobf_core::{FormatGraph, TransformKind};

/// DSL-backed resolver: both test sources are realistic little protocols
/// parsed through the spec crate (the same path the facade's standard
/// resolver takes for files).
fn resolver(src: &SpecSource) -> Result<FormatGraph, String> {
    let text = match src {
        SpecSource::Builtin(n) if n == "ping" => {
            r#"
            message Ping {
                u16 id;
                u16 length = len(payload);
                bytes payload sized_by length;
            }
            "#
        }
        SpecSource::Builtin(n) if n == "pong" => {
            r#"
            message Pong {
                u16 id;
                u8 status;
                ascii note until ";";
            }
            "#
        }
        other => return Err(format!("unknown test source {other}")),
    };
    protoobf_spec::parse_spec(text).map_err(|e| e.to_string())
}

fn ping() -> SpecSource {
    "builtin:ping".parse().unwrap()
}

fn pong() -> SpecSource {
    "builtin:pong".parse().unwrap()
}

/// Builds a profile from raw generated parts.
#[allow(clippy::too_many_arguments)]
fn assemble(
    symmetric: bool,
    tx_builtin: bool,
    tx_name: String,
    rx_name: String,
    key: Vec<u8>,
    level: u32,
    transform_mask: u16,
    max_frame: usize,
) -> Profile {
    let mk = |builtin: bool, name: &str| -> SpecSource {
        if builtin {
            format!("builtin:{name}").parse().unwrap()
        } else {
            format!("specs/{name}.pobf").parse().unwrap()
        }
    };
    let tx = mk(tx_builtin, &tx_name);
    let mut p = if symmetric {
        Profile::symmetric(tx)
    } else {
        Profile::asymmetric(tx, mk(!tx_builtin, &rx_name))
    };
    p = p.key(key).level(level).max_frame(max_frame);
    let allowed: Vec<TransformKind> = TransformKind::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| transform_mask & (1 << i) != 0)
        .map(|(_, &k)| k)
        .collect();
    p.transforms(allowed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(to_text(p)) == p` for arbitrary profiles: random keys
    /// (including unprintable and quote/backslash bytes), spec names,
    /// levels, transform subsets and frame limits.
    #[test]
    fn text_round_trips(
        symmetric in any::<bool>(),
        tx_builtin in any::<bool>(),
        tx_name in "[a-z][a-z0-9-]{0,11}",
        rx_name in "[a-z][a-z0-9-]{0,11}",
        key in proptest::collection::vec(any::<u8>(), 0..32),
        level in 0u32..6,
        transform_mask in any::<u16>(),
        max_frame in 1usize..(1 << 26),
    ) {
        let p = assemble(
            symmetric, tx_builtin, tx_name, rx_name, key, level,
            transform_mask & 0x1FFF, max_frame,
        );
        let text = p.to_text();
        let back = Profile::parse(&text);
        prop_assert!(back.is_ok(), "canonical text must re-parse: {text:?} -> {back:?}");
        prop_assert_eq!(back.unwrap(), p, "round-trip must be exact: {}", text);
    }

    /// Equal profiles derive equal fingerprints; flipping a single key
    /// byte changes the fingerprint (the mismatch check peers run before
    /// sending traffic).
    #[test]
    fn fingerprints_track_the_key(
        key in proptest::collection::vec(any::<u8>(), 1..16),
        flip_at in any::<usize>(),
        level in 1u32..4,
    ) {
        let base = Profile::symmetric(ping()).key(&key).level(level);
        let copy = Profile::parse(&base.to_text()).unwrap();
        prop_assert_eq!(
            base.build_with(&resolver).unwrap().fingerprint(),
            copy.build_with(&resolver).unwrap().fingerprint(),
        );
        let mut wrong = key.clone();
        let at = flip_at % wrong.len();
        wrong[at] ^= 0x01;
        let imposter = Profile::symmetric(ping()).key(&wrong).level(level);
        prop_assert_ne!(
            base.build_with(&resolver).unwrap().fingerprint(),
            imposter.build_with(&resolver).unwrap().fingerprint(),
            "flipping key byte {} went undetected", at
        );
    }
}

#[test]
fn asymmetric_profile_round_trips_and_builds() {
    let p = Profile::asymmetric(ping(), pong()).key("integration").level(2);
    let copy = Profile::parse(&p.to_text()).unwrap();
    assert_eq!(copy, p);
    let a = p.build_with(&resolver).unwrap();
    let b = copy.build_with(&resolver).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.tx_service().codec().plain().name(), "Ping");
    assert_eq!(a.rx_service().codec().plain().name(), "Pong");
}

#[test]
fn endpoints_from_one_profile_interoperate() {
    // The initiator's tx stack and the responder's rx stack are the same
    // derived codec: a wire serialized by one parses on the other.
    let p = Profile::asymmetric(ping(), pong()).key("interop").level(2);
    let initiator = p.build_with(&resolver).unwrap();
    let responder = Profile::parse(&p.to_text()).unwrap().build_with(&resolver).unwrap();
    assert_eq!(initiator.fingerprint(), responder.fingerprint());

    let tx = initiator.tx_service();
    let mut msg = tx.codec().message_seeded(1);
    msg.set_uint("id", 7).unwrap();
    msg.set("payload", b"profile-driven".as_slice()).unwrap();
    let mut wire = Vec::new();
    tx.serializer().serialize_into(&msg, &mut wire).unwrap();

    // Responder parses the initiator's bytes with its own derivation.
    let back = responder.tx_service().parser().parse_in_place(&wire).unwrap().get_uint("id");
    assert_eq!(back.unwrap(), 7);
}

#[test]
fn mismatched_keys_fail_to_interoperate_and_fingerprints_say_so_first() {
    let good = Profile::symmetric(ping()).key("right").level(2);
    let bad = Profile::symmetric(ping()).key("wrong").level(2);
    let a = good.build_with(&resolver).unwrap();
    let b = bad.build_with(&resolver).unwrap();
    // The cheap pre-traffic check already disagrees...
    assert_ne!(a.fingerprint(), b.fingerprint());
    // ...and it is telling the truth: the stacks really diverged (the
    // wire from one side does not survive the other side's parser as the
    // same message, if it parses at all).
    let mut msg = a.tx_service().codec().message_seeded(3);
    msg.set_uint("id", 9).unwrap();
    msg.set("payload", b"key mismatch".as_slice()).unwrap();
    let mut wire = Vec::new();
    a.tx_service().serializer().serialize_into_seeded(&msg, &mut wire, 5).unwrap();
    let survived = match b.tx_service().parser().parse_in_place(&wire) {
        Err(_) => false,
        Ok(parsed) => {
            parsed.get_uint("id").ok() == Some(9)
                && parsed.get("payload").map(|v| v.as_bytes() == b"key mismatch").unwrap_or(false)
        }
    };
    assert!(!survived, "mismatched keys must not interoperate silently");
}

#[test]
fn stretch_key_derivation_is_pinned() {
    // Deployed peers derive seeds independently; an accidental change to
    // the derivation would break every existing profile. Pin it.
    assert_eq!(protoobf_core::profile::stretch_key(b""), 0x613a_b7c5_885d_9bfc);
    assert_eq!(protoobf_core::profile::stretch_key(b"secret"), 0xd7a5_9c1d_59c7_8f70);
}

#[test]
fn plan_digest_is_stable_within_a_derivation() {
    let ep = Profile::symmetric(ping()).key("stable").level(2).build_with(&resolver).unwrap();
    let d1 = ep.tx_service().codec().plan().digest();
    let ep2 = Profile::symmetric(ping()).key("stable").level(2).build_with(&resolver).unwrap();
    assert_eq!(d1, ep2.tx_service().codec().plan().digest());
    let other = Profile::symmetric(ping()).key("other").level(2).build_with(&resolver).unwrap();
    assert_ne!(d1, other.tx_service().codec().plan().digest());
}
