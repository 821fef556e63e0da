//! Differential fuzzing of the two parser implementations.
//!
//! Valid wires are sampled per spec × obfuscation plan, then mutated
//! (byte flips, truncations, insertions, deletions). For every input —
//! valid or hostile — the compiled-plan session (`parse_in_place`) and
//! the reference graph-walk parser (`core::reference::parse`) must **agree**:
//! both fail, or both succeed with structurally equal messages. Neither
//! may panic, hang, or overflow.
//!
//! The generated case count is bounded (override with the
//! `PROTOOBF_FUZZ_CASES` environment variable) so the harness stays fast
//! in CI; `tests/corpus/` pins previously interesting inputs as
//! regressions, exercised by `corpus_agreement` on every run.

use proptest::prelude::*;
use protoobf::core::reference;
use protoobf::core::sample::random_message;
use protoobf::protocols::{builtin, builtin_named, BUILTIN_TAGS};
use protoobf::{Codec, FormatGraph, Obfuscator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The builtin spec tagged `tag` in [`BUILTIN_TAGS`] (the `<tag>` of
/// `tests/corpus/<tag>-l<level>-p<seed>-*.bin`).
fn graph_of(tag: &str) -> FormatGraph {
    builtin_named(tag).and_then(builtin).unwrap_or_else(|| panic!("unknown proto tag {tag:?}"))
}

fn codec_for(graph: &FormatGraph, level: u32, seed: u64) -> Codec {
    if level == 0 {
        Codec::identity(graph)
    } else {
        Obfuscator::new(graph).seed(seed).max_per_node(level).obfuscate().unwrap()
    }
}

/// Normalized bytes of a message: reference-serialized with a fixed seed.
fn normalize(codec: &Codec, msg: &protoobf::Message<'_>) -> Vec<u8> {
    reference::serialize(codec.obf_graph(), msg, 0).expect("normalization serializes")
}

/// Runs both parsers over `bytes` and checks they agree. Returns an error
/// description on disagreement.
fn check_agreement(codec: &Codec, bytes: &[u8]) -> Result<(), String> {
    let walk = reference::parse(codec.obf_graph(), bytes);
    let mut session = codec.parser();
    let plan = session.parse_in_place(bytes);
    match (walk, plan) {
        (Ok(w), Ok(_)) => {
            let p = session.take_message();
            let (nw, np) = (normalize(codec, &w), normalize(codec, &p));
            if nw != np {
                return Err(format!(
                    "both parsers accepted {} bytes but recovered different structures\n  \
                     walk: {nw:02x?}\n  plan: {np:02x?}",
                    bytes.len()
                ));
            }
            Ok(())
        }
        (Err(_), Err(_)) => Ok(()),
        (Ok(_), Err(e)) => {
            Err(format!("graph-walk accepted but plan session rejected ({e}); input: {bytes:02x?}"))
        }
        (Err(e), Ok(_)) => {
            Err(format!("plan session accepted but graph-walk rejected ({e}); input: {bytes:02x?}"))
        }
    }
}

/// One mutation instruction: `kind` selects flip/truncate/insert/delete,
/// `pos`/`val` parameterize it (reduced modulo the current length).
fn mutate(wire: &mut Vec<u8>, kind: u8, pos: usize, val: u8) {
    if wire.is_empty() {
        wire.push(val);
        return;
    }
    match kind % 4 {
        0 => {
            let p = pos % wire.len();
            wire[p] ^= val | 1; // always changes the byte
        }
        1 => {
            let p = pos % (wire.len() + 1);
            wire.truncate(p);
        }
        2 => {
            let p = pos % (wire.len() + 1);
            wire.insert(p, val);
        }
        _ => {
            let p = pos % wire.len();
            wire.remove(p);
        }
    }
}

fn fuzz_cases() -> u32 {
    std::env::var("PROTOOBF_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn mutated_wires_parse_identically(
        proto_idx in 0..BUILTIN_TAGS.len(),
        level in 0u32..=3,
        plan_seed in 0u64..3,
        msg_seed in any::<u64>(),
        mutations in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..5),
    ) {
        let graph = graph_of(BUILTIN_TAGS[proto_idx]);
        let codec = codec_for(&graph, level, plan_seed);
        let mut rng = StdRng::seed_from_u64(msg_seed);
        let msg = random_message(&codec, &mut rng);
        let mut wire = reference::serialize(codec.obf_graph(), &msg, msg_seed ^ 0x5EED)
            .expect("sampled messages serialize");

        // The pristine wire must parse identically (and successfully).
        prop_assert!(
            reference::parse(codec.obf_graph(), &wire).is_ok(),
            "valid wire must parse"
        );
        if let Err(e) = check_agreement(&codec, &wire) {
            prop_assert!(false, "{} l{level} p{plan_seed} valid wire: {e}", BUILTIN_TAGS[proto_idx]);
        }

        // Mutated wires: agreement, not success.
        for (kind, pos, val) in &mutations {
            mutate(&mut wire, *kind, *pos, *val);
            if let Err(e) = check_agreement(&codec, &wire) {
                prop_assert!(
                    false,
                    "{} l{level} p{plan_seed} after {:?}: {e}",
                    BUILTIN_TAGS[proto_idx],
                    mutations
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// plan-aware engine (`core::fuzz`)
// ---------------------------------------------------------------------------

use protoobf::core::fuzz::{fuzz_codec, FuzzConfig};

/// The grammar-aware engine behind `protoobf fuzz`: mutations are aimed
/// at the slot boundaries of traced serializations instead of uniform
/// byte positions, and every input additionally runs the transcode
/// differential (compiled copy programs vs reference walk). Shares the
/// `PROTOOBF_FUZZ_CASES` budget with the proptest harness above so the
/// CI stress matrix drives both from one knob.
#[test]
fn plan_aware_engine_agrees_across_the_builtin_corpus() {
    let per_config = fuzz_cases().div_ceil(8).max(8);
    for (pi, proto) in BUILTIN_TAGS.iter().enumerate() {
        for level in [0u32, 2] {
            let graph = graph_of(proto);
            let codec = codec_for(&graph, level, pi as u64);
            let cfg = FuzzConfig {
                cases: per_config,
                seed: 0xD1FF ^ ((pi as u64) << 8) ^ u64::from(level),
                ..FuzzConfig::default()
            };
            let report = fuzz_codec(&codec, &cfg);
            assert!(
                report.divergences.is_empty(),
                "{proto} l{level}: {} divergence(s), first: {}",
                report.divergences.len(),
                report.divergences[0].detail
            );
            assert!(report.accepted > 0, "{proto} l{level}: pristine wires must parse");
            assert!(
                report.signatures > 1,
                "{proto} l{level}: mutation corpus collapsed to one coverage signature"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// regression corpus
// ---------------------------------------------------------------------------

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Parses `<proto>-l<level>-p<planseed>-<desc>.bin` into a codec config.
fn corpus_config(name: &str) -> Option<(String, u32, u64)> {
    let mut parts = name.strip_suffix(".bin")?.splitn(4, '-');
    let proto = parts.next()?.to_string();
    let level = parts.next()?.strip_prefix('l')?.parse().ok()?;
    let seed = parts.next()?.strip_prefix('p')?.parse().ok()?;
    Some((proto, level, seed))
}

#[test]
fn corpus_agreement() {
    let dir = corpus_dir();
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".bin") {
            continue;
        }
        let (proto, level, plan_seed) =
            corpus_config(&name).unwrap_or_else(|| panic!("bad corpus file name {name:?}"));
        let graph = graph_of(&proto);
        let codec = codec_for(&graph, level, plan_seed);
        let bytes = std::fs::read(&path).unwrap();
        if let Err(e) = check_agreement(&codec, &bytes) {
            panic!("corpus {name}: {e}");
        }
        checked += 1;
    }
    assert!(checked >= 6, "regression corpus went missing (found {checked} files)");
}

/// Regenerates the checked-in corpus (`cargo test -p protoobf --test
/// fuzz_differential -- --ignored regen_corpus`). Emits, per config, the
/// valid wire plus deterministic truncation/flip/extension variants.
#[test]
#[ignore]
fn regen_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (proto, level, plan_seed) in
        [("dnsr", 2u32, 0u64), ("httpq", 2, 1), ("modq", 3, 0), ("dnsq", 1, 2)]
    {
        let graph = graph_of(proto);
        let codec = codec_for(&graph, level, plan_seed);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let msg = random_message(&codec, &mut rng);
        let wire = reference::serialize(codec.obf_graph(), &msg, 0xC0FFEE).unwrap();
        let stem = format!("{proto}-l{level}-p{plan_seed}");
        let write = |desc: &str, bytes: &[u8]| {
            std::fs::write(dir.join(format!("{stem}-{desc}.bin")), bytes).unwrap();
        };
        write("valid", &wire);
        write("trunc", &wire[..wire.len() / 2]);
        let mut flipped = wire.clone();
        flipped[wire.len() / 3] ^= 0x80;
        write("flip", &flipped);
        let mut extended = wire.clone();
        extended.extend_from_slice(&[0xAA; 7]);
        write("extend", &extended);
        write("empty", &[]);
    }
}
