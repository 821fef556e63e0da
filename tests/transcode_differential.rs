//! Differential testing of the gateway relay's transcode step.
//!
//! The relay re-expresses every parsed message under the other leg's
//! codec. Two implementations exist: the compiled copy-program path
//! (`Message::transcode_into`, the production hot path) and the
//! graph-walk reference (`reference::transcode_into`). For every
//! input the proptest mutation harness can produce — pristine wires,
//! mutated wires the parser still accepts, and the pinned corpus under
//! `tests/corpus/` — the two must **agree**: identical destination
//! messages (byte-identical under the reference serializer, including
//! the random share streams drawn from identically seeded destination
//! RNGs), or the same typed error. Hostile frames never reach the
//! transcode step on either path: both parsers reject them with the
//! same typed error, which this harness re-checks on the corpus.

use proptest::prelude::*;
use protoobf::core::sample::random_message;
use protoobf::core::{reference, BuildError};
use protoobf::protocols::{builtin, builtin_named, dns, modbus, BUILTIN_TAGS};
use protoobf::{Codec, FormatGraph, Message, Obfuscator};
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

/// Transcodes `src` into `dst` through both implementations — fresh
/// destination messages with **identical RNG seeds**, so the random
/// shares of op-splits must line up too — and demands byte-identical
/// results (or the same typed error) under the reference serializer.
fn check_transcode_agreement(src: &Message<'_>, dst: &Codec, seed: u64) -> Result<(), String> {
    let mut compiled = dst.message_seeded(seed);
    let mut walked = dst.message_seeded(seed);
    let ra = src.transcode_into(&mut compiled);
    let rb = reference::transcode_into(src, &mut walked);
    match (ra, rb) {
        (Ok(()), Ok(())) => {
            let sa = reference::serialize(dst.obf_graph(), &compiled, 0).map_err(|e| e.to_string());
            let sb = reference::serialize(dst.obf_graph(), &walked, 0).map_err(|e| e.to_string());
            if sa != sb {
                return Err(format!(
                    "transcode paths diverged onto {}\n  compiled: {sa:02x?}\n  walk:     {sb:02x?}",
                    dst.plain().name()
                ));
            }
            Ok(())
        }
        (Err(ea), Err(eb)) => {
            if std::mem::discriminant(&ea) == std::mem::discriminant(&eb) {
                Ok(())
            } else {
                Err(format!("transcode errors diverged: compiled {ea:?} vs walk {eb:?}"))
            }
        }
        (ra, rb) => Err(format!("transcode outcomes diverged: compiled {ra:?} vs walk {rb:?}")),
    }
}

/// Runs the relay step over one wire: parse it under `codec`; when the
/// parser accepts, the parsed message must transcode identically through
/// both paths onto the clear codec and onto a *different* obfuscation of
/// the same spec (the two gateway directions).
fn check_relay(
    codec: &Codec,
    clear: &Codec,
    other: &Codec,
    wire: &[u8],
    seed: u64,
) -> Result<(), String> {
    let mut session = codec.parser();
    if session.parse_in_place(wire).is_err() {
        // Hostile frame: it never reaches the transcode step. Parser
        // agreement (same typed failure on both parser implementations)
        // is pinned by tests/fuzz_differential.rs and re-checked on the
        // corpus below.
        return Ok(());
    }
    let msg = session.take_message();
    check_transcode_agreement(&msg, clear, seed)?;
    check_transcode_agreement(&msg, other, seed)
}

/// One mutation instruction, as in `tests/fuzz_differential.rs`.
fn mutate(wire: &mut Vec<u8>, kind: u8, pos: usize, val: u8) {
    if wire.is_empty() {
        wire.push(val);
        return;
    }
    match kind % 4 {
        0 => {
            let p = pos % wire.len();
            wire[p] ^= val | 1;
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
    std::env::var("PROTOOBF_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn mutated_wires_transcode_identically(
        proto_idx in 0..BUILTIN_TAGS.len(),
        level in 0u32..=3,
        plan_seed in 0u64..3,
        msg_seed in any::<u64>(),
        mutations in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..5),
    ) {
        let graph = graph_of(BUILTIN_TAGS[proto_idx]);
        let codec = codec_for(&graph, level, plan_seed);
        let clear = Codec::identity(&graph);
        let other = codec_for(&graph, 2, plan_seed + 17);
        let mut rng = StdRng::seed_from_u64(msg_seed);
        let msg = random_message(&codec, &mut rng);
        let mut wire = reference::serialize(codec.obf_graph(), &msg, msg_seed ^ 0x5EED)
            .expect("sampled messages serialize");

        // The pristine wire parses, so the relay step definitely runs.
        if let Err(e) = check_relay(&codec, &clear, &other, &wire, msg_seed) {
            prop_assert!(false, "{} l{level} p{plan_seed} valid wire: {e}", BUILTIN_TAGS[proto_idx]);
        }
        // Mutated wires: whenever the parser still accepts, the relay
        // step must still agree.
        for (kind, pos, val) in &mutations {
            mutate(&mut wire, *kind, *pos, *val);
            if let Err(e) = check_relay(&codec, &clear, &other, &wire, msg_seed) {
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

/// Every pinned corpus wire — valid and hostile — through the relay
/// step: valid frames must transcode identically through both paths in
/// both gateway directions; hostile frames must fail *parsing* with the
/// same typed error on both parser implementations, never reaching the
/// transcode step on either.
#[test]
fn corpus_transcode_agreement() {
    let dir = corpus_dir();
    let mut checked = 0usize;
    let mut relayed = 0usize;
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
        let clear = Codec::identity(&graph);
        let other = codec_for(&graph, 2, plan_seed + 17);
        let bytes = std::fs::read(&path).unwrap();

        let mut session = codec.parser();
        match session.parse_in_place(&bytes) {
            Ok(_) => {
                let msg = session.take_message();
                if let Err(e) = check_transcode_agreement(&msg, &clear, 7) {
                    panic!("corpus {name} (clear direction): {e}");
                }
                if let Err(e) = check_transcode_agreement(&msg, &other, 7) {
                    panic!("corpus {name} (re-obfuscate direction): {e}");
                }
                relayed += 1;
            }
            Err(plan_err) => {
                // Hostile frame: the graph-walk parser must reject it
                // with the same typed error — the relay tears the
                // connection down identically no matter the parser.
                match reference::parse(codec.obf_graph(), &bytes) {
                    Err(walk_err) => assert_eq!(
                        std::mem::discriminant(&plan_err),
                        std::mem::discriminant(&walk_err),
                        "corpus {name}: parsers disagree on the failure ({plan_err:?} vs {walk_err:?})"
                    ),
                    Ok(_) => panic!("corpus {name}: walk parser accepted what the plan rejected"),
                }
            }
        }
        checked += 1;
    }
    assert!(checked >= 6, "regression corpus went missing (found {checked} files)");
    assert!(relayed >= 4, "corpus lost its valid wires (only {relayed} transcoded)");
}

/// Both transcode implementations reject a foreign specification with
/// the same typed error ([`BuildError::GraphMismatch`]).
#[test]
fn foreign_spec_rejected_identically() {
    let dns = codec_for(&dns::query_graph(), 1, 3);
    let modbus = codec_for(&modbus::request_graph(), 1, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let msg = random_message(&dns, &mut rng);
    let mut compiled = modbus.message_seeded(1);
    let mut walked = modbus.message_seeded(1);
    assert!(matches!(msg.transcode_into(&mut compiled), Err(BuildError::GraphMismatch { .. })));
    assert!(matches!(
        reference::transcode_into(&msg, &mut walked),
        Err(BuildError::GraphMismatch { .. })
    ));
}

mod kernel;

/// Column copies agree with the per-element walk. Every seeded message
/// of the loop-kernel grammar is serialized and parsed under each level,
/// then transcoded through both paths onto the clear codec and onto
/// another obfuscation. At level 0 the fixed-field tables and the
/// repetition copy as columns; the table of tables and the
/// optional-holding table do not.
#[test]
fn loop_kernel_grammar_transcodes_identically() {
    let graph = protoobf::spec::parse_spec(kernel::KERNEL_SPEC).unwrap();
    let clear = Codec::identity(&graph);
    let clear_prog =
        protoobf::core::plan::CopyProgram::compile(clear.obf_graph(), clear.obf_graph())
            .expect("same plain spec");
    let columns = clear_prog.column_copies();
    assert_eq!((columns.loops, columns.kernels), (6, 4), "records, items, regs and marks");
    for level in 0..=3u32 {
        for plan_seed in 0..4u64 {
            let codec = codec_for(&graph, level, plan_seed);
            let other = codec_for(&graph, 2, plan_seed + 17);
            let mut rng = StdRng::seed_from_u64(plan_seed * 37 + u64::from(level));
            for round in 0..4u64 {
                let msg = kernel::kernel_message(&codec, &mut rng);
                let wire = codec.serialize_seeded(&msg, round).unwrap();
                if let Err(e) = check_relay(&codec, &clear, &other, &wire, round) {
                    panic!("kernel level={level} plan={plan_seed} round={round}: {e}");
                }
                // The messages as built (never parsed) copy the same way.
                check_transcode_agreement(&msg, &clear, round)
                    .and_then(|()| check_transcode_agreement(&msg, &other, round))
                    .unwrap_or_else(|e| panic!("kernel level={level} plan={plan_seed}: {e}"));
            }
        }
    }
}
