//! Differential tests of the compiled-plan codec path against the
//! reference graph-walk interpreters.
//!
//! `Codec::serialize`/`Codec::parse` run compiled-plan sessions
//! ([`protoobf::core::plan::CodecPlan`]); the free functions
//! `core::reference::serialize` / `core::reference::parse` interpret
//! the obfuscation graph directly. For every spec × obfuscation plan ×
//! message the two must produce **byte-identical** wire output and
//! messages that round-trip to the same values. Sessions are reused
//! across messages to also catch stale scratch-state bugs.

use protoobf::core::reference;
use protoobf::core::sample::random_message;
use protoobf::protocols::{dns, http, modbus};
use protoobf::{Codec, FormatGraph, Message, Obfuscator};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod kernel;
use kernel::{kernel_message, KERNEL_SPEC};

fn codec_for(graph: &FormatGraph, level: u32, seed: u64) -> Codec {
    if level == 0 {
        Codec::identity(graph)
    } else {
        Obfuscator::new(graph).seed(seed).max_per_node(level).obfuscate().unwrap()
    }
}

/// Normalized bytes of a message: reference-serialized with a fixed seed.
/// Two messages carrying the same wires/presence/counts normalize
/// identically, so this is a structural equality check.
fn normalize(codec: &Codec, msg: &Message<'_>) -> Vec<u8> {
    reference::serialize(codec.obf_graph(), msg, 0).expect("normalization serializes")
}

/// Serializes through both paths (same seed) and parses through both
/// paths, asserting byte and structural equality at every step.
fn assert_equivalent(codec: &Codec, msg: &Message<'_>, seed: u64, what: &str) {
    let reference = reference::serialize(codec.obf_graph(), msg, seed)
        .unwrap_or_else(|e| panic!("{what}: reference serialize failed: {e}"));
    let planned = codec
        .serialize_seeded(msg, seed)
        .unwrap_or_else(|e| panic!("{what}: plan serialize failed: {e}"));
    assert_eq!(planned, reference, "{what}: plan and graph-walk wires differ");

    let ref_parsed = reference::parse(codec.obf_graph(), &reference)
        .unwrap_or_else(|e| panic!("{what}: reference parse failed: {e}"));
    let plan_parsed =
        codec.parse(&planned).unwrap_or_else(|e| panic!("{what}: plan parse failed: {e}"));
    assert_eq!(
        normalize(codec, &plan_parsed),
        normalize(codec, &ref_parsed),
        "{what}: plan and graph-walk parses recovered different messages"
    );
}

#[test]
fn plan_matches_graph_walk_on_protocol_corpus() {
    let cases: Vec<(&str, FormatGraph)> = vec![
        ("modbus-req", modbus::request_graph()),
        ("modbus-resp", modbus::response_graph()),
        ("http-req", http::request_graph()),
        ("http-resp", http::response_graph()),
        ("dns-query", dns::query_graph()),
        ("dns-resp", dns::response_graph()),
    ];
    for (name, graph) in &cases {
        for level in 0..=3u32 {
            for plan_seed in 0..3u64 {
                let codec = codec_for(graph, level, plan_seed);
                let mut rng = StdRng::seed_from_u64(plan_seed * 31 + u64::from(level));
                for round in 0..3u64 {
                    let msg = random_message(&codec, &mut rng);
                    let what = format!("{name} level={level} plan={plan_seed} round={round}");
                    assert_equivalent(&codec, &msg, round ^ 0x5EED, &what);
                }
            }
        }
    }
}

#[test]
fn reused_sessions_agree_with_fresh_ones() {
    // One serializer/parser pair per codec, driven over many different
    // messages: reused scratch state must never leak between messages.
    let graph = dns::response_graph();
    for level in [0u32, 2, 3] {
        let codec = codec_for(&graph, level, 7);
        let mut serializer = codec.serializer();
        let mut parser = codec.parser();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(99 + u64::from(level));
        for round in 0..20u64 {
            let msg = random_message(&codec, &mut rng);
            let seed = round.wrapping_mul(0x9E37_79B9);
            serializer
                .serialize_into_seeded(&msg, &mut out, seed)
                .unwrap_or_else(|e| panic!("level {level} round {round}: serialize: {e}"));
            let reference = reference::serialize(codec.obf_graph(), &msg, seed)
                .unwrap_or_else(|e| panic!("level {level} round {round}: reference: {e}"));
            assert_eq!(out, reference, "level {level} round {round}: session wire diverged");

            let parsed = parser
                .parse_in_place(&out)
                .unwrap_or_else(|e| panic!("level {level} round {round}: parse: {e}"));
            let ref_parsed = reference::parse(codec.obf_graph(), &reference).unwrap();
            assert_eq!(
                reference::serialize(codec.obf_graph(), parsed, 0).unwrap(),
                reference::serialize(codec.obf_graph(), &ref_parsed, 0).unwrap(),
                "level {level} round {round}: session parse diverged"
            );
        }
    }
}

#[test]
fn modbus_function_sweep_is_equivalent() {
    let graph = modbus::request_graph();
    for level in 0..=4u32 {
        let codec = codec_for(&graph, level, 42);
        let mut rng = StdRng::seed_from_u64(u64::from(level));
        for f in modbus::Function::ALL {
            let msg = modbus::build_request(&codec, f, &mut rng);
            assert_equivalent(&codec, &msg, 11, &format!("modbus {f:?} level={level}"));
        }
    }
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Wire digest of one golden case: a seeded `random_message` on the
/// codec of `graph` at `level` (obfuscation seed `seed`), serialized with
/// a seeded session.
fn golden_digest(graph: &FormatGraph, level: u32, seed: u64) -> u64 {
    let codec = codec_for(graph, level, seed);
    let mut rng = StdRng::seed_from_u64(0x601D ^ (seed << 8) ^ u64::from(level));
    let msg = random_message(&codec, &mut rng);
    let mut wire = Vec::new();
    codec.serializer().serialize_into_seeded(&msg, &mut wire, seed).unwrap();
    fnv1a(&wire)
}

/// Golden wire digests per builtin, `[level][seed]`, recorded once. They
/// pin what the accessor layer (setters, sampler) writes into a message:
/// any change in how values are distributed, or in the random draws that
/// produce them, moves a digest.
const GOLDEN_WIRES: [(&str, [[u64; 3]; 4]); 6] = [
    (
        "dns-query",
        [
            [0xfe92c2c10e4f597d, 0x67b23f7e20d61196, 0xf2e4d587d4d44d79],
            [0x4db4e0ff6c03929c, 0xab8776bc2205e1ce, 0xab3884f072f628b3],
            [0x6eb94c78fdfb21ed, 0x1286bff98e20a44b, 0x29f1606af4a952b4],
            [0x081b39f71ce9f909, 0x3feeab47582d9919, 0x1fd0db2e9bbe05bf],
        ],
    ),
    (
        "dns-response",
        [
            [0x5ab774269629f571, 0xf35a7056b4175eff, 0xf2e4d587d4d44d79],
            [0x54fca1a44f77e5de, 0x2a1107563d49c7ae, 0x457307e796b1c36e],
            [0x4ab1a1b8a9e0a76e, 0x6577f36cea76ca72, 0xb9b17ea56a9fcebc],
            [0x422871515e5b7d8e, 0x8de573ae953a5afb, 0x48c97a0a0d9d619a],
        ],
    ),
    (
        "http-request",
        [
            [0xd63541407be73e2f, 0x471c1ec2728aa41d, 0xa64b0aa6fcb93fe4],
            [0xab9c503ca1e24033, 0xf3ef58a3e5da6773, 0xf07a1c9757e46a66],
            [0x740ab6ac4d6e1522, 0xecbf253c57cedfb9, 0x76c67178c9c35a06],
            [0xe694c63b1c7ee5d9, 0x787f0ccb9d99b018, 0x054f34e549d3367b],
        ],
    ),
    (
        "http-response",
        [
            [0x53bad94e2c975257, 0xb4220af019780483, 0x60370cdf7d65e69e],
            [0x6309eaad527bb1ac, 0x92eb9aec0527b9ca, 0x23cb4e2950bbf4d1],
            [0x967a3a93fc09c95c, 0xbdc325243e8e4e22, 0x76c67178c9c35a06],
            [0x49c2c4d1576ba296, 0xae1042d8f572e34a, 0x1ed467d5e8e2948b],
        ],
    ),
    (
        "modbus-request",
        [
            [0xc61a59b04fef2d38, 0x90b583d5156fe508, 0x5d3926e0eaa9b46f],
            [0x8054f516b87a435b, 0x4d402e132879ac65, 0xa7be7bc385e3f38b],
            [0xeac45afa00bca5eb, 0xd25aaed1fee723c3, 0x09b0b2437d408900],
            [0x8dd25150e27c1d36, 0x6890820477732398, 0x76c7a3d24f97cc88],
        ],
    ),
    (
        "modbus-response",
        [
            [0xc61a59b04fef2d38, 0x90b583d5156fe508, 0x5d3926e0eaa9b46f],
            [0x977543a7be41970d, 0x4d402e132879ac65, 0xa7be7bc385e3f38b],
            [0x48a57842ff95dc86, 0x5da85fcd94d5cb42, 0x14a8c9a354a9fd2f],
            [0x9f2deceb7ad0f427, 0xeb089834027d1d20, 0xd42adb2b209284b3],
        ],
    ),
];

#[test]
fn golden_wire_digests_are_pinned() {
    let mut got = Vec::new();
    for (name, _) in GOLDEN_WIRES {
        let graph = protoobf::protocols::builtin(name).unwrap();
        let mut table = [[0u64; 3]; 4];
        for level in 0..=3u32 {
            for seed in 0..3u64 {
                table[level as usize][seed as usize] = golden_digest(&graph, level, seed);
            }
        }
        got.push((name, table));
    }
    for (&(name, want), (_, table)) in GOLDEN_WIRES.iter().zip(&got) {
        assert_eq!(*table, want, "{name}: golden wire digests moved (got {table:#x?})");
    }
}

/// Carrier capacities and the serialized cover stream of one tunnel
/// encoder run (`http-request`, level 2, fixed payload), pinned.
#[test]
fn golden_tunnel_stream_is_pinned() {
    use protoobf::core::tunnel::TunnelEncoder;
    let codec = codec_for(&http::request_graph(), 2, 5);
    let payload: Vec<u8> = (0..160u32).map(|i| (i * 13 % 251) as u8).collect();
    let mut enc = TunnelEncoder::new(&codec, 21).unwrap();
    enc.push(&payload);
    enc.finish();
    let mut capacities = Vec::new();
    let mut stream = Vec::new();
    while let Some(frame) = enc.next_cover().unwrap() {
        capacities.push(enc.map().capacity(&frame.message));
        let mut wire = Vec::new();
        let seed = u64::from(frame.seq);
        codec.serializer().serialize_into_seeded(&frame.message, &mut wire, seed).unwrap();
        stream.extend_from_slice(&wire);
    }
    let want = [
        23, 22, 18, 14, 19, 17, 17, 14, 17, 16, 14, 21, 20, 13, 19, 15, 20, 20, 16, 15, 18, 15, 23,
        20, 17, 22, 13, 20, 20,
    ];
    assert_eq!(capacities, want, "tunnel carrier capacities moved");
    assert_eq!(
        fnv1a(&stream),
        0x28a6_075b_b549_d03a,
        "tunnel cover wires moved ({:#x})",
        fnv1a(&stream)
    );
}

/// The codec bench's bulk record table, shrunk: a counted table of 30-byte
/// records plus a rest-of-message tail.
const BULK_SPEC: &str = r#"
message Bulk {
    u16 count = count(records);
    tabular records count_by count {
        u32 key;
        u16 flags;
        bytes(24) payload;
    }
    bytes tail rest;
}
"#;

/// Field assignments of a bulk message with `n` records, in traversal
/// order.
fn bulk_fields(n: u32) -> Vec<(String, Vec<u8>)> {
    let mut fields = Vec::new();
    for i in 0..n {
        fields.push((format!("records[{i}].key"), (i * 7919).to_be_bytes().to_vec()));
        fields.push((format!("records[{i}].flags"), (i as u16 ^ 0x5A5A).to_be_bytes().to_vec()));
        let payload = (0..24u32).map(|b| (i * 31 + b) as u8).collect();
        fields.push((format!("records[{i}].payload"), payload));
    }
    fields.push(("tail".to_string(), b"tail bytes".to_vec()));
    fields
}

/// Field assignments of a DNS query with three questions of one to three
/// labels each (a repetition nested in a tabular), in traversal order.
fn dns_query_fields() -> Vec<(String, Vec<u8>)> {
    let mut fields =
        vec![("id".to_string(), vec![0x12, 0x34]), ("flags".to_string(), vec![0x01, 0x00])];
    for (q, name) in ["example.org", "a.b.example", "localhost"].iter().enumerate() {
        for (l, label) in name.split('.').enumerate() {
            fields.push((format!("questions[{q}].qname[{l}].label"), label.as_bytes().to_vec()));
        }
        fields.push((format!("questions[{q}].qtype"), vec![0, 1 + q as u8]));
        fields.push((format!("questions[{q}].qclass"), vec![0, 1]));
    }
    fields
}

/// `fields` in reverse order, interleaved: every second assignment from
/// the back first, then the rest. Later elements are set before earlier
/// ones, so the stores take their binary-insert path.
fn reversed_interleaved(fields: &[(String, Vec<u8>)]) -> Vec<(String, Vec<u8>)> {
    let rev: Vec<_> = fields.iter().rev().cloned().collect();
    rev.iter().step_by(2).chain(rev.iter().skip(1).step_by(2)).cloned().collect()
}

fn build<'c>(codec: &'c Codec, fields: &[(String, Vec<u8>)], seed: u64) -> Message<'c> {
    let mut msg = codec.message_seeded(seed);
    for (path, value) in fields {
        msg.set(path, value.clone()).unwrap_or_else(|e| panic!("set {path}: {e}"));
    }
    msg
}

/// A message's plain content as bytes: transcoded into the identity codec
/// of its plain graph, which draws no random shares, and serialized there.
fn plain_bytes(identity: &Codec, msg: &Message<'_>) -> Vec<u8> {
    let plain = msg.transcode(identity.obf_graph()).expect("transcode to the identity codec");
    identity.serialize_seeded(&plain, 0).expect("identity serialize")
}

/// Messages whose elements were set out of order (so the stores took
/// their binary-insert path) serialize through a reused session exactly
/// like the graph walk does, and carry the same message as an in-order
/// build. The setters draw random split shares in call order, so the two
/// builds' wires are compared directly only at level 0; at every level
/// the session's wire is parsed back and compared by plain content.
#[test]
fn out_of_order_stores_serialize_like_in_order_ones() {
    let bulk = protoobf::spec::parse_spec(BULK_SPEC).unwrap();
    let cases =
        [("bulk", bulk, bulk_fields(48)), ("dns-query", dns::query_graph(), dns_query_fields())];
    for (name, graph, fields) in &cases {
        let shuffled = reversed_interleaved(fields);
        let identity = Codec::identity(graph);
        for level in 0..=3u32 {
            for plan_seed in 0..3u64 {
                let what = format!("{name} level={level} plan={plan_seed}");
                let codec = codec_for(graph, level, plan_seed);
                let mut session = codec.serializer();
                let seed = plan_seed ^ 0x0DD;
                let mut wires = Vec::new();
                for msg in [build(&codec, fields, plan_seed), build(&codec, &shuffled, plan_seed)] {
                    let mut wire = Vec::new();
                    session.serialize_into_seeded(&msg, &mut wire, seed).unwrap();
                    let walk = reference::serialize(codec.obf_graph(), &msg, seed)
                        .unwrap_or_else(|e| panic!("{what}: reference serialize failed: {e}"));
                    assert_eq!(wire, walk, "{what}: session and graph walk differ");
                    wires.push(wire);
                }
                if level == 0 {
                    assert_eq!(wires[1], wires[0], "{what}: out-of-order wire differs");
                }
                let in_order = codec.parse(&wires[0]).unwrap();
                let out_of_order = codec.parse(&wires[1]).unwrap();
                assert_eq!(
                    plain_bytes(&identity, &out_of_order),
                    plain_bytes(&identity, &in_order),
                    "{what}: out-of-order build holds a different message"
                );
            }
        }
    }
}

/// The element kernels agree with the per-element walk byte for byte and
/// structure for structure, at every level, with and without pads in
/// the elements; at level 0 exactly the two fixed-field tables run them.
#[test]
fn loop_kernels_match_the_walk() {
    use protoobf::TransformKind::{ConstXor, PadInsert, ReadFromEnd};
    let graph = protoobf::spec::parse_spec(KERNEL_SPEC).unwrap();
    let coverage = codec_for(&graph, 0, 0).plan().element_kernels();
    assert_eq!((coverage.loops, coverage.kernels), (5, 3), "records, items and regs");
    let mut padded_runs = 0;
    let mut shapes = MirrorShapes::default();
    for level in 0..=3u32 {
        for plan_seed in 0..4u64 {
            let derive = |allowed: &[protoobf::TransformKind]| {
                Obfuscator::new(&graph)
                    .seed(plan_seed)
                    .max_per_node(level.max(1))
                    .allowed(allowed.iter().copied())
                    .obfuscate()
                    .unwrap()
            };
            let padded = derive(&[PadInsert, ConstXor]);
            padded_runs += padded.plan().element_kernels().kernels;
            let mut families =
                vec![("mixed", codec_for(&graph, level, plan_seed)), ("padded", padded)];
            if level > 0 {
                let mirrored = derive(&[ReadFromEnd, PadInsert, ConstXor]);
                shapes.add(&mirrored);
                families.push(("mirrored", mirrored));
            }
            for (kind, codec) in families {
                let mut rng = StdRng::seed_from_u64(plan_seed * 131 + u64::from(level));
                for round in 0..4u64 {
                    let msg = kernel_message(&codec, &mut rng);
                    let what =
                        format!("kernel {kind} level={level} plan={plan_seed} round={round}");
                    assert_equivalent(&codec, &msg, round ^ 0x6EED, &what);
                }
            }
        }
    }
    assert!(padded_runs > 0, "no padded element ran a kernel");
    assert!(shapes.odd > 0, "no kernel ran a column behind an odd number of mirrors");
    assert!(shapes.even > 0, "no kernel ran a column behind an even number of mirrors");
    assert!(shapes.seq_pads > 0, "no kernel ran a mirrored sequence holding a pad");
}

/// What the element kernels of a family of codecs flatten: columns
/// behind an odd number of mirrors, behind an even number (two or more),
/// and mirrors over a sequence that holds a pad.
#[derive(Default)]
struct MirrorShapes {
    odd: usize,
    even: usize,
    seq_pads: usize,
}

impl MirrorShapes {
    /// Tallies the element subtrees of `codec`'s kernel-running
    /// containers, read off the obfuscation graph.
    fn add(&mut self, codec: &Codec) {
        use protoobf::core::obf::{Base, ObfKind};
        let g = codec.obf_graph();
        let is_pad = |id| matches!(g.node(id).kind(), ObfKind::Terminal { base: Base::Pad(_), .. });
        for container in g.preorder().into_iter().filter(|&id| codec.plan().runs_kernel(id)) {
            for id in g.subtree(g.node(container).children()[0]) {
                let node = g.node(id);
                if node.is_terminal() {
                    let depth = g
                        .ancestors(id)
                        .into_iter()
                        .take_while(|&a| a != container)
                        .filter(|&a| matches!(g.node(a).kind(), ObfKind::Mirror))
                        .count();
                    match depth {
                        0 => {}
                        d if d % 2 == 1 => self.odd += 1,
                        _ => self.even += 1,
                    }
                } else if matches!(node.kind(), ObfKind::Mirror) {
                    let child = node.children()[0];
                    if matches!(g.node(child).kind(), ObfKind::Sequence { .. })
                        && g.subtree(child).into_iter().any(is_pad)
                    {
                        self.seq_pads += 1;
                    }
                }
            }
        }
    }
}

/// Truncations inside mirrored columns: the element kernel's window
/// check fails and the walk reports its exact `UnexpectedEnd`, naming the
/// mirror it could not fill, at every cut through the table.
#[test]
fn truncated_mirrored_columns_fail_at_the_walks_mirror() {
    use protoobf::core::obf::ObfKind;
    use protoobf::TransformKind::ReadFromEnd;
    let graph = protoobf::spec::parse_spec(BULK_SPEC).unwrap();
    let mut mirror_cuts = 0;
    // The benchmark's derivations at levels 1 (`key` behind one mirror)
    // and 2 (behind two), and mirror-only ones.
    let e2ebench =
        |level| Obfuscator::new(&graph).key("e2ebench shared secret").max_per_node(level);
    let mirrors = |seed| Obfuscator::new(&graph).seed(seed).max_per_node(2).allowed([ReadFromEnd]);
    let derivations = [e2ebench(1), e2ebench(2), mirrors(0), mirrors(1), mirrors(2), mirrors(3)];
    for (d, derivation) in derivations.into_iter().enumerate() {
        let codec = derivation.obfuscate().unwrap();
        let runs = codec.plan().element_kernels();
        assert_eq!(runs.kernels, runs.loops, "derivation {d}");
        let g = codec.obf_graph();
        let wire = codec.serialize_seeded(&build(&codec, &bulk_fields(6), 1), 0).unwrap();
        for cut in 0..wire.len() {
            // (A cut inside the trailing `rest` field still parses.)
            let got = codec.parser().parse_in_place(&wire[..cut]).map(|_| ());
            let walk = reference::parse(g, &wire[..cut]).map(|_| ());
            assert_eq!(got, walk, "derivation {d}, cut at {cut}");
            if let Err(protoobf::core::ParseError::UnexpectedEnd { node, .. }) = &got {
                let id = g.preorder().into_iter().find(|&id| g.node(id).name() == node).unwrap();
                let in_table = g
                    .ancestors(id)
                    .into_iter()
                    .any(|a| matches!(g.node(a).kind(), ObfKind::Tabular { .. }));
                mirror_cuts +=
                    usize::from(in_table && matches!(g.node(id).kind(), ObfKind::Mirror));
            }
        }
    }
    assert!(mirror_cuts > 0, "no cut fell inside a mirrored column");
}

/// The bulk grammar with an 8-byte record counter, so a hostile counter
/// can overflow `count × width`.
fn wide_counter_bulk() -> FormatGraph {
    protoobf::spec::parse_spec(&BULK_SPEC.replace("u16 count", "u64 count")).unwrap()
}

/// Hostile counters: more records than the window holds, and a counter
/// whose product with the record width overflows `usize`. The element
/// kernel's one window check fails and the per-element walk reports
/// the terminal it always did, with the same byte counts.
#[test]
fn hostile_counters_fail_at_the_walks_terminal() {
    for (graph, width) in
        [(protoobf::spec::parse_spec(BULK_SPEC).unwrap(), 2), (wide_counter_bulk(), 8)]
    {
        let codec = Codec::identity(&graph);
        let wire = codec.serialize_seeded(&build(&codec, &bulk_fields(48), 1), 0).unwrap();
        // The counter leads the wire; the table's 48 × 30 bytes and the
        // 10-byte tail follow it.
        for counter in [49u64, 0xFFFF, u64::MAX] {
            if width < 8 && counter >= 1 << (8 * width) {
                continue;
            }
            let mut hostile = wire.clone();
            hostile[..width].copy_from_slice(&counter.to_be_bytes()[8 - width..]);
            let got = codec.parser().parse_in_place(&hostile).map(|_| ()).unwrap_err();
            let walk = reference::parse(codec.obf_graph(), &hostile).map(|_| ()).unwrap_err();
            assert_eq!(got, walk, "counter {counter:#x}");
            // Record 48 reads its key and flags from the tail's first 6
            // bytes; its payload needs 24 with 4 left.
            let want = protoobf::core::ParseError::UnexpectedEnd {
                node: "payload".into(),
                needed: 24,
                available: 4,
            };
            assert_eq!(got, want, "counter {counter:#x}");
        }
        // Truncated inside the table: the same terminal and byte counts
        // as the walk, at every cut.
        for cut in (width..width + 48 * 30).step_by(7) {
            let got = codec.parser().parse_in_place(&wire[..cut]).map(|_| ()).unwrap_err();
            let walk = reference::parse(codec.obf_graph(), &wire[..cut]).map(|_| ()).unwrap_err();
            assert_eq!(got, walk, "cut at {cut}");
        }
    }
}

/// A source field missing in the middle of a table fails serialization
/// with the walk's error, naming the first missing field the walk meets
/// (a mirrored element reverses the wire order of its fields), at every
/// level and under mirror-only derivations.
#[test]
fn missing_field_mid_table_fails_like_the_walk() {
    use protoobf::TransformKind::ReadFromEnd;
    let graph = protoobf::spec::parse_spec(BULK_SPEC).unwrap();
    for missing in [&["records[3].flags"][..], &["records[3].key", "records[3].payload"]] {
        let fields: Vec<_> = bulk_fields(6)
            .into_iter()
            .filter(|(path, _)| !missing.contains(&path.as_str()))
            .collect();
        for level in 0..=3u32 {
            for plan_seed in 0..3u64 {
                let mirrored = Obfuscator::new(&graph)
                    .seed(plan_seed)
                    .max_per_node(level.max(1))
                    .allowed([ReadFromEnd])
                    .obfuscate()
                    .unwrap();
                for codec in [codec_for(&graph, level, plan_seed), mirrored] {
                    let msg = build(&codec, &fields, plan_seed);
                    let got = codec
                        .serializer()
                        .serialize_into_seeded(&msg, &mut Vec::new(), 5)
                        .unwrap_err();
                    let walk = reference::serialize(codec.obf_graph(), &msg, 5).unwrap_err();
                    assert_eq!(got, walk, "{missing:?} level {level} plan {plan_seed}");
                }
            }
        }
        let clear = Codec::identity(&graph);
        let got = clear.serialize_seeded(&build(&clear, &fields, 0), 5).unwrap_err();
        let first = missing[0].rsplit('.').next().unwrap();
        assert_eq!(got, protoobf::core::BuildError::MissingField(first.into()));
    }
}
