//! Property-based tests of the system's core invariants.
//!
//! The paper's central requirement is τ⁻¹ ∘ τ = id for every composition
//! of transformations: random message values × random obfuscation plans ×
//! random serialization seeds must always round-trip.

use proptest::prelude::*;
use protoobf::{Obfuscator, Value};

/// A specification exercising every node type.
fn graph() -> protoobf::FormatGraph {
    protoobf::spec::parse_spec(
        r#"
        message P {
            u16 id;
            u16 length = len(data);
            bytes data sized_by length;
            u8 flag;
            optional extra if flag == 1 {
                u32 ev;
                bytes(3) etag;
            }
            u8 n = count(items);
            tabular items count_by n {
                u16 a;
                u16 b;
            }
            repeat words until "|" {
                ascii w until ";"
            ;}
            bytes tail rest;
        }
        "#,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_random_values_and_plans(
        plan_seed in 0u64..500,
        level in 1u32..=4,
        msg_seed in 0u64..1000,
        id in 0u64..=0xFFFF,
        data in proptest::collection::vec(any::<u8>(), 0..80),
        flag_is_one in any::<bool>(),
        ev in 0u64..=0xFFFF_FFFF,
        items in proptest::collection::vec((0u64..=0xFFFF, 0u64..=0xFFFF), 0..6),
        words in proptest::collection::vec("[a-z]{0,8}", 0..4),
        tail in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let g = graph();
        let codec = Obfuscator::new(&g).seed(plan_seed).max_per_node(level).obfuscate().unwrap();
        let mut m = codec.message_seeded(msg_seed);
        m.set_uint("id", id).unwrap();
        m.set("data", data.as_slice()).unwrap();
        m.set_uint("flag", if flag_is_one { 1 } else { 0 }).unwrap();
        if flag_is_one {
            m.set_uint("extra.ev", ev).unwrap();
            m.set("extra.etag", b"abc".as_slice()).unwrap();
        }
        for (i, (a, b)) in items.iter().enumerate() {
            m.set_uint(&format!("items[{i}].a"), *a).unwrap();
            m.set_uint(&format!("items[{i}].b"), *b).unwrap();
        }
        for (i, w) in words.iter().enumerate() {
            m.set_str(&format!("words[{i}].w"), w).unwrap();
        }
        m.set("tail", tail.as_slice()).unwrap();

        let wire = codec.serialize_seeded(&m, msg_seed ^ 0xAA).unwrap();
        let back = codec.parse(&wire).unwrap();

        prop_assert_eq!(back.get_uint("id").unwrap(), id);
        let got_data = back.get("data").unwrap();
        prop_assert_eq!(got_data.as_bytes(), data.as_slice());
        prop_assert_eq!(back.is_present("extra"), flag_is_one);
        if flag_is_one {
            prop_assert_eq!(back.get_uint("extra.ev").unwrap(), ev);
        }
        prop_assert_eq!(back.element_count("items"), items.len());
        for (i, (a, b)) in items.iter().enumerate() {
            prop_assert_eq!(back.get_uint(&format!("items[{i}].a")).unwrap(), *a);
            prop_assert_eq!(back.get_uint(&format!("items[{i}].b")).unwrap(), *b);
        }
        prop_assert_eq!(back.element_count("words"), words.len());
        for (i, w) in words.iter().enumerate() {
            prop_assert_eq!(&back.get_string(&format!("words[{i}].w")).unwrap(), w);
        }
        let got_tail = back.get("tail").unwrap();
        prop_assert_eq!(got_tail.as_bytes(), tail.as_slice());
    }

    #[test]
    fn plan_path_matches_graph_walk(
        plan_seed in 0u64..500,
        level in 0u32..=4,
        msg_seed in 0u64..1000,
        ser_seed in 0u64..1000,
        id in 0u64..=0xFFFF,
        data in proptest::collection::vec(any::<u8>(), 0..80),
        items in proptest::collection::vec((0u64..=0xFFFF, 0u64..=0xFFFF), 0..6),
    ) {
        // The compiled-plan sessions (Codec::serialize/parse) and the
        // reference graph-walk interpreters must agree byte-for-byte on
        // every spec × plan × message × serialization seed.
        let g = graph();
        let codec = if level == 0 {
            protoobf::Codec::identity(&g)
        } else {
            Obfuscator::new(&g).seed(plan_seed).max_per_node(level).obfuscate().unwrap()
        };
        let mut m = codec.message_seeded(msg_seed);
        m.set_uint("id", id).unwrap();
        m.set("data", data.as_slice()).unwrap();
        m.set_uint("flag", 0).unwrap();
        for (i, (a, b)) in items.iter().enumerate() {
            m.set_uint(&format!("items[{i}].a"), *a).unwrap();
            m.set_uint(&format!("items[{i}].b"), *b).unwrap();
        }
        m.set("tail", b"t".as_slice()).unwrap();

        let reference =
            protoobf::core::reference::serialize(codec.obf_graph(), &m, ser_seed).unwrap();
        let planned = codec.serialize_seeded(&m, ser_seed).unwrap();
        prop_assert_eq!(&planned, &reference, "plan and graph-walk wires differ");

        let walk_back = protoobf::core::reference::parse(codec.obf_graph(), &reference).unwrap();
        let plan_back = codec.parse(&planned).unwrap();
        // Structural equality via normalized re-serialization.
        let n1 = protoobf::core::reference::serialize(codec.obf_graph(), &plan_back, 0)
            .unwrap();
        let n2 = protoobf::core::reference::serialize(codec.obf_graph(), &walk_back, 0)
            .unwrap();
        prop_assert_eq!(n1, n2, "plan and graph-walk parses recovered different messages");
        prop_assert_eq!(plan_back.get_uint("id").unwrap(), id);
        prop_assert_eq!(plan_back.element_count("items"), items.len());
    }

    #[test]
    fn byte_ops_invert(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        k in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        use protoobf::core::value::{apply_op, ByteOp};
        for op in [ByteOp::Add, ByteOp::Sub, ByteOp::Xor] {
            let enc = apply_op(op, &a, &k);
            let dec = apply_op(op.inverse(), &enc, &k);
            prop_assert_eq!(&dec, &a);
        }
    }

    #[test]
    fn value_uint_roundtrip(v in any::<u64>(), width in 1usize..=8) {
        use protoobf::Endian;
        let max = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
        let v = v & max;
        for endian in [Endian::Big, Endian::Little] {
            let enc = Value::from_uint(v, width, endian).unwrap();
            prop_assert_eq!(enc.len(), width);
            prop_assert_eq!(enc.to_uint(endian), Some(v));
        }
    }

    #[test]
    fn path_parse_display_roundtrip(
        segs in proptest::collection::vec(("[a-z][a-z0-9_]{0,6}", proptest::option::of(0usize..20)), 1..5)
    ) {
        use protoobf::core::path::{Path, Segment};
        let path = Path::from_segments(
            segs.iter()
                .map(|(n, i)| match i {
                    Some(i) => Segment::indexed(n.clone(), *i),
                    None => Segment::named(n.clone()),
                })
                .collect(),
        );
        let text = path.to_string();
        let parsed: Path = text.parse().unwrap();
        prop_assert_eq!(parsed, path);
    }

    #[test]
    fn spec_print_parse_fixpoint(seed in 0u64..50) {
        // Print the (fixed) graph, reparse, reprint: must be a fixpoint.
        // The seed picks one of the embedded protocol specs.
        let text = if seed % 2 == 0 {
            protoobf::protocols::modbus::REQUEST_SPEC
        } else {
            protoobf::protocols::http::REQUEST_SPEC
        };
        let g1 = protoobf::spec::parse_spec(text).unwrap();
        let printed = protoobf::spec::to_text(&g1);
        let g2 = protoobf::spec::parse_spec(&printed).unwrap();
        prop_assert_eq!(protoobf::spec::to_text(&g2), printed);
        prop_assert_eq!(g1.len(), g2.len());
    }
}
