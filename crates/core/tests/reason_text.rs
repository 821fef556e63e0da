//! The public rejection texts of the obfuscation engine, pinned: one
//! rejection per applicability case of Table II (`transform::applicable`),
//! per `ReadFromEnd` extent case, per `transform::apply` error and per
//! soundness check `transform::post_check` runs. The engine reads these
//! verdicts internally without their text; the text is rendered only at
//! these public calls and must not change.

use protoobf_core::graph::{AutoValue, Boundary, GraphBuilder, StopRule};
use protoobf_core::obf::{ObfGraph, ObfId};
use protoobf_core::transform::{applicable, apply, post_check};
use protoobf_core::{TerminalKind, TransformKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn find(g: &ObfGraph, name: &str) -> ObfId {
    g.preorder().into_iter().find(|&id| g.node(id).name() == name).expect(name)
}

/// Terminals of every boundary, a counted table, a terminated repetition
/// whose element leads with `name`, and a trailing `End` field.
fn sample() -> ObfGraph {
    let mut b = GraphBuilder::new("s");
    let root = b.root_sequence("m", Boundary::End);
    let len = b.uint_be(root, "len", 2);
    let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
    b.set_auto(len, AutoValue::LengthOf(data));
    b.terminal(root, "uri", TerminalKind::Ascii, Boundary::Delimited(b" ".to_vec()));
    let count = b.uint_be(root, "count", 1);
    let tab = b.tabular(root, "regs", count);
    b.set_auto(count, AutoValue::CounterOf(tab));
    let item = b.sequence(tab, "reg", Boundary::Delegated);
    b.uint_be(item, "addr", 2);
    b.uint_be(item, "value", 2);
    let rep =
        b.repetition(root, "headers", StopRule::Terminator(b"\r\n".to_vec()), Boundary::Delegated);
    let h = b.sequence(rep, "header", Boundary::Delegated);
    b.terminal(h, "name", TerminalKind::Ascii, Boundary::Delimited(b":".to_vec()));
    b.terminal(h, "hv", TerminalKind::Ascii, Boundary::Delimited(b"\r\n".to_vec()));
    b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
    ObfGraph::from_plain(&b.build().unwrap())
}

/// Pinned sequences, loops whose elements cannot split, an exhausted
/// repetition, and a sequence holding the length of its own field.
fn shapes() -> ObfGraph {
    let mut b = GraphBuilder::new("shapes");
    let root = b.root_sequence("m", Boundary::End);
    let len = b.uint_be(root, "len", 2);
    let outer = b.sequence(root, "outer", Boundary::Length(len));
    b.set_auto(len, AutoValue::LengthOf(outer));
    let inner = b.sequence(outer, "inner", Boundary::Fixed(2));
    b.uint_be(inner, "x", 2);
    let fixed = b.sequence(root, "fixed", Boundary::Fixed(2));
    b.uint_be(fixed, "y", 2);
    let n = b.uint_be(root, "n", 1);
    let bare = b.tabular(root, "bare", n);
    b.set_auto(n, AutoValue::CounterOf(bare));
    b.uint_be(bare, "v", 2);
    let k = b.uint_be(root, "k", 1);
    let single = b.tabular(root, "single", k);
    b.set_auto(k, AutoValue::CounterOf(single));
    let one = b.sequence(single, "one", Boundary::Delegated);
    b.uint_be(one, "w", 2);
    let j = b.uint_be(root, "j", 1);
    let sized = b.tabular(root, "sized", j);
    b.set_auto(j, AutoValue::CounterOf(sized));
    let cell = b.sequence(sized, "cell", Boundary::Fixed(4));
    b.uint_be(cell, "c1", 2);
    b.uint_be(cell, "c2", 2);
    let s = b.sequence(root, "s", Boundary::Delegated);
    let slen = b.uint_be(s, "slen", 2);
    let sdata = b.terminal(s, "sdata", TerminalKind::Bytes, Boundary::Length(slen));
    b.set_auto(slen, AutoValue::LengthOf(sdata));
    let rest = b.repetition(root, "rest", StopRule::Exhausted, Boundary::End);
    let e = b.sequence(rest, "e", Boundary::Delegated);
    b.uint_be(e, "e1", 1);
    b.uint_be(e, "e2", 1);
    ObfGraph::from_plain(&b.build().unwrap())
}

/// A length-sized body around a terminated repetition of two-field items.
fn sized_loop() -> ObfGraph {
    let mut b = GraphBuilder::new("mirrored");
    let root = b.root_sequence("m", Boundary::End);
    let len = b.uint_be(root, "len", 2);
    let body = b.sequence(root, "body", Boundary::Length(len));
    b.set_auto(len, AutoValue::LengthOf(body));
    let rep =
        b.repetition(body, "items", StopRule::Terminator(b"##".to_vec()), Boundary::Delegated);
    let item = b.sequence(rep, "item", Boundary::Delegated);
    b.terminal(item, "a", TerminalKind::Ascii, Boundary::Delimited(b":".to_vec()));
    b.terminal(item, "b", TerminalKind::Ascii, Boundary::Delimited(b";".to_vec()));
    b.uint_be(root, "tail", 1);
    ObfGraph::from_plain(&b.build().unwrap())
}

/// An id past the nodes of `g`, taken from a larger graph.
fn past(g: &ObfGraph) -> ObfId {
    let larger = shapes();
    larger.preorder().into_iter().find(|id| id.index() >= g.allocated()).expect("a larger graph")
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn applicability_reasons_are_pinned() {
    use TransformKind::*;
    let (s, p) = (sample(), shapes());
    #[rustfmt::skip]
    let table: &[(&ObfGraph, &str, TransformKind, &str)] = &[
        (&p, "x", SplitAdd, "ancestor inner has a fixed boundary; sizes are pinned"),
        (&p, "inner", PadInsert, "ancestor outer is length-bounded; sizes are pinned"),
        (&s, "m", SplitAdd, "target must be a terminal"),
        (&s, "name", BoundaryChange, "would randomize the leading byte of terminated repetition headers"),
        (&s, "uri", SplitAdd, "splitting a delimited value breaks delimiter scanning"),
        (&s, "body", SplitXor, "the first share of an End-bounded field cannot be delimited"),
        (&s, "count", SplitCat, "cannot cut a field shorter than 2 bytes"),
        (&s, "uri", SplitCat, "cutting a delimited value breaks delimiter scanning"),
        (&s, "body", SplitCat, "the first piece of an End-bounded field cannot be delimited"),
        (&s, "uri", ConstAdd, "transforming a delimited value breaks delimiter scanning"),
        (&s, "len", BoundaryChange, "boundary is already length-determined"),
        (&s, "regs", BoundaryChange, "target must be a delimited/end terminal or a terminated repetition"),
        (&p, "fixed", PadInsert, "target sequence has a pinned size"),
        (&s, "data", PadInsert, "pads can only be inserted into sequences"),
        (&s, "uri", ReadFromEnd, "subtree extent is SelfDelim; ReadFromEnd needs Static or PlainDep"),
        (&s, "body", ReadFromEnd, "subtree extent is WindowNeeded; ReadFromEnd needs Static or PlainDep"),
        (&p, "s", ReadFromEnd, "reference slen is held inside the mirrored subtree"),
        (&s, "headers", TabSplit, "target must be a tabular"),
        (&p, "single", TabSplit, "element sequence needs at least two fields to split"),
        (&p, "sized", TabSplit, "element boundary must be Delegated"),
        (&p, "bare", TabSplit, "element must be a sequence"),
        (&p, "rest", RepSplit, "splitting an exhausted repetition would be ambiguous"),
        (&s, "regs", RepSplit, "target must be a repetition"),
        (&s, "header", ChildMove, "need at least two movable children to permute"),
        (&s, "len", ChildMove, "target must be a sequence"),
    ];
    for &(g, name, kind, want) in table {
        let got = applicable(g, find(g, name), kind);
        assert_eq!(got, Err(want.to_string()), "{kind} on {name}");
    }
    let past = past(&s);
    assert_eq!(applicable(&s, past, ConstXor), Err("unknown node".to_string()));
}

#[test]
fn a_count_link_inside_a_mirror_candidate_is_named() {
    let mut g = sized_loop();
    let items = find(&g, "items");
    let rec = apply(&mut g, items, TransformKind::RepSplit, &mut rng(1)).unwrap();
    let second = g.node(rec.created[2]).name().to_string();
    assert_eq!(second, "items_b8");
    let body = find(&g, "body");
    let want = format!("count link of {second} resolves inside the mirrored subtree");
    assert_eq!(applicable(&g, body, TransformKind::ReadFromEnd), Err(want));
}

#[test]
fn apply_errors_are_pinned() {
    let mut g = sample();
    let uri = find(&g, "uri");
    let err = apply(&mut g, uri, TransformKind::SplitAdd, &mut rng(1)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "SplitAdd is not applicable to node \"uri\": \
         splitting a delimited value breaks delimiter scanning"
    );
    let past = past(&g);
    let err = apply(&mut g, past, TransformKind::ConstXor, &mut rng(1)).unwrap_err();
    assert_eq!(err.to_string(), format!("unknown obfuscation node id {}", past.index()));
}

#[test]
fn soundness_check_reasons_are_pinned() {
    // A holder swapped behind its user.
    let mut g = shapes();
    let s = find(&g, "s");
    apply(&mut g, s, TransformKind::ChildMove, &mut rng(1)).unwrap();
    assert_eq!(
        post_check(&g),
        Err("plain value of slen (held by slen) is not recovered before sdata parses".into())
    );

    // A pad after a rest-of-window field.
    let graph = {
        let mut b = GraphBuilder::new("window");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "x", 1);
        let s = b.sequence(root, "s", Boundary::End);
        b.uint_be(s, "y", 1);
        b.terminal(s, "body", TerminalKind::Bytes, Boundary::End);
        b.build().unwrap()
    };
    let tail = (0..32)
        .find_map(|seed| {
            let mut g = ObfGraph::from_plain(&graph);
            let s = find(&g, "s");
            apply(&mut g, s, TransformKind::PadInsert, &mut rng(seed)).unwrap();
            post_check(&g).err()
        })
        .expect("a pad after the body");
    assert_eq!(tail, "rest-of-window node body is not in tail position under s");

    // A count link whose first half is inside a mirror above it.
    let mut g = sized_loop();
    let body = find(&g, "body");
    apply(&mut g, body, TransformKind::ReadFromEnd, &mut rng(1)).unwrap();
    let items = find(&g, "items");
    apply(&mut g, items, TransformKind::RepSplit, &mut rng(1)).unwrap();
    assert_eq!(
        post_check(&g),
        Err("mirror body_rev8 invalidated: \
             count link of items_b9 resolves inside the mirrored subtree"
            .into())
    );

    // The halves of a count link swapped.
    let mut g = sized_loop();
    let items = find(&g, "items");
    let rec = apply(&mut g, items, TransformKind::RepSplit, &mut rng(1)).unwrap();
    apply(&mut g, rec.created[0], TransformKind::ChildMove, &mut rng(1)).unwrap();
    assert_eq!(
        post_check(&g),
        Err("count-linked repetition items_b8 parses before its first half".into())
    );

    // The first half of a count link split again.
    let graph = {
        let mut b = GraphBuilder::new("links");
        let root = b.root_sequence("m", Boundary::End);
        let rep = b.repetition(
            root,
            "headers",
            StopRule::Terminator(b"\r\n".to_vec()),
            Boundary::Delegated,
        );
        let h = b.sequence(rep, "header", Boundary::Delegated);
        for (name, delim) in [("a", ":"), ("b", ","), ("c", ";")] {
            b.terminal(h, name, TerminalKind::Ascii, Boundary::Delimited(delim.into()));
        }
        b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
        b.build().unwrap()
    };
    let (mut g, first) = (0..32)
        .find_map(|seed| {
            let mut g = ObfGraph::from_plain(&graph);
            let headers = find(&g, "headers");
            let rec = apply(&mut g, headers, TransformKind::RepSplit, &mut rng(seed)).unwrap();
            let first = rec.created[1];
            applicable(&g, first, TransformKind::RepSplit).is_ok().then_some((g, first))
        })
        .expect("a split after the second field");
    apply(&mut g, first, TransformKind::RepSplit, &mut rng(3)).unwrap();
    assert_eq!(post_check(&g), Err("count-linked repetition lost its first half".into()));
}
