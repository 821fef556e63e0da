//! Graph rewrites for each generic transformation.
//!
//! These functions assume the local applicability constraints
//! ([`super::applicable`]) already passed; the engine runs the global
//! [`super::post_check`] afterwards and rolls back on failure.

use rand::Rng;

use crate::obf::{
    Base, ConstOp, ObfGraph, ObfId, ObfKind, ObfNode, Recombine, RepStop, SeqBoundary, SplitExpr,
    TermBoundary,
};
use crate::value::{ByteOp, Endian, SplitAt, TerminalKind};

use super::{TransformKind, TransformRecord};

fn record(
    kind: TransformKind,
    g: &ObfGraph,
    target: ObfId,
    target_name: String,
    created: Vec<ObfId>,
    detail: String,
) -> TransformRecord {
    let _ = g;
    TransformRecord { kind, target, target_name, created, detail }
}

/// Splits a terminal into a random share and the combined share
/// (`SplitAdd`/`SplitSub`/`SplitXor`; paper Table II row 1).
pub(super) fn split_op(
    g: &mut ObfGraph,
    id: ObfId,
    op: ByteOp,
    kind: TransformKind,
) -> TransformRecord {
    let t = g.node(id).clone();
    let (t_kind, base, ops, boundary) = match t.kind {
        ObfKind::Terminal { kind, base, ops, boundary } => (kind, base, ops, boundary),
        _ => unreachable!("checked by applicable()"),
    };
    let next = t.obf_count + 1;
    let tag = g.allocated();

    let split = g.push(ObfNode {
        name: format!("{}_s{}", t.name, tag),
        kind: ObfKind::SplitSeq { expr: SplitExpr { base, ops }, recombine: Recombine::Op(op) },
        children: Vec::new(),
        parent: None,
        origin: t.origin,
        obf_count: next,
    });
    let share = g.push(ObfNode {
        name: format!("{}_r{}", t.name, tag),
        kind: ObfKind::Terminal {
            kind: TerminalKind::Bytes,
            base: Base::Inherit,
            ops: Vec::new(),
            boundary: boundary.clone(),
        },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });
    let combined = g.push(ObfNode {
        name: format!("{}_v{}", t.name, tag),
        kind: ObfKind::Terminal { kind: t_kind, base: Base::Inherit, ops: Vec::new(), boundary },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });

    g.replace_child(id, split);
    g.attach(split, 0, share);
    g.attach(split, 1, combined);
    if let Some(x) = t.origin {
        if g.holder_of(x) == Some(id) {
            g.move_holder(x, split);
        }
    }
    record(kind, g, id, t.name, vec![split, share, combined], format!("op={}", op.name()))
}

/// Cuts a terminal into two concatenated pieces (`SplitCat`).
pub(super) fn split_cat<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let t = g.node(id).clone();
    let (base, ops, boundary) = match t.kind {
        ObfKind::Terminal { base, ops, boundary, .. } => (base, ops, boundary),
        _ => unreachable!("checked by applicable()"),
    };
    let next = t.obf_count + 1;
    let tag = g.allocated();

    let (at, b_left, b_right, detail) = match &boundary {
        TermBoundary::Fixed(n) => {
            let p = rng.gen_range(1..*n);
            (
                SplitAt::Byte(p),
                TermBoundary::Fixed(p),
                TermBoundary::Fixed(n - p),
                format!("cut at byte {p}"),
            )
        }
        TermBoundary::PlainLen { source, steps } => {
            let mut lo = steps.clone();
            lo.push(crate::obf::LenStep::HalfLo);
            let mut hi = steps.clone();
            hi.push(crate::obf::LenStep::HalfHi);
            (
                SplitAt::Half,
                TermBoundary::PlainLen { source: *source, steps: lo },
                TermBoundary::PlainLen { source: *source, steps: hi },
                "cut at half".to_string(),
            )
        }
        _ => unreachable!("checked by applicable()"),
    };

    let split = g.push(ObfNode {
        name: format!("{}_c{}", t.name, tag),
        kind: ObfKind::SplitSeq { expr: SplitExpr { base, ops }, recombine: Recombine::Concat(at) },
        children: Vec::new(),
        parent: None,
        origin: t.origin,
        obf_count: next,
    });
    let left = g.push(ObfNode {
        name: format!("{}_l{}", t.name, tag),
        kind: ObfKind::Terminal {
            kind: TerminalKind::Bytes,
            base: Base::Inherit,
            ops: Vec::new(),
            boundary: b_left,
        },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });
    let right = g.push(ObfNode {
        name: format!("{}_h{}", t.name, tag),
        kind: ObfKind::Terminal {
            kind: TerminalKind::Bytes,
            base: Base::Inherit,
            ops: Vec::new(),
            boundary: b_right,
        },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });

    g.replace_child(id, split);
    g.attach(split, 0, left);
    g.attach(split, 1, right);
    if let Some(x) = t.origin {
        if g.holder_of(x) == Some(id) {
            g.move_holder(x, split);
        }
    }
    record(TransformKind::SplitCat, g, id, t.name, vec![split, left, right], detail)
}

/// Pushes a constant byte operation onto a terminal
/// (`ConstAdd`/`ConstSub`/`ConstXor`).
pub(super) fn const_op<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    op: ByteOp,
    kind: TransformKind,
    rng: &mut R,
) -> TransformRecord {
    let len = rng.gen_range(1..=4usize);
    let mut k: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    if k.iter().all(|&b| b == 0) {
        k[0] = rng.gen_range(1..=255);
    }
    let name = g.node(id).name().to_string();
    let detail = format!("op={} k={:02x?}", op.name(), k);
    match &mut g.node_mut(id).kind {
        ObfKind::Terminal { ops, .. } => ops.push(ConstOp { op, k }),
        _ => unreachable!("checked by applicable()"),
    }
    g.node_mut(id).obf_count += 1;
    record(kind, g, id, name, vec![], detail)
}

/// Replaces a delimiter with a length prefix (`BoundaryChange`). The
/// transformed node is wrapped in a [`ObfKind::Prefixed`] node; the
/// delimiter disappears from the wire.
pub(super) fn boundary_change<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let width = if rng.gen_bool(0.5) { 2 } else { 4 };
    let endian = if rng.gen_bool(0.5) { Endian::Big } else { Endian::Little };
    let name = g.node(id).name().to_string();
    let prior = match &mut g.node_mut(id).kind {
        ObfKind::Terminal { boundary, .. } => match boundary {
            TermBoundary::Delimited(d) => {
                let old = format!("delimited {d:02x?}");
                *boundary = TermBoundary::End;
                old
            }
            TermBoundary::End => "end".to_string(),
            _ => unreachable!("checked by applicable()"),
        },
        ObfKind::Repetition { stop } => match stop {
            RepStop::Terminator(t) => {
                let old = format!("terminated {t:02x?}");
                *stop = RepStop::Exhausted;
                old
            }
            _ => unreachable!("checked by applicable()"),
        },
        _ => unreachable!("checked by applicable()"),
    };
    let next = g.node(id).obf_count + 1;
    g.node_mut(id).obf_count = next;
    let wrapper = g.push(ObfNode {
        name: format!("{}_len{}", name, g.allocated()),
        kind: ObfKind::Prefixed { width, endian },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });
    g.replace_child(id, wrapper);
    g.attach(wrapper, 0, id);
    record(
        TransformKind::BoundaryChange,
        g,
        id,
        name,
        vec![wrapper],
        format!("{prior} -> {width}-byte {endian:?} prefix"),
    )
}

/// Inserts a random pad terminal into a sequence (`PadInsert`).
pub(super) fn pad_insert<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let len = rng.gen_range(1..=8usize);
    let n_children = g.node(id).children().len();
    let min_idx = usize::from(leading_sensitive(g, id));
    let idx = rng.gen_range(min_idx..=n_children.max(min_idx));
    let name = g.node(id).name().to_string();
    let next = g.node(id).obf_count + 1;
    g.node_mut(id).obf_count = next;
    let pad = g.push(ObfNode {
        name: format!("pad{}", g.allocated()),
        kind: ObfKind::Terminal {
            kind: TerminalKind::Bytes,
            base: Base::Pad(len),
            ops: Vec::new(),
            boundary: TermBoundary::Fixed(len),
        },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });
    g.attach(id, idx.min(n_children), pad);
    record(
        TransformKind::PadInsert,
        g,
        id,
        name,
        vec![pad],
        format!("{len} byte(s) at index {idx}"),
    )
}

/// Wraps a subtree so its bytes are emitted right-to-left (`ReadFromEnd`).
pub(super) fn read_from_end(g: &mut ObfGraph, id: ObfId) -> TransformRecord {
    let name = g.node(id).name().to_string();
    let next = g.node(id).obf_count + 1;
    g.node_mut(id).obf_count = next;
    let wrapper = g.push(ObfNode {
        name: format!("{}_rev{}", name, g.allocated()),
        kind: ObfKind::Mirror,
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });
    g.replace_child(id, wrapper);
    g.attach(wrapper, 0, id);
    record(TransformKind::ReadFromEnd, g, id, name, vec![wrapper], String::new())
}

/// `(AB)^m` → `A^m B^m` (`TabSplit`, paper Table II).
pub(super) fn tab_split<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let t = g.node(id).clone();
    let counter = match t.kind {
        ObfKind::Tabular { counter } => counter,
        _ => unreachable!("checked by applicable()"),
    };
    let elem = t.children[0];
    let fields = g.node(elem).children().to_vec();
    let j = rng.gen_range(1..fields.len());
    let next = t.obf_count + 1;
    let tag = g.allocated();
    let elem_name = g.node(elem).name().to_string();

    let make_elem = |g: &mut ObfGraph, suffix: &str| {
        g.push(ObfNode {
            name: format!("{elem_name}_{suffix}{tag}"),
            kind: ObfKind::Sequence { boundary: SeqBoundary::Delegated },
            children: Vec::new(),
            parent: None,
            origin: None,
            obf_count: next,
        })
    };
    let e1 = make_elem(g, "a");
    let e2 = make_elem(g, "b");
    for (i, &f) in fields.iter().enumerate() {
        let target = if i < j { e1 } else { e2 };
        let pos = g.node(target).children().len();
        g.node_mut(f).parent = None;
        g.attach(target, pos, f);
    }
    g.node_mut(elem).children.clear();

    let make_tab = |g: &mut ObfGraph, suffix: &str, child: ObfId| {
        let tab = g.push(ObfNode {
            name: format!("{}_{suffix}{tag}", t.name),
            kind: ObfKind::Tabular { counter },
            children: Vec::new(),
            parent: None,
            origin: t.origin,
            obf_count: next,
        });
        g.attach(tab, 0, child);
        tab
    };
    let tab1 = make_tab(g, "a", e1);
    let tab2 = make_tab(g, "b", e2);
    let seq = g.push(ObfNode {
        name: format!("{}_sp{tag}", t.name),
        kind: ObfKind::Sequence { boundary: SeqBoundary::Delegated },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });
    g.replace_child(id, seq);
    g.attach(seq, 0, tab1);
    g.attach(seq, 1, tab2);
    record(
        TransformKind::TabSplit,
        g,
        id,
        t.name,
        vec![seq, tab1, tab2, e1, e2],
        format!("element split after field {j}"),
    )
}

/// `(AB)*` → `A^m B^m` with `m` checked at parse time (`RepSplit`).
pub(super) fn rep_split<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let r = g.node(id).clone();
    let stop = match r.kind {
        ObfKind::Repetition { stop } => stop,
        _ => unreachable!("checked by applicable()"),
    };
    let elem = r.children[0];
    let fields = g.node(elem).children().to_vec();
    let j = rng.gen_range(1..fields.len());
    let next = r.obf_count + 1;
    let tag = g.allocated();
    let elem_name = g.node(elem).name().to_string();

    let make_elem = |g: &mut ObfGraph, suffix: &str| {
        g.push(ObfNode {
            name: format!("{elem_name}_{suffix}{tag}"),
            kind: ObfKind::Sequence { boundary: SeqBoundary::Delegated },
            children: Vec::new(),
            parent: None,
            origin: None,
            obf_count: next,
        })
    };
    let e1 = make_elem(g, "a");
    let e2 = make_elem(g, "b");
    for (i, &f) in fields.iter().enumerate() {
        let target = if i < j { e1 } else { e2 };
        let pos = g.node(target).children().len();
        g.node_mut(f).parent = None;
        g.attach(target, pos, f);
    }
    g.node_mut(elem).children.clear();

    let rep_a = g.push(ObfNode {
        name: format!("{}_a{tag}", r.name),
        kind: ObfKind::Repetition { stop },
        children: Vec::new(),
        parent: None,
        origin: r.origin,
        obf_count: next,
    });
    g.attach(rep_a, 0, e1);
    let rep_b = g.push(ObfNode {
        name: format!("{}_b{tag}", r.name),
        kind: ObfKind::Repetition { stop: RepStop::CountOf(rep_a) },
        children: Vec::new(),
        parent: None,
        origin: r.origin,
        obf_count: next,
    });
    g.attach(rep_b, 0, e2);
    let seq = g.push(ObfNode {
        name: format!("{}_sp{tag}", r.name),
        kind: ObfKind::Sequence { boundary: SeqBoundary::Delegated },
        children: Vec::new(),
        parent: None,
        origin: None,
        obf_count: next,
    });
    g.replace_child(id, seq);
    g.attach(seq, 0, rep_a);
    g.attach(seq, 1, rep_b);
    record(
        TransformKind::RepSplit,
        g,
        id,
        r.name,
        vec![seq, rep_a, rep_b, e1, e2],
        format!("element split after field {j}"),
    )
}

/// Swaps two children of a sequence (`ChildMove`).
pub(super) fn child_move<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let n = g.node(id).children().len();
    let lo = usize::from(leading_sensitive(g, id));
    let i = rng.gen_range(lo..n);
    let mut j = rng.gen_range(lo..n - 1);
    if j >= i {
        j += 1;
    }
    let name = g.node(id).name().to_string();
    g.node_mut(id).children.swap(i, j);
    g.node_mut(id).obf_count += 1;
    record(TransformKind::ChildMove, g, id, name, vec![], format!("swapped children {i} and {j}"))
}

/// True when the first wire byte of `id`'s subtree is also the first byte a
/// terminator-delimited repetition uses to detect its end: transformations
/// must not move or randomize it.
pub(super) fn leading_sensitive(g: &ObfGraph, id: ObfId) -> bool {
    let my_first = g.subtree(id).into_iter().find(|&n| g.node(n).is_terminal());
    let my_first = match my_first {
        Some(f) => f,
        None => return false,
    };
    for a in g.ancestors(id) {
        if let ObfKind::Repetition { stop: RepStop::Terminator(_) } = g.node(a).kind() {
            let elem = g.node(a).children()[0];
            if let Some(first) = g.subtree(elem).into_iter().find(|&n| g.node(n).is_terminal()) {
                if first == my_first {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample;
    use super::super::{applicable, apply, post_check, TransformKind};
    use crate::graph::{AutoValue, Boundary, GraphBuilder};
    use crate::obf::{ObfGraph, ObfId, ObfKind, Recombine, RepStop, TermBoundary};
    use crate::value::TerminalKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn find(g: &ObfGraph, name: &str) -> ObfId {
        g.preorder().into_iter().find(|&id| g.node(id).name() == name).unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn split_add_rewrites_structure_and_holder() {
        let mut g = sample();
        let data = find(&g, "data");
        let plain_data = g.plain().resolve_names(&["data"]).unwrap();
        let rec = apply(&mut g, data, TransformKind::SplitAdd, &mut rng()).unwrap();
        assert_eq!(rec.created.len(), 3);
        let holder = g.holder_of(plain_data).unwrap();
        assert!(matches!(
            g.node(holder).kind(),
            ObfKind::SplitSeq { recombine: Recombine::Op(crate::value::ByteOp::Add), .. }
        ));
        assert_eq!(g.node(holder).children().len(), 2);
        assert!(post_check(&g).is_ok());
        // The detached original is gone from the live tree.
        assert!(!g.preorder().contains(&data));
    }

    #[test]
    fn split_cat_fixed_produces_static_pieces() {
        let mut g = sample();
        let addr = find(&g, "addr");
        apply(&mut g, addr, TransformKind::SplitCat, &mut rng()).unwrap();
        let pieces: Vec<usize> = g
            .preorder()
            .into_iter()
            .filter_map(|id| match g.node(id).kind() {
                ObfKind::Terminal { boundary: TermBoundary::Fixed(n), .. }
                    if g.node(id).name().starts_with("addr_") =>
                {
                    Some(*n)
                }
                _ => None,
            })
            .collect();
        assert_eq!(pieces.iter().sum::<usize>(), 2);
        assert_eq!(pieces.len(), 2);
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn split_cat_plainlen_uses_half_steps() {
        let mut g = sample();
        let data = find(&g, "data");
        apply(&mut g, data, TransformKind::SplitCat, &mut rng()).unwrap();
        let steps: Vec<_> = g
            .preorder()
            .into_iter()
            .filter_map(|id| match g.node(id).kind() {
                ObfKind::Terminal { boundary: TermBoundary::PlainLen { steps, .. }, .. } => {
                    Some(steps.clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.len() == 1));
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn const_op_pushes_non_trivial_constant() {
        let mut g = sample();
        let len = find(&g, "len");
        apply(&mut g, len, TransformKind::ConstXor, &mut rng()).unwrap();
        match g.node(len).kind() {
            ObfKind::Terminal { ops, .. } => {
                assert_eq!(ops.len(), 1);
                assert!(!ops[0].k.is_empty());
                assert!(ops[0].k.iter().any(|&b| b != 0));
            }
            _ => panic!("len should remain a terminal"),
        }
        assert_eq!(g.node(len).obf_count(), 1);
    }

    #[test]
    fn boundary_change_removes_delimiter() {
        let mut g = sample();
        let uri = find(&g, "uri");
        let rec = apply(&mut g, uri, TransformKind::BoundaryChange, &mut rng()).unwrap();
        assert!(matches!(
            g.node(uri).kind(),
            ObfKind::Terminal { boundary: TermBoundary::End, .. }
        ));
        let wrapper = rec.created[0];
        assert!(matches!(g.node(wrapper).kind(), ObfKind::Prefixed { .. }));
        assert_eq!(g.node(wrapper).children(), &[uri]);
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn boundary_change_on_repetition_exhausts_it() {
        let mut g = sample();
        let headers = find(&g, "headers");
        apply(&mut g, headers, TransformKind::BoundaryChange, &mut rng()).unwrap();
        assert!(matches!(g.node(headers).kind(), ObfKind::Repetition { stop: RepStop::Exhausted }));
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn pad_insert_adds_one_child() {
        let mut g = sample();
        let root = g.root();
        let before = g.node(root).children().len();
        apply(&mut g, root, TransformKind::PadInsert, &mut rng()).unwrap();
        assert_eq!(g.node(root).children().len(), before + 1);
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn read_from_end_wraps_in_mirror() {
        let mut g = sample();
        let data = find(&g, "data");
        let rec = apply(&mut g, data, TransformKind::ReadFromEnd, &mut rng()).unwrap();
        let wrapper = rec.created[0];
        assert!(matches!(g.node(wrapper).kind(), ObfKind::Mirror));
        assert_eq!(g.node(wrapper).children(), &[data]);
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn tab_split_builds_two_counted_tabulars() {
        let mut g = sample();
        let regs = find(&g, "regs");
        let plain_tab = g.plain().resolve_names(&["regs"]).unwrap();
        apply(&mut g, regs, TransformKind::TabSplit, &mut rng()).unwrap();
        let tabs: Vec<ObfId> = g
            .preorder()
            .into_iter()
            .filter(|&id| matches!(g.node(id).kind(), ObfKind::Tabular { .. }))
            .collect();
        assert_eq!(tabs.len(), 2);
        for t in &tabs {
            assert_eq!(g.node(*t).origin(), Some(plain_tab));
            assert_eq!(g.node(*t).children().len(), 1);
        }
        // addr lives in the first half, value in the second.
        let addr = find(&g, "addr");
        let value = find(&g, "value");
        assert!(g.is_descendant(addr, tabs[0]));
        assert!(g.is_descendant(value, tabs[1]));
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn rep_split_links_counts() {
        let mut g = sample();
        let headers = find(&g, "headers");
        apply(&mut g, headers, TransformKind::RepSplit, &mut rng()).unwrap();
        let reps: Vec<ObfId> = g
            .preorder()
            .into_iter()
            .filter(|&id| matches!(g.node(id).kind(), ObfKind::Repetition { .. }))
            .collect();
        assert_eq!(reps.len(), 2);
        match g.node(reps[1]).kind() {
            ObfKind::Repetition { stop: RepStop::CountOf(first) } => assert_eq!(*first, reps[0]),
            other => panic!("second half should be count-linked, got {other:?}"),
        }
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn child_move_swaps_children() {
        let mut g = sample();
        let reg = find(&g, "reg");
        let before = g.node(reg).children().to_vec();
        apply(&mut g, reg, TransformKind::ChildMove, &mut rng()).unwrap();
        let after = g.node(reg).children().to_vec();
        assert_ne!(before, after);
        assert_eq!(
            {
                let mut s = before.clone();
                s.sort();
                s
            },
            {
                let mut s = after.clone();
                s.sort();
                s
            }
        );
        assert!(post_check(&g).is_ok());
    }

    #[test]
    fn child_move_violating_dependency_is_caught_by_post_check() {
        // Force a swap that moves `data` (needs `len`) before `len`.
        let mut b = GraphBuilder::new("dep");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        let mut g = ObfGraph::from_plain(&b.build().unwrap());
        let root_obf = g.root();
        g.node_mut(root_obf).children.swap(0, 1);
        assert!(post_check(&g).is_err());
    }

    #[test]
    fn transforms_compose_on_created_nodes() {
        // Split, then const-op one of the shares, then split that share
        // again — the composition chain the paper relies on.
        let mut g = sample();
        let data = find(&g, "data");
        let rec1 = apply(&mut g, data, TransformKind::SplitAdd, &mut rng()).unwrap();
        let share = rec1.created[1];
        apply(&mut g, share, TransformKind::ConstXor, &mut rng()).unwrap();
        let rec3 = apply(&mut g, share, TransformKind::SplitCat, &mut rng()).unwrap();
        assert!(post_check(&g).is_ok());
        // The re-split share keeps its ops inside the new SplitSeq expr.
        match g.node(rec3.created[0]).kind() {
            ObfKind::SplitSeq { expr, .. } => assert_eq!(expr.ops.len(), 1),
            other => panic!("expected SplitSeq, got {other:?}"),
        }
    }

    #[test]
    fn applicable_and_apply_agree() {
        let g = sample();
        let uri = find(&g, "uri");
        assert!(applicable(&g, uri, TransformKind::SplitAdd).is_err());
        let mut g2 = g.clone();
        assert!(apply(&mut g2, uri, TransformKind::SplitAdd, &mut rng()).is_err());
    }
}
