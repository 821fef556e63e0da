//! Graph rewrites for each generic transformation.
//!
//! These functions assume the local applicability constraints
//! ([`super::Context::admits`]) already passed; the engine runs the
//! soundness checks of [`super::post_check`] afterwards and rolls back on
//! failure. Each takes
//! the name tag of the nodes it creates from [`ObfGraph::allocated`]
//! before its first push.

use rand::Rng;

use crate::obf::{
    Base, ConstOp, LenStep, ObfGraph, ObfId, ObfKind, ObfNode, Recombine, RepStop, SeqBoundary,
    SplitExpr, TermBoundary,
};
use crate::value::{ByteOp, Endian, SplitAt, TerminalKind};

use super::{TransformKind, TransformRecord};

fn record(
    kind: TransformKind,
    target: ObfId,
    target_name: String,
    created: Vec<ObfId>,
    detail: String,
) -> TransformRecord {
    TransformRecord { kind, target, target_name, created, detail }
}

/// Counts one more rewrite of `id`; returns its name and new count.
fn bump(g: &mut ObfGraph, id: ObfId) -> (String, u32) {
    let count = g.count_rewrite(id);
    (g.node(id).name.clone(), count)
}

fn delegated() -> ObfKind {
    ObfKind::Sequence { boundary: SeqBoundary::Delegated }
}

/// Splits a terminal into a random share and the combined share
/// (`SplitAdd`/`SplitSub`/`SplitXor`; paper Table II row 1).
pub(super) fn split_op(
    g: &mut ObfGraph,
    id: ObfId,
    op: ByteOp,
    kind: TransformKind,
) -> TransformRecord {
    let (t_kind, boundary) = match g.node(id).kind() {
        ObfKind::Terminal { kind, boundary, .. } => (kind.clone(), boundary.clone()),
        _ => unreachable!("checked by applicable()"),
    };
    let pieces = [("r", TerminalKind::Bytes, boundary.clone()), ("v", t_kind, boundary)];
    split_terminal(g, id, kind, ("s", Recombine::Op(op)), pieces, format!("op={}", op.name()))
}

/// Cuts a terminal into two concatenated pieces (`SplitCat`).
pub(super) fn split_cat<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let (at, left, right, detail) = match g.node(id).kind() {
        ObfKind::Terminal { boundary: TermBoundary::Fixed(n), .. } => {
            let p = rng.gen_range(1..*n);
            let (left, right) = (TermBoundary::Fixed(p), TermBoundary::Fixed(n - p));
            (SplitAt::Byte(p), left, right, format!("cut at byte {p}"))
        }
        ObfKind::Terminal { boundary: TermBoundary::PlainLen { source, steps }, .. } => {
            let half = |step| TermBoundary::PlainLen {
                source: *source,
                steps: steps.iter().copied().chain([step]).collect(),
            };
            (SplitAt::Half, half(LenStep::HalfLo), half(LenStep::HalfHi), "cut at half".into())
        }
        _ => unreachable!("checked by applicable()"),
    };
    let pieces = [("l", TerminalKind::Bytes, left), ("h", TerminalKind::Bytes, right)];
    split_terminal(g, id, TransformKind::SplitCat, ("c", Recombine::Concat(at)), pieces, detail)
}

/// The skeleton of the split family: a [`ObfKind::SplitSeq`] that takes
/// over the terminal's base and ops replaces it, with the two `pieces` as
/// terminal children inheriting their bytes from it, and takes over the
/// terminal's value channel if it held one. Each new node is named after
/// the terminal plus its suffix and the name tag.
fn split_terminal(
    g: &mut ObfGraph,
    id: ObfId,
    kind: TransformKind,
    (suffix, recombine): (&str, Recombine),
    pieces: [(&str, TerminalKind, TermBoundary); 2],
    detail: String,
) -> TransformRecord {
    let t = g.node(id);
    let (name, origin, next) = (t.name.clone(), t.origin, t.obf_count + 1);
    let expr = match &t.kind {
        ObfKind::Terminal { base, ops, .. } => SplitExpr { base: base.clone(), ops: ops.clone() },
        _ => unreachable!("checked by applicable()"),
    };
    let tag = g.allocated();
    let split = ObfKind::SplitSeq { expr, recombine };
    let split = g.push(ObfNode::new(format!("{name}_{suffix}{tag}"), split, origin, next));
    let mut created = vec![split];
    for (i, (suffix, t_kind, boundary)) in pieces.into_iter().enumerate() {
        let piece =
            ObfKind::Terminal { kind: t_kind, base: Base::Inherit, ops: Vec::new(), boundary };
        let piece = g.push(ObfNode::new(format!("{name}_{suffix}{tag}"), piece, None, next));
        g.attach(split, i, piece);
        created.push(piece);
    }
    g.replace_child(id, split);
    if let Some(x) = origin.filter(|&x| g.holder_of(x) == Some(id)) {
        g.move_holder(x, split);
    }
    record(kind, id, name, created, detail)
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
    let detail = format!("op={} k={:02x?}", op.name(), k);
    match &mut g.node_mut(id).kind {
        ObfKind::Terminal { ops, .. } => ops.push(ConstOp { op, k }),
        _ => unreachable!("checked by applicable()"),
    }
    let (name, _) = bump(g, id);
    record(kind, id, name, vec![], detail)
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
    let prior = match &mut g.node_mut(id).kind {
        ObfKind::Terminal { boundary: TermBoundary::End, .. } => "end".to_string(),
        ObfKind::Terminal { boundary, .. } => {
            match std::mem::replace(boundary, TermBoundary::End) {
                TermBoundary::Delimited(d) => format!("delimited {d:02x?}"),
                _ => unreachable!("checked by applicable()"),
            }
        }
        ObfKind::Repetition { stop } => match std::mem::replace(stop, RepStop::Exhausted) {
            RepStop::Terminator(t) => format!("terminated {t:02x?}"),
            _ => unreachable!("checked by applicable()"),
        },
        _ => unreachable!("checked by applicable()"),
    };
    let detail = format!("{prior} -> {width}-byte {endian:?} prefix");
    wrap(g, id, TransformKind::BoundaryChange, ("len", ObfKind::Prefixed { width, endian }), detail)
}

/// Wraps a subtree so its bytes are emitted right-to-left (`ReadFromEnd`).
pub(super) fn read_from_end(g: &mut ObfGraph, id: ObfId) -> TransformRecord {
    wrap(g, id, TransformKind::ReadFromEnd, ("rev", ObfKind::Mirror), String::new())
}

/// The skeleton of the wrapping rewrites: a new one-child node of the
/// given kind, named after `id` plus its suffix and the name tag, takes
/// `id`'s place and holds it.
fn wrap(
    g: &mut ObfGraph,
    id: ObfId,
    kind: TransformKind,
    (suffix, wrapper): (&str, ObfKind),
    detail: String,
) -> TransformRecord {
    let (name, next) = bump(g, id);
    let tag = g.allocated();
    let wrapper = g.push(ObfNode::new(format!("{name}_{suffix}{tag}"), wrapper, None, next));
    g.replace_child(id, wrapper);
    g.attach(wrapper, 0, id);
    record(kind, id, name, vec![wrapper], detail)
}

/// Inserts a random pad terminal into a sequence (`PadInsert`). A sequence
/// that `leads` a terminated repetition's element keeps its first child
/// first.
pub(super) fn pad_insert<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    leads: bool,
    rng: &mut R,
) -> TransformRecord {
    let len = rng.gen_range(1..=8usize);
    let n_children = g.node(id).children().len();
    let min_idx = usize::from(leads);
    let idx = rng.gen_range(min_idx..=n_children.max(min_idx));
    let (name, next) = bump(g, id);
    let pad = ObfKind::Terminal {
        kind: TerminalKind::Bytes,
        base: Base::Pad(len),
        ops: Vec::new(),
        boundary: TermBoundary::Fixed(len),
    };
    let pad = g.push(ObfNode::new(format!("pad{}", g.allocated()), pad, None, next));
    g.attach(id, idx.min(n_children), pad);
    record(TransformKind::PadInsert, id, name, vec![pad], format!("{len} byte(s) at index {idx}"))
}

/// `(AB)^m` → `A^m B^m` (`TabSplit`, paper Table II).
pub(super) fn tab_split<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let counter = match g.node(id).kind() {
        ObfKind::Tabular { counter } => *counter,
        _ => unreachable!("checked by applicable()"),
    };
    let halves = (ObfKind::Tabular { counter }, |_| ObfKind::Tabular { counter });
    split_element(g, id, TransformKind::TabSplit, rng, halves)
}

/// `(AB)*` → `A^m B^m` with `m` checked at parse time (`RepSplit`).
pub(super) fn rep_split<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    rng: &mut R,
) -> TransformRecord {
    let stop = match g.node(id).kind() {
        ObfKind::Repetition { stop } => stop.clone(),
        _ => unreachable!("checked by applicable()"),
    };
    let halves =
        (ObfKind::Repetition { stop }, |a| ObfKind::Repetition { stop: RepStop::CountOf(a) });
    split_element(g, id, TransformKind::RepSplit, rng, halves)
}

/// The skeleton of the element splits: the loop's composite element is cut
/// after a random field into two delegated element sequences, each goes
/// into one of two new loops (`halves`: the first loop's kind, and the
/// second's as a function of the first loop's id, which it may count), and
/// a delegated sequence of the two loops takes the loop's place.
fn split_element<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    kind: TransformKind,
    rng: &mut R,
    (first, second): (ObfKind, impl FnOnce(ObfId) -> ObfKind),
) -> TransformRecord {
    let l = g.node(id);
    let (name, origin, next, elem) = (l.name.clone(), l.origin, l.obf_count + 1, l.children[0]);
    let fields = g.node(elem).children().to_vec();
    let j = rng.gen_range(1..fields.len());
    let tag = g.allocated();
    let elem_name = g.node(elem).name().to_string();
    let [e1, e2] = ["a", "b"]
        .map(|s| g.push(ObfNode::new(format!("{elem_name}_{s}{tag}"), delegated(), None, next)));
    for (i, &f) in fields.iter().enumerate() {
        let (half, pos) = if i < j { (e1, i) } else { (e2, i - j) };
        g.attach(half, pos, f);
    }
    g.node_mut(elem).children.clear();
    let a = g.push(ObfNode::new(format!("{name}_a{tag}"), first, origin, next));
    g.attach(a, 0, e1);
    let b = g.push(ObfNode::new(format!("{name}_b{tag}"), second(a), origin, next));
    g.attach(b, 0, e2);
    let seq = g.push(ObfNode::new(format!("{name}_sp{tag}"), delegated(), None, next));
    g.replace_child(id, seq);
    g.attach(seq, 0, a);
    g.attach(seq, 1, b);
    record(kind, id, name, vec![seq, a, b, e1, e2], format!("element split after field {j}"))
}

/// Swaps two children of a sequence (`ChildMove`). A sequence that `leads`
/// a terminated repetition's element keeps its first child first.
pub(super) fn child_move<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    leads: bool,
    rng: &mut R,
) -> TransformRecord {
    let n = g.node(id).children().len();
    let lo = usize::from(leads);
    let i = rng.gen_range(lo..n);
    let mut j = rng.gen_range(lo..n - 1);
    if j >= i {
        j += 1;
    }
    g.node_mut(id).children.swap(i, j);
    let (name, _) = bump(g, id);
    record(TransformKind::ChildMove, id, name, vec![], format!("swapped children {i} and {j}"))
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
        assert!(g.ancestors(addr).contains(&tabs[0]));
        assert!(g.ancestors(value).contains(&tabs[1]));
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
