//! Shared runtime machinery: scope helpers, byte-string search, and the
//! **reference** graph walks of top-down value *distribution* (the forward
//! aggregation transformations, τ) and bottom-up value *recovery* (their
//! inverses, τ⁻¹).
//!
//! Production code never runs the two walks: the accessors, the plan
//! sessions and the transcode copy programs all execute the compiled
//! distribution/recovery programs of [`crate::plan::CodecPlan`]. The walks
//! serve only the reference interpreters the compiled paths are
//! differentially tested against — the walk serializer
//! ([`crate::serialize::serialize_seeded`]), the walk parser
//! ([`crate::parse::parse`]) and
//! [`crate::message::Message::transcode_into_walk`].

use rand::Rng;

use crate::error::BuildError;
use crate::graph::{FormatGraph, NodeId, NodeType};
use crate::obf::{ObfGraph, ObfId, ObfKind, Recombine};
use crate::value::{apply_op, Value};

/// Element-index scope of a node instance: one index per
/// repetition/tabular crossed, outermost first.
pub type Scope = Vec<u32>;

/// Number of repetition/tabular ancestors of a plain node — the scope
/// depth its instances live at.
pub fn container_depth(plain: &FormatGraph, x: NodeId) -> usize {
    let mut d = 0;
    let mut cur = plain.node(x).parent();
    while let Some(p) = cur {
        if matches!(plain.node(p).node_type(), NodeType::Repetition(_) | NodeType::Tabular) {
            d += 1;
        }
        cur = plain.node(p).parent();
    }
    d
}

/// Truncates `scope` to the depth plain node `x` lives at. Referenced
/// nodes are always at a scope-prefix of their users (backward-reference
/// rule), so taking the outermost components is exact.
pub fn scoped(plain: &FormatGraph, x: NodeId, scope: &[u32]) -> Scope {
    let d = container_depth(plain, x);
    scope[..d.min(scope.len())].to_vec()
}

/// Applies a terminal's constant-op stack (forward direction).
fn apply_ops(ops: &[crate::obf::ConstOp], v: Value) -> Value {
    let mut bytes = v.into_bytes();
    for op in ops {
        bytes = apply_op(op.op, &bytes, &op.k);
    }
    Value::from_bytes(bytes)
}

/// Undoes a terminal's constant-op stack (reverse order, inverse ops).
fn undo_ops(ops: &[crate::obf::ConstOp], v: Value) -> Value {
    let mut bytes = v.into_bytes();
    for op in ops.iter().rev() {
        bytes = apply_op(op.op.inverse(), &bytes, &op.k);
    }
    Value::from_bytes(bytes)
}

/// Distributes `input` through the holder subtree rooted at `node`,
/// emitting the wire value of every terminal instance into `sink`.
///
/// This is the forward aggregation pass the paper runs inside the
/// generated setters: constant ops are applied, split sequences cut the
/// value into pieces or into a random share plus a combined share.
///
/// # Errors
///
/// [`BuildError::BadValueLength`] / [`BuildError::ValueContainsDelimiter`]
/// when the input violates a boundary of the subtree.
pub(crate) fn distribute<R: Rng + ?Sized>(
    g: &ObfGraph,
    node: ObfId,
    input: Value,
    scope: &[u32],
    rng: &mut R,
    sink: &mut dyn FnMut(ObfId, &[u32], Value),
) -> Result<(), BuildError> {
    let n = g.node(node);
    match &n.kind {
        ObfKind::Terminal { ops, boundary, .. } => {
            use crate::obf::TermBoundary;
            match boundary {
                TermBoundary::Fixed(k) => {
                    if input.len() != *k {
                        return Err(BuildError::BadValueLength {
                            path: n.name().to_string(),
                            expected: *k,
                            found: input.len(),
                        });
                    }
                }
                TermBoundary::Delimited(d) => {
                    if contains(input.as_bytes(), d) {
                        return Err(BuildError::ValueContainsDelimiter {
                            path: n.name().to_string(),
                        });
                    }
                }
                TermBoundary::PlainLen { .. } | TermBoundary::End => {}
            }
            sink(node, scope, apply_ops(ops, input));
            Ok(())
        }
        ObfKind::SplitSeq { expr, recombine } => {
            let v = apply_ops(&expr.ops, input);
            let bytes = v.into_bytes();
            let (left, right) = match recombine {
                Recombine::Concat(at) => {
                    let p = at.position(bytes.len());
                    (bytes[..p].to_vec(), bytes[p..].to_vec())
                }
                Recombine::Op(op) => {
                    let share: Vec<u8> = (0..bytes.len()).map(|_| rng.gen()).collect();
                    let combined = apply_op(*op, &bytes, pad_one(&share));
                    (share, combined)
                }
            };
            distribute(g, n.children()[0], Value::from_bytes(left), scope, rng, sink)?;
            distribute(g, n.children()[1], Value::from_bytes(right), scope, rng, sink)
        }
        ObfKind::Mirror | ObfKind::Prefixed { .. } => {
            distribute(g, n.children()[0], input, scope, rng, sink)
        }
        other => unreachable!(
            "holder subtrees contain only terminals, split sequences and wrappers, found {}",
            other.tag()
        ),
    }
}

/// `apply_op` requires a non-empty right operand; an empty share only
/// occurs together with an empty value, where any 1-byte operand is inert.
fn pad_one(share: &[u8]) -> &[u8] {
    if share.is_empty() {
        &[0]
    } else {
        share
    }
}

/// Recovers the base value of the holder subtree rooted at `node` from
/// terminal wire values (the inverse aggregation pass, run by getters and
/// by the parser for structurally needed references).
///
/// Returns `None` when a required wire value is missing from `lookup`.
pub(crate) fn recover(
    g: &ObfGraph,
    node: ObfId,
    scope: &[u32],
    lookup: &dyn Fn(ObfId, &[u32]) -> Option<Value>,
) -> Option<Value> {
    let n = g.node(node);
    match &n.kind {
        ObfKind::Terminal { ops, .. } => {
            let wire = lookup(node, scope)?;
            Some(undo_ops(ops, wire))
        }
        ObfKind::SplitSeq { expr, recombine } => {
            let a = recover(g, n.children()[0], scope, lookup)?;
            let b = recover(g, n.children()[1], scope, lookup)?;
            let v = match recombine {
                Recombine::Concat(_) => {
                    let mut bytes = a.into_bytes();
                    bytes.extend_from_slice(b.as_bytes());
                    Value::from_bytes(bytes)
                }
                Recombine::Op(op) => {
                    Value::from_bytes(apply_op(op.inverse(), b.as_bytes(), pad_one(a.as_bytes())))
                }
            };
            Some(undo_ops(&expr.ops, v))
        }
        ObfKind::Mirror | ObfKind::Prefixed { .. } => recover(g, n.children()[0], scope, lookup),
        _ => None,
    }
}

/// Structural identity of two plain specifications — the precondition of
/// [`crate::message::Message::transcode_into`] and of
/// [`crate::plan::CopyProgram::compile`], both of which copy values by
/// raw node index. A name/size fingerprint alone would let two
/// coincidentally same-sized specs silently mis-map fields, so every node
/// is compared (name, type, boundary, auto rule, topology). Specs are
/// small (tens of nodes), so the per-call cost is a short scan with early
/// exit — and both callers cache the verdict per graph pairing anyway.
pub(crate) fn plains_match(a: &FormatGraph, b: &FormatGraph) -> bool {
    a.name() == b.name()
        && a.len() == b.len()
        && a.ids().all(|i| {
            let (na, nb) = (a.node(i), b.node(i));
            na.name() == nb.name()
                && na.node_type() == nb.node_type()
                && na.boundary() == nb.boundary()
                && na.auto() == nb.auto()
                && na.parent() == nb.parent()
                && na.children() == nb.children()
        })
}

/// Byte-string containment used for delimiter validation.
pub fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() || haystack.len() < needle.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Locates `needle` in `haystack[from..to]`, returning the absolute offset.
pub fn find(haystack: &[u8], needle: &[u8], from: usize, to: usize) -> Option<usize> {
    if needle.is_empty() || to < from + needle.len() {
        return None;
    }
    haystack[from..to].windows(needle.len()).position(|w| w == needle).map(|p| p + from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, GraphBuilder};
    use crate::transform::{apply, TransformKind};
    use crate::value::TerminalKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn sample() -> ObfGraph {
        let mut b = GraphBuilder::new("s");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        b.uint_be(root, "code", 4);
        ObfGraph::from_plain(&b.build().unwrap())
    }

    fn roundtrip_through(g: &ObfGraph, x: NodeId, input: &[u8]) -> Value {
        let holder = g.holder_of(x).unwrap();
        let mut store: HashMap<(ObfId, Scope), Value> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(3);
        distribute(
            g,
            holder,
            Value::from_bytes(input.to_vec()),
            &[],
            &mut rng,
            &mut |id, sc, v| {
                store.insert((id, sc.to_vec()), v);
            },
        )
        .unwrap();
        recover(g, holder, &[], &|id, sc| store.get(&(id, sc.to_vec())).cloned()).unwrap()
    }

    #[test]
    fn identity_distribution_roundtrips() {
        let g = sample();
        let data = g.plain().resolve_names(&["data"]).unwrap();
        assert_eq!(roundtrip_through(&g, data, b"hello").as_bytes(), b"hello");
    }

    #[test]
    fn roundtrip_after_split_and_const_stack() {
        let mut g = sample();
        let mut rng = StdRng::seed_from_u64(11);
        let code_plain = g.plain().resolve_names(&["code"]).unwrap();
        let code = g.holder_of(code_plain).unwrap();
        apply(&mut g, code, TransformKind::ConstAdd, &mut rng).unwrap();
        let holder = g.holder_of(code_plain).unwrap();
        let rec = apply(&mut g, holder, TransformKind::SplitXor, &mut rng).unwrap();
        apply(&mut g, rec.created[1], TransformKind::ConstSub, &mut rng).unwrap();
        apply(&mut g, rec.created[2], TransformKind::SplitCat, &mut rng).unwrap();
        assert_eq!(roundtrip_through(&g, code_plain, b"\x01\x02\x03\x04").as_bytes(), [1, 2, 3, 4]);
    }

    #[test]
    fn roundtrip_empty_value_through_split() {
        let mut g = sample();
        let mut rng = StdRng::seed_from_u64(5);
        let data_plain = g.plain().resolve_names(&["data"]).unwrap();
        let holder = g.holder_of(data_plain).unwrap();
        apply(&mut g, holder, TransformKind::SplitAdd, &mut rng).unwrap();
        assert_eq!(roundtrip_through(&g, data_plain, b"").len(), 0);
    }

    #[test]
    fn distribute_rejects_bad_fixed_length() {
        let g = sample();
        let code = g.plain().resolve_names(&["code"]).unwrap();
        let holder = g.holder_of(code).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r =
            distribute(&g, holder, Value::from_bytes(vec![1, 2]), &[], &mut rng, &mut |_, _, _| {});
        assert!(matches!(r, Err(BuildError::BadValueLength { expected: 4, found: 2, .. })));
    }

    #[test]
    fn recover_missing_wire_is_none() {
        let g = sample();
        let code = g.plain().resolve_names(&["code"]).unwrap();
        let holder = g.holder_of(code).unwrap();
        assert!(recover(&g, holder, &[], &|_, _| None).is_none());
    }

    #[test]
    fn scope_truncation() {
        let mut b = GraphBuilder::new("t");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 1);
        let tab = b.tabular(root, "items", count);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let item = b.sequence(tab, "item", Boundary::Delegated);
        b.uint_be(item, "v", 2);
        let plain = b.build().unwrap();
        let v = plain.resolve_names(&["items", "v"]).unwrap();
        let c = plain.resolve_names(&["count"]).unwrap();
        assert_eq!(container_depth(&plain, v), 1);
        assert_eq!(container_depth(&plain, c), 0);
        assert_eq!(scoped(&plain, v, &[3]), vec![3]);
        assert_eq!(scoped(&plain, c, &[3]), Vec::<u32>::new());
    }

    #[test]
    fn find_and_contains() {
        assert!(contains(b"abcd", b"bc"));
        assert!(!contains(b"abcd", b"ca"));
        assert!(!contains(b"ab", b"abc"));
        assert_eq!(find(b"xxabyy", b"ab", 0, 6), Some(2));
        assert_eq!(find(b"xxabyy", b"ab", 3, 6), None);
        assert_eq!(find(b"xxabab", b"ab", 3, 6), Some(4));
    }
}
