//! Shared runtime machinery: scope helpers, the structural identity check
//! of two plain specifications, and byte-string search.

use crate::graph::{FormatGraph, NodeId, NodeType};

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

/// Structural identity of two plain specifications — the precondition of
/// [`crate::plan::CopyProgram::compile`] and of the reference transcode
/// in [`crate::reference`], both of which copy values by raw node index.
/// A name/size fingerprint alone would let two coincidentally same-sized
/// specs silently mis-map fields, so every node is compared (name, type,
/// boundary, auto rule, topology). Specs are small (tens of nodes), so the
/// per-call cost is a short scan with early exit — and the compiled path
/// caches its verdict per graph pairing anyway.
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
    use crate::error::BuildError;
    use crate::graph::{AutoValue, Boundary, GraphBuilder};
    use crate::obf::{ObfGraph, ObfId};
    use crate::reference::{distribute, recover};
    use crate::transform::{apply, TransformKind};
    use crate::value::{TerminalKind, Value};
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
