//! Wire-extent calculus.
//!
//! Several transformations are only invertible when the parser can delimit
//! the transformed bytes. This module classifies every obfuscation-graph
//! node by *how* its wire extent can be determined:
//!
//! * [`ExtentClass::Static`] — a constant number of bytes;
//! * [`ExtentClass::PlainDep`] — computable **before** parsing the node,
//!   from plain values already recovered (length references, counters,
//!   optional conditions);
//! * [`ExtentClass::SelfDelim`] — discovered *while* parsing forward
//!   (delimiters, length prefixes);
//! * [`ExtentClass::WindowNeeded`] — requires an externally bounded window
//!   (`End` boundaries, exhausted repetitions).
//!
//! `ReadFromEnd` (Mirror) must know its child's extent before it can
//! un-reverse the bytes, so it requires `Static` or `PlainDep` — and all
//! plain references used in that computation must live *outside* the
//! mirrored subtree. These are exactly the checks
//! [`mirror_applicable`] performs.
//!
//! Classes are computed bottom-up over a pre-order layout of a subtree
//! in one pass; [`crate::transform::post_check`] lays out the whole
//! graph once and runs every check against that one table. The
//! obfuscation engine keeps one whole-graph layout for a derivation and
//! splices each rewritten slot into it ([`Layout::splice`]).

use crate::graph::NodeId;
use crate::obf::{ObfGraph, ObfId, ObfKind, ObfNode, RepStop, SeqBoundary, TermBoundary};

/// How a node's wire extent can be determined. Ordered from most to least
/// predictable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentClass {
    /// Always exactly this many bytes.
    Static(usize),
    /// Computable before parsing, from recovered plain values.
    PlainDep,
    /// Discovered by parsing forward.
    SelfDelim,
    /// Requires an externally bounded window.
    WindowNeeded,
}

impl ExtentClass {
    /// Severity rank used when combining children.
    fn rank(self) -> u8 {
        match self {
            ExtentClass::Static(_) => 0,
            ExtentClass::PlainDep => 1,
            ExtentClass::SelfDelim => 2,
            ExtentClass::WindowNeeded => 3,
        }
    }

    /// True if the extent is computable before parsing the node.
    pub fn precomputable(self) -> bool {
        self.rank() <= 1
    }
}

/// Combines sibling extents (sequence-like concatenation).
fn combine(classes: impl IntoIterator<Item = ExtentClass>) -> ExtentClass {
    let mut sum: usize = 0;
    let mut worst = 0u8;
    let mut all_static = true;
    for c in classes {
        match c {
            ExtentClass::Static(n) => sum += n,
            other => {
                all_static = false;
                worst = worst.max(other.rank());
            }
        }
    }
    if all_static {
        ExtentClass::Static(sum)
    } else {
        match worst {
            1 => ExtentClass::PlainDep,
            2 => ExtentClass::SelfDelim,
            _ => ExtentClass::WindowNeeded,
        }
    }
}

/// Position of nodes outside a [`Layout`]'s subtree.
const ABSENT: u32 = u32::MAX;

/// The pre-order layout of one subtree and the extent class of each of
/// its nodes, built in one pass.
///
/// A subtree occupies the contiguous positions `pos(id)..end(id)` of the
/// pre-order, so "is `d` inside `a`'s subtree" is an interval test and
/// the subtree itself is a slice of [`Layout::order`].
///
/// A whole-graph layout can follow a rewrite instead of being built
/// again: [`Layout::splice`] lays out the rewritten slot in place.
#[derive(Debug, Default)]
pub(crate) struct Layout {
    /// Pre-order of the subtree (wire order).
    order: Vec<ObfId>,
    /// Pre-order position by node index; [`ABSENT`] outside the subtree.
    /// One entry per allocated node.
    pos: Vec<u32>,
    /// One past the last position of each node's subtree, by position.
    end: Vec<u32>,
    /// Extent class of each node, by position.
    class: Vec<ExtentClass>,
    /// Traversal scratch, empty between calls.
    stack: Vec<ObfId>,
}

/// Layouts are equal when they lay out the same nodes alike; the
/// traversal scratch is not part of the layout.
impl PartialEq for Layout {
    fn eq(&self, other: &Layout) -> bool {
        (&self.order, &self.pos, &self.end, &self.class)
            == (&other.order, &other.pos, &other.end, &other.class)
    }
}

impl Layout {
    /// Lays out the subtree rooted at `top` and classifies it bottom-up.
    pub(crate) fn of(g: &ObfGraph, top: ObfId) -> Layout {
        let mut layout = Layout { pos: vec![ABSENT; g.allocated()], ..Layout::default() };
        layout.fill(g, 0..0, top);
        layout
    }

    /// Lays out, in place of the subtree at position `at`, the subtree now
    /// rooted at `top`: after a rewrite of the node at `at`, `top` is the
    /// node that took its place in its parent (or as the root), and after
    /// a rollback it is that node again. Positions after the slot shift by
    /// the change in its size; the ends and extent classes of the slot's
    /// ancestors are recomputed along its parent chain. Nothing else
    /// changes: no other subtree's nodes or kinds are touched by a rewrite.
    pub(crate) fn splice(&mut self, g: &ObfGraph, at: usize, top: ObfId) {
        let old = at..self.end[at] as usize;
        for &id in &self.order[old.clone()] {
            self.pos[id.index()] = ABSENT;
        }
        // A rollback truncates the nodes the rewrite allocated.
        self.pos.resize(g.allocated(), ABSENT);
        let end = self.fill(g, old.clone(), top);
        let delta = end as isize - old.end as isize;
        for i in end..self.order.len() {
            self.pos[self.order[i].index()] = i as u32;
            self.end[i] = (self.end[i] as isize + delta) as u32;
        }
        let mut cur = g.node(top).parent();
        while let Some(a) = cur {
            let node = g.node(a);
            let i = self.pos[a.index()] as usize;
            self.end[i] = (self.end[i] as isize + delta) as u32;
            self.class[i] = class_of(node, |c| self.class[self.pos[c.index()] as usize]);
            cur = node.parent();
        }
    }

    /// Lays out the subtree rooted at `top` over the positions `range`,
    /// classifies it bottom-up and returns one past its last position.
    /// Positions after `range` are moved but not renumbered.
    fn fill(&mut self, g: &ObfGraph, range: std::ops::Range<usize>, top: ObfId) -> usize {
        let (at, rest) = (range.start, self.order.len() - range.len());
        let stack = &mut self.stack;
        stack.push(top);
        let preorder = std::iter::from_fn(|| {
            let id = stack.pop()?;
            stack.extend(g.node(id).children().iter().rev());
            Some(id)
        });
        self.order.splice(range.clone(), preorder);
        let end = at + self.order.len() - rest;
        self.end.splice(range.clone(), std::iter::repeat_n(0, end - at));
        self.class.splice(range, std::iter::repeat_n(ExtentClass::Static(0), end - at));
        for i in at..end {
            self.pos[self.order[i].index()] = i as u32;
        }
        // Children follow their parent in pre-order, so a reverse sweep
        // sees every child's span and class before the parent's.
        for i in (at..end).rev() {
            let node = g.node(self.order[i]);
            self.end[i] = node
                .children()
                .last()
                .map_or(i as u32 + 1, |c| self.end[self.pos[c.index()] as usize]);
            self.class[i] = class_of(node, |c| self.class[self.pos[c.index()] as usize]);
        }
        end
    }

    /// The pre-order of the laid-out subtree.
    pub(crate) fn order(&self) -> &[ObfId] {
        &self.order
    }

    /// Pre-order position of `id`, `None` outside the subtree.
    pub(crate) fn position(&self, id: ObfId) -> Option<usize> {
        match self.pos.get(id.index()) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// One past the last pre-order position of `id`'s subtree.
    pub(crate) fn span_end(&self, id: ObfId) -> usize {
        self.end[self.at(id)] as usize
    }

    /// The subtree rooted at `id`, pre-order.
    pub(crate) fn subtree(&self, id: ObfId) -> &[ObfId] {
        let at = self.at(id);
        &self.order[at..self.end[at] as usize]
    }

    /// True if `descendant` is inside the subtree rooted at `ancestor`
    /// (`ancestor` itself included).
    pub(crate) fn contains(&self, ancestor: ObfId, descendant: ObfId) -> bool {
        let at = self.at(ancestor);
        self.position(descendant).is_some_and(|p| at <= p && p < self.end[at] as usize)
    }

    /// The extent class of `id`.
    pub(crate) fn class(&self, id: ObfId) -> ExtentClass {
        self.class[self.at(id)]
    }

    fn at(&self, id: ObfId) -> usize {
        self.position(id).expect("node outside the laid-out subtree")
    }
}

/// The extent class of `node`, given its children's classes.
fn class_of(node: &ObfNode, child: impl Fn(ObfId) -> ExtentClass) -> ExtentClass {
    let first = || child(node.children()[0]);
    match node.kind() {
        ObfKind::Terminal { boundary, .. } => match boundary {
            TermBoundary::Fixed(n) => ExtentClass::Static(*n),
            TermBoundary::Delimited(_) => ExtentClass::SelfDelim,
            TermBoundary::PlainLen { .. } => ExtentClass::PlainDep,
            TermBoundary::End => ExtentClass::WindowNeeded,
        },
        ObfKind::SplitSeq { .. } => combine(node.children().iter().map(|&c| child(c))),
        ObfKind::Sequence { boundary } => match boundary {
            SeqBoundary::Fixed(n) => ExtentClass::Static(*n),
            SeqBoundary::PlainLen(_) => ExtentClass::PlainDep,
            SeqBoundary::End => ExtentClass::WindowNeeded,
            SeqBoundary::Delegated => combine(node.children().iter().map(|&c| child(c))),
        },
        ObfKind::Optional { .. } => {
            // Presence is runtime information: never better than PlainDep.
            match first() {
                ExtentClass::Static(_) | ExtentClass::PlainDep => ExtentClass::PlainDep,
                other => other,
            }
        }
        ObfKind::Repetition { stop } => match stop {
            RepStop::Terminator(_) => match first() {
                ExtentClass::WindowNeeded => ExtentClass::WindowNeeded,
                _ => ExtentClass::SelfDelim,
            },
            RepStop::Exhausted => ExtentClass::WindowNeeded,
            RepStop::CountOf(_) => match first() {
                // The linked count is known once the first half parsed, so a
                // statically sized element makes the whole extent
                // precomputable at that point.
                ExtentClass::Static(_) => ExtentClass::PlainDep,
                ExtentClass::WindowNeeded => ExtentClass::WindowNeeded,
                _ => ExtentClass::SelfDelim,
            },
        },
        ObfKind::Tabular { .. } => match first() {
            ExtentClass::Static(_) => ExtentClass::PlainDep,
            ExtentClass::WindowNeeded => ExtentClass::WindowNeeded,
            _ => ExtentClass::SelfDelim,
        },
        ObfKind::Mirror => first(),
        ObfKind::Prefixed { .. } => ExtentClass::SelfDelim,
    }
}

/// The plain terminal whose recovered value the extent computation of
/// node `n` reads at parse time, if any.
fn extent_ref(g: &ObfGraph, n: ObfId) -> Option<NodeId> {
    match &g.node(n).kind {
        ObfKind::Terminal { boundary: TermBoundary::PlainLen { source, .. }, .. } => {
            g.plain().node(*source).boundary().reference()
        }
        ObfKind::Sequence { boundary: SeqBoundary::PlainLen(p) } => {
            g.plain().node(*p).boundary().reference()
        }
        ObfKind::Optional { condition } => Some(condition.subject),
        ObfKind::Tabular { counter } => Some(*counter),
        _ => None,
    }
}

/// Checks whether a `ReadFromEnd` (Mirror) wrapper can be applied around
/// `id`: the extent must be precomputable, and every plain reference that
/// computation needs must be held *outside* the mirrored subtree (otherwise
/// the value would only become available after un-mirroring — a cycle).
pub fn mirror_applicable(g: &ObfGraph, id: ObfId) -> Result<(), String> {
    mirror_check(g, &Layout::of(g, id), id)
}

/// [`mirror_applicable`] on a layout of any subtree that contains `id`.
pub(crate) fn mirror_check(g: &ObfGraph, layout: &Layout, id: ObfId) -> Result<(), String> {
    mirror_check_within(g, layout, id, layout.subtree(id))
}

/// [`mirror_check`] reading the references and count links of `nodes`
/// only, a part of `id`'s subtree. A rewrite inside the subtree of a
/// graph that passed the check changes no reference, holder or count
/// link outside the slot it rewrote, nor which side of the subtree's
/// bounds they lie on, so the slot's nodes decide the verdict.
pub(crate) fn mirror_check_within(
    g: &ObfGraph,
    layout: &Layout,
    id: ObfId,
    nodes: &[ObfId],
) -> Result<(), String> {
    let class = layout.class(id);
    if !class.precomputable() {
        return Err(format!("subtree extent is {class:?}; ReadFromEnd needs Static or PlainDep"));
    }
    for r in nodes.iter().filter_map(|&n| extent_ref(g, n)) {
        let holder = match g.holder_of(r) {
            Some(h) => h,
            None => {
                return Err(format!(
                    "reference {} has no recoverable holder",
                    g.plain().node(r).name()
                ))
            }
        };
        if layout.contains(id, holder) {
            return Err(format!(
                "reference {} is held inside the mirrored subtree",
                g.plain().node(r).name()
            ));
        }
    }
    // Count-linked repetitions inside the subtree must resolve their count
    // from a repetition *outside* it (chasing CountOf chains), otherwise
    // the extent depends on parsing the mirrored bytes themselves.
    for &n in nodes {
        if let ObfKind::Repetition { stop: RepStop::CountOf(first) } = g.node(n).kind() {
            let mut cur = *first;
            loop {
                if !layout.contains(id, cur) {
                    break; // escapes the subtree: count known before the mirror
                }
                match g.node(cur).kind() {
                    ObfKind::Repetition { stop: RepStop::CountOf(next) } => cur = *next,
                    _ => {
                        return Err(format!(
                            "count link of {} resolves inside the mirrored subtree",
                            g.node(n).name()
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

/// Checks that every rest-of-window node sits in tail position under a
/// window-providing ancestor — i.e. that `End` boundaries and exhausted
/// repetitions will actually receive a bounded window at parse time.
/// `layout` covers the whole graph.
pub(crate) fn check_windows(g: &ObfGraph, layout: &Layout) -> Result<(), String> {
    for (&id, &class) in layout.order.iter().zip(&layout.class) {
        if class == ExtentClass::WindowNeeded {
            check_window(g, id)?;
        }
    }
    Ok(())
}

/// [`check_windows`] for the one rest-of-window node `id`.
pub(crate) fn check_window(g: &ObfGraph, id: ObfId) -> Result<(), String> {
    // Walk up: `id` must be the last child at every level until a
    // window provider (root, Prefixed, Mirror, Fixed/PlainLen
    // sequence) is reached.
    let mut cur = id;
    while let Some(parent) = g.node(cur).parent() {
        let pnode = g.node(parent);
        let provides_window = matches!(
            pnode.kind,
            ObfKind::Prefixed { .. }
                | ObfKind::Mirror
                | ObfKind::Sequence { boundary: SeqBoundary::Fixed(_) | SeqBoundary::PlainLen(_) }
        );
        let is_last = pnode.children.last() == Some(&cur);
        if !is_last {
            return Err(format!(
                "rest-of-window node {} is not in tail position under {}",
                g.node(id).name(),
                pnode.name()
            ));
        }
        if provides_window {
            break;
        }
        // Repetition/tabular elements never receive exact windows.
        if matches!(pnode.kind, ObfKind::Repetition { .. } | ObfKind::Tabular { .. }) {
            return Err(format!(
                "rest-of-window node {} sits inside repeated element {}",
                g.node(id).name(),
                pnode.name()
            ));
        }
        cur = parent;
    }
    // Reached the root or a window provider.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, Condition, GraphBuilder, Predicate, StopRule};
    use crate::value::{TerminalKind, Value};

    fn build(f: impl FnOnce(&mut GraphBuilder)) -> ObfGraph {
        let mut b = GraphBuilder::new("t");
        f(&mut b);
        ObfGraph::from_plain(&b.build().unwrap())
    }

    fn find(g: &ObfGraph, name: &str) -> ObfId {
        g.preorder().into_iter().find(|&id| g.node(id).name() == name).unwrap()
    }

    fn classify(g: &ObfGraph, id: ObfId) -> ExtentClass {
        Layout::of(g, id).class(id)
    }

    /// The plain references the extent computation of `id`'s subtree reads.
    fn extent_refs(g: &ObfGraph, id: ObfId) -> Vec<NodeId> {
        Layout::of(g, id).subtree(id).iter().filter_map(|&n| extent_ref(g, n)).collect()
    }

    #[test]
    fn fixed_terminals_are_static() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            b.uint_be(root, "a", 2);
            b.uint_be(root, "b", 4);
        });
        assert_eq!(classify(&g, find(&g, "a")), ExtentClass::Static(2));
        assert_eq!(classify(&g, find(&g, "b")), ExtentClass::Static(4));
    }

    #[test]
    fn delegated_sequence_sums_static_children() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let s = b.sequence(root, "s", Boundary::Delegated);
            b.uint_be(s, "a", 2);
            b.uint_be(s, "b", 4);
        });
        assert_eq!(classify(&g, find(&g, "s")), ExtentClass::Static(6));
    }

    #[test]
    fn length_bounded_field_is_plain_dep() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let len = b.uint_be(root, "len", 2);
            let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
            b.set_auto(len, AutoValue::LengthOf(data));
        });
        assert_eq!(classify(&g, find(&g, "data")), ExtentClass::PlainDep);
    }

    #[test]
    fn delimited_field_is_self_delim() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            b.terminal(root, "uri", TerminalKind::Ascii, Boundary::Delimited(b" ".to_vec()));
            b.uint_be(root, "x", 1);
        });
        assert_eq!(classify(&g, find(&g, "uri")), ExtentClass::SelfDelim);
    }

    #[test]
    fn end_terminal_needs_window() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            b.uint_be(root, "x", 1);
            b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
        });
        assert_eq!(classify(&g, find(&g, "body")), ExtentClass::WindowNeeded);
        assert!(check_windows(&g, &Layout::of(&g, g.root())).is_ok()); // tail position under root
    }

    #[test]
    fn end_terminal_not_last_fails_window_check() {
        // Built directly at the obf level: the plain validator would also
        // reject this, so force the shape via from_plain on a valid graph
        // and then reorder children.
        let mut g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            b.uint_be(root, "x", 1);
            b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
        });
        let root = g.root();
        g.node_mut(root).children.reverse();
        assert!(check_windows(&g, &Layout::of(&g, root)).is_err());
    }

    #[test]
    fn tabular_of_static_elements_is_plain_dep() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let c = b.uint_be(root, "count", 1);
            let t = b.tabular(root, "items", c);
            b.set_auto(c, AutoValue::CounterOf(t));
            b.uint_be(t, "item", 2);
        });
        assert_eq!(classify(&g, find(&g, "items")), ExtentClass::PlainDep);
    }

    #[test]
    fn repetition_with_terminator_is_self_delim() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let r = b.repetition(
                root,
                "headers",
                StopRule::Terminator(b"\r\n".to_vec()),
                Boundary::Delegated,
            );
            let h = b.sequence(r, "header", Boundary::Delegated);
            b.terminal(h, "name", TerminalKind::Ascii, Boundary::Delimited(b":".to_vec()));
            b.terminal(h, "value", TerminalKind::Ascii, Boundary::Delimited(b"\r\n".to_vec()));
        });
        assert_eq!(classify(&g, find(&g, "headers")), ExtentClass::SelfDelim);
    }

    #[test]
    fn optional_is_at_best_plain_dep() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let f = b.uint_be(root, "flag", 1);
            let o = b.optional(
                root,
                "extra",
                Condition { subject: f, predicate: Predicate::Equals(Value::from_bytes(vec![1])) },
            );
            b.uint_be(o, "v", 4);
        });
        assert_eq!(classify(&g, find(&g, "extra")), ExtentClass::PlainDep);
    }

    #[test]
    fn mirror_applicable_on_static_subtree() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let s = b.sequence(root, "s", Boundary::Delegated);
            b.uint_be(s, "a", 2);
            b.uint_be(s, "b", 2);
        });
        assert!(mirror_applicable(&g, find(&g, "s")).is_ok());
    }

    #[test]
    fn mirror_rejected_on_delimited_subtree() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            b.terminal(root, "uri", TerminalKind::Ascii, Boundary::Delimited(b" ".to_vec()));
            b.uint_be(root, "x", 1);
        });
        assert!(mirror_applicable(&g, find(&g, "uri")).is_err());
    }

    #[test]
    fn mirror_rejected_when_length_ref_is_inside() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let s = b.sequence(root, "s", Boundary::Delegated);
            let len = b.uint_be(s, "len", 2);
            let data = b.terminal(s, "data", TerminalKind::Bytes, Boundary::Length(len));
            b.set_auto(len, AutoValue::LengthOf(data));
        });
        // Mirroring `s` would need `len`'s value, which is inside `s`.
        assert!(mirror_applicable(&g, find(&g, "s")).is_err());
        // Mirroring just the data field is fine: the ref is outside.
        assert!(mirror_applicable(&g, find(&g, "data")).is_ok());
    }

    #[test]
    fn extent_refs_reports_length_sources() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let len = b.uint_be(root, "len", 2);
            let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
            b.set_auto(len, AutoValue::LengthOf(data));
        });
        let len_plain = g.plain().resolve_names(&["len"]).unwrap();
        assert_eq!(extent_refs(&g, g.root()), vec![len_plain]);
        assert_eq!(extent_refs(&g, find(&g, "data")), vec![len_plain]);
        assert_eq!(extent_refs(&g, find(&g, "len")), vec![]);
    }

    #[test]
    fn extent_refs_reports_optional_subjects_and_counters() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let f = b.uint_be(root, "flag", 1);
            let o = b.optional(
                root,
                "extra",
                Condition { subject: f, predicate: Predicate::Equals(Value::from_bytes(vec![1])) },
            );
            b.uint_be(o, "v", 4);
            let c = b.uint_be(root, "count", 1);
            let t = b.tabular(root, "items", c);
            b.set_auto(c, AutoValue::CounterOf(t));
            b.uint_be(t, "item", 2);
        });
        let flag = g.plain().resolve_names(&["flag"]).unwrap();
        let count = g.plain().resolve_names(&["count"]).unwrap();
        assert_eq!(extent_refs(&g, find(&g, "extra")), vec![flag]);
        assert_eq!(extent_refs(&g, find(&g, "items")), vec![count]);
        assert_eq!(extent_refs(&g, g.root()), vec![flag, count]);
    }

    #[test]
    fn layout_spans_are_preorder_intervals() {
        let g = build(|b| {
            let root = b.root_sequence("m", Boundary::End);
            let s = b.sequence(root, "s", Boundary::Delegated);
            b.uint_be(s, "a", 2);
            b.uint_be(s, "b", 4);
            b.uint_be(root, "c", 1);
        });
        let (s, a, c) = (find(&g, "s"), find(&g, "a"), find(&g, "c"));
        let whole = Layout::of(&g, g.root());
        assert_eq!(whole.order(), g.preorder());
        assert_eq!(whole.subtree(s), g.subtree(s));
        assert_eq!(whole.span_end(s), 4);
        assert!(whole.contains(s, s) && whole.contains(s, a) && !whole.contains(s, c));
        assert_eq!(whole.class(s), ExtentClass::Static(6));
        // A subtree layout knows nothing outside its subtree.
        let inner = Layout::of(&g, s);
        assert_eq!(inner.position(c), None);
        assert_eq!(inner.position(a), Some(1));
        assert!(!inner.contains(s, c));
    }

    #[test]
    fn combine_orders_by_severity() {
        assert_eq!(
            combine([ExtentClass::Static(2), ExtentClass::Static(3)]),
            ExtentClass::Static(5)
        );
        assert_eq!(combine([ExtentClass::Static(2), ExtentClass::PlainDep]), ExtentClass::PlainDep);
        assert_eq!(
            combine([ExtentClass::PlainDep, ExtentClass::SelfDelim]),
            ExtentClass::SelfDelim
        );
        assert_eq!(
            combine([ExtentClass::SelfDelim, ExtentClass::WindowNeeded]),
            ExtentClass::WindowNeeded
        );
    }
}
