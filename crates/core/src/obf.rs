//! The obfuscation graph: the paper's `G_{i}` chain.
//!
//! [`ObfGraph::from_plain`] produces `G_1`, a one-to-one image of the plain
//! [`FormatGraph`]. Generic transformations (module [`crate::transform`])
//! rewrite it in place into `G_2 … G_{n+1}`. The runtime serializer and
//! parser interpret the final graph directly, which is how this crate keeps
//! every transformation invertible *by construction*: each rewrite installs
//! both the forward (serialize) and backward (parse) semantics in the same
//! node.
//!
//! # Value channels
//!
//! Every terminal receives an *input value* top-down during serialization:
//! either its own base (a plain field, an auto-computed length/counter, pad
//! bytes) or a slice/share handed down by an enclosing [`ObfKind::SplitSeq`]
//! (created by the `Split*` transformations). The terminal applies its
//! constant-operation stack and the result is its wire value. Parsing runs
//! the mirror image bottom-up: wire values are collected, constant ops are
//! undone, and split sequences recombine their children's recovered inputs
//! (`Concat` for `SplitCat`, the inverse byte operation for
//! `SplitAdd`/`SplitSub`/`SplitXor`) until a `Source` base yields the plain
//! field value back.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::graph::{AutoValue, Boundary, Condition, FormatGraph, NodeId, NodeType, StopRule};
use crate::value::{ByteOp, Endian, SplitAt, TerminalKind};

/// Identifier of a node inside an [`ObfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObfId(pub(crate) u32);

impl ObfId {
    /// Raw index value (stable within one graph; nodes are never removed,
    /// only detached).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Where a terminal's input value comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Base {
    /// The plain value of a specification terminal, supplied through the
    /// accessor interface.
    Source(NodeId),
    /// Auto-computed: plain serialized length of the plain subtree.
    AutoLen(NodeId),
    /// Auto-computed: element count of the plain tabular/repetition node.
    AutoCount(NodeId),
    /// Pad bytes of the given length, random at serialization, discarded at
    /// parse (`PadInsert`).
    Pad(usize),
    /// A protocol constant: emitted on serialization, verified on parse.
    Const(crate::value::Value),
    /// Handed down by the enclosing [`ObfKind::SplitSeq`].
    Inherit,
}

impl Base {
    /// The plain source field, if this base carries one.
    pub fn source(&self) -> Option<NodeId> {
        match self {
            Base::Source(x) => Some(*x),
            _ => None,
        }
    }
}

/// A constant byte operation applied to a terminal's input value
/// (`ConstAdd`, `ConstSub`, `ConstXor`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstOp {
    /// The byte-wise operator.
    pub op: ByteOp,
    /// The constant, cycled over the value (never empty).
    pub k: Vec<u8>,
}

/// How a [`ObfKind::SplitSeq`]'s two children recombine into the value the
/// replaced terminal used to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recombine {
    /// `value == concat(child0, child1)` (`SplitCat`).
    Concat(SplitAt),
    /// `child0` is random, `child1 = value ⟨op⟩ child0`
    /// (`SplitAdd`/`SplitSub`/`SplitXor`).
    Op(ByteOp),
}

/// The value expression a [`ObfKind::SplitSeq`] evaluates before splitting:
/// the base and constant-op stack the replaced terminal used to have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitExpr {
    /// Input source of the replaced terminal.
    pub base: Base,
    /// Constant ops of the replaced terminal.
    pub ops: Vec<ConstOp>,
}

/// Length derivation steps for terminals produced by splitting a field
/// whose plain length is carried by a `Length` reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenStep {
    /// `floor(len / 2)` — the left half of a `SplitCat` at
    /// [`SplitAt::Half`].
    HalfLo,
    /// `len - floor(len / 2)` — the right half.
    HalfHi,
}

impl LenStep {
    /// Applies the step to a length.
    pub fn apply(self, len: usize) -> usize {
        match self {
            LenStep::HalfLo => len / 2,
            LenStep::HalfHi => len - len / 2,
        }
    }
}

/// How the parser finds the wire extent of a terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermBoundary {
    /// Exactly `n` bytes.
    Fixed(usize),
    /// Scan for the delimiter; it is consumed but not part of the value.
    Delimited(Vec<u8>),
    /// `steps(plain_len(source))` bytes, where `source` is the plain
    /// terminal whose `Length` reference carries the plain length.
    PlainLen {
        /// The plain terminal whose declared `Length` boundary supplies
        /// the base length.
        source: NodeId,
        /// Length-derivation steps accumulated by `Split*` transformations.
        steps: Vec<LenStep>,
    },
    /// The rest of the enclosing window.
    End,
}

/// How the parser bounds a sequence node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqBoundary {
    /// Sum of the children's extents.
    Delegated,
    /// The rest of the enclosing window.
    End,
    /// Exactly `n` bytes; children must consume them exactly.
    Fixed(usize),
    /// The plain length of this (plain) node, carried by its `Length`
    /// reference. Valid as an exact window only while no size-changing
    /// transformation is applied inside (enforced by the transformation
    /// constraints).
    PlainLen(NodeId),
}

/// Stop rule of an obfuscated repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepStop {
    /// Elements until the terminator matches; terminator consumed.
    Terminator(Vec<u8>),
    /// Elements until the window is exhausted.
    Exhausted,
    /// Exactly as many elements as the linked repetition parsed
    /// (`RepSplit` second half — the copy-language count check).
    CountOf(ObfId),
}

/// Node kind of the obfuscation graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObfKind {
    /// A leaf carrying bytes on the wire.
    Terminal {
        /// Interpretation of the bytes.
        kind: TerminalKind,
        /// Input value source.
        base: Base,
        /// Constant-op stack applied to the input (in order) at
        /// serialization, undone (in reverse) at parse.
        ops: Vec<ConstOp>,
        /// Wire extent rule.
        boundary: TermBoundary,
    },
    /// Two-children sequence created by a `Split*` transformation.
    SplitSeq {
        /// The replaced terminal's value expression.
        expr: SplitExpr,
        /// Recombination rule.
        recombine: Recombine,
    },
    /// Ordered concatenation of children.
    Sequence {
        /// Extent rule.
        boundary: SeqBoundary,
    },
    /// Presence decided by a predicate over a plain terminal's value.
    Optional {
        /// The plain-graph condition.
        condition: Condition,
    },
    /// Repeated single child.
    Repetition {
        /// Stop rule.
        stop: RepStop,
    },
    /// Repeated single child, count given by a plain counter field.
    Tabular {
        /// The plain terminal carrying the element count.
        counter: NodeId,
    },
    /// Single child whose serialized bytes are reversed (`ReadFromEnd`).
    Mirror,
    /// Single child prefixed with the byte length of its serialization
    /// (`BoundaryChange`).
    Prefixed {
        /// Width of the length prefix in bytes.
        width: usize,
        /// Byte order of the prefix.
        endian: Endian,
    },
}

impl ObfKind {
    /// Short tag for plan listings and generated-code names.
    pub fn tag(&self) -> &'static str {
        match self {
            ObfKind::Terminal { .. } => "term",
            ObfKind::SplitSeq { .. } => "split",
            ObfKind::Sequence { .. } => "seq",
            ObfKind::Optional { .. } => "opt",
            ObfKind::Repetition { .. } => "rep",
            ObfKind::Tabular { .. } => "tab",
            ObfKind::Mirror => "mirror",
            ObfKind::Prefixed { .. } => "prefixed",
        }
    }
}

/// One node of the obfuscation graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObfNode {
    pub(crate) name: String,
    pub(crate) kind: ObfKind,
    pub(crate) children: Vec<ObfId>,
    pub(crate) parent: Option<ObfId>,
    /// The plain node this one structurally stands for, if any. Used for
    /// presence/count bookkeeping and provenance reporting.
    pub(crate) origin: Option<NodeId>,
    /// Number of transformations that have targeted this node (the paper's
    /// per-node obfuscation budget).
    pub(crate) obf_count: u32,
}

impl ObfNode {
    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Node kind.
    pub fn kind(&self) -> &ObfKind {
        &self.kind
    }

    /// Children, in wire order.
    pub fn children(&self) -> &[ObfId] {
        &self.children
    }

    /// Parent, `None` for the root.
    pub fn parent(&self) -> Option<ObfId> {
        self.parent
    }

    /// The plain node this one stands for.
    pub fn origin(&self) -> Option<NodeId> {
        self.origin
    }

    /// Transformations applied so far targeting this node.
    pub fn obf_count(&self) -> u32 {
        self.obf_count
    }

    /// True for terminal nodes.
    pub fn is_terminal(&self) -> bool {
        matches!(self.kind, ObfKind::Terminal { .. })
    }
}

/// The obfuscation graph: plain specification plus applied rewrites.
#[derive(Debug, Clone)]
pub struct ObfGraph {
    plain: FormatGraph,
    nodes: Vec<ObfNode>,
    root: ObfId,
    /// plain terminal → the obf node carrying its value channel. Auto
    /// fields are included: their recovered raw value *is* the plain value
    /// (the encoded length/count).
    holders: HashMap<NodeId, ObfId>,
    /// Process-unique structural version, refreshed by every mutation
    /// ([`ObfGraph::touch`]). Never reused across graphs, so caches keyed
    /// on it (e.g. the transcode validation of
    /// [`crate::message::Message`]) cannot be fooled by allocator address
    /// reuse. Clones keep the uid: a clone is structurally identical
    /// until its next mutation.
    uid: u64,
    /// Lazily compiled execution plan (see [`crate::plan::CodecPlan`]),
    /// shared by the codec, the sessions and the transcode copy programs.
    /// Invalidated by [`ObfGraph::touch`] on every rewrite, so a cached
    /// plan always describes the current graph. Cloning clones the cached
    /// plan (a clone is structurally identical until its next mutation).
    plan: OnceLock<crate::plan::CodecPlan>,
}

/// Source of [`ObfGraph::uid`] values; starts at 1 so 0 can mean "none".
static NEXT_GRAPH_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl ObfGraph {
    /// Builds `G_1`: the identity image of a validated plain graph.
    pub fn from_plain(plain: &FormatGraph) -> ObfGraph {
        let mut g = ObfGraph {
            plain: plain.clone(),
            nodes: Vec::with_capacity(plain.len()),
            root: ObfId(0),
            holders: HashMap::new(),
            uid: NEXT_GRAPH_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            plan: OnceLock::new(),
        };
        let root = g.import(plain, plain.root(), None);
        g.root = root;
        g
    }

    /// The graph's structural version (see the field docs).
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// Assigns a fresh structural version. Called by every rewrite so
    /// stale caches keyed on the old uid cannot match a changed graph.
    /// Also drops the cached compiled plan — it described the old shape.
    pub(crate) fn touch(&mut self) {
        self.uid = NEXT_GRAPH_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.plan = OnceLock::new();
    }

    /// The compiled execution plan of this graph, built on first use and
    /// cached (every rewrite invalidates it via `ObfGraph::touch`). The
    /// codec, the pooled sessions and the transcode copy programs all
    /// share this one instance.
    pub fn plan(&self) -> &crate::plan::CodecPlan {
        self.plan.get_or_init(|| {
            let plan = crate::plan::CodecPlan::compile(self);
            // Debug builds statically verify every freshly compiled plan
            // (bounds, balance, recovery↔distribution duality, auto
            // acyclicity) before anything interprets it. The verifier
            // reads only the plain graph and node table — it must never
            // call `plan()` back, which would deadlock this OnceLock.
            #[cfg(debug_assertions)]
            {
                let diags = crate::verify::verify_plan(self, &plan);
                assert!(diags.is_empty(), "compiled plan failed static verification: {diags:#?}");
            }
            plan
        })
    }

    fn import(&mut self, plain: &FormatGraph, id: NodeId, parent: Option<ObfId>) -> ObfId {
        let node = plain.node(id);
        let kind = match node.node_type() {
            NodeType::Terminal(k) => {
                let base = match node.auto() {
                    AutoValue::None => Base::Source(id),
                    AutoValue::LengthOf(t) => Base::AutoLen(*t),
                    AutoValue::CounterOf(t) => Base::AutoCount(*t),
                    AutoValue::Literal(v) => Base::Const(v.clone()),
                };
                let boundary = match node.boundary() {
                    Boundary::Fixed(n) => TermBoundary::Fixed(*n),
                    Boundary::Delimited(d) => TermBoundary::Delimited(d.clone()),
                    Boundary::Length(_) => TermBoundary::PlainLen { source: id, steps: Vec::new() },
                    Boundary::End => TermBoundary::End,
                    // Validation guarantees these cannot appear on terminals.
                    Boundary::Counter(_) | Boundary::Delegated => unreachable!(),
                };
                ObfKind::Terminal { kind: k.clone(), base, ops: Vec::new(), boundary }
            }
            NodeType::Sequence => {
                let boundary = match node.boundary() {
                    Boundary::Delegated => SeqBoundary::Delegated,
                    Boundary::End => SeqBoundary::End,
                    Boundary::Fixed(n) => SeqBoundary::Fixed(*n),
                    Boundary::Length(_) => SeqBoundary::PlainLen(id),
                    Boundary::Counter(_) | Boundary::Delimited(_) => unreachable!(),
                };
                ObfKind::Sequence { boundary }
            }
            NodeType::Optional(c) => ObfKind::Optional { condition: c.clone() },
            NodeType::Repetition(stop) => ObfKind::Repetition {
                stop: match stop {
                    StopRule::Terminator(t) => RepStop::Terminator(t.clone()),
                    StopRule::Exhausted => RepStop::Exhausted,
                },
            },
            NodeType::Tabular => {
                let counter = match node.boundary() {
                    Boundary::Counter(c) => *c,
                    _ => unreachable!(),
                };
                ObfKind::Tabular { counter }
            }
        };
        let oid = self.push(ObfNode {
            name: node.name().to_string(),
            kind,
            children: Vec::new(),
            parent,
            origin: Some(id),
            obf_count: 0,
        });
        if self.nodes[oid.index()].is_terminal() {
            self.holders.insert(id, oid);
        }
        for &c in node.children() {
            let child = self.import(plain, c, Some(oid));
            self.nodes[oid.index()].children.push(child);
        }
        oid
    }

    /// The plain specification this graph obfuscates.
    pub fn plain(&self) -> &FormatGraph {
        &self.plain
    }

    /// Root node id.
    pub fn root(&self) -> ObfId {
        self.root
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node(&self, id: ObfId) -> &ObfNode {
        &self.nodes[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: ObfId) -> &mut ObfNode {
        &mut self.nodes[id.index()]
    }

    /// Fallible node lookup.
    pub fn get(&self, id: ObfId) -> Option<&ObfNode> {
        self.nodes.get(id.index())
    }

    /// Number of nodes ever allocated (detached nodes included).
    pub fn allocated(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from the root.
    pub fn len(&self) -> usize {
        self.preorder().len()
    }

    /// True if the graph has no live nodes (never the case in practice).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Pre-order traversal of the live tree (wire order).
    pub fn preorder(&self) -> Vec<ObfId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All node ids in the subtree rooted at `id`, pre-order.
    pub fn subtree(&self, id: ObfId) -> Vec<ObfId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.node(n).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// True if `descendant` is inside the subtree rooted at `ancestor`.
    pub fn is_descendant(&self, descendant: ObfId, ancestor: ObfId) -> bool {
        let mut cur = Some(descendant);
        while let Some(id) = cur {
            if id == ancestor {
                return true;
            }
            cur = self.node(id).parent;
        }
        false
    }

    /// Depth of `id` (root is 0).
    pub fn depth(&self, id: ObfId) -> usize {
        let mut d = 0;
        let mut cur = self.node(id).parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.node(p).parent;
        }
        d
    }

    /// Ancestors of `id`, nearest first (excluding `id`).
    pub fn ancestors(&self, id: ObfId) -> Vec<ObfId> {
        let mut out = Vec::new();
        let mut cur = self.node(id).parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.node(p).parent;
        }
        out
    }

    /// The obf node carrying the value channel of the plain terminal `x`
    /// (a terminal before any `Split*`, the split sequence afterwards).
    pub fn holder_of(&self, x: NodeId) -> Option<ObfId> {
        self.holders.get(&x).copied()
    }

    /// Allocates a new node. The caller is responsible for wiring it into
    /// the tree via [`Self::replace_child`] or by pushing it onto a
    /// parent's child list.
    pub(crate) fn push(&mut self, node: ObfNode) -> ObfId {
        let id = ObfId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Replaces `old` with `new` in `old`'s parent's child list and moves
    /// the parent pointer. `old` becomes detached (its parent is cleared).
    ///
    /// If `old` is the root, `new` becomes the root.
    pub(crate) fn replace_child(&mut self, old: ObfId, new: ObfId) {
        let parent = self.nodes[old.index()].parent;
        self.nodes[new.index()].parent = parent;
        self.nodes[old.index()].parent = None;
        match parent {
            Some(p) => {
                let slot = self.nodes[p.index()]
                    .children
                    .iter()
                    .position(|&c| c == old)
                    .expect("old node must be a child of its parent");
                self.nodes[p.index()].children[slot] = new;
            }
            None => self.root = new,
        }
    }

    /// Re-parents `child` under `parent` at `index` in its child list.
    pub(crate) fn attach(&mut self, parent: ObfId, index: usize, child: ObfId) {
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.insert(index, child);
    }

    /// Moves the `Source` holder index entry when a rewrite relocates the
    /// carrier of a plain terminal.
    pub(crate) fn move_holder(&mut self, x: NodeId, to: ObfId) {
        self.holders.insert(x, to);
    }

    /// All live terminals, in wire order.
    pub fn terminals(&self) -> Vec<ObfId> {
        self.preorder().into_iter().filter(|&id| self.node(id).is_terminal()).collect()
    }

    /// The plain terminals whose values the parser needs *during*
    /// structural parsing: `Length` reference targets, tabular counters,
    /// optional-condition subjects, and the plain-length sources of
    /// `PlainLen` boundaries.
    pub fn structurally_needed(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let push = |x: NodeId, out: &mut Vec<NodeId>| {
            if !out.contains(&x) {
                out.push(x);
            }
        };
        for id in self.preorder() {
            match &self.node(id).kind {
                ObfKind::Terminal { boundary: TermBoundary::PlainLen { source, .. }, .. } => {
                    if let Some(r) = self.plain.node(*source).boundary().reference() {
                        push(r, &mut out);
                    }
                }
                ObfKind::Sequence { boundary: SeqBoundary::PlainLen(p) } => {
                    if let Some(r) = self.plain.node(*p).boundary().reference() {
                        push(r, &mut out);
                    }
                }
                ObfKind::Optional { condition } => push(condition.subject, &mut out),
                ObfKind::Tabular { counter } => push(*counter, &mut out),
                _ => {}
            }
        }
        out
    }

    /// The obf terminals whose wire values are needed to recover the plain
    /// value of `x` (the recovery closure: every terminal inside the
    /// holder's subtree).
    pub fn recovery_deps(&self, x: NodeId) -> Vec<ObfId> {
        match self.holder_of(x) {
            Some(h) => {
                self.subtree(h).into_iter().filter(|&id| self.node(id).is_terminal()).collect()
            }
            None => Vec::new(),
        }
    }

    /// Structural feasibility check run after each transformation: every
    /// value the parser needs eagerly must be fully recoverable before its
    /// first structural use, and every rest-of-window node must sit in
    /// tail position. Violations mean the candidate rewrite must be rolled
    /// back.
    pub fn check_parse_order(&self) -> Result<(), String> {
        let order = self.preorder();
        let pos: HashMap<ObfId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let span_end = |id: ObfId| -> usize {
            self.subtree(id).iter().map(|n| pos[n]).max().unwrap_or(pos[&id]) + 1
        };

        let check_before = |x: NodeId, user: ObfId| -> Result<(), String> {
            let holder =
                self.holder_of(x).ok_or_else(|| format!("no holder for plain source {x}"))?;
            if span_end(holder) > pos[&user] {
                return Err(format!(
                    "plain value of {} (held by {}) is not recovered before {} parses",
                    self.plain.node(x).name(),
                    self.node(holder).name(),
                    self.node(user).name()
                ));
            }
            Ok(())
        };

        for &id in &order {
            match &self.node(id).kind {
                ObfKind::Terminal { boundary: TermBoundary::PlainLen { source, .. }, .. } => {
                    if let Some(r) = self.plain.node(*source).boundary().reference() {
                        check_before(r, id)?;
                    }
                }
                ObfKind::Sequence { boundary: SeqBoundary::PlainLen(p) } => {
                    if let Some(r) = self.plain.node(*p).boundary().reference() {
                        check_before(r, id)?;
                    }
                }
                ObfKind::Optional { condition } => check_before(condition.subject, id)?,
                ObfKind::Tabular { counter } => check_before(*counter, id)?,
                ObfKind::Repetition { stop: RepStop::CountOf(first) } => {
                    if !pos.contains_key(first) {
                        return Err("count-linked repetition lost its first half".into());
                    }
                    if span_end(*first) > pos[&id] {
                        return Err(format!(
                            "count-linked repetition {} parses before its first half",
                            self.node(id).name()
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Predicate};
    use crate::value::Value;

    fn plain() -> FormatGraph {
        let mut b = GraphBuilder::new("p");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        let flag = b.uint_be(root, "flag", 1);
        let opt = b.optional(
            root,
            "extra",
            Condition { subject: flag, predicate: Predicate::Equals(Value::from_bytes(vec![1])) },
        );
        b.uint_be(opt, "extra_val", 2);
        b.build().unwrap()
    }

    #[test]
    fn from_plain_is_one_to_one() {
        let p = plain();
        let g = ObfGraph::from_plain(&p);
        assert_eq!(g.len(), p.len());
        // Every live node has an origin.
        for id in g.preorder() {
            assert!(g.node(id).origin().is_some());
            assert_eq!(g.node(id).obf_count(), 0);
        }
    }

    #[test]
    fn auto_fields_get_auto_bases() {
        let p = plain();
        let g = ObfGraph::from_plain(&p);
        let len_obf = g.preorder().into_iter().find(|&id| g.node(id).name() == "len").unwrap();
        match &g.node(len_obf).kind {
            ObfKind::Terminal { base: Base::AutoLen(t), .. } => {
                assert_eq!(p.node(*t).name(), "data");
            }
            other => panic!("expected AutoLen base, got {other:?}"),
        }
        // Auto fields are holders too: the parser recovers the raw
        // length/count value from their wire bytes.
        let len_plain = p.resolve_names(&["len"]).unwrap();
        assert_eq!(g.holder_of(len_plain), Some(len_obf));
    }

    #[test]
    fn holders_registered_for_user_fields() {
        let p = plain();
        let g = ObfGraph::from_plain(&p);
        let data = p.resolve_names(&["data"]).unwrap();
        let holder = g.holder_of(data).unwrap();
        assert_eq!(g.node(holder).name(), "data");
    }

    #[test]
    fn length_boundary_maps_to_plainlen() {
        let p = plain();
        let g = ObfGraph::from_plain(&p);
        let data_obf = g.preorder().into_iter().find(|&id| g.node(id).name() == "data").unwrap();
        match &g.node(data_obf).kind {
            ObfKind::Terminal { boundary: TermBoundary::PlainLen { source, steps }, .. } => {
                assert_eq!(p.node(*source).name(), "data");
                assert!(steps.is_empty());
            }
            other => panic!("expected PlainLen boundary, got {other:?}"),
        }
    }

    #[test]
    fn structurally_needed_lists_refs_and_subjects() {
        let p = plain();
        let g = ObfGraph::from_plain(&p);
        let needed = g.structurally_needed();
        let len = p.resolve_names(&["len"]).unwrap();
        let flag = p.resolve_names(&["flag"]).unwrap();
        assert!(needed.contains(&len));
        assert!(needed.contains(&flag));
    }

    #[test]
    fn check_parse_order_accepts_identity() {
        let g = ObfGraph::from_plain(&plain());
        assert!(g.check_parse_order().is_ok());
    }

    #[test]
    fn replace_child_rewires_tree() {
        let p = plain();
        let mut g = ObfGraph::from_plain(&p);
        let flag = g.preorder().into_iter().find(|&id| g.node(id).name() == "flag").unwrap();
        let wrapper = g.push(ObfNode {
            name: "flag_mirror".into(),
            kind: ObfKind::Mirror,
            children: vec![flag],
            parent: None,
            origin: None,
            obf_count: 1,
        });
        g.replace_child(flag, wrapper);
        g.node_mut(flag).parent = Some(wrapper);
        let order = g.preorder();
        assert!(order.contains(&wrapper));
        assert!(order.contains(&flag));
        let wrapper_pos = order.iter().position(|&i| i == wrapper).unwrap();
        assert_eq!(order[wrapper_pos + 1], flag);
        // flag's old parent now lists wrapper.
        let root = g.root();
        assert!(g.node(root).children().contains(&wrapper));
        assert!(!g.node(root).children().contains(&flag));
    }

    #[test]
    fn recovery_deps_cover_holder_subtree() {
        let p = plain();
        let g = ObfGraph::from_plain(&p);
        let data = p.resolve_names(&["data"]).unwrap();
        let deps = g.recovery_deps(data);
        assert_eq!(deps.len(), 1); // un-transformed: just the carrier itself
    }

    #[test]
    fn len_step_arithmetic() {
        assert_eq!(LenStep::HalfLo.apply(9), 4);
        assert_eq!(LenStep::HalfHi.apply(9), 5);
        assert_eq!(LenStep::HalfLo.apply(0), 0);
        assert_eq!(LenStep::HalfHi.apply(0), 0);
    }

    #[test]
    fn kind_tags_are_stable() {
        let p = plain();
        let g = ObfGraph::from_plain(&p);
        assert_eq!(g.node(g.root()).kind().tag(), "seq");
    }
}
