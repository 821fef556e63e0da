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
use std::sync::{Arc, OnceLock};

use crate::extent::Layout;
use crate::graph::{AutoValue, Boundary, Condition, FormatGraph, NodeId, NodeType, StopRule};
use crate::transform::Reason;
use crate::value::{ByteOp, Endian, SplitAt, TerminalKind};

/// Identifier of a node inside an [`ObfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObfId(pub(crate) u32);

impl ObfId {
    /// Raw index value (stable within one graph; committed nodes are never
    /// removed, only detached).
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
    /// Number of transformations behind this node: one more than its
    /// target's for a node a rewrite created, plus one per rewrite that
    /// targeted it in place. Recorded for provenance; the engine does not
    /// read it (see [`crate::engine`]).
    pub(crate) obf_count: u32,
}

impl ObfNode {
    /// A detached node: no children and no parent until a rewrite wires it
    /// into the tree.
    pub(crate) fn new(name: String, kind: ObfKind, origin: Option<NodeId>, obf_count: u32) -> Self {
        ObfNode { name, kind, children: Vec::new(), parent: None, origin, obf_count }
    }

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
    /// The plain specification, shared with the other codecs derived from
    /// it (an endpoint's clear codec shares its obfuscated codec's).
    plain: Arc<FormatGraph>,
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
    /// reuse. [`ObfGraph::rollback`] restores it: the graph is then
    /// structurally identical to the one the uid was issued for.
    uid: u64,
    /// Undo journal of the open rewrite ([`ObfGraph::begin`]); its buffers
    /// are kept from one rewrite to the next.
    journal: Journal,
    /// Lazily compiled execution plan (see [`crate::plan::CodecPlan`]),
    /// shared by the codec, the sessions and the transcode copy programs.
    /// Invalidated by [`ObfGraph::touch`] on every rewrite, so a cached
    /// plan always describes the current graph. Cloning clones the cached
    /// plan (a clone is structurally identical until its next mutation).
    plan: OnceLock<crate::plan::CodecPlan>,
}

/// What [`ObfGraph::rollback`] needs to undo one rewrite: the shape of
/// the graph at [`ObfGraph::begin`] plus one undo step per write since to
/// a node that existed then.
#[derive(Debug, Clone)]
struct Journal {
    /// True between `begin` and `commit`/`rollback`.
    open: bool,
    /// `nodes.len()` at `begin`: nodes pushed since are truncated away.
    len: usize,
    root: ObfId,
    uid: u64,
    /// The undo steps, oldest first; rollback replays them newest first.
    undo: Vec<Undo>,
}

/// One undo step. Pointer writes (`attach`, `replace_child`, holder
/// moves) and counts record the one field they overwrite; a node handed
/// out by `node_mut` is saved whole on its first such write, and later
/// writes to it record nothing: restoring the copy undoes them, and the
/// steps recorded before it are replayed after it.
#[derive(Debug, Clone)]
enum Undo {
    /// The node's prior contents but its name: rewrites never rename a
    /// node, so rollback keeps the current one.
    Node(ObfId, ObfNode),
    /// The node's prior parent.
    Parent(ObfId, Option<ObfId>),
    /// `children[slot]` of the node held this child.
    Child(ObfId, usize, ObfId),
    /// A child was inserted at this index of the node's children.
    Inserted(ObfId, usize),
    /// The node's prior transformation count.
    Count(ObfId, u32),
    /// The plain terminal's prior holder.
    Holder(NodeId, Option<ObfId>),
}

/// Source of [`ObfGraph::uid`] values; starts at 1 so 0 can mean "none".
static NEXT_GRAPH_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl ObfGraph {
    /// Builds `G_1`: the identity image of a validated plain graph.
    pub fn from_plain(plain: &FormatGraph) -> ObfGraph {
        ObfGraph::from_shared(Arc::new(plain.clone()))
    }

    /// [`ObfGraph::from_plain`] of a plain graph this one shares.
    pub(crate) fn from_shared(plain: Arc<FormatGraph>) -> ObfGraph {
        let mut g = ObfGraph {
            plain: Arc::clone(&plain),
            nodes: Vec::with_capacity(plain.len()),
            root: ObfId(0),
            holders: HashMap::with_capacity(plain.len()),
            uid: NEXT_GRAPH_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            journal: Journal { open: false, len: 0, root: ObfId(0), uid: 0, undo: Vec::new() },
            plan: OnceLock::new(),
        };
        let root = g.import(&plain, plain.root(), None);
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

    /// Opens a rewrite: from here on the graph's mutators journal what
    /// they overwrite, until [`Self::commit`] keeps the rewrite or
    /// [`Self::rollback`] undoes it.
    pub(crate) fn begin(&mut self) {
        debug_assert!(!self.journal.open, "a rewrite is already open");
        let journal = &mut self.journal;
        (journal.open, journal.len, journal.root, journal.uid) =
            (true, self.nodes.len(), self.root, self.uid);
    }

    /// Keeps the open rewrite and empties its journal.
    pub(crate) fn commit(&mut self) {
        debug_assert!(self.journal.open, "commit without begin");
        self.journal.open = false;
        self.journal.undo.clear();
    }

    /// Undoes the open rewrite: nodes, root, holders, [`Self::allocated`]
    /// and the uid are as they were at [`Self::begin`]. The cached plan is
    /// not restored; it is compiled again on next use.
    pub(crate) fn rollback(&mut self) {
        let journal = &mut self.journal;
        assert!(journal.open, "rollback without begin");
        journal.open = false;
        self.nodes.truncate(journal.len);
        for step in journal.undo.drain(..).rev() {
            match step {
                Undo::Node(id, saved) => {
                    let node = &mut self.nodes[id.index()];
                    *node = ObfNode { name: std::mem::take(&mut node.name), ..saved };
                }
                Undo::Parent(id, parent) => self.nodes[id.index()].parent = parent,
                Undo::Child(id, slot, child) => self.nodes[id.index()].children[slot] = child,
                Undo::Inserted(id, index) => {
                    self.nodes[id.index()].children.remove(index);
                }
                Undo::Count(id, count) => self.nodes[id.index()].obf_count = count,
                Undo::Holder(x, Some(h)) => {
                    self.holders.insert(x, h);
                }
                Undo::Holder(x, None) => {
                    self.holders.remove(&x);
                }
            }
        }
        self.root = journal.root;
        self.uid = journal.uid;
    }

    /// True if a write to node `id` needs an undo step: a rewrite is open,
    /// `id` existed at its `begin`, and `id` is not saved whole yet.
    fn journals(&self, id: ObfId) -> bool {
        let journal = &self.journal;
        journal.open
            && id.index() < journal.len
            && !journal.undo.iter().any(|u| matches!(u, Undo::Node(n, _) if *n == id))
    }

    /// Records `step`, an undo of a write to node `id`, if it needs one.
    fn record(&mut self, id: ObfId, step: impl FnOnce(&ObfNode) -> Undo) {
        if self.journals(id) {
            let step = step(&self.nodes[id.index()]);
            self.journal.undo.push(step);
        }
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
        let oid = self
            .push(ObfNode { parent, ..ObfNode::new(node.name().to_string(), kind, Some(id), 0) });
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

    /// The plain specification, to share with another graph of it.
    pub(crate) fn shared_plain(&self) -> &Arc<FormatGraph> {
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
        self.record(id, |node| {
            let saved = ObfNode {
                name: String::new(),
                kind: node.kind.clone(),
                children: node.children.clone(),
                ..*node
            };
            Undo::Node(id, saved)
        });
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

    /// The first terminal of the subtree rooted at `id`, in wire order.
    pub(crate) fn first_terminal(&self, id: ObfId) -> Option<ObfId> {
        let node = self.node(id);
        if node.is_terminal() {
            return Some(id);
        }
        node.children.iter().find_map(|&c| self.first_terminal(c))
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
        self.record(old, |node| Undo::Parent(old, node.parent));
        self.record(new, |node| Undo::Parent(new, node.parent));
        self.nodes[new.index()].parent = parent;
        self.nodes[old.index()].parent = None;
        match parent {
            Some(p) => {
                let slot = self.nodes[p.index()]
                    .children
                    .iter()
                    .position(|&c| c == old)
                    .expect("old node must be a child of its parent");
                self.record(p, |_| Undo::Child(p, slot, old));
                self.nodes[p.index()].children[slot] = new;
            }
            None => self.root = new,
        }
    }

    /// Counts one more rewrite targeting `id` and returns its new count.
    pub(crate) fn count_rewrite(&mut self, id: ObfId) -> u32 {
        self.record(id, |node| Undo::Count(id, node.obf_count));
        let node = &mut self.nodes[id.index()];
        node.obf_count += 1;
        node.obf_count
    }

    /// Re-parents `child` under `parent` at `index` in its child list.
    pub(crate) fn attach(&mut self, parent: ObfId, index: usize, child: ObfId) {
        self.record(parent, |_| Undo::Inserted(parent, index));
        self.record(child, |node| Undo::Parent(child, node.parent));
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.insert(index, child);
    }

    /// Moves the `Source` holder index entry when a rewrite relocates the
    /// carrier of a plain terminal.
    pub(crate) fn move_holder(&mut self, x: NodeId, to: ObfId) {
        let prior = self.holders.insert(x, to);
        if self.journal.open {
            self.journal.undo.push(Undo::Holder(x, prior));
        }
    }

    /// All live terminals, in wire order.
    pub fn terminals(&self) -> Vec<ObfId> {
        self.preorder().into_iter().filter(|&id| self.node(id).is_terminal()).collect()
    }

    /// Structural feasibility check run after each transformation: every
    /// value the parser needs eagerly must be fully recoverable before its
    /// first structural use. Violations mean the candidate rewrite must be
    /// rolled back. `layout` covers the whole graph.
    pub(crate) fn check_parse_order(&self, layout: &Layout) -> Result<(), Reason> {
        for (at, &id) in layout.order().iter().enumerate() {
            self.check_reads(layout, at, id)?;
        }
        Ok(())
    }

    /// [`Self::check_parse_order`] for the node `id` at position `at`:
    /// the plain value it reads to bound or count itself, or the
    /// repetition whose count it repeats, is recovered before it parses.
    pub(crate) fn check_reads(&self, layout: &Layout, at: usize, id: ObfId) -> Result<(), Reason> {
        let check_before = |source: NodeId| -> Result<(), Reason> {
            let holder = self.holder_of(source).ok_or(Reason::NoHolder(source))?;
            if layout.position(holder).is_none() || layout.span_end(holder) > at {
                return Err(Reason::NotRecovered { source, holder, user: id });
            }
            Ok(())
        };
        match &self.node(id).kind {
            ObfKind::Terminal { boundary: TermBoundary::PlainLen { source, .. }, .. } => {
                self.plain.node(*source).boundary().reference().map_or(Ok(()), check_before)
            }
            ObfKind::Sequence { boundary: SeqBoundary::PlainLen(p) } => {
                self.plain.node(*p).boundary().reference().map_or(Ok(()), check_before)
            }
            ObfKind::Optional { condition } => check_before(condition.subject),
            ObfKind::Tabular { counter } => check_before(*counter),
            ObfKind::Repetition { stop: RepStop::CountOf(first) } => {
                if layout.position(*first).is_none() {
                    return Err(Reason::LostFirstHalf);
                }
                if layout.span_end(*first) > at {
                    return Err(Reason::BeforeFirstHalf(id));
                }
                Ok(())
            }
            _ => Ok(()),
        }
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
    fn check_parse_order_accepts_identity() {
        let g = ObfGraph::from_plain(&plain());
        assert!(g.check_parse_order(&Layout::of(&g, g.root())).is_ok());
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

    /// Field-by-field equality of two graphs' shapes and versions.
    fn assert_same(got: &ObfGraph, want: &ObfGraph, what: &str) {
        assert_eq!(got.nodes, want.nodes, "{what}: nodes");
        assert_eq!(got.root, want.root, "{what}: root");
        assert_eq!(got.holders, want.holders, "{what}: holders");
        assert_eq!(got.allocated(), want.allocated(), "{what}: allocated");
        assert_eq!(got.uid, want.uid, "{what}: uid");
    }

    /// Plain images of the engine's and the transformations' test grammars,
    /// plus an obfuscated graph (moved holders, splits, wrappers).
    fn rollback_graphs() -> Vec<ObfGraph> {
        let rich = crate::engine::tests::rich_graph();
        let obfuscated = crate::Obfuscator::new(&rich).seed(3).max_per_node(2).obfuscate().unwrap();
        vec![
            ObfGraph::from_plain(&rich),
            crate::transform::tests::sample(),
            obfuscated.obf_graph().clone(),
        ]
    }

    #[test]
    fn rollback_restores_every_rewrite_exactly() {
        use crate::transform::{apply, TransformKind};
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let mut applied = 0;
        for before in rollback_graphs() {
            for id in before.preorder() {
                for kind in TransformKind::ALL {
                    let mut g = before.clone();
                    g.begin();
                    if apply(&mut g, id, kind, &mut rng).is_ok() {
                        applied += 1;
                        assert_ne!(g.uid, before.uid, "{kind} on {id} must touch the graph");
                    }
                    g.rollback();
                    assert_same(&g, &before, &format!("{kind} on {}", before.node(id).name()));
                }
            }
        }
        assert!(applied > 100, "only {applied} rewrites applied");
    }

    #[test]
    fn commit_keeps_the_rewrite() {
        use crate::transform::{apply, TransformKind};
        let seeded = || <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        for before in rollback_graphs() {
            for id in before.preorder() {
                for kind in TransformKind::ALL {
                    let mut plain = before.clone();
                    let Ok(want) = apply(&mut plain, id, kind, &mut seeded()) else { continue };
                    let mut g = before.clone();
                    g.begin();
                    assert_eq!(apply(&mut g, id, kind, &mut seeded()).unwrap(), want);
                    g.commit();
                    let what = format!("{kind} on {}", before.node(id).name());
                    assert!(!g.journal.open, "{what}: journal left open");
                    plain.uid = g.uid;
                    assert_same(&g, &plain, &what);
                    // A later rewrite rolls back to the committed graph.
                    let committed = g.clone();
                    let root = g.root();
                    g.begin();
                    let _ = apply(&mut g, root, TransformKind::PadInsert, &mut seeded());
                    g.rollback();
                    assert_same(&g, &committed, &format!("{what}, then PadInsert"));
                }
            }
        }
    }

    /// Each mutator journals every pre-existing node it writes, and
    /// rollback replays the steps newest first.
    #[test]
    fn rollback_undoes_each_mutator() {
        let before = ObfGraph::from_plain(&plain());
        let mut g = before.clone();
        let [root, len, flag, extra_val] =
            ["m", "len", "flag", "extra_val"].map(|name| find_named(&g, name));
        let data = g.plain().resolve_names(&["data"]).unwrap();
        g.begin();
        g.touch();
        let pad = g.push(ObfNode {
            name: "pad".into(),
            kind: ObfKind::Mirror,
            children: Vec::new(),
            parent: None,
            origin: None,
            obf_count: 1,
        });
        g.attach(root, 0, pad); // parent first
        g.attach(pad, 0, flag); // child first
        g.replace_child(extra_val, len); // old, new and parent first
        g.move_holder(data, pad);
        g.count_rewrite(flag); // a count after a parent write
        g.node_mut(pad).obf_count = 7;
        g.rollback();
        assert_same(&g, &before, "hand-made rewrite");
    }

    fn find_named(g: &ObfGraph, name: &str) -> ObfId {
        g.preorder().into_iter().find(|&id| g.node(id).name() == name).unwrap()
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
