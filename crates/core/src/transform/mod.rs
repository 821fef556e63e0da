//! The generic transformations of the paper's Table I.
//!
//! Each transformation is a graph rewrite with applicability constraints
//! (Table II). All of them are invertible by construction: the rewrite
//! installs forward semantics for the serializer and backward semantics for
//! the parser in the same [`crate::obf::ObfGraph`] nodes.
//!
//! | Transformation | Category | Effect |
//! |---|---|---|
//! | `SplitAdd`/`SplitSub`/`SplitXor` | aggregation | terminal → random share + combined share |
//! | `SplitCat` | aggregation | terminal → two concatenated pieces |
//! | `ConstAdd`/`ConstSub`/`ConstXor` | aggregation | byte-wise constant applied to the value |
//! | `BoundaryChange` | ordering | delimiter → length prefix |
//! | `PadInsert` | ordering | random bytes inserted into a sequence |
//! | `ReadFromEnd` | ordering | subtree serialized right-to-left |
//! | `TabSplit` | ordering | `(AB)^m` → `A^m B^m` (context-free shape) |
//! | `RepSplit` | ordering | `(AB)*` → `A^m B^m` with the count checked at parse (copy language) |
//! | `ChildMove` | ordering | permutation of two sequence children |
//!
//! The constraints read one walk over the target's ancestors: the nearest
//! size-pinning sequence and the terminated repetition whose element the
//! target leads, if any (`Context`). [`applicable`] and [`apply`] compute
//! it per call; the engine computes it once per node, filters the allowed
//! kinds with it, and then rewrites each kind it tries without checking
//! again.
//!
//! [`post_check`] lays out and checks the whole graph. The engine instead
//! keeps a layout of the graph across its rewrites and checks only the
//! rewritten slot and its ancestors (`check_slot`); the public
//! [`post_check`], [`applicable`] and [`apply`] stay whole-graph and are
//! the oracle for that scoped path.

mod rewrites;

use std::fmt;

use rand::Rng;

use crate::error::TransformError;
use crate::extent::{self, ExtentClass, Layout, MirrorFault};
use crate::graph::NodeId;
use crate::obf::{ObfGraph, ObfId, ObfKind, ObfNode, RepStop, SeqBoundary, TermBoundary};
use crate::value::ByteOp;

/// The thirteen generic transformations of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// Split a terminal into a random share and `value + share`.
    SplitAdd,
    /// Split with byte-wise subtraction.
    SplitSub,
    /// Split with byte-wise exclusive-or.
    SplitXor,
    /// Split a terminal into two concatenated pieces.
    SplitCat,
    /// Add a constant to the value, byte-wise.
    ConstAdd,
    /// Subtract a constant from the value, byte-wise.
    ConstSub,
    /// Xor the value with a constant, byte-wise.
    ConstXor,
    /// Replace a delimited boundary with a length prefix.
    BoundaryChange,
    /// Insert a random pad field into a sequence.
    PadInsert,
    /// Serialize a subtree from right to left.
    ReadFromEnd,
    /// Split a tabular of composite elements into a sequence of tabulars.
    TabSplit,
    /// Split a repetition of composite elements into two count-linked
    /// repetitions.
    RepSplit,
    /// Swap two children of a sequence.
    ChildMove,
}

/// Collberg-taxonomy category of a transformation (the paper applies
/// aggregation transformations in the accessors and ordering
/// transformations in the serializer, §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Value-level: applied on the fly by setters/getters.
    Aggregation,
    /// Structure-level: applied while serializing/parsing.
    Ordering,
}

impl TransformKind {
    /// All transformations, in Table I order.
    pub const ALL: [TransformKind; 13] = [
        TransformKind::SplitAdd,
        TransformKind::SplitSub,
        TransformKind::SplitXor,
        TransformKind::SplitCat,
        TransformKind::ConstAdd,
        TransformKind::ConstSub,
        TransformKind::ConstXor,
        TransformKind::BoundaryChange,
        TransformKind::PadInsert,
        TransformKind::ReadFromEnd,
        TransformKind::TabSplit,
        TransformKind::RepSplit,
        TransformKind::ChildMove,
    ];

    /// The paper's name for the transformation.
    pub fn name(self) -> &'static str {
        match self {
            TransformKind::SplitAdd => "SplitAdd",
            TransformKind::SplitSub => "SplitSub",
            TransformKind::SplitXor => "SplitXor",
            TransformKind::SplitCat => "SplitCat",
            TransformKind::ConstAdd => "ConstAdd",
            TransformKind::ConstSub => "ConstSub",
            TransformKind::ConstXor => "ConstXor",
            TransformKind::BoundaryChange => "BoundaryChange",
            TransformKind::PadInsert => "PadInsert",
            TransformKind::ReadFromEnd => "ReadFromEnd",
            TransformKind::TabSplit => "TabSplit",
            TransformKind::RepSplit => "RepSplit",
            TransformKind::ChildMove => "ChildMove",
        }
    }

    /// Inverse of [`TransformKind::name`]: resolves the paper's name back
    /// to the kind (used by the [`crate::profile`] text format).
    pub fn from_name(name: &str) -> Option<TransformKind> {
        TransformKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Collberg-taxonomy category.
    pub fn category(self) -> Category {
        match self {
            TransformKind::SplitAdd
            | TransformKind::SplitSub
            | TransformKind::SplitXor
            | TransformKind::SplitCat
            | TransformKind::ConstAdd
            | TransformKind::ConstSub
            | TransformKind::ConstXor => Category::Aggregation,
            _ => Category::Ordering,
        }
    }

    /// Default selection weight used by the engine's random choice. Value
    /// transformations (cheap, no new nodes) are favoured over structural
    /// ones, which keeps the growth of the graph across passes in the
    /// regime the paper reports (applied count roughly ×1.3 per extra
    /// level rather than doubling).
    pub fn weight(self) -> u32 {
        match self {
            TransformKind::ConstAdd
            | TransformKind::ConstSub
            | TransformKind::ConstXor
            | TransformKind::ChildMove => 6,
            TransformKind::BoundaryChange
            | TransformKind::PadInsert
            | TransformKind::TabSplit
            | TransformKind::RepSplit => 2,
            TransformKind::ReadFromEnd
            | TransformKind::SplitAdd
            | TransformKind::SplitSub
            | TransformKind::SplitXor
            | TransformKind::SplitCat => 1,
        }
    }

    /// True for the rewrites that only push a constant op onto a terminal
    /// (`ConstAdd`/`ConstSub`/`ConstXor`). They write a terminal's ops and
    /// transformation count and nothing [`post_check`] reads, so a graph
    /// that passed it still does.
    pub(crate) fn op_only(self) -> bool {
        matches!(self, TransformKind::ConstAdd | TransformKind::ConstSub | TransformKind::ConstXor)
    }

    /// True if the rewrite changes the serialized byte count of the
    /// subtree, which is forbidden under exactly-windowed ancestors.
    pub fn size_changing(self) -> bool {
        matches!(
            self,
            TransformKind::SplitAdd
                | TransformKind::SplitSub
                | TransformKind::SplitXor
                | TransformKind::BoundaryChange
                | TransformKind::PadInsert
        )
    }
}

impl fmt::Display for TransformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Record of one applied transformation: the paper's framework memorizes
/// these to derive the serializer and parser (§V-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformRecord {
    /// Which transformation fired.
    pub kind: TransformKind,
    /// The targeted node (as it was before the rewrite).
    pub target: ObfId,
    /// Name of the targeted node.
    pub target_name: String,
    /// Nodes created by the rewrite.
    pub created: Vec<ObfId>,
    /// Human-readable parameters (constant, split position, prefix width…).
    pub detail: String,
}

impl fmt::Display for TransformRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {:?}", self.kind, self.target_name)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// What the constraints of Table II read off a node's ancestors, gathered
/// in one walk up its parent chain. The engine computes it once per
/// candidate node and reuses it for every kind it filters and tries: a
/// rejected rewrite rolls the graph back exactly, so the context stays
/// true.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Context {
    id: ObfId,
    /// The nearest `Fixed`/`PlainLen` sequence ancestor. It pins the byte
    /// count, so size-changing rewrites are forbidden below it (the
    /// paper's "Boundary of parent nodes must be either Delegated or End").
    pinned_by: Option<ObfId>,
    /// The nearest terminator-delimited repetition whose element starts
    /// with this node's first terminal. The parser tells "one more
    /// element" from "terminator" by those bytes, so they must keep their
    /// plain-protocol determinism and position (the paper's "Boundary of
    /// parent nodes can be anything but Delimited").
    leads: Option<ObfId>,
    /// True when the walk ends at the root: the node is in the live tree.
    pub(crate) live: bool,
}

impl Context {
    /// Walks `id`'s ancestors once.
    pub(crate) fn of(g: &ObfGraph, id: ObfId) -> Context {
        let first = g.first_terminal(id);
        let mut ctx = Context { id, pinned_by: None, leads: None, live: false };
        let (mut top, mut cur) = (id, g.node(id).parent());
        while let Some(a) = cur {
            match g.node(a).kind() {
                ObfKind::Sequence {
                    boundary: SeqBoundary::Fixed(_) | SeqBoundary::PlainLen(_),
                } => {
                    ctx.pinned_by = ctx.pinned_by.or(Some(a));
                }
                // A repetition has one child, its element, and `id` lies
                // inside it: the element starts with `first` exactly when
                // `id`'s subtree holds the element's first terminal.
                ObfKind::Repetition { stop: RepStop::Terminator(_) }
                    if ctx.leads.is_none()
                        && first.is_some()
                        && g.first_terminal(g.node(a).children()[0]) == first =>
                {
                    ctx.leads = Some(a);
                }
                _ => {}
            }
            (top, cur) = (a, g.node(a).parent());
        }
        ctx.live = top == g.root();
        ctx
    }

    /// Checks the applicability constraints of `kind` on the context's
    /// node (see [`applicable`]). `ReadFromEnd` reads the extent classes
    /// of `layout`, a layout of the whole graph, or lays out the node's
    /// subtree when there is none.
    pub(crate) fn admits(
        &self,
        g: &ObfGraph,
        layout: Option<&Layout>,
        kind: TransformKind,
    ) -> Result<(), Reason> {
        if let Some(a) = self.pinned_by.filter(|_| kind.size_changing()) {
            return Err(match g.node(a).kind() {
                ObfKind::Sequence { boundary: SeqBoundary::Fixed(_) } => Reason::FixedAncestor(a),
                _ => Reason::LengthAncestor(a),
            });
        }
        let node = g.node(self.id);
        let boundary = || match node.kind() {
            ObfKind::Terminal { boundary, .. } => Ok(boundary),
            _ => Err(Reason::NotTerminal),
        };
        let not_leading = || self.leads.map_or(Ok(()), |r| Err(Reason::Leading(r)));
        match kind {
            TransformKind::SplitAdd | TransformKind::SplitSub | TransformKind::SplitXor => {
                match boundary()? {
                    TermBoundary::Fixed(_) | TermBoundary::PlainLen { .. } => not_leading(),
                    TermBoundary::Delimited(_) => Err(Reason::SplitDelimited),
                    TermBoundary::End => Err(Reason::SplitEnd),
                }
            }
            TransformKind::SplitCat => match boundary()? {
                TermBoundary::Fixed(n) if *n < 2 => Err(Reason::CutShort),
                // A plain-length field is cut at half its recoverable length.
                TermBoundary::Fixed(_) | TermBoundary::PlainLen { .. } => Ok(()),
                TermBoundary::Delimited(_) => Err(Reason::CutDelimited),
                TermBoundary::End => Err(Reason::CutEnd),
            },
            TransformKind::ConstAdd | TransformKind::ConstSub | TransformKind::ConstXor => {
                match boundary()? {
                    TermBoundary::Delimited(_) => Err(Reason::ConstDelimited),
                    _ => not_leading(),
                }
            }
            TransformKind::BoundaryChange => match node.kind() {
                ObfKind::Terminal {
                    boundary: TermBoundary::Delimited(_) | TermBoundary::End,
                    ..
                }
                | ObfKind::Repetition { stop: RepStop::Terminator(_) } => not_leading(),
                ObfKind::Terminal { .. } => Err(Reason::LengthDetermined),
                _ => Err(Reason::NotDelimited),
            },
            TransformKind::PadInsert => match node.kind() {
                // The pad grows the target sequence itself, so an exactly
                // windowed target is as forbidden as an exactly windowed
                // ancestor.
                ObfKind::Sequence {
                    boundary: SeqBoundary::Fixed(_) | SeqBoundary::PlainLen(_),
                } => Err(Reason::PinnedTarget),
                ObfKind::Sequence { .. } => Ok(()),
                _ => Err(Reason::PadOutsideSequence),
            },
            TransformKind::ReadFromEnd => {
                match layout {
                    Some(layout) => extent::mirror_check(g, layout, self.id),
                    None => extent::mirror_check(g, &Layout::of(g, self.id), self.id),
                }
                .map_err(Reason::Mirror)?;
                not_leading()
            }
            TransformKind::TabSplit => match node.kind() {
                ObfKind::Tabular { .. } => composite_element(g, node),
                _ => Err(Reason::NotTabular),
            },
            TransformKind::RepSplit => match node.kind() {
                ObfKind::Repetition { stop: RepStop::Terminator(_) | RepStop::CountOf(_) } => {
                    composite_element(g, node)
                }
                ObfKind::Repetition { stop: RepStop::Exhausted } => Err(Reason::ExhaustedSplit),
                _ => Err(Reason::NotRepetition),
            },
            TransformKind::ChildMove => match node.kind() {
                // A leading child of a terminated repetition's element
                // cannot move, so one more child is needed in that case.
                ObfKind::Sequence { .. }
                    if node.children().len() - usize::from(self.leads.is_some()) < 2 =>
                {
                    Err(Reason::TooFewChildren)
                }
                ObfKind::Sequence { .. } => Ok(()),
                _ => Err(Reason::NotSequence),
            },
        }
    }
}

/// Why a rewrite is refused (Table II's constraints) or a graph fails the
/// soundness checks: a verdict the engine reads without text. It holds
/// node ids, not names; [`Reason::render`] spells it out against the graph,
/// only at the public calls that return text ([`applicable`], [`apply`],
/// [`post_check`] and [`extent::mirror_applicable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// No such node.
    UnknownNode,
    /// A size-changing rewrite below this fixed-size sequence.
    FixedAncestor(ObfId),
    /// A size-changing rewrite below this length-bounded sequence.
    LengthAncestor(ObfId),
    /// A terminal rewrite on another kind of node.
    NotTerminal,
    /// A value-randomizing rewrite of the leading bytes of this terminated
    /// repetition's element.
    Leading(ObfId),
    /// `Split{Add,Sub,Xor}` of a delimited terminal.
    SplitDelimited,
    /// `Split{Add,Sub,Xor}` of an `End`-bounded terminal.
    SplitEnd,
    /// `SplitCat` of a terminal shorter than 2 bytes.
    CutShort,
    /// `SplitCat` of a delimited terminal.
    CutDelimited,
    /// `SplitCat` of an `End`-bounded terminal.
    CutEnd,
    /// `Const{Add,Sub,Xor}` of a delimited terminal.
    ConstDelimited,
    /// `BoundaryChange` of a terminal whose length is already known.
    LengthDetermined,
    /// `BoundaryChange` of something else than a delimited or `End`
    /// terminal or a terminated repetition.
    NotDelimited,
    /// `PadInsert` into a fixed-size or length-bounded sequence.
    PinnedTarget,
    /// `PadInsert` into something else than a sequence.
    PadOutsideSequence,
    /// `ReadFromEnd` of a subtree the mirror check refuses.
    Mirror(MirrorFault),
    /// `TabSplit` of something else than a tabular.
    NotTabular,
    /// `RepSplit` of something else than a repetition.
    NotRepetition,
    /// `RepSplit` of an exhausted repetition.
    ExhaustedSplit,
    /// An element split of a delegated element with fewer than two fields.
    ElementTooSmall,
    /// An element split of a sequence element that is not delegated.
    ElementNotDelegated,
    /// An element split of an element that is not a sequence.
    ElementNotSequence,
    /// `ChildMove` of a sequence with fewer than two movable children.
    TooFewChildren,
    /// `ChildMove` of something else than a sequence.
    NotSequence,
    /// Parse order: the plain terminal has no holder.
    NoHolder(NodeId),
    /// Parse order: `user` reads the plain value of `source`, which its
    /// `holder` has not recovered yet.
    NotRecovered {
        /// The plain terminal read.
        source: NodeId,
        /// The node holding its value channel.
        holder: ObfId,
        /// The node that reads it.
        user: ObfId,
    },
    /// Parse order: a count-linked repetition's first half left the tree.
    LostFirstHalf,
    /// Parse order: this count-linked repetition parses before its first
    /// half.
    BeforeFirstHalf(ObfId),
    /// Windows: the rest-of-window `node` is not the last child of `under`.
    NotTail {
        /// The rest-of-window node.
        node: ObfId,
        /// The parent it is not last under.
        under: ObfId,
    },
    /// Windows: the rest-of-window `node` is inside the repeated
    /// `element`.
    InRepeated {
        /// The rest-of-window node.
        node: ObfId,
        /// The repetition or tabular around it.
        element: ObfId,
    },
    /// Mirrors: this mirror's child fails the mirror check.
    MirrorInvalidated(ObfId, MirrorFault),
}

impl Reason {
    /// The reason's text, naming the nodes of `g` it holds.
    pub(crate) fn render(self, g: &ObfGraph) -> String {
        let name = |id: ObfId| g.node(id).name();
        let plain = |x: NodeId| g.plain().node(x).name();
        match self {
            Reason::UnknownNode => "unknown node".into(),
            Reason::FixedAncestor(a) => {
                format!("ancestor {} has a fixed boundary; sizes are pinned", name(a))
            }
            Reason::LengthAncestor(a) => {
                format!("ancestor {} is length-bounded; sizes are pinned", name(a))
            }
            Reason::NotTerminal => "target must be a terminal".into(),
            Reason::Leading(r) => {
                format!("would randomize the leading byte of terminated repetition {}", name(r))
            }
            Reason::SplitDelimited => {
                "splitting a delimited value breaks delimiter scanning".into()
            }
            Reason::SplitEnd => {
                "the first share of an End-bounded field cannot be delimited".into()
            }
            Reason::CutShort => "cannot cut a field shorter than 2 bytes".into(),
            Reason::CutDelimited => "cutting a delimited value breaks delimiter scanning".into(),
            Reason::CutEnd => "the first piece of an End-bounded field cannot be delimited".into(),
            Reason::ConstDelimited => {
                "transforming a delimited value breaks delimiter scanning".into()
            }
            Reason::LengthDetermined => "boundary is already length-determined".into(),
            Reason::NotDelimited => {
                "target must be a delimited/end terminal or a terminated repetition".into()
            }
            Reason::PinnedTarget => "target sequence has a pinned size".into(),
            Reason::PadOutsideSequence => "pads can only be inserted into sequences".into(),
            Reason::Mirror(fault) => fault.render(g),
            Reason::NotTabular => "target must be a tabular".into(),
            Reason::NotRepetition => "target must be a repetition".into(),
            Reason::ExhaustedSplit => "splitting an exhausted repetition would be ambiguous".into(),
            Reason::ElementTooSmall => "element sequence needs at least two fields to split".into(),
            Reason::ElementNotDelegated => "element boundary must be Delegated".into(),
            Reason::ElementNotSequence => "element must be a sequence".into(),
            Reason::TooFewChildren => "need at least two movable children to permute".into(),
            Reason::NotSequence => "target must be a sequence".into(),
            Reason::NoHolder(x) => format!("no holder for plain source {x}"),
            Reason::NotRecovered { source, holder, user } => format!(
                "plain value of {} (held by {}) is not recovered before {} parses",
                plain(source),
                name(holder),
                name(user)
            ),
            Reason::LostFirstHalf => "count-linked repetition lost its first half".into(),
            Reason::BeforeFirstHalf(id) => {
                format!("count-linked repetition {} parses before its first half", name(id))
            }
            Reason::NotTail { node, under } => format!(
                "rest-of-window node {} is not in tail position under {}",
                name(node),
                name(under)
            ),
            Reason::InRepeated { node, element } => format!(
                "rest-of-window node {} sits inside repeated element {}",
                name(node),
                name(element)
            ),
            Reason::MirrorInvalidated(mirror, fault) => {
                format!("mirror {} invalidated: {}", name(mirror), fault.render(g))
            }
        }
    }
}

/// Checks the applicability constraints of `kind` on node `id`
/// (paper Table II "Constraints" rows, plus the structural soundness rules
/// this implementation adds to guarantee invertibility).
///
/// # Errors
///
/// Returns a human-readable reason when not applicable.
pub fn applicable(g: &ObfGraph, id: ObfId, kind: TransformKind) -> Result<(), String> {
    if g.get(id).is_none() {
        return Err(Reason::UnknownNode.render(g));
    }
    Context::of(g, id).admits(g, None, kind).map_err(|r| r.render(g))
}

/// Applies `kind` on `id`, drawing parameters from `rng`.
///
/// The caller (the obfuscation engine) is responsible for the global
/// post-checks ([`post_check`]) and for rolling back on failure; this
/// function only enforces the local applicability constraints.
///
/// # Errors
///
/// [`TransformError::UnknownNode`] when `id` is not a node of `g`,
/// [`TransformError::NotApplicable`] when constraints are violated.
pub fn apply<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    kind: TransformKind,
    rng: &mut R,
) -> Result<TransformRecord, TransformError> {
    let Some(node) = g.get(id) else {
        return Err(TransformError::UnknownNode(id.0));
    };
    let ctx = Context::of(g, id);
    if let Err(reason) = ctx.admits(g, None, kind) {
        let (node, reason) = (node.name().to_string(), reason.render(g));
        return Err(TransformError::NotApplicable { transform: kind.name(), node, reason });
    }
    Ok(rewrite(g, &ctx, kind, rng))
}

/// Rewrites the context's node with `kind`, which the context admits.
pub(crate) fn rewrite<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    ctx: &Context,
    kind: TransformKind,
    rng: &mut R,
) -> TransformRecord {
    let id = ctx.id;
    // The rewrite below mutates the graph's structure: refresh its uid so
    // caches keyed on the old version (transcode validation) miss.
    g.touch();
    match kind {
        TransformKind::SplitAdd => rewrites::split_op(g, id, ByteOp::Add, kind),
        TransformKind::SplitSub => rewrites::split_op(g, id, ByteOp::Sub, kind),
        TransformKind::SplitXor => rewrites::split_op(g, id, ByteOp::Xor, kind),
        TransformKind::SplitCat => rewrites::split_cat(g, id, rng),
        TransformKind::ConstAdd => rewrites::const_op(g, id, ByteOp::Add, kind, rng),
        TransformKind::ConstSub => rewrites::const_op(g, id, ByteOp::Sub, kind, rng),
        TransformKind::ConstXor => rewrites::const_op(g, id, ByteOp::Xor, kind, rng),
        TransformKind::BoundaryChange => rewrites::boundary_change(g, id, rng),
        TransformKind::PadInsert => rewrites::pad_insert(g, id, ctx.leads.is_some(), rng),
        TransformKind::ReadFromEnd => rewrites::read_from_end(g, id),
        TransformKind::TabSplit => rewrites::tab_split(g, id, rng),
        TransformKind::RepSplit => rewrites::rep_split(g, id, rng),
        TransformKind::ChildMove => rewrites::child_move(g, id, ctx.leads.is_some(), rng),
    }
}

/// Global soundness checks run after every rewrite. A failure means the
/// candidate transformation must be rolled back (the engine retries with
/// another one).
///
/// Linear in the graph: one pre-order layout pass supplies the parse
/// order, the extent classes and the subtree intervals all three checks
/// read. None of them reads a terminal's constant-op stack or a node's
/// transformation count, which is why constant-op rewrites of a sound
/// graph need no check.
///
/// The engine runs the same checks on the layout it maintains, scoped to
/// the slot each rewrite changed; this whole-graph form is their oracle.
pub fn post_check(g: &ObfGraph) -> Result<(), String> {
    check(g, &Layout::of(g, g.root())).map_err(|r| r.render(g))
}

/// [`post_check`] on `layout`, a layout of the whole graph.
pub(crate) fn check(g: &ObfGraph, layout: &Layout) -> Result<(), Reason> {
    g.check_parse_order(layout)?;
    extent::check_windows(g, layout)?;
    // Every Mirror introduced earlier must still have a precomputable
    // child extent with outside references.
    for &id in layout.order() {
        check_mirror(g, layout, id, None)?;
    }
    Ok(())
}

/// The mirror check of `id` if it is a mirror: in full, or reading only
/// the references and count links of `within` (see
/// [`extent::mirror_check_within`]).
fn check_mirror(
    g: &ObfGraph,
    layout: &Layout,
    id: ObfId,
    within: Option<&[ObfId]>,
) -> Result<(), Reason> {
    if !matches!(g.node(id).kind(), ObfKind::Mirror) {
        return Ok(());
    }
    let child = g.node(id).children()[0];
    match within {
        None => extent::mirror_check(g, layout, child),
        Some(nodes) => extent::mirror_check_within(g, layout, child, nodes),
    }
    .map_err(|fault| Reason::MirrorInvalidated(id, fault))
}

/// Where a rewrite happens: the target, the child slot of its parent it
/// fills (or the root), and the pre-order position of its subtree in the
/// engine's layout. A structural rewrite changes the subtree in that slot
/// (possibly putting a new node there) and nothing outside it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    target: ObfId,
    parent: Option<ObfId>,
    index: usize,
    at: usize,
}

impl Slot {
    /// The slot of the live node `target` in `layout`, a layout of the
    /// whole graph.
    pub(crate) fn of(g: &ObfGraph, layout: &Layout, target: ObfId) -> Slot {
        let parent = g.node(target).parent();
        let index = parent.map_or(0, |p| {
            g.node(p).children().iter().position(|&c| c == target).expect("a child of its parent")
        });
        let at = layout.position(target).expect("target outside the layout");
        Slot { target, parent, index, at }
    }

    /// The node now in the slot: the target, or the node that replaced it.
    fn top(&self, g: &ObfGraph) -> ObfId {
        match self.parent {
            Some(p) => g.node(p).children()[self.index],
            None => g.root(),
        }
    }

    /// Splices the slot's current subtree into `layout` after a rewrite
    /// of the slot or its rollback.
    pub(crate) fn relayout(&self, g: &ObfGraph, layout: &mut Layout) {
        layout.splice(g, self.at, self.top(g));
    }
}

/// [`post_check`]'s verdict after a structural rewrite at `slot` of a graph
/// that passed it, `layout` following the rewrite ([`Slot::relayout`]).
/// Each check runs only where the rewrite can change its verdict:
///
/// * Parse order: the users inside the slot. Positions before the slot
///   stay, those after it shift together, and a rewrite moves a value
///   channel only within the slot, so every user outside it reads a
///   holder that still ends before it. The exception is a count link
///   whose first half the rewrite took out of the tree (`RepSplit` of
///   it): the links to a detached target repetition are checked wherever
///   they are.
/// * Windows: the rest-of-window nodes inside the slot or on its ancestor
///   chain. Outside those, no extent class, node kind or last child on
///   the walk up changed.
/// * Mirrors: those inside the slot in full. A mirror above the slot
///   checks its recomputed child class and the references and count
///   links inside the slot; the others, and their holders, stay on the
///   side of the mirrored subtree's bounds they were on.
pub(crate) fn check_slot(g: &ObfGraph, layout: &Layout, slot: &Slot) -> Result<(), Reason> {
    let top = slot.top(g);
    let span = slot.at..layout.span_end(top);
    let inside = &layout.order()[span.clone()];
    let ancestors = || std::iter::successors(g.node(top).parent(), |&a| g.node(a).parent());
    for (at, &id) in span.zip(inside) {
        g.check_reads(layout, at, id)?;
    }
    let target = slot.target;
    if layout.position(target).is_none()
        && matches!(g.node(target).kind(), ObfKind::Repetition { .. })
    {
        for (at, &id) in layout.order().iter().enumerate() {
            if matches!(g.node(id).kind(), ObfKind::Repetition { stop: RepStop::CountOf(f) } if *f == target)
            {
                g.check_reads(layout, at, id)?;
            }
        }
    }
    for id in inside.iter().copied().chain(ancestors()) {
        if layout.class(id) == ExtentClass::WindowNeeded {
            extent::check_window(g, id)?;
        }
    }
    for &id in inside {
        check_mirror(g, layout, id, None)?;
    }
    for id in ancestors() {
        check_mirror(g, layout, id, Some(inside))?;
    }
    Ok(())
}

/// TabSplit/RepSplit need a composite element: a delegated sequence with at
/// least two children (paper: "Boundary of X must be Delegated").
fn composite_element(g: &ObfGraph, node: &ObfNode) -> Result<(), Reason> {
    let elem = g.node(node.children()[0]);
    match elem.kind() {
        ObfKind::Sequence { boundary: SeqBoundary::Delegated } if elem.children().len() < 2 => {
            Err(Reason::ElementTooSmall)
        }
        ObfKind::Sequence { boundary: SeqBoundary::Delegated } => Ok(()),
        ObfKind::Sequence { .. } => Err(Reason::ElementNotDelegated),
        _ => Err(Reason::ElementNotSequence),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, GraphBuilder, StopRule};
    use crate::value::TerminalKind;

    fn find(g: &ObfGraph, name: &str) -> ObfId {
        g.preorder().into_iter().find(|&id| g.node(id).name() == name).unwrap()
    }

    pub(crate) fn sample() -> ObfGraph {
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
        let rep = b.repetition(
            root,
            "headers",
            StopRule::Terminator(b"\r\n".to_vec()),
            Boundary::Delegated,
        );
        let h = b.sequence(rep, "header", Boundary::Delegated);
        b.terminal(h, "name", TerminalKind::Ascii, Boundary::Delimited(b":".to_vec()));
        b.terminal(h, "hv", TerminalKind::Ascii, Boundary::Delimited(b"\r\n".to_vec()));
        b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
        ObfGraph::from_plain(&b.build().unwrap())
    }

    #[test]
    fn names_and_categories() {
        assert_eq!(TransformKind::SplitAdd.name(), "SplitAdd");
        assert_eq!(TransformKind::SplitAdd.category(), Category::Aggregation);
        assert_eq!(TransformKind::ChildMove.category(), Category::Ordering);
        assert_eq!(TransformKind::ALL.len(), 13);
        assert!(TransformKind::BoundaryChange.size_changing());
        assert!(!TransformKind::SplitCat.size_changing());
    }

    #[test]
    fn split_on_fixed_and_plainlen_ok() {
        let g = sample();
        assert!(applicable(&g, find(&g, "len"), TransformKind::SplitAdd).is_ok());
        assert!(applicable(&g, find(&g, "data"), TransformKind::SplitXor).is_ok());
        assert!(applicable(&g, find(&g, "data"), TransformKind::SplitCat).is_ok());
    }

    #[test]
    fn split_rejected_on_delimited_and_end() {
        let g = sample();
        assert!(applicable(&g, find(&g, "uri"), TransformKind::SplitAdd).is_err());
        assert!(applicable(&g, find(&g, "body"), TransformKind::SplitAdd).is_err());
        assert!(applicable(&g, find(&g, "uri"), TransformKind::SplitCat).is_err());
    }

    #[test]
    fn splitcat_needs_two_bytes() {
        let g = sample();
        assert!(applicable(&g, find(&g, "count"), TransformKind::SplitCat).is_err());
        assert!(applicable(&g, find(&g, "addr"), TransformKind::SplitCat).is_ok());
    }

    #[test]
    fn const_allowed_on_end_but_not_delimited() {
        let g = sample();
        assert!(applicable(&g, find(&g, "body"), TransformKind::ConstXor).is_ok());
        assert!(applicable(&g, find(&g, "uri"), TransformKind::ConstAdd).is_err());
    }

    #[test]
    fn boundary_change_targets() {
        let g = sample();
        assert!(applicable(&g, find(&g, "uri"), TransformKind::BoundaryChange).is_ok());
        assert!(applicable(&g, find(&g, "body"), TransformKind::BoundaryChange).is_ok());
        assert!(applicable(&g, find(&g, "headers"), TransformKind::BoundaryChange).is_ok());
        assert!(applicable(&g, find(&g, "len"), TransformKind::BoundaryChange).is_err());
    }

    #[test]
    fn element_leading_rule_blocks_header_name() {
        let g = sample();
        // `name` is the first terminal of the terminated repetition's
        // element: value-randomizing transforms are rejected there.
        assert!(applicable(&g, find(&g, "name"), TransformKind::BoundaryChange).is_err());
        // The header value is not leading: BoundaryChange is fine.
        assert!(applicable(&g, find(&g, "hv"), TransformKind::BoundaryChange).is_ok());
    }

    #[test]
    fn size_changes_rejected_under_pinned_sequences() {
        let mut b = GraphBuilder::new("p");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let outer = b.sequence(root, "outer", Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(outer));
        let inner = b.sequence(outer, "inner", Boundary::Fixed(2));
        b.uint_be(inner, "x", 2);
        let g = ObfGraph::from_plain(&b.build().unwrap());
        let (x, inner) = (find(&g, "x"), find(&g, "inner"));
        // The nearest pinning ancestor is named.
        let fixed = "ancestor inner has a fixed boundary; sizes are pinned";
        assert_eq!(applicable(&g, x, TransformKind::SplitAdd), Err(fixed.into()));
        let length = "ancestor outer is length-bounded; sizes are pinned";
        assert_eq!(applicable(&g, inner, TransformKind::PadInsert), Err(length.into()));
        // Size-preserving rewrites stay allowed.
        assert!(applicable(&g, x, TransformKind::ConstXor).is_ok());
        assert!(applicable(&g, x, TransformKind::SplitCat).is_ok());
    }

    #[test]
    fn tab_and_rep_split_constraints() {
        let g = sample();
        assert!(applicable(&g, find(&g, "regs"), TransformKind::TabSplit).is_ok());
        assert!(applicable(&g, find(&g, "headers"), TransformKind::RepSplit).is_ok());
        assert!(applicable(&g, find(&g, "regs"), TransformKind::RepSplit).is_err());
        assert!(applicable(&g, find(&g, "headers"), TransformKind::TabSplit).is_err());
    }

    #[test]
    fn childmove_needs_sequence_with_two_children() {
        let g = sample();
        assert!(applicable(&g, g.root(), TransformKind::ChildMove).is_ok());
        assert!(applicable(&g, find(&g, "len"), TransformKind::ChildMove).is_err());
    }

    #[test]
    fn pad_insert_targets_sequences_only() {
        let g = sample();
        assert!(applicable(&g, g.root(), TransformKind::PadInsert).is_ok());
        assert!(applicable(&g, find(&g, "data"), TransformKind::PadInsert).is_err());
    }

    #[test]
    fn read_from_end_respects_extent() {
        let g = sample();
        assert!(applicable(&g, find(&g, "data"), TransformKind::ReadFromEnd).is_ok());
        assert!(applicable(&g, find(&g, "uri"), TransformKind::ReadFromEnd).is_err());
        assert!(applicable(&g, find(&g, "reg"), TransformKind::ReadFromEnd).is_ok());
    }

    #[test]
    fn apply_rejects_unknown_node() {
        let mut g = sample();
        let past = ObfId(g.allocated() as u32);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let err = apply(&mut g, past, TransformKind::ConstXor, &mut rng).unwrap_err();
        assert_eq!(err, TransformError::UnknownNode(past.0));
        assert_eq!(applicable(&g, past, TransformKind::ConstXor), Err("unknown node".into()));
    }

    #[test]
    fn post_check_passes_on_identity() {
        let g = sample();
        assert!(post_check(&g).is_ok());
    }

    /// Rewrites `target` with `kind` as the engine does — on a layout of
    /// the sound graph that follows the rewrite — and returns the scoped
    /// verdict and [`post_check`]'s. The spliced layout must equal a fresh
    /// one. The applicability constraints are not consulted, so a test can
    /// hand the checks a rewrite the constraints would refuse.
    fn verdicts(
        g: &mut ObfGraph,
        target: ObfId,
        kind: TransformKind,
        seed: u64,
    ) -> (Result<(), String>, Result<(), String>) {
        let mut layout = Layout::of(g, g.root());
        assert_eq!(check(g, &layout), Ok(()), "the graph must start sound");
        let ctx = Context::of(g, target);
        let slot = Slot::of(g, &layout, target);
        rewrite(g, &ctx, kind, &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed));
        slot.relayout(g, &mut layout);
        assert!(layout == Layout::of(g, g.root()), "{kind}: spliced layout differs");
        (check_slot(g, &layout, &slot).map_err(|r| r.render(g)), post_check(g))
    }

    fn assert_both_reject(verdicts: (Result<(), String>, Result<(), String>), reason: &str) {
        let (scoped, full) = verdicts;
        assert!(scoped.as_ref().is_err_and(|e| e.contains(reason)), "scoped: {scoped:?}");
        assert!(full.as_ref().is_err_and(|e| e.contains(reason)), "post_check: {full:?}");
    }

    #[test]
    fn scoped_check_rejects_a_user_moved_ahead_of_its_holder() {
        let mut b = GraphBuilder::new("order");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "kind", 1);
        let s = b.sequence(root, "s", Boundary::Delegated);
        let len = b.uint_be(s, "len", 2);
        let data = b.terminal(s, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        b.uint_be(root, "tail", 1);
        let mut g = ObfGraph::from_plain(&b.build().unwrap());
        // Two children: the swap puts `data` ahead of `len`.
        let s = find(&g, "s");
        assert!(applicable(&g, s, TransformKind::ChildMove).is_ok());
        let got = verdicts(&mut g, s, TransformKind::ChildMove, 1);
        assert_both_reject(got, "is not recovered before data parses");
    }

    #[test]
    fn scoped_check_rejects_a_pad_after_a_rest_of_window_node() {
        let graph = {
            let mut b = GraphBuilder::new("window");
            let root = b.root_sequence("m", Boundary::End);
            b.uint_be(root, "x", 1);
            let s = b.sequence(root, "s", Boundary::End);
            b.uint_be(s, "y", 1);
            b.terminal(s, "body", TerminalKind::Bytes, Boundary::End);
            b.build().unwrap()
        };
        let (mut last, mut inner) = (0, 0);
        for seed in 0..32 {
            let mut g = ObfGraph::from_plain(&graph);
            let s = find(&g, "s");
            assert!(applicable(&g, s, TransformKind::PadInsert).is_ok());
            let got = verdicts(&mut g, s, TransformKind::PadInsert, seed);
            let body = find(&g, "body");
            if g.node(s).children().last() == Some(&body) {
                assert_eq!(got, (Ok(()), Ok(())), "seed {seed}");
                inner += 1;
            } else {
                assert_both_reject(got, "rest-of-window node body is not in tail position");
                last += 1;
            }
        }
        assert!(last > 0 && inner > 0, "{last} pads last, {inner} before the body");
    }

    #[test]
    fn scoped_check_rejects_a_mirror_holding_a_reference_holder() {
        let mut b = GraphBuilder::new("mirror");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "kind", 1);
        let s = b.sequence(root, "s", Boundary::Delegated);
        let len = b.uint_be(s, "len", 2);
        let data = b.terminal(s, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        b.uint_be(root, "tail", 1);
        let mut g = ObfGraph::from_plain(&b.build().unwrap());
        // The constraints refuse it; the post-check is the last line.
        let s = find(&g, "s");
        assert!(applicable(&g, s, TransformKind::ReadFromEnd).is_err());
        let got = verdicts(&mut g, s, TransformKind::ReadFromEnd, 1);
        assert_both_reject(got, "reference len is held inside the mirrored subtree");
    }

    #[test]
    fn scoped_check_rejects_splitting_the_first_half_of_a_count_link() {
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
        // Find a first split that leaves two fields in the first half.
        let (mut g, first) = (0..32)
            .find_map(|seed| {
                let mut g = ObfGraph::from_plain(&graph);
                let headers = find(&g, "headers");
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                let rec = apply(&mut g, headers, TransformKind::RepSplit, &mut rng).unwrap();
                let first = rec.created[1];
                applicable(&g, first, TransformKind::RepSplit).is_ok().then_some((g, first))
            })
            .expect("a split after the second field");
        assert_eq!(post_check(&g), Ok(()));
        // Splitting the first half again strands the second half's count
        // link, which lies outside the rewritten slot.
        let got = verdicts(&mut g, first, TransformKind::RepSplit, 3);
        assert_both_reject(got, "count-linked repetition lost its first half");
    }

    #[test]
    fn scoped_check_rejects_a_count_link_inside_a_mirror_above() {
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
        let mut g = ObfGraph::from_plain(&b.build().unwrap());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        // The length-sized body has a precomputable extent, so it mirrors.
        let body = find(&g, "body");
        apply(&mut g, body, TransformKind::ReadFromEnd, &mut rng).unwrap();
        // Splitting the loop inside links the second half's count to the
        // first half, which is inside the mirror: its extent would depend
        // on the mirrored bytes. The mirror is above the rewritten slot.
        let items = find(&g, "items");
        assert!(applicable(&g, items, TransformKind::RepSplit).is_ok());
        let got = verdicts(&mut g, items, TransformKind::RepSplit, 1);
        assert_both_reject(got, "resolves inside the mirrored subtree");
    }

    #[test]
    fn record_display() {
        let r = TransformRecord {
            kind: TransformKind::ConstAdd,
            target: ObfId(3),
            target_name: "len".into(),
            created: vec![],
            detail: "k=[7]".into(),
        };
        let s = r.to_string();
        assert!(s.contains("ConstAdd") && s.contains("len") && s.contains("k=[7]"));
    }
}
