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

mod rewrites;

use std::fmt;

use rand::Rng;

use crate::error::TransformError;
use crate::extent;
use crate::obf::{ObfGraph, ObfId, ObfKind, RepStop, SeqBoundary, TermBoundary};

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

/// Checks the applicability constraints of `kind` on node `id`
/// (paper Table II "Constraints" rows, plus the structural soundness rules
/// this implementation adds to guarantee invertibility).
///
/// # Errors
///
/// Returns a human-readable reason when not applicable.
pub fn applicable(g: &ObfGraph, id: ObfId, kind: TransformKind) -> Result<(), String> {
    if g.get(id).is_none() {
        return Err("unknown node".into());
    }
    if kind.size_changing() {
        exact_window_ancestors_forbidden(g, id)?;
    }
    match kind {
        TransformKind::SplitAdd | TransformKind::SplitSub | TransformKind::SplitXor => {
            let b = terminal_boundary(g, id)?;
            match b {
                TermBoundary::Fixed(_) | TermBoundary::PlainLen { .. } => {}
                TermBoundary::Delimited(_) => {
                    return Err("splitting a delimited value breaks delimiter scanning".into())
                }
                TermBoundary::End => {
                    return Err("the first share of an End-bounded field cannot be delimited".into())
                }
            }
            no_element_leading(g, id)
        }
        TransformKind::SplitCat => {
            let b = terminal_boundary(g, id)?;
            match b {
                TermBoundary::Fixed(n) => {
                    if *n < 2 {
                        return Err("cannot cut a field shorter than 2 bytes".into());
                    }
                    Ok(())
                }
                // Cut at half of the (recoverable) plain length.
                TermBoundary::PlainLen { .. } => Ok(()),
                TermBoundary::Delimited(_) => {
                    Err("cutting a delimited value breaks delimiter scanning".into())
                }
                TermBoundary::End => {
                    Err("the first piece of an End-bounded field cannot be delimited".into())
                }
            }
        }
        TransformKind::ConstAdd | TransformKind::ConstSub | TransformKind::ConstXor => {
            let b = terminal_boundary(g, id)?;
            if matches!(b, TermBoundary::Delimited(_)) {
                return Err("transforming a delimited value breaks delimiter scanning".into());
            }
            no_element_leading(g, id)
        }
        TransformKind::BoundaryChange => {
            match &g.node(id).kind {
                ObfKind::Terminal { boundary, .. } => match boundary {
                    TermBoundary::Delimited(_) | TermBoundary::End => {}
                    _ => return Err("boundary is already length-determined".into()),
                },
                ObfKind::Repetition { stop: RepStop::Terminator(_) } => {}
                _ => {
                    return Err(
                        "target must be a delimited/end terminal or a terminated repetition".into(),
                    )
                }
            }
            no_element_leading(g, id)
        }
        TransformKind::PadInsert => match &g.node(id).kind {
            // The pad grows the target sequence itself, so an exactly
            // windowed target is as forbidden as an exactly windowed
            // ancestor.
            ObfKind::Sequence { boundary: SeqBoundary::Fixed(_) | SeqBoundary::PlainLen(_) } => {
                Err("target sequence has a pinned size".into())
            }
            ObfKind::Sequence { .. } => Ok(()),
            _ => Err("pads can only be inserted into sequences".into()),
        },
        TransformKind::ReadFromEnd => {
            extent::mirror_applicable(g, id)?;
            no_element_leading(g, id)
        }
        TransformKind::TabSplit => {
            let node = g.node(id);
            if !matches!(node.kind(), ObfKind::Tabular { .. }) {
                return Err("target must be a tabular".into());
            }
            composite_element(g, id)
        }
        TransformKind::RepSplit => {
            let node = g.node(id);
            match node.kind() {
                ObfKind::Repetition { stop: RepStop::Terminator(_) | RepStop::CountOf(_) } => {}
                ObfKind::Repetition { stop: RepStop::Exhausted } => {
                    return Err("splitting an exhausted repetition would be ambiguous".into())
                }
                _ => return Err("target must be a repetition".into()),
            }
            composite_element(g, id)
        }
        TransformKind::ChildMove => {
            let node = g.node(id);
            match node.kind() {
                ObfKind::Sequence { .. } => {}
                _ => return Err("target must be a sequence".into()),
            }
            // A pinned leading child (terminator-repetition element head)
            // cannot move, so one more child is needed in that case.
            let movable = node.children().len() - usize::from(rewrites::leading_sensitive(g, id));
            if movable < 2 {
                return Err("need at least two movable children to permute".into());
            }
            Ok(())
        }
    }
}

/// Applies `kind` on `id`, drawing parameters from `rng`.
///
/// The caller (the obfuscation engine) is responsible for the global
/// post-checks ([`post_check`]) and for rolling back on failure; this
/// function only enforces the local applicability constraints.
///
/// # Errors
///
/// [`TransformError::NotApplicable`] when constraints are violated.
pub fn apply<R: Rng + ?Sized>(
    g: &mut ObfGraph,
    id: ObfId,
    kind: TransformKind,
    rng: &mut R,
) -> Result<TransformRecord, TransformError> {
    if let Err(reason) = applicable(g, id, kind) {
        return Err(TransformError::NotApplicable {
            transform: kind.name(),
            node: g.get(id).map(|n| n.name().to_string()).unwrap_or_default(),
            reason,
        });
    }
    // The rewrite below mutates the graph's structure: refresh its uid so
    // caches keyed on the old version (transcode validation) miss.
    g.touch();
    Ok(match kind {
        TransformKind::SplitAdd => rewrites::split_op(g, id, crate::value::ByteOp::Add, kind),
        TransformKind::SplitSub => rewrites::split_op(g, id, crate::value::ByteOp::Sub, kind),
        TransformKind::SplitXor => rewrites::split_op(g, id, crate::value::ByteOp::Xor, kind),
        TransformKind::SplitCat => rewrites::split_cat(g, id, rng),
        TransformKind::ConstAdd => rewrites::const_op(g, id, crate::value::ByteOp::Add, kind, rng),
        TransformKind::ConstSub => rewrites::const_op(g, id, crate::value::ByteOp::Sub, kind, rng),
        TransformKind::ConstXor => rewrites::const_op(g, id, crate::value::ByteOp::Xor, kind, rng),
        TransformKind::BoundaryChange => rewrites::boundary_change(g, id, rng),
        TransformKind::PadInsert => rewrites::pad_insert(g, id, rng),
        TransformKind::ReadFromEnd => rewrites::read_from_end(g, id),
        TransformKind::TabSplit => rewrites::tab_split(g, id, rng),
        TransformKind::RepSplit => rewrites::rep_split(g, id, rng),
        TransformKind::ChildMove => rewrites::child_move(g, id, rng),
    })
}

/// Global soundness checks run after every rewrite. A failure means the
/// candidate transformation must be rolled back (the engine retries with
/// another one).
pub fn post_check(g: &ObfGraph) -> Result<(), String> {
    g.check_parse_order()?;
    extent::check_windows(g)?;
    // Every Mirror introduced earlier must still have a precomputable
    // child extent with outside references.
    for id in g.preorder() {
        if matches!(g.node(id).kind(), ObfKind::Mirror) {
            let child = g.node(id).children()[0];
            extent::mirror_applicable(g, child)
                .map_err(|e| format!("mirror {} invalidated: {e}", g.node(id).name()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// constraint helpers
// ---------------------------------------------------------------------------

fn terminal_boundary(g: &ObfGraph, id: ObfId) -> Result<&TermBoundary, String> {
    match &g.node(id).kind {
        ObfKind::Terminal { boundary, .. } => Ok(boundary),
        _ => Err("target must be a terminal".into()),
    }
}

/// Size-changing rewrites are forbidden under exactly-windowed ancestors
/// (the paper's "Boundary of parent nodes must be either Delegated or
/// End"): a Fixed or Length-bounded enclosing sequence pins the byte count.
fn exact_window_ancestors_forbidden(g: &ObfGraph, id: ObfId) -> Result<(), String> {
    for a in g.ancestors(id) {
        match &g.node(a).kind {
            ObfKind::Sequence { boundary: SeqBoundary::Fixed(_) } => {
                return Err(format!(
                    "ancestor {} has a fixed boundary; sizes are pinned",
                    g.node(a).name()
                ))
            }
            ObfKind::Sequence { boundary: SeqBoundary::PlainLen(_) } => {
                return Err(format!(
                    "ancestor {} is length-bounded; sizes are pinned",
                    g.node(a).name()
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// The leftmost terminal of the subtree rooted at `id`, in parse order.
fn leftmost_terminal(g: &ObfGraph, id: ObfId) -> Option<ObfId> {
    g.subtree(id).into_iter().find(|&n| g.node(n).is_terminal())
}

/// Rejects rewrites that would randomize the first wire byte of a
/// terminator-delimited repetition's element: the parser distinguishes
/// "one more element" from "terminator" by looking at those bytes, so they
/// must keep their plain-protocol determinism. This is the constraint the
/// paper writes as "Boundary of parent nodes can be anything but
/// Delimited".
fn no_element_leading(g: &ObfGraph, target: ObfId) -> Result<(), String> {
    for a in g.ancestors(target) {
        if let ObfKind::Repetition { stop: RepStop::Terminator(_) } = g.node(a).kind() {
            let elem = g.node(a).children()[0];
            if let Some(first) = leftmost_terminal(g, elem) {
                if g.is_descendant(first, target) {
                    return Err(format!(
                        "would randomize the leading byte of terminated repetition {}",
                        g.node(a).name()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// TabSplit/RepSplit need a composite element: a delegated sequence with at
/// least two children (paper: "Boundary of X must be Delegated").
fn composite_element(g: &ObfGraph, id: ObfId) -> Result<(), String> {
    let elem = g.node(id).children()[0];
    match &g.node(elem).kind {
        ObfKind::Sequence { boundary: SeqBoundary::Delegated } => {
            if g.node(elem).children().len() < 2 {
                Err("element sequence needs at least two fields to split".into())
            } else {
                Ok(())
            }
        }
        ObfKind::Sequence { .. } => Err("element boundary must be Delegated".into()),
        _ => Err("element must be a sequence".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, GraphBuilder, StopRule};
    use crate::value::TerminalKind;

    fn find(g: &ObfGraph, name: &str) -> ObfId {
        g.preorder().into_iter().find(|&id| g.node(id).name() == name).unwrap()
    }

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
    fn post_check_passes_on_identity() {
        let g = sample();
        assert!(post_check(&g).is_ok());
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
