//! The compiled codec plan: the obfuscation graph lowered into a flat,
//! index-addressed execution program.
//!
//! The paper's framework *generates* a specialized serializer/parser pair
//! from the specification and the obfuscation plan (§V). The seed
//! implementation instead re-interpreted the [`ObfGraph`] per message,
//! paying `HashMap<(ObfId, Scope), Value>` lookups, per-visit node clones
//! and per-node output buffers. [`CodecPlan::compile`] performs that
//! interpretation **once**:
//!
//! * every node becomes a `PlanOp` in a dense table indexed by the raw
//!   [`ObfId`] value (the node's *slot*), with children flattened into one
//!   contiguous array;
//! * every plain-graph lookup the interpreters used to perform per message
//!   (reference targets, container depths, byte orders, auto-field
//!   encodings) is resolved to plain `u32` indices at compile time;
//! * the reference aggregation walks ([`crate::reference`]) are lowered per
//!   holder into a post-order `RecStep` recovery program and a
//!   pre-order `DistStep` distribution program: stack-machine byte
//!   programs evaluated by `RecEval` / `DistEval` against reusable
//!   scratch buffers — no allocation, no recursion, no hashing;
//! * auto-field sanity checks are collected into a flat
//!   `AutoCheck` list walked after parsing.
//!
//! The plan interpreters live in [`crate::serialize`]
//! ([`crate::serialize::SerializeSession`]) and [`crate::parse`]
//! ([`crate::parse::ParseSession`]); [`crate::codec::Codec`] compiles the
//! plan lazily and caches it.

use rand::Rng;

use crate::graph::{Boundary, FormatGraph, NodeId, Predicate};
use crate::obf::{
    Base, ConstOp, LenStep, ObfGraph, ObfId, ObfKind, Recombine, RepStop, SeqBoundary, TermBoundary,
};
use crate::runtime;
use crate::value::{ByteOp, Endian, SplitAt, TerminalKind, Value};

/// Sentinel for "no node" in the plan's dense `u32` index space.
pub(crate) const NONE: u32 = u32::MAX;

/// A range into one of the plan's flat pools: `(start, len)`.
pub(crate) type PoolRange = (u32, u32);

/// Compiled terminal boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TermB {
    /// Exactly `n` bytes.
    Fixed(u32),
    /// Scan for the pooled delimiter; consumed, not part of the value.
    Delim(u32),
    /// `steps(plain_len(reference))` bytes.
    PlainLen {
        /// Plain index of the numeric terminal carrying the plain length.
        r: u32,
        /// Container depth of the reference (scope truncation).
        r_depth: u8,
        /// Byte order of the reference.
        r_endian: Endian,
        /// Split derivation steps (pool range).
        steps: PoolRange,
    },
    /// The rest of the enclosing window.
    End,
}

/// Compiled sequence boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeqB {
    /// Sum of the children's extents.
    Delegated,
    /// The rest of the enclosing window.
    End,
    /// Exactly `n` bytes.
    Fixed(u32),
    /// Window given by the plain `Length` reference `r`.
    PlainLen {
        /// Plain index of the reference target.
        r: u32,
        /// Its container depth.
        r_depth: u8,
        /// Its byte order.
        r_endian: Endian,
    },
}

/// Compiled input-value source of a terminal / split sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BaseOp {
    /// Application-set plain field (plain index kept for error naming).
    Source {
        /// Plain node index.
        plain: u32,
    },
    /// `k` random pad bytes per serialization.
    Pad {
        /// Pad width.
        k: u32,
    },
    /// Auto-computed plain length of the target subtree.
    AutoLen {
        /// Plain target index.
        target: u32,
        /// Target container depth.
        depth: u8,
        /// Encoded width in bytes.
        width: u8,
        /// Encoded byte order.
        endian: Endian,
    },
    /// Auto-computed element count of the target container.
    AutoCount {
        /// Plain target index.
        target: u32,
        /// Target container depth.
        depth: u8,
        /// Encoded width in bytes.
        width: u8,
        /// Encoded byte order.
        endian: Endian,
    },
    /// Protocol constant (pool index).
    Const {
        /// Index into [`CodecPlan::consts`].
        pool: u32,
    },
    /// Handed down by the enclosing split sequence.
    Inherit,
}

impl BaseOp {
    /// True for bases materialized by the serializer (never application
    /// set).
    pub(crate) fn is_materialized(&self) -> bool {
        matches!(self, BaseOp::AutoLen { .. } | BaseOp::AutoCount { .. } | BaseOp::Const { .. })
    }
}

/// True for the counted containers an [`ElemRun`] may specialize: a
/// tabular, or a repetition linked to another one's element count.
fn is_counted(op: &PlanOp) -> bool {
    matches!(op, PlanOp::Tab { .. } | PlanOp::Rep { stop: RepStopC::CountOf(_), .. })
}

/// Compiled repetition stop rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RepStopC {
    /// Pooled terminator byte string.
    Terminator(u32),
    /// Until the window is exhausted.
    Exhausted,
    /// Exactly as many elements as the linked repetition slot parsed.
    CountOf(u32),
}

/// One compiled node of the plan. The variant mirrors [`ObfKind`] with all
/// graph lookups pre-resolved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlanOp {
    /// Allocated but detached node (replaced by a transformation).
    Dead,
    /// Wire-carrying leaf.
    Term {
        /// Input source.
        base: BaseOp,
        /// Extent rule.
        boundary: TermB,
    },
    /// Split sequence: materializes its base, then serializes children.
    Split {
        /// The replaced terminal's compiled base.
        base: BaseOp,
        /// First terminal slot of the subtree (materialization guard).
        first_term: u32,
    },
    /// Ordered children with a window rule.
    Seq {
        /// Window rule.
        boundary: SeqB,
    },
    /// Conditional subtree.
    Opt {
        /// Plain index of the condition subject.
        subject: u32,
        /// Subject container depth.
        subject_depth: u8,
        /// Index into [`CodecPlan::preds`].
        pred: u32,
        /// Plain index of the optional node itself (presence key).
        origin: u32,
        /// Its container depth.
        origin_depth: u8,
    },
    /// Repeated single child.
    Rep {
        /// Stop rule.
        stop: RepStopC,
        /// Plain origin (count key), [`NONE`] if the node has none.
        origin: u32,
        /// Origin container depth.
        origin_depth: u8,
    },
    /// Counted single child.
    Tab {
        /// Plain index of the counter terminal.
        counter: u32,
        /// Counter container depth.
        counter_depth: u8,
        /// Counter byte order.
        counter_endian: Endian,
        /// Plain origin (count key), [`NONE`] if absent.
        origin: u32,
        /// Origin container depth.
        origin_depth: u8,
    },
    /// Byte-reversed subtree.
    Mirror,
    /// Length-prefixed subtree.
    Prefixed {
        /// Prefix width in bytes.
        width: u8,
        /// Prefix byte order.
        endian: Endian,
    },
}

/// One fixed-width column of an [`ElemRun`]: a `Term{Fixed}` of the
/// element, possibly behind mirrors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RunCol {
    /// Terminal slot.
    pub(crate) slot: u32,
    /// Its fixed wire width.
    pub(crate) width: u32,
    /// Its base: [`BaseOp::Source`] or [`BaseOp::Pad`].
    pub(crate) base: BaseOp,
    /// Whether an odd number of mirrors wraps the terminal: its stored
    /// value is its wire bytes reversed.
    pub(crate) rev: bool,
}

/// The element run of a counted container (a `Tab`, or a `Rep` with a
/// `CountOf` stop) whose element flattens to fixed-width columns: a
/// `Term{Fixed}` with a `Source`/`Pad` base, a `Seq{Delegated}` of such
/// elements, or a `Mirror` of one (a table of a single field lowers to its
/// terminal). Every element has the same width, so the sessions check the
/// window once per container and store or emit each element under one
/// scope key, with no per-terminal dispatch (the SNIPPETS.md
/// deobfuscator's basic-block grouping, applied to loops). A mirror
/// reverses its columns' order and toggles their [`RunCol::rev`]; it may
/// hold at most one pad column, so the wire order of the pads is the
/// order the walk draws them in. Derived from the node table, so it
/// stays out of [`CodecPlan::digest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ElemRun {
    /// The element's terminals, in wire order.
    pub(crate) cols: Vec<RunCol>,
    /// Sum of the columns' widths (never zero: zero-width elements keep
    /// the walk's empty-element bound).
    pub(crate) width: u32,
    /// Whether an echo ([`crate::framing::WireHop`]) leaves the run in the
    /// frame and copies it back as one block: every source column's plain
    /// terminal has a fixed plain width and nothing else reads it (no
    /// optional subject, counter or length reference), so no check of the
    /// parse and no reference of the serializer reads its values. A
    /// message re-serialized on the plan that parsed it re-emits what was
    /// stored, so ops, pads, `rev` columns and mirror folds need no
    /// further condition.
    pub(crate) frame_copy: bool,
}

/// How many of a program's loops run a specialized kernel: element runs
/// of a compiled plan ([`CodecPlan::element_kernels`]), those an echo
/// copies frame to frame ([`CodecPlan::frame_copies`]), or column copies
/// of a transcode program ([`CopyProgram::column_copies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCoverage {
    /// Loops eligible in kind: counted containers, or copy-program loops.
    pub loops: usize,
    /// Loops that run the kernel.
    pub kernels: usize,
}

/// One compiled node: operation plus flattened child range.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanNode {
    /// The operation.
    pub(crate) op: PlanOp,
    /// Range into [`CodecPlan::children`].
    pub(crate) children: PoolRange,
}

/// One step of a compiled recovery program (post-order stack machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecStep {
    /// Push the wire bytes of slot `obf`, undoing its constant-op stack.
    Load {
        /// Wire slot.
        obf: u32,
        /// Constant ops to undo (pool range).
        ops: PoolRange,
    },
    /// Pop two values, concatenate, undo the split expression's ops.
    Concat {
        /// Split-expression ops to undo (pool range).
        ops: PoolRange,
    },
    /// Pop share and combined value, invert `op`, undo the split
    /// expression's ops.
    Op {
        /// The forward recombination operator (inverted during eval).
        op: ByteOp,
        /// Split-expression ops to undo (pool range).
        ops: PoolRange,
    },
}

/// One step of a compiled distribution program: the **forward** mirror of
/// [`RecStep`], lowered from the reference distribution walk. Steps run in
/// pre-order against a stack of byte ranges; each split pops its input
/// range and pushes the two child ranges (left on top), each store pops
/// one range and emits it as a terminal's wire value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DistStep {
    /// Pop a value, validate it against the terminal's boundary, apply the
    /// constant-op stack forward, and emit it as slot `obf`'s wire.
    Store {
        /// Wire slot.
        obf: u32,
        /// Constant ops to apply (pool range).
        ops: PoolRange,
        /// Boundary validation.
        check: DistCheck,
    },
    /// Pop a value, apply the split expression's ops forward, split it by
    /// `rule`, and push the two halves (left half on top).
    Split {
        /// Split-expression ops to apply (pool range).
        ops: PoolRange,
        /// How the value is cut / shared.
        rule: SplitRuleC,
    },
}

/// Boundary validation of a distribution store (mirrors the checks of
/// the reference distribution walk, performed on the **input** value before the
/// constant-op stack is applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DistCheck {
    /// No constraint.
    None,
    /// The value must be exactly `n` bytes.
    Fixed(u32),
    /// The value must not contain the pooled delimiter.
    Delim(u32),
}

impl DistCheck {
    /// Validates the plain value a store of slot `obf` receives.
    pub(crate) fn validate(self, plan: &CodecPlan, obf: u32, value: &[u8]) -> Result<(), DistErr> {
        match self {
            DistCheck::Fixed(k) if value.len() != k as usize => {
                Err(DistErr::BadLen { obf, expected: k, found: value.len() as u32 })
            }
            DistCheck::Delim(d) if runtime::contains(value, &plan.bytes[d as usize]) => {
                Err(DistErr::Delim { obf })
            }
            _ => Ok(()),
        }
    }
}

/// Compiled split rule of a distribution step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SplitRuleC {
    /// Cut at byte `n` (clamped to the value length).
    At(u32),
    /// Cut at `len / 2`.
    Half,
    /// Left half is a fresh random share, right half is `value ⟨op⟩ share`.
    Op(ByteOp),
}

/// A compiled distribution program: range into [`CodecPlan::dist_steps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DistProg(pub(crate) PoolRange);

/// Distribution failure, mapped to a named [`crate::error::BuildError`] by
/// the session (the plan layer has no node names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DistErr {
    /// A fixed-width terminal received a value of the wrong length.
    BadLen {
        /// Offending wire slot.
        obf: u32,
        /// Expected byte length.
        expected: u32,
        /// Actual byte length.
        found: u32,
    },
    /// A delimited terminal's value contains its own delimiter.
    Delim {
        /// Offending wire slot.
        obf: u32,
    },
}

impl DistErr {
    /// The named [`crate::error::BuildError`] of this failure, naming the
    /// offending wire terminal of `g`.
    pub(crate) fn into_build_error(self, g: &ObfGraph) -> crate::error::BuildError {
        use crate::error::BuildError;
        let name = |obf: u32| g.node(ObfId(obf)).name().to_string();
        match self {
            DistErr::BadLen { obf, expected, found } => BuildError::BadValueLength {
                path: name(obf),
                expected: expected as usize,
                found: found as usize,
            },
            DistErr::Delim { obf } => BuildError::ValueContainsDelimiter { path: name(obf) },
        }
    }
}

/// One step of a compiled transcode **copy program** (see
/// [`CopyProgram`]): a slot-to-slot mapping over the plain specification
/// two codecs share. Steps run in plain pre-order against the source
/// message's stores; loops and optionals carry relative jump widths so
/// the whole program is one flat array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyStep {
    /// Recover plain terminal `plain`'s value from the source message
    /// through the **source** plan's recovery program, then distribute it
    /// into the destination message through the **destination** plan's
    /// distribution program. A value missing from the source (unset
    /// field, absent optional) is skipped, exactly like the reference
    /// walk.
    Value {
        /// Plain node index (shared by both specs).
        plain: u32,
        /// Recovery program in the source plan.
        rec: RecProg,
        /// Distribution program in the destination plan.
        dist: DistProg,
    },
    /// [`CopyStep::Value`] specialized for an unsplit source holder whose
    /// destination holder splits: the recovery program is a single
    /// `Load`, so the source wire is read straight into the distribution
    /// scratch — no recovery stack, one byte copy fewer per value.
    ValueDirect {
        /// Source wire slot.
        src_obf: u32,
        /// Source constant-op stack to undo (pool range in the source
        /// plan).
        src_ops: PoolRange,
        /// Distribution program in the destination plan.
        dist: DistProg,
    },
    /// The fused wire-to-wire copy, for the dominant case of a value
    /// channel no aggregation split touched at either end (the whole
    /// clear leg of a gateway, and every unsplit terminal of the
    /// obfuscated one): the recovery program is a single `Load` and the
    /// distribution program a single `Store`. The source wire is appended
    /// straight into the destination store, where its source ops are
    /// undone, the store's check runs and its destination ops are applied
    /// in place — no recovery stack, no distribution scratch, one byte
    /// copy per value.
    Direct {
        /// Source wire slot.
        src_obf: u32,
        /// Source constant-op stack to undo (pool range in the source
        /// plan).
        src_ops: PoolRange,
        /// Destination wire slot.
        dst_obf: u32,
        /// Destination constant-op stack to apply (pool range in the
        /// destination plan).
        dst_ops: PoolRange,
        /// The destination store's boundary validation.
        check: DistCheck,
    },
    /// Copy the presence flag of optional `plain`. When the source marks
    /// it absent, the next `skip` steps (its subtree) are jumped over.
    Optional {
        /// Plain node index of the optional.
        plain: u32,
        /// Steps to skip when absent.
        skip: u32,
    },
    /// Copy the element count of repetition/tabular `plain`, then run the
    /// next `body` steps once per element with the element index appended
    /// to the scope.
    Loop {
        /// Plain node index of the container.
        plain: u32,
        /// Steps forming one element's body.
        body: u32,
    },
    /// A [`CopyStep::Loop`] whose body is only [`CopyStep::Direct`] steps
    /// with pairwise-distinct source and destination slots, run a column
    /// at a time: each source slot's entries under the current scope are
    /// appended in order into the destination slot under the same keys,
    /// with no per-element key rebuild, cursor seek or step dispatch. A
    /// failed check rolls the columns back and reruns the body per
    /// element, so errors and the destination state are the loop's own.
    Column {
        /// Plain node index of the container.
        plain: u32,
        /// Steps forming one element's body (all `Direct`).
        body: u32,
    },
}

/// A compiled transcode program for one ordered (source plan, destination
/// plan) pair over a shared plain specification — the gateway relay's
/// per-message step ([`crate::message::Message::transcode_into`]) lowered
/// into flat slot-to-slot copies, the same way [`CodecPlan::compile`]
/// lowered serialize/parse.
///
/// Structural validation of the two specifications is folded into
/// [`CopyProgram::compile`]: a program only exists for matching specs, so
/// executing it performs no per-message checks at all. The step indices
/// reference the two plans it was compiled from; callers key cached
/// programs on the graphs' uids (refreshed on every mutation), which
/// makes a stale program unreachable.
#[derive(Debug, Clone)]
pub struct CopyProgram {
    pub(crate) steps: Vec<CopyStep>,
}

impl CopyProgram {
    /// Lowers the transcode walk for messages of `src` being copied into
    /// messages of `dst`. Returns `None` when the two graphs' plain
    /// specifications are not structurally identical — the compile-time
    /// form of the reference walk's per-pairing validation.
    pub fn compile(src: &ObfGraph, dst: &ObfGraph) -> Option<CopyProgram> {
        if !runtime::plains_match(src.plain(), dst.plain()) {
            return None;
        }
        let (sp, dp) = (src.plan(), dst.plan());
        let mut steps = Vec::new();
        lower_copy(src.plain(), src.plain().root(), sp, dp, &mut steps);
        Some(CopyProgram { steps })
    }

    /// Number of compiled copy steps.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// How many of the program's loops are column copies.
    pub fn column_copies(&self) -> KernelCoverage {
        let mut c = KernelCoverage::default();
        for s in &self.steps {
            match s {
                CopyStep::Loop { .. } => c.loops += 1,
                CopyStep::Column { .. } => {
                    c.loops += 1;
                    c.kernels += 1;
                }
                _ => {}
            }
        }
        c
    }
}

/// True when a loop body may run as a column copy: non-empty, only
/// `Direct` steps, and no two steps sharing a source or a destination
/// slot (each column then owns its destination slot outright).
pub(crate) fn is_column_body(body: &[CopyStep]) -> bool {
    let mut slots = Vec::with_capacity(body.len());
    for step in body {
        let CopyStep::Direct { src_obf, dst_obf, .. } = *step else {
            return false;
        };
        if slots.iter().any(|&(s, d)| s == src_obf || d == dst_obf) {
            return false;
        }
        slots.push((src_obf, dst_obf));
    }
    !body.is_empty()
}

/// Emits the copy steps of the plain subtree rooted at `x` (pre-order,
/// the traversal of the reference transcode walk in [`crate::reference`]).
fn lower_copy(
    plain: &crate::graph::FormatGraph,
    x: NodeId,
    sp: &CodecPlan,
    dp: &CodecPlan,
    out: &mut Vec<CopyStep>,
) {
    use crate::graph::NodeType;
    let node = plain.node(x);
    match node.node_type() {
        NodeType::Terminal(_) => {
            // Auto fields are rematerialized by the destination serializer;
            // copying them would only re-assert what it recomputes anyway.
            if node.auto().is_auto() {
                return;
            }
            let rec = sp.rec[x.index()];
            let holder = dp.holder[x.index()];
            let dist = (holder != NONE).then(|| dp.dist[holder as usize]).flatten();
            // Terminals without a value channel on either side carry
            // nothing to copy (the walk skips them the same way).
            if let (Some(rec), Some(dist)) = (rec, dist) {
                out.push(match (sp.rec_prog(rec), dp.dist_prog(dist)) {
                    (
                        &[RecStep::Load { obf: src_obf, ops: src_ops }],
                        &[DistStep::Store { obf: dst_obf, ops: dst_ops, check }],
                    ) => CopyStep::Direct { src_obf, src_ops, dst_obf, dst_ops, check },
                    (&[RecStep::Load { obf, ops }], _) => {
                        CopyStep::ValueDirect { src_obf: obf, src_ops: ops, dist }
                    }
                    _ => CopyStep::Value { plain: x.0, rec, dist },
                });
            }
        }
        NodeType::Sequence => {
            for &c in node.children() {
                lower_copy(plain, c, sp, dp, out);
            }
        }
        NodeType::Optional(_) => {
            let at = out.len();
            out.push(CopyStep::Optional { plain: x.0, skip: 0 });
            lower_copy(plain, node.children()[0], sp, dp, out);
            let skip = (out.len() - at - 1) as u32;
            out[at] = CopyStep::Optional { plain: x.0, skip };
        }
        NodeType::Repetition(_) | NodeType::Tabular => {
            let at = out.len();
            out.push(CopyStep::Loop { plain: x.0, body: 0 });
            lower_copy(plain, node.children()[0], sp, dp, out);
            let body = (out.len() - at - 1) as u32;
            out[at] = if is_column_body(&out[at + 1..]) {
                CopyStep::Column { plain: x.0, body }
            } else {
                CopyStep::Loop { plain: x.0, body }
            };
        }
    }
}

/// A compiled auto-field sanity check (run after parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AutoCheckKind {
    /// The recovered bytes must equal the pooled constant.
    Literal(u32),
    /// The recovered integer must equal the plain length of `target`.
    LengthOf {
        /// Plain target index.
        target: u32,
        /// Target container depth.
        depth: u8,
    },
    /// The recovered integer must equal the element count of `target`.
    CounterOf {
        /// Plain target index.
        target: u32,
        /// Target container depth.
        depth: u8,
    },
}

/// One auto field to verify after parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AutoCheck {
    /// Plain index of the auto field.
    pub(crate) plain: u32,
    /// First terminal slot of its holder subtree (instance discovery).
    pub(crate) first_term: u32,
    /// What to verify.
    pub(crate) kind: AutoCheckKind,
}

/// A compiled recovery program: range into [`CodecPlan::rec_steps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecProg(pub(crate) PoolRange);

/// The compiled execution plan of one codec.
///
/// Immutable once built; sessions interpret it with their own scratch
/// state. All cross-references are dense `u32` indices — the hot paths of
/// [`crate::serialize::SerializeSession`] and
/// [`crate::parse::ParseSession`] perform no hashing.
#[derive(Debug, Clone)]
pub struct CodecPlan {
    /// Dense node table, indexed by raw [`ObfId`].
    pub(crate) nodes: Vec<PlanNode>,
    /// Flattened child lists.
    pub(crate) children: Vec<u32>,
    /// Root slot.
    pub(crate) root: u32,
    /// plain index → holder slot ([`NONE`] when the plain node carries no
    /// value channel).
    pub(crate) holder: Vec<u32>,
    /// plain index → container depth.
    pub(crate) plain_depth: Vec<u8>,
    /// plain index → byte order of numeric terminals (Big otherwise).
    pub(crate) plain_endian: Vec<Endian>,
    /// plain index → compiled recovery program over the holder subtree.
    pub(crate) rec: Vec<Option<RecProg>>,
    /// Recovery step pool.
    pub(crate) rec_steps: Vec<RecStep>,
    /// slot → compiled distribution program (materializable subtree roots
    /// only: terminals / split sequences with auto, const or pad bases).
    pub(crate) dist: Vec<Option<DistProg>>,
    /// Distribution step pool.
    pub(crate) dist_steps: Vec<DistStep>,
    /// Constant-op pool (terminal stacks and split expressions).
    pub(crate) ops: Vec<ConstOp>,
    /// Delimiter / terminator byte-string pool.
    pub(crate) bytes: Vec<Vec<u8>>,
    /// Constant-value pool.
    pub(crate) consts: Vec<Value>,
    /// Predicate pool.
    pub(crate) preds: Vec<Predicate>,
    /// Length-derivation step pool.
    pub(crate) steps: Vec<LenStep>,
    /// Auto-field checks, in plain-graph order.
    pub(crate) autos: Vec<AutoCheck>,
    /// slot → element run of a counted container whose element is a run
    /// of fixed-width terminals ([`ElemRun`]; derived, not digested).
    pub(crate) runs: Vec<Option<ElemRun>>,
}

impl CodecPlan {
    /// Number of wire slots (== allocated obfuscation nodes).
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Number of plain nodes.
    pub fn plain_len(&self) -> usize {
        self.holder.len()
    }

    /// Number of compiled recovery steps (all programs together).
    pub fn recovery_steps(&self) -> usize {
        self.rec_steps.len()
    }

    /// Wire slot holding the value channel of the plain terminal `plain`,
    /// or `None` when the node carries no value channel in this plan
    /// (const-folded, container, or pad). The covert tunnel's capacity
    /// analysis ([`crate::tunnel::ChannelMap`]) uses this to verify that a
    /// candidate carrier's bytes actually survive the compiled round-trip
    /// before committing payload to them.
    pub fn holder_slot(&self, plain: NodeId) -> Option<u32> {
        let h = *self.holder.get(plain.index())?;
        (h != NONE).then_some(h)
    }

    /// Borrow a pooled op range.
    pub(crate) fn ops(&self, r: PoolRange) -> &[ConstOp] {
        &self.ops[r.0 as usize..(r.0 + r.1) as usize]
    }

    /// Borrow a pooled recovery program.
    pub(crate) fn rec_prog(&self, p: RecProg) -> &[RecStep] {
        &self.rec_steps[p.0 .0 as usize..(p.0 .0 + p.0 .1) as usize]
    }

    /// Borrow a pooled distribution program.
    pub(crate) fn dist_prog(&self, p: DistProg) -> &[DistStep] {
        &self.dist_steps[p.0 .0 as usize..(p.0 .0 + p.0 .1) as usize]
    }

    /// Borrow a node's children.
    pub(crate) fn kids(&self, n: &PlanNode) -> &[u32] {
        &self.children[n.children.0 as usize..(n.children.0 + n.children.1) as usize]
    }

    /// How many counted containers (`Tab`, and `Rep` with a `CountOf`
    /// stop) run element kernels.
    pub fn element_kernels(&self) -> KernelCoverage {
        let mut c = KernelCoverage::default();
        for (node, run) in self.nodes.iter().zip(&self.runs) {
            if is_counted(&node.op) {
                c.loops += 1;
                c.kernels += usize::from(run.is_some());
            }
        }
        c
    }

    /// How many element runs an echo copies frame to frame
    /// ([`crate::framing::WireHop`]): `loops` counts the element runs,
    /// `kernels` those it leaves in the frame.
    pub fn frame_copies(&self) -> KernelCoverage {
        let runs = self.runs.iter().flatten();
        KernelCoverage {
            loops: runs.clone().count(),
            kernels: runs.filter(|r| r.frame_copy).count(),
        }
    }

    /// How many mirrors whose child is a counted container (mirrored
    /// counted loops) fold into the container's element kernel: those
    /// whose child has an element run, which the sessions then walk
    /// backwards straight over the mirrored wire.
    pub fn mirror_folds(&self) -> KernelCoverage {
        let mut c = KernelCoverage::default();
        for node in self.nodes.iter().filter(|n| matches!(n.op, PlanOp::Mirror)) {
            let Some(&child) = self.kids(node).first() else { continue };
            if is_counted(&self.nodes[child as usize].op) {
                c.loops += 1;
                c.kernels += usize::from(self.runs[child as usize].is_some());
            }
        }
        c
    }

    /// Whether node `id` is a counted container that runs an element
    /// kernel.
    pub fn runs_kernel(&self, id: ObfId) -> bool {
        self.runs.get(id.index()).is_some_and(Option::is_some)
    }

    /// The element run of counted container `slot`: its element
    /// flattens to columns ([`ElemRun`]) of non-zero total width, and
    /// whether an echo copies it frame to frame follows from its columns'
    /// plain terminals in `plain`. `None` for every other slot.
    pub(crate) fn derive_run(&self, plain: &FormatGraph, slot: u32) -> Option<ElemRun> {
        let node = &self.nodes[slot as usize];
        if !is_counted(&node.op) {
            return None;
        }
        let mut cols = Vec::new();
        self.flatten(*self.kids(node).first()?, false, &mut cols)?;
        let width = cols.iter().try_fold(0u32, |w, c| w.checked_add(c.width))?;
        let frame_copy = self.frame_copy(plain, &cols);
        (width > 0).then_some(ElemRun { cols, width, frame_copy })
    }

    /// [`ElemRun::frame_copy`] of a run of `cols`: each source column's
    /// plain terminal has a fixed plain width, so a length check over a
    /// container holding it needs no stored value (`Message::plain_len`),
    /// and no node of the plan reads its value (an optional's subject, a
    /// tabular's counter, a length reference).
    fn frame_copy(&self, plain: &FormatGraph, cols: &[RunCol]) -> bool {
        let read = |x: u32| {
            self.nodes.iter().any(|n| match n.op {
                PlanOp::Opt { subject: r, .. }
                | PlanOp::Tab { counter: r, .. }
                | PlanOp::Term { boundary: TermB::PlainLen { r, .. }, .. }
                | PlanOp::Seq { boundary: SeqB::PlainLen { r, .. } } => r == x,
                _ => false,
            })
        };
        cols.iter().all(|c| {
            let BaseOp::Source { plain: x } = c.base else { return true };
            let Some(node) = plain.get(NodeId(x)) else { return false };
            let fixed = matches!(node.boundary(), Boundary::Fixed(_))
                || node.terminal_kind().and_then(TerminalKind::implied_width).is_some();
            fixed && !read(x)
        })
    }

    /// Appends the columns of subtree `n` in wire order, each mirrored
    /// once more when `rev`; `None` when the subtree is not a run.
    fn flatten(&self, n: u32, rev: bool, cols: &mut Vec<RunCol>) -> Option<()> {
        let node = &self.nodes[n as usize];
        match &node.op {
            PlanOp::Term {
                base: base @ (BaseOp::Source { .. } | BaseOp::Pad { .. }),
                boundary: TermB::Fixed(w),
            } => cols.push(RunCol { slot: n, width: *w, base: base.clone(), rev }),
            PlanOp::Seq { boundary: SeqB::Delegated } => {
                for &c in self.kids(node) {
                    self.flatten(c, rev, cols)?;
                }
            }
            PlanOp::Mirror => {
                let at = cols.len();
                self.flatten(*self.kids(node).first()?, !rev, cols)?;
                let mirrored = &mut cols[at..];
                if mirrored.iter().filter(|c| matches!(c.base, BaseOp::Pad { .. })).count() > 1 {
                    return None;
                }
                mirrored.reverse();
            }
            _ => return None,
        }
        Some(())
    }

    /// Lowers the final obfuscation graph into a flat plan. One pass over
    /// the graph; everything per-message afterwards is index arithmetic.
    pub fn compile(g: &ObfGraph) -> CodecPlan {
        Compiler::new(g).run()
    }

    /// Stable 64-bit digest of the compiled plan.
    ///
    /// Two peers that derived their codecs from the same specification and
    /// obfuscation key compile byte-for-byte identical plans, so comparing
    /// digests (see `crate::profile::Fingerprint`) verifies the shared
    /// secret **before any traffic flows** — without revealing the key or
    /// the plan itself. The digest is FNV-1a over an explicit, versioned
    /// byte encoding of every structural field (slots, pools, indices):
    /// it does not depend on `Debug` formatting, field names, or any
    /// other incidental text, so builds of different crate or toolchain
    /// versions agree as long as the plan semantics agree.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new(0xcbf2_9ce4_8422_2325);
        // /2: distribution programs now cover every holder root (the
        // transcode copy-program stage), so identical specs compile more
        // `dist`/`dist_steps` content than /1 plans did.
        h.update(b"protoobf-plan-digest/2");
        self.digest_into(&mut h);
        h.finish()
    }
}

/// Explicit structural hashing of the plan component types. Every
/// variant gets a fixed tag byte and every collection a length prefix,
/// so distinct structures cannot collide by concatenation ambiguity.
/// This is the **fingerprint interop contract**: changing an encoding
/// here changes every deployed profile's fingerprint — bump the version
/// tag in [`CodecPlan::digest`] when that is intended.
pub(crate) trait Digest {
    fn digest_into(&self, h: &mut StableHasher);
}

impl Digest for u8 {
    fn digest_into(&self, h: &mut StableHasher) {
        h.update(&[*self]);
    }
}

impl Digest for u32 {
    fn digest_into(&self, h: &mut StableHasher) {
        h.update(&self.to_be_bytes());
    }
}

impl Digest for u64 {
    fn digest_into(&self, h: &mut StableHasher) {
        h.update(&self.to_be_bytes());
    }
}

impl<T: Digest> Digest for [T] {
    fn digest_into(&self, h: &mut StableHasher) {
        (self.len() as u64).digest_into(h);
        for item in self {
            item.digest_into(h);
        }
    }
}

impl<T: Digest> Digest for Vec<T> {
    fn digest_into(&self, h: &mut StableHasher) {
        self.as_slice().digest_into(h);
    }
}

impl<T: Digest> Digest for Option<T> {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            None => h.update(&[0]),
            Some(x) => {
                h.update(&[1]);
                x.digest_into(h);
            }
        }
    }
}

impl Digest for (u32, u32) {
    fn digest_into(&self, h: &mut StableHasher) {
        self.0.digest_into(h);
        self.1.digest_into(h);
    }
}

impl Digest for Endian {
    fn digest_into(&self, h: &mut StableHasher) {
        h.update(&[match self {
            Endian::Big => 0,
            Endian::Little => 1,
        }]);
    }
}

impl Digest for ByteOp {
    fn digest_into(&self, h: &mut StableHasher) {
        h.update(&[match self {
            ByteOp::Add => 0,
            ByteOp::Sub => 1,
            ByteOp::Xor => 2,
        }]);
    }
}

impl Digest for LenStep {
    fn digest_into(&self, h: &mut StableHasher) {
        h.update(&[match self {
            LenStep::HalfLo => 0,
            LenStep::HalfHi => 1,
        }]);
    }
}

impl Digest for ConstOp {
    fn digest_into(&self, h: &mut StableHasher) {
        self.op.digest_into(h);
        self.k.digest_into(h);
    }
}

impl Digest for Value {
    fn digest_into(&self, h: &mut StableHasher) {
        (self.as_bytes().len() as u64).digest_into(h);
        h.update(self.as_bytes());
    }
}

impl Digest for Predicate {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            Predicate::Equals(v) => {
                h.update(&[0]);
                v.digest_into(h);
            }
            Predicate::NotEquals(v) => {
                h.update(&[1]);
                v.digest_into(h);
            }
            Predicate::OneOf(vs) => {
                h.update(&[2]);
                vs.digest_into(h);
            }
        }
    }
}

impl Digest for TermB {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            TermB::Fixed(n) => {
                h.update(&[0]);
                n.digest_into(h);
            }
            TermB::Delim(d) => {
                h.update(&[1]);
                d.digest_into(h);
            }
            TermB::PlainLen { r, r_depth, r_endian, steps } => {
                h.update(&[2]);
                r.digest_into(h);
                r_depth.digest_into(h);
                r_endian.digest_into(h);
                steps.digest_into(h);
            }
            TermB::End => h.update(&[3]),
        }
    }
}

impl Digest for SeqB {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            SeqB::Delegated => h.update(&[0]),
            SeqB::End => h.update(&[1]),
            SeqB::Fixed(n) => {
                h.update(&[2]);
                n.digest_into(h);
            }
            SeqB::PlainLen { r, r_depth, r_endian } => {
                h.update(&[3]);
                r.digest_into(h);
                r_depth.digest_into(h);
                r_endian.digest_into(h);
            }
        }
    }
}

impl Digest for BaseOp {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            BaseOp::Source { plain } => {
                h.update(&[0]);
                plain.digest_into(h);
            }
            BaseOp::Pad { k } => {
                h.update(&[1]);
                k.digest_into(h);
            }
            BaseOp::AutoLen { target, depth, width, endian } => {
                h.update(&[2]);
                target.digest_into(h);
                depth.digest_into(h);
                width.digest_into(h);
                endian.digest_into(h);
            }
            BaseOp::AutoCount { target, depth, width, endian } => {
                h.update(&[3]);
                target.digest_into(h);
                depth.digest_into(h);
                width.digest_into(h);
                endian.digest_into(h);
            }
            BaseOp::Const { pool } => {
                h.update(&[4]);
                pool.digest_into(h);
            }
            BaseOp::Inherit => h.update(&[5]),
        }
    }
}

impl Digest for RepStopC {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            RepStopC::Terminator(t) => {
                h.update(&[0]);
                t.digest_into(h);
            }
            RepStopC::Exhausted => h.update(&[1]),
            RepStopC::CountOf(s) => {
                h.update(&[2]);
                s.digest_into(h);
            }
        }
    }
}

impl Digest for PlanOp {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            PlanOp::Dead => h.update(&[0]),
            PlanOp::Term { base, boundary } => {
                h.update(&[1]);
                base.digest_into(h);
                boundary.digest_into(h);
            }
            PlanOp::Split { base, first_term } => {
                h.update(&[2]);
                base.digest_into(h);
                first_term.digest_into(h);
            }
            PlanOp::Seq { boundary } => {
                h.update(&[3]);
                boundary.digest_into(h);
            }
            PlanOp::Opt { subject, subject_depth, pred, origin, origin_depth } => {
                h.update(&[4]);
                subject.digest_into(h);
                subject_depth.digest_into(h);
                pred.digest_into(h);
                origin.digest_into(h);
                origin_depth.digest_into(h);
            }
            PlanOp::Rep { stop, origin, origin_depth } => {
                h.update(&[5]);
                stop.digest_into(h);
                origin.digest_into(h);
                origin_depth.digest_into(h);
            }
            PlanOp::Tab { counter, counter_depth, counter_endian, origin, origin_depth } => {
                h.update(&[6]);
                counter.digest_into(h);
                counter_depth.digest_into(h);
                counter_endian.digest_into(h);
                origin.digest_into(h);
                origin_depth.digest_into(h);
            }
            PlanOp::Mirror => h.update(&[7]),
            PlanOp::Prefixed { width, endian } => {
                h.update(&[8]);
                width.digest_into(h);
                endian.digest_into(h);
            }
        }
    }
}

impl Digest for PlanNode {
    fn digest_into(&self, h: &mut StableHasher) {
        self.op.digest_into(h);
        self.children.digest_into(h);
    }
}

impl Digest for RecStep {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            RecStep::Load { obf, ops } => {
                h.update(&[0]);
                obf.digest_into(h);
                ops.digest_into(h);
            }
            RecStep::Concat { ops } => {
                h.update(&[1]);
                ops.digest_into(h);
            }
            RecStep::Op { op, ops } => {
                h.update(&[2]);
                op.digest_into(h);
                ops.digest_into(h);
            }
        }
    }
}

impl Digest for DistCheck {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            DistCheck::None => h.update(&[0]),
            DistCheck::Fixed(n) => {
                h.update(&[1]);
                n.digest_into(h);
            }
            DistCheck::Delim(d) => {
                h.update(&[2]);
                d.digest_into(h);
            }
        }
    }
}

impl Digest for SplitRuleC {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            SplitRuleC::At(n) => {
                h.update(&[0]);
                n.digest_into(h);
            }
            SplitRuleC::Half => h.update(&[1]),
            SplitRuleC::Op(op) => {
                h.update(&[2]);
                op.digest_into(h);
            }
        }
    }
}

impl Digest for DistStep {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            DistStep::Store { obf, ops, check } => {
                h.update(&[0]);
                obf.digest_into(h);
                ops.digest_into(h);
                check.digest_into(h);
            }
            DistStep::Split { ops, rule } => {
                h.update(&[1]);
                ops.digest_into(h);
                rule.digest_into(h);
            }
        }
    }
}

impl Digest for RecProg {
    fn digest_into(&self, h: &mut StableHasher) {
        self.0.digest_into(h);
    }
}

impl Digest for DistProg {
    fn digest_into(&self, h: &mut StableHasher) {
        self.0.digest_into(h);
    }
}

impl Digest for AutoCheckKind {
    fn digest_into(&self, h: &mut StableHasher) {
        match self {
            AutoCheckKind::Literal(v) => {
                h.update(&[0]);
                v.digest_into(h);
            }
            AutoCheckKind::LengthOf { target, depth } => {
                h.update(&[1]);
                target.digest_into(h);
                depth.digest_into(h);
            }
            AutoCheckKind::CounterOf { target, depth } => {
                h.update(&[2]);
                target.digest_into(h);
                depth.digest_into(h);
            }
        }
    }
}

impl Digest for AutoCheck {
    fn digest_into(&self, h: &mut StableHasher) {
        self.plain.digest_into(h);
        self.first_term.digest_into(h);
        self.kind.digest_into(h);
    }
}

impl Digest for CodecPlan {
    fn digest_into(&self, h: &mut StableHasher) {
        self.nodes.digest_into(h);
        self.children.digest_into(h);
        self.root.digest_into(h);
        self.holder.digest_into(h);
        self.plain_depth.digest_into(h);
        self.plain_endian.digest_into(h);
        self.rec.digest_into(h);
        self.rec_steps.digest_into(h);
        self.dist.digest_into(h);
        self.dist_steps.digest_into(h);
        self.ops.digest_into(h);
        self.bytes.digest_into(h);
        self.consts.digest_into(h);
        self.preds.digest_into(h);
        self.steps.digest_into(h);
        self.autos.digest_into(h);
    }
}

/// FNV-1a accumulator with a caller-chosen initial state; deterministic
/// across processes and platforms (unlike [`std::collections::hash_map::
/// RandomState`], which is seeded per process).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StableHasher(u64);

impl StableHasher {
    pub(crate) fn new(init: u64) -> Self {
        StableHasher(init)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

struct Compiler<'g> {
    g: &'g ObfGraph,
    plan: CodecPlan,
    live: Vec<bool>,
}

impl<'g> Compiler<'g> {
    fn new(g: &'g ObfGraph) -> Self {
        let n_obf = g.allocated();
        let plain = g.plain();
        let n_plain = plain.len();
        let mut live = vec![false; n_obf];
        for id in g.preorder() {
            live[id.index()] = true;
        }
        Compiler {
            g,
            live,
            plan: CodecPlan {
                nodes: Vec::with_capacity(n_obf),
                children: Vec::new(),
                root: g.root().0,
                holder: vec![NONE; n_plain],
                plain_depth: vec![0; n_plain],
                plain_endian: vec![Endian::Big; n_plain],
                rec: vec![None; n_plain],
                rec_steps: Vec::new(),
                dist: vec![None; n_obf],
                dist_steps: Vec::new(),
                ops: Vec::new(),
                bytes: Vec::new(),
                consts: Vec::new(),
                preds: Vec::new(),
                steps: Vec::new(),
                autos: Vec::new(),
                runs: Vec::new(),
            },
        }
    }

    fn run(mut self) -> CodecPlan {
        let plain = self.g.plain();
        for x in plain.ids() {
            let i = x.index();
            self.plan.plain_depth[i] = runtime::container_depth(plain, x) as u8;
            if let Some(TerminalKind::UInt { endian, .. }) = plain.node(x).terminal_kind() {
                self.plan.plain_endian[i] = *endian;
            }
            if let Some(h) = self.g.holder_of(x) {
                self.plan.holder[i] = h.0;
            }
        }
        for idx in 0..self.g.allocated() {
            let node = self.compile_node(ObfId(idx as u32));
            self.plan.nodes.push(node);
        }
        for x in plain.ids() {
            if self.plan.holder[x.index()] != NONE {
                let prog = self.compile_rec(ObfId(self.plan.holder[x.index()]));
                self.plan.rec[x.index()] = prog;
            }
        }
        for idx in 0..self.g.allocated() {
            let id = ObfId(idx as u32);
            if self.live[idx] && self.materializable(id) {
                self.plan.dist[idx] = self.compile_dist(id);
            }
        }
        // Distribution programs for every remaining holder root: the
        // setters ([`crate::message::Message::set_at`]) and the transcode
        // copy programs ([`CopyProgram`]) distribute *application-set*
        // values too, not just the auto/const/pad bases the serializer
        // materializes itself.
        for x in plain.ids() {
            let h = self.plan.holder[x.index()];
            if h != NONE && self.live[h as usize] && self.plan.dist[h as usize].is_none() {
                self.plan.dist[h as usize] = self.compile_dist(ObfId(h));
            }
        }
        self.compile_autos();
        self.plan.runs =
            (0..self.plan.nodes.len() as u32).map(|i| self.plan.derive_run(plain, i)).collect();
        self.plan
    }

    /// True when the serializer may have to materialize the subtree rooted
    /// at `id` itself (auto-computed, constant or pad base).
    fn materializable(&self, id: ObfId) -> bool {
        let base = match self.g.node(id).kind() {
            ObfKind::Terminal { base, .. } => base,
            ObfKind::SplitSeq { expr, .. } => &expr.base,
            _ => return false,
        };
        matches!(base, Base::AutoLen(_) | Base::AutoCount(_) | Base::Const(_) | Base::Pad(_))
    }

    fn pool_ops(&mut self, ops: &[ConstOp]) -> PoolRange {
        let start = self.plan.ops.len() as u32;
        self.plan.ops.extend_from_slice(ops);
        (start, ops.len() as u32)
    }

    fn pool_bytes(&mut self, b: &[u8]) -> u32 {
        if let Some(i) = self.plan.bytes.iter().position(|x| x == b) {
            return i as u32;
        }
        self.plan.bytes.push(b.to_vec());
        (self.plan.bytes.len() - 1) as u32
    }

    fn pool_const(&mut self, v: &Value) -> u32 {
        self.plan.consts.push(v.clone());
        (self.plan.consts.len() - 1) as u32
    }

    fn pool_steps(&mut self, s: &[LenStep]) -> PoolRange {
        let start = self.plan.steps.len() as u32;
        self.plan.steps.extend_from_slice(s);
        (start, s.len() as u32)
    }

    fn depth_of(&self, x: NodeId) -> u8 {
        self.plan.plain_depth[x.index()]
    }

    fn endian_of(&self, x: NodeId) -> Endian {
        self.plan.plain_endian[x.index()]
    }

    /// Compiled width/endian an auto value is encoded with: the terminal's
    /// own kind, or (for split sequences) the replaced terminal's plain
    /// kind.
    fn auto_encoding(&self, id: ObfId) -> (u8, Endian) {
        if let ObfKind::Terminal { kind: TerminalKind::UInt { width, endian }, .. } =
            &self.g.node(id).kind()
        {
            return (*width as u8, *endian);
        }
        if let Some(origin) = self.g.node(id).origin() {
            if let Some(TerminalKind::UInt { width, endian }) =
                self.g.plain().node(origin).terminal_kind()
            {
                return (*width as u8, *endian);
            }
        }
        (8, Endian::Big)
    }

    fn compile_base(&mut self, id: ObfId, base: &Base) -> BaseOp {
        match base {
            Base::Source(x) => BaseOp::Source { plain: x.0 },
            Base::Pad(k) => BaseOp::Pad { k: *k as u32 },
            Base::AutoLen(t) => {
                let (width, endian) = self.auto_encoding(id);
                BaseOp::AutoLen { target: t.0, depth: self.depth_of(*t), width, endian }
            }
            Base::AutoCount(t) => {
                let (width, endian) = self.auto_encoding(id);
                BaseOp::AutoCount { target: t.0, depth: self.depth_of(*t), width, endian }
            }
            Base::Const(v) => BaseOp::Const { pool: self.pool_const(v) },
            Base::Inherit => BaseOp::Inherit,
        }
    }

    /// Plain `Length` reference of plain node `p`, resolved.
    fn plain_ref(&self, p: NodeId) -> (u32, u8, Endian) {
        let r = self
            .g
            .plain()
            .node(p)
            .boundary()
            .reference()
            .expect("validated PlainLen nodes carry Length/Counter boundaries");
        (r.0, self.depth_of(r), self.endian_of(r))
    }

    fn first_term(&self, id: ObfId) -> u32 {
        self.g.first_terminal(id).map_or(NONE, |t| t.0)
    }

    fn compile_node(&mut self, id: ObfId) -> PlanNode {
        if !self.live[id.index()] {
            return PlanNode { op: PlanOp::Dead, children: (0, 0) };
        }
        let node = self.g.node(id);
        let op = match node.kind() {
            ObfKind::Terminal { base, boundary, .. } => {
                let base = self.compile_base(id, base);
                let boundary = match boundary {
                    TermBoundary::Fixed(n) => TermB::Fixed(*n as u32),
                    TermBoundary::Delimited(d) => TermB::Delim(self.pool_bytes(d)),
                    TermBoundary::PlainLen { source, steps } => {
                        let (r, r_depth, r_endian) = self.plain_ref(*source);
                        TermB::PlainLen { r, r_depth, r_endian, steps: self.pool_steps(steps) }
                    }
                    TermBoundary::End => TermB::End,
                };
                PlanOp::Term { base, boundary }
            }
            ObfKind::SplitSeq { expr, .. } => PlanOp::Split {
                base: self.compile_base(id, &expr.base),
                first_term: self.first_term(id),
            },
            ObfKind::Sequence { boundary } => {
                let boundary = match boundary {
                    SeqBoundary::Delegated => SeqB::Delegated,
                    SeqBoundary::End => SeqB::End,
                    SeqBoundary::Fixed(n) => SeqB::Fixed(*n as u32),
                    SeqBoundary::PlainLen(p) => {
                        let (r, r_depth, r_endian) = self.plain_ref(*p);
                        SeqB::PlainLen { r, r_depth, r_endian }
                    }
                };
                PlanOp::Seq { boundary }
            }
            ObfKind::Optional { condition } => {
                let origin = node.origin().expect("optionals always have plain origins");
                self.plan.preds.push(condition.predicate.clone());
                PlanOp::Opt {
                    subject: condition.subject.0,
                    subject_depth: self.depth_of(condition.subject),
                    pred: (self.plan.preds.len() - 1) as u32,
                    origin: origin.0,
                    origin_depth: self.depth_of(origin),
                }
            }
            ObfKind::Repetition { stop } => {
                let stop = match stop {
                    RepStop::Terminator(t) => RepStopC::Terminator(self.pool_bytes(t)),
                    RepStop::Exhausted => RepStopC::Exhausted,
                    RepStop::CountOf(first) => RepStopC::CountOf(first.0),
                };
                let (origin, origin_depth) = match node.origin() {
                    Some(o) => (o.0, self.depth_of(o)),
                    None => (NONE, 0),
                };
                PlanOp::Rep { stop, origin, origin_depth }
            }
            ObfKind::Tabular { counter } => {
                let (origin, origin_depth) = match node.origin() {
                    Some(o) => (o.0, self.depth_of(o)),
                    None => (NONE, 0),
                };
                PlanOp::Tab {
                    counter: counter.0,
                    counter_depth: self.depth_of(*counter),
                    counter_endian: self.endian_of(*counter),
                    origin,
                    origin_depth,
                }
            }
            ObfKind::Mirror => PlanOp::Mirror,
            ObfKind::Prefixed { width, endian } => {
                PlanOp::Prefixed { width: *width as u8, endian: *endian }
            }
        };
        let start = self.plan.children.len() as u32;
        self.plan.children.extend(node.children().iter().map(|c| c.0));
        PlanNode { op, children: (start, node.children().len() as u32) }
    }

    /// Lowers the holder subtree of one plain terminal into a post-order
    /// recovery program (the compiled form of the reference recovery walk).
    fn compile_rec(&mut self, holder: ObfId) -> Option<RecProg> {
        let mut steps = Vec::new();
        self.rec_of(holder, &mut steps)?;
        let start = self.plan.rec_steps.len() as u32;
        let len = steps.len() as u32;
        self.plan.rec_steps.extend(steps);
        Some(RecProg((start, len)))
    }

    fn rec_of(&mut self, id: ObfId, out: &mut Vec<RecStep>) -> Option<()> {
        let node = self.g.node(id);
        match node.kind() {
            ObfKind::Terminal { ops, .. } => {
                let ops = self.pool_ops(&ops.clone());
                out.push(RecStep::Load { obf: id.0, ops });
                Some(())
            }
            ObfKind::SplitSeq { expr, recombine } => {
                let (c0, c1) = (node.children()[0], node.children()[1]);
                let expr_ops = expr.ops.clone();
                self.rec_of(c0, out)?;
                self.rec_of(c1, out)?;
                let ops = self.pool_ops(&expr_ops);
                out.push(match recombine {
                    Recombine::Concat(_) => RecStep::Concat { ops },
                    Recombine::Op(op) => RecStep::Op { op: *op, ops },
                });
                Some(())
            }
            ObfKind::Mirror | ObfKind::Prefixed { .. } => self.rec_of(node.children()[0], out),
            _ => None,
        }
    }

    /// Lowers the holder subtree of one materializable node into a
    /// pre-order distribution program (the compiled, forward mirror of
    /// the recovery program).
    fn compile_dist(&mut self, root: ObfId) -> Option<DistProg> {
        let mut steps = Vec::new();
        self.dist_of(root, &mut steps)?;
        let start = self.plan.dist_steps.len() as u32;
        let len = steps.len() as u32;
        self.plan.dist_steps.extend(steps);
        Some(DistProg((start, len)))
    }

    fn dist_of(&mut self, id: ObfId, out: &mut Vec<DistStep>) -> Option<()> {
        let node = self.g.node(id);
        match node.kind() {
            ObfKind::Terminal { ops, boundary, .. } => {
                let check = match boundary {
                    TermBoundary::Fixed(k) => DistCheck::Fixed(*k as u32),
                    TermBoundary::Delimited(d) => DistCheck::Delim(self.pool_bytes(&d.clone())),
                    TermBoundary::PlainLen { .. } | TermBoundary::End => DistCheck::None,
                };
                let ops = self.pool_ops(&ops.clone());
                out.push(DistStep::Store { obf: id.0, ops, check });
                Some(())
            }
            ObfKind::SplitSeq { expr, recombine } => {
                let (c0, c1) = (node.children()[0], node.children()[1]);
                let rule = match recombine {
                    Recombine::Concat(SplitAt::Byte(n)) => SplitRuleC::At(*n as u32),
                    Recombine::Concat(SplitAt::Half) => SplitRuleC::Half,
                    Recombine::Op(op) => SplitRuleC::Op(*op),
                };
                let ops = self.pool_ops(&expr.ops.clone());
                out.push(DistStep::Split { ops, rule });
                self.dist_of(c0, out)?;
                self.dist_of(c1, out)
            }
            ObfKind::Mirror | ObfKind::Prefixed { .. } => self.dist_of(node.children()[0], out),
            _ => None,
        }
    }

    fn compile_autos(&mut self) {
        let plain = self.g.plain();
        for x in plain.ids() {
            let node = plain.node(x);
            let kind = match node.auto() {
                crate::graph::AutoValue::None => continue,
                crate::graph::AutoValue::Literal(v) => AutoCheckKind::Literal(self.pool_const(v)),
                crate::graph::AutoValue::LengthOf(t) => {
                    AutoCheckKind::LengthOf { target: t.0, depth: self.depth_of(*t) }
                }
                crate::graph::AutoValue::CounterOf(t) => {
                    AutoCheckKind::CounterOf { target: t.0, depth: self.depth_of(*t) }
                }
            };
            let holder = match self.g.holder_of(x) {
                Some(h) => h,
                None => continue,
            };
            let first_term = self.first_term(holder);
            if first_term == NONE {
                continue;
            }
            self.plan.autos.push(AutoCheck { plain: x.0, first_term, kind });
        }
    }
}

// ---------------------------------------------------------------------------
// recovery evaluation
// ---------------------------------------------------------------------------

/// Applies one byte of an invertible operation.
#[inline]
pub(crate) fn apply1(op: ByteOp, a: u8, k: u8) -> u8 {
    match op {
        ByteOp::Add => a.wrapping_add(k),
        ByteOp::Sub => a.wrapping_sub(k),
        ByteOp::Xor => a ^ k,
    }
}

/// `bytes[i] = bytes[i] ⟨op⟩ k[i mod k.len()]` in place, the key cycled
/// by an iterator rather than indexed through a division per byte. An
/// empty key leaves `bytes` unchanged.
#[inline]
fn apply_cycled(op: ByteOp, bytes: &mut [u8], k: &[u8]) {
    for (b, &k) in bytes.iter_mut().zip(k.iter().cycle()) {
        *b = apply1(op, *b, k);
    }
}

/// One constant op over one value, the key cycled from its first byte:
/// [`apply_cycled`]'s per-byte loop for a value shorter than [`SHORT`],
/// the tiled loop of [`apply_column`] (the key's length its period) for a
/// longer one.
fn apply_value(op: ByteOp, bytes: &mut [u8], k: &[u8]) {
    if bytes.len() < SHORT {
        apply_cycled(op, bytes, k);
    } else {
        apply_column(op, bytes, k, k.len());
    }
}

/// Undoes a constant-op stack in place (reverse order, inverse operators).
pub(crate) fn undo_ops_in_place(ops: &[ConstOp], bytes: &mut [u8]) {
    for op in ops.iter().rev() {
        apply_value(op.op.inverse(), bytes, &op.k);
    }
}

/// The vector width the tiled loops are shaped for (a power of two): a
/// tile is a whole number of these, so the compiler's unrolled loop over
/// it leaves no scalar tail.
const VEC: usize = 64;

/// The length from which a single value's op runs the tiled loop: building
/// the tile costs 30–50 ns, after which the loop takes a tenth to a
/// twentieth of the per-byte loop's time per byte. Timed with 1–4-byte
/// keys in two builds, the per-byte loop took 35–72 ns on 64 bytes against
/// 46–58 ns tiled, 70–156 ns on 128 bytes against 47–70 ns, and 2.2–4.9 µs
/// on 4 KiB against 0.14–0.29 µs.
const SHORT: usize = 2 * VEC;

/// The stack tile's largest size: `lcm(p, VEC)` fits it for every key
/// period `p` whose odd part is 1 or 3 — every 1–4-byte key cycled
/// whole, and the value widths 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48 and
/// 64.
const MAX_TILE: usize = 4 * VEC;

/// [`undo_ops_in_place`] over a column of `w`-byte values laid end to end
/// (`column.len()` a multiple of `w`): each value restarts the key cycle,
/// so every key runs tiled to period `w`.
pub(crate) fn undo_ops_column(ops: &[ConstOp], column: &mut [u8], w: usize) {
    stack_column(ops.iter().rev().map(|op| (op.op.inverse(), &op.k[..])), column, w);
}

/// [`apply_ops_in_place`] over a column of `w`-byte values laid end to
/// end, like [`undo_ops_column`].
pub(crate) fn apply_ops_column(ops: &[ConstOp], column: &mut [u8], w: usize) {
    stack_column(ops.iter().map(|op| (op.op, &op.k[..])), column, w);
}

/// The most ops of one stack [`stack_column`] runs in one pass.
const FUSED: usize = 4;

/// The span a fused stack runs all its ops over before it moves on: small
/// enough to stay in the first-level cache between ops.
const CHUNK: usize = 4096;

/// Runs a stack of constant ops over a column of `w`-byte values (see
/// [`apply_column`]): in one pass ([`fused_pass`]) when the column is
/// longer than a [`CHUNK`] and the stack has several ops, else one pass
/// per op.
fn stack_column<'k>(
    ops: impl ExactSizeIterator<Item = (ByteOp, &'k [u8])> + Clone,
    column: &mut [u8],
    w: usize,
) {
    if column.len() <= CHUNK || ops.len() < 2 || !fused_pass(ops.clone(), column, w) {
        for (op, k) in ops {
            apply_column(op, column, k, w);
        }
    }
}

/// Runs the whole stack over one cache-resident chunk of the column after
/// another, every op's tile built first and each chunk a whole number of
/// every tile. Returns `false`, the column untouched, for a stack of more
/// than [`FUSED`] ops (or of fewer than two with a key), or with a tile
/// that does not fit.
fn fused_pass<'k>(
    ops: impl Iterator<Item = (ByteOp, &'k [u8])>,
    column: &mut [u8],
    w: usize,
) -> bool {
    let mut tiles = [[0u8; MAX_TILE]; FUSED];
    let mut stack = [(ByteOp::Xor, 0usize); FUSED];
    let (mut n, mut period) = (0, 1);
    for (op, k) in ops.filter(|(_, k)| !k.is_empty()) {
        let Some(len) = tiles.get_mut(n).and_then(|tile| column_tile(tile, k, w)) else {
            return false;
        };
        stack[n] = (op, len);
        n += 1;
        period = period / gcd(period, len) * len;
        if period > CHUNK {
            return false;
        }
    }
    if n < 2 {
        return false;
    }
    for part in column.chunks_mut(CHUNK / period * period) {
        for (tile, &(op, len)) in tiles.iter().zip(&stack[..n]) {
            zip_op(op, part, &tile[..len]);
        }
    }
    true
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One constant op over a column of `w`-byte values, each restarting the
/// key's cycle (a last partial value takes the op as far as it goes):
/// the op's tile ([`column_tile`]) zipped along the column, or
/// [`apply_cycled`] per value when the key's period is wider than
/// [`MAX_TILE`].
fn apply_column(op: ByteOp, column: &mut [u8], k: &[u8], w: usize) {
    if k.is_empty() || w == 0 {
        return;
    }
    let mut tile = [0u8; MAX_TILE];
    match column_tile(&mut tile, k, w) {
        Some(len) => zip_op(op, column, &tile[..len]),
        None => {
            for v in column.chunks_mut(w) {
                apply_cycled(op, v, k);
            }
        }
    }
}

/// Fills `tile` with the pattern a non-empty key `k` makes over a column
/// of `w`-byte values and returns its length, or `None` when the
/// pattern's period is wider than [`MAX_TILE`]. The key's pattern repeats
/// every `p` bytes — the key's length when each value is a whole number
/// of key cycles, else `w` — so one period is repeated into a tile as
/// many whole `lcm(p, VEC)` bytes long as fit [`MAX_TILE`], which then
/// zips along the column in one monomorphic (vectorizable) loop per
/// operator, with no scalar tail. When `lcm(p, VEC)` itself is larger,
/// the tile is as many whole periods as fit (the loop then has a scalar
/// tail).
fn column_tile(tile: &mut [u8; MAX_TILE], k: &[u8], w: usize) -> Option<usize> {
    let period = if w.is_multiple_of(k.len()) { k.len() } else { w };
    if period > MAX_TILE {
        return None;
    }
    // `VEC` is a power of two: `lcm(p, VEC)` is `p` times the factors of
    // two `VEC` has and `p` lacks.
    let lcm = period << VEC.trailing_zeros().saturating_sub(period.trailing_zeros());
    let whole = if lcm <= MAX_TILE { lcm } else { period };
    let len = MAX_TILE / whole * whole;
    let tile = &mut tile[..len];
    for (t, &b) in tile[..period].iter_mut().zip(k.iter().cycle()) {
        *t = b;
    }
    let mut filled = period;
    while filled < len {
        let n = filled.min(len - filled);
        tile.copy_within(..n, filled);
        filled += n;
    }
    Some(len)
}

/// `column ⟨op⟩= tile`, the tile repeated from the column's start.
fn zip_op(op: ByteOp, column: &mut [u8], tile: &[u8]) {
    match op {
        ByteOp::Add => zip_tile(column, tile, u8::wrapping_add),
        ByteOp::Sub => zip_tile(column, tile, u8::wrapping_sub),
        ByteOp::Xor => zip_tile(column, tile, |a, b| a ^ b),
    }
}

#[inline(always)]
fn zip_tile(column: &mut [u8], tile: &[u8], f: impl Fn(u8, u8) -> u8) {
    for chunk in column.chunks_mut(tile.len()) {
        for (b, &k) in chunk.iter_mut().zip(tile) {
            *b = f(*b, k);
        }
    }
}

/// Wire-loader callback of [`RecEval::eval`]: appends the wire bytes of a
/// slot (at the given scope) to the scratch buffer and returns `true`, or
/// returns `false` when the wire is missing.
pub(crate) type WireLoader<'a> = dyn FnMut(u32, &[u32], &mut Vec<u8>) -> bool + 'a;

/// Reusable scratch state for recovery-program evaluation. Buffers grow to
/// a steady-state size and are then reused allocation-free.
#[derive(Debug, Default, Clone)]
pub(crate) struct RecEval {
    /// Value stack: contiguous `(start, len)` ranges into `buf`.
    stack: Vec<(usize, usize)>,
    /// The byte scratch all stack values live in.
    pub(crate) buf: Vec<u8>,
}

impl RecEval {
    /// Runs `prog` against wire values supplied by `load`.
    ///
    /// Returns the byte range of the recovered value inside
    /// [`RecEval::buf`], or `None` when a required wire was missing.
    pub(crate) fn eval(
        &mut self,
        plan: &CodecPlan,
        prog: RecProg,
        scope: &[u32],
        load: &mut WireLoader<'_>,
    ) -> Option<(usize, usize)> {
        self.stack.clear();
        self.buf.clear();
        for step in plan.rec_prog(prog) {
            match *step {
                RecStep::Load { obf, ops } => {
                    let start = self.buf.len();
                    if !load(obf, scope, &mut self.buf) {
                        return None;
                    }
                    let len = self.buf.len() - start;
                    undo_ops_in_place(plan.ops(ops), &mut self.buf[start..]);
                    self.stack.push((start, len));
                }
                RecStep::Concat { ops } => {
                    let (_, bl) = self.stack.pop()?;
                    let (a, al) = self.stack.pop()?;
                    // Stack values are contiguous: concat is a range merge.
                    let merged = (a, al + bl);
                    undo_ops_in_place(plan.ops(ops), &mut self.buf[merged.0..merged.0 + merged.1]);
                    self.stack.push(merged);
                }
                RecStep::Op { op, ops } => {
                    let (b, bl) = self.stack.pop()?;
                    let (a, al) = self.stack.pop()?;
                    // combined ⟨inv⟩ share, share cycled (an empty share
                    // leaves it unchanged, like the inert zero operand of
                    // the reference walk's `pad_one`).
                    let (left, right) = self.buf.split_at_mut(b);
                    apply_cycled(op.inverse(), &mut right[..bl], &left[a..a + al]);
                    // Compact: move the result down over the share so the
                    // stack stays contiguous.
                    self.buf.copy_within(b..b + bl, a);
                    self.buf.truncate(a + bl);
                    undo_ops_in_place(plan.ops(ops), &mut self.buf[a..a + bl]);
                    self.stack.push((a, bl));
                }
            }
        }
        self.stack.pop()
    }
}

/// Applies a constant-op stack in place (forward direction, constants
/// cycled — the compiled form of the reference walk's `apply_ops`).
pub(crate) fn apply_ops_in_place(ops: &[ConstOp], bytes: &mut [u8]) {
    for op in ops {
        apply_value(op.op, bytes, &op.k);
    }
}

// ---------------------------------------------------------------------------
// distribution evaluation
// ---------------------------------------------------------------------------

/// Reusable scratch state for distribution-program evaluation: the forward
/// counterpart of [`RecEval`]. Buffers grow to a steady-state size and are
/// then reused allocation-free. Every production writer runs it: the
/// setters ([`crate::message::Message::set_at`]), serializer
/// materialization and the transcode copy programs.
#[derive(Debug, Default, Clone)]
pub(crate) struct DistEval {
    /// Work stack: contiguous `(start, len)` ranges into `buf`.
    stack: Vec<(usize, usize)>,
    /// The byte scratch all ranges live in.
    buf: Vec<u8>,
}

impl DistEval {
    /// Clears the scratch and returns the input buffer; the caller writes
    /// the raw base value into it before calling [`DistEval::eval`].
    pub(crate) fn input(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        self.stack.clear();
        &mut self.buf
    }

    /// Runs `prog` over the previously written input, emitting each
    /// terminal's wire bytes through `emit`. Random shares are drawn from
    /// `rng` byte-by-byte, in exactly the order of the reference
    /// distribution walk, so both produce identical wires for identical
    /// seeds.
    pub(crate) fn eval<R: Rng + ?Sized>(
        &mut self,
        plan: &CodecPlan,
        prog: DistProg,
        rng: &mut R,
        emit: &mut dyn FnMut(u32, &[u8]),
    ) -> Result<(), DistErr> {
        self.stack.clear();
        self.stack.push((0, self.buf.len()));
        for step in plan.dist_prog(prog) {
            match *step {
                DistStep::Store { obf, ops, check } => {
                    let (s, l) = self.stack.pop().expect("distribution programs are balanced");
                    check.validate(plan, obf, &self.buf[s..s + l])?;
                    apply_ops_in_place(plan.ops(ops), &mut self.buf[s..s + l]);
                    emit(obf, &self.buf[s..s + l]);
                }
                DistStep::Split { ops, rule } => {
                    let (s, l) = self.stack.pop().expect("distribution programs are balanced");
                    apply_ops_in_place(plan.ops(ops), &mut self.buf[s..s + l]);
                    match rule {
                        SplitRuleC::At(n) => {
                            let p = (n as usize).min(l);
                            self.stack.push((s + p, l - p));
                            self.stack.push((s, p));
                        }
                        SplitRuleC::Half => {
                            let p = l / 2;
                            self.stack.push((s + p, l - p));
                            self.stack.push((s, p));
                        }
                        SplitRuleC::Op(op) => {
                            // Left half: fresh random share appended to the
                            // scratch; right half: `value ⟨op⟩ share`
                            // computed in place.
                            let e = self.buf.len();
                            for _ in 0..l {
                                self.buf.push(rng.gen::<u8>());
                            }
                            let (head, share) = self.buf.split_at_mut(e);
                            for i in 0..l {
                                head[s + i] = apply1(op, head[s + i], share[i]);
                            }
                            self.stack.push((s, l));
                            self.stack.push((e, l));
                        }
                    }
                }
            }
        }
        debug_assert!(self.stack.is_empty(), "distribution program left values unconsumed");
        Ok(())
    }
}

/// Decodes a recovered big/little-endian unsigned integer from raw bytes.
/// Returns `None` for values wider than 8 bytes.
pub(crate) fn bytes_to_uint(bytes: &[u8], endian: Endian) -> Option<u64> {
    if bytes.len() > 8 {
        return None;
    }
    let mut acc = 0u64;
    match endian {
        Endian::Big => {
            for &b in bytes {
                acc = (acc << 8) | u64::from(b);
            }
        }
        Endian::Little => {
            for &b in bytes.iter().rev() {
                acc = (acc << 8) | u64::from(b);
            }
        }
    }
    Some(acc)
}

/// Evaluates a predicate directly over recovered bytes (no `Value`
/// construction on the parse hot path).
pub(crate) fn pred_eval(pred: &Predicate, bytes: &[u8]) -> bool {
    match pred {
        Predicate::Equals(v) => v.as_bytes() == bytes,
        Predicate::NotEquals(v) => v.as_bytes() != bytes,
        Predicate::OneOf(vs) => vs.iter().any(|v| v.as_bytes() == bytes),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, Condition, GraphBuilder, Predicate};
    use crate::transform::{apply, TransformKind};
    use crate::value::TerminalKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> ObfGraph {
        let mut b = GraphBuilder::new("s");
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
        b.uint_be(opt, "ev", 2);
        ObfGraph::from_plain(&b.build().unwrap())
    }

    #[test]
    fn compile_covers_every_slot() {
        let g = sample();
        let plan = CodecPlan::compile(&g);
        assert_eq!(plan.slots(), g.allocated());
        assert_eq!(plan.root as usize, g.root().index());
        // Every live node has a non-dead op.
        for id in g.preorder() {
            assert!(
                !matches!(plan.nodes[id.index()].op, PlanOp::Dead),
                "live node {} compiled dead",
                g.node(id).name()
            );
        }
    }

    #[test]
    fn holders_and_recovery_programs_compiled() {
        let g = sample();
        let plan = CodecPlan::compile(&g);
        let data = g.plain().resolve_names(&["data"]).unwrap();
        assert_ne!(plan.holder[data.index()], NONE);
        assert!(plan.rec[data.index()].is_some());
        // Identity graph: one Load step per terminal program.
        let prog = plan.rec[data.index()].unwrap();
        assert_eq!(plan.rec_prog(prog).len(), 1);
    }

    #[test]
    fn autos_collected() {
        let g = sample();
        let plan = CodecPlan::compile(&g);
        assert_eq!(plan.autos.len(), 1);
        assert!(matches!(plan.autos[0].kind, AutoCheckKind::LengthOf { .. }));
    }

    #[test]
    fn rec_eval_inverts_split_stack() {
        // Build a transformed graph and check the compiled program agrees
        // with the reference recovery walk.
        let mut g = sample();
        let mut rng = StdRng::seed_from_u64(11);
        let data_plain = g.plain().resolve_names(&["data"]).unwrap();
        let h = g.holder_of(data_plain).unwrap();
        apply(&mut g, h, TransformKind::ConstAdd, &mut rng).unwrap();
        let h = g.holder_of(data_plain).unwrap();
        apply(&mut g, h, TransformKind::SplitXor, &mut rng).unwrap();
        let h = g.holder_of(data_plain).unwrap();

        // Distribute a value, then recover it through the compiled program.
        let mut store: std::collections::HashMap<(ObfId, Vec<u32>), Value> =
            std::collections::HashMap::new();
        crate::reference::distribute(
            &g,
            h,
            Value::from_bytes(b"plan layer".to_vec()),
            &[],
            &mut rng,
            &mut |id, sc, v| {
                store.insert((id, sc.to_vec()), v);
            },
        )
        .unwrap();

        let plan = CodecPlan::compile(&g);
        let prog = plan.rec[data_plain.index()].expect("data has a program");
        let mut ev = RecEval::default();
        let range = ev
            .eval(&plan, prog, &[], &mut |obf, sc, buf| match store.get(&(ObfId(obf), sc.to_vec()))
            {
                Some(v) => {
                    buf.extend_from_slice(v.as_bytes());
                    true
                }
                None => false,
            })
            .expect("all wires present");
        assert_eq!(&ev.buf[range.0..range.0 + range.1], b"plan layer");
    }

    #[test]
    fn dist_eval_matches_runtime_distribute() {
        // A transformed holder subtree must distribute identically through
        // the compiled program and the reference walk, including the random
        // share stream (same seed ⇒ same wires).
        let mut g = sample();
        let mut rng = StdRng::seed_from_u64(11);
        let data_plain = g.plain().resolve_names(&["data"]).unwrap();
        let h = g.holder_of(data_plain).unwrap();
        apply(&mut g, h, TransformKind::ConstAdd, &mut rng).unwrap();
        let h = g.holder_of(data_plain).unwrap();
        let rec = apply(&mut g, h, TransformKind::SplitXor, &mut rng).unwrap();
        apply(&mut g, rec.created[1], TransformKind::ConstSub, &mut rng).unwrap();
        apply(&mut g, rec.created[2], TransformKind::SplitCat, &mut rng).unwrap();
        let h = g.holder_of(data_plain).unwrap();

        let mut reference: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut walk_rng = StdRng::seed_from_u64(77);
        crate::reference::distribute(
            &g,
            h,
            Value::from_bytes(b"dist layer".to_vec()),
            &[],
            &mut walk_rng,
            &mut |id, _, v| reference.push((id.0, v.into_bytes())),
        )
        .unwrap();

        // The holder root is not auto/pad-based in this fixture; lower its
        // program directly through the same compiler (the partially built
        // plan carries the pools the program indexes into).
        let mut c = Compiler::new(&g);
        let prog = c.compile_dist(h).expect("subtree lowers");
        let plan = c.plan;

        let mut ev = DistEval::default();
        ev.input().extend_from_slice(b"dist layer");
        let mut compiled: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut plan_rng = StdRng::seed_from_u64(77);
        ev.eval(&plan, prog, &mut plan_rng, &mut |obf, bytes| {
            compiled.push((obf, bytes.to_vec()));
        })
        .unwrap();
        assert_eq!(compiled, reference, "compiled distribution diverged from the walk");
    }

    #[test]
    fn dist_programs_compiled_for_every_holder_root() {
        let g = sample();
        let plan = CodecPlan::compile(&g);
        let len = g.plain().resolve_names(&["len"]).unwrap();
        let holder = g.holder_of(len).unwrap();
        assert!(plan.dist[holder.index()].is_some(), "auto len holder needs a program");
        // Source fields are never materialized by the serializer, but the
        // transcode copy programs distribute recovered values into them,
        // so their holder roots compile programs too.
        let data = g.plain().resolve_names(&["data"]).unwrap();
        let dh = g.holder_of(data).unwrap();
        assert!(plan.dist[dh.index()].is_some(), "copy programs need source-holder programs");
    }

    #[test]
    fn every_settable_field_has_a_distribution_program() {
        // `Message::set_at` has no fallback: each application-set terminal
        // with a value channel must distribute through a compiled program,
        // at every obfuscation depth.
        let plain = sample().plain().clone();
        for (level, seed) in (1..=4).flat_map(|l| (0..8u64).map(move |s| (l, s))) {
            let codec =
                crate::engine::Obfuscator::new(&plain).seed(seed).max_per_node(level).obfuscate();
            let g = codec.unwrap().obf_graph().clone();
            let plan = CodecPlan::compile(&g);
            for x in plain.ids() {
                let node = plain.node(x);
                if !node.is_terminal() || node.auto().is_auto() {
                    continue;
                }
                if let Some(h) = plan.holder_slot(x) {
                    let name = node.name();
                    assert!(plan.dist[h as usize].is_some(), "level {level} seed {seed}: {name}");
                }
            }
        }
    }

    #[test]
    fn copy_program_lowers_the_plain_tree() {
        let g = sample();
        let obf = {
            let plain = g.plain().clone();
            let mut t = ObfGraph::from_plain(&plain);
            let mut rng = StdRng::seed_from_u64(4);
            let data = plain.resolve_names(&["data"]).unwrap();
            let h = t.holder_of(data).unwrap();
            apply(&mut t, h, TransformKind::SplitXor, &mut rng).unwrap();
            t
        };
        let prog = CopyProgram::compile(&g, &obf).expect("same plain spec");
        // One value step per settable terminal, one Optional for
        // `extra`; auto fields (len) never copy. The identity source
        // side has single-Load recovery programs throughout, so every
        // value step takes a direct form: the fused wire-to-wire copy
        // where the destination stores unsplit (flag, extra.ev), the
        // source-side one where it splits (data).
        assert_eq!(step_kinds(&prog), [0, 1, 2], "data; flag, extra.ev");
        assert!(prog.steps.iter().any(|s| matches!(s, CopyStep::Optional { .. })));
        assert!(prog.steps() >= 4);
        // The reverse direction recovers through the split: `data`'s
        // program needs the full recovery machine.
        let back = CopyProgram::compile(&obf, &g).expect("same plain spec");
        assert_eq!(step_kinds(&back), [1, 0, 2]);
    }

    /// Counts of a copy program's `Value`, `ValueDirect` and `Direct` steps.
    fn step_kinds(prog: &CopyProgram) -> [usize; 3] {
        let mut kinds = [0; 3];
        for s in &prog.steps {
            match s {
                CopyStep::Value { .. } => kinds[0] += 1,
                CopyStep::ValueDirect { .. } => kinds[1] += 1,
                CopyStep::Direct { .. } => kinds[2] += 1,
                CopyStep::Optional { .. } | CopyStep::Loop { .. } | CopyStep::Column { .. } => {}
            }
        }
        kinds
    }

    /// The e2ebench `bulk.spec` grammar, built the way the DSL lowers it.
    pub(crate) fn bulk_shaped() -> crate::graph::FormatGraph {
        let mut b = GraphBuilder::new("Bulk");
        let root = b.root_sequence("Bulk", Boundary::End);
        let count = b.uint_be(root, "count", 2);
        let tab = b.tabular(root, "records", count);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let item = b.sequence(tab, "item", Boundary::Delegated);
        b.uint_be(item, "key", 4);
        b.uint_be(item, "flags", 2);
        b.terminal(item, "payload", TerminalKind::Bytes, Boundary::Fixed(24));
        b.terminal(root, "tail", TerminalKind::Bytes, Boundary::End);
        b.build().unwrap()
    }

    #[test]
    fn bulk_copy_programs_fuse_every_value_step_at_level_2() {
        // The benchmark's derivation: its shared secret at level 2. No
        // value channel of this grammar is split, so both relay
        // directions copy key, flags, payload and tail wire to wire.
        let plain = bulk_shaped();
        let clear = ObfGraph::from_plain(&plain);
        let codec = crate::engine::Obfuscator::new(&plain)
            .key("e2ebench shared secret")
            .max_per_node(2)
            .obfuscate()
            .unwrap();
        let obf = codec.obf_graph();
        for (src, dst) in [(&clear, obf), (obf, &clear)] {
            let prog = CopyProgram::compile(src, dst).expect("same plain spec");
            assert_eq!(step_kinds(&prog), [0, 0, 4], "{:?}", prog.steps);
            // The obfuscated end carries constant ops, undone or applied
            // in place.
            assert!(
                prog.steps.iter().any(|s| matches!(s,
                    CopyStep::Direct { src_ops, dst_ops, .. } if src_ops.1 + dst_ops.1 > 0)),
                "{:?}",
                prog.steps
            );
        }
    }

    #[test]
    fn element_runs_cover_fixed_width_counted_elements() {
        // The bulk table runs a kernel; a terminated repetition does not
        // until it is split, and then only its count-linked half does.
        let plan = CodecPlan::compile(&ObfGraph::from_plain(&bulk_shaped()));
        let runs: Vec<&ElemRun> = plan.runs.iter().flatten().collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].width, 30);
        assert_eq!(plan.element_kernels(), KernelCoverage { loops: 1, kernels: 1 });

        // A table of one field lowers to its terminal: a one-column run.
        let mut b = GraphBuilder::new("regs");
        let root = b.root_sequence("m", Boundary::End);
        let n = b.uint_be(root, "n", 1);
        let regs = b.tabular(root, "regs", n);
        b.set_auto(n, AutoValue::CounterOf(regs));
        b.uint_be(regs, "reg", 2);
        let plan = CodecPlan::compile(&ObfGraph::from_plain(&b.build().unwrap()));
        let run = plan.runs.iter().flatten().next().expect("the table runs a kernel");
        assert_eq!((run.cols.len(), run.width), (1, 2));

        let mut b = GraphBuilder::new("marks");
        let root = b.root_sequence("m", Boundary::End);
        let rep = b.repetition(
            root,
            "marks",
            crate::graph::StopRule::Terminator(vec![0xff]),
            Boundary::Delegated,
        );
        let mark = b.sequence(rep, "mark", Boundary::Delegated);
        b.uint_be(mark, "tag", 1);
        b.uint_be(mark, "mv", 2);
        b.terminal(mark, "mb", TerminalKind::Bytes, Boundary::Fixed(3));
        let mut g = ObfGraph::from_plain(&b.build().unwrap());
        assert_eq!(CodecPlan::compile(&g).element_kernels(), KernelCoverage::default());
        let rep = g.preorder().into_iter().find(|&id| g.node(id).name() == "marks").unwrap();
        apply(&mut g, rep, TransformKind::RepSplit, &mut StdRng::seed_from_u64(3)).unwrap();
        let plan = CodecPlan::compile(&g);
        let linked = (0..plan.slots())
            .find(|&i| matches!(plan.nodes[i].op, PlanOp::Rep { stop: RepStopC::CountOf(_), .. }))
            .expect("the split leaves a count-linked half");
        let run = plan.runs[linked].as_ref().expect("the linked half runs a kernel");
        // (j = 1 leaves `mv` and `mb` to the linked half, j = 2 only `mb`.)
        assert!(run.width == 5 || run.width == 3, "{run:?}");
        assert_eq!(plan.element_kernels(), KernelCoverage { loops: 1, kernels: 1 });

        // Its kernel agrees with the walk both ways.
        let mut m = crate::message::Message::with_seed(&g, 1);
        for i in 0..4u64 {
            m.set_uint(&format!("marks[{i}].tag"), i).unwrap();
            m.set_uint(&format!("marks[{i}].mv"), 0x100 + i).unwrap();
            m.set(&format!("marks[{i}].mb"), vec![i as u8; 3]).unwrap();
        }
        let mut wire = Vec::new();
        crate::serialize::SerializeSession::new(&g, &plan)
            .serialize_into_seeded(&m, &mut wire, 9)
            .unwrap();
        assert_eq!(wire, crate::reference::serialize(&g, &m, 9).unwrap());
        let mut parser = crate::parse::ParseSession::new(&g, &plan);
        let parsed = parser.parse_in_place(&wire).unwrap();
        assert_eq!(parsed.get("marks[3].mb").unwrap().as_bytes(), [3; 3]);
        assert!(parsed.wires.iter().eq(crate::reference::parse(&g, &wire).unwrap().wires.iter()));
    }

    #[test]
    fn mirrored_elements_flatten_to_reversed_columns() {
        use TransformKind::{PadInsert, ReadFromEnd};
        // `items` holds records of three fields, `regs` one field each.
        let mut b = GraphBuilder::new("t");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 1);
        let items = b.tabular(root, "items", count);
        b.set_auto(count, AutoValue::CounterOf(items));
        let item = b.sequence(items, "item", Boundary::Delegated);
        b.uint_be(item, "key", 4);
        b.uint_be(item, "flags", 2);
        b.terminal(item, "payload", TerminalKind::Bytes, Boundary::Fixed(6));
        let nregs = b.uint_be(root, "nregs", 1);
        let regs = b.tabular(root, "regs", nregs);
        b.set_auto(nregs, AutoValue::CounterOf(regs));
        b.uint_be(regs, "reg", 2);
        let plain = b.build().unwrap();
        // Each case: the edits, then the items run's columns (name, rev)
        // in wire order (`pad` for any pad), or none.
        type Case<'a> = (&'a [(&'a str, TransformKind)], Option<&'a [(&'a str, bool)]>);
        let cases: [Case; 5] = [
            (&[("key", ReadFromEnd)], Some(&[("key", true), ("flags", false), ("payload", false)])),
            (
                &[("key", ReadFromEnd), ("key", ReadFromEnd), ("reg", ReadFromEnd)],
                Some(&[("key", false), ("flags", false), ("payload", false)]),
            ),
            // A mirrored sequence of a mirrored key and one pad: the
            // columns reverse, each mirrored once more.
            (
                &[("key", ReadFromEnd), ("item", PadInsert), ("item", ReadFromEnd)],
                Some(&[("payload", true), ("pad", true), ("flags", true), ("key", false)]),
            ),
            (
                &[("item", ReadFromEnd), ("item", ReadFromEnd)],
                Some(&[("key", false), ("flags", false), ("payload", false)]),
            ),
            // Two pads under one mirror would draw in reverse: no run.
            (&[("item", PadInsert), ("item", PadInsert), ("item", ReadFromEnd)], None),
        ];
        for (case, (edits, want)) in cases.into_iter().enumerate() {
            let mut g = ObfGraph::from_plain(&plain);
            let mut rng = StdRng::seed_from_u64(case as u64);
            let node_of = |g: &ObfGraph, name: &str| {
                g.preorder().into_iter().find(|&i| g.node(i).name() == name).unwrap()
            };
            for &(name, kind) in edits {
                let id = node_of(&g, name);
                apply(&mut g, id, kind, &mut rng).unwrap();
            }
            let plan = CodecPlan::compile(&g);
            let name = |c: &RunCol| match c.base {
                BaseOp::Pad { .. } => "pad",
                _ => g.node(ObfId(c.slot)).name(),
            };
            let got: Option<Vec<(&str, bool)>> = plan.runs[node_of(&g, "items").index()]
                .as_ref()
                .map(|r| r.cols.iter().map(|c| (name(c), c.rev)).collect());
            assert_eq!(got.as_deref(), want, "case {case}");
            // `regs` is a one-column run, behind its mirror when it has one.
            let regs = plan.runs[node_of(&g, "regs").index()].as_ref().expect("regs runs a kernel");
            assert_eq!(regs.cols.len(), 1);
            assert_eq!(regs.cols[0].rev, case == 1, "case {case}");

            // The kernels agree with the walk both ways.
            let mut m = crate::message::Message::with_seed(&g, 1);
            for i in 0..5u64 {
                m.set_uint(&format!("items[{i}].key"), 0x0102_0304 * i).unwrap();
                m.set_uint(&format!("items[{i}].flags"), 0x0506 + i).unwrap();
                m.set(&format!("items[{i}].payload"), vec![i as u8 + 1, 2, 3, 4, 5, 6]).unwrap();
                m.set_uint(&format!("regs[{i}].reg"), 0x0708 + i).unwrap();
            }
            let mut wire = Vec::new();
            crate::serialize::SerializeSession::new(&g, &plan)
                .serialize_into_seeded(&m, &mut wire, 9)
                .unwrap();
            let walk = crate::reference::serialize(&g, &m, 9).unwrap();
            assert_eq!(wire, walk, "case {case}");
            let mut parser = crate::parse::ParseSession::new(&g, &plan);
            let parsed = parser.parse_in_place(&wire).unwrap();
            let walked = crate::reference::parse(&g, &wire).unwrap();
            assert!(parsed.wires.iter().eq(walked.wires.iter()), "case {case}");
            assert_eq!(parsed.get_uint("items[4].key").unwrap(), 0x0102_0304 * 4);
        }
    }

    /// Serializes `m` through the compiled plan and the reference walk
    /// (same seed, so the same pad draws), then parses the wire and its
    /// truncations (every one of a short wire, every 61st byte of a long
    /// one) both ways: identical wires, stores and errors. Returns the
    /// compiled parse of the whole wire.
    fn assert_matches_the_walk<'g>(
        g: &'g ObfGraph,
        plan: &'g CodecPlan,
        m: &crate::message::Message<'_>,
        what: &str,
    ) -> crate::message::Message<'g> {
        let mut wire = Vec::new();
        let compiled = crate::serialize::SerializeSession::new(g, plan)
            .serialize_into_seeded(m, &mut wire, 9)
            .map(|()| wire.clone());
        assert_eq!(compiled, crate::reference::serialize(g, m, 9), "{what}: serialize");
        let Ok(wire) = compiled else { return crate::message::Message::new(g) };
        let mut parser = crate::parse::ParseSession::new(g, plan);
        let step = if wire.len() > 1024 { 61 } else { 1 };
        for cut in (0..wire.len()).step_by(step) {
            let got = parser.parse_in_place(&wire[..cut]).map(|_| ());
            let want = crate::reference::parse(g, &wire[..cut]).map(|_| ());
            assert_eq!(got, want, "{what}: parse of {cut} of {} bytes", wire.len());
        }
        let walked = crate::reference::parse(g, &wire).unwrap();
        let parsed = parser.parse_in_place(&wire).unwrap();
        assert!(parsed.wires.iter().eq(walked.wires.iter()), "{what}: parse");
        parser.take_message()
    }

    #[test]
    fn mirror_folds_match_the_walk() {
        use TransformKind::{PadInsert, ReadFromEnd, RepSplit};
        let node_of = |g: &ObfGraph, name: &str| {
            g.preorder().into_iter().find(|&i| g.node(i).name() == name).unwrap()
        };
        // A mirror over a table whose element holds two pads and a
        // mirrored key, with a field after it.
        let mut b = GraphBuilder::new("t");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 2);
        let items = b.tabular(root, "items", count);
        b.set_auto(count, AutoValue::CounterOf(items));
        let item = b.sequence(items, "item", Boundary::Delegated);
        b.uint_be(item, "key", 4);
        b.uint_be(item, "flags", 2);
        b.terminal(item, "payload", TerminalKind::Bytes, Boundary::Fixed(24));
        b.uint_be(root, "after", 2);
        let mut tab = ObfGraph::from_plain(&b.build().unwrap());
        let mut rng = StdRng::seed_from_u64(5);
        let edits = [
            ("key", ReadFromEnd),
            ("item", PadInsert),
            ("item", PadInsert),
            ("items", ReadFromEnd),
        ];
        for (name, kind) in edits {
            let id = node_of(&tab, name);
            apply(&mut tab, id, kind, &mut rng).unwrap();
        }
        // A mirror over the count-linked half of a split repetition.
        let mut b = GraphBuilder::new("marks");
        let root = b.root_sequence("m", Boundary::End);
        let rep = b.repetition(
            root,
            "marks",
            crate::graph::StopRule::Terminator(vec![0xff]),
            Boundary::Delegated,
        );
        let mark = b.sequence(rep, "mark", Boundary::Delegated);
        b.uint_be(mark, "tag", 1);
        b.uint_be(mark, "mv", 2);
        b.terminal(mark, "mb", TerminalKind::Bytes, Boundary::Fixed(3));
        let mut rep = ObfGraph::from_plain(&b.build().unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let marks = node_of(&rep, "marks");
        apply(&mut rep, marks, RepSplit, &mut rng).unwrap();
        let plan = CodecPlan::compile(&rep);
        let linked = plan
            .nodes
            .iter()
            .position(|n| matches!(n.op, PlanOp::Rep { stop: RepStopC::CountOf(_), .. }))
            .expect("the split leaves a count-linked half");
        let element = plan.kids(&plan.nodes[linked])[0];
        apply(&mut rep, ObfId(element), PadInsert, &mut rng).unwrap();
        let mb = node_of(&rep, "mb");
        apply(&mut rep, mb, ReadFromEnd, &mut rng).unwrap();
        apply(&mut rep, ObfId(linked as u32), ReadFromEnd, &mut rng).unwrap();

        // Fills the elements in `order`, element 0's last field only when
        // `all`.
        type Fill = fn(&mut crate::message::Message<'_>, &[u64], bool);
        // The element counts to check: the table's include one the
        // serializer writes in several blocks.
        let cases: [(&ObfGraph, &str, Fill, &[u64]); 2] = [
            (
                &tab,
                "items[0].payload",
                |m, order, all| {
                    m.set_uint("after", 0x0708).unwrap();
                    for &i in order {
                        m.set_uint(&format!("items[{i}].key"), 0x0102_0304 * i % (1 << 32))
                            .unwrap();
                        m.set_uint(&format!("items[{i}].flags"), 0x0506 + i).unwrap();
                        if all || i > 0 {
                            let payload: Vec<u8> = (0..24).map(|b| b ^ i as u8).collect();
                            m.set(&format!("items[{i}].payload"), payload).unwrap();
                        }
                    }
                },
                &[0, 1, 3, 600],
            ),
            (
                &rep,
                "marks[0].mb",
                |m, order, all| {
                    for &i in order {
                        m.set_uint(&format!("marks[{i}].tag"), i).unwrap();
                        m.set_uint(&format!("marks[{i}].mv"), 0x100 + i).unwrap();
                        if all || i > 0 {
                            m.set(&format!("marks[{i}].mb"), vec![i as u8; 3]).unwrap();
                        }
                    }
                },
                &[0, 1, 3],
            ),
        ];
        for (g, unset, fill, counts) in cases {
            let plan = CodecPlan::compile(g);
            assert_eq!(plan.mirror_folds(), KernelCoverage { loops: 1, kernels: 1 }, "{unset}");
            let cols = &plan.runs.iter().flatten().next().unwrap().cols;
            assert!(cols.iter().any(|c| matches!(c.base, BaseOp::Pad { .. })), "{cols:?}");
            assert!(cols.iter().any(|c| c.rev) && cols.iter().any(|c| !c.rev), "{cols:?}");
            for &n in counts {
                let what = format!("{unset}, {n} elements");
                let order: Vec<u64> = (0..n).collect();
                let mut m = crate::message::Message::with_seed(g, 1);
                fill(&mut m, &order, true);
                let parsed = assert_matches_the_walk(g, &plan, &m, &what);
                // A parsed message stores each column as one run.
                assert_matches_the_walk(g, &plan, &parsed, &format!("{what}, parsed"));
                // Set last element first: each column in pieces, which
                // the serializer's walk emits.
                let mut m = crate::message::Message::with_seed(g, 1);
                fill(&mut m, &order.iter().rev().copied().collect::<Vec<_>>(), true);
                assert_matches_the_walk(g, &plan, &m, &format!("{what}, set backwards"));
                // A field left unset: the same error both ways.
                if n > 0 {
                    let mut m = crate::message::Message::with_seed(g, 1);
                    fill(&mut m, &order, false);
                    assert_matches_the_walk(g, &plan, &m, &format!("{what}, {unset} unset"));
                }
            }
        }
    }

    /// Every `ByteOp`, for building kernel test cases.
    const BYTE_OPS: [ByteOp; 3] = [ByteOp::Add, ByteOp::Sub, ByteOp::Xor];

    #[test]
    fn op_kernels_match_the_allocating_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        for klen in 1..=5usize {
            for vlen in 0..=67usize {
                let value: Vec<u8> = (0..vlen).map(|_| rng.gen()).collect();
                let ops: Vec<ConstOp> = BYTE_OPS
                    .iter()
                    .map(|&op| ConstOp { op, k: (0..klen).map(|_| rng.gen()).collect() })
                    .collect();
                for stack in [&ops[..1], &ops[1..2], &ops[2..], &ops[..]] {
                    let reference = stack
                        .iter()
                        .fold(value.clone(), |v, c| crate::value::apply_op(c.op, &v, &c.k));
                    let mut v = value.clone();
                    apply_ops_in_place(stack, &mut v);
                    assert_eq!(v, reference, "key {klen}, value {vlen}, {stack:?}");
                    undo_ops_in_place(stack, &mut v);
                    assert_eq!(v, value, "undo after apply, key {klen}, value {vlen}");
                }
            }
        }
    }

    /// `bytes` as `w`-byte values end to end (a last partial value
    /// included), each value restarting the key: the per-byte definition
    /// every op kernel must match.
    fn per_byte(op: ByteOp, bytes: &[u8], k: &[u8], w: usize) -> Vec<u8> {
        if k.is_empty() {
            return bytes.to_vec();
        }
        bytes.iter().enumerate().map(|(i, &b)| apply1(op, b, k[i % w % k.len()])).collect()
    }

    #[test]
    fn op_kernels_match_a_per_byte_reference() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut bytes = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen()).collect() };
        // Keys of 0 to 5 bytes: a 5-byte key's period (and that of a
        // width with an odd part of 5 or more that the key length does
        // not divide) tiles by whole periods only.
        let keys: Vec<Vec<u8>> = (0..=5).map(&mut bytes).collect();
        // Columns: every width up to the vector width, and widths past
        // it and past the largest tile; value counts whose columns are
        // shorter than a tile, not a whole number of tiles, and several
        // tiles long, and (for a fused stack) several chunks long.
        for w in (1..=VEC).chain([VEC + 1, MAX_TILE + 1]) {
            for n in (0..=9).chain([3 * MAX_TILE / w + 1, 2 * CHUNK / w + 1]) {
                let column = bytes(n * w);
                for k in &keys {
                    for op in BYTE_OPS {
                        let mut got = column.clone();
                        apply_column(op, &mut got, k, w);
                        let want = per_byte(op, &column, k, w);
                        assert_eq!(got, want, "{op:?}, key {}, {n} × {w}", k.len());
                    }
                }
                // Whole stacks of 1 to 5 ops (one pass each past
                // `FUSED`): one op per key length and operator.
                for depth in 1..=5 {
                    let stack: Vec<ConstOp> = keys[1..=depth]
                        .iter()
                        .zip(BYTE_OPS.iter().cycle())
                        .map(|(k, &op)| ConstOp { op, k: k.clone() })
                        .collect();
                    let want =
                        stack.iter().fold(column.clone(), |v, c| per_byte(c.op, &v, &c.k, w));
                    let mut got = column.clone();
                    apply_ops_column(&stack, &mut got, w);
                    assert_eq!(got, want, "stack of {depth} over {n} × {w}");
                    undo_ops_column(&stack, &mut got, w);
                    assert_eq!(got, column, "undo after apply, {depth} over {n} × {w}");
                }
            }
        }
        // Single values of 1 byte to 8 KiB: the per-byte loop and the
        // tiled one.
        let lens = (1..=2 * MAX_TILE).chain([1000, 4095, 4096, 4097, 8191, 8192]);
        for len in lens {
            let value = bytes(len);
            for k in &keys[1..] {
                for op in BYTE_OPS {
                    let stack = [ConstOp { op, k: k.clone() }];
                    let mut got = value.clone();
                    apply_ops_in_place(&stack, &mut got);
                    assert_eq!(got, per_byte(op, &value, k, len), "{op:?}, key {}, {len}", k.len());
                    undo_ops_in_place(&stack, &mut got);
                    assert_eq!(got, value, "undo after apply: {op:?}, key {}, {len}", k.len());
                }
            }
        }
    }

    #[test]
    fn op_recombination_matches_the_reference() {
        // A three-step program recombining two loaded wires: slot 0 holds
        // the share, slot 1 the combined value.
        let mut plan = CodecPlan::compile(&sample());
        let none = (0, 0);
        let mut rng = StdRng::seed_from_u64(23);
        for op in BYTE_OPS {
            plan.rec_steps = vec![
                RecStep::Load { obf: 0, ops: none },
                RecStep::Load { obf: 1, ops: none },
                RecStep::Op { op, ops: none },
            ];
            for vlen in 0..=67usize {
                let combined: Vec<u8> = (0..vlen).map(|_| rng.gen()).collect();
                for slen in (0..=5).chain([vlen]) {
                    let share: Vec<u8> = (0..slen).map(|_| rng.gen()).collect();
                    let reference = if share.is_empty() {
                        combined.clone()
                    } else {
                        crate::value::apply_op(op.inverse(), &combined, &share)
                    };
                    let mut ev = RecEval::default();
                    let wires = [&share, &combined];
                    let (s, l) = ev
                        .eval(&plan, RecProg((0, 3)), &[], &mut |obf, _, buf| {
                            buf.extend_from_slice(wires[obf as usize]);
                            true
                        })
                        .expect("both wires present");
                    assert_eq!(&ev.buf[s..s + l], reference, "{op:?}, share {slen}, value {vlen}");
                }
            }
        }
    }

    #[test]
    fn copy_program_rejects_foreign_specs() {
        let g = sample();
        let mut b = GraphBuilder::new("other");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "x", 2);
        let other = ObfGraph::from_plain(&b.build().unwrap());
        assert!(CopyProgram::compile(&g, &other).is_none());
    }

    #[test]
    fn dist_eval_validates_boundaries() {
        let mut b = GraphBuilder::new("v");
        let root = b.root_sequence("m", Boundary::End);
        let k = b.uint_be(root, "k", 2);
        b.set_auto(k, AutoValue::Literal(Value::from_bytes(vec![1, 2])));
        let g = ObfGraph::from_plain(&b.build().unwrap());
        let plan = CodecPlan::compile(&g);
        let holder = g.holder_of(b_resolve(&g, "k")).unwrap();
        let prog = plan.dist[holder.index()].expect("literal const is materializable");
        let mut ev = DistEval::default();
        ev.input().extend_from_slice(&[1, 2, 3]); // wrong width
        let mut rng = StdRng::seed_from_u64(0);
        let r = ev.eval(&plan, prog, &mut rng, &mut |_, _| {});
        assert!(matches!(r, Err(DistErr::BadLen { expected: 2, found: 3, .. })));
    }

    fn b_resolve(g: &ObfGraph, name: &str) -> NodeId {
        g.plain().resolve_names(&[name]).unwrap()
    }

    #[test]
    fn uint_and_pred_helpers() {
        assert_eq!(bytes_to_uint(&[1, 2], Endian::Big), Some(0x0102));
        assert_eq!(bytes_to_uint(&[1, 2], Endian::Little), Some(0x0201));
        assert_eq!(bytes_to_uint(&[0; 9], Endian::Big), None);
        let p = Predicate::OneOf(vec![Value::from_bytes(vec![3]), Value::from_bytes(vec![5])]);
        assert!(pred_eval(&p, &[5]));
        assert!(!pred_eval(&p, &[4]));
    }
}
