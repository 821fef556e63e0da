//! Static verification of compiled codec plans: a bytecode-verifier pass
//! over the [`CodecPlan`] / [`CopyProgram`] IR.
//!
//! The paper's safety argument rests on two structural promises: every
//! applied transformation is **invertible** (the recovery walk undoes the
//! distribution walk exactly), and both endpoints derive **identical**
//! codecs from one specification. The fuzzing and differential harnesses
//! check those promises dynamically, after the fact; this module checks
//! the compiled artifact itself, before any traffic flows — the same way a
//! bytecode verifier validates a class file before the VM executes it.
//!
//! [`verify_plan`] walks one compiled plan and checks:
//!
//! * every slot / plain / pool index is in bounds (children, holders,
//!   ops/bytes/consts/preds/steps ranges, predicate and reference
//!   targets);
//! * container scope depth never exceeds [`MAX_SCOPE`];
//! * every recovery program is a balanced post-order stack program, every
//!   distribution program a balanced pre-order one, and each store's
//!   validation matches its slot's wire boundary;
//! * each recovery program's dual distribution program is its **forward
//!   mirror** (the invertibility invariant of the paper's
//!   transformations);
//! * the auto-field dependency graph is acyclic;
//! * every element run (the loop kernel of a counted container) is
//!   exactly its container's element of fixed-width source/pad
//!   terminals, with the echo's frame-to-frame copy rule derived from
//!   them, and no overlay write of the serializer reaches one.
//!
//! [`verify_copy_program`] applies the same discipline to compiled
//! transcode programs (relative jumps in bounds and properly nested,
//! source/destination slot types in agreement, each fused wire-to-wire
//! copy equal to the recovery and distribution programs it replaces,
//! each column copy's body only fused copies of distinct slots), and
//! [`verify_channel_map`] checks the covert tunnel's carrier
//! classification against a traced serialization: carrier spans must lie
//! inside their slots' wire extents.
//!
//! Failures are reported as [`Diagnostic`]s with stable `P...` codes (the
//! `protoobf lint` CLI prints them verbatim); debug builds additionally
//! run [`verify_plan`] on every plan compile and [`verify_copy_program`]
//! on every copy-program compile, turning a miscompiled IR into an
//! immediate panic instead of silent wire corruption.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::codec::Codec;
use crate::graph::{FormatGraph, NodeId, NodeType};
use crate::message::MAX_SCOPE;
use crate::obf::ObfGraph;
use crate::plan::{
    is_column_body, AutoCheckKind, BaseOp, CodecPlan, CopyProgram, CopyStep, DistCheck, DistProg,
    DistStep, PlanOp, PoolRange, RecProg, RecStep, SeqB, SplitRuleC, TermB, NONE,
};
use crate::runtime;
use crate::serialize::SlotSpan;
use crate::tunnel::ChannelMap;
use crate::value::ByteOp;

/// One verifier finding: a stable diagnostic code plus a human-readable
/// detail naming the offending slot/index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`P001`...). See the module docs for
    /// the full table.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

/// `P001` — a copy-program relative jump (`Optional`/`Loop`) leaves the
/// program or escapes its enclosing block.
pub const JUMP_OUT_OF_BOUNDS: &str = "P001";
/// `P002` — a wire-slot index is out of bounds or targets a dead slot.
pub const SLOT_OUT_OF_BOUNDS: &str = "P002";
/// `P003` — a pool range (ops/bytes/consts/preds/steps) is out of bounds.
pub const POOL_OUT_OF_BOUNDS: &str = "P003";
/// `P004` — a plain-graph index (subject, origin, counter, reference or
/// auto target) is out of bounds or of the wrong node type.
pub const PLAIN_OUT_OF_BOUNDS: &str = "P004";
/// `P005` — a container scope depth exceeds [`MAX_SCOPE`] or disagrees
/// with the graph.
pub const SCOPE_TOO_DEEP: &str = "P005";
/// `P006` — a recovery program is not a balanced post-order stack program.
pub const REC_UNBALANCED: &str = "P006";
/// `P007` — a distribution program is not a balanced pre-order program, or
/// a store's validation disagrees with its slot's boundary.
pub const DIST_UNBALANCED: &str = "P007";
/// `P008` — a recovery program's dual distribution program is not its
/// forward mirror (the invertibility invariant).
pub const DUALITY_VIOLATION: &str = "P008";
/// `P009` — the auto-field dependency graph has a cycle.
pub const AUTO_CYCLE: &str = "P009";
/// `P010` — a copy-program step disagrees with the plain specification's
/// node types (source/destination slot types must agree).
pub const COPY_TYPE_MISMATCH: &str = "P010";
/// `P011` — a tunnel carrier span lies outside its slot's wire extent.
pub const CARRIER_SPAN_OUT_OF_EXTENT: &str = "P011";
/// `P012` — a fused wire-to-wire copy step differs from the single-`Load`
/// recovery program and single-`Store` distribution program it replaces.
pub const DIRECT_COPY_MISMATCH: &str = "P012";
/// `P013` — a loop kernel disagrees with the loop it replaces: an element
/// run differs from its container's element, or from the echo's
/// frame-to-frame copy rule for it (or a serializer overlay write could
/// reach one of its slots), or a column copy's body is not only direct
/// copies with pairwise-distinct slots.
pub const LOOP_KERNEL_MISMATCH: &str = "P013";
// `P014` is retired: it pinned a cross-plan relay wire program that no
// longer exists (an echo's frame-to-frame copy is a rule of one plan,
// pinned with its element run by P013). The code is not reused.

fn diag(code: &'static str, message: String) -> Diagnostic {
    Diagnostic { code, message }
}

/// True when the pool range `(start, len)` fits a pool of `len` items.
fn range_ok(r: PoolRange, pool_len: usize) -> bool {
    (r.0 as u64) + (r.1 as u64) <= pool_len as u64
}

/// Verifies one compiled plan against the graph it was compiled from.
/// Returns every violation found (empty = verified).
pub fn verify_plan(g: &ObfGraph, plan: &CodecPlan) -> Vec<Diagnostic> {
    let mut v = Verifier { g, plan, diags: Vec::new() };
    v.tables();
    v.nodes();
    v.depths();
    let rec_ok = v.rec_programs();
    let dist_ok = v.dist_programs();
    v.duality(&rec_ok, &dist_ok);
    v.elem_runs(&dist_ok);
    v.autos();
    v.diags
}

struct Verifier<'a> {
    g: &'a ObfGraph,
    plan: &'a CodecPlan,
    diags: Vec<Diagnostic>,
}

impl Verifier<'_> {
    fn push(&mut self, code: &'static str, message: String) {
        self.diags.push(diag(code, message));
    }

    fn slots(&self) -> usize {
        self.plan.nodes.len()
    }

    fn plain_len(&self) -> usize {
        self.plan.holder.len()
    }

    /// Checks a slot reference: in bounds and live.
    fn slot(&mut self, what: &str, s: u32) -> bool {
        if s as usize >= self.slots() {
            self.push(
                SLOT_OUT_OF_BOUNDS,
                format!("{what}: slot {s} out of bounds ({} slots)", self.slots()),
            );
            return false;
        }
        if matches!(self.plan.nodes[s as usize].op, PlanOp::Dead) {
            self.push(SLOT_OUT_OF_BOUNDS, format!("{what}: slot {s} is dead"));
            return false;
        }
        true
    }

    /// Checks a slot reference that must be a wire-carrying terminal.
    fn term_slot(&mut self, what: &str, s: u32) -> bool {
        if !self.slot(what, s) {
            return false;
        }
        if !matches!(self.plan.nodes[s as usize].op, PlanOp::Term { .. }) {
            self.push(SLOT_OUT_OF_BOUNDS, format!("{what}: slot {s} is not a terminal"));
            return false;
        }
        true
    }

    /// Checks a plain-node reference.
    fn plain(&mut self, what: &str, p: u32) -> bool {
        if p as usize >= self.plain_len() {
            self.push(
                PLAIN_OUT_OF_BOUNDS,
                format!("{what}: plain index {p} out of bounds ({} plain nodes)", self.plain_len()),
            );
            return false;
        }
        true
    }

    /// Checks a plain reference that must be a numeric terminal (a
    /// `Length`/`Counter` reference or condition subject decoded as an
    /// integer).
    fn numeric_plain(&mut self, what: &str, p: u32) -> bool {
        if !self.plain(what, p) {
            return false;
        }
        let node = self.g.plain().node(NodeId(p));
        if !node.is_terminal() {
            self.push(PLAIN_OUT_OF_BOUNDS, format!("{what}: plain node {p} is not a terminal"));
            return false;
        }
        true
    }

    fn ops_range(&mut self, what: &str, r: PoolRange) -> bool {
        if !range_ok(r, self.plan.ops.len()) {
            self.push(
                POOL_OUT_OF_BOUNDS,
                format!(
                    "{what}: op range {}+{} out of bounds ({} pooled ops)",
                    r.0,
                    r.1,
                    self.plan.ops.len()
                ),
            );
            return false;
        }
        true
    }

    fn bytes_idx(&mut self, what: &str, i: u32) -> bool {
        if i as usize >= self.plan.bytes.len() {
            self.push(
                POOL_OUT_OF_BOUNDS,
                format!("{what}: byte-string {i} out of bounds ({} pooled)", self.plan.bytes.len()),
            );
            return false;
        }
        if self.plan.bytes[i as usize].is_empty() {
            self.push(POOL_OUT_OF_BOUNDS, format!("{what}: pooled byte-string {i} is empty"));
            return false;
        }
        true
    }

    /// Table sizes, root, children ranges and the holder map.
    fn tables(&mut self) {
        if self.slots() != self.g.allocated() {
            self.push(
                SLOT_OUT_OF_BOUNDS,
                format!(
                    "plan has {} slots for {} allocated graph nodes",
                    self.slots(),
                    self.g.allocated()
                ),
            );
        }
        let n_plain = self.g.plain().len();
        for (table, len) in [
            ("holder", self.plan.holder.len()),
            ("plain_depth", self.plan.plain_depth.len()),
            ("plain_endian", self.plan.plain_endian.len()),
            ("rec", self.plan.rec.len()),
        ] {
            if len != n_plain {
                self.push(
                    PLAIN_OUT_OF_BOUNDS,
                    format!("{table} table has {len} entries for {n_plain} plain nodes"),
                );
            }
        }
        if self.plan.dist.len() != self.slots() {
            self.push(
                SLOT_OUT_OF_BOUNDS,
                format!(
                    "dist table has {} entries for {} slots",
                    self.plan.dist.len(),
                    self.slots()
                ),
            );
        }
        self.slot("root", self.plan.root);
        for i in 0..self.slots() {
            let node = &self.plan.nodes[i];
            if matches!(node.op, PlanOp::Dead) {
                continue;
            }
            if !range_ok(node.children, self.plan.children.len()) {
                self.push(
                    SLOT_OUT_OF_BOUNDS,
                    format!(
                        "slot {i}: child range {}+{} out of bounds ({} child entries)",
                        node.children.0,
                        node.children.1,
                        self.plan.children.len()
                    ),
                );
                continue;
            }
            for &c in self.plan.kids(node) {
                self.slot(&format!("slot {i} child"), c);
            }
        }
        for p in 0..self.plan.holder.len() {
            let h = self.plan.holder[p];
            if h != NONE {
                self.slot(&format!("holder of plain {p}"), h);
            }
        }
    }

    /// Per-node operand checks: pool indices, plain references, arity.
    fn nodes(&mut self) {
        for i in 0..self.slots() {
            let node = self.plan.nodes[i].clone();
            let arity = node.children.1;
            let what = |part: &str| format!("slot {i} {part}");
            match node.op {
                PlanOp::Dead => {}
                PlanOp::Term { base, boundary } => {
                    self.base(i, &base);
                    match boundary {
                        TermB::Fixed(_) | TermB::End => {}
                        TermB::Delim(d) => {
                            self.bytes_idx(&what("delimiter"), d);
                        }
                        TermB::PlainLen { r, steps, .. } => {
                            self.numeric_plain(&what("length reference"), r);
                            if !range_ok(steps, self.plan.steps.len()) {
                                self.push(
                                    POOL_OUT_OF_BOUNDS,
                                    what(&format!(
                                        "length steps {}+{} out of bounds ({} pooled)",
                                        steps.0,
                                        steps.1,
                                        self.plan.steps.len()
                                    )),
                                );
                            }
                        }
                    }
                }
                PlanOp::Split { base, first_term } => {
                    self.base(i, &base);
                    self.term_slot(&what("first_term"), first_term);
                    if arity != 2 {
                        self.push(
                            SLOT_OUT_OF_BOUNDS,
                            what(&format!("split sequence has {arity} children, expected 2")),
                        );
                    }
                }
                PlanOp::Seq { boundary } => {
                    if let SeqB::PlainLen { r, .. } = boundary {
                        self.numeric_plain(&what("window reference"), r);
                    }
                }
                PlanOp::Opt { subject, pred, origin, .. } => {
                    self.numeric_plain(&what("condition subject"), subject);
                    if pred as usize >= self.plan.preds.len() {
                        self.push(
                            POOL_OUT_OF_BOUNDS,
                            what(&format!(
                                "predicate {pred} out of bounds ({} pooled)",
                                self.plan.preds.len()
                            )),
                        );
                    }
                    self.plain(&what("origin"), origin);
                    if arity != 1 {
                        self.push(
                            SLOT_OUT_OF_BOUNDS,
                            what(&format!("optional has {arity} children, expected 1")),
                        );
                    }
                }
                PlanOp::Rep { stop, origin, .. } => {
                    match stop {
                        crate::plan::RepStopC::Terminator(t) => {
                            self.bytes_idx(&what("terminator"), t);
                        }
                        crate::plan::RepStopC::Exhausted => {}
                        crate::plan::RepStopC::CountOf(s) => {
                            self.slot(&what("count link"), s);
                        }
                    }
                    if origin != NONE {
                        self.plain(&what("origin"), origin);
                    }
                    if arity != 1 {
                        self.push(
                            SLOT_OUT_OF_BOUNDS,
                            what(&format!("repetition has {arity} children, expected 1")),
                        );
                    }
                }
                PlanOp::Tab { counter, origin, .. } => {
                    self.numeric_plain(&what("counter"), counter);
                    if origin != NONE {
                        self.plain(&what("origin"), origin);
                    }
                    if arity != 1 {
                        self.push(
                            SLOT_OUT_OF_BOUNDS,
                            what(&format!("tabular has {arity} children, expected 1")),
                        );
                    }
                }
                PlanOp::Mirror => {
                    if arity != 1 {
                        self.push(
                            SLOT_OUT_OF_BOUNDS,
                            what(&format!("mirror has {arity} children, expected 1")),
                        );
                    }
                }
                PlanOp::Prefixed { width, .. } => {
                    if width == 0 || width > 8 {
                        self.push(
                            POOL_OUT_OF_BOUNDS,
                            what(&format!("length prefix width {width} outside 1..=8")),
                        );
                    }
                    if arity != 1 {
                        self.push(
                            SLOT_OUT_OF_BOUNDS,
                            what(&format!("prefixed has {arity} children, expected 1")),
                        );
                    }
                }
            }
        }
    }

    fn base(&mut self, slot: usize, base: &BaseOp) {
        let what = |part: &str| format!("slot {slot} {part}");
        match *base {
            BaseOp::Source { plain } => {
                self.plain(&what("source"), plain);
            }
            BaseOp::Pad { .. } | BaseOp::Inherit => {}
            BaseOp::AutoLen { target, width, .. } | BaseOp::AutoCount { target, width, .. } => {
                self.plain(&what("auto target"), target);
                if width == 0 || width > 8 {
                    self.push(
                        PLAIN_OUT_OF_BOUNDS,
                        what(&format!("auto encoding width {width} outside 1..=8")),
                    );
                }
            }
            BaseOp::Const { pool } => {
                if pool as usize >= self.plan.consts.len() {
                    self.push(
                        POOL_OUT_OF_BOUNDS,
                        what(&format!(
                            "constant {pool} out of bounds ({} pooled)",
                            self.plan.consts.len()
                        )),
                    );
                }
            }
        }
    }

    /// Scope depths: bounded by [`MAX_SCOPE`] and equal to the graph's
    /// own container depth.
    fn depths(&mut self) {
        let plain = self.g.plain();
        let n = self.plan.plain_depth.len().min(plain.len());
        for i in 0..n {
            let d = self.plan.plain_depth[i] as usize;
            if d > MAX_SCOPE {
                self.push(
                    SCOPE_TOO_DEEP,
                    format!("plain {i}: scope depth {d} exceeds MAX_SCOPE ({MAX_SCOPE})"),
                );
            } else if d != runtime::container_depth(plain, NodeId(i as u32)) {
                self.push(
                    SCOPE_TOO_DEEP,
                    format!(
                        "plain {i}: compiled scope depth {d} disagrees with the graph ({})",
                        runtime::container_depth(plain, NodeId(i as u32))
                    ),
                );
            }
        }
    }

    /// Recovery programs: ranges, balance, load targets. Returns the
    /// per-plain validity map the duality pass keys on.
    fn rec_programs(&mut self) -> Vec<bool> {
        let mut ok = vec![false; self.plan.rec.len()];
        for (p, valid) in ok.iter_mut().enumerate() {
            let Some(prog) = self.plan.rec[p] else { continue };
            *valid = self.rec_program(&format!("plain {p}"), prog);
        }
        ok
    }

    fn rec_program(&mut self, what: &str, prog: RecProg) -> bool {
        if !range_ok(prog.0, self.plan.rec_steps.len()) {
            self.push(
                POOL_OUT_OF_BOUNDS,
                format!(
                    "{what}: recovery program {}+{} out of bounds ({} steps pooled)",
                    prog.0 .0,
                    prog.0 .1,
                    self.plan.rec_steps.len()
                ),
            );
            return false;
        }
        let mut clean = true;
        let mut depth: u64 = 0;
        for (j, step) in self.plan.rec_prog(prog).to_vec().iter().enumerate() {
            match *step {
                RecStep::Load { obf, ops } => {
                    clean &= self.term_slot(&format!("{what} recovery step {j}"), obf);
                    clean &= self.ops_range(&format!("{what} recovery step {j}"), ops);
                    depth += 1;
                }
                RecStep::Concat { ops } | RecStep::Op { ops, .. } => {
                    clean &= self.ops_range(&format!("{what} recovery step {j}"), ops);
                    if depth < 2 {
                        self.push(
                            REC_UNBALANCED,
                            format!("{what}: recovery step {j} underflows the value stack"),
                        );
                        return false;
                    }
                    depth -= 1;
                }
            }
        }
        if depth != 1 {
            self.push(
                REC_UNBALANCED,
                format!("{what}: recovery program leaves {depth} values on the stack, expected 1"),
            );
            return false;
        }
        clean
    }

    /// Distribution programs: ranges, balance, store targets and boundary
    /// checks. Returns the per-slot validity map for the duality pass.
    fn dist_programs(&mut self) -> Vec<bool> {
        let mut ok = vec![false; self.plan.dist.len()];
        for (s, valid) in ok.iter_mut().enumerate() {
            let Some(prog) = self.plan.dist[s] else { continue };
            *valid = self.dist_program(&format!("slot {s}"), prog);
        }
        ok
    }

    fn dist_program(&mut self, what: &str, prog: DistProg) -> bool {
        if !range_ok(prog.0, self.plan.dist_steps.len()) {
            self.push(
                POOL_OUT_OF_BOUNDS,
                format!(
                    "{what}: distribution program {}+{} out of bounds ({} steps pooled)",
                    prog.0 .0,
                    prog.0 .1,
                    self.plan.dist_steps.len()
                ),
            );
            return false;
        }
        let mut clean = true;
        // The program starts with exactly one input value on the stack and
        // must consume everything it pushes (the serializer asserts this
        // dynamically; here it is checked once, statically).
        let mut depth: u64 = 1;
        for (j, step) in self.plan.dist_prog(prog).to_vec().iter().enumerate() {
            match *step {
                DistStep::Store { obf, ops, check } => {
                    let ctx = format!("{what} distribution step {j}");
                    if self.term_slot(&ctx, obf) {
                        clean &= self.store_check(&ctx, obf, check);
                    } else {
                        clean = false;
                    }
                    clean &= self.ops_range(&ctx, ops);
                    if depth == 0 {
                        self.push(
                            DIST_UNBALANCED,
                            format!("{what}: distribution step {j} underflows the value stack"),
                        );
                        return false;
                    }
                    depth -= 1;
                }
                DistStep::Split { ops, .. } => {
                    clean &= self.ops_range(&format!("{what} distribution step {j}"), ops);
                    if depth == 0 {
                        self.push(
                            DIST_UNBALANCED,
                            format!("{what}: distribution step {j} underflows the value stack"),
                        );
                        return false;
                    }
                    depth += 1;
                }
            }
        }
        if depth != 0 {
            self.push(
                DIST_UNBALANCED,
                format!("{what}: distribution program leaves {depth} values unconsumed"),
            );
            return false;
        }
        clean
    }

    /// `slot`'s children when its child range and every child index are
    /// in bounds (the table pass reports the rest).
    fn kids_of(&self, slot: u32) -> Option<&[u32]> {
        let node = self.plan.nodes.get(slot as usize)?;
        let kids =
            range_ok(node.children, self.plan.children.len()).then(|| self.plan.kids(node))?;
        kids.iter().all(|&k| (k as usize) < self.slots()).then_some(kids)
    }

    /// Element runs: each must be exactly the run its container's element
    /// derives ([`CodecPlan::derive_run`]) — its `Term{Fixed}` columns with
    /// `Source`/`Pad` bases in wire order, through any delegated
    /// sequences and mirrors, their widths, their `rev` flags (odd mirror
    /// depth), their sum, at most one pad under each mirror, and whether
    /// an echo copies the run frame to frame — and no distribution program
    /// the serializer materializes into its overlay may store into a run
    /// slot, since the element kernel reads only the message wires.
    fn elem_runs(&mut self, dist_ok: &[bool]) {
        if self.plan.runs.len() != self.slots() {
            self.push(
                LOOP_KERNEL_MISMATCH,
                format!(
                    "element-run table covers {} slots, the plan has {}",
                    self.plan.runs.len(),
                    self.slots()
                ),
            );
            return;
        }
        let mut in_run = vec![false; self.slots()];
        for s in 0..self.slots() as u32 {
            let Some(run) = &self.plan.runs[s as usize] else { continue };
            let sound = self
                .kids_of(s)
                .and_then(|kids| kids.first())
                .is_some_and(|&elem| self.kids_of(elem).is_some());
            if !sound || self.plan.derive_run(self.g.plain(), s).as_ref() != Some(run) {
                let cols: Vec<(u32, u32, bool)> =
                    run.cols.iter().map(|c| (c.slot, c.width, c.rev)).collect();
                self.push(
                    LOOP_KERNEL_MISMATCH,
                    format!(
                        "slot {s}: element run {cols:?} (slot, width, reversed) of width {} \
                         (frame copy {}) is not its counted container's element flattened to \
                         fixed-width source/pad columns",
                        run.width, run.frame_copy
                    ),
                );
                continue;
            }
            for c in &run.cols {
                in_run[c.slot as usize] = true;
            }
        }
        for (s, &ok) in dist_ok.iter().enumerate().take(self.slots()) {
            let materialized = match &self.plan.nodes[s].op {
                PlanOp::Term { base, .. } => base.is_materialized(),
                PlanOp::Split { base, .. } => {
                    base.is_materialized() || matches!(base, BaseOp::Pad { .. })
                }
                _ => false,
            };
            let Some(prog) = self.plan.dist[s].filter(|_| materialized && ok) else {
                continue;
            };
            for step in self.plan.dist_prog(prog).to_vec() {
                if let DistStep::Store { obf, .. } = step {
                    if in_run[obf as usize] {
                        self.push(
                            LOOP_KERNEL_MISMATCH,
                            format!(
                                "slot {s}: the serializer materializes into slot {obf}, a column \
                                 of an element run"
                            ),
                        );
                    }
                }
            }
        }
    }

    /// A store's validation must mirror the target slot's wire boundary.
    fn store_check(&mut self, what: &str, obf: u32, check: DistCheck) -> bool {
        let PlanOp::Term { ref boundary, .. } = self.plan.nodes[obf as usize].op else {
            return false;
        };
        let agrees = match (boundary, check) {
            (TermB::Fixed(n), DistCheck::Fixed(k)) => *n == k,
            (TermB::Delim(d), DistCheck::Delim(e)) => {
                d == &e
                    || (range_ok((*d, 1), self.plan.bytes.len())
                        && range_ok((e, 1), self.plan.bytes.len())
                        && self.plan.bytes[*d as usize] == self.plan.bytes[e as usize])
            }
            (TermB::PlainLen { .. } | TermB::End, DistCheck::None) => true,
            _ => false,
        };
        if !agrees {
            self.push(
                DIST_UNBALANCED,
                format!("{what}: store validation {check:?} disagrees with slot {obf}'s boundary"),
            );
        }
        agrees
    }

    /// The invertibility invariant: for every plain terminal whose holder
    /// has both programs compiled, the distribution program must be the
    /// forward mirror (pre-order) of the recovery program (post-order) —
    /// same leaves, same constant-op stacks, inverse combination rules in
    /// mirrored order.
    fn duality(&mut self, rec_ok: &[bool], dist_ok: &[bool]) {
        let n = self.plan.rec.len().min(self.plan.holder.len());
        for (p, &ok) in rec_ok.iter().enumerate().take(n) {
            let Some(rec) = self.plan.rec[p] else { continue };
            let h = self.plan.holder[p];
            if h == NONE || h as usize >= self.plan.dist.len() {
                continue;
            }
            let Some(dist) = self.plan.dist[h as usize] else { continue };
            // Only compare structurally valid programs: bounds or balance
            // failures were already reported above and would cascade here.
            if !ok || !dist_ok[h as usize] {
                continue;
            }
            if let Some(msg) = self.mirror_mismatch(rec, dist) {
                self.push(DUALITY_VIOLATION, format!("plain {p} (holder slot {h}): {msg}"));
            }
        }
    }

    /// Rebuilds the value tree from the post-order recovery program and
    /// compares its pre-order rendition against the distribution program.
    /// Returns a description of the first mismatch.
    fn mirror_mismatch(&self, rec: RecProg, dist: DistProg) -> Option<String> {
        enum Node {
            Leaf { obf: u32, ops: PoolRange },
            Branch { op: Option<ByteOp>, ops: PoolRange, left: usize, right: usize },
        }
        let mut arena: Vec<Node> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for step in self.plan.rec_prog(rec) {
            match *step {
                RecStep::Load { obf, ops } => {
                    arena.push(Node::Leaf { obf, ops });
                    stack.push(arena.len() - 1);
                }
                RecStep::Concat { ops } | RecStep::Op { ops, .. } => {
                    let op = match *step {
                        RecStep::Op { op, .. } => Some(op),
                        _ => None,
                    };
                    let right = stack.pop()?;
                    let left = stack.pop()?;
                    arena.push(Node::Branch { op, ops, left, right });
                    stack.push(arena.len() - 1);
                }
            }
        }
        let root = stack.pop()?;
        // Pre-order emission of the rebuilt tree, compared step-by-step.
        let dist_steps = self.plan.dist_prog(dist);
        let mut cursor = 0usize;
        let mut todo = vec![root];
        while let Some(ix) = todo.pop() {
            let Some(step) = dist_steps.get(cursor) else {
                return Some(format!(
                    "distribution program has {} steps, recovery mirror expects more",
                    dist_steps.len()
                ));
            };
            match (&arena[ix], *step) {
                (Node::Leaf { obf, ops }, DistStep::Store { obf: so, ops: sops, .. }) => {
                    if *obf != so {
                        return Some(format!(
                            "step {cursor}: store targets slot {so}, recovery loads slot {obf}"
                        ));
                    }
                    if self.plan.ops(*ops) != self.plan.ops(sops) {
                        return Some(format!(
                            "step {cursor}: slot {so}'s constant-op stacks differ between \
                             recovery and distribution"
                        ));
                    }
                }
                (Node::Leaf { obf, .. }, DistStep::Split { .. }) => {
                    return Some(format!(
                        "step {cursor}: distribution splits where recovery loads slot {obf}"
                    ));
                }
                (Node::Branch { op, ops, left, right }, DistStep::Split { ops: sops, rule }) => {
                    let rule_agrees = match (op, rule) {
                        (None, SplitRuleC::At(_) | SplitRuleC::Half) => true,
                        (Some(o), SplitRuleC::Op(r)) => *o == r,
                        _ => false,
                    };
                    if !rule_agrees {
                        return Some(format!(
                            "step {cursor}: split rule {rule:?} is not the forward mirror of \
                             the recovery combination"
                        ));
                    }
                    if self.plan.ops(*ops) != self.plan.ops(sops) {
                        return Some(format!(
                            "step {cursor}: split-expression op stacks differ between \
                             recovery and distribution"
                        ));
                    }
                    // Pre-order: left subtree first (push right, then left).
                    todo.push(*right);
                    todo.push(*left);
                }
                (Node::Branch { .. }, DistStep::Store { obf, .. }) => {
                    return Some(format!(
                        "step {cursor}: distribution stores to slot {obf} where recovery \
                         combines two values"
                    ));
                }
            }
            cursor += 1;
        }
        if cursor != dist_steps.len() {
            return Some(format!(
                "distribution program has {} trailing steps beyond the recovery mirror",
                dist_steps.len() - cursor
            ));
        }
        None
    }

    /// Auto-check operands and the auto-field dependency graph (an auto
    /// field must not derive from a subtree that contains itself or
    /// another auto field deriving back from it).
    fn autos(&mut self) {
        let plain = self.g.plain();
        let autos = self.plan.autos.clone();
        let mut target_of: Vec<Option<u32>> = Vec::with_capacity(autos.len());
        let mut by_plain = std::collections::HashMap::new();
        for (i, a) in autos.iter().enumerate() {
            let what = format!("auto check {i}");
            self.plain(&what, a.plain);
            self.term_slot(&format!("{what} first_term"), a.first_term);
            let target = match a.kind {
                AutoCheckKind::Literal(c) => {
                    if c as usize >= self.plan.consts.len() {
                        self.push(
                            POOL_OUT_OF_BOUNDS,
                            format!(
                                "{what}: constant {c} out of bounds ({} pooled)",
                                self.plan.consts.len()
                            ),
                        );
                    }
                    None
                }
                AutoCheckKind::LengthOf { target, .. }
                | AutoCheckKind::CounterOf { target, .. } => {
                    if self.plain(&format!("{what} target"), target) {
                        Some(target)
                    } else {
                        None
                    }
                }
            };
            target_of.push(target);
            if (a.plain as usize) < plain.len() {
                by_plain.insert(a.plain, i);
            }
        }
        // Edges: auto i → auto j when j's field lies inside i's target
        // subtree (i's derived value depends on j's subtree content).
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); autos.len()];
        for (i, target) in target_of.iter().enumerate() {
            let Some(t) = target else { continue };
            for y in plain.subtree(NodeId(*t)) {
                if let Some(&j) = by_plain.get(&y.0) {
                    edges[i].push(j);
                }
            }
        }
        // Depth-first cycle detection (0 unvisited / 1 on stack / 2 done).
        let mut color = vec![0u8; autos.len()];
        for start in 0..autos.len() {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&mut (n, ref mut e)) = stack.last_mut() {
                if *e < edges[n].len() {
                    let next = edges[n][*e];
                    *e += 1;
                    match color[next] {
                        0 => {
                            color[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => {
                            let name =
                                |i: usize| plain.node(NodeId(autos[i].plain)).name().to_string();
                            self.push(
                                AUTO_CYCLE,
                                format!(
                                    "auto field {:?} depends on a subtree containing {:?}, \
                                     which derives back from it",
                                    name(n),
                                    name(next)
                                ),
                            );
                            return;
                        }
                        _ => {}
                    }
                } else {
                    color[n] = 2;
                    stack.pop();
                }
            }
        }
    }
}

/// Verifies a compiled transcode program against the (source,
/// destination) graph pair it was compiled for: relative jumps stay
/// inside the program and properly nested, every plain/slot/pool
/// reference is in bounds, and step shapes agree with the shared plain
/// specification's node types.
pub fn verify_copy_program(src: &ObfGraph, dst: &ObfGraph, prog: &CopyProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let (sp, dp) = (src.plan(), dst.plan());
    let plain = src.plain();
    if !runtime::plains_match(plain, dst.plain()) {
        diags.push(diag(
            COPY_TYPE_MISMATCH,
            format!(
                "copy program pairs foreign specifications {:?} and {:?}",
                plain.name(),
                dst.plain().name()
            ),
        ));
        return diags;
    }
    let loads = single_loads(plain, sp);
    let n = prog.steps.len();
    // Stack of enclosing block end indices (exclusive): a jump may end a
    // block early but must never escape the enclosing one.
    let mut blocks: Vec<usize> = Vec::new();
    for (i, step) in prog.steps.iter().enumerate() {
        while blocks.last().is_some_and(|&e| i >= e) {
            blocks.pop();
        }
        let mut block = |width: u32, label: &str| {
            let end = i + 1 + width as usize;
            if end > n {
                diags.push(diag(
                    JUMP_OUT_OF_BOUNDS,
                    format!(
                        "step {i}: {label} jump over {width} steps leaves the {n}-step program"
                    ),
                ));
                return;
            }
            if let Some(&e) = blocks.last() {
                if end > e {
                    diags.push(diag(
                        JUMP_OUT_OF_BOUNDS,
                        format!(
                            "step {i}: {label} jump to {end} escapes the enclosing block ({e})"
                        ),
                    ));
                    return;
                }
            }
            blocks.push(end);
        };
        match *step {
            CopyStep::Optional { plain: p, skip } => {
                block(skip, "optional");
                match plain.get(NodeId(p)) {
                    None => diags.push(diag(
                        PLAIN_OUT_OF_BOUNDS,
                        format!("step {i}: optional plain {p} out of bounds"),
                    )),
                    Some(node) if !matches!(node.node_type(), NodeType::Optional(_)) => {
                        diags.push(diag(
                            COPY_TYPE_MISMATCH,
                            format!(
                                "step {i}: optional step targets plain {p} ({}), not an optional",
                                node.node_type().notation()
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
            CopyStep::Loop { plain: p, body } | CopyStep::Column { plain: p, body } => {
                block(body, "loop");
                if matches!(step, CopyStep::Column { .. }) {
                    let end = (i + 1 + body as usize).min(n);
                    if !is_column_body(&prog.steps[i + 1..end]) {
                        diags.push(diag(
                            LOOP_KERNEL_MISMATCH,
                            format!(
                                "step {i}: column copy over {body} steps whose body is not only \
                                 direct copies with pairwise-distinct source and destination \
                                 slots"
                            ),
                        ));
                    }
                }
                match plain.get(NodeId(p)) {
                    None => diags.push(diag(
                        PLAIN_OUT_OF_BOUNDS,
                        format!("step {i}: loop plain {p} out of bounds"),
                    )),
                    Some(node)
                        if !matches!(
                            node.node_type(),
                            NodeType::Repetition(_) | NodeType::Tabular
                        ) =>
                    {
                        diags.push(diag(
                            COPY_TYPE_MISMATCH,
                            format!(
                                "step {i}: loop step targets plain {p} ({}), not a container",
                                node.node_type().notation()
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
            CopyStep::Value { plain: p, rec, dist } => {
                match plain.get(NodeId(p)) {
                    None => diags.push(diag(
                        PLAIN_OUT_OF_BOUNDS,
                        format!("step {i}: value plain {p} out of bounds"),
                    )),
                    Some(node) if !node.is_terminal() => diags.push(diag(
                        COPY_TYPE_MISMATCH,
                        format!("step {i}: value step targets plain {p}, not a terminal"),
                    )),
                    Some(node) if node.auto().is_auto() => diags.push(diag(
                        COPY_TYPE_MISMATCH,
                        format!(
                            "step {i}: value step copies auto field {:?} (rematerialized by \
                             the destination serializer)",
                            node.name()
                        ),
                    )),
                    Some(_) => {}
                }
                if !range_ok(rec.0, sp.rec_steps.len()) {
                    diags.push(diag(
                        POOL_OUT_OF_BOUNDS,
                        format!("step {i}: recovery program out of bounds in the source plan"),
                    ));
                }
                if !range_ok(dist.0, dp.dist_steps.len()) {
                    diags.push(diag(
                        POOL_OUT_OF_BOUNDS,
                        format!(
                            "step {i}: distribution program out of bounds in the destination plan"
                        ),
                    ));
                }
            }
            CopyStep::ValueDirect { src_obf, src_ops, dist } => {
                direct_end(&mut diags, i, "source", sp, src_obf, src_ops);
                if !range_ok(dist.0, dp.dist_steps.len()) {
                    diags.push(diag(
                        POOL_OUT_OF_BOUNDS,
                        format!(
                            "step {i}: distribution program out of bounds in the destination plan"
                        ),
                    ));
                }
            }
            CopyStep::Direct { src_obf, src_ops, dst_obf, dst_ops, check } => {
                direct_end(&mut diags, i, "source", sp, src_obf, src_ops);
                direct_end(&mut diags, i, "destination", dp, dst_obf, dst_ops);
                let load = loads.iter().find(|l| l.1 == src_obf);
                let store = load.and_then(|&(x, ..)| single_store(dp, x));
                let replaced = match (load, store) {
                    (Some(&(_, _, ops)), Some(s)) => {
                        ops == src_ops && s == DistStep::Store { obf: dst_obf, ops: dst_ops, check }
                    }
                    _ => false,
                };
                if !replaced {
                    diags.push(diag(
                        DIRECT_COPY_MISMATCH,
                        format!(
                            "step {i}: direct copy {src_obf} {src_ops:?} -> {dst_obf} {dst_ops:?} \
                             {check:?} is not a plain terminal's single Load in the source plan \
                             and single Store in the destination plan"
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// Bounds of one wire end of a direct copy step: `obf` must be a terminal
/// slot of `plan` and `ops` a range inside its op pool.
fn direct_end(
    diags: &mut Vec<Diagnostic>,
    i: usize,
    side: &str,
    plan: &CodecPlan,
    obf: u32,
    ops: PoolRange,
) {
    if obf as usize >= plan.nodes.len()
        || !matches!(plan.nodes[obf as usize].op, PlanOp::Term { .. })
    {
        diags.push(diag(
            SLOT_OUT_OF_BOUNDS,
            format!("step {i}: direct {side} slot {obf} is not a terminal of the {side} plan"),
        ));
    }
    if !range_ok(ops, plan.ops.len()) {
        diags.push(diag(
            POOL_OUT_OF_BOUNDS,
            format!("step {i}: {side} op range out of bounds in the {side} plan"),
        ));
    }
}

/// The copyable (non-auto) plain terminals of `plain` whose recovery
/// program in `plan` is one `Load`, as `(plain, slot, ops)`: what a fused
/// copy step may read.
fn single_loads(plain: &FormatGraph, plan: &CodecPlan) -> Vec<(NodeId, u32, PoolRange)> {
    plain
        .ids()
        .filter(|&x| plain.node(x).is_terminal() && !plain.node(x).auto().is_auto())
        .filter_map(|x| {
            let prog = plan.rec.get(x.index()).copied().flatten()?;
            if !range_ok(prog.0, plan.rec_steps.len()) {
                return None;
            }
            match *plan.rec_prog(prog) {
                [RecStep::Load { obf, ops }] => Some((x, obf, ops)),
                _ => None,
            }
        })
        .collect()
}

/// The distribution program of plain terminal `x`'s holder in `plan`, when
/// it is one `Store`: what a fused copy step may write.
fn single_store(plan: &CodecPlan, x: NodeId) -> Option<DistStep> {
    let holder = *plan.holder.get(x.index())?;
    let prog = plan.dist.get(holder as usize).copied().flatten()?;
    if !range_ok(prog.0, plan.dist_steps.len()) {
        return None;
    }
    match *plan.dist_prog(prog) {
        [store @ DistStep::Store { .. }] => Some(store),
        _ => None,
    }
}

/// Verifies the covert tunnel's carrier classification for `codec`: every
/// carrier must own a value channel in the compiled plan, and in a traced
/// serialization of a sampled (pinned) cover message every produced span
/// must lie inside its parent's wire extent — carrier spans in
/// particular, since payload bytes are committed to exactly those ranges.
pub fn verify_channel_map(codec: &Codec, map: &ChannelMap<'_>) -> Vec<Diagnostic> {
    let plan = codec.plan();
    let mut diags = Vec::new();
    let mut carrier_slots = Vec::new();
    for &c in map.carriers() {
        match plan.holder_slot(c) {
            Some(h) => carrier_slots.push(h),
            None => diags.push(diag(
                CARRIER_SPAN_OUT_OF_EXTENT,
                format!(
                    "carrier {:?} has no value channel in the compiled plan",
                    codec.plain().node(c).name()
                ),
            )),
        }
    }
    // One traced serialization of a deterministic sampled cover message:
    // the spans are the byte ranges the tunnel encoder would write payload
    // into.
    let mut rng = StdRng::seed_from_u64(0x0bf_11a7);
    let msg = crate::sample::random_message_pinned(codec, &mut rng, map.pins());
    let mut session = codec.serializer();
    let (mut wire, mut spans) = (Vec::new(), Vec::new());
    if session.serialize_traced(&msg, &mut wire, &mut spans).is_ok() {
        diags.extend(check_spans(&spans, wire.len(), plan, &carrier_slots));
    }
    diags
}

/// Pure span-containment check behind [`verify_channel_map`]: spans are
/// recorded in pre-order and must nest — each inside the enclosing one and
/// inside the produced wire. Kept separate so tests can corrupt a span
/// list directly and prove the rule fires.
fn check_spans(
    spans: &[SlotSpan],
    wire_len: usize,
    plan: &CodecPlan,
    carrier_slots: &[u32],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut stack: Vec<SlotSpan> = Vec::new();
    for s in spans {
        let role = if carrier_slots.contains(&s.slot) { "carrier slot" } else { "slot" };
        if s.slot as usize >= plan.nodes.len() {
            diags.push(diag(
                CARRIER_SPAN_OUT_OF_EXTENT,
                format!("span of unknown slot {} ({} slots)", s.slot, plan.nodes.len()),
            ));
            continue;
        }
        if s.start > s.end || s.end as usize > wire_len {
            diags.push(diag(
                CARRIER_SPAN_OUT_OF_EXTENT,
                format!(
                    "{role} {}: span {}..{} outside the {wire_len}-byte wire",
                    s.slot, s.start, s.end
                ),
            ));
            continue;
        }
        while stack.last().is_some_and(|top| s.start >= top.end) {
            stack.pop();
        }
        if let Some(top) = stack.last() {
            if s.start < top.start || s.end > top.end {
                diags.push(diag(
                    CARRIER_SPAN_OUT_OF_EXTENT,
                    format!(
                        "{role} {}: span {}..{} escapes the enclosing slot {}'s extent {}..{}",
                        s.slot, s.start, s.end, top.slot, top.start, top.end
                    ),
                ));
                continue;
            }
        }
        stack.push(*s);
    }
    diags
}

/// Full static verification of one codec: the plan pass plus the tunnel
/// carrier-span pass. This is what `protoobf lint` runs per derivation
/// leg.
pub fn verify_codec(codec: &Codec) -> Vec<Diagnostic> {
    let mut diags = verify_plan(codec.obf_graph(), codec.plan());
    let map = ChannelMap::analyze(codec);
    diags.extend(verify_channel_map(codec, &map));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, Condition, GraphBuilder, Predicate};
    use crate::plan::RepStopC;
    use crate::transform::{apply, TransformKind};
    use crate::value::{TerminalKind, Value};

    /// Test-only corruption hook, mirroring `fuzz.rs`'s wire tamper: the
    /// plan is compiled clean, corrupted in place, and re-verified — each
    /// verifier rule must fire on its matching corruption.
    fn verify_tampered(g: &ObfGraph, tamper: impl FnOnce(&mut CodecPlan)) -> Vec<Diagnostic> {
        let mut plan = CodecPlan::compile(g);
        tamper(&mut plan);
        verify_plan(g, &plan)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

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

    fn transformed() -> ObfGraph {
        let mut g = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let data = g.plain().resolve_names(&["data"]).unwrap();
        let h = g.holder_of(data).unwrap();
        apply(&mut g, h, TransformKind::ConstAdd, &mut rng).unwrap();
        let h = g.holder_of(data).unwrap();
        apply(&mut g, h, TransformKind::SplitXor, &mut rng).unwrap();
        g
    }

    #[test]
    fn clean_plans_verify_clean() {
        for g in [sample(), transformed()] {
            let plan = CodecPlan::compile(&g);
            assert_eq!(verify_plan(&g, &plan), vec![], "false positive on a clean plan");
        }
    }

    #[test]
    fn p002_slot_out_of_bounds_fires() {
        let d = verify_tampered(&sample(), |p| p.children[0] = 999);
        assert!(codes(&d).contains(&SLOT_OUT_OF_BOUNDS), "{d:?}");
    }

    #[test]
    fn p002_dead_reference_fires() {
        // A transformed graph has detached (dead) slots; point the root at
        // one of them.
        let g = transformed();
        let dead = {
            let plan = CodecPlan::compile(&g);
            (0..plan.nodes.len())
                .find(|&i| matches!(plan.nodes[i].op, PlanOp::Dead))
                .expect("transformed graphs leave dead slots") as u32
        };
        let mut plan = CodecPlan::compile(&g);
        plan.root = dead;
        let d = verify_plan(&g, &plan);
        assert!(codes(&d).contains(&SLOT_OUT_OF_BOUNDS), "{d:?}");
    }

    #[test]
    fn p003_pool_range_fires() {
        let d = verify_tampered(&transformed(), |p| {
            let step = p
                .rec_steps
                .iter_mut()
                .find(|s| matches!(s, RecStep::Load { .. }))
                .expect("has a load step");
            if let RecStep::Load { ops, .. } = step {
                ops.0 = 10_000;
                ops.1 = 4;
            }
        });
        assert!(codes(&d).contains(&POOL_OUT_OF_BOUNDS), "{d:?}");
    }

    #[test]
    fn p004_plain_reference_fires() {
        let d = verify_tampered(&sample(), |p| {
            for n in &mut p.nodes {
                if let PlanOp::Opt { subject, .. } = &mut n.op {
                    *subject = 999;
                }
            }
        });
        assert!(codes(&d).contains(&PLAIN_OUT_OF_BOUNDS), "{d:?}");
    }

    #[test]
    fn p005_scope_depth_fires() {
        let d = verify_tampered(&sample(), |p| p.plain_depth[0] = (MAX_SCOPE + 1) as u8);
        assert!(codes(&d).contains(&SCOPE_TOO_DEEP), "{d:?}");
        // A depth within bounds but disagreeing with the graph also fires.
        let d = verify_tampered(&sample(), |p| p.plain_depth[0] = 3);
        assert!(codes(&d).contains(&SCOPE_TOO_DEEP), "{d:?}");
    }

    #[test]
    fn p006_unbalanced_recovery_fires() {
        let d = verify_tampered(&sample(), |p| {
            let prog = p.rec.iter_mut().flatten().next().expect("has a recovery program");
            prog.0 .1 = 0; // empty program: no value left on the stack
        });
        assert!(codes(&d).contains(&REC_UNBALANCED), "{d:?}");
        // Underflow: a combine step with only one loaded value.
        let d = verify_tampered(&transformed(), |p| {
            let (at, len) = {
                let prog = p.rec.iter().flatten().find(|r| r.0 .1 >= 3).expect("split program");
                (prog.0 .0, prog.0 .1)
            };
            // Rewrite the program's steps to [Load, Combine, ...]: drop the
            // second Load by duplicating the combine earlier.
            let combine = p.rec_steps[(at + len - 1) as usize];
            p.rec_steps[(at + 1) as usize] = combine;
        });
        assert!(codes(&d).contains(&REC_UNBALANCED), "{d:?}");
    }

    #[test]
    fn p007_unbalanced_distribution_fires() {
        let d = verify_tampered(&sample(), |p| {
            let prog = p.dist.iter_mut().flatten().next().expect("has a distribution program");
            prog.0 .1 = 0; // empty program: the input value is never consumed
        });
        assert!(codes(&d).contains(&DIST_UNBALANCED), "{d:?}");
    }

    #[test]
    fn p007_store_check_mismatch_fires() {
        let d = verify_tampered(&sample(), |p| {
            for s in &mut p.dist_steps {
                if let DistStep::Store { check, .. } = s {
                    *check = DistCheck::Fixed(77);
                }
            }
        });
        assert!(codes(&d).contains(&DIST_UNBALANCED), "{d:?}");
    }

    #[test]
    fn p008_duality_violation_fires() {
        // Flip the forward split rule out from under the recovery program:
        // the pair no longer mirrors, so round-trips would corrupt.
        let d = verify_tampered(&transformed(), |p| {
            for s in &mut p.dist_steps {
                if let DistStep::Split { rule: SplitRuleC::Op(op), .. } = s {
                    *op = match op {
                        ByteOp::Xor => ByteOp::Add,
                        _ => ByteOp::Xor,
                    };
                }
            }
        });
        assert!(codes(&d).contains(&DUALITY_VIOLATION), "{d:?}");
        // Re-target a store at a different (live, terminal) slot.
        let d = verify_tampered(&sample(), |p| {
            let slots: Vec<u32> = (0..p.nodes.len() as u32)
                .filter(|&i| matches!(p.nodes[i as usize].op, PlanOp::Term { .. }))
                .collect();
            let at = p
                .dist_steps
                .iter()
                .position(|s| matches!(s, DistStep::Store { .. }))
                .expect("has a store step");
            let DistStep::Store { obf, .. } = p.dist_steps[at] else { unreachable!() };
            let other = *slots.iter().find(|&&t| t != obf).expect("second terminal");
            // Keep the store check agreeing with the new slot so only the
            // duality rule can catch the retarget.
            let check = match &p.nodes[other as usize].op {
                PlanOp::Term { boundary: TermB::Fixed(n), .. } => DistCheck::Fixed(*n),
                _ => DistCheck::None,
            };
            if let DistStep::Store { obf, check: c, .. } = &mut p.dist_steps[at] {
                *obf = other;
                *c = check;
            }
        });
        assert!(codes(&d).contains(&DUALITY_VIOLATION), "{d:?}");
    }

    #[test]
    fn p009_auto_cycle_fires() {
        // Point the auto length's target at the root: its own subtree now
        // contains the auto field — a self-dependency.
        let g = sample();
        let root = g.plain().root();
        let d = verify_tampered(&g, move |p| {
            for a in &mut p.autos {
                if let AutoCheckKind::LengthOf { target, .. } = &mut a.kind {
                    *target = root.0;
                }
            }
        });
        assert!(codes(&d).contains(&AUTO_CYCLE), "{d:?}");
    }

    #[test]
    fn p001_copy_jump_out_of_bounds_fires() {
        let src = sample();
        let dst = transformed();
        let mut prog = CopyProgram::compile(&src, &dst).expect("same plain spec");
        assert_eq!(verify_copy_program(&src, &dst, &prog), vec![], "clean program");
        for s in &mut prog.steps {
            if let CopyStep::Optional { skip, .. } = s {
                *skip = 1000;
            }
        }
        let d = verify_copy_program(&src, &dst, &prog);
        assert!(codes(&d).contains(&JUMP_OUT_OF_BOUNDS), "{d:?}");
    }

    #[test]
    fn p010_copy_type_mismatch_fires() {
        let src = sample();
        let dst = transformed();
        let mut prog = CopyProgram::compile(&src, &dst).expect("same plain spec");
        let terminal = src.plain().resolve_names(&["flag"]).unwrap();
        for s in &mut prog.steps {
            if let CopyStep::Optional { plain, .. } = s {
                *plain = terminal.0; // an optional step aimed at a terminal
            }
        }
        let d = verify_copy_program(&src, &dst, &prog);
        assert!(codes(&d).contains(&COPY_TYPE_MISMATCH), "{d:?}");
    }

    #[test]
    fn p011_carrier_span_out_of_extent_fires() {
        let g = sample();
        let plan = CodecPlan::compile(&g);
        // A child span escaping its parent's extent.
        let spans = [
            SlotSpan { slot: 0, start: 0, end: 10, depth: 0 },
            SlotSpan { slot: 1, start: 5, end: 12, depth: 0 },
        ];
        let d = check_spans(&spans, 12, &plan, &[1]);
        assert!(codes(&d).contains(&CARRIER_SPAN_OUT_OF_EXTENT), "{d:?}");
        // A span past the end of the wire.
        let spans = [SlotSpan { slot: 0, start: 0, end: 10, depth: 0 }];
        let d = check_spans(&spans, 8, &plan, &[]);
        assert!(codes(&d).contains(&CARRIER_SPAN_OUT_OF_EXTENT), "{d:?}");
    }

    #[test]
    fn p012_direct_copy_mismatch_fires() {
        // Clear → transformed: `flag` and `extra.ev` fuse; `data` splits.
        let (src, dst) = (sample(), transformed());
        let prog = CopyProgram::compile(&src, &dst).expect("same plain spec");
        assert_eq!(verify_copy_program(&src, &dst, &prog), vec![], "clean program");
        let tampered = |edit: &dyn Fn(&mut u32, &mut PoolRange)| {
            let mut prog = prog.clone();
            for s in &mut prog.steps {
                if let CopyStep::Direct { dst_obf, dst_ops, .. } = s {
                    edit(dst_obf, dst_ops);
                }
            }
            verify_copy_program(&src, &dst, &prog)
        };
        // Swap the two fused steps' destination slots: both stay live
        // terminals of the destination plan, only P012 can tell.
        let slots: Vec<u32> = prog
            .steps
            .iter()
            .filter_map(|s| match s {
                CopyStep::Direct { dst_obf, .. } => Some(*dst_obf),
                _ => None,
            })
            .collect();
        assert_eq!(slots.len(), 2, "{:?}", prog.steps);
        let d = tampered(&|obf, _| *obf = if *obf == slots[0] { slots[1] } else { slots[0] });
        assert_eq!(codes(&d), vec![DIRECT_COPY_MISMATCH; 2], "{d:?}");
        // Give the destination ends an in-bounds op stack they do not have.
        let d = tampered(&|_, ops| *ops = (0, 1));
        assert_eq!(codes(&d), vec![DIRECT_COPY_MISMATCH; 2], "{d:?}");
    }

    /// A counted table of fixed-width records behind an auto counter: the
    /// shape element runs and column copies specialize.
    fn table() -> ObfGraph {
        let mut b = GraphBuilder::new("t");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 2);
        let tab = b.tabular(root, "items", count);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let item = b.sequence(tab, "item", Boundary::Delegated);
        b.uint_be(item, "key", 4);
        b.terminal(item, "payload", TerminalKind::Bytes, Boundary::Fixed(6));
        ObfGraph::from_plain(&b.build().unwrap())
    }

    /// The table's one container slot with an element run.
    fn run_slot(plan: &CodecPlan) -> usize {
        plan.runs.iter().position(Option::is_some).expect("the table has an element run")
    }

    #[test]
    fn p013_element_run_mismatch_fires() {
        let g = table();
        assert_eq!(verify_tampered(&g, |_| {}), vec![], "clean plan");
        // A column wider than its terminal.
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            p.runs[s].as_mut().unwrap().cols[1].width += 1;
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
        // A total width that is not the columns' sum.
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            p.runs[s].as_mut().unwrap().width -= 1;
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
        // A column dropped from the run.
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            p.runs[s].as_mut().unwrap().cols.pop();
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
        // A run on a slot that is no counted container (the root).
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            p.runs[p.root as usize] = p.runs[s].clone();
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
        // An echo's frame-to-frame copy the run's columns do not allow,
        // or withheld where they do.
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            let run = p.runs[s].as_mut().unwrap();
            run.frame_copy = !run.frame_copy;
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
    }

    /// [`table`] with each `(name, kind)` transformation applied in turn
    /// to the node of that name.
    fn edited_table(edits: &[(&str, TransformKind)]) -> ObfGraph {
        let mut g = table();
        let mut rng = StdRng::seed_from_u64(1);
        for &(name, kind) in edits {
            let id = g.preorder().into_iter().find(|&i| g.node(i).name() == name).unwrap();
            apply(&mut g, id, kind, &mut rng).unwrap();
        }
        g
    }

    #[test]
    fn p013_mirrored_run_mismatch_fires() {
        use crate::plan::{ElemRun, RunCol};
        use TransformKind::{PadInsert, ReadFromEnd};
        // `rev` flipped on the column behind one mirror.
        let g = edited_table(&[("key", ReadFromEnd)]);
        assert_eq!(verify_tampered(&g, |_| {}), vec![], "clean plan");
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            let cols = &mut p.runs[s].as_mut().unwrap().cols;
            cols.iter_mut().find(|c| c.rev).expect("key is mirrored").rev = false;
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");

        // A mirror dropped from a chain of two: the outer mirror now wraps
        // the terminal itself, whose wire bytes the run would store as
        // they are.
        let g = edited_table(&[("key", ReadFromEnd), ("key", ReadFromEnd)]);
        assert_eq!(verify_tampered(&g, |_| {}), vec![], "clean plan");
        let d = verify_tampered(&g, |p| {
            let is_mirror =
                |p: &CodecPlan, i: u32| matches!(p.nodes[i as usize].op, PlanOp::Mirror);
            let outer = (0..p.slots() as u32)
                .find(|&i| is_mirror(p, i) && is_mirror(p, p.kids(&p.nodes[i as usize])[0]))
                .expect("a chain of two mirrors");
            let at = p.nodes[outer as usize].children.0 as usize;
            let inner = p.children[at];
            p.children[at] = p.kids(&p.nodes[inner as usize])[0];
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");

        // A run over a mirrored sequence holding two pads: none derives
        // (the kernel would draw the pads in reverse), so one put there is
        // rejected.
        let g = edited_table(&[("item", PadInsert), ("item", PadInsert), ("item", ReadFromEnd)]);
        assert_eq!(verify_tampered(&g, |_| {}), vec![], "clean plan");
        let d = verify_tampered(&g, |p| {
            assert!(p.runs.iter().all(Option::is_none), "two pads under one mirror");
            let tab = (0..p.slots()).find(|&i| matches!(p.nodes[i].op, PlanOp::Tab { .. }));
            let tab = tab.expect("the table");
            let mirror = p.kids(&p.nodes[tab])[0];
            let seq = p.kids(&p.nodes[mirror as usize])[0];
            let cols: Vec<RunCol> = p
                .kids(&p.nodes[seq as usize])
                .iter()
                .rev()
                .map(|&c| match &p.nodes[c as usize].op {
                    PlanOp::Term { base, boundary: TermB::Fixed(width) } => {
                        RunCol { slot: c, width: *width, base: base.clone(), rev: true }
                    }
                    op => panic!("not a fixed-width terminal: {op:?}"),
                })
                .collect();
            assert_eq!(cols.iter().filter(|c| matches!(c.base, BaseOp::Pad { .. })).count(), 2);
            let width = cols.iter().map(|c| c.width).sum();
            p.runs[tab] = Some(ElemRun { cols, width, frame_copy: true });
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
    }

    #[test]
    fn p013_mirrored_container_run_mismatch_fires() {
        use TransformKind::{PadInsert, ReadFromEnd};
        // A mirror over the whole table, whose element kernel the sessions
        // walk backwards: its run must still be the container's own.
        let g = edited_table(&[("key", ReadFromEnd), ("item", PadInsert), ("items", ReadFromEnd)]);
        assert_eq!(verify_tampered(&g, |_| {}), vec![], "clean plan");
        // The columns in the mirrored wire's order instead of the
        // element's.
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            p.runs[s].as_mut().unwrap().cols.reverse();
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
        // Every column's `rev` toggled, as the mirrored wire holds them.
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            p.runs[s].as_mut().unwrap().cols.iter_mut().for_each(|c| c.rev = !c.rev);
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
        // The run on the mirror instead of the container it wraps.
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            let wraps = |n: &crate::plan::PlanNode| p.kids(n).first() == Some(&(s as u32));
            let mirror =
                p.nodes.iter().position(|n| matches!(n.op, PlanOp::Mirror) && wraps(n)).unwrap();
            p.runs[mirror] = p.runs[s].take();
        });
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
    }

    #[test]
    fn p013_overlay_write_into_a_run_slot_fires() {
        // Aim the auto counter's materialized store at a run column of the
        // same width (`key` is a u32, the counter a u16: widen the check
        // so only the overlay rule can object).
        let g = table();
        let d = verify_tampered(&g, |p| {
            let s = run_slot(p);
            let key = p.runs[s].as_ref().unwrap().cols[0].slot;
            for step in &mut p.dist_steps {
                if let DistStep::Store { obf, check, .. } = step {
                    if !p.runs.iter().flatten().any(|r| r.cols.iter().any(|c| c.slot == *obf)) {
                        *obf = key;
                        *check = DistCheck::Fixed(4);
                    }
                }
            }
        });
        assert!(codes(&d).contains(&LOOP_KERNEL_MISMATCH), "{d:?}");
    }

    #[test]
    fn p013_column_body_mismatch_fires() {
        let (src, dst) = (table(), table());
        let prog = CopyProgram::compile(&src, &dst).expect("same plain spec");
        assert_eq!(verify_copy_program(&src, &dst, &prog), vec![], "clean program");
        let column = prog
            .steps
            .iter()
            .position(|s| matches!(s, CopyStep::Column { .. }))
            .expect("the table's loop is a column copy");
        // A body step repeated: each step alone is a faithful fused copy
        // (P012 stays quiet), but two columns now share their slots.
        let mut dup = prog.clone();
        dup.steps[column + 2] = dup.steps[column + 1];
        let d = verify_copy_program(&src, &dst, &dup);
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
        // A column copy whose body shrank to nothing.
        let mut empty = prog.clone();
        let CopyStep::Column { plain, .. } = prog.steps[column] else { unreachable!() };
        empty.steps[column] = CopyStep::Column { plain, body: 0 };
        let d = verify_copy_program(&src, &dst, &empty);
        assert_eq!(codes(&d), vec![LOOP_KERNEL_MISMATCH], "{d:?}");
    }

    #[test]
    fn p002_rep_count_link_fires() {
        // Corrupt a CountOf link if the graph has one; otherwise corrupt a
        // holder entry — both are slot references.
        let d = verify_tampered(&sample(), |p| {
            let has_count = p
                .nodes
                .iter()
                .any(|n| matches!(n.op, PlanOp::Rep { stop: RepStopC::CountOf(_), .. }));
            if has_count {
                for n in &mut p.nodes {
                    if let PlanOp::Rep { stop: RepStopC::CountOf(s), .. } = &mut n.op {
                        *s = 999;
                    }
                }
            } else {
                p.holder[0] = 998;
            }
        });
        assert!(codes(&d).contains(&SLOT_OUT_OF_BOUNDS), "{d:?}");
    }

    #[test]
    fn copy_program_verifies_clean_both_directions() {
        let clear = sample();
        let obf = transformed();
        let fwd = CopyProgram::compile(&clear, &obf).unwrap();
        let back = CopyProgram::compile(&obf, &clear).unwrap();
        assert_eq!(verify_copy_program(&clear, &obf, &fwd), vec![]);
        assert_eq!(verify_copy_program(&obf, &clear, &back), vec![]);
    }

    #[test]
    fn channel_map_verifies_clean() {
        let g = sample();
        let codec = Codec::from_parts(g, Vec::new());
        let map = ChannelMap::analyze(&codec);
        assert!(!map.is_empty(), "sample spec has a carrier");
        assert_eq!(verify_channel_map(&codec, &map), vec![]);
    }

    #[test]
    fn verify_codec_covers_transformed_graphs() {
        let codec = Codec::from_parts(transformed(), Vec::new());
        assert_eq!(verify_codec(&codec), vec![]);
    }
}
