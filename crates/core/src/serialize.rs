//! The obfuscating serializer.
//!
//! [`SerializeSession`] interprets the compiled [`CodecPlan`], writing
//! straight into a caller-supplied buffer and reusing all of its scratch
//! state, so steady-state serialization performs no hashing and no
//! per-message heap allocation on the hot path (auto-field
//! materialization draws from reusable stores; only the aggregation-split
//! of freshly computed auto values allocates transient intermediates).
//!
//! Serialization walks the wire tree depth-first, exactly as the paper's
//! generated serializer does: aggregation transformations were already
//! applied by the setters (the wire values live in the [`Message`]), and
//! the **ordering** transformations — child permutations, split tabulars,
//! mirrors, length prefixes, pads — are executed on the fly. Auto-computed
//! fields (lengths, counters) are evaluated here, because only the
//! complete message determines them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::BuildError;
use crate::graph::NodeId;
use crate::message::{scatter, Message, ScopeKey, Stored, WireStore};
use crate::obf::{ObfGraph, ObfId};
use crate::plan::{
    bytes_to_uint, pred_eval, BaseOp, CodecPlan, DistEval, PlanOp, RecEval, RepStopC, SeqB, TermB,
    NONE,
};

/// The byte range a plan slot produced during one traced serialization
/// ([`SerializeSession::serialize_traced`]). Spans nest exactly like the
/// plan tree does: a parent's range contains its children's, and `depth`
/// is the repetition-scope depth at emit time. Inside a mirrored subtree
/// the coordinates are **pre-reversal** — still a faithful boundary map
/// for mutation purposes, just not display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSpan {
    /// Plan slot (node index) that produced the bytes.
    pub slot: u32,
    /// Start offset into the output buffer, inclusive.
    pub start: u32,
    /// End offset, exclusive. `start == end` for empty productions.
    pub end: u32,
    /// Repetition-scope depth at the time of emission.
    pub depth: u8,
}

impl SlotSpan {
    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether this slot produced no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A reusable serialization session over a compiled codec plan.
///
/// Obtain one from [`crate::codec::Codec::serializer`] and keep it for the
/// connection's lifetime: every scratch structure (auto-field overlay,
/// scope stack, recovery buffers) reaches a steady-state capacity after the
/// first few messages and is then reused allocation-free.
///
/// ```
/// use protoobf_core::graph::{Boundary, GraphBuilder};
/// use protoobf_core::Codec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new("demo");
/// let root = b.root_sequence("msg", Boundary::End);
/// b.uint_be(root, "id", 2);
/// let codec = Codec::identity(&b.build()?);
///
/// let mut msg = codec.message();
/// msg.set_uint("id", 7)?;
/// let mut session = codec.serializer();
/// let mut wire = Vec::new();
/// session.serialize_into(&msg, &mut wire)?; // reuse `session` and `wire`
/// assert_eq!(wire, [0, 7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SerializeSession<'c> {
    g: &'c ObfGraph,
    plan: &'c CodecPlan,
    scratch: SerializeScratch,
}

/// The lifetime-free scratch state of a [`SerializeSession`]: everything
/// the session owns besides its borrows of the graph and plan. Pooled by
/// [`crate::service::CodecService`] so worker sessions can be checked out
/// and in without losing their warmed-up capacities.
#[derive(Debug)]
pub(crate) struct SerializeScratch {
    /// Wire values computed at serialization time (auto-field subtrees,
    /// split pads) — never stored back into the message.
    overlay: WireStore,
    scope: Vec<u32>,
    ev: RecEval,
    dist: DistEval,
    rng: StdRng,
    cursors: ReadCursors,
    /// The absent pad columns of the element kernel's run: offset in the
    /// element, width, mirrored.
    pads: Vec<(usize, usize, bool)>,
    /// The stored columns of the element kernel's run.
    cols: Vec<ColRun>,
    /// The pad draws of one block of the element kernel.
    draws: Vec<u8>,
    /// Per-slot byte ranges recorded while `tracing` is set; stays empty
    /// (and costs one branch per node) on the production path.
    trace: Vec<SlotSpan>,
    tracing: bool,
}

/// A stored column of the element kernel's run: its slot, its place in
/// the element (offset, width, mirrored), its values' arena offset and
/// stride, and the slot's read cursor after them.
#[derive(Debug, Clone, Copy)]
struct ColRun {
    slot: usize,
    at: usize,
    w: usize,
    rev: bool,
    start: usize,
    stride: usize,
    next: u32,
}

/// The element kernel writes its output in blocks of about this many
/// bytes, so that a block stays in the first-level cache while every
/// column scatters into it: its lines are fetched once, not once per
/// column.
const BLOCK: usize = 8 * 1024;

/// Sequential read cursors (see [`WireStore::get_seq`]) of the emit walk.
/// Child permutations, split tabulars and mirrors reorder slots or bytes,
/// never one slot's scopes, so the walk visits each slot's instances in
/// the stores' sort order and every per-instance read is one comparison.
#[derive(Debug)]
struct ReadCursors {
    /// Per plan slot, into the message's wires.
    wire: Vec<u32>,
    /// Per plan slot, into the serialization overlay.
    overlay: Vec<u32>,
    /// Per plain node, into the message's presence flags.
    presence: Vec<u32>,
}

impl ReadCursors {
    fn reset(&mut self) {
        self.wire.fill(0);
        self.overlay.fill(0);
        self.presence.fill(0);
    }
}

impl SerializeScratch {
    pub(crate) fn for_plan(plan: &CodecPlan) -> Self {
        // The element kernel's scratch is sized from the plan's runs, so
        // serializing never grows it (a block's pad draws fit `BLOCK`
        // bytes unless one element is wider).
        let runs = || plan.runs.iter().flatten();
        let cols = runs().map(|run| run.cols.len()).max().unwrap_or(0);
        let pads = runs().flat_map(|run| &run.cols).any(|c| matches!(c.base, BaseOp::Pad { .. }));
        SerializeScratch {
            overlay: WireStore::with_slots(plan.slots()),
            scope: Vec::new(),
            ev: RecEval::default(),
            dist: DistEval::default(),
            rng: StdRng::seed_from_u64(rand::random()),
            cursors: ReadCursors {
                wire: vec![0; plan.slots()],
                overlay: vec![0; plan.slots()],
                presence: vec![0; plan.plain_len()],
            },
            pads: Vec::new(),
            cols: Vec::with_capacity(cols),
            draws: Vec::with_capacity(if pads { BLOCK } else { 0 }),
            trace: Vec::new(),
            tracing: false,
        }
    }
}

impl<'c> SerializeSession<'c> {
    pub(crate) fn new(g: &'c ObfGraph, plan: &'c CodecPlan) -> Self {
        SerializeSession::from_scratch(g, plan, SerializeScratch::for_plan(plan))
    }

    /// Rebinds pooled scratch state to the graph/plan it was created for.
    /// The RNG is reseeded from ambient entropy: a pooled session must not
    /// continue the (possibly caller-seeded, predictable) stream of its
    /// previous owner.
    pub(crate) fn from_scratch(
        g: &'c ObfGraph,
        plan: &'c CodecPlan,
        mut scratch: SerializeScratch,
    ) -> Self {
        debug_assert_eq!(scratch.overlay.slots(), plan.slots(), "scratch from a different plan");
        scratch.rng = StdRng::seed_from_u64(rand::random());
        SerializeSession { g, plan, scratch }
    }

    /// Takes the scratch state back out for pooling.
    pub(crate) fn into_scratch(self) -> SerializeScratch {
        self.scratch
    }

    /// Reseeds the session RNG that feeds pads and random split shares.
    /// Sessions seed themselves from ambient entropy at construction; use
    /// this (or [`SerializeSession::serialize_into_seeded`]) for
    /// reproducible output.
    pub fn reseed(&mut self, seed: u64) {
        self.scratch.rng = StdRng::seed_from_u64(seed);
    }

    /// Serializes `msg` into `out` (cleared first, capacity kept). Random
    /// material is drawn from the session's own RNG stream (seeded from
    /// ambient entropy at construction, or via
    /// [`SerializeSession::reseed`]); see
    /// [`SerializeSession::serialize_into_seeded`] for reproducible output.
    ///
    /// # Errors
    ///
    /// [`BuildError`] when required fields are missing, lengths/counters
    /// are inconsistent, or derived values overflow their width.
    pub fn serialize_into(
        &mut self,
        msg: &Message<'_>,
        out: &mut Vec<u8>,
    ) -> Result<(), BuildError> {
        out.clear();
        self.serialize_append(msg, out)
    }

    /// Serializes `msg` **appended** to `out` (existing content kept — for
    /// writing a message after a frame header without an intermediate
    /// copy). On error, `out` is truncated back to its original length.
    ///
    /// # Errors
    ///
    /// See [`SerializeSession::serialize_into`].
    pub fn serialize_append(
        &mut self,
        msg: &Message<'_>,
        out: &mut Vec<u8>,
    ) -> Result<(), BuildError> {
        self.serialize_wired(msg, &[], out)
    }

    /// [`SerializeSession::serialize_append`] of an echo's parsed message
    /// ([`crate::framing::WireHop`]): the element runs its parse left in
    /// the inbound `frame` ([`crate::message::Wired`]) are copied from
    /// there.
    pub(crate) fn serialize_wired(
        &mut self,
        msg: &Message<'_>,
        frame: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), BuildError> {
        self.scratch.overlay.clear();
        self.scratch.scope.clear();
        self.scratch.cursors.reset();
        // Wired runs are slots of the plan whose parse left them.
        let frame = if std::ptr::eq(msg.graph(), self.g) { frame } else { &[] };
        let start = out.len();
        let r = self.emit(self.plan.root, msg, frame, out);
        if r.is_err() {
            out.truncate(start);
        }
        r
    }

    /// Serializes `msg` into `out` (cleared first) while recording the
    /// byte range every plan slot produced into `spans` (cleared first,
    /// pre-order). This is the plan-introspection feed for grammar-aware
    /// fuzzing ([`crate::fuzz`]): the spans mark exactly the field and
    /// scope boundaries the compiled plan committed to, so mutations can
    /// target them instead of random offsets.
    ///
    /// # Errors
    ///
    /// See [`SerializeSession::serialize_into`]. On error `spans` holds
    /// the prefix traced before the failure.
    pub fn serialize_traced(
        &mut self,
        msg: &Message<'_>,
        out: &mut Vec<u8>,
        spans: &mut Vec<SlotSpan>,
    ) -> Result<(), BuildError> {
        out.clear();
        self.scratch.trace.clear();
        self.scratch.tracing = true;
        let r = self.serialize_append(msg, out);
        self.scratch.tracing = false;
        spans.clear();
        spans.append(&mut self.scratch.trace);
        r
    }

    /// Serializes with a deterministic RNG seed for the serialization-time
    /// random material (pads, shares of auto-field splits).
    ///
    /// # Errors
    ///
    /// See [`SerializeSession::serialize_into`].
    pub fn serialize_into_seeded(
        &mut self,
        msg: &Message<'_>,
        out: &mut Vec<u8>,
        seed: u64,
    ) -> Result<(), BuildError> {
        self.reseed(seed);
        self.serialize_into(msg, out)
    }

    fn obf_name(&self, idx: u32) -> String {
        self.g.node(ObfId(idx)).name().to_string()
    }

    fn plain_name(&self, idx: u32) -> String {
        self.g.plain().node(NodeId(idx)).name().to_string()
    }

    fn emit(
        &mut self,
        idx: u32,
        msg: &Message<'_>,
        frame: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), BuildError> {
        if !self.scratch.tracing {
            return self.emit_inner(idx, msg, frame, out);
        }
        let at = self.scratch.trace.len();
        let start = out.len() as u32;
        let depth = self.scratch.scope.len() as u8;
        self.scratch.trace.push(SlotSpan { slot: idx, start, end: start, depth });
        let r = self.emit_inner(idx, msg, frame, out);
        self.scratch.trace[at].end = out.len() as u32;
        r
    }

    fn emit_inner(
        &mut self,
        idx: u32,
        msg: &Message<'_>,
        frame: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), BuildError> {
        let plan = self.plan;
        let node = &plan.nodes[idx as usize];
        match &node.op {
            PlanOp::Dead => Ok(()),
            PlanOp::Term { base, boundary } => {
                self.terminal_bytes(idx, base, msg, out)?;
                if let TermB::Delim(d) = boundary {
                    out.extend_from_slice(&plan.bytes[*d as usize]);
                }
                Ok(())
            }
            PlanOp::Split { base, first_term } => {
                self.materialize_if_needed(idx, base, *first_term, msg)?;
                for &c in plan.kids(node) {
                    self.emit(c, msg, frame, out)?;
                }
                Ok(())
            }
            PlanOp::Seq { boundary } => {
                let start = out.len();
                for &c in plan.kids(node) {
                    self.emit(c, msg, frame, out)?;
                }
                let emitted = (out.len() - start) as u64;
                match *boundary {
                    SeqB::Fixed(k) => {
                        if emitted != u64::from(k) {
                            return Err(BuildError::LengthInconsistent {
                                path: self.obf_name(idx),
                                declared: u64::from(k),
                                actual: emitted,
                            });
                        }
                    }
                    SeqB::PlainLen { r, r_depth, r_endian } => {
                        let declared = self.msg_uint(r, r_depth, r_endian, msg)?;
                        if declared != emitted {
                            return Err(BuildError::LengthInconsistent {
                                path: self.obf_name(idx),
                                declared,
                                actual: emitted,
                            });
                        }
                    }
                    SeqB::Delegated | SeqB::End => {}
                }
                Ok(())
            }
            PlanOp::Opt { subject, subject_depth, pred, origin, origin_depth } => {
                let s = &mut self.scratch;
                let od = (*origin_depth as usize).min(s.scope.len());
                let o = *origin as usize;
                let present = msg
                    .presence
                    .get_seq(o, &s.scope[..od], &mut s.cursors.presence[o])
                    .unwrap_or(false);
                let pred = &plan.preds[*pred as usize];
                let implied =
                    self.read_ref(*subject, *subject_depth, msg, |v| pred_eval(pred, v))?;
                if implied != present {
                    return Err(BuildError::OptionalMismatch {
                        path: self.obf_name(idx),
                        detail: format!(
                            "condition on {:?} implies present={implied} but message says {present}",
                            self.plain_name(*subject)
                        ),
                    });
                }
                if present {
                    self.emit(plan.kids(node)[0], msg, frame, out)
                } else {
                    Ok(())
                }
            }
            PlanOp::Rep { stop, .. } => {
                let m = self.element_count(idx, msg)?;
                self.emit_elements(idx, m, msg, frame, out)?;
                if let RepStopC::Terminator(t) = stop {
                    out.extend_from_slice(&plan.bytes[*t as usize]);
                }
                Ok(())
            }
            PlanOp::Tab { .. } => {
                let m = self.element_count(idx, msg)?;
                self.emit_elements(idx, m, msg, frame, out)
            }
            PlanOp::Mirror => {
                let child = plan.kids(node)[0];
                // A counted child with an element run: its kernel scatters
                // backwards straight into the mirrored wire (the child
                // adds no bytes of its own around its elements). Never
                // while tracing, which records the child's span through
                // the walk.
                if plan.runs[child as usize].is_some() && !self.scratch.tracing {
                    let m = self.element_count(child, msg)?;
                    if self.emit_run(child, m, msg, frame, out, true) {
                        return Ok(());
                    }
                }
                let start = out.len();
                self.emit(child, msg, frame, out)?;
                out[start..].reverse();
                Ok(())
            }
            PlanOp::Prefixed { width, endian } => {
                let w = *width as usize;
                let pstart = out.len();
                out.resize(pstart + w, 0);
                self.emit(plan.kids(node)[0], msg, frame, out)?;
                let blen = out.len() - pstart - w;
                if !fill_uint(&mut out[pstart..pstart + w], blen as u64, *endian) {
                    return Err(BuildError::DerivedOverflow {
                        path: self.obf_name(idx),
                        width: w,
                        value: blen as u64,
                    });
                }
                Ok(())
            }
        }
    }

    /// The element count of counted container or repetition `idx`: its
    /// origin's count in the message, which a tabular's counter must
    /// declare.
    fn element_count(&mut self, idx: u32, msg: &Message<'_>) -> Result<usize, BuildError> {
        let (origin, origin_depth) = match self.plan.nodes[idx as usize].op {
            PlanOp::Rep { origin, origin_depth, .. } => (origin, origin_depth),
            PlanOp::Tab { origin, origin_depth, .. } => (origin, origin_depth),
            _ => unreachable!("only containers count elements"),
        };
        assert_ne!(origin, NONE, "repetitions and tabulars always have plain origins");
        let od = (origin_depth as usize).min(self.scratch.scope.len());
        let m = msg.count_of(NodeId(origin), &self.scratch.scope[..od]);
        if let PlanOp::Tab { counter, counter_depth, counter_endian, .. } =
            self.plan.nodes[idx as usize].op
        {
            let declared = self.msg_uint(counter, counter_depth, counter_endian, msg)?;
            if declared != m as u64 {
                return Err(BuildError::LengthInconsistent {
                    path: self.obf_name(idx),
                    declared,
                    actual: m as u64,
                });
            }
        }
        Ok(m)
    }

    /// Emits the `m` elements of container `idx`: through the element
    /// kernel ([`Self::emit_run`]) when the container has an element run
    /// and the kernel takes the store's shape (never while tracing, which
    /// records spans through the walk), otherwise through the per-element
    /// walk.
    fn emit_elements(
        &mut self,
        idx: u32,
        m: usize,
        msg: &Message<'_>,
        frame: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), BuildError> {
        let plan = self.plan;
        if plan.runs[idx as usize].is_some()
            && !self.scratch.tracing
            && self.emit_run(idx, m, msg, frame, out, false)
        {
            return Ok(());
        }
        let child = plan.kids(&plan.nodes[idx as usize])[0];
        for i in 0..m {
            self.scratch.scope.push(i as u32);
            let piece = self.emit(child, msg, frame, out);
            self.scratch.scope.pop();
            piece?;
        }
        Ok(())
    }

    /// The element kernel of counted container `slot`, for when every
    /// column of the `m` elements is stored as one run
    /// ([`WireStore::run`]) or is an absent pad. It writes the elements in
    /// blocks of about [`BLOCK`] bytes: into each block, every stored
    /// column scatters its values (a mirrored column's reversed), then the
    /// block's absent pads are drawn in the walk's RNG order, element by
    /// element, and scattered the same way. That is what the walk's
    /// terminal reads would emit, since no overlay write reaches a run
    /// slot (verifier code P013). In an echo, elements its parse left in
    /// the inbound `frame` ([`Message::wired_block`]) are that window,
    /// copied as it is: what the kernel would write from the stores the
    /// parse would have filled. Returns `false`, with the output and the
    /// RNG as they were, for any other store shape (a field left unset, a
    /// value of another width, a column stored in pieces, pads stored for
    /// some elements only): the walk then emits the elements or names the
    /// missing field. When `backwards` (the run of a mirror's child), the
    /// output is what the walk emits before the mirror reverses it,
    /// reversed: element `j` is the `j`-th from the end, each column at its
    /// mirrored offset and reversed once more, and the pads are drawn from
    /// the last element of the output back, in the run's column order.
    fn emit_run(
        &mut self,
        slot: u32,
        m: usize,
        msg: &Message<'_>,
        frame: &[u8],
        out: &mut Vec<u8>,
        backwards: bool,
    ) -> bool {
        let run = self.plan.runs[slot as usize].as_ref().expect("a container with a run");
        let s = &mut self.scratch;
        let first = ScopeKey::element(&s.scope, 0);
        let width = run.width as usize;
        let Some(size) = m.checked_mul(width) else {
            return false;
        };
        if !msg.wired.is_empty() {
            if let Some(window) = msg.wired_block(frame, slot, &first, m, size) {
                out.extend_from_slice(window);
                return true;
            }
        }
        s.pads.clear();
        s.cols.clear();
        let mut at = 0;
        for col in &run.cols {
            let (w, slot) = (col.width as usize, col.slot as usize);
            let (off, rev) = if backwards { (width - at - w, !col.rev) } else { (at, col.rev) };
            match msg.wires.run(slot, &first, m, s.cursors.wire[slot]) {
                Some(Stored::Absent) if matches!(col.base, BaseOp::Pad { k } if k == col.width) => {
                    s.pads.push((off, w, rev));
                }
                Some(Stored::Run { start, width, stride, next }) if width == w && w > 0 => {
                    s.cols.push(ColRun { slot, at: off, w, rev, start, stride, next });
                }
                _ => return false,
            }
            at += w;
        }
        let base = out.len();
        out.resize(base + size, 0);
        let arena = msg.wires.arena();
        let pad_bytes: usize = s.pads.iter().map(|&(_, k, _)| k).sum();
        let per_block = (BLOCK / width).max(1);
        let mut b = 0;
        while b < m {
            let e = (b + per_block).min(m);
            let block = if backwards {
                &mut out[base + (m - e) * width..base + (m - b) * width]
            } else {
                &mut out[base + b * width..base + e * width]
            };
            for c in &s.cols {
                let values = &arena[c.start + b * c.stride..];
                scatter(block, (width, c.at, c.w), values, c.stride, c.rev, backwards);
            }
            if pad_bytes > 0 {
                // The block's pad draws in the walk's order (element by
                // element, pad by pad), each pad's scattered into place
                // like a column: a mirrored pad takes its draws last byte
                // first.
                s.draws.clear();
                s.draws.resize((e - b) * pad_bytes, 0);
                s.draws.iter_mut().for_each(|d| *d = s.rng.gen::<u8>());
                let mut q = 0;
                for &(at, k, rev) in &s.pads {
                    scatter(block, (width, at, k), &s.draws[q..], pad_bytes, rev, backwards);
                    q += k;
                }
            }
            b = e;
        }
        for c in &s.cols {
            s.cursors.wire[c.slot] = c.next;
        }
        true
    }

    /// Appends the wire bytes of a terminal: serialization overlay first
    /// (auto subtrees, split pads), then the message store, then generated
    /// pads. Auto-computed bases are **always** rematerialized: a parsed
    /// message may have been mutated through the accessors, so stored
    /// length/count wires can be stale.
    fn terminal_bytes(
        &mut self,
        idx: u32,
        base: &BaseOp,
        msg: &Message<'_>,
        out: &mut Vec<u8>,
    ) -> Result<(), BuildError> {
        let i = idx as usize;
        let s = &mut self.scratch;
        let materialized = base.is_materialized();
        if materialized && !s.overlay.contains_seq(i, &s.scope, &mut s.cursors.overlay[i]) {
            self.materialize(idx, base, msg)?;
        }
        let s = &mut self.scratch;
        if let Some(b) = s.overlay.get_seq(i, &s.scope, &mut s.cursors.overlay[i]) {
            out.extend_from_slice(b);
            return Ok(());
        }
        if materialized {
            return Err(BuildError::MissingField(self.obf_name(idx)));
        }
        if let Some(b) = msg.wires.get_seq(i, &s.scope, &mut s.cursors.wire[i]) {
            out.extend_from_slice(b);
            return Ok(());
        }
        match base {
            BaseOp::Pad { k } => {
                out.extend((0..*k).map(|_| rand::Rng::gen::<u8>(&mut self.scratch.rng)));
                Ok(())
            }
            BaseOp::Source { plain } => Err(BuildError::MissingField(self.plain_name(*plain))),
            _ => Err(BuildError::MissingField(self.obf_name(idx))),
        }
    }

    /// When a split sequence's base is auto-computed (or a pad), its
    /// children's wires are not in the message: distribute them into the
    /// overlay now. Auto bases always rematerialize (stored wires may be
    /// stale after mutation); split pads reuse stored wires when present.
    fn materialize_if_needed(
        &mut self,
        idx: u32,
        base: &BaseOp,
        first_term: u32,
        msg: &Message<'_>,
    ) -> Result<(), BuildError> {
        let s = &mut self.scratch;
        let t = first_term as usize;
        match base {
            _ if base.is_materialized() => {
                if first_term != NONE
                    && s.overlay.contains_seq(t, &s.scope, &mut s.cursors.overlay[t])
                {
                    return Ok(());
                }
                self.materialize(idx, base, msg)
            }
            BaseOp::Pad { .. } => {
                let stored = first_term != NONE
                    && msg.wires.contains_seq(t, &s.scope, &mut s.cursors.wire[t]);
                if stored {
                    Ok(())
                } else {
                    self.materialize(idx, base, msg)
                }
            }
            _ => Ok(()),
        }
    }

    /// Computes an auto/pad/const base value and distributes it through the
    /// subtree rooted at `idx` into the overlay, running the plan's
    /// compiled distribution program — no graph walk, no per-value heap
    /// allocation in steady state.
    fn materialize(
        &mut self,
        idx: u32,
        base: &BaseOp,
        msg: &Message<'_>,
    ) -> Result<(), BuildError> {
        let g = self.g;
        let plan = self.plan;
        let SerializeScratch { overlay, scope, dist, rng, .. } = &mut self.scratch;
        let plain_name = |p: u32| g.plain().node(NodeId(p)).name().to_string();
        let obf_name = |o: u32| g.node(ObfId(o)).name().to_string();
        let buf = dist.input();
        match base {
            BaseOp::AutoLen { target, depth, width, endian } => {
                let td = (*depth as usize).min(scope.len());
                let len = msg
                    .plain_len(NodeId(*target), &scope[..td])
                    .ok_or_else(|| BuildError::MissingField(plain_name(*target)))?;
                if !push_uint(buf, len as u64, *width as usize, *endian) {
                    return Err(BuildError::DerivedOverflow {
                        path: obf_name(idx),
                        width: *width as usize,
                        value: len as u64,
                    });
                }
            }
            BaseOp::AutoCount { target, depth, width, endian } => {
                let td = (*depth as usize).min(scope.len());
                let count = msg.count_of(NodeId(*target), &scope[..td]);
                if !push_uint(buf, count as u64, *width as usize, *endian) {
                    return Err(BuildError::DerivedOverflow {
                        path: obf_name(idx),
                        width: *width as usize,
                        value: count as u64,
                    });
                }
            }
            BaseOp::Const { pool } => {
                buf.extend_from_slice(plan.consts[*pool as usize].as_bytes());
            }
            BaseOp::Pad { k } => {
                for _ in 0..*k {
                    let b = rand::Rng::gen::<u8>(rng);
                    buf.push(b);
                }
            }
            _ => unreachable!("materialize only handles auto/pad/const bases"),
        };
        let prog = plan.dist[idx as usize]
            .expect("materializable bases always compile a distribution program");
        dist.eval(plan, prog, rng, &mut |obf, bytes| {
            overlay.set(obf as usize, scope, bytes);
        })
        .map_err(|e| e.into_build_error(g))
    }

    /// The one reader of referenced plain values (optional subjects,
    /// length and counter references): runs `x`'s compiled recovery
    /// program at its container depth over the serialization overlay
    /// (materialized auto subtrees) and then the message wires, read
    /// through the per-slot cursors ([`WireStore::get_seq`]), and hands
    /// the value to `f`. Auto fields that were never materialized fall
    /// back to [`Message::value_at`].
    fn read_ref<T>(
        &mut self,
        x: u32,
        depth: u8,
        msg: &Message<'_>,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, BuildError> {
        let plan = self.plan;
        let SerializeScratch { ev, overlay, scope, cursors, .. } = &mut self.scratch;
        let xscope = &scope[..(depth as usize).min(scope.len())];
        if let Some(prog) = plan.rec[x as usize] {
            // Through the emit walk's sequential cursors: a reference
            // read in walk order is one check, any other a search.
            let load = &mut |obf: u32, sc: &[u32], buf: &mut Vec<u8>| {
                let o = obf as usize;
                let value = overlay
                    .get_seq(o, sc, &mut cursors.overlay[o])
                    .or_else(|| msg.wires.get_seq(o, sc, &mut cursors.wire[o]));
                value.map(|b| buf.extend_from_slice(b)).is_some()
            };
            if let Some((s, l)) = ev.eval(plan, prog, xscope, load) {
                return Ok(f(&ev.buf[s..s + l]));
            }
        }
        match msg.value_at(NodeId(x), xscope) {
            Some(v) => Ok(f(v.as_bytes())),
            None => Err(BuildError::MissingField(self.plain_name(x))),
        }
    }

    /// A referenced numeric field's plain value (see
    /// [`SerializeSession::read_ref`]).
    fn msg_uint(
        &mut self,
        r: u32,
        depth: u8,
        endian: crate::value::Endian,
        msg: &Message<'_>,
    ) -> Result<u64, BuildError> {
        self.read_ref(r, depth, msg, |v| bytes_to_uint(v, endian))?
            .ok_or_else(|| BuildError::NotNumeric(self.plain_name(r)))
    }
}

/// Encodes an unsigned integer directly into `out` (the allocation-free
/// analogue of [`Value::from_uint`]). Returns `false` when `v` does not fit
/// in `width` bytes.
fn push_uint(out: &mut Vec<u8>, v: u64, width: usize, endian: crate::value::Endian) -> bool {
    if width == 0 || width > 8 {
        return false;
    }
    let start = out.len();
    out.resize(start + width, 0);
    fill_uint(&mut out[start..], v, endian)
}

/// Encodes an unsigned integer into an exact-width slice. Returns `false`
/// (leaving zeros) when `v` does not fit.
fn fill_uint(dst: &mut [u8], v: u64, endian: crate::value::Endian) -> bool {
    let width = dst.len();
    if width == 0 || width > 8 || (width < 8 && v >= 1u64 << (8 * width)) {
        return false;
    }
    match endian {
        crate::value::Endian::Big => {
            for (i, b) in dst.iter_mut().enumerate() {
                *b = (v >> (8 * (width - 1 - i))) as u8;
            }
        }
        crate::value::Endian::Little => {
            for (i, b) in dst.iter_mut().enumerate() {
                *b = (v >> (8 * i)) as u8;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, Condition, GraphBuilder, Predicate, StopRule};
    use crate::plan::CodecPlan;
    use crate::reference;
    use crate::value::{TerminalKind, Value};

    fn modbus_mini() -> ObfGraph {
        let mut b = GraphBuilder::new("mb");
        let root = b.root_sequence("frame", Boundary::End);
        let _tid = b.uint_be(root, "tid", 2);
        let len = b.uint_be(root, "len", 2);
        let pdu = b.sequence(root, "pdu", Boundary::Delegated);
        b.set_auto(len, AutoValue::LengthOf(pdu));
        let func = b.uint_be(pdu, "func", 1);
        let wr = b.optional(
            pdu,
            "write",
            Condition { subject: func, predicate: Predicate::Equals(Value::from_bytes(vec![6])) },
        );
        let wbody = b.sequence(wr, "write_body", Boundary::Delegated);
        b.uint_be(wbody, "addr", 2);
        b.uint_be(wbody, "value", 2);
        ObfGraph::from_plain(&b.build().unwrap())
    }

    fn session_wire(g: &ObfGraph, m: &Message<'_>, seed: u64) -> Result<Vec<u8>, BuildError> {
        let plan = CodecPlan::compile(g);
        let mut s = SerializeSession::new(g, &plan);
        let mut out = Vec::new();
        s.serialize_into_seeded(m, &mut out, seed)?;
        Ok(out)
    }

    #[test]
    fn plain_serialization_matches_classic_wire_format() {
        let g = modbus_mini();
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 0x0102).unwrap();
        m.set_uint("pdu.func", 6).unwrap();
        m.set_uint("pdu.write.addr", 0x0010).unwrap();
        m.set_uint("pdu.write.value", 0xBEEF).unwrap();
        let wire = reference::serialize(&g, &m, 9).unwrap();
        assert_eq!(
            wire,
            vec![0x01, 0x02, 0x00, 0x05, 0x06, 0x00, 0x10, 0xBE, 0xEF],
            "tid, auto len=5, func, addr, value"
        );
        // The plan interpreter must agree byte-for-byte.
        assert_eq!(session_wire(&g, &m, 9).unwrap(), wire);
    }

    #[test]
    fn absent_optional_is_skipped_and_len_shrinks() {
        let g = modbus_mini();
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 1).unwrap();
        m.set_uint("pdu.func", 3).unwrap(); // not 6: optional absent
        let wire = reference::serialize(&g, &m, 9).unwrap();
        assert_eq!(wire, vec![0x00, 0x01, 0x00, 0x01, 0x03]);
        assert_eq!(session_wire(&g, &m, 9).unwrap(), wire);
    }

    #[test]
    fn optional_mismatch_detected() {
        let g = modbus_mini();
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 1).unwrap();
        m.set_uint("pdu.func", 3).unwrap();
        // Force presence although func != 6.
        m.set_uint("pdu.write.addr", 1).unwrap();
        m.set_uint("pdu.write.value", 1).unwrap();
        assert!(matches!(
            reference::serialize(&g, &m, 9),
            Err(BuildError::OptionalMismatch { .. })
        ));
        assert!(matches!(session_wire(&g, &m, 9), Err(BuildError::OptionalMismatch { .. })));
    }

    #[test]
    fn missing_required_field_reported_with_plain_name() {
        let g = modbus_mini();
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("pdu.func", 3).unwrap();
        match reference::serialize(&g, &m, 9) {
            Err(BuildError::MissingField(f)) => assert_eq!(f, "tid"),
            other => panic!("expected MissingField, got {other:?}"),
        }
        match session_wire(&g, &m, 9) {
            Err(BuildError::MissingField(f)) => assert_eq!(f, "tid"),
            other => panic!("expected MissingField, got {other:?}"),
        }
    }

    #[test]
    fn repetition_with_terminator_and_delimited_fields() {
        let mut b = GraphBuilder::new("http-ish");
        let root = b.root_sequence("m", Boundary::End);
        let rep = b.repetition(
            root,
            "headers",
            StopRule::Terminator(b"\r\n".to_vec()),
            Boundary::Delegated,
        );
        let h = b.sequence(rep, "header", Boundary::Delegated);
        b.terminal(h, "name", TerminalKind::Ascii, Boundary::Delimited(b": ".to_vec()));
        b.terminal(h, "value", TerminalKind::Ascii, Boundary::Delimited(b"\r\n".to_vec()));
        let g = ObfGraph::from_plain(&b.build().unwrap());

        let mut m = Message::with_seed(&g, 1);
        m.set_str("headers[0].name", "Host").unwrap();
        m.set_str("headers[0].value", "example.org").unwrap();
        m.set_str("headers[1].name", "Accept").unwrap();
        m.set_str("headers[1].value", "*/*").unwrap();
        let wire = reference::serialize(&g, &m, 1).unwrap();
        assert_eq!(wire, b"Host: example.org\r\nAccept: */*\r\n\r\n");
        assert_eq!(session_wire(&g, &m, 1).unwrap(), wire);
    }

    #[test]
    fn tabular_serializes_counted_elements() {
        let mut b = GraphBuilder::new("tab");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 1);
        let tab = b.tabular(root, "vals", count);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let item = b.sequence(tab, "val", Boundary::Delegated);
        b.uint_be(item, "v", 2);
        let g = ObfGraph::from_plain(&b.build().unwrap());

        let mut m = Message::with_seed(&g, 1);
        m.set_uint("vals[0].v", 0x0a0b).unwrap();
        m.set_uint("vals[1].v", 0x0c0d).unwrap();
        let wire = reference::serialize(&g, &m, 1).unwrap();
        assert_eq!(wire, vec![2, 0x0a, 0x0b, 0x0c, 0x0d]);
        assert_eq!(session_wire(&g, &m, 1).unwrap(), wire);
    }

    #[test]
    fn session_reuse_is_stable() {
        let g = modbus_mini();
        let plan = CodecPlan::compile(&g);
        let mut s = SerializeSession::new(&g, &plan);
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 5).unwrap();
        m.set_uint("pdu.func", 1).unwrap();
        let mut out = Vec::new();
        s.serialize_into_seeded(&m, &mut out, 3).unwrap();
        let first = out.clone();
        for _ in 0..10 {
            s.serialize_into_seeded(&m, &mut out, 3).unwrap();
            assert_eq!(out, first, "session reuse must be deterministic");
        }
    }
}
