//! The deobfuscating parser.
//!
//! Two implementations share the same semantics:
//!
//! * [`ParseSession`] — the production path: an interpreter over the
//!   compiled [`CodecPlan`]. Wire values go into
//!   slot-backed dense stores, structurally needed references are
//!   recovered through compiled [`RecStep`](crate::plan) programs with
//!   reusable scratch buffers, and the session's message is reused across
//!   calls — steady-state parsing performs no hashing and no per-message
//!   heap allocation.
//! * [`parse`] — the **reference interpreter**: a direct recursive walk of
//!   the obfuscation graph, kept as the executable specification the plan
//!   path is differentially tested against.
//!
//! Parsing undoes the ordering transformations structurally (windows,
//! mirrors, length prefixes, split repetitions) and collects the wire
//! value of every terminal. Values the parser needs *during* parsing —
//! length references, tabular counters, optional conditions, linked
//! repetition counts — are recovered eagerly by inverting the aggregation
//! transformations (paper §V-C).

use std::collections::HashMap;

use crate::error::ParseError;
use crate::graph::NodeId;
use crate::message::{Message, MessageState, MetaStore, ScopeKey, WireStore};
use crate::obf::{LenStep, ObfGraph, ObfId, ObfKind, RepStop, SeqBoundary, TermBoundary};
use crate::plan::{
    bytes_to_uint, pred_eval, AutoCheckKind, CodecPlan, PlanOp, RecEval, RepStopC, SeqB, TermB,
    NONE,
};
use crate::runtime::{self, Scope};
use crate::value::{Endian, TerminalKind, Value};

/// Upper bound on zero-length tabular elements per container instance.
/// Zero-size elements are legitimate under obfuscation (a `TabSplit` half
/// whose pieces are empty), but they consume no input, so a hostile
/// counter could otherwise drive unbounded work and memory. No real
/// protocol carries more than a u16's worth of empty elements.
const MAX_EMPTY_ELEMENTS: usize = 1 << 16;

// ---------------------------------------------------------------------------
// plan interpreter
// ---------------------------------------------------------------------------

/// A reusable parse session over a compiled codec plan.
///
/// Obtain one from [`crate::codec::Codec::parser`] and keep it for the
/// connection's lifetime. [`ParseSession::parse_in_place`] reuses the
/// session's internal [`Message`] and scratch stores: after warm-up,
/// parsing allocates nothing.
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
/// let mut session = codec.parser();
/// let msg = session.parse_in_place(&[0, 7])?;
/// assert_eq!(msg.get_uint("id")?, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParseSession<'c> {
    g: &'c ObfGraph,
    plan: &'c CodecPlan,
    msg: Message<'c>,
    /// Parsed element counts per repetition slot (copy-language checks).
    rep_counts: MetaStore<usize>,
    /// Memoized recovered plain values, per plain slot.
    recovered: WireStore,
    ev: RecEval,
    scope: Vec<u32>,
    /// Reversed-window scratch, one buffer per mirror nesting level.
    mirror_pool: Vec<Vec<u8>>,
    mirror_depth: usize,
    /// Scratch for auto-verification scope collection.
    keys: Vec<ScopeKey>,
}

/// The lifetime-free scratch state of a [`ParseSession`]: everything the
/// session owns besides its borrows of the graph and plan. Pooled by
/// [`crate::service::CodecService`] so worker sessions can be checked out
/// and in without losing their warmed-up capacities.
#[derive(Debug)]
pub(crate) struct ParseScratch {
    msg: MessageState,
    rep_counts: MetaStore<usize>,
    recovered: WireStore,
    ev: RecEval,
    scope: Vec<u32>,
    mirror_pool: Vec<Vec<u8>>,
    keys: Vec<ScopeKey>,
}

impl<'c> ParseSession<'c> {
    pub(crate) fn new(g: &'c ObfGraph, plan: &'c CodecPlan) -> Self {
        ParseSession {
            g,
            plan,
            msg: Message::new(g),
            rep_counts: MetaStore::with_slots(plan.slots()),
            recovered: WireStore::with_slots(plan.plain_len()),
            ev: RecEval::default(),
            scope: Vec::new(),
            mirror_pool: Vec::new(),
            mirror_depth: 0,
            keys: Vec::new(),
        }
    }

    /// Rebinds pooled scratch state to the graph/plan it was created for.
    pub(crate) fn from_scratch(
        g: &'c ObfGraph,
        plan: &'c CodecPlan,
        scratch: ParseScratch,
    ) -> Self {
        debug_assert_eq!(scratch.recovered.slots(), plan.plain_len(), "scratch plan mismatch");
        ParseSession {
            g,
            plan,
            msg: Message::from_state(g, scratch.msg),
            rep_counts: scratch.rep_counts,
            recovered: scratch.recovered,
            ev: scratch.ev,
            scope: scratch.scope,
            mirror_pool: scratch.mirror_pool,
            mirror_depth: 0,
            keys: scratch.keys,
        }
    }

    /// Takes the scratch state back out for pooling.
    pub(crate) fn into_scratch(self) -> ParseScratch {
        ParseScratch {
            msg: self.msg.into_state(),
            rep_counts: self.rep_counts,
            recovered: self.recovered,
            ev: self.ev,
            scope: self.scope,
            mirror_pool: self.mirror_pool,
            keys: self.keys,
        }
    }

    /// Parses one obfuscated message into the session's internal
    /// [`Message`] (cleared first, capacity kept) and returns a borrow of
    /// it. The previous parse result is overwritten.
    ///
    /// # Errors
    ///
    /// [`ParseError`] when the bytes do not form a valid message under
    /// this codec's plan (truncation, missing delimiters, inconsistent
    /// lengths/counts, trailing bytes).
    pub fn parse_in_place(&mut self, bytes: &[u8]) -> Result<&Message<'c>, ParseError> {
        self.msg.clear();
        self.rep_counts.clear();
        self.recovered.clear();
        self.scope.clear();
        self.mirror_depth = 0;
        let mut pos = 0usize;
        self.parse_node(self.plan.root, bytes, &mut pos, bytes.len(), true)?;
        if pos != bytes.len() {
            return Err(ParseError::TrailingBytes {
                node: self.obf_name(self.plan.root),
                remaining: bytes.len() - pos,
            });
        }
        self.verify_autos()?;
        Ok(&self.msg)
    }

    /// Borrows the session's internal message — the result of the last
    /// successful [`ParseSession::parse_in_place`]. Long-lived holders
    /// (e.g. transport connections) use this to re-borrow the parse result
    /// after interleaved buffer bookkeeping, without taking ownership.
    pub fn message(&self) -> &Message<'c> {
        &self.msg
    }

    /// Consumes the session, returning the last parsed message.
    pub fn into_message(self) -> Message<'c> {
        self.msg
    }

    /// Takes the parsed message out of the session, leaving a fresh one
    /// (the only allocating operation of a steady-state session; prefer
    /// borrowing via [`ParseSession::parse_in_place`] when possible).
    pub fn take_message(&mut self) -> Message<'c> {
        std::mem::replace(&mut self.msg, Message::new(self.g))
    }

    fn obf_name(&self, idx: u32) -> String {
        self.g.node(ObfId(idx)).name().to_string()
    }

    fn plain_name(&self, idx: u32) -> String {
        self.g.plain().node(NodeId(idx)).name().to_string()
    }

    fn parse_node(
        &mut self,
        idx: u32,
        buf: &[u8],
        pos: &mut usize,
        end: usize,
        tail: bool,
    ) -> Result<(), ParseError> {
        let plan = self.plan;
        let node = &plan.nodes[idx as usize];
        match &node.op {
            PlanOp::Dead => Ok(()),
            PlanOp::Term { boundary, .. } => {
                let (start, vend) = match boundary {
                    TermB::Fixed(k) => self.take(idx, pos, end, *k as usize)?,
                    TermB::PlainLen { r, r_depth, r_endian, steps } => {
                        let mut k = self.recover_uint(*r, *r_depth, *r_endian)? as usize;
                        for s in &plan.steps[steps.0 as usize..(steps.0 + steps.1) as usize] {
                            k = s.apply(k);
                        }
                        self.take(idx, pos, end, k)?
                    }
                    TermB::Delim(d) => {
                        let delim = &plan.bytes[*d as usize];
                        match runtime::find(buf, delim, *pos, end) {
                            Some(f) => {
                                let r = (*pos, f);
                                *pos = f + delim.len();
                                r
                            }
                            None => {
                                return Err(ParseError::DelimiterNotFound {
                                    node: self.obf_name(idx),
                                })
                            }
                        }
                    }
                    TermB::End => {
                        let r = (*pos, end);
                        *pos = end;
                        r
                    }
                };
                self.msg.wires.set(idx as usize, &self.scope, &buf[start..vend]);
                Ok(())
            }
            PlanOp::Split { .. } => {
                let kids = plan.kids(node);
                let n = kids.len();
                for (i, &c) in kids.iter().enumerate() {
                    self.parse_node(c, buf, pos, end, tail && i + 1 == n)?;
                }
                Ok(())
            }
            PlanOp::Seq { boundary } => {
                let window = match *boundary {
                    SeqB::Fixed(k) => Some(k as usize),
                    SeqB::PlainLen { r, r_depth, r_endian } => {
                        Some(self.recover_uint(r, r_depth, r_endian)? as usize)
                    }
                    SeqB::Delegated | SeqB::End => None,
                };
                let (sub_end, sub_tail) = match window {
                    Some(k) => {
                        if k > end - *pos {
                            return Err(ParseError::UnexpectedEnd {
                                node: self.obf_name(idx),
                                needed: k,
                                available: end - *pos,
                            });
                        }
                        (*pos + k, true)
                    }
                    None => (end, tail),
                };
                let kids = plan.kids(node);
                let n = kids.len();
                for (i, &c) in kids.iter().enumerate() {
                    self.parse_node(c, buf, pos, sub_end, sub_tail && i + 1 == n)?;
                }
                if window.is_some() && *pos != sub_end {
                    return Err(ParseError::TrailingBytes {
                        node: self.obf_name(idx),
                        remaining: sub_end - *pos,
                    });
                }
                Ok(())
            }
            PlanOp::Opt { subject, subject_depth, pred, origin, origin_depth } => {
                let key = self.scope_key(*subject_depth);
                self.ensure_recovered(*subject, key)?;
                let bytes =
                    self.recovered.get(*subject as usize, key.as_slice()).expect("just recovered");
                let present = pred_eval(&plan.preds[*pred as usize], bytes);
                let od = (*origin_depth as usize).min(self.scope.len());
                let okey = ScopeKey::from_slice(&self.scope[..od]);
                self.msg.presence.set(*origin as usize, okey.as_slice(), present);
                if present {
                    self.parse_node(plan.kids(node)[0], buf, pos, end, tail)?;
                }
                Ok(())
            }
            PlanOp::Rep { stop, origin, origin_depth } => {
                let elem = plan.kids(node)[0];
                let mut i = 0usize;
                match stop {
                    RepStopC::Terminator(t) => loop {
                        let term = &plan.bytes[*t as usize];
                        if *pos + term.len() <= end
                            && &buf[*pos..*pos + term.len()] == term.as_slice()
                        {
                            *pos += term.len();
                            break;
                        }
                        if *pos >= end {
                            return Err(ParseError::DelimiterNotFound { node: self.obf_name(idx) });
                        }
                        let before = *pos;
                        self.scope.push(i as u32);
                        let r = self.parse_node(elem, buf, pos, end, false);
                        self.scope.pop();
                        r?;
                        if *pos == before {
                            return Err(ParseError::Malformed {
                                node: self.obf_name(idx),
                                detail: "zero-length repetition element".into(),
                            });
                        }
                        i += 1;
                    },
                    RepStopC::Exhausted => {
                        while *pos < end {
                            let before = *pos;
                            self.scope.push(i as u32);
                            let r = self.parse_node(elem, buf, pos, end, false);
                            self.scope.pop();
                            r?;
                            if *pos == before {
                                return Err(ParseError::Malformed {
                                    node: self.obf_name(idx),
                                    detail: "zero-length repetition element".into(),
                                });
                            }
                            i += 1;
                        }
                    }
                    RepStopC::CountOf(first) => {
                        let m = self.resolve_count(*first).ok_or_else(|| {
                            ParseError::UnresolvedReference {
                                node: self.obf_name(idx),
                                referenced: self.obf_name(*first),
                            }
                        })?;
                        for j in self.parse_run(idx, m, buf, pos, end) {
                            self.scope.push(j as u32);
                            let r = self.parse_node(elem, buf, pos, end, false);
                            self.scope.pop();
                            r?;
                        }
                        i = m;
                    }
                }
                self.rep_counts.set(idx as usize, &self.scope, i);
                if *origin != NONE {
                    let od = (*origin_depth as usize).min(self.scope.len());
                    let okey = ScopeKey::from_slice(&self.scope[..od]);
                    if let Some(prev) = self.msg.counts.get(*origin as usize, okey.as_slice()) {
                        if prev != i {
                            return Err(ParseError::CountMismatch {
                                node: self.obf_name(idx),
                                left: prev,
                                right: i,
                            });
                        }
                    }
                    self.msg.counts.set(*origin as usize, okey.as_slice(), i);
                }
                Ok(())
            }
            PlanOp::Tab { counter, counter_depth, counter_endian, origin, origin_depth } => {
                let m = self.recover_uint(*counter, *counter_depth, *counter_endian)? as usize;
                let elem = plan.kids(node)[0];
                let mut empties = 0usize;
                for j in self.parse_run(idx, m, buf, pos, end) {
                    let before = *pos;
                    self.scope.push(j as u32);
                    let r = self.parse_node(elem, buf, pos, end, false);
                    self.scope.pop();
                    r?;
                    if *pos == before {
                        empties += 1;
                        if empties > MAX_EMPTY_ELEMENTS {
                            return Err(ParseError::Malformed {
                                node: self.obf_name(idx),
                                detail: "counter drives too many zero-length elements".into(),
                            });
                        }
                    }
                }
                if *origin != NONE {
                    let od = (*origin_depth as usize).min(self.scope.len());
                    let okey = ScopeKey::from_slice(&self.scope[..od]);
                    self.msg.counts.set(*origin as usize, okey.as_slice(), m);
                }
                Ok(())
            }
            PlanOp::Mirror => {
                let child = plan.kids(node)[0];
                let e = match self.extent(child)? {
                    Some(e) => e,
                    None if tail => end - *pos,
                    None => {
                        return Err(ParseError::Malformed {
                            node: self.obf_name(idx),
                            detail: "cannot determine mirrored extent".into(),
                        })
                    }
                };
                if e > end - *pos {
                    return Err(ParseError::UnexpectedEnd {
                        node: self.obf_name(idx),
                        needed: e,
                        available: end - *pos,
                    });
                }
                let d = self.mirror_depth;
                if self.mirror_pool.len() <= d {
                    self.mirror_pool.push(Vec::new());
                }
                let mut tmp = std::mem::take(&mut self.mirror_pool[d]);
                tmp.clear();
                tmp.extend(buf[*pos..*pos + e].iter().rev());
                self.mirror_depth = d + 1;
                let mut ipos = 0usize;
                let r = self.parse_node(child, &tmp, &mut ipos, e, true);
                self.mirror_depth = d;
                self.mirror_pool[d] = tmp;
                r?;
                if ipos != e {
                    return Err(ParseError::TrailingBytes {
                        node: self.obf_name(idx),
                        remaining: e - ipos,
                    });
                }
                *pos += e;
                Ok(())
            }
            PlanOp::Prefixed { width, endian } => {
                let w = *width as usize;
                if *pos + w > end {
                    return Err(ParseError::UnexpectedEnd {
                        node: self.obf_name(idx),
                        needed: w,
                        available: end - *pos,
                    });
                }
                let n = bytes_to_uint(&buf[*pos..*pos + w], *endian).expect("prefix width <= 8")
                    as usize;
                *pos += w;
                if n > end - *pos {
                    return Err(ParseError::Malformed {
                        node: self.obf_name(idx),
                        detail: format!("length prefix {n} overflows the window"),
                    });
                }
                let sub_end = *pos + n;
                self.parse_node(plan.kids(node)[0], buf, pos, sub_end, true)?;
                if *pos != sub_end {
                    return Err(ParseError::TrailingBytes {
                        node: self.obf_name(idx),
                        remaining: sub_end - *pos,
                    });
                }
                Ok(())
            }
        }
    }

    /// The element kernel of counted container `idx`: when the container
    /// has an element run and all `m` elements fit the window (one
    /// `checked_mul`, one bounds check), stores every column of every
    /// element under one moving scope key, a mirrored column reversed as
    /// the walk stores it after un-mirroring. Returns the element indices
    /// left for the per-element walk: none after the kernel ran, all `m`
    /// otherwise, so a window overrun fails at the exact element and
    /// terminal it always did.
    fn parse_run(
        &mut self,
        idx: u32,
        m: usize,
        buf: &[u8],
        pos: &mut usize,
        end: usize,
    ) -> std::ops::Range<usize> {
        let plan = self.plan;
        let Some(run) = &plan.runs[idx as usize] else {
            return 0..m;
        };
        if m.checked_mul(run.width as usize).is_none_or(|total| total > end - *pos) {
            return 0..m;
        }
        let mut key = ScopeKey::element(&self.scope, 0);
        let mut p = *pos;
        for j in 0..m {
            key.set_last(j as u32);
            for col in &run.cols {
                let w = col.width as usize;
                self.msg.wires.set_key(col.slot as usize, &key, &buf[p..p + w], col.rev);
                p += w;
            }
        }
        *pos = p;
        0..0
    }

    fn take(
        &mut self,
        idx: u32,
        pos: &mut usize,
        end: usize,
        k: usize,
    ) -> Result<(usize, usize), ParseError> {
        if k > end - *pos {
            return Err(ParseError::UnexpectedEnd {
                node: self.obf_name(idx),
                needed: k,
                available: end - *pos,
            });
        }
        let r = (*pos, *pos + k);
        *pos += k;
        Ok(r)
    }

    /// The current scope truncated to `depth`, as an owned key (ends the
    /// borrow of the scope stack).
    fn scope_key(&self, depth: u8) -> ScopeKey {
        let d = (depth as usize).min(self.scope.len());
        ScopeKey::from_slice(&self.scope[..d])
    }

    /// Recovers the plain value of plain slot `x` at `key` into the
    /// memoized [`Self::recovered`] store (inverting aggregation
    /// transformations over the wires parsed so far).
    fn ensure_recovered(&mut self, x: u32, key: ScopeKey) -> Result<(), ParseError> {
        if self.recovered.contains(x as usize, key.as_slice()) {
            return Ok(());
        }
        let holder = self.plan.holder[x as usize];
        if holder == NONE {
            return Err(ParseError::UnresolvedReference {
                node: self.plain_name(x),
                referenced: "holder".to_string(),
            });
        }
        let prog = self.plan.rec[x as usize].ok_or_else(|| ParseError::UnresolvedReference {
            node: self.plain_name(x),
            referenced: self.obf_name(holder),
        })?;
        let plan = self.plan;
        let Self { ev, msg, .. } = self;
        let range = ev
            .eval(plan, prog, key.as_slice(), &mut |obf, sc, out| match msg
                .wires
                .get(obf as usize, sc)
            {
                Some(b) => {
                    out.extend_from_slice(b);
                    true
                }
                None => false,
            })
            .ok_or_else(|| ParseError::UnresolvedReference {
                node: self.g.plain().node(NodeId(x)).name().to_string(),
                referenced: self.g.node(ObfId(holder)).name().to_string(),
            })?;
        self.recovered.set(x as usize, key.as_slice(), &self.ev.buf[range.0..range.0 + range.1]);
        Ok(())
    }

    /// Recovers a referenced numeric field, truncating the scope to the
    /// reference's own container depth.
    fn recover_uint(&mut self, x: u32, depth: u8, endian: Endian) -> Result<u64, ParseError> {
        let key = self.scope_key(depth);
        self.recover_uint_at(x, key, endian)
    }

    fn recover_uint_at(
        &mut self,
        x: u32,
        key: ScopeKey,
        endian: Endian,
    ) -> Result<u64, ParseError> {
        self.ensure_recovered(x, key)?;
        let bytes = self.recovered.get(x as usize, key.as_slice()).expect("just recovered");
        bytes_to_uint(bytes, endian).ok_or_else(|| ParseError::Malformed {
            node: self.g.plain().node(NodeId(x)).name().to_string(),
            detail: "numeric field wider than 8 bytes".into(),
        })
    }

    /// Pre-parse extent of a subtree: `Ok(Some(n))` when computable from
    /// already-recovered values, `Ok(None)` when only forward parsing can
    /// delimit it.
    fn extent(&mut self, idx: u32) -> Result<Option<usize>, ParseError> {
        let plan = self.plan;
        let node = &plan.nodes[idx as usize];
        match &node.op {
            PlanOp::Term { boundary, .. } => match boundary {
                TermB::Fixed(k) => Ok(Some(*k as usize)),
                TermB::PlainLen { r, r_depth, r_endian, steps } => {
                    let mut k = self.recover_uint(*r, *r_depth, *r_endian)? as usize;
                    for s in &plan.steps[steps.0 as usize..(steps.0 + steps.1) as usize] {
                        k = s.apply(k);
                    }
                    Ok(Some(k))
                }
                TermB::Delim(_) | TermB::End => Ok(None),
            },
            PlanOp::Split { .. } | PlanOp::Seq { boundary: SeqB::Delegated } => {
                let (start, len) = node.children;
                self.sum_extents(start, len)
            }
            PlanOp::Seq { boundary } => match *boundary {
                SeqB::Fixed(k) => Ok(Some(k as usize)),
                SeqB::PlainLen { r, r_depth, r_endian } => {
                    Ok(Some(self.recover_uint(r, r_depth, r_endian)? as usize))
                }
                SeqB::End => Ok(None),
                SeqB::Delegated => unreachable!("handled above"),
            },
            PlanOp::Opt { subject, subject_depth, pred, .. } => {
                let key = self.scope_key(*subject_depth);
                self.ensure_recovered(*subject, key)?;
                let bytes =
                    self.recovered.get(*subject as usize, key.as_slice()).expect("just recovered");
                if pred_eval(&plan.preds[*pred as usize], bytes) {
                    self.extent(plan.kids(node)[0])
                } else {
                    Ok(Some(0))
                }
            }
            PlanOp::Rep { stop, .. } => match stop {
                RepStopC::Terminator(_) | RepStopC::Exhausted => Ok(None),
                RepStopC::CountOf(first) => {
                    let m = match self.resolve_count(*first) {
                        Some(m) => m,
                        None => return Ok(None),
                    };
                    self.times_element(plan.kids(node)[0], m)
                }
            },
            PlanOp::Tab { counter, counter_depth, counter_endian, .. } => {
                let m = self.recover_uint(*counter, *counter_depth, *counter_endian)? as usize;
                self.times_element(plan.kids(node)[0], m)
            }
            PlanOp::Mirror => self.extent(plan.kids(node)[0]),
            PlanOp::Prefixed { .. } => Ok(None),
            PlanOp::Dead => Ok(Some(0)),
        }
    }

    /// Resolves the element count of a repetition, chasing `CountOf` chains
    /// when the linked half has not parsed yet (it may sit inside the same
    /// mirrored region whose extent is being computed).
    fn resolve_count(&self, rep: u32) -> Option<usize> {
        if let Some(m) = self.rep_counts.get(rep as usize, &self.scope) {
            return Some(m);
        }
        match self.plan.nodes[rep as usize].op {
            PlanOp::Rep { stop: RepStopC::CountOf(first), .. } => self.resolve_count(first),
            _ => None,
        }
    }

    fn sum_extents(&mut self, start: u32, len: u32) -> Result<Option<usize>, ParseError> {
        let mut total = 0usize;
        for i in start..start + len {
            let c = self.plan.children[i as usize];
            match self.extent(c)? {
                Some(e) => total = total.saturating_add(e),
                None => return Ok(None),
            }
        }
        Ok(Some(total))
    }

    fn times_element(&mut self, elem: u32, m: usize) -> Result<Option<usize>, ParseError> {
        if m == 0 {
            return Ok(Some(0));
        }
        self.scope.push(0);
        let e = self.extent(elem);
        self.scope.pop();
        match e? {
            Some(e) => Ok(Some(e.saturating_mul(m))),
            None => Ok(None),
        }
    }

    /// Post-parse sanity checks: recovered auto length/counter fields must
    /// match the recomputed plain quantities (paper: "sanity checks" in the
    /// generated library). Catches corrupted or inconsistent messages that
    /// parsed structurally.
    fn verify_autos(&mut self) -> Result<(), ParseError> {
        for ci in 0..self.plan.autos.len() {
            let check = self.plan.autos[ci].clone();
            // Every scope at which this auto field's holder produced a
            // first terminal wire is one recovered instance.
            self.keys.clear();
            let Self { keys, msg, .. } = self;
            keys.extend(msg.wires.scopes_of(check.first_term as usize).map(ScopeKey::from_slice));
            for ki in 0..self.keys.len() {
                let key = self.keys[ki];
                match check.kind {
                    AutoCheckKind::Literal(pool) => {
                        self.ensure_recovered(check.plain, key)?;
                        let expected = &self.plan.consts[pool as usize];
                        let got = self
                            .recovered
                            .get(check.plain as usize, key.as_slice())
                            .expect("just recovered");
                        if got != expected.as_bytes() {
                            let got = Value::from_bytes(got.to_vec());
                            return Err(ParseError::Malformed {
                                node: self.plain_name(check.plain),
                                detail: format!(
                                    "constant field holds {got:?}, expected {expected:?}"
                                ),
                            });
                        }
                    }
                    AutoCheckKind::LengthOf { target, depth } => {
                        let endian = self.plan.plain_endian[check.plain as usize];
                        let stored = self.recover_uint_at(check.plain, key, endian)?;
                        let td = (depth as usize).min(key.as_slice().len());
                        let computed = self
                            .msg
                            .plain_len(NodeId(target), &key.as_slice()[..td])
                            .unwrap_or(usize::MAX) as u64;
                        if stored != computed {
                            return Err(ParseError::AutoMismatch {
                                node: self.plain_name(check.plain),
                                stored,
                                computed,
                            });
                        }
                    }
                    AutoCheckKind::CounterOf { target, depth } => {
                        let endian = self.plan.plain_endian[check.plain as usize];
                        let stored = self.recover_uint_at(check.plain, key, endian)?;
                        let td = (depth as usize).min(key.as_slice().len());
                        let computed =
                            self.msg.count_of(NodeId(target), &key.as_slice()[..td]) as u64;
                        if stored != computed {
                            return Err(ParseError::AutoMismatch {
                                node: self.plain_name(check.plain),
                                stored,
                                computed,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// reference graph-walk interpreter
// ---------------------------------------------------------------------------

/// Parses an obfuscated message by directly interpreting the obfuscation
/// graph — the **reference implementation** the compiled-plan path is
/// differentially tested against. Production code should use
/// [`crate::codec::Codec::parse`] (plan-based, cached).
///
/// # Errors
///
/// [`ParseError`] when the bytes do not form a valid message under this
/// obfuscation graph (truncation, missing delimiters, inconsistent
/// lengths/counts, trailing bytes).
pub fn parse<'c>(g: &'c ObfGraph, bytes: &[u8]) -> Result<Message<'c>, ParseError> {
    let mut ctx = Ctx {
        g,
        wires: HashMap::new(),
        presence: HashMap::new(),
        counts: HashMap::new(),
        rep_counts: HashMap::new(),
        plain_memo: HashMap::new(),
    };
    let mut pos = 0usize;
    let mut scope: Scope = Vec::new();
    ctx.parse_node(g.root(), bytes, &mut pos, bytes.len(), true, &mut scope)?;
    if pos != bytes.len() {
        return Err(ParseError::TrailingBytes {
            node: g.node(g.root()).name().to_string(),
            remaining: bytes.len() - pos,
        });
    }
    ctx.verify_auto_fields()?;
    Ok(Message::from_parts(g, ctx.wires, ctx.presence, ctx.counts))
}

struct Ctx<'g> {
    g: &'g ObfGraph,
    wires: HashMap<(ObfId, Scope), Value>,
    presence: HashMap<(NodeId, Scope), bool>,
    counts: HashMap<(NodeId, Scope), usize>,
    rep_counts: HashMap<(ObfId, Scope), usize>,
    plain_memo: HashMap<(NodeId, Scope), Value>,
}

impl<'g> Ctx<'g> {
    /// Parses `node` starting at `*pos`, never reading past `end`. `tail`
    /// means the node's window extends exactly to `end` with nothing
    /// following inside it.
    fn parse_node(
        &mut self,
        id: ObfId,
        buf: &[u8],
        pos: &mut usize,
        end: usize,
        tail: bool,
        scope: &mut Scope,
    ) -> Result<(), ParseError> {
        let node = self.g.node(id).clone();
        match &node.kind {
            ObfKind::Terminal { boundary, .. } => {
                let value = match boundary {
                    TermBoundary::Fixed(k) => self.take(id, buf, pos, end, *k)?,
                    TermBoundary::PlainLen { source, steps } => {
                        let k = self.plain_len_extent(*source, steps, scope)?;
                        self.take(id, buf, pos, end, k)?
                    }
                    TermBoundary::Delimited(d) => match runtime::find(buf, d, *pos, end) {
                        Some(f) => {
                            let v = buf[*pos..f].to_vec();
                            *pos = f + d.len();
                            Value::from_bytes(v)
                        }
                        None => {
                            return Err(ParseError::DelimiterNotFound {
                                node: node.name().to_string(),
                            })
                        }
                    },
                    TermBoundary::End => {
                        let v = buf[*pos..end].to_vec();
                        *pos = end;
                        Value::from_bytes(v)
                    }
                };
                self.wires.insert((id, scope.clone()), value);
                Ok(())
            }
            ObfKind::SplitSeq { .. } => {
                let n = node.children().len();
                for (i, &c) in node.children().iter().enumerate() {
                    self.parse_node(c, buf, pos, end, tail && i + 1 == n, scope)?;
                }
                Ok(())
            }
            ObfKind::Sequence { boundary } => {
                let window = match boundary {
                    SeqBoundary::Fixed(k) => Some(*k),
                    SeqBoundary::PlainLen(p) => {
                        let r = self
                            .g
                            .plain()
                            .node(*p)
                            .boundary()
                            .reference()
                            .expect("validated PlainLen sequences carry Length boundaries");
                        Some(self.recover_uint(r, scope)? as usize)
                    }
                    SeqBoundary::Delegated | SeqBoundary::End => None,
                };
                let (sub_end, sub_tail) = match window {
                    Some(k) => {
                        if k > end - *pos {
                            return Err(ParseError::UnexpectedEnd {
                                node: node.name().to_string(),
                                needed: k,
                                available: end - *pos,
                            });
                        }
                        (*pos + k, true)
                    }
                    None => (end, tail),
                };
                let n = node.children().len();
                for (i, &c) in node.children().iter().enumerate() {
                    self.parse_node(c, buf, pos, sub_end, sub_tail && i + 1 == n, scope)?;
                }
                if window.is_some() && *pos != sub_end {
                    return Err(ParseError::TrailingBytes {
                        node: node.name().to_string(),
                        remaining: sub_end - *pos,
                    });
                }
                Ok(())
            }
            ObfKind::Optional { condition } => {
                let subject_scope = runtime::scoped(self.g.plain(), condition.subject, scope);
                let subject = self.recover_plain(condition.subject, &subject_scope)?;
                let present = condition.predicate.eval(&subject);
                let origin = node.origin().expect("optionals always have plain origins");
                let oscope = runtime::scoped(self.g.plain(), origin, scope);
                self.presence.insert((origin, oscope), present);
                if present {
                    self.parse_node(node.children()[0], buf, pos, end, tail, scope)?;
                }
                Ok(())
            }
            ObfKind::Repetition { stop } => {
                let elem = node.children()[0];
                let mut i = 0usize;
                match stop {
                    RepStop::Terminator(t) => loop {
                        if *pos + t.len() <= end && &buf[*pos..*pos + t.len()] == t.as_slice() {
                            *pos += t.len();
                            break;
                        }
                        if *pos >= end {
                            return Err(ParseError::DelimiterNotFound {
                                node: node.name().to_string(),
                            });
                        }
                        let before = *pos;
                        scope.push(i as u32);
                        let r = self.parse_node(elem, buf, pos, end, false, scope);
                        scope.pop();
                        r?;
                        if *pos == before {
                            return Err(ParseError::Malformed {
                                node: node.name().to_string(),
                                detail: "zero-length repetition element".into(),
                            });
                        }
                        i += 1;
                    },
                    RepStop::Exhausted => {
                        while *pos < end {
                            let before = *pos;
                            scope.push(i as u32);
                            let r = self.parse_node(elem, buf, pos, end, false, scope);
                            scope.pop();
                            r?;
                            if *pos == before {
                                return Err(ParseError::Malformed {
                                    node: node.name().to_string(),
                                    detail: "zero-length repetition element".into(),
                                });
                            }
                            i += 1;
                        }
                    }
                    RepStop::CountOf(first) => {
                        let m = self.resolve_count(*first, scope).ok_or_else(|| {
                            ParseError::UnresolvedReference {
                                node: node.name().to_string(),
                                referenced: self.g.node(*first).name().to_string(),
                            }
                        })?;
                        for j in 0..m {
                            scope.push(j as u32);
                            let r = self.parse_node(elem, buf, pos, end, false, scope);
                            scope.pop();
                            r?;
                        }
                        i = m;
                    }
                }
                self.rep_counts.insert((id, scope.clone()), i);
                if let Some(origin) = node.origin() {
                    let oscope = runtime::scoped(self.g.plain(), origin, scope);
                    if let Some(prev) = self.counts.get(&(origin, oscope.clone())) {
                        if *prev != i {
                            return Err(ParseError::CountMismatch {
                                node: node.name().to_string(),
                                left: *prev,
                                right: i,
                            });
                        }
                    }
                    self.counts.insert((origin, oscope), i);
                }
                Ok(())
            }
            ObfKind::Tabular { counter } => {
                let cscope = runtime::scoped(self.g.plain(), *counter, scope);
                let m = self.recover_uint_at(*counter, &cscope)? as usize;
                let elem = node.children()[0];
                let mut empties = 0usize;
                for j in 0..m {
                    let before = *pos;
                    scope.push(j as u32);
                    let r = self.parse_node(elem, buf, pos, end, false, scope);
                    scope.pop();
                    r?;
                    if *pos == before {
                        empties += 1;
                        if empties > MAX_EMPTY_ELEMENTS {
                            return Err(ParseError::Malformed {
                                node: node.name().to_string(),
                                detail: "counter drives too many zero-length elements".into(),
                            });
                        }
                    }
                }
                if let Some(origin) = node.origin() {
                    let oscope = runtime::scoped(self.g.plain(), origin, scope);
                    self.counts.insert((origin, oscope), m);
                }
                Ok(())
            }
            ObfKind::Mirror => {
                let child = node.children()[0];
                let e = match self.extent(child, scope)? {
                    Some(e) => e,
                    None if tail => end - *pos,
                    None => {
                        return Err(ParseError::Malformed {
                            node: node.name().to_string(),
                            detail: "cannot determine mirrored extent".into(),
                        })
                    }
                };
                if e > end - *pos {
                    return Err(ParseError::UnexpectedEnd {
                        node: node.name().to_string(),
                        needed: e,
                        available: end - *pos,
                    });
                }
                let mut temp = buf[*pos..*pos + e].to_vec();
                temp.reverse();
                let mut ipos = 0usize;
                self.parse_node(child, &temp, &mut ipos, e, true, scope)?;
                if ipos != e {
                    return Err(ParseError::TrailingBytes {
                        node: node.name().to_string(),
                        remaining: e - ipos,
                    });
                }
                *pos += e;
                Ok(())
            }
            ObfKind::Prefixed { width, endian } => {
                if *pos + *width > end {
                    return Err(ParseError::UnexpectedEnd {
                        node: node.name().to_string(),
                        needed: *width,
                        available: end - *pos,
                    });
                }
                let n = Value::from_bytes(buf[*pos..*pos + *width].to_vec())
                    .to_uint(*endian)
                    .expect("prefix width <= 8") as usize;
                *pos += *width;
                if n > end - *pos {
                    return Err(ParseError::Malformed {
                        node: node.name().to_string(),
                        detail: format!("length prefix {n} overflows the window"),
                    });
                }
                let sub_end = *pos + n;
                self.parse_node(node.children()[0], buf, pos, sub_end, true, scope)?;
                if *pos != sub_end {
                    return Err(ParseError::TrailingBytes {
                        node: node.name().to_string(),
                        remaining: sub_end - *pos,
                    });
                }
                Ok(())
            }
        }
    }

    fn take(
        &mut self,
        id: ObfId,
        buf: &[u8],
        pos: &mut usize,
        end: usize,
        k: usize,
    ) -> Result<Value, ParseError> {
        if k > end - *pos {
            return Err(ParseError::UnexpectedEnd {
                node: self.g.node(id).name().to_string(),
                needed: k,
                available: end - *pos,
            });
        }
        let v = buf[*pos..*pos + k].to_vec();
        *pos += k;
        Ok(Value::from_bytes(v))
    }

    /// Extent of a terminal whose plain length is carried by a `Length`
    /// reference, with split derivation steps applied.
    fn plain_len_extent(
        &mut self,
        source: NodeId,
        steps: &[LenStep],
        scope: &[u32],
    ) -> Result<usize, ParseError> {
        let r = self
            .g
            .plain()
            .node(source)
            .boundary()
            .reference()
            .expect("PlainLen terminals have Length boundaries");
        let mut len = self.recover_uint(r, scope)? as usize;
        for s in steps {
            len = s.apply(len);
        }
        Ok(len)
    }

    /// Recovers the plain value of terminal `x`, inverting aggregation
    /// transformations over the wires parsed so far.
    fn recover_plain(&mut self, x: NodeId, scope: &[u32]) -> Result<Value, ParseError> {
        if let Some(v) = self.plain_memo.get(&(x, scope.to_vec())) {
            return Ok(v.clone());
        }
        let holder = self.g.holder_of(x).ok_or_else(|| ParseError::UnresolvedReference {
            node: self.g.plain().node(x).name().to_string(),
            referenced: "holder".to_string(),
        })?;
        let v = runtime::recover(self.g, holder, scope, &|id, sc| {
            self.wires.get(&(id, sc.to_vec())).cloned()
        })
        .ok_or_else(|| ParseError::UnresolvedReference {
            node: self.g.plain().node(x).name().to_string(),
            referenced: self.g.node(holder).name().to_string(),
        })?;
        self.plain_memo.insert((x, scope.to_vec()), v.clone());
        Ok(v)
    }

    /// Recovers a referenced numeric field, truncating the scope to the
    /// reference's own container depth.
    fn recover_uint(&mut self, x: NodeId, scope: &[u32]) -> Result<u64, ParseError> {
        let xscope = runtime::scoped(self.g.plain(), x, scope);
        self.recover_uint_at(x, &xscope)
    }

    fn recover_uint_at(&mut self, x: NodeId, xscope: &[u32]) -> Result<u64, ParseError> {
        let v = self.recover_plain(x, xscope)?;
        let endian = match self.g.plain().node(x).terminal_kind() {
            Some(TerminalKind::UInt { endian, .. }) => *endian,
            _ => Endian::Big,
        };
        v.to_uint(endian).ok_or_else(|| ParseError::Malformed {
            node: self.g.plain().node(x).name().to_string(),
            detail: "numeric field wider than 8 bytes".into(),
        })
    }

    /// Pre-parse extent of a subtree: `Ok(Some(n))` when computable from
    /// already-recovered values, `Ok(None)` when only forward parsing can
    /// delimit it.
    fn extent(&mut self, id: ObfId, scope: &[u32]) -> Result<Option<usize>, ParseError> {
        let node = self.g.node(id).clone();
        match &node.kind {
            ObfKind::Terminal { boundary, .. } => match boundary {
                TermBoundary::Fixed(k) => Ok(Some(*k)),
                TermBoundary::PlainLen { source, steps } => {
                    Ok(Some(self.plain_len_extent(*source, steps, scope)?))
                }
                TermBoundary::Delimited(_) | TermBoundary::End => Ok(None),
            },
            ObfKind::SplitSeq { .. } | ObfKind::Sequence { boundary: SeqBoundary::Delegated } => {
                self.sum_extents(node.children(), scope)
            }
            ObfKind::Sequence { boundary } => match boundary {
                SeqBoundary::Fixed(k) => Ok(Some(*k)),
                SeqBoundary::PlainLen(p) => {
                    let r = self
                        .g
                        .plain()
                        .node(*p)
                        .boundary()
                        .reference()
                        .expect("validated PlainLen sequences carry Length boundaries");
                    Ok(Some(self.recover_uint(r, scope)? as usize))
                }
                SeqBoundary::End => Ok(None),
                SeqBoundary::Delegated => unreachable!("handled above"),
            },
            ObfKind::Optional { condition } => {
                let sscope = runtime::scoped(self.g.plain(), condition.subject, scope);
                let subject = self.recover_plain(condition.subject, &sscope)?;
                if condition.predicate.eval(&subject) {
                    self.extent(node.children()[0], scope)
                } else {
                    Ok(Some(0))
                }
            }
            ObfKind::Repetition { stop } => match stop {
                RepStop::Terminator(_) | RepStop::Exhausted => Ok(None),
                RepStop::CountOf(first) => {
                    let m = match self.resolve_count(*first, scope) {
                        Some(m) => m,
                        None => return Ok(None),
                    };
                    self.times_element(node.children()[0], m, scope)
                }
            },
            ObfKind::Tabular { counter } => {
                let m = self.recover_uint(*counter, scope)? as usize;
                self.times_element(node.children()[0], m, scope)
            }
            ObfKind::Mirror => self.extent(node.children()[0], scope),
            ObfKind::Prefixed { .. } => Ok(None),
        }
    }

    /// Resolves the element count of a repetition, chasing `CountOf` chains
    /// when the linked half has not parsed yet (it may sit inside the same
    /// mirrored region whose extent is being computed).
    fn resolve_count(&self, rep: ObfId, scope: &[u32]) -> Option<usize> {
        if let Some(m) = self.rep_counts.get(&(rep, scope.to_vec())) {
            return Some(*m);
        }
        match self.g.node(rep).kind() {
            ObfKind::Repetition { stop: RepStop::CountOf(first) } => {
                self.resolve_count(*first, scope)
            }
            _ => None,
        }
    }

    fn sum_extents(
        &mut self,
        children: &[ObfId],
        scope: &[u32],
    ) -> Result<Option<usize>, ParseError> {
        let mut total = 0usize;
        for &c in children {
            match self.extent(c, scope)? {
                Some(e) => total = total.saturating_add(e),
                None => return Ok(None),
            }
        }
        Ok(Some(total))
    }

    fn times_element(
        &mut self,
        elem: ObfId,
        m: usize,
        scope: &[u32],
    ) -> Result<Option<usize>, ParseError> {
        if m == 0 {
            return Ok(Some(0));
        }
        let mut sc = scope.to_vec();
        sc.push(0);
        match self.extent(elem, &sc)? {
            Some(e) => Ok(Some(e.saturating_mul(m))),
            None => Ok(None),
        }
    }

    /// Post-parse sanity checks: recovered auto length/counter fields must
    /// match the recomputed plain quantities (paper: "sanity checks" in the
    /// generated library). Catches corrupted or inconsistent messages that
    /// parsed structurally.
    fn verify_auto_fields(&mut self) -> Result<(), ParseError> {
        let plain = self.g.plain();
        let message = Message::from_parts(
            self.g,
            self.wires.clone(),
            self.presence.clone(),
            self.counts.clone(),
        );
        // Collect (auto field, instances) — instances are all scopes at
        // which the field was recovered.
        for x in plain.ids() {
            let node = plain.node(x);
            if !node.auto().is_auto() {
                continue;
            }
            let holder = match self.g.holder_of(x) {
                Some(h) => h,
                None => continue,
            };
            // Find every scope at which this field's holder subtree has a
            // first terminal wire.
            let first_term =
                self.g.subtree(holder).into_iter().find(|&n| self.g.node(n).is_terminal());
            let first_term = match first_term {
                Some(t) => t,
                None => continue,
            };
            let scopes: Vec<Scope> = self
                .wires
                .keys()
                .filter(|(id, _)| *id == first_term)
                .map(|(_, sc)| sc.clone())
                .collect();
            // Constant fields: the recovered bytes must equal the literal.
            if let crate::graph::AutoValue::Literal(expected) = node.auto() {
                for sc in scopes {
                    let recovered = self.recover_plain(x, &sc)?;
                    if &recovered != expected {
                        return Err(ParseError::Malformed {
                            node: node.name().to_string(),
                            detail: format!(
                                "constant field holds {recovered:?}, expected {expected:?}"
                            ),
                        });
                    }
                }
                continue;
            }
            let target = match node.auto().target() {
                Some(t) => t,
                None => continue,
            };
            for sc in scopes {
                let stored = self.recover_uint_at(x, &sc)?;
                let tscope = runtime::scoped(plain, target, &sc);
                let computed = match node.auto() {
                    crate::graph::AutoValue::LengthOf(_) => {
                        message.plain_len(target, &tscope).unwrap_or(usize::MAX) as u64
                    }
                    crate::graph::AutoValue::CounterOf(_) => {
                        message.count_of(target, &tscope) as u64
                    }
                    crate::graph::AutoValue::None | crate::graph::AutoValue::Literal(_) => continue,
                };
                if stored != computed {
                    return Err(ParseError::AutoMismatch {
                        node: node.name().to_string(),
                        stored,
                        computed,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, Condition, GraphBuilder, Predicate};
    use crate::message::Message;
    use crate::plan::CodecPlan;
    use crate::serialize::serialize_seeded;

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

    #[test]
    fn parse_inverts_plain_serialize() {
        let g = modbus_mini();
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 0x0102).unwrap();
        m.set_uint("pdu.func", 6).unwrap();
        m.set_uint("pdu.write.addr", 0x0010).unwrap();
        m.set_uint("pdu.write.value", 0xBEEF).unwrap();
        let wire = serialize_seeded(&g, &m, 9).unwrap();
        let back = parse(&g, &wire).unwrap();
        assert_eq!(back.get_uint("tid").unwrap(), 0x0102);
        assert_eq!(back.get_uint("pdu.func").unwrap(), 6);
        assert_eq!(back.get_uint("pdu.write.addr").unwrap(), 0x0010);
        assert_eq!(back.get_uint("pdu.write.value").unwrap(), 0xBEEF);
        assert!(back.is_present("pdu.write"));
        assert_eq!(back.get_uint("len").unwrap(), 5);
    }

    #[test]
    fn session_parse_matches_reference() {
        let g = modbus_mini();
        let plan = CodecPlan::compile(&g);
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 0x0102).unwrap();
        m.set_uint("pdu.func", 6).unwrap();
        m.set_uint("pdu.write.addr", 16).unwrap();
        m.set_uint("pdu.write.value", 48879).unwrap();
        let wire = serialize_seeded(&g, &m, 9).unwrap();
        let mut s = ParseSession::new(&g, &plan);
        for _ in 0..3 {
            let back = s.parse_in_place(&wire).unwrap();
            assert_eq!(back.get_uint("tid").unwrap(), 0x0102);
            assert_eq!(back.get_uint("pdu.write.value").unwrap(), 48879);
            assert!(back.is_present("pdu.write"));
            assert_eq!(back.get_uint("len").unwrap(), 5);
        }
    }

    #[test]
    fn parse_detects_truncation() {
        let g = modbus_mini();
        let plan = CodecPlan::compile(&g);
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 1).unwrap();
        m.set_uint("pdu.func", 3).unwrap();
        let wire = serialize_seeded(&g, &m, 9).unwrap();
        let mut s = ParseSession::new(&g, &plan);
        for cut in 0..wire.len() {
            assert!(parse(&g, &wire[..cut]).is_err(), "truncation at {cut} must fail");
            assert!(s.parse_in_place(&wire[..cut]).is_err(), "session truncation at {cut}");
        }
    }

    #[test]
    fn parse_detects_inconsistent_auto_len() {
        let g = modbus_mini();
        let plan = CodecPlan::compile(&g);
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 1).unwrap();
        m.set_uint("pdu.func", 3).unwrap();
        let mut wire = serialize_seeded(&g, &m, 9).unwrap();
        // Corrupt the auto length field (bytes 2..4): parse must notice.
        wire[3] = wire[3].wrapping_add(1);
        assert!(parse(&g, &wire).is_err());
        assert!(ParseSession::new(&g, &plan).parse_in_place(&wire).is_err());
    }

    #[test]
    fn parse_absent_optional() {
        let g = modbus_mini();
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 7).unwrap();
        m.set_uint("pdu.func", 1).unwrap();
        let wire = serialize_seeded(&g, &m, 9).unwrap();
        let back = parse(&g, &wire).unwrap();
        assert!(!back.is_present("pdu.write"));
        assert!(back.get("pdu.write.addr").is_err());
    }

    #[test]
    fn hostile_length_field_is_an_error_not_a_panic() {
        // An 8-byte length field of u64::MAX must produce a ParseError in
        // both interpreters — never an arithmetic overflow.
        let mut b = GraphBuilder::new("h");
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 8);
        b.terminal(root, "data", crate::value::TerminalKind::Bytes, Boundary::Length(len));
        let g = ObfGraph::from_plain(&b.build().unwrap());
        let plan = CodecPlan::compile(&g);
        let mut wire = vec![0xFF; 8]; // len = u64::MAX
        wire.extend_from_slice(b"short");
        assert!(parse(&g, &wire).is_err());
        assert!(ParseSession::new(&g, &plan).parse_in_place(&wire).is_err());
    }

    #[test]
    fn hostile_tabular_counter_is_bounded() {
        // A huge counter over zero-size elements (all-absent optional) must
        // fail fast instead of looping for the counter's magnitude.
        let mut b = GraphBuilder::new("h");
        let root = b.root_sequence("m", Boundary::End);
        let flag = b.uint_be(root, "flag", 1);
        let count = b.uint_be(root, "count", 4);
        let tab = b.tabular(root, "items", count);
        let opt = b.optional(
            tab,
            "maybe",
            Condition { subject: flag, predicate: Predicate::Equals(Value::from_bytes(vec![1])) },
        );
        b.uint_be(opt, "v", 2);
        b.uint_be(root, "end_marker", 1);
        let g = ObfGraph::from_plain(&b.build().unwrap());
        let plan = CodecPlan::compile(&g);
        // flag=0 (optional absent ⇒ zero-size elements), count=100M.
        let wire = [&[0u8][..], &100_000_000u32.to_be_bytes(), &[7u8]].concat();
        let t = std::time::Instant::now();
        assert!(parse(&g, &wire).is_err());
        assert!(ParseSession::new(&g, &plan).parse_in_place(&wire).is_err());
        assert!(t.elapsed() < std::time::Duration::from_secs(5), "must fail fast");
    }

    #[test]
    fn parse_rejects_trailing_bytes() {
        let g = modbus_mini();
        let plan = CodecPlan::compile(&g);
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("tid", 7).unwrap();
        m.set_uint("pdu.func", 1).unwrap();
        let mut wire = serialize_seeded(&g, &m, 9).unwrap();
        // The root is End-bounded, so extra bytes extend the pdu and break
        // the auto-length sanity check instead of going unnoticed.
        wire.push(0xAA);
        assert!(parse(&g, &wire).is_err());
        assert!(ParseSession::new(&g, &plan).parse_in_place(&wire).is_err());
    }
}
