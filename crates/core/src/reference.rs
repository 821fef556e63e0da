//! The executable specification: direct graph-walk interpreters of an
//! obfuscation graph.
//!
//! Production code runs only the compiled [`CodecPlan`](crate::plan::CodecPlan):
//! the serialize and parse sessions, the accessors, the sampler, the
//! tunnel and the transcode copy programs. This module keeps the original
//! recursive walks, which read the [`ObfGraph`] node by node through
//! allocating maps, as the one reference semantics the plan path is
//! differentially tested against: byte-identical wires, structurally
//! equal parses, on valid and hostile inputs alike. The shipped fuzzer
//! ([`crate::fuzz`], `protoobf fuzz`) and the differential suites
//! (`tests/plan_equivalence.rs`, `tests/property.rs`,
//! `tests/fuzz_differential.rs`, `tests/transcode_differential.rs`,
//! `tests/stress_concurrent.rs`) are its only callers.
//!
//! * [`serialize`] walks the wire tree depth-first, exactly as the
//!   paper's generated serializer does: aggregation transformations were
//!   already applied by the setters (the wire values live in the
//!   [`Message`]), and the **ordering** transformations — child
//!   permutations, split tabulars, mirrors, length prefixes, pads — are
//!   executed on the fly. Auto-computed fields (lengths, counters) are
//!   evaluated here, because only the complete message determines them.
//! * [`parse`] undoes the ordering transformations structurally
//!   (windows, mirrors, length prefixes, split repetitions) and collects
//!   the wire value of every terminal. Values the parser needs *during*
//!   parsing — length references, tabular counters, optional conditions,
//!   linked repetition counts — are recovered eagerly by inverting the
//!   aggregation transformations (paper §V-C).
//! * [`transcode_into`] re-expresses a message under another obfuscation
//!   of the same plain specification, one plain field at a time.
//! * Beneath them, `distribute` and `recover` walk a holder subtree
//!   top-down to *distribute* a plain value (the forward aggregation
//!   transformations, τ) and bottom-up to *recover* it (their inverses,
//!   τ⁻¹). The plan runs the same passes as compiled distribution and
//!   recovery programs.
//!
//! The walks share with the plan interpreters only the [`Message`] (its
//! stores and structural helpers such as the plain-length computation)
//! and the scope helpers of [`crate::runtime`]. No plan code runs here,
//! so a defect in the plan cannot hide by being repeated in its oracle.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{BuildError, ParseError};
use crate::graph::{NodeId, NodeType};
use crate::message::Message;
use crate::obf::{
    Base, LenStep, ObfGraph, ObfId, ObfKind, Recombine, RepStop, SeqBoundary, TermBoundary,
};
use crate::parse::MAX_EMPTY_ELEMENTS;
use crate::runtime::{self, contains, Scope};
use crate::value::{apply_op, Endian, TerminalKind, Value};

// ---------------------------------------------------------------------------
// serializer
// ---------------------------------------------------------------------------

/// Serializes `msg` by directly interpreting the obfuscation graph, with a
/// deterministic RNG seed for the serialization-time random material (pads,
/// the shares of auto fields). The plan serializer
/// ([`crate::serialize::SerializeSession::serialize_into_seeded`]) must
/// produce the same bytes for the same seed.
///
/// # Errors
///
/// [`BuildError`] when required fields are missing, lengths/counters are
/// inconsistent, or derived values overflow their width.
pub fn serialize(g: &ObfGraph, msg: &Message<'_>, seed: u64) -> Result<Vec<u8>, BuildError> {
    let mut ctx =
        SerializeWalk { g, msg, overlay: HashMap::new(), rng: StdRng::seed_from_u64(seed) };
    let mut scope = Vec::new();
    ctx.emit(g.root(), &mut scope)
}

struct SerializeWalk<'a, 'c> {
    g: &'a ObfGraph,
    msg: &'a Message<'c>,
    /// Wire values computed at serialization time (auto-field subtrees,
    /// pads) — never stored back into the message.
    overlay: HashMap<(ObfId, Scope), Value>,
    rng: StdRng,
}

impl<'a, 'c> SerializeWalk<'a, 'c> {
    fn emit(&mut self, id: ObfId, scope: &mut Scope) -> Result<Vec<u8>, BuildError> {
        let node = self.g.node(id);
        match &node.kind {
            ObfKind::Terminal { base, boundary, .. } => {
                let wire = self.wire_of(id, base, scope)?;
                let mut out = wire.into_bytes();
                if let TermBoundary::Delimited(d) = boundary {
                    out.extend_from_slice(d);
                }
                Ok(out)
            }
            ObfKind::SplitSeq { expr, .. } => {
                self.materialize_if_needed(id, &expr.base, scope)?;
                let mut out = Vec::new();
                for &c in node.children() {
                    out.extend_from_slice(&self.emit(c, scope)?);
                }
                Ok(out)
            }
            ObfKind::Sequence { boundary } => {
                let mut out = Vec::new();
                for &c in node.children() {
                    out.extend_from_slice(&self.emit(c, scope)?);
                }
                match boundary {
                    SeqBoundary::Fixed(k) => {
                        if out.len() != *k {
                            return Err(BuildError::LengthInconsistent {
                                path: node.name().to_string(),
                                declared: *k as u64,
                                actual: out.len() as u64,
                            });
                        }
                    }
                    SeqBoundary::PlainLen(p) => {
                        let declared = self.ref_uint_of(*p, scope)?;
                        if declared != out.len() as u64 {
                            return Err(BuildError::LengthInconsistent {
                                path: node.name().to_string(),
                                declared,
                                actual: out.len() as u64,
                            });
                        }
                    }
                    SeqBoundary::Delegated | SeqBoundary::End => {}
                }
                Ok(out)
            }
            ObfKind::Optional { condition } => {
                let origin = node.origin().expect("optionals always have plain origins");
                let oscope = runtime::scoped(self.g.plain(), origin, scope);
                let present = self.msg.presence_of(origin, &oscope);
                let subject_scope = runtime::scoped(self.g.plain(), condition.subject, scope);
                let subject =
                    value_at(self.msg, condition.subject, &subject_scope).ok_or_else(|| {
                        BuildError::MissingField(
                            self.g.plain().node(condition.subject).name().to_string(),
                        )
                    })?;
                let implied = condition.predicate.eval(&subject);
                if implied != present {
                    return Err(BuildError::OptionalMismatch {
                        path: node.name().to_string(),
                        detail: format!(
                            "condition on {:?} implies present={implied} but message says {present}",
                            self.g.plain().node(condition.subject).name()
                        ),
                    });
                }
                if present {
                    self.emit(node.children()[0], scope)
                } else {
                    Ok(Vec::new())
                }
            }
            ObfKind::Repetition { stop } => {
                let origin = node.origin().expect("repetitions always have plain origins");
                let oscope = runtime::scoped(self.g.plain(), origin, scope);
                let m = self.msg.count_of(origin, &oscope);
                let mut out = Vec::new();
                for i in 0..m {
                    scope.push(i as u32);
                    let piece = self.emit(node.children()[0], scope);
                    scope.pop();
                    out.extend_from_slice(&piece?);
                }
                if let RepStop::Terminator(t) = stop {
                    out.extend_from_slice(t);
                }
                Ok(out)
            }
            ObfKind::Tabular { counter } => {
                let origin = node.origin().expect("tabulars always have plain origins");
                let oscope = runtime::scoped(self.g.plain(), origin, scope);
                let m = self.msg.count_of(origin, &oscope);
                let declared = self.decode_plain_uint(*counter, scope)?;
                if declared != m as u64 {
                    return Err(BuildError::LengthInconsistent {
                        path: node.name().to_string(),
                        declared,
                        actual: m as u64,
                    });
                }
                let mut out = Vec::new();
                for i in 0..m {
                    scope.push(i as u32);
                    let piece = self.emit(node.children()[0], scope);
                    scope.pop();
                    out.extend_from_slice(&piece?);
                }
                Ok(out)
            }
            ObfKind::Mirror => {
                let mut out = self.emit(node.children()[0], scope)?;
                out.reverse();
                Ok(out)
            }
            ObfKind::Prefixed { width, endian } => {
                let body = self.emit(node.children()[0], scope)?;
                let prefix = Value::from_uint(body.len() as u64, *width, *endian).ok_or(
                    BuildError::DerivedOverflow {
                        path: node.name().to_string(),
                        width: *width,
                        value: body.len() as u64,
                    },
                )?;
                let mut out = prefix.into_bytes();
                out.extend_from_slice(&body);
                Ok(out)
            }
        }
    }

    /// The wire value of a terminal: from the serialization overlay (auto
    /// subtrees), the message (set-time aggregation / parsed wires), or
    /// generated on the spot (pads).
    ///
    /// Auto-computed bases are **always** rematerialized: a parsed message
    /// may have been mutated through the accessors, so stored length/count
    /// wires can be stale. Pads reuse stored wires (their value is
    /// irrelevant but reuse keeps re-serialization stable).
    fn wire_of(&mut self, id: ObfId, base: &Base, scope: &[u32]) -> Result<Value, BuildError> {
        if let Some(v) = self.overlay.get(&(id, scope.to_vec())) {
            return Ok(v.clone());
        }
        match base {
            Base::AutoLen(_) | Base::AutoCount(_) | Base::Const(_) => {
                self.materialize_auto(id, base, scope)?;
                return self
                    .overlay
                    .get(&(id, scope.to_vec()))
                    .cloned()
                    .ok_or_else(|| BuildError::MissingField(self.g.node(id).name().to_string()));
            }
            Base::Pad(_) | Base::Source(_) | Base::Inherit => {}
        }
        if let Some(v) = self.msg.wire(id, scope) {
            return Ok(Value::from_bytes(v.to_vec()));
        }
        match base {
            Base::Pad(k) => {
                let bytes: Vec<u8> = (0..*k).map(|_| rand::Rng::gen(&mut self.rng)).collect();
                Ok(Value::from_bytes(bytes))
            }
            Base::Source(x) => {
                Err(BuildError::MissingField(self.g.plain().node(*x).name().to_string()))
            }
            Base::Inherit | Base::AutoLen(_) | Base::AutoCount(_) | Base::Const(_) => {
                Err(BuildError::MissingField(self.g.node(id).name().to_string()))
            }
        }
    }

    /// When a split sequence's base is auto-computed (or a pad), its
    /// children's wires are not in the message: distribute them into the
    /// overlay now. Auto bases always rematerialize (stored wires may be
    /// stale after mutation); split pads reuse stored wires when present.
    fn materialize_if_needed(
        &mut self,
        id: ObfId,
        base: &Base,
        scope: &[u32],
    ) -> Result<(), BuildError> {
        match base {
            Base::AutoLen(_) | Base::AutoCount(_) | Base::Const(_) => {
                self.materialize_auto(id, base, scope)
            }
            Base::Pad(_) => {
                let stored = self
                    .g
                    .subtree(id)
                    .into_iter()
                    .find(|&n| self.g.node(n).is_terminal())
                    .map(|t| self.msg.wire(t, scope).is_some())
                    .unwrap_or(false);
                if stored {
                    Ok(())
                } else {
                    self.materialize_auto(id, base, scope)
                }
            }
            Base::Source(_) | Base::Inherit => Ok(()),
        }
    }

    fn materialize_auto(
        &mut self,
        id: ObfId,
        base: &Base,
        scope: &[u32],
    ) -> Result<(), BuildError> {
        if self.overlay.contains_key(&(id, scope.to_vec()))
            || self
                .g
                .node(id)
                .children()
                .first()
                .map(|&c| self.overlay.contains_key(&(c, scope.to_vec())))
                .unwrap_or(false)
        {
            return Ok(());
        }
        let raw = match base {
            Base::AutoLen(t) => {
                let tscope = runtime::scoped(self.g.plain(), *t, scope);
                let len = self.msg.plain_len(*t, &tscope).ok_or_else(|| {
                    BuildError::MissingField(self.g.plain().node(*t).name().to_string())
                })?;
                self.encode_auto(id, len as u64)?
            }
            Base::AutoCount(t) => {
                let tscope = runtime::scoped(self.g.plain(), *t, scope);
                let count = self.msg.count_of(*t, &tscope);
                self.encode_auto(id, count as u64)?
            }
            Base::Pad(k) => Value::from_bytes(
                (0..*k).map(|_| rand::Rng::gen(&mut self.rng)).collect::<Vec<u8>>(),
            ),
            Base::Const(v) => v.clone(),
            _ => unreachable!("materialize_auto only handles auto/pad/const bases"),
        };
        let overlay = &mut self.overlay;
        distribute(self.g, id, raw, scope, &mut self.rng, &mut |nid, sc, v| {
            overlay.insert((nid, sc.to_vec()), v);
        })
    }

    /// Encodes an auto quantity with the width/endian of the obf terminal
    /// (or of the split expression's original terminal kind).
    fn encode_auto(&self, id: ObfId, quantity: u64) -> Result<Value, BuildError> {
        let (width, endian) = self.auto_encoding(id);
        Value::from_uint(quantity, width, endian).ok_or(BuildError::DerivedOverflow {
            path: self.g.node(id).name().to_string(),
            width,
            value: quantity,
        })
    }

    fn auto_encoding(&self, id: ObfId) -> (usize, crate::value::Endian) {
        // Walk to the original terminal kind: either this node is the
        // terminal, or it is a SplitSeq whose origin terminal kind was
        // preserved on the plain graph.
        if let ObfKind::Terminal { kind: TerminalKind::UInt { width, endian }, .. } =
            &self.g.node(id).kind
        {
            return (*width, *endian);
        }
        if let Some(origin) = self.g.node(id).origin() {
            if let Some(TerminalKind::UInt { width, endian }) =
                self.g.plain().node(origin).terminal_kind()
            {
                return (*width, *endian);
            }
        }
        // Fallback: 8-byte big-endian (never reached for validated specs).
        (8, crate::value::Endian::Big)
    }

    /// Plain value of the `Length` reference of plain node `p`, as an
    /// unsigned integer.
    fn ref_uint_of(&self, p: crate::graph::NodeId, scope: &[u32]) -> Result<u64, BuildError> {
        let r = self
            .g
            .plain()
            .node(p)
            .boundary()
            .reference()
            .expect("PlainLen sequences have Length boundaries");
        self.decode_plain_uint(r, scope)
    }

    fn decode_plain_uint(&self, x: crate::graph::NodeId, scope: &[u32]) -> Result<u64, BuildError> {
        let xscope = runtime::scoped(self.g.plain(), x, scope);
        let v = value_at(self.msg, x, &xscope)
            .ok_or_else(|| BuildError::MissingField(self.g.plain().node(x).name().to_string()))?;
        let endian = match self.g.plain().node(x).terminal_kind() {
            Some(TerminalKind::UInt { endian, .. }) => *endian,
            _ => crate::value::Endian::Big,
        };
        v.to_uint(endian)
            .ok_or_else(|| BuildError::NotNumeric(self.g.plain().node(x).name().to_string()))
    }
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

/// Parses an obfuscated message by directly interpreting the obfuscation
/// graph. The plan parser ([`crate::parse::ParseSession`]) must accept
/// exactly the inputs this accepts, recovering the same message.
///
/// # Errors
///
/// [`ParseError`] when the bytes do not form a valid message under this
/// obfuscation graph (truncation, missing delimiters, inconsistent
/// lengths/counts, trailing bytes).
pub fn parse<'c>(g: &'c ObfGraph, bytes: &[u8]) -> Result<Message<'c>, ParseError> {
    let mut ctx = ParseWalk {
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
    Ok(from_parts(g, ctx.wires, ctx.presence, ctx.counts))
}

struct ParseWalk<'g> {
    g: &'g ObfGraph,
    wires: HashMap<(ObfId, Scope), Value>,
    presence: HashMap<(NodeId, Scope), bool>,
    counts: HashMap<(NodeId, Scope), usize>,
    rep_counts: HashMap<(ObfId, Scope), usize>,
    plain_memo: HashMap<(NodeId, Scope), Value>,
}

impl<'g> ParseWalk<'g> {
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
        let v =
            recover(self.g, holder, scope, &|id, sc| self.wires.get(&(id, sc.to_vec())).cloned())
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
        let message =
            from_parts(self.g, self.wires.clone(), self.presence.clone(), self.counts.clone());
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

// ---------------------------------------------------------------------------
// transcode and accessors
// ---------------------------------------------------------------------------

/// Copies every plain field value, presence flag and element count of
/// `src` into `dst` (cleared first) by walking the shared plain
/// specification, one field at a time through `recover` and
/// `distribute`. The compiled copy programs behind
/// [`Message::transcode_into`] must leave `dst` in the same state,
/// random shares included when both destinations are seeded alike.
///
/// # Errors
///
/// [`BuildError::GraphMismatch`] when the two messages' plain
/// specifications are not structurally identical.
pub fn transcode_into(src: &Message<'_>, dst: &mut Message<'_>) -> Result<(), BuildError> {
    let a = src.graph().plain();
    if !runtime::plains_match(a, dst.graph().plain()) {
        return Err(src.transcode_mismatch(dst));
    }
    dst.clear();
    let mut scope = Vec::new();
    copy_subtree(src, dst, a.root(), &mut scope)
}

fn copy_subtree(
    src: &Message<'_>,
    dst: &mut Message<'_>,
    x: NodeId,
    scope: &mut Vec<u32>,
) -> Result<(), BuildError> {
    let plain = src.graph().plain();
    let node = plain.node(x);
    match node.node_type() {
        NodeType::Terminal(_) => {
            // Auto fields are derived from structure at serialization
            // time; copying them would only re-assert what the
            // destination recomputes anyway.
            if node.auto().is_auto() {
                return Ok(());
            }
            let Some(v) = value_at(src, x, scope) else {
                return Ok(());
            };
            let dst_graph = dst.graph();
            let holder = dst_graph.holder_of(x).ok_or_else(|| {
                BuildError::UnknownPath(dst_graph.plain().node(x).name().to_string())
            })?;
            dst.mark_ancestors(x, scope);
            let wires = &mut dst.wires;
            distribute(dst_graph, holder, v, scope, &mut dst.rng, &mut |id, sc, v| {
                wires.set(id.index(), sc, v.as_bytes());
            })
        }
        NodeType::Sequence => {
            for &c in node.children() {
                copy_subtree(src, dst, c, scope)?;
            }
            Ok(())
        }
        NodeType::Optional(_) => {
            if src.presence.get(x.index(), scope).unwrap_or(false) {
                dst.presence.set(x.index(), scope, true);
                copy_subtree(src, dst, node.children()[0], scope)?;
            }
            Ok(())
        }
        NodeType::Repetition(_) | NodeType::Tabular => {
            let n = src.counts.get(x.index(), scope).unwrap_or(0);
            dst.counts.set(x.index(), scope, n);
            let child = node.children()[0];
            for i in 0..n {
                scope.push(i as u32);
                copy_subtree(src, dst, child, scope)?;
                scope.pop();
            }
            Ok(())
        }
    }
}

/// Plain value of terminal `x` at `scope`, recovered from the stored wires
/// through [`recover`], or computed for auto fields that were never
/// materialized. The plan form is [`Message::value_at`].
fn value_at(msg: &Message<'_>, x: NodeId, scope: &[u32]) -> Option<Value> {
    let g = msg.graph();
    let holder = g.holder_of(x)?;
    let recovered = recover(g, holder, scope, &|id, sc| {
        msg.wires.get(id.index(), sc).map(|b| Value::from_bytes(b.to_vec()))
    });
    if recovered.is_some() {
        return recovered;
    }
    // Auto fields can be computed from structure before serialization.
    msg.auto_value(x, scope)
}

/// A message holding the parser's maps, one store entry per map entry.
fn from_parts<'c>(
    graph: &'c ObfGraph,
    wires: HashMap<(ObfId, Scope), Value>,
    presence: HashMap<(NodeId, Scope), bool>,
    counts: HashMap<(NodeId, Scope), usize>,
) -> Message<'c> {
    let mut m = Message::with_seed(graph, rand::random());
    for ((id, scope), v) in &wires {
        m.wires.set(id.index(), scope, v.as_bytes());
    }
    for ((x, scope), p) in &presence {
        m.presence.set(x.index(), scope, *p);
    }
    for ((x, scope), n) in &counts {
        m.counts.set(x.index(), scope, *n);
    }
    m
}

// ---------------------------------------------------------------------------
// distribution and recovery
// ---------------------------------------------------------------------------

/// Applies a terminal's constant-op stack (forward direction).
fn apply_ops(ops: &[crate::obf::ConstOp], v: Value) -> Value {
    let mut bytes = v.into_bytes();
    for op in ops {
        bytes = apply_op(op.op, &bytes, &op.k);
    }
    Value::from_bytes(bytes)
}

/// Undoes a terminal's constant-op stack (reverse order, inverse ops).
fn undo_ops(ops: &[crate::obf::ConstOp], v: Value) -> Value {
    let mut bytes = v.into_bytes();
    for op in ops.iter().rev() {
        bytes = apply_op(op.op.inverse(), &bytes, &op.k);
    }
    Value::from_bytes(bytes)
}

/// Distributes `input` through the holder subtree rooted at `node`,
/// emitting the wire value of every terminal instance into `sink`.
///
/// This is the forward aggregation pass the paper runs inside the
/// generated setters: constant ops are applied, split sequences cut the
/// value into pieces or into a random share plus a combined share.
///
/// # Errors
///
/// [`BuildError::BadValueLength`] / [`BuildError::ValueContainsDelimiter`]
/// when the input violates a boundary of the subtree.
pub(crate) fn distribute<R: Rng + ?Sized>(
    g: &ObfGraph,
    node: ObfId,
    input: Value,
    scope: &[u32],
    rng: &mut R,
    sink: &mut dyn FnMut(ObfId, &[u32], Value),
) -> Result<(), BuildError> {
    let n = g.node(node);
    match &n.kind {
        ObfKind::Terminal { ops, boundary, .. } => {
            match boundary {
                TermBoundary::Fixed(k) => {
                    if input.len() != *k {
                        return Err(BuildError::BadValueLength {
                            path: n.name().to_string(),
                            expected: *k,
                            found: input.len(),
                        });
                    }
                }
                TermBoundary::Delimited(d) => {
                    if contains(input.as_bytes(), d) {
                        return Err(BuildError::ValueContainsDelimiter {
                            path: n.name().to_string(),
                        });
                    }
                }
                TermBoundary::PlainLen { .. } | TermBoundary::End => {}
            }
            sink(node, scope, apply_ops(ops, input));
            Ok(())
        }
        ObfKind::SplitSeq { expr, recombine } => {
            let v = apply_ops(&expr.ops, input);
            let bytes = v.into_bytes();
            let (left, right) = match recombine {
                Recombine::Concat(at) => {
                    let p = at.position(bytes.len());
                    (bytes[..p].to_vec(), bytes[p..].to_vec())
                }
                Recombine::Op(op) => {
                    let share: Vec<u8> = (0..bytes.len()).map(|_| rng.gen()).collect();
                    let combined = apply_op(*op, &bytes, pad_one(&share));
                    (share, combined)
                }
            };
            distribute(g, n.children()[0], Value::from_bytes(left), scope, rng, sink)?;
            distribute(g, n.children()[1], Value::from_bytes(right), scope, rng, sink)
        }
        ObfKind::Mirror | ObfKind::Prefixed { .. } => {
            distribute(g, n.children()[0], input, scope, rng, sink)
        }
        other => unreachable!(
            "holder subtrees contain only terminals, split sequences and wrappers, found {}",
            other.tag()
        ),
    }
}

/// `apply_op` requires a non-empty right operand; an empty share only
/// occurs together with an empty value, where any 1-byte operand is inert.
fn pad_one(share: &[u8]) -> &[u8] {
    if share.is_empty() {
        &[0]
    } else {
        share
    }
}

/// Recovers the base value of the holder subtree rooted at `node` from
/// terminal wire values (the inverse aggregation pass, run by getters and
/// by the parser for structurally needed references).
///
/// Returns `None` when a required wire value is missing from `lookup`.
pub(crate) fn recover(
    g: &ObfGraph,
    node: ObfId,
    scope: &[u32],
    lookup: &dyn Fn(ObfId, &[u32]) -> Option<Value>,
) -> Option<Value> {
    let n = g.node(node);
    match &n.kind {
        ObfKind::Terminal { ops, .. } => {
            let wire = lookup(node, scope)?;
            Some(undo_ops(ops, wire))
        }
        ObfKind::SplitSeq { expr, recombine } => {
            let a = recover(g, n.children()[0], scope, lookup)?;
            let b = recover(g, n.children()[1], scope, lookup)?;
            let v = match recombine {
                Recombine::Concat(_) => {
                    let mut bytes = a.into_bytes();
                    bytes.extend_from_slice(b.as_bytes());
                    Value::from_bytes(bytes)
                }
                Recombine::Op(op) => {
                    Value::from_bytes(apply_op(op.inverse(), b.as_bytes(), pad_one(a.as_bytes())))
                }
            };
            Some(undo_ops(&expr.ops, v))
        }
        ObfKind::Mirror | ObfKind::Prefixed { .. } => recover(g, n.children()[0], scope, lookup),
        _ => None,
    }
}
