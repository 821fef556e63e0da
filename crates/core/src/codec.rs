//! The [`Codec`]: a generated obfuscating serializer/parser pair.
//!
//! A codec is what the paper's framework emits as a C library: the product
//! of a message format specification and an obfuscation plan. Both
//! communicating peers construct the same codec from the same specification
//! and seed, so they agree on every transformation parameter.

use std::sync::{Arc, Mutex};

use crate::error::{BuildError, ParseError};
use crate::graph::FormatGraph;
use crate::message::Message;
use crate::obf::ObfGraph;
use crate::parse::ParseSession;
use crate::plan::{CodecPlan, CopyProgram};
use crate::serialize::SerializeSession;
use crate::transform::TransformRecord;

/// An obfuscating serializer/parser pair for one message format.
#[derive(Debug)]
pub struct Codec {
    graph: ObfGraph,
    records: Vec<TransformRecord>,
    /// Compiled transcode copy programs, keyed by the **source** graph's
    /// uid: one program per (source codec, this codec) pairing, shared by
    /// every relay target built from this codec
    /// ([`Codec::transcode_target`]). A handful of pairings per process
    /// (gateway legs), so a scanned `Vec` beats a hash map.
    copy_programs: Mutex<Vec<(u64, Arc<CopyProgram>)>>,
}

impl Clone for Codec {
    fn clone(&self) -> Self {
        // The graph clone carries the cached plan; copy programs reference
        // source graphs by uid and are re-derived on demand.
        Codec {
            graph: self.graph.clone(),
            records: self.records.clone(),
            copy_programs: Mutex::new(Vec::new()),
        }
    }
}

impl Codec {
    pub(crate) fn from_parts(graph: ObfGraph, records: Vec<TransformRecord>) -> Self {
        Codec { graph, records, copy_programs: Mutex::new(Vec::new()) }
    }

    /// A codec with zero transformations: the plain (classic) protocol.
    pub fn identity(plain: &FormatGraph) -> Self {
        Codec::from_parts(ObfGraph::from_plain(plain), Vec::new())
    }

    /// [`Codec::identity`] of this codec's plain specification, sharing it
    /// rather than copying it.
    pub(crate) fn clear_twin(&self) -> Self {
        let plain = std::sync::Arc::clone(self.graph.shared_plain());
        Codec::from_parts(ObfGraph::from_shared(plain), Vec::new())
    }

    /// The compiled execution plan (built on first use, then cached on the
    /// graph). Both the one-shot entry points and the session
    /// constructors share it.
    pub fn plan(&self) -> &CodecPlan {
        self.graph.plan()
    }

    /// The compiled transcode copy program for messages of `src` being
    /// copied into messages of this codec — compiled once per pairing and
    /// cached, so every relay connection shares one program per
    /// direction.
    ///
    /// # Errors
    ///
    /// [`BuildError::GraphMismatch`] when the two codecs do not share a
    /// structurally identical plain specification.
    pub(crate) fn copy_program_from(&self, src: &Codec) -> Result<Arc<CopyProgram>, BuildError> {
        let uid = src.graph.uid();
        {
            let cache = self.copy_programs.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((_, prog)) = cache.iter().find(|(u, _)| *u == uid) {
                return Ok(Arc::clone(prog));
            }
        }
        // Compile outside the lock (it compiles both plans on first use);
        // a racing duplicate insert is harmless — same program content.
        let prog = CopyProgram::compile(&src.graph, &self.graph).ok_or_else(|| {
            let (a, b) = (src.graph.plain(), self.graph.plain());
            BuildError::GraphMismatch {
                expected: format!("{} ({} nodes)", b.name(), b.len()),
                found: format!("{} ({} nodes)", a.name(), a.len()),
            }
        })?;
        // Debug builds statically verify every freshly compiled transcode
        // program (jump nesting, plain/slot references, step shapes)
        // before it enters the per-pairing cache.
        #[cfg(debug_assertions)]
        {
            let diags = crate::verify::verify_copy_program(&src.graph, &self.graph, &prog);
            assert!(diags.is_empty(), "compiled copy program failed verification: {diags:#?}");
        }
        let prog = Arc::new(prog);
        let mut cache = self.copy_programs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, cached)) = cache.iter().find(|(u, _)| *u == uid) {
            return Ok(Arc::clone(cached));
        }
        cache.push((uid, Arc::clone(&prog)));
        Ok(prog)
    }

    /// An empty message of this codec pre-armed as a transcode
    /// destination for messages of `src`: the shared compiled
    /// [`CopyProgram`] is attached up front, so the target's very first
    /// [`Message::transcode_into`] already runs the compiled path without
    /// a per-connection compile.
    ///
    /// # Errors
    ///
    /// [`BuildError::GraphMismatch`] when the two codecs do not share a
    /// structurally identical plain specification.
    pub fn transcode_target(&self, src: &Codec) -> Result<Message<'_>, BuildError> {
        let prog = self.copy_program_from(src)?;
        let mut msg = self.message();
        msg.arm_transcode(src.graph.uid(), prog);
        Ok(msg)
    }

    /// Starts a reusable serialization session over the compiled plan.
    /// Keep the session (and an output buffer) across messages for
    /// allocation-free steady-state serialization.
    pub fn serializer(&self) -> SerializeSession<'_> {
        SerializeSession::new(&self.graph, self.plan())
    }

    /// Starts a reusable parse session over the compiled plan. Keep the
    /// session across messages for allocation-free steady-state parsing.
    pub fn parser(&self) -> ParseSession<'_> {
        ParseSession::new(&self.graph, self.plan())
    }

    /// The plain specification.
    pub fn plain(&self) -> &FormatGraph {
        self.graph.plain()
    }

    /// The obfuscation graph (`G_{n+1}`).
    pub fn obf_graph(&self) -> &ObfGraph {
        &self.graph
    }

    /// The applied transformations, in application order.
    pub fn records(&self) -> &[TransformRecord] {
        &self.records
    }

    /// Number of applied transformations (the paper's
    /// "Nb. transf. applied" metric).
    pub fn transform_count(&self) -> usize {
        self.records.len()
    }

    /// Human-readable plan summary: applied transformations by kind and
    /// category, plus graph growth. Useful for logs and the CLI.
    pub fn plan_summary(&self) -> String {
        use crate::transform::{Category, TransformKind};
        let mut by_kind: Vec<(TransformKind, usize)> =
            TransformKind::ALL.iter().map(|&k| (k, 0)).collect();
        for r in &self.records {
            if let Some(slot) = by_kind.iter_mut().find(|(k, _)| *k == r.kind) {
                slot.1 += 1;
            }
        }
        let agg: usize = by_kind
            .iter()
            .filter(|(k, _)| k.category() == Category::Aggregation)
            .map(|(_, n)| n)
            .sum();
        let ord: usize = self.records.len() - agg;
        let mut out = format!(
            "{} transformations ({agg} aggregation, {ord} ordering) on {:?}; graph {} -> {} nodes\n",
            self.records.len(),
            self.graph.plain().name(),
            self.graph.plain().len(),
            self.graph.len(),
        );
        for (k, n) in by_kind.into_iter().filter(|(_, n)| *n > 0) {
            out.push_str(&format!("  {:<16} x{n}\n", k.name()));
        }
        out
    }

    /// Starts an empty message bound to this codec.
    pub fn message(&self) -> Message<'_> {
        Message::new(&self.graph)
    }

    /// Starts an empty message with a deterministic RNG (reproducible
    /// random shares/pads).
    pub fn message_seeded(&self, seed: u64) -> Message<'_> {
        Message::with_seed(&self.graph, seed)
    }

    /// Serializes a message into the obfuscated wire format.
    ///
    /// Thin wrapper over a one-shot [`Codec::serializer`] session (the
    /// plan itself is cached). For steady-state traffic, hold a session
    /// and use [`SerializeSession::serialize_into`] instead.
    ///
    /// # Errors
    ///
    /// [`BuildError`] for missing fields or inconsistent structure.
    pub fn serialize(&self, msg: &Message<'_>) -> Result<Vec<u8>, BuildError> {
        self.serialize_seeded(msg, rand::random())
    }

    /// Serializes with a deterministic seed for serialization-time random
    /// material (pads, auto-field shares).
    ///
    /// # Errors
    ///
    /// See [`Codec::serialize`].
    pub fn serialize_seeded(&self, msg: &Message<'_>, seed: u64) -> Result<Vec<u8>, BuildError> {
        let mut out = Vec::new();
        self.serializer().serialize_into_seeded(msg, &mut out, seed)?;
        Ok(out)
    }

    /// Parses an obfuscated message back into plain field values.
    ///
    /// Thin wrapper over a one-shot [`Codec::parser`] session (the plan
    /// itself is cached). For steady-state traffic, hold a session and use
    /// [`ParseSession::parse_in_place`] instead.
    ///
    /// # Errors
    ///
    /// [`ParseError`] when the bytes are not a valid message of this codec.
    pub fn parse(&self, bytes: &[u8]) -> Result<Message<'_>, ParseError> {
        let mut session = self.parser();
        session.parse_in_place(bytes)?;
        Ok(session.into_message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Boundary, GraphBuilder};

    fn tiny() -> FormatGraph {
        let mut b = GraphBuilder::new("tiny");
        let root = b.root_sequence("msg", Boundary::End);
        b.uint_be(root, "a", 2);
        b.uint_be(root, "b", 1);
        b.build().unwrap()
    }

    #[test]
    fn identity_codec_roundtrip() {
        let c = Codec::identity(&tiny());
        assert_eq!(c.transform_count(), 0);
        let mut m = c.message_seeded(1);
        m.set_uint("a", 513).unwrap();
        m.set_uint("b", 7).unwrap();
        let wire = c.serialize_seeded(&m, 2).unwrap();
        assert_eq!(wire, vec![2, 1, 7]);
        let back = c.parse(&wire).unwrap();
        assert_eq!(back.get_uint("a").unwrap(), 513);
        assert_eq!(back.get_uint("b").unwrap(), 7);
    }

    #[test]
    fn codec_is_cloneable_and_debuggable() {
        let c = Codec::identity(&tiny());
        let c2 = c.clone();
        assert_eq!(c2.plain().name(), "tiny");
        assert!(!format!("{c:?}").is_empty());
    }

    #[test]
    fn transcode_targets_share_one_cached_program() {
        let g = tiny();
        let clear = Codec::identity(&g);
        let obf = crate::engine::Obfuscator::new(&g).seed(3).max_per_node(2).obfuscate().unwrap();
        let p1 = obf.copy_program_from(&clear).unwrap();
        let p2 = obf.copy_program_from(&clear).unwrap();
        assert!(std::sync::Arc::ptr_eq(&p1, &p2), "one compile per (src, dst) pairing");

        // An armed target transcodes straight through the shared program.
        let mut m = clear.message_seeded(1);
        m.set_uint("a", 513).unwrap();
        m.set_uint("b", 7).unwrap();
        let mut dst = obf.transcode_target(&clear).unwrap();
        m.transcode_into(&mut dst).unwrap();
        assert_eq!(dst.get_uint("a").unwrap(), 513);
        assert_eq!(dst.get_uint("b").unwrap(), 7);

        // Foreign specs are rejected at target construction, before any
        // traffic could flow through a mis-paired relay.
        let mut other = GraphBuilder::new("other");
        let root = other.root_sequence("m", Boundary::End);
        other.uint_be(root, "x", 1);
        let foreign = Codec::identity(&other.build().unwrap());
        assert!(matches!(obf.transcode_target(&foreign), Err(BuildError::GraphMismatch { .. })));
    }

    #[test]
    fn plan_summary_reports_counts() {
        let g = tiny();
        let identity = Codec::identity(&g);
        assert!(identity.plan_summary().starts_with("0 transformations"));
        let codec = crate::engine::Obfuscator::new(&g).seed(3).max_per_node(2).obfuscate().unwrap();
        let s = codec.plan_summary();
        assert!(s.contains("aggregation"));
        assert!(s.contains("ordering"));
        assert!(s.contains("-> "));
        // Every applied kind appears with a count.
        for r in codec.records() {
            assert!(s.contains(r.kind.name()), "{s}");
        }
    }
}
