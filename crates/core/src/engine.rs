//! The obfuscation engine: random transformation selection (paper §VI).
//!
//! "Each node of the graph is analyzed to identify compatible generic
//! transformations. A transformation is randomly chosen among them and
//! applied to the node. This routine is applied as many times as indicated
//! by a parameter specified in the framework."
//!
//! The engine makes one pass over the graph per level. In each pass, every
//! node live at the start of the pass is offered one randomly chosen
//! applicable transformation; nodes created during a pass are offered
//! theirs from the next pass on. A node records how many transformations
//! produced it ([`crate::obf::ObfNode::obf_count`]: a rewritten node's
//! count goes up by one, a created node starts at its target's count plus
//! one), and the loop does not read that count: a pass raises a count by
//! at most one, so every node offered in pass `k` (from 1) has a count
//! below `k`, and a per-node budget of `level` would never bind. Candidate
//! rewrites that fail the global soundness checks
//! ([`crate::transform::post_check`]) are rolled back and another
//! transformation is tried.
//!
//! A derivation keeps one pre-order layout of the graph (positions,
//! subtree ends, extent classes), built once from the plain image.
//! `ReadFromEnd`'s applicability reads it, and after each structural
//! rewrite, and after each rollback of one, the rewritten slot's subtree
//! is spliced into it. The checks then run only where a rewrite at that
//! slot can change their verdict (`transform::check_slot` gives the
//! argument for each); while the graph is not known to pass them, they
//! run in full. Debug builds assert that each verdict equals
//! `post_check`'s and that the layout equals a fresh one.
//!
//! Each node's ancestors are walked once, into a constraint context
//! (`transform::Context`): it filters the allowed kinds, and each
//! kind tried is rewritten without a second applicability check. A
//! rejected rewrite is rolled back exactly, so the context stays true for
//! the next kind.
//!
//! Each candidate runs inside a journaled rewrite
//! ([`crate::obf::ObfGraph`]'s `begin`/`commit`/`rollback`): the graph's
//! mutators save only what they overwrite, so a rejected candidate costs
//! the nodes it touched, not a copy of the graph. Rollback truncates the
//! nodes the candidate allocated, so node names (which embed the
//! allocation count) are the same as if it had never run. Constant-op
//! rewrites (`ConstAdd`/`ConstSub`/`ConstXor`) of a graph that passes the
//! checks skip them and leave the layout as it is: they write nothing
//! either reads. Since nothing can reject them, they run unjournaled.
//!
//! A derivation builds no text: applicability and soundness verdicts are
//! typed (`transform::Reason`, node ids and no names), and only the
//! public calls that return a reason render it. The candidate kinds of a
//! node, the pass's node list and the journal live in buffers reused
//! across nodes, passes and rewrites.

use rand::rngs::StdRng;

use rand::SeedableRng;

use crate::codec::Codec;
use crate::error::SpecError;
use crate::extent::Layout;
use crate::graph::FormatGraph;
use crate::obf::ObfGraph;
use crate::transform::{self, Context, Slot, TransformKind, TransformRecord};

/// Builder for obfuscated codecs.
///
/// ```
/// use protoobf_core::graph::{Boundary, GraphBuilder};
/// use protoobf_core::engine::Obfuscator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new("demo");
/// let root = b.root_sequence("msg", Boundary::End);
/// b.uint_be(root, "id", 2);
/// let graph = b.build()?;
/// let codec = Obfuscator::new(&graph).seed(7).max_per_node(2).obfuscate()?;
/// assert!(codec.transform_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Obfuscator<'g> {
    graph: &'g FormatGraph,
    seed: u64,
    max_per_node: u32,
    allowed: Vec<TransformKind>,
}

impl<'g> Obfuscator<'g> {
    /// Starts an obfuscator for a validated specification.
    pub fn new(graph: &'g FormatGraph) -> Self {
        Obfuscator { graph, seed: 0, max_per_node: 1, allowed: TransformKind::ALL.to_vec() }
    }

    /// Sets the raw RNG seed. Both communicating peers must use the same
    /// seed (and specification) to derive identical codecs.
    ///
    /// Experiments that sweep integer seeds use this directly. A
    /// deployment shares a string/byte secret instead: [`Obfuscator::key`]
    /// stretches it into the seed, and at the endpoint level a
    /// [`crate::profile::Profile`] carries it — the one object both peers
    /// share.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shared secret: an arbitrary byte/string key stretched into
    /// the per-graph RNG seed ([`crate::profile::stretch_key`]). Both
    /// communicating peers must use the same key (and specification) to
    /// derive identical codecs. Overrides any earlier [`Obfuscator::seed`].
    pub fn key(mut self, key: impl AsRef<[u8]>) -> Self {
        self.seed = crate::profile::stretch_key(key.as_ref());
        self
    }

    /// Applies a whole [`crate::profile::ObfConfig`] — key, per-node
    /// budget and allowed transformation set — in one step. This is how
    /// [`crate::profile::Profile::build_with`] drives the engine.
    pub fn config(mut self, cfg: &crate::profile::ObfConfig) -> Self {
        self.seed = cfg.rng_seed();
        self.max_per_node = cfg.level;
        self.allowed = cfg.allowed.clone();
        self
    }

    /// The obfuscation level (the paper's experiment parameter, 0–4): the
    /// number of passes, each offering every node live at its start one
    /// transformation. Zero yields the identity codec. Each node's
    /// [`crate::obf::ObfNode::obf_count`] is recorded, not read; it ends at
    /// most `max`.
    pub fn max_per_node(mut self, max: u32) -> Self {
        self.max_per_node = max;
        self
    }

    /// Restricts the set of candidate transformations (all thirteen by
    /// default).
    pub fn allowed(mut self, kinds: impl IntoIterator<Item = TransformKind>) -> Self {
        self.allowed = kinds.into_iter().collect();
        self
    }

    /// Runs the selection loop and produces the codec.
    ///
    /// # Errors
    ///
    /// None: a [`FormatGraph`] is validated by construction
    /// ([`crate::graph::GraphBuilder::build`] is its only constructor and
    /// nothing mutates one), so the graph is not validated again here.
    pub fn obfuscate(&self) -> Result<Codec, SpecError> {
        Ok(self.derive(ObfGraph::from_plain(self.graph)))
    }

    /// The selection loop of [`Obfuscator::obfuscate`], on `g`, the image
    /// of this obfuscator's graph.
    pub(crate) fn derive(&self, mut g: ObfGraph) -> Codec {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut records: Vec<TransformRecord> = Vec::new();

        if self.max_per_node == 0 || self.allowed.is_empty() {
            return Codec::from_parts(g, records);
        }

        // The layout of `g`, spliced after every structural rewrite and
        // every rollback of one.
        let mut layout = Layout::of(&g, g.root());
        // Whether `g` passes `post_check`. Every accepted rewrite leaves it
        // true; while it is, a rewrite is checked only where it can change
        // the verdict.
        let mut sound = transform::check(&g, &layout).is_ok();

        // One pass per level: every node existing at the start of a pass
        // receives at most one randomly chosen applicable transformation;
        // nodes created by a rewrite participate in later passes only.
        // This reproduces the paper's growth curve (the number of applied
        // transformations grows superlinearly with the level because the
        // graph itself grows between passes, Tables III/IV).
        //
        // The pass's nodes and a node's candidate kinds live in buffers
        // kept across passes and nodes.
        let mut snapshot = Vec::new();
        let mut kinds = Vec::with_capacity(self.allowed.len());
        for _pass in 0..self.max_per_node {
            snapshot.clear();
            snapshot.extend_from_slice(layout.order());
            for &id in &snapshot {
                let ctx = Context::of(&g, id);
                // Skip nodes detached during this pass (replaced targets).
                if !ctx.live {
                    continue;
                }
                kinds.clear();
                kinds.extend(
                    self.allowed
                        .iter()
                        .copied()
                        .filter(|&k| ctx.admits(&g, Some(&layout), k).is_ok()),
                );
                weighted_shuffle(&mut kinds, &mut rng);
                let slot = Slot::of(&g, &layout, id);
                for &kind in &kinds {
                    let structural = !kind.op_only();
                    // An op-only rewrite of a sound graph is accepted
                    // unchecked, so nothing needs journaling for it.
                    let journaled = structural || !sound;
                    if journaled {
                        g.begin();
                    }
                    let record = transform::rewrite(&mut g, &ctx, kind, &mut rng);
                    if structural {
                        slot.relayout(&g, &mut layout);
                    }
                    let verdict = match (sound, structural) {
                        (true, false) => Ok(()),
                        (true, true) => transform::check_slot(&g, &layout, &slot),
                        (false, _) => transform::check(&g, &layout),
                    };
                    debug_assert_eq!(
                        verdict.is_ok(),
                        transform::post_check(&g).is_ok(),
                        "{kind} on {id}: scoped verdict {verdict:?} disagrees with post_check"
                    );
                    let accepted = verdict.is_ok();
                    if accepted {
                        if journaled {
                            g.commit();
                        }
                        sound = true;
                        records.push(record);
                    } else {
                        g.rollback();
                        if structural {
                            slot.relayout(&g, &mut layout);
                        }
                    }
                    debug_assert!(
                        layout == Layout::of(&g, g.root()),
                        "the maintained layout differs from a fresh one after {kind} on {id}"
                    );
                    if accepted {
                        break;
                    }
                }
            }
        }
        Codec::from_parts(g, records)
    }
}

/// Orders candidates by repeated weighted draws (first element is a
/// weighted random choice; the rest act as soundness-check fallbacks). In
/// place: each draw picks among the kinds not yet placed, which keep their
/// order, and rotates the pick in front of them.
fn weighted_shuffle<R: rand::Rng + ?Sized>(kinds: &mut [TransformKind], rng: &mut R) {
    for placed in 0..kinds.len() {
        let rest = &mut kinds[placed..];
        let total: u32 = rest.iter().map(|k| k.weight()).sum();
        let mut pick = rng.gen_range(0..total);
        let mut chosen = 0usize;
        for (i, k) in rest.iter().enumerate() {
            if pick < k.weight() {
                chosen = i;
                break;
            }
            pick -= k.weight();
        }
        rest[..=chosen].rotate_right(1);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, Condition, GraphBuilder, Predicate, StopRule};
    use crate::transform::post_check;
    use crate::value::{TerminalKind, Value};

    pub(crate) fn rich_graph() -> FormatGraph {
        let mut b = GraphBuilder::new("rich");
        let root = b.root_sequence("m", Boundary::End);
        let tid = b.uint_be(root, "tid", 2);
        let _ = tid;
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        let flag = b.uint_be(root, "flag", 1);
        let opt = b.optional(
            root,
            "extra",
            Condition { subject: flag, predicate: Predicate::Equals(Value::from_bytes(vec![1])) },
        );
        b.uint_be(opt, "ev", 4);
        let count = b.uint_be(root, "count", 1);
        let tab = b.tabular(root, "items", count);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let item = b.sequence(tab, "item", Boundary::Delegated);
        b.uint_be(item, "addr", 2);
        b.uint_be(item, "val", 2);
        let rep = b.repetition(
            root,
            "headers",
            StopRule::Terminator(b"\r\n".to_vec()),
            Boundary::Delegated,
        );
        let h = b.sequence(rep, "header", Boundary::Delegated);
        b.terminal(h, "name", TerminalKind::Ascii, Boundary::Delimited(b": ".to_vec()));
        b.terminal(h, "hv", TerminalKind::Ascii, Boundary::Delimited(b"\r\n".to_vec()));
        b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
        b.build().unwrap()
    }

    #[test]
    fn level_zero_is_identity() {
        let g = rich_graph();
        let codec = Obfuscator::new(&g).seed(1).max_per_node(0).obfuscate().unwrap();
        assert_eq!(codec.transform_count(), 0);
    }

    #[test]
    fn level_one_applies_roughly_one_per_node() {
        let g = rich_graph();
        let codec = Obfuscator::new(&g).seed(1).max_per_node(1).obfuscate().unwrap();
        let n = codec.transform_count();
        // Not every node admits a transformation, but most do.
        assert!(n >= g.len() / 3, "applied {n} on {} nodes", g.len());
        assert!(post_check(codec.obf_graph()).is_ok());
    }

    #[test]
    fn transform_count_grows_superlinearly_with_level() {
        let g = rich_graph();
        let counts: Vec<usize> = (1..=4)
            .map(|lvl| {
                Obfuscator::new(&g)
                    .seed(42)
                    .max_per_node(lvl)
                    .obfuscate()
                    .unwrap()
                    .transform_count()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
        // Level 4 should comfortably exceed 4x level 1 (new nodes also get
        // obfuscated), matching the paper's Tables III/IV shape.
        assert!(counts[3] > counts[0] * 3, "{counts:?}");
    }

    #[test]
    fn counts_stay_within_the_level() {
        let g = rich_graph();
        for level in 1..=4 {
            let codec = Obfuscator::new(&g).seed(7).max_per_node(level).obfuscate().unwrap();
            let obf = codec.obf_graph();
            let most = obf.preorder().into_iter().map(|id| obf.node(id).obf_count()).max();
            assert!(most <= Some(level), "level {level}: a node counts {most:?}");
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let g = rich_graph();
        let a = Obfuscator::new(&g).seed(99).max_per_node(2).obfuscate().unwrap();
        let b = Obfuscator::new(&g).seed(99).max_per_node(2).obfuscate().unwrap();
        let names_a: Vec<String> = a.records().iter().map(|r| r.to_string()).collect();
        let names_b: Vec<String> = b.records().iter().map(|r| r.to_string()).collect();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn different_seeds_differ() {
        let g = rich_graph();
        let a = Obfuscator::new(&g).seed(1).max_per_node(2).obfuscate().unwrap();
        let b = Obfuscator::new(&g).seed(2).max_per_node(2).obfuscate().unwrap();
        let names_a: Vec<String> = a.records().iter().map(|r| r.to_string()).collect();
        let names_b: Vec<String> = b.records().iter().map(|r| r.to_string()).collect();
        assert_ne!(names_a, names_b);
    }

    #[test]
    fn restricted_transform_set_is_respected() {
        let g = rich_graph();
        let codec = Obfuscator::new(&g)
            .seed(5)
            .max_per_node(2)
            .allowed([TransformKind::ConstAdd, TransformKind::ConstXor])
            .obfuscate()
            .unwrap();
        assert!(codec.transform_count() > 0);
        for r in codec.records() {
            assert!(matches!(r.kind, TransformKind::ConstAdd | TransformKind::ConstXor));
        }
    }
}
