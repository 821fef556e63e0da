//! The accessor interface and the *intermediate AST* (paper §VI).
//!
//! A [`Message`] is the in-memory representation of one protocol message.
//! Following the paper's design, it does **not** store the plain abstract
//! syntax tree: setters run the aggregation transformations on the fly and
//! store the already-transformed wire values of every obfuscated terminal
//! (the "intermediate representation … after the application of aggregation
//! transformations and before the application of ordering
//! transformations"). Getters invert them on the fly. The interface —
//! plain-spec field paths — is stable regardless of the obfuscation plan.
//!
//! # Storage
//!
//! Values live in **slot-backed dense stores** (`WireStore` /
//! `MetaStore`), indexed by the raw node index (the plan's *slot*) with
//! per-instance element scopes as inline `ScopeKey`s and value bytes in
//! one shared arena. Lookups are an index plus a binary search over the
//! slot's sorted scopes, or one comparison for readers that visit them in
//! order through a cursor — no hashing — and clearing a store keeps its
//! capacity, which is what lets the codec sessions
//! ([`crate::serialize::SerializeSession`], [`crate::parse::ParseSession`])
//! run without steady-state allocation.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::BuildError;
use crate::graph::{AutoValue, Boundary, NodeId, NodeType, StopRule};
use crate::obf::{ObfGraph, ObfId};
use crate::path::{self, Path};
use crate::plan::{
    apply_ops_column, apply_ops_in_place, undo_ops_column, undo_ops_in_place, CodecPlan,
    CopyProgram, CopyStep, DistCheck, DistErr, DistEval, DistProg, PoolRange, RecEval, RecProg,
};
use crate::runtime::{self, Scope};
use crate::value::{Endian, TerminalKind, Value};

/// Maximum supported repetition/tabular nesting depth. Element scopes are
/// stored inline (allocation-free) up to this depth;
/// [`crate::graph::FormatGraph::validate`] rejects deeper specifications.
pub const MAX_SCOPE: usize = 8;

/// An element-index scope stored inline: one index per repetition/tabular
/// crossed, outermost first. The derived ordering (depth, then
/// lexicographic indices) matches traversal order, so store entries pushed
/// during a message walk are naturally sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub(crate) struct ScopeKey {
    len: u8,
    idx: [u32; MAX_SCOPE],
}

impl ScopeKey {
    pub(crate) fn from_slice(scope: &[u32]) -> ScopeKey {
        assert!(
            scope.len() <= MAX_SCOPE,
            "element scope deeper than the supported nesting of {MAX_SCOPE}"
        );
        let mut idx = [0u32; MAX_SCOPE];
        idx[..scope.len()].copy_from_slice(scope);
        ScopeKey { len: scope.len() as u8, idx }
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.idx[..self.len as usize]
    }

    /// The key of element `i` of a container at `scope`: `scope`
    /// followed by `i`. Loop kernels build it once per container and
    /// move it along with [`ScopeKey::set_last`].
    pub(crate) fn element(scope: &[u32], i: u32) -> ScopeKey {
        assert!(
            scope.len() < MAX_SCOPE,
            "element scope deeper than the supported nesting of {MAX_SCOPE}"
        );
        let mut idx = [0u32; MAX_SCOPE];
        idx[..scope.len()].copy_from_slice(scope);
        idx[scope.len()] = i;
        ScopeKey { len: scope.len() as u8 + 1, idx }
    }

    /// Replaces the innermost element index.
    pub(crate) fn set_last(&mut self, i: u32) {
        self.idx[self.len as usize - 1] = i;
    }
}

/// Dense per-slot wire-value storage: value bytes live in one arena,
/// instances are `(scope, range)` entries per slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireStore {
    per_slot: Vec<Vec<(ScopeKey, u32, u32)>>,
    data: Vec<u8>,
}

impl WireStore {
    pub(crate) fn with_slots(n: usize) -> WireStore {
        WireStore { per_slot: vec![Vec::new(); n], data: Vec::new() }
    }

    /// Clears all entries, keeping every capacity (session reuse).
    pub(crate) fn clear(&mut self) {
        for v in &mut self.per_slot {
            v.clear();
        }
        self.data.clear();
    }

    pub(crate) fn get(&self, slot: usize, scope: &[u32]) -> Option<&[u8]> {
        let key = ScopeKey::from_slice(scope);
        let entries = self.per_slot.get(slot)?;
        let i = entries.binary_search_by(|(k, _, _)| k.cmp(&key)).ok()?;
        Some(self.bytes(entries[i]))
    }

    fn bytes(&self, (_, start, end): (ScopeKey, u32, u32)) -> &[u8] {
        &self.data[start as usize..end as usize]
    }

    pub(crate) fn contains(&self, slot: usize, scope: &[u32]) -> bool {
        self.get(slot, scope).is_some()
    }

    /// Inserts or replaces the value at `(slot, scope)`. Bytes are appended
    /// to the arena; a replaced value's old bytes are reclaimed on the next
    /// [`WireStore::clear`]. Entries stay sorted by scope — message walks
    /// insert in order, so the common case is an O(1) tail push (checked
    /// before falling back to a binary search).
    pub(crate) fn set(&mut self, slot: usize, scope: &[u32], bytes: &[u8]) {
        self.set_key(slot, &ScopeKey::from_slice(scope), bytes, false);
    }

    /// [`WireStore::set`] under an already-built key, storing `bytes`
    /// reversed when `rev` (an un-mirrored element-run column).
    pub(crate) fn set_key(&mut self, slot: usize, key: &ScopeKey, bytes: &[u8], rev: bool) {
        let start = self.data.len();
        if rev {
            self.data.extend(bytes.iter().rev());
        } else {
            self.data.extend_from_slice(bytes);
        }
        self.index(slot, key, start);
    }

    /// [`WireStore::set`] that hands the stored bytes to `edit` before
    /// indexing them, so a caller can transform a value in place instead
    /// of building it in a scratch buffer and copying it in. When `edit`
    /// fails the value is discarded: the arena is truncated back and the
    /// entry at `(slot, scope)` keeps whatever it held before.
    pub(crate) fn set_with<E>(
        &mut self,
        slot: usize,
        scope: &[u32],
        bytes: &[u8],
        edit: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.data.len();
        self.data.extend_from_slice(bytes);
        if let Err(e) = edit(&mut self.data[start..]) {
            self.data.truncate(start);
            return Err(e);
        }
        self.index(slot, &ScopeKey::from_slice(scope), start);
        Ok(())
    }

    /// Points `(slot, key)` at the arena bytes from `start` to the end.
    fn index(&mut self, slot: usize, key: &ScopeKey, start: usize) {
        let (start, end) = (start as u32, self.data.len() as u32);
        let key = *key;
        let entries = &mut self.per_slot[slot];
        match entries.last_mut() {
            Some(last) if last.0 < key => entries.push((key, start, end)),
            Some(last) if last.0 == key => {
                last.1 = start;
                last.2 = end;
            }
            None => entries.push((key, start, end)),
            Some(_) => match entries.binary_search_by(|(k, _, _)| k.cmp(&key)) {
                Ok(i) => {
                    entries[i].1 = start;
                    entries[i].2 = end;
                }
                Err(i) => entries.insert(i, (key, start, end)),
            },
        }
    }

    /// [`WireStore::get`] with a **sequential cursor**: when the caller
    /// visits a slot's instances in scope order (the transcode copy
    /// programs and the serializer do — plain pre-order is exactly the
    /// stores' sort order), each lookup is one equality check instead of a
    /// binary search. A cursor miss falls back to the search and
    /// re-synchronizes the cursor, so out-of-order access is merely
    /// slower, never wrong.
    pub(crate) fn get_seq(&self, slot: usize, scope: &[u32], cursor: &mut u32) -> Option<&[u8]> {
        self.get_seq_key(slot, &ScopeKey::from_slice(scope), cursor)
    }

    /// [`WireStore::get_seq`] under an already-built key.
    pub(crate) fn get_seq_key(
        &self,
        slot: usize,
        key: &ScopeKey,
        cursor: &mut u32,
    ) -> Option<&[u8]> {
        let entries = self.per_slot.get(slot)?;
        let i = seek(entries, key, cursor, |e| &e.0)?;
        *cursor += 1;
        Some(self.bytes(entries[i]))
    }

    /// The column copy of one slot: appends every entry of `src`'s
    /// `src_slot` whose key is `scope` followed by an element index below
    /// `n` — the entries a loop over `n` elements would read, in order —
    /// to `slot` under the same key, each value handed to `edit` in the
    /// arena first. Returns `false`, with whatever was appended left in
    /// place, when `edit` rejects a value or a key would not sort after
    /// the slot's last entry; the caller rolls back with
    /// [`WireStore::truncate`].
    pub(crate) fn copy_column(
        &mut self,
        slot: usize,
        src: &WireStore,
        src_slot: usize,
        scope: &[u32],
        n: usize,
        mut edit: impl FnMut(&mut [u8]) -> bool,
    ) -> bool {
        // Keys sort by depth, then index by index: the column is the
        // entries from `scope`'s element 0 up to (not including) element
        // `n`, and they sort after everything already under `slot` when
        // their first one does.
        let entries = &src.per_slot[src_slot];
        let lo = entries.partition_point(|e| e.0 < ScopeKey::element(scope, 0));
        let hi = match u32::try_from(n) {
            Ok(n) => entries.partition_point(|e| e.0 < ScopeKey::element(scope, n)),
            Err(_) => entries.partition_point(|e| e.0 <= ScopeKey::element(scope, u32::MAX)),
        };
        let column = &entries[lo..hi.max(lo)];
        let dst = &mut self.per_slot[slot];
        if let (Some(last), Some(first)) = (dst.last(), column.first()) {
            if last.0 >= first.0 {
                return false;
            }
        }
        dst.reserve(column.len());
        for &(key, s, e) in column {
            let start = self.data.len();
            self.data.extend_from_slice(&src.data[s as usize..e as usize]);
            if !edit(&mut self.data[start..]) {
                return false;
            }
            dst.push((key, start as u32, self.data.len() as u32));
        }
        true
    }

    /// Arena length: with [`WireStore::entries_len`], the state
    /// [`WireStore::truncate`] rolls back to.
    pub(crate) fn arena_len(&self) -> usize {
        self.data.len()
    }

    /// The arena bytes appended since it was `start` long.
    pub(crate) fn arena_from(&mut self, start: usize) -> &mut [u8] {
        &mut self.data[start..]
    }

    /// Number of entries under `slot`.
    pub(crate) fn entries_len(&self, slot: usize) -> usize {
        self.per_slot[slot].len()
    }

    /// Drops `slot`'s entries past the first `entries` and the arena
    /// bytes past `arena` (a rollback to lengths read before appending).
    pub(crate) fn truncate(&mut self, slot: usize, entries: usize, arena: usize) {
        self.per_slot[slot].truncate(entries);
        self.data.truncate(arena);
    }

    /// Whether `(slot, scope)` holds a value, looked up like
    /// [`WireStore::get_seq`] but without consuming the entry: a hit
    /// leaves the cursor on it, so the read that follows is a hit too.
    pub(crate) fn contains_seq(&self, slot: usize, scope: &[u32], cursor: &mut u32) -> bool {
        self.per_slot
            .get(slot)
            .and_then(|entries| seek(entries, &ScopeKey::from_slice(scope), cursor, |e| &e.0))
            .is_some()
    }

    /// The scopes at which `slot` holds a value.
    pub(crate) fn scopes_of(&self, slot: usize) -> impl Iterator<Item = &[u32]> + '_ {
        self.per_slot[slot].iter().map(|(k, _, _)| k.as_slice())
    }

    /// Number of slots this store was sized for.
    pub(crate) fn slots(&self) -> usize {
        self.per_slot.len()
    }

    /// All stored values, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[u32], &[u8])> + '_ {
        self.per_slot.iter().enumerate().flat_map(move |(slot, entries)| {
            entries.iter().map(move |&(ref k, start, end)| {
                (slot, k.as_slice(), &self.data[start as usize..end as usize])
            })
        })
    }
}

/// Finds `key` in one slot's sorted entries, trying the entry under
/// `cursor` first and leaving the cursor on the match. Only a cursor miss
/// pays for a search, and a key past the last entry (the miss of a reader
/// that runs ahead of an in-order writer) costs one comparison.
fn seek<E>(
    entries: &[E],
    key: &ScopeKey,
    cursor: &mut u32,
    key_of: impl Fn(&E) -> &ScopeKey,
) -> Option<usize> {
    let c = *cursor as usize;
    let i = match entries.get(c) {
        Some(e) if key_of(e) == key => c,
        _ if entries.last().is_some_and(|e| key_of(e) < key) => return None,
        _ => entries.binary_search_by(|e| key_of(e).cmp(key)).ok()?,
    };
    *cursor = i as u32;
    Some(i)
}

/// Dense per-slot metadata storage (presence flags, element counts).
#[derive(Debug, Clone, Default)]
pub(crate) struct MetaStore<T: Copy> {
    per_slot: Vec<Vec<(ScopeKey, T)>>,
}

impl<T: Copy> MetaStore<T> {
    pub(crate) fn with_slots(n: usize) -> MetaStore<T> {
        MetaStore { per_slot: vec![Vec::new(); n] }
    }

    pub(crate) fn clear(&mut self) {
        for v in &mut self.per_slot {
            v.clear();
        }
    }

    pub(crate) fn get(&self, slot: usize, scope: &[u32]) -> Option<T> {
        let key = ScopeKey::from_slice(scope);
        let entries = self.per_slot.get(slot)?;
        let i = entries.binary_search_by(|(k, _)| k.cmp(&key)).ok()?;
        Some(entries[i].1)
    }

    /// [`MetaStore::get`] through a sequential cursor (see
    /// [`WireStore::get_seq`]).
    pub(crate) fn get_seq(&self, slot: usize, scope: &[u32], cursor: &mut u32) -> Option<T> {
        let entries = self.per_slot.get(slot)?;
        let i = seek(entries, &ScopeKey::from_slice(scope), cursor, |e| &e.0)?;
        *cursor += 1;
        Some(entries[i].1)
    }

    pub(crate) fn set(&mut self, slot: usize, scope: &[u32], value: T) {
        let key = ScopeKey::from_slice(scope);
        let entries = &mut self.per_slot[slot];
        match entries.last_mut() {
            // In-order inserts (message walks) are an O(1) tail push.
            Some(last) if last.0 < key => entries.push((key, value)),
            Some(last) if last.0 == key => last.1 = value,
            None => entries.push((key, value)),
            Some(_) => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => entries[i].1 = value,
                Err(i) => entries.insert(i, (key, value)),
            },
        }
    }

    /// Read-modify-write without an entry clone.
    pub(crate) fn update(
        &mut self,
        slot: usize,
        scope: &[u32],
        default: T,
        f: impl FnOnce(T) -> T,
    ) {
        let key = ScopeKey::from_slice(scope);
        let entries = &mut self.per_slot[slot];
        match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => entries[i].1 = f(entries[i].1),
            Err(i) => entries.insert(i, (key, f(default))),
        }
    }
}

/// A message under construction (or recovered by the parser), exposing the
/// stable setter/getter interface over plain-specification field paths.
#[derive(Debug)]
pub struct Message<'c> {
    graph: &'c ObfGraph,
    pub(crate) wires: WireStore,
    pub(crate) presence: MetaStore<bool>,
    pub(crate) counts: MetaStore<usize>,
    rng: StdRng,
    /// Evaluation scratch of the compiled plan programs: recovery (the
    /// sampler's subject reads, and a relay target reading its source)
    /// and distribution (the setters, and the copy programs writing into
    /// this message). Warmed capacity travels with [`MessageState`].
    ev: RecEval,
    dist: DistEval,
    /// Uid of the last source graph this message was structurally
    /// validated against as a transcode destination (0 = none). Lets a
    /// reusable relay target skip the per-message [`plains_match`] walk;
    /// graph uids are process-unique and refreshed on mutation, so the
    /// cache cannot be fooled by allocator address reuse.
    validated_src: u64,
    /// Compiled transcode state of a reusable relay target: the copy
    /// program for the last source graph plus warmed read cursors. `None`
    /// until the first [`Message::transcode_into`] (or until armed by
    /// [`crate::service::CodecService::transcode_target`]).
    transcode: Option<TranscodeCache>,
}

/// The compiled-transcode state a destination [`Message`] caches across
/// relayed messages: which source graph the program was compiled for
/// (uid, refreshed on every graph mutation), the shared program, and the
/// reusable read cursors. Once warm, running the program allocates
/// nothing.
#[derive(Debug)]
pub(crate) struct TranscodeCache {
    src_uid: u64,
    prog: Arc<CopyProgram>,
    /// Per-source-slot sequential read cursors (see
    /// [`WireStore::get_seq`]); reset per message, reused capacity.
    cursors: Vec<u32>,
    /// Destination entry counts a column copy rolls back to.
    marks: Vec<usize>,
}

/// The lifetime-free owned state of a [`Message`]: its stores and
/// evaluation scratch without the graph borrow. Lets session scratch (and
/// through it the [`crate::service::CodecService`] pools) carry warmed-up
/// message capacity across checkouts.
#[derive(Debug)]
pub(crate) struct MessageState {
    wires: WireStore,
    presence: MetaStore<bool>,
    counts: MetaStore<usize>,
    ev: RecEval,
    dist: DistEval,
    transcode: Option<TranscodeCache>,
}

impl<'c> Message<'c> {
    /// Creates an empty message for the given obfuscation graph, seeding
    /// the share-generation RNG from the OS.
    pub fn new(graph: &'c ObfGraph) -> Self {
        Message::with_seed(graph, rand::random())
    }

    /// Creates an empty message with a deterministic RNG seed (reproducible
    /// random shares and pads).
    pub fn with_seed(graph: &'c ObfGraph, seed: u64) -> Self {
        let n_obf = graph.allocated();
        let n_plain = graph.plain().len();
        Message {
            graph,
            wires: WireStore::with_slots(n_obf),
            presence: MetaStore::with_slots(n_plain),
            counts: MetaStore::with_slots(n_plain),
            rng: StdRng::seed_from_u64(seed),
            ev: RecEval::default(),
            dist: DistEval::default(),
            validated_src: 0,
            transcode: None,
        }
    }

    /// Clears every field, presence flag and element count, keeping all
    /// allocated capacity — a long-lived message (e.g. the reusable
    /// transcode target of a gateway relay, or a parse session's message)
    /// can be refilled without reallocating its stores.
    pub fn clear(&mut self) {
        self.wires.clear();
        self.presence.clear();
        self.counts.clear();
    }

    /// Rebinds pooled message state to the graph it was created for,
    /// cleared but with all capacities intact. The setter RNG is reseeded
    /// from ambient entropy so a pooled message never continues the
    /// (possibly caller-seeded, predictable) stream of its previous owner.
    pub(crate) fn from_state(graph: &'c ObfGraph, state: MessageState) -> Self {
        debug_assert_eq!(state.wires.slots(), graph.allocated(), "state from a different graph");
        let mut m = Message {
            graph,
            wires: state.wires,
            presence: state.presence,
            counts: state.counts,
            rng: StdRng::seed_from_u64(rand::random()),
            ev: state.ev,
            dist: state.dist,
            validated_src: 0,
            transcode: state.transcode,
        };
        m.clear();
        m
    }

    /// Takes the owned state back out for pooling (the RNG is dropped —
    /// see [`Message::from_state`]). The compiled transcode cache travels
    /// with the state: it is keyed on the source graph's uid, so a stale
    /// pairing can never be replayed against the wrong graph.
    pub(crate) fn into_state(self) -> MessageState {
        MessageState {
            wires: self.wires,
            presence: self.presence,
            counts: self.counts,
            ev: self.ev,
            dist: self.dist,
            transcode: self.transcode,
        }
    }

    pub(crate) fn from_parts(
        graph: &'c ObfGraph,
        wires: HashMap<(ObfId, Scope), Value>,
        presence: HashMap<(NodeId, Scope), bool>,
        counts: HashMap<(NodeId, Scope), usize>,
    ) -> Self {
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

    /// The obfuscation graph this message is bound to.
    pub fn graph(&self) -> &'c ObfGraph {
        self.graph
    }

    /// Every populated wire value: `(slot, scope, bytes)` in slot order.
    /// Feeds the fuzzer's plan-slot coverage signatures ([`crate::fuzz`]).
    pub(crate) fn populated_wires(&self) -> impl Iterator<Item = (usize, &[u32], &[u8])> + '_ {
        self.wires.iter()
    }

    fn resolve(&self, path: &str) -> Result<(NodeId, Scope), BuildError> {
        let parsed: Path = path.parse().map_err(|_| BuildError::UnknownPath(path.to_string()))?;
        let resolved = path::resolve(self.graph.plain(), &parsed)?;
        let scope: Scope = resolved.scope.iter().map(|&i| i as u32).collect();
        Ok((resolved.node, scope))
    }

    /// Sets a field to a byte value, applying every aggregation
    /// transformation of the obfuscation plan on the fly.
    ///
    /// Setting a field inside an optional subtree marks it present; setting
    /// `items[i]...` extends the element count of `items` to at least
    /// `i + 1`.
    ///
    /// # Errors
    ///
    /// * [`BuildError::UnknownPath`] / [`BuildError::NotATerminal`] for bad
    ///   paths;
    /// * [`BuildError::AutoField`] when the field is auto-computed;
    /// * [`BuildError::BadValueLength`], [`BuildError::IntegerOverflow`],
    ///   [`BuildError::ValueContainsDelimiter`] for invalid values.
    pub fn set(&mut self, path: &str, value: impl Into<Value>) -> Result<(), BuildError> {
        let (x, scope) = self.resolve(path)?;
        self.set_at(x, &scope, value.into().as_bytes())
    }

    /// Sets an unsigned-integer field, encoding it with the field's
    /// declared width and byte order.
    ///
    /// # Errors
    ///
    /// [`BuildError::NotNumeric`] if the field is not an unsigned integer;
    /// [`BuildError::IntegerOverflow`] if the value does not fit.
    pub fn set_uint(&mut self, path: &str, v: u64) -> Result<(), BuildError> {
        let (x, scope) = self.resolve(path)?;
        let (width, endian) = self.numeric_kind(x, path)?;
        let value = Value::from_uint(v, width, endian).ok_or(BuildError::IntegerOverflow {
            path: path.to_string(),
            width,
            value: v,
        })?;
        self.set_at(x, &scope, value.as_bytes())
    }

    /// Sets a text field.
    pub fn set_str(&mut self, path: &str, v: &str) -> Result<(), BuildError> {
        let (x, scope) = self.resolve(path)?;
        self.set_at(x, &scope, v.as_bytes())
    }

    /// Sets the plain value of terminal `x` at `scope`: the one setter
    /// every path-based setter, the sampler and the tunnel run. Checks the
    /// plain constraints (terminal, not auto, implied width, delimiter),
    /// marks the enclosing optionals present and containers long enough,
    /// then runs the holder's compiled distribution program into the wire
    /// store. Errors name the plain field.
    pub(crate) fn set_at(
        &mut self,
        x: NodeId,
        scope: &[u32],
        bytes: &[u8],
    ) -> Result<(), BuildError> {
        let graph = self.graph;
        let node = graph.plain().node(x);
        let name = || node.name().to_string();
        let NodeType::Terminal(kind) = node.node_type() else {
            return Err(BuildError::NotATerminal(name()));
        };
        if node.auto().is_auto() {
            return Err(BuildError::AutoField(name()));
        }
        if let Some(w) = kind.implied_width() {
            if bytes.len() != w {
                return Err(BuildError::BadValueLength {
                    path: name(),
                    expected: w,
                    found: bytes.len(),
                });
            }
        }
        if let Boundary::Delimited(d) = node.boundary() {
            if runtime::contains(bytes, d) {
                return Err(BuildError::ValueContainsDelimiter { path: name() });
            }
        }
        let plan = graph.plan();
        let prog = plan
            .holder_slot(x)
            .and_then(|h| plan.dist[h as usize])
            .ok_or_else(|| BuildError::UnknownPath(name()))?;
        self.mark_ancestors(x, scope);
        self.dist.input().extend_from_slice(bytes);
        let wires = &mut self.wires;
        self.dist
            .eval(plan, prog, &mut self.rng, &mut |obf, b| wires.set(obf as usize, scope, b))
            .map_err(|e| e.into_build_error(graph))
    }

    /// Marks an optional subtree present without setting any of its fields
    /// (useful when the subtree only contains auto-computed fields).
    pub fn mark_present(&mut self, path: &str) -> Result<(), BuildError> {
        let (x, scope) = self.resolve(path)?;
        if !matches!(self.graph.plain().node(x).node_type(), NodeType::Optional(_)) {
            return Err(BuildError::UnknownPath(format!("{path} is not an optional node")));
        }
        self.mark_present_at(x, &scope);
        Ok(())
    }

    /// Marks optional `x` present at `scope` (and its ancestors).
    pub(crate) fn mark_present_at(&mut self, x: NodeId, scope: &[u32]) {
        self.mark_ancestors(x, scope);
        self.presence.set(x.index(), scope, true);
    }

    /// True if the optional subtree at `path` is present.
    pub fn is_present(&self, path: &str) -> bool {
        match self.resolve(path) {
            Ok((x, scope)) => self.presence.get(x.index(), &scope).unwrap_or(false),
            Err(_) => false,
        }
    }

    /// Number of elements of the repetition/tabular node at `path`.
    pub fn element_count(&self, path: &str) -> usize {
        match self.resolve(path) {
            Ok((x, scope)) => self.counts.get(x.index(), &scope).unwrap_or(0),
            Err(_) => 0,
        }
    }

    /// Recovers a field's plain value, inverting every aggregation
    /// transformation on the fly.
    ///
    /// # Errors
    ///
    /// [`BuildError::MissingField`] if the field was never set (or, after
    /// parsing, is inside an absent optional).
    pub fn get(&self, path: &str) -> Result<Value, BuildError> {
        let (x, scope) = self.resolve(path)?;
        if !self.graph.plain().node(x).is_terminal() {
            return Err(BuildError::NotATerminal(path.to_string()));
        }
        self.value_at(x, &scope).ok_or_else(|| BuildError::MissingField(path.to_string()))
    }

    /// Recovers an unsigned-integer field.
    ///
    /// # Errors
    ///
    /// As [`Message::get`], plus [`BuildError::NotNumeric`].
    pub fn get_uint(&self, path: &str) -> Result<u64, BuildError> {
        let (x, _) = self.resolve(path)?;
        let (_, endian) = self.numeric_kind(x, path)?;
        let v = self.get(path)?;
        v.to_uint(endian).ok_or_else(|| BuildError::NotNumeric(path.to_string()))
    }

    /// Recovers a text field (lossy UTF-8).
    ///
    /// # Errors
    ///
    /// As [`Message::get`].
    pub fn get_string(&self, path: &str) -> Result<String, BuildError> {
        Ok(String::from_utf8_lossy(self.get(path)?.as_bytes()).into_owned())
    }

    fn numeric_kind(&self, x: NodeId, path: &str) -> Result<(usize, Endian), BuildError> {
        match self.graph.plain().node(x).terminal_kind() {
            Some(TerminalKind::UInt { width, endian }) => Ok((*width, *endian)),
            _ => Err(BuildError::NotNumeric(path.to_string())),
        }
    }

    /// Copies every plain field value, presence flag and element count of
    /// `self` into `dst` (cleared first, capacity kept) — the transcoding
    /// primitive of the obfuscating gateway: a message parsed under one
    /// codec is re-expressed under another codec that shares the **same
    /// plain specification** but a different obfuscation plan (e.g. clear ↔
    /// obfuscated). Auto-computed fields are skipped; the destination codec
    /// rematerializes them at serialization time.
    ///
    /// The copy runs a compiled [`CopyProgram`] — a flat slot-to-slot
    /// mapping chaining the source plan's recovery programs into the
    /// destination plan's distribution programs — compiled (with the
    /// structural validation folded in) on the first use of a (source
    /// graph, destination message) pairing and cached in `dst`. Once
    /// warm, a reusable relay target transcodes with **zero heap
    /// allocation**, byte-identically to the reference graph walk
    /// ([`Message::transcode_into_walk`]).
    ///
    /// # Errors
    ///
    /// [`BuildError::GraphMismatch`] when the two messages' plain
    /// specifications are not structurally identical.
    pub fn transcode_into(&self, dst: &mut Message<'_>) -> Result<(), BuildError> {
        // Compilation (and the structural validation inside it) runs once
        // per pairing; a reusable relay target then fast-paths on the
        // source graph's uid — process-unique and refreshed on every
        // rewrite — so the steady-state per-message cost starts at one
        // integer compare, not a per-node revalidation.
        let src_uid = self.graph.uid();
        if dst.transcode.as_ref().is_none_or(|c| c.src_uid != src_uid) {
            let prog = CopyProgram::compile(self.graph, dst.graph)
                .ok_or_else(|| self.transcode_mismatch(dst))?;
            dst.arm_transcode(src_uid, Arc::new(prog));
        }
        dst.clear();
        // Run the armed program with the destination's own scratch.
        let Message { graph, wires, presence, counts, rng, ev, dist, transcode, .. } = dst;
        let graph: &ObfGraph = graph;
        let TranscodeCache { prog, cursors, marks, .. } = transcode.as_mut().expect("armed above");
        let sp = self.graph.plan();
        cursors.clear();
        cursors.resize(sp.slots(), 0);
        let mut run = CopyRun {
            src: self,
            sp,
            dp: graph.plan(),
            dst_graph: graph,
            wires,
            presence,
            counts,
            rng,
            ev,
            dist,
            cursors,
            marks,
            scope: [0; MAX_SCOPE],
        };
        run.exec(&prog.steps, 0)
    }

    /// **Reference implementation** of [`Message::transcode_into`]: the
    /// direct recursive walk over the shared plain specification, copying
    /// one field at a time through the allocating graph walks of
    /// [`crate::runtime`]. Kept as the
    /// executable specification the compiled copy-program path is
    /// differentially tested against (`tests/transcode_differential.rs`);
    /// production relays use `transcode_into`.
    ///
    /// # Errors
    ///
    /// See [`Message::transcode_into`].
    pub fn transcode_into_walk(&self, dst: &mut Message<'_>) -> Result<(), BuildError> {
        let a = self.graph.plain();
        if dst.validated_src != self.graph.uid() {
            if !runtime::plains_match(a, dst.graph.plain()) {
                return Err(self.transcode_mismatch(dst));
            }
            dst.validated_src = self.graph.uid();
        }
        dst.clear();
        let mut scope = Vec::new();
        self.copy_subtree(dst, a.root(), &mut scope)
    }

    fn transcode_mismatch(&self, dst: &Message<'_>) -> BuildError {
        let (a, b) = (self.graph.plain(), dst.graph.plain());
        BuildError::GraphMismatch {
            expected: format!("{} ({} nodes)", b.name(), b.len()),
            found: format!("{} ({} nodes)", a.name(), a.len()),
        }
    }

    /// Pre-arms this message as a transcode destination for sources bound
    /// to the graph with uid `src_uid`, sharing an already-compiled copy
    /// program (see [`crate::codec::Codec::copy_program_from`]). Existing
    /// warmed scratch is kept.
    pub(crate) fn arm_transcode(&mut self, src_uid: u64, prog: Arc<CopyProgram>) {
        match &mut self.transcode {
            Some(c) => {
                c.src_uid = src_uid;
                c.prog = prog;
            }
            None => {
                self.transcode =
                    Some(TranscodeCache { src_uid, prog, cursors: Vec::new(), marks: Vec::new() })
            }
        }
    }

    /// Convenience form of [`Message::transcode_into`] that allocates a
    /// fresh destination message for `graph`. Relays on a hot path should
    /// hold a reusable destination and call `transcode_into` instead.
    ///
    /// # Errors
    ///
    /// See [`Message::transcode_into`].
    pub fn transcode<'d>(&self, graph: &'d ObfGraph) -> Result<Message<'d>, BuildError> {
        let mut dst = Message::new(graph);
        self.transcode_into(&mut dst)?;
        Ok(dst)
    }

    fn copy_subtree(
        &self,
        dst: &mut Message<'_>,
        x: NodeId,
        scope: &mut Vec<u32>,
    ) -> Result<(), BuildError> {
        let plain = self.graph.plain();
        let node = plain.node(x);
        match node.node_type() {
            NodeType::Terminal(_) => {
                // Auto fields are derived from structure at serialization
                // time; copying them would only re-assert what the
                // destination recomputes anyway.
                if node.auto().is_auto() {
                    return Ok(());
                }
                let Some(v) = self.value_at_walk(x, scope) else {
                    return Ok(());
                };
                let holder = dst.graph.holder_of(x).ok_or_else(|| {
                    BuildError::UnknownPath(dst.graph.plain().node(x).name().to_string())
                })?;
                dst.mark_ancestors(x, scope);
                let wires = &mut dst.wires;
                runtime::distribute(dst.graph, holder, v, scope, &mut dst.rng, &mut |id, sc, v| {
                    wires.set(id.index(), sc, v.as_bytes());
                })
            }
            NodeType::Sequence => {
                for &c in node.children() {
                    self.copy_subtree(dst, c, scope)?;
                }
                Ok(())
            }
            NodeType::Optional(_) => {
                if self.presence.get(x.index(), scope).unwrap_or(false) {
                    dst.presence.set(x.index(), scope, true);
                    self.copy_subtree(dst, node.children()[0], scope)?;
                }
                Ok(())
            }
            NodeType::Repetition(_) | NodeType::Tabular => {
                let n = self.counts.get(x.index(), scope).unwrap_or(0);
                dst.counts.set(x.index(), scope, n);
                let child = node.children()[0];
                for i in 0..n {
                    scope.push(i as u32);
                    self.copy_subtree(dst, child, scope)?;
                    scope.pop();
                }
                Ok(())
            }
        }
    }

    /// Marks presence/counts for every optional / repetition / tabular
    /// ancestor of `x` under the given scope.
    fn mark_ancestors(&mut self, x: NodeId, scope: &[u32]) {
        let plain = self.graph.plain();
        let mut d = scope.len();
        let mut cur = plain.node(x).parent();
        while let Some(a) = cur {
            match plain.node(a).node_type() {
                NodeType::Repetition(_) | NodeType::Tabular => {
                    debug_assert!(d > 0, "scope shallower than container nesting");
                    let idx = scope[d - 1] as usize;
                    d -= 1;
                    self.counts.update(a.index(), &scope[..d], 0, |n| n.max(idx + 1));
                }
                NodeType::Optional(_) => {
                    self.presence.set(a.index(), &scope[..d], true);
                }
                _ => {}
            }
            cur = plain.node(a).parent();
        }
    }

    /// Plain value of terminal `x` at `scope`: recovered from stored wires
    /// by the compiled recovery program, or computed for auto fields that
    /// were never materialized.
    pub(crate) fn value_at(&self, x: NodeId, scope: &[u32]) -> Option<Value> {
        let plan = self.graph.plan();
        plan.holder_slot(x)?;
        let mut ev = RecEval::default();
        match recover(plan, &self.wires, &mut ev, x, scope) {
            Some((s, l)) => Some(Value::from_bytes(ev.buf[s..s + l].to_vec())),
            None => self.auto_value(x, scope),
        }
    }

    /// Stored plain value of terminal `x` at `scope`, recovered into the
    /// message's own scratch (no allocation once warm). Unlike
    /// [`Message::value_at`] there is no auto-value fallback: `None` means
    /// no value was set.
    pub(crate) fn stored_at(&mut self, x: NodeId, scope: &[u32]) -> Option<&[u8]> {
        let (s, l) = recover(self.graph.plan(), &self.wires, &mut self.ev, x, scope)?;
        Some(&self.ev.buf[s..s + l])
    }

    /// **Reference** form of [`Message::value_at`] through the graph-walk
    /// runtime ([`runtime::recover`]); only the reference interpreters
    /// (the walk serializer and [`Message::transcode_into_walk`]) read
    /// through it.
    pub(crate) fn value_at_walk(&self, x: NodeId, scope: &[u32]) -> Option<Value> {
        let holder = self.graph.holder_of(x)?;
        let recovered = runtime::recover(self.graph, holder, scope, &|id, sc| {
            self.wires.get(id.index(), sc).map(|b| Value::from_bytes(b.to_vec()))
        });
        if recovered.is_some() {
            return recovered;
        }
        // Auto fields can be computed from structure before serialization.
        self.auto_value(x, scope)
    }

    fn auto_value(&self, x: NodeId, scope: &[u32]) -> Option<Value> {
        let plain = self.graph.plain();
        let node = plain.node(x);
        let (width, endian) = match node.terminal_kind() {
            Some(TerminalKind::UInt { width, endian }) => (*width, *endian),
            _ => return None,
        };
        let quantity = match node.auto() {
            AutoValue::None => return None,
            AutoValue::Literal(v) => return Some(v.clone()),
            AutoValue::LengthOf(t) => {
                let tscope = runtime::scoped(plain, *t, scope);
                self.plain_len(*t, &tscope)?
            }
            AutoValue::CounterOf(t) => {
                let tscope = runtime::scoped(plain, *t, scope);
                self.counts.get(t.index(), &tscope).unwrap_or(0)
            }
        };
        Value::from_uint(quantity as u64, width, endian)
    }

    /// Length in bytes of the **plain** serialization of the plain subtree
    /// `p` at `scope` (delimiters and terminators included). This is the
    /// quantity auto length fields carry, exactly as in the non-obfuscated
    /// protocol.
    pub(crate) fn plain_len(&self, p: NodeId, scope: &[u32]) -> Option<usize> {
        let plain = self.graph.plain();
        let node = plain.node(p);
        match node.node_type() {
            NodeType::Terminal(kind) => {
                let body = match node.boundary() {
                    Boundary::Fixed(k) => *k,
                    _ => match kind.implied_width() {
                        Some(w) => w,
                        None => self.value_len_at(p, scope)?,
                    },
                };
                let delim = match node.boundary() {
                    Boundary::Delimited(d) => d.len(),
                    _ => 0,
                };
                Some(body + delim)
            }
            NodeType::Sequence => {
                let mut total = 0;
                for &c in node.children() {
                    total += self.plain_len(c, scope)?;
                }
                Some(total)
            }
            NodeType::Optional(_) => {
                if self.presence.get(p.index(), scope).unwrap_or(false) {
                    self.plain_len(node.children()[0], scope)
                } else {
                    Some(0)
                }
            }
            NodeType::Repetition(stop) => {
                let mut total = self.elements_len(p, scope)?;
                if let StopRule::Terminator(t) = stop {
                    total += t.len();
                }
                Some(total)
            }
            NodeType::Tabular => self.elements_len(p, scope),
        }
    }

    /// Byte length of terminal `x`'s plain value, computed structurally
    /// from stored wire lengths without materializing the value: the
    /// aggregation transformations are length-transparent (constant ops
    /// byte-wise, concat splits additive, op splits length-preserving), so
    /// the recovered length follows from the holder subtree's shape. Falls
    /// back to full recovery for values only an auto rule can supply.
    pub(crate) fn value_len_at(&self, x: NodeId, scope: &[u32]) -> Option<usize> {
        if let Some(holder) = self.graph.holder_of(x) {
            if let Some(len) = self.holder_len(holder, scope) {
                return Some(len);
            }
        }
        self.value_at(x, scope).map(|v| v.len())
    }

    fn holder_len(&self, id: ObfId, scope: &[u32]) -> Option<usize> {
        use crate::obf::{ObfKind, Recombine};
        let node = self.graph.node(id);
        match node.kind() {
            ObfKind::Terminal { .. } => self.wires.get(id.index(), scope).map(<[u8]>::len),
            ObfKind::SplitSeq { recombine, .. } => {
                let (c0, c1) = (node.children()[0], node.children()[1]);
                match recombine {
                    Recombine::Concat(_) => {
                        Some(self.holder_len(c0, scope)? + self.holder_len(c1, scope)?)
                    }
                    // The combined half has the original value's length.
                    Recombine::Op(_) => self.holder_len(c1, scope),
                }
            }
            ObfKind::Mirror | ObfKind::Prefixed { .. } => {
                self.holder_len(node.children()[0], scope)
            }
            _ => None,
        }
    }

    /// Summed plain length of a container's elements, with the element
    /// index appended to an inline scope buffer (no per-call allocation —
    /// [`Message::plain_len`] runs on the serializer's steady-state path).
    fn elements_len(&self, p: NodeId, scope: &[u32]) -> Option<usize> {
        if scope.len() >= MAX_SCOPE {
            return None; // deeper nesting is rejected at validation
        }
        let child = self.graph.plain().node(p).children()[0];
        let m = self.counts.get(p.index(), scope).unwrap_or(0);
        let mut sc = [0u32; MAX_SCOPE];
        sc[..scope.len()].copy_from_slice(scope);
        let mut total = 0;
        for i in 0..m {
            sc[scope.len()] = i as u32;
            total += self.plain_len(child, &sc[..scope.len() + 1])?;
        }
        Some(total)
    }

    pub(crate) fn wire(&self, id: ObfId, scope: &[u32]) -> Option<&[u8]> {
        self.wires.get(id.index(), scope)
    }

    pub(crate) fn presence_of(&self, x: NodeId, scope: &[u32]) -> bool {
        self.presence.get(x.index(), scope).unwrap_or(false)
    }

    pub(crate) fn count_of(&self, x: NodeId, scope: &[u32]) -> usize {
        self.counts.get(x.index(), scope).unwrap_or(0)
    }
}

/// Runs the compiled recovery program of plain terminal `x` at `scope`
/// over `wires`, returning the value's range in `ev.buf` (`None` when `x`
/// has no program or a wire is missing).
fn recover(
    plan: &CodecPlan,
    wires: &WireStore,
    ev: &mut RecEval,
    x: NodeId,
    scope: &[u32],
) -> Option<(usize, usize)> {
    let prog = (*plan.rec.get(x.index())?)?;
    ev.eval(plan, prog, scope, &mut |obf, sc, buf| match wires.get(obf as usize, sc) {
        Some(b) => {
            buf.extend_from_slice(b);
            true
        }
        None => false,
    })
}

/// The fused copy's rewrite of one value already appended to the
/// destination arena: the source ops undone, the destination store's
/// check run on the plain value, the destination ops applied.
#[inline]
fn rewrite(
    sp: &CodecPlan,
    src_ops: PoolRange,
    dp: &CodecPlan,
    dst_obf: u32,
    dst_ops: PoolRange,
    check: DistCheck,
    v: &mut [u8],
) -> Result<(), DistErr> {
    undo_ops_in_place(sp.ops(src_ops), v);
    check.validate(dp, dst_obf, v)?;
    apply_ops_in_place(dp.ops(dst_ops), v);
    Ok(())
}

/// One execution of a compiled [`CopyProgram`]: the source message plus
/// disjoint mutable borrows of the destination's stores, RNG and the
/// cached evaluation scratch. The element scope lives in an inline array
/// (containers deeper than [`MAX_SCOPE`] are rejected at validation), so
/// steady-state execution performs no heap allocation at all.
struct CopyRun<'a, 'c> {
    src: &'a Message<'c>,
    /// Source plan (recovery programs).
    sp: &'a CodecPlan,
    /// Destination plan (distribution programs).
    dp: &'a CodecPlan,
    /// Destination graph, for error naming only.
    dst_graph: &'a ObfGraph,
    wires: &'a mut WireStore,
    presence: &'a mut MetaStore<bool>,
    counts: &'a mut MetaStore<usize>,
    rng: &'a mut StdRng,
    ev: &'a mut RecEval,
    dist: &'a mut DistEval,
    /// Sequential read cursors, one per source slot.
    cursors: &'a mut [u32],
    /// Rollback scratch of [`CopyRun::column`].
    marks: &'a mut Vec<usize>,
    scope: [u32; MAX_SCOPE],
}

impl CopyRun<'_, '_> {
    /// Runs a step range at the given container depth. Loops recurse with
    /// their body sub-slice; recursion depth is bounded by the validated
    /// [`MAX_SCOPE`] nesting.
    fn exec(&mut self, steps: &[CopyStep], depth: usize) -> Result<(), BuildError> {
        let mut i = 0;
        while i < steps.len() {
            match steps[i] {
                CopyStep::Value { rec, dist, .. } => {
                    self.value(rec, dist, depth)?;
                    i += 1;
                }
                CopyStep::ValueDirect { src_obf, src_ops, dist } => {
                    self.value_direct(src_obf, src_ops, dist, depth)?;
                    i += 1;
                }
                CopyStep::Direct { src_obf, src_ops, dst_obf, dst_ops, check } => {
                    self.direct(src_obf, src_ops, dst_obf, dst_ops, check, depth)?;
                    i += 1;
                }
                CopyStep::Optional { plain, skip } => {
                    let sc = &self.scope[..depth];
                    if self.src.presence.get(plain as usize, sc).unwrap_or(false) {
                        self.presence.set(plain as usize, sc, true);
                        i += 1;
                    } else {
                        i += 1 + skip as usize;
                    }
                }
                CopyStep::Loop { plain, body } => {
                    let n = self.count(plain, depth);
                    self.per_element(&steps[i + 1..i + 1 + body as usize], n, depth)?;
                    i += 1 + body as usize;
                }
                CopyStep::Column { plain, body } => {
                    let n = self.count(plain, depth);
                    self.column(&steps[i + 1..i + 1 + body as usize], n, depth)?;
                    i += 1 + body as usize;
                }
            }
        }
        Ok(())
    }

    /// Copies the element count of container `plain` at the current
    /// scope and returns it.
    fn count(&mut self, plain: u32, depth: usize) -> usize {
        debug_assert!(depth < MAX_SCOPE, "validated nesting exceeded");
        let sc = &self.scope[..depth];
        let n = self.src.counts.get(plain as usize, sc).unwrap_or(0);
        self.counts.set(plain as usize, sc, n);
        n
    }

    /// Runs a loop body once per element, the element index appended to
    /// the scope.
    fn per_element(&mut self, body: &[CopyStep], n: usize, depth: usize) -> Result<(), BuildError> {
        for e in 0..n {
            self.scope[depth] = e as u32;
            self.exec(body, depth + 1)?;
        }
        Ok(())
    }

    /// Runs a [`CopyStep::Column`] body: each `Direct` step copies its
    /// whole column ([`WireStore::copy_column`]) with the fused copy's
    /// in-place rewrite. A fixed-width column's values land end to end,
    /// so after their lengths are checked one by one its op stacks run
    /// once over the whole column ([`undo_ops_column`],
    /// [`apply_ops_column`]); ops preserve length, so that is the
    /// per-value rewrite's check. When a column fails, every column of
    /// the body is truncated back to its pre-loop length and the body
    /// reruns per element, which stops at the failing element and step
    /// exactly like the loop it replaces.
    fn column(&mut self, body: &[CopyStep], n: usize, depth: usize) -> Result<(), BuildError> {
        let dst_slot = |step: &CopyStep| match *step {
            CopyStep::Direct { dst_obf, .. } => dst_obf as usize,
            _ => unreachable!("column bodies are only direct copies"),
        };
        let arena = self.wires.arena_len();
        self.marks.clear();
        self.marks.extend(body.iter().map(|s| self.wires.entries_len(dst_slot(s))));
        let (sp, dp) = (self.sp, self.dp);
        let sc = &self.scope[..depth];
        let copied = body.iter().all(|step| {
            let CopyStep::Direct { src_obf, src_ops, dst_obf, dst_ops, check } = *step else {
                unreachable!("column bodies are only direct copies")
            };
            let (src, dst, from) = (&self.src.wires, dst_obf as usize, src_obf as usize);
            let DistCheck::Fixed(w) = check else {
                return self.wires.copy_column(dst, src, from, sc, n, |v| {
                    rewrite(sp, src_ops, dp, dst_obf, dst_ops, check, v).is_ok()
                });
            };
            let (w, start) = (w as usize, self.wires.arena_len());
            let copied = self.wires.copy_column(dst, src, from, sc, n, |v| v.len() == w);
            if copied {
                let column = self.wires.arena_from(start);
                undo_ops_column(sp.ops(src_ops), column, w);
                apply_ops_column(dp.ops(dst_ops), column, w);
            }
            copied
        });
        if copied {
            return Ok(());
        }
        for (step, &len) in body.iter().zip(self.marks.iter()) {
            self.wires.truncate(dst_slot(step), len, arena);
        }
        self.per_element(body, n, depth)
    }

    /// Copies one terminal instance: recover through the source plan's
    /// program, distribute through the destination plan's program. A
    /// value missing from the source (unset field) is skipped, exactly
    /// like the reference walk.
    fn value(&mut self, rec: RecProg, dprog: DistProg, depth: usize) -> Result<(), BuildError> {
        let sc = &self.scope[..depth];
        let src_wires = &self.src.wires;
        let cursors = &mut *self.cursors;
        let Some((s, l)) = self.ev.eval(self.sp, rec, sc, &mut |obf, scope, buf| match src_wires
            .get_seq(obf as usize, scope, &mut cursors[obf as usize])
        {
            Some(b) => {
                buf.extend_from_slice(b);
                true
            }
            None => false,
        }) else {
            return Ok(());
        };
        let input = self.dist.input();
        input.extend_from_slice(&self.ev.buf[s..s + l]);
        self.distribute(dprog, depth)
    }

    /// The single-`Load` fast path: the source wire goes straight into
    /// the distribution scratch (constant ops undone in place), skipping
    /// the recovery stack machine and one byte copy.
    fn value_direct(
        &mut self,
        src_obf: u32,
        src_ops: PoolRange,
        dprog: DistProg,
        depth: usize,
    ) -> Result<(), BuildError> {
        let sc = &self.scope[..depth];
        let cursor = &mut self.cursors[src_obf as usize];
        let Some(bytes) = self.src.wires.get_seq(src_obf as usize, sc, cursor) else {
            return Ok(());
        };
        let input = self.dist.input();
        input.extend_from_slice(bytes);
        undo_ops_in_place(self.sp.ops(src_ops), input);
        self.distribute(dprog, depth)
    }

    /// The fused wire-to-wire copy: the source wire is appended straight
    /// into the destination store and rewritten there — source ops undone,
    /// the destination store's check run on the plain value, destination
    /// ops applied. A failed check leaves the destination store as it was.
    fn direct(
        &mut self,
        src_obf: u32,
        src_ops: PoolRange,
        dst_obf: u32,
        dst_ops: PoolRange,
        check: DistCheck,
        depth: usize,
    ) -> Result<(), BuildError> {
        let sc = &self.scope[..depth];
        let cursor = &mut self.cursors[src_obf as usize];
        let Some(bytes) = self.src.wires.get_seq(src_obf as usize, sc, cursor) else {
            return Ok(());
        };
        let (sp, dp) = (self.sp, self.dp);
        self.wires
            .set_with(dst_obf as usize, sc, bytes, |v| {
                rewrite(sp, src_ops, dp, dst_obf, dst_ops, check, v)
            })
            .map_err(|e: DistErr| e.into_build_error(self.dst_graph))
    }

    /// Runs the destination distribution program over the value already
    /// written into the distribution scratch.
    fn distribute(&mut self, dprog: DistProg, depth: usize) -> Result<(), BuildError> {
        let sc = &self.scope[..depth];
        let wires = &mut *self.wires;
        self.dist
            .eval(self.dp, dprog, &mut *self.rng, &mut |obf, bytes| {
                wires.set(obf as usize, sc, bytes);
            })
            .map_err(|e| e.into_build_error(self.dst_graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Condition, FormatGraph, GraphBuilder, Predicate};
    use crate::obf::ObfKind;
    use crate::transform::{apply, TransformKind};

    fn sample_graph() -> crate::graph::FormatGraph {
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
        b.uint_be(opt, "extra_val", 2);
        let count = b.uint_be(root, "count", 1);
        let tab = b.tabular(root, "items", count);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let item = b.sequence(tab, "item", Boundary::Delegated);
        b.uint_be(item, "v", 2);
        b.build().unwrap()
    }

    #[test]
    fn set_get_roundtrip_plain() {
        let g = ObfGraph::from_plain(&sample_graph());
        let mut m = Message::with_seed(&g, 1);
        m.set("data", b"abc".as_slice()).unwrap();
        m.set_uint("flag", 0).unwrap();
        assert_eq!(m.get("data").unwrap().as_bytes(), b"abc");
        assert_eq!(m.get_uint("flag").unwrap(), 0);
    }

    #[test]
    fn set_get_roundtrip_under_transforms() {
        let mut g = ObfGraph::from_plain(&sample_graph());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data_plain = g.plain().resolve_names(&["data"]).unwrap();
        let holder = g.holder_of(data_plain).unwrap();
        apply(&mut g, holder, TransformKind::SplitAdd, &mut rng).unwrap();
        let holder2 = g.holder_of(data_plain).unwrap();
        apply(&mut g, holder2, TransformKind::ReadFromEnd, &mut rng).unwrap();

        let mut m = Message::with_seed(&g, 2);
        m.set("data", b"obfuscate me".as_slice()).unwrap();
        assert_eq!(m.get("data").unwrap().as_bytes(), b"obfuscate me");
        // The stored wires are NOT the plain value (aggregation applied).
        let stored: Vec<&[u8]> = m.wires.iter().map(|(_, _, b)| b).collect();
        assert_eq!(stored.len(), 2, "split produced two shares");
        assert!(stored.iter().all(|v| *v != b"obfuscate me"));
    }

    #[test]
    fn auto_fields_cannot_be_set_but_can_be_read() {
        let g = ObfGraph::from_plain(&sample_graph());
        let mut m = Message::with_seed(&g, 1);
        assert!(matches!(m.set_uint("len", 5), Err(BuildError::AutoField(_))));
        m.set("data", b"12345".as_slice()).unwrap();
        assert_eq!(m.get_uint("len").unwrap(), 5);
    }

    #[test]
    fn counter_auto_field_tracks_elements() {
        let g = ObfGraph::from_plain(&sample_graph());
        let mut m = Message::with_seed(&g, 1);
        m.set_uint("items[0].v", 10).unwrap();
        m.set_uint("items[2].v", 30).unwrap();
        assert_eq!(m.element_count("items"), 3);
        assert_eq!(m.get_uint("count").unwrap(), 3);
        assert_eq!(m.get_uint("items[2].v").unwrap(), 30);
    }

    #[test]
    fn presence_marked_by_setting_inside_optional() {
        let g = ObfGraph::from_plain(&sample_graph());
        let mut m = Message::with_seed(&g, 1);
        assert!(!m.is_present("extra"));
        m.set_uint("extra.extra_val", 7).unwrap();
        assert!(m.is_present("extra"));
    }

    #[test]
    fn mark_present_requires_optional() {
        let g = ObfGraph::from_plain(&sample_graph());
        let mut m = Message::with_seed(&g, 1);
        assert!(m.mark_present("extra").is_ok());
        assert!(m.mark_present("flag").is_err());
    }

    #[test]
    fn value_validation() {
        let g = ObfGraph::from_plain(&sample_graph());
        let mut m = Message::with_seed(&g, 1);
        assert!(matches!(
            m.set("flag", b"toolong".as_slice()),
            Err(BuildError::BadValueLength { .. })
        ));
        assert!(matches!(m.set_uint("flag", 300), Err(BuildError::IntegerOverflow { .. })));
        assert!(matches!(m.set_uint("data", 1), Err(BuildError::NotNumeric(_))));
        assert!(matches!(m.get("nope"), Err(BuildError::UnknownPath(_))));
        assert!(matches!(m.get("data"), Err(BuildError::MissingField(_))));
    }

    #[test]
    fn plain_len_counts_delimiters_and_elements() {
        let mut b = GraphBuilder::new("d");
        let root = b.root_sequence("m", Boundary::End);
        b.terminal(root, "word", TerminalKind::Ascii, Boundary::Delimited(b" ".to_vec()));
        b.uint_be(root, "n", 2);
        let plain = b.build().unwrap();
        let g = ObfGraph::from_plain(&plain);
        let mut m = Message::with_seed(&g, 1);
        m.set_str("word", "GET").unwrap();
        m.set_uint("n", 9).unwrap();
        let root_id = plain.root();
        assert_eq!(m.plain_len(root_id, &[]), Some(3 + 1 + 2));
    }

    #[test]
    fn delimiter_containment_rejected() {
        let mut b = GraphBuilder::new("d");
        let root = b.root_sequence("m", Boundary::End);
        b.terminal(root, "word", TerminalKind::Ascii, Boundary::Delimited(b" ".to_vec()));
        b.uint_be(root, "n", 2);
        let g = ObfGraph::from_plain(&b.build().unwrap());
        let mut m = Message::with_seed(&g, 1);
        assert!(matches!(
            m.set_str("word", "two words"),
            Err(BuildError::ValueContainsDelimiter { .. })
        ));
    }

    #[test]
    fn transcode_between_plans_preserves_every_field() {
        let plain = sample_graph();
        let clear = ObfGraph::from_plain(&plain);
        let obf =
            crate::engine::Obfuscator::new(&plain).seed(11).max_per_node(2).obfuscate().unwrap();

        let mut m = Message::with_seed(&clear, 1);
        m.set("data", b"payload".as_slice()).unwrap();
        m.set_uint("flag", 1).unwrap();
        m.set_uint("extra.extra_val", 0xBEEF).unwrap();
        m.set_uint("items[0].v", 10).unwrap();
        m.set_uint("items[1].v", 20).unwrap();

        // clear → obfuscated → clear: every plain field survives.
        let obfuscated = m.transcode(obf.obf_graph()).unwrap();
        assert_eq!(obfuscated.get("data").unwrap().as_bytes(), b"payload");
        assert_eq!(obfuscated.get_uint("extra.extra_val").unwrap(), 0xBEEF);
        let back = obfuscated.transcode(&clear).unwrap();
        assert_eq!(back.get("data").unwrap().as_bytes(), b"payload");
        assert_eq!(back.get_uint("flag").unwrap(), 1);
        assert!(back.is_present("extra"));
        assert_eq!(back.element_count("items"), 2);
        assert_eq!(back.get_uint("items[1].v").unwrap(), 20);
        // Auto fields are recomputed, not copied.
        assert_eq!(back.get_uint("len").unwrap(), 7);
        assert_eq!(back.get_uint("count").unwrap(), 2);
    }

    #[test]
    fn transcode_into_reuses_target_and_clears_stale_state() {
        let plain = sample_graph();
        let clear = ObfGraph::from_plain(&plain);
        let obf =
            crate::engine::Obfuscator::new(&plain).seed(3).max_per_node(1).obfuscate().unwrap();
        let mut dst = Message::with_seed(obf.obf_graph(), 9);

        let mut a = Message::with_seed(&clear, 1);
        a.set("data", b"first".as_slice()).unwrap();
        a.set_uint("flag", 1).unwrap();
        a.set_uint("extra.extra_val", 1).unwrap();
        a.transcode_into(&mut dst).unwrap();
        assert!(dst.is_present("extra"));

        // Second use of the same target: the absent optional of `b` must
        // not inherit `a`'s presence.
        let mut b = Message::with_seed(&clear, 2);
        b.set("data", b"second".as_slice()).unwrap();
        b.set_uint("flag", 0).unwrap();
        b.transcode_into(&mut dst).unwrap();
        assert_eq!(dst.get("data").unwrap().as_bytes(), b"second");
        assert!(!dst.is_present("extra"));
    }

    #[test]
    fn transcode_cache_rearms_when_the_source_graph_changes() {
        let plain = sample_graph();
        let clear = ObfGraph::from_plain(&plain);
        let obf1 =
            crate::engine::Obfuscator::new(&plain).seed(1).max_per_node(1).obfuscate().unwrap();
        let mut dst = Message::with_seed(&clear, 9);

        // Alternate two structurally identical but distinct source
        // graphs into one reusable target: the per-message uid check
        // must recompile (never replay the other pairing's program).
        for round in 0..3u64 {
            let mut a = Message::with_seed(&clear, round);
            a.set("data", b"from clear".as_slice()).unwrap();
            a.set_uint("flag", 0).unwrap();
            a.transcode_into(&mut dst).unwrap();
            assert_eq!(dst.get("data").unwrap().as_bytes(), b"from clear");

            let mut b = Message::with_seed(obf1.obf_graph(), round);
            b.set("data", b"from obf".as_slice()).unwrap();
            b.set_uint("flag", 0).unwrap();
            b.transcode_into(&mut dst).unwrap();
            assert_eq!(dst.get("data").unwrap().as_bytes(), b"from obf");
        }
    }

    #[test]
    fn fused_copy_checks_fail_like_the_walk() {
        let mut b = GraphBuilder::new("d");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "tag", 1);
        b.terminal(root, "word", TerminalKind::Ascii, Boundary::Delimited(b" ".to_vec()));
        b.uint_be(root, "n", 2);
        let plain = b.build().unwrap();
        let clear = ObfGraph::from_plain(&plain);
        // Constant ops only: no value channel splits, so every value step
        // is a fused copy that applies ops on the destination end.
        let codec = crate::engine::Obfuscator::new(&plain)
            .seed(5)
            .max_per_node(2)
            .allowed([TransformKind::ConstAdd, TransformKind::ConstSub, TransformKind::ConstXor])
            .obfuscate()
            .unwrap();
        let obf = codec.obf_graph();
        let prog = CopyProgram::compile(&clear, obf).unwrap();
        assert_eq!(prog.steps.len(), 3);
        assert!(prog.steps.iter().all(|s| matches!(s, CopyStep::Direct { .. })));
        assert!(prog
            .steps
            .iter()
            .any(|s| matches!(s, CopyStep::Direct { dst_ops, .. } if dst_ops.1 > 0)));

        let slot = |name: &str| clear.plan().holder_slot(plain.resolve_names(&[name]).unwrap());
        type Expect = fn(&BuildError) -> bool;
        let planted: [(&str, &[u8], Expect); 2] = [
            // Wrong length for a u16.
            ("n", b"\x01\x02\x03", |e| matches!(e, BuildError::BadValueLength { .. })),
            // Contains its delimiter.
            ("word", b"two words", |e| matches!(e, BuildError::ValueContainsDelimiter { .. })),
        ];
        for (field, wire, expect) in planted {
            let mut src = Message::with_seed(&clear, 1);
            src.set_uint("tag", 7).unwrap();
            src.set_str("word", "GET").unwrap();
            src.set_uint("n", 9).unwrap();
            src.wires.set(slot(field).unwrap() as usize, &[], wire);
            let (mut compiled, mut walked) =
                (Message::with_seed(obf, 2), Message::with_seed(obf, 2));
            let got = src.transcode_into(&mut compiled).unwrap_err();
            let want = src.transcode_into_walk(&mut walked).unwrap_err();
            assert!(expect(&got), "{field}: {got:?}");
            assert_eq!(got, want, "{field}");
            // The failed store leaves the destination as the walk does.
            assert!(compiled.wires.iter().eq(walked.wires.iter()), "{field}");
        }
    }

    #[test]
    fn column_copy_failures_roll_back_to_the_walks_state() {
        let mut b = GraphBuilder::new("t");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 2);
        let tab = b.tabular(root, "records", count);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let item = b.sequence(tab, "item", Boundary::Delegated);
        b.uint_be(item, "key", 4);
        b.uint_be(item, "flags", 2);
        b.terminal(item, "payload", TerminalKind::Bytes, Boundary::Fixed(5));
        let plain = b.build().unwrap();
        let clear = ObfGraph::from_plain(&plain);
        let codec = crate::engine::Obfuscator::new(&plain)
            .seed(8)
            .max_per_node(2)
            .allowed([TransformKind::ConstAdd, TransformKind::ConstSub, TransformKind::ConstXor])
            .obfuscate()
            .unwrap();
        // Constant ops on every column (two on `key`), so both the source
        // and the destination end of a column copy run op stacks
        // column-wide.
        let mut all_ops = ObfGraph::from_plain(&plain);
        let mut rng = StdRng::seed_from_u64(4);
        for (field, kind) in [
            ("key", TransformKind::ConstAdd),
            ("key", TransformKind::ConstXor),
            ("flags", TransformKind::ConstSub),
            ("payload", TransformKind::ConstXor),
        ] {
            let id = all_ops.preorder().into_iter().find(|&i| all_ops.node(i).name() == field);
            apply(&mut all_ops, id.unwrap(), kind, &mut rng).unwrap();
        }
        for field in ["key", "flags", "payload"] {
            let holder = all_ops.holder_of(plain.resolve_names(&["records", field]).unwrap());
            let ObfKind::Terminal { ops, .. } = all_ops.node(holder.unwrap()).kind() else {
                panic!("{field} is held by a terminal")
            };
            assert!(!ops.is_empty(), "{field} has no constant op");
        }
        let obf = codec.obf_graph();
        for (src_graph, dst_graph) in [(&clear, obf), (&clear, &all_ops), (&all_ops, &clear)] {
            column_copy_rolls_back(&plain, src_graph, dst_graph);
        }
    }

    /// One direction of [`column_copy_failures_roll_back_to_the_walks_state`].
    fn column_copy_rolls_back(plain: &FormatGraph, src_graph: &ObfGraph, dst_graph: &ObfGraph) {
        let prog = CopyProgram::compile(src_graph, dst_graph).unwrap();
        assert!(matches!(prog.steps[0], CopyStep::Column { body: 3, .. }), "{:?}", prog.steps);

        let slot = |name: &str| {
            let x = plain.resolve_names(&["records", name]).unwrap();
            src_graph.plan().holder_slot(x).unwrap()
        };
        let source = |planted: &[(&str, u32, &[u8])]| {
            let mut src = Message::with_seed(src_graph, 1);
            for i in 0..10u64 {
                src.set_uint(&format!("records[{i}].key"), i).unwrap();
                src.set_uint(&format!("records[{i}].flags"), i).unwrap();
                src.set(&format!("records[{i}].payload"), vec![i as u8; 5]).unwrap();
            }
            for &(field, i, wire) in planted {
                src.wires.set(slot(field) as usize, &[i], wire);
            }
            src
        };
        let fresh = || (Message::with_seed(dst_graph, 2), Message::with_seed(dst_graph, 2));
        // Clean: the columns land exactly where the walk puts them, and
        // an entry past the element count is skipped like the walk skips
        // it.
        let src = source(&[("key", 12, b"\x00\x00\x00\x0c")]);
        let (mut compiled, mut walked) = fresh();
        src.transcode_into(&mut compiled).unwrap();
        src.transcode_into_walk(&mut walked).unwrap();
        assert!(compiled.wires.iter().eq(walked.wires.iter()));
        // A bad `flags` at element 5 and a bad `key` at element 7: the key
        // column fails first, but the loop stops at element 5's flags.
        let src = source(&[("flags", 5, b"\x01\x02\x03"), ("key", 7, b"\x01")]);
        let got = src.transcode_into(&mut compiled).unwrap_err();
        let want = src.transcode_into_walk(&mut walked).unwrap_err();
        assert_eq!(got, want);
        assert!(
            matches!(&got, BuildError::BadValueLength { expected: 2, found: 3, .. }),
            "{got:?}"
        );
        assert!(compiled.wires.iter().eq(walked.wires.iter()), "rolled back to the walk's state");
        assert_eq!(compiled.wires.iter().count(), 5 * 3 + 1, "elements 0-4 and element 5's key");
    }

    #[test]
    fn transcode_rejects_foreign_graphs() {
        let g1 = ObfGraph::from_plain(&sample_graph());
        let mut other = GraphBuilder::new("other");
        let root = other.root_sequence("m", Boundary::End);
        other.uint_be(root, "x", 2);
        let g2 = ObfGraph::from_plain(&other.build().unwrap());
        let mut m = Message::with_seed(&g1, 1);
        m.set("data", b"x".as_slice()).unwrap();
        assert!(matches!(m.transcode(&g2), Err(BuildError::GraphMismatch { .. })));
    }

    #[test]
    fn clear_keeps_message_reusable() {
        let g = ObfGraph::from_plain(&sample_graph());
        let mut m = Message::with_seed(&g, 1);
        m.set("data", b"abc".as_slice()).unwrap();
        m.set_uint("items[0].v", 5).unwrap();
        m.clear();
        assert!(matches!(m.get("data"), Err(BuildError::MissingField(_))));
        assert_eq!(m.element_count("items"), 0);
        m.set("data", b"again".as_slice()).unwrap();
        assert_eq!(m.get("data").unwrap().as_bytes(), b"again");
    }

    #[test]
    fn wire_store_replaces_and_reuses() {
        let mut s = WireStore::with_slots(2);
        s.set(0, &[], b"aa");
        s.set(1, &[3], b"bb");
        s.set(0, &[], b"cc");
        assert_eq!(s.get(0, &[]), Some(b"cc".as_slice()));
        assert_eq!(s.get(1, &[3]), Some(b"bb".as_slice()));
        assert_eq!(s.get(1, &[4]), None);
        assert_eq!(s.iter().count(), 2);
        s.clear();
        assert_eq!(s.get(0, &[]), None);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn cursor_reads_fall_back_to_the_search_out_of_order() {
        let mut s = WireStore::with_slots(1);
        for i in [4u32, 0, 2, 1] {
            s.set(0, &[i], &[i as u8]);
        }
        let mut cursor = 0;
        // In order: each read hits under the cursor and advances it.
        for i in [0u32, 1, 2] {
            assert_eq!(s.get_seq(0, &[i], &mut cursor), Some([i as u8].as_slice()));
            assert_eq!(cursor, i + 1);
        }
        // Absent keys, before and past the last entry, leave it alone.
        assert_eq!(s.get_seq(0, &[3], &mut cursor), None);
        assert_eq!(s.get_seq(0, &[9], &mut cursor), None);
        assert_eq!(cursor, 3);
        // Backwards and repeated reads search and re-synchronize.
        assert_eq!(s.get_seq(0, &[0], &mut cursor), Some([0].as_slice()));
        assert_eq!(cursor, 1);
        assert_eq!(s.get_seq(0, &[4], &mut cursor), Some([4].as_slice()));
        assert_eq!(s.get_seq(0, &[4], &mut cursor), Some([4].as_slice()));
        // A containment check keeps the cursor on its hit.
        assert!(s.contains_seq(0, &[2], &mut cursor));
        assert_eq!(s.get_seq(0, &[2], &mut cursor), Some([2].as_slice()));
        assert_eq!(cursor, 3);
        assert!(!s.contains_seq(0, &[3], &mut cursor));

        let mut m: MetaStore<bool> = MetaStore::with_slots(1);
        m.set(0, &[2], true);
        m.set(0, &[0], false);
        let mut cursor = 0;
        assert_eq!(m.get_seq(0, &[2], &mut cursor), Some(true));
        assert_eq!(m.get_seq(0, &[0], &mut cursor), Some(false));
        assert_eq!(m.get_seq(0, &[1], &mut cursor), None);
    }

    #[test]
    fn meta_store_update() {
        let mut s: MetaStore<usize> = MetaStore::with_slots(1);
        s.update(0, &[], 0, |n| n.max(3));
        s.update(0, &[], 0, |n| n.max(2));
        assert_eq!(s.get(0, &[]), Some(3));
    }
}
