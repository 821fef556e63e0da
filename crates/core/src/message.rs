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
//! per-instance element scopes as inline `ScopeKey`s — no hashing.
//!
//! Each slot first holds a **root cell**: its value at the empty scope
//! (outside every repetition and tabular, as all of a Modbus request's
//! fields are), or an absent marker. A read or a write at the empty scope
//! is one indexed load or store: no key is built, compared or searched.
//! Values inside containers go to the slot's runs; a slot may hold both,
//! and its root value sorts first.
//!
//! A `WireStore` keeps value bytes in one shared arena, and each slot a
//! sorted list of disjoint **runs**: `n` values of one width, one stride
//! apart in the arena, under `n` consecutive element keys of one
//! container instance. The element kernels move a whole column as one run
//! per container instance: the parser gathers it from the wire (its
//! values end to end), the transcode copies it as one block, and the
//! serializer scatters it into the elements' places (a column stored in
//! pieces takes the per-element walk). The setters, the sampler and the
//! per-element walks store single values; one that is the next element of
//! the slot's last run, at its width and one stride on in the arena,
//! extends that run, so a table set element by element, field by field,
//! keeps one run per column, its stride the element's bytes. Rolling a
//! slot's runs back to an entry count and an arena length
//! (`WireStore::truncate`) also trims the last run it keeps, so it is
//! exact; replacing one value inside a longer run splits the run.
//!
//! A scoped lookup is an index plus a binary search for the run that
//! covers the key, or one check of the entry under a cursor for a reader
//! that visits the keys in order (the cursor stays on a run until its last
//! element; a root read leaves it as it is).
//! Clearing a store keeps its capacity, which is what lets the codec
//! sessions ([`crate::serialize::SerializeSession`],
//! [`crate::parse::ParseSession`]) run without steady-state allocation.

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
        // Element by element, not a `copy_from_slice`: a length-dependent
        // copy compiles to calls into `memset` and `memcpy` on every
        // lookup.
        let idx = std::array::from_fn(|d| scope.get(d).copied().unwrap_or(0));
        ScopeKey { len: scope.len() as u8, idx }
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.idx[..self.len as usize]
    }

    /// The key of element `i` of a container at `scope`: `scope`
    /// followed by `i`.
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
    fn set_last(&mut self, i: u32) {
        self.idx[self.len as usize - 1] = i;
    }

    /// This key with its innermost element index replaced.
    fn with_last(mut self, i: u32) -> ScopeKey {
        self.set_last(i);
        self
    }

    /// The innermost element index.
    fn last(&self) -> u32 {
        self.idx[self.len as usize - 1]
    }
}

/// One [`WireStore`] entry: `n` values of `width` bytes each, `stride`
/// bytes apart in the arena from `start` (end to end when `stride` is
/// `width`), under `first` and the `n - 1` element keys after it —
/// consecutive elements of one container instance. A single value is a
/// run of one, of any width. Every key of a run is an element key: the
/// empty scope's value sits in the slot's root cell.
#[derive(Debug, Clone, Copy)]
struct Entry {
    first: ScopeKey,
    start: u32,
    width: u32,
    n: u32,
    stride: u32,
}

impl Entry {
    /// The element offset of `key` in this run, if the run covers it.
    #[inline(always)]
    fn offset(&self, key: &ScopeKey) -> Option<u32> {
        if self.first == *key {
            return Some(0);
        }
        if self.n == 1 {
            return None;
        }
        let mut aligned = *key;
        aligned.set_last(self.first.last());
        let o = key.last().wrapping_sub(self.first.last());
        (aligned == self.first && o < self.n).then_some(o)
    }

    /// Whether every key of this run sorts before `key`.
    #[inline(always)]
    fn before(&self, key: &ScopeKey) -> bool {
        if self.n == 1 {
            self.first < *key
        } else {
            self.key_at(self.n - 1) < *key
        }
    }

    /// The key of the value at element offset `o`.
    #[inline]
    fn key_at(&self, o: u32) -> ScopeKey {
        let mut key = self.first;
        if o > 0 {
            key.set_last(self.first.last() + o);
        }
        key
    }

    /// How many of this run's values are elements below `n` (a run may
    /// reach past a loop's last element), for a run that starts below it.
    #[inline]
    fn values_below(&self, n: usize) -> usize {
        (self.n as usize).min(n - self.first.last() as usize)
    }

    /// The arena range of the value at element offset `o`.
    #[inline]
    fn range(&self, o: u32) -> std::ops::Range<usize> {
        let start = self.start as usize + o as usize * self.stride as usize;
        start..start + self.width as usize
    }

    /// Extends this run by the value of `width` bytes at arena offset
    /// `start` under `key`, when `key` is the element after the run's last
    /// and the value lies one stride past it (any distance past a single
    /// value, which sets the stride). Returns whether it did. Zero-width
    /// values never join a run: they take no arena bytes, so a rollback
    /// could not tell them from the values before it.
    #[inline]
    fn extend(&mut self, key: &ScopeKey, start: usize, width: usize) -> bool {
        let len = key.len as usize;
        if width == 0 || key.len != self.first.len || self.width as usize != width {
            return false;
        }
        let Some(gap) = start.checked_sub(self.start as usize) else { return false };
        let stride = if self.n == 1 { gap } else { self.n as usize * self.stride as usize };
        let next = u64::from(self.first.last()) + u64::from(self.n);
        if gap != stride
            || gap < width
            || u32::try_from(gap).is_err()
            || u64::from(key.last()) != next
        {
            return false;
        }
        if key.idx[..len - 1] != self.first.idx[..len - 1] {
            return false;
        }
        if self.n == 1 {
            self.stride = gap as u32;
        }
        self.n += 1;
        true
    }
}

/// Dense per-slot wire-value storage: value bytes live in one arena, and
/// each slot keeps its root cell and its entries (runs of element values,
/// see the module's `# Storage`) sorted and disjoint by key.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireStore {
    slots: Vec<WireSlot>,
    data: Vec<u8>,
}

/// One [`WireStore`] slot: the arena span of its value at the empty scope
/// (`start` [`ABSENT`] when it holds none), then its runs.
#[derive(Debug, Clone)]
struct WireSlot {
    start: u32,
    len: u32,
    runs: Vec<Entry>,
}

/// The root cell of a slot that holds no value at the empty scope.
const ABSENT: u32 = u32::MAX;

impl WireSlot {
    /// The arena range of the root value, if any.
    #[inline]
    fn root(&self) -> Option<std::ops::Range<usize>> {
        let start = self.start as usize;
        (self.start != ABSENT).then(|| start..start + self.len as usize)
    }
}

/// How one slot holds the values of elements `0..n` of one container
/// instance ([`WireStore::run`]), when the serializer's element kernel
/// can read them.
pub(crate) enum Stored {
    /// No element holds a value.
    Absent,
    /// One run holds them all, as a parse, a transcode or the setters
    /// (element by element) store a column: value `j` is the `width`
    /// bytes at arena offset `start + j * stride` ([`WireStore::arena`]).
    Run {
        start: usize,
        width: usize,
        stride: usize,
        /// The slot's read cursor after the `n` elements.
        next: u32,
    },
}

impl WireStore {
    pub(crate) fn with_slots(n: usize) -> WireStore {
        let slot = WireSlot { start: ABSENT, len: 0, runs: Vec::new() };
        WireStore { slots: vec![slot; n], data: Vec::new() }
    }

    /// Clears all values, keeping every capacity (session reuse).
    pub(crate) fn clear(&mut self) {
        for s in &mut self.slots {
            s.start = ABSENT;
            s.runs.clear();
        }
        self.data.clear();
    }

    pub(crate) fn get(&self, slot: usize, scope: &[u32]) -> Option<&[u8]> {
        let s = self.slots.get(slot)?;
        if scope.is_empty() {
            return Some(&self.data[s.root()?]);
        }
        let (i, o) = find(&s.runs, &ScopeKey::from_slice(scope))?;
        Some(&self.data[s.runs[i].range(o)])
    }

    pub(crate) fn contains(&self, slot: usize, scope: &[u32]) -> bool {
        self.get(slot, scope).is_some()
    }

    /// Inserts or replaces the value at `(slot, scope)`. Bytes are appended
    /// to the arena; a replaced value's old bytes are reclaimed on the next
    /// [`WireStore::clear`]. A root value is one store into its cell;
    /// message walks insert scoped values in order, so the common case is
    /// an O(1) tail push (checked before falling back to a binary search).
    pub(crate) fn set(&mut self, slot: usize, scope: &[u32], bytes: &[u8]) {
        let start = self.data.len();
        self.data.extend_from_slice(bytes);
        self.index(slot, scope, start, bytes.len());
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
        self.index(slot, scope, start, bytes.len());
        Ok(())
    }

    /// Stores one column of a container instance: `n` values of `width`
    /// bytes under `first` and the element keys after it, which `fill`
    /// writes end to end into one new arena block. The column is one
    /// entry when it sorts after the slot's entries, as a parser's
    /// in-order writes do; otherwise each value is stored like
    /// [`WireStore::set`].
    pub(crate) fn set_column(
        &mut self,
        slot: usize,
        first: &ScopeKey,
        width: usize,
        n: usize,
        fill: impl FnOnce(&mut [u8]),
    ) {
        if n == 0 {
            return;
        }
        debug_assert!(first.len > 0, "a column lies under element keys");
        let start = self.data.len();
        self.data.resize(start + n * width, 0);
        fill(&mut self.data[start..]);
        let (width, n) = (width as u32, n as u32);
        let run = Entry { first: *first, start: start as u32, width, n, stride: width };
        let entries = &mut self.slots[slot].runs;
        if entries.last().is_none_or(|last| last.before(first)) {
            entries.push(run);
            return;
        }
        for o in 0..run.n {
            self.index_run(slot, run.key_at(o), run.range(o).start, width as usize);
        }
    }

    /// Points `(slot, scope)` at the `len` arena bytes from `start`: the
    /// root cell at the empty scope, else [`WireStore::index_run`].
    #[inline]
    fn index(&mut self, slot: usize, scope: &[u32], start: usize, len: usize) {
        if scope.is_empty() {
            let s = &mut self.slots[slot];
            (s.start, s.len) = (start as u32, len as u32);
        } else {
            self.index_run(slot, ScopeKey::from_slice(scope), start, len);
        }
    }

    /// Points element key `(slot, key)` at the `len` arena bytes from
    /// `start`: the next value of the slot's last run ([`Entry::extend`]),
    /// a new entry of one value, or a replaced one. Replacing one value of
    /// a longer run splits the run around it.
    fn index_run(&mut self, slot: usize, key: ScopeKey, start: usize, len: usize) {
        let width = len as u32;
        let single = Entry { first: key, start: start as u32, width, n: 1, stride: width };
        let entries = &mut self.slots[slot].runs;
        if entries.last_mut().is_some_and(|last| last.extend(&key, start, len)) {
            return;
        }
        if entries.last().is_none_or(|last| last.before(&key)) {
            entries.push(single);
            return;
        }
        let i = entries.partition_point(|e| e.first <= key);
        let Some((j, o)) = i.checked_sub(1).and_then(|j| Some((j, entries[j].offset(&key)?)))
        else {
            entries.insert(i, single);
            return;
        };
        let run = entries[j];
        if run.n == 1 {
            entries[j] = single;
            return;
        }
        let before = Entry { n: o, ..run };
        let after = Entry {
            first: run.key_at(o + 1),
            start: run.range(o + 1).start as u32,
            n: run.n - o - 1,
            ..run
        };
        entries.splice(j..=j, [before, single, after].into_iter().filter(|e| e.n > 0));
    }

    /// [`WireStore::get`] with a **sequential cursor**: when the caller
    /// visits a slot's instances in scope order (the transcode copy
    /// programs and the serializer do — plain pre-order is exactly the
    /// stores' sort order), each lookup is one check of the entry under
    /// the cursor instead of a binary search. The cursor stays on a run
    /// until its last element is read. A cursor miss falls back to the
    /// search and re-synchronizes the cursor, so out-of-order access is
    /// merely slower, never wrong. A root read is one load and leaves the
    /// cursor as it is.
    pub(crate) fn get_seq(&self, slot: usize, scope: &[u32], cursor: &mut u32) -> Option<&[u8]> {
        let s = self.slots.get(slot)?;
        if scope.is_empty() {
            return Some(&self.data[s.root()?]);
        }
        let (i, o) = seek(&s.runs, &ScopeKey::from_slice(scope), cursor)?;
        let e = &s.runs[i];
        if o + 1 == e.n {
            *cursor += 1;
        }
        Some(&self.data[e.range(o)])
    }

    /// The entries of `slot` whose first key lies from `first` (the key
    /// of a container instance's element 0) up to element `n` (no
    /// earlier entry covers element 0), and the slot's read cursor after
    /// them. `cursor` is the slot's read cursor, tried before a search
    /// and left as it is. `None` when `n` is not a `u32` element index.
    fn column(
        &self,
        slot: usize,
        first: &ScopeKey,
        n: usize,
        cursor: u32,
    ) -> Option<(&[Entry], u32)> {
        let entries = &self.slots[slot].runs;
        let end = first.with_last(u32::try_from(n).ok()?);
        let lo = match entries.get(cursor as usize) {
            Some(e) if e.first == *first => cursor as usize,
            _ => entries.partition_point(|e| e.first < *first),
        };
        let hi = match entries.get(lo) {
            Some(e) if n > 0 && e.first == *first && e.n as usize >= n => lo + 1,
            _ => lo + entries[lo..].partition_point(|e| e.first < end),
        };
        let entries = &entries[lo..hi];
        // The cursor stays on a run that reaches past element `n - 1`.
        let overhang = entries.last().is_some_and(|e| e.values_below(n) < e.n as usize);
        Some((entries, (hi - usize::from(overhang)) as u32))
    }

    /// How `slot` holds the values of elements `0..n` of the container
    /// instance whose element 0 has key `first` ([`WireStore::column`]'s
    /// lookup): `None` when neither absent nor one run of them all (some
    /// missing, a value replaced since, values set out of order).
    pub(crate) fn run(
        &self,
        slot: usize,
        first: &ScopeKey,
        n: usize,
        cursor: u32,
    ) -> Option<Stored> {
        match self.column(slot, first, n, cursor)? {
            ([], _) => Some(Stored::Absent),
            ([e], next) if e.first == *first && e.values_below(n) == n => Some(Stored::Run {
                start: e.start as usize,
                width: e.width as usize,
                stride: e.stride as usize,
                next,
            }),
            _ => None,
        }
    }

    /// The column copy of one slot: appends every value of `src`'s
    /// `src_slot` whose key is `scope` followed by an element index below
    /// `n` — the values a loop over `n` elements would read, in order —
    /// to `slot` under the same keys, one entry per source entry copied as
    /// one block. `edit` gets each copied block in the arena first, with
    /// its values' width and count. Returns `false`, with whatever was
    /// appended left in place, when `edit` rejects a block or a key would
    /// not sort after the slot's last entry; the caller rolls back with
    /// [`WireStore::truncate`].
    pub(crate) fn copy_column(
        &mut self,
        slot: usize,
        src: &WireStore,
        src_slot: usize,
        scope: &[u32],
        n: usize,
        mut edit: impl FnMut(&mut [u8], usize, usize) -> bool,
    ) -> bool {
        // The column sorts after everything already under `slot` when its
        // first entry does. (A count past `u32::MAX` is left to the
        // per-element copy.)
        let Some((column, _)) = src.column(src_slot, &ScopeKey::element(scope, 0), n, 0) else {
            return false;
        };
        let WireStore { slots, data } = self;
        let dst = &mut slots[slot].runs;
        if let (Some(last), Some(first)) = (dst.last(), column.first()) {
            if !last.before(&first.first) {
                return false;
            }
        }
        dst.reserve(column.len());
        for e in column {
            let k = e.values_below(n);
            let (w, stride) = (e.width as usize, e.stride as usize);
            let start = data.len();
            let values = &src.data[e.start as usize..];
            if stride == w || w == 0 {
                data.extend_from_slice(&values[..k * w]);
            } else {
                // A setter-built run: its values gathered end to end.
                data.resize(start + k * w, 0);
                for (d, v) in data[start..].chunks_exact_mut(w).zip(values.chunks(stride)) {
                    d.copy_from_slice(&v[..w]);
                }
            }
            if !edit(&mut data[start..], w, k) {
                return false;
            }
            dst.push(Entry { start: start as u32, n: k as u32, stride: e.width, ..*e });
        }
        true
    }

    /// The arena every value lies in.
    pub(crate) fn arena(&self) -> &[u8] {
        &self.data
    }

    /// Arena length: with [`WireStore::entries_len`], the state
    /// [`WireStore::truncate`] rolls back to.
    pub(crate) fn arena_len(&self) -> usize {
        self.data.len()
    }

    /// Number of runs under `slot` (its root value not counted).
    pub(crate) fn entries_len(&self, slot: usize) -> usize {
        self.slots[slot].runs.len()
    }

    /// Drops `slot`'s runs past the first `entries` and the arena bytes
    /// past `arena` (a rollback to lengths read before appending), and
    /// the values past `arena` of the last run kept, which writes since
    /// may have extended. The column copies it undoes write no root
    /// value, and the root cell is left as it is.
    pub(crate) fn truncate(&mut self, slot: usize, entries: usize, arena: usize) {
        let kept = &mut self.slots[slot].runs;
        kept.truncate(entries);
        if let Some(last) = kept.last_mut() {
            while last.n > 1 && last.range(last.n - 1).end > arena {
                last.n -= 1;
            }
        }
        self.data.truncate(arena);
    }

    /// Whether `(slot, scope)` holds a value, looked up like
    /// [`WireStore::get_seq`] but without consuming the value: a hit
    /// leaves the cursor on its entry, so the read that follows is a hit
    /// too.
    pub(crate) fn contains_seq(&self, slot: usize, scope: &[u32], cursor: &mut u32) -> bool {
        let Some(s) = self.slots.get(slot) else { return false };
        if scope.is_empty() {
            return s.root().is_some();
        }
        seek(&s.runs, &ScopeKey::from_slice(scope), cursor).is_some()
    }

    /// The scopes at which `slot` holds a value, in order (the root
    /// first), one per value.
    pub(crate) fn scopes_of(&self, slot: usize) -> impl Iterator<Item = ScopeKey> + '_ {
        let s = &self.slots[slot];
        let root = s.root().map(|_| ScopeKey::default());
        root.into_iter().chain(s.runs.iter().flat_map(|e| (0..e.n).map(|o| e.key_at(o))))
    }

    /// Number of slots this store was sized for.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// All stored values, in slot order, then key order, one item per
    /// value.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, ScopeKey, &[u8])> + '_ {
        self.slots.iter().enumerate().flat_map(move |(slot, s)| {
            let root = s.root().map(|r| (slot, ScopeKey::default(), &self.data[r]));
            root.into_iter().chain(s.runs.iter().flat_map(move |e| {
                (0..e.n).map(move |o| (slot, e.key_at(o), &self.data[e.range(o)]))
            }))
        })
    }
}

/// The entry of one slot's sorted entries that covers `key`, and the
/// key's element offset in it.
#[inline]
fn find(entries: &[Entry], key: &ScopeKey) -> Option<(usize, u32)> {
    match entries.binary_search_by(|e| e.first.cmp(key)) {
        Ok(i) => Some((i, 0)),
        // Only a run that starts before `key` can cover it.
        Err(i) => {
            let j = i.checked_sub(1)?;
            Some((j, entries[j].offset(key)?))
        }
    }
}

/// [`find`] trying the entry under `cursor` first and leaving the cursor
/// on the match. Only a cursor miss pays for a search, and a key past the
/// last entry (the miss of a reader that runs ahead of an in-order
/// writer) costs one comparison.
#[inline]
fn seek(entries: &[Entry], key: &ScopeKey, cursor: &mut u32) -> Option<(usize, u32)> {
    let c = *cursor as usize;
    if let Some(o) = entries.get(c).and_then(|e| e.offset(key)) {
        return Some((c, o));
    }
    if entries.last().is_some_and(|e| e.before(key)) {
        return None;
    }
    let (i, o) = find(entries, key)?;
    *cursor = i as u32;
    Some((i, o))
}

/// Runs `$f::<W>(args)` with `W` the width `$w` for the element-column
/// widths the bulk and modbus derivations give their kernels at levels
/// 0–3 (1, 2, 4 and 24 bytes), so each value's copy is a few register
/// moves rather than a call into `memcpy`, and `$f::<0>` (any width)
/// otherwise.
macro_rules! by_width {
    ($w:expr, $f:ident($($arg:expr),*)) => {
        match $w {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            4 => $f::<4>($($arg),*),
            24 => $f::<24>($($arg),*),
            _ => $f::<0>($($arg),*),
        }
    };
}

/// Copies one value of `W` bytes (any width when `W` is 0), reversed
/// when `rev`. A fixed width reverses in registers: a multiple of 8 bytes
/// as byte-swapped 64-bit words in reverse order, any other width through
/// an array; a 1-byte value is a plain copy.
#[inline(always)]
fn put<const W: usize>(d: &mut [u8], s: &[u8], rev: bool) {
    if !rev || W == 1 {
        d.copy_from_slice(s);
    } else if W > 0 && W.is_multiple_of(8) {
        for (d, s) in d.chunks_exact_mut(8).zip(s.rchunks_exact(8)) {
            let word: [u8; 8] = s.try_into().expect("8-byte chunk");
            d.copy_from_slice(&u64::from_be_bytes(word).to_le_bytes());
        }
    } else if W > 0 {
        let mut a = [0u8; W];
        a.copy_from_slice(s);
        a.reverse();
        d.copy_from_slice(&a);
    } else {
        d.copy_from_slice(s);
        d.reverse();
    }
}

/// The parser's column gather: fills `dst` with `width`-byte values,
/// value `j` the `width` bytes at offset `at` of the `j`-th `stride`-byte
/// element of `src` (of the `j`-th from the end when `backwards`: the
/// walk's element `j` of a table behind a folded mirror), each reversed
/// when `rev`.
pub(crate) fn gather(
    dst: &mut [u8],
    width: usize,
    src: &[u8],
    stride: usize,
    at: usize,
    rev: bool,
    backwards: bool,
) {
    fn each<'s, const W: usize>(
        dst: &mut [u8],
        w: usize,
        elements: impl Iterator<Item = &'s [u8]>,
        at: usize,
        rev: bool,
    ) {
        let w = if W > 0 { W } else { w };
        for (d, e) in dst.chunks_exact_mut(w).zip(elements) {
            put::<W>(d, &e[at..at + w], rev);
        }
    }
    if width == 0 {
        return;
    }
    let elements = src.chunks_exact(stride);
    if stride == width && !rev && !backwards {
        // A single-column element: the column is the wire, one copy.
        dst.copy_from_slice(&src[..dst.len()]);
    } else if backwards {
        by_width!(width, each(dst, width, elements.rev(), at, rev));
    } else {
        by_width!(width, each(dst, width, elements, at, rev));
    }
}

/// The serializer's column scatter: copies value `j` of a run — the
/// `width` bytes at `values[j * step..]` — into the `j`-th `stride`-byte
/// element of `dst` at offset `at` (the `j`-th from the end when
/// `backwards`: the walk's element `j` of a table behind a mirror), each
/// reversed when `rev`, for every element of `dst`.
pub(crate) fn scatter(
    dst: &mut [u8],
    (stride, at, width): (usize, usize, usize),
    values: &[u8],
    step: usize,
    rev: bool,
    backwards: bool,
) {
    fn each<'d, const W: usize>(
        mut elements: impl ExactSizeIterator<Item = &'d mut [u8]>,
        at: usize,
        w: usize,
        (values, step): (&[u8], usize),
        rev: bool,
    ) {
        let w = if W > 0 { W } else { w };
        if step == w {
            for (element, v) in elements.zip(values.chunks_exact(w)) {
                put::<W>(&mut element[at..at + w], v, rev);
            }
            return;
        }
        // Values a stride apart: all but the last a whole stride each (the
        // values may end less than a stride before the arena does).
        let last = elements.len().saturating_sub(1);
        for (element, v) in elements.by_ref().take(last).zip(values.chunks_exact(step)) {
            put::<W>(&mut element[at..at + w], &v[..w], rev);
        }
        if let Some(element) = elements.next() {
            put::<W>(&mut element[at..at + w], &values[last * step..][..w], rev);
        }
    }
    if width == 0 {
        return;
    }
    if stride == width && step == width && !rev && !backwards {
        // A single-column element: the wire is the column, one copy.
        dst.copy_from_slice(&values[..dst.len()]);
        return;
    }
    let elements = dst.chunks_exact_mut(stride);
    if backwards {
        by_width!(width, each(elements.rev(), at, width, (values, step), rev));
    } else {
        by_width!(width, each(elements, at, width, (values, step), rev));
    }
}

/// Dense per-slot metadata storage (presence flags, element counts): each
/// slot's value at the empty scope in its root cell, then its scoped
/// values sorted by key.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetaStore<T: Copy> {
    slots: Vec<MetaSlot<T>>,
}

#[derive(Debug, Clone)]
struct MetaSlot<T> {
    root: Option<T>,
    scoped: Vec<(ScopeKey, T)>,
}

impl<T: Copy> MetaStore<T> {
    pub(crate) fn with_slots(n: usize) -> MetaStore<T> {
        MetaStore { slots: vec![MetaSlot { root: None, scoped: Vec::new() }; n] }
    }

    pub(crate) fn clear(&mut self) {
        for s in &mut self.slots {
            s.root = None;
            s.scoped.clear();
        }
    }

    pub(crate) fn get(&self, slot: usize, scope: &[u32]) -> Option<T> {
        let s = self.slots.get(slot)?;
        if scope.is_empty() {
            return s.root;
        }
        let key = ScopeKey::from_slice(scope);
        let i = s.scoped.binary_search_by(|(k, _)| k.cmp(&key)).ok()?;
        Some(s.scoped[i].1)
    }

    /// [`MetaStore::get`] through a sequential cursor (see
    /// [`WireStore::get_seq`]).
    pub(crate) fn get_seq(&self, slot: usize, scope: &[u32], cursor: &mut u32) -> Option<T> {
        let s = self.slots.get(slot)?;
        if scope.is_empty() {
            return s.root;
        }
        let (entries, key) = (&s.scoped, ScopeKey::from_slice(scope));
        let c = *cursor as usize;
        let i = match entries.get(c) {
            Some(e) if e.0 == key => c,
            _ if entries.last().is_some_and(|e| e.0 < key) => return None,
            _ => entries.binary_search_by(|(k, _)| k.cmp(&key)).ok()?,
        };
        *cursor = i as u32 + 1;
        Some(entries[i].1)
    }

    pub(crate) fn set(&mut self, slot: usize, scope: &[u32], value: T) {
        let s = &mut self.slots[slot];
        if scope.is_empty() {
            s.root = Some(value);
            return;
        }
        let (entries, key) = (&mut s.scoped, ScopeKey::from_slice(scope));
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
        let s = &mut self.slots[slot];
        if scope.is_empty() {
            s.root = Some(f(s.root.unwrap_or(default)));
            return;
        }
        let (entries, key) = (&mut s.scoped, ScopeKey::from_slice(scope));
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
    pub(crate) rng: StdRng,
    /// Evaluation scratch of the compiled plan programs: recovery (the
    /// sampler's subject reads, and a relay target reading its source)
    /// and distribution (the setters, and the copy programs writing into
    /// this message). Warmed capacity travels with [`MessageState`].
    ev: RecEval,
    dist: DistEval,
    /// Compiled transcode state of a reusable relay target: the copy
    /// program for the last source graph plus warmed read cursors. `None`
    /// until the first [`Message::transcode_into`] (or until armed by
    /// [`crate::service::CodecService::transcode_target`]).
    transcode: Option<TranscodeCache>,
    /// Element runs an echo's parse left in the frame
    /// ([`crate::framing::WireHop`]), sorted by container and key: empty
    /// outside one.
    pub(crate) wired: Vec<Wired>,
}

/// An element run an echo's parse left in the inbound frame
/// ([`crate::plan::ElemRun::frame_copy`]): the `m` elements of container
/// `slot`'s instance whose element 0 has key `first` lie from frame
/// offset `off` (backwards when the container is a folded mirror's
/// child), as the serializer of the same plan would write them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wired {
    pub(crate) slot: u32,
    pub(crate) first: ScopeKey,
    pub(crate) off: usize,
    pub(crate) m: usize,
}

/// Sorts `wired` for [`Message::wired_block`] (already sorted in the
/// common case of one run per slot visited in order).
pub(crate) fn sort_wired(wired: &mut [Wired]) {
    if !wired.is_sorted_by_key(|w| (w.slot, w.first)) {
        wired.sort_unstable_by_key(|w| (w.slot, w.first));
    }
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
    wired: Vec<Wired>,
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
            transcode: None,
            wired: Vec::new(),
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
        self.wired.clear();
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
            transcode: state.transcode,
            wired: state.wired,
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
            wired: self.wired,
        }
    }

    /// The obfuscation graph this message is bound to.
    pub fn graph(&self) -> &'c ObfGraph {
        self.graph
    }

    /// Every populated wire value: `(slot, scope, bytes)` in slot order.
    /// Feeds the fuzzer's plan-slot coverage signatures ([`crate::fuzz`]).
    pub(crate) fn populated_wires(&self) -> impl Iterator<Item = (usize, ScopeKey, &[u8])> + '_ {
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
    /// allocation**, byte-identically to the reference graph walk in
    /// [`crate::reference`].
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

    /// The inbound `frame`'s `size` bytes an echo's parse left there for
    /// the `m` elements of container `slot` from element key `first`
    /// ([`Wired`]): those elements as the serializer writes them.
    pub(crate) fn wired_block<'f>(
        &self,
        frame: &'f [u8],
        slot: u32,
        first: &ScopeKey,
        m: usize,
        size: usize,
    ) -> Option<&'f [u8]> {
        let i = self.wired.binary_search_by(|w| (w.slot, w.first).cmp(&(slot, *first))).ok()?;
        let w = self.wired[i];
        frame.get(w.off..w.off.checked_add(size)?).filter(|_| w.m == m)
    }

    pub(crate) fn transcode_mismatch(&self, dst: &Message<'_>) -> BuildError {
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

    /// Marks presence/counts for every optional / repetition / tabular
    /// ancestor of `x` under the given scope.
    pub(crate) fn mark_ancestors(&mut self, x: NodeId, scope: &[u32]) {
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

    pub(crate) fn auto_value(&self, x: NodeId, scope: &[u32]) -> Option<Value> {
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
    /// whole column ([`WireStore::copy_column`], one block per source
    /// entry) with the fused copy's in-place rewrite. A fixed-width
    /// column's values land end to end, so once a block's width is
    /// checked its op stacks run over the block just copied
    /// ([`undo_ops_column`], [`apply_ops_column`]); ops preserve length,
    /// so that is the per-value rewrite's check. When a column fails,
    /// every column of the body is truncated back to its pre-loop length
    /// and the body reruns per element, which stops at the failing
    /// element and step exactly like the loop it replaces.
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
                return self.wires.copy_column(dst, src, from, sc, n, |values, width, k| {
                    (0..k).all(|o| {
                        let v = &mut values[o * width..][..width];
                        rewrite(sp, src_ops, dp, dst_obf, dst_ops, check, v).is_ok()
                    })
                });
            };
            let w = w as usize;
            self.wires.copy_column(dst, src, from, sc, n, |values, width, _| {
                if width != w {
                    return false;
                }
                undo_ops_column(sp.ops(src_ops), values, w);
                apply_ops_column(dp.ops(dst_ops), values, w);
                true
            })
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
    use rand::Rng;

    use super::*;
    use crate::graph::{Condition, FormatGraph, GraphBuilder, Predicate};
    use crate::obf::ObfKind;
    use crate::reference;
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
            let want = reference::transcode_into(&src, &mut walked).unwrap_err();
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
        // The setters, record by record and field by field, store each
        // column as one run (its stride the record's bytes).
        let set = source(&[]);
        for field in ["key", "flags", "payload"] {
            assert_eq!(set.wires.entries_len(slot(field) as usize), 1, "{field}");
        }
        // Clean: the columns land exactly where the walk puts them, and
        // an entry past the element count is skipped like the walk skips
        // it.
        let src = source(&[("key", 12, b"\x00\x00\x00\x0c")]);
        let (mut compiled, mut walked) = fresh();
        src.transcode_into(&mut compiled).unwrap();
        reference::transcode_into(&src, &mut walked).unwrap();
        assert!(compiled.wires.iter().eq(walked.wires.iter()));
        // A bad `flags` at element 5 and a bad `key` at element 7: the key
        // column fails first, but the loop stops at element 5's flags.
        let src = source(&[("flags", 5, b"\x01\x02\x03"), ("key", 7, b"\x01")]);
        let got = src.transcode_into(&mut compiled).unwrap_err();
        let want = reference::transcode_into(&src, &mut walked).unwrap_err();
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

    /// Each element-run column of `msg` holds one store entry per
    /// container instance: every column after a parse, the source columns
    /// after a transcode (which leaves pads to the serializer).
    fn assert_one_entry_per_column(msg: &Message<'_>, transcoded: bool, what: &str) {
        let plan = msg.graph().plan();
        let cols: Vec<_> = plan.runs.iter().flatten().flat_map(|run| &run.cols).collect();
        assert!(!cols.is_empty(), "{what}: no element run");
        for col in cols {
            let pad = matches!(col.base, crate::plan::BaseOp::Pad { .. });
            let want = usize::from(!(pad && transcoded));
            let got = msg.wires.entries_len(col.slot as usize);
            assert_eq!(got, want, "{what}: entries of column {}", col.slot);
        }
    }

    #[test]
    fn bulk_table_columns_are_one_entry_each() {
        use crate::profile::{Profile, SpecSource};
        let plain = crate::plan::tests::bulk_shaped();
        let resolve = |_: &SpecSource| -> Result<FormatGraph, String> { Ok(plain.clone()) };
        for level in [0, 2] {
            let endpoint = Profile::symmetric(SpecSource::File("bulk.spec".into()))
                .key("e2ebench shared secret")
                .level(level)
                .build_with(&resolve)
                .unwrap();
            let (clear, obf) = (endpoint.clear_tx_service().codec(), endpoint.tx_service().codec());
            let mut msg = clear.message_seeded(1);
            for i in 0..2048u64 {
                msg.set_uint(&format!("records[{i}].key"), i).unwrap();
                msg.set_uint(&format!("records[{i}].flags"), i & 0xFFFF).unwrap();
                msg.set(&format!("records[{i}].payload"), vec![i as u8; 24]).unwrap();
            }
            msg.set("tail", vec![0xAB; 4096]).unwrap();
            let wire = clear.serialize_seeded(&msg, 1).unwrap();
            let what = |step: &str| format!("level {level}: {step}");

            let parsed = clear.parse(&wire).unwrap();
            assert_one_entry_per_column(&parsed, false, &what("parse clear"));
            let to_obf = parsed.transcode(obf.obf_graph()).unwrap();
            assert_one_entry_per_column(&to_obf, true, &what("transcode clear to obf"));
            let obf_wire = obf.serialize_seeded(&to_obf, 2).unwrap();
            let parsed_obf = obf.parse(&obf_wire).unwrap();
            assert_one_entry_per_column(&parsed_obf, false, &what("parse obf"));
            let back = parsed_obf.transcode(clear.obf_graph()).unwrap();
            assert_one_entry_per_column(&back, true, &what("transcode obf to clear"));
            for (src, graph, step) in [
                (&parsed, clear.obf_graph(), "self-transcode clear"),
                (&parsed_obf, obf.obf_graph(), "self-transcode obf"),
            ] {
                assert_one_entry_per_column(&src.transcode(graph).unwrap(), true, &what(step));
            }
            assert_eq!(clear.serialize_seeded(&back, 3).unwrap(), wire, "{}", what("round trip"));
        }
    }

    /// The reference the store is checked against: every value under its
    /// `(slot, depth, indices)` key, in the store's key order.
    type Model = std::collections::BTreeMap<(usize, usize, Vec<u32>), Vec<u8>>;

    fn model_key(slot: usize, key: &ScopeKey) -> (usize, usize, Vec<u32>) {
        (slot, key.as_slice().len(), key.as_slice().to_vec())
    }

    /// A random scope of depth 0, 1 or 2, indices drawn small so keys
    /// collide, and runs meet and overlap.
    fn random_scope(rng: &mut StdRng) -> Vec<u32> {
        let depth = rng.gen_range(0..3usize);
        (0..depth)
            .map(|d| if d + 1 == depth { rng.gen_range(0..8) } else { rng.gen_range(0..2) })
            .collect()
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..4u8) * 0x55).collect()
    }

    /// Checks a store against its model: the same values in the same
    /// order through `iter` and `scopes_of`, every modelled key found by
    /// `get`, and each slot's entries sorted, disjoint, non-empty and
    /// under element keys (a root value sits in its cell).
    fn check_store(s: &WireStore, model: &Model, what: &str) {
        let got: Vec<_> = s.iter().map(|(slot, k, b)| (model_key(slot, &k), b.to_vec())).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, want, "{what}: iter");
        for slot in 0..s.slots() {
            let scopes: Vec<_> = s.scopes_of(slot).map(|k| model_key(slot, &k)).collect();
            let want: Vec<_> = model.keys().filter(|k| k.0 == slot).cloned().collect();
            assert_eq!(scopes, want, "{what}: scopes_of({slot})");
            let entries = &s.slots[slot].runs;
            assert!(entries.iter().all(|e| e.n > 0), "{what}: empty entry");
            assert!(entries.iter().all(|e| e.first.len > 0), "{what}: a root key in a run");
            for pair in entries.windows(2) {
                assert!(pair[0].key_at(pair[0].n - 1) < pair[1].first, "{what}: {pair:?}");
            }
        }
        for ((slot, _, idx), v) in model {
            assert_eq!(s.get(*slot, idx), Some(v.as_slice()), "{what}: get {slot} {idx:?}");
        }
    }

    /// Reads every value of every slot in key order through one cursor
    /// per slot, starting from `cursors` (stale values included): each
    /// read hits, and leaves the cursor past exactly the entries whose
    /// last key has been read. A `contains_seq` before each read leaves
    /// the cursor on the entry it hit. A root value is read from its cell
    /// and leaves the cursor as it was.
    fn check_cursor_sweep(s: &WireStore, model: &Model, cursors: &mut [u32], what: &str) {
        for ((slot, _, idx), v) in model {
            let key = ScopeKey::from_slice(idx);
            let entries = &s.slots[*slot].runs;
            let before = |k: &ScopeKey| entries.iter().filter(|e| e.key_at(e.n - 1) < *k).count();
            let through = |k: &ScopeKey| entries.iter().filter(|e| e.key_at(e.n - 1) <= *k).count();
            let c = &mut cursors[*slot];
            let was = *c as usize;
            let (before, through) =
                if idx.is_empty() { (was, was) } else { (before(&key), through(&key)) };
            assert!(s.contains_seq(*slot, idx, c), "{what}: contains_seq {slot} {idx:?}");
            assert_eq!(*c as usize, before, "{what}: contains_seq cursor {slot} {idx:?}");
            assert_eq!(s.get_seq(*slot, idx, c), Some(v.as_slice()), "{what}: get_seq {idx:?}");
            assert_eq!(*c as usize, through, "{what}: get_seq cursor {slot} {idx:?}");
        }
    }

    /// A column copy from `src` into `slot` of `dst`, kept or rolled
    /// back to the entry count and arena length read first.
    fn copy_step(
        rng: &mut StdRng,
        (s, m): (&mut WireStore, &mut Model),
        (src, src_model): (&WireStore, &Model),
        slot: usize,
        what: &str,
    ) {
        let mut scope = random_scope(rng);
        scope.truncate(1);
        let (from, n) = (rng.gen_range(0..src.slots()), rng.gen_range(0..9usize));
        let copied: Vec<_> = src_model
            .range(model_key(from, &ScopeKey::element(&scope, 0))..)
            .take_while(|(k, _)| {
                k.0 == from
                    && k.2.len() == scope.len() + 1
                    && k.2[..scope.len()] == scope[..]
                    && (k.2[scope.len()] as usize) < n
            })
            .map(|(k, v)| (k.2.clone(), v.clone()))
            .collect();
        let last = m.range(..(slot + 1, 0, Vec::new())).next_back().filter(|(k, _)| k.0 == slot);
        let in_order = match (last, copied.first()) {
            (Some((k, _)), Some((first, _))) => {
                ScopeKey::from_slice(&k.2) < ScopeKey::from_slice(first)
            }
            _ => true,
        };
        let rejects = copied.iter().any(|(_, v)| v.first() == Some(&0xFF));
        let (marks, arena) = (s.entries_len(slot), s.arena_len());
        let ok = s.copy_column(slot, src, from, &scope, n, |values, width, k| {
            (0..k).all(|o| {
                let v = &mut values[o * width..][..width];
                v.iter_mut().for_each(|b| *b ^= 0x33);
                v.first() != Some(&(0xFF ^ 0x33))
            })
        });
        assert_eq!(ok, in_order && !rejects, "{what}: copy_column");
        if !ok || rng.gen() {
            s.truncate(slot, marks, arena);
        } else {
            for (idx, v) in copied {
                let v = v.iter().map(|b| b ^ 0x33).collect();
                m.insert((slot, idx.len(), idx), v);
            }
        }
    }

    /// Reads the elements `0..n` of one container instance as the
    /// serializer's element kernel does ([`WireStore::run`], then
    /// [`scatter`] into elements as wide as the values or one byte wider,
    /// at offset 1, in order or backwards): absent exactly when no element
    /// holds a value, one run only when every element holds one of its
    /// width, and then the scatter places each one.
    fn check_column(s: &WireStore, model: &Model, rng: &mut StdRng, what: &str) {
        let slot = rng.gen_range(0..s.slots());
        let mut scope = random_scope(rng);
        scope.truncate(1);
        let (n, rev, backwards) = (rng.gen_range(1..7usize), rng.gen(), rng.gen());
        let values: Vec<Option<&Vec<u8>>> = (0..n as u32)
            .map(|i| model.get(&model_key(slot, &ScopeKey::element(&scope, i))))
            .collect();
        let first = ScopeKey::element(&scope, 0);
        let stored = s.run(slot, &first, n, rng.gen_range(0..8));
        let absent = values.iter().all(Option::is_none);
        assert_eq!(matches!(stored, Some(Stored::Absent)), absent, "{what}: absent");
        let Some(Stored::Run { start, width: w, stride, .. }) = stored else { return };
        let at = rng.gen_range(usize::from(w == 0)..2);
        let mut dst = vec![0xEE; n * (w + at)];
        scatter(&mut dst, (w + at, at, w), &s.arena()[start..], stride, rev, backwards);
        if backwards {
            // Element order as the walk's element index counts it.
            dst = dst.chunks(w + at).rev().flatten().copied().collect();
        }
        for (element, v) in dst.chunks(w + at).zip(values) {
            let mut v = v.expect("a run holds every element").clone();
            if rev {
                v.reverse();
            }
            assert!(element[..at].iter().all(|&b| b == 0xEE), "{what}: scattered");
            assert_eq!(&element[at..], v.as_slice(), "{what}: scattered");
        }
    }

    #[test]
    fn wire_store_matches_a_model_under_random_operations() {
        const SLOTS: usize = 3;
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut store, mut model) = (WireStore::with_slots(SLOTS), Model::new());
            // A second store, the source of column copies.
            let (mut src, mut src_model) = (WireStore::with_slots(SLOTS), Model::new());
            let mut cursors = [0u32; SLOTS];
            for step in 0..60 {
                let what = format!("seed {seed} step {step}");
                let to_src = rng.gen_range(0..4) == 0;
                let slot = rng.gen_range(0..SLOTS);
                let op = rng.gen_range(0..7);
                if op == 4 {
                    // A column copy from the source store.
                    copy_step(&mut rng, (&mut store, &mut model), (&src, &src_model), slot, &what);
                }
                let (s, m) =
                    if to_src { (&mut src, &mut src_model) } else { (&mut store, &mut model) };
                match op {
                    // A single value, in or out of order, new or replacing
                    // one (inside a run, at an equal or another width).
                    0 | 1 => {
                        let scope = random_scope(&mut rng);
                        let len = rng.gen_range(0..4);
                        let bytes = random_bytes(&mut rng, len);
                        s.set(slot, &scope, &bytes);
                        m.insert(model_key(slot, &ScopeKey::from_slice(&scope)), bytes);
                    }
                    // `set_with`, its edit failing on some values.
                    2 => {
                        let scope = random_scope(&mut rng);
                        let len = rng.gen_range(1..4);
                        let bytes = random_bytes(&mut rng, len);
                        let fails = bytes[0] == 0xFF;
                        let r = s.set_with(slot, &scope, &bytes, |v| {
                            v.iter_mut().for_each(|b| *b ^= 0x0F);
                            if v[0] == 0xF0 {
                                Err(())
                            } else {
                                Ok(())
                            }
                        });
                        assert_eq!(r.is_err(), fails, "{what}");
                        if !fails {
                            let edited = bytes.iter().map(|b| b ^ 0x0F).collect();
                            m.insert(model_key(slot, &ScopeKey::from_slice(&scope)), edited);
                        }
                    }
                    // A column write, with and without `rev`, its elements
                    // in order or backwards.
                    3 => {
                        let mut scope = random_scope(&mut rng);
                        scope.truncate(1);
                        let (f, n, w) =
                            (rng.gen_range(0..4), rng.gen_range(1..6), rng.gen_range(0..4));
                        let (rev, backwards) = (rng.gen(), rng.gen());
                        let values = random_bytes(&mut rng, n * w);
                        let first = ScopeKey::element(&scope, f);
                        s.set_column(slot, &first, w, n, |column| {
                            gather(column, w, &values, w, 0, rev, backwards);
                        });
                        for o in 0..n {
                            let e = if backwards { n - 1 - o } else { o };
                            let mut v = values[e * w..][..w].to_vec();
                            if rev {
                                v.reverse();
                            }
                            m.insert(model_key(slot, &ScopeKey::element(&scope, f + o as u32)), v);
                        }
                    }
                    4 => {}
                    // Single values set element by element, interleaved
                    // with a second slot's (a table built field by
                    // field), kept or rolled back.
                    5 => {
                        let mut scope = random_scope(&mut rng);
                        scope.truncate(1);
                        let other = (slot + 1) % SLOTS;
                        let (f, n) = (rng.gen_range(0..4u32), rng.gen_range(1..6u32));
                        let (w, w2) = (rng.gen_range(0..3), rng.gen_range(0..3));
                        let first = ScopeKey::element(&scope, f);
                        let after = |slot: usize, m: &Model| {
                            let last = m.range(..(slot + 1, 0, Vec::new())).next_back();
                            last.filter(|(k, _)| k.0 == slot)
                                .is_none_or(|(k, _)| ScopeKey::from_slice(&k.2) < first)
                        };
                        let appends = after(slot, m) && after(other, m);
                        let marks = (s.entries_len(slot), s.entries_len(other), s.arena_len());
                        let before = m.clone();
                        for i in f..f + n {
                            let key = ScopeKey::element(&scope, i);
                            for (sl, len) in [(slot, w), (other, w2)] {
                                let bytes = random_bytes(&mut rng, len);
                                s.set(sl, key.as_slice(), &bytes);
                                m.insert(model_key(sl, &key), bytes);
                            }
                        }
                        if appends && rng.gen() {
                            s.truncate(slot, marks.0, marks.2);
                            s.truncate(other, marks.1, marks.2);
                            *m = before;
                        }
                    }
                    // A stale cursor.
                    _ => cursors[slot] = rng.gen_range(0..8),
                }
                check_store(&store, &model, &what);
                check_store(&src, &src_model, &what);
                let mut probe = cursors;
                check_cursor_sweep(&store, &model, &mut probe, &what);
                check_column(&store, &model, &mut rng, &what);
                // Lookups of absent keys miss, through a cursor too.
                let scope = random_scope(&mut rng);
                let slot = rng.gen_range(0..SLOTS);
                if !model.contains_key(&model_key(slot, &ScopeKey::from_slice(&scope))) {
                    assert_eq!(store.get(slot, &scope), None, "{what}");
                    assert!(!store.contains_seq(slot, &scope, &mut cursors[slot]), "{what}");
                    assert_eq!(store.get_seq(slot, &scope, &mut cursors[slot]), None, "{what}");
                }
            }
        }
    }

    #[test]
    fn gather_and_scatter_reverse_at_every_width() {
        // Every specialized width (1, 2, 4, 24) and the generic loop, each
        // value reversed or not, the elements in order or backwards: the
        // gather reads what a per-value reference reads, and the scatter
        // of the gathered column writes the elements back. A scatter from
        // values a stride apart (a setter-built run) copies the column.
        let mut rng = StdRng::seed_from_u64(41);
        for w in 1..=33usize {
            for n in [0usize, 1, 5] {
                let (at, stride) = (2, w + 5);
                let elements = random_bytes(&mut rng, n * stride);
                for (rev, backwards) in [(false, false), (true, false), (false, true), (true, true)]
                {
                    let what = format!("{n} × {w}, rev {rev}, backwards {backwards}");
                    let mut want = Vec::new();
                    for j in 0..n {
                        let e = if backwards { n - 1 - j } else { j };
                        let mut v = elements[e * stride + at..][..w].to_vec();
                        if rev {
                            v.reverse();
                        }
                        want.extend(v);
                    }
                    let mut column = vec![0; n * w];
                    gather(&mut column, w, &elements, stride, at, rev, backwards);
                    assert_eq!(column, want, "{what}: gather");
                    let mut store = WireStore::with_slots(1);
                    let first = ScopeKey::element(&[], 0);
                    store.set_column(0, &first, w, n, |c| c.copy_from_slice(&column));
                    let mut out = elements.clone();
                    out.iter_mut().enumerate().for_each(|(i, b)| *b ^= u8::from(i % stride >= at));
                    if let Some(Stored::Run { start, stride: step, .. }) =
                        store.run(0, &first, n, 0)
                    {
                        let values = &store.arena()[start..];
                        scatter(&mut out, (stride, at, w), values, step, rev, backwards);
                    }
                    for (i, (&got, &was)) in out.iter().zip(&elements).enumerate() {
                        let inside = (at..at + w).contains(&(i % stride));
                        let want = if inside || i % stride < at { was } else { was ^ 1 };
                        assert_eq!(got, want, "{what}: scatter, byte {i}");
                    }
                    let mut copy = vec![0; n * stride];
                    let strided = elements.get(at..).unwrap_or_default();
                    scatter(&mut copy, (stride, at, w), strided, stride, false, false);
                    for (i, (&got, &was)) in copy.iter().zip(&elements).enumerate() {
                        let inside = (at..at + w).contains(&(i % stride));
                        assert_eq!(got, if inside { was } else { 0 }, "{what}: strided, byte {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn meta_store_update() {
        let mut s: MetaStore<usize> = MetaStore::with_slots(1);
        s.update(0, &[], 0, |n| n.max(3));
        s.update(0, &[], 0, |n| n.max(2));
        assert_eq!(s.get(0, &[]), Some(3));
    }

    #[test]
    fn meta_store_matches_a_model_under_random_operations() {
        const SLOTS: usize = 3;
        type MetaModel = std::collections::BTreeMap<(usize, usize, Vec<u32>), usize>;
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut store, mut model) = (MetaStore::<usize>::with_slots(SLOTS), MetaModel::new());
            let mut cursors = [0u32; SLOTS];
            for step in 0..60 {
                let what = format!("seed {seed} step {step}");
                let slot = rng.gen_range(0..SLOTS);
                let scope = random_scope(&mut rng);
                let key = model_key(slot, &ScopeKey::from_slice(&scope));
                match rng.gen_range(0..8) {
                    // A value, in or out of order, new or replacing one.
                    0..=2 => {
                        let v: usize = rng.gen_range(0..16);
                        store.set(slot, &scope, v);
                        model.insert(key, v);
                    }
                    // A read-modify-write of a present or an absent key.
                    3 | 4 => {
                        let (default, v): (usize, usize) =
                            (rng.gen_range(0..4), rng.gen_range(0..16));
                        store.update(slot, &scope, default, |n| (n * 3 + v) % 64);
                        let n = model.get(&key).copied().unwrap_or(default);
                        model.insert(key, (n * 3 + v) % 64);
                    }
                    // One key read through its slot's (maybe stale) cursor.
                    5 | 6 => {
                        let want = model.get(&key).copied();
                        assert_eq!(store.get(slot, &scope), want, "{what}: get {scope:?}");
                        let got = store.get_seq(slot, &scope, &mut cursors[slot]);
                        assert_eq!(got, want, "{what}: get_seq {scope:?}");
                    }
                    _ if rng.gen_range(0..4) == 0 => {
                        store.clear();
                        model.clear();
                    }
                    // A stale cursor.
                    _ => cursors[slot] = rng.gen_range(0..8),
                }
                // Every value, by lookup and in key order through fresh
                // cursors and through the kept ones.
                let (mut fresh, mut kept) = ([0u32; SLOTS], cursors);
                for ((slot, _, idx), &v) in &model {
                    assert_eq!(store.get(*slot, idx), Some(v), "{what}: get {slot} {idx:?}");
                    for c in [&mut fresh[*slot], &mut kept[*slot]] {
                        let got = store.get_seq(*slot, idx, c);
                        assert_eq!(got, Some(v), "{what}: get_seq {slot} {idx:?}");
                    }
                }
                // Lookups of absent keys miss, through a cursor too.
                let scope = random_scope(&mut rng);
                let slot = rng.gen_range(0..SLOTS);
                if !model.contains_key(&model_key(slot, &ScopeKey::from_slice(&scope))) {
                    assert_eq!(store.get(slot, &scope), None, "{what}: absent {scope:?}");
                    assert_eq!(store.get_seq(slot, &scope, &mut cursors[slot]), None, "{what}");
                }
            }
        }
    }
}
