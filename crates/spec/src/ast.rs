//! Syntax tree of the specification language, produced by
//! [`crate::parser`] and consumed by [`crate::lower`].
//!
//! The tree borrows from the source text: names and reference segments
//! are slices of it, and so are string literals without escapes.

use std::borrow::Cow;

use protoobf_core::Endian;

use crate::error::Pos;

/// A parsed specification source: one or more message declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecAst<'a> {
    /// Message declarations in source order.
    pub messages: Vec<MessageAst<'a>>,
}

/// One `message NAME { ... }` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageAst<'a> {
    /// Message (protocol) name.
    pub name: &'a str,
    /// Top-level fields.
    pub fields: Vec<FieldAst<'a>>,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// A dotted field reference (`length`, `pdu.function`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefAst<'a> {
    /// Path components.
    pub parts: Vec<&'a str>,
    /// Source position.
    pub pos: Pos,
}

impl RefAst<'_> {
    /// The reference as written.
    pub fn text(&self) -> String {
        self.parts.join(".")
    }
}

/// Terminal type annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeAst {
    /// Unsigned integer of fixed width and byte order.
    UInt {
        /// Width in bytes (1–8).
        width: usize,
        /// Byte order.
        endian: Endian,
    },
    /// Raw bytes, optionally with a fixed size.
    Bytes(Option<usize>),
    /// Text bytes (structurally identical to `Bytes(None)`).
    Ascii,
}

/// Terminal boundary annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundaryAst<'a> {
    /// `until "…"` — delimited.
    Until(Cow<'a, [u8]>),
    /// `sized_by ref` — length carried by another field.
    SizedBy(RefAst<'a>),
    /// `rest` — extends to the end of the window.
    Rest,
}

/// Auto-computation annotations (`= len(x)` / `= count(x)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoAst<'a> {
    /// Plain serialized length of the target.
    Len(RefAst<'a>),
    /// Element count of the target.
    Count(RefAst<'a>),
    /// A protocol constant, emitted and verified automatically.
    Const(LitAst<'a>),
}

/// Sequence window annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowAst<'a> {
    /// `sized_by ref`.
    SizedBy(RefAst<'a>),
    /// `rest`.
    Rest,
}

/// Condition operator of an `optional … if` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `in [a, b, …]`
    In,
}

/// Literal in a condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LitAst<'a> {
    /// Integer (encoded with the subject's width/endianness).
    Int(u64),
    /// Byte string.
    Str(Cow<'a, [u8]>),
}

/// `optional … if subject <op> values` condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondAst<'a> {
    /// The referenced subject field.
    pub subject: RefAst<'a>,
    /// Comparison operator.
    pub op: CondOp,
    /// Right-hand literals (one for `==`/`!=`, several for `in`).
    pub values: Vec<LitAst<'a>>,
}

/// Repetition stop annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopAst<'a> {
    /// `until "…"` — terminator byte string.
    Until(Cow<'a, [u8]>),
    /// `rest` — repeat until the window is exhausted.
    Rest,
}

/// One field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldAst<'a> {
    /// A terminal field.
    Terminal {
        /// Field name.
        name: &'a str,
        /// Declared type.
        ty: TypeAst,
        /// Optional boundary annotation.
        boundary: Option<BoundaryAst<'a>>,
        /// Optional auto-computation annotation.
        auto: Option<AutoAst<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// `seq name [window] { … }`
    Seq {
        /// Node name.
        name: &'a str,
        /// Optional window annotation.
        window: Option<WindowAst<'a>>,
        /// Children.
        fields: Vec<FieldAst<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// `optional name if cond { … }`
    Optional {
        /// Node name.
        name: &'a str,
        /// Presence condition.
        cond: CondAst<'a>,
        /// Children of the (implicit) body.
        fields: Vec<FieldAst<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// `repeat name (until "…" | rest) { … }`
    Repeat {
        /// Node name.
        name: &'a str,
        /// Stop rule.
        stop: StopAst<'a>,
        /// Element fields.
        fields: Vec<FieldAst<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// `tabular name count_by ref { … }`
    Tabular {
        /// Node name.
        name: &'a str,
        /// The counter field.
        counter: RefAst<'a>,
        /// Element fields.
        fields: Vec<FieldAst<'a>>,
        /// Source position.
        pos: Pos,
    },
}

impl<'a> FieldAst<'a> {
    /// The declared field name.
    pub fn name(&self) -> &'a str {
        match self {
            FieldAst::Terminal { name, .. }
            | FieldAst::Seq { name, .. }
            | FieldAst::Optional { name, .. }
            | FieldAst::Repeat { name, .. }
            | FieldAst::Tabular { name, .. } => name,
        }
    }
}
