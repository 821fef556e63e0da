//! Field values and the invertible byte arithmetic used by the aggregation
//! transformations.
//!
//! The canonical representation of every field value is a byte string
//! ([`Value`]). Numeric fields additionally carry a [`TerminalKind`]
//! describing how to interpret those bytes as an unsigned integer.
//!
//! The arithmetic used by `SplitAdd`/`ConstAdd` and friends is **byte-wise
//! modulo 256** (no carry). This makes every operation trivially invertible
//! on values of any length — binary numbers and ASCII text alike — which is
//! the property the paper requires of all aggregation transformations
//! (τ⁻¹ ∘ τ = id).

use std::fmt;

/// Byte order of an unsigned-integer terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endian {
    /// Most significant byte first (network order).
    Big,
    /// Least significant byte first.
    Little,
}

/// Interpretation of a terminal field's bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TerminalKind {
    /// Raw bytes with no further interpretation.
    Bytes,
    /// Unsigned integer of `width` bytes in the given byte order.
    UInt { width: usize, endian: Endian },
    /// ASCII/UTF-8 text. Structurally identical to `Bytes`; kept distinct
    /// so generated code and diagnostics can render it as text.
    Ascii,
}

impl TerminalKind {
    /// Big-endian unsigned integer of `width` bytes.
    pub fn uint_be(width: usize) -> Self {
        TerminalKind::UInt { width, endian: Endian::Big }
    }

    /// Little-endian unsigned integer of `width` bytes.
    pub fn uint_le(width: usize) -> Self {
        TerminalKind::UInt { width, endian: Endian::Little }
    }

    /// Returns the fixed width implied by the kind, if any.
    pub fn implied_width(&self) -> Option<usize> {
        match self {
            TerminalKind::UInt { width, .. } => Some(*width),
            _ => None,
        }
    }

    /// True if the kind can carry a length/counter quantity.
    pub fn is_numeric(&self) -> bool {
        matches!(self, TerminalKind::UInt { .. })
    }
}

/// A field value: an owned byte string.
///
/// `Value` is deliberately a thin newtype over `Vec<u8>` so the rest of the
/// crate can attach protocol semantics without committing to a
/// representation.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Value(Vec<u8>);

impl Value {
    /// Creates an empty value.
    pub fn new() -> Self {
        Value(Vec::new())
    }

    /// Wraps a byte vector.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Value(bytes.into())
    }

    /// Encodes an unsigned integer according to `width`/`endian`.
    ///
    /// Returns `None` if `v` does not fit in `width` bytes.
    pub fn from_uint(v: u64, width: usize, endian: Endian) -> Option<Self> {
        if width == 0 || width > 8 {
            return None;
        }
        if width < 8 && v >= 1u64 << (8 * width) {
            return None;
        }
        let be = v.to_be_bytes();
        let mut out = be[8 - width..].to_vec();
        if endian == Endian::Little {
            out.reverse();
        }
        Some(Value(out))
    }

    /// Decodes the value as an unsigned integer.
    ///
    /// Returns `None` if the value is longer than 8 bytes.
    pub fn to_uint(&self, endian: Endian) -> Option<u64> {
        crate::plan::bytes_to_uint(&self.0, endian)
    }

    /// Borrows the underlying bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the value, returning the underlying bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the value has no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns a mirrored (byte-reversed) copy; its own inverse.
    pub fn mirrored(&self) -> Value {
        let mut v = self.0.clone();
        v.reverse();
        Value(v)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value(")?;
        if self.0.iter().all(|b| b.is_ascii_graphic() || *b == b' ') && !self.0.is_empty() {
            write!(f, "{:?}", String::from_utf8_lossy(&self.0))?;
        } else {
            for (i, b) in self.0.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{b:02x}")?;
            }
        }
        write!(f, ")")
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value(v)
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value(v.to_vec())
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value(v.as_bytes().to_vec())
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// The byte-wise operator used by arithmetic transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOp {
    /// Byte-wise addition modulo 256.
    Add,
    /// Byte-wise subtraction modulo 256.
    Sub,
    /// Byte-wise exclusive or.
    Xor,
}

impl ByteOp {
    /// The operator that undoes this one: `inverse(op)(op(a, b), b) == a`.
    pub fn inverse(self) -> ByteOp {
        match self {
            ByteOp::Add => ByteOp::Sub,
            ByteOp::Sub => ByteOp::Add,
            ByteOp::Xor => ByteOp::Xor,
        }
    }

    /// Short lowercase name, used in generated code and plan listings.
    pub fn name(self) -> &'static str {
        match self {
            ByteOp::Add => "add",
            ByteOp::Sub => "sub",
            ByteOp::Xor => "xor",
        }
    }
}

/// Applies `op` byte-wise: `out[i] = a[i] op b[i mod b.len()]`.
///
/// The right operand is cycled, so a short constant can transform a long
/// value (this is how `ConstAdd` handles variable-length fields). The output
/// always has the length of `a`.
///
/// An empty left operand yields an empty result without touching `b`.
///
/// # Panics
///
/// Panics if `a` is non-empty while `b` is empty (callers must validate
/// constants/partners first).
pub fn apply_op(op: ByteOp, a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() {
        return Vec::new();
    }
    assert!(!b.is_empty(), "right operand of a byte operation must not be empty");
    a.iter()
        .enumerate()
        .map(|(i, &x)| {
            let y = b[i % b.len()];
            match op {
                ByteOp::Add => x.wrapping_add(y),
                ByteOp::Sub => x.wrapping_sub(y),
                ByteOp::Xor => x ^ y,
            }
        })
        .collect()
}

/// Applies `op` to two [`Value`]s (right operand cycled).
pub fn apply_op_value(op: ByteOp, a: &Value, b: &Value) -> Value {
    Value(apply_op(op, a.as_bytes(), b.as_bytes()))
}

/// Where a `SplitCat` transformation cuts a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitAt {
    /// Cut after `n` bytes (static position; only valid on fixed-size
    /// fields).
    Byte(usize),
    /// Cut at `floor(len / 2)` — usable on fields whose plain length is
    /// recoverable at parse time.
    Half,
}

impl SplitAt {
    /// Resolves the cut position for a value of `len` bytes.
    pub fn position(self, len: usize) -> usize {
        match self {
            SplitAt::Byte(n) => n.min(len),
            SplitAt::Half => len / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_roundtrip_big_endian() {
        let v = Value::from_uint(0x1234, 2, Endian::Big).unwrap();
        assert_eq!(v.as_bytes(), &[0x12, 0x34]);
        assert_eq!(v.to_uint(Endian::Big), Some(0x1234));
    }

    #[test]
    fn uint_roundtrip_little_endian() {
        let v = Value::from_uint(0x1234, 2, Endian::Little).unwrap();
        assert_eq!(v.as_bytes(), &[0x34, 0x12]);
        assert_eq!(v.to_uint(Endian::Little), Some(0x1234));
    }

    #[test]
    fn uint_overflow_detected() {
        assert!(Value::from_uint(256, 1, Endian::Big).is_none());
        assert!(Value::from_uint(255, 1, Endian::Big).is_some());
        assert!(Value::from_uint(1, 0, Endian::Big).is_none());
        assert!(Value::from_uint(1, 9, Endian::Big).is_none());
    }

    #[test]
    fn uint_full_width() {
        let v = Value::from_uint(u64::MAX, 8, Endian::Big).unwrap();
        assert_eq!(v.to_uint(Endian::Big), Some(u64::MAX));
    }

    #[test]
    fn ops_are_invertible() {
        let a = b"hello world".as_slice();
        let k = b"\x03\x07".as_slice();
        for op in [ByteOp::Add, ByteOp::Sub, ByteOp::Xor] {
            let enc = apply_op(op, a, k);
            let dec = apply_op(op.inverse(), &enc, k);
            assert_eq!(dec, a, "{op:?} not inverted");
        }
    }

    #[test]
    fn op_cycles_short_operand() {
        let out = apply_op(ByteOp::Add, &[1, 1, 1, 1], &[1, 2]);
        assert_eq!(out, vec![2, 3, 2, 3]);
    }

    #[test]
    fn op_output_length_follows_left() {
        let out = apply_op(ByteOp::Xor, &[0xff; 3], &[0xff; 10]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "right operand")]
    fn op_empty_right_panics() {
        apply_op(ByteOp::Add, &[1], &[]);
    }

    #[test]
    fn split_add_paper_identity() {
        // Paper Table II: choose X1 random, X2 = X + X1; parse X = X2 - X1.
        let x = Value::from("payload");
        let x1 = Value::from_bytes(vec![9, 250, 3, 0, 77, 128, 255]);
        let x2 = apply_op_value(ByteOp::Add, &x, &x1);
        let back = apply_op_value(ByteOp::Sub, &x2, &x1);
        assert_eq!(back, x);
    }

    #[test]
    fn mirror_is_involutive() {
        let v = Value::from_bytes(vec![1, 2, 3, 4, 5]);
        assert_eq!(v.mirrored().mirrored(), v);
    }

    #[test]
    fn split_at_resolution() {
        assert_eq!(SplitAt::Byte(3).position(10), 3);
        assert_eq!(SplitAt::Byte(30).position(10), 10);
        assert_eq!(SplitAt::Half.position(9), 4);
        assert_eq!(SplitAt::Half.position(0), 0);
    }

    #[test]
    fn debug_renders_text_and_hex() {
        assert_eq!(format!("{:?}", Value::from("GET")), "Value(\"GET\")");
        let s = format!("{:?}", Value::from_bytes(vec![0x00, 0xff]));
        assert!(s.contains("00") && s.contains("ff"));
    }

    #[test]
    fn kind_helpers() {
        assert_eq!(TerminalKind::uint_be(2).implied_width(), Some(2));
        assert!(TerminalKind::uint_le(4).is_numeric());
        assert!(!TerminalKind::Bytes.is_numeric());
        assert_eq!(TerminalKind::Ascii.implied_width(), None);
    }
}
