//! Message format inference from aligned message groups.
//!
//! Given a set of messages believed to be of the same type, a progressive
//! multiple alignment produces a column profile; runs of *static* columns
//! (same byte in every message) become inferred constant fields, runs of
//! *variable* columns become inferred data fields. This is the format
//! recovery step a Netzob-style analyst performs (paper §VII-D).

use crate::align::{needleman_wunsch, ScoreParams};

/// One column of the multiple alignment: the byte (or gap) each message
/// has at this position.
pub type Column = Vec<Option<u8>>;

/// A multiple alignment profile: `columns[c][m]` is message `m`'s byte at
/// column `c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Alignment columns.
    pub columns: Vec<Column>,
    /// Number of messages aligned.
    pub message_count: usize,
}

/// An inferred field of the message format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferredField {
    /// All messages carry these exact bytes here.
    Static(Vec<u8>),
    /// Messages differ here; lengths observed in `min_len..=max_len`.
    Variable {
        /// Shortest observed extent (gaps excluded).
        min_len: usize,
        /// Longest observed extent.
        max_len: usize,
    },
}

/// Progressively aligns `messages` into a column profile.
///
/// Each message is aligned against the running consensus (majority byte
/// per column); insertions extend the profile with gap-padded columns.
pub fn multiple_alignment(messages: &[&[u8]], p: ScoreParams) -> Profile {
    let mut columns: Vec<Column> = Vec::new();
    let mut aligned = 0usize;
    for &msg in messages {
        if aligned == 0 {
            for &b in msg {
                columns.push(vec![Some(b)]);
            }
            aligned = 1;
            continue;
        }
        let consensus: Vec<u8> = columns.iter().map(majority).collect();
        let al = needleman_wunsch(&consensus, msg, p);
        let mut new_columns: Vec<Column> = Vec::with_capacity(al.len());
        let mut old_idx = 0usize;
        for (ca, cb) in al.a.iter().zip(&al.b) {
            match ca {
                Some(_) => {
                    // Existing column: append the new message's byte/gap.
                    let mut col = columns[old_idx].clone();
                    col.push(*cb);
                    new_columns.push(col);
                    old_idx += 1;
                }
                None => {
                    // Insertion: all previous messages have a gap here.
                    let mut col = vec![None; aligned];
                    col.push(*cb);
                    new_columns.push(col);
                }
            }
        }
        // Consensus deletions at the tail (shouldn't happen with global
        // alignment, but keep the profile consistent).
        while old_idx < columns.len() {
            let mut col = columns[old_idx].clone();
            col.push(None);
            new_columns.push(col);
            old_idx += 1;
        }
        columns = new_columns;
        aligned += 1;
    }
    Profile { columns, message_count: aligned }
}

fn majority(col: &Column) -> u8 {
    let mut counts = [0u32; 256];
    for b in col.iter().flatten() {
        counts[*b as usize] += 1;
    }
    counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(b, _)| b as u8).unwrap_or(0)
}

impl Profile {
    /// True if every message has the same (non-gap) byte at column `c`.
    pub fn is_static_column(&self, c: usize) -> bool {
        let col = &self.columns[c];
        let mut it = col.iter();
        match it.next() {
            Some(Some(first)) => it.all(|b| b.as_ref() == Some(first)),
            _ => false,
        }
    }

    /// Fraction of static columns — the "inferrable structure" score.
    /// High for a plain protocol type (keywords, opcodes, padding), low
    /// for obfuscated traffic (random shares, shuffled fields).
    pub fn static_fraction(&self) -> f64 {
        if self.columns.is_empty() {
            return 0.0;
        }
        let s = (0..self.columns.len()).filter(|&c| self.is_static_column(c)).count();
        s as f64 / self.columns.len() as f64
    }

    /// Segments the profile into inferred fields: maximal runs of static
    /// columns become [`InferredField::Static`], the rest
    /// [`InferredField::Variable`].
    pub fn fields(&self) -> Vec<InferredField> {
        let mut out = Vec::new();
        let mut c = 0;
        while c < self.columns.len() {
            if self.is_static_column(c) {
                let mut bytes = Vec::new();
                while c < self.columns.len() && self.is_static_column(c) {
                    bytes.push(self.columns[c][0].expect("static column has a byte"));
                    c += 1;
                }
                out.push(InferredField::Static(bytes));
            } else {
                let start = c;
                while c < self.columns.len() && !self.is_static_column(c) {
                    c += 1;
                }
                // Per-message extent of this run, gaps excluded.
                let (mut min_len, mut max_len) = (usize::MAX, 0usize);
                for m in 0..self.message_count {
                    let len = (start..c).filter(|&cc| self.columns[cc][m].is_some()).count();
                    min_len = min_len.min(len);
                    max_len = max_len.max(len);
                }
                out.push(InferredField::Variable {
                    min_len: if min_len == usize::MAX { 0 } else { min_len },
                    max_len,
                });
            }
        }
        out
    }

    /// Occurrences of `needle` inside inferred static fields — used to
    /// test whether a known delimiter (`\r\n`, `": "`) is still visible to
    /// the analyst.
    pub fn static_needle_count(&self, needle: &[u8]) -> usize {
        self.fields()
            .iter()
            .filter_map(|f| match f {
                InferredField::Static(bytes) => Some(bytes),
                _ => None,
            })
            .map(|bytes| {
                if bytes.len() < needle.len() {
                    0
                } else {
                    bytes.windows(needle.len()).filter(|w| *w == needle).count()
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(msgs: &[&[u8]]) -> Profile {
        multiple_alignment(msgs, ScoreParams::default())
    }

    #[test]
    fn identical_messages_are_fully_static() {
        let p = profile(&[b"GET /", b"GET /", b"GET /"]);
        assert_eq!(p.static_fraction(), 1.0);
        assert_eq!(p.fields(), vec![InferredField::Static(b"GET /".to_vec())]);
    }

    #[test]
    fn common_prefix_detected() {
        let p = profile(&[b"GET /a", b"GET /b", b"GET /c"]);
        let fields = p.fields();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0], InferredField::Static(b"GET /".to_vec()));
        assert!(matches!(fields[1], InferredField::Variable { min_len: 1, max_len: 1 }));
    }

    #[test]
    fn variable_length_field_measured() {
        let p = profile(&[b"ab:x:", b"ab:yyy:", b"ab:zz:"]);
        let fields = p.fields();
        // Static "ab:" then variable then static ":".
        assert_eq!(fields[0], InferredField::Static(b"ab:".to_vec()));
        match &fields[1] {
            InferredField::Variable { min_len, max_len } => {
                assert_eq!(*min_len, 1);
                assert_eq!(*max_len, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn static_needle_counting() {
        let p = profile(&[b"a\r\nb\r\n", b"a\r\nb\r\n"]);
        assert_eq!(p.static_needle_count(b"\r\n"), 2);
        assert_eq!(p.static_needle_count(b"xx"), 0);
    }

    #[test]
    fn random_bytes_have_low_static_fraction() {
        // Two unrelated random-ish strings share few columns.
        let p = profile(&[b"\x12\x54\x9a\xde\x03\x77", b"\xb1\x02\x45\x99\xfe\x10"]);
        assert!(p.static_fraction() < 0.35, "{}", p.static_fraction());
    }

    #[test]
    fn profile_counts_messages() {
        let p = profile(&[b"aa", b"ab", b"ac", b"ad"]);
        assert_eq!(p.message_count, 4);
    }

    #[test]
    fn empty_and_single() {
        let p = profile(&[]);
        assert_eq!(p.message_count, 0);
        assert_eq!(p.static_fraction(), 0.0);
        let p1 = profile(&[b"xy"]);
        assert_eq!(p1.message_count, 1);
        assert_eq!(p1.static_fraction(), 1.0);
    }
}
