//! Hand-written lexer for the specification language (the paper used Lex).
//!
//! Tokens borrow from the source: an identifier is a slice of it, and so
//! is a string literal without escapes; only a literal with escapes owns
//! its resolved bytes.

use std::borrow::Cow;

use crate::error::{ParseSpecError, Pos};

/// One lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// Token kind and payload.
    pub kind: TokenKind<'a>,
    /// Source position of the first character.
    pub pos: Pos,
}

/// Token kinds of the specification language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Integer literal (decimal or `0x` hexadecimal).
    Int(u64),
    /// String literal with escapes resolved.
    Str(Cow<'a, [u8]>),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier {s:?}"),
            TokenKind::Int(n) => format!("integer {n}"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::LBrace => "'{'".to_string(),
            TokenKind::RBrace => "'}'".to_string(),
            TokenKind::LParen => "'('".to_string(),
            TokenKind::RParen => "')'".to_string(),
            TokenKind::LBracket => "'['".to_string(),
            TokenKind::RBracket => "']'".to_string(),
            TokenKind::Semi => "';'".to_string(),
            TokenKind::Comma => "','".to_string(),
            TokenKind::Dot => "'.'".to_string(),
            TokenKind::Eq => "'='".to_string(),
            TokenKind::EqEq => "'=='".to_string(),
            TokenKind::NotEq => "'!='".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

/// Lexes a full specification source into tokens (ending with
/// [`TokenKind::Eof`]).
///
/// Supports `//` line comments and `/* */` block comments.
///
/// # Errors
///
/// Lexical errors carry the offending position.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseSpecError> {
    let bytes = src.as_bytes();
    // The bundled specs take 6–8 source bytes per token (names, keywords
    // and indentation), so one allocation holds the tokens of any
    // comparable spec; a denser one grows the vector as usual.
    let mut tokens = Vec::with_capacity(src.len() / 4 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! pos {
        () => {
            Pos { line, col }
        };
    }
    macro_rules! advance {
        ($n:expr) => {{
            for _ in 0..$n {
                if bytes[i] == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => advance!(1),
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    advance!(1);
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = pos!();
                advance!(2);
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(ParseSpecError::UnterminatedString { pos: start });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        advance!(2);
                        break;
                    }
                    advance!(1);
                }
            }
            '{' => push_simple(&mut tokens, TokenKind::LBrace, pos!(), || advance!(1)),
            '}' => push_simple(&mut tokens, TokenKind::RBrace, pos!(), || advance!(1)),
            '(' => push_simple(&mut tokens, TokenKind::LParen, pos!(), || advance!(1)),
            ')' => push_simple(&mut tokens, TokenKind::RParen, pos!(), || advance!(1)),
            '[' => push_simple(&mut tokens, TokenKind::LBracket, pos!(), || advance!(1)),
            ']' => push_simple(&mut tokens, TokenKind::RBracket, pos!(), || advance!(1)),
            ';' => push_simple(&mut tokens, TokenKind::Semi, pos!(), || advance!(1)),
            ',' => push_simple(&mut tokens, TokenKind::Comma, pos!(), || advance!(1)),
            '.' => push_simple(&mut tokens, TokenKind::Dot, pos!(), || advance!(1)),
            '=' => {
                let p = pos!();
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    advance!(2);
                    tokens.push(Token { kind: TokenKind::EqEq, pos: p });
                } else {
                    advance!(1);
                    tokens.push(Token { kind: TokenKind::Eq, pos: p });
                }
            }
            '!' => {
                let p = pos!();
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    advance!(2);
                    tokens.push(Token { kind: TokenKind::NotEq, pos: p });
                } else {
                    return Err(ParseSpecError::UnexpectedChar { pos: p, found: '!' });
                }
            }
            '"' => {
                let p = pos!();
                advance!(1);
                let start = i;
                // The literal's bytes so far, borrowed until an escape.
                let mut out = Cow::Borrowed(&bytes[start..start]);
                loop {
                    if i >= bytes.len() {
                        return Err(ParseSpecError::UnterminatedString { pos: p });
                    }
                    match bytes[i] {
                        b'"' => {
                            advance!(1);
                            break;
                        }
                        b'\\' => {
                            if i + 1 >= bytes.len() {
                                return Err(ParseSpecError::UnterminatedString { pos: p });
                            }
                            let esc = bytes[i + 1];
                            let resolved = match esc {
                                b'r' => b'\r',
                                b'n' => b'\n',
                                b't' => b'\t',
                                b'0' => 0,
                                b'\\' => b'\\',
                                b'"' => b'"',
                                b'x' => {
                                    if i + 3 >= bytes.len() {
                                        return Err(ParseSpecError::BadEscape {
                                            pos: p,
                                            escape: "x".into(),
                                        });
                                    }
                                    let hex = &src[i + 2..i + 4];
                                    let v = u8::from_str_radix(hex, 16).map_err(|_| {
                                        ParseSpecError::BadEscape {
                                            pos: p,
                                            escape: format!("x{hex}"),
                                        }
                                    })?;
                                    advance!(2);
                                    v
                                }
                                other => {
                                    return Err(ParseSpecError::BadEscape {
                                        pos: p,
                                        escape: (other as char).to_string(),
                                    })
                                }
                            };
                            out.to_mut().push(resolved);
                            advance!(2);
                        }
                        b => {
                            match &mut out {
                                Cow::Borrowed(run) => *run = &bytes[start..i + 1],
                                Cow::Owned(own) => own.push(b),
                            }
                            advance!(1);
                        }
                    }
                }
                tokens.push(Token { kind: TokenKind::Str(out), pos: p });
            }
            '0'..='9' => {
                let p = pos!();
                let start = i;
                if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] == b'x' || bytes[i + 1] == b'X')
                {
                    advance!(2);
                    while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                        advance!(1);
                    }
                    let text = &src[start + 2..i];
                    let v = u64::from_str_radix(text, 16).map_err(|_| {
                        ParseSpecError::BadNumber { pos: p, text: src[start..i].to_string() }
                    })?;
                    tokens.push(Token { kind: TokenKind::Int(v), pos: p });
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        advance!(1);
                    }
                    let text = &src[start..i];
                    let v: u64 = text.parse().map_err(|_| ParseSpecError::BadNumber {
                        pos: p,
                        text: text.to_string(),
                    })?;
                    tokens.push(Token { kind: TokenKind::Int(v), pos: p });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let p = pos!();
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    advance!(1);
                }
                tokens.push(Token { kind: TokenKind::Ident(&src[start..i]), pos: p });
            }
            other => return Err(ParseSpecError::UnexpectedChar { pos: pos!(), found: other }),
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, pos: pos!() });
    Ok(tokens)
}

fn push_simple<'a>(
    tokens: &mut Vec<Token<'a>>,
    kind: TokenKind<'a>,
    pos: Pos,
    advance: impl FnOnce(),
) {
    advance();
    tokens.push(Token { kind, pos });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_punctuation_and_idents() {
        let ks = kinds("message M { u16 x; }");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("message"),
                TokenKind::Ident("M"),
                TokenKind::LBrace,
                TokenKind::Ident("u16"),
                TokenKind::Ident("x"),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("10 0x1F 0"),
            vec![TokenKind::Int(10), TokenKind::Int(0x1F), TokenKind::Int(0), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_strings_with_escapes() {
        let ks = kinds(r#""a\r\n" "\x00\xff" "sp ace""#);
        assert_eq!(ks[0], TokenKind::Str(b"a\r\n".as_slice().into()));
        assert_eq!(ks[1], TokenKind::Str(vec![0x00, 0xff].into()));
        // Without escapes the literal borrows the source.
        assert!(matches!(&ks[2], TokenKind::Str(Cow::Borrowed(b"sp ace"))));
    }

    #[test]
    fn lex_comments() {
        let ks = kinds("a // comment\n b /* multi\nline */ c");
        assert_eq!(ks.len(), 4); // a b c eof
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("== = !="),
            vec![TokenKind::EqEq, TokenKind::Eq, TokenKind::NotEq, TokenKind::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn lex_errors() {
        assert!(matches!(lex("\"abc"), Err(ParseSpecError::UnterminatedString { .. })));
        assert!(matches!(lex("\"\\q\""), Err(ParseSpecError::BadEscape { .. })));
        assert!(matches!(lex("#"), Err(ParseSpecError::UnexpectedChar { .. })));
        assert!(matches!(lex("!x"), Err(ParseSpecError::UnexpectedChar { .. })));
    }

    #[test]
    fn describe_is_informative() {
        assert!(TokenKind::Ident("x").describe().contains('x'));
        assert!(TokenKind::Eof.describe().contains("end"));
    }
}
