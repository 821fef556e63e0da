//! Recursive-descent parser for the specification language (the paper used
//! Yacc).
//!
//! Grammar (EBNF):
//!
//! ```text
//! spec      := message+
//! message   := "message" IDENT "{" field* "}"
//! field     := terminal | seq | optional | repeat | tabular
//! terminal  := type IDENT [boundary] ["=" auto] ";"
//! type      := "u8".."u64" | "u16le" | "u32le" | "u64le"
//!            | "bytes" ["(" INT ")"] | "ascii"
//! boundary  := "until" STRING | "sized_by" ref | "rest"
//! auto      := ("len" | "count") "(" ref ")" | "const" lit
//! seq       := "seq" IDENT ["sized_by" ref | "rest"] "{" field* "}"
//! optional  := "optional" IDENT "if" cond "{" field* "}"
//! cond      := ref ("==" lit | "!=" lit | "in" "[" lit {"," lit} "]")
//! repeat    := "repeat" IDENT ("until" STRING | "rest") "{" field* "}"
//! tabular   := "tabular" IDENT "count_by" ref "{" field* "}"
//! ref       := IDENT {"." IDENT}
//! lit       := INT | STRING
//! ```

use std::borrow::Cow;

use protoobf_core::Endian;

use crate::ast::*;
use crate::error::{ParseSpecError, Pos};
use crate::token::{lex, Token, TokenKind};

/// Parses specification source text into an AST.
///
/// # Errors
///
/// Lexical and syntactic errors with source positions.
pub fn parse(src: &str) -> Result<SpecAst<'_>, ParseSpecError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, at: 0 };
    let mut messages = Vec::new();
    while !p.check_eof() {
        messages.push(p.message()?);
    }
    if messages.is_empty() {
        return Err(ParseSpecError::NoMessages);
    }
    Ok(SpecAst { messages })
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    at: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.at]
    }

    fn pos(&self) -> Pos {
        self.peek().pos
    }

    fn check_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn bump(&mut self) {
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
    }

    fn unexpected(&self, expected: &str) -> ParseSpecError {
        ParseSpecError::Unexpected {
            pos: self.pos(),
            expected: expected.to_string(),
            found: self.peek().kind.describe(),
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind<'_>, what: &str) -> Result<(), ParseSpecError> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseSpecError> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// Consumes an identifier iff it matches `kw`.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek().kind, TokenKind::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseSpecError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {kw:?}")))
        }
    }

    fn string(&mut self, what: &str) -> Result<Cow<'a, [u8]>, ParseSpecError> {
        match self.peek().kind {
            TokenKind::Str(_) => Ok(self.take_str()),
            _ => Err(self.unexpected(what)),
        }
    }

    /// Moves the current string literal out of its token (consumed, so
    /// never read again) and steps past it.
    fn take_str(&mut self) -> Cow<'a, [u8]> {
        let kind = std::mem::replace(&mut self.tokens[self.at].kind, TokenKind::Eof);
        self.bump();
        match kind {
            TokenKind::Str(s) => s,
            _ => unreachable!("the current token is a string literal"),
        }
    }

    fn int(&mut self, what: &str) -> Result<u64, ParseSpecError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn reference(&mut self) -> Result<RefAst<'a>, ParseSpecError> {
        let pos = self.pos();
        let mut parts = vec![self.ident("field reference")?];
        while matches!(self.peek().kind, TokenKind::Dot) {
            self.bump();
            parts.push(self.ident("field reference segment")?);
        }
        Ok(RefAst { parts, pos })
    }

    fn message(&mut self) -> Result<MessageAst<'a>, ParseSpecError> {
        let pos = self.pos();
        self.expect_keyword("message")?;
        let name = self.ident("message name")?;
        let fields = self.block()?;
        Ok(MessageAst { name, fields, pos })
    }

    fn block(&mut self) -> Result<Vec<FieldAst<'a>>, ParseSpecError> {
        self.expect_kind(&TokenKind::LBrace, "'{'")?;
        let mut fields = Vec::new();
        while !matches!(self.peek().kind, TokenKind::RBrace) {
            if self.check_eof() {
                return Err(self.unexpected("'}'"));
            }
            fields.push(self.field()?);
        }
        self.bump(); // consume '}'
        Ok(fields)
    }

    fn field(&mut self) -> Result<FieldAst<'a>, ParseSpecError> {
        let pos = self.pos();
        let head = match self.peek().kind {
            TokenKind::Ident(s) => s,
            _ => return Err(self.unexpected("a field declaration")),
        };
        match head {
            "seq" => {
                self.bump();
                let name = self.ident("sequence name")?;
                let window = if self.eat_keyword("sized_by") {
                    Some(WindowAst::SizedBy(self.reference()?))
                } else if self.eat_keyword("rest") {
                    Some(WindowAst::Rest)
                } else {
                    None
                };
                let fields = self.block()?;
                Ok(FieldAst::Seq { name, window, fields, pos })
            }
            "optional" => {
                self.bump();
                let name = self.ident("optional name")?;
                self.expect_keyword("if")?;
                let cond = self.condition()?;
                let fields = self.block()?;
                Ok(FieldAst::Optional { name, cond, fields, pos })
            }
            "repeat" => {
                self.bump();
                let name = self.ident("repetition name")?;
                let stop = if self.eat_keyword("until") {
                    StopAst::Until(self.string("terminator string")?)
                } else if self.eat_keyword("rest") {
                    StopAst::Rest
                } else {
                    return Err(self.unexpected("'until \"…\"' or 'rest'"));
                };
                let fields = self.block()?;
                Ok(FieldAst::Repeat { name, stop, fields, pos })
            }
            "tabular" => {
                self.bump();
                let name = self.ident("tabular name")?;
                self.expect_keyword("count_by")?;
                let counter = self.reference()?;
                let fields = self.block()?;
                Ok(FieldAst::Tabular { name, counter, fields, pos })
            }
            _ => self.terminal(pos),
        }
    }

    fn terminal(&mut self, pos: Pos) -> Result<FieldAst<'a>, ParseSpecError> {
        let ty = self.type_ast()?;
        let name = self.ident("field name")?;
        let boundary = if self.eat_keyword("until") {
            Some(BoundaryAst::Until(self.string("delimiter string")?))
        } else if self.eat_keyword("sized_by") {
            Some(BoundaryAst::SizedBy(self.reference()?))
        } else if self.eat_keyword("rest") {
            Some(BoundaryAst::Rest)
        } else {
            None
        };
        let auto = if matches!(self.peek().kind, TokenKind::Eq) {
            self.bump();
            if self.eat_keyword("len") {
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let r = self.reference()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                Some(AutoAst::Len(r))
            } else if self.eat_keyword("count") {
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let r = self.reference()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                Some(AutoAst::Count(r))
            } else if self.eat_keyword("const") {
                Some(AutoAst::Const(self.literal()?))
            } else {
                return Err(self.unexpected("'len(…)', 'count(…)' or 'const <literal>'"));
            }
        } else {
            None
        };
        self.expect_kind(&TokenKind::Semi, "';'")?;
        Ok(FieldAst::Terminal { name, ty, boundary, auto, pos })
    }

    fn type_ast(&mut self) -> Result<TypeAst, ParseSpecError> {
        let name = self.ident("a type")?;
        let uint = |width, endian| Ok(TypeAst::UInt { width, endian });
        match name {
            "u8" => uint(1, Endian::Big),
            "u16" | "u16be" => uint(2, Endian::Big),
            "u24" | "u24be" => uint(3, Endian::Big),
            "u32" | "u32be" => uint(4, Endian::Big),
            "u64" | "u64be" => uint(8, Endian::Big),
            "u16le" => uint(2, Endian::Little),
            "u24le" => uint(3, Endian::Little),
            "u32le" => uint(4, Endian::Little),
            "u64le" => uint(8, Endian::Little),
            "ascii" => Ok(TypeAst::Ascii),
            "bytes" => {
                if matches!(self.peek().kind, TokenKind::LParen) {
                    self.bump();
                    let n = self.int("byte count")? as usize;
                    self.expect_kind(&TokenKind::RParen, "')'")?;
                    Ok(TypeAst::Bytes(Some(n)))
                } else {
                    Ok(TypeAst::Bytes(None))
                }
            }
            other => Err(ParseSpecError::Unexpected {
                pos: self.tokens[self.at - 1].pos,
                expected: "a type (u8..u64, u16le…, bytes, ascii)".into(),
                found: format!("identifier {other:?}"),
            }),
        }
    }

    fn condition(&mut self) -> Result<CondAst<'a>, ParseSpecError> {
        let subject = self.reference()?;
        let (op, values) = match self.peek().kind {
            TokenKind::EqEq => {
                self.bump();
                (CondOp::Eq, vec![self.literal()?])
            }
            TokenKind::NotEq => {
                self.bump();
                (CondOp::Ne, vec![self.literal()?])
            }
            TokenKind::Ident("in") => {
                self.bump();
                self.expect_kind(&TokenKind::LBracket, "'['")?;
                let mut values = vec![self.literal()?];
                while matches!(self.peek().kind, TokenKind::Comma) {
                    self.bump();
                    values.push(self.literal()?);
                }
                self.expect_kind(&TokenKind::RBracket, "']'")?;
                (CondOp::In, values)
            }
            _ => return Err(self.unexpected("'==', '!=' or 'in'")),
        };
        Ok(CondAst { subject, op, values })
    }

    fn literal(&mut self) -> Result<LitAst<'a>, ParseSpecError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(LitAst::Int(v))
            }
            TokenKind::Str(_) => Ok(LitAst::Str(self.take_str())),
            _ => Err(self.unexpected("an integer or string literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODBUS_MINI: &str = r#"
        // A Modbus-like message.
        message Modbus {
            u16 transaction_id;
            u16 protocol_id;
            u16 length = len(pdu);
            seq pdu {
                u8 unit_id;
                u8 function;
                optional read if function == 0x03 {
                    u16 start;
                    u16 quantity;
                }
            }
        }
    "#;

    #[test]
    fn parse_modbus_mini() {
        let ast = parse(MODBUS_MINI).unwrap();
        assert_eq!(ast.messages.len(), 1);
        let m = &ast.messages[0];
        assert_eq!(m.name, "Modbus");
        assert_eq!(m.fields.len(), 4);
        match &m.fields[2] {
            FieldAst::Terminal { name, auto: Some(AutoAst::Len(r)), .. } => {
                assert_eq!(*name, "length");
                assert_eq!(r.text(), "pdu");
            }
            other => panic!("expected auto length, got {other:?}"),
        }
        match &m.fields[3] {
            FieldAst::Seq { fields, .. } => {
                assert!(matches!(&fields[2], FieldAst::Optional { .. }));
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn parse_all_terminal_forms() {
        let src = r#"
            message T {
                u8 a;
                u32le b;
                bytes(4) c;
                ascii d until " ";
                bytes e sized_by a;
                bytes f rest;
            }
        "#;
        let ast = parse(src).unwrap();
        assert_eq!(ast.messages[0].fields.len(), 6);
        match &ast.messages[0].fields[3] {
            FieldAst::Terminal { boundary: Some(BoundaryAst::Until(d)), .. } => {
                assert_eq!(d.as_ref(), b" ");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_repeat_and_tabular() {
        let src = r#"
            message T {
                u8 n;
                tabular vals count_by n { u16 v; }
                repeat hdrs until "\r\n" {
                    ascii name until ": ";
                    ascii value until "\r\n";
                }
            }
        "#;
        let ast = parse(src).unwrap();
        match &ast.messages[0].fields[1] {
            FieldAst::Tabular { counter, fields, .. } => {
                assert_eq!(counter.text(), "n");
                assert_eq!(fields.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        match &ast.messages[0].fields[2] {
            FieldAst::Repeat { stop: StopAst::Until(t), fields, .. } => {
                assert_eq!(t.as_ref(), b"\r\n");
                assert_eq!(fields.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_in_condition() {
        let src = r#"
            message T {
                u8 f;
                optional body if f in [1, 2, 0x10] { u8 x; }
            }
        "#;
        let ast = parse(src).unwrap();
        match &ast.messages[0].fields[1] {
            FieldAst::Optional { cond, .. } => {
                assert_eq!(cond.op, CondOp::In);
                assert_eq!(cond.values.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_string_condition() {
        let src = r#"
            message T {
                ascii method until " ";
                optional body if method == "POST" { bytes b rest; }
            }
        "#;
        let ast = parse(src).unwrap();
        match &ast.messages[0].fields[1] {
            FieldAst::Optional { cond, .. } => {
                assert_eq!(cond.values, vec![LitAst::Str(b"POST".as_slice().into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_multiple_messages() {
        let src = "message A { u8 x; } message B { u8 y; }";
        let ast = parse(src).unwrap();
        assert_eq!(ast.messages.len(), 2);
    }

    #[test]
    fn syntax_errors_have_positions() {
        let err = parse("message M { u16 ; }").unwrap_err();
        match err {
            ParseSpecError::Unexpected { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("{other:?}"),
        }
        assert!(parse("").is_err());
        assert!(parse("message M { bogus x; }").is_err());
        assert!(parse("message M { u8 x }").is_err());
        assert!(parse("message M { repeat r { u8 x; } }").is_err());
    }

    #[test]
    fn dotted_references() {
        let src = r#"
            message T {
                seq head { u8 n; }
                bytes data sized_by head.n;
            }
        "#;
        let ast = parse(src).unwrap();
        match &ast.messages[0].fields[1] {
            FieldAst::Terminal { boundary: Some(BoundaryAst::SizedBy(r)), .. } => {
                assert_eq!(r.parts, vec!["head", "n"]);
            }
            other => panic!("{other:?}"),
        }
    }
}
