//! Lowering: specification AST → validated [`FormatGraph`].
//!
//! Boundary, counter and condition references resolve against fields
//! declared *earlier* (the backward-reference rule the parser will rely
//! on); auto-computation targets (`= len(x)`, `= count(x)`) may point
//! forward and are patched in after the whole tree is built.
//!
//! References resolve against the declarations made so far, each of which
//! knows its name and the declaration that prefixes its dotted path: a
//! plain name must name exactly one of them, a dotted path must spell the
//! chain of names from the top level down. Nothing is hashed or joined.

use protoobf_core::graph::{
    AutoValue, Boundary, Condition, FormatGraph, GraphBuilder, NodeId, Predicate, StopRule,
};
use protoobf_core::{TerminalKind, Value};

use crate::ast::*;
use crate::error::{ParseSpecError, Pos};

/// Lowers one message declaration to a validated format graph.
///
/// # Errors
///
/// Unresolved/ambiguous references, inconsistent declarations, or graph
/// validation failures.
pub fn lower(message: &MessageAst<'_>) -> Result<FormatGraph, ParseSpecError> {
    let mut lw = Lowerer {
        builder: GraphBuilder::new(message.name),
        decls: Vec::new(),
        pending_autos: Vec::new(),
    };
    let root = lw.builder.root_sequence(message.name, Boundary::End);
    lw.add_fields(root, None, &message.fields)?;
    let pending = std::mem::take(&mut lw.pending_autos);
    for (field, auto, pos) in pending {
        let av = match auto {
            AutoAst::Len(r) => AutoValue::LengthOf(lw.resolve(r)?),
            AutoAst::Count(r) => AutoValue::CounterOf(lw.resolve(r)?),
            AutoAst::Const(lit) => AutoValue::Literal(lw.encode_literal(field, lit, pos)?),
        };
        lw.builder.set_auto(field, av);
    }
    Ok(lw.builder.build()?)
}

/// One declared node, as references see it.
struct Decl<'a> {
    /// The declared name.
    name: &'a str,
    /// The declaration whose dotted path prefixes this one's (`None` at
    /// the top level, under the message).
    prefix: Option<usize>,
    /// The node declared.
    id: NodeId,
    /// The terminal kind of a terminal, for condition-literal encoding
    /// (the builder does not expose nodes before `build()`).
    kind: Option<TerminalKind>,
}

struct Lowerer<'s, 'a> {
    builder: GraphBuilder,
    /// Every declaration so far, in declaration order.
    decls: Vec<Decl<'a>>,
    pending_autos: Vec<(NodeId, &'s AutoAst<'a>, Pos)>,
}

impl<'s, 'a> Lowerer<'s, 'a> {
    /// Records the declaration of `id` and returns its index, the prefix
    /// of the declarations inside it.
    fn register(
        &mut self,
        prefix: Option<usize>,
        name: &'a str,
        id: NodeId,
        kind: Option<TerminalKind>,
    ) -> usize {
        self.decls.push(Decl { name, prefix, id, kind });
        self.decls.len() - 1
    }

    fn resolve(&self, r: &RefAst<'_>) -> Result<NodeId, ParseSpecError> {
        if let [name] = r.parts[..] {
            let mut named = self.decls.iter().filter(|d| d.name == name);
            return match (named.next(), named.next()) {
                (Some(one), None) => Ok(one.id),
                (None, _) => Err(ParseSpecError::UnknownReference { pos: r.pos, name: r.text() }),
                (Some(_), Some(_)) => {
                    Err(ParseSpecError::AmbiguousReference { pos: r.pos, name: r.text() })
                }
            };
        }
        // Sibling names are checked unique only when the graph is built;
        // until then the last declaration at a path is the one it names.
        self.decls
            .iter()
            .rev()
            .find(|d| self.spells(d, &r.parts))
            .map(|d| d.id)
            .ok_or_else(|| ParseSpecError::UnknownReference { pos: r.pos, name: r.text() })
    }

    /// True if `parts` is the dotted path of `decl`.
    fn spells(&self, decl: &Decl<'_>, parts: &[&str]) -> bool {
        let mut at = Some(decl);
        for &part in parts.iter().rev() {
            match at {
                Some(d) if d.name == part => at = d.prefix.map(|p| &self.decls[p]),
                _ => return false,
            }
        }
        at.is_none()
    }

    fn add_fields(
        &mut self,
        parent: NodeId,
        prefix: Option<usize>,
        fields: &'s [FieldAst<'a>],
    ) -> Result<(), ParseSpecError> {
        for f in fields {
            self.add_field(parent, prefix, f)?;
        }
        Ok(())
    }

    fn add_field(
        &mut self,
        parent: NodeId,
        prefix: Option<usize>,
        field: &'s FieldAst<'a>,
    ) -> Result<NodeId, ParseSpecError> {
        match field {
            FieldAst::Terminal { name, ty, boundary, auto, pos } => {
                let (kind, bnd) = self.terminal_parts(ty, boundary.as_ref(), *pos)?;
                let id = self.builder.terminal(parent, *name, kind.clone(), bnd);
                self.register(prefix, name, id, Some(kind));
                if let Some(a) = auto {
                    self.pending_autos.push((id, a, *pos));
                }
                Ok(id)
            }
            FieldAst::Seq { name, window, fields, pos: _ } => {
                let bnd = match window {
                    None => Boundary::Delegated,
                    Some(WindowAst::Rest) => Boundary::End,
                    Some(WindowAst::SizedBy(r)) => Boundary::Length(self.resolve(r)?),
                };
                let id = self.builder.sequence(parent, *name, bnd);
                let path = self.register(prefix, name, id, None);
                self.add_fields(id, Some(path), fields)?;
                Ok(id)
            }
            FieldAst::Optional { name, cond, fields, pos } => {
                let subject = self.resolve(&cond.subject)?;
                let condition = self.condition(subject, cond, *pos)?;
                let id = self.builder.optional(parent, *name, condition);
                let path = self.register(prefix, name, id, None);
                self.add_element(id, path, name, fields, *pos, true)?;
                Ok(id)
            }
            FieldAst::Repeat { name, stop, fields, pos } => {
                let (stop_rule, bnd) = match stop {
                    StopAst::Until(t) => (StopRule::Terminator(t.to_vec()), Boundary::Delegated),
                    StopAst::Rest => (StopRule::Exhausted, Boundary::End),
                };
                let id = self.builder.repetition(parent, *name, stop_rule, bnd);
                let path = self.register(prefix, name, id, None);
                self.add_element(id, path, name, fields, *pos, false)?;
                Ok(id)
            }
            FieldAst::Tabular { name, counter, fields, pos } => {
                let c = self.resolve(counter)?;
                let id = self.builder.tabular(parent, *name, c);
                let path = self.register(prefix, name, id, None);
                self.add_element(id, path, name, fields, *pos, false)?;
                Ok(id)
            }
        }
    }

    /// Adds the body of a wrapper node: a single declared field becomes the
    /// child directly; several fields are wrapped in an implicit sequence
    /// (named `body` for optionals, `item` for repetitions/tabulars).
    fn add_element(
        &mut self,
        wrapper: NodeId,
        path: usize,
        name: &str,
        fields: &'s [FieldAst<'a>],
        pos: Pos,
        optional: bool,
    ) -> Result<(), ParseSpecError> {
        match fields {
            [] => Err(ParseSpecError::BadDeclaration {
                pos,
                reason: format!("{name:?} must declare at least one field"),
            }),
            [single] => {
                self.add_field(wrapper, Some(path), single)?;
                Ok(())
            }
            many => {
                let elem_name = if optional { "body" } else { "item" };
                let elem = self.builder.sequence(wrapper, elem_name, Boundary::Delegated);
                let elem_path = self.register(Some(path), elem_name, elem, None);
                self.add_fields(elem, Some(elem_path), many)?;
                Ok(())
            }
        }
    }

    fn terminal_parts(
        &self,
        ty: &TypeAst,
        boundary: Option<&BoundaryAst<'_>>,
        pos: Pos,
    ) -> Result<(TerminalKind, Boundary), ParseSpecError> {
        match ty {
            TypeAst::UInt { width, endian } => {
                if boundary.is_some() {
                    return Err(ParseSpecError::BadDeclaration {
                        pos,
                        reason: "sized integers cannot carry boundary annotations".into(),
                    });
                }
                Ok((TerminalKind::UInt { width: *width, endian: *endian }, Boundary::Fixed(*width)))
            }
            TypeAst::Bytes(Some(n)) => {
                if boundary.is_some() {
                    return Err(ParseSpecError::BadDeclaration {
                        pos,
                        reason: "fixed-size bytes cannot carry boundary annotations".into(),
                    });
                }
                Ok((TerminalKind::Bytes, Boundary::Fixed(*n)))
            }
            TypeAst::Bytes(None) | TypeAst::Ascii => {
                let kind = if matches!(ty, TypeAst::Ascii) {
                    TerminalKind::Ascii
                } else {
                    TerminalKind::Bytes
                };
                let bnd = match boundary {
                    Some(BoundaryAst::Until(d)) => Boundary::Delimited(d.to_vec()),
                    Some(BoundaryAst::SizedBy(r)) => Boundary::Length(self.resolve(r)?),
                    Some(BoundaryAst::Rest) => Boundary::End,
                    None => {
                        return Err(ParseSpecError::BadDeclaration {
                            pos,
                            reason: "variable-size fields need 'until', 'sized_by' or 'rest'"
                                .into(),
                        })
                    }
                };
                Ok((kind, bnd))
            }
        }
    }

    fn condition(
        &self,
        subject: NodeId,
        cond: &CondAst<'_>,
        pos: Pos,
    ) -> Result<Condition, ParseSpecError> {
        let mut values = cond.values.iter().map(|lit| self.encode_literal(subject, lit, pos));
        let predicate = match cond.op {
            CondOp::In => Predicate::OneOf(values.collect::<Result<_, _>>()?),
            op => {
                // The parser gives `==` and `!=` one literal; any further
                // one is still encoded, for its error.
                let value = values.next().expect("one literal")?;
                values.try_for_each(|v| v.map(drop))?;
                match op {
                    CondOp::Eq => Predicate::Equals(value),
                    _ => Predicate::NotEquals(value),
                }
            }
        };
        Ok(Condition { subject, predicate })
    }

    fn encode_literal(
        &self,
        subject: NodeId,
        lit: &LitAst<'_>,
        pos: Pos,
    ) -> Result<Value, ParseSpecError> {
        let kind = self.subject_kind(subject).ok_or_else(|| ParseSpecError::BadDeclaration {
            pos,
            reason: "condition subject must be a terminal field".into(),
        })?;
        match (lit, kind) {
            (LitAst::Int(v), TerminalKind::UInt { width, endian }) => {
                Value::from_uint(*v, *width, *endian).ok_or_else(|| {
                    ParseSpecError::BadDeclaration {
                        pos,
                        reason: format!("literal {v} does not fit in {width} byte(s)"),
                    }
                })
            }
            (LitAst::Int(v), _) => Err(ParseSpecError::BadDeclaration {
                pos,
                reason: format!("integer literal {v} used on a non-numeric subject"),
            }),
            (LitAst::Str(s), TerminalKind::UInt { .. }) => Err(ParseSpecError::BadDeclaration {
                pos,
                reason: format!(
                    "string literal {:?} used on a numeric subject",
                    String::from_utf8_lossy(s)
                ),
            }),
            (LitAst::Str(s), _) => Ok(Value::from_bytes(s.to_vec())),
        }
    }

    /// The declared terminal kind of `subject`, if it is a terminal.
    fn subject_kind(&self, subject: NodeId) -> Option<&TerminalKind> {
        self.decls.iter().rev().find(|d| d.id == subject)?.kind.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Result<FormatGraph, ParseSpecError> {
        let ast = parse(src)?;
        lower(&ast.messages[0])
    }

    #[test]
    fn lower_modbus_like() {
        let g = lower_src(
            r#"
            message Modbus {
                u16 transaction_id;
                u16 length = len(pdu);
                seq pdu {
                    u8 function;
                    optional read if function == 3 {
                        u16 start;
                        u16 quantity;
                    }
                }
            }
            "#,
        )
        .unwrap();
        assert_eq!(g.name(), "Modbus");
        let len = g.resolve_names(&["length"]).unwrap();
        let pdu = g.resolve_names(&["pdu"]).unwrap();
        assert_eq!(g.node(len).auto(), &AutoValue::LengthOf(pdu));
        assert!(g.resolve_names(&["pdu", "read", "start"]).is_some());
    }

    #[test]
    fn unknown_reference_reported() {
        let err = lower_src("message M { bytes d sized_by nope; }").unwrap_err();
        assert!(matches!(err, ParseSpecError::UnknownReference { .. }));
    }

    #[test]
    fn ambiguous_reference_reported() {
        let err = lower_src(
            r#"
            message M {
                seq a { u8 n; }
                seq b { u8 n; }
                bytes d sized_by n;
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, ParseSpecError::AmbiguousReference { .. }));
    }

    #[test]
    fn dotted_reference_resolves() {
        let g = lower_src(
            r#"
            message M {
                seq a { u8 n; }
                seq b { u8 n; }
                bytes d sized_by a.n;
            }
            "#,
        )
        .unwrap();
        let d = g.resolve_names(&["d"]).unwrap();
        let an = g.resolve_names(&["a", "n"]).unwrap();
        assert_eq!(g.node(d).boundary(), &Boundary::Length(an));
    }

    #[test]
    fn boundary_on_sized_int_rejected() {
        let err = lower_src("message M { u16 x rest; }").unwrap_err();
        assert!(matches!(err, ParseSpecError::BadDeclaration { .. }));
    }

    #[test]
    fn variable_bytes_need_boundary() {
        let err = lower_src("message M { bytes x; }").unwrap_err();
        assert!(matches!(err, ParseSpecError::BadDeclaration { .. }));
    }

    #[test]
    fn string_condition_on_numeric_rejected() {
        let err = lower_src(r#"message M { u8 f; optional b if f == "x" { u8 y; } }"#).unwrap_err();
        assert!(matches!(err, ParseSpecError::BadDeclaration { .. }));
    }

    #[test]
    fn single_field_elements_skip_wrapper() {
        let g = lower_src(
            r#"
            message M {
                u8 n;
                tabular vals count_by n { u16 v; }
            }
            "#,
        )
        .unwrap();
        let tab = g.resolve_names(&["vals"]).unwrap();
        let child = g.node(tab).children()[0];
        assert_eq!(g.node(child).name(), "v");
    }

    #[test]
    fn multi_field_elements_get_item_wrapper() {
        let g = lower_src(
            r#"
            message M {
                u8 n;
                tabular vals count_by n { u16 a; u16 b; }
            }
            "#,
        )
        .unwrap();
        let tab = g.resolve_names(&["vals"]).unwrap();
        let child = g.node(tab).children()[0];
        assert_eq!(g.node(child).name(), "item");
        assert_eq!(g.node(child).children().len(), 2);
    }

    #[test]
    fn forward_auto_reference_allowed() {
        let g = lower_src(
            r#"
            message M {
                u8 count = count(vals);
                tabular vals count_by count { u16 v; }
            }
            "#,
        )
        .unwrap();
        let c = g.resolve_names(&["count"]).unwrap();
        let vals = g.resolve_names(&["vals"]).unwrap();
        assert_eq!(g.node(c).auto(), &AutoValue::CounterOf(vals));
    }

    #[test]
    fn in_condition_lowered_to_oneof() {
        let g = lower_src(
            r#"
            message M {
                u8 f;
                optional b if f in [1, 2] { u8 x; }
            }
            "#,
        )
        .unwrap();
        let b = g.resolve_names(&["b"]).unwrap();
        match g.node(b).node_type() {
            protoobf_core::graph::NodeType::Optional(c) => {
                assert!(matches!(c.predicate, Predicate::OneOf(ref v) if v.len() == 2));
            }
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod const_tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Result<FormatGraph, ParseSpecError> {
        let ast = parse(src)?;
        lower(&ast.messages[0])
    }

    #[test]
    fn const_int_on_uint_field() {
        let g = lower_src("message M { u16 magic = const 0xABCD; u8 x; }").unwrap();
        let magic = g.resolve_names(&["magic"]).unwrap();
        match g.node(magic).auto() {
            AutoValue::Literal(v) => assert_eq!(v.as_bytes(), &[0xAB, 0xCD]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_str_on_ascii_field() {
        let g = lower_src(r#"message M { ascii version until " " = const "HTTP/1.1"; u8 x; }"#)
            .unwrap();
        let v = g.resolve_names(&["version"]).unwrap();
        match g.node(v).auto() {
            AutoValue::Literal(val) => assert_eq!(val.as_bytes(), b"HTTP/1.1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_str_on_uint_rejected() {
        let err = lower_src(r#"message M { u16 magic = const "xy"; u8 x; }"#).unwrap_err();
        assert!(matches!(err, ParseSpecError::BadDeclaration { .. }));
    }

    #[test]
    fn const_int_overflow_rejected() {
        let err = lower_src("message M { u8 magic = const 300; u8 x; }").unwrap_err();
        assert!(matches!(err, ParseSpecError::BadDeclaration { .. }));
    }

    #[test]
    fn const_wrong_width_rejected_by_validation() {
        let err = lower_src(r#"message M { bytes(4) magic = const "ab"; u8 x; }"#).unwrap_err();
        assert!(matches!(err, ParseSpecError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn const_fields_print_and_reparse() {
        let g = lower_src(
            r#"message M { u16 magic = const 0x1234; ascii v until " " = const "one"; u8 x; }"#,
        )
        .unwrap();
        let text = crate::print::to_text(&g);
        let g2 = lower_src(&text).unwrap();
        assert_eq!(crate::print::to_text(&g2), text);
    }
}
