//! The `Display` text of every lexer, parser and lowering error, pinned:
//! one source per error site, with its full message. The front end may
//! change how it builds these errors, not what they say.

use protoobf_spec::parse_spec;

/// `(source, error text)`: one source per error site of the lexer, the
/// parser, lowering and graph validation, with the text it reads.
#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    // Lexer.
    ("#", "1:1: unexpected character '#'"),
    ("message M { u8 x; }\n  @", "2:3: unexpected character '@'"),
    ("!x", "1:1: unexpected character '!'"),
    ("\"abc", "1:1: unterminated string literal"),
    ("/* open", "1:1: unterminated string literal"),
    ("\"\\q\"", "1:1: invalid escape sequence \\q"),
    ("\"\\x1", "1:1: invalid escape sequence \\x"),
    ("\"\\xzz\"", "1:1: invalid escape sequence \\xzz"),
    ("0x", "1:1: invalid number literal \"0x\""),
    ("99999999999999999999", "1:1: invalid number literal \"99999999999999999999\""),
    // Parser.
    ("", "no message declaration found"),
    ("foo", "1:1: expected keyword \"message\", found identifier \"foo\""),
    ("message", "1:8: expected message name, found end of input"),
    ("message M u8", "1:11: expected '{', found identifier \"u8\""),
    ("message M { u8 x;", "1:18: expected '}', found end of input"),
    ("message M { 5 }", "1:13: expected a field declaration, found integer 5"),
    ("message M { bogus x; }", "1:13: expected a type (u8..u64, u16le…, bytes, ascii), found identifier \"bogus\""),
    ("message M { u16 ; }", "1:17: expected field name, found ';'"),
    ("message M { u8 x }", "1:18: expected ';', found '}'"),
    ("message M { bytes(x) b; }", "1:19: expected byte count, found identifier \"x\""),
    ("message M { bytes(4 b; }", "1:21: expected ')', found identifier \"b\""),
    ("message M { ascii a until 5; }", "1:27: expected delimiter string, found integer 5"),
    ("message M { u8 x = foo; }", "1:20: expected 'len(…)', 'count(…)' or 'const <literal>', found identifier \"foo\""),
    ("message M { u8 x = len x; }", "1:24: expected '(', found identifier \"x\""),
    ("message M { u8 x = count(x; }", "1:27: expected ')', found ';'"),
    ("message M { u8 x = const ; }", "1:26: expected an integer or string literal, found ';'"),
    ("message M { u8 n; bytes d sized_by 5; }", "1:36: expected field reference, found integer 5"),
    ("message M { seq s { u8 n; } bytes d sized_by s.5; }", "1:48: expected field reference segment, found integer 5"),
    ("message M { seq { u8 x; } }", "1:17: expected sequence name, found '{'"),
    ("message M { optional { u8 x; } }", "1:22: expected optional name, found '{'"),
    ("message M { u8 f; optional o f == 1 { u8 x; } }", "1:30: expected keyword \"if\", found identifier \"f\""),
    ("message M { u8 f; optional o if f 1 { u8 x; } }", "1:35: expected '==', '!=' or 'in', found integer 1"),
    ("message M { u8 f; optional o if f in 1 { u8 x; } }", "1:38: expected '[', found integer 1"),
    ("message M { u8 f; optional o if f in [1 2] { u8 x; } }", "1:41: expected ']', found integer 2"),
    ("message M { repeat { u8 x; } }", "1:20: expected repetition name, found '{'"),
    ("message M { repeat r { u8 x; } }", "1:22: expected 'until \"…\"' or 'rest', found '{'"),
    ("message M { repeat r until 5 { u8 x; } }", "1:28: expected terminator string, found integer 5"),
    ("message M { tabular { u8 x; } }", "1:21: expected tabular name, found '{'"),
    ("message M { u8 n; tabular t { u8 x; } }", "1:29: expected keyword \"count_by\", found '{'"),
    ("message M { u8 x; } junk", "1:21: expected keyword \"message\", found identifier \"junk\""),
    // Lowering.
    ("message M { bytes d sized_by nope; }", "1:30: unknown field reference \"nope\""),
    ("message M { seq a { u8 n; } bytes d sized_by a.nope; }", "1:46: unknown field reference \"a.nope\""),
    ("message M { seq a { u8 n; } seq b { u8 n; } bytes d sized_by n; }", "1:62: ambiguous field reference \"n\" (use a dotted path)"),
    ("message M { u8 n = count(nope); tabular t count_by n { u8 v; } }", "1:26: unknown field reference \"nope\""),
    ("message M { u8 n; tabular t count_by n { } }", "1:19: \"t\" must declare at least one field"),
    ("message M { u8 f; optional o if f == 1 { } }", "1:19: \"o\" must declare at least one field"),
    ("message M { repeat r until \";\" { } }", "1:13: \"r\" must declare at least one field"),
    ("message M { u16 x rest; }", "1:13: sized integers cannot carry boundary annotations"),
    ("message M { bytes(4) x until \";\"; }", "1:13: fixed-size bytes cannot carry boundary annotations"),
    ("message M { bytes x; }", "1:13: variable-size fields need 'until', 'sized_by' or 'rest'"),
    ("message M { seq s { u8 a; } optional o if s == 1 { u8 x; } }", "1:29: condition subject must be a terminal field"),
    ("message M { u8 f; optional o if f == 300 { u8 x; } }", "1:19: literal 300 does not fit in 1 byte(s)"),
    ("message M { ascii f until \" \"; optional o if f == 1 { u8 x; } }", "1:32: integer literal 1 used on a non-numeric subject"),
    ("message M { u8 f; optional o if f == \"x\" { u8 x; } }", "1:19: string literal \"x\" used on a numeric subject"),
    ("message M { u8 m = const 300; }", "1:13: literal 300 does not fit in 1 byte(s)"),
    ("message M { u16 m = const \"xy\"; }", "1:13: string literal \"xy\" used on a numeric subject"),
    // Graph validation.
    ("message M { bytes(4) m = const \"ab\"; u8 x; }", "invalid specification: auto field \"m\" has an invalid target: literal is 2 byte(s) but the field is fixed at 4"),
    ("message M { ascii v until \" \" = const \"a b\"; u8 x; }", "invalid specification: auto field \"v\" has an invalid target: literal contains the field delimiter"),
    ("message M { u8 x; u8 x; }", "invalid specification: duplicate sibling name \"x\" under \"M\""),
    ("message M { ascii a until \" \"; bytes d sized_by a; }", "invalid specification: node \"d\" references \"a\" which is not an unsigned integer terminal"),
    ("message M { u8 n; tabular t count_by n { u8 a; u8 b; } bytes d sized_by a; }", "invalid specification: node \"d\" references \"a\" which is not parsed before it"),
    ("message M { u8 f; optional o if f == 1 { u8 n; } bytes d sized_by n; }", "invalid specification: node \"d\" references \"n\" which is not parsed before it"),
    ("message M { ascii a until \"\"; }", "invalid specification: node \"a\" declares an empty delimiter"),
    ("message M { bytes(0) z; }", "invalid specification: inconsistent boundary on node \"z\": fixed size must be > 0"),
    ("message M { ascii a until \" \" = len(b); bytes b rest; }", "invalid specification: auto field \"a\" has an invalid target: auto fields must be unsigned integers"),
    ("message M { u8 c = count(b); bytes b rest; }", "invalid specification: auto field \"c\" has an invalid target: counter-of target must be tabular or repetition"),
];

#[test]
fn error_texts_are_pinned() {
    for &(src, want) in PINS {
        let err = parse_spec(src).expect_err(src);
        assert_eq!(err.to_string(), want, "{src:?}");
    }
}

#[test]
fn nesting_too_deep_is_pinned() {
    let mut src = String::from("message Deep {\n");
    for i in 0..9 {
        src.push_str(&format!("u8 n{i};\ntabular t{i} count_by n{i} {{\n"));
    }
    src.push_str("u8 x;\n");
    src.push_str(&"}\n".repeat(10));
    let err = parse_spec(&src).unwrap_err().to_string();
    assert_eq!(
        err,
        "invalid specification: node \"x\" is nested 9 repetition/tabular levels deep (max 8)"
    );
}
