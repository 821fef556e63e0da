//! Pinned lowerings: for every builtin protocol and the benchmark's bulk
//! spec, a digest of the plain graph printed back as DSL text
//! (`spec::to_text`) and of `protoobf dot`'s output at levels 0–4.
//!
//! `to_text` shows every node's name, type, boundary, auto value and
//! condition, so it moves when the specification front end (lexer, parser,
//! lowering) builds a different graph. The `dot` output at level 0 draws
//! the plain graph with its node ids, and at levels 1–4 the obfuscated one,
//! so a front end that numbers nodes differently moves it too. Front-end
//! refactors must leave every row as it is.

use std::process::Command;

/// The benchmark's key.
const KEY: &str = "e2ebench shared secret";

/// `(spec, to_text digest, dot digests at levels 0..=4)`, recorded once.
#[rustfmt::skip]
const PINS: &[(&str, &str, [&str; 5])] = &[
    ("dns-query", "3776ee645ebca7d3", ["fed9bc295d8ccf08", "342c9d4c610719a6", "e45b8a9589d3b0a5", "d3da67bc8c47ecb6", "ab42486c33678f25"]),
    ("dns-response", "209b42c8455d4926", ["86c16eacee285aff", "4e98fc25d16ca3e4", "1c810e3f09a7bd24", "e758509520679b7e", "33da4a934cb69114"]),
    ("http-request", "3eb560d3771f4342", ["4c7e25da2cd54800", "2da727074291c138", "35e2acc541e9bef3", "631867eee16cecf1", "fa475a45e98cced3"]),
    ("http-response", "7e67700250c75739", ["7103d8f9c2691502", "70dd4865cc3680b9", "54dba5e3936201cd", "886d5479b749fd1c", "ae759e3bf81f9642"]),
    ("modbus-request", "bd8f76212b1850ab", ["9d825c5c49c4ba40", "e4c62f23252db2bf", "b5f6f63e89f5987c", "b19541ff276847e2", "14894114a1451c5e"]),
    ("modbus-response", "39a6569fe65bd09b", ["a9d1b220f6b7586b", "de8c01511a4f71fa", "619f1c85df2c159b", "35e4c4300cb2b661", "0f2bb0005ca9a92c"]),
    ("bulk", "d1328352295ec9fd", ["b99f18a6e5ca4405", "f08f8a09cad5e031", "b013dde413e7f256", "9c45c247c3c4c0f7", "16cf6cba3239ff53"]),
];

fn bulk_path() -> String {
    format!("{}/e2ebench/specs/bulk.spec", env!("CARGO_MANIFEST_DIR"))
}

/// 64-bit FNV-1a of `bytes`.
fn fnv(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn dot(source: &str, level: u32) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_protoobf"))
        .args(["dot", source, "--level", &level.to_string(), "--key", KEY])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

#[test]
fn lowered_graphs_are_pinned() {
    let mut got = Vec::new();
    let bulk = bulk_path();
    let sources = protoobf::protocols::BUILTIN_NAMES
        .iter()
        .map(|name| (name.to_string(), format!("builtin:{name}")))
        .chain([("bulk".to_string(), bulk.clone())]);
    for (name, source) in sources {
        let graph = match protoobf::protocols::builtin(&name) {
            Some(graph) => graph,
            None => protoobf::spec::parse_spec(&std::fs::read_to_string(&bulk).unwrap()).unwrap(),
        };
        let text = fnv(protoobf::spec::to_text(&graph).as_bytes());
        let dots: Vec<String> = (0..=4).map(|level| fnv(&dot(&source, level))).collect();
        got.push((name, text, dots));
    }
    let table: String =
        got.iter().map(|(s, t, d)| format!("    ({s:?}, {t:?}, {d:?}),\n")).collect();
    let want: Vec<_> = PINS
        .iter()
        .map(|&(s, t, d)| (s.to_string(), t.to_string(), d.map(String::from).to_vec()))
        .collect();
    assert_eq!(got, want, "lowered graphs moved; now:\n{table}");
}
