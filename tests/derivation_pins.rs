//! Pinned derivations: the endpoint fingerprint and the number of applied
//! transformations of every builtin protocol and of the benchmark's bulk
//! spec, at levels 1–4 under two keys.
//!
//! The fingerprint digests both directions' compiled plans, so it moves
//! whenever the obfuscation engine draws a different random number,
//! names a node differently or accepts a different rewrite. Engine
//! optimisations (rollback, soundness checks) must leave every row as it
//! is.

use protoobf::core::profile::SpecSource;
use protoobf::{FormatGraph, Profile, ProfileExt};

/// The benchmark's bulk record table (`e2ebench/specs/bulk.spec`).
const BULK_SPEC: &str = include_str!("../e2ebench/specs/bulk.spec");
/// The benchmark's key, and one other.
const KEYS: [&str; 2] = ["e2ebench shared secret", "pinned key 2"];

/// `(spec, key, level, fingerprint, transforms applied)`, recorded once.
const PINS: &[(&str, &str, u32, &str, usize)] = &[
    ("builtin:dns-query", "e2ebench shared secret", 1, "fe058cf4f986f2e66ac3543b2bc9f516", 14),
    ("builtin:dns-query", "e2ebench shared secret", 2, "3ec98b45d44c0cb25abc4ba16a8e0c22", 40),
    ("builtin:dns-query", "e2ebench shared secret", 3, "b82723598b5ce32ac482f9ba87be88da", 84),
    ("builtin:dns-query", "e2ebench shared secret", 4, "d7a389d6d5029f2adb01f2f1ba9c4cda", 157),
    ("builtin:dns-query", "pinned key 2", 1, "47d2e982cc10a0d606a0aa629c732b86", 12),
    ("builtin:dns-query", "pinned key 2", 2, "78f0086b5fb1a96a5cb213043c08fd1a", 31),
    ("builtin:dns-query", "pinned key 2", 3, "f4d98f145402a532e26f00ed2293aaa2", 57),
    ("builtin:dns-query", "pinned key 2", 4, "5a981275f51ab40279430f912279bf32", 102),
    ("builtin:dns-response", "e2ebench shared secret", 1, "1d63475711083246dfd2da953f8170f6", 24),
    ("builtin:dns-response", "e2ebench shared secret", 2, "ceca1fc9513847bec4a1444f6178652e", 64),
    ("builtin:dns-response", "e2ebench shared secret", 3, "eb8749122f6cdb862303dbc5b2ae9c76", 136),
    ("builtin:dns-response", "e2ebench shared secret", 4, "41aeb182e4b04ea65d24a8270ce5b316", 258),
    ("builtin:dns-response", "pinned key 2", 1, "310dd6fedc157012a6b64c767f0e0602", 22),
    ("builtin:dns-response", "pinned key 2", 2, "72214a05ad9524febe1248220eccfbae", 57),
    ("builtin:dns-response", "pinned key 2", 3, "2b5f16db09d243d6d433e7abc5cfb0c6", 113),
    ("builtin:dns-response", "pinned key 2", 4, "53a94b0ccd2f598e2ae64e78dec92d7e", 205),
    ("builtin:http-request", "e2ebench shared secret", 1, "6902200b960a51cc156c2b5742beed3c", 7),
    ("builtin:http-request", "e2ebench shared secret", 2, "9516a761339966ec16dd50ad4339d99c", 19),
    ("builtin:http-request", "e2ebench shared secret", 3, "99e19fbb05dd46886308e46f82920d78", 34),
    ("builtin:http-request", "e2ebench shared secret", 4, "845331d9a3ac0bdc970a83760275e94c", 58),
    ("builtin:http-request", "pinned key 2", 1, "06f98000405ad73800735503787f90e8", 7),
    ("builtin:http-request", "pinned key 2", 2, "c372161da40632ec1b015b3801d1371c", 18),
    ("builtin:http-request", "pinned key 2", 3, "39ca1f0c29ccd6682064032242bfa058", 31),
    ("builtin:http-request", "pinned key 2", 4, "1b367587c041e62c8a9941856c3eaa5c", 51),
    ("builtin:http-response", "e2ebench shared secret", 1, "c8ce96b8ab19aa06c0af6052cd7bb7b6", 7),
    ("builtin:http-response", "e2ebench shared secret", 2, "adacfc8da98c7556c42c5b596c19d446", 19),
    ("builtin:http-response", "e2ebench shared secret", 3, "6576a9d3118663a67f510aa28fe04c16", 34),
    ("builtin:http-response", "e2ebench shared secret", 4, "f06bc24963a9ad8afe83bc778a77ebba", 58),
    ("builtin:http-response", "pinned key 2", 1, "4c4b9ee3eb27d332b685b9dca2245122", 7),
    ("builtin:http-response", "pinned key 2", 2, "5a10c5e8b409efa28df654dd992713d2", 18),
    ("builtin:http-response", "pinned key 2", 3, "edefa3748eaf8d22cc9594b0150fd012", 31),
    ("builtin:http-response", "pinned key 2", 4, "13289b2eaf6cd47ef899111f89199cee", 51),
    ("builtin:modbus-request", "e2ebench shared secret", 1, "802f81ffe5e37924751b2dbaaa50bf14", 42),
    (
        "builtin:modbus-request",
        "e2ebench shared secret",
        2,
        "9923a7e2869d21044dc7107d36643e74",
        108,
    ),
    (
        "builtin:modbus-request",
        "e2ebench shared secret",
        3,
        "5bf74599c3b6b6e001358decbb05bd50",
        207,
    ),
    (
        "builtin:modbus-request",
        "e2ebench shared secret",
        4,
        "f0ee81180ff4492c1cf7450da67409dc",
        369,
    ),
    ("builtin:modbus-request", "pinned key 2", 1, "bae9823a34df428cfa4408b1a9629b7c", 42),
    ("builtin:modbus-request", "pinned key 2", 2, "e63433b487fad480651155b82ff5dd30", 104),
    ("builtin:modbus-request", "pinned key 2", 3, "941183361e53fcc0a58687c64f900130", 198),
    ("builtin:modbus-request", "pinned key 2", 4, "51bf99be532a44bc7a4c3fde3860782c", 352),
    (
        "builtin:modbus-response",
        "e2ebench shared secret",
        1,
        "f556e36656fcc3aa81856994eeaa235a",
        37,
    ),
    (
        "builtin:modbus-response",
        "e2ebench shared secret",
        2,
        "cda983eaf5982e0e26d80406e93b4e7e",
        93,
    ),
    (
        "builtin:modbus-response",
        "e2ebench shared secret",
        3,
        "839bb55af7028bfabe8834be6a2fae6a",
        173,
    ),
    (
        "builtin:modbus-response",
        "e2ebench shared secret",
        4,
        "0e1cc6ce9e22b0eefd12dd4fb4fbf9de",
        296,
    ),
    ("builtin:modbus-response", "pinned key 2", 1, "d5307140ecc7ee3eba0d8968b22057ae", 37),
    ("builtin:modbus-response", "pinned key 2", 2, "5dbb1d2debd6b6aa89148ef322013b1a", 84),
    ("builtin:modbus-response", "pinned key 2", 3, "8496be8f2654547e1ca905c3a9ddd7ae", 155),
    ("builtin:modbus-response", "pinned key 2", 4, "c569ba78718f5b120109e0d489696702", 267),
    ("bulk", "e2ebench shared secret", 1, "9f9044283d71bd029acbbd075d41e132", 7),
    ("bulk", "e2ebench shared secret", 2, "34a6b9f9bb93720626122adc21e78eb6", 19),
    ("bulk", "e2ebench shared secret", 3, "a3942a302325616a19646a0b018ec3da", 39),
    ("bulk", "e2ebench shared secret", 4, "2ec092fe1406118e1d2c0765f746767e", 73),
    ("bulk", "pinned key 2", 1, "bf8a9423e8ec4c0ef8686768febc9c7e", 7),
    ("bulk", "pinned key 2", 2, "90d2c0738ed9410673f60909197c8976", 16),
    ("bulk", "pinned key 2", 3, "fb0cc9ff72107b166faa677e66044986", 30),
    ("bulk", "pinned key 2", 4, "02b89651924f8d3aa530017b414396ea", 53),
];

fn derive(spec: &str, key: &str, level: u32) -> (String, usize) {
    let source = match spec.strip_prefix("builtin:") {
        Some(name) => SpecSource::Builtin(name.to_string()),
        None => SpecSource::File(spec.to_string()),
    };
    let profile = Profile::symmetric(source).key(key).level(level);
    let endpoint = if spec == "bulk" {
        let resolve = |_: &SpecSource| -> Result<FormatGraph, String> {
            protoobf::spec::parse_spec(BULK_SPEC).map_err(|e| e.to_string())
        };
        profile.build_with(&resolve).expect("bulk spec derives")
    } else {
        profile.build().expect("builtin derives")
    };
    (endpoint.fingerprint().to_string(), endpoint.tx_service().codec().transform_count())
}

#[test]
fn derivations_are_pinned() {
    let specs = protoobf::protocols::BUILTIN_NAMES
        .iter()
        .map(|name| format!("builtin:{name}"))
        .chain(std::iter::once("bulk".to_string()));
    let mut got = Vec::new();
    for spec in specs {
        for key in KEYS {
            for level in 1..=4u32 {
                let (fingerprint, transforms) = derive(&spec, key, level);
                got.push((spec.clone(), key, level, fingerprint, transforms));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(s, k, l, f, n)| format!("    ({s:?}, {k:?}, {l}, {f:?}, {n}),\n"))
        .collect();
    let want: Vec<_> =
        PINS.iter().map(|&(s, k, l, f, n)| (s.to_string(), k, l, f.to_string(), n)).collect();
    assert_eq!(got, want, "derivations moved; now:\n{table}");
}
