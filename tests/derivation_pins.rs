//! Pinned derivations: for every builtin protocol, the benchmark's bulk
//! spec and a spec with a size-pinned sequence, the endpoint
//! fingerprint, the number of applied transformations and a digest of
//! names and records, at level 0 under one key and at levels 1–4 under
//! two keys.
//!
//! The fingerprint digests both directions' compiled plans (ops, children,
//! pools), so it moves whenever the obfuscation engine draws a different
//! random number or accepts a different rewrite. It does not see node
//! names or transformation records; the third column does: it digests
//! both directions' records (display string, target, created nodes) and
//! the obfuscated graph's node names in pre-order. Engine refactors and
//! optimisations (rollback, soundness checks, constraint evaluation) must
//! leave every row as it is.

use protoobf::core::profile::SpecSource;
use protoobf::{Codec, Endpoint, FormatGraph, Profile, ProfileExt};

/// The benchmark's bulk record table (`e2ebench/specs/bulk.spec`).
const BULK_SPEC: &str = include_str!("../e2ebench/specs/bulk.spec");
/// A sequence whose size a length field pins: the rewrites inside it must
/// keep its plain size (Table II's Delegated-or-End parent boundary).
const SIZED_SPEC: &str = "message Sized {
    u8 kind;
    u16 len = len(body);
    seq body sized_by len {
        u16 a;
        u32 b;
        bytes(6) c;
    }
    u8 trailer;
}";
/// The benchmark's key, and one other.
const KEYS: [&str; 2] = ["e2ebench shared secret", "pinned key 2"];

/// `(spec, key, level, fingerprint, transforms applied, names digest)`,
/// recorded once.
#[rustfmt::skip]
const PINS: &[(&str, &str, u32, &str, usize, &str)] = &[
    ("builtin:dns-query", "e2ebench shared secret", 0, "296e16a54a2d31a6f71264e17a6a6016", 0, "9b094ae69e5a216d"),
    ("builtin:dns-response", "e2ebench shared secret", 0, "1a072b15da08e5eadd724cfe4d0590da", 0, "8012dfbcd04b99c5"),
    ("builtin:http-request", "e2ebench shared secret", 0, "9fdb1044f5c152146c3ad501b57d36c4", 0, "d50a5231b62b2e15"),
    ("builtin:http-response", "e2ebench shared secret", 0, "3ff4d8f4bb871e5a2e03ce64306ae30a", 0, "7bb9ebb9fbefc93b"),
    ("builtin:modbus-request", "e2ebench shared secret", 0, "d4069fadd695136c2472f5bfced5f35c", 0, "d36bbe0329a004dd"),
    ("builtin:modbus-response", "e2ebench shared secret", 0, "1a71ac61779689e2fe2bafaa4535c112", 0, "9032a59c7f61131d"),
    ("bulk", "e2ebench shared secret", 0, "dbe6c9cfdfee843a2994d1748c72b12a", 0, "f7cbe3015c3c9ba9"),
    ("sized", "e2ebench shared secret", 0, "29ea31462c08985a70e5be85d8a6350a", 0, "8c9f76d5aa51cacd"),
    ("builtin:dns-query", "e2ebench shared secret", 1, "fe058cf4f986f2e66ac3543b2bc9f516", 14, "384915293d80b759"),
    ("builtin:dns-query", "e2ebench shared secret", 2, "3ec98b45d44c0cb25abc4ba16a8e0c22", 40, "802a5f26ed200f61"),
    ("builtin:dns-query", "e2ebench shared secret", 3, "b82723598b5ce32ac482f9ba87be88da", 84, "1085bd5be6994ce5"),
    ("builtin:dns-query", "e2ebench shared secret", 4, "d7a389d6d5029f2adb01f2f1ba9c4cda", 157, "18a69bd9886e10d5"),
    ("builtin:dns-query", "pinned key 2", 1, "47d2e982cc10a0d606a0aa629c732b86", 12, "6c2c7f5d322f9bb9"),
    ("builtin:dns-query", "pinned key 2", 2, "78f0086b5fb1a96a5cb213043c08fd1a", 31, "f01ca2f10a882d7d"),
    ("builtin:dns-query", "pinned key 2", 3, "f4d98f145402a532e26f00ed2293aaa2", 57, "d698bcdc16e4f7a9"),
    ("builtin:dns-query", "pinned key 2", 4, "5a981275f51ab40279430f912279bf32", 102, "cb8d0f9510ba9407"),
    ("builtin:dns-response", "e2ebench shared secret", 1, "1d63475711083246dfd2da953f8170f6", 24, "3bee528704a59cc3"),
    ("builtin:dns-response", "e2ebench shared secret", 2, "ceca1fc9513847bec4a1444f6178652e", 64, "2fec8d9ff58f7cdd"),
    ("builtin:dns-response", "e2ebench shared secret", 3, "eb8749122f6cdb862303dbc5b2ae9c76", 136, "8c1c9732c29cca75"),
    ("builtin:dns-response", "e2ebench shared secret", 4, "41aeb182e4b04ea65d24a8270ce5b316", 258, "b1463a7dfd5ea22d"),
    ("builtin:dns-response", "pinned key 2", 1, "310dd6fedc157012a6b64c767f0e0602", 22, "4386dda94881b011"),
    ("builtin:dns-response", "pinned key 2", 2, "72214a05ad9524febe1248220eccfbae", 57, "6d428a948c6a5405"),
    ("builtin:dns-response", "pinned key 2", 3, "2b5f16db09d243d6d433e7abc5cfb0c6", 113, "b8459a6cec2a16dd"),
    ("builtin:dns-response", "pinned key 2", 4, "53a94b0ccd2f598e2ae64e78dec92d7e", 205, "c6d58708fc35bfc9"),
    ("builtin:http-request", "e2ebench shared secret", 1, "6902200b960a51cc156c2b5742beed3c", 7, "08434e086055a6f7"),
    ("builtin:http-request", "e2ebench shared secret", 2, "9516a761339966ec16dd50ad4339d99c", 19, "45c8caafaf03217b"),
    ("builtin:http-request", "e2ebench shared secret", 3, "99e19fbb05dd46886308e46f82920d78", 34, "a0a6e055d0ab1d45"),
    ("builtin:http-request", "e2ebench shared secret", 4, "845331d9a3ac0bdc970a83760275e94c", 58, "629df4b2ee1f6517"),
    ("builtin:http-request", "pinned key 2", 1, "06f98000405ad73800735503787f90e8", 7, "699471b4e14f6875"),
    ("builtin:http-request", "pinned key 2", 2, "c372161da40632ec1b015b3801d1371c", 18, "c387434f035ecf9b"),
    ("builtin:http-request", "pinned key 2", 3, "39ca1f0c29ccd6682064032242bfa058", 31, "13f9131417d8b4c5"),
    ("builtin:http-request", "pinned key 2", 4, "1b367587c041e62c8a9941856c3eaa5c", 51, "2c448420c82abb85"),
    ("builtin:http-response", "e2ebench shared secret", 1, "c8ce96b8ab19aa06c0af6052cd7bb7b6", 7, "c85ba6a8c92fda63"),
    ("builtin:http-response", "e2ebench shared secret", 2, "adacfc8da98c7556c42c5b596c19d446", 19, "b59b3a8f72666185"),
    ("builtin:http-response", "e2ebench shared secret", 3, "6576a9d3118663a67f510aa28fe04c16", 34, "c0e1d470fc2272d5"),
    ("builtin:http-response", "e2ebench shared secret", 4, "f06bc24963a9ad8afe83bc778a77ebba", 58, "e25330c08f7c2bc5"),
    ("builtin:http-response", "pinned key 2", 1, "4c4b9ee3eb27d332b685b9dca2245122", 7, "c8dccc3abaac8bcd"),
    ("builtin:http-response", "pinned key 2", 2, "5a10c5e8b409efa28df654dd992713d2", 18, "9af019de668e4f11"),
    ("builtin:http-response", "pinned key 2", 3, "edefa3748eaf8d22cc9594b0150fd012", 31, "46ab9ff1a8a54811"),
    ("builtin:http-response", "pinned key 2", 4, "13289b2eaf6cd47ef899111f89199cee", 51, "3887fe90bdf8fbf5"),
    ("builtin:modbus-request", "e2ebench shared secret", 1, "802f81ffe5e37924751b2dbaaa50bf14", 42, "97c0f3ee1c19fd75"),
    ("builtin:modbus-request", "e2ebench shared secret", 2, "9923a7e2869d21044dc7107d36643e74", 108, "9eaba95874b5bca5"),
    ("builtin:modbus-request", "e2ebench shared secret", 3, "5bf74599c3b6b6e001358decbb05bd50", 207, "008b17c663bc5635"),
    ("builtin:modbus-request", "e2ebench shared secret", 4, "f0ee81180ff4492c1cf7450da67409dc", 369, "982b91b6b019b983"),
    ("builtin:modbus-request", "pinned key 2", 1, "bae9823a34df428cfa4408b1a9629b7c", 42, "e99a3b79e0d2d63d"),
    ("builtin:modbus-request", "pinned key 2", 2, "e63433b487fad480651155b82ff5dd30", 104, "45bfa79c0d73c6a9"),
    ("builtin:modbus-request", "pinned key 2", 3, "941183361e53fcc0a58687c64f900130", 198, "86253f465a1f3e6d"),
    ("builtin:modbus-request", "pinned key 2", 4, "51bf99be532a44bc7a4c3fde3860782c", 352, "2b88358cc70fa88d"),
    ("builtin:modbus-response", "e2ebench shared secret", 1, "f556e36656fcc3aa81856994eeaa235a", 37, "33fc4e11b527efad"),
    ("builtin:modbus-response", "e2ebench shared secret", 2, "cda983eaf5982e0e26d80406e93b4e7e", 93, "a4d17ff38bc4fdd9"),
    ("builtin:modbus-response", "e2ebench shared secret", 3, "839bb55af7028bfabe8834be6a2fae6a", 173, "cc1573dcfbb2e197"),
    ("builtin:modbus-response", "e2ebench shared secret", 4, "0e1cc6ce9e22b0eefd12dd4fb4fbf9de", 296, "f2b7727c12819af7"),
    ("builtin:modbus-response", "pinned key 2", 1, "d5307140ecc7ee3eba0d8968b22057ae", 37, "696be74000614135"),
    ("builtin:modbus-response", "pinned key 2", 2, "5dbb1d2debd6b6aa89148ef322013b1a", 84, "e956b6d86be402f5"),
    ("builtin:modbus-response", "pinned key 2", 3, "8496be8f2654547e1ca905c3a9ddd7ae", 155, "8bd484280fe8d375"),
    ("builtin:modbus-response", "pinned key 2", 4, "c569ba78718f5b120109e0d489696702", 267, "b4db9ee7de06e11f"),
    ("bulk", "e2ebench shared secret", 1, "9f9044283d71bd029acbbd075d41e132", 7, "45b3c2e6ad0471c1"),
    ("bulk", "e2ebench shared secret", 2, "34a6b9f9bb93720626122adc21e78eb6", 19, "c2443c0112747a19"),
    ("bulk", "e2ebench shared secret", 3, "a3942a302325616a19646a0b018ec3da", 39, "56acef9f68766d53"),
    ("bulk", "e2ebench shared secret", 4, "2ec092fe1406118e1d2c0765f746767e", 73, "5e058b3a4643a571"),
    ("bulk", "pinned key 2", 1, "bf8a9423e8ec4c0ef8686768febc9c7e", 7, "dc8684ce7e594eb7"),
    ("bulk", "pinned key 2", 2, "90d2c0738ed9410673f60909197c8976", 16, "6d399db6418e6e4d"),
    ("bulk", "pinned key 2", 3, "fb0cc9ff72107b166faa677e66044986", 30, "a78da153561d2ecd"),
    ("bulk", "pinned key 2", 4, "02b89651924f8d3aa530017b414396ea", 53, "ed59cca487f5f3f1"),
    ("sized", "e2ebench shared secret", 1, "f01f185378e79ace65d9163db23f61be", 8, "154b08b90196357d"),
    ("sized", "e2ebench shared secret", 2, "4bfa59a3f73ee586a283ab68630ca476", 19, "3e59bc39b88dd9dd"),
    ("sized", "e2ebench shared secret", 3, "1f796d5982d1af9e35462e9fd01ba84e", 33, "252c9a60269488c3"),
    ("sized", "e2ebench shared secret", 4, "b57f0a69503fb0662bef70078f50f316", 58, "9b89fc05753584a9"),
    ("sized", "pinned key 2", 1, "ec54ed65e619b056150f5bb68843f386", 8, "ce5d867d23c4ff05"),
    ("sized", "pinned key 2", 2, "dee59453a9c7860e2a02750187c451fe", 16, "fd70dee7a2ceb72d"),
    ("sized", "pinned key 2", 3, "c61fbba7b704b8f28b2c872c834b1962", 25, "4044fed153bc98c5"),
    ("sized", "pinned key 2", 4, "ea66f0284f5c15f6ebb108b7647d7626", 37, "728d710a3a5d620d"),
];

fn derive(spec: &str, key: &str, level: u32) -> Endpoint {
    let source = match spec.strip_prefix("builtin:") {
        Some(name) => SpecSource::Builtin(name.to_string()),
        None => SpecSource::File(spec.to_string()),
    };
    let profile = Profile::symmetric(source).key(key).level(level);
    let text = match spec {
        "bulk" => BULK_SPEC,
        "sized" => SIZED_SPEC,
        _ => return profile.build().expect("builtin derives"),
    };
    let resolve = |_: &SpecSource| -> Result<FormatGraph, String> {
        protoobf::spec::parse_spec(text).map_err(|e| e.to_string())
    };
    profile.build_with(&resolve).expect("spec file derives")
}

/// 64-bit FNV-1a over both directions' records and pre-order node names.
fn names_digest(endpoint: &Endpoint) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |s: &str| {
        for &b in s.as_bytes().iter().chain(b"\0") {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let codecs: [&Codec; 2] = [endpoint.tx_service().codec(), endpoint.rx_service().codec()];
    for codec in codecs {
        for r in codec.records() {
            feed(&r.to_string());
            feed(&r.target.to_string());
            for c in &r.created {
                feed(&c.to_string());
            }
        }
        let g = codec.obf_graph();
        for id in g.preorder() {
            feed(g.node(id).name());
        }
    }
    format!("{h:016x}")
}

#[test]
fn derivations_are_pinned() {
    let specs: Vec<String> = protoobf::protocols::BUILTIN_NAMES
        .iter()
        .map(|name| format!("builtin:{name}"))
        .chain(["bulk", "sized"].map(String::from))
        .collect();
    let runs = specs.iter().map(|spec| (spec, KEYS[0], 0)).chain(specs.iter().flat_map(|spec| {
        KEYS.into_iter().flat_map(move |key| (1..=4u32).map(move |level| (spec, key, level)))
    }));
    let mut got = Vec::new();
    for (spec, key, level) in runs {
        let endpoint = derive(spec, key, level);
        let fingerprint = endpoint.fingerprint().to_string();
        let transforms = endpoint.tx_service().codec().transform_count();
        got.push((spec.clone(), key, level, fingerprint, transforms, names_digest(&endpoint)));
    }
    let table: String = got
        .iter()
        .map(|(s, k, l, f, n, d)| format!("    ({s:?}, {k:?}, {l}, {f:?}, {n}, {d:?}),\n"))
        .collect();
    let want: Vec<_> = PINS
        .iter()
        .map(|&(s, k, l, f, n, d)| (s.to_string(), k, l, f.to_string(), n, d.to_string()))
        .collect();
    assert_eq!(got, want, "derivations moved; now:\n{table}");
}
