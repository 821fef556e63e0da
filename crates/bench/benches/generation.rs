//! Criterion microbenchmark of the generation-time cost metric (paper
//! Tables III/IV "Generation time"): specification parse + random
//! transformation selection + C library generation.
//!
//! The `derive/<grammar>` rows time the obfuscation engine alone
//! (`Obfuscator::obfuscate`, no parse and no codegen) on the grammars
//! and key of the end-to-end benchmark's `modbus-rr` and `bulk-64k`
//! workloads at their level 2: the layer behind most of their set-up
//! time. `derive/endpoint-modbus` times a whole `modbus-rr` endpoint
//! build from its profile (resolve both builtins, derive both
//! directions, fingerprint). Filter with `-- derive`; the group's
//! results are written to `BENCH_derive.json` at the workspace root.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use protoobf_bench::export_trajectory;
use protoobf_codegen::generate;
use protoobf_core::profile::{Profile, SpecResolver, SpecSource};
use protoobf_core::{FormatGraph, Obfuscator};
use protoobf_protocols::{http, modbus};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(20);
    for (name, spec) in [("modbus", modbus::REQUEST_SPEC), ("http", http::REQUEST_SPEC)] {
        for level in [1u32, 2, 4] {
            group.bench_with_input(BenchmarkId::new(name, level), &level, |b, &level| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    let graph = protoobf_spec::parse_spec(spec).unwrap();
                    let codec =
                        Obfuscator::new(&graph).seed(seed).max_per_node(level).obfuscate().unwrap();
                    generate(&codec)
                })
            });
        }
    }
    group.finish();
}

/// Key and level of the end-to-end benchmark's workloads.
const E2E_KEY: &str = "e2ebench shared secret";
const E2E_LEVEL: u32 = 2;

/// The end-to-end benchmark's `modbus-rr` profile.
const MODBUS_RR_PROFILE: &str = "profile protoobf/1
tx builtin:modbus-request
rx builtin:modbus-response
key \"e2ebench shared secret\"
level 2
";

/// Resolves `builtin:` sources as the standard resolver does.
struct Builtins;

impl SpecResolver for Builtins {
    fn resolve(&self, src: &SpecSource) -> Result<FormatGraph, String> {
        match src {
            SpecSource::Builtin(name) => protoobf_protocols::builtin(name).ok_or(name.clone()),
            SpecSource::File(path) => Err(format!("{path}: builtins only")),
        }
    }
}

fn bench_derive(c: &mut Criterion) {
    let mut group = c.benchmark_group("derive");
    let bulk = include_str!("../../../e2ebench/specs/bulk.spec");
    for (name, spec) in [
        ("modbus-request", modbus::REQUEST_SPEC),
        ("modbus-response", modbus::RESPONSE_SPEC),
        ("bulk", bulk),
    ] {
        let graph = protoobf_spec::parse_spec(spec).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                Obfuscator::new(black_box(&graph))
                    .key(E2E_KEY)
                    .max_per_node(E2E_LEVEL)
                    .obfuscate()
                    .unwrap()
            })
        });
    }
    let profile = Profile::parse(MODBUS_RR_PROFILE).unwrap();
    group.bench_function("endpoint-modbus", |b| {
        b.iter(|| black_box(&profile).build_with(&Builtins).unwrap())
    });
    group.finish();
    export_trajectory(c, "derive");
}

criterion_group!(benches, bench_generation, bench_derive);
criterion_main!(benches);
