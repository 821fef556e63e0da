//! The obfuscation-resilience trajectory: the PRE inference attack
//! ([`protoobf_pre::resilience`]) run against sampled traffic of the
//! builtin experiment protocols at increasing obfuscation levels.
//!
//! This is the security analogue of the perf trajectories the bench
//! suite exports: one attacker-success score per obfuscation level,
//! written as `BENCH_resilience.json` by `protoobf resilience` (and the
//! CI resilience job). The paper's claim (§VII-D) — spec-level
//! obfuscation defeats alignment/clustering-based PRE — becomes a
//! pinned, regression-checked curve: level 0 must score high for the
//! attacker, levels 1+ must score measurably lower.

use protoobf_core::sample::{random_message, random_message_pinned};
use protoobf_core::tunnel::{ChannelMap, TunnelEncoder};
use protoobf_core::{Codec, Obfuscator};
use protoobf_pre::resilience::{attack, AttackParams, AttackScore};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::protocols::{builtin, BUILTIN_NAMES};

/// Samples `n` wires of realistic traffic for `codec`: a handful of
/// distinct application messages ("flows") serialized over and over,
/// each time with fresh serialization-time random material.
///
/// This redundancy is the attack's foothold and the paper's setting: an
/// analyst observes repeating application traffic. Under the identity
/// codec a repeated message re-serializes byte-identically, so
/// alignment finds it trivially; an obfuscated plan re-draws pads and
/// random shares per message, so the same application traffic stops
/// aligning — that collapse is the resilience signal.
pub fn sample_wires(codec: &Codec, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let flows = (n / 4).clamp(1, 6);
    let bases: Vec<_> = (0..flows)
        .map(|v| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((v as u64 + 1) << 32));
            random_message(codec, &mut rng)
        })
        .collect();
    (0..n)
        .map(|i| {
            codec
                .serialize_seeded(&bases[i % flows], seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
                .expect("sampled messages serialize")
        })
        .collect()
}

/// Samples `n` wires of **fresh** cover traffic: every message is a new
/// draw (with the covert tunnel's carrier pins applied, so message
/// shapes match [`sample_tunnel_wires`] exactly), serialized with fresh
/// random material. The control arm of the tunnel-detectability
/// comparison: identical sampling, no payload in the carriers.
pub fn sample_cover_wires(codec: &Codec, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let map = ChannelMap::analyze(codec);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let msg = random_message_pinned(codec, &mut rng, map.pins());
            codec
                .serialize_seeded(&msg, seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
                .expect("sampled covers serialize")
        })
        .collect()
}

/// Samples `n` wires of **covert-tunnel** traffic: a random payload
/// stream chunked into the carrier slots of sampler-generated cover
/// messages ([`protoobf_core::tunnel::TunnelEncoder`]). The tunnel
/// preserves every carrier instance's sampled length and leaves cover
/// slots sampled, so against the PRE attacker this should be
/// indistinguishable from [`sample_cover_wires`] at the same level —
/// the claim `tests/resilience.rs` pins.
pub fn sample_tunnel_wires(codec: &Codec, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut enc = TunnelEncoder::new(codec, seed).expect("builtin specs expose carrier slots");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007A_77E1);
    (0..n)
        .map(|i| {
            // Keep payload pending so every cover actually carries data.
            if enc.pending_payload() < 512 {
                let chunk: Vec<u8> = (0..512).map(|_| rng.gen()).collect();
                enc.push(&chunk);
            }
            let frame = enc
                .next_cover()
                .expect("sampled covers reach carrier capacity")
                .expect("payload is pending");
            codec
                .serialize_seeded(&frame.message, seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
                .expect("tunnel covers serialize")
        })
        .collect()
}

/// One cell of the trajectory: the graded attack at one level.
#[derive(Debug, Clone, Copy)]
pub struct LevelScore {
    /// Obfuscation level (0 = identity codecs).
    pub level: u32,
    /// The graded inference attack over the mixed builtin trace.
    pub attack: AttackScore,
}

/// The full trajectory.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Wires sampled per builtin protocol per cell.
    pub samples_per_protocol: usize,
    /// One entry per level, ascending from 0.
    pub levels: Vec<LevelScore>,
}

/// Runs the attack for one level: every builtin protocol contributes
/// `samples_per_protocol` wires (obfuscated under a level-`level` plan
/// keyed per protocol), the analyst sees the mixed trace, and the
/// grading uses the protocol names as ground truth.
pub fn score_level(level: u32, samples_per_protocol: usize, seed: u64) -> LevelScore {
    score_mixed(level, samples_per_protocol, seed, sample_wires)
}

/// [`score_level`] with fresh (pinned, payload-free) cover traffic from
/// [`sample_cover_wires`] — the control arm of the tunnel comparison.
pub fn score_level_cover(level: u32, samples_per_protocol: usize, seed: u64) -> LevelScore {
    score_mixed(level, samples_per_protocol, seed, sample_cover_wires)
}

/// [`score_level`] with covert-tunnel traffic from
/// [`sample_tunnel_wires`]: every builtin protocol's wires carry a live
/// payload stream in their carrier slots.
pub fn score_level_tunnel(level: u32, samples_per_protocol: usize, seed: u64) -> LevelScore {
    score_mixed(level, samples_per_protocol, seed, sample_tunnel_wires)
}

fn score_mixed(
    level: u32,
    samples_per_protocol: usize,
    seed: u64,
    sampler: impl Fn(&Codec, usize, u64) -> Vec<Vec<u8>>,
) -> LevelScore {
    let mut wires: Vec<Vec<u8>> = Vec::new();
    let mut labels: Vec<&'static str> = Vec::new();
    for (pi, proto) in BUILTIN_NAMES.iter().enumerate() {
        let graph = builtin(proto).expect("a bundled protocol");
        let codec = if level == 0 {
            Codec::identity(&graph)
        } else {
            Obfuscator::new(&graph)
                .seed(seed ^ ((pi as u64 + 1) << 8) ^ u64::from(level))
                .max_per_node(level)
                .obfuscate()
                .expect("builtin specs obfuscate at every level")
        };
        wires.extend(sampler(&codec, samples_per_protocol, seed ^ (pi as u64 + 1)));
        labels.extend(std::iter::repeat_n(*proto, samples_per_protocol));
    }
    let refs: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
    LevelScore { level, attack: attack(&refs, &labels, &AttackParams::default()) }
}

/// Scores levels `0..=max_level` into a trajectory.
pub fn score_trajectory(
    max_level: u32,
    samples_per_protocol: usize,
    seed: u64,
) -> ResilienceReport {
    ResilienceReport {
        samples_per_protocol,
        levels: (0..=max_level).map(|l| score_level(l, samples_per_protocol, seed)).collect(),
    }
}

/// Renders the report in the same shape as the vendored criterion's
/// `PROTOOBF_BENCH_JSON` trajectories (`prefix` / `unix_time` /
/// `results` with one named entry per cell), so the CI artifact tooling
/// treats perf and resilience curves uniformly.
pub fn export_json(report: &ResilienceReport) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"prefix\": \"resilience\",\n");
    out.push_str(&format!("  \"unix_time\": {unix_time},\n"));
    out.push_str(&format!("  \"samples_per_protocol\": {},\n", report.samples_per_protocol));
    out.push_str("  \"results\": [\n");
    for (i, cell) in report.levels.iter().enumerate() {
        let a = &cell.attack;
        out.push_str(&format!(
            "    {{\"name\": \"resilience/level-{}\", \"level\": {}, \"score\": {:.6}, \
             \"ari\": {:.6}, \"purity\": {:.6}, \"static_fraction\": {:.6}, \
             \"mean_entropy\": {:.6}, \"random_fraction\": {:.6}, \
             \"clusters\": {}, \"types\": {}, \"messages\": {}}}{}\n",
            cell.level,
            cell.level,
            a.score,
            a.ari,
            a.purity,
            a.static_fraction,
            a.mean_entropy,
            a.random_fraction,
            a.clusters,
            a.types,
            a.messages,
            if i + 1 < report.levels.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One-line human summary of a cell, for the CLI table.
pub fn summarize(cell: &LevelScore) -> String {
    let a = &cell.attack;
    format!(
        "level {}: score {:.3} (ari {:+.3}, purity {:.3}, static {:.3}, entropy {:.2} bits, \
         random {:.3}, {} clusters / {} types)",
        cell.level,
        a.score,
        a.ari,
        a.purity,
        a.static_fraction,
        a.mean_entropy,
        a.random_fraction,
        a.clusters,
        a.types
    )
}
