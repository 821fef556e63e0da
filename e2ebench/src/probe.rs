//! Host-phase probes: two fixed pieces of work that are not program code,
//! timed between measurement slices. Their rates tell a contended host
//! from a regression; they are printed as diagnostics and never gated.
//! Do not change them: their rates are only comparable while the work is
//! frozen.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the integer probe per sample.
const INT_ITERS: u64 = 400_000;
/// Keys inserted (then removed) by the allocation probe per sample.
const MAP_KEYS: u64 = 2_000;

/// Cache-resident integer work, in million iterations per second.
pub fn integer_rate() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..INT_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    INT_ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Allocation-heavy map work (`BTreeMap<String, u64>` inserts and
/// removals), in thousand keys per second.
pub fn alloc_rate() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..MAP_KEYS {
        map.insert(format!("key-{:08x}", i.wrapping_mul(0x9e37_79b9)), i);
    }
    for i in 0..MAP_KEYS {
        black_box(map.remove(&format!("key-{:08x}", i.wrapping_mul(0x9e37_79b9))));
    }
    MAP_KEYS as f64 / t.elapsed().as_secs_f64() / 1e3
}
