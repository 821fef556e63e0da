//! Allocation audit of endpoint set-up: one `modbus-rr` endpoint build
//! (`Profile::build` of the end-to-end benchmark's profile: resolve both
//! builtin grammars, derive both directions, compile the plans,
//! fingerprint) and the specification front end alone
//! (`parse_spec(REQUEST_SPEC)`), pinned at their measured allocation
//! counts plus 10%, and `FormatGraph::validate` of a valid graph pinned at
//! none.
//!
//! The derivation reads typed verdicts and reuses its buffers, the front
//! end borrows the source, and validation walks the graph in place, so a
//! stray `format!` or per-node `Vec` shows here as a count over its pin.
//! Debug builds also run the engine's oracle assertions (a whole-graph
//! `post_check` per candidate), which allocate, so the endpoint pin holds
//! in release builds only.
//!
//! The counter is **thread-local**, as in `crates/core/tests/zero_alloc.rs`:
//! the libtest harness allocates on its own threads at any time, so only
//! allocations made by the test's own thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use protoobf::protocols::modbus::REQUEST_SPEC;
use protoobf::{Profile, ProfileExt};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread (const-initialized: reading it
    /// never allocates, which matters inside the allocator itself).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: during thread teardown the TLS slot may already be
    // destroyed; those allocations are not ours to count anyway.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The end-to-end benchmark's `modbus-rr` profile.
const MODBUS_RR_PROFILE: &str = "profile protoobf/1
tx builtin:modbus-request
rx builtin:modbus-response
key \"e2ebench shared secret\"
level 2
";

/// Measured 2 696 allocations per build (7 362 before the derivation
/// stopped building rejection text and the front end borrowed its
/// source), plus 10%.
const ENDPOINT_BUILD_PIN: u64 = 2_965;

/// Measured 122 allocations (865 before), plus 10%.
const PARSE_REQUEST_PIN: u64 = 134;

#[test]
fn endpoint_build_allocations_are_pinned() {
    let profile = Profile::parse(MODBUS_RR_PROFILE).unwrap();
    // A first build warms whatever the process sets up once.
    let first = profile.build().unwrap();
    let (count, endpoint) = allocations(|| profile.build().unwrap());
    assert_eq!(endpoint.fingerprint(), first.fingerprint());
    if cfg!(debug_assertions) {
        return;
    }
    assert!(count <= ENDPOINT_BUILD_PIN, "a modbus-rr endpoint build made {count} allocations");
}

#[test]
fn spec_front_end_allocations_are_pinned() {
    let _ = protoobf::spec::parse_spec(REQUEST_SPEC).unwrap();
    let (count, graph) = allocations(|| protoobf::spec::parse_spec(REQUEST_SPEC).unwrap());
    assert!(count <= PARSE_REQUEST_PIN, "parse_spec(REQUEST_SPEC) made {count} allocations");
    let (count, valid) = allocations(|| graph.validate());
    assert_eq!(valid, Ok(()));
    assert_eq!(count, 0, "validating a valid graph allocated");
}
