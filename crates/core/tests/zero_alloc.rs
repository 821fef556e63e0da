//! Steady-state allocation audit of the session hot paths.
//!
//! The plan sessions promise that, once warmed up, `serialize_into` /
//! `parse_in_place` perform **no heap allocation** — including
//! [`SerializeSession::materialize`], which since the compiled
//! distribution programs no longer routes through the allocating
//! `runtime::distribute`. This test pins that property with a counting
//! global allocator: any future regression (a stray `Vec`, `format!`, or
//! `Value` clone on the hot path) fails loudly.
//!
//! The counter is **thread-local**: the libtest harness keeps its own
//! threads (and may allocate on them at any time — its main thread races
//! the test thread), so a process-global counter flakes. Only
//! allocations made by the test's own thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use protoobf_core::graph::{AutoValue, Boundary, GraphBuilder};
use protoobf_core::plan::CopyProgram;
use protoobf_core::telemetry::{EventKind, Metrics};
use protoobf_core::value::TerminalKind;
use protoobf_core::{Codec, Obfuscator};

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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A spec exercising every materialization path: auto length over a
/// subtree, auto counter over a tabular, and (after obfuscation) splits,
/// constant stacks, mirrors and pads on top.
fn audit_graph() -> protoobf_core::FormatGraph {
    let mut b = GraphBuilder::new("za");
    let root = b.root_sequence("m", Boundary::End);
    let len = b.uint_be(root, "len", 2);
    let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
    b.set_auto(len, AutoValue::LengthOf(data));
    let count = b.uint_be(root, "count", 1);
    let tab = b.tabular(root, "items", count);
    b.set_auto(count, AutoValue::CounterOf(tab));
    let item = b.sequence(tab, "item", Boundary::Delegated);
    b.uint_be(item, "v", 2);
    b.uint_be(root, "code", 4);
    b.build().unwrap()
}

#[test]
fn steady_state_sessions_do_not_allocate() {
    let graph = audit_graph();

    for (what, level) in [("identity", 0u32), ("obfuscated", 3)] {
        let codec = if level == 0 {
            protoobf_core::Codec::identity(&graph)
        } else {
            Obfuscator::new(&graph).seed(9).max_per_node(level).obfuscate().unwrap()
        };
        let mut msg = codec.message_seeded(1);
        msg.set("data", b"steady state payload".as_slice()).unwrap();
        for i in 0..4u64 {
            msg.set_uint(&format!("items[{i}].v"), 40 + i).unwrap();
        }
        msg.set_uint("code", 7).unwrap();

        let mut serializer = codec.serializer();
        let mut parser = codec.parser();
        let mut wire = Vec::new();

        // Warm-up: let every scratch buffer reach its steady-state size.
        for round in 0..5u64 {
            serializer.serialize_into_seeded(&msg, &mut wire, round).unwrap();
            parser.parse_in_place(&wire).unwrap();
        }

        let before = allocations();
        for round in 0..50u64 {
            serializer.serialize_into_seeded(&msg, &mut wire, round).unwrap();
        }
        let after_serialize = allocations();
        assert_eq!(after_serialize - before, 0, "{what}: steady-state serialization allocated");

        for _ in 0..50 {
            parser.parse_in_place(&wire).unwrap();
        }
        let after_parse = allocations();
        assert_eq!(after_parse - after_serialize, 0, "{what}: steady-state parsing allocated");
    }
}

/// The gateway relay hot path — decode, transcode through the compiled
/// copy program, re-encode — pinned allocation-free in both directions
/// (clear → obfuscated and back). This is the loop
/// `protoobf-transport`'s `Relay` runs per message; before the copy
/// programs it routed through the allocating graph-walk runtime.
#[test]
fn steady_state_relay_transcode_does_not_allocate() {
    let graph = audit_graph();
    let clear = protoobf_core::Codec::identity(&graph);
    let obf = Obfuscator::new(&graph).seed(9).max_per_node(3).obfuscate().unwrap();

    let mut msg = clear.message_seeded(1);
    msg.set("data", b"steady state payload".as_slice()).unwrap();
    for i in 0..4u64 {
        msg.set_uint(&format!("items[{i}].v"), 40 + i).unwrap();
    }
    msg.set_uint("code", 7).unwrap();

    // The relay's long-lived pieces: one parser per inbound leg, one
    // serializer per outbound leg, one armed transcode target per
    // direction (program compiled once per pairing, scratch reused).
    let mut clear_parser = clear.parser();
    let mut obf_parser = obf.parser();
    let mut clear_serializer = clear.serializer();
    let mut obf_serializer = obf.serializer();
    let mut to_obf = obf.transcode_target(&clear).unwrap();
    let mut to_clear = clear.transcode_target(&obf).unwrap();

    let mut clear_wire = Vec::new();
    let mut obf_wire = Vec::new();
    let mut back_wire = Vec::new();
    clear_serializer.serialize_into_seeded(&msg, &mut clear_wire, 1).unwrap();

    // The full telemetry plane rides along exactly as the transport
    // relay wires it: stage timers, frame-shape histograms, counters
    // and a flight-recorder event per round. All of it must stay inside
    // the zero-allocation envelope (the constraint that shaped it:
    // relaxed atomics and pre-allocated rings only).
    let metrics = Metrics::new();

    macro_rules! round_trip {
        ($seed:expr) => {{
            let parse_t = metrics.stages.parse.start();
            let inbound = clear_parser.parse_in_place(&clear_wire).unwrap();
            metrics.stages.parse.finish(parse_t);
            Metrics::add(&metrics.messages_in, 1);
            metrics.frame_bytes_in.record(clear_wire.len() as u64);
            let transcode_t = metrics.stages.transcode.start();
            inbound.transcode_into(&mut to_obf).unwrap();
            metrics.stages.transcode.finish(transcode_t);
            let serialize_t = metrics.stages.serialize.start();
            obf_serializer.serialize_into_seeded(&to_obf, &mut obf_wire, $seed).unwrap();
            metrics.stages.serialize.finish(serialize_t);
            Metrics::add(&metrics.messages_out, 1);
            metrics.frame_bytes_out.record(obf_wire.len() as u64);
            let upstream = obf_parser.parse_in_place(&obf_wire).unwrap();
            upstream.transcode_into(&mut to_clear).unwrap();
            clear_serializer.serialize_into_seeded(&to_clear, &mut back_wire, $seed).unwrap();
            metrics.recorder.record(EventKind::Backpressure, $seed, back_wire.len() as u64);
        }};
    }

    // Warm-up: compile programs, grow every scratch to steady state.
    for round in 0..5u64 {
        round_trip!(round);
    }
    assert_eq!(back_wire, clear_wire, "relay round trip must be lossless");

    let before = allocations();
    for round in 0..50u64 {
        round_trip!(round);
    }
    assert_eq!(allocations() - before, 0, "steady-state relay transcode allocated");
}

/// The benchmark's bulk record table (`e2ebench/specs/bulk.spec`).
fn bulk_graph() -> protoobf_core::FormatGraph {
    let mut b = GraphBuilder::new("Bulk");
    let root = b.root_sequence("Bulk", Boundary::End);
    let count = b.uint_be(root, "count", 2);
    let tab = b.tabular(root, "records", count);
    b.set_auto(count, AutoValue::CounterOf(tab));
    let item = b.sequence(tab, "item", Boundary::Delegated);
    b.uint_be(item, "key", 4);
    b.uint_be(item, "flags", 2);
    b.terminal(item, "payload", TerminalKind::Bytes, Boundary::Fixed(24));
    b.terminal(root, "tail", TerminalKind::Bytes, Boundary::End);
    b.build().unwrap()
}

/// Allocations of 50 warmed relay round trips — clear frame decoded,
/// transcoded into `obf`, encoded, decoded and transcoded back — after
/// checking the round trip is lossless.
fn relay_allocations(clear: &Codec, obf: &Codec, msg: &protoobf_core::Message<'_>) -> u64 {
    let (mut clear_parser, mut obf_parser) = (clear.parser(), obf.parser());
    let (mut clear_serializer, mut obf_serializer) = (clear.serializer(), obf.serializer());
    let mut to_obf = obf.transcode_target(clear).unwrap();
    let mut to_clear = clear.transcode_target(obf).unwrap();
    let (mut clear_wire, mut obf_wire, mut back_wire) = (Vec::new(), Vec::new(), Vec::new());
    clear_serializer.serialize_into_seeded(msg, &mut clear_wire, 1).unwrap();
    let mut round_trip = |seed: u64| {
        let inbound = clear_parser.parse_in_place(&clear_wire).unwrap();
        inbound.transcode_into(&mut to_obf).unwrap();
        obf_serializer.serialize_into_seeded(&to_obf, &mut obf_wire, seed).unwrap();
        let upstream = obf_parser.parse_in_place(&obf_wire).unwrap();
        upstream.transcode_into(&mut to_clear).unwrap();
        clear_serializer.serialize_into_seeded(&to_clear, &mut back_wire, seed).unwrap();
    };
    for round in 0..5u64 {
        round_trip(round);
    }
    let before = allocations();
    for round in 0..50u64 {
        round_trip(round);
    }
    let allocated = allocations() - before;
    assert_eq!(back_wire, clear_wire, "relay round trip must be lossless");
    allocated
}

/// The loop kernels on the benchmark's bulk table, at level 0 and at its
/// level-2 derivation (the benchmark's shared secret), where every counted
/// loop runs an element kernel and every table loop of either relay
/// direction is a column copy: element kernels and column copies
/// allocate nothing once warm, in the sessions and in the relay round
/// trip.
#[test]
fn bulk_loop_kernels_do_not_allocate() {
    let graph = bulk_graph();
    let clear = Codec::identity(&graph);
    let obf =
        Obfuscator::new(&graph).key("e2ebench shared secret").max_per_node(2).obfuscate().unwrap();
    for (src, dst) in [(&clear, &clear), (&clear, &obf), (&obf, &clear)] {
        let prog = CopyProgram::compile(src.obf_graph(), dst.obf_graph()).unwrap();
        let columns = prog.column_copies();
        assert!(columns.loops > 0 && columns.kernels == columns.loops, "{columns:?}");
    }
    for (what, codec) in [("level 0", &clear), ("level 2", &obf)] {
        // Every counted loop runs its element kernel, mirrored columns
        // included.
        let runs = codec.plan().element_kernels();
        assert!(runs.loops > 0 && runs.kernels == runs.loops, "{what}: {runs:?}");
        let mut msg = codec.message_seeded(1);
        for i in 0..256u64 {
            msg.set_uint(&format!("records[{i}].key"), i * 7919).unwrap();
            msg.set_uint(&format!("records[{i}].flags"), i).unwrap();
            msg.set(&format!("records[{i}].payload"), vec![i as u8; 24]).unwrap();
        }
        msg.set("tail", vec![0xAB; 512]).unwrap();

        let mut serializer = codec.serializer();
        let mut parser = codec.parser();
        let mut wire = Vec::new();
        for round in 0..5u64 {
            serializer.serialize_into_seeded(&msg, &mut wire, round).unwrap();
            parser.parse_in_place(&wire).unwrap();
        }
        let before = allocations();
        for round in 0..50u64 {
            serializer.serialize_into_seeded(&msg, &mut wire, round).unwrap();
            parser.parse_in_place(&wire).unwrap();
        }
        assert_eq!(allocations() - before, 0, "{what}: steady-state bulk sessions allocated");

        let clear_msg = msg.transcode(clear.obf_graph()).unwrap();
        assert_eq!(relay_allocations(&clear, codec, &clear_msg), 0, "{what}: bulk relay allocated");
    }
}

/// The transport responder's per-reply path: sampling into a pooled
/// message ([`protoobf_core::sample::sample_into`]) reuses the message's
/// wire/presence/count stores and its evaluation scratch, and addresses
/// fields by node and inline scope. A warmed refill may allocate at most
/// twice per sampled terminal — the drawn value, plus the delimiter-safe
/// charset for delimited text — and nothing for paths or bookkeeping. It
/// must also allocate strictly less than building a fresh message per
/// draw.
#[test]
fn pooled_reply_sampling_beats_fresh_messages() {
    use protoobf_core::sample::{random_message_pinned, sample_into};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let graph = audit_graph();
    const DRAWS: u64 = 50;

    for (what, level) in [("identity", 0u32), ("obfuscated", 3)] {
        let codec = if level == 0 {
            protoobf_core::Codec::identity(&graph)
        } else {
            Obfuscator::new(&graph).seed(9).max_per_node(level).obfuscate().unwrap()
        };

        // Fresh-message baseline: what the responder used to do per reply.
        let mut rng = StdRng::seed_from_u64(11);
        let before = allocations();
        for _ in 0..DRAWS {
            let _ = random_message_pinned(&codec, &mut rng, &[]);
        }
        let fresh = allocations() - before;

        // Pooled refill over the same rng stream, stores warmed first.
        let mut rng = StdRng::seed_from_u64(11);
        let mut reply = codec.message_seeded(1);
        for _ in 0..5 {
            sample_into(&codec, &mut reply, &mut rng, &[]);
        }
        let (mut pooled, mut terminals) = (0, 0);
        for _ in 0..DRAWS {
            let before = allocations();
            sample_into(&codec, &mut reply, &mut rng, &[]);
            pooled += allocations() - before;
            // Sampled (non-auto) terminals: `data`, `code`, one `v` per item.
            terminals += 2 + reply.element_count("items") as u64;
        }

        assert!(
            pooled <= 2 * terminals,
            "{what}: warmed sampling allocated {pooled} times for {terminals} sampled terminals"
        );
        assert!(
            pooled < fresh,
            "{what}: pooled reply refill must allocate less than fresh sampling \
             (pooled {pooled} vs fresh {fresh} allocations over {DRAWS} draws)"
        );
    }
}

/// Every telemetry primitive on its own, driven far enough to hit the
/// paths a short relay loop might miss: the stage-timer sampling branch
/// (period 32), histogram clamp buckets, and the flight-recorder ring
/// wrapping past its capacity. None of it may allocate after
/// construction.
#[test]
fn telemetry_primitives_do_not_allocate() {
    let metrics = Metrics::new();

    let before = allocations();
    for i in 0..4096u64 {
        Metrics::add(&metrics.messages_in, 1);
        Metrics::add(&metrics.bytes_in, 64);
        metrics.wake_latency.record(i);
        metrics.frame_bytes_in.record(i.wrapping_mul(0x9E37_79B9));
        metrics.frame_bytes_out.record(u64::MAX - i);
        let t = metrics.stages.serialize.start();
        metrics.stages.serialize.finish(t);
        let t = metrics.stages.parse.start();
        metrics.stages.parse.finish(t);
        metrics.recorder.record(EventKind::Accept, 0x7f00_0001_0000 | i, 0);
    }
    assert_eq!(allocations() - before, 0, "telemetry instrumentation allocated");

    // Sanity outside the measured window: everything actually moved.
    let snap = metrics.snapshot();
    assert_eq!(snap.messages_in, 4096);
    assert_eq!(snap.wake_latency.count(), 4096);
    assert_eq!(snap.stages.serialize.calls, 4096);
    assert!(snap.stages.serialize.latency.count() >= 4096 / 32, "sampling branch never fired");
    assert_eq!(metrics.recorder.recorded(), 4096, "ring must have wrapped");
    assert!(metrics.recorder.dump().len() <= metrics.recorder.capacity());
}
