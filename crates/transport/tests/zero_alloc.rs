//! Steady-state allocation audit of the transport's read path: bulk
//! frames read through [`Conn::read_inbound`] from an in-memory stream,
//! decoded, transcoded and forwarded onto the next connection allocate
//! nothing once the first frame has sized the buffers.
//!
//! The counter is **thread-local**, as in the core crate's audit: the
//! libtest harness allocates on its own threads at any time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use protoobf_core::graph::{AutoValue, Boundary, GraphBuilder};
use protoobf_core::service::CodecService;
use protoobf_core::value::TerminalKind;
use protoobf_core::{Codec, FormatGraph, Obfuscator};
use protoobf_transport::Conn;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
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

/// The benchmark's bulk record table (`e2ebench/specs/bulk.spec`).
fn bulk_graph() -> FormatGraph {
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

#[test]
fn bulk_frames_read_from_a_stream_and_forwarded_do_not_allocate() {
    let graph = bulk_graph();
    let clear = CodecService::new(Codec::identity(&graph));
    let obf = CodecService::new(
        Obfuscator::new(&graph).key("e2ebench shared secret").max_per_node(2).obfuscate().unwrap(),
    );
    let mut msg = clear.codec().message_seeded(1);
    for i in 0..2048u64 {
        msg.set_uint(&format!("records[{i}].key"), i * 7919).unwrap();
        msg.set_uint(&format!("records[{i}].flags"), i).unwrap();
        msg.set(&format!("records[{i}].payload"), vec![i as u8; 24]).unwrap();
    }
    msg.set("tail", vec![0xAB; 4096]).unwrap();
    let mut client = Conn::new(&clear, &clear);
    client.send(&msg).unwrap();
    let frame = client.outbound().to_vec();
    assert!(frame.len() > 64 * 1024);
    let rounds = 30;
    let stream = frame.repeat(rounds);
    let mut src = stream.as_slice();

    // Encode gateway: clear in, obfuscated out; decode gateway: the
    // reverse, its inbound read from the encode side's outbound queue.
    let mut enc_in = Conn::new(&clear, &clear);
    let mut enc_out = Conn::new(&obf, &obf);
    let mut dec_in = Conn::new(&obf, &obf);
    let mut dec_out = Conn::new(&clear, &clear);
    let mut to_obf = obf.transcode_target(&clear).unwrap();
    let mut to_clear = clear.transcode_target(&obf).unwrap();
    let mut relayed = Vec::with_capacity(rounds);
    let mut hop = |round: usize| {
        while enc_in.messages_in() <= round as u64 {
            if let Some(m) = enc_in.poll_inbound().unwrap() {
                m.transcode_into(&mut to_obf).unwrap();
                enc_out.send(&to_obf).unwrap();
            } else {
                enc_in.read_inbound(&mut src).unwrap();
            }
        }
        while dec_in.messages_in() <= round as u64 {
            if let Some(m) = dec_in.poll_inbound().unwrap() {
                m.transcode_into(&mut to_clear).unwrap();
                dec_out.send(&to_clear).unwrap();
            } else {
                let mut wire = enc_out.outbound();
                let n = dec_in.read_inbound(&mut wire).unwrap();
                enc_out.consume_outbound(n);
            }
        }
        let out = dec_out.outbound();
        let same = out == frame.as_slice();
        let n = out.len();
        dec_out.consume_outbound(n);
        same
    };
    assert!(hop(0), "the relayed frame differs from the sent one");
    let before = allocations();
    for round in 1..rounds {
        relayed.push(hop(round));
    }
    let allocated = allocations() - before;
    assert!(relayed.iter().all(|&same| same), "a relayed frame differs from the sent one");
    assert_eq!(allocated, 0, "steady-state read and forward allocated");
}
