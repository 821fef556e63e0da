//! Socket-level differential of the relay's read path: a real
//! encode → decode → echo chain over loopback relays every frame back
//! byte-identical, whatever its size and however the client splits its
//! writes. The legs read each socket straight into their frame buffers,
//! so the cases sit at that buffer's edges: frames of 0 and 1 bytes, one
//! either side of the least read room (`READ_MIN`), 64 KiB and 1 MiB;
//! a burst of pipelined frames sent in one `write`; and a 64 KiB frame
//! dribbled in small writes.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use protoobf_core::framing::{FrameReader, READ_MIN};
use protoobf_core::graph::{Boundary, GraphBuilder};
use protoobf_core::profile::{Endpoint, Profile, SpecSource};
use protoobf_core::service::CodecService;
use protoobf_core::value::TerminalKind;
use protoobf_core::{Codec, FormatGraph};
use protoobf_transport::{evloop, Echo, Gateway, GatewayMode, LoopConfig, Metrics};

/// One field that takes the whole frame: a clear frame's body is the
/// message's bytes, so each case picks its frame size exactly.
fn blob_graph() -> FormatGraph {
    let mut b = GraphBuilder::new("blob");
    let root = b.root_sequence("m", Boundary::End);
    b.terminal(root, "body", TerminalKind::Bytes, Boundary::End);
    b.build().unwrap()
}

fn endpoint() -> Endpoint {
    let resolve = |_: &SpecSource| Ok::<_, String>(blob_graph());
    Profile::symmetric(SpecSource::Builtin("blob".into()))
        .key("read path secret")
        .level(2)
        .build_with(&resolve)
        .unwrap()
}

/// A deterministic body of `n` bytes.
fn body(n: usize, salt: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 + salt * 7 + n) as u8).collect()
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Runs the chain, hands `client` the encode gateway's address, then
/// shuts everything down; every gateway must end with no failed relay.
fn with_chain(client: impl FnOnce(SocketAddr) + Send) {
    let server_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server_addr = server_listener.local_addr().unwrap();
    let decode_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let decode_addr = decode_listener.local_addr().unwrap();
    let encode_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let encode_addr = encode_listener.local_addr().unwrap();

    let encode_gw = Gateway::from_endpoint(&endpoint(), GatewayMode::Encode, decode_addr).unwrap();
    let decode_gw = Gateway::from_endpoint(&endpoint(), GatewayMode::Decode, server_addr).unwrap();
    let server_svc = CodecService::new(Codec::identity(&blob_graph()));
    let server_metrics = Metrics::new();
    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig { workers: 1, accept_limit: None, ..LoopConfig::default() };

    std::thread::scope(|scope| {
        let loops = [
            scope.spawn(|| {
                evloop::serve(server_listener, &cfg, &shutdown, &server_metrics, |s, _| {
                    Ok(Echo::new(s, &server_svc, &server_metrics))
                })
            }),
            scope.spawn(|| decode_gw.serve(decode_listener, &cfg, &shutdown)),
            scope.spawn(|| encode_gw.serve(encode_listener, &cfg, &shutdown)),
        ];
        client(encode_addr);
        shutdown.store(true, Ordering::Relaxed);
        for l in loops {
            l.join().unwrap().unwrap();
        }
    });
    for stats in [encode_gw.metrics().snapshot(), decode_gw.metrics().snapshot()] {
        assert_eq!(stats.failed, 0, "no relay may fail: {stats}");
    }
    assert_eq!(server_metrics.snapshot().failed, 0);
}

/// Connects a client with `TCP_NODELAY`, so each `write` leaves as its
/// own segments.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream
}

const SIZES: [usize; 8] = [0, 1, READ_MIN - 1, READ_MIN, READ_MIN + 1, 64 * 1024, 1 << 20, 3];

#[test]
fn frames_at_the_read_edges_relay_byte_identical() {
    let clear = Codec::identity(&blob_graph());
    with_chain(|addr| {
        let mut stream = connect(addr);
        let mut reader = FrameReader::new(&clear, stream.try_clone().unwrap());
        // Twice over, so the second pass reads into the room the first
        // one grew.
        for (i, &n) in SIZES.iter().chain(SIZES.iter()).enumerate() {
            let sent = body(n, i);
            stream.write_all(&framed(&sent)).unwrap();
            let echoed = reader.recv_raw().unwrap().expect("echo before EOF");
            assert!(echoed == sent, "frame {i} of {n} bytes came back different");
        }
    });
}

#[test]
fn pipelined_burst_in_one_write_relays_byte_identical() {
    let clear = Codec::identity(&blob_graph());
    with_chain(|addr| {
        let mut stream = connect(addr);
        let mut reader = FrameReader::new(&clear, stream.try_clone().unwrap());
        let bodies: Vec<Vec<u8>> = (0..40).map(|i| body(SIZES[i % SIZES.len()], i)).collect();
        let burst: Vec<u8> = bodies.iter().flat_map(|b| framed(b)).collect();
        // Write from another thread: the burst is larger than the
        // socket buffers, so its echoes must be read while it is sent.
        std::thread::scope(|scope| {
            scope.spawn(|| stream.write_all(&burst).unwrap());
            for (i, sent) in bodies.iter().enumerate() {
                let echoed = reader.recv_raw().unwrap().expect("echo before EOF");
                assert!(&echoed == sent, "burst frame {i} came back different");
            }
        });
    });
}

#[test]
fn dribbled_large_frame_relays_byte_identical() {
    let clear = Codec::identity(&blob_graph());
    with_chain(|addr| {
        let mut stream = connect(addr);
        let mut reader = FrameReader::new(&clear, stream.try_clone().unwrap());
        for (round, chunk) in [1usize, 3, 997, READ_MIN + 1].into_iter().enumerate() {
            let sent = body(64 * 1024, round);
            let wire = framed(&sent);
            for (k, piece) in wire.chunks(chunk).enumerate() {
                stream.write_all(piece).unwrap();
                // Let some pieces arrive on their own, so the legs read
                // the frame in parts, prefix included.
                if k < 8 || k % 64 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            let echoed = reader.recv_raw().unwrap().expect("echo before EOF");
            assert!(echoed == sent, "dribbled frame in {chunk}-byte writes came back different");
        }
    });
}
