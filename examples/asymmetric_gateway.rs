//! An **asymmetric** gateway chain: one connection, two grammars. The
//! initiator sends DNS *queries* while the responder answers with DNS
//! *responses* — a different spec per direction, the shape of every real
//! request/response protocol. One profile file with distinct `tx`/`rx`
//! halves drives all four stacks on both gateways:
//!
//! ```text
//!        queries ▶                 obf queries ▶                queries ▶
//! client ────────── encode gateway ───────────── decode gateway ───────── server
//!        ◀ responses              ◀ obf responses             ◀ responses
//! ```
//!
//! The example verifies the relay is **byte-identical** in both
//! directions: every query arrives at the server exactly as the client
//! framed it, every response arrives at the client exactly as the server
//! framed it — the gateways in between saw only the obfuscated grammars.
//!
//! ```sh
//! cargo run --example asymmetric_gateway
//! ```

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use protoobf::core::sample::random_message;
use protoobf::transport::{Gateway, GatewayMode, LoopConfig};
use protoobf::{Profile, ProfileExt};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROFILE_TEXT: &str = r#"
profile protoobf/1
tx builtin:dns-query
rx builtin:dns-response
key "asymmetric demo secret"
level 2
"#;

const MSGS: usize = 32;

/// Raw length-prefixed frame bodies, in order, as one side saw them.
type Frames = Vec<Vec<u8>>;

/// Sends `body` as one length-prefixed frame: a clear client frames
/// with std alone, it does not need the library.
fn send_frame(mut stream: &TcpStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&[&(body.len() as u32).to_be_bytes()[..], body].concat())
}

/// Reads one length-prefixed frame body. The body buffer grows with the
/// bytes that arrive, not with what the prefix announces.
fn recv_frame(mut stream: &TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u64::from(u32::from_be_bytes(prefix));
    let mut body = Vec::new();
    if stream.take(len).read_to_end(&mut body)? as u64 != len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let encode_ep = Profile::parse(PROFILE_TEXT)?.build()?;
    let decode_ep = Profile::parse(PROFILE_TEXT)?.build()?;
    assert_eq!(encode_ep.fingerprint(), decode_ep.fingerprint());
    println!("fingerprints agree: {}", encode_ep.fingerprint());
    println!("tx grammar: {} / rx grammar: {}", encode_ep.profile().tx(), encode_ep.profile().rx());

    let server_l = TcpListener::bind("127.0.0.1:0")?;
    let decode_l = TcpListener::bind("127.0.0.1:0")?;
    let encode_l = TcpListener::bind("127.0.0.1:0")?;
    let client_addr = encode_l.local_addr()?;

    let encode_gw =
        Gateway::from_endpoint(&encode_ep, GatewayMode::Encode, decode_l.local_addr()?)?;
    let decode_gw =
        Gateway::from_endpoint(&decode_ep, GatewayMode::Decode, server_l.local_addr()?)?;

    let shutdown = AtomicBool::new(false);
    let cfg = LoopConfig::default();

    let (client_view, server_view) =
        std::thread::scope(|scope| -> Result<_, Box<dyn std::error::Error + Send + Sync>> {
            let loops = [
                scope.spawn(|| decode_gw.serve(decode_l, &cfg, &shutdown)),
                scope.spawn(|| encode_gw.serve(encode_l, &cfg, &shutdown)),
            ];

            // The "real server": receives clear queries, answers with clear
            // responses, and records the raw frames it saw/sent.
            let server = scope.spawn(|| -> std::io::Result<(Frames, Frames)> {
                let query_codec = decode_ep.clear_tx_service().codec();
                let response_codec = decode_ep.clear_rx_service().codec();
                let (stream, _) = server_l.accept()?;
                let mut rng = StdRng::seed_from_u64(7);
                let (mut received, mut sent) = (Vec::new(), Vec::new());
                for _ in 0..MSGS {
                    let query = recv_frame(&stream)?;
                    query_codec.parse(&query).expect("query parses");
                    received.push(query);
                    let reply = random_message(response_codec, &mut rng);
                    let wire = response_codec.serialize(&reply).expect("serialize response");
                    send_frame(&stream, &wire)?;
                    sent.push(wire);
                }
                Ok((received, sent))
            });

            // The client: sends clear queries, records the raw frames it
            // framed and the responses it got back.
            let client = scope.spawn(|| -> std::io::Result<(Frames, Frames)> {
                let query_codec = encode_ep.clear_tx_service().codec();
                let response_codec = encode_ep.clear_rx_service().codec();
                let stream = TcpStream::connect(client_addr)?;
                let mut rng = StdRng::seed_from_u64(3);
                let (mut sent, mut received) = (Vec::new(), Vec::new());
                for _ in 0..MSGS {
                    let query = random_message(query_codec, &mut rng);
                    let wire = query_codec.serialize(&query).expect("serialize query");
                    send_frame(&stream, &wire)?;
                    sent.push(wire);
                    let response = recv_frame(&stream)?;
                    response_codec.parse(&response).expect("response parses");
                    received.push(response);
                }
                Ok((sent, received))
            });

            let client_view = client.join().expect("client thread")?;
            let server_view = server.join().expect("server thread")?;
            shutdown.store(true, Ordering::Relaxed);
            for l in loops {
                l.join().expect("loop thread")?;
            }
            Ok((client_view, server_view))
        })
        .map_err(|e| -> Box<dyn std::error::Error> { e })?;

    let (client_sent, client_received) = client_view;
    let (server_received, server_sent) = server_view;
    assert_eq!(client_sent, server_received, "queries must relay byte-identical");
    assert_eq!(server_sent, client_received, "responses must relay byte-identical");
    println!(
        "{MSGS} queries and {MSGS} responses relayed byte-identical across distinct \
         per-direction grammars ✓"
    );
    println!("encode gateway: {}", encode_gw.metrics().snapshot());
    println!("decode gateway: {}", decode_gw.metrics().snapshot());
    Ok(())
}
