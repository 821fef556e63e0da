//! Obfuscated Modbus over a real TCP loopback connection between two
//! native endpoints — the deployment shape the paper's framework targets
//! (generated library linked into both communicating applications).
//!
//! Both sides build their whole stack from a copy of one asymmetric
//! profile (requests one way, responses the other) and drive a sans-io
//! `Conn` over a blocking `TcpStream`: `send` queues one frame that a
//! single `write_all` flushes, and `read_inbound` reads the socket
//! straight into the frame buffer until `poll_inbound` decodes a message.
//!
//! ```sh
//! cargo run --example tcp_framing
//! ```

use std::error::Error;
use std::io::Write;
use std::net::{TcpListener, TcpStream};

use protoobf::protocols::modbus::{self, Function};
use protoobf::transport::{Conn, ConnState};
use protoobf::{Profile, ProfileExt};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// In a real deployment this is a file both applications hold a copy of.
const PROFILE_TEXT: &str = r#"
profile protoobf/1
tx builtin:modbus-request
rx builtin:modbus-response
key "tcp framing demo secret"
level 2
"#;

type Fallible<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// Writes every outbound byte `conn` has queued to `stream`.
fn flush(conn: &mut Conn<'_>, mut stream: &TcpStream) -> std::io::Result<()> {
    stream.write_all(conn.outbound())?;
    conn.consume_outbound(conn.outbound_len());
    Ok(())
}

/// Reads `stream` until `conn` decodes a message and returns its Modbus
/// function code; `None` when the peer closed at a frame boundary.
fn next_function(conn: &mut Conn<'_>, mut stream: &TcpStream) -> Fallible<Option<u64>> {
    loop {
        if let Some(msg) = conn.poll_inbound()? {
            return Ok(Some(msg.get_uint("pdu.function")?));
        }
        if conn.state() == ConnState::PeerClosed {
            return Ok(None);
        }
        conn.read_inbound(&mut stream)?;
    }
}

/// The responder: answers each request with a response of its function.
fn serve(listener: &TcpListener) -> Fallible<usize> {
    let endpoint = Profile::parse(PROFILE_TEXT)?.build()?;
    let (stream, peer) = listener.accept()?;
    println!("server: connection from {peer}");
    let mut conn = Conn::responder(&endpoint);
    let mut rng = StdRng::seed_from_u64(1);
    let mut served = 0usize;
    while let Some(fc) = next_function(&mut conn, &stream)? {
        let function = Function::ALL
            .into_iter()
            .find(|f| u64::from(f.code()) == fc)
            .ok_or_else(|| format!("unknown function {fc}"))?;
        let codec = endpoint.rx_service().codec();
        conn.send(&modbus::build_response(codec, function, false, &mut rng))?;
        flush(&mut conn, &stream)?;
        served += 1;
    }
    Ok(served)
}

fn main() -> Fallible<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    println!("server listening on {addr}");

    let server = std::thread::spawn(move || serve(&listener));

    // Client side: an independent derivation from its own copy.
    let endpoint = Profile::parse(PROFILE_TEXT)?.build()?;
    println!("fingerprint {}", endpoint.fingerprint());
    let stream = TcpStream::connect(addr)?;
    let mut conn = Conn::initiator(&endpoint);
    let mut rng = StdRng::seed_from_u64(2);
    for function in Function::ALL {
        let codec = endpoint.tx_service().codec();
        conn.send(&modbus::build_request(codec, function, &mut rng))?;
        flush(&mut conn, &stream)?;
        let fc = next_function(&mut conn, &stream)?.ok_or("server hung up")?;
        assert_eq!(fc, u64::from(function.code()));
        println!("client: {function:?} ok");
    }
    stream.shutdown(std::net::Shutdown::Write)?;
    let served = server.join().expect("server thread")?;
    println!("\nserver handled {served} obfuscated requests over TCP ✓");
    Ok(())
}
