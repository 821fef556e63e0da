//! Test support shared by the transport suites: raw length-prefixed
//! frames for blocking socket clients, an in-memory duplex transport
//! (socket-free byte pipes with non-blocking semantics), plus a shuttle
//! that pumps two sans-io [`Conn`]s against each other under arbitrary
//! chunking patterns (1-byte trickle, pipelined bursts, mid-stream cuts).

// Each suite that includes this module uses only part of it.
#![allow(dead_code)]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

use protoobf_transport::{Conn, TransportError};

/// One raw frame: the 4-byte big-endian length prefix, then `body`.
pub fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Reads one raw frame body from a blocking stream.
///
/// # Errors
///
/// Those of `read_exact`: the stream ended or failed inside the frame.
pub fn recv_frame(mut src: impl Read) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    src.read_exact(&mut prefix)?;
    let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
    src.read_exact(&mut body)?;
    Ok(body)
}

#[derive(Debug, Default)]
struct Shared {
    /// Bytes in flight from end 0 to end 1 and back.
    queues: [VecDeque<u8>; 2],
    /// Write side of each end closed?
    closed: [bool; 2],
}

/// One end of an in-memory duplex stream. `Read`/`Write` behave like a
/// non-blocking socket: reads on an empty pipe return `WouldBlock` (or
/// `Ok(0)` once the peer closed), and reads deliver at most `max_chunk`
/// bytes per call to exercise partial-read handling.
#[derive(Debug)]
pub struct MemStream {
    shared: Arc<Mutex<Shared>>,
    /// Which end this is (0 or 1).
    side: usize,
    max_chunk: usize,
}

/// Creates a connected pair of in-memory streams; each read delivers at
/// most `max_chunk` bytes (use 1 for the hardest trickle).
pub fn mem_duplex(max_chunk: usize) -> (MemStream, MemStream) {
    let shared = Arc::new(Mutex::new(Shared::default()));
    (
        MemStream { shared: Arc::clone(&shared), side: 0, max_chunk: max_chunk.max(1) },
        MemStream { shared, side: 1, max_chunk: max_chunk.max(1) },
    )
}

impl MemStream {
    /// Closes this end's write side: the peer will see `Ok(0)` (EOF) once
    /// it drains the in-flight bytes.
    pub fn close(&self) {
        self.shared.lock().unwrap_or_else(|e| e.into_inner()).closed[self.side] = true;
    }

    /// Bytes currently in flight toward this end.
    pub fn pending(&self) -> usize {
        self.shared.lock().unwrap_or_else(|e| e.into_inner()).queues[1 - self.side].len()
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut shared = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        let peer = 1 - self.side;
        let queue = &mut shared.queues[peer];
        if queue.is_empty() {
            return if shared.closed[peer] {
                Ok(0)
            } else {
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            };
        }
        let n = buf.len().min(self.max_chunk).min(queue.len());
        for slot in buf.iter_mut().take(n) {
            *slot = queue.pop_front().expect("length checked");
        }
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut shared = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        if shared.closed[self.side] {
            return Err(io::Error::from(io::ErrorKind::BrokenPipe));
        }
        shared.queues[self.side].extend(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Moves every queued outbound byte between two sans-io connections, in
/// chunks whose sizes the caller controls: `chunk_size(i)` bounds the
/// `i`-th transfer (sizes are clamped to at least one byte). Returns the
/// total number of bytes moved in both directions.
///
/// The shuttle only moves **bytes** — decoding (`poll_inbound`) and
/// replying stay with the caller, keeping the state machine's edges
/// visible to tests.
///
/// # Errors
///
/// Propagates `feed_inbound` failures (e.g. feeding a failed connection).
pub fn shuttle(
    a: &mut Conn<'_>,
    b: &mut Conn<'_>,
    mut chunk_size: impl FnMut(usize) -> usize,
) -> Result<usize, TransportError> {
    fn one_way(
        src: &mut Conn<'_>,
        dst: &mut Conn<'_>,
        chunk_size: &mut impl FnMut(usize) -> usize,
        step: &mut usize,
    ) -> Result<usize, TransportError> {
        let mut moved = 0usize;
        while src.has_outbound() {
            let n = chunk_size(*step).max(1).min(src.outbound().len());
            *step += 1;
            dst.feed_inbound(&src.outbound()[..n])?;
            src.consume_outbound(n);
            moved += n;
        }
        Ok(moved)
    }

    let mut moved = 0usize;
    let mut step = 0usize;
    loop {
        let forward = one_way(a, b, &mut chunk_size, &mut step)?;
        let backward = one_way(b, a, &mut chunk_size, &mut step)?;
        moved += forward + backward;
        if forward + backward == 0 {
            return Ok(moved);
        }
    }
}
