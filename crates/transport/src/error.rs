//! The transport layer's typed error: every way a connection can go wrong,
//! without a panic path.

use std::io;

use protoobf_core::framing::FrameError;
use protoobf_core::tunnel::TunnelError;
use protoobf_core::BuildError;

/// Errors surfaced by connections, relays and the event loop. Hostile
/// input (bad frames, undecodable bytes, oversized prefixes) arrives as
/// [`TransportError::Frame`] and closes the connection — it must never
/// panic the process.
#[derive(Debug)]
pub enum TransportError {
    /// Underlying socket/stream failure.
    Io(io::Error),
    /// The framing layer rejected the byte stream (truncation, hostile
    /// length prefix, undecodable frame).
    Frame(FrameError),
    /// A message could not be re-serialized (relay-side build failure).
    Build(BuildError),
    /// The operation was attempted on a connection that is closed or has
    /// already failed.
    Closed,
    /// The connection's outbound queue is at its configured byte cap
    /// ([`crate::conn::Conn::outbound_cap`]): the peer (or the socket) is
    /// not draining as fast as the caller produces. Not fatal — the
    /// connection stays open; retry after the transport has flushed.
    /// Cooperative callers (the gateway relay) avoid this error entirely
    /// by checking [`crate::conn::Conn::can_send`] and pausing their
    /// *inbound* side instead, propagating the pressure to the sender.
    Backpressure {
        /// Bytes currently queued outbound.
        queued: usize,
        /// The configured cap the queue is at or over.
        cap: usize,
    },
    /// The covert payload channel failed: corrupt tunnel frames, a
    /// truncated stream, or a carrier-free specification (see
    /// [`protoobf_core::tunnel::TunnelError`]). Closes the session — a
    /// tunnel that cannot deliver its payload byte-identically must not
    /// keep pumping.
    Tunnel(TunnelError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Frame(e) => write!(f, "framing error: {e}"),
            TransportError::Build(e) => write!(f, "relay serialization error: {e}"),
            TransportError::Closed => write!(f, "connection is closed"),
            TransportError::Backpressure { queued, cap } => {
                write!(f, "outbound queue at capacity ({queued} of {cap} bytes queued)")
            }
            TransportError::Tunnel(e) => write!(f, "covert tunnel error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Frame(e) => Some(e),
            TransportError::Build(e) => Some(e),
            TransportError::Closed => None,
            TransportError::Backpressure { .. } => None,
            TransportError::Tunnel(e) => Some(e),
        }
    }
}

impl From<TunnelError> for TransportError {
    fn from(e: TunnelError) -> Self {
        TransportError::Tunnel(e)
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<BuildError> for TransportError {
    fn from(e: BuildError) -> Self {
        TransportError::Build(e)
    }
}

impl TransportError {
    /// A stable numeric code per variant, carried as the `detail` of a
    /// flight-recorder [`protoobf_core::telemetry::EventKind::Fail`]
    /// event (events store only integers so recording stays
    /// allocation-free): 1 io, 2 frame, 3 build, 4 closed,
    /// 5 backpressure, 6 tunnel.
    pub fn code(&self) -> u64 {
        match self {
            TransportError::Io(_) => 1,
            TransportError::Frame(_) => 2,
            TransportError::Build(_) => 3,
            TransportError::Closed => 4,
            TransportError::Backpressure { .. } => 5,
            TransportError::Tunnel(_) => 6,
        }
    }
}
