//! # protoobf-transport
//!
//! Stage 6 of the pipeline — **Transport**: carrying obfuscated traffic
//! between real endpoints, the paper's deployment model of a pair of
//! obfuscation gateways sitting on the wire between an unmodified client
//! and server.
//!
//! ```text
//!  client ──clear──▶ [encode gateway] ──obfuscated──▶ [decode gateway] ──clear──▶ server
//!         ◀──clear── (responses follow the reverse path) ◀──clear──
//! ```
//!
//! The crate is built from three layers, each usable on its own:
//!
//! * [`conn::Conn`] — a **sans-io connection state machine**: let it read
//!   a stream straight into its frame buffer ([`conn::Conn::read_inbound`])
//!   or feed it raw transport bytes ([`conn::Conn::feed_inbound`]), poll
//!   decoded messages ([`conn::Conn::poll_inbound`]), queue outbound
//!   messages ([`conn::Conn::send`]) and drain the encoded bytes
//!   ([`conn::Conn::outbound`], [`conn::Conn::consume_outbound`]). It owns
//!   no socket: any transport — TCP, in-memory test pipes, a fuzzer — can
//!   drive it. Each `Conn` holds one pooled parser and one pooled
//!   serializer checked out of a shared [`protoobf_core::CodecService`]
//!   for its whole lifetime, so one compiled plan serves every connection
//!   and steady-state per-message work is allocation-free.
//! * [`evloop`] — a **non-blocking event loop** over `std::net` sockets
//!   (the build environment has no async runtime; none is needed):
//!   thread-per-core workers each accept and drive their own set of
//!   sessions, all running one worker loop with two readiness sources.
//!   On Linux the workers get true kernel readiness from [`sys`] — a
//!   dependency-free raw-syscall epoll shim (edge-triggered, O(1) idle
//!   wakes at any connection count); everywhere else, when epoll setup
//!   fails, and under `PROTOOBF_EVLOOP=scan`, every live session counts
//!   as ready on every pass, with exponential idle backoff. Accepts are
//!   capped per wake ([`evloop::LoopConfig::accept_burst`]) so a
//!   connect flood cannot starve established sessions, and every
//!   session's outbound queue is capped
//!   ([`conn::Conn::outbound_cap`]) so a slow reader stalls its own
//!   stream instead of growing gateway memory.
//! * [`gateway::Gateway`] — the obfuscating relay: the ingress side parses
//!   obfuscated frames into clear messages, the egress side re-serializes
//!   clear messages into obfuscated frames, transcoding through the shared
//!   plain specification ([`protoobf_core::Message::transcode_into`],
//!   which runs a compiled plan-level copy program shared per codec
//!   pairing — the whole steady-state relay loop allocates nothing).
//!
//! [`metrics::Metrics`] instruments all of it — counters plus a
//! lock-free log-bucketed wake-latency histogram
//! ([`metrics::LatencyHistogram`], p50/p95/p99) and edge-detected
//! backpressure stall counts.
//!
//! Deployments configure the whole stack through a
//! [`protoobf_core::profile::Profile`]: [`gateway::Gateway::from_endpoint`]
//! wires a (possibly **asymmetric** — distinct request/response grammars
//! per direction) gateway from a compiled endpoint, and
//! [`conn::Conn::initiator`] / [`conn::Conn::responder`] do the same for
//! natively obfuscated peers. Both sides of a deployment hold copies of
//! one profile file and verify their derivations agree by comparing
//! fingerprints before sending traffic.

// The crate's unsafe surface (the raw-syscall epoll shim in [`sys`])
// must stay explicit and documented: every unsafe operation sits in its
// own block with a SAFETY comment, even inside unsafe fns.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_debug_implementations)]

pub mod admin;
pub mod conn;
pub mod error;
pub mod evloop;
pub mod gateway;
pub mod metrics;
pub mod sys;
pub mod tunnel;

pub use admin::{serve_admin, AdminConn};
pub use conn::{Conn, ConnState};
pub use error::TransportError;
pub use evloop::{serve, Drive, LoopConfig, Session};
pub use gateway::{Echo, Gateway, GatewayMode, LegServices, Relay, Responder};
pub use metrics::{peer_token, Metrics, MetricsSnapshot, Telemetry};
pub use tunnel::{spawn_reader, wake_pair, PayloadBuf, TunnelSession};
