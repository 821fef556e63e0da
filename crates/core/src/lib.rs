//! # protoobf-core
//!
//! Specification-based protocol obfuscation, after *"Specification-Based
//! Protocol Obfuscation"* (Duchêne, Alata, Nicomette, Kaâniche,
//! Le Guernic — DSN 2018).
//!
//! The crate implements the paper's full pipeline, extended with a
//! compiled execution stage:
//!
//! 1. **Specify** — a protocol's message format is described as a
//!    [`graph::FormatGraph`] (built programmatically with
//!    [`graph::GraphBuilder`] or from the DSL in the `protoobf-spec`
//!    crate);
//! 2. **Obfuscate** — the [`engine::Obfuscator`] derives an obfuscation
//!    graph ([`obf::ObfGraph`]) by randomly applying the paper's
//!    invertible generic transformations ([`transform`]);
//! 3. **Compile** — the [`codec::Codec`] lowers the final graph once into
//!    a flat [`plan::CodecPlan`]: dense `u32` slot indices replace every
//!    per-message map lookup, and auto-field/length/split dependencies
//!    become pre-resolved recovery programs (the compiled analogue of the
//!    paper's *generated* serializer/parser pair);
//! 4. **Run** — reusable sessions ([`codec::Codec::serializer`] /
//!    [`codec::Codec::parser`]) interpret the plan with session-owned
//!    scratch stores: steady-state `serialize_into`/`parse_in_place`
//!    performs no hashing and no per-message heap allocation (auto-field
//!    materialization runs compiled distribution programs, the forward
//!    mirror of the recovery programs), while applications keep using the
//!    **stable accessor interface** ([`message::Message`]) keyed on
//!    plain-spec field paths;
//! 5. **Serve** — a [`service::CodecService`] shares one codec (and its
//!    compiled plan) across any number of threads, checking warmed
//!    serializer and parser sessions out of two capped pools;
//! 6. **Transport** — the `protoobf-transport` crate carries the framed
//!    traffic over real (non-blocking) sockets: a sans-io connection state
//!    machine holds long-lived pooled sessions from the service, an event
//!    loop drives thousands of concurrent connections, and an obfuscating
//!    gateway pair transcodes between clear and obfuscated codecs through
//!    the shared plain specification ([`message::Message::transcode_into`],
//!    running a compiled [`plan::CopyProgram`] per codec pairing so the
//!    steady-state relay loop is allocation-free; backed by this crate's
//!    resumable [`framing::FrameReader`] and the cursor-based,
//!    capacity-bounded [`framing::FrameBuffer`]);
//! 7. **Configure** — a [`profile::Profile`] bundles the whole endpoint
//!    configuration into one serializable, shared-secret-keyed object:
//!    spec sources (distinct per direction for asymmetric
//!    request/response protocols), the obfuscation key/level/transform
//!    set, and the frame limit. [`profile::Profile::build_with`] compiles
//!    it into a [`profile::Endpoint`] (obfuscated + clear services both
//!    ways) whose [`profile::Fingerprint`] — a stable digest over the
//!    compiled plans — lets both peers verify they derived identical
//!    stacks before any traffic flows.
//!
//! The one-shot [`codec::Codec::serialize`]/[`codec::Codec::parse`] entry
//! points remain as thin wrappers over the cached plan; the original
//! graph-walk interpreters survive as reference implementations
//! ([`serialize::serialize_seeded`], [`parse::parse`]) that the plan path
//! is differentially tested against.
//!
//! ```
//! use protoobf_core::graph::{Boundary, GraphBuilder};
//! use protoobf_core::engine::Obfuscator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("demo");
//! let root = b.root_sequence("msg", Boundary::End);
//! b.uint_be(root, "id", 2);
//! b.uint_be(root, "code", 4);
//! let graph = b.build()?;
//!
//! let codec = Obfuscator::new(&graph).seed(42).max_per_node(2).obfuscate()?;
//!
//! // Steady-state path: hold the sessions and buffers across messages —
//! // after warm-up, encode/decode reuses all scratch state.
//! let mut serializer = codec.serializer();
//! let mut parser = codec.parser();
//! let mut wire = Vec::new();
//! for id in [0x1234u64, 0x5678] {
//!     let mut msg = codec.message();
//!     msg.set_uint("id", id)?;
//!     msg.set_uint("code", 7)?;
//!     serializer.serialize_into(&msg, &mut wire)?;
//!     let back = parser.parse_in_place(&wire)?;
//!     assert_eq!(back.get_uint("id")?, id);
//! }
//!
//! // One-shot compat path (same compiled plan under the hood).
//! let mut msg = codec.message();
//! msg.set_uint("id", 1)?;
//! msg.set_uint("code", 7)?;
//! let wire = codec.serialize(&msg)?;
//! assert_eq!(codec.parse(&wire)?.get_uint("id")?, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod dot;
pub mod engine;
pub mod error;
pub mod extent;
pub mod framing;
pub mod fuzz;
pub mod graph;
pub mod message;
pub mod obf;
pub mod parse;
pub mod path;
pub mod plan;
pub mod profile;
pub mod runtime;
pub mod sample;
pub mod serialize;
pub mod service;
pub mod telemetry;
pub mod transform;
pub mod tunnel;
pub mod value;
pub mod verify;

pub use codec::Codec;
pub use engine::Obfuscator;
pub use error::{BuildError, ParseError, SpecError, TransformError};
pub use graph::{Boundary, FormatGraph, GraphBuilder, NodeId};
pub use message::Message;
pub use path::Path;
pub use profile::{
    Endpoint, Fingerprint, ObfConfig, Profile, ProfileError, SpecResolver, SpecSource,
};
pub use service::CodecService;
pub use telemetry::{FlightRecorder, LatencyHistogram, Metrics, MetricsSnapshot, Telemetry};
pub use transform::TransformKind;
pub use tunnel::{ChannelMap, TunnelDecoder, TunnelEncoder, TunnelError};
pub use value::{ByteOp, Endian, TerminalKind, Value};
pub use verify::Diagnostic;
