//! # ProtoObf — specification-based protocol obfuscation
//!
//! A Rust implementation of *"Specification-Based Protocol Obfuscation"*
//! (Duchêne, Alata, Nicomette, Kaâniche, Le Guernic — DSN 2018): protocol
//! message formats are obfuscated **at the specification level** with
//! invertible transformations, and a serializer/parser library is derived
//! automatically, so applications keep a stable accessor interface while
//! the wire format becomes hard to reverse engineer.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — format graphs, transformations, codecs;
//! * [`spec`] — the specification DSL;
//! * [`codegen`] — C library generation + potency metrics;
//! * [`protocols`] — Modbus/TCP and HTTP formats and core applications;
//! * [`transport`] — the non-blocking transport layer and the obfuscating
//!   gateway pair (the paper's deployment model over real sockets);
//! * [`pre`] — the reverse-engineering toolkit used for resilience
//!   experiments.
//!
//! The deployment entry point is the **profile**: one serializable,
//! shared-secret-keyed object ([`Profile`]) from which each peer
//! independently derives the whole obfuscated stack ([`Endpoint`], via
//! [`ProfileExt::build`] and the standard [`StdResolver`]), verified
//! equal across peers by comparing [`Fingerprint`]s before any traffic
//! flows:
//!
//! ```
//! use protoobf::{Profile, ProfileExt};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "profile protoobf/1\n\
//!             tx builtin:dns-query\n\
//!             rx builtin:dns-response\n\
//!             key \"shared secret\"\n\
//!             level 1\n";
//! let ours = Profile::parse(text)?.build()?;
//! let theirs = Profile::parse(text)?.build()?; // the peer's copy
//! assert_eq!(ours.fingerprint(), theirs.fingerprint());
//! # Ok(())
//! # }
//! ```
//!
//! Below the profile, the codec layers remain directly usable:
//!
//! ```
//! use protoobf::{Obfuscator, spec::parse_spec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = parse_spec(r#"
//!     message Ping {
//!         u16 id;
//!         u16 length = len(payload);
//!         bytes payload sized_by length;
//!     }
//! "#)?;
//! let codec = Obfuscator::new(&graph).key("shared secret").max_per_node(2).obfuscate()?;
//!
//! let mut msg = codec.message();
//! msg.set_uint("id", 99)?;
//! msg.set("payload", b"hello".as_slice())?;
//! let wire = codec.serialize(&msg)?;
//! let back = codec.parse(&wire)?;
//! assert_eq!(back.get_uint("id")?, 99);
//! assert_eq!(back.get("payload")?.as_bytes(), b"hello");
//! # Ok(())
//! # }
//! ```

pub use protoobf_core::{
    Boundary, BuildError, ByteOp, Codec, CodecService, Endian, Endpoint, Fingerprint, FormatGraph,
    GraphBuilder, Message, NodeId, ObfConfig, Obfuscator, ParseError, Path, Profile, ProfileError,
    SpecError, SpecResolver, SpecSource, TerminalKind, TransformError, TransformKind, Value,
};

pub use protoobf_codegen as codegen;
pub use protoobf_core as core;
pub use protoobf_pre as pre;
pub use protoobf_protocols as protocols;
pub use protoobf_spec as spec;
pub use protoobf_transport as transport;

pub mod resilience;

/// The standard [`SpecResolver`]: `builtin:NAME` maps to the bundled
/// experiment protocols, anything else is read as a specification DSL
/// file. This is what [`ProfileExt::build`] and the `protoobf` CLI use.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdResolver;

impl SpecResolver for StdResolver {
    fn resolve(&self, src: &SpecSource) -> Result<FormatGraph, String> {
        resolve_spec(src)
    }
}

/// Resolves one [`SpecSource`] with the standard rules (see
/// [`StdResolver`]).
///
/// # Errors
///
/// A human-readable message naming the source: unknown builtin, missing
/// file, or DSL parse failure.
pub fn resolve_spec(src: &SpecSource) -> Result<FormatGraph, String> {
    match src {
        SpecSource::Builtin(name) => protocols::builtin(name).ok_or_else(|| {
            let (last, rest) = protocols::BUILTIN_NAMES.split_last().expect("builtins exist");
            format!("unknown builtin protocol {name:?} (expected {} or {last})", rest.join(", "))
        }),
        SpecSource::File(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            spec::parse_spec(&text).map_err(|e| e.to_string())
        }
    }
}

/// Convenience extension binding [`Profile`] to the [`StdResolver`], so
/// application code can write `profile.build()?` instead of threading a
/// resolver through.
pub trait ProfileExt {
    /// Builds the endpoint with the standard resolver
    /// ([`Profile::build_with`]).
    ///
    /// # Errors
    ///
    /// See [`Profile::build_with`].
    fn build(&self) -> Result<Endpoint, ProfileError>;
}

impl ProfileExt for Profile {
    fn build(&self) -> Result<Endpoint, ProfileError> {
        self.build_with(&StdResolver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_builtin_error_names_every_builtin() {
        let err = resolve_spec(&SpecSource::Builtin("smtp".into())).unwrap_err();
        assert!(err.contains("\"smtp\""), "{err}");
        for name in protocols::BUILTIN_NAMES {
            assert!(err.contains(name), "{err} omits {name}");
        }
    }
}
