//! # protoobf-protocols
//!
//! The two application protocols the paper evaluates ProtoObf on
//! (§VII): **Modbus/TCP** (binary; Tabular field, Length and Counter
//! boundaries) and **HTTP/1.1** (text; Optional field, Repetition,
//! Delimited boundaries) — together with *core applications* that build
//! random request/response populations, and corpus helpers for the
//! classification/resilience experiments.
//!
//! ```
//! use protoobf_core::{Codec, Obfuscator};
//! use protoobf_protocols::modbus;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = modbus::request_graph();
//! let codec = Obfuscator::new(&graph).seed(1).max_per_node(1).obfuscate()?;
//! let mut rng = rand::thread_rng();
//! let msg = modbus::build_request(&codec, modbus::Function::ReadCoils, &mut rng);
//! let wire = codec.serialize(&msg)?;
//! let back = codec.parse(&wire)?;
//! assert_eq!(back.get_uint("pdu.function")?, 0x01);
//! # Ok(())
//! # }
//! ```

pub mod corpus;
pub mod dns;
pub mod http;
pub mod modbus;

use protoobf_core::FormatGraph;

/// The bundled protocol specifications, by the name `builtin:NAME`
/// spells them.
pub const BUILTIN_NAMES: [&str; 6] = [
    "dns-query",
    "dns-response",
    "http-request",
    "http-response",
    "modbus-request",
    "modbus-response",
];

/// The short tag of each [`BUILTIN_NAMES`] entry, at the same index: the
/// `<tag>` of pinned regression-corpus files
/// (`tests/corpus/<tag>-l<level>-p<seed>-<desc>.bin`).
pub const BUILTIN_TAGS: [&str; 6] = ["dnsq", "dnsr", "httpq", "httpr", "modq", "modr"];

/// The [`BUILTIN_TAGS`] entry of the bundled protocol `name`.
pub fn builtin_tag(name: &str) -> Option<&'static str> {
    BUILTIN_NAMES.iter().position(|&n| n == name).map(|i| BUILTIN_TAGS[i])
}

/// The [`BUILTIN_NAMES`] entry tagged `tag`.
pub fn builtin_named(tag: &str) -> Option<&'static str> {
    BUILTIN_TAGS.iter().position(|&t| t == tag).map(|i| BUILTIN_NAMES[i])
}

/// The plain specification of the bundled protocol `name` (one of
/// [`BUILTIN_NAMES`]), or `None` for any other name.
pub fn builtin(name: &str) -> Option<FormatGraph> {
    Some(match name {
        "dns-query" => dns::query_graph(),
        "dns-response" => dns::response_graph(),
        "http-request" => http::request_graph(),
        "http-response" => http::response_graph(),
        "modbus-request" => modbus::request_graph(),
        "modbus-response" => modbus::response_graph(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_builtin_name_resolves() {
        for name in super::BUILTIN_NAMES {
            assert!(super::builtin(name).is_some(), "{name}");
        }
        assert!(super::builtin("smtp").is_none());
        for (name, tag) in super::BUILTIN_NAMES.into_iter().zip(super::BUILTIN_TAGS) {
            assert_eq!(super::builtin_tag(name), Some(tag));
            assert_eq!(super::builtin_named(tag), Some(name));
        }
        assert!(super::builtin_tag("smtp").is_none() && super::builtin_named("smtp").is_none());
    }
}
