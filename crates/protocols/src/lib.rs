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
    }
}
