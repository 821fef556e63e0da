//! # protoobf-codegen
//!
//! C source generation for obfuscated protocol libraries, plus the potency
//! metrics the paper reports on the generated artifact (§VI–§VII).
//!
//! The paper's framework emits a C serialization library (parser,
//! serializer, accessors, internal structures, sanity checks) whose
//! complexity is the *potency* measure of the obfuscation: number of code
//! lines, number of structures, and the size/depth of the parse call graph
//! extracted with `cflow`. [`generate`] reproduces that artifact from a
//! [`protoobf_core::Codec`]; [`measure`] computes the metrics with a
//! built-in miniature cflow.
//!
//! ```
//! use protoobf_core::{Codec, Obfuscator};
//! use protoobf_codegen::{generate, measure};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = protoobf_spec::parse_spec("message M { u16 a; u16 b; }")?;
//! let base = measure(&generate(&Codec::identity(&graph)));
//! let codec = Obfuscator::new(&graph).seed(5).max_per_node(2).obfuscate()?;
//! let obf = measure(&generate(&codec));
//! assert!(obf.lines > base.lines);
//! # Ok(())
//! # }
//! ```

//! The emitter intentionally walks the obfuscation graph: the paper's
//! artifact, and so its potency metrics, are defined node by node over
//! it. It is a measurement rendition, not a runtime backend.

pub mod cflow;
pub mod emit;
pub mod metrics;

pub use emit::{generate, GeneratedLibrary};
pub use metrics::{measure, NormalizedPotency, PotencyMetrics};
