//! Labeled message corpora for the experiments: mixed populations of
//! Modbus/HTTP messages with ground-truth type labels, serialized through
//! a given codec.

use protoobf_core::Codec;
use rand::Rng;

use crate::{http, modbus};

/// One serialized message with its ground-truth type label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Ground-truth message type (e.g. `req:03` for a Modbus FC3 request).
    pub label: String,
    /// Serialized (possibly obfuscated) bytes.
    pub wire: Vec<u8>,
}

/// Generates `per_type` Modbus request samples for every function code
/// (the paper's experiment population), serialized through `codec`.
///
/// # Panics
///
/// Panics if `codec` was not built from [`modbus::request_graph`].
pub fn modbus_requests<R: Rng + ?Sized>(
    codec: &Codec,
    per_type: usize,
    rng: &mut R,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(per_type * modbus::Function::ALL.len());
    for f in modbus::Function::ALL {
        for _ in 0..per_type {
            let m = modbus::build_request(codec, f, rng);
            let wire = codec.serialize_seeded(&m, rng.gen()).expect("generated request serializes");
            out.push(Sample { label: f.label(), wire });
        }
    }
    out
}

/// Generates `per_type` request+response pairs for the given function
/// codes — the trace shape of the paper's resilience assessment (§VII-D:
/// "4 different messages and their corresponding answers").
pub fn modbus_trace<R: Rng + ?Sized>(
    req_codec: &Codec,
    resp_codec: &Codec,
    functions: &[modbus::Function],
    per_type: usize,
    rng: &mut R,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for &f in functions {
        for _ in 0..per_type {
            let req = modbus::build_request(req_codec, f, rng);
            let wire = req_codec.serialize_seeded(&req, rng.gen()).expect("request serializes");
            out.push(Sample { label: f.label(), wire });
            let resp = modbus::build_response(resp_codec, f, false, rng);
            let wire = resp_codec.serialize_seeded(&resp, rng.gen()).expect("response serializes");
            out.push(Sample { label: format!("resp:{:02x}", f.code()), wire });
        }
    }
    out
}

/// Generates `n` HTTP request samples labeled by method.
pub fn http_requests<R: Rng + ?Sized>(codec: &Codec, n: usize, rng: &mut R) -> Vec<Sample> {
    (0..n)
        .map(|_| {
            let m = http::build_request(codec, rng);
            let label = http::request_label(&m);
            let wire = codec.serialize_seeded(&m, rng.gen()).expect("generated request serializes");
            Sample { label, wire }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modbus_corpus_covers_all_types() {
        let codec = Codec::identity(&modbus::request_graph());
        let mut rng = StdRng::seed_from_u64(1);
        let corpus = modbus_requests(&codec, 3, &mut rng);
        assert_eq!(corpus.len(), 24);
        let labels: std::collections::BTreeSet<_> =
            corpus.iter().map(|s| s.label.clone()).collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn trace_interleaves_requests_and_responses() {
        let req = Codec::identity(&modbus::request_graph());
        let resp = Codec::identity(&modbus::response_graph());
        let mut rng = StdRng::seed_from_u64(2);
        let fs = [modbus::Function::ReadCoils, modbus::Function::WriteSingleRegister];
        let trace = modbus_trace(&req, &resp, &fs, 2, &mut rng);
        assert_eq!(trace.len(), 8);
        assert!(trace.iter().any(|s| s.label.starts_with("resp:")));
    }

    #[test]
    fn http_corpus_is_labeled_by_method() {
        let codec = Codec::identity(&http::request_graph());
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = http_requests(&codec, 30, &mut rng);
        assert_eq!(corpus.len(), 30);
        assert!(corpus.iter().all(|s| s.label.starts_with("req:")));
        assert!(!corpus.iter().all(|s| s.label == corpus[0].label));
    }
}
