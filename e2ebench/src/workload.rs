//! The three workloads: their profiles, their seeded request streams and
//! how a reply is verified.

use protoobf::protocols::{http, modbus};
use protoobf::{Codec, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shared secret of every workload's profile. The profile is part of the
/// workload definition; `--seed` only varies the messages.
const KEY: &str = "e2ebench shared secret";
/// Obfuscation level of every workload.
pub const LEVEL: u32 = 2;
/// DSL spec of the bulk workload, relative to the checkout root.
pub const BULK_SPEC: &str = "e2ebench/specs/bulk.spec";
/// Records in the bulk message (30 bytes each) and its tail length.
const BULK_RECORDS: usize = 2048;
const BULK_TAIL: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small Modbus request/response PDUs on one persistent connection.
    ModbusRr,
    /// One >= 64 KiB bulk message echoed on one persistent connection.
    Bulk64k,
    /// One HTTP request per fresh TCP connection.
    HttpChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ModbusRr, Kind::Bulk64k, Kind::HttpChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ModbusRr => "modbus-rr",
            Kind::Bulk64k => "bulk-64k",
            Kind::HttpChurn => "http-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The profile both gateways of the chain are built from.
    pub fn profile_text(self) -> String {
        let specs = match self {
            Kind::ModbusRr => "tx builtin:modbus-request\nrx builtin:modbus-response\n".to_string(),
            Kind::Bulk64k => format!("spec {BULK_SPEC}\n"),
            Kind::HttpChurn => "tx builtin:http-request\nrx builtin:http-response\n".to_string(),
        };
        format!("profile protoobf/1\n{specs}key \"{KEY}\"\nlevel {LEVEL}\n")
    }

    /// Whether the client keeps one connection for the whole run.
    pub fn persistent(self) -> bool {
        self != Kind::HttpChurn
    }

    /// Round trips of the in-memory replay (fixed, so that its byte and
    /// allocation counts are exact for a seed).
    pub fn replay_round_trips(self) -> usize {
        match self {
            Kind::ModbusRr => 2000,
            Kind::Bulk64k => 40,
            Kind::HttpChurn => 1000,
        }
    }

    /// Obfuscated messages in one sample handed to the reverse-engineering
    /// attack: the requests and replies of consecutive replay round
    /// trips. Smaller samples leave the attack's clustering bimodal
    /// across seeds.
    pub fn pre_messages(self) -> usize {
        match self {
            Kind::Bulk64k => 32,
            _ => 256,
        }
    }

    /// Independent samples the attack runs on. The bulk score is already
    /// a mean over 16 windows of each message and holds steady on one.
    pub fn pre_samples(self) -> usize {
        match self {
            Kind::Bulk64k => 1,
            _ => 3,
        }
    }

    /// Mixes the workload into the seed, so that workloads run with one
    /// `--seed` draw unrelated streams.
    pub fn seed(self, seed: u64) -> u64 {
        seed ^ (self as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// The client's seeded request stream over the clear request codec.
#[derive(Debug)]
pub struct Source<'c> {
    kind: Kind,
    codec: &'c Codec,
    rng: StdRng,
    /// The last request. The bulk message is built once, here, and
    /// re-sent every round trip.
    request: Option<Message<'c>>,
}

impl<'c> Source<'c> {
    pub fn new(kind: Kind, codec: &'c Codec, seed: u64) -> Source<'c> {
        let mut rng = StdRng::seed_from_u64(kind.seed(seed));
        let request = (kind == Kind::Bulk64k).then(|| bulk_message(codec, &mut rng));
        Source { kind, codec, rng, request }
    }

    /// Whether each round trip builds a fresh request.
    pub fn builds_per_request(&self) -> bool {
        self.kind != Kind::Bulk64k
    }

    /// The next request: freshly built by the protocol's builder (which
    /// frees the previous one), or the bulk message.
    pub fn request(&mut self) -> &Message<'c> {
        match self.kind {
            Kind::Bulk64k => {}
            Kind::ModbusRr => {
                let function = modbus::Function::ALL[self.rng.gen_range(0..8usize)];
                self.request = Some(modbus::build_request(self.codec, function, &mut self.rng));
            }
            Kind::HttpChurn => self.request = Some(http::build_request(self.codec, &mut self.rng)),
        }
        self.request.as_ref().expect("built above or at construction")
    }
}

fn bulk_message<'c>(codec: &'c Codec, rng: &mut StdRng) -> Message<'c> {
    let mut msg = codec.message_seeded(rng.gen());
    for i in 0..BULK_RECORDS {
        msg.set_uint(&format!("records[{i}].key"), i as u64).expect("bulk key");
        msg.set_uint(&format!("records[{i}].flags"), rng.gen_range(0..=0xFFFF))
            .expect("bulk flags");
        let payload: Vec<u8> = (0..24).map(|_| rng.gen()).collect();
        msg.set(&format!("records[{i}].payload"), payload).expect("bulk payload");
    }
    let tail: Vec<u8> = (0..BULK_TAIL).map(|_| rng.gen()).collect();
    msg.set("tail", tail).expect("bulk tail");
    msg
}

/// Seed of the responder serving the `conn`-th connection of a run.
pub fn responder_seed(kind: Kind, seed: u64, conn: u64) -> u64 {
    kind.seed(seed).rotate_left(17) ^ conn.wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// Ground-truth type label of a clear message, for grading the
/// reverse-engineering attack: which grammar it belongs to.
pub fn label(kind: Kind, reply: bool) -> &'static str {
    match (kind, reply) {
        (Kind::Bulk64k, _) => "bulk",
        (_, false) => "request",
        (_, true) => "reply",
    }
}
