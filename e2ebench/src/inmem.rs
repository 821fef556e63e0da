//! The in-memory replay: the workload's seeded round trips pushed through
//! the chain's production sans-io `Conn`s, with no sockets and no other
//! thread. Every gateway holds two `Conn`s and two transcode targets, as a
//! `Relay` does, and moves each message the way the relay pump does: poll
//! the inbound `Conn`, transcode, send on the other `Conn`. The calls are
//! timed one by one: build, serialize (`Conn::send`), framing (bytes into
//! and out of the `Conn` buffers), parse (`Conn::poll_inbound`),
//! transcode and sample.
//!
//! A `Conn` draws its obfuscation randomness from the clock and cannot be
//! reseeded, so the obfuscated hops are also serialized, untimed, through
//! seeded sessions. Those copies give byte counts and an attack sample
//! that are exact for a seed.

use std::time::Instant;

use protoobf::core::framing::append_frame;
use protoobf::core::sample::sample_into;
use protoobf::core::serialize::SerializeSession;
use protoobf::pre::resilience::{attack, AttackParams};
use protoobf::transport::gateway::Gateway;
use protoobf::transport::Conn;
use protoobf::Message;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chain::Chain;
use crate::trace::{self, Span, Stamp};
use crate::workload::{label, responder_seed, Kind, Source};

/// Per-call layers the replay times, in report order.
pub const LAYERS: [&str; 6] =
    ["protocols.build", "serialize", "framing", "parse", "transcode", "sample"];
const BUILD: usize = 0;
const SERIALIZE: usize = 1;
const FRAMING: usize = 2;
const PARSE: usize = 3;
const TRANSCODE: usize = 4;
const SAMPLE: usize = 5;

/// The attack aligns every pair of messages, at a cost quadratic in
/// message length, so it sees each bulk message as windows of this many
/// bytes, taken every `PRE_STRIDE` bytes, and scores each window
/// position on its own. One window position varies ~13% across seeds
/// with the record contents it happens to cover; the mean over 16 spread
/// through the message does not.
const PRE_WINDOW: usize = 128;
const PRE_STRIDE: usize = 4096;
const PRE_WINDOWS: usize = 16;

#[derive(Debug, Default)]
pub struct Replay {
    pub round_trips: u64,
    pub failed: u64,
    /// Frame bodies on the client's clear hop, both directions.
    pub clear_bytes: u64,
    /// Frame bodies on the obfuscated hop, both directions (seeded).
    pub obf_bytes: u64,
    /// Summed time (ns) and allocations per layer (traced replays only).
    pub ns: [u64; 6],
    pub allocs: [u64; 6],
    pub spans: Vec<Span>,
    /// Obfuscated frame bodies (seeded) and their ground-truth labels.
    pub pre_wires: Vec<(Vec<u8>, &'static str)>,
}

/// The reverse-engineering attack's grades, averaged over the window
/// positions it was run on.
#[derive(Debug, Default, Clone, Copy)]
pub struct PreScore {
    pub score: f64,
    pub ari: f64,
    pub static_fraction: f64,
    pub random_fraction: f64,
}

impl Replay {
    /// Runs `pre::resilience::attack` on each of the workload's
    /// independent samples of obfuscated messages and returns the grades
    /// of the sample with the median score. Now and then the attack's
    /// clustering flips on a whole sample (every message its own
    /// cluster); the median of three samples does not follow one flip.
    pub fn attack(&self, kind: Kind) -> PreScore {
        let mut scores: Vec<PreScore> = self
            .pre_wires
            .chunks(kind.pre_messages())
            .take(kind.pre_samples())
            .map(|sample| attack_sample(kind, sample))
            .collect();
        scores.sort_by(|a, b| a.score.total_cmp(&b.score));
        scores.get(scores.len() / 2).copied().unwrap_or_default()
    }
}

/// The attack on one sample: on whole messages, or for the bulk workload
/// on each window position in turn, averaged.
fn attack_sample(kind: Kind, sample: &[(Vec<u8>, &str)]) -> PreScore {
    let labels: Vec<&str> = sample.iter().map(|(_, l)| *l).collect();
    let windows: Vec<(usize, usize)> = if kind == Kind::Bulk64k {
        (0..PRE_WINDOWS).map(|i| (i * PRE_STRIDE, PRE_WINDOW)).collect()
    } else {
        vec![(0, usize::MAX)]
    };
    let mut mean = PreScore::default();
    for &(offset, len) in &windows {
        let cut: Vec<&[u8]> = sample
            .iter()
            .map(|(w, _)| &w[offset.min(w.len())..offset.saturating_add(len).min(w.len())])
            .collect();
        let s = attack(&cut, &labels, &AttackParams::default());
        mean.score += s.score;
        mean.ari += s.ari;
        mean.static_fraction += s.static_fraction;
        mean.random_fraction += s.random_fraction;
    }
    let n = windows.len() as f64;
    PreScore {
        score: mean.score / n,
        ari: mean.ari / n,
        static_fraction: mean.static_fraction / n,
        random_fraction: mean.random_fraction / n,
    }
}

/// Times calls and counts their allocations when tracing.
struct Meter<'r> {
    trace: bool,
    rt: u64,
    replay: &'r mut Replay,
}

impl Meter<'_> {
    fn start(&self) -> Option<(u64, Instant)> {
        self.trace.then(|| (trace::allocations(), Instant::now()))
    }

    fn stop(&mut self, layer: usize, leg: &'static str, started: Option<(u64, Instant)>) {
        let Some((allocs, start)) = started else { return };
        let end = Instant::now();
        self.replay.allocs[layer] += trace::allocations() - allocs;
        self.replay.ns[layer] += end.duration_since(start).as_nanos() as u64;
        self.replay.spans.push(Span {
            rt: self.rt,
            name: LAYERS[layer],
            parent: "memory.rt",
            note: leg,
            start: Stamp::wall(start),
            end: Stamp::wall(end),
        });
    }

    /// `Conn::send`: serializes `msg` as one frame into `conn`'s queue.
    fn send(
        &mut self,
        leg: &'static str,
        conn: &mut Conn<'_>,
        msg: &Message<'_>,
    ) -> Result<(), String> {
        let t = self.start();
        let r = conn.send(msg);
        self.stop(SERIALIZE, leg, t);
        r.map_err(|e| e.to_string())
    }

    /// Moves `from`'s queued bytes into `to`'s inbound buffer, as the
    /// socket pumps do on either side of a hop.
    fn hop(
        &mut self,
        leg: &'static str,
        from: &mut Conn<'_>,
        to: &mut Conn<'_>,
    ) -> Result<(), String> {
        let t = self.start();
        let r = to.feed_inbound(from.outbound());
        from.consume_outbound(from.outbound_len());
        self.stop(FRAMING, leg, t);
        r.map_err(|e| e.to_string())
    }

    /// `Conn::poll_inbound`: the next complete frame, parsed.
    fn poll<'c, 'p>(
        &mut self,
        leg: &'static str,
        conn: &'p mut Conn<'c>,
    ) -> Result<&'p Message<'c>, String> {
        let t = self.start();
        let r = conn.poll_inbound();
        self.stop(PARSE, leg, t);
        r.map_err(|e| e.to_string())?.ok_or_else(|| format!("{leg}: no complete frame"))
    }

    fn transcode(
        &mut self,
        leg: &'static str,
        msg: &Message<'_>,
        target: &mut Message<'_>,
    ) -> Result<(), String> {
        let t = self.start();
        let r = msg.transcode_into(target);
        self.stop(TRANSCODE, leg, t);
        r.map_err(|e| e.to_string())
    }

    /// One relay direction's pump step: poll `src`, transcode into
    /// `target`, send on `dst`.
    fn relay<'c>(
        &mut self,
        leg: &'static str,
        src: &mut Conn<'c>,
        target: &mut Message<'c>,
        dst: &mut Conn<'c>,
    ) -> Result<(), String> {
        let msg = self.poll(leg, src)?;
        self.transcode(leg, msg, target)?;
        self.send(leg, dst, target)
    }
}

/// One gateway in memory: its client-side (`down`) and server-side (`up`)
/// `Conn`s and the transcode targets of its two relay pairings, built as
/// `Relay::new` builds them.
struct Hops<'c> {
    down: Conn<'c>,
    up: Conn<'c>,
    to_up: Message<'c>,
    to_down: Message<'c>,
}

impl<'c> Hops<'c> {
    fn new(gw: &'c Gateway) -> Result<Hops<'c>, String> {
        let (down, up) = (gw.down_services(), gw.up_services());
        Ok(Hops {
            down: Conn::new(down.rx, down.tx),
            up: Conn::new(up.rx, up.tx),
            to_up: up.tx.transcode_target(down.rx).map_err(|e| e.to_string())?,
            to_down: down.tx.transcode_target(up.rx).map_err(|e| e.to_string())?,
        })
    }
}

/// Serializes `msg` as one frame into `out` (cleared first) through a
/// seeded session, untimed; returns the body length.
fn seeded_body(
    ser: &mut SerializeSession<'_>,
    msg: &Message<'_>,
    seed: u64,
    out: &mut Vec<u8>,
) -> Result<usize, String> {
    out.clear();
    ser.reseed(seed);
    append_frame(ser, msg, out, usize::MAX).map_err(|e| e.to_string())?;
    Ok(out.len() - 4)
}

/// Replays `kind.replay_round_trips()` seeded round trips through the
/// chain's codecs. `trace` times each call and counts its allocations.
pub fn replay(chain: &Chain, kind: Kind, seed: u64, trace: bool) -> Replay {
    let mut replay = Replay::default();
    trace::count_allocations(trace);
    let result = run(chain, kind, seed, trace, &mut replay);
    trace::count_allocations(false);
    if let Err(e) = result {
        eprintln!("in-memory replay failed: {e}");
        replay.failed += 1;
    }
    replay
}

fn run(
    chain: &Chain,
    kind: Kind,
    seed: u64,
    trace: bool,
    replay: &mut Replay,
) -> Result<(), String> {
    let mut enc = Hops::new(&chain.enc_gw)?;
    let mut dec = Hops::new(&chain.dec_gw)?;
    // The client speaks the clear grammars: requests out, replies in.
    let (client_tx, client_rx) = (chain.enc.clear_tx_service(), chain.enc.clear_rx_service());
    let mut client = Conn::new(client_rx, client_tx);
    let mut source = Source::new(kind, client_tx.codec(), seed);
    // The server takes clear requests and answers with an echo of each
    // (`Echo`) or a reply sampled as `Responder::new` seeds it.
    let (server_rx, server_tx) = (chain.dec.clear_tx_service(), chain.dec.clear_rx_service());
    let mut server = Conn::new(server_rx, server_tx);
    let mut echo = match kind {
        Kind::Bulk64k => Some(server_tx.transcode_target(server_rx).map_err(|e| e.to_string())?),
        _ => None,
    };
    let reply_seed = responder_seed(kind, seed, 0);
    let mut reply = server_tx.codec().message_seeded(reply_seed);
    let mut reply_rng = StdRng::seed_from_u64(reply_seed);
    // Seeded copies of the obfuscated hops.
    let mut obf_request_ser = chain.enc_gw.up_services().tx.codec().serializer();
    let mut obf_reply_ser = chain.dec_gw.down_services().tx.codec().serializer();
    let mut seeds = StdRng::seed_from_u64(kind.seed(seed).rotate_left(29));
    let (mut request, mut answer, mut received) = (Vec::new(), Vec::new(), Vec::new());
    let (mut obf_request, mut obf_reply) = (Vec::new(), Vec::new());
    let builds = source.builds_per_request();

    for rt in 1..=kind.replay_round_trips() as u64 {
        let mut m = Meter { trace, rt, replay: &mut *replay };
        let rt_start = Instant::now();

        // Client: build (or reuse) the request and send it.
        let t = m.start();
        let msg = source.request();
        if builds {
            m.stop(BUILD, "client", t);
        }
        m.send("client", &mut client, msg)?;
        request.clear();
        request.extend_from_slice(client.outbound());

        // Encode gateway, then decode gateway.
        m.hop("enc.up", &mut client, &mut enc.down)?;
        m.relay("enc.up", &mut enc.down, &mut enc.to_up, &mut enc.up)?;
        let obf_request_len =
            seeded_body(&mut obf_request_ser, &enc.to_up, seeds.gen(), &mut obf_request)?;
        m.hop("dec.up", &mut enc.up, &mut dec.down)?;
        m.relay("dec.up", &mut dec.down, &mut dec.to_up, &mut dec.up)?;
        if dec.up.outbound() != request.as_slice() {
            return Err("the server received a request that differs from the client's".into());
        }

        // Server: parse, then answer.
        m.hop("server", &mut dec.up, &mut server)?;
        let msg = m.poll("server", &mut server)?;
        if let Some(echo) = &mut echo {
            m.transcode("server", msg, echo)?;
            m.send("server", &mut server, echo)?;
        } else {
            let t = m.start();
            sample_into(server_tx.codec(), &mut reply, &mut reply_rng, &[]);
            m.stop(SAMPLE, "server", t);
            m.send("server", &mut server, &reply)?;
        }
        answer.clear();
        answer.extend_from_slice(server.outbound());

        // Decode gateway, then encode gateway, back to the client.
        m.hop("dec.down", &mut server, &mut dec.up)?;
        m.relay("dec.down", &mut dec.up, &mut dec.to_down, &mut dec.down)?;
        let obf_reply_len =
            seeded_body(&mut obf_reply_ser, &dec.to_down, seeds.gen(), &mut obf_reply)?;
        m.hop("enc.down", &mut dec.down, &mut enc.up)?;
        m.relay("enc.down", &mut enc.up, &mut enc.to_down, &mut enc.down)?;
        received.clear();
        received.extend_from_slice(enc.down.outbound());
        m.hop("client", &mut enc.down, &mut client)?;
        let parsed = m.poll("client", &mut client).is_ok();
        let expected = if kind == Kind::Bulk64k { &request } else { &answer };
        let ok = parsed && received == *expected;

        if trace {
            let (start, end) = (Stamp::wall(rt_start), Stamp::wall(Instant::now()));
            replay.spans.push(Span { rt, name: "memory.rt", parent: "", note: "", start, end });
        }
        replay.round_trips += 1;
        replay.failed += u64::from(!ok);
        replay.clear_bytes += (request.len() + answer.len() - 8) as u64;
        replay.obf_bytes += (obf_request_len + obf_reply_len) as u64;
        if replay.pre_wires.len() < kind.pre_messages() * kind.pre_samples() {
            replay.pre_wires.push((obf_request[4..].to_vec(), label(kind, false)));
            replay.pre_wires.push((obf_reply[4..].to_vec(), label(kind, true)));
        }
    }
    Ok(())
}
