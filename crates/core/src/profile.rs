//! The endpoint profile: **one serializable object drives the whole
//! obfuscated stack**.
//!
//! The paper's deployment model requires both peers to derive the *same*
//! obfuscated grammar from a shared secret. Earlier layers exposed that
//! secret as a bare `u64` seed that callers had to plumb — by hand, kept
//! in sync — through the [`crate::engine::Obfuscator`], the
//! [`crate::service::CodecService`], every transport connection and the
//! CLI. A [`Profile`] replaces all of that plumbing with a single value
//! (ScrambleSuit and CDTP use the same shape: one keyed configuration
//! object from which each peer independently derives its polymorphic
//! stack):
//!
//! * the **spec sources** — one per direction, so a connection can run
//!   asymmetric request/response formats (e.g. `builtin:dns-query`
//!   initiator→responder and `builtin:dns-response` back);
//! * the **obfuscation config** ([`ObfConfig`]) — the shared **key** (a
//!   string/byte secret stretched into the per-graph RNG seed by
//!   [`stretch_key`]), the per-node budget (*level*) and the allowed
//!   transformation set;
//! * the **service tuning** ([`Tuning`]) — the frame limit.
//!
//! A profile serializes to a human-readable text format
//! ([`Profile::to_text`], round-tripped by [`Profile::parse`]); both
//! peers hold a copy of the same file. [`Profile::build_with`] resolves
//! the spec sources (the caller supplies a [`SpecResolver`]; the
//! `protoobf` facade crate wires the DSL parser and the builtin protocol
//! table) and compiles everything into an [`Endpoint`]: the obfuscated
//! and clear codec services for both directions, plus a
//! [`Fingerprint`] — a stable digest over the compiled
//! [`crate::plan::CodecPlan`]s. Peers exchange fingerprints (they reveal
//! neither key nor grammar) to verify they derived identical stacks
//! *before* any traffic flows:
//!
//! ```text
//!   profile file ──parse──▶ Profile ──build_with──▶ Endpoint
//!                                                   ├─ fingerprint()   (compare with peer)
//!                                                   ├─ tx/rx_service() (obfuscated stacks)
//!                                                   └─ clear_*()       (identity stacks)
//! ```

use std::fmt;
use std::sync::Arc;

use crate::codec::Codec;
use crate::error::SpecError;
use crate::framing::MAX_FRAME;
use crate::graph::FormatGraph;
use crate::obf::ObfGraph;
use crate::plan::StableHasher;
use crate::service::CodecService;
use crate::transform::TransformKind;

/// Stretches an arbitrary byte/string secret into the `u64` RNG seed the
/// obfuscation engine consumes: FNV-1a over a domain tag and the key,
/// finished with a splitmix64 avalanche so single-bit key changes flip
/// roughly half the seed bits.
///
/// This is a *derivation*, not a cryptographic KDF — the paper's threat
/// model is grammar obscurity, not key recovery resistance. Deterministic
/// across processes and platforms by construction.
pub fn stretch_key(key: &[u8]) -> u64 {
    let mut h = StableHasher::new(0xcbf2_9ce4_8422_2325);
    h.update(b"protoobf-key/1");
    h.update(key);
    let mut z = h.finish().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where a profile half's plain specification comes from.
///
/// Sources must not contain whitespace or `#` (the text format is
/// line-and-token based with `#` comments; parsing a source with
/// [`str::parse`] rejects both so every parseable source round-trips).
/// `builtin:NAME` names a bundled protocol; any other token is a DSL
/// file path.
/// Constructing the enum variants directly bypasses that check — only do
/// so for sources that never pass through the text format (e.g. the
/// CLI's verbatim positional paths).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpecSource {
    /// A bundled experiment protocol (`builtin:dns-query`, …). Resolution
    /// lives in the resolver; core attaches no meaning to the name.
    Builtin(String),
    /// Path of a specification DSL file.
    File(String),
}

impl fmt::Display for SpecSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecSource::Builtin(name) => write!(f, "builtin:{name}"),
            SpecSource::File(path) => write!(f, "{path}"),
        }
    }
}

impl std::str::FromStr for SpecSource {
    type Err = ProfileError;

    fn from_str(s: &str) -> Result<SpecSource, ProfileError> {
        if s.is_empty() {
            return Err(ProfileError::parse(0, "empty spec source"));
        }
        if s.chars().any(char::is_whitespace) {
            return Err(ProfileError::parse(0, format!("spec source {s:?} contains whitespace")));
        }
        // '#' starts a comment in the text format, so a source containing
        // it could never round-trip — reject it up front instead of
        // silently truncating on re-parse.
        if s.contains('#') {
            return Err(ProfileError::parse(0, format!("spec source {s:?} contains '#'")));
        }
        match s.strip_prefix("builtin:") {
            Some("") => Err(ProfileError::parse(0, "empty builtin name")),
            Some(name) => Ok(SpecSource::Builtin(name.to_string())),
            None => Ok(SpecSource::File(s.to_string())),
        }
    }
}

/// The keyed obfuscation parameters shared by both peers (extracted from
/// the old `Obfuscator` builder flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObfConfig {
    /// The shared secret, stretched into the RNG seed by [`stretch_key`].
    /// An empty key is permitted (a keyless deployment obscures against
    /// passive observers only).
    pub key: Vec<u8>,
    /// Maximum transformations per node (the paper's level parameter,
    /// 0–4 in the experiments). Zero yields the identity codec.
    pub level: u32,
    /// Candidate transformation kinds (all thirteen by default).
    pub allowed: Vec<TransformKind>,
}

impl Default for ObfConfig {
    fn default() -> Self {
        ObfConfig { key: Vec::new(), level: 1, allowed: TransformKind::ALL.to_vec() }
    }
}

impl ObfConfig {
    /// The RNG seed this config derives ([`stretch_key`] over the key).
    pub fn rng_seed(&self) -> u64 {
        stretch_key(&self.key)
    }
}

/// Service-level tuning carried by the profile so both peers (and every
/// layer of one endpoint) agree on limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuning {
    /// Frame-size limit enforced by services and connections.
    pub max_frame: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning { max_frame: MAX_FRAME }
    }
}

/// The single source of truth for one obfuscated endpoint; see the
/// [module docs](self).
///
/// Direction naming follows the connection initiator: **`tx`** is the
/// initiator→responder spec (what a client sends), **`rx`** is the
/// responder→initiator spec. Symmetric protocols use the same source for
/// both ([`Profile::symmetric`]); the text format then prints one `spec`
/// line instead of `tx`/`rx`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    tx: SpecSource,
    rx: SpecSource,
    obf: ObfConfig,
    tuning: Tuning,
}

impl Profile {
    /// A profile whose both directions speak `spec`.
    pub fn symmetric(spec: SpecSource) -> Profile {
        Profile { tx: spec.clone(), rx: spec, obf: ObfConfig::default(), tuning: Tuning::default() }
    }

    /// A profile with distinct request (`tx`, initiator→responder) and
    /// response (`rx`) specs.
    pub fn asymmetric(tx: SpecSource, rx: SpecSource) -> Profile {
        Profile { tx, rx, obf: ObfConfig::default(), tuning: Tuning::default() }
    }

    /// Sets the shared secret.
    pub fn key(mut self, key: impl AsRef<[u8]>) -> Profile {
        self.obf.key = key.as_ref().to_vec();
        self
    }

    /// Sets the obfuscation level (max transformations per node).
    pub fn level(mut self, level: u32) -> Profile {
        self.obf.level = level;
        self
    }

    /// Restricts the allowed transformation kinds.
    pub fn transforms(mut self, kinds: impl IntoIterator<Item = TransformKind>) -> Profile {
        self.obf.allowed = kinds.into_iter().collect();
        self
    }

    /// Sets the frame-size limit.
    pub fn max_frame(mut self, limit: usize) -> Profile {
        self.tuning.max_frame = limit;
        self
    }

    /// Initiator→responder spec source.
    pub fn tx(&self) -> &SpecSource {
        &self.tx
    }

    /// Responder→initiator spec source.
    pub fn rx(&self) -> &SpecSource {
        &self.rx
    }

    /// The keyed obfuscation parameters.
    pub fn obf(&self) -> &ObfConfig {
        &self.obf
    }

    /// The service tuning.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// True when both directions speak the same spec.
    pub fn is_symmetric(&self) -> bool {
        self.tx == self.rx
    }

    /// Canonical text form; [`Profile::parse`] round-trips it exactly
    /// (`parse(to_text(p)) == p`).
    pub fn to_text(&self) -> String {
        let mut out = String::from("profile protoobf/1\n");
        if self.is_symmetric() {
            out.push_str(&format!("spec {}\n", self.tx));
        } else {
            out.push_str(&format!("tx {}\n", self.tx));
            out.push_str(&format!("rx {}\n", self.rx));
        }
        out.push_str(&format!("key \"{}\"\n", escape_key(&self.obf.key)));
        out.push_str(&format!("level {}\n", self.obf.level));
        if self.obf.allowed == TransformKind::ALL {
            out.push_str("transforms all\n");
        } else if self.obf.allowed.is_empty() {
            out.push_str("transforms none\n");
        } else {
            let names: Vec<&str> = self.obf.allowed.iter().map(|k| k.name()).collect();
            out.push_str(&format!("transforms {}\n", names.join(",")));
        }
        out.push_str(&format!("max-frame {}\n", self.tuning.max_frame));
        out
    }

    /// Parses the text format emitted by [`Profile::to_text`] (order of
    /// the non-header lines is free; `#` starts a comment outside
    /// quotes; unknown or repeated keywords are errors naming the line).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Parse`] with the offending line and token.
    pub fn parse(text: &str) -> Result<Profile, ProfileError> {
        Parser::new(text).run()
    }

    /// Derives the obfuscated codec of `graph` under this profile's
    /// parameters; the codec keeps `graph` without copying it.
    fn obfuscate(&self, graph: FormatGraph) -> Codec {
        let plain = Arc::new(graph);
        let image = ObfGraph::from_shared(Arc::clone(&plain));
        crate::engine::Obfuscator::new(&plain).config(&self.obf).derive(image)
    }

    /// Compiles the whole endpoint: obfuscated and clear (identity) codec
    /// services for both directions, plus the [`Fingerprint`]. The
    /// resolver maps [`SpecSource`]s to validated [`FormatGraph`]s — use
    /// the `protoobf` facade's standard resolver, or any closure
    /// `Fn(&SpecSource) -> Result<FormatGraph, String>`.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Resolve`] when a source cannot be resolved,
    /// [`ProfileError::Spec`] when a resolved graph fails validation.
    pub fn build_with<R: SpecResolver + ?Sized>(
        &self,
        resolver: &R,
    ) -> Result<Endpoint, ProfileError> {
        let resolve = |src: &SpecSource| {
            resolver
                .resolve(src)
                .map_err(|e| ProfileError::Resolve { source: src.to_string(), reason: e })
        };
        let tx_codec = self.obfuscate(resolve(&self.tx)?);
        let rx_codec =
            if self.is_symmetric() { None } else { Some(self.obfuscate(resolve(&self.rx)?)) };
        let fingerprint = Fingerprint::derive(
            self,
            tx_codec.plan(),
            rx_codec.as_ref().unwrap_or(&tx_codec).plan(),
        );
        let identity = self.obf.level == 0;
        let clear_tx = self.service(tx_codec.clear_twin());
        let tx = if identity { Arc::clone(&clear_tx) } else { self.service(tx_codec) };
        let (rx, clear_rx) = match rx_codec {
            None => (Arc::clone(&tx), Arc::clone(&clear_tx)),
            Some(codec) => {
                let clear = self.service(codec.clear_twin());
                let obf = if identity { Arc::clone(&clear) } else { self.service(codec) };
                (obf, clear)
            }
        };
        Ok(Endpoint { profile: self.clone(), fingerprint, tx, rx, clear_tx, clear_rx })
    }

    fn service(&self, codec: Codec) -> Arc<CodecService> {
        Arc::new(CodecService::new(codec).max_frame(self.tuning.max_frame))
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl std::str::FromStr for Profile {
    type Err = ProfileError;

    fn from_str(s: &str) -> Result<Profile, ProfileError> {
        Profile::parse(s)
    }
}

/// Maps [`SpecSource`]s to validated plain graphs for
/// [`Profile::build_with`]. Implemented for any
/// `Fn(&SpecSource) -> Result<FormatGraph, String>`; the `protoobf`
/// facade provides the standard implementation (builtin protocol table +
/// DSL file parser).
pub trait SpecResolver {
    /// Resolves one source; the error string is wrapped into
    /// [`ProfileError::Resolve`].
    fn resolve(&self, src: &SpecSource) -> Result<FormatGraph, String>;
}

impl<F: Fn(&SpecSource) -> Result<FormatGraph, String>> SpecResolver for F {
    fn resolve(&self, src: &SpecSource) -> Result<FormatGraph, String> {
        self(src)
    }
}

/// Stable digest of an endpoint's derived stacks (both directions'
/// compiled [`crate::plan::CodecPlan`]s plus the frame limit). Equal
/// profiles yield equal fingerprints; any divergence — key, level,
/// transform set, spec, frame limit — changes it. Cheap to compare.
///
/// The digest does not expose the key or grammar directly, but the
/// derivation is deterministic and fast, so an observer who knows the
/// spec sources can brute-force **low-entropy** keys offline by
/// re-deriving candidate fingerprints (consistent with [`stretch_key`]
/// being a derivation, not a KDF). Treat the fingerprint like a
/// password hash: fine to compare over a trusted channel, and safe to
/// publish only when the key has real entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    bits: [u64; 2],
}

impl Fingerprint {
    fn derive(profile: &Profile, tx: &crate::plan::CodecPlan, rx: &crate::plan::CodecPlan) -> Self {
        let tx_digest = tx.digest();
        let rx_digest = rx.digest();
        let half = |init: u64| {
            let mut h = StableHasher::new(init);
            h.update(b"protoobf-fingerprint/1");
            // The spec sources participate alongside the plans:
            // structurally identical grammars under different names must
            // still be distinguishable when diffing two endpoints.
            h.update(profile.tx.to_string().as_bytes());
            h.update(&[0]);
            h.update(profile.rx.to_string().as_bytes());
            h.update(&[0]);
            h.update(&tx_digest.to_be_bytes());
            h.update(&rx_digest.to_be_bytes());
            h.update(&(profile.tuning.max_frame as u64).to_be_bytes());
            h.finish()
        };
        Fingerprint { bits: [half(0xcbf2_9ce4_8422_2325), half(0x9e37_79b9_7f4a_7c15)] }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.bits[0], self.bits[1])
    }
}

/// A compiled endpoint: what [`Profile::build_with`] returns. Owns the
/// obfuscated and clear codec services for both directions (symmetric
/// profiles share one service per side) and the derivation
/// [`Fingerprint`].
///
/// Direction naming matches the profile: `tx` carries
/// initiator→responder traffic, `rx` the reverse. A responder simply
/// uses them swapped (parse inbound with `tx`'s codec, reply with
/// `rx`'s) — both peers build from the same profile file.
#[derive(Debug)]
pub struct Endpoint {
    profile: Profile,
    fingerprint: Fingerprint,
    tx: Arc<CodecService>,
    rx: Arc<CodecService>,
    clear_tx: Arc<CodecService>,
    clear_rx: Arc<CodecService>,
}

impl Endpoint {
    /// The profile this endpoint was built from.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The derivation fingerprint. Two endpoints built from copies of the
    /// same profile report equal fingerprints; compare them (out of band,
    /// or logged on both sides) before sending traffic.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Obfuscated service for initiator→responder traffic.
    pub fn tx_service(&self) -> &Arc<CodecService> {
        &self.tx
    }

    /// Obfuscated service for responder→initiator traffic.
    pub fn rx_service(&self) -> &Arc<CodecService> {
        &self.rx
    }

    /// Clear (identity-plan) service over the `tx` spec — what an
    /// unmodified client emits and a gateway's clear leg parses.
    pub fn clear_tx_service(&self) -> &Arc<CodecService> {
        &self.clear_tx
    }

    /// Clear (identity-plan) service over the `rx` spec.
    pub fn clear_rx_service(&self) -> &Arc<CodecService> {
        &self.clear_rx
    }

    /// True when both directions share one spec (and one service).
    pub fn is_symmetric(&self) -> bool {
        Arc::ptr_eq(&self.tx, &self.rx)
    }

    /// Human-readable derivation summary for logs and `protoobf print
    /// --profile`: per-direction spec, transformation count and plan
    /// shape, then the fingerprint operators diff across endpoints.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let dir = |label: &str, src: &SpecSource, svc: &CodecService| {
            let codec = svc.codec();
            format!(
                "{label} {src}: {} nodes -> {} slots, {} transformations, plan digest {:016x}\n",
                codec.plain().len(),
                codec.plan().slots(),
                codec.transform_count(),
                codec.plan().digest(),
            )
        };
        out.push_str(&dir("tx", &self.profile.tx, &self.tx));
        if self.is_symmetric() {
            out.push_str("rx = tx (symmetric profile)\n");
        } else {
            out.push_str(&dir("rx", &self.profile.rx, &self.rx));
        }
        out.push_str(&format!(
            "key {} bytes, level {}, transforms {}; max-frame {}\n",
            self.profile.obf.key.len(),
            self.profile.obf.level,
            if self.profile.obf.allowed == TransformKind::ALL {
                "all".to_string()
            } else {
                self.profile.obf.allowed.len().to_string()
            },
            self.profile.tuning.max_frame,
        ));
        out.push_str(&format!("fingerprint {}\n", self.fingerprint));
        out
    }
}

/// Errors of profile parsing and endpoint building.
#[derive(Debug)]
pub enum ProfileError {
    /// The text format did not parse; `line` is 1-based (0 when the
    /// failure is not tied to a line).
    Parse {
        /// Offending line number.
        line: usize,
        /// What went wrong, naming the offending token.
        msg: String,
    },
    /// A spec source could not be resolved to a graph.
    Resolve {
        /// The source as written in the profile.
        source: String,
        /// Resolver error.
        reason: String,
    },
    /// A resolved specification failed validation.
    Spec(SpecError),
}

impl ProfileError {
    fn parse(line: usize, msg: impl Into<String>) -> ProfileError {
        ProfileError::Parse { line, msg: msg.into() }
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Parse { line: 0, msg } => write!(f, "profile: {msg}"),
            ProfileError::Parse { line, msg } => write!(f, "profile line {line}: {msg}"),
            ProfileError::Resolve { source, reason } => {
                write!(f, "cannot resolve spec {source}: {reason}")
            }
            ProfileError::Spec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Escapes key bytes for the quoted text form: printable ASCII passes
/// through, `"` and `\` are backslash-escaped, everything else becomes
/// `\xNN`.
fn escape_key(key: &[u8]) -> String {
    let mut out = String::with_capacity(key.len());
    for &b in key {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\x{b:02x}")),
        }
    }
    out
}

/// Line-oriented parser of the profile text format.
struct Parser<'t> {
    lines: std::iter::Enumerate<std::str::Lines<'t>>,
    spec: Option<SpecSource>,
    tx: Option<SpecSource>,
    rx: Option<SpecSource>,
    key: Option<Vec<u8>>,
    level: Option<u32>,
    allowed: Option<Vec<TransformKind>>,
    max_frame: Option<usize>,
}

impl<'t> Parser<'t> {
    fn new(text: &'t str) -> Parser<'t> {
        Parser {
            lines: text.lines().enumerate(),
            spec: None,
            tx: None,
            rx: None,
            key: None,
            level: None,
            allowed: None,
            max_frame: None,
        }
    }

    fn run(mut self) -> Result<Profile, ProfileError> {
        self.header()?;
        for (idx, raw) in self.lines.by_ref() {
            let no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (keyword, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => return Err(ProfileError::parse(no, format!("{line:?} has no value"))),
            };
            if keyword == "key" {
                // The key value is quoted and may contain '#' and
                // spaces, so it gets its own scanner (comments are only
                // recognized after the closing quote).
                set(no, "key", &mut self.key, parse_quoted(no, rest)?)?;
                continue;
            }
            let value = strip_comment(rest);
            if value.is_empty() {
                return Err(ProfileError::parse(no, format!("{keyword:?} has no value")));
            }
            match keyword {
                "spec" => set(no, "spec", &mut self.spec, source(no, value)?)?,
                "tx" => set(no, "tx", &mut self.tx, source(no, value)?)?,
                "rx" => set(no, "rx", &mut self.rx, source(no, value)?)?,
                "level" => set(no, "level", &mut self.level, number(no, "level", value)?)?,
                "transforms" => {
                    set(no, "transforms", &mut self.allowed, transforms(no, value)?)?;
                }
                "max-frame" => {
                    set(no, "max-frame", &mut self.max_frame, number(no, "max-frame", value)?)?;
                }
                other => {
                    return Err(ProfileError::parse(no, format!("unknown keyword {other:?}")));
                }
            }
        }
        let (tx, rx) = match (self.spec, self.tx, self.rx) {
            (Some(s), None, None) => (s.clone(), s),
            (None, Some(tx), Some(rx)) => (tx, rx),
            (None, Some(_), None) => {
                return Err(ProfileError::parse(0, "\"tx\" given without \"rx\""));
            }
            (None, None, Some(_)) => {
                return Err(ProfileError::parse(0, "\"rx\" given without \"tx\""));
            }
            (Some(_), _, _) => {
                return Err(ProfileError::parse(0, "\"spec\" excludes \"tx\"/\"rx\""));
            }
            (None, None, None) => {
                return Err(ProfileError::parse(0, "missing \"spec\" (or \"tx\" and \"rx\")"));
            }
        };
        let defaults = (ObfConfig::default(), Tuning::default());
        Ok(Profile {
            tx,
            rx,
            obf: ObfConfig {
                key: self.key.unwrap_or(defaults.0.key),
                level: self.level.unwrap_or(defaults.0.level),
                allowed: self.allowed.unwrap_or(defaults.0.allowed),
            },
            tuning: Tuning { max_frame: self.max_frame.unwrap_or(defaults.1.max_frame) },
        })
    }

    /// Consumes blank/comment lines until the mandatory header.
    fn header(&mut self) -> Result<(), ProfileError> {
        for (idx, raw) in self.lines.by_ref() {
            let line = strip_comment(raw.trim());
            if line.is_empty() {
                continue;
            }
            if line == "profile protoobf/1" {
                return Ok(());
            }
            return Err(ProfileError::parse(
                idx + 1,
                format!("expected header \"profile protoobf/1\", found {line:?}"),
            ));
        }
        Err(ProfileError::parse(0, "empty profile (missing \"profile protoobf/1\" header)"))
    }
}

/// Stores `value` into `slot`, rejecting repeated keywords.
fn set<T>(line: usize, keyword: &str, slot: &mut Option<T>, value: T) -> Result<(), ProfileError> {
    if slot.is_some() {
        return Err(ProfileError::parse(line, format!("repeated keyword {keyword:?}")));
    }
    *slot = Some(value);
    Ok(())
}

fn strip_comment(s: &str) -> &str {
    match s.find('#') {
        Some(i) => s[..i].trim_end(),
        None => s,
    }
}

fn source(line: usize, value: &str) -> Result<SpecSource, ProfileError> {
    value.parse().map_err(|e| match e {
        ProfileError::Parse { msg, .. } => ProfileError::parse(line, msg),
        other => other,
    })
}

fn number<T: std::str::FromStr>(line: usize, kw: &str, value: &str) -> Result<T, ProfileError> {
    value.parse().map_err(|_| ProfileError::parse(line, format!("{kw}: invalid number {value:?}")))
}

fn transforms(line: usize, value: &str) -> Result<Vec<TransformKind>, ProfileError> {
    if value == "all" {
        return Ok(TransformKind::ALL.to_vec());
    }
    if value == "none" {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|name| {
            let name = name.trim();
            TransformKind::from_name(name).ok_or_else(|| {
                ProfileError::parse(line, format!("unknown transformation {name:?}"))
            })
        })
        .collect()
}

/// Parses a double-quoted, backslash-escaped key value; only whitespace
/// or a comment may follow the closing quote.
fn parse_quoted(line: usize, value: &str) -> Result<Vec<u8>, ProfileError> {
    let inner = value
        .strip_prefix('"')
        .ok_or_else(|| ProfileError::parse(line, format!("key must be quoted, found {value:?}")))?;
    let mut out = Vec::new();
    let mut bytes = inner.bytes().enumerate();
    while let Some((i, b)) = bytes.next() {
        match b {
            b'"' => {
                let rest = strip_comment(inner[i + 1..].trim());
                if !rest.is_empty() {
                    return Err(ProfileError::parse(
                        line,
                        format!("unexpected {rest:?} after key"),
                    ));
                }
                return Ok(out);
            }
            b'\\' => match bytes.next() {
                Some((_, b'"')) => out.push(b'"'),
                Some((_, b'\\')) => out.push(b'\\'),
                Some((_, b'x')) => {
                    let hi = bytes.next();
                    let lo = bytes.next();
                    match (hi, lo) {
                        (Some((_, h)), Some((_, l))) => {
                            let hex = [h, l];
                            let s = std::str::from_utf8(&hex).unwrap_or("??");
                            let v = u8::from_str_radix(s, 16).map_err(|_| {
                                ProfileError::parse(line, format!("bad \\x escape \\x{s}"))
                            })?;
                            out.push(v);
                        }
                        _ => return Err(ProfileError::parse(line, "truncated \\x escape")),
                    }
                }
                Some((_, other)) => {
                    return Err(ProfileError::parse(
                        line,
                        format!("unknown escape \\{}", other as char),
                    ));
                }
                None => return Err(ProfileError::parse(line, "truncated escape at end of key")),
            },
            _ => out.push(b),
        }
    }
    Err(ProfileError::parse(line, "unterminated key (missing closing quote)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AutoValue, Boundary, GraphBuilder};
    use crate::value::TerminalKind;

    fn demo_graph(name: &str) -> FormatGraph {
        let mut b = GraphBuilder::new(name);
        let root = b.root_sequence("m", Boundary::End);
        let len = b.uint_be(root, "len", 2);
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::Length(len));
        b.set_auto(len, AutoValue::LengthOf(data));
        b.uint_be(root, "code", 4);
        b.build().unwrap()
    }

    /// Test resolver: `builtin:a` / `builtin:b` map to two distinct
    /// builder graphs; files are unknown.
    fn resolver(src: &SpecSource) -> Result<FormatGraph, String> {
        match src {
            SpecSource::Builtin(n) if n == "a" => Ok(demo_graph("a")),
            SpecSource::Builtin(n) if n == "b" => Ok(demo_graph("b")),
            other => Err(format!("unknown test source {other}")),
        }
    }

    fn sym() -> Profile {
        Profile::symmetric("builtin:a".parse().unwrap()).key("secret").level(2)
    }

    fn asym() -> Profile {
        Profile::asymmetric("builtin:a".parse().unwrap(), "builtin:b".parse().unwrap())
            .key("secret")
            .level(2)
    }

    #[test]
    fn text_round_trips_symmetric_and_asymmetric() {
        for p in [sym(), asym()] {
            let text = p.to_text();
            assert_eq!(Profile::parse(&text).unwrap(), p, "{text}");
        }
    }

    #[test]
    fn text_round_trips_every_field() {
        let p = asym()
            .key(b"\x00weird \"key\"\\ \xff".as_slice())
            .level(4)
            .transforms([TransformKind::ConstXor, TransformKind::SplitCat])
            .max_frame(4096);
        let text = p.to_text();
        assert_eq!(Profile::parse(&text).unwrap(), p, "{text}");
    }

    #[test]
    fn parse_accepts_comments_blanks_and_any_order() {
        let text = "\n# a comment\nprofile protoobf/1\nlevel 3   # trailing\n\nspec builtin:a\nkey \"k # not a comment\"\n";
        let p = Profile::parse(text).unwrap();
        assert_eq!(p.obf().level, 3);
        assert_eq!(p.obf().key, b"k # not a comment");
        assert!(p.is_symmetric());
    }

    #[test]
    fn parse_errors_name_line_and_token() {
        let cases: &[(&str, &str)] = &[
            ("spec builtin:a\n", "profile protoobf/1"), // missing header
            ("profile protoobf/1\nbogus 1\n", "bogus"), // unknown keyword
            // The retired pool-tuning keywords are unknown, too.
            (
                "profile protoobf/1\nspec builtin:a\nshards 4\n",
                "line 3: unknown keyword \"shards\"",
            ),
            ("profile protoobf/1\nspec builtin:a\npool-capacity 8\n", "line 3: unknown keyword"),
            ("profile protoobf/1\nspec builtin:a\nlevel x\n", "x"), // bad number
            ("profile protoobf/1\nspec builtin:a\nlevel 1\nlevel 2\n", "repeated"),
            ("profile protoobf/1\ntx builtin:a\n", "rx"), // half a pair
            ("profile protoobf/1\nspec builtin:a\ntx builtin:b\nrx builtin:b\n", "excludes"),
            ("profile protoobf/1\nspec builtin:a\nkey nope\n", "quoted"),
            ("profile protoobf/1\nspec builtin:a\nkey \"open\n", "unterminated"),
            ("profile protoobf/1\nspec builtin:a\ntransforms Bogus\n", "Bogus"),
            ("profile protoobf/1\n", "missing \"spec\""),
        ];
        for (text, needle) in cases {
            let err = Profile::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn sources_that_cannot_round_trip_are_rejected() {
        // Whitespace collides with tokenization, '#' with comment syntax:
        // a source containing either would serialize fine but re-parse
        // differently, so FromStr refuses both up front.
        for bad in ["specs/a b.pobf", "specs/a#1.pobf", "builtin:", ""] {
            assert!(bad.parse::<SpecSource>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn stretch_key_is_deterministic_and_sensitive() {
        assert_eq!(stretch_key(b"secret"), stretch_key(b"secret"));
        assert_ne!(stretch_key(b"secret"), stretch_key(b"secres"));
        assert_ne!(stretch_key(b""), stretch_key(b"\x00"));
        // Numeric keys (the CLI default is "0") still differ.
        assert_ne!(stretch_key(b"1"), stretch_key(b"2"));
    }

    #[test]
    fn equal_profiles_equal_fingerprints() {
        let a = sym().build_with(&resolver).unwrap();
        let b = Profile::parse(&sym().to_text()).unwrap().build_with(&resolver).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().to_string().len(), 32);
    }

    #[test]
    fn differing_keys_differ_in_fingerprint() {
        let good = sym().build_with(&resolver).unwrap();
        let bad = sym().key("wrong").build_with(&resolver).unwrap();
        assert_ne!(good.fingerprint(), bad.fingerprint(), "key mismatch must be detectable");
        // ... and so do level, transforms, spec and frame-limit changes.
        for variant in [
            sym().level(3),
            sym().transforms([TransformKind::ConstXor]),
            sym().max_frame(1024),
            Profile::asymmetric("builtin:a".parse().unwrap(), "builtin:b".parse().unwrap())
                .key("secret")
                .level(2),
        ] {
            let other = variant.build_with(&resolver).unwrap();
            assert_ne!(good.fingerprint(), other.fingerprint(), "{variant:?}");
        }
    }

    #[test]
    fn symmetric_endpoint_shares_services() {
        let ep = sym().build_with(&resolver).unwrap();
        assert!(ep.is_symmetric());
        assert!(Arc::ptr_eq(ep.tx_service(), ep.rx_service()));
        assert!(Arc::ptr_eq(ep.clear_tx_service(), ep.clear_rx_service()));
        assert!(!Arc::ptr_eq(ep.tx_service(), ep.clear_tx_service()));
    }

    #[test]
    fn asymmetric_endpoint_builds_distinct_stacks() {
        let ep = asym().build_with(&resolver).unwrap();
        assert!(!ep.is_symmetric());
        assert!(!Arc::ptr_eq(ep.tx_service(), ep.rx_service()));
        assert_eq!(ep.tx_service().codec().plain().name(), "a");
        assert_eq!(ep.rx_service().codec().plain().name(), "b");
        assert!(ep.tx_service().codec().transform_count() > 0);
    }

    #[test]
    fn level_zero_shares_clear_and_obf_services() {
        let ep = sym().level(0).build_with(&resolver).unwrap();
        assert!(Arc::ptr_eq(ep.tx_service(), ep.clear_tx_service()));
        assert_eq!(ep.tx_service().codec().transform_count(), 0);
    }

    #[test]
    fn tuning_reaches_the_services() {
        let ep = sym().max_frame(2048).build_with(&resolver).unwrap();
        assert_eq!(ep.tx_service().frame_limit(), 2048);
        assert_eq!(ep.clear_tx_service().frame_limit(), 2048);
    }

    #[test]
    fn unresolvable_source_reports_the_source() {
        let p = Profile::symmetric("builtin:nope".parse().unwrap());
        let err = p.build_with(&resolver).unwrap_err().to_string();
        assert!(err.contains("builtin:nope"), "{err}");
    }

    #[test]
    fn summary_names_both_directions_and_fingerprint() {
        let ep = asym().build_with(&resolver).unwrap();
        let s = ep.summary();
        assert!(s.contains("tx builtin:a"), "{s}");
        assert!(s.contains("rx builtin:b"), "{s}");
        assert!(s.contains(&ep.fingerprint().to_string()), "{s}");
        let sym_s = sym().build_with(&resolver).unwrap().summary();
        assert!(sym_s.contains("symmetric"), "{sym_s}");
    }
}
