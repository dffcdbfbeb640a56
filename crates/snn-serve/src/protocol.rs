//! The wire protocol: line-delimited requests and responses.
//!
//! One request or response per LF-terminated line. A line is a verb (or
//! `ok`/`err` for responses) followed by space-separated `key=value`
//! fields. Values are space-free tokens; a value containing spaces is
//! double-quoted (`msg="session queue full"`, no inner quotes). Binary
//! payloads — image batches, model snapshots — travel hex-encoded in a
//! `data=` field, framed by the same deterministic byte codec the
//! snapshot format uses ([`snn_online::codec`]); see `DESIGN.md` §8 for
//! the full grammar.
//!
//! The format is deliberately self-inverse: [`format_request`] ∘
//! [`parse_request`] and [`format_response`] ∘ [`parse_response`] are
//! identities, pinned by this module's round-trip tests. Every parse
//! failure is an explicit [`ProtocolError`]; nothing panics on hostile
//! input.

use std::fmt;

use snn_data::Image;
use snn_online::codec::{ByteReader, ByteWriter, CodecError};
use spikedyn::Method;

/// The protocol generation this build speaks. Mirrors the snapshot
/// format's `SNAPSHOT_VERSION` discipline: a `hello proto=…` exchange
/// fails fast on mismatch instead of letting an incompatible peer
/// misparse lines (see [`Request::Hello`]).
pub const PROTO_VERSION: u32 = 1;

/// The binary-framing protocol generation (`DESIGN.md` §13). Negotiated
/// through the same `hello proto=…` gate: a `hello proto=2` accepted by
/// the server upgrades the connection from line framing to length-
/// prefixed binary frames over one multiplexed socket ([`crate::frame`],
/// [`crate::mux`]). Proto 1 stays the client-edge default; the
/// router↔shard relay speaks proto 2 only.
pub const PROTO_V2: u32 = 2;

/// Answers `hello proto=<proto>` on any tier: the `ok proto=<proto>`
/// banner followed by the tier's capability `fields` when `proto` is one
/// this build speaks ([`PROTO_VERSION`] ..= [`PROTO_V2`] — a fixed
/// range, since every tier of one build speaks both), and
/// `err code=proto-mismatch` otherwise, so an incompatible peer fails
/// fast instead of misparsing lines.
pub fn hello_reply(
    proto: u32,
    fields: impl IntoIterator<Item = (&'static str, String)>,
) -> Response {
    if !(PROTO_VERSION..=PROTO_V2).contains(&proto) {
        return Response::error(
            "proto-mismatch",
            format!("this build speaks proto {PROTO_VERSION}..{PROTO_V2}, client sent {proto}"),
        );
    }
    Response::ok(std::iter::once(("proto", proto.to_string())).chain(fields))
}

/// Hard cap on one protocol line in bytes (a paper-scale snapshot is a
/// few MiB hex-encoded; this bounds hostile allocations, not real use).
pub const MAX_LINE_BYTES: u64 = 64 * 1024 * 1024;

/// Maximum session-id length in bytes.
pub const MAX_SESSION_ID: usize = 64;

/// Errors raised while parsing protocol lines or payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The line was empty.
    Empty,
    /// The verb is not part of the protocol.
    UnknownVerb(String),
    /// A required field is missing.
    MissingField(&'static str),
    /// A field's value could not be parsed.
    InvalidValue {
        /// The field name.
        field: String,
        /// The offending value.
        value: String,
    },
    /// A field token has no `=` separator, or a quote never closes.
    MalformedField(String),
    /// A binary payload failed to decode.
    Codec(CodecError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty line"),
            ProtocolError::UnknownVerb(v) => write!(f, "unknown verb {v:?}"),
            ProtocolError::MissingField(k) => write!(f, "missing field {k}"),
            ProtocolError::InvalidValue { field, value } => {
                write!(f, "invalid value {value:?} for field {field}")
            }
            ProtocolError::MalformedField(t) => write!(f, "malformed field {t:?}"),
            ProtocolError::Codec(e) => write!(f, "payload error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

/// Configuration of a new session, as carried by the `open` request.
/// Every field has a serving-profile default; `open` lines set only what
/// they need. [`SessionSpec::online_config`] lowers the spec onto a full
/// [`snn_online::OnlineConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Learning method (`baseline` | `asp` | `spikedyn`).
    pub method: Method,
    /// Excitatory neurons.
    pub n_exc: usize,
    /// Input channels per sample.
    pub n_input: usize,
    /// Stream classes.
    pub n_classes: usize,
    /// Master seed.
    pub seed: u64,
    /// Samples per micro-batch.
    pub batch_size: usize,
    /// Assignment refresh interval in samples.
    pub assign_every: u64,
    /// Labelled reservoir capacity.
    pub reservoir_capacity: usize,
    /// Sliding metric window in samples.
    pub metric_window: usize,
    /// Drift detector window in samples.
    pub drift_window: usize,
}

impl Default for SessionSpec {
    fn default() -> Self {
        let cfg = snn_online::OnlineConfig::fast(Method::SpikeDyn, 100);
        SessionSpec {
            method: cfg.method,
            n_exc: cfg.n_exc,
            n_input: cfg.n_input,
            n_classes: cfg.n_classes,
            seed: cfg.seed,
            batch_size: cfg.batch_size,
            assign_every: cfg.assign_every,
            reservoir_capacity: cfg.reservoir_capacity,
            metric_window: cfg.metric_window,
            drift_window: cfg.drift.window,
        }
    }
}

impl SessionSpec {
    /// Lowers the spec onto a full learner configuration (the fields the
    /// protocol does not expose keep the fast-profile defaults).
    pub fn online_config(&self) -> snn_online::OnlineConfig {
        let mut cfg = snn_online::OnlineConfig::fast(self.method, self.n_exc);
        cfg.n_input = self.n_input;
        cfg.n_classes = self.n_classes;
        cfg.seed = self.seed;
        cfg.batch_size = self.batch_size;
        cfg.assign_every = self.assign_every;
        cfg.reservoir_capacity = self.reservoir_capacity;
        cfg.metric_window = self.metric_window;
        cfg.drift.window = self.drift_window;
        cfg
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake: the client announces the protocol generation
    /// it speaks; the server answers with a versioned banner
    /// (`ok proto=… server=…`) or `err code=proto-mismatch`.
    Hello {
        /// The client's [`PROTO_VERSION`].
        proto: u32,
    },
    /// Liveness check.
    Ping,
    /// Server-wide statistics.
    Stats,
    /// Full metrics scrape: the reply's `data` field carries the
    /// hex-encoded `snn-obs` text exposition of the server's registry
    /// (multi-line text cannot ride a single-line response directly).
    Metrics,
    /// Flight-recorder dump: the reply's `data` field carries the
    /// hex-encoded `snn-journal` text of the server's event ring. The
    /// routing tier polls this per health tick so a dead shard's last
    /// journal survives it (the black-box it cannot scrape post-mortem).
    Journal,
    /// Switch this connection into streaming mode: after the `ok`
    /// acknowledgement the server pushes one `push seq=… data=…
    /// journal=…` frame roughly every `interval_ms` until the client
    /// disconnects or the server shuts down. Frames are sampled into a
    /// bounded buffer; a slow consumer loses frames (counted in
    /// `serve.subscribe.drops`), never stalls the data plane.
    Subscribe {
        /// Sampling period in milliseconds (clamped server-side).
        interval_ms: u64,
    },
    /// Open a fresh session.
    Open {
        /// Session id (token, ≤ [`MAX_SESSION_ID`] bytes).
        id: String,
        /// Session configuration.
        spec: SessionSpec,
    },
    /// Feed one micro-batch of labelled samples into a session.
    Ingest {
        /// Session id.
        id: String,
        /// The batch, in stream order.
        images: Vec<Image>,
    },
    /// Current prequential report of a session.
    Report {
        /// Session id.
        id: String,
    },
    /// Modelled per-session energy totals.
    Energy {
        /// Session id.
        id: String,
    },
    /// Serialise the session's full state as a snapshot.
    Checkpoint {
        /// Session id.
        id: String,
    },
    /// Open a **new** session restored from a snapshot.
    Restore {
        /// Session id for the restored session.
        id: String,
        /// Raw [`snn_online::ModelSnapshot`] container bytes.
        snapshot: Vec<u8>,
    },
    /// Hot-swap a **running** session onto a snapshot (same config).
    Swap {
        /// Session id.
        id: String,
        /// Raw [`snn_online::ModelSnapshot`] container bytes.
        snapshot: Vec<u8>,
    },
    /// Store a session's shadow checkpoint **without opening a live
    /// session**: the blob is validated and kept in a bounded in-memory
    /// store keyed by id, so a routing tier can later `restore` it onto
    /// this shard if the session's home shard dies. `seq` is the
    /// snapshot's stream position (`samples_seen`) and must match the
    /// payload; mismatches fail fast with `shadow-stale`.
    Shadow {
        /// Session id the shadow belongs to.
        id: String,
        /// Raw [`snn_online::ModelSnapshot`] container bytes.
        snapshot: Vec<u8>,
        /// Stream position (`samples_seen`) claimed for the snapshot.
        seq: u64,
    },
    /// Fetch the stored shadow for `id` (same verb, no `data` field):
    /// the reply carries `seq=` and the blob in `data=`. A failover tier
    /// uses this to pull the shadow off its holder before restoring it
    /// onto a live shard.
    ShadowGet {
        /// Session id the shadow belongs to.
        id: String,
    },
    /// Evict a session: checkpoint its full state to the server's evict
    /// directory, free the in-memory learner, and answer later requests
    /// for the id with `err code=session-evicted` carrying the restore
    /// path. The cluster tier uses this to enforce energy budgets.
    Evict {
        /// Session id.
        id: String,
    },
    /// Close a session, returning its final report.
    Close {
        /// Session id.
        id: String,
    },
    /// Fetch this server's raw trace material for one request id: every
    /// retained span and journal event stamped with `rid`, hex-encoded
    /// as `snn-obs` / `snn-journal` text in the reply's `data` and
    /// `journal` fields. The cluster tier's `cluster-trace` verb fans
    /// this out across shards and assembles the merged
    /// [`snn_obs::TraceTree`].
    Trace {
        /// The request id whose spans/events are wanted.
        rid: String,
    },
}

/// One server response: `ok` with ordered `key=value` pairs, or `err`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; fields depend on the request.
    Ok(Vec<(String, String)>),
    /// Failure.
    Err {
        /// Stable machine-readable code (kebab-case).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
}

impl Response {
    /// Builds an `ok` response from `(key, value)` pairs.
    pub fn ok<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        Response::Ok(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Builds an `err` response.
    pub fn error(code: impl Into<String>, msg: impl Into<String>) -> Self {
        Response::Err {
            code: code.into(),
            msg: msg.into(),
        }
    }

    /// The value of `key` in an `ok` response, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        match self {
            Response::Ok(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str()),
            Response::Err { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Hex payloads.

/// Encodes bytes as lowercase hex.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble < 16"));
        out.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble < 16"));
    }
    out
}

/// Decodes lowercase/uppercase hex into bytes.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidValue`] on odd length or non-hex
/// characters.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, ProtocolError> {
    let bad = || ProtocolError::InvalidValue {
        field: "data".into(),
        value: abbreviate(s),
    };
    if !s.len().is_multiple_of(2) {
        return Err(bad());
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or_else(bad)?;
        let lo = (pair[1] as char).to_digit(16).ok_or_else(bad)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

fn abbreviate(s: &str) -> String {
    if s.len() <= 32 {
        s.to_string()
    } else {
        // Char-wise truncation: a byte offset could split a multibyte
        // code point and panic on hostile input.
        let head: String = s.chars().take(32).collect();
        format!("{head}… ({} bytes)", s.len())
    }
}

// ---------------------------------------------------------------------------
// Image batch payload.

/// Serialises a batch of images into the deterministic byte framing used
/// inside `data=` fields (count-prefixed; per image: width, height,
/// label, pixels as IEEE-754 bit patterns).
pub fn encode_images(images: &[Image]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.usize(images.len());
    for img in images {
        w.usize(img.width());
        w.usize(img.height());
        w.u8(img.label);
        w.f32_slice(img.pixels());
    }
    w.into_bytes()
}

/// Parses a batch serialised by [`encode_images`].
///
/// # Errors
///
/// Returns [`ProtocolError::Codec`] on truncated or shape-inconsistent
/// payloads.
pub fn decode_images(bytes: &[u8]) -> Result<Vec<Image>, ProtocolError> {
    let mut r = ByteReader::new(bytes);
    let n = r.usize("images.count")?;
    let mut images = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let width = r.usize("image.width")?;
        let height = r.usize("image.height")?;
        let label = r.u8("image.label")?;
        let pixels = r.f32_vec("image.pixels")?;
        if width.checked_mul(height) != Some(pixels.len()) {
            return Err(ProtocolError::Codec(CodecError::Invalid {
                what: "image.pixels",
                value: pixels.len() as u64,
            }));
        }
        images.push(Image::new(width, height, pixels, label));
    }
    r.finish()?;
    Ok(images)
}

// ---------------------------------------------------------------------------
// Predictions field.

/// Renders predictions as a comma-separated field value (`_` = none),
/// e.g. `3,_,7`. Empty batches render as the empty string.
pub fn encode_predictions(predictions: &[Option<u8>]) -> String {
    predictions
        .iter()
        .map(|p| match p {
            Some(c) => c.to_string(),
            None => "_".to_string(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a field rendered by [`encode_predictions`].
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidValue`] on non-integer entries.
pub fn decode_predictions(s: &str) -> Result<Vec<Option<u8>>, ProtocolError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|tok| {
            if tok == "_" {
                Ok(None)
            } else {
                tok.parse::<u8>()
                    .map(Some)
                    .map_err(|_| ProtocolError::InvalidValue {
                        field: "predictions".into(),
                        value: tok.to_string(),
                    })
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Line tokenizer.

/// Splits a line into its verb and `key=value` fields (quoted values may
/// contain spaces). Public so a routing tier can inspect the verb and
/// `id` of a request and forward the raw line without decoding (and
/// re-encoding) multi-megabyte payload fields.
///
/// # Errors
///
/// Returns [`ProtocolError`] on empty lines or malformed field tokens.
pub fn tokenize(line: &str) -> Result<(String, Vec<(String, String)>), ProtocolError> {
    let line = line.trim_end_matches(['\r', '\n']);
    // Verb: up to the first space. A leading space means an empty verb.
    let verb_end = line.find(' ').unwrap_or(line.len());
    let verb = &line[..verb_end];
    if verb.is_empty() {
        return Err(ProtocolError::Empty);
    }
    let mut fields = Vec::new();
    let rest = &line[verb_end..];
    let mut pos = 0usize;
    let bytes = rest.as_bytes();
    while pos < bytes.len() {
        // Skip separating spaces.
        while pos < bytes.len() && bytes[pos] == b' ' {
            pos += 1;
        }
        if pos >= bytes.len() {
            break;
        }
        let start = pos;
        let eq = rest[pos..]
            .find('=')
            .map(|o| pos + o)
            .ok_or_else(|| ProtocolError::MalformedField(field_token(rest, start)))?;
        let key = &rest[start..eq];
        if key.is_empty() || key.contains(' ') {
            return Err(ProtocolError::MalformedField(field_token(rest, start)));
        }
        pos = eq + 1;
        let value = if bytes.get(pos) == Some(&b'"') {
            let close = rest[pos + 1..]
                .find('"')
                .map(|o| pos + 1 + o)
                .ok_or_else(|| ProtocolError::MalformedField(field_token(rest, start)))?;
            let v = &rest[pos + 1..close];
            pos = close + 1;
            v
        } else {
            let end = rest[pos..].find(' ').map(|o| pos + o).unwrap_or(rest.len());
            let v = &rest[pos..end];
            pos = end;
            v
        };
        fields.push((key.to_string(), value.to_string()));
    }
    Ok((verb.to_string(), fields))
}

fn field_token(rest: &str, start: usize) -> String {
    let end = rest[start..]
        .find(' ')
        .map(|o| start + o)
        .unwrap_or(rest.len());
    abbreviate(&rest[start..end])
}

/// Renders a field value, quoting when it contains spaces. The protocol
/// has no escape sequences, so the few characters that would break
/// framing (`"` and line breaks — they reach here via error messages
/// that quote hostile input) are replaced, never emitted. Clean tokens
/// (the overwhelmingly common case, including multi-MB hex payloads)
/// are borrowed, not copied.
fn render_value(v: &str) -> std::borrow::Cow<'_, str> {
    if !v.is_empty() && !v.contains([' ', '"', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(v);
    }
    let clean: String = v
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    if clean.contains(' ') || clean.is_empty() {
        std::borrow::Cow::Owned(format!("\"{clean}\""))
    } else {
        std::borrow::Cow::Owned(clean)
    }
}

struct Fields {
    map: Vec<(String, String)>,
}

impl Fields {
    fn new(pairs: Vec<(String, String)>) -> Self {
        Fields { map: pairs }
    }

    fn get(&self, key: &'static str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &'static str) -> Result<&str, ProtocolError> {
        self.get(key).ok_or(ProtocolError::MissingField(key))
    }

    fn parse<T: std::str::FromStr>(
        &self,
        key: &'static str,
        default: T,
    ) -> Result<T, ProtocolError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|_| ProtocolError::InvalidValue {
                field: key.to_string(),
                value: v.to_string(),
            }),
        }
    }
}

/// Extracts the propagated request id from a request line, if present.
///
/// By the trace-propagation rule (`DESIGN.md` §10) a relaying tier
/// appends ` rid=<rid>` as the **final** field of a forwarded line, so
/// only the last space-separated token is inspected — O(rid) even on a
/// multi-megabyte `ingest` line. Unknown `k=v` fields are already
/// tolerated by [`parse_request`], so a rid-bearing line stays parseable
/// by rid-unaware servers.
pub fn extract_rid(line: &str) -> Option<&str> {
    let last = line.trim_end_matches(['\r', '\n']).rsplit(' ').next()?;
    let rid = last.strip_prefix("rid=")?;
    snn_obs::valid_rid(rid).then_some(rid)
}

/// Whether `id` is a well-formed session id (non-empty, at most
/// [`MAX_SESSION_ID`] bytes of `[A-Za-z0-9._-]`). Routing tiers apply
/// the same rule before reserving table entries for an id.
pub fn valid_session_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_SESSION_ID
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

fn session_id(fields: &Fields) -> Result<String, ProtocolError> {
    let id = fields.required("id")?;
    if !valid_session_id(id) {
        return Err(ProtocolError::InvalidValue {
            field: "id".into(),
            value: abbreviate(id),
        });
    }
    Ok(id.to_string())
}

fn method_from_label(v: &str) -> Result<Method, ProtocolError> {
    match v {
        "baseline" => Ok(Method::Baseline),
        "asp" => Ok(Method::Asp),
        "spikedyn" => Ok(Method::SpikeDyn),
        _ => Err(ProtocolError::InvalidValue {
            field: "method".into(),
            value: v.to_string(),
        }),
    }
}

fn method_label(m: Method) -> &'static str {
    match m {
        Method::Baseline => "baseline",
        Method::Asp => "asp",
        Method::SpikeDyn => "spikedyn",
    }
}

// ---------------------------------------------------------------------------
// Request parse/format.

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ProtocolError`] on unknown verbs, missing/invalid fields or
/// malformed payloads.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let (verb, pairs) = tokenize(line)?;
    let fields = Fields::new(pairs);
    match verb.as_str() {
        "hello" => {
            let proto = fields.required("proto")?;
            let proto = proto
                .parse::<u32>()
                .map_err(|_| ProtocolError::InvalidValue {
                    field: "proto".into(),
                    value: proto.to_string(),
                })?;
            Ok(Request::Hello { proto })
        }
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "journal" => Ok(Request::Journal),
        "subscribe" => {
            let interval_ms = fields.parse("interval_ms", 100u64)?;
            Ok(Request::Subscribe { interval_ms })
        }
        "open" => {
            let id = session_id(&fields)?;
            let defaults = SessionSpec::default();
            let method = match fields.get("method") {
                None => defaults.method,
                Some(v) => method_from_label(v)?,
            };
            let spec = SessionSpec {
                method,
                n_exc: fields.parse("n_exc", defaults.n_exc)?,
                n_input: fields.parse("n_input", defaults.n_input)?,
                n_classes: fields.parse("n_classes", defaults.n_classes)?,
                seed: fields.parse("seed", defaults.seed)?,
                batch_size: fields.parse("batch", defaults.batch_size)?,
                assign_every: fields.parse("assign_every", defaults.assign_every)?,
                reservoir_capacity: fields.parse("reservoir", defaults.reservoir_capacity)?,
                metric_window: fields.parse("metric_window", defaults.metric_window)?,
                drift_window: fields.parse("drift_window", defaults.drift_window)?,
            };
            Ok(Request::Open { id, spec })
        }
        "ingest" => {
            let id = session_id(&fields)?;
            let images = decode_images(&hex_decode(fields.required("data")?)?)?;
            Ok(Request::Ingest { id, images })
        }
        "report" => Ok(Request::Report {
            id: session_id(&fields)?,
        }),
        "energy" => Ok(Request::Energy {
            id: session_id(&fields)?,
        }),
        "checkpoint" => Ok(Request::Checkpoint {
            id: session_id(&fields)?,
        }),
        "restore" => Ok(Request::Restore {
            id: session_id(&fields)?,
            snapshot: hex_decode(fields.required("data")?)?,
        }),
        "swap" => Ok(Request::Swap {
            id: session_id(&fields)?,
            snapshot: hex_decode(fields.required("data")?)?,
        }),
        "shadow" => {
            let id = session_id(&fields)?;
            if fields.get("data").is_none() {
                return Ok(Request::ShadowGet { id });
            }
            let seq = fields.required("seq")?;
            let seq = seq
                .parse::<u64>()
                .map_err(|_| ProtocolError::InvalidValue {
                    field: "seq".into(),
                    value: seq.to_string(),
                })?;
            Ok(Request::Shadow {
                id,
                snapshot: hex_decode(fields.required("data")?)?,
                seq,
            })
        }
        "evict" => Ok(Request::Evict {
            id: session_id(&fields)?,
        }),
        "close" => Ok(Request::Close {
            id: session_id(&fields)?,
        }),
        "trace" => {
            let rid = fields.required("rid")?;
            if !snn_obs::valid_rid(rid) {
                return Err(ProtocolError::InvalidValue {
                    field: "rid".into(),
                    value: abbreviate(rid),
                });
            }
            Ok(Request::Trace {
                rid: rid.to_string(),
            })
        }
        _ => Err(ProtocolError::UnknownVerb(abbreviate(&verb))),
    }
}

/// Renders a request as its wire line (no trailing newline).
pub fn format_request(req: &Request) -> String {
    match req {
        Request::Hello { proto } => format!("hello proto={proto}"),
        Request::Ping => "ping".to_string(),
        Request::Stats => "stats".to_string(),
        Request::Metrics => "metrics".to_string(),
        Request::Journal => "journal".to_string(),
        Request::Subscribe { interval_ms } => format!("subscribe interval_ms={interval_ms}"),
        Request::Open { id, spec } => format!(
            "open id={id} method={} n_exc={} n_input={} n_classes={} seed={} batch={} \
             assign_every={} reservoir={} metric_window={} drift_window={}",
            method_label(spec.method),
            spec.n_exc,
            spec.n_input,
            spec.n_classes,
            spec.seed,
            spec.batch_size,
            spec.assign_every,
            spec.reservoir_capacity,
            spec.metric_window,
            spec.drift_window,
        ),
        Request::Ingest { id, images } => {
            format!("ingest id={id} data={}", hex_encode(&encode_images(images)))
        }
        Request::Report { id } => format!("report id={id}"),
        Request::Energy { id } => format!("energy id={id}"),
        Request::Checkpoint { id } => format!("checkpoint id={id}"),
        Request::Restore { id, snapshot } => {
            format!("restore id={id} data={}", hex_encode(snapshot))
        }
        Request::Swap { id, snapshot } => {
            format!("swap id={id} data={}", hex_encode(snapshot))
        }
        Request::Shadow { id, snapshot, seq } => {
            format!("shadow id={id} seq={seq} data={}", hex_encode(snapshot))
        }
        Request::ShadowGet { id } => format!("shadow id={id}"),
        Request::Evict { id } => format!("evict id={id}"),
        Request::Close { id } => format!("close id={id}"),
        // The target rid doubles as the line's trailing rid= field, so a
        // trace request's own span lands on the rid being traced.
        Request::Trace { rid } => format!("trace rid={rid}"),
    }
}

// ---------------------------------------------------------------------------
// Response parse/format.

/// Parses one response line.
///
/// # Errors
///
/// Returns [`ProtocolError`] on lines that start with neither `ok` nor
/// `err`, or on malformed fields.
pub fn parse_response(line: &str) -> Result<Response, ProtocolError> {
    let (verb, pairs) = tokenize(line)?;
    let fields = Fields::new(pairs);
    match verb.as_str() {
        "ok" => Ok(Response::Ok(fields.map)),
        "err" => Ok(Response::Err {
            code: fields.required("code")?.to_string(),
            msg: fields.get("msg").unwrap_or_default().to_string(),
        }),
        _ => Err(ProtocolError::UnknownVerb(abbreviate(&verb))),
    }
}

/// Renders a response as its wire line (no trailing newline).
pub fn format_response(resp: &Response) -> String {
    match resp {
        Response::Ok(pairs) => {
            let mut out = "ok".to_string();
            for (k, v) in pairs {
                out.push(' ');
                out.push_str(k);
                out.push('=');
                out.push_str(&render_value(v));
            }
            out
        }
        Response::Err { code, msg } => {
            format!("err code={} msg={}", render_value(code), render_value(msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_data::SyntheticDigits;

    fn images(n: u64) -> Vec<Image> {
        let gen = SyntheticDigits::new(3);
        (0..n)
            .map(|i| gen.sample((i % 4) as u8, i).downsample(4))
            .collect()
    }

    #[test]
    fn hex_roundtrips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_encode(&[0xDE, 0xAD]), "dead");
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digit");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn image_batch_roundtrips_bit_exactly() {
        let batch = images(5);
        let decoded = decode_images(&encode_images(&batch)).unwrap();
        assert_eq!(decoded, batch);
        assert!(decode_images(&encode_images(&[])).unwrap().is_empty());
    }

    #[test]
    fn image_batch_rejects_corruption() {
        let bytes = encode_images(&images(2));
        assert!(
            decode_images(&bytes[..bytes.len() - 3]).is_err(),
            "truncated"
        );
        let mut wrong_shape = bytes.clone();
        wrong_shape[8] ^= 1; // width no longer matches the pixel count
        assert!(decode_images(&wrong_shape).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_images(&trailing).is_err());
    }

    #[test]
    fn predictions_roundtrip() {
        let preds = vec![Some(3), None, Some(0), Some(9)];
        assert_eq!(encode_predictions(&preds), "3,_,0,9");
        assert_eq!(decode_predictions("3,_,0,9").unwrap(), preds);
        assert_eq!(decode_predictions("").unwrap(), vec![]);
        assert!(decode_predictions("3,x").is_err());
    }

    #[test]
    fn every_request_roundtrips() {
        let spec = SessionSpec {
            method: Method::Asp,
            n_exc: 24,
            seed: 99,
            batch_size: 4,
            ..SessionSpec::default()
        };
        let requests = vec![
            Request::Hello {
                proto: PROTO_VERSION,
            },
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Journal,
            Request::Subscribe { interval_ms: 250 },
            Request::Open {
                id: "s-1".into(),
                spec,
            },
            Request::Ingest {
                id: "s-1".into(),
                images: images(3),
            },
            Request::Report { id: "s-1".into() },
            Request::Energy { id: "s-1".into() },
            Request::Checkpoint { id: "s-1".into() },
            Request::Restore {
                id: "r.2".into(),
                snapshot: vec![1, 2, 3, 255],
            },
            Request::Swap {
                id: "s-1".into(),
                snapshot: vec![9; 33],
            },
            Request::Shadow {
                id: "s-1".into(),
                snapshot: vec![7; 16],
                seq: 12_345,
            },
            Request::ShadowGet { id: "s-1".into() },
            Request::Evict { id: "s-1".into() },
            Request::Close { id: "s-1".into() },
            Request::Trace {
                rid: "s0-17".into(),
            },
        ];
        for req in requests {
            let line = format_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn rid_rides_as_the_final_field() {
        assert_eq!(extract_rid("ping rid=c0-7"), Some("c0-7"));
        assert_eq!(
            extract_rid("ingest id=a data=0101 rid=s1-42\n"),
            Some("s1-42")
        );
        assert_eq!(extract_rid("ping"), None, "no rid field");
        assert_eq!(
            extract_rid("ingest rid=c0-1 id=a data=00"),
            None,
            "rid must be the final field"
        );
        assert_eq!(extract_rid("ping rid="), None, "empty rid is invalid");
        assert_eq!(extract_rid("ping rid=\"x y\""), None, "quoted rid rejected");
        // A rid-bearing line still parses (unknown fields are tolerated).
        assert_eq!(parse_request("ping rid=c0-7").unwrap(), Request::Ping);
        assert_eq!(parse_request("metrics rid=c0-8").unwrap(), Request::Metrics);
    }

    #[test]
    fn open_defaults_apply() {
        let req = parse_request("open id=a").unwrap();
        match req {
            Request::Open { id, spec } => {
                assert_eq!(id, "a");
                assert_eq!(spec, SessionSpec::default());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip_including_quoted_messages() {
        let ok = Response::ok([("id", "s-1"), ("samples", "42"), ("predictions", "1,_,3")]);
        assert_eq!(parse_response(&format_response(&ok)).unwrap(), ok);
        let err = Response::error("backpressure", "session queue full (8 pending)");
        let line = format_response(&err);
        assert!(line.contains("msg=\"session queue full"));
        assert_eq!(parse_response(&line).unwrap(), err);
    }

    #[test]
    fn float_fields_roundtrip_losslessly_through_display() {
        // Rust's float Display is shortest-round-trip, so report fields
        // survive the wire exactly.
        for v in [0.1f64, 1.0 / 3.0, f64::MIN_POSITIVE, 123_456.789_012_345] {
            let resp = Response::ok([("accuracy", v.to_string())]);
            let parsed = parse_response(&format_response(&resp)).unwrap();
            let back: f64 = parsed.get("accuracy").unwrap().parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn hostile_lines_error_cleanly() {
        for line in [
            "",
            "   ",
            "frobnicate id=x",
            "open",                       // missing id
            "open id=",                   // empty id
            "open id=has space",          // really `id=has` + junk token `space`
            "open id=ok!",                // invalid character
            "ingest id=a",                // missing data
            "ingest id=a data=zz",        // bad hex
            "shadow id=a data=00",        // missing seq
            "shadow id=a seq=no data=00", // non-numeric seq
            "open id=a n_exc=notanumber", // bad integer
            "hello",                      // missing proto
            "hello proto=latest",         // non-numeric proto
            "subscribe interval_ms=fast", // non-numeric interval
            "trace",                      // missing rid
            "trace rid=\"a b\"",          // rid with forbidden characters
            "err msg=\"unterminated",
            "ok =v",
        ] {
            assert!(
                parse_request(line).is_err() || parse_response(line).is_err(),
                "line should fail somewhere: {line:?}"
            );
        }
        let too_long = format!("open id={}", "x".repeat(MAX_SESSION_ID + 1));
        assert!(parse_request(&too_long).is_err());
    }

    #[test]
    fn multibyte_hostile_input_does_not_panic() {
        // The error paths abbreviate the offending value; a byte-offset
        // slice would panic when byte 32 splits a multibyte code point.
        let long_unicode = format!("open id={}é{}", "a".repeat(31), "b".repeat(30));
        assert!(parse_request(&long_unicode).is_err());
        let unicode_verb = format!("{}é{}", "v".repeat(31), "w".repeat(30));
        assert!(parse_request(&unicode_verb).is_err());
        assert!(hex_decode(&format!("{}é{}", "a".repeat(31), "b".repeat(31))).is_err());
    }

    #[test]
    fn session_spec_lowers_onto_online_config() {
        let spec = SessionSpec {
            method: Method::SpikeDyn,
            n_exc: 12,
            n_input: 49,
            n_classes: 4,
            seed: 7,
            batch_size: 4,
            assign_every: 8,
            reservoir_capacity: 16,
            metric_window: 12,
            drift_window: 8,
        };
        let cfg = spec.online_config();
        assert_eq!(cfg.n_exc, 12);
        assert_eq!(cfg.n_input, 49);
        assert_eq!(cfg.n_classes, 4);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.batch_size, 4);
        assert_eq!(cfg.assign_every, 8);
        assert_eq!(cfg.reservoir_capacity, 16);
        assert_eq!(cfg.metric_window, 12);
        assert_eq!(cfg.drift.window, 8);
    }
}
