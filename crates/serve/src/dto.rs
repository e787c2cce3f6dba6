//! The wire layer of `crusade-serve`: data-transfer objects, framing and
//! strict decoding.
//!
//! The protocol is newline-delimited JSON over a TCP stream. Every frame
//! is one JSON object on one line. Clients send [`Request`] frames; the
//! server answers with [`Response`] frames, and a streamed submission
//! additionally receives [`JobEvent`] progress frames (wrapped in
//! [`ResponseBody::Event`]) before the final result.
//!
//! The DTO layer is deliberately separate from the domain (`server`
//! module): wire types carry plain integers, strings and serde forms of
//! the model types, never live handles — and every frame is versioned
//! with [`PROTOCOL_VERSION`] so incompatible peers fail with a typed
//! [`ProtocolError`] instead of mis-parsing each other.
//!
//! # Strictness
//!
//! The vendored serde stand-in ignores unknown map keys, so strictness is
//! enforced here, in [`decode_request`]: the envelope and the body
//! variant payload must carry *exactly* the documented fields, the
//! protocol version must match, the frame must stay under the size cap,
//! and violations come back as typed [`ProtocolError`]s — never a panic,
//! never a silently-dropped field. The decoder builds no tree: a
//! validate-only pre-scan takes the key census of the envelope, the body
//! and the command payload, and one typed pass then reads the request
//! straight from the text (see [`decode_request`]).

use serde::{DeError, Deserialize, Serialize, Source, Token};
use serde_json::Deserializer;

use crusade_model::{ResourceLibrary, SpecDelta, SystemSpec};
use crusade_obs::Event;

/// The wire-protocol version stamped on (and demanded of) every frame.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on one frame's byte length (covers the largest Table-2
/// specification with generous headroom).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// A specification payload: the serde forms of the resource library and
/// the system specification — the same JSON shape `crusade synth`
/// accepts as a file (`{ "library": ..., "spec": ... }`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecPayload {
    /// The resource library the specification is synthesized against.
    pub library: ResourceLibrary,
    /// The system specification.
    pub spec: SystemSpec,
}

/// One client request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version; must equal [`PROTOCOL_VERSION`].
    pub v: u32,
    /// Self-declared client identity; the unit of admission quotas.
    pub client: String,
    /// What the client wants.
    pub body: RequestBody,
}

/// The request vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Synthesize a specification (portfolio exploration); blocks until
    /// the result frame, streaming progress events when asked to.
    Submit(SubmitRequest),
    /// Query a job's state by id.
    Status(JobRef),
    /// Cooperatively cancel a queued or running job.
    Cancel(JobRef),
    /// Apply spec deltas against the cached incumbent of a specification
    /// via the online re-synthesis escalation ladder.
    Resyn(ResynRequest),
    /// Server counters (queue depth, cache hits, jobs by outcome).
    Stats(StatsRequest),
    /// Graceful drain: finish or cancel in-flight work, then exit 0.
    Shutdown(ShutdownRequest),
}

/// Payload of [`RequestBody::Submit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// The specification to synthesize.
    pub payload: SpecPayload,
    /// Portfolio size for the exploration (at least 1; member 0 is the
    /// paper's baseline policy).
    pub portfolio: usize,
    /// Whether the dynamic-reconfiguration phase runs (part of the cache
    /// key: the same spec with and without reconfiguration yields
    /// different architectures).
    pub reconfiguration: bool,
    /// Stream coarse progress events ([`JobEvent`] frames) before the
    /// final result.
    pub stream: bool,
}

/// A job reference ([`RequestBody::Status`] / [`RequestBody::Cancel`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRef {
    /// The job id a submission response reported.
    pub job: u64,
}

/// Payload of [`RequestBody::Resyn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResynRequest {
    /// The *pre-delta* specification — the system as deployed. Its
    /// fingerprint locates the cached incumbent.
    pub payload: SpecPayload,
    /// The delta sequence to drive through the escalation ladder.
    pub deltas: Vec<SpecDelta>,
    /// Portfolio size used for a cold incumbent synthesis (cache miss)
    /// and for the ladder's portfolio rung.
    pub portfolio: usize,
    /// Reconfiguration flag (part of the incumbent's cache key).
    pub reconfiguration: bool,
}

/// Payload of [`RequestBody::Stats`] (empty; a struct so the frame shape
/// stays `{"Stats": {}}` and future fields stay compatible).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsRequest {}

/// Payload of [`RequestBody::Shutdown`] (empty, like [`StatsRequest`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownRequest {}

/// One server response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version; always [`PROTOCOL_VERSION`].
    pub v: u32,
    /// The response payload.
    pub body: ResponseBody,
}

impl Response {
    /// Wraps a body in the versioned envelope.
    pub fn new(body: ResponseBody) -> Self {
        Response {
            v: PROTOCOL_VERSION,
            body,
        }
    }

    /// A typed-error response.
    pub fn error(kind: ProtocolErrorKind, detail: impl Into<String>) -> Self {
        Response::new(ResponseBody::Error(ProtocolError {
            kind,
            detail: detail.into(),
        }))
    }
}

/// The response vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// A streamed progress frame of a running submission.
    Event(JobEvent),
    /// The final result of a submission.
    Result(JobResult),
    /// A job's current state.
    Status(JobStatus),
    /// Acknowledgement of a cancellation request.
    Cancelled(JobStatus),
    /// The final result of a re-synthesis request.
    Resyn(ResynResult),
    /// Server counters.
    Stats(ServerStats),
    /// The drain completed; the server is about to exit 0.
    ShuttingDown(DrainReport),
    /// A typed protocol or admission error.
    Error(ProtocolError),
}

/// One forwarded synthesis event of a streamed job.
///
/// Only coarse events are forwarded (phase spans, escalations,
/// completion); the per-candidate firehose stays server-side.
/// The stream is progress, not a trace: it interleaves racing portfolio
/// members and is *not* covered by the determinism guarantee — use
/// `crusade trace` for the canonical artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// The job the event belongs to.
    pub job: u64,
    /// Per-job sequence number (dense from 0 in forwarding order).
    pub seq: u64,
    /// The forwarded observability event.
    pub event: Event,
}

/// The final figures of a completed submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job that produced the architecture (for a cache hit, the
    /// original producing job).
    pub job: u64,
    /// The spec fingerprint (cache key) as a hex string.
    pub fingerprint: String,
    /// `true` when the result was served from the fingerprint cache
    /// without running synthesis.
    pub cached: bool,
    /// `true` when an identical submission was already in flight and this
    /// request attached to it instead of enqueueing a duplicate.
    pub coalesced: bool,
    /// Winner architecture dollar cost.
    pub cost: u64,
    /// Winning portfolio policy id (the deterministic tie-break).
    pub policy: u32,
    /// PE instances in the winner.
    pub pes: usize,
    /// Link instances in the winner.
    pub links: usize,
    /// Programmable devices carrying more than one mode.
    pub multi_mode_devices: usize,
    /// Always `true`: the exploration engine only returns audit-clean
    /// winners, and cached entries were audit-clean when stored.
    pub audit_clean: bool,
    /// Milliseconds the job spent queued before a worker picked it up
    /// (0 for cache hits).
    pub queue_ms: f64,
    /// Milliseconds of synthesis wall time (0 for cache hits).
    pub run_ms: f64,
}

/// A job's state, as reported by `Status` and `Cancel`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// `"queued"`, `"running"`, `"done"`, `"cancelled"` or `"failed"`.
    pub state: String,
    /// Failure detail when `state == "failed"`, empty otherwise.
    pub detail: String,
    /// The result, when `state == "done"` and the job was a submission.
    pub result: Option<JobResult>,
}

/// One ladder step of a re-synthesis response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResynStep {
    /// Position in the delta sequence.
    pub index: usize,
    /// Delta kind tag.
    pub kind: String,
    /// Accepted rung tag (`"in-place"`, `"warm"`, `"widened"`,
    /// `"portfolio"`, `"cold"`).
    pub rung: String,
    /// Architecture cost after the delta.
    pub cost: u64,
}

/// The final figures of a completed re-synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResynResult {
    /// The job that ran the ladder.
    pub job: u64,
    /// Fingerprint of the pre-delta specification (the incumbent's cache
    /// key).
    pub fingerprint: String,
    /// `true` when the incumbent came from the fingerprint cache (warm
    /// start against a cached architecture); `false` when it had to be
    /// synthesized cold first.
    pub incumbent_cached: bool,
    /// Incumbent architecture cost before the deltas.
    pub incumbent_cost: u64,
    /// Final architecture cost after every delta.
    pub final_cost: u64,
    /// `true` when any delta degraded to a portfolio or cold restart.
    pub degraded: bool,
    /// Per-delta ladder steps.
    pub steps: Vec<ResynStep>,
    /// Always `true`: every accepted rung is audit-gated.
    pub audit_clean: bool,
}

/// Server counters returned by `Stats`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Jobs accepted into the queue since start.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Submissions served from the fingerprint cache.
    pub cache_hits: u64,
    /// Submissions that ran synthesis (filled the cache).
    pub cache_misses: u64,
    /// Submissions that attached to an identical in-flight job.
    pub coalesced: u64,
    /// Submissions rejected by admission (queue full or quota).
    pub rejected: u64,
    /// Current queue depth.
    pub queue_len: usize,
    /// Jobs currently running on workers.
    pub running: usize,
    /// Whether a shutdown drain is in progress.
    pub draining: bool,
}

/// What the graceful drain did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainReport {
    /// Running jobs that finished during the drain.
    pub drained: u64,
    /// Queued jobs cancelled by the drain.
    pub cancelled: u64,
}

/// Why a request was refused. Every variant is an *operational* outcome:
/// the server never panics on wire input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolErrorKind {
    /// The frame is not a JSON object of the documented shape.
    MalformedFrame,
    /// The envelope or a variant payload carries a field the protocol
    /// does not define.
    UnknownField,
    /// The frame's `v` does not equal [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The frame exceeds the server's byte cap (oversized spec).
    FrameTooLarge,
    /// The body names no known request variant.
    UnknownCommand,
    /// The specification payload failed validation.
    InvalidSpec,
    /// The admission queue is full; retry later.
    QueueFull,
    /// The client already has its quota of in-flight jobs.
    QuotaExceeded,
    /// No job with the given id.
    UnknownJob,
    /// The server is draining and admits no new work.
    Draining,
    /// The specification is infeasible (synthesis failed on every
    /// portfolio member) or a delta was rejected.
    Infeasible,
    /// The job was cancelled before producing a result.
    Cancelled,
    /// An internal server error (reported, never a panic).
    Internal,
}

impl ProtocolErrorKind {
    /// Stable tag (matches the serialized variant name).
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolErrorKind::MalformedFrame => "MalformedFrame",
            ProtocolErrorKind::UnknownField => "UnknownField",
            ProtocolErrorKind::VersionMismatch => "VersionMismatch",
            ProtocolErrorKind::FrameTooLarge => "FrameTooLarge",
            ProtocolErrorKind::UnknownCommand => "UnknownCommand",
            ProtocolErrorKind::InvalidSpec => "InvalidSpec",
            ProtocolErrorKind::QueueFull => "QueueFull",
            ProtocolErrorKind::QuotaExceeded => "QuotaExceeded",
            ProtocolErrorKind::UnknownJob => "UnknownJob",
            ProtocolErrorKind::Draining => "Draining",
            ProtocolErrorKind::Infeasible => "Infeasible",
            ProtocolErrorKind::Cancelled => "Cancelled",
            ProtocolErrorKind::Internal => "Internal",
        }
    }
}

/// A typed wire-level error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolError {
    /// The error class.
    pub kind: ProtocolErrorKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// Encodes a frame (any wire DTO) as one newline-terminated JSON line.
///
/// # Errors
///
/// Propagates serialization failures (non-finite floats) as a
/// [`ProtocolError`] of kind `Internal`.
pub fn encode_frame<T: Serialize>(frame: &T) -> Result<String, ProtocolError> {
    let mut line = serde_json::to_string(frame).map_err(|e| ProtocolError {
        kind: ProtocolErrorKind::Internal,
        detail: format!("encoding frame: {e}"),
    })?;
    line.push('\n');
    Ok(line)
}

/// The exact field sets of the request envelope and each variant payload
/// — the strictness tables [`decode_request`] enforces.
const ENVELOPE_FIELDS: &[&str] = &["v", "client", "body"];

fn variant_fields(variant: &str) -> Option<&'static [&'static str]> {
    match variant {
        "Submit" => Some(&["payload", "portfolio", "reconfiguration", "stream"]),
        "Status" | "Cancel" => Some(&["job"]),
        "Resyn" => Some(&["payload", "deltas", "portfolio", "reconfiguration"]),
        "Stats" | "Shutdown" => Some(&[]),
        _ => None,
    }
}

fn malformed(detail: String) -> ProtocolError {
    ProtocolError {
        kind: ProtocolErrorKind::MalformedFrame,
        detail,
    }
}

/// The key census of one value that must be an object with exactly the
/// fields `allowed`.
struct Fields {
    allowed: &'static [&'static str],
    /// The value's shape, when it is not an object.
    not_object: Option<&'static str>,
    /// The first key outside `allowed`.
    unknown: Option<String>,
    /// Bit `i` is set when `allowed[i]` appeared.
    seen: u32,
}

impl Fields {
    fn new(allowed: &'static [&'static str]) -> Self {
        Fields {
            allowed,
            not_object: None,
            unknown: None,
            seen: 0,
        }
    }

    /// Counts one key of the object; returns the field's index when the
    /// key is the first occurrence of an allowed field.
    fn record(&mut self, key: &str) -> Option<usize> {
        match self.allowed.iter().position(|f| *f == key) {
            Some(i) if self.seen & (1 << i) == 0 => {
                self.seen |= 1 << i;
                Some(i)
            }
            Some(_) => None,
            None => {
                if self.unknown.is_none() {
                    self.unknown = Some(key.to_owned());
                }
                None
            }
        }
    }

    /// The first violated rule: not an object, then an unknown field,
    /// then a missing one (in `allowed` order).
    fn check(&self, context: &str) -> Result<(), ProtocolError> {
        if let Some(kind) = self.not_object {
            return Err(malformed(format!(
                "{context}: expected an object, got {kind}"
            )));
        }
        if let Some(key) = &self.unknown {
            return Err(ProtocolError {
                kind: ProtocolErrorKind::UnknownField,
                detail: format!("{context}: unknown field `{key}`"),
            });
        }
        match (0..self.allowed.len()).find(|i| self.seen & (1 << i) == 0) {
            Some(i) => Err(malformed(format!(
                "{context}: missing field `{}`",
                self.allowed[i]
            ))),
            None => Ok(()),
        }
    }
}

/// What the strictness rules need to know about a frame: the key census
/// of the envelope, of the first `body` object and of its first command's
/// payload, and the first `v` value. Every rule's first violation is
/// kept, so the rules apply in their documented order whatever the key
/// order of the frame.
struct FrameScan {
    envelope: Fields,
    /// How to show the first `v` value when it is not
    /// [`PROTOCOL_VERSION`].
    version_mismatch: Option<String>,
    /// The first `body` value's shape, when it is not an object.
    body_not_object: Option<&'static str>,
    /// Entries of the first `body` object.
    commands: usize,
    /// The first entry's key.
    command: String,
    /// The census of the first entry's value, when the command is known.
    payload: Option<Fields>,
}

impl FrameScan {
    fn new() -> Self {
        FrameScan {
            envelope: Fields::new(ENVELOPE_FIELDS),
            version_mismatch: None,
            body_not_object: None,
            commands: 0,
            command: String::new(),
            payload: None,
        }
    }

    fn record_version(&mut self, token: Token<'_>) {
        self.version_mismatch = match token {
            Token::U64(v) if v == u64::from(PROTOCOL_VERSION) => None,
            Token::U64(v) => Some(v.to_string()),
            Token::I64(v) => Some(v.to_string()),
            Token::F64(v) => Some(format!("{v:?}")),
            Token::Str(s) => Some(format!("{:?}", s.chars().take(32).collect::<String>())),
            other => Some(format!("a {}", other.kind())),
        };
    }

    /// Counts one key of the first body object; `true` when it names the
    /// command whose payload the census records.
    fn record_command(&mut self, key: &str) -> bool {
        self.commands += 1;
        if self.commands > 1 {
            return false;
        }
        key.clone_into(&mut self.command);
        self.payload = variant_fields(key).map(Fields::new);
        self.payload.is_some()
    }

    /// Applies the strictness rules that follow well-formedness, in
    /// order.
    fn check(&self) -> Result<(), ProtocolError> {
        self.envelope.check("request envelope")?;
        if let Some(shown) = &self.version_mismatch {
            return Err(ProtocolError {
                kind: ProtocolErrorKind::VersionMismatch,
                detail: format!("protocol version {shown}; this server speaks {PROTOCOL_VERSION}"),
            });
        }
        if let Some(kind) = self.body_not_object {
            return Err(malformed(format!(
                "request body: expected an object, got {kind}"
            )));
        }
        if self.commands != 1 {
            return Err(malformed(format!(
                "request body: expected exactly one command key, got {}",
                self.commands
            )));
        }
        let Some(payload) = &self.payload else {
            return Err(ProtocolError {
                kind: ProtocolErrorKind::UnknownCommand,
                detail: format!("unknown command `{}`", self.command),
            });
        };
        payload.check(&format!("`{}` payload", self.command))
    }
}

/// Opens the next value when it is an object; otherwise reads past it
/// and records its shape in `not_object`.
fn open_object(
    de: &mut Deserializer<'_>,
    not_object: &mut Option<&'static str>,
) -> Result<bool, DeError> {
    let token = de.token()?;
    if token == Token::Map {
        return Ok(true);
    }
    *not_object = Some(token.kind());
    if token == Token::Seq {
        finish_container(de, false)?;
    }
    Ok(false)
}

/// Reads past the rest of a container whose opening token was just
/// read.
fn finish_container(de: &mut Deserializer<'_>, map: bool) -> Result<(), DeError> {
    if map {
        while de.next_key()?.is_some() {
            de.skip()?;
        }
    } else {
        while de.next_element()? {
            de.skip()?;
        }
    }
    Ok(())
}

/// The validate-only pre-scan: checks that the whole frame is well-formed
/// JSON and takes its census.
fn scan_request(line: &str) -> Result<FrameScan, DeError> {
    let mut de = Deserializer::from_str(line);
    let mut scan = FrameScan::new();
    if open_object(&mut de, &mut scan.envelope.not_object)? {
        while let Some(key) = de.next_key()? {
            let first = scan.envelope.record(key).is_some();
            match key {
                "v" if first => {
                    let token = de.token()?;
                    let opened = match token {
                        Token::Seq => Some(false),
                        Token::Map => Some(true),
                        _ => None,
                    };
                    scan.record_version(token);
                    if let Some(map) = opened {
                        finish_container(&mut de, map)?;
                    }
                }
                "body" if first => scan_body(&mut de, &mut scan)?,
                _ => de.skip()?,
            }
        }
    }
    de.end().map_err(|e| DeError::custom(e.to_string()))?;
    Ok(scan)
}

fn scan_body(de: &mut Deserializer<'_>, scan: &mut FrameScan) -> Result<(), DeError> {
    if !open_object(de, &mut scan.body_not_object)? {
        return Ok(());
    }
    while let Some(key) = de.next_key()? {
        let payload = if scan.record_command(key) {
            scan.payload.as_mut()
        } else {
            None
        };
        let Some(payload) = payload else {
            de.skip()?;
            continue;
        };
        if open_object(de, &mut payload.not_object)? {
            while let Some(key) = de.next_key()? {
                payload.record(key);
                de.skip()?;
            }
        }
    }
    Ok(())
}

/// Strictly decodes one request line.
///
/// Enforces, in order: the byte cap, JSON well-formedness (nesting
/// deeper than [`serde_json::MAX_DEPTH`] is malformed), the exact
/// envelope field set, the protocol version, a known single-variant body,
/// the variant's exact payload field set, and finally the typed
/// deserialization itself.
///
/// A validate-only pre-scan takes the census of the envelope, body and
/// payload keys without allocating a tree and applies the rules above in
/// order; one typed pass then decodes the request straight from the text.
///
/// # Errors
///
/// A typed [`ProtocolError`] naming the first violated rule; never
/// panics on any input.
pub fn decode_request(line: &str, max_bytes: usize) -> Result<Request, ProtocolError> {
    if line.len() > max_bytes {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::FrameTooLarge,
            detail: format!("frame is {} bytes; cap is {max_bytes}", line.len()),
        });
    }
    let scan = scan_request(line).map_err(|e| malformed(format!("parsing frame: {e}")))?;
    scan.check()?;
    serde_json::from_str(line).map_err(|e| malformed(format!("decoding request: {e}")))
}

/// Decodes one response line (clients are lenient: they only demand a
/// well-formed [`Response`] at a matching version).
///
/// # Errors
///
/// A typed [`ProtocolError`]; never panics on any input.
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    let response: Response = serde_json::from_str(line).map_err(|e| ProtocolError {
        kind: ProtocolErrorKind::MalformedFrame,
        detail: format!("parsing response: {e}"),
    })?;
    if response.v != PROTOCOL_VERSION {
        return Err(ProtocolError {
            kind: ProtocolErrorKind::VersionMismatch,
            detail: format!(
                "response version {}; this client speaks {PROTOCOL_VERSION}",
                response.v
            ),
        });
    }
    Ok(response)
}
