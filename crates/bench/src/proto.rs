//! The unified wire protocol: one framed NDJSON codec for every surface.
//!
//! Three NDJSON dialects used to exist side by side — the serve daemon's
//! socket protocol, the worker pool's pipe protocol, and the thin
//! clients — each with its own hand-rolled `read_line` loop, deadline
//! handling, and heartbeat skipping. This module is the single
//! replacement: a typed [`Request`] enum for the *union* of both
//! command sets, a never-panic [`Request::parse`] whose failures are
//! canonical [`Refusal`]s (exit code 2, the CLI's usage-error code), and
//! the framing primitives ([`FrameReader`] / [`FrameWriter`] /
//! [`pump_lines`]) every transport shares. A grep-enforced test
//! (`tests/wire_single_source.rs`) pins that no raw NDJSON loop grows
//! back outside this module.
//!
//! ## Grammar
//!
//! One request per line, one *final* response line per request; `hb`
//! marked lines (worker heartbeats, a waiting submit's keep-alive
//! progress) may arrive before the final line and every reader here
//! skips them while rearming its liveness clocks:
//!
//! ```text
//! request  = object "\n"            ; at most MAX_FRAME bytes
//! object   = {"cmd":"hello","v":V[,"token":T]}      client handshake
//!          | {"cmd":"register","v":V[,"token":T]}   remote-worker handshake
//!          | {"cmd":"ping"}
//!          | {"cmd":"submit","manifest":SPEC[,"wait":B]}
//!          | {"cmd":"status"[,"job":FP]}
//!          | {"cmd":"shutdown"}
//!          | {"cmd":"manifest","manifest":SPEC}
//!          | {"cmd":"job","job":FP,"index":I,"options":OPTS}
//!          | {"cmd":"exit"}
//! response = {"ok":true, ...}
//!          | {"ok":false,"error":{"message":M,"exit_code":2}}
//!          | {"hb":true, ...}                       keep-alive, skipped
//! ```
//!
//! The daemon accepts the client half of the union and refuses the
//! worker half (and vice versa) with a typed refusal — a misrouted
//! command is a protocol error, never a panic or a hang.
//!
//! ## Handshake
//!
//! Unix sockets are guarded by filesystem permissions, so their wire
//! bytes are exactly the pre-network protocol: no handshake required (one
//! is still *answered* if sent). A worker pool's private socket is the
//! exception that proves the rule: its children always `register`.
//! TCP crosses a real trust boundary: the first line of every TCP
//! connection must be `hello` (clients) or `register` (remote workers)
//! carrying the protocol version [`PROTO_VERSION`] and, when the daemon
//! was started with `XLOOPS_TOKEN`, the matching shared token. Mismatch
//! is a typed refusal and the connection closes.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::mpsc::Sender;
use std::time::Duration;

use xloops_sim::{error_doc, RunOptions};
use xloops_stats::JsonValue;

use crate::manifest::ExperimentSpec;
use crate::transport::{Conn, Endpoint};

/// The wire-protocol version both handshakes carry. Bump on any change
/// that an old peer would misparse.
pub const PROTO_VERSION: u64 = 1;

/// Hard cap on one frame (one NDJSON line), reader-enforced *while*
/// bytes arrive — not after a newline shows up — so a peer streaming
/// newline-free bytes cannot grow a daemon buffer past this (an
/// un-greeted TCP peer gets only [`HANDSHAKE_MAX_FRAME`]). Generously
/// above any legitimate frame (the largest are submit manifests and done-sweep
/// artifacts, well under a megabyte); an oversized frame is an
/// `InvalidData` I/O error and the connection closes after a refusal.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// The cap on the first frame of an un-greeted TCP peer. A `hello` or
/// `register` line is well under 100 bytes plus the token, so a peer
/// that has not yet proved who it is gets a few KiB of daemon buffer,
/// not [`MAX_FRAME`]; the cap lifts once the handshake succeeds.
pub const HANDSHAKE_MAX_FRAME: usize = 4 * 1024;

/// How often a worker writes a `{"hb":true}` line while serving.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_millis(250);

/// Cadence of the keep-alive progress lines a waiting `submit` streams.
pub const WAIT_HEARTBEAT: Duration = Duration::from_secs(2);

/// Deadline for protocol acks (ping, manifest registration, handshake) —
/// generous, because only `job` execution can legitimately take long.
pub const ACK_DEADLINE: Duration = Duration::from_secs(30);

/// The heartbeat grace window: how long a worker may write nothing (no
/// heartbeat, no reply) before it is presumed hung
/// (`XLOOPS_HEARTBEAT_GRACE` in ms, default 10 s).
pub fn heartbeat_grace() -> Duration {
    std::env::var("XLOOPS_HEARTBEAT_GRACE")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(10))
}

/// The client-side socket deadline: `XLOOPS_CLIENT_TIMEOUT` in ms (`0`
/// disables), defaulting to 10 s. Long waits survive it because a
/// waiting submit receives a keep-alive line every [`WAIT_HEARTBEAT`] —
/// each received line rearms the deadline, so only a daemon that has
/// genuinely stopped talking trips it.
pub fn client_timeout() -> Option<Duration> {
    match std::env::var("XLOOPS_CLIENT_TIMEOUT").ok().and_then(|v| v.trim().parse::<u64>().ok()) {
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
        None => Some(Duration::from_secs(10)),
    }
}

/// The shared secret gating TCP connections (`XLOOPS_TOKEN`); `None`
/// when unset or empty.
pub fn token_from_env() -> Option<String> {
    std::env::var("XLOOPS_TOKEN").ok().filter(|t| !t.is_empty())
}

/// A typed protocol refusal: the canonical `ok:false` + [`error_doc`]
/// response with the usage/protocol exit code 2.
#[derive(Clone, Debug)]
pub struct Refusal {
    /// What was wrong with the request.
    pub message: String,
}

impl Refusal {
    /// A refusal with `message`.
    pub fn new(message: impl Into<String>) -> Refusal {
        Refusal { message: message.into() }
    }

    /// The single-line response document.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("ok", JsonValue::Bool(false)),
            ("error", error_doc(&self.message, 2)),
        ])
    }
}

/// One parsed wire request: the union of the daemon's client commands
/// and the worker pool's executor commands. Each surface dispatches the
/// half it owns and refuses the other half.
pub enum Request {
    /// Client handshake: protocol version and optional shared token.
    Hello {
        /// The peer's [`PROTO_VERSION`].
        version: u64,
        /// The peer's `XLOOPS_TOKEN`, when it sent one.
        token: Option<String>,
    },
    /// Remote-worker handshake: same fields, but on success the
    /// connection becomes a registered executor instead of a client.
    Register {
        /// The peer's [`PROTO_VERSION`].
        version: u64,
        /// The peer's `XLOOPS_TOKEN`, when it sent one.
        token: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Submit a sweep (daemon): the embedded manifest plus whether the
    /// client wants to block for the artifact.
    Submit {
        /// The embedded experiment manifest.
        spec: Box<ExperimentSpec>,
        /// Stream keep-alives and the final report instead of returning
        /// immediately.
        wait: bool,
    },
    /// Query one job (`Some`) or list every job (`None`).
    Status {
        /// The job fingerprint; `None` (or an empty id) lists all jobs.
        job: Option<String>,
    },
    /// Stop the daemon.
    Shutdown,
    /// Register a manifest on a worker (once per fingerprint).
    Manifest {
        /// The embedded experiment manifest.
        spec: Box<ExperimentSpec>,
    },
    /// Execute one point on a worker: the store-key triple.
    Job {
        /// The owning manifest's fingerprint.
        fingerprint: String,
        /// Index into the manifest's point list.
        index: usize,
        /// The options the point runs under.
        options: Box<RunOptions>,
    },
    /// Stop a worker.
    Exit,
}

impl Request {
    /// Parses one raw request line. This is the *entire* byte-facing
    /// parse surface of every daemon and worker, and it must never
    /// panic: bad UTF-8, broken JSON, and schema violations all come
    /// back as typed [`Refusal`]s (pinned by the codec proptests).
    pub fn parse(line: &[u8]) -> Result<Request, Refusal> {
        let text = match std::str::from_utf8(line) {
            Ok(t) => t.trim(),
            Err(e) => return Err(Refusal::new(format!("request is not UTF-8: {e}"))),
        };
        if text.is_empty() {
            return Err(Refusal::new("empty request line"));
        }
        let doc = match JsonValue::parse(text) {
            Ok(d) => d,
            Err(e) => return Err(Refusal::new(format!("request is not JSON: {e}"))),
        };
        Request::from_json_value(&doc)
    }

    /// Typed view of an already-parsed request document.
    pub fn from_json_value(doc: &JsonValue) -> Result<Request, Refusal> {
        let Some(cmd) = doc.get("cmd").and_then(JsonValue::as_str) else {
            return Err(Refusal::new("request has no string `cmd` field"));
        };
        match cmd {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "exit" => Ok(Request::Exit),
            "hello" | "register" => {
                let Some(version) = doc.get("v").and_then(JsonValue::as_u64) else {
                    return Err(Refusal::new(format!("{cmd} needs a numeric `v` field")));
                };
                let token = match doc.get("token") {
                    Some(v) => match v.as_str() {
                        Some(t) => Some(t.to_string()),
                        None => {
                            return Err(Refusal::new(format!("{cmd} `token` must be a string")))
                        }
                    },
                    None => None,
                };
                if cmd == "hello" {
                    Ok(Request::Hello { version, token })
                } else {
                    Ok(Request::Register { version, token })
                }
            }
            "status" => {
                // A malformed `job` value (present but not a string) is a
                // schema violation; an *absent* or empty one asks for the
                // listing of every known job.
                let job = match doc.get("job") {
                    Some(v) => match v.as_str() {
                        Some(id) => Some(id.to_string()).filter(|id| !id.is_empty()),
                        None => {
                            return Err(Refusal::new("status `job` field must be a string"));
                        }
                    },
                    None => None,
                };
                Ok(Request::Status { job })
            }
            "submit" => {
                let Some(manifest) = doc.get("manifest") else {
                    return Err(Refusal::new("submit needs a `manifest` field"));
                };
                let spec = match ExperimentSpec::from_json_value(manifest) {
                    Ok(s) => s,
                    Err(e) => return Err(Refusal::new(format!("invalid manifest: {e}"))),
                };
                let wait = doc.get("wait").and_then(JsonValue::as_bool).unwrap_or(false);
                Ok(Request::Submit { spec: Box::new(spec), wait })
            }
            "manifest" => {
                let Some(manifest) = doc.get("manifest") else {
                    return Err(Refusal::new("manifest command needs a `manifest` field"));
                };
                let spec = match ExperimentSpec::from_json_value(manifest) {
                    Ok(s) => s,
                    Err(e) => return Err(Refusal::new(format!("invalid manifest: {e}"))),
                };
                Ok(Request::Manifest { spec: Box::new(spec) })
            }
            "job" => {
                let Some(fingerprint) = doc.get("job").and_then(JsonValue::as_str) else {
                    return Err(Refusal::new("job command needs a string `job` field"));
                };
                let Some(index) = doc.get("index").and_then(JsonValue::as_u64) else {
                    return Err(Refusal::new("job command needs an `index` field"));
                };
                let Some(options) = doc.get("options").and_then(RunOptions::from_json_value) else {
                    return Err(Refusal::new("job command needs valid `options`"));
                };
                Ok(Request::Job {
                    fingerprint: fingerprint.to_string(),
                    index: index as usize,
                    options: Box::new(options),
                })
            }
            other => Err(Refusal::new(format!("unknown command `{other}`"))),
        }
    }

    /// The command's wire name (for misrouted-command refusals).
    pub fn name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Register { .. } => "register",
            Request::Ping => "ping",
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Shutdown => "shutdown",
            Request::Manifest { .. } => "manifest",
            Request::Job { .. } => "job",
            Request::Exit => "exit",
        }
    }

    /// Encodes the request exactly as the thin clients and the worker
    /// supervisor write it (field order is part of the byte-compat
    /// contract with the pre-refactor wire).
    pub fn to_json_value(&self) -> JsonValue {
        match self {
            Request::Hello { version, token } => handshake_doc("hello", *version, token.clone()),
            Request::Register { version, token } => {
                handshake_doc("register", *version, token.clone())
            }
            Request::Ping => JsonValue::object(vec![("cmd", JsonValue::Str("ping".to_string()))]),
            Request::Submit { spec, wait } => JsonValue::object(vec![
                ("cmd", JsonValue::Str("submit".to_string())),
                ("manifest", spec.to_json_value()),
                ("wait", JsonValue::Bool(*wait)),
            ]),
            Request::Status { job } => {
                let mut fields = vec![("cmd", JsonValue::Str("status".to_string()))];
                if let Some(id) = job {
                    fields.push(("job", JsonValue::Str(id.clone())));
                }
                JsonValue::object(fields)
            }
            Request::Shutdown => {
                JsonValue::object(vec![("cmd", JsonValue::Str("shutdown".to_string()))])
            }
            Request::Manifest { spec } => manifest_request(spec),
            Request::Job { fingerprint, index, options } => {
                job_request(fingerprint, *index, options)
            }
            Request::Exit => JsonValue::object(vec![("cmd", JsonValue::Str("exit".to_string()))]),
        }
    }
}

fn handshake_doc(cmd: &str, version: u64, token: Option<String>) -> JsonValue {
    let mut fields =
        vec![("cmd", JsonValue::Str(cmd.to_string())), ("v", JsonValue::UInt(version))];
    if let Some(t) = token {
        fields.push(("token", JsonValue::Str(t)));
    }
    JsonValue::object(fields)
}

/// The `hello` line a TCP client opens with.
pub fn hello_request(token: Option<String>) -> JsonValue {
    handshake_doc("hello", PROTO_VERSION, token)
}

/// The `register` line a remote worker opens with.
pub fn register_request(token: Option<String>) -> JsonValue {
    handshake_doc("register", PROTO_VERSION, token)
}

/// A `manifest` registration line (borrowing encoder: the supervisor
/// ships specs it does not own).
pub fn manifest_request(spec: &ExperimentSpec) -> JsonValue {
    JsonValue::object(vec![
        ("cmd", JsonValue::Str("manifest".to_string())),
        ("manifest", spec.to_json_value()),
    ])
}

/// A `job` dispatch line: the store-key triple.
pub fn job_request(fingerprint: &str, index: usize, options: &RunOptions) -> JsonValue {
    JsonValue::object(vec![
        ("cmd", JsonValue::Str("job".to_string())),
        ("job", JsonValue::Str(fingerprint.to_string())),
        ("index", JsonValue::UInt(index as u64)),
        ("options", options.to_json_value()),
    ])
}

/// An `ok:true` response with `fields` appended.
pub fn ok_fields(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut all = vec![("ok".to_string(), JsonValue::Bool(true))];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Object(all)
}

/// A worker's bare heartbeat line.
pub fn hb_doc() -> JsonValue {
    JsonValue::object(vec![("hb", JsonValue::Bool(true))])
}

/// Whether a received line is a keep-alive (skipped by every
/// response reader, counted as proof of life by every liveness clock).
pub fn is_heartbeat(doc: &JsonValue) -> bool {
    doc.get("hb").is_some()
}

/// The successful handshake response: protocol version and the daemon's
/// build version.
pub fn hello_ok() -> JsonValue {
    ok_fields(vec![
        ("hello", JsonValue::Bool(true)),
        ("v", JsonValue::UInt(PROTO_VERSION)),
        ("version", JsonValue::Str(build_version().to_string())),
    ])
}

/// The daemon/worker build version (the crate version).
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Validates a handshake against this side's expectations: version must
/// match exactly, and when `want_token` is set the peer must present it.
pub fn check_handshake(
    version: u64,
    token: Option<&str>,
    want_token: Option<&str>,
) -> Result<(), Refusal> {
    if version != PROTO_VERSION {
        return Err(Refusal::new(format!(
            "protocol version mismatch: this side speaks v{PROTO_VERSION}, peer sent v{version}"
        )));
    }
    if let Some(want) = want_token {
        if !token.is_some_and(|got| token_eq(got, want)) {
            return Err(Refusal::new("bad or missing token"));
        }
    }
    Ok(())
}

/// Constant-time token equality: both values are expanded to
/// fixed-length digests (four FNV-1a-64 lanes with distinct seeds) and
/// compared by folding XOR over every digest byte, so neither the
/// comparison's duration nor its memory access pattern depends on where
/// the first mismatching byte sits — an unauthenticated TCP peer learns
/// nothing about a token prefix from response timing. The hashing is
/// length hiding and timing flattening, not cryptography; the token's
/// threat model is documented in DESIGN.md §4.12.
fn token_eq(got: &str, want: &str) -> bool {
    fn digest(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for lane in 0u64..4 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &b in s.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            out[lane as usize * 8..][..8].copy_from_slice(&h.to_be_bytes());
        }
        out
    }
    let (a, b) = (digest(got), digest(want));
    a.iter().zip(b.iter()).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// The reading half of the framed loop: buffered line reads with blank
/// lines skipped and a byte cap ([`MAX_FRAME`] unless lowered) enforced
/// as bytes arrive. This (with [`FrameWriter`] and [`pump_lines`]) is
/// the only place the repository reads NDJSON off a byte stream.
pub struct FrameReader<R> {
    inner: BufReader<R>,
    buf: Vec<u8>,
    cap: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream, capping frames at [`MAX_FRAME`].
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner: BufReader::new(inner), buf: Vec::new(), cap: MAX_FRAME }
    }

    /// Sets the byte cap for the frames read from now on (e.g.
    /// [`HANDSHAKE_MAX_FRAME`] until a TCP peer is greeted).
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Fills `self.buf` with the next frame (up to and including its
    /// newline; a final unterminated line is returned as-is at EOF) and
    /// returns its length — `0` only at clean EOF. The byte cap is
    /// checked chunk by chunk *while* reading, never waiting for the
    /// newline, so a peer streaming newline-free bytes trips an
    /// `InvalidData` error at the cap instead of growing the buffer.
    fn read_frame(&mut self) -> std::io::Result<usize> {
        self.buf.clear();
        loop {
            let (used, done) = {
                let chunk = self.inner.fill_buf()?;
                if chunk.is_empty() {
                    return Ok(self.buf.len());
                }
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        self.buf.extend_from_slice(&chunk[..=pos]);
                        (pos + 1, true)
                    }
                    None => {
                        self.buf.extend_from_slice(chunk);
                        (chunk.len(), false)
                    }
                }
            };
            self.inner.consume(used);
            if self.buf.len() > self.cap {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("frame exceeds the {} byte cap", self.cap),
                ));
            }
            if done {
                return Ok(self.buf.len());
            }
        }
    }

    /// The next non-blank line (without framing whitespace stripped —
    /// parsing owns that); `Ok(None)` is EOF.
    pub fn next_line(&mut self) -> std::io::Result<Option<&[u8]>> {
        loop {
            if self.read_frame()? == 0 {
                return Ok(None);
            }
            if self.buf.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            return Ok(Some(&self.buf));
        }
    }

    /// Client side: the final response document — parses each line,
    /// skips keep-alive `hb` lines (each read rearms any socket
    /// deadline), and maps EOF / malformed lines to typed I/O errors.
    pub fn next_reply(&mut self) -> std::io::Result<JsonValue> {
        loop {
            if self.read_frame()? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection before responding",
                ));
            }
            if self.buf.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            let text = std::str::from_utf8(&self.buf).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed daemon response: {e}"),
                )
            })?;
            let doc = JsonValue::parse(text.trim()).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed daemon response: {e}"),
                )
            })?;
            if is_heartbeat(&doc) {
                continue;
            }
            return Ok(doc);
        }
    }
}

/// The writing half of the framed loop: one rendered document, one
/// newline, one flush.
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter { inner }
    }

    /// Writes `doc` as one flushed NDJSON line.
    pub fn send(&mut self, doc: &JsonValue) -> std::io::Result<()> {
        let mut line = doc.render();
        line.push('\n');
        self.inner.write_all(line.as_bytes())?;
        self.inner.flush()
    }
}

/// Supervisor side of a worker stream: feeds each received line into the
/// reply channel as `Some(doc)` (parseable) or `None` (garbage — the
/// supervisor reaps on it), and drops the sender on EOF/error, which the
/// supervisor observes as `Disconnected` (the worker died).
pub fn pump_lines<R: Read>(mut reader: FrameReader<R>, tx: Sender<Option<JsonValue>>) {
    loop {
        let doc = match reader.next_line() {
            Ok(Some(line)) => {
                std::str::from_utf8(line).ok().and_then(|t| JsonValue::parse(t.trim()).ok())
            }
            Ok(None) | Err(_) => return,
        };
        if tx.send(doc).is_err() {
            return;
        }
    }
}

/// One client round-trip: connect, handshake when the transport demands
/// it (TCP), send `body` as a line, and read response lines until the
/// final (non-keep-alive) one. Read and write deadlines come from
/// [`client_timeout`], so a hung daemon surfaces as a timed-out I/O
/// error instead of blocking the client forever. A refused handshake is
/// returned as the response document (the caller maps `ok:false` to the
/// daemon's message and exit code).
pub fn request(ep: &Endpoint, body: &JsonValue) -> std::io::Result<JsonValue> {
    request_with(ep, body, client_timeout())
}

/// [`request`] with an explicit socket deadline (`None` blocks forever).
pub fn request_with(
    ep: &Endpoint,
    body: &JsonValue,
    timeout: Option<Duration>,
) -> std::io::Result<JsonValue> {
    let conn = Conn::connect(ep)?;
    conn.set_timeout(timeout)?;
    let remote = conn.is_remote();
    let (read, write, _ctl) = conn.split()?;
    let mut reader = FrameReader::new(read);
    let mut writer = FrameWriter::new(write);
    if remote {
        writer.send(&hello_request(token_from_env()))?;
        let ack = reader.next_reply()?;
        if ack.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Ok(ack);
        }
    }
    writer.send(body)?;
    reader.next_reply()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_checks_version_then_token() {
        assert!(check_handshake(PROTO_VERSION, None, None).is_ok());
        assert!(check_handshake(PROTO_VERSION, Some("s"), Some("s")).is_ok());
        let v = check_handshake(PROTO_VERSION + 1, None, None).unwrap_err();
        assert!(v.message.contains("version mismatch"), "{}", v.message);
        let t = check_handshake(PROTO_VERSION, None, Some("s")).unwrap_err();
        assert!(t.message.contains("token"), "{}", t.message);
        let w = check_handshake(PROTO_VERSION, Some("wrong"), Some("s")).unwrap_err();
        assert!(w.message.contains("token"), "{}", w.message);
        // A version mismatch is reported even when the token also fails:
        // the peer learns the load-bearing fact first.
        let both = check_handshake(99, Some("wrong"), Some("s")).unwrap_err();
        assert!(both.message.contains("version mismatch"), "{}", both.message);
    }

    #[test]
    fn token_compare_accepts_equal_rejects_unequal() {
        assert!(token_eq("s3cret", "s3cret"));
        assert!(!token_eq("s3cret", "s3cret!"));
        assert!(!token_eq("", "s3cret"));
        assert!(!token_eq("s3crex", "s3cret"), "shared prefix must not pass");
    }

    #[test]
    fn oversized_frames_error_without_buffering_them() {
        // A newline-free byte stream longer than the cap: the reader
        // must refuse it (InvalidData) instead of buffering until a
        // newline that never comes. `repeat` yields an endless stream,
        // so finishing at all proves the cap fires mid-line.
        let endless = std::io::repeat(b'x');
        let mut reader = FrameReader::new(endless);
        let err = reader.next_line().expect_err("cap must trip");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte cap"), "{err}");
        // The same cap guards reply waits on the client side.
        let mut reader = FrameReader::new(std::io::repeat(b'{'));
        assert!(reader.next_reply().is_err());
        // A frame under the cap still round-trips, terminal newline or not.
        let mut reader = FrameReader::new(&b"{\"ok\":true}"[..]);
        let line = reader.next_line().expect("read").expect("one line");
        assert_eq!(line, b"{\"ok\":true}");
    }

    #[test]
    fn framing_skips_blanks_and_heartbeats() {
        let bytes = b"\n   \n{\"hb\":true}\n{\"ok\":true,\"pong\":true}\n";
        let mut reader = FrameReader::new(&bytes[..]);
        let reply = reader.next_reply().expect("final line");
        assert_eq!(reply.get("pong").and_then(JsonValue::as_bool), Some(true));
        let mut reader = FrameReader::new(&b""[..]);
        assert!(reader.next_line().expect("eof is ok").is_none());
    }

    #[test]
    fn request_encode_parse_round_trips_field_order() {
        // The encoder's field order is the byte-compat contract with the
        // pre-refactor wire: cmd first, payload fields in fixed order.
        let opts = RunOptions::default();
        assert_eq!(
            job_request("deadbeef", 3, &opts).render(),
            format!(
                "{{\"cmd\":\"job\",\"job\":\"deadbeef\",\"index\":3,\"options\":{}}}",
                opts.to_json_value().render()
            )
        );
        assert_eq!(Request::Ping.to_json_value().render(), "{\"cmd\":\"ping\"}");
        let parsed = Request::parse(job_request("deadbeef", 3, &opts).render().as_bytes())
            .expect("round trip");
        match parsed {
            Request::Job { fingerprint, index, .. } => {
                assert_eq!(fingerprint, "deadbeef");
                assert_eq!(index, 3);
            }
            other => panic!("expected job, parsed `{}`", other.name()),
        }
    }
}
