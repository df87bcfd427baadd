//! Property tests for the unified wire codec: [`Request::parse`] is the
//! single place any transport (Unix socket, TCP, worker pipe) touches
//! peer-controlled bytes, and it must never panic — a malformed line from
//! one client must not take down the sweeps every other client is waiting
//! on. Byte soup, ASCII soup, and JSON-shaped soup all go straight into
//! both the codec and the daemon's [`handle_line`] dispatch; every
//! response must be a single-line document with an `ok` flag, and every
//! refusal must carry the canonical `error_doc` shape (`message` +
//! `exit_code` 2, the CLI's usage-error code). The deterministic cases
//! below pin the happy-path round trips the thin clients rely on, the
//! encoder→parser round trip of every typed request, and the
//! version-before-token ordering of the handshake check.

use std::sync::Arc;

use proptest::prelude::*;
use xloops_bench::proto::{check_handshake, hello_ok, FrameReader, Request, PROTO_VERSION};
use xloops_bench::serve::{handle_line, ServiceState};
use xloops_sim::RunOptions;
use xloops_stats::JsonValue;

fn state() -> Arc<ServiceState> {
    // No store and default options keep refused requests from touching
    // the filesystem; no token means `hello` needs only the version.
    Arc::new(ServiceState::new(None, RunOptions::default(), None))
}

fn ok_flag(doc: &JsonValue) -> Option<bool> {
    doc.get("ok").and_then(JsonValue::as_bool)
}

fn exit_code(doc: &JsonValue) -> Option<f64> {
    doc.get("error").and_then(|e| e.get("exit_code")).and_then(JsonValue::as_f64)
}

/// Every well-formed refusal or success must satisfy the wire contract:
/// an `ok` flag, one line, and (when refused) a complete error document.
fn assert_wire_contract(resp: &xloops_bench::serve::Response) {
    let ok = ok_flag(&resp.body).expect("response carries an `ok` flag");
    let rendered = resp.body.render();
    assert!(!rendered.contains('\n'), "responses are single lines: {rendered}");
    if !ok {
        assert!(!resp.shutdown, "a refused request must not stop the daemon");
        let msg = resp.body.get("error").and_then(|e| e.get("message")).and_then(JsonValue::as_str);
        assert!(msg.is_some(), "refusals carry a message: {rendered}");
        assert_eq!(exit_code(&resp.body), Some(2.0), "refusals use the usage-error code");
    }
}

/// The codec-level contract: parsing never panics, and a rejected line
/// yields a refusal whose rendered document satisfies the same shape the
/// daemon would put on the wire.
fn assert_codec_contract(line: &[u8]) {
    if let Err(refusal) = Request::parse(line) {
        let doc = refusal.to_json_value();
        assert_eq!(ok_flag(&doc), Some(false));
        assert_eq!(exit_code(&doc), Some(2.0));
        let msg = doc.get("error").and_then(|e| e.get("message")).and_then(JsonValue::as_str);
        assert!(msg.is_some_and(|m| !m.is_empty()), "refusals carry a message");
    }
}

proptest! {
    /// Arbitrary bytes (including interior NULs and invalid UTF-8) never
    /// panic the codec or the daemon and always produce a
    /// contract-conforming line.
    #[test]
    fn byte_soup_never_panics(line in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_codec_contract(&line);
        let st = state();
        let resp = handle_line(&st, &line);
        assert_wire_contract(&resp);
    }

    /// Printable-ASCII soup: mostly JSON-adjacent garbage.
    #[test]
    fn text_soup_never_panics(bytes in prop::collection::vec(0x20u8..0x7f, 0..200)) {
        assert_codec_contract(&bytes);
        let st = state();
        let resp = handle_line(&st, &bytes);
        assert_wire_contract(&resp);
    }

    /// JSON-shaped soup: structurally valid documents with arbitrary
    /// command names and junk fields exercise every dispatch arm of the
    /// union codec — daemon commands, worker commands, and handshakes.
    #[test]
    fn json_soup_never_panics(
        cmd in prop::sample::select(vec![
            "", "ping", "submit", "status", "shutdown", "frobnicate", "PING",
            "submit ", "hello", "register", "manifest", "job", "exit",
        ]),
        job in prop::sample::select(vec!["", "0", "0000000000000000", "not-a-fingerprint"]),
        extra in any::<u64>(),
    ) {
        let doc = JsonValue::object(vec![
            ("cmd", JsonValue::Str(cmd.to_string())),
            ("job", JsonValue::Str(job.to_string())),
            ("fingerprint", JsonValue::Str(job.to_string())),
            ("manifest", JsonValue::UInt(extra)),
            ("v", JsonValue::UInt(extra)),
            ("index", JsonValue::UInt(extra)),
        ]);
        let line = doc.render();
        assert_codec_contract(line.as_bytes());
        let st = state();
        let resp = handle_line(&st, line.as_bytes());
        assert_wire_contract(&resp);
    }
}

#[test]
fn every_typed_request_round_trips_through_the_codec() {
    let mut spec = xloops_bench::experiments::all_specs()
        .into_iter()
        .find(|s| s.name == "table2")
        .expect("table2 spec exists");
    spec.points.truncate(2);
    spec.sections.clear();
    let fp = spec.fingerprint();
    let requests = vec![
        Request::Hello { version: PROTO_VERSION, token: Some("s3cret".into()) },
        Request::Register { version: PROTO_VERSION, token: None },
        Request::Ping,
        Request::Submit { spec: Box::new(spec.clone()), wait: true },
        Request::Status { job: None },
        Request::Status { job: Some(fp.clone()) },
        Request::Shutdown,
        Request::Manifest { spec: Box::new(spec) },
        Request::Job { fingerprint: fp, index: 1, options: Box::new(RunOptions::default()) },
        Request::Exit,
    ];
    for req in requests {
        let line = req.to_json_value().render();
        assert!(!line.contains('\n'), "requests are single lines: {line}");
        let back = Request::parse(line.as_bytes())
            .unwrap_or_else(|r| panic!("{line} must re-parse: {}", r.message));
        assert_eq!(back.name(), req.name(), "{line}");
        assert_eq!(back.to_json_value().render(), line, "re-encode is byte-identical");
    }
}

#[test]
fn handshake_checks_version_before_token() {
    // Wrong version with a wrong token: the version mismatch must win,
    // so an old worker gets told to upgrade rather than chasing tokens.
    let e = check_handshake(99, Some("bad"), Some("good")).expect_err("mismatch refused");
    assert!(e.message.contains("protocol version mismatch"), "{}", e.message);
    assert!(e.message.contains("v99"), "{}", e.message);
    // Right version, wrong/missing token.
    for token in [Some("bad"), None] {
        let e = check_handshake(PROTO_VERSION, token, Some("good")).expect_err("token refused");
        assert!(e.message.contains("token"), "{}", e.message);
    }
    // No token required: any token (or none) passes at the right version.
    check_handshake(PROTO_VERSION, Some("ignored"), None).expect("no token wanted");
    check_handshake(PROTO_VERSION, None, None).expect("no token wanted");
    // The matching pair passes, and the ok doc advertises the version.
    check_handshake(PROTO_VERSION, Some("good"), Some("good")).expect("match passes");
    let ok = hello_ok();
    assert_eq!(ok_flag(&ok), Some(true));
    assert_eq!(ok.get("v").and_then(JsonValue::as_u64), Some(PROTO_VERSION));
}

#[test]
fn hello_round_trips_through_the_daemon_dispatch() {
    let st = state();
    let resp = handle_line(&st, format!(r#"{{"cmd":"hello","v":{PROTO_VERSION}}}"#).as_bytes());
    assert_eq!(ok_flag(&resp.body), Some(true));
    assert_eq!(resp.body.get("hello").and_then(JsonValue::as_bool), Some(true));
    // A version-mismatched hello is a typed refusal, not a disconnect.
    let resp = handle_line(&st, br#"{"cmd":"hello","v":99}"#);
    assert_eq!(ok_flag(&resp.body), Some(false));
    assert_wire_contract(&resp);
}

#[test]
fn ping_round_trips() {
    let st = state();
    let resp = handle_line(&st, br#"{"cmd":"ping"}"#);
    assert_eq!(ok_flag(&resp.body), Some(true));
    assert_eq!(resp.body.get("pong").and_then(JsonValue::as_bool), Some(true));
    assert!(!resp.shutdown);
}

#[test]
fn shutdown_flags_the_daemon() {
    let st = state();
    let resp = handle_line(&st, br#"{"cmd":"shutdown"}"#);
    assert_eq!(ok_flag(&resp.body), Some(true));
    assert!(resp.shutdown);
}

#[test]
fn bare_status_lists_jobs_and_identifies_the_daemon() {
    // With no job id, `status` is the listing query: an empty daemon
    // answers ok with an empty `jobs` array (not a refusal) plus its
    // identity fields, and an explicit empty id means the same thing.
    let st = state();
    for line in [&b"{\"cmd\":\"status\"}"[..], b"{\"cmd\":\"status\",\"job\":\"\"}"] {
        let resp = handle_line(&st, line);
        assert_eq!(ok_flag(&resp.body), Some(true), "{:?}", String::from_utf8_lossy(line));
        assert_wire_contract(&resp);
        let jobs = resp.body.get("jobs").and_then(JsonValue::as_array).expect("jobs array");
        assert!(jobs.is_empty(), "no sweeps submitted yet");
        let version = resp.body.get("version").and_then(JsonValue::as_str).expect("version");
        assert_eq!(version, env!("CARGO_PKG_VERSION"));
        assert!(resp.body.get("uptime_ms").and_then(JsonValue::as_u64).is_some());
        assert_eq!(resp.body.get("workers").and_then(JsonValue::as_u64), Some(0));
    }
}

#[test]
fn malformed_requests_are_refused_not_fatal() {
    let st = state();
    for line in [
        &b""[..],
        b"   \n",
        b"\xff\xfe{\"cmd\":\"ping\"}",
        b"not json at all",
        b"{\"cmd\":42}",
        b"{\"no\":\"cmd\"}",
        b"{\"cmd\":\"frobnicate\"}",
        b"{\"cmd\":\"status\",\"job\":42}",
        b"{\"cmd\":\"status\",\"job\":\"0000000000000000\"}",
        b"{\"cmd\":\"submit\"}",
        b"{\"cmd\":\"submit\",\"manifest\":{}}",
        b"{\"cmd\":\"submit\",\"manifest\":[1,2,3]}",
        // Worker-side commands are typed refusals on the daemon surface.
        b"{\"cmd\":\"manifest\"}",
        b"{\"cmd\":\"job\",\"fingerprint\":\"x\",\"index\":0}",
        b"{\"cmd\":\"exit\"}",
    ] {
        let resp = handle_line(&st, line);
        assert_eq!(ok_flag(&resp.body), Some(false), "{:?}", String::from_utf8_lossy(line));
        assert_wire_contract(&resp);
    }
}

/// One timing of reading `frame` through [`FrameReader::next_line`],
/// which assembles it from many buffered chunks.
fn frame_read_time(frame: &[u8]) -> std::time::Duration {
    let mut reader = FrameReader::new(frame);
    let t = std::time::Instant::now();
    let len = reader.next_line().expect("an in-cap frame reads").map(<[u8]>::len);
    let elapsed = t.elapsed();
    assert_eq!(len, Some(frame.len()));
    elapsed
}

#[test]
fn frame_reading_is_linear_time() {
    // A frame twice as long must cost about twice the time; a reader that
    // rescans its buffer per chunk costs about four times. The sizes
    // alternate so host noise hits both alike; each keeps the least of
    // its timings.
    let frame = |n: usize| {
        let mut bytes = vec![b'a'; n - 1];
        bytes.push(b'\n');
        bytes
    };
    let (small, large) = (frame(2 << 20), frame(4 << 20));
    let (mut n, mut n2) = (std::time::Duration::MAX, std::time::Duration::MAX);
    for _ in 0..11 {
        n = n.min(frame_read_time(&small));
        n2 = n2.min(frame_read_time(&large));
    }
    assert!(n2 < n * 3, "n: {n:?}, 2n: {n2:?}");
}
