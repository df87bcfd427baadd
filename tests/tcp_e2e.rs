//! End-to-end loopback-TCP test: the in-process twin of CI's
//! `remote-worker-smoke` job and the TCP mirror of `serve_e2e`. A daemon
//! listening on `tcp://127.0.0.1:0` serves real `xloops worker --connect`
//! child processes (via `CARGO_BIN_EXE_xloops`) and TCP `submit --wait`
//! clients, and must produce artifacts byte-identical to the storeless
//! in-process render — including when a remote worker is SIGKILLed
//! mid-job by the crash-once chaos hook. The handshake gate is pinned
//! from both sides: raw peers with the wrong protocol version, a wrong
//! token, no handshake at all, or an oversized first frame get a typed
//! exit-2 refusal, and a wrong-token `xloops worker` exits with code 2
//! itself.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xloops::bench::manifest::{render_spec, run_shard, ExperimentSpec};
use xloops::bench::proto::{request, HANDSHAKE_MAX_FRAME};
use xloops::bench::serve::{Daemon, ServeConfig};
use xloops::bench::transport::Endpoint;
use xloops::sim::RunOptions;
use xloops::stats::JsonValue;

fn temp_sock(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("xloops-tcp-e2e-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn small_spec() -> ExperimentSpec {
    let mut spec = xloops::bench::experiments::spec_by_name("table2").expect("table2 spec exists");
    spec.points.truncate(3);
    spec.sections.clear();
    spec
}

/// The storeless reference render every TCP client must receive.
fn reference_artifact(spec: &ExperimentSpec) -> String {
    let shard = run_shard(spec, 0, 1, RunOptions::default());
    let results: Vec<_> = shard.results.into_iter().map(|(_, pr)| pr).collect();
    render_spec(spec, &results)
}

/// Binds a daemon on a fresh Unix socket plus loopback TCP and runs it on
/// a background thread; returns the serving thread, the TCP endpoint, and
/// the Unix socket path.
fn spawn_daemon(
    tag: &str,
    token: Option<&str>,
) -> (std::thread::JoinHandle<usize>, Endpoint, PathBuf) {
    let sock = temp_sock(tag);
    let cfg = ServeConfig {
        sock: sock.clone(),
        listen: Some(Endpoint::parse("tcp://127.0.0.1:0")),
        store_dir: None,
        options: RunOptions::default(),
        token: token.map(str::to_string),
    };
    let daemon = Daemon::bind(cfg).expect("bind unix + tcp");
    let addr = daemon.tcp_addr().expect("a tcp listener was requested");
    let server = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (server, Endpoint::Tcp(addr.to_string()), sock)
}

/// Spawns a real remote worker child dialing `ep`, with `env` riding the
/// child environment (chaos hooks, tokens).
fn spawn_worker(ep: &Endpoint, env: &[(&str, String)]) -> Child {
    let addr = match ep {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("workers dial TCP endpoints, not {other:?}"),
    };
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xloops"));
    cmd.arg("worker").arg("--connect").arg(addr);
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn remote worker")
}

/// Polls the daemon's bare-status listing until it reports at least
/// `want` registered remote workers.
fn wait_for_workers(ep: &Endpoint, want: u64) {
    let req = JsonValue::object(vec![("cmd", JsonValue::Str("status".to_string()))]);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = request(ep, &req).expect("status round trip");
        let n = resp.get("workers").and_then(JsonValue::as_u64).unwrap_or(0);
        if n >= want {
            return;
        }
        assert!(Instant::now() < deadline, "workers never registered: {n}/{want}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn submit_wait(ep: &Endpoint, spec: &ExperimentSpec) -> JsonValue {
    let req = JsonValue::object(vec![
        ("cmd", JsonValue::Str("submit".to_string())),
        ("manifest", spec.to_json_value()),
        ("wait", JsonValue::Bool(true)),
    ]);
    request(ep, &req).expect("submit round trip")
}

fn shutdown(ep: &Endpoint) {
    let req = JsonValue::object(vec![("cmd", JsonValue::Str("shutdown".to_string()))]);
    let resp = request(ep, &req).expect("shutdown round trip");
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
}

fn assert_done_with_reference(resp: &JsonValue, reference: &str, points: u64) {
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true), "{}", resp.render());
    assert_eq!(resp.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(resp.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(resp.get("points").and_then(JsonValue::as_u64), Some(points));
    assert_eq!(
        resp.get("artifact").and_then(JsonValue::as_str),
        Some(reference),
        "TCP artifact must match the storeless render byte for byte"
    );
}

/// Two concurrent `submit --wait` clients over loopback TCP, executed by
/// two remote worker processes: both attach to one sweep and both get the
/// byte-identical storeless artifact; shutdown closes the TCP listener
/// and unlinks the Unix socket.
#[test]
fn tcp_sweep_with_remote_workers_is_byte_identical() {
    let (server, ep, sock) = spawn_daemon("sweep", None);
    let mut workers = vec![spawn_worker(&ep, &[]), spawn_worker(&ep, &[])];
    wait_for_workers(&ep, 2);

    let spec = small_spec();
    let reference = reference_artifact(&spec);
    let responses: Vec<JsonValue> = {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let ep = ep.clone();
                let spec = spec.clone();
                std::thread::spawn(move || submit_wait(&ep, &spec))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    };
    for resp in &responses {
        assert_done_with_reference(resp, &reference, spec.points.len() as u64);
        assert_eq!(
            resp.get("job").and_then(JsonValue::as_str),
            Some(spec.fingerprint().as_str()),
            "the job id is the manifest fingerprint on TCP too"
        );
    }

    shutdown(&ep);
    let swept = server.join().expect("server thread");
    assert_eq!(swept, 1, "two submits of one manifest are one sweep");
    assert!(!sock.exists(), "clean shutdown removes the socket file");
    let addr = match &ep {
        Endpoint::Tcp(addr) => addr.clone(),
        _ => unreachable!(),
    };
    let refused = TcpStream::connect(&addr);
    assert!(refused.is_err(), "clean shutdown closes the TCP listener");
    for w in &mut workers {
        let _ = w.kill();
        let _ = w.wait();
    }
}

/// A remote worker SIGKILLed mid-job by the crash-once chaos hook: the
/// supervisor quarantines the lost connection, retries on the surviving
/// worker, and the artifact still matches the storeless render exactly.
#[test]
fn a_crashed_remote_worker_is_retried_to_the_identical_artifact() {
    let (server, ep, _sock) = spawn_daemon("chaos", None);
    let spec = small_spec();
    let marker =
        std::env::temp_dir().join(format!("xloops-tcp-crash-once-{}.marker", std::process::id()));
    let _ = std::fs::remove_file(&marker);
    // Both workers are armed with the same marker file: whichever one
    // draws point 1 first crashes (create-new marker semantics fire the
    // hook exactly once across processes), and the retry runs clean on
    // the survivor no matter how dispatch interleaved.
    let chaos = format!("{}:1:{}", spec.fingerprint(), marker.display());
    let mut workers = vec![
        spawn_worker(&ep, &[("XLOOPS_WORKER_CRASH", chaos.clone())]),
        spawn_worker(&ep, &[("XLOOPS_WORKER_CRASH", chaos)]),
    ];
    wait_for_workers(&ep, 2);

    let reference = reference_artifact(&spec);
    let resp = submit_wait(&ep, &spec);
    assert_done_with_reference(&resp, &reference, spec.points.len() as u64);
    assert!(marker.exists(), "the chaos hook must actually have fired");
    let _ = std::fs::remove_file(&marker);

    shutdown(&ep);
    server.join().expect("server thread");
    for w in &mut workers {
        let _ = w.kill();
        let _ = w.wait();
    }
}

/// The whole remote fleet dying mid-sweep must cost throughput, never
/// bytes: a single worker SIGKILLs itself on point 1 and nothing
/// replaces it, so the daemon's dispatcher has to finish the sweep
/// in-process — and the artifact still matches the storeless render.
#[test]
fn a_dead_remote_fleet_degrades_to_in_process_identical_results() {
    let (server, ep, _sock) = spawn_daemon("fleet-death", None);
    let spec = small_spec();
    // No marker file: every attempt on point 1 dies, and since the dead
    // worker is never respawned, the registry stays empty afterwards.
    let chaos = format!("{}:1", spec.fingerprint());
    let mut worker = spawn_worker(&ep, &[("XLOOPS_WORKER_CRASH", chaos)]);
    wait_for_workers(&ep, 1);

    let reference = reference_artifact(&spec);
    let resp = submit_wait(&ep, &spec);
    assert_done_with_reference(&resp, &reference, spec.points.len() as u64);

    shutdown(&ep);
    server.join().expect("server thread");
    let _ = worker.kill();
    let _ = worker.wait();
}

/// Writes one raw line to a fresh TCP connection and returns the parsed
/// first response line — the unauthenticated peer's view of the daemon.
fn raw_roundtrip(addr: &str, line: &str) -> JsonValue {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(line.as_bytes()).expect("write");
    conn.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(conn);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    JsonValue::parse(&resp).expect("daemon responses are JSON")
}

fn assert_refused_exit_2(doc: &JsonValue, needle: &str) {
    assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false), "{}", doc.render());
    let error = doc.get("error").expect("refusals carry an error doc");
    let msg = error.get("message").and_then(JsonValue::as_str).unwrap_or("");
    assert!(msg.contains(needle), "expected {needle:?} in {msg:?}");
    assert_eq!(error.get("exit_code").and_then(JsonValue::as_f64), Some(2.0));
}

/// The TCP gate: wrong protocol version, wrong token, and a missing
/// handshake are all typed exit-2 refusals (version checked first), and a
/// wrong-token `xloops worker --connect` child exits with code 2. The
/// Unix socket stays handshake-free for same-host clients.
#[test]
fn wrong_version_or_token_tcp_peers_are_refused_with_exit_2() {
    let (server, ep, sock) = spawn_daemon("gate", Some("s3cret"));
    let addr = match &ep {
        Endpoint::Tcp(addr) => addr.clone(),
        _ => unreachable!(),
    };

    // Version is checked before the token: a correct secret cannot mask
    // a protocol mismatch.
    let resp = raw_roundtrip(&addr, r#"{"cmd":"hello","v":99,"token":"s3cret"}"#);
    assert_refused_exit_2(&resp, "protocol version mismatch");
    let resp = raw_roundtrip(&addr, r#"{"cmd":"hello","v":1,"token":"wrong"}"#);
    assert_refused_exit_2(&resp, "bad or missing token");
    let resp = raw_roundtrip(&addr, r#"{"cmd":"ping"}"#);
    assert_refused_exit_2(&resp, "hello");

    // A worker dialing with the wrong shared secret is refused at
    // register time and surfaces the protocol exit code itself.
    let mut bad = spawn_worker(&ep, &[("XLOOPS_TOKEN", "wrong".to_string())]);
    let status = bad.wait().expect("worker exits");
    assert_eq!(status.code(), Some(2), "a refused register is a typed exit-2 failure");

    // The right secret registers fine; same-host Unix clients never
    // need the handshake at all.
    let mut good = spawn_worker(&ep, &[("XLOOPS_TOKEN", "s3cret".to_string())]);
    let unix_ep = Endpoint::unix(&sock);
    wait_for_workers(&unix_ep, 1);

    shutdown(&unix_ep);
    server.join().expect("server thread");
    let _ = good.kill();
    let _ = good.wait();
}

/// An un-greeted TCP peer gets a handshake-sized frame, not `MAX_FRAME`
/// (16 MiB): 1 MiB with no newline is refused with the typed exit-2 doc
/// once the first few KiB arrive, instead of being buffered while the
/// daemon waits for a newline or the handshake deadline.
#[test]
fn an_oversized_first_frame_is_refused_before_it_is_buffered() {
    let (server, ep, sock) = spawn_daemon("first-frame", None);
    let addr = match &ep {
        Endpoint::Tcp(addr) => addr.clone(),
        _ => unreachable!(),
    };
    let conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut flood = conn.try_clone().expect("clone the stream");
    // The daemon hangs up mid-stream, so the flood may end in a reset.
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut resp = String::new();
    BufReader::new(conn).read_line(&mut resp).expect("read the refusal");
    let doc = JsonValue::parse(&resp).expect("daemon responses are JSON");
    assert_refused_exit_2(&doc, &format!("{HANDSHAKE_MAX_FRAME} byte cap"));
    writer.join().expect("flood thread");

    shutdown(&Endpoint::unix(&sock));
    server.join().expect("server thread");
}
