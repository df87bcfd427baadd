//! End-to-end daemon test: a real Unix socket, concurrent `--wait`
//! clients, and a warm restart against the same store. This is the
//! in-process twin of CI's `serve-smoke` job — same protocol, same
//! scheduler, but small (a 3-point spec) so it runs in the normal test
//! suite. Pins the three service-layer properties the CLI relies on:
//! duplicate submits attach to one sweep (both waiters get byte-identical
//! artifacts matching the storeless render), late `status` queries answer
//! from the registry, and a restarted daemon serves every point of a
//! resubmitted sweep from the store.

use std::path::{Path, PathBuf};

use xloops_bench::manifest::{render_spec, run_shard, ExperimentSpec};
use xloops_bench::proto::request;
use xloops_bench::serve::{Daemon, ServeConfig};
use xloops_bench::transport::Endpoint;
use xloops_sim::RunOptions;
use xloops_stats::JsonValue;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("xloops-serve-e2e-{tag}-{}", std::process::id()));
    p
}

fn small_spec() -> ExperimentSpec {
    let mut spec = xloops_bench::experiments::all_specs()
        .into_iter()
        .find(|s| s.name == "table2")
        .expect("table2 spec exists");
    spec.points.truncate(3);
    spec.sections.clear();
    spec
}

fn submit_wait(sock: &Path, spec: &ExperimentSpec) -> JsonValue {
    let req = JsonValue::object(vec![
        ("cmd", JsonValue::Str("submit".to_string())),
        ("manifest", spec.to_json_value()),
        ("wait", JsonValue::Bool(true)),
    ]);
    request(&Endpoint::unix(sock), &req).expect("submit round trip")
}

fn shutdown(sock: &Path) {
    let req = JsonValue::object(vec![("cmd", JsonValue::Str("shutdown".to_string()))]);
    let resp = request(&Endpoint::unix(sock), &req).expect("shutdown round trip");
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
}

#[test]
fn concurrent_clients_then_warm_restart() {
    let sock = temp_path("sock");
    let store_dir = temp_path("store");
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&store_dir);
    let spec = small_spec();
    let points = spec.points.len() as u64;

    // The storeless reference render: what every client must receive.
    let shard = run_shard(&spec, 0, 1, RunOptions::default());
    let results: Vec<_> = shard.results.into_iter().map(|(_, pr)| pr).collect();
    let reference = render_spec(&spec, &results);

    let cfg = ServeConfig::unix(sock.clone(), Some(store_dir.clone()), RunOptions::default());
    let daemon = Daemon::bind(cfg).expect("bind");
    let server = std::thread::spawn(move || daemon.run().expect("daemon run"));

    // Two concurrent --wait clients submitting the same manifest: the
    // second attaches to the first's sweep, both block until done.
    let responses: Vec<JsonValue> = {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let sock = sock.clone();
                let spec = spec.clone();
                std::thread::spawn(move || submit_wait(&sock, &spec))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    };
    let mut job_id = String::new();
    for resp in &responses {
        assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(resp.get("state").and_then(JsonValue::as_str), Some("done"));
        assert_eq!(resp.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(resp.get("points").and_then(JsonValue::as_u64), Some(points));
        assert_eq!(
            resp.get("artifact").and_then(JsonValue::as_str),
            Some(reference.as_str()),
            "daemon artifact must match the storeless render byte for byte"
        );
        job_id = resp.get("job").and_then(JsonValue::as_str).expect("job id").to_string();
    }
    assert_eq!(job_id, spec.fingerprint(), "the job id is the manifest fingerprint");

    // A late status query answers from the registry.
    let status = request(
        &Endpoint::unix(&sock),
        &JsonValue::object(vec![
            ("cmd", JsonValue::Str("status".to_string())),
            ("job", JsonValue::Str(job_id)),
        ]),
    )
    .expect("status round trip");
    assert_eq!(status.get("state").and_then(JsonValue::as_str), Some("done"));
    // Live progress counters ride every status doc; a finished sweep
    // reports every admitted point done and nothing in flight.
    let progress = status.get("progress").expect("progress section");
    let n = |field: &str| progress.get(field).and_then(JsonValue::as_u64);
    assert_eq!(n("total"), Some(points));
    assert_eq!(n("done"), Some(points));
    assert_eq!(n("queued"), Some(0));
    assert_eq!(n("running"), Some(0));
    assert_eq!(n("failed"), Some(0));
    assert_eq!(status.get("quarantined").and_then(JsonValue::as_u64), Some(0));

    shutdown(&sock);
    let swept = server.join().expect("server thread");
    assert_eq!(swept, 1, "two submits of one manifest are one sweep");
    assert!(!sock.exists(), "clean shutdown removes the socket file");

    // Restart on the same socket and store: the resubmitted sweep finds
    // every point already durable — crash-safe resume is just a warm read.
    let cfg = ServeConfig::unix(sock.clone(), Some(store_dir.clone()), RunOptions::default());
    let daemon = Daemon::bind(cfg).expect("rebind");
    let server = std::thread::spawn(move || daemon.run().expect("daemon rerun"));
    let resp = submit_wait(&sock, &spec);
    assert_eq!(resp.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(
        resp.get("artifact").and_then(JsonValue::as_str),
        Some(reference.as_str()),
        "warm artifact must be byte-identical to the cold one"
    );
    let store = resp.get("store").expect("store section");
    assert_eq!(store.get("hits").and_then(JsonValue::as_u64), Some(points));
    assert_eq!(store.get("misses").and_then(JsonValue::as_u64), Some(0));

    shutdown(&sock);
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A finished sweep keeps only its report, not its manifest: the bare
/// `status` listing still names its point count, and a repeat submit of
/// the same fingerprint answers from the done-sweep memo.
#[test]
fn a_finished_sweep_is_listed_and_memoized_without_its_manifest() {
    let sock = temp_path("memo-sock");
    let _ = std::fs::remove_file(&sock);
    let spec = small_spec();
    let points = spec.points.len() as u64;
    let daemon =
        Daemon::bind(ServeConfig::unix(sock.clone(), None, RunOptions::default())).expect("bind");
    let server = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let first = submit_wait(&sock, &spec);
    assert_eq!(first.get("state").and_then(JsonValue::as_str), Some("done"));

    let listing = request(
        &Endpoint::unix(&sock),
        &JsonValue::object(vec![("cmd", JsonValue::Str("status".to_string()))]),
    )
    .expect("status round trip");
    let jobs = listing.get("jobs").and_then(JsonValue::as_array).expect("jobs array");
    assert_eq!(jobs.len(), 1);
    let job = &jobs[0];
    assert_eq!(job.get("job").and_then(JsonValue::as_str), Some(spec.fingerprint().as_str()));
    assert_eq!(job.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(job.get("points").and_then(JsonValue::as_u64), Some(points));
    assert_eq!(job.get("done").and_then(JsonValue::as_u64), Some(points));

    // A non-waiting resubmit is answered at once with the stored report.
    let again = request(
        &Endpoint::unix(&sock),
        &JsonValue::object(vec![
            ("cmd", JsonValue::Str("submit".to_string())),
            ("manifest", spec.to_json_value()),
            ("wait", JsonValue::Bool(false)),
        ]),
    )
    .expect("resubmit round trip");
    assert_eq!(again.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(again.get("points").and_then(JsonValue::as_u64), Some(points));
    assert_eq!(again.get("artifact"), first.get("artifact"), "the memo keeps the artifact");

    shutdown(&sock);
    assert_eq!(server.join().expect("server thread"), 1, "the resubmit ran no second sweep");
}
