//! Crash-isolation oracle for the multi-process worker pool: a worker
//! that is SIGKILLed mid-job, wedges past its deadline, or cannot even
//! be spawned must never change artifact bytes or wedge the sweep.
//!
//! Each scenario drives the real [`Scheduler`] with a [`PoolConfig`]
//! pointing at the actual `xloops` binary (via `CARGO_BIN_EXE_xloops`),
//! arming the test-only chaos hooks through the pool's child
//! environment so this process's environment stays untouched:
//!
//! * `XLOOPS_WORKER_CRASH=FP:INDEX:MARKER` — the worker `kill -9`s
//!   itself once (marker-file once-semantics); the retry must land the
//!   byte-identical result.
//! * `XLOOPS_WORKER_CRASH=FP:INDEX` — every attempt dies; after
//!   `max_retries` the job must end `Failed(WorkerLost)` with the
//!   attempt count and accumulated backoff in the diagnosis.
//! * `XLOOPS_WORKER_WEDGE=FP:INDEX` — the worker hangs but keeps
//!   heartbeating, so only the per-job deadline can reap it; the job
//!   must end `Failed(Timeout)` and the sweep must still complete.
//! * an unspawnable worker executable — the pool degrades to in-process
//!   execution with identical results.
//! * two specs sharing points — each shared simulation ships to a
//!   worker once, exactly as the in-process route runs it once.
//!
//! Byte-identity is asserted on the rendered per-point result documents:
//! artifacts are a pure function of those bytes, so equality here is
//! equality of every downstream `results/*.txt`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use xloops::bench::job::JobState;
use xloops::bench::manifest::{ExperimentSpec, PointResult};
use xloops::bench::sched::{all_points, Scheduler};
use xloops::bench::worker::PoolConfig;
use xloops::sim::{RunOptions, SimError};
use xloops::stats::JsonValue;

/// A three-point slice of Table II: small enough to keep every scenario
/// fast, real enough that each point is a full kernel simulation.
fn small_spec() -> ExperimentSpec {
    let mut spec = xloops::bench::experiments::spec_by_name("table2").expect("table2 spec exists");
    spec.points.truncate(3);
    spec.sections.clear();
    spec
}

/// A pool aimed at the real CLI binary, with the chaos hooks riding the
/// child environment and a short backoff base so retries stay fast.
fn pool(env: Vec<(String, String)>) -> PoolConfig {
    let mut cfg = PoolConfig::new(2);
    cfg.exe = PathBuf::from(env!("CARGO_BIN_EXE_xloops"));
    cfg.backoff_base = Duration::from_millis(2);
    cfg.env = env;
    cfg
}

/// Runs `spec` through the scheduler (pooled when `cfg` is `Some`) and
/// returns the outcomes of its single work item.
fn sweep(spec: &ExperimentSpec, cfg: Option<PoolConfig>) -> Vec<xloops::bench::sched::JobOutcome> {
    let work = vec![(spec, (0..spec.points.len()).collect::<Vec<_>>())];
    let mut swept = Scheduler::new(RunOptions::default(), None).with_pool(cfg).run(&work);
    swept.outcomes.remove(0)
}

/// The byte-exact per-point documents an artifact render consumes.
fn rendered(outcomes: &[xloops::bench::sched::JobOutcome]) -> Vec<String> {
    outcomes.iter().map(|o| o.result.to_json_value().render()).collect()
}

fn exit_code(doc: &JsonValue) -> Option<f64> {
    doc.get("exit_code").and_then(JsonValue::as_f64)
}

/// kill -9 mid-job: the crash fires exactly once (marker-file
/// semantics), the supervisor reaps the worker and retries on a fresh
/// one, and every result byte matches the in-process reference.
#[test]
fn a_sigkilled_worker_is_retried_to_the_identical_artifact() {
    let spec = small_spec();
    let marker =
        std::env::temp_dir().join(format!("xloops-crash-once-{}.marker", std::process::id()));
    let _ = std::fs::remove_file(&marker);

    let chaos = format!("{}:1:{}", spec.fingerprint(), marker.display());
    let cfg = pool(vec![("XLOOPS_WORKER_CRASH".to_string(), chaos)]);
    let pooled = sweep(&spec, Some(cfg));
    let reference = sweep(&spec, None);

    assert!(marker.exists(), "the chaos hook must actually have fired");
    let _ = std::fs::remove_file(&marker);
    for (i, o) in pooled.iter().enumerate() {
        assert!(o.state.is_done(), "point {i} must recover: {:?}", o.state);
    }
    assert_eq!(rendered(&pooled), rendered(&reference), "retried results must be byte-identical");
}

/// Persistent crash: after `max_retries` the job lands in the typed
/// terminal failure with exit code 6, the attempt count and accumulated
/// seeded backoff recorded, and the rest of the sweep unharmed.
#[test]
fn a_persistently_crashing_job_is_quarantined_with_a_typed_error_doc() {
    let spec = small_spec();
    let mut cfg =
        pool(vec![("XLOOPS_WORKER_CRASH".to_string(), format!("{}:1", spec.fingerprint()))]);
    cfg.max_retries = 2;
    let outcomes = sweep(&spec, Some(cfg));

    for (i, o) in outcomes.iter().enumerate() {
        if i == 1 {
            continue;
        }
        assert!(o.state.is_done(), "point {i} must survive: {:?}", o.state);
    }
    let sick = &outcomes[1];
    match &sick.state {
        JobState::Failed(SimError::WorkerLost { attempts, backoff_ms, .. }) => {
            assert_eq!(*attempts, 3, "max_retries=2 means exactly three attempts");
            assert!(*backoff_ms > 0, "retries must have waited out a backoff");
        }
        other => panic!("expected Failed(WorkerLost), got {other:?}"),
    }
    let doc = sick.to_error_doc().expect("a failed outcome carries an error doc");
    assert_eq!(exit_code(&doc), Some(6.0), "{}", doc.render());
    let message = sick.result.error.as_deref().expect("diagnosis attached to the result");
    assert!(message.contains("worker lost"), "{message}");
    assert!(message.contains("3 attempt(s)"), "{message}");
}

/// A wedged worker keeps heartbeating, so only the per-job deadline can
/// catch it: the job must end `Failed(Timeout)` with exit code 7 and the
/// sweep must complete instead of hanging.
#[test]
fn a_wedged_job_expires_on_its_deadline_and_the_sweep_completes() {
    let spec = small_spec();
    let mut cfg =
        pool(vec![("XLOOPS_WORKER_WEDGE".to_string(), format!("{}:0", spec.fingerprint()))]);
    cfg.job_timeout = Some(Duration::from_millis(300));
    cfg.max_retries = 1;
    let t = Instant::now();
    let outcomes = sweep(&spec, Some(cfg));
    assert!(t.elapsed() < Duration::from_secs(60), "sweep must not wedge: {:?}", t.elapsed());

    let sick = &outcomes[0];
    match &sick.state {
        JobState::Failed(SimError::Timeout { timeout_ms, attempts }) => {
            assert_eq!(*timeout_ms, 300);
            assert_eq!(*attempts, 2, "max_retries=1 means exactly two attempts");
        }
        other => panic!("expected Failed(Timeout), got {other:?}"),
    }
    let doc = sick.to_error_doc().expect("a timed-out outcome carries an error doc");
    assert_eq!(exit_code(&doc), Some(7.0), "{}", doc.render());
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        assert!(o.state.is_done(), "point {i} must survive: {:?}", o.state);
    }
}

/// When workers cannot spawn at all, the scheduler degrades to
/// in-process execution — slower, never wrong: every point completes
/// and the result bytes match the reference exactly.
#[test]
fn an_unspawnable_worker_degrades_to_in_process_identical_results() {
    let spec = small_spec();
    let mut cfg = pool(Vec::new());
    cfg.exe = PathBuf::from("/nonexistent/xloops-no-such-worker");
    let degraded = sweep(&spec, Some(cfg));
    let reference = sweep(&spec, None);

    for (i, o) in degraded.iter().enumerate() {
        assert!(o.state.is_done(), "point {i} must complete: {:?}", o.state);
    }
    assert_eq!(rendered(&degraded), rendered(&reference), "degraded route must match bytes");
}

/// A pure `PointResult` placeholder sanity check so a future refactor
/// cannot silently let supervision diagnoses leak into stored artifacts:
/// failed points carry the error in the document, not in the stats.
#[test]
fn failure_documents_carry_the_diagnosis_out_of_band() {
    let spec = small_spec();
    let mut cfg =
        pool(vec![("XLOOPS_WORKER_CRASH".to_string(), format!("{}:2", spec.fingerprint()))]);
    cfg.max_retries = 0;
    let outcomes = sweep(&spec, Some(cfg));
    let sick = &outcomes[2];
    let doc = sick.result.to_json_value();
    let err = doc.get("error").and_then(JsonValue::as_str).expect("error field present");
    assert!(err.contains("worker lost"), "{err}");
    let round = PointResult::from_json_value(&doc).expect("failure docs round-trip");
    assert_eq!(round.error.as_deref(), Some(err), "diagnosis survives the round trip");
}

/// Two specs over overlapping slices of Table II: the second repeats two
/// of the first's points under its own fingerprint and adds one more.
fn overlapping_specs() -> Vec<ExperimentSpec> {
    let table2 = xloops::bench::experiments::spec_by_name("table2").expect("table2 spec exists");
    let mut a = table2.clone();
    a.points.truncate(3);
    a.sections.clear();
    let mut b = table2;
    b.name = "table2-overlap".into();
    b.points = b.points[1..4].to_vec();
    b.sections.clear();
    vec![a, b]
}

/// The pooled route deduplicates across specs by what a point simulates,
/// exactly like the in-process route: a point two specs share ships to a
/// worker once, and both specs receive its byte-identical result.
#[test]
fn shared_points_ship_once_and_render_like_in_process() {
    let specs = overlapping_specs();
    let work = all_points(&specs);
    // One in-process thread, so a silent in-process fallback of the
    // pooled sweep would show as a worker count of 1.
    let options = RunOptions { threads: Some(1), ..RunOptions::default() };
    let run = |cfg| Scheduler::new(options.clone(), None).with_pool(cfg).run(&work);
    let pooled = run(Some(pool(Vec::new())));
    let local = run(None);

    assert_eq!(pooled.prefill.workers, 2, "the sweep must really run on the pool");
    assert_eq!(local.prefill.unique_points, 4, "six requests, four distinct simulations");
    assert_eq!(pooled.prefill.unique_points, 4, "each shared point ships once");
    for (p, l) in pooled.outcomes.iter().zip(&local.outcomes) {
        assert!(p.iter().all(|o| o.state.is_done()));
        assert_eq!(rendered(p), rendered(l), "pooled results must match in-process bytes");
    }
}

/// A pooled sweep leaves nothing behind: every child it spawned has been
/// reaped (so its CPU time reached this process's `RUSAGE_CHILDREN`), and
/// the private socket directory the children registered on is gone. The
/// pool spawns a wrapper that logs its pid and `XLOOPS_CONNECT` before it
/// `exec`s the real worker, so this test finds exactly its own children
/// even while other tests run pools alongside it.
#[test]
fn a_pooled_sweep_reaps_its_children_and_removes_its_socket_directory() {
    let tmp = std::env::temp_dir().join(format!("xloops-pool-cleanup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    let log = tmp.join("spawned.log");
    let wrapper = tmp.join("xloops-wrapper");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\necho \"$$ $XLOOPS_CONNECT\" >> '{}'\nexec '{}' \"$@\"\n",
            log.display(),
            env!("CARGO_BIN_EXE_xloops")
        ),
    )
    .expect("write wrapper");
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let spec = small_spec();
    let mut cfg = pool(Vec::new());
    cfg.exe = wrapper;
    let pooled = sweep(&spec, Some(cfg));
    assert_eq!(rendered(&pooled), rendered(&sweep(&spec, None)), "pooled bytes match");

    let spawned = std::fs::read_to_string(&log).expect("the pool spawned workers");
    let children: Vec<(&str, &str)> = spawned.lines().filter_map(|l| l.split_once(' ')).collect();
    assert!(!children.is_empty(), "the sweep must have run on children");
    for (pid, sock) in children {
        // A reaped child has no /proc entry; a live or zombie one does.
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "worker {pid} is still alive or unreaped"
        );
        let dir = std::path::Path::new(sock).parent().expect("socket in a directory");
        assert!(!dir.exists(), "socket directory {} was left behind", dir.display());
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
