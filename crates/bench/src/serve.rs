//! The service layer: a long-running sweep daemon over the scheduler.
//!
//! `xloops serve` hosts the [`crate::sched::Scheduler`] behind the
//! unified NDJSON wire protocol ([`crate::proto`]) on a Unix socket (the
//! path comes from `--sock` or `XLOOPS_SOCK`) and, when asked, a TCP
//! listener alongside it (`--listen tcp://HOST:PORT` or `XLOOPS_LISTEN`),
//! so repeated sweeps amortize one warm durable store across many client
//! invocations — local or cross-machine. `xloops submit` and `xloops
//! status` are thin clients — one request line out, one response line
//! back — and the CLI's synchronous sweep mode is the same scheduler
//! called in-process, so the daemon adds no second orchestration path.
//!
//! The wire grammar, framing, deadlines, and handshake rules live in
//! [`crate::proto`]; the transports in [`crate::transport`]. This module
//! is transport-blind: `serve_connection` speaks to a [`Conn`] and
//! only consults [`Conn::is_remote`] to decide whether the version/token
//! handshake is mandatory (TCP) or optional (Unix, whose filesystem
//! permissions are the access control).
//!
//! A remote `xloops worker --connect` process `register`s over the same
//! listener; its connection is handed to the daemon's
//! [`RemoteRegistry`], where the scheduler's pool machinery checks it
//! out as just another worker (see [`crate::worker`]).
//!
//! Malformed input — non-UTF-8 bytes, broken JSON, schema violations, an
//! invalid manifest — produces an `ok:false` response with the canonical
//! [`error_doc`] shape and exit code 2 (the CLI's usage-error code), never
//! a daemon panic; the protocol proptests feed byte soup straight into
//! [`handle_line`] to pin that.
//!
//! ## Crash safety
//!
//! The daemon holds no result state the store doesn't: each sweep runs
//! through the scheduler against the daemon's store directory, so a
//! `kill -9` mid-sweep loses only in-flight points. Resubmitting after a
//! restart re-derives the job list and finds every completed point as a
//! store hit — resume is a property of the layering, not a recovery
//! subsystem. Clean exits (`shutdown`, SIGTERM via the CLI's handler)
//! unlink the Unix socket and close the TCP listener, so restarts never
//! rely solely on stale-socket takeover.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xloops_sim::{error_doc, RunOptions};
use xloops_stats::JsonValue;

use crate::job::JobState;
use crate::manifest::{render_spec, ExperimentSpec, PointResult};
use crate::proto::{
    self, check_handshake, hello_ok, ok_fields, FrameReader, FrameWriter, Refusal, Request,
    WAIT_HEARTBEAT,
};
use crate::sched::{Scheduler, SweepProgress};
use crate::store::ResultStore;
use crate::transport::{Conn, Endpoint, Listener};
use crate::worker::{self, RemoteRegistry};

/// Resolves the daemon endpoint: an explicit `--sock` value wins,
/// otherwise `XLOOPS_SOCK`. Both accept a Unix socket path or a
/// `tcp://HOST:PORT` address (thin clients can dial either).
pub fn sock_from(flag: Option<String>) -> Option<Endpoint> {
    flag.or_else(|| std::env::var("XLOOPS_SOCK").ok())
        .filter(|s| !s.is_empty())
        .map(|s| Endpoint::parse(&s))
}

/// Resolves the extra TCP listen address: `--listen` wins, otherwise
/// `XLOOPS_LISTEN`.
pub fn listen_from(flag: Option<String>) -> Option<Endpoint> {
    flag.or_else(|| std::env::var("XLOOPS_LISTEN").ok())
        .filter(|s| !s.is_empty())
        .map(|s| Endpoint::parse(&s))
}

/// Everything a finished sweep produced, kept until the daemon exits so
/// late `status` queries (and duplicate submits) answer instantly.
#[derive(Clone, Debug)]
pub struct SweepDone {
    /// The rendered artifact text.
    pub artifact: String,
    /// Total points swept.
    pub total: usize,
    /// Points that ended `Failed` or `Quarantined`.
    pub failed: usize,
    /// The subset of `failed` that ended `Quarantined` (an untyped
    /// diagnosis, e.g. an exhausted worker-retry budget or a panic).
    pub quarantined: usize,
    /// Canonical [`error_doc`] per failed point.
    pub failures: Vec<JsonValue>,
    /// Store hits while sweeping (0 without a store).
    pub store_hits: u64,
    /// Store misses while sweeping (0 without a store).
    pub store_misses: u64,
}

/// A submitted sweep's lifecycle — the sweep-level analogue of
/// [`crate::job::JobState`], with the same wire labels.
#[derive(Clone, Debug)]
pub enum SweepPhase {
    /// Accepted, worker not yet running.
    Queued,
    /// The scheduler is sweeping.
    Running,
    /// Finished; the artifact and failure report.
    Done(Box<SweepDone>),
}

impl SweepPhase {
    fn label(&self) -> &'static str {
        match self {
            SweepPhase::Queued => "queued",
            SweepPhase::Running => "running",
            SweepPhase::Done(_) => "done",
        }
    }
}

/// One submitted sweep: its point count, current phase, and the live
/// progress tracker the scheduler ticks while sweeping. `cond` is
/// notified on every phase change so any number of `--wait` clients can
/// block on the same sweep. The manifest itself lives only in the sweep
/// thread: a finished job stays registered for the done-sweep memo, and
/// the memo needs the report, not the spec.
pub struct SweepJob {
    id: String,
    points: usize,
    progress: Arc<SweepProgress>,
    phase: Mutex<SweepPhase>,
    cond: Condvar,
}

impl SweepJob {
    fn set_phase(&self, phase: SweepPhase) {
        *self.phase.lock().unwrap() = phase;
        self.cond.notify_all();
    }

    /// Blocks until the sweep is done, then returns the report.
    pub fn wait_done(&self) -> SweepDone {
        let mut phase = self.phase.lock().unwrap();
        loop {
            if let SweepPhase::Done(done) = &*phase {
                return (**done).clone();
            }
            phase = self.cond.wait(phase).unwrap();
        }
    }

    /// Blocks up to `timeout` for the sweep to finish; `None` means it is
    /// still going (time to stream a keep-alive line, not to give up).
    pub fn wait_done_for(&self, timeout: Duration) -> Option<SweepDone> {
        let deadline = Instant::now() + timeout;
        let mut phase = self.phase.lock().unwrap();
        loop {
            if let SweepPhase::Done(done) = &*phase {
                return Some((**done).clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            phase = self.cond.wait_timeout(phase, left).unwrap().0;
        }
    }
}

/// How a daemon binds its listeners: the Unix socket (always), the
/// optional TCP listener, the store, run options, and the TCP token.
pub struct ServeConfig {
    /// The Unix socket path.
    pub sock: PathBuf,
    /// An optional TCP listen address alongside the Unix socket.
    pub listen: Option<Endpoint>,
    /// The durable store directory, when sweeps should be durable.
    pub store_dir: Option<PathBuf>,
    /// The options every sweep runs under.
    pub options: RunOptions,
    /// The shared secret TCP peers must present (`XLOOPS_TOKEN`); `None`
    /// accepts any version-matched TCP peer.
    pub token: Option<String>,
}

impl ServeConfig {
    /// A Unix-only daemon config (the pre-network shape) under `options`.
    pub fn unix(sock: impl Into<PathBuf>, store_dir: Option<PathBuf>, options: RunOptions) -> Self {
        ServeConfig { sock: sock.into(), listen: None, store_dir, options, token: None }
    }
}

/// Shared daemon state: the sweep registry plus everything a worker needs
/// to run one (store directory, run options), the remote-worker registry,
/// and the identity facts `status` reports (version, uptime).
pub struct ServiceState {
    store_dir: Option<PathBuf>,
    options: RunOptions,
    sweeps: Mutex<HashMap<String, Arc<SweepJob>>>,
    shutdown: AtomicBool,
    /// Every bound endpoint, poked awake on shutdown.
    poke: Mutex<Vec<Endpoint>>,
    token: Option<String>,
    started: Instant,
    remotes: Arc<RemoteRegistry>,
}

impl ServiceState {
    /// Fresh state for a daemon sweeping under `options` against the
    /// store at `store_dir` (when given), gating TCP peers on `token`.
    pub fn new(store_dir: Option<PathBuf>, options: RunOptions, token: Option<String>) -> Self {
        ServiceState {
            store_dir,
            options,
            sweeps: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            poke: Mutex::new(Vec::new()),
            token,
            started: Instant::now(),
            remotes: Arc::new(RemoteRegistry::new()),
        }
    }

    /// The remote-worker registry (exposed for in-process tests).
    pub fn remotes(&self) -> &Arc<RemoteRegistry> {
        &self.remotes
    }
}

/// One response line plus whether the daemon should stop accepting.
pub struct Response {
    /// The JSON document to write back (one line).
    pub body: JsonValue,
    /// `true` after a `shutdown` command.
    pub shutdown: bool,
    /// Set on a waiting `submit`: the connection loop streams keep-alive
    /// progress lines for this sweep and writes its final report as the
    /// response, instead of `body`.
    pub wait: Option<Arc<SweepJob>>,
}

fn refuse(message: String) -> Response {
    Response { body: Refusal::new(message).to_json_value(), shutdown: false, wait: None }
}

/// The sweep's current phase as a response document, with the live
/// queued/running/done progress counts alongside. A done sweep reports
/// its artifact, counts, per-point [`error_doc`]s, and store traffic.
fn phase_doc(job_id: &str, phase: &SweepPhase, progress: &SweepProgress) -> JsonValue {
    let mut fields = vec![
        ("job", JsonValue::Str(job_id.to_string())),
        ("state", JsonValue::Str(phase.label().to_string())),
        ("progress", progress.to_json_value()),
    ];
    if let SweepPhase::Done(done) = phase {
        fields.push(("points", JsonValue::UInt(done.total as u64)));
        fields.push(("failed", JsonValue::UInt(done.failed as u64)));
        fields.push(("quarantined", JsonValue::UInt(done.quarantined as u64)));
        fields.push(("errors", JsonValue::Array(done.failures.clone())));
        fields.push((
            "store",
            JsonValue::object(vec![
                ("hits", JsonValue::UInt(done.store_hits)),
                ("misses", JsonValue::UInt(done.store_misses)),
            ]),
        ));
        fields.push(("artifact", JsonValue::Str(done.artifact.clone())));
    }
    ok_fields(fields)
}

/// One row of the job listing a bare `status` returns: identity, phase,
/// live progress, and — once done — the terminal point counts.
fn listing_doc(job: &SweepJob) -> JsonValue {
    let phase = job.phase.lock().unwrap();
    let mut fields = vec![
        ("job".to_string(), JsonValue::Str(job.id.clone())),
        ("state".to_string(), JsonValue::Str(phase.label().to_string())),
        ("points".to_string(), JsonValue::UInt(job.points as u64)),
        ("progress".to_string(), job.progress.to_json_value()),
    ];
    if let SweepPhase::Done(done) = &*phase {
        fields.push(("done".to_string(), JsonValue::UInt((done.total - done.failed) as u64)));
        fields.push(("failed".to_string(), JsonValue::UInt(done.failed as u64)));
        fields.push(("quarantined".to_string(), JsonValue::UInt(done.quarantined as u64)));
    }
    JsonValue::Object(fields)
}

/// Handles one raw request line: [`Request::parse`] plus
/// [`handle_request`]. This is the daemon's entire per-line surface and
/// it must never panic — every malformed input path returns an
/// `ok:false` response instead (pinned by the codec proptests).
pub fn handle_line(state: &Arc<ServiceState>, line: &[u8]) -> Response {
    match Request::parse(line) {
        Ok(req) => handle_request(state, req),
        Err(refusal) => Response { body: refusal.to_json_value(), shutdown: false, wait: None },
    }
}

/// Dispatches one typed request on the daemon. Worker-half commands are
/// refused here — they belong on a worker's connection, and `register`
/// is handled at the connection level (`serve_connection`) because it
/// changes what the connection *is*.
pub fn handle_request(state: &Arc<ServiceState>, req: Request) -> Response {
    match req {
        Request::Ping => Response {
            body: ok_fields(vec![("pong", JsonValue::Bool(true))]),
            shutdown: false,
            wait: None,
        },
        Request::Shutdown => Response {
            body: ok_fields(vec![("shutdown", JsonValue::Bool(true))]),
            shutdown: true,
            wait: None,
        },
        Request::Hello { version, token } => {
            match check_handshake(version, token.as_deref(), state.token.as_deref()) {
                Ok(()) => Response { body: hello_ok(), shutdown: false, wait: None },
                Err(refusal) => refuse(refusal.message),
            }
        }
        Request::Status { job: None } => {
            let sweeps = state.sweeps.lock().unwrap();
            let mut ids: Vec<&String> = sweeps.keys().collect();
            ids.sort();
            let jobs = ids.into_iter().map(|id| listing_doc(&sweeps[id])).collect::<Vec<_>>();
            Response {
                body: ok_fields(vec![
                    ("jobs", JsonValue::Array(jobs)),
                    ("version", JsonValue::Str(proto::build_version().to_string())),
                    ("uptime_ms", JsonValue::UInt(state.started.elapsed().as_millis() as u64)),
                    ("workers", JsonValue::UInt(state.remotes.registered() as u64)),
                    ("workers_idle", JsonValue::UInt(state.remotes.available() as u64)),
                ]),
                shutdown: false,
                wait: None,
            }
        }
        Request::Status { job: Some(job_id) } => {
            let sweeps = state.sweeps.lock().unwrap();
            match sweeps.get(&job_id) {
                Some(job) => {
                    let phase = job.phase.lock().unwrap();
                    Response {
                        body: phase_doc(&job_id, &phase, &job.progress),
                        shutdown: false,
                        wait: None,
                    }
                }
                None => refuse(format!("unknown job {job_id}")),
            }
        }
        Request::Submit { spec, wait } => {
            let job_id = spec.fingerprint();
            let job = submit(state, job_id.clone(), *spec);
            let body = phase_doc(&job_id, &job.phase.lock().unwrap(), &job.progress);
            // Waiting is the connection loop's business, not ours: it
            // streams keep-alive progress lines and the final report, so
            // one slow sweep never pins this dispatch path.
            let wait = wait.then_some(job);
            Response { body, shutdown: false, wait }
        }
        Request::Register { .. } => {
            refuse("register must be the first request of a worker connection".to_string())
        }
        req @ (Request::Manifest { .. } | Request::Job { .. } | Request::Exit) => {
            refuse(format!("command `{}` is for workers, not the daemon", req.name()))
        }
    }
}

/// Registers a sweep (or attaches to the already-registered one with the
/// same fingerprint) and, when fresh, spawns its worker thread.
fn submit(state: &Arc<ServiceState>, job_id: String, spec: ExperimentSpec) -> Arc<SweepJob> {
    let mut sweeps = state.sweeps.lock().unwrap();
    if let Some(existing) = sweeps.get(&job_id) {
        return Arc::clone(existing);
    }
    let points = spec.points.len();
    let job = Arc::new(SweepJob {
        id: job_id.clone(),
        points,
        progress: Arc::new(SweepProgress::new()),
        phase: Mutex::new(SweepPhase::Queued),
        cond: Condvar::new(),
    });
    sweeps.insert(job_id.clone(), Arc::clone(&job));
    drop(sweeps);
    let state = Arc::clone(state);
    let worker = Arc::clone(&job);
    std::thread::spawn(move || {
        worker.set_phase(SweepPhase::Running);
        let done = catch_unwind(AssertUnwindSafe(|| run_sweep(&state, &worker, &spec)))
            .unwrap_or_else(|_| SweepDone {
                artifact: String::new(),
                total: points,
                failed: points,
                quarantined: points,
                failures: vec![error_doc(&format!("sweep {job_id} panicked"), 1)],
                store_hits: 0,
                store_misses: 0,
            });
        worker.set_phase(SweepPhase::Done(Box::new(done)));
    });
    job
}

/// One sweep through the scheduler: every point of the spec, against a
/// fresh handle on the daemon's store (fresh so the hit/miss counters are
/// per-sweep — that is what `submit --wait` reports to its client).
/// Registered remote workers ride along as executors.
fn run_sweep(state: &ServiceState, job: &SweepJob, spec: &ExperimentSpec) -> SweepDone {
    let store = state.store_dir.as_ref().and_then(|d| match ResultStore::open(d) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("[serve] cannot open store {}: {e}; sweeping cold", d.display());
            None
        }
    });
    let swept = Scheduler::new(state.options.clone(), store.as_ref())
        .with_remotes(Some(Arc::clone(&state.remotes)))
        .with_progress(Arc::clone(&job.progress))
        .run(&[(spec, (0..spec.points.len()).collect())]);
    let outcomes = &swept.outcomes[0];
    let results: Vec<PointResult> = outcomes.iter().map(|o| o.result.clone()).collect();
    let (store_hits, store_misses) = store
        .map(|s| {
            let st = s.stats();
            (st.hits, st.misses)
        })
        .unwrap_or((0, 0));
    SweepDone {
        artifact: render_spec(spec, &results),
        total: outcomes.len(),
        failed: outcomes.iter().filter(|o| !o.state.is_done()).count(),
        quarantined: outcomes
            .iter()
            .filter(|o| matches!(o.state, JobState::Quarantined(_)))
            .count(),
        failures: outcomes.iter().filter_map(|o| o.to_error_doc()).collect(),
        store_hits,
        store_misses,
    }
}

/// The accept loops: the bound listeners plus the shared state.
pub struct Daemon {
    listeners: Vec<Listener>,
    state: Arc<ServiceState>,
}

impl Daemon {
    /// Binds the Unix socket (replacing a stale socket file from a dead
    /// daemon) and, when configured, the TCP listener, and prepares the
    /// shared state. Both are closed — and the socket file unlinked —
    /// on clean shutdown.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Daemon> {
        let mut listeners = vec![Listener::bind(&Endpoint::Unix(cfg.sock.clone()))?];
        if let Some(ep) = &cfg.listen {
            match Listener::bind(ep) {
                Ok(l) => listeners.push(l),
                Err(e) => {
                    listeners.remove(0).close();
                    return Err(e);
                }
            }
        }
        let state = Arc::new(ServiceState::new(cfg.store_dir, cfg.options, cfg.token));
        // Poke addresses, not bind addresses: a TCP wildcard bind is
        // rewritten to loopback so the shutdown poke always connects.
        *state.poke.lock().unwrap() = listeners.iter().map(Listener::poke_endpoint).collect();
        Ok(Daemon { listeners, state })
    }

    /// The daemon's shared state (exposed for in-process tests).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// The bound TCP address, when a TCP listener was configured (port
    /// `0` resolves to the real port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.listeners.iter().find_map(Listener::tcp_addr)
    }

    /// Serves until a `shutdown` command arrives: accepts connections on
    /// every listener, one handler thread per client, any number of
    /// request lines per connection. Returns the number of sweeps the
    /// daemon ran.
    pub fn run(self) -> std::io::Result<usize> {
        let Daemon { listeners, state } = self;
        std::thread::scope(|scope| {
            for listener in &listeners[1..] {
                let state = Arc::clone(&state);
                scope.spawn(move || accept_loop(listener, &state));
            }
            accept_loop(&listeners[0], &state);
        });
        let swept = state.sweeps.lock().unwrap().len();
        for listener in listeners {
            listener.close();
        }
        Ok(swept)
    }
}

fn accept_loop(listener: &Listener, state: &Arc<ServiceState>) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                eprintln!("[serve] accept failed: {e}");
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let state = Arc::clone(state);
        std::thread::spawn(move || serve_connection(&state, conn));
    }
}

/// Request/response loop for one client connection, transport-blind: a
/// TCP peer must open with `hello` (client) or `register` (worker) and
/// pass the version/token handshake; Unix peers speak the pre-network
/// wire unchanged (a handshake is answered if offered, never required).
fn serve_connection(state: &Arc<ServiceState>, conn: Conn) {
    let remote = conn.is_remote();
    if remote {
        // Slowloris guard: an unauthenticated TCP peer gets ACK_DEADLINE
        // to complete the handshake — a connection that sends nothing
        // (or dribbles bytes) times out instead of pinning this thread
        // and its file descriptor forever. The deadline comes off once
        // the peer is greeted or registered, because legitimate traffic
        // (waiting submits, idle workers) is quiet for long stretches.
        if let Err(e) = conn.set_timeout(Some(proto::ACK_DEADLINE)) {
            eprintln!("[serve] cannot arm handshake deadline: {e}");
            return;
        }
    }
    let peer = match conn.split() {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("[serve] cannot split connection: {e}");
            return;
        }
    };
    let (read, write, control) = peer;
    let mut reader = FrameReader::new(read);
    let mut writer = FrameWriter::new(write);
    let mut control = Some(control);
    let mut greeted = !remote;
    if remote {
        // Until the handshake passes, a TCP peer's frame may only be as
        // large as a `hello` or `register` line can be.
        reader.set_cap(proto::HANDSHAKE_MAX_FRAME);
    }
    loop {
        let req = match reader.next_line() {
            Ok(Some(line)) => Request::parse(line),
            Ok(None) => return,
            Err(e) => {
                // An oversized frame (MAX_FRAME, or HANDSHAKE_MAX_FRAME
                // before the handshake) is a protocol violation, not a
                // transport failure: tell the peer why before hanging up.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    let _ = writer.send(&Refusal::new(e.to_string()).to_json_value());
                }
                eprintln!("[serve] read failed: {e}");
                return;
            }
        };
        if !greeted && !matches!(req, Ok(Request::Hello { .. }) | Ok(Request::Register { .. })) {
            let refusal = Refusal::new(format!(
                "TCP connections must open with a `hello` or `register` handshake \
                 (protocol v{})",
                proto::PROTO_VERSION
            ));
            let _ = writer.send(&refusal.to_json_value());
            return;
        }
        // `register` rebinds the connection as a worker: handshake, ack,
        // then hand the split halves to the registry and leave the loop.
        if let Ok(Request::Register { version, token }) = &req {
            let control = control.take().expect("control handle unused until handoff");
            let want = state.token.as_deref();
            if let Ok(handle) =
                worker::register(reader, writer, control, *version, token.as_deref(), want)
            {
                state.remotes.register(handle);
            }
            return;
        }
        let response = match req {
            Ok(req) => {
                let hello = matches!(req, Request::Hello { .. });
                let resp = handle_request(state, req);
                if hello && resp.body.get("ok").and_then(JsonValue::as_bool) == Some(true) {
                    greeted = true;
                    reader.set_cap(proto::MAX_FRAME);
                    // Greeted TCP clients may legitimately go quiet (a
                    // `submit --wait` reads for a whole sweep): relax
                    // the handshake deadline now that they are trusted.
                    if remote {
                        if let Some(c) = &control {
                            let _ = c.set_timeout(None);
                        }
                    }
                } else if hello && remote {
                    // A failed TCP handshake closes the connection after
                    // the refusal is written.
                    let _ = writer.send(&resp.body);
                    return;
                }
                resp
            }
            Err(refusal) => Response { body: refusal.to_json_value(), shutdown: false, wait: None },
        };
        let body = match &response.wait {
            // A waiting submit: stream keep-alive progress lines until
            // the sweep is done, then its final report. A client that
            // hung up mid-wait just ends this connection; the sweep
            // itself is unaffected.
            Some(job) => loop {
                match job.wait_done_for(WAIT_HEARTBEAT) {
                    Some(done) => {
                        break phase_doc(&job.id, &SweepPhase::Done(Box::new(done)), &job.progress)
                    }
                    None => {
                        let mut beat =
                            phase_doc(&job.id, &job.phase.lock().unwrap().clone(), &job.progress);
                        if let JsonValue::Object(fields) = &mut beat {
                            fields.push(("hb".to_string(), JsonValue::Bool(true)));
                        }
                        if writer.send(&beat).is_err() {
                            return;
                        }
                    }
                }
            },
            None => response.body.clone(),
        };
        if let Err(e) = writer.send(&body) {
            eprintln!("[serve] write failed: {e}");
            return;
        }
        if response.shutdown {
            // Flip the flag, then poke every accept loop awake with a
            // throwaway connection so it observes the flag and exits.
            state.shutdown.store(true, Ordering::SeqCst);
            for ep in state.poke.lock().unwrap().iter() {
                let _ = Conn::connect(ep);
            }
            return;
        }
    }
}

/// Installs a SIGTERM handler that unlinks `sock` before exiting, so an
/// orchestrator's `kill` leaves no stale socket file behind. Raw C FFI
/// (`signal`/`unlink`/`_exit`) because the handler must be async-signal
/// safe and the repo carries no libc crate. Installed only by the CLI's
/// `serve` path — library embedders and in-process tests keep their
/// process's signal disposition untouched.
#[cfg(unix)]
pub fn install_sigterm_unlink(sock: &std::path::Path) {
    use std::os::unix::ffi::OsStrExt;
    use std::sync::atomic::AtomicPtr;

    static TERM_PATH: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut());
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        fn unlink(path: *const u8) -> i32;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_term(_sig: i32) {
        let path = TERM_PATH.load(Ordering::SeqCst);
        unsafe {
            if !path.is_null() {
                unlink(path);
            }
            _exit(0);
        }
    }

    let mut bytes = sock.as_os_str().as_bytes().to_vec();
    bytes.push(0);
    // Leaked intentionally: the handler may fire at any point for the
    // rest of the process's life.
    let nul_terminated: &'static mut [u8] = Box::leak(bytes.into_boxed_slice());
    TERM_PATH.store(nul_terminated.as_mut_ptr(), Ordering::SeqCst);
    unsafe {
        signal(SIGTERM, on_term);
    }
}
