//! The crash-isolation layer: a supervised worker pool over one
//! transport.
//!
//! The scheduler historically ran every simulation as a thread inside the
//! calling process, so one aborting or wedging point could take down a
//! whole `xloops serve` daemon and every attached `--wait` client. This
//! module moves job *execution* into disposable `xloops worker` processes
//! while leaving job *identity and ordering* exactly where they were: the
//! parent still owns the store probe, the item-ordered result slots, and
//! the artifact render, so artifacts are byte-identical whether a job ran
//! in-process, in a child, on a remote machine, or across worker deaths.
//!
//! ## One transport
//!
//! Every worker is a connection that dialled in and completed the one
//! `register` handshake ([`register`]). A remote `xloops worker --connect
//! HOST:PORT` registers with a daemon, whose [`RemoteRegistry`] lends it
//! to sweeps. A pool that may spawn children owns a private Unix listener
//! in a fresh mode-0700 directory and spawns `xloops worker` with
//! `XLOOPS_CONNECT` naming that socket, so the child takes the same
//! [`worker_connect`] path as a remote. The directory's permissions are
//! the listener's trust boundary (it asks for no token), and it admits
//! nothing but a `register` first frame within
//! [`proto::HANDSHAKE_MAX_FRAME`]. The pool removes it when it drops.
//!
//! ## Wire protocol
//!
//! Workers speak the worker half of the unified protocol
//! ([`crate::proto`]): `manifest` / `job` / `exit` requests, `{"ok":...}`
//! replies, `{"hb":true}` heartbeats. A job is shipped as the store-key
//! triple — `(fingerprint, index, options)`, see [`crate::job::Job`] —
//! against a manifest registered once per worker. The worker executes the
//! point through the *same* code path as an in-process run
//! ([`Simulation::of_point`] + [`execute`]), so diagnosis messages, stats,
//! and the rendered [`PointResult`] are bit-identical; a typed
//! [`SimError`] additionally ships its class exit code, which the parent
//! re-wraps as [`SimError::Remote`] so error documents keep their original
//! codes.
//!
//! ## Supervision
//!
//! A reply wait runs under two clocks: heartbeats, which a worker writes
//! every 250 ms only while serving a request (silence past
//! [`PoolConfig::heartbeat_grace`] means hung), and an optional per-attempt
//! job deadline (`XLOOPS_JOB_TIMEOUT`, default off so
//! determinism-sensitive tests never race a timer). A worker that exits
//! (SIGKILL, abort, OOM, a severed link), wedges, or writes garbage is hung
//! up on — and killed and reaped if the pool spawned it — and its job is
//! retried on a fresh worker after a seeded exponential backoff
//! ([`backoff_delay`]) up to [`PoolConfig::max_retries`] retries. An
//! exhausted job is quarantined with a typed [`SimError::WorkerLost`] /
//! [`SimError::Timeout`] error document; the sweep always completes.
//! Registered remotes are preferred over spawning children, and every
//! spawned child is reaped before [`WorkerPool::run`] returns.
//!
//! ## Degradation rule
//!
//! [`WorkerPool::spawn`] spawns a probe child and waits for its
//! `register` before the pool is trusted. If the worker binary cannot be
//! spawned or never registers (wrong executable, exec restrictions), the
//! scheduler falls back to the existing in-process threads with a warning
//! — `xloops sweep/all/serve` never regress just because process
//! isolation is unavailable.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::fs::DirBuilderExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use xloops_sim::{RunOptions, SimError, SystemStats};
use xloops_stats::JsonValue;

use crate::manifest::{ExperimentSpec, PointResult};
use crate::proto::{
    self, check_handshake, hb_doc, hello_ok, is_heartbeat, job_request, manifest_request,
    register_request, token_from_env, FrameReader, FrameWriter, Refusal, Request, ACK_DEADLINE,
    HEARTBEAT_PERIOD,
};
use crate::runner::{execute, Simulation};
use crate::sched::SweepProgress;
use crate::transport::{Conn, Endpoint};
use crate::RunResult;

/// How long a dispatcher without local spawning waits for a remote worker
/// to (re)register before giving the attempt up as a spawn failure.
const REMOTE_CHECKOUT_WAIT: Duration = Duration::from_secs(1);

/// Supervision policy for a [`WorkerPool`]. Every knob here names
/// *infrastructure*, not run semantics: none of them enter
/// [`RunOptions`], store keys, or artifacts (see `sim::options`).
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker processes to run concurrently (`XLOOPS_WORKERS`).
    pub workers: usize,
    /// Per-attempt wall-clock deadline for one job (`XLOOPS_JOB_TIMEOUT`
    /// in ms); `None` (the default) never times a job out.
    pub job_timeout: Option<Duration>,
    /// Retries after the first attempt before a job is quarantined
    /// (`XLOOPS_MAX_RETRIES`, default 2).
    pub max_retries: u32,
    /// How long a busy worker may go without writing any line (heartbeat
    /// or reply) before it is presumed hung and reaped.
    pub heartbeat_grace: Duration,
    /// Base delay of the seeded exponential backoff between retries.
    pub backoff_base: Duration,
    /// The worker executable (defaults to the current executable;
    /// `XLOOPS_WORKER_EXE` overrides, e.g. for harnesses whose own binary
    /// has no `worker` subcommand).
    pub exe: PathBuf,
    /// Extra environment for spawned workers (test chaos hooks ride
    /// here so the parent process's environment stays untouched).
    pub env: Vec<(String, String)>,
    /// Whether the pool may spawn local child workers. `false` for a
    /// remotes-only pool ([`PoolConfig::for_remotes`]): lost jobs then
    /// wait up to a grace for another remote instead of forking locally.
    pub spawn_children: bool,
}

impl PoolConfig {
    /// A pool of `workers` processes with default supervision: no job
    /// deadline, 2 retries, 10 s heartbeat grace, 25 ms backoff base.
    pub fn new(workers: usize) -> PoolConfig {
        PoolConfig {
            workers: workers.max(1),
            job_timeout: None,
            max_retries: 2,
            heartbeat_grace: Duration::from_secs(10),
            backoff_base: Duration::from_millis(25),
            exe: worker_exe(),
            env: Vec::new(),
            spawn_children: true,
        }
    }

    /// A remotes-only pool sized for `workers` registered executors: no
    /// local children are ever spawned, and the supervision knobs
    /// (`XLOOPS_JOB_TIMEOUT` / `XLOOPS_MAX_RETRIES` /
    /// `XLOOPS_HEARTBEAT_GRACE`) still come from the environment.
    pub fn for_remotes(workers: usize) -> PoolConfig {
        let mut cfg = PoolConfig::new(workers);
        cfg.spawn_children = false;
        cfg.overlay_env();
        cfg
    }

    /// Reads the worker knobs from the environment: `None` unless
    /// `XLOOPS_WORKERS` is a positive count, with `XLOOPS_JOB_TIMEOUT`
    /// (ms), `XLOOPS_MAX_RETRIES`, and `XLOOPS_HEARTBEAT_GRACE` (ms)
    /// layered on top when set.
    pub fn from_env() -> Option<PoolConfig> {
        let workers: usize = std::env::var("XLOOPS_WORKERS").ok()?.trim().parse().ok()?;
        if workers == 0 {
            return None;
        }
        let mut cfg = PoolConfig::new(workers);
        cfg.overlay_env();
        Some(cfg)
    }

    fn overlay_env(&mut self) {
        self.job_timeout = env_ms("XLOOPS_JOB_TIMEOUT").filter(|d| !d.is_zero());
        if let Some(n) = std::env::var("XLOOPS_MAX_RETRIES").ok().and_then(|v| v.parse().ok()) {
            self.max_retries = n;
        }
        if let Some(grace) = env_ms("XLOOPS_HEARTBEAT_GRACE").filter(|d| !d.is_zero()) {
            self.heartbeat_grace = grace;
        }
    }
}

/// A millisecond-valued environment knob; unparsable reads as unset.
fn env_ms(name: &str) -> Option<Duration> {
    std::env::var(name).ok()?.trim().parse().ok().map(Duration::from_millis)
}

/// The executable to spawn workers from.
fn worker_exe() -> PathBuf {
    std::env::var_os("XLOOPS_WORKER_EXE")
        .map(PathBuf::from)
        .or_else(|| std::env::current_exe().ok())
        .unwrap_or_else(|| PathBuf::from("xloops"))
}

/// One job as the pool ships it: the spec to register, the store-key
/// triple naming the point, and how many admitted sweep jobs this unique
/// simulation resolves (for progress accounting; deduplicated points
/// fan back out to every admitted job that aliased them).
pub struct WireJob<'a> {
    /// The owning manifest (registered once per worker per fingerprint).
    pub spec: &'a ExperimentSpec,
    /// [`ExperimentSpec::fingerprint`] of `spec`.
    pub fingerprint: String,
    /// Index into the manifest's point list.
    pub index: usize,
    /// The options the point runs under.
    pub options: &'a RunOptions,
    /// Admitted jobs this unique simulation resolves (progress weight).
    pub fanout: u64,
}

/// The pool's verdict on one [`WireJob`]: the point result exactly as an
/// in-process run would have produced it (placeholder stats plus
/// diagnosis when the point failed), the typed error class when one is
/// known, and how many attempts it took.
#[derive(Clone, Debug)]
pub struct WorkerOutcome {
    /// The point result (always present; failed points carry the
    /// diagnosis in [`PointResult::error`]).
    pub result: PointResult,
    /// The typed class behind a failure: [`SimError::Remote`] for a
    /// typed simulation error relayed from the worker,
    /// [`SimError::WorkerLost`] / [`SimError::Timeout`] for supervision
    /// failures, `None` for successes and untyped (panic) failures.
    pub sim: Option<SimError>,
    /// Attempts made (1 = first dispatch succeeded).
    pub attempts: u32,
}

/// Why an attempt on a worker was abandoned.
#[derive(Debug)]
enum Loss {
    /// The worker exited (crash, SIGKILL, OOM, severed link): EOF.
    Exited,
    /// The worker wrote a line that does not parse as a valid reply.
    Garbage,
    /// The worker went silent past the heartbeat grace.
    Silent,
    /// The job's per-attempt deadline expired.
    Deadline,
    /// A replacement worker could not even be acquired.
    Spawn(String),
}

impl Loss {
    fn cause(&self) -> String {
        match self {
            Loss::Exited => "worker exited".to_string(),
            Loss::Garbage => "garbage reply".to_string(),
            Loss::Silent => "heartbeat silence".to_string(),
            Loss::Deadline => "job deadline expired".to_string(),
            Loss::Spawn(e) => format!("spawn failed: {e}"),
        }
    }
}

/// One registered worker: the framed request writer, the reply channel
/// (fed by a pump thread that drops its sender on EOF), the control
/// handle that can hang the connection up, which manifests it already
/// knows (kept across checkouts, so a remote serves a whole sweep with one
/// manifest registration), and — for a child the pool spawned — the
/// process to kill and reap.
pub struct WorkerHandle {
    writer: FrameWriter<Box<dyn Write + Send>>,
    control: Conn,
    rx: Receiver<Option<JsonValue>>,
    known: HashSet<String>,
    child: Option<Child>,
}

/// The `register` handshake, shared by the daemon's listeners and every
/// pool's private listener: checks the protocol version (and `want_token`
/// when one is set), clears the handshake deadline, acks, lifts the
/// handshake frame cap, and starts the reply pump. A failed check sends
/// the refusal; the caller then drops the connection.
pub fn register(
    mut reader: FrameReader<Box<dyn Read + Send>>,
    mut writer: FrameWriter<Box<dyn Write + Send>>,
    control: Conn,
    version: u64,
    token: Option<&str>,
    want_token: Option<&str>,
) -> Result<WorkerHandle, String> {
    if let Err(refusal) = check_handshake(version, token, want_token) {
        let _ = writer.send(&refusal.to_json_value());
        return Err(refusal.message);
    }
    // A registered worker may idle for hours between jobs: the handshake
    // deadline comes off, and the pool's two clocks own liveness.
    control.set_timeout(None).map_err(|e| e.to_string())?;
    writer.send(&hello_ok()).map_err(|e| e.to_string())?;
    reader.set_cap(proto::MAX_FRAME);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || proto::pump_lines(reader, tx));
    Ok(WorkerHandle { writer, control, rx, known: HashSet::new(), child: None })
}

impl WorkerHandle {
    /// Whether the connection behind this handle is still up: drains any
    /// queued heartbeats; a dropped sender (EOF on the socket) or queued
    /// garbage means the worker is gone.
    fn is_live(&self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(Some(_)) => continue,
                Ok(None) => return false,
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Sends one request and waits for its non-heartbeat reply, policing
    /// the deadline and the heartbeat grace. The silence clock starts at
    /// the request (an idle worker writes nothing), and every heartbeat
    /// rearms it.
    fn request(
        &mut self,
        doc: &JsonValue,
        deadline: Option<Instant>,
        grace: Duration,
    ) -> Result<JsonValue, Loss> {
        self.writer.send(doc).map_err(|_| Loss::Exited)?;
        let mut last_line = Instant::now();
        loop {
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Some(doc)) if is_heartbeat(&doc) => last_line = Instant::now(),
                Ok(Some(doc)) => return Ok(doc),
                Ok(None) => return Err(Loss::Garbage),
                Err(RecvTimeoutError::Disconnected) => return Err(Loss::Exited),
                Err(RecvTimeoutError::Timeout) => {}
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Loss::Deadline);
            }
            if last_line.elapsed() > grace {
                return Err(Loss::Silent);
            }
        }
    }

    /// Registers the job's manifest on this worker, once per fingerprint.
    fn ensure_manifest(&mut self, job: &WireJob<'_>, grace: Duration) -> Result<(), Loss> {
        if self.known.contains(&job.fingerprint) {
            return Ok(());
        }
        let ack = Some(Instant::now() + ACK_DEADLINE);
        let reply = self.request(&manifest_request(job.spec), ack, grace)?;
        if reply.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Err(Loss::Garbage);
        }
        self.known.insert(job.fingerprint.clone());
        Ok(())
    }

    /// Ships one job and awaits its result under the per-attempt deadline.
    fn run_job(
        &mut self,
        job: &WireJob<'_>,
        cfg: &PoolConfig,
    ) -> Result<(PointResult, Option<i32>), Loss> {
        let deadline = cfg.job_timeout.map(|t| Instant::now() + t);
        let doc = job_request(&job.fingerprint, job.index, job.options);
        let reply = self.request(&doc, deadline, cfg.heartbeat_grace)?;
        parse_job_reply(&reply, job.index).ok_or(Loss::Garbage)
    }

    /// Destroys the worker: the connection is hung up, and a child this
    /// pool spawned is killed and reaped (only a waited child's CPU time
    /// reaches the parent's `RUSAGE_CHILDREN`). A remote process survives
    /// and may re-register — that is its own supervisor's business.
    fn kill(mut self) {
        self.control.shutdown();
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The daemon's pool of registered remote executors. Dispatchers check
/// handles out, run jobs on them, and check them back in; a handle whose
/// connection died is discarded at checkout (and its loss mid-job is just
/// another retry). The registry is shared between the accept path (which
/// registers) and every concurrently running sweep.
#[derive(Default)]
pub struct RemoteRegistry {
    idle: Mutex<VecDeque<WorkerHandle>>,
    cond: Condvar,
    /// Handles currently checked out by dispatchers — counted so
    /// `registered` (what `status` reports) includes busy workers, not
    /// just the idle queue.
    checked_out: AtomicUsize,
}

impl RemoteRegistry {
    /// An empty registry.
    pub fn new() -> RemoteRegistry {
        RemoteRegistry::default()
    }

    /// Adds a freshly registered remote worker.
    pub fn register(&self, handle: WorkerHandle) {
        self.idle.lock().unwrap().push_back(handle);
        self.cond.notify_all();
    }

    /// Returns a checked-out handle to the pool.
    pub fn checkin(&self, handle: WorkerHandle) {
        self.uncheckout();
        self.register(handle);
    }

    /// Forgets a checked-out handle whose connection died mid-job (the
    /// dispatcher killed it instead of checking it back in).
    pub fn discard(&self) {
        self.uncheckout();
    }

    fn uncheckout(&self) {
        let _ = self
            .checked_out
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| Some(n.saturating_sub(1)));
    }

    /// How many idle remote workers are registered right now.
    pub fn available(&self) -> usize {
        self.idle.lock().unwrap().len()
    }

    /// How many remote workers the daemon believes are connected: the
    /// idle queue plus handles checked out by running sweeps — the
    /// count `status` reports, so busy workers don't read as zero.
    pub fn registered(&self) -> usize {
        self.idle.lock().unwrap().len() + self.checked_out.load(Ordering::SeqCst)
    }

    /// Checks out an idle live handle, waiting up to `wait` for one to
    /// register or check back in. Dead handles found on the way are
    /// discarded.
    fn checkout(&self, wait: Duration) -> Option<WorkerHandle> {
        let deadline = Instant::now() + wait;
        let mut idle = self.idle.lock().unwrap();
        loop {
            while let Some(handle) = idle.pop_front() {
                if handle.is_live() {
                    self.checked_out.fetch_add(1, Ordering::SeqCst);
                    return Some(handle);
                }
                handle.kill();
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            idle = self.cond.wait_timeout(idle, left).unwrap().0;
        }
    }
}

/// The socket's name inside a [`Port`]'s directory.
const PORT_SOCKET: &str = "worker.sock";

/// A pool's private executor port: a Unix listener in a fresh mode-0700
/// directory that only this user can reach. Children spawn one at a time
/// under the listener's lock and a failed spawn drops whatever its reaped
/// child queued, so the connection accepted after a spawn is that child's.
/// Dropping the port removes the directory.
struct Port {
    dir: PathBuf,
    listener: Mutex<UnixListener>,
}

impl Port {
    fn open() -> std::io::Result<Port> {
        static OPENED: AtomicUsize = AtomicUsize::new(0);
        // Pid and counter make the name unique in this process; the clock
        // keeps a reused pid from colliding with a killed run's leftovers.
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.subsec_nanos());
        let dir = std::env::temp_dir().join(format!(
            "xloops-pool-{}-{}-{nanos}",
            std::process::id(),
            OPENED.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::DirBuilder::new().mode(0o700).create(&dir)?;
        // Nonblocking, so a spawn can watch its child while it waits.
        let listener = UnixListener::bind(dir.join(PORT_SOCKET))
            .and_then(|l| l.set_nonblocking(true).map(|()| l))
            .inspect_err(|_| {
                let _ = std::fs::remove_dir_all(&dir);
            })?;
        Ok(Port { dir, listener: Mutex::new(listener) })
    }

    /// Spawns `xloops worker` against this port and waits for it to
    /// register. A child that exits first, or stays silent past
    /// [`ACK_DEADLINE`], is killed and reaped.
    fn spawn(&self, cfg: &PoolConfig) -> std::io::Result<WorkerHandle> {
        let listener = self.listener.lock().expect("no spawn panics holding the port");
        let mut child = Command::new(&cfg.exe)
            .arg("worker")
            .envs(cfg.env.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .env("XLOOPS_CONNECT", self.dir.join(PORT_SOCKET))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        match accept_child(&listener, &mut child).and_then(admit) {
            Ok(handle) => Ok(WorkerHandle { child: Some(child), ..handle }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                // Anything the reaped child queued is stale: drop it, so
                // the next spawn accepts its own child's connection.
                while listener.accept().is_ok() {}
                Err(std::io::Error::other(format!("worker did not register: {e}")))
            }
        }
    }
}

impl Drop for Port {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The next connection on `listener`, while `child` lives and within
/// [`ACK_DEADLINE`].
fn accept_child(listener: &UnixListener, child: &mut Child) -> Result<UnixStream, String> {
    let deadline = Instant::now() + ACK_DEADLINE;
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e.to_string()),
        }
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Err(format!("it exited ({status})"));
        }
        if Instant::now() >= deadline {
            return Err("timed out".to_string());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Admits one connection on a private port: the first frame must be a
/// `register` of at most [`proto::HANDSHAKE_MAX_FRAME`] bytes. Anything
/// else is refused and the connection dropped.
fn admit(stream: UnixStream) -> Result<WorkerHandle, String> {
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    let conn = Conn::Unix(stream);
    conn.set_timeout(Some(ACK_DEADLINE)).map_err(|e| e.to_string())?;
    let (read, write, control) = conn.split().map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new(read);
    let mut writer = FrameWriter::new(write);
    reader.set_cap(proto::HANDSHAKE_MAX_FRAME);
    let first = match reader.next_line() {
        Ok(Some(line)) => Request::parse(line),
        Ok(None) => return Err("it hung up before registering".to_string()),
        Err(e) => Err(Refusal::new(e.to_string())),
    };
    let refusal = match first {
        Ok(Request::Register { version, token }) => {
            return register(reader, writer, control, version, token.as_deref(), None)
        }
        Ok(req) => Refusal::new(format!("expected `register`, got `{}`", req.name())),
        Err(refusal) => refusal,
    };
    let _ = writer.send(&refusal.to_json_value());
    Err(refusal.message)
}

/// A worker's job reply: `ok`, the echoed index, a parseable result, and
/// optionally the typed class's exit code. Anything else is garbage.
fn parse_job_reply(doc: &JsonValue, index: usize) -> Option<(PointResult, Option<i32>)> {
    if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return None;
    }
    if doc.get("index").and_then(JsonValue::as_u64) != Some(index as u64) {
        return None;
    }
    let result = PointResult::from_json_value(doc.get("result")?).ok()?;
    let exit = doc.get("exit_code").and_then(JsonValue::as_u64).map(|c| c as i32);
    Some((result, exit))
}

/// Deterministic seeded exponential backoff: FNV-1a over the job identity
/// xor the attempt, finalized with splitmix64 into a jitter factor in
/// `[0.5, 1.5)`. Two runs of the same sweep sleep the same schedule, and
/// distinct jobs spread apart instead of thundering back together.
/// Doubles per retry from `base`, capped at 2 s.
pub fn backoff_delay(base: Duration, fingerprint: &str, index: usize, attempt: u32) -> Duration {
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fingerprint.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    seed ^= (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    seed ^= attempt as u64;
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let jitter = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64;
    let doublings = attempt.saturating_sub(2).min(6);
    let ms = (base.as_millis() as f64 * (1u64 << doublings) as f64 * jitter).min(2_000.0);
    Duration::from_millis(ms.max(1.0) as u64)
}

/// The supervised pool: verified once at spawn, then [`WorkerPool::run`]
/// executes job lists with per-thread workers, retries, and quarantine.
/// With a [`RemoteRegistry`] attached, registered remote executors are
/// preferred over spawning children (and are the only route when the
/// config forbids children).
pub struct WorkerPool {
    cfg: PoolConfig,
    probe: Mutex<Option<WorkerHandle>>,
    remotes: Option<Arc<RemoteRegistry>>,
    /// The private listener children register on; `None` for a
    /// remotes-only pool.
    port: Option<Port>,
}

impl WorkerPool {
    /// Spawns one probe child and waits for its `register`. An executable
    /// that cannot be spawned — or that never registers (wrong
    /// executable, exec restrictions) — is an error here, *before* any job
    /// is at risk; the scheduler reacts by degrading to in-process
    /// execution.
    pub fn spawn(cfg: PoolConfig) -> std::io::Result<WorkerPool> {
        WorkerPool::spawn_with(cfg, None)
    }

    /// [`WorkerPool::spawn`] with a remote registry: when registered
    /// remote workers exist, the pool is trusted without a probe child
    /// (their register handshake already vouched for them); otherwise a
    /// child-spawning config probes as usual, and a remotes-only config
    /// with nobody registered is an error (degrade to in-process).
    pub fn spawn_with(
        cfg: PoolConfig,
        remotes: Option<Arc<RemoteRegistry>>,
    ) -> std::io::Result<WorkerPool> {
        let port = if cfg.spawn_children { Some(Port::open()?) } else { None };
        let probe = match (&port, remotes.as_ref().map_or(0, |r| r.available())) {
            (_, 1..) => None,
            (Some(port), 0) => Some(port.spawn(&cfg)?),
            (None, 0) => return Err(std::io::Error::other("no remote workers connected")),
        };
        Ok(WorkerPool { cfg, probe: Mutex::new(probe), remotes, port })
    }

    /// The configured worker-process count.
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Runs every job on the pool, returning outcomes in job order (the
    /// same item-ordered-slots discipline as [`crate::sched::run_jobs`],
    /// so artifact byte-identity is preserved by construction). Worker
    /// deaths cost retries, never result order; `progress` (when given)
    /// is ticked live per job with its fanout weight. Every child the run
    /// spawned has been reaped when it returns.
    pub fn run(
        &self,
        jobs: &[WireJob<'_>],
        progress: Option<&SweepProgress>,
    ) -> Vec<WorkerOutcome> {
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..jobs.len()).collect());
        let slots: Vec<Mutex<Option<WorkerOutcome>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let width = self.cfg.workers.max(self.remotes.as_ref().map_or(0, |r| r.available()));
        let threads = width.clamp(1, jobs.len().max(1));
        let remotes = self.remotes.as_deref();
        let port = self.port.as_ref();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (queue, slots, cfg) = (&queue, &slots, &self.cfg);
                // The probe child from the spawn handshake serves the
                // first dispatcher; the rest acquire lazily on first use.
                let mut handle = if t == 0 { self.probe.lock().unwrap().take() } else { None };
                scope.spawn(move || {
                    loop {
                        let claimed = queue.lock().unwrap().pop_front();
                        let Some(i) = claimed else { break };
                        let job = &jobs[i];
                        if let Some(p) = progress {
                            p.start(job.fanout);
                        }
                        let outcome = run_with_retries(&mut handle, job, cfg, remotes, port);
                        if let Some(p) = progress {
                            p.finish(job.fanout, outcome.result.error.is_none());
                        }
                        *slots[i].lock().unwrap() = Some(outcome);
                    }
                    if let Some(h) = handle {
                        retire(h, remotes);
                    }
                });
            }
        });
        slots.into_iter().map(|s| s.into_inner().unwrap().expect("pool ran every job")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(probe) = self.probe.lock().unwrap().take() {
            probe.kill();
        }
    }
}

/// Releases a dispatcher's worker at the end of a run: a healthy remote
/// checks back into the registry for the next sweep; a child is killed
/// and reaped.
fn retire(handle: WorkerHandle, remotes: Option<&RemoteRegistry>) {
    match remotes {
        Some(registry) if handle.child.is_none() => registry.checkin(handle),
        _ => handle.kill(),
    }
}

/// Acquires a worker for a dispatcher: a registered remote first (waiting
/// out a re-register window when children are forbidden), then a child
/// spawned on the pool's port when the config allows one.
fn acquire(
    remotes: Option<&RemoteRegistry>,
    port: Option<&Port>,
    cfg: &PoolConfig,
) -> Result<WorkerHandle, String> {
    if let Some(registry) = remotes {
        let wait = if port.is_some() { Duration::ZERO } else { REMOTE_CHECKOUT_WAIT };
        if let Some(handle) = registry.checkout(wait) {
            return Ok(handle);
        }
    }
    match port {
        Some(port) => port.spawn(cfg).map_err(|e| e.to_string()),
        None => Err("no remote workers available".to_string()),
    }
}

/// One job through the retry loop: dispatch on the current worker
/// (acquire one if needed), and on any loss reap the worker, sleep the
/// seeded backoff, and retry on a fresh one. Exhaustion quarantines the
/// job with a typed [`SimError::Timeout`] (last loss was the deadline) or
/// [`SimError::WorkerLost`] error, in the same placeholder-result shape
/// the in-process panic firewall produces. A remotes-only pool whose
/// registry is empty even after the checkout wait does not quarantine:
/// the dispatcher degrades to [`run_job_in_process`] — slower, never
/// wrong — since a fleet that disconnected is an infrastructure outage,
/// not a defect of the point.
fn run_with_retries(
    handle: &mut Option<WorkerHandle>,
    job: &WireJob<'_>,
    cfg: &PoolConfig,
    remotes: Option<&RemoteRegistry>,
    port: Option<&Port>,
) -> WorkerOutcome {
    let attempts_max = cfg.max_retries.saturating_add(1);
    let mut backoff_ms = 0u64;
    let mut attempt = 0u32;
    let mut last = Loss::Exited;
    while attempt < attempts_max {
        attempt += 1;
        if attempt > 1 {
            let delay = backoff_delay(cfg.backoff_base, &job.fingerprint, job.index, attempt);
            backoff_ms += delay.as_millis() as u64;
            std::thread::sleep(delay);
        }
        let h = match handle {
            Some(h) => h,
            None => match acquire(remotes, port, cfg) {
                Ok(h) => handle.insert(h),
                Err(e) => {
                    if port.is_none() {
                        // No remote came back within the checkout wait
                        // and children are forbidden: retries cannot
                        // succeed until a worker re-registers, so run
                        // the point here instead of quarantining it.
                        eprintln!("xloops: {e}; running point {} in-process", job.index);
                        return run_job_in_process(job, attempt);
                    }
                    last = Loss::Spawn(e);
                    continue;
                }
            },
        };
        match h.ensure_manifest(job, cfg.heartbeat_grace).and_then(|()| h.run_job(job, cfg)) {
            Ok((result, exit_code)) => return replied(result, exit_code, attempt),
            Err(loss) => {
                if let Some(dead) = handle.take() {
                    // A reaped remote leaves the registry's books too,
                    // or `registered` would count ghosts forever.
                    if let (None, Some(registry)) = (&dead.child, remotes) {
                        registry.discard();
                    }
                    dead.kill();
                }
                last = loss;
            }
        }
    }
    let sim = match last {
        Loss::Deadline => SimError::Timeout {
            timeout_ms: cfg.job_timeout.map_or(0, |t| t.as_millis() as u64),
            attempts: attempt,
        },
        loss => SimError::WorkerLost { cause: loss.cause(), attempts: attempt, backoff_ms },
    };
    let p = &job.spec.points[job.index];
    let what = if p.gp_lowered { "baseline" } else { "run" };
    let message = format!("{} {what} on {}: {sim}", p.kernel, p.config.resolve().name());
    let run = RunResult {
        cycles: 1,
        energy_nj: 1.0,
        stats: SystemStats::default(),
        error: Some(message),
    };
    WorkerOutcome {
        result: PointResult::from_run(&run, p.config.is_ooo()),
        sim: Some(sim),
        attempts: attempt,
    }
}

/// The degradation terminus of a remotes-only pool: the dispatcher runs
/// the point itself through the exact worker executor — same
/// [`execute`], same diagnosis messages, same bytes — so a vanished
/// remote fleet costs throughput, never correctness.
fn run_job_in_process(job: &WireJob<'_>, attempts: u32) -> WorkerOutcome {
    let doc = run_wire_job(job.spec, job.index, job.options.clone());
    let (result, exit_code) =
        parse_job_reply(&doc, job.index).expect("in-process replies are well-formed");
    replied(result, exit_code, attempts)
}

/// The outcome of a job reply: a typed failure keeps its class as
/// [`SimError::Remote`].
fn replied(result: PointResult, exit_code: Option<i32>, attempts: u32) -> WorkerOutcome {
    let sim = match (&result.error, exit_code) {
        (Some(message), Some(code)) => {
            Some(SimError::Remote { message: message.clone(), exit_code: code })
        }
        _ => None,
    };
    WorkerOutcome { result, sim, attempts }
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

fn worker_refuse(message: String) -> JsonValue {
    Refusal::new(message).to_json_value()
}

/// Entry point of `xloops worker`: dials `addr` (`--connect` or
/// `XLOOPS_CONNECT` — a daemon's TCP port, or the private socket of the
/// pool that spawned this process), registers (version/token handshake),
/// then serves the worker protocol over the connection, heartbeating only
/// while busy. Returns the exit code on a served-out connection, or
/// `(code, message)` when the dial or the handshake fails (`2` for a typed
/// refusal — wrong version or token — `1` for transport errors).
pub fn worker_connect(addr: &str) -> Result<i32, (i32, String)> {
    let ep = Endpoint::parse_dial(addr);
    let conn =
        Conn::connect(&ep).map_err(|e| (1, format!("cannot connect to {}: {e}", ep.describe())))?;
    conn.set_timeout(Some(ACK_DEADLINE)).map_err(|e| (1, e.to_string()))?;
    let (read, write, control) = conn.split().map_err(|e| (1, e.to_string()))?;
    let (mut reader, mut writer) = (FrameReader::new(read), FrameWriter::new(write));
    writer
        .send(&register_request(token_from_env()))
        .map_err(|e| (1, format!("cannot register with {}: {e}", ep.describe())))?;
    let ack = reader
        .next_reply()
        .map_err(|e| (1, format!("no register ack from {}: {e}", ep.describe())))?;
    if ack.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        let message = ack
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(JsonValue::as_str)
            .unwrap_or("register refused")
            .to_string();
        return Err((2, message));
    }
    // Registered: jobs may arrive hours apart, so the ack deadline comes
    // off and the parent's two clocks own liveness from here.
    control.set_timeout(None).map_err(|e| (1, e.to_string()))?;
    Ok(worker_serve(&mut reader, &Mutex::new(writer)))
}

/// The worker protocol loop: framed requests in, framed replies out, and
/// a scoped heartbeat thread alongside that writes only while a request
/// is being served, so an idle worker stays silent.
fn worker_serve<R: Read, W: Write + Send>(
    reader: &mut FrameReader<R>,
    writer: &Mutex<FrameWriter<W>>,
) -> i32 {
    let stop = AtomicBool::new(false);
    let busy = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            std::thread::sleep(HEARTBEAT_PERIOD);
            if stop.load(Ordering::SeqCst) {
                return;
            }
            if !busy.load(Ordering::SeqCst) {
                continue;
            }
            if writer.lock().unwrap().send(&hb_doc()).is_err() {
                return;
            }
        });
        let code = worker_loop(reader, writer, &busy);
        stop.store(true, Ordering::SeqCst);
        code
    })
}

fn worker_loop<R: Read, W: Write>(
    reader: &mut FrameReader<R>,
    writer: &Mutex<FrameWriter<W>>,
    busy: &AtomicBool,
) -> i32 {
    let mut specs: HashMap<String, ExperimentSpec> = HashMap::new();
    loop {
        let parsed = match reader.next_line() {
            Ok(Some(line)) => Request::parse(line),
            Ok(None) | Err(_) => return 0,
        };
        busy.store(true, Ordering::SeqCst);
        let reply = match parsed {
            Ok(req) => handle_worker_request(&mut specs, req),
            Err(refusal) => Some(refusal.to_json_value()),
        };
        busy.store(false, Ordering::SeqCst);
        let Some(reply) = reply else { return 0 };
        if writer.lock().unwrap().send(&reply).is_err() {
            return 1;
        }
    }
}

/// One worker request → one reply document (`None` = `exit`). The
/// daemon-half commands are refused — they belong on a daemon connection.
fn handle_worker_request(
    specs: &mut HashMap<String, ExperimentSpec>,
    req: Request,
) -> Option<JsonValue> {
    match req {
        Request::Exit => None,
        Request::Manifest { spec } => {
            let fingerprint = spec.fingerprint();
            specs.insert(fingerprint.clone(), *spec);
            Some(JsonValue::object(vec![
                ("ok", JsonValue::Bool(true)),
                ("manifest", JsonValue::Str(fingerprint)),
            ]))
        }
        Request::Job { fingerprint, index, options } => {
            let Some(spec) = specs.get(&fingerprint) else {
                return Some(worker_refuse(format!("unknown manifest {fingerprint}")));
            };
            if index >= spec.points.len() {
                return Some(worker_refuse(format!("point index {index} out of range")));
            }
            chaos_hook(&fingerprint, index);
            Some(run_wire_job(spec, index, *options))
        }
        req => Some(worker_refuse(format!("command `{}` is not a worker request", req.name()))),
    }
}

/// Executes one point through the same [`execute`] the in-process
/// scheduler calls — same normalization, same panic firewall, same
/// diagnosis messages — and renders the reply. A typed [`SimError`]
/// ships its class exit code so the parent can preserve it in error
/// documents.
fn run_wire_job(spec: &ExperimentSpec, index: usize, options: RunOptions) -> JsonValue {
    let p = &spec.points[index];
    let (run, error) = execute(&Simulation::of_point(p, &options), &options);
    let result = PointResult::from_run(&run, p.config.is_ooo());
    let mut fields = vec![
        ("ok", JsonValue::Bool(true)),
        ("index", JsonValue::UInt(index as u64)),
        ("result", result.to_json_value()),
    ];
    if let Some(e) = error {
        fields.push(("exit_code", JsonValue::UInt(e.exit_code() as u64)));
    }
    JsonValue::object(fields)
}

/// Test-only chaos hooks, consulted right before a job executes.
///
/// `XLOOPS_WORKER_CRASH=FP:INDEX[:MARKER]` SIGKILLs this worker when it
/// is about to run that point — with a `MARKER` path, only while the
/// marker file can be freshly created, so exactly the first attempt dies
/// and the retry goes through. `XLOOPS_WORKER_WEDGE=FP:INDEX` hangs the
/// job forever (still heartbeating), which only the per-job deadline can
/// detect — exercising the `Timeout` path.
fn chaos_hook(fingerprint: &str, index: usize) {
    if hook_armed("XLOOPS_WORKER_CRASH", fingerprint, index) {
        kill_self();
    }
    if hook_armed("XLOOPS_WORKER_WEDGE", fingerprint, index) {
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

fn hook_armed(var: &str, fingerprint: &str, index: usize) -> bool {
    let Ok(v) = std::env::var(var) else { return false };
    let mut parts = v.splitn(3, ':');
    let (Some(fp), Some(i)) = (parts.next(), parts.next()) else { return false };
    if fp != fingerprint || i.parse() != Ok(index) {
        return false;
    }
    match parts.next() {
        // The marker arms the hook once: create-new succeeds only the
        // first time, so retries run clean.
        Some(marker) => {
            std::fs::OpenOptions::new().write(true).create_new(true).open(marker).is_ok()
        }
        None => true,
    }
}

/// Dies by SIGKILL — no unwinding, no exit handlers, exactly the
/// `kill -9` shape the supervisor must absorb. Falls back to `abort`
/// (SIGABRT) if no shell is available to deliver the signal.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("sh").args(["-c", &format!("kill -9 {pid}")]).status();
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One line through the worker half, as the serve loop would route it.
    fn handle_worker_line(
        specs: &mut HashMap<String, ExperimentSpec>,
        line: &str,
    ) -> Option<JsonValue> {
        match Request::parse(line.as_bytes()) {
            Ok(req) => handle_worker_request(specs, req),
            Err(refusal) => Some(refusal.to_json_value()),
        }
    }

    /// A handle over `conn` through the one `register` handshake.
    fn registered(conn: Conn) -> WorkerHandle {
        let (read, write, control) = conn.split().expect("split");
        let (reader, writer) = (FrameReader::new(read), FrameWriter::new(write));
        register(reader, writer, control, proto::PROTO_VERSION, None, None).expect("register")
    }

    #[test]
    fn backoff_is_deterministic_grows_and_caps() {
        let base = Duration::from_millis(25);
        let first = backoff_delay(base, "deadbeefdeadbeef", 3, 2);
        assert_eq!(first, backoff_delay(base, "deadbeefdeadbeef", 3, 2));
        let later = backoff_delay(base, "deadbeefdeadbeef", 3, 6);
        assert!(later > first, "{later:?} vs {first:?}");
        assert!(backoff_delay(base, "deadbeefdeadbeef", 3, 40) <= Duration::from_millis(2_000));
        // Distinct jobs jitter apart (seeded by identity, not shared state).
        assert_ne!(
            backoff_delay(base, "deadbeefdeadbeef", 3, 2),
            backoff_delay(base, "deadbeefdeadbeef", 4, 2)
        );
    }

    #[test]
    fn pool_config_defaults_are_deterministic_safe() {
        let cfg = PoolConfig::new(4);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.max_retries, 2);
        assert!(cfg.spawn_children);
        // No deadline by default: determinism-sensitive tests never race
        // a timer.
        assert!(cfg.job_timeout.is_none());
        assert_eq!(PoolConfig::new(0).workers, 1);
        assert!(!PoolConfig::for_remotes(2).spawn_children);
    }

    #[test]
    fn worker_half_refuses_worker_state_errors_and_misrouted_commands() {
        // The byte-level malformed-input contract now lives in the
        // unified codec (see `tests/proto_codec.rs`); this pins the
        // worker-side *state* checks and the misrouted-command refusals.
        let mut specs = HashMap::new();
        let opts = RunOptions::default().to_json_value().render();
        for bad in [
            format!(
                "{{\"cmd\":\"job\",\"job\":\"0000000000000000\",\"index\":0,\"options\":{opts}}}"
            ),
            "{\"cmd\":\"shutdown\"}".to_string(),
            "{\"cmd\":\"status\"}".to_string(),
            // `register` is the handshake; a worker answers no probe.
            "{\"cmd\":\"ping\"}".to_string(),
        ] {
            let reply = handle_worker_line(&mut specs, &bad).expect("refusal, not exit");
            assert_eq!(
                reply.get("ok").and_then(JsonValue::as_bool),
                Some(false),
                "{bad} must be refused: {}",
                reply.render()
            );
            let code = reply
                .get("error")
                .and_then(|e| e.get("exit_code"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            assert_eq!(code, 2.0, "{bad}");
        }
        // Exit still works after the abuse.
        assert!(handle_worker_line(&mut specs, "{\"cmd\":\"exit\"}").is_none());
    }

    #[test]
    fn manifest_then_job_round_trips_a_point_identically() {
        // Register a tiny spec and run one point through the worker-side
        // handler; the result must be byte-identical to the in-process
        // executor's answer for the same point.
        let spec = crate::experiments::spec_by_name("table2")
            .map(|mut s| {
                s.points.truncate(1);
                s.sections.clear();
                s
            })
            .expect("table2 spec exists");
        let fp = spec.fingerprint();
        let mut specs = HashMap::new();
        let ack = handle_worker_line(&mut specs, &manifest_request(&spec).render()).unwrap();
        assert_eq!(ack.get("manifest").and_then(JsonValue::as_str), Some(fp.as_str()));

        let options = RunOptions::default();
        let reply =
            handle_worker_line(&mut specs, &job_request(&fp, 0, &options).render()).unwrap();
        let (result, exit) = parse_job_reply(&reply, 0).expect("valid job reply");
        assert!(exit.is_none(), "healthy point carries no exit code");
        assert!(result.error.is_none());
        let reference = {
            let p = &spec.points[0];
            let (run, _) = execute(&Simulation::of_point(p, &options), &options);
            PointResult::from_run(&run, p.config.is_ooo())
        };
        assert_eq!(
            result.to_json_value().render(),
            reference.to_json_value().render(),
            "wire round-trip must be byte-identical to in-process"
        );
    }

    #[test]
    fn remote_registry_checkout_discards_dead_handles() {
        use std::os::unix::net::UnixStream;
        let registry = RemoteRegistry::new();
        assert_eq!(registry.available(), 0);
        assert!(registry.checkout(Duration::from_millis(10)).is_none());

        // A live socketpair-backed handle checks out and back in.
        let (a, b) = UnixStream::pair().expect("socketpair");
        let conn = Conn::Unix(a);
        registry.register(registered(conn));
        assert_eq!(registry.available(), 1);
        assert_eq!(registry.registered(), 1);
        let handle = registry.checkout(Duration::from_millis(10)).expect("live handle");
        // Checked out: no longer idle, but still a registered worker —
        // this is the count `status` reports mid-sweep.
        assert_eq!(registry.available(), 0);
        assert_eq!(registry.registered(), 1);
        registry.checkin(handle);
        assert_eq!(registry.registered(), 1);

        // Sever the peer: the pump thread drops its sender and the next
        // checkout discards the dead handle instead of returning it.
        drop(b);
        std::thread::sleep(Duration::from_millis(50));
        assert!(registry.checkout(Duration::from_millis(10)).is_none());
        assert_eq!(registry.available(), 0);
        assert_eq!(registry.registered(), 0);
    }

    #[test]
    fn remote_registry_discard_forgets_a_checked_out_handle() {
        use std::os::unix::net::UnixStream;
        let registry = RemoteRegistry::new();
        let (a, _b) = UnixStream::pair().expect("socketpair");
        registry.register(registered(Conn::Unix(a)));
        let handle = registry.checkout(Duration::from_millis(10)).expect("live handle");
        assert_eq!(registry.registered(), 1);
        // The dispatcher reaps the handle mid-job instead of checking
        // it back in; the registry's books must not count a ghost.
        drop(handle);
        registry.discard();
        assert_eq!(registry.registered(), 0);
        // Defensive floor: a stray discard never underflows.
        registry.discard();
        assert_eq!(registry.registered(), 0);
    }

    /// Dials `port` as a peer that opens with `first`, and admits the
    /// connection: the verdict, and the one reply line the peer read.
    fn admit_first_frame(port: &Port, first: &[u8]) -> (Result<WorkerHandle, String>, JsonValue) {
        let mut peer = UnixStream::connect(port.dir.join(PORT_SOCKET)).expect("dial the port");
        peer.write_all(first).expect("first frame");
        let (stream, _) = port.listener.lock().unwrap().accept().expect("pending connection");
        let verdict = admit(stream);
        let reply = FrameReader::new(peer).next_reply().expect("one reply line");
        (verdict, reply)
    }

    #[test]
    fn the_private_port_admits_only_a_register_in_a_private_directory() {
        use std::os::unix::fs::PermissionsExt;
        let port = Port::open().expect("open a port");
        let mode = std::fs::metadata(&port.dir).expect("port directory").permissions().mode();
        assert_eq!(mode & 0o777, 0o700, "only this user may reach the socket");

        let refused = |reply: &JsonValue| {
            reply.get("ok").and_then(JsonValue::as_bool) == Some(false)
                && reply.get("error").and_then(|e| e.get("exit_code")).and_then(JsonValue::as_f64)
                    == Some(2.0)
        };
        // A first frame other than `register` is refused; no handle exists
        // for a dispatcher to check out.
        for first in ["{\"cmd\":\"ping\"}\n", "{\"cmd\":\"hello\",\"v\":1}\n", "garbage\n"] {
            let (verdict, reply) = admit_first_frame(&port, first.as_bytes());
            assert!(verdict.is_err(), "{first} must not be admitted");
            assert!(refused(&reply), "{first}: {}", reply.render());
        }
        // An oversized first frame hits the handshake cap before its
        // newline arrives.
        let (verdict, reply) = admit_first_frame(&port, &[b'x'; proto::HANDSHAKE_MAX_FRAME + 1]);
        let message = verdict.err().expect("oversized frame refused");
        assert!(message.contains("4096 byte cap"), "{message}");
        assert!(refused(&reply), "{}", reply.render());
        // A `register` is admitted and acked.
        let mut line = register_request(None).render();
        line.push('\n');
        let (verdict, reply) = admit_first_frame(&port, line.as_bytes());
        assert!(verdict.is_ok(), "{:?}", verdict.err());
        assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(true));

        let dir = port.dir.clone();
        drop(port);
        assert!(!dir.exists(), "dropping the port removes its directory");
    }
}
