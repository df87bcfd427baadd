//! The four workloads. Each one sets up, runs timed sweeps in a closed
//! loop (one client; the next sweep is issued when the last returns),
//! checks every sweep against the correctness oracle and its route guard
//! outside the timed region, and tears down.
//!
//! A *sweep* is one request for rendered artifacts, timed from issue to
//! artifact text in hand.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xloops_bench::experiments::all_specs;
use xloops_bench::manifest::{render_spec, ExperimentSpec, PointResult, SpecPoint};
use xloops_bench::proto::{request_with, Request};
use xloops_bench::sched::{Scheduler, SweepOutcome};
use xloops_bench::serve::{Daemon, ServeConfig, ServiceState};
use xloops_bench::transport::Endpoint;
use xloops_bench::worker::{PoolConfig, RemoteRegistry, WorkerPool};
use xloops_bench::{ResultStore, StoreStats};
use xloops_sim::RunOptions;
use xloops_stats::{JsonValue, StatValue};

use crate::gen::{is_median_size, Generator, ROUND};
use crate::relay::Relay;
use crate::sys::{self, StderrTap};

/// Worker processes, pool width and client connections never exceed this
/// (the host the benchmark was sized on has two cores).
pub const WIDTH: usize = 2;

/// Deadline on every client round trip, so a hung daemon fails the sweep
/// instead of the run.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// What every workload shares: the seed, the temp root (store
/// directories, the daemon socket), the run options, and the `xloops`
/// executable that worker processes run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub tmp: PathBuf,
    pub opts: RunOptions,
    pub xloops: Option<PathBuf>,
}

impl Ctx {
    fn xloops(&self) -> Result<&Path, String> {
        self.xloops.as_deref().ok_or_else(|| {
            "XLOOPS_WORKER_EXE must name the xloops binary (run the benchmark through run.py)"
                .to_string()
        })
    }
}

/// One sweep's measurement and verdict.
pub struct SweepRec {
    pub secs: f64,
    pub points: u64,
    pub cycles: u64,
    /// Oracle mismatches and tripped guards; empty for a good sweep.
    pub errors: Vec<String>,
    pub layer: LayerRec,
}

/// Per-sweep facts the traced run aggregates into per-layer metrics.
#[derive(Clone, Default)]
pub struct LayerRec {
    /// `Scheduler::run` wall time, when the benchmark calls it.
    pub sched_s: Option<f64>,
    /// `render_spec` wall time, when the benchmark calls it.
    pub render_s: Option<f64>,
    pub store: Option<StoreStats>,
    /// Simulations the route dispatched.
    pub sim_points: u64,
    /// Wire frames, bytes and manifest frames the relay saw.
    pub frames: u64,
    pub bytes: u64,
    pub manifests: u64,
}

/// The inputs and outputs of one traced sweep (the last one, or on the
/// manifest workloads the last of median size), which the layer replays
/// run over.
pub struct Snapshot {
    pub specs: Vec<ExperimentSpec>,
    pub results: Vec<Vec<PointResult>>,
    /// Frames captured on the wire; empty when the route has none.
    pub frames: Vec<Vec<u8>>,
    pub via: Via,
}

/// Where a workload's sweeps execute.
pub enum Via {
    /// `Scheduler::run` in this process, simulating on threads.
    InProcess,
    /// `Scheduler::run` in this process, simulating on a pipe pool.
    Pipe,
    /// A daemon (by endpoint) and its registered remote workers.
    Tcp(Endpoint, Arc<RemoteRegistry>),
}

pub trait Route {
    /// Sweeps per round; a run stops only at a round boundary.
    fn round_len(&self) -> usize {
        1
    }
    /// Builds the oracle's reference outputs (outside setup and timing).
    fn prepare(&mut self) -> Result<(), String>;
    fn sweep(&mut self, k: usize, tap: &mut StderrTap) -> SweepRec;
    fn snapshot(&mut self) -> Snapshot;
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

/// Sets the workload up and returns it with the set-up time. `traced`
/// places the relay in front of the daemon on `sweep_tcp`.
pub fn setup(ctx: &Ctx, traced: bool) -> Result<(Box<dyn Route>, f64), String> {
    sys::flush_disks();
    let t = Instant::now();
    let route: Box<dyn Route> = match ctx.workload.as_str() {
        // The user's main job at its most expensive: all ten artifacts
        // against a fresh, empty store, so simulation (393 points) and
        // store writes (encode, fsync'd atomic rename) do almost all the
        // work and the wire layers do none.
        "regen_cold" => Box::new(Regen::setup(ctx, false)?),
        // The same ten artifacts against a store that setup filled: every
        // request hits and nothing is simulated, so the store's read path
        // and decode dominate; a simulator change must not move it.
        "regen_warm" => Box::new(Regen::setup(ctx, true)?),
        // Seeded manifests submitted with `wait` over loopback TCP to a
        // storeless daemon served by two `xloops worker --connect`
        // processes: the only workload where proto framing, the JSON
        // codec, transport, serve and remote worker dispatch carry real
        // work. The store is idle.
        "sweep_tcp" => Box::new(Tcp::setup(ctx, traced)?),
        // The same manifests through a scheduler with a two-process pipe
        // pool (the XLOOPS_WORKERS=2 route, no daemon): child spawn, paid
        // on every sweep, and the pipe transport on their own.
        "sweep_pipe" => Box::new(Pipe::setup(ctx)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok((route, t.elapsed().as_secs_f64()))
}

fn cycles_of(r: &PointResult) -> u64 {
    r.stats.lookup("cycles").and_then(StatValue::as_counter).unwrap_or(0)
}

fn whole(spec: &ExperimentSpec) -> Vec<usize> {
    (0..spec.points.len()).collect()
}

/// Splits a sweep outcome into per-spec results, noting failed points.
fn results_of(out: SweepOutcome, errors: &mut Vec<String>) -> Vec<Vec<PointResult>> {
    out.outcomes
        .into_iter()
        .map(|spec| {
            spec.into_iter()
                .map(|o| {
                    if !o.state.is_done() {
                        errors.push(format!("point {} ended {}", o.job.index, o.state.label()));
                    }
                    o.result
                })
                .collect()
        })
        .collect()
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// regen_cold / regen_warm
// ---------------------------------------------------------------------------

struct Regen {
    tmp: PathBuf,
    opts: RunOptions,
    warm: bool,
    specs: Vec<ExperimentSpec>,
    warm_dir: PathBuf,
    expected: Vec<String>,
    ref_cycles: u64,
    ref_unique: usize,
    last_dir: Option<PathBuf>,
    last_results: Vec<Vec<PointResult>>,
}

impl Regen {
    fn setup(ctx: &Ctx, warm: bool) -> Result<Regen, String> {
        // `all_specs` walks the Table II kernels, so the lazy kernel
        // registry is built here, inside setup.
        let specs = all_specs();
        let warm_dir = ctx.tmp.join("warm-store");
        if warm {
            let store = ResultStore::open(&warm_dir).map_err(|e| format!("warm store: {e}"))?;
            let work: Vec<_> = specs.iter().map(|s| (s, whole(s))).collect();
            let out = Scheduler::new(ctx.opts.clone(), Some(&store)).with_pool(None).run(&work);
            let mut errors = Vec::new();
            results_of(out, &mut errors);
            if let Some(e) = errors.first() {
                return Err(format!("filling the warm store: {e}"));
            }
        }
        Ok(Regen {
            tmp: ctx.tmp.clone(),
            opts: ctx.opts.clone(),
            warm,
            specs,
            warm_dir,
            expected: Vec::new(),
            ref_cycles: 0,
            ref_unique: 0,
            last_dir: None,
            last_results: Vec::new(),
        })
    }
}

impl Route for Regen {
    fn prepare(&mut self) -> Result<(), String> {
        for s in &self.specs {
            let path = Path::new("results").join(format!("{}.txt", s.name));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reference artifact {}: {e}", path.display()))?;
            self.expected.push(text);
        }
        // An independent storeless in-process pass fixes the cycle total
        // and the unique-point count every sweep must reproduce.
        let work: Vec<_> = self.specs.iter().map(|s| (s, whole(s))).collect();
        let out = Scheduler::new(self.opts.clone(), None).with_pool(None).run(&work);
        self.ref_unique = out.prefill.unique_points;
        let mut errors = Vec::new();
        let results = results_of(out, &mut errors);
        self.ref_cycles = results.iter().flatten().map(cycles_of).sum();
        for ((s, r), want) in self.specs.iter().zip(&results).zip(&self.expected) {
            if render_spec(s, r) != *want {
                errors.push(format!("in-process {} differs from results/{}.txt", s.name, s.name));
            }
        }
        errors.first().map_or(Ok(()), |e| Err(format!("reference pass: {e}")))
    }

    fn sweep(&mut self, k: usize, _tap: &mut StderrTap) -> SweepRec {
        let dir =
            if self.warm { self.warm_dir.clone() } else { self.tmp.join(format!("cold-{k}")) };
        let work: Vec<_> = self.specs.iter().map(|s| (s, whole(s))).collect();
        let requests: usize = work.iter().map(|(_, i)| i.len()).sum();
        let mut errors = Vec::new();

        let t = Instant::now();
        let store = match ResultStore::open(&dir) {
            Ok(s) => s,
            Err(e) => return failed_sweep(format!("cannot open store {}: {e}", dir.display())),
        };
        let t_sched = Instant::now();
        let out = Scheduler::new(self.opts.clone(), Some(&store)).with_pool(None).run(&work);
        let sched_s = secs_since(t_sched);
        let simulated = out.prefill.unique_points;
        let results = results_of(out, &mut errors);
        let t_render = Instant::now();
        let texts: Vec<String> =
            self.specs.iter().zip(&results).map(|(s, r)| render_spec(s, r)).collect();
        let render_s = secs_since(t_render);
        let secs = secs_since(t);

        for ((s, text), want) in self.specs.iter().zip(&texts).zip(&self.expected) {
            if text != want {
                errors.push(format!("artifact {} differs from results/{}.txt", s.name, s.name));
            }
        }
        let cycles: u64 = results.iter().flatten().map(cycles_of).sum();
        if cycles != self.ref_cycles {
            errors.push(format!("simulated cycles {cycles} != reference {}", self.ref_cycles));
        }
        let st = store.stats();
        if self.warm && (st.hits != requests as u64 || st.misses != 0 || simulated != 0) {
            errors.push(format!(
                "route guard: warm sweep had {} hits, {} misses, {simulated} simulations \
                 for {requests} requests",
                st.hits, st.misses
            ));
        }
        if !self.warm && (st.hits != 0 || simulated != self.ref_unique) {
            errors.push(format!(
                "route guard: cold sweep had {} hits and {simulated} simulations (want 0 and {})",
                st.hits, self.ref_unique
            ));
        }
        // The last cold store stays until the next sweep, for the replays.
        if !self.warm {
            if let Some(prev) = self.last_dir.replace(dir) {
                let _ = std::fs::remove_dir_all(prev);
            }
        }
        self.last_results = results;
        SweepRec {
            secs,
            points: requests as u64,
            cycles,
            errors,
            layer: LayerRec {
                sched_s: Some(sched_s),
                render_s: Some(render_s),
                store: Some(st),
                sim_points: simulated as u64,
                ..LayerRec::default()
            },
        }
    }

    fn snapshot(&mut self) -> Snapshot {
        Snapshot {
            specs: self.specs.clone(),
            results: std::mem::take(&mut self.last_results),
            frames: Vec::new(),
            via: Via::InProcess,
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        if let Some(dir) = &self.last_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_dir_all(&self.warm_dir);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared by the manifest workloads
// ---------------------------------------------------------------------------

/// Reference results for every point a generated manifest can hold,
/// simulated once in-process (storeless, no pool) before timing starts.
fn reference_universe(
    gen: &Generator,
    opts: &RunOptions,
) -> Result<HashMap<SpecPoint, PointResult>, String> {
    let universe = gen.universe();
    let out =
        Scheduler::new(opts.clone(), None).with_pool(None).run(&[(&universe, whole(&universe))]);
    let mut errors = Vec::new();
    let results = results_of(out, &mut errors);
    if let Some(e) = errors.first() {
        return Err(format!("reference pass: {e}"));
    }
    Ok(universe.points.into_iter().zip(results.into_iter().flatten()).collect())
}

/// The in-process reference render of `spec` and its cycle total.
fn reference_render(
    universe: &HashMap<SpecPoint, PointResult>,
    spec: &ExperimentSpec,
) -> (String, u64, Vec<PointResult>) {
    let results: Vec<PointResult> = spec.points.iter().map(|p| universe[p].clone()).collect();
    let cycles = results.iter().map(cycles_of).sum();
    (render_spec(spec, &results), cycles, results)
}

// ---------------------------------------------------------------------------
// sweep_pipe
// ---------------------------------------------------------------------------

struct Pipe {
    opts: RunOptions,
    gen: Generator,
    universe: HashMap<SpecPoint, PointResult>,
    last: Option<(ExperimentSpec, Vec<PointResult>)>,
}

impl Pipe {
    fn setup(ctx: &Ctx) -> Result<Pipe, String> {
        ctx.xloops()?;
        let gen = Generator::new(ctx.seed);
        // The first pool spawn: a probe child and its handshake.
        let pool = WorkerPool::spawn(PoolConfig::new(WIDTH))
            .map_err(|e| format!("worker pool does not spawn: {e}"))?;
        drop(pool);
        Ok(Pipe { opts: ctx.opts.clone(), gen, universe: HashMap::new(), last: None })
    }
}

impl Route for Pipe {
    fn round_len(&self) -> usize {
        ROUND
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.universe = reference_universe(&self.gen, &self.opts)?;
        Ok(())
    }

    fn sweep(&mut self, k: usize, tap: &mut StderrTap) -> SweepRec {
        let spec = match self.gen.manifest(k) {
            Ok(spec) => spec,
            Err(e) => return failed_sweep(e),
        };
        let mut errors = Vec::new();
        let fallbacks = tap.fallbacks();
        let child_cpu = sys::reaped_children_cpu();

        let t = Instant::now();
        let out = Scheduler::new(self.opts.clone(), None)
            .with_pool(Some(PoolConfig::new(WIDTH)))
            .run(&[(&spec, whole(&spec))]);
        let sched_s = secs_since(t);
        let simulated = out.prefill.unique_points;
        let results = results_of(out, &mut errors).remove(0);
        let t_render = Instant::now();
        let text = render_spec(&spec, &results);
        let render_s = secs_since(t_render);
        let secs = secs_since(t);

        let (want, ref_cycles, _) = reference_render(&self.universe, &spec);
        if text != want {
            errors.push(format!("artifact of {} differs from the in-process render", spec.name));
        }
        let cycles: u64 = results.iter().map(cycles_of).sum();
        if cycles != ref_cycles {
            errors.push(format!("simulated cycles {cycles} != reference {ref_cycles}"));
        }
        // The degraded route reports the same PrefillInfo as the pooled
        // one, so the guard reads two other signals: the library's
        // fallback warning, and CPU time of reaped worker children.
        if tap.fallbacks() != fallbacks {
            errors.push("route guard: the scheduler fell back to in-process execution".into());
        }
        if sys::reaped_children_cpu() == child_cpu {
            errors.push("route guard: no worker child used any CPU".into());
        }
        let points = spec.points.len() as u64;
        if is_median_size(&spec) {
            self.last = Some((spec, results));
        }
        SweepRec {
            secs,
            points,
            cycles,
            errors,
            layer: LayerRec {
                sched_s: Some(sched_s),
                render_s: Some(render_s),
                sim_points: simulated as u64,
                ..LayerRec::default()
            },
        }
    }

    fn snapshot(&mut self) -> Snapshot {
        let (spec, results) = self.last.take().expect("a traced sweep ran");
        Snapshot { specs: vec![spec], results: vec![results], frames: Vec::new(), via: Via::Pipe }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// A sweep that failed before it could be timed.
fn failed_sweep(e: String) -> SweepRec {
    SweepRec { secs: 0.0, points: 0, cycles: 0, errors: vec![e], layer: LayerRec::default() }
}

// ---------------------------------------------------------------------------
// sweep_tcp
// ---------------------------------------------------------------------------

/// A storeless daemon hosted on a thread of this process, listening on an
/// ephemeral loopback TCP port (plus the Unix socket every daemon binds).
pub struct HostedDaemon {
    tcp: SocketAddr,
    state: Arc<ServiceState>,
    thread: JoinHandle<std::io::Result<usize>>,
}

impl HostedDaemon {
    pub fn start(sock: PathBuf, opts: &RunOptions) -> Result<HostedDaemon, String> {
        let cfg = ServeConfig {
            sock,
            listen: Some(Endpoint::parse("tcp://127.0.0.1:0")),
            store_dir: None,
            options: opts.clone(),
            token: None,
        };
        let daemon = Daemon::bind(cfg).map_err(|e| format!("daemon bind: {e}"))?;
        let tcp = daemon.tcp_addr().ok_or("daemon has no TCP listener")?;
        let state = Arc::clone(daemon.state());
        let thread = std::thread::spawn(move || daemon.run());
        Ok(HostedDaemon { tcp, state, thread })
    }

    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Tcp(self.tcp.to_string())
    }

    pub fn remotes(&self) -> Arc<RemoteRegistry> {
        Arc::clone(self.state.remotes())
    }

    /// Sends `shutdown` and joins the accept loops.
    pub fn stop(self) -> Result<(), String> {
        let reply = request_with(
            &self.endpoint(),
            &Request::Shutdown.to_json_value(),
            Some(CLIENT_TIMEOUT),
        )
        .map_err(|e| format!("daemon shutdown: {e}"))?;
        drop(self.state);
        match self.thread.join() {
            Ok(Ok(_)) if ok(&reply) => Ok(()),
            Ok(Ok(_)) => Err(format!("daemon refused shutdown: {}", reply.render())),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

fn ok(reply: &JsonValue) -> bool {
    reply.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// Workers registered on the daemon, by bare `status`.
fn status_workers(ep: &Endpoint) -> Result<u64, String> {
    let reply =
        request_with(ep, &Request::Status { job: None }.to_json_value(), Some(CLIENT_TIMEOUT))
            .map_err(|e| format!("status: {e}"))?;
    reply
        .get("workers")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("status: {}", reply.render()))
}

struct Tcp {
    opts: RunOptions,
    gen: Generator,
    universe: HashMap<SpecPoint, PointResult>,
    daemon: HostedDaemon,
    workers: Vec<Child>,
    relay: Option<Relay>,
    last: Option<(ExperimentSpec, Vec<PointResult>, Vec<Vec<u8>>)>,
}

impl Tcp {
    fn setup(ctx: &Ctx, traced: bool) -> Result<Tcp, String> {
        let exe = ctx.xloops()?.to_path_buf();
        let gen = Generator::new(ctx.seed);
        let daemon = HostedDaemon::start(ctx.tmp.join("daemon.sock"), &ctx.opts)?;
        let mut route = Tcp {
            opts: ctx.opts.clone(),
            gen,
            universe: HashMap::new(),
            daemon,
            workers: Vec::new(),
            relay: None,
            last: None,
        };
        // From here on a failure must still stop the daemon and workers.
        match route.connect_workers(&exe, traced) {
            Ok(()) => Ok(route),
            Err(e) => {
                let _ = Box::new(route).teardown();
                Err(e)
            }
        }
    }

    fn connect_workers(&mut self, exe: &Path, traced: bool) -> Result<(), String> {
        let mut dial = self.daemon.tcp;
        if traced {
            let relay = Relay::start(dial).map_err(|e| format!("relay: {e}"))?;
            dial = relay.addr();
            self.relay = Some(relay);
        }
        for _ in 0..WIDTH {
            let child = Command::new(exe)
                .args(["worker", "--connect", &dial.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
            self.workers.push(child);
        }
        let remotes = self.daemon.remotes();
        let deadline = Instant::now() + Duration::from_secs(30);
        while remotes.registered() < WIDTH {
            if Instant::now() > deadline {
                return Err(format!("only {} of {WIDTH} workers registered", remotes.registered()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    fn client(&self) -> Endpoint {
        match &self.relay {
            Some(r) => Endpoint::Tcp(r.addr().to_string()),
            None => self.daemon.endpoint(),
        }
    }

    fn workers_cpu(&self) -> u64 {
        self.workers.iter().map(|c| sys::process_cpu(c.id())).sum()
    }
}

impl Route for Tcp {
    fn round_len(&self) -> usize {
        ROUND
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.universe = reference_universe(&self.gen, &self.opts)?;
        let n = status_workers(&self.daemon.endpoint())?;
        if n != WIDTH as u64 {
            return Err(format!("route guard: status reports {n} workers before the first sweep"));
        }
        Ok(())
    }

    fn sweep(&mut self, k: usize, tap: &mut StderrTap) -> SweepRec {
        let spec = match self.gen.manifest(k) {
            Ok(spec) => spec,
            Err(e) => return failed_sweep(e),
        };
        let mut errors = Vec::new();
        let fallbacks = tap.fallbacks();
        let cpu = self.workers_cpu();
        if let Some(r) = &self.relay {
            r.take();
        }
        let request = Request::Submit { spec: Box::new(spec.clone()), wait: true };
        let client = self.client();

        let t = Instant::now();
        let reply = request_with(&client, &request.to_json_value(), Some(CLIENT_TIMEOUT));
        let artifact = reply
            .as_ref()
            .ok()
            .and_then(|r| r.get("artifact"))
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let secs = secs_since(t);

        let (want, cycles, results) = reference_render(&self.universe, &spec);
        match &reply {
            Err(e) => errors.push(format!("submit failed: {e}")),
            Ok(r) if !ok(r) => errors.push(format!("submit refused: {}", r.render())),
            Ok(r) => {
                let failed = r.get("failed").and_then(JsonValue::as_u64);
                if failed != Some(0) {
                    errors.push(format!(
                        "{failed:?} points failed: {}",
                        r.get("errors").map_or(String::new(), JsonValue::render)
                    ));
                }
                if artifact.as_deref() != Some(want.as_str()) {
                    errors.push(format!(
                        "artifact of {} differs from the in-process render",
                        spec.name
                    ));
                }
            }
        }
        // Route guard: the fleet is intact before and after every sweep,
        // the workers did the simulating, and no dispatcher ran a point
        // in-process.
        match status_workers(&self.daemon.endpoint()) {
            Ok(n) if n == WIDTH as u64 => {}
            Ok(n) => {
                errors.push(format!("route guard: status reports {n} workers after the sweep"))
            }
            Err(e) => errors.push(e),
        }
        if tap.fallbacks() != fallbacks {
            errors.push("route guard: a dispatcher ran points in-process".into());
        }
        if self.workers_cpu() == cpu {
            errors.push("route guard: no remote worker used any CPU".into());
        }
        let mut layer = LayerRec::default();
        if let Some(r) = &self.relay {
            let traffic = r.take();
            let starts =
                |p: &[u8]| traffic.lines.iter().filter(|l| l.starts_with(p)).count() as u64;
            layer.frames = traffic.lines.len() as u64;
            layer.bytes = traffic.bytes;
            layer.manifests = starts(b"{\"cmd\":\"manifest\"");
            layer.sim_points = starts(b"{\"cmd\":\"job\"");
            if is_median_size(&spec) {
                self.last = Some((spec.clone(), results, traffic.lines));
            }
        }
        SweepRec { secs, points: spec.points.len() as u64, cycles, errors, layer }
    }

    fn snapshot(&mut self) -> Snapshot {
        let (spec, results, frames) = self.last.take().expect("a traced sweep ran");
        Snapshot {
            specs: vec![spec],
            results: vec![results],
            frames,
            via: Via::Tcp(self.daemon.endpoint(), self.daemon.remotes()),
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        let Tcp { daemon, mut workers, relay, .. } = *self;
        let stopped = daemon.stop();
        for w in &mut workers {
            let _ = w.kill();
            let _ = w.wait();
        }
        if let Some(r) = relay {
            r.stop();
        }
        stopped
    }
}
