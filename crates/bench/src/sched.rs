//! The scheduler layer: one orchestration code path for every entry
//! point.
//!
//! Before this module, execution sequencing was smeared across three
//! layers that each re-implemented it: `Runner::prefill` owned its own
//! scoped-thread pool, the store drivers owned probe/miss/save
//! sequencing, and the CLI owned shard plumbing. Now there is exactly
//! one of each:
//!
//! - [`run_jobs`] — the work-stealing worker pool. Every parallel fill in
//!   the workspace (including [`crate::Runner::prefill`]) funnels through
//!   it. Each worker owns a deque seeded round-robin; it pops its own
//!   front and steals from the back of others when dry, so an unlucky
//!   worker stuck behind one slow simulation point cannot strand the
//!   rest of the list. Results land in per-item slots, so the output
//!   order is the input order regardless of which worker ran what — the
//!   serial/parallel byte-identity CI pins survives unchanged.
//! - [`Scheduler`] — the store-aware orchestrator. It derives the
//!   [`Job`] list from manifests, consults the [`ResultStore`] before
//!   dispatch (a hit is `Done` without a worker ever seeing it), routes
//!   the misses through the memoizing [`Runner`]'s two-pass protocol
//!   (which reuses the supervisor/quarantine machinery per point), and
//!   writes fresh results back through the store.
//!
//! The scheduler reports a deterministic, ordered [`ProgressEvent`]
//! stream. Determinism is by construction, not by luck: events are
//! emitted in job-admission order from the assembled outcomes, never
//! from worker threads racing to a log — two runs of the same work list
//! produce the same stream even though the pool interleaves differently.
//! Under [`RunOptions::profile`] the same per-job facts are grafted onto
//! each point's stat tree as `profile.sched.*` counters (the
//! non-deterministic-tolerant stat family, never golden artifacts).
//!
//! [`run_shard_stored`] and [`run_specs_stored`] — the drivers behind
//! `xloops sweep`, `--bin all`, and `bench-summary` — are thin adapters
//! over [`Scheduler::run`], as is the serve daemon
//! ([`crate::serve`]). Crash-safe resume falls out of the layering: a
//! restarted daemon re-derives a resubmitted manifest's jobs, finds the
//! finished ones in the store, and only dispatches the rest.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xloops_kernels::by_name;
use xloops_sim::{ExecMode, RunOptions, SystemConfig};
use xloops_stats::{JsonValue, StatSet};

use crate::job::{Job, JobState};
use crate::manifest::{
    request_point, shard_points, ExperimentSpec, PointResult, ShardDoc, SpecPoint,
};
use crate::runner::{PrefillInfo, RunFailure, RunKey, Runner};
use crate::store::{attach_store_counters, Loaded, ResultStore};
use crate::worker::{PoolConfig, RemoteRegistry, WireJob, WorkerPool};

/// Runs every item through `run` on a work-stealing pool of `workers`
/// threads, returning the results in item order. `run` receives the item
/// index and the item. With one worker (or one item) the pool degenerates
/// to a plain in-order loop on the calling thread.
pub fn run_jobs<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    run: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    // Deal indices round-robin, one deque per worker.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|w| Mutex::new((w..items.len()).step_by(workers).collect())).collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queues, slots, run) = (&queues, &slots, &run);
            scope.spawn(move || loop {
                // Own front first; steal from the back of the others when
                // dry. An item leaves a queue only into the worker that
                // runs it, so a full empty scan means every item is
                // claimed and this worker can retire.
                let claimed = queues[w].lock().unwrap().pop_front().or_else(|| {
                    (1..workers).find_map(|d| queues[(w + d) % workers].lock().unwrap().pop_back())
                });
                let Some(i) = claimed else { break };
                *slots[i].lock().unwrap() = Some(run(i, &items[i]));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("pool ran every item")).collect()
}

/// One entry of the scheduler's deterministic progress stream. `job` is
/// the admission-order index across the whole sweep (all specs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressEvent {
    /// The job was admitted to the sweep.
    Queued {
        /// Admission-order job index.
        job: usize,
    },
    /// The job was served from the durable store without dispatching.
    Hit {
        /// Admission-order job index.
        job: usize,
    },
    /// The job was dispatched to the worker pool.
    Started {
        /// Admission-order job index.
        job: usize,
    },
    /// The dispatched job reached a terminal state.
    Finished {
        /// Admission-order job index.
        job: usize,
        /// Whether the terminal state is `Done` (vs failed/quarantined).
        ok: bool,
    },
}

/// Live, lock-free sweep progress: the mutable counterpart of the
/// deterministic [`ProgressEvent`] stream, for *observers* (the serve
/// daemon's `status` responses) rather than for artifacts. The scheduler
/// ticks it as jobs are admitted, resolved from the store, dispatched,
/// and finished; under the worker pool the ticks are live per job, while
/// the in-process path is coarser (misses all start together) and is
/// trued up by [`SweepProgress::finalize`] when the sweep assembles.
/// Readers may see momentarily stale counts — never a torn document.
#[derive(Debug, Default)]
pub struct SweepProgress {
    total: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    hits: AtomicU64,
}

impl SweepProgress {
    /// A zeroed tracker.
    pub fn new() -> SweepProgress {
        SweepProgress::default()
    }

    /// Admits `n` jobs to the sweep.
    pub fn admit(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Resolves `n` jobs from the durable store (hits count as done).
    pub fn hit(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks `n` jobs dispatched.
    pub fn start(&self, n: u64) {
        self.running.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks `n` dispatched jobs terminal.
    pub fn finish(&self, n: u64, ok: bool) {
        self.running.fetch_sub(n, Ordering::Relaxed);
        if ok {
            self.done.fetch_add(n, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Settles the exact terminal counts once the sweep has assembled
    /// (the in-process path only ticks coarsely while running).
    pub fn finalize(&self, done: u64, failed: u64) {
        self.done.store(done, Ordering::Relaxed);
        self.failed.store(failed, Ordering::Relaxed);
        self.running.store(0, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot: `(total, queued, running, done,
    /// failed, hits)`, with `queued` derived so the five always sum.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        let total = self.total.load(Ordering::Relaxed);
        let running = self.running.load(Ordering::Relaxed);
        let done = self.done.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let queued = total.saturating_sub(running + done + failed);
        (total, queued, running, done, failed, hits)
    }

    /// The snapshot as the JSON document `status` responses embed.
    pub fn to_json_value(&self) -> JsonValue {
        let (total, queued, running, done, failed, hits) = self.snapshot();
        JsonValue::object(vec![
            ("total", JsonValue::UInt(total)),
            ("queued", JsonValue::UInt(queued)),
            ("running", JsonValue::UInt(running)),
            ("done", JsonValue::UInt(done)),
            ("failed", JsonValue::UInt(failed)),
            ("hits", JsonValue::UInt(hits)),
        ])
    }
}

/// The terminal record of one job: its identity, the lifecycle state it
/// ended in, and the full [`PointResult`] (placeholder stats with the
/// diagnosis attached when the state is a failure — exactly what shard
/// documents and artifacts have always recorded for sick points).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's identity.
    pub job: Job,
    /// The terminal [`JobState`].
    pub state: JobState,
    /// The point result (always present; the artifact renderer needs a
    /// row for failed points too).
    pub result: PointResult,
    /// Whether the result came from the durable store.
    pub hit: bool,
}

impl JobOutcome {
    /// The canonical error document for a failed outcome, preferring the
    /// full quarantine diagnosis (which names the kernel and config) over
    /// the bare error text, with the exit code of the typed class when
    /// one is known. `None` for successful outcomes.
    pub fn to_error_doc(&self) -> Option<xloops_stats::JsonValue> {
        match (&self.state, &self.result.error) {
            (JobState::Failed(e), Some(message)) => {
                Some(xloops_sim::error_doc(message, e.exit_code()))
            }
            (_, _) => self.state.to_error_doc(),
        }
    }
}

/// Everything a sweep produced: per-spec outcomes (spec order, then owned
/// point order), the deterministic event stream, the quarantine list, and
/// the pool summary.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per input spec, one [`JobOutcome`] per owned point.
    pub outcomes: Vec<Vec<JobOutcome>>,
    /// The ordered progress stream (see [`ProgressEvent`]).
    pub events: Vec<ProgressEvent>,
    /// Quarantined simulation points across all specs.
    pub failures: Vec<RunFailure>,
    /// Worker-pool summary (unique *simulated* points; hits never enter
    /// it).
    pub prefill: PrefillInfo,
}

/// One spec's store probe: the owned point indices and, per index, its
/// store key (computed once per sweep), the loaded entry (hit) or `None`
/// (miss, to be simulated), and whether the miss was a damaged entry
/// rather than an absent one.
struct Probe {
    fingerprint: String,
    indices: Vec<usize>,
    keys: Vec<String>,
    loaded: Vec<Option<(PointResult, u64)>>,
    corrupt: Vec<bool>,
}

/// The store-aware orchestrator. Construct one per sweep with the options
/// every job runs under and an optional durable store; [`Scheduler::run`]
/// executes any number of `(spec, owned point indices)` work items
/// against one shared memoizing runner, so identical points are
/// deduplicated *across* specs exactly like `--bin all`'s shared cache.
pub struct Scheduler<'a> {
    options: RunOptions,
    store: Option<&'a ResultStore>,
    pool: Option<PoolConfig>,
    progress: Option<Arc<SweepProgress>>,
    remotes: Option<Arc<RemoteRegistry>>,
}

impl<'a> Scheduler<'a> {
    /// A scheduler over `options`, consulting `store` before dispatch
    /// (and writing fresh results through it) when present. The worker
    /// pool comes from the environment ([`PoolConfig::from_env`], i.e.
    /// `XLOOPS_WORKERS` and friends); [`Scheduler::with_pool`] overrides.
    pub fn new(options: RunOptions, store: Option<&'a ResultStore>) -> Scheduler<'a> {
        Scheduler { options, store, pool: PoolConfig::from_env(), progress: None, remotes: None }
    }

    /// Overrides the worker-pool policy (`None` forces in-process
    /// execution regardless of the environment).
    pub fn with_pool(mut self, pool: Option<PoolConfig>) -> Scheduler<'a> {
        self.pool = pool;
        self
    }

    /// Attaches the daemon's registered remote executors. With remotes
    /// present they join (or, with no local pool configured, *become*)
    /// the worker pool — a remotes-only pool forbids spawning children,
    /// so a daemon without `XLOOPS_WORKERS` still dispatches to its
    /// registered workers and degrades to in-process when none remain.
    pub fn with_remotes(mut self, remotes: Option<Arc<RemoteRegistry>>) -> Scheduler<'a> {
        self.remotes = remotes;
        self
    }

    /// Attaches a live progress tracker for observers to poll.
    pub fn with_progress(mut self, progress: Arc<SweepProgress>) -> Scheduler<'a> {
        self.progress = Some(progress);
        self
    }

    /// Runs every owned point of every work item: store hits resolve
    /// immediately, the rest deduplicate and execute — on the supervised
    /// multi-process [`WorkerPool`] when one is configured (and can
    /// spawn), else through the two-pass runner protocol fanned out over
    /// the in-process [`run_jobs`] — fresh non-errored results are
    /// appended to the store and committed with one fsync before this
    /// returns, and the outcomes come back in work order with the
    /// deterministic event stream alongside. Both execution routes fill
    /// the same item-ordered miss slots, so the assembled artifact bytes
    /// cannot depend on the route.
    pub fn run(&self, work: &[(&ExperimentSpec, Vec<usize>)]) -> SweepOutcome {
        let probes: Vec<Probe> =
            work.iter().map(|(spec, indices)| self.probe(spec, indices.clone())).collect();
        if let Some(progress) = &self.progress {
            for p in &probes {
                progress.admit(p.indices.len() as u64);
                progress.hit(p.loaded.iter().flatten().count() as u64);
            }
        }

        let (fresh, failures, prefill) = self.simulate(work, &probes);

        // Map a quarantine diagnosis back to its typed class, when the
        // failure carried one (see `RunFailure::sim`).
        let typed: HashMap<&str, &xloops_sim::SimError> = failures
            .iter()
            .filter_map(|f| f.sim.as_ref().map(|e| (f.message.as_str(), e)))
            .collect();

        let mut events = Vec::new();
        let mut job = 0;
        let outcomes: Vec<Vec<JobOutcome>> = probes
            .into_iter()
            .zip(fresh)
            .map(|(p, fresh)| self.assemble(p, fresh, &typed, &mut events, &mut job))
            .collect();
        // One fsync makes the whole sweep durable before anyone hears of it.
        if let Some(store) = self.store {
            if let Err(e) = store.commit() {
                store.warn(format_args!("cannot commit this sweep's entries: {e}"));
            }
        }
        if let Some(progress) = &self.progress {
            let done = outcomes.iter().flatten().filter(|o| o.state.is_done()).count() as u64;
            let failed = outcomes.iter().flatten().filter(|o| !o.state.is_done()).count() as u64;
            progress.finalize(done, failed);
        }
        SweepOutcome { outcomes, events, failures, prefill }
    }

    /// Simulates every missed point, per probe in index order: the
    /// worker-pool route when configured and spawnable (degrading to
    /// in-process with a warning otherwise), else the in-process
    /// two-pass protocol.
    fn simulate(
        &self,
        work: &[(&ExperimentSpec, Vec<usize>)],
        probes: &[Probe],
    ) -> (Vec<Vec<PointResult>>, Vec<RunFailure>, PrefillInfo) {
        let registered = self.remotes.as_ref().map_or(0, |r| r.available());
        let cfg = match (&self.pool, registered) {
            (Some(cfg), _) => Some(cfg.clone()),
            // No local pool configured, but remote executors are
            // registered: run a remotes-only pool sized to them.
            (None, n) if n > 0 => Some(PoolConfig::for_remotes(n)),
            (None, 0..) => None,
        };
        if let Some(cfg) = cfg {
            match WorkerPool::spawn_with(cfg, self.remotes.clone()) {
                Ok(pool) => return self.simulate_pooled(&pool, work, probes),
                Err(e) => {
                    eprintln!("xloops: worker pool unavailable ({e}); running in-process");
                }
            }
        }
        // Two-pass protocol over the union of misses: collect the
        // deduplicated job list, fill the cache once, render live.
        let misses: u64 =
            probes.iter().map(|p| p.loaded.iter().filter(|s| s.is_none()).count() as u64).sum();
        if let Some(progress) = &self.progress {
            // Coarse in-process accounting: every miss is in flight for
            // the duration of the prefill; `finalize` trues it up.
            progress.start(misses);
        }
        let runner = Runner::collecting_with(self.options.clone());
        let simulate = |r: &Runner| -> Vec<Vec<PointResult>> {
            work.iter().zip(probes).map(|((spec, _), p)| request_misses(r, spec, p)).collect()
        };
        let _ = simulate(&runner);
        let prefill = runner.prefill();
        let fresh = simulate(&runner);
        (fresh, runner.failures(), prefill)
    }

    /// The pooled route: deduplicate the misses by store key (the same
    /// `(fingerprint, index, options)` identity the durable store uses),
    /// ship each unique job to the supervised pool once, and fan the
    /// outcomes back out to every probe slot that aliased them. The
    /// slots are filled in exactly the order [`request_misses`] would
    /// produce, so [`Scheduler::assemble`] — and therefore the artifact
    /// bytes — cannot tell the routes apart.
    fn simulate_pooled(
        &self,
        pool: &WorkerPool,
        work: &[(&ExperimentSpec, Vec<usize>)],
        probes: &[Probe],
    ) -> (Vec<Vec<PointResult>>, Vec<RunFailure>, PrefillInfo) {
        let mut unique: HashMap<&str, usize> = HashMap::new();
        let mut jobs: Vec<WireJob<'_>> = Vec::new();
        // Per probe, the unique-job slot of each miss, in index order.
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(probes.len());
        for ((spec, _), probe) in work.iter().zip(probes) {
            let mut mine = Vec::new();
            for ((&i, key), slot) in probe.indices.iter().zip(&probe.keys).zip(&probe.loaded) {
                if slot.is_some() {
                    continue;
                }
                let at = *unique.entry(key.as_str()).or_insert_with(|| {
                    jobs.push(WireJob {
                        spec,
                        fingerprint: probe.fingerprint.clone(),
                        index: i,
                        options: &self.options,
                        fanout: 0,
                    });
                    jobs.len() - 1
                });
                jobs[at].fanout += 1;
                mine.push(at);
            }
            slots.push(mine);
        }

        let outcomes = pool.run(&jobs, self.progress.as_deref());

        let failures = jobs
            .iter()
            .zip(&outcomes)
            .filter_map(|(job, outcome)| {
                outcome.result.error.as_ref().map(|message| RunFailure {
                    key: run_key_for(&job.spec.points[job.index], &self.options),
                    message: message.clone(),
                    sim: outcome.sim.clone(),
                })
            })
            .collect();
        let fresh = slots
            .into_iter()
            .map(|mine| mine.into_iter().map(|at| outcomes[at].result.clone()).collect())
            .collect();
        let prefill =
            PrefillInfo { unique_points: jobs.len(), workers: pool.workers(), serial: false };
        (fresh, failures, prefill)
    }

    fn probe(&self, spec: &ExperimentSpec, indices: Vec<usize>) -> Probe {
        let fingerprint = spec.fingerprint();
        let keys: Vec<String> = indices
            .iter()
            .map(|&i| ResultStore::point_key(&fingerprint, i, &self.options))
            .collect();
        let (loaded, corrupt) = keys
            .iter()
            .map(|key| match self.store.map(|store| store.load_classified(key)) {
                Some(Loaded::Hit(result, bytes)) => (Some((result, bytes)), false),
                Some(Loaded::Corrupt) => (None, true),
                Some(Loaded::Absent) | None => (None, false),
            })
            .unzip();
        Probe { fingerprint, indices, keys, loaded, corrupt }
    }

    /// Zips hits and freshly simulated misses back into point order,
    /// saving each fresh non-errored result, deriving the typed terminal
    /// state, appending the job's events, and (under `options.profile`)
    /// grafting the per-point `profile.store` / `profile.sched` counters.
    fn assemble(
        &self,
        probe: Probe,
        fresh: Vec<PointResult>,
        typed: &HashMap<&str, &xloops_sim::SimError>,
        events: &mut Vec<ProgressEvent>,
        job: &mut usize,
    ) -> Vec<JobOutcome> {
        let mut fresh = fresh.into_iter();
        probe
            .indices
            .into_iter()
            .zip(probe.keys)
            .zip(probe.loaded)
            .zip(probe.corrupt)
            .map(|(((i, key), slot), corrupt)| {
                let this = *job;
                *job += 1;
                events.push(ProgressEvent::Queued { job: this });
                let (hit, bytes, mut result) = match slot {
                    Some((result, bytes)) => {
                        events.push(ProgressEvent::Hit { job: this });
                        (true, bytes, result)
                    }
                    None => {
                        events.push(ProgressEvent::Started { job: this });
                        let result = fresh.next().expect("one fresh result per miss");
                        events.push(ProgressEvent::Finished {
                            job: this,
                            ok: result.error.is_none(),
                        });
                        let mut written = 0;
                        if result.error.is_none() {
                            if let Some(store) = self.store {
                                match store.save(&key, &result) {
                                    Ok(n) => written = n,
                                    Err(e) => store.warn(format_args!(
                                        "cannot write entry {key}: {e}; result kept in memory"
                                    )),
                                }
                            }
                        }
                        (false, written, result)
                    }
                };
                let state = match &result.error {
                    None => JobState::Done,
                    Some(message) => match typed.get(message.as_str()) {
                        Some(e) => JobState::Failed((*e).clone()),
                        None => JobState::Quarantined(message.clone()),
                    },
                };
                if self.options.profile {
                    if self.store.is_some() {
                        attach_store_counters(&mut result.stats, hit, bytes, corrupt);
                    }
                    attach_sched_counters(&mut result.stats, this, hit);
                }
                let job = Job {
                    fingerprint: probe.fingerprint.clone(),
                    index: i,
                    options: self.options.clone(),
                };
                JobOutcome { job, state, result, hit }
            })
            .collect()
    }
}

/// The [`RunKey`] a failed pooled point would have carried through the
/// in-process runner: same baseline normalization (LPSU stripped, mode
/// forced traditional, lowered) and same sampling fallback as
/// [`request_point`], so quarantine reports name identical identities on
/// both routes. A kernel name the spec invented keys as itself-unknown
/// rather than panicking — the failure is the report, not a crash.
fn run_key_for(p: &SpecPoint, options: &RunOptions) -> RunKey {
    let kernel = by_name(&p.kernel).map(|k| k.name).unwrap_or("unknown-kernel");
    let config = p.config.resolve();
    if p.gp_lowered {
        let config = SystemConfig { lpsu: None, ..config };
        RunKey {
            kernel,
            config: config.key(),
            mode: ExecMode::Traditional,
            gp_lowered: true,
            sample: options.sample,
        }
    } else {
        RunKey {
            kernel,
            config: config.key(),
            mode: p.mode,
            gp_lowered: false,
            sample: p.sampling.or(options.sample),
        }
    }
}

/// Requests every *missed* point of `probe` through the runner — called
/// once collecting and once live, like [`crate::manifest::run_spec`].
fn request_misses(r: &Runner, spec: &ExperimentSpec, probe: &Probe) -> Vec<PointResult> {
    probe
        .indices
        .iter()
        .zip(&probe.loaded)
        .filter(|(_, slot)| slot.is_none())
        .map(|(&i, _)| {
            let p = &spec.points[i];
            PointResult::from_run(&request_point(r, p), p.config.is_ooo())
        })
        .collect()
}

/// Grafts a `sched` child onto the result's `profile` node: the job's
/// admission-order index and how it resolved. Like `profile.store`, this
/// rides in the non-deterministic-tolerant profile stat family and never
/// enters golden artifacts.
fn attach_sched_counters(stats: &mut StatSet, job: usize, hit: bool) {
    let mut sched = StatSet::new("sched");
    sched.set("job", job as u64);
    sched.set("hits", hit as u64);
    sched.set("simulated", !hit as u64);
    match stats.child_mut("profile") {
        Some(profile) => {
            profile.push_child(sched);
        }
        None => {
            let mut profile = StatSet::new("profile");
            profile.push_child(sched);
            stats.push_child(profile);
        }
    }
}

/// [`crate::manifest::run_shard`] with an optional durable store: hits
/// are served from disk, only misses enter the two-pass simulate
/// protocol, and fresh results are written back. `None` is exactly the
/// storeless behavior.
pub fn run_shard_stored(
    spec: &ExperimentSpec,
    index: usize,
    of: usize,
    options: RunOptions,
    store: Option<&ResultStore>,
) -> ShardDoc {
    assert!(of > 0 && index < of, "impossible shard {index}/{of}");
    let owned = shard_points(spec, index, of);
    let mut swept = Scheduler::new(options.clone(), store).run(&[(spec, owned.clone())]);
    let results =
        owned.into_iter().zip(swept.outcomes.remove(0)).map(|(i, o)| (i, o.result)).collect();
    ShardDoc { fingerprint: spec.fingerprint(), index, of, options, spec: spec.clone(), results }
}

/// Results of a store-backed multi-spec sweep.
#[derive(Clone, Debug)]
pub struct StoredSweepResult {
    /// Per-spec, per-point results (spec and point order), ready for
    /// [`crate::manifest::render_spec`].
    pub results: Vec<Vec<PointResult>>,
    /// Quarantined simulation points across all specs.
    pub failures: Vec<RunFailure>,
    /// Prefill summary (unique *simulated* points; hits never enter it).
    pub prefill: PrefillInfo,
}

/// Runs every spec against one shared runner with store consultation:
/// points present in the store are read, the rest are deduplicated
/// *across specs* (like `--bin all`'s shared collecting runner) and
/// simulated once, then written back.
pub fn run_specs_stored(
    specs: &[ExperimentSpec],
    options: &RunOptions,
    store: &ResultStore,
) -> StoredSweepResult {
    let work: Vec<(&ExperimentSpec, Vec<usize>)> =
        specs.iter().map(|s| (s, (0..s.points.len()).collect())).collect();
    let swept = Scheduler::new(options.clone(), Some(store)).run(&work);
    StoredSweepResult {
        results: swept
            .outcomes
            .into_iter()
            .map(|outcomes| outcomes.into_iter().map(|o| o.result).collect())
            .collect(),
        failures: swept.failures,
        prefill: swept.prefill,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_returns_results_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        for workers in [1, 2, 4, 9] {
            let out = run_jobs(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        let _ = run_jobs(&items, 8, |_, &x| counts[x].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_steals_past_a_slow_head_item() {
        // Worker 0's own queue starts with the slow item; the other
        // workers must drain everything else meanwhile. This pins the
        // stealing behavior indirectly: with 4 workers and one item that
        // sleeps, total wall time must stay well under items × sleep.
        let items: Vec<u64> = (0..32).map(|i| if i == 0 { 40 } else { 1 }).collect();
        let t = std::time::Instant::now();
        let out = run_jobs(&items, 4, |_, &ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert_eq!(out, items);
        assert!(t.elapsed() < std::time::Duration::from_millis(32 * 40 / 2), "{:?}", t.elapsed());
    }

    #[test]
    fn scheduler_events_are_deterministic_and_ordered() {
        let spec = crate::experiments::spec_by_name("table2")
            .map(|mut s| {
                s.points.truncate(3);
                s.sections.clear();
                s
            })
            .expect("table2 spec exists");
        let options = RunOptions::default();
        let run = || {
            Scheduler::new(options.clone(), None).run(&[(&spec, (0..spec.points.len()).collect())])
        };
        let a = run();
        let b = run();
        assert_eq!(a.events, b.events, "event stream must be deterministic");
        // Storeless: every job is Queued → Started → Finished, in order.
        let mut expect = Vec::new();
        for j in 0..spec.points.len() {
            expect.push(ProgressEvent::Queued { job: j });
            expect.push(ProgressEvent::Started { job: j });
            expect.push(ProgressEvent::Finished { job: j, ok: true });
        }
        assert_eq!(a.events, expect);
        assert!(a.failures.is_empty());
        assert!(a.outcomes[0].iter().all(|o| o.state.is_done() && !o.hit));
    }
}
