//! The scheduler layer: one orchestration code path for every entry
//! point, and one execution path per point.
//!
//! - [`run_jobs`] — the work-stealing thread pool. Each worker owns a
//!   deque seeded round-robin; it pops its own front and steals from the
//!   back of others when dry, so an unlucky worker stuck behind one slow
//!   simulation point cannot strand the rest of the list. Results land in
//!   per-item slots, so the output order is the input order regardless of
//!   which worker ran what — the serial/parallel byte-identity CI pins
//!   survives unchanged.
//! - [`Scheduler`] — the store-aware orchestrator. It takes the work
//!   straight from the specs' point lists, consults the [`ResultStore`]
//!   before dispatch (a hit is `Done` without a worker ever seeing it),
//!   deduplicates the misses by [`RunKey`] — what a point simulates, not
//!   which spec asked — and hands each unique simulation to one executor:
//!   [`run_jobs`] over [`crate::runner::execute`] in-process, or the
//!   supervised [`WorkerPool`]. Fresh results are written back through
//!   the store. The routes differ only in the executor, so a point shared
//!   by two specs simulates once on every route and the artifact bytes
//!   cannot depend on the route.
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
//! `xloops sweep` ([`run_shard_stored`]), `--bin all`, the artifact
//! binaries ([`crate::emit_spec`]) and the serve daemon
//! ([`crate::serve`]) are thin adapters over [`Scheduler::run`].
//! Crash-safe resume falls out of the layering: a restarted daemon
//! re-derives a resubmitted manifest's jobs, finds the finished ones in
//! the store, and only dispatches the rest.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xloops_sim::{RunOptions, SimError};
use xloops_stats::{JsonValue, StatSet};

use crate::job::{Job, JobState};
use crate::manifest::{shard_points, ExperimentSpec, PointResult, ShardDoc};
use crate::runner::{execute, RunFailure, RunKey, Simulation};
use crate::store::{attach_store_counters, key_options, keyed, Loaded, ResultStore};
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
                // The own queue's guard must drop before any other queue
                // is locked: two dry workers each holding their own lock
                // while reaching for the other's would deadlock.
                let own = queues[w].lock().unwrap().pop_front();
                let claimed = own.or_else(|| {
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

/// Execution summary of a sweep: the unique simulations it ran (hits
/// never enter it) and on how many workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefillInfo {
    /// Unique simulation points executed.
    pub unique_points: usize,
    /// Worker threads or processes used.
    pub workers: usize,
}

/// Everything a sweep produced: per-spec outcomes (spec order, then owned
/// point order), the deterministic event stream, the quarantine list, and
/// the execution summary.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per input spec, one [`JobOutcome`] per owned point.
    pub outcomes: Vec<Vec<JobOutcome>>,
    /// The ordered progress stream (see [`ProgressEvent`]).
    pub events: Vec<ProgressEvent>,
    /// Quarantined simulation points across all specs, once per unique
    /// simulation.
    pub failures: Vec<RunFailure>,
    /// Execution summary (unique *simulated* points; hits never enter it).
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

/// One executed simulation: the point result (placeholder stats plus the
/// diagnosis when it failed) and the typed error class, when known.
type Executed = (PointResult, Option<SimError>);

/// The store-aware orchestrator. Construct one per sweep with the options
/// every job runs under and an optional durable store; [`Scheduler::run`]
/// executes any number of `(spec, owned point indices)` work items, so
/// identical simulations are deduplicated *across* specs.
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
    /// immediately; the misses deduplicate by [`RunKey`] and each unique
    /// simulation executes once — on the supervised multi-process
    /// [`WorkerPool`] when one is configured (and can spawn), else on the
    /// in-process [`run_jobs`] pool. Fresh non-errored results are
    /// appended to the store and committed with one fsync before this
    /// returns, and the outcomes come back in work order with the
    /// deterministic event stream alongside.
    pub fn run(&self, work: &[(&ExperimentSpec, Vec<usize>)]) -> SweepOutcome {
        let key_options = key_options(&self.options);
        let probes: Vec<Probe> = work
            .iter()
            .map(|(spec, indices)| self.probe(spec, indices.clone(), &key_options))
            .collect();
        if let Some(progress) = &self.progress {
            for p in &probes {
                progress.admit(p.indices.len() as u64);
                progress.hit(p.loaded.iter().flatten().count() as u64);
            }
        }

        // Every miss, deduplicated by what it simulates: `jobs[at]` names
        // the first point that asked for simulation `sims[at]`, and each
        // probe records which unique simulation serves each of its misses.
        let mut unique: HashMap<RunKey, usize> = HashMap::new();
        let mut jobs: Vec<WireJob<'_>> = Vec::new();
        let mut sims: Vec<Simulation> = Vec::new();
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(probes.len());
        for ((spec, _), probe) in work.iter().zip(&probes) {
            let mut mine = Vec::new();
            for (&index, slot) in probe.indices.iter().zip(&probe.loaded) {
                if slot.is_some() {
                    continue;
                }
                let sim = Simulation::of_point(&spec.points[index], &self.options);
                let at = *unique.entry(sim.key).or_insert_with(|| {
                    jobs.push(WireJob {
                        spec,
                        fingerprint: probe.fingerprint.clone(),
                        index,
                        options: &self.options,
                        fanout: 0,
                    });
                    sims.push(sim);
                    jobs.len() - 1
                });
                jobs[at].fanout += 1;
                mine.push(at);
            }
            slots.push(mine);
        }

        let (executed, prefill) = self.dispatch(&jobs, &sims);

        let failures = sims
            .iter()
            .zip(&executed)
            .filter_map(|(sim, (result, error))| {
                result.error.as_ref().map(|message| RunFailure {
                    key: sim.key,
                    message: message.clone(),
                    sim: error.clone(),
                })
            })
            .collect();
        // Each result goes to every miss it serves, moved into the last
        // one so no shared result is held twice.
        let mut executed: Vec<Option<Executed>> = executed.into_iter().map(Some).collect();
        let mut left: Vec<u64> = jobs.iter().map(|j| j.fanout).collect();
        let mut events = Vec::new();
        let mut job = 0;
        let mut outcomes = Vec::with_capacity(probes.len());
        for (p, mine) in probes.into_iter().zip(slots) {
            let fresh = mine.into_iter().map(|at| {
                left[at] -= 1;
                let result = if left[at] == 0 { executed[at].take() } else { executed[at].clone() };
                result.expect("a result serves each of its misses")
            });
            outcomes.push(self.assemble(p, fresh, &mut events, &mut job));
        }
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

    /// Executes each unique simulation once, in `jobs` order: on the
    /// worker pool when configured and spawnable (degrading to in-process
    /// with a warning otherwise), else in-process.
    fn dispatch(&self, jobs: &[WireJob<'_>], sims: &[Simulation]) -> (Vec<Executed>, PrefillInfo) {
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
                Ok(pool) => {
                    let outcomes = pool.run(jobs, self.progress.as_deref());
                    let executed = outcomes.into_iter().map(|o| (o.result, o.sim)).collect();
                    return (
                        executed,
                        PrefillInfo { unique_points: jobs.len(), workers: pool.workers() },
                    );
                }
                Err(e) => {
                    eprintln!("xloops: worker pool unavailable ({e}); running in-process");
                }
            }
        }
        if let Some(progress) = &self.progress {
            // Coarse in-process accounting: every admitted miss is in
            // flight for the duration of the fan-out; `finalize` trues it
            // up.
            progress.start(jobs.iter().map(|j| j.fanout).sum());
        }
        let o = &self.options;
        let workers = match (o.serial, o.threads) {
            (true, _) => 1,
            (false, Some(n)) => n,
            (false, None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let workers = workers.clamp(1, sims.len().max(1));
        // Wall-clock profiling is only meaningful serially (parallel
        // timings measure contention, not the simulator).
        let profile = o.profile && workers <= 1;
        let timings = Mutex::new(Vec::new());
        let runs = run_jobs(sims, workers, |_, sim| {
            let t = Instant::now();
            let run = execute(sim, o);
            if profile {
                timings.lock().unwrap().push((t.elapsed(), sim.key));
            }
            run
        });
        if profile {
            print_slowest(timings.into_inner().unwrap());
        }
        // Results become stat trees here on the calling thread, which
        // goes on to own them, rather than on the short-lived pool
        // threads.
        let executed = runs
            .into_iter()
            .zip(jobs)
            .map(|((run, error), job)| {
                let is_ooo = job.spec.points[job.index].config.is_ooo();
                (PointResult::from_run(&run, is_ooo), error)
            })
            .collect();
        (executed, PrefillInfo { unique_points: sims.len(), workers })
    }

    /// Looks up one spec's points in the store. `key_options` is
    /// [`key_options`] of the sweep's options, rendered once per sweep.
    fn probe(&self, spec: &ExperimentSpec, indices: Vec<usize>, key_options: &str) -> Probe {
        let fingerprint = spec.fingerprint();
        let keys: Vec<String> =
            indices.iter().map(|&i| keyed(&fingerprint, i, key_options)).collect();
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
        mut fresh: impl Iterator<Item = Executed>,
        events: &mut Vec<ProgressEvent>,
        job: &mut usize,
    ) -> Vec<JobOutcome> {
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
                let (hit, bytes, mut result, error) = match slot {
                    Some((result, bytes)) => {
                        events.push(ProgressEvent::Hit { job: this });
                        (true, bytes, result, None)
                    }
                    None => {
                        events.push(ProgressEvent::Started { job: this });
                        let (result, error) = fresh.next().expect("one fresh result per miss");
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
                        (false, written, result, error)
                    }
                };
                let state = match (&result.error, error) {
                    (None, _) => JobState::Done,
                    (Some(_), Some(e)) => JobState::Failed(e),
                    (Some(message), None) => JobState::Quarantined(message.clone()),
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

/// Prints the slowest in-process simulation points of a serial profiled
/// sweep (`XLOOPS_BENCH_PROFILE=1`).
fn print_slowest(mut timings: Vec<(Duration, RunKey)>) {
    timings.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
    eprintln!("[profile] slowest simulation points:");
    for (d, key) in timings.iter().take(20) {
        eprintln!(
            "[profile] {:8.1} ms  {} {:?} gp={}",
            d.as_secs_f64() * 1e3,
            key.kernel,
            key.mode,
            key.gp_lowered,
        );
    }
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

/// Every point of every spec: the work list of a full regeneration.
pub fn all_points(specs: &[ExperimentSpec]) -> Vec<(&ExperimentSpec, Vec<usize>)> {
    specs.iter().map(|s| (s, (0..s.points.len()).collect())).collect()
}

/// [`crate::manifest::run_shard`] with an optional durable store: hits
/// are served from disk, only misses simulate, and fresh results are
/// written back. `None` is exactly the storeless behavior.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{
        render_spec, Cell, EnergyPreset, GppPreset, Section, SectionBody, SpecBuilder, SpecPoint,
    };
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xloops_lpsu::LpsuConfig;
    use xloops_sim::ExecMode;

    /// Two specs that share simulations. Per kernel, `a` asks for the io
    /// baseline and the specialized io+x run; `b` asks for the same two
    /// plus the baseline again carrying an LPSU (which baseline
    /// normalization strips) and an adaptive run of its own: six requests,
    /// three distinct simulations.
    fn overlapping_specs() -> Vec<ExperimentSpec> {
        let (io, e) = (GppPreset::Io, EnergyPreset::Mcpat45);
        let x4 = Some(LpsuConfig::default4());
        let table = |rows| SectionBody::Table { header: vec!["name".into(), "S".into()], rows };
        let mut a = SpecBuilder::new("a", "A\n\n");
        let mut b = SpecBuilder::new("b", "B\n\n");
        let (mut a_rows, mut b_rows, mut aliases) = (Vec::new(), Vec::new(), Vec::new());
        for name in ["huffman-ua", "rgb2cmyk-uc", "dither-or"] {
            let base = a.baseline(name, io, e);
            let run = a.point(name, io, x4, e, ExecMode::Specialized);
            a_rows.push(vec![Cell::Text(name.into()), Cell::Speedup { base, run }]);
            let base = b.baseline(name, io, e);
            let run = b.point(name, io, x4, e, ExecMode::Specialized);
            let adaptive = b.point(name, io, x4, e, ExecMode::Adaptive);
            b_rows.push(vec![Cell::Text(name.into()), Cell::Speedup { base, run }]);
            aliases.push((name, adaptive));
        }
        a.section("", table(a_rows), "");
        b.section("", table(b_rows), "");
        let mut b = b.build();
        for (name, adaptive) in aliases {
            let mut alias = b.points[0].clone();
            alias.kernel = name.into();
            alias.config.lpsu = x4;
            b.points.push(alias);
            let base = b.points.len() - 1;
            let row = vec![Cell::Text(name.into()), Cell::Speedup { base, run: adaptive }];
            b.sections.push(Section {
                prefix: String::new(),
                body: table(vec![row]),
                suffix: String::new(),
            });
        }
        vec![a.build(), b]
    }

    fn render_all(specs: &[ExperimentSpec], swept: &SweepOutcome) -> Vec<String> {
        let results = |o: &Vec<JobOutcome>| o.iter().map(|o| o.result.clone()).collect::<Vec<_>>();
        specs.iter().zip(&swept.outcomes).map(|(s, o)| render_spec(s, &results(o))).collect()
    }

    #[test]
    fn shared_points_simulate_once_per_run_key() {
        let specs = overlapping_specs();
        let options = RunOptions::default();
        let points = specs.iter().flat_map(|s| &s.points);
        let keys: HashSet<RunKey> =
            points.clone().map(|p| Simulation::of_point(p, &options).key).collect();
        assert_eq!((points.count(), keys.len()), (18, 9));
        let swept = Scheduler::new(options, None).with_pool(None).run(&all_points(&specs));
        assert!(swept.failures.is_empty());
        assert_eq!(swept.prefill.unique_points, keys.len(), "one simulation per RunKey");
        // Every request that aliases a simulation carries its exact bytes.
        let doc = |s: usize, i: usize| swept.outcomes[s][i].result.to_json_value().render();
        let alias_of = |p: &SpecPoint| Simulation::of_point(p, &RunOptions::default()).key;
        for (i, p) in specs[1].points.iter().enumerate() {
            let j = specs[0].points.iter().position(|q| alias_of(q) == alias_of(p));
            if let Some(j) = j {
                assert_eq!(doc(1, i), doc(0, j), "point {i} of b aliases point {j} of a");
            }
        }
    }

    #[test]
    fn multi_spec_sweeps_render_byte_identically_on_one_and_four_threads() {
        let specs = overlapping_specs();
        let sweep = |threads| {
            let options = RunOptions { threads: Some(threads), ..RunOptions::default() };
            Scheduler::new(options, None).with_pool(None).run(&all_points(&specs))
        };
        let (serial, parallel) = (sweep(1), sweep(4));
        assert_eq!((serial.prefill.workers, parallel.prefill.workers), (1, 4));
        assert_eq!(serial.prefill.unique_points, parallel.prefill.unique_points);
        assert_eq!(render_all(&specs, &serial), render_all(&specs, &parallel));
    }

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
    fn pool_workers_running_dry_together_never_deadlock() {
        // Sub-microsecond items make every worker run dry, and reach for
        // the others' queues, at nearly the same moment, round after
        // round. The rounds run on a thread of their own under a
        // watchdog, so a hang fails the test instead of stalling it; a
        // hung thread is left behind, never joined.
        let (done, watchdog) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let items: Vec<u64> = (0..846).collect();
            let doubled: Vec<u64> = items.iter().map(|x| x * 2).collect();
            for (workers, rounds) in [(2, 4000), (8, 500)] {
                for _ in 0..rounds {
                    assert_eq!(run_jobs(&items, workers, |_, &x| x * 2), doubled);
                }
            }
            done.send(()).expect("the test thread waits for the rounds");
        });
        watchdog
            .recv_timeout(Duration::from_secs(60))
            .expect("run_jobs rounds must finish: a timeout is a deadlock");
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
