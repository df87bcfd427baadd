//! Per-layer metrics of the traced run.
//!
//! Counts come from the traced sweeps themselves (store counters, the
//! scheduler's dispatch count, frames the relay saw). Layer times come
//! from replaying each layer's public calls over one traced sweep's data
//! (see [`Snapshot`]): its points, results, keys and wire frames. A replay measures what
//! the layer costs on this workload's data whether or not the route uses
//! the layer; the counts say which layers the route really used (for
//! example `sim.points` is 0 on `regen_warm` while `sim.busy_s` still
//! prices the points that sweep served from the store).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use xloops_bench::manifest::{render_spec, ExperimentSpec, PointResult, SpecPoint};
use xloops_bench::proto::{job_request, manifest_request, request_with, Request};
use xloops_bench::sched::run_jobs;
use xloops_bench::worker::{PoolConfig, WireJob, WorkerPool};
use xloops_bench::{ResultStore, RunResult, Runner};
use xloops_kernels::by_name;
use xloops_sim::{ExecMode, RunOptions};
use xloops_stats::{binary, JsonValue};

use crate::routes::{Ctx, HostedDaemon, Snapshot, SweepRec, Via, WIDTH};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(recs: &[SweepRec], f: impl Fn(&SweepRec) -> Option<f64>) -> Option<f64> {
    let mut v: Vec<f64> = recs.iter().filter_map(f).collect();
    (!v.is_empty()).then(|| median(&mut v))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The simulation a point names, with the normalization the runner keys
/// by: a GP-ISA baseline ignores the LPSU, mode and per-point sampling.
fn identity(p: &SpecPoint) -> SpecPoint {
    let mut q = p.clone();
    if q.gp_lowered {
        q.config.lpsu = None;
        q.mode = ExecMode::Traditional;
        q.sampling = None;
    }
    q
}

/// Simulates one point in-process, as the runner does for the scheduler.
fn simulate(r: &Runner, p: &SpecPoint) -> RunResult {
    let kernel = by_name(&p.kernel).expect("generated and paper specs name known kernels");
    let config = p.config.resolve();
    if p.gp_lowered {
        r.baseline(kernel, config)
    } else {
        r.run_sampled(kernel, config, p.mode, p.sampling)
    }
}

/// Computes every per-layer metric except `worker.peak_rss_mb`, which is
/// read once the workers are reaped.
pub fn measure(
    ctx: &Ctx,
    traced: &[SweepRec],
    untraced_p50: f64,
    snap: &Snapshot,
) -> Result<Vec<Metric>, String> {
    let opts = &ctx.opts;
    let specs = &snap.specs;
    let fps: Vec<String> = specs.iter().map(ExperimentSpec::fingerprint).collect();
    let requested: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(s, spec)| (0..spec.points.len()).map(move |i| (s, i)))
        .collect();
    let mut seen = HashSet::new();
    let unique: Vec<(usize, usize)> = requested
        .iter()
        .copied()
        .filter(|&(s, i)| seen.insert(identity(&specs[s].points[i])))
        .collect();
    let point = |&(s, i): &(usize, usize)| &specs[s].points[i];

    // sim: serial in-process replay with the per-phase profile on.
    let profiled = Runner::with_options(RunOptions { profile: true, ..opts.clone() });
    let (runs, busy_s) =
        timed(|| unique.iter().map(|u| simulate(&profiled, point(u))).collect::<Vec<_>>());
    let phase = |f: fn(&xloops_sim::ProfileStats) -> u64| {
        runs.iter().filter_map(|r| r.stats.profile.as_ref()).map(f).sum::<u64>() as f64 / 1e9
    };
    let sim_cycles: u64 = runs.iter().map(|r| r.cycles).sum();

    // worker: the same jobs on a fresh pool, against the same jobs in
    // process on as many threads.
    let inproc = Runner::with_options(opts.clone());
    let (_, inproc_s) =
        timed(|| run_jobs(&unique, WIDTH, |_, u| simulate(&inproc, point(u)).cycles));
    let jobs: Vec<WireJob<'_>> = unique
        .iter()
        .map(|&(s, i)| WireJob {
            spec: &specs[s],
            fingerprint: fps[s].clone(),
            index: i,
            options: opts,
            fanout: 1,
        })
        .collect();
    let (pool, spawn_s) = timed(|| WorkerPool::spawn(PoolConfig::new(WIDTH)));
    let pool = pool.map_err(|e| format!("worker pool replay: {e}"))?;
    let pool = match &snap.via {
        // On sweep_tcp the jobs go to the daemon's registered remotes.
        Via::Tcp(_, remotes) => {
            drop(pool);
            WorkerPool::spawn_with(PoolConfig::for_remotes(WIDTH), Some(remotes.clone()))
                .map_err(|e| format!("remote pool replay: {e}"))?
        }
        Via::InProcess | Via::Pipe => pool,
    };
    let (outcomes, run_s) = timed(|| pool.run(&jobs, None));
    drop(pool);
    let retries: u32 = outcomes.iter().map(|o| o.attempts.saturating_sub(1)).sum();
    if let Some(o) = outcomes.iter().find(|o| o.result.error.is_some()) {
        return Err(format!("worker replay failed a point: {:?}", o.result.error));
    }
    let isolation = (run_s - inproc_s) / jobs.len().max(1) as f64;

    // store: save into a scratch store, then load back, over every key
    // the sweep requested; encode and decode alone over the same entries.
    let scratch = ctx.tmp.join("replay-store");
    let _ = std::fs::remove_dir_all(&scratch);
    let store = ResultStore::open(&scratch).map_err(|e| format!("replay store: {e}"))?;
    let keyed: Vec<(String, &PointResult)> = requested
        .iter()
        .map(|&(s, i)| (ResultStore::point_key(&fps[s], i, opts), &snap.results[s][i]))
        .collect();
    let (encoded, encode_s) =
        timed(|| keyed.iter().map(|(_, r)| binary::encode(&r.to_json_value())).collect::<Vec<_>>());
    let (saved, save_s) =
        timed(|| keyed.iter().map(|(k, r)| store.save(k, r)).collect::<Result<Vec<_>, _>>());
    saved.map_err(|e| format!("replay save: {e}"))?;
    let (loaded, load_s) = timed(|| keyed.iter().filter(|(k, _)| store.load(k).is_some()).count());
    let (decoded, decode_s) = timed(|| {
        encoded
            .iter()
            .filter(|b| {
                binary::decode(b).ok().and_then(|v| PointResult::from_json_value(&v).ok()).is_some()
            })
            .count()
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&scratch);
    if loaded != keyed.len() || decoded != keyed.len() {
        return Err(format!(
            "store replay read back {loaded}/{decoded} of {} entries",
            keyed.len()
        ));
    }

    // stats + proto: the frames the sweep moved on the wire; routes
    // without a wire rebuild them with the protocol's own encoders.
    let frames: Vec<Vec<u8>> = if snap.frames.is_empty() {
        let manifests = specs.iter().map(|s| manifest_request(s).render());
        let jobs = requested.iter().map(|&(s, i)| job_request(&fps[s], i, opts).render());
        let replies = requested.iter().map(|&(s, i)| {
            JsonValue::object(vec![
                ("ok", JsonValue::Bool(true)),
                ("index", JsonValue::UInt(i as u64)),
                ("result", snap.results[s][i].to_json_value()),
            ])
            .render()
        });
        manifests.chain(jobs).chain(replies).map(String::into_bytes).collect()
    } else {
        snap.frames.clone()
    };
    let texts: Vec<&str> =
        frames.iter().filter_map(|f| std::str::from_utf8(f).ok()).map(str::trim).collect();
    let (docs, json_parse_s) =
        timed(|| texts.iter().filter_map(|t| JsonValue::parse(t).ok()).collect::<Vec<_>>());
    let json_bytes: usize = texts.iter().map(|t| t.len()).sum();
    let (_, json_render_s) = timed(|| docs.iter().map(|d| d.render().len()).sum::<usize>());
    let requests: Vec<&Vec<u8>> = frames.iter().filter(|f| f.starts_with(b"{\"cmd\"")).collect();
    let (_, proto_parse_s) =
        timed(|| requests.iter().filter(|f| Request::parse(f).is_ok()).count());

    let render_s = match median_of(traced, |r| r.layer.render_s) {
        Some(s) => s,
        None => {
            timed(|| {
                specs.iter().zip(&snap.results).map(|(s, r)| render_spec(s, r).len()).sum::<usize>()
            })
            .1
        }
    };

    // transport + serve: against the workload's daemon, or a throwaway
    // storeless one when the route has none.
    let (ping_s, submit_s) = match &snap.via {
        Via::Tcp(ep, _) => daemon_replays(ep, specs)?,
        Via::InProcess | Via::Pipe => {
            let daemon = HostedDaemon::start(ctx.tmp.join("replay.sock"), opts)?;
            let wire = daemon_replays(&daemon.endpoint(), specs);
            daemon.stop()?;
            wire?
        }
    };

    let sweep_p50 = median_of(traced, |r| Some(r.secs)).unwrap_or(0.0);
    let sched_s = median_of(traced, |r| r.layer.sched_s);
    let sim_points = median_of(traced, |r| Some(r.layer.sim_points as f64)).unwrap_or(0.0);
    let store_stat = |f: fn(&xloops_bench::StoreStats) -> u64| {
        median_of(traced, |r| Some(r.layer.store.as_ref().map_or(0, f) as f64)).unwrap_or(0.0)
    };
    let (hits, misses) = (store_stat(|s| s.hits), store_stat(|s| s.misses));
    let loads = hits + misses;
    // Scheduler self time: its span minus the layers it called. In
    // process that is the store traffic it did plus the simulation
    // fan-out; pooled, the pool's spawn and run; on sweep_tcp the
    // scheduler runs in the daemon, so the client's sweep span stands in
    // for its span and the submit round trip is taken off too.
    let sched_s = sched_s.unwrap_or(sweep_p50);
    let self_s = match &snap.via {
        Via::InProcess => {
            let store_s =
                if hits > 0.0 { load_s } else { 0.0 } + if misses > 0.0 { save_s } else { 0.0 };
            sched_s - store_s - if sim_points > 0.0 { inproc_s } else { 0.0 }
        }
        Via::Pipe => sched_s - spawn_s - run_s,
        Via::Tcp(..) => sched_s - submit_s - run_s,
    };
    let frames_of =
        |f: fn(&SweepRec) -> u64| median_of(traced, |r| Some(f(r) as f64)).unwrap_or(0.0);

    let m = |name, unit, value| Metric { name, unit, value };
    Ok(vec![
        m("sim.points", "count", sim_points),
        m("sim.busy_s", "s", busy_s),
        m("sim.cycles_per_busy_s", "cycles/s", sim_cycles as f64 / busy_s),
        m("sim.gpp_s", "s", phase(|p| p.gpp_ns)),
        m("sim.scan_s", "s", phase(|p| p.scan_ns)),
        m("sim.engine_s", "s", phase(|p| p.engine_ns)),
        m("sched.requests", "count", requested.len() as f64),
        m("sched.unique", "count", unique.len() as f64),
        m("sched.dedupe_ratio", "ratio", unique.len() as f64 / requested.len() as f64),
        m("sched.self_s", "s", self_s),
        m("store.loads", "count", loads),
        m("store.hits", "count", hits),
        m("store.misses", "count", misses),
        m("store.corrupt", "count", store_stat(|s| s.corrupt)),
        m("store.hit_ratio", "ratio", if loads > 0.0 { hits / loads } else { 0.0 }),
        m("store.bytes_read", "B", store_stat(|s| s.bytes_read)),
        m("store.bytes_written", "B", store_stat(|s| s.bytes_written)),
        m("store.load_s", "s", load_s),
        m("store.decode_s", "s", decode_s),
        m("store.save_s", "s", save_s),
        m("store.encode_s", "s", encode_s),
        m("stats.json_parse_s", "s", json_parse_s),
        m("stats.json_parse_bytes", "B", json_bytes as f64),
        m("stats.json_render_s", "s", json_render_s),
        m("manifest.render_s", "s", render_s),
        m("proto.frames", "count", frames_of(|r| r.layer.frames)),
        m("proto.bytes", "B", frames_of(|r| r.layer.bytes)),
        m("proto.parse_s", "s", proto_parse_s),
        m("transport.ping_rtt_s", "s", ping_s),
        m("serve.submit_s", "s", submit_s),
        m("worker.spawn_s", "s", spawn_s),
        m("worker.run_s", "s", run_s),
        m("worker.retries", "count", retries as f64),
        m("worker.isolation_s_per_point", "s", isolation),
        m("worker.manifests_shipped", "count", frames_of(|r| r.layer.manifests)),
        m("trace.overhead_frac", "ratio", (sweep_p50 - untraced_p50) / untraced_p50),
    ])
}

const PINGS: usize = 21;
const TIMEOUT: Option<Duration> = Some(Duration::from_secs(60));

/// The median TCP `ping` round trip (connect + `hello` + `ping`), and the
/// summed round trips of a non-waiting submit of each of the sweep's
/// manifests under a fresh name (so the daemon registers a new sweep
/// rather than answering from its memo). Each submitted sweep is drained
/// with a waiting submit, untimed, before the next.
fn daemon_replays(
    ep: &xloops_bench::transport::Endpoint,
    specs: &[ExperimentSpec],
) -> Result<(f64, f64), String> {
    let ping = Request::Ping.to_json_value();
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let (reply, s) = timed(|| request_with(ep, &ping, TIMEOUT));
        reply.map_err(|e| format!("ping: {e}"))?;
        rtts.push(s);
    }
    let mut submit_s = 0.0;
    for spec in specs {
        let mut renamed = spec.clone();
        renamed.name.push_str("-submit-replay");
        let submit =
            |wait| Request::Submit { spec: Box::new(renamed.clone()), wait }.to_json_value();
        let (reply, s) = timed(|| request_with(ep, &submit(false), TIMEOUT));
        reply.map_err(|e| format!("submit: {e}"))?;
        submit_s += s;
        let done =
            request_with(ep, &submit(true), TIMEOUT).map_err(|e| format!("submit drain: {e}"))?;
        if done.get("failed").and_then(JsonValue::as_u64) != Some(0) {
            return Err(format!("submit replay failed: {}", done.render()));
        }
    }
    Ok((median(&mut rtts), submit_s))
}
