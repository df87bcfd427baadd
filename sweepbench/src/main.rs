//! Sweep benchmark for the xloops workspace.
//!
//! Times whole artifact sweeps end to end on four workloads (see
//! `routes.rs`), checking every sweep against a correctness oracle and a
//! route guard; with `--trace 1` it instead runs the workload untraced and
//! then traced, and reports per-layer metrics (see `layers.rs`).
//!
//! ```text
//! sweepbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root through `run.py`, which builds this
//! package and the `xloops` CLI (whose `worker` subcommand the worker
//! processes run) first. Human-readable lines go to stdout, then one JSON
//! object as the last line: `correct`, `attempted`, `failed`, `metrics`.

mod gen;
mod layers;
mod relay;
mod routes;
mod sys;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use xloops_sim::RunOptions;

use layers::{median, Metric};
use routes::{Ctx, Route, SweepRec, WIDTH};
use sys::StderrTap;

/// Set-up samples per run: this process's own plus fresh-process probes,
/// each paying the lazy kernel registry again as a new CLI process would.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Hidden: set the workload up once, tear it down, print the set-up
    /// time. The parent run collects its set-up samples this way.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10, trace: false, setup_probe: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        tmp: PathBuf::from(".bench_tmp").join(std::process::id().to_string()),
        opts: RunOptions { threads: Some(WIDTH), ..RunOptions::default() },
        xloops: std::env::var_os("XLOOPS_WORKER_EXE").map(PathBuf::from),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("error: temp root {}: {e}", ctx.tmp.display());
        std::process::exit(1);
    }
    let code = if args.setup_probe { setup_probe(&ctx) } else { run(&args, &ctx) };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    std::process::exit(code);
}

fn setup_probe(ctx: &Ctx) -> i32 {
    match routes::setup(ctx, false).and_then(|(route, secs)| route.teardown().map(|()| secs)) {
        Ok(secs) => {
            println!("{secs}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn run(args: &Args, ctx: &Ctx) -> i32 {
    let mut tap = match StderrTap::install() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let outcome =
        if args.trace { traced_run(args, ctx, &mut tap) } else { timed_run(args, ctx, &mut tap) };
    // Every process this run started must be gone; the stderr tap cannot
    // drain while one still holds the pipe.
    let leftovers = sys::reap_children();
    tap.finish();
    if !leftovers.is_empty() {
        eprintln!("error: processes outlived their run and were killed: {leftovers:?}");
        return 1;
    }
    match outcome {
        Ok(report) => {
            report.print();
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

struct Report {
    lines: Vec<String>,
    sweeps: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for m in &self.metrics {
            println!("{:<30} {:>16} {}", m.name, format!("{:.6}", m.value), m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.sweeps,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Runs sweeps in a closed loop for `seconds`, stopping at a round
/// boundary. Failures are recorded per sweep, never fatal.
fn drive(route: &mut dyn Route, seconds: f64, tap: &mut StderrTap) -> Vec<SweepRec> {
    let start = Instant::now();
    let mut recs: Vec<SweepRec> = Vec::new();
    loop {
        for _ in 0..route.round_len() {
            let k = recs.len();
            let rec = route.sweep(k, tap);
            for e in &rec.errors {
                eprintln!("sweep {k} failed: {e}");
            }
            recs.push(rec);
        }
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            return recs;
        }
    }
}

/// One driven phase: its sweeps, the set-up time, and what `then` made of
/// the route before teardown.
struct Phase<T> {
    recs: Vec<SweepRec>,
    round_len: usize,
    setup_s: f64,
    then: T,
}

/// Sets the workload up, prepares the oracle, drives it for `seconds`,
/// hands the route and its sweeps to `then`, and always tears down.
fn phase<T>(
    ctx: &Ctx,
    traced: bool,
    seconds: f64,
    tap: &mut StderrTap,
    then: impl FnOnce(&mut dyn Route, &[SweepRec]) -> Result<T, String>,
) -> Result<Phase<T>, String> {
    let (mut route, setup_s) = routes::setup(ctx, traced)?;
    let round_len = route.round_len();
    let result = route.prepare().and_then(|()| {
        sys::flush_disks();
        let recs = drive(&mut *route, seconds, tap);
        let out = then(&mut *route, &recs)?;
        Ok((recs, out))
    });
    let torn = route.teardown();
    let (recs, then) = result?;
    torn?;
    Ok(Phase { recs, round_len, setup_s, then })
}

fn failed(recs: &[SweepRec]) -> usize {
    recs.iter().filter(|r| !r.errors.is_empty()).count()
}

fn timed_run(args: &Args, ctx: &Ctx, tap: &mut StderrTap) -> Result<Report, String> {
    let Phase { recs, round_len, setup_s, .. } =
        phase(ctx, false, args.seconds as f64, tap, |_, _| Ok(()))?;
    let peak_rss = sys::peak_rss_mb();
    let mut setups = vec![setup_s];
    for _ in 1..SETUP_SAMPLES {
        setups.push(probe_setup(args)?);
    }

    let n = recs.len();
    let mut secs: Vec<f64> = recs.iter().map(|r| r.secs).collect();
    let p50 = median(&mut secs);
    // The highest percentile with at least ten sweeps beyond it.
    let (tail, tail_pct) = if n > 10 {
        (secs[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (secs[n - 1], 100.0)
    };
    // Rates are taken per round (every round does the same work) and
    // reported as the median round, so a short host stall moves them no
    // more than it moves the median sweep.
    let rate = |work: fn(&SweepRec) -> u64| {
        let mut per_round: Vec<f64> = recs
            .chunks(round_len)
            .map(|c| c.iter().map(work).sum::<u64>() as f64 / c.iter().map(|r| r.secs).sum::<f64>())
            .collect();
        median(&mut per_round)
    };
    let points: u64 = recs.iter().map(|r| r.points).sum();
    let cycles: u64 = recs.iter().map(|r| r.cycles).sum();
    let bad = failed(&recs);
    let lines = vec![
        format!(
            "workload {} seed {} ({} s): {n} sweeps, {bad} failed",
            args.workload, args.seed, args.seconds
        ),
        format!(
            "sweep_s_p50 over {n} sweeps; sweep_s_tail is p{tail_pct:.1}, with {} sweeps above it",
            if n > 10 { 10 } else { 0 }
        ),
        format!("setup_s is the median of {} set-ups: {setups:?}", setups.len()),
        format!("failed_frac {} ratio ({bad} of {n} sweeps)", bad as f64 / n as f64),
        format!("simulated cycles delivered: {cycles} over {points} points"),
    ];
    let m = |name, unit, value| Metric { name, unit, value };
    Ok(Report {
        lines,
        sweeps: n,
        failed: bad,
        metrics: vec![
            m("sweep_s_p50", "s", p50),
            m("sweep_s_tail", "s", tail),
            m("points_per_s", "1/s", rate(|r| r.points)),
            m("sim_cycles_per_s", "cycles/s", rate(|r| r.cycles)),
            m("setup_s", "s", median(&mut setups)),
            m("peak_rss_mb", "MiB", peak_rss),
        ],
    })
}

/// One set-up sample from a fresh process of this binary.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", &args.workload, "--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().lines().last().map(str::parse::<f64>)) {
        (true, Some(Ok(secs))) => Ok(secs),
        _ => Err(format!("setup probe failed ({}): {text}", out.status)),
    }
}

fn traced_run(args: &Args, ctx: &Ctx, tap: &mut StderrTap) -> Result<Report, String> {
    let half = args.seconds as f64 / 2.0;
    let untraced = phase(ctx, false, half, tap, |_, _| Ok(()))?.recs;
    let mut secs: Vec<f64> = untraced.iter().map(|r| r.secs).collect();
    let untraced_p50 = median(&mut secs);

    let Phase { recs: traced, then: mut metrics, .. } =
        phase(ctx, true, half, tap, |route, recs| {
            layers::measure(ctx, recs, untraced_p50, &route.snapshot())
        })?;
    metrics.push(Metric {
        name: "worker.peak_rss_mb",
        unit: "MiB",
        value: sys::children_peak_rss_mb(),
    });
    let n = untraced.len() + traced.len();
    let bad = failed(&untraced) + failed(&traced);
    Ok(Report {
        lines: vec![format!(
            "workload {} seed {} traced: {} untraced + {} traced sweeps, {bad} failed; \
             per-layer metrics are per sweep",
            args.workload,
            args.seed,
            untraced.len(),
            traced.len()
        )],
        sweeps: n,
        failed: bad,
        metrics,
    })
}
