//! `bench-summary`: the machine-readable performance trajectory.
//!
//! Times every table-2 kernel on four representative design points (io
//! and ooo/4, traditional and specialized; each point is run five times
//! and keeps its least wall time), the threaded-code functional
//! engine (`mode: "functional"`, host MIPS) over the same kernels plus
//! the scaled variants, and interval-sampled simulation on io+x
//! (`sampled`: extrapolated vs full cycle counts, relative error, error
//! bar). Writes `BENCH_<date>.json` at the workspace root with
//! per-point wall-clock, simulated cycles, and
//! simulated-cycles-per-second. With `XLOOPS_BENCH_PROFILE=1` each
//! simulation point also carries the per-phase host wall-time breakdown
//! (`profile.gpp_ns` / `scan_ns` / `engine_ns` / `handoffs`). Full
//! artifact regeneration, cold and warm, is measured by `sweepbench`'s
//! `regen_cold` / `regen_warm` workloads, not here. The document is
//! built on the shared deterministic JSON writer of
//! `xloops-stats` — the same encoder the CLI's `--stats json` output and
//! the manifest shard files use. Future PRs compare these files
//! numerically instead of prose in EXPERIMENTS.md.
//!
//! The file name's date comes from the system clock; set
//! `XLOOPS_BENCH_DATE=YYYY-MM-DD` to override (e.g. in CI, or to update an
//! existing file deterministically).
//!
//! `bench-summary --sweepbench FILE... [--parent FILE...]` also folds
//! sweepbench runs into an `end_to_end` section, keyed by workload. Each
//! FILE is the stdout of one or more `sweepbench/run.py` runs: a
//! `workload NAME ...` report line names the workload of the closing
//! `{"correct","attempted","failed","metrics"}` result line after it.
//! Every metric gets the median and quartiles over its runs; `--parent`
//! runs (the same workloads at the parent commit) land in a `parent`
//! entry beside them, and each metric gains `delta_vs_parent`, the
//! relative change of the median.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use xloops_bench::manifest::mode_tag;
use xloops_bench::{run_kernel, run_kernel_with};
use xloops_func::{ArchState, FastForward};
use xloops_kernels::{scaled, table2, Kernel};
use xloops_mem::Memory;
use xloops_sim::{error_doc, ExecMode, ProfileStats, RunOptions, SampleSpec, SystemConfig};
use xloops_stats::JsonValue;

struct Point {
    kernel: &'static str,
    config: String,
    mode: &'static str,
    wall_s: f64,
    sim_cycles: u64,
    profile: Option<ProfileStats>,
}

/// One functional-engine throughput measurement (no timing model).
struct FuncPoint {
    kernel: &'static str,
    instrs: u64,
    wall_s: f64,
}

/// One sampled-simulation point, paired with its full-run reference.
struct SampledPoint {
    kernel: &'static str,
    config: String,
    wall_s: f64,
    est_cycles: u64,
    full_cycles: u64,
    rel_stderr: f64,
}

/// The sampling schedule every sampled point uses: validated to stay
/// within 2% of the full run on every table-2 kernel × Figure 9 config
/// (see `tests/sampling_accuracy.rs`).
const SAMPLE_SPEC: &str = "10000:2000:10000";

/// Runs of each per-kernel design point; the least wall time is recorded.
const REPEATS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let end_to_end = parse_args(&args).and_then(|[change, parent]| {
        if change.is_empty() {
            return Ok(None);
        }
        end_to_end_doc(&read_runs(&change)?, &read_runs(&parent)?).map(Some)
    });
    let end_to_end = end_to_end.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });

    let design_points = [
        (SystemConfig::io(), ExecMode::Traditional),
        (SystemConfig::io_x(), ExecMode::Specialized),
        (SystemConfig::ooo4(), ExecMode::Traditional),
        (SystemConfig::ooo4_x(), ExecMode::Specialized),
    ];

    let mut points = Vec::new();
    // Every quarantined point lands here as the canonical `error_doc`
    // (`{"message", "exit_code"}`) — the same rendering the daemon uses
    // for failed jobs, so downstream tooling parses one shape.
    let mut errors: Vec<JsonValue> = Vec::new();
    for kernel in table2() {
        for (config, mode) in design_points {
            let what = format!("{} on {} ({})", kernel.name, config.name(), mode_tag(mode));
            // Panic firewall: a sick point lands in the `errors` section of
            // the JSON instead of killing the whole summary.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (0..REPEATS)
                    .map(|_| {
                        let t = Instant::now();
                        let r = run_kernel(kernel, config, mode);
                        Point {
                            kernel: kernel.name,
                            config: config.name(),
                            mode: mode_tag(mode),
                            wall_s: t.elapsed().as_secs_f64(),
                            sim_cycles: r.cycles,
                            profile: r.stats.profile,
                        }
                    })
                    .collect()
            }));
            let folded = caught
                .map_err(|payload| format!("{what}: {}", panic_message(payload)))
                .and_then(|runs| fold_repeats(&what, runs));
            match folded {
                Ok(point) => points.push(point),
                Err(message) => errors.push(error_doc(&message, 1)),
            }
        }
    }

    // Functional-mode throughput: the pre-decoded threaded-code engine,
    // end to end (exit reached, result verified). The scaled variants run
    // here too — they exist to exercise sampling and fast-forward at
    // sizes the detailed model would crawl through.
    let mut functional = Vec::new();
    for kernel in table2().iter().chain(scaled()) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_functional(kernel))) {
            Ok(p) => functional.push(p),
            Err(payload) => {
                let message = format!("{} (functional): {}", kernel.name, panic_message(payload));
                errors.push(error_doc(&message, 1));
            }
        }
    }

    // Sampled simulation on io+x: extrapolated cycle count vs the full
    // run already measured above, plus the per-interval error bar.
    let spec: SampleSpec = SAMPLE_SPEC.parse().expect("valid sample spec");
    let sample_options = RunOptions { sample: Some(spec), ..RunOptions::default() };
    let mut sampled = Vec::new();
    for kernel in table2() {
        let config = SystemConfig::io_x();
        let full = points
            .iter()
            .find(|p| {
                p.kernel == kernel.name && p.config == config.name() && p.mode == "specialized"
            })
            .map(|p| p.sim_cycles);
        let Some(full_cycles) = full else { continue }; // quarantined above
        let t = Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_kernel_with(kernel, config, ExecMode::Specialized, &sample_options)
        }));
        match caught {
            Ok(r) => sampled.push(SampledPoint {
                kernel: kernel.name,
                config: config.name(),
                wall_s: t.elapsed().as_secs_f64(),
                est_cycles: r.cycles,
                full_cycles,
                rel_stderr: r.stats.sampling.map_or(0.0, |s| s.rel_stderr),
            }),
            Err(payload) => {
                let message = format!(
                    "{} on {} (sampled {SAMPLE_SPEC}): {}",
                    kernel.name,
                    config.name(),
                    panic_message(payload)
                );
                errors.push(error_doc(&message, 1));
            }
        }
    }

    let date = bench_date();
    let json = render_json(RenderInput {
        date: &date,
        points: &points,
        functional: &functional,
        sampled: &sampled,
        errors: &errors,
        end_to_end,
    });
    let path = workspace_root().join(format!("BENCH_{date}.json"));
    std::fs::write(&path, &json).expect("write BENCH json");
    if !errors.is_empty() {
        eprintln!(
            "bench-summary: {} point(s) quarantined (see \"errors\" in the JSON)",
            errors.len()
        );
    }

    let total_wall: f64 = points.iter().map(|p| p.wall_s).sum();
    let total_cycles: u64 = points.iter().map(|p| p.sim_cycles).sum();
    let func_instrs: u64 = functional.iter().map(|p| p.instrs).sum();
    let func_wall: f64 = functional.iter().map(|p| p.wall_s).sum();
    println!(
        "bench-summary: {} points, {total_cycles} simulated cycles in {total_wall:.3} s \
         ({:.1} M sim-cycles/s); functional {func_instrs} instrs in {func_wall:.3} s \
         ({:.1} MIPS); {} sampled points -> {}",
        points.len(),
        total_cycles as f64 / total_wall / 1e6,
        func_instrs as f64 / func_wall.max(1e-9) / 1e6,
        sampled.len(),
        path.display()
    );
}

/// Folds the repeats of one design point into its record: the least wall
/// time (with that run's profile), so one slow warm-up run does not read
/// as a regression, and the simulated cycles, which every repeat must
/// agree on — a mismatch is a determinism bug, reported as an error.
fn fold_repeats(what: &str, runs: Vec<Point>) -> Result<Point, String> {
    let cycles = runs[0].sim_cycles;
    if let Some(other) = runs.iter().find(|p| p.sim_cycles != cycles) {
        let other = other.sim_cycles;
        return Err(format!("{what}: nondeterministic sim_cycles ({cycles} vs {other})"));
    }
    Ok(runs.into_iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)).expect("at least one run"))
}

/// Times the fast-forward engine end to end on one kernel (repeated runs,
/// mean wall time) and verifies the architectural result.
fn run_functional(kernel: &Kernel) -> FuncPoint {
    let ff = FastForward::new(&kernel.program);
    // Enough repetitions to dominate timer noise on the small kernels;
    // memory setup and result verification stay outside the timed region
    // (the point measures engine throughput, not test-fixture cost).
    let reps = 5u32;
    let mut retired = 0;
    let mut wall = 0.0;
    for _ in 0..reps {
        let mut mem = Memory::new();
        kernel.init_memory(&mut mem);
        let mut state = ArchState::new();
        let t = Instant::now();
        let run = ff
            .run(&mut state, &mut mem, u64::MAX)
            .unwrap_or_else(|e| panic!("{} functional: {e}", kernel.name));
        wall += t.elapsed().as_secs_f64();
        assert!(run.exited, "{} functional run must reach exit", kernel.name);
        retired = run.retired;
        kernel.verify(&mem).unwrap_or_else(|e| panic!("{} functional verify: {e}", kernel.name));
    }
    FuncPoint { kernel: kernel.name, instrs: retired, wall_s: wall / reps as f64 }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Wall-clock seconds rounded to microseconds, so the JSON stays compact
/// and diffs between runs are readable.
fn r6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

struct RenderInput<'a> {
    date: &'a str,
    points: &'a [Point],
    functional: &'a [FuncPoint],
    sampled: &'a [SampledPoint],
    errors: &'a [JsonValue],
    end_to_end: Option<JsonValue>,
}

fn render_json(input: RenderInput<'_>) -> String {
    let RenderInput { date, points, functional, sampled, errors, end_to_end } = input;
    let total_wall: f64 = points.iter().map(|p| p.wall_s).sum();
    let total_cycles: u64 = points.iter().map(|p| p.sim_cycles).sum();
    // Per-kernel baseline for the functional speedup: the kernel's
    // fastest *specialized* (cycle-accurate LPSU) point — the rate the
    // fast-forward engine exists to beat. Traditional-mode points run a
    // much cheaper timing model and would understate the gain the
    // sampling pipeline actually sees.
    let best_specialized = |kernel: &str| -> Option<f64> {
        points
            .iter()
            .filter(|p| p.kernel == kernel && p.mode == "specialized")
            .map(|p| p.sim_cycles as f64 / p.wall_s.max(1e-9))
            .fold(None, |acc: Option<f64>, r| Some(acc.map_or(r, |a| a.max(r))))
    };
    let mut doc = JsonValue::object(vec![
        ("date", JsonValue::Str(date.to_string())),
        (
            "points",
            JsonValue::Array(
                points
                    .iter()
                    .map(|p| {
                        let mut fields = vec![
                            ("kernel", JsonValue::Str(p.kernel.to_string())),
                            ("config", JsonValue::Str(p.config.clone())),
                            ("mode", JsonValue::Str(p.mode.to_string())),
                            ("wall_s", JsonValue::Float(r6(p.wall_s))),
                            ("sim_cycles", JsonValue::UInt(p.sim_cycles)),
                            (
                                "sim_cycles_per_sec",
                                JsonValue::UInt(
                                    (p.sim_cycles as f64 / p.wall_s.max(1e-9)).round() as u64
                                ),
                            ),
                        ];
                        if let Some(prof) = &p.profile {
                            fields.push((
                                "profile",
                                JsonValue::object(vec![
                                    ("gpp_ns", JsonValue::UInt(prof.gpp_ns)),
                                    ("scan_ns", JsonValue::UInt(prof.scan_ns)),
                                    ("engine_ns", JsonValue::UInt(prof.engine_ns)),
                                    ("handoffs", JsonValue::UInt(prof.handoffs)),
                                ]),
                            ));
                        }
                        JsonValue::object(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "functional",
            JsonValue::Array(
                functional
                    .iter()
                    .map(|p| {
                        let ips = p.instrs as f64 / p.wall_s.max(1e-9);
                        JsonValue::object(vec![
                            ("kernel", JsonValue::Str(p.kernel.to_string())),
                            ("mode", JsonValue::Str("functional".to_string())),
                            ("instrs", JsonValue::UInt(p.instrs)),
                            ("wall_s", JsonValue::Float(r6(p.wall_s))),
                            ("mips", JsonValue::Float(r6(ips / 1e6))),
                            // Host instrs/s over this kernel's fastest
                            // specialized-point host cycles/s; null for the
                            // scaled variants, which have no detailed point.
                            (
                                "speedup_vs_specialized",
                                best_specialized(p.kernel)
                                    .map_or(JsonValue::Null, |b| JsonValue::Float(r6(ips / b))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sampled",
            JsonValue::Array(
                sampled
                    .iter()
                    .map(|p| {
                        let rel_err = (p.est_cycles as f64 - p.full_cycles as f64).abs()
                            / p.full_cycles.max(1) as f64;
                        JsonValue::object(vec![
                            ("kernel", JsonValue::Str(p.kernel.to_string())),
                            ("config", JsonValue::Str(p.config.clone())),
                            ("spec", JsonValue::Str(SAMPLE_SPEC.to_string())),
                            ("wall_s", JsonValue::Float(r6(p.wall_s))),
                            ("est_cycles", JsonValue::UInt(p.est_cycles)),
                            ("full_cycles", JsonValue::UInt(p.full_cycles)),
                            ("rel_err", JsonValue::Float(r6(rel_err))),
                            ("rel_stderr", JsonValue::Float(r6(p.rel_stderr))),
                            (
                                "est_cycles_per_sec",
                                JsonValue::UInt(
                                    (p.est_cycles as f64 / p.wall_s.max(1e-9)).round() as u64
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("errors", JsonValue::Array(errors.to_vec())),
        (
            "totals",
            JsonValue::object(vec![
                ("wall_s", JsonValue::Float(r6(total_wall))),
                ("sim_cycles", JsonValue::UInt(total_cycles)),
                (
                    "sim_cycles_per_sec",
                    JsonValue::UInt((total_cycles as f64 / total_wall.max(1e-9)).round() as u64),
                ),
            ]),
        ),
    ]);
    if let (Some(section), JsonValue::Object(fields)) = (end_to_end, &mut doc) {
        fields.push(("end_to_end".to_string(), section));
    }
    let mut s = doc.render_pretty();
    s.push('\n');
    s
}

/// Splits `--sweepbench FILE... [--parent FILE...]` into the change
/// and parent file lists.
fn parse_args(args: &[String]) -> Result<[Vec<String>; 2], String> {
    let mut files: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut into = None;
    for arg in args {
        match arg.as_str() {
            "--sweepbench" => into = Some(0),
            "--parent" => into = Some(1),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            path => match into {
                Some(i) => files[i].push(path.to_string()),
                None => return Err(format!("`{path}` must follow --sweepbench or --parent")),
            },
        }
    }
    if files[0].is_empty() && !files[1].is_empty() {
        return Err("--parent needs --sweepbench runs to compare against".to_string());
    }
    Ok(files)
}

/// One workload's sweepbench runs: whether every run was correct, and
/// each metric's unit and values in first-seen order.
#[derive(Default)]
struct Runs {
    runs: usize,
    correct: bool,
    metrics: Vec<(String, String, Vec<f64>)>,
}

/// Reads the closing result line of every sweepbench run in `paths`,
/// grouped by the workload its report line names.
fn read_runs(paths: &[String]) -> Result<BTreeMap<String, Runs>, String> {
    let mut by_workload: BTreeMap<String, Runs> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        fold_runs(&text, &mut by_workload).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(by_workload)
}

/// Folds one sweepbench stdout (one or more runs) into `by_workload`.
fn fold_runs(text: &str, by_workload: &mut BTreeMap<String, Runs>) -> Result<(), String> {
    let mut workload: Option<&str> = None;
    let mut found = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("workload ") {
            workload = rest.split_whitespace().next();
            continue;
        }
        let Ok(doc) = JsonValue::parse(line.trim()) else { continue };
        let (Some(correct), Some(metrics)) = (
            doc.get("correct").and_then(JsonValue::as_bool),
            doc.get("metrics").and_then(JsonValue::as_object),
        ) else {
            continue;
        };
        let name = workload.ok_or("a result line follows no `workload` report line")?;
        let runs = by_workload
            .entry(name.to_string())
            .or_insert_with(|| Runs { correct: true, ..Runs::default() });
        runs.runs += 1;
        runs.correct &= correct;
        for (metric, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64);
            let value = value.ok_or_else(|| format!("metric `{metric}` has no numeric value"))?;
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            match runs.metrics.iter_mut().find(|(n, _, _)| n == metric) {
                Some((_, _, values)) => values.push(value),
                None => runs.metrics.push((metric.clone(), unit.to_string(), vec![value])),
            }
        }
        found += 1;
    }
    if found == 0 {
        return Err("no sweepbench result line".to_string());
    }
    Ok(())
}

/// The `p`-quantile of `values`, interpolating linearly between ranks.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One workload's runs as a document: run count, correctness, and each
/// metric's median and quartiles — plus, against `parent`, the relative
/// change of each median.
fn runs_doc(runs: &Runs, parent: Option<&Runs>) -> JsonValue {
    let metrics = runs
        .metrics
        .iter()
        .map(|(name, unit, values)| {
            let median = quantile(values, 0.5);
            let mut fields = vec![
                ("unit".to_string(), JsonValue::Str(unit.clone())),
                ("median".to_string(), JsonValue::Float(r6(median))),
                ("q1".to_string(), JsonValue::Float(r6(quantile(values, 0.25)))),
                ("q3".to_string(), JsonValue::Float(r6(quantile(values, 0.75)))),
            ];
            let base = parent
                .and_then(|p| p.metrics.iter().find(|(n, _, _)| n == name))
                .map(|(_, _, v)| quantile(v, 0.5));
            if let Some(base) = base.filter(|b| *b != 0.0) {
                fields.push((
                    "delta_vs_parent".to_string(),
                    JsonValue::Float(r6(median / base - 1.0)),
                ));
            }
            (name.clone(), JsonValue::Object(fields))
        })
        .collect();
    let mut fields = vec![
        ("runs".to_string(), JsonValue::UInt(runs.runs as u64)),
        ("correct".to_string(), JsonValue::Bool(runs.correct)),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ];
    if let Some(parent) = parent {
        fields.push(("parent".to_string(), runs_doc(parent, None)));
    }
    JsonValue::Object(fields)
}

/// The `end_to_end` section: one entry per workload of `change`, each
/// beside its `parent` runs when there are any.
fn end_to_end_doc(
    change: &BTreeMap<String, Runs>,
    parent: &BTreeMap<String, Runs>,
) -> Result<JsonValue, String> {
    if let Some(orphan) = parent.keys().find(|w| !change.contains_key(*w)) {
        return Err(format!("--parent has `{orphan}` runs but --sweepbench has none"));
    }
    Ok(JsonValue::Object(
        change.iter().map(|(w, runs)| (w.clone(), runs_doc(runs, parent.get(w)))).collect(),
    ))
}

fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn bench_date() -> String {
    if let Some(d) = RunOptions::from_env().bench_date {
        return d;
    }
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).expect("clock after 1970").as_secs();
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch to (year, month, day), Gregorian calendar
/// (Howard Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "workload sweep_tcp seed 1 (20 s): 150 sweeps, 0 failed\n\
        sweep_s_p50                            0.135000 s\n\
        {\"correct\": true, \"attempted\": 150, \"failed\": 0, \"metrics\": \
        {\"sweep_s_p50\": {\"value\": V, \"unit\": \"s\"}}}\n";

    fn runs(values: &[&str]) -> BTreeMap<String, Runs> {
        let mut by_workload = BTreeMap::new();
        let text: String = values.iter().map(|v| RUN.replace('V', v)).collect();
        fold_runs(&text, &mut by_workload).expect("fold");
        by_workload
    }

    #[test]
    fn sweepbench_runs_fold_into_medians_keyed_by_workload() {
        let change = runs(&["0.13", "0.14", "0.12"]);
        let parent = runs(&["0.16", "0.15"]);
        let doc = end_to_end_doc(&change, &parent).expect("section");
        let tcp = doc.get("sweep_tcp").expect("keyed by workload");
        assert_eq!(tcp.get("runs").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(tcp.get("correct").and_then(JsonValue::as_bool), Some(true));
        let p50 = tcp.get("metrics").and_then(|m| m.get("sweep_s_p50")).expect("metric");
        assert_eq!(p50.get("median").and_then(JsonValue::as_f64), Some(0.13));
        assert_eq!(p50.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(p50.get("delta_vs_parent").and_then(JsonValue::as_f64), Some(-0.16129));
        let base = tcp.get("parent").and_then(|p| p.get("metrics")).expect("parent entry");
        let base = base.get("sweep_s_p50").and_then(|m| m.get("median"));
        assert_eq!(base.and_then(JsonValue::as_f64), Some(0.155));
    }

    #[test]
    fn repeats_fold_to_the_fastest_run_and_reject_cycle_mismatches() {
        let run = |wall_s, sim_cycles, gpp_ns| Point {
            kernel: "k",
            config: "io".to_string(),
            mode: "traditional",
            wall_s,
            sim_cycles,
            profile: Some(ProfileStats { gpp_ns, ..ProfileStats::default() }),
        };
        let runs = vec![run(0.003, 700, 3), run(0.001, 700, 1), run(0.002, 700, 2)];
        let fastest = fold_repeats("k", runs).expect("deterministic");
        assert_eq!((fastest.wall_s, fastest.sim_cycles), (0.001, 700), "least wall, agreed cycles");
        assert_eq!(fastest.profile.map(|p| p.gpp_ns), Some(1), "the fastest run's profile");
        let drift = vec![run(0.001, 700, 0), run(0.002, 701, 0)];
        let message = fold_repeats("k on io (traditional)", drift).err().expect("mismatch");
        assert!(message.contains("k on io (traditional)") && message.contains("701"), "{message}");
    }

    #[test]
    fn sweepbench_input_errors_are_reported() {
        let mut by_workload = BTreeMap::new();
        assert!(fold_runs("no result here\n", &mut by_workload).is_err());
        let orphan = RUN.replace('V', "0.1").replacen("workload sweep_tcp", "", 1);
        assert!(fold_runs(&orphan, &mut by_workload).is_err(), "a result needs its workload");
        assert!(end_to_end_doc(&BTreeMap::new(), &runs(&["0.1"])).is_err());
        assert!(parse_args(&["x.log".to_string()]).is_err());
        assert!(parse_args(&["--parent".to_string(), "x.log".to_string()]).is_err());
        let [change, parent] =
            parse_args(&["--sweepbench", "a", "b", "--parent", "c"].map(String::from)).unwrap();
        assert_eq!((change.len(), parent.len()), (2, 1));
    }
}
