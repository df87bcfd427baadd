//! `bench-summary`: the machine-readable performance trajectory.
//!
//! Times every table-2 kernel on four representative design points (io
//! and ooo/4, traditional and specialized), the threaded-code functional
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

fn main() {
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
            let t = Instant::now();
            // Panic firewall: a sick point lands in the `errors` section of
            // the JSON instead of killing the whole summary.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_kernel(kernel, config, mode)
            }));
            match caught {
                Ok(r) => points.push(Point {
                    kernel: kernel.name,
                    config: config.name(),
                    mode: mode_tag(mode),
                    wall_s: t.elapsed().as_secs_f64(),
                    sim_cycles: r.cycles,
                    profile: r.stats.profile,
                }),
                Err(payload) => {
                    let message = format!(
                        "{} on {} ({}): {}",
                        kernel.name,
                        config.name(),
                        mode_tag(mode),
                        panic_message(payload)
                    );
                    errors.push(error_doc(&message, 1));
                }
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
}

fn render_json(input: RenderInput<'_>) -> String {
    let RenderInput { date, points, functional, sampled, errors } = input;
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
    let doc = JsonValue::object(vec![
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
    let mut s = doc.render_pretty();
    s.push('\n');
    s
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
