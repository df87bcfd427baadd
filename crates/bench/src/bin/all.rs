//! Regenerates every table and figure of the paper's evaluation.
//! Run with --release; artifacts land in `results/`.
//!
//! One [`Scheduler`] sweep runs the points of every declarative
//! experiment spec ([`all_specs`]): points shared between specs
//! deduplicate by what they simulate, so each unique simulation executes
//! exactly once — fanned out over all hardware threads, serially with
//! `XLOOPS_BENCH_SERIAL=1`, or on worker processes with
//! `XLOOPS_WORKERS=N` (byte-identical artifacts every way). Each spec
//! then renders from its point results. Wall-clock timing of the sweep
//! and of each render is printed at the end, with the simulated-point
//! count.
//!
//! With `--store DIR` (or `XLOOPS_STORE=DIR`) the sweep goes through the
//! durable result store: previously finished points are read from disk,
//! only the rest simulate, and fresh results are written back — the
//! artifacts are byte-identical either way.

use std::time::Instant;

use xloops_bench::experiments::all_specs;
use xloops_bench::manifest::{render_spec, PointResult};
use xloops_bench::sched::{all_points, Scheduler};
use xloops_bench::{emit, ResultStore};

fn main() {
    let total = Instant::now();
    let specs = all_specs();

    let mut args = std::env::args().skip(1);
    let store = match args.next().as_deref() {
        Some("--store") => {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("--store expects a directory");
                std::process::exit(2);
            });
            match ResultStore::open(&dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("--store {dir}: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some(other) => {
            eprintln!("unknown option `{other}` (usage: all [--store DIR])");
            std::process::exit(2);
        }
        None => ResultStore::from_env(),
    };

    let options = xloops_sim::RunOptions::from_env();
    let t = Instant::now();
    let swept = Scheduler::new(options, store.as_ref()).run(&all_points(&specs));
    let simulate_s = t.elapsed().as_secs_f64();

    for (spec, outcomes) in specs.iter().zip(swept.outcomes) {
        let t = Instant::now();
        let results: Vec<PointResult> = outcomes.into_iter().map(|o| o.result).collect();
        emit(&spec.name, &render_spec(spec, &results));
        println!("[time] render {:<8}{:8.3} s", spec.name, t.elapsed().as_secs_f64());
    }

    println!(
        "[time] load+simulate  {simulate_s:8.3} s  ({} simulated point(s), {} worker thread(s))",
        swept.prefill.unique_points, swept.prefill.workers,
    );
    if let Some(store) = &store {
        let s = store.stats();
        println!(
            "[store] {} hits, {} misses, {} bytes read, {} bytes written ({})",
            s.hits,
            s.misses,
            s.bytes_read,
            s.bytes_written,
            store.dir().display(),
        );
    }
    println!("[time] total          {:8.3} s", total.elapsed().as_secs_f64());

    // Quarantined points: every artifact above still rendered (with
    // placeholder numbers at the sick points), but the run as a whole must
    // fail loudly so CI catches it.
    if !swept.failures.is_empty() {
        eprintln!("[errors] {} simulation point(s) quarantined:", swept.failures.len());
        for f in &swept.failures {
            eprintln!(
                "[errors]   {} on {:?} ({:?}{}): {}",
                f.key.kernel,
                f.key.config,
                f.key.mode,
                if f.key.gp_lowered { ", gp-lowered" } else { "" },
                f.message
            );
        }
        std::process::exit(1);
    }
}
