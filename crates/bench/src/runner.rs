//! One simulation point, one execution path.
//!
//! The paper's artifacts overlap heavily: Table II, Figures 5–8, and the
//! ablation all ask for the same (kernel, system config, exec mode)
//! points. A point is named by what it simulates — its [`RunKey`] —
//! and each name is built in exactly one place:
//!
//! - [`Simulation::new`] is the one baseline normalization (a GP-ISA
//!   baseline strips the LPSU, forces [`ExecMode::Traditional`], and runs
//!   under the sweep-wide sampling spec);
//! - [`Simulation::of_point`] is the one [`SpecPoint`] → [`RunKey`]
//!   mapping, which the scheduler dedupes every route by;
//! - [`execute`] is the one panic firewall: a point that panics (bad
//!   kernel, simulator bug, exceeded cycle budget under
//!   `XLOOPS_CYCLE_BUDGET`) or surfaces a typed [`SimError`] comes back as
//!   a placeholder [`RunResult`] carrying the diagnosis in
//!   [`RunResult::error`], plus the typed error when there is one — one
//!   sick point cannot take down a whole artifact regeneration.
//!
//! The scheduler's in-process fan-out ([`crate::sched`]), the worker's
//! job handler ([`crate::worker`]), and the live [`Runner`] memo all call
//! [`execute`]. Each execution builds a fresh [`xloops_sim::System`] and
//! the simulator is deterministic, so results are independent of which
//! route, thread, or process ran the point.
//!
//! A [`Runner`] is a lazy in-memory memo over [`execute`] for callers that
//! request points one at a time (benchmarks, tests): misses simulate
//! inline and are cached under their [`RunKey`]. Its [`RunOptions`] fix
//! the supervision policy, the default sampling spec, and profiling.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xloops_asm::lower_gp;
use xloops_kernels::{by_name, Kernel};
use xloops_sim::{
    ConfigKey, ExecMode, RunOptions, SampleSpec, SimError, SystemConfig, SystemStats,
};

use crate::manifest::SpecPoint;
use crate::{try_run_program, RunResult};

/// Canonical identity of one simulation point: two requests with equal
/// keys simulate the same thing, so every route simulates them once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Kernel name (resolvable via [`xloops_kernels::by_name`]).
    pub kernel: &'static str,
    /// Stable identity of the system configuration.
    pub config: ConfigKey,
    /// Execution mode.
    pub mode: ExecMode,
    /// Whether the program is first lowered to the GP ISA (baselines).
    pub gp_lowered: bool,
    /// The sampling spec the point runs under (`None` = every cycle in
    /// detail). Part of the identity: a sampled run and a full run of the
    /// same point produce different (estimated vs exact) cycle counts.
    pub sample: Option<SampleSpec>,
}

/// One simulation to execute: its key plus the full config (the key's
/// energy fingerprint is not invertible, so the table rides along).
#[derive(Clone, Copy, Debug)]
pub struct Simulation {
    /// What the simulation computes.
    pub key: RunKey,
    /// The normalized system configuration it runs on.
    pub config: SystemConfig,
}

impl Simulation {
    /// Names a simulation, normalizing baselines exactly as they execute:
    /// a GP-lowered run has no LPSU, runs traditionally, and uses the
    /// sweep-wide [`RunOptions::sample`] (per-point sampling applies to
    /// kernel runs only). So a baseline requested against `ooo/2+x` and
    /// one requested against plain `ooo/2` share a key. Other runs take
    /// `sample`, falling back to the sweep-wide spec.
    pub fn new(
        kernel: &'static str,
        config: SystemConfig,
        mode: ExecMode,
        gp_lowered: bool,
        sample: Option<SampleSpec>,
        options: &RunOptions,
    ) -> Simulation {
        let (config, mode, sample) = if gp_lowered {
            (SystemConfig { lpsu: None, ..config }, ExecMode::Traditional, options.sample)
        } else {
            (config, mode, sample.or(options.sample))
        };
        Simulation {
            key: RunKey { kernel, config: config.key(), mode, gp_lowered, sample },
            config,
        }
    }

    /// The simulation a spec point names under `options`. A kernel name
    /// the spec invented (parsed specs are validated, so only code can
    /// build one) keys under that name, leaked so the key stays `Copy`;
    /// [`execute`] quarantines it rather than crashing — the failure is
    /// the report.
    pub fn of_point(p: &SpecPoint, options: &RunOptions) -> Simulation {
        let kernel = by_name(&p.kernel)
            .map_or_else(|| &*Box::leak(p.kernel.clone().into_boxed_str()), |k| k.name);
        Simulation::new(kernel, p.config.resolve(), p.mode, p.gp_lowered, p.sampling, options)
    }
}

/// One quarantined simulation point: its identity plus the panic message
/// (or simulation-error diagnosis) that took it down.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// Identity of the failed point.
    pub key: RunKey,
    /// The diagnosis (panic payload or rendered simulation error).
    pub message: String,
    /// The typed error class when the failure was a [`SimError`] rather
    /// than a panic — kept so downstream reporting (job states, error
    /// documents) preserves the class and its exit code.
    pub sim: Option<SimError>,
}

/// Simulates one point on a fresh system behind the panic firewall. The
/// key's effective sampling spec replaces the one in `options`, so the
/// simulator sees exactly what the key promises. A point that panics or
/// fails yields a placeholder result carrying the diagnosis in
/// [`RunResult::error`]; a typed failure also returns its [`SimError`].
pub fn execute(sim: &Simulation, options: &RunOptions) -> (RunResult, Option<SimError>) {
    let (message, error) = match catch_unwind(AssertUnwindSafe(|| try_execute(sim, options))) {
        Ok(Ok(result)) => return (result, None),
        Ok(Err(e)) => {
            let what = if sim.key.gp_lowered { "baseline" } else { "run" };
            (format!("{} {what} on {}: {e}", sim.key.kernel, sim.config.name()), Some(e))
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (message, None)
        }
    };
    let placeholder = RunResult {
        cycles: 1,
        energy_nj: 1.0,
        stats: SystemStats::default(),
        error: Some(message),
    };
    (placeholder, error)
}

fn try_execute(sim: &Simulation, options: &RunOptions) -> Result<RunResult, SimError> {
    let key = &sim.key;
    let kernel = by_name(key.kernel)
        .unwrap_or_else(|| panic!("spec references unknown kernel {}", key.kernel));
    let options = RunOptions { sample: key.sample, ..options.clone() };
    if key.gp_lowered {
        let program = lower_gp(&kernel.program);
        try_run_program(kernel, &program, sim.config, key.mode, &options, "baseline")
    } else {
        try_run_program(kernel, &kernel.program, sim.config, key.mode, &options, "run")
    }
}

/// Cache traffic counters (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests made.
    pub lookups: u64,
    /// Requests served from the cache.
    pub hits: u64,
    /// Simulations actually executed.
    pub sims: u64,
}

/// Lazy memoizing runner: requests are served from the cache, misses run
/// through [`execute`] inline and are cached under their [`RunKey`].
pub struct Runner {
    options: RunOptions,
    cache: Mutex<HashMap<RunKey, RunResult>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    sims: AtomicU64,
}

impl Default for Runner {
    fn default() -> Runner {
        Runner::new()
    }
}

impl Runner {
    /// A runner with explicit options.
    pub fn with_options(options: RunOptions) -> Runner {
        Runner {
            options,
            cache: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            sims: AtomicU64::new(0),
        }
    }

    /// [`Runner::with_options`] with options read from the environment.
    pub fn new() -> Runner {
        Runner::with_options(RunOptions::from_env())
    }

    /// Requests a kernel run (memoized [`crate::run_kernel`]).
    pub fn run(&self, kernel: &Kernel, config: SystemConfig, mode: ExecMode) -> RunResult {
        self.run_sampled(kernel, config, mode, None)
    }

    /// Requests a kernel run with a per-point sampling override; `None`
    /// falls back to the runner-wide [`RunOptions::sample`]. The effective
    /// spec is part of the cache key, so a sampled point and the full run
    /// of the same configuration never alias.
    pub fn run_sampled(
        &self,
        kernel: &Kernel,
        config: SystemConfig,
        mode: ExecMode,
        sample: Option<SampleSpec>,
    ) -> RunResult {
        self.request(Simulation::new(kernel.name, config, mode, false, sample, &self.options))
    }

    /// Requests a GP-ISA baseline run (memoized [`crate::run_gp_baseline`]).
    pub fn baseline(&self, kernel: &Kernel, config: SystemConfig) -> RunResult {
        let mode = ExecMode::Traditional;
        self.request(Simulation::new(kernel.name, config, mode, true, None, &self.options))
    }

    fn request(&self, sim: Simulation) -> RunResult {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.cache.lock().unwrap().get(&sim.key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        let (result, _) = execute(&sim, &self.options);
        self.sims.fetch_add(1, Ordering::Relaxed);
        self.cache.lock().unwrap().insert(sim.key, result.clone());
        result
    }

    /// Snapshot of the traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            sims: self.sims.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use xloops_lpsu::LpsuConfig;

    #[test]
    fn cache_hit_returns_identical_result() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = Runner::new();
        let first = runner.run(k, SystemConfig::io_x(), ExecMode::Specialized);
        let second = runner.run(k, SystemConfig::io_x(), ExecMode::Specialized);
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.energy_nj, second.energy_nj);
        assert_eq!(first.stats, second.stats);
        let s = runner.cache_stats();
        assert_eq!((s.lookups, s.hits, s.sims), (2, 1, 1));
    }

    #[test]
    fn cached_result_matches_uncached_harness_calls() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = Runner::new();
        let spec = runner.run(k, SystemConfig::io_x(), ExecMode::Specialized);
        let base = runner.baseline(k, SystemConfig::io_x());
        assert_eq!(
            spec.cycles,
            crate::run_kernel(k, SystemConfig::io_x(), ExecMode::Specialized).cycles
        );
        assert_eq!(base.cycles, crate::run_gp_baseline(k, SystemConfig::io_x()).cycles);
    }

    #[test]
    fn baselines_normalize_away_the_lpsu() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = Runner::new();
        let with_lpsu = runner.baseline(k, SystemConfig::io_x());
        let without = runner.baseline(k, SystemConfig::io());
        // Same canonical point: the second request must be a cache hit.
        assert_eq!(with_lpsu.cycles, without.cycles);
        let s = runner.cache_stats();
        assert_eq!((s.lookups, s.hits, s.sims), (2, 1, 1));
    }

    #[test]
    fn spec_points_and_runner_requests_share_one_key() {
        // A spec baseline point and the runner's baseline request name the
        // same simulation, whatever LPSU or sampling the point carries.
        let options = RunOptions::default();
        let mut p = SpecPoint {
            kernel: "huffman-ua".into(),
            config: crate::manifest::ConfigSpec {
                gpp: crate::manifest::GppPreset::Io,
                lpsu: None,
                energy: Default::default(),
            },
            mode: ExecMode::Traditional,
            gp_lowered: true,
            sampling: None,
        };
        let io_x = SystemConfig::io_x();
        let direct =
            Simulation::new("huffman-ua", io_x, ExecMode::Specialized, true, None, &options);
        assert_eq!(Simulation::of_point(&p, &options).key, direct.key);
        p.config.lpsu = Some(LpsuConfig::default4());
        p.sampling = Some(SampleSpec::new(500, 100, 500).unwrap());
        assert_eq!(Simulation::of_point(&p, &options).key, direct.key);
        // A kernel run keeps its own sampling spec.
        p.gp_lowered = false;
        assert_eq!(Simulation::of_point(&p, &options).key.sample, p.sampling);
    }

    #[test]
    fn run_keys_distinguish_all_experiment_configs() {
        // Every system configuration any report sweeps must map to its own
        // RunKey, else the cache would alias distinct design points.
        // fig9's `x4` variant (plain default4) IS ooo4_x — the cache is
        // meant to share that point, so it is not in this distinct list.
        assert_eq!(
            SystemConfig::ooo4_x().with_lpsu(LpsuConfig::default4()).key(),
            SystemConfig::ooo4_x().key(),
        );
        let fig9_lpsus = [
            LpsuConfig::default4().with_multithreading(),
            LpsuConfig::default4().with_lanes(8),
            LpsuConfig::default4().with_lanes(8).with_double_resources(),
            LpsuConfig::default4().with_lanes(8).with_double_resources().with_big_lsq(),
            // Ablation variants.
            LpsuConfig::default4().with_cross_lane_forwarding(),
            LpsuConfig::default4().with_cib_latency(2),
            LpsuConfig::default4().with_cib_latency(4),
        ];
        let mut configs: Vec<SystemConfig> = vec![
            SystemConfig::io(),
            SystemConfig::ooo2(),
            SystemConfig::ooo4(),
            SystemConfig::io_x(),
            SystemConfig::ooo2_x(),
            SystemConfig::ooo4_x(),
            SystemConfig::io().with_energy(xloops_energy::EnergyTable::vlsi40()),
            SystemConfig::io_x().with_energy(xloops_energy::EnergyTable::vlsi40()),
        ];
        configs.extend(fig9_lpsus.iter().map(|l| SystemConfig::ooo4_x().with_lpsu(*l)));
        configs.extend(
            [
                LpsuConfig::default4().with_cross_lane_forwarding(),
                LpsuConfig::default4().with_cib_latency(2),
            ]
            .iter()
            .map(|l| SystemConfig::ooo2_x().with_lpsu(*l)),
        );
        let mut keys = HashSet::new();
        for c in &configs {
            let key = RunKey {
                kernel: "k",
                config: c.key(),
                mode: ExecMode::Specialized,
                gp_lowered: false,
                sample: None,
            };
            assert!(keys.insert(key), "config aliased another: {}", c.name());
        }
        // Mode, lowering flag, and sampling spec are part of the identity too.
        let c = SystemConfig::io_x();
        let base = RunKey {
            kernel: "k",
            config: c.key(),
            mode: ExecMode::Specialized,
            gp_lowered: false,
            sample: None,
        };
        assert_ne!(base, RunKey { mode: ExecMode::Adaptive, ..base });
        assert_ne!(base, RunKey { mode: ExecMode::Traditional, ..base });
        assert_ne!(base, RunKey { gp_lowered: true, ..base });
        assert_ne!(base, RunKey { kernel: "other", ..base });
        let spec = SampleSpec::new(10_000, 2_000, 50_000).unwrap();
        assert_ne!(base, RunKey { sample: Some(spec), ..base });
    }

    #[test]
    fn sampled_and_full_runs_occupy_distinct_cache_slots() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = Runner::new();
        let full = runner.run(k, SystemConfig::io_x(), ExecMode::Specialized);
        let spec = SampleSpec::new(500, 100, 500).unwrap();
        let sampled =
            runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, Some(spec));
        // Two distinct simulations, not one cache hit.
        let s = runner.cache_stats();
        assert_eq!((s.lookups, s.hits, s.sims), (2, 0, 2));
        // Only the sampled run reports sampling statistics, and its
        // extrapolated cycle count tracks the exact one.
        assert!(full.stats.sampling.is_none());
        let samp = sampled.stats.sampling.as_ref().expect("sampling stats attached");
        assert!(samp.intervals > 0);
        let err = (sampled.cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
        assert!(err < 0.05, "sampled {} vs full {} ({err:.3})", sampled.cycles, full.cycles);
        // A repeated sampled request is served from the cache.
        let again = runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, Some(spec));
        assert_eq!(again.cycles, sampled.cycles);
        assert_eq!(runner.cache_stats().hits, 1);
    }

    #[test]
    fn panicking_point_is_quarantined_not_fatal() {
        // An unknown kernel name panics inside `execute`; the firewall must
        // quarantine it instead of unwinding the harness.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // quiet the expected panic
        let p = SpecPoint {
            kernel: "no-such-kernel".into(),
            config: crate::manifest::ConfigSpec {
                gpp: crate::manifest::GppPreset::Io,
                lpsu: None,
                energy: Default::default(),
            },
            mode: ExecMode::Traditional,
            gp_lowered: false,
            sampling: None,
        };
        let options = RunOptions::default();
        let (r, typed) = execute(&Simulation::of_point(&p, &options), &options);
        std::panic::set_hook(hook);
        let message = r.error.as_deref();
        assert_eq!(message, Some("spec references unknown kernel no-such-kernel"), "{r:?}");
        assert!(typed.is_none(), "a panic carries no typed class");
    }
}
