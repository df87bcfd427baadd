//! Implementation of the `xloops` command-line tool (`src/bin/xloops.rs`).
//!
//! Subcommands:
//!
//! ```text
//! xloops asm <file.s> [-o <file.bin>]        assemble to a binary image
//! xloops disasm <file.bin>                   disassemble a binary image
//! xloops run <file.s> [options]              assemble + simulate
//! xloops kernels                             list the bundled paper kernels
//! xloops kernel <name> [options]             run a bundled kernel and verify
//! xloops manifest [<name>] [-o <file>]       list specs / emit one as JSON
//! xloops sweep --manifest <file> [--shard K/N] [--store DIR] [--out <file>]
//!                                            run one shard of a manifest
//! xloops merge [--store DIR] <shard>...      recombine shards and render
//!
//! run/kernel options:
//!   --config io|ooo2|ooo4|io+x|ooo2+x|ooo4+x   (default io+x)
//!   --mode   traditional|specialized|adaptive  (default specialized)
//!   --init   ADDR=VALUE    (repeatable; hex accepted)
//!   --dump   ADDR:WORDS    print memory after the run
//!   --trace  N             print the first N instructions (functional trace)
//!   --stats  text|json     report format (json emits the unified StatSet tree)
//!   --faults SEED[:N]      inject N (default 3) seeded faults (supervised run)
//!   --checkpoint CYCLES    supervise with this checkpoint interval
//!   --budget CYCLES        supervise with an end-to-end cycle budget
//!   --sample N:W:M         interval-sampled run: fast-forward N instructions,
//!                          warm W cycles, measure M cycles per window
//!                          (mutually exclusive with supervision flags)
//! ```
//!
//! The binary image format is the raw little-endian instruction words,
//! starting at pc 0.
//!
//! Exit codes: `0` success, `1` generic failure, `2` usage/parse error,
//! `3` simulation wedge ([`crate::sim::SimError::NoForwardProgress`]),
//! `4` architectural/injected fault, `5` exceeded cycle budget, `6` lost
//! worker process ([`crate::sim::SimError::WorkerLost`]), `7` expired job
//! deadline ([`crate::sim::SimError::Timeout`]).
//!
//! There is also a hidden `xloops worker` subcommand: the child half of
//! the supervised worker pool (`XLOOPS_WORKERS`), speaking NDJSON on
//! stdin/stdout. It is spawned by the scheduler, not by people — except
//! in its `xloops worker --connect HOST:PORT` form, which dials a TCP
//! daemon and registers as a remote executor. See [`crate::bench::worker`].

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::asm::{assemble, disassemble, Program};
use crate::bench::experiments::{all_specs, spec_by_name};
use crate::bench::manifest::{render_spec, ExperimentSpec, MergeFold, ShardDoc};
use crate::bench::proto;
use crate::bench::serve::{self, Daemon, ServeConfig};
use crate::bench::store::run_shard_stored;
use crate::bench::transport::Endpoint;
use crate::bench::ResultStore;
use crate::kernels;
use crate::sim::{
    ExecMode, FaultPlan, SampleSpec, SimError, Supervisor, SupervisorConfig, System, SystemConfig,
};
use crate::stats::{JsonValue, StatValue};

/// A failed CLI command: the process exit code, a one-line human
/// diagnosis for stderr, and (under `--stats json`) a machine-readable
/// error document for stdout.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code (`1` generic, `3` wedge, `4` fault, `5` budget —
    /// parse errors exit `2` before [`execute`] is reached).
    pub code: i32,
    /// One-line diagnosis.
    pub message: String,
    /// JSON error document (only under `--stats json`).
    pub json: Option<String>,
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { code: 1, message, json: None }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError { code: 1, message: message.to_string(), json: None }
    }
}

/// Maps a simulation error to its CLI surface: distinct exit code, the
/// one-line diagnosis (a wedge reports the loop pc and stalled-context
/// count), and a JSON error document when `--stats json` was requested.
/// The document body is [`SimError::to_json_value`] — the same canonical
/// shape `bench-summary`'s `"errors"` array and the serve daemon's
/// per-job failure reports use.
fn sim_error(e: SimError, stats_json: bool) -> CliError {
    let json = stats_json.then(|| {
        let doc = JsonValue::object(vec![("error", e.to_json_value())]);
        doc.render() + "\n"
    });
    CliError { code: e.exit_code(), message: e.to_string(), json }
}

/// Maps a manifest/shard schema or merge failure to a usage-class error:
/// a malformed or mismatched input document is the caller's mistake, so it
/// exits `2` like any other parse error.
fn manifest_error(e: impl std::fmt::Display) -> CliError {
    CliError { code: 2, message: e.to_string(), json: None }
}

/// Resolves the durable store for `sweep`/`merge`: an explicit `--store`
/// directory must open (usage error otherwise); absent the flag, the
/// `XLOOPS_STORE` environment knob is consulted, whose failure is soft (a
/// sweep without a store is merely cold).
fn open_store(flag: Option<String>) -> Result<Option<ResultStore>, CliError> {
    match flag {
        Some(dir) => ResultStore::open(&dir)
            .map(Some)
            .map_err(|e| manifest_error(format!("--store {dir}: {e}"))),
        None => Ok(ResultStore::from_env()),
    }
}

/// A parsed CLI invocation.
#[derive(Debug)]
pub enum Command {
    Asm {
        source: String,
        out: Option<String>,
    },
    Disasm {
        image: Vec<u8>,
    },
    Run {
        source: String,
        opts: RunOptions,
    },
    Kernels,
    Kernel {
        name: String,
        opts: RunOptions,
    },
    /// `manifest` (list the specs) or `manifest <name>` (emit its JSON,
    /// optionally to a file with `-o`).
    Manifest {
        name: Option<String>,
        out: Option<String>,
    },
    /// `sweep --manifest FILE [--shard K/N] [--store DIR] [--out FILE]`:
    /// run one shard of a spec; `manifest` holds the spec file's contents.
    Sweep {
        manifest: String,
        shard: (usize, usize),
        out: Option<String>,
        store: Option<String>,
    },
    /// `merge [--store DIR] FILE...`: recombine JSON shard documents and
    /// render the artifact. `shards` holds paths, not contents: merging
    /// is a streaming fold, each file read, folded, and dropped before
    /// the next is opened.
    Merge {
        shards: Vec<String>,
        store: Option<String>,
    },
    /// `serve [--sock PATH] [--listen tcp://ADDR] [--store DIR]`: host
    /// the scheduler as a long-running daemon on a Unix socket — and,
    /// with `--listen` (or `XLOOPS_LISTEN`), a TCP listener alongside it
    /// (blocks until `shutdown`).
    Serve {
        sock: Option<String>,
        listen: Option<String>,
        store: Option<String>,
    },
    /// `submit MANIFEST [--wait] [--sock PATH]`: send a manifest to the
    /// daemon; `manifest` holds the spec file's contents. With `--wait`
    /// the rendered artifact is the output.
    Submit {
        manifest: String,
        wait: bool,
        sock: Option<String>,
    },
    /// `status [JOB] [--sock PATH]`: query a submitted sweep by its job
    /// id (the manifest fingerprint), or — with no job id — list every
    /// job the daemon knows.
    Status {
        job: Option<String>,
        sock: Option<String>,
    },
    /// `worker --connect HOST:PORT` (or `XLOOPS_CONNECT`): dial a daemon
    /// and serve as a registered executor. A worker pool spawns the bare
    /// form with `XLOOPS_CONNECT` naming its private socket.
    Worker {
        connect: Option<String>,
    },
    /// `shutdown [--sock PATH]`: stop the daemon cleanly.
    Shutdown {
        sock: Option<String>,
    },
    /// `store prune --manifest FILE... [--store DIR]`: delete store
    /// entries no manifest's points (under the current `XLOOPS_*` run
    /// options) can ever hit again. `manifests` holds spec file contents.
    StorePrune {
        manifests: Vec<String>,
        store: Option<String>,
    },
    /// `store stat [--store DIR]`: count a store's records, segments and
    /// bytes, and name any segment whose scan stopped early. Read-only.
    StoreStat {
        store: Option<String>,
    },
    Help,
}

/// Options shared by `run` and `kernel`.
#[derive(Debug)]
pub struct RunOptions {
    pub config: SystemConfig,
    pub mode: ExecMode,
    pub inits: Vec<(u32, u32)>,
    pub dumps: Vec<(u32, u32)>,
    /// Print the first N instructions of a functional trace (0 = off).
    pub trace: u32,
    /// Emit the unified [`crate::stats::StatSet`] tree as JSON instead of
    /// the human-readable report (`--stats json`).
    pub stats_json: bool,
    /// `--faults SEED[:N]`: inject N seeded faults under supervision.
    pub faults: Option<(u64, usize)>,
    /// `--checkpoint CYCLES`: supervise with this checkpoint interval.
    pub checkpoint: Option<u64>,
    /// `--budget CYCLES`: supervise with an end-to-end cycle budget.
    pub budget: Option<u64>,
    /// `--sample N:W:M`: interval-sampled simulation.
    pub sample: Option<SampleSpec>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            config: SystemConfig::io_x(),
            mode: ExecMode::Specialized,
            inits: Vec::new(),
            dumps: Vec::new(),
            trace: 0,
            stats_json: false,
            faults: None,
            checkpoint: None,
            budget: None,
            sample: None,
        }
    }
}

impl RunOptions {
    /// Whether any supervision flag was given (fault injection implies
    /// supervision: injected faults are meant to be recovered from).
    fn supervised(&self) -> bool {
        self.faults.is_some() || self.checkpoint.is_some() || self.budget.is_some()
    }

    /// Runs `program` on `sys` — plain when no supervision flag was given,
    /// supervised (with any fault plan, checkpoint interval, and budget)
    /// otherwise.
    fn run_system(
        &self,
        sys: &mut System,
        program: &Program,
    ) -> Result<crate::sim::SystemStats, SimError> {
        // Host-phase profiling rides on the same env knob everywhere
        // (`XLOOPS_BENCH_PROFILE`); stats gain a `profile.*` node.
        sys.set_profiling(crate::sim::RunOptions::from_env().profile);
        if let Some(spec) = self.sample {
            // Parsing rejects --sample alongside supervision flags.
            return sys.run_sampled(program, self.mode, spec);
        }
        if !self.supervised() {
            return sys.run(program, self.mode);
        }
        let mut cfg = SupervisorConfig::protected();
        if let Some(interval) = self.checkpoint {
            cfg.checkpoint_interval = interval.max(1);
        }
        cfg.cycle_budget = self.budget;
        let mut sup = Supervisor::new(sys, cfg);
        if let Some((seed, n)) = self.faults {
            sup = sup.with_plan(FaultPlan::seeded(seed, n));
        }
        sup.run(program, self.mode)
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "xloops — explicit loop specialization toolchain & simulator\n\n\
     usage:\n\
     \x20 xloops asm <file.s> [-o <file.bin>]\n\
     \x20 xloops disasm <file.bin>\n\
     \x20 xloops run <file.s> [--config C] [--mode M] [--init A=V]... [--dump A:N]... [--trace N] [--stats F]\n\
     \x20 xloops kernels\n\
     \x20 xloops kernel <name> [--config C] [--mode M] [--stats F]\n\
     \x20 xloops manifest [<name>] [-o <file>]\n\
     \x20 xloops sweep --manifest <file> [--shard K/N] [--store DIR] [--out <file>]\n\
     \x20 xloops merge [--store DIR] <shard.json>...\n\
     \x20 xloops serve [--sock PATH] [--listen tcp://ADDR] [--store DIR]\n\
     \x20 xloops submit <spec.json> [--wait] [--sock PATH]\n\
     \x20 xloops status [<job>] [--sock PATH]\n\
     \x20 xloops shutdown [--sock PATH]\n\
     \x20 xloops store prune --manifest <file>... [--store DIR]\n\
     \x20 xloops store stat [--store DIR]\n\n\
     configs: io ooo2 ooo4 io+x ooo2+x ooo4+x   modes: traditional specialized adaptive\n\
     stats formats: text (default) json\n\
     supervision (run/kernel): --faults SEED[:N]  --checkpoint CYCLES  --budget CYCLES\n\
     sampling (run/kernel):    --sample N:W:M (ff N instrs, warm W cycles, measure M cycles)\n\
     store (sweep/merge/serve/prune): --store DIR (or XLOOPS_STORE=DIR) caches point\n\
     \x20                  results durably\n\
     daemon (serve/submit/status/shutdown): --sock PATH (or XLOOPS_SOCK=PATH) names the\n\
     \x20                  Unix socket (clients may also dial tcp://HOST:PORT); a sweep's\n\
     \x20                  job id is its manifest fingerprint; status with no job lists\n\
     \x20                  every known job; clients time out after XLOOPS_CLIENT_TIMEOUT\n\
     \x20                  ms (default 10000, 0 = never)\n\
     network (serve): --listen tcp://HOST:PORT (or XLOOPS_LISTEN) opens a TCP listener\n\
     \x20                  alongside the Unix socket; XLOOPS_TOKEN=SECRET gates TCP\n\
     \x20                  peers (clients and remote workers send the same token);\n\
     \x20                  remote executors dial in with `xloops worker --connect\n\
     \x20                  HOST:PORT` (or XLOOPS_CONNECT)\n\
     workers (sweep/serve): XLOOPS_WORKERS=N runs jobs in N supervised worker\n\
     \x20                  processes; XLOOPS_JOB_TIMEOUT=MS sets a per-attempt job\n\
     \x20                  deadline (default off); XLOOPS_MAX_RETRIES=N bounds retries\n\
     \x20                  after worker crashes (default 2)\n\
     exit codes: 0 ok, 1 error, 2 usage, 3 wedge, 4 fault, 5 cycle budget,\n\
     \x20           6 worker lost, 7 job deadline\n"
}

fn parse_u32(s: &str) -> Result<u32, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad number `{s}`: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
    }
}

fn parse_config(s: &str) -> Result<SystemConfig, String> {
    Ok(match s {
        "io" => SystemConfig::io(),
        "ooo2" | "ooo/2" => SystemConfig::ooo2(),
        "ooo4" | "ooo/4" => SystemConfig::ooo4(),
        "io+x" => SystemConfig::io_x(),
        "ooo2+x" | "ooo/2+x" => SystemConfig::ooo2_x(),
        "ooo4+x" | "ooo/4+x" => SystemConfig::ooo4_x(),
        other => return Err(format!("unknown config `{other}`")),
    })
}

fn parse_mode(s: &str) -> Result<ExecMode, String> {
    Ok(match s {
        "t" | "traditional" => ExecMode::Traditional,
        "s" | "specialized" => ExecMode::Specialized,
        "a" | "adaptive" => ExecMode::Adaptive,
        other => return Err(format!("unknown mode `{other}`")),
    })
}

/// Parses a `--shard K/N` operand: `N > 0`, `K < N`.
fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let (k, n) = s.split_once('/').ok_or_else(|| format!("bad --shard `{s}` (expect K/N)"))?;
    let index: usize = k.parse().map_err(|e| format!("bad shard index `{k}`: {e}"))?;
    let of: usize = n.parse().map_err(|e| format!("bad shard count `{n}`: {e}"))?;
    if of == 0 || index >= of {
        return Err(format!("impossible shard {index}/{of} (need 0 <= K < N)"));
    }
    Ok((index, of))
}

fn parse_run_options(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| it.next().cloned().ok_or_else(|| format!("{a} expects {what}"));
        match a.as_str() {
            "--config" => opts.config = parse_config(&next("a config name")?)?,
            "--mode" => opts.mode = parse_mode(&next("a mode")?)?,
            "--init" => {
                let spec = next("ADDR=VALUE")?;
                let (addr, value) =
                    spec.split_once('=').ok_or_else(|| format!("bad --init `{spec}`"))?;
                opts.inits.push((parse_u32(addr)?, parse_u32(value)?));
            }
            "--dump" => {
                let spec = next("ADDR:WORDS")?;
                let (addr, n) =
                    spec.split_once(':').ok_or_else(|| format!("bad --dump `{spec}`"))?;
                opts.dumps.push((parse_u32(addr)?, parse_u32(n)?));
            }
            "--trace" => opts.trace = parse_u32(&next("an instruction count")?)?,
            "--faults" => {
                let spec = next("SEED[:N]")?;
                let (seed, n) = match spec.split_once(':') {
                    Some((seed, n)) => (
                        parse_u32(seed)? as u64,
                        n.parse::<usize>().map_err(|e| format!("bad fault count `{n}`: {e}"))?,
                    ),
                    None => (parse_u32(&spec)? as u64, 3),
                };
                opts.faults = Some((seed, n));
            }
            "--checkpoint" => opts.checkpoint = Some(parse_u32(&next("a cycle interval")?)? as u64),
            "--budget" => opts.budget = Some(parse_u32(&next("a cycle budget")?)? as u64),
            "--sample" => {
                let spec = next("N:W:M")?;
                opts.sample = Some(spec.parse().map_err(|e| format!("{e}"))?);
            }
            "--stats" => {
                opts.stats_json = match next("a format (text|json)")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown stats format `{other}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.sample.is_some() && opts.supervised() {
        return Err("--sample cannot be combined with --faults/--checkpoint/--budget \
             (sampled runs are not supervised)"
            .into());
    }
    Ok(opts)
}

/// Parses `argv[1..]` into a [`Command`]; file arguments are read here so
/// [`execute`] is pure — with one deliberate exception: `merge` keeps its
/// shard *paths* and streams the files during execution, so an N-shard
/// merge never holds more than one document in memory.
///
/// # Errors
///
/// Human-readable messages for unknown subcommands/options and I/O errors.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else { return Ok(Command::Help) };
    match sub.as_str() {
        "asm" => {
            let path = args.get(1).ok_or("asm expects a source file")?;
            let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let out = match args.get(2).map(String::as_str) {
                Some("-o") => Some(args.get(3).ok_or("-o expects a path")?.clone()),
                Some(other) => return Err(format!("unknown option `{other}`")),
                None => None,
            };
            Ok(Command::Asm { source, out })
        }
        "disasm" => {
            let path = args.get(1).ok_or("disasm expects a binary file")?;
            let image = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Command::Disasm { image })
        }
        "run" => {
            let path = args.get(1).ok_or("run expects a source file")?;
            let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Command::Run { source, opts: parse_run_options(&args[2..])? })
        }
        "kernels" => Ok(Command::Kernels),
        "kernel" => {
            let name = args.get(1).ok_or("kernel expects a kernel name")?.clone();
            Ok(Command::Kernel { name, opts: parse_run_options(&args[2..])? })
        }
        "manifest" => {
            let mut name = None;
            let mut out = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-o" => out = Some(it.next().ok_or("-o expects a path")?.clone()),
                    other if !other.starts_with('-') && name.is_none() => {
                        name = Some(other.to_string());
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            if out.is_some() && name.is_none() {
                return Err("manifest -o requires a spec name".into());
            }
            Ok(Command::Manifest { name, out })
        }
        "sweep" => {
            let mut manifest = None;
            let mut shard = (0, 1);
            let mut out = None;
            let mut store = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut next =
                    |what: &str| it.next().cloned().ok_or_else(|| format!("{a} expects {what}"));
                match a.as_str() {
                    "--manifest" => {
                        let path = next("a spec file")?;
                        manifest = Some(
                            std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?,
                        );
                    }
                    "--shard" => shard = parse_shard(&next("K/N")?)?,
                    "--out" => out = Some(next("a path")?),
                    "--store" => store = Some(next("a directory")?),
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            let manifest = manifest.ok_or("sweep expects --manifest FILE")?;
            Ok(Command::Sweep { manifest, shard, out, store })
        }
        "merge" => {
            // Paths only: merge streams the files at execute time, folding
            // each shard in before the next is even read.
            let mut shards = Vec::new();
            let mut store = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--store" => {
                        store = Some(it.next().ok_or("--store expects a directory")?.clone());
                    }
                    other if other.starts_with('-') => {
                        return Err(format!("unknown option `{other}`"));
                    }
                    path => shards.push(path.to_string()),
                }
            }
            if shards.is_empty() {
                return Err("merge expects at least one shard file".into());
            }
            Ok(Command::Merge { shards, store })
        }
        "serve" => {
            let mut sock = None;
            let mut listen = None;
            let mut store = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut next =
                    |what: &str| it.next().cloned().ok_or_else(|| format!("{a} expects {what}"));
                match a.as_str() {
                    "--sock" => sock = Some(next("a socket path")?),
                    "--listen" => listen = Some(next("a tcp://HOST:PORT address")?),
                    "--store" => store = Some(next("a directory")?),
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Serve { sock, listen, store })
        }
        "submit" => {
            let mut manifest = None;
            let mut wait = false;
            let mut sock = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--wait" => wait = true,
                    "--sock" => {
                        sock = Some(it.next().ok_or("--sock expects a socket path")?.clone());
                    }
                    other if !other.starts_with('-') && manifest.is_none() => {
                        manifest = Some(
                            std::fs::read_to_string(other).map_err(|e| format!("{other}: {e}"))?,
                        );
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            let manifest = manifest.ok_or("submit expects a manifest file")?;
            Ok(Command::Submit { manifest, wait, sock })
        }
        "status" => {
            let mut job = None;
            let mut sock = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--sock" => {
                        sock = Some(it.next().ok_or("--sock expects a socket path")?.clone());
                    }
                    other if !other.starts_with('-') && job.is_none() => {
                        job = Some(other.to_string());
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Status { job, sock })
        }
        // Mostly hidden: the bare form is spawned by the worker pool,
        // never typed by people. The `--connect` form is the user-facing
        // remote executor.
        "worker" => {
            let mut connect = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--connect" => {
                        connect = Some(it.next().ok_or("--connect expects HOST:PORT")?.clone());
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Worker { connect })
        }
        "shutdown" => {
            let mut sock = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--sock" => {
                        sock = Some(it.next().ok_or("--sock expects a socket path")?.clone());
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Shutdown { sock })
        }
        "store" => {
            let prune = match args.get(1).map(String::as_str) {
                Some(action @ ("prune" | "stat")) => action == "prune",
                Some(other) => return Err(format!("unknown store action `{other}`")),
                None => return Err("store expects an action (prune, stat)".into()),
            };
            let mut manifests = Vec::new();
            let mut store = None;
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                let mut next =
                    |what: &str| it.next().cloned().ok_or_else(|| format!("{a} expects {what}"));
                match a.as_str() {
                    "--manifest" if prune => {
                        let path = next("a spec file")?;
                        manifests.push(
                            std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?,
                        );
                    }
                    "--store" => store = Some(next("a directory")?),
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            if !prune {
                return Ok(Command::StoreStat { store });
            }
            if manifests.is_empty() {
                return Err("store prune expects at least one --manifest FILE".into());
            }
            Ok(Command::StorePrune { manifests, store })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown subcommand `{other}`\n\n{}", usage())),
    }
}

/// What [`execute`] produces: text to print, plus an optional
/// `(path, bytes)` file to write (for `asm -o`).
pub type CommandOutput = (String, Option<(String, Vec<u8>)>);

/// Executes a command, returning the text to print (and optionally a file
/// to write for `asm -o`).
///
/// # Errors
///
/// Assembly, simulation, and verification failures as a [`CliError`]: a
/// one-line diagnosis plus the exit code of the error class (and, under
/// `--stats json`, a JSON error document).
pub fn execute(cmd: Command) -> Result<CommandOutput, CliError> {
    match cmd {
        Command::Help => Ok((usage().to_string(), None)),
        Command::Asm { source, out } => {
            let program = assemble(&source).map_err(|e| e.to_string())?;
            let words = program.to_words();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let mut text = String::new();
            let _ =
                writeln!(text, "assembled {} instructions ({} bytes)", words.len(), bytes.len());
            if out.is_none() {
                for (i, w) in words.iter().enumerate() {
                    let _ = writeln!(text, "{:#06x}: {w:08x}", i * 4);
                }
            }
            Ok((text, out.map(|p| (p, bytes))))
        }
        Command::Disasm { image } => {
            if image.len() % 4 != 0 {
                return Err("binary image length is not a multiple of 4".into());
            }
            let words: Vec<u32> = image
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            let program = Program::from_words(&words)
                .map_err(|i| format!("invalid instruction word at index {i}"))?;
            Ok((disassemble(&program), None))
        }
        Command::Run { source, opts } => {
            let program = assemble(&source).map_err(|e| e.to_string())?;
            let mut trace_text = String::new();
            if opts.trace > 0 {
                let mut mem = crate::mem::Memory::new();
                for &(addr, value) in &opts.inits {
                    mem.write_u32(addr, value);
                }
                let mut cpu = crate::func::Interp::new();
                let _ = writeln!(trace_text, "functional trace (first {}):", opts.trace);
                for _ in 0..opts.trace {
                    match crate::func::trace_step(&mut cpu, &program, &mut mem) {
                        Ok((step, entry)) => {
                            let _ = writeln!(trace_text, "  {entry}");
                            if step == crate::func::Step::Exit {
                                break;
                            }
                        }
                        Err(e) => {
                            let _ = writeln!(trace_text, "  <{e}>");
                            break;
                        }
                    }
                }
                trace_text.push('\n');
            }
            let mut sys = System::new(opts.config);
            for &(addr, value) in &opts.inits {
                sys.store_word(addr, value);
            }
            let stats =
                opts.run_system(&mut sys, &program).map_err(|e| sim_error(e, opts.stats_json))?;
            if opts.stats_json {
                // Machine-readable mode: the JSON document is the whole
                // output, so trace/dump text never corrupts a parse.
                return Ok((stats.stat_set(is_ooo(&opts.config)).to_json() + "\n", None));
            }
            let mut text = trace_text;
            text.push_str(&report(&sys, &stats));
            for &(addr, n) in &opts.dumps {
                let _ = writeln!(text, "\nmemory at {addr:#x}:");
                for i in 0..n {
                    let _ = writeln!(
                        text,
                        "  {:#010x}: {:#010x}",
                        addr + 4 * i,
                        sys.load_word(addr + 4 * i)
                    );
                }
            }
            Ok((text, None))
        }
        Command::Kernels => {
            let mut text = String::from("Table II kernels:\n");
            for k in kernels::table2() {
                let _ = writeln!(text, "  {:14} [{}] {}", k.name, k.suite.tag(), k.patterns);
            }
            text.push_str("Table IV variants:\n");
            for k in kernels::table4() {
                let _ = writeln!(text, "  {:14} [{}] {}", k.name, k.suite.tag(), k.patterns);
            }
            Ok((text, None))
        }
        Command::Kernel { name, opts } => {
            let kernel = kernels::by_name(&name)
                .ok_or_else(|| format!("no kernel named `{name}` (try `xloops kernels`)"))?;
            let mut sys = System::new(opts.config);
            kernel.init_memory(sys.mem_mut());
            let stats = opts
                .run_system(&mut sys, &kernel.program)
                .map_err(|e| sim_error(e, opts.stats_json))?;
            kernel.verify(sys.mem()).map_err(|e| format!("verification FAILED: {e}"))?;
            if opts.stats_json {
                // Verification still ran (a failure errors out above); the
                // output is just the JSON document.
                return Ok((stats.stat_set(is_ooo(&opts.config)).to_json() + "\n", None));
            }
            let mut text = format!("{name}: verified OK\n");
            text.push_str(&report(&sys, &stats));
            Ok((text, None))
        }
        Command::Manifest { name: None, .. } => {
            let mut text = String::from("experiment manifests:\n");
            for spec in all_specs() {
                let _ = writeln!(
                    text,
                    "  {:8} {:3} points  {}",
                    spec.name,
                    spec.points.len(),
                    spec.caption.lines().next().unwrap_or("")
                );
            }
            Ok((text, None))
        }
        Command::Manifest { name: Some(name), out } => {
            let spec = spec_by_name(&name)
                .ok_or_else(|| format!("no spec named `{name}` (try `xloops manifest`)"))?;
            let json = spec.to_json_pretty();
            match out {
                Some(path) => {
                    let text = format!(
                        "manifest {}: {} points, fingerprint {}\n",
                        spec.name,
                        spec.points.len(),
                        spec.fingerprint()
                    );
                    Ok((text, Some((path, json.into_bytes()))))
                }
                None => Ok((json, None)),
            }
        }
        Command::Sweep { manifest, shard: (index, of), out, store } => {
            let spec = ExperimentSpec::from_json(&manifest).map_err(manifest_error)?;
            let store = open_store(store)?;
            let doc = run_shard_stored(
                &spec,
                index,
                of,
                crate::sim::RunOptions::from_env(),
                store.as_ref(),
            );
            match out {
                Some(path) => {
                    let mut text = format!(
                        "sweep {}: shard {index}/{of}, {} of {} points\n",
                        spec.name,
                        doc.results.len(),
                        spec.points.len()
                    );
                    if let Some(store) = &store {
                        let s = store.stats();
                        let _ = writeln!(text, "store: {} hits, {} misses", s.hits, s.misses);
                    }
                    Ok((text, Some((path, doc.to_json().into_bytes()))))
                }
                None => Ok((doc.to_json(), None)),
            }
        }
        Command::Merge { shards, store } => {
            let store = open_store(store)?;
            let mut fold = MergeFold::new();
            for path in &shards {
                // Streaming: read -> decode -> fold -> drop, one file at a
                // time; decode failures and mismatched shards are usage
                // errors naming the offending file.
                let text = std::fs::read_to_string(path)
                    .map_err(|e| manifest_error(format!("{path}: {e}")))?;
                let doc = ShardDoc::from_json(&text)
                    .map_err(|e| manifest_error(format!("{path}: {e}")))?;
                if let Some(store) = &store {
                    store.backfill(&doc);
                }
                fold.fold(doc).map_err(|e| manifest_error(format!("{path}: {e}")))?;
            }
            let (spec, results) = fold.finish().map_err(manifest_error)?;
            // The rendered artifact *is* the output, byte-for-byte what the
            // unsharded binary writes under `results/` — so a plain `diff`
            // proves the sharded path reproduced it.
            Ok((render_spec(&spec, &results), None))
        }
        Command::Serve { sock, listen, store } => {
            let sock = match resolve_sock(sock)? {
                Endpoint::Unix(path) => path,
                ep @ Endpoint::Tcp(_) => {
                    return Err(manifest_error(format!(
                        "serve --sock must be a Unix socket path, not {}; use --listen for TCP",
                        ep.describe()
                    )))
                }
            };
            let store_dir = store.map(PathBuf::from).or_else(|| {
                std::env::var("XLOOPS_STORE").ok().filter(|d| !d.is_empty()).map(PathBuf::from)
            });
            let cfg = ServeConfig {
                sock: sock.clone(),
                listen: serve::listen_from(listen),
                store_dir,
                options: crate::sim::RunOptions::from_env(),
                token: proto::token_from_env(),
            };
            let listen_ep = cfg.listen.clone();
            let daemon = Daemon::bind(cfg)
                .map_err(|e| manifest_error(format!("cannot bind {}: {e}", sock.display())))?;
            // A `kill` from an orchestrator must not strand a stale
            // socket file (the `shutdown` command unlinks it in-band).
            #[cfg(unix)]
            serve::install_sigterm_unlink(&sock);
            eprintln!("[serve] listening on {}", sock.display());
            if let Some(ep) = &listen_ep {
                let bound = daemon
                    .tcp_addr()
                    .map(|a| format!("tcp://{a}"))
                    .unwrap_or_else(|| ep.describe());
                eprintln!("[serve] listening on {bound}");
            }
            let swept =
                daemon.run().map_err(|e| CliError::from(format!("{}: {e}", sock.display())))?;
            Ok((format!("served {swept} sweep(s) on {}\n", sock.display()), None))
        }
        Command::Submit { manifest, wait, sock } => {
            let ep = resolve_sock(sock)?;
            let spec = ExperimentSpec::from_json(&manifest).map_err(manifest_error)?;
            let req = JsonValue::object(vec![
                ("cmd", JsonValue::Str("submit".to_string())),
                ("manifest", spec.to_json_value()),
                ("wait", JsonValue::Bool(wait)),
            ]);
            let resp = daemon_request(&ep, &req)?;
            if !wait {
                let state = resp.get("state").and_then(JsonValue::as_str).unwrap_or("?");
                let job = resp.get("job").and_then(JsonValue::as_str).unwrap_or("?");
                return Ok((format!("submitted {}: job {job} ({state})\n", spec.name), None));
            }
            // --wait: the artifact is the output (stdout), so the traffic
            // summary goes to stderr — exactly like `serve`'s own banner.
            if let Some(store) = resp.get("store") {
                let n = |k: &str| store.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                eprintln!("store: {} hits, {} misses", n("hits"), n("misses"));
            }
            let failed = resp.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
            if failed > 0 {
                let errors = resp.get("errors").and_then(JsonValue::as_array).unwrap_or(&[]);
                let first = errors.first();
                let message = first
                    .and_then(|e| e.get("message"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown failure");
                let code =
                    first.and_then(|e| e.get("exit_code")).and_then(JsonValue::as_u64).unwrap_or(1)
                        as i32;
                return Err(CliError {
                    code,
                    message: format!("{failed} point(s) failed; first: {message}"),
                    json: None,
                });
            }
            let artifact =
                resp.get("artifact").and_then(JsonValue::as_str).unwrap_or_default().to_string();
            Ok((artifact, None))
        }
        Command::Status { job: Some(job), sock } => {
            let ep = resolve_sock(sock)?;
            let req = JsonValue::object(vec![
                ("cmd", JsonValue::Str("status".to_string())),
                ("job", JsonValue::Str(job)),
            ]);
            let resp = daemon_request(&ep, &req)?;
            let job = resp.get("job").and_then(JsonValue::as_str).unwrap_or("?");
            let state = resp.get("state").and_then(JsonValue::as_str).unwrap_or("?");
            let mut text = format!("job {job}: {state}\n");
            if state == "running" {
                if let Some(p) = resp.get("progress") {
                    let _ = writeln!(text, "progress: {}", render_progress(p));
                }
            }
            if state == "done" {
                let n = |k: &str| resp.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                let _ = writeln!(
                    text,
                    "points: {} ({} failed, {} quarantined)",
                    n("points"),
                    n("failed"),
                    n("quarantined")
                );
                if let Some(store) = resp.get("store") {
                    let s = |k: &str| store.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                    let _ = writeln!(text, "store: {} hits, {} misses", s("hits"), s("misses"));
                }
                for e in resp.get("errors").and_then(JsonValue::as_array).unwrap_or(&[]) {
                    if let Some(m) = e.get("message").and_then(JsonValue::as_str) {
                        let _ = writeln!(text, "error: {m}");
                    }
                }
            }
            Ok((text, None))
        }
        Command::Status { job: None, sock } => {
            let ep = resolve_sock(sock)?;
            let req = JsonValue::object(vec![("cmd", JsonValue::Str("status".to_string()))]);
            let resp = daemon_request(&ep, &req)?;
            let mut text = String::new();
            if let Some(version) = resp.get("version").and_then(JsonValue::as_str) {
                let uptime = resp.get("uptime_ms").and_then(JsonValue::as_u64).unwrap_or(0);
                let workers = resp.get("workers").and_then(JsonValue::as_u64).unwrap_or(0);
                let idle = resp.get("workers_idle").and_then(JsonValue::as_u64).unwrap_or(workers);
                let _ = writeln!(
                    text,
                    "daemon v{version}, up {}s, {workers} remote worker(s) ({idle} idle)",
                    uptime / 1000
                );
            }
            let jobs = resp.get("jobs").and_then(JsonValue::as_array).unwrap_or(&[]);
            if jobs.is_empty() {
                text.push_str("no jobs\n");
                return Ok((text, None));
            }
            for j in jobs {
                let id = j.get("job").and_then(JsonValue::as_str).unwrap_or("?");
                let state = j.get("state").and_then(JsonValue::as_str).unwrap_or("?");
                let n = |k: &str| j.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                let _ = write!(text, "job {id}: {state}, {} points", n("points"));
                if state == "done" {
                    let _ = write!(
                        text,
                        " ({} done, {} failed, {} quarantined)",
                        n("done"),
                        n("failed"),
                        n("quarantined")
                    );
                } else if let Some(p) = j.get("progress") {
                    let _ = write!(text, " ({})", render_progress(p));
                }
                text.push('\n');
            }
            Ok((text, None))
        }
        Command::Worker { connect } => {
            // Dial a daemon or the private socket of the pool that
            // spawned this process, register, and serve jobs until the
            // peer hangs up or sends `exit`.
            let addr = connect
                .or_else(|| std::env::var("XLOOPS_CONNECT").ok().filter(|s| !s.is_empty()))
                .ok_or_else(|| {
                    manifest_error("worker needs --connect HOST:PORT or XLOOPS_CONNECT")
                })?;
            match crate::bench::worker::worker_connect(&addr) {
                Ok(0) => Ok((String::new(), None)),
                Ok(code) => Err(CliError {
                    code,
                    message: "worker lost its daemon connection".into(),
                    json: None,
                }),
                Err((code, message)) => Err(CliError { code, message, json: None }),
            }
        }
        Command::Shutdown { sock } => {
            let ep = resolve_sock(sock)?;
            let req = JsonValue::object(vec![("cmd", JsonValue::Str("shutdown".to_string()))]);
            daemon_request(&ep, &req)?;
            Ok((format!("daemon on {} shutting down\n", ep.describe()), None))
        }
        Command::StoreStat { store } => {
            let dir = store
                .or_else(|| std::env::var("XLOOPS_STORE").ok().filter(|d| !d.is_empty()))
                .ok_or_else(|| manifest_error("store stat needs --store DIR or XLOOPS_STORE"))?;
            // Read-only: never create the directory a typo names.
            if !Path::new(&dir).is_dir() {
                return Err(manifest_error(format!("{dir}: no such store directory")));
            }
            let segments = ResultStore::open(&dir)
                .map_err(|e| manifest_error(format!("{dir}: {e}")))?
                .segments();
            let records: u64 = segments.iter().map(|s| s.records).sum();
            let bytes: u64 = segments.iter().map(|s| s.bytes).sum();
            let mut text = format!(
                "store {dir}: {records} records, {} segments, {bytes} bytes\n",
                segments.len()
            );
            for s in &segments {
                if let Some(at) = s.stopped_at {
                    let _ = writeln!(
                        text,
                        "segment {}: scan stopped at byte {at} of {}",
                        s.name, s.bytes
                    );
                }
            }
            Ok((text, None))
        }
        Command::StorePrune { manifests, store } => {
            let store = open_store(store)?
                .ok_or_else(|| manifest_error("store prune needs --store DIR or XLOOPS_STORE"))?;
            // Live keys are options-dependent (the key hashes the
            // result-affecting RunOptions), so prune under the same
            // XLOOPS_* knobs the sweeps ran with.
            let options = crate::sim::RunOptions::from_env();
            let mut live = HashSet::new();
            let mut text = String::new();
            for manifest in &manifests {
                let spec = ExperimentSpec::from_json(manifest).map_err(manifest_error)?;
                let fingerprint = spec.fingerprint();
                for i in 0..spec.points.len() {
                    live.insert(ResultStore::point_key(&fingerprint, i, &options));
                }
                let _ = writeln!(
                    text,
                    "live: {} ({} points, fingerprint {fingerprint})",
                    spec.name,
                    spec.points.len()
                );
            }
            let report = store
                .prune(&live)
                .map_err(|e| CliError::from(format!("prune {}: {e}", store.dir().display())))?;
            let _ = writeln!(
                text,
                "pruned {}: kept {}, removed {}, freed {} bytes",
                store.dir().display(),
                report.kept,
                report.pruned,
                report.bytes_freed
            );
            Ok((text, None))
        }
    }
}

/// Resolves the daemon endpoint (`--sock` flag, else `XLOOPS_SOCK`; a
/// `tcp://HOST:PORT` value dials TCP); its absence is a usage error.
fn resolve_sock(flag: Option<String>) -> Result<Endpoint, CliError> {
    serve::sock_from(flag)
        .ok_or_else(|| manifest_error("no daemon socket: pass --sock PATH or set XLOOPS_SOCK"))
}

/// Renders a daemon progress document as one human-readable clause.
fn render_progress(p: &JsonValue) -> String {
    let n = |k: &str| p.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    format!(
        "{} queued, {} running, {} done, {} failed, {} store hits",
        n("queued"),
        n("running"),
        n("done"),
        n("failed"),
        n("hits")
    )
}

/// Maps a client-side socket failure to its CLI surface: a tripped read
/// or write deadline (the daemon accepted but never answered) is a typed
/// protocol failure with the usage exit code `2`; anything else (no
/// socket, connection refused) stays the generic `1`.
fn client_io_error(at: &str, e: std::io::Error) -> CliError {
    let timed_out =
        matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut);
    if timed_out {
        CliError {
            code: 2,
            message: format!("{at}: daemon did not respond before the client timeout ({e})"),
            json: None,
        }
    } else {
        CliError::from(format!("{at}: {e}"))
    }
}

/// One client round-trip to the daemon, with `ok:false` responses mapped
/// to a [`CliError`] carrying the daemon's message and exit code. A hung
/// daemon trips the client's socket deadline ([`proto::client_timeout`]),
/// which maps through [`client_io_error`] to the usage/protocol exit
/// code `2` — a deliberate typed failure, never an indefinite block.
fn daemon_request(ep: &Endpoint, req: &JsonValue) -> Result<JsonValue, CliError> {
    let resp = proto::request(ep, req).map_err(|e| client_io_error(&ep.describe(), e))?;
    if resp.get("ok").and_then(JsonValue::as_bool) == Some(true) {
        return Ok(resp);
    }
    let error = resp.get("error");
    let message = error
        .and_then(|e| e.get("message"))
        .and_then(JsonValue::as_str)
        .unwrap_or("malformed daemon response")
        .to_string();
    let code =
        error.and_then(|e| e.get("exit_code")).and_then(JsonValue::as_u64).unwrap_or(1) as i32;
    Err(CliError { code, message, json: None })
}

/// Whether the configured GPP pays out-of-order energy accounting (the
/// in-order core is the only width-1 configuration).
fn is_ooo(config: &SystemConfig) -> bool {
    config.gpp.width() > 1
}

fn report(sys: &System, stats: &crate::sim::SystemStats) -> String {
    // Render from the unified stat tree rather than the raw structs, so
    // the text report and `--stats json` read the same schema by
    // construction and cannot disagree on a value.
    let set = stats.stat_set(is_ooo(sys.config()));
    let counter = |path: &str| set.lookup(path).and_then(StatValue::as_counter).unwrap_or(0);
    let metric = |path: &str| set.lookup(path).map(StatValue::as_f64).unwrap_or(0.0);
    let mut t = String::new();
    let _ = writeln!(t, "config           {}", sys.config().name());
    let _ = writeln!(t, "cycles           {}", counter("cycles"));
    let _ = writeln!(t, "instructions     {} (IPC {:.2})", counter("instret"), metric("ipc"));
    let _ = writeln!(t, "energy           {:.1} nJ", metric("energy_nj"));
    if counter("xloops_specialized") > 0 || counter("xloops_fallback") > 0 {
        let _ = writeln!(
            t,
            "xloops           {} specialized, {} fell back",
            counter("xloops_specialized"),
            counter("xloops_fallback")
        );
        let _ = writeln!(
            t,
            "lpsu             {} iterations, {} squashed, {} CIR transfers",
            counter("lpsu.iterations"),
            counter("lpsu.squashed_iters"),
            counter("lpsu.cir_transfers")
        );
    }
    if counter("adaptive_to_gpp") + counter("adaptive_to_lpsu") > 0 {
        let _ = writeln!(
            t,
            "adaptive         {} loops chose the LPSU, {} the GPP",
            counter("adaptive_to_lpsu"),
            counter("adaptive_to_gpp")
        );
    }
    if counter("sampling.intervals") > 0 {
        let _ = writeln!(
            t,
            "sampling         {} windows: {} measured + {} extrapolated cycles, \
             {} fast-forwarded instructions (rel stderr {:.4})",
            counter("sampling.intervals"),
            counter("sampling.measured_cycles"),
            counter("sampling.extrapolated_cycles"),
            counter("sampling.ff_instrs"),
            metric("sampling.rel_stderr")
        );
    }
    if counter("supervisor.checkpoints") + counter("supervisor.rewinds") > 0 {
        let _ = writeln!(
            t,
            "supervisor       {} checkpoints, {} rewinds ({} injected), {} retries, \
             {} loops degraded to GPP",
            counter("supervisor.checkpoints"),
            counter("supervisor.rewinds"),
            counter("supervisor.injected_faults"),
            counter("supervisor.retries"),
            counter("supervisor.degraded")
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_configs_and_modes() {
        let opts = parse_run_options(&sv(&[
            "--config", "ooo4+x", "--mode", "adaptive", "--init", "0x100=7", "--dump", "0x100:2",
        ]))
        .unwrap();
        assert_eq!(opts.config.name(), "ooo/4+x");
        assert_eq!(opts.mode, ExecMode::Adaptive);
        assert_eq!(opts.inits, vec![(0x100, 7)]);
        assert_eq!(opts.dumps, vec![(0x100, 2)]);
    }

    #[test]
    fn rejects_unknown_options() {
        assert!(parse_run_options(&sv(&["--bogus"])).is_err());
        assert!(parse_run_options(&sv(&["--config", "pentium"])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn kernels_listing_names_everything() {
        let (text, _) = execute(Command::Kernels).unwrap();
        for k in kernels::table2() {
            assert!(text.contains(k.name), "missing {}", k.name);
        }
    }

    #[test]
    fn run_command_executes_and_dumps() {
        let source = "
            li r1, 0x100
            lw r2, 0(r1)
            addiu r2, r2, 5
            sw r2, 4(r1)
            exit";
        let mut opts = RunOptions { mode: ExecMode::Traditional, ..RunOptions::default() };
        opts.config = SystemConfig::io();
        opts.inits.push((0x100, 37));
        opts.dumps.push((0x104, 1));
        let (text, _) = execute(Command::Run { source: source.into(), opts }).unwrap();
        assert!(text.contains("0x0000002a"), "{text}"); // 37 + 5
        assert!(text.contains("cycles"));
    }

    #[test]
    fn kernel_command_verifies() {
        let (text, _) =
            execute(Command::Kernel { name: "huffman-ua".into(), opts: RunOptions::default() })
                .unwrap();
        assert!(text.contains("verified OK"), "{text}");
        assert!(text.contains("specialized"));
    }

    #[test]
    fn stats_format_parses_and_rejects_garbage() {
        assert!(parse_run_options(&sv(&["--stats", "json"])).unwrap().stats_json);
        assert!(!parse_run_options(&sv(&["--stats", "text"])).unwrap().stats_json);
        assert!(parse_run_options(&sv(&["--stats", "xml"])).is_err());
        assert!(parse_run_options(&sv(&["--stats"])).is_err());
    }

    #[test]
    fn run_command_emits_json_stats() {
        let mut opts = RunOptions { mode: ExecMode::Traditional, ..RunOptions::default() };
        opts.config = SystemConfig::io();
        opts.stats_json = true;
        opts.trace = 3; // must be suppressed: JSON is the whole output
        let (text, _) = execute(Command::Run { source: "li r1, 9\n exit".into(), opts }).unwrap();
        assert!(text.starts_with("{\"name\":\"system\""), "{text}");
        assert!(text.ends_with("]}\n"), "{text}");
        assert!(text.contains("\"counters\":{\"cycles\":"), "{text}");
        assert!(!text.contains("functional trace"), "{text}");
    }

    #[test]
    fn kernel_command_emits_json_stats_with_component_children() {
        let opts = RunOptions { stats_json: true, ..RunOptions::default() };
        let (text, _) = execute(Command::Kernel { name: "huffman-ua".into(), opts }).unwrap();
        assert!(!text.contains("verified OK"), "{text}");
        for child in ["\"name\":\"gpp\"", "\"name\":\"lpsu\"", "\"name\":\"energy\""] {
            assert!(text.contains(child), "missing {child} in {text}");
        }
        assert!(text.contains("\"name\":\"stalls\""), "{text}");
        // Still a verification failure if the kernel is broken: the flag
        // only changes the report, not the checking.
        let opts =
            RunOptions { stats_json: true, mode: ExecMode::Traditional, ..RunOptions::default() };
        assert!(execute(Command::Kernel { name: "huffman-ua".into(), opts }).is_ok());
    }

    #[test]
    fn supervision_flags_parse() {
        let o = parse_run_options(&sv(&[
            "--faults",
            "7:5",
            "--checkpoint",
            "1000",
            "--budget",
            "100000",
        ]))
        .unwrap();
        assert_eq!(o.faults, Some((7, 5)));
        assert_eq!(o.checkpoint, Some(1000));
        assert_eq!(o.budget, Some(100_000));
        assert_eq!(parse_run_options(&sv(&["--faults", "9"])).unwrap().faults, Some((9, 3)));
        assert!(parse_run_options(&sv(&["--faults", "x:y"])).is_err());
        assert!(parse_run_options(&sv(&["--budget"])).is_err());
    }

    #[test]
    fn sample_flag_parses_and_rejects_supervision_combos() {
        let o = parse_run_options(&sv(&["--sample", "10000:2000:50000"])).unwrap();
        assert_eq!(o.sample, Some(SampleSpec::new(10_000, 2_000, 50_000).unwrap()));
        assert!(parse_run_options(&sv(&["--sample", "0:1:1"])).is_err());
        assert!(parse_run_options(&sv(&["--sample", "nope"])).is_err());
        assert!(parse_run_options(&sv(&["--sample"])).is_err());
        let e = parse_run_options(&sv(&["--sample", "1:1:1", "--budget", "99"])).unwrap_err();
        assert!(e.contains("not supervised"), "{e}");
    }

    #[test]
    fn sampled_kernel_run_verifies_and_reports_sampling_stats() {
        let opts = RunOptions {
            sample: Some(SampleSpec::new(500, 100, 500).unwrap()),
            ..RunOptions::default()
        };
        let (text, _) = execute(Command::Kernel { name: "huffman-ua".into(), opts }).unwrap();
        assert!(text.contains("verified OK"), "{text}");
        assert!(text.contains("sampling"), "{text}");

        // And the JSON surface carries the sampling node with the error bar.
        let opts = RunOptions {
            sample: Some(SampleSpec::new(500, 100, 500).unwrap()),
            stats_json: true,
            ..RunOptions::default()
        };
        let (json, _) = execute(Command::Kernel { name: "huffman-ua".into(), opts }).unwrap();
        assert!(json.contains("\"name\":\"sampling\""), "{json}");
        assert!(json.contains("rel_stderr"), "{json}");
    }

    #[test]
    fn wedge_maps_to_exit_code_3_with_a_one_line_diagnosis() {
        let e = sim_error(SimError::NoForwardProgress { pc: 0x40, cycle: 123, stalled: 4 }, false);
        assert_eq!(e.code, 3);
        assert!(!e.message.contains('\n'), "one line: {}", e.message);
        assert!(e.message.contains("0x40"), "{}", e.message);
        assert!(e.message.contains("4 stalled"), "{}", e.message);
        assert!(e.json.is_none());
    }

    #[test]
    fn budget_error_has_distinct_exit_code_and_json_document() {
        let opts = RunOptions { stats_json: true, budget: Some(10), ..RunOptions::default() };
        let e = execute(Command::Kernel { name: "huffman-ua".into(), opts }).unwrap_err();
        assert_eq!(e.code, 5);
        assert!(e.message.contains("cycle budget"), "{}", e.message);
        assert!(e.json.as_deref().is_some_and(|j| j.contains("\"exit_code\":5")), "{e:?}");
    }

    #[test]
    fn injected_faults_recover_under_supervision_and_report() {
        let opts =
            RunOptions { faults: Some((1, 3)), checkpoint: Some(1000), ..RunOptions::default() };
        let (text, _) = execute(Command::Kernel { name: "huffman-ua".into(), opts }).unwrap();
        assert!(text.contains("verified OK"), "{text}");
        assert!(text.contains("supervisor"), "supervised run reports activity: {text}");
    }

    #[test]
    fn trace_option_prints_instructions() {
        let mut opts = RunOptions { mode: ExecMode::Traditional, ..RunOptions::default() };
        opts.config = SystemConfig::io();
        opts.trace = 3;
        let (text, _) =
            execute(Command::Run { source: "li r1, 9\n sw r1, 0(r0)\n exit".into(), opts })
                .unwrap();
        assert!(text.contains("functional trace"), "{text}");
        assert!(text.contains("r1 <- 0x9"), "{text}");
        assert!(text.contains("[W 0x0]"), "{text}");
    }

    #[test]
    fn manifest_listing_names_every_spec() {
        let (text, _) = execute(Command::Manifest { name: None, out: None }).unwrap();
        for name in ["table2", "fig5", "fig6", "fig7", "fig8", "fig9", "table4", "table5", "fig10"]
        {
            assert!(text.contains(name), "missing {name} in {text}");
        }
    }

    #[test]
    fn manifest_command_emits_parseable_spec_json() {
        let (json, _) =
            execute(Command::Manifest { name: Some("fig9".into()), out: None }).unwrap();
        let spec = ExperimentSpec::from_json(&json).expect("emitted JSON parses back");
        assert_eq!(spec.name, "fig9");
        assert!(!spec.points.is_empty());
        assert!(execute(Command::Manifest { name: Some("fig99".into()), out: None }).is_err());
        // -o routes the document into the returned file instead of stdout.
        let (text, file) =
            execute(Command::Manifest { name: Some("fig9".into()), out: Some("s.json".into()) })
                .unwrap();
        assert!(text.contains(&spec.fingerprint()), "{text}");
        let (path, bytes) = file.expect("-o produces a file");
        assert_eq!(path, "s.json");
        assert_eq!(bytes, json.into_bytes());
    }

    #[test]
    fn shard_flag_parses_and_rejects_impossible_shards() {
        assert_eq!(parse_shard("0/2").unwrap(), (0, 2));
        assert_eq!(parse_shard("3/4").unwrap(), (3, 4));
        assert!(parse_shard("2/2").is_err());
        assert!(parse_shard("0/0").is_err());
        assert!(parse_shard("x/y").is_err());
        assert!(parse_shard("1").is_err());
    }

    /// A scratch directory for tests that exercise the streaming (path
    /// based) merge; removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("xloops-cli-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn file(&self, name: &str, contents: &[u8]) -> String {
            let path = self.0.join(name);
            std::fs::write(&path, contents).unwrap();
            path.to_string_lossy().into_owned()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn sweep_then_merge_reproduces_the_rendered_artifact() {
        // table5 is the analytical artifact (zero simulation points), so
        // the whole sweep -> merge path runs instantly even in debug.
        let tmp = TempDir::new("merge");
        let (json, _) =
            execute(Command::Manifest { name: Some("table5".into()), out: None }).unwrap();
        let (shard_json, _) =
            execute(Command::Sweep { manifest: json, shard: (0, 1), out: None, store: None })
                .unwrap();
        let shard0 = tmp.file("shard0.json", shard_json.as_bytes());
        let (merged, _) =
            execute(Command::Merge { shards: vec![shard0.clone()], store: None }).unwrap();
        let spec = crate::bench::experiments::spec_by_name("table5").unwrap();
        let expect = render_spec(&spec, &[]);
        assert_eq!(merged, expect, "merge renders the artifact byte-for-byte");

        // An unparseable shard is a usage-class failure (exit code 2) with
        // the offending file named in the diagnosis; so is a missing file.
        let bad = tmp.file("bad.json", &shard_json.as_bytes()[..shard_json.len() / 2]);
        let e = execute(Command::Merge { shards: vec![bad], store: None }).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("bad.json"), "{}", e.message);
        let e = execute(Command::Merge { shards: vec!["no-such.json".into()], store: None })
            .unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("no-such.json"), "{}", e.message);

        // Shards from different manifests parse fine but refuse to merge,
        // also exit code 2.
        let forged = tmp.file(
            "forged.json",
            shard_json.replace("\"fingerprint\": \"", "\"fingerprint\": \"dead").as_bytes(),
        );
        let e = execute(Command::Merge { shards: vec![shard0, forged], store: None }).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("different manifests"), "{}", e.message);
    }

    #[test]
    fn merge_parse_collects_paths_and_store_flag() {
        let cmd = parse(&sv(&["merge", "--store", "/tmp/s", "a.json", "b.json"])).unwrap();
        match cmd {
            Command::Merge { shards, store } => {
                assert_eq!(shards, vec!["a.json".to_string(), "b.json".to_string()]);
                assert_eq!(store.as_deref(), Some("/tmp/s"));
            }
            other => panic!("expected merge, got {other:?}"),
        }
        assert!(parse(&sv(&["merge"])).is_err());
        assert!(parse(&sv(&["merge", "--bogus", "a.json"])).is_err());
    }

    #[test]
    fn sweep_with_store_serves_the_warm_run_from_disk() {
        let tmp = TempDir::new("sweep-store");
        let store_dir = tmp.0.join("store").to_string_lossy().into_owned();
        let (json, _) =
            execute(Command::Manifest { name: Some("table5".into()), out: None }).unwrap();
        let run = |out: &str| {
            execute(Command::Sweep {
                manifest: json.clone(),
                shard: (0, 1),
                out: Some(out.into()),
                store: Some(store_dir.clone()),
            })
            .unwrap()
        };
        let (cold_text, cold_file) = run("cold.json");
        // table5 has zero points, so both counters are zero — the line
        // format is what this pins (CI greps it on a real manifest).
        assert!(cold_text.contains("store: 0 hits, 0 misses"), "{cold_text}");
        let (warm_text, warm_file) = run("warm.json");
        assert!(warm_text.contains("store: 0 hits, 0 misses"), "{warm_text}");
        // The warm run served from the store writes the same bytes.
        let (_, cold_bytes) = cold_file.unwrap();
        let (_, warm_bytes) = warm_file.unwrap();
        assert_eq!(cold_bytes, warm_bytes, "cold and warm shard files are byte-identical");
        assert!(ShardDoc::from_json(std::str::from_utf8(&warm_bytes).unwrap()).is_ok());
    }

    #[test]
    fn merge_refuses_a_non_utf8_shard_file_naming_it() {
        // A binary document from an older build (magic, version, then
        // bytes that are not UTF-8) is not a shard file: a usage-class
        // error naming the file, never a panic.
        let tmp = TempDir::new("merge-non-utf8");
        let mut bytes = crate::stats::binary::MAGIC.to_vec();
        bytes.push(crate::stats::binary::VERSION);
        bytes.extend_from_slice(&[0xff, 0xfe, 0x80, 0x00, 0xc3]);
        let old = tmp.file("old-shard.bin", &bytes);
        let outcome =
            std::panic::catch_unwind(|| execute(Command::Merge { shards: vec![old], store: None }));
        let e = outcome.expect("merge must not panic").unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("old-shard.bin"), "{}", e.message);
    }

    #[test]
    fn store_stat_counts_records_and_reports_a_torn_segment() {
        assert!(matches!(
            parse(&sv(&["store", "stat", "--store", "/tmp/s"])).unwrap(),
            Command::StoreStat { store: Some(_) }
        ));
        assert!(parse(&sv(&["store", "stat", "--manifest", "f.json"])).is_err());
        assert!(parse(&sv(&["store", "frob"])).is_err());

        let tmp = TempDir::new("store-stat");
        let dir = tmp.0.join("store");
        let stat = |dir: &std::path::Path| {
            execute(Command::StoreStat { store: Some(dir.to_string_lossy().into_owned()) })
        };
        // Read-only: a missing directory is an error, and stays missing.
        assert_eq!(stat(&dir).unwrap_err().code, 2);
        assert!(!dir.exists());

        let store = ResultStore::open(&dir).unwrap();
        let result = crate::bench::manifest::PointResult {
            stats: crate::stats::StatSet::new("system"),
            error: None,
        };
        for i in 0..3 {
            store.save(&format!("{i:016x}"), &result).unwrap();
        }
        store.commit().unwrap();
        let (text, _) = stat(&dir).unwrap();
        assert!(text.contains(": 3 records, 1 segments, "), "{text}");
        assert!(!text.contains("stopped"), "{text}");

        let seg = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();
        let (text, _) = stat(&dir).unwrap();
        assert!(text.contains(": 2 records, 1 segments, "), "{text}");
        assert!(text.contains("scan stopped at byte"), "{text}");
    }

    #[test]
    fn status_parses_with_and_without_a_job_id() {
        match parse(&sv(&["status", "abc123", "--sock", "/tmp/x.sock"])).unwrap() {
            Command::Status { job, sock } => {
                assert_eq!(job.as_deref(), Some("abc123"));
                assert_eq!(sock.as_deref(), Some("/tmp/x.sock"));
            }
            other => panic!("expected status, got {other:?}"),
        }
        // No job id is the listing query, not a usage error.
        match parse(&sv(&["status"])).unwrap() {
            Command::Status { job: None, sock: None } => {}
            other => panic!("expected bare status, got {other:?}"),
        }
    }

    #[test]
    fn worker_subcommand_is_hidden_but_parses() {
        assert!(matches!(parse(&sv(&["worker"])).unwrap(), Command::Worker { connect: None }));
        // A bare worker has only `XLOOPS_CONNECT` to dial; without it there
        // is no transport to serve on, which is a usage error.
        if std::env::var_os("XLOOPS_CONNECT").is_none() {
            let e = execute(Command::Worker { connect: None }).expect_err("nothing to dial");
            assert_eq!(e.code, 2, "{}", e.message);
            assert!(e.message.contains("XLOOPS_CONNECT"), "{}", e.message);
        }
        match parse(&sv(&["worker", "--connect", "127.0.0.1:9"])).unwrap() {
            Command::Worker { connect } => assert_eq!(connect.as_deref(), Some("127.0.0.1:9")),
            other => panic!("expected worker, got {other:?}"),
        }
        assert!(parse(&sv(&["worker", "--frob"])).is_err());
        // Hidden means hidden: the usage text has no `xloops worker`
        // synopsis line; only the remote-executor form is documented.
        assert!(!usage().contains("\n  xloops worker"), "worker must stay off the synopsis");
        assert!(usage().contains("worker --connect"), "the remote form must be documented");
    }

    #[test]
    fn hung_daemon_times_out_with_the_protocol_exit_code() {
        // A listener that accepts but never answers: the client must trip
        // its read deadline and map it to exit code 2, not block forever.
        let tmp = TempDir::new("hung-daemon");
        let sock = tmp.0.join("hung.sock");
        let listener = std::os::unix::net::UnixListener::bind(&sock).unwrap();
        let hold = std::thread::spawn(move || {
            // Hold the accepted connection open, silently, until the
            // client gives up and the test ends.
            listener.incoming().next().map(|c| {
                let c = c.unwrap();
                std::thread::sleep(std::time::Duration::from_millis(900));
                drop(c);
            })
        });
        let req = JsonValue::object(vec![("cmd", JsonValue::Str("status".to_string()))]);
        let t = std::time::Instant::now();
        // Route through the explicit-timeout entry so the test does not
        // depend on (or mutate) the process environment.
        let ep = Endpoint::unix(&sock);
        let resp = proto::request_with(&ep, &req, Some(std::time::Duration::from_millis(200)));
        let e = resp.expect_err("a silent daemon must time the client out");
        assert!(t.elapsed() < std::time::Duration::from_millis(800), "{:?}", t.elapsed());
        // The CLI maps exactly that error to the typed protocol failure
        // with the usage exit code — a hung daemon is never exit 1 noise.
        let cli = client_io_error(&ep.describe(), e);
        assert_eq!(cli.code, 2, "{}", cli.message);
        assert!(cli.message.contains("client timeout"), "{}", cli.message);
        // Other socket failures keep the generic class.
        let refused = client_io_error(
            "/nonexistent.sock",
            std::io::Error::new(std::io::ErrorKind::NotFound, "no such socket"),
        );
        assert_eq!(refused.code, 1);
        let _ = hold.join();
    }

    #[test]
    fn asm_and_disasm_round_trip_via_cli() {
        let source = "top: addiu r1, r1, 1\n bne r1, r2, top\n exit";
        let (_, file) =
            execute(Command::Asm { source: source.into(), out: Some("x.bin".into()) }).unwrap();
        let (path, bytes) = file.expect("asm -o produces a file");
        assert_eq!(path, "x.bin");
        let (text, _) = execute(Command::Disasm { image: bytes }).unwrap();
        assert!(text.contains("addiu r1, r1, 1"), "{text}");
    }
}
