//! Seeded design-space manifests for the `sweep_*` workloads.
//!
//! A manifest is a table of rows; a row is one Table II kernel on one
//! baseline GPP (io, ooo/2 or ooo/4), with the GP-ISA baseline plus the
//! six design points {no LPSU, x4, x4+t, x8, x8+r, x8+r+m} and a speedup
//! cell for each. A *round* is one manifest of every size on a ladder from
//! 35 to 175 points, in a seeded order, that together hold every row
//! exactly once: every round does the same work, and the seed decides
//! only which rows share a manifest and in which order the sizes come.
//! Each manifest is named after the seed and its sweep index, so every
//! fingerprint is distinct and the daemon's done-sweep memo never answers
//! a sweep.

use std::collections::HashSet;

use xloops_bench::manifest::{
    Cell, EnergyPreset, ExperimentSpec, GppPreset, SectionBody, SpecBuilder,
};
use xloops_kernels::table2;
use xloops_lpsu::LpsuConfig;
use xloops_sim::ExecMode;

/// Rows per manifest, one manifest of each per round. They sum to the 75
/// rows (25 Table II kernels x 3 GPPs).
const LADDER: [usize; 5] = [5, 10, 15, 20, 25];

/// Manifests per round.
pub const ROUND: usize = LADDER.len();

/// Whether `spec` has the median ladder size: the traced run replays its
/// layers over such a manifest, so replays match the per-sweep medians.
pub fn is_median_size(spec: &ExperimentSpec) -> bool {
    spec.points.len() == LADDER[ROUND / 2] * (variants().len() + 1)
}

const GPPS: [(GppPreset, &str); 3] =
    [(GppPreset::Io, "io"), (GppPreset::Ooo2, "ooo/2"), (GppPreset::Ooo4, "ooo/4")];

/// The six design points of a row; `None` is the GPP alone.
fn variants() -> [(&'static str, Option<LpsuConfig>); 6] {
    let x4 = LpsuConfig::default4();
    [
        ("T", None),
        ("x4", Some(x4)),
        ("x4+t", Some(x4.with_multithreading())),
        ("x8", Some(x4.with_lanes(8))),
        ("x8+r", Some(x4.with_lanes(8).with_double_resources())),
        ("x8+r+m", Some(x4.with_lanes(8).with_double_resources().with_big_lsq())),
    ]
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher-Yates over the first `take` slots: a uniform sample of
    /// `take` distinct items, in random order, at the front of `items`.
    fn sample<T>(&mut self, items: &mut [T], take: usize) {
        for i in 0..take.min(items.len()) {
            let j = i + self.below(items.len() - i);
            items.swap(i, j);
        }
    }
}

/// The seeded manifest source of one run.
pub struct Generator {
    seed: u64,
    rows: Vec<(&'static str, usize)>,
    seen: HashSet<String>,
}

impl Generator {
    pub fn new(seed: u64) -> Generator {
        let rows: Vec<_> =
            table2().iter().flat_map(|k| (0..GPPS.len()).map(move |g| (k.name, g))).collect();
        assert_eq!(LADDER.iter().sum::<usize>(), rows.len(), "a round holds every row once");
        Generator { seed, rows, seen: HashSet::new() }
    }

    /// Manifest `k` of the run, logged to stderr with its size,
    /// fingerprint and LPSU vs traditional point share. Fails if its
    /// fingerprint repeats an earlier one, which would let the daemon
    /// answer from its memo.
    pub fn manifest(&mut self, k: usize) -> Result<ExperimentSpec, String> {
        let (round, slot) = (k / ROUND, k % ROUND);
        let mut rng = Rng::new(self.seed ^ (round as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut order: Vec<usize> = (0..ROUND).collect();
        rng.sample(&mut order, ROUND);
        let mut rows = self.rows.clone();
        rng.sample(&mut rows, self.rows.len());
        let start: usize = order[..slot].iter().map(|&c| LADDER[c]).sum();
        let spec = build(
            &format!("sweep-{}-{k}", self.seed),
            &format!("Design-space sweep {k} of seed {}\n(speedup over GP-ISA)\n\n", self.seed),
            &rows[start..start + LADDER[order[slot]]],
        );
        let fingerprint = spec.fingerprint();
        if !self.seen.insert(fingerprint.clone()) {
            return Err(format!("manifest {k} repeats fingerprint {fingerprint}"));
        }
        let lpsu = spec.points.iter().filter(|p| p.config.lpsu.is_some()).count();
        let lpsu_share = lpsu as f64 / spec.points.len() as f64;
        eprintln!(
            "manifest seed={} sweep={k} points={} fingerprint={fingerprint} lpsu_share={lpsu_share:.3} traditional_share={:.3}",
            self.seed,
            spec.points.len(),
            1.0 - lpsu_share
        );
        Ok(spec)
    }

    /// Every row in one manifest: the universe the reference results are
    /// simulated from.
    pub fn universe(&self) -> ExperimentSpec {
        build("sweep-universe", "", &self.rows)
    }
}

fn build(name: &str, caption: &str, rows: &[(&'static str, usize)]) -> ExperimentSpec {
    let variants = variants();
    let mut b = SpecBuilder::new(name, caption);
    let mut header = vec!["name".to_string(), "gpp".to_string()];
    header.extend(variants.iter().map(|(n, _)| n.to_string()));
    let mut table = Vec::new();
    for &(kernel, g) in rows {
        let (gpp, gpp_name) = GPPS[g];
        let base = b.baseline(kernel, gpp, EnergyPreset::Mcpat45);
        let mut cells = vec![Cell::Text(kernel.to_string()), Cell::Text(gpp_name.to_string())];
        for (_, lpsu) in variants {
            let mode = if lpsu.is_some() { ExecMode::Specialized } else { ExecMode::Traditional };
            let run = b.point(kernel, gpp, lpsu, EnergyPreset::Mcpat45, mode);
            cells.push(Cell::Speedup { base, run });
        }
        table.push(cells);
    }
    b.section("", SectionBody::Table { header, rows: table }, "");
    b.build()
}
