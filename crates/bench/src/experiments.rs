//! One declarative [`ExperimentSpec`] per paper artifact.
//!
//! Each `*_spec()` constructor builds the artifact as pure data — points
//! plus rendering description (see [`crate::manifest`]) — so every
//! figure and table goes through one code path ([`crate::sched::Scheduler`]
//! then [`crate::manifest::render_spec`]) whether it runs locally, from a
//! manifest file, or sharded across machines. The rendered text is
//! byte-identical to the historical imperative reports.

use xloops_energy::{gpp_area_mm2, lpsu_area_mm2, lpsu_cycle_time_ns, scalar_cycle_time_ns};
use xloops_kernels::{table2, table4};
use xloops_lpsu::LpsuConfig;
use xloops_sim::ExecMode;

use crate::f2;
use crate::manifest::{
    BarRow, Cell, EnergyPreset, ExperimentSpec, GppPreset, SectionBody, SpecBuilder,
};

/// The three GPP classes every cross-baseline artifact sweeps.
const GPPS: [GppPreset; 3] = [GppPreset::Io, GppPreset::Ooo2, GppPreset::Ooo4];

fn gpp_name(gpp: GppPreset) -> &'static str {
    match gpp {
        GppPreset::Io => "io",
        GppPreset::Ooo2 => "ooo/2",
        GppPreset::Ooo4 => "ooo/4",
    }
}

fn x_name(gpp: GppPreset) -> &'static str {
    match gpp {
        GppPreset::Io => "io+x",
        GppPreset::Ooo2 => "ooo/2+x",
        GppPreset::Ooo4 => "ooo/4+x",
    }
}

fn primary() -> Option<LpsuConfig> {
    Some(LpsuConfig::default4())
}

/// Table II: dynamic instruction counts, X/G ratio, and T/S/A speedups on
/// all three GPP classes.
pub fn table2_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "table2",
        "Table II: XLOOPS application kernels and cycle-level results\n\
         (speedups normalized to the GP-ISA binary on the matching baseline GPP)\n\n",
    );
    let header: Vec<String> = [
        "name", "suite", "type", "GPI", "X/G", "io:T", "io:S", "io:A", "ooo2:T", "ooo2:S",
        "ooo2:A", "ooo4:T", "ooo4:S", "ooo4:A",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for k in table2() {
        let gp_io = b.baseline(k.name, GppPreset::Io, EnergyPreset::Mcpat45);
        let x_io_t =
            b.point(k.name, GppPreset::Io, None, EnergyPreset::Mcpat45, ExecMode::Traditional);
        let mut cells = vec![
            Cell::Text(k.name.to_string()),
            Cell::Text(k.suite.tag().to_string()),
            Cell::Text(k.patterns.to_string()),
            Cell::Insns { point: gp_io },
            Cell::Ratio { num: x_io_t, den: gp_io, path: "instret".into() },
        ];
        for gpp in GPPS {
            let base = b.baseline(k.name, gpp, EnergyPreset::Mcpat45);
            let t_run = b.point(k.name, gpp, None, EnergyPreset::Mcpat45, ExecMode::Traditional);
            let s_run =
                b.point(k.name, gpp, primary(), EnergyPreset::Mcpat45, ExecMode::Specialized);
            let a_run = b.point(k.name, gpp, primary(), EnergyPreset::Mcpat45, ExecMode::Adaptive);
            cells.push(Cell::Speedup { base, run: t_run });
            cells.push(Cell::Speedup { base, run: s_run });
            cells.push(Cell::Speedup { base, run: a_run });
        }
        rows.push(cells);
    }
    b.section("", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Figure 5: specialized-execution speedup against the out-of-order
/// baselines (bar-chart data with ASCII bars).
pub fn fig5_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "fig5",
        "Figure 5: specialized execution vs out-of-order baselines\n\
         (each bar: kernel speedup of S on ooo/N+x over GP-ISA on ooo/N)\n\n",
    );
    for gpp in [GppPreset::Ooo2, GppPreset::Ooo4] {
        let mut rows = Vec::new();
        for k in table2() {
            let base = b.baseline(k.name, gpp, EnergyPreset::Mcpat45);
            let run = b.point(k.name, gpp, primary(), EnergyPreset::Mcpat45, ExecMode::Specialized);
            rows.push(BarRow { label: k.name.to_string(), base, run });
        }
        b.section(&format!("--- vs {} ---\n", gpp_name(gpp)), SectionBody::Bars { rows }, "\n");
    }
    b.build()
}

/// Figure 6: breakdown of lane-cycles during specialized execution. The
/// cell formulas consume the same dotted stat paths the CLI's
/// `--stats json` output exposes (under the `lpsu` subtree).
pub fn fig6_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "fig6",
        "Figure 6: cycle breakdown of specialized execution on ooo/2+x\n\
         (fraction of LPSU lane-cycles per category)\n\n",
    );
    let header: Vec<String> =
        ["name", "exec%", "raw%", "mem%", "llfu%", "cir%", "lsq%", "squash%", "idle%", "squashes"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let fractions = [
        "lpsu.exec",
        "lpsu.stalls.raw",
        "lpsu.stalls.mem_port",
        "lpsu.stalls.llfu",
        "lpsu.stalls.cir",
        "lpsu.stalls.lsq",
        "lpsu.squash",
        "lpsu.idle",
    ];
    let mut rows = Vec::new();
    for k in table2() {
        let run = b.point(
            k.name,
            GppPreset::Ooo2,
            primary(),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
        );
        let mut cells = vec![Cell::Text(k.name.to_string())];
        for path in fractions {
            cells.push(Cell::Pct {
                point: run,
                path: path.into(),
                total: "lpsu.lane_cycles".into(),
            });
        }
        cells.push(Cell::Counter { point: run, path: "lpsu.squashed_iters".into() });
        rows.push(cells);
    }
    b.section("", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Figure 7: specialized vs adaptive execution on ooo/4+x.
pub fn fig7_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "fig7",
        "Figure 7: specialized vs adaptive execution on ooo/4+x\n\
         (speedup over GP-ISA on ooo/4; adaptive profiles 256 iters / 2000 cycles)\n\n",
    );
    let header: Vec<String> = ["name", "S", "A", "chose"].iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for k in table2() {
        let base = b.baseline(k.name, GppPreset::Ooo4, EnergyPreset::Mcpat45);
        let s_run = b.point(
            k.name,
            GppPreset::Ooo4,
            primary(),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
        );
        let a_run =
            b.point(k.name, GppPreset::Ooo4, primary(), EnergyPreset::Mcpat45, ExecMode::Adaptive);
        rows.push(vec![
            Cell::Text(k.name.to_string()),
            Cell::Speedup { base, run: s_run },
            Cell::Speedup { base, run: a_run },
            Cell::Choice {
                point: a_run,
                path: "adaptive_to_gpp".into(),
                nonzero: "gpp".into(),
                zero: "lpsu".into(),
            },
        ]);
    }
    b.section("", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Figure 8: dynamic energy efficiency vs performance for specialized and
/// adaptive execution on all three GPP+LPSU systems.
pub fn fig8_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "fig8",
        "Figure 8: energy efficiency vs performance\n\
         (normalized to the GP-ISA binary on the matching baseline GPP;\n\
          eff > 1 uses less energy, perf > 1 is faster; power = eff/perf < 1 means less power)\n\n",
    );
    let header: Vec<String> =
        ["name", "S perf", "S eff", "A perf", "A eff"].iter().map(|s| s.to_string()).collect();
    for gpp in GPPS {
        let mut rows = Vec::new();
        for k in table2() {
            let base = b.baseline(k.name, gpp, EnergyPreset::Mcpat45);
            let s_run =
                b.point(k.name, gpp, primary(), EnergyPreset::Mcpat45, ExecMode::Specialized);
            let a_run = b.point(k.name, gpp, primary(), EnergyPreset::Mcpat45, ExecMode::Adaptive);
            rows.push(vec![
                Cell::Text(k.name.to_string()),
                Cell::Speedup { base, run: s_run },
                Cell::EnergyEff { base, run: s_run },
                Cell::Speedup { base, run: a_run },
                Cell::EnergyEff { base, run: a_run },
            ]);
        }
        b.section(
            &format!("--- {} ---\n", x_name(gpp)),
            SectionBody::Table { header: header.clone(), rows },
            "\n",
        );
    }
    b.build()
}

/// Figure 9: microarchitectural design-space exploration on ooo/4.
pub fn fig9_spec() -> ExperimentSpec {
    let select = ["sgemm-uc", "viterbi-uc", "kmeans-or", "covar-or", "btree-ua"];
    let variants: [(&str, LpsuConfig); 5] = [
        ("x4", LpsuConfig::default4()),
        ("x4+t", LpsuConfig::default4().with_multithreading()),
        ("x8", LpsuConfig::default4().with_lanes(8)),
        ("x8+r", LpsuConfig::default4().with_lanes(8).with_double_resources()),
        ("x8+r+m", LpsuConfig::default4().with_lanes(8).with_double_resources().with_big_lsq()),
    ];
    let mut b = SpecBuilder::new(
        "fig9",
        "Figure 9: LPSU design-space exploration on ooo/4\n\
         (specialized-execution speedup over GP-ISA on ooo/4;\n\
          +t = 2-way lane multithreading, x8 = 8 lanes, +r = 2x LLFU/mem ports, +m = 16+16 LSQ)\n\n",
    );
    let mut header = vec!["name".to_string()];
    header.extend(variants.iter().map(|(n, _)| n.to_string()));
    let mut rows = Vec::new();
    for name in select {
        let base = b.baseline(name, GppPreset::Ooo4, EnergyPreset::Mcpat45);
        let mut cells = vec![Cell::Text(name.to_string())];
        for (_, lpsu) in variants {
            let run = b.point(
                name,
                GppPreset::Ooo4,
                Some(lpsu),
                EnergyPreset::Mcpat45,
                ExecMode::Specialized,
            );
            cells.push(Cell::Speedup { base, run });
        }
        rows.push(cells);
    }
    b.section("", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Table IV: hand-optimized `or` schedules and loop-transformed variants.
pub fn table4_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "table4",
        "Table IV: case study results\n\
         (specialized-execution speedup over the variant's GP-ISA binary\n\
          on the matching baseline GPP)\n\n",
    );
    let header: Vec<String> =
        ["name", "type", "io+x", "ooo2+x", "ooo4+x"].iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for k in table4() {
        let mut cells = vec![Cell::Text(k.name.to_string()), Cell::Text(k.patterns.to_string())];
        for gpp in GPPS {
            let base = b.baseline(k.name, gpp, EnergyPreset::Mcpat45);
            let run = b.point(k.name, gpp, primary(), EnergyPreset::Mcpat45, ExecMode::Specialized);
            cells.push(Cell::Speedup { base, run });
        }
        rows.push(cells);
    }
    b.section("", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Table V: the analytical VLSI area / cycle-time model. No simulation
/// points — every cell is computed from the (deterministic) analytical
/// model when the spec is built.
pub fn table5_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "table5",
        "Table V: VLSI area and cycle-time results for the LPSU\n\
         (analytical model calibrated to the published post-P&R numbers;\n\
          see crates/energy/src/area.rs for the decomposition)\n\n",
    );
    let header: Vec<String> =
        ["config", "CT (ns)", "area (mm2)", "overhead"].iter().map(|s| s.to_string()).collect();
    let mut rows = vec![vec![
        Cell::Text("scalar".into()),
        Cell::Text(f2(scalar_cycle_time_ns())),
        Cell::Text(f2(gpp_area_mm2())),
        Cell::Text("--".into()),
    ]];
    let sweep: [(u32, u32); 7] =
        [(96, 4), (128, 4), (160, 4), (192, 4), (128, 2), (128, 6), (128, 8)];
    for (ibuf, lanes) in sweep {
        let area = gpp_area_mm2() + lpsu_area_mm2(ibuf, lanes);
        let overhead = lpsu_area_mm2(ibuf, lanes) / gpp_area_mm2();
        rows.push(vec![
            Cell::Text(format!("lpsu+i{ibuf:03}+ln{lanes}")),
            Cell::Text(f2(lpsu_cycle_time_ns(ibuf, lanes))),
            Cell::Text(f2(area)),
            Cell::Text(format!("{:.0}%", overhead * 100.0)),
        ]);
    }
    b.section("", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Figure 10: the VLSI-flavoured energy study on the `xloop.uc` kernels.
pub fn fig10_spec() -> ExperimentSpec {
    let uc = ["rgb2cmyk-uc", "sgemm-uc", "ssearch-uc", "symm-uc", "viterbi-uc", "war-uc"];
    let mut b = SpecBuilder::new(
        "fig10",
        "Figure 10: VLSI energy efficiency vs performance (40nm-class table)\n\
         (xloop.uc kernels, specialized on io+x vs GP-ISA on the scalar GPP;\n\
          instruction-buffer access = I-cache access / 10, as measured by the\n\
          paper's ASIC flow)\n\n",
    );
    let header: Vec<String> =
        ["name", "speedup", "energy eff"].iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for name in uc {
        let base = b.baseline(name, GppPreset::Io, EnergyPreset::Vlsi40);
        let run =
            b.point(name, GppPreset::Io, primary(), EnergyPreset::Vlsi40, ExecMode::Specialized);
        rows.push(vec![
            Cell::Text(name.to_string()),
            Cell::Speedup { base, run },
            Cell::EnergyEff { base, run },
        ]);
    }
    b.section("", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Ablation study of design choices called out in `DESIGN.md`: the
/// cross-lane store-load forwarding extension (the paper's "more
/// aggressive implementations" note) on the speculation-bound kernels,
/// and the CIB transfer latency on the CIR-bound kernels.
pub fn ablation_spec() -> ExperimentSpec {
    let mut b = SpecBuilder::new(
        "ablation",
        "Ablation: LPSU design choices (specialized execution on ooo/2+x,\n\
         speedup over GP-ISA on ooo/2)\n\n",
    );

    // Cross-lane forwarding on memory-speculation kernels.
    let header: Vec<String> = ["name", "base", "+xlf", "squashes base", "squashes +xlf"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for name in ["dynprog-om", "ksack-sm-om", "stencil-orm", "hsort-ua", "war-om"] {
        let base = b.baseline(name, GppPreset::Ooo2, EnergyPreset::Mcpat45);
        let plain =
            b.point(name, GppPreset::Ooo2, primary(), EnergyPreset::Mcpat45, ExecMode::Specialized);
        let xlf = b.point(
            name,
            GppPreset::Ooo2,
            Some(LpsuConfig::default4().with_cross_lane_forwarding()),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
        );
        rows.push(vec![
            Cell::Text(name.to_string()),
            Cell::Speedup { base, run: plain },
            Cell::Speedup { base, run: xlf },
            Cell::Counter { point: plain, path: "lpsu.squashed_iters".into() },
            Cell::Counter { point: xlf, path: "lpsu.squashed_iters".into() },
        ]);
    }
    b.section(
        "--- cross-lane store-load forwarding ---\n",
        SectionBody::Table { header, rows },
        "",
    );

    // CIB latency sweep on CIR-bound kernels.
    let header: Vec<String> =
        ["name", "cib=1", "cib=2", "cib=4"].iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for name in ["adpcm-or", "dither-or", "sha-or", "kmeans-or"] {
        let base = b.baseline(name, GppPreset::Ooo2, EnergyPreset::Mcpat45);
        let mut cells = vec![Cell::Text(name.to_string())];
        for lat in [1, 2, 4] {
            let run = b.point(
                name,
                GppPreset::Ooo2,
                Some(LpsuConfig::default4().with_cib_latency(lat)),
                EnergyPreset::Mcpat45,
                ExecMode::Specialized,
            );
            cells.push(Cell::Speedup { base, run });
        }
        rows.push(cells);
    }
    b.section("\n--- CIB transfer latency ---\n", SectionBody::Table { header, rows }, "");
    b.build()
}

/// Every artifact spec, in emission order.
pub fn all_specs() -> Vec<ExperimentSpec> {
    vec![
        table2_spec(),
        fig5_spec(),
        fig6_spec(),
        fig7_spec(),
        fig8_spec(),
        fig9_spec(),
        table4_spec(),
        table5_spec(),
        fig10_spec(),
        ablation_spec(),
    ]
}

/// The spec named `name`, if it is one of the known artifacts.
pub fn spec_by_name(name: &str) -> Option<ExperimentSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}
