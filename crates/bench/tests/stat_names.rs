//! Every name in a point's stat tree is a schema name, so the tree holds
//! it interned rather than as an owned string. A stat added to a timing
//! model, the supervisor, the sampler or the scheduler without a line in
//! the schema table (`xloops_stats::names`) would still work, but every
//! decode, clone and drop of every tree would pay an allocation for it;
//! this test names the stat instead.
//!
//! One point per execution mode and GPP kind, each plain and sampled,
//! under profiling, supervision and a store: the cold sweep's trees come
//! from the simulators and the scheduler, the warm sweep's from store
//! records.

use std::collections::BTreeSet;

use xloops_bench::manifest::{EnergyPreset, GppPreset, SpecBuilder};
use xloops_bench::sched::Scheduler;
use xloops_bench::ResultStore;
use xloops_lpsu::LpsuConfig;
use xloops_sim::{ExecMode, RunOptions, SampleSpec, SupervisorConfig};
use xloops_stats::{names::schema_name, StatSet};

/// Every node, counter and metric name of `s` outside the schema, as a
/// dotted path; every node name into `nodes`.
fn owned_names(s: &StatSet, path: &str, nodes: &mut BTreeSet<String>, out: &mut Vec<String>) {
    let path = format!("{path}{}", s.name());
    nodes.insert(s.name().to_string());
    let leaves = s.counters().map(|(n, _)| n).chain(s.metrics().map(|(n, _)| n));
    for name in std::iter::once(s.name()).chain(leaves) {
        if schema_name(name).is_none() {
            out.push(format!("{path}: {name}"));
        }
    }
    for child in s.children() {
        owned_names(child, &format!("{path}."), nodes, out);
    }
}

#[test]
fn every_stat_name_of_a_point_is_a_schema_name() {
    let (x, e) = (Some(LpsuConfig::default4()), EnergyPreset::Mcpat45);
    let sample = SampleSpec::new(500, 100, 500).expect("a valid sample spec");
    let mut b = SpecBuilder::new("names", "");
    for gpp in [GppPreset::Io, GppPreset::Ooo2] {
        for mode in [ExecMode::Traditional, ExecMode::Specialized, ExecMode::Adaptive] {
            b.point("rgb2cmyk-uc", gpp, x, e, mode);
            b.sampled_point("rgb2cmyk-uc", gpp, x, e, mode, sample);
        }
    }
    let spec = b.build();
    let options = RunOptions {
        profile: true,
        supervisor: Some(SupervisorConfig::protected()),
        ..RunOptions::default()
    };
    let dir = std::env::temp_dir().join(format!("xloops-stat-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("a fresh store directory");
    store.set_quiet(true);
    let work = [(&spec, (0..spec.points.len()).collect::<Vec<_>>())];
    let sweep = || Scheduler::new(options.clone(), Some(&store)).with_pool(None).run(&work);
    let (cold, warm) = (sweep(), sweep());
    let _ = std::fs::remove_dir_all(&dir);

    assert!(cold.outcomes[0].iter().all(|o| o.state.is_done() && !o.hit));
    assert!(warm.outcomes[0].iter().all(|o| o.hit), "the second sweep is served by the store");
    let (mut nodes, mut owned) = (BTreeSet::new(), Vec::new());
    for outcome in cold.outcomes.iter().chain(&warm.outcomes).flatten() {
        owned_names(&outcome.result.stats, "", &mut nodes, &mut owned);
    }
    assert!(owned.is_empty(), "names missing from the schema table: {owned:#?}");
    let every_node = [
        "system",
        "gpp",
        "mix",
        "dcache",
        "lpsu",
        "stalls",
        "energy",
        "supervisor",
        "sampling",
        "profile",
        "store",
        "sched",
    ];
    assert_eq!(nodes, every_node.iter().map(|n| n.to_string()).collect(), "nodes covered");
}
