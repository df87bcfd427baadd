//! Criterion microbenchmarks of the *simulator itself* (host-side
//! throughput). The paper artifacts are deterministic cycle counts and are
//! regenerated by the `src/bin/*` harnesses; these benches track how fast
//! the toolchain and the cycle-level models run, which is what a
//! downstream user iterating on microarchitecture ideas cares about.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use xloops_func::Interp;
use xloops_gpp::{GppConfig, GppCore, RunOpts};
use xloops_kernels::by_name;
use xloops_mem::Memory;
use xloops_sim::{ExecMode, System, SystemConfig};

fn bench_assembler(c: &mut Criterion) {
    let kernel = by_name("viterbi-uc").expect("kernel exists");
    let src = kernel.asm.clone();
    let mut g = c.benchmark_group("assembler");
    g.throughput(Throughput::Elements(kernel.program.len() as u64));
    g.bench_function("assemble_viterbi", |b| {
        b.iter(|| xloops_asm::assemble(std::hint::black_box(&src)).expect("assembles"))
    });
    g.finish();
}

fn bench_functional(c: &mut Criterion) {
    let kernel = by_name("huffman-ua").expect("kernel exists");
    let mut g = c.benchmark_group("functional");
    g.throughput(Throughput::Elements(25_000)); // ~dynamic instructions
    g.bench_function("interp_huffman", |b| {
        b.iter(|| {
            let mut mem = Memory::new();
            kernel.init_memory(&mut mem);
            let mut cpu = Interp::new();
            cpu.run(&kernel.program, &mut mem, 100_000_000).expect("runs")
        })
    });
    g.finish();
}

fn bench_gpp_models(c: &mut Criterion) {
    let kernel = by_name("rgb2cmyk-uc").expect("kernel exists");
    let mut g = c.benchmark_group("gpp");
    for config in [GppConfig::io(), GppConfig::ooo2(), GppConfig::ooo4()] {
        g.bench_function(config.name().replace('/', ""), |b| {
            b.iter(|| {
                let mut mem = Memory::new();
                kernel.init_memory(&mut mem);
                let mut gpp = GppCore::new(config);
                gpp.run(&kernel.program, &mut mem, &RunOpts::traditional()).expect("runs");
                gpp.stats().cycles
            })
        });
    }
    g.finish();
}

fn bench_lpsu(c: &mut Criterion) {
    let mut g = c.benchmark_group("lpsu");
    for name in ["rgb2cmyk-uc", "dither-or", "ksack-sm-om"] {
        let kernel = by_name(name).expect("kernel exists");
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut sys = System::new(SystemConfig::io_x());
                kernel.init_memory(sys.mem_mut());
                sys.run(&kernel.program, ExecMode::Specialized).expect("runs").cycles
            })
        });
    }
    g.finish();
}

/// The 4-wide out-of-order model on its own (traditional execution) — the
/// costliest GPP configuration, exercised by every baseline column.
fn bench_ooo4(c: &mut Criterion) {
    let kernel = by_name("viterbi-uc").expect("kernel exists");
    let mut g = c.benchmark_group("ooo4");
    g.bench_function("viterbi_traditional", |b| {
        b.iter(|| {
            let mut mem = Memory::new();
            kernel.init_memory(&mut mem);
            let mut gpp = GppCore::new(GppConfig::ooo4());
            gpp.run(&kernel.program, &mut mem, &RunOpts::traditional()).expect("runs");
            gpp.stats().cycles
        })
    });
    g.finish();
}

/// Full ooo/4+x systems running specialized — the paper's headline design
/// point and the dominant cost in regenerating the artifacts.
fn bench_lpsu_specialized_ooo4(c: &mut Criterion) {
    let mut g = c.benchmark_group("lpsu_specialized_ooo4");
    for name in ["viterbi-uc", "dither-or", "ksack-sm-om"] {
        let kernel = by_name(name).expect("kernel exists");
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut sys = System::new(SystemConfig::ooo4_x());
                kernel.init_memory(sys.mem_mut());
                sys.run(&kernel.program, ExecMode::Specialized).expect("runs").cycles
            })
        });
    }
    g.finish();
}

/// The shard-file codec on a real document: the full Figure 9 shard
/// (30 finished points) through the pretty-JSON encoder and decoder.
fn bench_shard_codecs(c: &mut Criterion) {
    use xloops_bench::experiments::fig9_spec;
    use xloops_bench::manifest::{run_shard, ShardDoc};
    use xloops_sim::RunOptions;

    let doc = run_shard(&fig9_spec(), 0, 1, RunOptions::default());
    let json = doc.to_json();

    let mut g = c.benchmark_group("shard_codec");
    g.throughput(Throughput::Bytes(json.len() as u64));
    g.bench_function("encode_json", |b| b.iter(|| doc.to_json()));
    g.bench_function("decode_json", |b| {
        b.iter(|| ShardDoc::from_json(std::hint::black_box(&json)).expect("parses"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_assembler,
    bench_functional,
    bench_gpp_models,
    bench_lpsu,
    bench_ooo4,
    bench_lpsu_specialized_ooo4,
    bench_shard_codecs
);
criterion_main!(benches);
