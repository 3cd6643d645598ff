//! Ablation study of two design choices of ExactMaxRS:
//!
//! * the distribution fan-out `m` (the paper sets `m = Θ(M/B)`; too small a
//!   fan-out adds recursion levels, too large a fan-out starves the merge of
//!   buffer blocks).  The requested `m` is an upper bound: a slab of `n`
//!   rectangles is split at most `⌈2.5·n/M⌉` ways, `M` of the configuration
//!   rather than the `memory_rects` override, and settings above that cap
//!   run alike,
//! * the in-memory threshold `M` (when to stop recursing and plane-sweep),
//!
//! measured both in wall-clock time (Criterion) and in I/O count (printed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxrs_core::{exact_max_rs, load_objects, ExactMaxRsOptions};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::{EmConfig, EmContext};
use maxrs_geometry::RectSize;

fn run_with(opts: &ExactMaxRsOptions, dataset: &Dataset, config: EmConfig) -> u64 {
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, &dataset.objects).unwrap();
    ctx.reset_stats();
    exact_max_rs(&ctx, &file, RectSize::square(1000.0), opts).unwrap();
    ctx.stats().total()
}

fn bench_fanout(c: &mut Criterion) {
    let dataset = Dataset::generate(DatasetKind::Uniform, 6000, 13);
    let config = EmConfig::new(4096, 16 * 4096).unwrap();
    let mut group = c.benchmark_group("ablation_fanout");
    group.sample_size(10);
    for &fanout in &[2usize, 4, 8, 14] {
        let opts = ExactMaxRsOptions {
            fanout: Some(fanout),
            memory_rects: Some(500),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &opts, |b, opts| {
            b.iter(|| run_with(opts, &dataset, config));
        });
    }
    group.finish();

    println!("# ablation: ExactMaxRS I/O vs distribution fan-out m (M fixed at 500 rects)");
    for &fanout in &[2usize, 4, 8, 14] {
        let opts = ExactMaxRsOptions {
            fanout: Some(fanout),
            memory_rects: Some(500),
            ..Default::default()
        };
        println!(
            "m = {:>2}: {} I/Os",
            fanout,
            run_with(&opts, &dataset, config)
        );
    }
}

fn bench_memory_threshold(c: &mut Criterion) {
    let dataset = Dataset::generate(DatasetKind::Gaussian, 6000, 29);
    let config = EmConfig::new(4096, 16 * 4096).unwrap();
    let mut group = c.benchmark_group("ablation_memory_threshold");
    group.sample_size(10);
    for &mem in &[64usize, 256, 1024, 4096] {
        let opts = ExactMaxRsOptions {
            memory_rects: Some(mem),
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(mem), &opts, |b, opts| {
            b.iter(|| run_with(opts, &dataset, config));
        });
    }
    group.finish();

    println!("# ablation: ExactMaxRS I/O vs in-memory threshold M (fan-out from the buffer)");
    for &mem in &[64usize, 256, 1024, 4096] {
        let opts = ExactMaxRsOptions {
            memory_rects: Some(mem),
            ..Default::default()
        };
        println!(
            "M = {:>5} rects: {} I/Os",
            mem,
            run_with(&opts, &dataset, config)
        );
    }
}

criterion_group!(benches, bench_fanout, bench_memory_threshold);
criterion_main!(benches);
