//! Figure 17 (reduced): runtime of ApproxMaxCRS and of the exact MaxCRS
//! reference, plus a one-shot print of the measured approximation ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxrs_core::{exact_max_crs_in_memory, MaxRsEngine, Query};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::EmConfig;
use maxrs_geometry::WeightedPoint;

/// ApproxMaxCRS of `diameter` through the engine at a 16-block buffer.
fn approx_weight(objects: &[WeightedPoint], diameter: f64) -> f64 {
    MaxRsEngine::with_em_config(EmConfig::new(4096, 16 * 4096).unwrap())
        .run(objects, &Query::approx_max_crs(diameter))
        .unwrap()
        .answer
        .best_weight()
}

fn bench_quality(c: &mut Criterion) {
    let dataset = Dataset::generate(DatasetKind::Uniform, 3000, 5);
    let mut group = c.benchmark_group("fig17_quality");
    group.sample_size(10);

    for &diameter in &[1000.0f64, 5000.0, 10000.0] {
        group.bench_with_input(
            BenchmarkId::new("ApproxMaxCRS", diameter as u64),
            &dataset,
            |b, ds| {
                b.iter(|| approx_weight(&ds.objects, diameter));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ExactMaxCRS", diameter as u64),
            &dataset,
            |b, ds| {
                b.iter(|| exact_max_crs_in_memory(&ds.objects, diameter));
            },
        );
    }
    group.finish();

    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, 3000, 5);
        for &diameter in &[1000.0f64, 5000.0, 10000.0] {
            let approx = approx_weight(&ds.objects, diameter);
            let exact = exact_max_crs_in_memory(&ds.objects, diameter);
            println!(
                "fig17 (reduced) {} d={diameter}: ratio {:.3}",
                kind.name(),
                approx / exact.total_weight.max(1e-12)
            );
        }
    }
}

criterion_group!(benches, bench_quality);
criterion_main!(benches);
