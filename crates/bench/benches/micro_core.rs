//! Micro-benchmarks of the core building blocks: the in-memory plane sweep,
//! external sort and the engine paths built on them.  These are
//! ablation-style measurements that support the design choices rather than a
//! figure of the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxrs_bench::runner::run_query;
use maxrs_core::{
    load_objects, max_rs_in_memory, transform_objects, EngineOptions, ExactMaxRsOptions,
    MaxRsEngine, Query, QueryBatch, QueryRun, SweepScratch,
};
use maxrs_datagen::{event_stream, Dataset, DatasetKind, EventStreamConfig};
use maxrs_em::{external_sort_by_key, EmConfig, EmContext};
use maxrs_geometry::{Interval, Rect, RectSize};
use maxrs_stream::{Event, StreamConfig, StreamEngine};

/// The slab-sweep kernel at the leaf sizes of the benchmark's recursion
/// (about 1k rectangles per leaf at a 16-block buffer, 10k at 1 MiB): one
/// reused [`SweepScratch`] over the transformed rectangles, and the whole
/// in-memory query around it.
fn bench_plane_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("plane_sweep");
    group.sample_size(10);
    let size = RectSize::square(5000.0);
    for &n in &[1_000usize, 10_000] {
        let ds = Dataset::generate(DatasetKind::Uniform, n, 3);
        let rects = transform_objects(&ds.objects, size);
        let mut scratch = SweepScratch::new();
        group.bench_with_input(BenchmarkId::new("sweep", n), &rects, |b, rects| {
            b.iter(|| scratch.sweep(rects, Interval::UNBOUNDED).len());
        });
        group.bench_with_input(BenchmarkId::new("max_rs_in_memory", n), &ds, |b, ds| {
            b.iter(|| max_rs_in_memory(&ds.objects, size));
        });
    }
    group.finish();
}

fn bench_external_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_sort");
    group.sample_size(10);
    for &n in &[10_000u64, 50_000] {
        group.bench_with_input(BenchmarkId::new("u64_reverse", n), &n, |b, &n| {
            b.iter(|| {
                let ctx = EmContext::new(EmConfig::new(4096, 16 * 4096).unwrap());
                let data: Vec<u64> = (0..n).rev().collect();
                let file = ctx.write_all(&data).unwrap();
                external_sort_by_key(&ctx, &file, |x| *x).unwrap()
            });
        });
    }
    group.finish();
}

/// Sequential vs. parallel ExactMaxRS through the [`MaxRsEngine`] facade: the
/// same dataset, EM configuration and query, varying only the worker cap of
/// the parallel slab stage.  `workers = 1` is the paper's sequential sweep;
/// larger caps solve the top-level sub-slabs concurrently before the same
/// MergeSweep, so the printed I/O should match across caps.
///
/// The dataset is loaded into the context once per variant, outside the timed
/// loop, so the measured wall-clock covers the solve only — the same phase
/// whose I/O the harness reports.
fn bench_engine_parallelism(c: &mut Criterion) {
    // 64 pool blocks -> up to 8 effective workers; 30k objects >> M.
    let config = EmConfig::new(4096, 64 * 4096).unwrap();
    let ds = Dataset::generate(DatasetKind::Uniform, 30_000, 17);
    let size = RectSize::square(20_000.0);

    let mut group = c.benchmark_group("engine_exact_maxrs");
    group.sample_size(10);
    for &workers in &[1usize, 2, 4, 8] {
        let engine = MaxRsEngine::with_options(EngineOptions {
            em_config: config,
            exact: ExactMaxRsOptions {
                parallelism: workers,
                ..Default::default()
            },
            force_strategy: None,
        });
        let ctx = EmContext::new(config);
        let file = load_objects(&ctx, &ds.objects).unwrap();
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| engine.run_file(&ctx, &file, &Query::max_rs(size)).unwrap());
        });
    }
    group.finish();

    // Print what each variant actually did (strategy, workers, I/O) so the
    // bench output documents the comparison, not just the wall-clock.
    for workers in [1usize, 8] {
        let run = run_query(config, &ds.objects, &Query::max_rs(size), workers).unwrap();
        println!(
            "engine_exact_maxrs workers={workers}: strategy={} effective_workers={} io={}",
            run.strategy.name(),
            run.workers,
            run.io
        );
    }
}

/// All four [`Query`] variants through the engine on one dataset and EM
/// configuration: what a variant query costs relative to plain MaxRS on the
/// same substrate.  Top-k pays one distribution sweep per round plus a
/// suppression scan; MinRS is one weight-negated sweep over its domain slab;
/// ApproxMaxCRS is one sweep plus a candidate-evaluation scan.
fn bench_engine_variants(c: &mut Criterion) {
    let config = EmConfig::new(4096, 64 * 4096).unwrap();
    let ds = Dataset::generate(DatasetKind::Uniform, 20_000, 23);
    let size = RectSize::square(20_000.0);
    let domain = Rect::new(200_000.0, 800_000.0, 200_000.0, 800_000.0);
    let queries: Vec<(&str, Query)> = vec![
        ("max_rs", Query::max_rs(size)),
        ("top_k3", Query::top_k(size, 3)),
        ("min_rs", Query::min_rs(size, domain)),
        ("approx_max_crs", Query::approx_max_crs(20_000.0)),
    ];

    let mut group = c.benchmark_group("engine_variants");
    group.sample_size(10);
    for (name, query) in &queries {
        let engine = MaxRsEngine::with_em_config(config);
        let ctx = EmContext::new(config);
        let file = load_objects(&ctx, &ds.objects).unwrap();
        group.bench_with_input(BenchmarkId::new("query", name), query, |b, q| {
            b.iter(|| engine.run_file(&ctx, &file, q).unwrap());
        });
    }
    group.finish();

    // Document what each variant did (strategy, workers, I/O, answer shape).
    for (name, query) in &queries {
        let run = run_query(config, &ds.objects, query, 1).unwrap();
        println!(
            "engine_variants {name}: strategy={} workers={} io={} best_weight={}",
            run.strategy.name(),
            run.workers,
            run.io,
            run.answer.best_weight()
        );
    }
}

/// Cold query vs. second query on a [`PreparedDataset`]: the amortization
/// the prepared layer exists for.  "cold" pays the copy of the object file +
/// transform + sweep on every iteration (`MaxRsEngine::run_file`); "warm"
/// re-runs the query against the dataset's retained copy and pays only
/// transform + sweep.  The printed footer records the backend and the I/O
/// split so the bench output documents *why* the warm path wins.
fn bench_prepared_reuse(c: &mut Criterion) {
    let config = EmConfig::new(4096, 64 * 4096).unwrap();
    let ds = Dataset::generate(DatasetKind::Uniform, 30_000, 29);
    let size = RectSize::square(20_000.0);
    let query = Query::max_rs(size);

    let mut group = c.benchmark_group("prepared_reuse");
    group.sample_size(10);

    let engine = MaxRsEngine::with_em_config(config);
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, &ds.objects).unwrap();
    group.bench_function("cold_run_file", |b| {
        b.iter(|| engine.run_file(&ctx, &file, &query).unwrap());
    });

    let prepared = engine.prepare_file(&ctx, &file).unwrap();
    group.bench_function("warm_prepared_run", |b| {
        b.iter(|| prepared.run(&query).unwrap());
    });
    group.finish();

    let cold = engine.run_file(&ctx, &file, &query).unwrap();
    let warm = prepared.run(&query).unwrap();
    println!(
        "prepared_reuse {}: backend={} cold_io={} prepare_io={} warm_io={}",
        query.name(),
        ctx.backend_name(),
        cold.io,
        prepared.prepare_io(),
        warm.io
    );
}

/// Batched vs. independent execution of a 4-query serving mix over one
/// [`PreparedDataset`]: `run_batch` plans MaxRS, top-k and ApproxMaxCRS of
/// one rectangle size into a single shared sweep group (MinRS gets its own
/// negated pass), so the batch pays 2 kernel passes where the independent
/// loop pays 4.  The printed footer records the per-path I/O so the bench
/// output documents *why* the batched path wins.
fn bench_engine_batch(c: &mut Criterion) {
    let config = EmConfig::new(4096, 64 * 4096).unwrap();
    let ds = Dataset::generate(DatasetKind::Uniform, 30_000, 31);
    let size = RectSize::square(20_000.0);
    let domain = Rect::new(200_000.0, 800_000.0, 200_000.0, 800_000.0);
    let queries = vec![
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::approx_max_crs(20_000.0),
        Query::min_rs(size, domain),
    ];

    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);

    let engine = MaxRsEngine::with_em_config(config);
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, &ds.objects).unwrap();
    let prepared = engine.prepare_file(&ctx, &file).unwrap();
    let independent =
        || -> Vec<QueryRun> { queries.iter().map(|q| prepared.run(q).unwrap()).collect() };
    group.bench_function("run_batch_4_queries", |b| {
        b.iter(|| prepared.run_batch(&queries).unwrap());
    });
    group.bench_function("independent_4_queries", |b| {
        b.iter(independent);
    });
    group.finish();

    // Per-query I/O is leader-attributed, so each sum is its path's total.
    let batched = prepared.run_batch(&queries).unwrap();
    let independent = independent();
    let io = |runs: &[QueryRun]| runs.iter().map(|r| r.io.total()).sum::<u64>();
    println!(
        "engine_batch: backend={} groups={}/{} batch_io={} independent_io={} verified={}",
        ctx.backend_name(),
        QueryBatch::new(&queries).unwrap().num_groups(),
        queries.len(),
        io(&batched),
        io(&independent),
        batched
            .iter()
            .zip(&independent)
            .all(|(b, s)| b.answer == s.answer)
    );
}

/// Incremental vs. from-scratch answering over a dynamic dataset: build a
/// streamed dataset once, then measure (a) one event + one incremental
/// answer (the steady-state cost of the maintenance loop) against (b) one
/// event + a full `max_rs_in_memory` recompute — the operation the
/// streaming subsystem replaces.  A footer prints the maintenance stats so
/// the bench output documents how localized the incremental work is.
fn bench_engine_stream(c: &mut Criterion) {
    let size = RectSize::square(10_000.0);
    let cfg = EventStreamConfig {
        events: 20_000,
        ..Default::default()
    };
    let events = event_stream(&cfg, 3);

    let mut group = c.benchmark_group("engine_stream");
    group.sample_size(10);

    group.bench_function("ingest_20k_events", |b| {
        b.iter(|| {
            let mut engine = StreamEngine::new(StreamConfig::max_rs(size)).unwrap();
            engine.apply_all(&events).unwrap();
            engine.len()
        });
    });

    // Both steady-state benches share one pre-built engine; each iteration
    // inserts a fresh object and deletes it again after answering, so the
    // dataset stays at its advertised 20k-event size no matter how many
    // timing iterations criterion runs — the two benches therefore measure
    // the same workload and remain directly comparable.
    let mut engine = StreamEngine::new(StreamConfig::max_rs(size)).unwrap();
    engine.apply_all(&events).unwrap();
    let mut next_id = events.len() as u64;
    let mut t = events.last().map_or(0.0, |e| e.at());
    group.bench_function("event_plus_incremental_answer", |b| {
        b.iter(|| {
            t += 1.0;
            let id = next_id;
            next_id += 1;
            engine
                .apply(&Event::insert(
                    id,
                    (id % 997) as f64 * 1000.0,
                    500_000.0,
                    1.0,
                    t,
                ))
                .unwrap();
            let best = engine.answer().run.answer.best_weight();
            engine.apply(&Event::delete(id, t)).unwrap();
            best
        });
    });
    group.bench_function("event_plus_full_recompute", |b| {
        b.iter(|| {
            t += 1.0;
            let id = next_id;
            next_id += 1;
            engine
                .apply(&Event::insert(
                    id,
                    (id % 997) as f64 * 1000.0,
                    500_000.0,
                    1.0,
                    t,
                ))
                .unwrap();
            let best = max_rs_in_memory(&engine.survivors(), size).total_weight;
            engine.apply(&Event::delete(id, t)).unwrap();
            best
        });
    });
    group.finish();

    let answer = engine.answer();
    println!(
        "engine_stream: survivors={} cells {}/{} swept/total, pruned={}",
        answer.stats.live_objects,
        answer.stats.cells_swept,
        answer.stats.cells_total,
        answer.stats.cells_pruned
    );
}

criterion_group!(
    benches,
    bench_plane_sweep,
    bench_external_sort,
    bench_engine_parallelism,
    bench_engine_variants,
    bench_prepared_reuse,
    bench_engine_batch,
    bench_engine_stream
);
criterion_main!(benches);
