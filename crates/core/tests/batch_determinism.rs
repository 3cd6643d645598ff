//! Batched-execution regression tests: [`PreparedDataset::run_batch`] must
//! answer **bit-identically** to per-query [`PreparedDataset::run`] calls —
//! all four [`Query`] variants, both storage backends, tie-heavy and
//! zero-weight data, mixed rectangle sizes, sequential and parallel group
//! execution — while performing strictly fewer logical block reads than the
//! same queries run independently (the shared-sweep amortization the batch
//! layer exists for, proven with `IoSnapshot` arithmetic).

use maxrs_core::{
    load_objects, EngineOptions, ExactMaxRsOptions, MaxRsEngine, PreparedDataset, Query, QueryBatch,
};
use maxrs_datagen::{Dataset, DatasetKind, WeightMode};
use maxrs_em::{EmConfig, EmContext, IoSnapshot, StorageBackend};
use maxrs_geometry::{Rect, RectSize, WeightedPoint};

fn pseudo_random_objects(n: usize, seed: u64, extent: f64) -> Vec<WeightedPoint> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            WeightedPoint::at(
                next() * extent,
                next() * extent,
                1.0 + (next() * 4.0).floor(),
            )
        })
        .collect()
}

/// Coordinates snapped to a coarse grid (heavy ties on x and y) with a zero
/// weight every fifth object: the inputs where tie-breaking and the
/// `total_weight <= 0` top-k cutoff actually matter.
fn tie_heavy_objects(n: usize, seed: u64) -> Vec<WeightedPoint> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let x = (next() * 40.0).floor() * 25.0;
            let y = (next() * 40.0).floor() * 25.0;
            let w = if i % 5 == 0 {
                0.0
            } else {
                1.0 + (next() * 3.0).floor()
            };
            WeightedPoint::at(x, y, w)
        })
        .collect()
}

/// A small-buffer configuration under which a few thousand objects genuinely
/// exceed the memory budget.
fn tiny_config() -> EmConfig {
    EmConfig::new(512, 32 * 512).unwrap()
}

fn engine_with(config: EmConfig, parallelism: usize) -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism,
            ..Default::default()
        },
        force_strategy: None,
    })
}

/// A mixed batch over two rectangle sizes: four variants share the `size`
/// sweep, one MaxRS runs at a second size, two MinRS share a domain x-slab.
fn mixed_queries(size: RectSize, other: RectSize, extent: f64) -> Vec<Query> {
    let domain = Rect::new(0.1 * extent, 0.9 * extent, 0.1 * extent, 0.9 * extent);
    let narrow = Rect::new(0.1 * extent, 0.9 * extent, 0.3 * extent, 0.6 * extent);
    vec![
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::approx_max_crs(size.width),
        Query::min_rs(size, domain),
        Query::max_rs(other),
        Query::min_rs(size, narrow), // same x-slab as `domain`, different y
        Query::top_k(size, 1),
    ]
}

fn assert_batch_matches_per_query(prepared: &PreparedDataset<'_>, queries: &[Query], tag: &str) {
    let runs = prepared.run_batch(queries).unwrap();
    assert_eq!(runs.len(), queries.len(), "{tag}");
    for (query, batched) in queries.iter().zip(&runs) {
        let single = prepared.run(query).unwrap();
        assert_eq!(
            batched.answer,
            single.answer,
            "{tag}: batched {} diverged from per-query run",
            query.name()
        );
    }
}

#[test]
fn run_batch_is_bit_identical_on_both_backends() {
    let size = RectSize::square(120.0);
    let other = RectSize::square(260.0);
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let config = tiny_config().with_backend(backend);
        let objects = pseudo_random_objects(2500, 11, 1000.0);
        let engine = engine_with(config, 1);
        let prepared = engine.prepare(&objects).unwrap();
        assert!(prepared.is_external());
        assert_batch_matches_per_query(
            &prepared,
            &mixed_queries(size, other, 1000.0),
            backend.name(),
        );
    }
}

#[test]
fn run_batch_is_bit_identical_on_tie_heavy_and_zero_weight_data() {
    let objects = tie_heavy_objects(3000, 7);
    let prepared = engine_with(tiny_config(), 1).prepare(&objects).unwrap();
    assert!(prepared.is_external());
    let size = RectSize::square(60.0);
    let other = RectSize::square(140.0);
    assert_batch_matches_per_query(&prepared, &mixed_queries(size, other, 1000.0), "tie-heavy");

    // All-zero weights: MaxRS reports a zero-weight cell, top-k cuts off
    // before its first round, and the batch must agree with both.
    let zeros: Vec<WeightedPoint> = pseudo_random_objects(1500, 3, 500.0)
        .into_iter()
        .map(|o| WeightedPoint::at(o.point.x, o.point.y, 0.0))
        .collect();
    let prepared = engine_with(tiny_config(), 1).prepare(&zeros).unwrap();
    let queries = [
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::approx_max_crs(60.0),
    ];
    assert_batch_matches_per_query(&prepared, &queries, "zero-weight");
    let runs = prepared.run_batch(&queries).unwrap();
    assert!(runs[1].answer.placements().unwrap().is_empty());
}

#[test]
fn parallel_group_execution_answers_identically() {
    // 64 pool blocks -> up to 8 effective workers, and the mixed batch has
    // several independent groups: the parallel_map path actually runs.
    let config = EmConfig::new(512, 64 * 512).unwrap();
    let objects = pseudo_random_objects(4000, 23, 2000.0);
    let size = RectSize::square(180.0);
    let other = RectSize::square(420.0);
    let queries = mixed_queries(size, other, 2000.0);

    let sequential = engine_with(config, 1).prepare(&objects).unwrap();
    let parallel = engine_with(config, 4).prepare(&objects).unwrap();
    let seq_runs = sequential.run_batch(&queries).unwrap();
    let par_runs = parallel.run_batch(&queries).unwrap();
    for ((query, seq), par) in queries.iter().zip(&seq_runs).zip(&par_runs) {
        assert_eq!(
            seq.answer,
            par.answer,
            "{}: parallel groups diverged from sequential groups",
            query.name()
        );
        // Parallel groups must also match the per-query path.
        let single = parallel.run(query).unwrap();
        assert_eq!(par.answer, single.answer, "{}", query.name());
    }
}

#[test]
fn float_weights_answer_identically_via_run_run_batch_and_one_worker() {
    // A lone query at parallelism 2 solves its sub-slabs on two workers, a
    // batch runs its groups side by side on one worker each, and a
    // parallelism-1 dataset runs the paper's sweep.  All three end in the
    // same MergeSweep, so weights whose sums are inexact agree bit for bit.
    let config = EmConfig::new(1024, 64 * 1024).unwrap();
    let weights = WeightMode::UniformRandom { max: 7.0 };
    let domain = Rect::new(300_000.0, 700_000.0, 300_000.0, 700_000.0);
    let queries: Vec<Query> = [5_000.0, 15_000.0, 40_000.0]
        .into_iter()
        .flat_map(|side| {
            let size = RectSize::square(side);
            [
                Query::max_rs(size),
                Query::top_k(size, 3),
                Query::approx_max_crs(side),
                Query::min_rs(size, domain),
            ]
        })
        .collect();
    for seed in [1u64, 2, 3] {
        let objects =
            Dataset::generate_weighted(DatasetKind::Gaussian, 5_000, seed, weights).objects;
        let parallel = engine_with(config, 2).prepare(&objects).unwrap();
        let sequential = engine_with(config, 1).prepare(&objects).unwrap();
        assert!(parallel.is_external());
        let batched = parallel.run_batch(&queries).unwrap();
        for (query, batched) in queries.iter().zip(&batched) {
            let lone = parallel.run(query).unwrap();
            assert_eq!(lone.workers, 2, "the lone query runs the parallel stage");
            let tag = format!("seed={seed} {query:?}");
            assert_eq!(lone.answer, sequential.run(query).unwrap().answer, "{tag}");
            assert_eq!(batched.answer, lone.answer, "{tag}");
        }
    }
}

#[test]
fn batched_execution_reads_strictly_fewer_blocks_than_independent_runs() {
    // The acceptance criterion: M >= 4 mixed queries in one batch must move
    // strictly fewer logical blocks than the same M queries run one by one,
    // while answering bit-identically.  Three of the four queries share one
    // sweep group, so the batch pays 2 kernel passes instead of 4.
    let config = tiny_config();
    let objects = pseudo_random_objects(6000, 17, 100_000.0);
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, &objects).unwrap();
    let engine = engine_with(config, 1);
    let prepared = engine.prepare_file(&ctx, &file).unwrap();

    let size = RectSize::square(8_000.0);
    let domain = Rect::new(10_000.0, 90_000.0, 10_000.0, 90_000.0);
    let queries = vec![
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::approx_max_crs(8_000.0),
        Query::min_rs(size, domain),
    ];
    let batch = QueryBatch::new(&queries).unwrap();
    assert_eq!(batch.len(), 4);
    assert_eq!(batch.num_groups(), 2, "three variants share one sweep");

    // Batch first: any buffer-pool warmth then favors the *independent*
    // runs, making the strict inequality below conservative.
    let before = ctx.stats();
    let batched = prepared.run_planned(&batch).unwrap();
    let batch_io = ctx.stats().since(&before);

    // Leader attribution: the per-run I/O sums to the measured batch total.
    let attributed: IoSnapshot = batched
        .iter()
        .fold(IoSnapshot::default(), |acc, run| acc + run.io);
    assert_eq!(
        attributed, batch_io,
        "per-query attribution must neither drop nor double-count I/O"
    );

    let before = ctx.stats();
    let independent: Vec<_> = queries.iter().map(|q| prepared.run(q).unwrap()).collect();
    let independent_io = ctx.stats().since(&before);

    for ((query, batched), single) in queries.iter().zip(&batched).zip(&independent) {
        assert_eq!(batched.answer, single.answer, "{}", query.name());
    }
    assert!(
        batch_io.reads < independent_io.reads,
        "batch ({batch_io}) must read strictly fewer blocks than independent \
         runs ({independent_io})"
    );
    assert!(
        batch_io.total() < independent_io.total(),
        "batch ({batch_io}) must move strictly fewer blocks than independent \
         runs ({independent_io})"
    );

    ctx.delete_file(file).unwrap();
}

#[test]
fn identical_queries_in_a_batch_cost_nothing_extra() {
    let config = tiny_config();
    let objects = pseudo_random_objects(3000, 29, 50_000.0);
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, &objects).unwrap();
    let engine = engine_with(config, 1);
    let prepared = engine.prepare_file(&ctx, &file).unwrap();
    let q = Query::max_rs(RectSize::square(5_000.0));

    let before = ctx.stats();
    let one = prepared.run_batch(std::slice::from_ref(&q)).unwrap();
    let one_io = ctx.stats().since(&before);

    let before = ctx.stats();
    let five = prepared.run_batch(&[q, q, q, q, q]).unwrap();
    let five_io = ctx.stats().since(&before);

    for run in &five {
        assert_eq!(run.answer, one[0].answer);
    }
    // Duplicates ride the shared pass: the batch of five costs what the
    // batch of one does (pool warmth can only shave it further).
    assert!(
        five_io.total() <= one_io.total(),
        "five identical queries ({five_io}) cost more than one ({one_io})"
    );
    // Non-leader duplicates report zero marginal I/O.
    assert!(five[1].io.total() == 0 && five[4].io.total() == 0);

    ctx.delete_file(file).unwrap();
}

#[test]
fn in_memory_and_trivial_batches_match_per_query_runs() {
    // Memory-source prepared dataset: the batch is a plain per-query loop.
    let objects = pseudo_random_objects(60, 5, 100.0);
    let prepared = MaxRsEngine::new().prepare(&objects).unwrap();
    assert!(!prepared.is_external());
    let size = RectSize::square(20.0);
    let queries = [
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::min_rs(size, Rect::new(10.0, 90.0, 10.0, 90.0)),
        Query::min_rs(size, Rect::new(50.0, 50.0, 0.0, 100.0)), // degenerate
        Query::approx_max_crs(20.0),
    ];
    assert_batch_matches_per_query(&prepared, &queries, "in-memory");

    // Trivial batches.
    assert!(prepared.run_batch(&[]).unwrap().is_empty());
    let external = engine_with(tiny_config(), 1)
        .prepare(&pseudo_random_objects(2000, 9, 1000.0))
        .unwrap();
    assert!(external.run_batch(&[]).unwrap().is_empty());
    // A batch of only k = 0 top-k queries needs no sweep at all.
    let runs = external
        .run_batch(&[Query::top_k(size, 0), Query::top_k(size, 0)])
        .unwrap();
    for run in &runs {
        assert!(run.answer.placements().unwrap().is_empty());
        assert_eq!(run.io.total(), 0);
    }

    // Degenerate MinRS domains flow through the batch path externally too.
    let deg = [
        Query::min_rs(size, Rect::new(500.0, 500.0, 0.0, 1000.0)),
        Query::min_rs(size, Rect::new(0.0, 1000.0, 500.0, 500.0)),
    ];
    assert_batch_matches_per_query(&external, &deg, "degenerate-external");
}

#[test]
fn engine_run_batch_matches_engine_run() {
    let objects = pseudo_random_objects(2500, 31, 10_000.0);
    let engine = engine_with(tiny_config(), 1);
    let size = RectSize::square(900.0);
    let queries = [
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::approx_max_crs(900.0),
        Query::min_rs(size, Rect::new(1000.0, 9000.0, 1000.0, 9000.0)),
    ];
    let batched = engine.run_batch(&objects, &queries).unwrap();
    assert_eq!(batched.len(), queries.len());
    for (query, run) in queries.iter().zip(&batched) {
        let single = engine.run(&objects, query).unwrap();
        assert_eq!(run.answer, single.answer, "{}", query.name());
    }
    // The first run carries the one-time preparation (the file's flush).
    assert!(batched[0].io.total() > 0);

    // An empty batch is answered without touching the dataset at all.
    assert!(engine.run_batch(&objects, &[]).unwrap().is_empty());

    // Invalid queries fail the whole batch up front.
    assert!(engine
        .run_batch(
            &objects,
            &[
                Query::max_rs(size),
                Query::MaxRs {
                    size: RectSize {
                        width: -1.0,
                        height: 1.0,
                    },
                },
            ],
        )
        .is_err());
}
