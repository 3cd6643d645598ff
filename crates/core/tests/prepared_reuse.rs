//! Regression tests for [`PreparedDataset`]: preparing moves each block of
//! the dataset at most once — `prepare` flushes the loaded file and
//! `prepare_file` copies its input in one scan, since no query reads the
//! objects' order — so a cold single-shot run costs less than a warm
//! prepared run plus one copy (`2·N/B`), proven with
//! [`IoSnapshot`](maxrs_em::IoSnapshot) arithmetic; answers stay
//! bit-identical to single-shot engine calls, and the retained file is
//! RAII-cleaned so `disk_blocks()` returns to its baseline.

use maxrs_core::{
    load_objects, EngineOptions, ExactMaxRsOptions, MaxRsEngine, ObjectRecord, Query,
};
use maxrs_em::{EmConfig, EmContext, IoSnapshot, Record};
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

/// A small-buffer configuration under which a few thousand objects span
/// many buffer loads (16 pool blocks, 341 objects in memory), so any
/// external sort of them would need several passes.
fn tiny_config() -> EmConfig {
    EmConfig::new(512, 16 * 512).unwrap()
}

fn engine() -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: tiny_config(),
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    })
}

/// Blocks one scan of the object file occupies: `N/B`.
fn object_blocks(config: EmConfig, n: u64) -> u64 {
    n.div_ceil((config.block_size / ObjectRecord::SIZE) as u64)
}

/// The preparation contract: at most one read and one write of each of the
/// dataset's `blocks` blocks.
fn assert_each_block_moved_at_most_once(what: &str, io: IoSnapshot, blocks: u64) {
    assert!(
        io.reads <= blocks && io.writes <= blocks,
        "{what} moved {io} over {blocks} object blocks: more than one read \
         and one write per block"
    );
}

#[test]
fn prepare_file_reads_and_writes_each_block_at_most_once() {
    let config = tiny_config();
    let objects = pseudo_random_objects(6000, 17, 100_000.0);
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, &objects).unwrap();
    // The input's dirty blocks are the load's, not the preparation's.
    ctx.flush_all().unwrap();
    let engine = engine();
    let query = Query::max_rs(RectSize::square(8_000.0));

    // Cold single-shot run: copies the file, then transform + sweep.
    let cold = engine.run_file(&ctx, &file, &query).unwrap();

    // Prepared: the copy is made once, here, and never again.
    let prepared = engine.prepare_file(&ctx, &file).unwrap();
    assert!(prepared.is_external());
    let blocks = object_blocks(config, file.len());
    let prepare_io = prepared.prepare_io();
    assert_each_block_moved_at_most_once("prepare_file", prepare_io, blocks);
    assert!(
        prepare_io.reads > 0 && prepare_io.writes > 0,
        "{prepare_io}"
    );
    let first = prepared.run(&query).unwrap();
    let second = prepared.run(&query).unwrap();

    assert_eq!(first.answer, cold.answer, "prepared answers are identical");
    assert_eq!(second.answer, cold.answer);
    for (name, run) in [("first", &first), ("second", &second)] {
        assert!(run.io.total() > 0, "{name} run does the sweep's I/O");
    }
    // Pool warmth can only help the second run, never hurt it.
    assert!(second.io.total() <= first.io.total());

    ctx.delete_file(file).unwrap();
}

#[test]
fn cold_runs_cost_less_than_a_warm_run_plus_one_copy() {
    let config = tiny_config();
    let objects = pseudo_random_objects(3000, 41, 50_000.0);
    let engine = engine();
    let prepared = engine.prepare(&objects).unwrap();
    let blocks = object_blocks(config, objects.len() as u64);
    assert_each_block_moved_at_most_once("prepare", prepared.prepare_io(), blocks);
    let size = RectSize::square(4_000.0);
    let domain = Rect::new(5_000.0, 45_000.0, 5_000.0, 45_000.0);

    for query in [
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::min_rs(size, domain),
        Query::approx_max_crs(4_000.0),
    ] {
        let warm = prepared.run(&query).unwrap();
        let cold = engine.run(&objects, &query).unwrap();
        assert_eq!(warm.answer, cold.answer, "{}", query.name());
        assert!(
            cold.io.total() < warm.io.total() + 2 * blocks,
            "{}: cold {} vs warm {} (one copy: {} blocks)",
            query.name(),
            cold.io,
            warm.io,
            2 * blocks
        );
    }
}

#[test]
fn dropping_a_prepared_dataset_returns_disk_blocks_to_baseline() {
    let objects = pseudo_random_objects(4000, 7, 10_000.0);
    let ctx = EmContext::new(tiny_config());
    let file = load_objects(&ctx, &objects).unwrap();
    ctx.flush_all().unwrap();
    let baseline_blocks = ctx.disk_blocks();
    let baseline_files = ctx.num_files();

    let engine = engine();
    {
        let prepared = engine.prepare_file(&ctx, &file).unwrap();
        assert!(
            ctx.disk_blocks() > baseline_blocks,
            "the retained copy occupies blocks"
        );
        assert_eq!(ctx.num_files(), baseline_files + 1);
        // Queries allocate and free their own temporaries.
        let _ = prepared
            .run(&Query::max_rs(RectSize::square(500.0)))
            .unwrap();
        let _ = prepared
            .run(&Query::top_k(RectSize::square(500.0), 2))
            .unwrap();
    }
    // RAII: dropping the dataset deleted the copy's blocks.
    assert_eq!(
        ctx.disk_blocks(),
        baseline_blocks,
        "prepared dataset leaked blocks"
    );
    assert_eq!(
        ctx.num_files(),
        baseline_files,
        "prepared dataset leaked files"
    );

    ctx.delete_file(file).unwrap();
    assert_eq!(ctx.num_files(), 0);
}

#[test]
fn repeated_prepares_on_one_context_do_not_accumulate_blocks() {
    // A long-running engine preparing the same context many times must end
    // at its baseline: the leak regression this PR's RAII guard prevents.
    let objects = pseudo_random_objects(2000, 3, 1_000.0);
    let ctx = EmContext::new(tiny_config());
    let file = load_objects(&ctx, &objects).unwrap();
    ctx.flush_all().unwrap();
    let baseline = ctx.disk_blocks();
    let engine = engine();
    for round in 0..5 {
        let prepared = engine.prepare_file(&ctx, &file).unwrap();
        let run = prepared
            .run(&Query::max_rs(RectSize::square(100.0)))
            .unwrap();
        assert!(run.io.total() > 0, "round {round}");
        drop(prepared);
        assert_eq!(ctx.disk_blocks(), baseline, "round {round} leaked");
    }
    ctx.delete_file(file).unwrap();
}
