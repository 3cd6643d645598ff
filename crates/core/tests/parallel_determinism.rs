//! Regression tests for the parallel slab stage: `parallelism = 1` (the
//! paper's sequential distribution sweep) and `parallelism = N` (the
//! top-level sub-slabs solved concurrently, then the same flat MergeSweep)
//! must return the **identical** [`MaxRsResult`] — location, weight and
//! max-region — on synthetic datasets, with integer and with arbitrary float
//! weights, and move about as many blocks.

use maxrs_core::{
    exact_max_rs, exact_max_rs_from_objects, load_objects, max_rs_in_memory, ExactMaxRsOptions,
    MaxRsResult,
};
use maxrs_datagen::{Dataset, DatasetKind, WeightMode};
use maxrs_em::{EmConfig, EmContext};
use maxrs_geometry::{RectSize, WeightedPoint};

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
            let x = next() * extent;
            let y = next() * extent;
            let w = 1.0 + (next() * 4.0).floor(); // integer weights 1..=5
            WeightedPoint::at(x, y, w)
        })
        .collect()
}

/// A context whose buffer is large enough that `effective_parallelism` does
/// not cap the worker count back to 1 (64 pool blocks -> up to 8 workers).
fn parallel_ctx() -> EmContext {
    EmContext::new(EmConfig::new(256, 64 * 256).unwrap())
}

fn run(objects: &[WeightedPoint], size: RectSize, opts: &ExactMaxRsOptions) -> MaxRsResult {
    let ctx = parallel_ctx();
    exact_max_rs_from_objects(&ctx, objects, size, opts).unwrap()
}

#[test]
fn parallel_and_sequential_results_are_identical() {
    for (n, seed, extent, side) in [
        (300usize, 7u64, 1000.0, 90.0),
        (500, 42, 2500.0, 200.0),
        (800, 1234, 800.0, 35.0),
    ] {
        let objects = pseudo_random_objects(n, seed, extent);
        let size = RectSize::square(side);
        // Force several recursion levels regardless of the roomy pool.
        let base = ExactMaxRsOptions {
            memory_rects: Some(48),
            fanout: Some(4),
            ..Default::default()
        };
        let sequential = run(
            &objects,
            size,
            &ExactMaxRsOptions {
                parallelism: 1,
                ..base
            },
        );
        for workers in [2usize, 3, 8] {
            let parallel = run(
                &objects,
                size,
                &ExactMaxRsOptions {
                    parallelism: workers,
                    ..base
                },
            );
            assert_eq!(
                parallel, sequential,
                "n={n} seed={seed} workers={workers}: parallel result diverged"
            );
        }
        // Both agree with the in-memory reference on the achieved weight.
        let reference = max_rs_in_memory(&objects, size);
        assert_eq!(sequential.total_weight, reference.total_weight);
    }
}

#[test]
fn parallel_results_are_stable_across_repeated_runs() {
    // Thread scheduling varies between runs; the answer must not.
    let objects = pseudo_random_objects(600, 99, 1500.0);
    let size = RectSize::square(120.0);
    let opts = ExactMaxRsOptions {
        memory_rects: Some(32),
        fanout: Some(6),
        parallelism: 8,
    };
    let first = run(&objects, size, &opts);
    for round in 0..5 {
        assert_eq!(run(&objects, size, &opts), first, "round {round} diverged");
    }
}

#[test]
fn parallel_path_handles_duplicate_x_coordinates() {
    // Heavy ties on x collapse slab boundaries; the parallel path must take
    // the same fallback as the sequential one.
    let mut objects = Vec::new();
    for i in 0..200 {
        let x = [10.0, 20.0, 30.0][i % 3];
        objects.push(WeightedPoint::at(x, i as f64, 1.0));
    }
    let size = RectSize::new(5.0, 400.0);
    let base = ExactMaxRsOptions {
        memory_rects: Some(20),
        fanout: Some(4),
        ..Default::default()
    };
    let sequential = run(
        &objects,
        size,
        &ExactMaxRsOptions {
            parallelism: 1,
            ..base
        },
    );
    let parallel = run(
        &objects,
        size,
        &ExactMaxRsOptions {
            parallelism: 4,
            ..base
        },
    );
    assert_eq!(parallel, sequential);
}

#[test]
fn parallel_path_cleans_up_temporaries() {
    let ctx = parallel_ctx();
    let objects = pseudo_random_objects(500, 11, 900.0);
    let opts = ExactMaxRsOptions {
        memory_rects: Some(40),
        fanout: Some(5),
        parallelism: 4,
    };
    let before_files = ctx.num_files();
    let _ = exact_max_rs_from_objects(&ctx, &objects, RectSize::square(60.0), &opts).unwrap();
    assert_eq!(
        ctx.num_files(),
        before_files,
        "parallel run must delete every temporary file"
    );
    assert_eq!(ctx.disk_blocks(), 0);
}

/// Gaussian points with float weights in `[1, 7]`, whose sums are not exact.
fn float_weighted(seed: u64) -> Vec<WeightedPoint> {
    let weights = WeightMode::UniformRandom { max: 7.0 };
    Dataset::generate_weighted(DatasetKind::Gaussian, 5_000, seed, weights).objects
}

/// 1 KiB blocks and a 64-block buffer: 5,000 rectangles split into up to 62
/// sub-slabs, and room for up to 8 workers.
fn float_config() -> EmConfig {
    EmConfig::new(1024, 64 * 1024).unwrap()
}

#[test]
fn float_weights_are_bit_identical_across_worker_counts() {
    // Every child slab-file is the one the sequential sweep writes, and the
    // one MergeSweep adds them up in the same order.
    let size = RectSize::square(15_000.0);
    for seed in [1u64, 2] {
        let objects = float_weighted(seed);
        let run = |workers| {
            let ctx = EmContext::new(float_config());
            let opts = ExactMaxRsOptions::with_parallelism(workers);
            exact_max_rs_from_objects(&ctx, &objects, size, &opts).unwrap()
        };
        let sequential = run(1);
        for workers in [2usize, 3, 8] {
            assert_eq!(run(workers), sequential, "seed={seed} workers={workers}");
        }
    }
}

#[test]
fn parallel_stage_moves_as_many_blocks_as_the_sequential_sweep() {
    // Only the interleaving of the workers' pool traffic differs from the
    // sequential sweep, so the block count may drift a little, never by a
    // re-read of the tuple stream.
    let objects = float_weighted(3);
    let size = RectSize::square(15_000.0);
    let io = |workers| {
        let ctx = EmContext::new(float_config());
        let file = load_objects(&ctx, &objects).unwrap();
        let before = ctx.stats();
        let opts = ExactMaxRsOptions::with_parallelism(workers);
        exact_max_rs(&ctx, &file, size, &opts).unwrap();
        ctx.stats().since(&before).total()
    };
    let sequential = io(1);
    for workers in [2usize, 4, 8] {
        let parallel = io(workers);
        assert!(
            parallel * 100 <= sequential * 105,
            "workers={workers}: {parallel} blocks against {sequential} sequential"
        );
    }
}
