//! Sharded-execution regression tests: a [`ShardedDataset`] must answer
//! **bit-identically** to the unsharded [`PreparedDataset`] — all four
//! [`Query`] variants, shard counts K ∈ {1, 2, 7}, both storage backends,
//! rectangles wider than a whole shard (so every answer crosses shard
//! boundaries through the span-event decomposition) and tie-heavy data with
//! object x-coordinates sitting exactly on shard boundaries.  Also proves
//! with `IoSnapshot` arithmetic that preparing, sharded or not, reads and
//! writes each block of the dataset at most once.

use maxrs_core::{
    EngineOptions, ExactMaxRsOptions, MaxRsEngine, ObjectRecord, PreparedDataset, Query,
    ShardLayout, ShardedDataset,
};
use maxrs_em::{EmConfig, IoSnapshot, Record, StorageBackend};
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

/// Coordinates snapped to a coarse grid: heavy duplicate mass on x, so shard
/// boundaries (which are quantiles of those x-values) coincide exactly with
/// object coordinates and rectangle edges — the tie cases the boundary
/// routing must get right.
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

/// All four variants at a size comparable to a shard's width plus a second
/// set at a size **wider than any shard** (extent 1000, K=7 ⇒ shards ≈ 140
/// wide), so optimal placements necessarily straddle boundaries.
fn variant_queries(extent: f64) -> Vec<Query> {
    let domain = Rect::new(0.1 * extent, 0.9 * extent, 0.1 * extent, 0.9 * extent);
    let narrow = Rect::new(0.05 * extent, 0.2 * extent, 0.2 * extent, 0.7 * extent);
    vec![
        Query::max_rs(RectSize::square(0.12 * extent)),
        Query::top_k(RectSize::square(0.12 * extent), 3),
        Query::min_rs(RectSize::square(0.12 * extent), domain),
        Query::approx_max_crs(0.12 * extent),
        // Wider than a whole shard at K = 7.
        Query::max_rs(RectSize::square(0.4 * extent)),
        Query::top_k(RectSize::square(0.4 * extent), 2),
        Query::min_rs(RectSize::square(0.4 * extent), narrow),
        Query::approx_max_crs(0.4 * extent),
    ]
}

fn assert_sharded_matches(
    sharded: &ShardedDataset,
    prepared: &PreparedDataset<'_>,
    queries: &[Query],
    tag: &str,
) {
    // Batched against batched (same grouping on both sides) ...
    let sharded_runs = sharded.run_batch(queries).unwrap();
    let unsharded_runs = prepared.run_batch(queries).unwrap();
    for ((query, s), u) in queries.iter().zip(&sharded_runs).zip(&unsharded_runs) {
        assert_eq!(
            s.answer,
            u.answer,
            "{tag}: sharded {} diverged from unsharded batch",
            query.name()
        );
    }
    // ... and one-at-a-time against one-at-a-time.
    for query in queries {
        assert_eq!(
            sharded.run(query).unwrap().answer,
            prepared.run(query).unwrap().answer,
            "{tag}: sharded {} diverged from unsharded run",
            query.name()
        );
    }
}

#[test]
fn sharded_answers_are_bit_identical_on_both_backends() {
    let extent = 1000.0;
    let queries = variant_queries(extent);
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let config = tiny_config().with_backend(backend);
        let objects = pseudo_random_objects(2500, 11, extent);
        let engine = engine_with(config, 2);
        let prepared = engine.prepare(&objects).unwrap();
        assert!(prepared.is_external());
        for k in [1usize, 2, 7] {
            let sharded = engine
                .prepare_sharded(&objects, &ShardLayout::new(k))
                .unwrap();
            assert_eq!(sharded.num_shards(), k, "{}: K={k}", backend.name());
            assert_eq!(sharded.len(), prepared.len());
            assert_sharded_matches(
                &sharded,
                &prepared,
                &queries,
                &format!("{} K={k}", backend.name()),
            );
        }
    }
}

#[test]
fn sharded_answers_are_bit_identical_on_tie_heavy_data() {
    // Grid-snapped x: shard boundaries land exactly on object coordinates
    // and rectangle edges, exercising the objects-at-a-boundary-go-right
    // routing and the degenerately-touching rectangle crops.
    let objects = tie_heavy_objects(3000, 7);
    let engine = engine_with(tiny_config(), 2);
    let prepared = engine.prepare(&objects).unwrap();
    assert!(prepared.is_external());
    let queries = variant_queries(1000.0);
    for k in [2usize, 7] {
        let sharded = engine
            .prepare_sharded(&objects, &ShardLayout::new(k))
            .unwrap();
        assert_sharded_matches(&sharded, &prepared, &queries, &format!("tie-heavy K={k}"));
    }
}

/// Asserts at most one read and one write of each block of an `n`-object
/// file.
fn assert_each_block_moved_at_most_once(what: &str, io: IoSnapshot, config: EmConfig, n: u64) {
    let blocks = n.div_ceil((config.block_size / ObjectRecord::SIZE) as u64);
    assert!(
        io.reads <= blocks && io.writes <= blocks,
        "{what} moved {io} over {blocks} object blocks"
    );
}

#[test]
fn prepare_reads_and_writes_each_block_at_most_once_sharded_or_not() {
    // 6,000 objects over a 32-block buffer: each of four shards spans
    // several buffer loads, so a per-shard external sort would read and
    // write its blocks more than once.
    let config = tiny_config();
    let objects = pseudo_random_objects(6000, 17, 10_000.0);
    let engine = engine_with(config, 4);
    let prepared = engine.prepare(&objects).unwrap();
    assert!(prepared.is_external());
    assert!(prepared.prepare_io().total() > 0);
    assert_each_block_moved_at_most_once(
        "unsharded prepare",
        prepared.prepare_io(),
        config,
        prepared.len(),
    );

    let sharded = engine
        .prepare_sharded(&objects, &ShardLayout::new(4))
        .unwrap();
    assert_eq!(sharded.num_shards(), 4);
    assert!(sharded.prepare_io().total() > 0);
    let per_shard = sharded.prepare_io_per_shard();
    for (i, (io, len)) in per_shard.iter().zip(sharded.shard_lens()).enumerate() {
        assert_each_block_moved_at_most_once(&format!("shard {i}"), *io, config, len);
    }

    // Per-shard attribution adds up to the total.
    let summed: u64 = per_shard.iter().map(|io| io.total()).sum();
    assert_eq!(summed, sharded.prepare_io().total());
}
