//! Regression tests for the unified query layer: for every [`Query`] variant,
//! the external-memory strategies — sequential *and* parallel — must return
//! the **identical** answer (centers, weights and regions, not merely equal
//! weights) as the in-memory reference algorithm on a ≥10k-point dataset.
//!
//! This is the determinism contract of the engine's canonical max-regions
//! (see `maxrs_core::exact`, "Canonical max-regions"): the distribution
//! sweep widens its winning interval back to the full arrangement cell, so
//! strategy selection can never change an answer.  The datasets use
//! integer-valued weights, which the in-memory reference sums exactly in any
//! order.

use maxrs_core::{
    approx_max_crs_in_memory, max_k_rs_in_memory, max_rs_in_memory, min_rs_in_memory,
    rect_objective, EngineOptions, ExactMaxRsOptions, ExecutionStrategy, MaxRsEngine, Query,
    QueryAnswer,
};
use maxrs_em::EmConfig;
use maxrs_geometry::{Rect, RectSize, WeightedPoint};

const N: usize = 12_000;
const EXTENT: f64 = 100_000.0;

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

/// An engine forced onto the given strategy, with enough buffer for a real
/// parallel slab stage (64 pool blocks -> worker quota 8) and a memory
/// threshold small enough that 12k objects recurse through several
/// distribution levels.
fn engine(force: ExecutionStrategy) -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: EmConfig::new(4096, 64 * 4096).unwrap(),
        exact: ExactMaxRsOptions {
            memory_rects: Some(1024),
            fanout: Some(8),
            parallelism: 4,
        },
        force_strategy: Some(force),
    })
}

/// Runs `query` under all three strategies and asserts each answer is
/// identical to `reference`.
fn assert_all_strategies_match(objects: &[WeightedPoint], query: &Query, reference: &QueryAnswer) {
    for force in [
        ExecutionStrategy::InMemory,
        ExecutionStrategy::ExternalSequential,
        ExecutionStrategy::ExternalParallel,
    ] {
        let run = engine(force).run(objects, query).unwrap();
        assert_eq!(
            run.strategy,
            force,
            "{}: forced strategy not honored",
            query.name()
        );
        if force == ExecutionStrategy::ExternalParallel {
            assert!(
                run.workers > 1,
                "{}: parallel run used 1 worker",
                query.name()
            );
        }
        if force != ExecutionStrategy::InMemory {
            assert!(
                run.io.total() > 0,
                "{}: external run did no I/O",
                query.name()
            );
        }
        assert_eq!(
            &run.answer,
            reference,
            "{}: {} answer diverged from the in-memory reference",
            query.name(),
            force.name()
        );
    }
}

#[test]
fn max_rs_is_strategy_independent_on_10k_points() {
    let objects = pseudo_random_objects(N, 7, EXTENT);
    let size = RectSize::square(2_500.0);
    let reference = QueryAnswer::MaxRs(max_rs_in_memory(&objects, size));
    assert_all_strategies_match(&objects, &Query::max_rs(size), &reference);
    // The shared reference answer is itself sane.
    if let QueryAnswer::MaxRs(r) = &reference {
        assert_eq!(rect_objective(&objects, r.center, size), r.total_weight);
        assert!(r.total_weight > 0.0);
    }
}

#[test]
fn top_k_is_strategy_independent_on_10k_points() {
    let objects = pseudo_random_objects(N, 21, EXTENT);
    let size = RectSize::square(2_000.0);
    let k = 4;
    let reference = QueryAnswer::TopK(max_k_rs_in_memory(&objects, size, k));
    if let QueryAnswer::TopK(placements) = &reference {
        assert_eq!(placements.len(), k, "dataset supports k rounds");
        assert!(placements
            .windows(2)
            .all(|w| w[0].total_weight >= w[1].total_weight));
    }
    assert_all_strategies_match(&objects, &Query::top_k(size, k), &reference);
}

#[test]
fn min_rs_is_strategy_independent_on_10k_points() {
    let objects = pseudo_random_objects(N, 93, EXTENT);
    let size = RectSize::square(3_000.0);
    let domain = Rect::new(20_000.0, 80_000.0, 20_000.0, 80_000.0);
    let reference = QueryAnswer::MinRs(min_rs_in_memory(&objects, size, domain));
    if let QueryAnswer::MinRs(r) = &reference {
        assert_eq!(rect_objective(&objects, r.center, size), r.total_weight);
        assert!(domain.contains_closed(&r.center));
    }
    assert_all_strategies_match(&objects, &Query::min_rs(size, domain), &reference);
}

#[test]
fn approx_max_crs_is_strategy_independent_on_10k_points() {
    let objects = pseudo_random_objects(N, 55, EXTENT);
    for epsilon in [0.25, 0.5] {
        let query = Query::ApproxMaxCrs {
            diameter: 4_000.0,
            epsilon,
        };
        let sigma = query.sigma_fraction().unwrap();
        let reference = QueryAnswer::MaxCrs(approx_max_crs_in_memory(&objects, 4_000.0, sigma));
        if let QueryAnswer::MaxCrs(r) = &reference {
            assert!(r.total_weight > 0.0);
        }
        assert_all_strategies_match(&objects, &query, &reference);
    }
}

#[test]
fn top_k_handles_tie_heavy_grids_identically() {
    // 10k objects snapped to a coarse grid: massive coordinate and weight
    // ties, the worst case for tie-breaking divergence between strategies.
    let objects: Vec<WeightedPoint> = (0..10_000)
        .map(|i| {
            let x = ((i * 37) % 100) as f64 * 1_000.0;
            let y = ((i * 61) % 100) as f64 * 1_000.0;
            WeightedPoint::at(x, y, 1.0 + (i % 3) as f64)
        })
        .collect();
    let size = RectSize::square(4_500.0);
    let reference = QueryAnswer::TopK(max_k_rs_in_memory(&objects, size, 3));
    assert_all_strategies_match(&objects, &Query::top_k(size, 3), &reference);
}
