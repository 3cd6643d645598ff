//! Running one algorithm on one dataset under one EM configuration.

use maxrs_baselines::{asb_tree_sweep, naive_sweep, Algorithm};
use maxrs_core::{
    exact_max_rs, load_objects, EngineOptions, ExactMaxRsOptions, MaxRsEngine, MaxRsResult, Query,
    QueryRun,
};
use maxrs_em::{EmConfig, EmContext, IoSnapshot};
use maxrs_geometry::{RectSize, WeightedPoint};

/// Outcome of one algorithm run: the answer and the I/O it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgorithmRun {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The MaxRS answer it produced.
    pub result: MaxRsResult,
    /// Blocks transferred while solving (dataset loading excluded, exactly as
    /// the paper measures query processing only).
    pub io: IoSnapshot,
}

/// Runs `algorithm` on `objects` under a fresh EM context with the given
/// configuration and query rectangle, measuring only the solving phase.
pub fn run_algorithm(
    algorithm: Algorithm,
    config: EmConfig,
    objects: &[WeightedPoint],
    size: RectSize,
) -> maxrs_core::Result<AlgorithmRun> {
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, objects)?;
    // Loading the dataset is not part of the measured query cost.
    ctx.reset_stats();
    let result = match algorithm {
        Algorithm::NaiveSweep => naive_sweep(&ctx, &file, size)?,
        Algorithm::AsbTree => asb_tree_sweep(&ctx, &file, size)?,
        // The figures reproduce the *paper's* sequential sweep, so the
        // parallel slab stage is pinned off here regardless of the host's
        // core count; `run_query` below measures the parallel variant.
        Algorithm::ExactMaxRs => exact_max_rs(&ctx, &file, size, &ExactMaxRsOptions::sequential())?,
    };
    let io = ctx.stats();
    Ok(AlgorithmRun {
        algorithm,
        result,
        io,
    })
}

/// Runs any [`Query`] variant through the [`MaxRsEngine`] under a fresh EM
/// context, measuring only the query phase (dataset loading excluded).
///
/// `parallelism` caps the worker threads of the parallel slab stage; `1`
/// forces the engine's external-sequential path for datasets that exceed the
/// memory budget, making `run_query(cfg, objs, q, 1)` vs.
/// `run_query(cfg, objs, q, n)` a direct sequential-vs-parallel comparison.
pub fn run_query(
    config: EmConfig,
    objects: &[WeightedPoint],
    query: &Query,
    parallelism: usize,
) -> maxrs_core::Result<QueryRun> {
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism,
            ..Default::default()
        },
        force_strategy: None,
    });
    let ctx = EmContext::new(config);
    let file = load_objects(&ctx, objects)?;
    // The engine reports I/O as a delta across the query, which already
    // excludes the load above.
    engine.run_file(&ctx, &file, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_datagen::{Dataset, DatasetKind};

    #[test]
    fn all_algorithms_agree_and_are_ordered_by_io() {
        let ds = Dataset::generate(DatasetKind::Uniform, 600, 11);
        let config = EmConfig::new(4096, 8 * 4096).unwrap();
        let size = RectSize::square(50_000.0);
        let runs: Vec<AlgorithmRun> = Algorithm::ALL
            .iter()
            .map(|&a| run_algorithm(a, config, &ds.objects, size).unwrap())
            .collect();
        let weights: Vec<f64> = runs.iter().map(|r| r.result.total_weight).collect();
        assert_eq!(weights[0], weights[1]);
        assert_eq!(weights[1], weights[2]);
        assert!(weights[0] >= 1.0);
        let naive = runs[0].io.total();
        let asb = runs[1].io.total();
        let exact = runs[2].io.total();
        assert!(
            exact < asb && asb < naive,
            "expected ExactMaxRS < aSB-tree < Naive, got {exact} / {asb} / {naive}"
        );
    }

    #[test]
    fn run_query_answers_every_variant_with_one_substrate() {
        use maxrs_core::Query;
        use maxrs_geometry::Rect;

        let ds = Dataset::generate(DatasetKind::Uniform, 1500, 17);
        let config = EmConfig::new(512, 64 * 512).unwrap();
        let size = RectSize::square(60_000.0);
        let domain = Rect::new(100_000.0, 900_000.0, 100_000.0, 900_000.0);

        let max = run_query(config, &ds.objects, &Query::max_rs(size), 1).unwrap();
        let top = run_query(config, &ds.objects, &Query::top_k(size, 3), 1).unwrap();
        let min = run_query(config, &ds.objects, &Query::min_rs(size, domain), 1).unwrap();
        let crs = run_query(config, &ds.objects, &Query::approx_max_crs(60_000.0), 1).unwrap();

        // 1500 objects exceed the tiny buffer: every variant went external.
        for run in [&max, &top, &min, &crs] {
            assert_ne!(run.strategy, maxrs_core::ExecutionStrategy::InMemory);
            assert!(run.io.total() > 0);
        }
        // Shapes and cross-variant consistency.
        let best = max.answer.as_max_rs().unwrap().total_weight;
        let placements = top.answer.placements().unwrap();
        assert_eq!(placements[0].total_weight, best, "top-1 equals MaxRS");
        assert!(min.answer.as_max_rs().unwrap().total_weight <= best);
        assert!(crs.answer.as_max_crs().unwrap().total_weight <= best + 1e-9);
    }

    #[test]
    fn io_excludes_dataset_loading() {
        let ds = Dataset::generate(DatasetKind::Gaussian, 2000, 2);
        let config = EmConfig::new(4096, 8 * 4096).unwrap();
        let run = run_algorithm(
            Algorithm::ExactMaxRs,
            config,
            &ds.objects,
            RectSize::square(10_000.0),
        )
        .unwrap();
        // The solve phase of a dataset larger than the buffer must do real I/O,
        // but far less than the data would need if it were re-read per event.
        assert!(run.io.total() > 0);
        let rect_blocks = config.blocks_for::<maxrs_core::RectRecord>(2000);
        assert!(run.io.total() < 100 * rect_blocks);
        assert_eq!(run.algorithm, Algorithm::ExactMaxRs);
    }
}
