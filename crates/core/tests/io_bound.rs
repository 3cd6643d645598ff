//! The paper's I/O bound as an executable contract: a prepared MaxRS query
//! moves `O((N/B) log_{M/B}(N/B))` blocks however wide its rectangle is.
//!
//! Wide rectangles cover whole sub-slabs at every recursion level.  The crop
//! rule must turn each covered sub-slab into a span event; a rule that
//! re-emits it as a full-width piece of the child carries every wide
//! rectangle down the recursion instead, and a 10k-point query moves
//! millions of blocks once the side passes a few sub-slab widths.

use maxrs_core::{
    max_rs_in_memory, EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query, QueryAnswer, RectRecord,
};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::EmConfig;
use maxrs_geometry::RectSize;

/// `c` in `io ≤ c·(N/B)·⌈log_{M/B}(N/B)⌉`.
const BOUND_FACTOR: f64 = 32.0;

#[test]
fn prepared_max_rs_stays_within_the_io_bound_at_wide_rectangles() {
    let objects = Dataset::generate(DatasetKind::Uniform, 10_000, 1).objects;
    let config = EmConfig::new(1024, 8 * 1024).unwrap();
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    });
    let prepared = engine.prepare(&objects).unwrap();
    assert!(prepared.is_external());

    // N/B over the 40-byte rectangle records the sweep moves.
    let nb = config.blocks_for::<RectRecord>(objects.len() as u64) as f64;
    let levels = (nb.ln() / (config.buffer_blocks() as f64).ln()).ceil();
    let bound = BOUND_FACTOR * nb * levels;

    for side in [10_000.0, 50_000.0, 100_000.0] {
        let size = RectSize::square(side);
        let run = prepared.run(&Query::max_rs(size)).unwrap();
        assert_eq!(
            run.answer,
            QueryAnswer::MaxRs(max_rs_in_memory(&objects, size)),
            "side {side}"
        );
        let io = run.io.total() as f64;
        assert!(
            io <= bound,
            "side {side}: {io} blocks exceed {BOUND_FACTOR}·(N/B)·⌈log_(M/B)(N/B)⌉ = {bound}"
        );
    }
}
