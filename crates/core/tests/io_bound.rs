//! The paper's I/O bound as an executable contract: a prepared MaxRS query
//! moves `O((N/B) log_{M/B}(N/B))` blocks however wide its rectangle is, on
//! uniform and Gaussian data, at buffers from 8 to 256 blocks — and a larger
//! buffer never makes a query move noticeably more blocks.
//!
//! Wide rectangles cover whole sub-slabs at every recursion level.  The crop
//! rule must turn each covered sub-slab into a span event; a rule that
//! re-emits it as a full-width piece of the child carries every wide
//! rectangle down the recursion instead, and a 10k-point query moves
//! millions of blocks once the side passes a few sub-slab widths.  A fan-out
//! that ignores the slab's size splits a file of a few buffer loads into
//! `Θ(M/B)` sub-slabs, cutting every wide rectangle into more pieces and
//! span events than a handful of sub-slabs would, so its queries move more
//! blocks as the buffer grows.

use maxrs_core::{
    max_rs_in_memory, EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query, QueryAnswer, RectRecord,
};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::EmConfig;
use maxrs_geometry::RectSize;

/// `c` in `io ≤ c·(N/B)·⌈log_{M/B}(N/B)⌉`.
const BOUND_FACTOR: f64 = 32.0;

/// How much more I/O a query may move after the buffer grows.
const GROWTH_TOLERANCE: f64 = 0.05;

#[test]
fn prepared_max_rs_stays_within_the_io_bound_at_every_buffer_and_width() {
    const BLOCK: usize = 1024;
    let sides = [5_000.0, 20_000.0, 50_000.0, 100_000.0];
    for kind in [DatasetKind::Uniform, DatasetKind::Gaussian] {
        let objects = Dataset::generate(kind, 10_000, 1).objects;
        let answers: Vec<QueryAnswer> = sides
            .iter()
            .map(|&side| QueryAnswer::MaxRs(max_rs_in_memory(&objects, RectSize::square(side))))
            .collect();
        let mut previous: Option<(usize, Vec<u64>)> = None;
        for buffer_blocks in [8, 16, 64, 256] {
            let config = EmConfig::new(BLOCK, buffer_blocks * BLOCK).unwrap();
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
            let levels = (nb.ln() / (buffer_blocks as f64).ln()).ceil();
            let bound = BOUND_FACTOR * nb * levels;

            let mut ios = Vec::with_capacity(sides.len());
            for (&side, answer) in sides.iter().zip(&answers) {
                let at = format!("{kind:?}, {buffer_blocks} blocks, side {side}");
                let run = prepared
                    .run(&Query::max_rs(RectSize::square(side)))
                    .unwrap();
                assert_eq!(&run.answer, answer, "{at}");
                let io = run.io.total();
                assert!(
                    io as f64 <= bound,
                    "{at}: {io} blocks exceed {BOUND_FACTOR}·(N/B)·⌈log_(M/B)(N/B)⌉ = {bound}"
                );
                ios.push(io);
            }
            if let Some((smaller, before)) = &previous {
                for ((&side, &was), &now) in sides.iter().zip(before).zip(&ios) {
                    assert!(
                        now as f64 <= was as f64 * (1.0 + GROWTH_TOLERANCE),
                        "{kind:?}, side {side}: {was} blocks at {smaller} blocks of buffer \
                         but {now} at {buffer_blocks}"
                    );
                }
            }
            previous = Some((buffer_blocks, ios));
        }
    }
}
