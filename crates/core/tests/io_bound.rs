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
//!
//! Top-k rounds after the first re-sweep only the y-band the previous pick
//! can change and splice it into the previous round's slab-file, so a top-3
//! query moves well under three MaxRS queries' blocks.

use maxrs_core::{
    max_k_rs_in_memory, max_rs_in_memory, EngineOptions, ExactMaxRsOptions, ExecutionStrategy,
    MaxRsEngine, Query, QueryAnswer, RectRecord,
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

/// A prepared top-3 moves at most twice a MaxRS query's blocks.  36k uniform
/// points against a 26k-rectangle buffer (4 KiB blocks, 1 MiB), so every
/// full sweep distributes into several sub-slabs; re-sweeping every round
/// moved 3.0× (13,167 against 4,409 blocks), splicing bands 1.5× (6,509).
#[test]
fn prepared_top_k_moves_at_most_twice_a_max_rs_query() {
    let config = EmConfig::new(4096, 1 << 20).unwrap();
    let objects = Dataset::generate(DatasetKind::Uniform, 36_000, 1).objects;
    assert!(objects.len() > config.mem_records::<RectRecord>());
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: Some(ExecutionStrategy::ExternalSequential),
    });
    let prepared = engine.prepare(&objects).unwrap();
    let size = RectSize::square(1_000.0);
    let max_rs = prepared.run(&Query::max_rs(size)).unwrap().io.total();
    let top_3 = prepared.run(&Query::top_k(size, 3)).unwrap();
    assert_eq!(
        top_3.answer,
        QueryAnswer::TopK(max_k_rs_in_memory(&objects, size, 3))
    );
    assert!(
        top_3.io.total() <= 2 * max_rs,
        "top-3 moved {} blocks, MaxRS {max_rs}",
        top_3.io.total()
    );
}
