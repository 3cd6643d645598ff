//! Property tests for delta-main compaction, over randomized event sequences
//! with compaction triggered at arbitrary points:
//!
//! (a) compaction is **answer-invariant** — every query variant answers
//!     bit-identically just before and just after `compact()`, wherever it
//!     lands in the stream;
//! (b) after compaction the delta is empty and the context's disk blocks
//!     return to the single-run baseline (no temporaries, no stale base run
//!     survive);
//! (c) compaction's I/O stays within a constant factor of the `2·N/B` floor
//!     (one sequential read of the old base + one sequential write of the
//!     new run), proven with [`IoSnapshot`](maxrs_em::IoSnapshot)
//!     arithmetic — the analogue of `prepared_reuse.rs`'s block arithmetic.

use maxrs_core::{
    DeltaDataset, DeltaOptions, EngineOptions, ExactMaxRsOptions, MaxRsEngine, ObjectRecord, Query,
};
use maxrs_datagen::{event_stream, EventStreamConfig};
use maxrs_em::{EmConfig, Record};
use maxrs_geometry::{Rect, RectSize};
use proptest::prelude::*;

fn tiny_config() -> EmConfig {
    EmConfig::new(512, 32 * 512).unwrap()
}

fn engine() -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: tiny_config(),
        exact: ExactMaxRsOptions {
            memory_rects: Some(64),
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    })
}

/// Blocks one scan of `n` object records occupies — the `N/B` unit of the
/// compaction floor.
fn object_blocks(config: EmConfig, n: u64) -> u64 {
    n.div_ceil((config.block_size / ObjectRecord::SIZE) as u64)
}

fn query_pool(extent: f64) -> Vec<Query> {
    let size = RectSize::square(0.05 * extent);
    let domain = Rect::new(0.1 * extent, 0.9 * extent, 0.1 * extent, 0.9 * extent);
    vec![
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::min_rs(size, domain),
        Query::approx_max_crs(size.width),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn compaction_at_an_arbitrary_point_is_answer_invariant_and_bounded(
        params in (1u64..1_000_000, 500usize..1_200, 0.15f64..0.85, 0.05f64..0.45)
    ) {
        let (seed, events, cut, delete_fraction) = params;
        let cfg = EventStreamConfig {
            events,
            delete_fraction,
            ..Default::default()
        };
        let stream = event_stream(&cfg, seed);
        let split = ((stream.len() as f64) * cut) as usize;
        let engine = engine();
        let queries = query_pool(cfg.extent);
        let mut delta = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();

        // Phase 1: build up a base (compact once mid-build so the base run
        // is non-trivial), then stream the tail to refill the delta.
        delta.apply(&stream[..split]).unwrap();
        delta.compact().unwrap();
        delta.apply(&stream[split..]).unwrap();

        let before: Vec<_> = queries
            .iter()
            .map(|q| delta.run(q).unwrap().answer)
            .collect();
        let pending = delta.delta_len();
        let base_before = delta.base_len();

        let report = delta.compact().unwrap();

        // (a) Answer invariance, wherever the cut fell.
        for (query, want) in queries.iter().zip(&before) {
            let after = delta.run(query).unwrap().answer;
            prop_assert_eq!(
                &after, want,
                "{} changed across compact() at cut {} of {}",
                query.name(), split, stream.len()
            );
        }

        // (b) The delta drains and the disk returns to exactly one run of
        // the net dataset — no temporaries, no stale base.
        prop_assert_eq!(delta.delta_len(), 0);
        prop_assert_eq!(report.delta_records, pending);
        prop_assert_eq!(report.base_after, delta.len());
        delta.context().flush_all().unwrap();
        prop_assert_eq!(delta.context().num_files(), 1);
        prop_assert_eq!(
            delta.context().disk_blocks(),
            object_blocks(tiny_config(), delta.len()),
            "disk must hold the single base run and nothing else"
        );

        // (c) I/O within a constant factor of the 2·N/B floor: one
        // sequential read of the old base plus one sequential write (and
        // flush) of the new run.  Buffer-pool hits can push reads *below*
        // the raw block count, so only the upper bound is asserted.
        let floor = object_blocks(tiny_config(), base_before)
            + object_blocks(tiny_config(), report.base_after);
        prop_assert!(
            report.io.total() <= 2 * floor + 8,
            "compaction I/O {} exceeds 2×floor {} (+8 slack): not a single \
             sequential pass",
            report.io,
            floor
        );

        // A follow-up compaction with nothing pending is free.
        let noop = delta.compact().unwrap();
        prop_assert_eq!(noop.io.total(), 0);
        prop_assert_eq!(noop.base_after, noop.base_before);
    }

    #[test]
    fn repeated_threshold_compactions_never_leak_blocks(
        params in (1u64..1_000_000, 60u64..240)
    ) {
        use maxrs_core::CompactionPolicy;
        let (seed, max_delta) = params;

        let cfg = EventStreamConfig {
            events: 1_500,
            delete_fraction: 0.35,
            ..Default::default()
        };
        let stream = event_stream(&cfg, seed);
        let engine = engine();
        let mut delta = DeltaDataset::new(
            &engine,
            DeltaOptions {
                policy: CompactionPolicy::DeltaThreshold { max_delta },
                window: None,
            },
        )
        .unwrap();
        for chunk in stream.chunks(100) {
            delta.apply(chunk).unwrap();
        }
        prop_assert!(delta.compactions() >= 1, "threshold never fired");

        // However many compactions ran, the disk holds one base run plus
        // the still-pending delta's nothing: base blocks only.
        delta.context().flush_all().unwrap();
        prop_assert_eq!(delta.context().num_files(), 1);
        prop_assert_eq!(
            delta.context().disk_blocks(),
            object_blocks(tiny_config(), delta.base_len())
        );

        // And the final state still answers like a from-scratch prepare.
        let query = Query::max_rs(RectSize::square(0.05 * cfg.extent));
        let expected = engine
            .prepare(&delta.survivors())
            .unwrap()
            .run(&query)
            .unwrap();
        prop_assert_eq!(delta.run(&query).unwrap().answer, expected.answer);
    }
}
