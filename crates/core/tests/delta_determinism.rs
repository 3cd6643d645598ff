//! The dynamic-dataset contract, differentially: replaying generated event
//! sequences (≥10k events; coordinate ties, zero weights, window-style churn)
//! into a [`DeltaDataset`] and asserting at every checkpoint that all four
//! [`Query`] variants answer **bit-identically** to a from-scratch
//! [`MaxRsEngine::prepare`] over the net survivor set, and that a query
//! batch moves exactly the blocks of the same batch on that prepare — on
//! both storage backends.
//!
//! The sequences come from the shared generator
//! [`maxrs_datagen::event_stream`] — the same streams the stream-incremental
//! suite and the experiment harness replay — plus hand-built edge cases the
//! generator never produces (unknown deletes, duplicate inserts).
//!
//! A cross-engine section replays one windowed stream into the in-memory
//! `StreamEngine` and the external-memory `DeltaDataset` side by side: both
//! route events through the shared `maxrs_core::LiveSet`, so survivors,
//! clocks, error positions and answers must all agree.

use maxrs_core::{
    CoreError, DeltaDataset, DeltaOptions, EngineOptions, Event, EventError, ExactMaxRsOptions,
    MaxRsEngine, Query, QueryRun,
};
use maxrs_datagen::{event_stream, EventStreamConfig};
use maxrs_em::{EmConfig, IoSnapshot, StorageBackend};
use maxrs_geometry::{Rect, RectSize, WeightedPoint};
use maxrs_stream::{StreamConfig, StreamEngine, StreamError};

/// A small-buffer engine under which a few thousand objects are genuinely
/// external, on the given backend.
fn external_engine(backend: StorageBackend) -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: EmConfig::new(512, 32 * 512).unwrap().with_backend(backend),
        exact: ExactMaxRsOptions {
            memory_rects: Some(64),
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    })
}

/// All four query variants at sizes proportional to the space extent.
fn query_pool(extent: f64) -> Vec<Query> {
    let size = RectSize::square(0.04 * extent);
    let domain = Rect::new(0.1 * extent, 0.9 * extent, 0.1 * extent, 0.9 * extent);
    vec![
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::min_rs(size, domain),
        Query::approx_max_crs(size.width),
    ]
}

/// The block transfers of each run of a batch.
fn io_per_run(runs: &[QueryRun]) -> Vec<IoSnapshot> {
    runs.iter().map(|run| run.io).collect()
}

/// Replays `events` into a `DeltaDataset`, checking at every
/// `checkpoint_every` events (and once at the end) that survivors match an
/// independent replay, that every query variant answers bit-identically to
/// a from-scratch prepare, that each run of the batch moves exactly the
/// blocks of the same run on a fresh prepare, and that an external
/// snapshot's object file reads back as the survivors, record for record.
fn assert_replay_matches_prepare(
    events: &[Event],
    engine: &MaxRsEngine,
    queries: &[Query],
    checkpoint_every: usize,
) {
    let mut delta = DeltaDataset::new(engine, DeltaOptions::default()).unwrap();
    let mut reference: Vec<(u64, WeightedPoint)> = Vec::new();
    let mut checkpoints = 0usize;
    let mut external = 0usize;
    for (i, event) in events.iter().enumerate() {
        delta.apply(std::slice::from_ref(event)).unwrap();
        match *event {
            Event::Insert { id, object, .. } => reference.push((id, object)),
            Event::Delete { id, .. } => reference.retain(|&(rid, _)| rid != id),
            Event::Tick { .. } => {}
        }
        if (i + 1).is_multiple_of(checkpoint_every) || i + 1 == events.len() {
            let survivors: Vec<WeightedPoint> = reference.iter().map(|&(_, o)| o).collect();
            assert_eq!(
                delta.survivors(),
                survivors,
                "survivor bookkeeping diverged after {} events",
                i + 1
            );
            let prepared = engine.prepare(&survivors).unwrap();
            let expected: Vec<_> = queries
                .iter()
                .map(|q| prepared.run(q).unwrap().answer)
                .collect();
            let got = delta.run_batch(queries).unwrap();
            for ((query, want), run) in queries.iter().zip(&expected).zip(&got) {
                assert_eq!(
                    &run.answer,
                    want,
                    "{} diverged from from-scratch prepare after {} events \
                     ({} survivors)",
                    query.name(),
                    i + 1,
                    survivors.len(),
                );
            }
            let fresh = engine.prepare(&survivors).unwrap();
            assert_eq!(
                io_per_run(&got),
                io_per_run(&fresh.run_batch(queries).unwrap()),
                "a delta batch moved other blocks than a fresh prepare after {} events",
                i + 1
            );
            let snapshot = delta.snapshot().unwrap();
            if let Some((ctx, file)) = snapshot.external_parts() {
                let stored: Vec<WeightedPoint> =
                    ctx.read_all(file).unwrap().iter().map(|r| r.0).collect();
                assert_eq!(
                    stored,
                    survivors,
                    "the snapshot's object file is not the survivors after {} events",
                    i + 1
                );
                external += 1;
            }
            checkpoints += 1;
            // `benchmark/src/serving.rs` calls `compact` between writes; the
            // next batch must still be a prepare of the survivors.
            delta.compact().unwrap();
        }
    }
    assert!(checkpoints >= 4, "too few checkpoints to mean anything");
    assert!(external > 0, "no checkpoint took an external snapshot");
}

/// The acceptance-criteria run: one ≥10k-event stream with ties and
/// zero-weight objects, all four variants, both backends.
#[test]
fn ten_thousand_event_replay_matches_prepare_on_both_backends() {
    let cfg = EventStreamConfig {
        events: 10_500,
        ..Default::default()
    };
    let events = event_stream(&cfg, 42);
    assert!(events.len() >= 10_000);
    let queries = query_pool(cfg.extent);
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let engine = external_engine(backend);
        assert_replay_matches_prepare(&events, &engine, &queries, 1_500);
    }
}

/// Heavier churn plus window-skewed (FIFO-like) deletes: most objects leave
/// the live set soon after they enter it.
#[test]
fn delete_heavy_replay_matches_prepare() {
    let cfg = EventStreamConfig {
        events: 4_000,
        delete_fraction: 0.45,
        window_skew: 0.9,
        snap_fraction: 0.5,
        ..Default::default()
    };
    let events = event_stream(&cfg, 7);
    let queries = query_pool(cfg.extent);
    let engine = external_engine(StorageBackend::Sim);
    assert_replay_matches_prepare(&events, &engine, &queries, 800);
}

/// Edge cases the generator never emits: deletes of unknown ids are no-ops
/// (reported, not errored), duplicate inserts are checked errors that leave
/// the dataset consistent and queryable.
#[test]
fn unknown_deletes_and_duplicate_inserts_stay_consistent() {
    let engine = external_engine(StorageBackend::Sim);
    let mut delta = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();
    let cfg = EventStreamConfig {
        events: 600,
        ..Default::default()
    };
    let events = event_stream(&cfg, 11);
    delta.apply(&events).unwrap();
    let survivors = delta.survivors();
    assert!(!survivors.is_empty());

    // Unknown delete: applied = false, nothing changes.
    let outcome = delta.apply(&[Event::delete(9_999_999, 1e6)]).unwrap();
    assert!(!outcome.applied);
    assert_eq!(delta.survivors(), survivors);

    // Duplicate insert: a checked error; the batch stops there, earlier
    // events applied, the dataset still answers correctly.
    let live_id = (0..events.len() as u64)
        .find(|&id| delta.contains(id))
        .expect("some generated id survives");
    let err = delta
        .apply(&[Event::insert(live_id, 1.0, 1.0, 1.0, 2e6)])
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::Event(EventError::DuplicateId(id)) if id == live_id
    ));
    assert_eq!(delta.survivors(), survivors);
    let query = Query::max_rs(RectSize::square(0.04 * cfg.extent));
    let expected = engine.prepare(&survivors).unwrap().run(&query).unwrap();
    assert_eq!(delta.run(&query).unwrap().answer, expected.answer);
}

/// Cross-engine equivalence (the shared-`LiveSet` guarantee): one windowed
/// event stream replayed into the in-memory `StreamEngine` and the
/// external-memory `DeltaDataset` must agree on survivors, clock and answers
/// at every checkpoint — and reject the same invalid events at the same
/// positions.
#[test]
fn stream_engine_and_delta_dataset_share_event_semantics() {
    let cfg = EventStreamConfig {
        events: 3_000,
        tick_fraction: 0.15,
        ..Default::default()
    };
    let events = event_stream(&cfg, 23);
    let window = 400.0; // mean_dt 1.0 → plenty of expiry traffic
    let size = RectSize::square(0.04 * cfg.extent);
    let query = Query::max_rs(size);

    let mut stream = StreamEngine::new(StreamConfig::max_rs(size).with_window(window)).unwrap();
    let engine = external_engine(StorageBackend::Sim);
    let mut delta = DeltaDataset::new(
        &engine,
        DeltaOptions {
            window: Some(window),
            ..Default::default()
        },
    )
    .unwrap();

    let mut expired_stream = 0usize;
    let mut expired_delta = 0usize;
    for (i, event) in events.iter().enumerate() {
        let s = stream.apply(event).unwrap();
        let d = delta.apply(std::slice::from_ref(event)).unwrap();
        assert_eq!(s.applied, d.applied, "event {i} applied-flag diverged");
        expired_stream += s.expired;
        expired_delta += d.expired;
        if (i + 1).is_multiple_of(500) || i + 1 == events.len() {
            assert_eq!(stream.now(), delta.now(), "clock diverged at event {i}");
            assert_eq!(expired_stream, expired_delta, "expiry count diverged");
            assert_eq!(
                stream.survivors(),
                delta.survivors(),
                "survivors diverged at event {i}"
            );
            assert_eq!(
                stream.answer().run.answer,
                delta.run(&query).unwrap().answer,
                "answers diverged at event {i} ({} live)",
                stream.len()
            );
        }
    }
    assert!(expired_stream > 0, "the window never expired anything");

    // Same rejections, same positions: a duplicate id and a non-finite
    // timestamp produce matching errors in both engines, and the clock
    // behaves identically around them.
    let live_id = (0..events.len() as u64)
        .find(|&id| stream.contains(id))
        .expect("something is live");
    let dup = Event::insert(live_id, 1.0, 1.0, 1.0, delta.now() + 1.0);
    assert_eq!(
        stream.apply(&dup).unwrap_err(),
        StreamError::DuplicateId(live_id)
    );
    assert!(matches!(
        delta.apply(std::slice::from_ref(&dup)).unwrap_err(),
        CoreError::Event(EventError::DuplicateId(id)) if id == live_id
    ));
    assert_eq!(
        stream.now(),
        delta.now(),
        "failed events advance both clocks identically"
    );
    let bad = Event::tick(f64::NAN);
    assert!(matches!(
        stream.apply(&bad).unwrap_err(),
        StreamError::InvalidParameter(_)
    ));
    assert!(matches!(
        delta.apply(std::slice::from_ref(&bad)).unwrap_err(),
        CoreError::Event(EventError::InvalidParameter(_))
    ));
    assert_eq!(stream.survivors(), delta.survivors());
}
