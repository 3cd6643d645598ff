//! [`DeltaDataset`]: a dynamic dataset over the external-memory MaxRS
//! pipeline.
//!
//! [`PreparedDataset`] realizes the paper's static world: store the objects
//! once, answer every query against the stored file.  A `DeltaDataset` takes
//! a stream of [`Event`]s instead.  It keeps the live objects in memory, in
//! a [`LiveSet`], and answers every [`Query`] variant on a
//! [`snapshot`](DeltaDataset::snapshot): a [`MaxRsEngine::prepare`] of the
//! survivors in insertion order, taken for each query batch and dropped
//! after it.  A snapshot is exactly what a from-scratch prepare of the
//! survivors builds, so its answers and its block transfers are those of
//! that prepare — the property the `delta_determinism` differential suite
//! replays ≥10k-event sequences to enforce.
//!
//! # Event semantics
//!
//! Events are applied by the **shared** [`LiveSet`] helper — the same
//! duplicate-insert / unknown-delete / window-clamp rules as the in-memory
//! `StreamEngine`, so the two dynamic engines cannot drift apart (a
//! cross-engine equivalence test replays one sequence into both).
//!
//! # Serving
//!
//! A concurrent server never queries a `DeltaDataset` directly; it takes
//! immutable [`snapshot`](DeltaDataset::snapshot)s
//! ([`PreparedDataset<'static>`]) and swaps them atomically, so in-flight
//! queries keep answering against the pre-update snapshot while updates
//! proceed — see `maxrs-serve`'s `DatasetRegistry::apply`.

use maxrs_geometry::WeightedPoint;

use crate::batch::QueryBatch;
use crate::engine::MaxRsEngine;
use crate::error::{CoreError, Result};
use crate::events::{Event, EventOutcome, LiveSet};
use crate::prepared::PreparedDataset;
use crate::query::{Query, QueryRun};

/// Kept because `benchmark/src/serving.rs` names it; does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicy {
    /// Kept because `benchmark/src/serving.rs` names it; does nothing.
    #[default]
    Manual,
    /// Kept because `benchmark/src/serving.rs` names it; does nothing.
    DeltaThreshold {
        /// Kept because `benchmark/src/serving.rs` names it; does nothing.
        max_delta: u64,
    },
}

/// Construction options of a [`DeltaDataset`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeltaOptions {
    /// Kept because `benchmark/src/serving.rs` names it; does nothing.
    pub policy: CompactionPolicy,
    /// Optional sliding window auto-expiring objects (stream time units),
    /// with the same semantics as the stream engine's window.
    pub window: Option<f64>,
}

/// A dynamic dataset over the external-memory pipeline: the live objects of
/// an event stream, queried through a fresh prepare of them per batch
/// (module docs).
///
/// ```
/// use maxrs_core::{DeltaDataset, DeltaOptions, Event, MaxRsEngine, Query};
/// use maxrs_geometry::RectSize;
///
/// let engine = MaxRsEngine::new();
/// let mut cafes = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();
/// cafes
///     .apply(&[
///         Event::insert(1, 1.0, 1.0, 1.0, 0.0),
///         Event::insert(2, 1.4, 1.2, 1.0, 1.0),
///         Event::insert(3, 6.0, 6.0, 1.0, 2.0),
///     ])
///     .unwrap();
/// let best = cafes.run(&Query::max_rs(RectSize::square(2.0))).unwrap();
/// assert_eq!(best.answer.best_weight(), 2.0);
///
/// // Updates take effect immediately.
/// cafes.apply(&[Event::delete(2, 3.0)]).unwrap();
/// let best = cafes.run(&Query::max_rs(RectSize::square(2.0))).unwrap();
/// assert_eq!(best.answer.best_weight(), 1.0);
/// ```
#[derive(Debug)]
pub struct DeltaDataset {
    engine: MaxRsEngine,
    /// The canonical event semantics: ids, clock, window expiry.
    live: LiveSet,
}

impl DeltaDataset {
    /// Creates an empty dynamic dataset whose snapshots `engine` prepares,
    /// with the given options.  Errors when the window is not positive and
    /// finite.
    pub fn new(engine: &MaxRsEngine, options: DeltaOptions) -> Result<Self> {
        Ok(DeltaDataset {
            engine: engine.clone(),
            live: LiveSet::new(options.window).map_err(CoreError::from)?,
        })
    }

    /// Number of live objects.
    pub fn len(&self) -> u64 {
        self.live.len() as u64
    }

    /// `true` when no object is alive.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The stream clock (`-∞` before the first event).
    pub fn now(&self) -> f64 {
        self.live.now()
    }

    /// `true` when `id` refers to a live object.
    pub fn contains(&self, id: u64) -> bool {
        self.live.contains(id)
    }

    /// The live objects in insertion order — the objects every
    /// [`snapshot`](DeltaDataset::snapshot) prepares.
    pub fn survivors(&self) -> Vec<WeightedPoint> {
        self.live.survivors()
    }

    /// Kept because `benchmark/src/serving.rs` names it; does nothing and
    /// returns 0.
    pub fn delta_len(&self) -> u64 {
        0
    }

    /// Applies a batch of events through the canonical [`LiveSet`]
    /// semantics.  Stops at the first error (events before it are applied;
    /// as in the stream engine, a failed event's clock advance sticks).
    ///
    /// Returns the accumulated outcome ([`EventOutcome::applied`] is the
    /// conjunction over the batch, `expired` the total).
    pub fn apply(&mut self, events: &[Event]) -> Result<EventOutcome> {
        let mut total = EventOutcome {
            applied: true,
            ..Default::default()
        };
        for event in events {
            let outcome = self.live.apply(event).map_err(CoreError::from)?;
            total.applied &= outcome.applied;
            total.expired += outcome.expired;
        }
        Ok(total)
    }

    /// Answers one [`Query`] against the live objects — a batch of one, so
    /// the per-query and batched paths cannot diverge.
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        let mut runs = self.run_batch(std::slice::from_ref(query))?;
        Ok(runs.pop().expect("one run per query"))
    }

    /// Answers a batch of queries in shared sweep passes over a
    /// [`snapshot`](DeltaDataset::snapshot), taken for this batch and
    /// dropped after it: answers and block transfers are those of a
    /// from-scratch [`MaxRsEngine::prepare`] over
    /// [`survivors`](DeltaDataset::survivors).
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        self.run_planned(&QueryBatch::new(queries)?)
    }

    /// [`run_batch`](DeltaDataset::run_batch) for a pre-planned
    /// [`QueryBatch`].
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        self.snapshot()?.run_planned(batch)
    }

    /// Kept because `benchmark/src/serving.rs` names it; does nothing.
    pub fn compact(&mut self) -> Result<()> {
        Ok(())
    }

    /// An immutable [`PreparedDataset`] of the live objects:
    /// [`MaxRsEngine::prepare`] of [`survivors`](DeltaDataset::survivors).
    /// Serving layers swap such snapshots atomically so readers are never
    /// torn by updates.
    pub fn snapshot(&self) -> Result<PreparedDataset<'static>> {
        self.engine.prepare(&self.survivors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::exact::ExactMaxRsOptions;
    use maxrs_em::EmConfig;
    use maxrs_geometry::RectSize;

    fn external_engine() -> MaxRsEngine {
        MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 32 * 512).unwrap(),
            exact: ExactMaxRsOptions {
                memory_rects: Some(64),
                parallelism: 1,
                ..Default::default()
            },
            force_strategy: None,
        })
    }

    fn insert_events(n: usize, seed: u64) -> Vec<Event> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|i| {
                Event::insert(
                    i as u64,
                    (next() % 1000) as f64,
                    (next() % 1000) as f64,
                    1.0 + (next() % 4) as f64,
                    i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn delta_answers_match_from_scratch_prepare() {
        let engine = external_engine();
        let mut delta = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();
        let events = insert_events(600, 3);
        delta.apply(&events).unwrap();
        delta
            .apply(
                &insert_events(200, 9)[..]
                    .to_vec()
                    .iter()
                    .map(|e| match *e {
                        Event::Insert { id, object, at } => Event::Insert {
                            id: id + 1000,
                            object,
                            at: at + 1000.0,
                        },
                        other => other,
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        delta
            .apply(&[Event::delete(5, 2000.0), Event::delete(1003, 2000.0)])
            .unwrap();

        let prepared = engine.prepare(&delta.survivors()).unwrap();
        let query = Query::max_rs(RectSize::square(80.0));
        assert_eq!(
            delta.run(&query).unwrap().answer,
            prepared.run(&query).unwrap().answer
        );
    }

    #[test]
    fn window_expiry_removes_objects_from_the_live_set() {
        let engine = external_engine();
        let mut delta = DeltaDataset::new(
            &engine,
            DeltaOptions {
                window: Some(100.0),
                ..Default::default()
            },
        )
        .unwrap();
        // Inserts arrive at t = 0..299 with a 100-unit window, so the 200
        // oldest expire while the batch is still streaming in.
        let outcome = delta.apply(&insert_events(300, 5)).unwrap();
        assert_eq!(outcome.expired, 200);
        assert_eq!(delta.len(), 100);
        assert!((0..200).all(|id| !delta.contains(id)));
        assert!((200..300).all(|id| delta.contains(id)));
        assert_eq!(delta.snapshot().unwrap().len(), 100);
        // By t = 500 every remaining window has ended.
        let outcome = delta.apply(&[Event::tick(500.0)]).unwrap();
        assert_eq!(outcome.expired, 100);
        assert!(delta.is_empty());
        assert!(delta.snapshot().unwrap().is_empty());
    }

    #[test]
    fn duplicate_insert_is_a_checked_error() {
        let engine = MaxRsEngine::new();
        let mut delta = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();
        delta
            .apply(&[Event::insert(1, 0.0, 0.0, 1.0, 0.0)])
            .unwrap();
        let err = delta.apply(&[Event::insert(1, 5.0, 5.0, 1.0, 1.0)]);
        assert!(matches!(err, Err(CoreError::Event(_))), "{err:?}");
        // Unknown deletes are no-ops.
        let outcome = delta.apply(&[Event::delete(42, 2.0)]).unwrap();
        assert!(!outcome.applied);
    }
}
