//! [`DeltaDataset`]: a delta-main design — streaming updates over the
//! external-memory MaxRS pipeline.
//!
//! [`PreparedDataset`] realizes the paper's static world: store the objects
//! once, answer every query against the stored file.  A `DeltaDataset` keeps
//! that file under updates: the disk-resident **main** (base run) absorbs a
//! stream of [`Event`]s through an in-memory **delta** — inserts held in
//! arrival order, deletions of base-resident objects as a tombstone multiset
//! — and every [`Query`] variant is answered over the **net file**: the base
//! minus its tombstones followed by the delta inserts, written in one read
//! of the base and one write.  A query batch runs on a
//! [`snapshot`](DeltaDataset::snapshot), a [`PreparedDataset`] of the net
//! file in a fresh context, through the one local query path.  No stage of
//! the sweep kernel ([`crate::sweep`]) reads the order of its input, so
//! nothing is ever sorted, and canonical max-regions make the answers
//! bit-identical to preparing the net survivor set from scratch — the
//! property the `delta_determinism` differential suite replays ≥10k-event
//! sequences to enforce.
//!
//! # Compaction
//!
//! Queries over a large delta pay the net file's read and write per batch,
//! so a **compaction** periodically propagates the delta into the main: it
//! writes the net file once more, keeps it as the new base run, deletes the
//! old run and resets the delta to empty.  Compaction is
//! **answer-invariant** — it changes the physical layout, never the record
//! multiset — and its I/O is metered with an [`IoSnapshot`] so tests can
//! hold it to a constant factor of the `2·N/B` floor.  It runs either
//! explicitly ([`DeltaDataset::compact`]) or automatically under a
//! [`CompactionPolicy`] threshold checked after every
//! [`apply`](DeltaDataset::apply) batch.
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
//! queries keep answering against the pre-update snapshot while updates and
//! compaction proceed — see `maxrs-serve`'s `DatasetRegistry::apply`.

use std::collections::{BTreeMap, HashMap, HashSet};

use maxrs_em::{EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::WeightedPoint;

use crate::batch::QueryBatch;
use crate::engine::{EngineOptions, ExecutionStrategy, MaxRsEngine};
use crate::error::{CoreError, Result};
use crate::events::{Event, EventOutcome, LiveRecord, LiveSet};
use crate::prepared::PreparedDataset;
use crate::query::{Query, QueryRun};
use crate::records::ObjectRecord;

/// When a [`DeltaDataset`] propagates its delta into the base run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicy {
    /// Only on explicit [`DeltaDataset::compact`] calls.
    #[default]
    Manual,
    /// Automatically after an [`apply`](DeltaDataset::apply) batch that
    /// leaves at least `max_delta` pending delta records (inserts +
    /// tombstones).
    DeltaThreshold {
        /// Pending-record threshold that triggers a compaction.
        max_delta: u64,
    },
}

/// Construction options of a [`DeltaDataset`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeltaOptions {
    /// The compaction policy (default: [`CompactionPolicy::Manual`]).
    pub policy: CompactionPolicy,
    /// Optional sliding window auto-expiring objects (stream time units),
    /// with the same semantics as the stream engine's window.
    pub window: Option<f64>,
}

/// What one [`DeltaDataset::compact`] did — the update-propagation cost the
/// delta experiments measure and the property tests bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Blocks transferred by the compaction (one sequential read of the old
    /// base + one sequential write of the new run, including its flush).
    pub io: IoSnapshot,
    /// Records in the base run before the compaction.
    pub base_before: u64,
    /// Records in the new base run (= the net dataset size).
    pub base_after: u64,
    /// Delta records propagated (inserts + tombstones); zero means the
    /// compaction was a no-op and did no I/O.
    pub delta_records: u64,
}

/// The bit-exact identity of an [`ObjectRecord`] — tombstones match base
/// records by exact `(x, y, weight)` bit patterns (the record format carries
/// no id), counted as a multiset so duplicate records are handled correctly.
type RecordKey = (u64, u64, u64);

fn record_key(o: &WeightedPoint) -> RecordKey {
    (o.point.x.to_bits(), o.point.y.to_bits(), o.weight.to_bits())
}

/// A dynamic dataset over the external-memory pipeline: a base run plus an
/// in-memory delta, queried through one net file and periodically compacted
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
/// // Updates take effect immediately; compaction only changes the layout.
/// cafes.apply(&[Event::delete(2, 3.0)]).unwrap();
/// cafes.compact().unwrap();
/// let best = cafes.run(&Query::max_rs(RectSize::square(2.0))).unwrap();
/// assert_eq!(best.answer.best_weight(), 1.0);
/// ```
#[derive(Debug)]
pub struct DeltaDataset {
    opts: EngineOptions,
    policy: CompactionPolicy,
    ctx: Box<EmContext>,
    /// The base run of the last compaction; `Some` until `Drop`.
    base: Option<TupleFile<ObjectRecord>>,
    base_len: u64,
    /// The canonical event semantics: ids, clock, window expiry.
    live: LiveSet,
    /// Ids of live objects whose record resides in `base`.
    in_base: HashSet<u64>,
    /// Delta inserts in arrival order, keyed by arrival sequence.
    delta: BTreeMap<u64, WeightedPoint>,
    /// Arrival sequence of each delta insert, for O(log n) removal by id.
    delta_index: HashMap<u64, u64>,
    delta_seq: u64,
    /// Multiset of base records logically deleted since the last compaction.
    tombstones: HashMap<RecordKey, u64>,
    tombstone_count: u64,
    compactions: u64,
}

impl DeltaDataset {
    /// Creates an empty dynamic dataset with the `engine`'s configuration
    /// (its [`EngineOptions::em_config`] provisions the owned context) and
    /// the given delta options.
    pub fn new(engine: &MaxRsEngine, options: DeltaOptions) -> Result<Self> {
        let ctx = EmContext::new(engine.options().em_config);
        DeltaDataset::with_context(engine, options, ctx)
    }

    /// [`new`](DeltaDataset::new) on a context the caller built — say, over
    /// a block device of its choice ([`EmContext::with_device`]) — the
    /// delta's analogue of [`MaxRsEngine::prepare_file`].  The base run and
    /// the compactions live in `ctx`, whose configuration also sets the
    /// in-memory cutoff and the snapshots' contexts; each query batch reads
    /// the base from `ctx` into a snapshot of its own context, so no query
    /// leaves a file in `ctx`.  The engine contributes the rest of its
    /// options.
    pub fn with_context(
        engine: &MaxRsEngine,
        options: DeltaOptions,
        ctx: EmContext,
    ) -> Result<Self> {
        let opts = *engine.options();
        let live = LiveSet::new(options.window).map_err(CoreError::from)?;
        let ctx = Box::new(ctx);
        let base = ctx.create_writer::<ObjectRecord>()?.finish()?;
        Ok(DeltaDataset {
            opts,
            policy: options.policy,
            ctx,
            base: Some(base),
            base_len: 0,
            live,
            in_base: HashSet::new(),
            delta: BTreeMap::new(),
            delta_index: HashMap::new(),
            delta_seq: 0,
            tombstones: HashMap::new(),
            tombstone_count: 0,
            compactions: 0,
        })
    }

    /// Number of live objects (base survivors + delta inserts).
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

    /// The live objects in insertion order — the net dataset a from-scratch
    /// [`MaxRsEngine::prepare`] would be given to answer the same queries.
    pub fn survivors(&self) -> Vec<WeightedPoint> {
        self.live.survivors()
    }

    /// Records in the base run (may include records already tombstoned but
    /// not yet compacted away).
    pub fn base_len(&self) -> u64 {
        self.base_len
    }

    /// Pending delta records: in-memory inserts plus tombstones.  This is
    /// the quantity [`CompactionPolicy::DeltaThreshold`] bounds and the
    /// x-axis of the delta experiments.
    pub fn delta_len(&self) -> u64 {
        self.delta.len() as u64 + self.tombstone_count
    }

    /// How many compactions have run (explicit and policy-triggered).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The compaction policy.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// The dataset's owned external-memory context — for I/O accounting
    /// ([`EmContext::stats`], [`EmContext::disk_blocks`]) in tests and
    /// experiments.
    pub fn context(&self) -> &EmContext {
        &self.ctx
    }

    /// Applies a batch of events through the canonical [`LiveSet`]
    /// semantics, routing the effects into the delta: inserts enter the
    /// in-memory index in arrival order, removals of base-resident records
    /// become tombstones, removals of delta-resident records cancel in place.
    /// Stops at the first error (events before it are applied; as in the
    /// stream engine, a failed event's clock advance sticks).  After the
    /// batch, a [`CompactionPolicy::DeltaThreshold`] may trigger a
    /// compaction.
    ///
    /// Returns the accumulated outcome ([`EventOutcome::applied`] is the
    /// conjunction over the batch, `expired` the total).
    pub fn apply(&mut self, events: &[Event]) -> Result<EventOutcome> {
        let mut total = EventOutcome {
            applied: true,
            ..Default::default()
        };
        for event in events {
            let report = self.live.apply(event).map_err(CoreError::from)?;
            for gone in &report.expired {
                self.note_removed(gone);
            }
            if let Some(gone) = &report.deleted {
                self.note_removed(gone);
            }
            if let Some(added) = &report.inserted {
                self.note_inserted(added);
            }
            total.applied &= report.outcome.applied;
            total.expired += report.outcome.expired;
        }
        if let CompactionPolicy::DeltaThreshold { max_delta } = self.policy {
            if self.delta_len() >= max_delta && self.delta_len() > 0 {
                self.compact()?;
            }
        }
        Ok(total)
    }

    /// Answers one [`Query`] against the current net dataset — a batch of
    /// one, so the per-query and batched paths cannot diverge.
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        let mut runs = self.run_batch(std::slice::from_ref(query))?;
        Ok(runs.pop().expect("one run per query"))
    }

    /// Answers a batch of queries in shared sweep passes over a
    /// [`snapshot`](DeltaDataset::snapshot) of the net dataset, taken for
    /// this batch and dropped after it.  Answers are bit-identical to a
    /// from-scratch [`MaxRsEngine::prepare`] over
    /// [`survivors`](DeltaDataset::survivors) — canonical max-regions make
    /// them independent of the file's order.
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        self.run_planned(&QueryBatch::new(queries)?)
    }

    /// [`run_batch`](DeltaDataset::run_batch) for a pre-planned
    /// [`QueryBatch`].
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        self.snapshot()?.run_planned(batch)
    }

    /// Propagates the delta into the base: the net file (module docs) is
    /// written in one `O(N/B)` pass and flushed, installed as the new base
    /// run, the old run is deleted, and the delta resets to empty.
    /// Answer-invariant by construction (the record multiset is unchanged); a
    /// no-op at zero pending records.  The report meters the pass's I/O.
    ///
    /// A failure before the new run is installed deletes it and leaves the
    /// dataset as it was.  A failure to delete the old run comes back as the
    /// error of a compaction that otherwise completed: the new base is in
    /// place and the delta is empty.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        let base_before = self.base_len;
        let delta_records = self.delta_len();
        if delta_records == 0 {
            return Ok(CompactionReport {
                io: IoSnapshot::default(),
                base_before,
                base_after: base_before,
                delta_records: 0,
            });
        }
        let before = self.ctx.stats();
        let net = self.build_net(&self.ctx)?;
        // Materialize the new run: its dirty blocks belong to the
        // compaction, not to whichever query happens to evict them first
        // (mirrors `prepare`).
        if let Err(e) = self.ctx.flush_file(&net) {
            let _ = self.ctx.delete_file(net);
            return Err(e.into());
        }
        let io = self.ctx.stats().since(&before);
        self.base_len = net.len();
        let old = self.base.replace(net);
        self.delta.clear();
        self.delta_index.clear();
        self.delta_seq = 0;
        self.tombstones.clear();
        self.tombstone_count = 0;
        self.in_base = self.live.ids().collect();
        self.compactions += 1;
        if let Some(old) = old {
            self.ctx.delete_file(old)?;
        }
        Ok(CompactionReport {
            io,
            base_before,
            base_after: self.base_len,
            delta_records,
        })
    }

    /// An immutable [`PreparedDataset`] of the current net dataset: the net
    /// file (module docs) is written straight into a fresh context of the
    /// same configuration and flushed there.  Serving layers swap such
    /// snapshots atomically so readers are never torn by updates or
    /// compaction.
    pub fn snapshot(&self) -> Result<PreparedDataset<'static>> {
        let strategy =
            MaxRsEngine::with_options(self.opts).select_strategy(self.len(), self.ctx.config())?;
        if strategy.0 == ExecutionStrategy::InMemory {
            return Ok(PreparedDataset::from_memory(self.opts, self.survivors()));
        }
        let ctx = Box::new(EmContext::new(self.ctx.config()));
        let before = ctx.stats();
        let file = self.build_net(&ctx)?;
        if let Err(e) = ctx.flush_file(&file) {
            let _ = ctx.delete_file(file);
            return Err(e.into());
        }
        let io = ctx.stats().since(&before);
        Ok(PreparedDataset::from_owned(
            self.opts, ctx, file, io, strategy,
        ))
    }

    /// Writes the net file onto `ctx`: the base minus its tombstones, then
    /// the delta inserts in arrival order — one sequential read of the base
    /// and one sequential write.
    fn build_net(&self, ctx: &EmContext) -> Result<TupleFile<ObjectRecord>> {
        let base = self.base.as_ref().expect("base present until drop");
        let mut tombs = self.tombstones.clone();
        let mut reader = self.ctx.open_reader(base);
        let mut writer = ctx.create_writer::<ObjectRecord>()?;
        while let Some(rec) = reader.next_record()? {
            let key = record_key(&rec.0);
            match tombs.get_mut(&key) {
                Some(count) => {
                    *count -= 1;
                    if *count == 0 {
                        tombs.remove(&key);
                    }
                }
                None => writer.push(&rec)?,
            }
        }
        for o in self.delta.values() {
            writer.push(&ObjectRecord(*o))?;
        }
        Ok(writer.finish()?)
    }

    fn note_inserted(&mut self, added: &LiveRecord) {
        let seq = self.delta_seq;
        self.delta_seq += 1;
        self.delta.insert(seq, added.object);
        self.delta_index.insert(added.id, seq);
    }

    fn note_removed(&mut self, gone: &LiveRecord) {
        if self.in_base.remove(&gone.id) {
            *self.tombstones.entry(record_key(&gone.object)).or_insert(0) += 1;
            self.tombstone_count += 1;
        } else if let Some(seq) = self.delta_index.remove(&gone.id) {
            self.delta.remove(&seq);
        } else {
            debug_assert!(false, "live object was neither in base nor delta");
        }
    }
}

impl Drop for DeltaDataset {
    fn drop(&mut self) {
        if let Some(base) = self.base.take() {
            // Deleting can only fail if the file is already gone; either way
            // its blocks are no longer allocated.
            let _ = self.ctx.delete_file(base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        delta.compact().unwrap();
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
    fn compaction_is_answer_invariant_and_empties_the_delta() {
        let engine = external_engine();
        let mut delta = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();
        delta.apply(&insert_events(500, 7)).unwrap();
        delta
            .apply(&[Event::delete(3, 600.0), Event::delete(4, 600.0)])
            .unwrap();
        let query = Query::max_rs(RectSize::square(120.0));
        let before = delta.run(&query).unwrap().answer;
        assert!(delta.delta_len() > 0);
        let report = delta.compact().unwrap();
        assert_eq!(delta.delta_len(), 0);
        assert_eq!(report.base_after, delta.len());
        assert_eq!(delta.base_len(), 498);
        assert!(report.io.total() > 0);
        assert_eq!(delta.run(&query).unwrap().answer, before);
        // A second compaction is a free no-op.
        let noop = delta.compact().unwrap();
        assert_eq!(noop.delta_records, 0);
        assert_eq!(noop.io.total(), 0);
    }

    #[test]
    fn threshold_policy_compacts_automatically() {
        let engine = external_engine();
        let mut delta = DeltaDataset::new(
            &engine,
            DeltaOptions {
                policy: CompactionPolicy::DeltaThreshold { max_delta: 100 },
                window: None,
            },
        )
        .unwrap();
        delta.apply(&insert_events(350, 1)).unwrap();
        assert!(delta.compactions() >= 1);
        assert!(delta.delta_len() < 100);
    }

    #[test]
    fn window_expiry_flows_into_tombstones() {
        let engine = external_engine();
        let mut delta = DeltaDataset::new(
            &engine,
            DeltaOptions {
                policy: CompactionPolicy::Manual,
                window: Some(100.0),
            },
        )
        .unwrap();
        // Inserts arrive at t = 0..299 with a 100-unit window, so the 200
        // oldest expire while the batch is still streaming in.
        let outcome = delta.apply(&insert_events(300, 5)).unwrap();
        assert_eq!(outcome.expired, 200);
        delta.compact().unwrap();
        assert_eq!(delta.len(), 100);
        assert_eq!(delta.base_len(), 100);
        // By t = 500 every remaining window has ended; the expiries of
        // base-resident objects become tombstones.
        let outcome = delta.apply(&[Event::tick(500.0)]).unwrap();
        assert_eq!(outcome.expired, 100);
        assert!(delta.is_empty());
        assert_eq!(delta.delta_len(), 100, "expiries tombstone the base");
        delta.compact().unwrap();
        assert_eq!(delta.base_len(), 0);
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

    #[test]
    fn dropping_returns_disk_blocks_to_baseline() {
        let engine = external_engine();
        let ctx_probe;
        {
            let mut delta = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();
            delta.apply(&insert_events(400, 11)).unwrap();
            delta.compact().unwrap();
            assert!(delta.context().disk_blocks() > 0);
            ctx_probe = delta.context().disk_blocks();
            assert!(ctx_probe > 0);
        }
        // The context died with the dataset; nothing to leak.  The stronger
        // invariant — a query leaves no file beside the base run — is
        // asserted against a live context:
        let mut delta = DeltaDataset::new(&engine, DeltaOptions::default()).unwrap();
        delta.apply(&insert_events(400, 11)).unwrap();
        delta.compact().unwrap();
        delta.context().flush_all().unwrap();
        let baseline = delta.context().disk_blocks();
        let files = delta.context().num_files();
        delta
            .apply(
                &insert_events(50, 13)
                    .iter()
                    .map(|e| match *e {
                        Event::Insert { id, object, at } => Event::Insert {
                            id: id + 500,
                            object,
                            at,
                        },
                        other => other,
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let query = Query::max_rs(RectSize::square(100.0));
        delta.run(&query).unwrap();
        delta.context().flush_all().unwrap();
        assert_eq!(delta.context().num_files(), files, "a query left a file");
        assert_eq!(delta.context().disk_blocks(), baseline, "blocks leaked");
    }
}
