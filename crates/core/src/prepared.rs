//! [`PreparedDataset`]: load a dataset once, answer many queries.
//!
//! [`MaxRsEngine::prepare`] writes the objects into an external-memory
//! context once and retains that object file; [`PreparedDataset::run`]
//! answers any [`Query`] variant against it.  Each query costs the `O(N/B)`
//! transform scan plus the distribution sweep, and a whole *batch* of
//! queries shares even those across queries of one rectangle size
//! ([`PreparedDataset::run_batch`], see [`crate::batch`]).  The file is kept
//! in arrival order: no stage of the sweep reads the order of its input (see
//! [`crate::sweep`]), so preparing moves each block of the dataset at most
//! once.  Answers are bit-identical to single-shot [`MaxRsEngine::run`]
//! calls — which simply route through a throwaway prepared dataset — because
//! canonical max-regions (see [`crate::sweep`]) make every answer
//! independent of how the sweep's input was obtained.
//!
//! The object file is owned RAII-style: dropping the `PreparedDataset`
//! deletes its blocks, so a long-running engine that prepares many datasets
//! never leaks disk space (`disk_blocks()` returns to its baseline — a test
//! asserts exactly that).

use maxrs_em::{EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::WeightedPoint;

use crate::batch::{run_batch_external, QueryBatch};
use crate::engine::{runs_in_memory, EngineOptions, ExecutionStrategy, MaxRsEngine};
use crate::error::Result;
use crate::exact::load_objects;
use crate::query::{Query, QueryRun};
use crate::records::ObjectRecord;

/// The context a prepared dataset runs against: its own (created by
/// [`MaxRsEngine::prepare`]) or a caller-owned one (borrowed by
/// [`MaxRsEngine::prepare_file`]).
#[derive(Debug)]
enum CtxHandle<'a> {
    Owned(Box<EmContext>),
    Borrowed(&'a EmContext),
}

impl CtxHandle<'_> {
    fn get(&self) -> &EmContext {
        match self {
            CtxHandle::Owned(ctx) => ctx,
            CtxHandle::Borrowed(ctx) => ctx,
        }
    }
}

/// Where the prepared data lives.
#[derive(Debug)]
enum Source<'a> {
    /// The dataset fits the memory budget: kept as a plain vector, queries
    /// are answered by the in-memory reference algorithms at zero I/O.
    Memory(Vec<WeightedPoint>),
    /// External dataset: the object file, retained across queries.  `file`
    /// is `Some` until `Drop` takes it.  `strategy` is the external strategy
    /// and worker count every query over it runs with, decided once by
    /// [`MaxRsEngine::select_strategy`] when the dataset was built.
    External {
        ctx: CtxHandle<'a>,
        file: Option<TupleFile<ObjectRecord>>,
        strategy: (ExecutionStrategy, usize),
    },
}

/// A dataset stored once for repeated queries: every
/// [`run`](PreparedDataset::run) — any [`Query`] variant, any rectangle size
/// — reads the object file written at construction.
///
/// Created by [`MaxRsEngine::prepare`] (own context, configured by the
/// engine's [`EngineOptions::em_config`]) or
/// [`MaxRsEngine::prepare_file`] (files inside a caller-owned context).
/// Dropping the dataset deletes its retained file (RAII).
#[derive(Debug)]
pub struct PreparedDataset<'a> {
    opts: EngineOptions,
    source: Source<'a>,
    len: u64,
    prepare_io: IoSnapshot,
}

impl MaxRsEngine {
    /// Prepares a dataset for repeated queries: strategy selection plus —
    /// for datasets exceeding the memory budget — the one-time load into a
    /// fresh context with the engine's configuration.  The loaded file is
    /// the retained one; the reported preparation cost is the flush that
    /// makes it durable.
    ///
    /// See the [`PreparedDataset`] docs and the crate README's cookbook for
    /// when this pays off.
    ///
    /// ```
    /// use maxrs_core::{MaxRsEngine, Query};
    /// use maxrs_geometry::{RectSize, WeightedPoint};
    ///
    /// let cafes = vec![
    ///     WeightedPoint::unit(1.0, 1.0),
    ///     WeightedPoint::unit(1.4, 1.2),
    ///     WeightedPoint::unit(6.0, 6.0),
    /// ];
    /// let engine = MaxRsEngine::new();
    /// let prepared = engine.prepare(&cafes).unwrap();
    ///
    /// // Many queries, one preprocessing pass:
    /// let best = prepared.run(&Query::max_rs(RectSize::square(2.0))).unwrap();
    /// let top2 = prepared.run(&Query::top_k(RectSize::square(2.0), 2)).unwrap();
    /// assert_eq!(best.answer.best_weight(), 2.0);
    /// assert_eq!(top2.answer.placements().unwrap().len(), 2);
    ///
    /// // Identical answers to the stateless engine call:
    /// let single = engine.run(&cafes, &Query::max_rs(RectSize::square(2.0))).unwrap();
    /// assert_eq!(single.answer, best.answer);
    /// ```
    pub fn prepare(&self, objects: &[WeightedPoint]) -> Result<PreparedDataset<'static>> {
        let opts = *self.options();
        let strategy = self.select_strategy(objects.len() as u64, opts.em_config)?;
        if strategy.0 == ExecutionStrategy::InMemory {
            return Ok(PreparedDataset {
                opts,
                source: Source::Memory(objects.to_vec()),
                len: objects.len() as u64,
                prepare_io: IoSnapshot::default(),
            });
        }
        let ctx = Box::new(EmContext::new(opts.em_config));
        PreparedDataset::load_owned(opts, ctx, objects, strategy)
    }

    /// [`prepare`](MaxRsEngine::prepare) for an object file already stored in
    /// a caller-owned context: one scan copies it into a file of `ctx` that
    /// the returned dataset owns (the input file is left untouched) and
    /// deletes when it drops.
    ///
    /// The in-memory cutoff and worker cap come from `ctx`'s configuration,
    /// exactly as in [`run_file`](MaxRsEngine::run_file); for a dataset under
    /// the memory budget the preparation is one counted scan of the file.
    pub fn prepare_file<'a>(
        &self,
        ctx: &'a EmContext,
        objects: &TupleFile<ObjectRecord>,
    ) -> Result<PreparedDataset<'a>> {
        let opts = *self.options();
        let strategy = self.select_strategy(objects.len(), ctx.config())?;
        let before = ctx.stats();
        if strategy.0 == ExecutionStrategy::InMemory {
            let records = ctx.read_all(objects)?;
            let points: Vec<WeightedPoint> = records.iter().map(|r| r.0).collect();
            return Ok(PreparedDataset {
                opts,
                len: objects.len(),
                source: Source::Memory(points),
                prepare_io: ctx.stats().since(&before),
            });
        }
        let file = ctx.map_file(objects, |rec: ObjectRecord| rec)?;
        // As in `prepare`: the copy's dirty blocks are part of the one-time
        // cost, not of the first query that evicts them.  Only this file is
        // flushed — a shared context's unrelated cached state (and its
        // measurements) stays untouched.
        if let Err(e) = ctx.flush_file(&file) {
            let _ = ctx.delete_file(file);
            return Err(e.into());
        }
        Ok(PreparedDataset {
            opts,
            len: objects.len(),
            source: Source::External {
                ctx: CtxHandle::Borrowed(ctx),
                file: Some(file),
                strategy,
            },
            prepare_io: ctx.stats().since(&before),
        })
    }
}

impl PreparedDataset<'static> {
    /// Loads `objects` into `ctx`, which the dataset takes ownership of, and
    /// flushes the file — the external body of
    /// [`prepare`](MaxRsEngine::prepare) and of
    /// [`prepare_shard`](crate::prepare_shard), which builds the shards of
    /// `maxrs-cluster`'s servers.  Queries run with the external `strategy`
    /// and worker count the caller selected.  Loading is excluded from the
    /// reported preparation cost, exactly as single-shot runs exclude it from
    /// theirs; the file's dirty blocks belong to it, not to whichever query
    /// happens to evict them first.
    pub(crate) fn load_owned(
        opts: EngineOptions,
        ctx: Box<EmContext>,
        objects: &[WeightedPoint],
        strategy: (ExecutionStrategy, usize),
    ) -> Result<Self> {
        let file = load_objects(&ctx, objects)?;
        let before = ctx.stats();
        ctx.flush_file(&file)?;
        let prepare_io = ctx.stats().since(&before);
        Ok(PreparedDataset {
            opts,
            len: file.len(),
            source: Source::External {
                ctx: CtxHandle::Owned(ctx),
                file: Some(file),
                strategy,
            },
            prepare_io,
        })
    }
}

impl PreparedDataset<'_> {
    /// Number of objects in the prepared dataset.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the dataset holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The context and retained object file of an external dataset, or
    /// `None` for an in-memory one.  The shard servers of `maxrs-cluster`
    /// drive their per-shard passes through this instead of `run_planned`,
    /// so that one global sweep can span every shard's file
    /// ([`crate::shard`]).
    pub fn external_parts(&self) -> Option<(&EmContext, &TupleFile<ObjectRecord>)> {
        match &self.source {
            Source::Memory(_) => None,
            Source::External { ctx, file, .. } => {
                Some((ctx.get(), file.as_ref().expect("object file taken")))
            }
        }
    }

    /// `true` when queries run through the external-memory pipeline (an
    /// object file is retained); `false` when the dataset fits the memory
    /// budget and queries are answered in memory at zero I/O.
    pub fn is_external(&self) -> bool {
        matches!(self.source, Source::External { .. })
    }

    /// Blocks transferred by the one-time preparation: the flush of the
    /// loaded file ([`prepare`](MaxRsEngine::prepare)), the copy and its
    /// flush ([`prepare_file`](MaxRsEngine::prepare_file)), or the loading
    /// scan of `prepare_file` for in-memory datasets.  Zero for `prepare` of
    /// an in-memory dataset.
    pub fn prepare_io(&self) -> IoSnapshot {
        self.prepare_io
    }

    /// The short backend name of the context the dataset lives in ("sim",
    /// "fs"), or `None` for a purely in-memory dataset.
    pub fn backend_name(&self) -> Option<&'static str> {
        match &self.source {
            Source::Memory(_) => None,
            Source::External { ctx, .. } => Some(ctx.get().backend_name()),
        }
    }

    /// Estimated bytes this dataset keeps resident while it lives: the
    /// in-memory object vector, or the retained object file's blocks for an
    /// external dataset.  This is what a serving-layer cache (e.g.
    /// `maxrs-serve`'s `DatasetRegistry`) charges against its memory budget —
    /// an estimate of the *retained* footprint, not of the transient working
    /// memory a query borrows from the buffer pool.
    pub fn resident_bytes(&self) -> u64 {
        match &self.source {
            Source::Memory(objects) => {
                (objects.len() * std::mem::size_of::<WeightedPoint>()) as u64
            }
            Source::External { ctx, .. } => {
                let config = ctx.get().config();
                config.blocks_for::<ObjectRecord>(self.len) * config.block_size as u64
            }
        }
    }

    /// Answers any [`Query`] variant against the prepared data.
    ///
    /// External datasets pay the `O(N/B)` transform scan plus the
    /// distribution sweep.  The reported I/O is the delta across this query
    /// only.  Answers are bit-identical to single-shot [`MaxRsEngine::run`]
    /// calls with the same options.
    ///
    /// A single run is exactly a [`run_batch`](PreparedDataset::run_batch) of
    /// one query, so the per-query and batched paths can never diverge.
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        let mut runs = self.run_batch(std::slice::from_ref(query))?;
        Ok(runs.pop().expect("one run per query"))
    }

    /// Answers a whole batch of queries in shared sweep passes: queries are
    /// planned into sweep groups ([`QueryBatch`]) so each distinct
    /// transform/sweep runs once, and independent groups execute concurrently
    /// on the worker pool.
    ///
    /// Runs come back in query order with answers bit-identical to per-query
    /// [`run`](PreparedDataset::run) calls for any weights; each group's
    /// shared pass I/O is attributed to the group's first query, so the runs'
    /// I/O sums to the batch's true total (see [`crate::batch`], "I/O
    /// attribution").
    ///
    /// ```
    /// use maxrs_core::{MaxRsEngine, Query};
    /// use maxrs_geometry::{RectSize, WeightedPoint};
    ///
    /// let cafes = vec![
    ///     WeightedPoint::unit(1.0, 1.0),
    ///     WeightedPoint::unit(1.4, 1.2),
    ///     WeightedPoint::unit(6.0, 6.0),
    /// ];
    /// let prepared = MaxRsEngine::new().prepare(&cafes).unwrap();
    /// let size = RectSize::square(2.0);
    ///
    /// // One shared pass answers all three (same rectangle size):
    /// let runs = prepared
    ///     .run_batch(&[
    ///         Query::max_rs(size),
    ///         Query::top_k(size, 2),
    ///         Query::approx_max_crs(2.0),
    ///     ])
    ///     .unwrap();
    /// assert_eq!(runs.len(), 3);
    /// assert_eq!(runs[0].answer.best_weight(), 2.0);
    /// assert_eq!(runs[1].answer.placements().unwrap().len(), 2);
    /// ```
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        self.run_planned(&QueryBatch::new(queries)?)
    }

    /// [`run_batch`](PreparedDataset::run_batch) for a pre-planned
    /// [`QueryBatch`] — lets callers plan once and execute the same batch
    /// repeatedly (or inspect [`QueryBatch::num_groups`] before running).
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        match &self.source {
            Source::Memory(objects) => Ok(runs_in_memory(objects, batch)),
            Source::External {
                ctx,
                file,
                strategy,
            } => {
                let file = file.as_ref().expect("object file present until drop");
                run_batch_external(ctx.get(), file, batch, *strategy, &self.opts.exact)
            }
        }
    }
}

impl Drop for PreparedDataset<'_> {
    fn drop(&mut self) {
        if let Source::External { ctx, file, .. } = &mut self.source {
            if let Some(file) = file.take() {
                // Deleting can only fail if the file is already gone; either
                // way its blocks are no longer allocated.
                let _ = ctx.get().delete_file(file);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::exact::ExactMaxRsOptions;
    use maxrs_em::EmConfig;
    use maxrs_geometry::{Rect, RectSize};

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

    #[test]
    fn small_dataset_prepares_in_memory() {
        let engine = MaxRsEngine::new();
        let objects = pseudo_random_objects(50, 3, 100.0);
        let prepared = engine.prepare(&objects).unwrap();
        assert!(!prepared.is_external());
        assert_eq!(prepared.len(), 50);
        assert_eq!(prepared.prepare_io().total(), 0);
        assert_eq!(prepared.backend_name(), None);
        let run = prepared
            .run(&Query::max_rs(RectSize::square(10.0)))
            .unwrap();
        assert_eq!(run.strategy, ExecutionStrategy::InMemory);
        assert_eq!(run.io.total(), 0);
    }

    #[test]
    fn large_dataset_prepares_externally_and_answers_all_variants() {
        let engine = external_engine();
        let objects = pseudo_random_objects(800, 11, 1000.0);
        let prepared = engine.prepare(&objects).unwrap();
        assert!(prepared.is_external());
        assert!(prepared.prepare_io().total() > 0, "the flush does I/O");
        assert!(prepared.backend_name().is_some());

        let size = RectSize::square(80.0);
        let domain = Rect::new(100.0, 900.0, 100.0, 900.0);
        for query in [
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::min_rs(size, domain),
            Query::approx_max_crs(80.0),
        ] {
            let prepared_run = prepared.run(&query).unwrap();
            let single = engine.run(&objects, &query).unwrap();
            assert_eq!(
                prepared_run.answer,
                single.answer,
                "{}: prepared answer diverged from single-shot",
                query.name()
            );
            assert!(prepared_run.io.total() > 0, "{}", query.name());
            assert!(
                prepared_run.io.total() < single.io.total(),
                "{}: prepared run ({}) must beat cold run ({}) by the prepare",
                query.name(),
                prepared_run.io,
                single.io
            );
        }
    }

    #[test]
    fn repeated_runs_cost_the_same_io() {
        let engine = external_engine();
        let objects = pseudo_random_objects(600, 5, 500.0);
        let prepared = engine.prepare(&objects).unwrap();
        let q = Query::max_rs(RectSize::square(50.0));
        let first = prepared.run(&q).unwrap();
        let second = prepared.run(&q).unwrap();
        assert_eq!(first.answer, second.answer);
        assert!(first.io.total() > 0);
        // Buffer-pool warmth can only make later runs cheaper, never dearer.
        assert!(
            second.io.total() <= first.io.total(),
            "second run ({}) costlier than the first ({})",
            second.io,
            first.io
        );
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let engine = MaxRsEngine::new();
        let prepared = engine.prepare(&pseudo_random_objects(10, 7, 10.0)).unwrap();
        assert!(prepared
            .run(&Query::MaxRs {
                size: RectSize {
                    width: -1.0,
                    height: 1.0
                }
            })
            .is_err());
    }
}
