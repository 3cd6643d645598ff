//! [`MaxRsEngine`]: one entry point that picks the right MaxRS execution
//! strategy for the workload.
//!
//! The paper's algorithms form a natural ladder:
//!
//! * datasets whose transformed rectangles fit in the memory budget `M` are
//!   solved by the classic in-memory plane sweep (the recursion base case),
//! * larger datasets go through the external-memory distribution sweep
//!   ([`exact_max_rs`](crate::exact::exact_max_rs)), and
//! * when the machine has spare cores *and* the buffer is large enough for
//!   concurrent slab workers, the distribution sweep runs its parallel slab
//!   stage.
//!
//! Callers that do not want to reason about `N`, `M` and core counts construct
//! an engine and call [`MaxRsEngine::run`] (any [`Query`] variant) or
//! [`MaxRsEngine::solve`] (plain MaxRS); callers that do can inspect the
//! decision via [`MaxRsEngine::select_strategy`] or force one via
//! [`EngineOptions`].
//!
//! The same strategy ladder serves every query variant — top-k, MinRS and
//! ApproxMaxCRS all reduce to (rounds of) the rectangle distribution sweep,
//! so a variant query on a billion-object file runs the identical slab
//! pipeline and MergeSweep as plain MaxRS.  Because the external
//! pipeline reports canonical max-regions (see [`crate::sweep`]), every
//! strategy returns the *identical* answer, not merely one of equal weight.
//! Several queries against one dataset batch into shared sweep passes via
//! [`MaxRsEngine::run_batch`] (see [`crate::batch`]).

use maxrs_em::{EmConfig, EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::{RectSize, WeightedPoint};

use crate::approx::approx_max_crs_in_memory;
use crate::batch::QueryBatch;
use crate::error::{EngineError, Result};
use crate::exact::ExactMaxRsOptions;
use crate::extensions::{max_k_rs_in_memory, min_rs_in_memory};
use crate::plane_sweep::max_rs_in_memory;
use crate::query::{Query, QueryAnswer, QueryRun};
use crate::records::{ObjectRecord, RectRecord};
use crate::result::MaxRsResult;

/// How a MaxRS query was (or would be) executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionStrategy {
    /// Everything fits in the memory budget: one in-memory plane sweep.
    InMemory,
    /// External-memory distribution sweep on a single thread.
    ExternalSequential,
    /// External-memory distribution sweep with the parallel slab stage.
    ExternalParallel,
}

impl ExecutionStrategy {
    /// A short human-readable name ("in-memory", "em-sequential",
    /// "em-parallel").
    pub fn name(&self) -> &'static str {
        match self {
            ExecutionStrategy::InMemory => "in-memory",
            ExecutionStrategy::ExternalSequential => "em-sequential",
            ExecutionStrategy::ExternalParallel => "em-parallel",
        }
    }
}

/// Configuration of a [`MaxRsEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// The external-memory model (block size, buffer size) the engine
    /// simulates when a query does not fit in memory.
    pub em_config: EmConfig,
    /// Base options for external runs; the `parallelism` field inside doubles
    /// as the engine's worker cap (default: available cores).
    pub exact: ExactMaxRsOptions,
    /// Force a specific strategy instead of auto-selecting (useful for
    /// benchmarks and equivalence tests).
    ///
    /// Forcing [`ExecutionStrategy::ExternalParallel`] still respects the
    /// buffer-size worker cap: if the cap leaves a single worker, the run
    /// executes — and its [`EngineRun`] truthfully reports —
    /// [`ExecutionStrategy::ExternalSequential`].
    pub force_strategy: Option<ExecutionStrategy>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            em_config: EmConfig::paper_synthetic(),
            exact: ExactMaxRsOptions::default(),
            force_strategy: None,
        }
    }
}

/// The outcome of one engine query: the MaxRS answer plus how it was computed
/// and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineRun {
    /// The MaxRS answer.
    pub result: MaxRsResult,
    /// The strategy the engine selected (or was forced to use).
    pub strategy: ExecutionStrategy,
    /// Worker threads used by the solve (1 unless `strategy` is
    /// [`ExecutionStrategy::ExternalParallel`]).
    pub workers: usize,
    /// Blocks transferred while solving.  Zero for the in-memory strategy
    /// under [`MaxRsEngine::solve`]; under [`MaxRsEngine::solve_file`] the
    /// in-memory strategy counts the input file's scan.
    pub io: IoSnapshot,
}

/// A facade that answers MaxRS queries, auto-selecting between the in-memory
/// sweep, the sequential external distribution sweep and the parallel slab
/// stage from the dataset size `N`, the memory budget `M` and the core count.
///
/// ```
/// use maxrs_core::{ExecutionStrategy, MaxRsEngine};
/// use maxrs_geometry::{RectSize, WeightedPoint};
///
/// let engine = MaxRsEngine::new();
/// let stores = vec![
///     WeightedPoint::unit(1.0, 1.0),
///     WeightedPoint::unit(1.5, 1.2),
///     WeightedPoint::unit(9.0, 9.0),
/// ];
/// let run = engine.solve(&stores, RectSize::square(2.0)).unwrap();
/// assert_eq!(run.result.total_weight, 2.0);
/// // Three objects fit in any buffer: the engine picked the plane sweep.
/// assert_eq!(run.strategy, ExecutionStrategy::InMemory);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MaxRsEngine {
    opts: EngineOptions,
}

impl MaxRsEngine {
    /// An engine with the paper's default EM configuration and all cores
    /// available to the parallel slab stage.
    pub fn new() -> Self {
        MaxRsEngine::default()
    }

    /// An engine with explicit options.
    pub fn with_options(opts: EngineOptions) -> Self {
        MaxRsEngine { opts }
    }

    /// An engine with the given EM configuration and defaults otherwise.
    pub fn with_em_config(em_config: EmConfig) -> Self {
        MaxRsEngine {
            opts: EngineOptions {
                em_config,
                ..Default::default()
            },
        }
    }

    /// The engine's configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Picks the execution strategy for a dataset of `n` objects and returns
    /// it together with the worker count an external run would use.
    ///
    /// * `n` rectangles fit in the buffer (`n <= M/sizeof(RectRecord)`, with
    ///   [`ExactMaxRsOptions::memory_rects`] honored as an override) →
    ///   [`ExecutionStrategy::InMemory`];
    /// * otherwise, if more than one worker survives the buffer-size cap
    ///   (see [`ExactMaxRsOptions::effective_parallelism`]) →
    ///   [`ExecutionStrategy::ExternalParallel`];
    /// * otherwise → [`ExecutionStrategy::ExternalSequential`].
    ///
    /// The core count enters through the default of
    /// [`ExactMaxRsOptions::parallelism`] (see
    /// [`available_parallelism`](crate::parallel::available_parallelism));
    /// an explicit `parallelism` override is honored as-is, so callers can
    /// oversubscribe a core-limited machine deliberately.
    ///
    /// This prediction uses the engine's own [`EngineOptions::em_config`] and
    /// therefore describes [`solve`](MaxRsEngine::solve);
    /// [`solve_file`](MaxRsEngine::solve_file) derives the same decision from
    /// the *passed context's* configuration instead.
    pub fn select_strategy(&self, n: u64) -> (ExecutionStrategy, usize) {
        self.select_for(n, self.opts.em_config)
    }

    /// Strategy selection against an explicit EM configuration (the engine's
    /// own for [`solve`](MaxRsEngine::solve), the target context's for
    /// [`solve_file`](MaxRsEngine::solve_file)).
    pub(crate) fn select_for(&self, n: u64, config: EmConfig) -> (ExecutionStrategy, usize) {
        let workers = self.opts.exact.effective_parallelism(config);
        if let Some(forced) = self.opts.force_strategy {
            return match forced {
                // A forced parallel run still respects the buffer-size worker
                // cap; report the strategy that would actually execute so
                // this prediction always matches the produced `EngineRun`.
                ExecutionStrategy::ExternalParallel if workers > 1 => (forced, workers),
                ExecutionStrategy::ExternalParallel => (ExecutionStrategy::ExternalSequential, 1),
                _ => (forced, 1),
            };
        }
        let mem_rects = self
            .opts
            .exact
            .memory_rects
            .unwrap_or_else(|| config.mem_records::<RectRecord>()) as u64;
        if n <= mem_rects {
            (ExecutionStrategy::InMemory, 1)
        } else if workers > 1 {
            (ExecutionStrategy::ExternalParallel, workers)
        } else {
            (ExecutionStrategy::ExternalSequential, 1)
        }
    }

    /// Rejects an *auto-selected* in-memory run whose dataset does not fit
    /// the EM configuration's real budget — possible only when
    /// [`ExactMaxRsOptions::memory_rects`] promises more rectangles than
    /// `config` provides.  Honoring that promise would silently violate the
    /// I/O model the engine reports against, so `run`/`run_file` (and the
    /// prepare paths) surface [`EngineError::InMemoryOverCapacity`] instead.
    /// An explicit [`EngineOptions::force_strategy`] of
    /// [`ExecutionStrategy::InMemory`] bypasses the check: forcing is the
    /// documented escape hatch for equivalence tests.
    pub(crate) fn guard_in_memory_capacity(&self, n: u64, config: EmConfig) -> Result<()> {
        if self.opts.force_strategy.is_some() {
            return Ok(());
        }
        let capacity = config.mem_records::<RectRecord>() as u64;
        if n > capacity {
            return Err(EngineError::InMemoryOverCapacity {
                objects: n,
                capacity,
            }
            .into());
        }
        Ok(())
    }

    /// Answers any [`Query`] variant over an in-memory object slice,
    /// auto-selecting the execution strategy exactly like
    /// [`solve`](MaxRsEngine::solve).
    ///
    /// External strategies run against a fresh [`EmContext`] with the engine's
    /// configuration; the reported I/O covers the query only (loading the
    /// objects into the context is excluded, as in the paper's measurements).
    /// All strategies return the identical answer on the same data (canonical
    /// max-regions, see [`crate::exact`]).  The two external strategies run
    /// the same MergeSweep and agree bit for bit for any weights; the
    /// in-memory sweep adds arbitrary float weights in a different order, so
    /// there only integer-valued weights are guaranteed to match exactly.
    ///
    /// # Query cookbook
    ///
    /// ```
    /// use maxrs_core::{MaxRsEngine, Query};
    /// use maxrs_geometry::{Rect, RectSize, WeightedPoint};
    ///
    /// // Six cafés: a pair, a triple and a loner.
    /// let cafes = vec![
    ///     WeightedPoint::unit(1.0, 1.0),
    ///     WeightedPoint::unit(1.4, 1.2),
    ///     WeightedPoint::unit(6.0, 6.0),
    ///     WeightedPoint::unit(6.3, 6.2),
    ///     WeightedPoint::unit(6.1, 6.4),
    ///     WeightedPoint::unit(20.0, 20.0),
    /// ];
    /// let engine = MaxRsEngine::new();
    ///
    /// // MaxRS: the best single 2 × 2 placement covers the triple.
    /// let run = engine.run(&cafes, &Query::max_rs(RectSize::square(2.0))).unwrap();
    /// assert_eq!(run.answer.best_weight(), 3.0);
    ///
    /// // Top-k: the three best non-overlapping placements, best first.
    /// let run = engine.run(&cafes, &Query::top_k(RectSize::square(2.0), 3)).unwrap();
    /// let weights: Vec<f64> = run.answer.placements().unwrap()
    ///     .iter().map(|r| r.total_weight).collect();
    /// assert_eq!(weights, vec![3.0, 2.0, 1.0]);
    ///
    /// // MinRS: the quietest admissible center inside the downtown square.
    /// let downtown = Rect::new(0.0, 10.0, 0.0, 10.0);
    /// let run = engine.run(&cafes, &Query::min_rs(RectSize::square(2.0), downtown)).unwrap();
    /// assert_eq!(run.answer.best_weight(), 0.0);
    ///
    /// // ApproxMaxCRS: a circular service area of diameter 2.
    /// let run = engine.run(&cafes, &Query::approx_max_crs(2.0)).unwrap();
    /// assert_eq!(run.answer.as_max_crs().unwrap().total_weight, 3.0);
    /// ```
    pub fn run(&self, objects: &[WeightedPoint], query: &Query) -> Result<QueryRun> {
        query.validate()?;
        let (strategy, _) = self.select_strategy(objects.len() as u64);
        if strategy == ExecutionStrategy::InMemory {
            self.guard_in_memory_capacity(objects.len() as u64, self.opts.em_config)?;
            // Answer directly from the borrowed slice: building a throwaway
            // prepared dataset here would copy the whole dataset per query
            // for no benefit.
            return Ok(QueryRun {
                answer: answer_in_memory(objects, query),
                strategy,
                workers: 1,
                io: IoSnapshot::default(),
            });
        }
        // External single-shot queries route through the prepared-dataset
        // machinery: `prepare` pays the one-time x-sort, the prepared run
        // answers the query over the sorted file.  The reported I/O is the
        // sum of both phases (loading the objects stays excluded, as in the
        // paper's measurements), and answers are bit-identical to a
        // repeated-query [`PreparedDataset`] by construction.
        let prepared = self.prepare(objects)?;
        let run = prepared.run(query)?;
        Ok(QueryRun {
            io: run.io + prepared.prepare_io(),
            ..run
        })
    }

    /// Answers any [`Query`] variant over an object file already stored in
    /// `ctx`.
    ///
    /// Unlike [`run`](MaxRsEngine::run), the in-memory strategy here still
    /// reads the file (and counts that scan's I/O); the reported I/O is the
    /// delta of `ctx`'s counters across the call.
    pub fn run_file(
        &self,
        ctx: &EmContext,
        objects: &TupleFile<ObjectRecord>,
        query: &Query,
    ) -> Result<QueryRun> {
        query.validate()?;
        // Routed through the prepared-dataset machinery: `prepare_file` pays
        // the one-time scan (in-memory strategy) or x-sort (external
        // strategies) inside `ctx`, the prepared run answers the query, and
        // dropping the prepared dataset removes its sorted file again.  The
        // reported I/O is the delta of `ctx`'s counters across the whole
        // call, preserving the previous single-shot semantics.
        let before = ctx.stats();
        let prepared = self.prepare_file(ctx, objects)?;
        let run = prepared.run(query)?;
        Ok(QueryRun {
            io: ctx.stats().since(&before),
            ..run
        })
    }

    /// Answers a whole batch of queries over one dataset in shared sweep
    /// passes: the batched sibling of [`run`](MaxRsEngine::run).
    ///
    /// Queries are planned into sweep groups ([`QueryBatch`]) so each
    /// distinct transform/sweep runs once — MaxRS, top-k and ApproxMaxCRS of
    /// one rectangle size share a single kernel pass, MinRS queries sharing a
    /// domain x-slab share a negated one — and independent groups execute
    /// concurrently on the worker pool.  Answers are bit-identical to
    /// per-query [`run`](MaxRsEngine::run) calls on the same data for any
    /// weights (both go through a
    /// [`PreparedDataset`](crate::PreparedDataset)); runs come back in query
    /// order.  The one-time preparation I/O (the external x-sort) and each
    /// group's shared pass are attributed to the first query they serve, so
    /// the runs' I/O sums to the true total (see [`crate::batch`], "I/O
    /// attribution").
    pub fn run_batch(&self, objects: &[WeightedPoint], queries: &[Query]) -> Result<Vec<QueryRun>> {
        let batch = QueryBatch::new(queries)?;
        if batch.is_empty() {
            // Nothing to answer: don't pay the preparation sort for no one.
            return Ok(Vec::new());
        }
        let (strategy, _) = self.select_strategy(objects.len() as u64);
        if strategy == ExecutionStrategy::InMemory {
            self.guard_in_memory_capacity(objects.len() as u64, self.opts.em_config)?;
            return Ok(runs_in_memory(objects, &batch));
        }
        let prepared = self.prepare(objects)?;
        let mut runs = prepared.run_planned(&batch)?;
        if let Some(first) = runs.first_mut() {
            first.io = first.io + prepared.prepare_io();
        }
        Ok(runs)
    }

    /// Solves a MaxRS query over an in-memory object slice: shorthand for
    /// [`run`](MaxRsEngine::run) with [`Query::MaxRs`].
    ///
    /// External strategies run against a fresh [`EmContext`] with the engine's
    /// configuration; the reported I/O covers the solve only (loading the
    /// objects into the context is excluded, as in the paper's measurements).
    pub fn solve(&self, objects: &[WeightedPoint], size: RectSize) -> Result<EngineRun> {
        self.run(objects, &Query::MaxRs { size }).map(engine_run_of)
    }

    /// Solves a MaxRS query over an object file already stored in `ctx`:
    /// shorthand for [`run_file`](MaxRsEngine::run_file) with
    /// [`Query::MaxRs`].
    ///
    /// Unlike [`solve`](MaxRsEngine::solve), the in-memory strategy here still
    /// reads the file (and counts that scan's I/O); the reported I/O is the
    /// delta of `ctx`'s counters across the call.
    pub fn solve_file(
        &self,
        ctx: &EmContext,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
    ) -> Result<EngineRun> {
        self.run_file(ctx, objects, &Query::MaxRs { size })
            .map(engine_run_of)
    }
}

/// Converts a MaxRS-variant [`QueryRun`] into the narrower [`EngineRun`].
fn engine_run_of(run: QueryRun) -> EngineRun {
    match run.answer {
        QueryAnswer::MaxRs(result) => EngineRun {
            result,
            strategy: run.strategy,
            workers: run.workers,
            io: run.io,
        },
        _ => unreachable!("solve paths only issue MaxRs queries"),
    }
}

/// Answers every query of a planned batch with the in-memory reference
/// algorithms, at zero I/O.
pub(crate) fn runs_in_memory(objects: &[WeightedPoint], batch: &QueryBatch) -> Vec<QueryRun> {
    batch
        .queries()
        .iter()
        .map(|query| QueryRun {
            answer: answer_in_memory(objects, query),
            strategy: ExecutionStrategy::InMemory,
            workers: 1,
            io: IoSnapshot::default(),
        })
        .collect()
}

/// Answers a (validated) query with the in-memory reference algorithms.
pub(crate) fn answer_in_memory(objects: &[WeightedPoint], query: &Query) -> QueryAnswer {
    match *query {
        Query::MaxRs { size } => QueryAnswer::MaxRs(max_rs_in_memory(objects, size)),
        Query::TopK { size, k } => QueryAnswer::TopK(max_k_rs_in_memory(objects, size, k)),
        Query::MinRs { size, domain } => {
            QueryAnswer::MinRs(min_rs_in_memory(objects, size, domain))
        }
        Query::ApproxMaxCrs { diameter, .. } => QueryAnswer::MaxCrs(approx_max_crs_in_memory(
            objects,
            diameter,
            query.sigma_fraction().expect("approx variant has a sigma"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::load_objects;
    use crate::reference::rect_objective;
    use maxrs_geometry::Rect;

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

    #[test]
    fn small_dataset_selects_in_memory() {
        let engine = MaxRsEngine::new();
        let (strategy, _) = engine.select_strategy(100);
        assert_eq!(strategy, ExecutionStrategy::InMemory);
    }

    #[test]
    fn large_dataset_selects_an_external_strategy() {
        let engine = MaxRsEngine::new();
        let mem_rects = engine.options().em_config.mem_records::<RectRecord>() as u64;
        let (strategy, workers) = engine.select_strategy(mem_rects + 1);
        assert_ne!(
            strategy,
            ExecutionStrategy::InMemory,
            "dataset larger than M must go external"
        );
        match strategy {
            ExecutionStrategy::ExternalParallel => assert!(workers > 1),
            ExecutionStrategy::ExternalSequential => assert_eq!(workers, 1),
            ExecutionStrategy::InMemory => unreachable!(),
        }
    }

    #[test]
    fn oversized_in_memory_selection_is_a_checked_error() {
        use crate::error::{CoreError, EngineError};
        use crate::exact::load_objects;

        // A `memory_rects` override promising more rectangles than the EM
        // configuration fits: auto-selection would answer in memory in
        // violation of the I/O model, so run/run_file refuse with the typed
        // engine error instead of a panic (or a silent model violation).
        let em_config = EmConfig::new(512, 16 * 512).unwrap();
        let engine = MaxRsEngine::with_options(EngineOptions {
            em_config,
            exact: ExactMaxRsOptions {
                memory_rects: Some(usize::MAX),
                ..Default::default()
            },
            force_strategy: None,
        });
        let objects = pseudo_random_objects(2000, 9, 1000.0);
        let query = Query::max_rs(RectSize::square(10.0));

        let err = engine.run(&objects, &query).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Engine(EngineError::InMemoryOverCapacity { objects: 2000, .. })
            ),
            "{err:?}"
        );

        let ctx = EmContext::new(em_config);
        let file = load_objects(&ctx, &objects).unwrap();
        let err = engine.run_file(&ctx, &file, &query).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Engine(EngineError::InMemoryOverCapacity { .. })
            ),
            "{err:?}"
        );
        ctx.delete_file(file).unwrap();

        // Forcing the in-memory strategy stays the explicit escape hatch.
        let forced = MaxRsEngine::with_options(EngineOptions {
            em_config,
            exact: ExactMaxRsOptions {
                memory_rects: Some(usize::MAX),
                ..Default::default()
            },
            force_strategy: Some(ExecutionStrategy::InMemory),
        });
        assert!(forced.run(&objects, &query).is_ok());
    }

    #[test]
    fn forced_strategy_is_respected() {
        let opts = EngineOptions {
            force_strategy: Some(ExecutionStrategy::ExternalSequential),
            ..Default::default()
        };
        let engine = MaxRsEngine::with_options(opts);
        assert_eq!(
            engine.select_strategy(3).0,
            ExecutionStrategy::ExternalSequential
        );
    }

    #[test]
    fn forced_parallel_under_a_tiny_buffer_reports_sequential() {
        // 8 pool blocks -> worker quota 1: the forced parallel request cannot
        // be honored, and the run must say what actually executed.
        let engine = MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 8 * 512).unwrap(),
            exact: ExactMaxRsOptions {
                parallelism: 4,
                ..Default::default()
            },
            force_strategy: Some(ExecutionStrategy::ExternalParallel),
        });
        let objects = pseudo_random_objects(400, 3, 1000.0);
        let run = engine.solve(&objects, RectSize::square(80.0)).unwrap();
        assert_eq!(run.strategy, ExecutionStrategy::ExternalSequential);
        assert_eq!(run.workers, 1);
    }

    #[test]
    fn all_strategies_agree_on_the_answer() {
        let objects = pseudo_random_objects(600, 21, 2000.0);
        let size = RectSize::square(180.0);
        // A small buffer so 600 objects genuinely exceed M.
        let em_config = EmConfig::new(512, 64 * 512).unwrap();
        let reference = max_rs_in_memory(&objects, size);

        let mut runs = Vec::new();
        for forced in [
            Some(ExecutionStrategy::InMemory),
            Some(ExecutionStrategy::ExternalSequential),
            Some(ExecutionStrategy::ExternalParallel),
            None,
        ] {
            let engine = MaxRsEngine::with_options(EngineOptions {
                em_config,
                exact: ExactMaxRsOptions {
                    memory_rects: Some(64),
                    parallelism: 4,
                    ..Default::default()
                },
                force_strategy: forced,
            });
            let run = engine.solve(&objects, size).unwrap();
            assert_eq!(
                run.result.total_weight, reference.total_weight,
                "{forced:?}"
            );
            assert_eq!(
                rect_objective(&objects, run.result.center, size),
                run.result.total_weight,
                "{forced:?}"
            );
            runs.push(run);
        }
        // The auto-selected run must have gone external (600 > M/rect).
        assert_ne!(runs[3].strategy, ExecutionStrategy::InMemory);
        // External strategies do I/O, the in-memory one does not.
        assert_eq!(runs[0].io.total(), 0);
        assert!(runs[1].io.total() > 0);
    }

    #[test]
    fn solve_file_reports_io_delta() {
        let objects = pseudo_random_objects(500, 5, 1000.0);
        let em_config = EmConfig::new(512, 16 * 512).unwrap();
        let engine = MaxRsEngine::with_em_config(em_config);
        let ctx = EmContext::new(em_config);
        let file = load_objects(&ctx, &objects).unwrap();
        let run = engine
            .solve_file(&ctx, &file, RectSize::square(100.0))
            .unwrap();
        assert!(run.io.total() > 0);
        assert_eq!(
            rect_objective(&objects, run.result.center, RectSize::square(100.0)),
            run.result.total_weight
        );
        ctx.delete_file(file).unwrap();
    }

    #[test]
    fn empty_dataset() {
        let engine = MaxRsEngine::new();
        let run = engine.solve(&[], RectSize::square(10.0)).unwrap();
        assert_eq!(run.result.total_weight, 0.0);
        assert_eq!(run.strategy, ExecutionStrategy::InMemory);
    }

    #[test]
    fn invalid_queries_are_rejected_not_panicked() {
        let engine = MaxRsEngine::new();
        let objects = pseudo_random_objects(10, 3, 100.0);
        for query in [
            Query::MaxRs {
                size: RectSize {
                    width: -1.0,
                    height: 2.0,
                },
            },
            Query::ApproxMaxCrs {
                diameter: 0.0,
                epsilon: 0.5,
            },
            Query::ApproxMaxCrs {
                diameter: 5.0,
                epsilon: 1.0,
            },
            // Inverted domain: must come back as an error, not a clamp panic.
            Query::MinRs {
                size: RectSize::square(1.0),
                domain: Rect {
                    x_lo: 5.0,
                    x_hi: 1.0,
                    y_lo: 0.0,
                    y_hi: 1.0,
                },
            },
        ] {
            assert!(engine.run(&objects, &query).is_err(), "{query:?}");
        }
    }

    #[test]
    fn external_min_rs_matches_in_memory_on_degenerate_domains() {
        use crate::extensions::min_rs_in_memory;
        let objects = pseudo_random_objects(400, 9, 100.0);
        let size = RectSize::square(10.0);
        let engine = MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 16 * 512).unwrap(),
            exact: ExactMaxRsOptions {
                memory_rects: Some(64),
                ..Default::default()
            },
            force_strategy: Some(ExecutionStrategy::ExternalSequential),
        });
        for domain in [
            Rect::new(50.0, 50.0, 50.0, 50.0), // point
            Rect::new(50.0, 50.0, 0.0, 100.0), // vertical segment
            Rect::new(0.0, 100.0, 50.0, 50.0), // horizontal segment
        ] {
            let run = engine.run(&objects, &Query::min_rs(size, domain)).unwrap();
            let want = min_rs_in_memory(&objects, size, domain);
            assert_eq!(run.answer.as_max_rs().unwrap(), &want, "{domain:?}");
        }
    }
}
