//! The query driver: answer a batch of [`Query`]s over any dataset in
//! shared sweep passes.
//!
//! A serving workload rarely asks one question of a dataset — it asks many:
//! MaxRS at a few rectangle sizes, top-k follow-ups, a MinRS sanity check, a
//! circular variant.  Per-query execution pays one full distribution sweep
//! per question even though queries of the *same* rectangle size share their
//! transform, their slab recursion and their winning strip.  [`QueryBatch`]
//! plans a slice of [`Query`]s into **sweep groups** — queries whose answers
//! fall out of one sweep pass — and the driver runs each group's pass once:
//!
//! * [`Query::MaxRs`], [`Query::TopK`] and [`Query::ApproxMaxCrs`] of one
//!   rectangle size (a circle's MBR is the `d × d` square) share one
//!   positive-weight pass: MaxRS answers *are* the pass's canonical best,
//!   top-k takes it as its first round (later suppression rounds are
//!   shared up to the largest requested `k`), and ApproxMaxCRS refines the
//!   shared centroid with its own 5-candidate sums.
//! * [`Query::MinRs`] queries sharing a size and a domain x-slab share one
//!   weight-negated pass; each member streams its own domain-clipped strip
//!   scan over the shared slab-file.
//!
//! # One driver, many hosts
//!
//! The driver asks a dataset for a handful of operations only, the
//! [`SweepHost`] trait: one sweep pass (size, weight scale, root slab and the
//! suppressed rectangles of earlier top-k rounds in, merged root slab-file
//! out), the next arrangement breakpoint for canonicalization, the
//! ApproxMaxCRS candidate sums, the objects themselves and an I/O meter.
//! Top-k suppression is a scan predicate — every scan of a round leaves out
//! the objects strictly inside an already chosen rectangle — so no host
//! materializes per-round copies of its data.  A single x-sorted object
//! file ([`PreparedDataset`](crate::PreparedDataset),
//! [`DeltaDataset`](crate::DeltaDataset)), the local
//! [`ShardedDataset`](crate::ShardedDataset) and the remote shards behind
//! `maxrs-cluster`'s coordinator all implement it, and [`run_on_host`]
//! answers every variant on each of them with the same code, so the paths
//! cannot drift apart.
//!
//! On a single file, independent groups execute concurrently on the
//! [`parallel_map`](crate::parallel::parallel_map()) worker pool; the sharded
//! [`IoStats`](maxrs_em::IoStats) keep the global count exact, and
//! [`measure_thread_io`](maxrs_em::measure_thread_io()) attributes each group's
//! transfers to its queries.  Answers are **bit-identical** to per-query
//! [`PreparedDataset::run`](crate::PreparedDataset::run) calls — in fact the
//! per-query path *is* a batch of one.  One caveat carries over from strategy
//! selection: when several groups run concurrently, each group's sweep
//! combines its slabs with the flat sequential MergeSweep instead of the
//! parallel pairwise tree a lone query would use, which for
//! **integer-valued weights** is exactly identical and for arbitrary floats
//! shares the last-bit association caveat of
//! [`merge_sweep_tree`](crate::merge_sweep::merge_sweep_tree()) — the same
//! caveat that already applies between execution strategies.
//!
//! # I/O attribution
//!
//! Each [`QueryRun::io`] reports the query's marginal cost (its exclusive
//! scans and rounds); a group's shared pass is charged to the group's first
//! query in batch order, the shared top-k rounds to its first top-k query.
//! Summing the runs therefore reproduces the batch's exact total — nothing
//! is double-counted and nothing is dropped.

use std::collections::HashMap;

use maxrs_em::{measure_thread_io, EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::{range_sum_rect, Interval, Point, Rect, RectSize, WeightedPoint};

use crate::approx::{best_candidate, candidate_points, evaluate_candidates};
use crate::engine::ExecutionStrategy;
use crate::error::{CoreError, Result};
use crate::exact::ExactMaxRsOptions;
use crate::extensions::{min_rs_in_memory, min_strip_scan, MinStrip};
use crate::parallel::parallel_map;
use crate::query::{Query, QueryAnswer, QueryRun};
use crate::records::{ObjectRecord, SlabTuple};
use crate::result::{MaxCrsResult, MaxRsResult};
use crate::sweep::{extract_best, next_breakpoint_after, SweepPass};

/// A validated slice of queries planned into shared sweep groups.
///
/// Construction validates every query (the batch analogue of
/// [`Query::validate`]) and groups them by *sweep key*: the transform size
/// plus, for MinRS, the weight negation and the domain x-slab.  The executor
/// then pays one kernel pass per group instead of one per query.
///
/// ```
/// use maxrs_core::{Query, QueryBatch};
/// use maxrs_geometry::{Rect, RectSize};
///
/// let size = RectSize::square(10.0);
/// let batch = QueryBatch::new(&[
///     Query::max_rs(size),
///     Query::top_k(size, 3),
///     Query::approx_max_crs(10.0),              // MBR = the same 10 x 10 square
///     Query::min_rs(size, Rect::new(0.0, 50.0, 0.0, 50.0)),
/// ])
/// .unwrap();
/// // Three variants share one sweep; MinRS needs its own negated pass.
/// assert_eq!(batch.len(), 4);
/// assert_eq!(batch.num_groups(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBatch {
    queries: Vec<Query>,
    groups: Vec<SweepGroup>,
}

/// One shared pass and the batch positions it answers.
#[derive(Debug, Clone)]
struct SweepGroup {
    kind: GroupKind,
    /// Indices into the batch's query list, in batch order.
    members: Vec<usize>,
}

#[derive(Debug, Clone)]
enum GroupKind {
    /// Positive-weight pass over the unbounded root: MaxRS, top-k and
    /// ApproxMaxCRS of one rectangle size.
    Shared { size: RectSize },
    /// Weight-negated pass over a domain x-slab: MinRS queries sharing a
    /// size and an x-slab (their y-domains may differ).
    MinRs { size: RectSize, slab: Interval },
    /// A degenerate-domain MinRS (point or segment of admissible centers),
    /// answered by the in-memory delegate; always a singleton group.
    DegenerateMinRs,
}

/// Hashable sweep key (f64 bit patterns; validation has rejected NaN).
type SweepKey = (u8, u64, u64, u64, u64);

impl QueryBatch {
    /// Validates every query and plans the batch into sweep groups.
    ///
    /// Returns the first query's validation error, if any; an empty slice is
    /// a valid (empty) batch.
    pub fn new(queries: &[Query]) -> Result<Self> {
        let mut groups: Vec<SweepGroup> = Vec::new();
        let mut by_key: HashMap<SweepKey, usize> = HashMap::new();
        for (i, query) in queries.iter().enumerate() {
            query.validate()?;
            let (size, root) = query.first_pass();
            let (kind, tag) = match *query {
                Query::MinRs { domain, .. }
                    if domain.x_lo == domain.x_hi || domain.y_lo == domain.y_hi =>
                {
                    (GroupKind::DegenerateMinRs, None)
                }
                Query::MinRs { .. } => (GroupKind::MinRs { size, slab: root }, Some(1u8)),
                _ => (GroupKind::Shared { size }, Some(0u8)),
            };
            let key = tag.map(|t| {
                let (w, h) = (size.width.to_bits(), size.height.to_bits());
                (t, w, h, root.lo.to_bits(), root.hi.to_bits())
            });
            match key.and_then(|k| by_key.get(&k).copied()) {
                Some(g) => groups[g].members.push(i),
                None => {
                    if let Some(k) = key {
                        by_key.insert(k, groups.len());
                    }
                    groups.push(SweepGroup {
                        kind,
                        members: vec![i],
                    });
                }
            }
        }
        Ok(QueryBatch {
            queries: queries.to_vec(),
            groups,
        })
    }

    /// The queries of the batch, in input order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of sweep groups — the number of kernel passes the executor will
    /// pay.  `num_groups() < len()` is the amortization a batch exists for.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// Where the driver runs a batch's sweep passes: the operations every query
/// variant reduces to, whatever the dataset's layout (see the
/// [module docs](crate::batch)).
///
/// Implemented for a single x-sorted object file (the prepared and delta
/// datasets), for [`ShardedDataset`](crate::ShardedDataset) and for
/// `maxrs-cluster`'s coordinator; [`run_on_host`] drives any of them.
pub trait SweepHost {
    /// The host's error type; core errors convert into it, host-specific
    /// ones (say, an unavailable server) pass through the driver unchanged.
    type Error: From<CoreError>;

    /// `true` when the host holds no objects: every query then has its
    /// trivial answer at zero I/O.
    fn is_empty(&self) -> bool;

    /// The context the slab-files returned by [`sweep`](SweepHost::sweep)
    /// live on.
    fn scratch(&self) -> &EmContext;

    /// One sweep pass: the merged, y-sorted slab-file of `root` over every
    /// object's `size` rectangle with its weight multiplied by
    /// `weight_scale`, leaving out the objects strictly inside one of
    /// `suppressed`.  The caller deletes the file.
    fn sweep(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
    ) -> std::result::Result<TupleFile<SlabTuple>, Self::Error>;

    /// The smallest arrangement breakpoint strictly greater than `x` over the
    /// same objects (see [`next_breakpoint_after`]).
    fn next_breakpoint(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
        x: f64,
    ) -> std::result::Result<f64, Self::Error>;

    /// The weight sums of the open disks of `diameter` centered at
    /// `candidates`, accumulated in object x order — ApproxMaxCRS
    /// refinement.
    fn candidate_sums(
        &self,
        candidates: &[Point],
        diameter: f64,
    ) -> std::result::Result<Vec<f64>, Self::Error>;

    /// Every object, in x order.
    fn objects(&self) -> std::result::Result<Vec<WeightedPoint>, Self::Error>;

    /// Blocks moved on the host so far; the driver meters each phase as a
    /// difference of two readings.
    fn io(&self) -> IoSnapshot;
}

/// The host over one x-sorted object file swept by a [`SweepPass`]: what
/// [`PreparedDataset`](crate::PreparedDataset) and
/// [`DeltaDataset`](crate::DeltaDataset) run on, and what
/// [`SweepPass::max_rs`] runs on for a single query.
pub(crate) struct FileHost<'a> {
    pass: SweepPass<'a>,
    objects: &'a TupleFile<ObjectRecord>,
}

impl<'a> FileHost<'a> {
    pub(crate) fn new(pass: SweepPass<'a>, objects: &'a TupleFile<ObjectRecord>) -> Self {
        FileHost { pass, objects }
    }
}

impl SweepHost for FileHost<'_> {
    type Error = CoreError;

    fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    fn scratch(&self) -> &EmContext {
        self.pass.ctx()
    }

    fn sweep(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
    ) -> Result<TupleFile<SlabTuple>> {
        self.pass
            .with_weight_scale(weight_scale)
            .with_root(root)
            .with_suppressed(suppressed)
            .slab_file(self.objects, size)
    }

    fn next_breakpoint(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
        x: f64,
    ) -> Result<f64> {
        next_breakpoint_after(self.pass.ctx(), self.objects, size, root, suppressed, x)
    }

    fn candidate_sums(&self, candidates: &[Point], diameter: f64) -> Result<Vec<f64>> {
        evaluate_candidates(self.pass.ctx(), self.objects, candidates, diameter)
    }

    fn objects(&self) -> Result<Vec<WeightedPoint>> {
        let records = self.pass.ctx().read_all(self.objects)?;
        Ok(records.iter().map(|r| r.0).collect())
    }

    fn io(&self) -> IoSnapshot {
        self.pass.ctx().stats()
    }
}

/// Answers a planned batch on `host`, group after group, each phase metered
/// through [`SweepHost::io`] and attributed as the module docs describe.
/// `strategy` and `workers` are reported on every run.
pub fn run_on_host<H: SweepHost>(
    host: &H,
    batch: &QueryBatch,
    strategy: ExecutionStrategy,
    workers: usize,
) -> std::result::Result<Vec<QueryRun>, H::Error> {
    let outcomes = batch
        .groups
        .iter()
        .map(|group| run_group(host, group, &batch.queries, Meter::Host));
    collect_runs(batch, outcomes, strategy, workers)
}

/// Executes a planned batch over an object file **already sorted by x** (the
/// retained file of a [`PreparedDataset`](crate::PreparedDataset)): one
/// kernel pass per sweep group, groups concurrent on the `parallel_map` pool
/// when more than one group and more than one worker exist.  Reports I/O per
/// query under the leader-attribution rule (module docs).
pub(crate) fn run_batch_external(
    ctx: &EmContext,
    sorted: &TupleFile<ObjectRecord>,
    batch: &QueryBatch,
    strategy: ExecutionStrategy,
    workers: usize,
    base: &ExactMaxRsOptions,
) -> Result<Vec<QueryRun>> {
    let exact_opts = ExactMaxRsOptions {
        parallelism: if strategy == ExecutionStrategy::ExternalParallel {
            workers
        } else {
            1
        },
        ..*base
    };
    // Report the batch-level execution: even a forced ExternalParallel
    // degrades to sequential when the buffer-size cap leaves one worker (see
    // `ExactMaxRsOptions::effective_parallelism`), and the runs must say so
    // rather than echo the request.  With several groups, `actual_workers`
    // is the pool the *groups* ran on — each group's inner sweep is then
    // sequential (see below), and every run of the batch reports the shared
    // batch-level strategy/worker count, not its group's inner sweep shape.
    let actual_workers = exact_opts.effective_parallelism(ctx.config());
    let actual_strategy = if actual_workers > 1 {
        ExecutionStrategy::ExternalParallel
    } else {
        ExecutionStrategy::ExternalSequential
    };

    // With several groups and workers to spare, the groups — independent by
    // construction — run concurrently, each group's sweep sequential inside
    // its worker (the groups are the coarsest unit of parallel work, exactly
    // like the slab stage's children).  A single group keeps the full
    // parallel slab stage instead.
    if actual_workers > 1 && batch.groups.len() > 1 {
        let group_opts = ExactMaxRsOptions {
            parallelism: 1,
            ..exact_opts
        };
        let host = FileHost::new(SweepPass::presorted(ctx, &group_opts), sorted);
        let outcomes = parallel_map(
            actual_workers.min(batch.groups.len()),
            batch.groups.iter().collect(),
            |_, group| run_group(&host, group, &batch.queries, Meter::Thread),
        );
        collect_runs(batch, outcomes, actual_strategy, actual_workers)
    } else {
        let host = FileHost::new(SweepPass::presorted(ctx, &exact_opts), sorted);
        run_on_host(&host, batch, actual_strategy, actual_workers)
    }
}

/// One member's outcome: the answer plus the I/O attributed to it.
struct MemberOut {
    index: usize,
    answer: QueryAnswer,
    io: IoSnapshot,
}

/// How group phases measure their I/O: differences of the host's counter
/// when groups run one after another, per-thread meters when groups share
/// the worker pool.
#[derive(Clone, Copy)]
enum Meter {
    Host,
    Thread,
}

fn measured<H: SweepHost, R>(
    host: &H,
    meter: Meter,
    f: impl FnOnce() -> std::result::Result<R, H::Error>,
) -> std::result::Result<(R, IoSnapshot), H::Error> {
    match meter {
        Meter::Thread => {
            let (out, io) = measure_thread_io(f);
            Ok((out?, io))
        }
        Meter::Host => {
            let before = host.io();
            let out = f()?;
            Ok((out, host.io().delta(&before)))
        }
    }
}

fn collect_runs<E>(
    batch: &QueryBatch,
    outcomes: impl IntoIterator<Item = std::result::Result<Vec<MemberOut>, E>>,
    strategy: ExecutionStrategy,
    workers: usize,
) -> std::result::Result<Vec<QueryRun>, E> {
    let mut runs: Vec<Option<QueryRun>> = batch.queries.iter().map(|_| None).collect();
    for outcome in outcomes {
        for m in outcome? {
            runs[m.index] = Some(QueryRun {
                answer: m.answer,
                strategy,
                workers,
                io: m.io,
            });
        }
    }
    Ok(runs
        .into_iter()
        .map(|r| r.expect("every query belongs to exactly one group"))
        .collect())
}

fn run_group<H: SweepHost>(
    host: &H,
    group: &SweepGroup,
    queries: &[Query],
    meter: Meter,
) -> std::result::Result<Vec<MemberOut>, H::Error> {
    let members = &group.members;
    if host.is_empty() {
        return Ok(trivial_answers(members, queries));
    }
    match group.kind {
        GroupKind::Shared { size } => shared_group(host, size, members, queries, meter),
        GroupKind::MinRs { size, slab } => min_rs_group(host, size, slab, members, queries, meter),
        GroupKind::DegenerateMinRs => {
            let index = members[0];
            let Query::MinRs { size, domain } = queries[index] else {
                unreachable!("degenerate groups hold MinRS queries")
            };
            // A degenerate domain — a point or a segment of admissible
            // centers — has no positive-area arrangement cell for the sweep
            // to report.  Delegate to the in-memory reference after one scan:
            // its 1D segment sweep needs the stabbed intervals, whose count
            // the EM model does not bound by M.  Acceptable for this corner
            // case, and exact parity with `min_rs_in_memory` by construction.
            let (answer, io) = measured(host, meter, || {
                Ok(min_rs_in_memory(&host.objects()?, size, domain))
            })?;
            Ok(vec![MemberOut {
                index,
                answer: QueryAnswer::MinRs(answer),
                io,
            }])
        }
    }
}

/// The answers over no objects (or of `k = 0` top-k), at zero I/O.
fn trivial_answers(members: &[usize], queries: &[Query]) -> Vec<MemberOut> {
    members
        .iter()
        .map(|&i| MemberOut {
            index: i,
            answer: match queries[i] {
                Query::MaxRs { .. } => QueryAnswer::MaxRs(MaxRsResult::empty()),
                Query::TopK { .. } => QueryAnswer::TopK(Vec::new()),
                Query::ApproxMaxCrs { .. } => QueryAnswer::MaxCrs(MaxCrsResult::empty()),
                Query::MinRs { domain, .. } => QueryAnswer::MinRs(MaxRsResult {
                    center: domain.center(),
                    total_weight: 0.0,
                    region: domain,
                }),
            },
            io: IoSnapshot::default(),
        })
        .collect()
}

/// The positive-weight group: one MaxRS pass shared by every member.
fn shared_group<H: SweepHost>(
    host: &H,
    size: RectSize,
    members: &[usize],
    queries: &[Query],
    meter: Meter,
) -> std::result::Result<Vec<MemberOut>, H::Error> {
    // Top-k rounds are shared up to the largest requested k; a group of only
    // `k = 0` top-k queries never needs the pass at all.
    let max_k = members
        .iter()
        .filter_map(|&i| match queries[i] {
            Query::TopK { k, .. } => Some(k),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if members
        .iter()
        .all(|&i| matches!(queries[i], Query::TopK { k: 0, .. }))
    {
        return Ok(trivial_answers(members, queries));
    }

    // The shared phase: the full pipeline once, charged to the leader.
    let (best, shared_io) = measured(host, meter, || {
        best_placement(host, size, 1.0, Interval::UNBOUNDED, &[])
    })?;
    let (rounds, rounds_io) = measured(host, meter, || top_k_rounds(host, size, max_k, best))?;

    let mut out = Vec::with_capacity(members.len());
    let mut shared_io = Some(shared_io);
    let mut rounds_io = Some(rounds_io);
    for &i in members {
        let (answer, io) = match queries[i] {
            Query::MaxRs { .. } => (QueryAnswer::MaxRs(best), IoSnapshot::default()),
            Query::TopK { k, .. } => (
                QueryAnswer::TopK(rounds[..k.min(rounds.len())].to_vec()),
                rounds_io.take().unwrap_or_default(),
            ),
            Query::ApproxMaxCrs { diameter, .. } => {
                let sigma = queries[i]
                    .sigma_fraction()
                    .expect("approx variant has a sigma");
                let (crs, refine_io) = measured(host, meter, || {
                    let candidates = candidate_points(best.center, diameter, sigma);
                    let sums = host.candidate_sums(&candidates, diameter)?;
                    Ok(best_candidate(&candidates, &sums))
                })?;
                (QueryAnswer::MaxCrs(crs), refine_io)
            }
            Query::MinRs { .. } => unreachable!("MinRS plans into its own group"),
        };
        out.push(MemberOut {
            index: i,
            answer,
            io: io + shared_io.take().unwrap_or_default(),
        });
    }
    Ok(out)
}

/// Greedy MaxkRS suppression rounds, with round 1 supplied by the group's
/// shared pass.
///
/// Each further round solves MaxRS on the objects outside every rectangle
/// chosen so far — the external analogue of
/// [`max_k_rs_in_memory`](crate::extensions::max_k_rs_in_memory)'s `retain`,
/// and the same answers: round `r` sees exactly the objects the in-memory
/// greedy sees, because canonical max-regions make every round's center
/// strategy-independent.  The suppression is a predicate of the round's
/// scans, so the x-sorted input is swept as it is and no round writes a
/// filtered copy.  Rounds do not depend on `k`, so one shared sequence
/// serves every top-k member (each takes its prefix).
fn top_k_rounds<H: SweepHost>(
    host: &H,
    size: RectSize,
    max_k: usize,
    first: MaxRsResult,
) -> std::result::Result<Vec<MaxRsResult>, H::Error> {
    let mut rounds = Vec::new();
    let mut suppressed = Vec::new();
    let mut best = first;
    while rounds.len() < max_k && best.total_weight > 0.0 {
        rounds.push(best);
        suppressed.push(Rect::centered_at(best.center, size));
        if rounds.len() < max_k {
            best = best_placement(host, size, 1.0, Interval::UNBOUNDED, &suppressed)?;
        }
    }
    Ok(rounds)
}

/// The MinRS group: one weight-negated pass over the shared domain x-slab,
/// then one domain-clipped strip scan per member — streamed over the shared
/// slab-file, exactly the scan
/// [`min_rs_in_memory`](crate::extensions::min_rs_in_memory) performs over
/// its in-memory tuple list.
fn min_rs_group<H: SweepHost>(
    host: &H,
    size: RectSize,
    slab: Interval,
    members: &[usize],
    queries: &[Query],
    meter: Meter,
) -> std::result::Result<Vec<MemberOut>, H::Error> {
    let domain_of = |i: usize| match queries[i] {
        Query::MinRs { domain, .. } => domain,
        _ => unreachable!("MinRS groups hold MinRS queries"),
    };
    // The shared phase — negated transform + sweep — charged to the leader.
    let (slab_file, shared_io) = measured(host, meter, || host.sweep(size, -1.0, slab, &[]))?;

    // Per-member strip scans over the shared slab-file.
    let ctx = host.scratch();
    let mut scans: Vec<(usize, Option<MinStrip>, IoSnapshot)> = Vec::with_capacity(members.len());
    let mut scan_err = None;
    for &i in members {
        let scanned = measured(host, meter, || {
            let mut reader = ctx.open_reader(&slab_file);
            let tuples = std::iter::from_fn(|| match reader.next_record() {
                Ok(Some(t)) => Some(Ok(t)),
                Ok(None) => None,
                Err(e) => Some(Err(e.into())),
            });
            Ok(min_strip_scan(tuples, slab, domain_of(i))?)
        });
        match scanned {
            Ok((best, io)) => scans.push((i, best, io)),
            Err(e) => {
                scan_err = Some(e);
                break;
            }
        }
    }
    // Delete the slab file before propagating a scan error so a failed query
    // leaves no orphans on a long-lived context.
    ctx.delete_file(slab_file).map_err(CoreError::from)?;
    if let Some(e) = scan_err {
        return Err(e);
    }

    let mut out = Vec::with_capacity(scans.len());
    let mut shared_io = Some(shared_io);
    for (i, best, scan_io) in scans {
        let (result, finalize_io) = measured(host, meter, || {
            finalize_min_rs(host, size, slab, domain_of(i), best)
        })?;
        out.push(MemberOut {
            index: i,
            answer: QueryAnswer::MinRs(result),
            io: scan_io + finalize_io + shared_io.take().unwrap_or_default(),
        });
    }
    Ok(out)
}

/// Converts a member's winning strip into the canonical MinRS answer: a
/// sweep cell gets the canonical x-interval of the domain slab, the implicit
/// whole-slab strip keeps the slab.
fn finalize_min_rs<H: SweepHost>(
    host: &H,
    size: RectSize,
    slab: Interval,
    domain: Rect,
    best: Option<MinStrip>,
) -> std::result::Result<MaxRsResult, H::Error> {
    let Some((negated_sum, x, y, from_tuple)) = best else {
        // Unreachable for a non-degenerate domain (the strips partition the
        // plane, so one of them clips to positive height), but kept as a
        // mirror of the in-memory fallback: evaluate the domain center.
        let center = domain.center();
        return Ok(MaxRsResult {
            center,
            total_weight: range_sum_rect(&host.objects()?, center, size),
            region: domain,
        });
    };
    let x = if from_tuple {
        canonical_x(host, size, slab, &[], x.lo)?
    } else {
        x
    };
    let center = Point::new(
        x.representative().clamp(domain.x_lo, domain.x_hi),
        y.representative().clamp(domain.y_lo, domain.y_hi),
    );
    Ok(MaxRsResult {
        center,
        // `0.0 - x` rather than `-x`: an uncovered minimum is +0.0, not the
        // confusing "-0" a plain negation would display (mirrors
        // `min_rs_in_memory`).
        total_weight: 0.0 - negated_sum,
        region: Rect::new(x.lo, x.hi, y.lo, y.hi),
    })
}

/// One MaxRS pass on `host` — sweep, extract the best tuple, canonicalize —
/// in the block sequence of the kernel's stages.
pub(crate) fn best_placement<H: SweepHost>(
    host: &H,
    size: RectSize,
    weight_scale: f64,
    root: Interval,
    suppressed: &[Rect],
) -> std::result::Result<MaxRsResult, H::Error> {
    let slab_file = host.sweep(size, weight_scale, root, suppressed)?;
    let best = extract_best(host.scratch(), &slab_file);
    host.scratch()
        .delete_file(slab_file)
        .map_err(CoreError::from)?;
    canonicalize(host, size, root, suppressed, best?)
}

/// Stage 4b of the kernel on any host: gives a sweep result the canonical
/// x-interval of its arrangement cell (see [`crate::sweep`], "Canonical
/// max-regions").
pub(crate) fn canonicalize<H: SweepHost>(
    host: &H,
    size: RectSize,
    root: Interval,
    suppressed: &[Rect],
    result: MaxRsResult,
) -> std::result::Result<MaxRsResult, H::Error> {
    if !result.region.x_lo.is_finite() && !result.region.x_hi.is_finite() {
        // The empty-dataset sentinel; nothing to widen.
        return Ok(result);
    }
    let x = canonical_x(host, size, root, suppressed, result.region.x_lo)?;
    Ok(MaxRsResult {
        center: Point::new(x.representative(), result.center.y),
        total_weight: result.total_weight,
        region: Rect::new(x.lo, x.hi, result.region.y_lo, result.region.y_hi),
    })
}

/// The canonical x-interval of a max-region whose cell starts at `x_lo`: it
/// ends at the next arrangement breakpoint.  Both sweeps agree on `x_lo`, but
/// the distribution sweep's own interval can end early at a slab boundary or
/// run on past the breakpoint (a slab's whole-slab sentinel), so its upper
/// bound is never kept.  The only place a canonical `x_hi` is formed.
fn canonical_x<H: SweepHost>(
    host: &H,
    size: RectSize,
    root: Interval,
    suppressed: &[Rect],
    x_lo: f64,
) -> std::result::Result<Interval, H::Error> {
    Ok(Interval::new(
        x_lo,
        host.next_breakpoint(size, root, suppressed, x_lo)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planning_groups_by_sweep_key() {
        let size = RectSize::square(10.0);
        let other = RectSize::square(20.0);
        let domain = Rect::new(0.0, 50.0, 0.0, 50.0);
        let batch = QueryBatch::new(&[
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::approx_max_crs(10.0),
            Query::max_rs(other),
            Query::min_rs(size, domain),
            Query::min_rs(size, Rect::new(0.0, 50.0, 10.0, 40.0)), // same x-slab
            Query::min_rs(size, Rect::new(5.0, 45.0, 0.0, 50.0)),  // different x-slab
        ])
        .unwrap();
        assert_eq!(batch.len(), 7);
        // {maxrs, topk, crs} @ 10 | maxrs @ 20 | minrs slab [0,50] x2 | minrs slab [5,45]
        assert_eq!(batch.num_groups(), 4);
        assert!(!batch.is_empty());
        assert_eq!(batch.queries().len(), 7);
    }

    #[test]
    fn degenerate_min_rs_domains_get_singleton_groups() {
        let size = RectSize::square(4.0);
        let point = Rect::new(1.0, 1.0, 2.0, 2.0);
        let batch = QueryBatch::new(&[
            Query::min_rs(size, point),
            Query::min_rs(size, point), // identical, but degenerate: no sharing
        ])
        .unwrap();
        assert_eq!(batch.num_groups(), 2);
    }

    #[test]
    fn empty_batch_is_valid() {
        let batch = QueryBatch::new(&[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.num_groups(), 0);
    }

    #[test]
    fn invalid_queries_fail_planning() {
        assert!(QueryBatch::new(&[Query::MaxRs {
            size: RectSize {
                width: -1.0,
                height: 1.0,
            },
        }])
        .is_err());
    }
}
