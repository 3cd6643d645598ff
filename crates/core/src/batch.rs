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
//!   shared up to the largest requested `k`, see below), and ApproxMaxCRS
//!   refines the shared centroid with its own 5-candidate sums.
//! * [`Query::MinRs`] queries sharing a size and a domain x-slab share one
//!   weight-negated pass; each member streams its own domain-clipped strip
//!   scan over the shared slab-file.
//!
//! # One driver, many hosts
//!
//! The driver asks a dataset for a handful of operations only, the
//! [`SweepHost`] trait: one sweep pass (size, weight scale, root slab, the
//! suppressed rectangles of earlier top-k rounds and a y-band in, merged root
//! slab-file out), the next arrangement breakpoint for canonicalization, the
//! ApproxMaxCRS candidate sums, the objects themselves and an I/O meter.
//! Top-k suppression is a scan predicate — every scan of a round leaves out
//! the objects strictly inside an already chosen rectangle — so no host
//! materializes per-round copies of its data.  A single object file (a
//! [`PreparedDataset`](crate::PreparedDataset), also the per-batch snapshot
//! of a [`DeltaDataset`](crate::DeltaDataset)) and the shards behind
//! `maxrs-cluster`'s coordinator both implement it, and [`run_on_host`]
//! answers every variant on each of them with the same code, so the paths
//! cannot drift apart.
//!
//! On a single file, independent groups execute concurrently on the
//! [`parallel_map`](crate::parallel::parallel_map()) worker pool; the atomic
//! [`IoStats`](maxrs_em::IoStats) keep the global count exact, and
//! [`measure_thread_io`](maxrs_em::measure_thread_io()) attributes each group's
//! transfers to its queries.  Answers are **bit-identical** to per-query
//! [`PreparedDataset::run`](crate::PreparedDataset::run) calls — in fact the
//! per-query path *is* a batch of one.  Whether a group's sweep runs alone
//! with parallel children or beside other groups on one worker, it ends in
//! the same flat MergeSweep, so this holds for any weights.
//!
//! # Top-k rounds splice
//!
//! The merged slab-file holds one tuple per horizontal strip: its `y`, the
//! strip's max-interval and weight.  Suppressing the objects strictly inside
//! a chosen `w × h` rectangle `R` changes the location-weight only inside the
//! y-band `B = [R.y_lo − h/2, R.y_hi + h/2]`, so every tuple outside `B` is
//! already a tuple of the next round.  Round 1 keeps its slab-file; each
//! later round sweeps only the objects whose rectangle meets `B` (the `band`
//! of [`SweepHost::sweep`]) and streams the `y`-ordered splice — the band
//! file's tuples inside `B`, the previous round's outside — through the
//! extract rule, writing the spliced file only when another round follows.
//! For integer weights the splice equals a full re-sweep bit for bit:
//! outside `B` the event `y`s, the sums and the leftmost max cell's `x_lo`
//! are unchanged; inside `B` every rectangle active at a tuple's `y` meets
//! `B`; and canonicalization re-derives `x_hi` from the objects as before.
//! A group with no round after the first (every MaxRS, ApproxMaxCRS and
//! top-1 query) deletes its slab-file before canonicalization, in the block
//! sequence of a lone pass.
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
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::approx::{best_candidate, candidate_points, evaluate_candidates};
use crate::engine::ExecutionStrategy;
use crate::error::{CoreError, Result};
use crate::exact::ExactMaxRsOptions;
use crate::extensions::{min_rs_in_memory, min_strip_scan, MinStrip};
use crate::parallel::parallel_map;
use crate::query::{Query, QueryAnswer, QueryRun};
use crate::records::{ObjectRecord, SlabTuple};
use crate::result::{MaxCrsResult, MaxRsResult};
use crate::sweep::{extract_best, next_breakpoint_after, solve_rects, transform, BestTuple};

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
/// Implemented for a single object file (a prepared dataset, or a delta
/// dataset's snapshot) and for `maxrs-cluster`'s coordinator;
/// [`run_on_host`] drives either.
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
    /// `suppressed` and keeping only the rectangles that meet the closed
    /// y-band `band` (see [`swept_rect`](crate::sweep::swept_rect)).  With
    /// [`Interval::UNBOUNDED`] that is every rectangle; a narrower band is a
    /// top-k round's (module docs), whose tuples inside the band are the full
    /// pass's.  The caller deletes the file.
    fn sweep(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
        band: Interval,
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
    /// `candidates`, accumulated in the host's object order — ApproxMaxCRS
    /// refinement.
    fn candidate_sums(
        &self,
        candidates: &[Point],
        diameter: f64,
    ) -> std::result::Result<Vec<f64>, Self::Error>;

    /// Every object, in the host's object order: what a degenerate-domain
    /// MinRS (a point or a segment of admissible centers) hands the
    /// in-memory delegate.  No other group reads it.
    fn objects(&self) -> std::result::Result<Vec<WeightedPoint>, Self::Error>;

    /// Blocks moved on the host so far; the driver meters each phase as a
    /// difference of two readings.
    fn io(&self) -> IoSnapshot;
}

/// The host over one object file: the one local sweep host.  Every local
/// query runs on it — through [`PreparedDataset`](crate::PreparedDataset),
/// which [`MaxRsEngine::run_batch`](crate::MaxRsEngine::run_batch) and the
/// snapshots of a [`DeltaDataset`](crate::DeltaDataset) answer through — and
/// so does [`SweepPass::max_rs`](crate::sweep::SweepPass::max_rs) for a
/// single query.
pub(crate) struct FileHost<'a> {
    ctx: &'a EmContext,
    opts: ExactMaxRsOptions,
    objects: &'a TupleFile<ObjectRecord>,
}

impl<'a> FileHost<'a> {
    pub(crate) fn new(
        ctx: &'a EmContext,
        opts: ExactMaxRsOptions,
        objects: &'a TupleFile<ObjectRecord>,
    ) -> Self {
        FileHost { ctx, opts, objects }
    }
}

impl SweepHost for FileHost<'_> {
    type Error = CoreError;

    fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    fn scratch(&self) -> &EmContext {
        self.ctx
    }

    /// The transform scan, then the recursion over `root` on up to
    /// `opts.parallelism` workers (capped by the buffer,
    /// [`ExactMaxRsOptions::effective_parallelism`]).
    fn sweep(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
        band: Interval,
    ) -> Result<TupleFile<SlabTuple>> {
        let rects = transform(self.ctx, self.objects, size, weight_scale, suppressed, band)?;
        let workers = self.opts.effective_parallelism(self.ctx.config());
        solve_rects(self.ctx, &self.opts, rects, root, false, workers)
    }

    fn next_breakpoint(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
        x: f64,
    ) -> Result<f64> {
        next_breakpoint_after(self.ctx, self.objects, size, root, suppressed, x)
    }

    fn candidate_sums(&self, candidates: &[Point], diameter: f64) -> Result<Vec<f64>> {
        evaluate_candidates(self.ctx, self.objects, candidates, diameter)
    }

    fn objects(&self) -> Result<Vec<WeightedPoint>> {
        let records = self.ctx.read_all(self.objects)?;
        Ok(records.iter().map(|r| r.0).collect())
    }

    fn io(&self) -> IoSnapshot {
        self.ctx.stats()
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

/// Executes a planned batch over the retained object file (in any order)
/// of an external [`PreparedDataset`](crate::PreparedDataset): one kernel
/// pass per sweep group, groups concurrent on the `parallel_map` pool when
/// more than one group and more than one worker exist.  `strategy` is
/// the external strategy and worker count
/// [`MaxRsEngine::select_strategy`](crate::MaxRsEngine::select_strategy)
/// picked for the file, reported on every run.  Reports I/O per query under
/// the leader-attribution rule (module docs).
pub(crate) fn run_batch_external(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    batch: &QueryBatch,
    strategy: (ExecutionStrategy, usize),
    base: &ExactMaxRsOptions,
) -> Result<Vec<QueryRun>> {
    let (strategy, workers) = strategy;
    // With several groups and workers to spare, the groups — independent by
    // construction — run concurrently, each group's sweep sequential inside
    // its worker (the groups are the coarsest unit of parallel work, exactly
    // like the slab stage's children), and every run reports the batch's
    // pool, not its group's inner sweep shape.  A single group keeps the
    // full parallel slab stage instead.
    if workers > 1 && batch.groups.len() > 1 {
        let group_opts = ExactMaxRsOptions {
            parallelism: 1,
            ..*base
        };
        let host = FileHost::new(ctx, group_opts, objects);
        let outcomes = parallel_map(
            workers.min(batch.groups.len()),
            batch.groups.iter().collect(),
            |_, group| run_group(&host, group, &batch.queries, Meter::Thread),
        );
        collect_runs(batch, outcomes, strategy, workers)
    } else {
        let exact_opts = ExactMaxRsOptions {
            parallelism: workers,
            ..*base
        };
        let host = FileHost::new(ctx, exact_opts, objects);
        run_on_host(&host, batch, strategy, workers)
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
            Ok((out, host.io().since(&before)))
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

    // The shared phase: the full pipeline once, charged to the leader.  Its
    // slab-file outlives it when later top-k rounds splice into it.
    let ((best, slab_file), shared_io) =
        measured(host, meter, || placement(host, size, max_k > 1))?;
    let (rounds, rounds_io) = measured(host, meter, || {
        top_k_rounds(host, size, max_k, best, slab_file)
    })?;

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

/// Greedy MaxkRS suppression rounds, with round 1 (and its slab-file,
/// whenever a round follows) supplied by the group's shared pass.
///
/// Each further round solves MaxRS on the objects outside every rectangle
/// chosen so far — the external analogue of
/// [`max_k_rs_in_memory`](crate::extensions::max_k_rs_in_memory)'s `retain`,
/// and the same answers: round `r` sees exactly the objects the in-memory
/// greedy sees, because canonical max-regions make every round's center
/// strategy-independent.  A round re-sweeps only the y-band its predecessor's
/// pick can change and splices it into the previous slab-file
/// ([`next_round`], module docs); the suppression is a predicate of the
/// scans, so no round writes a filtered copy of the objects.  Rounds do not
/// depend on `k`, so one shared sequence serves every top-k member (each
/// takes its prefix).
fn top_k_rounds<H: SweepHost>(
    host: &H,
    size: RectSize,
    max_k: usize,
    first: MaxRsResult,
    mut slab_file: Option<TupleFile<SlabTuple>>,
) -> std::result::Result<Vec<MaxRsResult>, H::Error> {
    let mut rounds = Vec::new();
    let mut suppressed = Vec::new();
    let mut best = first;
    // Invariant: `slab_file` is kept exactly when another round will run.
    while rounds.len() < max_k && best.total_weight > 0.0 {
        rounds.push(best);
        suppressed.push(Rect::centered_at(best.center, size));
        if rounds.len() < max_k {
            let prev = slab_file
                .take()
                .expect("a slab-file is kept while rounds remain");
            let more = rounds.len() + 1 < max_k;
            (best, slab_file) = next_round(host, size, &suppressed, prev, more)?;
        }
    }
    debug_assert!(slab_file.is_none(), "the last round keeps no slab-file");
    Ok(rounds)
}

/// One top-k round after the first: sweeps the band `B` of the last pick
/// (the last of `suppressed`) and splices it into `prev`, the previous
/// round's slab-file, which is consumed.  Returns the round's canonical best
/// and, when `more` rounds follow and it has positive weight, its slab-file.
fn next_round<H: SweepHost>(
    host: &H,
    size: RectSize,
    suppressed: &[Rect],
    prev: TupleFile<SlabTuple>,
    more: bool,
) -> std::result::Result<(MaxRsResult, Option<TupleFile<SlabTuple>>), H::Error> {
    let ctx = host.scratch();
    let chosen = suppressed.last().expect("a later round follows a pick");
    // From the pick's own f64 edges: an object strictly inside it has
    // `y > chosen.y_lo`, so by monotone rounding its rectangle's edges lie in
    // `band` — no strip outside the band changes.
    let half = size.height / 2.0;
    let band = Interval::new(chosen.y_lo - half, chosen.y_hi + half);
    let band_file = match host.sweep(size, 1.0, Interval::UNBOUNDED, suppressed, band) {
        Ok(file) => file,
        Err(e) => {
            let _ = ctx.delete_file(prev);
            return Err(e);
        }
    };
    let (best, written) = match splice(ctx, &prev, &band_file, band, more) {
        Ok(out) => out,
        Err(e) => {
            let _ = delete_all(ctx, [prev, band_file]);
            return Err(e.into());
        }
    };
    // The spliced copy, written only when `more`, is kept for a round that
    // will run.
    let (kept, dropped) = if best.total_weight > 0.0 {
        (written, None)
    } else {
        (None, written)
    };
    if let Err(e) = delete_all(ctx, [prev, band_file].into_iter().chain(dropped)) {
        if let Some(file) = kept {
            let _ = ctx.delete_file(file);
        }
        return Err(CoreError::from(e).into());
    }
    finish_round(host, size, suppressed, best, kept)
}

/// Canonicalizes a round's best and pairs it with `kept`, the round's
/// slab-file for the next round, which is deleted if canonicalization fails.
fn finish_round<H: SweepHost>(
    host: &H,
    size: RectSize,
    suppressed: &[Rect],
    best: MaxRsResult,
    kept: Option<TupleFile<SlabTuple>>,
) -> std::result::Result<(MaxRsResult, Option<TupleFile<SlabTuple>>), H::Error> {
    match canonicalize(host, size, suppressed, best) {
        Ok(best) => Ok((best, kept)),
        Err(e) => {
            if let Some(file) = kept {
                let _ = host.scratch().delete_file(file);
            }
            Err(e)
        }
    }
}

/// Streams a round's slab-file — `prev`'s tuples with `y` outside `band`,
/// `band_file`'s with `y` inside it, in `y` order — through the extract rule,
/// writing it to a new file only when `write`.
fn splice(
    ctx: &EmContext,
    prev: &TupleFile<SlabTuple>,
    band_file: &TupleFile<SlabTuple>,
    band: Interval,
    write: bool,
) -> Result<(MaxRsResult, Option<TupleFile<SlabTuple>>)> {
    let mut writer = if write {
        Some(ctx.create_writer::<SlabTuple>()?)
    } else {
        None
    };
    let mut best = BestTuple::default();
    let mut emit = |t: SlabTuple| -> Result<()> {
        best.push(t);
        if let Some(w) = writer.as_mut() {
            w.push(&t)?;
        }
        Ok(())
    };
    let mut outer = ctx.open_reader(prev);
    while let Some(&t) = outer.peek()? {
        if t.y >= band.lo {
            break;
        }
        outer.next_record()?;
        emit(t)?;
    }
    let mut inner = ctx.open_reader(band_file);
    while let Some(t) = inner.next_record()? {
        if t.y > band.hi {
            break;
        }
        if t.y >= band.lo {
            emit(t)?;
        }
    }
    while let Some(t) = outer.next_record()? {
        if t.y > band.hi {
            emit(t)?;
        }
    }
    let written = writer.map(|w| w.finish()).transpose()?;
    Ok((best.result(), written))
}

/// Deletes every file, returning the first error.
fn delete_all(
    ctx: &EmContext,
    files: impl IntoIterator<Item = TupleFile<SlabTuple>>,
) -> maxrs_em::Result<()> {
    let mut deleted = Ok(());
    for file in files {
        deleted = deleted.and(ctx.delete_file(file));
    }
    deleted
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
    let (slab_file, shared_io) = measured(host, meter, || {
        host.sweep(size, -1.0, slab, &[], Interval::UNBOUNDED)
    })?;

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
    // Degenerate domains never reach the strip scan, and the strips below,
    // between and above the h-lines cover a positive-height y-range, so one
    // of them clips to a positive height.
    let (negated_sum, x, y, from_tuple) =
        best.expect("a domain of positive height keeps a strip of positive height");
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
/// in the block sequence of the kernel's stages; the empty result, at zero
/// I/O, when the host holds no objects.
pub(crate) fn best_placement<H: SweepHost>(
    host: &H,
    size: RectSize,
) -> std::result::Result<MaxRsResult, H::Error> {
    if host.is_empty() {
        return Ok(MaxRsResult::empty());
    }
    placement(host, size, false).map(|(best, _)| best)
}

/// [`best_placement`] of a non-empty host, keeping the slab-file for the
/// next top-k round when `keep` and the best weight is positive.  Otherwise
/// the file is deleted before canonicalization, as a lone pass does.
fn placement<H: SweepHost>(
    host: &H,
    size: RectSize,
    keep: bool,
) -> std::result::Result<(MaxRsResult, Option<TupleFile<SlabTuple>>), H::Error> {
    let ctx = host.scratch();
    let all = Interval::UNBOUNDED;
    let slab_file = host.sweep(size, 1.0, all, &[], all)?;
    let best = extract_best(ctx, &slab_file);
    let kept = match &best {
        Ok(best) if keep && best.total_weight > 0.0 => Some(slab_file),
        _ => {
            ctx.delete_file(slab_file).map_err(CoreError::from)?;
            None
        }
    };
    finish_round(host, size, &[], best?, kept)
}

/// Stage 4 of the kernel on any host: gives the result of a pass over the
/// unbounded root the canonical x-interval of its arrangement cell (see
/// [`crate::sweep`], "Canonical max-regions").
pub(crate) fn canonicalize<H: SweepHost>(
    host: &H,
    size: RectSize,
    suppressed: &[Rect],
    result: MaxRsResult,
) -> std::result::Result<MaxRsResult, H::Error> {
    if !result.region.x_lo.is_finite() && !result.region.x_hi.is_finite() {
        // The empty-dataset sentinel; nothing to widen.
        return Ok(result);
    }
    let x = canonical_x(
        host,
        size,
        Interval::UNBOUNDED,
        suppressed,
        result.region.x_lo,
    )?;
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
    use crate::exact::load_objects;
    use maxrs_em::EmConfig;

    /// Runs `rounds` top-k rounds after the first on `objects` and checks
    /// that every spliced slab-file holds exactly the tuples — `y`, sum and
    /// `x_lo` — of a full re-sweep over the objects left.
    fn assert_splices_match_full_sweeps(objects: &[WeightedPoint], size: RectSize, rounds: usize) {
        let ctx = EmContext::new(EmConfig::new(1024, 8 * 1024).unwrap());
        let file = load_objects(&ctx, objects).unwrap();
        let opts = ExactMaxRsOptions::sequential();
        let host = FileHost::new(&ctx, opts, &file);
        let all = Interval::UNBOUNDED;
        let key = |t: &SlabTuple| (t.y, t.sum, t.x_lo);
        let (mut best, mut slab_file) = placement(&host, size, true).unwrap();
        let mut suppressed = Vec::new();
        for round in 2..rounds + 2 {
            suppressed.push(Rect::centered_at(best.center, size));
            let prev = slab_file.take().expect("every round has positive weight");
            (best, slab_file) = next_round(&host, size, &suppressed, prev, true).unwrap();
            let spliced = slab_file.as_ref().expect("another round follows");
            let full = host.sweep(size, 1.0, all, &suppressed, all).unwrap();
            assert_eq!(
                ctx.read_all(spliced)
                    .unwrap()
                    .iter()
                    .map(key)
                    .collect::<Vec<_>>(),
                ctx.read_all(&full)
                    .unwrap()
                    .iter()
                    .map(key)
                    .collect::<Vec<_>>(),
                "round {round} of {size:?}"
            );
            ctx.delete_file(full).unwrap();
        }
        ctx.delete_file(slab_file.unwrap()).unwrap();
        ctx.delete_file(file).unwrap();
        assert_eq!(ctx.num_files(), 0);
    }

    #[test]
    fn spliced_slab_files_match_full_re_sweeps() {
        // Integer weights on pseudo-random points: tall rectangles make
        // consecutive bands overlap without holding every strip.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 1000
        };
        let scattered: Vec<WeightedPoint> = (0..600)
            .map(|_| WeightedPoint::at(next() as f64, next() as f64, (1 + next() % 4) as f64))
            .collect();
        assert_splices_match_full_sweeps(&scattered, RectSize::new(60.0, 200.0), 6);
        // Columns sharing every y under rectangles taller than the data:
        // each band holds every strip, so the splice takes every tuple from
        // the band file.
        let columns: Vec<WeightedPoint> = (0..600)
            .map(|i| {
                WeightedPoint::at(
                    (10 * (i / 20)) as f64,
                    (10 * (i % 20)) as f64,
                    (1 + i / 20 % 5) as f64,
                )
            })
            .collect();
        assert_splices_match_full_sweeps(&columns, RectSize::new(15.0, 1000.0), 6);
    }

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
