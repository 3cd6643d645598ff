//! The **sweep kernel**: one distribution-sweep pipeline that every query
//! variant and every execution strategy runs.
//!
//! A pass has four stages:
//!
//! 1. **transform** — stream the object file into query-sized rectangles
//!    ([`transform_to_rect_file`] at identity weights), keeping only the
//!    rectangles the pass sweeps ([`swept_rect`]) and scaling their weights
//!    (`-1` is the MinRS reduction);
//! 2. **slab partition + strip sweep** — the distribution-sweep recursion
//!    over the rectangles ([`solve_rects`], the one way into it);
//! 3. **extract** — the best tuple of the final slab-file
//!    ([`extract_best`]);
//! 4. **canonicalize** — give the winning interval the full arrangement
//!    cell ([`SweepPass::canonicalize`]) so every strategy and every input
//!    order reports the identical max-region.
//!
//! No stage reads the order of the object file: every recursion node draws
//! its slab boundaries from a reservoir of rectangle edges
//! ([`compute_partition`]), the leaves sort their events in memory, and
//! MergeSweep consumes y-sorted streams the recursion produces itself.  No
//! pass sorts its input, and a file in any order yields the same answer —
//! bit for bit for integer weights, whose sums are exact in any grouping.
//!
//! The query driver ([`crate::batch`]) runs stages 1–2 through its one host
//! over an object file, whose sweep takes the pass's parameters per call: a
//! weight scale, a root slab (the query domain's x-slab for MinRS), the
//! rectangles earlier top-k rounds chose (the transform and breakpoint scans
//! leave out every object strictly inside one of them) and a y-band (a
//! round after the first transforms only the rectangles meeting it, the
//! only strips its pick can change).  [`SweepPass`] names the stages of a
//! plain MaxRS pass, one call each into that same code.
//!
//! # Canonical max-regions
//!
//! The distribution sweep reports the same *maximum weight* as the in-memory
//! plane sweep, but its slab boundaries subdivide the x-axis more finely than
//! the rectangle-edge arrangement alone, so the winning tuple's x-interval
//! can be a strict sub-interval of the arrangement cell the in-memory sweep
//! would report.  Stage 4 therefore sets the interval's upper bound to the
//! next arrangement breakpoint after its lower bound, found with one extra
//! `O(N/B)` scan of the object file (see [`next_breakpoint_after`]): both
//! sweeps break ties leftmost-first and agree on the winning event `y` and
//! lower bound, so after canonicalization the external result —
//! center, weight **and** max-region — is bit-for-bit identical to
//! [`max_rs_in_memory`](crate::plane_sweep::max_rs_in_memory()).  The unified
//! query layer ([`crate::engine::MaxRsEngine::run`]) relies on this to give
//! every `Query` variant strategy-independent answers.

use maxrs_em::{EmContext, TupleFile};
use maxrs_geometry::{Interval, Point, Rect, RectSize};

use crate::batch::{best_placement, canonicalize, FileHost};
use crate::error::{CoreError, Result};
use crate::exact::ExactMaxRsOptions;
use crate::merge_sweep::merge_sweep;
use crate::parallel::parallel_map;
use crate::plane_sweep::with_sweep_scratch;
use crate::records::{ObjectRecord, RectRecord, SlabTuple};
use crate::result::MaxRsResult;
use crate::slab::{compute_partition, distribute, BoundarySource, DEFAULT_BOUNDARY_SAMPLE};

/// The stages of a plain MaxRS pass — identity weights over an unbounded
/// root slab — over one object file in any order, each a call into the
/// kernel's own code:
///
/// ```
/// use maxrs_core::{load_objects, ExactMaxRsOptions, SweepPass};
/// use maxrs_em::{EmConfig, EmContext};
/// use maxrs_geometry::{RectSize, WeightedPoint};
///
/// let ctx = EmContext::new(EmConfig::paper_synthetic());
/// let objects = load_objects(
///     &ctx,
///     &[
///         WeightedPoint::unit(1.0, 1.0),
///         WeightedPoint::unit(1.5, 1.2),
///         WeightedPoint::unit(9.0, 9.0),
///     ],
/// )
/// .unwrap();
///
/// let pass = SweepPass::new(&ctx, &ExactMaxRsOptions::default());
/// let best = pass.max_rs(&objects, RectSize::square(2.0)).unwrap();
/// assert_eq!(best.total_weight, 2.0);
/// # ctx.delete_file(objects).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepPass<'a> {
    ctx: &'a EmContext,
    opts: ExactMaxRsOptions,
}

impl<'a> SweepPass<'a> {
    /// A pass over `ctx` with the tuning `opts`.
    pub fn new(ctx: &'a EmContext, opts: &ExactMaxRsOptions) -> Self {
        SweepPass { ctx, opts: *opts }
    }

    /// The same pass as [`new`](SweepPass::new): no pass reads its file's
    /// order any more.  Kept only because the benchmark package
    /// (`benchmark/src/em.rs`) still calls it by this name.
    pub fn presorted(ctx: &'a EmContext, opts: &ExactMaxRsOptions) -> Self {
        SweepPass::new(ctx, opts)
    }

    /// The root x-slab of the pass: unbounded.
    pub fn root(&self) -> Interval {
        Interval::UNBOUNDED
    }

    /// Stage 1 — [`transform_to_rect_file`].
    pub fn transform(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
    ) -> Result<TupleFile<RectRecord>> {
        transform_to_rect_file(self.ctx, objects, size)
    }

    /// Stage 3 — [`extract_best`].
    pub fn extract_best(&self, slab_file: &TupleFile<SlabTuple>) -> Result<MaxRsResult> {
        extract_best(self.ctx, slab_file)
    }

    /// Stage 4 — sets a sweep result's max-interval to the full arrangement
    /// cell so it matches the in-memory sweep's report (module docs,
    /// "Canonical max-regions").  The winning `y`-strip, weight and lower x
    /// bound are already canonical; only the upper x bound (and with it the
    /// representative center) can sit on a slab boundary instead of a
    /// rectangle edge.
    pub fn canonicalize(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
        result: MaxRsResult,
    ) -> Result<MaxRsResult> {
        canonicalize(&self.host(objects), size, &[], result)
    }

    /// The full pipeline: transform → sweep → extract → canonicalize.
    /// Returns the optimal location, the maximum range sum and the canonical
    /// max-region; all temporary files are deleted before returning and the
    /// input file is left untouched.  `opts.parallelism` caps the workers
    /// that solve the top-level sub-slabs; the answer is the same for every
    /// worker count.
    pub fn max_rs(&self, objects: &TupleFile<ObjectRecord>, size: RectSize) -> Result<MaxRsResult> {
        best_placement(&self.host(objects), size)
    }

    fn host(&self, objects: &'a TupleFile<ObjectRecord>) -> FileHost<'a> {
        FileHost::new(self.ctx, self.opts, objects)
    }
}

/// `true` when `rec` lies strictly inside one of the `suppressed` rectangles
/// — the top-k suppression predicate every scan of a round applies.
pub fn is_suppressed(suppressed: &[Rect], rec: &ObjectRecord) -> bool {
    suppressed.iter().any(|r| r.contains_open(&rec.0.point))
}

/// The `size` rectangle of `rec` when a sweep pass takes it in: the object
/// is not suppressed ([`is_suppressed`]) and its rectangle meets the closed
/// y-band `band` ([`Interval::UNBOUNDED`] keeps every rectangle).  The one
/// object filter of the transform ([`transform_to_rect_file`]) and of the
/// sharded crop scan ([`crate::shard::crop_scan`]).
pub fn swept_rect(
    suppressed: &[Rect],
    band: Interval,
    rec: &ObjectRecord,
    size: RectSize,
) -> Option<Rect> {
    if is_suppressed(suppressed, rec) {
        return None;
    }
    let rect = rec.0.to_rect(size);
    rect.y_interval().intersects(&band).then_some(rect)
}

/// Stage 1 of the kernel at identity weights: streams an object file into a
/// rectangle file of the query size, every object kept.  The input file is
/// left untouched.
pub fn transform_to_rect_file(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
) -> Result<TupleFile<RectRecord>> {
    transform(ctx, objects, size, 1.0, &[], Interval::UNBOUNDED)
}

/// The transform scan: the `size` rectangle of every object a pass sweeps
/// ([`swept_rect`]: not suppressed, meeting the closed y-band `band`), its
/// weight multiplied by `weight_scale`.  One transform-aware scan
/// ([`EmContext::filter_map_file`]): `O(N/B)` I/Os, no intermediate staging.
pub(crate) fn transform(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
    weight_scale: f64,
    suppressed: &[Rect],
    band: Interval,
) -> Result<TupleFile<RectRecord>> {
    ctx.filter_map_file(objects, |rec: ObjectRecord| {
        swept_rect(suppressed, band, &rec, size)
            .map(|rect| RectRecord::new(rect, weight_scale * rec.0.weight))
    })
    .map_err(CoreError::from)
}

/// The smallest x-arrangement breakpoint strictly greater than `x`: the edge
/// of a transformed rectangle (clipped to `slab`) or the slab's upper bound,
/// whichever comes first; `+∞` when nothing lies beyond `x`.  Objects inside
/// a `suppressed` rectangle are left out (see [`is_suppressed`]).
///
/// These breakpoints are exactly the leaf boundaries of the in-memory plane
/// sweep over `slab` (see [`crate::plane_sweep::plane_sweep_slab`]), computed
/// here with one
/// sequential `O(N/B)` scan of the object file instead of materializing the
/// arrangement.  Used to widen distribution-sweep max-intervals back to full
/// arrangement cells (stage 4 of the kernel).
pub fn next_breakpoint_after(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
    slab: Interval,
    suppressed: &[Rect],
    x: f64,
) -> Result<f64> {
    let mut best = f64::INFINITY;
    if slab.hi > x {
        best = slab.hi;
    }
    let mut reader = ctx.open_reader(objects);
    while let Some(rec) = reader.next_record()? {
        if is_suppressed(suppressed, &rec) {
            continue;
        }
        if let Some(clipped) = rec.0.to_rect(size).clip_x(&slab) {
            for edge in [clipped.x_lo, clipped.x_hi] {
                if edge > x && edge < best {
                    best = edge;
                }
            }
        }
    }
    Ok(best)
}

/// Stage 2 — runs the distribution-sweep recursion over a rectangle file in
/// any order and returns the slab-file of `slab` (the y-sorted
/// `⟨y, max-interval, sum⟩` tuples), consuming the input; rectangle weights
/// may be negative (only `WeightedPoint` insists on non-negativity).  The
/// caller has cropped the rectangles to `slab` (or the slab is unbounded),
/// so no transform happens here.  The only way into the recursion: a sweep
/// pass of the query driver's file host runs it over the pass's root, and
/// `maxrs-cluster`'s shard servers run one per owned slab, whose slab-files
/// the coordinator combines through the same span-event MergeSweep the
/// recursion itself uses.  Up to `workers` threads solve the top-level
/// sub-slabs concurrently; the slab-file is the same for every worker count.
///
/// Every node draws its boundaries from a reservoir of 8,192 rectangle
/// edges ([`BoundarySource::Sampled`]); `_sorted` is not read and stays only
/// because the benchmark package (`benchmark/src/em.rs`) still passes it.
pub fn solve_rects(
    ctx: &EmContext,
    opts: &ExactMaxRsOptions,
    rects: TupleFile<RectRecord>,
    slab: Interval,
    _sorted: bool,
    workers: usize,
) -> Result<TupleFile<SlabTuple>> {
    let runner = Runner {
        ctx,
        opts: *opts,
        workers: workers.max(1),
    };
    runner.solve(rects, slab)
}

struct Runner<'a> {
    ctx: &'a EmContext,
    opts: ExactMaxRsOptions,
    /// Worker threads available to this recursion node; children run with 1
    /// (the top-level slabs are the coarsest — and therefore best — unit of
    /// parallel work).
    workers: usize,
}

impl<'a> Runner<'a> {
    fn memory_rects(&self) -> usize {
        self.opts
            .memory_rects
            .unwrap_or_else(|| self.ctx.config().mem_records::<RectRecord>())
            .max(4)
    }

    fn fanout(&self) -> usize {
        self.opts
            .fanout
            .unwrap_or_else(|| self.ctx.config().fanout())
            .max(2)
    }

    /// Solves one recursion node: consumes `input` (the rectangles of `slab`)
    /// and returns the slab-file of `slab`.
    fn solve(&self, input: TupleFile<RectRecord>, slab: Interval) -> Result<TupleFile<SlabTuple>> {
        let n = input.len() as usize;
        if n <= self.memory_rects() {
            return self.solve_in_memory(input, slab);
        }

        // Divide the slab into at most m sub-slabs, fewer for a small slab,
        // with roughly equal rectangle-edge counts.
        let source = BoundarySource::Sampled(DEFAULT_BOUNDARY_SAMPLE);
        let dist = match compute_partition(self.ctx, &input, slab, self.fanout(), source) {
            // Heavy ties on x: no vertical split can make progress.  Fall back
            // to the in-memory sweep (documented guard; never triggered by the
            // paper's workloads).
            Ok(partition) if partition.num_slabs() < 2 => return self.solve_in_memory(input, slab),
            Ok(partition) => distribute(self.ctx, &input, &partition),
            Err(e) => Err(e),
        };
        // The input is consumed whether or not the split succeeded.
        let deleted = self.ctx.delete_file(input);
        let dist = dist?;
        deleted?;

        // Conquer each sub-slab.  `solve_child` guards against the pathological
        // case where a child is as large as its parent (extreme ties on x).
        // With workers to spare, the sub-slabs — independent by construction —
        // are solved concurrently, each child running sequentially inside its
        // worker.  Any failure deletes the files this node still owns —
        // including the span events — so a failed run leaves no orphans on a
        // long-lived context.
        let merged =
            self.conquer_and_combine(dist.slab_inputs, &dist.partition, &dist.span_events, n);
        let deleted = self.ctx.delete_file(dist.span_events);
        if merged.is_ok() {
            deleted?;
        }
        merged
    }

    /// Solves every sub-slab (on up to `self.workers` threads) and combines
    /// the child slab-files with the span events in one MergeSweep.  The
    /// child files are deleted whether or not the merge succeeds; the
    /// span-events file stays with the caller.
    fn conquer_and_combine(
        &self,
        slab_inputs: Vec<TupleFile<RectRecord>>,
        partition: &crate::slab::SlabPartition,
        span_events: &TupleFile<crate::records::SpanEvent>,
        parent_size: usize,
    ) -> Result<TupleFile<SlabTuple>> {
        // Each child runs sequentially inside its worker, so its slab-file is
        // the one the sequential sweep would write, whatever the worker count.
        let child = Runner {
            ctx: self.ctx,
            opts: self.opts,
            workers: 1,
        };
        let outcomes = parallel_map(self.workers, slab_inputs, |i, child_input| {
            child.solve_child(child_input, partition.slab(i), parent_size)
        });

        let mut child_files = Vec::with_capacity(outcomes.len());
        let mut first_err = None;
        for outcome in outcomes {
            match outcome {
                Ok(file) => child_files.push(file),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let merged = match first_err {
            Some(e) => Err(e),
            None => merge_sweep(self.ctx, &child_files, &partition.slabs(), span_events),
        };
        for f in child_files {
            let deleted = self.ctx.delete_file(f);
            if merged.is_ok() {
                deleted?;
            }
        }
        merged
    }

    /// Recurses into a child slab, guarding against pathological inputs where
    /// the child is as large as the parent (possible only under extreme ties);
    /// such children are solved in memory to guarantee termination.
    fn solve_child(
        &self,
        input: TupleFile<RectRecord>,
        slab: Interval,
        parent_size: usize,
    ) -> Result<TupleFile<SlabTuple>> {
        if input.len() as usize >= parent_size && input.len() as usize > self.memory_rects() {
            return self.solve_in_memory(input, slab);
        }
        self.solve(input, slab)
    }

    fn solve_in_memory(
        &self,
        input: TupleFile<RectRecord>,
        slab: Interval,
    ) -> Result<TupleFile<SlabTuple>> {
        // The input is consumed whether or not it could be read.
        let rects = self.ctx.read_all(&input);
        let deleted = self.ctx.delete_file(input);
        let rects = rects?;
        deleted?;
        // Borrow the worker thread's sweep scratch: the recursion sweeps one
        // in-memory slab after another on this thread, and its buffers are
        // reused across all of them.
        let mut writer = self.ctx.create_writer::<SlabTuple>()?;
        with_sweep_scratch(|scratch| -> Result<()> {
            for t in scratch.sweep(&rects, slab) {
                writer.push(t)?;
            }
            Ok(())
        })?;
        writer.finish().map_err(CoreError::from)
    }
}

/// Scans the final slab-file for the best tuple and converts it into a result.
pub fn extract_best(ctx: &EmContext, slab_file: &TupleFile<SlabTuple>) -> Result<MaxRsResult> {
    let mut reader = ctx.open_reader(slab_file);
    let mut best = BestTuple::default();
    while let Some(t) = reader.next_record()? {
        best.push(t);
    }
    Ok(best.result())
}

/// The extract rule over a y-ordered tuple stream: the first tuple of the
/// largest sum wins, and its strip ends at the next tuple's `y`.
#[derive(Debug, Default)]
pub(crate) struct BestTuple {
    best: Option<SlabTuple>,
    /// The `y` of the tuple after `best`, once seen.
    next_y: Option<f64>,
}

impl BestTuple {
    /// Feeds the next tuple of the stream.
    pub(crate) fn push(&mut self, t: SlabTuple) {
        if self.best.is_some() && self.next_y.is_none() {
            self.next_y = Some(t.y);
        }
        if self.best.is_none_or(|b| t.sum > b.sum) {
            self.best = Some(t);
            self.next_y = None;
        }
    }

    /// The (not yet canonicalized) result of the best tuple.
    pub(crate) fn result(&self) -> MaxRsResult {
        let Some(best) = self.best else {
            return MaxRsResult::empty();
        };
        let y_lo = best.y;
        let y_hi = self.next_y.filter(|&y| y > y_lo).unwrap_or(y_lo + 1.0);
        let x = best.interval();
        let region = Rect::new(x.lo, x.hi, y_lo, y_hi);
        let center = Point::new(x.representative(), (y_lo + y_hi) / 2.0);
        MaxRsResult {
            center,
            total_weight: best.sum,
            region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SweepHost;
    use crate::exact::load_objects;
    use maxrs_em::EmConfig;
    use maxrs_geometry::WeightedPoint;

    fn tiny_ctx() -> EmContext {
        EmContext::new(EmConfig::new(256, 1024).unwrap())
    }

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
    fn weight_scale_negates_the_objective() {
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(200, 5, 300.0);
        let size = RectSize::square(40.0);
        let file = load_objects(&ctx, &objects).unwrap();
        let host = FileHost::new(&ctx, ExactMaxRsOptions::sequential(), &file);

        // A weight scale of -1 turns the max into the (negated) min; over an
        // unbounded root the least-covered placement covers nothing.
        let all = Interval::UNBOUNDED;
        let slab_file = host.sweep(size, -1.0, all, &[], all).unwrap();
        assert_eq!(extract_best(&ctx, &slab_file).unwrap().total_weight, 0.0);
        ctx.delete_file(slab_file).unwrap();
        ctx.delete_file(file).unwrap();
    }

    #[test]
    fn root_slab_restricts_the_sweep() {
        let ctx = tiny_ctx();
        // Two clusters; the root slab admits only the lighter right one.
        let mut objects = Vec::new();
        for i in 0..30 {
            objects.push(WeightedPoint::at(10.0 + (i % 5) as f64, i as f64, 2.0));
        }
        for i in 0..10 {
            objects.push(WeightedPoint::at(500.0 + (i % 3) as f64, i as f64, 1.0));
        }
        let size = RectSize::new(20.0, 100.0);
        let opts = ExactMaxRsOptions {
            memory_rects: Some(8),
            ..ExactMaxRsOptions::sequential()
        };
        let file = load_objects(&ctx, &objects).unwrap();
        let host = FileHost::new(&ctx, opts, &file);
        let best_in = |root: Interval| {
            let slab_file = host
                .sweep(size, 1.0, root, &[], Interval::UNBOUNDED)
                .unwrap();
            let best = extract_best(&ctx, &slab_file).unwrap();
            ctx.delete_file(slab_file).unwrap();
            best
        };
        let everywhere = best_in(Interval::UNBOUNDED);
        let right_only = best_in(Interval::new(400.0, 600.0));
        assert_eq!(everywhere.total_weight, 60.0);
        assert_eq!(right_only.total_weight, 10.0);
        assert!(right_only.center.x >= 400.0 && right_only.center.x <= 600.0);
        ctx.delete_file(file).unwrap();
    }

    #[test]
    fn staged_execution_equals_the_composed_pipeline() {
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(300, 7, 500.0);
        let size = RectSize::square(60.0);
        let opts = ExactMaxRsOptions::sequential();
        let file = load_objects(&ctx, &objects).unwrap();
        let pass = SweepPass::new(&ctx, &opts);

        let composed = pass.max_rs(&file, size).unwrap();

        let rects = pass.transform(&file, size).unwrap();
        let slab_file = solve_rects(&ctx, &opts, rects, pass.root(), false, 1).unwrap();
        let extracted = pass.extract_best(&slab_file).unwrap();
        ctx.delete_file(slab_file).unwrap();
        let staged = pass.canonicalize(&file, size, extracted).unwrap();

        assert_eq!(composed, staged);
        ctx.delete_file(file).unwrap();
    }
}
