//! The **sweep kernel**: one parameterized distribution-sweep pipeline that
//! every query variant and every execution strategy instantiates.
//!
//! [`SweepPass`] is one parameterized object with the pipeline's four stages
//! as composable methods:
//!
//! 1. **transform** — stream the object file into query-sized rectangles
//!    ([`SweepPass::transform`]), optionally scaling weights (`-1` is the
//!    MinRS reduction);
//! 2. **slab partition + strip sweep** — the distribution-sweep recursion
//!    over the rectangles ([`SweepPass::sweep_rects`]);
//! 3. **extract** — the best tuple of the final slab-file
//!    ([`SweepPass::extract_best`]);
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
//! [`SweepPass::max_rs`] composes all four; the query driver
//! ([`crate::batch`]) runs the stages separately so several queries can share
//! stages 1–3 of one pass.  A pass can also skip objects: top-k suppression
//! rounds hand it the chosen rectangles ([`SweepPass::with_suppressed`]), and
//! the transform and breakpoint scans leave out every object strictly inside
//! one of them; a round after the first also restricts its transform to the
//! rectangles meeting a y-band ([`SweepPass::with_band`]), the only strips
//! its pick can change (see [`crate::batch`]).
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

/// One parameterized distribution-sweep pass: the sweep kernel.
///
/// A pass captures everything the pipeline varies over — the EM context, the
/// tuning [`ExactMaxRsOptions`], a weight scale (`-1.0` turns MaxRS into
/// MinRS) and a root slab (the query domain's x-interval for MinRS, unbounded
/// otherwise) — so callers state *what* to sweep and never re-implement
/// *how*.  The object file may be in any order:
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
    weight_scale: f64,
    root: Interval,
    suppressed: &'a [Rect],
    band: Interval,
}

impl<'a> SweepPass<'a> {
    /// A pass with identity weights over an unbounded root slab — the
    /// classic ExactMaxRS configuration.
    pub fn new(ctx: &'a EmContext, opts: &ExactMaxRsOptions) -> Self {
        SweepPass {
            ctx,
            opts: *opts,
            weight_scale: 1.0,
            root: Interval::UNBOUNDED,
            suppressed: &[],
            band: Interval::UNBOUNDED,
        }
    }

    /// The same pass as [`new`](SweepPass::new): no pass reads its file's
    /// order any more.  Kept only because the benchmark package
    /// (`benchmark/src/em.rs`) still calls it by this name.
    pub fn presorted(ctx: &'a EmContext, opts: &ExactMaxRsOptions) -> Self {
        SweepPass::new(ctx, opts)
    }

    /// Multiplies every object weight by `scale` during the transform scan.
    /// `-1.0` is the MinRS reduction: the maximum of the negated instance is
    /// the negated minimum of the original one, so the unmodified pipeline
    /// answers MinRS queries.
    pub fn with_weight_scale(mut self, scale: f64) -> Self {
        self.weight_scale = scale;
        self
    }

    /// Restricts the sweep (and the canonicalization) to a root x-slab — the
    /// query domain's x-interval for MinRS.  Default: unbounded.
    pub fn with_root(mut self, root: Interval) -> Self {
        self.root = root;
        self
    }

    /// Leaves out every object strictly inside one of `suppressed` — the
    /// rectangles earlier top-k rounds chose — in the transform and
    /// breakpoint scans.  Default: none.
    pub fn with_suppressed(mut self, suppressed: &'a [Rect]) -> Self {
        self.suppressed = suppressed;
        self
    }

    /// Restricts the transform (and so [`slab_file`](SweepPass::slab_file))
    /// to the objects whose rectangle meets the closed y-band `band` (see
    /// [`swept_rect`]): every tuple of the slab-file whose `y` lies in `band`
    /// is then the unrestricted pass's tuple — same `y`, sum and `x_lo` for
    /// integer weights — because every rectangle active at such a `y` meets
    /// the band.  [`max_rs`](SweepPass::max_rs) and the breakpoint scan
    /// ignore the band.  Default: [`Interval::UNBOUNDED`], every object.
    pub fn with_band(mut self, band: Interval) -> Self {
        self.band = band;
        self
    }

    /// The context this pass runs against.
    pub fn ctx(&self) -> &'a EmContext {
        self.ctx
    }

    /// The root x-slab of this pass.
    pub fn root(&self) -> Interval {
        self.root
    }

    /// Stage 1 — streams the object file into a rectangle file of the query
    /// size, scaling weights by the pass's weight scale and keeping only the
    /// rectangles the pass sweeps ([`swept_rect`]: not suppressed, meeting
    /// the band).  One transform-aware scan ([`EmContext::filter_map_file`]):
    /// `O(N/B)` I/Os, no intermediate staging.  The input file is left
    /// untouched.
    pub fn transform(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
    ) -> Result<TupleFile<RectRecord>> {
        let (scale, suppressed, band) = (self.weight_scale, self.suppressed, self.band);
        self.ctx
            .filter_map_file(objects, |rec: ObjectRecord| {
                swept_rect(suppressed, band, &rec, size)
                    .map(|rect| RectRecord::new(rect, scale * rec.0.weight))
            })
            .map_err(CoreError::from)
    }

    /// Stages 2–3 — runs the distribution-sweep recursion over the
    /// rectangles, in whatever order they come, returning the final
    /// slab-file of the pass's root slab (the y-sorted
    /// `⟨y, max-interval, sum⟩` tuples).  The input file is consumed;
    /// rectangle weights may be negative (only `WeightedPoint` insists on
    /// non-negativity).  `opts.parallelism` caps the workers that solve the
    /// top-level sub-slabs concurrently; the slab-file is the same for every
    /// worker count.
    pub fn sweep_rects(&self, rects: TupleFile<RectRecord>) -> Result<TupleFile<SlabTuple>> {
        let runner = Runner {
            ctx: self.ctx,
            opts: self.opts,
            workers: self.opts.effective_parallelism(self.ctx.config()),
        };
        runner.solve(rects, self.root, BoundarySource::SortedExact)
    }

    /// Stages 1–3 composed: transform, then sweep.
    pub fn slab_file(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
    ) -> Result<TupleFile<SlabTuple>> {
        let rects = self.transform(objects, size)?;
        self.sweep_rects(rects)
    }

    /// Stage 4a — scans a final slab-file for the best tuple and converts it
    /// into a (not yet canonicalized) result.
    pub fn extract_best(&self, slab_file: &TupleFile<SlabTuple>) -> Result<MaxRsResult> {
        extract_best(self.ctx, slab_file)
    }

    /// Stage 4b — sets a sweep result's max-interval to the full
    /// arrangement cell of the pass's root slab so it matches the in-memory
    /// sweep's report (module docs, "Canonical max-regions").  The winning
    /// `y`-strip, weight and lower x bound are already canonical; only the
    /// upper x bound (and with it the representative center) can sit on a
    /// slab boundary instead of a rectangle edge.
    pub fn canonicalize(
        &self,
        objects: &TupleFile<ObjectRecord>,
        size: RectSize,
        result: MaxRsResult,
    ) -> Result<MaxRsResult> {
        canonicalize(
            &FileHost::new(*self, objects),
            size,
            self.root,
            self.suppressed,
            result,
        )
    }

    /// The full pipeline: transform → sweep → extract → canonicalize.
    /// Returns the optimal location, the maximum range sum and the canonical
    /// max-region; all temporary files are deleted before returning and the
    /// input file is left untouched.
    pub fn max_rs(&self, objects: &TupleFile<ObjectRecord>, size: RectSize) -> Result<MaxRsResult> {
        if objects.is_empty() {
            return Ok(MaxRsResult::empty());
        }
        best_placement(
            &FileHost::new(*self, objects),
            size,
            self.weight_scale,
            self.root,
            self.suppressed,
        )
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
/// object filter of the transform ([`SweepPass::transform`]) and of the
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

/// Streams an object file into a rectangle file of the query size (stage 1 of
/// the kernel with identity weights) — kept as a free function for callers
/// outside the pipeline.
pub fn transform_to_rect_file(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
) -> Result<TupleFile<RectRecord>> {
    SweepPass::new(ctx, &ExactMaxRsOptions::default()).transform(objects, size)
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

/// Runs the distribution-sweep recursion over an **already distributed**
/// rectangle file: the caller has cropped the rectangles to `slab` (and
/// routed away anything outside it), so no transform happens here.  The
/// file's order is never read.  `sorted` names the variant of the first
/// node's [`BoundarySource`] — [`BoundarySource::SortedExact`] for `true`,
/// a [`BoundarySource::Sampled`] reservoir for `false` — but both draw from
/// a reservoir of the same 8,192 edges; the flag stays only because the
/// benchmark package (`benchmark/src/em.rs`) still passes it.  This is the
/// per-shard entry point of the sharded pass
/// ([`crate::shard`]): `maxrs-cluster`'s shard servers run one such solve
/// per owned slab, and the coordinator combines the slab-files through the
/// same span-event MergeSweep the recursion itself uses.
pub fn solve_rects(
    ctx: &EmContext,
    opts: &ExactMaxRsOptions,
    rects: TupleFile<RectRecord>,
    slab: Interval,
    sorted: bool,
    workers: usize,
) -> Result<TupleFile<SlabTuple>> {
    let runner = Runner {
        ctx,
        opts: *opts,
        workers: workers.max(1),
    };
    let source = if sorted {
        BoundarySource::SortedExact
    } else {
        BoundarySource::Sampled(DEFAULT_BOUNDARY_SAMPLE)
    };
    runner.solve(rects, slab, source)
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
    /// and returns the slab-file of `slab`.  `source` sizes the edge
    /// reservoir of this node's boundaries.
    fn solve(
        &self,
        input: TupleFile<RectRecord>,
        slab: Interval,
        source: BoundarySource,
    ) -> Result<TupleFile<SlabTuple>> {
        let n = input.len() as usize;
        if n <= self.memory_rects() {
            return self.solve_in_memory(input, slab);
        }

        // Divide the slab into at most m sub-slabs, fewer for a small slab,
        // with roughly equal rectangle-edge counts.
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
        let source = BoundarySource::Sampled(DEFAULT_BOUNDARY_SAMPLE);
        self.solve(input, slab, source)
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
        // in-memory slab after another on this thread, and the breakpoint /
        // event / segment-tree buffers are reused across all of them.
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
        let opts = ExactMaxRsOptions::sequential();
        let file = load_objects(&ctx, &objects).unwrap();

        // A weight scale of -1 turns the max into the (negated) min; over an
        // unbounded root the least-covered placement covers nothing.
        let negated = SweepPass::new(&ctx, &opts)
            .with_weight_scale(-1.0)
            .max_rs(&file, size)
            .unwrap();
        assert_eq!(negated.total_weight, 0.0);
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
        let everywhere = SweepPass::new(&ctx, &opts).max_rs(&file, size).unwrap();
        let right_only = SweepPass::new(&ctx, &opts)
            .with_root(Interval::new(400.0, 600.0))
            .max_rs(&file, size)
            .unwrap();
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

        let slab_file = pass.slab_file(&file, size).unwrap();
        let extracted = pass.extract_best(&slab_file).unwrap();
        ctx.delete_file(slab_file).unwrap();
        let staged = pass.canonicalize(&file, size, extracted).unwrap();

        assert_eq!(composed, staged);
        ctx.delete_file(file).unwrap();
    }
}
