//! Sharded datasets: x-partitioned parallel prepare and shard-routed queries.
//!
//! [`ShardedDataset`] splits the x-domain into `K` coarse shards at
//! boundaries picked by a sampling pass (so the shards hold roughly equal
//! object counts), then ingests and external-sorts every shard **concurrently**
//! on the [`parallel_map`] pool — the one-time `O((N/B) log_{M/B}(N/B))` sort
//! of [`MaxRsEngine::prepare`] becomes `K` independent sorts of `N/K` records
//! each, so prepare wall-clock scales with cores.  Each shard owns its own
//! [`PreparedDataset`] and block device: with [`ShardLayout::directories`]
//! the shards spread over different directories (and hence disks).
//!
//! ## Queries stay exact — and bit-identical
//!
//! A query rectangle can cover objects from several shards, and an *optimal*
//! placement can straddle a shard boundary.  Queries therefore do not solve
//! shards independently and pick the best: they run the **same distribution
//! sweep** the unsharded pipeline runs, with the shard partition as the
//! top-level slab partition:
//!
//! 1. every shard whose objects' rectangles can reach the query's root slab
//!    is scanned (shard routing, [`ShardRoute`]: a rect-size-inflated root
//!    selects the shards touched), its transformed rectangles cropped
//!    against the shard boundaries by the one crop rule
//!    ([`SlabPartition::crop`]) — end pieces go to the two end shards,
//!    fully-spanned shards receive a [`SpanEvent`] pair instead of `O(K)`
//!    rectangle copies;
//! 2. each shard solves its cropped rectangle file locally (the ordinary
//!    recursion of [`crate::sweep`], running on the shard's own device);
//! 3. the per-shard slab-files and the y-sorted spanning events merge
//!    through the flat MergeSweep ([`mod@crate::merge_sweep`]) at reader
//!    level, reading each shard's slab-file straight off its own device;
//! 4. the winning tuple gets its full arrangement cell (canonical
//!    max-regions, see [`crate::sweep`]) from the minimum next-breakpoint
//!    over the shards.
//!
//! Those steps are the dataset's [`SweepHost`] operations; the variants
//! themselves (top-k rounds, MinRS strips, ApproxMaxCRS refinement) come
//! from the one query driver, [`run_on_host`].
//!
//! Because canonical max-regions are partition-independent, the answers are
//! **bit-identical** to an unsharded [`PreparedDataset::run`] for every
//! [`Query`] variant — with the same caveat as the parallel slab stage: for
//! arbitrary float weights the regrouped additions carry the usual
//! association caveat, for integer-valued weights equality is exact.
//!
//! ```
//! use maxrs_core::{MaxRsEngine, Query, ShardLayout};
//! use maxrs_geometry::{RectSize, WeightedPoint};
//!
//! let objects: Vec<WeightedPoint> = (0..3000)
//!     .map(|i| WeightedPoint::unit((i % 60) as f64 * 5.0, (i / 60) as f64 * 6.0))
//!     .collect();
//! let engine = MaxRsEngine::new();
//! let sharded = engine.prepare_sharded(&objects, &ShardLayout::new(4)).unwrap();
//! assert_eq!(sharded.num_shards(), 4);
//!
//! // Same answer as the unsharded prepared dataset, bit for bit.
//! let query = Query::max_rs(RectSize::square(12.0));
//! let unsharded = engine.prepare(&objects).unwrap();
//! assert_eq!(
//!     sharded.run(&query).unwrap().answer,
//!     unsharded.run(&query).unwrap().answer,
//! );
//! ```

use std::path::PathBuf;

use maxrs_em::{
    external_sort_by_key, EmContext, FsDisk, IoSnapshot, Record, TupleFile, TupleWriter,
};
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::approx::evaluate_candidates;
use crate::batch::{run_on_host, QueryBatch, SweepHost};
use crate::engine::{EngineOptions, ExecutionStrategy, MaxRsEngine};
use crate::error::{CoreError, Result};
use crate::exact::{load_objects, sort_objects_by_x, ExactMaxRsOptions};
use crate::merge_sweep::merge_sweep_readers;
use crate::parallel::{available_parallelism, parallel_map};
use crate::prepared::PreparedDataset;
use crate::query::{Query, QueryRun};
use crate::records::{ObjectRecord, RectRecord, SlabTuple, SpanEvent};
use crate::slab::SlabPartition;
use crate::sweep::{is_suppressed, next_breakpoint_after, solve_rects};

/// How a [`ShardedDataset`] is laid out: how many shards, where their block
/// devices live, and how boundary selection samples the input.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    /// Requested number of x-shards (`K`); at least 1.  Duplicate quantiles
    /// (tie-heavy x) can reduce the actual shard count — see
    /// [`ShardedDataset::num_shards`].
    pub shards: usize,
    /// Directories the shards' devices are created in, assigned round-robin
    /// (`shard i` → `directories[i % len]`), so shards can live on different
    /// disks.  Each shard gets its **own** [`FsDisk`] with a unique file
    /// prefix, so directories may be shared.  Empty (the default) puts every
    /// shard on a fresh device of the configured
    /// [`StorageBackend`](maxrs_em::StorageBackend).
    pub directories: Vec<PathBuf>,
    /// Sampling cap of the boundary-selection pass: datasets up to this size
    /// are quantiled exactly, larger ones through a deterministic reservoir
    /// sample of this size (mirroring
    /// [`BoundarySource::Sampled`](crate::slab::BoundarySource)).
    pub boundary_sample: usize,
}

impl Default for ShardLayout {
    fn default() -> Self {
        ShardLayout {
            shards: available_parallelism(),
            directories: Vec::new(),
            boundary_sample: 8192,
        }
    }
}

impl ShardLayout {
    /// A layout of `shards` shards on the configured backend.
    pub fn new(shards: usize) -> Self {
        ShardLayout {
            shards,
            ..Default::default()
        }
    }

    /// Spreads the shards' devices over `directories`, round-robin.
    pub fn with_directories(mut self, directories: Vec<PathBuf>) -> Self {
        self.directories = directories;
        self
    }

    /// Overrides the boundary-selection sampling cap.
    pub fn with_boundary_sample(mut self, boundary_sample: usize) -> Self {
        self.boundary_sample = boundary_sample.max(1);
        self
    }
}

/// One shard: its prepared (x-sorted, externally stored) objects; shard `i`
/// owns [`shard_slab`]`(boundaries, i)`.
struct Shard {
    data: PreparedDataset<'static>,
    prepare_io: IoSnapshot,
}

/// A shard's context and retained x-sorted object file, as the sweep
/// machinery consumes them.
type ShardFile<'a> = (&'a EmContext, &'a TupleFile<ObjectRecord>);

/// Phase-1 output of one source shard: per-global-slab rectangle pieces
/// (written on the owning shard's context) plus its spanning events (written
/// on the merge context, unsorted).
struct SourceOut {
    pieces: Vec<Option<TupleFile<RectRecord>>>,
    spans: Option<TupleFile<SpanEvent>>,
}

/// An x-sharded dataset: `K` independently prepared shards answering every
/// [`Query`] variant through one shard-routed distribution sweep — see the
/// [module docs](crate::shard) for the pipeline and the bit-identity
/// guarantee.  Built by [`MaxRsEngine::prepare_sharded`].
pub struct ShardedDataset {
    opts: EngineOptions,
    /// Interior shard boundaries, strictly increasing (`num_shards - 1`).
    boundaries: Vec<f64>,
    shards: Vec<Shard>,
    /// Where spanning events and merged slab-files live: the cross-shard
    /// scratch device.
    merge_ctx: EmContext,
    len: u64,
}

impl std::fmt::Debug for ShardedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDataset")
            .field("len", &self.len)
            .field("shards", &self.shards.len())
            .field("boundaries", &self.boundaries)
            .finish_non_exhaustive()
    }
}

impl MaxRsEngine {
    /// Partitions `objects` into [`ShardLayout::shards`] x-shards (boundaries
    /// picked by a sampling pass so the shards are balanced) and prepares
    /// every shard **concurrently** on the [`parallel_map`] pool — the
    /// parallel counterpart of [`prepare`](MaxRsEngine::prepare), with each
    /// shard external-sorting `~N/K` records on its own block device.
    ///
    /// Answers from the returned [`ShardedDataset`] are bit-identical to the
    /// unsharded [`PreparedDataset`]'s for every query variant (integer
    /// weights; see the [module docs](crate::shard)).
    pub fn prepare_sharded(
        &self,
        objects: &[WeightedPoint],
        layout: &ShardLayout,
    ) -> Result<ShardedDataset> {
        ShardedDataset::prepare(self, objects, layout)
    }
}

impl ShardedDataset {
    pub(crate) fn prepare(
        engine: &MaxRsEngine,
        objects: &[WeightedPoint],
        layout: &ShardLayout,
    ) -> Result<ShardedDataset> {
        let opts = *engine.options();
        let k = layout.shards.max(1);
        let boundaries = select_shard_boundaries(objects, k, layout.boundary_sample);
        let num = boundaries.len() + 1;

        // Route each object to its shard: x on a boundary goes right,
        // mirroring `SlabPartition::locate` (so cross-checks against the
        // sweep's own routing agree on ties).
        let mut parts: Vec<Vec<WeightedPoint>> = (0..num).map(|_| Vec::new()).collect();
        for o in objects {
            let idx = boundaries.partition_point(|&b| b <= o.point.x);
            parts[idx].push(*o);
        }

        let workers = opts.exact.parallelism.max(1).min(num);
        let built = parallel_map(workers, parts, |i, part| {
            build_shard(opts, layout, i, &part)
        });

        let mut shards = Vec::with_capacity(num);
        for outcome in built {
            let (data, prepare_io) = outcome?;
            shards.push(Shard { data, prepare_io });
        }
        Ok(ShardedDataset {
            opts,
            boundaries,
            shards,
            merge_ctx: EmContext::new(opts.em_config),
            len: objects.len() as u64,
        })
    }

    /// Total number of objects across all shards.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the dataset holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Actual number of shards: the requested [`ShardLayout::shards`] unless
    /// boundary quantiles collapsed on tie-heavy x (all-equal x yields one
    /// shard, `n < K` distinct values yield at most `n` shards).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The interior shard boundaries, strictly increasing
    /// (`num_shards() - 1` values; shard `i` owns `[b_{i-1}, b_i)`).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Object count per shard, in x-order — the balance the sampling pass
    /// achieved.
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.data.len()).collect()
    }

    /// Blocks transferred by the one-time preprocessing, summed over the
    /// shards (each shard's external x-sort plus its flush; loading is
    /// excluded exactly as in [`PreparedDataset::prepare_io`]).
    pub fn prepare_io(&self) -> IoSnapshot {
        self.shards
            .iter()
            .fold(IoSnapshot::default(), |acc, s| acc + s.prepare_io)
    }

    /// Per-shard preprocessing I/O, in x-order.
    pub fn prepare_io_per_shard(&self) -> Vec<IoSnapshot> {
        self.shards.iter().map(|s| s.prepare_io).collect()
    }

    /// The short backend name of the shard devices ("sim", "fs").
    pub fn backend_name(&self) -> &'static str {
        self.shards
            .first()
            .and_then(|s| s.data.backend_name())
            .unwrap_or_else(|| self.merge_ctx.backend_name())
    }

    /// Estimated resident bytes: the retained sorted files of all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.data.resident_bytes()).sum()
    }

    /// Per-shard resident bytes, in x-order — the terms
    /// [`resident_bytes`](ShardedDataset::resident_bytes) sums, exposed so
    /// cache accounting (e.g. the serving registry's memory budget) can be
    /// audited shard by shard.
    pub fn resident_bytes_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.data.resident_bytes())
            .collect()
    }

    /// How many shards `query` routes to: the shards whose objects'
    /// transformed rectangles can reach the query's root slab once it is
    /// inflated by half the rectangle width.  `num_shards()` for the
    /// unbounded-root variants (MaxRS, top-k, ApproxMaxCRS), possibly fewer
    /// for MinRS over a narrow center domain.
    pub fn shards_touched(&self, query: &Query) -> usize {
        ShardRoute::engaged_by(&self.boundaries, query).len()
    }

    /// Answers one query — see [`run_batch`](ShardedDataset::run_batch).
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        let mut runs = self.run_batch(std::slice::from_ref(query))?;
        Ok(runs.pop().expect("one query in, one run out"))
    }

    /// Validates and plans `queries` into sweep groups, then answers them —
    /// the sharded counterpart of [`PreparedDataset::run_batch`], with the
    /// same grouping and the same per-variant answers.
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        self.run_planned(&QueryBatch::new(queries)?)
    }

    /// Executes an already planned batch through the query driver
    /// ([`run_on_host`]): groups run one after another (so per-query I/O
    /// attribution uses plain counter deltas over all shard devices), while
    /// **within** every sweep phase the shards run concurrently on the
    /// [`parallel_map`] pool.
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        let workers = self.opts.exact.parallelism.max(1).min(self.shards.len());
        let strategy = if workers > 1 {
            ExecutionStrategy::ExternalParallel
        } else {
            ExecutionStrategy::ExternalSequential
        };
        run_on_host(self, batch, strategy, workers)
    }

    // ---- internals -------------------------------------------------------

    fn shard_files(&self) -> Vec<ShardFile<'_>> {
        self.shards
            .iter()
            .map(|s| s.data.external_parts().expect("shards are always external"))
            .collect()
    }

    /// Transfers across every shard device plus the merge device — the
    /// dataset-wide counter the query phases meter against.
    fn stats_total(&self) -> IoSnapshot {
        self.shards
            .iter()
            .filter_map(|s| s.data.external_parts())
            .fold(self.merge_ctx.stats(), |acc, (ctx, _)| acc + ctx.stats())
    }

    fn phase_workers(&self, n: usize) -> usize {
        self.opts.exact.parallelism.max(1).min(n.max(1))
    }

    /// The sharded distribution sweep for one `(size, weight_scale, root)`
    /// pass: distribute (per source shard, concurrent) → solve (per global
    /// slab inside its owner shard, concurrent) → MergeSweep over per-shard
    /// readers.  Returns the merged root slab-file on the merge context.
    fn sharded_slab_file(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
    ) -> Result<TupleFile<SlabTuple>> {
        let files = &self.shard_files();
        let ShardRoute {
            partition,
            owners,
            engaged,
        } = ShardRoute::new(&self.boundaries, size, root);
        let m = partition.num_slabs();

        // Phase 1 — shard routing: every engaged source crops its rectangles
        // against the global partition, writing end pieces into the owner
        // shards' devices and span-event pairs onto the merge device.
        let outs = parallel_map(self.phase_workers(engaged.len()), engaged, |_, s| {
            self.distribute_source(
                files,
                s,
                &partition,
                &owners,
                (size, weight_scale),
                suppressed,
            )
        });
        let mut sources: Vec<SourceOut> = Vec::with_capacity(outs.len());
        let mut first_err = None;
        for out in outs {
            match out {
                Ok(o) => sources.push(o),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            for src in sources {
                self.discard_source_out(files, &owners, src);
            }
            return Err(e);
        }

        // Phase 2 — per-shard solves: concatenate each global slab's pieces
        // (fixed source order keeps the stream deterministic) and run the
        // ordinary recursion inside the owner shard.
        let slab_outs = parallel_map(self.phase_workers(m), (0..m).collect(), |_, t| {
            self.solve_slab(files, &owners, &partition, t, &sources)
        });
        // Each solved file stays paired with its slab, so a failure deletes
        // it on its owner's device even when other slabs are missing.
        let mut slab_files: Vec<(usize, TupleFile<SlabTuple>)> = Vec::with_capacity(m);
        let mut first_err = None;
        for (t, out) in slab_outs.into_iter().enumerate() {
            match out {
                Ok(f) => slab_files.push((t, f)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        let spans = if first_err.is_none() {
            match self.collect_spans(&sources) {
                Ok(f) => Some(f),
                Err(e) => {
                    first_err = Some(e);
                    None
                }
            }
        } else {
            for src in &sources {
                if let Some(f) = &src.spans {
                    let _ = self.merge_ctx.delete_file(f.clone());
                }
            }
            None
        };
        if let Some(e) = first_err {
            for (t, f) in slab_files {
                let _ = files[owners[t]].0.delete_file(f);
            }
            if let Some(f) = spans {
                let _ = self.merge_ctx.delete_file(f);
            }
            return Err(e);
        }
        let spans = spans.expect("span file collected");

        // Phase 3 — MergeSweep straight over per-shard readers: each reader
        // borrows only the device its slab-file lives on.
        let slabs = partition.slabs();
        let readers = slab_files
            .iter()
            .map(|(t, f)| files[owners[*t]].0.open_reader(f))
            .collect();
        let span_reader = self.merge_ctx.open_reader(&spans);
        let merged = merge_sweep_readers(&self.merge_ctx, readers, &slabs, span_reader);

        for (t, f) in slab_files {
            let delete = files[owners[t]].0.delete_file(f);
            if merged.is_ok() {
                delete?;
            }
        }
        let delete = self.merge_ctx.delete_file(spans);
        if merged.is_ok() {
            delete?;
        }
        merged
    }

    /// Phase 1 for one source shard: the crop rule of
    /// [`distribute`](crate::slab::distribute), streamed from the shard's
    /// sorted objects with the transform and the top-k suppression fused in.
    fn distribute_source(
        &self,
        files: &[ShardFile<'_>],
        source: usize,
        partition: &SlabPartition,
        owners: &[usize],
        (size, weight_scale): (RectSize, f64),
        suppressed: &[Rect],
    ) -> Result<SourceOut> {
        let m = partition.num_slabs();
        let (src_ctx, src_file) = files[source];
        let mut writers: Vec<Option<TupleWriter<'_, RectRecord>>> = (0..m).map(|_| None).collect();
        let mut span_writer: Option<TupleWriter<'_, SpanEvent>> = None;

        let mut reader = src_ctx.open_reader(src_file);
        let body = (|| -> Result<()> {
            while let Some(rec) = reader.next_record()? {
                if is_suppressed(suppressed, &rec) {
                    continue;
                }
                let record = RectRecord::new(rec.0.to_rect(size), weight_scale * rec.0.weight);
                let crop = partition.crop(&record);
                for (t, piece) in crop.pieces.into_iter().flatten() {
                    push_piece(files, owners, &mut writers, t, &piece)?;
                }
                if let Some(events) = crop.span {
                    let writer = match span_writer.as_mut() {
                        Some(w) => w,
                        None => span_writer.insert(self.merge_ctx.create_writer::<SpanEvent>()?),
                    };
                    for e in events {
                        writer.push(&e)?;
                    }
                }
            }
            Ok(())
        })();

        // Materialize every writer even on error, so cleanup deals with real
        // files instead of leaking half-written ones on long-lived devices.
        let mut first_err = body.err();
        let mut pieces: Vec<Option<TupleFile<RectRecord>>> = Vec::with_capacity(m);
        for w in writers {
            match w {
                Some(w) => match w.finish() {
                    Ok(f) => pieces.push(Some(f)),
                    Err(e) => {
                        first_err = first_err.or(Some(e.into()));
                        pieces.push(None);
                    }
                },
                None => pieces.push(None),
            }
        }
        let spans = match span_writer {
            Some(w) => match w.finish() {
                Ok(f) => Some(f),
                Err(e) => {
                    first_err = first_err.or(Some(e.into()));
                    None
                }
            },
            None => None,
        };
        let out = SourceOut { pieces, spans };
        match first_err {
            Some(e) => {
                self.discard_source_out(files, owners, out);
                Err(e)
            }
            None => Ok(out),
        }
    }

    fn discard_source_out(&self, files: &[ShardFile<'_>], owners: &[usize], out: SourceOut) {
        for (t, f) in out.pieces.into_iter().enumerate() {
            if let Some(f) = f {
                let _ = files[owners[t]].0.delete_file(f);
            }
        }
        if let Some(f) = out.spans {
            let _ = self.merge_ctx.delete_file(f);
        }
    }

    /// Phase 2 for one global slab: concatenate its pieces in source order on
    /// the owner shard's device and run the ordinary (sequential, sampled-
    /// boundary) recursion there — exactly what the unsharded parallel slab
    /// stage does per child.  Every piece is deleted whether or not the
    /// concatenation succeeds, and so is a partial concatenation.
    fn solve_slab(
        &self,
        files: &[ShardFile<'_>],
        owners: &[usize],
        partition: &SlabPartition,
        t: usize,
        sources: &[SourceOut],
    ) -> Result<TupleFile<SlabTuple>> {
        let ctx = files[owners[t]].0;
        let pieces: Vec<_> = sources
            .iter()
            .filter_map(|s| s.pieces[t].as_ref())
            .collect();
        let concatenated = concatenate(ctx, &pieces);
        let mut deleted = Ok(());
        for f in pieces {
            deleted = deleted.and(ctx.delete_file(f.clone()));
        }
        let rects = match (concatenated, deleted) {
            (Ok(rects), Ok(())) => rects,
            (Ok(rects), Err(e)) => {
                let _ = ctx.delete_file(rects);
                return Err(e.into());
            }
            (Err(e), _) => return Err(e),
        };
        let opts = ExactMaxRsOptions {
            parallelism: 1,
            ..self.opts.exact
        };
        solve_rects(ctx, &opts, rects, partition.slab(t), false, 1)
    }

    /// Concatenates the per-source span files in source order and y-sorts the
    /// result on the merge device — the sharded mirror of the span sort in
    /// [`distribute`](crate::slab::distribute).
    fn collect_spans(&self, sources: &[SourceOut]) -> Result<TupleFile<SpanEvent>> {
        let ctx = &self.merge_ctx;
        let parts: Vec<_> = sources.iter().filter_map(|s| s.spans.as_ref()).collect();
        let unsorted = concatenate(ctx, &parts);
        for f in parts {
            let _ = ctx.delete_file(f.clone());
        }
        let unsorted = unsorted?;
        let sorted = external_sort_by_key(ctx, &unsorted, |e| e.y);
        match (sorted, ctx.delete_file(unsorted)) {
            (Ok(sorted), Ok(())) => Ok(sorted),
            (Ok(sorted), Err(e)) => {
                let _ = ctx.delete_file(sorted);
                Err(e.into())
            }
            (Err(e), _) => Err(e.into()),
        }
    }
}

impl SweepHost for ShardedDataset {
    type Error = CoreError;

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn scratch(&self) -> &EmContext {
        &self.merge_ctx
    }

    fn sweep(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
    ) -> Result<TupleFile<SlabTuple>> {
        self.sharded_slab_file(size, weight_scale, root, suppressed)
    }

    /// The **minimum** of the engaged shards' breakpoints and `root.hi` —
    /// each engaged shard scans only its own objects, and a shard the pass
    /// does not engage has no rectangle reaching the root, so together this
    /// is exactly the one-file scan of the unsharded dataset.
    fn next_breakpoint(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
        x: f64,
    ) -> Result<f64> {
        let files = self.shard_files();
        let mut hi = if root.hi > x { root.hi } else { f64::INFINITY };
        for s in ShardRoute::engaged_shards(&self.boundaries, size, root) {
            let (ctx, file) = files[s];
            hi = hi.min(next_breakpoint_after(ctx, file, size, root, suppressed, x)?);
        }
        Ok(hi)
    }

    /// Each shard scans its own objects; the partial sums accumulate in
    /// shard (= x) order.
    fn candidate_sums(&self, candidates: &[Point], diameter: f64) -> Result<Vec<f64>> {
        let mut totals = vec![0.0f64; candidates.len()];
        for (ctx, file) in self.shard_files() {
            let sums = evaluate_candidates(ctx, file, candidates, diameter)?;
            for (t, s) in totals.iter_mut().zip(sums) {
                *t += s;
            }
        }
        Ok(totals)
    }

    fn objects(&self) -> Result<Vec<WeightedPoint>> {
        let mut points = Vec::with_capacity(self.len as usize);
        for (ctx, file) in self.shard_files() {
            points.extend(ctx.read_all(file)?.iter().map(|r| r.0));
        }
        Ok(points)
    }

    fn io(&self) -> IoSnapshot {
        self.stats_total()
    }
}

/// How one sweep pass routes over an x-sharded dataset — the one routing
/// rule of [`ShardedDataset`] and of `maxrs-cluster`'s coordinator, so a
/// remote pass splits exactly like a local one.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRoute {
    /// The top-level slab partition: the shard boundaries strictly inside
    /// the root, with the root's own bounds as the outer walls.
    pub partition: SlabPartition,
    /// The shard owning each slab of `partition`.
    pub owners: Vec<usize>,
    /// The source shards whose objects' rectangles can reach the root,
    /// ascending.
    pub engaged: Vec<usize>,
}

impl ShardRoute {
    /// Routes a pass of `size` rectangles over `root` across the shards
    /// split at the interior `boundaries`.
    pub fn new(boundaries: &[f64], size: RectSize, root: Interval) -> Self {
        let mut bounds = Vec::with_capacity(boundaries.len() + 2);
        bounds.push(root.lo);
        bounds.extend(
            boundaries
                .iter()
                .copied()
                .filter(|&b| b > root.lo && b < root.hi),
        );
        bounds.push(root.hi);
        let partition = SlabPartition::new(bounds);
        let owners = partition.boundaries[..partition.num_slabs()]
            .iter()
            .map(|&lo| boundaries.partition_point(|&b| b <= lo))
            .collect();
        ShardRoute {
            partition,
            owners,
            engaged: Self::engaged_shards(boundaries, size, root),
        }
    }

    /// The source shards the first pass of `query` engages: over the
    /// domain's x-slab for MinRS, over the unbounded root otherwise.
    pub fn engaged_by(boundaries: &[f64], query: &Query) -> Vec<usize> {
        let (size, root) = query.first_pass();
        Self::engaged_shards(boundaries, size, root)
    }

    /// The shards whose objects' rectangles can reach `root`, ascending:
    /// shard slab inflated by half the rectangle width, kept unless
    /// **strictly** out of reach (degenerate touching stays in, so boundary
    /// ties are routed exactly like the unsharded sweep clips them).
    pub fn engaged_shards(boundaries: &[f64], size: RectSize, root: Interval) -> Vec<usize> {
        let half = size.width / 2.0;
        (0..=boundaries.len())
            .filter(|&i| {
                let s = shard_slab(boundaries, i);
                !(s.hi + half < root.lo || s.lo - half > root.hi)
            })
            .collect()
    }
}

/// Concatenates `parts` in order into a new file on `ctx`; on failure the
/// partial concatenation is deleted before the error returns.
fn concatenate<T: Record>(ctx: &EmContext, parts: &[&TupleFile<T>]) -> Result<TupleFile<T>> {
    let mut writer = ctx.create_writer::<T>()?;
    let copied = parts.iter().try_for_each(|f| -> Result<()> {
        let mut reader = ctx.open_reader(f);
        while let Some(rec) = reader.next_record()? {
            writer.push(&rec)?;
        }
        Ok(())
    });
    let finished = writer.finish();
    match copied {
        Ok(()) => Ok(finished?),
        Err(e) => {
            if let Ok(file) = finished {
                let _ = ctx.delete_file(file);
            }
            Err(e)
        }
    }
}

/// Lazily opens the piece writer of global slab `t` on its owner's device.
fn push_piece<'a>(
    files: &[ShardFile<'a>],
    owners: &[usize],
    writers: &mut [Option<TupleWriter<'a, RectRecord>>],
    t: usize,
    record: &RectRecord,
) -> Result<()> {
    let writer = match writers[t].as_mut() {
        Some(w) => w,
        None => {
            let w = files[owners[t]].0.create_writer::<RectRecord>()?;
            writers[t].insert(w)
        }
    };
    writer.push(record)?;
    Ok(())
}

/// Builds one shard of a [`ShardedDataset`], resolving its directory from
/// the layout's round-robin assignment.
fn build_shard(
    opts: EngineOptions,
    layout: &ShardLayout,
    index: usize,
    objects: &[WeightedPoint],
) -> Result<(PreparedDataset<'static>, IoSnapshot)> {
    let dir = if layout.directories.is_empty() {
        None
    } else {
        Some(layout.directories[index % layout.directories.len()].as_path())
    };
    prepare_shard(opts, dir, objects)
}

/// Prepares one shard on its own context (optionally on a dedicated
/// directory): load, external x-sort, flush — the per-shard body of
/// [`MaxRsEngine::prepare`], measured identically (loading excluded).  The
/// shard is always stored externally, so its
/// [`external_parts`](PreparedDataset::external_parts) are available to
/// sweep machinery spanning several shards — this is the building block both
/// [`ShardedDataset`] and the remote shard servers of `maxrs-cluster` build
/// their shards with.
pub fn prepare_shard(
    opts: EngineOptions,
    directory: Option<&std::path::Path>,
    objects: &[WeightedPoint],
) -> Result<(PreparedDataset<'static>, IoSnapshot)> {
    let ctx = match directory {
        None => Box::new(EmContext::new(opts.em_config)),
        Some(dir) => {
            let disk = FsDisk::new_in(dir, opts.em_config.block_size)?;
            Box::new(EmContext::with_device(opts.em_config, Box::new(disk)))
        }
    };
    let raw = load_objects(&ctx, objects)?;
    let before = ctx.stats();
    let sorted = sort_objects_by_x(&ctx, &raw)?;
    ctx.delete_file(raw)?;
    ctx.flush_file(&sorted)?;
    let prepare_io = ctx.stats().since(&before);
    Ok((
        PreparedDataset::from_sorted_owned(opts, ctx, sorted, prepare_io),
        prepare_io,
    ))
}

/// The x-interval shard `i` owns, given the interior boundaries: shard 0
/// owns `(-∞, b₁)`, the last shard `[b_{K-1}, +∞)`, and objects exactly on a
/// boundary belong to the shard on its right (mirroring
/// [`SlabPartition::locate`]).
pub fn shard_slab(boundaries: &[f64], i: usize) -> Interval {
    let lo = if i == 0 {
        f64::NEG_INFINITY
    } else {
        boundaries[i - 1]
    };
    let hi = if i == boundaries.len() {
        f64::INFINITY
    } else {
        boundaries[i]
    };
    Interval::new(lo, hi)
}

/// Picks up to `k - 1` strictly increasing interior boundaries from the
/// x-quantiles of a deterministic sample, so the shards hold roughly equal
/// object counts even on skewed inputs.  Datasets within the sampling cap
/// are quantiled exactly; larger ones go through the same xorshift reservoir
/// idiom as [`compute_partition`](crate::slab::compute_partition), so the
/// result is a pure function of the input.  Shared by [`ShardedDataset`] and
/// the cluster layer, so a remote partition splits exactly like a local one.
pub fn select_shard_boundaries(objects: &[WeightedPoint], k: usize, sample_cap: usize) -> Vec<f64> {
    if k <= 1 || objects.len() < 2 {
        return Vec::new();
    }
    let cap = sample_cap.max(k * 4);
    let mut sample: Vec<f64> = if objects.len() <= cap {
        objects.iter().map(|o| o.point.x).collect()
    } else {
        let mut state =
            0x9E3779B97F4A7C15u64 ^ (objects.len() as u64).wrapping_mul(0x2545F4914F6CDD1D);
        let mut next_rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sample = Vec::with_capacity(cap);
        for (seen, o) in objects.iter().enumerate() {
            if sample.len() < cap {
                sample.push(o.point.x);
            } else {
                let j = (next_rand() % (seen as u64 + 1)) as usize;
                if j < cap {
                    sample[j] = o.point.x;
                }
            }
        }
        sample
    };
    sample.sort_unstable_by(f64::total_cmp);
    let len = sample.len();
    // Quantile boundaries, deduplicated to a strictly increasing run; a
    // boundary at the global minimum would leave an empty leading shard
    // (objects at a boundary go right), so `last` starts there.
    let mut boundaries = Vec::with_capacity(k - 1);
    let mut last = sample[0];
    for i in 1..k {
        let b = sample[(i * len / k).min(len - 1)];
        if b > last {
            boundaries.push(b);
            last = b;
        }
    }
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryAnswer;
    use crate::result::{MaxCrsResult, MaxRsResult};
    use maxrs_em::EmConfig;

    fn small_engine() -> MaxRsEngine {
        MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 32 * 512).unwrap(),
            exact: ExactMaxRsOptions::default(),
            force_strategy: None,
        })
    }

    fn grid_objects(n: usize) -> Vec<WeightedPoint> {
        (0..n)
            .map(|i| WeightedPoint::unit((i % 97) as f64 * 3.0, (i / 97) as f64 * 2.0))
            .collect()
    }

    fn ratio(lens: &[u64]) -> f64 {
        let max = *lens.iter().max().unwrap() as f64;
        let min = *lens.iter().min().unwrap() as f64;
        max / min.max(1.0)
    }

    #[test]
    fn boundaries_balance_clustered_input() {
        // Three tight clusters of very different mass: equal-width splits
        // would starve two shards; quantile splits keep counts balanced.
        let objects = maxrs_datagen::clustered(6_000, 1_000.0, 11);
        let engine = small_engine();
        let layout = ShardLayout::new(4).with_boundary_sample(16_384);
        let sharded = engine.prepare_sharded(&objects, &layout).unwrap();
        assert_eq!(sharded.num_shards(), 4);
        let lens = sharded.shard_lens();
        assert_eq!(lens.iter().sum::<u64>(), 6_000);
        assert!(
            ratio(&lens) <= 1.5,
            "clustered split unbalanced: {lens:?} (ratio {})",
            ratio(&lens)
        );
    }

    #[test]
    fn boundaries_balance_zipf_input() {
        let objects = maxrs_datagen::zipf_x(6_000, 1_000.0, 1.1, 13);
        let engine = small_engine();
        let layout = ShardLayout::new(4).with_boundary_sample(16_384);
        let sharded = engine.prepare_sharded(&objects, &layout).unwrap();
        let lens = sharded.shard_lens();
        assert_eq!(lens.iter().sum::<u64>(), 6_000);
        // Zipf x has heavy duplicate mass at the hot values; everything that
        // shares an x must share a shard, so allow a looser bound.
        assert!(
            sharded.num_shards() >= 2,
            "zipf input should still split: {lens:?}"
        );
        assert!(
            ratio(&lens) <= 4.0,
            "zipf split unbalanced: {lens:?} (ratio {})",
            ratio(&lens)
        );
    }

    #[test]
    fn all_equal_x_collapses_to_one_shard() {
        let objects: Vec<WeightedPoint> = (0..500)
            .map(|i| WeightedPoint::unit(42.0, i as f64))
            .collect();
        let sharded = small_engine()
            .prepare_sharded(&objects, &ShardLayout::new(8))
            .unwrap();
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.shard_lens(), vec![500]);
        assert!(sharded.boundaries().is_empty());
    }

    #[test]
    fn fewer_objects_than_shards() {
        let objects = vec![
            WeightedPoint::unit(1.0, 0.0),
            WeightedPoint::unit(2.0, 0.0),
            WeightedPoint::unit(3.0, 0.0),
        ];
        let sharded = small_engine()
            .prepare_sharded(&objects, &ShardLayout::new(16))
            .unwrap();
        assert!(sharded.num_shards() <= 3, "{} shards", sharded.num_shards());
        assert_eq!(sharded.len(), 3);
        assert_eq!(sharded.shard_lens().iter().sum::<u64>(), 3);
    }

    #[test]
    fn k1_layout_matches_unsharded_answers() {
        let objects = grid_objects(1_500);
        let engine = small_engine();
        let sharded = engine
            .prepare_sharded(&objects, &ShardLayout::new(1))
            .unwrap();
        assert_eq!(sharded.num_shards(), 1);
        let prepared = engine.prepare(&objects).unwrap();
        let query = Query::max_rs(RectSize::square(10.0));
        assert_eq!(
            sharded.run(&query).unwrap().answer,
            prepared.run(&query).unwrap().answer
        );
    }

    #[test]
    fn empty_dataset_answers_all_variants() {
        let sharded = small_engine()
            .prepare_sharded(&[], &ShardLayout::new(4))
            .unwrap();
        assert!(sharded.is_empty());
        assert_eq!(sharded.num_shards(), 1);
        let domain = Rect::new(0.0, 10.0, 0.0, 10.0);
        let runs = sharded
            .run_batch(&[
                Query::max_rs(RectSize::square(2.0)),
                Query::top_k(RectSize::square(2.0), 3),
                Query::min_rs(RectSize::square(2.0), domain),
                Query::approx_max_crs(2.0),
            ])
            .unwrap();
        assert_eq!(runs[0].answer, QueryAnswer::MaxRs(MaxRsResult::empty()));
        assert_eq!(runs[1].answer, QueryAnswer::TopK(Vec::new()));
        assert_eq!(runs[2].answer.as_max_rs().unwrap().center, domain.center());
        assert_eq!(runs[3].answer, QueryAnswer::MaxCrs(MaxCrsResult::empty()));
    }

    #[test]
    fn shards_touched_routes_min_rs_by_domain() {
        let objects = grid_objects(4_000);
        let sharded = small_engine()
            .prepare_sharded(&objects, &ShardLayout::new(4))
            .unwrap();
        assert_eq!(sharded.num_shards(), 4);
        // Unbounded-root variants touch every shard.
        assert_eq!(
            sharded.shards_touched(&Query::max_rs(RectSize::square(4.0))),
            4
        );
        // A narrow MinRS domain reaches only the shards near it.
        let narrow = Rect::new(0.0, 1.0, 0.0, 50.0);
        let touched = sharded.shards_touched(&Query::min_rs(RectSize::square(4.0), narrow));
        assert!(touched < 4, "narrow domain touched all {touched} shards");
        assert!(touched >= 1);
    }

    /// A failed concatenation still deletes every piece of its slab and the
    /// partial concatenation, leaving the owner device as it was.
    #[test]
    fn solve_slab_cleans_up_after_a_failed_piece_read() {
        let sharded = small_engine()
            .prepare_sharded(&grid_objects(1_200), &ShardLayout::new(2))
            .unwrap();
        let files = sharded.shard_files();
        let route = ShardRoute::new(
            &sharded.boundaries,
            RectSize::square(4.0),
            Interval::UNBOUNDED,
        );
        let t = 0;
        let owner = files[route.owners[t]].0;
        let baseline = (owner.num_files(), owner.disk_blocks());

        let rects: Vec<RectRecord> = (0..200)
            .map(|i| RectRecord::new(Rect::new(i as f64, i as f64 + 1.0, 0.0, 1.0), 1.0))
            .collect();
        let source = || {
            let mut pieces = vec![None; route.partition.num_slabs()];
            pieces[t] = Some(owner.write_all(&rects).unwrap());
            SourceOut {
                pieces,
                spans: None,
            }
        };
        let (live, stale) = (source(), source());
        owner.delete_file(stale.pieces[t].clone().unwrap()).unwrap();

        let err = sharded
            .solve_slab(&files, &route.owners, &route.partition, t, &[live, stale])
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Em(maxrs_em::EmError::FileNotFound(_))),
            "{err:?}"
        );
        assert_eq!((owner.num_files(), owner.disk_blocks()), baseline);
    }

    /// Canonicalization scans only the engaged shards: a narrow-domain
    /// MinRS leaves every other shard's device untouched.
    #[test]
    fn narrow_min_rs_leaves_unengaged_shards_unread() {
        let sharded = small_engine()
            .prepare_sharded(&grid_objects(4_000), &ShardLayout::new(4))
            .unwrap();
        assert_eq!(sharded.num_shards(), 4);
        let query = Query::min_rs(RectSize::square(4.0), Rect::new(0.0, 1.0, 0.0, 50.0));
        let engaged = ShardRoute::engaged_by(&sharded.boundaries, &query);
        assert!(engaged.len() < 4, "the domain engages every shard");
        let io = |ds: &ShardedDataset| -> Vec<IoSnapshot> {
            ds.shard_files()
                .iter()
                .map(|(ctx, _)| ctx.stats())
                .collect()
        };
        let before = io(&sharded);
        let run = sharded.run(&query).unwrap();
        let after = io(&sharded);
        for s in 0..4 {
            if !engaged.contains(&s) {
                assert_eq!(after[s], before[s], "shard {s} is not engaged");
            }
        }
        let prepared = small_engine().prepare(&grid_objects(4_000)).unwrap();
        assert_eq!(run.answer, prepared.run(&query).unwrap().answer);
    }

    #[test]
    fn directories_layout_puts_shards_on_fs_devices() {
        let tmp = std::env::temp_dir().join(format!(
            "maxrs-shard-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let objects = grid_objects(1_200);
        let engine = small_engine();
        let layout = ShardLayout::new(2).with_directories(vec![tmp.clone()]);
        let sharded = engine.prepare_sharded(&objects, &layout).unwrap();
        assert_eq!(sharded.backend_name(), "fs");
        assert!(tmp.exists(), "shard directory was not created");
        let query = Query::max_rs(RectSize::square(9.0));
        let prepared = engine.prepare(&objects).unwrap();
        assert_eq!(
            sharded.run(&query).unwrap().answer,
            prepared.run(&query).unwrap().answer
        );
        drop(sharded);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
