//! ExactMaxRS: the external-memory distribution-sweep algorithm (Section 5).
//!
//! Pipeline:
//!
//! 1. **Transform** every object into a rectangle of the query size centered
//!    at the object (`O(N/B)` I/Os).
//! 2. **Sort** the rectangles by center x with the external merge sort
//!    (`O((N/B) log_{M/B}(N/B))` I/Os).
//! 3. **Recurse**: if the rectangles of the current slab fit in the memory
//!    budget `M`, run the in-memory plane sweep; otherwise divide the slab
//!    of `n` rectangles into at most `min(m, ⌈2.5·n/M⌉)` sub-slabs,
//!    `m = Θ(M/B)`, at rectangle-edge quantiles
//!    ([`crate::slab::compute_partition`]), distribute the rectangles
//!    ([`crate::slab::distribute`]), solve each sub-slab recursively and
//!    combine the child slab-files with [`merge_sweep`](crate::merge_sweep()).
//! 4. **Extract** the best tuple of the final slab-file and **canonicalize**
//!    it (widen to the full arrangement cell — see [`crate::sweep`],
//!    "Canonical max-regions").
//!
//! All four stages live in the **sweep kernel** ([`crate::sweep::SweepPass`]);
//! this module keeps the classic entry point [`exact_max_rs`] — one kernel
//! pass with identity weights over an unbounded root slab — together with its
//! tuning knobs ([`ExactMaxRsOptions`]) and the object-file helpers.  Callers
//! that need a different input order, a weight scale or a root slab (the
//! prepared fast path, MinRS, the batched executor) parameterize a
//! [`SweepPass`] directly instead of going through per-variant forks of this
//! pipeline.

use maxrs_em::{external_sort_by_key, EmConfig, EmContext, TupleFile};
use maxrs_geometry::{RectSize, WeightedPoint};

use crate::error::{CoreError, Result};
use crate::parallel::available_parallelism;
use crate::records::ObjectRecord;
use crate::result::MaxRsResult;
use crate::sweep::SweepPass;

/// Minimum buffer-pool blocks each parallel worker needs before adding more
/// workers pays off: roughly one input block, one output block and headroom
/// for the merge inputs.  Below this the shared pool thrashes, so
/// [`ExactMaxRsOptions::effective_parallelism`] caps the worker count.
const MIN_POOL_BLOCKS_PER_WORKER: usize = 8;

/// Tuning knobs of [`exact_max_rs`] and every other [`SweepPass`]-based
/// pipeline.  The defaults follow the EM configuration of the context (`M`
/// and `m` derived from the buffer size), exactly like the paper's
/// experiments; overrides exist for tests and ablation studies.
#[derive(Debug, Clone, Copy)]
pub struct ExactMaxRsOptions {
    /// Override for the largest distribution fan-out `m` (default:
    /// `EmConfig::fanout`).  It is an upper bound: a slab of `n` rectangles
    /// is split into at most `max(2, ⌈2.5·n/M⌉)` sub-slabs (see
    /// [`compute_partition`](crate::slab::compute_partition)).
    pub fanout: Option<usize>,
    /// Override for the in-memory threshold `M`, in rectangles (default:
    /// `EmConfig::mem_records::<RectRecord>()`).  It moves only the leaf
    /// threshold; the fan-out cap counts the configuration's `M`.
    pub memory_rects: Option<usize>,
    /// Reservoir size of the rectangle-edge sample that slab boundaries are
    /// drawn from, except at the root of a center-x-sorted pass, which
    /// samples [`BoundarySource::SortedExact`](crate::slab::BoundarySource)'s
    /// default of 8,192.
    pub boundary_sample: usize,
    /// Maximum number of worker threads for the parallel slab stage
    /// (default: the available core count; `1` runs the paper's sequential
    /// distribution sweep).
    ///
    /// With more than one worker, the sub-slabs of the top recursion node are
    /// solved concurrently, each sequentially inside its worker, and their
    /// slab-files are combined by the same flat `m`-way
    /// [`merge_sweep`](crate::merge_sweep()) the sequential sweep runs, so
    /// the result is bit-identical for any weights.  The worker count
    /// actually used is additionally capped by the buffer size — see
    /// [`ExactMaxRsOptions::effective_parallelism`].
    ///
    /// **Memory-model note:** each worker keeps the full in-memory budget
    /// `M` for its base cases (as in the parallel-EM model, where every
    /// processor owns a private memory of size `M`), so a parallel run may
    /// hold up to `workers x M` bytes of rectangle data at once.  Keeping the
    /// per-worker threshold at `M` — rather than dividing it — is what makes
    /// the recursion shape, and therefore the result, identical to the
    /// sequential sweep.
    pub parallelism: usize,
}

impl Default for ExactMaxRsOptions {
    fn default() -> Self {
        ExactMaxRsOptions {
            fanout: None,
            memory_rects: None,
            boundary_sample: crate::slab::DEFAULT_BOUNDARY_SAMPLE,
            parallelism: available_parallelism(),
        }
    }
}

impl ExactMaxRsOptions {
    /// The default options with the parallel slab stage disabled: exactly the
    /// paper's sequential distribution sweep.
    pub fn sequential() -> Self {
        ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        }
    }

    /// The default options with an explicit worker-thread cap.
    pub fn with_parallelism(workers: usize) -> Self {
        ExactMaxRsOptions {
            parallelism: workers.max(1),
            ..Default::default()
        }
    }

    /// The number of workers the sweep will actually use under `config`:
    /// [`parallelism`](ExactMaxRsOptions::parallelism), but never more than
    /// one worker per 8 buffer-pool blocks (each worker needs an input block,
    /// an output block and merge headroom).  Tiny buffers (as used by
    /// I/O-accounting tests and ablations) therefore degrade gracefully to
    /// the sequential path instead of thrashing the shared pool.
    pub fn effective_parallelism(&self, config: EmConfig) -> usize {
        let pool_quota = (config.buffer_blocks() / MIN_POOL_BLOCKS_PER_WORKER).max(1);
        self.parallelism.max(1).min(pool_quota)
    }
}

/// Runs ExactMaxRS over an object file already stored in the EM context: one
/// [`SweepPass`] with identity weights over an unbounded root slab.
///
/// Returns the optimal location, the maximum range sum and the max-region.
/// All temporary files are deleted before returning; the input file is left
/// untouched.  I/O counters of `ctx` reflect the full pipeline (transform,
/// sort, distribution sweep).  For an input already sorted by x (see
/// [`sort_objects_by_x`]), use
/// [`SweepPass::presorted`](crate::sweep::SweepPass::presorted) — same
/// kernel, no sort, bit-identical answer.
pub fn exact_max_rs(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
    opts: &ExactMaxRsOptions,
) -> Result<MaxRsResult> {
    SweepPass::new(ctx, opts).max_rs(objects, size)
}

/// Sorts an object file by object x with the external merge sort — the
/// one-time preprocessing retained by
/// [`PreparedDataset`](crate::PreparedDataset).
///
/// The MaxRS transform centers every rectangle at its object, so x-order of
/// the objects is center-x order of the transformed rectangles regardless of
/// the query's rectangle size; one sort therefore serves every subsequent
/// [`Query`](crate::Query) variant.  The input file is left untouched.
pub fn sort_objects_by_x(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
) -> Result<TupleFile<ObjectRecord>> {
    external_sort_by_key(ctx, objects, |r| r.0.point.x).map_err(CoreError::from)
}

/// Convenience wrapper: loads the objects into the context and runs
/// [`exact_max_rs`].  The temporary object file is removed afterwards.
pub fn exact_max_rs_from_objects(
    ctx: &EmContext,
    objects: &[WeightedPoint],
    size: RectSize,
    opts: &ExactMaxRsOptions,
) -> Result<MaxRsResult> {
    let file = load_objects(ctx, objects)?;
    let result = exact_max_rs(ctx, &file, size, opts);
    ctx.delete_file(file)?;
    result
}

/// Writes a slice of weighted points as an object file in the EM context.
pub fn load_objects(ctx: &EmContext, objects: &[WeightedPoint]) -> Result<TupleFile<ObjectRecord>> {
    let mut writer = ctx.create_writer::<ObjectRecord>()?;
    for o in objects {
        writer.push(&ObjectRecord(*o))?;
    }
    writer.finish().map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane_sweep::max_rs_in_memory;
    use crate::records::RectRecord;
    use crate::reference::{brute_force_max_rs, rect_objective};
    use maxrs_em::EmConfig;

    /// A context whose tiny buffer forces real recursion even for small inputs:
    /// 256-byte blocks (6 RectRecords each), 1 KB buffer (25 RectRecords in
    /// memory, fan-out 2).
    fn tiny_ctx() -> EmContext {
        EmContext::new(EmConfig::new(256, 1024).unwrap())
    }

    /// A context large enough that everything fits in memory (single base case).
    fn roomy_ctx() -> EmContext {
        EmContext::new(EmConfig::new(4096, 1024 * 1024).unwrap())
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
                let x = next() * extent;
                let y = next() * extent;
                let w = 1.0 + (next() * 4.0).floor();
                WeightedPoint::at(x, y, w)
            })
            .collect()
    }

    #[test]
    fn empty_dataset() {
        let ctx = roomy_ctx();
        let r = exact_max_rs_from_objects(&ctx, &[], RectSize::square(10.0), &Default::default())
            .unwrap();
        assert_eq!(r.total_weight, 0.0);
    }

    #[test]
    fn single_object() {
        let ctx = roomy_ctx();
        let objects = vec![WeightedPoint::at(100.0, 200.0, 7.0)];
        let r =
            exact_max_rs_from_objects(&ctx, &objects, RectSize::square(10.0), &Default::default())
                .unwrap();
        assert_eq!(r.total_weight, 7.0);
        assert_eq!(
            rect_objective(&objects, r.center, RectSize::square(10.0)),
            7.0
        );
    }

    #[test]
    fn matches_in_memory_sweep_when_everything_fits() {
        let ctx = roomy_ctx();
        let objects = pseudo_random_objects(300, 42, 1000.0);
        let size = RectSize::new(120.0, 80.0);
        let external =
            exact_max_rs_from_objects(&ctx, &objects, size, &Default::default()).unwrap();
        let internal = max_rs_in_memory(&objects, size);
        assert_eq!(external.total_weight, internal.total_weight);
        assert_eq!(
            rect_objective(&objects, external.center, size),
            external.total_weight
        );
    }

    #[test]
    fn recursion_matches_in_memory_answer() {
        // Small buffer -> the 400-object input needs several recursion levels.
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(400, 7, 500.0);
        let size = RectSize::square(60.0);
        let external =
            exact_max_rs_from_objects(&ctx, &objects, size, &Default::default()).unwrap();
        let internal = max_rs_in_memory(&objects, size);
        assert_eq!(external.total_weight, internal.total_weight);
        assert_eq!(
            rect_objective(&objects, external.center, size),
            external.total_weight
        );
    }

    #[test]
    fn recursion_matches_brute_force_small() {
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(60, 99, 100.0);
        for side in [5.0, 20.0, 60.0] {
            let size = RectSize::square(side);
            let external =
                exact_max_rs_from_objects(&ctx, &objects, size, &Default::default()).unwrap();
            let brute = brute_force_max_rs(&objects, size);
            assert_eq!(external.total_weight, brute.total_weight, "side={side}");
            assert_eq!(
                rect_objective(&objects, external.center, size),
                external.total_weight,
                "side={side}"
            );
        }
    }

    #[test]
    fn explicit_fanout_and_memory_overrides() {
        let ctx = roomy_ctx();
        let objects = pseudo_random_objects(500, 3, 2000.0);
        let size = RectSize::square(150.0);
        let reference = max_rs_in_memory(&objects, size);
        for (fanout, mem) in [(2, 16), (3, 50), (8, 100), (16, 64)] {
            let opts = ExactMaxRsOptions {
                fanout: Some(fanout),
                memory_rects: Some(mem),
                ..Default::default()
            };
            let r = exact_max_rs_from_objects(&ctx, &objects, size, &opts).unwrap();
            assert_eq!(
                r.total_weight, reference.total_weight,
                "fanout={fanout} mem={mem}"
            );
        }
    }

    #[test]
    fn duplicated_x_coordinates_do_not_break_recursion() {
        // All objects share one of three x values: slab boundaries collapse and
        // the fallback path must still produce the right answer.
        let ctx = tiny_ctx();
        let mut objects = Vec::new();
        for i in 0..150 {
            let x = [10.0, 20.0, 30.0][i % 3];
            objects.push(WeightedPoint::at(x, i as f64, 1.0));
        }
        let size = RectSize::new(5.0, 400.0);
        let opts = ExactMaxRsOptions {
            memory_rects: Some(20),
            fanout: Some(4),
            ..Default::default()
        };
        let external = exact_max_rs_from_objects(&ctx, &objects, size, &opts).unwrap();
        let internal = max_rs_in_memory(&objects, size);
        assert_eq!(external.total_weight, internal.total_weight);
        assert_eq!(external.total_weight, 50.0);
    }

    #[test]
    fn weighted_answer_prefers_heavy_cluster_under_recursion() {
        let ctx = tiny_ctx();
        let mut objects = pseudo_random_objects(200, 11, 1000.0);
        // Heavy cluster far away from the noise.
        for i in 0..5 {
            objects.push(WeightedPoint::at(
                5000.0 + i as f64,
                5000.0 + i as f64,
                100.0,
            ));
        }
        let size = RectSize::square(50.0);
        let r = exact_max_rs_from_objects(&ctx, &objects, size, &Default::default()).unwrap();
        assert_eq!(r.total_weight, 500.0);
        assert!((r.center.x - 5000.0).abs() < 100.0);
    }

    #[test]
    fn temporary_files_are_cleaned_up() {
        let ctx = tiny_ctx();
        let objects = pseudo_random_objects(300, 21, 800.0);
        let file = load_objects(&ctx, &objects).unwrap();
        let _ = exact_max_rs(&ctx, &file, RectSize::square(40.0), &Default::default()).unwrap();
        // Only the input object file may remain on the simulated disk.
        assert!(
            ctx.disk_blocks() <= ctx.config().blocks_for::<ObjectRecord>(file.len()),
            "intermediate files must be deleted ({} blocks remain)",
            ctx.disk_blocks()
        );
        ctx.delete_file(file).unwrap();
    }

    #[test]
    fn io_cost_is_near_linear_in_blocks() {
        // With the paper's parameters the recursion has a single level, so the
        // I/O cost must stay within a small constant times N/B.
        let ctx = EmContext::new(EmConfig::new(512, 8 * 512).unwrap());
        let objects = pseudo_random_objects(4000, 5, 100_000.0);
        let file = load_objects(&ctx, &objects).unwrap();
        ctx.reset_stats();
        let _ = exact_max_rs(&ctx, &file, RectSize::square(1000.0), &Default::default()).unwrap();
        let rect_blocks = ctx.config().blocks_for::<RectRecord>(objects.len() as u64);
        let total = ctx.stats().total();
        assert!(
            total < 60 * rect_blocks,
            "ExactMaxRS used {total} I/Os for {rect_blocks} rectangle blocks"
        );
    }
}
