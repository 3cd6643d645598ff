//! The pieces of the sharded distribution sweep that `maxrs-cluster` runs.
//!
//! A cluster splits the x-domain into `K` coarse shards at boundaries
//! picked by a sampling pass ([`select_shard_boundaries`]), so the shards
//! hold roughly equal object counts, and prepares every shard on its own
//! block device ([`prepare_shard`]).  Queries do not solve shards
//! independently and pick the best — an *optimal* placement can straddle a
//! shard boundary — but run the **same distribution sweep** the unsharded
//! pipeline runs, with the shard partition as the top-level slab partition:
//!
//! 1. every shard whose objects' rectangles can reach the pass's root slab
//!    is scanned (shard routing, [`ShardRoute`]: a rect-size-inflated root
//!    selects the shards engaged), its transformed rectangles cropped
//!    against the shard boundaries by the one crop rule ([`crop_scan`],
//!    [`SlabPartition::crop`]) — end pieces go to the two end shards,
//!    fully-spanned shards receive a [`SpanEvent`] pair instead of `O(K)`
//!    rectangle copies;
//! 2. each shard solves its cropped rectangle file locally (the ordinary
//!    recursion of [`crate::sweep`]);
//! 3. the per-shard slab-files and the y-sorted spanning events merge
//!    through the flat MergeSweep ([`mod@crate::merge_sweep`]);
//! 4. the winning tuple gets its full arrangement cell (canonical
//!    max-regions, see [`crate::sweep`]) from the minimum next-breakpoint
//!    over the engaged shards.
//!
//! Because canonical max-regions are partition-independent, the answers are
//! **bit-identical** to an unsharded [`PreparedDataset::run`] for every
//! [`Query`] variant with integer-valued weights.  A dataset on one machine
//! needs none of this: a [`PreparedDataset`]'s parallel slab stage already
//! solves its top-level slabs concurrently.

use maxrs_em::{EmContext, FsDisk, IoSnapshot, TupleFile};
use maxrs_geometry::{Interval, Rect, RectSize, WeightedPoint};

use crate::engine::{EngineOptions, ExecutionStrategy};
use crate::error::Result;
use crate::prepared::PreparedDataset;
use crate::query::Query;
use crate::records::{ObjectRecord, RectRecord, SpanEvent};
use crate::slab::{Reservoir, SlabPartition};
use crate::sweep::swept_rect;

/// How one sweep pass routes over an x-sharded dataset — the routing rule
/// `maxrs-cluster`'s coordinator sends its shard servers with every pass.
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

/// The crop scan of one source shard, run by the shard servers of
/// `maxrs-cluster` in both rounds of a pass: every object of the shard's
/// file that the pass keeps — outside the `suppressed` rectangles, its
/// `size` rectangle meeting the closed y-`band` ([`swept_rect`], the filter
/// of the unsharded transform) — is transformed to `size`, its weight scaled by
/// `weight_scale`, and cropped against the global `partition` by the one
/// crop rule ([`SlabPartition::crop`]).  Each piece reaches `on_piece` with
/// its global slab, each span-event pair reaches `on_span`, in scan order;
/// the first error, of the scan or of a callback, ends it.
pub fn crop_scan(
    (ctx, objects): (&EmContext, &TupleFile<ObjectRecord>),
    partition: &SlabPartition,
    (size, weight_scale): (RectSize, f64),
    (suppressed, band): (&[Rect], Interval),
    mut on_piece: impl FnMut(usize, RectRecord) -> Result<()>,
    mut on_span: impl FnMut([SpanEvent; 2]) -> Result<()>,
) -> Result<()> {
    let mut reader = ctx.open_reader(objects);
    while let Some(rec) = reader.next_record()? {
        let Some(rect) = swept_rect(suppressed, band, &rec, size) else {
            continue;
        };
        let record = RectRecord::new(rect, weight_scale * rec.0.weight);
        let crop = partition.crop(&record);
        for (t, piece) in crop.pieces.into_iter().flatten() {
            on_piece(t, piece)?;
        }
        if let Some(pair) = crop.span {
            on_span(pair)?;
        }
    }
    Ok(())
}

/// Prepares one shard on its own context (optionally on a filesystem device
/// in `directory`): load, then flush — the external body of
/// [`MaxRsEngine::prepare`](crate::MaxRsEngine::prepare), measured
/// identically (loading excluded).  The shard is always stored externally,
/// so its [`external_parts`](PreparedDataset::external_parts) are available
/// to the sweep pass spanning several shards; the shard servers of
/// `maxrs-cluster` build their shards with it.
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
    // The servers sweep a shard slab by slab on one worker each
    // (`solve_rects`), so the shard's own runs are sequential too.
    let data = PreparedDataset::load_owned(
        opts,
        ctx,
        objects,
        (ExecutionStrategy::ExternalSequential, 1),
    )?;
    let prepare_io = data.prepare_io();
    Ok((data, prepare_io))
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
/// are quantiled exactly; larger ones through the deterministic reservoir of
/// [`compute_partition`](crate::slab::compute_partition), so the result is a
/// pure function of the input.  `maxrs-cluster`'s
/// `partition_objects` splits a dataset into its shards with it.
pub fn select_shard_boundaries(objects: &[WeightedPoint], k: usize, sample_cap: usize) -> Vec<f64> {
    if k <= 1 || objects.len() < 2 {
        return Vec::new();
    }
    let cap = sample_cap.max(k * 4);
    let mut reservoir = Reservoir::new(objects.len() as u64, cap);
    for o in objects {
        reservoir.push(o.point.x);
    }
    let sample = reservoir.into_sorted();
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

    /// Object count per shard, routing ties right like [`shard_slab`].
    fn shard_lens(objects: &[WeightedPoint], boundaries: &[f64]) -> Vec<u64> {
        let mut lens = vec![0u64; boundaries.len() + 1];
        for o in objects {
            lens[boundaries.partition_point(|&b| b <= o.point.x)] += 1;
        }
        lens
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
        let boundaries = select_shard_boundaries(&objects, 4, 16_384);
        let lens = shard_lens(&objects, &boundaries);
        assert_eq!(lens.len(), 4);
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
        let boundaries = select_shard_boundaries(&objects, 4, 16_384);
        let lens = shard_lens(&objects, &boundaries);
        assert_eq!(lens.iter().sum::<u64>(), 6_000);
        // Zipf x has heavy duplicate mass at the hot values; everything that
        // shares an x must share a shard, so allow a looser bound.
        assert!(lens.len() >= 2, "zipf input should still split: {lens:?}");
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
        let boundaries = select_shard_boundaries(&objects, 8, 8192);
        assert!(boundaries.is_empty(), "{boundaries:?}");
        assert_eq!(shard_lens(&objects, &boundaries), vec![500]);
    }

    #[test]
    fn fewer_objects_than_shards() {
        let objects = vec![
            WeightedPoint::unit(1.0, 0.0),
            WeightedPoint::unit(2.0, 0.0),
            WeightedPoint::unit(3.0, 0.0),
        ];
        let boundaries = select_shard_boundaries(&objects, 16, 8192);
        let lens = shard_lens(&objects, &boundaries);
        assert!(lens.len() <= 3, "{} shards", lens.len());
        assert!(lens.iter().all(|&n| n > 0), "an empty shard: {lens:?}");
        assert_eq!(lens.iter().sum::<u64>(), 3);
    }

    #[test]
    fn engaged_by_routes_min_rs_by_domain() {
        let objects: Vec<WeightedPoint> = (0..4_000)
            .map(|i| WeightedPoint::unit((i % 97) as f64 * 3.0, (i / 97) as f64 * 2.0))
            .collect();
        let boundaries = select_shard_boundaries(&objects, 4, 8192);
        assert_eq!(boundaries.len(), 3);
        // Unbounded-root variants engage every shard.
        let size = RectSize::square(4.0);
        for query in [
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::approx_max_crs(4.0),
        ] {
            assert_eq!(
                ShardRoute::engaged_by(&boundaries, &query),
                vec![0, 1, 2, 3],
                "{}",
                query.name()
            );
        }
        // A narrow MinRS domain reaches only the shards near it.
        let narrow = Rect::new(0.0, 1.0, 0.0, 50.0);
        let engaged = ShardRoute::engaged_by(&boundaries, &Query::min_rs(size, narrow));
        assert!(
            !engaged.is_empty() && engaged.len() < 4,
            "narrow domain engaged {engaged:?}"
        );
        assert_eq!(engaged[0], 0, "the domain lies in the first shard");
    }
}
