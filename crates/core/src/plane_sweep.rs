//! In-memory plane sweep over weighted rectangles.
//!
//! This is the classic `O(n log n)` algorithm of Imai & Asano (reviewed in
//! Section 4 of the paper): sweep a horizontal line bottom-to-top over the
//! transformed rectangles, maintain the x-intervals of the active rectangles
//! in a range-add / range-max structure, and record, for every h-line, a
//! *max-interval* — an x-range of maximum location-weight together with that
//! weight.  The resulting sequence of [`SlabTuple`]s is exactly the *slab-file*
//! of the paper, so the same routine serves as
//!
//! * the base case of the [`ExactMaxRS`](crate::exact) recursion (a slab whose
//!   rectangles fit in memory),
//! * the building block of the in-memory convenience API
//!   [`max_rs_in_memory`](crate::plane_sweep::max_rs_in_memory()), and
//! * (conceptually) the algorithm the external baselines externalize.
//!
//! # Max-interval selection (deviation from the paper's `GetMaxInterval`)
//!
//! Each emitted tuple reports a **single elementary x-interval** attaining the
//! maximum location-weight rather than the widest run of such intervals.  The
//! paper merges adjacent equal-sum intervals; under its open-boundary
//! semantics, however, a merged interval can contain rectangle edges in its
//! interior, and points exactly on those edges do not attain the maximum.
//! Reporting one elementary cell keeps the guarantee that *every interior
//! point of the returned region is an optimal center*, which is what the
//! result of a MaxRS query promises.  The reported maximum value is identical
//! either way.

use std::cell::RefCell;

use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::records::{RectRecord, SlabTuple};
use crate::result::MaxRsResult;
use crate::segment_tree::SegmentTree;

/// One sweep event: add `delta` to the elementary intervals `[lo, hi)` when
/// the h-line reaches `y`.
#[derive(Debug, Clone, Copy)]
struct SweepEvent {
    y: f64,
    lo: u32,
    hi: u32,
    delta: f64,
}

/// Reusable buffers for the in-memory plane sweep.
///
/// [`plane_sweep_slab`] historically re-allocated its breakpoint array, event
/// list and segment tree for *every slab*; a `SweepPass` group or a batched
/// query runs thousands of slabs, so the allocator showed up in profiles.  A
/// `SweepScratch` owns all of those buffers and [`SweepScratch::sweep_into`]
/// reuses them across calls — the kernel allocates nothing once the buffers
/// have grown to the high-water mark.
///
/// Callers that sweep repeatedly (the stream engine, the `Runner` recursion)
/// hold one scratch per thread; the free function [`plane_sweep_slab`] keeps
/// its historical signature by borrowing a thread-local scratch.
#[derive(Debug, Default)]
pub struct SweepScratch {
    clipped: Vec<RectRecord>,
    xs: Vec<f64>,
    events: Vec<SweepEvent>,
    tree: SegmentTree,
    tuples: Vec<SlabTuple>,
}

impl SweepScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SweepScratch::default()
    }

    /// Runs the plane sweep over `rects` restricted to `slab`, writing the
    /// slab-file tuples into `out` (which is cleared first).  Identical to
    /// [`plane_sweep_slab`] but reuses this scratch's buffers.
    pub fn sweep_into(&mut self, rects: &[RectRecord], slab: Interval, out: &mut Vec<SlabTuple>) {
        out.clear();

        // Clip to the slab and drop rectangles that fall outside it.
        self.clipped.clear();
        self.clipped.extend(rects.iter().filter_map(|r| {
            r.rect
                .clip_x(&slab)
                .map(|rect| RectRecord::new(rect, r.weight))
        }));
        if self.clipped.is_empty() {
            return;
        }

        // Elementary x-intervals: between consecutive breakpoints.
        self.xs.clear();
        self.xs.reserve(2 * self.clipped.len() + 2);
        self.xs.push(slab.lo);
        self.xs.push(slab.hi);
        for r in &self.clipped {
            self.xs.push(r.rect.x_lo);
            self.xs.push(r.rect.x_hi);
        }
        self.xs.sort_unstable_by(f64::total_cmp);
        self.xs.dedup();
        if self.xs.len() < 2 {
            // Degenerate slab (zero width): nothing can be covered with
            // positive area.
            return;
        }
        let xs = &self.xs;
        let leaves = xs.len() - 1;
        let leaf_of = |x: f64| -> u32 {
            // Index of the breakpoint equal to x (every rectangle edge is a
            // breakpoint).
            xs.partition_point(|&b| b < x) as u32
        };

        // Sweep events: +weight at the bottom edge, -weight at the top edge.
        self.events.clear();
        self.events.reserve(2 * self.clipped.len());
        for r in &self.clipped {
            let lo = leaf_of(r.rect.x_lo);
            let hi = leaf_of(r.rect.x_hi);
            self.events.push(SweepEvent {
                y: r.rect.y_lo,
                lo,
                hi,
                delta: r.weight,
            });
            self.events.push(SweepEvent {
                y: r.rect.y_hi,
                lo,
                hi,
                delta: -r.weight,
            });
        }
        // Unstable sort is safe: equal-y events are commuting range-adds, and
        // tuples are emitted only after every event of the h-line is applied.
        self.events.sort_unstable_by(|a, b| a.y.total_cmp(&b.y));

        self.tree.reset(leaves);
        out.reserve(self.events.len());
        let mut i = 0;
        while i < self.events.len() {
            let y = self.events[i].y;
            while i < self.events.len() && self.events[i].y == y {
                let e = self.events[i];
                self.tree.range_add(e.lo as usize, e.hi as usize, e.delta);
                i += 1;
            }
            let sum = self.tree.global_max();
            let lo = self.tree.max_leaf();
            out.push(SlabTuple::new(y, self.xs[lo], self.xs[lo + 1], sum));
        }
    }

    /// Like [`SweepScratch::sweep_into`], but returns a borrow of an
    /// internal tuple buffer — the fully zero-alloc variant for callers that
    /// only need to *read* the slab-file before the next sweep.
    pub fn sweep(&mut self, rects: &[RectRecord], slab: Interval) -> &[SlabTuple] {
        let mut out = std::mem::take(&mut self.tuples);
        self.sweep_into(rects, slab, &mut out);
        self.tuples = out;
        &self.tuples
    }
}

thread_local! {
    /// Per-thread scratch backing the [`plane_sweep_slab`] free function, so
    /// the `Runner` recursion (which shares `&Runner` across worker threads)
    /// also reuses buffers across the slabs it sweeps.
    static THREAD_SCRATCH: RefCell<SweepScratch> = RefCell::new(SweepScratch::new());
}

/// Calls `f` with this thread's shared [`SweepScratch`].
///
/// Used by sweep drivers that process many slabs on the same thread and want
/// buffer reuse across *all* of them without threading a scratch through
/// every signature.  Do not call [`plane_sweep_slab`] (or re-enter this
/// function) from inside `f`: the scratch is already borrowed.
pub fn with_sweep_scratch<R>(f: impl FnOnce(&mut SweepScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Runs the plane sweep over `rects` restricted to the x-range `slab` and
/// returns the slab-file tuples in ascending y order (one tuple per distinct
/// h-line).
///
/// Rectangles are clipped to the slab; rectangles that do not intersect the
/// slab are ignored.  An empty input produces an empty slab-file.
///
/// Internally this borrows a thread-local [`SweepScratch`], so repeated calls
/// on one thread reuse the breakpoint / event / segment-tree buffers; only
/// the returned `Vec` is allocated fresh.
pub fn plane_sweep_slab(rects: &[RectRecord], slab: Interval) -> Vec<SlabTuple> {
    let mut out = Vec::new();
    with_sweep_scratch(|scratch| scratch.sweep_into(rects, slab, &mut out));
    out
}

/// Transforms objects into their centered rectangles (`r_o` in the paper).
pub fn transform_objects(objects: &[WeightedPoint], size: RectSize) -> Vec<RectRecord> {
    objects
        .iter()
        .map(|o| RectRecord::new(o.to_rect(size), o.weight))
        .collect()
}

/// Picks the best tuple of a slab-file and converts it into a [`MaxRsResult`].
///
/// `tuples` must be in ascending y order (as produced by the sweep).  The
/// max-region spans from the winning tuple's y to the next tuple's y.
pub fn best_region_from_tuples(tuples: &[SlabTuple]) -> Option<MaxRsResult> {
    if tuples.is_empty() {
        return None;
    }
    let mut best_idx = 0;
    for (i, t) in tuples.iter().enumerate() {
        if t.sum > tuples[best_idx].sum {
            best_idx = i;
        }
    }
    let best = &tuples[best_idx];
    let y_lo = best.y;
    let y_hi = tuples
        .get(best_idx + 1)
        .map(|t| t.y)
        .filter(|&y| y > y_lo)
        .unwrap_or(y_lo + 1.0);
    let x = best.interval();
    let region = Rect::new(x.lo, x.hi, y_lo, y_hi);
    let center = Point::new(x.representative(), (y_lo + y_hi) / 2.0);
    Some(MaxRsResult {
        center,
        total_weight: best.sum,
        region,
    })
}

/// Solves MaxRS entirely in memory: transform, sweep, extract the best region.
///
/// This is the convenience entry point for datasets that comfortably fit in
/// RAM; the external-memory pipeline ([`crate::exact_max_rs`]) produces the
/// same answer for arbitrarily large inputs.
pub fn max_rs_in_memory(objects: &[WeightedPoint], size: RectSize) -> MaxRsResult {
    let rects = transform_objects(objects, size);
    let tuples = plane_sweep_slab(&rects, Interval::UNBOUNDED);
    best_region_from_tuples(&tuples).unwrap_or_else(MaxRsResult::empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{brute_force_max_rs, rect_objective};

    fn units(points: &[(f64, f64)]) -> Vec<WeightedPoint> {
        points
            .iter()
            .map(|&(x, y)| WeightedPoint::unit(x, y))
            .collect()
    }

    #[test]
    fn empty_and_single() {
        assert!(plane_sweep_slab(&[], Interval::UNBOUNDED).is_empty());
        let r = max_rs_in_memory(&[], RectSize::square(1.0));
        assert_eq!(r.total_weight, 0.0);

        let objects = units(&[(3.0, 4.0)]);
        let r = max_rs_in_memory(&objects, RectSize::square(2.0));
        assert_eq!(r.total_weight, 1.0);
        assert_eq!(
            rect_objective(&objects, r.center, RectSize::square(2.0)),
            1.0
        );
    }

    #[test]
    fn slab_tuples_match_paper_example_shape() {
        // Two overlapping unit-weight rectangles: the slab-file must report
        // sums 1, 2, 1, 0 as the sweep passes the four h-lines.
        let rects = vec![
            RectRecord::new(Rect::new(0.0, 2.0, 0.0, 2.0), 1.0),
            RectRecord::new(Rect::new(1.0, 3.0, 1.0, 3.0), 1.0),
        ];
        let tuples = plane_sweep_slab(&rects, Interval::UNBOUNDED);
        let sums: Vec<f64> = tuples.iter().map(|t| t.sum).collect();
        assert_eq!(sums, vec![1.0, 2.0, 1.0, 0.0]);
        // The best tuple reports the intersection [1,2] starting at y=1.
        let best = best_region_from_tuples(&tuples).unwrap();
        assert_eq!(best.total_weight, 2.0);
        assert_eq!(best.region, Rect::new(1.0, 2.0, 1.0, 2.0));
        // The final tuple (above every rectangle) reports weight 0.
        let last = tuples.last().unwrap();
        assert_eq!(last.sum, 0.0);
        assert!(last.x_lo.is_infinite());
    }

    #[test]
    fn clipping_to_a_slab_restricts_the_answer() {
        let rects = vec![
            RectRecord::new(Rect::new(0.0, 10.0, 0.0, 1.0), 5.0),
            RectRecord::new(Rect::new(20.0, 30.0, 0.0, 1.0), 1.0),
        ];
        // Slab [15, 40]: only the light rectangle intersects it.
        let tuples = plane_sweep_slab(&rects, Interval::new(15.0, 40.0));
        let best = best_region_from_tuples(&tuples).unwrap();
        assert_eq!(best.total_weight, 1.0);
        assert!(best.region.x_lo >= 15.0);
    }

    #[test]
    fn matches_brute_force_on_small_grids() {
        let objects = units(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (1.5, 0.5),
            (4.0, 4.0),
            (4.2, 4.1),
            (4.4, 3.9),
            (4.6, 4.3),
            (9.0, 0.0),
        ]);
        for side in [1.0, 2.0, 3.0, 8.0] {
            let size = RectSize::square(side);
            let fast = max_rs_in_memory(&objects, size);
            let slow = brute_force_max_rs(&objects, size);
            assert_eq!(fast.total_weight, slow.total_weight, "side={side}");
            // The returned center must actually achieve the reported weight.
            assert_eq!(
                rect_objective(&objects, fast.center, size),
                fast.total_weight,
                "side={side}"
            );
        }
    }

    #[test]
    fn weighted_objects_prefer_heavy_cluster() {
        let objects = vec![
            WeightedPoint::at(0.0, 0.0, 1.0),
            WeightedPoint::at(0.5, 0.5, 1.0),
            WeightedPoint::at(0.9, 0.1, 1.0),
            WeightedPoint::at(50.0, 50.0, 10.0),
        ];
        let r = max_rs_in_memory(&objects, RectSize::square(3.0));
        assert_eq!(r.total_weight, 10.0);
        assert!((r.center.x - 50.0).abs() < 3.0);
    }

    #[test]
    fn boundary_objects_are_excluded() {
        // Two objects exactly d apart in x: no 2x2 rectangle strictly contains both.
        let objects = units(&[(0.0, 0.0), (2.0, 0.0)]);
        let r = max_rs_in_memory(&objects, RectSize::square(2.0));
        assert_eq!(r.total_weight, 1.0);
        // Slightly closer: now both fit.
        let objects = units(&[(0.0, 0.0), (1.9, 0.0)]);
        let r = max_rs_in_memory(&objects, RectSize::square(2.0));
        assert_eq!(r.total_weight, 2.0);
    }

    #[test]
    fn transform_produces_centered_rects() {
        let objects = vec![WeightedPoint::at(10.0, 20.0, 2.0)];
        let rects = transform_objects(&objects, RectSize::new(4.0, 6.0));
        assert_eq!(rects.len(), 1);
        assert_eq!(rects[0].rect, Rect::new(8.0, 12.0, 17.0, 23.0));
        assert_eq!(rects[0].weight, 2.0);
    }

    #[test]
    fn duplicate_coordinates_are_handled() {
        // Many objects at the same location: the sweep must not be confused by
        // duplicate breakpoints or duplicate event ys.
        let objects: Vec<WeightedPoint> = (0..20).map(|_| WeightedPoint::unit(5.0, 5.0)).collect();
        let r = max_rs_in_memory(&objects, RectSize::square(1.0));
        assert_eq!(r.total_weight, 20.0);
        assert_eq!(
            rect_objective(&objects, r.center, RectSize::square(1.0)),
            20.0
        );
    }
}
