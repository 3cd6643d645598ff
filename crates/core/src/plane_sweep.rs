//! In-memory plane sweep over weighted rectangles.
//!
//! This is the classic `O(n log n)` algorithm of Imai & Asano (reviewed in
//! Section 4 of the paper): sweep a horizontal line bottom-to-top over the
//! transformed rectangles, keep the location-weight of every elementary
//! x-interval of the slab, and record, for every h-line, a *max-interval* —
//! an x-range of maximum location-weight together with that weight.  The
//! resulting sequence of [`SlabTuple`]s is exactly the *slab-file* of the
//! paper, so the same routine serves as
//!
//! * the base case of the [`ExactMaxRS`](crate::exact) recursion (a slab whose
//!   rectangles fit in memory),
//! * the building block of the in-memory convenience API
//!   [`max_rs_in_memory`](crate::plane_sweep::max_rs_in_memory()), and
//! * (conceptually) the algorithm the external baselines externalize.
//!
//! # The kernel
//!
//! [`SweepScratch::sweep_into`] clips the rectangles to the slab and works on
//! the resulting *pieces* in three steps.
//!
//! * **Breakpoints.**  The pieces are sorted once by `(x_lo, x_hi)`, so their
//!   `x_hi` values arrive sorted or nearly so.  One merge of the two runs
//!   between the slab's ends yields the deduplicated breakpoints and every
//!   piece's range `[a, b)` of elementary intervals (leaves), with no
//!   per-edge binary search.
//! * **Events.**  The bottom edges are sorted by `y`.  The top edges, listed
//!   in that order, are already sorted when the pieces share a height, as
//!   every pass's pieces do, so their sort is linear.  One merge of the two
//!   runs visits the h-lines bottom to top, and every event of an h-line is
//!   applied before its tuple is emitted.
//! * **Prefix-max tree.**  The coverage is kept as its difference array: a
//!   piece adds `+w` at leaf `a` and `−w` at leaf `b` (nothing when `b` is
//!   past the last leaf).  Each node of a power-of-two tree over the leaves
//!   holds `(sum, largest prefix sum)` of its leaves (padding leaves hold
//!   `−∞`), and an event recomputes the two leaf-to-root paths, together
//!   until they meet and then as one.
//!   The root's prefix maximum is the h-line's sum, and descending left
//!   while the left child's prefix maximum is at least the right child's
//!   (offset by the left sum) finds the leftmost maximal cell.
//!
//! Sorts run on the order-preserving `u64` image of each `f64`
//! ([`total_order_bits`]); breakpoints and h-lines are grouped with `f64`
//! `==`, so `-0.0` and `+0.0` share one, represented by `-0.0`.  For integer
//! weights every prefix sum is exact, so each tuple is the exact coverage;
//! other weights are summed in the tree's association order.
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

use maxrs_geometry::{Interval, RectSize, WeightedPoint};

use crate::events::total_order_bits;
use crate::records::{RectRecord, SlabTuple};
use crate::result::MaxRsResult;
use crate::sweep::BestTuple;

/// Inverse of [`total_order_bits`].
fn from_total_order_bits(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A piece's leaf range `[lo, hi)` and weight.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: u32,
    hi: u32,
    weight: f64,
}

/// A node of the prefix-max tree: the sum of its leaves and the largest sum
/// of a nonempty prefix of them.
#[derive(Debug, Clone, Copy)]
struct Node {
    sum: f64,
    pre: f64,
}

impl Node {
    fn leaf(d: f64) -> Node {
        Node { sum: d, pre: d }
    }

    fn join(l: Node, r: Node) -> Node {
        let right = l.sum + r.pre;
        Node {
            sum: l.sum + r.sum,
            pre: if l.pre >= right { l.pre } else { right },
        }
    }
}

/// Point-update prefix-max tree over the difference array of the coverage:
/// leaf `i` holds `coverage[i] − coverage[i − 1]`, so the prefix sums are the
/// coverage.  Of the `n2 = max(2, next_pow2(leaves))` leaves the padding
/// ones hold `−∞`: they sit right of every real leaf, so no prefix maximum
/// ends in one.  Node `v` of `1..n2` joins nodes `2v` and `2v + 1`, where
/// index `n2 + i` is leaf `i`, so the root is an internal node.
#[derive(Debug, Default)]
struct PrefixMaxTree {
    leaves: usize,
    n2: usize,
    /// The internal nodes; index 0 is unused.
    nodes: Vec<Node>,
    diff: Vec<f64>,
}

impl PrefixMaxTree {
    /// Re-dimensions the tree to `leaves` zero-coverage leaves over the
    /// existing allocation.
    fn reset(&mut self, leaves: usize) {
        let n2 = leaves.next_power_of_two().max(2);
        self.leaves = leaves;
        self.n2 = n2;
        self.diff.clear();
        self.diff.resize(n2, f64::NEG_INFINITY);
        self.diff[..leaves].fill(0.0);
        self.nodes.clear();
        self.nodes.resize(n2, Node::leaf(0.0));
        for v in (n2 / 2..n2).rev() {
            self.pull_leaves(v);
        }
        for v in (1..n2 / 2).rev() {
            self.pull_nodes(v);
        }
    }

    /// Adds `w` to the coverage of leaves `[a, b)`, `a < b`.
    fn add(&mut self, a: usize, b: usize, w: f64) {
        self.diff[a] += w;
        let mut u = (a + self.n2) >> 1;
        // The path from `b`, if `b` is a leaf; it meets `u`'s at their
        // common ancestor, and at once if there is none.
        let mut v = u;
        if b < self.leaves {
            self.diff[b] -= w;
            v = (b + self.n2) >> 1;
            if v != u {
                self.pull_leaves(v);
            }
        }
        self.pull_leaves(u);
        (u, v) = (u >> 1, v >> 1);
        while u != v {
            self.pull_nodes(u);
            self.pull_nodes(v);
            (u, v) = (u >> 1, v >> 1);
        }
        while u >= 1 {
            self.pull_nodes(u);
            u >>= 1;
        }
    }

    /// Recomputes node `v` of the level above the leaves.
    fn pull_leaves(&mut self, v: usize) {
        let i = 2 * v - self.n2;
        let (l, r) = (self.diff[i], self.diff[i + 1]);
        self.nodes[v] = Node::join(Node::leaf(l), Node::leaf(r));
    }

    /// Recomputes node `v` of a higher level.
    fn pull_nodes(&mut self, v: usize) {
        self.nodes[v] = Node::join(self.nodes[2 * v], self.nodes[2 * v + 1]);
    }

    /// The largest coverage of any leaf.
    fn max(&self) -> f64 {
        self.nodes[1].pre
    }

    /// The leftmost leaf of largest coverage.  The descent repeats the
    /// comparison [`Node::join`] made, so it follows the root's value for
    /// any weights.
    fn argmax(&self) -> usize {
        let mut v = 1;
        while 2 * v < self.n2 {
            let (l, r) = (self.nodes[2 * v], self.nodes[2 * v + 1]);
            v = if l.pre >= l.sum + r.pre {
                2 * v
            } else {
                2 * v + 1
            };
        }
        let i = 2 * v - self.n2;
        let (l, r) = (self.diff[i], self.diff[i + 1]);
        if l >= l + r {
            i
        } else {
            i + 1
        }
    }
}

/// Reusable buffers for the in-memory plane sweep.
///
/// A `SweepPass` group or a batched query sweeps thousands of slabs, so the
/// kernel must not allocate per slab.  A `SweepScratch` owns the clipped
/// pieces, the breakpoints, the leaf ranges, the two event runs and the
/// prefix-max tree, and [`SweepScratch::sweep_into`] reuses them across
/// calls — the kernel allocates nothing once the buffers have grown to the
/// high-water mark.
///
/// Callers that sweep repeatedly (the stream engine, the `Runner` recursion)
/// hold one scratch per thread; the free function [`plane_sweep_slab`] keeps
/// its signature by borrowing a thread-local scratch.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// The rectangles clipped to the slab, sorted by `(x_lo, x_hi)`.
    pieces: Vec<RectRecord>,
    /// The deduplicated breakpoints; leaf `i` is `[xs[i], xs[i + 1]]`.
    xs: Vec<f64>,
    /// Per piece, its leaf range and weight.
    spans: Vec<Span>,
    /// `(key, piece)` pairs: the `x_hi` run, then the bottom edges.
    order: Vec<(u64, u32)>,
    /// `(key, piece)` pairs of the top edges.
    tops: Vec<(u64, u32)>,
    tree: PrefixMaxTree,
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
        self.pieces.clear();
        self.pieces.extend(rects.iter().filter_map(|r| {
            r.rect
                .clip_x(&slab)
                .map(|rect| RectRecord::new(rect, r.weight))
        }));
        if self.pieces.is_empty() {
            return;
        }
        self.pieces.sort_unstable_by_key(|p| {
            (total_order_bits(p.rect.x_lo), total_order_bits(p.rect.x_hi))
        });
        self.breakpoints(slab);
        if self.xs.len() < 2 {
            // Degenerate slab (zero width): nothing can be covered with
            // positive area.
            return;
        }
        self.tree.reset(self.xs.len() - 1);
        self.events();

        // Merge the two event runs; past its end a run reads `u64::MAX`,
        // which is no h-line's key.
        let (bottoms, tops) = (&self.order, &self.tops);
        let keys = |i: usize, j: usize| {
            let bottom = bottoms.get(i).map_or(u64::MAX, |e| e.0);
            (bottom, tops.get(j).map_or(u64::MAX, |e| e.0))
        };
        let (mut i, mut j) = (0, 0);
        let (mut bottom_key, mut top_key) = keys(i, j);
        let mut y = from_total_order_bits(bottom_key.min(top_key));
        out.reserve(bottoms.len() + tops.len());
        while bottom_key != u64::MAX || top_key != u64::MAX {
            // A bottom goes first on a tie; the h-line's events commute.
            let bottom = bottom_key <= top_key;
            let piece = if bottom { bottoms[i].1 } else { tops[j].1 };
            let span = self.spans[piece as usize];
            let weight = if bottom { span.weight } else { -span.weight };
            i += usize::from(bottom);
            j += usize::from(!bottom);
            if span.lo < span.hi {
                self.tree.add(span.lo as usize, span.hi as usize, weight);
            }
            (bottom_key, top_key) = keys(i, j);
            let next = from_total_order_bits(bottom_key.min(top_key));
            if next != y {
                // The h-line's last event is applied (past the end `next`
                // is NaN).
                let leaf = self.tree.argmax();
                out.push(SlabTuple::new(
                    y,
                    self.xs[leaf],
                    self.xs[leaf + 1],
                    self.tree.max(),
                ));
                y = next;
            }
        }
    }

    /// Merges the sorted `x_lo` run of the pieces and their `x_hi` run
    /// between the slab's ends into the deduplicated breakpoints `xs`, and
    /// records every piece's leaf range in `spans`.
    fn breakpoints(&mut self, slab: Interval) {
        let pieces = &self.pieces;
        self.order.clear();
        self.order.extend(
            pieces
                .iter()
                .enumerate()
                .map(|(p, r)| (total_order_bits(r.rect.x_hi), p as u32)),
        );
        // Linear when the `x_hi` values arrive sorted.
        self.order.sort_unstable_by_key(|&(key, _)| key);
        self.spans.clear();
        self.spans.extend(pieces.iter().map(|r| Span {
            lo: 0,
            hi: 0,
            weight: r.weight,
        }));
        self.xs.clear();
        self.xs.push(slab.lo);
        // Past its end a run reads `u64::MAX`, which is no edge's key.
        let lo_key = |i: usize| {
            pieces
                .get(i)
                .map_or(u64::MAX, |r| total_order_bits(r.rect.x_lo))
        };
        let hi_key = |j: usize| self.order.get(j).map_or(u64::MAX, |e| e.0);
        let (mut i, mut j) = (0, 0);
        for _ in 0..2 * pieces.len() {
            let (lo, hi) = (lo_key(i), hi_key(j));
            if lo <= hi {
                self.spans[i].lo = place(&mut self.xs, from_total_order_bits(lo));
                i += 1;
            } else {
                let piece = self.order[j].1 as usize;
                self.spans[piece].hi = place(&mut self.xs, from_total_order_bits(hi));
                j += 1;
            }
        }
        place(&mut self.xs, slab.hi);
    }

    /// Sorts the bottom edges into `order` and the top edges into `tops`.
    fn events(&mut self) {
        let pieces = &self.pieces;
        self.order.clear();
        self.order.extend(
            pieces
                .iter()
                .enumerate()
                .map(|(p, r)| (total_order_bits(r.rect.y_lo), p as u32)),
        );
        self.order.sort_unstable_by_key(|&(key, _)| key);
        self.tops.clear();
        self.tops.extend(
            self.order
                .iter()
                .map(|&(_, p)| (total_order_bits(pieces[p as usize].rect.y_hi), p)),
        );
        // Linear when the pieces share a height.
        self.tops.sort_unstable_by_key(|&(key, _)| key);
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

/// Appends `x` to the sorted breakpoints unless it equals the last one, and
/// returns its index.  Of `-0.0` and `+0.0` the first in the total order
/// stays, as a sort-then-dedup would keep it.
fn place(xs: &mut Vec<f64>, x: f64) -> u32 {
    let last = xs.last_mut().expect("the slab's lower end is a breakpoint");
    if x != *last {
        xs.push(x);
    } else if total_order_bits(x) < total_order_bits(*last) {
        *last = x;
    }
    (xs.len() - 1) as u32
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
/// on one thread reuse its buffers; only the returned `Vec` is allocated
/// fresh.
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

/// Picks the best tuple of a slab-file and converts it into a [`MaxRsResult`]
/// by the extract rule of the external path: the first tuple of the largest
/// sum wins, and its strip ends at the next tuple's `y`.
///
/// `tuples` must be in ascending y order (as produced by the sweep).
pub fn best_region_from_tuples(tuples: &[SlabTuple]) -> Option<MaxRsResult> {
    if tuples.is_empty() {
        return None;
    }
    let mut best = BestTuple::default();
    for &t in tuples {
        best.push(t);
    }
    Some(best.result())
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
    use maxrs_geometry::Rect;

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
