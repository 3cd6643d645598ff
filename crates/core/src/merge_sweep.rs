//! MergeSweep: combining the slab-files of `m` sub-slabs (Algorithm 1).
//!
//! The merge sweeps a conceptual horizontal line bottom-to-top across the `m`
//! child slab-files and the file of spanning rectangles, maintaining
//!
//! * `up_sum[i]` — the total weight of spanning rectangles currently covering
//!   sub-slab `i`, and
//! * `tslab[i]` — the most recent max-interval tuple of sub-slab `i`,
//!
//! and emits, at every event y, the best max-interval over the union slab.
//!
//! Two refinements over the paper's pseudo-code:
//!
//! * an output tuple is emitted at spanning-rectangle events as well, because
//!   the location-weight of the union slab changes there even though no child
//!   slab-file has a tuple at that y;
//! * ties between sub-slabs are broken by taking the first (leftmost)
//!   max-interval instead of merging touching intervals (`GetMaxInterval`).
//!   Under open-boundary semantics a merged interval can contain points that
//!   do not attain the maximum (exactly on a shared rectangle edge), whereas
//!   the interior of a single sub-slab max-interval always does; the reported
//!   maximum value is identical either way.  See [`crate::plane_sweep`].
//!
//! ## Cost per event y
//!
//! Two tournament trees replace the three `Θ(m)` scans of the textbook loop
//! (next y, consume, argmax).  One ranks the reader heads — the smallest
//! head y wins, exhausted readers never win — and gives the next y; popping
//! its winner while that still holds y gives the readers to consume, in
//! index order.  The other ranks the sub-slab totals
//! `tslab[i].sum + up_sum[i]` and gives the winner.  An event y at which `d`
//! sub-slabs change (a consumed tuple, or a spanning event over them) costs
//! `O((1 + d) · log m)`, plus the `O(r)` additions of a spanning event over
//! `r` sub-slabs; once `d · log m` reaches `m`, a tree is rebuilt bottom-up
//! in `O(m)` instead, so no y costs more than a flat scan.
//!
//! ## Exact for any weights
//!
//! `up_sum[i]` accumulates each spanning event in event order, and a changed
//! total is recomputed as `tslab[i].sum + up_sum[i]` — never adjusted by a
//! difference — so every total is the same `f64` a flat scan over all `m`
//! sub-slabs would compute, starting from the sentinel tuples' sum 0.  The
//! totals tree breaks ties towards the lower index and lets a right leaf win
//! only when strictly greater, which is exactly a left-to-right `>` scan from
//! `−∞`.  The output stream is therefore bit-identical to the flat scan's
//! for any weights, and the blocks are read in the flat scan's order too:
//! spanning events first, then the readers holding y in index order, each
//! refilled right after it is consumed.

use maxrs_em::{EmContext, TupleFile, TupleReader};
use maxrs_geometry::Interval;

use crate::error::{CoreError, Result};
use crate::records::{SlabTuple, SpanEvent};

/// Merges the slab-files `slab_files` (one per sub-slab, y-sorted) and the
/// y-sorted spanning events into the slab-file of the union slab.
pub fn merge_sweep(
    ctx: &EmContext,
    slab_files: &[TupleFile<SlabTuple>],
    slabs: &[Interval],
    span_events: &TupleFile<SpanEvent>,
) -> Result<TupleFile<SlabTuple>> {
    if slab_files.len() != slabs.len() {
        return Err(CoreError::Internal(format!(
            "merge_sweep got {} slab files but {} slabs",
            slab_files.len(),
            slabs.len()
        )));
    }
    if slabs.is_empty() {
        return Err(CoreError::Internal("merge_sweep got no slabs".into()));
    }
    let m = slabs.len();
    let mut readers: Vec<TupleReader<'_, SlabTuple>> =
        slab_files.iter().map(|f| ctx.open_reader(f)).collect();
    let mut span_reader = ctx.open_reader(span_events);
    let mut writer = ctx.create_writer::<SlabTuple>()?;

    // Sweep state: every reader's head y (`None` once exhausted), and per
    // sub-slab its latest tuple, its spanning weight and their total.
    let mut heads: Vec<Option<f64>> = Vec::with_capacity(m);
    for reader in readers.iter_mut() {
        heads.push(reader.peek()?.map(|t| t.y));
    }
    let mut up_sum = vec![0.0f64; m];
    let mut tslab: Vec<SlabTuple> = slabs
        .iter()
        .map(|s| SlabTuple::new(f64::NEG_INFINITY, s.lo, s.hi, 0.0))
        .collect();
    let mut totals: Vec<f64> = tslab
        .iter()
        .zip(&up_sum)
        .map(|(t, up)| t.sum + up)
        .collect();
    let mut by_y = Tournament::new(m, |b, a| earlier(&heads, b, a));
    let mut by_total = Tournament::new(m, |b, a| totals[b] > totals[a]);

    let mut holders: Vec<usize> = Vec::new();
    let mut changed: Vec<usize> = Vec::new();
    let mut is_changed = vec![false; m];

    loop {
        // The next event y is the smallest head y over all inputs.
        let span_y = span_reader.peek()?.map(|e| e.y);
        let y = match (heads[by_y.winner()], span_y) {
            (Some(a), Some(b)) => a.min(b),
            (Some(y), None) | (None, Some(y)) => y,
            (None, None) => break,
        };

        // Consume every record at exactly this y: spanning events first ...
        while let Some(e) = span_reader.peek()? {
            if e.y > y {
                break;
            }
            let e = span_reader.next_record()?.expect("peeked span event");
            // Events beyond the slab range are tolerated as no-ops, matching
            // the clamp on `slab_hi`.
            let (lo, hi) = (e.slab_lo as usize, (e.slab_hi as usize).min(m - 1));
            if lo <= hi {
                for (i, sum) in (lo..).zip(&mut up_sum[lo..=hi]) {
                    *sum += e.delta();
                    mark(i, &mut changed, &mut is_changed);
                }
            }
        }
        // ... then the readers holding y, in index order: the leftmost
        // smallest head is the lowest-index reader still holding y.  When
        // many readers share y, the rest are found in one descent and the
        // tree is rebuilt, which caps this step at `O(m)`.
        let mut popped = 0;
        loop {
            let i = by_y.winner();
            if !heads[i].is_some_and(|h| h <= y) {
                break;
            }
            if by_y.cheaper_to_rebuild(popped + 1) {
                holders.clear();
                by_y.collect(|j| heads[j].is_some_and(|h| h <= y), &mut holders);
                for &j in &holders {
                    heads[j] = consume_at(&mut readers[j], y, &mut tslab[j])?;
                    mark(j, &mut changed, &mut is_changed);
                }
                by_y.rebuild(|b, a| earlier(&heads, b, a));
                break;
            }
            heads[i] = consume_at(&mut readers[i], y, &mut tslab[i])?;
            mark(i, &mut changed, &mut is_changed);
            by_y.update(i, |b, a| earlier(&heads, b, a));
            popped += 1;
        }

        // Re-rank the changed sub-slabs and emit the best max-interval.
        for &i in &changed {
            totals[i] = tslab[i].sum + up_sum[i];
            is_changed[i] = false;
        }
        by_total.replay(&changed, |b, a| totals[b] > totals[a]);
        changed.clear();
        let best = by_total.winner();
        let winner = &tslab[best];
        writer.push(&SlabTuple::new(y, winner.x_lo, winner.x_hi, totals[best]))?;
    }

    writer.finish().map_err(CoreError::from)
}

/// Consumes every tuple of `reader` at `y` or below into `latest`, leaving
/// the reader refilled, and returns its new head y.
fn consume_at(
    reader: &mut TupleReader<'_, SlabTuple>,
    y: f64,
    latest: &mut SlabTuple,
) -> Result<Option<f64>> {
    while let Some(t) = reader.peek()? {
        if t.y > y {
            break;
        }
        *latest = reader.next_record()?.expect("peeked slab tuple");
    }
    Ok(reader.peek()?.map(|t| t.y))
}

/// Records sub-slab `i` as changed at the current y, once.
fn mark(i: usize, changed: &mut Vec<usize>, is_changed: &mut [bool]) {
    if !is_changed[i] {
        is_changed[i] = true;
        changed.push(i);
    }
}

/// Whether reader `b`'s head comes strictly before reader `a`'s; an
/// exhausted reader comes after every other.
fn earlier(heads: &[Option<f64>], b: usize, a: usize) -> bool {
    match (heads[b], heads[a]) {
        (Some(yb), Some(ya)) => yb < ya,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

/// An array-backed tournament tree over `n` leaves: every internal node
/// holds the index of the winning leaf below it, so the overall winner sits
/// at the root and a changed leaf is replayed along its path in `O(log n)`.
///
/// The tree stores only indices; the caller passes `beats(b, a)` — whether
/// leaf `b` wins strictly over leaf `a`, for `a < b` — to every operation,
/// so ties go to the lower index.
struct Tournament {
    /// Leaf slots (`n` rounded up to a power of two); leaf `i` is node
    /// `base + i`, the root is node 1.
    base: usize,
    n: usize,
    nodes: Vec<usize>,
}

impl Tournament {
    fn new(n: usize, beats: impl Fn(usize, usize) -> bool) -> Self {
        let base = n.next_power_of_two();
        let mut nodes = vec![0; 2 * base];
        for (i, node) in nodes[base..].iter_mut().enumerate() {
            *node = i;
        }
        let mut tree = Tournament { base, n, nodes };
        tree.rebuild(beats);
        tree
    }

    /// The winning leaf.
    fn winner(&self) -> usize {
        self.nodes[1]
    }

    /// The match at internal node `v`: the right winner takes it only by
    /// beating the left one strictly.  Padding leaves (index `≥ n`) sit
    /// right of every real leaf and never win.
    fn play(&self, v: usize, beats: &impl Fn(usize, usize) -> bool) -> usize {
        let (a, b) = (self.nodes[2 * v], self.nodes[2 * v + 1]);
        if b < self.n && beats(b, a) {
            b
        } else {
            a
        }
    }

    /// Replays the path above `leaf`.
    fn update(&mut self, leaf: usize, beats: impl Fn(usize, usize) -> bool) {
        let mut v = (self.base + leaf) / 2;
        while v >= 1 {
            self.nodes[v] = self.play(v, &beats);
            v /= 2;
        }
    }

    /// Replays every match bottom-up, in `O(n)`.
    fn rebuild(&mut self, beats: impl Fn(usize, usize) -> bool) {
        for v in (1..self.base).rev() {
            self.nodes[v] = self.play(v, &beats);
        }
    }

    /// Whether `updates` path replays cost at least a rebuild.
    fn cheaper_to_rebuild(&self, updates: usize) -> bool {
        updates * self.base.trailing_zeros() as usize >= self.base
    }

    /// Replays the paths above the changed `leaves`, or rebuilds the whole
    /// tree when that is cheaper.
    fn replay(&mut self, leaves: &[usize], beats: impl Fn(usize, usize) -> bool) {
        if self.cheaper_to_rebuild(leaves.len()) {
            self.rebuild(beats);
        } else {
            for &leaf in leaves {
                self.update(leaf, &beats);
            }
        }
    }

    /// Appends, in index order, every leaf `i` with `keep(i)`, descending
    /// only into subtrees whose winner passes `keep`.  Complete whenever a
    /// leaf that passes `keep` beats every leaf that fails it.
    fn collect(&self, keep: impl Fn(usize) -> bool, out: &mut Vec<usize>) {
        self.collect_below(1, &keep, out);
    }

    fn collect_below(&self, v: usize, keep: &impl Fn(usize) -> bool, out: &mut Vec<usize>) {
        let w = self.nodes[v];
        if w >= self.n || !keep(w) {
            return;
        }
        if v >= self.base {
            out.push(w);
        } else {
            self.collect_below(2 * v, keep, out);
            self.collect_below(2 * v + 1, keep, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane_sweep::{best_region_from_tuples, plane_sweep_slab};
    use crate::records::RectRecord;
    use maxrs_em::EmConfig;
    use maxrs_geometry::Rect;

    fn ctx() -> EmContext {
        EmContext::new(EmConfig::new(256, 4096).unwrap())
    }

    fn rect(x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64, w: f64) -> RectRecord {
        RectRecord::new(Rect::new(x_lo, x_hi, y_lo, y_hi), w)
    }

    /// Merging the slab-files of a vertical split must give the same best
    /// region as sweeping everything in one slab.
    #[test]
    fn merge_matches_single_slab_sweep() {
        let ctx = ctx();
        let rects = vec![
            rect(0.0, 4.0, 0.0, 4.0, 1.0),
            rect(2.0, 6.0, 1.0, 5.0, 1.0),
            rect(3.0, 7.0, 2.0, 6.0, 1.0),
            rect(11.0, 13.0, 0.0, 2.0, 1.0),
            rect(12.0, 14.0, 1.0, 3.0, 1.0),
        ];
        // Reference: sweep the whole plane at once.
        let reference = plane_sweep_slab(&rects, Interval::UNBOUNDED);
        let expected = best_region_from_tuples(&reference).unwrap();

        // Split at x = 5: rectangles are cropped, none spans the whole slab.
        let boundary = 5.0;
        let left_slab = Interval::new(f64::NEG_INFINITY, boundary);
        let right_slab = Interval::new(boundary, f64::INFINITY);
        let left_tuples = plane_sweep_slab(&rects, left_slab);
        let right_tuples = plane_sweep_slab(&rects, right_slab);

        let left_file = ctx.write_all(&left_tuples).unwrap();
        let right_file = ctx.write_all(&right_tuples).unwrap();
        let no_spans = ctx.write_all::<SpanEvent>(&[]).unwrap();

        let merged = merge_sweep(
            &ctx,
            &[left_file, right_file],
            &[left_slab, right_slab],
            &no_spans,
        )
        .unwrap();
        let merged_tuples = ctx.read_all(&merged).unwrap();
        let got = best_region_from_tuples(&merged_tuples).unwrap();
        assert_eq!(got.total_weight, expected.total_weight);
    }

    /// Spanning rectangles must raise the sums of the slabs they cover, even
    /// when those slabs have no tuples of their own at that y.
    #[test]
    fn spanning_rectangles_contribute_up_sum() {
        let ctx = ctx();
        // Two sub-slabs [0,10) and [10,20). A single rectangle lives in the
        // right slab; a spanning rectangle covers the left slab entirely
        // between y=0 and y=10 with weight 5.
        let left_slab = Interval::new(0.0, 10.0);
        let right_slab = Interval::new(10.0, 20.0);
        let right_tuples = plane_sweep_slab(&[rect(12.0, 15.0, 2.0, 4.0, 2.0)], right_slab);
        let left_file = ctx.write_all::<SlabTuple>(&[]).unwrap();
        let right_file = ctx.write_all(&right_tuples).unwrap();
        let spans: Vec<SpanEvent> = SpanEvent::pair(0.0, 10.0, 5.0, 0, 0).to_vec();
        let span_file = ctx.write_all(&spans).unwrap();

        let merged = merge_sweep(
            &ctx,
            &[left_file, right_file],
            &[left_slab, right_slab],
            &span_file,
        )
        .unwrap();
        let tuples = ctx.read_all(&merged).unwrap();
        let best = best_region_from_tuples(&tuples).unwrap();
        // The best achievable sum is the spanning weight 5 over the left slab
        // (the right slab's own rectangle only reaches 2).
        assert_eq!(best.total_weight, 5.0);
        assert!(best.region.x_hi <= 10.0);
        // The sweep must emit tuples at the span edges y=0 and y=10 as well as
        // at the right-slab h-lines.
        let ys: Vec<f64> = tuples.iter().map(|t| t.y).collect();
        assert!(ys.contains(&0.0));
        assert!(ys.contains(&10.0));
        assert!(ys.contains(&2.0));
        assert!(ys.contains(&4.0));
        // After y=10 the spanning weight is gone.
        let after = tuples.iter().find(|t| t.y == 10.0).unwrap();
        assert!(after.sum <= 2.0);
    }

    /// When adjacent sub-slabs tie, the leftmost max-interval wins; its
    /// interior is guaranteed to attain the reported sum.
    #[test]
    fn ties_between_adjacent_slabs_pick_the_leftmost_interval() {
        let ctx = ctx();
        // One rectangle [2, 18] x [0, 4] with weight 3 split at x = 10.
        let left_slab = Interval::new(f64::NEG_INFINITY, 10.0);
        let right_slab = Interval::new(10.0, f64::INFINITY);
        let left_tuples = plane_sweep_slab(&[rect(2.0, 10.0, 0.0, 4.0, 3.0)], left_slab);
        let right_tuples = plane_sweep_slab(&[rect(10.0, 18.0, 0.0, 4.0, 3.0)], right_slab);
        let left_file = ctx.write_all(&left_tuples).unwrap();
        let right_file = ctx.write_all(&right_tuples).unwrap();
        let no_spans = ctx.write_all::<SpanEvent>(&[]).unwrap();
        let merged = merge_sweep(
            &ctx,
            &[left_file, right_file],
            &[left_slab, right_slab],
            &no_spans,
        )
        .unwrap();
        let tuples = ctx.read_all(&merged).unwrap();
        let at_bottom = tuples.iter().find(|t| t.y == 0.0).unwrap();
        assert_eq!(at_bottom.sum, 3.0);
        assert_eq!(at_bottom.x_lo, 2.0);
        assert_eq!(at_bottom.x_hi, 10.0, "leftmost tying interval is reported");
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let ctx = ctx();
        let files = [
            ctx.write_all::<SlabTuple>(&[]).unwrap(),
            ctx.write_all::<SlabTuple>(&[]).unwrap(),
        ];
        let spans = ctx.write_all::<SpanEvent>(&[]).unwrap();
        let merged = merge_sweep(
            &ctx,
            &files,
            &[Interval::new(0.0, 1.0), Interval::new(1.0, 2.0)],
            &spans,
        )
        .unwrap();
        assert!(merged.is_empty());
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let ctx = ctx();
        let files = [ctx.write_all::<SlabTuple>(&[]).unwrap()];
        let spans = ctx.write_all::<SpanEvent>(&[]).unwrap();
        let err = merge_sweep(&ctx, &files, &[], &spans).unwrap_err();
        assert!(matches!(err, CoreError::Internal(_)));
    }
}
