//! Slab partitioning and rectangle distribution for the distribution sweep.
//!
//! At every recursion node of ExactMaxRS the current slab is divided into
//! `m = Θ(M/B)` sub-slabs containing roughly the same number of rectangles.
//! Each rectangle is then routed to the sub-slabs holding its vertical edges
//! (cropped accordingly), while the parts that *span* entire sub-slabs are
//! diverted to a separate spanning file — the key idea that guarantees the
//! recursion terminates (Lemma 1 of the paper).

use maxrs_em::{external_sort_by_key, EmContext, TupleFile, TupleWriter};
use maxrs_geometry::{Interval, Rect};

use crate::error::Result;
use crate::records::{RectRecord, SpanEvent};

/// A division of a slab into contiguous sub-slabs.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabPartition {
    /// Strictly increasing boundaries; `boundaries[0]` / `boundaries.last()`
    /// are the outer slab's bounds (possibly infinite).  Slab `i` is
    /// `[boundaries[i], boundaries[i+1])`, with the last slab closed above.
    pub boundaries: Vec<f64>,
}

impl SlabPartition {
    /// Creates a partition from raw boundaries (must be strictly increasing
    /// and contain at least two values).
    pub fn new(boundaries: Vec<f64>) -> Self {
        assert!(boundaries.len() >= 2, "a partition needs at least one slab");
        debug_assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "slab boundaries must be strictly increasing"
        );
        SlabPartition { boundaries }
    }

    /// Number of sub-slabs.
    pub fn num_slabs(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The x-interval of sub-slab `i`.
    pub fn slab(&self, i: usize) -> Interval {
        Interval::new(self.boundaries[i], self.boundaries[i + 1])
    }

    /// All sub-slab intervals.
    pub fn slabs(&self) -> Vec<Interval> {
        (0..self.num_slabs()).map(|i| self.slab(i)).collect()
    }

    /// Index of the sub-slab containing `x`.  Values at the outer bounds are
    /// clamped into the first / last slab.
    pub fn locate(&self, x: f64) -> usize {
        let n = self.num_slabs();
        // First boundary strictly greater than x, minus one.
        let idx = self.boundaries.partition_point(|&b| b <= x);
        idx.saturating_sub(1).min(n - 1)
    }

    /// The crop rule of the distribution sweep: where `rec` goes under this
    /// partition.
    ///
    /// A sub-slab the rectangle covers from bound to bound joins the
    /// span run, even at the partition's ends where [`locate`](Self::locate)
    /// clamps an edge beyond the outer bounds, so a wide rectangle never
    /// becomes a full-width piece that the recursion would carry down level
    /// after level.  A sub-slab it covers only partly receives the cropped
    /// end piece (the whole rectangle when both edges fall into one
    /// sub-slab); a right edge exactly on a boundary leaves no zero-width
    /// piece behind.
    pub fn crop(&self, rec: &RectRecord) -> Crop {
        let b = &self.boundaries;
        let r = rec.rect;
        let j = self.locate(r.x_lo);
        let k = self.locate(r.x_hi);
        let covers_left = r.x_lo <= b[j];
        let covers_right = r.x_hi >= b[k + 1];
        let piece = |slab: usize, x_lo: f64, x_hi: f64| {
            (
                slab,
                RectRecord::new(Rect::new(x_lo, x_hi, r.y_lo, r.y_hi), rec.weight),
            )
        };
        let mut pieces = [None, None];
        if j == k {
            if !(covers_left && covers_right) {
                pieces[0] = Some((j, *rec));
            }
        } else {
            if !covers_left {
                pieces[0] = Some(piece(j, r.x_lo, b[j + 1]));
            }
            if !covers_right && r.x_hi > b[k] {
                pieces[1] = Some(piece(k, b[k], r.x_hi));
            }
        }
        let span_lo = if covers_left { j } else { j + 1 };
        let span_end = if covers_right { k + 1 } else { k };
        let span = (span_lo < span_end).then(|| {
            SpanEvent::pair(
                r.y_lo,
                r.y_hi,
                rec.weight,
                span_lo as u32,
                (span_end - 1) as u32,
            )
        });
        Crop { pieces, span }
    }
}

/// Where one rectangle goes under a [`SlabPartition`] — the output of
/// [`SlabPartition::crop`], in push order: left piece, right piece, then the
/// span pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crop {
    /// The partly covered end pieces as `(sub-slab, cropped rectangle)`,
    /// left first.
    pub pieces: [Option<(usize, RectRecord)>; 2],
    /// The event pair of the fully covered sub-slab run, if any.
    pub span: Option<[SpanEvent; 2]>,
}

/// How slab boundaries are derived from the input file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundarySource {
    /// The file is sorted by rectangle center x, so exact quantiles can be
    /// read off in a single sequential pass (the situation after the initial
    /// external sort of the paper's pipeline).
    SortedExact,
    /// The file is in arbitrary order; boundaries are quantiles of a
    /// deterministic reservoir sample of at most the given size.
    Sampled(usize),
}

/// Computes `m` sub-slab boundaries for the rectangles of `file` within the
/// outer slab `outer`.
///
/// Duplicate quantiles (heavy ties on x) are collapsed, so the returned
/// partition may have fewer than `m` slabs; callers must handle partitions
/// that degenerate to a single slab (no progress) by falling back to the
/// in-memory sweep.
pub fn compute_partition(
    ctx: &EmContext,
    file: &TupleFile<RectRecord>,
    outer: Interval,
    m: usize,
    source: BoundarySource,
) -> Result<SlabPartition> {
    let m = m.max(2);
    let n = file.len();
    let centers: Vec<f64> = match source {
        BoundarySource::SortedExact => {
            // One sequential pass: remember the centers at the quantile ranks.
            let mut targets: Vec<u64> = (1..m as u64).map(|i| i * n / m as u64).collect();
            targets.dedup();
            let mut out = Vec::with_capacity(targets.len());
            let mut reader = ctx.open_reader(file);
            let mut idx: u64 = 0;
            let mut t = 0usize;
            while let Some(rec) = reader.next_record()? {
                if t < targets.len() && idx == targets[t] {
                    out.push(rec.center_x());
                    t += 1;
                }
                idx += 1;
                if t == targets.len() {
                    break;
                }
            }
            out
        }
        BoundarySource::Sampled(cap) => {
            let cap = cap.max(m * 4);
            let mut sample: Vec<f64> = Vec::with_capacity(cap.min(n as usize));
            let mut reader = ctx.open_reader(file);
            let mut seen: u64 = 0;
            // Deterministic xorshift so experiments are reproducible.
            let mut state: u64 = 0x9E3779B97F4A7C15 ^ (n.wrapping_mul(0x2545F4914F6CDD1D));
            let mut next_rand = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            while let Some(rec) = reader.next_record()? {
                seen += 1;
                if sample.len() < cap {
                    sample.push(rec.center_x());
                } else {
                    let j = next_rand() % seen;
                    if (j as usize) < cap {
                        sample[j as usize] = rec.center_x();
                    }
                }
            }
            sample.sort_unstable_by(f64::total_cmp);
            (1..m)
                .map(|i| sample[(i * sample.len() / m).min(sample.len().saturating_sub(1))])
                .collect()
        }
    };

    let mut boundaries = Vec::with_capacity(m + 1);
    boundaries.push(outer.lo);
    for c in centers {
        if c > *boundaries.last().unwrap() && c < outer.hi {
            boundaries.push(c);
        }
    }
    boundaries.push(outer.hi);
    Ok(SlabPartition::new(boundaries))
}

/// Output of [`distribute`]: per-slab input files plus the y-sorted spanning
/// events.
#[derive(Debug)]
pub struct Distribution {
    /// The partition that was applied.
    pub partition: SlabPartition,
    /// One rectangle file per sub-slab (cropped, non-spanning pieces only).
    pub slab_inputs: Vec<TupleFile<RectRecord>>,
    /// Events of the spanning rectangle parts, sorted by y.
    pub span_events: TupleFile<SpanEvent>,
}

/// Routes every rectangle of `file` into the sub-slabs of `partition` by
/// [`SlabPartition::crop`]: partly covered sub-slabs receive the cropped
/// pieces, fully covered runs are recorded as pairs of [`SpanEvent`]s.
///
/// The spanning events are sorted by y before being returned so that
/// MergeSweep can consume them in sweep order.
pub fn distribute(
    ctx: &EmContext,
    file: &TupleFile<RectRecord>,
    partition: &SlabPartition,
) -> Result<Distribution> {
    let m = partition.num_slabs();
    let mut slab_writers: Vec<TupleWriter<'_, RectRecord>> = Vec::with_capacity(m);
    for _ in 0..m {
        slab_writers.push(ctx.create_writer()?);
    }
    let mut span_writer: TupleWriter<'_, SpanEvent> = ctx.create_writer()?;

    let mut reader = ctx.open_reader(file);
    while let Some(rec) = reader.next_record()? {
        let crop = partition.crop(&rec);
        for (t, piece) in crop.pieces.into_iter().flatten() {
            slab_writers[t].push(&piece)?;
        }
        for ev in crop.span.into_iter().flatten() {
            span_writer.push(&ev)?;
        }
    }

    // A failure from here on deletes the slab inputs already finished.
    let mut slab_inputs = Vec::with_capacity(m);
    match finish_distribution(ctx, slab_writers, span_writer, &mut slab_inputs) {
        Ok(span_events) => Ok(Distribution {
            partition: partition.clone(),
            slab_inputs,
            span_events,
        }),
        Err(e) => {
            for f in slab_inputs {
                let _ = ctx.delete_file(f);
            }
            Err(e)
        }
    }
}

/// Finishes the slab writers into `slab_inputs` and returns the span events
/// sorted by y; the unsorted span file is deleted whatever happens.
fn finish_distribution(
    ctx: &EmContext,
    slab_writers: Vec<TupleWriter<'_, RectRecord>>,
    span_writer: TupleWriter<'_, SpanEvent>,
    slab_inputs: &mut Vec<TupleFile<RectRecord>>,
) -> Result<TupleFile<SpanEvent>> {
    for w in slab_writers {
        slab_inputs.push(w.finish()?);
    }
    let span_unsorted = span_writer.finish()?;
    let sorted = external_sort_by_key(ctx, &span_unsorted, |e| e.y);
    let deleted = ctx.delete_file(span_unsorted);
    let sorted = sorted?;
    if let Err(e) = deleted {
        let _ = ctx.delete_file(sorted);
        return Err(e.into());
    }
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_em::EmConfig;

    fn ctx() -> EmContext {
        EmContext::new(EmConfig::new(256, 4096).unwrap())
    }

    fn rect(x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64, w: f64) -> RectRecord {
        RectRecord::new(Rect::new(x_lo, x_hi, y_lo, y_hi), w)
    }

    #[test]
    fn partition_locate() {
        let p = SlabPartition::new(vec![f64::NEG_INFINITY, 0.0, 10.0, f64::INFINITY]);
        assert_eq!(p.num_slabs(), 3);
        assert_eq!(p.locate(-5.0), 0);
        assert_eq!(p.locate(0.0), 1);
        assert_eq!(p.locate(5.0), 1);
        assert_eq!(p.locate(10.0), 2);
        assert_eq!(p.locate(1e12), 2);
        assert_eq!(p.slab(1), Interval::new(0.0, 10.0));
        assert_eq!(p.slabs().len(), 3);
    }

    #[test]
    fn bounded_partition_clamps_to_outer() {
        let p = SlabPartition::new(vec![2.0, 5.0, 9.0]);
        assert_eq!(p.locate(1.0), 0, "values below the outer slab clamp to 0");
        assert_eq!(
            p.locate(9.0),
            1,
            "the outer upper bound belongs to the last slab"
        );
        assert_eq!(p.locate(100.0), 1);
    }

    #[test]
    fn compute_partition_sorted_exact() {
        let ctx = ctx();
        // 100 rectangles with centers 0..100, sorted.
        let rects: Vec<RectRecord> = (0..100)
            .map(|i| rect(i as f64 - 0.5, i as f64 + 0.5, 0.0, 1.0, 1.0))
            .collect();
        let file = ctx.write_all(&rects).unwrap();
        let p = compute_partition(
            &ctx,
            &file,
            Interval::UNBOUNDED,
            4,
            BoundarySource::SortedExact,
        )
        .unwrap();
        assert_eq!(p.num_slabs(), 4);
        // Quantile boundaries at roughly 25 / 50 / 75.
        assert!((p.boundaries[1] - 25.0).abs() <= 2.0);
        assert!((p.boundaries[2] - 50.0).abs() <= 2.0);
        assert!((p.boundaries[3] - 75.0).abs() <= 2.0);
        assert!(p.boundaries[0].is_infinite());
        assert!(p.boundaries[4].is_infinite());
    }

    #[test]
    fn compute_partition_sampled_handles_ties() {
        let ctx = ctx();
        // All rectangles share the same center: no useful split exists and the
        // partition must collapse instead of producing bogus boundaries.
        let rects: Vec<RectRecord> = (0..50).map(|_| rect(4.0, 6.0, 0.0, 1.0, 1.0)).collect();
        let file = ctx.write_all(&rects).unwrap();
        let p = compute_partition(
            &ctx,
            &file,
            Interval::UNBOUNDED,
            8,
            BoundarySource::Sampled(32),
        )
        .unwrap();
        assert!(p.num_slabs() <= 2);
    }

    #[test]
    fn distribute_routes_and_crops() {
        let ctx = ctx();
        let partition =
            SlabPartition::new(vec![f64::NEG_INFINITY, 10.0, 20.0, 30.0, f64::INFINITY]);
        let rects = vec![
            rect(1.0, 5.0, 0.0, 1.0, 1.0),   // entirely in slab 0
            rect(12.0, 18.0, 0.0, 2.0, 2.0), // entirely in slab 1
            rect(8.0, 26.0, 1.0, 3.0, 3.0), // spans boundary 10 and 20: pieces in 0 and 2, spans slab 1
            rect(15.0, 22.0, 0.0, 1.0, 4.0), // crosses one boundary: pieces in slabs 1 and 2, no span
        ];
        let file = ctx.write_all(&rects).unwrap();
        let dist = distribute(&ctx, &file, &partition).unwrap();
        assert_eq!(dist.slab_inputs.len(), 4);

        let slab0 = ctx.read_all(&dist.slab_inputs[0]).unwrap();
        let slab1 = ctx.read_all(&dist.slab_inputs[1]).unwrap();
        let slab2 = ctx.read_all(&dist.slab_inputs[2]).unwrap();
        let slab3 = ctx.read_all(&dist.slab_inputs[3]).unwrap();
        assert_eq!(slab0.len(), 2); // the small rect + the left piece of the spanner
        assert_eq!(slab1.len(), 2); // the middle rect + the left piece of rect 4
        assert_eq!(slab2.len(), 2); // right pieces of rect 3 and rect 4
        assert_eq!(slab3.len(), 0);

        // Crops stay inside their slabs.
        for (i, slab) in [slab0, slab1, slab2].iter().enumerate() {
            for r in slab {
                assert!(
                    r.rect.x_lo >= partition.boundaries[i] || partition.boundaries[i].is_infinite()
                );
                assert!(r.rect.x_hi <= partition.boundaries[i + 1]);
            }
        }

        // Exactly one spanning rectangle -> two events, sorted by y.
        let spans = ctx.read_all(&dist.span_events).unwrap();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].is_start && !spans[1].is_start);
        assert!(spans[0].y <= spans[1].y);
        assert_eq!(spans[0].slab_lo, 1);
        assert_eq!(spans[0].slab_hi, 1);
        assert_eq!(spans[0].weight, 3.0);
    }

    #[test]
    fn distribute_preserves_total_edge_count() {
        // Every input rectangle contributes at most 2 pieces + 1 span pair, and
        // every piece stays within one slab (the invariant behind Lemma 1).
        let ctx = ctx();
        let partition = SlabPartition::new(vec![0.0, 25.0, 50.0, 75.0, 100.0]);
        let rects: Vec<RectRecord> = (0..40)
            .map(|i| {
                let lo = (i * 2) as f64;
                rect(lo, lo + 15.0, 0.0, 1.0, 1.0)
            })
            .collect();
        let file = ctx.write_all(&rects).unwrap();
        let dist = distribute(&ctx, &file, &partition).unwrap();
        let pieces: u64 = dist.slab_inputs.iter().map(|f| f.len()).sum();
        assert!(pieces <= 2 * rects.len() as u64);
        assert!(pieces >= rects.len() as u64);
        for (i, f) in dist.slab_inputs.iter().enumerate() {
            let slab = dist.partition.slab(i);
            for r in ctx.read_all(f).unwrap() {
                assert!(r.rect.x_lo >= slab.lo && r.rect.x_hi <= slab.hi);
            }
        }
    }
}
