//! Slab partitioning and rectangle distribution for the distribution sweep.
//!
//! At every recursion node of ExactMaxRS the current slab is divided into at
//! most `m = Θ(M/B)` sub-slabs — no more than `⌈2.5·n/M⌉` for a slab of `n`
//! rectangles — split at quantiles of the rectangle edges, so each sub-slab
//! holds about the same number of edges.  Each rectangle is then routed to the
//! sub-slabs holding its vertical edges (cropped accordingly), while the parts
//! that *span* entire sub-slabs are diverted to a separate spanning file — the
//! key idea that guarantees the recursion terminates (Lemma 1 of the paper).

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
    /// piece behind.  A rectangle that misses the partition's outer bounds
    /// altogether — where [`Rect::clip_x`] would drop it at the leaves — goes
    /// nowhere.
    pub fn crop(&self, rec: &RectRecord) -> Crop {
        let b = &self.boundaries;
        let r = rec.rect;
        let outer = Interval::new(b[0], b[self.num_slabs()]);
        if r.clip_x(&outer).is_none() {
            return Crop {
                pieces: [None, None],
                span: None,
            };
        }
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

/// The reservoir size of [`BoundarySource::SortedExact`], and of the
/// [`BoundarySource::Sampled`] reservoir every recursion node draws from.
pub(crate) const DEFAULT_BOUNDARY_SAMPLE: usize = 8192;

/// How large a reservoir [`compute_partition`] draws its edge sample from.
/// Both variants sample the rectangle edges with the same deterministic
/// reservoir; neither reads the file's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundarySource {
    /// A reservoir of 8,192 edges, the size every recursion node samples.
    /// No path in this crate passes it: the name is left from when a pass's
    /// root was x-sorted, and stays because the benchmark package
    /// (`benchmark/src/em.rs`) still passes it.
    SortedExact,
    /// A reservoir of at most the given size.
    Sampled(usize),
}

/// Computes the sub-slab boundaries for the rectangles of `file` within the
/// outer slab `outer`.
///
/// `m` is the largest fan-out the caller accepts.  A file of `n` rectangles
/// gets `k ≤ max(2, ⌈2.5·n/M⌉)` sub-slabs (`M` =
/// `mem_records::<RectRecord>()` of the context's configuration), split at
/// quantiles of the rectangle edges (`x_lo`, `x_hi`) strictly inside `outer`.
/// Each sub-slab then holds about `2n/k ≤ 0.8·M` edges, and the distribution
/// never hands a child more rectangles than the edges inside its sub-slab, so
/// a slab of up to `m·M/2.5` rectangles ends in one level of in-memory
/// children whatever the rectangle widths.
///
/// When no edge lies strictly inside a bounded `outer` (every rectangle
/// covers the whole slab), the slab is split at its midpoint, so every
/// rectangle becomes a span event.  Duplicate quantiles (heavy ties on x) are
/// collapsed, so the returned partition may have fewer slabs; callers must
/// handle partitions that degenerate to a single slab (no progress) by
/// falling back to the in-memory sweep.
pub fn compute_partition(
    ctx: &EmContext,
    file: &TupleFile<RectRecord>,
    outer: Interval,
    m: usize,
    source: BoundarySource,
) -> Result<SlabPartition> {
    let n = file.len();
    let mem = ctx.config().mem_records::<RectRecord>().max(1) as u64;
    let m = m.min((5 * n).div_ceil(2 * mem) as usize).max(2);
    let cap = match source {
        BoundarySource::SortedExact => DEFAULT_BOUNDARY_SAMPLE,
        BoundarySource::Sampled(cap) => cap,
    }
    .max(m * 4);

    let mut reservoir = Reservoir::new(n, cap);
    let mut reader = ctx.open_reader(file);
    while let Some(rec) = reader.next_record()? {
        for edge in [rec.rect.x_lo, rec.rect.x_hi] {
            if outer.contains_open(edge) {
                reservoir.push(edge);
            }
        }
    }
    let sample = reservoir.into_sorted();
    // With no edge inside, the midpoint (NaN or infinite on an unbounded
    // side, and then skipped) still splits a bounded slab.
    let cuts: Vec<f64> = if sample.is_empty() {
        vec![outer.lo + (outer.hi - outer.lo) / 2.0]
    } else {
        (1..m).map(|i| sample[i * sample.len() / m]).collect()
    };

    let mut boundaries = Vec::with_capacity(m + 1);
    boundaries.push(outer.lo);
    for c in cuts {
        if c > *boundaries.last().unwrap() && c < outer.hi {
            boundaries.push(c);
        }
    }
    boundaries.push(outer.hi);
    Ok(SlabPartition::new(boundaries))
}

/// A deterministic reservoir sample: the first `cap` values, then each later
/// value replaces a uniformly drawn slot with probability `cap / seen`, the
/// draws coming from an xorshift generator seeded by the stream's length `n`
/// — so the sample is a pure function of the stream.  The edge sample of
/// [`compute_partition`] and the x sample of
/// [`select_shard_boundaries`](crate::shard::select_shard_boundaries).
pub(crate) struct Reservoir {
    sample: Vec<f64>,
    cap: usize,
    seen: u64,
    state: u64,
}

impl Reservoir {
    /// An empty reservoir of at most `cap` values over a stream of `n`
    /// items, each yielding at most two values.
    pub(crate) fn new(n: u64, cap: usize) -> Self {
        Reservoir {
            sample: Vec::with_capacity(cap.min(2 * n as usize)),
            cap,
            seen: 0,
            state: 0x9E3779B97F4A7C15 ^ n.wrapping_mul(0x2545F4914F6CDD1D),
        }
    }

    /// Offers the next value of the stream.
    pub(crate) fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.sample.len() < self.cap {
            self.sample.push(value);
            return;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let j = self.state % self.seen;
        if (j as usize) < self.cap {
            self.sample[j as usize] = value;
        }
    }

    /// The sample in ascending order.
    pub(crate) fn into_sorted(mut self) -> Vec<f64> {
        self.sample.sort_unstable_by(f64::total_cmp);
        self.sample
    }
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
    fn compute_partition_caps_the_fan_out_at_the_file_size() {
        // 256-byte blocks and a 4,096-byte buffer: M = 102 rectangles.
        let ctx = ctx();
        assert_eq!(ctx.config().mem_records::<RectRecord>(), 102);
        let partition_of = |n: usize| {
            let rects: Vec<RectRecord> = (0..n)
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
            ctx.delete_file(file).unwrap();
            p
        };

        // ⌈2.5·100/102⌉ = 3 sub-slabs, at edge quantiles.
        let p = partition_of(100);
        assert!(p.num_slabs() >= 2 && p.num_slabs() <= 3, "{p:?}");
        assert!(p.boundaries[0].is_infinite() && p.boundaries[p.num_slabs()].is_infinite());
        assert!((p.boundaries[1] - 33.0).abs() <= 2.0, "{p:?}");

        // A file many buffers long keeps the requested fan-out.
        let p = partition_of(2_000);
        assert_eq!(p.num_slabs(), 4);
        for (i, q) in [500.0, 1000.0, 1500.0].into_iter().enumerate() {
            assert!((p.boundaries[i + 1] - q).abs() <= 50.0, "{p:?}");
        }
    }

    /// A slab of up to `m·M/2.5` rectangles ends in one level: at most
    /// `⌈2.5·n/M⌉` sub-slabs, and no child larger than `M`, for any
    /// rectangle width and file order.
    #[test]
    fn compute_partition_finishes_a_few_buffers_in_one_level() {
        use maxrs_datagen::{Dataset, DatasetKind, SPACE_EXTENT};
        use maxrs_geometry::RectSize;

        // 1 KiB blocks, 64-block buffer: M = 1,638 rectangles, m = 62.
        let ctx = EmContext::new(EmConfig::new(1024, 64 * 1024).unwrap());
        let mem = ctx.config().mem_records::<RectRecord>();
        let fanout = ctx.config().fanout();
        for kind in [DatasetKind::Uniform, DatasetKind::Gaussian] {
            for n in [5_000, 20_000] {
                let objects = Dataset::generate(kind, n, 7).objects;
                let cap = (5 * n).div_ceil(2 * mem);
                assert!(cap <= fanout);
                for share in [0.01, 0.1, 0.4] {
                    let size = RectSize::square(share * SPACE_EXTENT);
                    let mut rects: Vec<RectRecord> = objects
                        .iter()
                        .map(|o| RectRecord::new(o.to_rect(size), o.weight))
                        .collect();
                    let unsorted = ctx.write_all(&rects).unwrap();
                    rects.sort_by(|a, b| a.rect.x_lo.total_cmp(&b.rect.x_lo));
                    let sorted = ctx.write_all(&rects).unwrap();
                    for (file, order) in [(&unsorted, "generated"), (&sorted, "x-sorted")] {
                        let source = BoundarySource::Sampled(8192);
                        let p = compute_partition(&ctx, file, Interval::UNBOUNDED, fanout, source)
                            .unwrap();
                        let at = format!("{kind:?} n={n} share={share} {order}");
                        assert!(p.num_slabs() >= 2 && p.num_slabs() <= cap, "{at}");
                        let dist = distribute(&ctx, file, &p).unwrap();
                        for f in dist.slab_inputs {
                            assert!(f.len() as usize <= mem, "{at}: child of {}", f.len());
                            ctx.delete_file(f).unwrap();
                        }
                        ctx.delete_file(dist.span_events).unwrap();
                    }
                    ctx.delete_file(sorted).unwrap();
                    ctx.delete_file(unsorted).unwrap();
                }
            }
        }
    }

    #[test]
    fn compute_partition_splits_a_slab_no_edge_falls_inside() {
        // A bounded slab narrower than every rectangle (a MinRS domain
        // narrower than the query): all rectangles cover it, so the reservoir
        // is empty.  One slab would hand a file larger than M to the leaf
        // sweep; the midpoint split turns every rectangle into a span event.
        let ctx = ctx();
        let n = 300;
        let rects: Vec<RectRecord> = (0..n)
            .map(|i| rect(-(i as f64), 10.0 + i as f64, i as f64, i as f64 + 2.0, 1.0))
            .collect();
        let file = ctx.write_all(&rects).unwrap();
        let outer = Interval::new(2.0, 6.0);
        for source in [BoundarySource::SortedExact, BoundarySource::Sampled(32)] {
            let p = compute_partition(&ctx, &file, outer, 8, source).unwrap();
            assert_eq!(p.boundaries, vec![2.0, 4.0, 6.0], "{source:?}");
            let dist = distribute(&ctx, &file, &p).unwrap();
            assert!(dist.slab_inputs.iter().all(|f| f.is_empty()));
            assert_eq!(dist.span_events.len(), 2 * n as u64);
        }
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
