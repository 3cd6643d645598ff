//! Integration tests of the internal data-structure invariants of the
//! distribution sweep: slab-files, distribution, MergeSweep and the recursion,
//! checked against each other on generated inputs.

use maxrs_core::{
    compute_partition, distribute, exact_max_rs, load_objects, max_rs_in_memory, merge_sweep,
    plane_sweep_slab, transform_objects, transform_to_rect_file, BoundarySource, Crop,
    ExactMaxRsOptions, RectRecord, SlabPartition, SlabTuple, SpanEvent,
};
use maxrs_em::{EmConfig, EmContext};
use maxrs_geometry::{Interval, Rect, RectSize, WeightedPoint};

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
                1.0 + (next() * 2.0).floor(),
            )
        })
        .collect()
}

fn ctx() -> EmContext {
    EmContext::new(EmConfig::new(512, 8 * 512).unwrap())
}

/// Lemma 2: a slab-file has at most two tuples per rectangle, tuples are
/// strictly increasing in y, and the final tuple reports weight 0.
#[test]
fn slab_file_structural_invariants() {
    let objects = pseudo_random_objects(500, 3, 5000.0);
    let rects = transform_objects(&objects, RectSize::square(300.0));
    for slab in [
        Interval::UNBOUNDED,
        Interval::new(0.0, 2500.0),
        Interval::new(2500.0, 5000.0),
    ] {
        let tuples = plane_sweep_slab(&rects, slab);
        let in_slab = rects
            .iter()
            .filter(|r| r.rect.x_lo <= slab.hi && r.rect.x_hi >= slab.lo)
            .count();
        assert!(tuples.len() <= 2 * in_slab, "Lemma 2 violated");
        assert!(
            tuples.windows(2).all(|w| w[0].y < w[1].y),
            "tuples must be strictly y-sorted (one per h-line)"
        );
        assert!(tuples.iter().all(|t| t.sum >= 0.0));
        assert_eq!(
            tuples.last().unwrap().sum,
            0.0,
            "above all rectangles the weight is 0"
        );
        // Every max-interval stays within the slab.
        assert!(tuples
            .iter()
            .all(|t| t.x_lo >= slab.lo && t.x_hi <= slab.hi));
    }
}

/// Distribution: pieces are confined to their slabs, spanning events pair up,
/// and the total "mass" (weight x y-extent x coverage) is preserved.
#[test]
fn distribution_preserves_coverage() {
    let ctx = ctx();
    let objects = pseudo_random_objects(400, 9, 10_000.0);
    let size = RectSize::square(800.0);
    let obj_file = load_objects(&ctx, &objects).unwrap();
    let rect_file = transform_to_rect_file(&ctx, &obj_file, size).unwrap();
    let partition = compute_partition(
        &ctx,
        &rect_file,
        Interval::UNBOUNDED,
        6,
        BoundarySource::Sampled(1024),
    )
    .unwrap();
    let dist = distribute(&ctx, &rect_file, &partition).unwrap();

    // Piece confinement.
    for (i, f) in dist.slab_inputs.iter().enumerate() {
        let slab = dist.partition.slab(i);
        for r in ctx.read_all(f).unwrap() {
            assert!(
                r.rect.x_lo >= slab.lo && r.rect.x_hi <= slab.hi,
                "piece escapes slab {i}"
            );
        }
    }

    // Span events: sorted by y, start/end counts balance per slab range.
    let spans: Vec<SpanEvent> = ctx.read_all(&dist.span_events).unwrap();
    assert!(spans.windows(2).all(|w| w[0].y <= w[1].y));
    let starts = spans.iter().filter(|e| e.is_start).count();
    assert_eq!(
        starts * 2,
        spans.len(),
        "every spanning rectangle has two events"
    );

    // Mass conservation: sum of weight * width * height over the original
    // rectangles equals pieces + spanned slabs.
    let mass = |r: &RectRecord| r.weight * r.rect.width() * r.rect.height();
    let original: f64 = ctx.read_all(&rect_file).unwrap().iter().map(mass).sum();
    let mut pieces: f64 = 0.0;
    for f in &dist.slab_inputs {
        pieces += ctx.read_all(f).unwrap().iter().map(mass).sum::<f64>();
    }
    // Spanned mass without pairing events explicitly: each spanning rectangle
    // contributes weight * width * (y_end - y_start), which telescopes to
    // sum over end events minus sum over start events of weight * width * y.
    let mut spanned = 0.0;
    for e in &spans {
        let width: f64 = (e.slab_lo..=e.slab_hi)
            .map(|i| dist.partition.slab(i as usize).length())
            .sum();
        let signed = if e.is_start { -1.0 } else { 1.0 };
        spanned += signed * e.weight * width * e.y;
    }
    let relative = ((pieces + spanned) - original).abs() / original.max(1.0);
    assert!(relative < 1e-6, "coverage mass changed by {relative}");
}

/// MergeSweep output is itself a well-formed slab-file and its maximum equals
/// the maximum of a flat sweep.
#[test]
fn merge_sweep_output_is_a_valid_slab_file() {
    let ctx = ctx();
    let objects = pseudo_random_objects(300, 17, 4000.0);
    let size = RectSize::square(250.0);
    let rects = transform_objects(&objects, size);

    let boundary = 2000.0;
    let slabs = [
        Interval::new(f64::NEG_INFINITY, boundary),
        Interval::new(boundary, f64::INFINITY),
    ];
    let files = [
        ctx.write_all(&plane_sweep_slab(&rects, slabs[0])).unwrap(),
        ctx.write_all(&plane_sweep_slab(&rects, slabs[1])).unwrap(),
    ];
    let spans = ctx.write_all::<SpanEvent>(&[]).unwrap();
    let merged = merge_sweep(&ctx, &files, &slabs, &spans).unwrap();
    let tuples: Vec<SlabTuple> = ctx.read_all(&merged).unwrap();

    assert!(tuples.windows(2).all(|w| w[0].y < w[1].y));
    let merged_max = tuples
        .iter()
        .map(|t| t.sum)
        .fold(f64::NEG_INFINITY, f64::max);
    let flat = max_rs_in_memory(&objects, size);
    assert_eq!(merged_max, flat.total_weight);
}

/// The recursion depth (via tiny memory thresholds) does not change the answer
/// and intermediate storage is bounded.
#[test]
fn deep_recursion_is_consistent_and_bounded() {
    let objects = pseudo_random_objects(800, 23, 20_000.0);
    let size = RectSize::square(900.0);
    let reference = max_rs_in_memory(&objects, size);
    for mem in [16usize, 64, 256] {
        let ctx = ctx();
        let file = load_objects(&ctx, &objects).unwrap();
        let opts = ExactMaxRsOptions {
            memory_rects: Some(mem),
            fanout: Some(3),
            ..Default::default()
        };
        let result = exact_max_rs(&ctx, &file, size, &opts).unwrap();
        assert_eq!(result.total_weight, reference.total_weight, "mem={mem}");
        // All temporaries cleaned up: only the object file can remain on disk.
        assert!(
            ctx.disk_blocks()
                <= ctx
                    .config()
                    .blocks_for::<maxrs_core::ObjectRecord>(file.len()),
            "mem={mem}: {} blocks left on disk",
            ctx.disk_blocks()
        );
    }
}

/// The crop rule: a sub-slab covered from bound to bound becomes part of the
/// span run — also at the partition's clamped ends — and a right edge on a
/// boundary leaves no zero-width piece.
#[test]
fn crop_spans_covered_sub_slabs_and_drops_zero_width_pieces() {
    let p = SlabPartition::new(vec![0.0, 10.0, 20.0, 30.0]);
    let rect = |x_lo: f64, x_hi: f64| RectRecord::new(Rect::new(x_lo, x_hi, 1.0, 2.0), 3.0);
    let slabs = |c: &Crop| {
        c.pieces
            .iter()
            .flatten()
            .map(|(t, _)| *t)
            .collect::<Vec<_>>()
    };
    let span = |c: &Crop| c.span.map(|[e, _]| (e.slab_lo, e.slab_hi));

    // Interior: the classic left piece, right piece and span in between.
    let c = p.crop(&rect(5.0, 25.0));
    assert_eq!((slabs(&c), span(&c)), (vec![0, 2], Some((1, 1))));
    assert_eq!(c.pieces[0].unwrap().1.rect.x_hi, 10.0);
    assert_eq!(c.pieces[1].unwrap().1.rect.x_lo, 20.0);

    // Edges beyond the outer bounds cover the end sub-slabs.
    let c = p.crop(&rect(-5.0, 35.0));
    assert_eq!((slabs(&c), span(&c)), (vec![], Some((0, 2))));
    let c = p.crop(&rect(-5.0, 15.0));
    assert_eq!((slabs(&c), span(&c)), (vec![1], Some((0, 0))));

    // A left edge on a boundary covers its sub-slab; a right edge on one
    // drops the zero-width piece.
    let c = p.crop(&rect(10.0, 25.0));
    assert_eq!((slabs(&c), span(&c)), (vec![2], Some((1, 1))));
    let c = p.crop(&rect(5.0, 20.0));
    assert_eq!((slabs(&c), span(&c)), (vec![0], Some((1, 1))));
    let c = p.crop(&rect(5.0, 10.0));
    assert_eq!((slabs(&c), span(&c)), (vec![0], None));

    // Inside one sub-slab: the rectangle itself, uncropped.
    let c = p.crop(&rect(12.0, 18.0));
    assert_eq!(c.pieces, [Some((1, rect(12.0, 18.0))), None]);
    assert_eq!(span(&c), None);
}

/// The crop rule drops a rectangle that misses a bounded partition — under
/// exactly the condition on which the leaf sweep's `clip_x` would drop it —
/// instead of carrying it down into an end sub-slab.
#[test]
fn crop_drops_rectangles_that_miss_the_partition() {
    let p = SlabPartition::new(vec![0.0, 10.0, 20.0, 30.0]);
    let rect = |x_lo: f64, x_hi: f64| RectRecord::new(Rect::new(x_lo, x_hi, 1.0, 2.0), 3.0);
    let outer = Interval::new(0.0, 30.0);
    for r in [rect(-9.0, -1.0), rect(31.0, 40.0), rect(-0.5, -1e-9)] {
        assert!(r.rect.clip_x(&outer).is_none());
        assert_eq!(
            p.crop(&r),
            Crop {
                pieces: [None, None],
                span: None
            },
            "{r:?}"
        );
    }

    // A rectangle touching an outer bound still has a zero-width part in the
    // slab, so `clip_x` keeps it and so does the crop.
    for (r, slab) in [(rect(-5.0, 0.0), 0), (rect(30.0, 35.0), 2)] {
        assert!(r.rect.clip_x(&outer).is_some());
        assert_eq!(p.crop(&r).pieces, [Some((slab, r)), None], "{r:?}");
    }

    // An unbounded partition drops nothing.
    let p = SlabPartition::new(vec![f64::NEG_INFINITY, 0.0, f64::INFINITY]);
    assert_eq!(
        p.crop(&rect(-9.0, -1.0)).pieces,
        [Some((0, rect(-9.0, -1.0))), None]
    );
}
