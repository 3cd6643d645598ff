//! Differential test of the whole slab-file: every tuple the in-memory plane
//! sweep emits, compared bit for bit with a brute-force reference that
//! recomputes the coverage of every elementary x-interval at every distinct
//! h-line.
//!
//! Weights are integers (0 and negatives included, as on the MinRS scale), so
//! every coverage is exact and the two must agree to the bit.  Coordinates
//! come from small pools, so duplicate `x` and `y`, zero-width and
//! zero-height rectangles and both zeros (`-0.0`, `+0.0`) are common; slabs
//! are unbounded, half-bounded, bounded with rectangles poking out, and of
//! zero width.

use maxrs_core::{plane_sweep_slab, RectRecord, SlabTuple, SweepScratch};
use maxrs_geometry::{Interval, Rect};

/// The slab-file by definition: for each distinct `y` (in total order,
/// `-0.0` and `+0.0` one h-line), the leftmost elementary interval of
/// largest coverage among the pieces active on `[y, next y)`.
fn reference(rects: &[RectRecord], slab: Interval) -> Vec<SlabTuple> {
    let pieces: Vec<RectRecord> = rects
        .iter()
        .filter_map(|r| {
            r.rect
                .clip_x(&slab)
                .map(|rect| RectRecord::new(rect, r.weight))
        })
        .collect();
    if pieces.is_empty() {
        return Vec::new();
    }
    let mut xs = vec![slab.lo, slab.hi];
    xs.extend(pieces.iter().flat_map(|p| [p.rect.x_lo, p.rect.x_hi]));
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    if xs.len() < 2 {
        return Vec::new();
    }
    let mut ys: Vec<f64> = pieces
        .iter()
        .flat_map(|p| [p.rect.y_lo, p.rect.y_hi])
        .collect();
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    ys.into_iter()
        .map(|y| {
            let coverage = |cell: &[f64]| {
                pieces
                    .iter()
                    .filter(|p| p.rect.y_lo <= y && y < p.rect.y_hi)
                    .filter(|p| p.rect.x_lo <= cell[0] && cell[1] <= p.rect.x_hi)
                    .fold(0.0, |sum, p| sum + p.weight)
            };
            let mut best = SlabTuple::new(y, xs[0], xs[1], coverage(&xs[..2]));
            for cell in xs.windows(2).skip(1) {
                let sum = coverage(cell);
                if sum > best.sum {
                    best = SlabTuple::new(y, cell[0], cell[1], sum);
                }
            }
            best
        })
        .collect()
}

fn bits(t: &SlabTuple) -> [u64; 4] {
    [t.y, t.x_lo, t.x_hi, t.sum].map(f64::to_bits)
}

fn assert_same(got: &[SlabTuple], want: &[SlabTuple], case: &str) {
    assert_eq!(got.len(), want.len(), "{case}: tuple count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(g), bits(w), "{case}: tuple {i}: got {g:?}, want {w:?}");
    }
}

struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick(&mut self, pool: &[f64]) -> f64 {
        pool[self.below(pool.len())]
    }

    /// Two coordinates from `pool`, ordered; equal ones make a zero extent.
    fn extent(&mut self, pool: &[f64]) -> (f64, f64) {
        let (a, b) = (self.pick(pool), self.pick(pool));
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn rects(&mut self, n: usize, pool: &[f64]) -> Vec<RectRecord> {
        (0..n)
            .map(|_| {
                let (x_lo, x_hi) = self.extent(pool);
                let (y_lo, y_hi) = self.extent(pool);
                let weight = self.below(7) as f64 - 3.0;
                RectRecord::new(Rect::new(x_lo, x_hi, y_lo, y_hi), weight)
            })
            .collect()
    }

    fn slab(&mut self, pool: &[f64]) -> Interval {
        let (lo, hi) = self.extent(pool);
        match self.below(5) {
            0 => Interval::UNBOUNDED,
            1 => Interval::new(f64::NEG_INFINITY, hi),
            2 => Interval::new(lo, f64::INFINITY),
            3 => Interval::new(lo, lo),
            _ => Interval::new(lo, hi),
        }
    }
}

/// A coarse pool with both zeros: many shared coordinates and degenerate
/// extents.
const COARSE: [f64; 9] = [-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 1.5, 2.0, 3.0];

#[test]
fn every_tuple_matches_the_brute_force_slab_file() {
    let fine: Vec<f64> = (-60..=60).map(f64::from).chain([-0.0]).collect();
    let mut gen = Gen(0x5EED_CAFE);
    let mut scratch = SweepScratch::new();
    let mut out = Vec::new();
    // Sizes shrink and grow, so the one scratch is reused below and above
    // its high-water mark.
    let sizes = [0, 1, 2, 3, 40, 5, 1, 24, 0, 60, 8, 2, 33, 12];
    for case in 0..1_500 {
        let n = sizes[case % sizes.len()];
        let pool: &[f64] = if case % 4 == 3 { &fine } else { &COARSE };
        let rects = gen.rects(n, pool);
        let slab = gen.slab(pool);
        let want = reference(&rects, slab);
        let tag = format!("case {case}, {n} rectangles, slab {slab:?}");

        assert_same(&plane_sweep_slab(&rects, slab), &want, &tag);
        scratch.sweep_into(&rects, slab, &mut out);
        assert_same(&out, &want, &tag);
        assert_same(scratch.sweep(&rects, slab), &want, &tag);
    }
}

#[test]
fn large_slabs_match_the_brute_force_slab_file() {
    // Hundreds of rectangles of one size, as a pass's pieces are, cropped
    // by bounded slabs: deep trees and pieces clipped at both slab ends.
    let mut gen = Gen(0xB16_5EED);
    let mut scratch = SweepScratch::new();
    let mut out = Vec::new();
    for case in 0..6 {
        let n = [300, 40, 250, 5, 200, 120][case];
        let rects: Vec<RectRecord> = (0..n)
            .map(|_| {
                let (x, y) = (gen.below(200) as f64, gen.below(200) as f64);
                let weight = gen.below(5) as f64 - 1.0;
                RectRecord::new(Rect::new(x, x + 25.0, y, y + 15.0), weight)
            })
            .collect();
        let slab = match case % 3 {
            0 => Interval::UNBOUNDED,
            1 => Interval::new(50.0, 150.0),
            _ => Interval::new(-0.0, 60.0),
        };
        let want = reference(&rects, slab);
        scratch.sweep_into(&rects, slab, &mut out);
        assert_same(&out, &want, &format!("case {case}, {n} rectangles"));
    }
}

#[test]
fn both_zeros_share_one_breakpoint_and_one_h_line() {
    // `-0.0` sorts first, so it represents the shared breakpoint and h-line
    // whichever rectangle carries which zero.
    let rects = [
        RectRecord::new(Rect::new(0.0, 1.0, 0.0, 1.0), 1.0),
        RectRecord::new(Rect::new(-0.0, 1.0, -0.0, 2.0), 1.0),
    ];
    let slab = Interval::new(f64::NEG_INFINITY, 2.0);
    let tuples = plane_sweep_slab(&rects, slab);
    assert_same(&tuples, &reference(&rects, slab), "zeros");
    assert_eq!(tuples.len(), 3);
    assert_eq!(tuples[0].y.to_bits(), (-0.0f64).to_bits());
    assert_eq!(tuples[0].x_lo.to_bits(), (-0.0f64).to_bits());
    assert_eq!(tuples[0].sum, 2.0);
}
