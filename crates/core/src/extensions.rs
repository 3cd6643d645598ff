//! Extensions sketched in the paper's future-work section (Section 8):
//! *"it will be naturally feasible to extend our algorithm to deal with the
//! MaxkRS problem or MinRS problem"*.
//!
//! * [`max_k_rs_in_memory`] — **MaxkRS**: report `k` pairwise non-overlapping
//!   placements in decreasing order of covered weight, via the standard greedy
//!   reduction (solve MaxRS, remove the covered objects, repeat).  Greedy is
//!   the baseline the MaxkRS follow-up literature compares against; each
//!   reported placement is optimal for the objects remaining at its turn.
//! * [`min_rs_in_memory`] — **MinRS**: the placement covering the *least*
//!   weight (e.g. the quietest spot).  Solved by negating the weights and
//!   running the very same sweep: `min Σw = −max Σ(−w)`.
//!
//! Both extensions reuse the plane-sweep machinery unchanged, which is exactly
//! the point the authors make; external-memory versions follow by swapping the
//! in-memory sweep for [`crate::exact_max_rs`] in the same way.

use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::error::Result;
use crate::plane_sweep::{max_rs_in_memory, plane_sweep_slab};
use crate::records::{RectRecord, SlabTuple};
use crate::result::MaxRsResult;

/// The winning strip of a [`min_strip_scan`]: the (still negated) sum, its
/// x-interval, the domain-clipped y-strip, and whether it came from a tuple
/// (a sweep cell — which the external path must widen back to a full
/// arrangement cell) or from the implicit whole-slab strip.
pub type MinStrip = (f64, Interval, Interval, bool);

/// The MinRS strip scan, shared by [`min_rs_in_memory`] and the engine's
/// external MinRS path so the two can never diverge: walk a y-sorted stream
/// of slab tuples (negated weights), form the strips between consecutive
/// event `y`s — including the implicit weight-0 strip below the first h-line
/// — clip each to the domain's y-range, keep only strips of positive height
/// (interior points must achieve the reported weight), and pick the first
/// strictly-best one.
pub fn min_strip_scan<I>(tuples: I, slab: Interval, domain: Rect) -> Result<Option<MinStrip>>
where
    I: IntoIterator<Item = Result<SlabTuple>>,
{
    let mut best: Option<MinStrip> = None;
    let consider = |sum: f64,
                    x: Interval,
                    y_lo: f64,
                    y_hi: f64,
                    from_tuple: bool,
                    best: &mut Option<MinStrip>| {
        let y_lo = y_lo.max(domain.y_lo);
        let y_hi = y_hi.min(domain.y_hi);
        if y_lo >= y_hi {
            return;
        }
        if best.as_ref().is_none_or(|(b, _, _, _)| sum > *b) {
            *best = Some((sum, x, Interval::new(y_lo, y_hi), from_tuple));
        }
    };
    let mut prev_y = f64::NEG_INFINITY;
    let mut prev: Option<(f64, Interval, bool)> = Some((0.0, slab, false));
    for t in tuples {
        let t = t?;
        if let Some((sum, x, from_tuple)) = prev {
            consider(sum, x, prev_y, t.y, from_tuple, &mut best);
        }
        prev_y = t.y;
        prev = Some((t.sum, t.interval(), true));
    }
    if let Some((sum, x, from_tuple)) = prev {
        consider(sum, x, prev_y, f64::INFINITY, from_tuple, &mut best);
    }
    Ok(best)
}

/// Greedy MaxkRS: up to `k` non-overlapping placements, best first.
///
/// After each round the objects covered by the chosen rectangle are removed,
/// so later placements never re-count them; rounds stop early once no object
/// remains.  Ties follow the underlying MaxRS tie-breaking (leftmost /
/// bottom-most max-region).
pub fn max_k_rs_in_memory(objects: &[WeightedPoint], size: RectSize, k: usize) -> Vec<MaxRsResult> {
    let mut remaining: Vec<WeightedPoint> = objects.to_vec();
    // At most one placement per object exists, so a huge k must not
    // pre-allocate k slots.
    let mut results = Vec::with_capacity(k.min(objects.len()));
    for _ in 0..k {
        if remaining.is_empty() {
            break;
        }
        let best = max_rs_in_memory(&remaining, size);
        if best.total_weight <= 0.0 {
            break;
        }
        let chosen = Rect::centered_at(best.center, size);
        remaining.retain(|o| !chosen.contains_open(&o.point));
        results.push(best);
    }
    results
}

/// MinRS: among all centers inside the closed `domain` rectangle, a placement
/// whose (open) query rectangle covers the minimum total weight.
///
/// Unlike MaxRS, the unconstrained minimum is trivially 0 (place the rectangle
/// in empty space), so MinRS is parameterized by the region of admissible
/// centers — e.g. the downtown area in which the new facility must lie.  The
/// returned center is an interior point of a cell of minimum location-weight
/// clamped to the domain, mirroring the MaxRS guarantees.
///
/// Degenerate domains are answered exactly as well: a point domain evaluates
/// its single admissible center directly, and a zero-width (or zero-height)
/// domain — a *segment* of admissible centers — runs a 1D sweep over the
/// transformed rectangles stabbed by the segment's line.
pub fn min_rs_in_memory(objects: &[WeightedPoint], size: RectSize, domain: Rect) -> MaxRsResult {
    let empty_result = || MaxRsResult {
        center: domain.center(),
        total_weight: 0.0,
        region: domain,
    };
    if objects.is_empty() {
        return empty_result();
    }
    let x_degenerate = domain.x_lo == domain.x_hi;
    let y_degenerate = domain.y_lo == domain.y_hi;
    if x_degenerate && y_degenerate {
        // A point domain: evaluate its only admissible center directly.
        let center = domain.center();
        return MaxRsResult {
            center,
            total_weight: maxrs_geometry::range_sum_rect(objects, center, size),
            region: domain,
        };
    }
    if x_degenerate || y_degenerate {
        // A segment of admissible centers: the 2D sweep's arrangement has no
        // positive-width cell there, so sweep the segment's line directly.
        return min_rs_on_segment(objects, size, domain, x_degenerate);
    }
    // Sweep the x-range of the domain only, on negated weights: the maximum of
    // the negated instance is the negated minimum of the original one.
    // RectRecord weights may be negative (only WeightedPoint insists on
    // non-negativity), so the sweep is reused verbatim.
    let rects: Vec<RectRecord> = objects
        .iter()
        .map(|o| RectRecord::new(o.to_rect(size), -o.weight))
        .collect();
    let slab = Interval::new(domain.x_lo, domain.x_hi);
    let tuples = plane_sweep_slab(&rects, slab);

    // Scan the strips that intersect the domain's y-range, including the
    // implicit weight-0 strip below the first h-line (shared with the
    // engine's external MinRS so the two paths can never diverge).
    let best = min_strip_scan(tuples.into_iter().map(Ok), slab, domain)
        .expect("in-memory tuple stream is infallible");

    // The degenerate domains returned above; the strips below, between and
    // above the h-lines cover a positive-height y-range, so one of them clips
    // to a positive height.
    let (negated_sum, x, y, _from_tuple) =
        best.expect("a domain of positive height keeps a strip of positive height");
    let center = Point::new(
        x.representative().clamp(domain.x_lo, domain.x_hi),
        y.representative().clamp(domain.y_lo, domain.y_hi),
    );
    MaxRsResult {
        center,
        // `0.0 - x` rather than `-x`: an uncovered minimum is +0.0, not the
        // confusing "-0" a plain negation would display.
        total_weight: 0.0 - negated_sum,
        region: Rect::new(x.lo, x.hi, y.lo, y.hi),
    }
}

/// MinRS over a degenerate (segment) domain: admissible centers form a
/// vertical (`x_degenerate`) or horizontal segment.  A center `c` covers an
/// object iff the object's transformed rectangle strictly contains `c`, so
/// the coverage along the segment's line is a 1D sum of the open intervals
/// cut out by the rectangles stabbed by that line — swept here directly,
/// with the same first-strictly-smaller tie-breaking and positive-length
/// strip guarantee as the 2D sweep.
fn min_rs_on_segment(
    objects: &[WeightedPoint],
    size: RectSize,
    domain: Rect,
    x_degenerate: bool,
) -> MaxRsResult {
    let (line, segment) = if x_degenerate {
        (domain.x_lo, Interval::new(domain.y_lo, domain.y_hi))
    } else {
        (domain.y_lo, Interval::new(domain.x_lo, domain.x_hi))
    };
    // (coordinate along the segment, weight delta) per stabbed rectangle.
    let mut events: Vec<(f64, f64)> = Vec::new();
    for o in objects {
        let r = o.to_rect(size);
        let (stab_lo, stab_hi, lo, hi) = if x_degenerate {
            (r.x_lo, r.x_hi, r.y_lo, r.y_hi)
        } else {
            (r.y_lo, r.y_hi, r.x_lo, r.x_hi)
        };
        if stab_lo < line && line < stab_hi {
            events.push((lo, o.weight));
            events.push((hi, -o.weight));
        }
    }
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

    let mut best: Option<(f64, Interval)> = None;
    let consider = |sum: f64, lo: f64, hi: f64, best: &mut Option<(f64, Interval)>| {
        let lo = lo.max(segment.lo);
        let hi = hi.min(segment.hi);
        if lo >= hi {
            return;
        }
        if best.as_ref().is_none_or(|(b, _)| sum < *b) {
            *best = Some((sum, Interval::new(lo, hi)));
        }
    };
    let mut current = 0.0;
    let mut prev = f64::NEG_INFINITY;
    let mut i = 0;
    while i < events.len() {
        let at = events[i].0;
        consider(current, prev, at, &mut best);
        while i < events.len() && events[i].0 == at {
            current += events[i].1;
            i += 1;
        }
        prev = at;
    }
    consider(current, prev, f64::INFINITY, &mut best);

    // The strips partition the line and the segment has positive length, so
    // at least one clipped strip survives.
    let (sum, strip) = best.expect("a positive-length segment intersects some strip");
    let along = strip.representative().clamp(segment.lo, segment.hi);
    let (center, region) = if x_degenerate {
        (
            Point::new(line, along),
            Rect::new(line, line, strip.lo, strip.hi),
        )
    } else {
        (
            Point::new(along, line),
            Rect::new(strip.lo, strip.hi, line, line),
        )
    };
    MaxRsResult {
        center,
        total_weight: sum,
        region,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::rect_objective;

    fn units(points: &[(f64, f64)]) -> Vec<WeightedPoint> {
        points
            .iter()
            .map(|&(x, y)| WeightedPoint::unit(x, y))
            .collect()
    }

    #[test]
    fn max_k_rs_reports_disjoint_clusters_in_order() {
        // Three clusters of sizes 4, 3 and 2, far apart.
        let mut objects = units(&[
            (0.0, 0.0),
            (0.5, 0.5),
            (0.2, 0.8),
            (0.8, 0.1),
            (50.0, 50.0),
            (50.5, 50.5),
            (50.2, 50.8),
            (100.0, 0.0),
            (100.5, 0.5),
        ]);
        objects.push(WeightedPoint::unit(200.0, 200.0)); // singleton
        let size = RectSize::square(3.0);
        let top = max_k_rs_in_memory(&objects, size, 3);
        assert_eq!(top.len(), 3);
        let weights: Vec<f64> = top.iter().map(|r| r.total_weight).collect();
        assert_eq!(weights, vec![4.0, 3.0, 2.0]);
        // Placements must be pairwise non-overlapping.
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                let a = Rect::centered_at(top[i].center, size);
                let b = Rect::centered_at(top[j].center, size);
                assert!(!a.overlaps_open(&b), "placements {i} and {j} overlap");
            }
        }
        // Each reported weight is achieved by its center on the full dataset
        // minus the previously covered objects, and trivially bounded by the
        // single-shot optimum.
        assert_eq!(rect_objective(&objects, top[0].center, size), 4.0);
    }

    #[test]
    fn max_k_rs_stops_when_objects_run_out() {
        let objects = units(&[(0.0, 0.0), (0.2, 0.2)]);
        let top = max_k_rs_in_memory(&objects, RectSize::square(1.0), 10);
        assert_eq!(top.len(), 1, "one placement covers everything");
        assert_eq!(top[0].total_weight, 2.0);
        assert!(max_k_rs_in_memory(&[], RectSize::square(1.0), 5).is_empty());
        assert!(max_k_rs_in_memory(&objects, RectSize::square(1.0), 0).is_empty());
    }

    #[test]
    fn min_rs_finds_an_empty_spot_when_one_exists() {
        let objects = units(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        let domain = Rect::new(-5.0, 5.0, -5.0, 5.0);
        let r = min_rs_in_memory(&objects, RectSize::square(1.0), domain);
        assert_eq!(r.total_weight, 0.0);
        assert_eq!(
            rect_objective(&objects, r.center, RectSize::square(1.0)),
            0.0
        );
        assert!(domain.contains_closed(&r.center));
    }

    #[test]
    fn min_rs_in_a_crowded_space() {
        // A 10x10 grid of unit objects with one heavier corner; a 3x3 window
        // centered well inside the grid always covers something, and the
        // minimum avoids the heavy corner.
        let mut objects = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let w = if i < 2 && j < 2 { 5.0 } else { 1.0 };
                objects.push(WeightedPoint::at(i as f64, j as f64, w));
            }
        }
        let size = RectSize::square(3.1);
        let domain = Rect::new(2.0, 7.0, 2.0, 7.0);
        let r = min_rs_in_memory(&objects, size, domain);
        assert!(
            r.total_weight >= 1.0,
            "interior windows always cover objects"
        );
        assert_eq!(rect_objective(&objects, r.center, size), r.total_weight);
        assert!(domain.contains_closed(&r.center));
        // The minimum must not sit on the heavy corner.
        assert!(r.total_weight < 5.0 + 9.0);
        // Brute-force cross check over a fine probe grid inside the domain.
        let mut best = f64::INFINITY;
        for cx in 0..=20 {
            for cy in 0..=20 {
                let p = Point::new(2.0 + cx as f64 * 0.25, 2.0 + cy as f64 * 0.25);
                best = best.min(rect_objective(&objects, p, size));
            }
        }
        // The sweep may find an even smaller value than the coarse probe grid,
        // never a larger one.
        assert!(r.total_weight <= best + 1e-9);
    }

    #[test]
    fn max_k_rs_with_k_beyond_the_candidate_count_returns_what_exists() {
        // Three well-separated singletons, k = 10: exactly three placements
        // come back, each of weight 1, pairwise disjoint.
        let objects = units(&[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]);
        let size = RectSize::square(2.0);
        let top = max_k_rs_in_memory(&objects, size, 10);
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|r| r.total_weight == 1.0));
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                let a = Rect::centered_at(top[i].center, size);
                let b = Rect::centered_at(top[j].center, size);
                assert!(!a.overlaps_open(&b));
            }
        }
    }

    #[test]
    fn max_k_rs_with_zero_total_weight_stops_immediately() {
        // Weight 0 is the smallest weight `WeightedPoint` admits (negative
        // object weights are rejected by its constructor); a zero-weight
        // placement is "no placement" and the greedy loop must not spin on it.
        let objects: Vec<WeightedPoint> = (0..5)
            .map(|i| WeightedPoint::at(i as f64, 0.0, 0.0))
            .collect();
        assert!(max_k_rs_in_memory(&objects, RectSize::square(1.0), 3).is_empty());
    }

    #[test]
    fn max_k_rs_breaks_weight_ties_deterministically_leftmost_first() {
        // Two clusters of identical weight at the same y: the sweep reports
        // the leftmost max-interval first, so round 1 must pick the left
        // cluster and round 2 the right one — on every run.
        let objects = units(&[(0.0, 0.0), (0.5, 0.5), (100.0, 0.0), (100.5, 0.5)]);
        let size = RectSize::square(2.0);
        let first = max_k_rs_in_memory(&objects, size, 2);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].total_weight, 2.0);
        assert_eq!(first[1].total_weight, 2.0);
        assert!(
            first[0].center.x < 50.0,
            "tie must resolve to the left cluster"
        );
        assert!(first[1].center.x > 50.0);
        for _ in 0..3 {
            assert_eq!(max_k_rs_in_memory(&objects, size, 2), first);
        }
    }

    #[test]
    fn negative_rect_weights_flow_through_the_sweep() {
        // The MinRS reduction feeds negative weights into the plane sweep
        // (only `WeightedPoint` insists on non-negativity).  With every
        // rectangle weight negative the best location-weight is 0: an empty
        // cell beats any covered one.
        use crate::plane_sweep::{best_region_from_tuples, plane_sweep_slab};
        let rects = vec![
            RectRecord::new(Rect::new(0.0, 2.0, 0.0, 2.0), -1.0),
            RectRecord::new(Rect::new(1.0, 3.0, 1.0, 3.0), -2.5),
        ];
        // Unbounded slab: an uncovered cell always exists, so the per-strip
        // maximum never drops below 0 and the best region has weight 0.
        let tuples = plane_sweep_slab(&rects, Interval::UNBOUNDED);
        let best = best_region_from_tuples(&tuples).unwrap();
        assert_eq!(best.total_weight, 0.0);
        assert!(tuples.iter().all(|t| t.sum <= 0.0));
        // Slab [1, 2] is covered by both rectangles between y = 1 and 2: the
        // most negative stack (-3.5) is now unavoidable there.
        let tuples = plane_sweep_slab(&rects, Interval::new(1.0, 2.0));
        let sums: Vec<f64> = tuples.iter().map(|t| t.sum).collect();
        assert_eq!(sums, vec![-1.0, -3.5, -2.5, 0.0]);
    }

    #[test]
    fn min_rs_reports_positive_zero_and_breaks_ties_deterministically() {
        let objects = units(&[(0.0, 0.0), (10.0, 10.0)]);
        let domain = Rect::new(-20.0, 20.0, -20.0, 20.0);
        let r = min_rs_in_memory(&objects, RectSize::square(1.0), domain);
        // The uncovered minimum is +0.0, not -0.0 (the sweep negates weights).
        assert_eq!(r.total_weight.to_bits(), 0.0f64.to_bits());
        // Many strips tie at 0; repeated runs must agree exactly.
        for _ in 0..3 {
            assert_eq!(min_rs_in_memory(&objects, RectSize::square(1.0), domain), r);
        }
    }

    #[test]
    fn min_rs_with_all_zero_weights_is_zero_everywhere() {
        let objects: Vec<WeightedPoint> = (0..9)
            .map(|i| WeightedPoint::at((i % 3) as f64, (i / 3) as f64, 0.0))
            .collect();
        let domain = Rect::new(0.0, 2.0, 0.0, 2.0);
        let r = min_rs_in_memory(&objects, RectSize::square(1.5), domain);
        assert_eq!(r.total_weight, 0.0);
        assert!(domain.contains_closed(&r.center));
    }

    #[test]
    fn min_rs_segment_domains_count_coverage_correctly() {
        // One object at the origin, 2x2 query: every center on the vertical
        // segment x = 0, y in [-0.5, 0.5] strictly covers it, so the minimum
        // is 1 — not the 0 a naive "no positive-width cell" answer would give.
        let objects = units(&[(0.0, 0.0)]);
        let size = RectSize::square(2.0);
        let vertical = Rect::new(0.0, 0.0, -0.5, 0.5);
        let r = min_rs_in_memory(&objects, size, vertical);
        assert_eq!(r.total_weight, 1.0);
        assert!(vertical.contains_closed(&r.center));
        assert_eq!(rect_objective(&objects, r.center, size), 1.0);
        // Same along a horizontal segment.
        let horizontal = Rect::new(-0.5, 0.5, 0.0, 0.0);
        let r = min_rs_in_memory(&objects, size, horizontal);
        assert_eq!(r.total_weight, 1.0);

        // A longer segment that leaves the object's influence: the sweep must
        // find the uncovered part (centers with y >= 1 no longer cover it).
        let long = Rect::new(0.0, 0.0, -0.5, 5.0);
        let r = min_rs_in_memory(&objects, size, long);
        assert_eq!(r.total_weight, 0.0);
        assert_eq!(rect_objective(&objects, r.center, size), 0.0);

        // Two objects with a gap: the segment sweep finds the dip between
        // them (centers near y = 0 cover neither object strictly... the gap
        // around y = 3 covers only what the objective confirms).
        let objects = units(&[(0.0, 0.0), (0.0, 6.0)]);
        let segment = Rect::new(0.0, 0.0, 0.0, 6.0);
        let r = min_rs_in_memory(&objects, size, segment);
        assert_eq!(r.total_weight, 0.0, "centers around y = 3 cover neither");
        assert_eq!(rect_objective(&objects, r.center, size), r.total_weight);
    }

    #[test]
    fn min_rs_degenerate_domain_and_empty_input() {
        let domain = Rect::new(-1.0, 1.0, -1.0, 1.0);
        let r = min_rs_in_memory(&[], RectSize::square(2.0), domain);
        assert_eq!(r.total_weight, 0.0);

        // A zero-area domain: the center is evaluated directly.
        let objects = units(&[(0.0, 0.0)]);
        let point_domain = Rect::new(0.0, 0.0, 0.0, 0.0);
        let r = min_rs_in_memory(&objects, RectSize::square(2.0), point_domain);
        assert_eq!(r.center, Point::new(0.0, 0.0));
        assert_eq!(r.total_weight, 1.0);
    }
}
