//! One-dimensional intervals over the x-axis.
//!
//! Slab files, max-intervals and slab boundaries are all expressed as
//! [`Interval`]s.  Interval endpoints may be `-∞` / `+∞` (the outermost slabs
//! of the distribution sweep extend to infinity), so the type deliberately
//! works with raw `f64` endpoints rather than a bounded range type.

use crate::Coord;

/// A (possibly unbounded) interval `[lo, hi]` on the x-axis with `lo <= hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint (may be `-∞`).
    pub lo: Coord,
    /// Upper endpoint (may be `+∞`).
    pub hi: Coord,
}

impl Interval {
    /// Creates an interval; panics (in debug builds) if `lo > hi` or either
    /// bound is NaN.
    pub fn new(lo: Coord, hi: Coord) -> Self {
        debug_assert!(
            !lo.is_nan() && !hi.is_nan(),
            "interval bounds must not be NaN"
        );
        debug_assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        Interval { lo, hi }
    }

    /// The whole x-axis `(-∞, +∞)`.
    pub const UNBOUNDED: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Length of the interval (`+∞` for unbounded intervals).
    pub fn length(&self) -> Coord {
        self.hi - self.lo
    }

    /// `true` when `x` lies in the closed interval.
    pub fn contains(&self, x: Coord) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `true` when `x` lies strictly inside the interval.
    pub fn contains_open(&self, x: Coord) -> bool {
        self.lo < x && x < self.hi
    }

    /// `true` when the two (closed) intervals share at least one point.
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// `true` when the two intervals overlap on a set of positive length.
    pub fn overlaps_open(&self, other: &Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Intersection of two intervals, or `None` when they are disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval::new(lo, hi))
        } else {
            None
        }
    }

    /// `true` when `other` is fully contained in `self` (closed containment).
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// `true` when the intervals touch end-to-start (`self.hi == other.lo`)
    /// or start-to-end (`other.hi == self.lo`), i.e. they can be merged into a
    /// single contiguous interval without a gap.
    pub fn touches(&self, other: &Interval) -> bool {
        self.hi == other.lo || other.hi == self.lo || self.intersects(other)
    }

    /// The smallest interval containing both inputs.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Merges two touching or overlapping intervals; `None` if there is a gap.
    pub fn merge(&self, other: &Interval) -> Option<Interval> {
        if self.touches(other) {
            Some(self.hull(other))
        } else {
            None
        }
    }

    /// A representative interior point: the midpoint for bounded intervals and
    /// a point nudged inside for half-bounded ones.
    ///
    /// The MaxRS result is "any point of the max-region"; this picks a
    /// deterministic one even when a slab extends to infinity.
    pub fn representative(&self) -> Coord {
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (true, true) => (self.lo + self.hi) / 2.0,
            (true, false) => self.lo + 1.0,
            (false, true) => self.hi - 1.0,
            (false, false) => 0.0,
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment() {
        let i = Interval::new(1.0, 3.0);
        assert!(i.contains(1.0));
        assert!(i.contains(3.0));
        assert!(!i.contains_open(1.0));
        assert!(i.contains_open(2.0));
        assert!(!i.contains(3.5));
        assert_eq!(i.length(), 2.0);
    }

    #[test]
    fn intersection_and_overlap() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        let c = Interval::new(2.0, 4.0);
        let d = Interval::new(5.0, 6.0);
        assert_eq!(a.intersection(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.intersection(&c), Some(Interval::new(2.0, 2.0)));
        assert_eq!(a.intersection(&d), None);
        assert!(a.intersects(&c));
        assert!(!a.overlaps_open(&c));
        assert!(a.overlaps_open(&b));
    }

    #[test]
    fn merge_and_hull() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(2.0, 4.0);
        let d = Interval::new(5.0, 6.0);
        assert_eq!(a.merge(&b), Some(Interval::new(0.0, 4.0)));
        assert_eq!(a.merge(&d), None);
        assert_eq!(a.hull(&d), Interval::new(0.0, 6.0));
        assert!(a.touches(&b));
        assert!(b.touches(&a));
        assert!(!a.touches(&d));
    }

    #[test]
    fn unbounded_intervals() {
        let all = Interval::UNBOUNDED;
        assert!(all.contains(1e300));
        assert!(all.contains(-1e300));
        assert_eq!(all.representative(), 0.0);
        let left = Interval::new(f64::NEG_INFINITY, 5.0);
        assert_eq!(left.representative(), 4.0);
        let right = Interval::new(5.0, f64::INFINITY);
        assert_eq!(right.representative(), 6.0);
        let bounded = Interval::new(2.0, 4.0);
        assert_eq!(bounded.representative(), 3.0);
        assert!(all.contains_interval(&bounded));
        assert!(!bounded.contains_interval(&all));
    }
}
