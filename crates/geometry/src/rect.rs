//! Axis-parallel rectangles.

use crate::{Coord, Interval, Point};

/// The extent `d1 × d2` of the MaxRS query rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectSize {
    /// Width (`d1` in the paper).
    pub width: Coord,
    /// Height (`d2` in the paper).
    pub height: Coord,
}

impl RectSize {
    /// Creates a rectangle size; both extents must be strictly positive.
    pub fn new(width: Coord, height: Coord) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "rectangle extents must be positive, got {width} x {height}"
        );
        RectSize { width, height }
    }

    /// A square of the given side length.
    pub fn square(side: Coord) -> Self {
        RectSize::new(side, side)
    }

    /// Area of the rectangle.
    pub fn area(&self) -> Coord {
        self.width * self.height
    }
}

/// An axis-parallel rectangle `[x_lo, x_hi] × [y_lo, y_hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower x bound.
    pub x_lo: Coord,
    /// Upper x bound.
    pub x_hi: Coord,
    /// Lower y bound.
    pub y_lo: Coord,
    /// Upper y bound.
    pub y_hi: Coord,
}

impl Rect {
    /// Creates a rectangle from its bounds; panics in debug builds if the
    /// bounds are inverted.
    pub fn new(x_lo: Coord, x_hi: Coord, y_lo: Coord, y_hi: Coord) -> Self {
        debug_assert!(x_lo <= x_hi, "x_lo {x_lo} > x_hi {x_hi}");
        debug_assert!(y_lo <= y_hi, "y_lo {y_lo} > y_hi {y_hi}");
        Rect {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
        }
    }

    /// The rectangle of size `size` centered at `center` — `r(p)` in the paper.
    pub fn centered_at(center: Point, size: RectSize) -> Self {
        Rect::new(
            center.x - size.width / 2.0,
            center.x + size.width / 2.0,
            center.y - size.height / 2.0,
            center.y + size.height / 2.0,
        )
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> Point {
        Point::new((self.x_lo + self.x_hi) / 2.0, (self.y_lo + self.y_hi) / 2.0)
    }

    /// Width of the rectangle.
    pub fn width(&self) -> Coord {
        self.x_hi - self.x_lo
    }

    /// Height of the rectangle.
    pub fn height(&self) -> Coord {
        self.y_hi - self.y_lo
    }

    /// Area of the rectangle.
    pub fn area(&self) -> Coord {
        self.width() * self.height()
    }

    /// The x-extent as an interval.
    pub fn x_interval(&self) -> Interval {
        Interval::new(self.x_lo, self.x_hi)
    }

    /// The y-extent as an interval.
    pub fn y_interval(&self) -> Interval {
        Interval::new(self.y_lo, self.y_hi)
    }

    /// `true` when the point lies strictly inside the rectangle (the paper's
    /// convention: boundary objects are excluded).
    pub fn contains_open(&self, p: &Point) -> bool {
        self.x_lo < p.x && p.x < self.x_hi && self.y_lo < p.y && p.y < self.y_hi
    }

    /// `true` when the point lies in the closed rectangle.
    pub fn contains_closed(&self, p: &Point) -> bool {
        self.x_lo <= p.x && p.x <= self.x_hi && self.y_lo <= p.y && p.y <= self.y_hi
    }

    /// `true` when the two closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x_lo <= other.x_hi
            && other.x_lo <= self.x_hi
            && self.y_lo <= other.y_hi
            && other.y_lo <= self.y_hi
    }

    /// `true` when the two rectangles overlap on a region of positive area.
    pub fn overlaps_open(&self, other: &Rect) -> bool {
        self.x_lo < other.x_hi
            && other.x_lo < self.x_hi
            && self.y_lo < other.y_hi
            && other.y_lo < self.y_hi
    }

    /// Intersection of two rectangles, or `None` when they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let x_lo = self.x_lo.max(other.x_lo);
        let x_hi = self.x_hi.min(other.x_hi);
        let y_lo = self.y_lo.max(other.y_lo);
        let y_hi = self.y_hi.min(other.y_hi);
        if x_lo <= x_hi && y_lo <= y_hi {
            Some(Rect::new(x_lo, x_hi, y_lo, y_hi))
        } else {
            None
        }
    }

    /// The smallest rectangle containing both inputs.
    pub fn hull(&self, other: &Rect) -> Rect {
        Rect::new(
            self.x_lo.min(other.x_lo),
            self.x_hi.max(other.x_hi),
            self.y_lo.min(other.y_lo),
            self.y_hi.max(other.y_hi),
        )
    }

    /// `true` when `other` is fully contained in `self` (closed containment).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x_lo <= other.x_lo
            && other.x_hi <= self.x_hi
            && self.y_lo <= other.y_lo
            && other.y_hi <= self.y_hi
    }

    /// Restricts the rectangle's x-extent to the given interval, returning
    /// `None` when nothing remains.  Used when cropping rectangles to slabs.
    pub fn clip_x(&self, x: &Interval) -> Option<Rect> {
        let x_lo = self.x_lo.max(x.lo);
        let x_hi = self.x_hi.min(x.hi);
        if x_lo <= x_hi {
            Some(Rect::new(x_lo, x_hi, self.y_lo, self.y_hi))
        } else {
            None
        }
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}, {}] x [{}, {}]",
            self.x_lo, self.x_hi, self.y_lo, self.y_hi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_rectangle() {
        let r = Rect::centered_at(Point::new(10.0, 20.0), RectSize::new(4.0, 6.0));
        assert_eq!(r, Rect::new(8.0, 12.0, 17.0, 23.0));
        assert_eq!(r.center(), Point::new(10.0, 20.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 6.0);
        assert_eq!(r.area(), 24.0);
    }

    #[test]
    fn open_vs_closed_containment() {
        let r = Rect::new(0.0, 2.0, 0.0, 2.0);
        let inside = Point::new(1.0, 1.0);
        let boundary = Point::new(2.0, 1.0);
        let corner = Point::new(0.0, 0.0);
        assert!(r.contains_open(&inside));
        assert!(!r.contains_open(&boundary));
        assert!(!r.contains_open(&corner));
        assert!(r.contains_closed(&boundary));
        assert!(r.contains_closed(&corner));
        assert!(!r.contains_closed(&Point::new(3.0, 1.0)));
    }

    #[test]
    fn intersection_behaviour() {
        let a = Rect::new(0.0, 4.0, 0.0, 4.0);
        let b = Rect::new(2.0, 6.0, 2.0, 6.0);
        let c = Rect::new(4.0, 6.0, 0.0, 4.0);
        let d = Rect::new(10.0, 12.0, 10.0, 12.0);
        assert_eq!(a.intersection(&b), Some(Rect::new(2.0, 4.0, 2.0, 4.0)));
        assert!(a.intersects(&c));
        assert!(!a.overlaps_open(&c));
        assert_eq!(a.intersection(&d), None);
        assert!(a.overlaps_open(&b));
        assert_eq!(a.hull(&d), Rect::new(0.0, 12.0, 0.0, 12.0));
    }

    #[test]
    fn clipping_to_slab() {
        let r = Rect::new(0.0, 10.0, 0.0, 1.0);
        let clipped = r.clip_x(&Interval::new(3.0, 5.0)).unwrap();
        assert_eq!(clipped, Rect::new(3.0, 5.0, 0.0, 1.0));
        assert!(r.clip_x(&Interval::new(11.0, 12.0)).is_none());
        // Clipping to an interval containing the rect is a no-op.
        assert_eq!(r.clip_x(&Interval::new(-5.0, 20.0)), Some(r));
    }

    #[test]
    fn rect_size_validation() {
        let s = RectSize::square(3.0);
        assert_eq!(s.width, 3.0);
        assert_eq!(s.height, 3.0);
        assert_eq!(s.area(), 9.0);
        assert_eq!(RectSize::new(2.0, 5.0).area(), 10.0);
    }

    #[test]
    #[should_panic]
    fn rect_size_rejects_zero() {
        let _ = RectSize::new(0.0, 1.0);
    }

    #[test]
    fn contains_rect_and_intervals() {
        let outer = Rect::new(0.0, 10.0, 0.0, 10.0);
        let inner = Rect::new(2.0, 3.0, 4.0, 5.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert_eq!(outer.x_interval(), Interval::new(0.0, 10.0));
        assert_eq!(inner.y_interval(), Interval::new(4.0, 5.0));
    }
}
