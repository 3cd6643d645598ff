//! Circles (disks) for the MaxCRS problem.

use crate::{Coord, Point, Rect, RectSize};

/// A circle given by its center and radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius (half of the MaxCRS diameter `d`).
    pub radius: Coord,
}

impl Circle {
    /// Creates a circle; the radius must be strictly positive.
    pub fn new(center: Point, radius: Coord) -> Self {
        assert!(radius > 0.0, "circle radius must be positive, got {radius}");
        Circle { center, radius }
    }

    /// Creates the circle `c(p)` of the given *diameter* centered at `p`,
    /// matching the MaxCRS problem statement.
    pub fn from_diameter(center: Point, diameter: Coord) -> Self {
        Circle::new(center, diameter / 2.0)
    }

    /// The diameter of the circle.
    pub fn diameter(&self) -> Coord {
        self.radius * 2.0
    }

    /// Area of the disk.
    pub fn area(&self) -> Coord {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// `true` when the point lies strictly inside the circle (boundary
    /// excluded, as in the paper).
    pub fn contains_open(&self, p: &Point) -> bool {
        self.center.distance_sq(p) < self.radius * self.radius
    }

    /// `true` when the point lies in the closed disk.
    pub fn contains_closed(&self, p: &Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Minimum bounding rectangle of the circle — the `d × d` square used by
    /// the ApproxMaxCRS reduction.
    pub fn mbr(&self) -> Rect {
        Rect::centered_at(self.center, RectSize::square(self.diameter()))
    }

    /// Intersection points of the two circle *boundaries*.
    ///
    /// Returns `None` when the boundaries do not intersect or the circles are
    /// identical; returns the one tangency point twice when they touch.
    /// These points are the candidate locations of the exact MaxCRS algorithm.
    pub fn boundary_intersections(&self, other: &Circle) -> Option<[Point; 2]> {
        let d = self.center.distance(&other.center);
        if d == 0.0 {
            return None;
        }
        if d > self.radius + other.radius || d < (self.radius - other.radius).abs() {
            return None;
        }
        // Distance from self.center to the radical line along the center line.
        let a = (self.radius * self.radius - other.radius * other.radius + d * d) / (2.0 * d);
        let h_sq = self.radius * self.radius - a * a;
        let h = h_sq.max(0.0).sqrt();
        let ex = (other.center.x - self.center.x) / d;
        let ey = (other.center.y - self.center.y) / d;
        let mx = self.center.x + a * ex;
        let my = self.center.y + a * ey;
        Some([
            Point::new(mx + h * ey, my - h * ex),
            Point::new(mx - h * ey, my + h * ex),
        ])
    }
}

impl std::fmt::Display for Circle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "circle(center={}, r={})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn containment_semantics() {
        let c = Circle::from_diameter(Point::new(0.0, 0.0), 2.0);
        assert_eq!(c.radius, 1.0);
        assert!(c.contains_open(&Point::new(0.5, 0.5)));
        assert!(!c.contains_open(&Point::new(1.0, 0.0)));
        assert!(c.contains_closed(&Point::new(1.0, 0.0)));
        assert!(!c.contains_closed(&Point::new(1.1, 0.0)));
    }

    #[test]
    fn mbr_is_square_of_diameter() {
        let c = Circle::from_diameter(Point::new(5.0, 5.0), 4.0);
        let r = c.mbr();
        assert_eq!(r, Rect::new(3.0, 7.0, 3.0, 7.0));
        assert_eq!(r.width(), c.diameter());
        assert_eq!(r.height(), c.diameter());
    }

    #[test]
    fn boundary_intersections_basic() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let b = Circle::new(Point::new(1.0, 0.0), 1.0);
        let pts = a.boundary_intersections(&b).unwrap();
        for p in pts {
            assert!(approx_eq(a.center.distance(&p), 1.0, 1e-9));
            assert!(approx_eq(b.center.distance(&p), 1.0, 1e-9));
            assert!(approx_eq(p.x, 0.5, 1e-9));
        }
        assert!(approx_eq((pts[0].y - pts[1].y).abs(), 3.0f64.sqrt(), 1e-9));
    }

    #[test]
    fn boundary_intersections_degenerate() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let far = Circle::new(Point::new(10.0, 0.0), 1.0);
        let same = Circle::new(Point::new(0.0, 0.0), 1.0);
        let inside = Circle::new(Point::new(0.1, 0.0), 0.2);
        assert!(a.boundary_intersections(&far).is_none());
        assert!(a.boundary_intersections(&same).is_none());
        assert!(a.boundary_intersections(&inside).is_none());
        // Tangent circles meet in (numerically) one point reported twice.
        let tangent = Circle::new(Point::new(2.0, 0.0), 1.0);
        let pts = a.boundary_intersections(&tangent).unwrap();
        assert!(approx_eq(pts[0].x, 1.0, 1e-9));
        assert!(approx_eq(pts[1].x, 1.0, 1e-9));
    }

    #[test]
    fn area_and_display() {
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        assert!(approx_eq(c.area(), 4.0 * std::f64::consts::PI, 1e-12));
        assert_eq!(c.diameter(), 4.0);
        assert!(format!("{}", c).contains("r=2"));
    }
}
