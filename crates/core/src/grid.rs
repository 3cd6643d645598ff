//! A uniform grid over the plane for neighborhood queries.
//!
//! Used by the exact MaxCRS reference ([`crate::crs_exact`]) to find, for each
//! object, the other objects within the circle diameter without an `O(n²)`
//! all-pairs scan, and by the streaming subsystem (`maxrs-stream`) to key its
//! dirty-cell bookkeeping on the same cell-index convention via [`grid_cell`].

use std::collections::HashMap;

use maxrs_geometry::{Point, WeightedPoint};

/// Magnitude bound on the cell indexes [`grid_cell`] computes exactly.
/// Ratios `coord / cell` of at least this magnitude saturate to
/// `±GRID_CELL_LIMIT` (see [`grid_cell`]); callers that need the half-open
/// containment invariant must keep their coordinates below it.
pub const GRID_CELL_LIMIT: i64 = 1 << 52;

/// Index of the half-open grid cell `[k·cell, (k+1)·cell)` containing `coord`.
///
/// Plain `floor(coord / cell)` can be off by one near cell boundaries when
/// the division rounds across an integer, which would silently assign a
/// coordinate to a cell that does not contain it.  This helper fixes the
/// result up against the exact products `k·cell`, so the half-open invariant
/// `k·cell <= coord < (k+1)·cell` holds whenever `|coord / cell|` stays
/// below [`GRID_CELL_LIMIT`] — the property the streaming engine's per-cell
/// maintenance relies on for consistent insert/delete routing.  Beyond that
/// bound `k` is no longer exactly representable (and the fix-up products no
/// longer move per step), so the index *saturates* to `±GRID_CELL_LIMIT`
/// instead of looping or overflowing; callers that need exact containment
/// must reject such inputs (the streaming engine does).  `cell` must be
/// positive and finite; `coord` must be finite.
pub fn grid_cell(coord: f64, cell: f64) -> i64 {
    debug_assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
    debug_assert!(coord.is_finite(), "coordinate must be finite");
    let ratio = (coord / cell).floor();
    // The NaN check covers an overflowing division or (in release builds,
    // where the debug_assert is gone) an infinite coord.
    if ratio.is_nan() || ratio.abs() >= GRID_CELL_LIMIT as f64 {
        return if ratio.is_sign_negative() {
            -GRID_CELL_LIMIT
        } else {
            GRID_CELL_LIMIT
        };
    }
    let mut k = ratio as i64;
    // Below the limit `k` is exact as f64 and `cell > ulp(k·cell)`, so each
    // step changes the product: the loops terminate after the (at most
    // one-ulp) division error is fixed up.
    while coord < k as f64 * cell {
        k -= 1;
    }
    while coord >= (k + 1) as f64 * cell {
        k += 1;
    }
    k
}

/// A hash-based uniform grid indexing a set of points by cell.
#[derive(Debug)]
pub struct UniformGrid {
    cell: f64,
    cells: HashMap<(i64, i64), Vec<usize>>,
    points: Vec<Point>,
}

impl UniformGrid {
    /// Builds a grid with the given cell size over the given objects.
    pub fn build(objects: &[WeightedPoint], cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        let mut points = Vec::with_capacity(objects.len());
        for (i, o) in objects.iter().enumerate() {
            points.push(o.point);
            cells.entry(Self::key(o.point, cell)).or_default().push(i);
        }
        UniformGrid {
            cell,
            cells,
            points,
        }
    }

    fn key(p: Point, cell: f64) -> (i64, i64) {
        (grid_cell(p.x, cell), grid_cell(p.y, cell))
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the grid indexes no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of every indexed point within (closed) distance `radius` of `p`.
    pub fn neighbors_within(&self, p: Point, radius: f64) -> Vec<usize> {
        let r_cells = (radius / self.cell).ceil() as i64 + 1;
        let (cx, cy) = Self::key(p, self.cell);
        let mut out = Vec::new();
        let r_sq = radius * radius;
        for dx in -r_cells..=r_cells {
            for dy in -r_cells..=r_cells {
                if let Some(indices) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &i in indices {
                        if self.points[i].distance_sq(&p) <= r_sq {
                            out.push(i);
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of non-empty cells (diagnostics).
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objects() -> Vec<WeightedPoint> {
        vec![
            WeightedPoint::unit(0.0, 0.0),
            WeightedPoint::unit(1.0, 1.0),
            WeightedPoint::unit(5.0, 5.0),
            WeightedPoint::unit(-3.0, 2.0),
            WeightedPoint::unit(100.0, 100.0),
        ]
    }

    #[test]
    fn neighbors_match_brute_force() {
        let objects = objects();
        let grid = UniformGrid::build(&objects, 2.5);
        for &radius in &[0.5, 2.0, 10.0, 200.0] {
            for &q in &[
                Point::new(0.0, 0.0),
                Point::new(4.0, 4.0),
                Point::new(-10.0, -10.0),
            ] {
                let mut got = grid.neighbors_within(q, radius);
                got.sort_unstable();
                let mut expected: Vec<usize> = objects
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.point.distance(&q) <= radius)
                    .map(|(i, _)| i)
                    .collect();
                expected.sort_unstable();
                assert_eq!(got, expected, "radius={radius} q={q}");
            }
        }
    }

    #[test]
    fn empty_grid() {
        let grid = UniformGrid::build(&[], 1.0);
        assert!(grid.is_empty());
        assert_eq!(grid.len(), 0);
        assert!(grid.neighbors_within(Point::new(0.0, 0.0), 10.0).is_empty());
    }

    #[test]
    fn grid_cell_half_open_invariant_holds_near_boundaries() {
        for &cell in &[1.0, 0.3, 2.5, 1e-3, 1e6] {
            for &x in &[
                0.0,
                -0.0,
                cell,
                -cell,
                3.0 * cell,
                cell * (1.0 - f64::EPSILON),
                cell * (1.0 + f64::EPSILON),
                -7.3 * cell,
                123.456,
                -123.456,
            ] {
                let k = grid_cell(x, cell);
                assert!(
                    k as f64 * cell <= x && x < (k + 1) as f64 * cell,
                    "x={x} cell={cell} -> k={k}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_ratios_saturate_instead_of_looping() {
        // |coord / cell| beyond 2^52: must return promptly with the clamped
        // index (this used to overflow in debug and loop in release).
        assert_eq!(grid_cell(1e30, 10_000.0), GRID_CELL_LIMIT);
        assert_eq!(grid_cell(-1e30, 10_000.0), -GRID_CELL_LIMIT);
        assert_eq!(grid_cell(f64::MAX, 1e-300), GRID_CELL_LIMIT);
        assert_eq!(grid_cell(1.0, 1e-300), GRID_CELL_LIMIT);
        // Just inside the limit stays exact.
        let coord = (GRID_CELL_LIMIT - 2) as f64;
        assert_eq!(grid_cell(coord, 1.0), GRID_CELL_LIMIT - 2);
        // A grid fed extreme coordinates must not hang either.
        let grid = UniformGrid::build(&[WeightedPoint::unit(1e30, 1e30)], 10_000.0);
        assert_eq!(grid.neighbors_within(Point::new(0.0, 0.0), 1.0).len(), 0);
    }

    #[test]
    fn negative_coordinates_round_to_correct_cells() {
        let objects = vec![
            WeightedPoint::unit(-0.1, -0.1),
            WeightedPoint::unit(0.1, 0.1),
        ];
        let grid = UniformGrid::build(&objects, 1.0);
        assert_eq!(grid.occupied_cells(), 2);
        let n = grid.neighbors_within(Point::new(0.0, 0.0), 0.5);
        assert_eq!(n.len(), 2);
        assert_eq!(grid.len(), 2);
    }
}
