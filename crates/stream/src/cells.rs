//! Bookkeeping structures of the incremental maintenance loop: multisets of
//! arrangement breakpoints with successor queries, and the per-cell
//! dirty/cached state.
//!
//! The engine keeps two global multisets — the x-edges and the event-y's of
//! every live transformed rectangle — so the winning sweep cell can be
//! *canonicalized* exactly like the external pipeline does (see
//! `maxrs_core::exact`, "Canonical max-regions"): the winning x-interval is
//! widened to the full arrangement cell via an x-edge successor query, and
//! the winning y-strip extends to the next event y.  Both queries are
//! `O(log n)` against these indexes instead of the `O(N/B)` scan the external
//! path pays.

use std::collections::{BTreeMap, BTreeSet};

use maxrs_core::total_order_bits;
use maxrs_geometry::Interval;

/// A multiset of finite floats with `O(log n)` insert/remove, minimum and
/// strict-successor queries, keyed on [`total_order_bits`].
#[derive(Debug, Default)]
pub(crate) struct FloatMultiset {
    map: BTreeMap<u64, (f64, usize)>,
}

impl FloatMultiset {
    pub(crate) fn insert(&mut self, x: f64) {
        self.map.entry(total_order_bits(x)).or_insert((x, 0)).1 += 1;
    }

    pub(crate) fn remove(&mut self, x: f64) {
        let key = total_order_bits(x);
        if let Some(entry) = self.map.get_mut(&key) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.map.remove(&key);
            }
        } else {
            debug_assert!(false, "removed a value that was never inserted: {x}");
        }
    }

    /// The smallest stored value.
    pub(crate) fn min(&self) -> Option<f64> {
        self.map.values().next().map(|&(x, _)| x)
    }

    /// The smallest stored value strictly greater than `x` (by `f64`
    /// comparison, so `-0.0` and `+0.0` count as equal).
    pub(crate) fn successor_after(&self, x: f64) -> Option<f64> {
        use std::ops::Bound::{Excluded, Unbounded};
        self.map
            .range((Excluded(total_order_bits(x)), Unbounded))
            .map(|(_, &(v, _))| v)
            .find(|&v| v > x)
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.values().map(|&(_, n)| n).sum()
    }
}

/// The best tuple of one cell's plane sweep: the cell-local analogue of the
/// external pipeline's winning slab tuple, before canonical widening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellCandidate {
    /// Maximum location-weight inside the cell.
    pub sum: f64,
    /// First sweep `y` at which the maximum is attained.
    pub y: f64,
    /// The winning (cell-clipped) elementary x-interval at that `y`.
    pub x: Interval,
}

/// Ordering key of a clean cell's candidate in the engine's best-candidate
/// index: sum *descending* (inverted float key), then `y` ascending, then
/// column ascending — exactly the tie-breaking the sweep's winner selection
/// uses, so the index's first entry *is* the best clean candidate.  (Weights
/// are normalized so candidate sums are never `-0.0`, keeping the bitwise
/// sum key consistent with numeric comparison.)
pub(crate) fn candidate_key(c: &CellCandidate, col: i64) -> (u64, u64, i64) {
    (!total_order_bits(c.sum), total_order_bits(c.y), col)
}

/// One grid column of the maintenance structure: the ids of the live objects
/// whose transformed rectangle overlaps the column with positive width, plus
/// the cached sweep candidate and its validity flag.
#[derive(Debug, Default)]
pub(crate) struct Cell {
    /// Member object ids (ordered, so sweep inputs are deterministic).
    pub ids: BTreeSet<u64>,
    /// `true` when membership changed since `cached` was computed; a dirty
    /// cell's cache is never consulted.
    pub dirty: bool,
    /// The cell's sweep candidate as of the last re-sweep (`None` when the
    /// last sweep produced no tuples).
    pub cached: Option<CellCandidate>,
    /// Upper bound on the cell's maximum location-weight, maintained in
    /// `O(1)` per event: inserts add their weight, removals leave it
    /// untouched (a stale bound is still an upper bound, and skipping the
    /// subtraction avoids any float-cancellation drift *below* the true
    /// sum), and every re-sweep refreshes it to the exact member total.
    /// This keeps the per-answer prune check `O(1)` per dirty cell even for
    /// cells that stay pruned across many answers.
    pub bound: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_counts_and_successors() {
        let mut set = FloatMultiset::default();
        for x in [1.0, 2.0, 2.0, 5.0] {
            set.insert(x);
        }
        assert_eq!(set.len(), 4);
        assert_eq!(set.min(), Some(1.0));
        assert_eq!(set.successor_after(1.0), Some(2.0));
        assert_eq!(set.successor_after(2.0), Some(5.0));
        assert_eq!(set.successor_after(5.0), None);
        assert_eq!(set.successor_after(f64::NEG_INFINITY), Some(1.0));
        set.remove(2.0);
        assert_eq!(set.successor_after(1.0), Some(2.0));
        set.remove(2.0);
        assert_eq!(set.successor_after(1.0), Some(5.0));
        set.remove(1.0);
        set.remove(5.0);
        assert_eq!(set.min(), None);
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn successor_skips_signed_zero_alias() {
        let mut set = FloatMultiset::default();
        set.insert(0.0);
        set.insert(1.0);
        // Strictly greater than -0.0 must skip +0.0 (equal as floats).
        assert_eq!(set.successor_after(-0.0), Some(1.0));
        assert_eq!(set.min(), Some(0.0));
    }
}
