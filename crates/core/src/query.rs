//! The unified query layer: one [`Query`] type for every problem variant the
//! paper and its future-work section describe, answered by
//! [`MaxRsEngine::run`](crate::engine::MaxRsEngine::run) through the same
//! in-memory / external-sequential / external-parallel strategy ladder.
//!
//! | Variant | Problem | Paper anchor |
//! |---|---|---|
//! | [`Query::MaxRs`] | best single placement of a `d1 × d2` rectangle | Sections 4–5 |
//! | [`Query::TopK`] | `k` pairwise non-overlapping placements, best first | Section 8 (MaxkRS) |
//! | [`Query::MinRs`] | the *least*-covered placement inside a domain | Section 8 (MinRS) |
//! | [`Query::ApproxMaxCrs`] | `(1/4)`-approximate best circle placement | Section 6 (Algorithm 3) |
//!
//! All variants share one execution substrate: each reduces to (rounds of)
//! the rectangle distribution sweep, so scaling work done for MaxRS — the EM
//! pipeline, the parallel slab stage, the O(log m) MergeSweep — carries over
//! to every variant for free.  A [`QueryRun`] reports the answer together with
//! the strategy that produced it and the I/O it cost.

use maxrs_em::IoSnapshot;
use maxrs_geometry::{Interval, Rect, RectSize};

use crate::engine::ExecutionStrategy;
use crate::error::{CoreError, Result};
use crate::result::{MaxCrsResult, MaxRsResult};

use crate::approx::SIGMA_FRACTION_LO;

/// One spatial-analytics query, answerable by
/// [`MaxRsEngine::run`](crate::engine::MaxRsEngine::run).
///
/// Construct via the checked helpers ([`Query::max_rs`], [`Query::top_k`],
/// [`Query::min_rs`], [`Query::approx_max_crs`]) or literally; `run` validates
/// parameters either way and rejects invalid ones with
/// [`CoreError::InvalidParameter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// MaxRS: the placement of a `size` rectangle covering maximum weight.
    MaxRs {
        /// Query rectangle extent (`d1 × d2` in the paper).
        size: RectSize,
    },
    /// MaxkRS: up to `k` pairwise non-overlapping placements, best first
    /// (greedy suppression — each round's placement is optimal for the
    /// objects not yet covered).
    TopK {
        /// Query rectangle extent.
        size: RectSize,
        /// Number of placements requested; fewer are returned when the
        /// objects run out first.  `k = 0` returns an empty list.
        k: usize,
    },
    /// MinRS: among all centers in the closed `domain`, the placement whose
    /// (open) query rectangle covers *minimum* total weight.  Solved as a
    /// weight-negated MaxRS pass over the domain's x-slab.
    MinRs {
        /// Query rectangle extent.
        size: RectSize,
        /// Admissible region for the rectangle's center (without it the
        /// minimum is trivially 0 in empty space).
        domain: Rect,
    },
    /// ApproxMaxCRS: the `(1/4)`-approximate best placement of a circle of
    /// the given `diameter` (Algorithm 3: MBR transform + MaxRS + 5-candidate
    /// refinement).
    ApproxMaxCrs {
        /// Circle diameter (`d` in the paper); must be positive and finite.
        diameter: f64,
        /// Position of the shifting distance σ inside its admissible open
        /// interval `((√2 − 1)·d/2, d/2)` (Lemma 5): `σ` is the interval's
        /// point at fraction `epsilon`, so `epsilon` must lie strictly
        /// between 0 and 1.  `0.5` (the interval midpoint, σ ≈ 0.354·d) is a
        /// robust default.
        epsilon: f64,
    },
}

impl Query {
    /// A MaxRS query.
    pub fn max_rs(size: RectSize) -> Self {
        Query::MaxRs { size }
    }

    /// A top-k (MaxkRS) query.
    pub fn top_k(size: RectSize, k: usize) -> Self {
        Query::TopK { size, k }
    }

    /// A MinRS query over the given center domain.
    pub fn min_rs(size: RectSize, domain: Rect) -> Self {
        Query::MinRs { size, domain }
    }

    /// An ApproxMaxCRS query with the default `epsilon = 0.5`.
    pub fn approx_max_crs(diameter: f64) -> Self {
        Query::ApproxMaxCrs {
            diameter,
            epsilon: 0.5,
        }
    }

    /// A short human-readable name ("max-rs", "top-k", "min-rs",
    /// "approx-max-crs").
    pub fn name(&self) -> &'static str {
        match self {
            Query::MaxRs { .. } => "max-rs",
            Query::TopK { .. } => "top-k",
            Query::MinRs { .. } => "min-rs",
            Query::ApproxMaxCrs { .. } => "approx-max-crs",
        }
    }

    /// Checks the query parameters, returning
    /// [`CoreError::InvalidParameter`] for non-positive / non-finite extents,
    /// an `epsilon` outside `(0, 1)`, or a NaN domain.
    pub fn validate(&self) -> Result<()> {
        let check_size = |size: &RectSize| -> Result<()> {
            // Written to also reject NaN: `NaN > 0.0` is false.
            let valid = size.width > 0.0
                && size.height > 0.0
                && size.width.is_finite()
                && size.height.is_finite();
            if !valid {
                return Err(CoreError::InvalidParameter(format!(
                    "query rectangle extent must be positive and finite, got {} x {}",
                    size.width, size.height
                )));
            }
            Ok(())
        };
        match self {
            Query::MaxRs { size } | Query::TopK { size, .. } => check_size(size),
            Query::MinRs { size, domain } => {
                check_size(size)?;
                // NaN comparisons are false, so NaN bounds fail `valid` too.
                // Finiteness matters even for the bounds a sweep would clamp
                // away: an infinite domain has no well-defined center to
                // report (and an unbounded MinRS is trivially 0 regardless).
                let valid = domain.x_lo <= domain.x_hi
                    && domain.y_lo <= domain.y_hi
                    && domain.x_lo.is_finite()
                    && domain.x_hi.is_finite()
                    && domain.y_lo.is_finite()
                    && domain.y_hi.is_finite();
                if !valid {
                    return Err(CoreError::InvalidParameter(format!(
                        "MinRS domain bounds must be finite, ordered and non-NaN, got \
                         x [{}, {}] y [{}, {}]",
                        domain.x_lo, domain.x_hi, domain.y_lo, domain.y_hi
                    )));
                }
                Ok(())
            }
            Query::ApproxMaxCrs { diameter, epsilon } => {
                // `NaN > 0.0` is false, so NaN diameters are rejected too.
                let diameter_ok = *diameter > 0.0 && diameter.is_finite();
                if !diameter_ok {
                    return Err(CoreError::InvalidParameter(format!(
                        "circle diameter must be positive and finite, got {diameter}"
                    )));
                }
                if !(*epsilon > 0.0 && *epsilon < 1.0) {
                    return Err(CoreError::InvalidParameter(format!(
                        "epsilon must lie strictly between 0 and 1, got {epsilon}"
                    )));
                }
                // An extreme epsilon (≲ 1e-17 or within one ulp of 1) can
                // round the interpolated σ onto an interval endpoint, which
                // `candidate_points` rejects with a panic; catch it here as
                // the checked error the engine promises.
                let sigma = self.sigma_fraction().expect("approx variant");
                if !(sigma > SIGMA_FRACTION_LO && sigma < 0.5) {
                    return Err(CoreError::InvalidParameter(format!(
                        "epsilon {epsilon} maps to sigma fraction {sigma}, which rounds \
                         onto the boundary of ({SIGMA_FRACTION_LO:.4}, 0.5)"
                    )));
                }
                Ok(())
            }
        }
    }

    /// The rectangle size and root x-slab of the query's first sweep pass:
    /// the domain's x-slab for MinRS, unbounded otherwise (a circle's pass
    /// runs at its `d × d` MBR).
    pub(crate) fn first_pass(&self) -> (RectSize, Interval) {
        match *self {
            Query::MaxRs { size } | Query::TopK { size, .. } => (size, Interval::UNBOUNDED),
            Query::MinRs { size, domain } => (size, Interval::new(domain.x_lo, domain.x_hi)),
            Query::ApproxMaxCrs { diameter, .. } => {
                (RectSize::square(diameter), Interval::UNBOUNDED)
            }
        }
    }

    /// The shifting distance σ as a fraction of the diameter for an
    /// [`ApproxMaxCrs`](Query::ApproxMaxCrs) query: the point at fraction
    /// `epsilon` of the admissible open interval `((√2 − 1)/2, 1/2)`.
    ///
    /// Returns `None` for the other variants.
    pub fn sigma_fraction(&self) -> Option<f64> {
        match self {
            Query::ApproxMaxCrs { epsilon, .. } => {
                Some(SIGMA_FRACTION_LO + epsilon * (0.5 - SIGMA_FRACTION_LO))
            }
            _ => None,
        }
    }
}

/// The answer to a [`Query`], shaped per variant.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Answer to [`Query::MaxRs`].
    MaxRs(MaxRsResult),
    /// Answer to [`Query::TopK`]: placements in decreasing weight order.
    TopK(Vec<MaxRsResult>),
    /// Answer to [`Query::MinRs`] (here `total_weight` is the *minimum*).
    MinRs(MaxRsResult),
    /// Answer to [`Query::ApproxMaxCrs`].
    MaxCrs(MaxCrsResult),
}

impl QueryAnswer {
    /// The single rectangle result of a MaxRS or MinRS answer.
    pub fn as_max_rs(&self) -> Option<&MaxRsResult> {
        match self {
            QueryAnswer::MaxRs(r) | QueryAnswer::MinRs(r) => Some(r),
            _ => None,
        }
    }

    /// The placement list of a top-k answer.
    pub fn placements(&self) -> Option<&[MaxRsResult]> {
        match self {
            QueryAnswer::TopK(v) => Some(v),
            _ => None,
        }
    }

    /// The circle result of an ApproxMaxCRS answer.
    pub fn as_max_crs(&self) -> Option<&MaxCrsResult> {
        match self {
            QueryAnswer::MaxCrs(r) => Some(r),
            _ => None,
        }
    }

    /// The headline objective value: the covered weight of the (best)
    /// placement, `0.0` for an empty top-k list.
    pub fn best_weight(&self) -> f64 {
        match self {
            QueryAnswer::MaxRs(r) | QueryAnswer::MinRs(r) => r.total_weight,
            QueryAnswer::TopK(v) => v.first().map_or(0.0, |r| r.total_weight),
            QueryAnswer::MaxCrs(r) => r.total_weight,
        }
    }
}

/// The outcome of one [`MaxRsEngine::run`](crate::engine::MaxRsEngine::run):
/// the per-variant answer plus how it was computed and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// The answer, shaped per query variant.
    pub answer: QueryAnswer,
    /// The strategy the engine selected (or was forced to use).
    pub strategy: ExecutionStrategy,
    /// Worker threads used (1 unless the strategy is
    /// [`ExecutionStrategy::ExternalParallel`]).  In a batched run this is
    /// the worker pool available to the whole batch: with several sweep
    /// groups the workers run *groups* concurrently (each group's inner
    /// sweep sequential), with a single group they run its slab stage.
    pub workers: usize,
    /// Blocks transferred while answering.  Multi-round variants (top-k)
    /// accumulate the I/O of every round.
    pub io: IoSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_geometry::Point;

    #[test]
    fn validation_accepts_good_and_rejects_bad_parameters() {
        assert!(Query::max_rs(RectSize::square(2.0)).validate().is_ok());
        assert!(Query::top_k(RectSize::new(1.0, 3.0), 0).validate().is_ok());
        assert!(
            Query::min_rs(RectSize::square(1.0), Rect::new(0.0, 1.0, 0.0, 1.0))
                .validate()
                .is_ok()
        );
        assert!(Query::approx_max_crs(5.0).validate().is_ok());

        // Invalid extents are constructed literally: `RectSize::new` itself
        // debug-asserts positivity, `Query::validate` is the checked path.
        assert!(Query::max_rs(RectSize {
            width: 0.0,
            height: 1.0
        })
        .validate()
        .is_err());
        assert!(Query::max_rs(RectSize {
            width: f64::INFINITY,
            height: 1.0
        })
        .validate()
        .is_err());
        assert!(Query::top_k(
            RectSize {
                width: 1.0,
                height: f64::NAN
            },
            3
        )
        .validate()
        .is_err());
        // Inverted or NaN MinRS domains are rejected before they can reach
        // the sweep (which would otherwise panic on Interval::new / clamp).
        assert!(Query::min_rs(
            RectSize::square(1.0),
            Rect {
                x_lo: 5.0,
                x_hi: 1.0,
                y_lo: 0.0,
                y_hi: 1.0
            }
        )
        .validate()
        .is_err());
        assert!(Query::min_rs(
            RectSize::square(1.0),
            Rect {
                x_lo: 0.0,
                x_hi: 1.0,
                y_lo: 2.0,
                y_hi: 1.0
            }
        )
        .validate()
        .is_err());
        assert!(Query::min_rs(
            RectSize::square(1.0),
            Rect {
                x_lo: f64::NAN,
                x_hi: 1.0,
                y_lo: 0.0,
                y_hi: 1.0
            }
        )
        .validate()
        .is_err());
        // Infinite domains have no well-defined center to report.
        assert!(Query::min_rs(
            RectSize::square(1.0),
            Rect {
                x_lo: f64::NEG_INFINITY,
                x_hi: f64::INFINITY,
                y_lo: 0.0,
                y_hi: 1.0
            }
        )
        .validate()
        .is_err());
        assert!(Query::approx_max_crs(0.0).validate().is_err());
        assert!(Query::approx_max_crs(f64::NAN).validate().is_err());
        assert!(Query::ApproxMaxCrs {
            diameter: 1.0,
            epsilon: 0.0
        }
        .validate()
        .is_err());
        assert!(Query::ApproxMaxCrs {
            diameter: 1.0,
            epsilon: 1.0
        }
        .validate()
        .is_err());
        // σ above d/2 (σ = 0.6·d) and below (√2 − 1)·d/2 (σ = 0.1·d): the
        // epsilons of both lie outside (0, 1).
        for sigma in [0.6, 0.1] {
            let epsilon = (sigma - SIGMA_FRACTION_LO) / (0.5 - SIGMA_FRACTION_LO);
            assert!(Query::ApproxMaxCrs {
                diameter: 2.0,
                epsilon
            }
            .validate()
            .is_err());
        }
        // Positive but so small that sigma rounds onto the interval's lower
        // endpoint: must be a checked error, not a candidate_points panic.
        assert!(Query::ApproxMaxCrs {
            diameter: 1.0,
            epsilon: 1e-18
        }
        .validate()
        .is_err());
    }

    #[test]
    fn sigma_fraction_interpolates_the_admissible_interval() {
        let lo = SIGMA_FRACTION_LO;
        let mid = Query::approx_max_crs(10.0).sigma_fraction().unwrap();
        assert!((mid - (lo + 0.5 * (0.5 - lo))).abs() < 1e-15);
        let near_lo = Query::ApproxMaxCrs {
            diameter: 1.0,
            epsilon: 1e-6,
        }
        .sigma_fraction()
        .unwrap();
        let near_hi = Query::ApproxMaxCrs {
            diameter: 1.0,
            epsilon: 1.0 - 1e-6,
        }
        .sigma_fraction()
        .unwrap();
        assert!(lo < near_lo && near_lo < mid && mid < near_hi && near_hi < 0.5);
        assert!(Query::max_rs(RectSize::square(1.0))
            .sigma_fraction()
            .is_none());
    }

    #[test]
    fn names_and_accessors() {
        assert_eq!(Query::max_rs(RectSize::square(1.0)).name(), "max-rs");
        assert_eq!(Query::top_k(RectSize::square(1.0), 2).name(), "top-k");
        assert_eq!(
            Query::min_rs(RectSize::square(1.0), Rect::new(0.0, 1.0, 0.0, 1.0)).name(),
            "min-rs"
        );
        assert_eq!(Query::approx_max_crs(1.0).name(), "approx-max-crs");

        let r = MaxRsResult {
            center: Point::new(1.0, 2.0),
            total_weight: 5.0,
            region: Rect::new(0.0, 2.0, 1.0, 3.0),
        };
        let ans = QueryAnswer::MaxRs(r);
        assert_eq!(ans.as_max_rs().unwrap().total_weight, 5.0);
        assert_eq!(ans.best_weight(), 5.0);
        assert!(ans.placements().is_none());
        assert!(ans.as_max_crs().is_none());

        let topk = QueryAnswer::TopK(vec![r]);
        assert_eq!(topk.placements().unwrap().len(), 1);
        assert_eq!(topk.best_weight(), 5.0);
        assert_eq!(QueryAnswer::TopK(Vec::new()).best_weight(), 0.0);

        let crs = QueryAnswer::MaxCrs(MaxCrsResult {
            center: Point::new(0.0, 0.0),
            total_weight: 3.0,
        });
        assert_eq!(crs.as_max_crs().unwrap().total_weight, 3.0);
        assert_eq!(crs.best_weight(), 3.0);
    }
}
