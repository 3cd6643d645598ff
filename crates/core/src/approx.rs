//! ApproxMaxCRS: the (1/4)-approximation for MaxCRS (Section 6).
//!
//! Algorithm 3 of the paper:
//!
//! 1. Replace every circle by its minimum bounding rectangle (a `d × d`
//!    square) and solve the resulting MaxRS instance exactly.
//! 2. Take the centroid `p0` of the returned max-region and generate four
//!    *shifted points* `p1..p4` at distance `σ` from `p0` along the four
//!    diagonal directions, with `(√2 − 1)·d/2 < σ < d/2` so that the four
//!    shifted circles together cover the MBR of the circle at `p0` (Lemma 5).
//! 3. Evaluate the circular range sum of the five candidates with one
//!    sequential scan of the object file and return the best.
//!
//! [`Query::ApproxMaxCrs`](crate::Query::ApproxMaxCrs) runs it through the
//! query driver: the MBR pass *is* the MaxRS pass of a `d × d` square, so the
//! driver's shared group of that size ([`crate::batch`]) answers step 1 for
//! every MaxRS, top-k and ApproxMaxCRS query of the size at once, and steps
//! 2–3 are [`candidate_points`] and [`evaluate_candidates`] over its `p0`.
//! The query's `epsilon` places σ inside Lemma 5's interval
//! ([`Query::sigma_fraction`](crate::Query::sigma_fraction)).
//!
//! The whole procedure adds only `O(N/B)` I/Os on top of ExactMaxRS and is a
//! `1/4`-approximation in the worst case (Theorems 3 and 4); the experiments
//! of Figure 17 show the practical ratio is ≈0.9.

use maxrs_em::{EmContext, TupleFile};
use maxrs_geometry::{Point, RectSize, WeightedPoint};

use crate::error::Result;
use crate::plane_sweep::max_rs_in_memory;
use crate::records::ObjectRecord;
use crate::result::MaxCrsResult;

/// Lower bound of the admissible sigma-fraction interval, `(√2 − 1)/2` ≈
/// 0.2071.  A valid shifting distance satisfies
/// `SIGMA_FRACTION_LO < σ/d < 1/2` **strictly** (Lemma 5); see
/// [`candidate_points`] for why both bounds matter.
pub const SIGMA_FRACTION_LO: f64 = (std::f64::consts::SQRT_2 - 1.0) / 2.0;

/// Algorithm 3 in memory: the MaxRS step solved by the in-memory plane sweep
/// and the candidate evaluation done by a direct pass over the slice — the
/// answer of the engine's in-memory strategy to
/// [`Query::ApproxMaxCrs`](crate::Query::ApproxMaxCrs).
///
/// Because the external pipeline reports canonical max-regions (see
/// [`crate::sweep`], "Canonical max-regions"), this returns the identical
/// answer to the external strategies on the same data — the engine's
/// determinism tests rely on that.
///
/// # Panics
///
/// Panics on a non-positive / non-finite `diameter` or a `sigma_fraction`
/// outside `((√2 − 1)/2, 1/2)` — the same contract as [`candidate_points`].
/// Use [`MaxRsEngine::run`](crate::engine::MaxRsEngine::run) for checked
/// errors instead of panics.
pub fn approx_max_crs_in_memory(
    objects: &[WeightedPoint],
    diameter: f64,
    sigma_fraction: f64,
) -> MaxCrsResult {
    if objects.is_empty() {
        // Validate even on the trivial input so misuse surfaces early.
        let _ = candidate_points(Point::ORIGIN, diameter, sigma_fraction);
        return MaxCrsResult::empty();
    }
    let p0 = max_rs_in_memory(objects, RectSize::square(diameter)).center;
    let candidates = candidate_points(p0, diameter, sigma_fraction);
    // Same evaluation (open disks, input order) as the external file scan.
    let r_sq = (diameter / 2.0) * (diameter / 2.0);
    let mut weights = [0.0f64; 5];
    for o in objects {
        for (i, c) in candidates.iter().enumerate() {
            if o.point.distance_sq(c) < r_sq {
                weights[i] += o.weight;
            }
        }
    }
    best_candidate(&candidates, &weights)
}

/// Picks the best-scoring candidate (last on ties, matching `max_by`).
pub fn best_candidate(candidates: &[Point], weights: &[f64]) -> MaxCrsResult {
    let (best_idx, best_weight) = weights
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("five candidates");
    MaxCrsResult {
        center: candidates[best_idx],
        total_weight: best_weight,
    }
}

/// The five candidate points of Algorithm 3: the max-region centroid `p0` and
/// the four points shifted by `σ = sigma_fraction · diameter` along the
/// diagonal directions (Figure 9).
///
/// # The sigma-fraction contract
///
/// `sigma_fraction` must lie **strictly** inside `((√2 − 1)/2, 1/2)` ≈
/// `(0.2071, 0.5)`.  Lemma 5 needs both bounds: at or below the lower bound
/// the four shifted circles no longer cover the corners of the MBR of the
/// circle at `p0`; at or above the upper bound they no longer cover its
/// center region.  Either way the `1/4`-approximation guarantee (Theorem 4)
/// is lost, so values outside the open interval are rejected rather than
/// silently degrading the bound.
///
/// # Panics
///
/// Panics when `diameter` is non-positive, infinite or NaN, or when
/// `sigma_fraction` lies outside the open interval above (NaN included).
/// Callers that prefer checked errors should go through
/// [`MaxRsEngine::run`](crate::engine::MaxRsEngine::run), which validates
/// the same conditions up front ([`Query::validate`](crate::Query::validate))
/// and returns [`CoreError::InvalidParameter`](crate::error::CoreError)
/// instead.
pub fn candidate_points(p0: Point, diameter: f64, sigma_fraction: f64) -> [Point; 5] {
    assert!(
        diameter > 0.0 && diameter.is_finite(),
        "circle diameter must be positive and finite, got {diameter}"
    );
    assert!(
        sigma_fraction > SIGMA_FRACTION_LO && sigma_fraction < 0.5,
        "sigma fraction {sigma_fraction} outside the admissible interval \
         ({SIGMA_FRACTION_LO:.4}, 0.5)"
    );
    let sigma = sigma_fraction * diameter;
    let step = sigma / std::f64::consts::SQRT_2;
    [
        p0,
        p0.translated(step, step),
        p0.translated(step, -step),
        p0.translated(-step, -step),
        p0.translated(-step, step),
    ]
}

/// Evaluates the (open-disk) circular range sum of every candidate with a
/// single sequential scan of the object file.
pub fn evaluate_candidates(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    candidates: &[Point],
    diameter: f64,
) -> Result<Vec<f64>> {
    let r_sq = (diameter / 2.0) * (diameter / 2.0);
    let mut sums = vec![0.0f64; candidates.len()];
    let mut reader = ctx.open_reader(objects);
    while let Some(rec) = reader.next_record()? {
        for (i, c) in candidates.iter().enumerate() {
            if rec.0.point.distance_sq(c) < r_sq {
                sums[i] += rec.0.weight;
            }
        }
    }
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crs_exact::exact_max_crs_in_memory;
    use crate::engine::{EngineOptions, ExecutionStrategy, MaxRsEngine};
    use crate::exact::ExactMaxRsOptions;
    use crate::query::Query;
    use crate::reference::circle_objective;
    use maxrs_em::EmConfig;

    /// Both ends of the strategy ladder: a small-buffer engine forced onto
    /// the in-memory strategy and onto the external pipeline, which recurses
    /// on these inputs.
    const STRATEGIES: [ExecutionStrategy; 2] = [
        ExecutionStrategy::InMemory,
        ExecutionStrategy::ExternalSequential,
    ];

    /// `Query::approx_max_crs(diameter)` through `MaxRsEngine::run` under
    /// `strategy`.
    fn approx(
        strategy: ExecutionStrategy,
        objects: &[WeightedPoint],
        diameter: f64,
    ) -> MaxCrsResult {
        let engine = MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(512, 16 * 512).unwrap(),
            exact: ExactMaxRsOptions {
                memory_rects: Some(64),
                ..Default::default()
            },
            force_strategy: Some(strategy),
        });
        let run = engine
            .run(objects, &Query::approx_max_crs(diameter))
            .unwrap();
        assert_eq!(run.strategy, strategy);
        *run.answer.as_max_crs().unwrap()
    }

    fn pseudo_random_objects(n: usize, seed: u64, extent: f64) -> Vec<WeightedPoint> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| WeightedPoint::at(next() * extent, next() * extent, 1.0))
            .collect()
    }

    #[test]
    #[should_panic(expected = "circle diameter must be positive")]
    fn candidate_points_panics_on_non_positive_diameter() {
        let _ = candidate_points(Point::new(0.0, 0.0), 0.0, 0.35);
    }

    #[test]
    #[should_panic(expected = "circle diameter must be positive")]
    fn candidate_points_panics_on_nan_diameter() {
        let _ = candidate_points(Point::new(0.0, 0.0), f64::NAN, 0.35);
    }

    #[test]
    #[should_panic(expected = "outside the admissible interval")]
    fn candidate_points_panics_on_sigma_fraction_below_the_interval() {
        // (sqrt(2)-1)/2 is excluded: Lemma 5 needs the *open* interval.
        let _ = candidate_points(
            Point::new(0.0, 0.0),
            2.0,
            (std::f64::consts::SQRT_2 - 1.0) / 2.0,
        );
    }

    #[test]
    #[should_panic(expected = "outside the admissible interval")]
    fn candidate_points_panics_on_sigma_fraction_at_one_half() {
        let _ = candidate_points(Point::new(0.0, 0.0), 2.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "outside the admissible interval")]
    fn candidate_points_panics_on_nan_sigma_fraction() {
        let _ = candidate_points(Point::new(0.0, 0.0), 2.0, f64::NAN);
    }

    #[test]
    fn candidate_geometry_matches_lemma5() {
        // With (sqrt(2)-1)/2 < sigma/d < 1/2 the four shifted circles must
        // cover the MBR of the circle at p0 (Lemma 5): check by sampling.
        let d = 10.0;
        let p0 = Point::new(0.0, 0.0);
        for sigma_fraction in [0.22, 0.35, 0.49] {
            let candidates = candidate_points(p0, d, sigma_fraction);
            for i in 0..=20 {
                for j in 0..=20 {
                    let q = Point::new(
                        -d / 2.0 + d * i as f64 / 20.0,
                        -d / 2.0 + d * j as f64 / 20.0,
                    );
                    let covered = candidates[1..]
                        .iter()
                        .any(|c| c.distance(&q) <= d / 2.0 + 1e-9);
                    assert!(covered, "sigma={sigma_fraction} point {q} uncovered");
                }
            }
        }
    }

    #[test]
    fn in_memory_approx_matches_external_pipeline() {
        for seed in [5u64, 29] {
            let objects = pseudo_random_objects(200, seed, 150.0);
            for diameter in [10.0, 25.0] {
                let [internal, external] = STRATEGIES.map(|s| approx(s, &objects, diameter));
                assert_eq!(external, internal, "seed={seed} d={diameter}");
                let sigma = Query::approx_max_crs(diameter).sigma_fraction().unwrap();
                assert_eq!(
                    internal,
                    approx_max_crs_in_memory(&objects, diameter, sigma)
                );
            }
        }
    }

    #[test]
    fn empty_and_single_object() {
        for strategy in STRATEGIES {
            assert_eq!(approx(strategy, &[], 5.0).total_weight, 0.0);
            let objects = vec![WeightedPoint::at(10.0, 10.0, 3.0)];
            assert_eq!(approx(strategy, &objects, 5.0).total_weight, 3.0);
        }
    }

    #[test]
    fn approximation_bound_holds_on_random_data() {
        for strategy in STRATEGIES {
            for seed in [3u64, 17, 71] {
                let objects = pseudo_random_objects(150, seed, 100.0);
                for diameter in [8.0, 15.0, 30.0] {
                    let approx = approx(strategy, &objects, diameter);
                    let exact = exact_max_crs_in_memory(&objects, diameter);
                    assert!(exact.total_weight > 0.0);
                    let ratio = approx.total_weight / exact.total_weight;
                    assert!(
                        ratio >= 0.25 - 1e-9,
                        "{strategy:?} seed={seed} d={diameter}: ratio {ratio} below the proven bound"
                    );
                    assert!(ratio <= 1.0 + 1e-9, "approximation cannot beat the optimum");
                    // Reported weight must match a direct evaluation at the center.
                    assert_eq!(
                        circle_objective(&objects, approx.center, diameter),
                        approx.total_weight
                    );
                }
            }
        }
    }

    #[test]
    fn dense_cluster_is_found_exactly() {
        // A tight cluster of 10 points within a 1-unit ball plus far noise.
        let mut objects: Vec<WeightedPoint> = (0..10)
            .map(|i| WeightedPoint::unit(50.0 + (i as f64) * 0.1, 50.0 - (i as f64) * 0.05))
            .collect();
        objects.push(WeightedPoint::unit(500.0, 500.0));
        for strategy in STRATEGIES {
            let r = approx(strategy, &objects, 10.0);
            assert_eq!(
                r.total_weight, 10.0,
                "{strategy:?}: the cluster fits in one circle"
            );
        }
    }
}
