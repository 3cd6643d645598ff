//! Property-based tests (proptest) of the core invariants:
//!
//! * the in-memory plane sweep equals brute force on arbitrary inputs,
//! * the external ExactMaxRS pipeline equals the in-memory sweep under
//!   arbitrary (tiny) memory configurations,
//! * ApproxMaxCRS never violates its approximation bound and never reports a
//!   weight its own center does not achieve,
//! * the external sort really sorts and preserves multiplicities,
//! * the exact MaxCRS reference is consistent with its own objective.

use maxrs::core::{
    brute_force_max_rs, circle_objective, closed_disk_weight, exact_max_crs_in_memory,
    rect_objective,
};
use maxrs::{
    exact_max_rs_from_objects, max_rs_in_memory, EmConfig, EmContext, EngineOptions,
    ExactMaxRsOptions, ExecutionStrategy, MaxRsEngine, Query, RectSize, WeightedPoint,
};
use maxrs_em::external_sort_by_key;
use proptest::prelude::*;

/// Strategy: a small cloud of weighted points with coordinates on a coarse
/// lattice, so that ties and exactly-touching rectangles (the tricky boundary
/// cases) appear frequently.
fn objects_strategy(max_len: usize) -> impl Strategy<Value = Vec<WeightedPoint>> {
    prop::collection::vec(
        (0i32..40, 0i32..40, 1u32..4)
            .prop_map(|(x, y, w)| WeightedPoint::at(x as f64, y as f64, w as f64)),
        1..max_len,
    )
}

/// Strategy: query rectangle sizes, including sizes that exactly match lattice
/// distances (boundary cases).
fn size_strategy() -> impl Strategy<Value = RectSize> {
    (1u32..20, 1u32..20).prop_map(|(w, h)| RectSize::new(w as f64, h as f64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plane_sweep_matches_brute_force(objects in objects_strategy(24), size in size_strategy()) {
        let fast = max_rs_in_memory(&objects, size);
        let slow = brute_force_max_rs(&objects, size);
        prop_assert_eq!(fast.total_weight, slow.total_weight);
        // The returned center achieves the reported weight under open-boundary
        // semantics.
        prop_assert_eq!(rect_objective(&objects, fast.center, size), fast.total_weight);
    }

    #[test]
    fn external_pipeline_matches_in_memory(
        objects in objects_strategy(60),
        size in size_strategy(),
        mem in 8usize..40,
        fanout in 2usize..6,
    ) {
        let reference = max_rs_in_memory(&objects, size);
        let ctx = EmContext::new(EmConfig::new(256, 1024).unwrap());
        let opts = ExactMaxRsOptions {
            memory_rects: Some(mem),
            fanout: Some(fanout),
            ..Default::default()
        };
        let external = exact_max_rs_from_objects(&ctx, &objects, size, &opts).unwrap();
        prop_assert_eq!(external.total_weight, reference.total_weight);
        prop_assert_eq!(
            rect_objective(&objects, external.center, size),
            external.total_weight
        );
    }

    #[test]
    fn approx_max_crs_bound_and_consistency(
        objects in objects_strategy(30),
        diameter in 2u32..25,
    ) {
        let diameter = diameter as f64;
        // Forced external: these few objects would otherwise stay in memory.
        let engine = MaxRsEngine::with_options(EngineOptions {
            em_config: EmConfig::new(4096, 16 * 4096).unwrap(),
            exact: ExactMaxRsOptions::default(),
            force_strategy: Some(ExecutionStrategy::ExternalSequential),
        });
        let run = engine.run(&objects, &Query::approx_max_crs(diameter)).unwrap();
        let approx = *run.answer.as_max_crs().unwrap();
        // Reported weight is exactly what its center covers.
        prop_assert_eq!(
            circle_objective(&objects, approx.center, diameter),
            approx.total_weight
        );
        // 1/4-approximation against the (closed-disk) optimum.
        let exact = exact_max_crs_in_memory(&objects, diameter);
        prop_assert!(exact.total_weight >= approx.total_weight - 1e-9);
        prop_assert!(approx.total_weight >= 0.25 * exact.total_weight - 1e-9);
    }

    #[test]
    fn exact_crs_reference_is_self_consistent(
        objects in objects_strategy(25),
        diameter in 2u32..25,
    ) {
        let diameter = diameter as f64;
        let exact = exact_max_crs_in_memory(&objects, diameter);
        // The reported optimum is achieved by its own center (closed disks)...
        let achieved = closed_disk_weight(&objects, exact.center, diameter);
        prop_assert!((achieved - exact.total_weight).abs() < 1e-6);
        // ... and no single object's neighborhood beats it.
        for o in &objects {
            let w = closed_disk_weight(&objects, o.point, diameter);
            prop_assert!(w <= exact.total_weight + 1e-9);
        }
    }

    #[test]
    fn external_sort_sorts_and_preserves_multiset(values in prop::collection::vec(any::<u32>(), 0..400)) {
        let ctx = EmContext::new(EmConfig::new(64, 256).unwrap());
        let as_u64: Vec<u64> = values.iter().map(|&v| v as u64).collect();
        let file = ctx.write_all(&as_u64).unwrap();
        let sorted = external_sort_by_key(&ctx, &file, |v| *v).unwrap();
        let out = ctx.read_all(&sorted).unwrap();
        let mut expected = as_u64.clone();
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn maxrs_is_monotone_in_the_query_size(objects in objects_strategy(25)) {
        // A larger rectangle can never cover less weight than a smaller one.
        let small = max_rs_in_memory(&objects, RectSize::new(3.0, 4.0));
        let large = max_rs_in_memory(&objects, RectSize::new(9.0, 12.0));
        prop_assert!(large.total_weight >= small.total_weight);
        // And the total weight of the dataset is an upper bound.
        let total: f64 = objects.iter().map(|o| o.weight).sum();
        prop_assert!(large.total_weight <= total + 1e-9);
    }
}
