//! Quickstart: answer a MaxRS query through the [`MaxRsEngine`] facade, then
//! peek under the hood (in-memory sweep, external-memory pipeline) and finish
//! with a MaxCRS query via the approximation algorithm, again through the
//! engine.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use maxrs::{
    exact_max_rs_from_objects, max_rs_in_memory, EmConfig, EmContext, ExactMaxRsOptions,
    MaxRsEngine, Query, RectSize, WeightedPoint,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A handful of points of interest with weights (e.g. expected customers).
    let objects = vec![
        WeightedPoint::at(12.0, 14.0, 3.0),
        WeightedPoint::at(13.5, 15.0, 2.0),
        WeightedPoint::at(14.0, 13.0, 4.0),
        WeightedPoint::at(30.0, 30.0, 5.0),
        WeightedPoint::at(31.0, 31.5, 1.0),
        WeightedPoint::at(70.0, 10.0, 2.0),
    ];

    // --- MaxRS through the engine ----------------------------------------------
    // Where should we center a 6 x 6 service area to cover the most weight?
    // The engine picks the execution strategy from N, the memory budget and
    // the core count; six objects obviously stay in memory.
    let size = RectSize::square(6.0);
    let engine = MaxRsEngine::new();
    let run = engine.run(&objects, &Query::max_rs(size))?;
    let best = *run.answer.as_max_rs().expect("MaxRS answer");
    println!(
        "[engine    ] best 6x6 rectangle center: {} covering weight {} (strategy: {})",
        best.center,
        best.total_weight,
        run.strategy.name()
    );

    // --- MaxRS, in memory -----------------------------------------------------
    // The same sweep, invoked directly.
    let in_memory = max_rs_in_memory(&objects, size);
    println!(
        "[in-memory ] best 6x6 rectangle center: {} covering weight {}",
        in_memory.center, in_memory.total_weight
    );
    assert_eq!(best.total_weight, in_memory.total_weight);

    // --- MaxRS, external memory -------------------------------------------------
    // The same query through ExactMaxRS against a simulated disk: identical
    // answer, and we can inspect how many blocks it transferred.
    let ctx = EmContext::new(EmConfig::paper_synthetic());
    let external = exact_max_rs_from_objects(&ctx, &objects, size, &ExactMaxRsOptions::default())?;
    println!(
        "[ExactMaxRS] best 6x6 rectangle center: {} covering weight {} ({} block I/Os)",
        external.center,
        external.total_weight,
        ctx.stats().total()
    );
    assert_eq!(in_memory.total_weight, external.total_weight);

    // --- MaxCRS (circular range), approximate ---------------------------------
    let diameter = 6.0;
    let run = engine.run(&objects, &Query::approx_max_crs(diameter))?;
    let circle = run.answer.as_max_crs().expect("MaxCRS answer");
    println!(
        "[ApproxMaxCRS] best circle (d={diameter}) center: {} covering weight {}",
        circle.center, circle.total_weight
    );

    Ok(())
}
