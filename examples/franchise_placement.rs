//! Franchise placement: the paper's motivating example.
//!
//! "If we open, in an area with a grid shaped road network, a new pizza
//! franchise store that has a limited delivery range, it is important to
//! maximize the number of residents in a rectangular area around the pizza
//! store."
//!
//! This example generates a synthetic city (a dense NE-like population
//! surrogate), asks ExactMaxRS where to place a store with a 2 km x 2 km
//! delivery rectangle, compares against the two externalized plane-sweep
//! baselines the paper evaluates, and prints the I/O cost of each.
//!
//! ```text
//! cargo run --release --example franchise_placement
//! ```

use maxrs::baselines::{asb_tree_sweep, naive_sweep};
use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::{load_objects, EmConfig, EmContext, MaxRsEngine, Query, RectSize};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A city of 20,000 residences in a 1,000 km x 1,000 km space (the paper's
    // normalized 1M x 1M space, 1 unit = 1 m).
    let city = Dataset::generate(DatasetKind::Ne, 20_000, 7);
    println!(
        "city: {} residences, bounding box {}",
        city.len(),
        city.bounding_box().unwrap()
    );

    // Delivery range: 2 km x 2 km around the store.
    let delivery = RectSize::new(2_000.0, 2_000.0);

    // A modest machine: 4 KB blocks, 128 KB of buffer.
    let config = EmConfig::new(4096, 128 * 1024)?;

    // --- ExactMaxRS through the engine ------------------------------------------
    // The engine sees 20k objects against a 128 KB budget and routes the query
    // to the external distribution sweep (parallel if cores and buffer allow).
    let ctx = EmContext::new(config);
    let objects = load_objects(&ctx, &city.objects)?;
    ctx.reset_stats();
    let engine = MaxRsEngine::with_em_config(config);
    let run = engine.run_file(&ctx, &objects, &Query::max_rs(delivery))?;
    let best = *run.answer.as_max_rs().expect("MaxRS answer");
    let exact_io = run.io.total();
    println!(
        "ExactMaxRS : place the store at {} -> {} residences in range \
         ({} I/Os, strategy {}, {} worker(s))",
        best.center,
        best.total_weight,
        exact_io,
        run.strategy.name(),
        run.workers
    );

    // --- aSB-tree baseline ------------------------------------------------------
    let ctx = EmContext::new(config);
    let objects = load_objects(&ctx, &city.objects)?;
    ctx.reset_stats();
    let asb = asb_tree_sweep(&ctx, &objects, delivery)?;
    let asb_io = ctx.stats().total();
    println!(
        "aSB-tree   : same answer ({} residences), {} I/Os ({:.0}x more)",
        asb.total_weight,
        asb_io,
        asb_io as f64 / exact_io.max(1) as f64
    );

    // --- Naive plane sweep (on a smaller sample: it is quadratic) ---------------
    let sample = Dataset::generate(DatasetKind::Ne, 2_000, 7);
    let ctx = EmContext::new(config);
    let objects = load_objects(&ctx, &sample.objects)?;
    ctx.reset_stats();
    let naive = naive_sweep(&ctx, &objects, delivery)?;
    println!(
        "Naive sweep: on a 10x smaller sample it already needs {} I/Os (answer {})",
        ctx.stats().total(),
        naive.total_weight
    );

    assert_eq!(best.total_weight, asb.total_weight);
    Ok(())
}
