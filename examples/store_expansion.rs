//! Store expansion planning with the future-work extensions of the paper:
//! MaxkRS (open several stores at once) and MinRS (find the least-served spot
//! inside a district) — asked of one [`PreparedDataset`] as a single
//! **batch**, so the customer file is loaded once and the questions sharing
//! the delivery-area size share one sweep pass too.
//!
//! ```text
//! cargo run --release --example store_expansion
//! ```
//!
//! [`PreparedDataset`]: maxrs::PreparedDataset

use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::geometry::Rect;
use maxrs::{MaxRsEngine, Query, QueryBatch, RectSize};

fn main() {
    // Customer locations in a metropolitan area.
    let customers = Dataset::generate(DatasetKind::Ne, 15_000, 31);
    let delivery = RectSize::new(25_000.0, 25_000.0); // 25 km x 25 km service area
    println!(
        "{} customers, service area {} x {} m",
        customers.len(),
        delivery.width,
        delivery.height
    );

    // One engine answers every variant below; it auto-selects the execution
    // strategy (in-memory vs. external, sequential vs. parallel) per query.
    // `prepare` loads the customers into an external-memory context once;
    // the whole batch below reuses that file.
    let engine = MaxRsEngine::new();
    let prepared = engine.prepare(&customers.objects).unwrap();
    println!(
        "prepared once: {} objects, external={}, preprocessing cost {}",
        prepared.len(),
        prepared.is_external(),
        prepared.prepare_io()
    );

    // The whole planning session as one batch: the MaxRS and MaxkRS
    // questions share the delivery-size sweep pass, MinRS gets its own
    // weight-negated pass over the downtown slab.
    let downtown = Rect::new(200_000.0, 800_000.0, 200_000.0, 800_000.0);
    let queries = [
        Query::max_rs(delivery),
        Query::top_k(delivery, 4),
        Query::min_rs(delivery, downtown),
    ];
    let plan = QueryBatch::new(&queries).unwrap();
    println!(
        "batch: {} queries in {} shared sweep passes",
        plan.len(),
        plan.num_groups()
    );
    let runs = prepared.run_planned(&plan).unwrap();

    // --- One store: plain MaxRS ------------------------------------------------
    let single = *runs[0].answer.as_max_rs().expect("rectangle answer");
    println!(
        "\n1 store : place at ({:.0}, {:.0}) -> {} customers served [{}, {}]",
        single.center.x,
        single.center.y,
        single.total_weight,
        runs[0].strategy.name(),
        runs[0].io,
    );

    // --- A chain of four stores: greedy MaxkRS ---------------------------------
    let chain = runs[1]
        .answer
        .placements()
        .expect("placement list")
        .to_vec();
    println!("\n4 stores (greedy MaxkRS, non-overlapping service areas):");
    let mut covered = 0.0;
    for (i, store) in chain.iter().enumerate() {
        covered += store.total_weight;
        println!(
            "  #{}: ({:>9.0}, {:>9.0}) -> {:>6} customers",
            i + 1,
            store.center.x,
            store.center.y,
            store.total_weight
        );
    }
    println!(
        "  total {:.0} customers ({:.1}% of the city)",
        covered,
        100.0 * covered / customers.total_weight()
    );
    assert!(covered >= single.total_weight);

    // --- Where is the most under-served spot downtown? MinRS -------------------
    let quietest = *runs[2].answer.as_max_rs().expect("rectangle answer");
    println!(
        "\nLeast-served location inside downtown: ({:.0}, {:.0}) with only {} customers in range",
        quietest.center.x, quietest.center.y, quietest.total_weight
    );
    assert!(quietest.total_weight <= single.total_weight);

    // The batch is pure optimization: every answer is bit-identical to the
    // per-query path.
    let check = prepared.run(&Query::max_rs(delivery)).unwrap();
    assert_eq!(check.answer, runs[0].answer);
}
