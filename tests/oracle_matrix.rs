//! The oracle matrix: every execution path against the in-memory references,
//! for all four query variants.
//!
//! Paths: one-shot external runs (sequential, and parallel with a buffer
//! that really admits two workers), a prepared batch, a sharded dataset
//! (K = 3), a delta dataset after compaction, and an in-process cluster.
//! The data is Gaussian, so the MinRS domains' corners fall in sparse
//! regions where whole sub-slabs are empty — where a sweep's slab sentinel
//! can win and a max-region must still end at the next arrangement
//! breakpoint.  Besides equality with the reference, every MaxRS and MinRS
//! answer must attain its weight at its center, and its region's `x_hi` must
//! be the next arrangement breakpoint after its `x_lo` (see
//! [`check_region`]).

use std::sync::Arc;
use std::time::Duration;

use maxrs::cluster::{partition_objects, ClusterConfig, ClusterCoordinator, InProcessTransport};
use maxrs::cluster::{ShardServer, Transport};
use maxrs::core::{rect_objective, Event};
use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::{
    approx_max_crs_in_memory, max_k_rs_in_memory, max_rs_in_memory, min_rs_in_memory, DeltaDataset,
    DeltaOptions, EmConfig, EngineOptions, ExactMaxRsOptions, ExecutionStrategy, Interval,
    MaxRsEngine, MaxRsResult, Query, QueryAnswer, QueryRun, Rect, RectSize, ShardLayout,
    WeightedPoint,
};

const EXTENT: f64 = 1e6;
const BLOCK: usize = 1024;

fn engine(buffer_blocks: usize, parallelism: usize, force: ExecutionStrategy) -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: EmConfig::new(BLOCK, buffer_blocks * BLOCK).unwrap(),
        exact: ExactMaxRsOptions {
            parallelism,
            ..Default::default()
        },
        force_strategy: Some(force),
    })
}

fn queries() -> Vec<Query> {
    let domains = [
        Rect::new(0.05 * EXTENT, 0.3 * EXTENT, 0.05 * EXTENT, 0.3 * EXTENT),
        Rect::new(0.25 * EXTENT, 0.75 * EXTENT, 0.25 * EXTENT, 0.75 * EXTENT),
        Rect::new(0.6 * EXTENT, 0.95 * EXTENT, 0.1 * EXTENT, 0.45 * EXTENT),
    ];
    let mut queries = Vec::new();
    for side in [2_000.0, 10_000.0] {
        let size = RectSize::square(side);
        queries.push(Query::max_rs(size));
        queries.push(Query::top_k(size, 3));
        queries.push(Query::approx_max_crs(side));
        queries.extend(domains.iter().map(|&d| Query::min_rs(size, d)));
    }
    queries
}

fn reference(objects: &[WeightedPoint], query: &Query) -> QueryAnswer {
    match *query {
        Query::MaxRs { size } => QueryAnswer::MaxRs(max_rs_in_memory(objects, size)),
        Query::TopK { size, k } => QueryAnswer::TopK(max_k_rs_in_memory(objects, size, k)),
        Query::MinRs { size, domain } => {
            QueryAnswer::MinRs(min_rs_in_memory(objects, size, domain))
        }
        Query::ApproxMaxCrs { diameter, .. } => {
            let sigma = query.sigma_fraction().unwrap();
            QueryAnswer::MaxCrs(approx_max_crs_in_memory(objects, diameter, sigma))
        }
    }
}

/// The smallest edge of a rectangle clipped to `slab` strictly after `x`, or
/// the slab's upper bound: the in-memory arrangement's next breakpoint.
fn next_breakpoint(objects: &[WeightedPoint], size: RectSize, slab: Interval, x: f64) -> f64 {
    let mut best = if slab.hi > x { slab.hi } else { f64::INFINITY };
    for o in objects {
        if let Some(r) = o.to_rect(size).clip_x(&slab) {
            for edge in [r.x_lo, r.x_hi] {
                if edge > x && edge < best {
                    best = edge;
                }
            }
        }
    }
    best
}

/// A canonical max-region attains its weight at its center and ends at the
/// next breakpoint after its start — unless it is the whole root slab, the
/// MinRS strip below every rectangle, where no breakpoint splits the weight.
fn check_region(
    objects: &[WeightedPoint],
    size: RectSize,
    slab: Interval,
    r: &MaxRsResult,
) -> Result<(), String> {
    let attained = rect_objective(objects, r.center, size);
    if attained != r.total_weight {
        return Err(format!(
            "center attains {attained}, reported {}",
            r.total_weight
        ));
    }
    let whole_slab = r.region.x_lo == slab.lo && r.region.x_hi == slab.hi;
    let hi = next_breakpoint(objects, size, slab, r.region.x_lo);
    if r.region.x_hi != hi && !whole_slab {
        return Err(format!(
            "x_hi {} is not the next breakpoint {hi} after x_lo {}",
            r.region.x_hi, r.region.x_lo
        ));
    }
    Ok(())
}

fn check(objects: &[WeightedPoint], query: &Query, answer: &QueryAnswer) -> Result<(), String> {
    let expected = reference(objects, query);
    if *answer != expected {
        return Err(format!("answer {answer:?} != reference {expected:?}"));
    }
    match (*query, answer) {
        (Query::MaxRs { size }, QueryAnswer::MaxRs(r)) => {
            check_region(objects, size, Interval::UNBOUNDED, r)
        }
        (Query::MinRs { size, domain }, QueryAnswer::MinRs(r)) => {
            check_region(objects, size, Interval::new(domain.x_lo, domain.x_hi), r)
        }
        _ => Ok(()),
    }
}

fn cluster(opts: EngineOptions, objects: &[WeightedPoint]) -> ClusterCoordinator {
    let (boundaries, parts) = partition_objects(objects, 3, 8192);
    let transports: Vec<Box<dyn Transport>> = parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let mut server = ShardServer::new(opts, boundaries.clone());
            server.host(i, part).unwrap();
            Box::new(InProcessTransport::new(format!("srv{i}"), Arc::new(server)))
                as Box<dyn Transport>
        })
        .collect();
    let config = ClusterConfig {
        backoff: Duration::ZERO,
        ..Default::default()
    };
    ClusterCoordinator::connect(opts, config, transports).unwrap()
}

/// A delta dataset holding `objects` after a compaction that also dropped a
/// batch of inserted-then-deleted decoys.
fn compacted_delta(engine: &MaxRsEngine, objects: &[WeightedPoint]) -> DeltaDataset {
    let mut delta = DeltaDataset::new(engine, DeltaOptions::default()).unwrap();
    let n = objects.len() as u64;
    let mut events: Vec<Event> = objects
        .iter()
        .enumerate()
        .map(|(i, &object)| Event::Insert {
            id: i as u64,
            object,
            at: 0.0,
        })
        .collect();
    for (i, o) in objects.iter().enumerate().step_by(7) {
        let decoy = WeightedPoint::unit(EXTENT - o.point.x, o.point.y);
        events.push(Event::Insert {
            id: n + i as u64,
            object: decoy,
            at: 1.0,
        });
    }
    delta.apply(&events).unwrap();
    delta.compact().unwrap();
    let deletes: Vec<Event> = (0..objects.len())
        .step_by(7)
        .map(|i| Event::Delete {
            id: n + i as u64,
            at: 2.0,
        })
        .collect();
    delta.apply(&deletes).unwrap();
    delta.compact().unwrap();
    delta
}

#[test]
fn every_path_matches_the_in_memory_references() {
    let queries = queries();
    let seq = engine(8, 1, ExecutionStrategy::ExternalSequential);
    let par = engine(16, 2, ExecutionStrategy::ExternalParallel);
    let mut wrong = Vec::new();
    let mut checked = 0usize;
    for (n, seeds) in [(1_000usize, 1..=3u64), (3_000, 1..=2)] {
        for seed in seeds {
            let objects = Dataset::generate(DatasetKind::Gaussian, n, seed).objects;
            let mut paths: Vec<(&str, Vec<QueryRun>)> = Vec::new();
            paths.push((
                "em-seq",
                queries
                    .iter()
                    .map(|q| seq.run(&objects, q).unwrap())
                    .collect(),
            ));
            let par_runs: Vec<QueryRun> = queries
                .iter()
                .map(|q| par.run(&objects, q).unwrap())
                .collect();
            assert!(
                par_runs.iter().all(|r| r.workers > 1),
                "em-par must run more than one worker"
            );
            paths.push(("em-par", par_runs));
            paths.push((
                "prepared batch",
                seq.prepare(&objects).unwrap().run_batch(&queries).unwrap(),
            ));
            paths.push((
                "sharded K=3",
                seq.prepare_sharded(&objects, &ShardLayout::new(3))
                    .unwrap()
                    .run_batch(&queries)
                    .unwrap(),
            ));
            paths.push((
                "delta after compaction",
                compacted_delta(&seq, &objects).run_batch(&queries).unwrap(),
            ));
            paths.push((
                "cluster",
                cluster(*seq.options(), &objects)
                    .run_batch(&queries)
                    .unwrap(),
            ));
            for (path, runs) in &paths {
                for (query, run) in queries.iter().zip(runs) {
                    checked += 1;
                    if let Err(e) = check(&objects, query, &run.answer) {
                        wrong.push(format!("n={n} seed={seed} {path} {query:?}: {e}"));
                    }
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {checked} checks wrong:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
