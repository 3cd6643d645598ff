//! The oracle matrix: every execution path against the in-memory references,
//! for all four query variants.
//!
//! Paths: one-shot external runs (sequential, and parallel with a buffer
//! that really admits two workers), a prepared batch, a delta dataset whose
//! inserts included since-deleted decoys, and an in-process cluster of three
//! shards, hosted on one server and on three.
//! The data is Gaussian, so the MinRS domains' corners fall in sparse
//! regions where whole sub-slabs are empty — where a sweep's slab sentinel
//! can win and a max-region must still end at the next arrangement
//! breakpoint.  Besides equality with the reference, every MaxRS and MinRS
//! answer must attain its weight at its center, and its region's `x_hi` must
//! be the next arrangement breakpoint after its `x_lo` (see
//! [`check_region`]).  A second test runs top-k rows built to stress the
//! splice of later rounds into earlier rounds' slab-files (see
//! [`top_k_splices_match_the_greedy_reference`]).  A third feeds every path
//! the same objects in three arrival orders: no stage of the sweep reads the
//! order of its object file, so no path sorts the objects, and the answers
//! may not depend on it (see
//! [`every_path_answers_identically_in_any_object_order`]).

use std::sync::Arc;
use std::time::Duration;

use maxrs::cluster::{partition_objects, ClusterConfig, ClusterCoordinator, InProcessTransport};
use maxrs::cluster::{ShardServer, Transport};
use maxrs::core::{rect_objective, Event};
use maxrs::datagen::{Dataset, DatasetKind};
use maxrs::{
    approx_max_crs_in_memory, exact_max_rs, load_objects, max_k_rs_in_memory, max_rs_in_memory,
    min_rs_in_memory, DeltaDataset, DeltaOptions, EmConfig, EmContext, EngineOptions,
    ExactMaxRsOptions, ExecutionStrategy, Interval, MaxRsEngine, MaxRsResult, Query, QueryAnswer,
    QueryRun, Rect, RectSize, StorageBackend, WeightedPoint,
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

/// An in-process cluster of `objects` split into three shards, hosted
/// round-robin on `servers` servers.  On one server no piece is exported:
/// round 2 re-derives every piece from the server's own shards.
fn cluster(opts: EngineOptions, objects: &[WeightedPoint], servers: usize) -> ClusterCoordinator {
    let (boundaries, parts) = partition_objects(objects, 3, 8192);
    let mut hosts: Vec<ShardServer> = (0..servers)
        .map(|_| ShardServer::new(opts, boundaries.clone()))
        .collect();
    for (i, part) in parts.iter().enumerate() {
        hosts[i % servers].host(i, part).unwrap();
    }
    let transports: Vec<Box<dyn Transport>> = hosts
        .into_iter()
        .enumerate()
        .map(|(i, server)| {
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

/// A delta dataset holding `objects` in their order, after heavy decoys
/// were inserted among them and deleted again.
fn delta_with_deleted_decoys(engine: &MaxRsEngine, objects: &[WeightedPoint]) -> DeltaDataset {
    let mut delta = DeltaDataset::new(engine, DeltaOptions::default()).unwrap();
    let n = objects.len();
    let insert = |id: usize, object: WeightedPoint| Event::Insert {
        id: id as u64,
        object,
        at: 0.0,
    };
    let decoys = (0..n).step_by(9);
    let mut events: Vec<Event> = (0..n / 2).map(|i| insert(i, objects[i])).collect();
    events.extend(decoys.clone().map(|i| {
        let o = objects[i].point;
        insert(n + i, WeightedPoint::at(o.y, o.x, 5.0))
    }));
    events.extend((n / 2..n).map(|i| insert(i, objects[i])));
    events.extend(decoys.map(|i| Event::Delete {
        id: (n + i) as u64,
        at: 1.0,
    }));
    delta.apply(&events).unwrap();
    assert_eq!(delta.len(), n as u64);
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
                "one-server cluster",
                cluster(*seq.options(), &objects, 1)
                    .run_batch(&queries)
                    .unwrap(),
            ));
            paths.push((
                "delta",
                delta_with_deleted_decoys(&seq, &objects)
                    .run_batch(&queries)
                    .unwrap(),
            ));
            paths.push((
                "cluster",
                cluster(*seq.options(), &objects, 3)
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

/// What a greedy top-k sequence does to the y-bands of its later rounds:
/// round `r + 1` re-sweeps only `B_r = [R_r.y_lo − h/2, R_r.y_hi + h/2]` of
/// the `r`-th pick `R_r`.
#[derive(Debug, Default)]
struct Bands {
    /// Consecutive picks lie within one rectangle height in y, so their
    /// bands overlap.
    overlap: bool,
    /// Some band holds every rectangle edge left after its pick.
    covers_all: bool,
    /// Some band meets no rectangle left after its pick: its sweep is empty.
    empty: bool,
}

fn bands(objects: &[WeightedPoint], size: RectSize, picks: &[MaxRsResult]) -> Bands {
    let mut out = Bands::default();
    let mut left = objects.to_vec();
    for (r, pick) in picks.iter().enumerate().take(picks.len().saturating_sub(1)) {
        let chosen = Rect::centered_at(pick.center, size);
        out.overlap |= (picks[r + 1].center.y - pick.center.y).abs() < size.height;
        let half = size.height / 2.0;
        let band = Interval::new(chosen.y_lo - half, chosen.y_hi + half);
        left.retain(|o| !chosen.contains_open(&o.point));
        let rects: Vec<Rect> = left.iter().map(|o| o.to_rect(size)).collect();
        out.covers_all |= rects
            .iter()
            .all(|rect| band.contains_interval(&rect.y_interval()));
        out.empty |= !rects.iter().any(|rect| rect.y_interval().intersects(&band));
    }
    out
}

/// Top-k over data built so the later rounds' bands overlap, cover every
/// strip, tie on an integer lattice, or hold only suppressed objects (an
/// empty band sweep), on every path that splices — prepared on both storage
/// backends, parallel, delta, and clustered on one server and on three —
/// against the in-memory greedy.  Each row first asserts, on the reference's
/// picks, that it really exercises its case.
#[test]
fn top_k_splices_match_the_greedy_reference() {
    let squash = |objects: Vec<WeightedPoint>, factor: f64| -> Vec<WeightedPoint> {
        objects
            .into_iter()
            .map(|o| WeightedPoint::at(o.point.x, o.point.y * factor, o.weight))
            .collect()
    };
    // A thin horizontal strip of uniform data: every pick sits within one
    // rectangle height of the previous one.
    let strip = squash(
        Dataset::generate(DatasetKind::Uniform, 1_500, 4).objects,
        0.02,
    );
    // Columns sharing one set of y under rectangles taller than the data: a
    // pick spans its column's every y, so its band holds every strip and
    // the splice takes every tuple from the band sweep.
    let columns: Vec<WeightedPoint> = (0..1_000)
        .map(|i| {
            let (c, j) = (i / 25, i % 25);
            let x = 10_000.0 * c as f64 + (c * 389 % 1_000) as f64;
            WeightedPoint::at(x, 40.0 * j as f64, 1.0 + (c * 7 % 5) as f64)
        })
        .collect();
    // An integer lattice whose rectangle edges fall on lattice lines.
    let lattice: Vec<WeightedPoint> = (0..900)
        .map(|i| {
            WeightedPoint::at(
                10.0 * (i % 30) as f64,
                10.0 * (i / 30) as f64,
                1.0 + (i % 3) as f64,
            )
        })
        .collect();
    // Clusters far apart in y, each inside one rectangle: a pick's band
    // holds only the objects it suppresses.
    let clusters: Vec<WeightedPoint> = (0..4)
        .flat_map(|c| {
            (0..400 - 80 * c).map(move |i| {
                let (x0, y0) = (2.0e5 * c as f64, 1.0e5 * c as f64);
                WeightedPoint::unit(x0 + (i * 37 % 1000) as f64, y0 + (i * 53 % 1000) as f64)
            })
        })
        .collect();

    type Case = fn(&Bands) -> bool;
    let rows: [(&str, Vec<WeightedPoint>, RectSize, usize, Case); 4] = [
        (
            "overlapping bands",
            strip,
            RectSize::square(10_000.0),
            6,
            |b| b.overlap && !b.covers_all,
        ),
        (
            "band covers every strip",
            columns,
            RectSize::new(5_000.0, EXTENT),
            5,
            |b| b.covers_all,
        ),
        ("lattice ties", lattice, RectSize::square(20.0), 8, |b| {
            b.overlap
        }),
        ("empty band", clusters, RectSize::square(2_000.0), 5, |b| {
            b.empty
        }),
    ];

    let seq = engine(8, 1, ExecutionStrategy::ExternalSequential);
    let on = |backend| {
        MaxRsEngine::with_options(EngineOptions {
            em_config: seq.options().em_config.with_backend(backend),
            ..*seq.options()
        })
    };
    let (sim, fs) = (on(StorageBackend::Sim), on(StorageBackend::Fs));
    let par = engine(16, 2, ExecutionStrategy::ExternalParallel);
    let mut wrong = Vec::new();
    for (row, objects, size, k, case) in rows {
        let query = Query::top_k(size, k);
        let expected = reference(&objects, &query);
        let QueryAnswer::TopK(picks) = &expected else {
            unreachable!("a top-k reference")
        };
        assert!(picks.len() > 2, "{row}: only {} picks", picks.len());
        let shape = bands(&objects, size, picks);
        assert!(
            case(&shape),
            "{row}: the picks do not stress the splice: {shape:?}"
        );

        let par_run = par.run(&objects, &query).unwrap();
        assert!(
            par_run.workers > 1,
            "{row}: em-par must run more than one worker"
        );
        let runs = [
            (
                "prepared sim",
                sim.prepare(&objects).unwrap().run(&query).unwrap(),
            ),
            (
                "prepared fs",
                fs.prepare(&objects).unwrap().run(&query).unwrap(),
            ),
            ("em-par", par_run),
            (
                "delta",
                delta_with_deleted_decoys(&seq, &objects)
                    .run(&query)
                    .unwrap(),
            ),
            (
                "one-server cluster",
                cluster(*seq.options(), &objects, 1).run(&query).unwrap(),
            ),
            (
                "cluster",
                cluster(*seq.options(), &objects, 3).run(&query).unwrap(),
            ),
        ];
        for (path, run) in runs {
            if run.answer != expected {
                wrong.push(format!("{row} {path}: {:?} != {expected:?}", run.answer));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The three arrival orders: as generated, reversed, and a seeded
/// Fisher–Yates shuffle.
fn orders(objects: &[WeightedPoint]) -> [(&'static str, Vec<WeightedPoint>); 3] {
    let mut reversed = objects.to_vec();
    reversed.reverse();
    let mut shuffled = objects.to_vec();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..shuffled.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shuffled.swap(i, (state % (i as u64 + 1)) as usize);
    }
    [
        ("as generated", objects.to_vec()),
        ("reversed", reversed),
        ("shuffled", shuffled),
    ]
}

/// Runs every path over every order of `objects` and returns one line per
/// answer that differs from the reference over the objects as generated.
fn check_every_order(name: &str, objects: &[WeightedPoint], queries: &[Query]) -> Vec<String> {
    let seq = engine(8, 1, ExecutionStrategy::ExternalSequential);
    let fs = MaxRsEngine::with_options(EngineOptions {
        em_config: seq.options().em_config.with_backend(StorageBackend::Fs),
        ..*seq.options()
    });
    let expected: Vec<QueryAnswer> = queries.iter().map(|q| reference(objects, q)).collect();
    let mut wrong = Vec::new();
    for (order, ordered) in orders(objects) {
        let paths: [(&str, Vec<QueryRun>); 5] = [
            (
                "prepared sim",
                seq.prepare(&ordered).unwrap().run_batch(queries).unwrap(),
            ),
            (
                "prepared fs",
                fs.prepare(&ordered).unwrap().run_batch(queries).unwrap(),
            ),
            (
                "delta",
                delta_with_deleted_decoys(&seq, &ordered)
                    .run_batch(queries)
                    .unwrap(),
            ),
            (
                "one-server cluster",
                cluster(*seq.options(), &ordered, 1)
                    .run_batch(queries)
                    .unwrap(),
            ),
            (
                "cluster",
                cluster(*seq.options(), &ordered, 3)
                    .run_batch(queries)
                    .unwrap(),
            ),
        ];
        let ctx = EmContext::new(seq.options().em_config);
        let file = load_objects(&ctx, &ordered).unwrap();
        for (i, (query, want)) in queries.iter().zip(&expected).enumerate() {
            let mut answers: Vec<(&str, QueryAnswer)> = paths
                .iter()
                .map(|(path, runs)| (*path, runs[i].answer.clone()))
                .collect();
            if let Query::MaxRs { size } = *query {
                let one_shot = exact_max_rs(&ctx, &file, size, &ExactMaxRsOptions::sequential());
                answers.push(("exact_max_rs", QueryAnswer::MaxRs(one_shot.unwrap())));
            }
            for (path, answer) in answers {
                if answer != *want {
                    wrong.push(format!(
                        "{name} {order} {path} {query:?}: {answer:?} != {want:?}"
                    ));
                }
            }
        }
        ctx.delete_file(file).unwrap();
    }
    wrong
}

/// All four variants over one object set in three arrival orders, on the
/// one-shot `exact_max_rs` (MaxRS), prepared on both storage backends, a
/// delta whose inserts included since-deleted decoys, and the in-process
/// cluster on one server and on three.
/// Uniform points and an integer lattice with ties, both with integer
/// weights, so every sum is exact in any grouping and every answer must
/// equal the reference.
#[test]
fn every_path_answers_identically_in_any_object_order() {
    let uniform: Vec<WeightedPoint> = Dataset::generate(DatasetKind::Uniform, 1_500, 3)
        .objects
        .iter()
        .enumerate()
        .map(|(i, o)| WeightedPoint::at(o.point.x, o.point.y, (1 + i % 4) as f64))
        .collect();
    let size = RectSize::square(40_000.0);
    let mut wrong = check_every_order(
        "uniform",
        &uniform,
        &[
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::min_rs(
                size,
                Rect::new(0.2 * EXTENT, 0.6 * EXTENT, 0.3 * EXTENT, 0.7 * EXTENT),
            ),
            Query::approx_max_crs(40_000.0),
        ],
    );

    // A 30 × 30 lattice of spacing 10, every point twice over the 1,800
    // objects, with rectangle sides a multiple of the spacing: edges fall on
    // lattice lines and many placements tie.
    let lattice: Vec<WeightedPoint> = (0..1_800)
        .map(|i| {
            let j = i % 900;
            WeightedPoint::at(
                10.0 * (j % 30) as f64,
                10.0 * (j / 30) as f64,
                (1 + i % 3) as f64,
            )
        })
        .collect();
    let size = RectSize::square(20.0);
    wrong.extend(check_every_order(
        "lattice",
        &lattice,
        &[
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::min_rs(size, Rect::new(50.0, 200.0, 40.0, 250.0)),
            Query::approx_max_crs(20.0),
        ],
    ));
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
