//! The serving layer's correctness contract: answers returned through the
//! concurrent micro-batching server are **bit-identical** to sequential
//! [`PreparedDataset::run`] calls on the same datasets — under ≥ 8 racing
//! client threads submitting interleaved mixed-variant queries, on both
//! storage backends, over pseudo-random, tie-heavy and all-zero-weight data.
//!
//! Weights are integer-valued throughout, so shared-sweep accumulation is
//! associative and the bit-identical guarantee of [`maxrs_core::batch`]
//! applies regardless of how the scheduler groups strangers' queries.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use maxrs_core::{EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query, QueryAnswer};
use maxrs_em::{EmConfig, StorageBackend};
use maxrs_geometry::{Rect, RectSize, WeightedPoint};
use maxrs_serve::{DatasetRegistry, MaxRsServer, OverloadPolicy, ServeConfig};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 12;

fn pseudo_random_objects(n: usize, seed: u64, extent: f64) -> Vec<WeightedPoint> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            WeightedPoint::at(
                next() * extent,
                next() * extent,
                1.0 + (next() * 4.0).floor(),
            )
        })
        .collect()
}

/// Coordinates snapped to a coarse grid (heavy x/y ties) with a zero weight
/// every fifth object: the inputs where tie-breaking actually matters.
fn tie_heavy_objects(n: usize, seed: u64) -> Vec<WeightedPoint> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let x = (next() * 40.0).floor() * 25.0;
            let y = (next() * 40.0).floor() * 25.0;
            let w = if i % 5 == 0 {
                0.0
            } else {
                1.0 + (next() * 3.0).floor()
            };
            WeightedPoint::at(x, y, w)
        })
        .collect()
}

/// A small-buffer engine under which a few thousand objects are genuinely
/// external, on the given backend.
fn external_engine(backend: StorageBackend) -> MaxRsEngine {
    MaxRsEngine::with_options(EngineOptions {
        em_config: EmConfig::new(512, 32 * 512).unwrap().with_backend(backend),
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    })
}

/// The mixed-variant query pool every client draws from: all four variants,
/// two rectangle sizes, two MinRS domains sharing an x-slab.
fn query_pool(extent: f64) -> Vec<Query> {
    let size = RectSize::square(0.12 * extent);
    let other = RectSize::square(0.26 * extent);
    let domain = Rect::new(0.1 * extent, 0.9 * extent, 0.1 * extent, 0.9 * extent);
    let narrow = Rect::new(0.1 * extent, 0.9 * extent, 0.3 * extent, 0.6 * extent);
    vec![
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::approx_max_crs(size.width),
        Query::min_rs(size, domain),
        Query::max_rs(other),
        Query::min_rs(size, narrow),
        Query::top_k(size, 1),
    ]
}

/// One client's deterministic workload: dataset ids and queries interleaved
/// differently per client, with the expected answer computed sequentially
/// through [`PreparedDataset::run`] before the server ever sees a query.
type Workload = Vec<(String, Query, QueryAnswer)>;

fn build_workloads(registry: &DatasetRegistry, datasets: &[(&str, f64)]) -> Vec<Workload> {
    (0..CLIENTS)
        .map(|client| {
            (0..QUERIES_PER_CLIENT)
                .map(|j| {
                    let (id, extent) = datasets[(client + j) % datasets.len()];
                    let pool = query_pool(extent);
                    let query = pool[(client * 3 + j * 5) % pool.len()];
                    let expected = registry.get(id).unwrap().run(&query).unwrap().answer;
                    (id.to_string(), query, expected)
                })
                .collect()
        })
        .collect()
}

/// Runs the full workload through a server and checks every response against
/// the sequential expectation, bit for bit.
fn assert_concurrent_matches_sequential(
    registry: Arc<DatasetRegistry>,
    workloads: Vec<Workload>,
    config: ServeConfig,
    tag: &str,
) {
    let total: u64 = workloads.iter().map(|w| w.len() as u64).sum();
    let server = Arc::new(MaxRsServer::start(registry, config).unwrap());
    let barrier = Arc::new(Barrier::new(workloads.len()));
    let clients: Vec<_> = workloads
        .into_iter()
        .enumerate()
        .map(|(client, workload)| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Submit the whole workload first so queries from different
                // clients genuinely coexist in the batching window, then
                // collect the replies.
                let tickets: Vec<_> = workload
                    .iter()
                    .map(|(id, query, _)| server.submit(id, *query).unwrap())
                    .collect();
                for (ticket, (id, query, expected)) in tickets.into_iter().zip(&workload) {
                    let response = ticket.wait().unwrap();
                    assert_eq!(
                        &response.query, query,
                        "client {client}: response wired to the wrong query"
                    );
                    assert_eq!(
                        &response.run.answer,
                        expected,
                        "client {client}: {} on {id} diverged from sequential run",
                        query.name()
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.submitted, total, "{tag}: admissions");
    assert_eq!(stats.completed, total, "{tag}: every query answered");
    assert_eq!(stats.shed, 0, "{tag}: nothing shed at this capacity");
    assert_eq!(
        stats.batched_queries, total,
        "{tag}: every admitted query rode exactly one batch"
    );
    server.shutdown();
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        window: Duration::from_millis(3),
        max_batch: 8,
        workers: 3,
        queue_capacity: CLIENTS * QUERIES_PER_CLIENT,
        overload: OverloadPolicy::Block,
    }
}

#[test]
fn concurrent_answers_are_bit_identical_on_both_backends() {
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let registry = Arc::new(DatasetRegistry::new(external_engine(backend)));
        let datasets: [(&str, f64); 2] = [("random", 1000.0), ("ties", 1000.0)];
        registry
            .insert("random", &pseudo_random_objects(2500, 11, 1000.0))
            .unwrap();
        registry
            .insert("ties", &tie_heavy_objects(2000, 7))
            .unwrap();
        assert!(registry.get("random").unwrap().is_external());

        let workloads = build_workloads(&registry, &datasets);
        assert_concurrent_matches_sequential(registry, workloads, serve_config(), backend.name());
    }
}

#[test]
fn concurrent_answers_are_bit_identical_on_zero_weight_data() {
    // All-zero weights: MaxRS reports a zero-weight cell and top-k cuts off
    // before its first round; the served answers must agree bit for bit.
    let zeros: Vec<WeightedPoint> = pseudo_random_objects(1500, 3, 500.0)
        .into_iter()
        .map(|o| WeightedPoint::at(o.point.x, o.point.y, 0.0))
        .collect();
    let registry = Arc::new(DatasetRegistry::new(external_engine(StorageBackend::Sim)));
    registry.insert("zeros", &zeros).unwrap();

    let workloads = build_workloads(&registry, &[("zeros", 500.0)]);
    let sample = workloads[0][0].2.clone();
    assert_concurrent_matches_sequential(registry, workloads, serve_config(), "zero-weight");
    // Sanity: the expectation itself is the degenerate zero-weight answer,
    // so the equality above was not vacuous about tie handling.
    assert_eq!(sample.best_weight(), 0.0);
}

#[test]
fn concurrent_updates_serve_exactly_one_of_the_legal_snapshots() {
    use maxrs_core::{DeltaDataset, DeltaOptions, Event};

    // Clients race a writer that streams update batches into the same
    // dataset id.  The update path swaps immutable snapshots, so the only
    // legal replies for a query are its answers on the snapshot sequence S0
    // (seed), S1, … Sk (after batch k) — computed here by an independent
    // sequential replay.  Every reply must match one of them bit for bit;
    // none may be lost or torn.
    let backend = StorageBackend::Sim;
    let options = DeltaOptions::default();
    let seed_events: Vec<Event> = pseudo_random_objects(1500, 23, 1000.0)
        .iter()
        .enumerate()
        .map(|(i, o)| Event::insert(i as u64, o.point.x, o.point.y, o.weight, i as f64))
        .collect();
    let batches: Vec<Vec<Event>> = (0..6u64)
        .map(|b| {
            let t0 = 10_000.0 + 1000.0 * b as f64;
            let mut batch: Vec<Event> = (0..60)
                .map(|i| Event::delete(b * 60 + i, t0 + i as f64))
                .collect();
            batch.extend(
                pseudo_random_objects(60, 100 + b, 1000.0)
                    .iter()
                    .enumerate()
                    .map(|(i, o)| {
                        let id = 10_000 + b * 60 + i as u64;
                        Event::insert(id, o.point.x, o.point.y, o.weight, t0 + 100.0 + i as f64)
                    }),
            );
            batch
        })
        .collect();

    // The legal answer per query and checkpoint, by sequential replay.
    let pool = [
        Query::max_rs(RectSize::square(120.0)),
        Query::top_k(RectSize::square(120.0), 2),
        Query::min_rs(
            RectSize::square(120.0),
            Rect::new(100.0, 900.0, 100.0, 900.0),
        ),
    ];
    let engine = external_engine(backend);
    let mut replay = DeltaDataset::new(&engine, options).unwrap();
    replay.apply(&seed_events).unwrap();
    let mut legal: Vec<Vec<QueryAnswer>> =
        vec![pool.iter().map(|q| replay.run(q).unwrap().answer).collect()];
    for batch in &batches {
        replay.apply(batch).unwrap();
        legal.push(pool.iter().map(|q| replay.run(q).unwrap().answer).collect());
    }

    let registry = Arc::new(DatasetRegistry::new(external_engine(backend)));
    registry
        .insert_dynamic("live", &seed_events, options)
        .unwrap();
    let server = Arc::new(MaxRsServer::start(Arc::clone(&registry), serve_config()).unwrap());

    let writer = {
        let registry = Arc::clone(&registry);
        let batches = batches.clone();
        std::thread::spawn(move || {
            for batch in &batches {
                registry.apply("live", batch).unwrap();
            }
        })
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let server = Arc::clone(&server);
            let legal = legal.clone();
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                for j in 0..QUERIES_PER_CLIENT {
                    let qi = (client + j) % pool.len();
                    let response = server.submit("live", pool[qi]).unwrap().wait().unwrap();
                    let matched = legal
                        .iter()
                        .filter(|c| c[qi] == response.run.answer)
                        .count();
                    assert!(
                        matched > 0,
                        "client {client}: {} reply matches no legal snapshot",
                        pool[qi].name()
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    writer.join().unwrap();

    // After the writer finishes, the served snapshot is exactly S_final.
    for (qi, query) in pool.iter().enumerate() {
        let response = server.submit("live", *query).unwrap().wait().unwrap();
        assert_eq!(
            response.run.answer,
            legal.last().unwrap()[qi],
            "quiescent reply must come from the final snapshot"
        );
    }
    let stats = server.stats();
    let total = (CLIENTS * QUERIES_PER_CLIENT + pool.len()) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total, "no reply lost under updates");
    server.shutdown();
}

#[test]
fn pass_through_server_matches_sequential_too() {
    // max_batch = 1 degenerates to per-query execution through the same
    // scheduler machinery: a cheap cross-check that batching itself is the
    // only thing the window/threshold knobs change.
    let registry = Arc::new(DatasetRegistry::new(external_engine(StorageBackend::Sim)));
    registry
        .insert("random", &pseudo_random_objects(2000, 19, 1000.0))
        .unwrap();
    let workloads = build_workloads(&registry, &[("random", 1000.0)]);
    let config = ServeConfig {
        max_batch: 1,
        ..serve_config()
    };
    assert_concurrent_matches_sequential(registry, workloads, config, "pass-through");
}

#[test]
fn size_trigger_puts_several_queries_into_one_batch() {
    // The window outlasts the test, so only the size trigger can flush: 16
    // submissions from one thread before the first wait leave the batcher as
    // exactly two full batches, and each batch shares sweep passes among its
    // queries.
    let registry = Arc::new(DatasetRegistry::new(external_engine(StorageBackend::Sim)));
    registry
        .insert("random", &pseudo_random_objects(2000, 29, 1000.0))
        .unwrap();
    let pool = query_pool(1000.0);
    let queries: Vec<Query> = (0..16).map(|j| pool[j % pool.len()]).collect();
    let dataset = registry.get("random").unwrap();
    let expected: Vec<QueryAnswer> = queries
        .iter()
        .map(|q| dataset.run(q).unwrap().answer)
        .collect();
    let config = ServeConfig {
        window: Duration::from_secs(3600),
        max_batch: 8,
        workers: 2,
        queue_capacity: queries.len(),
        overload: OverloadPolicy::Block,
    };
    let server = MaxRsServer::start(registry, config).unwrap();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit("random", *q).unwrap())
        .collect();
    for ((ticket, query), expected) in tickets.into_iter().zip(&queries).zip(&expected) {
        assert_eq!(
            &ticket.wait().unwrap().run.answer,
            expected,
            "{} diverged from PreparedDataset::run",
            query.name()
        );
    }

    let stats = server.stats();
    assert_eq!(stats.batches, 2, "two size-triggered flushes");
    assert_eq!(stats.mean_batch_size(), 8.0);
    assert!(
        stats.sweep_groups < stats.batched_queries,
        "{} sweep groups for {} batched queries: no query shared a pass",
        stats.sweep_groups,
        stats.batched_queries
    );
    server.shutdown();
}
