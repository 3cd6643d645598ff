//! The two serving workloads: one closed-loop client thread in rounds of
//! eight queries against a `MaxRsServer`, over a dynamic dataset with
//! writes (`serve-rw`) or over a two-server TCP cluster (`scale-out`).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maxrs_cluster::{
    partition_objects, serve_tcp, ClusterConfig, ClusterCoordinator, ShardServer, TcpServerHandle,
    TcpTransport, Transport,
};
use maxrs_core::{
    approx_max_crs_in_memory, max_k_rs_in_memory, max_rs_in_memory, min_rs_in_memory,
    CompactionPolicy, DeltaDataset, DeltaOptions, EngineOptions, Event, ExactMaxRsOptions,
    MaxRsEngine, Query, QueryAnswer, QueryBatch,
};
use maxrs_datagen::{event_stream, Dataset, DatasetKind, EventStreamConfig};
use maxrs_em::{EmConfig, StorageBackend};
use maxrs_geometry::{Rect, RectSize, WeightedPoint};
use maxrs_serve::{
    DatasetHandle, DatasetRegistry, MaxRsServer, OverloadPolicy, ServeConfig, ServedDataset,
};

use crate::instruments::{RpcCounters, TimedTransport};
use crate::report::{self, mean, mean_u64, median, peak_rss_mb, tail, Metrics, Outcome};
use crate::trace::{SpanIndex, Tracer};
use crate::{err, RunArgs, SETUP_REPEATS};

/// Rectangle sides of each round, from the paper's range.
const SIDES: [f64; 2] = [1_000.0, 5_000.0];
const TOP_K: usize = 3;

/// MaxRS, top-3, ApproxMaxCRS and MinRS at each side: four sweep groups
/// of eight queries, so the size trigger closes every batch identically.
fn round_queries() -> Vec<Query> {
    let domain = Rect::new(250_000.0, 750_000.0, 250_000.0, 750_000.0);
    let mut qs = Vec::new();
    for side in SIDES {
        let size = RectSize::square(side);
        qs.push(Query::max_rs(size));
        qs.push(Query::top_k(size, TOP_K));
        qs.push(Query::approx_max_crs(side));
        qs.push(Query::min_rs(size, domain));
    }
    qs
}

/// One engine worker: with two, a batch's sweep groups run concurrently on
/// one shared buffer pool, and which group evicts whose blocks depends on
/// thread timing, so `io_blocks_per_query` would not repeat exactly.
fn engine_options() -> EngineOptions {
    EngineOptions {
        em_config: EmConfig::paper_synthetic().with_backend(StorageBackend::Sim),
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..ExactMaxRsOptions::default()
        },
        force_strategy: None,
    }
}

/// One worker, batches closed by size: a round's eight queries always form
/// one batch.  The window only matters if a round ever submitted fewer.
fn serve_config() -> ServeConfig {
    ServeConfig {
        window: Duration::from_secs(5),
        max_batch: 8,
        workers: 1,
        queue_capacity: 64,
        overload: OverloadPolicy::Shed,
    }
}

/// What a run of client rounds measured.
#[derive(Default)]
struct Rounds {
    lat_ms: Vec<f64>,
    io: Vec<u64>,
    write_ms: Vec<f64>,
    round_ms: Vec<f64>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
}

/// Submits the round's queries at once and waits for every reply; returns
/// the `Debug` rendering of each answer (empty for a failed query).
fn serve_round(server: &MaxRsServer, id: &str, queries: &[Query], r: &mut Rounds) -> Vec<String> {
    let started = Instant::now();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| (Instant::now(), server.submit(id, *q)))
        .collect();
    let mut answers = Vec::with_capacity(queries.len());
    for (t, ticket) in tickets {
        r.attempted += 1;
        match ticket.and_then(|t| t.wait()) {
            Ok(resp) => {
                r.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r.io.push(resp.run.io.total());
                answers.push(format!("{:?}", resp.run.answer));
            }
            Err(e) => {
                eprintln!("query failed: {e}");
                r.failed += 1;
                answers.push(String::new());
            }
        }
    }
    r.round_ms.push(started.elapsed().as_secs_f64() * 1e3);
    answers
}

/// Traced-only numbers of the serving layers.
#[derive(Default)]
struct ServeLayers {
    plan_ms: Vec<f64>,
    groups_per_query: f64,
    exec_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
}

/// Plans the round's batch and re-runs it once on the same handle, outside
/// the round's span, to split execution from queueing.
fn rerun_round(
    tracer: &Tracer,
    handle: &DatasetHandle,
    queries: &[Query],
    round_ms: f64,
    layers: &mut ServeLayers,
    out: &mut Outcome,
) {
    let t = Instant::now();
    let (batch, _) = tracer.span("core.batch.plan", || QueryBatch::new(queries));
    layers.plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let batch = match batch {
        Ok(b) => b,
        Err(e) => return out.fail(format!("planning failed: {e}")),
    };
    layers.groups_per_query = batch.num_groups() as f64 / batch.len() as f64;
    let t = Instant::now();
    let (runs, _) = tracer.span("core.prepared.exec", || match &**handle {
        // The coordinator answers batch members one at a time; span each so
        // RPC time splits from the coordinator's own.
        ServedDataset::Cluster(c) => queries
            .iter()
            .map(|q| tracer.span("cluster.query", || c.run(q)).0)
            .collect::<Result<Vec<_>, _>>()
            .map_err(err),
        served => served.run_planned(&batch).map_err(err),
    });
    let exec = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = runs {
        out.fail(format!("re-run failed: {e}"));
    }
    layers.exec_ms.push(exec);
    layers.queue_wait_ms.push(round_ms - exec);
}

// ---- serve-rw ---------------------------------------------------------------

const PREFIX_EVENTS: usize = 80_000;
const EVENTS_PER_WRITE: usize = 200;
/// Six writes per round: with about 190 pending records per write, the
/// threshold below compacts on exactly every third write, so a run holds
/// enough compacting writes for the write tail to sit well inside that
/// mode and the write median well inside the other.
const WRITES_PER_ROUND: usize = 6;
const MAX_DELTA: u64 = 500;
/// Nominal wall time of one serve-rw round on a 2-vCPU host.
const RW_ROUND_SECONDS: f64 = 1.5;
/// Every seventh round keeps its snapshot for the answer check.
const CHECK_EVERY: usize = 7;
const DATASET: &str = "rw";

/// The benchmark's own copy of the registry's dynamic dataset, fed the
/// same events with compaction at the same points, to split a write into
/// apply, compaction and snapshot.
struct Mirror {
    delta: DeltaDataset,
    writes: u64,
    pending_sum: f64,
    snapshot_io: u64,
    compactions: u64,
}

impl Mirror {
    fn new(engine: &MaxRsEngine, prefix: &[Event]) -> Result<Self, String> {
        let options = DeltaOptions {
            policy: CompactionPolicy::Manual,
            window: None,
        };
        let mut delta = DeltaDataset::new(engine, options).map_err(err)?;
        delta.apply(prefix).map_err(err)?;
        if delta.delta_len() >= MAX_DELTA {
            delta.compact().map_err(err)?;
        }
        Ok(Mirror {
            delta,
            writes: 0,
            pending_sum: 0.0,
            snapshot_io: 0,
            compactions: 0,
        })
    }

    /// Applies one write, spanning its three stages.
    fn write(&mut self, tracer: &Tracer, events: &[Event]) -> Result<(), String> {
        tracer
            .span("core.delta.apply", || self.delta.apply(events))
            .0
            .map_err(err)?;
        self.writes += 1;
        self.pending_sum += self.delta.delta_len() as f64;
        if self.delta.delta_len() >= MAX_DELTA {
            tracer
                .span("core.delta.compact", || self.delta.compact())
                .0
                .map_err(err)?;
            self.compactions += 1;
        }
        let snapshot = tracer
            .span("core.delta.snapshot", || self.delta.snapshot())
            .0
            .map_err(err)?;
        self.snapshot_io += snapshot.prepare_io().total();
        Ok(())
    }
}

struct RwSetup {
    registry: Arc<DatasetRegistry>,
    server: MaxRsServer,
    /// The snapshot the set-up served first.
    handle: DatasetHandle,
}

fn rw_setup(engine: &MaxRsEngine, prefix: &[Event]) -> Result<RwSetup, String> {
    let registry = Arc::new(DatasetRegistry::new(engine.clone()));
    let options = DeltaOptions {
        policy: CompactionPolicy::DeltaThreshold {
            max_delta: MAX_DELTA,
        },
        window: None,
    };
    let handle = registry
        .insert_dynamic(DATASET, prefix, options)
        .map_err(err)?;
    let server = MaxRsServer::start(Arc::clone(&registry), serve_config()).map_err(err)?;
    Ok(RwSetup {
        registry,
        server,
        handle,
    })
}

pub fn run_serve_rw(args: &RunArgs) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let engine = MaxRsEngine::with_options(engine_options());
    let rounds = args.whole_units(RW_ROUND_SECONDS);
    let stream = EventStreamConfig {
        events: PREFIX_EVENTS + rounds * WRITES_PER_ROUND * EVENTS_PER_WRITE,
        ..EventStreamConfig::default()
    };
    let events = event_stream(&stream, args.seed);
    let (prefix, writes) = events.split_at(PREFIX_EVENTS);
    let queries = round_queries();

    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let s = rw_setup(&engine, prefix)?;
        setup_s.push(t.elapsed().as_secs_f64());
        s.server.shutdown();
    }
    let t = Instant::now();
    let setup = rw_setup(&engine, prefix)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let setup_io = setup.handle.prepare_io().total();
    let live_at_start = setup.handle.len();

    let mut out = Outcome::default();
    let mut kept: Vec<(DatasetHandle, Vec<String>)> = Vec::new();
    let mut plain = Rounds::default();
    let off = Tracer::new(false);
    rw_phase(
        &setup,
        writes,
        rounds,
        &queries,
        &off,
        None,
        &mut kept,
        &mut plain,
        &mut ServeLayers::default(),
        &mut out,
    );
    let rss = peak_rss_mb();
    let batch_size = setup.server.stats().mean_batch_size();
    setup.server.shutdown();

    // The traced phase replays the same writes on a fresh set-up, so it
    // runs on the same data as the untraced one.
    let mut traced = Rounds::default();
    let mut layers = ServeLayers::default();
    let mut traced_parts = None;
    if args.trace {
        let setup = rw_setup(&engine, prefix)?;
        let mut mirror = Mirror::new(&engine, prefix)?;
        rw_phase(
            &setup,
            writes,
            rounds,
            &queries,
            &tracer,
            Some(&mut mirror),
            &mut kept,
            &mut traced,
            &mut layers,
            &mut out,
        );
        traced_parts = Some((mirror, setup.server.stats()));
        setup.server.shutdown();
    }

    // Each kept round against `PreparedDataset::run` on the very snapshot
    // the server answered from.
    for (handle, answers) in &kept {
        for (q, answer) in queries.iter().zip(answers) {
            match handle.run(q) {
                Ok(run) if format!("{:?}", run.answer) == *answer => {}
                Ok(run) => {
                    eprintln!("wrong answer for {q:?}: {answer} != {:?}", run.answer);
                    out.failed += 1;
                }
                Err(e) => out.fail(format!("reference run of {q:?} failed: {e}")),
            }
        }
    }
    out.attempted = plain.attempted + traced.attempted;
    out.failed += plain.failed + traced.failed;

    let io_per_query = mean_u64(&plain.io);
    let (_, tail_pct) = tail(&plain.lat_ms);
    let (write_tail, write_pct) = tail(&plain.write_ms);
    let groups_per_query =
        QueryBatch::new(&queries).map_err(err)?.num_groups() as f64 / queries.len() as f64;
    if let Some((mirror, stats)) = &traced_parts {
        let m = &mut out.metrics;
        let idx = SpanIndex::new(tracer.spans());
        serve_layer_metrics(m, &layers, stats, &traced, &plain);
        let writes = mirror.writes.max(1) as f64;
        m.put(
            "core.delta.apply.ms",
            idx.self_ms("core.delta.apply") / writes,
            "ms",
        );
        m.put(
            "core.delta.compact.ms",
            idx.self_ms("core.delta.compact") / mirror.compactions.max(1) as f64,
            "ms",
        );
        m.put(
            "core.delta.snapshot.ms",
            idx.self_ms("core.delta.snapshot") / writes,
            "ms",
        );
        m.put(
            "core.delta.snapshot.io_blocks",
            mirror.snapshot_io as f64 / writes,
            "blocks",
        );
        m.put("core.delta.compactions", mirror.compactions as f64, "count");
        m.put("core.delta.pending", mirror.pending_sum / writes, "count");
        let apply_ms = idx.self_ms("serve.registry.apply");
        let mirror_ms = idx.self_ms("core.delta.apply")
            + idx.self_ms("core.delta.compact")
            + idx.self_ms("core.delta.snapshot");
        m.put("serve.registry.apply.ms", apply_ms / writes, "ms");
        m.put(
            "serve.registry.swap.ms",
            (apply_ms - mirror_ms) / writes,
            "ms",
        );
        m.put("serve.write.p50_ms", median(&plain.write_ms), "ms");
        m.put("serve.write.tail_ms", write_tail, "ms");
        crate::zero_unset_per_layer(m);
    } else {
        report::end_to_end(
            &mut out.metrics,
            &setup_s,
            setup_io,
            &plain.lat_ms,
            &plain.io,
            plain.wall_s,
            rss,
        );
    }

    out.provenance
        .num("prefix_events", PREFIX_EVENTS as f64)
        .num("live_objects_at_start", live_at_start as f64)
        .str(
            "data",
            "datagen::event_stream, default mix: ~70% inserts, 25% deletes, 5% ticks, 1e6 extent",
        )
        .str("backend", "sim")
        .num("block_bytes", 4096.0)
        .num(
            "buffer_blocks",
            engine_options().em_config.buffer_blocks() as f64,
        )
        .num(
            "engine_parallelism",
            engine_options().exact.parallelism as f64,
        )
        .num("server_workers", 1.0)
        .num("max_batch", 8.0)
        .num("max_delta", MAX_DELTA as f64)
        .num("rounds", rounds as f64)
        .num("writes_per_round", WRITES_PER_ROUND as f64)
        .num("events_per_write", EVENTS_PER_WRITE as f64)
        .num("query_samples", plain.lat_ms.len() as f64)
        .num("tail_percentile", tail_pct)
        .num("write_samples", plain.write_ms.len() as f64)
        .num("write_p50_ms", median(&plain.write_ms))
        .num("write_tail_ms", write_tail)
        .num("write_tail_percentile", write_pct)
        .num("checked_rounds", kept.len() as f64)
        .num("setup_repeats", SETUP_REPEATS as f64);
    out.exact
        .num("setup_io_blocks", setup_io as f64)
        .num("io_blocks_per_query", io_per_query)
        .num("core.batch.groups_per_query", groups_per_query)
        .num("serve.batch_size.mean", batch_size);
    crate::write_trace(args, &tracer, &mut out)?;
    Ok(out)
}

/// Client rounds: the round's writes through `registry.apply`, then its
/// queries through the server.
#[allow(clippy::too_many_arguments)]
fn rw_phase(
    setup: &RwSetup,
    writes: &[Event],
    rounds: usize,
    queries: &[Query],
    tracer: &Tracer,
    mut mirror: Option<&mut Mirror>,
    kept: &mut Vec<(DatasetHandle, Vec<String>)>,
    r: &mut Rounds,
    layers: &mut ServeLayers,
    out: &mut Outcome,
) {
    let mut batches = writes.chunks(EVENTS_PER_WRITE);
    let start = Instant::now();
    for round in 0..rounds {
        let mut handle = None;
        for batch in batches.by_ref().take(WRITES_PER_ROUND) {
            r.attempted += 1;
            let t = Instant::now();
            let (applied, _) = tracer.span("serve.registry.apply", || {
                setup.registry.apply(DATASET, batch)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match applied {
                Ok(h) => {
                    r.write_ms.push(ms);
                    handle = Some(h);
                }
                Err(e) => {
                    eprintln!("write failed: {e}");
                    r.failed += 1;
                }
            }
            if let Some(m) = mirror.as_deref_mut() {
                if let Err(e) = m.write(tracer, batch) {
                    out.fail(format!("mirror write failed: {e}"));
                }
            }
        }
        tracer.set_request(round as u64 + 1);
        let (answers, _) = tracer.span("serve.round", || {
            serve_round(&setup.server, DATASET, queries, r)
        });
        let Some(handle) = handle else { continue };
        if tracer.enabled() {
            let round_ms = *r.round_ms.last().expect("round timed");
            rerun_round(tracer, &handle, queries, round_ms, layers, out);
        }
        if round % CHECK_EVERY == 0 {
            kept.push((handle, answers));
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
}

// ---- scale-out --------------------------------------------------------------

const CLUSTER_POINTS: usize = 60_000;
const SHARDS: usize = 4;
const SHARDS_PER_SERVER: usize = 2;
const BOUNDARY_SAMPLE: usize = 8192;
/// Nominal wall time of one scale-out round on a 2-vCPU host.
const CLUSTER_ROUND_SECONDS: f64 = 1.0;
const CLUSTER: &str = "cluster";

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        request_timeout: Duration::from_secs(30),
        retries: 2,
        backoff: Duration::from_millis(10),
        failure_threshold: 3,
    }
}

struct ClusterSetup {
    registry: Arc<DatasetRegistry>,
    server: MaxRsServer,
    hosts: Vec<TcpServerHandle>,
}

impl ClusterSetup {
    fn shutdown(self) {
        self.server.shutdown();
        drop(self.registry);
        for mut h in self.hosts {
            h.shutdown();
        }
    }
}

/// The `Debug` rendering of the in-memory reference answer to `q`.
fn in_memory_answer(objects: &[WeightedPoint], q: &Query) -> String {
    let answer = match *q {
        Query::MaxRs { size } => QueryAnswer::MaxRs(max_rs_in_memory(objects, size)),
        Query::TopK { size, k } => QueryAnswer::TopK(max_k_rs_in_memory(objects, size, k)),
        Query::MinRs { size, domain } => {
            QueryAnswer::MinRs(min_rs_in_memory(objects, size, domain))
        }
        Query::ApproxMaxCrs { diameter, .. } => {
            let sigma = q.sigma_fraction().expect("approx query has a sigma");
            QueryAnswer::MaxCrs(approx_max_crs_in_memory(objects, diameter, sigma))
        }
    };
    format!("{answer:?}")
}

fn cluster_setup(
    objects: &[WeightedPoint],
    timing: Option<(&Arc<RpcCounters>, &Arc<Tracer>)>,
) -> Result<ClusterSetup, String> {
    let opts = engine_options();
    let (boundaries, parts) = partition_objects(objects, SHARDS, BOUNDARY_SAMPLE);
    let mut hosts = Vec::new();
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    for (s, ids) in (0..SHARDS)
        .collect::<Vec<_>>()
        .chunks(SHARDS_PER_SERVER)
        .enumerate()
    {
        let mut shard_server = ShardServer::new(opts, boundaries.clone());
        for &id in ids {
            shard_server.host(id, &parts[id]).map_err(err)?;
        }
        let host = serve_tcp(Arc::new(shard_server), "127.0.0.1:0").map_err(err)?;
        let tcp: Box<dyn Transport> =
            Box::new(TcpTransport::new(format!("server-{s}"), host.addr()));
        transports.push(match timing {
            Some((counters, tracer)) => Box::new(TimedTransport::new(
                tcp,
                Arc::clone(counters),
                Arc::clone(tracer),
            )),
            None => tcp,
        });
        hosts.push(host);
    }
    let coordinator =
        ClusterCoordinator::connect(opts, cluster_config(), transports).map_err(err)?;
    let registry = Arc::new(DatasetRegistry::new(MaxRsEngine::with_options(opts)));
    registry.insert_cluster(CLUSTER, coordinator).map_err(err)?;
    let server = MaxRsServer::start(Arc::clone(&registry), serve_config()).map_err(err)?;
    Ok(ClusterSetup {
        registry,
        server,
        hosts,
    })
}

pub fn run_scale_out(args: &RunArgs) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new(args.trace));
    let counters = Arc::new(RpcCounters::default());
    let timing = args.trace.then_some((&counters, &tracer));
    let objects = Dataset::generate(DatasetKind::Gaussian, CLUSTER_POINTS, args.seed).objects;
    let queries = round_queries();
    let rounds = args.whole_units(CLUSTER_ROUND_SECONDS);

    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let s = cluster_setup(&objects, timing)?;
        setup_s.push(t.elapsed().as_secs_f64());
        s.shutdown();
    }
    let t = Instant::now();
    let setup = cluster_setup(&objects, timing)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let handle = setup.registry.get(CLUSTER).ok_or("cluster entry missing")?;
    let setup_io = handle.prepare_io().total();
    let ServedDataset::Cluster(coordinator) = &*handle else {
        return Err("registry entry is not a cluster".into());
    };
    let touched = mean(
        &queries
            .iter()
            .map(|q| coordinator.shards_touched(q) as f64)
            .collect::<Vec<_>>(),
    );
    let fan_out = mean(
        &queries
            .iter()
            .map(|q| coordinator.fan_out(q) as f64)
            .collect::<Vec<_>>(),
    );

    let mut out = Outcome::default();
    let mut answers: Vec<Vec<String>> = Vec::new();
    let off = Tracer::new(false);
    let mut plain = Rounds::default();
    cluster_phase(
        &setup.server,
        &handle,
        rounds,
        &queries,
        &off,
        &counters,
        &mut answers,
        &mut plain,
        &mut ServeLayers::default(),
        &mut out,
    );
    let rss = peak_rss_mb();
    let stats_plain = setup.server.stats();

    let mut traced = Rounds::default();
    let mut layers = ServeLayers::default();
    let (a0, f0, _) = counters.sample();
    let rpc = if args.trace {
        counters.on.store(true, Ordering::SeqCst);
        cluster_phase(
            &setup.server,
            &handle,
            rounds,
            &queries,
            &tracer,
            &counters,
            &mut answers,
            &mut traced,
            &mut layers,
            &mut out,
        )
    } else {
        (0, 0, 0)
    };
    let (a1, f1, _) = counters.sample();
    let stats = setup.server.stats();
    drop(handle);
    setup.shutdown();

    // Every answer against the in-memory reference of its query, computed
    // once per distinct query after the measured phases.
    let reference: Vec<String> = queries
        .iter()
        .map(|q| in_memory_answer(&objects, q))
        .collect();
    for round in &answers {
        for (answer, expected) in round.iter().zip(&reference) {
            if answer != expected {
                eprintln!("wrong answer: {answer} != {expected}");
                out.failed += 1;
            }
        }
    }
    // Cross-check: the unsharded external `PreparedDataset` should answer
    // bit-identically too.  Where it disagrees with the in-memory reference
    // (and the cluster agrees with that reference), the defect is in the
    // single-node path, not in the measured one, so it is reported on the
    // provenance line instead of failing the run.
    let unsharded = MaxRsEngine::with_options(engine_options())
        .prepare(&objects)
        .and_then(|d| d.run_batch(&queries))
        .map_err(err)?;
    let mut disagreeing = Vec::new();
    for ((q, run), expected) in queries.iter().zip(&unsharded).zip(&reference) {
        let answer = format!("{:?}", run.answer);
        if answer != *expected {
            eprintln!("unsharded PreparedDataset disagrees with the in-memory reference on {q:?}: {answer} != {expected}");
            disagreeing.push(report::string(&format!("{q:?}")));
        }
    }
    out.attempted = plain.attempted + traced.attempted;
    out.failed += plain.failed + traced.failed;

    let io_per_query = mean_u64(&plain.io);
    let (_, tail_pct) = tail(&plain.lat_ms);
    let groups_per_query =
        QueryBatch::new(&queries).map_err(err)?.num_groups() as f64 / queries.len() as f64;
    let served = traced.lat_ms.len().max(1) as f64;
    let rpc_per_query = rpc.0 as f64 / served;
    if args.trace {
        let m = &mut out.metrics;
        let idx = SpanIndex::new(tracer.spans());
        serve_layer_metrics(m, &layers, &stats, &traced, &plain);
        let reruns = idx.count("cluster.query").max(1) as f64;
        m.put("core.shard.touched_per_query", touched, "count");
        m.put("cluster.rpc.count_per_query", rpc_per_query, "count");
        m.put(
            "cluster.rpc.busy_ms",
            idx.child_union_ms("cluster.query", "cluster.rpc") / reruns,
            "ms",
        );
        m.put(
            "cluster.coordinator.self_ms",
            idx.self_ms("cluster.query") / reruns,
            "ms",
        );
        m.put(
            "cluster.wire.bytes_per_query",
            rpc.2 as f64 / served,
            "bytes",
        );
        let attempts = a1 - a0;
        let requests = attempts - (f1 - f0);
        m.put(
            "cluster.rpc.attempts_per_request",
            attempts as f64 / requests.max(1) as f64,
            "ratio",
        );
        m.put("cluster.fan_out_per_query", fan_out, "count");
        crate::zero_unset_per_layer(m);
    } else {
        report::end_to_end(
            &mut out.metrics,
            &setup_s,
            setup_io,
            &plain.lat_ms,
            &plain.io,
            plain.wall_s,
            rss,
        );
    }

    out.provenance
        .num("n", CLUSTER_POINTS as f64)
        .str(
            "data",
            "Dataset::generate(Gaussian), 1e6 extent, unit weights",
        )
        .str("backend", "sim")
        .num("shards", SHARDS as f64)
        .num("servers", (SHARDS / SHARDS_PER_SERVER) as f64)
        .str("transport", "TcpTransport over 127.0.0.1")
        .num(
            "engine_parallelism",
            engine_options().exact.parallelism as f64,
        )
        .num("server_workers", 1.0)
        .num("max_batch", 8.0)
        .num("rounds", rounds as f64)
        .num("query_samples", plain.lat_ms.len() as f64)
        .num("tail_percentile", tail_pct)
        .num("shards_touched_per_query", touched)
        .raw(
            "unsharded_prepared_disagrees",
            format!("[{}]", disagreeing.join(", ")),
        )
        .num("setup_repeats", SETUP_REPEATS as f64);
    out.exact
        .num("setup_io_blocks", setup_io as f64)
        .num("io_blocks_per_query", io_per_query)
        .num("core.batch.groups_per_query", groups_per_query)
        .num("serve.batch_size.mean", stats_plain.mean_batch_size());
    if args.trace {
        out.exact.num("cluster.rpc.count_per_query", rpc_per_query);
    }
    crate::write_trace(args, &tracer, &mut out)?;
    Ok(out)
}

/// Runs the client rounds; returns the (attempts, failed attempts, bytes)
/// the transports saw during the served rounds, re-runs excluded.
#[allow(clippy::too_many_arguments)]
fn cluster_phase(
    server: &MaxRsServer,
    handle: &DatasetHandle,
    rounds: usize,
    queries: &[Query],
    tracer: &Tracer,
    counters: &RpcCounters,
    answers: &mut Vec<Vec<String>>,
    r: &mut Rounds,
    layers: &mut ServeLayers,
    out: &mut Outcome,
) -> (u64, u64, u64) {
    let mut served = (0, 0, 0);
    let start = Instant::now();
    for round in 0..rounds {
        tracer.set_request(round as u64 + 1);
        let before = counters.sample();
        let (a, _) = tracer.span("serve.round", || serve_round(server, CLUSTER, queries, r));
        let after = counters.sample();
        served.0 += after.0 - before.0;
        served.1 += after.1 - before.1;
        served.2 += after.2 - before.2;
        answers.push(a);
        if tracer.enabled() {
            let round_ms = *r.round_ms.last().expect("round timed");
            rerun_round(tracer, handle, queries, round_ms, layers, out);
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    served
}

fn serve_layer_metrics(
    m: &mut Metrics,
    layers: &ServeLayers,
    stats: &maxrs_serve::ServerStats,
    traced: &Rounds,
    plain: &Rounds,
) {
    m.put("core.batch.plan.ms", mean(&layers.plan_ms), "ms");
    m.put(
        "core.batch.groups_per_query",
        layers.groups_per_query,
        "ratio",
    );
    m.put("core.prepared.exec.ms", mean(&layers.exec_ms), "ms");
    m.put("serve.queue_wait.ms", mean(&layers.queue_wait_ms), "ms");
    m.put("serve.batch_size.mean", stats.mean_batch_size(), "count");
    m.put(
        "serve.shed_share",
        stats.shed as f64 / (stats.submitted + stats.shed).max(1) as f64,
        "ratio",
    );
    m.put(
        "trace.overhead",
        median(&traced.lat_ms) / median(&plain.lat_ms) - 1.0,
        "ratio",
    );
}
