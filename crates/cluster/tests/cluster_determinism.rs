//! Cluster-execution regression tests: a [`ClusterCoordinator`] must answer
//! **bit-identically** to the unsharded [`PreparedDataset`] — all four
//! [`Query`] variants, on the in-process transport and over real TCP
//! loopback, on both storage backends, with rectangles wider than a whole
//! shard (so answers cross server boundaries through the exported-piece and
//! span-event decomposition) and tie-heavy data whose x-coordinates sit
//! exactly on shard boundaries.  Degenerate shapes are pinned too: K = 1
//! equals the single prepared dataset, and so does one server hosting every
//! shard (no piece is exported, round 2 re-derives every piece); empty
//! datasets and tie-collapsed (empty) shards answer like the unsharded
//! pipeline.  Shards hosted in one directory run on filesystem devices and
//! leave no backing file behind, and preparing moves each shard block at most
//! once.  The aggregated `IoSnapshot` of a cluster query is invariant across
//! server topologies, transports and storage backends, and a batch shares
//! its sweep passes on the cluster as on a prepared dataset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use maxrs_cluster::{
    partition_objects, serve_tcp, ClusterConfig, ClusterCoordinator, InProcessTransport, Request,
    Response, ShardServer, TcpServerHandle, TcpTransport, Transport, TransportError,
};
use maxrs_core::{
    EngineOptions, ExactMaxRsOptions, MaxRsEngine, ObjectRecord, PreparedDataset, Query, ShardRoute,
};
use maxrs_em::{EmConfig, IoSnapshot, StorageBackend};
use maxrs_geometry::{Rect, RectSize, WeightedPoint};

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

/// Coordinates snapped to a coarse grid: heavy duplicate mass on x, so shard
/// boundaries (quantiles of those x-values) coincide exactly with object
/// coordinates and rectangle edges.
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

fn options_with(backend: StorageBackend) -> EngineOptions {
    EngineOptions {
        em_config: EmConfig::new(512, 32 * 512).unwrap().with_backend(backend),
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    }
}

/// No backoff sleeps in tests: retries (when a test injects faults) are
/// immediate, and healthy paths never sleep anyway.
fn test_config() -> ClusterConfig {
    ClusterConfig {
        backoff: Duration::ZERO,
        ..Default::default()
    }
}

/// Splits `objects` into `k` shards and hosts them round-robin on
/// `num_servers` servers (capped at the actual shard count).
fn build_servers(
    opts: EngineOptions,
    objects: &[WeightedPoint],
    k: usize,
    num_servers: usize,
) -> Vec<ShardServer> {
    let (boundaries, parts) = partition_objects(objects, k, 8192);
    let num_servers = num_servers.min(parts.len()).max(1);
    let mut servers: Vec<ShardServer> = (0..num_servers)
        .map(|_| ShardServer::new(opts, boundaries.clone()))
        .collect();
    for (i, part) in parts.iter().enumerate() {
        servers[i % num_servers].host(i, part).unwrap();
    }
    servers
}

/// Connects `servers` in process; server `i` is named `srv{i}`.
fn connect(opts: EngineOptions, servers: Vec<ShardServer>) -> ClusterCoordinator {
    let transports: Vec<Box<dyn Transport>> = servers
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            Box::new(InProcessTransport::new(format!("srv{i}"), Arc::new(s))) as Box<dyn Transport>
        })
        .collect();
    ClusterCoordinator::connect(opts, test_config(), transports).unwrap()
}

fn in_process_cluster(
    opts: EngineOptions,
    objects: &[WeightedPoint],
    k: usize,
    num_servers: usize,
) -> ClusterCoordinator {
    connect(opts, build_servers(opts, objects, k, num_servers))
}

fn tcp_cluster(
    opts: EngineOptions,
    objects: &[WeightedPoint],
    k: usize,
    num_servers: usize,
) -> (ClusterCoordinator, Vec<TcpServerHandle>) {
    let mut handles = Vec::new();
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    for (i, server) in build_servers(opts, objects, k, num_servers)
        .into_iter()
        .enumerate()
    {
        let handle = serve_tcp(Arc::new(server), "127.0.0.1:0").unwrap();
        transports.push(Box::new(TcpTransport::new(
            format!("srv{i}"),
            handle.addr(),
        )));
        handles.push(handle);
    }
    let cluster = ClusterCoordinator::connect(opts, test_config(), transports).unwrap();
    (cluster, handles)
}

/// All four variants at a size comparable to a shard's width plus a second
/// set at a size **wider than any shard**, so optimal placements straddle
/// boundaries (and servers).
fn variant_queries(extent: f64) -> Vec<Query> {
    let domain = Rect::new(0.1 * extent, 0.9 * extent, 0.1 * extent, 0.9 * extent);
    let narrow = Rect::new(0.05 * extent, 0.2 * extent, 0.2 * extent, 0.7 * extent);
    vec![
        Query::max_rs(RectSize::square(0.12 * extent)),
        Query::top_k(RectSize::square(0.12 * extent), 3),
        Query::min_rs(RectSize::square(0.12 * extent), domain),
        Query::approx_max_crs(0.12 * extent),
        Query::max_rs(RectSize::square(0.4 * extent)),
        Query::top_k(RectSize::square(0.4 * extent), 2),
        Query::min_rs(RectSize::square(0.4 * extent), narrow),
        Query::approx_max_crs(0.4 * extent),
    ]
}

fn assert_cluster_matches(
    cluster: &ClusterCoordinator,
    prepared: &PreparedDataset<'_>,
    queries: &[Query],
    tag: &str,
) {
    for query in queries {
        assert_eq!(
            cluster.run(query).unwrap().answer,
            prepared.run(query).unwrap().answer,
            "{tag}: cluster {} diverged from unsharded run",
            query.name()
        );
    }
    let cluster_runs = cluster.run_batch(queries).unwrap();
    let unsharded_runs = prepared.run_batch(queries).unwrap();
    for ((query, c), u) in queries.iter().zip(&cluster_runs).zip(&unsharded_runs) {
        assert_eq!(
            c.answer,
            u.answer,
            "{tag}: cluster {} diverged from unsharded batch",
            query.name()
        );
    }
}

#[test]
fn in_process_cluster_is_bit_identical_on_both_backends() {
    let extent = 1000.0;
    let queries = variant_queries(extent);
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let opts = options_with(backend);
        let objects = pseudo_random_objects(1800, 11, extent);
        let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
        assert!(prepared.is_external());
        for (k, servers) in [(1usize, 1usize), (2, 2), (7, 3)] {
            let cluster = in_process_cluster(opts, &objects, k, servers);
            assert_eq!(cluster.num_shards(), k);
            assert_eq!(cluster.len(), prepared.len());
            assert_cluster_matches(
                &cluster,
                &prepared,
                &queries,
                &format!("{} K={k} servers={servers}", backend.name()),
            );
        }
    }
}

#[test]
fn tcp_loopback_cluster_is_bit_identical_on_both_backends() {
    let extent = 1000.0;
    let queries = variant_queries(extent);
    for backend in [StorageBackend::Sim, StorageBackend::Fs] {
        let opts = options_with(backend);
        let objects = pseudo_random_objects(1200, 23, extent);
        let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
        let (cluster, _handles) = tcp_cluster(opts, &objects, 5, 3);
        assert_eq!(cluster.num_servers(), 3);
        assert_eq!(cluster.backend_name(), backend.name());
        assert_cluster_matches(
            &cluster,
            &prepared,
            &queries,
            &format!("tcp {} K=5", backend.name()),
        );
    }
}

#[test]
fn cluster_is_bit_identical_on_tie_heavy_data() {
    let objects = tie_heavy_objects(2400, 7);
    let opts = options_with(StorageBackend::Sim);
    let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
    let queries = variant_queries(1000.0);
    for (k, servers) in [(2usize, 2usize), (7, 3)] {
        let cluster = in_process_cluster(opts, &objects, k, servers);
        assert_cluster_matches(
            &cluster,
            &prepared,
            &queries,
            &format!("tie-heavy K={k} servers={servers}"),
        );
    }
}

/// One server hosting every shard exports no piece: round 2 re-derives
/// every piece from the server's own shards, and every pass fans out to
/// that one server.
#[test]
fn one_server_hosting_every_shard_matches_the_prepared_dataset() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(1500, 31, extent);
    let opts = options_with(StorageBackend::Sim);
    let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
    let cluster = in_process_cluster(opts, &objects, 4, 1);
    assert_eq!(cluster.num_servers(), 1);
    assert_eq!(cluster.num_shards(), 4);
    assert_eq!(cluster.len(), prepared.len());
    let queries = variant_queries(extent);
    for query in &queries {
        assert_eq!(cluster.fan_out(query), 1, "{}", query.name());
    }
    assert_cluster_matches(&cluster, &prepared, &queries, "one server, K=4");
}

/// Shards hosted with `host_in` in one existing directory share it on
/// filesystem devices of their own, one backing file per shard device,
/// answer like the prepared dataset, and delete every backing file when the
/// cluster drops.
#[test]
fn shards_hosted_in_one_directory_run_on_fs_devices() {
    let dir = std::env::temp_dir().join(format!(
        "maxrs-host-in-test-{}-{}",
        std::process::id(),
        line!()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let block_files = || std::fs::read_dir(&dir).unwrap().count();
    let extent = 1000.0;
    let objects = pseudo_random_objects(1200, 37, extent);
    let opts = options_with(StorageBackend::Sim);
    let (boundaries, parts) = partition_objects(&objects, 3, 8192);
    let mut servers: Vec<ShardServer> = (0..2)
        .map(|_| ShardServer::new(opts, boundaries.clone()))
        .collect();
    for (i, part) in parts.iter().enumerate() {
        servers[i % 2].host_in(i, &dir, part).unwrap();
    }
    assert!(block_files() >= parts.len(), "a shard wrote no block file");
    let cluster = connect(opts, servers);
    assert_eq!(cluster.backend_name(), "fs");
    let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
    assert_cluster_matches(&cluster, &prepared, &variant_queries(extent), "host_in");
    drop(cluster);
    assert_eq!(block_files(), 0, "block files left behind");
    std::fs::remove_dir(&dir).unwrap();
}

/// Preparing a shard is one load and one flush: each hosted shard reads and
/// writes each of its blocks at most once, and the coordinator's
/// `prepare_io` is the sum of its shards'.
#[test]
fn prepare_reads_and_writes_each_shard_block_at_most_once() {
    // 6,000 objects over a 32-block buffer: each of four shards spans
    // several buffer loads, so a per-shard external sort would read and
    // write its blocks more than once.
    let opts = options_with(StorageBackend::Sim);
    let objects = pseudo_random_objects(6000, 17, 10_000.0);
    let servers = build_servers(opts, &objects, 4, 2);
    let mut shards = Vec::new();
    for server in &servers {
        let Response::Described { shards: hosted, .. } = server.handle(&Request::Describe) else {
            panic!("a server answered Describe with the wrong reply");
        };
        shards.extend(hosted);
    }
    assert_eq!(shards.len(), 4);
    for info in &shards {
        let blocks = opts.em_config.blocks_for::<ObjectRecord>(info.len);
        let io = info.prepare_io;
        assert!(io.total() > 0, "shard {} prepared at no I/O", info.shard);
        assert!(
            io.reads <= blocks && io.writes <= blocks,
            "shard {} moved {io} over {blocks} object blocks",
            info.shard
        );
    }
    let summed = shards
        .iter()
        .fold(IoSnapshot::default(), |acc, info| acc + info.prepare_io);
    assert_eq!(connect(opts, servers).prepare_io(), summed);
}

#[test]
fn k1_cluster_matches_the_single_prepared_dataset() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(900, 41, extent);
    let opts = options_with(StorageBackend::Sim);
    let prepared = MaxRsEngine::with_options(opts).prepare(&objects).unwrap();
    let cluster = in_process_cluster(opts, &objects, 1, 1);
    assert_eq!(cluster.num_shards(), 1);
    assert_cluster_matches(&cluster, &prepared, &variant_queries(extent), "K=1");
}

#[test]
fn empty_datasets_and_tie_collapsed_shards_answer_like_the_unsharded_pipeline() {
    let opts = options_with(StorageBackend::Sim);
    let queries = variant_queries(1000.0);

    // A completely empty cluster.
    let empty = in_process_cluster(opts, &[], 3, 2);
    assert!(empty.is_empty());
    let prepared_empty = MaxRsEngine::with_options(opts).prepare(&[]).unwrap();
    assert_cluster_matches(&empty, &prepared_empty, &queries, "empty");

    // All mass on two x-columns with hand-picked boundaries carving out
    // interior shards that hold **no objects** — the shape quantile
    // selection collapses into when x-ties swallow boundaries.  The
    // cluster must still cover every slab (empty shards included) and
    // answer identically.
    let two_columns: Vec<WeightedPoint> = (0..600)
        .map(|i| {
            let x = if i % 2 == 0 { 100.0 } else { 900.0 };
            WeightedPoint::at(x, (i % 37) as f64 * 27.0, 1.0 + (i % 3) as f64)
        })
        .collect();
    let boundaries = vec![200.0, 500.0, 800.0];
    let mut parts: Vec<Vec<WeightedPoint>> = (0..4).map(|_| Vec::new()).collect();
    for o in &two_columns {
        parts[boundaries.partition_point(|&b| b <= o.point.x)].push(*o);
    }
    assert!(parts[1].is_empty() && parts[2].is_empty());
    let mut alpha = ShardServer::new(opts, boundaries.clone());
    alpha.host(0, &parts[0]).unwrap();
    alpha.host(2, &parts[2]).unwrap();
    let mut beta = ShardServer::new(opts, boundaries);
    beta.host(1, &parts[1]).unwrap();
    beta.host(3, &parts[3]).unwrap();
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(InProcessTransport::new("alpha", Arc::new(alpha))),
        Box::new(InProcessTransport::new("beta", Arc::new(beta))),
    ];
    let cluster = ClusterCoordinator::connect(opts, test_config(), transports).unwrap();
    assert_eq!(cluster.num_shards(), 4);
    assert_eq!(cluster.shard_lens(), vec![300, 0, 0, 300]);
    let prepared = MaxRsEngine::with_options(opts)
        .prepare(&two_columns)
        .unwrap();
    assert_cluster_matches(&cluster, &prepared, &queries, "empty-shards");
}

#[test]
fn io_snapshot_is_invariant_across_topology_transport_and_backend() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(1400, 53, extent);
    let queries = variant_queries(extent);

    let runs = |cluster: &ClusterCoordinator| -> Vec<IoSnapshot> {
        queries.iter().map(|q| cluster.run(q).unwrap().io).collect()
    };

    let opts = options_with(StorageBackend::Sim);
    let reference = runs(&in_process_cluster(opts, &objects, 6, 1));
    assert!(
        reference.iter().any(|io| io.total() > 0),
        "cluster queries must report I/O"
    );

    // Same shards spread over more servers: identical logical transfers.
    for servers in [2usize, 3, 6] {
        let spread = runs(&in_process_cluster(opts, &objects, 6, servers));
        assert_eq!(
            reference, spread,
            "topology changed the I/O ({servers} servers)"
        );
    }

    // Same topology over TCP loopback: the transport moves bytes, not
    // blocks — the snapshot must not change.
    let (tcp, _handles) = tcp_cluster(opts, &objects, 6, 3);
    assert_eq!(reference, runs(&tcp), "TCP changed the I/O");

    // Same cluster on the filesystem backend: logical I/O is
    // backend-invariant.
    let fs = runs(&in_process_cluster(
        options_with(StorageBackend::Fs),
        &objects,
        6,
        3,
    ));
    assert_eq!(reference, fs, "backend changed the I/O");
}

/// Counts every request attempt, and logs which servers receive a
/// `Breakpoint`, before handing the request to the wrapped transport.
struct CountingTransport {
    inner: InProcessTransport,
    calls: Arc<AtomicU64>,
    breakpoints: Arc<Mutex<Vec<String>>>,
}

impl Transport for CountingTransport {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn call(&self, request: &Request, timeout: Duration) -> Result<Response, TransportError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if matches!(request, Request::Breakpoint { .. }) {
            let mut log = self.breakpoints.lock().expect("breakpoint log lock");
            log.push(self.inner.name().to_string());
        }
        self.inner.call(request, timeout)
    }
}

/// Builds a cluster whose transports count requests into `calls` and log
/// `Breakpoint` receivers into `breakpoints`; server `i` is named `srv{i}`.
fn counting_cluster(
    opts: EngineOptions,
    objects: &[WeightedPoint],
    k: usize,
    num_servers: usize,
    calls: &Arc<AtomicU64>,
    breakpoints: &Arc<Mutex<Vec<String>>>,
) -> ClusterCoordinator {
    let transports: Vec<Box<dyn Transport>> = build_servers(opts, objects, k, num_servers)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            Box::new(CountingTransport {
                inner: InProcessTransport::new(format!("srv{i}"), Arc::new(s)),
                calls: Arc::clone(calls),
                breakpoints: Arc::clone(breakpoints),
            }) as Box<dyn Transport>
        })
        .collect();
    ClusterCoordinator::connect(opts, test_config(), transports).unwrap()
}

#[test]
fn cluster_batches_share_sweep_passes() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(1500, 61, extent);
    let opts = options_with(StorageBackend::Sim);
    let calls = Arc::new(AtomicU64::new(0));
    let breakpoints = Arc::new(Mutex::new(Vec::new()));
    let cluster = counting_cluster(opts, &objects, 4, 2, &calls, &breakpoints);

    let size = RectSize::square(0.12 * extent);
    let queries = [
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::approx_max_crs(size.width),
    ];
    let rpcs = || calls.load(Ordering::SeqCst);

    let start = rpcs();
    let single: Vec<_> = queries.iter().map(|q| cluster.run(q).unwrap()).collect();
    let single_rpcs = rpcs() - start;
    let start = rpcs();
    let batched = cluster.run_batch(&queries).unwrap();
    let batched_rpcs = rpcs() - start;

    let total = |runs: &[maxrs_core::QueryRun]| -> u64 { runs.iter().map(|r| r.io.total()).sum() };
    for ((query, one), many) in queries.iter().zip(&single).zip(&batched) {
        assert_eq!(one.answer, many.answer, "{} diverged", query.name());
    }
    assert!(
        total(&batched) < total(&single),
        "batch moved {} blocks, one at a time {}",
        total(&batched),
        total(&single)
    );
    assert!(
        batched_rpcs < single_rpcs,
        "batch made {batched_rpcs} requests, one at a time {single_rpcs}"
    );
}

/// Canonicalization asks only the servers hosting an engaged shard: a
/// narrow-domain MinRS sends no `Breakpoint` to the others.
#[test]
fn breakpoints_go_only_to_servers_hosting_engaged_shards() {
    let extent = 1000.0;
    let objects = pseudo_random_objects(1500, 67, extent);
    let opts = options_with(StorageBackend::Sim);
    let calls = Arc::new(AtomicU64::new(0));
    let breakpoints = Arc::new(Mutex::new(Vec::new()));
    // One shard per server: shard `s` lives on `srv{s}`.
    let cluster = counting_cluster(opts, &objects, 4, 4, &calls, &breakpoints);
    assert_eq!(cluster.num_shards(), 4);

    let query = Query::min_rs(
        RectSize::square(0.02 * extent),
        Rect::new(0.0, 0.05 * extent, 0.0, extent),
    );
    let engaged = ShardRoute::engaged_by(cluster.boundaries(), &query);
    assert!(engaged.len() < 4, "the domain engages every shard");
    let run = cluster.run(&query).unwrap();
    let expected = MaxRsEngine::with_options(opts)
        .prepare(&objects)
        .unwrap()
        .run(&query)
        .unwrap();
    assert_eq!(run.answer, expected.answer);

    let log = breakpoints.lock().unwrap();
    assert!(!log.is_empty(), "the query canonicalized nothing");
    for server in log.iter() {
        assert!(
            engaged.iter().any(|s| *server == format!("srv{s}")),
            "{server} hosts no engaged shard of {engaged:?}"
        );
    }
}
