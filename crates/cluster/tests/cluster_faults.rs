//! Robustness tests: a dead, flaky or lying shard server must surface as a
//! **typed error within the timeout + retry budget** — never a hang, never a
//! silently wrong answer — under both the in-process and the TCP transport.
//! Also pins the health-state machine: consecutive failed requests cross the
//! failure threshold into fast-fail, and `revive` re-admits a recovered
//! server; and a server answers malformed sweep passes with an error reply,
//! never a panic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maxrs_cluster::protocol::PassSpec;
use maxrs_cluster::{
    partition_objects, serve_tcp, ClusterConfig, ClusterCoordinator, ClusterError,
    FaultInjectedTransport, InProcessTransport, InjectedFault, Request, Response, ShardHealth,
    ShardServer, TcpTransport, Transport, TransportError,
};
use maxrs_core::{EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query};
use maxrs_em::EmConfig;
use maxrs_geometry::{Interval, RectSize, WeightedPoint};

fn objects(n: usize, seed: u64) -> Vec<WeightedPoint> {
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
                next() * 1000.0,
                next() * 1000.0,
                1.0 + (next() * 4.0).floor(),
            )
        })
        .collect()
}

fn opts() -> EngineOptions {
    EngineOptions {
        em_config: EmConfig::new(512, 32 * 512).unwrap(),
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    }
}

fn fast_config() -> ClusterConfig {
    ClusterConfig {
        request_timeout: Duration::from_millis(500),
        retries: 2,
        backoff: Duration::from_millis(5),
        failure_threshold: 3,
    }
}

/// Two servers, two shards each.
fn two_servers(data: &[WeightedPoint]) -> Vec<ShardServer> {
    let (boundaries, parts) = partition_objects(data, 4, 8192);
    assert_eq!(parts.len(), 4);
    let mut alpha = ShardServer::new(opts(), boundaries.clone());
    alpha.host(0, &parts[0]).unwrap();
    alpha.host(1, &parts[1]).unwrap();
    let mut beta = ShardServer::new(opts(), boundaries);
    beta.host(2, &parts[2]).unwrap();
    beta.host(3, &parts[3]).unwrap();
    vec![alpha, beta]
}

/// A transport with a kill switch: healthy until flipped, then every attempt
/// reports the server unreachable (the in-process stand-in for a crashed
/// process).
struct KillableTransport {
    inner: InProcessTransport,
    dead: Arc<AtomicBool>,
    calls: Arc<AtomicU64>,
}

impl Transport for KillableTransport {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn call(&self, request: &Request, timeout: Duration) -> Result<Response, TransportError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.dead.load(Ordering::SeqCst) {
            return Err(TransportError::Unavailable {
                detail: "killed".to_string(),
            });
        }
        self.inner.call(request, timeout)
    }
}

#[test]
fn killed_server_yields_typed_error_within_budget_in_process() {
    let data = objects(800, 5);
    let expected = MaxRsEngine::with_options(opts())
        .prepare(&data)
        .unwrap()
        .run(&Query::max_rs(RectSize::square(120.0)))
        .unwrap()
        .answer;

    let mut servers = two_servers(&data).into_iter();
    let alpha = servers.next().unwrap();
    let beta = servers.next().unwrap();
    let dead = Arc::new(AtomicBool::new(false));
    let calls = Arc::new(AtomicU64::new(0));
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(InProcessTransport::new("alpha", Arc::new(alpha))),
        Box::new(KillableTransport {
            inner: InProcessTransport::new("beta", Arc::new(beta)),
            dead: Arc::clone(&dead),
            calls: Arc::clone(&calls),
        }),
    ];
    let config = fast_config();
    let cluster = ClusterCoordinator::connect(opts(), config, transports).unwrap();

    // Healthy cluster answers correctly.
    let query = Query::max_rs(RectSize::square(120.0));
    assert_eq!(cluster.run(&query).unwrap().answer, expected);

    // Kill beta: the next query fails with the typed error naming the
    // server and its shards, after exactly the retry budget, with no hang.
    dead.store(true, Ordering::SeqCst);
    let before_calls = calls.load(Ordering::SeqCst);
    let t = Instant::now();
    let err = cluster.run(&query).unwrap_err();
    let elapsed = t.elapsed();
    match &err {
        ClusterError::ShardUnavailable {
            server,
            shards,
            attempts,
            detail,
        } => {
            assert_eq!(server, "beta");
            assert_eq!(shards, &vec![2, 3]);
            assert_eq!(*attempts, config.retries + 1);
            assert!(detail.contains("killed"), "detail: {detail}");
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "failure took {elapsed:?} — not within the timeout + retry budget"
    );
    // The failing request was attempted exactly retries + 1 times (the
    // fan-out may have been cut short before reaching beta for later
    // passes, so at least one full budget and no unbounded retrying).
    let spent = calls.load(Ordering::SeqCst) - before_calls;
    assert!(
        spent >= u64::from(config.retries + 1) && spent <= 4 * u64::from(config.retries + 1),
        "beta saw {spent} attempts"
    );

    // Two more failing queries cross the failure threshold: beta is dead,
    // and further queries fast-fail without touching the transport.
    for _ in 0..2 {
        assert!(matches!(
            cluster.run(&query),
            Err(ClusterError::ShardUnavailable { .. })
        ));
    }
    assert_eq!(
        cluster.health(),
        vec![
            ("alpha".to_string(), ShardHealth::Healthy),
            ("beta".to_string(), ShardHealth::Dead),
        ]
    );
    let before_calls = calls.load(Ordering::SeqCst);
    match cluster.run(&query).unwrap_err() {
        ClusterError::ShardUnavailable { attempts, .. } => assert_eq!(attempts, 0),
        other => panic!("expected fast-fail, got {other:?}"),
    }
    assert_eq!(
        calls.load(Ordering::SeqCst),
        before_calls,
        "dead server was contacted"
    );

    // Revive after recovery: answers are correct (and identical) again.
    dead.store(false, Ordering::SeqCst);
    assert!(cluster.revive("beta"));
    assert!(!cluster.revive("gamma"));
    assert_eq!(cluster.run(&query).unwrap().answer, expected);
    assert_eq!(
        cluster.health(),
        vec![
            ("alpha".to_string(), ShardHealth::Healthy),
            ("beta".to_string(), ShardHealth::Healthy),
        ]
    );
}

#[test]
fn killed_tcp_server_yields_typed_error_within_budget() {
    let data = objects(600, 9);
    let mut servers = two_servers(&data).into_iter();
    let alpha = servers.next().unwrap();
    let beta = servers.next().unwrap();

    let alpha_handle = serve_tcp(Arc::new(alpha), "127.0.0.1:0").unwrap();
    let beta_handle = serve_tcp(Arc::new(beta), "127.0.0.1:0").unwrap();
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(TcpTransport::new("alpha", alpha_handle.addr())),
        Box::new(TcpTransport::new("beta", beta_handle.addr())),
    ];
    let config = fast_config();
    let cluster = ClusterCoordinator::connect(opts(), config, transports).unwrap();

    let query = Query::max_rs(RectSize::square(120.0));
    let healthy = cluster.run(&query).unwrap();
    assert!(healthy.answer.best_weight() > 0.0);

    // Kill beta's process (drop stops the accept loop and closes the
    // listener): the query must fail typed, promptly.
    drop(beta_handle);
    let t = Instant::now();
    let err = cluster.run(&query).unwrap_err();
    let elapsed = t.elapsed();
    match &err {
        ClusterError::ShardUnavailable { server, shards, .. } => {
            assert_eq!(server, "beta");
            assert_eq!(shards, &vec![2, 3]);
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    // Budget: (retries + 1) connect failures (refused connections fail
    // fast) plus backoffs — generous slack for slow CI machines, but far
    // below anything resembling a hang.
    assert!(
        elapsed < Duration::from_secs(10),
        "TCP failure took {elapsed:?}"
    );
    drop(alpha_handle);
}

#[test]
fn flaky_server_recovers_within_the_retry_budget() {
    let data = objects(700, 13);
    let expected = MaxRsEngine::with_options(opts())
        .prepare(&data)
        .unwrap()
        .run(&Query::max_rs(RectSize::square(150.0)))
        .unwrap()
        .answer;

    let mut servers = two_servers(&data).into_iter();
    let alpha = servers.next().unwrap();
    let beta = servers.next().unwrap();
    // Beta's first two attempts fail; with retries = 2 the Describe
    // handshake still completes within its own budget (two injected
    // failures, then success on the third attempt).
    let flaky = FaultInjectedTransport::failing(
        InProcessTransport::new("beta", Arc::new(beta)),
        2,
        InjectedFault::Unavailable,
    );
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(InProcessTransport::new("alpha", Arc::new(alpha))),
        Box::new(flaky),
    ];
    let cluster = ClusterCoordinator::connect(opts(), fast_config(), transports).unwrap();
    let run = cluster
        .run(&Query::max_rs(RectSize::square(150.0)))
        .unwrap();
    assert_eq!(
        run.answer, expected,
        "flaky-but-recovering cluster must not lose answers"
    );
    assert_eq!(
        cluster.health(),
        vec![
            ("alpha".to_string(), ShardHealth::Healthy),
            ("beta".to_string(), ShardHealth::Healthy),
        ]
    );
}

#[test]
fn injected_timeouts_exhaust_the_budget_with_a_typeful_message() {
    let data = objects(500, 17);
    let mut servers = two_servers(&data).into_iter();
    let alpha = servers.next().unwrap();
    let beta = servers.next().unwrap();
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(InProcessTransport::new("alpha", Arc::new(alpha))),
        Box::new(FaultInjectedTransport::failing_forever(
            InProcessTransport::new("beta", Arc::new(beta)),
            InjectedFault::Timeout,
        )),
    ];
    // Connect already needs beta: the handshake itself fails typed (the
    // shard list is still unknown, but the server is named).
    let err = ClusterCoordinator::connect(opts(), fast_config(), transports).unwrap_err();
    match err {
        ClusterError::ShardUnavailable {
            server,
            attempts,
            detail,
            ..
        } => {
            assert_eq!(server, "beta");
            assert_eq!(attempts, fast_config().retries + 1);
            assert!(detail.contains("timed out"), "detail: {detail}");
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
}

/// A transport whose server "answers" every request with a request-level
/// error: these are deterministic, must surface as [`ClusterError::Remote`],
/// and must not be retried.
struct ErroringTransport {
    calls: Arc<AtomicU64>,
}

impl Transport for ErroringTransport {
    fn name(&self) -> &str {
        "liar"
    }

    fn call(&self, _request: &Request, _timeout: Duration) -> Result<Response, TransportError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        Ok(Response::Error {
            message: "disk on fire".to_string(),
        })
    }
}

#[test]
fn remote_errors_surface_once_and_are_not_retried() {
    let calls = Arc::new(AtomicU64::new(0));
    let transports: Vec<Box<dyn Transport>> = vec![Box::new(ErroringTransport {
        calls: Arc::clone(&calls),
    })];
    let err = ClusterCoordinator::connect(opts(), fast_config(), transports).unwrap_err();
    match err {
        ClusterError::Remote { server, detail } => {
            assert_eq!(server, "liar");
            assert!(detail.contains("disk on fire"));
        }
        other => panic!("expected Remote, got {other:?}"),
    }
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "remote errors must not be retried"
    );
}

#[test]
fn topology_violations_are_rejected_at_connect() {
    let data = objects(400, 21);
    let (boundaries, parts) = partition_objects(&data, 2, 8192);

    // A shard hosted nowhere.
    let mut lonely = ShardServer::new(opts(), boundaries.clone());
    lonely.host(0, &parts[0]).unwrap();
    let err = ClusterCoordinator::connect(
        opts(),
        fast_config(),
        vec![Box::new(InProcessTransport::new("lonely", Arc::new(lonely))) as Box<dyn Transport>],
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Topology { ref detail } if detail.contains("shard 1")),
        "got {err:?}"
    );

    // The same shard hosted twice.
    let mut a = ShardServer::new(opts(), boundaries.clone());
    a.host(0, &parts[0]).unwrap();
    a.host(1, &parts[1]).unwrap();
    let mut b = ShardServer::new(opts(), boundaries.clone());
    b.host(1, &parts[1]).unwrap();
    let err = ClusterCoordinator::connect(
        opts(),
        fast_config(),
        vec![
            Box::new(InProcessTransport::new("a", Arc::new(a))) as Box<dyn Transport>,
            Box::new(InProcessTransport::new("b", Arc::new(b))) as Box<dyn Transport>,
        ],
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Topology { ref detail } if detail.contains("hosted by both")),
        "got {err:?}"
    );

    // Disagreeing boundaries.
    let mut c = ShardServer::new(opts(), boundaries.clone());
    c.host(0, &parts[0]).unwrap();
    c.host(1, &parts[1]).unwrap();
    let mut d = ShardServer::new(opts(), vec![boundaries[0] + 1.0]);
    d.host(0, &[]).unwrap();
    let err = ClusterCoordinator::connect(
        opts(),
        fast_config(),
        vec![
            Box::new(InProcessTransport::new("c", Arc::new(c))) as Box<dyn Transport>,
            Box::new(InProcessTransport::new("d", Arc::new(d))) as Box<dyn Transport>,
        ],
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Topology { ref detail } if detail.contains("boundaries")),
        "got {err:?}"
    );
}

#[test]
fn malformed_requests_get_error_responses_instead_of_panics() {
    let data = objects(400, 29);
    let (boundaries, parts) = partition_objects(&data, 2, 8192);
    let mut server = ShardServer::new(opts(), boundaries.clone());
    server.host(0, &parts[0]).unwrap();
    server.host(1, &parts[1]).unwrap();

    // Hosting a shard id twice or outside 0..K is a typed error.
    assert!(server.host(1, &parts[1]).is_err());
    assert!(server.host(2, &[]).is_err());

    let valid = PassSpec {
        size: RectSize::square(50.0),
        weight_scale: 1.0,
        root: Interval::UNBOUNDED,
        bounds: vec![f64::NEG_INFINITY, boundaries[0], f64::INFINITY],
        owners: vec![0, 1],
        engaged: vec![0, 1],
        suppressed: Vec::new(),
    };
    assert!(matches!(
        server.handle(&Request::Distribute(valid.clone())),
        Response::Distributed { .. }
    ));

    // Sizes as the wire decoder builds them, unchecked.
    let bad_sizes = [
        RectSize {
            width: 0.0,
            height: 0.0,
        },
        RectSize {
            width: f64::NAN,
            height: 1.0,
        },
        RectSize {
            width: 1.0,
            height: f64::INFINITY,
        },
    ];
    let mut malformed = vec![
        PassSpec {
            bounds: vec![0.0],
            owners: vec![],
            ..valid.clone()
        },
        PassSpec {
            bounds: vec![],
            owners: vec![],
            ..valid.clone()
        },
        PassSpec {
            bounds: vec![f64::NEG_INFINITY, 5.0, 5.0, f64::INFINITY],
            owners: vec![0, 0, 1],
            ..valid.clone()
        },
        PassSpec {
            bounds: vec![f64::NEG_INFINITY, f64::NAN, f64::INFINITY],
            ..valid.clone()
        },
        PassSpec {
            owners: vec![0],
            ..valid.clone()
        },
        PassSpec {
            owners: vec![0, 2],
            ..valid.clone()
        },
        PassSpec {
            engaged: vec![0, 7],
            ..valid.clone()
        },
    ];
    malformed.extend(bad_sizes.map(|size| PassSpec {
        size,
        ..valid.clone()
    }));
    let requests = malformed
        .into_iter()
        .flat_map(|pass| {
            [
                Request::Distribute(pass.clone()),
                Request::Solve {
                    pass,
                    imported: Vec::new(),
                },
            ]
        })
        .chain(bad_sizes.map(|size| Request::Breakpoint {
            size,
            root: Interval::UNBOUNDED,
            after_x: 0.0,
            suppressed: Vec::new(),
            engaged: Vec::new(),
        }))
        .chain([Request::Breakpoint {
            size: valid.size,
            root: Interval::UNBOUNDED,
            after_x: 0.0,
            suppressed: Vec::new(),
            engaged: vec![0, 7],
        }]);
    for request in requests {
        assert!(
            matches!(server.handle(&request), Response::Error { .. }),
            "{request:?} was not rejected"
        );
    }
}
