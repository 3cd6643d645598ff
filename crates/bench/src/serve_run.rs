//! Closed-loop load generation against the concurrent serving layer
//! ([`MaxRsServer`]): N client threads each submit a query, wait for its
//! reply, and immediately submit the next — the measurement behind the
//! `serve` command of the experiment harness.
//!
//! Reported per run: sustained queries/sec, client-observed latency
//! percentiles (p50/p95/p99, including the batching window each query waits
//! inside), and the flushed batch-size histogram — the direct evidence that
//! strangers' queries actually shared sweep passes.  Every response is
//! verified bit-identical to a sequential [`PreparedDataset::run`] of the
//! same query, so the throughput numbers are also a concurrency correctness
//! check.
//!
//! [`PreparedDataset::run`]: maxrs_core::PreparedDataset::run

use std::sync::{Arc, Barrier};
use std::time::Instant;

use maxrs_core::{EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query, QueryAnswer};
use maxrs_em::EmConfig;
use maxrs_geometry::WeightedPoint;
use maxrs_serve::{DatasetRegistry, MaxRsServer, ServeConfig, ServeError};

use crate::json::Value;

/// Outcome of one closed-loop serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// Storage-backend name of the dataset's context ("sim", "fs").
    pub backend: String,
    /// Dataset cardinality.
    pub n: u64,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Queries each client issued.
    pub queries_per_client: usize,
    /// Batching window, in nanoseconds.
    pub window_ns: u64,
    /// Size threshold of the micro-batcher.
    pub max_batch: usize,
    /// Worker threads executing flushed batches.
    pub workers: usize,
    /// Wall-clock of the whole closed loop, in nanoseconds.
    pub wall_ns: u128,
    /// Client-observed submit-to-reply latencies, sorted ascending (ns).
    pub latencies_ns: Vec<u128>,
    /// Flushed micro-batches.
    pub batches: u64,
    /// Mean flushed batch size (> 1 means sweeps were actually shared).
    pub mean_batch_size: f64,
    /// Largest batch flushed.
    pub max_batch_size: usize,
    /// `(size, batches_of_that_size)` pairs, ascending, zeros omitted.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Sweep groups executed across all batches.
    pub sweep_groups: u64,
    /// Whether every response was bit-identical to a sequential run of the
    /// same query on the same prepared dataset.
    pub verified: bool,
}

impl ServeRun {
    /// Total queries answered in the run.
    pub fn total_queries(&self) -> u64 {
        (self.clients * self.queries_per_client) as u64
    }

    /// Sustained throughput of the closed loop, in queries per second.
    pub fn qps(&self) -> f64 {
        self.total_queries() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// The `q`-quantile of the client-observed latency (nearest-rank on the
    /// sorted samples); 0 when no samples were taken.
    pub fn latency_ns(&self, q: f64) -> u128 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let rank = (q * self.latencies_ns.len() as f64).ceil() as usize;
        self.latencies_ns[rank.clamp(1, self.latencies_ns.len()) - 1]
    }

    /// Serializes the run for the experiment harness's JSON output.
    pub fn to_value(&self) -> Value {
        let histogram: Vec<Value> = self
            .batch_histogram
            .iter()
            .map(|&(size, count)| {
                Value::object(vec![
                    ("size", Value::Number(size as f64)),
                    ("count", Value::Number(count as f64)),
                ])
            })
            .collect();
        Value::object(vec![
            ("id", Value::String("serve".into())),
            ("backend", Value::String(self.backend.clone())),
            ("n", Value::Number(self.n as f64)),
            ("clients", Value::Number(self.clients as f64)),
            (
                "queries_per_client",
                Value::Number(self.queries_per_client as f64),
            ),
            ("total_queries", Value::Number(self.total_queries() as f64)),
            ("window_ns", Value::Number(self.window_ns as f64)),
            ("max_batch", Value::Number(self.max_batch as f64)),
            ("workers", Value::Number(self.workers as f64)),
            ("wall_ns", Value::Number(self.wall_ns as f64)),
            ("qps", Value::Number(self.qps())),
            ("p50_ns", Value::Number(self.latency_ns(0.50) as f64)),
            ("p95_ns", Value::Number(self.latency_ns(0.95) as f64)),
            ("p99_ns", Value::Number(self.latency_ns(0.99) as f64)),
            ("batches", Value::Number(self.batches as f64)),
            ("mean_batch_size", Value::Number(self.mean_batch_size)),
            ("max_batch_size", Value::Number(self.max_batch_size as f64)),
            ("batch_histogram", Value::Array(histogram)),
            ("sweep_groups", Value::Number(self.sweep_groups as f64)),
            ("verified", Value::Bool(self.verified)),
        ])
    }
}

/// Drives a closed loop of `clients` threads, each issuing `per_client`
/// queries drawn round-robin from `pool` against one registered dataset, and
/// verifies every response against sequential expectations computed before
/// the server starts.  The dataset is prepared once (the external x-sort);
/// the measured loop is pure serving.
pub fn run_serve(
    config: EmConfig,
    objects: &[WeightedPoint],
    pool: &[Query],
    serve: ServeConfig,
    clients: usize,
    per_client: usize,
) -> Result<ServeRun, ServeError> {
    assert!(!pool.is_empty(), "query pool must not be empty");
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism: 1,
            ..Default::default()
        },
        force_strategy: None,
    });
    let registry = Arc::new(DatasetRegistry::new(engine));
    let handle = registry.insert("bench", objects)?;
    let backend = handle.backend_name().unwrap_or("memory").to_string();
    let n = handle.len();

    // Sequential ground truth, computed before the server exists.
    let expected: Vec<QueryAnswer> = pool
        .iter()
        .map(|q| handle.run(q).map(|run| run.answer))
        .collect::<Result<_, ServeError>>()?;
    drop(handle);

    let server = Arc::new(MaxRsServer::start(registry, serve)?);
    let barrier = Arc::new(Barrier::new(clients + 1));
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let pool: Vec<Query> = pool.to_vec();
            let expected = expected.clone();
            std::thread::spawn(move || -> Result<(Vec<u128>, bool), ServeError> {
                let mut latencies = Vec::with_capacity(per_client);
                let mut ok = true;
                barrier.wait();
                for j in 0..per_client {
                    // Stagger the draw per client so concurrent batches mix
                    // variants and sizes.
                    let index = (c + j) % pool.len();
                    let t = Instant::now();
                    let response = server.query("bench", pool[index])?;
                    latencies.push(t.elapsed().as_nanos());
                    ok &= response.query == pool[index] && response.run.answer == expected[index];
                }
                Ok((latencies, ok))
            })
        })
        .collect();

    barrier.wait();
    let t = Instant::now();
    let mut latencies: Vec<u128> = Vec::with_capacity(clients * per_client);
    let mut verified = true;
    for thread in threads {
        let (mut client_latencies, ok) = thread.join().expect("client panicked")?;
        latencies.append(&mut client_latencies);
        verified &= ok;
    }
    let wall_ns = t.elapsed().as_nanos();
    latencies.sort_unstable();

    let stats = server.stats();
    server.shutdown();
    verified &= stats.completed == (clients * per_client) as u64;
    Ok(ServeRun {
        backend,
        n,
        clients,
        queries_per_client: per_client,
        window_ns: u64::try_from(serve.window.as_nanos()).unwrap_or(u64::MAX),
        max_batch: serve.max_batch,
        workers: serve.workers,
        wall_ns,
        latencies_ns: latencies,
        batches: stats.batches,
        mean_batch_size: stats.mean_batch_size(),
        max_batch_size: stats.max_batch_size(),
        batch_histogram: stats.batch_size_histogram(),
        sweep_groups: stats.sweep_groups,
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_datagen::{Dataset, DatasetKind};
    use maxrs_geometry::RectSize;
    use std::time::Duration;

    #[test]
    fn closed_loop_is_verified_and_histogram_adds_up() {
        let ds = Dataset::generate(DatasetKind::Uniform, 2_000, 7);
        let config = EmConfig::new(4096, 8 * 4096).unwrap();
        let pool = [
            Query::max_rs(RectSize::square(50_000.0)),
            Query::top_k(RectSize::square(50_000.0), 2),
            Query::approx_max_crs(50_000.0),
        ];
        let serve = ServeConfig {
            window: Duration::from_millis(2),
            max_batch: 8,
            workers: 2,
            queue_capacity: 256,
            ..Default::default()
        };
        let run = run_serve(config, &ds.objects, &pool, serve, 6, 5).unwrap();
        assert!(run.verified, "served answers diverged from sequential runs");
        assert_eq!(run.total_queries(), 30);
        assert_eq!(run.latencies_ns.len(), 30);
        assert!(run.qps() > 0.0);
        assert!(run.latency_ns(0.50) <= run.latency_ns(0.95));
        assert!(run.latency_ns(0.95) <= run.latency_ns(0.99));
        // The histogram accounts for every query exactly once.
        let histogram_total: u64 = run
            .batch_histogram
            .iter()
            .map(|&(size, count)| size as u64 * count)
            .sum();
        assert_eq!(histogram_total, 30);
        assert!(run.mean_batch_size >= 1.0);

        let json = run.to_value();
        assert_eq!(json.get("id").unwrap().as_str(), Some("serve"));
        assert_eq!(
            json.get("backend").unwrap().as_str(),
            Some(config.backend.name())
        );
        assert_eq!(json.get("verified").unwrap(), &Value::Bool(true));
        assert_eq!(json.get("total_queries").unwrap().as_f64(), Some(30.0));
        assert!(json.get("p99_ns").unwrap().as_f64().unwrap() > 0.0);
        assert!(json.get("batch_histogram").unwrap().as_array().is_some());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let run = ServeRun {
            backend: "sim".into(),
            n: 0,
            clients: 1,
            queries_per_client: 4,
            window_ns: 0,
            max_batch: 1,
            workers: 1,
            wall_ns: 1,
            latencies_ns: vec![10, 20, 30, 40],
            batches: 4,
            mean_batch_size: 1.0,
            max_batch_size: 1,
            batch_histogram: vec![(1, 4)],
            sweep_groups: 4,
            verified: true,
        };
        assert_eq!(run.latency_ns(0.50), 20);
        assert_eq!(run.latency_ns(0.95), 40);
        assert_eq!(run.latency_ns(0.99), 40);
        assert_eq!(run.latency_ns(0.0), 10);
    }
}
