//! Sharded-prepare scaling measurements: the same fixed input prepared
//! through [`ShardedDataset`](maxrs_core::ShardedDataset) at increasing
//! shard counts — prepare wall-clock vs `K` (the `K` shard loads run
//! concurrently, each onto its own device), per-shard I/O, and query latency
//! vs the number of shards each query actually touches — the measurements
//! behind the `shard` command of the experiment harness.

use std::time::Instant;

use maxrs_core::{EngineOptions, ExactMaxRsOptions, MaxRsEngine, Query, QueryAnswer, ShardLayout};
use maxrs_em::{EmConfig, IoSnapshot};
use maxrs_geometry::WeightedPoint;

use crate::json::Value;

/// One measured query against a sharded dataset: how many shards the
/// router engaged and what the answer cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQuerySample {
    /// Short name of the query variant ("max-rs", "min-rs", ...).
    pub query: String,
    /// Shards the rect-size-inflated query was routed to.
    pub shards_touched: usize,
    /// Wall-clock of the query, in nanoseconds.
    pub query_ns: u128,
    /// Blocks transferred by the query across all engaged shards.
    pub query_io: u64,
}

/// Outcome of preparing one fixed input at one shard count: prepare cost
/// (wall-clock + logical I/O, total and per shard), the resulting balance,
/// and a set of verified query samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRun {
    /// Storage-backend name of the shard contexts ("sim", "fs").
    pub backend: String,
    /// Objects in the fixed input.
    pub n: usize,
    /// Shard count requested via [`ShardLayout::new`].
    pub shards_requested: usize,
    /// Shards actually built (boundary dedupe can collapse ties).
    pub shards: usize,
    /// Objects per shard, in x order — the balance the sampling pass bought.
    pub shard_lens: Vec<u64>,
    /// Wall-clock of the whole sharded prepare, in nanoseconds.
    pub prepare_ns: u128,
    /// Logical blocks transferred by the prepare, summed over shards.
    pub prepare_io: IoSnapshot,
    /// Per-shard logical I/O of the prepare, in x order.
    pub per_shard_io: Vec<IoSnapshot>,
    /// Prepare wall-clock of this run relative to the `K = 1` run of the
    /// same curve (`1.0` for the `K = 1` row itself; `0.0` when the run was
    /// measured outside a curve).
    pub speedup_vs_one: f64,
    /// The query samples, one per measured variant.
    pub samples: Vec<ShardQuerySample>,
    /// `true` when every sampled answer was bit-identical to an unsharded
    /// [`MaxRsEngine::prepare`] over the same input.
    pub verified: bool,
}

impl ShardRun {
    /// Serializes the run for the experiment harness's JSON output.
    pub fn to_value(&self) -> Value {
        let samples: Vec<Value> = self
            .samples
            .iter()
            .map(|s| {
                Value::object(vec![
                    ("query", Value::String(s.query.clone())),
                    ("shards_touched", Value::Number(s.shards_touched as f64)),
                    ("query_ns", Value::Number(s.query_ns as f64)),
                    ("query_io", Value::Number(s.query_io as f64)),
                ])
            })
            .collect();
        let lens: Vec<Value> = self
            .shard_lens
            .iter()
            .map(|&l| Value::Number(l as f64))
            .collect();
        let per_shard: Vec<Value> = self
            .per_shard_io
            .iter()
            .map(|io| Value::Number(io.total() as f64))
            .collect();
        Value::object(vec![
            ("id", Value::String("shard".into())),
            ("backend", Value::String(self.backend.clone())),
            ("n", Value::Number(self.n as f64)),
            (
                "shards_requested",
                Value::Number(self.shards_requested as f64),
            ),
            ("shards", Value::Number(self.shards as f64)),
            ("shard_lens", Value::Array(lens)),
            ("prepare_ns", Value::Number(self.prepare_ns as f64)),
            ("prepare_io", Value::Number(self.prepare_io.total() as f64)),
            ("per_shard_io", Value::Array(per_shard)),
            ("speedup_vs_one", Value::Number(self.speedup_vs_one)),
            ("samples", Value::Array(samples)),
            ("verified", Value::Bool(self.verified)),
        ])
    }
}

/// Prepares `objects` once at shard count `shards` under `config` with
/// `shards` prepare workers, then answers every query in `queries`,
/// verifying each answer against `expected` (the unsharded answers in the
/// same order).  `speedup_vs_one` is left at `0.0`; [`run_shard_curve`]
/// fills it in relative to its `K = 1` row.
pub fn run_shard(
    config: EmConfig,
    objects: &[WeightedPoint],
    shards: usize,
    queries: &[Query],
    expected: &[QueryAnswer],
) -> maxrs_core::Result<ShardRun> {
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions {
            parallelism: shards.max(1),
            ..ExactMaxRsOptions::default()
        },
        force_strategy: None,
    });
    let layout = ShardLayout::new(shards);

    let t = Instant::now();
    let sharded = engine.prepare_sharded(objects, &layout)?;
    let prepare_ns = t.elapsed().as_nanos();

    let mut samples = Vec::with_capacity(queries.len());
    let mut verified = true;
    for (query, want) in queries.iter().zip(expected) {
        let shards_touched = sharded.shards_touched(query);
        let t = Instant::now();
        let run = sharded.run(query)?;
        samples.push(ShardQuerySample {
            query: query.name().to_string(),
            shards_touched,
            query_ns: t.elapsed().as_nanos(),
            query_io: run.io.total(),
        });
        verified &= run.answer == *want;
    }

    Ok(ShardRun {
        backend: sharded.backend_name().to_string(),
        n: objects.len(),
        shards_requested: shards,
        shards: sharded.num_shards(),
        shard_lens: sharded.shard_lens(),
        prepare_ns,
        prepare_io: sharded.prepare_io(),
        per_shard_io: sharded.prepare_io_per_shard(),
        speedup_vs_one: 0.0,
        samples,
        verified,
    })
}

/// The scaling curve: one unsharded prepare establishes the reference
/// answers, then the **same** input is prepared at every shard count in
/// `shard_counts` and each run's prepare wall-clock is related to the
/// `K = 1` row's (`speedup_vs_one`).  Every sampled answer of every row is
/// verified bit-identical to the unsharded reference.
pub fn run_shard_curve(
    config: EmConfig,
    objects: &[WeightedPoint],
    shard_counts: &[usize],
    queries: &[Query],
) -> maxrs_core::Result<Vec<ShardRun>> {
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: config,
        exact: ExactMaxRsOptions::default(),
        force_strategy: None,
    });
    let reference = engine.prepare(objects)?;
    let expected: Vec<QueryAnswer> = queries
        .iter()
        .map(|q| reference.run(q).map(|r| r.answer))
        .collect::<maxrs_core::Result<_>>()?;

    let mut rows = Vec::with_capacity(shard_counts.len());
    for &k in shard_counts {
        rows.push(run_shard(config, objects, k, queries, &expected)?);
    }
    let base_ns = rows
        .iter()
        .find(|r| r.shards_requested == 1)
        .or(rows.first())
        .map_or(0, |r| r.prepare_ns);
    for row in &mut rows {
        row.speedup_vs_one = if row.prepare_ns > 0 {
            base_ns as f64 / row.prepare_ns as f64
        } else {
            f64::INFINITY
        };
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_datagen::{Dataset, DatasetKind};
    use maxrs_geometry::{Rect, RectSize};

    #[test]
    fn curve_is_verified_and_routes_queries() {
        let config = EmConfig::new(512, 32 * 512).unwrap();
        let ds = Dataset::generate(DatasetKind::Uniform, 1_500, 7);
        let size = RectSize::square(40_000.0);
        let queries = vec![
            Query::max_rs(size),
            Query::top_k(size, 3),
            Query::min_rs(size, Rect::new(450_000.0, 470_000.0, 0.0, 1_000_000.0)),
        ];
        let rows = run_shard_curve(config, &ds.objects, &[1, 2, 4], &queries).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.verified, "K={} answers diverged", row.shards_requested);
            assert_eq!(row.samples.len(), queries.len());
            assert_eq!(row.shard_lens.iter().sum::<u64>(), 1_500);
            assert_eq!(row.per_shard_io.len(), row.shards);
            assert!(row.speedup_vs_one > 0.0);
        }
        assert_eq!(rows[0].shards, 1);
        assert!((rows[0].speedup_vs_one - 1.0).abs() < 1e-12);
        // The narrow-domain MinRS must engage fewer shards than MaxRS once
        // the x-domain is actually split.
        let wide = rows[2].samples[0].shards_touched;
        let narrow = rows[2].samples[2].shards_touched;
        assert!(narrow <= wide, "narrow domain touched more shards");
        assert!(narrow < rows[2].shards, "routing never pruned a shard");

        let json = rows[1].to_value();
        assert_eq!(json.get("id").unwrap().as_str(), Some("shard"));
        assert_eq!(json.get("verified").unwrap(), &Value::Bool(true));
        let samples = match json.get("samples").unwrap() {
            Value::Array(s) => s,
            other => panic!("samples must be an array, got {other:?}"),
        };
        assert_eq!(samples.len(), queries.len());
    }
}
