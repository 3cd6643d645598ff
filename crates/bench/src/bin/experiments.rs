//! Command-line experiment driver reproducing the paper's evaluation.
//!
//! ```text
//! cargo run --release -p maxrs-bench --bin experiments -- all
//! cargo run --release -p maxrs-bench --bin experiments -- fig12 --scale 0.05
//! cargo run --release -p maxrs-bench --bin experiments -- fig17 --paper-scale
//! cargo run --release -p maxrs-bench --bin experiments -- fig13 --no-naive --json out.json
//! ```
//!
//! By default the sweeps run at 4% of the paper's sizes (`--scale 0.04`) with
//! the buffer scaled proportionally, which preserves every qualitative
//! relationship of the figures while keeping the intentionally quadratic Naïve
//! baseline tractable; `--paper-scale` selects the exact paper parameters.

use std::env;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use maxrs_bench::cluster_run::{run_cluster_curve, ClusterRun};
use maxrs_bench::config::{
    ExperimentScale, PAPER_BUFFER_SYNTHETIC, PAPER_CARDINALITY, PAPER_RANGE,
};
use maxrs_bench::delta_run::{run_delta, DeltaRun};
use maxrs_bench::figures::{
    fig12_cardinality, fig13_buffer, fig14_range, fig15_buffer_real, fig16_range_real,
    fig17_quality, FigureOptions,
};
use maxrs_bench::json::Value;
use maxrs_bench::report::FigureReport;
use maxrs_bench::runner::{run_prepared_reuse, run_query_batch, BatchRun, PreparedReuseRun};
use maxrs_bench::serve_run::{run_serve, ServeRun};
use maxrs_bench::shard_run::{run_shard_curve, ShardRun};
use maxrs_bench::stream_run::{run_stream, StreamRun};
use maxrs_bench::tables::{table2, table3};
use maxrs_core::Query;
use maxrs_datagen::{Dataset, DatasetKind, EventStreamConfig};
use maxrs_geometry::{Rect, RectSize};
use maxrs_serve::{OverloadPolicy, ServeConfig};
use maxrs_stream::StreamConfig;

struct Args {
    command: String,
    scale: ExperimentScale,
    seed: u64,
    no_naive: bool,
    json_path: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "all".to_string());
    let mut parsed = Args {
        command,
        scale: ExperimentScale::default(),
        seed: 42,
        no_naive: false,
        json_path: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                let f: f64 = v.parse().map_err(|_| format!("bad scale factor: {v}"))?;
                parsed.scale = ExperimentScale::new(f);
            }
            "--paper-scale" => parsed.scale = ExperimentScale::paper(),
            "--smoke" => parsed.scale = ExperimentScale::smoke(),
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--no-naive" => parsed.no_naive = true,
            "--json" => {
                parsed.json_path = Some(args.next().ok_or("--json needs a path")?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(parsed)
}

fn usage() -> &'static str {
    "usage: experiments \
     <all|fig12|fig13|fig14|fig15|fig16|fig17|table2|table3|prepared|batch|stream|serve|delta|shard|cluster> \
     [--scale F | --paper-scale | --smoke] [--seed N] [--no-naive] [--json PATH]"
}

/// The streaming workload: replay generated insert/delete/tick sequences
/// through the incremental [`StreamEngine`](maxrs_stream::StreamEngine) —
/// plain, windowed and top-k — reporting ingest events/sec, incremental
/// answer latency and the speedup over a from-scratch recompute.  Every row
/// is verified: the final incremental answer must be bit-identical to the
/// batch engine on the surviving objects.
fn stream_runs(opts: &FigureOptions) -> Vec<StreamRun> {
    // The event count scales like the dataset cardinalities of the figures;
    // ~60k events at the default 4% scale, 15k under --smoke.  Answers are
    // taken every ~30 events — the high-frequency regime incremental
    // maintenance exists for (a full recompute per answer would dominate).
    let events = opts.scale.cardinality(1_500_000).max(1_000);
    let answer_every = (events / 500).max(1);
    let cfg = EventStreamConfig {
        events,
        ..Default::default()
    };
    let size = RectSize::square(10_000.0);
    let window = cfg.mean_dt * events as f64 / 4.0;
    let variants = [
        ("plain max-rs", StreamConfig::max_rs(size)),
        ("windowed", StreamConfig::max_rs(size).with_window(window)),
        ("top-k", StreamConfig::top_k(size, 3)),
    ];
    variants
        .iter()
        .map(|(name, config)| {
            let run =
                run_stream(&cfg, opts.seed, *config, answer_every).expect("stream replay failed");
            assert!(run.verified, "{name}: incremental answer diverged");
            run
        })
        .collect()
}

/// Cold-vs-prepared comparison at the synthetic defaults: how much I/O and
/// wall-clock a repeated-query workload saves per query by reusing one
/// [`PreparedDataset`](maxrs_core::PreparedDataset), per query variant.  The
/// storage backend in use (sim by default, `MAXRS_BACKEND=fs` for real
/// files) is recorded in every row.
fn prepared_reuse(opts: &FigureOptions) -> Vec<PreparedReuseRun> {
    let n = opts.scale.cardinality(PAPER_CARDINALITY);
    let config = opts.scale.em_config(PAPER_BUFFER_SYNTHETIC);
    let ds = Dataset::generate(DatasetKind::Uniform, n, opts.seed);
    let size = RectSize::square(PAPER_RANGE);
    [
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::approx_max_crs(PAPER_RANGE),
    ]
    .iter()
    .map(|q| {
        run_prepared_reuse(config, &ds.objects, q, 1).expect("prepared-reuse measurement failed")
    })
    .collect()
}

/// Batched-vs-independent execution of a serving-style query mix over one
/// prepared dataset: two mixes — one where every query shares a single sweep
/// group (the best case) and one mixed-size/mixed-variant workload — each
/// verified bit-identical against per-query runs and reported as
/// queries/sec + per-query I/O JSON rows.
fn batch_runs(opts: &FigureOptions) -> Vec<BatchRun> {
    let n = opts.scale.cardinality(PAPER_CARDINALITY);
    let config = opts.scale.em_config(PAPER_BUFFER_SYNTHETIC);
    let ds = Dataset::generate(DatasetKind::Uniform, n, opts.seed);
    let size = RectSize::square(PAPER_RANGE);
    let domain = Rect::new(100_000.0, 900_000.0, 100_000.0, 900_000.0);
    let shared_group: Vec<Query> = vec![
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::approx_max_crs(PAPER_RANGE),
        Query::max_rs(size),
    ];
    let mixed: Vec<Query> = vec![
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::approx_max_crs(PAPER_RANGE),
        Query::min_rs(size, domain),
        Query::max_rs(RectSize::square(PAPER_RANGE * 2.0)),
    ];
    [shared_group, mixed]
        .iter()
        .map(|queries| {
            let run =
                run_query_batch(config, &ds.objects, queries, 1).expect("batch measurement failed");
            assert!(run.verified, "batched answers diverged from per-query runs");
            run
        })
        .collect()
}

/// Closed-loop load generation against the concurrent serving layer: 8
/// client threads drive a [`MaxRsServer`](maxrs_serve::MaxRsServer) over one
/// registered dataset, once with the default dynamic micro-batching and once
/// in pass-through mode (`max_batch = 1`) as the no-batching baseline.  The
/// batched row must show a mean flushed batch size above 1 — the direct
/// evidence that strangers' queries shared sweep passes — and every response
/// in both rows is verified bit-identical to a sequential run.
fn serve_runs(opts: &FigureOptions) -> Vec<ServeRun> {
    let n = opts.scale.cardinality(PAPER_CARDINALITY);
    let config = opts.scale.em_config(PAPER_BUFFER_SYNTHETIC);
    let ds = Dataset::generate(DatasetKind::Uniform, n, opts.seed);
    let size = RectSize::square(PAPER_RANGE);
    let domain = Rect::new(100_000.0, 900_000.0, 100_000.0, 900_000.0);
    let pool = vec![
        Query::max_rs(size),
        Query::top_k(size, 2),
        Query::approx_max_crs(PAPER_RANGE),
        Query::min_rs(size, domain),
        Query::max_rs(RectSize::square(PAPER_RANGE * 2.0)),
    ];
    let batched = ServeConfig {
        window: std::time::Duration::from_millis(3),
        max_batch: 8,
        workers: 2,
        queue_capacity: 1024,
        overload: OverloadPolicy::Block,
    };
    let pass_through = ServeConfig {
        max_batch: 1,
        ..batched
    };
    let run =
        run_serve(config, &ds.objects, &pool, batched, 8, 12).expect("serve measurement failed");
    assert!(run.verified, "served answers diverged from sequential runs");
    assert!(
        run.mean_batch_size > 1.0,
        "micro-batching never grouped concurrent queries (mean batch size {})",
        run.mean_batch_size
    );
    let baseline = run_serve(config, &ds.objects, &pool, pass_through, 8, 12)
        .expect("serve baseline measurement failed");
    assert!(baseline.verified, "pass-through answers diverged");
    vec![run, baseline]
}

/// The delta-main workload: replay insert/delete event streams into a
/// [`DeltaDataset`](maxrs_core::DeltaDataset), measuring query latency as
/// the pending delta grows, then the compaction's cost against its `2·N/B`
/// sequential-merge floor — once with moderate and once with heavy delete
/// churn (the tombstone-dominated regime).  Every measured answer is
/// verified bit-identical to a from-scratch prepare over the survivors.
fn delta_runs(opts: &FigureOptions) -> Vec<DeltaRun> {
    let events = opts.scale.cardinality(800_000).max(2_000);
    let config = opts.scale.em_config(PAPER_BUFFER_SYNTHETIC);
    let query = Query::max_rs(RectSize::square(10_000.0));
    [0.15, 0.4]
        .iter()
        .map(|&delete_fraction| {
            let cfg = EventStreamConfig {
                events,
                delete_fraction,
                ..Default::default()
            };
            let run = run_delta(&cfg, opts.seed, config, &query, 8).expect("delta replay failed");
            assert!(run.verified, "delta answers diverged from prepare");
            run
        })
        .collect()
}

/// Sharded-prepare scaling: the **same** fixed input is partitioned and
/// prepared through a [`maxrs_core::ShardedDataset`] at K ∈ {1, 2, 4, 8},
/// so prepare wall-clock vs shard count is the curve (the headline: the
/// one-time external sort scales with cores).  The input is deliberately
/// larger than the figure sweeps — per-shard sort work has to dwarf the
/// pool's spawn cost for the speedup to mean anything — and the query set
/// mixes whole-domain MaxRS/top-k with narrow- and wide-domain MinRS so the
/// samples cover the shards-touched spectrum.  Every sampled answer of
/// every row is verified bit-identical to an unsharded prepare.
fn shard_runs(opts: &FigureOptions) -> Vec<ShardRun> {
    let n = opts.scale.cardinality(12_000_000).max(20_000);
    let config = opts.scale.em_config(PAPER_BUFFER_SYNTHETIC);
    let ds = Dataset::generate(DatasetKind::Uniform, n, opts.seed);
    let size = RectSize::square(PAPER_RANGE);
    let queries = vec![
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::min_rs(size, Rect::new(450_000.0, 470_000.0, 0.0, 1_000_000.0)),
        Query::min_rs(size, Rect::new(100_000.0, 900_000.0, 100_000.0, 900_000.0)),
    ];
    let rows = run_shard_curve(config, &ds.objects, &[1, 2, 4, 8], &queries)
        .expect("shard scaling measurement failed");
    for row in &rows {
        assert!(
            row.verified,
            "K={} sharded answers diverged from the unsharded prepare",
            row.shards_requested
        );
    }
    rows
}

/// Cluster scale-out: the same fixed input at a fixed shard count (K = 6)
/// is hosted on 1, 2, 3 and 6 [`maxrs_cluster::ShardServer`]s over the
/// in-process transport, plus one row over real TCP loopback at 6 servers,
/// so query latency and queries/sec vs server count is the curve and the
/// TCP row isolates the wire cost.  The query set mixes whole-domain
/// MaxRS/top-k with narrow- and wide-domain MinRS so the samples cover the
/// shards-touched (and hence fan-out) spectrum.  Every sampled answer of
/// every row is verified bit-identical to an unsharded prepare.
fn cluster_runs(opts: &FigureOptions) -> Vec<ClusterRun> {
    let n = opts.scale.cardinality(PAPER_CARDINALITY).max(5_000);
    let config = opts.scale.em_config(PAPER_BUFFER_SYNTHETIC);
    let ds = Dataset::generate(DatasetKind::Uniform, n, opts.seed);
    let size = RectSize::square(PAPER_RANGE);
    let queries = vec![
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::min_rs(size, Rect::new(450_000.0, 470_000.0, 0.0, 1_000_000.0)),
        Query::min_rs(size, Rect::new(100_000.0, 900_000.0, 100_000.0, 900_000.0)),
    ];
    let rows = run_cluster_curve(config, &ds.objects, 6, &[1, 2, 3, 6], &queries)
        .expect("cluster scale-out measurement failed");
    for row in &rows {
        assert!(
            row.verified,
            "{} x{} cluster answers diverged from the unsharded prepare",
            row.transport, row.servers
        );
    }
    rows
}

fn print_cluster_rows(rows: &[ClusterRun]) {
    for row in rows {
        let samples: Vec<String> = row
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{}:{}sh/{}srv {:.1?}/{}",
                    s.query,
                    s.shards_touched,
                    s.fan_out,
                    std::time::Duration::from_nanos(s.query_ns as u64),
                    s.query_io
                )
            })
            .collect();
        println!(
            "  backend={:<4} transport={:<10} n={} K={} servers={} qps={:.1} queries=[{}]",
            row.backend,
            row.transport,
            row.n,
            row.shards,
            row.servers,
            row.qps(),
            samples.join(", "),
        );
    }
}

fn print_shard_rows(rows: &[ShardRun]) {
    for row in rows {
        let lens: Vec<String> = row.shard_lens.iter().map(|l| l.to_string()).collect();
        let samples: Vec<String> = row
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{}:{}sh {:.1?}/{}",
                    s.query,
                    s.shards_touched,
                    std::time::Duration::from_nanos(s.query_ns as u64),
                    s.query_io
                )
            })
            .collect();
        println!(
            "  backend={:<4} n={} K={}({} built) prepare={:.1?}/{} blk \
             speedup={:.2}x lens=[{}] queries=[{}]",
            row.backend,
            row.n,
            row.shards_requested,
            row.shards,
            std::time::Duration::from_nanos(row.prepare_ns as u64),
            row.prepare_io.total(),
            row.speedup_vs_one,
            lens.join(", "),
            samples.join(", "),
        );
    }
}

fn print_delta_rows(rows: &[DeltaRun]) {
    for row in rows {
        let curve: Vec<String> = row
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{}@{:.1?}",
                    s.delta_len,
                    std::time::Duration::from_nanos(s.query_ns as u64)
                )
            })
            .collect();
        println!(
            "  backend={:<4} events={} survivors={} ingest={:.0} ev/s \
             delta_max={} compact={:.1?}/{} (floor {} blk) warm={:.1?}/{} \
             curve=[{}]",
            row.backend,
            row.events,
            row.survivors,
            row.events_per_sec,
            row.delta_len_max,
            std::time::Duration::from_nanos(row.compact_ns as u64),
            row.compact_io,
            row.merge_floor_blocks,
            std::time::Duration::from_nanos(row.compacted_query_ns as u64),
            row.compacted_query_io,
            curve.join(", "),
        );
    }
}

fn print_serve_rows(rows: &[ServeRun]) {
    for row in rows {
        let histogram: Vec<String> = row
            .batch_histogram
            .iter()
            .map(|(size, count)| format!("{size}x{count}"))
            .collect();
        println!(
            "  backend={:<4} n={} clients={} window={:.1?} max_batch={} workers={} \
             qps={:.0} p50={:.1?} p95={:.1?} p99={:.1?} mean_batch={:.2} \
             groups={} hist=[{}]",
            row.backend,
            row.n,
            row.clients,
            std::time::Duration::from_nanos(row.window_ns),
            row.max_batch,
            row.workers,
            row.qps(),
            std::time::Duration::from_nanos(row.latency_ns(0.50) as u64),
            std::time::Duration::from_nanos(row.latency_ns(0.95) as u64),
            std::time::Duration::from_nanos(row.latency_ns(0.99) as u64),
            row.mean_batch_size,
            row.sweep_groups,
            histogram.join(", "),
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let mut opts = FigureOptions {
        scale: args.scale,
        seed: args.seed,
        algorithms: [true, true, true],
    };
    if args.no_naive {
        opts = opts.without_naive();
    }

    println!(
        "MaxRS experiment harness — scale factor {:.3}{}, seed {}",
        opts.scale.factor,
        if opts.scale.is_paper_scale() {
            " (paper scale)"
        } else {
            ""
        },
        opts.seed
    );

    let mut reports: Vec<FigureReport> = Vec::new();
    let start = Instant::now();
    let run =
        |name: &str, f: &mut dyn FnMut() -> Vec<FigureReport>, reports: &mut Vec<FigureReport>| {
            let t = Instant::now();
            let mut rs = f();
            for r in &rs {
                println!("\n{}", r.to_table_string());
            }
            println!("[{name} took {:.1?}]", t.elapsed());
            reports.append(&mut rs);
        };

    let command = args.command.as_str();
    if matches!(command, "table2" | "all") {
        println!("\n{}", table2(opts.scale, opts.seed));
    }
    if matches!(command, "table3" | "all") {
        println!("\n{}", table3(opts.scale));
    }
    if matches!(command, "fig12" | "all") {
        run("fig12", &mut || fig12_cardinality(&opts), &mut reports);
    }
    if matches!(command, "fig13" | "all") {
        run("fig13", &mut || fig13_buffer(&opts), &mut reports);
    }
    if matches!(command, "fig14" | "all") {
        run("fig14", &mut || fig14_range(&opts), &mut reports);
    }
    if matches!(command, "fig15" | "all") {
        run("fig15", &mut || fig15_buffer_real(&opts), &mut reports);
    }
    if matches!(command, "fig16" | "all") {
        run("fig16", &mut || fig16_range_real(&opts), &mut reports);
    }
    if matches!(command, "fig17" | "all") {
        run("fig17", &mut || vec![fig17_quality(&opts)], &mut reports);
    }
    let mut prepared_rows: Vec<PreparedReuseRun> = Vec::new();
    if matches!(command, "prepared" | "all") {
        let t = Instant::now();
        prepared_rows = prepared_reuse(&opts);
        println!("\nprepared_reuse (backend, per-query cold vs. warm):");
        for row in &prepared_rows {
            println!(
                "  {:<14} backend={:<4} n={} cold={:.1?}/{} prepare={:.1?}/{} warm={:.1?}/{}",
                row.query,
                row.backend,
                row.n,
                std::time::Duration::from_nanos(row.cold_ns as u64),
                row.cold_io,
                std::time::Duration::from_nanos(row.prepare_ns as u64),
                row.prepare_io,
                std::time::Duration::from_nanos(row.warm_ns as u64),
                row.warm_io,
            );
        }
        println!("[prepared took {:.1?}]", t.elapsed());
    }
    let mut batch_rows: Vec<BatchRun> = Vec::new();
    if matches!(command, "batch" | "all") {
        let t = Instant::now();
        batch_rows = batch_runs(&opts);
        println!("\nbatch (shared sweep passes vs. independent runs, verified):");
        for row in &batch_rows {
            println!(
                "  [{}] backend={:<4} n={} groups={}/{} batch={:.1?}/{} ({:.0} q/s) \
                 independent={:.1?}/{} ({:.0} q/s)",
                row.queries.join(","),
                row.backend,
                row.n,
                row.groups,
                row.queries.len(),
                std::time::Duration::from_nanos(row.batch_ns as u64),
                row.batch_io,
                row.batch_qps(),
                std::time::Duration::from_nanos(row.independent_ns as u64),
                row.independent_io,
                row.independent_qps(),
            );
        }
        println!("[batch took {:.1?}]", t.elapsed());
    }
    let mut stream_rows: Vec<StreamRun> = Vec::new();
    if matches!(command, "stream" | "all") {
        let t = Instant::now();
        stream_rows = stream_runs(&opts);
        println!("\nstream (incremental maintenance vs. full recompute, verified):");
        for row in &stream_rows {
            println!(
                "  {:<8} window={:<9} events={} survivors={} expired={} \
                 ingest={:.0} ev/s answer_mean={:.1?} answer_max={:.1?} \
                 recompute={:.1?} cells {:.1}/{} swept/total",
                row.query,
                row.window.map_or("none".to_string(), |w| format!("{w:.0}")),
                row.events,
                row.survivors,
                row.expired,
                row.events_per_sec,
                std::time::Duration::from_nanos(row.answer_ns_mean as u64),
                std::time::Duration::from_nanos(row.answer_ns_max as u64),
                std::time::Duration::from_nanos(row.full_recompute_ns as u64),
                row.cells_swept_mean,
                row.cells_total,
            );
        }
        println!("[stream took {:.1?}]", t.elapsed());
    }
    let mut serve_rows: Vec<ServeRun> = Vec::new();
    if matches!(command, "serve" | "all") {
        let t = Instant::now();
        serve_rows = serve_runs(&opts);
        println!("\nserve (closed-loop clients vs. micro-batching server, verified):");
        print_serve_rows(&serve_rows);
        println!("[serve took {:.1?}]", t.elapsed());
    }
    let mut delta_rows: Vec<DeltaRun> = Vec::new();
    if matches!(command, "delta" | "all") {
        let t = Instant::now();
        delta_rows = delta_runs(&opts);
        println!("\ndelta (delta-main queries + compaction vs. merge floor, verified):");
        print_delta_rows(&delta_rows);
        println!("[delta took {:.1?}]", t.elapsed());
    }
    let mut shard_rows: Vec<ShardRun> = Vec::new();
    if matches!(command, "shard" | "all") {
        let t = Instant::now();
        shard_rows = shard_runs(&opts);
        println!("\nshard (parallel x-partitioned prepare vs. shard count, verified):");
        print_shard_rows(&shard_rows);
        println!("[shard took {:.1?}]", t.elapsed());
    }
    let mut cluster_rows: Vec<ClusterRun> = Vec::new();
    if matches!(command, "cluster" | "all") {
        let t = Instant::now();
        cluster_rows = cluster_runs(&opts);
        println!("\ncluster (multi-node scale-out at fixed K, both transports, verified):");
        print_cluster_rows(&cluster_rows);
        println!("[cluster took {:.1?}]", t.elapsed());
    }
    if !matches!(
        command,
        "all"
            | "fig12"
            | "fig13"
            | "fig14"
            | "fig15"
            | "fig16"
            | "fig17"
            | "table2"
            | "table3"
            | "prepared"
            | "batch"
            | "stream"
            | "serve"
            | "delta"
            | "shard"
            | "cluster"
    ) {
        eprintln!("unknown command: {command}\n{}", usage());
        return ExitCode::FAILURE;
    }

    // Fixed-scale regression artifacts: every `prepared` / `batch` /
    // `stream` / `serve` / `delta` / `shard` / `cluster` (or `all`)
    // invocation rewrites
    // its BENCH_<command>.json at smoke scale with a fixed seed, so
    // consecutive runs produce comparable rows no matter what
    // --scale / --seed the interactive sweep above used.
    let smoke = FigureOptions {
        scale: ExperimentScale::smoke(),
        seed: 42,
        algorithms: opts.algorithms,
    };
    let write_bench = |path: &str, rows: Vec<Value>| -> bool {
        match fs::write(path, Value::Array(rows).to_pretty_string()) {
            Ok(()) => {
                println!("wrote fixed smoke-scale rows to {path}");
                true
            }
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                false
            }
        }
    };
    if matches!(command, "prepared" | "all") {
        let rows = prepared_reuse(&smoke)
            .iter()
            .map(PreparedReuseRun::to_value)
            .collect();
        if !write_bench("BENCH_prepared.json", rows) {
            return ExitCode::FAILURE;
        }
    }
    if matches!(command, "batch" | "all") {
        let rows = batch_runs(&smoke).iter().map(BatchRun::to_value).collect();
        if !write_bench("BENCH_batch.json", rows) {
            return ExitCode::FAILURE;
        }
    }
    if matches!(command, "stream" | "all") {
        let rows = stream_runs(&smoke)
            .iter()
            .map(StreamRun::to_value)
            .collect();
        if !write_bench("BENCH_stream.json", rows) {
            return ExitCode::FAILURE;
        }
    }
    if matches!(command, "serve" | "all") {
        let rows = serve_runs(&smoke).iter().map(ServeRun::to_value).collect();
        if !write_bench("BENCH_serve.json", rows) {
            return ExitCode::FAILURE;
        }
    }
    if matches!(command, "delta" | "all") {
        let rows = delta_runs(&smoke).iter().map(DeltaRun::to_value).collect();
        if !write_bench("BENCH_delta.json", rows) {
            return ExitCode::FAILURE;
        }
    }
    if matches!(command, "shard" | "all") {
        let rows = shard_runs(&smoke).iter().map(ShardRun::to_value).collect();
        if !write_bench("BENCH_shard.json", rows) {
            return ExitCode::FAILURE;
        }
    }
    if matches!(command, "cluster" | "all") {
        let rows = cluster_runs(&smoke)
            .iter()
            .map(ClusterRun::to_value)
            .collect();
        if !write_bench("BENCH_cluster.json", rows) {
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = args.json_path {
        let values: Vec<Value> = reports
            .iter()
            .map(FigureReport::to_value)
            .chain(prepared_rows.iter().map(PreparedReuseRun::to_value))
            .chain(batch_rows.iter().map(BatchRun::to_value))
            .chain(stream_rows.iter().map(StreamRun::to_value))
            .chain(serve_rows.iter().map(ServeRun::to_value))
            .chain(delta_rows.iter().map(DeltaRun::to_value))
            .chain(shard_rows.iter().map(ShardRun::to_value))
            .chain(cluster_rows.iter().map(ClusterRun::to_value))
            .collect();
        let count = values.len();
        let json = Value::Array(values).to_pretty_string();
        if let Err(e) = fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {count} reports to {path}");
    }
    println!("total time: {:.1?}", start.elapsed());
    ExitCode::SUCCESS
}
