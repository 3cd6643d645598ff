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

use maxrs_bench::config::{ExperimentScale, PAPER_BUFFER_SYNTHETIC, PAPER_RANGE};
use maxrs_bench::figures::{
    fig12_cardinality, fig13_buffer, fig14_range, fig15_buffer_real, fig16_range_real,
    fig17_quality, FigureOptions,
};
use maxrs_bench::json::Value;
use maxrs_bench::report::FigureReport;
use maxrs_bench::shard_run::{run_shard_curve, ShardRun};
use maxrs_bench::stream_run::{run_stream, StreamRun};
use maxrs_bench::tables::{table2, table3};
use maxrs_core::Query;
use maxrs_datagen::{Dataset, DatasetKind, EventStreamConfig};
use maxrs_geometry::{Rect, RectSize};
use maxrs_stream::StreamConfig;

/// Every command the binary accepts; anything else prints the usage and
/// exits with status 1.
const COMMANDS: [&str; 11] = [
    "all", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "table2", "table3", "stream",
    "shard",
];

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
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command: {command}"));
    }
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

fn usage() -> String {
    format!(
        "usage: experiments <{}> \
         [--scale F | --paper-scale | --smoke] [--seed N] [--no-naive] [--json PATH]",
        COMMANDS.join("|")
    )
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

/// Sharded-prepare scaling: the **same** fixed input is partitioned and
/// prepared through a [`maxrs_core::ShardedDataset`] at K ∈ {1, 2, 4, 8},
/// so prepare wall-clock vs shard count is one curve (the K shard loads run
/// concurrently) and query latency vs the shards each query touches the
/// other.  The input is deliberately larger than the figure sweeps —
/// per-shard work has to dwarf the pool's spawn cost for the speedup to mean
/// anything — and the query set
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

/// Writes `rows` as the JSON array `path`, reporting the outcome.
fn write_bench(path: &str, rows: impl Iterator<Item = Value>) -> bool {
    match fs::write(path, Value::Array(rows.collect()).to_pretty_string()) {
        Ok(()) => {
            println!("wrote fixed smoke-scale rows to {path}");
            true
        }
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            false
        }
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
    let mut shard_rows: Vec<ShardRun> = Vec::new();
    if matches!(command, "shard" | "all") {
        let t = Instant::now();
        shard_rows = shard_runs(&opts);
        println!("\nshard (parallel x-partitioned prepare vs. shard count, verified):");
        print_shard_rows(&shard_rows);
        println!("[shard took {:.1?}]", t.elapsed());
    }

    // Fixed-scale regression artifacts: every `stream` / `shard` (or `all`)
    // invocation rewrites its BENCH_<command>.json at smoke scale with a
    // fixed seed, so consecutive runs produce comparable rows no matter what
    // --scale / --seed the interactive run above used.  When that run already
    // was the smoke setting, its rows are written as they are.
    let smoke = FigureOptions {
        scale: ExperimentScale::smoke(),
        seed: 42,
        algorithms: opts.algorithms,
    };
    let at_smoke = opts.scale == smoke.scale && opts.seed == smoke.seed;
    if matches!(command, "stream" | "all") {
        let rerun = (!at_smoke).then(|| stream_runs(&smoke));
        let rows = rerun.as_ref().unwrap_or(&stream_rows);
        if !write_bench("BENCH_stream.json", rows.iter().map(StreamRun::to_value)) {
            return ExitCode::FAILURE;
        }
    }
    if matches!(command, "shard" | "all") {
        let rerun = (!at_smoke).then(|| shard_runs(&smoke));
        let rows = rerun.as_ref().unwrap_or(&shard_rows);
        if !write_bench("BENCH_shard.json", rows.iter().map(ShardRun::to_value)) {
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = args.json_path {
        let values: Vec<Value> = reports
            .iter()
            .map(FigureReport::to_value)
            .chain(stream_rows.iter().map(StreamRun::to_value))
            .chain(shard_rows.iter().map(ShardRun::to_value))
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
