//! The maxrs benchmark: four pinned single-client workloads through the
//! public APIs of `maxrs-core`, `maxrs-em`, `maxrs-serve` and
//! `maxrs-cluster`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload tiny-buffer --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) run the workload once untraced and once traced, and print
//! the per-layer metrics taken from spans around the benchmark's own calls
//! into each layer.  Every answer is checked.  The last line of standard
//! output is the JSON result; the line before it records the run's
//! provenance.  `--seconds` fixes the amount of work, in whole query cycles
//! or client rounds at each workload's nominal rate, so sample counts and
//! exact counts repeat from run to run.

mod em;
mod instruments;
mod report;
mod serving;
mod trace;

use std::path::PathBuf;

use report::{Metrics, Outcome, Record};

/// Identical set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// Whole cycles (or rounds) filling `--seconds` at the nominal rate.
    pub fn whole_units(&self, nominal_seconds: f64) -> usize {
        ((self.seconds / nominal_seconds).round() as usize).max(1)
    }
}

/// Renders any error as a message.
pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Where traces and filesystem-device files go: inside the benchmark's
/// own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans to `out/trace-<workload>-<seed>.jsonl` and
/// records the path on the provenance line.
pub fn write_trace(
    args: &RunArgs,
    tracer: &trace::Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer.write(&path).map_err(err)?;
        out.provenance
            .str("trace_file", &path.display().to_string());
    }
    Ok(())
}

/// Every per-layer metric with its unit.  A workload that does not reach a
/// layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("em.load.ms", "ms"),
    ("em.sort.ms", "ms"),
    ("em.sort.io_blocks", "blocks"),
    ("em.device.read_ms", "ms"),
    ("em.device.write_ms", "ms"),
    ("em.device.reads", "count"),
    ("em.device.writes", "count"),
    ("em.pool.hit_ratio", "ratio"),
    ("core.sweep.transform.ms", "ms"),
    ("core.sweep.extract.ms", "ms"),
    ("core.sweep.canonicalize.ms", "ms"),
    ("core.slab.partition.ms", "ms"),
    ("core.slab.distribute.ms", "ms"),
    ("core.slab.pieces_per_rect", "ratio"),
    ("core.sweep.children.ms", "ms"),
    ("core.sweep.children.io_blocks", "blocks"),
    ("core.merge_sweep.ms", "ms"),
    ("core.merge_sweep.io_blocks", "blocks"),
    ("core.sweep.io_over_bound", "ratio"),
    ("core.approx.refine.ms", "ms"),
    ("core.batch.plan.ms", "ms"),
    ("core.batch.groups_per_query", "ratio"),
    ("core.prepared.exec.ms", "ms"),
    ("core.delta.apply.ms", "ms"),
    ("core.delta.compact.ms", "ms"),
    ("core.delta.snapshot.ms", "ms"),
    ("core.delta.snapshot.io_blocks", "blocks"),
    ("core.delta.compactions", "count"),
    ("core.delta.pending", "count"),
    ("core.shard.touched_per_query", "count"),
    ("serve.queue_wait.ms", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.shed_share", "ratio"),
    ("serve.registry.apply.ms", "ms"),
    ("serve.registry.swap.ms", "ms"),
    ("serve.write.p50_ms", "ms"),
    ("serve.write.tail_ms", "ms"),
    ("cluster.rpc.count_per_query", "count"),
    ("cluster.rpc.busy_ms", "ms"),
    ("cluster.coordinator.self_ms", "ms"),
    ("cluster.wire.bytes_per_query", "bytes"),
    ("cluster.rpc.attempts_per_request", "ratio"),
    ("cluster.fan_out_per_query", "count"),
    ("trace.overhead", "ratio"),
];

/// Adds every per-layer metric the workload did not set, as 0, and puts
/// them in [`PER_LAYER`] order.
pub fn zero_unset_per_layer(m: &mut Metrics) {
    let mut ordered = Metrics::default();
    for &(name, unit) in PER_LAYER {
        ordered.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    *m = ordered;
}

/// Why each workload exists and which layers it loads and bypasses.
fn rationale(workload: &str) -> (&'static str, &'static str, &'static str) {
    match workload {
        "tiny-buffer" => (
            "the paper's I/O-bound regime: 16-block buffer, rectangles 50x the buffer, one query past the onset of the slab-clamp cliff",
            "em device (fs), buffer pool, external sort, slab distribution, deep recursion, 14-way MergeSweep",
            "serve, delta, batch sharing, cluster",
        ),
        "wide-buffer" => (
            "the engine's default 1 MiB budget, where time stops following I/O (254-way MergeSweep head scans)",
            "slab distribution, 254-way MergeSweep, external sort merge, RAM device",
            "block device cost, serve, delta, batch sharing, cluster",
        ),
        "serve-rw" => (
            "the serving path end to end with writes beside reads",
            "MaxRsServer batching, QueryBatch sweep groups, DatasetRegistry apply and swap, DeltaDataset apply/compact/snapshot, EM sweep on snapshots",
            "block device cost (RAM), cluster",
        ),
        "scale-out" => (
            "the multi-node path over the real wire protocol",
            "MaxRsServer, ClusterCoordinator routing, TCP transport, encode/decode, partial-result MergeSweep",
            "EM layer (shards fit in memory), delta",
        ),
        _ => ("", "", ""),
    }
}

const USAGE: &str =
    "usage: maxrs-benchmark --workload <tiny-buffer|wide-buffer|serve-rw|scale-out> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(err)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(err)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "tiny-buffer" => em::run(&em::TINY_BUFFER, &args),
        "wide-buffer" => em::run(&em::WIDE_BUFFER, &args),
        "serve-rw" => serving::run_serve_rw(&args),
        "scale-out" => serving::run_scale_out(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome: Outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (why, loads, bypasses) = rationale(&args.workload);
    let mut prov = Record::default();
    prov.str("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("trace", f64::from(u8::from(args.trace)))
        .num("nproc", cores as f64)
        .str("why", why)
        .str("loads", loads)
        .str("bypasses", bypasses)
        .num(
            "failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        )
        .raw("run", outcome.provenance.json())
        .raw("exact", outcome.exact.json());
    if !outcome.check_failures.is_empty() {
        let list: Vec<String> = outcome
            .check_failures
            .iter()
            .map(|s| report::string(s))
            .collect();
        prov.raw("check_failures", format!("[{}]", list.join(", ")));
    }
    println!("{{\"provenance\": {}}}", prov.json());
    println!("{}", outcome.result_line());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
