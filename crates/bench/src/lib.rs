//! Experiment harness reproducing the paper's evaluation (Section 7).
//!
//! Every table and figure of the paper has a corresponding runner here:
//!
//! | Paper artifact | Runner | What it sweeps |
//! |---|---|---|
//! | Table 2 | [`tables::table2`] | real-dataset cardinalities |
//! | Table 3 | [`tables::table3`] | default parameters |
//! | Figure 12 | [`figures::fig12_cardinality`] | I/O vs cardinality (Gaussian, Uniform) |
//! | Figure 13 | [`figures::fig13_buffer`] | I/O vs buffer size (synthetic) |
//! | Figure 14 | [`figures::fig14_range`] | I/O vs range size (synthetic) |
//! | Figure 15 | [`figures::fig15_buffer_real`] | I/O vs buffer size (UX, NE) |
//! | Figure 16 | [`figures::fig16_range_real`] | I/O vs range size (UX, NE) |
//! | Figure 17 | [`figures::fig17_quality`] | approximation ratio vs diameter |
//!
//! The `experiments` binary drives these runners from the command line and
//! prints the same rows/series the paper reports; `cargo bench` runs reduced
//! Criterion configurations for wall-clock regression tracking.
//!
//! Beyond the paper's own evaluation, the binary also measures the
//! workspace's extensions: `prepared` (sort-once repeated querying, see
//! [`runner::run_prepared_reuse`]), `stream` (incremental MaxRS over
//! event streams, see [`stream_run::run_stream`] — ingest events/sec,
//! incremental answer latency and the speedup over full recomputes),
//! `serve` (closed-loop load generation against the concurrent serving
//! layer, see [`serve_run::run_serve`] — queries/sec, latency percentiles
//! and the micro-batch size histogram, every response verified) and
//! `delta` (event replay into a delta-main [`maxrs_core::DeltaDataset`],
//! see [`delta_run::run_delta`] — query latency as the pending delta grows
//! and compaction cost against its `2·N/B` sequential-merge floor, every
//! answer verified against a from-scratch prepare) and `shard` (the same
//! fixed input prepared through a [`maxrs_core::ShardedDataset`] at
//! increasing shard counts, see [`shard_run::run_shard_curve`] — prepare
//! wall-clock vs shard count, per-shard I/O and query latency vs
//! shards-touched, every answer verified against an unsharded prepare)
//! and `cluster` (the same fixed input at a fixed shard count hosted on an
//! increasing number of [`maxrs_cluster::ShardServer`]s, see
//! [`cluster_run::run_cluster_curve`] — query latency and queries/sec vs
//! server count over the in-process transport plus one row over real TCP
//! loopback, fan-out vs shards-touched per sample, every answer verified
//! against an unsharded prepare).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_run;
pub mod config;
pub mod delta_run;
pub mod figures;
pub mod json;
pub mod report;
pub mod runner;
pub mod serve_run;
pub mod shard_run;
pub mod stream_run;
pub mod tables;

pub use cluster_run::{run_cluster, run_cluster_curve, ClusterQuerySample, ClusterRun};
pub use config::{ExperimentScale, PAPER_BLOCK_SIZE};
pub use delta_run::{run_delta, DeltaRun};
pub use report::{FigureReport, Series, SeriesPoint};
pub use runner::{run_algorithm, AlgorithmRun};
pub use serve_run::{run_serve, ServeRun};
pub use shard_run::{run_shard, run_shard_curve, ShardQuerySample, ShardRun};
pub use stream_run::{run_stream, StreamRun};
