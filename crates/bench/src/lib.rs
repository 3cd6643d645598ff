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
//! Beyond the paper's own evaluation, the binary also measures one
//! extension that no `BENCHMARK.json` workload runs: `stream` (incremental
//! MaxRS over event streams, see [`stream_run::run_stream`] — ingest
//! events/sec, incremental answer latency and the speedup over full
//! recomputes).  The prepared, batched, serving, delta and cluster paths are
//! measured end to end by the `benchmark/` package, whose workloads
//! `BENCHMARK.json` declares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod figures;
pub mod json;
pub mod report;
pub mod runner;
pub mod stream_run;
pub mod tables;

pub use config::{ExperimentScale, PAPER_BLOCK_SIZE};
pub use report::{FigureReport, Series, SeriesPoint};
pub use runner::{run_algorithm, AlgorithmRun};
pub use stream_run::{run_stream, StreamRun};
