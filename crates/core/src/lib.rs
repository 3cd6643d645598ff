//! # maxrs-core — scalable maximizing range sum in spatial databases
//!
//! This crate implements the algorithms of *"A Scalable Algorithm for
//! Maximizing Range Sum in Spatial Databases"* (Choi, Chung, Tao; PVLDB 5(11),
//! 2012):
//!
//! * [`exact_max_rs`] — **ExactMaxRS**, the external-memory distribution-sweep
//!   algorithm that solves the MaxRS problem in the optimal
//!   `O((N/B) log_{M/B}(N/B))` I/Os,
//! * [`Query::ApproxMaxCrs`] — **ApproxMaxCRS**, the `(1/4)`-approximation
//!   for the circular variant (MaxCRS), with its building blocks in
//!   [`crate::approx`],
//! * [`max_rs_in_memory`] — the classic in-memory plane sweep, used both as
//!   the recursion base case and as a convenience API for small datasets,
//! * [`exact_max_crs_in_memory`] — the exact MaxCRS reference used to measure
//!   approximation quality (Figure 17 of the paper),
//! * the building blocks (slab partitioning, slab-files, the plane-sweep
//!   kernel, MergeSweep, uniform grid) as documented public modules,
//! * [`MaxRsEngine`] — the one query surface: every [`Query`] variant goes
//!   through [`MaxRsEngine::run`], [`run_file`](MaxRsEngine::run_file) or
//!   [`run_batch`](MaxRsEngine::run_batch), which auto-select between the
//!   in-memory sweep, the sequential external sweep and the **parallel slab
//!   stage** from the dataset size, the memory budget and the core count,
//! * [`PreparedDataset`] — load-once repeated querying: the object file
//!   written at [`MaxRsEngine::prepare`] time serves every subsequent
//!   [`Query`] variant ([`crate::prepared`]),
//! * [`SweepPass`] — the stages of the sweep kernel every strategy and
//!   every query variant runs ([`crate::sweep`]), with [`solve_rects`] the
//!   one way into the distribution-sweep recursion,
//! * [`QueryBatch`] / [`PreparedDataset::run_batch`] — batched multi-query
//!   execution: M queries answered in shared sweep passes, grouped by
//!   rectangle size, by the one query driver every dataset layout runs
//!   through its [`SweepHost`] operations ([`crate::batch`]),
//! * [`ShardRoute`], [`shard::crop_scan`] and [`prepare_shard`] — the
//!   x-domain split into balanced shards, each query routed to the shards it
//!   touches and merged exactly through the span-event decomposition: the
//!   pieces `maxrs-cluster`'s servers and coordinator run on
//!   ([`crate::shard`]).
//!
//! No stage reads the order of an object file, so no path sorts the objects:
//! a prepared, delta or shard dataset keeps them in arrival order (see
//! [`crate::sweep`]).
//!
//! The external-memory algorithms run against a [`maxrs_em::EmContext`], which
//! simulates a block device with a bounded buffer pool and counts every block
//! transfer — the paper's performance metric.
//!
//! ## The engine
//!
//! Most callers only need [`MaxRsEngine`]:
//!
//! ```
//! use maxrs_core::{EngineOptions, ExactMaxRsOptions, ExecutionStrategy, MaxRsEngine, Query};
//! use maxrs_em::EmConfig;
//! use maxrs_geometry::{RectSize, WeightedPoint};
//!
//! // A tight memory budget so even a small dataset must go external.
//! let engine = MaxRsEngine::with_options(EngineOptions {
//!     em_config: EmConfig::new(512, 16 * 512).unwrap(),
//!     exact: ExactMaxRsOptions::default(),
//!     force_strategy: None,
//! });
//!
//! let objects: Vec<WeightedPoint> = (0..500)
//!     .map(|i| WeightedPoint::unit((i % 50) as f64 * 10.0, (i / 50) as f64 * 10.0))
//!     .collect();
//! let run = engine.run(&objects, &Query::max_rs(RectSize::square(25.0))).unwrap();
//!
//! // 500 rectangles exceed M here, so the engine picked an external strategy
//! // and did real (simulated) I/O; the answer matches the in-memory sweep.
//! assert_ne!(run.strategy, ExecutionStrategy::InMemory);
//! assert!(run.io.total() > 0);
//! let reference = maxrs_core::max_rs_in_memory(&objects, RectSize::square(25.0));
//! assert_eq!(run.answer.best_weight(), reference.total_weight);
//! ```
//!
//! ## Quick start
//!
//! ```
//! use maxrs_core::{exact_max_rs_from_objects, max_rs_in_memory, ExactMaxRsOptions};
//! use maxrs_em::{EmConfig, EmContext};
//! use maxrs_geometry::{RectSize, WeightedPoint};
//!
//! let objects = vec![
//!     WeightedPoint::unit(1.0, 1.0),
//!     WeightedPoint::unit(1.5, 1.2),
//!     WeightedPoint::unit(9.0, 9.0),
//! ];
//! // Small data: in-memory sweep.
//! let quick = max_rs_in_memory(&objects, RectSize::square(2.0));
//! assert_eq!(quick.total_weight, 2.0);
//!
//! // Same answer through the external-memory pipeline.
//! let ctx = EmContext::new(EmConfig::paper_synthetic());
//! let external = exact_max_rs_from_objects(
//!     &ctx,
//!     &objects,
//!     RectSize::square(2.0),
//!     &ExactMaxRsOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(external.total_weight, 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod batch;
pub mod crs_exact;
pub mod delta;
pub mod engine;
mod error;
pub mod events;
pub mod exact;
pub mod extensions;
pub mod grid;
pub mod merge_sweep;
pub mod parallel;
pub mod plane_sweep;
pub mod prepared;
pub mod query;
pub mod records;
pub mod reference;
mod result;
pub mod shard;
pub mod slab;
pub mod sweep;

pub use approx::{
    approx_max_crs_in_memory, best_candidate, candidate_points, evaluate_candidates,
    SIGMA_FRACTION_LO,
};
pub use batch::{run_on_host, QueryBatch, SweepHost};
pub use crs_exact::{closed_disk_weight, exact_max_crs_in_memory};
pub use delta::{CompactionPolicy, DeltaDataset, DeltaOptions};
pub use engine::{EngineOptions, ExecutionStrategy, MaxRsEngine};
pub use error::{CoreError, EngineError, Result};
pub use events::{
    total_order_bits, validate_object, Event, EventError, EventOutcome, LiveRecord, LiveSet,
};
pub use exact::{exact_max_rs, exact_max_rs_from_objects, load_objects, ExactMaxRsOptions};
pub use extensions::{max_k_rs_in_memory, min_rs_in_memory, min_strip_scan, MinStrip};
pub use grid::{grid_cell, UniformGrid, GRID_CELL_LIMIT};
pub use merge_sweep::merge_sweep;
pub use parallel::{available_parallelism, parallel_map};
pub use plane_sweep::{
    best_region_from_tuples, max_rs_in_memory, plane_sweep_slab, transform_objects, SweepScratch,
};
pub use prepared::PreparedDataset;
pub use query::{Query, QueryAnswer, QueryRun};
pub use records::{ObjectRecord, RectRecord, SlabTuple, SpanEvent};
pub use reference::{brute_force_max_crs, brute_force_max_rs, circle_objective, rect_objective};
pub use result::{MaxCrsResult, MaxRsResult};
pub use shard::{prepare_shard, select_shard_boundaries, shard_slab, ShardRoute};
pub use slab::{compute_partition, distribute, BoundarySource, Crop, Distribution, SlabPartition};
pub use sweep::{
    extract_best, is_suppressed, next_breakpoint_after, solve_rects, transform_to_rect_file,
    SweepPass,
};
