//! # maxrs — maximizing range sum in spatial databases
//!
//! Facade crate re-exporting the MaxRS workspace: a Rust reproduction of
//! *"A Scalable Algorithm for Maximizing Range Sum in Spatial Databases"*
//! (Choi, Chung, Tao; PVLDB 5(11), 2012).
//!
//! * [`geometry`] — points, rectangles, circles, weighted objects.
//! * [`em`] — the external-memory substrate (simulated disk, buffer pool, I/O
//!   accounting, external sort).
//! * [`core`] — the algorithms: ExactMaxRS, ApproxMaxCRS, the in-memory plane
//!   sweep and the exact MaxCRS reference, all asked through one query
//!   surface ([`MaxRsEngine`] and [`Query`]); plus [`PreparedDataset`] for
//!   load-once repeated querying and [`DeltaDataset`] for streaming updates
//!   over the external path (the live objects in memory, each query batch on
//!   a fresh prepare of them).  The zero-alloc [`SweepScratch`] arena the
//!   slab sweeps run on is re-exported here too.
//! * [`stream`] — incremental MaxRS over dynamic data: the sliding-window
//!   event engine ([`StreamEngine`]) maintaining answers under inserts,
//!   deletes and window expiry.
//! * [`datagen`] — the synthetic and real-surrogate dataset generators used by
//!   the experiments, including reproducible event streams.
//! * [`serve`] — the concurrent serving layer: [`DatasetRegistry`] caching
//!   prepared datasets under a memory budget, and [`MaxRsServer`] micro-
//!   batching concurrent clients' queries into shared sweep passes.
//! * [`cluster`] — x-partitioned shard serving: [`ShardServer`]s hosting
//!   the shards of one x-partition behind a pluggable transport (in-process
//!   or real TCP), and a [`ClusterCoordinator`] fanning shard-routed
//!   sub-queries out and merging partial results bit-identically, with
//!   timeouts, retries and per-server health tracking.
//! * [`baselines`] — the externalized plane-sweep baselines (Naïve and
//!   aSB-tree) the paper compares against.
//!
//! The most common entry points are re-exported at the crate root.  The
//! [`MaxRsEngine`] facade answers every [`Query`] variant and picks the
//! execution strategy (in-memory sweep, sequential external sweep, or the
//! parallel slab stage) per dataset:
//!
//! ```
//! use maxrs::{MaxRsEngine, Query, RectSize, WeightedPoint};
//!
//! let stores = vec![
//!     WeightedPoint::unit(2.0, 3.0),
//!     WeightedPoint::unit(2.5, 3.5),
//!     WeightedPoint::unit(9.0, 9.0),
//! ];
//! let run = MaxRsEngine::new()
//!     .run(&stores, &Query::max_rs(RectSize::square(2.0)))
//!     .unwrap();
//! assert_eq!(run.answer.best_weight(), 2.0);
//! ```
//!
//! The individual algorithms remain directly callable:
//!
//! ```
//! use maxrs::{max_rs_in_memory, RectSize, WeightedPoint};
//!
//! let stores = vec![
//!     WeightedPoint::unit(2.0, 3.0),
//!     WeightedPoint::unit(2.5, 3.5),
//!     WeightedPoint::unit(9.0, 9.0),
//! ];
//! let best = max_rs_in_memory(&stores, RectSize::square(2.0));
//! assert_eq!(best.total_weight, 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use maxrs_baselines as baselines;
pub use maxrs_cluster as cluster;
pub use maxrs_core as core;
pub use maxrs_datagen as datagen;
pub use maxrs_em as em;
pub use maxrs_geometry as geometry;
pub use maxrs_serve as serve;
pub use maxrs_stream as stream;

pub use maxrs_cluster::{
    ClusterConfig, ClusterCoordinator, ClusterError, InProcessTransport, ShardServer, TcpTransport,
    Transport,
};
pub use maxrs_core::{
    approx_max_crs_in_memory, exact_max_crs_in_memory, exact_max_rs, exact_max_rs_from_objects,
    load_objects, max_k_rs_in_memory, max_rs_in_memory, min_rs_in_memory, DeltaDataset,
    DeltaOptions, EngineError, EngineOptions, ExactMaxRsOptions, ExecutionStrategy, LiveSet,
    MaxCrsResult, MaxRsEngine, MaxRsResult, PreparedDataset, Query, QueryAnswer, QueryBatch,
    QueryRun, SweepPass, SweepScratch,
};
pub use maxrs_em::{BlockDevice, EmConfig, EmContext, FsDisk, IoSnapshot, SimDisk, StorageBackend};
pub use maxrs_geometry::{Circle, Interval, Point, Rect, RectSize, WeightedPoint};
pub use maxrs_serve::{DatasetRegistry, MaxRsServer, OverloadPolicy, ServeConfig, ServeError};
pub use maxrs_stream::{Event, StreamConfig, StreamEngine};

/// The README's Rust blocks, compiled and run as doc-tests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
