//! Multi-node shard serving for external-memory MaxRS.
//!
//! `maxrs-cluster` runs the sharded distribution sweep of
//! [`maxrs_core::shard`] across **servers**: the x-domain splits into
//! balanced shards ([`partition_objects`]), each
//! [`ShardServer`] hosts one or more shards as ordinary prepared datasets
//! (on the simulated backend, or on a filesystem device in a directory of
//! its choice, [`ShardServer::host_in`]),
//! and a [`ClusterCoordinator`] answers all four [`Query`](maxrs_core::Query)
//! variants by routing per-shard sub-queries over a pluggable [`Transport`]
//! and merging the partial results through the canonical `MergeSweep`.
//! Because the merged slab-file and the min-next-breakpoint canonicalization
//! are exactly the single-machine ones, cluster answers are **bit-identical**
//! to the unsharded [`PreparedDataset::run`](maxrs_core::PreparedDataset::run)
//! — on the in-process transport, over real TCP loopback, and on either
//! storage backend.
//!
//! Two transports ship in the crate:
//!
//! * [`InProcessTransport`] — direct calls, deterministic, no sockets.
//! * [`TcpTransport`] + [`serve_tcp`] — real `std::net` TCP with
//!   length-prefixed frames around a hand-rolled wire format (no
//!   serialization dependency).
//!
//! Failures are typed, never hung: per-request timeouts, bounded retries
//! with exponential backoff, and per-server health tracking turn a dead
//! server into [`ClusterError::ShardUnavailable`] naming the shards it
//! hosts (see [`ClusterConfig`]).
//!
//! # Cookbook: a two-server cluster in one process
//!
//! ```
//! use std::sync::Arc;
//! use maxrs_cluster::{
//!     partition_objects, ClusterConfig, ClusterCoordinator, InProcessTransport,
//!     ShardServer, Transport,
//! };
//! use maxrs_core::{EngineOptions, MaxRsEngine, Query, QueryAnswer};
//! use maxrs_geometry::{RectSize, WeightedPoint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small integer-weighted dataset (integer weights make float sums
//! // exact, so the bit-identity below is meaningful).
//! let objects: Vec<WeightedPoint> = (0..200)
//!     .map(|i| {
//!         let x = (i * 37 % 100) as f64;
//!         let y = (i * 61 % 100) as f64;
//!         WeightedPoint::at(x, y, (1 + i % 5) as f64)
//!     })
//!     .collect();
//! let opts = EngineOptions::default();
//!
//! // Split into 4 shards and host two per server.
//! let (boundaries, parts) = partition_objects(&objects, 4, 4096);
//! let mut alpha = ShardServer::new(opts, boundaries.clone());
//! alpha.host(0, &parts[0])?;
//! alpha.host(1, &parts[1])?;
//! let mut beta = ShardServer::new(opts, boundaries);
//! beta.host(2, &parts[2])?;
//! beta.host(3, &parts[3])?;
//!
//! let transports: Vec<Box<dyn Transport>> = vec![
//!     Box::new(InProcessTransport::new("alpha", Arc::new(alpha))),
//!     Box::new(InProcessTransport::new("beta", Arc::new(beta))),
//! ];
//! let cluster = ClusterCoordinator::connect(opts, ClusterConfig::default(), transports)?;
//!
//! // The cluster answer is bit-identical to the single-machine one.
//! let query = Query::MaxRs {
//!     size: RectSize::square(12.0),
//! };
//! let local = MaxRsEngine::with_options(opts).prepare(&objects)?.run(&query)?;
//! let remote = cluster.run(&query)?;
//! let (QueryAnswer::MaxRs(a), QueryAnswer::MaxRs(b)) = (&local.answer, &remote.answer) else {
//!     unreachable!()
//! };
//! assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
//! assert_eq!(a.center.x.to_bits(), b.center.x.to_bits());
//! assert_eq!(a.center.y.to_bits(), b.center.y.to_bits());
//! # Ok(())
//! # }
//! ```
//!
//! For real multi-process deployments replace the in-process transports
//! with [`serve_tcp`] on each server host and a [`TcpTransport`] per
//! server on the coordinator — the protocol bytes are the same.  A single
//! machine needs no cluster: a
//! [`PreparedDataset`](maxrs_core::PreparedDataset)'s parallel slab stage
//! already solves its top-level slabs concurrently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod error;
pub mod protocol;
mod server;
mod transport;

pub use coordinator::{ClusterConfig, ClusterCoordinator, ShardHealth};
pub use error::{ClusterError, Result, TransportError};
pub use protocol::{Request, Response};
pub use server::ShardServer;
pub use transport::{
    serve_tcp, FaultInjectedTransport, InProcessTransport, InjectedFault, TcpServerHandle,
    TcpTransport, Transport,
};

use maxrs_core::select_shard_boundaries;
use maxrs_geometry::WeightedPoint;

/// Splits `objects` into `shards` x-ranges at the deterministic quantile
/// boundaries of [`select_shard_boundaries`] (sampled above
/// `boundary_sample` objects), returning the interior boundaries plus one
/// object vector per shard.
///
/// Ties route right (an `x` exactly on a boundary belongs to the shard on
/// the right), matching the sweep's own `SlabPartition::locate` and
/// [`shard_slab`](maxrs_core::shard_slab).
pub fn partition_objects(
    objects: &[WeightedPoint],
    shards: usize,
    boundary_sample: usize,
) -> (Vec<f64>, Vec<Vec<WeightedPoint>>) {
    let k = shards.max(1);
    let boundaries = select_shard_boundaries(objects, k, boundary_sample);
    let mut parts: Vec<Vec<WeightedPoint>> =
        (0..boundaries.len() + 1).map(|_| Vec::new()).collect();
    for o in objects {
        let idx = boundaries.partition_point(|&b| b <= o.point.x);
        parts[idx].push(*o);
    }
    (boundaries, parts)
}
