//! # maxrs-serve — the concurrent MaxRS serving layer
//!
//! Turns the batched single-process engine of `maxrs-core` into a long-lived
//! concurrent service.  Three pieces:
//!
//! * [`DatasetRegistry`] — caches [`PreparedDataset`](maxrs_core::PreparedDataset)s
//!   keyed by dataset id behind ref-counted [`DatasetHandle`]s, with LRU
//!   eviction under a configurable memory budget.  The one-time load into an
//!   external-memory context is paid at [`insert`](DatasetRegistry::insert);
//!   every query after that reads the retained file.
//! * [`MaxRsServer`] — dynamic micro-batching: queries submitted concurrently
//!   by independent clients accumulate for a short window
//!   ([`ServeConfig::window`], or until [`ServeConfig::max_batch`] of them are
//!   pending — whichever comes first) and are planned through one
//!   [`QueryBatch`](maxrs_core::QueryBatch), so strangers' queries share sweep
//!   passes.  Flushed batches execute on a bounded worker pool.
//! * Admission control — a bounded in-flight queue that either sheds
//!   ([`ServeError::Overloaded`]) or blocks, per [`OverloadPolicy`]; shutdown
//!   drains gracefully, answering every admitted query.
//!
//! Serving never changes answers: execution is
//! [`PreparedDataset::run_batch`](maxrs_core::PreparedDataset::run_batch), so
//! responses are bit-identical to sequential per-query runs.
//! `tests/serve_determinism.rs` proves this under ≥ 8 racing client threads
//! on both storage backends.
//!
//! ## Cookbook: stand up a server, query it from two threads
//!
//! ```
//! use maxrs_core::{MaxRsEngine, Query};
//! use maxrs_geometry::{RectSize, WeightedPoint};
//! use maxrs_serve::{DatasetRegistry, MaxRsServer, ServeConfig};
//! use std::sync::Arc;
//!
//! // 1. Register datasets: each is loaded once, here.
//! let registry = Arc::new(DatasetRegistry::new(MaxRsEngine::new()));
//! let cafes = vec![
//!     WeightedPoint::unit(1.0, 1.0),
//!     WeightedPoint::unit(1.4, 1.2),
//!     WeightedPoint::unit(6.0, 6.0),
//! ];
//! registry.insert("cafes", &cafes).unwrap();
//!
//! // 2. Start the server (2 ms batching window by default).
//! let server = Arc::new(MaxRsServer::start(registry, ServeConfig::default()).unwrap());
//!
//! // 3. Query it concurrently; answers match sequential runs bit for bit.
//! let clients: Vec<_> = (0..2)
//!     .map(|_| {
//!         let server = Arc::clone(&server);
//!         std::thread::spawn(move || {
//!             server.query("cafes", Query::max_rs(RectSize::square(2.0))).unwrap()
//!         })
//!     })
//!     .collect();
//! for client in clients {
//!     let response = client.join().unwrap();
//!     assert_eq!(response.run.answer.best_weight(), 2.0);
//! }
//!
//! // 4. Drain: refuses new queries, answers everything already admitted.
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod config;
mod error;
mod registry;
mod server;
mod stats;

pub use batcher::MicroBatcher;
pub use config::{OverloadPolicy, ServeConfig};
pub use error::{Result, ServeError};
pub use registry::{DatasetHandle, DatasetRegistry, ServedDataset};
pub use server::{MaxRsServer, QueryResponse, Ticket};
pub use stats::ServerStats;
