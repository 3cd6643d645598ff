//! # maxrs-stream — incremental MaxRS over dynamic data
//!
//! The core crate answers MaxRS queries over *static* object files; this
//! crate opens the dynamic-data scenario family: feeds of inserts and
//! deletes, moving objects, decaying sliding windows.  A [`StreamEngine`]
//! ingests timestamped [`Event`]s and maintains the current MaxRS (or top-k)
//! answer **incrementally** — every event dirties `O(1)` grid cells, and an
//! [`answer`](StreamEngine::answer) call re-runs the existing plane-sweep
//! kernel only over dirty cells whose weight bound can still
//! beat the incumbent, instead of recomputing the world.
//!
//! Answers are **bit-identical** to a from-scratch
//! [`MaxRsEngine::run`](maxrs_core::MaxRsEngine::run) over the surviving
//! objects (for weights with exactly representable sums): the winning cell
//! candidate is canonicalized with the same "canonical max-regions" rule the
//! external pipeline uses, so going incremental can never change an answer.
//! See [`engine`] for the mechanism and invariants.
//!
//! ```
//! use maxrs_stream::{Event, StreamConfig, StreamEngine};
//! use maxrs_core::{MaxRsEngine, Query};
//! use maxrs_geometry::RectSize;
//!
//! let mut stream = StreamEngine::new(StreamConfig::max_rs(RectSize::square(4.0))).unwrap();
//! stream.apply(&Event::insert(1, 10.0, 10.0, 2.0, 0.0)).unwrap();
//! stream.apply(&Event::insert(2, 11.0, 11.0, 1.0, 1.0)).unwrap();
//! stream.apply(&Event::insert(3, 50.0, 50.0, 1.0, 2.0)).unwrap();
//! stream.apply(&Event::delete(3, 3.0)).unwrap();
//!
//! // The incremental answer equals a batch run over the survivors…
//! let incremental = stream.answer();
//! let batch = MaxRsEngine::new()
//!     .run(&stream.survivors(), &Query::max_rs(RectSize::square(4.0)))
//!     .unwrap();
//! assert_eq!(incremental.run.answer, batch.answer);
//! assert_eq!(incremental.run.answer.best_weight(), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod config;
pub mod engine;
mod error;

pub use config::StreamConfig;
pub use engine::{MaintenanceStats, StreamAnswer, StreamEngine};
pub use error::{Result, StreamError};
// The event model and its application semantics live in `maxrs_core::events`,
// shared with `maxrs_core::DeltaDataset` so the two dynamic engines cannot
// drift apart; re-exported here for source compatibility.
pub use maxrs_core::{Event, EventOutcome};
