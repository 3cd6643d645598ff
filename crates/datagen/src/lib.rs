//! Dataset generators for the MaxRS experiments.
//!
//! The paper evaluates on
//!
//! * synthetic datasets under **uniform** and **Gaussian** distributions with
//!   cardinalities 100,000–500,000 in a `1M × 1M` space (Table 3), and
//! * two real datasets from the (now defunct) R-tree portal: **UX** (United
//!   States + Mexico, 19,499 points, sparse) and **NE** (North-East USA,
//!   123,593 points, dense), both normalized to the same `1M × 1M` space
//!   (Table 2).
//!
//! The synthetic generators reproduce the former exactly.  For the real
//! datasets — which are no longer downloadable — this crate provides
//! deterministic *surrogates* with the same cardinalities, the same normalized
//! space and the qualitative spatial character the figures depend on (UX:
//! sparse, strongly clustered point chains; NE: dense multi-cluster with
//! uniform background).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod real;
mod synthetic;

pub use dataset::{Dataset, DatasetKind, WeightMode};
pub use real::{ne_surrogate, ux_surrogate, NE_CARDINALITY, UX_CARDINALITY};
pub use synthetic::{
    clustered, event_stream, gaussian, uniform, zipf_x, EventStreamConfig, SPACE_EXTENT,
};
