//! External-memory (EM) model substrate for the MaxRS reproduction.
//!
//! The paper evaluates algorithms by their **I/O cost** — the number of blocks
//! transferred between disk and a bounded main-memory buffer — under the
//! standard EM model with parameters
//!
//! * `N` — number of records,
//! * `M` — number of records that fit in main memory,
//! * `B` — number of records per disk block.
//!
//! This crate provides a faithful, deterministic simulation of that model:
//!
//! * [`BlockDevice`] — the block-device trait every backend implements, with
//!   every block read and write counted in an [`IoStats`] counter,
//! * [`SimDisk`] — the RAM-backed simulated device (default backend),
//! * [`FsDisk`] — a filesystem-backed block store: one backing file per
//!   device under a temp/configurable directory, each EM file a table of
//!   block slots in it (select with [`StorageBackend::Fs`] or
//!   `MAXRS_BACKEND=fs`); logical I/O counts are identical across backends,
//! * [`BufferPool`] — a bounded buffer of block frames with CLOCK
//!   (second-chance) replacement; only pool *misses* and dirty *evictions*
//!   touch the disk and therefore cost I/O,
//! * [`Record`] — fixed-size record serialization,
//! * [`TupleFile`], [`TupleWriter`], [`TupleReader`] — sequential,
//!   block-buffered record files,
//! * [`external_sort`] — multiway external merge sort with
//!   `O((N/B) log_{M/B}(N/B))` I/Os,
//! * [`EmContext`] — ties the above together with an [`EmConfig`] holding the
//!   block size and buffer size (the knobs varied in Figures 13 and 15).
//!
//! # Example
//!
//! ```
//! use maxrs_em::{EmConfig, EmContext, Record};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Row(u64);
//! impl Record for Row {
//!     const SIZE: usize = 8;
//!     fn encode(&self, buf: &mut [u8]) { buf.copy_from_slice(&self.0.to_le_bytes()); }
//!     fn decode(buf: &[u8]) -> Self { Row(u64::from_le_bytes(buf.try_into().unwrap())) }
//! }
//!
//! let ctx = EmContext::new(EmConfig::new(4096, 64 * 1024).unwrap());
//! let file = ctx.write_all(&(0..1000u64).map(Row).collect::<Vec<_>>()).unwrap();
//! let back = ctx.read_all(&file).unwrap();
//! assert_eq!(back.len(), 1000);
//! ctx.flush_all().unwrap(); // force dirty blocks to disk so they are counted
//! assert!(ctx.stats().total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod context;
mod device;
mod disk;
mod error;
mod file;
mod fsdisk;
mod pool;
mod record;
mod rw;
mod sort;
mod stats;

pub use config::{EmConfig, StorageBackend};
pub use context::EmContext;
pub use device::BlockDevice;
pub use disk::{FileId, SimDisk};
pub use error::EmError;
pub use file::TupleFile;
pub use fsdisk::FsDisk;
pub use pool::BufferPool;
pub use record::{codec, Record};
pub use rw::{TupleReader, TupleWriter};
pub use sort::{external_sort, external_sort_by_key, SortKey};
pub use stats::{measure_thread_io, IoSnapshot, IoStats};

/// Convenience result alias used throughout the EM layer.
pub type Result<T> = std::result::Result<T, EmError>;
