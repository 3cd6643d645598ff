//! The block-device abstraction behind the EM model.

use crate::{FileId, IoSnapshot, Result};

/// A block-granular storage device: the bottom of the EM stack.
///
/// The paper's cost model counts *block transfers*, not bytes or syscalls, so
/// the device interface is exactly the EM model's: growable files of
/// fixed-size blocks, addressed by `(file, block index)`, with every
/// [`read_block`](BlockDevice::read_block) /
/// [`write_block`](BlockDevice::write_block) recorded in the device's
/// [`IoStats`] counters.  Two implementations exist:
///
/// * [`SimDisk`](crate::SimDisk) — RAM-backed, deterministic, the default;
///   what every experiment and test runs against unless told otherwise.
/// * [`FsDisk`](crate::FsDisk) — one backing file per device under a
///   temp/configurable directory via `std::fs`, each file of the device a
///   table of block slots in it, with block-aligned positioned reads and
///   writes.
///
/// Both backends share the *logical* I/O accounting: a block transfer counts
/// as one I/O no matter what the host OS does underneath (page cache,
/// read-ahead, write coalescing).  Paper-style I/O counts are therefore
/// backend-independent — swapping the backend changes wall-clock behaviour,
/// never the counters.  The [`BufferPool`](crate::BufferPool) sits on top and
/// is the only caching layer the model acknowledges; devices must not add
/// caching that changes the counted transfers (every `read_block` /
/// `write_block` call counts as one, whether or not the bytes were already
/// staged).  Physical overlap *below* the counters is fine as long as it
/// moves wall-clock, never a counter.
///
/// All methods take `&self`: devices are internally synchronized and shared
/// across the scoped worker threads of the parallel slab stage
/// (`dyn BlockDevice` must be `Send + Sync`).
///
/// [`IoStats`]: crate::IoStats
pub trait BlockDevice: Send + Sync + std::fmt::Debug {
    /// A short backend name ("sim", "fs") for reports and benchmarks.
    fn backend_name(&self) -> &'static str;

    /// The block size in bytes.
    fn block_size(&self) -> usize;

    /// Allocates a new, empty file and returns its id.  Backends whose
    /// allocation can fail (e.g. a full or vanished filesystem) report
    /// [`EmError::Io`](crate::EmError) instead of panicking.
    fn create_file(&self) -> Result<FileId>;

    /// Removes a file and frees its blocks.  Deleting an unknown file is an
    /// error so that double-deletes are caught early.
    fn delete_file(&self, id: FileId) -> Result<()>;

    /// `true` if the file exists.
    fn file_exists(&self, id: FileId) -> bool;

    /// Number of blocks currently stored for the file.
    fn num_blocks(&self, id: FileId) -> Result<u64>;

    /// `true` if block `idx` of the file has been written to the device.
    fn block_exists(&self, id: FileId, idx: u64) -> bool;

    /// Reads block `idx` of the file into `dst` (which must be exactly one
    /// block long).  Counts one read I/O.
    fn read_block(&self, id: FileId, idx: u64, dst: &mut [u8]) -> Result<()>;

    /// Writes `src` (exactly one block) as block `idx` of the file, growing
    /// the file with zero blocks if `idx` is past the current end (sparse
    /// writes happen when the buffer pool evicts blocks out of order).
    /// Counts one write I/O.
    fn write_block(&self, id: FileId, idx: u64, src: &[u8]) -> Result<()>;

    /// Total number of blocks currently allocated across all files (used by
    /// tests and by the experiment harness to report space usage).
    fn total_blocks(&self) -> u64;

    /// Number of files currently allocated.
    fn num_files(&self) -> usize;

    /// Current logical I/O counter values.
    fn stats(&self) -> IoSnapshot;

    /// Resets the logical I/O counters.
    fn reset_stats(&self);
}
