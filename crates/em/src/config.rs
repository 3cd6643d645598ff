//! EM model configuration: block size, buffer (main memory) size and the
//! storage backend.

use std::sync::OnceLock;

use crate::{EmError, Record, Result};

/// Which [`BlockDevice`](crate::BlockDevice) implementation an
/// [`EmContext`](crate::EmContext) runs against.
///
/// The default comes from the `MAXRS_BACKEND` environment variable (read once
/// per process): `fs` selects the filesystem backend, anything else — or an
/// unset variable — the RAM-backed simulation.  This is the knob CI's
/// backend matrix turns to run the whole test suite against real files.
/// Logical I/O counts are identical across backends (see
/// [`BlockDevice`](crate::BlockDevice)), so switching backends never changes
/// a paper-style measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageBackend {
    /// RAM-backed [`SimDisk`](crate::SimDisk): deterministic, no filesystem
    /// interaction, the default.
    #[default]
    Sim,
    /// Filesystem-backed [`FsDisk`](crate::FsDisk): real files under a temp
    /// directory (or a caller-chosen one via
    /// [`EmContext::with_device`](crate::EmContext::with_device)).
    Fs,
}

impl StorageBackend {
    /// A short human-readable name ("sim", "fs").
    pub fn name(&self) -> &'static str {
        match self {
            StorageBackend::Sim => "sim",
            StorageBackend::Fs => "fs",
        }
    }

    /// The backend selected by the `MAXRS_BACKEND` environment variable
    /// (`fs` → [`StorageBackend::Fs`], otherwise [`StorageBackend::Sim`]),
    /// cached after the first read.
    pub fn from_env() -> Self {
        static FROM_ENV: OnceLock<StorageBackend> = OnceLock::new();
        *FROM_ENV.get_or_init(|| match std::env::var("MAXRS_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("fs") => StorageBackend::Fs,
            _ => StorageBackend::Sim,
        })
    }
}

/// Configuration of the external-memory model.
///
/// Mirrors the knobs of the paper's Table 3: the disk *block size* (default
/// 4 KB) and the *buffer size* — the amount of main memory an algorithm may
/// use (default 256 KB for the real datasets and 1024 KB for the synthetic
/// ones) — plus the [`StorageBackend`] the context's block device uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmConfig {
    /// Size of one disk block in bytes.
    pub block_size: usize,
    /// Size of the main-memory buffer in bytes.
    pub buffer_bytes: usize,
    /// Which block-device implementation backs the context (default: from
    /// `MAXRS_BACKEND`, falling back to the RAM simulation).
    pub backend: StorageBackend,
}

impl EmConfig {
    /// Default block size used throughout the paper (4 KB).
    pub const DEFAULT_BLOCK_SIZE: usize = 4096;
    /// Default buffer size used for the synthetic experiments (1024 KB).
    pub const DEFAULT_BUFFER_BYTES: usize = 1024 * 1024;

    /// Creates a configuration, validating that the buffer holds at least two
    /// blocks (the EM model's `M ≥ 2B` assumption) and that the block size is
    /// positive.
    pub fn new(block_size: usize, buffer_bytes: usize) -> Result<Self> {
        if block_size == 0 {
            return Err(EmError::InvalidConfig("block size must be positive".into()));
        }
        if buffer_bytes < 2 * block_size {
            return Err(EmError::InvalidConfig(format!(
                "buffer ({buffer_bytes} B) must hold at least two blocks of {block_size} B"
            )));
        }
        Ok(EmConfig {
            block_size,
            buffer_bytes,
            backend: StorageBackend::from_env(),
        })
    }

    /// The same configuration with an explicit storage backend, overriding
    /// the `MAXRS_BACKEND` default.
    pub fn with_backend(self, backend: StorageBackend) -> Self {
        EmConfig { backend, ..self }
    }

    /// The paper's default configuration for synthetic datasets
    /// (4 KB blocks, 1024 KB buffer).
    pub fn paper_synthetic() -> Self {
        EmConfig {
            block_size: Self::DEFAULT_BLOCK_SIZE,
            buffer_bytes: Self::DEFAULT_BUFFER_BYTES,
            backend: StorageBackend::from_env(),
        }
    }

    /// The paper's default configuration for real datasets
    /// (4 KB blocks, 256 KB buffer).
    pub fn paper_real() -> Self {
        EmConfig {
            block_size: Self::DEFAULT_BLOCK_SIZE,
            buffer_bytes: 256 * 1024,
            backend: StorageBackend::from_env(),
        }
    }

    /// Number of block frames that fit in the buffer (`M/B` in blocks).
    pub fn buffer_blocks(&self) -> usize {
        self.buffer_bytes / self.block_size
    }

    /// Number of records of type `T` per block (`B` in records).
    pub fn records_per_block<T: Record>(&self) -> usize {
        (self.block_size / T::SIZE).max(1)
    }

    /// Number of records of type `T` that fit in the buffer (`M` in records).
    pub fn mem_records<T: Record>(&self) -> usize {
        self.buffer_bytes / T::SIZE
    }

    /// Number of blocks needed to store `n` records of type `T`.
    pub fn blocks_for<T: Record>(&self, n: u64) -> u64 {
        let per_block = self.records_per_block::<T>() as u64;
        n.div_ceil(per_block)
    }

    /// Merge / distribution fan-out `m = Θ(M/B)`: the number of input streams
    /// that can be processed simultaneously, leaving one block for the output
    /// buffer and one block of slack.  The external sort merges this many
    /// runs at once; the distribution sweep takes it as an upper bound and
    /// splits a slab of `n` rectangles into at most `max(2, ⌈2.5·n/M⌉)`
    /// sub-slabs.
    pub fn fanout(&self) -> usize {
        self.buffer_blocks().saturating_sub(2).max(2)
    }
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig::paper_synthetic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct R16;
    impl Record for R16 {
        const SIZE: usize = 16;
        fn encode(&self, _buf: &mut [u8]) {}
        fn decode(_buf: &[u8]) -> Self {
            R16
        }
    }

    #[test]
    fn defaults_match_paper_table3() {
        let syn = EmConfig::paper_synthetic();
        assert_eq!(syn.block_size, 4096);
        assert_eq!(syn.buffer_bytes, 1024 * 1024);
        let real = EmConfig::paper_real();
        assert_eq!(real.buffer_bytes, 256 * 1024);
        assert_eq!(EmConfig::default(), syn);
    }

    #[test]
    fn derived_quantities() {
        let cfg = EmConfig::new(4096, 64 * 1024).unwrap();
        assert_eq!(cfg.buffer_blocks(), 16);
        assert_eq!(cfg.records_per_block::<R16>(), 256);
        assert_eq!(cfg.mem_records::<R16>(), 4096);
        assert_eq!(cfg.blocks_for::<R16>(0), 0);
        assert_eq!(cfg.blocks_for::<R16>(1), 1);
        assert_eq!(cfg.blocks_for::<R16>(256), 1);
        assert_eq!(cfg.blocks_for::<R16>(257), 2);
        assert_eq!(cfg.fanout(), 14);
    }

    #[test]
    fn validation() {
        assert!(EmConfig::new(0, 4096).is_err());
        assert!(EmConfig::new(4096, 4096).is_err());
        assert!(EmConfig::new(4096, 8192).is_ok());
    }

    #[test]
    fn backend_knob_round_trips() {
        let cfg = EmConfig::new(4096, 8192).unwrap();
        let fs = cfg.with_backend(StorageBackend::Fs);
        assert_eq!(fs.backend, StorageBackend::Fs);
        assert_eq!(fs.block_size, cfg.block_size);
        assert_eq!(fs.buffer_bytes, cfg.buffer_bytes);
        assert_eq!(StorageBackend::Sim.name(), "sim");
        assert_eq!(StorageBackend::Fs.name(), "fs");
        assert_eq!(StorageBackend::default(), StorageBackend::Sim);
    }

    #[test]
    fn fanout_never_below_two() {
        let cfg = EmConfig::new(4096, 8192).unwrap();
        assert_eq!(cfg.buffer_blocks(), 2);
        assert_eq!(cfg.fanout(), 2);
    }
}
