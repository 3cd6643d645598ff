//! The EM context: configuration + disk + buffer pool.

use parking_lot::Mutex;

use crate::{
    BlockDevice, BufferPool, EmConfig, FileId, FsDisk, IoSnapshot, Record, Result, SimDisk,
    StorageBackend, TupleFile, TupleReader, TupleWriter,
};

/// Owns a simulated disk and the bounded buffer pool through which all block
/// accesses are routed.
///
/// One `EmContext` corresponds to one experimental run: algorithms receive a
/// `&EmContext`, allocate temporary files on it, and the harness reads the I/O
/// counters afterwards.
///
/// # Concurrency
///
/// The context is `Send + Sync` and may be **shared across threads** (by
/// reference from scoped threads, or behind an `Arc`): the disk directory and
/// the buffer pool are guarded by internal mutexes, and the device's I/O
/// counters are atomic (read by [`stats`](EmContext::stats)).  This is what
/// the parallel slab stage of ExactMaxRS relies on — each worker creates,
/// reads and deletes its own temporary files concurrently.  Block-level
/// accesses are serialized by the pool lock, so the *counted* I/O stays exact;
/// wall-clock parallelism comes from the CPU work the algorithms do between
/// block accesses (sorting, plane sweeps).  Writers and readers themselves are
/// not `Sync`: each thread uses its own [`TupleWriter`]/[`TupleReader`].
#[derive(Debug)]
pub struct EmContext {
    config: EmConfig,
    disk: Box<dyn BlockDevice>,
    pool: Mutex<BufferPool>,
}

impl EmContext {
    /// Creates a context with the given configuration, constructing the block
    /// device the configuration's [`StorageBackend`] selects.
    ///
    /// # Panics
    ///
    /// Panics if the filesystem backend cannot create its temp directory —
    /// an environmental failure no caller can meaningfully handle; use
    /// [`with_device`](EmContext::with_device) with a pre-built [`FsDisk`]
    /// for checked construction or a custom directory.
    pub fn new(config: EmConfig) -> Self {
        let disk: Box<dyn BlockDevice> = match config.backend {
            StorageBackend::Sim => Box::new(SimDisk::new(config.block_size)),
            StorageBackend::Fs => Box::new(
                FsDisk::new(config.block_size).expect("FsDisk: cannot create temp directory"),
            ),
        };
        Self::with_device(config, disk)
    }

    /// Creates a context running against a caller-supplied block device
    /// (e.g. an [`FsDisk`] rooted at a chosen directory).
    ///
    /// # Panics
    ///
    /// Panics if the device's block size disagrees with the configuration.
    pub fn with_device(config: EmConfig, disk: Box<dyn BlockDevice>) -> Self {
        assert_eq!(
            disk.block_size(),
            config.block_size,
            "device block size must match the EM configuration"
        );
        let pool = BufferPool::new(config.buffer_blocks().max(2), config.block_size);
        EmContext {
            config,
            disk,
            pool: Mutex::new(pool),
        }
    }

    /// The short name of the block-device backend ("sim", "fs").
    pub fn backend_name(&self) -> &'static str {
        self.disk.backend_name()
    }

    /// The configuration of this context.
    pub fn config(&self) -> EmConfig {
        self.config
    }

    /// Current I/O counters.
    pub fn stats(&self) -> IoSnapshot {
        self.disk.stats()
    }

    /// Resets the I/O counters (typically done after loading a dataset so that
    /// only the algorithm under test is measured).
    pub fn reset_stats(&self) {
        self.disk.reset_stats();
    }

    /// (pool hits, pool misses) — diagnostic information.
    pub fn pool_hit_stats(&self) -> (u64, u64) {
        self.pool.lock().hit_stats()
    }

    /// Total blocks currently allocated on the simulated disk.
    pub fn disk_blocks(&self) -> u64 {
        self.disk.total_blocks()
    }

    /// Number of files currently allocated on the simulated disk (diagnostic;
    /// used by tests asserting temporary-file hygiene).
    pub fn num_files(&self) -> usize {
        self.disk.num_files()
    }

    // ----- typed record files ------------------------------------------------

    /// Creates a writer for a new file of `T` records.
    pub fn create_writer<T: Record>(&self) -> Result<TupleWriter<'_, T>> {
        TupleWriter::new(self)
    }

    /// Opens a sequential reader over an existing file.
    pub fn open_reader<T: Record>(&self, file: &TupleFile<T>) -> TupleReader<'_, T> {
        TupleReader::new(self, file)
    }

    /// Writes all records to a fresh file.
    pub fn write_all<T: Record>(&self, records: &[T]) -> Result<TupleFile<T>> {
        let mut w = self.create_writer::<T>()?;
        for r in records {
            w.push(r)?;
        }
        w.finish()
    }

    /// Reads an entire file into memory.  Counts the I/Os of a sequential
    /// scan; intended for small files, result inspection and tests.
    pub fn read_all<T: Record>(&self, file: &TupleFile<T>) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(file.len() as usize);
        let mut reader = self.open_reader(file);
        while let Some(rec) = reader.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }

    /// Streams `input` through `f`, writing every produced record to a fresh
    /// file in input order — the transform-aware scan of the MaxRS pipeline
    /// (object→rectangle at dataset-scan time, weight negation for MinRS,
    /// suppression filters for top-k rounds).
    ///
    /// One sequential pass: `O(N/B)` block reads plus `O(N'/B)` writes, with
    /// only one input and one output block buffered at a time.  Records for
    /// which `f` returns `None` are dropped.
    pub fn filter_map_file<A: Record, B: Record>(
        &self,
        input: &TupleFile<A>,
        mut f: impl FnMut(A) -> Option<B>,
    ) -> Result<TupleFile<B>> {
        let mut reader = self.open_reader(input);
        let mut writer = self.create_writer::<B>()?;
        while let Some(rec) = reader.next_record()? {
            if let Some(out) = f(rec) {
                writer.push(&out)?;
            }
        }
        writer.finish()
    }

    /// [`filter_map_file`](EmContext::filter_map_file) without the filtering:
    /// a 1:1 streaming record transform.
    pub fn map_file<A: Record, B: Record>(
        &self,
        input: &TupleFile<A>,
        mut f: impl FnMut(A) -> B,
    ) -> Result<TupleFile<B>> {
        self.filter_map_file(input, |rec| Some(f(rec)))
    }

    /// Deletes a record file, discarding any of its blocks still in the pool.
    pub fn delete_file<T: Record>(&self, file: TupleFile<T>) -> Result<()> {
        self.pool.lock().drop_file(file.id);
        self.disk.delete_file(file.id)
    }

    /// Flushes every dirty pool block to disk (counts the corresponding write
    /// I/Os).  Mostly useful at the end of an experiment when the cost of
    /// persisting the final result should be included.
    pub fn flush_all(&self) -> Result<()> {
        self.pool.lock().flush_all(self.disk.as_ref())
    }

    /// Flushes every dirty pool block of one file to disk (counts the write
    /// I/Os), leaving other files' cached state untouched — used to
    /// materialize a retained file on a shared context without perturbing
    /// unrelated workloads' measurements.
    pub fn flush_file<T: Record>(&self, file: &TupleFile<T>) -> Result<()> {
        self.pool.lock().flush_file(self.disk.as_ref(), file.id)
    }

    // ----- raw block files (for index structures) -----------------------------

    /// Allocates a raw block file (no record typing); used by structures such
    /// as the aSB-tree that lay out their own nodes.
    pub fn create_raw_file(&self) -> Result<FileId> {
        self.disk.create_file()
    }

    /// Deletes a raw block file.
    pub fn delete_raw_file(&self, file: FileId) -> Result<()> {
        self.pool.lock().drop_file(file);
        self.disk.delete_file(file)
    }

    /// Reads block `block` of `file` through the pool.
    pub fn with_block_read<R>(
        &self,
        file: FileId,
        block: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.pool
            .lock()
            .with_read(self.disk.as_ref(), file, block, f)
    }

    /// Writes block `block` of `file` through the pool.  See
    /// [`BufferPool::with_write`] for the meaning of `create`.
    pub fn with_block_write<R>(
        &self,
        file: FileId,
        block: u64,
        create: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        self.pool
            .lock()
            .with_write(self.disk.as_ref(), file, block, create, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_context() {
        let ctx = EmContext::new(EmConfig::new(64, 256).unwrap());
        let data: Vec<u64> = (0..100).collect();
        let file = ctx.write_all(&data).unwrap();
        assert_eq!(file.len(), 100);
        let back = ctx.read_all(&file).unwrap();
        assert_eq!(back, data);
        ctx.delete_file(file).unwrap();
    }

    #[test]
    fn stats_reflect_block_math() {
        // 64-byte blocks, 8 records per block, pool of 4 frames.
        let ctx = EmContext::new(EmConfig::new(64, 256).unwrap());
        let data: Vec<u64> = (0..64).collect(); // 8 blocks, pool holds 4
        let file = ctx.write_all(&data).unwrap();
        // Writing 8 blocks through a 4-frame pool must evict at least 4.
        assert!(ctx.stats().writes >= 4);
        ctx.reset_stats();
        let back = ctx.read_all(&file).unwrap();
        assert_eq!(back.len(), 64);
        // Reading must fetch at least the blocks that are no longer cached.
        assert!(ctx.stats().reads >= 4);
        assert!(ctx.stats().reads <= 8);
    }

    #[test]
    fn small_files_can_stay_entirely_in_the_pool() {
        let ctx = EmContext::new(EmConfig::new(64, 64 * 16).unwrap());
        let data: Vec<u64> = (0..32).collect(); // 4 blocks, pool holds 16
        let file = ctx.write_all(&data).unwrap();
        let back = ctx.read_all(&file).unwrap();
        assert_eq!(back, data);
        assert_eq!(
            ctx.stats().total(),
            0,
            "a file smaller than the buffer never touches the disk"
        );
    }

    #[test]
    fn raw_block_files() {
        let ctx = EmContext::new(EmConfig::new(64, 256).unwrap());
        let f = ctx.create_raw_file().unwrap();
        ctx.with_block_write(f, 0, true, |b| b[0] = 9).unwrap();
        let v = ctx.with_block_read(f, 0, |b| b[0]).unwrap();
        assert_eq!(v, 9);
        ctx.flush_all().unwrap();
        assert_eq!(ctx.disk_blocks(), 1);
        ctx.delete_raw_file(f).unwrap();
        assert!(ctx.delete_raw_file(f).is_err());
    }

    #[test]
    fn context_is_sync_and_shareable_across_scoped_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<EmContext>();

        // Several workers create, fill, read back and delete private files
        // through one shared context; contents stay isolated and the final
        // disk is empty.
        let ctx = EmContext::new(EmConfig::new(64, 1024).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ctx = &ctx;
                scope.spawn(move || {
                    for round in 0..5u64 {
                        let data: Vec<u64> = (0..200).map(|i| i * 1000 + t).collect();
                        let file = ctx.write_all(&data).unwrap();
                        let back = ctx.read_all(&file).unwrap();
                        assert_eq!(back, data, "thread {t} round {round}");
                        ctx.delete_file(file).unwrap();
                    }
                });
            }
        });
        assert_eq!(ctx.disk_blocks(), 0);
        assert!(ctx.stats().total() > 0);
    }

    #[test]
    fn pool_diagnostics() {
        let ctx = EmContext::new(EmConfig::new(64, 256).unwrap());
        let _ = ctx.write_all(&(0..8u64).collect::<Vec<_>>()).unwrap();
        let (_hits, misses) = ctx.pool_hit_stats();
        assert!(misses >= 1);
        assert!(ctx.disk_blocks() <= 1);
    }
}
