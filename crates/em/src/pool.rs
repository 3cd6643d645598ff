//! Bounded buffer pool with CLOCK (second-chance) replacement.

use std::collections::HashMap;

use crate::{BlockDevice, FileId, Result};

/// Key of a cached block.
type BlockKey = (FileId, u64);

#[derive(Debug)]
struct Frame {
    key: Option<BlockKey>,
    data: Box<[u8]>,
    dirty: bool,
    referenced: bool,
}

/// A bounded pool of block-sized frames standing in for the main-memory
/// buffer of the EM model.
///
/// All block accesses of the algorithms go through the pool.  A *hit* costs no
/// I/O; a *miss* reads the block from the [`BlockDevice`] (one read I/O) after
/// possibly evicting a victim frame chosen by the CLOCK policy (one write I/O
/// if the victim is dirty).  The pool capacity equals
/// [`EmConfig::buffer_blocks`](crate::EmConfig::buffer_blocks), so varying the
/// buffer size in the experiments directly changes hit rates — exactly the
/// effect studied in Figures 13 and 15 of the paper.
#[derive(Debug)]
pub struct BufferPool {
    block_size: usize,
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<BlockKey, usize>,
    hand: usize,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates a pool with room for `capacity` blocks of `block_size` bytes.
    pub fn new(capacity: usize, block_size: usize) -> Self {
        assert!(capacity >= 2, "buffer pool needs at least two frames");
        BufferPool {
            block_size,
            capacity,
            frames: Vec::new(),
            map: HashMap::with_capacity(capacity),
            hand: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of cached blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses) counters — useful for diagnosing cache behaviour in the
    /// experiment harness.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `true` if the given block is currently cached.
    pub fn contains(&self, file: FileId, block: u64) -> bool {
        self.map.contains_key(&(file, block))
    }

    /// Runs `f` on the (read-only) contents of a block, fetching it from disk
    /// on a miss.
    pub fn with_read<R>(
        &mut self,
        disk: &dyn BlockDevice,
        file: FileId,
        block: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let slot = self.acquire(disk, file, block, false)?;
        self.frames[slot].referenced = true;
        Ok(f(&self.frames[slot].data))
    }

    /// Runs `f` on the mutable contents of a block and marks it dirty.
    ///
    /// When `create` is `true` and the block is neither cached nor on disk,
    /// the frame is zero-initialized instead of being read (used by appending
    /// writers); otherwise a miss fetches the current contents from disk
    /// (read-modify-write, used by the update-in-place index baselines).
    pub fn with_write<R>(
        &mut self,
        disk: &dyn BlockDevice,
        file: FileId,
        block: u64,
        create: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let slot = self.acquire(disk, file, block, create)?;
        let frame = &mut self.frames[slot];
        frame.referenced = true;
        frame.dirty = true;
        Ok(f(&mut frame.data))
    }

    /// Writes every dirty cached block of `file` back to disk.
    pub fn flush_file(&mut self, disk: &dyn BlockDevice, file: FileId) -> Result<()> {
        for slot in 0..self.frames.len() {
            if let Some((fid, block)) = self.frames[slot].key {
                if fid == file && self.frames[slot].dirty {
                    disk.write_block(fid, block, &self.frames[slot].data)?;
                    self.frames[slot].dirty = false;
                }
            }
        }
        Ok(())
    }

    /// Writes every dirty cached block back to disk.
    pub fn flush_all(&mut self, disk: &dyn BlockDevice) -> Result<()> {
        for slot in 0..self.frames.len() {
            if let Some((fid, block)) = self.frames[slot].key {
                if self.frames[slot].dirty {
                    disk.write_block(fid, block, &self.frames[slot].data)?;
                    self.frames[slot].dirty = false;
                }
            }
        }
        Ok(())
    }

    /// Discards all cached blocks of `file` *without* flushing them (used when
    /// a temporary file is deleted: its pending writes will never be needed).
    pub fn drop_file(&mut self, file: FileId) {
        for slot in 0..self.frames.len() {
            if let Some((fid, _)) = self.frames[slot].key {
                if fid == file {
                    let key = self.frames[slot].key.take().unwrap();
                    self.map.remove(&key);
                    self.frames[slot].dirty = false;
                    self.frames[slot].referenced = false;
                }
            }
        }
    }

    /// Returns the frame slot holding the requested block, loading or creating
    /// it if necessary.
    fn acquire(
        &mut self,
        disk: &dyn BlockDevice,
        file: FileId,
        block: u64,
        create: bool,
    ) -> Result<usize> {
        if let Some(&slot) = self.map.get(&(file, block)) {
            self.hits += 1;
            return Ok(slot);
        }
        self.misses += 1;
        let slot = self.free_slot(disk)?;
        if !create && disk.block_exists(file, block) {
            // Split borrow: read into the frame buffer directly.
            disk.read_block(file, block, &mut self.frames[slot].data)?;
        } else if create {
            self.frames[slot].data.fill(0);
        } else {
            // Reading a block that exists neither in the pool nor on disk.
            disk.read_block(file, block, &mut self.frames[slot].data)?;
        }
        self.frames[slot].key = Some((file, block));
        self.frames[slot].dirty = false;
        self.frames[slot].referenced = true;
        self.map.insert((file, block), slot);
        Ok(slot)
    }

    /// Finds a free frame, evicting a victim chosen by CLOCK if the pool is
    /// full.  Dirty victims are written back to disk.
    fn free_slot(&mut self, disk: &dyn BlockDevice) -> Result<usize> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                key: None,
                data: vec![0u8; self.block_size].into_boxed_slice(),
                dirty: false,
                referenced: false,
            });
            return Ok(self.frames.len() - 1);
        }
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[slot];
            if frame.key.is_none() {
                return Ok(slot);
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            // Evict this frame.  A dirty victim is written back before it is
            // unmapped, so a failed write leaves it cached and dirty.
            let (fid, block) = frame.key.expect("occupied frame has a key");
            if frame.dirty {
                // The file may have been deleted while its blocks were cached;
                // in that case the pending write is simply discarded.
                if disk.file_exists(fid) {
                    disk.write_block(fid, block, &frame.data)?;
                }
                frame.dirty = false;
            }
            frame.key = None;
            self.map.remove(&(fid, block));
            return Ok(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsDisk, SimDisk};

    /// Runs a test body against both backends: the RAM simulation and the
    /// filesystem device.  Pool behaviour — hit/miss accounting, CLOCK
    /// eviction, dirty write-back, `flush_file` / `drop_file` — must be
    /// byte- and count-identical under the [`BlockDevice`] trait.
    fn on_both_backends(capacity: usize, test: impl Fn(&dyn BlockDevice, BufferPool, FileId)) {
        let sim = SimDisk::new(32);
        let file = BlockDevice::create_file(&sim).unwrap();
        test(&sim, BufferPool::new(capacity, 32), file);

        let fs = FsDisk::new(32).unwrap();
        let file = fs.create_file().unwrap();
        test(&fs, BufferPool::new(capacity, 32), file);
    }

    #[test]
    fn cached_reads_cost_no_io() {
        on_both_backends(4, |disk, mut pool, file| {
            disk.write_block(file, 0, &[5u8; 32]).unwrap();
            disk.reset_stats();

            let v = pool.with_read(disk, file, 0, |data| data[0]).unwrap();
            assert_eq!(v, 5);
            assert_eq!(disk.stats().reads, 1);

            for _ in 0..10 {
                pool.with_read(disk, file, 0, |data| data[0]).unwrap();
            }
            assert_eq!(disk.stats().reads, 1, "repeated reads must hit the pool");
            let (hits, misses) = pool.hit_stats();
            assert_eq!(misses, 1);
            assert_eq!(hits, 10);
        });
    }

    #[test]
    fn eviction_writes_back_dirty_blocks() {
        on_both_backends(2, |disk, mut pool, file| {
            // Create three dirty blocks through a capacity-2 pool.
            for b in 0..3u64 {
                pool.with_write(disk, file, b, true, |data| data[0] = b as u8 + 1)
                    .unwrap();
            }
            // At least one block must have been evicted and written to disk.
            assert!(disk.stats().writes >= 1);
            pool.flush_all(disk).unwrap();
            disk.reset_stats();
            // All three blocks are now readable from disk with the right
            // contents.
            let mut fresh = BufferPool::new(2, 32);
            for b in 0..3u64 {
                let v = fresh.with_read(disk, file, b, |data| data[0]).unwrap();
                assert_eq!(v, b as u8 + 1);
            }
        });
    }

    #[test]
    fn dirty_write_back_order_is_clock_order() {
        on_both_backends(3, |disk, mut pool, file| {
            // Fill the pool with three dirty blocks, then touch a fourth:
            // CLOCK must evict block 0 first (oldest unreferenced), and the
            // device must see exactly that block written back.
            for b in 0..3u64 {
                pool.with_write(disk, file, b, true, |data| data[0] = 10 + b as u8)
                    .unwrap();
            }
            disk.reset_stats();
            pool.with_write(disk, file, 3, true, |data| data[0] = 13)
                .unwrap();
            assert_eq!(disk.stats().writes, 1, "exactly one victim written back");
            assert!(disk.block_exists(file, 0), "block 0 was the CLOCK victim");
            let mut out = vec![0u8; 32];
            disk.read_block(file, 0, &mut out).unwrap();
            assert_eq!(out[0], 10);
        });
    }

    #[test]
    fn create_does_not_read_from_disk() {
        on_both_backends(4, |disk, mut pool, file| {
            pool.with_write(disk, file, 0, true, |data| data[0] = 42)
                .unwrap();
            assert_eq!(disk.stats().reads, 0);
            assert_eq!(disk.stats().writes, 0, "nothing evicted or flushed yet");
            let v = pool.with_read(disk, file, 0, |d| d[0]).unwrap();
            assert_eq!(v, 42);
            assert_eq!(disk.stats().total(), 0, "block served from the pool");
        });
    }

    #[test]
    fn read_modify_write_fetches_existing_block() {
        on_both_backends(4, |disk, mut pool, file| {
            disk.write_block(file, 0, &[9u8; 32]).unwrap();
            disk.reset_stats();
            pool.with_write(disk, file, 0, false, |data| {
                assert_eq!(data[0], 9);
                data[0] = 10;
            })
            .unwrap();
            assert_eq!(disk.stats().reads, 1);
            pool.flush_file(disk, file).unwrap();
            let mut out = vec![0u8; 32];
            disk.read_block(file, 0, &mut out).unwrap();
            assert_eq!(out[0], 10);
        });
    }

    #[test]
    fn flush_file_only_touches_that_file() {
        on_both_backends(4, |disk, mut pool, file| {
            let other = disk.create_file().unwrap();
            pool.with_write(disk, file, 0, true, |d| d[0] = 1).unwrap();
            pool.with_write(disk, other, 0, true, |d| d[0] = 2).unwrap();
            disk.reset_stats();
            pool.flush_file(disk, file).unwrap();
            assert_eq!(disk.stats().writes, 1, "only `file`'s dirty block flushed");
            assert!(disk.block_exists(file, 0));
            assert!(!disk.block_exists(other, 0), "other file still pool-only");
            // The other file's block stays dirty and flushes later.
            pool.flush_all(disk).unwrap();
            assert!(disk.block_exists(other, 0));
        });
    }

    #[test]
    fn drop_file_discards_dirty_blocks() {
        on_both_backends(4, |disk, mut pool, file| {
            pool.with_write(disk, file, 0, true, |data| data[0] = 1)
                .unwrap();
            pool.drop_file(file);
            assert_eq!(pool.len(), 0);
            pool.flush_all(disk).unwrap();
            assert_eq!(disk.stats().writes, 0);
        });
    }

    #[test]
    fn capacity_is_respected() {
        on_both_backends(3, |disk, mut pool, file| {
            for b in 0..10u64 {
                pool.with_write(disk, file, b, true, |d| d[0] = b as u8)
                    .unwrap();
            }
            assert!(pool.len() <= 3);
            assert_eq!(pool.capacity(), 3);
            assert!(!pool.is_empty());
        });
    }

    #[test]
    fn eviction_of_deleted_file_block_is_silent() {
        on_both_backends(2, |disk, mut pool, file| {
            pool.with_write(disk, file, 0, true, |d| d[0] = 1).unwrap();
            disk.delete_file(file).unwrap();
            // Fill the pool with another file; evicting the stale dirty block
            // must not fail even though its file is gone.
            let other = disk.create_file().unwrap();
            for b in 0..4u64 {
                pool.with_write(disk, other, b, true, |d| d[0] = b as u8)
                    .unwrap();
            }
        });
    }

    #[test]
    fn hit_and_miss_counters_are_backend_independent() {
        // The same access pattern must produce identical pool statistics and
        // identical logical I/O on both backends.
        let mut results = Vec::new();
        on_both_backends(2, |disk, mut pool, file| {
            for b in 0..4u64 {
                pool.with_write(disk, file, b, true, |d| d[0] = b as u8)
                    .unwrap();
            }
            for b in (0..4u64).rev() {
                pool.with_read(disk, file, b, |d| d[0]).unwrap();
            }
            pool.flush_all(disk).unwrap();
        });
        // Re-run capturing the counters (closure above can't return them).
        for run in 0..2 {
            let sim;
            let fs;
            let disk: &dyn BlockDevice = if run == 0 {
                sim = SimDisk::new(32);
                &sim
            } else {
                fs = FsDisk::new(32).unwrap();
                &fs
            };
            let mut pool = BufferPool::new(2, 32);
            let file = disk.create_file().unwrap();
            for b in 0..4u64 {
                pool.with_write(disk, file, b, true, |d| d[0] = b as u8)
                    .unwrap();
            }
            for b in (0..4u64).rev() {
                pool.with_read(disk, file, b, |d| d[0]).unwrap();
            }
            pool.flush_all(disk).unwrap();
            results.push((pool.hit_stats(), disk.stats()));
        }
        assert_eq!(
            results[0], results[1],
            "sim vs fs pool/I-O counters diverged"
        );
    }
}
