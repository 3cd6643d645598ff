//! RAM-backed simulated block device with I/O accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::{BlockDevice, EmError, IoSnapshot, IoStats, Result};

/// Identifier of a file on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// A simulated disk.
///
/// Files are growable sequences of fixed-size blocks stored in RAM.  Every
/// [`read_block`](BlockDevice::read_block) and
/// [`write_block`](BlockDevice::write_block) increments the disk's
/// [`IoStats`] counters, which is how the experiments measure the paper's
/// I/O-cost metric.  The disk itself performs no caching — that is the
/// [`BufferPool`](crate::BufferPool)'s job — so every call here corresponds
/// to one real block transfer.
#[derive(Debug)]
pub struct SimDisk {
    block_size: usize,
    files: Mutex<HashMap<FileId, Vec<Box<[u8]>>>>,
    next_id: AtomicU64,
    stats: IoStats,
}

impl SimDisk {
    /// Creates an empty disk with the given block size.
    pub fn new(block_size: usize) -> Self {
        SimDisk {
            block_size,
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            stats: IoStats::new(),
        }
    }
}

impl BlockDevice for SimDisk {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn create_file(&self) -> Result<FileId> {
        let id = FileId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.files.lock().insert(id, Vec::new());
        Ok(id)
    }

    fn delete_file(&self, id: FileId) -> Result<()> {
        match self.files.lock().remove(&id) {
            Some(_) => Ok(()),
            None => Err(EmError::FileNotFound(id)),
        }
    }

    fn file_exists(&self, id: FileId) -> bool {
        self.files.lock().contains_key(&id)
    }

    fn num_blocks(&self, id: FileId) -> Result<u64> {
        self.files
            .lock()
            .get(&id)
            .map(|blocks| blocks.len() as u64)
            .ok_or(EmError::FileNotFound(id))
    }

    fn block_exists(&self, id: FileId, idx: u64) -> bool {
        self.files
            .lock()
            .get(&id)
            .map(|blocks| (idx as usize) < blocks.len())
            .unwrap_or(false)
    }

    fn read_block(&self, id: FileId, idx: u64, dst: &mut [u8]) -> Result<()> {
        assert_eq!(dst.len(), self.block_size, "destination must be one block");
        let files = self.files.lock();
        let blocks = files.get(&id).ok_or(EmError::FileNotFound(id))?;
        let block = blocks.get(idx as usize).ok_or(EmError::BlockOutOfRange {
            file: id,
            block: idx,
            len: blocks.len() as u64,
        })?;
        dst.copy_from_slice(block);
        self.stats.record_read();
        Ok(())
    }

    fn write_block(&self, id: FileId, idx: u64, src: &[u8]) -> Result<()> {
        assert_eq!(src.len(), self.block_size, "source must be one block");
        let mut files = self.files.lock();
        let blocks = files.get_mut(&id).ok_or(EmError::FileNotFound(id))?;
        let idx = idx as usize;
        while blocks.len() <= idx {
            blocks.push(vec![0u8; self.block_size].into_boxed_slice());
        }
        blocks[idx].copy_from_slice(src);
        self.stats.record_write();
        Ok(())
    }

    fn total_blocks(&self) -> u64 {
        self.files
            .lock()
            .values()
            .map(|blocks| blocks.len() as u64)
            .sum()
    }

    fn num_files(&self) -> usize {
        self.files.lock().len()
    }

    fn stats(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_roundtrip() {
        let disk = SimDisk::new(64);
        let f = disk.create_file().unwrap();
        assert!(disk.file_exists(f));
        assert_eq!(disk.num_blocks(f).unwrap(), 0);

        let data = vec![7u8; 64];
        disk.write_block(f, 0, &data).unwrap();
        disk.write_block(f, 1, &[9u8; 64]).unwrap();
        assert_eq!(disk.num_blocks(f).unwrap(), 2);

        let mut out = vec![0u8; 64];
        disk.read_block(f, 0, &mut out).unwrap();
        assert_eq!(out, data);
        disk.read_block(f, 1, &mut out).unwrap();
        assert_eq!(out[0], 9);

        let snap = disk.stats();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.reads, 2);
    }

    #[test]
    fn sparse_writes_extend_with_zeros() {
        let disk = SimDisk::new(16);
        let f = disk.create_file().unwrap();
        disk.write_block(f, 3, &[1u8; 16]).unwrap();
        assert_eq!(disk.num_blocks(f).unwrap(), 4);
        let mut out = vec![2u8; 16];
        disk.read_block(f, 1, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 16]);
    }

    #[test]
    fn errors() {
        let disk = SimDisk::new(16);
        let f = disk.create_file().unwrap();
        let mut buf = vec![0u8; 16];
        assert!(matches!(
            disk.read_block(f, 0, &mut buf),
            Err(EmError::BlockOutOfRange { .. })
        ));
        let ghost = FileId(999);
        assert!(matches!(
            disk.read_block(ghost, 0, &mut buf),
            Err(EmError::FileNotFound(_))
        ));
        assert!(disk.delete_file(ghost).is_err());
        disk.delete_file(f).unwrap();
        assert!(!disk.file_exists(f));
        assert!(disk.delete_file(f).is_err());
    }

    #[test]
    fn ids_are_unique_and_counts_accumulate() {
        let disk = SimDisk::new(16);
        let a = disk.create_file().unwrap();
        let b = disk.create_file().unwrap();
        assert_ne!(a, b);
        assert_eq!(disk.num_files(), 2);
        disk.write_block(a, 0, &[0u8; 16]).unwrap();
        disk.write_block(b, 0, &[0u8; 16]).unwrap();
        assert_eq!(disk.total_blocks(), 2);
        disk.reset_stats();
        assert_eq!(disk.stats().total(), 0);
    }
}
