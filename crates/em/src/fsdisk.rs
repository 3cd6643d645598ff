//! Filesystem-backed block device.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{BlockDevice, EmError, FileId, IoSnapshot, IoStats, Result};

/// Process-wide counter making concurrently created devices unique (used for
/// both temp-directory names and per-device file-name prefixes).
static DEVICE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The live devices of each directory in use, by canonical path: how many
/// there are, and whether a device created the directory.
static DIRECTORIES: Mutex<Option<HashMap<PathBuf, (usize, bool)>>> = Mutex::new(None);

/// One backing file: its open handle plus the logical block count.  The
/// handle sits behind an `Arc` so block transfers can run outside the
/// directory lock (the lock is held only to look the handle up).
#[derive(Debug)]
struct FsFile {
    handle: Arc<File>,
    path: PathBuf,
    blocks: u64,
}

/// Positioned one-block read: no shared seek cursor on Unix; elsewhere a
/// seek+read on the (per-call) borrowed handle.
fn pread(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// Positioned one-block write; see [`pread`].
fn pwrite(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }
}

/// A block device backed by real files under a directory via `std::fs`.
///
/// Each EM file becomes one file `blk-<id>.bin` in the device directory;
/// block `idx` lives at byte offset `idx * block_size`, so every access is a
/// block-aligned positioned read or write.  Sparse writes (block written past
/// the current end) leave a hole the filesystem reads back as zeros — the
/// same semantics as [`SimDisk`](crate::SimDisk)'s zero-fill growth.
///
/// The *logical* I/O accounting is identical to the simulated backend: one
/// counted read/write per block transfer, regardless of what the OS page
/// cache does underneath.  Answers and I/O counts are therefore
/// backend-invariant (the backend-parity tests assert exactly that); what
/// changes is that blocks genuinely hit the filesystem.
///
/// # RAII
///
/// Dropping the device removes every backing file.  A directory a device
/// created (the default temp-directory constructor, or a
/// [`new_in`](FsDisk::new_in) path that did not exist yet) goes too, when
/// the last device using it drops and nothing else is left in it.  A
/// directory that existed before any device used it stays, with only the
/// devices' own block files removed.
///
/// Several devices may share one directory: every device names its files
/// with a process- and instance-unique prefix, so they never truncate or
/// unlink each other's data, and each drop removes only its own files, so
/// the other devices keep working whichever drops first.
#[derive(Debug)]
pub struct FsDisk {
    block_size: usize,
    dir: PathBuf,
    /// The canonical path under which [`DIRECTORIES`] counts this device.
    dir_key: PathBuf,
    /// Process- and instance-unique file-name prefix, so devices sharing a
    /// directory cannot clobber each other's backing files.
    prefix: String,
    files: Mutex<HashMap<FileId, FsFile>>,
    next_id: AtomicU64,
    stats: IoStats,
}

impl FsDisk {
    /// Creates a device with its own fresh directory under the system temp
    /// directory.
    pub fn new(block_size: usize) -> Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "maxrs-fsdisk-{}-{}",
            std::process::id(),
            DEVICE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Self::create(block_size, dir, true)
    }

    /// Creates a device storing its files under `dir` (created if missing;
    /// then removed when the last device using it drops, if no other files
    /// remain in it).
    pub fn new_in(dir: impl AsRef<Path>, block_size: usize) -> Result<Self> {
        Self::create(block_size, dir.as_ref().to_path_buf(), false)
    }

    /// Creates the device and counts it under `dir`, which a device created
    /// if it did not exist or `created` is set.
    fn create(block_size: usize, dir: PathBuf, created: bool) -> Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        let mut directories = DIRECTORIES.lock();
        let created = created || !dir.exists();
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let dir_key = std::fs::canonicalize(&dir).map_err(io_err)?;
        directories
            .get_or_insert_with(HashMap::new)
            .entry(dir_key.clone())
            .or_insert((0, created))
            .0 += 1;
        drop(directories);
        let prefix = format!(
            "blk-{}-{}",
            std::process::id(),
            DEVICE_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        Ok(FsDisk {
            block_size,
            dir,
            dir_key,
            prefix,
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            stats: IoStats::new(),
        })
    }

    /// The directory holding the backing files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Maps an `std::io` failure into the EM error type.
fn io_err(e: std::io::Error) -> EmError {
    EmError::Io(e.to_string())
}

impl BlockDevice for FsDisk {
    fn backend_name(&self) -> &'static str {
        "fs"
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn create_file(&self) -> Result<FileId> {
        let id = FileId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let path = self.dir.join(format!("{}-{}.bin", self.prefix, id.0));
        let handle = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(io_err)?;
        self.files.lock().insert(
            id,
            FsFile {
                handle: Arc::new(handle),
                path,
                blocks: 0,
            },
        );
        Ok(id)
    }

    fn delete_file(&self, id: FileId) -> Result<()> {
        match self.files.lock().remove(&id) {
            Some(file) => {
                // Close the handle before unlinking (drop order), then remove
                // the backing file; a file the OS already lost is not an
                // error the EM layer can act on.
                let path = file.path.clone();
                drop(file);
                std::fs::remove_file(path).map_err(io_err)
            }
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
            .map(|f| f.blocks)
            .ok_or(EmError::FileNotFound(id))
    }

    fn block_exists(&self, id: FileId, idx: u64) -> bool {
        self.files
            .lock()
            .get(&id)
            .map(|f| idx < f.blocks)
            .unwrap_or(false)
    }

    fn read_block(&self, id: FileId, idx: u64, dst: &mut [u8]) -> Result<()> {
        assert_eq!(dst.len(), self.block_size, "destination must be one block");
        // Look the handle up under the lock, transfer outside it: the
        // directory mutex never spans a blocking syscall.
        let handle = {
            let files = self.files.lock();
            let file = files.get(&id).ok_or(EmError::FileNotFound(id))?;
            if idx >= file.blocks {
                return Err(EmError::BlockOutOfRange {
                    file: id,
                    block: idx,
                    len: file.blocks,
                });
            }
            Arc::clone(&file.handle)
        };
        pread(&handle, dst, idx * self.block_size as u64).map_err(io_err)?;
        self.stats.record_read();
        Ok(())
    }

    fn write_block(&self, id: FileId, idx: u64, src: &[u8]) -> Result<()> {
        assert_eq!(src.len(), self.block_size, "source must be one block");
        let handle = {
            let files = self.files.lock();
            let file = files.get(&id).ok_or(EmError::FileNotFound(id))?;
            Arc::clone(&file.handle)
        };
        // Writing past EOF extends the file with a zero-filled hole, matching
        // the simulated backend's sparse growth.
        pwrite(&handle, src, idx * self.block_size as u64).map_err(io_err)?;
        if let Some(file) = self.files.lock().get_mut(&id) {
            file.blocks = file.blocks.max(idx + 1);
        }
        self.stats.record_write();
        Ok(())
    }

    fn total_blocks(&self) -> u64 {
        self.files.lock().values().map(|f| f.blocks).sum()
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

impl Drop for FsDisk {
    fn drop(&mut self) {
        let mut files = self.files.lock();
        for (_, file) in files.drain() {
            let path = file.path.clone();
            drop(file);
            let _ = std::fs::remove_file(path);
        }
        drop(files);
        let mut directories = DIRECTORIES.lock();
        let map = directories.get_or_insert_with(HashMap::new);
        if let Some((live, created)) = map.get_mut(&self.dir_key) {
            *live -= 1;
            if *live == 0 {
                let created = *created;
                map.remove(&self.dir_key);
                if created {
                    // Not `remove_dir_all`: a file no device made stays, and
                    // so does the directory holding it.
                    let _ = std::fs::remove_dir(&self.dir_key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_roundtrip() {
        let disk = FsDisk::new(64).unwrap();
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
    fn sparse_writes_read_back_zeros() {
        let disk = FsDisk::new(16).unwrap();
        let f = disk.create_file().unwrap();
        disk.write_block(f, 3, &[1u8; 16]).unwrap();
        assert_eq!(disk.num_blocks(f).unwrap(), 4);
        let mut out = vec![2u8; 16];
        disk.read_block(f, 1, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 16], "filesystem holes read back as zeros");
    }

    #[test]
    fn errors_match_the_simulated_backend() {
        let disk = FsDisk::new(16).unwrap();
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

    fn block_files_in(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == "bin"))
                    .count()
            })
            .unwrap_or(0)
    }

    #[test]
    fn drop_removes_backing_files_and_owned_dir() {
        let disk = FsDisk::new(32).unwrap();
        let dir = disk.dir().to_path_buf();
        let f = disk.create_file().unwrap();
        disk.write_block(f, 0, &[1u8; 32]).unwrap();
        assert_eq!(block_files_in(&dir), 1);
        drop(disk);
        assert!(!dir.exists(), "owned temp dir must be removed on drop");
    }

    #[test]
    fn new_in_preexisting_dir_is_kept_but_emptied_of_block_files() {
        let base = std::env::temp_dir().join(format!("maxrs-fsdisk-keep-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        {
            let disk = FsDisk::new_in(&base, 32).unwrap();
            let f = disk.create_file().unwrap();
            disk.write_block(f, 0, &[5u8; 32]).unwrap();
            assert_eq!(block_files_in(&base), 1);
        }
        assert!(base.exists(), "pre-existing dir survives the device");
        assert_eq!(block_files_in(&base), 0, "block files are removed");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn delete_file_unlinks_on_disk() {
        let disk = FsDisk::new(32).unwrap();
        let f = disk.create_file().unwrap();
        disk.write_block(f, 0, &[1u8; 32]).unwrap();
        assert_eq!(block_files_in(disk.dir()), 1);
        disk.delete_file(f).unwrap();
        assert_eq!(block_files_in(disk.dir()), 0);
        assert_eq!(disk.total_blocks(), 0);
    }

    #[test]
    fn sequential_scan_is_correct_and_counted() {
        let disk = FsDisk::new(32).unwrap();
        let f = disk.create_file().unwrap();
        const BLOCKS: u64 = 64;
        for i in 0..BLOCKS {
            disk.write_block(f, i, &[i as u8; 32]).unwrap();
        }
        let before = disk.stats();
        let mut buf = vec![0u8; 32];
        for i in 0..BLOCKS {
            disk.read_block(f, i, &mut buf).unwrap();
            assert_eq!(buf, vec![i as u8; 32], "block {i} content");
        }
        // Every transfer counts exactly once.
        let moved = disk.stats().since(&before);
        assert_eq!(moved.reads, BLOCKS);
        assert_eq!(moved.writes, 0);

        // A second pass is identical.
        for i in 0..BLOCKS {
            disk.read_block(f, i, &mut buf).unwrap();
            assert_eq!(buf, vec![i as u8; 32]);
        }
        assert_eq!(disk.stats().since(&before).reads, 2 * BLOCKS);
    }

    #[test]
    fn devices_sharing_a_directory_do_not_clobber_each_other() {
        let base = std::env::temp_dir().join(format!("maxrs-fsdisk-share-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        {
            let a = FsDisk::new_in(&base, 32).unwrap();
            let fa = a.create_file().unwrap();
            a.write_block(fa, 0, &[1u8; 32]).unwrap();

            // A second device in the same directory allocates the same
            // FileId(0) but must not truncate or shadow `a`'s backing file.
            let b = FsDisk::new_in(&base, 32).unwrap();
            let fb = b.create_file().unwrap();
            b.write_block(fb, 0, &[2u8; 32]).unwrap();

            let mut out = vec![0u8; 32];
            a.read_block(fa, 0, &mut out).unwrap();
            assert_eq!(out[0], 1, "device A's data survived device B");
            b.read_block(fb, 0, &mut out).unwrap();
            assert_eq!(out[0], 2);

            // Dropping B removes only B's files.
            drop(b);
            a.read_block(fa, 0, &mut out).unwrap();
            assert_eq!(out[0], 1, "device A's file survived device B's drop");
        }
        assert_eq!(block_files_in(&base), 0);
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// A directory path under the temp directory that does not exist yet.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maxrs-fsdisk-{tag}-{}-{}",
            std::process::id(),
            DEVICE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        assert!(!dir.exists());
        dir
    }

    /// Two devices in `base`, each holding one written block: the first
    /// device made there, then the second.
    fn two_devices_in(base: &Path) -> (FsDisk, FsDisk) {
        let first = FsDisk::new_in(base, 32).unwrap();
        let f = first.create_file().unwrap();
        first.write_block(f, 0, &[1u8; 32]).unwrap();
        let second = FsDisk::new_in(base, 32).unwrap();
        let f = second.create_file().unwrap();
        second.write_block(f, 0, &[2u8; 32]).unwrap();
        (first, second)
    }

    #[test]
    fn the_device_that_created_a_shared_directory_drops_first() {
        let base = fresh_dir("created");
        let (creator, other) = two_devices_in(&base);
        let before = FileId(0);

        drop(creator);
        // The other device's files, and the directory holding them, survive
        // the creator, and it can still create, write and read blocks.
        let mut out = vec![0u8; 32];
        other.read_block(before, 0, &mut out).unwrap();
        assert_eq!(out[0], 2);
        let after = other.create_file().unwrap();
        other.write_block(after, 0, &[3u8; 32]).unwrap();
        other.read_block(after, 0, &mut out).unwrap();
        assert_eq!(out[0], 3);
        assert_eq!(block_files_in(&base), 2);

        // The last device out removes the directory a device created.
        drop(other);
        assert!(!base.exists(), "the created directory outlived its devices");
    }

    #[test]
    fn the_device_that_created_a_shared_directory_drops_last() {
        let base = fresh_dir("created-last");
        let (creator, other) = two_devices_in(&base);
        drop(other);
        assert!(base.exists(), "the creator still uses the directory");
        assert_eq!(block_files_in(&base), 1);
        drop(creator);
        assert!(!base.exists(), "the created directory outlived its devices");
    }

    #[test]
    fn a_preexisting_shared_directory_outlives_every_device() {
        let base = fresh_dir("preexisting");
        std::fs::create_dir_all(&base).unwrap();
        let (first, second) = two_devices_in(&base);
        drop(first);
        drop(second);
        assert!(base.exists(), "a directory no device created stays");
        assert_eq!(block_files_in(&base), 0, "block files are removed");
        std::fs::remove_dir(&base).unwrap();
    }
}
