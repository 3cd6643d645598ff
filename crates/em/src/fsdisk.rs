//! Filesystem-backed block device: a block store in one backing file.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::{BlockDevice, EmError, FileId, IoSnapshot, IoStats, Result};

/// Process-wide counter making concurrently created devices unique (used for
/// both temp-directory names and backing-file names).
static DEVICE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The live devices of each directory in use, by canonical path: how many
/// there are, and whether a device created the directory.
static DIRECTORIES: Mutex<Option<HashMap<PathBuf, (usize, bool)>>> = Mutex::new(None);

/// The slot-table entry of a hole: a block inside a file that no write
/// reached, which maps no slot and reads back as zeros.
const HOLE: u64 = u64::MAX;

/// Where every block of every EM file lives in the backing file.
#[derive(Debug, Default)]
struct SlotTable {
    /// Each EM file's blocks: the backing-file slot of each, or [`HOLE`].
    files: HashMap<FileId, Vec<u64>>,
    /// Slots no file maps, reused last freed first before the backing file
    /// grows.
    free: Vec<u64>,
    /// Slots handed out so far, free ones included: the backing file holds
    /// no block past them.
    slots: u64,
}

impl SlotTable {
    /// A slot for a block no slot holds yet: a free one, else a new one at
    /// the end of the backing file.
    fn take(&mut self) -> u64 {
        self.free.pop().unwrap_or_else(|| {
            self.slots += 1;
            self.slots - 1
        })
    }

    /// Maps block `idx` of file `id` to `slot`, which a write has just
    /// filled, growing the file with holes up to it.  A slot the block held
    /// before, or `slot` itself if the file was deleted meanwhile, goes back
    /// on the free list.
    fn map(&mut self, id: FileId, idx: u64, slot: u64) {
        let Some(blocks) = self.files.get_mut(&id) else {
            return self.free.push(slot);
        };
        let idx = idx as usize;
        if blocks.len() <= idx {
            blocks.resize(idx + 1, HOLE);
        }
        let old = std::mem::replace(&mut blocks[idx], slot);
        if old != HOLE {
            self.free.push(old);
        }
    }
}

/// A device's backing-file path and its count in [`DIRECTORIES`].  Dropping
/// it removes the backing file, and the directory too when it was the
/// directory's last device and a device created the directory.
#[derive(Debug)]
struct Lease {
    path: PathBuf,
    /// The canonical path under which [`DIRECTORIES`] counts the device.
    dir_key: PathBuf,
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
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

/// A block device storing every EM file in one backing file via `std::fs`.
///
/// The device keeps one backing file, `blk-<pid>-<n>.bin` in its directory,
/// made when the device is.  Every EM file is a table of slot numbers into
/// it: the block in slot `s` lives at byte offset `s * block_size`, so every
/// counted transfer is one block-aligned positioned read or write.  Creating
/// an EM file adds an empty table; deleting one puts its slots on a free
/// list, and a write that needs a slot takes the last one freed before it
/// grows the backing file.  No EM file creates or unlinks an OS file.
///
/// A write past a file's end extends its table with holes, which map no slot
/// and read back as zeros — the same semantics as
/// [`SimDisk`](crate::SimDisk)'s zero-fill growth; the block counts include
/// them.  A block is mapped to a slot only after a full-block write into
/// that slot succeeded (a failed write leaves the table as it was and frees
/// the slot), so a file never reads another file's old bytes.  Slot lookup
/// and allocation run under the device's lock, the transfers outside it, so
/// a file must not be deleted while a transfer on it is in flight: the
/// transfer could land in a slot another file has since taken.
///
/// The *logical* I/O accounting is identical to the simulated backend: one
/// counted read/write per block transfer (reading a hole counts one read),
/// regardless of what the OS page cache does underneath.  Answers and I/O
/// counts are therefore backend-invariant (the backend-parity tests assert
/// exactly that); what changes is that blocks genuinely hit the filesystem.
///
/// # Space
///
/// The backing file never shrinks while the device lives: its length is the
/// high-water mark of live blocks (written blocks of files not yet deleted;
/// holes take no space), and the slot tables cost 8 bytes of memory per
/// block, holes included.
///
/// # RAII
///
/// Dropping the device removes its backing file.  A directory a device
/// created (the default temp-directory constructor, or a
/// [`new_in`](FsDisk::new_in) path that did not exist yet) goes too, when
/// the last device using it drops and nothing else is left in it.  A
/// directory that existed before any device used it stays, with only the
/// devices' own backing files removed.
///
/// Several devices may share one directory: every device names its backing
/// file with a process- and instance-unique prefix, so they never truncate or
/// unlink each other's data, and each drop removes only its own file, so the
/// other devices keep working whichever drops first.
#[derive(Debug)]
pub struct FsDisk {
    block_size: usize,
    dir: PathBuf,
    /// The backing file; declared before `_lease` so that it closes before
    /// the lease removes it.
    backing: File,
    /// Held for its drop, which removes the backing file.
    _lease: Lease,
    table: Mutex<SlotTable>,
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

    /// Creates a device storing its backing file under `dir` (created if
    /// missing; then removed when the last device using it drops, if no
    /// other files remain in it).
    pub fn new_in(dir: impl AsRef<Path>, block_size: usize) -> Result<Self> {
        Self::create(block_size, dir.as_ref().to_path_buf(), false)
    }

    /// Creates the device and its backing file, and counts it under `dir`,
    /// which a device created if it did not exist or `created` is set.
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
        // From here on a failure drops the lease, which undoes the count.
        let lease = Lease {
            path: dir.join(format!(
                "blk-{}-{}.bin",
                std::process::id(),
                DEVICE_COUNTER.fetch_add(1, Ordering::Relaxed)
            )),
            dir_key,
        };
        let backing = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&lease.path)
            .map_err(io_err)?;
        Ok(FsDisk {
            block_size,
            dir,
            backing,
            _lease: lease,
            table: Mutex::new(SlotTable::default()),
            next_id: AtomicU64::new(0),
            stats: IoStats::new(),
        })
    }

    /// The directory holding the backing file.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The byte offset of a slot in the backing file.
    fn offset(&self, slot: u64) -> u64 {
        slot * self.block_size as u64
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
        self.table.lock().files.insert(id, Vec::new());
        Ok(id)
    }

    fn delete_file(&self, id: FileId) -> Result<()> {
        let mut table = self.table.lock();
        let blocks = table.files.remove(&id).ok_or(EmError::FileNotFound(id))?;
        // Reversed, so the next file takes the slots in the order this one
        // held them.
        table
            .free
            .extend(blocks.into_iter().rev().filter(|&slot| slot != HOLE));
        Ok(())
    }

    fn file_exists(&self, id: FileId) -> bool {
        self.table.lock().files.contains_key(&id)
    }

    fn num_blocks(&self, id: FileId) -> Result<u64> {
        self.table
            .lock()
            .files
            .get(&id)
            .map(|blocks| blocks.len() as u64)
            .ok_or(EmError::FileNotFound(id))
    }

    fn block_exists(&self, id: FileId, idx: u64) -> bool {
        self.table
            .lock()
            .files
            .get(&id)
            .map(|blocks| (idx as usize) < blocks.len())
            .unwrap_or(false)
    }

    fn read_block(&self, id: FileId, idx: u64, dst: &mut [u8]) -> Result<()> {
        assert_eq!(dst.len(), self.block_size, "destination must be one block");
        let slot = {
            let table = self.table.lock();
            let blocks = table.files.get(&id).ok_or(EmError::FileNotFound(id))?;
            *blocks.get(idx as usize).ok_or(EmError::BlockOutOfRange {
                file: id,
                block: idx,
                len: blocks.len() as u64,
            })?
        };
        if slot == HOLE {
            dst.fill(0);
        } else {
            pread(&self.backing, dst, self.offset(slot)).map_err(io_err)?;
        }
        self.stats.record_read();
        Ok(())
    }

    fn write_block(&self, id: FileId, idx: u64, src: &[u8]) -> Result<()> {
        assert_eq!(src.len(), self.block_size, "source must be one block");
        // A mapped block is overwritten in place.  Any other block takes a
        // slot here but is mapped to it only after the write succeeded.
        let (slot, fresh) = {
            let mut table = self.table.lock();
            let blocks = table.files.get(&id).ok_or(EmError::FileNotFound(id))?;
            match blocks.get(idx as usize) {
                Some(&slot) if slot != HOLE => (slot, false),
                _ => (table.take(), true),
            }
        };
        let written = pwrite(&self.backing, src, self.offset(slot));
        if fresh {
            let mut table = self.table.lock();
            match written {
                Ok(()) => table.map(id, idx, slot),
                Err(_) => table.free.push(slot),
            }
        }
        written.map_err(io_err)?;
        self.stats.record_write();
        Ok(())
    }

    fn total_blocks(&self) -> u64 {
        let table = self.table.lock();
        table.files.values().map(|blocks| blocks.len() as u64).sum()
    }

    fn num_files(&self) -> usize {
        self.table.lock().files.len()
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
    use crate::SimDisk;

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
        assert_eq!(out, vec![0u8; 16], "holes read back as zeros");
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
        assert_eq!(block_files_in(&dir), 1, "the device makes its backing file");
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

    /// The backing file's length in bytes.
    fn backing_len(disk: &FsDisk) -> u64 {
        disk.backing.metadata().unwrap().len()
    }

    #[test]
    fn deleted_slots_are_reused_and_the_backing_file_does_not_grow() {
        let disk = FsDisk::new(32).unwrap();
        let dir = disk.dir().to_path_buf();
        let mut file = disk.create_file().unwrap();
        for idx in 0..4 {
            disk.write_block(file, idx, &[1u8; 32]).unwrap();
        }
        assert_eq!(backing_len(&disk), 4 * 32);
        // Each new EM file reuses the slots its predecessor freed, and none
        // of them is an OS file of its own.
        let mut out = vec![0u8; 32];
        for round in 2..50u8 {
            disk.delete_file(file).unwrap();
            assert_eq!(disk.total_blocks(), 0);
            file = disk.create_file().unwrap();
            for idx in 0..4 {
                disk.write_block(file, idx, &[round; 32]).unwrap();
            }
            assert_eq!(backing_len(&disk), 4 * 32, "round {round} grew the file");
            assert_eq!(block_files_in(&dir), 1, "an EM file made an OS file");
            for idx in 0..4 {
                disk.read_block(file, idx, &mut out).unwrap();
                assert_eq!(out, vec![round; 32]);
            }
        }
        drop(disk);
        assert!(!dir.exists());
    }

    #[test]
    fn a_failed_write_maps_nothing_and_frees_its_slot() {
        let mut disk = FsDisk::new(32).unwrap();
        let file = disk.create_file().unwrap();
        disk.write_block(file, 0, &[1u8; 32]).unwrap();
        // A read-only handle makes every write into the backing file fail.
        let path = disk._lease.path.clone();
        disk.backing = File::open(&path).unwrap();
        assert!(matches!(
            disk.write_block(file, 3, &[2u8; 32]),
            Err(EmError::Io(_))
        ));
        assert_eq!(
            disk.num_blocks(file).unwrap(),
            1,
            "the failed write grew the file"
        );
        assert_eq!(disk.table.lock().free, vec![1], "the slot was not freed");
        assert_eq!(disk.stats().writes, 1, "a failed write was counted");

        disk.backing = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        disk.write_block(file, 3, &[2u8; 32]).unwrap();
        assert_eq!(disk.table.lock().files[&file], vec![0, HOLE, HOLE, 1]);
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
        assert_eq!(block_files_in(&base), 1, "one backing file per device");

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

    /// One SplitMix64 step: the differential test's seeded generator.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Asserts that the devices agree on everything a caller observes about
    /// `files` and about the device as a whole.
    fn assert_same_state(sim: &SimDisk, fs: &FsDisk, files: &[FileId]) {
        assert_eq!(sim.num_files(), fs.num_files());
        assert_eq!(sim.total_blocks(), fs.total_blocks());
        assert_eq!(sim.stats(), fs.stats());
        for &file in files {
            assert_eq!(sim.file_exists(file), fs.file_exists(file));
            assert_eq!(sim.num_blocks(file), fs.num_blocks(file));
            for idx in 0..sim.num_blocks(file).unwrap_or(0) + 2 {
                assert_eq!(sim.block_exists(file, idx), fs.block_exists(file, idx));
            }
        }
    }

    /// Asserts that every slot handed out is mapped by exactly one block or
    /// is on the free list.
    fn assert_slots_accounted(disk: &FsDisk) {
        let table = disk.table.lock();
        let mut held: Vec<u64> = table.files.values().flatten().copied().collect();
        held.retain(|&slot| slot != HOLE);
        held.extend(&table.free);
        held.sort_unstable();
        assert_eq!(
            held,
            (0..table.slots).collect::<Vec<_>>(),
            "slot lost or shared"
        );
    }

    #[test]
    fn matches_the_simulated_disk_under_random_operations() {
        const BS: usize = 16;
        let sim = SimDisk::new(BS);
        let fs = FsDisk::new(BS).unwrap();
        let mut state = 0x5EED;
        let (mut sim_out, mut fs_out) = (vec![0u8; BS], vec![0u8; BS]);
        let create = || {
            let file = sim.create_file().unwrap();
            assert_eq!(fs.create_file(), Ok(file));
            file
        };

        // A hole reads zeros although the slots beside it were reused from
        // a deleted file that held non-zero bytes.
        let old = create();
        for idx in 0..3 {
            sim.write_block(old, idx, &[0xAB; BS]).unwrap();
            fs.write_block(old, idx, &[0xAB; BS]).unwrap();
        }
        assert_eq!(sim.delete_file(old), fs.delete_file(old));
        let new = create();
        for idx in [1, 3] {
            sim.write_block(new, idx, &[7; BS]).unwrap();
            fs.write_block(new, idx, &[7; BS]).unwrap();
        }
        assert_eq!(
            fs.table.lock().slots,
            3,
            "the new file reused the old slots"
        );
        for idx in [0, 2] {
            fs.read_block(new, idx, &mut fs_out).unwrap();
            assert_eq!(
                fs_out,
                vec![0u8; BS],
                "hole {idx} read another file's bytes"
            );
        }
        assert_eq!(sim.delete_file(new), fs.delete_file(new));
        sim.reset_stats();
        fs.reset_stats();

        // 100 cycles of create, random writes (up to two blocks past the
        // end) and reads (one block past it), and a delete, compared after
        // every operation.  `written` holds the written blocks of live files,
        // whose peak count (3 so far, `old`'s) the backing file's length
        // must follow.
        let mut files = vec![old, new];
        let mut live = Vec::new();
        let mut written = std::collections::HashSet::new();
        let (mut high_water, mut fresh_writes, mut hole_reads) = (3, 0, 0);
        for _cycle in 0..100 {
            let file = create();
            files.push(file);
            live.push(file);
            for step in 0..9 {
                let file = live[next_random(&mut state) as usize % live.len()];
                let len = sim.num_blocks(file).unwrap();
                if step < 8 && !next_random(&mut state).is_multiple_of(3) {
                    let idx = next_random(&mut state) % (len + 3);
                    let data = vec![next_random(&mut state) as u8 | 1; BS];
                    sim.write_block(file, idx, &data).unwrap();
                    fs.write_block(file, idx, &data).unwrap();
                    fresh_writes += usize::from(written.insert((file, idx)));
                } else {
                    let idx = next_random(&mut state) % (len + 1);
                    hole_reads += usize::from(idx < len && !written.contains(&(file, idx)));
                    let sim_read = sim.read_block(file, idx, &mut sim_out);
                    assert_eq!(sim_read, fs.read_block(file, idx, &mut fs_out));
                    assert_eq!(sim_out, fs_out, "block {idx} of {file:?}");
                }
                if step == 8 && live.len() > 1 + next_random(&mut state) as usize % 4 {
                    let gone = live.swap_remove(next_random(&mut state) as usize % live.len());
                    assert_eq!(sim.delete_file(gone), fs.delete_file(gone));
                    assert_eq!(sim.delete_file(gone), fs.delete_file(gone));
                    written.retain(|&(file, _)| file != gone);
                }
                assert_same_state(&sim, &fs, &files);
                assert_slots_accounted(&fs);
                high_water = high_water.max(written.len() as u64);
                assert_eq!(backing_len(&fs), high_water * BS as u64);
                assert_eq!(block_files_in(fs.dir()), 1);
            }
        }
        assert!(hole_reads > 0, "the sequence read no hole");
        assert!(
            high_water < fresh_writes as u64,
            "the sequence reused no slot"
        );
    }
}
