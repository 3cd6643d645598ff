//! Error-path hygiene: a run that fails part-way deletes every file it
//! allocated.  A device wrapping `SimDisk` fails the k-th file allocation,
//! block read, block write or file delete; k sweeps over every such
//! operation an unfailed run makes, and after each error the context must
//! hold exactly the files and blocks it held before — except a file whose
//! delete the device itself refused.  A failed write-back loses no cached
//! block.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use maxrs_core::{
    exact_max_rs, load_objects, max_k_rs_in_memory, solve_rects, transform_objects, EngineOptions,
    ExactMaxRsOptions, MaxRsEngine, Query, Result,
};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::{BlockDevice, EmConfig, EmContext, EmError, FileId, IoSnapshot, SimDisk};
use maxrs_geometry::{Interval, Rect, RectSize};

/// The device operation a sweep fails.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    Allocation,
    Read,
    Write,
    Delete,
}

const FAULTS: usize = 4;

#[derive(Debug, Default)]
struct Faults {
    /// Operations of each kind since the last `arm`, indexed by `Fault`.
    counts: [AtomicUsize; FAULTS],
    /// 1-based index of the operation of each kind to fail; 0 fails none.
    fail_at: [AtomicUsize; FAULTS],
    /// Files whose delete the device refused, still allocated.
    refused: Mutex<Vec<FileId>>,
}

impl Faults {
    /// Resets the counters and fails the `fail_at`-th operation of `fault`
    /// (none for 0).
    fn arm(&self, fault: Fault, fail_at: usize) {
        for (i, (count, at)) in self.counts.iter().zip(&self.fail_at).enumerate() {
            count.store(0, SeqCst);
            at.store(if i == fault as usize { fail_at } else { 0 }, SeqCst);
        }
    }

    /// The operations of `fault` since the last `arm`.
    fn count(&self, fault: Fault) -> usize {
        self.counts[fault as usize].load(SeqCst)
    }

    /// Counts one operation of `fault`, failing it when it is the armed one.
    fn tick(&self, fault: Fault) -> maxrs_em::Result<()> {
        let n = self.counts[fault as usize].fetch_add(1, SeqCst) + 1;
        if n == self.fail_at[fault as usize].load(SeqCst) {
            return Err(EmError::Io(format!("injected failure of {fault:?} {n}")));
        }
        Ok(())
    }
}

#[derive(Debug)]
struct FaultyDisk {
    disk: SimDisk,
    faults: Arc<Faults>,
}

impl BlockDevice for FaultyDisk {
    fn backend_name(&self) -> &'static str {
        "faulty-sim"
    }
    fn block_size(&self) -> usize {
        self.disk.block_size()
    }
    fn create_file(&self) -> maxrs_em::Result<FileId> {
        self.faults.tick(Fault::Allocation)?;
        self.disk.create_file()
    }
    fn delete_file(&self, id: FileId) -> maxrs_em::Result<()> {
        if let Err(e) = self.faults.tick(Fault::Delete) {
            self.faults.refused.lock().unwrap().push(id);
            return Err(e);
        }
        self.disk.delete_file(id)
    }
    fn file_exists(&self, id: FileId) -> bool {
        self.disk.file_exists(id)
    }
    fn num_blocks(&self, id: FileId) -> maxrs_em::Result<u64> {
        self.disk.num_blocks(id)
    }
    fn block_exists(&self, id: FileId, idx: u64) -> bool {
        self.disk.block_exists(id, idx)
    }
    fn read_block(&self, id: FileId, idx: u64, dst: &mut [u8]) -> maxrs_em::Result<()> {
        self.faults.tick(Fault::Read)?;
        self.disk.read_block(id, idx, dst)
    }
    fn write_block(&self, id: FileId, idx: u64, src: &[u8]) -> maxrs_em::Result<()> {
        self.faults.tick(Fault::Write)?;
        self.disk.write_block(id, idx, src)
    }
    fn total_blocks(&self) -> u64 {
        self.disk.total_blocks()
    }
    fn num_files(&self) -> usize {
        self.disk.num_files()
    }
    fn stats(&self) -> IoSnapshot {
        self.disk.stats()
    }
    fn reset_stats(&self) {
        self.disk.reset_stats()
    }
}

/// 512-byte blocks and a 4-block buffer: a few hundred objects recurse
/// through several slab levels and sort in several merge passes.
fn faulty_context() -> (EmContext, Arc<Faults>) {
    let faults = Arc::new(Faults::default());
    let disk = FaultyDisk {
        disk: SimDisk::new(512),
        faults: Arc::clone(&faults),
    };
    let ctx = EmContext::with_device(EmConfig::new(512, 4 * 512).unwrap(), Box::new(disk));
    (ctx, faults)
}

/// Fails each allocation, read or write of `run` in turn and asserts that no
/// failed run leaves a file or a block behind.
fn assert_failures_clean_up(
    what: &str,
    ctx: &EmContext,
    faults: &Faults,
    fault: Fault,
    mut run: impl FnMut() -> Result<()>,
) {
    // The flush's writes are not the run's: count from after it.
    let usage = || {
        ctx.flush_all().unwrap();
        faults.arm(fault, 0);
        (ctx.num_files(), ctx.disk_blocks())
    };
    let before = usage();
    run().unwrap();
    let operations = faults.count(fault);
    assert_eq!(usage(), before, "{what}: the unfailed run leaked");
    let mut leaks = Vec::new();
    for k in 1..=operations {
        let before = usage();
        faults.arm(fault, k);
        assert!(
            run().is_err(),
            "{what}: failing {fault:?} {k} went unreported"
        );
        if usage() != before {
            leaks.push(k);
        }
    }
    faults.arm(fault, 0);
    assert!(
        leaks.is_empty(),
        "{what}: {} of {operations} failed {fault:?}s leaked, first at {:?}",
        leaks.len(),
        &leaks[..leaks.len().min(8)]
    );
}

#[test]
fn failed_allocations_leave_no_files_behind() {
    let objects = Dataset::generate(DatasetKind::Uniform, 300, 7).objects;
    let size = RectSize::square(20_000.0);
    let opts = ExactMaxRsOptions::sequential();
    let (ctx, faults) = faulty_context();
    let file = load_objects(&ctx, &objects).unwrap();

    let fault = Fault::Allocation;
    assert_failures_clean_up("solve_rects", &ctx, &faults, fault, || {
        let rects = ctx.write_all(&transform_objects(&objects, size))?;
        let slab_file = solve_rects(&ctx, &opts, rects, Interval::UNBOUNDED, false, 1)?;
        Ok(ctx.delete_file(slab_file)?)
    });
    assert_failures_clean_up("exact_max_rs", &ctx, &faults, fault, || {
        exact_max_rs(&ctx, &file, size, &opts).map(drop)
    });

    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: ctx.config(),
        exact: opts,
        force_strategy: None,
    });
    let prepared = engine.prepare_file(&ctx, &file).unwrap();
    assert!(prepared.is_external());
    let domain = Rect::new(250_000.0, 750_000.0, 250_000.0, 750_000.0);
    for query in [
        Query::max_rs(size),
        Query::top_k(size, 3),
        Query::min_rs(size, domain),
        Query::approx_max_crs(20_000.0),
    ] {
        assert_failures_clean_up(query.name(), &ctx, &faults, fault, || {
            prepared.run(&query).map(drop)
        });
    }
}

#[test]
fn failed_reads_leave_no_files_behind() {
    let objects = Dataset::generate(DatasetKind::Uniform, 200, 11).objects;
    let size = RectSize::square(20_000.0);
    let opts = ExactMaxRsOptions::sequential();
    let (ctx, faults) = faulty_context();
    let file = load_objects(&ctx, &objects).unwrap();
    let fault = Fault::Read;

    assert_failures_clean_up("exact_max_rs", &ctx, &faults, fault, || {
        exact_max_rs(&ctx, &file, size, &opts).map(drop)
    });

    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: ctx.config(),
        exact: opts,
        force_strategy: None,
    });
    let prepared = engine.prepare_file(&ctx, &file).unwrap();
    assert!(prepared.is_external());
    // Tall top-k rectangles: consecutive picks lie within one rectangle
    // height of each other, so later rounds splice overlapping bands into
    // their predecessors' slab-files.
    let tall = RectSize::new(60_000.0, 200_000.0);
    let picks = max_k_rs_in_memory(&objects, tall, 4);
    assert_eq!(picks.len(), 4);
    assert!(picks
        .windows(2)
        .any(|p| (p[0].center.y - p[1].center.y).abs() < tall.height));
    let domain = Rect::new(250_000.0, 750_000.0, 250_000.0, 750_000.0);
    for query in [
        Query::max_rs(size),
        Query::top_k(tall, 4),
        Query::min_rs(size, domain),
        Query::approx_max_crs(20_000.0),
    ] {
        assert_failures_clean_up(query.name(), &ctx, &faults, fault, || {
            prepared.run(&query).map(drop)
        });
    }
}

#[test]
fn failed_writes_leave_no_files_behind() {
    let objects = Dataset::generate(DatasetKind::Uniform, 200, 11).objects;
    let size = RectSize::square(20_000.0);
    let opts = ExactMaxRsOptions::sequential();
    let (ctx, faults) = faulty_context();
    let file = load_objects(&ctx, &objects).unwrap();
    let fault = Fault::Write;

    assert_failures_clean_up("exact_max_rs", &ctx, &faults, fault, || {
        exact_max_rs(&ctx, &file, size, &opts).map(drop)
    });

    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: ctx.config(),
        exact: opts,
        force_strategy: None,
    });
    assert_failures_clean_up("prepare_file", &ctx, &faults, fault, || {
        engine.prepare_file(&ctx, &file).map(drop)
    });
    let prepared = engine.prepare_file(&ctx, &file).unwrap();
    assert!(prepared.is_external());
    let domain = Rect::new(250_000.0, 750_000.0, 250_000.0, 750_000.0);
    for query in [
        Query::max_rs(size),
        Query::top_k(RectSize::new(60_000.0, 200_000.0), 4),
        Query::min_rs(size, domain),
        Query::approx_max_crs(20_000.0),
    ] {
        assert_failures_clean_up(query.name(), &ctx, &faults, fault, || {
            prepared.run(&query).map(drop)
        });
    }
}

/// A dirty block whose eviction write fails stays cached and dirty, so the
/// file it belongs to still reads back every value.
#[test]
fn a_failed_eviction_write_keeps_the_victim() {
    let (ctx, faults) = faulty_context();
    let values: Vec<u64> = (0..1_000).collect();
    // 16 blocks of 64 values through a 4-block buffer: the last blocks of
    // `first` are still dirty in the pool when the second file starts.
    let first = ctx.write_all(&values).unwrap();
    faults.arm(Fault::Write, 1);
    assert!(
        ctx.write_all(&values).is_err(),
        "the failed eviction write went unreported"
    );
    faults.arm(Fault::Write, 0);
    let read = ctx.read_all(&first).unwrap();
    let wrong = read.iter().zip(&values).filter(|(a, b)| a != b).count();
    assert_eq!(
        wrong,
        0,
        "{wrong} of {} values read back wrong",
        values.len()
    );
}
