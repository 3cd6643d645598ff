//! Error-path hygiene: a run that fails part-way deletes every file it
//! allocated.  A device wrapping `SimDisk` fails the k-th file allocation or
//! the k-th block read; k sweeps over every allocation (or read) an unfailed
//! run makes, and after each error the context must hold exactly the files
//! and blocks it held before.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use maxrs_core::{
    exact_max_rs, load_objects, max_k_rs_in_memory, solve_rects, transform_objects, EngineOptions,
    ExactMaxRsOptions, MaxRsEngine, Query, Result,
};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::{BlockDevice, EmConfig, EmContext, EmError, FileId, IoSnapshot, SimDisk};
use maxrs_geometry::{Interval, Rect, RectSize};

/// The device operation a sweep fails.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Allocation,
    Read,
}

#[derive(Debug, Default)]
struct Faults {
    created: AtomicUsize,
    reads: AtomicUsize,
    /// 1-based index of the allocation to fail; 0 fails none.
    fail_create_at: AtomicUsize,
    /// 1-based index of the block read to fail; 0 fails none.
    fail_read_at: AtomicUsize,
}

impl Faults {
    /// Resets the counters and fails the `fail_at`-th operation of `fault`
    /// (none for 0).
    fn arm(&self, fault: Fault, fail_at: usize) {
        self.created.store(0, SeqCst);
        self.reads.store(0, SeqCst);
        let (create, read) = match fault {
            Fault::Allocation => (fail_at, 0),
            Fault::Read => (0, fail_at),
        };
        self.fail_create_at.store(create, SeqCst);
        self.fail_read_at.store(read, SeqCst);
    }

    /// The operations of `fault` since the last `arm`.
    fn count(&self, fault: Fault) -> usize {
        match fault {
            Fault::Allocation => self.created.load(SeqCst),
            Fault::Read => self.reads.load(SeqCst),
        }
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
        let n = self.faults.created.fetch_add(1, SeqCst) + 1;
        if n == self.faults.fail_create_at.load(SeqCst) {
            return Err(EmError::Io(format!("injected failure of allocation {n}")));
        }
        Ok(self.disk.create_file())
    }
    fn delete_file(&self, id: FileId) -> maxrs_em::Result<()> {
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
        let n = self.faults.reads.fetch_add(1, SeqCst) + 1;
        if n == self.faults.fail_read_at.load(SeqCst) {
            return Err(EmError::Io(format!("injected failure of read {n}")));
        }
        self.disk.read_block(id, idx, dst)
    }
    fn write_block(&self, id: FileId, idx: u64, src: &[u8]) -> maxrs_em::Result<()> {
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

/// Fails each allocation (or read) of `run` in turn and asserts that no
/// failed run leaves a file or a block behind.
fn assert_failures_clean_up(
    what: &str,
    ctx: &EmContext,
    faults: &Faults,
    fault: Fault,
    mut run: impl FnMut() -> Result<()>,
) {
    let usage = || {
        faults.arm(fault, 0);
        ctx.flush_all().unwrap();
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
