//! I/O accounting.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards.  Each thread is pinned to one shard, so
/// concurrent slab workers never contend on the same cache line; snapshots
/// merge all shards into one global view.
const SHARDS: usize = 16;

/// One cache-line-aligned pair of counters, owned (in the common case) by the
/// threads hashed onto it.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    reads: AtomicU64,
    writes: AtomicU64,
}

/// Thread-safe counters of block transfers, shared between the simulated disk
/// and the context that owns it.
///
/// Every block read from the disk into the buffer pool and every block written
/// back (on dirty eviction or explicit flush) increments the respective
/// counter.  The paper's performance metric is exactly `reads + writes`
/// ("the number of transferred blocks during the entire process").
///
/// # Concurrency
///
/// Counters are **sharded per thread**: each recording thread increments a
/// private cache-line-aligned shard chosen on first use, and
/// [`snapshot`](IoStats::snapshot) merges the shards.  This keeps the
/// accounting exact under the parallel slab stage of ExactMaxRS without
/// serializing workers on a single hot atomic.
#[derive(Debug, Default)]
pub struct IoStats {
    shards: [Shard; SHARDS],
}

/// Round-robin assignment of threads to shards.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;

    /// Stack of active per-thread meters (see [`measure_thread_io`]); every
    /// block transfer recorded by the current thread also increments each
    /// active meter.
    static THREAD_METERS: RefCell<Vec<IoSnapshot>> = const { RefCell::new(Vec::new()) };
}

/// Adds one transfer to every meter currently active on this thread.
fn bump_thread_meters(reads: u64, writes: u64) {
    THREAD_METERS.with(|meters| {
        for m in meters.borrow_mut().iter_mut() {
            m.reads += reads;
            m.writes += writes;
        }
    });
}

/// Measures the block transfers recorded **by the current thread** while `f`
/// runs, returning `f`'s result together with the observed [`IoSnapshot`].
///
/// This is the per-task accounting primitive for concurrent workloads: the
/// global [`IoStats`] shards stay exact under parallelism but merge into one
/// total, so a worker that wants to know what *its own* work cost wraps it in
/// `measure_thread_io` (the batched query executor attributes per-group I/O
/// this way while groups run on the `parallel_map` pool).  The meter counts
/// every transfer the current thread triggers — including evictions of other
/// files' dirty blocks it forces out of a shared buffer pool — and nothing
/// done by other threads, so the measurement is only complete when the task
/// runs single-threaded inside `f`.  Scopes nest; each returns its own count.
pub fn measure_thread_io<R>(f: impl FnOnce() -> R) -> (R, IoSnapshot) {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            THREAD_METERS.with(|meters| {
                meters.borrow_mut().pop();
            });
        }
    }
    THREAD_METERS.with(|meters| meters.borrow_mut().push(IoSnapshot::default()));
    let guard = Guard;
    let out = f();
    let io = THREAD_METERS
        .with(|meters| meters.borrow().last().copied())
        .unwrap_or_default();
    drop(guard);
    (out, io)
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        IoStats::default()
    }

    fn my_shard(&self) -> &Shard {
        &self.shards[MY_SHARD.with(|&s| s)]
    }

    /// Records one block read.
    pub fn record_read(&self) {
        self.my_shard().reads.fetch_add(1, Ordering::Relaxed);
        bump_thread_meters(1, 0);
    }

    /// Records one block write.
    pub fn record_write(&self) {
        self.my_shard().writes.fetch_add(1, Ordering::Relaxed);
        bump_thread_meters(0, 1);
    }

    /// Returns the current counter values, merged over all per-thread shards.
    pub fn snapshot(&self) -> IoSnapshot {
        let mut snap = IoSnapshot::default();
        for shard in &self.shards {
            snap.reads += shard.reads.load(Ordering::Relaxed);
            snap.writes += shard.writes.load(Ordering::Relaxed);
        }
        snap
    }

    /// Resets all shards to zero.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.reads.store(0, Ordering::Relaxed);
            shard.writes.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of the I/O counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Number of blocks read from disk.
    pub reads: u64,
    /// Number of blocks written to disk.
    pub writes: u64,
}

impl IoSnapshot {
    /// Total number of transferred blocks — the paper's I/O cost metric.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// The transfers `self` performed beyond `baseline`, per counter
    /// (saturating at zero) — the canonical snapshot subtraction.
    ///
    /// Use this instead of hand-rolling `saturating_sub` on the fields: it
    /// keeps reads and writes paired and composes with [`total`]
    /// (`a.delta(&b).total()` is "how many more blocks did `a` move").
    ///
    /// [`total`]: IoSnapshot::total
    pub fn delta(&self, baseline: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.saturating_sub(baseline.reads),
            writes: self.writes.saturating_sub(baseline.writes),
        }
    }

    /// Difference between two snapshots (`self` taken after `earlier`):
    /// alias of [`delta`](IoSnapshot::delta) reading naturally when the
    /// receiver is the later counter reading.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        self.delta(earlier)
    }
}

impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;
    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl std::fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} I/Os ({} reads, {} writes)",
            self.total(),
            self.reads,
            self.writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_reset() {
        let stats = IoStats::new();
        stats.record_read();
        stats.record_read();
        stats.record_write();
        let snap = stats.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.total(), 3);
        stats.reset();
        assert_eq!(stats.snapshot().total(), 0);
    }

    #[test]
    fn snapshot_arithmetic() {
        let a = IoSnapshot {
            reads: 10,
            writes: 4,
        };
        let b = IoSnapshot {
            reads: 3,
            writes: 1,
        };
        assert_eq!(
            a.since(&b),
            IoSnapshot {
                reads: 7,
                writes: 3
            }
        );
        assert_eq!(
            b.since(&a),
            IoSnapshot {
                reads: 0,
                writes: 0
            }
        );
        assert_eq!((a + b).total(), 18);
        assert!(a.to_string().contains("14 I/Os"));
    }

    #[test]
    fn delta_is_the_canonical_subtraction() {
        let after = IoSnapshot {
            reads: 10,
            writes: 4,
        };
        let before = IoSnapshot {
            reads: 3,
            writes: 6,
        };
        // Per-counter saturation: mixed over/undershoot never wraps.
        assert_eq!(
            after.delta(&before),
            IoSnapshot {
                reads: 7,
                writes: 0
            }
        );
        assert_eq!(after.since(&before), after.delta(&before));
    }

    #[test]
    fn thread_meter_counts_only_the_current_thread() {
        use std::sync::Arc;
        let stats = Arc::new(IoStats::new());
        let background = Arc::clone(&stats);
        let (_, io) = measure_thread_io(|| {
            // Another thread hammers the same stats while we record 3 + 1.
            let handle = std::thread::spawn(move || {
                for _ in 0..500 {
                    background.record_read();
                    background.record_write();
                }
            });
            stats.record_read();
            stats.record_read();
            stats.record_read();
            stats.record_write();
            handle.join().unwrap();
        });
        assert_eq!(io.reads, 3);
        assert_eq!(io.writes, 1);
        // The global shards still saw everything.
        assert_eq!(stats.snapshot().reads, 503);
        assert_eq!(stats.snapshot().writes, 501);
    }

    #[test]
    fn thread_meters_nest() {
        let stats = IoStats::new();
        let ((_, inner), outer) = measure_thread_io(|| {
            stats.record_read();
            let inner = measure_thread_io(|| stats.record_write());
            stats.record_read();
            inner
        });
        assert_eq!(
            inner,
            IoSnapshot {
                reads: 0,
                writes: 1
            }
        );
        assert_eq!(
            outer,
            IoSnapshot {
                reads: 2,
                writes: 1
            }
        );
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        use std::sync::Arc;
        let stats = Arc::new(IoStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_read();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.snapshot().reads, 4000);
    }

    #[test]
    fn shards_merge_into_one_exact_total() {
        use std::sync::Arc;
        // More threads than shards: wrap-around assignment must still produce
        // an exact global count.
        let stats = Arc::new(IoStats::new());
        let handles: Vec<_> = (0..SHARDS * 2 + 3)
            .map(|_| {
                let s = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.record_read();
                        s.record_write();
                    }
                })
            })
            .collect();
        let n = handles.len() as u64;
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.snapshot().reads, 100 * n);
        assert_eq!(stats.snapshot().writes, 100 * n);
    }
}
