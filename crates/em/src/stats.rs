//! I/O accounting.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters of block transfers, kept by a block device.
///
/// Every block read from the disk into the buffer pool and every block written
/// back (on dirty eviction or explicit flush) increments the respective
/// counter.  The paper's performance metric is exactly `reads + writes`
/// ("the number of transferred blocks during the entire process").
///
/// Two relaxed atomics: every transfer an [`EmContext`](crate::EmContext)
/// counts happens inside its buffer pool, which its workers reach through
/// one lock, so the counters see no contention of their own.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
}

thread_local! {
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
/// global [`IoStats`] stay exact under parallelism but count one total, so
/// a worker that wants to know what *its own* work cost wraps it in
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

    /// Records one block read.
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        bump_thread_meters(1, 0);
    }

    /// Records one block write.
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        bump_thread_meters(0, 1);
    }

    /// Returns the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
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

    /// The transfers `self` performed beyond `earlier`, per counter
    /// (saturating at zero) — the one snapshot subtraction: it keeps reads
    /// and writes paired and composes with [`total`]
    /// (`after.since(&before).total()` is "how many blocks moved between the
    /// two readings").
    ///
    /// [`total`]: IoSnapshot::total
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
        }
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
    fn since_saturates_per_counter() {
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
            after.since(&before),
            IoSnapshot {
                reads: 7,
                writes: 0
            }
        );
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
        // The global counters still saw everything.
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
    fn concurrent_counts_are_exact() {
        use std::sync::Arc;
        // Threads recording reads and writes side by side: relaxed atomics
        // still produce an exact total.
        let stats = Arc::new(IoStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_read();
                        s.record_write();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            stats.snapshot(),
            IoSnapshot {
                reads: 8000,
                writes: 8000
            }
        );
    }
}
