//! Decorators the traced run installs at two layer boundaries: the block
//! device under an `EmContext` and the transport under a
//! `ClusterCoordinator`.  Both forward every call unchanged, so counted
//! I/O and answers are the same with and without them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maxrs_cluster::{Request, Response, Transport, TransportError};
use maxrs_em::{BlockDevice, FileId, IoSnapshot};

use crate::trace::Tracer;

/// Block transfers and the time spent inside the device on them.
#[derive(Debug, Default)]
pub struct DeviceCounters {
    /// Timing is only taken while this is set.
    pub on: AtomicBool,
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub read_ns: AtomicU64,
    pub write_ns: AtomicU64,
}

/// A point-in-time copy of [`DeviceCounters`].
#[derive(Debug, Default, Clone, Copy)]
pub struct DeviceSample {
    pub reads: u64,
    pub writes: u64,
    pub read_ns: u64,
    pub write_ns: u64,
}

impl DeviceCounters {
    pub fn sample(&self) -> DeviceSample {
        DeviceSample {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
        }
    }
}

impl DeviceSample {
    pub fn since(&self, earlier: &DeviceSample) -> DeviceSample {
        DeviceSample {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            read_ns: self.read_ns - earlier.read_ns,
            write_ns: self.write_ns - earlier.write_ns,
        }
    }
}

/// A `BlockDevice` that times every block read and write of the device it
/// wraps.
#[derive(Debug)]
pub struct TimedDevice {
    inner: Box<dyn BlockDevice>,
    counters: Arc<DeviceCounters>,
}

impl TimedDevice {
    pub fn new(inner: Box<dyn BlockDevice>, counters: Arc<DeviceCounters>) -> Self {
        TimedDevice { inner, counters }
    }

    fn timed<R>(&self, count: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if !self.counters.on.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl BlockDevice for TimedDevice {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn create_file(&self) -> maxrs_em::Result<FileId> {
        self.inner.create_file()
    }

    fn delete_file(&self, id: FileId) -> maxrs_em::Result<()> {
        self.inner.delete_file(id)
    }

    fn file_exists(&self, id: FileId) -> bool {
        self.inner.file_exists(id)
    }

    fn num_blocks(&self, id: FileId) -> maxrs_em::Result<u64> {
        self.inner.num_blocks(id)
    }

    fn block_exists(&self, id: FileId, idx: u64) -> bool {
        self.inner.block_exists(id, idx)
    }

    fn read_block(&self, id: FileId, idx: u64, dst: &mut [u8]) -> maxrs_em::Result<()> {
        let c = &self.counters;
        self.timed(&c.reads, &c.read_ns, || self.inner.read_block(id, idx, dst))
    }

    fn write_block(&self, id: FileId, idx: u64, src: &[u8]) -> maxrs_em::Result<()> {
        let c = &self.counters;
        self.timed(&c.writes, &c.write_ns, || {
            self.inner.write_block(id, idx, src)
        })
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn num_files(&self) -> usize {
        self.inner.num_files()
    }

    fn stats(&self) -> IoSnapshot {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// RPC attempts through a [`TimedTransport`].
#[derive(Debug, Default)]
pub struct RpcCounters {
    /// Counting and spans are only taken while this is set.
    pub on: AtomicBool,
    /// Every `call`, i.e. every attempt.
    pub attempts: AtomicU64,
    /// Attempts that returned a transport error (the coordinator retries
    /// those within its budget).
    pub failed: AtomicU64,
    /// Encoded request plus response bytes.
    pub bytes: AtomicU64,
}

impl RpcCounters {
    pub fn sample(&self) -> (u64, u64, u64) {
        (
            self.attempts.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// A `Transport` that counts attempts and wire bytes and records one span
/// per attempt.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    counters: Arc<RpcCounters>,
    tracer: Arc<Tracer>,
}

impl TimedTransport {
    pub fn new(inner: Box<dyn Transport>, counters: Arc<RpcCounters>, tracer: Arc<Tracer>) -> Self {
        TimedTransport {
            inner,
            counters,
            tracer,
        }
    }
}

impl Transport for TimedTransport {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn call(&self, request: &Request, timeout: Duration) -> Result<Response, TransportError> {
        if !self.counters.on.load(Ordering::Relaxed) {
            return self.inner.call(request, timeout);
        }
        let start = Instant::now();
        let out = self.inner.call(request, timeout);
        let end = Instant::now();
        self.tracer.record_foreign("cluster.rpc", start, end);
        let c = &self.counters;
        c.attempts.fetch_add(1, Ordering::Relaxed);
        match &out {
            Ok(response) => {
                let bytes = request.encode().len() + response.encode().len();
                c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            Err(_) => {
                c.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}
