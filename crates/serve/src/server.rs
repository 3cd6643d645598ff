//! [`MaxRsServer`]: the concurrent serving front-end.
//!
//! Clients submit single queries from many threads; the server accumulates
//! them in a [`MicroBatcher`] window so *strangers'* queries get planned
//! through one [`QueryBatch`] and share sweep passes, executes flushed
//! batches on a bounded worker pool, and applies admission control when the
//! submission queue outruns the workers.  The pipeline:
//!
//! ```text
//! submit()  ──admission──▶  MicroBatcher  ──flush──▶  ready queue  ──▶  workers
//!   │            (bounded: shed/block)    (time|size)                    │
//!   ╰──────────────────── Ticket ◀─── exactly one reply per query ◀──────╯
//! ```
//!
//! Answers are **bit-identical** to sequential
//! [`PreparedDataset::run`](maxrs_core::PreparedDataset::run) calls on the
//! same dataset, because execution *is*
//! [`run_batch`](maxrs_core::PreparedDataset::run_batch) — the serving layer
//! adds scheduling, never arithmetic.  `tests/serve_determinism.rs` proves
//! this under ≥ 8 racing clients on both storage backends.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maxrs_core::{Query, QueryBatch, QueryRun};

use crate::batcher::MicroBatcher;
use crate::config::{OverloadPolicy, ServeConfig};
use crate::error::{Result, ServeError};
use crate::registry::{DatasetHandle, DatasetRegistry};
use crate::stats::{ServerStats, StatsInner};

/// One admitted query on its way through the scheduler.
struct Request {
    dataset: DatasetHandle,
    query: Query,
    reply: mpsc::SyncSender<Result<QueryResponse>>,
}

/// The answer to one served query: the [`QueryRun`] plus an echo of the query
/// it answers (lets clients — and the property tests — verify responses were
/// never cross-wired between racing submissions).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The query this response answers, echoed back verbatim.
    pub query: Query,
    /// The execution outcome, bit-identical to a sequential
    /// [`PreparedDataset::run`](maxrs_core::PreparedDataset::run) of
    /// [`query`](QueryResponse::query).
    pub run: QueryRun,
}

/// A pending reply for one submitted query.  Every *admitted* query resolves
/// to exactly one reply — also during graceful shutdown.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<QueryResponse>>,
}

impl Ticket {
    /// Blocks until the reply arrives.
    pub fn wait(self) -> Result<QueryResponse> {
        self.rx.recv().map_err(|_| ServeError::ChannelClosed)?
    }

    /// Non-blocking probe: `Some` once the reply has arrived.
    pub fn try_wait(&self) -> Option<Result<QueryResponse>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ChannelClosed)),
        }
    }
}

/// Scheduler state behind the one server mutex.
struct State {
    batcher: MicroBatcher<Request>,
    ready: VecDeque<Vec<Request>>,
    /// Admitted queries not yet replied to (pending + executing); the
    /// quantity `queue_capacity` bounds.
    in_flight: usize,
    shutting_down: bool,
    /// Set by the batcher thread after its final drain: workers may exit once
    /// this is up and `ready` is empty.
    batcher_done: bool,
    stats: StatsInner,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the batcher thread (new submission re-arms the flush deadline).
    batcher_wake: Condvar,
    /// Wakes worker threads (a batch is ready).
    worker_wake: Condvar,
    /// Wakes submitters blocked by [`OverloadPolicy::Block`].
    space_wake: Condvar,
    config: ServeConfig,
    epoch: Instant,
}

impl Shared {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The concurrent serving layer: dynamic micro-batching over a
/// [`DatasetRegistry`], executed on a bounded worker pool with admission
/// control.  See the crate docs for a complete example.
#[derive(Debug)]
pub struct MaxRsServer {
    shared: Arc<Shared>,
    registry: Arc<DatasetRegistry>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .finish()
    }
}

impl MaxRsServer {
    /// Starts the server: one batcher thread plus `config.workers` worker
    /// threads, serving the datasets registered in `registry`.
    pub fn start(registry: Arc<DatasetRegistry>, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batcher: MicroBatcher::new(
                    u64::try_from(config.window.as_nanos()).unwrap_or(u64::MAX),
                    config.max_batch,
                ),
                ready: VecDeque::new(),
                in_flight: 0,
                shutting_down: false,
                batcher_done: false,
                stats: StatsInner::default(),
            }),
            batcher_wake: Condvar::new(),
            worker_wake: Condvar::new(),
            space_wake: Condvar::new(),
            config,
            epoch: Instant::now(),
        });

        let mut threads = Vec::with_capacity(config.workers + 1);
        let batcher_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("maxrs-serve-batcher".into())
                .spawn(move || batcher_loop(&batcher_shared))
                .expect("spawn batcher thread"),
        );
        for i in 0..config.workers {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("maxrs-serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .expect("spawn worker thread"),
            );
        }
        Ok(MaxRsServer {
            shared,
            registry,
            threads: Mutex::new(threads),
        })
    }

    /// The registry this server answers from.
    pub fn registry(&self) -> &Arc<DatasetRegistry> {
        &self.registry
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Submits one query against a registered dataset, returning a [`Ticket`]
    /// for its reply.  Validation and dataset lookup happen here, before
    /// admission; admission applies the configured overload policy (shed with
    /// [`ServeError::Overloaded`], or block until a slot frees).  An admitted
    /// query is guaranteed exactly one reply, also across a shutdown.
    pub fn submit(&self, dataset_id: &str, query: Query) -> Result<Ticket> {
        query.validate()?;
        let dataset = self
            .registry
            .get(dataset_id)
            .ok_or_else(|| ServeError::UnknownDataset(dataset_id.to_string()))?;

        let mut state = lock(&self.shared.state);
        // Admission control: the bound counts admitted-but-unanswered
        // queries, so it throttles exactly when the queue outruns the pool.
        while state.in_flight >= self.shared.config.queue_capacity {
            if state.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            match self.shared.config.overload {
                OverloadPolicy::Shed => {
                    state.stats.shed += 1;
                    return Err(ServeError::Overloaded);
                }
                OverloadPolicy::Block => {
                    state = self
                        .shared
                        .space_wake
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        state.in_flight += 1;
        state.stats.submitted += 1;

        let (tx, rx) = mpsc::sync_channel(1);
        let request = Request {
            dataset,
            query,
            reply: tx,
        };
        let now = self.shared.now_nanos();
        let was_empty = state.batcher.is_empty();
        if let Some(batch) = state.batcher.submit(request, now) {
            state.ready.push_back(batch);
            self.shared.worker_wake.notify_one();
        } else if was_empty {
            // First entry of a fresh batch: the batcher thread must re-arm
            // its flush deadline.
            self.shared.batcher_wake.notify_one();
        }
        Ok(Ticket { rx })
    }

    /// Blocking convenience: [`submit`](MaxRsServer::submit) then wait.
    pub fn query(&self, dataset_id: &str, query: Query) -> Result<QueryResponse> {
        self.submit(dataset_id, query)?.wait()
    }

    /// A snapshot of the serving counters (batch-size histogram, shed count,
    /// sweep groups executed, …).
    pub fn stats(&self) -> ServerStats {
        lock(&self.shared.state).stats.snapshot()
    }

    /// Graceful drain: refuses new submissions, flushes the pending
    /// micro-batch, lets the workers answer everything already admitted, then
    /// joins all threads.  Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutting_down = true;
            self.shared.batcher_wake.notify_all();
            self.shared.worker_wake.notify_all();
            self.shared.space_wake.notify_all();
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.threads));
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for MaxRsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locks a mutex ignoring poison: a panicking worker must not wedge the
/// scheduler for everyone else (same semantics as the parking_lot locks used
/// elsewhere in the workspace).
fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The batcher thread: sleeps until the pending batch's flush deadline (or a
/// submission re-arms it), flushes on expiry, and drains on shutdown.
fn batcher_loop(shared: &Shared) {
    let mut state = lock(&shared.state);
    loop {
        if state.shutting_down {
            break;
        }
        match state.batcher.next_deadline() {
            None => {
                state = shared
                    .batcher_wake
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            Some(deadline) => {
                let now = shared.now_nanos();
                if now >= deadline {
                    if let Some(batch) = state.batcher.poll(now) {
                        state.ready.push_back(batch);
                        shared.worker_wake.notify_one();
                    }
                } else {
                    let (guard, _) = shared
                        .batcher_wake
                        .wait_timeout(state, Duration::from_nanos(deadline - now))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    state = guard;
                }
            }
        }
    }
    // Graceful drain: everything admitted still gets executed and replied to.
    if let Some(batch) = state.batcher.drain() {
        state.ready.push_back(batch);
    }
    state.batcher_done = true;
    shared.worker_wake.notify_all();
}

/// A worker thread: pops ready batches and executes them until the server
/// drains.  Exits only once shutdown is flagged, the batcher has drained,
/// and no batch is left — so every admitted query is answered.
fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(batch) = state.ready.pop_front() {
                    state.stats.record_flush(batch.len());
                    break batch;
                }
                if state.shutting_down && state.batcher_done {
                    return;
                }
                state = shared
                    .worker_wake
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let answered = batch.len();
        let (replies, groups) = execute_batch(batch);
        // Count completions *before* dispatching replies, so a client that
        // has its answer can rely on the counters already reflecting it.
        let mut state = lock(&shared.state);
        state.in_flight -= answered;
        state.stats.completed += answered as u64;
        state.stats.sweep_groups += groups;
        drop(state);
        // Capacity freed: admit blocked submitters.
        shared.space_wake.notify_all();
        for (tx, reply) in replies {
            // A client that dropped its ticket forfeits the reply.
            let _ = tx.send(reply);
        }
    }
}

type Reply = (
    mpsc::SyncSender<Result<QueryResponse>>,
    Result<QueryResponse>,
);

/// Executes one flushed micro-batch: partitions it by dataset handle
/// (strangers' queries against the *same* dataset share a [`QueryBatch`] and
/// therefore sweep passes) and runs each planned batch.  Returns one reply
/// per member plus the number of sweep groups executed.
fn execute_batch(batch: Vec<Request>) -> (Vec<Reply>, u64) {
    // Partition by dataset identity, preserving submission order within each
    // partition (`QueryBatch` planning and its leader attribution are
    // order-dependent; determinism requires a stable order).
    let mut partitions: Vec<(DatasetHandle, Vec<Request>)> = Vec::new();
    for request in batch {
        match partitions
            .iter_mut()
            .find(|(dataset, _)| Arc::ptr_eq(dataset, &request.dataset))
        {
            Some((_, members)) => members.push(request),
            None => {
                let dataset = Arc::clone(&request.dataset);
                partitions.push((dataset, vec![request]));
            }
        }
    }

    let mut groups = 0u64;
    let mut replies = Vec::new();
    for (dataset, members) in partitions {
        let queries: Vec<Query> = members.iter().map(|m| m.query).collect();
        // Queries were validated at submission, so planning cannot fail on
        // them; treat a failure as an execution error for the whole partition.
        let outcome = match QueryBatch::new(&queries) {
            Ok(planned) => {
                groups += planned.num_groups() as u64;
                dataset.run_planned(&planned)
            }
            Err(e) => Err(e.into()),
        };
        match outcome {
            Ok(runs) => {
                for (member, run) in members.into_iter().zip(runs) {
                    let response = QueryResponse {
                        query: member.query,
                        run,
                    };
                    replies.push((member.reply, Ok(response)));
                }
            }
            Err(e) => {
                let message = e.to_string();
                for member in members {
                    replies.push((member.reply, Err(ServeError::Execution(message.clone()))));
                }
            }
        }
    }
    (replies, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_core::MaxRsEngine;
    use maxrs_geometry::{RectSize, WeightedPoint};

    fn registry_with(id: &str, objects: &[WeightedPoint]) -> Arc<DatasetRegistry> {
        let registry = Arc::new(DatasetRegistry::new(MaxRsEngine::new()));
        registry.insert(id, objects).unwrap();
        registry
    }

    fn cafes() -> Vec<WeightedPoint> {
        vec![
            WeightedPoint::unit(1.0, 1.0),
            WeightedPoint::unit(1.4, 1.2),
            WeightedPoint::unit(6.0, 6.0),
        ]
    }

    #[test]
    fn serves_a_query_end_to_end() {
        let registry = registry_with("cafes", &cafes());
        let server = MaxRsServer::start(registry, ServeConfig::default()).unwrap();
        let response = server
            .query("cafes", Query::max_rs(RectSize::square(2.0)))
            .unwrap();
        assert_eq!(response.run.answer.best_weight(), 2.0);
        assert_eq!(response.query, Query::max_rs(RectSize::square(2.0)));
        let stats = server.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }

    #[test]
    fn unknown_dataset_and_invalid_query_are_rejected_at_the_door() {
        let registry = registry_with("cafes", &cafes());
        let server = MaxRsServer::start(registry, ServeConfig::default()).unwrap();
        assert!(matches!(
            server.submit("nope", Query::max_rs(RectSize::square(1.0))),
            Err(ServeError::UnknownDataset(_))
        ));
        assert!(matches!(
            server.submit(
                "cafes",
                Query::MaxRs {
                    size: RectSize {
                        width: -1.0,
                        height: 1.0
                    }
                }
            ),
            Err(ServeError::Core(_))
        ));
        // Rejections are not admissions: nothing in flight, nothing lost.
        assert_eq!(server.stats().submitted, 0);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let registry = registry_with("cafes", &cafes());
        let server = MaxRsServer::start(registry, ServeConfig::default()).unwrap();
        server.shutdown();
        assert!(matches!(
            server.submit("cafes", Query::max_rs(RectSize::square(1.0))),
            Err(ServeError::ShuttingDown)
        ));
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn shed_policy_returns_overloaded_when_queue_is_full() {
        let registry = registry_with("cafes", &cafes());
        // One slot, one worker, long window: the first submission occupies
        // the queue until its window flushes, so the second must shed.
        let server = MaxRsServer::start(
            registry,
            ServeConfig {
                window: Duration::from_secs(5),
                max_batch: 64,
                workers: 1,
                queue_capacity: 1,
                overload: OverloadPolicy::Shed,
            },
        )
        .unwrap();
        let ticket = server
            .submit("cafes", Query::max_rs(RectSize::square(2.0)))
            .unwrap();
        assert!(matches!(
            server.submit("cafes", Query::max_rs(RectSize::square(2.0))),
            Err(ServeError::Overloaded)
        ));
        assert_eq!(server.stats().shed, 1);
        // The admitted query still completes on shutdown (graceful drain).
        server.shutdown();
        let response = ticket.wait().unwrap();
        assert_eq!(response.run.answer.best_weight(), 2.0);
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn zero_window_is_pass_through() {
        let registry = registry_with("cafes", &cafes());
        let server = MaxRsServer::start(
            registry,
            ServeConfig {
                window: Duration::ZERO,
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..3 {
            let response = server
                .query("cafes", Query::max_rs(RectSize::square(2.0)))
                .unwrap();
            assert_eq!(response.run.answer.best_weight(), 2.0);
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 3, "pass-through: one batch per query");
        assert!((stats.mean_batch_size() - 1.0).abs() < 1e-12);
        server.shutdown();
    }
}
