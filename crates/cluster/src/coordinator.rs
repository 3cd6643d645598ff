//! The cluster coordinator: shard routing, concurrent sub-query fan-out,
//! canonical merging, and failure handling.
//!
//! [`ClusterCoordinator`] runs the sharded distribution sweep of
//! [`maxrs_core::shard`]: shard routing ([`ShardRoute`]), the crop +
//! span-event decomposition, the canonical [`merge_sweep`] and
//! min-next-breakpoint canonicalization — with the per-shard work pushed to
//! [`ShardServer`](crate::ShardServer)s behind a pluggable [`Transport`].
//! Those operations make the cluster a
//! [`SweepHost`], and the one query driver of `maxrs-core`
//! ([`run_on_host`]) answers every [`Query`] variant on it, batches sharing
//! sweep groups exactly as on a prepared dataset.  Every accumulation that
//! touches floats happens in **global shard order**, so all four variants
//! are bit-identical to the unsharded [`PreparedDataset::run`]
//! (maxrs_core::PreparedDataset::run) — proven by the determinism suite on
//! both transports and both storage backends.
//!
//! ## Robustness
//!
//! Each request runs under a per-attempt timeout with bounded retries and
//! exponential backoff ([`ClusterConfig`]).  A server that exhausts its
//! retry budget fails the query with
//! [`ClusterError::ShardUnavailable`] naming the server and its shards —
//! never a hang, never a silently wrong answer — and accumulates toward a
//! per-server failure threshold after which the coordinator fails fast
//! without touching the network ([`ShardHealth::Dead`]) until
//! [`revive`](ClusterCoordinator::revive)d.  Server-side errors
//! ([`ClusterError::Remote`]) are deterministic and are not retried.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use maxrs_core::{
    merge_sweep, parallel_map, run_on_host, EngineOptions, ExecutionStrategy, ObjectRecord, Query,
    QueryBatch, QueryRun, ShardRoute, SlabTuple, SpanEvent, SweepHost,
};
use maxrs_em::{external_sort_by_key, EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::error::{ClusterError, Result};
use crate::protocol::{PassSpec, PieceSet, Request, Response};
use crate::transport::Transport;

/// Timeout, retry and health policy of a coordinator.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Per-attempt timeout of every request.
    pub request_timeout: Duration,
    /// Retries after the first failed attempt (so `retries + 1` attempts
    /// per request).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per subsequent retry.
    /// `Duration::ZERO` disables sleeping (deterministic tests).
    pub backoff: Duration,
    /// Consecutive failed **requests** (each already through its retry
    /// budget) after which a server is marked dead and fails fast.
    pub failure_threshold: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            request_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(10),
            failure_threshold: 3,
        }
    }
}

/// Health of one server as tracked by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Last request succeeded.
    Healthy,
    /// At least one recent request failed, but the failure threshold has
    /// not been reached.
    Degraded,
    /// The failure threshold was crossed: requests fail fast until
    /// [`ClusterCoordinator::revive`].
    Dead,
}

#[derive(Default)]
struct HealthState {
    consecutive_failures: u32,
    dead: bool,
}

struct Member {
    transport: Box<dyn Transport>,
    shards: Vec<usize>,
    health: Mutex<HealthState>,
}

struct ShardRef {
    server: usize,
    len: u64,
    prepare_io: IoSnapshot,
}

/// Fronts a set of shard servers as one queryable dataset.
pub struct ClusterCoordinator {
    opts: EngineOptions,
    config: ClusterConfig,
    members: Vec<Member>,
    boundaries: Vec<f64>,
    shards: Vec<ShardRef>,
    merge_ctx: Box<EmContext>,
    backend: String,
    len: u64,
}

impl std::fmt::Debug for ClusterCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCoordinator")
            .field("servers", &self.members.len())
            .field("shards", &self.shards.len())
            .field("len", &self.len)
            .finish()
    }
}

impl ClusterCoordinator {
    /// Connects to the given servers: performs the `Describe` handshake on
    /// every transport, validates that all servers agree on the shard
    /// boundaries, and that the global shards `0..K` are hosted exactly
    /// once across the cluster.
    pub fn connect(
        opts: EngineOptions,
        config: ClusterConfig,
        transports: Vec<Box<dyn Transport>>,
    ) -> Result<Self> {
        if transports.is_empty() {
            return Err(ClusterError::Topology {
                detail: "a cluster needs at least one server".to_string(),
            });
        }
        let merge_ctx = Box::new(EmContext::new(opts.em_config));
        let mut coordinator = ClusterCoordinator {
            opts,
            config,
            members: transports
                .into_iter()
                .map(|transport| Member {
                    transport,
                    shards: Vec::new(),
                    health: Mutex::new(HealthState::default()),
                })
                .collect(),
            boundaries: Vec::new(),
            shards: Vec::new(),
            merge_ctx,
            backend: String::new(),
            len: 0,
        };

        let mut shard_map: Vec<Option<ShardRef>> = Vec::new();
        for i in 0..coordinator.members.len() {
            let agg = Mutex::new(IoSnapshot::default());
            let resp = coordinator.rpc(i, &Request::Describe, &agg)?;
            let Response::Described {
                boundaries,
                backend,
                shards,
            } = resp
            else {
                return Err(ClusterError::Protocol {
                    detail: format!(
                        "server '{}' answered the handshake with the wrong reply",
                        coordinator.members[i].transport.name()
                    ),
                });
            };
            if i == 0 {
                shard_map = (0..boundaries.len() + 1).map(|_| None).collect();
                coordinator.boundaries = boundaries;
            } else if boundaries != coordinator.boundaries {
                return Err(ClusterError::Topology {
                    detail: format!(
                        "server '{}' disagrees on the shard boundaries",
                        coordinator.members[i].transport.name()
                    ),
                });
            }
            for info in shards {
                let id = info.shard as usize;
                if id >= shard_map.len() {
                    return Err(ClusterError::Topology {
                        detail: format!(
                            "server '{}' hosts shard {id} but the cluster only has {} shards",
                            coordinator.members[i].transport.name(),
                            shard_map.len()
                        ),
                    });
                }
                if let Some(prev) = &shard_map[id] {
                    return Err(ClusterError::Topology {
                        detail: format!(
                            "shard {id} hosted by both '{}' and '{}'",
                            coordinator.members[prev.server].transport.name(),
                            coordinator.members[i].transport.name()
                        ),
                    });
                }
                shard_map[id] = Some(ShardRef {
                    server: i,
                    len: info.len,
                    prepare_io: info.prepare_io,
                });
                coordinator.members[i].shards.push(id);
            }
            if coordinator.backend.is_empty() {
                coordinator.backend = backend;
            }
        }

        for (id, slot) in shard_map.iter().enumerate() {
            if slot.is_none() {
                return Err(ClusterError::Topology {
                    detail: format!("shard {id} is hosted by no server"),
                });
            }
        }
        coordinator.shards = shard_map.into_iter().map(|s| s.expect("checked")).collect();
        coordinator.len = coordinator.shards.iter().map(|s| s.len).sum();
        Ok(coordinator)
    }

    // ---- dataset-shaped accessors ------------------------------------------

    /// The engine options the coordinator (and its merge device) runs with.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// Total objects across the cluster.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the cluster holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of global shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.members.len()
    }

    /// Global interior shard boundaries (`K - 1` values).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Objects per global shard.
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.len).collect()
    }

    /// Summed preparation I/O reported by the servers at handshake.
    pub fn prepare_io(&self) -> IoSnapshot {
        self.shards
            .iter()
            .fold(IoSnapshot::default(), |acc, s| acc + s.prepare_io)
    }

    /// Storage backend name reported by the servers (first non-empty).
    pub fn backend_name(&self) -> &str {
        &self.backend
    }

    /// How many shards `query` routes to: the shards whose objects'
    /// rectangles can reach the query's root slab once it is inflated by
    /// half the rectangle width ([`ShardRoute::engaged_by`]) — every shard
    /// for the unbounded-root variants (MaxRS, top-k, ApproxMaxCRS),
    /// possibly fewer for MinRS over a narrow center domain.
    pub fn shards_touched(&self, query: &Query) -> usize {
        ShardRoute::engaged_by(&self.boundaries, query).len()
    }

    /// How many servers the sweep passes of `query` fan out to.
    pub fn fan_out(&self, query: &Query) -> usize {
        self.engaged_servers(&ShardRoute::engaged_by(&self.boundaries, query))
            .len()
    }

    /// Current health of every server, by transport name.
    pub fn health(&self) -> Vec<(String, ShardHealth)> {
        self.members
            .iter()
            .map(|m| {
                let h = m.health.lock().expect("health lock");
                let state = if h.dead {
                    ShardHealth::Dead
                } else if h.consecutive_failures > 0 {
                    ShardHealth::Degraded
                } else {
                    ShardHealth::Healthy
                };
                (m.transport.name().to_string(), state)
            })
            .collect()
    }

    /// Clears the dead flag and failure count of the named server so it is
    /// tried again (e.g. after an operator restarted it).  Returns `false`
    /// when no server has that name.
    pub fn revive(&self, server: &str) -> bool {
        for m in &self.members {
            if m.transport.name() == server {
                let mut h = m.health.lock().expect("health lock");
                h.dead = false;
                h.consecutive_failures = 0;
                return true;
            }
        }
        false
    }

    // ---- query execution ----------------------------------------------------

    /// Answers one query, bit-identical to the unsharded
    /// [`PreparedDataset::run`](maxrs_core::PreparedDataset::run).
    pub fn run(&self, query: &Query) -> Result<QueryRun> {
        let mut runs = self.run_batch(std::slice::from_ref(query))?;
        Ok(runs.pop().expect("one query in, one run out"))
    }

    /// Validates and plans `queries` into sweep groups, then answers them —
    /// see [`run_planned`](ClusterCoordinator::run_planned).
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<QueryRun>> {
        self.run_planned(&QueryBatch::new(queries)?)
    }

    /// Answers an already planned batch through the query driver: one
    /// distributed sweep pass per sweep group, shared by the group's
    /// members exactly as on a prepared dataset.  Each run's I/O is its
    /// attributed share of the server-side transfers plus the coordinator's
    /// merge device.
    pub fn run_planned(&self, batch: &QueryBatch) -> Result<Vec<QueryRun>> {
        let workers = self.members.len();
        let strategy = if workers > 1 {
            ExecutionStrategy::ExternalParallel
        } else {
            ExecutionStrategy::ExternalSequential
        };
        let host = ClusterSweep {
            cluster: self,
            remote_io: Mutex::new(IoSnapshot::default()),
        };
        run_on_host(&host, batch, strategy, workers)
    }

    // ---- routing ------------------------------------------------------------

    /// Server indices hosting any of the given shards, ascending, deduped.
    fn engaged_servers(&self, shards: &[usize]) -> Vec<usize> {
        let mut servers: Vec<usize> = shards.iter().map(|&s| self.shards[s].server).collect();
        servers.sort_unstable();
        servers.dedup();
        servers
    }

    fn all_servers(&self) -> Vec<usize> {
        (0..self.members.len()).collect()
    }

    // ---- rpc plumbing -------------------------------------------------------

    /// One request with the full robustness treatment: fast-fail on dead
    /// servers, per-attempt timeout, bounded retries with exponential
    /// backoff, health bookkeeping, remote I/O aggregation.
    fn rpc(&self, server: usize, request: &Request, agg: &Mutex<IoSnapshot>) -> Result<Response> {
        let member = &self.members[server];
        {
            let h = member.health.lock().expect("health lock");
            if h.dead {
                return Err(ClusterError::ShardUnavailable {
                    server: member.transport.name().to_string(),
                    shards: member.shards.clone(),
                    attempts: 0,
                    detail: "server is marked dead by the health tracker".to_string(),
                });
            }
        }
        let attempts = self.config.retries + 1;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 && !self.config.backoff.is_zero() {
                self.sleep_backoff(attempt);
            }
            match member.transport.call(request, self.config.request_timeout) {
                Ok(Response::Error { message }) => {
                    // Deterministic server-side failure: retrying cannot
                    // help, and the server itself is alive.
                    return Err(ClusterError::Remote {
                        server: member.transport.name().to_string(),
                        detail: message,
                    });
                }
                Ok(response) => {
                    member
                        .health
                        .lock()
                        .expect("health lock")
                        .consecutive_failures = 0;
                    let mut total = agg.lock().expect("io lock");
                    *total = *total + response.io();
                    return Ok(response);
                }
                Err(e) => last = e.to_string(),
            }
        }
        {
            let mut h = member.health.lock().expect("health lock");
            h.consecutive_failures += 1;
            if h.consecutive_failures >= self.config.failure_threshold {
                h.dead = true;
            }
        }
        Err(ClusterError::ShardUnavailable {
            server: member.transport.name().to_string(),
            shards: member.shards.clone(),
            attempts,
            detail: last,
        })
    }

    fn sleep_backoff(&self, attempt: u32) {
        let factor = 2u32.saturating_pow(attempt.saturating_sub(1));
        std::thread::sleep(self.config.backoff.saturating_mul(factor));
    }

    /// Fans the prepared `(server, request)` pairs out concurrently and
    /// collects the replies in the same order.
    fn fan_out_requests(
        &self,
        requests: Vec<(usize, Request)>,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<Vec<Response>> {
        let workers = requests.len().max(1);
        let outs = parallel_map(workers, requests, |_, (server, request)| {
            self.rpc(server, &request, agg)
        });
        let mut responses = Vec::with_capacity(outs.len());
        let mut first_err = None;
        for out in outs {
            match out {
                Ok(r) => responses.push(r),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(responses),
        }
    }

    fn fan_out_same(
        &self,
        servers: &[usize],
        request: &Request,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<Vec<Response>> {
        self.fan_out_requests(servers.iter().map(|&s| (s, request.clone())).collect(), agg)
    }

    // ---- the distributed sweep ----------------------------------------------

    /// One `(size, weight_scale, root)` pass over the cluster, restricted
    /// to the unsuppressed rectangles meeting `band`: the two-round
    /// distribute/solve protocol (see [`crate::protocol`]) plus the
    /// canonical [`merge_sweep`] on the coordinator's merge device.  Returns
    /// the merged root slab-file.
    fn cluster_slab_file(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        (suppressed, band): (&[Rect], Interval),
        agg: &Mutex<IoSnapshot>,
    ) -> Result<TupleFile<SlabTuple>> {
        let ShardRoute {
            partition,
            owners,
            engaged,
        } = ShardRoute::new(&self.boundaries, size, root);
        let m = partition.num_slabs();
        let servers = self.engaged_servers(&engaged);
        let pass = PassSpec {
            size,
            weight_scale,
            root,
            bounds: partition.boundaries.clone(),
            owners: owners.iter().map(|&o| o as u32).collect(),
            engaged: engaged.iter().map(|&s| s as u32).collect(),
            suppressed: suppressed.to_vec(),
            band,
        };

        // Round 1 — distribute: spans and cross-server piece exports.
        let responses = self.fan_out_same(&servers, &Request::Distribute(pass.clone()), agg)?;
        let mut span_sets: Vec<(u32, Vec<SpanEvent>)> = Vec::new();
        let mut exports: BTreeMap<(u32, u32), Vec<maxrs_core::RectRecord>> = BTreeMap::new();
        for response in responses {
            let Response::Distributed {
                spans, exported, ..
            } = response
            else {
                return Err(wrong_reply("Distribute"));
            };
            span_sets.extend(spans);
            for ps in exported {
                if exports.insert((ps.source, ps.slab), ps.rects).is_some() {
                    return Err(ClusterError::Protocol {
                        detail: format!(
                            "piece set (source {}, slab {}) exported twice",
                            ps.source, ps.slab
                        ),
                    });
                }
            }
        }

        // Round 2 — solve: route each export to the server hosting the
        // owner shard of its slab.
        let mut imported: BTreeMap<usize, Vec<PieceSet>> = BTreeMap::new();
        for ((source, slab), rects) in exports {
            let owner = owners[slab as usize];
            imported
                .entry(self.shards[owner].server)
                .or_default()
                .push(PieceSet {
                    source,
                    slab,
                    rects,
                });
        }
        let requests: Vec<(usize, Request)> = servers
            .iter()
            .map(|&s| {
                (
                    s,
                    Request::Solve {
                        pass: pass.clone(),
                        imported: imported.remove(&s).unwrap_or_default(),
                    },
                )
            })
            .collect();
        let responses = self.fan_out_requests(requests, agg)?;

        let mut slab_tuples: Vec<Option<Vec<SlabTuple>>> = (0..m).map(|_| None).collect();
        for response in responses {
            let Response::Solved { slabs, .. } = response else {
                return Err(wrong_reply("Solve"));
            };
            for (t, tuples) in slabs {
                let t = t as usize;
                if t >= m || slab_tuples[t].replace(tuples).is_some() {
                    return Err(ClusterError::Protocol {
                        detail: format!("global slab {t} solved zero or two times"),
                    });
                }
            }
        }
        let mut resolved = Vec::with_capacity(m);
        for (t, tuples) in slab_tuples.into_iter().enumerate() {
            match tuples {
                Some(ts) => resolved.push(ts),
                None => {
                    return Err(ClusterError::Protocol {
                        detail: format!("no server solved global slab {t}"),
                    })
                }
            }
        }

        // Merge on the coordinator's device: per-slab files + y-sorted span
        // events through the canonical MergeSweep.
        let mut slab_files: Vec<TupleFile<SlabTuple>> = Vec::with_capacity(m);
        let body = (|| -> Result<TupleFile<SlabTuple>> {
            for tuples in &resolved {
                slab_files.push(self.merge_ctx.write_all(tuples)?);
            }
            span_sets.sort_by_key(|&(source, _)| source);
            let all_spans: Vec<SpanEvent> = span_sets
                .iter()
                .flat_map(|(_, events)| events.iter().copied())
                .collect();
            let unsorted = self.merge_ctx.write_all(&all_spans)?;
            let sorted = external_sort_by_key(&self.merge_ctx, &unsorted, |e| e.y);
            self.merge_ctx.delete_file(unsorted)?;
            let sorted = sorted?;
            let merged = merge_sweep(&self.merge_ctx, &slab_files, &partition.slabs(), &sorted);
            self.merge_ctx.delete_file(sorted)?;
            Ok(merged?)
        })();
        for f in slab_files.drain(..) {
            let _ = self.merge_ctx.delete_file(f);
        }
        body
    }

    /// The per-server halves of min-next-breakpoint canonicalization: every
    /// server hosting an engaged shard reports the minimum over its hosted
    /// engaged shards, the coordinator takes the minimum across servers and
    /// `root.hi` — together exactly the one-file scan of the unsharded
    /// dataset.
    fn min_breakpoint(
        &self,
        size: RectSize,
        root: Interval,
        after_x: f64,
        suppressed: &[Rect],
        agg: &Mutex<IoSnapshot>,
    ) -> Result<f64> {
        let engaged = ShardRoute::engaged_shards(&self.boundaries, size, root);
        let request = Request::Breakpoint {
            size,
            root,
            after_x,
            suppressed: suppressed.to_vec(),
            engaged: engaged.iter().map(|&s| s as u32).collect(),
        };
        let responses = self.fan_out_same(&self.engaged_servers(&engaged), &request, agg)?;
        let mut hi = if root.hi > after_x {
            root.hi
        } else {
            f64::INFINITY
        };
        for response in responses {
            let Response::Breakpoint { hi: h, .. } = response else {
                return Err(wrong_reply("Breakpoint"));
            };
            hi = hi.min(h);
        }
        Ok(hi)
    }

    /// ApproxMaxCRS refinement: the candidates' per-shard weight sums,
    /// accumulated in shard (= x) order.
    fn candidate_sums(
        &self,
        candidates: &[Point],
        diameter: f64,
        agg: &Mutex<IoSnapshot>,
    ) -> Result<Vec<f64>> {
        let request = Request::Evaluate {
            candidates: candidates.to_vec(),
            diameter,
        };
        let responses = self.fan_out_same(&self.all_servers(), &request, agg)?;
        let mut per_shard: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for response in responses {
            let Response::Evaluated { sums, .. } = response else {
                return Err(wrong_reply("Evaluate"));
            };
            per_shard.extend(sums);
        }
        let mut totals = vec![0.0f64; candidates.len()];
        for sums in per_shard.values() {
            for (t, s) in totals.iter_mut().zip(sums) {
                *t += s;
            }
        }
        Ok(totals)
    }

    /// Every shard's object records concatenated in global shard order.
    fn fetch_all_objects(&self, agg: &Mutex<IoSnapshot>) -> Result<Vec<ObjectRecord>> {
        let responses = self.fan_out_same(&self.all_servers(), &Request::FetchObjects, agg)?;
        let mut per_shard: BTreeMap<u32, Vec<ObjectRecord>> = BTreeMap::new();
        for response in responses {
            let Response::Objects { objects, .. } = response else {
                return Err(wrong_reply("FetchObjects"));
            };
            for (shard, records) in objects {
                per_shard.insert(shard, records);
            }
        }
        let mut all = Vec::with_capacity(self.len as usize);
        for shard in 0..self.shards.len() as u32 {
            if let Some(records) = per_shard.remove(&shard) {
                all.extend(records);
            }
        }
        Ok(all)
    }
}

/// One batch's view of the cluster as a [`SweepHost`]: the coordinator plus
/// the server-side transfers its requests reported, so batches running side
/// by side meter their remote I/O apart.
struct ClusterSweep<'a> {
    cluster: &'a ClusterCoordinator,
    remote_io: Mutex<IoSnapshot>,
}

impl SweepHost for ClusterSweep<'_> {
    type Error = ClusterError;

    fn is_empty(&self) -> bool {
        self.cluster.len == 0
    }

    fn scratch(&self) -> &EmContext {
        &self.cluster.merge_ctx
    }

    fn sweep(
        &self,
        size: RectSize,
        weight_scale: f64,
        root: Interval,
        suppressed: &[Rect],
        band: Interval,
    ) -> Result<TupleFile<SlabTuple>> {
        self.cluster.cluster_slab_file(
            size,
            weight_scale,
            root,
            (suppressed, band),
            &self.remote_io,
        )
    }

    fn next_breakpoint(
        &self,
        size: RectSize,
        root: Interval,
        suppressed: &[Rect],
        x: f64,
    ) -> Result<f64> {
        self.cluster
            .min_breakpoint(size, root, x, suppressed, &self.remote_io)
    }

    fn candidate_sums(&self, candidates: &[Point], diameter: f64) -> Result<Vec<f64>> {
        self.cluster
            .candidate_sums(candidates, diameter, &self.remote_io)
    }

    fn objects(&self) -> Result<Vec<WeightedPoint>> {
        let records = self.cluster.fetch_all_objects(&self.remote_io)?;
        Ok(records.iter().map(|r| r.0).collect())
    }

    fn io(&self) -> IoSnapshot {
        *self.remote_io.lock().expect("io lock") + self.cluster.merge_ctx.stats()
    }
}

fn wrong_reply(expected: &str) -> ClusterError {
    ClusterError::Protocol {
        detail: format!("a server answered {expected} with the wrong reply variant"),
    }
}
