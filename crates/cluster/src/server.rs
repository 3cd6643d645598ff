//! The shard-hosting server: owns one or more shards' [`PreparedDataset`]s
//! and answers the per-shard sub-queries of the cluster protocol.
//!
//! A [`ShardServer`] is transport-agnostic: [`ShardServer::handle`] maps one
//! [`Request`] to one [`Response`] synchronously.  The in-process transport
//! calls it directly; the TCP transport calls it from connection threads
//! (all request state is per-call, so `handle` is freely concurrent).
//!
//! The handlers run the phases of the sharded pass
//! ([`maxrs_core::shard`]) on the shards this server hosts, with the shared
//! pieces of `maxrs-core`: the crop scan ([`crop_scan`]: suppression and the
//! y-band, transform and [`SlabPartition::crop`]), the per-slab recursion
//! and the breakpoint scan.  Pieces concatenate in global source order,
//! which is what makes the coordinator's merged answers bit-identical to
//! the unsharded sweep.
//! Every sweep pass is validated before any scan, so a malformed
//! [`PassSpec`] becomes a [`Response::Error`], never a panic.

use std::collections::BTreeMap;
use std::path::Path;

use maxrs_core::shard::{crop_scan, prepare_shard};
use maxrs_core::sweep::{next_breakpoint_after, solve_rects};
use maxrs_core::{
    evaluate_candidates, CoreError, EngineOptions, ExactMaxRsOptions, ObjectRecord,
    PreparedDataset, Query, RectRecord, Result as CoreResult, SlabPartition, SpanEvent,
};
use maxrs_em::{EmContext, IoSnapshot, TupleFile};
use maxrs_geometry::{Rect, WeightedPoint};

use crate::protocol::{PassSpec, PieceSet, Request, Response, ShardInfo};

/// One shard hosted by this server.
struct HostedShard {
    id: usize,
    data: PreparedDataset<'static>,
    prepare_io: IoSnapshot,
}

impl HostedShard {
    /// The shard's context and object file.
    fn objects(&self) -> (&EmContext, &TupleFile<ObjectRecord>) {
        self.data.external_parts().expect("shards are external")
    }
}

/// Hosts shards' prepared datasets and answers cluster sub-queries.
///
/// Shards are installed with [`host`](ShardServer::host) or
/// [`host_in`](ShardServer::host_in), each on its own external-memory
/// context and block device, and served read-only afterwards.
pub struct ShardServer {
    opts: EngineOptions,
    boundaries: Vec<f64>,
    num_shards: usize,
    hosted: Vec<HostedShard>,
}

impl ShardServer {
    /// Creates a server agreeing on the given global shard `boundaries`
    /// (interior boundaries, as produced by
    /// [`select_shard_boundaries`](maxrs_core::select_shard_boundaries) —
    /// `K - 1` values for a `K`-shard cluster).
    pub fn new(opts: EngineOptions, boundaries: Vec<f64>) -> Self {
        let num_shards = boundaries.len() + 1;
        ShardServer {
            opts,
            boundaries,
            num_shards,
            hosted: Vec::new(),
        }
    }

    /// Prepares and hosts shard `id` from its objects on the simulated
    /// backend of the server's engine options.  An id outside `0..K` or
    /// one already hosted is an [`CoreError::InvalidParameter`].
    pub fn host(&mut self, id: usize, objects: &[WeightedPoint]) -> CoreResult<()> {
        self.host_inner(id, None, objects)
    }

    /// Prepares and hosts shard `id` with its block device rooted in
    /// `directory` (filesystem backend).  Every shard gets its own device
    /// with a uniquely named backing file, so shards can share a directory;
    /// a device deletes its backing file when its shard drops.
    pub fn host_in(
        &mut self,
        id: usize,
        directory: &Path,
        objects: &[WeightedPoint],
    ) -> CoreResult<()> {
        self.host_inner(id, Some(directory), objects)
    }

    fn host_inner(
        &mut self,
        id: usize,
        directory: Option<&Path>,
        objects: &[WeightedPoint],
    ) -> CoreResult<()> {
        if id >= self.num_shards {
            return Err(CoreError::InvalidParameter(format!(
                "shard id {id} out of range for {} shards",
                self.num_shards
            )));
        }
        if self.hosts(id) {
            return Err(CoreError::InvalidParameter(format!(
                "shard {id} already hosted"
            )));
        }
        let (data, prepare_io) = prepare_shard(self.opts, directory, objects)?;
        let at = self.hosted.partition_point(|h| h.id < id);
        self.hosted.insert(
            at,
            HostedShard {
                id,
                data,
                prepare_io,
            },
        );
        Ok(())
    }

    /// The global shard ids hosted here, ascending.
    pub fn hosted_shards(&self) -> Vec<usize> {
        self.hosted.iter().map(|h| h.id).collect()
    }

    /// Answers one protocol request.  Never panics outward on bad input from
    /// a well-formed message; failures become [`Response::Error`].
    pub fn handle(&self, request: &Request) -> Response {
        let before = self.stats_total();
        match self.dispatch(request) {
            Ok(resp) => resp.with_io(self.stats_total().since(&before)),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    fn dispatch(&self, request: &Request) -> CoreResult<Response> {
        match request {
            Request::Describe => Ok(self.describe()),
            Request::Distribute(pass) => self.distribute(pass),
            Request::Solve { pass, imported } => self.solve(pass, imported),
            Request::Breakpoint {
                size,
                root,
                after_x,
                suppressed,
                engaged,
            } => self.breakpoint(*size, *root, *after_x, suppressed, engaged),
            Request::Evaluate {
                candidates,
                diameter,
            } => self.evaluate(candidates, *diameter),
            Request::FetchObjects => self.fetch_objects(),
        }
    }

    /// Logical transfers across every hosted shard's device.
    fn stats_total(&self) -> IoSnapshot {
        self.hosted
            .iter()
            .fold(IoSnapshot::default(), |acc, h| acc + h.objects().0.stats())
    }

    fn hosts(&self, shard: usize) -> bool {
        self.hosted.iter().any(|h| h.id == shard)
    }

    fn hosted_ctx(&self, shard: usize) -> &EmContext {
        self.hosted
            .iter()
            .find(|h| h.id == shard)
            .expect("shard is hosted here")
            .objects()
            .0
    }

    // ---- handlers -----------------------------------------------------------

    fn describe(&self) -> Response {
        let backend = self
            .hosted
            .first()
            .and_then(|h| h.data.backend_name())
            .unwrap_or("")
            .to_string();
        Response::Described {
            boundaries: self.boundaries.clone(),
            backend,
            shards: self
                .hosted
                .iter()
                .map(|h| ShardInfo {
                    shard: h.id as u32,
                    len: h.data.len(),
                    prepare_io: h.prepare_io,
                })
                .collect(),
        }
    }

    /// Checks a pass once, before any scan: at least two strictly
    /// increasing bounds, one owner per slab, owner and engaged ids below
    /// `K`, a positive finite rectangle size and a band whose bounds are
    /// numbers with `lo <= hi`.
    fn check_pass(&self, pass: &PassSpec) -> CoreResult<SlabPartition> {
        let malformed =
            |detail: String| CoreError::InvalidParameter(format!("malformed pass: {detail}"));
        if pass.bounds.len() < 2 || !pass.bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err(malformed(format!(
                "bounds {:?} are not at least two strictly increasing values",
                pass.bounds
            )));
        }
        if pass.owners.len() != pass.bounds.len() - 1 {
            return Err(malformed(format!(
                "{} owners for {} slabs",
                pass.owners.len(),
                pass.bounds.len() - 1
            )));
        }
        self.check_ids(pass.owners.iter().chain(&pass.engaged))?;
        Query::max_rs(pass.size).validate()?;
        let band = pass.band;
        if band.lo.is_nan() || band.hi.is_nan() || band.lo > band.hi {
            return Err(malformed(format!(
                "band [{}, {}] is not an interval",
                band.lo, band.hi
            )));
        }
        Ok(SlabPartition::new(pass.bounds.clone()))
    }

    /// Checks that every shard id is below `K`.
    fn check_ids<'a>(&self, mut ids: impl Iterator<Item = &'a u32>) -> CoreResult<()> {
        match ids.find(|&&id| id as usize >= self.num_shards) {
            Some(id) => Err(CoreError::InvalidParameter(format!(
                "malformed request: shard id {id} out of range for {} shards",
                self.num_shards
            ))),
            None => Ok(()),
        }
    }

    /// The hosted shards among `engaged`, ascending.
    fn engaged<'a>(&'a self, engaged: &'a [u32]) -> impl Iterator<Item = &'a HostedShard> {
        self.hosted
            .iter()
            .filter(|h| engaged.contains(&(h.id as u32)))
    }

    /// Round 1: the cropping scan ([`crop_scan`]), run for every hosted
    /// engaged source.  Pieces whose owner slab is hosted
    /// elsewhere are exported; span events always travel to the coordinator
    /// (they merge on the coordinator's device).  Pieces whose owner slab is
    /// hosted *here* are dropped — round 2 re-derives them with the same
    /// one-pass scan, which keeps the server stateless.
    fn distribute(&self, pass: &PassSpec) -> CoreResult<Response> {
        let partition = self.check_pass(pass)?;
        let mut spans: Vec<(u32, Vec<SpanEvent>)> = Vec::new();
        let mut exported: Vec<PieceSet> = Vec::new();
        for h in self.engaged(&pass.engaged) {
            let mut events: Vec<SpanEvent> = Vec::new();
            let mut pieces: BTreeMap<u32, Vec<RectRecord>> = BTreeMap::new();
            crop_scan(
                h.objects(),
                &partition,
                (pass.size, pass.weight_scale),
                (&pass.suppressed, pass.band),
                |t, piece| {
                    if !self.hosts(pass.owners[t] as usize) {
                        pieces.entry(t as u32).or_default().push(piece);
                    }
                    Ok(())
                },
                |pair| {
                    events.extend(pair);
                    Ok(())
                },
            )?;
            if !events.is_empty() {
                spans.push((h.id as u32, events));
            }
            exported.extend(pieces.into_iter().map(|(slab, rects)| PieceSet {
                source: h.id as u32,
                slab,
                rects,
            }));
        }
        Ok(Response::Distributed {
            spans,
            exported,
            io: IoSnapshot::default(),
        })
    }

    /// Round 2: re-derive the locally hosted sources' pieces for the global
    /// slabs owned here, interleave them with the imported pieces in global
    /// source order, and run the ordinary per-slab recursion.
    fn solve(&self, pass: &PassSpec, imported: &[PieceSet]) -> CoreResult<Response> {
        let partition = self.check_pass(pass)?;
        let m = partition.num_slabs();
        let owners: Vec<usize> = pass.owners.iter().map(|&o| o as usize).collect();
        let owned: Vec<usize> = (0..m).filter(|&t| self.hosts(owners[t])).collect();
        if owned.is_empty() {
            return Ok(Response::Solved {
                slabs: Vec::new(),
                io: IoSnapshot::default(),
            });
        }

        // Pieces of the locally owned slabs, gathered in memory (exactly
        // like round 1 gathers exports) and keyed `(source, slab)`.
        // Keeping them in memory — instead of streaming per-source piece
        // files — gives every shard device a **canonical access sequence**
        // (scan, combined write, solve) that does not depend on which
        // sources happen to be co-hosted, which is what keeps the summed
        // `IoSnapshot` invariant across server topologies.
        let mut pieces: BTreeMap<(usize, usize), Vec<RectRecord>> = BTreeMap::new();
        for h in self.engaged(&pass.engaged) {
            crop_scan(
                h.objects(),
                &partition,
                (pass.size, pass.weight_scale),
                (&pass.suppressed, pass.band),
                |t, piece| {
                    if self.hosts(owners[t]) {
                        pieces.entry((h.id, t)).or_default().push(piece);
                    }
                    Ok(())
                },
                |_| Ok(()),
            )?;
        }

        // Merge the imported piece sets.  The keys cannot collide with the
        // local ones: a source is exported only by a server that does not
        // host this slab's owner, and `pieces` only holds sources hosted
        // here.
        for ps in imported {
            let (source, t) = (ps.source as usize, ps.slab as usize);
            if t >= m || !self.hosts(owners[t]) {
                return Err(CoreError::InvalidParameter(format!(
                    "imported piece set routed to a non-owned slab {t}"
                )));
            }
            pieces.insert((source, t), ps.rects.clone());
        }

        let mut out = Vec::with_capacity(owned.len());
        for &t in &owned {
            let ctx = self.hosted_ctx(owners[t]);
            let mut writer = ctx.create_writer::<RectRecord>()?;
            for source in 0..self.num_shards {
                if let Some(rects) = pieces.get(&(source, t)) {
                    for rec in rects {
                        writer.push(rec)?;
                    }
                }
            }
            let rects = writer.finish()?;
            let opts = ExactMaxRsOptions {
                parallelism: 1,
                ..self.opts.exact
            };
            let solved = solve_rects(ctx, &opts, rects, partition.slab(t), false, 1)?;
            let tuples = ctx.read_all(&solved)?;
            ctx.delete_file(solved)?;
            out.push((t as u32, tuples));
        }
        Ok(Response::Solved {
            slabs: out,
            io: IoSnapshot::default(),
        })
    }

    /// The per-server half of min-next-breakpoint canonicalization: the
    /// minimum of [`next_breakpoint_after`] over every hosted engaged shard
    /// (the coordinator takes the minimum across servers, which together is
    /// exactly the one-file scan of the unsharded dataset: a shard no pass
    /// engages has no rectangle reaching the root).
    fn breakpoint(
        &self,
        size: maxrs_geometry::RectSize,
        root: maxrs_geometry::Interval,
        after_x: f64,
        suppressed: &[Rect],
        engaged: &[u32],
    ) -> CoreResult<Response> {
        Query::max_rs(size).validate()?;
        self.check_ids(engaged.iter())?;
        let mut hi = f64::INFINITY;
        for h in self.engaged(engaged) {
            let (ctx, file) = h.objects();
            hi = hi.min(next_breakpoint_after(
                ctx, file, size, root, suppressed, after_x,
            )?);
        }
        Ok(Response::Breakpoint {
            hi,
            io: IoSnapshot::default(),
        })
    }

    /// ApproxMaxCRS refinement scan: per hosted shard, the candidates'
    /// open-disk weight sums over the **full** object file (refinement never
    /// sees top-k suppression).
    fn evaluate(
        &self,
        candidates: &[maxrs_geometry::Point],
        diameter: f64,
    ) -> CoreResult<Response> {
        let mut sums = Vec::with_capacity(self.hosted.len());
        for h in &self.hosted {
            let (ctx, file) = h.objects();
            sums.push((
                h.id as u32,
                evaluate_candidates(ctx, file, candidates, diameter)?,
            ));
        }
        Ok(Response::Evaluated {
            sums,
            io: IoSnapshot::default(),
        })
    }

    fn fetch_objects(&self) -> CoreResult<Response> {
        let mut objects = Vec::with_capacity(self.hosted.len());
        for h in &self.hosted {
            let (ctx, file) = h.objects();
            objects.push((h.id as u32, ctx.read_all(file)?));
        }
        Ok(Response::Objects {
            objects,
            io: IoSnapshot::default(),
        })
    }
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("num_shards", &self.num_shards)
            .field("hosted", &self.hosted_shards())
            .finish()
    }
}
