//! The two external-memory workloads: one prepared dataset queried by one
//! thread, at the paper's tiny buffer on a filesystem device and at the
//! engine's default buffer on the RAM device.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use maxrs_core::{
    approx_max_crs_in_memory, best_candidate, candidate_points, compute_partition, distribute,
    evaluate_candidates, load_objects, max_rs_in_memory, merge_sweep, solve_rects, BoundarySource,
    EngineOptions, ExactMaxRsOptions, MaxCrsResult, MaxRsEngine, MaxRsResult, ObjectRecord,
    PreparedDataset, Query, QueryAnswer, RectRecord, SweepPass,
};
use maxrs_datagen::{Dataset, DatasetKind};
use maxrs_em::{BlockDevice, EmConfig, EmContext, FsDisk, SimDisk, StorageBackend, TupleFile};
use maxrs_geometry::{RectSize, WeightedPoint};

use crate::instruments::{DeviceCounters, DeviceSample, TimedDevice};
use crate::report::{end_to_end, mean_u64, median, peak_rss_mb, tail, Metrics, Outcome};
use crate::trace::{SpanIndex, Tracer};
use crate::{err, out_dir, RunArgs, SETUP_REPEATS};

/// Fixed knobs of one external-memory workload.
pub struct EmWorkload {
    pub backend: StorageBackend,
    pub buffer_bytes: usize,
    /// Nominal wall time of one query cycle on a 2-vCPU host; `--seconds`
    /// divided by it gives the (whole) number of cycles a run measures.
    pub cycle_seconds: f64,
}

pub const TINY_BUFFER: EmWorkload = EmWorkload {
    backend: StorageBackend::Fs,
    buffer_bytes: 16 * BLOCK,
    cycle_seconds: 3.3,
};

pub const WIDE_BUFFER: EmWorkload = EmWorkload {
    backend: StorageBackend::Sim,
    buffer_bytes: 1024 * 1024,
    cycle_seconds: 6.5,
};

const BLOCK: usize = 4096;
const POINTS: usize = 80_000;
const SIDES: [f64; 5] = [1_000.0, 2_500.0, 5_000.0, 7_500.0, 10_000.0];
/// The cycle's last query.  At this side the slab clamp behind the I/O
/// cliff in the ROADMAP already costs the 16-block buffer ≈35 % more transfers than side
/// 15,000, steadily across seeds; two sides further out (20,000) the cost
/// jumps chaotically between seeds (174k–538k transfers over seeds 1–8),
/// which no seed-to-seed bound can hold.
const CLIFF_SIDE: f64 = 18_750.0;

/// MaxRS and ApproxMaxCRS at each side, then MaxRS at the cliff side.
fn cycle() -> Vec<Query> {
    let mut qs = Vec::new();
    for side in SIDES {
        qs.push(Query::max_rs(RectSize::square(side)));
        qs.push(Query::approx_max_crs(side));
    }
    qs.push(Query::max_rs(RectSize::square(CLIFF_SIDE)));
    qs
}

fn exact_options() -> ExactMaxRsOptions {
    ExactMaxRsOptions {
        parallelism: 1,
        ..ExactMaxRsOptions::default()
    }
}

fn config(w: &EmWorkload) -> EmConfig {
    EmConfig::new(BLOCK, w.buffer_bytes)
        .expect("block and buffer sizes are valid constants")
        .with_backend(w.backend)
}

fn context(
    w: &EmWorkload,
    index: usize,
    timing: Option<&Arc<DeviceCounters>>,
) -> Result<EmContext, String> {
    let raw: Box<dyn BlockDevice> = match w.backend {
        StorageBackend::Fs => {
            let dir = out_dir().join(format!("fsdisk-{}-{index}", std::process::id()));
            Box::new(FsDisk::new_in(dir, BLOCK).map_err(err)?)
        }
        StorageBackend::Sim => Box::new(SimDisk::new(BLOCK)),
    };
    let device: Box<dyn BlockDevice> = match timing {
        Some(c) => Box::new(TimedDevice::new(raw, Arc::clone(c))),
        None => raw,
    };
    Ok(EmContext::with_device(config(w), device))
}

/// Load and external sort: everything a query needs before it can run.
fn prepare<'c>(
    ctx: &'c EmContext,
    engine: &MaxRsEngine,
    objects: &[WeightedPoint],
    tracer: &Tracer,
) -> Result<PreparedDataset<'c>, String> {
    let (file, _) = tracer.span("em.load", || load_objects(ctx, objects));
    let file = file.map_err(err)?;
    let (prepared, _) = tracer.span("em.sort", || engine.prepare_file(ctx, &file));
    let prepared = prepared.map_err(err)?;
    ctx.delete_file(file).map_err(err)?;
    if !prepared.is_external() {
        return Err("the prepared dataset fits in memory; the workload needs the EM path".into());
    }
    Ok(prepared)
}

/// One measured pass over whole cycles.
#[derive(Default)]
struct Phase {
    lat_ms: Vec<f64>,
    io: Vec<u64>,
    /// `Debug` rendering of each answer, in the order the queries ran.
    answers: Vec<String>,
    wall_s: f64,
    failed: u64,
}

pub fn run(w: &EmWorkload, args: &RunArgs) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let timing = args.trace.then(|| Arc::new(DeviceCounters::default()));
    let objects = Dataset::generate(DatasetKind::Uniform, POINTS, args.seed).objects;
    let cfg = config(w);
    let opts = exact_options();
    let engine = MaxRsEngine::with_options(EngineOptions {
        em_config: cfg,
        exact: opts,
        force_strategy: None,
    });
    let queries = cycle();
    let cycles = args.whole_units(w.cycle_seconds);

    // Identical set-ups; all but the last are dropped again.
    let mut setup_s = Vec::new();
    for i in 1..SETUP_REPEATS {
        let t = Instant::now();
        let ctx = context(w, i, timing.as_ref())?;
        let prepared = prepare(&ctx, &engine, &objects, &tracer)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(prepared);
    }
    let t = Instant::now();
    let ctx = context(w, SETUP_REPEATS, timing.as_ref())?;
    let prepared = prepare(&ctx, &engine, &objects, &tracer)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let setup_io = prepared.prepare_io().total();

    // Warm-up: leaves the buffer pool exactly as every cycle leaves it, so
    // each cycle position costs the same transfers in every cycle.
    if let Some(q) = queries.last() {
        prepared.run(q).map_err(err)?;
    }
    let plain = run_plain(&prepared, &queries, cycles);
    let rss = peak_rss_mb();

    let mut out = Outcome {
        attempted: plain.lat_ms.len() as u64 + plain.failed,
        failed: plain.failed,
        ..Outcome::default()
    };

    // Per-position transfer counts must repeat in every cycle.
    let per_pos = queries.len();
    for (k, &io) in plain.io.iter().enumerate() {
        if io != plain.io[k % per_pos] {
            out.fail(format!(
                "query {k} cost {io} blocks, position {} costs {}",
                k % per_pos,
                plain.io[k % per_pos]
            ));
        }
    }

    let traced = if args.trace {
        let counters = timing.as_ref().expect("traced runs time the device");
        Some(run_traced(
            &ctx, &prepared, &opts, &queries, cycles, &tracer, counters, &plain, &mut out,
        )?)
    } else {
        None
    };

    check_answers(
        &objects,
        &queries,
        &plain,
        traced.as_ref().map(|t| &t.phase),
        &mut out,
    );

    let io_per_query = mean_u64(&plain.io);
    let (_, tail_pct) = tail(&plain.lat_ms);
    let m = &mut out.metrics;
    if let Some(t) = &traced {
        per_layer(m, &tracer, t, &plain, setup_io);
        crate::zero_unset_per_layer(m);
    } else {
        end_to_end(
            m,
            &setup_s,
            setup_io,
            &plain.lat_ms,
            &plain.io,
            plain.wall_s,
            rss,
        );
    }

    let n_blocks = cfg.blocks_for::<RectRecord>(POINTS as u64);
    out.provenance
        .num("n", POINTS as f64)
        .str(
            "data",
            "Dataset::generate(Uniform), 1e6 extent, unit weights",
        )
        .str("backend", w.backend.name())
        .num("block_bytes", BLOCK as f64)
        .num("buffer_blocks", cfg.buffer_blocks() as f64)
        .num("fanout", cfg.fanout() as f64)
        .num("rect_file_blocks", n_blocks as f64)
        .num("parallelism", opts.parallelism as f64)
        .num("cycles", cycles as f64)
        .num("queries_per_cycle", per_pos as f64)
        .num("query_samples", plain.lat_ms.len() as f64)
        .num("tail_percentile", tail_pct)
        .num("setup_repeats", SETUP_REPEATS as f64)
        .raw(
            "io_blocks_by_position",
            format!("{:?}", &plain.io[..per_pos.min(plain.io.len())]),
        );
    out.exact
        .num("setup_io_blocks", setup_io as f64)
        .num("io_blocks_per_query", io_per_query);
    crate::write_trace(args, &tracer, &mut out)?;
    Ok(out)
}

fn run_plain(prepared: &PreparedDataset<'_>, queries: &[Query], cycles: usize) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    for _ in 0..cycles {
        for q in queries {
            let t = Instant::now();
            match prepared.run(q) {
                Ok(run) => {
                    p.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    p.io.push(run.io.total());
                    p.answers.push(format!("{:?}", run.answer));
                }
                Err(e) => {
                    eprintln!("query {q:?} failed: {e}");
                    p.failed += 1;
                }
            }
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// Transfers per pipeline stage of the traced decomposition, summed.
#[derive(Default)]
struct StageIo {
    transform: u64,
    partition: u64,
    distribute: u64,
    children: u64,
    merge: u64,
    extract: u64,
    canonicalize: u64,
    refine: u64,
    rects: u64,
    pieces: u64,
}

impl StageIo {
    fn total(&self) -> u64 {
        self.transform
            + self.partition
            + self.distribute
            + self.children
            + self.merge
            + self.extract
            + self.canonicalize
            + self.refine
    }
}

struct Traced {
    phase: Phase,
    stages: StageIo,
    device: DeviceSample,
    pool_hits: u64,
    pool_misses: u64,
    /// Sum over queries of query I/O ÷ (N/B)·⌈log_{M/B}(N/B)⌉.
    io_over_bound: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    ctx: &EmContext,
    prepared: &PreparedDataset<'_>,
    opts: &ExactMaxRsOptions,
    queries: &[Query],
    cycles: usize,
    tracer: &Tracer,
    counters: &DeviceCounters,
    plain: &Phase,
    out: &mut Outcome,
) -> Result<Traced, String> {
    let (_, sorted) = prepared.external_parts().ok_or("dataset is not external")?;
    let cfg = ctx.config();
    let nb = cfg.blocks_for::<RectRecord>(prepared.len()) as f64;
    let levels = (nb.ln() / (cfg.buffer_blocks() as f64).ln())
        .ceil()
        .max(1.0);
    let bound = nb * levels;

    let mut t = Traced {
        phase: Phase::default(),
        stages: StageIo::default(),
        device: DeviceSample::default(),
        pool_hits: 0,
        pool_misses: 0,
        io_over_bound: 0.0,
    };
    let (hits0, misses0) = ctx.pool_hit_stats();
    counters.on.store(true, Ordering::SeqCst);
    let dev0 = counters.sample();
    let start = Instant::now();
    for c in 0..cycles {
        for (i, q) in queries.iter().enumerate() {
            let k = c * queries.len() + i;
            tracer.set_request(k as u64 + 1);
            let mut st = StageIo::default();
            let before = ctx.stats();
            let begin = Instant::now();
            let (answer, _) = tracer.span("query", || {
                decomposed(ctx, sorted, opts, q, tracer, &mut st)
            });
            let lat = begin.elapsed().as_secs_f64() * 1e3;
            let io = ctx.stats().since(&before).total();
            match answer {
                Ok(answer) => {
                    t.phase.lat_ms.push(lat);
                    t.phase.io.push(io);
                    t.phase.answers.push(format!("{answer:?}"));
                    if st.total() != io {
                        out.fail(format!(
                            "query {k}: stage I/O sums to {}, query moved {io}",
                            st.total()
                        ));
                    }
                    if let Some(&untraced) = plain.io.get(i) {
                        if io != untraced {
                            out.fail(format!("query {k}: decomposition moved {io} blocks, PreparedDataset::run {untraced}"));
                        }
                    }
                    t.io_over_bound += io as f64 / bound;
                }
                Err(e) => {
                    eprintln!("traced query {q:?} failed: {e}");
                    t.phase.failed += 1;
                }
            }
            t.stages.add(&st);
        }
    }
    t.phase.wall_s = start.elapsed().as_secs_f64();
    t.device = counters.sample().since(&dev0);
    counters.on.store(false, Ordering::SeqCst);
    let (hits1, misses1) = ctx.pool_hit_stats();
    t.pool_hits = hits1 - hits0;
    t.pool_misses = misses1 - misses0;
    out.attempted += t.phase.lat_ms.len() as u64 + t.phase.failed;
    out.failed += t.phase.failed;
    Ok(t)
}

impl StageIo {
    fn add(&mut self, o: &StageIo) {
        self.transform += o.transform;
        self.partition += o.partition;
        self.distribute += o.distribute;
        self.children += o.children;
        self.merge += o.merge;
        self.extract += o.extract;
        self.canonicalize += o.canonicalize;
        self.refine += o.refine;
        self.rects += o.rects;
        self.pieces += o.pieces;
    }
}

/// One query through the public stage functions, in exactly the order
/// `PreparedDataset::run` performs them for a lone query on one worker.
fn decomposed(
    ctx: &EmContext,
    sorted: &TupleFile<ObjectRecord>,
    opts: &ExactMaxRsOptions,
    query: &Query,
    tracer: &Tracer,
    st: &mut StageIo,
) -> Result<QueryAnswer, String> {
    match *query {
        Query::MaxRs { size } => {
            decomposed_max_rs(ctx, sorted, opts, size, tracer, st).map(QueryAnswer::MaxRs)
        }
        Query::ApproxMaxCrs { diameter, .. } => {
            let sigma = query.sigma_fraction().ok_or("approx query without sigma")?;
            let best =
                decomposed_max_rs(ctx, sorted, opts, RectSize::square(diameter), tracer, st)?;
            let before = ctx.stats();
            let (crs, _) = tracer.span("core.approx.refine", || {
                let candidates = candidate_points(best.center, diameter, sigma);
                evaluate_candidates(ctx, sorted, &candidates, diameter)
                    .map(|w| best_candidate(&candidates, &w))
            });
            let crs: MaxCrsResult = crs.map_err(err)?;
            st.refine += ctx.stats().since(&before).total();
            Ok(QueryAnswer::MaxCrs(crs))
        }
        _ => Err(format!("the em workloads issue no {query:?}")),
    }
}

fn decomposed_max_rs(
    ctx: &EmContext,
    sorted: &TupleFile<ObjectRecord>,
    opts: &ExactMaxRsOptions,
    size: RectSize,
    tracer: &Tracer,
    st: &mut StageIo,
) -> Result<MaxRsResult, String> {
    let pass = SweepPass::presorted(ctx, opts);
    let cfg = ctx.config();
    let moved = |before: &maxrs_em::IoSnapshot| ctx.stats().since(before).total();

    let b = ctx.stats();
    let (rects, _) = tracer.span("core.sweep.transform", || pass.transform(sorted, size));
    let rects = rects.map_err(err)?;
    st.transform += moved(&b);

    // The root recursion node of the distribution sweep.
    let n = rects.len();
    let memory_rects = opts
        .memory_rects
        .unwrap_or_else(|| cfg.mem_records::<RectRecord>())
        .max(4) as u64;
    if n <= memory_rects {
        return Err(format!(
            "{n} rectangles fit in memory; the root would not distribute"
        ));
    }
    let fanout = opts.fanout.unwrap_or_else(|| cfg.fanout()).max(2);
    let b = ctx.stats();
    let (partition, _) = tracer.span("core.slab.partition", || {
        compute_partition(
            ctx,
            &rects,
            pass.root(),
            fanout,
            BoundarySource::SortedExact,
        )
    });
    let partition = partition.map_err(err)?;
    st.partition += moved(&b);
    if partition.num_slabs() < 2 {
        return Err("degenerate root partition".into());
    }

    let b = ctx.stats();
    let (dist, _) = tracer.span("core.slab.distribute", || {
        distribute(ctx, &rects, &partition)
    });
    let dist = dist.map_err(err)?;
    ctx.delete_file(rects).map_err(err)?;
    st.distribute += moved(&b);
    st.rects += n;
    st.pieces += dist.slab_inputs.iter().map(|f| f.len()).sum::<u64>();

    let b = ctx.stats();
    let mut children = Vec::with_capacity(dist.slab_inputs.len());
    for (i, input) in dist.slab_inputs.into_iter().enumerate() {
        if input.len() >= n {
            // The engine would solve such a child in memory (tie guard).
            return Err(format!("sub-slab {i} holds every rectangle"));
        }
        let (child, _) = tracer.span("core.sweep.children", || {
            solve_rects(ctx, opts, input, partition.slab(i), false, 1)
        });
        children.push(child.map_err(err)?);
    }
    st.children += moved(&b);

    let b = ctx.stats();
    let (merged, _) = tracer.span("core.merge_sweep", || {
        merge_sweep(ctx, &children, &partition.slabs(), &dist.span_events)
    });
    let merged = merged.map_err(err)?;
    for f in children {
        ctx.delete_file(f).map_err(err)?;
    }
    ctx.delete_file(dist.span_events).map_err(err)?;
    st.merge += moved(&b);

    let b = ctx.stats();
    let (best, _) = tracer.span("core.sweep.extract", || pass.extract_best(&merged));
    let best = best.map_err(err)?;
    ctx.delete_file(merged).map_err(err)?;
    st.extract += moved(&b);

    let b = ctx.stats();
    let (result, _) = tracer.span("core.sweep.canonicalize", || {
        pass.canonicalize(sorted, size, best)
    });
    st.canonicalize += moved(&b);
    result.map_err(err)
}

/// Every timed answer against the in-memory reference of its query, which
/// is computed once per distinct query after the measured phases.
fn check_answers(
    objects: &[WeightedPoint],
    queries: &[Query],
    plain: &Phase,
    traced: Option<&Phase>,
    out: &mut Outcome,
) {
    let reference: Vec<String> = queries
        .iter()
        .map(|q| match *q {
            Query::MaxRs { size } => {
                format!("{:?}", QueryAnswer::MaxRs(max_rs_in_memory(objects, size)))
            }
            Query::ApproxMaxCrs { diameter, .. } => {
                let sigma = q.sigma_fraction().expect("approx query has a sigma");
                format!(
                    "{:?}",
                    QueryAnswer::MaxCrs(approx_max_crs_in_memory(objects, diameter, sigma))
                )
            }
            _ => unreachable!("the em cycle holds MaxRS and ApproxMaxCRS only"),
        })
        .collect();
    for phase in std::iter::once(plain).chain(traced) {
        for (k, answer) in phase.answers.iter().enumerate() {
            if *answer != reference[k % queries.len()] {
                out.failed += 1;
                eprintln!(
                    "wrong answer for query {k}: {answer} != {}",
                    reference[k % queries.len()]
                );
            }
        }
    }
}

fn per_layer(m: &mut Metrics, tracer: &Tracer, t: &Traced, plain: &Phase, setup_io: u64) {
    let idx = SpanIndex::new(tracer.spans());
    let q = t.phase.lat_ms.len().max(1) as f64;
    let setups = idx.count("em.sort").max(1) as f64;
    m.put("em.load.ms", idx.self_ms("em.load") / setups, "ms");
    m.put("em.sort.ms", idx.self_ms("em.sort") / setups, "ms");
    m.put("em.sort.io_blocks", setup_io as f64, "blocks");
    m.put("em.device.read_ms", t.device.read_ns as f64 / 1e6 / q, "ms");
    m.put(
        "em.device.write_ms",
        t.device.write_ns as f64 / 1e6 / q,
        "ms",
    );
    m.put("em.device.reads", t.device.reads as f64 / q, "count");
    m.put("em.device.writes", t.device.writes as f64 / q, "count");
    let lookups = (t.pool_hits + t.pool_misses).max(1) as f64;
    m.put("em.pool.hit_ratio", t.pool_hits as f64 / lookups, "ratio");
    for (metric, span) in [
        ("core.sweep.transform.ms", "core.sweep.transform"),
        ("core.sweep.extract.ms", "core.sweep.extract"),
        ("core.sweep.canonicalize.ms", "core.sweep.canonicalize"),
        ("core.slab.partition.ms", "core.slab.partition"),
        ("core.slab.distribute.ms", "core.slab.distribute"),
        ("core.sweep.children.ms", "core.sweep.children"),
        ("core.merge_sweep.ms", "core.merge_sweep"),
        ("core.approx.refine.ms", "core.approx.refine"),
    ] {
        m.put(metric, idx.self_ms(span) / q, "ms");
    }
    m.put(
        "core.slab.pieces_per_rect",
        t.stages.pieces as f64 / t.stages.rects.max(1) as f64,
        "ratio",
    );
    m.put(
        "core.sweep.children.io_blocks",
        t.stages.children as f64 / q,
        "blocks",
    );
    m.put(
        "core.merge_sweep.io_blocks",
        t.stages.merge as f64 / q,
        "blocks",
    );
    m.put("core.sweep.io_over_bound", t.io_over_bound / q, "ratio");
    m.put(
        "trace.overhead",
        median(&t.phase.lat_ms) / median(&plain.lat_ms) - 1.0,
        "ratio",
    );
}
