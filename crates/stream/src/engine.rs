//! [`StreamEngine`]: incremental MaxRS / top-k maintenance over an event
//! stream.
//!
//! # Mechanism
//!
//! The x-axis is partitioned into uniform grid columns (cells) of width
//! [`StreamConfig::effective_cell_width`], keyed by the same
//! [`maxrs_core::grid_cell`] convention as the core grid.  Every
//! live object is routed to the cells its transformed rectangle overlaps with
//! positive width — at most two cells under the default width, so an event
//! dirties `O(1)` cells.  Each cell caches the result of running the
//! *existing* plane-sweep kernel
//! ([`maxrs_core::plane_sweep_slab`]) over its members,
//! clipped to the cell's x-interval: the cell's maximum location-weight, the
//! first sweep `y` attaining it and the winning elementary x-interval.
//!
//! [`StreamEngine::answer`] runs a **branch-and-bound maintenance loop**
//! instead of a global recompute: clean cells contribute their cached
//! candidates; dirty cells are visited in decreasing order of their upper
//! bound (the total member weight) and re-swept only while that bound can
//! still beat the incumbent.  Once the incumbent exceeds every remaining
//! bound, the rest of the dirty set is pruned — those cells stay dirty and
//! are reconsidered (cheaply, via their bound) at the next answer.
//!
//! # Exactness
//!
//! The winning cell candidate is *canonicalized* exactly like the external
//! pipeline's answers (see `maxrs_core::exact`, "Canonical max-regions"): the
//! x-interval is widened to the full arrangement cell via a successor query
//! on the global multiset of rectangle x-edges, and the y-strip extends to
//! the next event y.  The result is bit-identical to a from-scratch
//! [`MaxRsEngine::run`](maxrs_core::MaxRsEngine::run) over the surviving
//! objects — the property the `stream_incremental` proptest suite replays
//! ≥10k-event sequences to enforce.  (The bit-for-bit guarantee assumes
//! weights whose partial sums are exactly representable — integers in
//! particular: the incremental sweep adds arbitrary floats in a different
//! order than the batch run.)

use std::collections::{BTreeMap, BTreeSet, HashMap};

use maxrs_core::{
    grid_cell, max_rs_in_memory, Event, EventOutcome, ExecutionStrategy, LiveSet, MaxRsResult,
    Query, QueryAnswer, QueryRun, RectRecord, SweepScratch,
};
use maxrs_em::IoSnapshot;
use maxrs_geometry::{Interval, Point, Rect, RectSize, WeightedPoint};

use crate::cells::{Cell, CellCandidate, FloatMultiset};
use crate::config::StreamConfig;
use crate::error::{Result, StreamError};

/// The maintenance-structure bookkeeping of one live object — everything the
/// engine needs to detach it again.  Liveness itself (ids, the clock, window
/// expiry) lives in the shared [`LiveSet`], so the stream engine and
/// `maxrs_core::DeltaDataset` apply events under one canonical semantics.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// The (normalized) weight, denormalized here so cell re-sweeps need no
    /// second lookup.
    weight: f64,
    /// The transformed rectangle (`r_o` for the configured query size).
    rect: Rect,
    /// Grid columns the rectangle overlaps with positive width.
    col_lo: i64,
    col_hi: i64,
}

/// Work accounting of one [`StreamEngine::answer`] call — the evidence that
/// maintenance is localized: `cells_swept` stays near the number of cells
/// touched by events, not near `cells_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceStats {
    /// Non-empty grid cells.
    pub cells_total: usize,
    /// Clean cells whose cached candidate was reused.
    pub cells_cached: usize,
    /// Dirty cells re-swept by the plane sweep.
    pub cells_swept: usize,
    /// Dirty cells skipped because their upper bound could not beat the
    /// incumbent (they stay dirty).
    pub cells_pruned: usize,
    /// Live objects at answer time.
    pub live_objects: usize,
    /// Events applied since the previous answer.
    pub events_since_last_answer: u64,
}

/// The outcome of one [`StreamEngine::answer`]: the same [`QueryRun`] shape
/// [`MaxRsEngine::run`](maxrs_core::MaxRsEngine::run) reports, plus the
/// maintenance-work accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAnswer {
    /// The answer in the engine's query-run shape (strategy
    /// [`ExecutionStrategy::InMemory`], zero I/O — maintenance is an
    /// in-memory structure).
    pub run: QueryRun,
    /// How much sweep work the incremental maintenance actually did.
    pub stats: MaintenanceStats,
}

/// Incremental MaxRS / top-k over a stream of timestamped
/// [`Event`]s, with an optional sliding window.
///
/// ```
/// use maxrs_stream::{Event, StreamConfig, StreamEngine};
/// use maxrs_geometry::RectSize;
///
/// // Maintain the best 2 × 2 placement over a 10-unit sliding window.
/// let mut engine =
///     StreamEngine::new(StreamConfig::max_rs(RectSize::square(2.0)).with_window(10.0)).unwrap();
///
/// engine.apply(&Event::insert(1, 1.0, 1.0, 1.0, 0.0)).unwrap();
/// engine.apply(&Event::insert(2, 1.5, 1.2, 1.0, 1.0)).unwrap();
/// engine.apply(&Event::insert(3, 9.0, 9.0, 1.0, 2.0)).unwrap();
/// assert_eq!(engine.answer().run.answer.best_weight(), 2.0);
///
/// // At t = 11.5 the pair from t ≤ 1 has expired; the loner remains.
/// engine.apply(&Event::tick(11.5)).unwrap();
/// assert_eq!(engine.len(), 1);
/// assert_eq!(engine.answer().run.answer.best_weight(), 1.0);
/// ```
#[derive(Debug)]
pub struct StreamEngine {
    config: StreamConfig,
    size: RectSize,
    cell_width: f64,
    /// The canonical event semantics (ids, clock, window expiry) shared with
    /// `maxrs_core::DeltaDataset`.
    live: LiveSet,
    /// Per-object maintenance geometry, keyed by id.
    geometry: HashMap<u64, Geometry>,
    /// Non-empty maintenance cells by column index.
    cells: BTreeMap<i64, Cell>,
    /// Columns that are currently dirty — the only cells an answer may need
    /// to re-sweep, kept explicitly so answering never scans the whole grid.
    dirty_cols: BTreeSet<i64>,
    /// Candidate index of the *clean* cells, ordered by
    /// [`candidate_key`](crate::cells) (sum desc, y asc, column asc): the
    /// first entry is the best clean candidate, maintained incrementally on
    /// dirty/clean transitions so answers do not visit clean cells at all.
    clean_best: BTreeSet<(u64, u64, i64)>,
    /// Multiset of every live rectangle's x-edges (arrangement breakpoints).
    x_edges: FloatMultiset,
    /// Multiset of every live rectangle's sweep event y's.
    y_events: FloatMultiset,
    /// Reusable plane-sweep buffers (breakpoints, events, prefix-max tree) —
    /// cell re-sweeps allocate nothing once these reach their high-water
    /// mark.
    scratch: SweepScratch,
    /// Reusable buffer for the rectangles handed to a cell re-sweep.
    rect_buf: Vec<RectRecord>,
    /// Live objects with strictly positive weight.
    positive_weight: usize,
    events_since_answer: u64,
}

impl StreamEngine {
    /// Creates an engine maintaining `config.query`; rejects unsupported
    /// variants and invalid parameters (see [`StreamConfig::validate`]).
    pub fn new(config: StreamConfig) -> Result<Self> {
        config.validate()?;
        Ok(StreamEngine {
            size: config.size(),
            cell_width: config.effective_cell_width(),
            live: LiveSet::new(config.window).map_err(StreamError::from)?,
            config,
            geometry: HashMap::new(),
            cells: BTreeMap::new(),
            dirty_cols: BTreeSet::new(),
            clean_best: BTreeSet::new(),
            x_edges: FloatMultiset::default(),
            y_events: FloatMultiset::default(),
            scratch: SweepScratch::new(),
            rect_buf: Vec::new(),
            positive_weight: 0,
            events_since_answer: 0,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Number of live (inserted, not deleted, not expired) objects.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no object is alive.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The stream clock (`-∞` before the first event).
    pub fn now(&self) -> f64 {
        self.live.now()
    }

    /// `true` when `id` refers to a live object.
    pub fn contains(&self, id: u64) -> bool {
        self.live.contains(id)
    }

    /// The live objects in insertion order — exactly the slice a batch
    /// engine would be given to answer the same question.
    pub fn survivors(&self) -> Vec<WeightedPoint> {
        self.live.survivors()
    }

    /// Applies one event: advances the clock (expiring windowed objects),
    /// then performs the insert / delete.
    ///
    /// Errors leave the engine unchanged except for the clock advance (and
    /// any expirations it triggered): a duplicate insert id is
    /// [`StreamError::DuplicateId`], non-finite coordinates / timestamps and
    /// negative weights are [`StreamError::InvalidParameter`].  Deleting an
    /// id that is not alive is a no-op reported through
    /// [`EventOutcome::applied`].
    pub fn apply(&mut self, event: &Event) -> Result<EventOutcome> {
        // The shared `LiveSet` owns the canonical semantics: finite-timestamp
        // check before the clock moves, monotone clock, window expiry,
        // validation, duplicate-id check, `-0.0` weight normalization (so
        // candidate sums have one bit pattern per value — the clean-candidate
        // index orders by raw sum bits).
        let expired_records = self.live.advance(event.at()).map_err(StreamError::from)?;
        let expired = expired_records.len();
        for gone in &expired_records {
            self.detach(gone.id);
        }
        let applied = match *event {
            Event::Insert { id, object, .. } => {
                let object = self
                    .live
                    .check_insert(id, object)
                    .map_err(StreamError::from)?;
                let rect = object.to_rect(self.size);
                let (col_lo, col_hi) = self.column_range(&rect);
                // Columns at the saturation bound of `grid_cell` have lost
                // the exact-containment invariant the maintenance relies
                // on: reject instead of silently mis-binning.  This check is
                // stream-specific, interposed between check and commit so
                // rejected inserts leave the live set untouched.
                let limit = maxrs_core::GRID_CELL_LIMIT - 1;
                if col_lo <= -limit || col_hi >= limit {
                    return Err(StreamError::InvalidParameter(format!(
                        "object x {} is out of range for cell width {} \
                         (grid index would exceed ±2^52)",
                        object.point.x, self.cell_width
                    )));
                }
                self.live.commit_insert(id, object);
                self.attach(id, object, rect, col_lo, col_hi);
                true
            }
            Event::Delete { id, .. } => match self.live.remove(id) {
                Some(_) => {
                    self.detach(id);
                    true
                }
                None => false,
            },
            Event::Tick { .. } => true,
        };
        self.events_since_answer += 1;
        Ok(EventOutcome { applied, expired })
    }

    /// Applies a batch of events, accumulating the outcome counts.  Stops at
    /// the first error (events before it are applied).
    pub fn apply_all(&mut self, events: &[Event]) -> Result<EventOutcome> {
        let mut total = EventOutcome {
            applied: true,
            ..Default::default()
        };
        for event in events {
            let outcome = self.apply(event)?;
            total.applied &= outcome.applied;
            total.expired += outcome.expired;
        }
        Ok(total)
    }

    /// The current answer to the configured query, maintained incrementally.
    ///
    /// Returns the same [`QueryRun`] types as
    /// [`MaxRsEngine::run`](maxrs_core::MaxRsEngine::run) — and, bit for bit,
    /// the same *values* a from-scratch run over
    /// [`survivors`](StreamEngine::survivors) would return — plus the
    /// maintenance-work statistics of this call.
    pub fn answer(&mut self) -> StreamAnswer {
        let (max_rs, stats) = self.maintain_max_rs();
        let answer = match self.config.query {
            Query::MaxRs { .. } => QueryAnswer::MaxRs(max_rs),
            Query::TopK { k, .. } => QueryAnswer::TopK(self.top_k_from(max_rs, k)),
            // Rejected by `StreamConfig::validate` at construction.
            Query::MinRs { .. } | Query::ApproxMaxCrs { .. } => {
                unreachable!("unsupported variants are rejected at construction")
            }
        };
        self.events_since_answer = 0;
        StreamAnswer {
            run: QueryRun {
                answer,
                strategy: ExecutionStrategy::InMemory,
                workers: 1,
                io: IoSnapshot::default(),
            },
            stats,
        }
    }

    // ---- event application ------------------------------------------------

    /// The grid columns `rect` overlaps with positive width.  Touching a
    /// column boundary only (zero-width overlap) does not count: such a part
    /// contributes no location-weight, exactly as a zero-width clip
    /// contributes nothing to [`plane_sweep_slab`].
    fn column_range(&self, rect: &Rect) -> (i64, i64) {
        let cw = self.cell_width;
        let lo = grid_cell(rect.x_lo, cw);
        let mut hi = grid_cell(rect.x_hi, cw);
        if rect.x_hi == hi as f64 * cw {
            hi -= 1;
        }
        (lo, hi.max(lo))
    }

    /// Marks one cell dirty, maintaining the dirty set and evicting its
    /// (now stale) entry from the clean-candidate index.
    fn mark_cell_dirty(
        clean_best: &mut BTreeSet<(u64, u64, i64)>,
        dirty_cols: &mut BTreeSet<i64>,
        col: i64,
        cell: &mut Cell,
    ) {
        if !cell.dirty {
            cell.dirty = true;
            dirty_cols.insert(col);
            if let Some(c) = cell.cached.take() {
                clean_best.remove(&crate::cells::candidate_key(&c, col));
            }
        }
        cell.cached = None;
    }

    /// Routes a just-committed object into the maintenance structures.
    fn attach(&mut self, id: u64, object: WeightedPoint, rect: Rect, col_lo: i64, col_hi: i64) {
        for col in col_lo..=col_hi {
            let cell = self.cells.entry(col).or_default();
            Self::mark_cell_dirty(&mut self.clean_best, &mut self.dirty_cols, col, cell);
            cell.ids.insert(id);
            cell.bound += object.weight;
        }
        self.x_edges.insert(rect.x_lo);
        self.x_edges.insert(rect.x_hi);
        self.y_events.insert(rect.y_lo);
        self.y_events.insert(rect.y_hi);
        if object.weight > 0.0 {
            self.positive_weight += 1;
        }
        self.geometry.insert(
            id,
            Geometry {
                weight: object.weight,
                rect,
                col_lo,
                col_hi,
            },
        );
    }

    /// Undoes [`attach`](StreamEngine::attach) for an object the [`LiveSet`]
    /// already removed (explicit delete or window expiry).
    fn detach(&mut self, id: u64) {
        let Some(geom) = self.geometry.remove(&id) else {
            debug_assert!(false, "removed object had no maintenance geometry");
            return;
        };
        for col in geom.col_lo..=geom.col_hi {
            let now_empty = if let Some(cell) = self.cells.get_mut(&col) {
                Self::mark_cell_dirty(&mut self.clean_best, &mut self.dirty_cols, col, cell);
                cell.ids.remove(&id);
                // `cell.bound` deliberately keeps the removed weight: a
                // stale bound is still an upper bound (see `Cell::bound`);
                // the next re-sweep of the cell tightens it again.
                cell.ids.is_empty()
            } else {
                debug_assert!(false, "live object referenced a missing cell");
                false
            };
            if now_empty {
                self.cells.remove(&col);
                self.dirty_cols.remove(&col);
            }
        }
        self.x_edges.remove(geom.rect.x_lo);
        self.x_edges.remove(geom.rect.x_hi);
        self.y_events.remove(geom.rect.y_lo);
        self.y_events.remove(geom.rect.y_hi);
        if geom.weight > 0.0 {
            self.positive_weight -= 1;
        }
    }

    // ---- incremental answering -------------------------------------------

    /// Is candidate `(c, col)` better than the incumbent under the sweep's
    /// tie-breaking (higher sum, then lower first-attain y, then leftmost
    /// cell)?  This is exactly the order in which the external MergeSweep
    /// would surface the same winner.
    fn consider(best: &mut Option<(CellCandidate, i64)>, c: CellCandidate, col: i64) {
        let better = match best {
            None => true,
            Some((b, bcol)) => {
                c.sum > b.sum || (c.sum == b.sum && (c.y < b.y || (c.y == b.y && col < *bcol)))
            }
        };
        if better {
            *best = Some((c, col));
        }
    }

    /// Re-sweeps one dirty cell with the core plane sweep, caches and
    /// returns its candidate; also refreshes the cell's weight bound to the
    /// exact member total.
    fn sweep_cell(&mut self, col: i64) -> Option<CellCandidate> {
        let interval = Interval::new(
            col as f64 * self.cell_width,
            (col + 1) as f64 * self.cell_width,
        );
        self.rect_buf.clear();
        self.rect_buf.extend(self.cells[&col].ids.iter().map(|id| {
            let g = &self.geometry[id];
            RectRecord::new(g.rect, g.weight)
        }));
        let bound = self.rect_buf.iter().map(|r| r.weight).sum();
        let tuples = self.scratch.sweep(&self.rect_buf, interval);
        let mut cand: Option<CellCandidate> = None;
        for t in tuples {
            // First strictly-greater tuple: the same selection rule as the
            // final extraction of the batch pipelines.
            if cand.as_ref().is_none_or(|c| t.sum > c.sum) {
                cand = Some(CellCandidate {
                    sum: t.sum,
                    y: t.y,
                    x: t.interval(),
                });
            }
        }
        let cell = self.cells.get_mut(&col).expect("swept cell exists");
        cell.cached = cand;
        cell.dirty = false;
        cell.bound = bound;
        self.dirty_cols.remove(&col);
        if let Some(c) = &cand {
            self.clean_best.insert(crate::cells::candidate_key(c, col));
        }
        cand
    }

    /// The branch-and-bound maintenance loop: merge clean candidates, then
    /// re-sweep dirty cells in decreasing bound order while they can still
    /// beat the incumbent.
    fn maintain_max_rs(&mut self) -> (MaxRsResult, MaintenanceStats) {
        let mut stats = MaintenanceStats {
            cells_total: self.cells.len(),
            live_objects: self.live.len(),
            events_since_last_answer: self.events_since_answer,
            ..Default::default()
        };
        if self.live.is_empty() {
            return (MaxRsResult::empty(), stats);
        }
        if self.positive_weight == 0 {
            // All weights are zero: the batch sweep reports weight 0 on the
            // leftmost elementary cell of the arrangement at the first event
            // y, reproduced here from the global breakpoint indexes.  No
            // sweep runs, so account every cell as cached (clean) or pruned
            // (dirty, left dirty) to keep the cached+swept+pruned ==
            // cells_total invariant of the stats.
            stats.cells_pruned = self.dirty_cols.len();
            stats.cells_cached = stats.cells_total - stats.cells_pruned;
            return (self.zero_weight_answer(), stats);
        }

        // Best clean candidate straight from the incremental index — O(1),
        // no scan of the clean cells.
        stats.cells_cached = stats.cells_total - self.dirty_cols.len();
        let mut best: Option<(CellCandidate, i64)> = self.clean_best.first().map(|&(_, _, col)| {
            let c = self.cells[&col]
                .cached
                .expect("clean-best entries always have a cached candidate");
            (c, col)
        });
        let mut dirty: Vec<(f64, i64)> = self
            .dirty_cols
            .iter()
            .map(|&col| (self.cells[&col].bound, col))
            .collect();
        dirty.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (i, &(bound, col)) in dirty.iter().enumerate() {
            if let Some((incumbent, _)) = &best {
                if bound < incumbent.sum {
                    // Sorted by bound: nothing after this can win either.
                    stats.cells_pruned += dirty.len() - i;
                    break;
                }
            }
            let cand = self.sweep_cell(col);
            stats.cells_swept += 1;
            if let Some(c) = cand {
                Self::consider(&mut best, c, col);
            }
        }
        let (winner, _) = best.expect("a positive-weight stream has a winning cell");
        (self.canonicalize(winner), stats)
    }

    /// Widens the winning cell candidate to the full arrangement cell — the
    /// in-memory analogue of the external pipeline's canonical max-regions —
    /// so the reported result is bit-identical to a batch
    /// [`max_rs_in_memory`] over the survivors.
    fn canonicalize(&self, c: CellCandidate) -> MaxRsResult {
        let y_lo = c.y;
        let y_hi = self.y_events.successor_after(y_lo).unwrap_or(y_lo + 1.0);
        let x_lo = c.x.lo;
        let x_hi = self.x_edges.successor_after(x_lo).unwrap_or(f64::INFINITY);
        debug_assert!(
            x_hi >= c.x.hi,
            "widened interval must contain the cell-clipped winner"
        );
        let x = Interval::new(x_lo, x_hi);
        MaxRsResult {
            center: Point::new(x.representative(), (y_lo + y_hi) / 2.0),
            total_weight: c.sum,
            region: Rect::new(x.lo, x.hi, y_lo, y_hi),
        }
    }

    /// The answer when every live object has weight zero: maximum 0 on the
    /// leftmost arrangement cell `(-∞, min x-edge)` at the first event y —
    /// exactly what the batch sweep's leftmost-tie-breaking reports.
    fn zero_weight_answer(&self) -> MaxRsResult {
        let y_lo = self.y_events.min().expect("non-empty stream has events");
        let y_hi = self.y_events.successor_after(y_lo).unwrap_or(y_lo + 1.0);
        let e_min = self.x_edges.min().expect("non-empty stream has edges");
        let x = Interval::new(f64::NEG_INFINITY, e_min);
        MaxRsResult {
            center: Point::new(x.representative(), (y_lo + y_hi) / 2.0),
            total_weight: 0.0,
            region: Rect::new(x.lo, x.hi, y_lo, y_hi),
        }
    }

    /// Top-k via greedy suppression, mirroring
    /// [`max_k_rs_in_memory`](maxrs_core::max_k_rs_in_memory) round for
    /// round: round 1 comes from the incremental structure (bit-identical to
    /// a fresh sweep by the maintenance invariant), later rounds re-sweep the
    /// suppressed remainder in memory.
    fn top_k_from(&self, first: MaxRsResult, k: usize) -> Vec<MaxRsResult> {
        if k == 0 {
            return Vec::new();
        }
        if k == 1 {
            // Round 1 alone needs no survivor copy: the incremental result
            // already is the greedy's first placement (an empty stream
            // reports weight 0 and yields the same empty list the batch
            // greedy produces).
            return if first.total_weight <= 0.0 {
                Vec::new()
            } else {
                vec![first]
            };
        }
        let mut remaining = self.survivors();
        let mut results = Vec::with_capacity(k.min(remaining.len()));
        for round in 0..k {
            if remaining.is_empty() {
                break;
            }
            let best = if round == 0 {
                first
            } else {
                max_rs_in_memory(&remaining, self.size)
            };
            if best.total_weight <= 0.0 {
                break;
            }
            let chosen = Rect::centered_at(best.center, self.size);
            remaining.retain(|o| !chosen.contains_open(&o.point));
            results.push(best);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_core::{max_k_rs_in_memory, MaxRsEngine};

    fn size() -> RectSize {
        RectSize::square(10.0)
    }

    /// Deterministic pseudo-random event mix (inserts + deletes).
    fn scripted_events(n: usize, seed: u64) -> Vec<Event> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut events = Vec::with_capacity(n);
        let mut live: Vec<u64> = Vec::new();
        for i in 0..n {
            let at = i as f64;
            let r = next();
            if !live.is_empty() && r % 4 == 0 {
                let victim = live.swap_remove((next() % live.len() as u64) as usize);
                events.push(Event::delete(victim, at));
            } else {
                let id = i as u64;
                let x = (next() % 1000) as f64 / 5.0;
                let y = (next() % 1000) as f64 / 5.0;
                let w = (next() % 4) as f64; // integer weights 0..=3, zeros included
                events.push(Event::insert(id, x, y, w, at));
                live.push(id);
            }
        }
        events
    }

    fn assert_matches_batch(engine: &mut StreamEngine, query: &Query) {
        let survivors = engine.survivors();
        let incremental = engine.answer();
        let batch = MaxRsEngine::new().run(&survivors, query).unwrap();
        assert_eq!(
            incremental.run.answer,
            batch.answer,
            "incremental answer diverged from batch on {} survivors",
            survivors.len()
        );
    }

    #[test]
    fn empty_engine_answers_like_batch() {
        let query = Query::max_rs(size());
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        assert!(engine.is_empty());
        assert_matches_batch(&mut engine, &query);
    }

    #[test]
    fn scripted_sequence_matches_batch_at_every_checkpoint() {
        let query = Query::max_rs(size());
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        for (i, event) in scripted_events(600, 42).iter().enumerate() {
            engine.apply(event).unwrap();
            if i % 37 == 0 {
                assert_matches_batch(&mut engine, &query);
            }
        }
        assert_matches_batch(&mut engine, &query);
    }

    #[test]
    fn top_k_matches_greedy_reference() {
        let k = 3;
        let mut engine = StreamEngine::new(StreamConfig::top_k(size(), k)).unwrap();
        for event in scripted_events(400, 7) {
            engine.apply(&event).unwrap();
        }
        let survivors = engine.survivors();
        let got = engine.answer();
        let want = max_k_rs_in_memory(&survivors, size(), k);
        assert_eq!(got.run.answer.placements().unwrap(), want.as_slice());
    }

    #[test]
    fn zero_weight_only_stream_matches_batch() {
        let query = Query::max_rs(size());
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        for (i, &(x, y)) in [(5.0, 5.0), (20.0, 1.0), (3.0, 40.0)].iter().enumerate() {
            engine
                .apply(&Event::insert(i as u64, x, y, 0.0, i as f64))
                .unwrap();
        }
        assert_matches_batch(&mut engine, &query);
        // The stats accounting holds on the no-sweep early path too.
        let answer = engine.answer();
        assert_eq!(
            answer.stats.cells_cached + answer.stats.cells_swept + answer.stats.cells_pruned,
            answer.stats.cells_total
        );
        assert_eq!(answer.stats.cells_swept, 0);
        assert!(answer.stats.cells_total > 0);
    }

    #[test]
    fn sliding_window_expires_objects() {
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size()).with_window(5.0)).unwrap();
        engine.apply(&Event::insert(1, 0.0, 0.0, 1.0, 0.0)).unwrap();
        engine.apply(&Event::insert(2, 1.0, 1.0, 1.0, 3.0)).unwrap();
        assert_eq!(engine.len(), 2);
        // t = 5: the first object's lifetime [0, 5) is over, the second lives.
        let outcome = engine.apply(&Event::tick(5.0)).unwrap();
        assert_eq!(outcome.expired, 1);
        assert_eq!(engine.len(), 1);
        assert!(engine.contains(2) && !engine.contains(1));
        // Expired ids can be reused.
        engine.apply(&Event::insert(1, 2.0, 2.0, 1.0, 6.0)).unwrap();
        assert_eq!(engine.len(), 2);
        // The answer tracks the surviving set.
        let survivors = engine.survivors();
        let batch = MaxRsEngine::new()
            .run(&survivors, &Query::max_rs(size()))
            .unwrap();
        assert_eq!(engine.answer().run.answer, batch.answer);
    }

    #[test]
    fn duplicate_insert_is_an_error_and_unknown_delete_a_noop() {
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        engine.apply(&Event::insert(1, 0.0, 0.0, 1.0, 0.0)).unwrap();
        assert_eq!(
            engine.apply(&Event::insert(1, 5.0, 5.0, 1.0, 1.0)),
            Err(StreamError::DuplicateId(1))
        );
        let outcome = engine.apply(&Event::delete(99, 2.0)).unwrap();
        assert!(!outcome.applied);
        assert_eq!(engine.len(), 1);
        // Invalid payloads are checked errors.
        assert!(engine
            .apply(&Event::insert(2, f64::NAN, 0.0, 1.0, 3.0))
            .is_err());
        // A negative weight never gets past the checked validation (the
        // event is built literally: `WeightedPoint::at` debug-asserts).
        let negative = Event::Insert {
            id: 2,
            object: WeightedPoint {
                point: Point::new(0.0, 0.0),
                weight: -1.0,
            },
            at: 3.0,
        };
        assert!(engine.apply(&negative).is_err());
        assert!(engine.apply(&Event::tick(f64::INFINITY)).is_err());
    }

    #[test]
    fn out_of_range_coordinates_are_a_checked_error_not_a_hang() {
        // |x / cell_width| beyond the grid_cell exactness bound must be
        // rejected (this used to overflow/loop inside grid_cell).
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        assert!(matches!(
            engine.apply(&Event::insert(1, 1e30, 0.0, 1.0, 0.0)),
            Err(StreamError::InvalidParameter(_))
        ));
        assert!(engine.is_empty(), "rejected insert must not be applied");
        // The same guard triggers through a tiny cell width at ordinary
        // coordinates.
        let mut narrow =
            StreamEngine::new(StreamConfig::max_rs(size()).with_cell_width(1e-300)).unwrap();
        assert!(matches!(
            narrow.apply(&Event::insert(1, 1.0, 1.0, 1.0, 0.0)),
            Err(StreamError::InvalidParameter(_))
        ));
        // In-range inserts still work on both engines.
        engine.apply(&Event::insert(2, 5.0, 5.0, 1.0, 1.0)).unwrap();
        assert_eq!(engine.answer().run.answer.best_weight(), 1.0);
    }

    #[test]
    fn quiescent_answers_do_no_sweep_work() {
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        for event in scripted_events(300, 13) {
            engine.apply(&event).unwrap();
        }
        let first = engine.answer();
        assert!(first.stats.cells_swept > 0);
        // No events in between: the next answer sweeps nothing — clean
        // cells are served by the candidate index, and cells pruned by the
        // first answer stay dirty but cost only an O(1) bound check each.
        let second = engine.answer();
        assert_eq!(second.run.answer, first.run.answer);
        assert_eq!(second.stats.cells_swept, 0);
        assert_eq!(
            second.stats.cells_cached + second.stats.cells_pruned,
            second.stats.cells_total
        );
        assert_eq!(second.stats.events_since_last_answer, 0);
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size()).with_window(5.0)).unwrap();
        engine
            .apply(&Event::insert(1, 0.0, 0.0, 1.0, 10.0))
            .unwrap();
        assert_eq!(engine.now(), 10.0);
        // An out-of-order event is processed at the current clock.
        engine.apply(&Event::insert(2, 1.0, 1.0, 1.0, 4.0)).unwrap();
        assert_eq!(engine.now(), 10.0);
        // Both live until 15 (id 2's window starts at the clamped clock).
        engine.apply(&Event::tick(14.9)).unwrap();
        assert_eq!(engine.len(), 2);
        engine.apply(&Event::tick(15.0)).unwrap();
        assert_eq!(engine.len(), 0);
    }

    #[test]
    fn maintenance_is_localized_after_a_distant_event() {
        // A wide field of clusters, then one insert far away: the next answer
        // must re-sweep only the dirty neighborhood, not the whole grid.
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        let mut id = 0;
        for cluster in 0..40 {
            for j in 0..5 {
                let x = cluster as f64 * 100.0 + j as f64;
                engine
                    .apply(&Event::insert(id, x, 50.0, 1.0, id as f64))
                    .unwrap();
                id += 1;
            }
        }
        let first = engine.answer();
        assert!(first.stats.cells_swept > 0);
        let total = first.stats.cells_total;
        assert!(total >= 40, "expected one cell per cluster, got {total}");

        engine
            .apply(&Event::insert(id, 1_700.0, 50.0, 1.0, id as f64))
            .unwrap();
        let second = engine.answer();
        assert!(
            second.stats.cells_swept <= 2,
            "a single event must dirty at most two cells, swept {}",
            second.stats.cells_swept
        );
        assert_eq!(
            second.stats.cells_cached + second.stats.cells_swept + second.stats.cells_pruned,
            second.stats.cells_total
        );
    }

    #[test]
    fn pruned_cells_are_revisited_when_the_incumbent_falls() {
        // A heavy cluster dominates; a light cluster's cell gets pruned.
        // Deleting the heavy cluster must let the light one win.
        let query = Query::max_rs(size());
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size())).unwrap();
        for i in 0..10u64 {
            engine
                .apply(&Event::insert(
                    i,
                    500.0 + (i % 3) as f64,
                    50.0,
                    3.0,
                    i as f64,
                ))
                .unwrap();
        }
        for i in 10..13u64 {
            engine
                .apply(&Event::insert(
                    i,
                    100.0 + (i % 3) as f64,
                    50.0,
                    1.0,
                    i as f64,
                ))
                .unwrap();
        }
        assert_matches_batch(&mut engine, &query);
        for i in 0..10u64 {
            engine.apply(&Event::delete(i, 20.0 + i as f64)).unwrap();
        }
        assert_matches_batch(&mut engine, &query);
        assert_eq!(engine.answer().run.answer.best_weight(), 3.0);
    }

    #[test]
    fn apply_all_accumulates_outcomes() {
        let mut engine = StreamEngine::new(StreamConfig::max_rs(size()).with_window(2.0)).unwrap();
        let events = vec![
            Event::insert(1, 0.0, 0.0, 1.0, 0.0),
            Event::delete(99, 0.5), // unknown: ignored
            Event::tick(10.0),      // expires id 1
        ];
        let outcome = engine.apply_all(&events).unwrap();
        assert!(!outcome.applied);
        assert_eq!(outcome.expired, 1);
        assert!(engine.is_empty());
    }
}
