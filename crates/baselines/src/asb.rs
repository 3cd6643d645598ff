//! The aSB-tree baseline: an external aggregate tree over the sorted
//! x-boundaries (the "aSB-Tree" curve of Figures 12–16).
//!
//! Du et al. externalize the plane sweep by replacing the in-memory binary
//! tree with an *aggregate SB-tree*: a balanced external tree over the sorted
//! vertical boundaries in which every node stores, per child, a pending
//! addition (`add`) and the maximum location-weight of the child's subtree
//! (`max`).  A rectangle insertion or deletion then updates a single
//! root-to-leaf path — `O(log_B N)` node accesses — instead of rescanning the
//! whole status, and the upper levels of the path are almost always resident
//! in the buffer pool.  Total cost: `O(N log_B N)` I/Os, in between the naïve
//! sweep's `Θ(N²/B)` and ExactMaxRS's `O((N/B) log_{M/B}(N/B))`.
//!
//! Implementation notes:
//!
//! * One tree node occupies exactly one disk block and holds
//!   `block_size / 16` children, each represented by an `(add, max)` pair of
//!   `f64`s.  Leaves (the elementary intervals) are virtual — their state is
//!   the `(add, max)` entry of their parent.
//! * The mapping from an event's x-range to a leaf-index range is done with an
//!   in-memory directory of the boundary values.  A production aSB-tree keys
//!   its nodes by boundary value and performs this search inside the very same
//!   root-to-leaf descent it updates, so the I/O count is unchanged by this
//!   simplification.

use maxrs_core::{MaxRsResult, ObjectRecord, Result};
use maxrs_em::{codec, EmContext, FileId, TupleFile};
use maxrs_geometry::{Point, Rect, RectSize};

use crate::events::prepare_sweep_inputs;

/// Structural statistics of the aSB-tree built for a run (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsbTreeStats {
    /// Number of elementary intervals (virtual leaves).
    pub leaves: u64,
    /// Number of tree levels (node levels, excluding the virtual leaves).
    pub levels: usize,
    /// Total number of nodes (= disk blocks) of the tree.
    pub nodes: u64,
    /// Children per node.
    pub fanout: usize,
}

/// Solves MaxRS with the aSB-tree externalized plane sweep.
pub fn asb_tree_sweep(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
) -> Result<MaxRsResult> {
    let (result, _stats) = asb_tree_sweep_with_stats(ctx, objects, size)?;
    Ok(result)
}

/// Like [`asb_tree_sweep`], additionally returning tree statistics.
pub fn asb_tree_sweep_with_stats(
    ctx: &EmContext,
    objects: &TupleFile<ObjectRecord>,
    size: RectSize,
) -> Result<(MaxRsResult, AsbTreeStats)> {
    if objects.is_empty() {
        return Ok((
            MaxRsResult::empty(),
            AsbTreeStats {
                leaves: 0,
                levels: 0,
                nodes: 0,
                fanout: ctx.config().block_size / ENTRY_SIZE,
            },
        ));
    }
    let inputs = prepare_sweep_inputs(ctx, objects, size)?;

    // In-memory directory of boundary values (see module docs): boundaries[i]
    // is the left edge of elementary interval i; the last entry closes it.
    let status = ctx.read_all(&inputs.status)?;
    let mut boundaries: Vec<f64> = Vec::with_capacity(status.len() + 1);
    for s in &status {
        boundaries.push(s.x_lo);
    }
    if let Some(last) = status.last() {
        boundaries.push(last.x_hi);
    }
    ctx.delete_file(inputs.status)?;
    let leaves = status.len() as u64;
    drop(status);

    let mut tree = AsbTree::create(ctx, leaves)?;
    let stats = tree.stats();

    let mut events = ctx.open_reader(&inputs.events);
    let mut best_sum = 0.0f64;
    let mut best_leaf: Option<u64> = None;
    let mut best_y = f64::NEG_INFINITY;
    let mut best_next_y: Option<f64> = None;
    let mut awaiting_next = false;

    while let Some(y) = events.peek()?.map(|e| e.y) {
        if awaiting_next {
            best_next_y = Some(y);
            awaiting_next = false;
        }
        let mut group_max = f64::NEG_INFINITY;
        while let Some(e) = events.peek()? {
            if e.y > y {
                break;
            }
            let e = events.next_record()?.expect("peeked event");
            // Leaf range covered by this rectangle's x-extent.
            let lo = boundaries.partition_point(|&b| b < e.x_lo) as u64;
            let hi = boundaries.partition_point(|&b| b < e.x_hi) as u64;
            group_max = tree.range_add(ctx, lo, hi, e.delta)?;
        }
        if group_max > best_sum {
            best_sum = group_max;
            best_leaf = Some(tree.argmax_leaf(ctx)?);
            best_y = y;
            best_next_y = None;
            awaiting_next = true;
        }
    }

    ctx.delete_file(inputs.events)?;
    tree.destroy(ctx)?;

    let result = match best_leaf {
        None => MaxRsResult::empty(),
        Some(leaf) => {
            let x_lo = boundaries[leaf as usize];
            let x_hi = boundaries[leaf as usize + 1];
            let y_hi = best_next_y.filter(|&v| v > best_y).unwrap_or(best_y + 1.0);
            MaxRsResult {
                center: Point::new((x_lo + x_hi) / 2.0, (best_y + y_hi) / 2.0),
                total_weight: best_sum,
                region: Rect::new(x_lo, x_hi, best_y, y_hi),
            }
        }
    };
    Ok((result, stats))
}

const ENTRY_SIZE: usize = 16; // (add: f64, max: f64)

/// The external aggregate tree.
struct AsbTree {
    file: FileId,
    fanout: usize,
    leaves: u64,
    /// Block offset of the first node of each level (level 0 = parents of the
    /// virtual leaves, last level = root).
    level_offsets: Vec<u64>,
    /// Number of nodes per level.
    level_counts: Vec<u64>,
    /// Leaves covered by one node of each level (`fanout^(level+1)`).
    level_spans: Vec<u64>,
}

impl AsbTree {
    /// Creates a zero-initialized tree over `leaves` elementary intervals.
    fn create(ctx: &EmContext, leaves: u64) -> Result<Self> {
        let fanout = (ctx.config().block_size / ENTRY_SIZE).max(2);
        let mut level_counts = Vec::new();
        let mut level_spans = Vec::new();
        let mut units = leaves.max(1);
        let mut span = 1u64;
        loop {
            let nodes = units.div_ceil(fanout as u64);
            span = span.saturating_mul(fanout as u64);
            level_counts.push(nodes);
            level_spans.push(span);
            if nodes == 1 {
                break;
            }
            units = nodes;
        }
        let mut level_offsets = Vec::with_capacity(level_counts.len());
        let mut offset = 0u64;
        for &count in &level_counts {
            level_offsets.push(offset);
            offset += count;
        }
        let file = ctx.create_raw_file()?;
        // Zero-initialize every node block (counted as the build cost).
        for block in 0..offset {
            ctx.with_block_write(file, block, true, |buf| buf.fill(0))?;
        }
        Ok(AsbTree {
            file,
            fanout,
            leaves,
            level_offsets,
            level_counts,
            level_spans,
        })
    }

    fn stats(&self) -> AsbTreeStats {
        AsbTreeStats {
            leaves: self.leaves,
            levels: self.level_counts.len(),
            nodes: self.level_counts.iter().sum(),
            fanout: self.fanout,
        }
    }

    fn root_level(&self) -> usize {
        self.level_counts.len() - 1
    }

    fn block_of(&self, level: usize, node: u64) -> u64 {
        self.level_offsets[level] + node
    }

    /// Leaves covered by one *child* of a node at `level`.
    fn child_span(&self, level: usize) -> u64 {
        if level == 0 {
            1
        } else {
            self.level_spans[level - 1]
        }
    }

    /// Adds `delta` to leaves `[lo, hi)` and returns the new global maximum.
    fn range_add(&mut self, ctx: &EmContext, lo: u64, hi: u64, delta: f64) -> Result<f64> {
        if lo >= hi {
            // Degenerate range: the global maximum is unchanged; recompute it
            // from the root so the caller still gets a valid value.
            return self.node_max(ctx, self.root_level(), 0);
        }
        self.update_node(ctx, self.root_level(), 0, lo, hi, delta)
    }

    /// Recursive range update of node `node` at `level`; returns the node's
    /// new subtree maximum (excluding any pending add stored at its parent).
    fn update_node(
        &self,
        ctx: &EmContext,
        level: usize,
        node: u64,
        lo: u64,
        hi: u64,
        delta: f64,
    ) -> Result<f64> {
        let child_span = self.child_span(level);
        let node_base = node * self.level_spans[level];
        let children = self.children_in(level, node);
        let block = self.block_of(level, node);

        // Pass 1 (single block access): apply the delta to fully covered
        // children, remember partially covered ones for recursion.
        let mut partial: Vec<(usize, f64)> = Vec::new(); // (child idx, pending add)
        ctx.with_block_write(self.file, block, false, |buf| {
            for c in 0..children {
                let c_lo = node_base + c as u64 * child_span;
                let c_hi = (c_lo + child_span).min(self.leaves);
                if c_lo >= hi || c_hi <= lo {
                    continue;
                }
                if lo <= c_lo && c_hi <= hi {
                    let add = codec::get_f64(buf, c * ENTRY_SIZE) + delta;
                    let max = codec::get_f64(buf, c * ENTRY_SIZE + 8) + delta;
                    codec::put_f64(buf, c * ENTRY_SIZE, add);
                    codec::put_f64(buf, c * ENTRY_SIZE + 8, max);
                } else {
                    partial.push((c, codec::get_f64(buf, c * ENTRY_SIZE)));
                }
            }
        })?;

        // Recurse into partially covered children (at most two per level).
        let mut updates: Vec<(usize, f64)> = Vec::new();
        for (c, add) in &partial {
            debug_assert!(level > 0, "leaf children are always fully covered");
            let child_max = self.update_node(
                ctx,
                level - 1,
                node * self.fanout as u64 + *c as u64,
                lo,
                hi,
                delta,
            )?;
            updates.push((*c, child_max + add));
        }

        // Pass 2: write back the refreshed child maxima and compute this
        // node's subtree maximum.
        let node_max = ctx.with_block_write(self.file, block, false, |buf| {
            for (c, new_max) in &updates {
                codec::put_f64(buf, c * ENTRY_SIZE + 8, *new_max);
            }
            let mut best = f64::NEG_INFINITY;
            for c in 0..children {
                best = best.max(codec::get_f64(buf, c * ENTRY_SIZE + 8));
            }
            best
        })?;
        Ok(node_max)
    }

    /// Number of children of node `node` at `level` (the last node of a level
    /// may be partially filled).
    fn children_in(&self, level: usize, node: u64) -> usize {
        let child_span = self.child_span(level);
        let node_base = node * self.level_spans[level];
        let covered = self
            .leaves
            .saturating_sub(node_base)
            .min(self.level_spans[level]);
        covered.div_ceil(child_span) as usize
    }

    /// Subtree maximum of a node (one block read).
    fn node_max(&self, ctx: &EmContext, level: usize, node: u64) -> Result<f64> {
        let children = self.children_in(level, node);
        let block = self.block_of(level, node);
        let max = ctx.with_block_read(self.file, block, |buf| {
            let mut best = f64::NEG_INFINITY;
            for c in 0..children {
                best = best.max(codec::get_f64(buf, c * ENTRY_SIZE + 8));
            }
            best
        })?;
        Ok(max)
    }

    /// Index of a leaf attaining the global maximum (root-to-leaf descent).
    fn argmax_leaf(&self, ctx: &EmContext) -> Result<u64> {
        let mut level = self.root_level();
        let mut node = 0u64;
        loop {
            let children = self.children_in(level, node);
            let block = self.block_of(level, node);
            let best_child = ctx.with_block_read(self.file, block, |buf| {
                let mut best = 0usize;
                let mut best_val = f64::NEG_INFINITY;
                for c in 0..children {
                    let v = codec::get_f64(buf, c * ENTRY_SIZE + 8);
                    if v > best_val {
                        best_val = v;
                        best = c;
                    }
                }
                best
            })?;
            if level == 0 {
                return Ok(node * self.level_spans[0] + best_child as u64);
            }
            node = node * self.fanout as u64 + best_child as u64;
            level -= 1;
        }
    }

    fn destroy(self, ctx: &EmContext) -> Result<()> {
        ctx.delete_raw_file(self.file)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_core::{
        exact_max_rs, load_objects, max_rs_in_memory, rect_objective, ExactMaxRsOptions,
    };
    use maxrs_em::EmConfig;
    use maxrs_geometry::WeightedPoint;

    fn ctx() -> EmContext {
        EmContext::new(EmConfig::new(512, 16 * 512).unwrap())
    }

    fn pseudo_random_objects(n: usize, seed: u64, extent: f64) -> Vec<WeightedPoint> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                WeightedPoint::at(
                    next() * extent,
                    next() * extent,
                    1.0 + (next() * 3.0).floor(),
                )
            })
            .collect()
    }

    #[test]
    fn empty_and_single() {
        let ctx = ctx();
        let empty = load_objects(&ctx, &[]).unwrap();
        assert_eq!(
            asb_tree_sweep(&ctx, &empty, RectSize::square(2.0))
                .unwrap()
                .total_weight,
            0.0
        );
        let single = load_objects(&ctx, &[WeightedPoint::at(5.0, 5.0, 3.0)]).unwrap();
        let r = asb_tree_sweep(&ctx, &single, RectSize::square(2.0)).unwrap();
        assert_eq!(r.total_weight, 3.0);
        assert_eq!(
            rect_objective(
                &[WeightedPoint::at(5.0, 5.0, 3.0)],
                r.center,
                RectSize::square(2.0)
            ),
            3.0
        );
    }

    #[test]
    fn matches_in_memory_and_exact_maxrs() {
        let ctx = ctx();
        for seed in [5u64, 23, 77] {
            let objects = pseudo_random_objects(150, seed, 400.0);
            let file = load_objects(&ctx, &objects).unwrap();
            for side in [25.0, 80.0] {
                let size = RectSize::square(side);
                let asb = asb_tree_sweep(&ctx, &file, size).unwrap();
                let reference = max_rs_in_memory(&objects, size);
                let exact = exact_max_rs(&ctx, &file, size, &ExactMaxRsOptions::default()).unwrap();
                assert_eq!(
                    asb.total_weight, reference.total_weight,
                    "seed={seed} side={side}"
                );
                assert_eq!(
                    asb.total_weight, exact.total_weight,
                    "seed={seed} side={side}"
                );
                assert_eq!(
                    rect_objective(&objects, asb.center, size),
                    asb.total_weight,
                    "seed={seed} side={side}"
                );
            }
            ctx.delete_file(file).unwrap();
        }
    }

    #[test]
    fn tree_structure_is_reported() {
        let ctx = ctx();
        let objects = pseudo_random_objects(200, 2, 1000.0);
        let file = load_objects(&ctx, &objects).unwrap();
        let (_r, stats) = asb_tree_sweep_with_stats(&ctx, &file, RectSize::square(40.0)).unwrap();
        assert!(stats.leaves > 0 && stats.leaves < 400);
        assert_eq!(stats.fanout, 512 / 16);
        assert!(
            stats.levels >= 2,
            "200 objects with fanout 32 need two levels"
        );
        assert!(stats.nodes >= stats.leaves / stats.fanout as u64);
    }

    #[test]
    fn io_cost_sits_between_exact_and_naive() {
        let ctx_naive = ctx();
        let ctx_asb = ctx();
        let ctx_exact = ctx();
        let objects = pseudo_random_objects(400, 8, 5000.0);
        let size = RectSize::square(250.0);

        let f = load_objects(&ctx_naive, &objects).unwrap();
        ctx_naive.reset_stats();
        crate::naive_sweep(&ctx_naive, &f, size).unwrap();
        let io_naive = ctx_naive.stats().total();

        let f = load_objects(&ctx_asb, &objects).unwrap();
        ctx_asb.reset_stats();
        asb_tree_sweep(&ctx_asb, &f, size).unwrap();
        let io_asb = ctx_asb.stats().total();

        let f = load_objects(&ctx_exact, &objects).unwrap();
        ctx_exact.reset_stats();
        exact_max_rs(&ctx_exact, &f, size, &ExactMaxRsOptions::default()).unwrap();
        let io_exact = ctx_exact.stats().total();

        assert!(
            io_exact < io_asb && io_asb < io_naive,
            "expected ExactMaxRS < aSB-tree < Naive, got {io_exact} / {io_asb} / {io_naive}"
        );
    }
}
