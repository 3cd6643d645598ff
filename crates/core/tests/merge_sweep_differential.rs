//! Differential test of MergeSweep: [`merge_sweep`] against a flat reference
//! that rescans all `m` sub-slabs at every event y — the textbook loop of
//! Algorithm 1 — on random slab-files with float weights.
//!
//! The two must agree bit for bit on every output tuple, and must move the
//! same blocks: each runs on its own context, both contexts built
//! identically with a buffer pool small enough that the block access order
//! shows in the counts.

use maxrs_core::{merge_sweep, SlabTuple, SpanEvent};
use maxrs_em::{EmConfig, EmContext, TupleFile};
use maxrs_geometry::Interval;

/// The flat `m`-way merge: three `Θ(m)` scans per event y — the next head
/// y, the consume pass, and a strict `>` argmax of `tslab[i].sum +
/// up_sum[i]` from `−∞`.
fn flat_merge_sweep(
    ctx: &EmContext,
    slab_files: &[TupleFile<SlabTuple>],
    slabs: &[Interval],
    span_events: &TupleFile<SpanEvent>,
) -> TupleFile<SlabTuple> {
    let m = slabs.len();
    let mut readers: Vec<_> = slab_files.iter().map(|f| ctx.open_reader(f)).collect();
    let mut span_reader = ctx.open_reader(span_events);
    let mut writer = ctx.create_writer::<SlabTuple>().unwrap();
    let mut up_sum = vec![0.0f64; m];
    let mut tslab: Vec<SlabTuple> = slabs
        .iter()
        .map(|s| SlabTuple::new(f64::NEG_INFINITY, s.lo, s.hi, 0.0))
        .collect();
    loop {
        let mut next_y: Option<f64> = None;
        for reader in readers.iter_mut() {
            if let Some(t) = reader.peek().unwrap() {
                next_y = Some(next_y.map_or(t.y, |y: f64| y.min(t.y)));
            }
        }
        if let Some(e) = span_reader.peek().unwrap() {
            next_y = Some(next_y.map_or(e.y, |y: f64| y.min(e.y)));
        }
        let Some(y) = next_y else { break };

        while let Some(e) = span_reader.peek().unwrap() {
            if e.y > y {
                break;
            }
            let e = span_reader.next_record().unwrap().unwrap();
            let hi = (e.slab_hi as usize).min(m - 1);
            if (e.slab_lo as usize) <= hi {
                for sum in &mut up_sum[e.slab_lo as usize..=hi] {
                    *sum += e.delta();
                }
            }
        }
        for (i, reader) in readers.iter_mut().enumerate() {
            while let Some(t) = reader.peek().unwrap() {
                if t.y > y {
                    break;
                }
                tslab[i] = reader.next_record().unwrap().unwrap();
            }
        }

        let mut best_idx = 0usize;
        let mut best = f64::NEG_INFINITY;
        for i in 0..m {
            let total = tslab[i].sum + up_sum[i];
            if total > best {
                best = total;
                best_idx = i;
            }
        }
        let winner = &tslab[best_idx];
        writer
            .push(&SlabTuple::new(y, winner.x_lo, winner.x_hi, best))
            .unwrap();
    }
    writer.finish().unwrap()
}

/// Deterministic xorshift stream of uniform `[0, 1)` values.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// How the sums of one case are signed.
#[derive(Debug, Clone, Copy)]
enum Sums {
    /// Non-integer weights ≥ 0 (MaxRS).
    Positive,
    /// Non-integer weights ≤ 0 (MinRS runs MaxRS over negated weights).
    Negative,
    /// Both signs, plus occasional ±∞ tuple sums.
    Mixed,
}

/// One merge input: the sub-slabs, one y-sorted tuple list per sub-slab and
/// the y-sorted spanning events.
struct Case {
    slabs: Vec<Interval>,
    tuples: Vec<Vec<SlabTuple>>,
    spans: Vec<SpanEvent>,
}

fn weight(rng: &mut Rng, sums: Sums) -> f64 {
    let w = rng.unit() * 9.0 + 0.1;
    match sums {
        Sums::Positive => w,
        Sums::Negative => -w,
        Sums::Mixed => w - 5.0,
    }
}

fn random_case(rng: &mut Rng, m: usize, sums: Sums) -> Case {
    // Few distinct ys, so readers and spanning events often share one.
    let grid = [3, 8, 32, 128][rng.below(4)];
    let y_at = |k: usize| k as f64 * 0.375 - 2.0;

    let mut bounds: Vec<f64> = (0..=m).map(|i| i as f64 * 10.0).collect();
    if rng.below(2) == 0 {
        bounds[0] = f64::NEG_INFINITY;
        bounds[m] = f64::INFINITY;
    }
    let slabs: Vec<Interval> = bounds
        .windows(2)
        .map(|w| Interval::new(w[0], w[1]))
        .collect();

    let tuples = (0..m)
        .map(|i| {
            // About a quarter of the slab-files are empty.
            let count = if rng.below(4) == 0 { 0 } else { rng.below(7) };
            let mut ys: Vec<f64> = (0..count).map(|_| y_at(rng.below(grid))).collect();
            ys.sort_by(f64::total_cmp);
            ys.into_iter()
                .map(|y| {
                    let lo = i as f64 * 10.0 + rng.unit() * 5.0;
                    let sum = match sums {
                        Sums::Mixed if rng.below(20) == 0 => {
                            [f64::INFINITY, f64::NEG_INFINITY][rng.below(2)]
                        }
                        _ => weight(rng, sums),
                    };
                    SlabTuple::new(y, lo, lo + rng.unit() * 5.0, sum)
                })
                .collect()
        })
        .collect();

    let mut spans = Vec::new();
    let pairs = rng.below(2 * m + 2);
    for p in 0..pairs {
        // Widths from one sub-slab up to all m; the first two pairs pin
        // both extremes, and a few ranges run past the last sub-slab.
        let width = match p {
            0 => m,
            1 => 1,
            _ => 1 + rng.below(m),
        };
        let lo = rng.below(m - width + 1);
        let hi = if rng.below(10) == 0 {
            m + 3
        } else {
            lo + width - 1
        };
        let a = rng.below(grid);
        let b = a + 1 + rng.below(grid);
        spans.extend(SpanEvent::pair(
            y_at(a),
            y_at(b),
            weight(rng, sums),
            lo as u32,
            hi as u32,
        ));
    }
    // Stable, so events at one y keep their insertion order.
    spans.sort_by(|a, b| a.y.total_cmp(&b.y));
    Case {
        slabs,
        tuples,
        spans,
    }
}

/// Writes the case's inputs onto `ctx`, in a fixed order.
fn write_inputs(ctx: &EmContext, case: &Case) -> (Vec<TupleFile<SlabTuple>>, TupleFile<SpanEvent>) {
    let files = case
        .tuples
        .iter()
        .map(|t| ctx.write_all(t).unwrap())
        .collect();
    (files, ctx.write_all(&case.spans).unwrap())
}

fn bits(t: &SlabTuple) -> [u64; 4] {
    [
        t.y.to_bits(),
        t.x_lo.to_bits(),
        t.x_hi.to_bits(),
        t.sum.to_bits(),
    ]
}

fn context() -> EmContext {
    // 128-byte blocks hold four tuples, and an 8-frame pool makes the hit
    // counts depend on the order the blocks are read in.
    EmContext::new(EmConfig::new(128, 8 * 128).unwrap())
}

fn check(case: &Case, label: &str) {
    let (fast_ctx, flat_ctx) = (context(), context());
    let (files, spans) = write_inputs(&fast_ctx, case);
    let fast = merge_sweep(&fast_ctx, &files, &case.slabs, &spans).unwrap();
    let (files, spans) = write_inputs(&flat_ctx, case);
    let flat = flat_merge_sweep(&flat_ctx, &files, &case.slabs, &spans);
    assert_eq!(
        fast_ctx.stats(),
        flat_ctx.stats(),
        "{label}: block transfers"
    );

    let fast = fast_ctx.read_all(&fast).unwrap();
    let flat = flat_ctx.read_all(&flat).unwrap();
    assert_eq!(fast.len(), flat.len(), "{label}: tuple count");
    for (k, (a, b)) in fast.iter().zip(&flat).enumerate() {
        assert_eq!(bits(a), bits(b), "{label}: tuple {k}: {a:?} vs {b:?}");
    }
}

/// Every `m` from 1 to 300, each sign of sums in turn.
#[test]
fn tournament_merge_is_bit_identical_to_the_flat_scan() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for m in 1..=300 {
        let sums = [Sums::Positive, Sums::Negative, Sums::Mixed][m % 3];
        let case = random_case(&mut rng, m, sums);
        check(&case, &format!("m = {m}, {sums:?}"));
    }
}

/// Many small cases per sign: a wrong start value or tie rule shows within
/// a few dozen rounds.
#[test]
fn random_float_weight_rounds_agree() {
    let mut rng = Rng(42);
    for round in 0..120 {
        let m = 1 + rng.below(12);
        let sums = [Sums::Positive, Sums::Negative, Sums::Mixed][round % 3];
        let case = random_case(&mut rng, m, sums);
        check(&case, &format!("round {round}, m = {m}, {sums:?}"));
    }
}

/// Slab-files that are all empty still emit one tuple per spanning event y.
#[test]
fn only_spanning_events() {
    let slabs: Vec<Interval> = (0..5)
        .map(|i| Interval::new(i as f64, i as f64 + 1.0))
        .collect();
    let mut spans: Vec<SpanEvent> = [
        SpanEvent::pair(0.0, 2.0, 0.3, 1, 3),
        SpanEvent::pair(0.0, 1.0, 0.7, 0, 4),
        SpanEvent::pair(1.0, 3.0, 0.1, 4, 9),
    ]
    .concat();
    spans.sort_by(|a, b| a.y.total_cmp(&b.y));
    let case = Case {
        slabs,
        tuples: vec![Vec::new(); 5],
        spans,
    };
    check(&case, "spans only");
}
