//! External multiway merge sort.
//!
//! The classic textbook algorithm the paper relies on for its preprocessing
//! step ("the sorting can be done in `O((N/B) log_{M/B}(N/B))` I/Os using the
//! textbook-algorithm external sort"):
//!
//! 1. **Run formation** — read `M` records at a time, sort them in memory and
//!    write each sorted run back to disk.
//! 2. **Merge passes** — repeatedly merge up to `m = Θ(M/B)` runs at a time
//!    (one input block per run plus one output block) until a single run
//!    remains.

use std::cmp::Ordering;

use crate::{EmContext, Record, Result, TupleFile};

/// Sorts `file` with the given comparator and returns a new sorted file.
/// The input file is left untouched; all intermediate runs are deleted.
pub fn external_sort<T, F>(ctx: &EmContext, file: &TupleFile<T>, mut cmp: F) -> Result<TupleFile<T>>
where
    T: Record,
    F: FnMut(&T, &T) -> Ordering,
{
    let mem_records = ctx.config().mem_records::<T>().max(2);
    let fanout = ctx.config().fanout();

    // ---- Pass 0: run formation ----------------------------------------------
    let mut runs: Vec<TupleFile<T>> = Vec::new();
    {
        let mut reader = ctx.open_reader(file);
        loop {
            let mut chunk: Vec<T> = Vec::with_capacity(mem_records.min(file.len() as usize + 1));
            while chunk.len() < mem_records {
                match reader.next_record()? {
                    Some(rec) => chunk.push(rec),
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            chunk.sort_by(&mut cmp);
            let mut w = ctx.create_writer::<T>()?;
            for r in &chunk {
                w.push(r)?;
            }
            runs.push(w.finish()?);
        }
    }

    if runs.is_empty() {
        // Empty input: return an empty file.
        return ctx.create_writer::<T>()?.finish();
    }

    // ---- Merge passes --------------------------------------------------------
    while runs.len() > 1 {
        let mut next_runs: Vec<TupleFile<T>> = Vec::new();
        for group in runs.chunks(fanout) {
            let merged = merge_group(ctx, group, &mut cmp)?;
            next_runs.push(merged);
        }
        // Delete the runs of the finished pass.
        for run in runs {
            ctx.delete_file(run)?;
        }
        runs = next_runs;
    }

    Ok(runs.pop().expect("at least one run"))
}

/// A sort key with a total order: `f64` keys compare with
/// [`f64::total_cmp`] (−NaN < −∞ < −0.0 < +0.0 < +∞ < +NaN), like every
/// in-memory sort of the workspace; integer keys compare with [`Ord`].
pub trait SortKey {
    /// Compares two keys.
    fn key_cmp(&self, other: &Self) -> Ordering;
}

impl SortKey for f64 {
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl SortKey for u32 {
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

impl SortKey for u64 {
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

/// Sorts `file` by a key extracted from each record, in the key's total
/// order ([`SortKey`]): `f64` keys come out as `sort_by(f64::total_cmp)`
/// would order them.
pub fn external_sort_by_key<T, K, F>(
    ctx: &EmContext,
    file: &TupleFile<T>,
    mut key: F,
) -> Result<TupleFile<T>>
where
    T: Record,
    K: SortKey,
    F: FnMut(&T) -> K,
{
    external_sort(ctx, file, |a, b| key(a).key_cmp(&key(b)))
}

/// Merges a group of sorted runs into a single sorted run.
fn merge_group<T, F>(ctx: &EmContext, group: &[TupleFile<T>], cmp: &mut F) -> Result<TupleFile<T>>
where
    T: Record,
    F: FnMut(&T, &T) -> Ordering,
{
    let mut readers: Vec<_> = group.iter().map(|run| ctx.open_reader(run)).collect();
    let mut writer = ctx.create_writer::<T>()?;
    loop {
        // Find the reader whose head record is smallest.  A linear scan over
        // the (at most `fanout`) readers is simple and fast enough; the I/O
        // cost is unaffected.
        let mut best: Option<usize> = None;
        let mut best_head: Option<T> = None;
        for (i, reader) in readers.iter_mut().enumerate() {
            let head = match reader.peek()? {
                Some(h) => h.clone(),
                None => continue,
            };
            let better = match &best_head {
                None => true,
                Some(bh) => cmp(&head, bh) == Ordering::Less,
            };
            if better {
                best = Some(i);
                best_head = Some(head);
            }
        }
        match best {
            None => break,
            Some(i) => {
                let rec = readers[i].next_record()?.expect("peeked record");
                writer.push(&rec)?;
            }
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmConfig;

    fn small_ctx() -> EmContext {
        // 64-byte blocks (8 u64 records), 4-block buffer (32 records in memory).
        EmContext::new(EmConfig::new(64, 256).unwrap())
    }

    #[test]
    fn sorts_reverse_sequence() {
        let ctx = small_ctx();
        let data: Vec<u64> = (0..500).rev().collect();
        let file = ctx.write_all(&data).unwrap();
        let sorted = external_sort(&ctx, &file, |a, b| a.cmp(b)).unwrap();
        let out = ctx.read_all(&sorted).unwrap();
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        assert_eq!(sorted.len(), 500);
    }

    #[test]
    fn sorts_with_duplicates_and_custom_order() {
        let ctx = small_ctx();
        let data: Vec<u64> = vec![5, 3, 3, 9, 1, 1, 1, 9, 0, 42, 42, 7];
        let file = ctx.write_all(&data).unwrap();
        let descending = external_sort(&ctx, &file, |a, b| b.cmp(a)).unwrap();
        let out = ctx.read_all(&descending).unwrap();
        let mut expected = data.clone();
        expected.sort_by(|a, b| b.cmp(a));
        assert_eq!(out, expected);
    }

    #[test]
    fn sort_by_float_key() {
        let ctx = small_ctx();
        let data: Vec<f64> = vec![3.5, -1.0, 2.25, -7.5, 0.0, 100.0, -0.5];
        let file = ctx.write_all(&data).unwrap();
        let sorted = external_sort_by_key(&ctx, &file, |x| *x).unwrap();
        let out = ctx.read_all(&sorted).unwrap();
        let mut expected = data.clone();
        expected.sort_unstable_by(f64::total_cmp);
        assert_eq!(out, expected);
    }

    #[test]
    fn float_keys_sort_in_total_order_across_runs_and_merge_passes() {
        // 8 keys per block, 2-block buffer: 16-key runs merged two at a time.
        let ctx = EmContext::new(EmConfig::new(64, 128).unwrap());
        let specials = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<f64> = (0..300)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if i % 3 == 0 {
                    specials[(state >> 33) as usize % specials.len()]
                } else {
                    ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 100.0
                }
            })
            .collect();
        let file = ctx.write_all(&data).unwrap();
        let sorted = external_sort_by_key(&ctx, &file, |x| *x).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut expected = data.clone();
        expected.sort_by(f64::total_cmp);
        assert_eq!(bits(&ctx.read_all(&sorted).unwrap()), bits(&expected));
    }

    #[test]
    fn empty_and_single_record_inputs() {
        let ctx = small_ctx();
        let empty = ctx.write_all::<u64>(&[]).unwrap();
        let sorted = external_sort(&ctx, &empty, |a, b| a.cmp(b)).unwrap();
        assert!(sorted.is_empty());

        let single = ctx.write_all(&[99u64]).unwrap();
        let sorted = external_sort(&ctx, &single, |a, b| a.cmp(b)).unwrap();
        assert_eq!(ctx.read_all(&sorted).unwrap(), vec![99]);
    }

    #[test]
    fn input_already_sorted_is_preserved() {
        let ctx = small_ctx();
        let data: Vec<u64> = (0..200).collect();
        let file = ctx.write_all(&data).unwrap();
        let sorted = external_sort(&ctx, &file, |a, b| a.cmp(b)).unwrap();
        assert_eq!(ctx.read_all(&sorted).unwrap(), data);
    }

    #[test]
    fn multi_pass_merge_is_exercised() {
        // Tiny buffer: 2-block pool, fanout 2, 16 records in memory -> a
        // 1000-record input needs ceil(log2(1000/16)) = 6 merge passes.
        let ctx = EmContext::new(EmConfig::new(64, 128).unwrap());
        let mut data: Vec<u64> = (0..1000).collect();
        // Deterministic shuffle.
        let mut state = 0x12345678u64;
        for i in (1..data.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            data.swap(i, j);
        }
        let file = ctx.write_all(&data).unwrap();
        ctx.reset_stats();
        let sorted = external_sort(&ctx, &file, |a, b| a.cmp(b)).unwrap();
        let out = ctx.read_all(&sorted).unwrap();
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        // Sorting must cost noticeably more than a single scan but stay within
        // a small multiple of N/B per pass.
        let blocks = 1000 / 8;
        let stats = ctx.stats();
        assert!(stats.total() as usize > blocks, "stats = {stats}");
        assert!(
            (stats.total() as usize) < blocks * 40,
            "stats = {stats} should stay near (passes * 2 * N/B)"
        );
    }

    #[test]
    fn io_cost_scales_with_runs_not_quadratically() {
        let ctx = small_ctx();
        let data: Vec<u64> = (0..2048).rev().collect();
        let file = ctx.write_all(&data).unwrap();
        ctx.reset_stats();
        let _sorted = external_sort(&ctx, &file, |a, b| a.cmp(b)).unwrap();
        let blocks = 2048 / 8; // 256 blocks
        let total = ctx.stats().total() as usize;
        // 32 records fit in memory -> 64 runs; fanout 2 -> ~6 merge passes.
        // Each pass reads and writes ~256 blocks: bound by ~2*256*(passes+2).
        assert!(total < 2 * blocks * 10, "total = {total}");
        assert!(total > 2 * blocks, "total = {total}");
    }
}
