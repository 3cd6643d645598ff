//! [`MicroBatcher`]: the deterministic core of dynamic micro-batching.
//!
//! Concurrently submitted queries accumulate in a pending micro-batch that is
//! flushed as soon as **either** it reaches the size threshold **or** its
//! *oldest* entry has waited one full window — whichever comes first.  The
//! size rule keeps batches bounded under load; the window rule bounds the
//! latency a lone query pays waiting for strangers to share a sweep with.
//!
//! The batcher is a pure state machine over an explicit clock (monotonic
//! nanoseconds supplied by the caller): no threads, no sleeping, no
//! `Instant::now()` inside.  The threaded front-end
//! ([`MaxRsServer`](crate::MaxRsServer)) drives it with the real clock and a
//! condition variable armed from [`next_deadline`](MicroBatcher::next_deadline);
//! the unit tests below drive it with a fake clock, so every timing edge case
//! (empty flush tick, burst exactly at threshold, single straggler,
//! zero-length window) is tested deterministically, without sleeps.
//!
//! Ordering contract: entries leave in exactly the order they were submitted
//! — concatenating the flushed batches reproduces the submission sequence,
//! with nothing lost, duplicated or reordered (the scheduler property tests
//! assert this over random submission timings and configurations).

/// Accumulates submitted entries into micro-batches under a
/// time-or-size flush rule.  See the module docs for the contract.
#[derive(Debug)]
pub struct MicroBatcher<T> {
    window_nanos: u64,
    max_batch: usize,
    pending: Vec<T>,
    /// Clock reading at the submission of the oldest pending entry; `None`
    /// when `pending` is empty.
    oldest_at: Option<u64>,
}

impl<T> MicroBatcher<T> {
    /// Creates a batcher flushing at `max_batch` entries or `window_nanos`
    /// nanoseconds after the oldest pending submission, whichever comes
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero (a batch that can never fill).
    pub fn new(window_nanos: u64, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        MicroBatcher {
            window_nanos,
            max_batch,
            pending: Vec::new(),
            oldest_at: None,
        }
    }

    /// `true` when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Submits one entry at clock reading `now`, returning the full batch if
    /// this submission triggered a flush (size threshold reached, or a
    /// zero-length window making the batcher pass-through).
    pub fn submit(&mut self, entry: T, now: u64) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            self.oldest_at = Some(now);
        }
        self.pending.push(entry);
        if self.pending.len() >= self.max_batch || self.window_nanos == 0 {
            return self.take();
        }
        None
    }

    /// Flush tick: returns the pending batch if the oldest entry has waited
    /// at least one window by clock reading `now`, `None` otherwise (nothing
    /// pending, or the window has not elapsed yet).  The flush instant is
    /// exactly [`next_deadline`](MicroBatcher::next_deadline) — including its
    /// saturation at `u64::MAX` for windows that would overflow the clock.
    pub fn poll(&mut self, now: u64) -> Option<Vec<T>> {
        match self.oldest_at {
            Some(oldest) if now >= oldest.saturating_add(self.window_nanos) => self.take(),
            _ => None,
        }
    }

    /// The clock reading at which [`poll`](MicroBatcher::poll) will flush the
    /// current pending batch, or `None` when nothing is pending.  The
    /// threaded driver arms its wait-with-timeout from this.
    pub fn next_deadline(&self) -> Option<u64> {
        self.oldest_at
            .map(|oldest| oldest.saturating_add(self.window_nanos))
    }

    /// Unconditionally flushes whatever is pending (graceful drain on
    /// shutdown).  Returns `None` when nothing was pending.
    pub fn drain(&mut self) -> Option<Vec<T>> {
        self.take()
    }

    fn take(&mut self) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            return None;
        }
        self.oldest_at = None;
        Some(std::mem::take(&mut self.pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty flush tick is a no-op: polling with nothing pending returns
    /// `None` at any clock reading and arms no deadline.
    #[test]
    fn empty_flush_tick_is_a_no_op() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1_000, 4);
        assert!(b.is_empty());
        assert_eq!(b.poll(0), None);
        assert_eq!(b.poll(u64::MAX), None);
        assert_eq!(b.next_deadline(), None);
        assert_eq!(b.drain(), None);
    }

    /// A burst of exactly `max_batch` submissions flushes exactly once, on
    /// the last submission, with every entry in submission order — and the
    /// batcher is clean afterwards (no residue, no stale deadline).
    #[test]
    fn burst_exactly_at_threshold_flushes_once() {
        let mut b = MicroBatcher::new(1_000, 4);
        assert_eq!(b.submit(0, 10), None);
        assert_eq!(b.submit(1, 11), None);
        assert_eq!(b.submit(2, 12), None);
        assert_eq!(b.submit(3, 13), Some(vec![0, 1, 2, 3]));
        assert!(b.is_empty());
        assert_eq!(b.next_deadline(), None);
        // The *next* submission starts a fresh batch with a fresh deadline.
        assert_eq!(b.submit(4, 20), None);
        assert_eq!(b.next_deadline(), Some(1_020));
    }

    /// A single straggler query flushes alone once its window elapses — not
    /// one tick earlier — and the deadline is measured from the *oldest*
    /// entry, not refreshed by later arrivals.
    #[test]
    fn single_straggler_flushes_at_its_window() {
        let mut b = MicroBatcher::new(1_000, 16);
        assert_eq!(b.submit(7, 100), None);
        assert_eq!(b.next_deadline(), Some(1_100));
        assert_eq!(b.poll(1_099), None, "window not elapsed yet");
        assert_eq!(b.poll(1_100), Some(vec![7]));
        assert!(b.is_empty());

        // Later arrivals do not push the deadline out.
        assert_eq!(b.submit(8, 2_000), None);
        assert_eq!(b.submit(9, 2_900), None);
        assert_eq!(b.next_deadline(), Some(3_000));
        assert_eq!(b.poll(3_000), Some(vec![8, 9]));
    }

    /// A zero-length window makes the batcher pass-through: every submission
    /// flushes immediately (batch of one when nothing else is pending).
    #[test]
    fn zero_length_window_is_pass_through() {
        let mut b = MicroBatcher::new(0, 16);
        assert_eq!(b.submit(1, 5), Some(vec![1]));
        assert_eq!(b.submit(2, 5), Some(vec![2]));
        assert!(b.is_empty());
        assert_eq!(b.next_deadline(), None);
    }

    /// Drain flushes whatever is pending regardless of clock or thresholds
    /// (the graceful-shutdown path).
    #[test]
    fn drain_flushes_pending_unconditionally() {
        let mut b = MicroBatcher::new(1_000_000, 16);
        b.submit('a', 1);
        b.submit('b', 2);
        assert_eq!(b.drain(), Some(vec!['a', 'b']));
        assert_eq!(b.drain(), None);
    }

    /// Oversized bursts split into `max_batch`-sized flushes with order
    /// preserved across the batch boundary.
    #[test]
    fn bursts_split_in_submission_order() {
        let mut b = MicroBatcher::new(1_000, 2);
        let mut out = Vec::new();
        for i in 0..5 {
            if let Some(batch) = b.submit(i, i as u64) {
                assert_eq!(batch.len(), 2);
                out.extend(batch);
            }
        }
        out.extend(b.drain().unwrap());
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    /// A clock that jumps far past the deadline (or saturates) still flushes
    /// exactly the pending entries.
    #[test]
    fn late_and_saturating_clocks_flush() {
        let mut b = MicroBatcher::new(1_000, 16);
        b.submit(1, u64::MAX - 10);
        // The deadline saturates instead of wrapping.
        assert_eq!(b.next_deadline(), Some(u64::MAX));
        assert_eq!(b.poll(u64::MAX - 11), None);
        assert_eq!(b.poll(u64::MAX), Some(vec![1]));
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_panics() {
        let _ = MicroBatcher::<u32>::new(1_000, 0);
    }
}
