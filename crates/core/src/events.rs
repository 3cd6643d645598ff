//! The dynamic-data event model and its **one** canonical application
//! semantics.
//!
//! Two engines in this workspace consume streams of timestamped
//! [`Event`]s: the in-memory incremental engine (`maxrs-stream`'s
//! `StreamEngine`) and the dynamic dataset of the external-memory path
//! ([`DeltaDataset`](crate::DeltaDataset)).  Both must agree — exactly — on
//! the fiddly rules that make replays deterministic:
//!
//! * the clock is the running **maximum** of all seen timestamps (an
//!   out-of-order event is processed *at* the current clock, never turning
//!   time backwards),
//! * a non-finite timestamp is a checked error raised **before** the clock
//!   advances,
//! * sliding-window expiry removes an object once `now >= expires_at`
//!   (lifetime `[t, t + window)`), processed while advancing the clock and
//!   **before** the event's own effect,
//! * an insert validates its payload (finite coordinates, finite
//!   non-negative weight), then checks for a duplicate id
//!   ([`EventError::DuplicateId`] — the clock advance and its expirations
//!   stick even when the insert itself errors), then normalizes a `-0.0`
//!   weight to `+0.0` so every value has one bit pattern,
//! * deleting an id that is not alive is a **no-op** reported through
//!   [`EventOutcome::applied`], so window-agnostic producers can replay one
//!   stream into windowed and unwindowed consumers.
//!
//! [`LiveSet`] owns those rules.  Engines either call
//! [`LiveSet::apply`] wholesale or compose the split steps
//! ([`check_insert`](LiveSet::check_insert) /
//! [`commit_insert`](LiveSet::commit_insert)) when they need to interpose an
//! engine-specific check between validation and commitment — the stream
//! engine's grid-range guard does exactly that.  A cross-engine equivalence
//! test replays one event sequence into both engines and asserts identical
//! survivor sets, so the semantics cannot drift apart again.

use std::collections::{BTreeMap, HashMap};

use maxrs_geometry::WeightedPoint;

/// One record of a dynamic-data stream.
///
/// Every event carries a timestamp `at` in the stream's logical time unit.
/// A consumer's clock is the running maximum of all seen timestamps, so an
/// out-of-order event is processed *at* the current clock rather than turning
/// time backwards (sliding-window expiry is monotone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A new object enters the dataset.
    Insert {
        /// Caller-chosen identifier, used by later deletes.  Reusing the id
        /// of a live object is an error; reusing the id of a deleted or
        /// expired object is fine.
        id: u64,
        /// The object itself (location + non-negative weight).
        object: WeightedPoint,
        /// Event timestamp.
        at: f64,
    },
    /// An object leaves the dataset.  Deleting an id that is not alive
    /// (never inserted, already deleted, or already expired by the sliding
    /// window) is a no-op, so window-agnostic producers can replay the same
    /// stream into windowed and unwindowed engines.
    Delete {
        /// Identifier of the object to remove.
        id: u64,
        /// Event timestamp.
        at: f64,
    },
    /// A pure clock advance: no object changes hands, but a sliding window
    /// may expire objects up to this timestamp.
    Tick {
        /// Event timestamp.
        at: f64,
    },
}

impl Event {
    /// Convenience constructor for an insert.
    pub fn insert(id: u64, x: f64, y: f64, weight: f64, at: f64) -> Self {
        Event::Insert {
            id,
            object: WeightedPoint::at(x, y, weight),
            at,
        }
    }

    /// Convenience constructor for a delete.
    pub fn delete(id: u64, at: f64) -> Self {
        Event::Delete { id, at }
    }

    /// Convenience constructor for a tick.
    pub fn tick(at: f64) -> Self {
        Event::Tick { at }
    }

    /// The event's timestamp.
    pub fn at(&self) -> f64 {
        match *self {
            Event::Insert { at, .. } | Event::Delete { at, .. } | Event::Tick { at } => at,
        }
    }

    /// A short human-readable name ("insert", "delete", "tick").
    pub fn name(&self) -> &'static str {
        match self {
            Event::Insert { .. } => "insert",
            Event::Delete { .. } => "delete",
            Event::Tick { .. } => "tick",
        }
    }
}

/// What applying one [`Event`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventOutcome {
    /// `false` only for a delete whose id was not alive (a documented no-op).
    pub applied: bool,
    /// Objects expired by the sliding window while advancing to the event's
    /// timestamp.
    pub expired: usize,
}

/// Errors of the canonical event semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum EventError {
    /// An event or configuration parameter is invalid (non-finite timestamp
    /// or coordinate, negative weight, non-positive window, …).
    InvalidParameter(String),
    /// An insert reused the id of an object that is still alive.
    DuplicateId(u64),
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            EventError::DuplicateId(id) => {
                write!(f, "insert reuses id {id} of a live object")
            }
        }
    }
}

impl std::error::Error for EventError {}

/// Validates one inserted object (finite coordinates, finite non-negative
/// weight) so no NaN can enter an engine's ordered indexes.
pub fn validate_object(x: f64, y: f64, weight: f64) -> Result<(), EventError> {
    if !(x.is_finite() && y.is_finite()) {
        return Err(EventError::InvalidParameter(format!(
            "object coordinates must be finite, got ({x}, {y})"
        )));
    }
    if !(weight.is_finite() && weight >= 0.0) {
        return Err(EventError::InvalidParameter(format!(
            "object weight must be finite and non-negative, got {weight}"
        )));
    }
    Ok(())
}

/// An `(id, object)` pair a [`LiveSet`] reports for an object leaving the
/// set: expired by the window or removed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveRecord {
    /// The object's caller-chosen identifier.
    pub id: u64,
    /// The object as stored (insert weights normalized, see
    /// [`LiveSet::check_insert`]).
    pub object: WeightedPoint,
}

#[derive(Debug, Clone, Copy)]
struct LiveEntry {
    object: WeightedPoint,
    /// Insertion sequence number; [`LiveSet::survivors`] reports objects in
    /// this order so replays see the same slice a batch caller would build.
    seq: u64,
    expires_at: Option<f64>,
}

/// Maps a non-`NaN` `f64` to a `u64` whose unsigned order matches the float
/// order (the `total_cmp` bit trick, `-0.0` immediately below `+0.0`) — the
/// one float-key encoding of the workspace: the expiry queue here, the
/// plane sweep's sort keys and the stream engine's breakpoint multisets and
/// candidate index.
pub fn total_order_bits(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The canonical live-object set of the event model: ids, the monotone
/// stream clock and sliding-window expiry, with **exactly** the
/// duplicate-insert / unknown-delete / window-clamp rules documented on
/// [this module](self).
///
/// ```
/// use maxrs_core::{Event, LiveSet};
///
/// let mut live = LiveSet::new(Some(10.0)).unwrap();
/// live.apply(&Event::insert(1, 0.0, 0.0, 2.0, 0.0)).unwrap();
/// live.apply(&Event::insert(2, 5.0, 5.0, 1.0, 3.0)).unwrap();
///
/// // Unknown deletes are no-ops, reported through `applied`.
/// let outcome = live.apply(&Event::delete(99, 4.0)).unwrap();
/// assert!(!outcome.applied);
///
/// // At t = 10 the first object's lifetime [0, 10) is over.
/// let outcome = live.apply(&Event::tick(10.0)).unwrap();
/// assert_eq!(outcome.expired, 1);
/// assert!(!live.contains(1) && live.contains(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LiveSet {
    /// Sliding-window length (`None`: objects live until deleted).
    window: Option<f64>,
    /// The stream clock: running maximum of all seen timestamps.
    now: f64,
    entries: HashMap<u64, LiveEntry>,
    /// Pending expirations ordered by (expiry time, id); values are the raw
    /// expiry timestamps.
    expiry: BTreeMap<(u64, u64), f64>,
    /// Next insertion sequence number.
    seq: u64,
}

impl LiveSet {
    /// Creates an empty set, with or without a sliding window.  A window
    /// must be positive and finite.
    pub fn new(window: Option<f64>) -> Result<Self, EventError> {
        if let Some(w) = window {
            if !(w > 0.0 && w.is_finite()) {
                return Err(EventError::InvalidParameter(format!(
                    "sliding window must be positive and finite, got {w}"
                )));
            }
        }
        Ok(LiveSet {
            window,
            now: f64::NEG_INFINITY,
            ..LiveSet::default()
        })
    }

    /// The configured sliding-window length.
    pub fn window(&self) -> Option<f64> {
        self.window
    }

    /// The stream clock (`-∞` before the first event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of live (inserted, not deleted, not expired) objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no object is alive.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when `id` refers to a live object.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// The live object stored under `id`.
    pub fn get(&self, id: u64) -> Option<&WeightedPoint> {
        self.entries.get(&id).map(|e| &e.object)
    }

    /// The live objects in insertion order — exactly the slice a batch
    /// engine would be given to answer the same question.
    pub fn survivors(&self) -> Vec<WeightedPoint> {
        let mut with_seq: Vec<(u64, WeightedPoint)> =
            self.entries.values().map(|e| (e.seq, e.object)).collect();
        // Sequence numbers are unique, so no order between equal keys is lost.
        with_seq.sort_unstable_by_key(|&(seq, _)| seq);
        with_seq.into_iter().map(|(_, o)| o).collect()
    }

    /// Advances the clock to `at` (never backwards), expiring every windowed
    /// object whose lifetime ended; returns the expired objects in expiry
    /// order.  A non-finite timestamp is an error raised **before** the
    /// clock moves.
    pub fn advance(&mut self, at: f64) -> Result<Vec<LiveRecord>, EventError> {
        if !at.is_finite() {
            return Err(EventError::InvalidParameter(format!(
                "event timestamp must be finite, got {at}"
            )));
        }
        if at > self.now {
            self.now = at;
        }
        let mut expired = Vec::new();
        while let Some((&(_, id), &exp)) = self.expiry.first_key_value() {
            // An object is alive while `now < expires_at`.
            if exp > self.now {
                break;
            }
            let removed = self.remove(id).expect("expiry queue references live ids");
            expired.push(removed);
        }
        Ok(expired)
    }

    /// The validation half of an insert: checks the payload (finite
    /// coordinates, finite non-negative weight), rejects a duplicate live
    /// id, and returns the object with a `-0.0` weight normalized to `+0.0`
    /// (one bit pattern per value, so downstream orderings of raw weight
    /// bits are sound).  **Does not mutate the set** — callers interpose
    /// their own checks and then [`commit_insert`](LiveSet::commit_insert)
    /// the returned object, or use [`insert`](LiveSet::insert) for both
    /// halves at once.
    pub fn check_insert(
        &self,
        id: u64,
        object: WeightedPoint,
    ) -> Result<WeightedPoint, EventError> {
        validate_object(object.point.x, object.point.y, object.weight)?;
        if self.entries.contains_key(&id) {
            return Err(EventError::DuplicateId(id));
        }
        Ok(WeightedPoint {
            point: object.point,
            weight: object.weight + 0.0,
        })
    }

    /// The mutation half of an insert: stores an object
    /// [`check_insert`](LiveSet::check_insert) already vetted, assigning its
    /// sequence number and window expiry (`now + window`).
    pub fn commit_insert(&mut self, id: u64, object: WeightedPoint) {
        debug_assert!(
            !self.entries.contains_key(&id),
            "commit_insert requires a prior check_insert"
        );
        let seq = self.seq;
        self.seq += 1;
        let expires_at = self.window.map(|w| self.now + w);
        if let Some(exp) = expires_at {
            self.expiry.insert((total_order_bits(exp), id), exp);
        }
        self.entries.insert(
            id,
            LiveEntry {
                object,
                seq,
                expires_at,
            },
        );
    }

    /// Validates and stores an object:
    /// [`check_insert`](LiveSet::check_insert) +
    /// [`commit_insert`](LiveSet::commit_insert).  Returns the normalized
    /// object as stored.
    pub fn insert(&mut self, id: u64, object: WeightedPoint) -> Result<WeightedPoint, EventError> {
        let object = self.check_insert(id, object)?;
        self.commit_insert(id, object);
        Ok(object)
    }

    /// Removes a live object, returning it; `None` when `id` is not alive
    /// (the documented delete no-op).
    pub fn remove(&mut self, id: u64) -> Option<LiveRecord> {
        let entry = self.entries.remove(&id)?;
        if let Some(exp) = entry.expires_at {
            self.expiry.remove(&(total_order_bits(exp), id));
        }
        Some(LiveRecord {
            id,
            object: entry.object,
        })
    }

    /// Applies one event under the canonical semantics: the timestamp check,
    /// the clock advance with its expirations, then the event's own effect.
    /// Errors leave the set unchanged **except** for the clock advance (and
    /// any expirations it triggered) — exactly the contract engines must
    /// share.
    pub fn apply(&mut self, event: &Event) -> Result<EventOutcome, EventError> {
        let expired = self.advance(event.at())?.len();
        let applied = match *event {
            Event::Insert { id, object, .. } => {
                self.insert(id, object)?;
                true
            }
            Event::Delete { id, .. } => self.remove(id).is_some(),
            Event::Tick { .. } => true,
        };
        Ok(EventOutcome { applied, expired })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_bits_orders_like_f64() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            3.75,
            1e300,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
        // -0.0 and +0.0 are distinct keys, adjacent, but equal floats.
        assert_eq!(total_order_bits(-0.0) + 1, total_order_bits(0.0));
    }

    #[test]
    fn event_constructors_and_accessors() {
        let e = Event::insert(3, 1.0, 2.0, 4.0, 10.0);
        assert_eq!(e.at(), 10.0);
        assert_eq!(e.name(), "insert");
        if let Event::Insert { id, object, .. } = e {
            assert_eq!(id, 3);
            assert_eq!(object.weight, 4.0);
        } else {
            panic!("not an insert");
        }
        assert_eq!(Event::delete(3, 11.0).name(), "delete");
        assert_eq!(Event::tick(12.0).at(), 12.0);
        assert_eq!(Event::tick(12.0).name(), "tick");
    }

    #[test]
    fn object_validation() {
        assert!(validate_object(1.0, 2.0, 0.0).is_ok());
        assert!(validate_object(f64::NAN, 2.0, 1.0).is_err());
        assert!(validate_object(1.0, f64::INFINITY, 1.0).is_err());
        assert!(validate_object(1.0, 2.0, -1.0).is_err());
        assert!(validate_object(1.0, 2.0, f64::NAN).is_err());
    }

    #[test]
    fn duplicate_insert_errors_after_the_clock_advance() {
        let mut live = LiveSet::new(Some(5.0)).unwrap();
        live.apply(&Event::insert(1, 0.0, 0.0, 1.0, 0.0)).unwrap();
        // The duplicate's timestamp still advances the clock and expires the
        // original before the duplicate check can even see it: the insert
        // then SUCCEEDS — dup-checking happens after expiry, by design.
        let outcome = live.apply(&Event::insert(1, 1.0, 1.0, 1.0, 10.0)).unwrap();
        assert_eq!(outcome.expired, 1);
        assert_eq!(live.get(1).unwrap().point.x, 1.0);
        // A true duplicate (both alive) errors, and the clock still sticks.
        let err = live.apply(&Event::insert(1, 2.0, 2.0, 1.0, 12.0));
        assert_eq!(err, Err(EventError::DuplicateId(1)));
        assert_eq!(live.now(), 12.0);
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn unknown_delete_is_a_noop() {
        let mut live = LiveSet::new(None).unwrap();
        let outcome = live.apply(&Event::delete(7, 0.0)).unwrap();
        assert!(!outcome.applied);
        assert!(live.is_empty());
    }

    #[test]
    fn clock_is_monotone_and_windows_clamp() {
        let mut live = LiveSet::new(Some(5.0)).unwrap();
        live.apply(&Event::insert(1, 0.0, 0.0, 1.0, 10.0)).unwrap();
        assert_eq!(live.now(), 10.0);
        // Out-of-order: processed at the clamped clock, so the window starts
        // at 10, not 4.
        live.apply(&Event::insert(2, 1.0, 1.0, 1.0, 4.0)).unwrap();
        assert_eq!(live.now(), 10.0);
        live.apply(&Event::tick(14.9)).unwrap();
        assert_eq!(live.len(), 2);
        let outcome = live.apply(&Event::tick(15.0)).unwrap();
        assert_eq!(outcome.expired, 2);
        assert!(live.is_empty());
    }

    #[test]
    fn non_finite_timestamps_are_rejected_before_the_clock_moves() {
        let mut live = LiveSet::new(None).unwrap();
        live.apply(&Event::tick(3.0)).unwrap();
        assert!(live.apply(&Event::tick(f64::INFINITY)).is_err());
        assert!(live.apply(&Event::tick(f64::NAN)).is_err());
        assert_eq!(live.now(), 3.0);
    }

    #[test]
    fn negative_zero_weights_are_normalized() {
        let mut live = LiveSet::new(None).unwrap();
        let stored = live
            .insert(
                1,
                WeightedPoint {
                    point: maxrs_geometry::Point::new(0.0, 0.0),
                    weight: -0.0,
                },
            )
            .unwrap();
        assert_eq!(stored.weight.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn survivors_come_back_in_insertion_order() {
        let mut live = LiveSet::new(None).unwrap();
        for (i, x) in [5.0, 1.0, 9.0].iter().enumerate() {
            live.apply(&Event::insert(i as u64, *x, 0.0, 1.0, i as f64))
                .unwrap();
        }
        live.apply(&Event::delete(1, 3.0)).unwrap();
        let xs: Vec<f64> = live.survivors().iter().map(|o| o.point.x).collect();
        assert_eq!(xs, vec![5.0, 9.0]);
        assert_eq!(live.len(), 2);
        assert_eq!(live.get(0).unwrap().point.x, 5.0);
        assert!(live.get(1).is_none());
    }

    #[test]
    fn invalid_window_is_rejected() {
        assert!(LiveSet::new(Some(0.0)).is_err());
        assert!(LiveSet::new(Some(f64::NAN)).is_err());
        assert!(LiveSet::new(Some(f64::INFINITY)).is_err());
        assert!(LiveSet::new(Some(1.0)).is_ok());
    }

    #[test]
    fn expired_ids_can_be_reused() {
        let mut live = LiveSet::new(Some(2.0)).unwrap();
        live.apply(&Event::insert(1, 0.0, 0.0, 1.0, 0.0)).unwrap();
        live.apply(&Event::tick(5.0)).unwrap();
        assert!(live.apply(&Event::insert(1, 1.0, 1.0, 1.0, 6.0)).is_ok());
        assert_eq!(live.len(), 1);
    }
}
