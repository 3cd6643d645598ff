//! Synthetic datasets: uniform and Gaussian distributions (Table 3), plus
//! reproducible insert/delete event streams for the streaming subsystem.

use maxrs_geometry::WeightedPoint;
use maxrs_stream::Event;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Side length of the default data space (`1M × 1M` in the paper).
pub const SPACE_EXTENT: f64 = 1_000_000.0;

/// `n` points uniformly distributed over `[0, extent]²`, all of weight 1.
pub fn uniform(n: usize, extent: f64, seed: u64) -> Vec<WeightedPoint> {
    assert!(extent > 0.0, "extent must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| WeightedPoint::unit(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
        .collect()
}

/// `n` points following a 2-D Gaussian centered in the space (σ = extent / 8),
/// clamped to `[0, extent]²`, all of weight 1.
///
/// The paper's "Gaussian distribution" datasets concentrate the objects around
/// the center of the space, which makes the rectangle-overlap probability (and
/// therefore the baselines' interval insertions) noticeably higher than in the
/// uniform case — the effect visible when comparing Figures 12(a) and 12(b).
pub fn gaussian(n: usize, extent: f64, seed: u64) -> Vec<WeightedPoint> {
    assert!(extent > 0.0, "extent must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let normal = Normal::new(extent / 2.0, extent / 8.0).expect("valid normal");
    (0..n)
        .map(|_| {
            let x: f64 = normal.sample(&mut rng).clamp(0.0, extent);
            let y: f64 = normal.sample(&mut rng).clamp(0.0, extent);
            WeightedPoint::unit(x, y)
        })
        .collect()
}

/// `n` points in three x-clusters of very unequal mass (60% / 30% / 10%),
/// each a tight Gaussian (σ = extent / 80) around centers at 15%, 50% and 85%
/// of the space, y uniform, all of weight 1.
///
/// Equal-*width* x-splits starve two of three partitions on this input;
/// quantile-based boundary selection (used by the cluster's shard split and
/// the slab partitioner) keeps per-partition counts balanced — which is
/// exactly what the balanced-split tests assert.
pub fn clustered(n: usize, extent: f64, seed: u64) -> Vec<WeightedPoint> {
    assert!(extent > 0.0, "extent must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let centers = [0.15 * extent, 0.50 * extent, 0.85 * extent];
    let normal = Normal::new(0.0, extent / 80.0).expect("valid normal");
    (0..n)
        .map(|_| {
            let roll: f64 = rng.gen();
            let center = if roll < 0.6 {
                centers[0]
            } else if roll < 0.9 {
                centers[1]
            } else {
                centers[2]
            };
            let x = (center + normal.sample(&mut rng)).clamp(0.0, extent);
            WeightedPoint::unit(x, rng.gen_range(0.0..extent))
        })
        .collect()
}

/// `n` points whose x follows a Zipf law with exponent `s` over 256 discrete
/// x-values spread across `[0, extent]`, y uniform, all of weight 1.
///
/// The hot ranks concentrate a large fraction of the points on a handful of
/// *exact* x-values — heavy duplicate mass, the worst case for quantile
/// boundary selection, since everything sharing an x must share a partition.
pub fn zipf_x(n: usize, extent: f64, s: f64, seed: u64) -> Vec<WeightedPoint> {
    assert!(extent > 0.0, "extent must be positive");
    assert!(s > 0.0 && s.is_finite(), "zipf exponent must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    const RANKS: usize = 256;
    // Inverse-CDF sampling over the (finite) rank distribution.
    let mut cdf = Vec::with_capacity(RANKS);
    let mut total = 0.0;
    for k in 1..=RANKS {
        total += 1.0 / (k as f64).powf(s);
        cdf.push(total);
    }
    let pitch = extent / RANKS as f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..total);
            let rank = cdf.partition_point(|&c| c <= u);
            // Rank r sits at a fixed grid x; hot ranks repeat their x exactly.
            let x = (rank as f64 + 0.5) * pitch;
            WeightedPoint::unit(x, rng.gen_range(0.0..extent))
        })
        .collect()
}

/// Shape of a generated event stream (see [`event_stream`]).
///
/// Defaults: 10k events over the paper's `1M × 1M` space, one time unit per
/// event, a quarter of the events deleting a live object, ticks sprinkled in,
/// victims drawn uniformly (no skew), integer weights `0..=3` (zeros
/// included) and one-in-four coordinates snapped to a coarse grid so the
/// stream exercises tie-heavy sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventStreamConfig {
    /// Total number of events to generate.
    pub events: usize,
    /// Side length of the coordinate space.
    pub extent: f64,
    /// Fraction of events that delete a live object (when one exists).
    pub delete_fraction: f64,
    /// Fraction of events that are pure clock ticks.
    pub tick_fraction: f64,
    /// How strongly deletes prefer the *oldest* live object: `0.0` picks
    /// victims uniformly, `1.0` always removes the oldest — emulating the
    /// FIFO churn a sliding window produces, without requiring one.
    pub window_skew: f64,
    /// Probability that a coordinate pair is snapped to a grid of pitch
    /// `extent / 100` (producing exact coordinate ties).
    pub snap_fraction: f64,
    /// Weights are drawn uniformly from the integers `0..=max_weight`
    /// (exactly representable, so incremental-vs-batch comparisons can be
    /// bit-for-bit; zero-weight objects are part of the mix).
    pub max_weight: u32,
    /// Mean time advance per event (timestamps are non-decreasing).
    pub mean_dt: f64,
}

impl Default for EventStreamConfig {
    fn default() -> Self {
        EventStreamConfig {
            events: 10_000,
            extent: SPACE_EXTENT,
            delete_fraction: 0.25,
            tick_fraction: 0.05,
            window_skew: 0.0,
            snap_fraction: 0.25,
            max_weight: 3,
            mean_dt: 1.0,
        }
    }
}

/// A reproducible insert/delete/tick sequence for the streaming engine,
/// shared by the incremental-correctness tests and the `stream` experiment
/// harness (same seed ⇒ same events, byte for byte).
///
/// Inserts carry fresh ids (the event index), deletes target live ids with
/// the configured [`window_skew`](EventStreamConfig::window_skew), and
/// timestamps advance by `mean_dt` scaled by a uniform factor in `[0, 2)`.
pub fn event_stream(cfg: &EventStreamConfig, seed: u64) -> Vec<Event> {
    assert!(cfg.extent > 0.0, "extent must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.delete_fraction)
            && (0.0..=1.0).contains(&cfg.tick_fraction)
            && (0.0..=1.0).contains(&cfg.window_skew)
            && (0.0..=1.0).contains(&cfg.snap_fraction),
        "fractions must lie in [0, 1]"
    );
    assert!(cfg.mean_dt >= 0.0, "mean_dt must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let snap_pitch = cfg.extent / 100.0;
    let mut events = Vec::with_capacity(cfg.events);
    let mut live: Vec<u64> = Vec::new(); // insertion order: index 0 is oldest
    let mut now = 0.0;
    for i in 0..cfg.events {
        now += cfg.mean_dt * rng.gen_range(0.0..2.0);
        let roll: f64 = rng.gen();
        if roll < cfg.tick_fraction {
            events.push(Event::tick(now));
        } else if roll < cfg.tick_fraction + cfg.delete_fraction && !live.is_empty() {
            // Oldest-first with probability `window_skew`, else uniform.
            let idx = if rng.gen_bool(cfg.window_skew) {
                0
            } else {
                rng.gen_range(0..live.len())
            };
            let victim = live.remove(idx);
            events.push(Event::delete(victim, now));
        } else {
            let (x, y) = if rng.gen_bool(cfg.snap_fraction) {
                let gx: u32 = rng.gen_range(0..=100);
                let gy: u32 = rng.gen_range(0..=100);
                (f64::from(gx) * snap_pitch, f64::from(gy) * snap_pitch)
            } else {
                (
                    rng.gen_range(0.0..cfg.extent),
                    rng.gen_range(0.0..cfg.extent),
                )
            };
            let weight = f64::from(rng.gen_range(0..=cfg.max_weight));
            let id = i as u64;
            events.push(Event::insert(id, x, y, weight, now));
            live.push(id);
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_properties() {
        let pts = uniform(2000, 1000.0, 7);
        assert_eq!(pts.len(), 2000);
        assert!(pts.iter().all(|p| p.weight == 1.0));
        assert!(pts
            .iter()
            .all(|p| (0.0..=1000.0).contains(&p.point.x) && (0.0..=1000.0).contains(&p.point.y)));
        // Roughly balanced across the two halves of the space.
        let left = pts.iter().filter(|p| p.point.x < 500.0).count();
        assert!((800..1200).contains(&left), "left half has {left} points");
    }

    #[test]
    fn gaussian_concentrates_at_the_center() {
        let pts = gaussian(2000, 1000.0, 7);
        assert_eq!(pts.len(), 2000);
        let central = pts
            .iter()
            .filter(|p| (p.point.x - 500.0).abs() < 250.0 && (p.point.y - 500.0).abs() < 250.0)
            .count();
        // ~95% of a Gaussian with sigma=125 lies within +-250 of the mean.
        assert!(central > 1700, "only {central} of 2000 points are central");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(uniform(100, 1000.0, 42), uniform(100, 1000.0, 42));
        assert_eq!(gaussian(100, 1000.0, 42), gaussian(100, 1000.0, 42));
        assert_ne!(uniform(100, 1000.0, 1), uniform(100, 1000.0, 2));
        assert_eq!(clustered(100, 1000.0, 42), clustered(100, 1000.0, 42));
        assert_eq!(zipf_x(100, 1000.0, 1.1, 42), zipf_x(100, 1000.0, 1.1, 42));
        assert_ne!(zipf_x(100, 1000.0, 1.1, 1), zipf_x(100, 1000.0, 1.1, 2));
    }

    #[test]
    fn clustered_is_x_skewed() {
        let pts = clustered(4000, 1000.0, 3);
        assert_eq!(pts.len(), 4000);
        // The heavy cluster sits at 15% of the space and holds ~60% of the
        // mass; an equal-width quarter of the space captures it whole.
        let heavy = pts.iter().filter(|p| p.point.x < 250.0).count();
        assert!(heavy > 2000, "heavy cluster holds only {heavy} of 4000");
        assert!(pts.iter().all(|p| (0.0..=1000.0).contains(&p.point.x)));
    }

    #[test]
    fn zipf_x_has_heavy_duplicate_mass() {
        let pts = zipf_x(4000, 1000.0, 1.2, 3);
        assert_eq!(pts.len(), 4000);
        let mut counts = std::collections::HashMap::new();
        for p in &pts {
            *counts.entry(p.point.x.to_bits()).or_insert(0usize) += 1;
        }
        let hottest = *counts.values().max().unwrap();
        assert!(
            hottest > 400,
            "hot rank repeats only {hottest} times — not zipfian"
        );
        assert!(counts.len() > 20, "only {} distinct x-values", counts.len());
    }

    #[test]
    fn event_stream_is_reproducible_and_well_formed() {
        let cfg = EventStreamConfig {
            events: 2_000,
            ..Default::default()
        };
        let a = event_stream(&cfg, 9);
        let b = event_stream(&cfg, 9);
        assert_eq!(a, b, "same seed must reproduce the same stream");
        assert_ne!(a, event_stream(&cfg, 10));
        assert_eq!(a.len(), 2_000);

        // Timestamps never decrease; every delete targets a then-live id.
        let mut live = std::collections::HashSet::new();
        let mut last = f64::NEG_INFINITY;
        let (mut inserts, mut deletes, mut ticks, mut zero_weights, mut snapped) =
            (0usize, 0usize, 0usize, 0usize, 0usize);
        for event in &a {
            assert!(event.at() >= last);
            last = event.at();
            match *event {
                Event::Insert { id, object, .. } => {
                    assert!(live.insert(id), "insert reused a live id");
                    assert!(object.weight >= 0.0 && object.weight <= 3.0);
                    assert!(object.weight.fract() == 0.0, "weights are integers");
                    if object.weight == 0.0 {
                        zero_weights += 1;
                    }
                    let pitch = cfg.extent / 100.0;
                    if object.point.x % pitch == 0.0 && object.point.y % pitch == 0.0 {
                        snapped += 1;
                    }
                    inserts += 1;
                }
                Event::Delete { id, .. } => {
                    assert!(live.remove(&id), "delete of a dead id");
                    deletes += 1;
                }
                Event::Tick { .. } => ticks += 1,
            }
        }
        assert!(inserts > deletes && deletes > 0 && ticks > 0);
        assert!(zero_weights > 0, "zero-weight objects are part of the mix");
        assert!(snapped > inserts / 10, "tie-heavy snapping is exercised");
    }

    #[test]
    fn window_skew_prefers_the_oldest_victims() {
        let base = EventStreamConfig {
            events: 3_000,
            tick_fraction: 0.0,
            ..Default::default()
        };
        // With full skew every delete removes the oldest live id: victims
        // appear in strictly increasing id order.
        let skewed = event_stream(
            &EventStreamConfig {
                window_skew: 1.0,
                ..base
            },
            5,
        );
        let victims: Vec<u64> = skewed
            .iter()
            .filter_map(|e| match *e {
                Event::Delete { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert!(victims.len() > 100);
        assert!(victims.windows(2).all(|w| w[0] < w[1]), "FIFO victim order");

        // Without skew some delete must hit a non-oldest object.
        let uniform_victims: Vec<u64> = event_stream(&base, 5)
            .iter()
            .filter_map(|e| match *e {
                Event::Delete { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert!(uniform_victims.windows(2).any(|w| w[0] > w[1]));
    }
}
