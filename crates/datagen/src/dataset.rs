//! Dataset descriptors and persistence into the EM substrate.

use maxrs_core::{load_objects, ObjectRecord};
use maxrs_em::{EmContext, TupleFile};
use maxrs_geometry::{Rect, WeightedPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::real::{ne_surrogate, ux_surrogate, NE_CARDINALITY, UX_CARDINALITY};
use crate::synthetic::{gaussian, uniform, SPACE_EXTENT};

/// The four dataset families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Uniformly distributed synthetic points.
    Uniform,
    /// Gaussian-distributed synthetic points.
    Gaussian,
    /// Surrogate of the UX real dataset (USA + Mexico).
    Ux,
    /// Surrogate of the NE real dataset (North-East USA).
    Ne,
}

impl DatasetKind {
    /// All four dataset kinds, in the order the paper lists them.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Uniform,
        DatasetKind::Gaussian,
        DatasetKind::Ux,
        DatasetKind::Ne,
    ];

    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Uniform => "Uniform",
            DatasetKind::Gaussian => "Gaussian",
            DatasetKind::Ux => "UX",
            DatasetKind::Ne => "NE",
        }
    }

    /// The cardinality the paper uses for this dataset (Table 2 / Table 3
    /// defaults).
    pub fn paper_cardinality(&self) -> usize {
        match self {
            DatasetKind::Uniform | DatasetKind::Gaussian => 250_000,
            DatasetKind::Ux => UX_CARDINALITY,
            DatasetKind::Ne => NE_CARDINALITY,
        }
    }
}

/// How object weights are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightMode {
    /// Every object has weight 1 (the COUNT setting used by the paper's
    /// experiments).
    #[default]
    Unit,
    /// Weights drawn uniformly from `[1, max]` (exercises the weighted SUM
    /// code paths).
    UniformRandom {
        /// Largest possible weight.
        max: f64,
    },
}

/// A fully generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which family the dataset belongs to.
    pub kind: DatasetKind,
    /// Seed used for generation (datasets are deterministic given kind, size,
    /// seed and weight mode).
    pub seed: u64,
    /// The objects.
    pub objects: Vec<WeightedPoint>,
}

impl Dataset {
    /// Generates a dataset of `n` objects of the given kind.
    pub fn generate(kind: DatasetKind, n: usize, seed: u64) -> Self {
        Dataset::generate_weighted(kind, n, seed, WeightMode::Unit)
    }

    /// Generates a dataset with an explicit weight mode.
    pub fn generate_weighted(kind: DatasetKind, n: usize, seed: u64, weights: WeightMode) -> Self {
        let mut objects = match kind {
            DatasetKind::Uniform => uniform(n, SPACE_EXTENT, seed),
            DatasetKind::Gaussian => gaussian(n, SPACE_EXTENT, seed),
            DatasetKind::Ux => ux_surrogate(n, seed),
            DatasetKind::Ne => ne_surrogate(n, seed),
        };
        if let WeightMode::UniformRandom { max } = weights {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
            for o in &mut objects {
                o.weight = rng.gen_range(1.0..=max.max(1.0));
            }
        }
        Dataset {
            kind,
            seed,
            objects,
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when the dataset has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Sum of all object weights.
    pub fn total_weight(&self) -> f64 {
        self.objects.iter().map(|o| o.weight).sum()
    }

    /// Bounding box of the objects (`None` for an empty dataset).
    pub fn bounding_box(&self) -> Option<Rect> {
        if self.objects.is_empty() {
            return None;
        }
        let mut x_lo = f64::INFINITY;
        let mut x_hi = f64::NEG_INFINITY;
        let mut y_lo = f64::INFINITY;
        let mut y_hi = f64::NEG_INFINITY;
        for o in &self.objects {
            x_lo = x_lo.min(o.point.x);
            x_hi = x_hi.max(o.point.x);
            y_lo = y_lo.min(o.point.y);
            y_hi = y_hi.max(o.point.y);
        }
        Some(Rect::new(x_lo, x_hi, y_lo, y_hi))
    }

    /// Writes the dataset into an EM context, returning the object file the
    /// algorithms operate on.
    pub fn to_em_file(&self, ctx: &EmContext) -> maxrs_core::Result<TupleFile<ObjectRecord>> {
        load_objects(ctx, &self.objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxrs_em::EmConfig;

    #[test]
    fn kind_metadata() {
        assert_eq!(DatasetKind::Uniform.name(), "Uniform");
        assert_eq!(DatasetKind::Ux.paper_cardinality(), 19_499);
        assert_eq!(DatasetKind::Ne.paper_cardinality(), 123_593);
        assert_eq!(DatasetKind::Gaussian.paper_cardinality(), 250_000);
        assert_eq!(DatasetKind::ALL.len(), 4);
    }

    #[test]
    fn generation_and_statistics() {
        let ds = Dataset::generate(DatasetKind::Uniform, 500, 9);
        assert_eq!(ds.len(), 500);
        assert!(!ds.is_empty());
        assert_eq!(ds.total_weight(), 500.0);
        let bb = ds.bounding_box().unwrap();
        assert!(bb.x_lo >= 0.0 && bb.x_hi <= SPACE_EXTENT);
        assert!(bb.width() > 0.0 && bb.height() > 0.0);
    }

    #[test]
    fn weighted_generation() {
        let ds = Dataset::generate_weighted(
            DatasetKind::Gaussian,
            300,
            9,
            WeightMode::UniformRandom { max: 5.0 },
        );
        assert!(ds.objects.iter().all(|o| (1.0..=5.0).contains(&o.weight)));
        assert!(ds.total_weight() > 300.0);
        assert_eq!(WeightMode::default(), WeightMode::Unit);
    }

    #[test]
    fn all_kinds_generate_deterministically() {
        for kind in DatasetKind::ALL {
            let a = Dataset::generate(kind, 200, 5);
            let b = Dataset::generate(kind, 200, 5);
            assert_eq!(a.objects, b.objects, "{kind:?}");
            assert_eq!(a.len(), 200);
        }
    }

    #[test]
    fn round_trip_through_em_context() {
        let ctx = EmContext::new(EmConfig::new(4096, 64 * 1024).unwrap());
        let ds = Dataset::generate(DatasetKind::Ne, 300, 5);
        let file = ds.to_em_file(&ctx).unwrap();
        assert_eq!(file.len(), 300);
        let back = ctx.read_all(&file).unwrap();
        assert_eq!(back.len(), 300);
        assert_eq!(back[0].0, ds.objects[0]);
    }

    #[test]
    fn empty_dataset_bounding_box() {
        let ds = Dataset {
            kind: DatasetKind::Uniform,
            seed: 0,
            objects: vec![],
        };
        assert!(ds.bounding_box().is_none());
        assert!(ds.is_empty());
        assert_eq!(ds.total_weight(), 0.0);
    }
}
