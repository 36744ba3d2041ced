//! In-memory dataset container, splits and tensor export.

use ftensor::{SeededRng, Tensor};

use crate::sample::{Group, Sample};
use crate::stats::DatasetStats;

/// An in-memory labelled, group-annotated image dataset.
///
/// The dataset knows its class and group cardinality so that fairness
/// metrics can always iterate over *all* groups, including groups that an
/// unlucky subset might not contain.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    samples: Vec<Sample>,
    classes: usize,
    groups: usize,
}

/// The train/validation/test split used by the search (60/20/20 in the
/// paper's Section 4.1-B).
#[derive(Debug, Clone)]
pub struct DatasetSplit {
    /// Training portion.
    pub train: Dataset,
    /// Validation portion (used to compute rewards during the search).
    pub validation: Dataset,
    /// Held-out test portion (used for the final comparison tables).
    pub test: Dataset,
}

impl Dataset {
    /// Creates a dataset from samples and its class/group cardinality.
    pub fn new(samples: Vec<Sample>, classes: usize, groups: usize) -> Self {
        Dataset {
            samples,
            classes,
            groups,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of demographic groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Read access to the samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Appends samples (used by data balancing).
    pub fn extend_samples<I: IntoIterator<Item = Sample>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }

    /// Labels of every sample, in order.
    pub fn labels(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.label).collect()
    }

    /// Groups of every sample, in order.
    pub fn sample_groups(&self) -> Vec<Group> {
        self.samples.iter().map(|s| s.group).collect()
    }

    /// Descriptive statistics (per-class and per-group counts, imbalance).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::from_dataset(self)
    }

    /// The subset of samples belonging to `group`, as a new dataset.
    pub fn subset_by_group(&self, group: Group) -> Dataset {
        Dataset {
            samples: self
                .samples
                .iter()
                .filter(|s| s.group == group)
                .cloned()
                .collect(),
            classes: self.classes,
            groups: self.groups,
        }
    }

    /// Flattens the dataset into a feature matrix `(n, 3·size²)` plus labels.
    ///
    /// Returns `None` for an empty dataset or if image sizes are inconsistent.
    pub fn to_feature_matrix(&self) -> Option<(Tensor, Vec<usize>)> {
        let first = self.samples.first()?;
        let width = first.feature_len();
        let mut data = Vec::with_capacity(self.samples.len() * width);
        for sample in &self.samples {
            if sample.feature_len() != width {
                return None;
            }
            data.extend_from_slice(&sample.pixels);
        }
        let features = Tensor::from_vec(data, &[self.samples.len(), width]).ok()?;
        Some((features, self.labels()))
    }

    /// Exports the dataset as an NCHW image tensor plus labels.
    ///
    /// Returns `None` for an empty dataset or inconsistent image sizes.
    pub fn to_image_tensor(&self) -> Option<(Tensor, Vec<usize>)> {
        let first = self.samples.first()?;
        let size = first.size;
        let width = first.feature_len();
        let mut data = Vec::with_capacity(self.samples.len() * width);
        for sample in &self.samples {
            if sample.size != size {
                return None;
            }
            data.extend_from_slice(&sample.pixels);
        }
        let tensor =
            Tensor::from_vec(data, &[self.samples.len(), Sample::CHANNELS, size, size]).ok()?;
        Some((tensor, self.labels()))
    }

    /// Splits the dataset with the paper's 60/20/20 ratio, stratified by
    /// group so that every split contains minority samples.
    pub fn split_default(&self) -> DatasetSplit {
        self.split(0.6, 0.2, 9901)
    }

    /// Splits the dataset into train/validation/test with the given
    /// fractions (test receives the remainder), shuffled with `seed` and
    /// stratified per group.
    pub fn split(&self, train_fraction: f32, validation_fraction: f32, seed: u64) -> DatasetSplit {
        let mut rng = SeededRng::new(seed);
        let mut train = Vec::new();
        let mut validation = Vec::new();
        let mut test = Vec::new();
        for group_id in 0..self.groups.max(1) {
            let mut indices: Vec<usize> = self
                .samples
                .iter()
                .enumerate()
                .filter(|(_, s)| s.group == Group(group_id))
                .map(|(i, _)| i)
                .collect();
            // Fisher–Yates shuffle
            for i in (1..indices.len()).rev() {
                let j = rng.below(i + 1);
                indices.swap(i, j);
            }
            let n = indices.len();
            let n_train = ((n as f32) * train_fraction).round() as usize;
            let n_val = ((n as f32) * validation_fraction).round() as usize;
            for (pos, &idx) in indices.iter().enumerate() {
                let sample = self.samples[idx].clone();
                if pos < n_train {
                    train.push(sample);
                } else if pos < n_train + n_val {
                    validation.push(sample);
                } else {
                    test.push(sample);
                }
            }
        }
        DatasetSplit {
            train: Dataset::new(train, self.classes, self.groups),
            validation: Dataset::new(validation, self.classes, self.groups),
            test: Dataset::new(test, self.classes, self.groups),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DermatologyConfig, DermatologyGenerator};

    fn dataset(n: usize) -> Dataset {
        DermatologyGenerator::new(DermatologyConfig {
            samples: n,
            image_size: 6,
            ..DermatologyConfig::default()
        })
        .generate()
    }

    #[test]
    fn split_fractions_are_respected_per_group() {
        let data = dataset(500);
        let split = data.split_default();
        let total = split.train.len() + split.validation.len() + split.test.len();
        assert_eq!(total, 500);
        assert!((split.train.len() as f32 / 500.0 - 0.6).abs() < 0.05);
        assert!((split.validation.len() as f32 / 500.0 - 0.2).abs() < 0.05);
        // every split keeps minority samples
        for part in [&split.train, &split.validation, &split.test] {
            assert!(part.samples().iter().any(|s| s.group == Group::DARK_SKIN));
            assert!(part.samples().iter().any(|s| s.group == Group::LIGHT_SKIN));
        }
    }

    #[test]
    fn split_is_deterministic_for_a_seed() {
        let data = dataset(200);
        let a = data.split(0.6, 0.2, 7);
        let b = data.split(0.6, 0.2, 7);
        assert_eq!(a.train.samples()[0], b.train.samples()[0]);
        let c = data.split(0.6, 0.2, 8);
        // a different shuffle seed almost surely changes the first sample
        assert_ne!(
            a.train.samples()[0].pixels,
            c.train.samples()[0].pixels,
            "different seeds should shuffle differently"
        );
    }

    #[test]
    fn subset_by_group_filters_samples() {
        let data = dataset(300);
        let dark = data.subset_by_group(Group::DARK_SKIN);
        assert!(dark.samples().iter().all(|s| s.group == Group::DARK_SKIN));
        assert!(!dark.is_empty());
        assert_eq!(dark.classes(), data.classes());
        let light = data.subset_by_group(Group::LIGHT_SKIN);
        assert_eq!(dark.len() + light.len(), data.len());
    }

    #[test]
    fn feature_matrix_has_expected_shape() {
        let data = dataset(40);
        let (features, labels) = data.to_feature_matrix().unwrap();
        assert_eq!(features.dims(), &[40, 3 * 6 * 6]);
        assert_eq!(labels.len(), 40);
    }

    #[test]
    fn image_tensor_has_expected_shape() {
        let data = dataset(10);
        let (images, labels) = data.to_image_tensor().unwrap();
        assert_eq!(images.dims(), &[10, 3, 6, 6]);
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn empty_dataset_exports_none() {
        let empty = Dataset::new(Vec::new(), 5, 2);
        assert!(empty.to_feature_matrix().is_none());
        assert!(empty.to_image_tensor().is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn extend_samples_appends() {
        let mut data = dataset(10);
        let extra = dataset(5).samples().to_vec();
        data.extend_samples(extra);
        assert_eq!(data.len(), 15);
    }
}
