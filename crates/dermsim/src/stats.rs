//! Dataset composition statistics.

use crate::dataset::Dataset;
use crate::sample::Group;

/// Composition statistics of a dataset: how many samples each class and each
/// demographic group contributes, and how imbalanced the groups are.
///
/// The imbalance ratio (`majority / minority`) is the quantity the paper's
/// Figure 1(b) sweeps by adding 1×–5× minority data.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Sample count per class index.
    pub per_class: Vec<usize>,
    /// Sample count per group index.
    pub per_group: Vec<usize>,
    /// Total number of samples.
    pub total: usize,
    /// Largest group count divided by smallest non-zero group count.
    pub imbalance_ratio: f32,
    /// Index of the majority group.
    pub majority_group: Group,
    /// Index of the smallest non-empty group.
    pub minority_group: Group,
}

impl DatasetStats {
    /// Computes statistics for a dataset.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let mut per_class = vec![0usize; dataset.classes().max(1)];
        let mut per_group = vec![0usize; dataset.groups().max(1)];
        for sample in dataset.samples() {
            if sample.label < per_class.len() {
                per_class[sample.label] += 1;
            }
            if sample.group.0 < per_group.len() {
                per_group[sample.group.0] += 1;
            }
        }
        let total = dataset.len();
        let (majority_idx, &majority_count) = per_group
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .unwrap_or((0, &0));
        let (minority_idx, &minority_count) = per_group
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .min_by_key(|(_, &c)| c)
            .unwrap_or((0, &0));
        let imbalance_ratio = if minority_count == 0 {
            f32::INFINITY
        } else {
            majority_count as f32 / minority_count as f32
        };
        DatasetStats {
            per_class,
            per_group,
            total,
            imbalance_ratio,
            majority_group: Group(majority_idx),
            minority_group: Group(minority_idx),
        }
    }

    /// The fraction of samples belonging to the minority group.
    pub fn minority_fraction(&self) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        self.per_group
            .get(self.minority_group.0)
            .copied()
            .unwrap_or(0) as f32
            / self.total as f32
    }
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, groups {:?} (imbalance {:.2}), classes {:?}",
            self.total, self.per_group, self.imbalance_ratio, self.per_class
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DermatologyConfig, DermatologyGenerator};
    use crate::sample::Sample;

    #[test]
    fn counts_match_dataset_composition() {
        let dataset = DermatologyGenerator::new(DermatologyConfig {
            samples: 400,
            image_size: 6,
            minority_fraction: 0.25,
            ..DermatologyConfig::default()
        })
        .generate();
        let stats = dataset.stats();
        assert_eq!(stats.total, 400);
        assert_eq!(stats.per_group.iter().sum::<usize>(), 400);
        assert_eq!(stats.per_class.iter().sum::<usize>(), 400);
        assert_eq!(stats.majority_group, Group::LIGHT_SKIN);
        assert_eq!(stats.minority_group, Group::DARK_SKIN);
        assert!(stats.imbalance_ratio > 1.0);
        assert!((stats.minority_fraction() - 0.25).abs() < 0.05);
        assert!(!stats.to_string().is_empty());
    }

    #[test]
    fn empty_dataset_has_zero_stats() {
        let dataset = Dataset::new(Vec::new(), 5, 2);
        let stats = dataset.stats();
        assert_eq!(stats.total, 0);
        assert_eq!(stats.minority_fraction(), 0.0);
    }

    #[test]
    fn single_group_dataset_has_unit_imbalance() {
        let samples: Vec<Sample> = (0..10)
            .map(|i| Sample {
                pixels: vec![0.0; 12],
                size: 2,
                label: i % 5,
                group: Group(0),
            })
            .collect();
        let dataset = Dataset::new(samples, 5, 1);
        let stats = dataset.stats();
        assert_eq!(stats.imbalance_ratio, 1.0);
        assert_eq!(stats.majority_group, stats.minority_group);
    }
}
