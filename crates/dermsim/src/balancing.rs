//! Data balancing: generating extra minority samples (paper Table 4).
//!
//! The paper's compatibility experiment applies the fair-generative-model
//! technique of its reference \[18\] to synthesise 5× more minority data. We
//! reproduce the effect with a generative-style augmentation: new minority
//! samples are rendered from the same generative process with fresh noise
//! and geometric jitter, so the augmented set is "new data from the minority
//! distribution" rather than exact copies.

use ftensor::SeededRng;

use crate::dataset::Dataset;
use crate::generator::DermatologyGenerator;
use crate::sample::Group;

/// Configuration of the minority-data balancing step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancingConfig {
    /// How many times more minority data to end up with (the paper uses 5×).
    pub minority_multiplier: usize,
    /// RNG seed for the generated samples.
    pub seed: u64,
}

impl Default for BalancingConfig {
    fn default() -> Self {
        BalancingConfig {
            minority_multiplier: 5,
            seed: 77,
        }
    }
}

/// Produces a new dataset whose minority groups have `minority_multiplier`
/// times as many samples, generated from the same synthetic distribution.
///
/// The majority group is left untouched. The class distribution of the new
/// minority samples follows the class distribution already present in that
/// group, so balancing changes *group* balance without distorting *class*
/// balance.
///
/// # Example
///
/// ```
/// use dermsim::{balance_dataset, BalancingConfig, DermatologyConfig, DermatologyGenerator};
///
/// let generator = DermatologyGenerator::new(DermatologyConfig {
///     samples: 200,
///     ..DermatologyConfig::default()
/// });
/// let dataset = generator.generate();
/// let before = dataset.stats().imbalance_ratio;
/// let balanced = balance_dataset(&dataset, &generator, BalancingConfig::default());
/// assert!(balanced.stats().imbalance_ratio < before);
/// ```
pub fn balance_dataset(
    dataset: &Dataset,
    generator: &DermatologyGenerator,
    config: BalancingConfig,
) -> Dataset {
    let mut result = dataset.clone();
    if config.minority_multiplier <= 1 {
        return result;
    }
    let stats = dataset.stats();
    let mut rng = SeededRng::new(config.seed);
    for group_id in 0..dataset.groups() {
        let group = Group(group_id);
        if group == stats.majority_group {
            continue;
        }
        let existing: Vec<usize> = dataset
            .samples()
            .iter()
            .filter(|s| s.group == group)
            .map(|s| s.label)
            .collect();
        if existing.is_empty() {
            continue;
        }
        let extra_needed = existing.len() * (config.minority_multiplier - 1);
        let mut extra = Vec::with_capacity(extra_needed);
        for i in 0..extra_needed {
            // follow the group's existing class distribution
            let label = existing[i % existing.len()];
            extra.push(generator.generate_sample(label, group, &mut rng));
        }
        result.extend_samples(extra);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::DermatologyConfig;

    fn setup(samples: usize) -> (Dataset, DermatologyGenerator) {
        let generator = DermatologyGenerator::new(DermatologyConfig {
            samples,
            image_size: 6,
            minority_fraction: 0.2,
            ..DermatologyConfig::default()
        });
        (generator.generate(), generator)
    }

    #[test]
    fn balancing_multiplies_minority_count() {
        let (dataset, generator) = setup(500);
        let before = dataset.subset_by_group(Group::DARK_SKIN).len();
        let balanced = balance_dataset(
            &dataset,
            &generator,
            BalancingConfig {
                minority_multiplier: 5,
                seed: 1,
            },
        );
        let after = balanced.subset_by_group(Group::DARK_SKIN).len();
        assert_eq!(after, before * 5);
        // majority untouched
        assert_eq!(
            balanced.subset_by_group(Group::LIGHT_SKIN).len(),
            dataset.subset_by_group(Group::LIGHT_SKIN).len()
        );
    }

    #[test]
    fn balancing_reduces_imbalance_ratio() {
        let (dataset, generator) = setup(400);
        let balanced = balance_dataset(&dataset, &generator, BalancingConfig::default());
        assert!(balanced.stats().imbalance_ratio < dataset.stats().imbalance_ratio);
    }

    #[test]
    fn multiplier_of_one_is_identity() {
        let (dataset, generator) = setup(100);
        let balanced = balance_dataset(
            &dataset,
            &generator,
            BalancingConfig {
                minority_multiplier: 1,
                seed: 0,
            },
        );
        assert_eq!(balanced.len(), dataset.len());
    }

    #[test]
    fn generated_samples_are_new_not_copies() {
        let (dataset, generator) = setup(200);
        let balanced = balance_dataset(&dataset, &generator, BalancingConfig::default());
        let originals: Vec<&Vec<f32>> = dataset
            .samples()
            .iter()
            .filter(|s| s.group == Group::DARK_SKIN)
            .map(|s| &s.pixels)
            .collect();
        // every appended sample differs from every original minority sample
        let appended = &balanced.samples()[dataset.len()..];
        assert!(!appended.is_empty());
        for new_sample in appended.iter().take(10) {
            assert!(originals.iter().all(|orig| *orig != &new_sample.pixels));
        }
    }

    #[test]
    fn class_distribution_is_preserved_in_augmentation() {
        let (dataset, generator) = setup(600);
        let balanced = balance_dataset(&dataset, &generator, BalancingConfig::default());
        let class_counts = |d: &Dataset| -> Vec<usize> {
            let minority = d.subset_by_group(Group::DARK_SKIN);
            let mut counts = vec![0usize; d.classes()];
            for s in minority.samples() {
                counts[s.label] += 1;
            }
            counts
        };
        let before = class_counts(&dataset);
        let after = class_counts(&balanced);
        for (b, a) in before.iter().zip(after.iter()) {
            // each class count is multiplied by ~5 (exact up to rounding of the round-robin)
            assert!(*a >= *b * 4, "class count {b} grew only to {a}");
        }
    }
}
