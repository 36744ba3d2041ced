//! Layer-wise feature-variation analysis between demographic groups.
//!
//! Paper Observation 3 / Figure 3: stream a batch of majority data and a
//! batch of minority data through a pretrained backbone, compare the
//! intermediate feature maps of each layer between the two groups with the
//! L2 norm, and note that the variation is small in the front layers and
//! grows toward the tail. The [`BackboneProducer`](archspace::BackboneProducer)
//! turns this profile into a freezing decision.

use archspace::lowering::{lower, LoweringOptions};
use archspace::Architecture;
use dermsim::{Dataset, Group};
use ftensor::stats::mean_row_l2_distance;
use ftensor::Tensor;

use crate::{EvalError, Result};

/// The per-block feature variation profile of a backbone on a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVariationProfile {
    /// Variation (mean-feature L2 distance between groups) after each block.
    pub per_block: Vec<f32>,
    /// Name of the analysed backbone.
    pub backbone: String,
}

impl FeatureVariationProfile {
    /// The block index chosen as the freezing split for a scale factor
    /// `gamma` (the paper's three-step rule).
    pub fn split_for_gamma(&self, gamma: f32) -> usize {
        if self.per_block.is_empty() {
            return 0;
        }
        let max = self
            .per_block
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let threshold = gamma * max;
        self.per_block
            .iter()
            .position(|&v| v >= threshold)
            .unwrap_or(self.per_block.len().saturating_sub(1))
    }
}

/// Runs the feature-variation analysis of a backbone on a dataset.
///
/// A batch of majority and a batch of minority samples (up to `batch` each)
/// are pushed through the lowered backbone; after every block the mean
/// feature vector of each group is compared with the L2 norm, normalised by
/// the feature dimensionality so layers of different widths are comparable.
///
/// # Errors
///
/// Returns an error if either group has no samples or lowering fails.
pub fn feature_variation_by_block(
    backbone: &Architecture,
    dataset: &Dataset,
    batch: usize,
    seed: u64,
) -> Result<FeatureVariationProfile> {
    let majority = dataset.subset_by_group(Group::LIGHT_SKIN);
    let minority = dataset.subset_by_group(Group::DARK_SKIN);
    if majority.is_empty() || minority.is_empty() {
        return Err(EvalError::BadDataset(
            "feature variation needs samples from both groups".into(),
        ));
    }
    let take = |d: &Dataset| -> Option<Tensor> {
        let (tensor, _) = d.to_image_tensor()?;
        let n = tensor.dims()[0].min(batch.max(1));
        let width = tensor.len() / tensor.dims()[0];
        let mut dims = tensor.dims().to_vec();
        dims[0] = n;
        Tensor::from_vec(tensor.as_slice()[..n * width].to_vec(), &dims).ok()
    };
    let light = take(&majority).ok_or_else(|| EvalError::BadDataset("empty majority".into()))?;
    let dark = take(&minority).ok_or_else(|| EvalError::BadDataset("empty minority".into()))?;

    let lowered = lower(
        backbone,
        LoweringOptions {
            seed,
            freeze_first_blocks: 0,
        },
    )?;
    let mut network = lowered.network;
    let light_acts = network.forward_collect(&light, false)?;
    let dark_acts = network.forward_collect(&dark, false)?;

    let mut per_block = Vec::with_capacity(lowered.block_boundaries.len());
    for &layer_idx in &lowered.block_boundaries {
        let a = flatten_batch(&light_acts[layer_idx]);
        let b = flatten_batch(&dark_acts[layer_idx]);
        let width = (a.len() / a.dims()[0].max(1)) as f32;
        let distance = mean_row_l2_distance(&a, &b).unwrap_or(0.0) / width.sqrt().max(1.0);
        per_block.push(distance);
    }
    Ok(FeatureVariationProfile {
        per_block,
        backbone: backbone.name().to_string(),
    })
}

/// The per-block feature-variation profile of the *pretrained* MobileNetV2
/// backbone reported in the paper's Figure 3 (digitised values, one per
/// backbone block).
///
/// The paper measures this on a MobileNetV2 pretrained on the dermatology
/// dataset; we do not have their checkpoint, so the search uses these
/// published values as the default freezing input (with γ = 0.5 the
/// threshold is 0.5 · 0.105 ≈ 0.052, and the first block exceeding it is
/// block 12 — "the front layers, say before layer 12, have small
/// variations"). Re-measuring on a locally trained proxy backbone is
/// available through [`feature_variation_by_block`].
pub fn paper_figure3_profile() -> Vec<f32> {
    vec![
        0.006, 0.007, 0.008, 0.009, 0.010, 0.012, 0.014, 0.016, 0.018, 0.021, 0.024, 0.028, 0.062,
        0.075, 0.090, 0.105, 0.030,
    ]
}

/// Flattens `(n, …)` activations to `(n, features)`.
fn flatten_batch(t: &Tensor) -> Tensor {
    let n = t.dims().first().copied().unwrap_or(1).max(1);
    let features = t.len() / n;
    t.reshape(&[n, features]).unwrap_or_else(|_| t.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use archspace::{BlockConfig, BlockKind};
    use dermsim::{DermatologyConfig, DermatologyGenerator};

    fn dataset() -> Dataset {
        DermatologyGenerator::new(DermatologyConfig {
            samples: 80,
            image_size: 8,
            minority_fraction: 0.3,
            ..DermatologyConfig::default()
        })
        .generate()
    }

    fn backbone() -> Architecture {
        Architecture::builder(5)
            .name("variation-backbone")
            .stem(8, 3)
            .input_size(8)
            .block(BlockConfig::new(BlockKind::Mb, 8, 16, 12, 3))
            .block(BlockConfig::new(BlockKind::Db, 12, 24, 12, 3))
            .block(BlockConfig::new(BlockKind::Db, 12, 24, 16, 3))
            .block(BlockConfig::new(BlockKind::Rb, 16, 16, 16, 3))
            .build()
            .unwrap()
    }

    #[test]
    fn produces_one_variation_per_block() {
        let profile = feature_variation_by_block(&backbone(), &dataset(), 16, 0).unwrap();
        assert_eq!(profile.per_block.len(), 4);
        assert!(profile.per_block.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(
            profile.per_block.iter().any(|&v| v > 0.0),
            "the two skin tones must produce measurably different features"
        );
    }

    #[test]
    fn split_rule_matches_manual_threshold() {
        let profile = FeatureVariationProfile {
            per_block: vec![0.01, 0.02, 0.06, 0.10],
            backbone: "x".into(),
        };
        // gamma 0.5 -> threshold 0.05 -> first exceeding layer is index 2
        assert_eq!(profile.split_for_gamma(0.5), 2);
        // gamma 1.0 -> only the max layer qualifies
        assert_eq!(profile.split_for_gamma(1.0), 3);
        // tiny gamma freezes nothing
        assert_eq!(profile.split_for_gamma(0.01), 0);
    }

    #[test]
    fn figure3_profile_freezes_the_first_twelve_blocks_at_gamma_half() {
        let profile = FeatureVariationProfile {
            per_block: paper_figure3_profile(),
            backbone: "MobileNetV2".into(),
        };
        assert_eq!(profile.per_block.len(), 17);
        assert_eq!(profile.split_for_gamma(0.5), 12);
        // the variation grows toward the tail (ignoring the final layer,
        // which the paper notes is small because most elements approach 0)
        let rising = &profile.per_block[..16];
        assert!(rising.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn empty_profile_splits_at_zero() {
        let profile = FeatureVariationProfile {
            per_block: vec![],
            backbone: "x".into(),
        };
        assert_eq!(profile.split_for_gamma(0.5), 0);
    }

    #[test]
    fn fails_without_minority_samples() {
        let all_light = DermatologyGenerator::new(DermatologyConfig {
            samples: 30,
            image_size: 8,
            minority_fraction: 0.0,
            ..DermatologyConfig::default()
        })
        .generate();
        assert!(feature_variation_by_block(&backbone(), &all_light, 8, 0).is_err());
    }

    #[test]
    fn analysis_is_deterministic() {
        let a = feature_variation_by_block(&backbone(), &dataset(), 16, 3).unwrap();
        let b = feature_variation_by_block(&backbone(), &dataset(), 16, 3).unwrap();
        assert_eq!(a, b);
    }
}
