//! The backbone architecture producer and its freezing method.
//!
//! Paper Section 3.2 ➂: given a pretrained backbone (MobileNetV2 in the
//! evaluation), the producer streams minority and majority batches through
//! it, measures the per-layer feature variation between groups, and freezes
//! every layer *before* the first one whose variation exceeds
//! `γ · max_variation`. Frozen layers keep their pretrained weights; only the
//! remaining tail slots are searched.

use crate::arch::{Architecture, StemConfig};
use crate::block::BlockConfig;
use crate::error::ArchError;
use crate::space::{BlockDecision, SearchSpace};
use crate::Result;

/// The outcome of the freezing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FreezeDecision {
    /// Index of the first searchable layer (all earlier layers are frozen).
    pub split_layer: usize,
    /// The threshold `γ · max_variation` that was applied.
    pub threshold: f32,
    /// The per-layer feature variations that informed the decision.
    pub variations: Vec<f32>,
}

/// A backbone with a frozen header and open tail slots.
#[derive(Debug, Clone, PartialEq)]
pub struct BackboneTemplate {
    name: String,
    stem: StemConfig,
    frozen_blocks: Vec<BlockConfig>,
    searchable_slots: usize,
    classes: usize,
    input_size: usize,
}

impl BackboneTemplate {
    /// Number of frozen blocks (the header).
    pub fn frozen_block_count(&self) -> usize {
        self.frozen_blocks.len()
    }

    /// Number of searchable tail slots.
    pub fn searchable_slots(&self) -> usize {
        self.searchable_slots
    }

    /// Channel width entering the first searchable slot.
    pub fn tail_input_channels(&self) -> usize {
        self.frozen_blocks
            .iter()
            .rfind(|b| !b.skipped)
            .map(|b| b.output_channels())
            .unwrap_or(self.stem.out_channels)
    }

    /// Parameters held by the frozen header (stem + frozen blocks), i.e. the
    /// weights that do **not** need to be trained for each child network.
    pub fn frozen_param_count(&self) -> u64 {
        let stem = (3 * self.stem.out_channels * self.stem.kernel * self.stem.kernel
            + self.stem.out_channels) as u64
            + 2 * self.stem.out_channels as u64;
        stem + self
            .frozen_blocks
            .iter()
            .map(|b| b.param_count())
            .sum::<u64>()
    }

    /// Builds a full child architecture from tail decisions.
    ///
    /// # Errors
    ///
    /// Returns an error if the decisions are invalid for `space` or the
    /// resulting architecture fails validation.
    pub fn instantiate(
        &self,
        space: &SearchSpace,
        decisions: &[BlockDecision],
        name: impl Into<String>,
    ) -> Result<Architecture> {
        if space.slots() != self.searchable_slots {
            return Err(ArchError::DecisionLengthMismatch {
                expected: self.searchable_slots,
                actual: space.slots(),
            });
        }
        let tail = space.decode(decisions, self.tail_input_channels())?;
        Architecture::builder(self.classes)
            .name(name)
            .stem(self.stem.out_channels, self.stem.kernel)
            .input_size(self.input_size)
            .blocks(self.frozen_blocks.iter().copied())
            .blocks(tail)
            .build()
    }
}

/// Produces [`BackboneTemplate`]s from a backbone architecture and a
/// feature-variation profile.
#[derive(Debug, Clone)]
pub struct BackboneProducer {
    backbone: Architecture,
    gamma: f32,
}

impl BackboneProducer {
    /// Creates a producer for `backbone` with freezing scale factor `gamma`
    /// (the paper uses `γ = 0.5`).
    pub fn new(backbone: Architecture, gamma: f32) -> Self {
        BackboneProducer { backbone, gamma }
    }

    /// The backbone this producer freezes.
    pub fn backbone(&self) -> &Architecture {
        &self.backbone
    }

    /// The freezing scale factor.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Applies the paper's three-step rule to a per-layer feature-variation
    /// profile: threshold `T = γ · max(variations)`, split at the foremost
    /// layer whose variation exceeds `T`.
    ///
    /// An empty profile freezes nothing (split at layer 0).
    pub fn decide_split(&self, variations: &[f32]) -> FreezeDecision {
        if variations.is_empty() {
            return FreezeDecision {
                split_layer: 0,
                threshold: 0.0,
                variations: Vec::new(),
            };
        }
        let max = variations.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let threshold = self.gamma * max;
        let split_layer = variations
            .iter()
            .position(|&v| v >= threshold)
            .unwrap_or(variations.len().saturating_sub(1));
        FreezeDecision {
            split_layer,
            threshold,
            variations: variations.to_vec(),
        }
    }

    /// Builds the backbone template for a freezing decision: blocks before
    /// the split are frozen, the remaining block positions become searchable
    /// slots.
    ///
    /// The variation profile indexes backbone *blocks* (the stem is always
    /// kept, matching the paper's note that the first layers can be replaced
    /// by a plain trainable convolution for feature extraction).
    pub fn template(&self, decision: &FreezeDecision) -> BackboneTemplate {
        let split = decision.split_layer.min(self.backbone.blocks().len());
        let frozen_blocks = self.backbone.blocks()[..split].to_vec();
        let searchable_slots = self.backbone.blocks().len() - split;
        BackboneTemplate {
            name: format!("{}-frozen{}", self.backbone.name(), split),
            stem: self.backbone.stem(),
            frozen_blocks,
            searchable_slots,
            classes: self.backbone.classes(),
            input_size: self.backbone.input_size(),
        }
    }

    /// A template with nothing frozen — the search space MONAS explores.
    pub fn full_search_template(&self) -> BackboneTemplate {
        self.template(&FreezeDecision {
            split_layer: 0,
            threshold: 0.0,
            variations: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockKind;
    use crate::space::SpaceConfig;

    fn backbone() -> Architecture {
        Architecture::builder(5)
            .name("testnet")
            .stem(16, 3)
            .input_size(64)
            .block(BlockConfig::new(BlockKind::Mb, 16, 64, 24, 3))
            .block(BlockConfig::new(BlockKind::Db, 24, 96, 24, 3))
            .block(BlockConfig::new(BlockKind::Mb, 24, 96, 32, 3))
            .block(BlockConfig::new(BlockKind::Db, 32, 128, 32, 3))
            .block(BlockConfig::new(BlockKind::Db, 32, 128, 48, 3))
            .block(BlockConfig::new(BlockKind::Rb, 48, 64, 64, 3))
            .build()
            .unwrap()
    }

    #[test]
    fn split_follows_threshold_rule() {
        let producer = BackboneProducer::new(backbone(), 0.5);
        // variations rise toward the tail, as in the paper's Figure 3
        let variations = [0.01, 0.02, 0.03, 0.05, 0.08, 0.10];
        let decision = producer.decide_split(&variations);
        assert!((decision.threshold - 0.05).abs() < 1e-6);
        assert_eq!(decision.split_layer, 3);
    }

    #[test]
    fn gamma_controls_how_much_is_frozen() {
        let variations = [0.01, 0.02, 0.03, 0.05, 0.08, 0.10];
        let strict = BackboneProducer::new(backbone(), 0.9).decide_split(&variations);
        let lax = BackboneProducer::new(backbone(), 0.1).decide_split(&variations);
        assert!(strict.split_layer > lax.split_layer);
    }

    #[test]
    fn empty_profile_freezes_nothing() {
        let producer = BackboneProducer::new(backbone(), 0.5);
        let decision = producer.decide_split(&[]);
        assert_eq!(decision.split_layer, 0);
        let template = producer.template(&decision);
        assert_eq!(template.frozen_block_count(), 0);
        assert_eq!(template.searchable_slots(), 6);
    }

    #[test]
    fn template_partitions_blocks() {
        let producer = BackboneProducer::new(backbone(), 0.5);
        let decision = FreezeDecision {
            split_layer: 4,
            threshold: 0.0,
            variations: vec![],
        };
        let template = producer.template(&decision);
        assert_eq!(template.frozen_block_count(), 4);
        assert_eq!(template.searchable_slots(), 2);
        assert_eq!(template.tail_input_channels(), 32);
        assert!(template.frozen_param_count() > 0);
    }

    #[test]
    fn split_beyond_block_count_is_clamped() {
        let producer = BackboneProducer::new(backbone(), 0.5);
        let decision = FreezeDecision {
            split_layer: 99,
            threshold: 0.0,
            variations: vec![],
        };
        let template = producer.template(&decision);
        assert_eq!(template.frozen_block_count(), 6);
        assert_eq!(template.searchable_slots(), 0);
    }

    #[test]
    fn instantiate_builds_valid_child_networks() {
        let producer = BackboneProducer::new(backbone(), 0.5);
        let decision = FreezeDecision {
            split_layer: 3,
            threshold: 0.0,
            variations: vec![],
        };
        let template = producer.template(&decision);
        let space = SearchSpace::new(SpaceConfig::default(), template.searchable_slots());
        let mut rng = ftensor::SeededRng::new(11);
        for i in 0..20 {
            let decisions = space.random_decisions(&mut rng);
            let child = template
                .instantiate(&space, &decisions, format!("child-{i}"))
                .unwrap();
            child.validate().unwrap();
            assert_eq!(child.blocks().len(), 6);
            assert!(child.name().starts_with("child-"));
        }
    }

    #[test]
    fn instantiate_rejects_mismatched_space() {
        let producer = BackboneProducer::new(backbone(), 0.5);
        let template = producer.full_search_template();
        let wrong_space = SearchSpace::new(SpaceConfig::default(), 2);
        let mut rng = ftensor::SeededRng::new(3);
        let decisions = wrong_space.random_decisions(&mut rng);
        assert!(template
            .instantiate(&wrong_space, &decisions, "bad")
            .is_err());
    }

    #[test]
    fn frozen_header_reduces_trainable_fraction() {
        let producer = BackboneProducer::new(backbone(), 0.5);
        let frozen_t = producer.template(&FreezeDecision {
            split_layer: 4,
            threshold: 0.0,
            variations: vec![],
        });
        let full_t = producer.full_search_template();
        assert!(frozen_t.frozen_param_count() > full_t.frozen_param_count());
    }
}
