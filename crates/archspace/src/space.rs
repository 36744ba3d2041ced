//! The block-based search space and its action encoding.

use ftensor::SeededRng;

use crate::block::{BlockConfig, BlockKind};
use crate::error::ArchError;
use crate::Result;

/// Hyperparameter choices offered to the controller for each searchable
/// block (paper Section 3.2 ➁: block type, `K`, `CH2`, `CH3`, and an optional
/// skip to vary depth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceConfig {
    /// Kernel-size choices.
    pub kernel_choices: Vec<usize>,
    /// Choices for the intermediate width `CH2`.
    pub ch_mid_choices: Vec<usize>,
    /// Choices for the output width `CH3`.
    pub ch_out_choices: Vec<usize>,
    /// Whether blocks may be skipped entirely.
    pub allow_skip: bool,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            kernel_choices: vec![3, 5, 7],
            ch_mid_choices: vec![32, 64, 96, 128, 192, 256, 384],
            ch_out_choices: vec![16, 24, 32, 48, 64, 96, 128, 256],
            allow_skip: true,
        }
    }
}

/// One searchable block's decisions, as indices into the [`SpaceConfig`]
/// choice lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockDecision {
    /// Index into [`BlockKind::ALL`].
    pub kind_idx: usize,
    /// Index into `kernel_choices`.
    pub kernel_idx: usize,
    /// Index into `ch_mid_choices`.
    pub ch_mid_idx: usize,
    /// Index into `ch_out_choices`.
    pub ch_out_idx: usize,
    /// Whether the block is skipped.
    pub skip: bool,
}

/// The names and cardinalities of the per-block decision dimensions, in the
/// order the RNN controller emits them.
pub const DECISIONS_PER_BLOCK: usize = 5;

/// A search space over a fixed number of searchable block slots.
///
/// # Example
///
/// ```
/// use archspace::{SearchSpace, SpaceConfig};
///
/// let space = SearchSpace::new(SpaceConfig::default(), 4);
/// assert_eq!(space.total_decisions(), 20);
/// assert!(space.log10_size() > 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    config: SpaceConfig,
    slots: usize,
}

impl SearchSpace {
    /// Creates a space over `slots` searchable blocks.
    pub fn new(config: SpaceConfig, slots: usize) -> Self {
        SearchSpace { config, slots }
    }

    /// The choice configuration.
    pub fn config(&self) -> &SpaceConfig {
        &self.config
    }

    /// Number of searchable block slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Total number of controller decisions for one architecture.
    pub fn total_decisions(&self) -> usize {
        self.slots * DECISIONS_PER_BLOCK
    }

    /// Number of choices of the `i`-th decision within a block
    /// (order: kind, kernel, `CH2`, `CH3`, skip).
    pub fn choices_of(&self, decision_in_block: usize) -> usize {
        match decision_in_block {
            0 => BlockKind::ALL.len(),
            1 => self.config.kernel_choices.len(),
            2 => self.config.ch_mid_choices.len(),
            3 => self.config.ch_out_choices.len(),
            4 if self.config.allow_skip => 2,
            _ => 1,
        }
    }

    /// Number of choices of every decision across the whole architecture, in
    /// controller emission order.
    pub fn decision_cardinalities(&self) -> Vec<usize> {
        (0..self.total_decisions())
            .map(|d| self.choices_of(d % DECISIONS_PER_BLOCK))
            .collect()
    }

    /// Per-block combination count.
    pub fn combinations_per_block(&self) -> f64 {
        (0..DECISIONS_PER_BLOCK)
            .map(|d| self.choices_of(d) as f64)
            .product()
    }

    /// Total search-space size (`combinations_per_block ^ slots`), the
    /// quantity the paper's Table 2 reports as 10^19 (MONAS, full backbone)
    /// versus 10^9 (FaHaNa, frozen header).
    pub fn size(&self) -> f64 {
        self.combinations_per_block().powi(self.slots as i32)
    }

    /// `log10` of the search-space size (easier to compare to the paper).
    pub fn log10_size(&self) -> f64 {
        (self.slots as f64) * self.combinations_per_block().log10()
    }

    /// Validates a decision against the choice cardinalities.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidAction`] naming the offending dimension.
    pub fn validate_decision(&self, decision: &BlockDecision) -> Result<()> {
        if decision.kind_idx >= BlockKind::ALL.len() {
            return Err(ArchError::InvalidAction {
                decision: "kind",
                index: decision.kind_idx,
                choices: BlockKind::ALL.len(),
            });
        }
        if decision.kernel_idx >= self.config.kernel_choices.len() {
            return Err(ArchError::InvalidAction {
                decision: "kernel",
                index: decision.kernel_idx,
                choices: self.config.kernel_choices.len(),
            });
        }
        if decision.ch_mid_idx >= self.config.ch_mid_choices.len() {
            return Err(ArchError::InvalidAction {
                decision: "ch_mid",
                index: decision.ch_mid_idx,
                choices: self.config.ch_mid_choices.len(),
            });
        }
        if decision.ch_out_idx >= self.config.ch_out_choices.len() {
            return Err(ArchError::InvalidAction {
                decision: "ch_out",
                index: decision.ch_out_idx,
                choices: self.config.ch_out_choices.len(),
            });
        }
        if decision.skip && !self.config.allow_skip {
            return Err(ArchError::InvalidAction {
                decision: "skip",
                index: 1,
                choices: 1,
            });
        }
        Ok(())
    }

    /// Converts a flat list of categorical action indices (as emitted by the
    /// controller, `total_decisions()` long) into block decisions.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::DecisionLengthMismatch`] or
    /// [`ArchError::InvalidAction`].
    pub fn decisions_from_actions(&self, actions: &[usize]) -> Result<Vec<BlockDecision>> {
        if actions.len() != self.total_decisions() {
            return Err(ArchError::DecisionLengthMismatch {
                expected: self.total_decisions(),
                actual: actions.len(),
            });
        }
        let mut decisions = Vec::with_capacity(self.slots);
        for slot in 0..self.slots {
            let base = slot * DECISIONS_PER_BLOCK;
            let decision = BlockDecision {
                kind_idx: actions[base],
                kernel_idx: actions[base + 1],
                ch_mid_idx: actions[base + 2],
                ch_out_idx: actions[base + 3],
                skip: actions[base + 4] == 1,
            };
            self.validate_decision(&decision)?;
            decisions.push(decision);
        }
        Ok(decisions)
    }

    /// Materialises block configurations from decisions, chaining channels
    /// starting from `input_channels`.
    ///
    /// # Errors
    ///
    /// Returns an error if any decision is invalid.
    pub fn decode(
        &self,
        decisions: &[BlockDecision],
        input_channels: usize,
    ) -> Result<Vec<BlockConfig>> {
        if decisions.len() != self.slots {
            return Err(ArchError::DecisionLengthMismatch {
                expected: self.slots,
                actual: decisions.len(),
            });
        }
        let mut blocks = Vec::with_capacity(decisions.len());
        let mut current = input_channels;
        for decision in decisions {
            self.validate_decision(decision)?;
            if decision.skip {
                blocks
                    .push(BlockConfig::new(BlockKind::Db, current, current, current, 3).skipped());
                continue;
            }
            let block = BlockConfig::new(
                BlockKind::ALL[decision.kind_idx],
                current,
                self.config.ch_mid_choices[decision.ch_mid_idx],
                self.config.ch_out_choices[decision.ch_out_idx],
                self.config.kernel_choices[decision.kernel_idx],
            );
            current = block.output_channels();
            blocks.push(block);
        }
        Ok(blocks)
    }

    /// Samples uniformly random decisions (used by random-search baselines
    /// and tests).
    pub fn random_decisions(&self, rng: &mut SeededRng) -> Vec<BlockDecision> {
        (0..self.slots)
            .map(|_| BlockDecision {
                kind_idx: rng.below(BlockKind::ALL.len()),
                kernel_idx: rng.below(self.config.kernel_choices.len()),
                ch_mid_idx: rng.below(self.config.ch_mid_choices.len()),
                ch_out_idx: rng.below(self.config.ch_out_choices.len()),
                skip: self.config.allow_skip && rng.chance(0.15),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_space_matches_paper_scale() {
        // FaHaNa searches ~5 tail blocks (space ≈ 10^9); MONAS searches the
        // whole ~17-block backbone (space ≈ 10^19, clipped by the paper to
        // the searchable hyperparameters it lists).
        let fahana = SearchSpace::new(SpaceConfig::default(), 5);
        let monas = SearchSpace::new(SpaceConfig::default(), 17);
        assert!(fahana.log10_size() >= 8.0 && fahana.log10_size() <= 16.0);
        assert!(monas.log10_size() > fahana.log10_size() + 8.0);
    }

    #[test]
    fn decision_cardinalities_follow_config() {
        let space = SearchSpace::new(SpaceConfig::default(), 2);
        let cards = space.decision_cardinalities();
        assert_eq!(cards.len(), 10);
        assert_eq!(cards[0], 4); // block kinds
        assert_eq!(cards[1], 3); // kernels
        assert_eq!(cards[2], 7); // ch_mid
        assert_eq!(cards[3], 8); // ch_out
        assert_eq!(cards[4], 2); // skip
        assert_eq!(&cards[5..], &cards[..5]);
    }

    #[test]
    fn disallowing_skip_shrinks_space() {
        let with_skip = SearchSpace::new(SpaceConfig::default(), 4);
        let without = SearchSpace::new(
            SpaceConfig {
                allow_skip: false,
                ..SpaceConfig::default()
            },
            4,
        );
        assert!(without.size() < with_skip.size());
        assert_eq!(without.choices_of(4), 1);
    }

    #[test]
    fn decode_chains_channels() {
        let space = SearchSpace::new(SpaceConfig::default(), 3);
        let decisions = vec![
            BlockDecision {
                kind_idx: 0,
                kernel_idx: 0,
                ch_mid_idx: 1,
                ch_out_idx: 2,
                skip: false,
            };
            3
        ];
        let blocks = space.decode(&decisions, 16).unwrap();
        assert_eq!(blocks[0].ch_in, 16);
        let ch_out = SpaceConfig::default().ch_out_choices[2];
        assert_eq!(blocks[1].ch_in, ch_out);
        assert_eq!(blocks[2].ch_in, ch_out);
    }

    #[test]
    fn decode_skipped_blocks_preserve_width() {
        let space = SearchSpace::new(SpaceConfig::default(), 2);
        let decisions = vec![
            BlockDecision {
                kind_idx: 0,
                kernel_idx: 0,
                ch_mid_idx: 0,
                ch_out_idx: 0,
                skip: true,
            },
            BlockDecision {
                kind_idx: 2,
                kernel_idx: 1,
                ch_mid_idx: 3,
                ch_out_idx: 4,
                skip: false,
            },
        ];
        let blocks = space.decode(&decisions, 32).unwrap();
        assert!(blocks[0].skipped);
        assert_eq!(blocks[1].ch_in, 32);
    }

    #[test]
    fn decisions_from_actions_round_trip() {
        let space = SearchSpace::new(SpaceConfig::default(), 2);
        let actions = vec![1, 2, 3, 4, 0, 3, 0, 6, 7, 1];
        let decisions = space.decisions_from_actions(&actions).unwrap();
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[0].kind_idx, 1);
        assert_eq!(decisions[0].kernel_idx, 2);
        assert!(!decisions[0].skip);
        assert!(decisions[1].skip);
        assert!(space.decisions_from_actions(&actions[..5]).is_err());
    }

    #[test]
    fn invalid_actions_are_rejected() {
        let space = SearchSpace::new(SpaceConfig::default(), 1);
        assert!(space.decisions_from_actions(&[9, 0, 0, 0, 0]).is_err());
        assert!(space.decisions_from_actions(&[0, 9, 0, 0, 0]).is_err());
        assert!(space.decisions_from_actions(&[0, 0, 9, 0, 0]).is_err());
        assert!(space.decisions_from_actions(&[0, 0, 0, 9, 0]).is_err());
        let no_skip = SearchSpace::new(
            SpaceConfig {
                allow_skip: false,
                ..SpaceConfig::default()
            },
            1,
        );
        assert!(no_skip.decisions_from_actions(&[0, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn random_decisions_are_always_valid() {
        let space = SearchSpace::new(SpaceConfig::default(), 6);
        let mut rng = SeededRng::new(5);
        for _ in 0..50 {
            let decisions = space.random_decisions(&mut rng);
            assert_eq!(decisions.len(), 6);
            for d in &decisions {
                space.validate_decision(d).unwrap();
            }
            let blocks = space.decode(&decisions, 16).unwrap();
            assert_eq!(blocks.len(), 6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_size_is_monotone_in_slots(slots in 1usize..12) {
            let smaller = SearchSpace::new(SpaceConfig::default(), slots);
            let larger = SearchSpace::new(SpaceConfig::default(), slots + 1);
            prop_assert!(larger.size() > smaller.size());
            prop_assert!((smaller.log10_size() - smaller.size().log10()).abs() < 1e-6);
        }
    }
}
