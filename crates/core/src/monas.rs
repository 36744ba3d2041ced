//! The MONAS baseline: multi-objective NAS with fairness bolted on.
//!
//! Table 2 compares FaHaNa against MONAS [32] with fairness added as an
//! extra objective. Architecturally the baseline differs from FaHaNa in two
//! ways: it searches *every* block of the backbone (no frozen header, so the
//! space is ~10^19 instead of ~10^9) and every child is trained end to end
//! (no pretrained header parameters to reuse), which is what makes its
//! search an order of magnitude slower on the paper's cluster.

use crate::search::{FahanaConfig, FahanaSearch, SearchOutcome};
use crate::Result;

/// Configuration of a MONAS baseline run. It wraps [`FahanaConfig`] and
/// forces the "no freezing" setting.
#[derive(Debug, Clone, Default)]
pub struct MonasConfig {
    /// The underlying search settings (the `use_freezing` flag is ignored
    /// and always `false`).
    pub base: FahanaConfig,
}

impl MonasConfig {
    /// Creates a MONAS configuration mirroring a FaHaNa configuration, so
    /// the two can be compared under identical constraints (Table 2).
    pub fn matching(fahana: &FahanaConfig) -> Self {
        MonasConfig {
            base: fahana.clone(),
        }
    }
}

/// The MONAS baseline search engine.
#[derive(Debug)]
pub struct MonasSearch {
    inner: FahanaSearch,
}

impl MonasSearch {
    /// Builds the baseline search (full backbone, no freezing).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FahanaSearch::new`].
    pub fn new(config: MonasConfig) -> Result<Self> {
        let base = FahanaConfig {
            use_freezing: false,
            ..config.base
        };
        Ok(MonasSearch {
            inner: FahanaSearch::new(base)?,
        })
    }

    /// Number of searchable slots (the whole backbone).
    pub fn searchable_slots(&self) -> usize {
        self.inner.searchable_slots()
    }

    /// Runs the baseline with the surrogate evaluator.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FahanaSearch::run`](crate::FahanaSearch::run).
    pub fn run(self) -> Result<SearchOutcome> {
        self.inner.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dermsim::DermatologyConfig;

    fn tiny_base(episodes: usize) -> FahanaConfig {
        FahanaConfig {
            episodes,
            dataset: DermatologyConfig {
                samples: 200,
                image_size: 8,
                ..DermatologyConfig::default()
            },
            variation_batch: 4,
            seed: 11,
            ..FahanaConfig::default()
        }
    }

    #[test]
    fn monas_searches_the_full_backbone() {
        let monas = MonasSearch::new(MonasConfig { base: tiny_base(5) }).unwrap();
        // MobileNetV2 backbone has 17 blocks, all searchable for MONAS
        assert_eq!(monas.searchable_slots(), 17);
    }

    #[test]
    fn monas_matching_preserves_constraints() {
        let fahana_cfg = tiny_base(5);
        let monas_cfg = MonasConfig::matching(&fahana_cfg);
        assert_eq!(
            monas_cfg.base.reward.timing_constraint_ms,
            fahana_cfg.reward.timing_constraint_ms
        );
    }

    #[test]
    fn monas_run_produces_an_outcome_with_larger_space() {
        let fahana = crate::FahanaSearch::new(tiny_base(10))
            .unwrap()
            .run()
            .unwrap();
        let monas = MonasSearch::new(MonasConfig {
            base: tiny_base(10),
        })
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(monas.history.len(), 10);
        assert!(monas.space_log10_size > fahana.space_log10_size);
        assert_eq!(monas.frozen_blocks, 0);
    }
}
