//! The calibrated analytic training-outcome model ("surrogate evaluator").
//!
//! Training every child network from scratch — the paper uses a 48-GPU
//! cluster and 500 epochs per child — is not reproducible on a laptop, and
//! the NAS loop only consumes two scalars per child: accuracy and
//! unfairness. The surrogate predicts those scalars from the factors the
//! paper itself identifies as decisive:
//!
//! * **capacity** — larger models are more accurate and fairer, with
//!   saturation (Figure 1);
//! * **tail composition** — RB/CB blocks in the tail improve fairness and
//!   (for small models) accuracy, because "the end layers are sensitive to
//!   fairness" (Observation 3 / Section 4.5);
//! * **block heterogeneity** — mixing block types beats a homogeneous
//!   design (Section 4.5);
//! * **group imbalance** — more minority data lowers the unfairness score
//!   and slightly raises accuracy (Figure 1(b), Table 4);
//! * seeded per-architecture noise, standing in for training stochasticity.
//!
//! The constants are calibrated so that the eleven reference networks land
//! near their published numbers in the paper's Tables 1 and 3.

use archspace::{Architecture, BlockKind};
use dermsim::{Dataset, Group};

use crate::evaluate::{Evaluate, FairnessEvaluation};
use crate::fairness::{FairnessReport, GroupAccuracy};
use crate::Result;

/// Configuration of the surrogate evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateConfig {
    /// Fraction of evaluation samples belonging to the minority group.
    pub minority_fraction: f64,
    /// Majority-to-minority imbalance ratio of the *training* data.
    pub imbalance_ratio: f64,
    /// The imbalance ratio the constants were calibrated at (the paper's
    /// unbalanced dermatology dataset).
    pub reference_imbalance: f64,
    /// Standard deviation of the per-architecture noise.
    pub noise_scale: f64,
    /// Seed mixed into the per-architecture noise.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            minority_fraction: 0.15,
            imbalance_ratio: 5.67,
            reference_imbalance: 5.67,
            noise_scale: 0.004,
            seed: 2022,
        }
    }
}

/// The analytic accuracy/fairness model.
///
/// # Example
///
/// ```
/// use archspace::zoo;
/// use evaluator::{Evaluate, SurrogateEvaluator};
///
/// let mut surrogate = SurrogateEvaluator::default();
/// let small = surrogate.evaluate(&zoo::paper_fahana_small(5, 64))?;
/// let mnasnet = surrogate.evaluate(&zoo::reference_architecture(
///     zoo::ReferenceModel::MnasNet05, 5, 64))?;
/// // the paper's headline: the small heterogeneous network is fairer
/// assert!(small.unfairness() < mnasnet.unfairness());
/// # Ok::<(), evaluator::EvalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SurrogateEvaluator {
    config: SurrogateConfig,
}

impl SurrogateEvaluator {
    /// Creates a surrogate with an explicit configuration.
    pub fn new(config: SurrogateConfig) -> Self {
        SurrogateEvaluator { config }
    }

    /// Derives the imbalance/minority settings from a dataset.
    pub fn for_dataset(dataset: &Dataset, seed: u64) -> Self {
        let stats = dataset.stats();
        let ratio = if stats.imbalance_ratio.is_finite() {
            stats.imbalance_ratio as f64
        } else {
            SurrogateConfig::default().imbalance_ratio
        };
        SurrogateEvaluator::new(SurrogateConfig {
            minority_fraction: stats.minority_fraction() as f64,
            imbalance_ratio: ratio,
            seed,
            ..SurrogateConfig::default()
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SurrogateConfig {
        &self.config
    }

    /// Replaces the imbalance ratio (used when evaluating on a balanced
    /// dataset, Table 4).
    pub fn with_imbalance_ratio(mut self, ratio: f64) -> Self {
        self.config.imbalance_ratio = ratio;
        self
    }

    /// Fraction of the tail (last 40% of active blocks, at least one) that
    /// uses the expressive RB/CB block types.
    pub fn tail_conv_fraction(arch: &Architecture) -> f64 {
        let active = arch.blocks().iter().filter(|b| !b.skipped).count();
        if active == 0 {
            return 0.0;
        }
        let tail_len = ((active as f64 * 0.4).ceil() as usize).max(1);
        let conv_like = arch
            .blocks()
            .iter()
            .filter(|b| !b.skipped)
            .skip(active - tail_len)
            .filter(|b| matches!(b.kind, BlockKind::Rb | BlockKind::Cb))
            .count();
        conv_like as f64 / tail_len as f64
    }

    /// Block-type heterogeneity: distinct kinds used / 4.
    pub fn heterogeneity(arch: &Architecture) -> f64 {
        let mut seen = [false; BlockKind::ALL.len()];
        for block in arch.blocks().iter().filter(|b| !b.skipped) {
            if let Some(i) = BlockKind::ALL.iter().position(|k| *k == block.kind) {
                seen[i] = true;
            }
        }
        let distinct = seen.iter().filter(|&&s| s).count();
        distinct as f64 / BlockKind::ALL.len() as f64
    }

    fn imbalance_norm(&self) -> f64 {
        let ref_ratio = self.config.reference_imbalance.max(1.01);
        ((self.config.imbalance_ratio - 1.0) / (ref_ratio - 1.0)).clamp(0.05, 1.3)
    }

    fn noise(&self, arch: &Architecture) -> f64 {
        // deterministic per-architecture jitter derived from a hash of the
        // name, the parameter count and the seed
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.config.seed;
        for byte in arch.name().bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= arch.param_count();
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (unit - 0.5) * 2.0 * self.config.noise_scale
    }

    /// Predicted overall accuracy for an architecture.
    pub fn predict_accuracy(&self, arch: &Architecture) -> f64 {
        let p_m = arch.param_millions();
        let tail = Self::tail_conv_fraction(arch);
        let het = Self::heterogeneity(arch);
        let depth = arch.depth() as f64;
        let imb = self.imbalance_norm();

        let capacity = 0.845 - 0.085 * (-p_m / 1.5).exp();
        let structure = 0.035 * tail + 0.010 * het;
        let depth_penalty = if depth < 3.0 {
            0.05 * (3.0 - depth)
        } else {
            0.0
        };
        // balancing the dataset buys a small accuracy improvement (Table 4)
        let balance_bonus = 0.010 * (1.0 - imb).max(0.0);
        let raw = capacity + structure - depth_penalty + balance_bonus + self.noise(arch);
        raw.clamp(0.05, 0.845)
    }

    /// Predicted unfairness score for an architecture.
    pub fn predict_unfairness(&self, arch: &Architecture) -> f64 {
        let p_m = arch.param_millions();
        let tail = Self::tail_conv_fraction(arch);
        let het = Self::heterogeneity(arch);
        let imb = self.imbalance_norm();

        let floor = (0.185 - 0.025 * tail - 0.020 * het) * (0.7 + 0.3 * imb);
        let capacity_gap = 0.9 * (-p_m / 0.7).exp() * (1.0 - 0.95 * tail) * imb;
        (floor + capacity_gap + self.noise(arch)).clamp(0.02, 0.6)
    }

    fn build_report(&self, arch: &Architecture) -> FairnessReport {
        let accuracy = self.predict_accuracy(arch);
        let unfairness = self.predict_unfairness(arch);
        // With two groups the unfairness score equals the accuracy gap, and
        // the overall accuracy is the group-weighted mean:
        //   A_light = A + f_dark · U,   A_dark = A − f_light · U
        let f_dark = self.config.minority_fraction.clamp(0.0, 0.5);
        let f_light = 1.0 - f_dark;
        let light = (accuracy + f_dark * unfairness).min(1.0);
        let dark = (accuracy - f_light * unfairness).max(0.0);
        FairnessReport::new(
            accuracy,
            vec![
                GroupAccuracy {
                    group: Group::LIGHT_SKIN,
                    accuracy: light,
                    count: 0,
                },
                GroupAccuracy {
                    group: Group::DARK_SKIN,
                    accuracy: dark,
                    count: 0,
                },
            ],
        )
    }
}

impl Default for SurrogateEvaluator {
    fn default() -> Self {
        SurrogateEvaluator::new(SurrogateConfig::default())
    }
}

impl Evaluate for SurrogateEvaluator {
    fn evaluate_with_frozen(
        &mut self,
        arch: &Architecture,
        frozen_blocks: usize,
    ) -> Result<FairnessEvaluation> {
        arch.validate()?;
        let report = self.build_report(arch);
        let frozen_params: u64 = arch
            .blocks()
            .iter()
            .take(frozen_blocks)
            .map(|b| b.param_count())
            .sum();
        Ok(FairnessEvaluation {
            architecture: arch.name().to_string(),
            report,
            trained_params: arch.param_count().saturating_sub(frozen_params),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archspace::zoo::{self, ReferenceModel};
    use archspace::{BlockConfig, BlockKind};

    fn surrogate() -> SurrogateEvaluator {
        SurrogateEvaluator::default()
    }

    fn eval(model: ReferenceModel) -> FairnessEvaluation {
        let arch = zoo::reference_architecture(model, 5, 64);
        surrogate().evaluate(&arch).unwrap()
    }

    #[test]
    fn reference_accuracies_are_near_paper_values() {
        // loose calibration check: within 5 accuracy points of the paper
        let cases = [
            (ReferenceModel::MobileNetV2, 0.8105),
            (ReferenceModel::MnasNet05, 0.7812),
            (ReferenceModel::ResNet18, 0.8308),
            (ReferenceModel::ResNet50, 0.8381),
            (ReferenceModel::ProxylessNasGpu, 0.8321),
        ];
        for (model, paper) in cases {
            let ours = eval(model).accuracy();
            assert!(
                (ours - paper).abs() < 0.05,
                "{model}: predicted {ours:.3} vs paper {paper:.3}"
            );
        }
    }

    #[test]
    fn reference_unfairness_is_near_paper_values() {
        let cases = [
            (ReferenceModel::MobileNetV2, 0.2325),
            (ReferenceModel::MnasNet05, 0.4521),
            (ReferenceModel::ResNet18, 0.2155),
            (ReferenceModel::ResNet50, 0.1855),
        ];
        for (model, paper) in cases {
            let ours = eval(model).unfairness();
            assert!(
                (ours - paper).abs() < 0.12,
                "{model}: predicted {ours:.3} vs paper {paper:.3}"
            );
        }
    }

    #[test]
    fn larger_models_within_a_family_are_fairer() {
        // the paper's Figure 1(a) observation
        assert!(
            eval(ReferenceModel::MnasNet05).unfairness()
                > eval(ReferenceModel::MnasNet10).unfairness()
        );
        assert!(
            eval(ReferenceModel::MobileNetV3Small).unfairness()
                > eval(ReferenceModel::MobileNetV3Large).unfairness()
        );
        assert!(
            eval(ReferenceModel::ResNet18).unfairness()
                >= eval(ReferenceModel::ResNet50).unfairness()
        );
    }

    #[test]
    fn fahana_nets_beat_size_peers_on_fairness() {
        let mut s = surrogate();
        let small = s.evaluate(&zoo::paper_fahana_small(5, 64)).unwrap();
        let fair = s.evaluate(&zoo::paper_fahana_fair(5, 64)).unwrap();
        // FaHaNa-Small is fairer than every sub-4M competitor
        for model in [
            ReferenceModel::MobileNetV2,
            ReferenceModel::MnasNet05,
            ReferenceModel::MnasNet10,
            ReferenceModel::MobileNetV3Small,
            ReferenceModel::ProxylessNasMobile,
        ] {
            assert!(
                small.unfairness() < eval(model).unfairness(),
                "FaHaNa-Small ({:.3}) should be fairer than {model}",
                small.unfairness()
            );
        }
        // FaHaNa-Fair is the fairest overall
        assert!(fair.unfairness() < eval(ReferenceModel::ResNet50).unfairness());
        // and neither sacrifices accuracy relative to MobileNetV2
        assert!(small.accuracy() >= eval(ReferenceModel::MobileNetV2).accuracy() - 0.01);
    }

    #[test]
    fn group_accuracies_are_consistent_with_unfairness() {
        let mut s = surrogate();
        let eval = s.evaluate(&zoo::mobilenet_v2(5, 64)).unwrap();
        let light = eval.report.group_accuracy(Group::LIGHT_SKIN).unwrap();
        let dark = eval.report.group_accuracy(Group::DARK_SKIN).unwrap();
        assert!(light > dark, "majority accuracy should exceed minority");
        assert!((eval.unfairness() - (light - dark)).abs() < 1e-9);
        assert!(light <= 1.0 && dark >= 0.0);
    }

    #[test]
    fn balancing_the_dataset_reduces_unfairness_and_helps_accuracy() {
        let arch = zoo::mobilenet_v2(5, 64);
        let mut unbalanced = surrogate();
        let mut balanced = surrogate().with_imbalance_ratio(1.15);
        let before = unbalanced.evaluate(&arch).unwrap();
        let after = balanced.evaluate(&arch).unwrap();
        assert!(after.unfairness() < before.unfairness());
        assert!(after.accuracy() >= before.accuracy());
    }

    #[test]
    fn unfairness_decreases_monotonically_with_minority_data_amount() {
        // Figure 1(b): 1×..5× minority data
        let arch = zoo::reference_architecture(ReferenceModel::MnasNet05, 5, 64);
        let mut last = f64::MAX;
        for multiplier in 1..=5 {
            let ratio = 5.67 / multiplier as f64;
            let mut s = surrogate().with_imbalance_ratio(ratio.max(1.0));
            let u = s.evaluate(&arch).unwrap().unfairness();
            assert!(
                u <= last + 1e-9,
                "unfairness should not increase with more minority data"
            );
            last = u;
        }
    }

    #[test]
    fn tail_fraction_and_heterogeneity_are_computed_correctly() {
        let arch = zoo::paper_fahana_fair(5, 64);
        // last 40% of 8 blocks = 4 blocks: CB, CB -> wait, tail is [CB, RB, RB] plus one
        let tail = SurrogateEvaluator::tail_conv_fraction(&arch);
        assert!(tail > 0.9, "FaHaNa-Fair tail is all CB/RB, got {tail}");
        let het = SurrogateEvaluator::heterogeneity(&arch);
        assert!((het - 0.75).abs() < 1e-9, "MB+CB+RB = 3 of 4 kinds");

        let mbv2 = zoo::mobilenet_v2(5, 64);
        assert_eq!(SurrogateEvaluator::tail_conv_fraction(&mbv2), 0.0);
    }

    #[test]
    fn frozen_blocks_reduce_trained_params_but_not_fairness() {
        let arch = zoo::mobilenet_v2(5, 64);
        let mut s = surrogate();
        let full = s.evaluate_with_frozen(&arch, 0).unwrap();
        let frozen = s.evaluate_with_frozen(&arch, 10).unwrap();
        assert!(frozen.trained_params < full.trained_params);
        assert!((frozen.unfairness() - full.unfairness()).abs() < 1e-9);
        assert!((frozen.accuracy() - full.accuracy()).abs() < 1e-9);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let arch = zoo::paper_fahana_small(5, 64);
        let mut a = surrogate();
        let mut b = surrogate();
        assert_eq!(
            a.evaluate(&arch).unwrap().report,
            b.evaluate(&arch).unwrap().report
        );
    }

    #[test]
    fn very_shallow_networks_are_penalised() {
        let mut s = surrogate();
        let shallow = Architecture::builder(5)
            .name("shallow")
            .stem(16, 3)
            .input_size(64)
            .block(BlockConfig::new(BlockKind::Cb, 16, 32, 64, 3))
            .build()
            .unwrap();
        let deeper = Architecture::builder(5)
            .name("deeper")
            .stem(16, 3)
            .input_size(64)
            .block(BlockConfig::new(BlockKind::Cb, 16, 32, 32, 3))
            .block(BlockConfig::new(BlockKind::Rb, 32, 32, 32, 3))
            .block(BlockConfig::new(BlockKind::Rb, 32, 48, 64, 3))
            .block(BlockConfig::new(BlockKind::Rb, 64, 64, 64, 3))
            .build()
            .unwrap();
        assert!(s.evaluate(&shallow).unwrap().accuracy() < s.evaluate(&deeper).unwrap().accuracy());
    }

    #[test]
    fn for_dataset_reads_imbalance_from_stats() {
        let dataset = dermsim::DermatologyGenerator::new(dermsim::DermatologyConfig {
            samples: 400,
            minority_fraction: 0.25,
            image_size: 6,
            ..dermsim::DermatologyConfig::default()
        })
        .generate();
        let s = SurrogateEvaluator::for_dataset(&dataset, 7);
        assert!((s.config().minority_fraction - 0.25).abs() < 0.05);
        assert!(s.config().imbalance_ratio > 2.0);
    }
}
