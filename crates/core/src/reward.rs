//! The reward function of Eq. 1 and its configuration.

/// Configuration of the reward (paper Eq. 1).
///
/// `R = α·A − β·U` when the latency and accuracy constraints are met, and
/// `−1` otherwise. `α = β = 1` in the paper's evaluation. The optional
/// `soft_constraints` mode replaces the hard `−1` with a graded penalty and
/// exists only for the ablation bench (`bench_constraint_mode`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardConfig {
    /// Weight of the accuracy term (α).
    pub alpha: f64,
    /// Weight of the unfairness term (β).
    pub beta: f64,
    /// Accuracy constraint `AC` (fraction).
    pub accuracy_constraint: f64,
    /// Timing constraint `TC` in milliseconds.
    pub timing_constraint_ms: f64,
    /// If `true`, constraint violations are penalised proportionally rather
    /// than with a flat −1 (ablation only; the paper uses hard constraints).
    pub soft_constraints: bool,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            alpha: 1.0,
            beta: 1.0,
            accuracy_constraint: 0.81,
            timing_constraint_ms: 1500.0,
            soft_constraints: false,
        }
    }
}

/// The reward of one episode, with the constraint outcome attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reward {
    /// The scalar value fed to the policy gradient.
    pub value: f64,
    /// Whether the child met both constraints ("valid" in Table 2).
    pub valid: bool,
}

impl RewardConfig {
    /// Evaluates Eq. 1 for a child network.
    ///
    /// # Example
    ///
    /// ```
    /// use fahana::RewardConfig;
    ///
    /// let cfg = RewardConfig::default();
    /// // MobileNetV2's published numbers: accuracy 81.05%, unfairness 0.2325,
    /// // and it meets the relaxed latency constraint → reward ≈ 0.58
    /// let r = cfg.compute(0.8105, 0.2325, 1000.0);
    /// assert!((r.value - 0.578).abs() < 0.01);
    /// assert!(r.valid);
    /// // violating the timing constraint yields the flat −1
    /// assert_eq!(cfg.compute(0.9, 0.0, 2000.0).value, -1.0);
    /// ```
    pub fn compute(&self, accuracy: f64, unfairness: f64, latency_ms: f64) -> Reward {
        let meets_latency = latency_ms <= self.timing_constraint_ms;
        let meets_accuracy = accuracy >= self.accuracy_constraint;
        let valid = meets_latency && meets_accuracy;
        if valid {
            Reward {
                value: self.alpha * accuracy - self.beta * unfairness,
                valid,
            }
        } else if self.soft_constraints {
            // graded penalty: how far past the constraints the child is
            let latency_excess =
                ((latency_ms - self.timing_constraint_ms) / self.timing_constraint_ms).max(0.0);
            let accuracy_deficit = (self.accuracy_constraint - accuracy).max(0.0);
            Reward {
                value: -(0.2 + latency_excess + 2.0 * accuracy_deficit).min(1.0),
                valid,
            }
        } else {
            Reward { value: -1.0, valid }
        }
    }

    /// The best achievable reward (all-correct, perfectly fair model).
    pub fn ideal(&self) -> f64 {
        self.alpha
    }
}

/// Exponential-moving-average baseline used by the policy gradient (the
/// `b` of Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmaBaseline {
    decay: f64,
    value: Option<f64>,
}

impl EmaBaseline {
    /// Creates a baseline with the given decay (0.95 is typical).
    pub fn new(decay: f64) -> Self {
        EmaBaseline { decay, value: None }
    }

    /// Current baseline value (0 until the first observation).
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// Updates the baseline with a new reward and returns the advantage
    /// (`R − b`, using the baseline *before* the update).
    pub fn advantage(&mut self, reward: f64) -> f64 {
        let before = self.value.unwrap_or(reward);
        let advantage = reward - before;
        self.value = Some(self.decay * before + (1.0 - self.decay) * reward);
        advantage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn valid_reward_is_alpha_a_minus_beta_u() {
        let cfg = RewardConfig {
            alpha: 2.0,
            beta: 0.5,
            ..RewardConfig::default()
        };
        let r = cfg.compute(0.9, 0.2, 100.0);
        assert!(r.valid);
        assert!((r.value - (2.0 * 0.9 - 0.5 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn constraint_violations_return_minus_one() {
        let cfg = RewardConfig::default();
        assert_eq!(cfg.compute(0.5, 0.1, 100.0).value, -1.0, "accuracy too low");
        assert_eq!(
            cfg.compute(0.9, 0.1, 9999.0).value,
            -1.0,
            "latency too high"
        );
        assert!(!cfg.compute(0.9, 0.1, 9999.0).valid);
    }

    #[test]
    fn table3_reward_column_is_reproduced() {
        // Table 3 reports rewards for the valid G1 models with AC=81%:
        // MobileNetV2 0.58, ProxylessNAS(M) 0.50, FaHaNa-Small 0.62.
        let cfg = RewardConfig {
            timing_constraint_ms: f64::INFINITY,
            ..RewardConfig::default()
        };
        let mbv2 = cfg.compute(0.8105, 0.2325, 0.0).value;
        let proxyless = cfg.compute(0.8127, 0.3094, 0.0).value;
        let small = cfg.compute(0.8128, 0.1973, 0.0).value;
        assert!((mbv2 - 0.58).abs() < 0.005);
        assert!((proxyless - 0.50).abs() < 0.005);
        assert!((small - 0.62).abs() < 0.005);
    }

    #[test]
    fn soft_mode_grades_violations() {
        let cfg = RewardConfig {
            soft_constraints: true,
            ..RewardConfig::default()
        };
        let mild = cfg.compute(0.80, 0.1, 1600.0).value;
        let severe = cfg.compute(0.40, 0.1, 6000.0).value;
        assert!(mild > severe);
        assert!(mild < 0.0 && severe >= -1.0);
    }

    #[test]
    fn ema_baseline_tracks_rewards() {
        let mut baseline = EmaBaseline::new(0.9);
        assert_eq!(baseline.value(), 0.0);
        let first_advantage = baseline.advantage(1.0);
        // first observation: baseline initialised to the reward, advantage 0
        assert_eq!(first_advantage, 0.0);
        for _ in 0..50 {
            baseline.advantage(0.5);
        }
        assert!((baseline.value() - 0.5).abs() < 0.05);
        // a better-than-baseline reward has positive advantage
        assert!(baseline.advantage(0.9) > 0.0);
    }

    proptest! {
        #[test]
        fn prop_valid_rewards_are_bounded(acc in 0.81f64..1.0, unfair in 0.0f64..1.0) {
            let cfg = RewardConfig::default();
            let r = cfg.compute(acc, unfair, 0.0);
            prop_assert!(r.valid);
            prop_assert!(r.value <= cfg.ideal());
            prop_assert!(r.value >= -cfg.beta);
        }

        #[test]
        fn prop_reward_monotone_in_accuracy(a1 in 0.81f64..0.9, delta in 0.0f64..0.09, unfair in 0.0f64..0.5) {
            let cfg = RewardConfig::default();
            let lo = cfg.compute(a1, unfair, 0.0).value;
            let hi = cfg.compute(a1 + delta, unfair, 0.0).value;
            prop_assert!(hi >= lo);
        }
    }
}
