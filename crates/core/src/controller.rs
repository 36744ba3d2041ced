//! The RNN controller and its Monte-Carlo policy-gradient update (Eq. 2).

use ftensor::{SeededRng, Tensor};
use neural::{Adam, Dense, Layer, LstmCell, LstmState, Optimizer};

use crate::error::FahanaError;
use crate::reward::EmaBaseline;
use crate::Result;

/// Hyperparameters of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Hidden width of the LSTM.
    pub hidden_size: usize,
    /// Adam learning rate for controller updates.
    pub learning_rate: f32,
    /// Per-step discount factor `γ` of Eq. 2.
    pub discount: f64,
    /// Decay of the exponential-moving-average baseline `b`.
    pub baseline_decay: f64,
    /// Seed for action sampling and weight initialisation.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            hidden_size: 64,
            learning_rate: 0.006,
            discount: 0.99,
            baseline_decay: 0.9,
            seed: 0,
        }
    }
}

/// One sampled episode: the controller's architecture decisions plus the
/// total log-probability of having sampled them.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeSample {
    /// One categorical action per decision step.
    pub actions: Vec<usize>,
    /// Sum of the log-probabilities of the sampled actions.
    pub log_prob: f64,
}

/// The recurrent controller of Figure 4 ➀.
///
/// Every architecture decision (block kind, kernel, `CH2`, `CH3`, skip — for
/// every searchable slot) is one LSTM step: the previous decision is fed
/// back one-hot, the hidden state is projected by a per-step linear head to
/// the decision's choice count, and the action is sampled from the softmax.
/// Updates follow the Monte-Carlo policy gradient of Eq. 2 with a discount
/// and an EMA baseline.
#[derive(Debug)]
pub struct RnnController {
    cardinalities: Vec<usize>,
    input_size: usize,
    lstm: LstmCell,
    heads: Vec<Dense>,
    lstm_optimizer: Adam,
    head_optimizers: Vec<Adam>,
    baseline: EmaBaseline,
    config: ControllerConfig,
    rng: SeededRng,
    updates: usize,
}

impl RnnController {
    /// Creates a controller for a decision sequence with the given choice
    /// cardinalities (see
    /// [`SearchSpace::decision_cardinalities`](archspace::SearchSpace::decision_cardinalities)).
    ///
    /// # Errors
    ///
    /// Returns an error if `cardinalities` is empty or contains a zero.
    pub fn new(cardinalities: Vec<usize>, config: ControllerConfig) -> Result<Self> {
        if cardinalities.is_empty() {
            return Err(FahanaError::InvalidConfig(
                "controller needs at least one decision".into(),
            ));
        }
        if cardinalities.contains(&0) {
            return Err(FahanaError::InvalidConfig(
                "every decision needs at least one choice".into(),
            ));
        }
        let max_card = *cardinalities.iter().max().expect("non-empty");
        let input_size = max_card + 1; // +1 for the start token
        let mut rng = SeededRng::new(config.seed);
        let lstm = LstmCell::new(input_size, config.hidden_size, &mut rng)?;
        let heads: Vec<Dense> = cardinalities
            .iter()
            .map(|&card| Dense::new(config.hidden_size, card, &mut rng))
            .collect();
        let head_optimizers = (0..heads.len())
            .map(|_| Adam::new(config.learning_rate))
            .collect();
        Ok(RnnController {
            cardinalities,
            input_size,
            lstm,
            heads,
            lstm_optimizer: Adam::new(config.learning_rate),
            head_optimizers,
            baseline: EmaBaseline::new(config.baseline_decay),
            config,
            rng,
            updates: 0,
        })
    }

    /// Number of decisions per episode.
    pub fn decisions(&self) -> usize {
        self.cardinalities.len()
    }

    /// Number of policy-gradient updates applied so far.
    pub fn update_count(&self) -> usize {
        self.updates
    }

    /// Current value of the EMA reward baseline.
    pub fn baseline(&self) -> f64 {
        self.baseline.value()
    }

    fn input_for(&self, step: usize, previous_action: Option<usize>) -> Tensor {
        let mut x = Tensor::zeros(&[1, self.input_size]);
        let index = match previous_action {
            Some(a) => a.min(self.input_size - 2),
            None => self.input_size - 1,
        };
        let _ = step;
        x.as_mut_slice()[index] = 1.0;
        x
    }

    /// Samples one episode from the current policy.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (which indicate a programming error rather
    /// than a recoverable condition).
    pub fn sample_episode(&mut self) -> Result<EpisodeSample> {
        self.lstm.clear_cache();
        let mut state = LstmState::zeros(1, self.config.hidden_size);
        let mut actions = Vec::with_capacity(self.cardinalities.len());
        let mut log_prob = 0.0f64;
        let mut previous = None;
        for step in 0..self.cardinalities.len() {
            let x = self.input_for(step, previous);
            state = self.lstm.step(&x, &state)?;
            let logits = self.heads[step].forward(&state.h, false)?;
            let probs = logits.softmax().map_err(neural::NeuralError::from)?;
            let action = self.rng.sample_weighted(probs.as_slice());
            log_prob += (probs.as_slice()[action].max(1e-12) as f64).ln();
            actions.push(action);
            previous = Some(action);
        }
        Ok(EpisodeSample { actions, log_prob })
    }

    /// The probability distribution of the first decision (useful for tests
    /// and for inspecting what the controller has learned).
    pub fn first_step_distribution(&mut self) -> Result<Vec<f32>> {
        self.lstm.clear_cache();
        let state = LstmState::zeros(1, self.config.hidden_size);
        let x = self.input_for(0, None);
        let state = self.lstm.step(&x, &state)?;
        let logits = self.heads[0].forward(&state.h, false)?;
        let probs = logits.softmax().map_err(neural::NeuralError::from)?;
        self.lstm.clear_cache();
        Ok(probs.as_slice().to_vec())
    }

    /// Applies one Monte-Carlo policy-gradient update (Eq. 2) from a batch
    /// of episodes and their rewards.
    ///
    /// # Errors
    ///
    /// Returns [`FahanaError::InvalidEpisode`] — before changing any state —
    /// if an episode's action count does not match the controller's decision
    /// count, an action is outside its decision's choices, or a reward is
    /// not finite.
    pub fn update(&mut self, episodes: &[(EpisodeSample, f64)]) -> Result<()> {
        if episodes.is_empty() {
            return Ok(());
        }
        for (index, (sample, reward)) in episodes.iter().enumerate() {
            self.validate_episode(sample, *reward).map_err(|reason| {
                FahanaError::InvalidEpisode {
                    episode: index,
                    reason,
                }
            })?;
        }
        let steps = self.cardinalities.len();
        let batch = episodes.len() as f32;
        // zero gradients once per update; they accumulate across episodes
        self.lstm.zero_grad();
        for head in &mut self.heads {
            head.zero_grad();
        }
        for (sample, reward) in episodes {
            let advantage = self.baseline.advantage(*reward) as f32;
            // replay the episode with forced actions, accumulating gradients
            self.lstm.clear_cache();
            let mut state = LstmState::zeros(1, self.config.hidden_size);
            let mut grad_h: Vec<Tensor> = Vec::with_capacity(steps);
            let mut previous = None;
            for (t, &action) in sample.actions.iter().enumerate() {
                let x = self.input_for(t, previous);
                state = self.lstm.step(&x, &state)?;
                let logits = self.heads[t].forward(&state.h, true)?;
                let probs = logits.softmax().map_err(neural::NeuralError::from)?;
                // dL/dlogits for L = −Σ γ^{T−t} (R−b) log π(a_t)
                let discount = self.config.discount.powi((steps - 1 - t) as i32) as f32;
                let scale = advantage * discount / batch;
                let mut dlogits = probs.clone();
                dlogits.as_mut_slice()[action] -= 1.0;
                let dlogits = dlogits.scale(scale);
                let dh = self.heads[t].backward(&dlogits)?;
                grad_h.push(dh);
                previous = Some(action);
            }
            self.lstm.backward_through_time(&grad_h)?;
        }
        self.lstm_optimizer.step(&mut self.lstm);
        for (head, optimizer) in self.heads.iter_mut().zip(self.head_optimizers.iter_mut()) {
            optimizer.step(head);
        }
        self.updates += 1;
        Ok(())
    }

    fn validate_episode(
        &self,
        sample: &EpisodeSample,
        reward: f64,
    ) -> std::result::Result<(), String> {
        let steps = self.cardinalities.len();
        if sample.actions.len() != steps {
            return Err(format!(
                "{} actions, controller expects {steps}",
                sample.actions.len()
            ));
        }
        for (step, (&action, &card)) in sample.actions.iter().zip(&self.cardinalities).enumerate() {
            if action >= card {
                return Err(format!(
                    "action {action} at step {step} is outside its {card} choices"
                ));
            }
        }
        if !reward.is_finite() {
            return Err(format!("reward {reward} is not finite"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(cards: Vec<usize>, seed: u64) -> RnnController {
        RnnController::new(
            cards,
            ControllerConfig {
                hidden_size: 24,
                learning_rate: 0.02,
                seed,
                ..ControllerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates_cardinalities() {
        assert!(RnnController::new(vec![], ControllerConfig::default()).is_err());
        assert!(RnnController::new(vec![3, 0], ControllerConfig::default()).is_err());
        assert!(RnnController::new(vec![3, 2], ControllerConfig::default()).is_ok());
    }

    #[test]
    fn sampled_actions_respect_cardinalities() {
        let cards = vec![4, 3, 7, 8, 2, 4, 3, 7, 8, 2];
        let mut ctrl = controller(cards.clone(), 1);
        for _ in 0..25 {
            let sample = ctrl.sample_episode().unwrap();
            assert_eq!(sample.actions.len(), cards.len());
            for (a, &c) in sample.actions.iter().zip(cards.iter()) {
                assert!(*a < c, "action {a} out of range for cardinality {c}");
            }
            assert!(sample.log_prob < 0.0);
        }
    }

    #[test]
    fn sampling_is_reproducible_with_a_seed() {
        let mut a = controller(vec![4, 4, 4], 9);
        let mut b = controller(vec![4, 4, 4], 9);
        for _ in 0..5 {
            assert_eq!(
                a.sample_episode().unwrap().actions,
                b.sample_episode().unwrap().actions
            );
        }
    }

    #[test]
    fn policy_gradient_learns_a_simple_bandit() {
        // reward 1 when the first decision picks action 2, else 0 — after a
        // few updates the controller should strongly prefer action 2.
        let mut ctrl = controller(vec![4, 3], 3);
        let before = ctrl.first_step_distribution().unwrap()[2];
        for _ in 0..40 {
            let mut batch = Vec::new();
            for _ in 0..4 {
                let sample = ctrl.sample_episode().unwrap();
                let reward = if sample.actions[0] == 2 { 1.0 } else { 0.0 };
                batch.push((sample, reward));
            }
            ctrl.update(&batch).unwrap();
        }
        let after = ctrl.first_step_distribution().unwrap()[2];
        assert!(
            after > before + 0.2 && after > 0.5,
            "P(action 2) should grow substantially: before={before:.3} after={after:.3}"
        );
        assert_eq!(ctrl.update_count(), 40);
        assert!(ctrl.baseline() > 0.0);
    }

    #[test]
    fn update_rejects_mismatched_episodes() {
        let mut ctrl = controller(vec![4, 3], 5);
        let bad = EpisodeSample {
            actions: vec![0],
            log_prob: -1.0,
        };
        assert!(ctrl.update(&[(bad, 1.0)]).is_err());
        assert!(ctrl.update(&[]).is_ok());
    }

    fn episode(actions: Vec<usize>) -> EpisodeSample {
        EpisodeSample {
            actions,
            log_prob: -1.0,
        }
    }

    #[test]
    fn rejected_update_leaves_the_baseline_and_policy_untouched() {
        let mut ctrl = controller(vec![4, 3], 11);
        let mut twin = controller(vec![4, 3], 11);
        let batch = [(episode(vec![1, 2]), 5.0), (episode(vec![1]), 1.0)];
        let err = ctrl.update(&batch).unwrap_err();
        assert_eq!(ctrl.baseline(), 0.0);
        assert_eq!(ctrl.update_count(), 0);
        assert!(
            matches!(err, FahanaError::InvalidEpisode { episode: 1, .. }),
            "{err}"
        );
        assert_eq!(
            ctrl.first_step_distribution().unwrap(),
            twin.first_step_distribution().unwrap()
        );
        // the next valid update sees the same state as a fresh controller
        let good = [(episode(vec![1, 2]), 5.0)];
        ctrl.update(&good).unwrap();
        twin.update(&good).unwrap();
        assert_eq!(ctrl.baseline(), twin.baseline());
        assert_eq!(
            ctrl.first_step_distribution().unwrap(),
            twin.first_step_distribution().unwrap()
        );
    }

    #[test]
    fn update_rejects_an_action_outside_its_cardinality() {
        let mut ctrl = controller(vec![4, 3], 12);
        let err = ctrl.update(&[(episode(vec![9, 0]), 1.0)]).unwrap_err();
        assert!(
            matches!(err, FahanaError::InvalidEpisode { episode: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("action 9"), "{err}");
        assert_eq!(ctrl.baseline(), 0.0);
    }

    #[test]
    fn update_rejects_a_non_finite_reward() {
        let mut ctrl = controller(vec![4, 3], 13);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ctrl
                .update(&[(episode(vec![0, 1]), 1.0), (episode(vec![2, 0]), bad)])
                .unwrap_err();
            assert!(
                matches!(err, FahanaError::InvalidEpisode { episode: 1, .. }),
                "{err}"
            );
        }
        assert_eq!(ctrl.baseline(), 0.0);
        assert!(ctrl
            .first_step_distribution()
            .unwrap()
            .iter()
            .all(|p| p.is_finite()));
    }

    #[test]
    fn decisions_reports_sequence_length() {
        let ctrl = controller(vec![4, 3, 2, 5], 0);
        assert_eq!(ctrl.decisions(), 4);
    }
}
