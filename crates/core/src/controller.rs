//! The RNN controller and its Monte-Carlo policy-gradient update (Eq. 2).

use std::fmt;
use std::sync::Arc;

use ftensor::{kernels, SeededRng, Tensor};
use neural::{Adam, Dense, Layer, LstmCell, LstmRecord, LstmState, Optimizer};

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
///
/// A sample also carries what the forward pass that sampled it computed, so
/// that [`RnnController::update`] backpropagates without running the episode
/// again. Only [`RnnController::sample_episode`] makes samples. The record
/// is private, dies with the sample, and is ignored by `PartialEq` and
/// `Debug`; it is valid only for the controller and weights that took it,
/// and only for the sampled actions.
#[derive(Clone)]
pub struct EpisodeSample {
    /// One categorical action per decision step.
    pub actions: Vec<usize>,
    /// Sum of the log-probabilities of the sampled actions.
    pub log_prob: f64,
    record: ForwardRecord,
}

impl PartialEq for EpisodeSample {
    fn eq(&self, other: &Self) -> bool {
        self.actions == other.actions && self.log_prob == other.log_prob
    }
}

impl fmt::Debug for EpisodeSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpisodeSample")
            .field("actions", &self.actions)
            .field("log_prob", &self.log_prob)
            .finish()
    }
}

/// What the forward pass of a sampled episode computed.
#[derive(Clone)]
struct ForwardRecord {
    /// The weight generation of the controller that took the record.
    generation: Arc<()>,
    /// The actions that were sampled.
    actions: Vec<usize>,
    lstm: LstmRecord,
    /// Every step's action probabilities, concatenated in step order.
    probs: Vec<f32>,
}

/// The recurrent controller of Figure 4 ➀.
///
/// Every architecture decision (block kind, kernel, `CH2`, `CH3`, skip — for
/// every searchable slot) is one LSTM step: the previous decision is fed
/// back one-hot, the hidden state is projected by a per-step linear head to
/// the decision's choice count, and the action is sampled from the softmax.
/// Updates follow the Monte-Carlo policy gradient of Eq. 2 with a discount
/// and an EMA baseline.
///
/// There is one forward routine and one backpropagation. A sampled episode
/// keeps its [`LstmRecord`] and per-step probabilities, and the update
/// backpropagates from them and from nothing else. A sample whose record
/// cannot be trusted — sampled before an earlier update, sampled by another
/// controller, or whose actions were edited after sampling — is rejected as
/// [`FahanaError::InvalidEpisode`].
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
    /// Identity of the current weights: replaced by every update, so a
    /// record holding an older one (or another controller's) is stale.
    generation: Arc<()>,
    /// One-hot input of the current step, `(1, input_size)`.
    input: Tensor,
    /// Head output of the current step (the first `card` entries).
    logits: Vec<f32>,
    /// Head input of a step during the update.
    hidden: Vec<f32>,
    /// `dL/dlogits` of a step during the update.
    dlogits: Vec<f32>,
    /// `dL/dh` of every step of an episode during the update.
    grad_h: Vec<f32>,
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
        let hidden = config.hidden_size;
        let mut rng = SeededRng::new(config.seed);
        let lstm = LstmCell::new(input_size, hidden, &mut rng)?;
        let heads: Vec<Dense> = cardinalities
            .iter()
            .map(|&card| Dense::new(hidden, card, &mut rng))
            .collect();
        let head_optimizers = (0..heads.len())
            .map(|_| Adam::new(config.learning_rate))
            .collect();
        Ok(RnnController {
            input_size,
            lstm,
            heads,
            lstm_optimizer: Adam::new(config.learning_rate),
            head_optimizers,
            baseline: EmaBaseline::new(config.baseline_decay),
            config,
            rng,
            updates: 0,
            generation: Arc::new(()),
            input: Tensor::zeros(&[1, input_size]),
            logits: vec![0.0; max_card],
            hidden: vec![0.0; hidden],
            dlogits: vec![0.0; max_card],
            grad_h: vec![0.0; cardinalities.len() * hidden],
            cardinalities,
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

    /// Writes the one-hot encoding of the previous decision (the start token
    /// for the first) into the input buffer.
    fn input_for(&mut self, previous_action: Option<usize>) {
        let index = match previous_action {
            Some(a) => a.min(self.input_size - 2),
            None => self.input_size - 1,
        };
        let x = self.input.as_mut_slice();
        x.fill(0.0);
        x[index] = 1.0;
    }

    /// Starts an LSTM episode from a zero state.
    fn begin_episode(&mut self) -> Result<()> {
        let zero = LstmState::zeros(1, self.config.hidden_size);
        Ok(self.lstm.begin_episode(&zero)?)
    }

    /// Runs decision `step` after `previous` and writes its action
    /// probabilities into `probs` (`cardinalities[step]` long).
    fn forward_step(
        &mut self,
        step: usize,
        previous: Option<usize>,
        probs: &mut [f32],
    ) -> Result<()> {
        self.input_for(previous);
        let h = self.lstm.step(&self.input)?;
        let logits = &mut self.logits[..probs.len()];
        self.heads[step].forward_row_into(h, logits)?;
        kernels::softmax_into(logits, probs, 1, probs.len());
        Ok(())
    }

    /// Samples one episode from the current policy.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (which indicate a programming error rather
    /// than a recoverable condition).
    pub fn sample_episode(&mut self) -> Result<EpisodeSample> {
        self.begin_episode()?;
        let steps = self.cardinalities.len();
        let mut actions = Vec::with_capacity(steps);
        let mut probs = vec![0.0f32; self.cardinalities.iter().sum()];
        let mut log_prob = 0.0f64;
        let mut previous = None;
        let mut offset = 0;
        for step in 0..steps {
            let card = self.cardinalities[step];
            let step_probs = &mut probs[offset..offset + card];
            offset += card;
            self.forward_step(step, previous, step_probs)?;
            let action = self.rng.sample_weighted(step_probs);
            log_prob += (step_probs[action].max(1e-12) as f64).ln();
            actions.push(action);
            previous = Some(action);
        }
        let record = ForwardRecord {
            generation: Arc::clone(&self.generation),
            actions: actions.clone(),
            lstm: self.lstm.take_record(),
            probs,
        };
        Ok(EpisodeSample {
            actions,
            log_prob,
            record,
        })
    }

    /// The probability distribution of the first decision (useful for tests
    /// and for inspecting what the controller has learned).
    pub fn first_step_distribution(&mut self) -> Result<Vec<f32>> {
        self.begin_episode()?;
        let mut probs = vec![0.0f32; self.cardinalities[0]];
        self.forward_step(0, None, &mut probs)?;
        Ok(probs)
    }

    /// Applies one Monte-Carlo policy-gradient update (Eq. 2) from a batch
    /// of episodes and their rewards.
    ///
    /// # Errors
    ///
    /// Returns [`FahanaError::InvalidEpisode`] — before changing any state —
    /// if an episode's action count does not match the controller's decision
    /// count, an action is outside its decision's choices, a reward is not
    /// finite, or the sample's record cannot be trusted: it was sampled
    /// before an earlier update or by another controller, or its actions
    /// were edited after sampling.
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
        let batch = episodes.len() as f32;
        // zero gradients once per update; they accumulate across episodes
        self.lstm.zero_grad();
        for head in &mut self.heads {
            head.zero_grad();
        }
        for (sample, reward) in episodes {
            let advantage = self.baseline.advantage(*reward) as f32;
            self.backpropagate(&sample.record, advantage, batch)?;
        }
        self.lstm_optimizer.step(&mut self.lstm);
        for (head, optimizer) in self.heads.iter_mut().zip(self.head_optimizers.iter_mut()) {
            optimizer.step(head);
        }
        self.updates += 1;
        self.generation = Arc::new(());
        Ok(())
    }

    /// Accumulates the gradients of one recorded episode whose advantage is
    /// `advantage`, in an update over `batch` episodes.
    fn backpropagate(&mut self, record: &ForwardRecord, advantage: f32, batch: f32) -> Result<()> {
        let steps = self.cardinalities.len();
        let hidden = self.config.hidden_size;
        let mut offset = 0;
        for (t, &action) in record.actions.iter().enumerate() {
            let card = self.cardinalities[t];
            // dL/dlogits for L = −Σ γ^{T−t} (R−b) log π(a_t)
            let discount = self.config.discount.powi((steps - 1 - t) as i32) as f32;
            let scale = advantage * discount / batch;
            let dlogits = &mut self.dlogits[..card];
            dlogits.copy_from_slice(&record.probs[offset..offset + card]);
            offset += card;
            dlogits[action] -= 1.0;
            for v in dlogits.iter_mut() {
                *v *= scale;
            }
            record.lstm.hidden_into(t, &mut self.hidden);
            self.heads[t].backward_row(
                &self.hidden,
                dlogits,
                &mut self.grad_h[t * hidden..(t + 1) * hidden],
            )?;
        }
        self.lstm.backward_record(&record.lstm, &self.grad_h)?;
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
        if !Arc::ptr_eq(&sample.record.generation, &self.generation) {
            return Err("sampled before an earlier update or by another controller".into());
        }
        if sample.record.actions != sample.actions {
            return Err("actions were edited after sampling".into());
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

    /// A deterministic reward that depends on every action.
    fn reward_of(sample: &EpisodeSample) -> f64 {
        let score: usize = sample
            .actions
            .iter()
            .enumerate()
            .map(|(t, &a)| (a + 1) * (t + 2))
            .sum();
        (score % 13) as f64 / 13.0
    }

    fn sample_chunk(ctrl: &mut RnnController, n: usize) -> Vec<(EpisodeSample, f64)> {
        (0..n)
            .map(|_| {
                let sample = ctrl.sample_episode().unwrap();
                let reward = reward_of(&sample);
                (sample, reward)
            })
            .collect()
    }

    fn first_step_bits(ctrl: &mut RnnController) -> Vec<u32> {
        let probs = ctrl.first_step_distribution().unwrap();
        probs.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn update_rejects_mismatched_episodes() {
        let mut ctrl = controller(vec![4, 3], 5);
        let mut bad = ctrl.sample_episode().unwrap();
        bad.actions.truncate(1);
        let err = ctrl.update(&[(bad, 1.0)]).unwrap_err();
        assert!(err.to_string().contains("1 actions"), "{err}");
        assert!(ctrl.update(&[]).is_ok());
    }

    #[test]
    fn rejected_update_leaves_the_baseline_and_policy_untouched() {
        let mut ctrl = controller(vec![4, 3], 11);
        let mut twin = controller(vec![4, 3], 11);
        let mut batch = sample_chunk(&mut ctrl, 2);
        let twin_batch = sample_chunk(&mut twin, 2);
        batch[1].0.actions.pop();
        let err = ctrl.update(&batch).unwrap_err();
        assert_eq!(ctrl.baseline(), 0.0);
        assert_eq!(ctrl.update_count(), 0);
        assert!(
            matches!(err, FahanaError::InvalidEpisode { episode: 1, .. }),
            "{err}"
        );
        assert_eq!(first_step_bits(&mut ctrl), first_step_bits(&mut twin));
        // the next valid update sees the same state as a fresh controller
        ctrl.update(&batch[..1]).unwrap();
        twin.update(&twin_batch[..1]).unwrap();
        assert_eq!(ctrl.baseline(), twin.baseline());
        assert_eq!(first_step_bits(&mut ctrl), first_step_bits(&mut twin));
    }

    #[test]
    fn update_rejects_an_action_outside_its_cardinality() {
        let mut ctrl = controller(vec![4, 3], 12);
        let mut sample = ctrl.sample_episode().unwrap();
        sample.actions[0] = 9;
        let err = ctrl.update(&[(sample, 1.0)]).unwrap_err();
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
            let mut batch = sample_chunk(&mut ctrl, 2);
            batch[1].1 = bad;
            let err = ctrl.update(&batch).unwrap_err();
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
    fn stale_foreign_and_edited_samples_are_rejected() {
        let cards = vec![4, 3, 5, 2];
        let mut ctrl = controller(cards.clone(), 22);
        let mut twin = controller(cards, 22);
        let stale = ctrl.sample_episode().unwrap();
        let batch = sample_chunk(&mut ctrl, 3);
        ctrl.update(&batch).unwrap();
        // the same seed and update count, so the twin's sample is equal
        twin.sample_episode().unwrap();
        let batch = sample_chunk(&mut twin, 3);
        twin.update(&batch).unwrap();
        let foreign = twin.sample_episode().unwrap();
        let own = ctrl.sample_episode().unwrap();
        assert_eq!(own, foreign);
        let mut edited = own.clone();
        edited.actions[0] = (edited.actions[0] + 1) % 4;

        let baseline = ctrl.baseline();
        let bits = first_step_bits(&mut ctrl);
        for (case, sample) in [("stale", stale), ("foreign", foreign), ("edited", edited)] {
            let batch = [(own.clone(), 0.3), (sample, 0.7)];
            let err = ctrl.update(&batch).unwrap_err();
            assert!(
                matches!(err, FahanaError::InvalidEpisode { episode: 1, .. }),
                "{case}: {err}"
            );
            assert_eq!(ctrl.baseline().to_bits(), baseline.to_bits(), "{case}");
            assert_eq!(ctrl.update_count(), 1, "{case}");
            assert_eq!(first_step_bits(&mut ctrl), bits, "{case}");
        }
        // the controller's own current sample is still accepted
        ctrl.update(&[(own, 0.3)]).unwrap();
        assert_eq!(ctrl.update_count(), 2);
    }

    #[test]
    fn decisions_reports_sequence_length() {
        let ctrl = controller(vec![4, 3, 2, 5], 0);
        assert_eq!(ctrl.decisions(), 4);
    }
}
