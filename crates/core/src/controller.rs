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
/// A sample returned by [`RnnController::sample_episode`] also carries what
/// its forward pass computed, so that [`RnnController::update`] can
/// backpropagate without running the episode again. That record is private,
/// dies with the sample, and is ignored by `PartialEq` and `Debug`; the
/// update only trusts it for the controller and weights it was taken with.
#[derive(Clone)]
pub struct EpisodeSample {
    /// One categorical action per decision step.
    pub actions: Vec<usize>,
    /// Sum of the log-probabilities of the sampled actions.
    pub log_prob: f64,
    record: Option<ForwardRecord>,
}

impl EpisodeSample {
    /// A sample without a forward record (for example one built by hand);
    /// [`RnnController::update`] replays its forward pass.
    pub fn new(actions: Vec<usize>, log_prob: f64) -> Self {
        EpisodeSample {
            actions,
            log_prob,
            record: None,
        }
    }
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

/// What one forward pass over an episode computed.
#[derive(Clone)]
struct ForwardRecord {
    /// The weight generation of the controller that took the record.
    generation: Arc<()>,
    /// The actions the record was taken with.
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
/// Sampling and the update share one forward routine. A sampled episode
/// keeps its [`LstmRecord`] and per-step probabilities, and the update
/// backpropagates from them; it runs the forward routine again, with the
/// episode's actions forced, only for a sample without a current record
/// (built by hand, sampled by another controller, or sampled before an
/// earlier update). Either way the gradients are bit-identical.
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
    /// LSTM state of the current step.
    state: LstmState,
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
            state: LstmState::zeros(1, hidden),
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

    /// Starts an episode: an empty LSTM record and a zero state.
    fn begin_episode(&mut self) {
        self.lstm.clear_cache();
        self.state.h.as_mut_slice().fill(0.0);
        self.state.c.as_mut_slice().fill(0.0);
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
        self.lstm.step(&self.input, &mut self.state)?;
        let logits = &mut self.logits[..probs.len()];
        self.heads[step].forward_row_into(self.state.h.as_slice(), logits)?;
        kernels::softmax_into(logits, probs, 1, probs.len());
        Ok(())
    }

    /// Runs one episode forward and returns it with its record. Actions are
    /// sampled from the policy, or taken from `forced` (which leaves the
    /// sampling stream untouched).
    fn forward_episode(&mut self, forced: Option<&[usize]>) -> Result<EpisodeSample> {
        self.begin_episode();
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
            let action = match forced {
                Some(forced) => forced[step],
                None => self.rng.sample_weighted(step_probs),
            };
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
            record: Some(record),
        })
    }

    /// Samples one episode from the current policy.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (which indicate a programming error rather
    /// than a recoverable condition).
    pub fn sample_episode(&mut self) -> Result<EpisodeSample> {
        self.forward_episode(None)
    }

    /// The probability distribution of the first decision (useful for tests
    /// and for inspecting what the controller has learned).
    pub fn first_step_distribution(&mut self) -> Result<Vec<f32>> {
        self.begin_episode();
        let mut probs = vec![0.0f32; self.cardinalities[0]];
        self.forward_step(0, None, &mut probs)?;
        self.lstm.clear_cache();
        Ok(probs)
    }

    /// The record `sample` carries, if this controller can backpropagate
    /// from it: taken by this controller, with its current weights, for the
    /// sample's actions.
    fn current_record<'a>(&self, sample: &'a EpisodeSample) -> Option<&'a ForwardRecord> {
        sample.record.as_ref().filter(|record| {
            Arc::ptr_eq(&record.generation, &self.generation) && record.actions == sample.actions
        })
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
        let batch = episodes.len() as f32;
        // zero gradients once per update; they accumulate across episodes
        self.lstm.zero_grad();
        for head in &mut self.heads {
            head.zero_grad();
        }
        for (sample, reward) in episodes {
            let advantage = self.baseline.advantage(*reward) as f32;
            let replayed;
            let record = match self.current_record(sample) {
                Some(record) => record,
                None => {
                    replayed = self.forward_episode(Some(&sample.actions))?;
                    replayed.record.as_ref().expect("a forward pass records")
                }
            };
            self.backpropagate(record, advantage, batch)?;
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
        let bad = EpisodeSample::new(vec![0], -1.0);
        assert!(ctrl.update(&[(bad, 1.0)]).is_err());
        assert!(ctrl.update(&[]).is_ok());
    }

    fn episode(actions: Vec<usize>) -> EpisodeSample {
        EpisodeSample::new(actions, -1.0)
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

    /// The same episodes without their forward records.
    fn without_records(batch: &[(EpisodeSample, f64)]) -> Vec<(EpisodeSample, f64)> {
        batch
            .iter()
            .map(|(s, r)| (EpisodeSample::new(s.actions.clone(), s.log_prob), *r))
            .collect()
    }

    fn first_step_bits(ctrl: &mut RnnController) -> Vec<u32> {
        let probs = ctrl.first_step_distribution().unwrap();
        probs.iter().map(|p| p.to_bits()).collect()
    }

    fn log_prob_bits(batch: &[(EpisodeSample, f64)]) -> Vec<u64> {
        batch.iter().map(|(s, _)| s.log_prob.to_bits()).collect()
    }

    #[test]
    fn an_update_from_records_is_bit_identical_to_a_replayed_one() {
        let cards = vec![4, 3, 7, 8, 2, 4, 3, 7, 8, 2];
        let mut recorded = controller(cards.clone(), 21);
        let mut replayed = controller(cards, 21);
        for round in 0..4 {
            let batch = sample_chunk(&mut recorded, 4);
            let twin = without_records(&sample_chunk(&mut replayed, 4));
            assert_eq!(batch, twin, "round {round}: records are invisible to ==");
            assert!(batch
                .iter()
                .all(|(s, _)| recorded.current_record(s).is_some()));
            assert!(twin
                .iter()
                .all(|(s, _)| replayed.current_record(s).is_none()));
            recorded.update(&batch).unwrap();
            replayed.update(&twin).unwrap();
            assert_eq!(
                first_step_bits(&mut recorded),
                first_step_bits(&mut replayed),
                "round {round}"
            );
        }
        assert_eq!(
            log_prob_bits(&sample_chunk(&mut recorded, 4)),
            log_prob_bits(&sample_chunk(&mut replayed, 4))
        );
    }

    #[test]
    fn stale_and_foreign_records_are_replayed_not_trusted() {
        let cards = vec![4, 3, 5, 2];
        let mut ctrl = controller(cards.clone(), 22);
        let mut twin = controller(cards, 22);
        let early = ctrl.sample_episode().unwrap();
        assert_eq!(twin.sample_episode().unwrap(), early);
        let batch = sample_chunk(&mut ctrl, 3);
        ctrl.update(&batch).unwrap();
        let twin_batch = without_records(&sample_chunk(&mut twin, 3));
        twin.update(&twin_batch).unwrap();

        // recorded before the last update: replayed with the new weights
        assert!(ctrl.current_record(&early).is_none());
        let stale = [(early, 0.7)];
        ctrl.update(&stale).unwrap();
        twin.update(&without_records(&stale)).unwrap();
        assert_eq!(first_step_bits(&mut ctrl), first_step_bits(&mut twin));

        // recorded by a controller with the same seed and update count
        let own = ctrl.sample_episode().unwrap();
        let foreign = twin.sample_episode().unwrap();
        assert_eq!(own, foreign);
        assert_eq!(ctrl.update_count(), twin.update_count());
        assert!(ctrl.current_record(&own).is_some());
        assert!(ctrl.current_record(&foreign).is_none());
        assert!(twin.current_record(&own).is_none());

        // a record no longer matches actions edited after sampling
        let mut edited = own.clone();
        assert!(ctrl.current_record(&edited).is_some());
        edited.actions[0] = (edited.actions[0] + 1) % 4;
        assert!(ctrl.current_record(&edited).is_none());
        ctrl.update(&[(edited.clone(), 0.4)]).unwrap();
        twin.update(&without_records(&[(edited, 0.4)])).unwrap();
        assert_eq!(first_step_bits(&mut ctrl), first_step_bits(&mut twin));
    }

    #[test]
    fn decisions_reports_sequence_length() {
        let ctrl = controller(vec![4, 3, 2, 5], 0);
        assert_eq!(ctrl.decisions(), 4);
    }
}
