//! The FaHaNa search loop (paper Figure 4).

use archspace::backbone::{BackboneProducer, BackboneTemplate};
use archspace::{zoo, Architecture, SearchSpace, SpaceConfig};
use dermsim::{Dataset, DermatologyConfig, DermatologyGenerator};
use edgehw::{DeviceProfile, SharedBlockLatencyTable};
use evaluator::{
    feature_variation_by_block, EvalRequest, EvaluateBatch, SearchCostConfig, SearchCostModel,
    SurrogateEvaluator,
};

use crate::controller::{ControllerConfig, EpisodeSample, RnnController};
use crate::error::FahanaError;
use crate::pareto::{pareto_frontier, ParetoPoint};
use crate::reward::RewardConfig;
use crate::Result;

/// Configuration of a FaHaNa (or MONAS-style) search run.
#[derive(Debug, Clone)]
pub struct FahanaConfig {
    /// Number of reinforcement-learning episodes (the paper uses 500).
    pub episodes: usize,
    /// Episodes per controller update (the `m` of Eq. 2).
    pub episodes_per_update: usize,
    /// Number of disease classes.
    pub classes: usize,
    /// Input resolution used for latency/FLOP accounting.
    pub input_size: usize,
    /// Reward function settings (α, β, `AC`, `TC`).
    pub reward: RewardConfig,
    /// Controller hyperparameters.
    pub controller: ControllerConfig,
    /// Search-space choice lists.
    pub space: SpaceConfig,
    /// Target device for the latency constraint.
    pub device: DeviceProfile,
    /// Optional storage limit in MB.
    pub storage_limit_mb: Option<f64>,
    /// Freezing scale factor γ (the paper uses 0.5).
    pub freeze_gamma: f32,
    /// `true` runs FaHaNa (frozen header); `false` searches the whole
    /// backbone, which is how the MONAS baseline is configured.
    pub use_freezing: bool,
    /// Synthetic dermatology dataset settings.
    pub dataset: DermatologyConfig,
    /// Per-block feature-variation profile of the pretrained backbone used
    /// by the freezing analysis. Defaults to the paper's Figure 3 profile;
    /// set to `None` to re-measure it on a locally lowered backbone with
    /// [`evaluator::feature_variation_by_block`].
    pub variation_profile: Option<Vec<f32>>,
    /// Batch size (per group) for the feature-variation analysis when
    /// `variation_profile` is `None`.
    pub variation_batch: usize,
    /// Search-cost model constants (Table 2's time column).
    pub cost: SearchCostConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for FahanaConfig {
    fn default() -> Self {
        FahanaConfig {
            episodes: 100,
            episodes_per_update: 5,
            classes: 5,
            input_size: 224,
            reward: RewardConfig::default(),
            controller: ControllerConfig::default(),
            space: SpaceConfig::default(),
            device: DeviceProfile::raspberry_pi_4(),
            storage_limit_mb: Some(30.0),
            freeze_gamma: 0.5,
            use_freezing: true,
            dataset: DermatologyConfig {
                samples: 600,
                image_size: 12,
                ..DermatologyConfig::default()
            },
            variation_profile: Some(evaluator::paper_figure3_profile()),
            variation_batch: 8,
            cost: SearchCostConfig::default(),
            seed: 2022,
        }
    }
}

impl FahanaConfig {
    /// The paper's evaluation settings: 500 episodes, α = β = 1, γ = 0.5,
    /// Raspberry Pi target with `TC = 1500 ms` and `AC = 81 %`.
    pub fn paper_scale() -> Self {
        FahanaConfig {
            episodes: 500,
            ..FahanaConfig::default()
        }
    }
}

/// What happened in one search episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRecord {
    /// Episode index (0-based).
    pub episode: usize,
    /// Name assigned to the child architecture.
    pub name: String,
    /// Parameter count of the child.
    pub params: u64,
    /// Storage footprint (MB).
    pub storage_mb: f64,
    /// Estimated latency on the target device (ms).
    pub latency_ms: f64,
    /// Overall accuracy (0 when the child was not evaluated).
    pub accuracy: f64,
    /// Unfairness score (0 when the child was not evaluated).
    pub unfairness: f64,
    /// Parameters the evaluation actually trained — smaller than `params`
    /// when a frozen header was reused, 0 when the child was not evaluated.
    pub trained_params: u64,
    /// The reward of Eq. 1.
    pub reward: f64,
    /// Whether the child met all constraints (reward ≠ −1).
    pub valid: bool,
}

/// A discovered architecture together with its episode record.
#[derive(Debug, Clone)]
pub struct DiscoveredNetwork {
    /// The architecture itself.
    pub architecture: Architecture,
    /// Its metrics at discovery time.
    pub record: EpisodeRecord,
}

/// The result of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every episode, in order.
    pub history: Vec<EpisodeRecord>,
    /// Highest-reward valid child (the architecture FaHaNa would deploy).
    pub best: Option<DiscoveredNetwork>,
    /// Highest-reward valid child under 4 M parameters (the FaHaNa-Small
    /// role in Table 3's G1).
    pub best_small: Option<DiscoveredNetwork>,
    /// Lowest-unfairness valid child (the FaHaNa-Fair role in G2).
    pub fairest: Option<DiscoveredNetwork>,
    /// Fraction of episodes with reward ≠ −1 (Table 2's "Valid").
    pub valid_ratio: f64,
    /// log10 of the search-space size (Table 2's "Space").
    pub space_log10_size: f64,
    /// Number of frozen backbone blocks.
    pub frozen_blocks: usize,
    /// Number of searchable tail slots.
    pub searchable_slots: usize,
    /// Modelled GPU-cluster search time in hours (Table 2's "Time").
    pub modelled_search_hours: f64,
    /// Same, formatted like the paper ("57H10M").
    pub modelled_search_time: String,
}

impl SearchOutcome {
    /// The reward/size Pareto frontier over valid children (Figure 5a).
    pub fn reward_size_frontier(&self) -> Vec<ParetoPoint> {
        let points: Vec<ParetoPoint> = self
            .history
            .iter()
            .filter(|r| r.valid)
            .map(|r| ParetoPoint::new(r.name.clone(), r.reward, r.params as f64 / 1.0e6))
            .collect();
        pareto_frontier(&points)
    }

    /// The accuracy/unfairness Pareto frontier over valid children
    /// (Figures 5b and 6).
    pub fn accuracy_fairness_frontier(&self) -> Vec<ParetoPoint> {
        let points: Vec<ParetoPoint> = self
            .history
            .iter()
            .filter(|r| r.valid)
            .map(|r| ParetoPoint::new(r.name.clone(), r.accuracy, r.unfairness))
            .collect();
        pareto_frontier(&points)
    }

    /// Running maximum of the reward (useful for convergence plots).
    pub fn best_reward_curve(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.history
            .iter()
            .map(|r| {
                best = best.max(r.reward);
                best
            })
            .collect()
    }
}

/// The FaHaNa search engine with the default surrogate evaluator.
///
/// The engine is generic in spirit —
/// [`FahanaSearch::run_with_batch_evaluator`] accepts any [`EvaluateBatch`]
/// stage, which includes every [`Evaluate`](evaluator::Evaluate)
/// implementation — while
/// [`FahanaSearch::run`] uses the calibrated surrogate, which is what all
/// the benches use.
///
/// Episodes are processed in controller-update-sized chunks: the chunk is
/// sampled sequentially (the controller RNN owns the only RNG stream), its
/// children pass the hardware gate, the survivors are handed to the
/// evaluation stage *as one batch*, and the policy-gradient update closes
/// the chunk. A batch stage that evaluates in parallel (see
/// `fahana-runtime`) therefore produces bit-identical outcomes to the
/// sequential stage.
#[derive(Debug)]
pub struct FahanaSearch {
    config: FahanaConfig,
    template: BackboneTemplate,
    space: SearchSpace,
    controller: RnnController,
    latency_table: SharedBlockLatencyTable,
    surrogate: SurrogateEvaluator,
    frozen_blocks: usize,
}

/// What the hardware gate decided about one sampled episode, before the
/// evaluation stage runs.
enum PreparedEpisode {
    /// The controller's actions failed to decode into a well-formed child
    /// (should not happen; kept as a defensive path).
    Malformed,
    /// The child violates the hardware specification and is never trained
    /// (paper Figure 4 ➃); the finished record is already known.
    Gated(EpisodeRecord),
    /// The child passed the gate and awaits evaluation.
    Pending { arch: Architecture, latency_ms: f64 },
}

impl FahanaSearch {
    /// Builds the search: generates the dataset, runs the feature-variation
    /// analysis, freezes the backbone header (when enabled) and initialises
    /// the controller.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is inconsistent (e.g. zero
    /// episodes) or the backbone analysis fails.
    pub fn new(config: FahanaConfig) -> Result<Self> {
        let dataset = DermatologyGenerator::new(config.dataset.clone()).generate();
        Self::with_dataset(config, &dataset)
    }

    /// Like [`FahanaSearch::new`], but reuses a pre-generated dataset
    /// instead of generating one from `config.dataset` — the campaign
    /// runtime shares one dataset across a whole scenario grid this way.
    /// The caller is responsible for passing a dataset consistent with
    /// `config.dataset`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FahanaSearch::new`].
    pub fn with_dataset(config: FahanaConfig, dataset: &Dataset) -> Result<Self> {
        if config.episodes == 0 {
            return Err(FahanaError::InvalidConfig(
                "a search needs at least one episode".into(),
            ));
        }
        let surrogate = SurrogateEvaluator::for_dataset(dataset, config.seed);

        let backbone = zoo::mobilenet_v2(config.classes, config.input_size);
        let producer = BackboneProducer::new(backbone.clone(), config.freeze_gamma);
        let (template, frozen_blocks) = if config.use_freezing {
            let variations = match &config.variation_profile {
                Some(profile) => profile.clone(),
                None => {
                    feature_variation_by_block(
                        &backbone,
                        dataset,
                        config.variation_batch,
                        config.seed,
                    )?
                    .per_block
                }
            };
            let decision = producer.decide_split(&variations);
            let template = producer.template(&decision);
            let frozen = template.frozen_block_count();
            (template, frozen)
        } else {
            (producer.full_search_template(), 0)
        };
        if template.searchable_slots() == 0 {
            return Err(FahanaError::InvalidConfig(
                "the freezing analysis froze the entire backbone; lower gamma".into(),
            ));
        }
        let space = SearchSpace::new(config.space.clone(), template.searchable_slots());
        let controller = RnnController::new(
            space.decision_cardinalities(),
            ControllerConfig {
                seed: config.seed ^ 0x5eed,
                ..config.controller
            },
        )?;
        let latency_table = SharedBlockLatencyTable::new(config.device.clone());
        Ok(FahanaSearch {
            config,
            template,
            space,
            controller,
            latency_table,
            surrogate,
            frozen_blocks,
        })
    }

    /// The searchable slot count (after freezing).
    pub fn searchable_slots(&self) -> usize {
        self.template.searchable_slots()
    }

    /// The number of frozen backbone blocks.
    pub fn frozen_blocks(&self) -> usize {
        self.frozen_blocks
    }

    /// The search space being explored.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The calibrated surrogate evaluator this search would run with by
    /// default (derived from the generated dataset and the master seed).
    pub fn surrogate(&self) -> &SurrogateEvaluator {
        &self.surrogate
    }

    /// The per-block latency table used by the hardware gate.
    pub fn latency_table(&self) -> &SharedBlockLatencyTable {
        &self.latency_table
    }

    /// Replaces the latency table with a shared one, so concurrent searches
    /// targeting the same device pool their offline block profiles.
    ///
    /// # Errors
    ///
    /// Returns an error if `table` was built for a different device profile
    /// than this search's configuration.
    pub fn set_latency_table(&mut self, table: SharedBlockLatencyTable) -> Result<()> {
        if *table.device() != self.config.device {
            return Err(FahanaError::InvalidConfig(format!(
                "latency table profiles {} but the search targets {}",
                table.device().kind,
                self.config.device.kind
            )));
        }
        self.latency_table = table;
        Ok(())
    }

    /// Runs the search with the calibrated surrogate evaluator.
    ///
    /// # Errors
    ///
    /// Propagates controller or evaluation failures.
    pub fn run(mut self) -> Result<SearchOutcome> {
        let mut surrogate = self.surrogate.clone();
        self.run_with_batch_evaluator(&mut surrogate)
    }

    /// Runs the search with a caller-supplied *batch* evaluation stage; any
    /// [`Evaluate`](evaluator::Evaluate) back-end is one through the
    /// blanket [`EvaluateBatch`] impl.
    ///
    /// Each controller-update chunk is sampled sequentially, gated against
    /// the hardware specification, and the surviving children are handed to
    /// `evaluator` as one batch. The stage may evaluate them in any order
    /// (e.g. on a thread pool) as long as it returns results in request
    /// order; the search outcome is identical either way.
    ///
    /// # Errors
    ///
    /// Propagates controller failures, and rejects a batch stage that
    /// returns the wrong number of results. A per-request `Err` from the
    /// stage does not abort the run — that episode is recorded as invalid
    /// with reward −1, mirroring how constraint-violating children are
    /// treated.
    pub fn run_with_batch_evaluator<B: EvaluateBatch + ?Sized>(
        &mut self,
        evaluator: &mut B,
    ) -> Result<SearchOutcome> {
        let episodes = self.config.episodes;
        let chunk_size = self.config.episodes_per_update.max(1);
        let mut history: Vec<EpisodeRecord> = Vec::with_capacity(episodes);
        let mut discovered: Vec<DiscoveredNetwork> = Vec::new();
        let mut cost = SearchCostModel::new(self.config.cost);

        let mut episode = 0;
        while episode < episodes {
            let chunk = chunk_size.min(episodes - episode);

            // ➀ sample the chunk (sequential: the controller RNN owns the
            // only RNG stream, which defines the search trajectory)
            let mut samples: Vec<EpisodeSample> = Vec::with_capacity(chunk);
            for _ in 0..chunk {
                samples.push(self.controller.sample_episode()?);
            }

            // ➁ instantiate children and apply the hardware gate
            let prepared: Vec<PreparedEpisode> = samples
                .iter()
                .enumerate()
                .map(|(offset, sample)| self.prepare_episode(episode + offset, sample))
                .collect();

            // ➂ evaluate the survivors as one batch
            let requests: Vec<EvalRequest> = prepared
                .iter()
                .filter_map(|p| match p {
                    PreparedEpisode::Pending { arch, .. } => {
                        Some(EvalRequest::new(arch.clone(), self.frozen_blocks))
                    }
                    _ => None,
                })
                .collect();
            let evaluations = evaluator.evaluate_batch(&requests);
            if evaluations.len() != requests.len() {
                return Err(FahanaError::InvalidConfig(format!(
                    "batch evaluator returned {} results for {} requests",
                    evaluations.len(),
                    requests.len()
                )));
            }

            // ➃ assemble records in episode order and close the chunk with
            // the policy-gradient update
            let mut evaluations = evaluations.into_iter();
            let mut update_batch: Vec<(EpisodeSample, f64)> = Vec::with_capacity(chunk);
            for (offset, (sample, prep)) in samples.into_iter().zip(prepared).enumerate() {
                let index = episode + offset;
                let record = match prep {
                    PreparedEpisode::Malformed => {
                        cost.record_invalid();
                        Self::invalid_record(index)
                    }
                    PreparedEpisode::Gated(record) => {
                        cost.record_invalid();
                        record
                    }
                    PreparedEpisode::Pending { arch, latency_ms } => {
                        let evaluation = evaluations
                            .next()
                            .expect("one evaluation per pending episode");
                        match evaluation {
                            Ok(evaluation) => {
                                cost.record_valid(evaluation.trained_params);
                                let reward = self.config.reward.compute(
                                    evaluation.accuracy(),
                                    evaluation.unfairness(),
                                    latency_ms,
                                );
                                let record = EpisodeRecord {
                                    episode: index,
                                    name: arch.name().to_string(),
                                    params: arch.param_count(),
                                    storage_mb: arch.storage_mb(),
                                    latency_ms,
                                    accuracy: evaluation.accuracy(),
                                    unfairness: evaluation.unfairness(),
                                    trained_params: evaluation.trained_params,
                                    reward: reward.value,
                                    valid: reward.valid,
                                };
                                if record.valid {
                                    discovered.push(DiscoveredNetwork {
                                        architecture: arch,
                                        record: record.clone(),
                                    });
                                }
                                record
                            }
                            Err(_) => {
                                // evaluation failed (should not happen):
                                // treat as invalid
                                cost.record_invalid();
                                Self::invalid_record(index)
                            }
                        }
                    }
                };
                update_batch.push((sample, record.reward));
                history.push(record);
            }
            self.controller.update(&update_batch)?;
            episode += chunk;
        }

        let valid = history.iter().filter(|r| r.valid).count();
        let valid_ratio = valid as f64 / history.len().max(1) as f64;
        let best = discovered
            .iter()
            .max_by(|a, b| a.record.reward.total_cmp(&b.record.reward))
            .cloned();
        let best_small = discovered
            .iter()
            .filter(|d| d.record.params < 4_000_000)
            .max_by(|a, b| a.record.reward.total_cmp(&b.record.reward))
            .cloned();
        let fairest = discovered
            .iter()
            .min_by(|a, b| a.record.unfairness.total_cmp(&b.record.unfairness))
            .cloned();
        Ok(SearchOutcome {
            history,
            best,
            best_small,
            fairest,
            valid_ratio,
            space_log10_size: self.space.log10_size(),
            frozen_blocks: self.frozen_blocks,
            searchable_slots: self.template.searchable_slots(),
            modelled_search_hours: cost.total_hours(),
            modelled_search_time: cost.format_hours_minutes(),
        })
    }

    /// Decodes one sampled episode into a child and applies the hardware
    /// gate (paper Figure 4 ➃: children that violate the specification are
    /// never trained).
    fn prepare_episode(&self, episode: usize, sample: &EpisodeSample) -> PreparedEpisode {
        let Ok(decisions) = self.space.decisions_from_actions(&sample.actions) else {
            return PreparedEpisode::Malformed;
        };
        let Ok(child) =
            self.template
                .instantiate(&self.space, &decisions, format!("fahana-ep{episode}"))
        else {
            return PreparedEpisode::Malformed;
        };
        let latency_ms = self.latency_table.estimate_ms(&child);
        let storage_mb = child.storage_mb();
        let meets_storage = self
            .config
            .storage_limit_mb
            .map(|limit| storage_mb <= limit)
            .unwrap_or(true);
        let meets_latency = latency_ms <= self.config.reward.timing_constraint_ms;
        if !meets_latency || !meets_storage {
            return PreparedEpisode::Gated(EpisodeRecord {
                episode,
                name: child.name().to_string(),
                params: child.param_count(),
                storage_mb,
                latency_ms,
                accuracy: 0.0,
                unfairness: 0.0,
                trained_params: 0,
                reward: -1.0,
                valid: false,
            });
        }
        PreparedEpisode::Pending {
            arch: child,
            latency_ms,
        }
    }

    /// The placeholder record for an episode whose child could not be built
    /// or evaluated.
    fn invalid_record(episode: usize) -> EpisodeRecord {
        EpisodeRecord {
            episode,
            name: format!("invalid-ep{episode}"),
            params: 0,
            storage_mb: 0.0,
            latency_ms: f64::INFINITY,
            accuracy: 0.0,
            unfairness: 0.0,
            trained_params: 0,
            reward: -1.0,
            valid: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evaluator::Evaluate;

    fn small_config(episodes: usize, seed: u64) -> FahanaConfig {
        FahanaConfig {
            episodes,
            dataset: DermatologyConfig {
                samples: 200,
                image_size: 8,
                ..DermatologyConfig::default()
            },
            variation_batch: 4,
            seed,
            ..FahanaConfig::default()
        }
    }

    #[test]
    fn zero_episode_search_is_rejected() {
        assert!(FahanaSearch::new(FahanaConfig {
            episodes: 0,
            ..small_config(1, 0)
        })
        .is_err());
    }

    #[test]
    fn freezing_reduces_searchable_slots_and_space() {
        let fahana = FahanaSearch::new(small_config(5, 1)).unwrap();
        let monas = FahanaSearch::new(FahanaConfig {
            use_freezing: false,
            ..small_config(5, 1)
        })
        .unwrap();
        assert!(
            fahana.frozen_blocks() > 0,
            "gamma=0.5 should freeze a header"
        );
        assert!(fahana.searchable_slots() < monas.searchable_slots());
        assert!(fahana.space().log10_size() < monas.space().log10_size());
        assert_eq!(monas.frozen_blocks(), 0);
    }

    #[test]
    fn search_produces_history_and_statistics() {
        let outcome = FahanaSearch::new(small_config(30, 2))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.history.len(), 30);
        assert!(outcome.valid_ratio >= 0.0 && outcome.valid_ratio <= 1.0);
        assert!(outcome.space_log10_size > 0.0);
        assert!(outcome.modelled_search_hours >= 0.0);
        assert!(!outcome.modelled_search_time.is_empty());
        // every valid record meets both constraints
        for record in outcome.history.iter().filter(|r| r.valid) {
            assert!(record.latency_ms <= 1500.0);
            assert!(record.accuracy >= 0.81);
            assert!(record.reward > -1.0);
        }
        // episode indices are sequential
        for (i, r) in outcome.history.iter().enumerate() {
            assert_eq!(r.episode, i);
        }
    }

    #[test]
    fn discovered_networks_satisfy_their_roles() {
        let outcome = FahanaSearch::new(small_config(40, 3))
            .unwrap()
            .run()
            .unwrap();
        if let Some(best) = &outcome.best {
            assert!(best.record.valid);
            // best is the max-reward valid record
            let max_reward = outcome
                .history
                .iter()
                .filter(|r| r.valid)
                .map(|r| r.reward)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((best.record.reward - max_reward).abs() < 1e-12);
        }
        if let Some(small) = &outcome.best_small {
            assert!(small.record.params < 4_000_000);
        }
        if let (Some(fairest), Some(best)) = (&outcome.fairest, &outcome.best) {
            assert!(fairest.record.unfairness <= best.record.unfairness + 1e-12);
        }
    }

    #[test]
    fn search_is_reproducible_for_a_seed() {
        let a = FahanaSearch::new(small_config(15, 5))
            .unwrap()
            .run()
            .unwrap();
        let b = FahanaSearch::new(small_config(15, 5))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn batch_stage_evaluation_order_does_not_change_the_outcome() {
        // a batch stage that walks its requests in reverse (as a stand-in
        // for arbitrary parallel scheduling) but returns results in request
        // order must reproduce the streaming outcome bit for bit
        struct ReversingStage(SurrogateEvaluator);
        impl EvaluateBatch for ReversingStage {
            fn evaluate_batch(
                &mut self,
                requests: &[EvalRequest],
            ) -> Vec<evaluator::Result<evaluator::FairnessEvaluation>> {
                let mut results: Vec<_> = (0..requests.len()).map(|_| None).collect();
                for (index, request) in requests.iter().enumerate().rev() {
                    results[index] = Some(
                        self.0
                            .evaluate_with_frozen(&request.arch, request.frozen_blocks),
                    );
                }
                results.into_iter().map(Option::unwrap).collect()
            }
        }

        let streamed = FahanaSearch::new(small_config(20, 9))
            .unwrap()
            .run()
            .unwrap();
        let mut search = FahanaSearch::new(small_config(20, 9)).unwrap();
        let mut stage = ReversingStage(search.surrogate().clone());
        let batched = search.run_with_batch_evaluator(&mut stage).unwrap();
        assert_eq!(streamed.history, batched.history);
        assert_eq!(streamed.valid_ratio, batched.valid_ratio);
    }

    #[test]
    fn shared_latency_table_injection_preserves_outcomes_and_pools_profiles() {
        let baseline = FahanaSearch::new(small_config(10, 6))
            .unwrap()
            .run()
            .unwrap();

        let shared = SharedBlockLatencyTable::new(small_config(10, 6).device);
        let mut first = FahanaSearch::new(small_config(10, 6)).unwrap();
        first.set_latency_table(shared.clone()).unwrap();
        let first = first.run().unwrap();
        let misses_after_first = shared.hit_miss().1;

        let mut second = FahanaSearch::new(small_config(10, 6)).unwrap();
        second.set_latency_table(shared.clone()).unwrap();
        let second = second.run().unwrap();

        assert_eq!(baseline.history, first.history);
        assert_eq!(baseline.history, second.history);
        // the second identical search re-visits only profiled blocks
        assert_eq!(shared.hit_miss().1, misses_after_first);
        assert!(shared.hit_miss().0 > 0);
    }

    #[test]
    fn latency_table_for_wrong_device_is_rejected() {
        let mut search = FahanaSearch::new(small_config(5, 1)).unwrap();
        let wrong = SharedBlockLatencyTable::new(DeviceProfile::odroid_xu4());
        assert!(search.set_latency_table(wrong).is_err());
        let right = SharedBlockLatencyTable::new(DeviceProfile::raspberry_pi_4());
        assert!(search.set_latency_table(right).is_ok());
    }

    #[test]
    fn search_engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FahanaSearch>();
        assert_send::<SearchOutcome>();
        assert_send::<FahanaConfig>();
    }

    #[test]
    fn frontier_helpers_return_nondominated_points() {
        let outcome = FahanaSearch::new(small_config(30, 7))
            .unwrap()
            .run()
            .unwrap();
        let frontier = outcome.accuracy_fairness_frontier();
        for p in &frontier {
            for q in &frontier {
                assert!(!p.dominates(q) || p == q);
            }
        }
        let curve = outcome.best_reward_curve();
        assert_eq!(curve.len(), outcome.history.len());
        assert!(curve.windows(2).all(|w| w[1] >= w[0]));
    }
}
