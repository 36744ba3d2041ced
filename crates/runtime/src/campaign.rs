//! The campaign engine: many searches, one pool, one cache.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use edgehw::{DeviceKind, DeviceProfile, SharedBlockLatencyTable};
use fahana::{FahanaSearch, SearchOutcome};

use crate::cache::{CacheStats, CachedEvaluator, EvalCache};
use crate::pool::ThreadPool;
use crate::report::Json;
use crate::scenario::{CampaignConfig, Scenario};
use crate::telemetry::Telemetry;
use crate::{Result, RuntimeError};

/// The result of one scenario's search.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The grid cell that ran.
    pub scenario: Scenario,
    /// The search outcome.
    pub outcome: SearchOutcome,
    /// Wall-clock time of this scenario (search construction + run).
    pub wall_clock: Duration,
    /// This scenario's evaluation-cache hits/misses (zeros when the cache
    /// is disabled).
    pub cache: CacheStats,
}

/// The result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Per-scenario results, in grid order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Aggregate evaluation-cache statistics.
    pub cache: CacheStats,
    /// Distinct architectures memoised by the cache.
    pub cache_entries: usize,
    /// End-to-end campaign wall-clock.
    pub wall_clock: Duration,
    /// Worker threads used.
    pub threads: usize,
}

/// Runs a scenario grid concurrently on the thread pool (the calling
/// thread helps, taking the oldest queued scenario while workers take the
/// newest), sharing the evaluation cache and per-device latency tables
/// across scenarios.
///
/// # Example
///
/// ```
/// use fahana_runtime::{CampaignConfig, CampaignEngine};
///
/// let config = CampaignConfig {
///     episodes: 4,
///     samples: 120,
///     threads: 2,
///     ..CampaignConfig::default()
/// };
/// let outcome = CampaignEngine::new(config).unwrap().run().unwrap();
/// assert_eq!(outcome.scenarios.len(), 8);
/// ```
#[derive(Debug)]
pub struct CampaignEngine {
    config: CampaignConfig,
    pool: ThreadPool,
    telemetry: Telemetry,
}

impl CampaignEngine {
    /// Validates the configuration and spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the grid is not runnable.
    pub fn new(config: CampaignConfig) -> Result<Self> {
        config.validate()?;
        let pool = if config.threads == 0 {
            ThreadPool::with_default_size()
        } else {
            ThreadPool::new(config.threads)
        };
        Ok(CampaignEngine {
            config,
            pool,
            telemetry: Telemetry::disabled(),
        })
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Attaches a telemetry bundle: per-scenario spans and campaign-level
    /// metrics are recorded through it. Telemetry is a pure side channel —
    /// attaching it never changes any outcome or artifact byte.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The engine's telemetry bundle (a disabled default unless
    /// [`CampaignEngine::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs every scenario of the grid and collects the results in grid
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first scenario failure (scenario searches only fail on
    /// configuration-level inconsistencies, so one failure means the grid
    /// itself is bad).
    pub fn run(&self) -> Result<CampaignOutcome> {
        self.run_scenarios(self.config.expand())
    }

    /// Runs an explicit scenario list — a plan slice
    /// ([`crate::CampaignPlan::slice`]) or explicit cell set
    /// ([`crate::CampaignPlan::subset`]) — over a fresh evaluation cache.
    /// This is the execution core behind [`CampaignEngine::run`] and the
    /// sharded worker modes (`fahana-campaign --shard` / `--cells`): each
    /// scenario's search is a pure function of (scenario, campaign
    /// settings), so running a slice produces bit-identical per-scenario
    /// outcomes to running the whole grid.
    ///
    /// An empty slice (a shard that owns no cells of a small grid) is
    /// valid and yields an outcome with no scenarios.
    ///
    /// # Errors
    ///
    /// As [`CampaignEngine::run`].
    pub fn run_scenarios(&self, scenarios: Vec<Scenario>) -> Result<CampaignOutcome> {
        let cache = Arc::new(EvalCache::new());
        if scenarios.is_empty() {
            // still flush, so --metrics-out carries the full catalog even
            // for a shard that owns no cells
            self.flush_campaign_telemetry(&cache, Duration::ZERO, 0);
            return Ok(CampaignOutcome {
                scenarios: Vec::new(),
                cache: cache.stats(),
                cache_entries: cache.len(),
                wall_clock: Duration::ZERO,
                threads: self.pool.threads(),
            });
        }
        // every grid cell shares samples/image_size/seed, so the synthetic
        // dataset is generated once and injected into each search
        let dataset =
            Arc::new(dermsim::DermatologyGenerator::new(self.config.dataset_config()).generate());
        let tables: HashMap<DeviceKind, SharedBlockLatencyTable> = scenarios
            .iter()
            .map(|scenario| scenario.device)
            .map(|kind| {
                (
                    kind,
                    SharedBlockLatencyTable::new(DeviceProfile::for_kind(kind)),
                )
            })
            .collect();

        // fahana-lint: allow(wall-clock) wall_clock_ms is scheduling-dependent telemetry; canonical() zeroes it before artifact comparison
        let started = Instant::now();
        let campaign_config = self.config.clone();
        let shared_cache = Arc::clone(&cache);
        let telemetry = self.telemetry.clone();
        let results: Vec<Result<ScenarioOutcome>> = self.pool.map(
            scenarios
                .into_iter()
                .map(|scenario| {
                    let table = tables[&scenario.device].clone();
                    (scenario, table)
                })
                .collect(),
            move |_, (scenario, table)| {
                // time from batch submission to this job starting — the
                // scenario's wait in the pool queues
                let queue_wait = started.elapsed();
                let result = run_scenario(
                    scenario,
                    table,
                    &campaign_config,
                    Arc::clone(&dataset),
                    Arc::clone(&shared_cache),
                );
                if let Ok(outcome) = &result {
                    record_scenario(&telemetry, outcome, queue_wait);
                }
                result
            },
        );
        let scenarios = results.into_iter().collect::<Result<Vec<_>>>()?;
        let wall_clock = started.elapsed();
        self.flush_campaign_telemetry(&cache, wall_clock, scenarios.len());

        Ok(CampaignOutcome {
            scenarios,
            cache: cache.stats(),
            cache_entries: cache.len(),
            wall_clock,
            threads: self.pool.threads(),
        })
    }

    /// Mirrors the run's aggregate counters (cache, pool) into the metrics
    /// registry and emits the campaign-level trace event.
    fn flush_campaign_telemetry(&self, cache: &EvalCache, wall_clock: Duration, scenarios: usize) {
        let metrics = self.telemetry.metrics();
        let stats = cache.stats();
        metrics
            .counter("fahana_cache_hits_total", "evaluation cache hits")
            .set(stats.hits);
        metrics
            .counter("fahana_cache_misses_total", "evaluation cache misses")
            .set(stats.misses);
        metrics
            .gauge("fahana_cache_entries", "distinct evaluations memoised")
            .set(cache.len() as i64);

        self.pool.monitor().export_metrics(metrics);

        if let Some(trace) = self.telemetry.trace() {
            trace.span(
                "campaign",
                wall_clock.as_secs_f64() * 1e3,
                vec![
                    ("scenarios".into(), Json::Int(scenarios as i64)),
                    ("cache_hits".into(), Json::Int(stats.hits as i64)),
                    ("cache_misses".into(), Json::Int(stats.misses as i64)),
                    ("cache_entries".into(), Json::Int(cache.len() as i64)),
                    ("threads".into(), Json::Int(self.pool.threads() as i64)),
                ],
            );
        }
    }
}

/// Records one finished scenario into the telemetry side channel: three
/// metric series plus (when tracing) a `scenario` span carrying the cache
/// ratio and evaluation rate.
fn record_scenario(telemetry: &Telemetry, outcome: &ScenarioOutcome, queue_wait: Duration) {
    let metrics = telemetry.metrics();
    metrics
        .counter("fahana_scenarios_total", "scenarios completed")
        .inc();
    metrics
        .histogram("fahana_scenario_duration_ms", "per-scenario wall-clock")
        .observe(outcome.wall_clock);
    metrics
        .histogram(
            "fahana_scenario_queue_wait_ms",
            "submit-to-start wait per scenario",
        )
        .observe(queue_wait);
    if let Some(trace) = telemetry.trace() {
        let lookups = outcome.cache.hits + outcome.cache.misses;
        let secs = outcome.wall_clock.as_secs_f64();
        let candidates_per_sec = if secs > 0.0 {
            lookups as f64 / secs
        } else {
            0.0
        };
        trace.span(
            "scenario",
            outcome.wall_clock.as_secs_f64() * 1e3,
            vec![
                ("scenario".into(), Json::str(outcome.scenario.name.clone())),
                (
                    "queue_wait_ms".into(),
                    Json::Num(queue_wait.as_secs_f64() * 1e3),
                ),
                ("cache_hits".into(), Json::Int(outcome.cache.hits as i64)),
                (
                    "cache_misses".into(),
                    Json::Int(outcome.cache.misses as i64),
                ),
                ("cache_hit_rate".into(), Json::Num(outcome.cache.hit_rate())),
                ("candidates_per_sec".into(), Json::Num(candidates_per_sec)),
            ],
        );
    }
}

/// Runs one grid cell: builds the search, wires the shared latency table,
/// wraps the surrogate in the shared cache (unless disabled) and executes
/// it.
fn run_scenario(
    scenario: Scenario,
    table: SharedBlockLatencyTable,
    campaign: &CampaignConfig,
    dataset: Arc<dermsim::Dataset>,
    cache: Arc<EvalCache>,
) -> Result<ScenarioOutcome> {
    // fahana-lint: allow(wall-clock) scenario wall_clock_ms is telemetry; canonical() zeroes it before artifact comparison
    let started = Instant::now();
    let scenario_error = |err: fahana::FahanaError| RuntimeError::Scenario {
        name: scenario.name.clone(),
        message: err.to_string(),
    };

    let search_config = scenario.to_fahana_config(campaign);
    let mut search = FahanaSearch::with_dataset(search_config, &dataset).map_err(scenario_error)?;
    search.set_latency_table(table).map_err(scenario_error)?;
    let mut surrogate = search.surrogate().clone();

    let (outcome, cache_stats) = if campaign.use_cache {
        let mut cached = CachedEvaluator::surrogate(surrogate, cache);
        let outcome = search
            .run_with_batch_evaluator(&mut cached)
            .map_err(scenario_error)?;
        (outcome, cached.local_stats())
    } else {
        let outcome = search
            .run_with_batch_evaluator(&mut surrogate)
            .map_err(scenario_error)?;
        (outcome, CacheStats::default())
    };

    Ok(ScenarioOutcome {
        scenario,
        outcome,
        wall_clock: started.elapsed(),
        cache: cache_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::RewardSetting;
    use fahana::FahanaConfig;

    fn tiny_campaign() -> CampaignConfig {
        CampaignConfig {
            episodes: 6,
            samples: 150,
            threads: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_runs_the_whole_grid_in_order() {
        let config = tiny_campaign();
        let expected: Vec<String> = config.expand().into_iter().map(|s| s.name).collect();
        let engine = CampaignEngine::new(config).unwrap();
        assert_eq!(engine.threads(), 2);
        let outcome = engine.run().unwrap();
        assert_eq!(outcome.scenarios.len(), 8);
        let got: Vec<&str> = outcome
            .scenarios
            .iter()
            .map(|s| s.scenario.name.as_str())
            .collect();
        assert_eq!(got, expected.iter().map(String::as_str).collect::<Vec<_>>());
        for scenario in &outcome.scenarios {
            assert_eq!(scenario.outcome.history.len(), 6);
            assert!(scenario.wall_clock > Duration::ZERO);
        }
        assert_eq!(outcome.threads, 2);
        assert!(outcome.wall_clock > Duration::ZERO);
    }

    #[test]
    fn scenarios_sharing_a_seed_hit_the_shared_cache() {
        // 8 scenarios, 4 of which differ only by device/reward for each
        // freezing mode — their controllers walk identical decision
        // streams, so the cache must serve repeats
        let outcome = CampaignEngine::new(tiny_campaign()).unwrap().run().unwrap();
        assert!(
            outcome.cache.hits > 0,
            "expected cross-scenario cache hits, got {:?}",
            outcome.cache
        );
        assert!(outcome.cache.hit_rate() > 0.0);
        assert!(outcome.cache_entries > 0);
        let per_scenario_hits: u64 = outcome.scenarios.iter().map(|s| s.cache.hits).sum();
        let per_scenario_misses: u64 = outcome.scenarios.iter().map(|s| s.cache.misses).sum();
        assert_eq!(per_scenario_hits, outcome.cache.hits);
        assert_eq!(per_scenario_misses, outcome.cache.misses);
    }

    #[test]
    fn cache_off_zeroes_the_counters_but_not_the_outcomes() {
        let outcome = CampaignEngine::new(CampaignConfig {
            use_cache: false,
            ..tiny_campaign()
        })
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(outcome.cache, CacheStats::default());
        assert!(outcome
            .scenarios
            .iter()
            .all(|s| s.cache == CacheStats::default()));
        assert_eq!(outcome.scenarios.len(), 8);
    }

    #[test]
    fn campaign_outcome_matches_directly_run_searches() {
        let campaign = CampaignConfig {
            devices: vec![edgehw::DeviceKind::RaspberryPi4],
            rewards: vec![RewardSetting::balanced()],
            freezing: vec![true, false],
            ..tiny_campaign()
        };
        let outcome = CampaignEngine::new(campaign.clone())
            .unwrap()
            .run()
            .unwrap();
        for scenario_outcome in &outcome.scenarios {
            let direct_config: FahanaConfig = scenario_outcome.scenario.to_fahana_config(&campaign);
            let direct = FahanaSearch::new(direct_config).unwrap().run().unwrap();
            assert_eq!(
                direct.history, scenario_outcome.outcome.history,
                "campaign result for {} must equal a direct run",
                scenario_outcome.scenario.name
            );
        }
    }

    #[test]
    fn invalid_grid_is_rejected_at_construction() {
        let mut config = tiny_campaign();
        config.episodes = 0;
        assert!(matches!(
            CampaignEngine::new(config),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }
}
