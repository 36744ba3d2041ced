//! The `campaign` workload: the default scenario grid on `CampaignEngine`.
//!
//! Untraced, every grid runs through the engine exactly as
//! `fahana-campaign` runs it, and its canonical report must equal the
//! seed's cache-off reference byte for byte. Traced, a replica drives the
//! same chunk loop as `FahanaSearch::run_with_batch_evaluator` through the
//! layers' public calls, timing each call, and must reproduce the
//! engine's per-scenario histories exactly.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use archspace::{zoo, BackboneProducer, SearchSpace};
use dermsim::{Dataset, DermatologyGenerator};
use edgehw::{DeviceKind, DeviceProfile, SharedBlockLatencyTable};
use evaluator::{EvalRequest, EvaluateBatch, SurrogateEvaluator};
use fahana::{ControllerConfig, EpisodeRecord, EpisodeSample, RnnController};
use fahana_runtime::{
    CacheStats, CachedEvaluator, CampaignConfig, CampaignEngine, CampaignOutcome, CampaignReport,
    EvalCache, Scenario, Telemetry, ThreadPool,
};

use crate::fixtures;
use crate::sys::{self, ms, CpuSnapshot, Samples};
use crate::trace::{self, LayerTotals, Span, Tracer};
use crate::{Metric, RunResult};

/// Timed grids per second of `--seconds` (one grid takes ~0.6 s on the
/// reference 2-CPU machine).
const GRIDS_PER_SECOND: f64 = 1.5;
/// Extra `CampaignEngine::new` calls timed after each grid, so `setup_s`
/// is a median over samples spread across the whole run.
const EXTRA_SETUPS_PER_GRID: usize = 3;

fn grids_for(seconds: u64) -> usize {
    ((seconds as f64 * GRIDS_PER_SECOND).round() as usize).max(2)
}

fn canonical(outcome: &CampaignOutcome) -> String {
    CampaignReport::from_outcome(outcome)
        .canonical()
        .to_json()
        .render()
}

fn episodes_of(config: &CampaignConfig) -> u64 {
    (config.scenario_count() * config.episodes) as u64
}

/// Engine grids with their checks and per-grid timings. Each grid is one
/// round: every timed metric is taken per grid and averaged over grids.
#[derive(Debug, Default)]
struct EngineRuns {
    setup: Samples,
    full_p50: Samples,
    full_p90: Samples,
    frozen_p50: Samples,
    grid_ms: Samples,
    ops_per_s: Samples,
    cpu_s: Samples,
    attempted: u64,
    failed: u64,
    first: Option<CampaignOutcome>,
}

impl EngineRuns {
    /// Runs one grid through a fresh engine, checks its canonical report
    /// and records its timings.
    fn grid(&mut self, config: &CampaignConfig, reference: &str) -> Result<(), String> {
        let started = sys::now();
        let engine = CampaignEngine::new(config.clone()).map_err(|e| e.to_string())?;
        self.setup.push(started.elapsed().as_secs_f64());
        let cpu = CpuSnapshot::take()?;
        let outcome = engine.run().map_err(|e| e.to_string())?;
        self.cpu_s.push(cpu.seconds_since()?);
        drop(engine);
        for _ in 0..EXTRA_SETUPS_PER_GRID {
            let started = sys::now();
            let engine = CampaignEngine::new(config.clone()).map_err(|e| e.to_string())?;
            self.setup.push(started.elapsed().as_secs_f64());
            drop(engine);
        }

        self.attempted += episodes_of(config);
        if canonical(&outcome) != reference {
            self.failed += episodes_of(config);
        }
        self.grid_ms.push(ms(outcome.wall_clock));
        self.ops_per_s
            .push(episodes_of(config) as f64 / outcome.wall_clock.as_secs_f64());
        let (mut full, mut frozen) = (Samples::new(), Samples::new());
        for scenario in &outcome.scenarios {
            let class = if scenario.scenario.use_freezing {
                &mut frozen
            } else {
                &mut full
            };
            class.push(ms(scenario.wall_clock));
        }
        self.full_p50.push(full.median());
        self.full_p90.push(full.quantile(0.9));
        self.frozen_p50.push(frozen.median());
        self.first.get_or_insert(outcome);
        Ok(())
    }
}

fn run_engine_grids(
    config: &CampaignConfig,
    reference: &str,
    grids: usize,
) -> Result<EngineRuns, String> {
    let mut runs = EngineRuns::default();
    for _ in 0..grids {
        runs.grid(config, reference)?;
    }
    Ok(runs)
}

/// The untraced run: end-to-end metrics.
pub fn run(work: &std::path::Path, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let config = fixtures::grid_config(seed);
    let reference = fixtures::campaign_reference(work, seed)?;
    // warm-up grid: lazy set-up (allocator, page faults) settles here
    let warm = run_engine_grids(&config, &reference, 1)?;
    let grids = grids_for(seconds);
    let mut runs = run_engine_grids(&config, &reference, grids)?;
    eprintln!(
        "campaign: {grids} grids of {} scenarios; per grid (mean over grids): full p50 {:.1} ms, frozen p50 {:.1} ms, grid {:.1} ms",
        config.scenario_count(),
        runs.full_p50.mean(),
        runs.frozen_p50.mean(),
        runs.grid_ms.mean()
    );
    Ok(RunResult {
        attempted: warm.attempted + runs.attempted,
        failed: warm.failed + runs.failed,
        metrics: vec![
            Metric::new("setup_s", runs.setup.median(), "s"),
            Metric::new("ops_per_s", runs.ops_per_s.mean(), "1/s"),
            Metric::new("cpu_s", runs.cpu_s.mean(), "s"),
            Metric::new("peak_rss_mb", sys::peak_rss_mb()?, "MiB"),
            Metric::new("op_p50_ms", runs.full_p50.mean(), "ms"),
            Metric::new("op_p90_ms", runs.full_p90.mean(), "ms"),
            Metric::new("op2_p50_ms", runs.frozen_p50.mean(), "ms"),
            Metric::new("op3_p50_ms", runs.grid_ms.mean(), "ms"),
        ],
    })
}

/// What the replica recorded for one scenario.
struct ReplicaScenario {
    history: Vec<EpisodeRecord>,
    spans: Vec<Span>,
    full: bool,
    cache: CacheStats,
    sampled: u64,
    evaluated: u64,
}

/// Where the hardware gate left one sampled episode (mirrors the search's
/// private `PreparedEpisode`).
enum Prepared {
    Malformed,
    Gated(EpisodeRecord),
    Pending {
        arch: archspace::Architecture,
        latency_ms: f64,
    },
}

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

/// One scenario, driven through the layers' public calls in the order
/// `FahanaSearch::with_dataset` + `run_with_batch_evaluator` make them.
fn replica_scenario(
    scenario: &Scenario,
    campaign: &CampaignConfig,
    dataset: &Dataset,
    table: &SharedBlockLatencyTable,
    cache: Arc<EvalCache>,
    tracer: &mut Tracer,
    id: u64,
) -> Result<ReplicaScenario, String> {
    let root = tracer.enter("scenario", id);
    let setup = tracer.enter("scenario.setup", id);
    let config = scenario.to_fahana_config(campaign);
    let surrogate = SurrogateEvaluator::for_dataset(dataset, config.seed);
    let producer = BackboneProducer::new(
        zoo::mobilenet_v2(config.classes, config.input_size),
        config.freeze_gamma,
    );
    let (template, frozen_blocks) = if config.use_freezing {
        let profile = config
            .variation_profile
            .as_ref()
            .ok_or("the replica needs a fixed variation profile")?;
        let template = producer.template(&producer.decide_split(profile));
        let frozen = template.frozen_block_count();
        (template, frozen)
    } else {
        (producer.full_search_template(), 0)
    };
    let space = SearchSpace::new(config.space.clone(), template.searchable_slots());
    let mut controller = RnnController::new(
        space.decision_cardinalities(),
        ControllerConfig {
            seed: config.seed ^ 0x5eed,
            ..config.controller
        },
    )
    .map_err(|e| e.to_string())?;
    let mut evaluator = CachedEvaluator::surrogate(surrogate, cache);
    tracer.exit(setup);

    let episodes = config.episodes;
    let chunk_size = config.episodes_per_update.max(1);
    let mut history: Vec<EpisodeRecord> = Vec::with_capacity(episodes);
    let mut evaluated = 0u64;
    let mut episode = 0;
    while episode < episodes {
        let chunk = chunk_size.min(episodes - episode);
        let mut samples: Vec<EpisodeSample> = Vec::with_capacity(chunk);
        for _ in 0..chunk {
            let sample = tracer.time("controller.sample", id, || controller.sample_episode());
            samples.push(sample.map_err(|e| e.to_string())?);
        }

        let mut prepared = Vec::with_capacity(chunk);
        for (offset, sample) in samples.iter().enumerate() {
            let index = episode + offset;
            let child = tracer.time("archspace.instantiate", id, || {
                let decisions = space.decisions_from_actions(&sample.actions).ok()?;
                template
                    .instantiate(&space, &decisions, format!("fahana-ep{index}"))
                    .ok()
            });
            let Some(child) = child else {
                prepared.push(Prepared::Malformed);
                continue;
            };
            let latency_ms =
                tracer.time("edgehw.latency_estimate", id, || table.estimate_ms(&child));
            let storage_mb = child.storage_mb();
            let meets_storage = config
                .storage_limit_mb
                .is_none_or(|limit| storage_mb <= limit);
            let meets_latency = latency_ms <= config.reward.timing_constraint_ms;
            prepared.push(if meets_latency && meets_storage {
                Prepared::Pending {
                    arch: child,
                    latency_ms,
                }
            } else {
                Prepared::Gated(EpisodeRecord {
                    episode: index,
                    name: child.name().to_string(),
                    params: child.param_count(),
                    storage_mb,
                    latency_ms,
                    accuracy: 0.0,
                    unfairness: 0.0,
                    trained_params: 0,
                    reward: -1.0,
                    valid: false,
                })
            });
        }

        let requests: Vec<EvalRequest> = prepared
            .iter()
            .filter_map(|p| match p {
                Prepared::Pending { arch, .. } => {
                    Some(EvalRequest::new(arch.clone(), frozen_blocks))
                }
                _ => None,
            })
            .collect();
        evaluated += requests.len() as u64;
        let evaluations = tracer.time("evaluator.batch", id, || {
            evaluator.evaluate_batch(&requests)
        });
        if evaluations.len() != requests.len() {
            return Err("batch evaluator returned the wrong number of results".into());
        }

        let assemble = tracer.enter("search.assemble", id);
        let mut evaluations = evaluations.into_iter();
        let mut update_batch: Vec<(EpisodeSample, f64)> = Vec::with_capacity(chunk);
        for (offset, (sample, prep)) in samples.into_iter().zip(prepared).enumerate() {
            let index = episode + offset;
            let record = match prep {
                Prepared::Malformed => invalid_record(index),
                Prepared::Gated(record) => record,
                Prepared::Pending { arch, latency_ms } => match evaluations.next() {
                    Some(Ok(evaluation)) => {
                        let reward = config.reward.compute(
                            evaluation.accuracy(),
                            evaluation.unfairness(),
                            latency_ms,
                        );
                        EpisodeRecord {
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
                        }
                    }
                    _ => invalid_record(index),
                },
            };
            update_batch.push((sample, record.reward));
            history.push(record);
        }
        tracer.exit(assemble);
        tracer
            .time("controller.update", id, || controller.update(&update_batch))
            .map_err(|e| e.to_string())?;
        episode += chunk;
    }
    tracer.exit(root);
    Ok(ReplicaScenario {
        history,
        spans: Vec::new(),
        full: !config.use_freezing,
        cache: evaluator.local_stats(),
        sampled: episodes as u64,
        evaluated,
    })
}

struct ReplicaGrid {
    scenarios: Vec<ReplicaScenario>,
    wall: Duration,
}

/// One grid through the replica, scheduled like the engine: the dataset
/// and latency tables are built once per grid, and the scenarios fan out
/// over `pool.map` sharing one evaluation cache.
fn replica_grid(
    config: &Arc<CampaignConfig>,
    pool: &ThreadPool,
    origin: Instant,
    grid: u64,
) -> Result<ReplicaGrid, String> {
    let started = sys::now();
    let dataset = Arc::new(DermatologyGenerator::new(config.dataset_config()).generate());
    let scenarios = config.expand();
    let tables: HashMap<DeviceKind, SharedBlockLatencyTable> = scenarios
        .iter()
        .map(|s| {
            (
                s.device,
                SharedBlockLatencyTable::new(DeviceProfile::for_kind(s.device)),
            )
        })
        .collect();
    let cache = Arc::new(EvalCache::new());
    let jobs: Vec<(u64, Scenario, SharedBlockLatencyTable)> = scenarios
        .into_iter()
        .enumerate()
        .map(|(index, s)| {
            let table = tables[&s.device].clone();
            (grid * 100 + index as u64, s, table)
        })
        .collect();
    let shared = Arc::clone(config);
    let results = pool.map(jobs, move |_, (id, scenario, table)| {
        let mut tracer = Tracer::new(origin);
        let result = replica_scenario(
            &scenario,
            &shared,
            &dataset,
            &table,
            Arc::clone(&cache),
            &mut tracer,
            id,
        );
        result.map(|mut replica| {
            replica.spans = tracer.into_spans();
            replica
        })
    });
    let scenarios = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(ReplicaGrid {
        scenarios,
        wall: started.elapsed(),
    })
}

/// The traced run: a warm-up engine grid (the reference histories), one
/// engine grid with its metrics registry read for the queue-wait
/// histogram, then engine grids (untraced throughput) alternating with
/// replica grids that put a span around every layer call.
pub fn run_traced(work: &std::path::Path, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let config = fixtures::grid_config(seed);
    let reference = fixtures::campaign_reference(work, seed)?;
    let grids = (grids_for(seconds) / 2).max(2);
    let mut engine_runs = run_engine_grids(&config, &reference, 1)?;
    let engine_first = engine_runs.first.take().ok_or("no engine grid ran")?;

    let mut engine = CampaignEngine::new(config.clone()).map_err(|e| e.to_string())?;
    let telemetry = Telemetry::disabled();
    engine.set_telemetry(telemetry.clone());
    engine.run().map_err(|e| e.to_string())?;
    let queue_wait_ms = telemetry
        .metrics()
        .histogram(
            "fahana_scenario_queue_wait_ms",
            "submit-to-start wait per scenario",
        )
        .quantile(0.5);
    let threads = engine.threads() as f64 + 1.0; // map() also runs jobs on the caller
    drop(engine);

    let shared = Arc::new(config.clone());
    let pool = ThreadPool::new(config.threads);
    let origin = sys::now();
    let (mut attempted, mut failed) = (0, 0);
    let mut replica_wall = Duration::ZERO;
    let mut replica_ops = Samples::new();
    let mut totals: HashMap<&'static str, LayerTotals> = HashMap::new();
    let mut full = Samples::new();
    let mut frozen = Samples::new();
    let mut scenario_ns = 0u64;
    let mut root_self_ns = 0u64;
    let mut cache = CacheStats::default();
    let (mut sampled, mut evaluated) = (0u64, 0u64);
    let mut groups: Vec<(String, Vec<Span>)> = Vec::new();
    for grid in 0..grids as u64 {
        engine_runs.grid(&config, &reference)?;
        let replica = replica_grid(&shared, &pool, origin, grid)?;
        replica_wall += replica.wall;
        replica_ops.push(episodes_of(&config) as f64 / replica.wall.as_secs_f64());
        for (index, (scenario, engine_scenario)) in replica
            .scenarios
            .into_iter()
            .zip(&engine_first.scenarios)
            .enumerate()
        {
            attempted += scenario.sampled;
            if scenario.history != engine_scenario.outcome.history {
                eprintln!(
                    "campaign: replica history differs from the engine's for {}",
                    engine_scenario.scenario.name
                );
                failed += scenario.sampled;
            }
            let selfs = trace::self_times(&scenario.spans);
            let root = &scenario.spans[0];
            scenario_ns += root.duration_ns();
            root_self_ns += selfs[0];
            if scenario.full {
                full.push(root.duration_ns() as f64 / 1e6);
            } else {
                frozen.push(root.duration_ns() as f64 / 1e6);
            }
            for (name, layer) in trace::totals_by_name(&scenario.spans) {
                let entry = totals.entry(name).or_default();
                entry.calls += layer.calls;
                entry.self_ns += layer.self_ns;
            }
            cache.hits += scenario.cache.hits;
            cache.misses += scenario.cache.misses;
            sampled += scenario.sampled;
            evaluated += scenario.evaluated;
            groups.push((format!("grid{grid}/scenario{index}"), scenario.spans));
        }
    }
    let untraced_ops = engine_runs.ops_per_s.mean();
    let traced_ops = replica_ops.mean();
    let per_grid = grids as f64;
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    let self_ms = |name: &str| layer(name).self_ns as f64 / 1e6 / per_grid;
    let calls = |name: &str| layer(name).calls as f64 / per_grid;
    let coverage = 1.0 - root_self_ns as f64 / scenario_ns as f64;
    if coverage < 0.95 {
        eprintln!(
            "campaign: layer spans cover only {:.1}% of scenario time",
            coverage * 100.0
        );
        failed += 1;
    }
    let span_count: usize = groups.iter().map(|(_, spans)| spans.len()).sum();
    let trace_path = work
        .join("traces")
        .join(format!("campaign-seed{seed}.jsonl"));
    let borrowed: Vec<(String, &[Span])> = groups
        .iter()
        .map(|(group, spans)| (group.clone(), spans.as_slice()))
        .collect();
    trace::write_jsonl(&trace_path, &borrowed).map_err(|e| e.to_string())?;
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    let mut metrics = crate::zero_per_layer();
    let mut set = |name: &str, value: f64| crate::set_metric(&mut metrics, name, value);
    set("controller.sample_ms", self_ms("controller.sample"));
    set("controller.sample_calls", calls("controller.sample"));
    set("controller.update_ms", self_ms("controller.update"));
    set("controller.update_calls", calls("controller.update"));
    set(
        "controller.update_share",
        layer("controller.update").self_ns as f64 / scenario_ns as f64,
    );
    set("archspace.instantiate_ms", self_ms("archspace.instantiate"));
    set(
        "edgehw.latency_estimate_ms",
        self_ms("edgehw.latency_estimate"),
    );
    set("gate.pass_ratio", evaluated as f64 / sampled.max(1) as f64);
    set("evaluator.batch_ms", self_ms("evaluator.batch"));
    set("evaluator.requests", evaluated as f64 / per_grid);
    set("evalcache.hits", cache.hits as f64 / per_grid);
    set("evalcache.misses", cache.misses as f64 / per_grid);
    set("evalcache.hit_ratio", cache.hits as f64 / lookups);
    set("scenario.full_ms", full.median());
    set("scenario.frozen_ms", frozen.median());
    set("scenario.setup_ms", self_ms("scenario.setup"));
    set("campaign.queue_wait_ms", queue_wait_ms);
    set(
        "campaign.parallel_efficiency",
        scenario_ns as f64 / 1e9 / (replica_wall.as_secs_f64() * threads),
    );
    set("trace.layer_coverage", coverage);
    set("trace.spans", span_count as f64);
    set(
        "trace.overhead_pct",
        (untraced_ops - traced_ops) / untraced_ops * 100.0,
    );
    eprintln!(
        "campaign traced: update {:.1}% of scenario time, coverage {:.2}%, spans written to {}",
        layer("controller.update").self_ns as f64 / scenario_ns as f64 * 100.0,
        coverage * 100.0,
        trace_path.display()
    );
    Ok(RunResult {
        attempted: attempted + engine_runs.attempted,
        failed: failed + engine_runs.failed,
        metrics,
    })
}
