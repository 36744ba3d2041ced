//! Runtime determinism guarantees: the same seed must produce identical
//! `SearchOutcome`s whether a search runs serially or through the thread
//! pool, with the evaluation cache on or off, and with telemetry
//! (`--trace-out` / `--metrics-out`) attached or not.

use std::sync::Arc;

use dermsim::DermatologyConfig;
use fahana::{FahanaConfig, FahanaSearch};
use fahana_runtime::{
    CacheSnapshot, CachedEvaluator, CampaignConfig, CampaignEngine, CampaignPlan, CampaignReport,
    EvalCache, Json, PooledBatchEvaluator, ShardSpec, ThreadPool,
};

fn search_config(episodes: usize, seed: u64) -> FahanaConfig {
    FahanaConfig {
        episodes,
        seed,
        dataset: DermatologyConfig {
            samples: 200,
            image_size: 8,
            ..DermatologyConfig::default()
        },
        ..FahanaConfig::default()
    }
}

#[test]
fn pooled_batch_evaluation_is_bit_identical_to_serial() {
    let serial = FahanaSearch::new(search_config(30, 7))
        .unwrap()
        .run()
        .unwrap();

    let pool = Arc::new(ThreadPool::new(4));
    let mut search = FahanaSearch::new(search_config(30, 7)).unwrap();
    let mut stage = PooledBatchEvaluator::new(pool, search.surrogate().clone());
    let parallel = search.run_with_batch_evaluator(&mut stage).unwrap();

    assert_eq!(serial.history, parallel.history);
    assert_eq!(serial.valid_ratio, parallel.valid_ratio);
    assert_eq!(
        serial.best.as_ref().map(|b| &b.record),
        parallel.best.as_ref().map(|b| &b.record)
    );
    assert_eq!(
        serial.fairest.as_ref().map(|b| &b.record),
        parallel.fairest.as_ref().map(|b| &b.record)
    );
}

#[test]
fn cached_evaluation_is_bit_identical_to_uncached() {
    let uncached = FahanaSearch::new(search_config(30, 11))
        .unwrap()
        .run()
        .unwrap();

    let cache = Arc::new(EvalCache::new());
    let mut search = FahanaSearch::new(search_config(30, 11)).unwrap();
    let mut cached_eval = CachedEvaluator::surrogate(search.surrogate().clone(), cache.clone());
    let cached = search.run_with_evaluator(&mut cached_eval).unwrap();
    assert_eq!(uncached.history, cached.history);

    // a second identical search is served from the cache and still agrees
    let mut rerun_search = FahanaSearch::new(search_config(30, 11)).unwrap();
    let mut rerun_eval =
        CachedEvaluator::surrogate(rerun_search.surrogate().clone(), cache.clone());
    let rerun = rerun_search.run_with_evaluator(&mut rerun_eval).unwrap();
    assert_eq!(uncached.history, rerun.history);
    assert!(
        rerun_eval.local_stats().hits > 0,
        "the rerun should be served from the cache, got {:?}",
        rerun_eval.local_stats()
    );
    assert_eq!(
        rerun_eval.local_stats().misses,
        0,
        "an identical search must not re-evaluate anything"
    );
    assert!(cache.stats().hit_rate() > 0.0);
}

#[test]
fn cached_pooled_and_plain_serial_runs_all_agree() {
    // the full stack at once: shared cache + pooled batches vs plain serial
    let serial = FahanaSearch::new(search_config(25, 13))
        .unwrap()
        .run()
        .unwrap();

    let pool = Arc::new(ThreadPool::new(3));
    let cache = Arc::new(EvalCache::new());
    let mut search = FahanaSearch::new(search_config(25, 13)).unwrap();
    let cached = CachedEvaluator::surrogate(search.surrogate().clone(), cache);
    let mut stage = PooledBatchEvaluator::new(pool, cached);
    let full_stack = search.run_with_batch_evaluator(&mut stage).unwrap();

    assert_eq!(serial.history, full_stack.history);
}

#[test]
fn campaign_over_eight_scenarios_matches_direct_runs_and_hits_the_cache() {
    // acceptance criteria: >= 8 scenarios (2 devices x 2 rewards x
    // freezing on/off) on >= 2 worker threads with a positive cache
    // hit-rate, and every parallel outcome equal to its serial equivalent
    let campaign = CampaignConfig {
        episodes: 10,
        samples: 150,
        threads: 3,
        parallel_episodes: true,
        ..CampaignConfig::default()
    };
    assert_eq!(campaign.scenario_count(), 8);

    let engine = CampaignEngine::new(campaign.clone()).unwrap();
    assert!(engine.threads() >= 2);
    let outcome = engine.run().unwrap();

    assert_eq!(outcome.scenarios.len(), 8);
    assert!(
        outcome.cache.hit_rate() > 0.0,
        "scenario grid must reuse evaluations, got {:?}",
        outcome.cache
    );

    for scenario_outcome in &outcome.scenarios {
        let direct = FahanaSearch::new(scenario_outcome.scenario.to_fahana_config(&campaign))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            direct.history, scenario_outcome.outcome.history,
            "scenario {} must match its serial equivalent",
            scenario_outcome.scenario.name
        );
    }
}

#[test]
fn warm_started_campaign_is_bit_identical_to_a_cold_run() {
    // persist the cache of a cold campaign, reload it from disk, and run
    // the same campaign warm: outcomes must match bit-for-bit and every
    // evaluation must be served from the snapshot (zero misses)
    let config = CampaignConfig {
        episodes: 8,
        samples: 150,
        threads: 2,
        ..CampaignConfig::default()
    };

    let cold_cache = Arc::new(EvalCache::new());
    let cold = CampaignEngine::new(config.clone())
        .unwrap()
        .run_with_cache(Arc::clone(&cold_cache))
        .unwrap();
    assert!(cold.cache.misses > 0, "cold run must evaluate something");

    let dir = std::env::temp_dir().join(format!("fahana-warm-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.fsnap");
    let persisted = cold_cache.snapshot();
    assert_eq!(persisted.len(), cold.cache_entries);
    persisted.save(&path).unwrap();

    let reloaded = CacheSnapshot::load(&path).unwrap();
    assert_eq!(reloaded, persisted, "disk round-trip must be lossless");
    let warm_cache = Arc::new(EvalCache::new());
    assert_eq!(warm_cache.absorb(&reloaded), reloaded.len());

    let warm = CampaignEngine::new(config)
        .unwrap()
        .run_with_cache(Arc::clone(&warm_cache))
        .unwrap();

    assert_eq!(warm.scenarios.len(), cold.scenarios.len());
    for (cold_scenario, warm_scenario) in cold.scenarios.iter().zip(warm.scenarios.iter()) {
        assert_eq!(cold_scenario.scenario.name, warm_scenario.scenario.name);
        assert_eq!(
            cold_scenario.outcome.history, warm_scenario.outcome.history,
            "scenario {} must be bit-identical warm vs cold",
            cold_scenario.scenario.name
        );
    }
    assert_eq!(
        warm.cache.misses, 0,
        "a warm-started rerun of the identical grid must never re-evaluate"
    );
    assert!(warm.cache.hits > 0);
    assert_eq!(warm.cache_entries, cold.cache_entries);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_runs_merge_bit_identically_to_a_single_process() {
    // the sharding acceptance gate: for N in {2, 3, 8}, running the
    // 8-scenario grid as N independent worker slices (each with its own
    // cache, as separate processes would) and merging the partial reports
    // and cache snapshots must reproduce the single-process run
    // bit-for-bit — canonical report rendering and snapshot bytes alike
    let config = CampaignConfig {
        episodes: 5,
        samples: 120,
        threads: 2,
        ..CampaignConfig::default()
    };
    let plan = CampaignPlan::new(config.clone()).unwrap();
    assert_eq!(plan.len(), 8);

    let single_cache = Arc::new(EvalCache::new());
    let single = CampaignEngine::new(config.clone())
        .unwrap()
        .run_with_cache(Arc::clone(&single_cache))
        .unwrap();
    let single_canonical = CampaignReport::from_outcome(&single).canonical();
    let single_snapshot_bytes = single_cache.snapshot().to_bytes();

    for total in [2usize, 3, 8] {
        let mut parts = Vec::new();
        let mut merged_snapshot = CacheSnapshot::new();
        let mut nonempty_shards = 0;
        for index in 0..total {
            let shard = ShardSpec::new(index, total).unwrap();
            let shard_cache = Arc::new(EvalCache::new());
            let outcome = CampaignEngine::new(config.clone())
                .unwrap()
                .run_shard(shard, Arc::clone(&shard_cache))
                .unwrap();
            nonempty_shards += usize::from(!outcome.scenarios.is_empty());
            parts.push(CampaignReport::from_outcome(&outcome));
            let merge = merged_snapshot.merge(&shard_cache.snapshot());
            assert_eq!(
                merge.conflicts, 0,
                "deterministic shards must never disagree on a cache entry (N={total})"
            );
        }
        assert!(
            nonempty_shards >= 2.min(total),
            "the hash partition should spread the grid at N={total}"
        );

        let merged = CampaignReport::merge(&parts, &plan.order()).unwrap();
        assert_eq!(
            merged.canonical().to_json().render(),
            single_canonical.to_json().render(),
            "merged sharded report (N={total}) must equal the single-process run"
        );
        assert_eq!(
            merged_snapshot.to_bytes(),
            single_snapshot_bytes,
            "merged cache snapshot (N={total}) must equal the single-process snapshot"
        );
    }
}

#[test]
fn arbitrary_cell_partitions_merge_bit_identically() {
    // the fault-tolerance gate behind rebalancing: hash slices are just
    // one partition of the plan — after a worker dies, its cells run as
    // explicit assignments whose shapes no hash would produce. ANY
    // partition of the plan's cells (uneven, out of hash order, with an
    // idle worker thrown in) must merge back to the single-process run
    // bit-for-bit, reports and snapshots alike
    let config = CampaignConfig {
        episodes: 5,
        samples: 120,
        threads: 2,
        ..CampaignConfig::default()
    };
    let plan = CampaignPlan::new(config.clone()).unwrap();
    let order = plan.order();
    assert_eq!(order.len(), 8);

    let single_cache = Arc::new(EvalCache::new());
    let single = CampaignEngine::new(config.clone())
        .unwrap()
        .run_with_cache(Arc::clone(&single_cache))
        .unwrap();
    let single_canonical = CampaignReport::from_outcome(&single).canonical();
    let single_snapshot_bytes = single_cache.snapshot().to_bytes();

    // three partitions: uneven, reversed round-robin, and one with an
    // idle (empty) assignment — the shapes retry/rebalance produces
    let partitions: Vec<Vec<Vec<String>>> = vec![
        vec![
            order[..1].to_vec(),
            order[1..4].to_vec(),
            order[4..].to_vec(),
        ],
        vec![
            order.iter().rev().step_by(2).cloned().collect(),
            order.iter().rev().skip(1).step_by(2).cloned().collect(),
        ],
        vec![order[..5].to_vec(), Vec::new(), order[5..].to_vec()],
    ];
    for partition in partitions {
        let mut parts = Vec::new();
        let mut merged_snapshot = CacheSnapshot::new();
        for cells in &partition {
            let worker_cache = Arc::new(EvalCache::new());
            let outcome = CampaignEngine::new(config.clone())
                .unwrap()
                .run_cells(cells, Arc::clone(&worker_cache))
                .unwrap();
            assert_eq!(outcome.scenarios.len(), cells.len());
            parts.push(CampaignReport::from_outcome(&outcome));
            let merge = merged_snapshot.merge(&worker_cache.snapshot());
            assert_eq!(
                merge.conflicts, 0,
                "deterministic workers must never disagree on a cache entry"
            );
        }
        let merged = CampaignReport::merge(&parts, &order).unwrap();
        assert_eq!(
            merged.canonical().to_json().render(),
            single_canonical.to_json().render(),
            "partition {partition:?} must merge to the single-process report"
        );
        assert_eq!(
            merged_snapshot.to_bytes(),
            single_snapshot_bytes,
            "partition {partition:?} must merge to the single-process snapshot"
        );
    }
}

#[test]
fn compacted_snapshot_is_smaller_but_warm_starts_equivalently() {
    // a snapshot accumulated under a *wider* configuration (a larger
    // episode budget explores more children) is compacted against the
    // narrowed grid that keeps running: entries the narrowed search space
    // no longer reaches are dropped, and the shrunken snapshot still
    // serves the narrowed grid with zero misses
    let wide = CampaignConfig {
        episodes: 8,
        samples: 120,
        threads: 2,
        devices: vec![edgehw::DeviceKind::RaspberryPi4],
        rewards: vec![fahana_runtime::RewardSetting::balanced()],
        freezing: vec![true],
        ..CampaignConfig::default()
    };
    let narrow = CampaignConfig {
        episodes: 5,
        ..wide.clone()
    };

    let wide_cache = Arc::new(EvalCache::new());
    CampaignEngine::new(wide)
        .unwrap()
        .run_with_cache(Arc::clone(&wide_cache))
        .unwrap();
    let bloated = wide_cache.snapshot();

    // compact: absorb the bloated snapshot into a fresh cache, replay the
    // narrowed grid, keep only what the replay consulted
    let replay = Arc::new(EvalCache::new());
    assert_eq!(replay.absorb(&bloated), bloated.len());
    let compact_run = CampaignEngine::new(narrow.clone())
        .unwrap()
        .run_with_cache(Arc::clone(&replay))
        .unwrap();
    assert_eq!(
        compact_run.cache.misses, 0,
        "the narrowed grid replays a prefix of the wide run, so the replay is fully warm"
    );
    let compacted = replay.snapshot_touched();
    assert!(
        compacted.len() < bloated.len(),
        "compaction must shrink the snapshot ({} vs {})",
        compacted.len(),
        bloated.len()
    );

    // equivalence: a campaign warm-started from the compacted snapshot
    // matches one warm-started from the bloated snapshot, with zero misses
    let warm_cache = Arc::new(EvalCache::new());
    assert_eq!(warm_cache.absorb(&compacted), compacted.len());
    let warm = CampaignEngine::new(narrow.clone())
        .unwrap()
        .run_with_cache(Arc::clone(&warm_cache))
        .unwrap();
    assert_eq!(warm.cache.misses, 0, "compacted warm start must stay warm");

    let cold = CampaignEngine::new(narrow).unwrap().run().unwrap();
    for (warm_scenario, cold_scenario) in warm.scenarios.iter().zip(cold.scenarios.iter()) {
        assert_eq!(
            warm_scenario.outcome.history, cold_scenario.outcome.history,
            "scenario {} must be bit-identical from the compacted snapshot",
            warm_scenario.scenario.name
        );
    }
}

#[test]
fn telemetry_is_a_side_channel_for_campaign_artifacts() {
    // the tentpole contract of the observability layer: running the real
    // fahana-campaign binary with `--trace-out` and `--metrics-out` must
    // leave the canonical report and the cache snapshot BYTE-identical to
    // an uninstrumented run — telemetry observes, never influences
    let dir = std::env::temp_dir().join(format!("fahana-telemetry-det-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("campaign.conf");
    std::fs::write(
        &config,
        "episodes = 4\nsamples = 120\nthreads = 2\nseed = 23\n\
         devices = raspberry_pi_4\nfreezing = on, off\n\
         [reward balanced]\nalpha = 1.0\nbeta = 1.0\n",
    )
    .unwrap();

    let campaign_bin = env!("CARGO_BIN_EXE_fahana-campaign");
    let run = |extra: &[&str], out: &str, snap: &str| -> String {
        let mut args = vec![
            "--config",
            config.to_str().unwrap(),
            "--canonical",
            "--out",
            out,
            "--cache-out",
            snap,
        ];
        args.extend_from_slice(extra);
        let output = std::process::Command::new(campaign_bin)
            .args(&args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "fahana-campaign {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    run(&[], "plain", "plain.fsnap");
    let stderr = run(
        &[
            "--trace-out",
            "trace.jsonl",
            "--metrics-out",
            "metrics.json",
        ],
        "traced",
        "traced.fsnap",
    );

    assert_eq!(
        std::fs::read(dir.join("plain/campaign.json")).unwrap(),
        std::fs::read(dir.join("traced/campaign.json")).unwrap(),
        "tracing must not change the canonical report"
    );
    assert_eq!(
        std::fs::read(dir.join("plain.fsnap")).unwrap(),
        std::fs::read(dir.join("traced.fsnap")).unwrap(),
        "tracing must not change the cache snapshot"
    );

    // the end-of-run cache summary reaches stderr
    assert!(stderr.contains("hit-rate"), "{stderr}");
    assert!(stderr.contains("absorbed from snapshots"), "{stderr}");

    // every trace line the binary emitted round-trips through the in-repo
    // parser and carries the fixed envelope
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    assert!(!trace.is_empty());
    let mut scenario_spans = 0;
    let mut campaign_spans = 0;
    for line in trace.lines() {
        let record = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(record.get("ts_ms").unwrap().as_i64().is_some(), "{line}");
        let kind = record.get("kind").unwrap().as_str().unwrap();
        assert!(kind == "span" || kind == "event", "{line}");
        assert!(record.get("fields").is_some(), "{line}");
        match record.get("name").unwrap().as_str().unwrap() {
            "scenario" => scenario_spans += 1,
            "campaign" => campaign_spans += 1,
            _ => {}
        }
    }
    assert_eq!(scenario_spans, 2, "one span per grid cell:\n{trace}");
    assert_eq!(campaign_spans, 1, "{trace}");

    // the metrics snapshot parses and names the campaign metric catalog
    let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    let parsed = Json::parse(&metrics).unwrap();
    let names: Vec<&str> = parsed
        .get("metrics")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|metric| metric.get("name").unwrap().as_str().unwrap())
        .collect();
    for required in [
        "fahana_scenarios_total",
        "fahana_scenario_duration_ms",
        "fahana_scenario_queue_wait_ms",
        "fahana_cache_hits_total",
        "fahana_cache_misses_total",
        "fahana_cache_entries",
        "fahana_pool_jobs_total",
        "fahana_pool_threads",
    ] {
        assert!(names.contains(&required), "{required} missing: {names:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_search_matches_uncached_and_snapshots_are_byte_identical() {
    // the cache must not change the search, and two independent caches fed
    // the same search must encode the same snapshot bytes: each map hashes
    // with its own random state, so this pins that the encoding sorts by
    // key and map iteration order never leaks into the file
    let uncached = FahanaSearch::new(search_config(25, 17))
        .unwrap()
        .run()
        .unwrap();

    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let cache = Arc::new(EvalCache::new());
        let mut search = FahanaSearch::new(search_config(25, 17)).unwrap();
        let mut cached_eval = CachedEvaluator::surrogate(search.surrogate().clone(), cache.clone());
        let outcome = search.run_with_evaluator(&mut cached_eval).unwrap();
        assert_eq!(
            uncached.history, outcome.history,
            "the cache must not change the search"
        );
        snapshots.push(cache.snapshot().to_bytes());
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "snapshot bytes must not depend on map order"
    );
}

#[test]
fn campaign_results_do_not_depend_on_thread_count_or_cache() {
    let base = CampaignConfig {
        episodes: 8,
        samples: 150,
        ..CampaignConfig::default()
    };

    let single = CampaignEngine::new(CampaignConfig {
        threads: 1,
        use_cache: false,
        ..base.clone()
    })
    .unwrap()
    .run()
    .unwrap();

    let parallel_cached = CampaignEngine::new(CampaignConfig {
        threads: 4,
        use_cache: true,
        parallel_episodes: true,
        ..base
    })
    .unwrap()
    .run()
    .unwrap();

    assert_eq!(single.scenarios.len(), parallel_cached.scenarios.len());
    for (a, b) in single
        .scenarios
        .iter()
        .zip(parallel_cached.scenarios.iter())
    {
        assert_eq!(a.scenario.name, b.scenario.name);
        assert_eq!(
            a.outcome.history, b.outcome.history,
            "scenario {} must be invariant to threading and caching",
            a.scenario.name
        );
    }
}
