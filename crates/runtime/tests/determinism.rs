//! Runtime determinism guarantees: the same seed must produce identical
//! `SearchOutcome`s whether a search runs serially or through the thread
//! pool, with the evaluation cache on or off, and with telemetry
//! (`--trace-out` / `--metrics-out`) attached or not.

use std::sync::Arc;

use dermsim::DermatologyConfig;
use fahana::{FahanaConfig, FahanaSearch};
use fahana_runtime::{
    CachedEvaluator, CampaignConfig, CampaignEngine, CampaignPlan, CampaignReport, EvalCache, Json,
    ShardSpec,
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
fn cached_evaluation_is_bit_identical_to_uncached() {
    let uncached = FahanaSearch::new(search_config(30, 11))
        .unwrap()
        .run()
        .unwrap();

    let cache = Arc::new(EvalCache::new());
    let mut search = FahanaSearch::new(search_config(30, 11)).unwrap();
    let mut cached_eval = CachedEvaluator::surrogate(search.surrogate().clone(), cache.clone());
    let cached = search.run_with_batch_evaluator(&mut cached_eval).unwrap();
    assert_eq!(uncached.history, cached.history);

    // a second identical search is served from the cache and still agrees
    let mut rerun_search = FahanaSearch::new(search_config(30, 11)).unwrap();
    let mut rerun_eval =
        CachedEvaluator::surrogate(rerun_search.surrogate().clone(), cache.clone());
    let rerun = rerun_search
        .run_with_batch_evaluator(&mut rerun_eval)
        .unwrap();
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
fn campaign_over_eight_scenarios_matches_direct_runs_and_hits_the_cache() {
    // acceptance criteria: >= 8 scenarios (2 devices x 2 rewards x
    // freezing on/off) on >= 2 worker threads with a positive cache
    // hit-rate, and every parallel outcome equal to its serial equivalent
    let campaign = CampaignConfig {
        episodes: 10,
        samples: 150,
        threads: 3,
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
fn sharded_runs_merge_bit_identically_to_a_single_process() {
    // the sharding acceptance gate: for N in {2, 3, 8}, running the
    // 8-scenario grid as N independent worker slices (each with its own
    // cache, as separate processes would) and merging the partial reports
    // must reproduce the single-process canonical report bit-for-bit
    let config = CampaignConfig {
        episodes: 5,
        samples: 120,
        threads: 2,
        ..CampaignConfig::default()
    };
    let plan = CampaignPlan::new(config.clone()).unwrap();
    assert_eq!(plan.len(), 8);

    let engine = CampaignEngine::new(config).unwrap();
    let single = engine.run().unwrap();
    let single_canonical = CampaignReport::from_outcome(&single).canonical();

    for total in [2usize, 3, 8] {
        let mut parts = Vec::new();
        let mut nonempty_shards = 0;
        for index in 0..total {
            let shard = ShardSpec::new(index, total).unwrap();
            let outcome = engine.run_scenarios(plan.slice(shard)).unwrap();
            nonempty_shards += usize::from(!outcome.scenarios.is_empty());
            parts.push(CampaignReport::from_outcome(&outcome));
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
    }
}

#[test]
fn arbitrary_cell_partitions_merge_bit_identically() {
    // the fault-tolerance gate behind rebalancing: hash slices are just
    // one partition of the plan — after a worker dies, its cells run as
    // explicit assignments whose shapes no hash would produce. ANY
    // partition of the plan's cells (uneven, out of hash order, with an
    // idle worker thrown in) must merge back to the single-process
    // canonical report bit-for-bit
    let config = CampaignConfig {
        episodes: 5,
        samples: 120,
        threads: 2,
        ..CampaignConfig::default()
    };
    let plan = CampaignPlan::new(config.clone()).unwrap();
    let order = plan.order();
    assert_eq!(order.len(), 8);

    let engine = CampaignEngine::new(config).unwrap();
    let single = engine.run().unwrap();
    let single_canonical = CampaignReport::from_outcome(&single).canonical();

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
        for cells in &partition {
            let outcome = engine.run_scenarios(plan.subset(cells).unwrap()).unwrap();
            assert_eq!(outcome.scenarios.len(), cells.len());
            parts.push(CampaignReport::from_outcome(&outcome));
        }
        let merged = CampaignReport::merge(&parts, &order).unwrap();
        assert_eq!(
            merged.canonical().to_json().render(),
            single_canonical.to_json().render(),
            "partition {partition:?} must merge to the single-process report"
        );
    }
}

#[test]
fn telemetry_is_a_side_channel_for_campaign_artifacts() {
    // the tentpole contract of the observability layer: running the real
    // fahana-campaign binary with `--trace-out` and `--metrics-out` must
    // leave the canonical report BYTE-identical to an uninstrumented run —
    // telemetry observes, never influences
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
    let run = |extra: &[&str], out: &str| -> String {
        let mut args = vec![
            "--config",
            config.to_str().unwrap(),
            "--canonical",
            "--out",
            out,
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
    run(&[], "plain");
    let stderr = run(
        &[
            "--trace-out",
            "trace.jsonl",
            "--metrics-out",
            "metrics.json",
        ],
        "traced",
    );

    assert_eq!(
        std::fs::read(dir.join("plain/campaign.json")).unwrap(),
        std::fs::read(dir.join("traced/campaign.json")).unwrap(),
        "tracing must not change the canonical report"
    );

    // the end-of-run cache summary reaches stderr
    assert!(stderr.contains("hit-rate"), "{stderr}");

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
