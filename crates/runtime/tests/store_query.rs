//! End-to-end tests for the persistence + query subsystem, including the
//! acceptance path: two campaign runs ingested into one store, the rerun
//! reproducing the first run's canonical report, and `fahana-query`
//! answering a device+constraint query from the store.

use std::path::{Path, PathBuf};
use std::process::Command;

use edgehw::DeviceKind;
use fahana_runtime::{
    campaign_json, ArtifactStore, CampaignConfig, CampaignEngine, CampaignReport, Json,
    RewardSetting, StoreQuery,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fahana-e2e-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        episodes: 5,
        samples: 120,
        threads: 2,
        seed,
        devices: vec![DeviceKind::RaspberryPi4, DeviceKind::OdroidXu4],
        rewards: vec![RewardSetting::balanced()],
        freezing: vec![true],
        ..CampaignConfig::default()
    }
}

#[test]
fn store_merges_frontiers_across_campaigns() {
    let dir = temp_dir("merge");
    let store = ArtifactStore::open(&dir).unwrap();

    // two campaigns with different seeds explore different children
    let outcomes: Vec<_> = [21u64, 22]
        .iter()
        .map(|&seed| {
            CampaignEngine::new(tiny_config(seed))
                .unwrap()
                .run()
                .unwrap()
        })
        .collect();
    for (index, outcome) in outcomes.iter().enumerate() {
        store
            .ingest(&format!("seed-{index}"), &campaign_json(outcome))
            .unwrap();
    }

    let answer = store
        .query(&StoreQuery {
            device: Some(DeviceKind::RaspberryPi4),
            ..StoreQuery::default()
        })
        .unwrap();
    assert_eq!(answer.campaigns_consulted, 2);
    assert_eq!(answer.scenarios_matched, 2);

    // the merged frontier equals fahana's merge over the per-scenario
    // frontiers of the matching device
    let expected = fahana::merge_frontiers(
        outcomes
            .iter()
            .flat_map(|outcome| outcome.scenarios.iter())
            .filter(|s| s.scenario.device == DeviceKind::RaspberryPi4)
            .map(|s| s.outcome.accuracy_fairness_frontier()),
    );
    assert_eq!(answer.frontier, expected);

    // best candidate answers the constraint question: it must satisfy the
    // filters and dominate every other candidate on reward
    if let Some(best) = &answer.best {
        for candidate in &answer.candidates {
            assert!(best.record.reward >= candidate.record.reward);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn run_binary(binary: &str, args: &[&str], cwd: &Path) -> (String, String) {
    let output = Command::new(binary)
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"));
    assert!(
        output.status.success(),
        "{binary} {args:?} failed with {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn cli_campaign_store_and_query_acceptance_path() {
    let dir = temp_dir("cli");
    let campaign_bin = env!("CARGO_BIN_EXE_fahana-campaign");
    let query_bin = env!("CARGO_BIN_EXE_fahana-query");

    // a small single-scenario grid via a config file keeps the smoke fast
    let config_path = dir.join("campaign.conf");
    std::fs::write(
        &config_path,
        "episodes = 5\nsamples = 120\nthreads = 2\nseed = 77\n\
         devices = raspberry_pi_4\nfreezing = on\n\
         [reward balanced]\nalpha = 1.0\nbeta = 1.0\n",
    )
    .unwrap();
    let config = config_path.to_str().unwrap();

    // two runs of the same grid, each with its own report directory and
    // store id
    for id in ["first", "rerun"] {
        run_binary(
            campaign_bin,
            &[
                "--config",
                config,
                "--out",
                &format!("{id}-out"),
                "--store",
                "store",
                "--store-id",
                id,
            ],
            &dir,
        );
        assert!(dir.join(format!("store/artifacts/{id}.json")).exists());
    }
    assert!(dir.join("store/catalog.json").exists());

    let report = |id: &str| {
        let path = dir.join(format!("{id}-out/campaign.json"));
        CampaignReport::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let (first, rerun) = (report("first"), report("rerun"));
    assert!(first.cache.misses > 0);
    // the rerun reproduces the first run in every deterministic field
    assert_eq!(
        first.canonical().to_json().render(),
        rerun.canonical().to_json().render()
    );

    // fahana-query answers a device+constraint question from the store
    let (stdout, _) = run_binary(
        query_bin,
        &[
            "--store",
            "store",
            "--device",
            "raspberry_pi_4",
            "--max-latency-ms",
            "100000",
            "--json",
        ],
        &dir,
    );
    let answer = Json::parse(stdout.trim()).unwrap();
    assert_eq!(answer.get("campaigns_consulted").unwrap().as_i64(), Some(2));
    let best = answer.get("best").unwrap();
    assert!(
        best.get("name").and_then(Json::as_str).is_some(),
        "query must name a best architecture, got {}",
        best.render()
    );
    let latency = best.get("latency_ms").unwrap().as_f64().unwrap();
    assert!(latency <= 100000.0);

    // an unsatisfiable constraint is answered, with null best
    let (stdout, _) = run_binary(
        query_bin,
        &["--store", "store", "--max-latency-ms", "0", "--json"],
        &dir,
    );
    let answer = Json::parse(stdout.trim()).unwrap();
    assert_eq!(answer.get("best"), Some(&Json::Null));

    // --list sees both ingested campaigns
    let (stdout, _) = run_binary(query_bin, &["--store", "store", "--list"], &dir);
    assert!(stdout.contains("first:"), "list output: {stdout}");
    assert!(stdout.contains("rerun:"), "list output: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_exit_codes_distinguish_unknown_empty_and_covered_devices() {
    let dir = temp_dir("exit-codes");
    let query_bin = env!("CARGO_BIN_EXE_fahana-query");

    // a store holding Raspberry-Pi-only data
    let store = ArtifactStore::open(dir.join("store")).unwrap();
    let outcome = CampaignEngine::new(CampaignConfig {
        devices: vec![DeviceKind::RaspberryPi4],
        ..tiny_config(88)
    })
    .unwrap()
    .run()
    .unwrap();
    store.ingest("pi-only", &campaign_json(&outcome)).unwrap();

    let status_of = |args: &[&str]| {
        Command::new(query_bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap()
    };

    // covered device → 0, even when constraints admit nothing
    let covered = status_of(&["--store", "store", "--device", "raspberry_pi_4", "--json"]);
    assert_eq!(covered.status.code(), Some(0));
    let starved = status_of(&[
        "--store",
        "store",
        "--device",
        "raspberry_pi_4",
        "--max-latency-ms",
        "0",
        "--json",
    ]);
    assert_eq!(
        starved.status.code(),
        Some(0),
        "an empty answer for a covered device is still an answer"
    );
    // reward/freezing filters narrowing a covered device to zero matching
    // scenarios must not fake the "device missing" signal either
    let filtered = status_of(&[
        "--store",
        "store",
        "--device",
        "raspberry_pi_4",
        "--freezing",
        "off",
        "--json",
    ]);
    assert_eq!(
        filtered.status.code(),
        Some(0),
        "a covered device behind excluding filters must exit 0"
    );

    // known device with no scenarios in the store → the 404-style exit 4,
    // with the (empty) JSON answer still printed for scripted consumers
    let absent = status_of(&["--store", "store", "--device", "odroid_xu4", "--json"]);
    assert_eq!(absent.status.code(), Some(4), "known-but-empty must exit 4");
    let answer = Json::parse(String::from_utf8(absent.stdout).unwrap().trim()).unwrap();
    assert_eq!(answer.get("scenarios_matched").unwrap().as_i64(), Some(0));
    assert!(String::from_utf8(absent.stderr)
        .unwrap()
        .contains("no scenarios for it"));

    // a slug this build does not know stays a usage error → 2
    let unknown = status_of(&["--store", "store", "--device", "toaster", "--json"]);
    assert_eq!(unknown.status.code(), Some(2), "unknown device must exit 2");

    std::fs::remove_dir_all(&dir).ok();
}
