//! End-to-end tests for the `fahana-shard` coordinator: real worker
//! processes spawned over a real config, partial reports merged, the
//! result published into an artifact store and into
//! a live `fahana-serve` daemon — and the merged artifacts compared
//! byte-for-byte against a single-process run (what the CI sharded smoke
//! job re-checks with `diff`).
//!
//! The fault-tolerance half injects real worker crashes through the
//! `FAHANA_TEST_FAIL_SHARD` / `FAHANA_TEST_FAIL_MARKER` /
//! `FAHANA_TEST_FAIL_POINT` hooks in `fahana-campaign` (a crashed worker
//! process, not a mock): retried and rebalanced runs must still be
//! bit-identical to a clean single-process run, and exhausted retries
//! must name exactly the cells that never completed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fahana_runtime::{ArtifactStore, CampaignReport, Json, Server, StoreView};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fahana-shard-e2e-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 4-scenario grid (2 devices × 1 reward × freezing on/off) small
/// enough for several process spawns per test. At `--shards 3`, the
/// stable name-hash partition gives shard 1 two cells, and shards 2 and 3
/// one each; shard 2's cell is `raspberry_pi_4/balanced/frozen` (pinned
/// in `shard.rs`), which the crash-injection tests rely on.
fn write_config(dir: &Path) -> PathBuf {
    write_config_with(dir, "")
}

/// [`write_config`]'s grid with `extra` keys appended to the global
/// section.
fn write_config_with(dir: &Path, extra: &str) -> PathBuf {
    let path = dir.join("campaign.conf");
    std::fs::write(
        &path,
        format!(
            "episodes = 4\nsamples = 120\nthreads = 2\nseed = 91\n{extra}\
             devices = raspberry_pi_4, odroid_xu4\nfreezing = on, off\n\
             [reward balanced]\nalpha = 1.0\nbeta = 1.0\n"
        ),
    )
    .unwrap();
    path
}

fn run_with_env(binary: &str, args: &[&str], cwd: &Path, envs: &[(&str, &str)]) -> Output {
    let mut command = Command::new(binary);
    command
        .args(args)
        .current_dir(cwd)
        // the coordinator resolves its worker binary relative to itself;
        // under the test harness the two binaries live in different
        // target subdirectories, so point it explicitly
        .env("FAHANA_CAMPAIGN_BIN", env!("CARGO_BIN_EXE_fahana-campaign"));
    for (key, value) in envs {
        command.env(key, value);
    }
    command
        .output()
        .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"))
}

fn run_ok_with_env(
    binary: &str,
    args: &[&str],
    cwd: &Path,
    envs: &[(&str, &str)],
) -> (String, String) {
    let output = run_with_env(binary, args, cwd, envs);
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

fn run_ok(binary: &str, args: &[&str], cwd: &Path) -> (String, String) {
    run_ok_with_env(binary, args, cwd, &[])
}

/// Runs the single-process reference (canonical report) the recovered
/// coordinator runs are diffed against.
fn run_reference(dir: &Path, config: &str) {
    run_ok(
        env!("CARGO_BIN_EXE_fahana-campaign"),
        &["--config", config, "--canonical", "--out", "single"],
        dir,
    );
}

/// Asserts the coordinator's merged report in `dir` is byte-identical to
/// the single-process reference from [`run_reference`].
fn assert_recovered_bit_identical(dir: &Path) {
    assert_eq!(
        std::fs::read(dir.join("single/campaign.json")).unwrap(),
        std::fs::read(dir.join("recovered/campaign.json")).unwrap(),
        "recovered canonical report must equal the single-process one"
    );
}

#[test]
fn coordinator_spawns_workers_and_merges_bit_identically() {
    let dir = temp_dir("merge");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();
    let shard_bin = env!("CARGO_BIN_EXE_fahana-shard");

    // reference: one process runs the whole grid
    run_reference(&dir, config);

    // sharded: 3 worker processes, merged by the coordinator
    let (stdout, stderr) = run_ok(
        shard_bin,
        &[
            "--config",
            config,
            "--shards",
            "3",
            "--canonical",
            "--out",
            "sharded",
            "--store",
            "store",
            "--store-id",
            "merged",
            "--trace-out",
            "coordinator-trace.jsonl",
            "--json",
        ],
        &dir,
    );
    assert!(stderr.contains("merged 3 partial reports"), "{stderr}");
    // one structured stderr line per reaped attempt: 3 shards, all ok
    for shard in 1..=3 {
        assert!(
            stderr.contains(&format!(
                "attempt: task=shard-{shard} attempt=1/2 outcome=ok"
            )),
            "{stderr}"
        );
    }

    // the trace sink recorded each attempt and the wave, and (since the
    // merged artifacts below are diffed against an untraced single run)
    // tracing the coordinator demonstrably stayed a side channel
    let trace = std::fs::read_to_string(dir.join("coordinator-trace.jsonl")).unwrap();
    let mut attempts = 0;
    let mut waves = 0;
    for line in trace.lines() {
        let record = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        match record.get("name").unwrap().as_str().unwrap() {
            "shard_attempt" => {
                attempts += 1;
                let fields = record.get("fields").unwrap();
                assert_eq!(fields.get("outcome").unwrap().as_str(), Some("ok"));
                assert!(record.get("dur_ms").unwrap().as_f64().unwrap() > 0.0);
            }
            "shard_wave" => {
                waves += 1;
                let fields = record.get("fields").unwrap();
                assert_eq!(fields.get("wave").unwrap().as_str(), Some("initial"));
                assert_eq!(fields.get("tasks").unwrap().as_i64(), Some(3));
                assert_eq!(fields.get("exhausted").unwrap().as_i64(), Some(0));
            }
            other => panic!("unexpected trace record `{other}`: {line}"),
        }
    }
    assert_eq!(attempts, 3, "{trace}");
    assert_eq!(waves, 1, "{trace}");

    // the merged canonical report is byte-identical to the single run's
    let single = std::fs::read(dir.join("single/campaign.json")).unwrap();
    let sharded = std::fs::read(dir.join("sharded/campaign.json")).unwrap();
    assert_eq!(
        single, sharded,
        "sharded(3) canonical report must equal the single-process one"
    );

    // --json printed the same merged report
    assert_eq!(stdout.trim_end_matches('\n').as_bytes(), &sharded[..]);
    let parsed = CampaignReport::parse(stdout.trim()).unwrap();
    assert_eq!(parsed.scenarios.len(), 4);

    // the merged report was ingested into the store and answers queries
    assert!(dir.join("store/artifacts/merged.json").exists());
    let store = ArtifactStore::open(dir.join("store")).unwrap();
    let answer = store.query(&fahana_runtime::StoreQuery::default()).unwrap();
    assert_eq!(answer.campaigns_consulted, 1);
    assert_eq!(answer.scenarios_matched, 4);

    // partials were cleaned up (no --keep-partials)
    assert!(!dir.join("sharded/shards").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coordinator_publishes_into_a_live_daemon_over_keep_alive() {
    let dir = temp_dir("ingest-url");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();
    let shard_bin = env!("CARGO_BIN_EXE_fahana-shard");

    // a live fahana-serve over an empty store
    let store_root = dir.join("serve-store");
    let view = StoreView::open(ArtifactStore::open(&store_root).unwrap()).unwrap();
    let server = Server::bind("127.0.0.1:0", view, 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run().unwrap());

    let (_, stderr) = run_ok(
        shard_bin,
        &[
            "--config",
            config,
            "--shards",
            "2",
            "--out",
            "sharded",
            "--store-id",
            "over-http",
            "--ingest-url",
            &addr.to_string(),
            "--keep-partials",
        ],
        &dir,
    );
    assert!(
        stderr.contains("published merged campaign as `over-http`"),
        "{stderr}"
    );
    // --keep-partials leaves the per-attempt working directories behind
    assert!(dir
        .join("sharded/shards/shard-1.attempt-1/campaign.json")
        .exists());
    assert!(dir
        .join("sharded/shards/shard-2.attempt-1/campaign.json")
        .exists());

    // the daemon holds the merged campaign durably
    assert!(store_root.join("artifacts/over-http.json").exists());
    let report = CampaignReport::parse(
        &std::fs::read_to_string(store_root.join("artifacts/over-http.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(report.scenarios.len(), 4);
    let catalog =
        Json::parse(&std::fs::read_to_string(store_root.join("catalog.json")).unwrap()).unwrap();
    assert_eq!(catalog.get("campaigns").unwrap().as_arr().unwrap().len(), 1);

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The standard recovery-run arguments: 3 workers, canonical output into
/// `recovered/`.
fn recovery_args(config: &str) -> Vec<&str> {
    vec![
        "--config",
        config,
        "--shards",
        "3",
        "--canonical",
        "--out",
        "recovered",
    ]
}

#[test]
fn cache_off_config_shards_bit_identically() {
    // workers read the same config, so every one of them runs uncached;
    // the canonical projection zeroes the cache counters, so the merged
    // report must still equal the single-process run byte-for-byte
    let dir = temp_dir("cache-off");
    let config = write_config_with(&dir, "cache = off\n");
    let config = config.to_str().unwrap();
    run_reference(&dir, config);

    let (_, stderr) = run_ok(
        env!("CARGO_BIN_EXE_fahana-shard"),
        &recovery_args(config),
        &dir,
    );
    assert!(stderr.contains("merged 3 partial reports"), "{stderr}");
    assert_recovered_bit_identical(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_worker_is_retried_and_the_merge_is_bit_identical() {
    let dir = temp_dir("retry");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();
    run_reference(&dir, config);

    // worker 2 crashes at spawn on its first attempt (the marker file
    // makes the injection fire exactly once); the retry must recover
    let marker = dir.join("fail-once.marker");
    let (_, stderr) = run_ok_with_env(
        env!("CARGO_BIN_EXE_fahana-shard"),
        &recovery_args(config),
        &dir,
        &[
            ("FAHANA_TEST_FAIL_SHARD", "2"),
            ("FAHANA_TEST_FAIL_MARKER", marker.to_str().unwrap()),
        ],
    );
    assert!(marker.exists(), "the injected crash never fired");
    assert!(
        stderr.contains("shard-2 attempt 1 of 2 failed, retrying"),
        "{stderr}"
    );
    assert!(stderr.contains("merged 3 partial reports"), "{stderr}");
    assert_recovered_bit_identical(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistently_failing_shard_is_rebalanced_bit_identically() {
    let dir = temp_dir("rebalance");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();
    run_reference(&dir, config);

    // no marker: worker 2 crashes on every hash-mode attempt, so its cell
    // must be rebalanced to an explicit-assignment replacement worker
    // (which the injection, keyed on the hash index, leaves alone)
    let (_, stderr) = run_ok_with_env(
        env!("CARGO_BIN_EXE_fahana-shard"),
        &recovery_args(config),
        &dir,
        &[("FAHANA_TEST_FAIL_SHARD", "2")],
    );
    assert!(stderr.contains("shard-2 failed all 2 attempts"), "{stderr}");
    assert!(
        stderr.contains("rebalancing 1 unfinished cells across 1 replacement workers"),
        "{stderr}"
    );
    assert!(stderr.contains("merged 3 partial reports"), "{stderr}");
    assert_recovered_bit_identical(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn complete_artifacts_of_a_failed_attempt_are_merged_exactly_once() {
    let dir = temp_dir("after-write");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();
    run_reference(&dir, config);

    // the regression from the pre-fault-tolerance coordinator: worker 2's
    // first attempt writes its full report and *then* exits
    // non-zero — the retry must not merge that shard's artifacts twice
    // (per-attempt directories make the winning attempt the only merge
    // input; a double merge would fail with a duplicate-scenario error)
    let marker = dir.join("fail-after-write.marker");
    // --keep-partials keeps the attempt directories around so the test
    // can prove the failed attempt really left complete artifacts behind
    let mut args = recovery_args(config);
    args.push("--keep-partials");
    let (_, stderr) = run_ok_with_env(
        env!("CARGO_BIN_EXE_fahana-shard"),
        &args,
        &dir,
        &[
            ("FAHANA_TEST_FAIL_SHARD", "2"),
            ("FAHANA_TEST_FAIL_MARKER", marker.to_str().unwrap()),
            ("FAHANA_TEST_FAIL_POINT", "after-write"),
        ],
    );
    assert!(
        dir.join("recovered/shards/shard-2.attempt-1/campaign.json")
            .exists(),
        "the failed attempt should have written a complete report"
    );
    assert!(stderr.contains("merged 3 partial reports"), "{stderr}");
    assert_recovered_bit_identical(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_report_from_a_lying_worker_is_retried_not_a_merge_error() {
    let dir = temp_dir("torn");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();
    run_reference(&dir, config);

    // worker 2's first attempt exits 0 but leaves a truncated
    // campaign.json (what a mid-write kill produced before report writes
    // became atomic): the coordinator must diagnose the torn report as a
    // failed attempt and retry, never hand it to the merge
    let marker = dir.join("fail-torn.marker");
    let (_, stderr) = run_ok_with_env(
        env!("CARGO_BIN_EXE_fahana-shard"),
        &recovery_args(config),
        &dir,
        &[
            ("FAHANA_TEST_FAIL_SHARD", "2"),
            ("FAHANA_TEST_FAIL_MARKER", marker.to_str().unwrap()),
            ("FAHANA_TEST_FAIL_POINT", "torn-report"),
        ],
    );
    assert!(
        stderr.contains("shard-2 attempt 1 of 2 failed, retrying"),
        "{stderr}"
    );
    assert!(!stderr.contains("merge failed"), "{stderr}");
    assert_recovered_bit_identical(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_retries_and_rebalancing_name_the_never_completed_cells() {
    let dir = temp_dir("exhausted");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();

    // worker 2 and every explicit-assignment replacement crash on every
    // attempt: recovery is impossible, and the coordinator must say
    // exactly which cells are missing rather than emit partial output
    let output = run_with_env(
        env!("CARGO_BIN_EXE_fahana-shard"),
        &recovery_args(config),
        &dir,
        &[("FAHANA_TEST_FAIL_SHARD", "2,cells")],
    );
    assert!(
        !output.status.success(),
        "an unrecoverable campaign must not exit 0"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("rebalancing 1 unfinished cells"),
        "{stderr}"
    );
    assert!(
        stderr.contains(
            "1 cells never completed after 2 attempts and rebalancing: \
                         raspberry_pi_4/balanced/frozen"
        ),
        "{stderr}"
    );
    // no merged artifacts appear on a failed run
    assert!(!dir.join("recovered/campaign.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explicit_cell_assignments_run_the_named_cells_bit_identically() {
    let dir = temp_dir("cells");
    let config = write_config(&dir);
    let config = config.to_str().unwrap();
    let campaign_bin = env!("CARGO_BIN_EXE_fahana-campaign");

    // reference: shard 1/3 via the hash partition (two cells)
    run_ok(
        campaign_bin,
        &[
            "--config",
            config,
            "--shard",
            "1/3",
            "--canonical",
            "--out",
            "hash",
        ],
        &dir,
    );
    // the same two cells as an explicit assignment file, listed out of
    // plan order and with comments — the worker must normalize and match
    std::fs::write(
        dir.join("assignment.cells"),
        "# shard 1/3's cells, listed backwards\n\
         odroid_xu4/balanced/full\n\
         odroid_xu4/balanced/frozen\n",
    )
    .unwrap();
    let (_, stderr) = run_ok(
        campaign_bin,
        &[
            "--config",
            config,
            "--cells",
            "assignment.cells",
            "--canonical",
            "--out",
            "explicit",
        ],
        &dir,
    );
    assert!(
        stderr.contains("explicit assignment (2 cells): running 2 of 4 scenarios"),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read(dir.join("hash/campaign.json")).unwrap(),
        std::fs::read(dir.join("explicit/campaign.json")).unwrap(),
        "explicit assignment must reproduce the hash slice byte-for-byte"
    );

    // a cell outside the plan is rejected up front
    std::fs::write(dir.join("bogus.cells"), "desktop/balanced/full\n").unwrap();
    let output = run_with_env(
        campaign_bin,
        &["--config", config, "--cells", "bogus.cells"],
        &dir,
        &[],
    );
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("not part of the campaign plan"), "{stderr}");

    // --shard and --cells are mutually exclusive
    let output = run_with_env(
        campaign_bin,
        &[
            "--config",
            config,
            "--shard",
            "1/3",
            "--cells",
            "assignment.cells",
        ],
        &dir,
        &[],
    );
    assert!(!output.status.success());
    std::fs::remove_dir_all(&dir).ok();
}
