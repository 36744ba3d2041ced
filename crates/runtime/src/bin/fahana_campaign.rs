//! `fahana-campaign` — run a FaHaNa scenario grid from a declarative
//! config and emit per-scenario JSON reports.
//!
//! ```text
//! fahana-campaign [--config FILE] [--out DIR] [--threads N]
//!                 [--episodes N] [--seed N] [--no-cache]
//!                 [--store DIR] [--store-id ID] [--shard I/N]
//!                 [--cells FILE] [--canonical]
//!                 [--trace-out FILE] [--metrics-out FILE]
//!                 [--json] [--print-example]
//! ```
//!
//! Without `--config`, the paper-flavoured default grid runs: 2 devices
//! (Raspberry Pi 4, Odroid XU-4) × 2 reward settings (balanced,
//! fairness-heavy) × freezing on/off = 8 scenarios.
//!
//! `--store` ingests the campaign report into an artifact store that
//! `fahana-query` can answer questions from.
//!
//! `--shard I/N` runs this process as worker `I` of an `N`-way sharded
//! campaign: only the grid cells the stable name-hash partition assigns
//! to shard `I` execute, and the report written is the partial the
//! `fahana-shard` coordinator merges. `--cells FILE` is the
//! explicit-assignment worker mode behind fault-tolerant rescheduling:
//! the file names the exact plan cells to run (one per line, `#`
//! comments allowed), which is how a coordinator hands a dead shard's
//! unfinished cells to a replacement worker. `--canonical` emits the
//! deterministic projection of reports (wall-clock and cache counters
//! zeroed), which is what makes single-process and merged sharded reports
//! diffable byte-for-byte.
//!
//! All report writes are staged to a unique temporary file and renamed
//! into place, so a worker killed at any instant never leaves a
//! partially written `campaign.json` for a retrying coordinator to
//! misread.

use std::path::PathBuf;
use std::process::ExitCode;

use fahana_runtime::{
    write_atomic, ArtifactStore, CampaignConfig, CampaignEngine, CampaignPlan, CampaignReport,
    CellAssignment, ShardAssignment, ShardSpec, Telemetry,
};

struct Cli {
    config_path: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    threads: Option<usize>,
    episodes: Option<usize>,
    seed: Option<u64>,
    no_cache: bool,
    store_dir: Option<PathBuf>,
    store_id: Option<String>,
    shard: Option<ShardSpec>,
    cells: Option<PathBuf>,
    canonical: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    json: bool,
    print_example: bool,
}

fn usage() -> &'static str {
    "usage: fahana-campaign [--config FILE] [--out DIR] [--threads N] \
     [--episodes N] [--seed N] [--no-cache] [--store DIR] [--store-id ID] \
     [--shard I/N] [--cells FILE] [--canonical] [--trace-out FILE] \
     [--metrics-out FILE] [--json] [--print-example]"
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        config_path: None,
        out_dir: None,
        threads: None,
        episodes: None,
        seed: None,
        no_cache: false,
        store_dir: None,
        store_id: None,
        shard: None,
        cells: None,
        canonical: false,
        trace_out: None,
        metrics_out: None,
        json: false,
        print_example: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--config" => cli.config_path = Some(PathBuf::from(value_of("--config")?)),
            "--out" => cli.out_dir = Some(PathBuf::from(value_of("--out")?)),
            "--threads" => {
                cli.threads = Some(
                    value_of("--threads")?
                        .parse()
                        .map_err(|_| "--threads expects a number".to_string())?,
                )
            }
            "--episodes" => {
                cli.episodes = Some(
                    value_of("--episodes")?
                        .parse()
                        .map_err(|_| "--episodes expects a number".to_string())?,
                )
            }
            "--seed" => {
                cli.seed = Some(
                    value_of("--seed")?
                        .parse()
                        .map_err(|_| "--seed expects a number".to_string())?,
                )
            }
            "--no-cache" => cli.no_cache = true,
            "--shard" => {
                let value = value_of("--shard")?;
                cli.shard =
                    Some(value.parse().map_err(|_| {
                        format!("--shard expects I/N with 1 <= I <= N, got `{value}`")
                    })?);
            }
            "--cells" => cli.cells = Some(PathBuf::from(value_of("--cells")?)),
            "--canonical" => cli.canonical = true,
            "--store" => cli.store_dir = Some(PathBuf::from(value_of("--store")?)),
            "--store-id" => {
                // fail now, not after the campaign has run for hours
                let value = value_of("--store-id")?;
                if value.is_empty()
                    || !value
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                {
                    return Err(format!(
                        "--store-id must use letters, digits, `-`, `_` or `.`, got `{value}`"
                    ));
                }
                cli.store_id = Some(value.to_string());
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value_of("--trace-out")?)),
            "--metrics-out" => cli.metrics_out = Some(PathBuf::from(value_of("--metrics-out")?)),
            "--json" => cli.json = true,
            "--print-example" => cli.print_example = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if cli.shard.is_some() && cli.cells.is_some() {
        return Err(format!(
            "--shard and --cells both assign this worker's cells; pass one\n{}",
            usage()
        ));
    }
    Ok(cli)
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Where an injected test crash strikes (see [`injected_fail_point`]).
enum FailPoint {
    /// Die before any work — the common "worker never came up" failure.
    Spawn,
    /// Finish the run, write every artifact, then exit non-zero — the
    /// nasty case where a retried shard's first attempt left complete
    /// artifacts behind and a naive coordinator would merge them twice.
    AfterWrite,
    /// Write a truncated `campaign.json` and claim success — what a
    /// pre-atomic-write worker killed mid-write used to leave behind.
    TornReport,
}

/// Test-only crash injection for the fault-tolerance suite (see
/// `tests/shard_cli.rs` and the CI injected-failure smoke run). Inert
/// unless `FAHANA_TEST_FAIL_SHARD` is set:
///
/// * `FAHANA_TEST_FAIL_SHARD` — comma-separated targets: a 1-based hash
///   shard index (crashes the matching `--shard I/N` worker) and/or the
///   word `cells` (crashes any `--cells` worker);
/// * `FAHANA_TEST_FAIL_MARKER` — fail once: the first matching worker to
///   create this marker file crashes, later attempts run clean;
/// * `FAHANA_TEST_FAIL_POINT` — `spawn` (default), `after-write`, or
///   `torn-report`.
fn injected_fail_point(cli: &Cli) -> Option<FailPoint> {
    let targets = std::env::var("FAHANA_TEST_FAIL_SHARD").ok()?;
    let matched = targets.split(',').map(str::trim).any(|target| match cli {
        Cli {
            shard: Some(spec), ..
        } => target == (spec.index() + 1).to_string(),
        Cli { cells: Some(_), .. } => target == "cells",
        _ => false,
    });
    if !matched {
        return None;
    }
    if let Ok(marker) = std::env::var("FAHANA_TEST_FAIL_MARKER") {
        // fail-once semantics: only the attempt that wins the marker file
        // crashes; create_new makes the claim atomic across racing workers
        if std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&marker)
            .is_err()
        {
            return None;
        }
    }
    match std::env::var("FAHANA_TEST_FAIL_POINT").as_deref() {
        Ok("after-write") => Some(FailPoint::AfterWrite),
        Ok("torn-report") => Some(FailPoint::TornReport),
        _ => Some(FailPoint::Spawn),
    }
}

fn run(cli: Cli) -> Result<(), String> {
    if cli.print_example {
        print!("{}", CampaignConfig::example());
        return Ok(());
    }

    let mut config = match &cli.config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            CampaignConfig::parse(&text).map_err(|e| e.to_string())?
        }
        None => CampaignConfig::default(),
    };
    if let Some(threads) = cli.threads {
        config.threads = threads;
    }
    if let Some(episodes) = cli.episodes {
        config.episodes = episodes;
    }
    if let Some(seed) = cli.seed {
        config.seed = seed;
    }
    if cli.no_cache {
        config.use_cache = false;
    }

    let fail_point = injected_fail_point(&cli);
    if matches!(fail_point, Some(FailPoint::Spawn)) {
        return Err("injected test failure (FAHANA_TEST_FAIL_SHARD) before any work".into());
    }
    if matches!(fail_point, Some(FailPoint::TornReport)) {
        // simulate a pre-atomic-write worker killed mid-write: a torn
        // campaign.json on disk and a successful exit code — the
        // coordinator must treat the unparsable report as a failed
        // attempt, never as merge input
        if let Some(dir) = &cli.out_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            std::fs::write(dir.join("campaign.json"), br#"{"threads":2,"wall_cl"#)
                .map_err(|e| e.to_string())?;
        }
        return Ok(());
    }

    let plan = CampaignPlan::new(config).map_err(|e| e.to_string())?;
    let assignment = match (cli.shard, &cli.cells) {
        (Some(shard), None) => Some(ShardAssignment::Hash(shard)),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let cells = CellAssignment::parse(&text)
                .map_err(|e| format!("cell assignment {}: {e}", path.display()))?;
            Some(ShardAssignment::Cells(cells))
        }
        (None, None) => None,
        (Some(_), Some(_)) => unreachable!("rejected by parse_cli"),
    };
    let scenarios = match &assignment {
        Some(assignment) => {
            let slice = plan
                .slice_assignment(assignment)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "{assignment}: running {} of {} scenarios",
                slice.len(),
                plan.len()
            );
            slice
        }
        None => plan.scenarios().to_vec(),
    };
    let mut engine = CampaignEngine::new(plan.config().clone()).map_err(|e| e.to_string())?;
    // telemetry is a pure side channel: with or without it, every report
    // byte below is identical (pinned by tests/determinism.rs)
    let telemetry = match &cli.trace_out {
        Some(path) => Telemetry::with_trace(path)
            .map_err(|e| format!("cannot create trace sink {}: {e}", path.display()))?,
        None => Telemetry::disabled(),
    };
    engine.set_telemetry(telemetry);
    eprintln!(
        "running {} scenarios on {} worker threads (cache {})",
        scenarios.len(),
        engine.threads(),
        if engine.config().use_cache {
            "on"
        } else {
            "off"
        },
    );
    let outcome = engine.run_scenarios(scenarios).map_err(|e| e.to_string())?;

    eprintln!(
        "{:<40} {:>7} {:>7} {:>9} {:>9} {:>8}",
        "scenario", "valid%", "best R", "wall ms", "hit-rate", "lookups"
    );
    for scenario in &outcome.scenarios {
        let best = scenario
            .outcome
            .best
            .as_ref()
            .map(|b| format!("{:.3}", b.record.reward))
            .unwrap_or_else(|| "-".into());
        eprintln!(
            "{:<40} {:>6.1}% {:>7} {:>9.1} {:>8.1}% {:>8}",
            scenario.scenario.name,
            scenario.outcome.valid_ratio * 100.0,
            best,
            scenario.wall_clock.as_secs_f64() * 1e3,
            scenario.cache.hit_rate() * 100.0,
            scenario.cache.hits + scenario.cache.misses,
        );
    }
    eprintln!(
        "campaign: {:.1} ms wall-clock, cache hit-rate {:.1}% over {} lookups ({} entries)",
        outcome.wall_clock.as_secs_f64() * 1e3,
        outcome.cache.hit_rate() * 100.0,
        outcome.cache.hits + outcome.cache.misses,
        outcome.cache_entries,
    );

    // one typed report is the source for every emission; --canonical
    // swaps in its deterministic projection (what sharded smoke jobs diff)
    let mut report = CampaignReport::from_outcome(&outcome);
    if cli.canonical {
        report = report.canonical();
    }

    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        // staged + renamed, never written in place: a worker killed here
        // must not leave a torn report a retrying coordinator could read
        let campaign_path = dir.join("campaign.json");
        write_atomic(&campaign_path, report.to_json().render())
            .map_err(|e| format!("cannot write {}: {e}", campaign_path.display()))?;
        for scenario in &report.scenarios {
            let path = dir.join(format!("{}.json", sanitize(&scenario.scenario)));
            write_atomic(&path, scenario.to_json().render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        eprintln!(
            "wrote campaign.json and {} scenario reports to {}",
            report.scenarios.len(),
            dir.display()
        );
    }
    if let Some(dir) = &cli.store_dir {
        let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
        let id = cli
            .store_id
            .clone()
            .unwrap_or_else(|| format!("campaign-seed{}", engine.config().seed));
        // suffix on collision (e.g. repeated smoke runs with one id)
        let stored = store
            .ingest_with_suffix(&id, &report.to_json().render())
            .map_err(|e| e.to_string())?;
        eprintln!(
            "ingested campaign as `{}` into the artifact store at {}",
            stored.id,
            store.root().display()
        );
    }
    if let Some(path) = &cli.metrics_out {
        write_atomic(path, engine.telemetry().metrics().to_json().render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote final metrics snapshot to {}", path.display());
    }
    if cli.json {
        println!("{}", report.to_json().render());
    }
    if matches!(fail_point, Some(FailPoint::AfterWrite)) {
        return Err(
            "injected test failure (FAHANA_TEST_FAIL_SHARD) after all artifacts were written"
                .into(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fahana-campaign: {message}");
            ExitCode::FAILURE
        }
    }
}
