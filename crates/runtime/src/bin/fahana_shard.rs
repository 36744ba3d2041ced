//! `fahana-shard` — fan a campaign out across worker processes, survive
//! worker failures, and merge the partials back into one verified whole.
//!
//! ```text
//! fahana-shard --shards N [--config FILE] [--out DIR] [--threads N]
//!              [--episodes N] [--seed N] [--max-attempts N]
//!              [--store DIR] [--store-id ID]
//!              [--ingest-url HOST:PORT] [--canonical]
//!              [--json] [--keep-partials] [--worker-bin PATH]
//!              [--trace-out FILE]
//! ```
//!
//! The coordinator half of sharded execution (plan → partition → execute
//! → merge), built around a fault-tolerant scheduler:
//!
//! 1. derive the [`CampaignPlan`] from the config — the same plan every
//!    worker derives, so nothing but the config and an assignment crosses
//!    the process boundary;
//! 2. spawn `N` `fahana-campaign --shard I/N` workers, each writing a
//!    partial report into its own per-attempt directory;
//! 3. recover: a worker that dies, or exits cleanly with a missing,
//!    torn or wrong-cells report, is a *failed attempt* — it is retried
//!    (fresh directory, up to `--max-attempts` attempts per task) while
//!    shards that already succeeded are salvaged verbatim and never
//!    re-run. A shard that exhausts its attempts has its unfinished cells
//!    rebalanced across as many replacement workers as there were
//!    survivors, respawned as explicit `--cells` assignments
//!    ([`CellAssignment`]). Only when replacements fail too does the run
//!    error — naming exactly the cells that never completed;
//! 4. merge: each completed task's report is merged exactly once, fused
//!    in plan order ([`CampaignReport::merge`]);
//! 5. publish: write the merged `campaign.json`, optionally ingest into
//!    an artifact store (`--store`) or POST to a running `fahana-serve`
//!    (`--ingest-url`, reusing one keep-alive connection).
//!
//! The merge is verification, not just bookkeeping: a worker's report
//! must cover exactly its assigned cells, scenario overlaps or gaps
//! between tasks abort with a typed error, and the merged canonical
//! report is byte-identical to a single-process run of the same config —
//! including runs that crashed and recovered (pinned by
//! `tests/shard_cli.rs` and the CI injected-failure smoke job).
//!
//! Workers default to the `fahana-campaign` binary sitting next to this
//! one; `--worker-bin` (or the `FAHANA_CAMPAIGN_BIN` environment
//! variable) points elsewhere — e.g. at a release build — without moving
//! files around.
//!
//! Every attempt the scheduler reaps is reported as one structured
//! stderr line (`attempt: task=… attempt=…/… outcome=… duration_ms=…`,
//! outcome `ok`/`retry`/`exhausted`) so retries and rebalances are
//! visible live, not just inferable from attempt directories afterwards.
//! `--trace-out FILE` additionally appends JSONL trace records
//! (`shard_attempt` and `shard_wave` spans, a `rebalance` event) to the
//! sink — a pure side channel: the merged artifacts are byte-identical
//! with tracing on or off.

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

use fahana_runtime::serve::{client_exchange, ClientResponse};
use fahana_runtime::{
    write_atomic, ArtifactStore, CampaignConfig, CampaignPlan, CampaignReport, CellAssignment,
    Json, Telemetry,
};

struct Cli {
    shards: usize,
    config_path: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    threads: Option<usize>,
    episodes: Option<usize>,
    seed: Option<u64>,
    max_attempts: usize,
    store_dir: Option<PathBuf>,
    store_id: Option<String>,
    ingest_url: Option<String>,
    canonical: bool,
    json: bool,
    keep_partials: bool,
    worker_bin: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: fahana-shard --shards N [--config FILE] [--out DIR] \
     [--threads N] [--episodes N] [--seed N] [--max-attempts N] \
     [--store DIR] [--store-id ID] [--ingest-url HOST:PORT] \
     [--canonical] [--json] [--keep-partials] \
     [--worker-bin PATH] [--trace-out FILE]"
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        shards: 0,
        config_path: None,
        out_dir: None,
        threads: None,
        episodes: None,
        seed: None,
        max_attempts: 2,
        store_dir: None,
        store_id: None,
        ingest_url: None,
        canonical: false,
        json: false,
        keep_partials: false,
        worker_bin: None,
        trace_out: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let number = |flag: &str, value: &str| -> Result<usize, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} expects a number, got `{value}`"))
        };
        match arg.as_str() {
            "--shards" => {
                let value = value_of("--shards")?;
                cli.shards = number("--shards", value)?;
            }
            "--config" => cli.config_path = Some(PathBuf::from(value_of("--config")?)),
            "--out" => cli.out_dir = Some(PathBuf::from(value_of("--out")?)),
            "--threads" => {
                let value = value_of("--threads")?;
                cli.threads = Some(number("--threads", value)?);
            }
            "--episodes" => {
                let value = value_of("--episodes")?;
                cli.episodes = Some(number("--episodes", value)?);
            }
            "--seed" => {
                let value = value_of("--seed")?;
                cli.seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed expects a number, got `{value}`"))?,
                );
            }
            "--max-attempts" => {
                let value = value_of("--max-attempts")?;
                cli.max_attempts = number("--max-attempts", value)?;
                if cli.max_attempts == 0 {
                    return Err("--max-attempts must be at least 1".into());
                }
            }
            "--store" => cli.store_dir = Some(PathBuf::from(value_of("--store")?)),
            "--store-id" => {
                // fail now, not after N worker campaigns have run — and the
                // accepted charset is URL-safe, so the id can go into the
                // `POST /ingest?id=` query string verbatim
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
            "--ingest-url" => cli.ingest_url = Some(value_of("--ingest-url")?.to_string()),
            "--canonical" => cli.canonical = true,
            "--json" => cli.json = true,
            "--keep-partials" => cli.keep_partials = true,
            "--worker-bin" => cli.worker_bin = Some(PathBuf::from(value_of("--worker-bin")?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value_of("--trace-out")?)),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if cli.shards == 0 {
        return Err(format!("--shards N (N >= 1) is required\n{}", usage()));
    }
    Ok(cli)
}

/// The `fahana-campaign` binary workers run: `--worker-bin`, then the
/// `FAHANA_CAMPAIGN_BIN` environment variable, then the sibling of this
/// executable.
fn worker_binary(cli: &Cli) -> Result<PathBuf, String> {
    if let Some(path) = &cli.worker_bin {
        return Ok(path.clone());
    }
    if let Some(path) = std::env::var_os("FAHANA_CAMPAIGN_BIN") {
        return Ok(PathBuf::from(path));
    }
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let sibling = me.with_file_name(format!("fahana-campaign{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "no fahana-campaign next to {} — pass --worker-bin or set FAHANA_CAMPAIGN_BIN",
            me.display()
        ))
    }
}

/// How a task's share of the plan is expressed on the worker CLI.
enum TaskMode {
    /// `--shard I/N`: the worker re-derives the hash slice itself.
    Hash { index: usize, total: usize },
    /// `--cells FILE`: an explicit assignment file the coordinator wrote.
    Cells { path: PathBuf },
}

/// One schedulable unit of work: a set of plan cells, the CLI form that
/// expresses it, and how many attempts it has consumed.
struct Task {
    /// Directory-safe label (`shard-2`, `rebalance-1`).
    label: String,
    mode: TaskMode,
    /// The plan cells this task must cover, in plan order.
    cells: Vec<String>,
    /// Attempts consumed so far (successful or not).
    attempts: usize,
}

/// A live worker attempt: the child process, its attempt directory, and
/// the thread draining its stderr (so a chatty worker can never block on
/// a full pipe while the coordinator polls other children).
struct Running {
    task: Task,
    dir: PathBuf,
    child: Child,
    stderr: std::thread::JoinHandle<String>,
    /// When this attempt was spawned — the per-attempt duration reported
    /// on reap is spawn-to-exit, not just child CPU time.
    started: Instant,
}

/// Kills and reaps every still-running worker (used when the coordinator
/// bails hard: no orphan may keep burning CPU on a campaign nobody will
/// merge).
fn kill_all(running: &mut [Running]) {
    for run in running.iter_mut() {
        run.child.kill().ok();
        run.child.wait().ok();
    }
}

/// Everything a spawn needs that does not vary per task.
struct Scheduler<'a> {
    worker_bin: &'a Path,
    shards_dir: &'a Path,
    cli: &'a Cli,
    telemetry: &'a Telemetry,
}

impl Scheduler<'_> {
    /// Spawns one attempt of `task` into a fresh per-attempt directory.
    /// Fresh directories are what makes "merge exactly once" structural:
    /// artifacts of a failed attempt — even complete ones — are never in
    /// the directory a later attempt reports from.
    fn spawn(&self, task: Task) -> Result<Running, String> {
        let attempt_dir =
            self.shards_dir
                .join(format!("{}.attempt-{}", task.label, task.attempts + 1));
        std::fs::create_dir_all(&attempt_dir)
            .map_err(|e| format!("cannot create {}: {e}", attempt_dir.display()))?;
        let mut command = Command::new(self.worker_bin);
        match &task.mode {
            TaskMode::Hash { index, total } => {
                command
                    .arg("--shard")
                    .arg(format!("{}/{}", index + 1, total));
            }
            TaskMode::Cells { path } => {
                command.arg("--cells").arg(path);
            }
        }
        command.arg("--out").arg(&attempt_dir);
        if let Some(path) = &self.cli.config_path {
            command.arg("--config").arg(path);
        }
        if let Some(threads) = self.cli.threads {
            command.arg("--threads").arg(threads.to_string());
        }
        if let Some(episodes) = self.cli.episodes {
            command.arg("--episodes").arg(episodes.to_string());
        }
        if let Some(seed) = self.cli.seed {
            command.arg("--seed").arg(seed.to_string());
        }
        let mut child = command
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.worker_bin.display()))?;
        let mut pipe = child.stderr.take().expect("stderr is piped");
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut pipe, &mut text).ok();
            text
        });
        Ok(Running {
            task,
            dir: attempt_dir,
            child,
            stderr,
            // fahana-lint: allow(wall-clock) attempt age is used for stderr context only; merged artifacts stay byte-identical
            started: Instant::now(),
        })
    }

    /// Validates and loads one finished attempt's report. Any failure
    /// here — missing or unparsable report (a worker killed mid-write, or
    /// one that lied about succeeding), wrong cell coverage — marks the
    /// *attempt* failed and retriable; it is never a merge error.
    fn collect(&self, task: &Task, dir: &Path) -> Result<CampaignReport, String> {
        let report_path = dir.join("campaign.json");
        let text = std::fs::read_to_string(&report_path)
            .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
        let report = CampaignReport::parse(&text)
            .map_err(|e| format!("report {}: {e}", report_path.display()))?;
        // sorted lists, not sets: a corrupt report that names the same
        // scenario twice must fail *this* check (and be retried), not
        // survive into the final merge as a fatal duplicate-scenario error
        let mut produced = report.scenario_names();
        produced.sort_unstable();
        let mut expected: Vec<&str> = task.cells.iter().map(String::as_str).collect();
        expected.sort_unstable();
        if produced != expected {
            return Err(format!(
                "report {} covers cells {:?}, expected {:?}",
                report_path.display(),
                produced,
                expected
            ));
        }
        Ok(report)
    }

    /// Runs `tasks` to completion: all attempts run in parallel, children
    /// are reaped in *completion* order, and a failed task is respawned
    /// the moment it is reaped — its retry runs concurrently with the
    /// still-running siblings, so one slow shard never delays another
    /// shard's recovery — until it succeeds or exhausts `--max-attempts`.
    /// Each task that succeeds has its report collected exactly once,
    /// right when its winning attempt is reaped. Returns the tasks
    /// that never succeeded.
    ///
    /// `wave` names this scheduling round (`initial`, `rebalance`) in the
    /// trace sink's `shard_wave` span.
    fn drive(
        &self,
        wave: &str,
        tasks: Vec<Task>,
        parts: &mut Vec<CampaignReport>,
    ) -> Result<Vec<Task>, String> {
        // fahana-lint: allow(wall-clock) wave timing feeds the trace side channel; merged artifacts stay byte-identical
        let wave_started = Instant::now();
        let wave_tasks = tasks.len();
        let mut attempts_reaped = 0u64;
        let mut exhausted = Vec::new();
        let mut running: Vec<Running> = Vec::with_capacity(tasks.len());
        for task in tasks {
            match self.spawn(task) {
                Ok(run) => running.push(run),
                Err(message) => {
                    // a binary that cannot even spawn will not spawn
                    // better on retry: reap what is running and bail
                    kill_all(&mut running);
                    return Err(message);
                }
            }
        }
        while !running.is_empty() {
            // poll for any finished child (a wait on one specific child
            // would block recovery behind an arbitrary sibling)
            let finished = running.iter_mut().position(|run| {
                // a try_wait error means the child is unreachable; reap
                // it now and let wait() below surface the error
                !matches!(run.child.try_wait(), Ok(None))
            });
            let Some(index) = finished else {
                std::thread::sleep(std::time::Duration::from_millis(25));
                continue;
            };
            let mut run = running.swap_remove(index);
            run.task.attempts += 1;
            let duration = run.started.elapsed();
            let status = run.child.wait();
            let stderr = run.stderr.join().unwrap_or_default();
            let failure = match status {
                Err(e) => Some(format!("wait failed: {e}")),
                Ok(status) if !status.success() => {
                    Some(format!("exited with {}\n{}", status, stderr.trim_end()))
                }
                Ok(_) => match self.collect(&run.task, &run.dir) {
                    Ok(report) => {
                        parts.push(report);
                        None
                    }
                    Err(message) => Some(message),
                },
            };
            attempts_reaped += 1;
            let outcome = match &failure {
                None => "ok",
                Some(_) if run.task.attempts < self.cli.max_attempts => "retry",
                Some(_) => "exhausted",
            };
            let dur_ms = duration.as_secs_f64() * 1e3;
            // one structured line per attempt, success or not: retries and
            // rebalances are visible live on stderr, not only in the trace
            eprintln!(
                "attempt: task={} attempt={}/{} outcome={outcome} duration_ms={dur_ms:.1}",
                run.task.label, run.task.attempts, self.cli.max_attempts
            );
            if let Some(trace) = self.telemetry.trace() {
                trace.span(
                    "shard_attempt",
                    dur_ms,
                    vec![
                        ("task".into(), Json::str(&run.task.label)),
                        ("attempt".into(), Json::Int(run.task.attempts as i64)),
                        ("outcome".into(), Json::str(outcome)),
                        ("cells".into(), Json::Int(run.task.cells.len() as i64)),
                    ],
                );
            }
            let Some(message) = failure else { continue };
            let task = run.task;
            if task.attempts < self.cli.max_attempts {
                eprintln!(
                    "warning: {} attempt {} of {} failed, retrying: {message}",
                    task.label, task.attempts, self.cli.max_attempts
                );
                match self.spawn(task) {
                    Ok(retry) => running.push(retry),
                    Err(message) => {
                        kill_all(&mut running);
                        return Err(message);
                    }
                }
            } else {
                eprintln!(
                    "warning: {} failed all {} attempts, giving it up: {message}",
                    task.label, self.cli.max_attempts
                );
                exhausted.push(task);
            }
        }
        if let Some(trace) = self.telemetry.trace() {
            trace.span(
                "shard_wave",
                wave_started.elapsed().as_secs_f64() * 1e3,
                vec![
                    ("wave".into(), Json::str(wave)),
                    ("tasks".into(), Json::Int(wave_tasks as i64)),
                    ("attempts".into(), Json::Int(attempts_reaped as i64)),
                    ("exhausted".into(), Json::Int(exhausted.len() as i64)),
                ],
            );
        }
        Ok(exhausted)
    }
}

/// Splits `cells` (plan order) round-robin across `workers` replacement
/// assignments, dropping empty ones.
fn rebalance_groups(cells: &[String], workers: usize) -> Vec<Vec<String>> {
    let workers = workers.max(1);
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); workers];
    for (index, cell) in cells.iter().enumerate() {
        groups[index % workers].push(cell.clone());
    }
    groups.retain(|group| !group.is_empty());
    groups
}

fn run(cli: Cli) -> Result<(), String> {
    let config = match &cli.config_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let mut config = CampaignConfig::parse(&text).map_err(|e| e.to_string())?;
            apply_overrides(&mut config, &cli);
            config
        }
        None => {
            let mut config = CampaignConfig::default();
            apply_overrides(&mut config, &cli);
            config
        }
    };
    // the coordinator derives the plan to know the merge order, to fail
    // fast on an invalid grid, and to know every task's cells (what
    // retry verification and rebalancing schedule over); workers
    // re-derive the scenarios themselves
    let plan = CampaignPlan::new(config).map_err(|e| e.to_string())?;
    let worker_bin = worker_binary(&cli)?;
    // the trace sink is a side channel: merged artifacts are byte-identical
    // with or without it (pinned by tests/determinism.rs)
    let telemetry = match &cli.trace_out {
        Some(path) => Telemetry::with_trace(path)
            .map_err(|e| format!("cannot create trace sink {}: {e}", path.display()))?,
        None => Telemetry::disabled(),
    };

    let work_dir = match &cli.out_dir {
        Some(dir) => dir.clone(),
        None => std::env::temp_dir().join(format!("fahana-shard-{}", std::process::id())),
    };
    let shards_dir = work_dir.join("shards");
    std::fs::create_dir_all(&shards_dir)
        .map_err(|e| format!("cannot create {}: {e}", shards_dir.display()))?;

    let scheduler = Scheduler {
        worker_bin: &worker_bin,
        shards_dir: &shards_dir,
        cli: &cli,
        telemetry: &telemetry,
    };
    let order = plan.order();
    let initial: Vec<Task> = (0..cli.shards)
        .map(|index| {
            let spec = fahana_runtime::ShardSpec::new(index, cli.shards)
                .expect("index < shards by construction");
            Task {
                label: format!("shard-{}", index + 1),
                mode: TaskMode::Hash {
                    index,
                    total: cli.shards,
                },
                cells: plan.slice(spec).into_iter().map(|s| s.name).collect(),
                attempts: 0,
            }
        })
        .collect();

    eprintln!(
        "fanning {} scenarios out across {} worker processes ({}, up to {} attempts each)",
        plan.len(),
        cli.shards,
        worker_bin.display(),
        cli.max_attempts,
    );
    let mut parts: Vec<CampaignReport> = Vec::with_capacity(cli.shards);
    let exhausted = scheduler.drive("initial", initial, &mut parts)?;

    if !exhausted.is_empty() {
        // every task that succeeded contributed exactly one part; its
        // artifacts are salvaged as-is and its cells never re-run
        let survivors = parts.len();
        let unfinished: BTreeSet<&str> = exhausted
            .iter()
            .flat_map(|task| task.cells.iter().map(String::as_str))
            .collect();
        let unfinished: Vec<String> = order
            .iter()
            .filter(|name| unfinished.contains(name.as_str()))
            .cloned()
            .collect();
        let groups = rebalance_groups(&unfinished, survivors);
        eprintln!(
            "rebalancing {} unfinished cells across {} replacement workers \
             (salvaged {} completed shards)",
            unfinished.len(),
            groups.len(),
            survivors,
        );
        if let Some(trace) = telemetry.trace() {
            trace.event(
                "rebalance",
                vec![
                    (
                        "unfinished_cells".into(),
                        Json::Int(unfinished.len() as i64),
                    ),
                    ("replacements".into(), Json::Int(groups.len() as i64)),
                    ("salvaged".into(), Json::Int(survivors as i64)),
                ],
            );
        }
        let mut replacements = Vec::new();
        for (index, group) in groups.into_iter().enumerate() {
            let label = format!("rebalance-{}", index + 1);
            let assignment =
                CellAssignment::new(group.clone()).expect("plan-order groups have no duplicates");
            let path = shards_dir.join(format!("{label}.cells"));
            write_atomic(&path, assignment.render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            replacements.push(Task {
                label,
                mode: TaskMode::Cells { path },
                cells: group,
                attempts: 0,
            });
        }
        let failed = scheduler.drive("rebalance", replacements, &mut parts)?;
        if !failed.is_empty() {
            let never: BTreeSet<&str> = failed
                .iter()
                .flat_map(|task| task.cells.iter().map(String::as_str))
                .collect();
            let never: Vec<&str> = order
                .iter()
                .map(String::as_str)
                .filter(|name| never.contains(name))
                .collect();
            return Err(format!(
                "{} cells never completed after {} attempts and rebalancing: {}",
                never.len(),
                cli.max_attempts,
                never.join(", ")
            ));
        }
    }

    let mut merged =
        CampaignReport::merge(&parts, &order).map_err(|e| format!("merge failed: {e}"))?;
    if cli.canonical {
        merged = merged.canonical();
    }
    let merged_json = merged.to_json().render();

    // the merged report only lands on disk when the caller asked for an
    // output directory; publish-only runs keep it in memory (advertising
    // a temp path that the cleanup below would delete again helps nobody)
    match &cli.out_dir {
        Some(_) => {
            let campaign_path = work_dir.join("campaign.json");
            write_atomic(&campaign_path, &merged_json)
                .map_err(|e| format!("cannot write {}: {e}", campaign_path.display()))?;
            eprintln!(
                "merged {} partial reports ({} scenarios) into {}",
                parts.len(),
                merged.scenarios.len(),
                campaign_path.display()
            );
        }
        None => eprintln!(
            "merged {} partial reports ({} scenarios)",
            parts.len(),
            merged.scenarios.len(),
        ),
    }

    let id = cli
        .store_id
        .clone()
        .unwrap_or_else(|| format!("sharded-seed{}", plan.config().seed));
    if let Some(dir) = &cli.store_dir {
        let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
        // suffix on collision (repeated nightly runs): never discard a
        // whole N-worker campaign over a taken id
        let stored = store
            .ingest_with_suffix(&id, &merged_json)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "ingested merged campaign as `{}` into the artifact store at {}",
            stored.id,
            store.root().display()
        );
    }
    if let Some(url) = &cli.ingest_url {
        // one keep-alive connection carries the publish (with the same
        // duplicate-id suffix fallback as the --store path — a repeated
        // nightly publish must not discard a whole N-worker campaign over
        // a 409) and its verification read-back
        let mut stream = TcpStream::connect(url.as_str())
            .map_err(|e| format!("cannot connect to {url}: {e}"))?;
        let mut suffix = 1;
        let published_id = loop {
            let attempt_id = if suffix == 1 {
                id.clone()
            } else {
                format!("{id}-{suffix}")
            };
            let target = format!("/ingest?id={attempt_id}");
            let ClientResponse { status, body, .. } =
                client_exchange(&mut stream, "POST", &target, merged_json.as_bytes())
                    .map_err(|e| format!("POST {target} to {url}: {e}"))?;
            match status {
                201 => break attempt_id,
                409 => suffix += 1,
                _ => return Err(format!("POST {target} to {url} answered {status}: {body}")),
            }
        };
        let ClientResponse { status, body, .. } =
            client_exchange(&mut stream, "GET", "/healthz", b"")
                .map_err(|e| format!("GET /healthz on {url}: {e}"))?;
        let campaigns = Json::parse(&body)
            .ok()
            .and_then(|health| health.get("campaigns").and_then(Json::as_i64))
            .unwrap_or(-1);
        eprintln!(
            "published merged campaign as `{published_id}` to {url} \
             (healthz {status}: {campaigns} campaigns served)"
        );
    }

    if !cli.keep_partials {
        std::fs::remove_dir_all(&shards_dir).ok();
        if cli.out_dir.is_none() {
            // nobody asked for the merged files on disk; do not leak a
            // per-pid temp directory on every publish-only invocation
            std::fs::remove_dir_all(&work_dir).ok();
        }
    }
    if cli.json {
        println!("{merged_json}");
    }
    Ok(())
}

fn apply_overrides(config: &mut CampaignConfig, cli: &Cli) {
    if let Some(threads) = cli.threads {
        config.threads = threads;
    }
    if let Some(episodes) = cli.episodes {
        config.episodes = episodes;
    }
    if let Some(seed) = cli.seed {
        config.seed = seed;
    }
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
            eprintln!("fahana-shard: {message}");
            ExitCode::FAILURE
        }
    }
}
