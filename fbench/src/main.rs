//! `fbench` — the fixed-work end-to-end benchmark.
//!
//! ```text
//! fbench --workload campaign|serve_read|serve_ingest --seed N --seconds S
//!        --trace 0|1 [--work DIR]
//! ```
//!
//! Every run does a fixed amount of work (set by `--seconds`, not timed by
//! it), checks every output, and prints one JSON object as its last line:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Seeded inputs
//! are generated once per seed under `--work` and reused. The exit code
//! is 0 when every check passed, 1 when a check failed (the result is
//! still printed), 2 on a usage or set-up error (nothing printed).
//! See `README.md` beside this crate for the workloads and metrics.

mod campaign;
mod client;
mod fixtures;
mod serve;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run reports.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The per-layer metrics of a traced run, with their units. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("controller.sample_ms", "ms"),
    ("controller.sample_calls", "count"),
    ("controller.update_ms", "ms"),
    ("controller.update_calls", "count"),
    ("controller.update_share", "ratio"),
    ("archspace.instantiate_ms", "ms"),
    ("edgehw.latency_estimate_ms", "ms"),
    ("gate.pass_ratio", "ratio"),
    ("evaluator.batch_ms", "ms"),
    ("evaluator.requests", "count"),
    ("evalcache.hits", "count"),
    ("evalcache.misses", "count"),
    ("evalcache.hit_ratio", "ratio"),
    ("scenario.full_ms", "ms"),
    ("scenario.frozen_ms", "ms"),
    ("scenario.setup_ms", "ms"),
    ("campaign.queue_wait_ms", "ms"),
    ("campaign.parallel_efficiency", "ratio"),
    ("http.parse_us", "us"),
    ("router.route_us", "us"),
    ("http.render_us", "us"),
    ("transport.residual_us", "us"),
    ("reactor.wakeups_per_request", "count"),
    ("reactor.dispatches_per_request", "count"),
    ("respcache.hits", "count"),
    ("respcache.misses", "count"),
    ("respcache.hit_ratio", "ratio"),
    ("respcache.invalidations", "count"),
    ("store.ingest_ms", "ms"),
    ("view.reload_ms", "ms"),
    ("store.campaigns_ms", "ms"),
    ("store.catalog_json_ms", "ms"),
    ("store.read_bytes_per_ingest", "bytes"),
    ("router.prerender_ms", "ms"),
    ("loadgen.cpu_s", "s"),
    ("loadgen.cpu_share", "ratio"),
    ("read_tail_ms", "ms"),
    ("read_tail_pct", "pct"),
    ("trace.layer_coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "pct"),
];

/// Every per-layer metric at 0, for a traced run to fill in.
pub fn zero_per_layer() -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect()
}

/// Sets a per-layer metric by name.
///
/// # Panics
///
/// On a name missing from [`PER_LAYER`] (a bug in this benchmark).
pub fn set_metric(metrics: &mut [Metric], name: &str, value: f64) {
    let metric = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
    metric.value = value;
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

const USAGE: &str = "usage: fbench --workload campaign|serve_read|serve_ingest --seed N \
                     --seconds S --trace 0|1 [--work DIR]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(".fbench_work");
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(Cli {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        work,
    })
}

fn run(cli: &Cli) -> Result<RunResult, String> {
    use serve::Workload;
    let (work, seed, seconds) = (cli.work.as_path(), cli.seed, cli.seconds);
    match (cli.workload.as_str(), cli.trace) {
        ("campaign", false) => campaign::run(work, seed, seconds),
        ("campaign", true) => campaign::run_traced(work, seed, seconds),
        ("serve_read", false) => serve::run(Workload::Read, work, seed, seconds),
        ("serve_read", true) => serve::run_traced(Workload::Read, work, seed, seconds),
        ("serve_ingest", false) => serve::run(Workload::Ingest, work, seed, seconds),
        ("serve_ingest", true) => serve::run_traced(Workload::Ingest, work, seed, seconds),
        (other, _) => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

fn render(result: &RunResult) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(result.metrics.len());
    for metric in &result.metrics {
        if !metric.value.is_finite() {
            return Err(format!("{} is not a finite number", metric.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    ))
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
    let outcome = std::fs::create_dir_all(&cli.work)
        .map_err(|e| format!("cannot create {}: {e}", cli.work.display()))
        .and_then(|()| run(&cli))
        .and_then(|result| render(&result).map(|line| (line, result.failed)));
    match outcome {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("fbench: {failed} operations failed their output checks");
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("fbench: {message}");
            ExitCode::from(2)
        }
    }
}
