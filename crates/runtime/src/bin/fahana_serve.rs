//! `fahana-serve` — serve a campaign artifact store over HTTP.
//!
//! ```text
//! fahana-serve --store DIR [--addr HOST:PORT] [--threads N] [--ingest FILE]...
//!              [--max-inflight N] [--read-timeout-ms MS] [--max-body-bytes N]
//!              [--cache-capacity N] [--sndbuf BYTES] [--trace-out FILE]
//! ```
//!
//! A long-lived daemon answering the same questions as `fahana-query`,
//! without a process spawn or store re-scan per question:
//!
//! ```text
//! curl 'http://127.0.0.1:7878/healthz'
//! curl 'http://127.0.0.1:7878/query?device=raspberry_pi_4&max_latency_ms=50'
//! curl 'http://127.0.0.1:7878/leaderboard/raspberry_pi_4?top=5'
//! curl -X POST --data-binary @campaign.json 'http://127.0.0.1:7878/ingest?id=run-42'
//! ```
//!
//! `--ingest` pre-loads report files at startup (same semantics as
//! `fahana-query --ingest`); `POST /ingest` adds more while running.
//!
//! Read responses are cached per store generation (`--cache-capacity`,
//! 0 disables). The daemon sheds load instead of queueing unboundedly:
//! past `--max-inflight` concurrent connections, new ones are answered
//! `503` with a `Retry-After` header; a connection that dribbles its
//! request in slower than `--read-timeout-ms` gets a `408`; a body larger
//! than `--max-body-bytes` gets a `413` without being buffered.
//!
//! Connections are owned by a nonblocking `poll(2)` readiness reactor,
//! so `--threads` sizes the *request-handling* pool only: thousands of
//! idle keep-alive connections park off-worker. `--sndbuf` shrinks each
//! socket's kernel send buffer (test-facing, exercises partial writes).
//!
//! The daemon self-reports: `GET /metrics` serves the metrics registry in
//! the Prometheus text format (per-endpoint request counts and latency
//! histograms, pool counters, cache hit/miss totals, store generation)
//! and `GET /statusz` a JSON status document with per-endpoint latency
//! percentiles. `--trace-out` additionally appends structured JSONL trace
//! records.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fahana_runtime::{ArtifactStore, ServeOptions, Server, StoreView, Telemetry};

struct Cli {
    store_dir: Option<PathBuf>,
    addr: String,
    options: ServeOptions,
    ingest: Vec<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: fahana-serve --store DIR [--addr HOST:PORT] [--threads N] [--ingest FILE]... \
     [--max-inflight N] [--read-timeout-ms MS] [--max-body-bytes N] [--cache-capacity N] \
     [--sndbuf BYTES] [--trace-out FILE]"
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        store_dir: None,
        addr: "127.0.0.1:7878".into(),
        options: ServeOptions::default(),
        ingest: Vec::new(),
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
                .map_err(|_| format!("{flag} expects a number"))
        };
        match arg.as_str() {
            "--store" => cli.store_dir = Some(PathBuf::from(value_of("--store")?)),
            "--addr" => cli.addr = value_of("--addr")?.to_string(),
            "--threads" => {
                cli.options.threads = number("--threads", value_of("--threads")?)?;
            }
            "--max-inflight" => {
                cli.options.max_inflight = number("--max-inflight", value_of("--max-inflight")?)?;
            }
            "--read-timeout-ms" => {
                let ms = number("--read-timeout-ms", value_of("--read-timeout-ms")?)?;
                if ms == 0 {
                    return Err("--read-timeout-ms must be positive".into());
                }
                cli.options.read_timeout = Duration::from_millis(ms as u64);
            }
            "--max-body-bytes" => {
                cli.options.max_body_bytes =
                    number("--max-body-bytes", value_of("--max-body-bytes")?)?;
            }
            "--cache-capacity" => {
                cli.options.cache_capacity =
                    number("--cache-capacity", value_of("--cache-capacity")?)?;
            }
            "--sndbuf" => {
                let bytes = number("--sndbuf", value_of("--sndbuf")?)?;
                if bytes == 0 {
                    return Err("--sndbuf must be positive".into());
                }
                cli.options.sndbuf = Some(bytes);
            }
            "--ingest" => cli.ingest.push(PathBuf::from(value_of("--ingest")?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value_of("--trace-out")?)),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if cli.store_dir.is_none() {
        return Err(format!("--store is required\n{}", usage()));
    }
    Ok(cli)
}

fn run(cli: Cli) -> Result<(), String> {
    let store = ArtifactStore::open(cli.store_dir.expect("validated in parse_cli"))
        .map_err(|e| e.to_string())?;
    if !cli.ingest.is_empty() {
        let stored = store.ingest_files(&cli.ingest).map_err(|e| e.to_string())?;
        for (path, campaign) in cli.ingest.iter().zip(stored.iter()) {
            eprintln!(
                "ingested {} as `{}` ({} scenarios)",
                path.display(),
                campaign.id,
                campaign.report.scenarios.len()
            );
        }
    }

    let view = StoreView::open(store).map_err(|e| e.to_string())?;
    let campaigns = view.campaigns().len();
    let mut server = Server::bind_with(cli.addr.as_str(), view, cli.options)
        .map_err(|e| format!("cannot bind {}: {e}", cli.addr))?;
    if let Some(path) = &cli.trace_out {
        let telemetry = Telemetry::with_trace(path)
            .map_err(|e| format!("cannot create trace sink {}: {e}", path.display()))?;
        server.set_telemetry(telemetry);
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(trace) = server.obs().telemetry().trace() {
        trace.event(
            "serve_start",
            vec![
                ("addr".into(), fahana_runtime::Json::str(addr.to_string())),
                (
                    "campaigns".into(),
                    fahana_runtime::Json::Int(campaigns as i64),
                ),
                (
                    "threads".into(),
                    fahana_runtime::Json::Int(cli.options.threads as i64),
                ),
                (
                    "max_inflight".into(),
                    fahana_runtime::Json::Int(cli.options.max_inflight as i64),
                ),
            ],
        );
    }
    eprintln!(
        "fahana-serve: listening on http://{addr} ({campaigns} campaigns, {} worker threads, \
         {} max in-flight, cache {})",
        cli.options.threads, cli.options.max_inflight, cli.options.cache_capacity
    );
    server.run().map_err(|e| e.to_string())
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
            eprintln!("fahana-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
