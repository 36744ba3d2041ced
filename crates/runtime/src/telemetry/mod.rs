//! Observability for the fahana runtime: a metrics registry and a
//! structured trace sink, bundled as a [`Telemetry`] handle that threads
//! through every execution layer.
//!
//! The subsystem is std-only and strictly a *side channel*: with or
//! without telemetry attached, every artifact the runtime produces —
//! campaign reports, scenario reports, merged shard outputs — is
//! byte-identical. The determinism tests pin this. Instrumented layers:
//!
//! | layer            | what gets recorded                                            |
//! |------------------|---------------------------------------------------------------|
//! | `CampaignEngine` | per-scenario spans (queue wait, eval time, hit ratio, rate)   |
//! | `ThreadPool`     | jobs executed, worker threads, live queue depth               |
//! | `fahana-shard`   | per-attempt spans (outcome retry/salvage/rebalance), waves    |
//! | `serve/`         | per-endpoint request counts + latency, bytes in/out, reuse    |
//!
//! The registry renders to the Prometheus text format (`GET /metrics` on
//! `fahana-serve`) and to a JSON snapshot (`GET /statusz`,
//! `fahana-campaign --metrics-out`); the trace sink appends JSONL records
//! (`--trace-out`) that always round-trip through the in-repo JSON
//! parser. See the README's "Observability" section for the metric name
//! catalog and the trace record schema.

mod metrics;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_MS};
pub use trace::{SpanGuard, TraceSink};

use std::path::Path;
use std::sync::Arc;

/// The telemetry bundle instrumented code receives: a shared metrics
/// registry plus an optional trace sink. Cloning is cheap (two `Arc`s);
/// a [`Telemetry::disabled`] bundle still aggregates metrics but writes
/// no trace.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    metrics: Arc<MetricsRegistry>,
    trace: Option<Arc<TraceSink>>,
}

impl Telemetry {
    /// A bundle with a fresh registry and no trace sink.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A bundle tracing to `path` (created/truncated now).
    ///
    /// # Errors
    ///
    /// As [`TraceSink::create`].
    pub fn with_trace(path: impl AsRef<Path>) -> std::io::Result<Telemetry> {
        Ok(Telemetry {
            metrics: Arc::new(MetricsRegistry::new()),
            trace: Some(TraceSink::create(path)?),
        })
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The trace sink, if one is attached.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }
}
