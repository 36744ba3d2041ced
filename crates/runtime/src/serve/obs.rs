//! Serve-side observability: per-endpoint request accounting behind
//! `GET /metrics` (Prometheus text) and `GET /statusz` (JSON).
//!
//! Endpoint labels are normalized to a fixed vocabulary (every
//! `/leaderboard/<device>` collapses to one label, unknown paths to
//! `other`), so a hostile client scanning random paths cannot balloon the
//! registry's cardinality.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::pool::PoolMonitor;
use crate::report::Json;
use crate::serve::cache::ResponseCache;
use crate::serve::view::StoreView;
use crate::telemetry::{Counter, Gauge, Histogram, Telemetry};

/// The reactor's hot-path instruments, resolved once at spawn so the
/// event loop never touches the registry lock per event.
#[derive(Debug, Clone)]
pub struct ReactorInstruments {
    /// `fahana_serve_parked_connections`: connections watched by the
    /// reactor without occupying a pool worker.
    pub parked: Gauge,
    /// `fahana_serve_reactor_wakeups_total`: loop iterations.
    pub wakeups: Counter,
    /// `fahana_serve_reactor_dispatches_total`: requests handed to the
    /// pool (cache misses and uncached endpoints; hits are answered inline).
    pub dispatches: Counter,
    /// `fahana_serve_reactor_partial_writes_total`: WOULDBLOCK re-arms.
    pub partial_writes: Counter,
}

/// The server's telemetry context: the shared bundle plus serve-specific
/// bookkeeping (uptime epoch, per-endpoint histograms, the pool monitor
/// and response cache polled at scrape time).
#[derive(Debug)]
pub struct ServeTelemetry {
    telemetry: Telemetry,
    started: Instant,
    pool: Option<PoolMonitor>,
    /// The response cache whose hit/miss/eviction counters are mirrored
    /// into the registry at scrape time (same pattern as the pool).
    cache: Option<Arc<ResponseCache>>,
    /// Endpoint → its latency histogram, kept here (as well as in the
    /// registry) so `/statusz` can answer percentiles without re-parsing
    /// the Prometheus rendering.
    latencies: Mutex<BTreeMap<&'static str, Histogram>>,
}

/// Collapses a request path onto the bounded endpoint vocabulary used as
/// the `endpoint` label.
pub fn normalize_endpoint(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/query" => "/query",
        "/campaigns" => "/campaigns",
        "/catalog" => "/catalog",
        "/ingest" => "/ingest",
        "/metrics" => "/metrics",
        "/statusz" => "/statusz",
        path if path.starts_with("/leaderboard/") => "/leaderboard/{device}",
        _ => "other",
    }
}

impl ServeTelemetry {
    /// Wraps a telemetry bundle for serve-side use. `pool` and `cache`
    /// (when given) are polled at scrape time for queue depth, scheduling
    /// counters, and response-cache hit/miss/eviction totals.
    pub fn new(
        telemetry: Telemetry,
        pool: Option<PoolMonitor>,
        cache: Option<Arc<ResponseCache>>,
    ) -> ServeTelemetry {
        ServeTelemetry {
            telemetry,
            started: Instant::now(),
            pool,
            cache,
            latencies: Mutex::new(BTreeMap::new()),
        }
    }

    /// A context with a fresh registry and no trace sink.
    pub fn disabled() -> ServeTelemetry {
        ServeTelemetry::new(Telemetry::disabled(), None, None)
    }

    /// The underlying bundle (for trace access).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Records one served request: the per-endpoint counter and latency
    /// histogram, plus body byte totals.
    pub fn record_request(
        &self,
        path: &str,
        status: u16,
        duration: Duration,
        bytes_in: usize,
        bytes_out: usize,
    ) {
        let endpoint = normalize_endpoint(path);
        let metrics = self.telemetry.metrics();
        metrics
            .counter_with(
                "fahana_http_requests_total",
                "requests served, by endpoint and status",
                &[("endpoint", endpoint), ("status", &status.to_string())],
            )
            .inc();
        let latency = metrics.histogram_with(
            "fahana_http_request_ms",
            "request handling latency, by endpoint",
            &[("endpoint", endpoint)],
        );
        latency.observe(duration);
        super::unpoison(self.latencies.lock())
            .entry(endpoint)
            .or_insert(latency);
        metrics
            .counter(
                "fahana_http_request_body_bytes_total",
                "request body bytes received",
            )
            .add(bytes_in as u64);
        metrics
            .counter(
                "fahana_http_response_bytes_total",
                "response bytes written (head and body)",
            )
            .add(bytes_out as u64);
    }

    /// Records a finished connection: how many requests it carried and how
    /// many of those reused the connection (keep-alive).
    pub fn record_connection(&self, requests_served: usize) {
        let metrics = self.telemetry.metrics();
        metrics
            .counter("fahana_http_connections_total", "connections accepted")
            .inc();
        if requests_served > 1 {
            metrics
                .counter(
                    "fahana_http_keepalive_reuse_total",
                    "requests served over an already-used (kept-alive) connection",
                )
                .add(requests_served as u64 - 1);
        }
    }

    /// Records an accept-loop failure (a connection the server never got
    /// to serve). The accept loop backs off briefly after counting one so
    /// a persistent local error cannot spin the loop hot.
    pub fn record_accept_error(&self) {
        self.telemetry
            .metrics()
            .counter(
                "fahana_serve_accept_errors_total",
                "accept() failures (connection never served)",
            )
            .inc();
    }

    /// Records a connection rejected at the door because the server was at
    /// its in-flight connection limit (answered 503 + Retry-After).
    pub fn record_rejected(&self) {
        self.telemetry
            .metrics()
            .counter(
                "fahana_serve_rejected_total",
                "connections rejected with 503 at the in-flight limit",
            )
            .inc();
    }

    /// Creates the reactor's instrument bundle.
    pub fn reactor_instruments(&self) -> ReactorInstruments {
        let metrics = self.telemetry.metrics();
        ReactorInstruments {
            parked: metrics.gauge(
                "fahana_serve_parked_connections",
                "keep-alive connections held by the reactor without a pool worker",
            ),
            wakeups: metrics.counter(
                "fahana_serve_reactor_wakeups_total",
                "reactor loop iterations (readiness, timer, or self-pipe wakes)",
            ),
            dispatches: metrics.counter(
                "fahana_serve_reactor_dispatches_total",
                "requests handed from the reactor to the pool: cache misses and uncached endpoints only",
            ),
            partial_writes: metrics.counter(
                "fahana_serve_reactor_partial_writes_total",
                "response writes that hit WOULDBLOCK and re-armed for write readiness",
            ),
        }
    }

    /// Records a connection cut at its reactor read deadline, by kind
    /// (`idle`, `slowloris`, `write_stall`, `drain`).
    pub fn record_deadline_expiry(&self, kind: &'static str) {
        self.telemetry
            .metrics()
            .counter_with(
                "fahana_serve_deadline_expirations_total",
                "connections cut at their reactor read deadline, by kind",
                &[("kind", kind)],
            )
            .inc();
    }

    /// Refreshes the point-in-time gauges (pool, cache, uptime) from their
    /// sources. Called before either rendering.
    fn refresh_gauges(&self, view: &StoreView) {
        let metrics = self.telemetry.metrics();
        metrics
            .gauge("fahana_serve_uptime_seconds", "seconds since server start")
            .set(self.started.elapsed().as_secs() as i64);
        metrics
            .gauge(
                "fahana_store_generation",
                "store view generation (bumps on every ingest or reload)",
            )
            .set(view.generation() as i64);
        metrics
            .gauge("fahana_store_campaigns", "campaigns in the store view")
            .set(view.campaigns().len() as i64);
        if let Some(pool) = &self.pool {
            pool.export_metrics(metrics);
        }
        if let Some(cache) = &self.cache {
            let stats = cache.stats();
            for (name, help, count) in [
                (
                    "fahana_serve_cache_hits_total",
                    "response cache lookups answered from cached bytes",
                    stats.hits,
                ),
                (
                    "fahana_serve_cache_misses_total",
                    "response cache lookups that had to render",
                    stats.misses,
                ),
                (
                    "fahana_serve_cache_evictions_total",
                    "response cache entries evicted under capacity pressure",
                    stats.evictions,
                ),
                (
                    "fahana_serve_cache_invalidations_total",
                    "wholesale response cache flushes on generation bump",
                    stats.invalidations,
                ),
            ] {
                metrics.counter(name, help).set(count);
            }
            metrics
                .gauge(
                    "fahana_serve_cache_entries",
                    "response cache entries currently held",
                )
                .set(stats.entries as i64);
        }
    }

    /// The `GET /metrics` body: the registry in Prometheus text format.
    pub fn render_metrics(&self, view: &StoreView) -> String {
        self.refresh_gauges(view);
        self.telemetry.metrics().render_prometheus()
    }

    /// The `GET /statusz` body: uptime, store generation, and per-endpoint
    /// request counts with latency percentiles.
    pub fn statusz_json(&self, view: &StoreView) -> Json {
        self.refresh_gauges(view);
        let endpoints = super::unpoison(self.latencies.lock())
            .iter()
            .map(|(endpoint, latency)| {
                Json::Obj(vec![
                    ("endpoint".into(), Json::str(*endpoint)),
                    ("requests".into(), Json::Int(latency.count() as i64)),
                    ("p50_ms".into(), Json::Num(latency.quantile(0.5))),
                    ("p90_ms".into(), Json::Num(latency.quantile(0.9))),
                    ("p99_ms".into(), Json::Num(latency.quantile(0.99))),
                ])
            })
            .collect();
        let mut body = Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            (
                "uptime_ms".into(),
                Json::Int(self.started.elapsed().as_millis() as i64),
            ),
            (
                "store_generation".into(),
                Json::Int(view.generation() as i64),
            ),
            ("campaigns".into(), Json::Int(view.campaigns().len() as i64)),
            ("endpoints".into(), Json::Arr(endpoints)),
        ]);
        if let Some(cache) = &self.cache {
            let stats = cache.stats();
            // `body` is the Json::Obj built a few lines up; the else
            // arm exists only to satisfy the let-else shape.
            let Json::Obj(fields) = &mut body else {
                return body;
            };
            fields.push((
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::Int(stats.hits as i64)),
                    ("misses".into(), Json::Int(stats.misses as i64)),
                    ("evictions".into(), Json::Int(stats.evictions as i64)),
                    (
                        "invalidations".into(),
                        Json::Int(stats.invalidations as i64),
                    ),
                    ("entries".into(), Json::Int(stats.entries as i64)),
                    ("generation".into(), Json::Int(stats.generation as i64)),
                ]),
            ));
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(normalize_endpoint("/healthz"), "/healthz");
        assert_eq!(
            normalize_endpoint("/leaderboard/raspberry_pi_4"),
            "/leaderboard/{device}"
        );
        assert_eq!(
            normalize_endpoint("/leaderboard/../../etc/passwd"),
            "/leaderboard/{device}"
        );
        assert_eq!(normalize_endpoint("/favicon.ico"), "other");
        assert_eq!(normalize_endpoint("/metrics"), "/metrics");
    }
}
