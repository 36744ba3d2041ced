//! Serve-side observability: per-endpoint request accounting behind
//! `GET /metrics` (Prometheus text) and `GET /statusz` (JSON).
//!
//! Endpoint labels are normalized to a fixed vocabulary (every
//! `/leaderboard/<device>` collapses to one label, unknown paths to
//! `other`), so a hostile client scanning random paths cannot balloon the
//! registry's cardinality.
//!
//! The recorders never look a series up per event. Each instrument is
//! resolved from the registry once, when it records its first event, and
//! kept in a fixed slot (by endpoint and status for request counters), so
//! a series appears in `/metrics` exactly when it did with a lookup per
//! request, and recording a request takes no lock and allocates nothing.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::pool::PoolMonitor;
use crate::report::Json;
use crate::serve::cache::ResponseCache;
use crate::serve::view::StoreView;
use crate::telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Telemetry};

/// The `endpoint` label vocabulary, sorted (`/statusz` lists endpoints in
/// this order, and `endpoint_slot` binary-searches it), `other` last.
const ENDPOINTS: [&str; 9] = [
    "/campaigns",
    "/catalog",
    "/healthz",
    "/ingest",
    "/leaderboard/{device}",
    "/metrics",
    "/query",
    "/statusz",
    "other",
];

/// The statuses `router` answers with: each endpoint's request counters
/// for these are resolved once. Any other status is looked up on each
/// request.
const STATUSES: [u16; 7] = [200, 201, 400, 404, 405, 409, 500];

/// Why the reactor cut a connection at its deadline: the `kind` label of
/// `fahana_serve_deadline_expirations_total`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeadlineKind {
    /// No request started before the idle deadline.
    Idle,
    /// A request was still incomplete at its read deadline.
    Slowloris,
    /// The peer stopped reading a response.
    WriteStall,
    /// The peer did not close within an error response's drain window.
    /// Last, so it sizes the slot table.
    Drain,
}

impl DeadlineKind {
    fn label(self) -> &'static str {
        match self {
            DeadlineKind::Idle => "idle",
            DeadlineKind::Slowloris => "slowloris",
            DeadlineKind::WriteStall => "write_stall",
            DeadlineKind::Drain => "drain",
        }
    }
}

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

/// One endpoint's request instruments.
#[derive(Debug, Default)]
struct EndpointInstruments {
    /// `fahana_http_request_ms{endpoint}`, also read by `/statusz`.
    latency: OnceLock<Histogram>,
    /// `fahana_http_requests_total{endpoint,status}`, one per `STATUSES`.
    requests: [OnceLock<Counter>; STATUSES.len()],
}

/// The server's telemetry context: the shared bundle plus serve-specific
/// bookkeeping (uptime epoch, the pool monitor and response cache polled
/// at scrape time).
///
/// Every instrument the recorders update is resolved from the registry
/// once, on the first event it records, and kept: a series still appears
/// in `/metrics` only once something is recorded to it (the first
/// registration names it), and every later event is an atomic update
/// with no registry lock and no allocation.
#[derive(Debug)]
pub struct ServeTelemetry {
    telemetry: Telemetry,
    started: Instant,
    pool: Option<PoolMonitor>,
    /// The response cache whose hit/miss/eviction counters are mirrored
    /// into the registry at scrape time (same pattern as the pool).
    cache: Option<Arc<ResponseCache>>,
    /// Indexed like `ENDPOINTS`.
    endpoints: [EndpointInstruments; ENDPOINTS.len()],
    request_body_bytes: OnceLock<Counter>,
    response_bytes: OnceLock<Counter>,
    connections: OnceLock<Counter>,
    keepalive_reuse: OnceLock<Counter>,
    accept_errors: OnceLock<Counter>,
    rejected: OnceLock<Counter>,
    /// Indexed by `DeadlineKind`.
    deadline_expirations: [OnceLock<Counter>; DeadlineKind::Drain as usize + 1],
}

/// Collapses a request path onto the bounded endpoint vocabulary used as
/// the `endpoint` label.
pub fn normalize_endpoint(path: &str) -> &'static str {
    ENDPOINTS[endpoint_slot(path)]
}

/// `path`'s slot in `ENDPOINTS`: its own label, the one every
/// `/leaderboard/<device>` shares, or `other`.
fn endpoint_slot(path: &str) -> usize {
    let label = if path.starts_with("/leaderboard/") {
        "/leaderboard/{device}"
    } else {
        path
    };
    ENDPOINTS
        .binary_search(&label)
        .unwrap_or(ENDPOINTS.len() - 1)
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
            endpoints: Default::default(),
            request_body_bytes: OnceLock::new(),
            response_bytes: OnceLock::new(),
            connections: OnceLock::new(),
            keepalive_reuse: OnceLock::new(),
            accept_errors: OnceLock::new(),
            rejected: OnceLock::new(),
            deadline_expirations: Default::default(),
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

    fn metrics(&self) -> &MetricsRegistry {
        self.telemetry.metrics()
    }

    /// The unlabelled counter kept in `cell`, registered on first use.
    fn counter<'a>(&self, cell: &'a OnceLock<Counter>, name: &str, help: &str) -> &'a Counter {
        cell.get_or_init(|| self.metrics().counter(name, help))
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
        let slot = endpoint_slot(path);
        let endpoint = ENDPOINTS[slot];
        let instruments = &self.endpoints[slot];
        let resolve = || {
            self.metrics().counter_with(
                "fahana_http_requests_total",
                "requests served, by endpoint and status",
                &[("endpoint", endpoint), ("status", &status.to_string())],
            )
        };
        match STATUSES.iter().position(|known| *known == status) {
            Some(at) => instruments.requests[at].get_or_init(resolve).inc(),
            None => resolve().inc(),
        }
        instruments
            .latency
            .get_or_init(|| {
                self.metrics().histogram_with(
                    "fahana_http_request_ms",
                    "request handling latency, by endpoint",
                    &[("endpoint", endpoint)],
                )
            })
            .observe(duration);
        self.counter(
            &self.request_body_bytes,
            "fahana_http_request_body_bytes_total",
            "request body bytes received",
        )
        .add(bytes_in as u64);
        self.counter(
            &self.response_bytes,
            "fahana_http_response_bytes_total",
            "response bytes written (head and body)",
        )
        .add(bytes_out as u64);
    }

    /// Records a finished connection: how many requests it carried and how
    /// many of those reused the connection (keep-alive).
    pub fn record_connection(&self, requests_served: usize) {
        self.counter(
            &self.connections,
            "fahana_http_connections_total",
            "connections accepted",
        )
        .inc();
        if requests_served > 1 {
            self.counter(
                &self.keepalive_reuse,
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
        self.counter(
            &self.accept_errors,
            "fahana_serve_accept_errors_total",
            "accept() failures (connection never served)",
        )
        .inc();
    }

    /// Records a connection rejected at the door because the server was at
    /// its in-flight connection limit (answered 503 + Retry-After).
    pub fn record_rejected(&self) {
        self.counter(
            &self.rejected,
            "fahana_serve_rejected_total",
            "connections rejected with 503 at the in-flight limit",
        )
        .inc();
    }

    /// Creates the reactor's instrument bundle.
    pub fn reactor_instruments(&self) -> ReactorInstruments {
        let metrics = self.metrics();
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

    /// Records a connection cut at its reactor read deadline, by kind.
    pub(crate) fn record_deadline_expiry(&self, kind: DeadlineKind) {
        self.deadline_expirations[kind as usize]
            .get_or_init(|| {
                self.metrics().counter_with(
                    "fahana_serve_deadline_expirations_total",
                    "connections cut at their reactor read deadline, by kind",
                    &[("kind", kind.label())],
                )
            })
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
        let endpoints = ENDPOINTS
            .iter()
            .zip(&self.endpoints)
            .filter_map(|(endpoint, instruments)| Some((endpoint, instruments.latency.get()?)))
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
        assert_eq!(normalize_endpoint("/leaderboard"), "other");
        assert_eq!(normalize_endpoint("/"), "other");
        assert_eq!(normalize_endpoint("/metrics"), "/metrics");
        // every label normalizes to itself, and the table is sorted: the
        // slot search and `/statusz`'s order rely on it
        for label in ENDPOINTS {
            let path = label.replace("{device}", "jetson_nano");
            assert_eq!(normalize_endpoint(&path), label);
        }
        assert!(ENDPOINTS.windows(2).all(|pair| pair[0] < pair[1]));
    }
}
