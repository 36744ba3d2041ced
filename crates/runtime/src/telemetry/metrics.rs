//! The metrics registry: named counters, gauges, and fixed-bucket latency
//! histograms behind lock-cheap handles.
//!
//! Registration (naming a metric, attaching labels) takes a mutex once;
//! every subsequent update goes through an `Arc`'d atomic the caller keeps,
//! so the hot paths — a cache lookup, a pool pop, an HTTP request — never
//! contend on the registry itself. Histograms shard their observations
//! into fixed bins (one atomic per bin), trading exact quantiles for
//! wait-free recording; [`Histogram::quantile`] interpolates estimates
//! back out of the bins.
//!
//! Rendering is deterministic: families sort by name, series by label
//! string, so two snapshots of identical counters are byte-identical —
//! the same property every other artifact in this workspace holds.
//! [`MetricsRegistry::render_prometheus`] emits the Prometheus text
//! exposition format (`GET /metrics`); [`MetricsRegistry::to_json`] emits
//! the JSON snapshot behind `fahana-campaign --metrics-out` and
//! `GET /statusz`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::report::Json;

/// Default latency buckets in milliseconds (upper-inclusive bounds); the
/// last implicit bucket is `+Inf`. Spans 250 µs to 10 s, which covers
/// everything from a cache-hit HTTP answer to a full scenario search.
pub const LATENCY_BUCKETS_MS: [f64; 14] = [
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
];

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the counter — for mirroring an externally accumulated
    /// total (e.g. pool counters collected at snapshot time) into the
    /// registry without double-counting.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram handle (latencies in milliseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

#[derive(Debug)]
struct HistogramCore {
    /// Upper-inclusive bucket bounds (ms); one extra implicit `+Inf` bin.
    bounds: Vec<f64>,
    /// One atomic bin per bound, plus the `+Inf` bin — observations are a
    /// single fetch_add on the owning bin, never a lock.
    bins: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in nanoseconds, so sub-millisecond observations accumulate
    /// without float atomics.
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// Records one observation (milliseconds).
    pub fn observe_ms(&self, ms: f64) {
        let core = &self.0;
        let ms = if ms.is_finite() { ms.max(0.0) } else { 0.0 };
        let bin = core
            .bounds
            .iter()
            .position(|bound| ms <= *bound)
            .unwrap_or(core.bounds.len());
        core.bins[bin].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum_nanos
            .fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] observation.
    pub fn observe(&self, duration: std::time::Duration) {
        self.observe_ms(duration.as_secs_f64() * 1e3);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.0.sum_nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) in milliseconds by linear
    /// interpolation inside the owning bucket. Observations beyond the
    /// last finite bound clamp to it; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        let core = &self.0;
        let counts: Vec<u64> = core
            .bins
            .iter()
            .map(|bin| bin.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bin, count) in counts.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            if seen + count >= rank {
                let upper = match core.bounds.get(bin) {
                    Some(bound) => *bound,
                    // +Inf bin: clamp to the last finite bound
                    None => return core.bounds.last().copied().unwrap_or(0.0),
                };
                let lower = if bin == 0 { 0.0 } else { core.bounds[bin - 1] };
                let into = (rank - seen) as f64 / *count as f64;
                return lower + (upper - lower) * into;
            }
            seen += count;
        }
        core.bounds.last().copied().unwrap_or(0.0)
    }
}

/// What kind of series a registered name is — one kind per family name,
/// checked at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Label-string → series, sorted so renders are deterministic.
    series: BTreeMap<String, Series>,
}

/// A registry of named metrics, shared across subsystems via `Arc`.
///
/// # Example
///
/// ```
/// use fahana_runtime::telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let hits = registry.counter("cache_hits_total", "evaluation cache hits");
/// hits.add(3);
/// assert!(registry.render_prometheus().contains("cache_hits_total 3"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Renders a label set into the `{k="v",…}` form used both as the series
/// key and in the exposition output. Empty labels render as "".
fn label_string(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(key, value)| {
            let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
            format!("{key}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", pairs.join(","))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn series(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Series {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name `{name}` is not a valid Prometheus identifier"
        );
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` registered as {} and re-requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(label_string(labels))
            .or_insert_with(|| match kind {
                Kind::Counter => Series::Counter(Counter(Arc::new(AtomicU64::new(0)))),
                Kind::Gauge => Series::Gauge(Gauge(Arc::new(AtomicI64::new(0)))),
                Kind::Histogram => Series::Histogram(Histogram(Arc::new(HistogramCore {
                    bounds: LATENCY_BUCKETS_MS.to_vec(),
                    bins: (0..=LATENCY_BUCKETS_MS.len())
                        .map(|_| AtomicU64::new(0))
                        .collect(),
                    count: AtomicU64::new(0),
                    sum_nanos: AtomicU64::new(0),
                }))),
            })
            .clone()
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled counter series. The same
    /// (name, labels) pair always returns a handle to the same value.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, Kind::Counter, labels) {
            Series::Counter(counter) => counter,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels) {
            Series::Gauge(gauge) => gauge,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Registers (or retrieves) an unlabelled latency histogram
    /// ([`LATENCY_BUCKETS_MS`] bounds, milliseconds).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled latency histogram series.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, Kind::Histogram, labels) {
            Series::Histogram(histogram) => histogram,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format, families sorted by name and series by label string.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(counter) => {
                        out.push_str(&format!("{name}{labels} {}\n", counter.get()));
                    }
                    Series::Gauge(gauge) => {
                        out.push_str(&format!("{name}{labels} {}\n", gauge.get()));
                    }
                    Series::Histogram(histogram) => {
                        let core = &histogram.0;
                        let mut cumulative = 0u64;
                        for (bin, bound) in core.bounds.iter().enumerate() {
                            cumulative += core.bins[bin].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                merge_labels(labels, &format!("le=\"{bound}\""))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            merge_labels(labels, "le=\"+Inf\""),
                            histogram.count()
                        ));
                        out.push_str(&format!("{name}_sum{labels} {}\n", histogram.sum_ms()));
                        out.push_str(&format!("{name}_count{labels} {}\n", histogram.count()));
                    }
                }
            }
        }
        out
    }

    /// The registry as a JSON snapshot (the `--metrics-out` format):
    /// `{"metrics":[{"name","kind","help","series":[{"labels","value"|…}]}]}`,
    /// deterministically ordered like the Prometheus rendering.
    pub fn to_json(&self) -> Json {
        let families = self.families.lock().expect("metrics registry poisoned");
        let metrics = families
            .iter()
            .map(|(name, family)| {
                let series = family
                    .series
                    .iter()
                    .map(|(labels, series)| {
                        let mut entry = vec![("labels".to_string(), Json::str(labels.clone()))];
                        match series {
                            Series::Counter(counter) => {
                                entry.push(("value".into(), Json::Int(counter.get() as i64)));
                            }
                            Series::Gauge(gauge) => {
                                entry.push(("value".into(), Json::Int(gauge.get())));
                            }
                            Series::Histogram(histogram) => {
                                let core = &histogram.0;
                                entry.push(("count".into(), Json::Int(histogram.count() as i64)));
                                entry.push(("sum_ms".into(), Json::Num(histogram.sum_ms())));
                                entry.push((
                                    "buckets".into(),
                                    Json::Arr(
                                        core.bounds
                                            .iter()
                                            .enumerate()
                                            .map(|(bin, bound)| {
                                                Json::Obj(vec![
                                                    ("le_ms".into(), Json::Num(*bound)),
                                                    (
                                                        "count".into(),
                                                        Json::Int(
                                                            core.bins[bin].load(Ordering::Relaxed)
                                                                as i64,
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .chain(std::iter::once(Json::Obj(vec![
                                                ("le_ms".into(), Json::Null),
                                                (
                                                    "count".into(),
                                                    Json::Int(
                                                        core.bins[core.bounds.len()]
                                                            .load(Ordering::Relaxed)
                                                            as i64,
                                                    ),
                                                ),
                                            ])))
                                            .collect(),
                                    ),
                                ));
                            }
                        }
                        Json::Obj(entry)
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::str(name.clone())),
                    ("kind".into(), Json::str(family.kind.as_str())),
                    ("help".into(), Json::str(family.help.clone())),
                    ("series".into(), Json::Arr(series)),
                ])
            })
            .collect();
        Json::Obj(vec![("metrics".into(), Json::Arr(metrics))])
    }
}

/// Splices an extra label (`le="…"`) into an existing label string.
fn merge_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!(
            "{{{},{extra}}}",
            &labels[1..labels.len() - 1] // strip the surrounding braces
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_update_and_render() {
        let registry = MetricsRegistry::new();
        let requests = registry.counter_with(
            "http_requests_total",
            "requests served",
            &[("endpoint", "/query"), ("status", "200")],
        );
        requests.add(2);
        requests.inc();
        // the same (name, labels) pair shares one value, and the first
        // registration's help text names the family
        registry
            .counter_with(
                "http_requests_total",
                "a later caller's wording",
                &[("endpoint", "/query"), ("status", "200")],
            )
            .inc();
        assert_eq!(requests.get(), 4);

        let depth = registry.gauge("queue_depth", "live queue depth");
        depth.set(7);
        assert_eq!(depth.get(), 7);

        let text = registry.render_prometheus();
        assert!(
            text.contains("# TYPE http_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("# HELP http_requests_total requests served\n"),
            "{text}"
        );
        assert!(
            text.contains("http_requests_total{endpoint=\"/query\",status=\"200\"} 4"),
            "{text}"
        );
        assert!(text.contains("queue_depth 7"), "{text}");
        // families render sorted by name: h… before q…
        assert!(
            text.find("http_requests_total").unwrap() < text.find("queue_depth").unwrap(),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_quantiles_interpolate() {
        let registry = MetricsRegistry::new();
        let latency = registry.histogram("request_ms", "request latency");
        for ms in [0.1, 0.4, 3.0, 3.0, 40.0, 9999.0, 100000.0] {
            latency.observe_ms(ms);
        }
        assert_eq!(latency.count(), 7);
        assert!(
            (latency.sum_ms() - 110045.5).abs() < 0.1,
            "{}",
            latency.sum_ms()
        );

        let text = registry.render_prometheus();
        // 0.1 and 0.4 land at or under the 0.25/0.5 bounds cumulatively
        assert!(text.contains("request_ms_bucket{le=\"0.25\"} 1"), "{text}");
        assert!(text.contains("request_ms_bucket{le=\"0.5\"} 2"), "{text}");
        assert!(text.contains("request_ms_bucket{le=\"2.5\"} 2"), "{text}");
        assert!(text.contains("request_ms_bucket{le=\"5\"} 4"), "{text}");
        assert!(text.contains("request_ms_bucket{le=\"10000\"} 6"), "{text}");
        assert!(text.contains("request_ms_bucket{le=\"+Inf\"} 7"), "{text}");
        assert!(text.contains("request_ms_count 7"), "{text}");

        // the median observation (3.0) sits in the (2.5, 5] bucket
        let p50 = latency.quantile(0.5);
        assert!((2.5..=5.0).contains(&p50), "p50 = {p50}");
        // the +Inf observation clamps the extreme quantile to the last bound
        assert_eq!(latency.quantile(1.0), 10000.0);
        // an empty histogram answers 0
        assert_eq!(
            registry
                .histogram("idle_ms", "never observed")
                .quantile(0.9),
            0.0
        );
    }

    #[test]
    fn json_snapshot_is_deterministic_and_parseable() {
        let registry = MetricsRegistry::new();
        registry.counter("alpha_total", "a").add(1);
        registry.histogram("beta_ms", "b").observe_ms(1.5);
        registry.gauge_with("gamma", "c", &[("shard", "2")]).set(-3);
        let first = registry.to_json().render();
        let second = registry.to_json().render();
        assert_eq!(first, second);
        let parsed = Json::parse(&first).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(
            metrics[0].get("name").unwrap().as_str(),
            Some("alpha_total")
        );
        assert_eq!(metrics[1].get("kind").unwrap().as_str(), Some("histogram"));
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_are_rejected() {
        let registry = MetricsRegistry::new();
        registry.counter("twice", "first as counter");
        registry.gauge("twice", "then as gauge");
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("odd_total", "odd labels", &[("path", "a\"b\\c")])
            .inc();
        let text = registry.render_prometheus();
        assert!(text.contains(r#"odd_total{path="a\"b\\c"} 1"#), "{text}");
    }
}
