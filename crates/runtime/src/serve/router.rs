//! Request routing: maps a parsed [`Request`] onto the store view.
//!
//! Every endpoint answers JSON. `GET /query` goes through the exact same
//! [`answer_query`] core (and the same [`StoreQuery::set`] filter parsing)
//! as `fahana-query --json`, so the daemon's answers are byte-identical to
//! the CLI's — pinned by `tests/serve_http.rs`.
//!
//! Read endpoints flow through the generation-keyed [`ResponseCache`].
//! [`route`] is two halves that the server runs on different threads:
//! `lookup` serves cached bytes when the same question was already
//! rendered this generation, and runs on the reactor, so a hit never
//! reaches the pool; `render` answers everything else on a pool worker,
//! from one consistent [`Snapshot`], and caches exactly that answer,
//! serialized once into the keep-alive bytes it also hands back. The
//! catalog is not rendered here: the view renders it once per
//! generation, and `/catalog` copies the snapshot's bytes. Each
//! leaderboard ranks borrowed records through the store's ranking core
//! and clones only its `top` entries; unlike `/query`, it merges no
//! Pareto frontier. Cached or not, read responses carry an
//! `X-Fahana-Generation` header naming the store state they reflect.

use std::sync::Arc;

use edgehw::DeviceKind;

use crate::report::Json;
use crate::serve::cache::ResponseCache;
use crate::serve::http::{Request, Response, WireResponse};
use crate::serve::obs::ServeTelemetry;
use crate::serve::view::{Snapshot, StoreView};
use crate::store::{answer_query, leaderboard, StoreError, StoreQuery, StoredCampaign};

/// Whether a path is one of the read endpoints whose response is a pure
/// function of the campaign snapshot — the set the cache may hold.
fn is_read_path(path: &str) -> bool {
    matches!(path, "/healthz" | "/query" | "/campaigns" | "/catalog")
        || path.starts_with("/leaderboard/")
}

/// Routes one request to its handler: `lookup`, then `render` on a
/// miss. `obs` answers the observability endpoints (`/metrics`,
/// `/statusz`) and is otherwise untouched — request accounting happens in
/// the connection loop, not here. `cache` holds rendered read responses
/// for the current store generation.
pub fn route(
    request: &Request,
    view: &StoreView,
    obs: &ServeTelemetry,
    cache: &ResponseCache,
) -> Response {
    match lookup(request, view.generation(), cache) {
        Ok(hit) => hit.to_response(),
        Err(miss) => render(request, miss, view, obs, cache).into_response(),
    }
}

/// What [`render`] answered: a response made for this request alone, or
/// a read it cached, whose keep-alive bytes it shares with the cache.
pub(crate) enum Reply {
    Fresh(Response),
    Cached(Arc<WireResponse>),
}

impl Reply {
    pub(crate) fn status(&self) -> u16 {
        match self {
            Reply::Fresh(response) => response.status,
            Reply::Cached(wire) => wire.status(),
        }
    }

    fn into_response(self) -> Response {
        match self {
            Reply::Fresh(response) => response,
            Reply::Cached(wire) => wire.to_response(),
        }
    }
}

/// The lookup half of [`route`], cheap enough for the reactor thread:
/// a `GET` on a read endpoint looks its key up in `cache` at
/// `generation`, the view's current one. `Ok` shares the keep-alive
/// bytes rendered earlier this generation. `Err(Some(key))` is a
/// cacheable read that missed, and `Err(None)` a request the cache never
/// holds (volatile `/metrics` and `/statusz`, `POST /ingest`, any other
/// method); either way [`render`] answers it. Counts exactly one hit or
/// miss per cacheable read.
pub(crate) fn lookup(
    request: &Request,
    generation: u64,
    cache: &ResponseCache,
) -> Result<Arc<WireResponse>, Option<String>> {
    if request.method != "GET" || !is_read_path(&request.path) {
        return Err(None);
    }
    let key = ResponseCache::key(request);
    cache.lookup(&key, generation).ok_or(Some(key))
}

/// The render-and-insert half of [`route`], for whatever [`lookup`] did
/// not answer. A read renders from one consistent snapshot, and a `200`
/// is serialized once and cached under `miss` tagged with exactly that
/// snapshot's generation (an ingest that lands between the halves makes
/// that insert a no-op: the cache drops inserts for a generation it does
/// not hold); the same bytes are returned for the socket.
pub(crate) fn render(
    request: &Request,
    miss: Option<String>,
    view: &StoreView,
    obs: &ServeTelemetry,
    cache: &ResponseCache,
) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => return Reply::Fresh(Response::text(obs.render_metrics(view))),
        ("GET", "/statusz") => return Reply::Fresh(Response::ok(obs.statusz_json(view).render())),
        ("POST", "/ingest") => return Reply::Fresh(ingest(request, view)),
        _ => {}
    }
    let snapshot = view.snapshot();
    let Some(key) = miss else {
        return Reply::Fresh(route_read(request, &snapshot));
    };
    let generation = snapshot.generation;
    let response = route_read(request, &snapshot).with_generation(generation);
    if response.status != 200 {
        return Reply::Fresh(response);
    }
    let wire = Arc::new(response.into_wire());
    cache.insert(key, generation, Arc::clone(&wire));
    Reply::Cached(wire)
}

/// The pure read surface: every handler here is a function of the
/// snapshot alone, which is what makes its responses cacheable.
fn route_read(request: &Request, snapshot: &Snapshot) -> Response {
    let campaigns = snapshot.campaigns.as_slice();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(campaigns),
        ("GET", "/query") => query(request, campaigns),
        ("GET", "/campaigns") => campaign_summaries(campaigns),
        ("GET", "/catalog") => Response::ok(snapshot.catalog.as_ref()),
        ("GET", path) if path.starts_with("/leaderboard/") => {
            device_leaderboard(request, campaigns, &path["/leaderboard/".len()..])
        }
        (
            _,
            "/healthz" | "/query" | "/campaigns" | "/catalog" | "/ingest" | "/metrics" | "/statusz",
        ) => Response::error(405, format!("method {} not allowed here", request.method)),
        (_, path) if path.starts_with("/leaderboard/") => {
            Response::error(405, format!("method {} not allowed here", request.method))
        }
        _ => Response::error(404, format!("no route for {}", request.path)),
    }
}

fn healthz(campaigns: &[StoredCampaign]) -> Response {
    Response::ok(
        Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            ("campaigns".into(), Json::Int(campaigns.len() as i64)),
            (
                "scenarios".into(),
                Json::Int(
                    campaigns
                        .iter()
                        .map(|c| c.report.scenarios.len() as i64)
                        .sum(),
                ),
            ),
        ])
        .render(),
    )
}

fn query(request: &Request, campaigns: &[StoredCampaign]) -> Response {
    let mut store_query = StoreQuery::default();
    for (key, value) in &request.query {
        if let Err(message) = store_query.set(key, value) {
            return Response::error(400, message);
        }
    }
    Response::ok(answer_query(campaigns, &store_query).to_json().render())
}

fn campaign_summaries(campaigns: &[StoredCampaign]) -> Response {
    Response::ok(
        Json::Obj(vec![(
            "campaigns".into(),
            Json::Arr(
                campaigns
                    .iter()
                    .map(|campaign| {
                        Json::Obj(vec![
                            ("id".into(), Json::str(&campaign.id)),
                            (
                                "scenarios".into(),
                                Json::Int(campaign.report.scenarios.len() as i64),
                            ),
                            ("threads".into(), Json::Int(campaign.report.threads as i64)),
                            (
                                "wall_clock_ms".into(),
                                Json::Num(campaign.report.wall_clock_ms),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
        .render(),
    )
}

fn device_leaderboard(request: &Request, campaigns: &[StoredCampaign], slug: &str) -> Response {
    let Some(device) = DeviceKind::from_slug(slug) else {
        let known: Vec<&str> = DeviceKind::all().iter().map(|d| d.slug()).collect();
        return Response::error(
            404,
            format!(
                "unknown device `{slug}` (expected one of {})",
                known.join(", ")
            ),
        );
    };
    let top = match request.param("top") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(top) => top,
            Err(_) => {
                return Response::error(400, format!("`top` expects an integer, got `{raw}`"))
            }
        },
    };
    Response::ok(leaderboard(campaigns, device, top).to_json().render())
}

fn ingest(request: &Request, view: &StoreView) -> Response {
    let Some(id) = request.param("id") else {
        return Response::error(400, "POST /ingest requires an `id` query parameter");
    };
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "request body is not UTF-8");
    };
    match view.ingest(id, body) {
        Ok(stored) => {
            let mut response = Response::ok(
                Json::Obj(vec![
                    ("id".into(), Json::str(&stored.id)),
                    (
                        "scenarios".into(),
                        Json::Int(stored.report.scenarios.len() as i64),
                    ),
                ])
                .render(),
            );
            response.status = 201;
            response
        }
        Err(error @ StoreError::DuplicateId(_)) => Response::error(409, error.to_string()),
        Err(error @ (StoreError::BadArtifact { .. } | StoreError::InvalidId(_))) => {
            Response::error(400, error.to_string())
        }
        Err(error @ StoreError::Io { .. }) => Response::error(500, error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CampaignConfig, RewardSetting};
    use crate::store::{catalog_json, ArtifactStore};
    use crate::{campaign_json, CampaignEngine};

    fn get(path_and_query: &str) -> Request {
        let (path, raw_query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_and_query, ""),
        };
        Request {
            method: "GET".into(),
            path: path.into(),
            query: raw_query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| {
                    let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            body: Vec::new(),
            keep_alive: false,
        }
    }

    fn seeded_view(tag: &str) -> StoreView {
        let root = std::env::temp_dir().join(format!("fahana-router-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ArtifactStore::open(&root).unwrap();
        let outcome = CampaignEngine::new(CampaignConfig {
            episodes: 4,
            samples: 120,
            threads: 2,
            seed: 9,
            devices: vec![DeviceKind::RaspberryPi4],
            rewards: vec![RewardSetting::balanced()],
            freezing: vec![true],
            ..CampaignConfig::default()
        })
        .unwrap()
        .run()
        .unwrap();
        store.ingest("seeded", &campaign_json(&outcome)).unwrap();
        StoreView::open(store).unwrap()
    }

    #[test]
    fn routes_cover_the_surface() {
        let view = seeded_view("surface");
        let obs = ServeTelemetry::disabled();
        let cache = ResponseCache::new(64);
        assert_eq!(route(&get("/healthz"), &view, &obs, &cache).status, 200);
        assert_eq!(route(&get("/query"), &view, &obs, &cache).status, 200);
        assert_eq!(
            route(&get("/query?device=raspberry_pi_4"), &view, &obs, &cache).status,
            200
        );
        assert_eq!(route(&get("/campaigns"), &view, &obs, &cache).status, 200);
        assert_eq!(route(&get("/catalog"), &view, &obs, &cache).status, 200);
        assert_eq!(
            route(&get("/leaderboard/raspberry_pi_4"), &view, &obs, &cache).status,
            200
        );
        assert_eq!(
            route(&get("/leaderboard/toaster"), &view, &obs, &cache).status,
            404
        );
        assert_eq!(
            route(
                &get("/leaderboard/raspberry_pi_4?top=x"),
                &view,
                &obs,
                &cache
            )
            .status,
            400
        );
        assert_eq!(
            route(&get("/query?device=toaster"), &view, &obs, &cache).status,
            400
        );
        assert_eq!(
            route(&get("/query?bogus=1"), &view, &obs, &cache).status,
            400
        );
        assert_eq!(route(&get("/nope"), &view, &obs, &cache).status, 404);

        let mut post = get("/query");
        post.method = "POST".into();
        assert_eq!(route(&post, &view, &obs, &cache).status, 405);

        std::fs::remove_dir_all(view.store().root()).ok();
    }

    #[test]
    fn observability_routes_answer_from_the_context() {
        let view = seeded_view("obs");
        let obs = ServeTelemetry::disabled();
        let cache = ResponseCache::new(64);
        obs.record_request("/query", 200, std::time::Duration::from_millis(3), 0, 120);

        let metrics = route(&get("/metrics"), &view, &obs, &cache);
        assert_eq!(metrics.status, 200);
        assert_eq!(metrics.content_type, "text/plain; version=0.0.4");
        assert!(
            metrics
                .body
                .contains(r#"fahana_http_requests_total{endpoint="/query",status="200"} 1"#),
            "{}",
            metrics.body
        );
        assert!(metrics.body.contains("fahana_serve_uptime_seconds"));
        assert!(metrics.body.contains("fahana_store_generation 0"));

        let statusz = route(&get("/statusz"), &view, &obs, &cache);
        assert_eq!(statusz.status, 200);
        let parsed = Json::parse(&statusz.body).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(parsed.get("campaigns").unwrap().as_i64(), Some(1));
        let endpoints = parsed.get("endpoints").unwrap().as_arr().unwrap();
        assert_eq!(
            endpoints[0].get("endpoint").unwrap().as_str(),
            Some("/query")
        );
        assert_eq!(endpoints[0].get("requests").unwrap().as_i64(), Some(1));
        assert!(endpoints[0].get("p99_ms").unwrap().as_f64().unwrap() > 0.0);

        // reload bumps the generation /statusz and /metrics report
        view.reload().unwrap();
        let statusz = route(&get("/statusz"), &view, &obs, &cache);
        assert!(
            statusz.body.contains(r#""store_generation":1"#),
            "{}",
            statusz.body
        );

        // wrong methods on the new routes are 405 like everywhere else
        let mut post = get("/metrics");
        post.method = "POST".into();
        assert_eq!(route(&post, &view, &obs, &cache).status, 405);

        std::fs::remove_dir_all(view.store().root()).ok();
    }

    #[test]
    fn read_responses_are_cached_per_generation_and_flushed_on_ingest() {
        let view = seeded_view("cache");
        let obs = ServeTelemetry::disabled();
        let cache = ResponseCache::new(64);

        // first read of generation 0: a miss that caches exactly its own
        // answer and nothing else
        let first = route(&get("/query"), &view, &obs, &cache);
        assert_eq!(first.status, 200);
        assert_eq!(first.generation, Some(0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        let key = ResponseCache::key(&get("/query"));
        let cached = cache.lookup(&key, 0).expect("the miss cached its answer");
        assert_eq!(cached.to_response(), first);
        assert_eq!(cached.keep_alive_bytes(), first.to_bytes(true));

        // the same question again is a hit with identical bytes
        let second = route(&get("/query"), &view, &obs, &cache);
        assert_eq!(second, first, "cached bytes must be byte-identical");
        assert_eq!(cache.stats().hits, 2);

        // another question is its own miss, then its own hit
        let catalog_response = route(&get("/catalog"), &view, &obs, &cache);
        assert_eq!(catalog_response.generation, Some(0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
        assert_eq!(
            route(&get("/catalog"), &view, &obs, &cache),
            catalog_response
        );
        assert_eq!(cache.stats().hits, 3);

        // an ingest bumps the generation: the old bytes are flushed and
        // the fresh answer reflects both campaigns
        let report =
            std::fs::read_to_string(view.store().root().join("artifacts").join("seeded.json"))
                .unwrap();
        let ingest = Request {
            method: "POST".into(),
            path: "/ingest".into(),
            query: vec![("id".into(), "fresh".into())],
            body: report.into_bytes(),
            keep_alive: false,
        };
        assert_eq!(route(&ingest, &view, &obs, &cache).status, 201);
        let after = route(&get("/query"), &view, &obs, &cache);
        assert_eq!(after.generation, Some(1));
        assert!(
            after.body.contains(r#""campaigns_consulted":2"#),
            "{}",
            after.body
        );
        assert_ne!(after.body, first.body, "stale bytes were not served");
        assert_eq!(cache.stats().generation, 1);

        // error responses are tagged but not cached
        assert_eq!(
            route(&get("/query?bogus=1"), &view, &obs, &cache).generation,
            Some(1)
        );
        let entries = cache.stats().entries;
        route(&get("/query?bogus=1"), &view, &obs, &cache);
        assert_eq!(cache.stats().entries, entries, "400s are never cached");

        std::fs::remove_dir_all(view.store().root()).ok();
    }

    #[test]
    fn ingest_route_maps_store_errors_to_statuses() {
        let view = seeded_view("ingest");
        let obs = ServeTelemetry::disabled();
        let cache = ResponseCache::new(64);
        let report =
            std::fs::read_to_string(view.store().root().join("artifacts").join("seeded.json"))
                .unwrap();

        let mut request = Request {
            method: "POST".into(),
            path: "/ingest".into(),
            query: vec![("id".into(), "fresh".into())],
            body: report.clone().into_bytes(),
            keep_alive: false,
        };
        assert_eq!(route(&request, &view, &obs, &cache).status, 201);
        // the view refreshed: /query now consults both campaigns
        let answer = route(&get("/query"), &view, &obs, &cache);
        assert!(
            answer.body.contains(r#""campaigns_consulted":2"#),
            "{}",
            answer.body
        );

        // duplicate → 409, garbage → 400, missing id → 400
        assert_eq!(route(&request, &view, &obs, &cache).status, 409);
        request.query[0].1 = "other".into();
        request.body = b"not json".to_vec();
        assert_eq!(route(&request, &view, &obs, &cache).status, 400);
        request.query.clear();
        assert_eq!(route(&request, &view, &obs, &cache).status, 400);

        std::fs::remove_dir_all(view.store().root()).ok();
    }

    #[test]
    fn ingest_succeeds_beside_a_corrupt_sibling_artifact() {
        let view = seeded_view("corrupt-sibling");
        let obs = ServeTelemetry::disabled();
        let cache = ResponseCache::new(64);
        let seeded = view.store().root().join("artifacts").join("seeded.json");
        let report = std::fs::read_to_string(&seeded).unwrap();
        // tampered with after the view loaded it: the ingest must neither
        // read it nor fail because of it
        std::fs::write(&seeded, "not json").unwrap();

        let request = Request {
            method: "POST".into(),
            path: "/ingest".into(),
            query: vec![("id".into(), "fresh".into())],
            body: report.into_bytes(),
            keep_alive: false,
        };
        let response = route(&request, &view, &obs, &cache);
        assert_eq!(response.status, 201, "{}", response.body);
        let ids: Vec<String> = view.campaigns().iter().map(|c| c.id.clone()).collect();
        assert_eq!(ids, ["fresh", "seeded"]);
        assert_eq!(view.generation(), 1);
        let catalog = std::fs::read_to_string(view.store().root().join("catalog.json")).unwrap();
        assert_eq!(catalog, catalog_json(&view.campaigns()).render());

        std::fs::remove_dir_all(view.store().root()).ok();
    }
}
