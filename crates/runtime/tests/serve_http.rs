//! End-to-end tests for the `fahana-serve` daemon: a real TCP server over
//! a real store, driven by a raw HTTP/1.1 client, pinned byte-for-byte
//! against the `fahana-query` CLI (the acceptance criterion: both go
//! through one shared query core, so their answers must be identical).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

use edgehw::DeviceKind;
use fahana_runtime::serve::{client_exchange, ClientResponse};
use fahana_runtime::{
    campaign_json, ArtifactStore, CampaignConfig, CampaignEngine, Json, RewardSetting,
    ServeOptions, Server, ServerHandle, StoreView,
};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fahana-serve-e2e-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_report(seed: u64) -> String {
    let outcome = CampaignEngine::new(CampaignConfig {
        episodes: 5,
        samples: 120,
        threads: 2,
        seed,
        devices: vec![DeviceKind::RaspberryPi4, DeviceKind::OdroidXu4],
        rewards: vec![RewardSetting::balanced()],
        freezing: vec![true],
        ..CampaignConfig::default()
    })
    .unwrap()
    .run()
    .unwrap();
    campaign_json(&outcome)
}

/// Starts a server over `store_root` on an OS-assigned port.
fn start_server(store_root: &PathBuf) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let store = ArtifactStore::open(store_root).unwrap();
    let view = StoreView::open(store).unwrap();
    let server = Server::bind("127.0.0.1:0", view, 4).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, runner)
}

/// One raw HTTP exchange on a fresh connection (explicitly `Connection:
/// close`, so `read_to_end` sees EOF as soon as the answer is written);
/// returns (status, body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let (status, body, _) = http_raw(addr, method, target, body);
    (status, body)
}

/// As [`http`], plus the length of the whole response (head and body).
fn http_raw(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String, usize) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: fahana\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let length = raw.len();
    let raw = String::from_utf8(raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    assert!(
        head.contains("Connection: close"),
        "a close request must be answered with close: {head}"
    );
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line has a code")
        .parse()
        .unwrap();
    (status, body.to_string(), length)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, "GET", target, b"")
}

#[test]
fn serve_answers_queries_byte_identically_to_the_cli() {
    let dir = temp_dir("parity");
    let store_root = dir.join("store");
    let store = ArtifactStore::open(&store_root).unwrap();
    store.ingest("alpha", &tiny_report(41)).unwrap();
    store.ingest("beta", &tiny_report(42)).unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    let query_bin = env!("CARGO_BIN_EXE_fahana-query");
    for (cli_flags, http_target) in [
        (vec![], "/query".to_string()),
        (
            vec!["--device", "raspberry_pi_4"],
            "/query?device=raspberry_pi_4".into(),
        ),
        (
            vec![
                "--device",
                "odroid_xu4",
                "--freezing",
                "on",
                "--max-latency-ms",
                "100000",
                "--min-accuracy",
                "0.1",
            ],
            "/query?device=odroid_xu4&freezing=on&max_latency_ms=100000&min_accuracy=0.1".into(),
        ),
        (
            vec!["--max-latency-ms", "0"],
            "/query?max_latency_ms=0".into(),
        ),
    ] {
        let mut args = vec!["--store", store_root.to_str().unwrap(), "--json"];
        args.extend(cli_flags.iter());
        let output = Command::new(query_bin).args(&args).output().unwrap();
        assert!(output.status.success(), "fahana-query {args:?} failed");
        let cli_answer = String::from_utf8(output.stdout).unwrap();

        let (status, http_answer) = get(addr, &http_target);
        assert_eq!(status, 200, "{http_target}: {http_answer}");
        assert_eq!(
            http_answer,
            cli_answer.trim_end_matches('\n'),
            "daemon and CLI disagree on {http_target}"
        );
    }

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_covers_every_endpoint() {
    let dir = temp_dir("endpoints");
    let store_root = dir.join("store");
    let store = ArtifactStore::open(&store_root).unwrap();
    store.ingest("seeded", &tiny_report(51)).unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    // healthz: alive, counts right
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("campaigns").unwrap().as_i64(), Some(1));
    assert_eq!(health.get("scenarios").unwrap().as_i64(), Some(2));

    // campaigns: the summary names the ingested id
    let (status, body) = get(addr, "/campaigns");
    assert_eq!(status, 200);
    let campaigns = Json::parse(&body).unwrap();
    let list = campaigns.get("campaigns").unwrap().as_arr().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("id").unwrap().as_str(), Some("seeded"));

    // catalog: byte-identical to the on-disk catalog.json
    let (status, body) = get(addr, "/catalog");
    assert_eq!(status, 200);
    let on_disk = std::fs::read_to_string(store_root.join("catalog.json")).unwrap();
    assert_eq!(body, on_disk);

    // leaderboard: ranked, truncated, device-checked
    let (status, body) = get(addr, "/leaderboard/raspberry_pi_4?top=2");
    assert_eq!(status, 200);
    let board = Json::parse(&body).unwrap();
    let entries = board.get("entries").unwrap().as_arr().unwrap();
    assert!(entries.len() <= 2);
    let rewards: Vec<f64> = entries
        .iter()
        .map(|e| e.get("reward").unwrap().as_f64().unwrap())
        .collect();
    assert!(rewards.windows(2).all(|w| w[0] >= w[1]), "{rewards:?}");
    let (status, _) = get(addr, "/leaderboard/toaster");
    assert_eq!(status, 404);

    // error surface: unknown route, bad filter, bad method
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/query?device=toaster").0, 400);
    assert_eq!(
        get(addr, "/query?device=raspberry_pi_4&max_latency_ms=NaN").0,
        400
    );
    assert_eq!(http(addr, "DELETE", "/catalog", b"").0, 405);

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_alive_reuses_one_connection_for_sequential_requests() {
    let dir = temp_dir("keep-alive");
    let store_root = dir.join("store");
    let store = ArtifactStore::open(&store_root).unwrap();
    store.ingest("seeded", &tiny_report(71)).unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    // several GETs and an ingest burst over ONE connection — the exact
    // pattern a fahana-shard coordinator publishing into a live daemon
    // produces — using the keep-alive-aware framed client
    let mut stream = TcpStream::connect(addr).unwrap();
    let local = stream.local_addr().unwrap();

    let ClientResponse { status, body, .. } =
        client_exchange(&mut stream, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains(r#""campaigns":1"#), "{body}");

    let report = tiny_report(72);
    let ClientResponse { status, body, .. } =
        client_exchange(&mut stream, "POST", "/ingest?id=burst-1", report.as_bytes()).unwrap();
    assert_eq!(status, 201, "{body}");
    let report = tiny_report(73);
    let ClientResponse { status, body, .. } =
        client_exchange(&mut stream, "POST", "/ingest?id=burst-2", report.as_bytes()).unwrap();
    assert_eq!(status, 201, "{body}");

    // still the same TCP connection, and it observed its own publishes
    let ClientResponse { status, body, .. } =
        client_exchange(&mut stream, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains(r#""campaigns":3"#), "{body}");
    assert_eq!(stream.local_addr().unwrap(), local);

    // an error answer does not tear the connection down either
    let ClientResponse { status, .. } = client_exchange(&mut stream, "GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    let ClientResponse { status, .. } =
        client_exchange(&mut stream, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);

    // `Connection: close` ends the reuse: the server answers close and
    // actually closes (the next read sees EOF)
    let head = b"GET /healthz HTTP/1.1\r\nHost: fahana\r\nConnection: close\r\n\r\n";
    stream.write_all(head).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");

    // HTTP/1.0 defaults to close even without the header
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: fahana\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_alive_responses_advertise_it() {
    let dir = temp_dir("keep-alive-header");
    let store_root = dir.join("store");
    ArtifactStore::open(&store_root).unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    // read exactly one framed response off a kept-alive connection and
    // check the header — without closing semantics, read_to_end would
    // block until the idle timeout
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: fahana\r\n\r\n")
        .unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // close our end before stopping the server, so the reactor sees EOF
    // and closes the connection itself rather than at shutdown
    drop(stream);
    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Pulls one numeric sample out of a Prometheus text body: the line that
/// starts with exactly `name_and_labels` followed by a space.
fn sample(text: &str, name_and_labels: &str) -> Option<f64> {
    text.lines()
        .find(|line| {
            line.strip_prefix(name_and_labels)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
}

#[test]
fn metrics_and_statusz_reflect_live_traffic() {
    let dir = temp_dir("observability");
    let store_root = dir.join("store");
    let store = ArtifactStore::open(&store_root).unwrap();
    store.ingest("seeded", &tiny_report(81)).unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    // before any request is recorded, no request series exists: the first
    // scrape renders before it accounts itself
    let (status, before, mut response_bytes) = http_raw(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(!before.contains("fahana_http_"), "{before}");

    // a fixed sequence covering every status a routed request can get
    let report = tiny_report(82);
    let sequence: [(&str, &str, &[u8], u16); 12] = [
        ("GET", "/healthz", b"", 200),
        ("GET", "/healthz", b"", 200),
        ("GET", "/query", b"", 200),
        ("GET", "/query?bogus=1", b"", 400),
        ("GET", "/nope", b"", 404),
        ("POST", "/query", b"", 405),
        ("POST", "/ingest?id=bump", report.as_bytes(), 201),
        ("POST", "/ingest?id=bump", report.as_bytes(), 409),
        ("GET", "/catalog", b"", 200),
        ("GET", "/catalog", b"", 200),
        ("GET", "/leaderboard/raspberry_pi_4", b"", 200),
        ("GET", "/leaderboard/odroid_xu4?top=1", b"", 200),
    ];
    let mut body_bytes = 0;
    for (method, target, body, expected) in sequence {
        let (status, _, length) = http_raw(addr, method, target, body);
        assert_eq!(status, expected, "{method} {target}");
        body_bytes += body.len();
        response_bytes += length;
    }

    let (status, first) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // every request series, exactly: the set present and each count
    let series = |text: &str, family: &str| -> Vec<(String, f64)> {
        text.lines()
            .filter(|line| line.starts_with(family))
            .map(|line| {
                let (name, value) = line.rsplit_once(' ').unwrap();
                (name.to_string(), value.parse().unwrap())
            })
            .collect()
    };
    let requests: Vec<(String, f64)> = [
        (r#"{endpoint="/catalog",status="200"}"#, 2.0),
        (r#"{endpoint="/healthz",status="200"}"#, 2.0),
        (r#"{endpoint="/ingest",status="201"}"#, 1.0),
        (r#"{endpoint="/ingest",status="409"}"#, 1.0),
        (r#"{endpoint="/leaderboard/{device}",status="200"}"#, 2.0),
        (r#"{endpoint="/metrics",status="200"}"#, 1.0),
        (r#"{endpoint="/query",status="200"}"#, 1.0),
        (r#"{endpoint="/query",status="400"}"#, 1.0),
        (r#"{endpoint="/query",status="405"}"#, 1.0),
        (r#"{endpoint="other",status="404"}"#, 1.0),
    ]
    .into_iter()
    .map(|(labels, count)| (format!("fahana_http_requests_total{labels}"), count))
    .collect();
    assert_eq!(
        series(&first, "fahana_http_requests_total"),
        requests,
        "{first}"
    );
    let latencies: Vec<(String, f64)> = [
        ("/catalog", 2.0),
        ("/healthz", 2.0),
        ("/ingest", 2.0),
        ("/leaderboard/{device}", 2.0),
        ("/metrics", 1.0),
        ("/query", 3.0),
        ("other", 1.0),
    ]
    .into_iter()
    .map(|(endpoint, count)| {
        (
            format!(r#"fahana_http_request_ms_count{{endpoint="{endpoint}"}}"#),
            count,
        )
    })
    .collect();
    assert_eq!(
        series(&first, "fahana_http_request_ms_count"),
        latencies,
        "{first}"
    );
    assert_eq!(
        sample(&first, "fahana_http_request_body_bytes_total"),
        Some(body_bytes as f64)
    );
    assert_eq!(
        sample(&first, "fahana_http_response_bytes_total"),
        Some(response_bytes as f64)
    );
    // no other request family exists yet: every exchange so far closed
    // its connection, and none reused one
    let families: Vec<&str> = first
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE fahana_http_"))
        .collect();
    assert_eq!(
        families,
        [
            "connections_total counter",
            "request_body_bytes_total counter",
            "request_ms histogram",
            "requests_total counter",
            "response_bytes_total counter",
        ],
        "{first}"
    );
    // one connection per exchange, each closed before its client saw EOF
    assert_eq!(
        sample(&first, "fahana_http_connections_total"),
        Some(sequence.len() as f64 + 1.0)
    );
    // histogram plumbing: the +Inf bucket covers every /healthz request
    assert_eq!(
        sample(
            &first,
            r#"fahana_http_request_ms_bucket{endpoint="/healthz",le="+Inf"}"#
        ),
        Some(2.0),
        "{first}"
    );
    assert_eq!(
        sample(
            &first,
            r#"fahana_http_request_ms_count{endpoint="/healthz"}"#
        ),
        Some(2.0)
    );
    // pool gauges are wired into the scrape
    assert_eq!(sample(&first, "fahana_pool_threads"), Some(4.0), "{first}");

    // more traffic moves the counters and the buckets
    assert_eq!(get(addr, "/query").0, 200);
    let (_, second) = get(addr, "/metrics");
    assert_eq!(
        sample(
            &second,
            r#"fahana_http_requests_total{endpoint="/query",status="200"}"#
        ),
        Some(2.0),
        "{second}"
    );
    assert_eq!(
        sample(
            &second,
            r#"fahana_http_request_ms_bucket{endpoint="/query",le="+Inf"}"#
        ),
        Some(4.0)
    );
    // a scrape accounts itself once written: the previous /metrics
    // request shows up in this one
    assert_eq!(
        sample(
            &second,
            r#"fahana_http_requests_total{endpoint="/metrics",status="200"}"#
        ),
        Some(2.0),
        "{second}"
    );

    // /statusz: the JSON status document with per-endpoint percentiles
    let (status, body) = get(addr, "/statusz");
    assert_eq!(status, 200);
    let statusz = Json::parse(&body).unwrap();
    assert_eq!(statusz.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(statusz.get("campaigns").unwrap().as_i64(), Some(2));
    assert_eq!(statusz.get("store_generation").unwrap().as_i64(), Some(1));
    assert!(statusz.get("uptime_ms").unwrap().as_i64().unwrap() >= 0);
    let endpoints = statusz.get("endpoints").unwrap().as_arr().unwrap();
    let names: Vec<&str> = endpoints
        .iter()
        .map(|e| e.get("endpoint").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        names,
        [
            "/catalog",
            "/healthz",
            "/ingest",
            "/leaderboard/{device}",
            "/metrics",
            "/query",
            "other"
        ],
        "endpoints with a recorded request, sorted"
    );
    let healthz = endpoints
        .iter()
        .find(|e| e.get("endpoint").unwrap().as_str() == Some("/healthz"))
        .expect("/healthz accounted in statusz");
    assert_eq!(healthz.get("requests").unwrap().as_i64(), Some(2));
    assert!(healthz.get("p99_ms").unwrap().as_f64().unwrap() >= 0.0);

    // keep-alive reuse is accounted when the connection ends: three
    // requests over one connection are two reuses
    let mut stream = TcpStream::connect(addr).unwrap();
    for _ in 0..3 {
        let ClientResponse { status, .. } =
            client_exchange(&mut stream, "GET", "/healthz", b"").unwrap();
        assert_eq!(status, 200);
    }
    drop(stream);
    // the server reaps the dropped connection asynchronously; poll
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let (_, scrape) = get(addr, "/metrics");
        if sample(&scrape, "fahana_http_keepalive_reuse_total") == Some(2.0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "keep-alive reuse never accounted: {scrape}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // an ingest bumps the store generation both renderings report
    assert_eq!(
        http(addr, "POST", "/ingest?id=late", report.as_bytes()).0,
        201
    );
    let (_, body) = get(addr, "/statusz");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("store_generation")
            .unwrap()
            .as_i64(),
        Some(2),
        "{body}"
    );

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conflicting_duplicate_content_length_is_rejected() {
    let dir = temp_dir("dup-content-length");
    let store_root = dir.join("store");
    ArtifactStore::open(&store_root).unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    // one raw exchange with a hand-built head; returns (status, raw text)
    let raw_exchange = |head: &str, body: &[u8]| -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let raw = String::from_utf8(raw).unwrap();
        let status: u16 = raw.split(' ').nth(1).unwrap().parse().unwrap();
        (status, raw)
    };

    // duplicate Content-Length headers that disagree: classic request
    // smuggling shape (one framing per parser) — must be 400, and the
    // larger length must not make the server wait for a phantom body
    let (status, raw) = raw_exchange(
        "POST /ingest?id=smuggled HTTP/1.1\r\nHost: fahana\r\n\
         Content-Length: 4\r\nContent-Length: 9999\r\nConnection: close\r\n\r\n",
        b"{}{}",
    );
    assert_eq!(status, 400, "{raw}");
    assert!(raw.contains("conflicting Content-Length"), "{raw}");

    // order must not matter either
    let (status, _) = raw_exchange(
        "GET /healthz HTTP/1.1\r\nHost: fahana\r\n\
         Content-Length: 9999\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        b"",
    );
    assert_eq!(status, 400);

    // identical duplicates are harmless (one unambiguous framing): the
    // request is served normally
    let (status, raw) = raw_exchange(
        "GET /healthz HTTP/1.1\r\nHost: fahana\r\n\
         Content-Length: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        b"",
    );
    assert_eq!(status, 200, "{raw}");
    assert!(raw.contains(r#""status":"ok""#), "{raw}");

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_ingests_live_without_restart() {
    let dir = temp_dir("live-ingest");
    let store_root = dir.join("store");
    let store = ArtifactStore::open(&store_root).unwrap();
    store.ingest("first", &tiny_report(61)).unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    let (_, before) = get(addr, "/query");
    let before = Json::parse(&before).unwrap();
    assert_eq!(before.get("campaigns_consulted").unwrap().as_i64(), Some(1));

    // publish a new campaign over the wire
    let report = tiny_report(62);
    let (status, body) = http(addr, "POST", "/ingest?id=second", report.as_bytes());
    assert_eq!(status, 201, "{body}");
    let stored = Json::parse(&body).unwrap();
    assert_eq!(stored.get("id").unwrap().as_str(), Some("second"));

    // no restart: the very next query consults both campaigns
    let (_, after) = get(addr, "/query");
    let after = Json::parse(&after).unwrap();
    assert_eq!(after.get("campaigns_consulted").unwrap().as_i64(), Some(2));

    // the artifact is durable and the catalog was rebuilt atomically
    assert!(store_root.join("artifacts/second.json").exists());
    let catalog = std::fs::read_to_string(store_root.join("catalog.json")).unwrap();
    assert_eq!(
        Json::parse(&catalog)
            .unwrap()
            .get("campaigns")
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        2
    );

    // duplicate id → 409; garbage body → 400; store untouched
    assert_eq!(
        http(addr, "POST", "/ingest?id=second", report.as_bytes()).0,
        409
    );
    assert_eq!(http(addr, "POST", "/ingest?id=third", b"not json").0, 400);
    let (_, health) = get(addr, "/healthz");
    assert_eq!(
        Json::parse(&health)
            .unwrap()
            .get("campaigns")
            .unwrap()
            .as_i64(),
        Some(2)
    );

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_ingest_body_is_a_400_not_a_crash() {
    let dir = temp_dir("deep-ingest");
    let store_root = dir.join("store");
    ArtifactStore::open(&store_root)
        .unwrap()
        .ingest("seeded", &tiny_report(63))
        .unwrap();
    let (addr, handle, runner) = start_server(&store_root);

    // unbounded recursive descent would overflow the worker's stack here
    let (status, body) = http(addr, "POST", "/ingest?id=x", "[".repeat(10_000).as_bytes());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper"), "{body}");
    assert_eq!(get(addr, "/healthz").0, 200);
    assert!(!store_root.join("artifacts/x.json").exists());

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Fuzzed request handling: whatever bytes arrive, the answer is a clean
// 2xx/4xx or a quiet close — never a panic, never a hang, never a 5xx.
// ---------------------------------------------------------------------------

/// One long-lived server shared by every fuzz case (booting a store per
/// case would dominate the run). Small body cap so oversized declared
/// lengths are reachable; the process teardown reaps it.
fn fuzz_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let store_root = temp_dir("fuzz").join("store");
        let store = ArtifactStore::open(&store_root).unwrap();
        store.ingest("seeded", &tiny_report(91)).unwrap();
        let view = StoreView::open(ArtifactStore::open(&store_root).unwrap()).unwrap();
        let server = Server::bind_with(
            "127.0.0.1:0",
            view,
            ServeOptions {
                threads: 4,
                max_body_bytes: 4096,
                read_timeout: Duration::from_secs(2),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run().unwrap());
        addr
    })
}

/// Writes `payload`, closes the write side (so the server sees EOF, not a
/// read deadline), and returns whatever came back — possibly nothing.
/// The client-side read timeout turns a hung server into a test failure.
fn fuzz_exchange(payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(fuzz_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // the server may legitimately close before reading everything
    stream.write_all(payload).ok();
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("server must answer or close, not hang");
    String::from_utf8_lossy(&raw).into_owned()
}

fn fuzz_status(raw: &str) -> u16 {
    raw.split(' ').nth(1).unwrap_or("0").parse().unwrap_or(0)
}

/// The server is still answering — the invariant every fuzz case ends on.
fn assert_server_alive() {
    let raw = fuzz_exchange(b"GET /healthz HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n");
    assert_eq!(fuzz_status(&raw), 200, "server wedged: {raw}");
}

/// Applies `seed`-driven random casing to an ASCII header name.
fn scramble_case(name: &str, mut seed: u64) -> String {
    name.chars()
        .map(|c| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if seed & (1 << 33) != 0 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_header_casing_and_order_never_change_the_answer(
        seed in 0u64..u64::MAX,
        perm in 0usize..6,
    ) {
        // every casing and ordering of the same three headers must be a 200
        let mut headers = vec![
            format!("{}: fahana", scramble_case("Host", seed)),
            format!("{}: 0", scramble_case("Content-Length", seed ^ 0xA5A5)),
            format!("{}: close", scramble_case("Connection", seed ^ 0x5A5A)),
        ];
        // perm indexes the 3! orderings
        let third = headers.remove(perm % 3);
        let second = headers.remove(perm / 3 % 2);
        let first = headers.remove(0);
        let payload = format!(
            "GET /healthz HTTP/1.1\r\n{first}\r\n{second}\r\n{third}\r\n\r\n"
        );
        let raw = fuzz_exchange(payload.as_bytes());
        prop_assert_eq!(fuzz_status(&raw), 200, "{}", raw);
        prop_assert!(raw.contains(r#""status":"ok""#), "{}", raw);
    }

    #[test]
    fn prop_bad_content_length_is_400_or_413_never_5xx(
        value in prop::sample::select(vec![
            "abc", "-1", "", " ", "1 2", "0x10", "18446744073709551616",
            "999999999999999999999999", "4294967296", "10000",
        ]),
        duplicate in prop::sample::select(vec![false, true]),
    ) {
        let extra = if duplicate { "Content-Length: 7\r\n" } else { "" };
        let payload = format!(
            "POST /ingest?id=fuzz HTTP/1.1\r\nHost: f\r\n{extra}Content-Length: {value}\r\n\r\nbody"
        );
        let raw = fuzz_exchange(payload.as_bytes());
        let status = fuzz_status(&raw);
        // unparseable/conflicting framing → 400; parseable but over the
        // cap → 413; EOF before the declared body arrives → 400
        prop_assert!(
            matches!(status, 400 | 413),
            "Content-Length `{}` (duplicate={}) answered {}: {}", value, duplicate, status, raw
        );
        assert_server_alive();
    }

    #[test]
    fn prop_truncated_requests_close_cleanly(cut in 0usize..54) {
        let full = b"GET /query?device=raspberry_pi_4 HTTP/1.1\r\nHost: f\r\n\r\n";
        prop_assert!(cut < full.len());
        let raw = fuzz_exchange(&full[..cut]);
        let status = fuzz_status(&raw);
        // zero bytes is the idle-close path (no answer); anything partial
        // is malformed at EOF (400) or timed out (408)
        prop_assert!(
            raw.is_empty() || matches!(status, 400 | 408),
            "cut at {} answered {}: {}", cut, status, raw
        );
        assert_server_alive();
    }

    #[test]
    fn prop_pathological_query_strings_never_panic(
        junk in prop::collection::vec(32u8..127, 0..60),
    ) {
        let junk = String::from_utf8(junk).unwrap();
        let payload = format!(
            "GET /query?{junk} HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n"
        );
        let raw = fuzz_exchange(payload.as_bytes());
        let status = fuzz_status(&raw);
        // junk may parse as a (rejected or even valid) filter set, or
        // break the request line entirely — but never the server
        prop_assert!(
            matches!(status, 200 | 400 | 404),
            "query `{}` answered {}: {}", junk, status, raw
        );
        assert_server_alive();
    }
}
