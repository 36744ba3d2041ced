//! Concurrency tests for the serve layer: readers hammering a daemon
//! while a writer ingests must never see bytes from the wrong store
//! generation, saturation must shed load with 503 + `Retry-After`, and a
//! slowloris peer must be cut off with 408 at the read deadline.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edgehw::DeviceKind;
use fahana_runtime::serve::client_exchange;
use fahana_runtime::{
    campaign_json, ArtifactStore, CampaignConfig, CampaignEngine, Json, RewardSetting,
    ServeOptions, Server, ServerHandle, StoreView,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fahana-serve-load-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_report(seed: u64) -> String {
    let outcome = CampaignEngine::new(CampaignConfig {
        episodes: 4,
        samples: 120,
        threads: 2,
        seed,
        devices: vec![DeviceKind::RaspberryPi4],
        rewards: vec![RewardSetting::balanced()],
        freezing: vec![true],
        ..CampaignConfig::default()
    })
    .unwrap()
    .run()
    .unwrap();
    campaign_json(&outcome)
}

fn start_server(
    store_root: &PathBuf,
    options: ServeOptions,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let store = ArtifactStore::open(store_root).unwrap();
    let view = StoreView::open(store).unwrap();
    let server = Server::bind_with("127.0.0.1:0", view, options).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, runner)
}

/// One raw exchange: write `head` + `body`, shut down the write side, read
/// everything. Returns the raw response text (may be empty if the server
/// closed without answering).
fn raw_exchange(addr: SocketAddr, head: &str, body: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    String::from_utf8(raw).unwrap()
}

fn status_of(raw: &str) -> u16 {
    raw.split(' ').nth(1).unwrap_or("0").parse().unwrap_or(0)
}

/// The tentpole guarantee, under fire: 8 keep-alive readers hammer
/// `/query` and `/catalog` while one writer publishes campaigns through
/// `POST /ingest`. Every response must be byte-identical to a fresh
/// render at the generation it claims (via `X-Fahana-Generation`) to have
/// been served from — the cache may go stale-and-flush internally, but it
/// must never *serve* stale-generation bytes.
#[test]
fn concurrent_readers_never_observe_stale_generation_bytes() {
    const READERS: usize = 8;
    const INGESTS: u64 = 4;
    const TARGETS: [&str; 2] = ["/query?device=raspberry_pi_4", "/catalog"];

    let dir = temp_dir("stale");
    let base = tiny_report(100);
    let reports: Vec<String> = (1..=INGESTS).map(|i| tiny_report(100 + i)).collect();

    // Phase 1: a mirror server with caching disabled renders the expected
    // bytes for every (generation, target) pair — same base campaign, same
    // reports, same ingest order as the live run below.
    let mirror_root = dir.join("mirror");
    ArtifactStore::open(&mirror_root)
        .unwrap()
        .ingest("base", &base)
        .unwrap();
    let (mirror_addr, mirror_handle, mirror_runner) = start_server(
        &mirror_root,
        ServeOptions {
            threads: 2,
            cache_capacity: 0,
            ..ServeOptions::default()
        },
    );
    let mut expected: HashMap<(u64, &str), String> = HashMap::new();
    {
        let mut stream = TcpStream::connect(mirror_addr).unwrap();
        for step in 0..=INGESTS {
            for target in TARGETS {
                let response = client_exchange(&mut stream, "GET", target, &[]).unwrap();
                assert_eq!(response.status, 200, "{target}: {}", response.body);
                let generation = response.generation().expect("read responses are tagged");
                assert_eq!(generation, step, "one ingest bumps one generation");
                expected.insert((generation, target), response.body);
            }
            if step < INGESTS {
                let id = format!("/ingest?id=w{}", step + 1);
                let response =
                    client_exchange(&mut stream, "POST", &id, reports[step as usize].as_bytes())
                        .unwrap();
                assert_eq!(response.status, 201, "{}", response.body);
            }
        }
    }
    mirror_handle.shutdown();
    mirror_runner.join().unwrap();

    // Phase 2: the live run. Each reader keeps one connection alive
    // (reconnecting if the server rotates it) and validates every single
    // response against the mirror's render for the tagged generation.
    let store_root = dir.join("store");
    ArtifactStore::open(&store_root)
        .unwrap()
        .ingest("base", &base)
        .unwrap();
    let (addr, handle, runner) = start_server(
        &store_root,
        ServeOptions {
            threads: READERS + 4,
            cache_capacity: 64,
            ..ServeOptions::default()
        },
    );

    let stop = Arc::new(AtomicBool::new(false));
    let expected = Arc::new(expected);
    let readers: Vec<_> = (0..READERS)
        .map(|index| {
            let stop = Arc::clone(&stop);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut generations_seen = std::collections::BTreeSet::new();
                let mut checked = 0u64;
                let mut connection: Option<TcpStream> = None;
                while !stop.load(Ordering::Acquire) {
                    let stream = match &mut connection {
                        Some(stream) => stream,
                        None => connection.insert(TcpStream::connect(addr).unwrap()),
                    };
                    let target = TARGETS[(index + checked as usize) % TARGETS.len()];
                    match client_exchange(stream, "GET", target, &[]) {
                        Ok(response) => {
                            assert_eq!(response.status, 200, "{target}: {}", response.body);
                            let generation =
                                response.generation().expect("read responses are tagged");
                            let fresh = expected
                                .get(&(generation, target))
                                .unwrap_or_else(|| panic!("unknown generation {generation}"));
                            assert_eq!(
                                &response.body, fresh,
                                "reader {index}: {target} bytes diverge from a fresh \
                                 render at generation {generation}"
                            );
                            generations_seen.insert(generation);
                            checked += 1;
                        }
                        // the server may rotate the connection (request
                        // cap, shutdown race); reconnect and continue
                        Err(_) => connection = None,
                    }
                }
                (checked, generations_seen)
            })
        })
        .collect();

    let writer = {
        let reports = reports.clone();
        std::thread::spawn(move || {
            for (index, report) in reports.iter().enumerate() {
                std::thread::sleep(Duration::from_millis(60));
                let mut stream = TcpStream::connect(addr).unwrap();
                let target = format!("/ingest?id=w{}", index + 1);
                let response =
                    client_exchange(&mut stream, "POST", &target, report.as_bytes()).unwrap();
                assert_eq!(response.status, 201, "{}", response.body);
            }
        })
    };
    writer.join().unwrap();
    // let the readers chew on the final generation before stopping
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Release);

    let mut total_checked = 0u64;
    let mut all_generations = std::collections::BTreeSet::new();
    for reader in readers {
        let (checked, generations) = reader.join().unwrap();
        assert!(checked > 0, "every reader must get answers");
        total_checked += checked;
        all_generations.extend(generations);
    }
    assert!(
        all_generations.len() >= 2,
        "readers must actually cross a generation bump (saw {all_generations:?})"
    );
    assert!(
        all_generations.contains(&INGESTS),
        "the final generation must be observed (saw {all_generations:?})"
    );

    // the cache did real work under the stampede, and flushed per bump
    let mut stream = TcpStream::connect(addr).unwrap();
    let statusz = client_exchange(&mut stream, "GET", "/statusz", &[]).unwrap();
    let cache = Json::parse(&statusz.body)
        .unwrap()
        .get("cache")
        .expect("statusz reports the cache")
        .clone();
    let hits = cache.get("hits").unwrap().as_i64().unwrap();
    let invalidations = cache.get("invalidations").unwrap().as_i64().unwrap();
    assert!(hits > 0, "no cache hits across {total_checked} reads");
    assert!(
        invalidations >= 1,
        "ingests must have flushed the cache: {}",
        statusz.body
    );
    assert_eq!(
        cache.get("generation").unwrap().as_i64(),
        Some(INGESTS as i64)
    );

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A peer that dribbles half a request line gets `408 Request Timeout` at
/// the read deadline — not a worker pinned forever, and not an instant
/// slam either. A peer that sends *nothing* is closed quietly (no bytes):
/// that is the idle keep-alive path, not an error.
#[test]
fn slowloris_half_request_gets_408_at_the_deadline() {
    let dir = temp_dir("slowloris");
    let store_root = dir.join("store");
    ArtifactStore::open(&store_root).unwrap();
    let (addr, handle, runner) = start_server(
        &store_root,
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_millis(300),
            ..ServeOptions::default()
        },
    );

    // half a request line, then silence
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /que").unwrap();
    let started = Instant::now();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let elapsed = started.elapsed();
    let raw = String::from_utf8(raw).unwrap();
    assert_eq!(status_of(&raw), 408, "{raw}");
    assert!(
        elapsed >= Duration::from_millis(200),
        "the 408 must come from the deadline, not an eager parser ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_secs(8),
        "the deadline must actually fire ({elapsed:?})"
    );

    // zero bytes: a quiet close, not a 408 — this is what an idle
    // kept-alive scraper connection looks like
    let mut idle = TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    let mut raw = Vec::new();
    idle.read_to_end(&mut raw).unwrap();
    let elapsed = started.elapsed();
    assert!(raw.is_empty(), "{:?}", String::from_utf8_lossy(&raw));
    assert!(
        elapsed >= Duration::from_millis(200),
        "the idle close must wait for the deadline, never fire early ({elapsed:?})"
    );

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Past `max_inflight` concurrent connections, new ones are turned away
/// at the door with `503` + `Retry-After` — while the connections already
/// in flight keep being served to completion.
#[test]
fn saturation_sheds_load_with_503_and_retry_after() {
    let dir = temp_dir("saturation");
    let store_root = dir.join("store");
    ArtifactStore::open(&store_root).unwrap();
    let (addr, handle, runner) = start_server(
        &store_root,
        ServeOptions {
            threads: 2,
            max_inflight: 1,
            retry_after_secs: 7,
            // this test pins the in-flight gate, not timeouts: connection A
            // deliberately stalls mid-request, and under suite-wide CPU
            // contention the default deadline could 408-close it first
            read_timeout: Duration::from_secs(60),
            ..ServeOptions::default()
        },
    );

    // connection A claims the only slot and stalls mid-request
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // connection B is refused at the door, with the advertised backoff
    let rejected = raw_exchange(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: fahana\r\nConnection: close\r\n\r\n",
        b"",
    );
    assert_eq!(status_of(&rejected), 503, "{rejected}");
    assert!(rejected.contains("Retry-After: 7"), "{rejected}");

    // connection A is unaffected: it finishes its request and is served
    held.write_all(b"Host: fahana\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    held.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    assert_eq!(status_of(&raw), 200, "{raw}");

    // with the slot free again, the next connection is served — and the
    // rejection was counted
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let raw = raw_exchange(
            addr,
            "GET /metrics HTTP/1.1\r\nHost: fahana\r\nConnection: close\r\n\r\n",
            b"",
        );
        if status_of(&raw) == 200 {
            assert!(raw.contains("fahana_serve_rejected_total 1"), "{raw}");
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed: {raw}");
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A declared body larger than `--max-body-bytes` is answered `413`
/// from the headers alone — the server never buffers the oversized body.
#[test]
fn oversized_declared_body_is_rejected_with_413() {
    let dir = temp_dir("body-cap");
    let store_root = dir.join("store");
    ArtifactStore::open(&store_root).unwrap();
    let (addr, handle, runner) = start_server(
        &store_root,
        ServeOptions {
            threads: 2,
            max_body_bytes: 1024,
            ..ServeOptions::default()
        },
    );

    let raw = raw_exchange(
        addr,
        "POST /ingest?id=big HTTP/1.1\r\nHost: fahana\r\nContent-Length: 5000\r\n\r\n",
        b"",
    );
    assert_eq!(status_of(&raw), 413, "{raw}");

    // at the cap is still fine (the limit is a bound, not a cliff)
    let body = vec![b'x'; 1024];
    let raw = raw_exchange(
        addr,
        "POST /ingest?id=ok HTTP/1.1\r\nHost: fahana\r\nContent-Length: 1024\r\n\r\n",
        &body,
    );
    // garbage JSON, but it got past the size gate and was parsed
    assert_eq!(status_of(&raw), 400, "{raw}");
    assert!(!raw.contains("413"), "{raw}");

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
