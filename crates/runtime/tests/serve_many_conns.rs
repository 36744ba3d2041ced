//! Reactor scale tests: connection count and pool-worker count must be
//! independent axes. A thousand-plus parked keep-alive connections are
//! served byte-perfectly by a two-thread pool, requests dribbled in one
//! byte at a time are assembled by the incremental parser, a pipelined
//! flood through a deliberately tiny `SO_SNDBUF` exercises the
//! partial-write/re-arm path without corrupting a single response.
//! Cached reads are answered on the reactor thread without touching the
//! pool, and a thousand of them pipelined on one connection are answered
//! in a loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use edgehw::DeviceKind;
use fahana_runtime::serve::{client_exchange, route, Request, ResponseCache, ServeTelemetry};
use fahana_runtime::{
    campaign_json, ArtifactStore, CampaignConfig, CampaignEngine, RewardSetting, ServeOptions,
    Server, ServerHandle, StoreView,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fahana-many-conns-{}-{tag}", std::process::id()));
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

/// Scrapes `/metrics` over a fresh connection and returns the value of
/// `name` (space-separated exposition line), or None if absent.
fn scrape_metric(addr: SocketAddr, name: &str) -> Option<f64> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let response = client_exchange(&mut stream, "GET", "/metrics", &[]).unwrap();
    assert_eq!(response.status, 200);
    response.body.lines().find_map(|line| {
        let (metric, value) = line.split_once(' ')?;
        (metric == name).then(|| value.parse().unwrap())
    })
}

/// The sum over every series of the metric family `name` in a Prometheus
/// text exposition (0 when the family is absent).
fn family_sum(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let labels = series.strip_prefix(name)?;
            (labels.is_empty() || labels.starts_with('{')).then(|| value.parse::<f64>().unwrap())
        })
        .sum()
}

fn get(path: &str, keep_alive: bool) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query: Vec::new(),
        body: Vec::new(),
        keep_alive,
    }
}

/// The tentpole claim, measured: 1024 keep-alive connections against a
/// two-thread pool. Every connection answers three byte-checked rounds,
/// and mid-soak — while all of them are idle — the parked gauge must
/// account for every single one, proving none of them holds a worker.
#[test]
fn thousand_parked_connections_on_a_two_thread_pool() {
    const CLIENT_THREADS: usize = 32;
    const CONNS_PER_THREAD: usize = 32;
    const ROUNDS: usize = 3;
    const TARGETS: [&str; 3] = ["/healthz", "/query?device=raspberry_pi_4", "/catalog"];

    let dir = temp_dir("soak");
    ArtifactStore::open(&dir)
        .unwrap()
        .ingest("base", &tiny_report(500))
        .unwrap();
    let (addr, handle, runner) = start_server(
        &dir,
        ServeOptions {
            threads: 2,
            max_inflight: 2048,
            read_timeout: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    );

    // the store is static, so one reference render per target is the
    // byte-exact truth every soak response must reproduce
    let expected: Vec<String> = {
        let mut stream = TcpStream::connect(addr).unwrap();
        TARGETS
            .iter()
            .map(|target| {
                let response = client_exchange(&mut stream, "GET", target, &[]).unwrap();
                assert_eq!(response.status, 200, "{target}");
                assert!(!response.body.is_empty(), "{target}");
                response.body
            })
            .collect()
    };

    let expected = Arc::new(expected);
    let barrier = Arc::new(Barrier::new(CLIENT_THREADS + 1));
    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|thread_index| {
            let expected = Arc::clone(&expected);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut conns: Vec<TcpStream> = (0..CONNS_PER_THREAD)
                    .map(|_| {
                        let stream = TcpStream::connect(addr).unwrap();
                        stream.set_nodelay(true).ok();
                        stream.set_read_timeout(Some(Duration::from_secs(20))).ok();
                        stream
                    })
                    .collect();
                for round in 0..ROUNDS {
                    for (conn_index, conn) in conns.iter_mut().enumerate() {
                        let pick = (thread_index + conn_index + round) % TARGETS.len();
                        let response = client_exchange(conn, "GET", TARGETS[pick], &[]).unwrap();
                        assert_eq!(response.status, 200, "{}", TARGETS[pick]);
                        assert_eq!(
                            response.body, expected[pick],
                            "byte mismatch on {} (thread {thread_index} conn {conn_index} \
                             round {round})",
                            TARGETS[pick]
                        );
                    }
                    if round == 0 {
                        // everyone idle with connections held open: the
                        // main thread scrapes the parked gauge in between
                        barrier.wait();
                        barrier.wait();
                    }
                }
                // hold the connections until every thread has finished
                // its rounds, so the population stays at full strength
                barrier.wait();
                drop(conns);
            })
        })
        .collect();

    barrier.wait();
    // responses are all consumed; give the reactor a beat to finish the
    // last few finish_write -> park transitions
    std::thread::sleep(Duration::from_millis(300));
    let parked = scrape_metric(addr, "fahana_serve_parked_connections").unwrap();
    assert!(
        parked >= (CLIENT_THREADS * CONNS_PER_THREAD) as f64,
        "expected every soak connection parked off-worker, gauge says {parked}"
    );
    barrier.wait();
    barrier.wait();

    for client in clients {
        client.join().unwrap();
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    let metrics = client_exchange(&mut stream, "GET", "/metrics", &[]).unwrap();
    let requests = family_sum(&metrics.body, "fahana_http_requests_total");
    let dispatched = family_sum(&metrics.body, "fahana_serve_reactor_dispatches_total");
    assert!(
        requests >= (CLIENT_THREADS * CONNS_PER_THREAD * ROUNDS) as f64,
        "not every request was accounted: {requests}"
    );
    // the store is static, so every soak read after the reference renders
    // is a cache hit the reactor answers without the pool
    assert!(
        dispatched < requests,
        "cached reads still went to the pool: {dispatched} dispatches for {requests} requests"
    );
    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that dribbles its request in one byte per write (flushing
/// each) must still get the exact same answer as a well-behaved one: the
/// incremental parser assembles the request across dozens of readiness
/// events instead of a blocking read.
#[test]
fn one_byte_at_a_time_request_is_assembled_and_answered() {
    let dir = temp_dir("dribble");
    ArtifactStore::open(&dir)
        .unwrap()
        .ingest("base", &tiny_report(501))
        .unwrap();
    let (addr, handle, runner) = start_server(
        &dir,
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
    );

    let expected = {
        let mut stream = TcpStream::connect(addr).unwrap();
        client_exchange(&mut stream, "GET", "/query?device=raspberry_pi_4", &[])
            .unwrap()
            .body
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    let request = "GET /query?device=raspberry_pi_4 HTTP/1.1\r\nConnection: close\r\n\r\n";
    for byte in request.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).unwrap();
    assert_eq!(body, expected, "dribbled request changed the answer");

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Partial-write torture: the server's kernel send buffer is shrunk to
/// its floor (`--sndbuf 1`) and a client pipelines hundreds of requests
/// without reading a single response for a while. The write side has to
/// hit `WOULDBLOCK`, re-arm for write readiness, and resume — and every
/// one of the pipelined responses must still arrive complete and
/// parseable, the first of them read back one byte at a time.
#[test]
fn pipelined_flood_through_tiny_sndbuf_stays_intact() {
    const PIPELINED: usize = 900;

    let dir = temp_dir("sndbuf");
    ArtifactStore::open(&dir)
        .unwrap()
        .ingest("base", &tiny_report(502))
        .unwrap();
    let (addr, handle, runner) = start_server(
        &dir,
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(20),
            sndbuf: Some(1), // the kernel clamps this up to its floor
            ..ServeOptions::default()
        },
    );

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(20))).ok();
    let mut flood = Vec::new();
    for index in 0..PIPELINED {
        let connection = if index + 1 == PIPELINED {
            "close"
        } else {
            "keep-alive"
        };
        flood.extend_from_slice(
            format!("GET /metrics HTTP/1.1\r\nConnection: {connection}\r\n\r\n").as_bytes(),
        );
    }
    stream.write_all(&flood).unwrap();
    // do not read anything yet: responses pile into the tiny send buffer
    // until the reactor's writes genuinely block
    std::thread::sleep(Duration::from_millis(400));

    // partial-read torture on the first response: one byte per read
    let mut raw = Vec::new();
    let mut one = [0u8; 1];
    while raw.len() < 64 {
        assert_eq!(stream.read(&mut one).unwrap(), 1, "server closed early");
        raw.push(one[0]);
    }
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let answers = text.matches("HTTP/1.1 200 OK\r\n").count();
    assert_eq!(
        answers, PIPELINED,
        "pipelined flood lost or corrupted responses"
    );
    // every response body carries the reactor gauge (registered at
    // spawn, so present from the very first scrape), i.e. none of the
    // bodies got truncated into the next head
    assert_eq!(
        text.matches("# TYPE fahana_serve_parked_connections gauge")
            .count(),
        PIPELINED
    );

    let partials = scrape_metric(addr, "fahana_serve_reactor_partial_writes_total").unwrap();
    assert!(
        partials >= 1.0,
        "the flood never exercised the WOULDBLOCK re-arm path"
    );
    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// After one warming miss, cached reads are answered on the reactor
/// thread: N more `GET /catalog` are N cache hits that add nothing to the
/// dispatch counter or the pool's executed jobs, and their bytes are
/// exactly what `route` renders. A miss, `/metrics` and `POST /ingest`
/// still go to the pool.
#[test]
fn cached_reads_skip_the_pool_and_everything_else_dispatches() {
    const READS: usize = 50;

    let dir = temp_dir("inline");
    ArtifactStore::open(&dir)
        .unwrap()
        .ingest("base", &tiny_report(503))
        .unwrap();
    let view = StoreView::open(ArtifactStore::open(&dir).unwrap()).unwrap();
    let server = Server::bind_with(
        "127.0.0.1:0",
        view,
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let (obs, cache, view) = (
        Arc::clone(server.obs()),
        Arc::clone(server.cache()),
        Arc::clone(server.view()),
    );
    let runner = std::thread::spawn(move || server.run().unwrap());
    // (dispatches, pool jobs executed), read without a request
    let counts = || {
        let exposition = obs.render_metrics(&view);
        (
            family_sum(&exposition, "fahana_serve_reactor_dispatches_total"),
            family_sum(&exposition, "fahana_pool_jobs_total"),
        )
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let warm = client_exchange(&mut stream, "GET", "/catalog", &[]).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
    // the warming job counts as executed just after its bytes are handed
    // back, so wait for the pool to catch up with the dispatch counter
    let mut before = counts();
    for _ in 0..500 {
        if before.1 >= before.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        before = counts();
    }
    assert_eq!(before, (1.0, 1.0));

    let expected = route(
        &get("/catalog", true),
        &view,
        &ServeTelemetry::disabled(),
        &ResponseCache::new(0),
    )
    .to_bytes(true);
    for read in 0..READS {
        stream
            .write_all(b"GET /catalog HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut answer = vec![0; expected.len()];
        stream.read_exact(&mut answer).unwrap();
        assert!(answer == expected, "cached read {read} differs from route");
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (READS as u64, 1));
    assert_eq!(counts(), before, "cached reads reached the pool");

    // a miss, a scrape and an ingest each still take one pool job
    let mut expected_dispatches = before.0;
    for (method, target, body) in [
        ("GET", "/query?device=raspberry_pi_4", String::new()),
        ("GET", "/metrics", String::new()),
        ("POST", "/ingest?id=fresh", tiny_report(504)),
    ] {
        let response = client_exchange(&mut stream, method, target, body.as_bytes()).unwrap();
        assert!(response.status < 300, "{target}: {}", response.status);
        expected_dispatches += 1.0;
        assert_eq!(
            counts().0,
            expected_dispatches,
            "{method} {target} did not dispatch"
        );
    }
    assert_eq!(cache.stats().misses, 2);

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// One write of a thousand pipelined cached reads on one connection:
/// after the first response, the reactor answers the rest in a loop, each
/// one intact, and the last one allowed on a connection says `close`.
#[test]
fn a_thousand_pipelined_cached_reads_come_back_intact() {
    // the server's per-connection request cap
    const PIPELINED: usize = 1000;

    let dir = temp_dir("pipelined-hits");
    ArtifactStore::open(&dir)
        .unwrap()
        .ingest("base", &tiny_report(505))
        .unwrap();
    let (addr, handle, runner) = start_server(
        &dir,
        ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(20),
            ..ServeOptions::default()
        },
    );
    let reference = StoreView::open(ArtifactStore::open(&dir).unwrap()).unwrap();
    let render = |keep_alive| {
        route(
            &get("/healthz", keep_alive),
            &reference,
            &ServeTelemetry::disabled(),
            &ResponseCache::new(0),
        )
        .to_bytes(keep_alive)
    };
    let mut expected = render(true).repeat(PIPELINED - 1);
    expected.extend(render(false));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).ok();
    stream
        .write_all(&b"GET /healthz HTTP/1.1\r\n\r\n".repeat(PIPELINED))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 200 OK\r\n").count(), PIPELINED);
    assert_eq!(text.matches("Connection: close\r\n").count(), 1);
    assert!(raw == expected, "pipelined responses differ from route");

    handle.shutdown();
    runner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
