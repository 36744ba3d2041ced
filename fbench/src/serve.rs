//! The `serve_read` and `serve_ingest` workloads: an in-process
//! `fahana-serve` daemon (`Server::bind_with`, one pool thread, default
//! response cache) over the seed's 64-campaign store, driven by one
//! closed-loop keep-alive client.
//!
//! A run is a fixed number of rounds. Each round copies the seeded store,
//! sets the daemon up (timed as `setup_s`), warms it, then runs a fixed
//! schedule of requests:
//!
//! * `serve_read`: reads drawn from the `fahana-loadgen` mix;
//! * `serve_ingest`: cycles of 100 such reads, one `POST /ingest` of a
//!   fresh report, and the `GET /catalog` that follows it.
//!
//! Every response is checked: status, `X-Fahana-Generation` (one bump
//! per ingest) and the exact bytes of a cache-disabled render of the same
//! request at the same generation.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use fahana_runtime::serve::http::{Request, RequestParser};
use fahana_runtime::serve::{route, ResponseCache, ServeTelemetry};
use fahana_runtime::{catalog_json, ArtifactStore, ServeOptions, Server, StoreView};

use crate::client::{request_bytes, Client};
use crate::fixtures::{self, StoreFixture};
use crate::sys::{self, ms, CpuSnapshot, Samples, SplitMix};
use crate::trace::{self, Span, Tracer};
use crate::{Metric, RunResult};

/// The `fahana-loadgen` read mix: target and weight (weights sum to 100).
pub const MIX: [(&str, u64); 6] = [
    ("/query?device=raspberry_pi_4&max_latency_ms=50", 20),
    ("/query?device=odroid_xu4", 15),
    ("/catalog", 25),
    ("/leaderboard/raspberry_pi_4?top=5", 20),
    ("/campaigns", 10),
    ("/healthz", 10),
];
/// Index of `/catalog` in [`MIX`]: the read sent after every ingest.
const CATALOG: usize = 2;

/// `serve_read`: rounds per second of `--seconds`, and reads per round.
const READ_ROUNDS_PER_SECOND: f64 = 2.5;
const READ_WARMUP: usize = 500;
const READ_TIMED: usize = 6_000;

/// `serve_ingest`: rounds per second of `--seconds`, and ingest cycles per
/// round (each cycle is `READS_PER_INGEST` reads, an ingest, a catalog
/// read). A bounded cycle count keeps the store between 64 and 77
/// campaigns, so ingest cost (which grows with the store) does not drift
/// through a run.
const INGEST_ROUNDS_PER_SECOND: f64 = 2.5;
const INGEST_WARMUP_CYCLES: usize = 1;
const INGEST_TIMED_CYCLES: usize = 12;
const READS_PER_INGEST: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Read,
    Ingest,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Read => "serve_read",
            Workload::Ingest => "serve_ingest",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// A read of `MIX[k]`.
    Read(usize),
    /// The `j`-th ingest of the round.
    Ingest(usize),
    /// The `GET /catalog` right after an ingest.
    AfterIngest,
}

#[derive(Debug, Clone)]
struct Plan {
    warmup: Vec<Op>,
    timed: Vec<Op>,
}

impl Plan {
    fn new(workload: Workload, seed: u64, round: u64) -> Plan {
        let mut rng = SplitMix::new(seed ^ round.wrapping_mul(0xa076_1d64_78bd_642f));
        let mut draw = move || {
            let mut pick = rng.below(100);
            MIX.iter()
                .position(|&(_, weight)| {
                    let hit = pick < weight;
                    pick = pick.saturating_sub(weight);
                    hit
                })
                .expect("weights sum to 100")
        };
        match workload {
            Workload::Read => Plan {
                warmup: (0..READ_WARMUP).map(|_| Op::Read(draw())).collect(),
                timed: (0..READ_TIMED).map(|_| Op::Read(draw())).collect(),
            },
            Workload::Ingest => {
                let mut ingest = 0;
                let mut cycles = |count: usize| {
                    let mut ops = Vec::new();
                    for _ in 0..count {
                        ops.extend((0..READS_PER_INGEST).map(|_| Op::Read(draw())));
                        ops.push(Op::Ingest(ingest));
                        ops.push(Op::AfterIngest);
                        ingest += 1;
                    }
                    ops
                };
                let warmup = cycles(INGEST_WARMUP_CYCLES);
                let timed = cycles(INGEST_TIMED_CYCLES);
                Plan { warmup, timed }
            }
        }
    }

    fn ingests(&self) -> usize {
        self.warmup
            .iter()
            .chain(&self.timed)
            .filter(|op| matches!(op, Op::Ingest(_)))
            .count()
    }
}

/// Wire bytes and parsed forms of every request a round can send.
#[derive(Debug)]
struct Requests {
    reads: Vec<Vec<u8>>,
    parsed: Vec<Request>,
    /// `(id, report body, wire bytes)` of the `j`-th ingest.
    ingests: Vec<(String, String, Vec<u8>)>,
}

impl Requests {
    /// The mix reads plus `ingests` ingests; ingest `j` sends report `order[(first + j) % order.len()]`, so reports are
    /// used evenly across a run.
    fn new(
        reports: &[String],
        order: &[usize],
        first: usize,
        ingests: usize,
    ) -> Result<Requests, String> {
        let reads: Vec<Vec<u8>> = MIX
            .iter()
            .map(|(target, _)| request_bytes("GET", target, b""))
            .collect();
        let parsed = reads
            .iter()
            .map(|bytes| match RequestParser::new(0).feed(bytes) {
                Ok(Some(request)) => Ok(request),
                _ => Err("a mix request does not parse".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let ingests = (0..ingests)
            .map(|j| {
                let id = format!("fresh-{j:03}");
                let body = reports[order[(first + j) % order.len()]].clone();
                let bytes = request_bytes("POST", &format!("/ingest?id={id}"), body.as_bytes());
                (id, body, bytes)
            })
            .collect();
        Ok(Requests {
            reads,
            parsed,
            ingests,
        })
    }
}

/// Response bytes seen per `(generation, mix key, connection-close)`.
/// Every read must equal the first one seen for its key, and every
/// first one must equal a cache-disabled render of the same request at
/// the same generation — checked up front when the expectation is known
/// before the run, or after the timed phase otherwise.
#[derive(Debug, Default)]
pub struct BodyCheck {
    entries: HashMap<(u64, usize, bool), Entry>,
}

#[derive(Debug)]
struct Entry {
    bytes: Vec<u8>,
    reads: u64,
    verified: bool,
}

impl BodyCheck {
    /// Records the known-correct bytes for a key at a generation.
    pub fn expect(&mut self, generation: u64, key: usize, close: bool, bytes: Vec<u8>) {
        self.entries.insert(
            (generation, key, close),
            Entry {
                bytes,
                reads: 0,
                verified: true,
            },
        );
    }

    /// Checks one response; `false` when it differs from what was
    /// expected (or first seen) for its key.
    fn observe(&mut self, generation: u64, key: usize, close: bool, raw: &[u8]) -> bool {
        match self.entries.get_mut(&(generation, key, close)) {
            Some(entry) if entry.bytes == raw => {
                entry.reads += 1;
                true
            }
            Some(_) => false,
            None => {
                self.entries.insert(
                    (generation, key, close),
                    Entry {
                        bytes: raw.to_vec(),
                        reads: 1,
                        verified: false,
                    },
                );
                true
            }
        }
    }

    fn unverified(&self) -> BTreeMap<u64, Vec<(usize, bool)>> {
        let mut pending: BTreeMap<u64, Vec<(usize, bool)>> = BTreeMap::new();
        for (&(generation, key, close), entry) in &self.entries {
            if !entry.verified {
                pending.entry(generation).or_default().push((key, close));
            }
        }
        pending
    }

    /// Verifies a first-seen entry; returns how many reads it stood for
    /// if it was wrong.
    fn verify(&mut self, generation: u64, key: usize, close: bool, expected: &[u8]) -> u64 {
        match self.entries.get_mut(&(generation, key, close)) {
            Some(entry) => {
                entry.verified = true;
                if entry.bytes == expected {
                    0
                } else {
                    entry.reads
                }
            }
            None => 0,
        }
    }
}

/// The cache-disabled render of a read, as wire bytes.
fn render_uncached(view: &StoreView, request: &Request, close: bool) -> Vec<u8> {
    let response = route(
        request,
        view,
        &ServeTelemetry::disabled(),
        &ResponseCache::new(0),
    );
    response.to_bytes(!close)
}

/// Expectations for every mix read at generation 0 (the `serve_read`
/// store never changes).
pub fn expect_reads(view: &StoreView) -> BodyCheck {
    let mut check = BodyCheck::default();
    for (key, (target, _)) in MIX.iter().enumerate() {
        let bytes = request_bytes("GET", target, b"");
        if let Ok(Some(request)) = RequestParser::new(0).feed(&bytes) {
            for close in [false, true] {
                check.expect(0, key, close, render_uncached(view, &request, close));
            }
        }
    }
    check
}

/// What one daemon round measured.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    /// Reads on an open connection (excluding the read after an ingest).
    read: Samples,
    /// The first request on a fresh connection, connect included.
    reconnect: Samples,
    /// `/catalog` reads on an open connection (a subset of `read`).
    catalog: Samples,
    ingest: Samples,
    after_ingest: Samples,
    requests: u64,
    attempted: u64,
    failed: u64,
    wall: Duration,
    cpu_s: f64,
    loadgen_cpu_s: f64,
    wakeups: u64,
    dispatches: u64,
    cache_hits: u64,
    cache_misses: u64,
    invalidations: u64,
    spans: Vec<Span>,
}

/// Client-side state carried across the warm-up and the timed phase.
struct Drive<'a> {
    client: Client,
    requests: &'a Requests,
    check: BodyCheck,
    ingests_done: u64,
    reported_error: bool,
}

impl Drive<'_> {
    /// Sends `ops` in order and returns how many failed; when `round` is
    /// given, records each op's latency into its class.
    fn run(
        &mut self,
        ops: &[Op],
        mut round: Option<&mut Round>,
        mut tracer: Option<&mut Tracer>,
    ) -> u64 {
        let mut failed = 0;
        for (index, &op) in ops.iter().enumerate() {
            let (bytes, key) = match op {
                Op::Read(key) => (&self.requests.reads[key], key),
                Op::AfterIngest => (&self.requests.reads[CATALOG], CATALOG),
                Op::Ingest(j) => (&self.requests.ingests[j].2, usize::MAX),
            };
            let reconnect = self.client.needs_reconnect();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.enter("client.request", index as u64));
            let started = sys::now();
            let result = self.client.exchange(bytes);
            let elapsed = started.elapsed();
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.exit(span);
            }
            let ok = match result {
                Err(error) => {
                    if !self.reported_error {
                        eprintln!("serve: request failed: {error}");
                        self.reported_error = true;
                    }
                    self.client.reset();
                    false
                }
                Ok(reply) => match op {
                    Op::Ingest(_) => {
                        let created = reply.status == 201;
                        self.ingests_done += created as u64;
                        created
                    }
                    Op::Read(_) | Op::AfterIngest => {
                        reply.status == 200
                            && reply.generation == Some(self.ingests_done)
                            && self
                                .check
                                .observe(self.ingests_done, key, reply.close, reply.raw)
                    }
                },
            };
            failed += !ok as u64;
            let Some(round) = round.as_deref_mut() else {
                continue;
            };
            let sample = ms(elapsed);
            match op {
                Op::Read(_) if reconnect => round.reconnect.push(sample),
                Op::Read(key) => {
                    round.read.push(sample);
                    if key == CATALOG {
                        round.catalog.push(sample);
                    }
                }
                Op::Ingest(_) => round.ingest.push(sample),
                Op::AfterIngest => round.after_ingest.push(sample),
            }
        }
        failed
    }
}

/// The body check for a store that changes during the run: every
/// expectation is established after the timed phase.
fn no_expectations(_: &StoreView) -> BodyCheck {
    BodyCheck::default()
}

/// Sets a daemon up over a copy of the seeded store and drives one plan
/// through it. `prepare` builds the body check from the daemon's view
/// (before the warm-up, after `setup_s` is taken).
fn daemon_round(
    store: &Path,
    plan: &Plan,
    requests: &Requests,
    prepare: &dyn Fn(&StoreView) -> BodyCheck,
    traced: Option<Instant>,
) -> Result<(Round, BodyCheck), String> {
    let started = sys::now();
    let view = ArtifactStore::open(store)
        .and_then(StoreView::open)
        .map_err(|e| format!("cannot open the store: {e}"))?;
    let server = Server::bind_with(
        "127.0.0.1:0",
        view,
        ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    let metrics = server.obs().telemetry().metrics().clone();
    let wakeups = metrics.counter(
        "fahana_serve_reactor_wakeups_total",
        "reactor loop iterations (readiness, timer, or self-pipe wakes)",
    );
    let dispatches = metrics.counter(
        "fahana_serve_reactor_dispatches_total",
        "complete requests handed from the reactor to the pool",
    );

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let result = (|| -> Result<(Round, BodyCheck), String> {
            let client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
            let mut round = Round {
                setup_s: started.elapsed().as_secs_f64(),
                ..Round::default()
            };
            let mut drive = Drive {
                client,
                requests,
                check: prepare(server.view()),
                ingests_done: 0,
                reported_error: false,
            };
            let warmup_failed = drive.run(&plan.warmup, None, None);

            let mut tracer = traced.map(Tracer::new);
            let (wakeups0, dispatches0) = (wakeups.get(), dispatches.get());
            let cache0 = server.cache().stats();
            let cpu0 = CpuSnapshot::take()?;
            let thread_cpu0 = sys::thread_cpu_s()?;
            let timed = sys::now();
            let timed_failed = drive.run(&plan.timed, Some(&mut round), tracer.as_mut());
            round.wall = timed.elapsed();
            round.cpu_s = cpu0.seconds_since()?;
            round.loadgen_cpu_s = sys::thread_cpu_s()? - thread_cpu0;
            round.wakeups = wakeups.get() - wakeups0;
            round.dispatches = dispatches.get() - dispatches0;
            let cache = server.cache().stats();
            round.cache_hits = cache.hits - cache0.hits;
            round.cache_misses = cache.misses - cache0.misses;
            round.invalidations = cache.invalidations - cache0.invalidations;
            round.requests = plan.timed.len() as u64;
            round.attempted = (plan.warmup.len() + plan.timed.len()) as u64;
            round.failed = warmup_failed + timed_failed;
            round.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
            Ok((round, drive.check))
        })();
        handle.shutdown();
        let served = runner
            .join()
            .map_err(|_| "the server thread panicked".to_string())?;
        served.map_err(|e| format!("the server failed: {e}"))?;
        result
    })
}

/// Renders every first-seen response at its generation, replaying the
/// round's ingests into a fresh copy of the store (artifact publish +
/// view reload, which is what an ingest leaves behind), and returns the
/// number of reads whose bytes were wrong.
fn verify_generations(
    fixture: &Path,
    scratch: &Path,
    plan: &Plan,
    requests: &Requests,
    check: &mut BodyCheck,
) -> Result<u64, String> {
    let pending = check.unverified();
    if pending.is_empty() {
        return Ok(0);
    }
    fixtures::copy_store(fixture, scratch)?;
    let view = ArtifactStore::open(scratch)
        .and_then(StoreView::open)
        .map_err(|e| format!("cannot open the verification store: {e}"))?;
    let mut failed = 0;
    let ingests = plan.ingests() as u64;
    for generation in 0..=ingests {
        for &(key, close) in pending.get(&generation).into_iter().flatten() {
            let expected = render_uncached(&view, &requests.parsed[key], close);
            failed += check.verify(generation, key, close, &expected);
        }
        if generation < ingests {
            let (id, body, _) = &requests.ingests[generation as usize];
            std::fs::write(scratch.join("artifacts").join(format!("{id}.json")), body)
                .map_err(|e| format!("cannot publish {id}: {e}"))?;
            view.reload().map_err(|e| format!("cannot reload: {e}"))?;
        }
    }
    Ok(failed)
}

/// A whole run's rounds. Every timed metric is taken per round and
/// averaged over the rounds; counters are summed.
#[derive(Debug)]
struct Rounds {
    workload: Workload,
    setup: Samples,
    read_p50: Samples,
    read_p90: Samples,
    op2_p50: Samples,
    op3_p50: Samples,
    ops_per_s: Samples,
    cpu_s: Samples,
    /// Every read of the run, for the deep tail (kept only when asked:
    /// the samples would otherwise inflate `peak_rss_mb`).
    reads: Option<Samples>,
    attempted: u64,
    failed: u64,
    requests: u64,
    loadgen_cpu_s: f64,
    process_cpu_s: f64,
    wakeups: u64,
    dispatches: u64,
    cache_hits: u64,
    cache_misses: u64,
    invalidations: u64,
    count: u64,
}

impl Rounds {
    fn new(workload: Workload, keep_reads: bool) -> Rounds {
        Rounds {
            workload,
            setup: Samples::new(),
            read_p50: Samples::new(),
            read_p90: Samples::new(),
            op2_p50: Samples::new(),
            op3_p50: Samples::new(),
            ops_per_s: Samples::new(),
            cpu_s: Samples::new(),
            reads: keep_reads.then(Samples::new),
            attempted: 0,
            failed: 0,
            requests: 0,
            loadgen_cpu_s: 0.0,
            process_cpu_s: 0.0,
            wakeups: 0,
            dispatches: 0,
            cache_hits: 0,
            cache_misses: 0,
            invalidations: 0,
            count: 0,
        }
    }

    fn add(&mut self, mut round: Round) {
        let (op2, op3) = match self.workload {
            Workload::Read => (&mut round.reconnect, &mut round.catalog),
            Workload::Ingest => (&mut round.ingest, &mut round.after_ingest),
        };
        self.op2_p50.push(op2.median());
        self.op3_p50.push(op3.median());
        self.setup.push(round.setup_s);
        self.read_p50.push(round.read.median());
        self.read_p90.push(round.read.quantile(0.9));
        self.ops_per_s
            .push(round.requests as f64 / round.wall.as_secs_f64());
        self.cpu_s.push(round.cpu_s);
        if let Some(reads) = &mut self.reads {
            reads.extend(&round.read);
        }
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.requests += round.requests;
        self.loadgen_cpu_s += round.loadgen_cpu_s;
        self.process_cpu_s += round.cpu_s;
        self.wakeups += round.wakeups;
        self.dispatches += round.dispatches;
        self.cache_hits += round.cache_hits;
        self.cache_misses += round.cache_misses;
        self.invalidations += round.invalidations;
        self.count += 1;
    }
}

/// Inputs shared by every round of a run.
struct Setup {
    workload: Workload,
    seed: u64,
    fixture: StoreFixture,
    scratch: std::path::PathBuf,
}

impl Setup {
    fn new(workload: Workload, work: &Path, seed: u64) -> Result<Setup, String> {
        let fixture = fixtures::store_fixture(work, seed)?;
        let scratch = work.join(format!("run-{}", std::process::id()));
        Ok(Setup {
            workload,
            seed,
            fixture,
            scratch,
        })
    }

    fn requests(&self, plan: &Plan, round: u64) -> Result<Requests, String> {
        let ingests = plan.ingests();
        Requests::new(
            &self.fixture.reports,
            &self.fixture.ingest_order,
            round as usize * ingests,
            ingests,
        )
    }

    fn round(&self, index: u64, traced: Option<Instant>) -> Result<Round, String> {
        let plan = Plan::new(self.workload, self.seed, index);
        let requests = self.requests(&plan, index)?;
        let store = self.scratch.join("store");
        fixtures::copy_store(&self.fixture.store, &store)?;
        let prepare: &dyn Fn(&StoreView) -> BodyCheck = match self.workload {
            Workload::Read => &expect_reads,
            Workload::Ingest => &no_expectations,
        };
        let (mut round, mut check) = daemon_round(&store, &plan, &requests, prepare, traced)?;
        let wrong = verify_generations(
            &self.fixture.store,
            &self.scratch.join("verify"),
            &plan,
            &requests,
            &mut check,
        )?;
        if wrong > 0 {
            eprintln!("serve: {wrong} responses differ from the uncached render");
        }
        round.failed += wrong;
        Ok(round)
    }

    fn rounds(&self, count: u64, first: u64, keep_reads: bool) -> Result<Rounds, String> {
        let mut rounds = Rounds::new(self.workload, keep_reads);
        for index in first..first + count {
            rounds.add(self.round(index, None)?);
        }
        Ok(rounds)
    }

    fn cleanup(&self) {
        std::fs::remove_dir_all(&self.scratch).ok();
    }
}

fn rounds_for(workload: Workload, seconds: u64) -> u64 {
    let per_second = match workload {
        Workload::Read => READ_ROUNDS_PER_SECOND,
        Workload::Ingest => INGEST_ROUNDS_PER_SECOND,
    };
    ((seconds as f64 * per_second).round() as u64).max(2)
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, work: &Path, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let setup = Setup::new(workload, work, seed)?;
    let result = setup.rounds(rounds_for(workload, seconds), 0, false);
    setup.cleanup();
    let mut rounds = result?;
    eprintln!(
        "{}: {} rounds, {} timed requests; per round (mean over rounds): read p50 {:.4} ms, op2 p50 {:.4} ms, op3 p50 {:.4} ms",
        workload.name(),
        rounds.count,
        rounds.requests,
        rounds.read_p50.mean(),
        rounds.op2_p50.mean(),
        rounds.op3_p50.mean(),
    );
    Ok(RunResult {
        attempted: rounds.attempted,
        failed: rounds.failed,
        metrics: vec![
            Metric::new("setup_s", rounds.setup.median(), "s"),
            Metric::new("ops_per_s", rounds.ops_per_s.mean(), "1/s"),
            Metric::new("cpu_s", rounds.cpu_s.mean(), "s"),
            Metric::new("peak_rss_mb", sys::peak_rss_mb()?, "MiB"),
            Metric::new("op_p50_ms", rounds.read_p50.mean(), "ms"),
            Metric::new("op_p90_ms", rounds.read_p90.mean(), "ms"),
            Metric::new("op2_p50_ms", rounds.op2_p50.mean(), "ms"),
            Metric::new("op3_p50_ms", rounds.op3_p50.mean(), "ms"),
        ],
    })
}

/// Per-layer timings of the in-process replay.
#[derive(Debug, Default)]
struct Replay {
    spans: Vec<Span>,
    failed: u64,
    read_bytes: Samples,
}

/// Replays one round's schedule in-process — `RequestParser::feed` →
/// `route` → `Response::to_bytes` for reads, `ArtifactStore::ingest` +
/// `StoreView::reload` for ingests — against a fresh copy of the store
/// and a response cache of the daemon's capacity, with a span around
/// every call.
fn replay(setup: &Setup, round: u64, origin: Instant) -> Result<Replay, String> {
    let plan = Plan::new(setup.workload, setup.seed, round);
    let requests = setup.requests(&plan, round)?;
    let store = setup.scratch.join("replay");
    fixtures::copy_store(&setup.fixture.store, &store)?;
    let view = ArtifactStore::open(&store)
        .and_then(StoreView::open)
        .map_err(|e| format!("cannot open the replay store: {e}"))?;
    let options = ServeOptions::default();
    let cache = ResponseCache::new(options.cache_capacity);
    let obs = ServeTelemetry::disabled();
    let mut replay = Replay::default();
    let mut tracer = Tracer::new(origin);
    let mut bumped = false;
    for (phase, ops) in [(false, &plan.warmup), (true, &plan.timed)] {
        for (index, &op) in ops.iter().enumerate() {
            let id = index as u64;
            match op {
                Op::Read(_) | Op::AfterIngest => {
                    let key = match op {
                        Op::Read(key) => key,
                        _ => CATALOG,
                    };
                    let root = tracer.enter("replay.request", id);
                    let mut parser = RequestParser::new(options.max_body_bytes);
                    let parsed =
                        tracer.time("http.parse", id, || parser.feed(&requests.reads[key]));
                    let Ok(Some(request)) = parsed else {
                        tracer.exit(root);
                        replay.failed += 1;
                        continue;
                    };
                    let layer = if bumped {
                        "router.prerender"
                    } else {
                        "router.route"
                    };
                    bumped = false;
                    let response = tracer.time(layer, id, || route(&request, &view, &obs, &cache));
                    let bytes =
                        tracer.time("http.render", id, || response.to_bytes(request.keep_alive));
                    tracer.exit(root);
                    replay.failed += (response.status != 200 || bytes.is_empty()) as u64;
                }
                Op::Ingest(j) => {
                    let (id_text, body, _) = &requests.ingests[j];
                    let root = tracer.enter("replay.ingest", id);
                    let rchar = sys::read_chars()?;
                    let stored =
                        tracer.time("store.ingest", id, || view.store().ingest(id_text, body));
                    let reloaded = tracer.time("view.reload", id, || view.reload());
                    replay.read_bytes.push((sys::read_chars()? - rchar) as f64);
                    let campaigns = tracer.time("store.campaigns", id, || view.store().campaigns());
                    let catalog = campaigns.as_ref().map(|c| {
                        tracer.time("store.catalog_json", id, || catalog_json(c).render())
                    });
                    tracer.exit(root);
                    replay.failed += (stored.is_err()
                        || reloaded.is_err()
                        || !catalog.is_ok_and(|c| !c.is_empty()))
                        as u64;
                    bumped = true;
                }
            }
        }
        if !phase {
            // the warm-up is not measured
            tracer = Tracer::new(origin);
            replay.read_bytes = Samples::new();
        }
    }
    replay.spans = tracer.into_spans();
    Ok(replay)
}

fn durations(spans: &[Span], name: &str, scale: f64) -> Samples {
    let mut samples = Samples::new();
    for span in spans.iter().filter(|s| s.name == name) {
        samples.push(span.duration_ns() as f64 / scale);
    }
    samples
}

/// The traced run: untraced rounds (round-trip and daemon counters), one
/// round with a span per client request (tracing overhead), and the
/// in-process replay (per-layer times).
pub fn run_traced(
    workload: Workload,
    work: &Path,
    seed: u64,
    seconds: u64,
) -> Result<RunResult, String> {
    let setup = Setup::new(workload, work, seed)?;
    let result = (|| {
        // untraced rounds (round trips, daemon counters) alternate with
        // rounds that record a span per client request, so both see the
        // same machine; the replay then gives per-layer times
        let pairs = (rounds_for(workload, seconds) / 2).max(1);
        let origin = sys::now();
        let mut untraced = Rounds::new(workload, true);
        let mut traced = Rounds::new(workload, false);
        let mut client_spans = Vec::new();
        for pair in 0..pairs {
            untraced.add(setup.round(2 * pair, None)?);
            let mut round = setup.round(2 * pair + 1, Some(origin))?;
            if client_spans.is_empty() {
                // one round's request spans are written out
                client_spans = std::mem::take(&mut round.spans);
            }
            traced.add(round);
        }
        let replay = replay(&setup, 0, origin)?;
        Ok::<_, String>((untraced, traced, client_spans, replay))
    })();
    setup.cleanup();
    let (mut untraced, traced, client_spans, replay) = result?;

    let spans = &replay.spans;
    let us = 1e3;
    let mut parse = durations(spans, "http.parse", us);
    let mut route_us = durations(spans, "router.route", us);
    let mut render = durations(spans, "http.render", us);
    let mut prerender = durations(spans, "router.prerender", 1e6);
    let mut ingest = durations(spans, "store.ingest", 1e6);
    let mut reload = durations(spans, "view.reload", 1e6);
    let mut campaigns = durations(spans, "store.campaigns", 1e6);
    let mut catalog = durations(spans, "store.catalog_json", 1e6);
    let selfs = trace::self_times(spans);
    let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(&selfs) {
        if span.parent.is_none() {
            root_ns += span.duration_ns();
            root_self_ns += self_ns;
        }
    }
    let (tail_pct, tail_ms) = untraced.reads.as_mut().map_or((0.0, 0.0), Samples::tail);
    let read_p50_us = untraced.read_p50.mean() * 1e3;
    let layers_us = parse.median() + route_us.median() + render.median();
    let requests = untraced.requests.max(1) as f64;
    let lookups = (untraced.cache_hits + untraced.cache_misses).max(1) as f64;
    let per_round = untraced.count as f64;
    let untraced_ops = untraced.ops_per_s.mean();
    let traced_ops = traced.ops_per_s.mean();

    let trace_path = work
        .join("traces")
        .join(format!("{}-seed{seed}.jsonl", workload.name()));
    trace::write_jsonl(
        &trace_path,
        &[
            ("client".to_string(), client_spans.as_slice()),
            ("replay".to_string(), spans.as_slice()),
        ],
    )
    .map_err(|e| e.to_string())?;

    let mut metrics = crate::zero_per_layer();
    let mut set = |name: &str, value: f64| crate::set_metric(&mut metrics, name, value);
    set("http.parse_us", parse.median());
    set("router.route_us", route_us.median());
    set("http.render_us", render.median());
    set("transport.residual_us", read_p50_us - layers_us);
    set(
        "reactor.wakeups_per_request",
        untraced.wakeups as f64 / requests,
    );
    set(
        "reactor.dispatches_per_request",
        untraced.dispatches as f64 / requests,
    );
    set("respcache.hits", untraced.cache_hits as f64 / per_round);
    set("respcache.misses", untraced.cache_misses as f64 / per_round);
    set("respcache.hit_ratio", untraced.cache_hits as f64 / lookups);
    set(
        "respcache.invalidations",
        untraced.invalidations as f64 / per_round,
    );
    set("store.ingest_ms", ingest.median());
    set("view.reload_ms", reload.median());
    set("store.campaigns_ms", campaigns.median());
    set("store.catalog_json_ms", catalog.median());
    set(
        "store.read_bytes_per_ingest",
        replay.read_bytes.clone().median(),
    );
    set("router.prerender_ms", prerender.median());
    set("loadgen.cpu_s", untraced.loadgen_cpu_s);
    set(
        "loadgen.cpu_share",
        untraced.loadgen_cpu_s / untraced.process_cpu_s.max(1e-9),
    );
    set("read_tail_ms", tail_ms);
    set("read_tail_pct", tail_pct);
    set(
        "trace.layer_coverage",
        1.0 - root_self_ns as f64 / root_ns.max(1) as f64,
    );
    set("trace.spans", (client_spans.len() + spans.len()) as f64);
    set(
        "trace.overhead_pct",
        (untraced_ops - traced_ops) / untraced_ops * 100.0,
    );
    eprintln!(
        "serve traced: read p50 {read_p50_us:.1} us = parse {:.2} + route {:.2} + render {:.2} + transport {:.1}; spans written to {}",
        parse.median(),
        route_us.median(),
        render.median(),
        read_p50_us - layers_us,
        trace_path.display()
    );
    Ok(RunResult {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed + replay.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-campaign store in a fresh temporary directory.
    fn tiny_store(name: &str) -> (std::path::PathBuf, String) {
        let root = std::env::temp_dir().join(format!("fbench-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let outcome = fahana_runtime::CampaignEngine::new(fahana_runtime::CampaignConfig {
            episodes: 5,
            samples: 120,
            threads: 1,
            ..fahana_runtime::CampaignConfig::default()
        })
        .unwrap()
        .run()
        .unwrap();
        let report = fahana_runtime::campaign_json(&outcome);
        ArtifactStore::open(root.join("store"))
            .unwrap()
            .ingest("seeded", &report)
            .unwrap();
        (root, report)
    }

    /// One daemon round over a fresh copy of the tiny store.
    fn fresh_round(
        root: &Path,
        plan: &Plan,
        requests: &Requests,
        prepare: &dyn Fn(&StoreView) -> BodyCheck,
    ) -> (Round, BodyCheck) {
        let store = root.join("round");
        fixtures::copy_store(&root.join("store"), &store).unwrap();
        daemon_round(&store, plan, requests, prepare, None).unwrap()
    }

    #[test]
    fn correct_reads_pass_and_a_corrupted_expectation_is_caught() {
        let (root, report) = tiny_store("corrupt");
        let plan = Plan::new(Workload::Read, 3, 0);
        let requests = Requests::new(&[report], &[0], 0, 0).unwrap();
        let (round, _) = fresh_round(&root, &plan, &requests, &expect_reads);
        assert_eq!(
            round.failed, 0,
            "the daemon's answers match the uncached render"
        );
        assert_eq!(round.attempted, (READ_WARMUP + READ_TIMED) as u64);

        // flip one byte of the expected /healthz body: every /healthz read
        // of the round must now count as failed, and nothing else
        let healthz = 5;
        let corrupt = |view: &StoreView| {
            let mut check = expect_reads(view);
            for close in [false, true] {
                let entry = check.entries.get_mut(&(0, healthz, close)).unwrap();
                let last = entry.bytes.len() - 1;
                entry.bytes[last] ^= 1;
            }
            check
        };
        let (round, _) = fresh_round(&root, &plan, &requests, &corrupt);
        let healthz_reads = plan
            .warmup
            .iter()
            .chain(&plan.timed)
            .filter(|op| **op == Op::Read(healthz))
            .count() as u64;
        assert!(healthz_reads > 0);
        assert_eq!(round.failed, healthz_reads);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn ingest_rounds_check_generations_after_the_timed_phase() {
        let (root, report) = tiny_store("ingest");
        let plan = Plan {
            warmup: vec![Op::Read(0), Op::Ingest(0), Op::AfterIngest],
            timed: vec![
                Op::Read(CATALOG),
                Op::Ingest(1),
                Op::AfterIngest,
                Op::Read(4),
            ],
        };
        let requests = Requests::new(&[report], &[0], 0, plan.ingests()).unwrap();
        let (round, mut check) = fresh_round(&root, &plan, &requests, &no_expectations);
        assert_eq!(round.failed, 0);
        assert_eq!(round.ingest.len(), 1);
        assert_eq!(round.after_ingest.len(), 1);
        let wrong = verify_generations(
            &root.join("store"),
            &root.join("verify"),
            &plan,
            &requests,
            &mut check,
        )
        .unwrap();
        assert_eq!(wrong, 0);
        assert!(check.unverified().is_empty());

        // a first-seen body that no render produces is caught
        let (_, mut check) = fresh_round(&root, &plan, &requests, &no_expectations);
        check
            .entries
            .get_mut(&(2, 4, false))
            .unwrap()
            .bytes
            .push(b' ');
        let wrong = verify_generations(
            &root.join("store"),
            &root.join("verify"),
            &plan,
            &requests,
            &mut check,
        )
        .unwrap();
        assert_eq!(wrong, 1);
        std::fs::remove_dir_all(&root).ok();
    }
}
