//! A cached read costs no allocation in its accounting or its lookup.
//!
//! `ServeTelemetry::record_request` resolves its counter, histogram and
//! byte counters from the registry on the first request an
//! `(endpoint, status)` pair sees; every later request is a handful of
//! atomic updates. The response cache hands every hit the same shared
//! keep-alive bytes instead of a copy. A global allocator that counts
//! the allocations of the thread under test pins both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use fahana_runtime::serve::{Response, ResponseCache, ServeTelemetry};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down still allocates
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the added thread-local bump allocates nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s layout contract, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, from `System.alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `realloc`'s contract, passed through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `run` makes on this thread.
fn allocations_in(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

/// The read endpoints a cached hit answers, each with a status it can
/// answer with.
const READS: [(&str, u16); 6] = [
    ("/healthz", 200),
    ("/query", 200),
    ("/campaigns", 200),
    ("/catalog", 200),
    ("/leaderboard/raspberry_pi_4", 200),
    ("/query", 400),
];

#[test]
fn record_request_allocates_nothing_once_its_series_exist() {
    let obs = ServeTelemetry::disabled();
    let priming = allocations_in(|| {
        for (path, status) in READS {
            obs.record_request(path, status, Duration::from_micros(20), 0, 640);
        }
    });
    assert!(priming > 0, "the first requests register their series");

    let steady = allocations_in(|| {
        for round in 0..200u64 {
            for (path, status) in READS {
                obs.record_request(path, status, Duration::from_micros(round), 3, 62_780);
            }
        }
    });
    assert_eq!(steady, 0, "a recorded (endpoint, status) allocated again");

    // the handles update the series the registry renders
    let rendered = obs.telemetry().metrics().render_prometheus();
    assert!(
        rendered.contains(r#"fahana_http_requests_total{endpoint="/query",status="200"} 201"#),
        "{rendered}"
    );
    assert!(
        rendered.contains(r#"fahana_http_request_ms_count{endpoint="/query"} 402"#),
        "{rendered}"
    );
    assert!(
        rendered.contains("fahana_http_request_body_bytes_total 3600"),
        "{rendered}"
    );
}

#[test]
fn two_hits_share_one_rendering_and_allocate_nothing() {
    let cache = ResponseCache::new(8);
    let key = "GET 8:/catalog";
    assert!(cache.lookup(key, 0).is_none());
    let body = "x".repeat(62_780);
    let rendered = Response::ok(body).with_generation(0);
    let expected = rendered.to_bytes(true);
    cache.insert(key.to_string(), 0, Arc::new(rendered.into_wire()));

    let mut hits = Vec::with_capacity(2);
    let during = allocations_in(|| {
        hits.push(cache.lookup(key, 0).expect("first hit"));
        hits.push(cache.lookup(key, 0).expect("second hit"));
    });
    assert_eq!(during, 0, "a hit copied its bytes");
    assert!(Arc::ptr_eq(&hits[0], &hits[1]), "hits hold distinct copies");
    assert_eq!(hits[0].keep_alive_bytes(), expected);
    assert_eq!(cache.stats().hits, 2);
}
