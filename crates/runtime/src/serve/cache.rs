//! The generation-keyed response cache.
//!
//! Every read endpoint is a pure function of the store view: the same
//! `(method, path, query)` against the same [`StoreView::generation`]
//! renders the same bytes, bit for bit (the property `tests/serve_http.rs`
//! pins against the CLI). That makes cached response bytes free wins — as
//! long as a cached entry is *never* served across a generation bump. The
//! cache therefore holds entries for exactly one generation at a time:
//! a lookup against a newer generation flushes the whole map before
//! answering (wholesale invalidation — `POST /ingest` bumps the view
//! generation, so the next read after an ingest starts from an empty
//! cache), and an insert tagged with a stale generation is dropped on the
//! floor instead of poisoning the fresh map.
//!
//! Nothing is rendered ahead of demand: a miss renders its own answer and
//! caches only that. An entry is that answer's keep-alive wire bytes,
//! serialized once by the miss and shared (`Arc`) between the cache and
//! every socket a hit writes them to, so a hit copies no body. The map is
//! bounded: past `capacity` entries, the oldest inserted entry is evicted
//! (FIFO). Hits, misses, evictions, and invalidation flushes are counted
//! on the cache itself and mirrored into the
//! [`MetricsRegistry`](crate::telemetry::MetricsRegistry) at scrape time,
//! the same way pool statistics are.
//!
//! [`StoreView::generation`]: crate::serve::view::StoreView::generation

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::serve::http::{Request, WireResponse};

/// Point-in-time cache statistics (monotonic counters plus the live entry
/// count), as mirrored into `/metrics` and `/statusz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to render.
    pub misses: u64,
    /// Entries evicted to make room (capacity pressure, not invalidation).
    pub evictions: u64,
    /// Wholesale flushes caused by a generation bump.
    pub invalidations: u64,
    /// Entries currently held.
    pub entries: usize,
    /// The generation the held entries were rendered from.
    pub generation: u64,
}

#[derive(Debug, Default)]
struct CacheMap {
    /// The generation every held entry was rendered from.
    generation: u64,
    // fahana-lint: allow(hash-iter) never iterated for output: lookups are by exact key, eviction order comes from the FIFO deque
    entries: HashMap<String, Arc<WireResponse>>,
    /// Insertion order, oldest first, for FIFO eviction.
    order: VecDeque<String>,
}

/// A bounded map from `(method, path, query)` to shared keep-alive
/// response bytes, valid for a single store-view generation.
#[derive(Debug)]
pub struct ResponseCache {
    capacity: usize,
    map: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ResponseCache {
    /// A cache holding at most `capacity` responses. Capacity 0 disables
    /// caching entirely (every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            map: Mutex::new(CacheMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The cache key for a request: method + decoded path + decoded query
    /// pairs. Path and every query component are length-prefixed so no
    /// decoded byte sequence can collide with the separators — `?a=b%26c=d`
    /// and `?a=b&c=d` must be distinct keys, and a path that *contains* a
    /// serialized query tail must not alias a real query.
    pub fn key(request: &Request) -> String {
        let mut key = format!("{} {}:{}", request.method, request.path.len(), request.path);
        for (name, value) in &request.query {
            key.push_str(&format!("|{}:{name}={}:{value}", name.len(), value.len()));
        }
        key
    }

    /// Looks `key` up against `generation`. A lookup from a generation
    /// newer than the held entries flushes the map first (wholesale
    /// invalidation); a lookup from an *older* generation (a request that
    /// raced a reload and lost) bypasses the cache entirely — stale bytes
    /// are never served, and a fresher map is never flushed backwards.
    /// `Some` shares the exact response bytes rendered earlier this
    /// generation; no byte is copied.
    pub fn lookup(&self, key: &str, generation: u64) -> Option<Arc<WireResponse>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut map = super::unpoison(self.map.lock());
        if generation > map.generation {
            let stale = map.entries.len();
            map.entries.clear();
            map.order.clear();
            map.generation = generation;
            if stale > 0 {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        } else if generation < map.generation {
            // this request rendered from a view snapshot that is already
            // superseded; serve it fresh, leave the cache alone
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match map.entries.get(key) {
            Some(response) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(response))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches `response` under `key`, valid for `generation`. Dropped
    /// silently when `generation` does not match the map's (the render
    /// raced a reload — caching it would serve stale bytes) or when the
    /// cache is disabled. Evicts the oldest entry at capacity.
    pub fn insert(&self, key: String, generation: u64, response: Arc<WireResponse>) {
        if self.capacity == 0 {
            return;
        }
        let mut map = super::unpoison(self.map.lock());
        if generation != map.generation {
            return;
        }
        if map.entries.contains_key(&key) {
            // a concurrent miss on the same key won the race; both rendered
            // the same generation, so both hold identical bytes — keep the
            // incumbent and its position in the eviction order
            return;
        }
        while map.entries.len() >= self.capacity {
            let Some(oldest) = map.order.pop_front() else {
                break;
            };
            map.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        map.order.push_back(key.clone());
        map.entries.insert(key, response);
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> CacheStatsSnapshot {
        let map = super::unpoison(self.map.lock());
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: map.entries.len(),
            generation: map.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::http::Response;

    fn response(body: &str) -> Arc<WireResponse> {
        Arc::new(Response::ok(body.to_string()).into_wire())
    }

    fn request(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn hit_after_insert_within_one_generation() {
        let cache = ResponseCache::new(8);
        let key = ResponseCache::key(&request("/catalog", &[]));
        assert_eq!(cache.lookup(&key, 0), None);
        cache.insert(key.clone(), 0, response("catalog-bytes"));
        let cached = cache.lookup(&key, 0).expect("a hit after the insert");
        assert_eq!(cached.to_response().body, "catalog-bytes");
        let again = cache.lookup(&key, 0).expect("a second hit");
        assert!(Arc::ptr_eq(&cached, &again), "hits share one rendering");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn generation_bump_flushes_wholesale_and_stale_inserts_are_dropped() {
        let cache = ResponseCache::new(8);
        let key = ResponseCache::key(&request("/query", &[("device", "pi")]));
        cache.lookup(&key, 3);
        cache.insert(key.clone(), 3, response("gen-3"));

        // a lookup from generation 4 must never see gen-3 bytes
        assert_eq!(cache.lookup(&key, 4), None);
        assert_eq!(cache.stats().entries, 0, "flush is wholesale");
        assert_eq!(cache.stats().invalidations, 1);

        // an insert still tagged 3 (its render raced the reload) is dropped
        cache.insert(key.clone(), 3, response("gen-3-late"));
        assert_eq!(cache.lookup(&key, 4), None);

        // and a late *lookup* from generation 3 bypasses rather than
        // flushing the fresher map backwards
        cache.insert(key.clone(), 4, response("gen-4"));
        assert_eq!(cache.lookup(&key, 3), None);
        assert_eq!(cache.lookup(&key, 4), Some(response("gen-4")));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ResponseCache::new(2);
        cache.lookup("a", 0);
        cache.insert("a".into(), 0, response("a"));
        cache.insert("b".into(), 0, response("b"));
        cache.insert("c".into(), 0, response("c"));
        assert_eq!(cache.lookup("a", 0), None);
        assert_eq!(cache.lookup("b", 0), Some(response("b")));
        assert_eq!(cache.lookup("c", 0), Some(response("c")));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResponseCache::new(0);
        assert_eq!(cache.lookup("a", 0), None);
        cache.insert("a".into(), 0, response("a"));
        assert_eq!(cache.lookup("a", 0), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn keys_cannot_collide_across_query_encodings() {
        // `?a=b&c=d` and `?a=b&c=d` spelled as one decoded value must not
        // share a key, or one filter's bytes would answer the other
        let two_pairs = ResponseCache::key(&request("/query", &[("a", "b"), ("c", "d")]));
        let one_pair = ResponseCache::key(&request("/query", &[("a", "b&c=d")]));
        assert_ne!(two_pairs, one_pair);
        let nested = ResponseCache::key(&request("/query", &[("a", "b|1:c=1:d")]));
        assert_ne!(two_pairs, nested);
        // a path embedding a serialized query tail must not alias either
        let weird_path = ResponseCache::key(&request("/query|1:a=1:b|1:c=1:d", &[]));
        assert_ne!(two_pairs, weird_path);
    }
}
