//! Architecture-fingerprint-keyed evaluation cache.
//!
//! The surrogate evaluator is a pure function of (architecture, frozen
//! block count, surrogate configuration). Scenario grids exploit that
//! heavily: two scenarios differing only in device profile or reward
//! weights drive their controllers through *identical* decision streams
//! (same master seed), so they request evaluations for identical child
//! architectures. The cache memoises those requests in one map behind an
//! `RwLock` shared by every worker; a hit returns the stored
//! [`FairnessEvaluation`], which is bit-identical to what re-evaluation
//! would produce.
//!
//! Keys are 128-bit FNV-style fingerprints over the architecture's full
//! structure (name included — the surrogate's noise term depends on it),
//! the frozen-block count and the evaluator's configuration, so evaluators
//! calibrated for different datasets never alias.
//!
//! The cache lives for one campaign run: [`crate::CampaignEngine`] builds a
//! fresh one per run and nothing persists it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use archspace::Architecture;
use evaluator::{Evaluate, FairnessEvaluation, SurrogateEvaluator};

/// A 128-bit structural fingerprint accumulator (two independent FNV-1a
/// streams with distinct offset bases).
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    lo: u64,
    hi: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
        }
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.lo = (self.lo ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.hi = (self.hi ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.hi = self.hi.rotate_left(17);
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &byte in bytes {
            self.lo = (self.lo ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.hi = (self.hi ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.hi = self.hi.rotate_left(17);
        }
    }

    fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    fn finish(self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// The cache key: evaluator fingerprint × architecture structure × frozen
/// block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    lo: u64,
    hi: u64,
}

impl CacheKey {
    fn for_request(evaluator_fingerprint: u64, arch: &Architecture, frozen_blocks: usize) -> Self {
        let mut fp = Fingerprint::new();
        fp.write_u64(evaluator_fingerprint);
        fp.write_u64(frozen_blocks as u64);
        fp.write_bytes(arch.name().as_bytes());
        fp.write_u64(arch.classes() as u64);
        fp.write_u64(arch.input_size() as u64);
        let stem = arch.stem();
        fp.write_u64(stem.out_channels as u64);
        fp.write_u64(stem.kernel as u64);
        fp.write_u64(u64::from(stem.pool));
        fp.write_u64(arch.blocks().len() as u64);
        for block in arch.blocks() {
            fp.write_bytes(block.kind.label().as_bytes());
            fp.write_u64(block.ch_in as u64);
            fp.write_u64(block.ch_mid as u64);
            fp.write_u64(block.ch_out as u64);
            fp.write_u64(block.kernel as u64);
            fp.write_u64(u64::from(block.skipped));
            fp.write_u64(u64::from(block.downsample));
        }
        let (lo, hi) = fp.finish();
        CacheKey { lo, hi }
    }
}

/// Hit/miss counters of a cache (or of one evaluator's view of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache was never hit).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe evaluation memo shared by many [`CachedEvaluator`]s.
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: RwLock<HashMap<CacheKey, FairnessEvaluation>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<CacheKey, FairnessEvaluation>> {
        self.entries.read().expect("eval cache poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<CacheKey, FairnessEvaluation>> {
        self.entries.write().expect("eval cache poisoned")
    }

    /// Number of memoised evaluations.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the cache holds no evaluation yet.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Aggregate hit/miss counters across every evaluator using this cache.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn get(&self, key: &CacheKey) -> Option<FairnessEvaluation> {
        let evaluation = self.read().get(key)?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(evaluation)
    }

    /// Counts a miss. Callers invoke this only after the inner evaluation
    /// *succeeded*, so the serialized [`CacheStats`] keep meaning "lookups
    /// that evaluated".
    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn insert(&self, key: CacheKey, evaluation: FairnessEvaluation) {
        self.write().insert(key, evaluation);
    }
}

/// An [`Evaluate`] decorator that memoises its inner evaluator through a
/// shared [`EvalCache`].
///
/// Clones share the cache *and* this instance's local hit/miss counters,
/// so every clone reports into one per-scenario hit-rate.
#[derive(Debug, Clone)]
pub struct CachedEvaluator<E> {
    inner: E,
    cache: Arc<EvalCache>,
    evaluator_fingerprint: u64,
    local_hits: Arc<AtomicU64>,
    local_misses: Arc<AtomicU64>,
}

impl<E> CachedEvaluator<E> {
    /// Wraps `inner`, namespacing its entries under
    /// `evaluator_fingerprint` (hash whatever configuration distinguishes
    /// two evaluators that would disagree about the same architecture).
    pub fn new(inner: E, cache: Arc<EvalCache>, evaluator_fingerprint: u64) -> Self {
        CachedEvaluator {
            inner,
            cache,
            evaluator_fingerprint,
            local_hits: Arc::new(AtomicU64::new(0)),
            local_misses: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// Hit/miss counters of this evaluator (shared with its clones),
    /// independent of other evaluators using the same cache.
    pub fn local_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.local_hits.load(Ordering::Relaxed),
            misses: self.local_misses.load(Ordering::Relaxed),
        }
    }
}

impl CachedEvaluator<SurrogateEvaluator> {
    /// Wraps a surrogate, fingerprinting its full configuration so
    /// surrogates calibrated on different datasets or seeds never share
    /// entries.
    pub fn surrogate(inner: SurrogateEvaluator, cache: Arc<EvalCache>) -> Self {
        let config = *inner.config();
        let mut fp = Fingerprint::new();
        fp.write_f64(config.minority_fraction);
        fp.write_f64(config.imbalance_ratio);
        fp.write_f64(config.reference_imbalance);
        fp.write_f64(config.noise_scale);
        fp.write_u64(config.seed);
        let (lo, hi) = fp.finish();
        CachedEvaluator::new(inner, cache, lo ^ hi.rotate_left(31))
    }
}

impl<E: Evaluate> Evaluate for CachedEvaluator<E> {
    fn evaluate_with_frozen(
        &mut self,
        arch: &Architecture,
        frozen_blocks: usize,
    ) -> evaluator::Result<FairnessEvaluation> {
        let key = CacheKey::for_request(self.evaluator_fingerprint, arch, frozen_blocks);
        if let Some(hit) = self.cache.get(&key) {
            self.local_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let evaluation = self.inner.evaluate_with_frozen(arch, frozen_blocks)?;
        self.cache.note_miss();
        self.local_misses.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key, evaluation.clone());
        Ok(evaluation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archspace::zoo;
    use evaluator::SurrogateConfig;

    #[test]
    fn cached_results_are_bit_identical_to_uncached() {
        let cache = Arc::new(EvalCache::new());
        let mut cached = CachedEvaluator::surrogate(SurrogateEvaluator::default(), cache.clone());
        let mut plain = SurrogateEvaluator::default();
        for arch in [zoo::paper_fahana_small(5, 64), zoo::mobilenet_v2(5, 64)] {
            // miss, then hit — all three must agree exactly
            let first = cached.evaluate_with_frozen(&arch, 2).unwrap();
            let second = cached.evaluate_with_frozen(&arch, 2).unwrap();
            let reference = plain.evaluate_with_frozen(&arch, 2).unwrap();
            assert_eq!(first, reference);
            assert_eq!(second, reference);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(cache.len(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frozen_block_count_is_part_of_the_key() {
        let cache = Arc::new(EvalCache::new());
        let mut cached = CachedEvaluator::surrogate(SurrogateEvaluator::default(), cache.clone());
        let arch = zoo::mobilenet_v2(5, 64);
        let frozen0 = cached.evaluate_with_frozen(&arch, 0).unwrap();
        let frozen5 = cached.evaluate_with_frozen(&arch, 5).unwrap();
        assert_ne!(frozen0.trained_params, frozen5.trained_params);
        assert_eq!(
            cache.stats().misses,
            2,
            "different frozen counts must not alias"
        );
    }

    #[test]
    fn different_surrogate_configs_do_not_alias() {
        let cache = Arc::new(EvalCache::new());
        let unbalanced = SurrogateEvaluator::default();
        let balanced = SurrogateEvaluator::new(SurrogateConfig {
            imbalance_ratio: 1.1,
            ..SurrogateConfig::default()
        });
        let arch = zoo::mobilenet_v2(5, 64);
        let mut a = CachedEvaluator::surrogate(unbalanced, cache.clone());
        let mut b = CachedEvaluator::surrogate(balanced, cache.clone());
        let from_a = a.evaluate_with_frozen(&arch, 0).unwrap();
        let from_b = b.evaluate_with_frozen(&arch, 0).unwrap();
        assert_ne!(from_a.report, from_b.report);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clones_share_cache_and_local_counters() {
        let cache = Arc::new(EvalCache::new());
        let original = CachedEvaluator::surrogate(SurrogateEvaluator::default(), cache);
        let mut clone = original.clone();
        let arch = zoo::paper_fahana_small(5, 64);
        clone.evaluate_with_frozen(&arch, 0).unwrap();
        clone.evaluate_with_frozen(&arch, 0).unwrap();
        assert_eq!(original.local_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(original.cache().len(), 1);
    }

    #[test]
    fn architecture_name_participates_in_the_key() {
        // the surrogate's noise depends on the name, so two structurally
        // equal children with different names are different cache entries
        let cache = Arc::new(EvalCache::new());
        let mut cached = CachedEvaluator::surrogate(SurrogateEvaluator::default(), cache.clone());
        let mut a = zoo::paper_fahana_small(5, 64);
        a.set_name("child-a");
        let mut b = zoo::paper_fahana_small(5, 64);
        b.set_name("child-b");
        cached.evaluate_with_frozen(&a, 0).unwrap();
        cached.evaluate_with_frozen(&b, 0).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalCache>();
        assert_send_sync::<CachedEvaluator<SurrogateEvaluator>>();
        assert_send_sync::<CacheStats>();
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = Arc::new(EvalCache::new());
        let archs: Vec<_> = (0..12)
            .map(|i| {
                let mut a = zoo::paper_fahana_small(5, 64);
                a.set_name(format!("concurrent-{i}"));
                a
            })
            .collect();
        let mut serial = SurrogateEvaluator::default();
        let expected: Vec<_> = archs
            .iter()
            .map(|a| serial.evaluate_with_frozen(a, 0).unwrap())
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                let archs = archs.clone();
                std::thread::spawn(move || {
                    let mut cached =
                        CachedEvaluator::surrogate(SurrogateEvaluator::default(), cache);
                    archs
                        .iter()
                        .map(|a| cached.evaluate_with_frozen(a, 0).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), expected);
        }
        assert_eq!(cache.len(), archs.len());
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * archs.len() as u64);
    }
}
