//! A std-only work-stealing thread pool with a helping `map`.
//!
//! Design constraints, in order:
//!
//! 1. **No external dependencies** — the build environment has no registry
//!    access, so no rayon/crossbeam. Everything here is `std`.
//! 2. **Nested parallelism must not deadlock.** A job running on the pool
//!    may itself call `map` on the *same* pool (a nested fan-out).
//!    [`ThreadPool::map`] therefore never blocks idly: the
//!    calling thread joins the workforce and executes queued jobs (its own
//!    or anyone else's) until its batch completes.
//! 3. **Deterministic results.** Jobs write into index-addressed slots, so
//!    scheduling order never changes what `map` returns.
//!
//! Topology: one injector queue plus one deque per worker. `map` deals its
//! jobs round-robin across the worker deques; a worker pops its own deque
//! from the back (LIFO, cache-warm) and steals from the injector or other
//! workers' fronts (FIFO, oldest first) when empty.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queues: Vec<Mutex<VecDeque<Job>>>,
    injector: Mutex<VecDeque<Job>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Jobs a worker popped off its *own* deque (cache-warm path).
    local_pops: AtomicU64,
    /// Jobs taken from the shared injector queue.
    injector_pops: AtomicU64,
    /// Jobs stolen from another worker's deque.
    steals: AtomicU64,
}

impl PoolState {
    /// Pops one runnable job: the worker's own deque first (LIFO), then the
    /// injector, then the other workers' deques (FIFO steal).
    fn pop_any(&self, own: Option<usize>) -> Option<Job> {
        if let Some(me) = own {
            if let Some(job) = self.queues[me].lock().expect("queue poisoned").pop_back() {
                self.local_pops.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().expect("injector poisoned").pop_front() {
            self.injector_pops.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        let n = self.queues.len();
        let start = own.map(|me| me + 1).unwrap_or(0);
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(job) = self.queues[victim]
                .lock()
                .expect("queue poisoned")
                .pop_front()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Jobs currently queued (all worker deques plus the injector) —
    /// the pool's live backlog, exported as a gauge.
    fn queue_depth(&self) -> usize {
        let queued: usize = self
            .queues
            .iter()
            .map(|queue| queue.lock().expect("queue poisoned").len())
            .sum();
        queued + self.injector.lock().expect("injector poisoned").len()
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.queues.len(),
            local_pops: self.local_pops.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the pool's scheduling counters.
///
/// `local_pops + injector_pops + steals` is the total number of jobs the
/// pool has executed; the steal share shows how often work had to migrate
/// off the deque it was dealt to (high steal ratios mean uneven job
/// costs — exactly what scenario grids with mixed device profiles
/// produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker thread count.
    pub threads: usize,
    /// Jobs a worker popped from its own deque.
    pub local_pops: u64,
    /// Jobs taken from the shared injector queue.
    pub injector_pops: u64,
    /// Jobs stolen from another worker's deque.
    pub steals: u64,
}

impl PoolStats {
    /// Total jobs executed through any path.
    pub fn executed(&self) -> u64 {
        self.local_pops + self.injector_pops + self.steals
    }
}

/// A cheap, cloneable observer of a pool's counters and live queue depth.
///
/// Holds only the shared state (not the worker handles), so a monitor in
/// a long-lived context — a serve connection, a metrics scrape — never
/// keeps the pool alive or risks a worker joining itself through an
/// `Arc<ThreadPool>` drop.
#[derive(Debug, Clone)]
pub struct PoolMonitor {
    state: Arc<PoolState>,
}

impl PoolMonitor {
    /// Current scheduling counters.
    pub fn stats(&self) -> PoolStats {
        self.state.stats()
    }

    /// Jobs currently queued and not yet started.
    pub fn queue_depth(&self) -> usize {
        self.state.queue_depth()
    }
}

/// A fixed-size work-stealing thread pool.
///
/// # Example
///
/// ```
/// use fahana_runtime::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.map((0..100u64).collect(), |_, n| n * n);
/// assert_eq!(squares[7], 49);
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    state: Arc<PoolState>,
    workers: Vec<JoinHandle<()>>,
    next_queue: AtomicUsize,
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("workers", &self.queues.len())
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(PoolState {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            local_pops: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|me| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("fahana-worker-{me}"))
                    .spawn(move || Self::worker_loop(&state, me))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        ThreadPool {
            state,
            workers,
            next_queue: AtomicUsize::new(0),
        }
    }

    /// A pool sized to the machine (`available_parallelism`, at least 2).
    pub fn with_default_size() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2);
        ThreadPool::new(threads)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.state.queues.len()
    }

    /// A snapshot of the pool's scheduling counters.
    pub fn stats(&self) -> PoolStats {
        self.state.stats()
    }

    /// Jobs currently queued and not yet started.
    pub fn queue_depth(&self) -> usize {
        self.state.queue_depth()
    }

    /// A detached observer of this pool's counters (safe to hold in
    /// contexts that must not own the pool itself).
    pub fn monitor(&self) -> PoolMonitor {
        PoolMonitor {
            state: Arc::clone(&self.state),
        }
    }

    fn worker_loop(state: &PoolState, me: usize) {
        loop {
            if let Some(job) = state.pop_any(Some(me)) {
                // a panicking job must not kill the worker; map() re-raises
                // panics on the submitting thread
                let _ = catch_unwind(AssertUnwindSafe(job));
                continue;
            }
            if state.shutdown.load(Ordering::Acquire) {
                return;
            }
            let guard = state.sleep.lock().expect("sleep lock poisoned");
            // timed wait: a notification racing ahead of this wait only
            // costs one timeout, never a hang
            let _ = state
                .wake
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("sleep lock poisoned");
        }
    }

    /// Enqueues a fire-and-forget job.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.state
            .injector
            .lock()
            .expect("injector poisoned")
            .push_back(Box::new(job));
        self.state.wake.notify_all();
    }

    /// Applies `f` to every item concurrently and returns the results in
    /// item order.
    ///
    /// The calling thread helps drain the pool while it waits, so `map` may
    /// be invoked from inside a pool job (nested fan-out) without
    /// deadlocking. If `f` panics for any item, the panic is re-raised here
    /// after the whole batch has settled.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let results: Arc<Mutex<Vec<Option<std::thread::Result<R>>>>> =
            Arc::new(Mutex::new((0..total).map(|_| None).collect()));
        let pending = Arc::new(AtomicUsize::new(total));

        for (index, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let results = Arc::clone(&results);
            let pending = Arc::clone(&pending);
            let job: Job = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| f(index, item)));
                results.lock().expect("result slots poisoned")[index] = Some(outcome);
                pending.fetch_sub(1, Ordering::AcqRel);
            });
            let queue = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.threads();
            self.state.queues[queue]
                .lock()
                .expect("queue poisoned")
                .push_back(job);
        }
        self.state.wake.notify_all();

        // helping join: work instead of waiting
        while pending.load(Ordering::Acquire) > 0 {
            match self.state.pop_any(None) {
                Some(job) => {
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
                None => std::thread::sleep(Duration::from_micros(50)),
            }
        }

        let mut slots = results.lock().expect("result slots poisoned");
        slots
            .iter_mut()
            .map(|slot| match slot.take().expect("every slot is filled") {
                Ok(value) => value,
                Err(panic) => resume_unwind(panic),
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn map_preserves_item_order() {
        let pool = ThreadPool::new(4);
        let doubled = pool.map((0..256u64).collect(), |_, n| n * 2);
        assert_eq!(doubled.len(), 256);
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn map_runs_on_multiple_threads() {
        let pool = ThreadPool::new(4);
        let names = pool.map((0..64).collect::<Vec<u32>>(), |_, _| {
            std::thread::sleep(Duration::from_millis(2));
            std::thread::current()
                .name()
                .unwrap_or("caller")
                .to_string()
        });
        let distinct: HashSet<&String> = names.iter().collect();
        assert!(
            distinct.len() >= 2,
            "64 sleepy jobs should spread over >1 thread, saw {distinct:?}"
        );
    }

    #[test]
    fn nested_map_does_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        let inner_pool = Arc::clone(&pool);
        // more outer jobs than workers, each fanning out again on the pool
        let sums = pool.map((0..8u64).collect(), move |_, outer| {
            inner_pool
                .map((0..16u64).collect(), move |_, inner| outer * inner)
                .into_iter()
                .sum::<u64>()
        });
        for (outer, sum) in sums.iter().enumerate() {
            assert_eq!(*sum, outer as u64 * (0..16).sum::<u64>());
        }
    }

    #[test]
    fn map_propagates_panics_without_poisoning_the_pool() {
        let pool = ThreadPool::new(2);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..8u32).collect(), |_, n| {
                if n == 3 {
                    panic!("job 3 exploded");
                }
                n
            })
        }));
        assert!(panicked.is_err());
        // the pool is still operational afterwards
        let ok = pool.map((0..8u32).collect(), |_, n| n + 1);
        assert_eq!(ok[7], 8);
    }

    #[test]
    fn spawn_executes_fire_and_forget_jobs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::Relaxed) < 32 {
            assert!(std::time::Instant::now() < deadline, "spawned jobs stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn stats_account_for_every_executed_job() {
        let pool = ThreadPool::new(3);
        let monitor = pool.monitor();
        assert_eq!(monitor.stats(), PoolStats::default().with_threads(3));

        pool.map((0..128u64).collect(), |_, n| {
            if n % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200)); // uneven costs invite steals
            }
            n
        });
        let stats = monitor.stats();
        assert_eq!(stats.threads, 3);
        assert_eq!(
            stats.executed(),
            128,
            "every dealt job pops exactly once: {stats:?}"
        );
        // with the batch drained, nothing is left queued
        assert_eq!(monitor.queue_depth(), 0);

        // spawned jobs go through the injector
        let before = monitor.stats().injector_pops;
        let done = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&done);
        pool.spawn(move || {
            flag.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "spawned job stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(monitor.stats().injector_pops > before);
    }

    impl PoolStats {
        fn with_threads(mut self, threads: usize) -> PoolStats {
            self.threads = threads;
            self
        }
    }

    #[test]
    fn zero_threads_clamps_to_one_and_empty_map_returns_immediately() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let empty: Vec<u8> = pool.map(Vec::<u8>::new(), |_, b| b);
        assert!(empty.is_empty());
    }
}
