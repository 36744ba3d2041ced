//! A std-only thread pool: one job queue, one condvar, and a helping `map`.
//!
//! Design constraints, in order:
//!
//! 1. **No external dependencies** — the build environment has no registry
//!    access, so no rayon/crossbeam. Everything here is `std`.
//! 2. **Nested parallelism must not deadlock.** A job running on the pool
//!    may itself call `map` on the *same* pool (a nested fan-out).
//!    [`ThreadPool::map`] therefore never blocks while work is queued: the
//!    calling thread joins the workforce and executes queued jobs (its own
//!    or anyone else's) until its batch completes.
//! 3. **Deterministic results.** Jobs write into index-addressed slots, so
//!    scheduling order never changes what `map` returns.
//!
//! **Job order.** Every job sits in one deque. `map` pushes its batch at
//! the back and `spawn` pushes at the front; workers pop the back and a
//! helping `map` caller pops the front. So a worker takes the *newest* job
//! of a batch, the caller the *oldest*, and spawned jobs run oldest first.
//! This is the order the earlier work-stealing pool had (workers popped
//! their own deques from the back, the caller stole from the fronts,
//! spawned jobs went through a FIFO injector), and the campaign grid's
//! balance depends on it. On fbench's `campaign` workload (one worker
//! plus the helping caller), letting both sides take the oldest job
//! dropped `ops_per_s` from 6.6k to 6.0k and raised `op3_p50_ms` from 48
//! to 53 ms (3 run pairs); letting workers take the oldest and the caller
//! the newest raised the median `setup_s` from 10.0 to 12.5 µs (12 runs
//! per side).
//!
//! **Waiting.** Idle workers and a helping caller with nothing to take
//! block in `Condvar::wait` on the queue lock. Every event a waiter
//! checks for — a job pushed, a batch finished, shutdown — is published
//! under that lock before the condvar is notified, so no wakeup is lost.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::telemetry::MetricsRegistry;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Everything guarded by the queue lock.
#[derive(Default)]
struct Queue {
    /// Spawned jobs at the front (newest first), `map` batches at the back
    /// (newest last).
    jobs: VecDeque<Job>,
    /// Jobs taken off `jobs` so far.
    executed: u64,
    shutdown: bool,
}

impl Queue {
    /// Takes the next job — from the back for a worker, from the front for
    /// a helping `map` caller — and counts it.
    fn take(&mut self, front: bool) -> Option<Job> {
        let job = if front {
            self.jobs.pop_front()
        } else {
            self.jobs.pop_back()
        }?;
        self.executed += 1;
        Some(job)
    }
}

struct PoolState {
    queue: Mutex<Queue>,
    ready: Condvar,
    threads: usize,
}

impl PoolState {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // jobs run outside the lock (and under catch_unwind), so nothing
        // can panic while holding it
        self.queue.lock().expect("pool queue poisoned")
    }

    fn wait<'a>(&self, queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        self.ready.wait(queue).expect("pool queue poisoned")
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            executed: self.lock().executed,
        }
    }

    fn queue_depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("threads", &self.threads)
            .finish()
    }
}

/// A snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker thread count.
    pub threads: usize,
    /// Jobs executed so far, by workers and helping `map` callers alike.
    pub executed: u64,
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
    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        self.state.stats()
    }

    /// Jobs currently queued and not yet started.
    pub fn queue_depth(&self) -> usize {
        self.state.queue_depth()
    }

    /// Writes the pool's metrics into `metrics`: `fahana_pool_jobs_total`,
    /// `fahana_pool_threads` and `fahana_pool_queue_depth`.
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        let stats = self.stats();
        metrics
            .counter("fahana_pool_jobs_total", "pool jobs executed")
            .set(stats.executed);
        metrics
            .gauge("fahana_pool_threads", "pool worker threads")
            .set(stats.threads as i64);
        metrics
            .gauge("fahana_pool_queue_depth", "jobs queued and not yet started")
            .set(self.queue_depth() as i64);
    }
}

/// A fixed-size thread pool with one shared job queue.
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
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(PoolState {
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            threads,
        });
        let workers = (0..threads)
            .map(|me| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("fahana-worker-{me}"))
                    .spawn(move || Self::worker_loop(&state))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        ThreadPool { state, workers }
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
        self.state.threads
    }

    /// A snapshot of the pool's counters.
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

    /// Runs jobs until shutdown; queued jobs are drained before exiting.
    fn worker_loop(state: &PoolState) {
        let mut queue = state.lock();
        loop {
            if let Some(job) = queue.take(false) {
                drop(queue);
                // a panicking job must not kill the worker; map() re-raises
                // panics on the submitting thread
                let _ = catch_unwind(AssertUnwindSafe(job));
                queue = state.lock();
            } else if queue.shutdown {
                return;
            } else {
                queue = state.wait(queue);
            }
        }
    }

    /// Enqueues a fire-and-forget job. Spawned jobs run oldest first.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        self.state.lock().jobs.push_front(job);
        // one waiter suffices: every waiter takes a queued job when it
        // wakes, except a `map` caller whose batch just finished — and the
        // job that finished it notified every waiter
        self.state.ready.notify_one();
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

        let jobs: Vec<Job> = items
            .into_iter()
            .enumerate()
            .map(|(index, item)| {
                let f = Arc::clone(&f);
                let results = Arc::clone(&results);
                let pending = Arc::clone(&pending);
                let state = Arc::clone(&self.state);
                Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(index, item)));
                    results.lock().expect("result slots poisoned")[index] = Some(outcome);
                    if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // the caller reads `pending` under the queue lock
                        // before it waits, so notifying under that lock
                        // cannot slip between its check and its wait
                        let _queue = state.lock();
                        state.ready.notify_all();
                    }
                }) as Job
            })
            .collect();
        self.state.lock().jobs.extend(jobs);
        self.state.ready.notify_all();

        // helping join: work instead of waiting while anything is queued
        let mut queue = self.state.lock();
        while pending.load(Ordering::Acquire) > 0 {
            match queue.take(true) {
                Some(job) => {
                    drop(queue);
                    let _ = catch_unwind(AssertUnwindSafe(job));
                    queue = self.state.lock();
                }
                None => queue = self.state.wait(queue),
            }
        }
        drop(queue);

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
        self.state.lock().shutdown = true;
        self.state.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

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
    fn spawned_jobs_run_in_submission_order() {
        let pool = ThreadPool::new(1);
        // park the only worker behind a gate so the next five queue up
        let (started, gate_started) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        pool.spawn(move || {
            started.send(()).unwrap();
            gate.recv().unwrap();
        });
        gate_started.recv().unwrap();
        let (ran, order) = mpsc::channel();
        for job in 0..5 {
            let ran = ran.clone();
            pool.spawn(move || ran.send(job).unwrap());
        }
        release.send(()).unwrap();
        let seen: Vec<i32> = (0..5).map(|_| order.recv().unwrap()).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn map_worker_takes_the_newest_job_and_the_caller_the_oldest() {
        const N: usize = 8;
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        // each thread's first item waits until the other thread has taken
        // one too, so both runners take part however the OS schedules them
        let meet = Arc::new(Barrier::new(2));
        let firsts = Arc::new(Mutex::new(HashMap::new()));
        let recorded = Arc::clone(&firsts);
        pool.map((0..N).collect(), move |_, item| {
            let me = std::thread::current().id();
            let first = {
                let mut firsts = recorded.lock().unwrap();
                let first = !firsts.contains_key(&me);
                if first {
                    firsts.insert(me, item);
                }
                first
            };
            if first {
                meet.wait();
            }
        });
        let firsts = firsts.lock().unwrap();
        assert_eq!(firsts.len(), 2, "{firsts:?}");
        assert_eq!(firsts[&caller], 0, "the caller takes the oldest job");
        let worker = firsts
            .iter()
            .find(|(id, _)| **id != caller)
            .map(|(_, item)| *item);
        assert_eq!(worker, Some(N - 1), "the worker takes the newest job");
    }

    #[test]
    fn stats_account_for_every_executed_job() {
        let pool = ThreadPool::new(3);
        let monitor = pool.monitor();
        let idle = PoolStats {
            threads: 3,
            executed: 0,
        };
        assert_eq!(monitor.stats(), idle);

        pool.map((0..128u64).collect(), |_, n| n);
        assert_eq!(
            monitor.stats(),
            PoolStats {
                threads: 3,
                executed: 128
            },
            "every queued job is taken exactly once"
        );
        // with the batch drained, nothing is left queued
        assert_eq!(monitor.queue_depth(), 0);

        // spawned jobs count too
        let (done, finished) = mpsc::channel();
        pool.spawn(move || done.send(()).unwrap());
        finished.recv().unwrap();
        assert_eq!(monitor.stats().executed, 129);

        let metrics = MetricsRegistry::new();
        monitor.export_metrics(&metrics);
        let text = metrics.render_prometheus();
        for line in [
            "fahana_pool_jobs_total 129",
            "fahana_pool_threads 3",
            "fahana_pool_queue_depth 0",
        ] {
            assert!(text.contains(line), "{line} missing:\n{text}");
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
