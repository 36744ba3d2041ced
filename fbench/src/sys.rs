//! Process accounting read from `/proc`, plus the order statistics every
//! workload reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn read_proc(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The benchmark's clock. Wall-clock reads are what a benchmark is for;
/// the program under test never sees them.
pub fn now() -> Instant {
    // fahana-lint: allow(wall-clock) the benchmark measures elapsed time; nothing it times reads the clock
    Instant::now()
}

/// On-CPU nanoseconds of the first field of a `schedstat` file.
fn schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// On-CPU time of every live thread of the process, by thread id.
#[derive(Debug, Clone)]
pub struct CpuSnapshot(BTreeMap<u64, u64>);

impl CpuSnapshot {
    pub fn take() -> Result<CpuSnapshot, String> {
        let tasks = std::fs::read_dir("/proc/self/task")
            .map_err(|e| format!("cannot list /proc/self/task: {e}"))?;
        let mut threads = BTreeMap::new();
        for task in tasks.flatten() {
            let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
                continue;
            };
            // a thread may exit between the listing and the read
            if let Some(ns) = std::fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .as_deref()
                .and_then(schedstat_ns)
            {
                threads.insert(tid, ns);
            }
        }
        Ok(CpuSnapshot(threads))
    }

    /// CPU seconds every thread alive now spent since `self` was taken
    /// (user + system, nanosecond resolution). Threads that exited in
    /// between are not counted, so take both snapshots while the
    /// measured threads are alive.
    pub fn seconds_since(&self) -> Result<f64, String> {
        let now = CpuSnapshot::take()?;
        let ns: u64 = now
            .0
            .iter()
            .map(|(tid, ns)| ns.saturating_sub(self.0.get(tid).copied().unwrap_or(0)))
            .sum();
        Ok(ns as f64 / 1e9)
    }
}

/// CPU time of the calling thread, in seconds (nanosecond resolution).
pub fn thread_cpu_s() -> Result<f64, String> {
    schedstat_ns(&read_proc("/proc/thread-self/schedstat")?)
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| "malformed /proc/thread-self/schedstat".to_string())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read_proc("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Bytes the process has read through `read(2)`-family calls (`rchar`).
pub fn read_chars() -> Result<u64, String> {
    let io = read_proc("/proc/self/io")?;
    io.lines()
        .find_map(|line| line.strip_prefix("rchar:"))
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| "no rchar in /proc/self/io".to_string())
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A sample set summarised by nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`); 0 for an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = (q * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean; 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The deep tail: the highest of a fixed ladder of percentiles that
    /// still has at least ten samples beyond it, as `(percentile, value)`.
    pub fn tail(&mut self) -> (f64, f64) {
        let n = self.values.len();
        let pct = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
            .into_iter()
            .find(|pct| {
                let rank = (pct / 100.0 * n as f64).ceil() as usize;
                n.saturating_sub(rank) >= 10
            })
            .unwrap_or(50.0);
        (pct, self.quantile(pct / 100.0))
    }
}

/// A tiny deterministic generator (SplitMix64) for seeded schedules.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(1.0), 100.0);
        // 100 samples: p90 is the highest rung with ten beyond it
        assert_eq!(s.tail(), (90.0, 90.0));
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn proc_readings_are_available() {
        let before = CpuSnapshot::take().unwrap();
        let spin = now();
        while spin.elapsed() < Duration::from_millis(20) {
            std::hint::black_box(0u64);
        }
        assert!(before.seconds_since().unwrap() > 0.01);
        assert!(thread_cpu_s().unwrap() > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(read_chars().is_ok());
    }
}
