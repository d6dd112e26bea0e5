//! Summary statistics shared by every workload: seeded input streams,
//! nearest-rank percentiles under the "at least ten samples beyond"
//! rule, and differences of `lds-obs` snapshots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lds_obs::{HistogramSnapshot, MetricsSnapshot};

/// SplitMix64 finalizer: the benchmark's only source of input
/// randomness, so the same `--seed` always yields the same inputs.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `i`-th input of the stream `tag` derived from the run seed.
/// Streams with different tags never share a value in practice, which
/// keeps e.g. fresh wire seeds disjoint from the hot set.
pub fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    mix(mix(seed ^ mix(tag)).wrapping_add(i))
}

/// Percentiles a tail metric may be reported at, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that lie strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest-rank index of the `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] that is at most `target` and
/// leaves at least ten samples beyond it. `None` when even the median
/// is not supported (fewer than 20 samples).
pub fn tail_percentile(n: usize, target: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= target)
        .find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail of `samples` at the highest percentile that is at most
/// `target` and has ten samples beyond it (the median when none has).
pub fn supported_tail(samples: &[f64], target: f64) -> f64 {
    percentile(
        samples,
        tail_percentile(samples.len(), target).unwrap_or(50.0),
    )
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean, or 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `after − before` for a process counter (0 when absent).
pub fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// The observations a histogram gained between two snapshots, bucket
/// by bucket (buckets are identified by their representative value).
pub fn histogram_delta(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let empty = HistogramSnapshot::default();
    let a = after.histogram(name).unwrap_or(&empty);
    let b = before.histogram(name).unwrap_or(&empty);
    let buckets: Vec<(u64, u64)> = a
        .buckets
        .iter()
        .map(|&(value, n)| {
            let old = b
                .buckets
                .iter()
                .find(|&&(v, _)| v == value)
                .map_or(0, |&(_, m)| m);
            (value, n.saturating_sub(old))
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        count: buckets.iter().map(|&(_, n)| n).sum(),
        sum: a.sum.saturating_sub(b.sum),
        max: a.max,
        buckets,
    }
}

/// Resident set size of this process in MiB (`VmRSS`).
fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

/// Samples the resident set size on a thread of its own, every
/// `RSS_PERIOD`, from `start` until `median_mb`. The median of the
/// samples is steadier than the peak, which allocator churn moves by
/// megabytes from run to run.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<Vec<f64>, String>>,
}

const RSS_PERIOD: Duration = Duration::from_millis(100);

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = vec![rss_mb()?];
            while !flag.load(Ordering::Acquire) {
                std::thread::park_timeout(RSS_PERIOD);
                samples.push(rss_mb()?);
            }
            Ok(samples)
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling and returns the median sample.
    pub fn median_mb(self) -> Result<f64, String> {
        self.stop.store(true, Ordering::Release);
        self.handle.thread().unpark();
        let samples = self
            .handle
            .join()
            .map_err(|_| "RSS sampler panicked".to_string())??;
        Ok(median(&samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.9), Some(99.0));
        // 999 samples: p99 leaves 9, so the rule falls back to p95
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.9), Some(95.0));
        // a target caps the choice even when more is supported
        assert_eq!(tail_percentile(100_000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        // too few for even the median
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn supported_tail_falls_back_to_what_the_samples_support() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v, 99.0), 990.0);
        // 999 samples leave only 9 beyond p99: p95 is reported instead
        assert_eq!(supported_tail(&v[..999], 99.0), 950.0);
        assert_eq!(supported_tail(&v[..10], 99.0), 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn rss_sampler_reports_a_plausible_size() {
        let sampler = RssSampler::start();
        std::thread::sleep(Duration::from_millis(250));
        let mb = sampler.median_mb().unwrap();
        assert!(mb > 0.1 && mb < 1024.0, "{mb}");
    }

    #[test]
    fn derived_streams_repeat_and_differ() {
        assert_eq!(derive(7, 1, 3), derive(7, 1, 3));
        assert_ne!(derive(7, 1, 3), derive(7, 2, 3));
        assert_ne!(derive(7, 1, 3), derive(8, 1, 3));
    }

    #[test]
    fn histogram_delta_subtracts_bucketwise() {
        let snap = |buckets: Vec<(u64, u64)>, sum| MetricsSnapshot {
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: buckets.iter().map(|&(_, n)| n).sum(),
                    sum,
                    max: 0,
                    buckets,
                },
            )],
            ..MetricsSnapshot::default()
        };
        let before = snap(vec![(10, 5), (20, 1)], 70);
        let after = snap(vec![(10, 5), (20, 4), (40, 2)], 210);
        let d = histogram_delta(&after, &before, "h");
        assert_eq!(d.buckets, vec![(20, 3), (40, 2)]);
        assert_eq!(d.count, 5);
        assert_eq!(d.sum, 140);
        assert_eq!(d.quantile(0.5), 20);
    }
}
