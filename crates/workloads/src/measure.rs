//! Timing and summary-statistics helpers.

use std::time::Instant;

/// Summary statistics over per-iteration samples (nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median.
    pub median_ns: f64,
    /// Minimum.
    pub min_ns: u64,
    /// Maximum.
    pub max_ns: u64,
    /// Half-width of a 95% confidence interval on the mean.
    pub ci95_ns: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes raw samples.
    pub fn from_samples(mut samples: Vec<u64>) -> Summary {
        assert!(!samples.is_empty());
        samples.sort_unstable();
        let n = samples.len();
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        let mean = sum as f64 / n as f64;
        let median = if n % 2 == 1 {
            samples[n / 2] as f64
        } else {
            (samples[n / 2 - 1] as f64 + samples[n / 2] as f64) / 2.0
        };
        let var = samples
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n.max(2) - 1) as f64;
        let ci95 = 1.96 * (var / n as f64).sqrt();
        Summary {
            mean_ns: mean,
            median_ns: median,
            min_ns: samples[0],
            max_ns: samples[n - 1],
            ci95_ns: ci95,
            n,
        }
    }
}

/// Times one closure invocation in nanoseconds.
pub fn time_ns(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// Measures the per-operation latency of `op` by running `iters`
/// iterations in `batches` batches, returning per-op summaries.
pub fn latency_ns(batches: usize, iters_per_batch: usize, mut op: impl FnMut()) -> Summary {
    let mut samples = Vec::with_capacity(batches);
    // One warmup batch outside measurement.
    for _ in 0..iters_per_batch.min(64) {
        op();
    }
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..iters_per_batch {
            op();
        }
        samples.push(t0.elapsed().as_nanos() as u64 / iters_per_batch.max(1) as u128 as u64);
    }
    Summary::from_samples(samples)
}

/// Runs `op` repeatedly for roughly `duration_ms`, returning ops/sec.
pub fn ops_per_sec(duration_ms: u64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let budget = std::time::Duration::from_millis(duration_ms);
    let mut ops = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..32 {
            op();
        }
        ops += 32;
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_math() {
        let s = Summary::from_samples(vec![10, 20, 30, 40]);
        assert_eq!(s.mean_ns, 25.0);
        assert_eq!(s.median_ns, 25.0);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 40);
        assert_eq!(s.n, 4);
        let odd = Summary::from_samples(vec![3, 1, 2]);
        assert_eq!(odd.median_ns, 2.0);
    }

    #[test]
    fn latency_measures_something() {
        let mut x = 0u64;
        let s = latency_ns(5, 100, || {
            x = x.wrapping_add(1);
        });
        assert!(s.mean_ns < 1_000_000.0);
        assert!(x > 0);
    }

    #[test]
    fn ops_per_sec_positive() {
        let rate = ops_per_sec(10, || {
            std::hint::black_box(1 + 1);
        });
        assert!(rate > 0.0);
    }
}
