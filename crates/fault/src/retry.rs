//! Bounded exponential-backoff schedule for transient I/O errors.
//!
//! The page cache consults this policy when a device access fails with
//! a *transient* error: it retries up to `max_attempts` total attempts,
//! sleeping (in simulated time) an exponentially growing interval
//! between them. Permanent errors are never retried.

/// Retry schedule: attempt `i` (0-based) is followed, if it fails
/// transiently, by a backoff of `base_ns * multiplier^i`, capped at
/// `max_backoff_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: u32,
    /// Backoff after the first failed attempt.
    pub base_ns: u64,
    /// Growth factor between consecutive backoffs.
    pub multiplier: u32,
    /// Upper bound on any single backoff interval.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::STANDARD
    }
}

impl RetryPolicy {
    /// 4 attempts with 10 µs / 40 µs / 160 µs backoffs: deep enough to
    /// outlast the standard campaign's transient bursts (≤ 3 failures
    /// per block), shallow enough that a permanently broken block
    /// surfaces as `EIO` in well under a millisecond of simulated time.
    pub const STANDARD: RetryPolicy = RetryPolicy {
        max_attempts: 4,
        base_ns: 10_000,
        multiplier: 4,
        max_backoff_ns: 1_000_000,
    };

    /// A policy that never retries: every transient error propagates
    /// immediately, as if the fault were permanent.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff to charge after failed attempt `attempt` (0-based).
    /// Saturates rather than overflowing for absurd attempt counts.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let factor = (self.multiplier as u64).saturating_pow(attempt);
        self.base_ns.saturating_mul(factor).min(self.max_backoff_ns)
    }

    /// Total simulated time an access can spend backing off before the
    /// policy gives up — the "backoff budget" the campaign asserts
    /// transient recoveries stay within.
    pub fn total_backoff_budget_ns(&self) -> u64 {
        // A saturated sum cannot grow: stop there rather than fold the
        // remaining (up to 2^32) terms.
        (0..self.max_attempts.saturating_sub(1))
            .try_fold(0u64, |sum, i| sum.checked_add(self.backoff_ns(i)))
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(0), 10_000);
        assert_eq!(p.backoff_ns(1), 40_000);
        assert_eq!(p.backoff_ns(2), 160_000);
        assert_eq!(p.total_backoff_budget_ns(), 210_000);
    }

    #[test]
    fn backoff_is_capped() {
        let p = RetryPolicy {
            max_attempts: 20,
            base_ns: 1_000,
            multiplier: 10,
            max_backoff_ns: 50_000,
        };
        assert_eq!(p.backoff_ns(0), 1_000);
        assert_eq!(p.backoff_ns(1), 10_000);
        assert_eq!(p.backoff_ns(2), 50_000);
        assert_eq!(p.backoff_ns(19), 50_000);
    }

    #[test]
    fn no_retries_has_zero_budget() {
        let p = RetryPolicy::no_retries();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.total_backoff_budget_ns(), 0);
    }

    #[test]
    fn huge_attempt_counts_saturate() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_ns: u64::MAX,
            multiplier: u32::MAX,
            max_backoff_ns: u64::MAX,
        };
        assert_eq!(p.backoff_ns(u32::MAX - 1), u64::MAX);
        assert_eq!(p.total_backoff_budget_ns(), u64::MAX);
    }
}
