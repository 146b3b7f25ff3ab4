//! One retry discipline for every plane.
//!
//! A [`RetryPolicy`] is the shared vocabulary: bounded attempts, and
//! exponential backoff with a cap and *deterministic* jitter (seeded, so
//! two runs with the same seed sleep the same schedule). No plane may
//! block in a retry sleep, so each runs its own loop and asks the policy
//! how many attempts it has and how long to back off.
//!
//! There is one policy, `RetryPolicy::default()`, and no knob that
//! swaps it. Its readers: the resolver's holder sweep (`max_attempts`
//! holders before the producer is force-replayed) and driver stripe
//! failover (`max_attempts` stripe targets). Nothing sleeps on
//! [`RetryPolicy::backoff`] today; it is the schedule a loop that
//! re-arms after failures would pace itself by.
//!
//! The jitter is decorrelated-but-deterministic: the sleep for attempt
//! `k` is drawn from `[nominal/2, nominal]` where `nominal = base *
//! 2^k` (capped), using a splitmix64 hash of `(seed, k)`. Callers that
//! need reproducible cluster behaviour pass a seed derived from stable
//! identity (node id, object id) rather than wall-clock state.

use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter. `Default`
/// gives 4 attempts starting at 500µs, doubling to a 50ms cap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Spread sleeps over `[nominal/2, nominal]` deterministically
    /// from the caller's seed; `false` sleeps exactly `nominal`.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_micros(500),
            cap: Duration::from_millis(50),
            jitter: true,
        }
    }
}

/// splitmix64: a full-avalanche mix so consecutive attempt numbers
/// produce uncorrelated jitter draws.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based: 0 is the
    /// sleep after the first failure). Exponential in `attempt`,
    /// capped, jittered into `[nominal/2, nominal]` by a hash of
    /// `(seed, attempt)` so the schedule is reproducible.
    pub fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let doubled = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX));
        let nominal = doubled.min(self.cap).max(self.base.min(self.cap));
        if !self.jitter || nominal.is_zero() {
            return nominal;
        }
        let nanos = nominal.as_nanos() as u64;
        let draw = mix(seed ^ ((attempt as u64) << 32)) % 1024;
        Duration::from_nanos(nanos / 2 + (nanos / 2 / 1024) * draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            jitter: false,
        };
        assert_eq!(p.backoff(0, 0), Duration::from_millis(1));
        assert_eq!(p.backoff(1, 0), Duration::from_millis(2));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(4));
        assert_eq!(p.backoff(3, 0), Duration::from_millis(8));
        assert_eq!(p.backoff(7, 0), Duration::from_millis(8));
        assert_eq!(p.backoff(31, 0), Duration::from_millis(8));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..6 {
            let a = p.backoff(attempt, 42);
            let b = p.backoff(attempt, 42);
            assert_eq!(a, b, "same seed must give the same sleep");
            let nominal = p
                .base
                .saturating_mul(1 << attempt.min(31))
                .min(p.cap)
                .max(p.base);
            assert!(a >= nominal / 2 && a <= nominal, "jitter out of range");
        }
        // Different seeds should (for this pair) draw different sleeps.
        assert_ne!(p.backoff(0, 1), p.backoff(0, 2));
    }
}
