//! One retry discipline for every plane.
//!
//! Before this module each plane hand-rolled its own failure handling:
//! the steal plane re-armed on a flat interval, the fetch path fell
//! back to a reactive watcher poll, and driver striping had no failover
//! at all. A
//! [`RetryPolicy`] is the shared vocabulary: bounded attempts,
//! exponential backoff with a cap, *deterministic* jitter (seeded, so
//! two runs with the same seed sleep the same schedule), and an
//! optional overall deadline.
//!
//! The jitter is decorrelated-but-deterministic: the sleep for attempt
//! `k` is drawn from `[nominal/2, nominal]` where `nominal = base *
//! 2^k` (capped), using a splitmix64 hash of `(seed, k)`. Callers that
//! need reproducible cluster behaviour pass a seed derived from stable
//! identity (node id, object id) rather than wall-clock state.

use std::time::{Duration, Instant};

use crate::error::Result;

/// Bounded exponential backoff with deterministic jitter and an
/// optional deadline. `Default` gives 4 attempts starting at 500µs,
/// doubling to a 50ms cap, no deadline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Overall budget across all attempts and sleeps; `None` is
    /// unbounded (the attempt count still bounds the loop).
    pub deadline: Option<Duration>,
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
            deadline: None,
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
    /// A policy that never retries: one attempt, no sleeps.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            deadline: None,
            jitter: false,
        }
    }

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

    /// Run `op` until it succeeds, attempts are exhausted, or the
    /// deadline would be overrun by the next sleep. `op` receives the
    /// 0-based attempt number; the last error is returned verbatim.
    pub fn run<T>(&self, seed: u64, mut op: impl FnMut(u32) -> Result<T>) -> Result<T> {
        let started = Instant::now();
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(err) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(err);
                    }
                    let pause = self.backoff(attempt - 1, seed);
                    if let Some(deadline) = self.deadline {
                        if started.elapsed() + pause >= deadline {
                            return Err(err);
                        }
                    }
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            deadline: None,
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

    #[test]
    fn run_retries_until_success() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
            deadline: None,
            jitter: true,
        };
        let mut calls = 0;
        let out = p.run(7, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(Error::Timeout)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_returns_last_error_when_exhausted() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(20),
            deadline: None,
            jitter: false,
        };
        let mut calls = 0;
        let out: Result<()> = p.run(0, |_| {
            calls += 1;
            Err(Error::Timeout)
        });
        assert!(matches!(out, Err(Error::Timeout)));
        assert_eq!(calls, 3);
    }

    #[test]
    fn disabled_policy_is_single_shot() {
        let p = RetryPolicy::disabled();
        let mut calls = 0;
        let out: Result<()> = p.run(0, |_| {
            calls += 1;
            Err(Error::Timeout)
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn deadline_stops_the_loop_early() {
        let p = RetryPolicy {
            max_attempts: 100,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(5),
            deadline: Some(Duration::from_millis(12)),
            jitter: false,
        };
        let mut calls = 0;
        let out: Result<()> = p.run(0, |_| {
            calls += 1;
            Err(Error::Timeout)
        });
        assert!(out.is_err());
        assert!(calls < 10, "deadline should cut the loop well short");
    }
}
