//! Latency models for the simulated fabric.

use std::time::Duration;

/// How long a cross-node message takes to propagate (excluding the
/// bandwidth term).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum LatencyModel {
    /// Instant delivery (still asynchronous, but no added delay).
    #[default]
    Zero,
    /// Every cross-node message takes exactly this long.
    Constant(Duration),
    /// Uniformly-distributed latency in `[min, max]`, driven by a
    /// deterministic per-fabric RNG (reproducible runs).
    Uniform(Duration, Duration),
}

impl LatencyModel {
    /// Samples a delay. `entropy` is a pre-mixed random word supplied by
    /// the fabric so the model itself stays stateless.
    pub fn sample(&self, entropy: u64) -> Duration {
        match self {
            LatencyModel::Zero => Duration::ZERO,
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform(min, max) => {
                let (lo, hi) = (min.as_nanos() as u64, max.as_nanos() as u64);
                if hi <= lo {
                    return *min;
                }
                let span = hi - lo;
                Duration::from_nanos(lo + entropy % (span + 1))
            }
        }
    }

    /// The worst-case delay this model can produce, used in tests.
    pub fn upper_bound(&self) -> Duration {
        match self {
            LatencyModel::Zero => Duration::ZERO,
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform(_, max) => *max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert_eq!(LatencyModel::Zero.sample(12345), Duration::ZERO);
    }

    #[test]
    fn constant_ignores_entropy() {
        let m = LatencyModel::Constant(Duration::from_micros(100));
        assert_eq!(m.sample(1), m.sample(999));
        assert_eq!(m.sample(0), Duration::from_micros(100));
    }

    #[test]
    fn uniform_stays_in_range() {
        let m = LatencyModel::Uniform(Duration::from_micros(50), Duration::from_micros(150));
        for e in 0..1000u64 {
            let d = m.sample(e.wrapping_mul(0x9e3779b97f4a7c15));
            assert!(d >= Duration::from_micros(50));
            assert!(d <= Duration::from_micros(150));
        }
    }

    #[test]
    fn degenerate_uniform_returns_min() {
        let m = LatencyModel::Uniform(Duration::from_micros(80), Duration::from_micros(80));
        assert_eq!(m.sample(7), Duration::from_micros(80));
    }

    #[test]
    fn upper_bounds() {
        assert_eq!(LatencyModel::Zero.upper_bound(), Duration::ZERO);
        assert_eq!(
            LatencyModel::Uniform(Duration::from_micros(1), Duration::from_micros(9)).upper_bound(),
            Duration::from_micros(9)
        );
    }
}
