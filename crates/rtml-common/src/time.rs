//! Monotonic timestamps, stopwatches, and calibrated busy-work.
//!
//! All event-log timestamps are nanoseconds since a process-wide epoch
//! (the first call into this module), so timestamps from different threads
//! and components are directly comparable.
//!
//! [`busy_work`] emulates a compute kernel of known duration by spinning,
//! which — unlike `thread::sleep` — occupies a CPU the way a real
//! simulation step or neural-network layer would. The paper's RL
//! experiment depends on tasks that genuinely consume ~7 ms of CPU.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Returns the process-wide monotonic epoch.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process epoch.
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A simple stopwatch for measuring elapsed wall time.
///
/// # Examples
///
/// ```
/// use rtml_common::time::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let elapsed = sw.elapsed();
/// assert!(elapsed.as_nanos() < 1_000_000_000);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Spins the CPU for approximately `duration`.
///
/// The loop checks `Instant::now()` in batches to keep the timing overhead
/// small while still terminating promptly. Used by the workload crates to
/// model simulation steps and NN layers with real CPU consumption.
pub fn busy_work(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let deadline = Instant::now() + duration;
    // `black_box` prevents the spin from being optimized away.
    let mut x = 0u64;
    loop {
        for _ in 0..64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Occupies the calling worker for `duration`, modelling a compute
/// kernel of known cost.
///
/// Durations of 200 µs and above use `thread::sleep`; shorter ones spin
/// for precision. Sleeping (rather than burning cycles) means a
/// simulated kernel occupies *its worker* without contending for host
/// CPUs — so an 8-worker cluster completes eight 7 ms kernels in ~7 ms
/// even on a single-core CI machine, exactly as it would on an 8-core
/// testbed. This is the substitution that makes the paper's speedup
/// *shapes* reproducible on arbitrary hardware; use [`busy_work`]
/// instead when real CPU pressure is the point.
pub fn occupy(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    if duration < Duration::from_micros(200) {
        busy_work(duration);
    } else {
        std::thread::sleep(duration);
    }
}

/// Deterministic pseudo-compute: performs `iters` rounds of integer mixing
/// and returns the folded result. Unlike [`busy_work`], the amount of work
/// is fixed rather than the wall time, so results are reproducible across
/// machines — used where lineage replay must produce identical outputs.
pub fn deterministic_work(seed: u64, iters: u64) -> u64 {
    let mut x = seed ^ 0x9e3779b97f4a7c15;
    for i in 0..iters {
        x ^= i;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_are_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn busy_work_takes_about_right() {
        let sw = Stopwatch::start();
        busy_work(Duration::from_millis(5));
        let elapsed = sw.elapsed();
        assert!(elapsed >= Duration::from_millis(5));
        // Allow generous slack for noisy CI machines.
        assert!(elapsed < Duration::from_millis(200), "elapsed={elapsed:?}");
    }

    #[test]
    fn busy_work_zero_returns_immediately() {
        let sw = Stopwatch::start();
        busy_work(Duration::ZERO);
        assert!(sw.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn deterministic_work_is_deterministic() {
        assert_eq!(deterministic_work(7, 1000), deterministic_work(7, 1000));
        assert_ne!(deterministic_work(7, 1000), deterministic_work(8, 1000));
        assert_ne!(deterministic_work(7, 1000), deterministic_work(7, 1001));
    }
}
