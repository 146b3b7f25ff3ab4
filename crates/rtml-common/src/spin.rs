//! Spinning before sleeping at a hand-off.
//!
//! A lone local round trip is two cross-thread hand-offs in a row: the
//! submitter's push to a worker waiting for work, and the worker's seal
//! to a `get` waiting at home. A waiter that goes straight to the
//! futex pays a full thread wake-up at each (≈ 10 µs on a 2-vCPU VM,
//! most of a ≈ 22 µs round trip). A waiter that first watches for the
//! hand-off for a bounded time ([`SPIN`]) catches one that comes soon
//! with no sleep and no wake-up on either side; upstream crossbeam's
//! `Backoff` does the same before it parks.
//!
//! Spinning burns the CPU it waits on, so a site spins only while its
//! recent waits were short ([`Waits`]): a workload whose gaps are
//! milliseconds long never spins. The two sites are the run queue's
//! `next` (one spinner a queue) and the home branch of a blocking
//! `get`; each counts what its spins caught and cost in a
//! [`SpinStats`].

use std::time::{Duration, Instant};

use crate::metrics::Counter;

/// How long a waiter spins before it sleeps, and the mean wait under
/// which a site spins at all. On the ledger's `rtt_local` (2-vCPU VM) a
/// prototype's 20 µs spin caught too few hand-offs (op p50 18–19 µs
/// against 12–14 µs at 50 µs), and 100 µs read the same as 50.
pub const SPIN: Duration = Duration::from_micros(50);

/// A new wait weighs `1 / MEAN_WEIGHT` in a site's mean.
const MEAN_WEIGHT: u64 = 4;

/// One wait counts at most `SAMPLE_CAP × SPIN` in the mean: from no
/// history, one long wait takes the mean to [`SPIN`] and stops the
/// spinning, and a few short ones bring it back.
const SAMPLE_CAP: u64 = 4;

/// How long a site's recent waits lasted: an exponentially weighted
/// mean (weight 1/4, each sample capped at 4 × [`SPIN`]). It starts at
/// zero, so a fresh site spins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Waits {
    mean_ns: u64,
}

impl Waits {
    /// Whether the site spins before its next sleep: its mean wait is
    /// under [`SPIN`].
    pub fn spins(self) -> bool {
        self.mean_ns < SPIN.as_nanos() as u64
    }

    /// Folds one wait, from its start to its end (caught by a spin,
    /// woken from a sleep or timed out), into the mean.
    pub fn record(&mut self, waited: Duration) {
        let cap = SAMPLE_CAP * SPIN.as_nanos() as u64;
        let sample = u64::try_from(waited.as_nanos()).map_or(cap, |ns| ns.min(cap));
        self.mean_ns = self.mean_ns - self.mean_ns / MEAN_WEIGHT + sample / MEAN_WEIGHT;
    }
}

/// What a site's spins caught and cost.
#[derive(Debug, Default)]
pub struct SpinStats {
    /// Spins that saw the hand-off before [`SPIN`] passed.
    pub hits: Counter,
    /// Spins that ran out and went to sleep.
    pub misses: Counter,
    /// Time spent spinning, in nanoseconds: the CPU the spins burned.
    pub spin_ns: Counter,
}

/// Polls `ready` with [`std::hint::spin_loop`] between polls until it
/// returns `true` (a hit) or [`SPIN`] passes (a miss), counting the
/// outcome and the time spun in `stats`. The caller re-checks whatever
/// it waits for before it sleeps, so a miss loses nothing.
pub fn spin(stats: &SpinStats, mut ready: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    let hit = loop {
        if ready() {
            break true;
        }
        if started.elapsed() >= SPIN {
            break false;
        }
        std::hint::spin_loop();
    };
    let counter = if hit { &stats.hits } else { &stats.misses };
    counter.inc();
    stats.spin_ns.add(started.elapsed().as_nanos() as u64);
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(micros: u64) -> Duration {
        Duration::from_micros(micros)
    }

    /// Whether the site spins after each wait of a scripted series.
    fn script(waits: &[Duration]) -> Vec<bool> {
        let mut mean = Waits::default();
        waits
            .iter()
            .map(|&waited| {
                mean.record(waited);
                mean.spins()
            })
            .collect()
    }

    #[test]
    fn short_waits_spin_one_long_wait_stops_it_and_a_few_short_ones_bring_it_back() {
        assert!(Waits::default().spins(), "a fresh site spins");
        // Short hand-offs keep the mean far under SPIN.
        assert!(script(&[us(10); 20]).iter().all(|&spins| spins));
        // One wait of a millisecond counts 4 × SPIN: from no history the
        // mean reaches SPIN, and the site sleeps at once.
        let mut series = vec![us(1_000)];
        assert_eq!(script(&series), [false]);
        // From there one 10 µs wait brings it back under.
        series.push(us(10));
        assert_eq!(script(&series), [false, true]);
    }

    #[test]
    fn a_run_of_long_waits_needs_a_few_short_ones_to_spin_again() {
        // A millisecond cadence holds the mean near the cap: no spinning.
        let mut series = vec![us(1_000); 12];
        assert!(script(&series).iter().all(|&spins| !spins));
        // Short waits bring it down a quarter of the way each: six of
        // them (194 → 148 → 113 → 87 → 68 → 54 → 43 µs).
        series.extend([us(10); 6]);
        let spins = script(&series);
        assert_eq!(spins[12..], [false, false, false, false, false, true]);
        // And no single sample counts more than its cap.
        let mut mean = Waits::default();
        mean.record(Duration::MAX);
        assert_eq!(mean, {
            let mut capped = Waits::default();
            capped.record(SPIN * SAMPLE_CAP as u32);
            capped
        });
    }

    #[test]
    fn a_spin_counts_its_hit_or_its_miss_and_its_time() {
        let stats = SpinStats::default();
        let mut polls = 0;
        assert!(spin(&stats, || {
            polls += 1;
            polls == 3
        }));
        let started = Instant::now();
        assert!(!spin(&stats, || false));
        assert!(started.elapsed() >= SPIN);
        assert_eq!((stats.hits.get(), stats.misses.get()), (1, 1));
        assert!(stats.spin_ns.get() >= SPIN.as_nanos() as u64);
    }
}
