//! Shared plumbing for the experiment binaries (`exp_*`) and criterion
//! benches that regenerate every quantitative claim in the paper.
//!
//! The experiment index is the `exp_*` list under "Building and
//! testing" in `README.md`; each binary prints its own paper-vs-measured
//! table, and the ones CI gates write a `BENCH_*.json` beside it.

use std::str::FromStr;
use std::time::Duration;

/// An experiment knob: the environment variable `name` parsed as a `T`,
/// or `default` when it is unset or does not parse.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Renders a fixed-width ASCII table, the format every `exp_*` binary
/// reports in.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a duration compactly for table cells.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Formats a ratio like `6.9x`.
pub fn fmt_ratio(value: f64) -> String {
    format!("{value:.1}x")
}

/// Mean and percentile summary of duration samples.
pub struct DurationStats {
    /// Sample mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum.
    pub max: Duration,
}

impl DurationStats {
    /// Computes stats from samples (sorts a copy).
    pub fn from_samples(samples: &[Duration]) -> DurationStats {
        if samples.is_empty() {
            return DurationStats {
                mean: Duration::ZERO,
                p50: Duration::ZERO,
                p99: Duration::ZERO,
                max: Duration::ZERO,
            };
        }
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort();
        let total: Duration = sorted.iter().sum();
        let pick = |q: f64| {
            let idx = ((sorted.len() as f64 * q).ceil() as usize)
                .saturating_sub(1)
                .min(sorted.len() - 1);
            sorted[idx]
        };
        DurationStats {
            mean: total / sorted.len() as u32,
            p50: pick(0.50),
            p99: pick(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_samples() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let stats = DurationStats::from_samples(&samples);
        assert_eq!(stats.p50, Duration::from_millis(50));
        assert_eq!(stats.p99, Duration::from_millis(99));
        assert_eq!(stats.max, Duration::from_millis(100));
        assert_eq!(stats.mean, Duration::from_micros(50_500));
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = DurationStats::from_samples(&[]);
        assert_eq!(stats.mean, Duration::ZERO);
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(35)), "35.0 µs");
        assert_eq!(fmt_duration(Duration::from_millis(7)), "7.00 ms");
        assert_eq!(fmt_ratio(6.94), "6.9x");
    }

    #[test]
    fn env_or_falls_back_on_unset_and_unparsable() {
        assert_eq!(env_or("RTML_BENCH_TEST_UNSET_KNOB", 7usize), 7);
        std::env::set_var("RTML_BENCH_TEST_KNOB", "12");
        assert_eq!(env_or("RTML_BENCH_TEST_KNOB", 7u64), 12);
        std::env::set_var("RTML_BENCH_TEST_KNOB", "twelve");
        assert_eq!(env_or("RTML_BENCH_TEST_KNOB", 7u64), 7);
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["metric", "value"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
    }
}
