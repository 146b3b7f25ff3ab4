//! Shared plumbing for the three binaries.
//!
//! `exp_paper` holds the paper's quantitative claims, one [`Claim`] a
//! row, and fails when a row is past its bound. `exp_chaos` is the
//! fault soak, self-asserting its checksums and writing
//! `BENCH_chaos.json`; `inspect` is the R7 tooling demo. Counts (frames,
//! copies, kv locks) are checked by tests beside the code they count,
//! not here.

use std::str::FromStr;
use std::time::Duration;

/// An experiment knob: the environment variable `name` parsed as a `T`,
/// or `default` when it is unset.
///
/// # Panics
///
/// When the variable is set but does not parse as a `T`, naming the
/// variable and its value: a typo such as `6x` must not quietly run the
/// default budget.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    let Some(value) = std::env::var_os(name) else {
        return default;
    };
    let value = value.to_string_lossy();
    value
        .parse()
        .unwrap_or_else(|_| panic!("{name}={value:?} does not parse; unset it for the default"))
}

/// Which side of its bound a claim's measurement must stay on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A latency, a ratio of walls or a count of mismatches: at most
    /// the bound.
    Lower,
    /// A speedup: at least the bound.
    Higher,
}

/// One row of a claims table: a measurement held to a bound.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What is claimed, with the paper section it comes from.
    pub name: String,
    /// The paper's own figure, where it gives one.
    pub paper: Option<f64>,
    /// Ours.
    pub measured: f64,
    /// The figure ours is held to.
    pub bound: f64,
    /// Which side of `bound` passes.
    pub better: Better,
}

impl Claim {
    /// A claim that `measured` is at most `bound`.
    pub fn at_most(name: &str, paper: Option<f64>, measured: f64, bound: f64) -> Claim {
        Claim::new(name, paper, measured, bound, Better::Lower)
    }

    /// A claim that `measured` is at least `bound`.
    pub fn at_least(name: &str, paper: Option<f64>, measured: f64, bound: f64) -> Claim {
        Claim::new(name, paper, measured, bound, Better::Higher)
    }

    fn new(name: &str, paper: Option<f64>, measured: f64, bound: f64, better: Better) -> Claim {
        Claim {
            name: name.to_string(),
            paper,
            measured,
            bound,
            better,
        }
    }

    /// Whether the measurement is on the passing side of its bound; a
    /// measurement equal to its bound passes.
    pub fn holds(&self) -> bool {
        match self.better {
            Better::Lower => self.measured <= self.bound,
            Better::Higher => self.measured >= self.bound,
        }
    }
}

/// The names of the claims past their bound, in table order.
pub fn failed_claims(claims: &[Claim]) -> Vec<&str> {
    claims
        .iter()
        .filter(|claim| !claim.holds())
        .map(|claim| claim.name.as_str())
        .collect()
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

/// The median of `samples` (nearest rank), or zero when there are none.
pub fn p50(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_samples() {
        let samples: Vec<Duration> = (1..=100).rev().map(Duration::from_millis).collect();
        assert_eq!(p50(&samples), Duration::from_millis(50));
        assert_eq!(p50(&samples[..3]), Duration::from_millis(99));
    }

    #[test]
    fn empty_stats_are_zero() {
        assert_eq!(p50(&[]), Duration::ZERO);
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(35)), "35.0 µs");
        assert_eq!(fmt_duration(Duration::from_millis(7)), "7.00 ms");
    }

    #[test]
    fn a_claim_at_its_bound_passes_and_one_past_it_fails_by_name() {
        let claims = [
            Claim::at_most("submit p50", Some(35.0), 35.0, 35.0),
            Claim::at_most("get p50", Some(110.0), 111.0, 110.0),
            Claim::at_least("rtml vs serial", Some(7.0), 5.0, 5.0),
            Claim::at_least("rtml vs BSP", Some(63.0), 39.99, 40.0),
        ];
        assert!(claims[0].holds() && claims[2].holds());
        assert_eq!(failed_claims(&claims), vec!["get p50", "rtml vs BSP"]);
    }

    #[test]
    fn env_or_falls_back_on_unset() {
        assert_eq!(env_or("RTML_BENCH_TEST_UNSET_KNOB", 7usize), 7);
        std::env::set_var("RTML_BENCH_TEST_KNOB", "12");
        assert_eq!(env_or("RTML_BENCH_TEST_KNOB", 7u64), 12);
    }

    #[test]
    #[should_panic(expected = "RTML_BENCH_TEST_BAD_KNOB=\"6x\" does not parse")]
    fn env_or_refuses_an_unparsable_value() {
        std::env::set_var("RTML_BENCH_TEST_BAD_KNOB", "6x");
        env_or("RTML_BENCH_TEST_BAD_KNOB", 6usize);
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
