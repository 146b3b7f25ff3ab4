//! The perf ledger: the repo's benchmark. See README.md beside this
//! package for the workloads, the metrics and how they interact.
//!
//! One process per rep: the parent re-executes itself (`--rep`) for each
//! (workload, rep), one at a time, so every rep starts from a fresh
//! address space and its peak memory and cumulative-state costs are its
//! own. Reps run rep-major across workloads, so slow drift of the host
//! hits every workload alike.

mod heater;
mod json;
mod probes;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use workloads::{Workload, WORKLOADS};

/// Which reps of a run produce a metric.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Untraced reps: everything a user would see, and the counters.
    Untraced,
    /// Traced reps: whatever is computed from spans.
    Traced,
    /// Computed by the parent from the reps' values.
    Parent,
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Share of the parent commit's median by which an end-to-end metric
    /// may worsen; per-layer metrics have none.
    bound: Option<f64>,
    from: Source,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        from: Source::Untraced,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    from: Source,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        from,
    }
}

/// What a user of the system sees, per workload. Each is the median over
/// the run's reps: single reps on the shared host come in two speeds
/// (README, "The host"), and a best-of-R would report whichever run
/// happened to catch a fast one.
const END_TO_END: [Metric; 4] = [
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics measured on each workload (the probes add theirs).
const PER_WORKLOAD: [Metric; 26] = [
    layer("driver.miss_share", "share", "lower", Source::Untraced),
    layer("driver.failed_share", "share", "lower", Source::Parent),
    layer("driver.op_tail_us", "us", "lower", Source::Untraced),
    layer("driver.op_tail_pct", "%", "higher", Source::Untraced),
    layer("driver.samples", "count", "higher", Source::Untraced),
    layer("driver.op_max_us", "us", "lower", Source::Untraced),
    layer("driver.drift_ratio", "ratio", "lower", Source::Untraced),
    layer("driver.rep_spread", "ratio", "lower", Source::Parent),
    layer("driver.gen_late_p99_us", "us", "lower", Source::Untraced),
    layer(
        "driver.trace_overhead_ratio",
        "ratio",
        "lower",
        Source::Parent,
    ),
    layer("driver.heaters", "count", "higher", Source::Untraced),
    layer("runtime.submit_us_p50", "us", "lower", Source::Traced),
    layer("runtime.submit_us_p99", "us", "lower", Source::Traced),
    layer("runtime.get_block_us_p50", "us", "lower", Source::Traced),
    layer("runtime.put_us_p50", "us", "lower", Source::Traced),
    layer("runtime.submit_share", "share", "lower", Source::Traced),
    layer("runtime.get_share", "share", "lower", Source::Traced),
    layer("runtime.put_share", "share", "lower", Source::Traced),
    layer(
        "runtime.driver_other_share",
        "share",
        "lower",
        Source::Traced,
    ),
    layer("runtime.cluster_start_s", "s", "lower", Source::Untraced),
    layer("runtime.cluster_shutdown_s", "s", "lower", Source::Untraced),
    layer("net.frames_per_task", "count", "lower", Source::Untraced),
    layer("net.bytes_per_task", "bytes", "lower", Source::Untraced),
    layer("net.egress_wait_us_per_op", "us", "lower", Source::Untraced),
    layer("kv.locks_per_task", "count", "lower", Source::Untraced),
    layer("kv.ops_per_task", "count", "lower", Source::Untraced),
];

/// Seconds of measuring per workload when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    seed: u64,
    workloads: Vec<&'static Workload>,
    seconds: u64,
    reps: Option<usize>,
    /// `--trace 0|1`: the driver's one-workload protocol.
    contract_trace: Option<bool>,
    no_trace: bool,
    no_probes: bool,
    list: bool,
    /// `--rep <index>`: this process is one rep of the one workload.
    rep: Option<u64>,
    trace_file: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workloads: Vec::new(),
        seconds: DEFAULT_SECONDS,
        reps: None,
        contract_trace: None,
        no_trace: false,
        no_probes: false,
        list: false,
        rep: None,
        trace_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--reps" => args.reps = Some(number(value()?)?.max(1) as usize),
            "--rep" => args.rep = Some(number(value()?)?),
            "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
            "--trace" => {
                args.contract_trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--workload" => {
                let name = value()?;
                let found = WORKLOADS.iter().find(|w| w.name == name.as_str());
                args.workloads
                    .push(found.ok_or(format!("no workload '{name}'; --list names them"))?);
            }
            "--no-trace" => args.no_trace = true,
            "--no-probes" => args.no_probes = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    if (args.contract_trace.is_some() || args.rep.is_some()) && args.workloads.len() != 1 {
        return Err("--trace and --rep take exactly one --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let outcome = match args.rep {
        Some(index) => run_rep(&args, index, process_start),
        None => run_ledger(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!(
            "  {:<14} {} x {} tasks, {}, limit {:?}",
            w.name, w.ops, w.tasks_per_op, w.load, w.limit
        );
        println!("  {:<14} {}", "", w.why);
    }
    println!("end-to-end metrics (each workload; bound = share of the parent's median):");
    for m in &END_TO_END {
        println!(
            "  {:<42} {:<6} {} is better, bound {}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0)
        );
    }
    println!("per-layer metrics (no bound):");
    for m in &PER_WORKLOAD {
        println!("  {:<42} {:<6} {} is better", m.name, m.unit, m.better);
    }
    for (name, unit) in &probes::PROBES {
        println!(
            "  {:<42} {:<6} {} is better",
            name,
            unit,
            probes::better(name)
        );
    }
}

// --- the child: one rep --------------------------------------------------

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// Runs one rep and prints its values as one JSON object.
fn run_rep(args: &Args, index: u64, process_start: Instant) -> Result<bool, String> {
    let w = args.workloads[0];
    let rec = trace::Recorder::new(args.trace_file.is_some());
    let seed = workloads::mix(args.seed ^ workloads::mix(index));
    let heaters = heater::Heaters::start();
    let spinning = heaters.running as f64;
    let out = workloads::run_rep(w, seed, &rec, process_start);
    heaters.stop();
    let out = out.map_err(|e| format!("{}: {e}", w.name))?;

    let tasks = (w.ops * w.tasks_per_op) as f64;
    let ops = out.lat_us.len() as f64;
    let limit_us = w.limit.as_secs_f64() * 1e6;
    let missed = out.lat_us.iter().filter(|us| **us > limit_us).count() as f64;
    let sorted = stats::sorted(out.lat_us.clone());
    let tail_pct = stats::tail_pct(sorted.len());
    let delta = |pick: fn(&sut::Counters) -> u64| (pick(&out.after) - pick(&out.before)) as f64;
    let mut values: Vec<(&str, f64)> = vec![
        ("attempted", ops),
        ("failed", out.failed as f64),
        ("setup_s", out.setup_s),
        ("op_p50_us", stats::percentile(&sorted, 50)),
        ("ops_per_s", (ops - out.failed as f64) / out.wall_s),
        ("peak_rss_mb", peak_rss_mib()?),
        // A failed op misses whatever it took; count it once.
        ("driver.miss_share", (missed.max(out.failed as f64)) / ops),
        ("driver.op_tail_us", stats::percentile(&sorted, tail_pct)),
        ("driver.op_tail_pct", f64::from(tail_pct)),
        ("driver.samples", ops),
        ("driver.op_max_us", stats::percentile(&sorted, 100)),
        ("driver.drift_ratio", stats::drift_ratio(&out.lat_us)),
        (
            "driver.gen_late_p99_us",
            stats::percentile(&stats::sorted(out.late_us.clone()), 99),
        ),
        ("driver.heaters", spinning),
        ("runtime.cluster_start_s", out.start_s),
        ("runtime.cluster_shutdown_s", out.shutdown_s),
        ("net.frames_per_task", delta(|c| c.net_sent) / tasks),
        ("net.bytes_per_task", delta(|c| c.net_bytes) / tasks),
        (
            "net.egress_wait_us_per_op",
            delta(|c| c.net_egress_wait_ns) / 1e3 / ops,
        ),
        ("kv.locks_per_task", delta(|c| c.kv_locks) / tasks),
        ("kv.ops_per_task", delta(|c| c.kv_ops) / tasks),
    ];

    let spans = rec.finish();
    if let Some(path) = &args.trace_file {
        use trace::Category::{Get, Put, Submit};
        let pct = |of, pct| stats::percentile(&trace::durations_us(&spans, of), pct);
        let [submit, get, put, other] = trace::shares(&spans);
        values.extend([
            ("runtime.submit_us_p50", pct(Submit, 50)),
            ("runtime.submit_us_p99", pct(Submit, 99)),
            ("runtime.get_block_us_p50", pct(Get, 50)),
            ("runtime.put_us_p50", pct(Put, 50)),
            ("runtime.submit_share", submit),
            ("runtime.get_share", get),
            ("runtime.put_share", put),
            ("runtime.driver_other_share", other),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, trace::chrome_trace(&spans).emit())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        Json::obj(values.into_iter().map(|(k, v)| (k, Json::Num(v)))).emit()
    );
    Ok(out.failed == 0)
}

// --- the parent: reps, estimators, report ----------------------------------

type RepValues = BTreeMap<String, f64>;

/// Everything the reps of one workload returned.
#[derive(Default)]
struct Reps {
    untraced: Vec<RepValues>,
    traced: Vec<RepValues>,
    attempted: u64,
    failed: u64,
}

/// Where a traced rep of `workload` writes its Chrome trace: next to the
/// executable, which is inside the build directory and so never in git.
fn trace_path(exe: &Path, workload: &str) -> Result<PathBuf, String> {
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join("ledger").join(format!("trace_{workload}.json")))
}

/// Runs one rep in a child process and folds what it printed into `reps`.
/// A rep that crashes or prints nothing readable fails all its ops.
fn spawn_rep(
    args: &Args,
    w: &Workload,
    index: usize,
    traced: bool,
    reps: &mut Reps,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &args.seed.to_string(),
        "--rep",
        &index.to_string(),
    ]);
    if traced {
        cmd.arg("--trace-file").arg(trace_path(&exe, w.name)?);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a rep: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or("printed nothing".to_string())
        .and_then(Json::parse);
    let values: RepValues = match parsed {
        Ok(Json::Obj(pairs)) => pairs
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_f64()?)))
            .collect(),
        _ => {
            eprintln!(
                "ledger: {} rep {index} gave no result ({})",
                w.name, output.status
            );
            reps.attempted += w.ops;
            reps.failed += w.ops;
            return Ok(());
        }
    };
    reps.attempted += values.get("attempted").copied().unwrap_or(0.0) as u64;
    reps.failed += values.get("failed").copied().unwrap_or(0.0) as u64;
    if traced {
        &mut reps.traced
    } else {
        &mut reps.untraced
    }
    .push(values);
    Ok(())
}

/// One reported metric of one workload.
struct Row {
    metric: &'static Metric,
    value: f64,
    per_rep: Vec<f64>,
}

fn column(reps: &[RepValues], name: &str) -> Vec<f64> {
    reps.iter()
        .filter_map(|rep| rep.get(name).copied())
        .collect()
}

/// Reduces the reps of one workload to its metrics. A metric none of
/// the reps produced (traced metrics under `--no-trace`) is left out.
fn reduce_reps(reps: &Reps) -> Vec<Row> {
    let p50 = |from: &[RepValues]| stats::median(&column(from, "op_p50_us"));
    END_TO_END
        .iter()
        .chain(&PER_WORKLOAD)
        .filter_map(|metric| {
            let per_rep = match metric.from {
                Source::Untraced => column(&reps.untraced, metric.name),
                Source::Traced => column(&reps.traced, metric.name),
                Source::Parent => Vec::new(),
            };
            let value = match metric.name {
                "driver.failed_share" => reps.failed as f64 / reps.attempted.max(1) as f64,
                "driver.rep_spread" => stats::rep_spread(&column(&reps.untraced, "op_p50_us")),
                "driver.trace_overhead_ratio"
                    if reps.traced.is_empty() || reps.untraced.is_empty() =>
                {
                    return None
                }
                "driver.trace_overhead_ratio" => p50(&reps.traced) / p50(&reps.untraced),
                _ if per_rep.is_empty() => return None,
                _ => stats::median(&per_rep),
            };
            Some(Row {
                metric,
                value,
                per_rep,
            })
        })
        .collect()
}

/// A metric as reported: name, unit, value.
pub type Reading = (&'static str, &'static str, f64);

fn metric_json(readings: &[Reading]) -> Json {
    Json::obj(readings.iter().map(|(name, unit, value)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::Str((*unit).into())),
            ]),
        )
    }))
}

fn print_table<'a>(title: &str, rows: impl Iterator<Item = (Reading, &'a [f64])>) {
    println!("\n{title}");
    for ((name, unit, value), per_rep) in rows {
        let reps: Vec<String> = per_rep.iter().map(|v| format!("{v:.4}")).collect();
        println!("  {name:<42} {value:>16.4} {unit:<6} {}", reps.join(" "));
    }
}

/// Runs the reps (and probes) the arguments ask for, prints the table and
/// the JSON document, and returns whether every result was correct.
fn run_ledger(args: &Args) -> Result<bool, String> {
    let contract = args.contract_trace;
    // Reps by time budget: fixed op counts per rep, so `--seconds` buys
    // whole reps. A traced run spends its budget on untraced/traced pairs.
    let reps_for = |w: &Workload| {
        let reps = args
            .reps
            .unwrap_or(((args.seconds as f64 / w.rep_seconds).round() as usize).max(1));
        match contract {
            None => (reps, usize::from(!args.no_trace)),
            Some(false) => (reps, 0),
            Some(true) => ((reps / 2).max(1), (reps / 2).max(1)),
        }
    };
    let probes_on = contract.unwrap_or(!args.no_probes);

    let mut all: Vec<Reps> = args.workloads.iter().map(|_| Reps::default()).collect();
    let rounds = args
        .workloads
        .iter()
        .map(|w| reps_for(w).0.max(reps_for(w).1))
        .max()
        .unwrap_or(0);
    for round in 0..rounds {
        for (w, reps) in args.workloads.iter().zip(&mut all) {
            let (untraced, traced) = reps_for(w);
            if round < untraced {
                spawn_rep(args, w, round, false, reps)?;
            }
            if round < traced {
                spawn_rep(args, w, round, true, reps)?;
            }
        }
    }
    let probe_rows = if probes_on {
        let heaters = heater::Heaters::start();
        let rows = probes::run();
        heaters.stop();
        rows?
    } else {
        Vec::new()
    };
    let mut correct = true;
    let mut docs = Vec::new();
    for (w, reps) in args.workloads.iter().zip(&all) {
        // The driver's protocol wants the end-to-end metrics (those with
        // a bound) from an untraced run and the rest from a traced one.
        let rows: Vec<Row> = reduce_reps(reps)
            .into_iter()
            .filter(|row| contract.is_none_or(|traced| row.metric.bound.is_none() == traced))
            .collect();
        let ok = reps.failed == 0 && rows.iter().all(|row| row.value.is_finite());
        correct &= ok;
        let reading = |row: &Row| (row.metric.name, row.metric.unit, row.value);
        print_table(
            &format!(
                "{} ({}; {} ops attempted, {} failed)",
                w.name, w.load, reps.attempted, reps.failed
            ),
            rows.iter()
                .map(|row| (reading(row), row.per_rep.as_slice())),
        );
        let mut readings: Vec<Reading> = rows.iter().map(reading).collect();
        if contract == Some(true) {
            readings.extend(&probe_rows);
        }
        docs.push((
            w.name,
            Json::obj([
                ("correct", Json::Bool(ok)),
                ("attempted", Json::Num(reps.attempted as f64)),
                ("failed", Json::Num(reps.failed as f64)),
                ("metrics", metric_json(&readings)),
            ]),
        ));
    }
    if probes_on {
        print_table(
            "probes (one crate each, nothing else running)",
            probe_rows.iter().map(|row| (*row, [].as_slice())),
        );
    }
    println!();
    let doc = match contract {
        Some(_) => docs.pop().expect("one workload").1,
        None => Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("workloads", Json::obj(docs)),
            ("probes", metric_json(&probe_rows)),
        ]),
    };
    println!("{}", doc.emit());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_metrics() -> Vec<(&'static str, &'static str)> {
        END_TO_END
            .iter()
            .chain(&PER_WORKLOAD)
            .map(|m| (m.name, m.unit))
            .chain(probes::PROBES)
            .collect()
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all_metrics() {
            assert!(is_name(name), "bad metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} of {name}"
            );
            assert!(seen.insert(name), "{name} is defined twice");
        }
        for w in &WORKLOADS {
            assert!(is_name(w.name), "bad workload name {}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        assert!(
            !is_name(".hidden")
                && !is_name("a b")
                && !is_name("")
                && is_name("kv.locks_per_spec.b256")
        );
    }

    /// BENCHMARK.json is what the driver reads and this table is what the
    /// program prints; a later change must not let them drift apart.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key}");
            };
            let text = |item: &Json, field: &str| match item.get(field) {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            };
            items
                .iter()
                .map(|item| (text(item, "name"), text(item, "unit")))
                .collect()
        };
        let own = |metrics: Vec<(&str, &str)>| -> Vec<(String, String)> {
            metrics
                .into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names("end_to_end"),
            own(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
        );
        assert_eq!(
            names("per_layer"),
            own(PER_WORKLOAD
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(probes::PROBES)
                .collect())
        );
        assert_eq!(
            names("workloads"),
            own(WORKLOADS.iter().map(|w| (w.name, "")).collect())
        );
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, metric) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                item.get("bound").and_then(Json::as_f64),
                metric.bound,
                "{}",
                metric.name
            );
            assert_eq!(
                item.get("better"),
                Some(&Json::Str(metric.better.into())),
                "{}",
                metric.name
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn reps_reduce_to_medians() {
        let rep = |p50: f64, rate: f64, setup: f64| -> RepValues {
            [
                ("op_p50_us", p50),
                ("ops_per_s", rate),
                ("setup_s", setup),
                ("peak_rss_mb", 40.0),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
        };
        let reps = Reps {
            untraced: vec![
                rep(110.0, 9000.0, 0.03),
                rep(100.0, 9900.0, 0.05),
                rep(125.0, 8000.0, 0.04),
            ],
            traced: vec![rep(104.0, 9500.0, 0.04)],
            attempted: 400,
            failed: 1,
        };
        let rows = reduce_reps(&reps);
        let value = |name: &str| rows.iter().find(|r| r.metric.name == name).map(|r| r.value);
        assert_eq!(value("op_p50_us"), Some(110.0));
        assert_eq!(value("ops_per_s"), Some(9000.0));
        assert_eq!(value("setup_s"), Some(0.04));
        assert_eq!(value("driver.failed_share"), Some(1.0 / 400.0));
        assert_eq!(value("driver.rep_spread"), Some(0.25));
        assert_eq!(value("driver.trace_overhead_ratio"), Some(104.0 / 110.0));
        // No rep produced span metrics here, so none is reported.
        assert_eq!(value("runtime.get_share"), None);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |line: &str| {
            parse_args(
                &line
                    .split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
        };
        let args = parse("--workload rtt_local --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (args.seed, args.seconds, args.contract_trace),
            (7, 15, Some(true))
        );
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(parse("").unwrap().workloads.len(), WORKLOADS.len());
        assert_eq!(
            parse("--workload rtt_local --workload rl_broadcast")
                .unwrap()
                .workloads
                .len(),
            2
        );
        for bad in [
            "--seed x",
            "--workload nope",
            "--trace 2 --workload rtt_local",
            "--trace 0",
            "--seed",
            "--fast",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
