//! E8 — §3.2.2 hybrid scheduling vs the alternatives.
//!
//! The paper's critique of centralized schedulers (CIEL, Dask): "low
//! latency must often be traded off with high throughput". This
//! experiment runs the same task storm under three spill modes:
//!
//! - `NeverSpill`  — pure node-local scheduling (no load sharing);
//! - `AlwaysSpill` — fully centralized (every task through the global);
//! - `Hybrid`      — the paper's design: local fast path + spillover.
//!
//! Run: `cargo run -p rtml-bench --bin exp_hybrid --release`

use std::time::{Duration, Instant};

use rtml_bench::{fmt_duration, print_table};
use rtml_common::metrics::fmt_nanos;
use rtml_runtime::{Cluster, ClusterConfig};
use rtml_sched::SpillMode;

fn modes() -> [(&'static str, SpillMode); 3] {
    [
        ("local-only (NeverSpill)", SpillMode::NeverSpill),
        ("centralized (AlwaysSpill)", SpillMode::AlwaysSpill),
        (
            "hybrid (threshold 8)",
            SpillMode::Hybrid { queue_threshold: 8 },
        ),
    ]
}

fn main() {
    // --- light load: per-task latency (R1) ---------------------------
    // A sparse stream of single tasks. The global scheduler lives on a
    // separate "head node" (node 3), as it would in a real deployment:
    // a centralized architecture pays cross-node hops on *every* task,
    // the hybrid fast path pays none.
    let mut rows = Vec::new();
    for (label, mode) in modes() {
        let mut config = ClusterConfig::local(4, 2).with_spill(mode);
        config.global_host = 3;
        let cluster = Cluster::start(config).unwrap();
        let quick = cluster.register_fn1("quick_task", |x: u64| Ok(x));
        let driver = cluster.driver();
        // Warm up.
        for i in 0..10u64 {
            let fut = driver.submit1(&quick, i).unwrap();
            let _ = driver.get(&fut);
        }
        let mut samples = Vec::new();
        for i in 0..200u64 {
            let start = Instant::now();
            let fut = driver.submit1(&quick, i).unwrap();
            let _ = driver.get(&fut).unwrap();
            samples.push(start.elapsed());
        }
        let stats = rtml_bench::DurationStats::from_samples(&samples);
        rows.push(vec![
            label.to_string(),
            fmt_duration(stats.mean),
            fmt_duration(stats.p50),
            fmt_duration(stats.p99),
        ]);
        cluster.shutdown();
    }
    print_table(
        "E8a: light load — sequential empty tasks, global scheduler on a head node",
        &["architecture", "mean e2e", "p50", "p99"],
        &rows,
    );

    // --- heavy load: makespan (R2) ------------------------------------
    let mut rows = Vec::new();
    for (label, mode) in modes() {
        let mut config = ClusterConfig::local(4, 2).with_spill(mode);
        config.global_host = 3;
        let cluster = Cluster::start(config).unwrap();
        let work = cluster.register_fn1("storm_task", |x: u64| {
            rtml_common::time::occupy(Duration::from_millis(2));
            Ok(x)
        });
        let driver = cluster.driver();
        // Warm-up.
        let warm = driver.submit1(&work, 0u64).unwrap();
        let _ = driver.get(&warm);

        const TASKS: usize = 200;
        let start = Instant::now();
        let futs: Vec<_> = (0..TASKS as u64)
            .map(|i| driver.submit1(&work, i).unwrap())
            .collect();
        let (ready, _) = driver.wait(&futs, futs.len(), Duration::from_secs(120));
        let makespan = start.elapsed();
        assert_eq!(ready.len(), TASKS);

        let report = cluster.profile();
        let latency = report.scheduling_latency().snapshot();
        let count = |name: &str| report.counters.get(name).unwrap();
        rows.push(vec![
            label.to_string(),
            fmt_duration(makespan),
            fmt_nanos(latency.p50()),
            fmt_nanos(latency.p99()),
            count("global.spills").to_string(),
            count("global.placements").to_string(),
        ]);
        cluster.shutdown();
    }
    print_table(
        "E8b: heavy load — 200 x 2 ms task storm on 4 nodes x 2 workers",
        &[
            "architecture",
            "makespan",
            "sched p50",
            "sched p99",
            "spills",
            "placements",
        ],
        &rows,
    );
    println!(
        "\n(the paper's §3.2.2 trade-off: local-only has the best light-load\n latency but collapses under storm (three nodes idle); centralized\n balances storms but taxes every task with head-node round trips;\n hybrid delivers both — local fast path, spillover under pressure.)"
    );
}
