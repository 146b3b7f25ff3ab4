//! E1 — §4.1 latency microbenchmarks.
//!
//! Paper's numbers: task creation ~35 µs; result retrieval ~110 µs;
//! end-to-end empty task ~290 µs locally scheduled, ~1 ms remote.
//!
//! Run: `cargo run -p rtml-bench --bin exp_latency --release`

use std::time::{Duration, Instant};

use rtml_bench::{fmt_duration, print_table, DurationStats};
use rtml_common::ids::NodeId;
use rtml_common::resources::Resources;
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig, TaskOptions};

const WARMUP: usize = 50;
const SAMPLES: usize = 500;

fn main() {
    let mut rows = Vec::new();

    // --- task creation: submit returns a future immediately ----------
    {
        let cluster = Cluster::start(ClusterConfig::local(1, 2).without_event_log()).unwrap();
        let nop = cluster.register_fn0("nop", || Ok(0u64));
        let driver = cluster.driver();
        let mut samples = Vec::with_capacity(SAMPLES);
        for i in 0..WARMUP + SAMPLES {
            let start = Instant::now();
            let fut = driver.submit0(&nop).unwrap();
            let elapsed = start.elapsed();
            if i >= WARMUP {
                samples.push(elapsed);
            }
            let _ = driver.get(&fut); // Drain so queues stay short.
        }
        rows.push(stat_row("task creation (submit)", "35 µs", &samples));
        cluster.shutdown();
    }

    // --- result retrieval: get of an already-computed local object ---
    {
        let cluster = Cluster::start(ClusterConfig::local(1, 2).without_event_log()).unwrap();
        let nop = cluster.register_fn0("nop2", || Ok(0u64));
        let driver = cluster.driver();
        let mut samples = Vec::with_capacity(SAMPLES);
        for i in 0..WARMUP + SAMPLES {
            let fut = driver.submit0(&nop).unwrap();
            let _ = driver.get(&fut).unwrap(); // Ensure sealed + local.
            let start = Instant::now();
            let _ = driver.get(&fut).unwrap();
            let elapsed = start.elapsed();
            if i >= WARMUP {
                samples.push(elapsed);
            }
        }
        rows.push(stat_row("result retrieval (get)", "110 µs", &samples));
        cluster.shutdown();
    }

    // --- end-to-end, locally scheduled --------------------------------
    {
        let cluster = Cluster::start(ClusterConfig::local(1, 2).without_event_log()).unwrap();
        let nop = cluster.register_fn0("nop3", || Ok(0u64));
        let driver = cluster.driver();
        let mut samples = Vec::with_capacity(SAMPLES);
        for i in 0..WARMUP + SAMPLES {
            let start = Instant::now();
            let fut = driver.submit0(&nop).unwrap();
            let _ = driver.get(&fut).unwrap();
            let elapsed = start.elapsed();
            if i >= WARMUP {
                samples.push(elapsed);
            }
        }
        rows.push(stat_row("end-to-end, local", "290 µs", &samples));
        cluster.shutdown();
    }

    // --- end-to-end, remotely scheduled -------------------------------
    // The task demands a resource only node 1 has, so it must travel:
    // spill -> global placement -> remote execution -> result push,
    // each hop paying the fabric's 100 µs.
    {
        let config = ClusterConfig {
            nodes: vec![
                NodeConfig::cpu_only(2),
                NodeConfig::cpu_only(2).with_custom("pin", 1.0),
            ],
            ..ClusterConfig::default()
        }
        .without_event_log();
        let cluster = Cluster::start(config).unwrap();
        let nop = cluster.register_fn0("nop4", || Ok(0u64));
        let driver = cluster.driver();
        let opts = TaskOptions::resources(Resources::cpu(1.0).with_custom("pin", 1.0));
        let mut samples = Vec::with_capacity(SAMPLES);
        for i in 0..WARMUP + SAMPLES {
            let start = Instant::now();
            let fut = driver.submit0_opts(&nop, opts.clone()).unwrap();
            let _ = driver.get(&fut).unwrap();
            let elapsed = start.elapsed();
            if i >= WARMUP {
                samples.push(elapsed);
            }
        }
        // Fabric hops on the blocking path, from the counters: the
        // placement, then one for a result its producer pushed or two
        // (request, reply) for one the driver had to ask for.
        let producer = cluster.node_registry(NodeId(1)).unwrap();
        let count = |name: &str| producer.get(name).unwrap();
        let result_hops = count("transfer.pushed") + 2 * count("transfer.requests");
        let hops = 1.0 + result_hops as f64 / (WARMUP + SAMPLES) as f64;
        let metric = format!("end-to-end, remote ({hops:.1} hops)");
        rows.push(stat_row(&metric, "1 ms", &samples));
        cluster.shutdown();
    }

    print_table(
        "E1: latency microbenchmarks (paper §4.1)",
        &["metric", "paper", "mean", "p50", "p99", "max"],
        &rows,
    );
    println!(
        "\n(cross-node fabric latency: 100 µs per hop; remote path = placement hop\n + the result pushed on seal — a pulled result would pay a request hop more)"
    );
}

fn stat_row(metric: &str, paper: &str, samples: &[Duration]) -> Vec<String> {
    let stats = DurationStats::from_samples(samples);
    vec![
        metric.to_string(),
        paper.to_string(),
        fmt_duration(stats.mean),
        fmt_duration(stats.p50),
        fmt_duration(stats.p99),
        fmt_duration(stats.max),
    ]
}
