//! The paper's §4.2 RL workload: train a policy on an arcade-style
//! simulator, alternating parallel simulation stages with GPU policy
//! stages — the experiment behind the 63x claim.
//!
//! Run with: `cargo run --release --example rl_training`

use std::time::Duration;

use rtml::prelude::*;
use rtml::workloads::baselines::{BspConfig, BspEngine};
use rtml::workloads::rl::{self, RlConfig, RlFuncs};

fn main() -> Result<()> {
    let config = RlConfig {
        rollouts: 16,
        frames_per_task: 10,
        frame_cost: Duration::from_micros(700), // ≈ 7 ms per sim task
        iterations: 5,
        ..RlConfig::default()
    };

    println!(
        "RL training: {} iterations x {} rollouts x ~7 ms tasks\n",
        config.iterations, config.rollouts
    );

    // Single-threaded baseline.
    let serial = rl::run_serial(&config);
    println!(
        "serial : {:?}  (checksum {:016x})",
        serial.wall, serial.checksum
    );

    // BSP baseline with Spark-like per-task driver overhead.
    let bsp_engine = BspEngine::new(BspConfig::spark_calibrated(8));
    let bsp = rl::run_engine(&config, &bsp_engine);
    println!(
        "bsp    : {:?}  ({:.2}x vs serial; checksum {:016x})",
        bsp.wall,
        serial.wall.as_secs_f64() / bsp.wall.as_secs_f64(),
        bsp.checksum
    );

    // rtml: one GPU node, sims spread across CPU workers, the policy
    // future chains between iterations.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(8).with_gpus(1.0),
            NodeConfig::cpu_only(8),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let funcs = RlFuncs::register(&cluster);
    let driver = cluster.driver();
    let rtml = rl::run_rtml(&config, &driver, &funcs, true)?;
    println!(
        "rtml   : {:?}  ({:.2}x vs serial; checksum {:016x})",
        rtml.wall,
        serial.wall.as_secs_f64() / rtml.wall.as_secs_f64(),
        rtml.checksum
    );

    assert_eq!(serial.checksum, bsp.checksum, "engines must agree");
    assert_eq!(serial.checksum, rtml.checksum, "engines must agree");
    println!(
        "\nrtml vs bsp: {:.0}x end-to-end (paper reports 63x vs Spark)",
        bsp.wall.as_secs_f64() / rtml.wall.as_secs_f64()
    );

    cluster.shutdown();
    Ok(())
}
