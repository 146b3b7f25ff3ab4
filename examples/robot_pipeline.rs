//! The paper's §2 motivating example, end to end: a robot fusing
//! heterogeneous sensor streams (Figure 2a) while planning actions with
//! an RNN policy over fine-grained dataflow (Figure 2c).
//!
//! Run with: `cargo run --release --example robot_pipeline`

use std::time::Duration;

use rtml::prelude::*;
use rtml::workloads::baselines::SerialEngine;
use rtml::workloads::rnn::{self, RnnConfig, RnnFuncs};
use rtml::workloads::sensors::{self, SensorConfig, SensorFuncs};

fn main() -> Result<()> {
    let cluster = Cluster::start(ClusterConfig::local(3, 4)).unwrap();
    let driver = cluster.driver();

    // --- Figure 2a: streaming sensor fusion -------------------------
    let sensor_config = SensorConfig {
        sensors: 6, // video, lidar, radar, imu, gps, audio
        base_cost: Duration::from_millis(1),
        windows: 10,
        ..SensorConfig::default()
    };
    let sensor_funcs = SensorFuncs::register(&cluster, sensor_config.fuse_cost);

    let bsp = sensors::run_bsp(&sensor_config, &SerialEngine);
    let streamed = sensors::run_rtml(&sensor_config, &driver, &sensor_funcs)?;
    assert_eq!(bsp.checksum, streamed.checksum, "fusion must be exact");
    println!("sensor fusion over {} windows:", sensor_config.windows);
    println!(
        "  serial batch : mean window latency {:?}, total {:?}",
        bsp.mean_latency(),
        bsp.wall
    );
    println!(
        "  rtml stream  : mean window latency {:?}, total {:?}",
        streamed.mean_latency(),
        streamed.wall
    );

    // --- Figure 2c: the RNN policy as a fine-grained task graph -----
    let rnn_config = RnnConfig {
        layers: 4,
        timesteps: 10,
        base_cell_cost: Duration::from_millis(2),
        cost_spread: 0.75, // deeper layers cost up to 3.25x more (R4)
        ..RnnConfig::default()
    };
    let rnn_funcs = RnnFuncs::register(&cluster);

    let serial = rnn::run_serial(&rnn_config);
    let dataflow = rnn::run_rtml(&rnn_config, &driver, &rnn_funcs)?;
    assert_eq!(serial.checksum, dataflow.checksum, "RNN must be exact");
    println!(
        "\nRNN policy ({} layers x {} steps, heterogeneous cells):",
        rnn_config.layers, rnn_config.timesteps
    );
    println!("  serial   : {:?}", serial.wall);
    println!(
        "  dataflow : {:?}  ({:.1}x)",
        dataflow.wall,
        serial.wall.as_secs_f64() / dataflow.wall.as_secs_f64()
    );

    println!("\n--- profile ---\n{}", cluster.profile().summary());
    cluster.shutdown();
    Ok(())
}
