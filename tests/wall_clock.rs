//! Wall-clock claims: tests that assert one schedule finishes faster
//! than another. A timing shares the host with whatever runs beside it,
//! so every test here takes [`SERIAL`] first and runs alone, not beside
//! the other integration tests' clusters.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use rtml::prelude::*;
use rtml::workloads::baselines::SerialEngine;
use rtml::workloads::{rl, sensors};

/// Taken by every test in this binary, so no other test's cluster runs
/// beside the one being timed.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock leaves nothing behind
    // that the next one reads.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn sensors_stream_beats_batch_on_makespan() {
    let _serial = serial();
    let config = sensors::SensorConfig {
        sensors: 4,
        base_cost: Duration::from_millis(2),
        fuse_cost: Duration::from_micros(200),
        windows: 6,
        ..sensors::SensorConfig::default()
    };
    let bsp = sensors::run_bsp(&config, &SerialEngine);
    let cluster = Cluster::start(ClusterConfig::local(2, 4)).unwrap();
    let funcs = sensors::SensorFuncs::register(&cluster, config.fuse_cost);
    let driver = cluster.driver();
    let streamed = sensors::run_rtml(&config, &driver, &funcs).unwrap();
    cluster.shutdown();
    assert_eq!(bsp.checksum, streamed.checksum);
    // Parallel streaming must finish the whole stream faster than
    // strictly-serial batch processing.
    assert!(
        streamed.wall < bsp.wall,
        "stream {:?} !< batch {:?}",
        streamed.wall,
        bsp.wall
    );
}

#[test]
fn wait_pipelining_beats_batching_with_stragglers() {
    let _serial = serial();
    // Eight slots, 24 rollouts of 5 ms and one 200 ms straggler, each
    // rollout scored by a 20 ms task. Batched, the 24 scores start after
    // the straggler and take three waves of the eight slots: ≥ 200 + 60
    // ms. Pipelined, 23 scores run in the other seven slots while the
    // straggler does (≈ 82 ms of work in its 200 ms), and only its own
    // score is left at the end: ≈ 200 + 20 ms. Pipelining wins by two
    // score waves by construction; the assert asks for one.
    let cluster = Cluster::start(ClusterConfig::local(2, 4)).unwrap();
    let funcs = rl::RlFuncs::register(&cluster);
    let driver = cluster.driver();
    let config = rl::RlConfig {
        rollouts: 24,
        frames_per_task: 5,
        frame_cost: Duration::from_millis(1),
        policy_kernel_cost: Duration::from_millis(20),
        gpu_speedup: 1.0,
        straggler_every: 24,
        straggler_factor: 40.0,
        ..rl::RlConfig::default()
    };
    let margin = config.policy_kernel_cost;
    let (batched_value, batched_wall) =
        rl::run_rtml_batched(&config, &driver, &funcs, false).unwrap();
    let (pipelined_value, pipelined_wall) =
        rl::run_rtml_pipelined(&config, &driver, &funcs, false).unwrap();
    cluster.shutdown();
    assert_eq!(batched_value.to_bits(), pipelined_value.to_bits());
    assert!(
        pipelined_wall + margin <= batched_wall,
        "pipelined {pipelined_wall:?} + one score wave {margin:?} > batched {batched_wall:?}"
    );
}
