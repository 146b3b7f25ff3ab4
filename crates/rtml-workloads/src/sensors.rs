//! Streaming sensor fusion (paper Figure 2a).
//!
//! "Online processing of streaming sensory data to model the
//! environment": several sensors produce windows of samples at
//! heterogeneous processing costs (video >> IMU); each window's features
//! must be fused promptly — an end-to-end latency requirement (R1), not
//! a throughput one.
//!
//! [`run_rtml`] submits every window's whole graph (per-sensor feature
//! tasks + a fusion chain) without waiting, overlapping windows, and
//! observes completions with `wait` — per-window latency is the metric.
//! [`run_bsp`] processes windows one at a time with a barrier per window
//! (fusion cannot start until the slowest sensor of the window, and
//! window `w+1` cannot start until fusion `w` finishes).

use std::time::{Duration, Instant};

use rtml_common::error::Result;
use rtml_common::impl_codec_struct;
use rtml_common::time::{deterministic_work, occupy};
use rtml_runtime::{Cluster, Driver, Func2, ObjectRef};

use crate::baselines::{Engine, StageTask};

/// Stream parameters.
#[derive(Clone, Debug)]
pub struct SensorConfig {
    /// Number of sensors.
    pub sensors: usize,
    /// Cost of sensor 0's per-window processing; sensor `i` costs
    /// `base * (1 + i)` (heterogeneity).
    pub base_cost: Duration,
    /// Cost of each pairwise fusion step.
    pub fuse_cost: Duration,
    /// Number of windows to stream.
    pub windows: usize,
    /// Seed for sample synthesis.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            sensors: 6,
            base_cost: Duration::from_millis(1),
            fuse_cost: Duration::from_micros(300),
            windows: 8,
            seed: 0xfade,
        }
    }
}

impl SensorConfig {
    /// Per-window processing cost of sensor `i`.
    pub fn sensor_cost(&self, sensor: usize) -> Duration {
        self.base_cost.mul_f64((1 + sensor) as f64)
    }
}

/// Serializable per-sensor task description.
#[derive(Clone, Debug, PartialEq)]
pub struct SenseParams {
    /// Sensor index.
    pub sensor: u32,
    /// Window index.
    pub window: u32,
    /// Processing cost in microseconds.
    pub cost_micros: u64,
    /// Stream seed.
    pub seed: u64,
}

impl_codec_struct!(SenseParams {
    sensor,
    window,
    cost_micros,
    seed
});

/// Per-sensor feature extraction (shared by all implementations).
pub fn run_sense(params: &SenseParams) -> u64 {
    occupy(Duration::from_micros(params.cost_micros));
    deterministic_work(
        params.seed ^ ((params.sensor as u64) << 32) ^ params.window as u64,
        8,
    )
}

/// Pairwise fusion step (shared by all implementations).
pub fn run_fuse(acc: u64, feature: u64, cost: Duration) -> u64 {
    occupy(cost);
    deterministic_work(acc ^ feature.rotate_left(23), 4)
}

/// Result of streaming all windows.
#[derive(Clone, Debug)]
pub struct SensorResult {
    /// Fold of fused window outputs (bit-exact across implementations).
    pub checksum: u64,
    /// Per-window end-to-end latency (submit → fused), in submit order.
    pub window_latencies: Vec<Duration>,
    /// Total wall-clock time.
    pub wall: Duration,
}

impl SensorResult {
    /// Mean per-window latency.
    pub fn mean_latency(&self) -> Duration {
        if self.window_latencies.is_empty() {
            return Duration::ZERO;
        }
        self.window_latencies.iter().sum::<Duration>() / self.window_latencies.len() as u32
    }

    /// Worst per-window latency.
    pub fn max_latency(&self) -> Duration {
        self.window_latencies
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

fn fold_windows(outputs: impl IntoIterator<Item = u64>) -> u64 {
    outputs
        .into_iter()
        .fold(0xfeedface, |acc, v| deterministic_work(acc ^ v, 2))
}

/// Windows processed strictly one after another with a stage barrier per
/// window (the BSP shape).
pub fn run_bsp<E: Engine>(config: &SensorConfig, engine: &E) -> SensorResult {
    let start = Instant::now();
    let mut fused = Vec::with_capacity(config.windows);
    let mut latencies = Vec::with_capacity(config.windows);
    for window in 0..config.windows {
        let window_start = Instant::now();
        let stage: Vec<StageTask<u64>> = (0..config.sensors)
            .map(|sensor| {
                let params = SenseParams {
                    sensor: sensor as u32,
                    window: window as u32,
                    cost_micros: config.sensor_cost(sensor).as_micros() as u64,
                    seed: config.seed,
                };
                Box::new(move || run_sense(&params)) as StageTask<u64>
            })
            .collect();
        let features = engine.run_stage(stage);
        let mut acc = 0u64;
        for feature in features {
            acc = run_fuse(acc, feature, config.fuse_cost);
        }
        fused.push(acc);
        latencies.push(window_start.elapsed());
    }
    SensorResult {
        checksum: fold_windows(fused),
        window_latencies: latencies,
        wall: start.elapsed(),
    }
}

/// The rtml task functions.
pub struct SensorFuncs {
    /// Feature extraction.
    pub sense: Func2<SenseParams, u64, u64>,
    /// Pairwise fusion (`cost_micros` inline).
    pub fuse: Func2<u64, u64, u64>,
}

impl SensorFuncs {
    /// Registers the stream functions on `cluster`. The fuse cost is
    /// captured at registration time.
    pub fn register(cluster: &Cluster, fuse_cost: Duration) -> SensorFuncs {
        SensorFuncs {
            sense: cluster.register_fn2("sensor_sense", |params: SenseParams, _tag: u64| {
                Ok(run_sense(&params))
            }),
            fuse: cluster.register_fn2("sensor_fuse", move |acc: u64, feature: u64| {
                Ok(run_fuse(acc, feature, fuse_cost))
            }),
        }
    }
}

/// Dataflow streaming: every window's graph is submitted up front;
/// windows overlap freely; completions are observed with `wait` so each
/// window's latency is measured at the moment its fusion seals.
pub fn run_rtml(
    config: &SensorConfig,
    driver: &Driver,
    funcs: &SensorFuncs,
) -> Result<SensorResult> {
    let start = Instant::now();
    let mut fusion_futs: Vec<ObjectRef<u64>> = Vec::with_capacity(config.windows);
    let mut submit_times = Vec::with_capacity(config.windows);
    for window in 0..config.windows {
        submit_times.push(start.elapsed());
        let mut acc: Option<ObjectRef<u64>> = None;
        for sensor in 0..config.sensors {
            let params = SenseParams {
                sensor: sensor as u32,
                window: window as u32,
                cost_micros: config.sensor_cost(sensor).as_micros() as u64,
                seed: config.seed,
            };
            let feature = driver.submit2(&funcs.sense, params, 0u64)?;
            acc = Some(match acc {
                None => {
                    // Seed the fold with acc = 0 fused with the first
                    // feature, matching the BSP order exactly.
                    driver.submit2(&funcs.fuse, 0u64, feature)?
                }
                Some(prev) => driver.submit2(&funcs.fuse, prev, feature)?,
            });
        }
        fusion_futs.push(acc.expect("at least one sensor"));
    }

    // Observe completions as they happen.
    let mut latencies = vec![Duration::ZERO; config.windows];
    let mut pending: Vec<ObjectRef<u64>> = fusion_futs.clone();
    while !pending.is_empty() {
        let (ready, rest) = driver.wait(&pending, 1, Duration::from_secs(60));
        let now = start.elapsed();
        for fut in &ready {
            let index = fusion_futs
                .iter()
                .position(|f| f == fut)
                .expect("known fusion");
            latencies[index] = now - submit_times[index];
        }
        pending = rest;
    }

    let mut fused = Vec::with_capacity(config.windows);
    for fut in &fusion_futs {
        fused.push(driver.get(fut)?);
    }
    Ok(SensorResult {
        checksum: fold_windows(fused),
        window_latencies: latencies,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::SerialEngine;
    use rtml_runtime::ClusterConfig;

    fn fast() -> SensorConfig {
        SensorConfig {
            sensors: 3,
            base_cost: Duration::ZERO,
            fuse_cost: Duration::ZERO,
            windows: 4,
            ..SensorConfig::default()
        }
    }

    #[test]
    fn bsp_is_deterministic() {
        let a = run_bsp(&fast(), &SerialEngine);
        let b = run_bsp(&fast(), &SerialEngine);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.window_latencies.len(), 4);
    }

    #[test]
    fn rtml_matches_bsp_checksum() {
        let bsp = run_bsp(&fast(), &SerialEngine);
        let cluster = Cluster::start(ClusterConfig::local(2, 3)).unwrap();
        let funcs = SensorFuncs::register(&cluster, Duration::ZERO);
        let driver = cluster.driver();
        let rtml = run_rtml(&fast(), &driver, &funcs).unwrap();
        assert_eq!(bsp.checksum, rtml.checksum);
        assert_eq!(rtml.window_latencies.len(), 4);
        assert!(rtml.window_latencies.iter().all(|l| *l > Duration::ZERO));
        cluster.shutdown();
    }

    #[test]
    fn sensor_costs_are_heterogeneous() {
        let config = SensorConfig::default();
        assert_eq!(config.sensor_cost(0), Duration::from_millis(1));
        assert_eq!(config.sensor_cost(5), Duration::from_millis(6));
    }

    #[test]
    fn latency_helpers() {
        let result = SensorResult {
            checksum: 0,
            window_latencies: vec![
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::from_millis(6),
            ],
            wall: Duration::from_millis(10),
        };
        assert_eq!(result.mean_latency(), Duration::from_millis(4));
        assert_eq!(result.max_latency(), Duration::from_millis(6));
    }
}
