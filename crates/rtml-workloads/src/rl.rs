//! The paper's §4.2 RL workload: alternating parallel-simulation and
//! GPU-policy stages.
//!
//! "The workload alternates between stages in which actions are taken in
//! parallel simulations and actions are computed in parallel on GPUs.
//! Despite the BSP nature of the example, an implementation in Spark is
//! 9x slower than the single-threaded implementation due to system
//! overhead. An implementation in our prototype is 7x faster than the
//! single-threaded version and 63x faster than the Spark
//! implementation."
//!
//! Three implementations of the *same* computation (bit-identical
//! checksums):
//!
//! - [`run_serial`] / [`run_engine`] — one code path over any
//!   [`Engine`] (the serial and BSP baselines);
//! - [`run_rtml`] — futures chained through the cluster: simulation
//!   tasks take the policy future as an argument, the GPU update task
//!   consumes their aggregate, and its output future feeds the next
//!   iteration's simulations;
//! - [`run_rtml_pipelined`] vs [`run_rtml_batched`] — the paper's
//!   closing remark about `wait`: process simulations in completion
//!   order to pipeline them with GPU work.
//!
//! Per the paper's own footnote, the GPU policy step is *not* charged
//! BSP overhead ("numbers are reported as if it had been perfectly
//! parallelized with no overhead in Spark"): [`run_engine`] runs the
//! update inline at the driver.

use std::time::{Duration, Instant};

use rtml_common::error::Result;
use rtml_common::impl_codec_struct;
use rtml_common::resources::Resources;
use rtml_common::time::occupy;
use rtml_runtime::{Cluster, Driver, Func2, Func4, ObjectRef, TaskOptions};

use crate::atari::{AtariConfig, AtariSim};
use crate::baselines::{Engine, StageTask};
use crate::policy::{Device, LinearPolicy};

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct RlConfig {
    /// Parallel rollouts per iteration.
    pub rollouts: usize,
    /// Frames per simulation task (frames × frame cost ≈ the paper's
    /// ~7 ms tasks).
    pub frames_per_task: u32,
    /// Compute burned per frame.
    pub frame_cost: Duration,
    /// Training iterations (sim stage + policy stage each).
    pub iterations: usize,
    /// Observation dimension.
    pub obs_dim: u32,
    /// Action count.
    pub n_actions: u32,
    /// GPU kernel cost for the policy stage.
    pub policy_kernel_cost: Duration,
    /// GPU speedup over CPU for that kernel.
    pub gpu_speedup: f64,
    /// Every k-th rollout runs `straggler_factor` slower (0 = none).
    pub straggler_every: usize,
    /// Slowdown multiplier for stragglers.
    pub straggler_factor: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            rollouts: 8,
            frames_per_task: 10,
            frame_cost: Duration::from_micros(700),
            iterations: 5,
            obs_dim: 16,
            n_actions: 4,
            policy_kernel_cost: Duration::from_millis(5),
            gpu_speedup: 10.0,
            straggler_every: 0,
            straggler_factor: 1.0,
            seed: 0xC0FFEE,
        }
    }
}

impl RlConfig {
    fn sim_params(&self, iter: usize, rollout: usize) -> SimTaskParams {
        let mut frame_cost_micros = self.frame_cost.as_micros() as u64;
        if self.straggler_every > 0 && rollout % self.straggler_every == self.straggler_every - 1 {
            frame_cost_micros = (frame_cost_micros as f64 * self.straggler_factor) as u64;
        }
        SimTaskParams {
            iter: iter as u64,
            rollout: rollout as u64,
            seed: self.seed,
            frames: self.frames_per_task,
            frame_cost_micros,
            obs_dim: self.obs_dim,
        }
    }

    fn kernel_params(&self) -> KernelParams {
        KernelParams {
            cost_micros: self.policy_kernel_cost.as_micros() as u64,
            gpu_speedup_milli: (self.gpu_speedup * 1000.0) as u64,
        }
    }

    /// Whether the policy stage should demand a GPU (the harness only
    /// asks for one if the cluster has one).
    pub fn policy_options(&self, cluster_has_gpu: bool) -> TaskOptions {
        if cluster_has_gpu {
            TaskOptions::resources(Resources::new(0.0, 1.0))
        } else {
            TaskOptions::cpu(1.0)
        }
    }
}

/// Everything a simulation task needs, serializable for the task spec.
#[derive(Clone, Debug, PartialEq)]
pub struct SimTaskParams {
    /// Iteration index.
    pub iter: u64,
    /// Rollout index within the iteration.
    pub rollout: u64,
    /// Master seed.
    pub seed: u64,
    /// Frames to simulate.
    pub frames: u32,
    /// Per-frame compute cost (already straggler-adjusted).
    pub frame_cost_micros: u64,
    /// Observation dimension.
    pub obs_dim: u32,
}

impl_codec_struct!(SimTaskParams {
    iter,
    rollout,
    seed,
    frames,
    frame_cost_micros,
    obs_dim
});

/// A simulation task's result.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutput {
    /// Element-wise sum of observations seen.
    pub obs_sum: Vec<f64>,
    /// Total reward.
    pub reward: f64,
}

impl_codec_struct!(SimOutput { obs_sum, reward });

/// GPU kernel cost description (fixed-point speedup for codec
/// determinism).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelParams {
    /// Kernel cost in microseconds.
    pub cost_micros: u64,
    /// Speedup ×1000 (e.g. 10000 = 10x).
    pub gpu_speedup_milli: u64,
}

impl_codec_struct!(KernelParams {
    cost_micros,
    gpu_speedup_milli
});

impl KernelParams {
    /// The device this kernel models.
    pub fn device(&self) -> Device {
        if self.gpu_speedup_milli > 1000 {
            Device::Gpu {
                speedup: self.gpu_speedup_milli as f64 / 1000.0,
            }
        } else {
            Device::Cpu
        }
    }

    /// The kernel cost.
    pub fn cost(&self) -> Duration {
        Duration::from_micros(self.cost_micros)
    }
}

/// Result of one full training run.
#[derive(Clone, Debug, PartialEq)]
pub struct RlResult {
    /// Wall-clock time.
    pub wall: Duration,
    /// Bit-exact checksum of the final policy (cross-engine equality).
    pub checksum: u64,
    /// Total reward accumulated (bit pattern, for exact comparison).
    pub total_reward_bits: u64,
    /// Simulation tasks executed.
    pub sim_tasks: usize,
}

/// The simulation task body, shared verbatim by every engine.
pub fn run_sim_task(params: &SimTaskParams, policy: &LinearPolicy) -> SimOutput {
    let config = AtariConfig {
        frame_cost: Duration::from_micros(params.frame_cost_micros),
        obs_dim: params.obs_dim as usize,
        max_steps: u32::MAX,
    };
    let episode_seed = params
        .seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(params.iter * 1_000_003 + params.rollout);
    let mut sim = AtariSim::new(config, episode_seed);
    let (obs_sum, reward) = sim.rollout(params.frames, |obs| policy.act(obs));
    SimOutput { obs_sum, reward }
}

/// Aggregates simulation outputs in rollout-index order (float-order
/// discipline: every engine aggregates identically).
pub fn aggregate(outputs: &[SimOutput], obs_dim: usize) -> (Vec<f64>, f64) {
    let mut agg = vec![0.0; obs_dim];
    let mut reward = 0.0;
    for output in outputs {
        for (a, v) in agg.iter_mut().zip(&output.obs_sum) {
            *a += v;
        }
        reward += output.reward;
    }
    (agg, reward)
}

/// The policy-stage body, shared verbatim by every engine: pays the
/// (device-scaled) kernel cost and applies the deterministic update.
pub fn run_update_task(
    mut policy: LinearPolicy,
    agg_obs: &[f64],
    reward: f64,
    kernel: &KernelParams,
) -> LinearPolicy {
    occupy(kernel.device().scale(kernel.cost()));
    policy.update(agg_obs, reward);
    policy
}

/// Runs the workload on any bulk-synchronous [`Engine`].
pub fn run_engine<E: Engine>(config: &RlConfig, engine: &E) -> RlResult {
    let start = Instant::now();
    let mut policy = LinearPolicy::new(config.obs_dim, config.n_actions, config.seed);
    let kernel = config.kernel_params();
    let mut total_reward = 0.0;
    let mut sim_tasks = 0;
    for iter in 0..config.iterations {
        let stage: Vec<StageTask<SimOutput>> = (0..config.rollouts)
            .map(|rollout| {
                let params = config.sim_params(iter, rollout);
                let policy = policy.clone();
                Box::new(move || run_sim_task(&params, &policy)) as StageTask<SimOutput>
            })
            .collect();
        let outputs = engine.run_stage(stage);
        sim_tasks += outputs.len();
        let (agg, reward) = aggregate(&outputs, config.obs_dim as usize);
        total_reward += reward;
        // Policy stage: per the paper's footnote, not charged engine
        // overhead (run inline, device-scaled cost only).
        policy = run_update_task(policy, &agg, reward, &kernel);
    }
    RlResult {
        wall: start.elapsed(),
        checksum: policy.checksum(),
        total_reward_bits: total_reward.to_bits(),
        sim_tasks,
    }
}

/// Single-threaded reference (the paper's baseline of record).
pub fn run_serial(config: &RlConfig) -> RlResult {
    run_engine(config, &crate::baselines::SerialEngine)
}

/// The rtml task functions, registered once per cluster.
pub struct RlFuncs {
    /// Simulation rollout task.
    pub sim: Func2<SimTaskParams, LinearPolicy, SimOutput>,
    /// Policy update task.
    pub update: Func4<LinearPolicy, Vec<f64>, f64, KernelParams, LinearPolicy>,
    /// Per-rollout scoring task (pipelining experiment).
    pub score: Func2<SimOutput, KernelParams, f64>,
}

impl RlFuncs {
    /// Registers the workload's functions on `cluster`.
    pub fn register(cluster: &Cluster) -> RlFuncs {
        RlFuncs {
            sim: cluster.register_fn2("rl_sim", |params: SimTaskParams, policy: LinearPolicy| {
                Ok(run_sim_task(&params, &policy))
            }),
            update: cluster.register_fn4(
                "rl_update",
                |policy: LinearPolicy, agg: Vec<f64>, reward: f64, kernel: KernelParams| {
                    Ok(run_update_task(policy, &agg, reward, &kernel))
                },
            ),
            score: cluster.register_fn2("rl_score", |output: SimOutput, kernel: KernelParams| {
                occupy(kernel.device().scale(kernel.cost()));
                // Deterministic scalar score.
                let s: f64 = output.obs_sum.iter().sum::<f64>() + output.reward;
                Ok(s)
            }),
        }
    }
}

/// Runs the workload on an rtml cluster: simulations fan out as tasks,
/// the policy future chains between iterations (a pure dataflow loop).
pub fn run_rtml(
    config: &RlConfig,
    driver: &Driver,
    funcs: &RlFuncs,
    cluster_has_gpu: bool,
) -> Result<RlResult> {
    let start = Instant::now();
    let kernel = config.kernel_params();
    let initial = LinearPolicy::new(config.obs_dim, config.n_actions, config.seed);
    let mut policy_ref: ObjectRef<LinearPolicy> = driver.put(&initial)?;
    let mut total_reward = 0.0;
    let mut sim_tasks = 0;
    for iter in 0..config.iterations {
        let sim_futs: Vec<ObjectRef<SimOutput>> = (0..config.rollouts)
            .map(|rollout| driver.submit2(&funcs.sim, config.sim_params(iter, rollout), policy_ref))
            .collect::<Result<_>>()?;
        sim_tasks += sim_futs.len();
        // Gather in index order (same float order as the baselines).
        let mut outputs = Vec::with_capacity(sim_futs.len());
        for fut in &sim_futs {
            outputs.push(driver.get(fut)?);
        }
        let (agg, reward) = aggregate(&outputs, config.obs_dim as usize);
        total_reward += reward;
        policy_ref = driver.submit4_opts(
            &funcs.update,
            policy_ref,
            agg,
            reward,
            kernel.clone(),
            config.policy_options(cluster_has_gpu),
        )?;
    }
    let final_policy = driver.get(&policy_ref)?;
    Ok(RlResult {
        wall: start.elapsed(),
        checksum: final_policy.checksum(),
        total_reward_bits: total_reward.to_bits(),
        sim_tasks,
    })
}

/// Pipelining helper: one iteration's sims, each post-processed by a GPU scoring
/// task **as it completes** (`wait`-driven pipelining). Returns the
/// fold of scores in rollout order plus the makespan.
pub fn run_rtml_pipelined(
    config: &RlConfig,
    driver: &Driver,
    funcs: &RlFuncs,
    cluster_has_gpu: bool,
) -> Result<(f64, Duration)> {
    let start = Instant::now();
    let kernel = config.kernel_params();
    let policy = LinearPolicy::new(config.obs_dim, config.n_actions, config.seed);
    let policy_ref = driver.put(&policy)?;
    let sim_futs: Vec<ObjectRef<SimOutput>> = (0..config.rollouts)
        .map(|rollout| driver.submit2(&funcs.sim, config.sim_params(0, rollout), policy_ref))
        .collect::<Result<_>>()?;

    // As each simulation finishes, immediately submit its scoring task:
    // GPU work overlaps the remaining simulations (the paper's wait
    // pipelining).
    let mut pending: Vec<ObjectRef<SimOutput>> = sim_futs.clone();
    let mut score_futs: Vec<(usize, ObjectRef<f64>)> = Vec::new();
    while !pending.is_empty() {
        let (ready, rest) = driver.wait(&pending, 1, Duration::from_secs(60));
        for fut in ready {
            let index = sim_futs
                .iter()
                .position(|f| *f == fut)
                .expect("known future");
            let score = driver.submit2_opts(
                &funcs.score,
                fut,
                kernel.clone(),
                config.policy_options(cluster_has_gpu),
            )?;
            score_futs.push((index, score));
        }
        pending = rest;
    }
    // Fold in rollout order for determinism.
    score_futs.sort_by_key(|(i, _)| *i);
    let mut total = 0.0;
    for (_, fut) in &score_futs {
        total += driver.get(fut)?;
    }
    Ok((total, start.elapsed()))
}

/// Pipelining baseline: wait for **all** simulations, then score them (no
/// overlap).
pub fn run_rtml_batched(
    config: &RlConfig,
    driver: &Driver,
    funcs: &RlFuncs,
    cluster_has_gpu: bool,
) -> Result<(f64, Duration)> {
    let start = Instant::now();
    let kernel = config.kernel_params();
    let policy = LinearPolicy::new(config.obs_dim, config.n_actions, config.seed);
    let policy_ref = driver.put(&policy)?;
    let sim_futs: Vec<ObjectRef<SimOutput>> = (0..config.rollouts)
        .map(|rollout| driver.submit2(&funcs.sim, config.sim_params(0, rollout), policy_ref))
        .collect::<Result<_>>()?;
    // Barrier: all sims first.
    let (ready, pending) = driver.wait(&sim_futs, sim_futs.len(), Duration::from_secs(120));
    debug_assert!(pending.is_empty());
    debug_assert_eq!(ready.len(), sim_futs.len());
    let mut score_futs = Vec::new();
    for fut in &sim_futs {
        score_futs.push(driver.submit2_opts(
            &funcs.score,
            fut,
            kernel.clone(),
            config.policy_options(cluster_has_gpu),
        )?);
    }
    let mut total = 0.0;
    for fut in &score_futs {
        total += driver.get(fut)?;
    }
    Ok((total, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{BspConfig, BspEngine};
    use rtml_runtime::ClusterConfig;

    fn tiny() -> RlConfig {
        RlConfig {
            rollouts: 4,
            frames_per_task: 3,
            frame_cost: Duration::ZERO,
            iterations: 2,
            policy_kernel_cost: Duration::ZERO,
            ..RlConfig::default()
        }
    }

    #[test]
    fn serial_is_deterministic() {
        let a = run_serial(&tiny());
        let b = run_serial(&tiny());
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.total_reward_bits, b.total_reward_bits);
        assert_eq!(a.sim_tasks, 8);
    }

    #[test]
    fn bsp_matches_serial_bit_for_bit() {
        let serial = run_serial(&tiny());
        let engine = BspEngine::new(BspConfig {
            workers: 4,
            per_task_overhead: Duration::ZERO,
            per_stage_overhead: Duration::ZERO,
        });
        let bsp = run_engine(&tiny(), &engine);
        assert_eq!(serial.checksum, bsp.checksum);
        assert_eq!(serial.total_reward_bits, bsp.total_reward_bits);
    }

    #[test]
    fn rtml_matches_serial_bit_for_bit() {
        let serial = run_serial(&tiny());
        let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
        let funcs = RlFuncs::register(&cluster);
        let driver = cluster.driver();
        let rtml = run_rtml(&tiny(), &driver, &funcs, false).unwrap();
        assert_eq!(serial.checksum, rtml.checksum);
        assert_eq!(serial.total_reward_bits, rtml.total_reward_bits);
        assert_eq!(rtml.sim_tasks, 8);
        cluster.shutdown();
    }

    #[test]
    fn pipelined_and_batched_agree_on_value() {
        let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
        let funcs = RlFuncs::register(&cluster);
        let driver = cluster.driver();
        let config = tiny();
        let (a, _) = run_rtml_pipelined(&config, &driver, &funcs, false).unwrap();
        let (b, _) = run_rtml_batched(&config, &driver, &funcs, false).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        cluster.shutdown();
    }

    #[test]
    fn stragglers_slow_down_marked_rollouts() {
        let config = RlConfig {
            straggler_every: 4,
            straggler_factor: 8.0,
            frame_cost: Duration::from_micros(100),
            ..tiny()
        };
        let normal = config.sim_params(0, 0);
        let straggler = config.sim_params(0, 3);
        assert_eq!(normal.frame_cost_micros, 100);
        assert_eq!(straggler.frame_cost_micros, 800);
    }

    #[test]
    fn kernel_params_device_mapping() {
        let gpu = KernelParams {
            cost_micros: 100,
            gpu_speedup_milli: 8000,
        };
        assert_eq!(gpu.device(), Device::Gpu { speedup: 8.0 });
        let cpu = KernelParams {
            cost_micros: 100,
            gpu_speedup_milli: 1000,
        };
        assert_eq!(cpu.device(), Device::Cpu);
    }
}
