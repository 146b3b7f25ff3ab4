//! A deterministic arcade-style environment.
//!
//! Substitute for the Atari emulator in the paper's §4.2 experiment.
//! What the experiment measures is *system overhead around many ~7 ms
//! simulation tasks*, so the requirements on the environment are: a
//! real per-step CPU cost, observation/reward outputs that depend
//! deterministically on the action sequence, and cheap reseeding for
//! parallel rollouts. This implementation provides exactly that: a
//! 64-bit mixing state machine (so replays are bit-identical) plus a
//! calibrated busy-work kernel per frame.

use std::time::Duration;

use rtml_common::time::{deterministic_work, occupy};

/// Environment parameters.
#[derive(Clone, Debug)]
pub struct AtariConfig {
    /// Wall-clock compute burned per frame (the "emulator" cost).
    pub frame_cost: Duration,
    /// Observation vector length.
    pub obs_dim: usize,
    /// Episode length cap.
    pub max_steps: u32,
}

impl Default for AtariConfig {
    fn default() -> Self {
        AtariConfig {
            frame_cost: Duration::from_micros(700),
            obs_dim: 16,
            max_steps: 1000,
        }
    }
}

/// One step's outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct StepResult {
    /// Observation after the step.
    pub obs: Vec<f64>,
    /// Reward in `[0, 1)`.
    pub reward: f64,
    /// Whether the episode ended.
    pub done: bool,
}

/// The simulator. Cheap to construct; every episode is reproducible from
/// its seed.
#[derive(Clone, Debug)]
pub struct AtariSim {
    config: AtariConfig,
    state: u64,
    steps: u32,
}

impl AtariSim {
    /// Starts an episode from `seed`.
    pub fn new(config: AtariConfig, seed: u64) -> AtariSim {
        AtariSim {
            config,
            state: deterministic_work(seed ^ 0xa7a71, 4),
            steps: 0,
        }
    }

    /// The raw internal state (used by MCTS to branch simulations).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Restores a simulator at an arbitrary state (MCTS re-rooting).
    pub fn from_state(config: AtariConfig, state: u64, steps: u32) -> AtariSim {
        AtariSim {
            config,
            state,
            steps,
        }
    }

    /// The current observation, derived from the state.
    pub fn observation(&self) -> Vec<f64> {
        let mut obs = Vec::with_capacity(self.config.obs_dim);
        let mut x = self.state;
        for _ in 0..self.config.obs_dim {
            x = deterministic_work(x, 1);
            // Map to [-1, 1) for policy-friendly inputs.
            obs.push(((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
        }
        obs
    }

    /// Advances one frame with `action`, paying the configured compute
    /// cost.
    pub fn step(&mut self, action: u32) -> StepResult {
        occupy(self.config.frame_cost);
        self.state = deterministic_work(self.state ^ (action as u64).wrapping_mul(0x9e37), 2);
        self.steps += 1;
        let reward = (self.state >> 40) as f64 / (1u64 << 24) as f64;
        let done = self.steps >= self.config.max_steps || self.state & 0x3ff == 0;
        StepResult {
            obs: self.observation(),
            reward,
            done,
        }
    }

    /// Runs `frames` steps with a fixed action, summing rewards; used by
    /// rollout tasks. Returns (obs sum vector, total reward).
    pub fn rollout(
        &mut self,
        frames: u32,
        mut pick_action: impl FnMut(&[f64]) -> u32,
    ) -> (Vec<f64>, f64) {
        let mut obs_sum = vec![0.0; self.config.obs_dim];
        let mut total = 0.0;
        let mut obs = self.observation();
        for _ in 0..frames {
            let action = pick_action(&obs);
            let step = self.step(action);
            for (acc, v) in obs_sum.iter_mut().zip(&step.obs) {
                *acc += v;
            }
            total += step.reward;
            obs = step.obs;
            if step.done {
                break;
            }
        }
        (obs_sum, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> AtariConfig {
        AtariConfig {
            frame_cost: Duration::ZERO,
            obs_dim: 8,
            max_steps: 100,
        }
    }

    #[test]
    fn episodes_are_deterministic() {
        let mut a = AtariSim::new(fast_config(), 7);
        let mut b = AtariSim::new(fast_config(), 7);
        for action in [0u32, 1, 2, 3, 2, 1] {
            assert_eq!(a.step(action), b.step(action));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = AtariSim::new(fast_config(), 1);
        let mut b = AtariSim::new(fast_config(), 2);
        assert_ne!(a.step(0).obs, b.step(0).obs);
    }

    #[test]
    fn actions_change_trajectories() {
        let mut a = AtariSim::new(fast_config(), 7);
        let mut b = AtariSim::new(fast_config(), 7);
        a.step(0);
        b.step(1);
        assert_ne!(a.state(), b.state());
    }

    #[test]
    fn observation_is_bounded() {
        let sim = AtariSim::new(fast_config(), 3);
        for v in sim.observation() {
            assert!((-1.0..1.0).contains(&v), "{v}");
        }
        assert_eq!(sim.observation().len(), 8);
    }

    #[test]
    fn episode_caps_at_max_steps() {
        let mut sim = AtariSim::new(
            AtariConfig {
                max_steps: 5,
                ..fast_config()
            },
            9,
        );
        let mut dones = 0;
        for _ in 0..5 {
            if sim.step(0).done {
                dones += 1;
            }
        }
        assert!(dones >= 1);
        assert!(sim.steps() <= 5);
    }

    #[test]
    fn frame_cost_burns_time() {
        let mut sim = AtariSim::new(
            AtariConfig {
                frame_cost: Duration::from_millis(3),
                ..fast_config()
            },
            1,
        );
        let start = std::time::Instant::now();
        sim.step(0);
        assert!(start.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn rollout_accumulates() {
        let mut sim = AtariSim::new(fast_config(), 11);
        let (obs_sum, reward) = sim.rollout(10, |_| 1);
        assert_eq!(obs_sum.len(), 8);
        assert!(reward >= 0.0);
        assert!(sim.steps() > 0);
    }

    #[test]
    fn from_state_resumes_identically() {
        let mut a = AtariSim::new(fast_config(), 5);
        a.step(2);
        let mut b = AtariSim::from_state(fast_config(), a.state(), a.steps());
        assert_eq!(a.step(1), b.step(1));
    }
}
