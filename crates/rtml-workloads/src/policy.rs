//! A linear policy with device-dependent batched evaluation.
//!
//! Stands in for the paper's GPU-evaluated neural-network policy. The
//! policy is a real `obs_dim × n_actions` weight matrix: `act` computes
//! a genuine matrix-vector product, and the policy step pays a
//! configurable kernel cost that a [`Device::Gpu`] divides by its
//! speedup — giving the scheduler a true heterogeneity decision (R4)
//! without real CUDA.

use std::time::Duration;

use rtml_common::impl_codec_struct;
use rtml_common::time::deterministic_work;

/// Where the policy kernel runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Device {
    /// Plain CPU execution.
    Cpu,
    /// Accelerated execution: kernel cost divided by `speedup`.
    Gpu {
        /// How many times faster than CPU.
        speedup: f64,
    },
}

impl Device {
    /// A kernel's cost on this device: `cost` divided by the speedup.
    pub fn scale(self, cost: Duration) -> Duration {
        match self {
            Device::Cpu => cost,
            Device::Gpu { speedup } => {
                if speedup <= 1.0 {
                    cost
                } else {
                    cost.div_f64(speedup)
                }
            }
        }
    }
}

/// A deterministic linear policy.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearPolicy {
    /// Row-major `n_actions × obs_dim` weights.
    pub weights: Vec<f64>,
    /// Observation dimension.
    pub obs_dim: u32,
    /// Number of discrete actions.
    pub n_actions: u32,
    /// Update counter.
    pub version: u64,
}

impl_codec_struct!(LinearPolicy {
    weights,
    obs_dim,
    n_actions,
    version
});

impl LinearPolicy {
    /// Builds a policy with deterministic pseudo-random weights.
    pub fn new(obs_dim: u32, n_actions: u32, seed: u64) -> LinearPolicy {
        let mut weights = Vec::with_capacity((obs_dim * n_actions) as usize);
        let mut x = seed ^ 0x51f0;
        for _ in 0..obs_dim * n_actions {
            x = deterministic_work(x, 1);
            weights.push(((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5);
        }
        LinearPolicy {
            weights,
            obs_dim,
            n_actions,
            version: 0,
        }
    }

    /// Greedy action for one observation (a real mat-vec product).
    pub fn act(&self, obs: &[f64]) -> u32 {
        debug_assert_eq!(obs.len(), self.obs_dim as usize);
        let mut best = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        for a in 0..self.n_actions {
            let row = &self.weights[(a * self.obs_dim) as usize..((a + 1) * self.obs_dim) as usize];
            let score: f64 = row.iter().zip(obs).map(|(w, o)| w * o).sum();
            if score > best_score {
                best_score = score;
                best = a;
            }
        }
        best
    }

    /// Deterministic policy update from aggregated rollout statistics
    /// (a stand-in for a gradient step: nudges weights toward the
    /// observation aggregate, scaled by reward).
    pub fn update(&mut self, obs_aggregate: &[f64], total_reward: f64) {
        debug_assert_eq!(obs_aggregate.len(), self.obs_dim as usize);
        let lr = 1e-3 * (1.0 + total_reward).ln().max(0.0);
        for a in 0..self.n_actions as usize {
            for (i, agg) in obs_aggregate.iter().enumerate() {
                let w = &mut self.weights[a * self.obs_dim as usize + i];
                *w += lr * agg * if a % 2 == 0 { 1.0 } else { -1.0 };
            }
        }
        self.version += 1;
    }

    /// Bit-exact checksum over the weights, for cross-engine equality
    /// assertions.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0xcbf29ce484222325u64 ^ self.version;
        for w in &self.weights {
            acc = deterministic_work(acc ^ w.to_bits(), 1);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::codec::{decode_from_slice, encode_to_bytes};

    #[test]
    fn construction_is_deterministic() {
        let a = LinearPolicy::new(8, 4, 42);
        let b = LinearPolicy::new(8, 4, 42);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), LinearPolicy::new(8, 4, 43).checksum());
    }

    #[test]
    fn act_picks_argmax() {
        let mut p = LinearPolicy::new(2, 2, 1);
        // Force action 1 to dominate.
        p.weights = vec![0.0, 0.0, 1.0, 1.0];
        assert_eq!(p.act(&[1.0, 1.0]), 1);
        p.weights = vec![1.0, 1.0, 0.0, 0.0];
        assert_eq!(p.act(&[1.0, 1.0]), 0);
    }

    #[test]
    fn update_changes_weights_and_version() {
        let mut p = LinearPolicy::new(4, 2, 7);
        let before = p.checksum();
        p.update(&[0.5, -0.5, 0.1, 0.9], 3.0);
        assert_ne!(p.checksum(), before);
        assert_eq!(p.version, 1);
    }

    #[test]
    fn updates_are_deterministic() {
        let mut a = LinearPolicy::new(4, 2, 7);
        let mut b = LinearPolicy::new(4, 2, 7);
        a.update(&[1.0, 2.0, 3.0, 4.0], 2.0);
        b.update(&[1.0, 2.0, 3.0, 4.0], 2.0);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn gpu_is_faster_than_cpu() {
        let cost = Duration::from_millis(20);
        assert_eq!(Device::Cpu.scale(cost), cost);
        assert_eq!(Device::Gpu { speedup: 10.0 }.scale(cost), cost / 10);
        // A "GPU" no faster than the CPU costs what the CPU does.
        assert_eq!(Device::Gpu { speedup: 0.5 }.scale(cost), cost);
    }

    #[test]
    fn policy_round_trips_through_codec() {
        let p = LinearPolicy::new(6, 3, 9);
        let bytes = encode_to_bytes(&p);
        let back: LinearPolicy = decode_from_slice(&bytes).unwrap();
        assert_eq!(p, back);
    }
}
