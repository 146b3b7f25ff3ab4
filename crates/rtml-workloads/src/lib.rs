//! The workloads behind the paper's figures and evaluation.
//!
//! | Module | Paper reference | What it models |
//! |---|---|---|
//! | [`baselines`] | §4.2 | The comparators: a serial engine and a driver-bound BSP (Spark-model) engine, behind one [`baselines::Engine`] trait |
//! | [`atari`] | §4.2 | A deterministic arcade-style environment with a real per-frame CPU cost (the ALE substitute; its module docs say what is kept) |
//! | [`policy`] | §4.2 | A linear policy that acts by a real matrix product; its update kernel runs faster on a "GPU" (a resource-gated speedup) |
//! | [`rl`] | §4.2 | The RL training loop that yields the 63x comparison: serial vs BSP vs rtml, plus the `wait`-pipelined variant |
//! | [`mcts`] | Fig. 2b | Monte Carlo tree search with dynamically created simulation tasks (R3) |
//! | [`rnn`] | Fig. 2c | A recurrent network's (layer, timestep) grid with heterogeneous cell costs and fine-grained dataflow deps (R4, R5) |
//! | [`sensors`] | Fig. 2a | Heterogeneous streaming sensor fusion with per-window latency accounting (R1) |
//!
//! Every workload is **deterministic given its seed**: the serial, BSP,
//! and rtml implementations produce bit-identical checksums, which is
//! both a cross-engine correctness test and the property lineage replay
//! needs.

pub mod atari;
pub mod baselines;
pub mod mcts;
pub mod policy;
pub mod rl;
pub mod rnn;
pub mod sensors;

// The engines behind `baselines`, which is their one public path.
mod bsp;
mod serial;
