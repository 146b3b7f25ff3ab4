//! Recurrent-network task graphs with heterogeneous cell costs (paper
//! Figure 2c).
//!
//! "Heterogeneous tasks in recurrent neural networks … the RNN consists
//! of different functions for each 'layer', each of which may require
//! different amounts of computation." The computation is a grid of
//! cells: cell `(l, t)` consumes the same layer's previous timestep
//! `(l, t-1)` and the previous layer's same timestep `(l-1, t)` — a
//! fine-grained dependency structure that BSP can only approximate with
//! anti-diagonal *waves* (a barrier per wave, each wave as slow as its
//! slowest cell), while a dataflow engine pipelines layers freely (R5).
//!
//! Three bit-identical implementations: [`run_serial`], [`run_bsp`]
//! (wavefront stages), and [`run_rtml`] (one task per cell, futures as
//! edges).

use std::time::{Duration, Instant};

use rtml_common::error::Result;
use rtml_common::impl_codec_struct;
use rtml_common::time::{deterministic_work, occupy};
use rtml_runtime::{Cluster, Driver, Func3, ObjectRef};

use crate::baselines::{Engine, StageTask};

/// Grid parameters.
#[derive(Clone, Debug)]
pub struct RnnConfig {
    /// Layers (grid rows).
    pub layers: usize,
    /// Timesteps (grid columns).
    pub timesteps: usize,
    /// Cost of a layer-0 cell.
    pub base_cell_cost: Duration,
    /// Heterogeneity: layer `l` costs `base * (1 + l * spread)`.
    pub cost_spread: f64,
    /// Seed for boundary inputs.
    pub seed: u64,
}

impl Default for RnnConfig {
    fn default() -> Self {
        RnnConfig {
            layers: 4,
            timesteps: 8,
            base_cell_cost: Duration::from_millis(2),
            cost_spread: 0.75,
            seed: 0x5eed,
        }
    }
}

impl RnnConfig {
    /// The compute cost of a cell in layer `l`.
    pub fn cell_cost(&self, layer: usize) -> Duration {
        self.base_cell_cost
            .mul_f64(1.0 + layer as f64 * self.cost_spread)
    }

    /// Initial hidden state for layer `l` (the `t = -1` column).
    pub fn h0(&self, layer: usize) -> u64 {
        deterministic_work(self.seed ^ (layer as u64) << 8, 3)
    }

    /// Input for timestep `t` (the `l = -1` row).
    pub fn input(&self, t: usize) -> u64 {
        deterministic_work(self.seed ^ (t as u64) << 24, 3)
    }
}

/// Serializable cell description.
#[derive(Clone, Debug, PartialEq)]
pub struct CellParams {
    /// Layer index.
    pub layer: u32,
    /// Timestep index.
    pub t: u32,
    /// Compute cost in microseconds.
    pub cost_micros: u64,
}

impl_codec_struct!(CellParams {
    layer,
    t,
    cost_micros
});

/// The cell body, shared verbatim by all implementations: burns the
/// layer's compute cost and mixes the two inputs deterministically.
pub fn run_cell(params: &CellParams, left: u64, below: u64) -> u64 {
    occupy(Duration::from_micros(params.cost_micros));
    deterministic_work(
        left ^ below.rotate_left(17) ^ ((params.layer as u64) << 32 | params.t as u64),
        4,
    )
}

/// Result of a full grid evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct RnnResult {
    /// Fold of the top layer's outputs across time (bit-exact).
    pub checksum: u64,
    /// Cells computed.
    pub cells: usize,
    /// Wall-clock time.
    pub wall: Duration,
}

fn fold_outputs(outputs: impl IntoIterator<Item = u64>) -> u64 {
    outputs
        .into_iter()
        .fold(0xdeadbeefdeadbeef, |acc, v| deterministic_work(acc ^ v, 2))
}

/// Sequential reference implementation.
pub fn run_serial(config: &RnnConfig) -> RnnResult {
    let start = Instant::now();
    let (layers, timesteps) = (config.layers, config.timesteps);
    let mut grid = vec![vec![0u64; timesteps]; layers];
    for l in 0..layers {
        for t in 0..timesteps {
            let left = if t == 0 { config.h0(l) } else { grid[l][t - 1] };
            let below = if l == 0 {
                config.input(t)
            } else {
                grid[l - 1][t]
            };
            let params = CellParams {
                layer: l as u32,
                t: t as u32,
                cost_micros: config.cell_cost(l).as_micros() as u64,
            };
            grid[l][t] = run_cell(&params, left, below);
        }
    }
    RnnResult {
        checksum: fold_outputs(grid[layers - 1].iter().copied()),
        cells: layers * timesteps,
        wall: start.elapsed(),
    }
}

/// BSP wavefront: one stage per anti-diagonal `l + t = k`; a barrier
/// between waves. Heterogeneous layer costs make each wave as slow as
/// its most expensive cell — the structural cost the paper attributes
/// to forcing fine-grained dependencies into BSP stages.
pub fn run_bsp<E: Engine>(config: &RnnConfig, engine: &E) -> RnnResult {
    let start = Instant::now();
    let (layers, timesteps) = (config.layers, config.timesteps);
    let mut grid = vec![vec![0u64; timesteps]; layers];
    for wave in 0..(layers + timesteps - 1) {
        // Cells on this anti-diagonal.
        let cells: Vec<(usize, usize)> = (0..layers)
            .filter_map(|l| {
                let t = wave.checked_sub(l)?;
                (t < timesteps).then_some((l, t))
            })
            .collect();
        let stage: Vec<StageTask<((usize, usize), u64)>> = cells
            .iter()
            .map(|&(l, t)| {
                let left = if t == 0 { config.h0(l) } else { grid[l][t - 1] };
                let below = if l == 0 {
                    config.input(t)
                } else {
                    grid[l - 1][t]
                };
                let params = CellParams {
                    layer: l as u32,
                    t: t as u32,
                    cost_micros: config.cell_cost(l).as_micros() as u64,
                };
                Box::new(move || ((l, t), run_cell(&params, left, below)))
                    as StageTask<((usize, usize), u64)>
            })
            .collect();
        for ((l, t), value) in engine.run_stage(stage) {
            grid[l][t] = value;
        }
    }
    RnnResult {
        checksum: fold_outputs(grid[layers - 1].iter().copied()),
        cells: layers * timesteps,
        wall: start.elapsed(),
    }
}

/// The *natural* BSP batching of an RNN: one stage per timestep, with
/// the layer chain for that timestep computed sequentially inside the
/// stage (layers within a timestep are chain-dependent, so a
/// stage-per-timestep engine cannot parallelize them). This is how a
/// Spark-style system would actually express the computation; the
/// anti-diagonal wavefront of [`run_bsp`] already requires fine-grained
/// dependency tracking that BSP systems do not offer.
pub fn run_bsp_timestep<E: Engine>(config: &RnnConfig, engine: &E) -> RnnResult {
    let start = Instant::now();
    let (layers, timesteps) = (config.layers, config.timesteps);
    // prev[l] = h(l, t-1) carried between stages.
    let mut prev: Vec<u64> = (0..layers).map(|l| config.h0(l)).collect();
    let mut top_outputs = Vec::with_capacity(timesteps);
    for t in 0..timesteps {
        let input = config.input(t);
        let carried = prev.clone();
        let costs: Vec<u64> = (0..layers)
            .map(|l| config.cell_cost(l).as_micros() as u64)
            .collect();
        // One task: the whole layer chain for timestep t.
        let stage: Vec<StageTask<Vec<u64>>> = vec![Box::new(move || {
            let mut column = Vec::with_capacity(carried.len());
            let mut below = input;
            for (l, cost) in costs.iter().enumerate() {
                let params = CellParams {
                    layer: l as u32,
                    t: t as u32,
                    cost_micros: *cost,
                };
                let value = run_cell(&params, carried[l], below);
                column.push(value);
                below = value;
            }
            column
        })];
        let mut results = engine.run_stage(stage);
        prev = results.pop().expect("one task");
        top_outputs.push(prev[layers - 1]);
    }
    RnnResult {
        checksum: fold_outputs(top_outputs),
        cells: layers * timesteps,
        wall: start.elapsed(),
    }
}

/// The rtml cell task.
pub struct RnnFuncs {
    /// One grid cell.
    pub cell: Func3<CellParams, u64, u64, u64>,
}

impl RnnFuncs {
    /// Registers the cell function on `cluster`.
    pub fn register(cluster: &Cluster) -> RnnFuncs {
        RnnFuncs {
            cell: cluster.register_fn3("rnn_cell", |params: CellParams, left: u64, below: u64| {
                Ok(run_cell(&params, left, below))
            }),
        }
    }
}

/// Fine-grained dataflow: one task per cell, futures as edges. No
/// barriers anywhere — cheap layers race ahead of expensive ones.
pub fn run_rtml(config: &RnnConfig, driver: &Driver, funcs: &RnnFuncs) -> Result<RnnResult> {
    let start = Instant::now();
    let (layers, timesteps) = (config.layers, config.timesteps);
    let mut futures: Vec<Vec<Option<ObjectRef<u64>>>> = vec![vec![None; timesteps]; layers];
    for l in 0..layers {
        for t in 0..timesteps {
            let params = CellParams {
                layer: l as u32,
                t: t as u32,
                cost_micros: config.cell_cost(l).as_micros() as u64,
            };
            // Boundary values are inline arguments; interior edges are
            // futures (dataflow, R5).
            let fut = match (t, l) {
                (0, 0) => driver.submit3(&funcs.cell, params, config.h0(0), config.input(0))?,
                (0, _) => driver.submit3(
                    &funcs.cell,
                    params,
                    config.h0(l),
                    futures[l - 1][t].expect("below computed"),
                )?,
                (_, 0) => driver.submit3(
                    &funcs.cell,
                    params,
                    futures[l][t - 1].expect("left computed"),
                    config.input(t),
                )?,
                (_, _) => driver.submit3(
                    &funcs.cell,
                    params,
                    futures[l][t - 1].expect("left computed"),
                    futures[l - 1][t].expect("below computed"),
                )?,
            };
            futures[l][t] = Some(fut);
        }
    }
    let mut outputs = Vec::with_capacity(timesteps);
    for fut in &futures[layers - 1] {
        outputs.push(driver.get(&fut.expect("top row"))?);
    }
    Ok(RnnResult {
        checksum: fold_outputs(outputs),
        cells: layers * timesteps,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{BspConfig, BspEngine, SerialEngine};
    use rtml_runtime::ClusterConfig;

    fn fast() -> RnnConfig {
        RnnConfig {
            layers: 3,
            timesteps: 5,
            base_cell_cost: Duration::ZERO,
            ..RnnConfig::default()
        }
    }

    #[test]
    fn serial_is_deterministic() {
        assert_eq!(run_serial(&fast()).checksum, run_serial(&fast()).checksum);
    }

    #[test]
    fn bsp_timestep_matches_serial() {
        let serial = run_serial(&fast());
        let per_timestep = run_bsp_timestep(&fast(), &SerialEngine);
        assert_eq!(serial.checksum, per_timestep.checksum);
        assert_eq!(per_timestep.cells, 15);
    }

    #[test]
    fn bsp_wavefront_matches_serial() {
        let serial = run_serial(&fast());
        let bsp = run_bsp(&fast(), &SerialEngine);
        assert_eq!(serial.checksum, bsp.checksum);
        let engine = BspEngine::new(BspConfig {
            workers: 4,
            per_task_overhead: Duration::ZERO,
            per_stage_overhead: Duration::ZERO,
        });
        let bsp_parallel = run_bsp(&fast(), &engine);
        assert_eq!(serial.checksum, bsp_parallel.checksum);
    }

    #[test]
    fn rtml_matches_serial() {
        let serial = run_serial(&fast());
        let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
        let funcs = RnnFuncs::register(&cluster);
        let driver = cluster.driver();
        let rtml = run_rtml(&fast(), &driver, &funcs).unwrap();
        assert_eq!(serial.checksum, rtml.checksum);
        assert_eq!(rtml.cells, 15);
        cluster.shutdown();
    }

    #[test]
    fn layer_costs_are_heterogeneous() {
        let config = RnnConfig::default();
        assert!(config.cell_cost(3) > config.cell_cost(0));
        assert_eq!(config.cell_cost(0), config.base_cell_cost);
    }

    #[test]
    fn different_seeds_change_checksums() {
        let a = run_serial(&fast());
        let b = run_serial(&RnnConfig {
            seed: 999,
            ..fast()
        });
        assert_ne!(a.checksum, b.checksum);
    }
}
