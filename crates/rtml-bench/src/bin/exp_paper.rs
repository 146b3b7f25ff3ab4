//! The paper's quantitative claims, one row each: the paper's figure,
//! ours, their ratio, and the bound ours is held to. The binary exits
//! non-zero when a row is past its bound, and names the row.
//!
//! The §4.1 latencies are held to the paper's figures; R2's task
//! throughput to a fraction of ours; the §4.2 RL loop
//! (against serial and the BSP Spark model) and Figs. 2a–c (streaming
//! fusion, MCTS, the RNN grid) to a speedup or makespan share; and every
//! cross-engine checksum to a count of mismatches that must read 0.
//!
//! On a 2-vCPU VM every measurement reads about twice inside its bound
//! (a 323 µs remote task against 1 ms, 9x against 5x serial). The run
//! takes about 14 s there, most of it the BSP arm of the RL loop.
//!
//! Run: `cargo run --release -p rtml-bench --bin exp_paper`

use std::time::{Duration, Instant};

use rtml_bench::{failed_claims, p50, print_table, Better, Claim};
use rtml_common::error::Result;
use rtml_common::resources::Resources;
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig, TaskOptions};
use rtml_workloads::baselines::{BspConfig, BspEngine, SerialEngine};
use rtml_workloads::mcts::{self, MctsConfig, MctsFuncs};
use rtml_workloads::rl::{self, RlConfig, RlFuncs};
use rtml_workloads::rnn::{self, RnnConfig, RnnFuncs};
use rtml_workloads::sensors::{self, SensorConfig, SensorFuncs};

const WARMUP: usize = 50;
const SAMPLES: usize = 500;

fn main() -> Result<()> {
    let mut claims = Vec::new();
    latency(&mut claims)?;
    throughput(&mut claims)?;
    rl_loop(&mut claims)?;
    sensor_fusion(&mut claims)?;
    tree_search(&mut claims)?;
    rnn_grid(&mut claims)?;

    let rows: Vec<Vec<String>> = claims.iter().map(row).collect();
    print_table(
        "The paper's claims (p50 latencies in µs, speedups and makespan shares as ratios)",
        &["claim", "paper", "ours", "ours/paper", "bound", ""],
        &rows,
    );
    let failed = failed_claims(&claims);
    if !failed.is_empty() {
        eprintln!("\npast their bound: {}", failed.join("; "));
        std::process::exit(1);
    }
    println!("\nevery claim is within its bound");
    Ok(())
}

/// §4.1: the four latencies, p50 over `SAMPLES` runs after `WARMUP`.
fn latency(claims: &mut Vec<Claim>) -> Result<()> {
    let cluster = Cluster::start(ClusterConfig::local(1, 2).without_event_log())?;
    let nop = cluster.register_fn0("paper_nop", || Ok(0u64));
    let driver = cluster.driver();
    let submit = p50_us(|| {
        let start = Instant::now();
        let future = driver.submit0(&nop).unwrap();
        let elapsed = start.elapsed();
        driver.get(&future).unwrap(); // Drain, so queues stay short.
        elapsed
    });
    let get = p50_us(|| {
        let future = driver.submit0(&nop).unwrap();
        driver.get(&future).unwrap(); // Sealed and local from here on.
        timed(|| driver.get(&future).unwrap())
    });
    let local = p50_us(|| timed(|| driver.get(&driver.submit0(&nop).unwrap()).unwrap()));
    cluster.shutdown();

    // The task demands a resource only node 1 has, so it travels: spill,
    // global placement, remote execution and the result pushed back,
    // each hop paying the fabric's 100 µs.
    let config = ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_custom("pin", 1.0),
        ],
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config.without_event_log())?;
    let nop = cluster.register_fn0("paper_remote_nop", || Ok(0u64));
    let driver = cluster.driver();
    let pinned = TaskOptions::resources(Resources::cpu(1.0).with_custom("pin", 1.0));
    let remote = p50_us(|| {
        timed(|| {
            let future = driver.submit0_opts(&nop, pinned.clone()).unwrap();
            driver.get(&future).unwrap()
        })
    });
    cluster.shutdown();

    for (name, paper, ours) in [
        ("§4.1 submit p50", 35.0, submit),
        ("§4.1 get of a sealed local object p50", 110.0, get),
        ("§4.1 empty task, local p50", 290.0, local),
        ("§4.1 empty task, remote p50", 1000.0, remote),
    ] {
        claims.push(Claim::at_most(name, Some(paper), ours, paper));
    }
    Ok(())
}

/// R2: bursts of trivial tasks through execution on one node of two
/// workers, each timed from its submission to its last value; the p50
/// of the bursts' rates, in tasks/s, against the paper's "millions of
/// tasks per second". A 2-vCPU VM reads ≈ 95 k (≈ 75 k before workers
/// took batches); the bound is about half of that.
fn throughput(claims: &mut Vec<Claim>) -> Result<()> {
    const BURST: u64 = 16_384;
    const BURSTS: usize = 5;
    let cluster = Cluster::start(ClusterConfig::local(1, 2))?;
    let inc = cluster.register_fn1("paper_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let mut rates = Vec::with_capacity(BURSTS);
    let mut off = 0;
    for _ in 0..BURSTS {
        let start = Instant::now();
        let futures = driver.submit_many(&inc, 0..BURST)?;
        let values = driver.get_many(&futures)?;
        rates.push(BURST as f64 / start.elapsed().as_secs_f64());
        off += (0..BURST).zip(values).filter(|(x, v)| x + 1 != *v).count();
    }
    cluster.shutdown();
    rates.sort_by(f64::total_cmp);
    claims.extend([
        Claim::at_least(
            "R2 trivial tasks on one node, tasks/s",
            Some(1e6),
            rates[BURSTS / 2],
            45_000.0,
        ),
        mismatches("R2: values off their tasks'", off),
    ]);
    Ok(())
}

/// §4.2: 5 iterations x 16 rollouts of ~7 ms on the three engines.
fn rl_loop(claims: &mut Vec<Claim>) -> Result<()> {
    let config = RlConfig {
        rollouts: 16,
        frames_per_task: 10,
        frame_cost: Duration::from_micros(700),
        iterations: 5,
        ..RlConfig::default()
    };
    let serial = rl::run_serial(&config);
    let bsp = rl::run_engine(&config, &BspEngine::new(BspConfig::spark_calibrated(8)));
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(8).with_gpus(1.0),
            NodeConfig::cpu_only(8),
        ],
        ..ClusterConfig::default()
    })?;
    let funcs = RlFuncs::register(&cluster);
    let rtml = rl::run_rtml(&config, &cluster.driver(), &funcs, true)?;
    cluster.shutdown();

    let off = differing(serial.checksum, &[bsp.checksum, rtml.checksum]);
    let (vs_serial, vs_bsp) = (ratio(serial.wall, rtml.wall), ratio(bsp.wall, rtml.wall));
    claims.extend([
        mismatches("§4.2 RL loop: checksums off serial's", off),
        Claim::at_least("§4.2 RL loop: rtml vs serial", Some(7.0), vs_serial, 5.0),
        Claim::at_least("§4.2 RL loop: rtml vs BSP", Some(63.0), vs_bsp, 40.0),
    ]);
    Ok(())
}

/// Fig. 2a: 12 windows of heterogeneous sensors (1..n ms) fused, one
/// window at a time (batch) or all windows in flight (rtml stream).
fn sensor_fusion(claims: &mut Vec<Claim>) -> Result<()> {
    let fuse_cost = Duration::from_micros(300);
    let cluster = Cluster::start(ClusterConfig::local(2, 6))?;
    let funcs = SensorFuncs::register(&cluster, fuse_cost);
    let driver = cluster.driver();
    let mut off = 0;
    for sensors_n in [3usize, 6, 9] {
        let config = SensorConfig {
            sensors: sensors_n,
            base_cost: Duration::from_millis(1),
            fuse_cost,
            windows: 12,
            ..SensorConfig::default()
        };
        let batch = sensors::run_bsp(&config, &SerialEngine);
        let stream = sensors::run_rtml(&config, &driver, &funcs)?;
        off += differing(batch.checksum, &[stream.checksum]);
        let name = format!("Fig. 2a {sensors_n} sensors: stream / batch makespan");
        let share = ratio(stream.wall, batch.wall);
        claims.push(Claim::at_most(&name, None, share, 0.25));
    }
    cluster.shutdown();
    claims.push(mismatches("Fig. 2a: stream checksums off batch's", off));
    Ok(())
}

/// Fig. 2b: 96 simulations of ~5.6 ms, the tree grown from whichever
/// simulation finishes first.
fn tree_search(claims: &mut Vec<Claim>) -> Result<()> {
    let serial_config = MctsConfig {
        actions: 4,
        rollout_frames: 8,
        frame_cost: Duration::from_micros(700),
        budget: 96,
        parallelism: 1,
        ..MctsConfig::default()
    };
    let serial = mcts::run_serial(&serial_config);
    let cluster = Cluster::start(ClusterConfig::local(2, 8))?;
    let funcs = MctsFuncs::register(&cluster);
    let config = MctsConfig {
        parallelism: 8,
        ..serial_config.clone()
    };
    let parallel = mcts::run_rtml(&config, &cluster.driver(), &funcs)?;
    cluster.shutdown();

    let speedup = ratio(serial.wall, parallel.wall);
    let sizes = [serial.tree_size as u64, parallel.tree_size as u64];
    let off = differing(config.budget as u64 + 1, &sizes);
    claims.extend([
        Claim::at_least("Fig. 2b MCTS: 8 in flight vs serial", None, speedup, 4.0),
        mismatches("Fig. 2b MCTS: trees not of budget + 1 nodes", off),
    ]);
    Ok(())
}

/// Fig. 2c: a 4-layer x 10-step grid where layer l costs 2 ms x (1 + l x
/// spread), as dataflow and as BSP stages of one timestep each. The BSP
/// engine has no per-task cost, so only its barriers are measured.
fn rnn_grid(claims: &mut Vec<Claim>) -> Result<()> {
    let cluster = Cluster::start(ClusterConfig::local(2, 6))?;
    let funcs = RnnFuncs::register(&cluster);
    let driver = cluster.driver();
    let bsp_engine = BspEngine::new(BspConfig {
        workers: 8,
        per_task_overhead: Duration::ZERO,
        per_stage_overhead: Duration::ZERO,
    });
    let mut off = 0;
    for spread in [0.0f64, 0.75, 2.0] {
        let config = RnnConfig {
            layers: 4,
            timesteps: 10,
            base_cell_cost: Duration::from_millis(2),
            cost_spread: spread,
            ..RnnConfig::default()
        };
        let serial = rnn::run_serial(&config);
        let bsp = rnn::run_bsp_timestep(&config, &bsp_engine);
        let dataflow = rnn::run_rtml(&config, &driver, &funcs)?;
        off += differing(serial.checksum, &[bsp.checksum, dataflow.checksum]);
        let name = format!("Fig. 2c RNN spread {spread}: dataflow vs BSP per-timestep");
        let speedup = ratio(bsp.wall, dataflow.wall);
        claims.push(Claim::at_least(&name, None, speedup, 1.5));
    }
    cluster.shutdown();
    claims.push(mismatches("Fig. 2c RNN: checksums off serial's", off));
    Ok(())
}

/// Runs `op` `WARMUP` times, then `SAMPLES` times; the p50 of the
/// durations it reports, in µs.
fn p50_us(mut op: impl FnMut() -> Duration) -> f64 {
    for _ in 0..WARMUP {
        op();
    }
    let samples: Vec<Duration> = (0..SAMPLES).map(|_| op()).collect();
    p50(&samples).as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

fn ratio(numerator: Duration, denominator: Duration) -> f64 {
    numerator.as_secs_f64() / denominator.as_secs_f64()
}

/// How many of `values` differ from `reference`.
fn differing(reference: u64, values: &[u64]) -> usize {
    values.iter().filter(|&&value| value != reference).count()
}

/// A count of runs that disagree with their reference: none may.
fn mismatches(name: &str, count: usize) -> Claim {
    Claim::at_most(name, None, count as f64, 0.0)
}

fn row(claim: &Claim) -> Vec<String> {
    let number = |value: f64| format!("{value:.2}");
    let side = match claim.better {
        Better::Lower => "<=",
        Better::Higher => ">=",
    };
    vec![
        claim.name.clone(),
        claim.paper.map_or("-".into(), number),
        number(claim.measured),
        claim
            .paper
            .map_or("-".into(), |paper| number(claim.measured / paper)),
        format!("{side} {}", number(claim.bound)),
        if claim.holds() { "ok" } else { "FAIL" }.into(),
    ]
}
