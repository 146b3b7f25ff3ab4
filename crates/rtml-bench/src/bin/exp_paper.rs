//! The paper's quantitative claims, one row each: the paper's figure,
//! ours, their ratio, and the bound ours is held to. The binary exits
//! non-zero when a row is past its bound, and names the row.
//!
//! The §4.1 latencies are held to the paper's figures; the object
//! plane's R1 costs (opening and sealing a 1 MiB value, a broadcast to
//! three readers, a pushed result) and R2's submission and task
//! throughput to a fraction of ours; R7's telemetry to a share of
//! submission throughput; the §4.2 RL loop (against serial and the BSP
//! Spark model) and Figs. 2a–c (streaming fusion, MCTS, the RNN grid)
//! to a speedup or makespan share; and every cross-engine checksum to a
//! count of mismatches that must read 0.
//!
//! On a 2-vCPU VM most measurements read about twice inside their bound
//! (a 323 µs remote task against 1 ms, 9x against 5x serial). The run
//! takes about 33 s there: half of it the submission and telemetry
//! rows' 75 fresh clusters, most of the rest the BSP arm of the RL loop.
//!
//! Run: `cargo run --release -p rtml-bench --bin exp_paper`

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rtml_bench::{failed_claims, p50, print_table, Better, Claim};
use rtml_common::codec::encode_to_bytes;
use rtml_common::error::{Error, Result};
use rtml_common::ids::{DriverId, NodeId, ObjectId, TaskId};
use rtml_common::resources::Resources;
use rtml_common::task::{ArgSpec, TaskState};
use rtml_net::{Fabric, FabricConfig, LatencyModel};
use rtml_runtime::envelope::{open_value, seal_value};
use rtml_runtime::{Cluster, ClusterConfig, Driver, NodeConfig, TaskOptions, TaskRequest};
use rtml_sched::SpillMode;
use rtml_store::{FetchAgent, ObjectStore, StoreConfig, TransferDirectory};
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
    object_plane(&mut claims)?;
    submission(&mut claims)?;
    telemetry_overhead(&mut claims)?;
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
    let cluster = Cluster::start(ClusterConfig::local(1, 2))?;
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
    let cluster = Cluster::start(config)?;
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

/// R1 on the object plane. Opening a sealed 1 MiB `Bytes` argument is
/// a pair of windows (p50 well under 20 µs, where a copy takes
/// hundreds), and sealing a value is one pass (at most 1.5x a bare
/// encode, interleaved medians). Three nodes that ask one holder for a
/// 1 MiB object within 100 µs are fed down a relay chain: the last is
/// sealed within 2.8 ms (≈ 2.2 ms on a 2-vCPU VM; three pulls from the
/// holder took 3.9). A small remote result is pushed on its seal, so it
/// is resident on the submitter sooner than a request's two hops.
fn object_plane(claims: &mut Vec<Claim>) -> Result<()> {
    const MIB: usize = 1 << 20;
    let value = Bytes::from(vec![7u8; MIB]);
    let sealed = seal_value(&value);
    let open = p50_us(|| {
        timed(|| {
            let arg: Bytes = open_value(&sealed, TaskId::NIL).unwrap();
            assert_eq!(black_box(arg).len(), MIB);
        })
    });
    let (mut seal, mut encode) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES / 5 {
        seal.push(timed(|| black_box(seal_value(black_box(&value)))));
        encode.push(timed(|| black_box(encode_to_bytes(black_box(&value)))));
    }
    let seal = ratio(p50(&seal), p50(&encode));
    let broadcast = broadcast_best(15).as_secs_f64() * 1e6;
    let push = push_best(256)?.as_secs_f64() * 1e6;
    for (name, ours, bound) in [
        ("R1 open a sealed 1 MiB Bytes argument p50", open, 20.0),
        ("R1 seal a 1 MiB value / a bare encode", seal, 1.5),
        (
            "R1 1 MiB read by 3 nodes at once: last sealed (best)",
            broadcast,
            2800.0,
        ),
        (
            "R1 remote result: seal to resident (best of 256)",
            push,
            200.0,
        ),
    ] {
        claims.push(Claim::at_most(name, None, ours, bound));
    }
    Ok(())
}

/// The best of `rounds` rounds in which three readers ask one holder
/// for the same 1 MiB object within 100 µs, over 100 µs hops and
/// 1 GiB/s links: from the first request to the last reader sealed.
fn broadcast_best(rounds: usize) -> Duration {
    let fabric = Fabric::new(FabricConfig {
        latency: LatencyModel::Constant(Duration::from_micros(100)),
        bandwidth_bytes_per_sec: Some(1 << 30),
        ..FabricConfig::default()
    });
    let directory = TransferDirectory::new();
    let plane = |node| {
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(node),
            capacity_bytes: 1 << 30,
            ..StoreConfig::default()
        }));
        let agent = FetchAgent::spawn(fabric.clone(), store.clone(), &directory);
        (store, agent)
    };
    let (holder, _serving) = plane(0);
    let readers: Vec<_> = (1..4).map(plane).collect();
    let payload = seal_value(&Bytes::from(vec![5u8; 1 << 20]));
    let mut best = Duration::MAX;
    let (mut kept, mut attempt) = (0, 0);
    while kept < rounds {
        attempt += 1;
        assert!(attempt <= 4 * rounds, "requests never issued in time");
        let object = TaskId::NIL.put_object(attempt as u64);
        holder.put(object, payload.clone()).unwrap();
        let go = Barrier::new(readers.len());
        let times: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
            let asking: Vec<_> = readers
                .iter()
                .map(|(_, agent)| {
                    let go = &go;
                    scope.spawn(move || {
                        go.wait();
                        let asked = Instant::now();
                        let timeout = Duration::from_secs(30);
                        agent.fetch_one(object, NodeId(0), timeout).unwrap();
                        (asked, Instant::now())
                    })
                })
                .collect();
            asking.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let first = times.iter().map(|t| t.0).min().unwrap();
        let last = times.iter().map(|t| t.0).max().unwrap();
        // A round whose requests the OS spread over more than 100 µs is
        // not the scenario.
        if last - first <= Duration::from_micros(100) {
            kept += 1;
            best = best.min(times.iter().map(|t| t.1).max().unwrap() - first);
        }
        holder.delete(object);
        for (store, _) in &readers {
            store.delete(object);
        }
    }
    best
}

/// `results` remote round trips, one at a time, of a task pinned to
/// node 1 whose 8-byte result the driver on node 0 reads: the least
/// time from the result's seal on node 1 to its copy being committed on
/// node 0 (the span of its transfer).
fn push_best(results: u64) -> Result<Duration> {
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_custom("pin", 1.0),
        ],
        ..ClusterConfig::default()
    })?;
    let inc = cluster.register_fn1("paper_push_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let pinned = TaskOptions::resources(Resources::cpu(1.0).with_custom("pin", 1.0));
    for i in 0..results {
        let future = driver.submit1_opts(&inc, i, pinned.clone())?;
        assert_eq!(driver.get(&future)?, i + 1);
    }
    // Node 0's scheduler logs each arrival a step after the `get` it
    // served: wait for the last.
    let deadline = Instant::now() + Duration::from_secs(10);
    let report = loop {
        let report = cluster.profile();
        if report.transfers as u64 == results {
            break report;
        }
        if Instant::now() > deadline {
            return Err(Error::Timeout);
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    cluster.shutdown();
    let spans = report.spans.iter().filter(|span| span.plane == "transfer");
    let best = spans.map(|span| span.micros).min().unwrap_or(u64::MAX);
    Ok(Duration::from_micros(best))
}

/// R2 at the submission layer: tasks gated on an object that never
/// seals, so nothing runs, submitted to one node that never spills and
/// timed until the last reads `Queued`, on a fresh cluster a run; 9
/// rounds of every batch size. The best rate at batch 4096 (≈ 0.8–1.1 M
/// tasks/s on a 2-vCPU VM) is held to 400 k, and each step up in batch
/// size to at least 0.9x the rate below it, as the median of the
/// rounds' ratios (the rate levels off past 256, so a best-of-rounds
/// ratio is a coin flip there). From 4 cores, where the driver and the
/// scheduler overlap, a driver that never waits is held to 1.5x one
/// that waits for each batch to be queued (≈ 0.9–1.3x on 2 vCPUs).
fn submission(claims: &mut Vec<Claim>) -> Result<()> {
    const SIZES: [usize; 4] = [1, 16, 256, 4096];
    const TASKS: usize = 32_768;
    const ROUNDS: usize = 9;
    let (mut best, mut barriered) = (0.0f64, 0.0f64);
    let mut steps = vec![Vec::with_capacity(ROUNDS); SIZES.len() - 1];
    for _ in 0..ROUNDS {
        let mut rates = Vec::with_capacity(SIZES.len());
        for batch in SIZES {
            rates.push(submit_rate(batch, TASKS, Duration::ZERO, false, true)?);
        }
        for (step, pair) in steps.iter_mut().zip(rates.windows(2)) {
            step.push(pair[1] / pair[0]);
        }
        best = best.max(rates[SIZES.len() - 1]);
        barriered = barriered.max(submit_rate(4096, TASKS, Duration::ZERO, true, true)?);
    }
    let rise = steps.into_iter().map(median).fold(f64::MAX, f64::min);
    claims.extend([
        Claim::at_least("R2 submit, batch 4096, tasks/s", Some(1e6), best, 4e5),
        Claim::at_least("R2 submit: least rise to a larger batch", None, rise, 0.9),
    ]);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let overlap = best / barriered;
    if cores >= 4 {
        let name = "R2 submit at batch 4096: never waiting / waiting";
        claims.push(Claim::at_least(name, None, overlap, 1.5));
    } else {
        println!("batch-4096 submission never waiting is {overlap:.2}x waiting for each batch on {cores} core(s), held to 1.5x from 4 cores");
    }
    Ok(())
}

/// R7: batch-4096 submission with the default-on telemetry against the
/// same run with it off, as the median ratio of 15 interleaved pairs
/// (which side goes first alternates, so the host's drift cancels in a
/// pair), each run submitting 8 192 tasks and for at least 100 ms. The
/// ratio of each side's median over alternating runs spread wider:
/// 0.89–1.13 over 20 runs on a 2-vCPU host, against 0.92–1.07 this way.
fn telemetry_overhead(claims: &mut Vec<Claim>) -> Result<()> {
    const PAIRS: usize = 15;
    let run = |telemetry| submit_rate(4096, 8192, Duration::from_millis(100), false, telemetry);
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (on, off) = if pair % 2 == 0 {
            let on = run(true)?;
            (on, run(false)?)
        } else {
            let off = run(false)?;
            (run(true)?, off)
        };
        ratios.push(on / off);
    }
    let name = "R7 submit with telemetry on / off, median of 15 pairs";
    claims.push(Claim::at_least(name, None, median(ratios), 0.9));
    Ok(())
}

/// Runs `a` and `b` by turns — a, b, a, …, a: `trials` runs of `a` and
/// one fewer of `b` — so a drift of the host falls on both sides, and
/// returns the median of each side's readings.
fn alternating(
    trials: usize,
    mut a: impl FnMut() -> Result<f64>,
    mut b: impl FnMut() -> Result<f64>,
) -> Result<(f64, f64)> {
    let (mut of_a, mut of_b) = (Vec::with_capacity(trials), Vec::with_capacity(trials));
    for turn in 0..2 * trials - 1 {
        match turn % 2 {
            0 => of_a.push(a()?),
            _ => of_b.push(b()?),
        }
    }
    Ok((median(of_a), median(of_b)))
}

/// Tasks a second through submission and ingest on a fresh cluster of
/// one node that never spills: `batch`-task batches of tasks gated on
/// an object that never seals, at least `tasks` of them and for at
/// least `least`, timed from the first submission until the last task
/// reads `Queued`. A `barriered` driver waits for each batch to read
/// `Queued` before it sends the next; `telemetry` is the sampler's
/// switch.
fn submit_rate(
    batch: usize,
    tasks: usize,
    least: Duration,
    barriered: bool,
    telemetry: bool,
) -> Result<f64> {
    let mut config = ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    };
    if !telemetry {
        config = config.without_telemetry();
    }
    let cluster = Cluster::start(config)?;
    let gated = cluster.register_fn2("paper_gated", |x: u64, _gate: u64| Ok(x));
    let driver = cluster.driver();
    let never = TaskId::driver_root(DriverId::from_index(u64::MAX))
        .child(0)
        .return_object(0);
    let payload = encode_to_bytes(&0u64);
    let requests = || -> Vec<TaskRequest> {
        let request = || TaskRequest {
            function: gated.id(),
            args: vec![ArgSpec::Value(payload.clone()), ArgSpec::ObjectRef(never)],
            num_returns: 1,
            resources: Resources::cpu(1.0),
        };
        (0..batch).map(|_| request()).collect()
    };
    // Built before the clock starts; a run that outlasts them builds
    // more as it goes.
    let mut built: Vec<_> = (0..tasks.div_ceil(batch).max(8))
        .map(|_| requests())
        .collect();
    let start = Instant::now();
    let (mut submitted, mut last) = (0, Vec::new());
    while submitted < tasks || start.elapsed() < least {
        let batch_requests = built.pop().unwrap_or_else(requests);
        last = driver.submit_raw_batch(batch_requests)?.pop().unwrap();
        submitted += batch;
        if barriered {
            queued(&driver, &last)?;
        }
    }
    // Batches are ingested in order: the last task queued is the last
    // batch ingested.
    queued(&driver, &last)?;
    let rate = submitted as f64 / start.elapsed().as_secs_f64();
    cluster.shutdown();
    Ok(rate)
}

/// Waits until the task returning `returns[0]` reads `Queued`, on its
/// state's subscription, not a poll that would take the scheduler's
/// cycles.
fn queued(driver: &Driver, returns: &[ObjectId]) -> Result<()> {
    let task = returns[0].producer_task().expect("a task's return");
    let (mut state, updates) = driver.services().tasks.subscribe_state(task);
    let deadline = Instant::now() + Duration::from_secs(120);
    while !matches!(state, Some(TaskState::Queued(_))) {
        if Instant::now() > deadline {
            return Err(Error::Timeout);
        }
        state = updates.recv_timeout(Duration::from_secs(1)).or(state);
    }
    Ok(())
}

/// R2: bursts of trivial tasks through execution on one node of two
/// workers, each timed from its submission to its last value; the p50
/// of the bursts' rates, in tasks/s, against the paper's "millions of
/// tasks per second". A 2-vCPU VM reads ≈ 250 k; the bound is about
/// half of that.
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
            120_000.0,
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
/// window at a time (batch) or all windows in flight (rtml stream): the
/// ratio of the makespans' medians over alternating runs (stream,
/// batch, stream, batch, stream). One run of each read 0.27 against
/// the 0.25 bound now and then on a quiet 2-vCPU host.
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
        let mut checksums = (Vec::new(), Vec::new());
        let (stream, batch) = alternating(
            3,
            || {
                let stream = sensors::run_rtml(&config, &driver, &funcs)?;
                checksums.0.push(stream.checksum);
                Ok(stream.wall.as_secs_f64())
            },
            || {
                let batch = sensors::run_bsp(&config, &SerialEngine);
                checksums.1.push(batch.checksum);
                Ok(batch.wall.as_secs_f64())
            },
        )?;
        off += differing(checksums.1[0], &checksums.0) + differing(checksums.1[0], &checksums.1);
        let name = format!("Fig. 2a {sensors_n} sensors: stream / batch makespan medians");
        claims.push(Claim::at_most(&name, None, stream / batch, 0.25));
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

/// The median of `values` (the upper one of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
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
