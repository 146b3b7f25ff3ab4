//! Determinism and replay-idempotence: the properties lineage-based
//! fault tolerance stands on (paper §3.2.1).

use std::time::Duration;

use rtml::prelude::*;
use rtml::workloads::rl::{self, RlConfig, RlFuncs};
use rtml::workloads::rnn::{self, RnnConfig, RnnFuncs};

#[test]
fn identical_clusters_produce_identical_results() {
    // Two fresh clusters, same seeds: bit-identical outputs. This is
    // the cross-run determinism that makes "replay" meaningful.
    let config = RlConfig {
        rollouts: 6,
        frames_per_task: 4,
        frame_cost: Duration::ZERO,
        iterations: 3,
        policy_kernel_cost: Duration::ZERO,
        ..RlConfig::default()
    };
    let run = || {
        let cluster = Cluster::start(ClusterConfig::local(2, 3)).unwrap();
        let funcs = RlFuncs::register(&cluster);
        let driver = cluster.driver();
        let result = rl::run_rtml(&config, &driver, &funcs, false).unwrap();
        cluster.shutdown();
        (result.checksum, result.total_reward_bits)
    };
    assert_eq!(run(), run());
}

#[test]
fn resubmitting_the_same_structure_reuses_results() {
    // Deterministic task IDs mean a re-executed parent's submissions
    // are recognized: the children do not run twice.
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let count2 = count.clone();
    let counted = cluster.register_fn1("counted", move |x: i64| {
        count2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(x)
    });
    let driver = cluster.driver();
    let first = driver.submit1(&counted, 5).unwrap();
    assert_eq!(driver.get(&first).unwrap(), 5);
    assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 1);

    // A second driver is a different root: its submission is new work.
    let other_driver = cluster.driver();
    let second = other_driver.submit1(&counted, 5).unwrap();
    assert_ne!(first.id(), second.id());
    assert_eq!(other_driver.get(&second).unwrap(), 5);
    assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 2);
    cluster.shutdown();
}

#[test]
fn replay_after_node_loss_is_bit_exact() {
    // Compute on two nodes, destroy one, force replays through get, and
    // compare against an untouched control run.
    let rnn_config = RnnConfig {
        layers: 3,
        timesteps: 6,
        base_cell_cost: Duration::from_micros(300),
        ..RnnConfig::default()
    };
    let control = rnn::run_serial(&rnn_config);

    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        spill: SpillMode::Hybrid { queue_threshold: 0 },
        ..ClusterConfig::default()
    })
    .unwrap();
    let funcs = RnnFuncs::register(&cluster);
    let driver = cluster.driver();
    let before = rnn::run_rtml(&rnn_config, &driver, &funcs).unwrap();
    assert_eq!(before.checksum, control.checksum);

    cluster.kill_node(NodeId(1)).unwrap();
    // Re-running the same grid on the degraded cluster must still agree
    // (fresh driver => fresh task ids => fresh execution).
    let driver2 = cluster.driver();
    let after = rnn::run_rtml(&rnn_config, &driver2, &funcs).unwrap();
    assert_eq!(after.checksum, control.checksum);
    cluster.shutdown();
}

#[test]
fn submit_batch_matches_a_submit1_loop_bit_for_bit() {
    // The batched submission path must produce exactly the task/object
    // IDs — and therefore exactly the values — that the equivalent
    // sequence of single submissions produces. Two identically-seeded
    // clusters, one driven each way.
    let run = |batched: bool| {
        let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
        let square = cluster.register_fn1("square_det", |x: i64| Ok(x * x));
        let driver = cluster.driver();
        let futs: Vec<ObjectRef<i64>> = if batched {
            driver.submit_batch(&square, 0..32i64).unwrap()
        } else {
            (0..32i64)
                .map(|i| driver.submit1(&square, i).unwrap())
                .collect()
        };
        let ids: Vec<_> = futs.iter().map(|f| f.id()).collect();
        let values: Vec<i64> = futs.iter().map(|f| driver.get(f).unwrap()).collect();
        cluster.shutdown();
        (ids, values)
    };
    let (loop_ids, loop_values) = run(false);
    let (batch_ids, batch_values) = run(true);
    assert_eq!(loop_ids, batch_ids, "ids must be bit-identical");
    assert_eq!(loop_values, batch_values);
    assert_eq!(loop_values, (0..32i64).map(|i| i * i).collect::<Vec<_>>());
}

#[test]
fn batch_and_single_submissions_interleave_deterministically() {
    // Mixing the two APIs on one driver advances the same child
    // counter: a batch of N consumes exactly N counters, so every
    // future's id is derivable from its position alone.
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let echo = cluster.register_fn1("echo_det", |x: i64| Ok(x));
    let driver = cluster.driver();

    let f1 = driver.submit1(&echo, 1).unwrap();
    let batch = driver.submit_batch(&echo, vec![2, 3]).unwrap();
    let f4 = driver.submit1(&echo, 4).unwrap();

    let root = TaskId::driver_root(driver.id());
    let expect = |counter: u64| root.child(counter).return_object(0);
    assert_eq!(f1.id(), expect(0));
    assert_eq!(batch[0].id(), expect(1));
    assert_eq!(batch[1].id(), expect(2));
    assert_eq!(f4.id(), expect(3));
    assert_eq!(driver.get(&f4).unwrap(), 4);
    assert_eq!(driver.get(&batch[1]).unwrap(), 3);
    cluster.shutdown();
}

#[test]
fn event_log_timeline_is_causally_ordered() {
    // For every finished task: submitted <= queued <= started <= done.
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let f = cluster.register_fn1("ordered", |x: i64| Ok(x));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..20).map(|i| driver.submit1(&f, i).unwrap()).collect();
    for fut in &futs {
        driver.get(fut).unwrap();
    }
    // A worker logs `TaskFinished` after it seals the result a `get`
    // returns, so the last timeline may complete a moment after it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let report = loop {
        let report = cluster.profile();
        let complete = report.tasks.iter().filter(|t| t.finished.is_some()).count();
        if complete >= 20 || std::time::Instant::now() > deadline {
            break report;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut checked = 0;
    for task in &report.tasks {
        if let (Some(submitted), Some(started), Some(finished)) =
            (task.submitted, task.started, task.finished)
        {
            assert!(submitted <= started, "submit after start");
            assert!(started <= finished, "start after finish");
            if let Some(queued) = task.queued {
                assert!(submitted <= queued, "submit after queue");
            }
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} complete timelines");
    cluster.shutdown();
}

#[test]
fn determinism_matrix_over_spill_rules() {
    // The safety matrix for the way work moves between nodes: the spill
    // rule {hybrid, always, never} — every cell must produce the same
    // bit-identical result. Spill and placement change where tasks run
    // and where bytes live; neither may change what runs.
    let config = RlConfig {
        rollouts: 6,
        frames_per_task: 3,
        frame_cost: Duration::ZERO,
        iterations: 2,
        policy_kernel_cost: Duration::ZERO,
        ..RlConfig::default()
    };
    let run = |spill: SpillMode| {
        let cluster = Cluster::start(
            ClusterConfig {
                nodes: (0..3).map(|_| NodeConfig::cpu_only(2)).collect(),
                spill,
                ..ClusterConfig::default()
            }
            .with_latency(LatencyModel::Constant(Duration::from_micros(100))),
        )
        .unwrap();
        let funcs = RlFuncs::register(&cluster);
        let driver = cluster.driver();
        let result = rl::run_rtml(&config, &driver, &funcs, false).unwrap();
        cluster.shutdown();
        (result.checksum, result.total_reward_bits)
    };
    let reference = run(SpillMode::Hybrid { queue_threshold: 1 });
    for spill in [SpillMode::AlwaysSpill, SpillMode::NeverSpill] {
        assert_eq!(
            run(spill.clone()),
            reference,
            "matrix cell diverged: spill={spill:?}"
        );
    }
}
