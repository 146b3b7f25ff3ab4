//! Direct admission: a batch its node's scheduler loop would accept
//! whole and runnable is admitted on its submitter's thread — the
//! driver whose home the node is, or one of the node's workers — and
//! never crosses to the loop. Everything else still takes the loop.
//! `sched.admitted_direct` counts the tasks that skipped it.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

use rtml::common::event::EventKind;
use rtml::common::task::TaskState;
use rtml::prelude::*;

fn admitted_direct(cluster: &Cluster) -> u64 {
    cluster.counters().get("sched.admitted_direct").unwrap()
}

#[test]
fn sequential_round_trips_are_admitted_on_the_submitters_thread() {
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("direct_inc", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    for i in 0..200 {
        let fut = driver.submit1(&inc, i).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), i + 1);
    }
    assert_eq!(admitted_direct(&cluster), 200);
    cluster.shutdown();
}

#[test]
fn a_batch_that_spills_goes_to_the_loop_whole() {
    // Two nodes: a node alone keeps every task it can fit.
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let inc = cluster.register_fn1("direct_inc_many", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    // Past the default threshold of 4 ready tasks the loop would spill
    // the rest, so none of the batch is admitted beside it.
    let futs = driver.submit_many(&inc, 0..256i64).unwrap();
    let values = driver.get_many(&futs).unwrap();
    assert_eq!(values, (1..257).collect::<Vec<i64>>());
    assert_eq!(admitted_direct(&cluster), 0);
    cluster.shutdown();
}

#[test]
fn a_task_whose_argument_is_not_sealed_takes_the_loop() {
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let slow = cluster.register_fn1("direct_slow", |x: i64| {
        std::thread::sleep(Duration::from_millis(50));
        Ok(x)
    });
    let inc = cluster.register_fn1("direct_inc_dep", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    let first = driver.submit1(&slow, 41).unwrap();
    let second = driver.submit1(&inc, first).unwrap();
    assert_eq!(driver.get(&second).unwrap(), 42);
    // The first was runnable; the second waited for the first's result.
    assert_eq!(admitted_direct(&cluster), 1);
    cluster.shutdown();
}

#[test]
fn always_spill_admits_nothing_directly() {
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::AlwaysSpill,
        ..ClusterConfig::local(1, 2)
    })
    .unwrap();
    let inc = cluster.register_fn1("direct_inc_spill", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    for i in 0..20 {
        let fut = driver.submit1(&inc, i).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), i + 1);
    }
    assert_eq!(admitted_direct(&cluster), 0);
    cluster.shutdown();
}

#[test]
fn a_nested_chain_is_admitted_by_its_workers_and_grows_the_pool() {
    // Two workers, four tasks that each block in `get` on their child:
    // the chain completes only if the pool grows, which a worker's push
    // of a child asks for once no worker is idle and one is blocked.
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let mut child = cluster.register_fn1("direct_leaf", |x: i64| Ok(x));
    for depth in 1..4 {
        child = cluster.register_fn1_ctx(&format!("direct_depth_{depth}"), move |ctx, x: i64| {
            let fut = ctx.submit1(&child, x + 1)?;
            ctx.get(&fut)
        });
    }
    let driver = cluster.driver();
    let fut = driver.submit1(&child, 0).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 3);
    // The driver's submission and each worker's.
    assert_eq!(admitted_direct(&cluster), 4);
    let workers: std::collections::BTreeSet<WorkerId> = driver
        .services()
        .events
        .read_all()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskStarted { worker, .. } => Some(worker),
            _ => None,
        })
        .collect();
    assert!(workers.len() > 2, "the pool never grew: {workers:?}");
    cluster.shutdown();
}

#[test]
fn killing_a_node_under_direct_admissions_leaves_nothing_queued_on_it() {
    // Nothing spills, so every batch node 0 is alive for is admitted on
    // its submitter's thread, right up to the kill.
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(2, 2)
    })
    .unwrap();
    let echo = cluster.register_fn1("direct_echo", |x: i64| Ok(x));
    let stop = AtomicBool::new(false);
    // Four drivers whose home is node 0 submit runnable batches of two
    // until well after node 0 is killed under them.
    let drivers: Vec<Driver> = (0..4).map(|_| cluster.driver()).collect();
    let node0 = cluster.node_registry(NodeId(0)).unwrap();
    let (admitted, submitted) = std::thread::scope(|scope| {
        let threads: Vec<_> = drivers
            .iter()
            .enumerate()
            .map(|(t, driver)| {
                let (stop, echo) = (&stop, &echo);
                scope.spawn(move || {
                    let mut futs = Vec::new();
                    let mut x = 1_000_000 * t as i64;
                    while !stop.load(SeqCst) {
                        let batch = driver.submit_many(echo, [x, x + 1]).unwrap();
                        futs.extend([x, x + 1].into_iter().zip(batch));
                        x += 2;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    futs
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        let admitted = || node0.get("sched.admitted_direct").unwrap();
        while admitted() < 100 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let admitted = admitted();
        cluster.kill_node(NodeId(0)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, SeqCst);
        let futs = threads.into_iter().flat_map(|t| t.join().unwrap());
        (admitted, futs.collect::<Vec<(i64, ObjectRef<i64>)>>())
    });
    assert!(admitted >= 100, "{admitted} tasks admitted directly");
    assert!(drivers.iter().all(|d| d.home_node() == NodeId(0)));
    // Every future resolves, through failover or lineage replay (read
    // by a driver on a live node: a driver's reads go through its home).
    let reader = cluster.driver();
    for (x, fut) in &submitted {
        assert_eq!(reader.get(fut).unwrap(), *x);
    }
    let stranded: Vec<TaskId> = cluster
        .services()
        .tasks
        .scan_states()
        .into_iter()
        .filter(|(_, state)| *state == TaskState::Queued(NodeId(0)))
        .map(|(task, _)| task)
        .collect();
    assert_eq!(stranded, vec![], "tasks left queued on the dead node");
    cluster.shutdown();
}
