//! The hybrid spill rule on a running cluster: a burst of short tasks
//! stays on the node it was submitted to once the node has measured
//! both their run time and its round trip to another node, and a burst
//! of long ones still spreads through the global scheduler. It is a
//! binary of its own, so no other test's cluster runs beside it: a run
//! time measured beside another cluster is that cluster's too. A node
//! with no other node alive keeps every task it can fit.

use std::time::Duration;

use rtml::common::event::EventKind;
use rtml::net::LatencyModel;
use rtml::prelude::*;

const BURST: u64 = 256;

/// A value of the cluster-wide counter sum.
fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster.counters().get(name).unwrap_or(0)
}

/// A value of `node`'s own registry.
fn on_node(cluster: &Cluster, node: u32, name: &str) -> u64 {
    let registry = cluster.node_registry(NodeId(node)).expect("node up");
    registry.get(name).unwrap_or(0)
}

/// Two nodes of two workers, 2 ms apart: a round trip reads ≥ 4 ms, so
/// a burst of a debug build's `x + 1` (a few µs each) is short next to
/// it, and the five 2 ms tasks a threshold of 4 keeps (5 ms on two
/// slots) are not.
fn cluster() -> Cluster {
    let hop = LatencyModel::Constant(Duration::from_millis(2));
    Cluster::start(ClusterConfig::local(2, 2).with_latency(hop)).unwrap()
}

#[test]
fn short_bursts_stay_on_their_node_and_long_ones_spread() {
    let cluster = cluster();
    let inc = cluster.register_fn1("short_inc", |x: u64| Ok(x + 1));
    let nap = cluster.register_fn1("long_nap", |x: u64| {
        std::thread::sleep(Duration::from_millis(2));
        Ok(x)
    });
    let driver = cluster.driver();
    let burst = |round: u64| {
        let args: Vec<u64> = (round * BURST..(round + 1) * BURST).collect();
        let futs = driver.submit_many(&inc, args.iter().copied()).unwrap();
        let got = driver.get_many(&futs).unwrap();
        assert!(got.iter().zip(&args).all(|(v, x)| *v == x + 1));
    };
    // Warm-up. The first burst meets a cold node — `short_inc` never
    // ran there, no frame has come to it from another node — so the
    // count rule alone spills its overflow, and the results node 1
    // computed are pulled back: node 0 has measured both.
    for round in 0..4 {
        burst(round);
    }
    let placements = counter(&cluster, "global.placements");
    let kept_short = on_node(&cluster, 0, "sched.kept_short");
    for round in 4..12 {
        burst(round);
    }
    let placed = counter(&cluster, "global.placements") - placements;
    let kept = on_node(&cluster, 0, "sched.kept_short") - kept_short;
    let round_trip_us = on_node(&cluster, 0, "sched.round_trip_us");
    assert_eq!(
        placed, 0,
        "8 short bursts placed {placed} tasks (round trip {round_trip_us} µs, kept {kept})"
    );
    assert!(kept > 0, "no task kept past the threshold");

    // The same node, 64 tasks of 2 ms: far more work than a round trip.
    let warm = driver.submit_many(&nap, 0..8u64).unwrap();
    driver.get_many(&warm).unwrap();
    let futs = driver.submit_many(&nap, 0..64u64).unwrap();
    assert_eq!(driver.get_many(&futs).unwrap(), (0..64).collect::<Vec<_>>());
    // Where each task started, read off the event log.
    let tasks: Vec<TaskId> = futs
        .iter()
        .map(|f| f.id().producer_task().unwrap())
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let on_node_0 = loop {
        let started: Vec<NodeId> = cluster
            .services()
            .events
            .read_all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskStarted { task, worker } if tasks.contains(&task) => {
                    Some(worker.node)
                }
                _ => None,
            })
            .collect();
        if started.len() >= tasks.len() {
            break started.iter().filter(|n| **n == NodeId(0)).count();
        }
        assert!(std::time::Instant::now() < deadline, "starts never logged");
        std::thread::sleep(Duration::from_millis(2));
    };
    let on_node_1 = tasks.len() - on_node_0;
    assert!(
        on_node_0 >= 16 && on_node_1 >= 16,
        "64 long tasks ran {on_node_0} on node 0 and {on_node_1} on node 1"
    );
    cluster.shutdown();
}

#[test]
fn a_node_alone_places_no_burst_through_the_global_scheduler() {
    // One node: the global scheduler could only place a spilled task
    // back where it came from. Even the first, cold burst — no run time
    // and no round trip measured — stays, admitted on the driver's
    // thread.
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("alone_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    const ROUNDS: u64 = 8;
    for round in 0..ROUNDS {
        let args: Vec<u64> = (round * BURST..(round + 1) * BURST).collect();
        let futs = driver.submit_many(&inc, args.iter().copied()).unwrap();
        let got = driver.get_many(&futs).unwrap();
        assert!(got.iter().zip(&args).all(|(v, x)| *v == x + 1));
    }
    assert_eq!(counter(&cluster, "global.spills"), 0);
    assert_eq!(counter(&cluster, "global.placements"), 0);
    assert_eq!(counter(&cluster, "sched.admitted_direct"), ROUNDS * BURST);
    cluster.shutdown();
}
