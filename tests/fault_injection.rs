//! Failure-matrix tests: the R6 story under adversarial timing.

use std::time::Duration;

use rtml::common::error::Error;
use rtml::prelude::*;

#[test]
fn chain_survives_mid_chain_node_loss() {
    // A dependency chain computed across two nodes; killing the node
    // holding intermediate results forces recursive reconstruction.
    let config = ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        spill: SpillMode::Hybrid { queue_threshold: 0 }, // spread aggressively
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let inc = cluster.register_fn1("inc_chain", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    let mut fut = driver.submit1(&inc, 0).unwrap();
    for _ in 0..9 {
        fut = driver.submit1(&inc, fut).unwrap();
    }
    assert_eq!(driver.get(&fut).unwrap(), 10);
    // Now lose node 1 (and whatever intermediates it held).
    cluster.kill_node(NodeId(1)).unwrap();
    // The chain result must still be obtainable: local copy or replay.
    assert_eq!(driver.get(&fut).unwrap(), 10);
    cluster.shutdown();
}

#[test]
fn repeated_worker_kills_do_not_lose_work() {
    let cluster = Cluster::start(ClusterConfig::local(1, 3)).unwrap();
    let slow = cluster.register_fn1("slow_fi", |x: i64| {
        std::thread::sleep(Duration::from_millis(100));
        Ok(x * 2)
    });
    let driver = cluster.driver();
    let futs: Vec<_> = (0..6).map(|i| driver.submit1(&slow, i).unwrap()).collect();
    // Kill two of the three workers while work is in flight.
    std::thread::sleep(Duration::from_millis(30));
    let _ = cluster.kill_worker(WorkerId::new(NodeId(0), 0));
    std::thread::sleep(Duration::from_millis(10));
    let _ = cluster.kill_worker(WorkerId::new(NodeId(0), 1));
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(
            driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
            i as i64 * 2
        );
    }
    cluster.shutdown();
}

#[test]
fn one_worker_kill_is_one_worker_lost() {
    use rtml::common::event::{Component, EventKind};
    // The node's scheduler logs the loss when it has detached the
    // worker and marked what it held lost; nothing else logs it.
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    cluster.kill_worker(WorkerId::new(NodeId(0), 0)).unwrap();
    let handled = || {
        let events = cluster.services().events.read_all();
        events.iter().any(|e| {
            e.component == Component::LocalScheduler
                && matches!(e.kind, EventKind::WorkerLost { .. })
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !handled() {
        assert!(
            std::time::Instant::now() < deadline,
            "the kill was never handled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(cluster.profile().workers_lost, 1);
    // The other worker still computes.
    let f = cluster.register_fn1("after_kill", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    assert_eq!(driver.get(&driver.submit1(&f, 1).unwrap()).unwrap(), 2);
    cluster.shutdown();
}

#[test]
fn kill_all_but_one_node_still_completes() {
    let cluster = Cluster::start(ClusterConfig::local(3, 2)).unwrap();
    let f = cluster.register_fn1("compute_fi", |x: i64| Ok(x * x));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..12).map(|i| driver.submit1(&f, i).unwrap()).collect();
    for fut in &futs {
        driver.get(fut).unwrap();
    }
    cluster.kill_node(NodeId(1)).unwrap();
    cluster.kill_node(NodeId(2)).unwrap();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(driver.get(fut).unwrap(), (i * i) as i64);
    }
    cluster.shutdown();
}

#[test]
fn killing_holders_leaves_reads_and_lineage_correct() {
    // Every reader is a holder: tasks on nodes 1 and 2 that take a hot
    // task output as an argument leave it listed on three nodes.
    // Killing one holder must leave reads correct (remaining holders
    // serve) and killing every holder must still recover the value
    // through lineage replay — extra copies are an optimization, never
    // load-bearing for correctness.
    let pinned = |i: usize| format!("holder{i}");
    let config = ClusterConfig {
        nodes: (0..4)
            .map(|i| NodeConfig::cpu_only(2).with_custom(&pinned(i), 1.0))
            .collect(),
        spill: SpillMode::NeverSpill, // keep the producer on node 0
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let make = cluster.register_fn1("make_hot_fi", |i: u64| Ok(vec![i as u8; 32 * 1024]));
    let read = cluster.register_fn1("read_hot_fi", |hot: Vec<u8>| Ok(hot.len() as u64));
    let driver = cluster.driver();
    let fut = driver.submit1(&make, 7u64).unwrap();
    let expect = vec![7u8; 32 * 1024];
    assert_eq!(driver.get(&fut).unwrap(), expect);

    let readers: Vec<_> = [1, 2]
        .into_iter()
        .map(|i| {
            let on = TaskOptions::resources(Resources::cpu(1.0).with_custom(&pinned(i), 1.0));
            driver.submit1_opts(&read, fut, on).unwrap()
        })
        .collect();
    for reader in &readers {
        assert_eq!(driver.get(reader).unwrap(), expect.len() as u64);
    }

    // Each reading node is listed beside the producer once its
    // scheduler has committed the arrival (a step after the task ran).
    let services = cluster.services().clone();
    let hot = fut.id();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut locations = services.objects.get(hot).unwrap().locations;
        locations.sort();
        if locations == [NodeId(0), NodeId(1), NodeId(2)] {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "readers never became holders: {locations:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Kill one holder: a node that never read the object is served by
    // a surviving holder, picked in rank order.
    let (killed, fresh) = (NodeId(1), NodeId(3));
    cluster.kill_node(killed).unwrap();
    let info = services.objects.get(hot).unwrap();
    assert!(!info.locations.contains(&killed), "kill must deregister");
    let src = info.holders_ranked(hot, fresh)[0];
    assert!([NodeId(0), NodeId(2)].contains(&src), "served by {src}");
    let agent = services.fetch_agent(fresh).unwrap();
    let (bytes, _) = agent
        .fetch_many(&[hot], src, Duration::from_secs(5))
        .pop()
        .unwrap()
        .unwrap();
    assert_eq!(
        bytes,
        driver.get_raw(hot, Duration::from_secs(5)).unwrap(),
        "post-kill read served wrong bytes"
    );

    // Lose every holder: node 0's copy is dropped from store and table,
    // the remaining holder nodes die. The value must come back through
    // lineage replay, not any surviving copy.
    for node in services.objects.get(hot).unwrap().locations {
        if node == NodeId(0) {
            services.store(NodeId(0)).unwrap().delete(hot);
            services.objects.remove_location(hot, NodeId(0));
        } else if services.store(node).is_some() {
            cluster.kill_node(node).unwrap();
        }
    }
    let before = cluster.reconstructions();
    assert_eq!(driver.get(&fut).unwrap(), expect);
    assert!(
        cluster.reconstructions() > before,
        "value must have come from lineage replay"
    );
    cluster.shutdown();
}

#[test]
fn restarted_node_accepts_new_work() {
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let f = cluster.register_fn1("echo_fi", |x: i64| Ok(x));
    let driver = cluster.driver();
    let config = cluster.node_config(NodeId(1)).unwrap();
    cluster.kill_node(NodeId(1)).unwrap();
    cluster.restart_node(NodeId(1), config).unwrap();
    // Flood enough work that the restarted node must participate.
    let futs: Vec<_> = (0..40).map(|i| driver.submit1(&f, i).unwrap()).collect();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(driver.get(fut).unwrap(), i as i64);
    }
    cluster.shutdown();
}

#[test]
fn double_kill_same_node_errors() {
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    cluster.kill_node(NodeId(1)).unwrap();
    assert_eq!(
        cluster.kill_node(NodeId(1)),
        Err(Error::NodeDown(NodeId(1)))
    );
    cluster.shutdown();
}

#[test]
fn restart_alive_node_errors() {
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let err = cluster
        .restart_node(NodeId(1), NodeConfig::cpu_only(2))
        .unwrap_err();
    assert!(matches!(err, Error::InvalidArgument(_)));
    cluster.shutdown();
}

#[test]
fn reconstruction_counter_reflects_replays() {
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let f = cluster.register_fn1("count_fi", |x: i64| Ok(x + 100));
    let driver = cluster.driver();

    // Pin all results to node 1 by flooding node 0's queue? Simpler:
    // run work, kill node 1, and count that any replays that happened
    // are reported.
    let futs: Vec<_> = (0..10).map(|i| driver.submit1(&f, i).unwrap()).collect();
    for fut in &futs {
        driver.get(fut).unwrap();
    }
    let before = cluster.reconstructions();
    cluster.kill_node(NodeId(1)).unwrap();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(driver.get(fut).unwrap(), i as i64 + 100);
    }
    let after = cluster.reconstructions();
    assert!(after >= before);
    cluster.shutdown();
}

#[test]
fn failure_during_nested_fanout_recovers() {
    let cluster = Cluster::start(ClusterConfig::local(2, 3)).unwrap();
    let leaf = cluster.register_fn1("leaf_fi", |x: i64| {
        std::thread::sleep(Duration::from_millis(20));
        Ok(x)
    });
    let fanout = cluster.register_fn1_ctx("fanout_fi", move |ctx, n: i64| {
        let futs: Vec<_> = (0..n).map(|i| ctx.submit1(&leaf, i).unwrap()).collect();
        let mut sum = 0;
        for fut in &futs {
            sum += ctx.get(fut)?;
        }
        Ok(sum)
    });
    let driver = cluster.driver();
    let fut = driver.submit1(&fanout, 10).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    // Kill a worker on node 1 that is likely running leaves.
    let _ = cluster.kill_worker(WorkerId::new(NodeId(1), 0));
    assert_eq!(driver.get(&fut).unwrap(), 45);
    cluster.shutdown();
}

#[test]
fn batched_tasks_survive_node_loss_mid_batch() {
    // A whole batch is submitted as one scheduler message and spread
    // over two nodes; one node dies while the batch is in flight. Every
    // future must still resolve to the right value via lineage
    // reconstruction — batched tasks record the same durable specs as
    // single ones, so replay is oblivious to how they were submitted.
    let config = ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        spill: SpillMode::Hybrid { queue_threshold: 0 }, // spread aggressively
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let slow = cluster.register_fn1("slow_batch_fi", |x: i64| {
        std::thread::sleep(Duration::from_millis(15));
        Ok(x * 3)
    });
    let driver = cluster.driver();
    let futs = driver.submit_many(&slow, 0..24i64).unwrap();
    // Let part of the batch land (some running, some queued on node 1),
    // then kill node 1 mid-flight.
    std::thread::sleep(Duration::from_millis(40));
    cluster.kill_node(NodeId(1)).unwrap();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(
            driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
            i as i64 * 3,
            "future {i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn transient_partition_heals_without_losing_values() {
    // Results spread to node 1, then the 0↔1 link partitions. Fetches
    // fail (and may trigger precautionary replays); once the partition
    // heals every value is delivered intact — no hangs, no corruption.
    let config = ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        spill: SpillMode::Hybrid { queue_threshold: 0 },
        fetch_timeout: Duration::from_millis(200),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let f = cluster.register_fn1("part_fi", |x: i64| Ok(x + 7));
    let driver = cluster.driver();

    // Run enough tasks that some results live on node 1.
    let futs: Vec<_> = (0..8).map(|i| driver.submit1(&f, i).unwrap()).collect();
    let (ready, _) = driver.wait(&futs, 8, Duration::from_secs(30));
    assert_eq!(ready.len(), 8);

    let fabric = driver.services().fabric.clone();
    fabric.partition(NodeId(0), NodeId(1));
    let healer = std::thread::spawn({
        let fabric = fabric.clone();
        move || {
            std::thread::sleep(Duration::from_millis(800));
            fabric.heal(NodeId(0), NodeId(1));
        }
    });
    // Gets issued during the partition must resolve (locally replayed
    // values or post-heal fetches) and must be correct.
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(
            driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
            i as i64 + 7,
            "future {i}"
        );
    }
    healer.join().unwrap();
    cluster.shutdown();
}

#[test]
fn a_spilled_batch_survives_node_loss_mid_flight() {
    // The global scheduler spreads an aggressively spilled batch across
    // three nodes; one placement target dies while tasks are queued and
    // running on it. Lineage replay must recover every value, because
    // durable task specs (not scheduler state) are the recovery source.
    let config = ClusterConfig {
        nodes: (0..3).map(|_| NodeConfig::cpu_only(2)).collect(),
        spill: SpillMode::Hybrid { queue_threshold: 0 }, // spread aggressively
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let slow = cluster.register_fn1("slow_spill_fi", |x: i64| {
        std::thread::sleep(Duration::from_millis(15));
        Ok(x * 5)
    });
    let driver = cluster.driver();
    let futs = driver.submit_many(&slow, 0..24i64).unwrap();
    // Let the global scheduler place part of the batch, then kill a
    // target node mid-flight.
    std::thread::sleep(Duration::from_millis(40));
    let spills_before = cluster.counters().get("global.spills").unwrap();
    assert!(
        spills_before > 0,
        "batch must actually reach the global scheduler"
    );
    cluster.kill_node(NodeId(2)).unwrap();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(
            driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
            i as i64 * 5,
            "future {i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn the_global_scheduler_keeps_placing_after_node_loss() {
    // Losing a node must not wedge the global scheduler: the node table
    // no longer lists the dead node, so it leaves the scheduler's view,
    // and fresh work keeps being placed on the survivors.
    let config = ClusterConfig {
        nodes: (0..3).map(|_| NodeConfig::cpu_only(2)).collect(),
        spill: SpillMode::Hybrid { queue_threshold: 0 },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    // Each task runs well past a placement round trip, so a backlog of
    // them is past the spill rule's threshold by time as well as count.
    let f = cluster.register_fn1("post_kill_fi", |x: i64| {
        std::thread::sleep(Duration::from_millis(2));
        Ok(x - 9)
    });
    let driver = cluster.driver();
    let placements = || cluster.counters().get("global.placements").unwrap();

    // Warm wave: placed onto the full cluster.
    let warm = driver.submit_many(&f, 0..16i64).unwrap();
    for (i, fut) in warm.iter().enumerate() {
        assert_eq!(
            driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
            i as i64 - 9
        );
    }
    cluster.kill_node(NodeId(1)).unwrap();

    // Fresh wave after the loss: placed on the survivors.
    let placements_before = placements();
    let futs = driver.submit_many(&f, 100..132i64).unwrap();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(
            driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
            (100 + i as i64) - 9,
            "future {i} after node loss"
        );
    }
    let placements_after = placements();
    assert!(
        placements_after > placements_before,
        "nothing placed after the kill (before {placements_before}, after {placements_after})"
    );
    cluster.shutdown();
}

#[test]
fn kill_restart_cycles_do_not_leak_fabric_endpoints() {
    // Each node owns one persistent fabric endpoint: the mailbox its
    // local scheduler reads, which carries the scheduler's frames and
    // its object plane's. A kill must withdraw exactly that one and a
    // restart must register exactly one — across repeated cycles the
    // count returns to baseline, or the fabric's routing table grows
    // without bound under churn.
    let cluster = Cluster::start(ClusterConfig::local(3, 2)).unwrap();
    let f = cluster.register_fn1("leak_fi", |x: i64| Ok(x ^ 0x5a));
    let driver = cluster.driver();
    let fabric = cluster.services().fabric.clone();
    let baseline = fabric.endpoint_count();
    for cycle in 0..3 {
        let config = cluster.node_config(NodeId(2)).unwrap();
        cluster.kill_node(NodeId(2)).unwrap();
        assert_eq!(
            fabric.endpoint_count(),
            baseline - 1,
            "kill must unregister the node's one endpoint (cycle {cycle})"
        );
        cluster.restart_node(NodeId(2), config).unwrap();
        assert_eq!(
            fabric.endpoint_count(),
            baseline,
            "endpoint count must return to baseline after restart (cycle {cycle})"
        );
        // The cycle must leave a working cluster, not just a balanced
        // routing table.
        let futs: Vec<_> = (0..6)
            .map(|i| driver.submit1(&f, cycle * 10 + i).unwrap())
            .collect();
        for (i, fut) in futs.iter().enumerate() {
            assert_eq!(
                driver.get_timeout(fut, Duration::from_secs(30)).unwrap(),
                (cycle * 10 + i as i64) ^ 0x5a
            );
        }
    }
    assert_eq!(fabric.endpoint_count(), baseline);
    cluster.shutdown();
}

/// Starts a 256-task batch on two nodes, blocks a `get_many` on it at
/// once, and calls `inject` when about half the batch has sealed. The
/// blocked call must still deliver all 256 values.
fn get_many_survives(name: &str, inject: impl FnOnce(&Cluster)) -> Cluster {
    let config = ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        fetch_timeout: Duration::from_millis(200),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let nap = cluster.register_fn1(name, |x: i64| {
        std::thread::sleep(Duration::from_millis(1));
        Ok(x * 3 + 1)
    });
    let driver = cluster.driver();
    let futs = driver.submit_many(&nap, 0..256i64).unwrap();
    let blocked = std::thread::spawn({
        let driver = cluster.driver();
        let futs = futs.clone();
        move || driver.get_many_timeout(&futs, Duration::from_secs(60))
    });
    let (ready, _) = driver.wait(&futs, 128, Duration::from_secs(30));
    assert!(ready.len() >= 128);
    inject(&cluster);
    let values = blocked.join().unwrap().unwrap();
    let expect: Vec<i64> = (0..256).map(|x| x * 3 + 1).collect();
    assert_eq!(values, expect);
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    cluster
}

#[test]
fn blocked_get_many_survives_remote_node_death() {
    // Results sealed on node 1 and not yet pulled die with it, and so do
    // the tasks queued or running there: the blocked call must get the
    // former by lineage replay and the latter by kill repair.
    let mut baseline = 0;
    let mut node1 = None;
    let cluster = get_many_survives("nap_kill_fi", |cluster| {
        baseline = cluster.services().fabric.endpoint_count();
        node1 = cluster.node_config(NodeId(1));
        cluster.kill_node(NodeId(1)).unwrap();
    });
    cluster.restart_node(NodeId(1), node1.unwrap()).unwrap();
    assert_eq!(cluster.services().fabric.endpoint_count(), baseline);
    cluster.shutdown();
}

#[test]
fn blocked_get_many_survives_a_partition() {
    // The 0↔1 link drops everything for 800 ms: requests in flight time
    // out, node 1's results are replayed or fetched after the heal. No
    // hang, no wrong value, no endpoint left behind.
    let mut baseline = 0;
    let mut healer = None;
    let cluster = get_many_survives("nap_part_fi", |cluster| {
        let fabric = cluster.services().fabric.clone();
        baseline = fabric.endpoint_count();
        fabric.partition(NodeId(0), NodeId(1));
        healer = Some(std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(800));
            fabric.heal(NodeId(0), NodeId(1));
        }));
    });
    healer.unwrap().join().unwrap();
    assert_eq!(cluster.services().fabric.endpoint_count(), baseline);
    cluster.shutdown();
}
