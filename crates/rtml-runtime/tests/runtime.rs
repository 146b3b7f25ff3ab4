//! End-to-end tests of the runtime: the paper's API semantics (§3.1),
//! scheduling behaviour (§3.2), and fault tolerance (R6).

use std::time::{Duration, Instant};

use bytes::Bytes;
use rtml_common::error::Error;
use rtml_common::ids::{NodeId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::task::TaskState;
use rtml_net::LatencyModel;
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig, TaskOptions};
use rtml_sched::SpillMode;

fn small_cluster() -> Cluster {
    Cluster::start(ClusterConfig::local(2, 2)).unwrap()
}

#[test]
fn submit_and_get_round_trip() {
    let cluster = small_cluster();
    let square = cluster.register_fn1("square", |x: i64| Ok(x * x));
    let driver = cluster.driver();
    let fut = driver.submit1(&square, 12).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 144);
    cluster.shutdown();
}

#[test]
fn get_many_returns_values_in_order_with_duplicates() {
    let cluster = small_cluster();
    let square = cluster.register_fn1("gm_square", |x: i64| Ok(x * x));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..16)
        .map(|i| driver.submit1(&square, i).unwrap())
        .collect();
    // Input order preserved, duplicates allowed.
    let mut query = futs.clone();
    query.push(futs[3]);
    query.push(futs[3]);
    let values = driver.get_many(&query).unwrap();
    let expect: Vec<i64> = (0..16).map(|i| i * i).chain([9, 9]).collect();
    assert_eq!(values, expect);
    cluster.shutdown();
}

#[test]
fn get_many_matches_get_loop_across_nodes() {
    // Values produced across a multi-node cluster: get_many must agree
    // with a plain get loop (it only batches how bytes move).
    let cluster = Cluster::start(
        ClusterConfig::local(3, 2).with_latency(LatencyModel::Constant(Duration::from_micros(200))),
    )
    .unwrap();
    let triple = cluster.register_fn1("gm_triple", |x: i64| Ok(x * 3));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..24)
        .map(|i| driver.submit1(&triple, i).unwrap())
        .collect();
    let batched = driver.get_many(&futs).unwrap();
    let looped: Vec<i64> = futs.iter().map(|f| driver.get(f).unwrap()).collect();
    assert_eq!(batched, looped);
    cluster.shutdown();
}

#[test]
fn get_many_propagates_task_errors() {
    let cluster = small_cluster();
    let ok = cluster.register_fn1("gm_ok", |x: i64| Ok(x));
    let boom = cluster.register_fn0("gm_boom", || -> rtml_common::error::Result<i64> {
        Err(Error::InvalidArgument("nope".into()))
    });
    let driver = cluster.driver();
    let good = driver.submit1(&ok, 5).unwrap();
    let bad = driver.submit0(&boom).unwrap();
    let err = driver.get_many(&[good, bad]).unwrap_err();
    assert!(matches!(err, Error::TaskFailed { .. }), "{err:?}");
    cluster.shutdown();
}

#[test]
fn profile_reports_prefetches_and_suppressed_duplicates() {
    // Remote-dependency tasks on a latency fabric: the consuming node's
    // scheduler must prefetch the dependencies while tasks queue, and
    // the profile must surface the counters.
    let cluster = Cluster::start(
        ClusterConfig::local(2, 1).with_latency(LatencyModel::Constant(Duration::from_micros(500))),
    )
    .unwrap();
    let pass = cluster.register_fn1("pf_pass", |x: i64| Ok(x));
    let driver = cluster.driver();
    // Produce values (resident wherever their tasks ran), then force
    // consumers that need them as remote dependencies via fan-in.
    let sources: Vec<_> = (0..8).map(|i| driver.submit1(&pass, i).unwrap()).collect();
    let sinks: Vec<_> = sources
        .iter()
        .map(|s| driver.submit1(&pass, s).unwrap())
        .collect();
    let values = driver.get_many(&sinks).unwrap();
    assert_eq!(values, (0..8).collect::<Vec<i64>>());
    let report = cluster.profile();
    // Transfers implies the data plane moved objects; any prefetch that
    // was issued must be visible, with hits bounded by issues.
    assert!(report.prefetch_hits <= report.prefetches_issued);
    assert!(report.prefetch_hit_rate() <= 1.0);
    cluster.shutdown();
}

#[test]
fn futures_compose_into_dags() {
    let cluster = small_cluster();
    let add = cluster.register_fn2("add", |a: i64, b: i64| Ok(a + b));
    let driver = cluster.driver();
    // Diamond: d = (a+b) + (a+c).
    let ab = driver.submit2(&add, 1, 2).unwrap();
    let ac = driver.submit2(&add, 1, 3).unwrap();
    let d = driver.submit2(&add, ab, ac).unwrap();
    assert_eq!(driver.get(&d).unwrap(), 7);
    cluster.shutdown();
}

#[test]
fn deep_chain_executes_in_order() {
    let cluster = small_cluster();
    let inc = cluster.register_fn1("inc", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    let mut fut = driver.submit1(&inc, 0).unwrap();
    for _ in 0..49 {
        fut = driver.submit1(&inc, fut).unwrap();
    }
    assert_eq!(driver.get(&fut).unwrap(), 50);
    cluster.shutdown();
}

#[test]
fn nested_tasks_build_dynamic_graphs() {
    // R3: a task spawns subtasks and aggregates them with get.
    let cluster = small_cluster();
    let leaf = cluster.register_fn1("leaf", |x: i64| Ok(x * 10));
    let fanout = cluster.register_fn1_ctx("fanout", move |ctx, n: i64| {
        let futs: Vec<_> = (0..n).map(|i| ctx.submit1(&leaf, i).unwrap()).collect();
        let mut total = 0;
        for fut in &futs {
            total += ctx.get(fut)?;
        }
        Ok(total)
    });
    let driver = cluster.driver();
    let fut = driver.submit1(&fanout, 5).unwrap();
    // 10*(0+1+2+3+4) = 100.
    assert_eq!(driver.get(&fut).unwrap(), 100);
    cluster.shutdown();
}

/// Whether `inner` is a window of `outer`'s buffer.
fn is_window_of(inner: std::ops::Range<u64>, outer: &Bytes) -> bool {
    let outer = outer.as_ptr_range();
    outer.start as u64 <= inner.start && inner.end <= outer.end as u64
}

#[test]
fn bytes_arguments_and_results_are_views_of_the_stores_buffers() {
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2).with_custom("home", 8.0),
            NodeConfig::cpu_only(2).with_custom("away", 8.0),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let on = |resource| TaskOptions::resources(Resources::cpu(1.0).with_custom(resource, 1.0));
    let store = |node| cluster.services().store(node).unwrap();
    // Reports where it ran and where its argument's bytes live.
    let locate = cluster.register_fn1_ctx("locate", |ctx, data: Bytes| {
        let at = data.as_ptr() as u64;
        Ok((ctx.worker().node.0, at, at + data.len() as u64))
    });
    let make = cluster.register_fn1("make_4k", |i: u64| Ok(Bytes::from(vec![i as u8; 4096])));
    let driver = cluster.driver();

    // Sealed just under 1 MiB: four 256 KiB chunks on the wire. The
    // task's argument is a window of its node's stored copy, both where
    // the object was put and where it had to be fetched and assembled.
    let object = driver.put(&Bytes::from(vec![7u8; (1 << 20) - 64])).unwrap();
    for (resource, node) in [("home", NodeId(0)), ("away", NodeId(1))] {
        let located = driver.submit1_opts(&locate, object, on(resource)).unwrap();
        let (ran_on, start, end) = driver.get(&located).unwrap();
        assert_eq!(NodeId(ran_on), node);
        assert_eq!(end - start, (1 << 20) - 64);
        let stored = store(node).get(object.id()).unwrap();
        assert_eq!(stored.len().div_ceil(256 * 1024), 4);
        assert!(is_window_of(start..end, &stored), "copied on {node:?}");
    }

    // A single-chunk result fetched by the driver: the value is a window
    // of what the driver's node stored, which is the body of the frame
    // that arrived — a window of the producer's sealed buffer, never a
    // copy of it.
    let fut = driver.submit1_opts(&make, 9u64, on("away")).unwrap();
    let value = driver.get(&fut).unwrap();
    assert_eq!(value, Bytes::from(vec![9u8; 4096]));
    let at = value.as_ptr() as u64;
    let window = at..at + value.len() as u64;
    let arrived = store(NodeId(0)).get(fut.id()).unwrap();
    assert!(is_window_of(window, &arrived));
    let sealed = store(NodeId(1)).get(fut.id()).unwrap();
    assert_eq!(arrived.as_ptr(), sealed.as_ptr());

    // A 256 KiB result is sealed a few envelope bytes over one chunk.
    // The sliver rides in the same frame, so the block is still one
    // frame on the wire and the value a window of it.
    let make_block = cluster.register_fn1("make_256k", |i: u64| {
        Ok(Bytes::from(vec![i as u8; 256 << 10]))
    });
    let agent = cluster.services().fetch_agent(NodeId(0)).unwrap();
    let received = agent.stats().chunks_received.get();
    let fut = driver.submit1_opts(&make_block, 5u64, on("away")).unwrap();
    let value = driver.get(&fut).unwrap();
    assert_eq!(value, Bytes::from(vec![5u8; 256 << 10]));
    let stored = store(NodeId(0)).get(fut.id()).unwrap();
    assert!(stored.len() > 256 << 10);
    assert_eq!(agent.stats().chunks_received.get() - received, 1);
    let at = value.as_ptr() as u64;
    assert!(is_window_of(at..at + value.len() as u64, &stored));
    cluster.shutdown();
}

#[test]
fn a_broadcast_policy_is_read_on_every_node_without_a_copy() {
    // The RL loop's shape: four nodes of four workers on 1 GiB/s links,
    // a 1 MiB policy put each iteration and read by 32 rollouts. Every
    // rollout, wherever it runs, reads a window of the one buffer the
    // policy was sealed in, and no node's object plane copies a byte.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(4); 4],
        bandwidth_bytes_per_sec: Some(1 << 30),
        ..ClusterConfig::default()
    })
    .unwrap();
    let rollout = cluster.register_fn2_ctx("zero_copy_rollout", |ctx, policy: Bytes, _: u64| {
        std::thread::sleep(Duration::from_millis(2));
        Ok((ctx.worker().node.0, policy.as_ptr() as u64))
    });
    let driver = cluster.driver();
    let mut nodes = std::collections::BTreeSet::new();
    for iteration in 0..4u64 {
        let policy = driver
            .put(&Bytes::from(vec![iteration as u8; 1 << 20]))
            .unwrap();
        let sealed = driver.get(&policy).unwrap().as_ptr() as u64;
        let futs: Vec<_> = (0..32)
            .map(|k| driver.submit2(&rollout, policy, k).unwrap())
            .collect();
        for (node, at) in driver.get_many(&futs).unwrap() {
            assert_eq!(at, sealed, "a rollout on node {node} read a copy");
            nodes.insert(node);
        }
    }
    assert!(nodes.len() > 1, "every rollout ran on {nodes:?}");
    let fetched: u64 = (0..4)
        .map(|n| {
            let registry = cluster.node_registry(NodeId(n)).unwrap();
            assert_eq!(registry.get("transfer.bytes_copied"), Some(0), "node {n}");
            registry.get("fetch.objects_fetched").unwrap()
        })
        .sum();
    assert!(fetched > 0);
    cluster.shutdown();
}

#[test]
fn put_then_pass_as_argument() {
    let cluster = small_cluster();
    let sum = cluster.register_fn1("sum_vec", |v: Vec<i64>| Ok(v.iter().sum::<i64>()));
    let driver = cluster.driver();
    let data = driver.put(&vec![1i64, 2, 3, 4]).unwrap();
    let fut = driver.submit1(&sum, data).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 10);
    // put objects can also be fetched directly.
    assert_eq!(driver.get(&data).unwrap(), vec![1, 2, 3, 4]);
    cluster.shutdown();
}

#[test]
fn wait_returns_completed_subset() {
    let cluster = small_cluster();
    let sleepy = cluster.register_fn1("sleepy", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(ms)
    });
    let driver = cluster.driver();
    let fast = driver.submit1(&sleepy, 5u64).unwrap();
    let slow = driver.submit1(&sleepy, 3_000u64).unwrap();
    let (ready, pending) = driver.wait(&[fast, slow], 1, Duration::from_secs(2));
    assert_eq!(ready, vec![fast]);
    assert_eq!(pending, vec![slow]);
    cluster.shutdown();
}

#[test]
fn wait_timeout_returns_empty_ready() {
    let cluster = small_cluster();
    let sleepy = cluster.register_fn1("sleepy2", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(ms)
    });
    let driver = cluster.driver();
    let slow = driver.submit1(&sleepy, 2_000u64).unwrap();
    let start = Instant::now();
    let (ready, pending) = driver.wait(&[slow], 1, Duration::from_millis(50));
    assert!(ready.is_empty());
    assert_eq!(pending.len(), 1);
    assert!(start.elapsed() < Duration::from_secs(1));
    cluster.shutdown();
}

#[test]
fn application_errors_propagate_to_get() {
    let cluster = small_cluster();
    let fail = cluster.register_fn0("fail", || -> rtml_common::error::Result<i64> {
        Err(Error::InvalidArgument("bad input".into()))
    });
    let driver = cluster.driver();
    let fut = driver.submit0(&fail).unwrap();
    match driver.get(&fut) {
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("bad input"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn errors_cascade_through_dataflow() {
    let cluster = small_cluster();
    let fail = cluster.register_fn0("fail2", || -> rtml_common::error::Result<i64> {
        Err(Error::InvalidArgument("root cause".into()))
    });
    let inc = cluster.register_fn1("inc2", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    let bad = driver.submit0(&fail).unwrap();
    let downstream = driver.submit1(&inc, bad).unwrap();
    match driver.get(&downstream) {
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("root cause"), "{message}");
        }
        other => panic!("expected cascaded failure, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn panics_become_task_failures() {
    let cluster = small_cluster();
    let boom = cluster.register_fn0("boom", || -> rtml_common::error::Result<i64> {
        panic!("kaboom");
    });
    let driver = cluster.driver();
    let fut = driver.submit0(&boom).unwrap();
    match driver.get(&fut) {
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("kaboom"), "{message}");
        }
        other => panic!("expected panic capture, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn unschedulable_demand_fails_fast() {
    let cluster = small_cluster(); // CPU-only nodes
    let f = cluster.register_fn0("gpu_hungry", || Ok(1i64));
    let driver = cluster.driver();
    let fut = driver.submit0_opts(&f, TaskOptions::gpu(4.0)).unwrap();
    match driver.get_timeout(&fut, Duration::from_secs(5)) {
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("unschedulable"), "{message}");
        }
        other => panic!("expected unschedulable failure, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn gpu_tasks_route_to_gpu_nodes() {
    let config = ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_gpus(1.0),
        ],
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let whereami = cluster.register_fn0_ctx("whereami", |ctx| Ok(ctx.worker().node.0 as i64));
    let driver = cluster.driver();
    let fut = driver
        .submit0_opts(&whereami, TaskOptions::resources(Resources::new(1.0, 1.0)))
        .unwrap();
    // Must run on node 1 (the only GPU node), even though the driver is
    // on node 0.
    assert_eq!(driver.get(&fut).unwrap(), 1);
    cluster.shutdown();
}

#[test]
fn heavy_fanout_spreads_across_nodes() {
    let config = ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2); 4],
        spill: SpillMode::Hybrid { queue_threshold: 2 },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let whereami = cluster.register_fn1_ctx("whereami2", |ctx, _i: i64| {
        std::thread::sleep(Duration::from_millis(20));
        Ok(ctx.worker().node.0 as i64)
    });
    let driver = cluster.driver();
    let futs: Vec<_> = (0..32)
        .map(|i| driver.submit1(&whereami, i).unwrap())
        .collect();
    let mut nodes_used = std::collections::HashSet::new();
    for fut in &futs {
        nodes_used.insert(driver.get(fut).unwrap());
    }
    assert!(
        nodes_used.len() >= 2,
        "spillover should engage more than one node, got {nodes_used:?}"
    );
    cluster.shutdown();
}

#[test]
fn killed_worker_task_is_reconstructed() {
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let slow_id = cluster.register_fn1("slow_square", |x: i64| {
        std::thread::sleep(Duration::from_millis(300));
        Ok(x * x)
    });
    let driver = cluster.driver();
    let fut = driver.submit1(&slow_id, 9).unwrap();
    // Let the task start, then kill the worker running it.
    std::thread::sleep(Duration::from_millis(100));
    let running: Vec<(_, TaskState)> = driver
        .services()
        .tasks
        .scan_states()
        .into_iter()
        .filter(|(_, s)| matches!(s, TaskState::Running(_)))
        .collect();
    assert!(!running.is_empty(), "task should be running");
    if let TaskState::Running(worker) = running[0].1 {
        cluster.kill_worker(worker).unwrap();
    }
    // get() must trigger lineage replay and still produce the answer.
    assert_eq!(driver.get(&fut).unwrap(), 81);
    assert!(cluster.reconstructions() >= 1);
    cluster.shutdown();
}

#[test]
fn killed_node_objects_are_reconstructed() {
    let config = ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        // Force everything onto remote queues aggressively.
        spill: SpillMode::Hybrid { queue_threshold: 0 },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let make = cluster.register_fn1("make_data", |x: i64| Ok(vec![x; 100]));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..8).map(|i| driver.submit1(&make, i).unwrap()).collect();
    // Materialize everything first.
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(driver.get(fut).unwrap(), vec![i as i64; 100]);
    }
    // Kill node 1; objects that lived only there are gone.
    cluster.kill_node(NodeId(1)).unwrap();
    // All values must still be retrievable (local copies or replay).
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(
            driver.get(fut).unwrap(),
            vec![i as i64; 100],
            "object {i} lost forever"
        );
    }
    cluster.shutdown();
}

#[test]
fn node_restart_rejoins_cluster() {
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let f = cluster.register_fn1("echo", |x: i64| Ok(x));
    let driver = cluster.driver();
    let node_config = cluster.node_config(NodeId(1)).unwrap();
    cluster.kill_node(NodeId(1)).unwrap();
    assert_eq!(cluster.alive_nodes(), vec![NodeId(0)]);
    cluster.restart_node(NodeId(1), node_config).unwrap();
    assert_eq!(cluster.alive_nodes(), vec![NodeId(0), NodeId(1)]);
    // The cluster still works end to end.
    let fut = driver.submit1(&f, 5).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 5);
    cluster.shutdown();
}

#[test]
fn lost_put_objects_report_broken_lineage() {
    let config = ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let driver = cluster.driver(); // homed on node 0
    let data = driver.put(&42u64).unwrap();
    cluster.kill_node(NodeId(0)).unwrap();
    // The only copy died with node 0 and puts carry no lineage: the
    // error must say so rather than hang.
    let driver2 = cluster.driver(); // homed on node 1 now
    match driver2.get_timeout(&data, Duration::from_secs(5)) {
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("lineage"), "{message}");
        }
        other => panic!("expected broken-lineage failure, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn remote_latency_affects_cross_node_tasks() {
    // The task must run on node 1 (only GPU there) while the driver and
    // the global scheduler live on node 0: the placement message pays one
    // 3 ms hop and the result fetch pays two more.
    let config = ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_gpus(1.0),
        ],
        latency: LatencyModel::Constant(Duration::from_millis(3)),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).unwrap();
    let f = cluster.register_fn0("quick", || Ok(1i64));
    let driver = cluster.driver();
    let start = Instant::now();
    let fut = driver.submit0_opts(&f, TaskOptions::gpu(1.0)).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 1);
    assert!(
        start.elapsed() >= Duration::from_millis(6),
        "remote task should pay network hops, took {:?}",
        start.elapsed()
    );
    cluster.shutdown();
}

#[test]
fn actor_methods_execute_in_order() {
    let cluster = small_cluster();
    let actor = cluster.spawn_actor("counter", NodeId(0), || 0i64).unwrap();
    let driver = cluster.driver();
    let mut futs = Vec::new();
    for i in 1..=10 {
        futs.push(
            actor
                .call(move |state| {
                    *state += i;
                    Ok(*state)
                })
                .unwrap(),
        );
    }
    // Running totals prove strict ordering: 1, 3, 6, 10, ...
    let mut expected = 0;
    for (i, fut) in futs.iter().enumerate() {
        expected += (i + 1) as i64;
        assert_eq!(driver.get(fut).unwrap(), expected);
    }
    actor.stop();
    cluster.shutdown();
}

#[test]
fn actor_errors_propagate() {
    let cluster = small_cluster();
    let actor = cluster.spawn_actor("fragile", NodeId(0), || 0i64).unwrap();
    let driver = cluster.driver();
    let fut = actor
        .call(|_state| -> rtml_common::error::Result<i64> {
            Err(Error::InvalidArgument("actor refused".into()))
        })
        .unwrap();
    match driver.get(&fut) {
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("actor refused"), "{message}");
        }
        other => panic!("expected actor error, got {other:?}"),
    }
    // The actor survives failed calls.
    let ok = actor
        .call(|state| {
            *state += 1;
            Ok(*state)
        })
        .unwrap();
    assert_eq!(driver.get(&ok).unwrap(), 1);
    actor.stop();
    cluster.shutdown();
}

#[test]
fn profile_report_covers_run() {
    let cluster = small_cluster();
    let f = cluster.register_fn1("plus1", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..10).map(|i| driver.submit1(&f, i).unwrap()).collect();
    for fut in &futs {
        driver.get(fut).unwrap();
    }
    // A local `get` wakes on the store's seal, a step before the worker
    // logs it: give the last task's `ObjectSealed` a moment to land.
    let deadline = Instant::now() + Duration::from_secs(5);
    let report = loop {
        let report = cluster.profile();
        if report.seals >= 10 || Instant::now() > deadline {
            break report;
        }
        std::thread::yield_now();
    };
    assert!(
        report.tasks.len() >= 10,
        "profile saw {}",
        report.tasks.len()
    );
    assert!(report.seals >= 10);
    let trace = report.chrome_trace();
    assert!(trace.starts_with('[') && trace.ends_with(']'));
    assert!(report.summary().contains("tasks:"));
    cluster.shutdown();
}

#[test]
fn many_drivers_do_not_collide() {
    let cluster = small_cluster();
    let f = cluster.register_fn1("ident", |x: i64| Ok(x));
    let d1 = cluster.driver();
    let d2 = cluster.driver();
    let f1 = d1.submit1(&f, 1).unwrap();
    let f2 = d2.submit1(&f, 2).unwrap();
    assert_ne!(f1.id(), f2.id());
    assert_eq!(d1.get(&f1).unwrap(), 1);
    assert_eq!(d2.get(&f2).unwrap(), 2);
    cluster.shutdown();
}

#[test]
fn throughput_thousand_tasks() {
    let cluster = Cluster::start(ClusterConfig::local(2, 4)).unwrap();
    let f = cluster.register_fn1("tiny", |x: u64| Ok(x));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..1000u64)
        .map(|i| driver.submit1(&f, i).unwrap())
        .collect();
    let (ready, pending) = driver.wait(&futs, 1000, Duration::from_secs(60));
    assert_eq!(ready.len(), 1000);
    assert!(pending.is_empty());
    cluster.shutdown();
}

#[test]
fn kill_worker_on_dead_node_errors() {
    let cluster = small_cluster();
    cluster.kill_node(NodeId(1)).unwrap();
    let err = cluster
        .kill_worker(WorkerId::new(NodeId(1), 0))
        .unwrap_err();
    assert_eq!(err, Error::NodeDown(NodeId(1)));
    cluster.shutdown();
}

#[test]
fn get_many_of_an_executing_batch_fetches_in_batches_not_per_object() {
    // The burst shape: a batch is submitted and `get_many` is called at
    // once, while nothing has sealed yet. Remote results must arrive in
    // a handful of coalesced requests, not one round trip each. Half
    // the batch is pinned to node 1 so at least 128 results are remote
    // whatever spill decides about the rest.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_custom("far", 2.0),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let inc = cluster.register_fn1("burst_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let far = TaskOptions::resources(Resources::cpu(1.0).with_custom("far", 1.0));
    let submit = |args: &[u64]| {
        let mut futs = driver.submit_many(&inc, &args[..128]).unwrap();
        futs.extend(
            driver
                .submit_batch_opts(&inc, &args[128..], far.clone())
                .unwrap(),
        );
        futs
    };
    let args: Vec<u64> = (0..256).map(|i| i * 7).collect();
    // One warm-up round so worker start-up is not part of the picture.
    driver.get_many(&submit(&args)).unwrap();

    let agent = cluster.services().fetch_agent(NodeId(0)).unwrap();
    let requests_before = agent.stats().requests_sent.get();
    let fetched_before = agent.stats().objects_fetched.get();
    let values = driver.get_many(&submit(&args)).unwrap();
    let expect: Vec<u64> = args.iter().map(|x| x + 1).collect();
    assert_eq!(values, expect);
    let requests = agent.stats().requests_sent.get() - requests_before;
    let fetched = agent.stats().objects_fetched.get() - fetched_before;
    assert!(fetched >= 128, "only {fetched} results were remote");
    // A request leaves when the previous one to that holder is answered,
    // so the count follows how long the round takes: ~10 in a release
    // build, up to ~40 in a debug build sharing its cores with other
    // tests. One round trip per result would be `requests == fetched`.
    assert!(
        requests * 3 <= fetched,
        "{requests} fetch requests for {fetched} remote results"
    );
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    cluster.shutdown();
}

#[test]
fn wait_costs_control_plane_reads_linear_in_the_batch() {
    // 255 futures complete early, one sleeps: `wait` for all of them
    // stays blocked across hundreds of notifications and many poll
    // slices. Its own control-plane traffic must be the subscription
    // plus a few nudges for the straggler — not a re-read of the whole
    // batch per wake-up or per slice. Telemetry is off so the idle
    // cluster itself is quiet.
    let cluster = Cluster::start(ClusterConfig::local(2, 2).without_telemetry()).unwrap();
    let nap = cluster.register_fn1("wait_nap", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(ms)
    });
    let driver = cluster.driver();
    let n = 256usize;
    let mut args = vec![0u64; n];
    args[n - 1] = 300;
    let futs = driver.submit_many(&nap, &args).unwrap();
    // Everything but the straggler has finished (and stopped writing to
    // the control plane) before the measured window opens.
    let (ready, _) = driver.wait(&futs, n - 1, Duration::from_secs(20));
    assert!(ready.len() >= n - 1);
    std::thread::sleep(Duration::from_millis(50));

    let kv = cluster.services().kv.clone();
    let before = kv.stats().total_ops();
    let (ready, pending) = driver.wait(&futs, n, Duration::from_secs(20));
    let ops = kv.stats().total_ops() - before;
    assert_eq!((ready.len(), pending.len()), (n, 0));
    assert!(ops <= 8 * n as u64, "wait on {n} futures cost {ops} kv ops");

    // Count mode stops at the count and leaves nothing registered.
    let (ready, pending) = driver.wait(&futs, 10, Duration::from_secs(20));
    assert!(ready.len() >= 10);
    assert_eq!(ready.len() + pending.len(), n);
    assert_eq!(kv.subscriber_count(), 0);
    for node in [NodeId(0), NodeId(1)] {
        assert_eq!(
            cluster.services().store(node).unwrap().local_waiter_count(),
            0
        );
    }
    cluster.shutdown();
}

#[test]
fn blocked_gets_leave_no_subscribers_behind() {
    let cluster = small_cluster();
    let inc = cluster.register_fn1("leak_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    for i in 0..2000u64 {
        let fut = driver.submit1(&inc, i).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), i + 1);
    }
    // A get that gives up must clean up too.
    let nap = cluster.register_fn0("leak_nap", || {
        std::thread::sleep(Duration::from_millis(100));
        Ok(1u64)
    });
    let slow = driver.submit0(&nap).unwrap();
    assert!(matches!(
        driver.get_timeout(&slow, Duration::from_millis(5)),
        Err(Error::Timeout)
    ));
    assert_eq!(driver.get(&slow).unwrap(), 1);
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    for node in [NodeId(0), NodeId(1)] {
        assert_eq!(
            cluster.services().store(node).unwrap().local_waiter_count(),
            0
        );
    }
    cluster.shutdown();
}

#[test]
fn reconstruction_nudges_stay_linear_in_the_producers_in_flight() {
    // A blocked `get_many` nudges reconstruction for its whole batch, so
    // the stuck-task backstop may be watching thousands of legitimately
    // in-flight producers at once. Pruning its watch list must not
    // re-read every watched task's state on every nudge.
    let cluster = Cluster::start(ClusterConfig::local(1, 1).without_telemetry()).unwrap();
    let nap = cluster.register_fn1("nudge_nap", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(ms)
    });
    let driver = cluster.driver();
    // The first task holds the only worker; the rest sit queued.
    let n = 1024usize;
    let mut args = vec![0u64; n];
    args[0] = 400;
    let futs = driver.submit_many(&nap, &args).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let recon = rtml_runtime::ReconstructionManager::new(cluster.services().clone());
    let kv = cluster.services().kv.clone();
    let before = kv.stats().total_ops();
    for fut in &futs {
        recon.handle_missing(&[fut.id()]);
    }
    let ops = kv.stats().total_ops() - before;
    assert!(ops <= 16 * n as u64, "{n} nudges cost {ops} kv ops");
    assert_eq!(driver.get_many(&futs).unwrap(), args);
    cluster.shutdown();
}
