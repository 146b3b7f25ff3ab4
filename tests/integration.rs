//! Cross-crate integration tests: the full stack exercised through the
//! facade, combining workloads, scheduling modes, and the control plane.

use std::time::Duration;

use rtml::prelude::*;
use rtml::workloads::baselines::{BspConfig, BspEngine, SerialEngine};
use rtml::workloads::{mcts, rl, rnn};

#[test]
fn rl_serial_bsp_rtml_same_answer() {
    let config = rl::RlConfig {
        rollouts: 6,
        frames_per_task: 4,
        frame_cost: Duration::from_micros(300),
        iterations: 3,
        policy_kernel_cost: Duration::from_millis(1),
        ..rl::RlConfig::default()
    };
    let serial = rl::run_serial(&config);

    let engine = BspEngine::new(BspConfig {
        workers: 4,
        per_task_overhead: Duration::from_micros(200),
        per_stage_overhead: Duration::from_millis(1),
    });
    let bsp = rl::run_engine(&config, &engine);

    let cluster = Cluster::start(ClusterConfig::local(2, 3)).unwrap();
    let funcs = rl::RlFuncs::register(&cluster);
    let driver = cluster.driver();
    let rtml = rl::run_rtml(&config, &driver, &funcs, false).unwrap();
    cluster.shutdown();

    assert_eq!(serial.checksum, bsp.checksum);
    assert_eq!(serial.checksum, rtml.checksum);
    assert_eq!(serial.total_reward_bits, bsp.total_reward_bits);
    assert_eq!(serial.total_reward_bits, rtml.total_reward_bits);
}

#[test]
fn rnn_all_engines_same_checksum_on_gpu_cluster() {
    let config = rnn::RnnConfig {
        layers: 3,
        timesteps: 6,
        base_cell_cost: Duration::from_micros(500),
        ..rnn::RnnConfig::default()
    };
    let serial = rnn::run_serial(&config);
    let bsp = rnn::run_bsp(&config, &SerialEngine);
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2).with_gpus(1.0),
            NodeConfig::cpu_only(2),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let funcs = rnn::RnnFuncs::register(&cluster);
    let driver = cluster.driver();
    let rtml = rnn::run_rtml(&config, &driver, &funcs).unwrap();
    cluster.shutdown();
    assert_eq!(serial.checksum, bsp.checksum);
    assert_eq!(serial.checksum, rtml.checksum);
}

#[test]
fn mcts_survives_worker_failure() {
    let cluster = Cluster::start(ClusterConfig::local(2, 3)).unwrap();
    let funcs = mcts::MctsFuncs::register(&cluster);
    let config = mcts::MctsConfig {
        frame_cost: Duration::from_millis(2),
        budget: 24,
        parallelism: 6,
        ..mcts::MctsConfig::default()
    };
    // Kill a worker while the search is running; lineage replay must
    // keep the budget accounting exact.
    let driver = cluster.driver();
    let result = std::thread::scope(|scope| {
        let search = scope.spawn(|| mcts::run_rtml(&config, &driver, &funcs));
        std::thread::sleep(Duration::from_millis(30));
        let _ = cluster.kill_worker(WorkerId::new(NodeId(1), 0));
        search.join().unwrap().unwrap()
    });
    assert_eq!(result.simulations, 24);
    cluster.shutdown();
}

#[test]
fn centralized_vs_hybrid_spill_modes_run_same_workload() {
    for spill in [
        SpillMode::AlwaysSpill,
        SpillMode::NeverSpill,
        SpillMode::Hybrid { queue_threshold: 2 },
    ] {
        let cluster = Cluster::start(ClusterConfig::local(2, 2).with_spill(spill.clone())).unwrap();
        let f = cluster.register_fn1("echo_mode", |x: i64| Ok(x));
        let driver = cluster.driver();
        let futs: Vec<_> = (0..20).map(|i| driver.submit1(&f, i).unwrap()).collect();
        for (i, fut) in futs.iter().enumerate() {
            assert_eq!(driver.get(fut).unwrap(), i as i64, "mode {spill:?}");
        }
        cluster.shutdown();
    }
}

#[test]
fn placement_policies_run_same_workload() {
    // Every task goes through the global scheduler, which places it by
    // the one policy there is.
    let mut config = ClusterConfig::local(3, 2).with_spill(SpillMode::AlwaysSpill);
    config.placement = PlacementPolicy::LocalityAware;
    let cluster = Cluster::start(config).unwrap();
    let f = cluster.register_fn1("echo_policy", |x: i64| Ok(x * 3));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..15).map(|i| driver.submit1(&f, i).unwrap()).collect();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(driver.get(fut).unwrap(), i as i64 * 3);
    }
    cluster.shutdown();
}

#[test]
fn control_plane_sharding_preserves_semantics() {
    for shards in [1usize, 4, 16] {
        let cluster = Cluster::start(ClusterConfig::local(2, 2).with_kv_shards(shards)).unwrap();
        let f = cluster.register_fn2("mul", |a: i64, b: i64| Ok(a * b));
        let driver = cluster.driver();
        let x = driver.submit2(&f, 6, 7).unwrap();
        let y = driver.submit2(&f, x, 2i64).unwrap();
        assert_eq!(driver.get(&y).unwrap(), 84, "shards {shards}");
        cluster.shutdown();
    }
}

#[test]
fn a_zero_shard_count_is_rejected() {
    // A count of zero is a configuration error, like an empty node
    // list — not a silent round up to one.
    let with = |kv_shards| ClusterConfig {
        kv_shards,
        ..ClusterConfig::local(2, 1)
    };
    assert!(matches!(
        Cluster::start(with(0)),
        Err(Error::InvalidArgument(_))
    ));
    let cluster = Cluster::start(with(1)).unwrap();
    let f = cluster.register_fn1("count_of_one", |x: i64| Ok(x + 1));
    let driver = cluster.driver();
    let fut = driver.submit1(&f, 41).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 42);
    cluster.shutdown();
}

#[test]
fn every_config_field_is_a_user_choice_named_here() {
    use rtml::sched::LocalSchedulerConfig;
    use rtml::store::StoreConfig;
    // Every field of the configs a cluster is built from, named, with
    // no `..`: a new field does not compile until it is listed here. A
    // value nobody varies is a constant beside its reader, not a field.
    let ClusterConfig {
        nodes,
        kv_shards,
        latency: _,
        bandwidth_bytes_per_sec,
        spill,
        placement,
        fetch_timeout,
        seed,
        telemetry,
        faults: _,
    } = ClusterConfig::default();
    let NodeConfig {
        workers,
        cpus,
        gpus,
        custom,
        store_capacity,
    } = nodes[0].clone();
    let LocalSchedulerConfig {
        node,
        total_resources: _,
        spill: sched_spill,
        fetch_timeout: sched_fetch_timeout,
    } = LocalSchedulerConfig::default();
    let StoreConfig {
        node: store_node,
        capacity_bytes,
        chunk_bytes,
    } = StoreConfig::default();
    // The defaults every workload runs.
    assert_eq!((nodes.len(), kv_shards, seed), (1, 8, 0x5eed));
    assert_eq!(bandwidth_bytes_per_sec, None);
    assert_eq!(spill, SpillMode::Hybrid { queue_threshold: 4 });
    assert_eq!(placement, PlacementPolicy::LocalityAware);
    assert!(telemetry);
    assert_eq!(fetch_timeout, Duration::from_secs(2));
    assert_eq!((workers, cpus, gpus), (4, 4.0, 0.0));
    assert!(custom.is_empty());
    assert_eq!(store_capacity, 256 << 20);
    assert_eq!((node, store_node), (NodeId(0), NodeId(0)));
    assert_eq!((sched_spill, sched_fetch_timeout), (spill, fetch_timeout));
    assert_eq!((capacity_bytes, chunk_bytes), (512 << 20, 256 << 10));
}

#[test]
fn batched_submission_runs_end_to_end_under_every_spill_mode() {
    for spill in [
        SpillMode::AlwaysSpill,
        SpillMode::NeverSpill,
        SpillMode::Hybrid { queue_threshold: 2 },
    ] {
        let cluster = Cluster::start(ClusterConfig::local(2, 2).with_spill(spill.clone())).unwrap();
        let f = cluster.register_fn1("echo_batch_mode", |x: i64| Ok(x + 10));
        let driver = cluster.driver();
        let futs = driver.submit_many(&f, 0..20i64).unwrap();
        for (i, fut) in futs.iter().enumerate() {
            assert_eq!(driver.get(fut).unwrap(), i as i64 + 10, "mode {spill:?}");
        }
        cluster.shutdown();
    }
}

#[test]
fn a_killed_nodes_unflushed_events_are_counted_lost_and_the_profile_is_partial() {
    use rtml::common::event::{Component, Event, EventKind};
    use rtml::common::ids::DriverId;
    // Events logged on node 1 reach the log on its loop's next load
    // tick; a kill before it drops them, counted. The loop ticks every
    // millisecond, so a kill right after the pushes can follow a tick
    // that took them: the node is restarted and the pushes repeated
    // until a kill catches some unflushed.
    const PUSHES: u64 = 100;
    let cluster = Cluster::start(ClusterConfig::local(2, 1)).unwrap();
    let events = cluster.services().events.clone();
    let object = TaskId::driver_root(DriverId::from_index(0))
        .child(0)
        .return_object(0);
    let mut pushed = 0;
    for _ in 0..20 {
        for _ in 0..PUSHES {
            let kind = EventKind::PrefetchIssued {
                object,
                node: NodeId(1),
            };
            events.append(NodeId(1), Event::now(Component::FetchAgent, kind));
        }
        pushed += PUSHES;
        cluster.kill_node(NodeId(1)).unwrap();
        if events.lost_count() > 0 {
            break;
        }
        cluster
            .restart_node(NodeId(1), NodeConfig::cpu_only(1))
            .unwrap();
    }
    let lost = events.lost_count();
    assert!(lost > 0 && lost <= PUSHES, "{lost} events lost");
    assert_eq!(cluster.counters().get("events.lost"), Some(lost));
    let report = cluster.profile();
    assert!(report.partial, "a profile missing lost events reads whole");
    assert_eq!((report.lost_records, report.dropped_records), (lost, 0));
    // The rest reached the log; the node's death was logged after the
    // discard, and is not lost.
    assert_eq!(report.prefetches_issued as u64, pushed - lost);
    assert!(report.nodes_lost >= 1);
    assert!(report.summary().contains("lost with killed nodes"));
    cluster.shutdown();
}

#[test]
fn event_streams_are_capped_and_profiling_survives() {
    use rtml::common::codec::{decode_from_slice, encode_to_bytes};
    use rtml::common::event::Event;
    use rtml::common::ids::DriverId;
    use rtml::common::task::{ArgSpec, TaskState};
    use rtml::kv::EventLog;
    use rtml::runtime::TaskRequest;
    // 17 batches of 4 096 tasks gated on an object that never seals: the
    // driver's stream takes ≈ 69 600 events, past the log's cap, while
    // nothing runs. The log must drop its oldest frames, report them,
    // and keep `cluster.profile()` working over the retained window.
    const BATCH: usize = 4096;
    const BATCHES: usize = 17;
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    })
    .unwrap();
    let gated = cluster.register_fn2("capped_gated", |x: u64, _gate: u64| Ok(x));
    let driver = cluster.driver();
    let never = TaskId::driver_root(DriverId::from_index(u64::MAX))
        .child(0)
        .return_object(0);
    let payload = encode_to_bytes(&0u64);
    let mut last = Vec::new();
    for _ in 0..BATCHES {
        let batch = (0..BATCH)
            .map(|_| TaskRequest {
                function: gated.id(),
                args: vec![ArgSpec::Value(payload.clone()), ArgSpec::ObjectRef(never)],
                num_returns: 1,
                resources: Resources::cpu(1.0),
            })
            .collect();
        last = driver.submit_raw_batch(batch).unwrap().pop().unwrap();
    }
    // Batches are ingested in order: once the last task is queued every
    // stream has taken all it will.
    let task = last[0].producer_task().unwrap();
    let (current, updates) = driver.services().tasks.subscribe_state(task);
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut state = current;
    while !matches!(state, Some(TaskState::Queued(_))) {
        assert!(
            std::time::Instant::now() < deadline,
            "never queued: {state:?}"
        );
        state = updates.recv_timeout(Duration::from_secs(1)).or(state);
    }
    let dropped = driver.services().events.dropped_count();
    assert!(dropped > 0, "expected dropped events");
    // Every stream holds at most the cap, unless its one newest frame
    // alone is larger: frames are dropped whole.
    let streams = driver.services().kv.scan_logs_prefix(b"ev:");
    assert!(!streams.is_empty());
    for (key, frames) in &streams {
        let held: usize = frames
            .iter()
            .map(|f| decode_from_slice::<Vec<Event>>(f).unwrap().len())
            .sum();
        assert!(
            held <= EventLog::RETENTION || frames.len() == 1,
            "stream {key:?} holds {held} events in {} frames",
            frames.len()
        );
    }
    let report = cluster.profile();
    assert!(!report.tasks.is_empty());
    assert!(report.partial && report.dropped_records >= dropped);
    cluster.shutdown();
}

#[test]
fn telemetry_timeseries_is_bounded_and_column_stable() {
    use rtml::kv::TelemetryTable;
    // The ring's eviction is the table's own test; here the cluster's
    // rings hold at most its constant.
    const RECORDS: usize = 4;
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    let f = cluster.register_fn1("tel_echo", |x: i64| Ok(x));
    let driver = cluster.driver();
    let futs = driver.submit_many(&f, 0..50i64).unwrap();
    for fut in &futs {
        driver.get(fut).unwrap();
    }
    // Let the samplers take a few records each.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let series = cluster.timeseries();
        if series.len() == 2 && series.iter().all(|(_, r)| r.len() >= RECORDS) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "samplers stalled: {:?}",
            series
                .iter()
                .map(|(n, r)| (*n, r.len()))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let series = cluster.timeseries();
    let cluster_columns = cluster.services().metrics.sample_names();
    for (node, records) in &series {
        // Bounded ring per node.
        let bound = TelemetryTable::RETENTION;
        assert!(records.len() <= bound, "{node}: {} records", records.len());
        // Column shape is identical across every record of a stream,
        // timestamps rise, and every registered metric has a value in
        // every sample (non-empty series per metric).
        let names: Vec<&str> = records[0].samples.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"fetch.transfers"), "{names:?}");
        assert!(names.contains(&"sched.prefetch_skipped_capacity"));
        // The columns are the node's registry, whole, and on the lowest
        // live node alone the cluster's, whole: each cluster column is
        // recorded in one stream.
        let mut registered = cluster.node_registry(*node).unwrap().sample_names();
        if *node == NodeId(0) {
            assert!(names.contains(&"fabric.sent") && names.contains(&"kv.locks"));
            registered.extend(cluster_columns.iter().cloned());
        }
        registered.sort();
        assert_eq!(names, registered, "{node} samples another column set");
        for pair in records.windows(2) {
            assert!(pair[0].at_nanos <= pair[1].at_nanos);
            let next: Vec<&str> = pair[1].samples.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, next, "column shape drifted on {node}");
        }
    }
    for column in &cluster_columns {
        let streams = series
            .iter()
            .filter(|(_, records)| records[0].samples.iter().any(|(name, _)| name == column));
        assert_eq!(streams.count(), 1, "{column} is not in exactly one stream");
    }
    // The node registries the samplers read are exposed too.
    assert!(cluster
        .node_registry(NodeId(0))
        .is_some_and(|r| !r.is_empty()));
    cluster.shutdown();

    // Disabled: no sampler commits anything.
    let quiet = Cluster::start(ClusterConfig::local(1, 1).without_telemetry()).unwrap();
    let f = quiet.register_fn1("tel_quiet", |x: i64| Ok(x));
    let driver = quiet.driver();
    let fut = driver.submit1(&f, 3i64).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 3);
    assert!(quiet.timeseries().is_empty());
    quiet.shutdown();
}

#[test]
fn counters_are_named_once_and_summed_once() {
    use bytes::Bytes;
    use rtml::store::PUSH_MAX_BYTES;
    // One result, pinned to node 1 and too large to push, is pulled
    // back by the driver on node 0: node 0 fetches, node 1 serves.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_custom("far", 1.0),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let blob = cluster.register_fn0("counted_blob", || {
        Ok(Bytes::from(vec![7u8; 4 * PUSH_MAX_BYTES]))
    });
    let driver = cluster.driver();
    let far = TaskOptions::resources(Resources::cpu(1.0).with_custom("far", 1.0));
    let pulled = driver.submit0_opts(&blob, far).unwrap();
    assert_eq!(driver.get(&pulled).unwrap().len(), 4 * PUSH_MAX_BYTES);

    // Each name has one home: a node's registry or the cluster's.
    let nodes = [NodeId(0), NodeId(1)];
    let registries: Vec<_> = nodes
        .iter()
        .map(|n| cluster.node_registry(*n).unwrap())
        .collect();
    let shared = &cluster.services().metrics;
    let cluster_wide = shared.sample_names();
    for registry in &registries {
        for name in registry.sample_names() {
            assert!(!cluster_wide.contains(&name), "{name} is named twice");
        }
    }

    // Per-node counters sum into the cluster's totals.
    let counters = cluster.counters();
    for name in ["fetch.transfers", "transfer.requests"] {
        let per_node: u64 = registries.iter().map(|r| r.get(name).unwrap()).sum();
        assert_eq!(counters.get(name), Some(per_node), "{name}");
    }
    let fetched = registries[0].get("fetch.transfers").unwrap();
    assert!(fetched > 0, "node 0 fetched nothing");
    let served = registries[1].get("transfer.requests").unwrap();
    assert!(served > 0, "node 1 served nothing");

    // A cluster-wide counter is counted once, not once per node.
    let fabric = &cluster.services().fabric.stats;
    let before = fabric.sent.get();
    let sent = cluster.counters().get("fabric.sent").unwrap();
    let after = fabric.sent.get();
    assert!(
        (before..=after).contains(&sent),
        "fabric.sent {sent} outside [{before}, {after}]"
    );
    cluster.shutdown();
}

#[test]
fn never_spill_keeps_every_feasible_task_where_it_was_submitted() {
    use rtml::common::event::EventKind;
    // A gated burst on node 0 of two 2-worker nodes under NeverSpill.
    // Spill and placement are the only ways work moves between nodes,
    // and NeverSpill turns both off: node 1 idles through the whole
    // burst while node 0 works through it two tasks at a time.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2), NodeConfig::cpu_only(2)],
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::default()
    })
    .unwrap();
    let gate = cluster.register_fn0("kept_gate", || {
        std::thread::sleep(Duration::from_millis(10));
        Ok(1u8)
    });
    let work = cluster.register_fn2("kept_work", |x: u64, _gate: u8| {
        std::thread::sleep(Duration::from_millis(2));
        Ok(x)
    });
    let driver = cluster.driver();
    let open = driver.submit0(&gate).unwrap();
    let futs: Vec<_> = (0..32u64)
        .map(|x| driver.submit2(&work, x, open).unwrap())
        .collect();
    assert_eq!(driver.get_many(&futs).unwrap(), (0..32).collect::<Vec<_>>());

    // Where each task started, read off the event log.
    let mut burst: Vec<TaskId> = futs
        .iter()
        .map(|f| f.id().producer_task().unwrap())
        .collect();
    burst.push(open.id().producer_task().unwrap());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let started = loop {
        let started: Vec<(TaskId, NodeId)> = cluster
            .services()
            .events
            .read_all()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskStarted { task, worker } => Some((task, worker.node)),
                _ => None,
            })
            .collect();
        if burst.iter().all(|t| started.iter().any(|(s, _)| s == t)) {
            break started;
        }
        assert!(std::time::Instant::now() < deadline, "starts never logged");
        std::thread::sleep(Duration::from_millis(2));
    };
    for (task, node) in &started {
        assert_eq!(*node, NodeId(0), "{task} ran on {node}");
    }
    cluster.shutdown();
}

#[test]
fn deeply_nested_dynamic_graph() {
    // A task that recursively spawns children (R3) down to depth 5.
    let cluster = Cluster::start(ClusterConfig::local(2, 4)).unwrap();
    let leaf = cluster.register_fn1("leafd", |x: i64| Ok(x + 1));
    fn register_level(
        cluster: &Cluster,
        level: usize,
        inner: rtml::runtime::Func1<i64, i64>,
    ) -> rtml::runtime::Func1<i64, i64> {
        cluster.register_fn1_ctx(&format!("level{level}"), move |ctx, x: i64| {
            let child = ctx.submit1(&inner, x)?;
            let v = ctx.get(&child)?;
            Ok(v * 2)
        })
    }
    let mut f = leaf;
    for level in 0..5 {
        f = register_level(&cluster, level, f);
    }
    let driver = cluster.driver();
    let fut = driver.submit1(&f, 0).unwrap();
    // ((((0+1)*2)*2)*2)*2)*2 = 32.
    assert_eq!(driver.get(&fut).unwrap(), 32);
    cluster.shutdown();
}

/// Table locations ⊆ store residency, whoever seals: a seal that evicts
/// takes its victims' locations with it — for `put` (the §4.2 loop that
/// puts a policy every iteration), an actor's result and the error a
/// permanently unschedulable task is sealed with.
#[test]
fn a_put_that_evicts_leaves_no_stale_location() {
    const MIB: usize = 1 << 20;
    let node = NodeConfig::cpu_only(2).with_store_capacity(3 * MIB as u64);
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![node],
        ..ClusterConfig::default()
    })
    .unwrap();
    let driver = cluster.driver();
    let services = driver.services().clone();
    let store = services.store(NodeId(0)).unwrap();
    let mut sealed: Vec<ObjectId> = Vec::new();
    // Every location the table lists is a resident copy, and the seals
    // since the last check did evict. A reader can have its value a
    // step before the sealer has finished publishing (a local `get`
    // reads the store), so a stale entry gets a moment to go.
    let mut evictions = 0;
    let mut check = |sealed: &[ObjectId], what: &str| {
        let stale = || -> Vec<ObjectId> {
            let listed = |id: &ObjectId| {
                let info = services.objects.get(*id);
                info.is_some_and(|info| info.locations.contains(&NodeId(0)))
            };
            let gone = sealed
                .iter()
                .filter(|id| listed(id) && !store.contains(**id));
            gone.copied().collect()
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !stale().is_empty() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(stale(), vec![], "{what}: evicted but still listed");
        let now = store.stats.evictions.get();
        assert!(now > evictions, "{what}: nothing was evicted");
        evictions = now;
    };

    let block = |fill: u8| bytes::Bytes::from(vec![fill; MIB - 1024]);
    for i in 0..6 {
        sealed.push(driver.put(&block(i)).unwrap().id());
    }
    check(&sealed, "put");

    let actor = cluster.spawn_actor("blocks", NodeId(0), || 0u8).unwrap();
    for _ in 0..3 {
        let result = actor
            .call(move |n| {
                *n += 1;
                Ok(block(*n))
            })
            .unwrap();
        assert_eq!(driver.get(&result).unwrap().len(), MIB - 1024);
        sealed.push(result.id());
    }
    check(&sealed, "actor result");

    // Leave less room than an error envelope takes, then fail a task
    // no node can ever run: its sealed error has to evict.
    let free = (store.capacity_bytes() - store.used_bytes()) as usize;
    if free > 64 {
        sealed.push(
            driver
                .put(&bytes::Bytes::from(vec![7u8; free - 64]))
                .unwrap()
                .id(),
        );
    }
    let f = cluster.register_fn1("never_runs", |x: u64| Ok(x));
    let doomed = driver
        .submit1_opts(&f, 1u64, TaskOptions::gpu(1.0))
        .unwrap();
    assert!(driver.get(&doomed).is_err());
    sealed.push(doomed.id());
    check(&sealed, "unschedulable seal");
    cluster.shutdown();
}

#[test]
fn thirty_two_nodes_compute_every_value_and_spread_the_work() {
    use rtml::common::event::EventKind;
    // 32 one-worker nodes under a mixed workload: a 256-wide fan-out of
    // squares, 32 chains of 8 increments, and a pairwise tree reduction
    // of the squares whose inputs cross nodes. A spill threshold of 2
    // sends most placement through the global scheduler.
    const NODES: usize = 32;
    const FANOUT: i64 = 256;
    const DEPTH: i64 = 8;
    let cluster = Cluster::start(ClusterConfig {
        nodes: (0..NODES).map(|_| NodeConfig::cpu_only(1)).collect(),
        spill: SpillMode::Hybrid { queue_threshold: 2 },
        ..ClusterConfig::default()
    })
    .unwrap();
    let square = cluster.register_fn1("scale_square", |x: i64| Ok(x * x));
    let inc = cluster.register_fn1("scale_inc", |x: i64| Ok(x + 1));
    let add = cluster.register_fn2("scale_add", |a: i64, b: i64| Ok(a + b));
    let driver = cluster.driver();
    let squares = driver.submit_many(&square, 0..FANOUT).unwrap();
    let chains: Vec<ObjectRef<i64>> = (0..32i64)
        .map(|c| {
            let mut tip = driver.submit1(&inc, c * 100).unwrap();
            for _ in 1..DEPTH {
                tip = driver.submit1(&inc, tip).unwrap();
            }
            tip
        })
        .collect();
    let mut layer = squares.clone();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => driver.submit2(&add, a, b).unwrap(),
                _ => pair[0],
            })
            .collect();
    }

    // Every value is exact.
    let values = driver.get_many(&squares).unwrap();
    assert_eq!(values, (0..FANOUT).map(|i| i * i).collect::<Vec<_>>());
    for (c, tip) in chains.iter().enumerate() {
        assert_eq!(
            driver.get(tip).unwrap(),
            c as i64 * 100 + DEPTH,
            "chain {c}"
        );
    }
    let total: i64 = (0..FANOUT).map(|i| i * i).sum();
    assert_eq!(driver.get(&layer[0]).unwrap(), total, "tree reduction");

    assert!(
        cluster.counters().get("global.spills").unwrap() > 0,
        "nothing spilled"
    );

    // Executed tasks spread across the cluster.
    let active: std::collections::BTreeSet<NodeId> = driver
        .services()
        .events
        .read_all()
        .into_iter()
        .filter_map(|event| match event.kind {
            EventKind::TaskFinished { worker, .. } => Some(worker.node),
            _ => None,
        })
        .collect();
    assert!(
        active.len() >= NODES / 4,
        "only {} of {NODES} nodes executed work",
        active.len()
    );
    cluster.shutdown();
}

#[test]
fn a_spilled_dag_traces_every_plane_and_its_critical_path_sums_to_its_makespan() {
    // Three nodes under AlwaysSpill, so every task crosses a global
    // scheduler and most inputs cross the fabric: a 24-wide fan-out and
    // an 8-deep chain over one 16 KiB block.
    let cluster =
        Cluster::start(ClusterConfig::local(3, 2).with_spill(SpillMode::AlwaysSpill)).unwrap();
    let work = cluster.register_fn1("traced_work", |block: Vec<u8>| {
        std::thread::sleep(Duration::from_millis(1));
        Ok(block.iter().map(|b| b.wrapping_add(1)).collect::<Vec<u8>>())
    });
    let driver = cluster.driver();
    let block = driver.put(&vec![7u8; 16 * 1024]).unwrap();
    let fan: Vec<_> = (0..24)
        .map(|_| driver.submit1(&work, block).unwrap())
        .collect();
    let mut tip = driver.submit1(&work, block).unwrap();
    for _ in 1..8 {
        tip = driver.submit1(&work, tip).unwrap();
    }
    assert!(driver.get_many(&fan).unwrap().iter().all(|v| v[0] == 8));
    assert_eq!(driver.get(&tip).unwrap(), vec![15u8; 16 * 1024]);

    let report = cluster.profile();
    for plane in ["control", "ingest", "placement", "transfer"] {
        assert!(
            report.spans.iter().any(|span| span.plane == plane),
            "the trace holds no {plane} span"
        );
    }
    let trace = report.chrome_trace();
    assert!(is_json(&trace), "the Chrome trace is not JSON");
    assert!(
        trace.contains("\"ph\":\"s\"") && trace.contains("\"ph\":\"f\""),
        "the trace carries no flow events"
    );
    let sink = tip.id().producer_task().unwrap();
    let path = cluster.critical_path(sink).expect("the sink is logged");
    assert_eq!(path.sink, sink);
    let (makespan, attributed) = (path.makespan_nanos(), path.attributed_nanos());
    assert!(
        makespan.abs_diff(attributed) * 100 <= makespan.max(1),
        "the critical path's buckets sum to {attributed} ns of a {makespan} ns makespan"
    );
    cluster.shutdown();
}

/// Whether `text` is exactly one JSON value: objects, arrays, strings
/// with their escapes, numbers and the three literals, per the grammar.
fn is_json(text: &str) -> bool {
    fn ws(b: &[u8], i: &mut usize) {
        while b.get(*i).is_some_and(|c| b" \t\n\r".contains(c)) {
            *i += 1;
        }
    }
    fn digits(b: &[u8], i: &mut usize) -> bool {
        let start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > start
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if b.get(*i) != Some(&b'"') {
            return false;
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            *i += match c {
                b'"' => {
                    return {
                        *i += 1;
                        true
                    }
                }
                b'\\' if b.get(*i + 1).is_some_and(|e| b"\"\\/bfnrt".contains(e)) => 2,
                b'\\'
                    if b.get(*i + 1) == Some(&b'u')
                        && b.get(*i + 2..*i + 6)
                            .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) =>
                {
                    6
                }
                b'\\' | 0x00..=0x1f => return false,
                _ => 1,
            };
        }
        false
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        ws(b, i);
        let ok = match b.get(*i) {
            Some(&open @ (b'{' | b'[')) => {
                let close = if open == b'{' { b'}' } else { b']' };
                *i += 1;
                ws(b, i);
                if b.get(*i) != Some(&close) {
                    loop {
                        ws(b, i);
                        let member = open == b'[' || {
                            let key = string(b, i);
                            ws(b, i);
                            key && b.get(*i) == Some(&b':') && {
                                *i += 1;
                                true
                            }
                        };
                        if !member || !value(b, i) {
                            return false;
                        }
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(&c) if c == close => break,
                            _ => return false,
                        }
                    }
                }
                *i += 1;
                true
            }
            Some(b'"') => string(b, i),
            Some(b't' | b'f' | b'n') => ["true", "false", "null"].iter().any(|lit| {
                let found = b[*i..].starts_with(lit.as_bytes());
                if found {
                    *i += lit.len();
                }
                found
            }),
            Some(_) => {
                if b.get(*i) == Some(&b'-') {
                    *i += 1;
                }
                let mut ok = digits(b, i);
                if ok && b.get(*i) == Some(&b'.') {
                    *i += 1;
                    ok = digits(b, i);
                }
                if ok && matches!(b.get(*i), Some(b'e' | b'E')) {
                    *i += 1;
                    if matches!(b.get(*i), Some(b'+' | b'-')) {
                        *i += 1;
                    }
                    ok = digits(b, i);
                }
                ok
            }
            None => false,
        };
        ws(b, i);
        ok
    }
    let (b, mut i) = (text.as_bytes(), 0);
    value(b, &mut i) && i == b.len()
}
