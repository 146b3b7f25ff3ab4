//! E11: cluster-scale macro-benchmark for the sharded global scheduler.
//!
//! Drives a 32–64 node cluster (default 32, `RTML_SCALE_NODES`
//! overrides, capped at 64) through a **mixed** workload — a wide
//! fan-out, dependency chains, and a cross-node tree reduction — with
//! an aggressive spill threshold so placement genuinely flows through
//! the K global-scheduler shards (`RTML_SCALE_SHARDS`, default 4).
//!
//! The run is **self-asserting**: every produced value is checked
//! exactly (fan-out squares, chain increments, the reduction total),
//! every scheduler shard must have placed work, and the executed-task
//! events must span a healthy fraction of the cluster. A wrong value,
//! an idle shard, or a wedged node fails the process — CI runs this as
//! a correctness gate, not just a stopwatch.
//!
//! Two separate quantities are reported (and self-asserted), because
//! they answer different questions:
//!
//! - **placement throughput**: tasks/sec from first submit until every
//!   task holds an explicit scheduler state (`Queued`/`Spilled`/...) —
//!   the rate at which the submission, spill, and sharded-placement
//!   machinery moves tasks. This is the scheduler trend line.
//! - **end-to-end makespan**: wall clock until every result value has
//!   been fetched and verified. Dominated by task *execution* and
//!   blocking `get`s on 1-worker nodes — useful as a regression canary,
//!   useless as a scheduler throughput number (the old conflated
//!   figure, ~628 tasks/s over 1279 tasks, was exactly this trap).
//!
//! Results land in `BENCH_scale.json` so CI can track scale throughput
//! mechanically. `RTML_SCALE_FANOUT` (default 512) scales the task
//! budget for smoke runs.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rtml_bench::env_or;
use rtml_common::event::EventKind;
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig};
use rtml_sched::SpillMode;

fn main() {
    let nodes = env_or("RTML_SCALE_NODES", 32usize).clamp(2, 64);
    let shards = env_or("RTML_SCALE_SHARDS", 4usize).max(1);
    let fanout = env_or("RTML_SCALE_FANOUT", 512usize).max(8) as i64;
    let chains = 32usize;
    let chain_depth = 8usize;

    let cluster = Cluster::start(
        ClusterConfig {
            nodes: (0..nodes).map(|_| NodeConfig::cpu_only(1)).collect(),
            spill: SpillMode::Hybrid { queue_threshold: 2 },
            ..ClusterConfig::default()
        }
        .with_global_shards(shards),
    )
    .unwrap();
    let square = cluster.register_fn1("scale_square", |x: i64| Ok(x * x));
    let inc = cluster.register_fn1("scale_inc", |x: i64| Ok(x + 1));
    let add = cluster.register_fn2("scale_add", |a: i64, b: i64| Ok(a + b));
    let driver = cluster.driver();

    let start = Instant::now();

    // Wave 1 — wide fan-out: `fanout` independent squares, batched.
    let squares = driver.submit_many(&square, 0..fanout).unwrap();

    // Wave 2 — dependency chains: `chains` chains of `chain_depth`
    // increments each, rooted at distinct starts.
    let chain_heads: Vec<_> = (0..chains as i64)
        .map(|c| {
            let mut fut = driver.submit1(&inc, c * 100).unwrap();
            for _ in 1..chain_depth {
                fut = driver.submit1(&inc, &fut).unwrap();
            }
            fut
        })
        .collect();

    // Wave 3 — tree reduction over the fan-out results: pairwise adds
    // until one total remains, forcing cross-node dependency fetches.
    let mut layer = squares.clone();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut iter = layer.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(driver.submit2(&add, &a, &b).unwrap()),
                None => next.push(a),
            }
        }
        layer = next;
    }

    let tasks_total = fanout as usize + chains * chain_depth + (fanout as usize - 1);

    // ---- placement barrier -----------------------------------------
    // Every task was submitted above (dependency-gated tasks included:
    // submission never blocks on execution), so placement is complete
    // when no task is still in the implicit `Submitted` state — each
    // one holds an explicit `Queued`/`Spilled`/`Running`/... record
    // from some scheduler. The census is a full control-plane scan, so
    // poll it coarsely.
    let placement_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let census = driver.services().tasks.state_census();
        if census.submitted == 0 && census.total() >= tasks_total {
            break;
        }
        assert!(
            Instant::now() < placement_deadline,
            "placement never completed: {census:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let placement_elapsed = start.elapsed();

    // ---- self-assertions -------------------------------------------
    for (i, fut) in squares.iter().enumerate() {
        let i = i as i64;
        assert_eq!(driver.get(fut).unwrap(), i * i, "square {i}");
    }
    for (c, fut) in chain_heads.iter().enumerate() {
        let expect = c as i64 * 100 + chain_depth as i64;
        assert_eq!(driver.get(fut).unwrap(), expect, "chain {c}");
    }
    let total = driver.get(&layer[0]).unwrap();
    let expect: i64 = (0..fanout).map(|i| i * i).sum();
    assert_eq!(total, expect, "tree reduction total");
    let elapsed = start.elapsed();

    let placement_rate = tasks_total as f64 / placement_elapsed.as_secs_f64();
    let rate = tasks_total as f64 / elapsed.as_secs_f64();
    assert!(
        placement_elapsed <= elapsed,
        "placement cannot finish after the makespan"
    );
    assert!(
        placement_rate >= rate,
        "placement throughput ({placement_rate:.0}/s) must not undercut the \
         execution-dominated end-to-end rate ({rate:.0}/s)"
    );

    let counters = cluster.counters();
    let spills = counters.get("global.spills").unwrap();
    let placements = counters.get("global.placements").unwrap();
    assert!(spills > 0, "spill-heavy run never reached the shards");
    let shard_placements: Vec<u64> = cluster
        .global_shard_stats()
        .iter()
        .map(|(_, p, _)| *p)
        .collect();
    assert_eq!(shard_placements.len(), shards);
    for (shard, &placed) in shard_placements.iter().enumerate() {
        assert!(placed > 0, "shard {shard} placed nothing");
    }
    assert_eq!(shard_placements.iter().sum::<u64>(), placements);

    // Executed tasks must span a healthy fraction of the cluster.
    let active: BTreeSet<u32> = driver
        .services()
        .events
        .read_all()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskFinished { worker, .. } => Some(worker.node.0),
            _ => None,
        })
        .collect();
    assert!(
        active.len() >= nodes / 4,
        "only {} of {nodes} nodes executed work",
        active.len()
    );

    println!("== E11: sharded-scheduler scale (mixed workload) ==");
    println!("nodes              {nodes}");
    println!("global shards      {shards}");
    println!("tasks              {tasks_total}");
    println!(
        "placement          {:.2} ms ({placement_rate:.0} tasks/sec)",
        placement_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "e2e makespan       {:.2} ms ({rate:.0} tasks/sec, execution-dominated)",
        elapsed.as_secs_f64() * 1e3
    );
    println!("spills             {spills}");
    println!("placements/shard   {shard_placements:?}");
    println!("active nodes       {}", active.len());
    println!("\nall values verified; every shard placed; cluster spread OK");

    let json = format!(
        "{{\n  \"nodes\": {nodes},\n  \"global_shards\": {shards},\n  \
         \"tasks_total\": {tasks_total},\n  \
         \"placement_ms\": {:.2},\n  \
         \"placement_tasks_per_sec\": {placement_rate:.2},\n  \
         \"makespan_ms\": {:.2},\n  \
         \"e2e_tasks_per_sec\": {rate:.2},\n  \"spills\": {spills},\n  \
         \"placements_per_shard\": {shard_placements:?},\n  \
         \"active_nodes\": {}\n}}\n",
        placement_elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3,
        active.len(),
    );
    let path = "BENCH_scale.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    cluster.shutdown();
}
