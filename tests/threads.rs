//! Thread census: a node runs its local scheduler and its workers, and
//! no thread that exists only to sleep. The scheduler's loop handles
//! the object plane's frames and takes the telemetry sample, and a
//! worker the pool grows by is started by the thread that asked for it.
//!
//! One test in its own binary, so no other cluster's threads are
//! counted. Linux only: it reads `/proc/self/task/*/comm`.

#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtml::prelude::*;

/// This process's `rtml-` threads, counted by kind: a name is cut to 15
/// bytes, so the kind is the name up to its second dash.
fn census() -> BTreeMap<String, usize> {
    let mut kinds = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // A thread that exited since the listing has no comm any more.
        let Ok(name) = std::fs::read_to_string(task.unwrap().path().join("comm")) else {
            continue;
        };
        if let Some(rest) = name.trim_end().strip_prefix("rtml-") {
            let kind = rest.split('-').next().unwrap_or(rest);
            *kinds.entry(format!("rtml-{kind}")).or_insert(0) += 1;
        }
    }
    kinds
}

/// Waits for the census to satisfy `ok`: a thread is named from inside
/// itself once it runs, and a detached one leaves when it gets to exit.
fn settle(what: &str, ok: impl Fn(&BTreeMap<String, usize>) -> bool) -> BTreeMap<String, usize> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = census();
        if ok(&now) {
            return now;
        }
        assert!(Instant::now() < deadline, "{what}: {now:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_node_runs_one_control_thread_beside_its_workers() {
    // 2 nodes x 2 workers, with the one global scheduler shard.
    let expected: BTreeMap<String, usize> =
        [("rtml-gsched", 1), ("rtml-lsched", 2), ("rtml-worker", 4)]
            .into_iter()
            .map(|(kind, n)| (kind.to_string(), n))
            .collect();
    let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
    settle("a fresh 2 x 2 cluster", |now| *now == expected);

    // A node that dies and comes back brings back what it had, no more.
    let config = cluster.node_config(NodeId(1)).unwrap();
    cluster.kill_node(NodeId(1)).unwrap();
    cluster.restart_node(NodeId(1), config).unwrap();
    settle("after node 1 was killed and restarted", |now| {
        *now == expected
    });
    cluster.shutdown();
    settle("after the 2 x 2 cluster shut down", BTreeMap::is_empty);

    // Pool growth: on one worker, a chain of four tasks that each block
    // in `get` on their child completes only if the pool grows to four.
    let cluster = Cluster::start(ClusterConfig::local(1, 1)).unwrap();
    let mut child = cluster.register_fn1("census_leaf", |x: i64| Ok(x));
    for depth in 1..4 {
        child = cluster.register_fn1_ctx(&format!("census_depth_{depth}"), move |ctx, x: i64| {
            let fut = ctx.submit1(&child, x + 1)?;
            ctx.get(&fut)
        });
    }
    let driver = cluster.driver();
    let fut = driver.submit1(&child, 0).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 3);
    let grown = settle("after the 4-deep chain", |now| {
        now.get("rtml-worker").is_some_and(|&n| n >= 4)
    });
    assert_eq!(grown.get("rtml-lsched"), Some(&1), "{grown:?}");
    assert_eq!(grown.get("rtml-transfer"), None, "{grown:?}");
    cluster.shutdown();
    settle("after the 1 x 1 cluster shut down", BTreeMap::is_empty);
}
