//! Eviction + reconstruction interplay: bounded stores must not lose
//! data that lineage can rebuild (`ARCHITECTURE.md`, "Fault tolerance").

use std::time::Duration;

use rtml_common::error::Error;
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig};

fn tiny_store_cluster(capacity: u64) -> Cluster {
    Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2).with_store_capacity(capacity)],
        ..ClusterConfig::default()
    })
    .unwrap()
}

#[test]
fn evicted_objects_are_rebuilt_by_lineage() {
    // Store fits ~4 of the 100 KB results at a time; producing 12 of
    // them forces evictions. Every result must still be retrievable.
    let cluster = tiny_store_cluster(450 * 1024);
    let make = cluster.register_fn1("make_block", |i: u64| Ok(vec![i as u8; 100 * 1024]));
    let driver = cluster.driver();
    let futs: Vec<_> = (0..12u64)
        .map(|i| driver.submit1(&make, i).unwrap())
        .collect();
    // Materialize everything (later puts evict earlier results).
    let (ready, pending) = driver.wait(&futs, futs.len(), Duration::from_secs(60));
    assert_eq!(ready.len(), 12);
    assert!(pending.is_empty());

    // Early results have likely been evicted; get() must replay their
    // producers transparently.
    for (i, fut) in futs.iter().enumerate() {
        let block = driver.get(fut).unwrap();
        assert_eq!(block.len(), 100 * 1024);
        assert_eq!(block[0], i as u8, "object {i} corrupted");
    }
    // At least one eviction must actually have happened for this test
    // to be meaningful.
    let report = cluster.profile();
    assert!(
        report.evictions > 0,
        "expected evictions with a 450 KB store and 12 x 100 KB objects"
    );
    cluster.shutdown();
}

#[test]
fn eviction_keeps_store_within_capacity() {
    let capacity = 300 * 1024;
    let cluster = tiny_store_cluster(capacity);
    let make = cluster.register_fn1("make_blk2", |i: u64| Ok(vec![i as u8; 64 * 1024]));
    let driver = cluster.driver();
    for i in 0..20u64 {
        let fut = driver.submit1(&make, i).unwrap();
        let block = driver.get(&fut).unwrap();
        assert_eq!(block.len(), 64 * 1024);
        let store = driver
            .services()
            .store(rtml_common::ids::NodeId(0))
            .unwrap();
        assert!(
            store.used_bytes() <= capacity,
            "store exceeded capacity: {}",
            store.used_bytes()
        );
    }
    cluster.shutdown();
}

#[test]
fn oversized_result_surfaces_as_error_not_hang() {
    // A result bigger than the whole store can never seal; the consumer
    // must get a timeout rather than wedging forever.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(2).with_store_capacity(32 * 1024)],
        default_get_timeout: Duration::from_millis(700),
        ..ClusterConfig::default()
    })
    .unwrap();
    let make = cluster.register_fn0("too_big", || Ok(vec![1u8; 256 * 1024]));
    let driver = cluster.driver();
    let fut = driver.submit0(&make).unwrap();
    match driver.get(&fut) {
        Err(Error::Timeout) => {}
        other => panic!("expected timeout for unsealable result, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn evicted_put_object_reports_broken_lineage() {
    // Puts carry no lineage; if eviction claims the only copy, consumers
    // must fail fast with a broken-lineage error.
    let cluster = tiny_store_cluster(200 * 1024);
    let make = cluster.register_fn1("filler", |i: u64| Ok(vec![i as u8; 80 * 1024]));
    let driver = cluster.driver();
    let pinned_value = driver.put(&vec![9u8; 64 * 1024]).unwrap();
    // Force evictions until the put object is displaced.
    for i in 0..6u64 {
        let fut = driver.submit1(&make, i).unwrap();
        let _ = driver.get(&fut).unwrap();
    }
    match driver.get_timeout(&pinned_value, Duration::from_secs(5)) {
        Ok(v) => assert_eq!(v.len(), 64 * 1024), // survived eviction: fine
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("lineage"), "{message}");
        }
        Err(Error::Timeout) => {} // also acceptable: value gone, no lineage
        Err(other) => panic!("unexpected error {other:?}"),
    }
    cluster.shutdown();
}
