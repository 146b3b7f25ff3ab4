//! Eviction + reconstruction interplay: bounded stores must not lose
//! data that lineage can rebuild (`ARCHITECTURE.md`, "Fault tolerance").

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use bytes::Bytes;
use rtml_common::error::Error;
use rtml_common::ids::NodeId;
use rtml_common::resources::Resources;
use rtml_runtime::{Cluster, ClusterConfig, NodeConfig, TaskOptions};

/// Buffer sizes only `stored_objects_pin_only_their_own_frame` allocates
/// (no other test here comes within 60 KB of them), so live buffers of
/// this size can be counted exactly while the other tests run.
const TRACKED: std::ops::Range<usize> = 200_000..200_100;
static TRACKED_LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting the live allocations in [`TRACKED`].
struct CountTracked;

fn track(size: usize, delta: isize) {
    if TRACKED.contains(&size) {
        TRACKED_LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountTracked {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 1);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(layout.size(), -1);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(layout.size(), -1);
        track(new_size, 1);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountTracked = CountTracked;

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
fn evicted_argument_stays_readable_by_the_task_holding_it() {
    let capacity = 1 << 20;
    let cluster = tiny_store_cluster(capacity);
    // The task meets the driver twice: once holding its argument, and
    // again after the driver has had the store evict that object.
    let holding = Arc::new(Barrier::new(2));
    let evicted = Arc::new(Barrier::new(2));
    let (holding2, evicted2) = (holding.clone(), evicted.clone());
    let sum = cluster.register_fn1("sum_after_eviction", move |data: Bytes| {
        holding2.wait();
        evicted2.wait();
        Ok(data.iter().map(|&b| b as u64).sum::<u64>())
    });
    let driver = cluster.driver();
    let store = driver.services().store(NodeId(0)).unwrap();

    let payload: Vec<u8> = (0..512 * 1024u32).map(|i| (i % 251) as u8).collect();
    let expect: u64 = payload.iter().map(|&b| b as u64).sum();
    let object = driver.put(&Bytes::from(payload)).unwrap();
    let fut = driver.submit1(&sum, object).unwrap();
    holding.wait();

    // Two 400 KiB fillers do not fit beside the 512 KiB object.
    let fillers: Vec<_> = (0..2u8)
        .map(|i| driver.put(&Bytes::from(vec![i; 400 * 1024])).unwrap())
        .collect();
    assert!(!store.contains(object.id()), "argument was not evicted");
    // The accounting let go of the object at eviction, although the
    // task still keeps its buffer alive.
    let filler_bytes: u64 = fillers
        .iter()
        .map(|f| store.get(f.id()).unwrap().len() as u64)
        .sum();
    assert_eq!(store.used_bytes(), filler_bytes);

    evicted.wait();
    assert_eq!(driver.get(&fut).unwrap(), expect);
    cluster.shutdown();
}

#[test]
fn stored_objects_pin_only_their_own_frame() {
    // Eight objects produced on node 1 and pulled to the driver's node
    // by one `get_many` — one coalesced reply stream. The reader's copy
    // of each is the producer's sealed buffer, and each object has a
    // buffer of its own: deleting seven of them on both nodes frees
    // seven buffers, which an arena-encoded reply (one buffer, eight
    // windows) would not.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(2),
            NodeConfig::cpu_only(2).with_custom("away", 8.0),
        ],
        ..ClusterConfig::default()
    })
    .unwrap();
    let make = cluster.register_fn1("make_tracked", |i: u64| {
        Ok(Bytes::from(vec![i as u8; TRACKED.start]))
    });
    let driver = cluster.driver();
    let away = TaskOptions::resources(Resources::cpu(1.0).with_custom("away", 1.0));
    let futs: Vec<_> = (0..8u64)
        .map(|i| driver.submit1_opts(&make, i, away.clone()).unwrap())
        .collect();
    let values = driver.get_many(&futs).unwrap();
    assert!(values.iter().zip(0u8..).all(|(v, i)| v[..] == [i; 200_000]));
    drop(values);

    let stores = [NodeId(0), NodeId(1)].map(|n| driver.services().store(n).unwrap());
    let [store, producer] = &stores;
    assert!(futs.iter().all(|f| store.contains(f.id())));
    for fut in &futs {
        let (read, sealed) = (
            store.get(fut.id()).unwrap(),
            producer.get(fut.id()).unwrap(),
        );
        assert_eq!(read.as_ptr(), sealed.as_ptr());
    }
    let before = TRACKED_LIVE.load(Ordering::Relaxed);
    for fut in &futs[1..] {
        assert!(stores.iter().all(|s| s.delete(fut.id())));
    }
    // Node 0's scheduler loop, which runs its object plane, may still be
    // dropping its own handle on the frame it answered last; nothing
    // else holds one.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while before - TRACKED_LIVE.load(Ordering::Relaxed) != 7 {
        assert!(
            std::time::Instant::now() < deadline,
            "deleting 7 objects freed {} buffers",
            before - TRACKED_LIVE.load(Ordering::Relaxed)
        );
        std::thread::yield_now();
    }
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
        ..ClusterConfig::default()
    })
    .unwrap();
    let make = cluster.register_fn0("too_big", || Ok(vec![1u8; 256 * 1024]));
    let driver = cluster.driver();
    let fut = driver.submit0(&make).unwrap();
    match driver.get_timeout(&fut, Duration::from_millis(700)) {
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
