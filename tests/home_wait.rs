//! A `get` of work its own node runs waits on that node's store alone:
//! no resolver, no object-table subscription, one wake-up when the last
//! result seals (`rtml-runtime`'s `fetch` module docs). These tests pin
//! the fallbacks that keep it correct — a producer lost under the wait,
//! a result evicted before it was taken — and that the wait leaves
//! nothing registered behind.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rtml::common::ids::{NodeId, TaskId, WorkerId};
use rtml::common::task::TaskState;
use rtml::prelude::*;
use rtml::runtime::NodeConfig;

/// Times a blocking call on `cluster` slept.
fn blocked_waits(cluster: &Cluster) -> u64 {
    cluster.counters().get("runtime.blocked_waits").unwrap()
}

/// Polls `done` until it holds, failing with `what` after 10 s.
fn until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A worker killed while a `get_many` waits at home on its batch: the
/// queue reports the loss, the call wakes for it — while every worker
/// is still held at a gate, so no seal and no timer could have woken
/// it — hands what the queue no longer holds to the resolver, and every
/// value comes back through replay.
#[test]
fn a_worker_killed_under_a_home_wait_wakes_it_at_the_loss_and_its_batch_replays() {
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    })
    .unwrap();
    // Tasks 0 and 4 hold their workers until released, the first time
    // they run: each worker's batch stays taken, none of it sealed.
    let firsts = Arc::new([AtomicBool::new(true), AtomicBool::new(true)]);
    let release = Arc::new(AtomicBool::new(false));
    let (first, go) = (firsts.clone(), release.clone());
    let gate = cluster.register_fn1("home_wait_gate", move |x: u64| {
        if matches!(x, 0 | 4) && first[x as usize / 4].swap(false, SeqCst) {
            while !go.load(SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(x + 1)
    });
    let driver = cluster.driver();
    let futs = driver.submit_many(&gate, 0..8u64).unwrap();
    let tasks: Vec<TaskId> = futs
        .iter()
        .map(|f| f.id().producer_task().unwrap())
        .collect();
    let running = |range: std::ops::Range<usize>| {
        let states = cluster.services().tasks.get_states_many(&tasks[range]);
        match states[0] {
            Some(TaskState::Running(worker)) => states
                .iter()
                .all(|s| *s == Some(TaskState::Running(worker)))
                .then_some(worker),
            _ => None,
        }
    };
    // Eight ready for two workers: whoever takes task 0 holds the three
    // behind it; the other takes tasks 4 and 5.
    until("both batches never started", || {
        running(0..4).is_some() && running(4..6).is_some()
    });
    let worker = running(0..4).unwrap();
    let waiting = std::thread::spawn(move || driver.get_many(&futs));
    // Asleep at home: a registration in the store, none in the kv.
    let store = cluster.services().store(NodeId(0)).unwrap();
    until("the get never slept", || blocked_waits(&cluster) == 1);
    assert!(store.local_waiter_count() > 0);
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    let losses = cluster.services().run_queue(NodeId(0)).unwrap().losses();
    cluster.kill_worker(worker).unwrap();
    until("the loss was never counted", || {
        cluster.services().run_queue(NodeId(0)).unwrap().losses() > losses
    });
    // Woken by the loss and asleep again, the lost batch's results now
    // the resolver's: it subscribed to their records.
    until("the loss never woke the get", || {
        blocked_waits(&cluster) >= 2
    });
    until("the lost results never reached the resolver", || {
        cluster.services().kv.subscriber_count() > 0
    });
    assert!(!release.load(SeqCst));
    release.store(true, SeqCst);
    let values = waiting.join().unwrap().unwrap();
    assert_eq!(values, (1..=8).collect::<Vec<u64>>());
    assert!(
        cluster.reconstructions() >= 4,
        "{} reconstructions",
        cluster.reconstructions()
    );
    assert_eq!(store.local_waiter_count(), 0);
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    cluster.shutdown();
}

/// Two workers killed back to back while a `get_many` waits at home.
/// The first holds nothing the call waits for, so its loss hands the
/// resolver nothing and the call keeps waiting on the store alone, with
/// no tick to turn it; the second holds a batch the call waits for. Its
/// loss lands while the call is still handling the first one's wake-up,
/// and must still reach it: the batch goes to the resolver while every
/// worker is held at a gate, and replays once they are let go.
#[test]
fn two_losses_in_a_row_under_a_home_wait_both_reach_it() {
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 3)
    })
    .unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let go = release.clone();
    let gate = cluster.register_fn1("home_wait_two_losses", move |x: u64| {
        while !go.load(SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(x + 1)
    });
    let driver = cluster.driver();
    let futs = driver.submit_many(&gate, 0..12u64).unwrap();
    let tasks: Vec<TaskId> = futs
        .iter()
        .map(|f| f.id().producer_task().unwrap())
        .collect();
    // Which worker's batch each task is in, if any.
    let holders = || -> Vec<Option<WorkerId>> {
        let states = cluster.services().tasks.get_states_many(&tasks);
        let holder = |state: Option<TaskState>| match state {
            Some(TaskState::Running(worker)) => Some(worker),
            _ => None,
        };
        states.into_iter().map(holder).collect()
    };
    until("three batches never started", || {
        let mut workers: Vec<WorkerId> = holders().into_iter().flatten().collect();
        workers.sort();
        workers.dedup();
        workers.len() == 3
    });
    let held = holders();
    let first = held[0].unwrap();
    let second = held
        .iter()
        .flatten()
        .copied()
        .find(|w| *w != first)
        .unwrap();
    let theirs = |worker: WorkerId| held.iter().filter(|w| **w == Some(worker)).count();
    // The call waits for everything but the first worker's batch.
    let (ours, expected): (Vec<_>, Vec<u64>) = (futs.iter().zip(1u64..))
        .zip(&held)
        .filter(|(_, holder)| **holder != Some(first))
        .map(|((fut, value), _)| (*fut, value))
        .unzip();
    let waiting = std::thread::spawn(move || driver.get_many(&ours));
    until("the get never slept", || blocked_waits(&cluster) == 1);
    let kv = &cluster.services().kv;
    assert_eq!(kv.subscriber_count(), 0);
    cluster.kill_worker(first).unwrap();
    cluster.kill_worker(second).unwrap();
    until("the second loss never reached the resolver", || {
        kv.subscriber_count() >= theirs(second)
    });
    assert!(!release.load(SeqCst));
    release.store(true, SeqCst);
    assert_eq!(waiting.join().unwrap().unwrap(), expected);
    assert!(
        cluster.reconstructions() >= theirs(second) as u64,
        "{} reconstructions",
        cluster.reconstructions()
    );
    let store = cluster.services().store(NodeId(0)).unwrap();
    assert_eq!(store.local_waiter_count(), 0);
    assert_eq!(kv.subscriber_count(), 0);
    cluster.shutdown();
}

/// A result that sealed while the call waited at home and was evicted
/// before the call took it: the call finds it gone when it wakes, and
/// the result is reconstructed as any lost copy is.
#[test]
fn a_home_result_evicted_before_it_is_taken_is_reconstructed() {
    // Room for one 600 KiB result, not two.
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(1).with_store_capacity(1 << 20)],
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::default()
    })
    .unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let go = release.clone();
    let block = cluster.register_fn1("home_wait_block", move |i: u8| {
        while !go.load(SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Bytes::from(vec![i; 600 * 1024]))
    });
    let driver = cluster.driver();
    // One worker runs both, in order: the second result's seal evicts
    // the first, and only the second seal wakes the call.
    let futs = driver.submit_many(&block, [1u8, 2]).unwrap();
    let ids: Vec<_> = futs.iter().map(|f| f.id()).collect();
    let waiting = std::thread::spawn(move || driver.get_many(&futs));
    until("the get never slept", || blocked_waits(&cluster) == 1);
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    let evictions = || cluster.profile().evictions;
    assert_eq!(evictions(), 0);
    release.store(true, SeqCst);
    let values = waiting.join().unwrap().unwrap();
    assert_eq!(values[0].len(), 600 * 1024);
    assert!(values[0].iter().all(|&b| b == 1));
    assert!(values[1].iter().all(|&b| b == 2));
    assert!(evictions() >= 1, "nothing was evicted");
    assert!(
        cluster.reconstructions() >= 1,
        "the evicted result came back without a replay"
    );
    let store = cluster.services().store(NodeId(0)).unwrap();
    assert!(ids.iter().any(|id| store.contains(*id)));
    assert_eq!(store.local_waiter_count(), 0);
    cluster.shutdown();
}

/// A result the store refuses — larger than the whole store — will
/// never seal there. The worker reports its batch to the queue as lost,
/// so a `get` waiting for it at home leaves for the resolver at once
/// instead of sleeping on the store until its deadline.
#[test]
fn a_refused_result_moves_its_home_waiter_to_the_resolver() {
    let cluster = Cluster::start(ClusterConfig {
        nodes: vec![NodeConfig::cpu_only(1).with_store_capacity(1 << 20)],
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::default()
    })
    .unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let go = release.clone();
    let too_big = cluster.register_fn1("home_wait_too_big", move |i: u8| {
        while !go.load(SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Bytes::from(vec![i; 2 << 20]))
    });
    let driver = cluster.driver();
    let fut = driver.submit1(&too_big, 7u8).unwrap();
    let queue = cluster.services().run_queue(NodeId(0)).unwrap();
    let losses = queue.losses();
    let waiting = std::thread::spawn(move || driver.get_timeout(&fut, Duration::from_secs(2)));
    until("the get never slept", || blocked_waits(&cluster) == 1);
    let kv = &cluster.services().kv;
    assert_eq!(kv.subscriber_count(), 0);
    release.store(true, SeqCst);
    until("the refusal was never counted as a loss", || {
        queue.losses() > losses
    });
    until("the refused result never reached the resolver", || {
        kv.subscriber_count() > 0
    });
    assert!(waiting.join().unwrap().is_err());
    let store = cluster.services().store(NodeId(0)).unwrap();
    assert_eq!(store.local_waiter_count(), 0);
    cluster.shutdown();
}

/// A `get` and a `get_many` of work the node runs wait at home: no
/// object-table subscription while they wait, and no registration of
/// any kind once they return.
#[test]
fn a_get_of_home_work_leaves_no_registration_and_no_kv_subscriber() {
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    })
    .unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let go = release.clone();
    let slow = cluster.register_fn1("home_wait_slow", move |x: u64| {
        while !go.load(SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(x * 2)
    });
    let driver = cluster.driver();
    let lone = driver.submit1(&slow, 21).unwrap();
    let burst = driver.submit_many(&slow, 0..64u64).unwrap();
    let waiting = std::thread::spawn(move || (driver.get(&lone), driver.get_many(&burst)));
    until("the get never slept", || blocked_waits(&cluster) == 1);
    let store = cluster.services().store(NodeId(0)).unwrap();
    assert_eq!(store.local_waiter_count(), 1);
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    release.store(true, SeqCst);
    let (one, many) = waiting.join().unwrap();
    assert_eq!(one.unwrap(), 42);
    assert_eq!(many.unwrap(), (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
    assert_eq!(store.local_waiter_count(), 0);
    assert_eq!(cluster.services().kv.subscriber_count(), 0);
    cluster.shutdown();
}
