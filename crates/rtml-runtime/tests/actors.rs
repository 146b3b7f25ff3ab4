//! Actor-extension tests: stateful workers with ordered method
//! execution and object-store-integrated results.

use std::collections::VecDeque;
use std::time::Duration;

use rtml_common::error::Error;
use rtml_common::ids::NodeId;
use rtml_runtime::{Cluster, ClusterConfig};

fn cluster() -> Cluster {
    Cluster::start(ClusterConfig::local(2, 2)).unwrap()
}

#[test]
fn actor_state_accumulates_across_calls() {
    let cluster = cluster();
    let actor = cluster
        .spawn_actor("acc", NodeId(0), Vec::<i64>::new)
        .unwrap();
    let driver = cluster.driver();
    for i in 0..5 {
        let fut = actor
            .call(move |v| {
                v.push(i);
                Ok(v.len() as i64)
            })
            .unwrap();
        assert_eq!(driver.get(&fut).unwrap(), i + 1);
    }
    let contents = actor.call(|v| Ok(v.clone())).unwrap();
    assert_eq!(driver.get(&contents).unwrap(), vec![0, 1, 2, 3, 4]);
    actor.stop();
    cluster.shutdown();
}

#[test]
fn actor_results_compose_with_tasks() {
    // Actor results are ordinary objects: pass them into remote tasks.
    let cluster = cluster();
    let double = cluster.register_fn1("double_act", |x: i64| Ok(x * 2));
    let actor = cluster.spawn_actor("counter2", NodeId(1), || 0i64).unwrap();
    let driver = cluster.driver();
    let fut = actor
        .call(|c| {
            *c += 21;
            Ok(*c)
        })
        .unwrap();
    let doubled = driver.submit1(&double, fut).unwrap();
    assert_eq!(driver.get(&doubled).unwrap(), 42);
    actor.stop();
    cluster.shutdown();
}

#[test]
fn actor_panic_is_contained() {
    let cluster = cluster();
    let actor = cluster.spawn_actor("fragile2", NodeId(0), || 7i64).unwrap();
    let driver = cluster.driver();
    let boom = actor
        .call(|_s| -> rtml_common::error::Result<i64> { panic!("actor crash") })
        .unwrap();
    match driver.get(&boom) {
        Err(Error::TaskFailed { message, .. }) => {
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("expected contained panic, got {other:?}"),
    }
    // State survives the panicking call (catch_unwind isolation).
    let still = actor.call(|s| Ok(*s)).unwrap();
    assert_eq!(driver.get(&still).unwrap(), 7);
    actor.stop();
    cluster.shutdown();
}

#[test]
fn many_actors_coexist() {
    let cluster = cluster();
    let driver = cluster.driver();
    let actors: Vec<_> = (0..6)
        .map(|i| {
            cluster
                .spawn_actor(&format!("a{i}"), NodeId((i % 2) as u32), move || i as i64)
                .unwrap()
        })
        .collect();
    let futs: Vec<_> = actors
        .iter()
        .map(|a| a.call(|s| Ok(*s * 10)).unwrap())
        .collect();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(driver.get(fut).unwrap(), i as i64 * 10);
    }
    for a in actors {
        a.stop();
    }
    cluster.shutdown();
}

#[test]
fn actor_queue_drains_in_fifo_order() {
    let cluster = cluster();
    let actor = cluster
        .spawn_actor("fifo", NodeId(0), VecDeque::<u64>::new)
        .unwrap();
    let driver = cluster.driver();
    // Flood calls without getting; ordering must still hold.
    let futs: Vec<_> = (0..50u64)
        .map(|i| {
            actor
                .call(move |q| {
                    q.push_back(i);
                    Ok(q.len() as u64)
                })
                .unwrap()
        })
        .collect();
    for (i, fut) in futs.iter().enumerate() {
        assert_eq!(driver.get(fut).unwrap(), i as u64 + 1);
    }
    actor.stop();
    cluster.shutdown();
}

#[test]
fn spawn_on_dead_node_errors() {
    let cluster = cluster();
    cluster.kill_node(NodeId(1)).unwrap();
    let err = cluster
        .spawn_actor("ghost", NodeId(1), || 0u64)
        .err()
        .expect("must fail");
    assert_eq!(err, Error::NodeDown(NodeId(1)));
    cluster.shutdown();
}

#[test]
fn wait_works_on_actor_results() {
    let cluster = cluster();
    let actor = cluster.spawn_actor("waiter", NodeId(0), || 0u64).unwrap();
    let driver = cluster.driver();
    let slow = actor
        .call(|_s| {
            std::thread::sleep(Duration::from_millis(300));
            Ok(1u64)
        })
        .unwrap();
    let fast_after = actor.call(|_s| Ok(2u64)).unwrap();
    // Both ride the same mailbox: neither is ready quickly...
    let (ready, pending) = driver.wait(&[slow, fast_after], 1, Duration::from_millis(50));
    assert!(ready.is_empty());
    assert_eq!(pending.len(), 2);
    // ...but both complete in order eventually.
    let (ready, pending) = driver.wait(&[slow, fast_after], 2, Duration::from_secs(10));
    assert_eq!(ready.len(), 2);
    assert!(pending.is_empty());
    actor.stop();
    cluster.shutdown();
}
