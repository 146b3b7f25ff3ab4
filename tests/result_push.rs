//! A small result goes to the node that holds its future: pushed on
//! seal, announced in the seal's commit, waited for by that node's
//! readers, committed by the node's scheduler — and pulled as ever when
//! any of that falls through.
//!
//! Every test pins its tasks to node 1 with a custom resource and
//! drives them from node 0, the driver's home. Nothing here sleeps to
//! order events: tasks are held at a barrier, and conditions are polled
//! to a deadline.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rtml::common::event::EventKind;
use rtml::kv::ObjectInfo;
use rtml::prelude::*;
use rtml::runtime::envelope::seal_value;
use rtml::store::PUSH_MAX_BYTES;

const PIN: &str = "pin";
const HOME: &str = "home";
const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

/// Node 0 (`home`) and node 1 (`pin`), `workers` workers each.
fn two_nodes(workers: u32) -> ClusterConfig {
    ClusterConfig {
        nodes: vec![
            NodeConfig::cpu_only(workers).with_custom(HOME, 1.0),
            NodeConfig::cpu_only(workers).with_custom(PIN, 1.0),
        ],
        ..ClusterConfig::default()
    }
}

fn on(resource: &str) -> TaskOptions {
    TaskOptions::resources(Resources::cpu(1.0).with_custom(resource, 1.0))
}

/// Polls `ok` until it holds; panics with `what` after ten seconds.
fn eventually(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ok() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn record(cluster: &Cluster, object: ObjectId) -> Option<ObjectInfo> {
    cluster.services().objects.get(object)
}

/// The record of a result that was pushed and has landed: both copies
/// listed, nothing announced any more.
fn landed(cluster: &Cluster, object: ObjectId) -> bool {
    record(cluster, object).is_some_and(|info| {
        info.locations.len() == 2
            && info.locations.contains(&N0)
            && info.locations.contains(&N1)
            && info.inbound.is_none()
    })
}

/// Node 1's counter `name`.
fn at_n1(cluster: &Cluster, name: &str) -> u64 {
    cluster.node_registry(N1).unwrap().get(name).unwrap()
}

fn pushed(cluster: &Cluster) -> u64 {
    at_n1(cluster, "transfer.pushed")
}

/// Waits for node 1 to have counted `n` pushes (the counter moves a
/// step after the frame leaves, so a reader can be ahead of it) and
/// checks it counted no more.
fn pushed_is(cluster: &Cluster, n: u64) {
    eventually("the push is counted", || pushed(cluster) >= n);
    assert_eq!(pushed(cluster), n);
}

fn requests_served(cluster: &Cluster) -> u64 {
    at_n1(cluster, "transfer.requests")
}

/// Counters of node 0's fetch agent, read through `read`.
fn agent0<R>(cluster: &Cluster, read: impl Fn(&rtml::store::TransferStats) -> R) -> R {
    read(cluster.services().fetch_agent(N0).unwrap().stats())
}

#[test]
fn a_remote_round_trip_is_answered_by_the_push_alone() {
    let cluster = Cluster::start(two_nodes(2)).unwrap();
    let inc = cluster.register_fn1("push_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let mut objects = Vec::new();
    for i in 0..200u64 {
        let fut = driver.submit1_opts(&inc, i, on(PIN)).unwrap();
        assert_eq!(driver.get(&fut).unwrap(), i + 1);
        objects.push(fut.id());
    }
    // Nobody asked anybody for anything: one agent-bound frame a task.
    assert_eq!(requests_served(&cluster), 0);
    assert_eq!(agent0(&cluster, |s| s.requests_sent.get()), 0);
    pushed_is(&cluster, 200);
    assert_eq!(agent0(&cluster, |s| s.chunks_received.get()), 200);
    // (The reader is woken by the seal itself, a step before the agent
    // counts it.)
    eventually("every push counted", || {
        agent0(&cluster, |s| s.pushes_received.get()) == 200
    });
    // Node 0's scheduler owns what nobody asked for: every arrival is
    // committed, which ends its announcement.
    for object in &objects {
        eventually("the pushed copy is listed", || landed(&cluster, *object));
    }
    // The profile still says where each result's bytes came from, from
    // the moment they left.
    eventually("every arrival is logged", || {
        cluster.profile().transfers == 200
    });
    let report = cluster.profile();
    let count = |name: &str| report.counters.get(name).unwrap();
    assert_eq!(count("transfer.pushed"), 200);
    assert_eq!(count("fetch.pushes_received"), 200);
    assert_eq!(count("objects.late_pushes"), 0);
    assert_eq!(count("transfer.requests"), 0);
    assert_eq!(report.transfers, 200);
    let transfers: Vec<_> = report
        .spans
        .iter()
        .filter(|span| span.plane == "transfer")
        .collect();
    assert_eq!(transfers.len(), 200);
    for span in transfers {
        assert_eq!(span.node, N0);
        assert_eq!(span.args, vec![("from", 1)]);
        assert!(span.micros >= 100, "a push crosses the 100 us fabric");
    }
    cluster.shutdown();
}

#[test]
fn a_lost_push_costs_one_fetch_timeout_and_then_the_result_is_pulled() {
    let fetch_timeout = Duration::from_millis(250);
    let cluster = Cluster::start(ClusterConfig {
        fetch_timeout,
        ..two_nodes(2)
    })
    .unwrap();
    let gate = Arc::new(Barrier::new(2));
    let held = gate.clone();
    let inc = cluster.register_fn1("push_lost", move |(x, hold): (u64, bool)| {
        if hold {
            held.wait();
            held.wait();
        }
        Ok(x + 1)
    });
    let driver = cluster.driver();

    // The task is running on node 1 when the link goes: its push leaves
    // into the partition and is never seen again.
    let lost = driver.submit1_opts(&inc, (1u64, true), on(PIN)).unwrap();
    gate.wait();
    cluster.services().fabric.partition(N0, N1);
    let sealed_after = Instant::now();
    gate.wait();
    eventually("the push left", || pushed(&cluster) == 1);
    cluster.services().fabric.heal(N0, N1);
    eventually("sealed, its push announced", || {
        record(&cluster, lost.id()).is_some_and(|info| {
            info.locations == [N1] && info.inbound.map(|inbound| inbound.node) == Some(N0)
        })
    });

    // The reader on node 0 gives the push the time it would give a
    // request of its own, then pulls.
    assert_eq!(driver.get(&lost).unwrap(), 2);
    assert!(sealed_after.elapsed() >= fetch_timeout);
    assert_eq!(agent0(&cluster, |s| s.requests_sent.get()), 1);
    assert_eq!(requests_served(&cluster), 1);
    assert_eq!(agent0(&cluster, |s| s.pushes_received.get()), 0);
    // Whoever commits the pulled copy — the reader, or node 0's
    // scheduler if the reader had already left with the bytes — ends
    // the announcement, and the table counts it as one that was pulled.
    eventually("the pulled copy is listed", || landed(&cluster, lost.id()));
    assert_eq!(cluster.counters().get("objects.late_pushes"), Some(1));
    assert_eq!(cluster.reconstructions(), 0);

    // One lost frame delays one result: the next is pushed and read as
    // if nothing had happened.
    let started = Instant::now();
    let next = driver.submit1_opts(&inc, (5u64, false), on(PIN)).unwrap();
    assert_eq!(driver.get(&next).unwrap(), 6);
    assert!(started.elapsed() < fetch_timeout / 2);
    pushed_is(&cluster, 2);
    assert_eq!(requests_served(&cluster), 1);
    cluster.shutdown();
}

#[test]
fn a_producer_killed_after_the_push_left_is_not_replayed() {
    let cluster = Cluster::start(two_nodes(2)).unwrap();
    let inc = cluster.register_fn1("push_then_die", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let fut = driver.submit1_opts(&inc, 41u64, on(PIN)).unwrap();
    eventually("the push left", || pushed(&cluster) == 1);
    cluster.kill_node(N1).unwrap();
    // The frame was already in node 0's mailbox; its copy is the only
    // one left, and it is enough.
    eventually("the pushed copy is listed", || {
        record(&cluster, fut.id()).is_some_and(|info| info.locations.contains(&N0))
    });
    assert_eq!(driver.get(&fut).unwrap(), 42);
    assert_eq!(cluster.reconstructions(), 0);
    assert_eq!(agent0(&cluster, |s| s.requests_sent.get()), 0);
    cluster.shutdown();
}

#[test]
fn a_dead_submitter_is_sent_nothing() {
    let cluster = Cluster::start(two_nodes(2)).unwrap();
    let gate = Arc::new(Barrier::new(2));
    let held = gate.clone();
    let inc = cluster.register_fn1("push_to_nobody", move |x: u64| {
        held.wait();
        held.wait();
        Ok(x + 1)
    });
    let fut = cluster.driver().submit1_opts(&inc, 1u64, on(PIN)).unwrap();
    // Node 0 dies while the task runs; the seal finds no agent listed
    // for it.
    gate.wait();
    cluster.kill_node(N0).unwrap();
    gate.wait();
    eventually("sealed on node 1", || {
        record(&cluster, fut.id()).is_some_and(|info| info.is_available())
    });
    let info = record(&cluster, fut.id()).unwrap();
    assert_eq!(info.locations, vec![N1]);
    assert_eq!(info.inbound, None, "nothing announced to a dead node");
    assert_eq!(pushed(&cluster), 0);
    assert_eq!(at_n1(&cluster, "transfer.chunks_sent"), 0);
    // A reader that comes up on the surviving node finds it there.
    assert_eq!(cluster.driver().get(&fut).unwrap(), 2);
    cluster.shutdown();
}

#[test]
fn large_results_and_results_with_a_backlog_behind_them_are_pulled() {
    // One worker on node 1, so tasks queue behind the one running.
    let cluster = Cluster::start(two_nodes(1)).unwrap();
    // Sealing adds the envelope header: find the payload whose sealed
    // size is exactly the most that is pushed.
    let header = seal_value(&Bytes::from(vec![0u8; PUSH_MAX_BYTES])).len() - PUSH_MAX_BYTES;
    let largest = PUSH_MAX_BYTES - header;
    assert_eq!(
        seal_value(&Bytes::from(vec![0u8; largest])).len(),
        PUSH_MAX_BYTES
    );
    let blob = cluster.register_fn1("push_blob", |len: u64| {
        Ok(Bytes::from(vec![7u8; len as usize]))
    });
    let driver = cluster.driver();

    let fits = driver.submit1_opts(&blob, largest as u64, on(PIN)).unwrap();
    assert_eq!(driver.get(&fits).unwrap().len(), largest);
    pushed_is(&cluster, 1);
    assert_eq!(requests_served(&cluster), 0);
    // One byte more is left to the reader's request.
    let over = driver
        .submit1_opts(&blob, largest as u64 + 1, on(PIN))
        .unwrap();
    assert_eq!(driver.get(&over).unwrap().len(), largest + 1);
    pushed_is(&cluster, 1);
    assert_eq!(requests_served(&cluster), 1);
    assert_eq!(record(&cluster, over.id()).unwrap().inbound, None);

    // Three tasks on the one worker: the first holds it until the other
    // two are ready behind it. It seals with two queued, the second
    // with one — neither is pushed. The last has nothing behind it.
    let gate = Arc::new(Barrier::new(2));
    let held = gate.clone();
    let inc = cluster.register_fn1("push_queued", move |x: u64| {
        if x == 0 {
            held.wait();
        }
        Ok(x + 1)
    });
    let futs: Vec<_> = (0..3u64)
        .map(|x| driver.submit1_opts(&inc, x, on(PIN)).unwrap())
        .collect();
    // Node 1's run queue says so once they are on it.
    eventually("two tasks ready behind the first", || {
        let queue = cluster.services().run_queue(N1);
        queue.is_some_and(|queue| queue.load().ready == 2)
    });
    gate.wait();
    assert_eq!(driver.get_many(&futs).unwrap(), vec![1, 2, 3]);
    pushed_is(&cluster, 2);
    let announced = |fut: &ObjectRef<u64>| record(&cluster, fut.id()).unwrap().inbound.is_some();
    assert!(!announced(&futs[0]) && !announced(&futs[1]));
    eventually("the last result's push is listed", || {
        landed(&cluster, futs[2].id())
    });
    cluster.shutdown();
}

#[test]
fn a_task_waiting_on_the_submitter_node_starts_on_the_pushed_copy() {
    let cluster = Cluster::start(two_nodes(2)).unwrap();
    let gate = Arc::new(Barrier::new(2));
    let held = gate.clone();
    let remote = cluster.register_fn1("push_remote_leaf", move |x: u64| {
        held.wait();
        Ok(x * 10)
    });
    let local = cluster.register_fn1("push_local_reader", |x: u64| Ok(x + 1));
    // The parent runs on node 0 and submits both from there: the remote
    // leaf, and a reader of its result that must run at home.
    let parent = cluster.register_fn1_ctx("push_parent", move |ctx, x: u64| {
        let leaf = ctx.submit1_opts(&remote, x, on(PIN))?;
        let leaf_id = leaf.id();
        let reader = ctx.submit1_opts(&local, leaf, on(HOME))?;
        Ok((leaf_id, reader.id()))
    });
    let driver = cluster.driver();
    let ids = driver.submit1_opts(&parent, 4u64, on(HOME)).unwrap();
    let (leaf, reader) = driver.get(&ids).unwrap();
    // The reader is waiting in node 0's scheduler before the leaf seals.
    let reader_task = reader.producer_task().unwrap();
    eventually("the reader is queued at home", || {
        cluster.services().tasks.get_state(reader_task)
            == Some(rtml::common::task::TaskState::Queued(N0))
    });
    gate.wait();
    let value: u64 = driver.get(&ObjectRef::typed(reader)).unwrap();
    assert_eq!(value, 41);

    // It started on the pushed copy: nothing was prefetched or asked
    // for, and the log says the bytes came from node 1, from the seal.
    assert_eq!(requests_served(&cluster), 0);
    assert_eq!(agent0(&cluster, |s| s.requests_sent.get()), 0);
    eventually("the pushed copy is listed", || landed(&cluster, leaf));
    eventually("its transfer is logged", || {
        let events = cluster.services().events.read_all();
        events.iter().any(|event| {
            matches!(event.kind, EventKind::TransferFinished { object, .. } if object == leaf)
        })
    });
    let events = cluster.services().events.read_all();
    let mut started = None;
    let mut finished = None;
    for event in &events {
        match event.kind {
            EventKind::PrefetchIssued { .. } => panic!("a pushed result was prefetched"),
            EventKind::TransferStarted { object, from, to } if object == leaf => {
                assert_eq!((from, to), (N1, N0));
                started = Some(event.at_nanos);
            }
            EventKind::TransferFinished { object, to, .. } if object == leaf => {
                assert_eq!(to, N0);
                finished = Some(event.at_nanos);
            }
            _ => {}
        }
    }
    assert!(started.expect("logged") < finished.expect("logged"));
    assert_eq!(cluster.reconstructions(), 0);
    cluster.shutdown();
}

#[test]
fn a_duplicated_push_frame_seals_once() {
    let cluster = Cluster::start(ClusterConfig {
        faults: FaultPlan {
            seed: 7,
            links: vec![LinkFault {
                link: LinkMatch::link(N1, N0),
                duplicate_ppm: 1_000_000,
                ..LinkFault::default()
            }],
            ..FaultPlan::default()
        },
        ..two_nodes(2)
    })
    .unwrap();
    let inc = cluster.register_fn1("push_twice", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let fut = driver.submit1_opts(&inc, 1u64, on(PIN)).unwrap();
    assert_eq!(driver.get(&fut).unwrap(), 2);
    // Both copies of the frame arrive; the second finds the object
    // sealed and changes nothing.
    eventually("both frames arrived", || {
        agent0(&cluster, |s| s.chunks_received.get()) == 2
    });
    pushed_is(&cluster, 1);
    eventually("the first frame counted", || {
        agent0(&cluster, |s| s.pushes_received.get()) == 1
    });
    assert_eq!(agent0(&cluster, |s| s.objects_fetched.get()), 1);
    assert_eq!(agent0(&cluster, |s| s.bad_chunks.get()), 0);
    eventually("the pushed copy is listed", || landed(&cluster, fut.id()));
    assert_eq!(cluster.services().store(N0).unwrap().len(), 1);
    cluster.shutdown();
}

#[test]
fn an_announcement_does_not_outlive_its_wait() {
    let fetch_timeout = Duration::from_millis(250);
    let cluster = Cluster::start(ClusterConfig {
        fetch_timeout,
        ..two_nodes(2)
    })
    .unwrap();
    let gate = Arc::new(Barrier::new(2));
    let held = gate.clone();
    let inc = cluster.register_fn1("push_stale", move |x: u64| {
        held.wait();
        held.wait();
        Ok(x + 1)
    });
    // A push lost in a partition, never read: its record keeps saying a
    // copy is on its way to node 0 — and node 0 restarts meanwhile.
    let fut = cluster.driver().submit1_opts(&inc, 1u64, on(PIN)).unwrap();
    gate.wait();
    cluster.services().fabric.partition(N0, N1);
    gate.wait();
    eventually("the push left", || pushed(&cluster) == 1);
    cluster.services().fabric.heal(N0, N1);
    let config = cluster.node_config(N0).unwrap();
    cluster.kill_node(N0).unwrap();
    eventually("the announcement expired", || {
        record(&cluster, fut.id()).is_some_and(|info| {
            info.inbound.is_some_and(|inbound| inbound.node == N0) && !info.awaits_push(N0)
        })
    });
    cluster.restart_node(N0, config).unwrap();
    // What is left of it is inert: the restarted node's first reader
    // pulls at once, and the pulled copy's commit clears it.
    let driver = cluster.driver();
    assert_eq!(driver.home_node(), N0);
    let started = Instant::now();
    assert_eq!(driver.get(&fut).unwrap(), 2);
    assert!(started.elapsed() < fetch_timeout / 2);
    assert_eq!(requests_served(&cluster), 1);
    eventually("the pulled copy is listed", || landed(&cluster, fut.id()));
    cluster.shutdown();
}

#[test]
fn a_batch_pushes_its_last_result_only() {
    // One worker on node 1: a gate holds it while three tasks queue up
    // behind, and then it takes all three as one batch. The first two
    // results have a task of their own batch behind them — not pushed,
    // though the node's queue is empty by then; the last is.
    let cluster = Cluster::start(two_nodes(1)).unwrap();
    let gate = Arc::new(Barrier::new(2));
    let held = gate.clone();
    let hold = cluster.register_fn1("batch_gate", move |x: u64| {
        held.wait();
        Ok(x)
    });
    let inc = cluster.register_fn1("batch_push", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let gated = driver.submit1_opts(&hold, 0, on(PIN)).unwrap();
    let futs: Vec<_> = (0..3u64)
        .map(|x| driver.submit1_opts(&inc, x, on(PIN)).unwrap())
        .collect();
    eventually("three tasks ready behind the gate", || {
        let queue = cluster.services().run_queue(N1);
        queue.is_some_and(|queue| queue.load().ready == 3)
    });
    gate.wait();
    assert_eq!(driver.get_many(&futs).unwrap(), vec![1, 2, 3]);
    assert_eq!(driver.get(&gated).unwrap(), 0);
    pushed_is(&cluster, 1);
    let announced = |fut: &ObjectRef<u64>| record(&cluster, fut.id()).unwrap().inbound.is_some();
    assert!(!announced(&futs[0]) && !announced(&futs[1]));
    eventually("the last result's push is listed", || {
        landed(&cluster, futs[2].id())
    });
    cluster.shutdown();
}
