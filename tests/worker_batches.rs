//! A worker takes a batch when more tasks are ready than the node has
//! workers to spread them over: one `Running` commit, one publication of
//! what it held, one event frame per component. These tests check what
//! that must not cost — each task's own timing in the event log (R7),
//! the critical path's balance, and a `get` of a result held in the
//! getter's own batch. What it must save, kv locks per executed task,
//! is in `tests/budgets.rs`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rtml::common::codec::decode_from_slice;
use rtml::common::event::{Event, EventKind};
use rtml::common::ids::{NodeId, ObjectId, TaskId, WorkerId};
use rtml::prelude::*;

/// The stream key prefix of the event log and the component byte of a
/// worker stream (`EventLog`'s key layout: prefix, node, component).
const EVENTS: &[u8] = b"ev:";
const WORKER_STREAM: u8 = 1;

/// Every worker-stream frame in the log, decoded, in append order per
/// stream, once node 0's event buffer is flushed. A flush writes one
/// frame per stream, and a batch's events go to the buffer in one push,
/// so no frame splits a batch.
fn worker_frames(cluster: &Cluster) -> Vec<Vec<Event>> {
    cluster.services().events.flush(NodeId(0));
    let streams = cluster.services().kv.scan_logs_prefix(EVENTS);
    let worker = streams
        .into_iter()
        .filter(|(key, _)| key.last() == Some(&WORKER_STREAM));
    worker
        .flat_map(|(_, records)| records)
        .map(|record| decode_from_slice::<Vec<Event>>(&record).expect("a frame"))
        .collect()
}

/// One task's worker events.
#[derive(Default, Debug)]
struct Timing {
    worker: Option<WorkerId>,
    started: Option<u64>,
    finished: Option<u64>,
    frame: Option<usize>,
}

#[test]
fn batched_tasks_keep_their_own_instants_and_a_batch_logs_one_frame() {
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("batch_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let futs = driver.submit_many(&inc, 0..256u64).unwrap();
    let values = driver.get_many(&futs).unwrap();
    assert_eq!(values, (1..=256u64).collect::<Vec<_>>());

    // A batch logs its worker events before it seals its results.
    let frames = worker_frames(&cluster);
    let mut timings: HashMap<TaskId, Timing> = HashMap::new();
    for (index, frame) in frames.iter().enumerate() {
        for event in frame {
            match event.kind {
                EventKind::TaskStarted { task, worker } => {
                    let timing = timings.entry(task).or_default();
                    assert!(timing.started.is_none(), "{task} started twice");
                    timing.worker = Some(worker);
                    timing.started = Some(event.at_nanos);
                    timing.frame = Some(index);
                }
                EventKind::TaskFinished { task, worker, .. } => {
                    let timing = timings.entry(task).or_default();
                    assert!(timing.finished.is_none(), "{task} finished twice");
                    assert_eq!(timing.worker, Some(worker));
                    assert_eq!(timing.frame, Some(index), "{task} split across frames");
                    timing.finished = Some(event.at_nanos);
                }
                _ => {}
            }
        }
    }
    assert_eq!(timings.len(), 256);
    // Batches formed: fewer frames than tasks, and some frame holds
    // several tasks.
    let widest = frames.iter().map(|f| f.len() / 2).max().unwrap();
    assert!(
        frames.len() < 256 && widest > 1,
        "{} worker frames, the widest of {widest} tasks",
        frames.len()
    );
    // No two tasks of a frame share an instant: none is stamped with
    // the batch's commit time.
    for frame in &frames {
        let mut starts: Vec<u64> = frame
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskStarted { .. }))
            .map(|e| e.at_nanos)
            .collect();
        let tasks = starts.len();
        starts.dedup();
        assert_eq!(starts.len(), tasks, "a frame's tasks share a start instant");
    }
    // On one worker, each task starts at or after the previous one
    // finished.
    let mut by_worker: BTreeMap<WorkerId, Vec<(u64, u64)>> = BTreeMap::new();
    for timing in timings.values() {
        let (started, finished) = (timing.started.unwrap(), timing.finished.unwrap());
        assert!(started <= finished);
        let runs = by_worker.entry(timing.worker.unwrap()).or_default();
        runs.push((started, finished));
    }
    for (worker, runs) in &mut by_worker {
        runs.sort();
        for pair in runs.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "{worker} started a task at {} before its last finished at {}",
                pair[1].0,
                pair[0].1
            );
        }
    }
    cluster.shutdown();
}

#[test]
fn the_critical_path_of_every_task_in_a_burst_sums_to_its_makespan() {
    let cluster = Cluster::start(ClusterConfig::local(1, 2)).unwrap();
    let inc = cluster.register_fn1("path_inc", |x: u64| Ok(x + 1));
    let driver = cluster.driver();
    let futs = driver.submit_many(&inc, 0..256u64).unwrap();
    driver.get_many(&futs).unwrap();
    let profile = cluster.profile();
    for fut in &futs {
        let task = fut.id().producer_task().unwrap();
        let path = cluster.critical_path(task).expect("the task is logged");
        assert_eq!(path.attributed_nanos(), path.makespan_nanos(), "{task}");
        let ran = profile.tasks.iter().find(|t| t.task == Some(task)).unwrap();
        assert!(ran.started.is_some() && ran.finished.is_some());
    }
    cluster.shutdown();
}

#[test]
fn a_task_that_gets_results_held_in_its_batch_finds_them() {
    // One worker, held by a gate while one batch's worth of a single
    // function queues up behind it: fifteen trivial tasks, then one that
    // `get`s their results, which it knows only as values. The trivial
    // results are held while the batch runs; unless the getter publishes
    // them as it blocks, it waits for tasks that read `Running` — which
    // nothing replays — until its deadline.
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 1)
    })
    .unwrap();
    let gate = Arc::new(Barrier::new(2));
    let held = gate.clone();
    let hold = cluster.register_fn1("held_gate", move |x: u64| {
        held.wait();
        Ok(x)
    });
    let sum = cluster.register_fn1_ctx("held_sum", |ctx, ids: Vec<ObjectId>| {
        if ids.is_empty() {
            // A trivial task: no `get`, which would hand the batch back.
            return Ok(1);
        }
        let futs: Vec<ObjectRef<u64>> = ids.into_iter().map(ObjectRef::typed).collect();
        let values = ctx.get_many_timeout(&futs, Duration::from_secs(5))?;
        Ok(1 + values.iter().sum::<u64>())
    });
    let driver = cluster.driver();
    let gated = driver.submit1(&hold, 0).unwrap();
    let trivial: Vec<ObjectRef<u64>> = (0..15)
        .map(|_| driver.submit1(&sum, Vec::new()).unwrap())
        .collect();
    let ids = trivial.iter().map(|fut| fut.id()).collect::<Vec<_>>();
    let getter = driver.submit1(&sum, ids).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let queue = cluster.services().run_queue(NodeId(0));
        let ready = queue.map(|queue| queue.load().ready);
        if ready == Some(16) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the batch never queued: {ready:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    gate.wait();
    let started = Instant::now();
    assert_eq!(driver.get(&getter).unwrap(), 16);
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(driver.get_many(&trivial).unwrap(), vec![1; 15]);
    assert_eq!(driver.get(&gated).unwrap(), 0);
    cluster.shutdown();
}
