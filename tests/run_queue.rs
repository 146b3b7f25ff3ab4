//! The node's run queue (`rtml::sched::RunQueue`), first as the plain
//! data structure it is and then with a scheduler pushing onto it.
//!
//! The property test drives a bare queue — a store to unpin through,
//! and nothing where the scheduler would be: a worker that parks tells
//! nobody — with real worker threads and random interleavings of push /
//! finish-and-take / blocked / unblocked / worker removal, and checks
//! the five invariants of the module docs at every point where the
//! threads have settled. A lost wake-up shows as "never settled" (a
//! worker asleep beside a task that fits), a double run as "taken
//! twice".
//!
//! The scheduler-level test fails at the commit before the queue
//! existed, where a burst cost the scheduler one message and one worker
//! sleep per task, and at the commits where a worker that parked woke
//! the scheduler's loop for a turn.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use rtml::common::event::EventKind;
use rtml::common::ids::{DriverId, FunctionId, NodeId, ObjectId, TaskId, WorkerId};
use rtml::common::resources::Resources;
use rtml::common::task::{TaskSpec, TaskState};
use rtml::kv::{EventLog, KvStore, ObjectTable, TaskTable};
use rtml::net::{Endpoint, Fabric, FabricConfig};
use rtml::runtime::{Cluster, ClusterConfig};
use rtml::sched::{
    HealthTracker, LocalScheduler, LocalSchedulerConfig, LocalSchedulerHandle, LocalSchedulerStats,
    QueueLoad, RunQueue, RunTime, Runnable, SchedServices, SpillMode, MAX_BATCH,
};
use rtml::store::{ObjectStore, StoreConfig, TransferDirectory};

const NODE: NodeId = NodeId(0);
const PIN_BYTES: u64 = 64;

fn total() -> Resources {
    Resources::new(2.0, 1.0)
}

fn task(index: u64) -> TaskId {
    TaskId::driver_root(DriverId::from_index(3)).child(index)
}

/// How long every task of `spec`'s function runs, as the test's workers
/// report it: one value, so its mean is exact.
const TOOK: Duration = Duration::from_millis(1);

fn ran() -> RunTime {
    let function = FunctionId::from_name("f");
    RunTime {
        function,
        took: TOOK,
    }
}

fn spec(index: u64, resources: Resources) -> TaskSpec {
    let mut spec = TaskSpec::simple(task(index), FunctionId::from_name("f"), vec![]);
    spec.resources = resources;
    spec
}

fn store() -> Arc<ObjectStore> {
    Arc::new(ObjectStore::new(StoreConfig {
        node: NODE,
        capacity_bytes: 1 << 20,
        ..StoreConfig::default()
    }))
}

/// A queue with nothing behind it. Its one way to call out — asking
/// the node for another worker — is counted in the returned cell.
fn bare_queue(store: &Arc<ObjectStore>) -> (Arc<RunQueue>, Arc<AtomicUsize>) {
    let stats = Arc::new(LocalSchedulerStats::default());
    let grows = Arc::new(AtomicUsize::new(0));
    let grow = {
        let grows = grows.clone();
        Arc::new(move || {
            grows.fetch_add(1, SeqCst);
        })
    };
    let queue = RunQueue::new(total(), SpillMode::default(), store.clone(), stats, grow);
    (Arc::new(queue), grows)
}

/// Waits until `idle` workers are parked on `queue`.
fn parked(queue: &RunQueue, idle: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while queue.load().idle < idle {
        assert!(
            Instant::now() < deadline,
            "never parked: {:?}",
            queue.load()
        );
        std::thread::yield_now();
    }
}

/// What a controlled worker shows the test.
enum Seen {
    /// It took a batch: the first task started, the rest held.
    Took(WorkerId, TaskSpec, Vec<TaskId>),
    /// It started the next task of its batch.
    Started(WorkerId, TaskSpec),
}

/// A worker thread under the test's control: it takes batches from the
/// queue, shows each task as it starts, and holds it until told it is
/// done (a `()`) — reporting it published in the same call that starts
/// the next task of its batch — or dropped (the sender gone: it dies
/// holding its batch). Once it has shown a batch, what the batch holds
/// is open to idle workers.
fn controlled_worker(
    queue: &Arc<RunQueue>,
    id: WorkerId,
    seen: &Sender<Seen>,
) -> (Sender<()>, std::thread::JoinHandle<()>) {
    let (done_tx, done_rx) = unbounded();
    let (queue, seen) = (queue.clone(), seen.clone());
    let thread = std::thread::spawn(move || {
        while let Some(batch) = queue.next(id, None) {
            let mut running = batch.first.task_id;
            let holds = !batch.behind.is_empty();
            if seen
                .send(Seen::Took(id, batch.first, batch.behind))
                .is_err()
            {
                return;
            }
            // As a worker does once its `Running` commit is out.
            if holds {
                queue.committed(id);
            }
            loop {
                if done_rx.recv().is_err() {
                    return;
                }
                let Some(spec) = queue.start(id, &[running], ran()) else {
                    break;
                };
                running = spec.task_id;
                if seen.send(Seen::Started(id, spec)).is_err() {
                    return;
                }
            }
        }
    });
    (done_tx, thread)
}

/// The queue, its worker threads, and what the test knows must be true.
struct Harness {
    queue: Arc<RunQueue>,
    store: Arc<ObjectStore>,
    /// Workers holding a task, and the queue's park count, when the
    /// threads last settled.
    settled: (BTreeSet<WorkerId>, u64),
    seen: Receiver<Seen>,
    done: BTreeMap<WorkerId, Sender<()>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Every task pushed: its demand and its pins.
    tasks: HashMap<TaskId, (Resources, Vec<ObjectId>)>,
    /// Not started: queued, or held in a batch.
    ready: BTreeSet<TaskId>,
    /// Each worker's tasks taken and not started, in start order.
    held: BTreeMap<WorkerId, VecDeque<TaskId>>,
    holding: BTreeMap<WorkerId, TaskId>,
    released: BTreeSet<TaskId>,
    /// Started by a worker.
    took: BTreeSet<TaskId>,
    /// Lost with a detached worker before they started.
    lost: BTreeSet<TaskId>,
    /// Finished, and reported published by their worker.
    published: BTreeSet<TaskId>,
    /// Lost with a detached worker, started or not.
    dead: BTreeSet<TaskId>,
    /// A resumed task has `in_use` above `total` until tasks finish.
    oversubscribed: bool,
}

impl Harness {
    fn start(workers: u32) -> Harness {
        let store = store();
        let (queue, _grows) = bare_queue(&store);
        let (seen_tx, seen) = unbounded();
        let mut done = BTreeMap::new();
        let mut threads = Vec::new();
        for index in 0..workers {
            let id = WorkerId::new(NODE, index);
            queue.attach(id);
            let (done_tx, thread) = controlled_worker(&queue, id, &seen_tx);
            done.insert(id, done_tx);
            threads.push(thread);
        }
        Harness {
            queue,
            store,
            settled: (BTreeSet::new(), 0),
            seen,
            done,
            threads,
            tasks: HashMap::new(),
            ready: BTreeSet::new(),
            held: BTreeMap::new(),
            holding: BTreeMap::new(),
            released: BTreeSet::new(),
            took: BTreeSet::new(),
            lost: BTreeSet::new(),
            published: BTreeSet::new(),
            dead: BTreeSet::new(),
            oversubscribed: false,
        }
    }

    fn push(&mut self, shapes: &[(Resources, usize)]) {
        let mut batch = Vec::new();
        for (resources, pins) in shapes {
            let index = self.tasks.len() as u64;
            let pins: Vec<ObjectId> = (0..*pins as u32)
                .map(|i| task(index).return_object(10 + i))
                .collect();
            for pin in &pins {
                let bytes = Bytes::from(vec![0u8; PIN_BYTES as usize]);
                self.store.put(*pin, bytes).unwrap();
                assert!(self.store.pin(*pin));
            }
            self.tasks
                .insert(task(index), (resources.clone(), pins.clone()));
            self.ready.insert(task(index));
            batch.push(Runnable {
                spec: spec(index, resources.clone()),
                pins,
            });
        }
        self.queue.push(batch);
    }

    /// The batches' grants, each its running task's demand, unless
    /// that task blocked.
    fn in_use(&self) -> Resources {
        let unreleased = self.holding.values().filter(|t| !self.released.contains(t));
        unreleased.fold(Resources::none(), |sum, t| sum.add(&self.tasks[t].0))
    }

    fn started(&mut self, worker: WorkerId, spec: &TaskSpec) -> Result<(), TestCaseError> {
        let id = spec.task_id;
        prop_assert!(
            self.ready.remove(&id),
            "{id} started twice, or never pushed"
        );
        prop_assert!(self.took.insert(id));
        prop_assert_eq!(&spec.resources, &self.tasks[&id].0);
        prop_assert!(self.holding.insert(worker, id).is_none());
        Ok(())
    }

    /// Waits until every worker thread is either holding a task the test
    /// has been shown or asleep with nothing that fits, then checks the
    /// invariants against the queue's own reading.
    fn settle(&mut self) -> Result<QueueLoad, TestCaseError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let load = loop {
            while let Ok(seen) = self.seen.try_recv() {
                match seen {
                    Seen::Took(worker, first, behind) => {
                        prop_assert!(behind.len() < MAX_BATCH);
                        for id in &behind {
                            // One grant: every task of a batch has the
                            // first one's demand.
                            prop_assert_eq!(&self.tasks[id].0, &first.resources);
                            prop_assert!(self.ready.contains(id), "{id} held, not ready");
                        }
                        // Taken from another batch: the back of what it
                        // held, in order.
                        let from = self.held.values_mut().find(|h| h.contains(&first.task_id));
                        if let Some(from) = from {
                            let taken = 1 + behind.len();
                            prop_assert!(from.len() >= taken, "took more than was held");
                            let back: Vec<TaskId> = from.split_off(from.len() - taken).into();
                            prop_assert_eq!(back[0], first.task_id);
                            prop_assert_eq!(&back[1..], &behind[..]);
                        }
                        self.started(worker, &first)?;
                        self.held.insert(worker, behind.into());
                    }
                    Seen::Started(worker, spec) => {
                        let next = self.held.get_mut(&worker).and_then(|h| h.pop_front());
                        prop_assert!(next == Some(spec.task_id), "started out of order");
                        self.started(worker, &spec)?;
                    }
                }
            }
            let load = self.queue.load();
            // A worker asleep beside a task it could take has either not
            // woken yet or never will.
            let starving = load.idle > 0
                && self
                    .ready
                    .iter()
                    .any(|t| load.available.fits(&self.tasks[t].0));
            // Pins are held for exactly what is not started or is
            // running. A worker counts itself idle first and gives its
            // finished batch's pins back just after, so they are waited
            // for too: a pin that is never given back, or given back
            // twice, never settles.
            let live = self.ready.iter().chain(self.holding.values());
            let pinned = PIN_BYTES * live.map(|t| self.tasks[t].1.len() as u64).sum::<u64>();
            if load.idle + self.holding.len() == self.done.len()
                && load.running == self.holding.len()
                && self.store.pinned_bytes() == pinned
                && !starving
            {
                break load;
            }
            prop_assert!(
                Instant::now() < deadline,
                "never settled: {load:?}, holding {:?}, held {:?}, ready {:?}, \
                 {} pinned bytes, not {pinned}",
                self.holding,
                self.held,
                self.ready,
                self.store.pinned_bytes()
            );
            std::thread::yield_now();
        };
        // A worker that held a task at the last settled point and is
        // idle now parked since, and each park is counted.
        let parks = self.queue.stats().worker_parks.get();
        let (held_before, parks_before) = &self.settled;
        let dried = held_before
            .iter()
            .filter(|w| self.done.contains_key(w) && !self.holding.contains_key(w))
            .count() as u64;
        prop_assert!(
            parks - parks_before >= dried,
            "{dried} workers ran dry, {} parks counted",
            parks - parks_before
        );
        self.settled = (self.holding.keys().copied().collect(), parks);
        // Held tasks are ready backlog: in the load and the gauge.
        prop_assert_eq!(load.ready, self.ready.len());
        let stats = self.queue.stats();
        let gauge = |g: &std::sync::atomic::AtomicU64| g.load(std::sync::atomic::Ordering::Relaxed);
        prop_assert_eq!(gauge(&stats.ready_depth), self.ready.len() as u64);
        // So are their run times, in the backlog the spill rule walks:
        // each task is measured at the one mean, or counted unmeasured
        // until a task of its function finished.
        let backlog = self.queue.backlog();
        prop_assert_eq!(backlog.tasks, self.ready.len());
        let measured = (backlog.tasks - backlog.unmeasured) as u64;
        let mean = TOOK.as_nanos() as u64;
        prop_assert_eq!(backlog.work_ns, measured * mean);
        // `in_use` is the unreleased batches' grants, and is within
        // `total` unless a blocked task resumed.
        let in_use = self.in_use();
        prop_assert_eq!(&load.available, &total().saturating_sub(&in_use));
        self.oversubscribed &= !total().fits(&in_use);
        prop_assert!(total().fits(&in_use) || self.oversubscribed, "{in_use:?}");
        // The queue holds what was pushed, less what was reported
        // published and what was lost.
        let gone = |t: &TaskId| self.published.contains(t) || self.dead.contains(t);
        let expected: BTreeSet<TaskId> = self.tasks.keys().copied().filter(|t| !gone(t)).collect();
        prop_assert_eq!(self.held_by_queue(), expected);
        Ok(load)
    }

    /// The pushed tasks the queue says it holds.
    fn held_by_queue(&self) -> BTreeSet<TaskId> {
        let results = self.tasks.keys().map(|t| t.return_object(0)).collect();
        let (held, _) = self.queue.split_held(results);
        held.iter().filter_map(|o| o.producer_task()).collect()
    }

    fn finish(&mut self, worker: WorkerId) {
        let task = self.holding.remove(&worker).expect("holding");
        self.published.insert(task);
        self.released.remove(&task);
        self.done[&worker].send(()).unwrap();
    }

    /// `task` blocks: its grant goes back, and so do the tasks held
    /// behind it.
    fn block(&mut self, task: TaskId) {
        self.queue.blocked(task, &[]);
        self.released.insert(task);
        let worker = self.holding.iter().find(|(_, t)| **t == task).unwrap().0;
        self.held.remove(worker);
    }
}

/// The demand shapes of pushed tasks: all fit `total()`, not all at once.
fn shape(arg: u64) -> (Resources, usize) {
    let resources = match arg % 5 {
        0 | 1 => Resources::cpu(1.0),
        2 => Resources::cpu(2.0),
        3 => Resources::new(1.0, 1.0),
        _ => Resources::none(),
    };
    (resources, (arg / 5 % 3) as usize)
}

proptest! {
    #[test]
    fn every_task_leaves_once_and_grants_and_pins_balance(
        ops in proptest::collection::vec((0u8..9, 0u64..1000), 8..48),
        drain in any::<bool>(),
    ) {
        let mut h = Harness::start(3);
        h.settle()?;
        for (kind, arg) in ops {
            let pick = |len: usize| (arg as usize) % len;
            match kind {
                0..=2 => {
                    let shapes: Vec<_> = (0..=arg % 3).map(|i| shape(arg / 3 + i)).collect();
                    h.push(&shapes);
                }
                3..=5 if !h.holding.is_empty() => {
                    let worker = *h.holding.keys().nth(pick(h.holding.len())).unwrap();
                    h.finish(worker);
                }
                6 if !h.holding.is_empty() => {
                    let task = *h.holding.values().nth(pick(h.holding.len())).unwrap();
                    if !h.released.contains(&task) {
                        h.block(task);
                    }
                }
                7 if !h.released.is_empty() => {
                    let task = *h.released.iter().nth(pick(h.released.len())).unwrap();
                    h.queue.unblocked(task);
                    h.released.remove(&task);
                    h.oversubscribed = true;
                }
                8 if h.done.len() > 1 => {
                    // A worker dies: its batch is lost with it, the task
                    // it ran and the tasks it held.
                    let worker = *h.done.keys().nth(pick(h.done.len())).unwrap();
                    let losses = h.queue.losses();
                    let lost = h.queue.detach(worker);
                    // A loss is counted once a detach that lost anything.
                    prop_assert_eq!(h.queue.losses(), losses + !lost.is_empty() as u64);
                    h.dead.extend(lost.iter().copied());
                    let held = h.held.remove(&worker).unwrap_or_default();
                    let mut expected: Vec<TaskId> = h.holding.remove(&worker).into_iter().collect();
                    expected.extend(held.iter().copied());
                    expected.sort();
                    prop_assert_eq!(&lost, &expected);
                    for task in &lost {
                        h.released.remove(task);
                    }
                    for task in held {
                        prop_assert!(h.ready.remove(&task));
                        h.lost.insert(task);
                    }
                    h.done.remove(&worker);
                }
                _ => {}
            }
            h.settle()?;
        }
        if drain {
            // Quiescence: everything pushed has run (or died with its
            // worker), and nothing is held for it.
            while !h.holding.is_empty() {
                let worker = *h.holding.keys().next().unwrap();
                h.finish(worker);
                h.settle()?;
            }
            let load = h.settle()?;
            prop_assert!(h.ready.is_empty(), "runnable tasks left: {:?}", h.ready);
            prop_assert_eq!((load.running, &load.available), (0, &total()));
            prop_assert_eq!(h.store.pinned_bytes(), 0);
        }
        // Close: the threads exit, and what is queued stays queued —
        // but held no more, a loss the store's subscribers hear of.
        let (wake_tx, wake_rx) = unbounded();
        let _subscriber = h.store.subscribe_local_many(&[], 1, wake_tx);
        let holds = !h.held_by_queue().is_empty();
        let losses = h.queue.losses();
        h.queue.close();
        prop_assert_eq!(h.queue.losses(), losses + holds as u64);
        prop_assert_eq!(wake_rx.try_recv().is_ok(), holds);
        prop_assert!(h.held_by_queue().is_empty());
        h.push(&[shape(0), shape(1)]);
        h.done.clear();
        for thread in h.threads.drain(..) {
            thread.join().unwrap();
        }
        prop_assert!(h.seen.try_recv().is_err(), "a task was started after close");
        prop_assert_eq!(h.queue.load().ready, h.ready.len());
        // Every pushed task left exactly once — started, or lost with a
        // dead worker before it started — or is still ready.
        prop_assert_eq!(h.took.len() + h.lost.len() + h.ready.len(), h.tasks.len());
        prop_assert!(h.took.is_disjoint(&h.ready) && h.lost.is_disjoint(&h.ready));
    }
}

#[test]
fn a_cpu_task_overtakes_a_task_waiting_for_the_gpu() {
    let store = store();
    let (queue, _grows) = bare_queue(&store);
    let (w0, w1) = (WorkerId::new(NODE, 0), WorkerId::new(NODE, 1));
    queue.attach(w0);
    queue.attach(w1);
    let gpu = Resources::new(1.0, 1.0);
    queue.push(vec![
        spec(0, gpu.clone()).into(),
        spec(1, gpu).into(),
        spec(2, Resources::cpu(1.0)).into(),
    ]);
    // The first GPU task takes the only GPU and, two workers for three
    // tasks, the second GPU task with it: that one waits for the GPU on
    // the same worker, and the CPU task behind it does not wait for it.
    let gpus = queue.next(w0, None).unwrap();
    assert_eq!((gpus.first.task_id, gpus.behind), (task(0), vec![task(1)]));
    assert_eq!(queue.next(w1, None).unwrap().first.task_id, task(2));
    assert_eq!(queue.load().ready, 1);
    // The GPU moves on with the batch's grant.
    assert_eq!(queue.start(w0, &[task(0)], ran()).unwrap().task_id, task(1));
    assert!(queue.start(w0, &[task(1)], ran()).is_none());
    assert_eq!(queue.load().ready, 0);
}

#[test]
fn a_killed_parked_worker_exits_without_taking_and_close_strands_the_queue() {
    let store = store();
    let (queue, grows) = bare_queue(&store);
    let (w0, w1) = (WorkerId::new(NODE, 0), WorkerId::new(NODE, 1));
    queue.attach(w0);
    queue.attach(w1);
    // w0 parks on the empty queue: counted once, and it tells nobody.
    let sleeper = {
        let queue = queue.clone();
        std::thread::spawn(move || queue.next(w0, None))
    };
    parked(&queue, 1);
    assert_eq!(queue.stats().worker_parks.get(), 1);
    assert_eq!(grows.load(SeqCst), 0);
    // Killed while parked: it wakes, takes nothing, and is told to exit.
    assert!(queue.detach(w0).is_empty());
    assert!(sleeper.join().unwrap().is_none());
    assert_eq!(queue.load().idle, 0);
    assert_eq!(queue.stats().worker_parks.get(), 1);
    assert_eq!(grows.load(SeqCst), 0);

    // w1, the only worker now, takes all three tasks and the queue
    // closes under it: the finished task is accounted for, nothing more
    // is started or handed out — the two it held are queued again — and
    // a worker attached too late finds the door shut.
    let cpu = || Resources::cpu(2.0);
    queue.push(vec![
        spec(0, cpu()).into(),
        spec(1, cpu()).into(),
        spec(2, cpu()).into(),
    ]);
    let batch = queue.next(w1, None).unwrap();
    assert_eq!(batch.tasks(), vec![task(0), task(1), task(2)]);
    queue.close();
    assert!(queue.start(w1, &[], ran()).is_none());
    assert!(queue.next(w1, None).is_none());
    queue.attach(w0);
    assert!(queue.next(w0, None).is_none());
    let load = queue.load();
    assert_eq!((load.ready, load.running, load.available), (2, 0, total()));
}

#[test]
fn held_tasks_count_as_ready_backlog_and_a_batch_holds_one_grant() {
    let store = store();
    let (queue, _grows) = bare_queue(&store);
    let (w0, w1) = (WorkerId::new(NODE, 0), WorkerId::new(NODE, 1));
    queue.attach(w0);
    queue.attach(w1);
    let cpu = || Resources::cpu(1.0);
    queue.push((0..8).map(|i| spec(i, cpu()).into()).collect());
    let depth = || {
        let load = queue.load();
        let gauge = queue
            .stats()
            .ready_depth
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(load.ready as u64, gauge, "the load and the gauge agree");
        load.ready
    };
    // Eight ready for two workers: w0's fair share is four, one started
    // and three held — and held, they are still ready backlog.
    let first = queue.next(w0, None).unwrap();
    assert_eq!(first.tasks(), (0..4).map(task).collect::<Vec<_>>());
    assert_eq!(depth(), 7);
    // The batch is charged one task's demand, so the node's other CPU
    // is free for w1, which takes half of the four still queued.
    assert_eq!(queue.load().available, Resources::new(1.0, 1.0));
    let second = queue.next(w1, None).unwrap();
    assert_eq!(second.tasks(), vec![task(4), task(5)]);
    assert_eq!(depth(), 6);
    let load = queue.load();
    assert_eq!(
        (load.running, load.available),
        (2, Resources::new(0.0, 1.0))
    );
    // A start moves the grant on and takes the task off the backlog.
    assert_eq!(queue.start(w0, &[task(0)], ran()).unwrap().task_id, task(1));
    assert_eq!(depth(), 5);
    assert_eq!(queue.load().available, Resources::new(0.0, 1.0));
}

#[test]
fn a_task_that_blocks_hands_the_tasks_held_behind_it_back() {
    let store = store();
    let (queue, _grows) = bare_queue(&store);
    let w0 = WorkerId::new(NODE, 0);
    queue.attach(w0);
    queue.push(
        (0..3)
            .map(|i| spec(i, Resources::cpu(1.0)).into())
            .collect(),
    );
    let batch = queue.next(w0, None).unwrap();
    assert_eq!(batch.tasks(), vec![task(0), task(1), task(2)]);
    // Task 0 waits in `get`, perhaps for what task 1 makes: the tasks
    // behind it go back to the queue for another worker to take.
    queue.blocked(task(0), &[]);
    assert_eq!(queue.load().ready, 2);
    let w1 = WorkerId::new(NODE, 1);
    queue.attach(w1);
    assert_eq!(queue.next(w1, None).unwrap().tasks(), vec![task(1)]);
    assert_eq!(queue.load().ready, 1);
    queue.unblocked(task(0));
    // The batch ends with the blocked task.
    assert!(queue.start(w0, &[], ran()).is_none());
}

#[test]
fn an_idle_worker_takes_what_a_batch_holds_once_its_running_commit_is_out() {
    let store = store();
    let (queue, grows) = bare_queue(&store);
    let (w0, w1) = (WorkerId::new(NODE, 0), WorkerId::new(NODE, 1));
    queue.attach(w0);
    queue.attach(w1);
    let cpu = || Resources::cpu(1.0);
    queue.push((0..3).map(|i| spec(i, cpu()).into()).collect());
    // Three ready for two workers: w0 takes two, w1 the third. Task 0
    // runs long.
    assert_eq!(
        queue.next(w0, None).unwrap().tasks(),
        vec![task(0), task(1)]
    );
    assert_eq!(queue.next(w1, None).unwrap().tasks(), vec![task(2)]);
    assert!(queue.start(w1, &[task(2)], ran()).is_none());
    // w1 runs dry beside task 1, which waits behind task 0 — but is not
    // w1's to take before w0 has committed its batch `Running`.
    let (took_tx, took) = unbounded();
    {
        let queue = queue.clone();
        std::thread::spawn(move || {
            let _ = took_tx.send(queue.next(w1, None));
        });
    }
    // It parks, counted once and telling nobody.
    parked(&queue, 1);
    assert_eq!(queue.stats().worker_parks.get(), 1);
    assert_eq!(grows.load(SeqCst), 0);
    assert_eq!(queue.load().ready, 1);
    queue.committed(w0);
    // Then it is: w1 wakes and takes it, and w0's batch ends with the
    // long task.
    let batch = took.recv_timeout(Duration::from_secs(5));
    assert_eq!(
        batch.expect("w1 never took").unwrap().tasks(),
        vec![task(1)]
    );
    assert!(queue.start(w0, &[task(0)], ran()).is_none());
    let load = queue.load();
    assert_eq!((load.ready, load.running), (0, 2));
}

#[test]
fn a_worker_killed_mid_batch_loses_its_unstarted_tasks_and_they_replay() {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    })
    .unwrap();
    // Tasks 0 and 4 hold their workers until released, the first time
    // they run: neither worker runs dry, so neither takes from the
    // other's batch.
    let (first_runs, release) = (
        Arc::new([AtomicBool::new(true), AtomicBool::new(true)]),
        Arc::new(AtomicBool::new(false)),
    );
    let (firsts, go) = (first_runs.clone(), release.clone());
    let gate = cluster.register_fn1("mid_batch_gate", move |x: u64| {
        if matches!(x, 0 | 4) && firsts[x as usize / 4].swap(false, SeqCst) {
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
    // Eight ready for two workers: whoever takes task 0 holds the three
    // behind it in its batch, committed `Running` on it together; the
    // other takes tasks 4 and 5.
    let deadline = Instant::now() + Duration::from_secs(10);
    let worker = loop {
        let states = cluster.services().tasks.get_states_many(&tasks[..4]);
        if let Some(TaskState::Running(worker)) = states[0] {
            if states
                .iter()
                .all(|s| *s == Some(TaskState::Running(worker)))
            {
                break worker;
            }
        }
        assert!(Instant::now() < deadline, "task 0's batch never started");
        std::thread::sleep(Duration::from_millis(1));
    };
    cluster.kill_worker(worker).unwrap();
    // Released once the queue has detached the dead worker's batch.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.services().tasks.get_state(tasks[0]) != Some(TaskState::Lost) {
        assert!(Instant::now() < deadline, "task 0 never marked lost");
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(true, SeqCst);
    // Task 0 and the three it held are lost with the worker and replay
    // when the driver asks for them.
    let values = driver.get_many(&futs).unwrap();
    assert_eq!(values, (1..=8).collect::<Vec<u64>>());
    assert!(
        cluster.reconstructions() >= 4,
        "{}",
        cluster.reconstructions()
    );
    // The held three never started on the dead worker.
    let started_on = |task: TaskId| {
        let events = cluster.services().events.read_all();
        let starts = events.into_iter().filter_map(|e| match e.kind {
            EventKind::TaskStarted { task: t, worker } if t == task => Some(worker),
            _ => None,
        });
        starts.collect::<Vec<_>>()
    };
    for task in &tasks[1..4] {
        let workers = started_on(*task);
        assert_eq!(workers.len(), 1, "{task} started {workers:?}");
        assert_ne!(workers[0], worker);
    }
    cluster.shutdown();
}

#[test]
fn a_two_worker_node_runs_a_burst_on_both_workers() {
    let cluster = Cluster::start(ClusterConfig {
        spill: SpillMode::NeverSpill,
        ..ClusterConfig::local(1, 2)
    })
    .unwrap();
    let work = cluster.register_fn1("both_work", |x: u64| {
        std::thread::sleep(Duration::from_micros(200));
        Ok(x)
    });
    let driver = cluster.driver();
    let futs = driver.submit_many(&work, 0..256u64).unwrap();
    driver.get_many(&futs).unwrap();
    let mut per_worker: BTreeMap<WorkerId, usize> = BTreeMap::new();
    for event in cluster.services().events.read_all() {
        if let EventKind::TaskStarted { worker, .. } = event.kind {
            *per_worker.entry(worker).or_default() += 1;
        }
    }
    assert_eq!(per_worker.len(), 2, "{per_worker:?}");
    assert!(per_worker.values().all(|n| *n >= 32), "{per_worker:?}");
    cluster.shutdown();
}

// ---- with a scheduler pushing ---------------------------------------

struct Rig {
    _global: Endpoint,
    handle: LocalSchedulerHandle,
}

/// A node-0 scheduler over `workers` attached workers (no threads yet)
/// that keeps every task local. Nothing but what the test sends turns
/// its loop between the turns its timer takes (`ticks`): its load tick
/// and the object plane's reap.
fn rig(workers: u32) -> Rig {
    let kv = KvStore::new(2);
    let fabric = Fabric::new(FabricConfig::default());
    let directory = TransferDirectory::new();
    let store = store();
    let global = fabric.register(NodeId(1000), "fake-global");
    let services = SchedServices {
        kv: kv.clone(),
        objects: ObjectTable::new(kv.clone()),
        tasks: TaskTable::new(kv.clone()),
        events: EventLog::new(kv.clone()),
        fabric,
        directory,
        store,
        global: global.address(),
        health: HealthTracker::new(),
        reconstruct: Arc::new(|_| {}),
        request_worker: Arc::new(|| {}),
        periodic: None,
    };
    let config = LocalSchedulerConfig {
        total_resources: Resources::cpu(workers as f64),
        spill: SpillMode::NeverSpill,
        ..LocalSchedulerConfig::default()
    };
    let ids = (0..workers).map(|i| WorkerId::new(NODE, i)).collect();
    let handle = LocalScheduler::spawn(config, services, ids);
    Rig {
        _global: global,
        handle,
    }
}

/// Real takers: each reports each task it starts and finishes it at once. The
/// workers were attached before `LocalScheduler::spawn` returned — a
/// taker that found itself unknown would exit instead of parking.
fn takers(rig: &Rig, workers: u32) -> Receiver<TaskId> {
    let (ran_tx, ran_rx) = unbounded();
    for index in 0..workers {
        let (queue, ran) = (rig.handle.queue().clone(), ran_tx.clone());
        std::thread::spawn(move || {
            let id = WorkerId::new(NODE, index);
            while let Some(batch) = queue.next(id, None) {
                let mut next = Some(batch.first);
                while let Some(spec) = next {
                    let _ = ran.send(spec.task_id);
                    next = queue.start(id, &[spec.task_id], self::ran());
                }
            }
        });
    }
    ran_rx
}

#[test]
fn a_burst_costs_the_scheduler_one_turn_and_its_workers_send_nothing() {
    const WORKERS: u32 = 2;
    const TASKS: u64 = 256;
    let mut r = rig(WORKERS);
    let ran = takers(&r, WORKERS);
    let stats = r.handle.stats().clone();
    // Both takers asleep on the empty queue.
    parked(r.handle.queue(), WORKERS as usize);
    // The turns something other than the loop's timer woke it for. A
    // timer turn counts its tick before its turn, so a read between the
    // two is retried: two reads 100 µs apart must agree.
    let read = || stats.turns.get().wrapping_sub(stats.ticks.get());
    let woken = || {
        let mut last = read();
        loop {
            std::thread::sleep(Duration::from_micros(100));
            let now = read();
            if now == last {
                return now;
            }
            last = now;
        }
    };
    let (parks_before, woken_before) = (stats.worker_parks.get(), woken());
    let specs = (0..TASKS).map(|i| spec(i, Resources::cpu(1.0))).collect();
    r.handle.submit_batch(specs);
    let mut seen = BTreeSet::new();
    for _ in 0..TASKS {
        let task = ran.recv_timeout(Duration::from_secs(10)).expect("ran");
        assert!(seen.insert(task), "{task} ran twice");
    }
    parked(r.handle.queue(), WORKERS as usize);
    // Time for any message a park sent to be taken.
    std::thread::sleep(Duration::from_millis(20));
    let parks = stats.worker_parks.get() - parks_before;
    let turns = woken() - woken_before;
    // A taker that ran parked again (one may also have run dry
    // mid-burst, or never have woken in time to take), and besides its
    // timer the loop took one turn — the batch's message: a park sends
    // nothing. It used to cost a completion message and a worker sleep
    // per task, and later a loop turn per park.
    assert!(
        (1..=WORKERS as u64 + 2).contains(&parks),
        "{parks} parks for a {TASKS}-task burst"
    );
    assert!(
        turns <= 1,
        "{turns} loop turns for a {TASKS}-task burst with {parks} parks"
    );
    r.handle.shutdown();
}
