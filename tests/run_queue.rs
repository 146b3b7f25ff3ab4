//! The node's run queue (`rtml::sched::RunQueue`), first as the plain
//! data structure it is and then with a scheduler pushing onto it.
//!
//! The property test drives a bare queue — a store to unpin through, a
//! channel where the scheduler would be — with real worker threads and
//! random interleavings of push / finish-and-take / blocked / unblocked
//! / worker removal, and checks the four invariants of the module docs at every point where the threads have
//! settled. A lost wake-up shows as "never settled" (a worker asleep
//! beside a task that fits), a double run as "taken twice".
//!
//! The scheduler-level test fails at the commit before the queue
//! existed: there a burst cost the scheduler one message and one worker
//! sleep per task.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use rtml::common::ids::{DriverId, FunctionId, NodeId, ObjectId, TaskId, WorkerId};
use rtml::common::resources::Resources;
use rtml::common::task::TaskSpec;
use rtml::kv::{EventLog, KvStore, ObjectTable, TaskTable};
use rtml::net::{Endpoint, Fabric, FabricConfig};
use rtml::sched::{
    GlobalRoutes, HealthTracker, LocalMsg, LocalScheduler, LocalSchedulerConfig,
    LocalSchedulerHandle, LocalSchedulerStats, QueueLoad, RunQueue, Runnable, SchedServices,
    SpillMode,
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

/// A queue with nothing behind it: the receiver is where the scheduler
/// would hear of idle workers.
fn bare_queue(store: &Arc<ObjectStore>) -> (Arc<RunQueue>, Receiver<LocalMsg>) {
    let (sched_tx, sched_rx) = unbounded();
    let stats = Arc::new(LocalSchedulerStats::default());
    let grow = Arc::new(|| {});
    let queue = RunQueue::new(total(), store.clone(), stats, sched_tx, grow);
    (Arc::new(queue), sched_rx)
}

/// A worker thread under the test's control: it takes from the queue,
/// shows what it took, and holds it until told it is done (a `()`) —
/// which it reports in the same call that takes its next task — or
/// dropped (the sender gone: it dies holding the task).
fn controlled_worker(
    queue: &Arc<RunQueue>,
    id: WorkerId,
    taken: &Sender<(WorkerId, TaskSpec)>,
) -> (Sender<()>, std::thread::JoinHandle<()>) {
    let (done_tx, done_rx) = unbounded();
    let (queue, taken) = (queue.clone(), taken.clone());
    let thread = std::thread::spawn(move || {
        let mut finished = None;
        while let Some(spec) = queue.next(id, finished) {
            finished = Some(spec.task_id);
            if taken.send((id, spec)).is_err() || done_rx.recv().is_err() {
                return;
            }
        }
    });
    (done_tx, thread)
}

/// The queue, its worker threads, and what the test knows must be true.
struct Harness {
    queue: Arc<RunQueue>,
    store: Arc<ObjectStore>,
    nudges: Receiver<LocalMsg>,
    nudged: u64,
    taken: Receiver<(WorkerId, TaskSpec)>,
    done: BTreeMap<WorkerId, Sender<()>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Every task pushed: its demand and its pins.
    tasks: HashMap<TaskId, (Resources, Vec<ObjectId>)>,
    ready: BTreeSet<TaskId>,
    holding: BTreeMap<WorkerId, TaskId>,
    released: BTreeSet<TaskId>,
    /// Left the queue onto a worker.
    took: BTreeSet<TaskId>,
    /// A resumed task has `in_use` above `total` until tasks finish.
    oversubscribed: bool,
}

impl Harness {
    fn start(workers: u32) -> Harness {
        let store = store();
        let (queue, nudges) = bare_queue(&store);
        let (taken_tx, taken) = unbounded();
        let mut done = BTreeMap::new();
        let mut threads = Vec::new();
        for index in 0..workers {
            let id = WorkerId::new(NODE, index);
            queue.attach(id);
            let (done_tx, thread) = controlled_worker(&queue, id, &taken_tx);
            done.insert(id, done_tx);
            threads.push(thread);
        }
        Harness {
            queue,
            store,
            nudges,
            nudged: 0,
            taken,
            done,
            threads,
            tasks: HashMap::new(),
            ready: BTreeSet::new(),
            holding: BTreeMap::new(),
            released: BTreeSet::new(),
            took: BTreeSet::new(),
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

    fn in_use(&self) -> Resources {
        let unreleased = self.holding.values().filter(|t| !self.released.contains(t));
        unreleased.fold(Resources::none(), |sum, t| sum.add(&self.tasks[t].0))
    }

    /// Waits until every worker thread is either holding a task the test
    /// has been shown or asleep with nothing that fits, then checks the
    /// invariants against the queue's own reading.
    fn settle(&mut self) -> Result<QueueLoad, TestCaseError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let load = loop {
            while let Ok((worker, spec)) = self.taken.try_recv() {
                let id = spec.task_id;
                prop_assert!(self.ready.remove(&id), "{id} taken twice, or never pushed");
                prop_assert!(self.took.insert(id));
                prop_assert_eq!(&spec.resources, &self.tasks[&id].0);
                prop_assert!(self.holding.insert(worker, id).is_none());
            }
            while self.nudges.try_recv().is_ok() {
                self.nudged += 1;
            }
            let load = self.queue.load();
            // A worker asleep beside a task it could take has either not
            // woken yet or never will.
            let starving = load.idle > 0
                && self
                    .ready
                    .iter()
                    .any(|t| load.available.fits(&self.tasks[t].0));
            let parks = self.queue.stats().worker_parks.get();
            if load.idle + self.holding.len() == self.done.len()
                && load.running == self.holding.len()
                && parks == self.nudged
                && !starving
            {
                break load;
            }
            prop_assert!(
                Instant::now() < deadline,
                "never settled: {load:?}, holding {:?}, ready {:?}, \
                 {parks} parks / {} nudges",
                self.holding,
                self.ready,
                self.nudged
            );
            std::thread::yield_now();
        };
        prop_assert_eq!(load.ready, self.ready.len());
        let depth = &self.queue.stats().ready_depth;
        prop_assert_eq!(
            depth.load(std::sync::atomic::Ordering::Relaxed),
            self.ready.len() as u64
        );
        // `in_use` is the unreleased running grants, and is within
        // `total` unless a blocked task resumed.
        let in_use = self.in_use();
        prop_assert_eq!(&load.available, &total().saturating_sub(&in_use));
        self.oversubscribed &= !total().fits(&in_use);
        prop_assert!(total().fits(&in_use) || self.oversubscribed, "{in_use:?}");
        // Pins are held for exactly what is queued or on a worker.
        let live = self.ready.iter().chain(self.holding.values());
        let pins: usize = live.map(|t| self.tasks[t].1.len()).sum();
        prop_assert_eq!(self.store.pinned_bytes(), PIN_BYTES * pins as u64);
        Ok(load)
    }

    fn finish(&mut self, worker: WorkerId) {
        let task = self.holding.remove(&worker).expect("holding");
        self.released.remove(&task);
        self.done[&worker].send(()).unwrap();
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
                    h.queue.blocked(task);
                    h.released.insert(task);
                }
                7 if !h.released.is_empty() => {
                    let task = *h.released.iter().nth(pick(h.released.len())).unwrap();
                    h.queue.unblocked(task);
                    h.released.remove(&task);
                    h.oversubscribed = true;
                }
                8 if h.done.len() > 1 => {
                    // A worker dies: what it holds is lost with it.
                    let worker = *h.done.keys().nth(pick(h.done.len())).unwrap();
                    let lost = h.queue.detach(worker);
                    let held: Vec<TaskId> = h.holding.remove(&worker).into_iter().collect();
                    prop_assert_eq!(&lost, &held);
                    for task in lost {
                        h.released.remove(&task);
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
        // Close: the threads exit, and what is queued stays queued.
        h.queue.close();
        h.push(&[shape(0), shape(1)]);
        h.done.clear();
        for thread in h.threads.drain(..) {
            thread.join().unwrap();
        }
        prop_assert!(h.taken.try_recv().is_err(), "a task was taken after close");
        prop_assert_eq!(h.queue.load().ready, h.ready.len());
        // Every pushed task left exactly once, or is still queued.
        prop_assert_eq!(h.took.len() + h.ready.len(), h.tasks.len());
        prop_assert!(h.took.is_disjoint(&h.ready));
    }
}

#[test]
fn a_cpu_task_overtakes_a_task_waiting_for_the_gpu() {
    let store = store();
    let (queue, _sched) = bare_queue(&store);
    let (w0, w1) = (WorkerId::new(NODE, 0), WorkerId::new(NODE, 1));
    queue.attach(w0);
    queue.attach(w1);
    let gpu = Resources::new(1.0, 1.0);
    queue.push(vec![
        spec(0, gpu.clone()).into(),
        spec(1, gpu).into(),
        spec(2, Resources::cpu(1.0)).into(),
    ]);
    // The first GPU task takes the only GPU; the second waits for it and
    // the CPU task behind it does not wait for the second.
    assert_eq!(queue.next(w0, None).unwrap().task_id, task(0));
    assert_eq!(queue.next(w1, None).unwrap().task_id, task(2));
    assert_eq!(queue.load().ready, 1);
    // The GPU comes back with the task that held it.
    assert_eq!(queue.next(w0, Some(task(0))).unwrap().task_id, task(1));
}

#[test]
fn a_killed_parked_worker_exits_without_taking_and_close_strands_the_queue() {
    let store = store();
    let (queue, sched) = bare_queue(&store);
    let (w0, w1) = (WorkerId::new(NODE, 0), WorkerId::new(NODE, 1));
    queue.attach(w0);
    queue.attach(w1);
    // w0 parks on the empty queue: the scheduler hears of it, once.
    let parked = {
        let queue = queue.clone();
        std::thread::spawn(move || queue.next(w0, None))
    };
    let nudge = sched.recv_timeout(Duration::from_secs(5));
    assert!(matches!(nudge, Ok(LocalMsg::WorkerIdle)));
    assert_eq!(queue.load().idle, 1);
    // Killed while parked: it wakes, takes nothing, and is told to exit.
    assert!(queue.detach(w0).is_empty());
    assert!(parked.join().unwrap().is_none());
    assert_eq!(queue.load().idle, 0);
    assert!(sched.try_recv().is_err());

    // w1 takes one of three tasks and the queue closes under it: the
    // finished task is accounted for, nothing more is handed out, and a
    // worker attached too late finds the door shut.
    let cpu = || Resources::cpu(2.0);
    queue.push(vec![
        spec(0, cpu()).into(),
        spec(1, cpu()).into(),
        spec(2, cpu()).into(),
    ]);
    assert_eq!(queue.next(w1, None).unwrap().task_id, task(0));
    queue.close();
    assert!(queue.next(w1, Some(task(0))).is_none());
    queue.attach(w0);
    assert!(queue.next(w0, None).is_none());
    let load = queue.load();
    assert_eq!((load.ready, load.running, load.available), (2, 0, total()));
}

// ---- with a scheduler pushing ---------------------------------------

struct Rig {
    _global: Endpoint,
    handle: LocalSchedulerHandle,
}

/// A node-0 scheduler over `workers` attached workers (no threads yet)
/// that keeps every task local.
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
        global: GlobalRoutes::single(global.address()),
        health: HealthTracker::new(kv.clone(), Duration::from_millis(100)),
        reconstruct: Arc::new(|_, _| {}),
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

/// Real takers: each reports what it takes and finishes it at once. The
/// workers were attached before `LocalScheduler::spawn` returned — a
/// taker that found itself unknown would exit instead of parking.
fn takers(rig: &Rig, workers: u32) -> Receiver<TaskId> {
    let (ran_tx, ran_rx) = unbounded();
    for index in 0..workers {
        let (queue, ran) = (rig.handle.queue().clone(), ran_tx.clone());
        std::thread::spawn(move || {
            let mut finished = None;
            while let Some(spec) = queue.next(WorkerId::new(NODE, index), finished) {
                finished = Some(spec.task_id);
                let _ = ran.send(spec.task_id);
            }
        });
    }
    ran_rx
}

#[test]
fn a_burst_costs_the_scheduler_a_message_per_worker_not_per_task() {
    const WORKERS: u32 = 2;
    const TASKS: u64 = 256;
    let mut r = rig(WORKERS);
    let ran = takers(&r, WORKERS);
    let stats = r.handle.stats().clone();
    // Both takers asleep on the empty queue.
    let deadline = Instant::now() + Duration::from_secs(5);
    while r.handle.queue().load().idle < WORKERS as usize {
        assert!(Instant::now() < deadline, "takers never parked");
        std::thread::yield_now();
    }
    let parks_before = stats.worker_parks.get();
    let specs = (0..TASKS).map(|i| spec(i, Resources::cpu(1.0))).collect();
    r.handle.submit_batch(specs);
    let mut seen = BTreeSet::new();
    for _ in 0..TASKS {
        let task = ran.recv_timeout(Duration::from_secs(10)).expect("ran");
        assert!(seen.insert(task), "{task} ran twice");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while r.handle.queue().load().idle < WORKERS as usize {
        assert!(Instant::now() < deadline, "takers never parked again");
        std::thread::yield_now();
    }
    // Every park is one `WorkerIdle` to the scheduler and nothing else
    // is: the burst cost it a message per worker that ran dry (with room
    // for a taker that ran dry once mid-burst), where it used to cost a
    // completion message and a worker sleep per task.
    let parks = stats.worker_parks.get() - parks_before;
    assert!(
        (1..=WORKERS as u64 + 2).contains(&parks),
        "{parks} worker messages for a {TASKS}-task burst"
    );
    r.handle.shutdown();
}
