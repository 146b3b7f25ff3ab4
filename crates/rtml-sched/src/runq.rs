//! The node's run queue: the dispatch state the scheduler thread and the
//! node's workers share, and the one place a task goes from queued to
//! running.
//!
//! The scheduler thread knows what became runnable — ingest, a sealed
//! dependency, the spill-send fallback — and
//! [`push`](RunQueue::push)es it (a submitter admitting a batch itself
//! [`reserve`](RunQueue::reserve)s its places first). A worker takes its
//! own next task:
//! [`next`](RunQueue::next) hands back the finished task's resource grant
//! and first-fits the next task the freed resources admit in the *same*
//! critical section (first-fit over `ready` against `total − in_use`, so
//! a small task still overtakes one waiting for a GPU; the workers of a
//! node are interchangeable), and parks on the condvar only when nothing
//! fits. No task is bound to a worker before that worker takes it, and
//! a burst costs the scheduler one message per worker that runs dry
//! ([`LocalMsg::WorkerIdle`]) instead of one per task.
//!
//! # Lock discipline
//!
//! One mutex, one condvar. **Nothing else is called while the mutex is
//! held**: no kv call, event append, store call, fabric or channel send,
//! no condvar notify. A critical section decides; what it decided —
//! dependency pins to release, workers to wake, the scheduler to nudge,
//! the pool to grow — happens after the guard is dropped. Waiters check
//! for work under the mutex before they sleep and every change that can
//! make a task fit is followed by a wake while a worker is idle, so a
//! notify that finds nobody asleep loses nothing.
//!
//! # Invariants
//!
//! Checked by `tests/run_queue.rs` at every settled point of random
//! interleavings over real worker threads:
//!
//! 1. every pushed task leaves exactly once — taken by a worker — or is
//!    still queued when the queue closes;
//! 2. `in_use` is the sum of the running tasks' grants that are not
//!    released (blocked in `get`/`wait`);
//! 3. `in_use` exceeds `total` only after an
//!    [`unblocked`](RunQueue::unblocked) (a resumed thread is not
//!    paused; the surplus drains as tasks finish);
//! 4. when everything pushed has finished, `running` is empty, `in_use`
//!    is zero and no dependency pin is held.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::{Condvar, Mutex};

use rtml_common::collections::FastSet;
use rtml_common::ids::{ObjectId, TaskId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::task::TaskSpec;
use rtml_store::ObjectStore;

use crate::local::LocalSchedulerStats;
use crate::msg::LocalMsg;
use crate::spill::SpillMode;

/// A runnable task as it sits in the queue.
#[derive(Debug)]
pub struct Runnable {
    /// The task.
    pub spec: TaskSpec,
    /// Dependencies pinned in the node's store on the task's behalf from
    /// the moment they arrived, so LRU eviction cannot drop a fetched
    /// argument before it is read. They travel with the task: unpinned by
    /// the worker that finishes it.
    pub pins: Vec<ObjectId>,
}

impl From<TaskSpec> for Runnable {
    fn from(spec: TaskSpec) -> Runnable {
        Runnable {
            spec,
            pins: Vec::new(),
        }
    }
}

/// A task on a worker.
struct Running {
    worker: WorkerId,
    grant: Resources,
    pins: Vec<ObjectId>,
}

/// One consistent reading of the queue.
#[derive(Debug)]
pub struct QueueLoad {
    /// Tasks runnable now but not yet taken.
    pub ready: usize,
    /// Tasks on workers (blocked ones included).
    pub running: usize,
    /// Attached workers with nothing to run.
    pub idle: usize,
    /// `total − in_use`, floored at zero.
    pub available: Resources,
}

#[derive(Default)]
struct State {
    ready: VecDeque<Runnable>,
    /// Places [`RunQueue::reserve`] held for tasks not pushed yet.
    reserved: usize,
    /// Ordered by task ID so collecting the tasks lost with a dead worker
    /// is reproducible across runs (`HashMap` order is seeded per
    /// process and would reorder failure handling and the event log).
    running: BTreeMap<TaskId, Running>,
    /// Running tasks whose grant is handed back while they block.
    released: FastSet<TaskId>,
    in_use: Resources,
    workers: FastSet<WorkerId>,
    /// Attached workers inside [`RunQueue::next`] that found nothing to
    /// take.
    idle: usize,
    /// A pool-growth request is outstanding.
    growing: bool,
    closed: bool,
}

impl State {
    /// The backlog a spill decision reads: ready and reserved tasks.
    fn depth(&self) -> usize {
        self.ready.len() + self.reserved
    }

    fn available(&self, total: &Resources) -> Resources {
        total.saturating_sub(&self.in_use)
    }

    /// Whether a wake-up would find something to take.
    fn wakes_someone(&self, total: &Resources) -> bool {
        if self.idle == 0 || self.closed || self.ready.is_empty() {
            return false;
        }
        let available = self.available(total);
        self.ready.iter().any(|r| available.fits(&r.spec.resources))
    }

    /// Nested-task deadlock avoidance: runnable work, no worker free to
    /// take it, and at least one worker blocked in `get`/`wait` — the
    /// pool must grow. True once per attached worker.
    fn must_grow(&mut self) -> bool {
        let grow = !self.growing
            && !self.closed
            && self.idle == 0
            && !self.ready.is_empty()
            && !self.released.is_empty();
        self.growing |= grow;
        grow
    }

    /// Takes a finished or lost task off its worker; returns its pins.
    fn retire(&mut self, task: TaskId) -> Vec<ObjectId> {
        let Some(run) = self.running.remove(&task) else {
            return Vec::new();
        };
        if !self.released.remove(&task) {
            self.in_use = self.in_use.saturating_sub(&run.grant);
        }
        run.pins
    }
}

/// The shared dispatch state of one node (see the module docs).
pub struct RunQueue {
    state: Mutex<State>,
    wake: Condvar,
    total: Resources,
    store: Arc<ObjectStore>,
    stats: Arc<LocalSchedulerStats>,
    sched: Sender<LocalMsg>,
    grow: Arc<dyn Fn() + Send + Sync>,
}

impl RunQueue {
    /// An empty queue for a node of capacity `total`. Pins are released
    /// through `store`; `sched` hears of workers running dry; `grow` asks
    /// the node for one more worker.
    pub fn new(
        total: Resources,
        store: Arc<ObjectStore>,
        stats: Arc<LocalSchedulerStats>,
        sched: Sender<LocalMsg>,
        grow: Arc<dyn Fn() + Send + Sync>,
    ) -> RunQueue {
        RunQueue {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            total,
            store,
            stats,
            sched,
            grow,
        }
    }

    /// The counters this queue writes: the exact
    /// [`ready_depth`](LocalSchedulerStats::ready_depth) gauge (ready and
    /// reserved tasks) and
    /// [`worker_parks`](LocalSchedulerStats::worker_parks).
    pub fn stats(&self) -> &Arc<LocalSchedulerStats> {
        &self.stats
    }

    /// Adds `worker` to the pool. Attach a worker **before** its thread
    /// starts: a thread that finds itself not attached exits.
    pub fn attach(&self, worker: WorkerId) {
        let mut st = self.state.lock();
        st.workers.insert(worker);
        st.growing = false;
    }

    /// Removes `worker` from the pool (it died). Whatever it had taken —
    /// started or not — is lost with it: the tasks are returned, their
    /// grants and pins released. The worker, if parked, wakes and exits
    /// without taking a task.
    pub fn detach(&self, worker: WorkerId) -> Vec<TaskId> {
        let mut st = self.state.lock();
        st.workers.remove(&worker);
        let lost: Vec<TaskId> = st
            .running
            .iter()
            .filter(|(_, run)| run.worker == worker)
            .map(|(task, _)| *task)
            .collect();
        let unpin: Vec<ObjectId> = lost.iter().flat_map(|task| st.retire(*task)).collect();
        drop(st);
        // Everyone: the dead worker must notice, and the grants it held
        // may fit what the others are waiting with.
        self.wake.notify_all();
        self.unpin(&unpin);
        lost
    }

    /// Closes the queue (scheduler shutdown, node kill): every worker
    /// wakes and exits, and nothing is taken any more. Tasks still queued
    /// stay `Queued(node)` in the task table for the kill repair.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }

    /// Queues runnable tasks, in order, and wakes as many idle workers
    /// as tasks arrived (on a closed queue they stay queued).
    pub fn push(&self, tasks: Vec<Runnable>) {
        let _ = self.enqueue(tasks, false);
    }

    /// Holds places for `specs`, all or none, if each keeps `spill`'s
    /// rule against the backlog (ready and reserved tasks, advancing per
    /// task) — decided under the lock, so concurrent submitters cannot
    /// admit past it — and the queue is open.
    pub fn reserve(&self, specs: &[TaskSpec], spill: &SpillMode) -> bool {
        let mut st = self.state.lock();
        let depth = st.depth();
        let keeps = |(ahead, spec): (usize, &TaskSpec)| {
            !spill.should_spill(spec, depth + ahead, &self.total)
        };
        let reserved = !st.closed && specs.iter().enumerate().all(keeps);
        if reserved {
            st.reserved += specs.len();
            self.stats.ready_depth.store(st.depth() as u64, Relaxed);
        }
        reserved
    }

    /// Pushes the tasks a [`reserve`](Self::reserve) held places for, or
    /// hands them back if the queue closed in between.
    pub fn push_reserved(&self, tasks: Vec<Runnable>) -> Result<(), Vec<Runnable>> {
        self.enqueue(tasks, true)
    }

    fn enqueue(&self, tasks: Vec<Runnable>, reserved: bool) -> Result<(), Vec<Runnable>> {
        if tasks.is_empty() {
            return Ok(());
        }
        let pushed = tasks.len();
        let mut st = self.state.lock();
        if reserved {
            st.reserved -= pushed;
            if st.closed {
                self.stats.ready_depth.store(st.depth() as u64, Relaxed);
                return Err(tasks);
            }
        }
        st.ready.extend(tasks);
        let wakes = if st.closed { 0 } else { pushed.min(st.idle) };
        let grow = st.must_grow();
        self.stats.ready_depth.store(st.depth() as u64, Relaxed);
        drop(st);
        self.follow_up(wakes, grow);
        Ok(())
    }

    /// A worker's whole conversation with the queue: `finished`, the
    /// task it just ran, gives its grant and pins back, and the first
    /// queued task the node's free resources admit is taken for `worker`
    /// — one critical section, so nobody sees the freed grant before this
    /// worker has had first pick. With nothing to take the worker goes
    /// idle (one nudge to the scheduler) and sleeps until there is.
    /// `None` means exit: the queue closed or the worker was detached.
    pub fn next(&self, worker: WorkerId, finished: Option<TaskId>) -> Option<TaskSpec> {
        let mut st = self.state.lock();
        let mut unpin = finished.map_or_else(Vec::new, |task| st.retire(task));
        let mut idle = false;
        let taken = loop {
            if st.closed || !st.workers.contains(&worker) {
                break None;
            }
            let available = st.available(&self.total);
            if let Some(pos) = st
                .ready
                .iter()
                .position(|r| available.fits(&r.spec.resources))
            {
                let Runnable { spec, pins } = st.ready.remove(pos).expect("position valid");
                let grant = spec.resources.clone();
                st.in_use = st.in_use.add(&grant);
                let run = Running {
                    worker,
                    grant,
                    pins,
                };
                st.running.insert(spec.task_id, run);
                break Some(spec);
            }
            if idle {
                self.wake.wait(&mut st);
                continue;
            }
            // Running dry. Counted idle from here on, so the scheduler
            // turn the nudge causes already sees it; the queue is looked
            // at once more before sleeping.
            idle = true;
            st.idle += 1;
            self.stats.worker_parks.inc();
            drop(st);
            self.unpin(&std::mem::take(&mut unpin));
            let _ = self.sched.send(LocalMsg::WorkerIdle);
            st = self.state.lock();
        };
        if idle {
            st.idle -= 1;
        }
        // The freed grant may admit more than the one task taken.
        let pass_on = st.wakes_someone(&self.total);
        let grow = st.must_grow();
        self.stats.ready_depth.store(st.depth() as u64, Relaxed);
        drop(st);
        self.follow_up(pass_on as usize, grow);
        self.unpin(&unpin);
        taken
    }

    /// `task` blocks inside `get`/`wait`: its grant goes back so other
    /// work can use the node — an idle worker if it now fits something,
    /// one more worker if none is idle.
    pub fn blocked(&self, task: TaskId) {
        let mut st = self.state.lock();
        let Some(run) = st.running.get(&task) else {
            return;
        };
        let grant = run.grant.clone();
        if !st.released.insert(task) {
            return;
        }
        st.in_use = st.in_use.saturating_sub(&grant);
        let wake = st.wakes_someone(&self.total);
        let grow = st.must_grow();
        drop(st);
        self.follow_up(wake as usize, grow);
    }

    /// A blocked task resumed: it takes its grant back (transient
    /// oversubscription is accepted rather than pausing a live thread).
    pub fn unblocked(&self, task: TaskId) {
        let mut st = self.state.lock();
        if st.released.remove(&task) {
            if let Some(run) = st.running.get(&task) {
                st.in_use = st.in_use.add(&run.grant);
            }
        }
    }

    /// The queue's load, read under one acquisition.
    pub fn load(&self) -> QueueLoad {
        let st = self.state.lock();
        QueueLoad {
            ready: st.ready.len(),
            running: st.running.len(),
            idle: st.idle,
            available: st.available(&self.total),
        }
    }

    /// What a critical section decided, done once its guard is gone.
    fn follow_up(&self, wakes: usize, grow: bool) {
        for _ in 0..wakes {
            self.wake.notify_one();
        }
        if grow {
            (self.grow)();
        }
    }

    fn unpin(&self, pins: &[ObjectId]) {
        for pin in pins {
            self.store.unpin(*pin);
        }
    }
}
