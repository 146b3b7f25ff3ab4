//! The node's run queue: the dispatch state the scheduler thread and the
//! node's workers share, and the one place a task goes from queued to
//! running.
//!
//! The scheduler thread knows what became runnable — ingest, a sealed
//! dependency, the spill-send fallback — and
//! [`push`](RunQueue::push)es it (a submitter admitting a batch itself
//! [`reserve`](RunQueue::reserve)s its places first). A worker takes its
//! own next work:
//! [`next`](RunQueue::next) hands back the finished batch's resource
//! grant and first-fits the next task the freed resources admit in the
//! *same* critical section (first-fit over `ready` against
//! `total − in_use`, so a small task still overtakes one waiting for a
//! GPU; the workers of a node are interchangeable), and parks on the
//! condvar only when nothing fits. No task is bound to a worker before
//! that worker takes it, and a worker that runs dry parks without
//! telling anyone: the scheduler reads the idleness off the queue
//! ([`RunQueue::load`]) when its next load tick publishes, so a burst
//! costs the scheduler no message from its workers at all.
//!
//! # A worker takes a batch
//!
//! When more tasks are ready than the node has workers to spread them
//! over, a take is the worker's fair share of them: `⌈ready / workers⌉`
//! tasks, at most [`MAX_BATCH`], with the first task's resource demand
//! ([`Batch`]). The batch runs in order on that worker under **one
//! grant** — the first task's demand, charged once — which moves to each
//! task as it [`start`](RunQueue::start)s and releases the finished
//! task's pins. Tasks taken but not started are still the node's ready
//! backlog: they count in [`QueueLoad::ready`] and in the
//! [`ready_depth`](LocalSchedulerStats::ready_depth) gauge the spill and
//! push rules read, [`detach`](RunQueue::detach) hands them back with
//! the rest of a dead worker's tasks, and a task that blocks in
//! `get`/`wait` gives them back to the queue with its grant, so no task
//! waits behind a blocked one. Nor does one wait behind a long one while
//! a worker is idle: once a batch is
//! [`committed`](RunQueue::committed) `Running`, a worker that finds
//! nothing queued that fits takes the back half of the longest batch
//! whose tasks fit, as a batch of its own.
//!
//! # Lock discipline
//!
//! One mutex, one condvar. **Nothing else is called while the mutex is
//! held**: no kv call, event append, store call, fabric or channel send,
//! no condvar notify. A critical section decides; what it decided —
//! dependency pins to release, workers to wake, the pool to grow —
//! happens after the guard is dropped. Waiters check
//! for work under the mutex before they sleep and every change that can
//! make a task fit is followed by a wake while a worker is idle, so a
//! notify that finds nobody asleep loses nothing.
//!
//! # Invariants
//!
//! Checked by `tests/run_queue.rs` at every settled point of random
//! interleavings over real worker threads:
//!
//! 1. every pushed task leaves exactly once — started by a worker, or
//!    lost with a detached one — or is still queued when the queue
//!    closes;
//! 2. `in_use` is the sum of the batches' grants that are not released
//!    (their running task blocked in `get`/`wait`);
//! 3. `in_use` exceeds `total` only after an
//!    [`unblocked`](RunQueue::unblocked) (a resumed thread is not
//!    paused; the surplus drains as batches finish);
//! 4. when everything pushed has finished, no batch is left, `in_use`
//!    is zero and no dependency pin is held.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use rtml_common::collections::FastSet;
use rtml_common::ids::{ObjectId, TaskId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::task::TaskSpec;
use rtml_store::ObjectStore;

use crate::local::LocalSchedulerStats;
use crate::spill::SpillMode;

/// The most tasks one [`RunQueue::next`] hands a worker. On the ledger's
/// `burst_spill` (two nodes of two workers, 256 trivial tasks a round,
/// a 2-vCPU VM) a task cost 8.5 kv locks before workers took batches,
/// and with a cap of 4, 8, 16 and 32 it costs 3.6, 2.9, 2.1 and 1.7
/// (round p50 3.6, 3.6, 3.5 and 2.9 ms). 16 is the cap until a larger
/// one is measured on every workload: a batch runs in order on one
/// worker, so the cap is also how much work one worker can hold back.
pub const MAX_BATCH: usize = 16;

/// A runnable task as it sits in the queue.
#[derive(Debug)]
pub struct Runnable {
    /// The task.
    pub spec: TaskSpec,
    /// Dependencies pinned in the node's store on the task's behalf from
    /// the moment they arrived, so LRU eviction cannot drop a fetched
    /// argument before it is read. They travel with the task: unpinned
    /// when the task that read them is done.
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

/// What one [`RunQueue::next`] hands a worker.
#[derive(Debug)]
pub struct Batch {
    /// The task started now.
    pub first: TaskSpec,
    /// The tasks taken with it, in the order [`RunQueue::start`] hands
    /// them out — which it may not, if they went back to the queue or
    /// to an idle worker.
    pub behind: Vec<TaskId>,
}

impl Batch {
    /// Every task of the batch, the first first.
    pub fn tasks(&self) -> Vec<TaskId> {
        let mut tasks = Vec::with_capacity(1 + self.behind.len());
        tasks.push(self.first.task_id);
        tasks.extend_from_slice(&self.behind);
        tasks
    }
}

/// A worker's batch as the queue keeps it.
struct Taken {
    /// The demand of every task in the batch, charged to `in_use` once
    /// unless `released`.
    grant: Resources,
    /// The running task blocked in `get`/`wait` and handed the grant
    /// back.
    released: bool,
    /// The task running now, and its pins.
    running: TaskId,
    pins: Vec<ObjectId>,
    /// Started before `running`, results not reported published.
    ran: Vec<TaskId>,
    /// Taken, not started: still ready backlog.
    held: VecDeque<Runnable>,
    /// Its worker committed the batch `Running`: another worker may now
    /// take what it holds (its own `Running` commit lands after).
    committed: bool,
}

/// One consistent reading of the queue.
#[derive(Debug)]
pub struct QueueLoad {
    /// Tasks runnable now but not started: queued, or held in a batch.
    pub ready: usize,
    /// Tasks on workers (blocked ones included): one a batch.
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
    /// Ordered by worker ID so what is handed back is reproducible
    /// across runs.
    taken: BTreeMap<WorkerId, Taken>,
    /// Tasks held in batches, summed.
    held: usize,
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
    /// The backlog a spill decision reads: ready, held and reserved
    /// tasks.
    fn depth(&self) -> usize {
        self.ready.len() + self.held + self.reserved
    }

    fn available(&self, total: &Resources) -> Resources {
        total.saturating_sub(&self.in_use)
    }

    /// Whether a wake-up would find something to take.
    fn wakes_someone(&self, total: &Resources) -> bool {
        if self.idle == 0 || self.closed || self.ready.len() + self.held == 0 {
            return false;
        }
        let available = self.available(total);
        self.ready.iter().any(|r| available.fits(&r.spec.resources))
            || self.victim(&available).is_some()
    }

    /// The batch an idle worker may take tasks from: the one holding
    /// the most committed tasks that `available` admits (the
    /// lowest-numbered worker's of equals).
    fn victim(&self, available: &Resources) -> Option<WorkerId> {
        self.taken
            .iter()
            .filter(|(_, t)| t.committed && !t.held.is_empty() && available.fits(&t.grant))
            .max_by_key(|(worker, t)| (t.held.len(), Reverse(**worker)))
            .map(|(worker, _)| *worker)
    }

    /// Nested-task deadlock avoidance: runnable work, no worker free to
    /// take it, and at least one worker blocked in `get`/`wait` — the
    /// pool must grow. True once per attached worker.
    fn must_grow(&mut self) -> bool {
        let grow = !self.growing
            && !self.closed
            && self.idle == 0
            && !self.ready.is_empty()
            && self.taken.values().any(|t| t.released);
        self.growing |= grow;
        grow
    }

    /// Takes the first task the free resources admit, and as many more
    /// of the same demand as make `worker`'s fair share — or, with
    /// nothing queued that fits, the back half of another batch's held
    /// tasks.
    fn take(&mut self, worker: WorkerId, total: &Resources) -> Option<Batch> {
        let available = self.available(total);
        let Some(pos) = self
            .ready
            .iter()
            .position(|r| available.fits(&r.spec.resources))
        else {
            let victim = self.victim(&available)?;
            let from = &mut self.taken.get_mut(&victim).expect("a batch").held;
            let mut held = from.split_off(from.len() / 2);
            let first = held.pop_front().expect("a victim holds a task");
            self.held -= 1;
            return Some(self.hand_out(worker, first, held));
        };
        let first = self.ready.remove(pos).expect("position valid");
        let share = (self.ready.len() + 1)
            .div_ceil(self.workers.len().max(1))
            .min(MAX_BATCH);
        let mut held = VecDeque::new();
        let mut at = pos;
        while held.len() + 1 < share && at < self.ready.len() {
            if self.ready[at].spec.resources == first.spec.resources {
                held.push_back(self.ready.remove(at).expect("index valid"));
            } else {
                at += 1;
            }
        }
        self.held += held.len();
        Some(self.hand_out(worker, first, held))
    }

    /// Books `first` started on `worker` under one grant, `held` behind
    /// it.
    fn hand_out(&mut self, worker: WorkerId, first: Runnable, held: VecDeque<Runnable>) -> Batch {
        let Runnable { spec, pins } = first;
        let behind = held.iter().map(|r| r.spec.task_id).collect();
        self.in_use = self.in_use.add(&spec.resources);
        let taken = Taken {
            grant: spec.resources.clone(),
            released: false,
            running: spec.task_id,
            pins,
            ran: Vec::new(),
            held,
            committed: false,
        };
        self.taken.insert(worker, taken);
        Batch {
            first: spec,
            behind,
        }
    }

    /// Ends `worker`'s batch: its grant goes back and any task it did
    /// not start returns to the front of the queue. Returns the pins
    /// of the task it ran last.
    fn retire(&mut self, worker: WorkerId) -> Vec<ObjectId> {
        let Some(mut taken) = self.end(worker) else {
            return Vec::new();
        };
        self.hand_back(&mut taken.held);
        taken.pins
    }

    /// Takes `worker`'s batch off the books, and its grant back.
    fn end(&mut self, worker: WorkerId) -> Option<Taken> {
        let taken = self.taken.remove(&worker)?;
        if !taken.released {
            self.in_use = self.in_use.saturating_sub(&taken.grant);
        }
        Some(taken)
    }

    /// Puts held tasks back at the front of the queue, in order.
    fn hand_back(&mut self, held: &mut VecDeque<Runnable>) {
        self.held -= held.len();
        while let Some(runnable) = held.pop_back() {
            self.ready.push_front(runnable);
        }
    }

    fn batch_of(&mut self, task: TaskId) -> Option<&mut Taken> {
        self.taken.values_mut().find(|t| t.running == task)
    }
}

/// The shared dispatch state of one node (see the module docs).
pub struct RunQueue {
    state: Mutex<State>,
    wake: Condvar,
    total: Resources,
    store: Arc<ObjectStore>,
    stats: Arc<LocalSchedulerStats>,
    grow: Arc<dyn Fn() + Send + Sync>,
}

impl RunQueue {
    /// An empty queue for a node of capacity `total`. Pins are released
    /// through `store`; `grow` asks the node for one more worker.
    pub fn new(
        total: Resources,
        store: Arc<ObjectStore>,
        stats: Arc<LocalSchedulerStats>,
        grow: Arc<dyn Fn() + Send + Sync>,
    ) -> RunQueue {
        RunQueue {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            total,
            store,
            stats,
            grow,
        }
    }

    /// The counters this queue writes: the exact
    /// [`ready_depth`](LocalSchedulerStats::ready_depth) gauge (ready,
    /// held and reserved tasks) and
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

    /// Removes `worker` from the pool (it died). Whatever its batch
    /// holds — the running task, tasks whose results it had not
    /// reported published, tasks not started — is lost with it: returned
    /// in task-ID order, the grant and every pin released. The worker,
    /// if parked, wakes and exits without taking a task.
    pub fn detach(&self, worker: WorkerId) -> Vec<TaskId> {
        let mut st = self.state.lock();
        st.workers.remove(&worker);
        let (mut unpin, mut lost) = (Vec::new(), Vec::new());
        if let Some(mut taken) = st.end(worker) {
            st.held -= taken.held.len();
            for Runnable { spec, pins } in taken.held.drain(..) {
                lost.push(spec.task_id);
                unpin.extend(pins);
            }
            lost.push(taken.running);
            lost.extend(taken.ran);
            unpin.extend(taken.pins);
        }
        lost.sort();
        self.stats.ready_depth.store(st.depth() as u64, Relaxed);
        drop(st);
        // Everyone: the dead worker must notice, and the grant it held
        // may fit what the others are waiting with.
        self.wake.notify_all();
        self.unpin(&unpin);
        lost
    }

    /// Closes the queue (scheduler shutdown, node kill): every worker
    /// wakes and exits, and nothing is taken or started any more. Tasks
    /// still queued stay `Queued(node)` in the task table for the kill
    /// repair.
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
    /// rule against the backlog (ready, held and reserved tasks,
    /// advancing per task) — decided under the lock, so concurrent
    /// submitters cannot admit past it — and the queue is open.
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

    /// A worker's conversation with the queue between batches: the batch
    /// it last took is over — its results published, its grant and pins
    /// given back — and the next [`Batch`] the node's free resources
    /// admit is taken for `worker`, its first task started — one
    /// critical section, so nobody sees the freed grant before this
    /// worker has had first pick. With nothing to take the worker goes
    /// idle and sleeps until there is, telling nobody.
    /// `None` means exit: the queue closed or the worker was detached.
    pub fn next(&self, worker: WorkerId) -> Option<Batch> {
        let mut st = self.state.lock();
        let mut unpin = st.retire(worker);
        let mut idle = false;
        let taken = loop {
            if st.closed || !st.workers.contains(&worker) {
                break None;
            }
            if let Some(batch) = st.take(worker, &self.total) {
                break Some(batch);
            }
            if !idle {
                // Running dry: counted idle from here on, so a push
                // wakes it and the pool does not grow past it. The
                // finished batch's pins go back with the lock dropped,
                // and the queue is looked at once more before sleeping.
                idle = true;
                st.idle += 1;
                self.stats.worker_parks.inc();
                if !unpin.is_empty() {
                    drop(st);
                    self.unpin(&std::mem::take(&mut unpin));
                    st = self.state.lock();
                    continue;
                }
            }
            self.wake.wait(&mut st);
        };
        if idle {
            st.idle -= 1;
        }
        // The freed grant may admit more than the one batch taken.
        let pass_on = st.wakes_someone(&self.total);
        let grow = st.must_grow();
        self.stats.ready_depth.store(st.depth() as u64, Relaxed);
        drop(st);
        self.follow_up(pass_on as usize, grow);
        self.unpin(&unpin);
        taken
    }

    /// `worker` committed its batch `Running`: an idle worker may take
    /// from what it holds from now on, and one is woken if it fits.
    pub fn committed(&self, worker: WorkerId) {
        let mut st = self.state.lock();
        let Some(taken) = st.taken.get_mut(&worker) else {
            return;
        };
        taken.committed = true;
        let wake = st.wakes_someone(&self.total);
        drop(st);
        self.follow_up(wake as usize, false);
    }

    /// Starts the next task of `worker`'s batch: the grant moves to it
    /// from the task that just ran, whose pins are released. `published`
    /// names the batch's tasks whose results are out since the last call
    /// — a dead worker no longer loses them. `None` ends the batch:
    /// nothing is held any more (all started, handed back while a task
    /// blocked, or taken by an idle worker), or the queue closed, or the
    /// worker was detached.
    pub fn start(&self, worker: WorkerId, published: &[TaskId]) -> Option<TaskSpec> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let closed = st.closed;
        let taken = st.taken.get_mut(&worker)?;
        let next = if closed { None } else { taken.held.pop_front() };
        let (spec, done) = match next {
            Some(Runnable { spec, pins }) => {
                let ran = std::mem::replace(&mut taken.running, spec.task_id);
                taken.ran.push(ran);
                (Some(spec), std::mem::replace(&mut taken.pins, pins))
            }
            None => (None, Vec::new()),
        };
        taken.ran.retain(|task| !published.contains(task));
        if spec.is_some() {
            st.held -= 1;
            self.stats.ready_depth.store(st.depth() as u64, Relaxed);
        }
        drop(guard);
        self.unpin(&done);
        spec
    }

    /// `task` blocks inside `get`/`wait`: its batch's grant goes back so
    /// other work can use the node — an idle worker if it now fits
    /// something, one more worker if none is idle — and so do the tasks
    /// held behind it, which must not wait for what it waits for.
    /// `published` names the batch's tasks whose results its worker put
    /// out before blocking, as for [`start`](Self::start).
    pub fn blocked(&self, task: TaskId, published: &[TaskId]) {
        let mut st = self.state.lock();
        let Some(taken) = st.batch_of(task).filter(|t| !t.released) else {
            return;
        };
        taken.ran.retain(|task| !published.contains(task));
        taken.released = true;
        let grant = taken.grant.clone();
        let mut held = std::mem::take(&mut taken.held);
        st.hand_back(&mut held);
        st.in_use = st.in_use.saturating_sub(&grant);
        let wake = st.wakes_someone(&self.total);
        let grow = st.must_grow();
        drop(st);
        self.follow_up(wake as usize, grow);
    }

    /// A blocked task resumed: its batch takes its grant back (transient
    /// oversubscription is accepted rather than pausing a live thread).
    pub fn unblocked(&self, task: TaskId) {
        let mut st = self.state.lock();
        let Some(taken) = st.batch_of(task).filter(|t| t.released) else {
            return;
        };
        taken.released = false;
        let grant = taken.grant.clone();
        st.in_use = st.in_use.add(&grant);
    }

    /// The queue's load, read under one acquisition.
    pub fn load(&self) -> QueueLoad {
        let st = self.state.lock();
        QueueLoad {
            ready: st.ready.len() + st.held,
            running: st.taken.len(),
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
