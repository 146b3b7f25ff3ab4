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
//! # Run times
//!
//! A worker reports how long each task ran ([`RunTime`]) with the call
//! it makes next — [`start`](RunQueue::start) for the batch's next task,
//! [`next`](RunQueue::next) after a lone one — so the queue learns it
//! under the lock it takes anyway. It keeps a moving average per
//! function and, beside the backlog's depth, the sum of its tasks'
//! averages and the count of its tasks whose function has none yet: the
//! spill rule's work ahead ([`crate::spill`]), published with
//! `ready_depth` as the `ready_work_ns` and `ready_unmeasured` gauges.
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
//!    is zero and no dependency pin is held;
//! 5. the tasks it [`holds`](RunQueue::split_held) are those pushed or
//!    reserved, less those reported published and those lost.
//!
//! # What it holds
//!
//! A blocked `get` on this node asks the queue which of the producers
//! it waits for it holds: queued, in a worker's batch, or run but not
//! reported published ([`RunQueue::split_held`]). A task leaves that
//! set only once its results are sealed in the node's store — the
//! worker reports it published ([`start`](RunQueue::start),
//! [`blocked`](RunQueue::blocked), [`next`](RunQueue::next)) after its
//! puts — or when it is lost: its worker detached, the queue closed
//! (a reservation not pushed yet with it), or its results refused by
//! the store ([`unsealed`](RunQueue::unsealed)). Every loss counts in
//! [`losses`](RunQueue::losses) and wakes the store's local-seal
//! subscribers ([`ObjectStore::wake_all`]), so such a `get` waits on
//! the store alone and still learns at once that a result will not
//! seal there. The set is kept under the lock each of those calls takes
//! anyway.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use rtml_common::collections::{FastSet, IdMap, IdSet};
use rtml_common::ids::{FunctionId, ObjectId, TaskId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::task::TaskSpec;
use rtml_store::ObjectStore;

use crate::local::LocalSchedulerStats;
use crate::spill::{Backlog, SpillMode, Verdict};

/// The most tasks one [`RunQueue::next`] hands a worker. On the ledger's
/// `burst_spill` (two nodes of two workers, 256 trivial tasks a round,
/// a 2-vCPU VM) a task cost 8.5 kv locks before workers took batches,
/// and with a cap of 4, 8, 16 and 32 it costs 3.6, 2.9, 2.1 and 1.7
/// (round p50 3.6, 3.6, 3.5 and 2.9 ms). 16 is the cap until a larger
/// one is measured on every workload: a batch runs in order on one
/// worker, so the cap is also how much work one worker can hold back.
pub const MAX_BATCH: usize = 16;

/// A new run time weighs 1/4 in its function's mean, and counts at most
/// [`SAMPLE_CAP`] times the mean: no one task moves the mean by more
/// than ×0.75 to ×1.75, so a task its worker lost the CPU in does not
/// make its function look long, and a function whose tasks really got
/// slower is followed within a few tasks. (A 2-vCPU host timed an
/// `x + 1` task of a debug build at 0.3–0.9 ms now and then, against a
/// few µs; uncapped, one such sample priced the next 256-task burst at
/// ten times a round trip.)
const MEAN_WEIGHT: u64 = 4;

/// How many times the mean one run time counts at most.
const SAMPLE_CAP: u64 = 4;

/// How long a task of `function` ran, as its worker timed it: reported
/// with the queue call the worker makes next ([`RunQueue::start`],
/// [`RunQueue::next`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunTime {
    /// The task's function.
    pub function: FunctionId,
    /// From taking its arguments to its return.
    pub took: Duration,
}

/// What the queue knows of one function's run time and backlog.
#[derive(Default)]
struct Cost {
    /// Mean run time of its tasks here, in nanoseconds (an exponentially
    /// weighted average); `None` until one has run.
    mean_ns: Option<u64>,
    /// Its tasks in the backlog: ready, held and reserved.
    queued: usize,
}

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
    /// Per function: its mean run time and its tasks in the backlog.
    costs: IdMap<FunctionId, Cost>,
    /// The backlog's measured means, summed: `Σ queued × mean_ns`.
    work_ns: u64,
    /// The backlog's tasks whose function has no mean yet.
    unmeasured: usize,
    /// The tasks the queue holds (see the module docs).
    holding: IdSet<TaskId>,
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

    /// The backlog as the spill rule reads it.
    fn backlog(&self) -> Backlog {
        Backlog {
            tasks: self.depth(),
            work_ns: self.work_ns,
            unmeasured: self.unmeasured,
        }
    }

    fn mean_ns(&self, function: FunctionId) -> Option<u64> {
        self.costs.get(&function).and_then(|cost| cost.mean_ns)
    }

    /// A task of `function` joins the backlog.
    fn enter(&mut self, function: FunctionId) {
        let cost = self.costs.entry(function).or_default();
        cost.queued += 1;
        match cost.mean_ns {
            Some(ns) => self.work_ns += ns,
            None => self.unmeasured += 1,
        }
    }

    /// A task of `function` leaves the backlog: started, lost with its
    /// worker, or handed back unpushed.
    fn leave(&mut self, function: FunctionId) {
        let cost = self.costs.get_mut(&function).expect("entered");
        cost.queued -= 1;
        match cost.mean_ns {
            Some(ns) => self.work_ns -= ns,
            None => self.unmeasured -= 1,
        }
    }

    /// Folds a task's run time into its function's mean, and the
    /// function's queued tasks into the backlog's work at the new mean.
    fn measure(&mut self, ran: RunTime) {
        let cost = self.costs.entry(ran.function).or_default();
        let sample = u64::try_from(ran.took.as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        let mean = match cost.mean_ns {
            None => sample,
            Some(old) => {
                let sample = sample.min(old.saturating_mul(SAMPLE_CAP));
                (old - old / MEAN_WEIGHT + sample / MEAN_WEIGHT).max(1)
            }
        };
        let queued = cost.queued as u64;
        match cost.mean_ns.replace(mean) {
            None => self.unmeasured -= cost.queued,
            Some(old) => self.work_ns -= queued * old,
        }
        self.work_ns += queued * mean;
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
            self.leave(first.spec.function);
            return Some(self.hand_out(worker, first, held));
        };
        let first = self.ready.remove(pos).expect("position valid");
        self.leave(first.spec.function);
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

    /// Ends `worker`'s batch, every task it ran published: its grant
    /// goes back and any task it did not start returns to the front of
    /// the queue. Returns the pins of the task it ran last.
    fn retire(&mut self, worker: WorkerId) -> Vec<ObjectId> {
        let Some(mut taken) = self.end(worker) else {
            return Vec::new();
        };
        self.holding.remove(&taken.running);
        for task in &taken.ran {
            self.holding.remove(task);
        }
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
    /// Times tasks left `holding` unpublished, counted under the lock.
    losses: AtomicU64,
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
            losses: AtomicU64::new(0),
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
                st.leave(spec.function);
                lost.push(spec.task_id);
                unpin.extend(pins);
            }
            lost.push(taken.running);
            lost.extend(taken.ran);
            unpin.extend(taken.pins);
        }
        lost.sort();
        let lost_here = self.lose(&mut st, &lost);
        self.publish(&st);
        drop(st);
        // Everyone: the dead worker must notice, and the grant it held
        // may fit what the others are waiting with.
        self.wake.notify_all();
        self.announce(lost_here);
        self.unpin(&unpin);
        lost
    }

    /// Closes the queue (scheduler shutdown, node kill): every worker
    /// wakes and exits, and nothing is taken or started any more. Tasks
    /// still queued stay `Queued(node)` in the task table for the kill
    /// repair.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        let lost = !st.holding.is_empty();
        if lost {
            st.holding.clear();
            self.losses.fetch_add(1, SeqCst);
        }
        drop(st);
        self.wake.notify_all();
        self.announce(lost);
    }

    /// How many times tasks left the queue unpublished (see the module
    /// docs). Read it before registering for the seals of results the
    /// queue holds: a loss after that wakes the registration, and a
    /// loss before it shows in [`split_held`](Self::split_held).
    pub fn losses(&self) -> u64 {
        self.losses.load(SeqCst)
    }

    /// Splits `objects` into those whose producer the queue holds — each
    /// will seal in the node's store, or its loss will be announced —
    /// and the rest, in order. One acquisition.
    pub fn split_held(&self, objects: Vec<ObjectId>) -> (Vec<ObjectId>, Vec<ObjectId>) {
        let st = self.state.lock();
        let held = |object: &ObjectId| {
            let producer = object.producer_task();
            producer.is_some_and(|task| st.holding.contains(&task))
        };
        objects.into_iter().partition(held)
    }

    /// The store refused a result of a batch that published `tasks`:
    /// they leave the queue's holding as losses, and a caller waiting
    /// for their results looks for them elsewhere — finding at once
    /// those that did seal here.
    pub fn unsealed(&self, tasks: &[TaskId]) {
        let mut st = self.state.lock();
        let lost = self.lose(&mut st, tasks);
        drop(st);
        self.announce(lost);
    }

    /// Takes `tasks` out of the holding; whether any was in it, which is
    /// counted as a loss.
    fn lose(&self, st: &mut State, tasks: &[TaskId]) -> bool {
        let mut lost = false;
        for task in tasks {
            lost |= st.holding.remove(task);
        }
        if lost {
            self.losses.fetch_add(1, SeqCst);
        }
        lost
    }

    /// Wakes whoever waits for a seal in the node's store, once a loss
    /// was counted and the lock dropped.
    fn announce(&self, lost: bool) {
        if lost {
            self.store.wake_all();
        }
    }

    /// Queues runnable tasks, in order, and wakes as many idle workers
    /// as tasks arrived (on a closed queue they stay queued).
    pub fn push(&self, tasks: Vec<Runnable>) {
        let _ = self.enqueue(tasks, false);
    }

    /// Holds places for `specs`, all or none, if each keeps `spill`'s
    /// rule against the backlog (ready, held and reserved tasks and
    /// their measured work, advancing per task) and the node's measured
    /// round trip — decided under the lock, so concurrent submitters
    /// cannot admit past it — and the queue is open. `alone`: no other
    /// node is alive (see [`SpillMode::decide`]).
    pub fn reserve(&self, specs: &[TaskSpec], spill: &SpillMode, alone: bool) -> bool {
        let round_trip = self.stats.delay.round_trip();
        let mut st = self.state.lock();
        let mut ahead = st.backlog();
        let mut kept_short = 0;
        let mut keeps = |(at, spec): (usize, &TaskSpec)| {
            let verdict = spill.decide(spec, &ahead, &self.total, round_trip, alone);
            kept_short += (verdict == Verdict::StayShort) as u64;
            // The last task has nobody behind it to count it.
            if at + 1 < specs.len() {
                ahead.add(st.mean_ns(spec.function));
            }
            !verdict.spills()
        };
        let reserved = !st.closed && specs.iter().enumerate().all(&mut keeps);
        if !reserved {
            return false;
        }
        st.reserved += specs.len();
        for spec in specs {
            st.enter(spec.function);
            st.holding.insert(spec.task_id);
        }
        self.publish(&st);
        drop(st);
        if kept_short > 0 {
            self.stats.kept_short.add(kept_short);
        }
        true
    }

    /// The mean run time of every function that has run here, in
    /// nanoseconds.
    pub fn mean_run_times(&self) -> IdMap<FunctionId, u64> {
        let st = self.state.lock();
        let measured = st.costs.iter();
        measured
            .filter_map(|(function, cost)| Some((*function, cost.mean_ns?)))
            .collect()
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
                for task in &tasks {
                    st.leave(task.spec.function);
                }
                self.publish(&st);
                return Err(tasks);
            }
        } else {
            for task in &tasks {
                st.enter(task.spec.function);
            }
            if !st.closed {
                st.holding
                    .extend(tasks.iter().map(|task| task.spec.task_id));
            }
        }
        st.ready.extend(tasks);
        let wakes = if st.closed { 0 } else { pushed.min(st.idle) };
        let grow = st.must_grow();
        self.publish(&st);
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
    /// idle and sleeps until there is, telling nobody. `ran` is the run
    /// time of the batch's last task, if [`start`](Self::start) did not
    /// report it. `None` means exit: the queue closed or the worker was
    /// detached.
    pub fn next(&self, worker: WorkerId, ran: Option<RunTime>) -> Option<Batch> {
        let mut st = self.state.lock();
        if let Some(ran) = ran {
            st.measure(ran);
        }
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
        self.publish(&st);
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
    /// from the task that just ran, whose pins are released and whose
    /// run time, `ran`, joins its function's mean. `published` names the
    /// batch's tasks whose results are out since the last call — a dead
    /// worker no longer loses them. `None` ends the batch: nothing is
    /// held any more (all started, handed back while a task blocked, or
    /// taken by an idle worker), or the queue closed, or the worker was
    /// detached.
    pub fn start(&self, worker: WorkerId, published: &[TaskId], ran: RunTime) -> Option<TaskSpec> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.measure(ran);
        for task in published {
            st.holding.remove(task);
        }
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
        if let Some(spec) = &spec {
            st.held -= 1;
            st.leave(spec.function);
        }
        self.publish(st);
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
        for task in published {
            st.holding.remove(task);
        }
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

    /// Writes the backlog gauges the spill and push rules read: its
    /// depth, measured work and unmeasured tasks.
    fn publish(&self, st: &State) {
        self.stats.ready_depth.store(st.depth() as u64, Relaxed);
        self.stats.ready_work_ns.store(st.work_ns, Relaxed);
        let unmeasured = st.unmeasured as u64;
        self.stats.ready_unmeasured.store(unmeasured, Relaxed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::DriverId;
    use rtml_store::StoreConfig;

    fn queue(cpus: f64) -> RunQueue {
        let store = Arc::new(ObjectStore::new(StoreConfig::default()));
        let stats = Arc::new(LocalSchedulerStats::default());
        RunQueue::new(Resources::cpu(cpus), store, stats, Arc::new(|| {}))
    }

    fn specs(function: &str, from: u64, count: u64) -> Vec<TaskSpec> {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let f = FunctionId::from_name(function);
        (from..from + count)
            .map(|i| TaskSpec::simple(root.child(i), f, vec![]))
            .collect()
    }

    fn ran(function: &str, micros: u64) -> RunTime {
        let function = FunctionId::from_name(function);
        RunTime {
            function,
            took: Duration::from_micros(micros),
        }
    }

    const THRESHOLD: SpillMode = SpillMode::Hybrid { queue_threshold: 4 };

    /// Worker 0 takes a batch and reports its first task ran for `micros`.
    fn measure(q: &RunQueue, function: &str, micros: u64) {
        let worker = WorkerId::new(rtml_common::ids::NodeId(0), 0);
        q.attach(worker);
        q.push(
            specs(function, 1_000, 1)
                .into_iter()
                .map(Runnable::from)
                .collect(),
        );
        let batch = q.next(worker, None).expect("a task");
        assert!(batch.behind.is_empty());
        assert!(q.start(worker, &[], ran(function, micros)).is_none());
    }

    #[test]
    fn a_cold_queue_reserves_by_count_alone() {
        let q = queue(2.0);
        q.stats.delay.fold(100_000);
        // Five places (the threshold plus one), then no more: `f` never ran.
        assert!(!q.reserve(&specs("f", 0, 6), &THRESHOLD, false));
        assert!(q.reserve(&specs("f", 0, 5), &THRESHOLD, false));
        assert!(!q.reserve(&specs("f", 5, 1), &THRESHOLD, false));
        assert_eq!(q.stats.kept_short.get(), 0);
    }

    #[test]
    fn measured_short_work_reserves_past_the_threshold() {
        let q = queue(2.0);
        measure(&q, "f", 1);
        // No round trip measured yet: the count rule.
        assert!(!q.reserve(&specs("f", 0, 6), &THRESHOLD, false));
        q.stats.delay.fold(100_000);
        // 256 tasks of 1 µs on 2 slots drain within the 200 µs round trip.
        assert!(q.reserve(&specs("f", 0, 256), &THRESHOLD, false));
        assert_eq!(q.stats.kept_short.get(), 256 - 5);
        let gauge = |g: &std::sync::atomic::AtomicU64| g.load(Relaxed);
        assert_eq!(gauge(&q.stats.ready_depth), 256);
        assert_eq!(gauge(&q.stats.ready_work_ns), 256 * 1_000);
        assert_eq!(gauge(&q.stats.ready_unmeasured), 0);
    }

    #[test]
    fn long_or_unmeasured_work_ahead_reserves_by_count() {
        let q = queue(2.0);
        q.stats.delay.fold(100_000);
        measure(&q, "long", 2_000);
        assert!(!q.reserve(&specs("long", 0, 6), &THRESHOLD, false));
        measure(&q, "short", 1);
        // One task of a function that never ran here sits in front.
        assert!(q.reserve(&specs("new", 0, 1), &THRESHOLD, false));
        assert!(!q.reserve(&specs("short", 1, 8), &THRESHOLD, false));
        assert!(q.reserve(&specs("short", 1, 4), &THRESHOLD, false));
        assert_eq!(q.stats.kept_short.get(), 0);
    }

    #[test]
    fn a_mean_moves_a_quarter_of_the_way_and_reprices_the_backlog() {
        let q = queue(2.0);
        measure(&q, "f", 800);
        assert!(q.reserve(&specs("f", 0, 3), &THRESHOLD, false));
        assert_eq!(q.mean_run_times()[&FunctionId::from_name("f")], 800_000);
        assert_eq!(q.stats.ready_work_ns.load(Relaxed), 3 * 800_000);
        measure(&q, "f", 1_600);
        assert_eq!(q.mean_run_times()[&FunctionId::from_name("f")], 1_000_000);
        assert_eq!(q.stats.ready_work_ns.load(Relaxed), 3 * 1_000_000);
        // One stalled task counts four means, not a hundred.
        measure(&q, "f", 100_000);
        assert_eq!(q.mean_run_times()[&FunctionId::from_name("f")], 1_750_000);
        assert_eq!(q.stats.ready_work_ns.load(Relaxed), 3 * 1_750_000);
    }
}
