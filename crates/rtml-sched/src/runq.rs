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
//! backlog: they count in [`QueueLoad::ready`], in the backlog the spill
//! rule walks and in the
//! [`ready_depth`](LocalSchedulerStats::ready_depth) gauge the push rule
//! reads, [`detach`](RunQueue::detach) hands them back with
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
//! spill rule's work ahead ([`crate::spill`]).
//!
//! The queue holds the node's [`SpillMode`] and meets the rule in one
//! walk over tasks in order, against that backlog under its lock,
//! advancing by each task kept runnable: a submitter's
//! [`reserve`](RunQueue::reserve) (all or nothing) and the loop's
//! [`judge`](RunQueue::judge) (a batch ingested, the tasks a seal made
//! runnable). A placed task meets feasibility only: walking placed tasks
//! takes no lock.
//!
//! # Lock discipline
//!
//! One mutex, one condvar, one wake epoch. **Nothing else is called
//! while the mutex is held**: no kv call, event append, store call,
//! fabric or channel send, no condvar notify. A critical section
//! decides; what it decided — dependency pins to release, workers to
//! wake, the pool to grow — happens after the guard is dropped. Waiters
//! check for work under the mutex before they sleep and every change
//! that can make a task fit is followed by a wake while a worker is
//! idle, so a notify that finds nobody asleep loses nothing.
//!
//! A worker that finds nothing to take first spins ([`rtml_common::spin`]),
//! unlocked, while idle spells were short ([`Waits`]), one a queue: it
//! watches the epoch every wake moves, from its value at the last check,
//! and checks again before it sleeps. Wakes notify the condvar only for
//! idle workers beyond it: a push the spinner takes makes no futex call.
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
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use rtml_common::collections::{FastSet, IdMap, IdSet};
use rtml_common::ids::{FunctionId, ObjectId, TaskId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::spin::{self, Waits};
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

/// A task the loop hands [`RunQueue::judge`], tagged with the two facts
/// that decide what the walk does with it.
#[derive(Clone, Copy, Debug)]
pub struct Candidate<'a> {
    /// The task.
    pub spec: &'a TaskSpec,
    /// Every input is in the node's store: kept, it is backlog for the
    /// tasks behind it. One kept waiting for an input is not, and meets
    /// the rule again when its last input seals.
    pub runnable: bool,
    /// Placed here by the global scheduler: it meets feasibility only.
    pub placed: bool,
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
    /// take, the spinner among them.
    idle: usize,
    /// One of them spins, the lock dropped (see the module docs).
    spinning: bool,
    /// How long idle spells lasted of late.
    waits: Waits,
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

    /// Waking `wanted` idle workers: the spinner, if any, is one of them
    /// and needs no notify.
    fn wake(&self, wanted: usize) -> Wake {
        Wake {
            epoch: wanted > 0,
            notifies: wanted.saturating_sub(self.spinning as usize),
        }
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

/// The wake-ups a critical section decided: an epoch move for a
/// spinning worker, and condvar notifies for sleeping ones.
struct Wake {
    epoch: bool,
    notifies: usize,
}

/// The shared dispatch state of one node (see the module docs).
pub struct RunQueue {
    state: Mutex<State>,
    wake: Condvar,
    /// Moved (`Release`) by every wake, watched (`Acquire`) by a spinning
    /// worker; it publishes nothing: the queue is read under the mutex.
    epoch: AtomicU64,
    /// Times tasks left `holding` unpublished, counted under the lock.
    losses: AtomicU64,
    total: Resources,
    spill: SpillMode,
    store: Arc<ObjectStore>,
    stats: Arc<LocalSchedulerStats>,
    grow: Arc<dyn Fn() + Send + Sync>,
}

impl RunQueue {
    /// An empty queue for a node of capacity `total` whose tasks meet
    /// `spill`'s rule. Pins are released through `store`; `grow` asks the
    /// node for one more worker.
    pub fn new(
        total: Resources,
        spill: SpillMode,
        store: Arc<ObjectStore>,
        stats: Arc<LocalSchedulerStats>,
        grow: Arc<dyn Fn() + Send + Sync>,
    ) -> RunQueue {
        RunQueue {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            epoch: AtomicU64::new(0),
            losses: AtomicU64::new(0),
            total,
            spill,
            store,
            stats,
            grow,
        }
    }

    /// The counters this queue writes: the exact
    /// [`ready_depth`](LocalSchedulerStats::ready_depth) gauge (ready,
    /// held and reserved tasks), worker parks, spins and sleeps.
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
        self.wake_all();
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
        self.wake_all();
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

    /// Holds places for `specs`, all or none, if each keeps the spill
    /// rule in the queue's walk (see the module docs) — decided under the
    /// lock, so concurrent submitters cannot admit past it — and the
    /// queue is open. `alone`: no other node is alive (see
    /// [`SpillMode::decide`]).
    pub fn reserve(&self, specs: &[TaskSpec], alone: bool) -> bool {
        let mut st = self.state.lock();
        let tasks = specs.iter().map(|spec| Candidate {
            spec,
            runnable: true,
            placed: false,
        });
        let mut reserved = !st.closed;
        let kept_short = self.walk(Some(&st), tasks, alone, |verdict| {
            reserved &= !verdict.spills();
            reserved
        });
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
        self.count_kept_short(kept_short);
        true
    }

    /// The spill rule's verdict on each of `tasks`, in order: the walk
    /// [`reserve`](Self::reserve) makes, for tasks the loop pushes
    /// itself. It holds no places. `alone` as for `reserve`.
    pub fn judge(&self, tasks: &[Candidate<'_>], alone: bool) -> Vec<Verdict> {
        let st = tasks.iter().any(|t| !t.placed).then(|| self.state.lock());
        let mut verdicts = Vec::with_capacity(tasks.len());
        let kept_short = self.walk(st.as_deref(), tasks.iter().copied(), alone, |verdict| {
            verdicts.push(verdict);
            true
        });
        drop(st);
        self.count_kept_short(kept_short);
        verdicts
    }

    fn count_kept_short(&self, kept_short: u64) {
        if kept_short > 0 {
            self.stats.kept_short.add(kept_short);
        }
    }

    /// The one caller of [`SpillMode::decide`]: walks `tasks` in order
    /// against the backlog of `st` (locked; `None` if every task is
    /// placed, whose verdicts read none), handing `each` every verdict
    /// until it returns `false`. Returns the runnable tasks kept short.
    fn walk<'t>(
        &self,
        st: Option<&State>,
        tasks: impl IntoIterator<Item = Candidate<'t>>,
        alone: bool,
        mut each: impl FnMut(Verdict) -> bool,
    ) -> u64 {
        let mut ahead = st.map(State::backlog).unwrap_or_default();
        let (round_trip, total) = (self.stats.delay.round_trip(), &self.total);
        let mut kept_short = 0;
        for task in tasks {
            let spec = task.spec;
            let verdict = if !task.placed {
                self.spill.decide(spec, &ahead, total, round_trip, alone)
            } else if total.fits(&spec.resources) {
                Verdict::Stay
            } else {
                Verdict::Spill
            };
            if let Some(st) = st.filter(|_| task.runnable && !verdict.spills()) {
                kept_short += (verdict == Verdict::StayShort) as u64;
                ahead.add(st.mean_ns(spec.function));
            }
            if !each(verdict) {
                break;
            }
        }
        kept_short
    }

    /// The backlog the spill rule reads: ready, held and reserved tasks,
    /// their functions' summed means and those not measured yet.
    pub fn backlog(&self) -> Backlog {
        self.state.lock().backlog()
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
        let wake = st.wake(if st.closed { 0 } else { pushed.min(st.idle) });
        let grow = st.must_grow();
        self.publish(&st);
        drop(st);
        self.follow_up(wake, grow);
        Ok(())
    }

    /// A worker's conversation with the queue between batches: the batch
    /// it last took is over — its results published, its grant and pins
    /// given back — and the next [`Batch`] the node's free resources
    /// admit is taken for `worker`, its first task started — one
    /// critical section, so nobody sees the freed grant before this
    /// worker has had first pick. With nothing to take the worker goes
    /// idle, telling nobody, and spins (see the module docs) or sleeps
    /// until there is. `ran` is the run time of the batch's last task,
    /// if [`start`](Self::start) did not report it. `None` means exit:
    /// the queue closed or the worker was detached.
    pub fn next(&self, worker: WorkerId, ran: Option<RunTime>) -> Option<Batch> {
        let mut st = self.state.lock();
        if let Some(ran) = ran {
            st.measure(ran);
        }
        let mut unpin = st.retire(worker);
        let mut idle_since = None;
        let mut spun = false;
        let taken = loop {
            if st.closed || !st.workers.contains(&worker) {
                break None;
            }
            if let Some(batch) = st.take(worker, &self.total) {
                break Some(batch);
            }
            if idle_since.is_none() {
                // Running dry: counted idle from here on, so a push
                // wakes it and the pool does not grow past it. The
                // finished batch's pins go back with the lock dropped,
                // and the queue is looked at once more before sleeping.
                idle_since = Some(Instant::now());
                st.idle += 1;
                self.stats.worker_parks.inc();
                if !unpin.is_empty() {
                    drop(st);
                    self.unpin(&std::mem::take(&mut unpin));
                    st = self.state.lock();
                    continue;
                }
            }
            if !spun && !st.spinning && st.waits.spins() {
                // Read under the lock of the last check: a wake since moves it.
                (spun, st.spinning) = (true, true);
                let seen = self.epoch.load(Acquire);
                drop(st);
                spin::spin(&self.stats.spin, || self.epoch.load(Acquire) != seen);
                st = self.state.lock();
                st.spinning = false;
                continue;
            }
            self.stats.worker_sleeps.inc();
            self.wake.wait(&mut st);
        };
        if let Some(since) = idle_since {
            st.idle -= 1;
            st.waits.record(since.elapsed());
        }
        // The freed grant may admit more than the one batch taken.
        let pass_on = st.wake(st.wakes_someone(&self.total) as usize);
        let grow = st.must_grow();
        self.publish(&st);
        drop(st);
        self.follow_up(pass_on, grow);
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
        let wake = st.wake(st.wakes_someone(&self.total) as usize);
        drop(st);
        self.follow_up(wake, false);
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
        let wake = st.wake(st.wakes_someone(&self.total) as usize);
        let grow = st.must_grow();
        drop(st);
        self.follow_up(wake, grow);
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

    /// Writes the backlog depth the worker's push rule reads without the
    /// lock.
    fn publish(&self, st: &State) {
        self.stats.ready_depth.store(st.depth() as u64, Relaxed);
    }

    /// What a critical section decided, done once its guard is gone.
    fn follow_up(&self, wake: Wake, grow: bool) {
        if wake.epoch {
            self.epoch.fetch_add(1, Release);
        }
        for _ in 0..wake.notifies {
            self.wake.notify_one();
        }
        if grow {
            (self.grow)();
        }
    }

    /// Wakes every worker, spinning or asleep.
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Release);
        self.wake.notify_all();
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

    const THRESHOLD: SpillMode = SpillMode::Hybrid { queue_threshold: 4 };

    fn queue(cpus: f64) -> RunQueue {
        let store = Arc::new(ObjectStore::new(StoreConfig::default()));
        let stats = Arc::new(LocalSchedulerStats::default());
        let total = Resources::cpu(cpus);
        RunQueue::new(total, THRESHOLD, store, stats, Arc::new(|| {}))
    }

    /// Reserves places for `specs`, after the loop's walk over the same
    /// queue ([`RunQueue::judge`]) is checked to keep exactly the
    /// batches `reserve` admits and to count the same tasks kept short.
    /// The walk's count is taken back, so `kept_short` reads what the
    /// reservations counted.
    fn reserve(q: &RunQueue, specs: &[TaskSpec]) -> bool {
        let tasks: Vec<Candidate> = specs
            .iter()
            .map(|spec| Candidate {
                spec,
                runnable: true,
                placed: false,
            })
            .collect();
        let before = q.stats.kept_short.get();
        let verdicts = q.judge(&tasks, false);
        let judged_short = q.stats.kept_short.get() - before;
        q.stats.kept_short.sub(judged_short);
        let reserved = q.reserve(specs, false);
        assert_eq!(reserved, verdicts.iter().all(|v| !v.spills()));
        let reserved_short = q.stats.kept_short.get() - before;
        assert_eq!(reserved_short, if reserved { judged_short } else { 0 });
        reserved
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

    const W0: WorkerId = WorkerId::new(rtml_common::ids::NodeId(0), 0);

    /// Runs `round` on a fresh queue until one lands its call inside
    /// W0's 50 µs spin, for up to 10 s. A call lands only while the
    /// test's thread and the spinner both have a CPU, so a round that
    /// missed waits 5 ms for other tests' threads to let one go.
    fn until_a_call_lands_in_a_spin(what: &str, mut round: impl FnMut(Arc<RunQueue>) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let q = Arc::new(queue(1.0));
            q.attach(W0);
            if round(q) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("no {what} landed inside a spin in 10 s");
    }

    fn until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "never: {what}");
            std::hint::spin_loop();
        }
    }

    /// `W0` in [`RunQueue::next`] on a thread of its own, once it is
    /// spinning or asleep; whether it is spinning.
    fn idle_w0(q: &Arc<RunQueue>) -> (std::thread::JoinHandle<Option<Batch>>, bool) {
        let sleeps = q.stats.worker_sleeps.get();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.next(W0, None))
        };
        let mut spinning = false;
        until("W0 spins or sleeps", || {
            spinning = q.state.lock().spinning;
            spinning || q.stats.worker_sleeps.get() > sleeps
        });
        (worker, spinning)
    }

    #[test]
    fn a_push_to_a_spinning_worker_notifies_nobody_and_the_spinner_takes_it() {
        let task = specs("f", 0, 1).remove(0);
        until_a_call_lands_in_a_spin("push", |q| {
            let (worker, spinning) = idle_w0(&q);
            if spinning {
                // The only idle worker spins: a push wakes it through the
                // epoch alone.
                let st = q.state.lock();
                assert!(!st.spinning || st.wake(st.idle).notifies == 0);
            }
            q.push(vec![task.clone().into()]);
            let batch = worker.join().unwrap().expect("W0 takes the push");
            assert_eq!(batch.first.task_id, task.task_id);
            q.stats.spin.hits.get() == 1 && q.stats.worker_sleeps.get() == 0
        });
    }

    #[test]
    fn a_spin_that_runs_out_sleeps_and_a_later_push_still_wakes_it() {
        let q = Arc::new(queue(1.0));
        q.attach(W0);
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.next(W0, None))
        };
        until("W0 sleeps", || q.stats.worker_sleeps.get() == 1);
        assert_eq!((q.stats.spin.hits.get(), q.stats.spin.misses.get()), (0, 1));
        assert!(q.stats.spin.spin_ns.get() >= spin::SPIN.as_nanos() as u64);
        assert_eq!(q.load().idle, 1);
        q.push(specs("f", 0, 1).into_iter().map(Runnable::from).collect());
        let batch = worker.join().unwrap().expect("the push wakes W0");
        assert_eq!(batch.first.task_id, specs("f", 0, 1)[0].task_id);
        assert_eq!(q.stats.worker_sleeps.get(), 1);
    }

    #[test]
    fn a_close_or_a_detach_during_a_spin_ends_next() {
        for close in [true, false] {
            until_a_call_lands_in_a_spin(if close { "close" } else { "detach" }, |q| {
                let (worker, spinning) = idle_w0(&q);
                if close {
                    q.close();
                } else {
                    assert!(q.detach(W0).is_empty());
                }
                assert!(worker.join().unwrap().is_none());
                spinning && q.stats.spin.hits.get() == 1 && q.stats.worker_sleeps.get() == 0
            });
        }
    }

    #[test]
    fn a_cold_queue_reserves_by_count_alone() {
        let q = queue(2.0);
        q.stats.delay.fold(100_000);
        // Five places (the threshold plus one), then no more: `f` never ran.
        assert!(!reserve(&q, &specs("f", 0, 6)));
        assert!(reserve(&q, &specs("f", 0, 5)));
        assert!(!reserve(&q, &specs("f", 5, 1)));
        assert_eq!(q.stats.kept_short.get(), 0);
    }

    #[test]
    fn measured_short_work_reserves_past_the_threshold() {
        let q = queue(2.0);
        measure(&q, "f", 1);
        // No round trip measured yet: the count rule.
        assert!(!reserve(&q, &specs("f", 0, 6)));
        q.stats.delay.fold(100_000);
        // 256 tasks of 1 µs on 2 slots drain within the 200 µs round trip.
        assert!(reserve(&q, &specs("f", 0, 256)));
        assert_eq!(q.stats.kept_short.get(), 256 - 5);
        assert_eq!(q.stats.ready_depth.load(Relaxed), 256);
        let backlog = Backlog {
            tasks: 256,
            work_ns: 256 * 1_000,
            unmeasured: 0,
        };
        assert_eq!(q.backlog(), backlog);
    }

    #[test]
    fn long_or_unmeasured_work_ahead_reserves_by_count() {
        let q = queue(2.0);
        q.stats.delay.fold(100_000);
        measure(&q, "long", 2_000);
        assert!(!reserve(&q, &specs("long", 0, 6)));
        measure(&q, "short", 1);
        // One task of a function that never ran here sits in front.
        assert!(reserve(&q, &specs("new", 0, 1)));
        assert!(!reserve(&q, &specs("short", 1, 8)));
        assert!(reserve(&q, &specs("short", 1, 4)));
        assert_eq!(q.stats.kept_short.get(), 0);
    }

    #[test]
    fn a_mean_moves_a_quarter_of_the_way_and_reprices_the_backlog() {
        let q = queue(2.0);
        measure(&q, "f", 800);
        assert!(reserve(&q, &specs("f", 0, 3)));
        // Three tasks of `f` ahead: the backlog's work is three means.
        let backlog = |mean_ns: u64| Backlog {
            tasks: 3,
            work_ns: 3 * mean_ns,
            unmeasured: 0,
        };
        assert_eq!(q.backlog(), backlog(800_000));
        measure(&q, "f", 1_600);
        assert_eq!(q.backlog(), backlog(1_000_000));
        // One stalled task counts four means, not a hundred.
        measure(&q, "f", 100_000);
        assert_eq!(q.backlog(), backlog(1_750_000));
    }

    #[test]
    fn the_loops_walk_advances_by_kept_runnable_tasks_only() {
        let q = queue(2.0);
        let gpu = |mut spec: TaskSpec| {
            spec.resources = Resources::gpu(1.0);
            spec
        };
        let waiting = specs("f", 0, 6);
        let runnable = specs("f", 6, 6);
        let placed = [
            specs("f", 12, 1).remove(0),
            gpu(specs("f", 13, 1).remove(0)),
        ];
        let tag = |runnable, placed| {
            move |spec| Candidate {
                spec,
                runnable,
                placed,
            }
        };
        // Six tasks waiting for an input find nothing ahead: kept, and
        // not backlog. Five runnable ones are kept by count, the sixth
        // spills. Placed tasks behind them meet feasibility only.
        let tasks: Vec<Candidate> = waiting
            .iter()
            .map(tag(false, false))
            .chain(runnable.iter().map(tag(true, false)))
            .chain(placed.iter().map(tag(true, true)))
            .collect();
        let verdicts = q.judge(&tasks, false);
        let mut expected = vec![Verdict::Stay; 11];
        expected.extend([Verdict::Spill, Verdict::Stay, Verdict::Spill]);
        assert_eq!(verdicts, expected);
        // It held no places.
        assert_eq!(q.backlog(), Backlog::default());
    }
}
