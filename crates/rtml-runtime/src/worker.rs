//! Worker threads: where tasks actually run.
//!
//! A worker takes its own next batch from the node's run queue
//! ([`RunQueue::next`]: the call that hands back the finished batch's
//! resources also first-fits the next task, and sleeps only when nothing
//! fits), resolves each task's arguments from the node's object store
//! (they are local by the time the scheduler queues the task, modulo
//! rare races that the fetch path covers), invokes the registered
//! function with a [`TaskContext`] (giving the task the full API —
//! dynamic graphs, R3) and seals the results. The scheduler thread is not
//! on that path: it hears from a worker only when the queue runs dry.
//!
//! # A batch pays its commits once
//!
//! When more tasks are ready than the node has workers to spread them
//! over, a take is a [`Batch`]: the worker's fair share of them, at most
//! [`rtml_sched::MAX_BATCH`], run in order under one resource grant
//! (see [`rtml_sched::runq`]). The worker commits the batch's `Running`
//! states in one write and times that commit, as it times each publish.
//! It then runs the tasks in order and **holds** each result while the
//! task ran for less time than the longer of the two took — publishing
//! it alone would cost more than running it did — and the next task
//! runs the same function, so is expected to be as short. (The `Running`
//! commit is one append to the state log, a fraction of a publish's
//! cost, so alone it would understate what holding saves.) A longer
//! task, a task of another function, or the batch's
//! end publishes what is held: the store puts, one location commit (what
//! the puts evicted in one more), one `Finished` commit, and one push per
//! component to the node's event buffer, in which every `TaskStarted`,
//! `TaskFinished` and `ObjectSealed` keeps its own task's instant. The
//! pushes take no kv lock: the node's loop appends the buffer on its
//! load tick ([`rtml_kv::EventLog`]), so a publish's kv calls are its
//! location and `Finished` commits alone. So does a task that
//! blocks in `get`/`wait` — what it waits for may be held — before it
//! hands its grant back: the held results live in the worker's
//! `Outbox`, which the task's context reaches. A task's start is
//! reported to the queue ([`RunQueue::start`]) together with what was
//! published since, so a worker that dies loses exactly the tasks whose
//! results are not out, and with how long the task before it ran (a
//! lone task's run time rides the worker's next [`RunQueue::next`]):
//! the queue's per-function means are the spill rule's work ahead. The batch's tasks not yet started stay the
//! node's backlog: an idle worker takes from them once the `Running`
//! commit is out ([`RunQueue::committed`]). There is one path: a lone
//! task is a batch of one, and the hold rule reads no setting, only
//! times the worker measured itself.
//!
//! # A small result travels with its completion
//!
//! The caller of a remotely run task is usually blocked on its result
//! by the time it seals, and pulling an 8-byte value it is already
//! waiting for costs two fabric hops (request, reply) where one will
//! do. So `publish` sends a result of at most
//! [`rtml_store::PUSH_MAX_BYTES`] to the node that submitted the task —
//! the node that holds its future — straight from the worker thread, as
//! the chunk frame a request would have been answered with
//! ([`rtml_store::FetchAgent::push`] on this node's agent), and names
//! that node in the same object-table commit that publishes the seal
//! ([`rtml_kv::ObjectTable::add_location_pushed`]): readers there ask
//! nobody and complete on the local seal. The pull path is untouched
//! and remains the fallback — and the rule for everything else.
//!
//! A result is pushed **only when nothing is queued behind it** (the
//! run queue's [`rtml_sched::LocalSchedulerStats::ready_depth`] gauge
//! reads zero — it counts the tasks a batch holds, too — and no task of
//! its batch is about to run: only the last result published at a long
//! task's or the batch's end can be). A lone frame wakes the receiving agent and the blocked
//! caller once per result; the results of a burst are better left to
//! the caller's pull, which moves them in a few batched replies. An
//! empty ready queue is what the single remote call and the tail of
//! every wave have in common, and it is an input this node observes.
//!
//! Failure semantics:
//! - An application error or panic seals **error envelopes** for every
//!   return object, so consumers fail fast and errors propagate along
//!   dataflow edges.
//! - A worker killed by failure injection discards all effects of its
//!   in-flight task and of the results it holds (no seals, and none is
//!   reported published: they stay under the worker, with the tasks it
//!   had not started, until the scheduler detaches it and marks them
//!   lost) — exactly what a process crash would look like to the rest
//!   of the system.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use rtml_common::error::{Error, Result};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{FunctionId, NodeId, ObjectId, TaskId, WorkerId};
use rtml_common::task::{ArgSpec, TaskSpec, TaskState};
use rtml_common::time::now_nanos;
use rtml_kv::Inbound;
use rtml_sched::{Batch, LocalSchedulerStats, RunQueue, RunTime};
use rtml_store::ObjectStore;

use crate::caller::TaskContext;
use crate::envelope::{self, Envelope};
use crate::fetch;
use crate::lineage::ReconstructionManager;
use crate::services::Services;

/// A running worker thread plus its kill switch.
pub struct WorkerRuntime {
    /// Worker identity.
    pub id: WorkerId,
    kill: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WorkerRuntime {
    /// Spawns a worker thread taking from `queue`, which `id` must
    /// already be attached to.
    pub fn spawn(
        id: WorkerId,
        services: Arc<Services>,
        recon: Arc<ReconstructionManager>,
        queue: Arc<RunQueue>,
    ) -> WorkerRuntime {
        let kill = Arc::new(AtomicBool::new(false));
        let kill2 = kill.clone();
        let join = std::thread::Builder::new()
            .name(format!("rtml-worker-{id}"))
            .spawn(move || worker_loop(id, services, recon, queue, kill2))
            .expect("spawn worker");
        WorkerRuntime {
            id,
            kill,
            join: Some(join),
        }
    }

    /// Simulates a crash: all effects of the in-flight task (if any) are
    /// discarded and the thread exits at the next checkpoint.
    pub fn kill(&self) {
        self.kill.store(true, Ordering::Release);
    }

    /// Joins the worker thread (after the queue closed, or a kill).
    pub fn join(&mut self) {
        if let Some(handle) = self.join.take() {
            let _ = handle.join();
        }
    }

    /// Detaches the thread (used on kill paths where the worker may be
    /// blocked inside a long task).
    pub fn detach(&mut self) {
        self.join.take();
    }
}

fn worker_loop(
    id: WorkerId,
    services: Arc<Services>,
    recon: Arc<ReconstructionManager>,
    queue: Arc<RunQueue>,
    kill: Arc<AtomicBool>,
) {
    let outbox = Arc::new(Outbox {
        worker: id,
        services: services.clone(),
        queue: queue.clone(),
        kill,
        held: Mutex::new(Vec::new()),
        publish_nanos: AtomicU64::new(0),
    });
    let mut ran = None;
    while let Some(batch) = queue.next(id, ran.take()) {
        if outbox.crashed() {
            break;
        }
        match run_batch(&services, &recon, &outbox, batch) {
            Some(last) => ran = last,
            // Crashed: nothing it ran is reported finished.
            None => break,
        }
    }
}

/// A task that ran, its results not yet published.
struct Ran {
    spec: TaskSpec,
    started_at: u64,
    finished_at: u64,
    took: Duration,
    /// The sealed results, or why the task failed.
    outcome: std::result::Result<Vec<Bytes>, String>,
}

/// What a worker ran and has not published yet (see the module docs),
/// shared with the context of the task it runs: a task that blocks
/// publishes it first, since what it waits for may be in it.
pub(crate) struct Outbox {
    worker: WorkerId,
    services: Arc<Services>,
    queue: Arc<RunQueue>,
    kill: Arc<AtomicBool>,
    held: Mutex<Vec<Ran>>,
    /// How long the last publish of results took.
    publish_nanos: AtomicU64,
}

impl Outbox {
    /// The running `task` blocks in `get`/`wait`: what the worker holds
    /// is published, then the batch's grant and the tasks held behind
    /// the task go back to the queue ([`RunQueue::blocked`]).
    pub(crate) fn blocked(&self, task: TaskId) {
        let published = if self.kill.load(Ordering::Acquire) {
            Vec::new()
        } else {
            self.publish(false)
        };
        self.queue.blocked(task, &published);
    }

    /// The blocked `task` resumed ([`RunQueue::unblocked`]).
    pub(crate) fn unblocked(&self, task: TaskId) {
        self.queue.unblocked(task);
    }

    /// Killed — or the node was detached under the worker (`kill_node`
    /// racing a taken task). Either way what it ran is discarded, results
    /// and state updates alike: publishing a `Failed` state would mask
    /// the node death as an application error and exempt the task from
    /// the `Lost`-state repair that replays it.
    pub(crate) fn crashed(&self) -> bool {
        self.kill.load(Ordering::Acquire) || self.services.store(self.worker.node).is_none()
    }

    /// Whether a result of another function than `function` is held.
    fn holds_other_than(&self, function: FunctionId) -> bool {
        let held = self.held.lock();
        held.last().is_some_and(|ran| ran.spec.function != function)
    }

    fn hold(&self, ran: Ran) {
        self.held.lock().push(ran);
    }

    /// Publishes what is held, in order: the tasks' worker events as one
    /// push to the node's event buffer, each at its own instant — logged
    /// before any result is, so a reader woken by a seal finds them (a
    /// reader flushes every buffer first) — then every result,
    /// sealed and published as one ([`Services::seal_and_publish`]; a
    /// failed task's as error envelopes, so consumers unblock with the
    /// propagated error), then one `Finished` commit. With `push` the
    /// last task's results may be pushed to its submitter; the others
    /// have a task behind them. Returns the tasks published.
    fn publish(&self, push: bool) -> Vec<TaskId> {
        let publishing = Instant::now();
        let held = std::mem::take(&mut *self.held.lock());
        let (id, services) = (self.worker, &*self.services);
        let node = id.node;
        let Some(last) = held.last() else {
            return Vec::new();
        };
        let Some(store) = services.store(node) else {
            return Vec::new();
        };
        let push_to = push.then_some((last.spec.task_id, last.spec.submitter_node));
        let mut worker_events = Vec::with_capacity(2 * held.len());
        let mut results = Vec::with_capacity(held.len());
        let mut finished = Vec::with_capacity(held.len());
        let mut tasks = Vec::with_capacity(held.len());
        for ran in held {
            let task = ran.spec.task_id;
            tasks.push(task);
            let event = |at_nanos, kind| Event {
                at_nanos,
                component: Component::Worker,
                kind,
            };
            worker_events.push(event(
                ran.started_at,
                EventKind::TaskStarted { task, worker: id },
            ));
            let returns = match ran.outcome {
                Ok(returns) => {
                    finished.push(task);
                    let micros = ran.took.as_micros() as u64;
                    let kind = EventKind::TaskFinished {
                        task,
                        worker: id,
                        micros,
                    };
                    worker_events.push(event(ran.finished_at, kind));
                    returns
                }
                Err(message) => {
                    // State first: the seals are what unblock consumers, so
                    // anything they (or tools) read afterwards must already
                    // say Failed.
                    let failed = TaskState::Failed(message.clone());
                    services.tasks.set_state(task, &failed);
                    let bytes = envelope::seal_error(&message);
                    let kind = EventKind::TaskFailed { task, message };
                    worker_events.push(event(ran.finished_at, kind));
                    vec![bytes; ran.spec.num_returns as usize]
                }
            };
            for (index, bytes) in returns.into_iter().enumerate() {
                results.push((task.return_object(index as u32), bytes));
            }
        }
        services.events.append_many(node, worker_events);
        let stats = self.queue.stats();
        // A result the store cannot take stays unsealed: its consumers
        // reconstruct (and likely hit the same wall — surfaced as
        // timeouts, which is honest). A consumer waiting at home for any
        // result of the batch is told, as of lost tasks, and looks for
        // it elsewhere: it finds those that did seal here.
        let refused = services.seal_and_publish(&store, results, |object, bytes| {
            let (_, to) = push_to.filter(|(task, _)| object.producer_task() == Some(*task))?;
            push_to_submitter(services, stats, &store, to, object, bytes)
        });
        if refused.is_err() {
            self.queue.unsealed(&tasks);
        }
        if !finished.is_empty() {
            services
                .tasks
                .set_states_many(&finished, &TaskState::Finished);
        }
        let took = publishing.elapsed().as_nanos() as u64;
        self.publish_nanos.store(took, Ordering::Relaxed);
        tasks
    }

    /// How long the last publish of results took (zero before the first).
    fn publish_took(&self) -> Duration {
        Duration::from_nanos(self.publish_nanos.load(Ordering::Relaxed))
    }
}

/// Runs `batch` in order (see the module docs): one `Running` commit,
/// each result held while its task ran for less time than that commit
/// or the last publish took and the next task runs the same function,
/// and what is held published by a longer task, a task of another
/// function, a task that blocks, or the batch's end. Each task's run time goes to the queue
/// with the `start` after it; a lone task's, which has none, is
/// returned for the worker's next `next`. `None` if the worker crashed,
/// with everything it held discarded.
fn run_batch(
    services: &Arc<Services>,
    recon: &Arc<ReconstructionManager>,
    outbox: &Arc<Outbox>,
    batch: Batch,
) -> Option<Option<RunTime>> {
    let (id, queue) = (outbox.worker, &outbox.queue);
    let committing = Instant::now();
    services
        .tasks
        .set_states_many(&batch.tasks(), &TaskState::Running(id));
    let hold_below = committing.elapsed().max(outbox.publish_took());
    if !batch.behind.is_empty() {
        queue.committed(id);
    }
    let mut published = Vec::new();
    let mut next = Some(batch.first);
    while let Some(spec) = next {
        // How long a task of another function runs is unknown: what is
        // held does not wait for it.
        if outbox.holds_other_than(spec.function) {
            published.extend(outbox.publish(false));
        }
        let ran = execute_task(services, recon, outbox, spec);
        if outbox.crashed() {
            return None;
        }
        let (function, took) = (ran.spec.function, ran.took);
        outbox.hold(ran);
        if took >= hold_below {
            published.extend(outbox.publish(true));
        }
        let run_time = RunTime { function, took };
        // A lone task is the batch's end: nothing to start.
        if batch.behind.is_empty() {
            outbox.publish(true);
            return Some(Some(run_time));
        }
        next = queue.start(id, &published, run_time);
        published.clear();
    }
    outbox.publish(true);
    Some(None)
}

fn execute_task(
    services: &Arc<Services>,
    recon: &Arc<ReconstructionManager>,
    outbox: &Arc<Outbox>,
    spec: TaskSpec,
) -> Ran {
    let (id, task) = (outbox.worker, spec.task_id);
    let started_at = now_nanos();
    let started = Instant::now();
    // On success, one sealed envelope per return object.
    let outcome = resolve_args(services, recon, id, &spec).and_then(|raw_args| {
        let func = services
            .registry
            .get(spec.function)
            .ok_or(Error::FunctionNotFound(spec.function))?;
        let ctx = TaskContext::new(
            services.clone(),
            recon.clone(),
            task,
            spec.attempt,
            id,
            Some(outbox.clone()),
        );
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| func(&ctx, &raw_args)));
        match result {
            Ok(r) => r,
            Err(panic) => Err(Error::TaskFailed {
                task,
                message: panic_message(&panic),
            }),
        }
    });
    let took = started.elapsed();
    let outcome = match outcome {
        Ok(results) if results.len() == spec.num_returns as usize => Ok(results),
        Ok(results) => Err(format!(
            "task {task} returned {} values, expected {}",
            results.len(),
            spec.num_returns
        )),
        Err(err) => Err(err.to_string()),
    };
    Ran {
        spec,
        started_at,
        finished_at: now_nanos(),
        took,
        outcome,
    }
}

/// Sends a just-sealed result to `to`, the node that submitted its
/// task, if that is another, live node, the result is small and nothing
/// is queued behind it here. Returns the announcement to publish with
/// the seal — only for a frame the fabric accepted; one lost on the wire
/// costs the submitter's readers `fetch_timeout`, the wait they would
/// give a request of their own, and then they pull.
fn push_to_submitter(
    services: &Services,
    sched_stats: &LocalSchedulerStats,
    store: &ObjectStore,
    to: NodeId,
    object: ObjectId,
    bytes: &Bytes,
) -> Option<Inbound> {
    if to == store.node() || sched_stats.ready_depth.load(Ordering::Relaxed) > 0 {
        return None;
    }
    let agent = services.fetch_agent(store.node())?;
    agent.push(to, object, bytes).then(|| Inbound {
        node: to,
        until_nanos: now_nanos() + services.config.fetch_timeout.as_nanos() as u64,
    })
}

/// Resolves argument bytes, propagating upstream errors. All `ObjectRef`
/// arguments resolve through one batched [`fetch::ensure_local`]: by
/// the time the task is taken they are normally local (the scheduler gated on
/// arrival and prefetched) and the call is a store sweep, and any that
/// slipped away (eviction race) are re-fetched grouped by holder
/// instead of one round trip each.
fn resolve_args(
    services: &Arc<Services>,
    recon: &Arc<ReconstructionManager>,
    id: WorkerId,
    spec: &TaskSpec,
) -> Result<Vec<Bytes>> {
    let deadline = Instant::now() + crate::caller::DEFAULT_GET_TIMEOUT;
    let refs: Vec<ObjectId> = spec
        .args
        .iter()
        .filter_map(|arg| match arg {
            ArgSpec::ObjectRef(object) => Some(*object),
            ArgSpec::Value(_) => None,
        })
        .collect();
    let resolved = if refs.is_empty() {
        Vec::new()
    } else {
        fetch::ensure_local(services, recon, id.node, &refs, deadline).map_err(|e| {
            Error::TaskFailed {
                task: spec.task_id,
                message: format!("failed to resolve arguments: {e}"),
            }
        })?
    };
    let mut raw = Vec::with_capacity(spec.args.len());
    let mut next_ref = 0usize;
    for arg in &spec.args {
        match arg {
            ArgSpec::Value(bytes) => raw.push(bytes.clone()),
            ArgSpec::ObjectRef(object) => {
                let bytes = &resolved[next_ref];
                // Error attribution: the producer rides inside the ID.
                let producer = object
                    .producer_task()
                    .unwrap_or(rtml_common::ids::TaskId::NIL);
                next_ref += 1;
                let value = Envelope::open(bytes)?.into_value_bytes(producer)?;
                raw.push(value);
            }
        }
    }
    Ok(raw)
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}
