//! Worker threads: where tasks actually run.
//!
//! A worker takes its own next task from the node's run queue
//! ([`RunQueue::next`]: the call that hands back the finished task's
//! resources and pins also first-fits the next one, and sleeps only when
//! nothing fits), resolves the task's arguments from the node's object
//! store (they are local by the time the scheduler queues the task,
//! modulo rare races that the fetch path covers), invokes the registered
//! function with a [`TaskContext`] (giving the task the full API —
//! dynamic graphs, R3) and seals the results. The scheduler thread is not
//! on that path: it hears from a worker only when the queue runs dry.
//!
//! # A small result travels with its completion
//!
//! The caller of a remotely run task is usually blocked on its result
//! by the time it seals, and pulling an 8-byte value it is already
//! waiting for costs two fabric hops (request, reply) where one will
//! do. So `seal` sends a result of at most
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
//! reads zero). A lone frame wakes the receiving agent and the blocked
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
//!   in-flight task (no seals, and the task is never handed back to the
//!   queue as finished: it stays under the worker until the scheduler
//!   detaches it and marks the task lost) — exactly what a process crash
//!   would look like to the rest of the system.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rtml_common::error::{Error, Result};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId, WorkerId};
use rtml_common::task::{ArgSpec, TaskSpec, TaskState};
use rtml_kv::Inbound;
use rtml_sched::{LocalSchedulerStats, RunQueue};
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

    /// Whether the kill switch has been thrown.
    pub fn is_killed(&self) -> bool {
        self.kill.load(Ordering::Acquire)
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
    let mut finished = None;
    while let Some(spec) = queue.next(id, finished) {
        if kill.load(Ordering::Acquire) {
            break;
        }
        execute_task(id, &services, &recon, &queue, &spec, &kill);
        if kill.load(Ordering::Acquire) {
            // Crashed mid-task: it is never reported finished.
            break;
        }
        finished = Some(spec.task_id);
    }
}

fn execute_task(
    id: WorkerId,
    services: &Arc<Services>,
    recon: &Arc<ReconstructionManager>,
    queue: &Arc<RunQueue>,
    spec: &TaskSpec,
    kill: &AtomicBool,
) {
    let sched_stats = queue.stats();
    let node = id.node;
    let task = spec.task_id;
    services.tasks.set_state(task, &TaskState::Running(id));
    services.events.append(
        node,
        Event::now(
            Component::Worker,
            EventKind::TaskStarted { task, worker: id },
        ),
    );
    let started = Instant::now();

    // On success, one sealed envelope per return object.
    let outcome = resolve_args(services, recon, id, spec).and_then(|raw_args| {
        let func = services
            .registry
            .get(spec.function)
            .ok_or(Error::FunctionNotFound(spec.function))?;
        let ctx = TaskContext::new(
            services.clone(),
            recon.clone(),
            task,
            id,
            Some(queue.clone()),
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

    if kill.load(Ordering::Acquire) || services.store(node).is_none() {
        // Simulated crash — or the node was detached under us while we
        // ran (kill_node racing a taken task). Either way: discard
        // all results and state updates. Publishing a Failed state here
        // would mask the node death as an application error and exempt
        // the task from the Lost-state repair that replays it.
        return;
    }

    let exec_micros = started.elapsed().as_micros() as u64;
    match outcome {
        Ok(results) if results.len() == spec.num_returns as usize => {
            for (i, sealed) in results.into_iter().enumerate() {
                let object = task.return_object(i as u32);
                seal(services, sched_stats, node, spec, object, sealed);
            }
            services.tasks.set_state(task, &TaskState::Finished);
            services.events.append(
                node,
                Event::now(
                    Component::Worker,
                    EventKind::TaskFinished {
                        task,
                        worker: id,
                        micros: exec_micros,
                    },
                ),
            );
        }
        Ok(results) => {
            let message = format!(
                "task {task} returned {} values, expected {}",
                results.len(),
                spec.num_returns
            );
            fail_task(services, sched_stats, node, spec, &message);
        }
        Err(err) => {
            let message = err.to_string();
            fail_task(services, sched_stats, node, spec, &message);
        }
    }
}

/// Seals error envelopes for every return of a failed task, so consumers
/// unblock with the propagated error, then records the failure.
fn fail_task(
    services: &Arc<Services>,
    sched_stats: &LocalSchedulerStats,
    node: NodeId,
    spec: &TaskSpec,
    message: &str,
) {
    // State first, then the seals: the seals are what unblock
    // consumers, so anything they (or tools) read afterwards must
    // already say Failed.
    services
        .tasks
        .set_state(spec.task_id, &TaskState::Failed(message.to_string()));
    let bytes = envelope::seal_error(message);
    for i in 0..spec.num_returns {
        let object = spec.task_id.return_object(i);
        seal(services, sched_stats, node, spec, object, bytes.clone());
    }
    services.events.append(
        node,
        Event::now(
            Component::Worker,
            EventKind::TaskFailed {
                task: spec.task_id,
                message: message.to_string(),
            },
        ),
    );
}

/// Seals one result of `spec` into `node`'s store and publishes it —
/// pushed to the submitter's node first when it qualifies (see the
/// module docs), so that the one commit that makes the seal visible
/// also says where the second copy is headed.
fn seal(
    services: &Arc<Services>,
    sched_stats: &LocalSchedulerStats,
    node: NodeId,
    spec: &TaskSpec,
    object: ObjectId,
    bytes: Bytes,
) {
    let Some(store) = services.store(node) else {
        return;
    };
    let len = bytes.len() as u64;
    let sealed = || {
        services.events.append(
            node,
            Event::now(
                Component::ObjectStore,
                EventKind::ObjectSealed {
                    object,
                    node,
                    size: len,
                },
            ),
        );
        push_to_submitter(services, sched_stats, &store, spec, object, &bytes)
    };
    // Store full beyond eviction: the object stays unsealed; consumers
    // will reconstruct (and likely hit the same wall — surfaced as
    // timeouts, which is honest).
    let _ = services.seal_and_publish(&store, object, bytes.clone(), sealed);
}

/// Sends a just-sealed result to the node that submitted its task, if
/// that is another, live node, the result is small and nothing is
/// queued behind it here. Returns the announcement to publish with the
/// seal — only for a frame the fabric accepted; one lost on the wire
/// costs the submitter's readers `fetch_timeout`, the wait they would
/// give a request of their own, and then they pull.
fn push_to_submitter(
    services: &Services,
    sched_stats: &LocalSchedulerStats,
    store: &ObjectStore,
    spec: &TaskSpec,
    object: ObjectId,
    bytes: &Bytes,
) -> Option<Inbound> {
    let to = spec.submitter_node;
    if to == store.node() || sched_stats.ready_depth.load(Ordering::Relaxed) > 0 {
        return None;
    }
    let agent = services.fetch_agent(store.node())?;
    agent.push(to, object, bytes).then(|| Inbound {
        node: to,
        until_nanos: rtml_common::time::now_nanos()
            + services.config.fetch_timeout.as_nanos() as u64,
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
