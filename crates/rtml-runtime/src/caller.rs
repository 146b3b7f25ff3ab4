//! The user-facing API surface: submission contexts for drivers and for
//! running tasks.
//!
//! A [`Caller`] implements the paper's five API elements (§3.1): create
//! tasks without blocking, pass values or futures as arguments, create
//! tasks from within tasks, `get`, and `wait`. [`Driver`] wraps a
//! `Caller` rooted at a driver program; [`TaskContext`] wraps one rooted
//! at the currently-executing task (making the task graph dynamic, R3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtml_common::codec::Codec;
use rtml_common::error::{Error, Result};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{DriverId, FunctionId, NodeId, ObjectId, TaskId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::task::{ArgSpec, TaskSpec, TaskState};
use rtml_common::time::now_nanos;

use crate::envelope;
use crate::fetch;
use crate::lineage::ReconstructionManager;
use crate::object_ref::{IntoArg, ObjectRef};
use crate::registry::{Func0, Func1, Func2, Func3, Func4};
use crate::services::Services;
use crate::worker::Outbox;

/// The deadline of a `get` that names none ([`Caller::get`],
/// [`Caller::get_many`]) and of a task's wait for its arguments. A call
/// that wants another one says so ([`Caller::get_timeout`]).
pub const DEFAULT_GET_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-submission options.
#[derive(Clone, Debug)]
pub struct TaskOptions {
    /// Resource demand (admission + placement, R4). Default: 1 CPU.
    pub resources: Resources,
}

impl Default for TaskOptions {
    fn default() -> Self {
        TaskOptions {
            resources: Resources::cpu(1.0),
        }
    }
}

impl TaskOptions {
    /// A demand of `cpu` CPUs.
    pub fn cpu(cpu: f64) -> Self {
        TaskOptions {
            resources: Resources::cpu(cpu),
        }
    }

    /// A demand of `gpu` GPUs (plus zero CPUs).
    pub fn gpu(gpu: f64) -> Self {
        TaskOptions {
            resources: Resources::gpu(gpu),
        }
    }

    /// An explicit resource vector.
    pub fn resources(resources: Resources) -> Self {
        TaskOptions { resources }
    }
}

/// Raw parts of one task inside a [`Caller::submit_raw_batch`] — what
/// [`Caller::submit_raw`] takes as separate arguments, as a value so
/// batches can be built up front.
#[derive(Clone, Debug)]
pub struct TaskRequest {
    /// Function to invoke.
    pub function: FunctionId,
    /// Arguments in positional order (inline values or futures).
    pub args: Vec<ArgSpec>,
    /// Number of return objects.
    pub num_returns: u32,
    /// Resource demand (admission + placement, R4).
    pub resources: Resources,
}

struct CallerInner {
    services: Arc<Services>,
    recon: Arc<ReconstructionManager>,
    home: NodeId,
    current_task: TaskId,
    /// The attempt of the task this context runs: above 0 once lineage
    /// replay resubmitted it (a driver's root is never replayed: 0).
    attempt: u32,
    component: Component,
    /// Set for worker contexts: the worker's unpublished results, which
    /// a blocking call publishes first, and its run queue, which the
    /// call hands the task's resources back to while it is parked
    /// (nested-task deadlock avoidance).
    outbox: Option<Arc<Outbox>>,
    child_counter: AtomicU64,
    put_counter: AtomicU64,
}

/// RAII guard bracketing a blocking section: the worker's held results
/// are published and the running task's grant goes back to the node's
/// run queue on entry ([`Outbox::blocked`]); the grant is re-taken on
/// exit.
struct BlockGuard<'a> {
    inner: &'a CallerInner,
}

impl<'a> BlockGuard<'a> {
    fn enter(inner: &'a CallerInner) -> BlockGuard<'a> {
        if let Some(outbox) = &inner.outbox {
            outbox.blocked(inner.current_task);
        }
        BlockGuard { inner }
    }
}

impl Drop for BlockGuard<'_> {
    fn drop(&mut self) {
        if let Some(outbox) = &self.inner.outbox {
            outbox.unblocked(self.inner.current_task);
        }
    }
}

/// A submission context: the capability to create tasks, put objects, and
/// block on futures. Cheap to clone.
#[derive(Clone)]
pub struct Caller {
    inner: Arc<CallerInner>,
}

impl Caller {
    pub(crate) fn new(
        services: Arc<Services>,
        recon: Arc<ReconstructionManager>,
        home: NodeId,
        current_task: TaskId,
        component: Component,
    ) -> Caller {
        Caller::on_worker(services, recon, home, current_task, 0, component, None)
    }

    pub(crate) fn on_worker(
        services: Arc<Services>,
        recon: Arc<ReconstructionManager>,
        home: NodeId,
        current_task: TaskId,
        attempt: u32,
        component: Component,
        outbox: Option<Arc<Outbox>>,
    ) -> Caller {
        Caller {
            inner: Arc::new(CallerInner {
                services,
                recon,
                home,
                current_task,
                attempt,
                component,
                outbox,
                child_counter: AtomicU64::new(0),
                put_counter: AtomicU64::new(0),
            }),
        }
    }

    /// The services bundle (exposed for tooling and benchmarks).
    pub fn services(&self) -> &Arc<Services> {
        &self.inner.services
    }

    /// The node this caller submits from.
    pub fn home_node(&self) -> NodeId {
        self.inner.home
    }

    /// The task identity this caller derives child IDs from.
    pub fn current_task(&self) -> TaskId {
        self.inner.current_task
    }

    /// Submits a task by raw parts. Returns the future(s) for its
    /// returns. Thin wrapper over [`Caller::submit_raw_batch`] — the
    /// non-blocking primitive behind all typed wrappers (§3.1 item 1).
    pub fn submit_raw(
        &self,
        function: FunctionId,
        args: Vec<ArgSpec>,
        num_returns: u32,
        resources: Resources,
    ) -> Result<Vec<ObjectId>> {
        let mut results = self.submit_raw_batch(vec![TaskRequest {
            function,
            args,
            num_returns,
            resources,
        }])?;
        Ok(results.pop().expect("one request in, one result out"))
    }

    /// Submits a batch of tasks by raw parts, amortizing every per-task
    /// cost of the submit path over the batch: one child-counter
    /// reservation, one replay-check read sweep, group-committed task
    /// table / object table / event log writes, and one scheduler
    /// message. Task and object IDs are **bit-identical** to the ones
    /// the equivalent sequence of [`Caller::submit_raw`] calls would
    /// produce — batching changes costs, not identity — so lineage
    /// replay is oblivious to how work was submitted.
    ///
    /// Returns one `Vec<ObjectId>` of return futures per request, in
    /// request order.
    pub fn submit_raw_batch(&self, requests: Vec<TaskRequest>) -> Result<Vec<Vec<ObjectId>>> {
        let inner = &self.inner;
        let services = &inner.services;
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        for request in &requests {
            if services.registry.get(request.function).is_none() {
                return Err(Error::FunctionNotFound(request.function));
            }
        }
        let count = requests.len() as u64;
        let base = inner.child_counter.fetch_add(count, Ordering::Relaxed);
        let task_ids: Vec<TaskId> = (0..count)
            .map(|i| inner.current_task.child(base + i))
            .collect();

        // Replay-aware submission, batched: a re-executed parent finds
        // the children an earlier attempt submitted, and does not submit
        // one again unless that one was lost. A first attempt's child ids
        // are new — its own id is, and its counter hands each out once —
        // so it reads nothing: a read would only miss, and each miss
        // folds the spec log into the index to rule the task out. A
        // driver root is never replayed. A killed worker's thread runs
        // on while its task is replayed elsewhere, so it reads too.
        let may_exist = inner.attempt > 0 || inner.outbox.as_ref().is_some_and(|o| o.crashed());
        let states = if may_exist {
            services.tasks.get_states_many(&task_ids)
        } else {
            vec![None; task_ids.len()]
        };

        let mut results: Vec<Vec<ObjectId>> = Vec::with_capacity(requests.len());
        let mut fresh: Vec<TaskSpec> = Vec::with_capacity(requests.len());
        let mut unschedulable: Vec<(TaskSpec, Vec<ObjectId>)> = Vec::new();
        // Admission-control cache: batches overwhelmingly share one
        // resource vector, so check the cluster once per distinct demand
        // instead of once per task.
        let mut fits_cache: Option<(Resources, bool)> = None;
        for ((request, task_id), state) in requests.into_iter().zip(&task_ids).zip(states) {
            let task_id = *task_id;
            let return_ids: Vec<ObjectId> = (0..request.num_returns)
                .map(|i| task_id.return_object(i))
                .collect();
            if let Some(state) = state {
                if state == TaskState::Lost {
                    inner.recon.resubmit(task_id);
                }
                results.push(return_ids);
                continue;
            }
            let spec = TaskSpec {
                task_id,
                function: request.function,
                args: request.args,
                num_returns: request.num_returns,
                resources: request.resources,
                submitter_node: inner.home,
                attempt: 0,
            };
            // Admission control: a demand no node can ever satisfy fails
            // fast with sealed error envelopes (consumers see the error
            // rather than hanging).
            let fits = match &fits_cache {
                Some((resources, fits)) if *resources == spec.resources => *fits,
                _ => {
                    let fits = services.cluster_fits(&spec.resources);
                    fits_cache = Some((spec.resources.clone(), fits));
                    fits
                }
            };
            if !fits {
                unschedulable.push((spec, return_ids.clone()));
                results.push(return_ids);
                continue;
            }
            results.push(return_ids);
            fresh.push(spec);
        }

        for (spec, return_ids) in unschedulable {
            self.seal_unschedulable(spec, &return_ids);
        }
        if fresh.is_empty() {
            return Ok(results);
        }

        // Durable lineage first, then routing: the routing step records
        // the batch — its spec segment, with `Queued(node)` when the
        // batch is admitted on this thread — before any scheduler or
        // worker can see it, one group-committed control-plane call for
        // the whole batch. No object records are written at all: every
        // return object's lineage edge rides inside its ID
        // (`ObjectId::producer_task`).
        let at_nanos = now_nanos();
        let mut events: Vec<Event> = fresh
            .iter()
            .map(|spec| Event {
                at_nanos,
                component: inner.component,
                kind: EventKind::TaskSubmitted { task: spec.task_id },
            })
            .collect();
        let tasks = fresh.len() as u32;
        // Every batch ingests at home, where its submitter's objects
        // live. `submitter_node` names it, so the kill-node repair scan
        // covers a batch lost in its mailbox; a batch that fails over
        // to another node is covered by the stuck-task backstop.
        let commit_started = Instant::now();
        let routed = services.submit_batch_home(inner.home, fresh);
        // The segment-commit span — the routing call that commits it —
        // rides the same buffer push as the per-task submission events.
        // `base` (this submitter's child counter) is monotonic per
        // caller, so it doubles as the batch seq.
        events.push(Event::now(
            inner.component,
            EventKind::SpecSegmentCommitted {
                node: inner.home,
                seq: base,
                tasks,
                micros: commit_started.elapsed().as_micros() as u64,
            },
        ));
        services.events.append_many(inner.home, events);
        routed?;
        Ok(results)
    }

    /// Fails a permanently unschedulable task fast: durable spec +
    /// `Failed` state and sealed error envelopes so consumers see the
    /// error rather than hanging.
    fn seal_unschedulable(&self, spec: TaskSpec, return_ids: &[ObjectId]) {
        let inner = &self.inner;
        let services = &inner.services;
        let task_id = spec.task_id;
        let message = format!(
            "task {task_id} is unschedulable: demand {} exceeds every node",
            spec.resources
        );
        services
            .tasks
            .record(&spec, &TaskState::Failed(message.clone()));
        if let Some(store) = services
            .store(inner.home)
            .or_else(|| services.any_alive().and_then(|n| services.store(n)))
        {
            let bytes = envelope::seal_error(&message);
            let errors = return_ids.iter().map(|ret| (*ret, bytes.clone()));
            let _ = services.seal_and_publish(&store, errors.collect(), |_, _| None);
        }
    }

    /// Stores a value directly into the local object store and returns a
    /// future for it. Unlike task returns, `put` objects carry no lineage
    /// (losing every copy is unrecoverable — documented paper-faithful
    /// behaviour).
    ///
    /// The value is copied once, as it is encoded behind the envelope
    /// header; the store keeps that buffer, and every later `get` or
    /// task argument on this node is a view of it.
    pub fn put<T: Codec>(&self, value: &T) -> Result<ObjectRef<T>> {
        let inner = &self.inner;
        let counter = inner.put_counter.fetch_add(1, Ordering::Relaxed);
        let object = inner.current_task.put_object(counter);
        let store = inner
            .services
            .store(inner.home)
            .or_else(|| {
                inner
                    .services
                    .any_alive()
                    .and_then(|n| inner.services.store(n))
            })
            .ok_or(Error::ShuttingDown)?;
        let objects = &inner.services.objects;
        inner.services.seal_and_publish(
            &store,
            vec![(object, envelope::seal_value(value))],
            |_, _| {
                objects.declare(object, None);
                None
            },
        )?;
        Ok(ObjectRef::typed(object))
    }

    /// Blocks until the future's value is available (deadline
    /// [`DEFAULT_GET_TIMEOUT`]), fetching or reconstructing as needed.
    /// A value its own node is producing — its task queued or running
    /// here — is waited for on the node's store alone, with no
    /// object-table subscription; the rest as [`Caller::get_many`]
    /// describes.
    ///
    /// A [`bytes::Bytes`] in the result (the result itself, or a field
    /// of it) is a view of the local store's buffer, not a copy: it
    /// stays valid after the object is evicted and keeps that buffer's
    /// memory alive until dropped. Every other type decodes into an
    /// owned value.
    pub fn get<T: Codec>(&self, fut: &ObjectRef<T>) -> Result<T> {
        self.get_timeout(fut, DEFAULT_GET_TIMEOUT)
    }

    /// [`Caller::get`] with an explicit deadline.
    pub fn get_timeout<T: Codec>(&self, fut: &ObjectRef<T>, timeout: Duration) -> Result<T> {
        let deadline = Instant::now() + timeout;
        // Fast path: no scheduler round-trip when the value is local.
        if let Some(store) = self.inner.services.store(self.inner.home) {
            if let Some(bytes) = store.get(fut.id()) {
                let producer = fut.id().producer_task().unwrap_or(TaskId::NIL);
                return envelope::open_value(&bytes, producer);
            }
        }
        let bytes = self.get_raw_until(fut.id(), deadline)?;
        let producer = fut.id().producer_task().unwrap_or(TaskId::NIL);
        envelope::open_value(&bytes, producer)
    }

    /// Blocks until **every** future's value is available, and returns
    /// the values in input order (duplicates allowed).
    ///
    /// The batched `get`, and the same engine as [`Caller::get`] (which
    /// is the batch of one): local hits resolve immediately. A missing
    /// object whose task this node's run queue holds waits at home: on
    /// the node's store alone, and a call of only such objects sleeps
    /// until the last of them seals — once for a burst, not once per
    /// worker publish — moving an object to the path below only if its
    /// producer is lost or its result evicted before it was read. The
    /// other missing objects are registered with **one** object-table
    /// subscription, and as each seals it joins the pending group of the
    /// node holding it. A holder is sent one coalesced `FetchMany` at a
    /// time (answered by one chunked reply stream); whatever seals on it
    /// while that request is in flight rides in the next one, so a batch
    /// still executing is pulled in a handful of requests per holder —
    /// concurrently across holders, overlapping the execution — rather
    /// than one round trip per object. Objects already sealed at call
    /// time go in the first request. Unreachable holders, lost copies
    /// and lineage reconstruction (R6) are handled per object exactly as
    /// [`Caller::get`] would. As there, `Bytes` values are views of the
    /// local store's buffers — one buffer per object, so dropping one
    /// value never keeps another's memory alive.
    pub fn get_many<T: Codec>(&self, futs: &[ObjectRef<T>]) -> Result<Vec<T>> {
        self.get_many_timeout(futs, DEFAULT_GET_TIMEOUT)
    }

    /// [`Caller::get_many`] with an explicit deadline.
    pub fn get_many_timeout<T: Codec>(
        &self,
        futs: &[ObjectRef<T>],
        timeout: Duration,
    ) -> Result<Vec<T>> {
        let ids: Vec<ObjectId> = futs.iter().map(|f| f.id()).collect();
        let all_bytes = self.get_many_raw(&ids, timeout)?;
        // Producer attribution for error envelopes comes from the IDs
        // themselves — no table sweep.
        all_bytes
            .iter()
            .zip(&ids)
            .map(|(bytes, id)| {
                let producer = id.producer_task().unwrap_or(TaskId::NIL);
                envelope::open_value(bytes, producer)
            })
            .collect()
    }

    /// Raw batched `get`: sealed envelope bytes of many objects by ID,
    /// in input order.
    pub fn get_many_raw(&self, ids: &[ObjectId], timeout: Duration) -> Result<Vec<bytes::Bytes>> {
        let deadline = Instant::now() + timeout;
        let _guard = BlockGuard::enter(&self.inner);
        fetch::ensure_local(
            &self.inner.services,
            &self.inner.recon,
            self.inner.home,
            ids,
            deadline,
        )
    }

    /// Raw `get`: sealed envelope bytes of an object by ID.
    pub fn get_raw(&self, object: ObjectId, timeout: Duration) -> Result<bytes::Bytes> {
        self.get_raw_until(object, Instant::now() + timeout)
    }

    fn get_raw_until(&self, object: ObjectId, deadline: Instant) -> Result<bytes::Bytes> {
        let _guard = BlockGuard::enter(&self.inner);
        let mut bytes = fetch::ensure_local(
            &self.inner.services,
            &self.inner.recon,
            self.inner.home,
            &[object],
            deadline,
        )?;
        Ok(bytes.pop().expect("one object in, one value out"))
    }

    /// Blocks until `num_ready` of `futs` have completed or `timeout`
    /// elapses; returns `(ready, pending)` in input order (§3.1 item 5).
    pub fn wait<T>(
        &self,
        futs: &[ObjectRef<T>],
        num_ready: usize,
        timeout: Duration,
    ) -> (Vec<ObjectRef<T>>, Vec<ObjectRef<T>>) {
        let ids: Vec<ObjectId> = futs.iter().map(|f| f.id()).collect();
        let (ready, pending) = self.wait_ids(&ids, num_ready, timeout);
        let to_refs = |ids: Vec<ObjectId>| ids.into_iter().map(ObjectRef::typed).collect();
        (to_refs(ready), to_refs(pending))
    }

    /// Untyped [`Caller::wait`].
    pub fn wait_ids(
        &self,
        ids: &[ObjectId],
        num_ready: usize,
        timeout: Duration,
    ) -> (Vec<ObjectId>, Vec<ObjectId>) {
        let _guard = BlockGuard::enter(&self.inner);
        fetch::wait_ready(
            &self.inner.services,
            &self.inner.recon,
            self.inner.home,
            ids,
            num_ready,
            timeout,
        )
    }
}

macro_rules! submit_arity {
    (
        $(#[$meta:meta])*
        $name:ident, $name_opts:ident, $token:ident, [$($ty:ident / $arg:ident),*]
    ) => {
        impl Caller {
            $(#[$meta])*
            pub fn $name<$($ty: Codec + 'static,)* R: Codec + 'static>(
                &self,
                f: &$token<$($ty,)* R>,
                $($arg: impl IntoArg<$ty>,)*
            ) -> Result<ObjectRef<R>> {
                self.$name_opts(f, $($arg,)* TaskOptions::default())
            }

            /// Same, with explicit [`TaskOptions`] (resources).
            pub fn $name_opts<$($ty: Codec + 'static,)* R: Codec + 'static>(
                &self,
                f: &$token<$($ty,)* R>,
                $($arg: impl IntoArg<$ty>,)*
                opts: TaskOptions,
            ) -> Result<ObjectRef<R>> {
                let args = vec![$($arg.into_arg()),*];
                let ids = self.submit_raw(f.id(), args, 1, opts.resources)?;
                Ok(ObjectRef::typed(ids[0]))
            }
        }
    };
}

impl Caller {
    /// Submits `args.len()` invocations of `f` as **one batch**: one
    /// scheduler message and group-committed control-plane writes for
    /// the whole set, instead of per-task channel sends, table writes,
    /// and log appends. The returned futures (and the underlying
    /// task/object IDs) are bit-identical to what the equivalent
    /// [`Caller::submit1`] loop would produce.
    pub fn submit_batch<A: Codec + 'static, R: Codec + 'static>(
        &self,
        f: &Func1<A, R>,
        args: impl IntoIterator<Item = impl IntoArg<A>>,
    ) -> Result<Vec<ObjectRef<R>>> {
        self.submit_batch_opts(f, args, TaskOptions::default())
    }

    /// Same, with explicit [`TaskOptions`] (resources) applied to every
    /// task in the batch.
    pub fn submit_batch_opts<A: Codec + 'static, R: Codec + 'static>(
        &self,
        f: &Func1<A, R>,
        args: impl IntoIterator<Item = impl IntoArg<A>>,
        opts: TaskOptions,
    ) -> Result<Vec<ObjectRef<R>>> {
        let requests: Vec<TaskRequest> = args
            .into_iter()
            .map(|a| TaskRequest {
                function: f.id(),
                args: vec![a.into_arg()],
                num_returns: 1,
                resources: opts.resources.clone(),
            })
            .collect();
        let results = self.submit_raw_batch(requests)?;
        Ok(results
            .into_iter()
            .map(|ids| ObjectRef::typed(ids[0]))
            .collect())
    }
}

submit_arity!(
    /// Submits a nullary task; returns its future immediately.
    submit0, submit0_opts, Func0, []
);
submit_arity!(
    /// Submits a unary task; the argument may be a value or a future.
    submit1, submit1_opts, Func1, [A / a]
);
submit_arity!(
    /// Submits a binary task; arguments may mix values and futures.
    submit2, submit2_opts, Func2, [A / a, B / b]
);
submit_arity!(
    /// Submits a ternary task; arguments may mix values and futures.
    submit3, submit3_opts, Func3, [A / a, B / b, C / c]
);
submit_arity!(
    /// Submits a 4-ary task; arguments may mix values and futures.
    submit4, submit4_opts, Func4, [A / a, B / b, C / c, D / d]
);

/// A driver program's connection to the cluster.
///
/// Obtained from [`crate::cluster::Cluster::driver`]; dereferences to
/// [`Caller`] for the full API.
pub struct Driver {
    caller: Caller,
    id: DriverId,
}

impl Driver {
    pub(crate) fn new(
        services: Arc<Services>,
        recon: Arc<ReconstructionManager>,
        home: NodeId,
        id: DriverId,
    ) -> Driver {
        let root = TaskId::driver_root(id);
        Driver {
            caller: Caller::new(services, recon, home, root, Component::Driver),
            id,
        }
    }

    /// This driver's identity.
    pub fn id(&self) -> DriverId {
        self.id
    }

    /// Submits many invocations of `f` (one per argument) as a single
    /// batch — the driver-facing name for [`Caller::submit_batch`].
    pub fn submit_many<A: Codec + 'static, R: Codec + 'static>(
        &self,
        f: &Func1<A, R>,
        args: impl IntoIterator<Item = impl IntoArg<A>>,
    ) -> Result<Vec<ObjectRef<R>>> {
        self.caller.submit_batch(f, args)
    }

    /// Blocks on many futures at once, pulling the remote ones in
    /// coalesced per-holder requests as they seal — the batched
    /// counterpart of [`Caller::get`]; see [`Caller::get_many`].
    pub fn get_many<T: Codec>(&self, futs: &[ObjectRef<T>]) -> Result<Vec<T>> {
        self.caller.get_many(futs)
    }
}

impl std::ops::Deref for Driver {
    type Target = Caller;

    fn deref(&self) -> &Caller {
        &self.caller
    }
}

/// The context handed to an executing task: the same API as a driver,
/// rooted at the running task (so nested submissions derive deterministic
/// child IDs — the backbone of replay).
pub struct TaskContext {
    caller: Caller,
    worker: WorkerId,
}

impl TaskContext {
    pub(crate) fn new(
        services: Arc<Services>,
        recon: Arc<ReconstructionManager>,
        task: TaskId,
        attempt: u32,
        worker: WorkerId,
        outbox: Option<Arc<Outbox>>,
    ) -> TaskContext {
        TaskContext {
            caller: Caller::on_worker(
                services,
                recon,
                worker.node,
                task,
                attempt,
                Component::Worker,
                outbox,
            ),
            worker,
        }
    }

    /// The executing worker.
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// The executing task.
    pub fn task(&self) -> TaskId {
        self.caller.current_task()
    }
}

impl std::ops::Deref for TaskContext {
    type Target = Caller;

    fn deref(&self) -> &Caller {
        &self.caller
    }
}

/// Test-only helpers for constructing detached contexts.
pub mod test_support {
    use super::*;
    use crate::ClusterConfig;

    /// Runs `f` with a context not attached to any cluster (submissions
    /// will fail; argument decoding and similar pure paths work).
    pub fn with_detached_context<R>(f: impl FnOnce(&TaskContext) -> R) -> R {
        let services = Services::create(&ClusterConfig {
            kv_shards: 1,
            latency: rtml_net::LatencyModel::Zero,
            seed: 0,
            ..ClusterConfig::default()
        });
        let recon = ReconstructionManager::new(services.clone());
        let root = TaskId::driver_root(DriverId::from_index(u64::MAX));
        let ctx = TaskContext::new(services, recon, root, 0, WorkerId::new(NodeId(0), 0), None);
        f(&ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_context_exposes_identity() {
        test_support::with_detached_context(|ctx| {
            assert_eq!(ctx.worker(), WorkerId::new(NodeId(0), 0));
            assert_eq!(ctx.home_node(), NodeId(0));
        });
    }

    #[test]
    fn submit_unknown_function_errors() {
        test_support::with_detached_context(|ctx| {
            let err = ctx
                .submit_raw(
                    FunctionId::from_name("nope"),
                    vec![],
                    1,
                    Resources::cpu(1.0),
                )
                .unwrap_err();
            assert!(matches!(err, Error::FunctionNotFound(_)));
        });
    }

    #[test]
    fn submit_batch_with_unknown_function_errors_before_ids_are_consumed() {
        test_support::with_detached_context(|ctx| {
            let requests: Vec<TaskRequest> = (0..3)
                .map(|_| TaskRequest {
                    function: FunctionId::from_name("nope"),
                    args: vec![],
                    num_returns: 1,
                    resources: Resources::cpu(1.0),
                })
                .collect();
            let err = ctx.submit_raw_batch(requests).unwrap_err();
            assert!(matches!(err, Error::FunctionNotFound(_)));
        });
    }

    #[test]
    fn empty_batch_is_a_noop() {
        test_support::with_detached_context(|ctx| {
            assert_eq!(ctx.submit_raw_batch(vec![]).unwrap(), Vec::<Vec<_>>::new());
        });
    }

    #[test]
    fn put_without_nodes_errors() {
        test_support::with_detached_context(|ctx| {
            let err = ctx.put(&5u64).unwrap_err();
            assert_eq!(err, Error::ShuttingDown);
        });
    }

    #[test]
    fn task_options_constructors() {
        assert_eq!(TaskOptions::cpu(2.0).resources, Resources::cpu(2.0));
        assert_eq!(TaskOptions::gpu(1.0).resources, Resources::gpu(1.0));
        assert_eq!(TaskOptions::default().resources, Resources::cpu(1.0));
    }
}
