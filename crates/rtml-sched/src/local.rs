//! The per-node local scheduler (paper §3.2.2, Figure 3).
//!
//! One instance runs per node as a dedicated thread. It owns three task
//! collections:
//!
//! - `waiting`: tasks with unsatisfied dataflow dependencies. A missing
//!   object the table already locates is requested from its holder in
//!   the loop turn that queued the task (one non-blocking request frame
//!   per holder; the answers come back on a channel the loop selects
//!   on). For any other a **resolver** watches the object table, fetches
//!   the object as soon as a copy exists, and asks the runtime's
//!   reconstruction hook for help if the object has been lost. When the
//!   object seals locally the task moves to `ready` — the paper's "tasks
//!   become available for execution if and only if their dependencies
//!   have finished executing". An object whose producer has pushed it to
//!   this node (its record announces the copy, so
//!   [`rtml_kv::ObjectInfo::fetch_holder`] names nobody to ask) is
//!   simply waited for; the loop also commits the location of whatever
//!   the node's fetch agent seals with no waiter left to do it
//!   ([`rtml_store::FetchAgent::deliver_unclaimed_to`]).
//! - `ready`: runnable tasks awaiting a worker and resources. Dispatch is
//!   first-fit: a small CPU task may overtake a GPU task that is waiting
//!   for a free GPU (heterogeneity, R4).
//! - `running`: tasks on workers, with their resource grants.
//!
//! Submissions from same-node workers arrive on an in-process channel
//! (the latency-critical path, R1); placements from the global scheduler
//! arrive over the fabric; spill decisions follow the configured
//! [`SpillMode`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use rtml_common::codec::{decode_from_slice, encode_to_bytes, Codec};
use rtml_common::collections::{fast_map_with_capacity, FastMap, FastSet};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId, TaskId, WorkerId};
use rtml_common::resources::Resources;
use rtml_common::task::{TaskSpec, TaskState};
use rtml_kv::{EventLog, KvStore, ObjectTable, TaskTable};
use rtml_net::{Fabric, NetAddress};
use rtml_store::{FetchAgent, FetchResult, ObjectStore, TransferDirectory};

use crate::msg::{load_key, LoadReport, LocalMsg, WorkerCommand, WorkerHandle};
use crate::policy::{choose_victim, PolicyState};
use crate::spill::SpillMode;
use crate::steal::{plan_steal_grant, StealConfig, StealStats};
use crate::wire::SchedWire;

/// Static configuration for one local scheduler.
#[derive(Clone, Debug)]
pub struct LocalSchedulerConfig {
    /// Node this scheduler manages.
    pub node: NodeId,
    /// The node's total resource capacity.
    pub total_resources: Resources,
    /// Spillover decision rule.
    pub spill: SpillMode,
    /// Per-attempt timeout for remote object fetches.
    pub fetch_timeout: Duration,
    /// Minimum interval between load publications.
    pub load_interval: Duration,
    /// Dispatch-time prefetch: when a batch of tasks is queued, the
    /// scheduler groups their missing-but-located dependencies by
    /// holder and issues one coalesced `FetchMany` per holder
    /// immediately, so transfer overlaps queueing. When off, every
    /// missing object is resolved reactively by its own watcher.
    /// Prefetch changes *when bytes move*, never what runs: dispatch is
    /// gated on arrival either way, and ids/placements are identical.
    pub prefetch: bool,
    /// Pull-based work stealing: when this scheduler's ready queue
    /// drains while a peer's kv-published backlog is deep, pull a batch
    /// of the peer's ready tasks over the fabric (see
    /// [`crate::steal`]). Like prefetch and replication, stealing moves
    /// *where tasks run*, never values — checksums are identical with
    /// it on or off.
    pub stealing: StealConfig,
    /// Pipelined ingest: batch submissions are *accepted* synchronously
    /// (one mailbox pop, one push onto a staging ring) and *indexed*
    /// (spill decisions, dependency gating, group-committed state
    /// writes) on subsequent loop turns, so the driver's marshalling of
    /// the next batch overlaps this node's ingest of the previous one.
    /// Staged work drains before the mailbox goes idle and before
    /// shutdown, and every batch is indexed in arrival order, so
    /// values, placements, and `wait` semantics are unchanged — only
    /// *when* ingest work happens moves.
    pub pipelined_ingest: bool,
    /// How many accepted-but-unindexed batches may accumulate before an
    /// accept forces a flush of the oldest (bounds staged memory and
    /// ingest latency under sustained submission pressure).
    pub staging_depth: usize,
}

impl Default for LocalSchedulerConfig {
    fn default() -> Self {
        LocalSchedulerConfig {
            node: NodeId(0),
            total_resources: Resources::cpu(4.0),
            spill: SpillMode::default(),
            fetch_timeout: Duration::from_secs(2),
            load_interval: Duration::from_millis(1),
            prefetch: true,
            stealing: StealConfig::default(),
            pipelined_ingest: true,
            staging_depth: 4,
        }
    }
}

/// Shared services every scheduler component needs. Cloning is cheap
/// (everything is behind `Arc`).
#[derive(Clone)]
pub struct SchedServices {
    /// Control-plane store.
    pub kv: Arc<KvStore>,
    /// Object table view.
    pub objects: ObjectTable,
    /// Task table view.
    pub tasks: TaskTable,
    /// Event log (R7).
    pub events: EventLog,
    /// The simulated network.
    pub fabric: Arc<Fabric>,
    /// Node → transfer-service address map.
    pub directory: Arc<TransferDirectory>,
    /// This node's object store.
    pub store: Arc<ObjectStore>,
    /// This node's fetch client: persistent endpoint, coalesced
    /// multi-object requests, single-flighted duplicates.
    pub agent: Arc<FetchAgent>,
    /// Shard routing for the global scheduler: spilled tasks go to the
    /// shard owning their id; node lifecycle and load reports are
    /// broadcast to every shard.
    pub global: crate::global::GlobalRoutes,
    /// Runtime hook invoked when a watched object appears to be lost
    /// (has a producer but no live copies). The runtime deduplicates and
    /// resubmits producing tasks (lineage replay).
    pub reconstruct: Arc<dyn Fn(ObjectId) + Send + Sync>,
    /// Runtime hook asking the node to grow its worker pool: invoked
    /// when runnable tasks exist, no worker is idle, and at least one
    /// worker is blocked inside `get`/`wait` (nested-task deadlock
    /// avoidance).
    pub request_worker: Arc<dyn Fn() + Send + Sync>,
    /// Replication-plane hint, invoked at dispatch/prefetch time with
    /// `(holder, [(object, extra fan-in)])`: a coalesced prefetch issues
    /// **one** request frame on behalf of many waiting tasks, so the
    /// holder's per-object demand counters would undercount exactly the
    /// broadcast objects replication exists for. The runtime wires this
    /// to the holder's transfer-service demand counters; defaults to a
    /// no-op when the replication plane is off.
    pub replicate_hint: Arc<dyn Fn(NodeId, &[(ObjectId, u64)]) + Send + Sync>,
}

/// Live counters for one local scheduler (beyond the event log).
#[derive(Debug, Default)]
pub struct LocalSchedulerStats {
    /// Dispatch-time prefetches skipped because the object would not
    /// fit in the store's unpinned capacity headroom (`capacity -
    /// pinned`): moving bytes early is pointless if they cannot become
    /// resident, and evicting pinned-adjacent working state to make
    /// room would be worse. Skipped objects resolve reactively.
    pub prefetch_skipped_capacity: rtml_common::metrics::Counter,
    /// Dispatch-time prefetches deferred by *prioritization*: the
    /// object fits the headroom on its own, but dependencies of tasks
    /// nearer the head of the ready queue consumed the budget first.
    /// Deferred objects resolve reactively (and retry when the head of
    /// the queue drains the budget back).
    pub prefetch_deferred_priority: rtml_common::metrics::Counter,
    /// Steal-plane counters (thief and victim sides).
    pub steal: StealStats,
    /// Gauge: tasks in the ready queue as of the scheduler's last
    /// dispatch pass. The node's workers read it when they seal a
    /// result: one with nothing queued behind it is pushed to its
    /// submitter's node, one of a backlog is left to the batched pull
    /// that moves a burst's results in a few frames. A hint either way
    /// — it publishes no other data, so it is read and written relaxed.
    pub ready_depth: std::sync::atomic::AtomicU64,
}

/// Running handle for a local scheduler.
pub struct LocalSchedulerHandle {
    tx: Sender<LocalMsg>,
    address: NetAddress,
    node: NodeId,
    stats: Arc<LocalSchedulerStats>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl LocalSchedulerHandle {
    /// The in-process submission channel (used by same-node workers and
    /// the driver).
    pub fn sender(&self) -> Sender<LocalMsg> {
        self.tx.clone()
    }

    /// The scheduler's fabric address (placements are sent here).
    pub fn address(&self) -> NetAddress {
        self.address
    }

    /// The node this scheduler manages.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The scheduler's live counters (shared with its thread).
    pub fn stats(&self) -> &Arc<LocalSchedulerStats> {
        &self.stats
    }

    /// Submits a task from this node (driver/worker path).
    pub fn submit(&self, spec: TaskSpec) {
        let _ = self.tx.send(LocalMsg::Submit {
            spec,
            via_global: false,
        });
    }

    /// Submits a whole batch of tasks from this node as **one** mailbox
    /// message — the entry point of the batched hot path.
    pub fn submit_batch(&self, specs: Vec<TaskSpec>) {
        let _ = self.tx.send(LocalMsg::SubmitBatch {
            specs,
            via_global: false,
        });
    }

    /// Requests shutdown and joins the scheduler thread.
    pub fn shutdown(&mut self) {
        let _ = self.tx.send(LocalMsg::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for LocalSchedulerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Namespace for spawning local schedulers.
pub struct LocalScheduler;

impl LocalScheduler {
    /// Spawns a local scheduler thread for `config.node`.
    ///
    /// `workers` are the node's initial worker pool; more can be attached
    /// later with [`LocalMsg::AddWorker`]. The scheduler registers its
    /// fabric endpoint, announces itself to the global scheduler
    /// (`NodeUp`), and publishes an initial load report.
    pub fn spawn(
        config: LocalSchedulerConfig,
        services: SchedServices,
        workers: Vec<WorkerHandle>,
    ) -> LocalSchedulerHandle {
        let (tx, rx) = unbounded();
        let endpoint = services.fabric.register(config.node, "local-sched");
        let address = endpoint.address();
        let node = config.node;
        let stats = Arc::new(LocalSchedulerStats::default());
        let stats2 = stats.clone();

        let (seal_tx, seal_rx) = unbounded();
        services.store.add_seal_listener(seal_tx);
        let (fetch_tx, fetch_rx) = unbounded();
        // What the agent seals with nobody left waiting for it (results
        // pushed here by their producers, replies that outlived their
        // request) is committed like the answers this loop asked for.
        services.agent.deliver_unclaimed_to(fetch_tx.clone());

        let join = std::thread::Builder::new()
            .name(format!("rtml-lsched-{node}"))
            .spawn(move || {
                let mut core = Core {
                    config,
                    services,
                    address,
                    stats: stats2,
                    workers: FastMap::default(),
                    idle: VecDeque::new(),
                    in_use: Resources::none(),
                    ready: VecDeque::new(),
                    waiting: FastMap::default(),
                    watchers: FastMap::default(),
                    resolving: FastSet::default(),
                    inbound: FastMap::default(),
                    fetch_tx,
                    task_pins: FastMap::default(),
                    running: BTreeMap::new(),
                    released: FastSet::default(),
                    spawn_pending: false,
                    load_dirty: true,
                    last_load: Instant::now() - Duration::from_secs(1),
                    steal_inflight: None,
                    steal_seq: 0,
                    last_steal: Instant::now() - Duration::from_secs(1),
                    steal_failures: 0,
                    steal_hint: Vec::new(),
                    steal_hint_at: Instant::now() - Duration::from_secs(1),
                    steal_rng: PolicyState::new(0x57ea1 ^ ((node.0 as u64) << 32)),
                    stolen_pending: FastMap::default(),
                    staging: VecDeque::new(),
                    staging_seq: 0,
                    staged_tasks: 0,
                };
                for w in workers {
                    core.add_worker(w);
                }
                core.announce();
                core.run(rx, endpoint, seal_rx, fetch_rx);
            })
            .expect("spawn local scheduler");

        LocalSchedulerHandle {
            tx,
            address,
            node,
            stats,
            join: Some(join),
        }
    }
}

enum Incoming {
    Local(LocalMsg),
    Net(bytes::Bytes),
    Seal(ObjectId),
    Fetched(ObjectId, FetchResult),
    Tick,
    /// The mailbox is momentarily idle and staged batches exist: index
    /// one (the deferred half of pipelined ingest).
    Drain,
    Closed,
}

struct Core {
    config: LocalSchedulerConfig,
    services: SchedServices,
    address: NetAddress,
    stats: Arc<LocalSchedulerStats>,
    workers: FastMap<WorkerId, Sender<WorkerCommand>>,
    idle: VecDeque<WorkerId>,
    /// Resources granted to running (non-blocked) tasks. May transiently
    /// exceed the node total when blocked tasks resume.
    in_use: Resources,
    ready: VecDeque<TaskSpec>,
    /// task → (spec, number of distinct objects still missing).
    waiting: FastMap<TaskId, (TaskSpec, usize)>,
    /// missing object → tasks waiting on it.
    watchers: FastMap<ObjectId, Vec<TaskId>>,
    /// objects with an active resolver (a request in flight or a
    /// watcher thread).
    resolving: FastSet<ObjectId>,
    /// objects requested from a holder and not yet answered, with when
    /// the request frame left (nanos since process epoch).
    inbound: FastMap<ObjectId, u64>,
    /// Where the fetch agent answers those requests; `run` holds the
    /// other end.
    fetch_tx: Sender<(ObjectId, FetchResult)>,
    /// Dependencies pinned on behalf of a task from the moment they
    /// arrive until the task completes, so LRU eviction cannot drop a
    /// fetched/prefetched argument between arrival and execution.
    task_pins: FastMap<TaskId, Vec<ObjectId>>,
    /// Ordered by task ID so iteration (e.g. collecting the tasks lost
    /// with a dead worker) is reproducible across runs — `HashMap`
    /// iteration order is seeded per process and would make failure
    /// handling order (and thus the event log) nondeterministic.
    running: BTreeMap<TaskId, (WorkerId, Resources)>,
    /// Tasks whose grant has been released because they are blocked in
    /// `get`/`wait`.
    released: FastSet<TaskId>,
    /// A worker-pool growth request is outstanding.
    spawn_pending: bool,
    load_dirty: bool,
    last_load: Instant,
    /// The outstanding steal request, if any. One request in flight at
    /// a time; a grant from *that* victim (even empty) or the deadline
    /// re-arms the loop, so a dead victim can never wedge it — and a
    /// late grant from a previously timed-out victim cannot cancel a
    /// newer request's deadline.
    steal_inflight: Option<StealInflight>,
    /// Correlation sequence for steal request→grant spans. Thief-local:
    /// with at most one request in flight, `(thief, seq)` identifies a
    /// round trip without widening the wire protocol.
    steal_seq: u64,
    last_steal: Instant,
    /// Consecutive fruitless steal attempts (timeouts and empty
    /// grants). Feeds [`StealConfig::retry`]'s backoff so an idle
    /// scheduler facing a partition probes gently instead of hammering
    /// the flat interval; any non-empty grant resets it.
    steal_failures: u32,
    /// Cached residency hint (bounded sample of locally-resident
    /// objects) with its build time: enumerating the store is O(n), so
    /// the hint is refreshed on a TTL instead of per attempt — it is a
    /// hint, staleness only softens locality scoring.
    steal_hint: Vec<ObjectId>,
    steal_hint_at: Instant,
    /// Deterministic sampling state for power-of-two victim selection.
    steal_rng: PolicyState,
    /// Stolen tasks not yet dispatched: grant-arrival instants for the
    /// steal-to-run latency histogram.
    stolen_pending: FastMap<TaskId, Instant>,
    /// Accepted-but-unindexed batches (pipelined ingest): each entry is
    /// `(seq, specs, via_global)`, flushed FIFO so indexing order
    /// equals arrival order. The seq correlates each batch's
    /// `BatchStaged`/`BatchIndexed` span events.
    staging: VecDeque<(u64, Vec<TaskSpec>, bool)>,
    /// Next staging-batch sequence number.
    staging_seq: u64,
    /// Total tasks across `staging`, reported as `waiting` load so
    /// peers see accepted-but-unindexed backlog.
    staged_tasks: usize,
}

/// The thief's outstanding steal request (see `Core::steal_inflight`).
struct StealInflight {
    victim: NodeId,
    deadline: Instant,
    /// When the request frame left, for the round-trip span.
    sent_at: Instant,
    seq: u64,
}

impl Core {
    fn run(
        &mut self,
        rx: Receiver<LocalMsg>,
        endpoint: rtml_net::Endpoint,
        seal_rx: Receiver<ObjectId>,
        fetch_rx: Receiver<(ObjectId, FetchResult)>,
    ) {
        loop {
            // With staged batches pending, never sleep: take whatever
            // message is already here, else index one staged batch
            // immediately. With none, the usual timed idle tick.
            let (idle_for, idle) = match self.staging.is_empty() {
                true => (self.config.load_interval, Incoming::Tick),
                false => (Duration::ZERO, Incoming::Drain),
            };
            let incoming = crossbeam::channel::select! {
                recv(rx) -> m => m.map(Incoming::Local).unwrap_or(Incoming::Closed),
                recv(endpoint.receiver()) -> d => d
                    .map(|d| Incoming::Net(d.payload))
                    .unwrap_or(Incoming::Closed),
                recv(seal_rx) -> o => o.map(Incoming::Seal).unwrap_or(Incoming::Closed),
                recv(fetch_rx) -> f => f
                    .map(|(object, result)| Incoming::Fetched(object, result))
                    .unwrap_or(Incoming::Closed),
                default(idle_for) => idle,
            };
            match incoming {
                Incoming::Local(LocalMsg::Shutdown) | Incoming::Closed => break,
                Incoming::Local(msg) => self.on_local(msg),
                Incoming::Net(payload) => self.on_net(payload),
                Incoming::Seal(object) => self.on_sealed(object),
                Incoming::Fetched(object, result) => {
                    // Whatever else was answered meanwhile rides the same
                    // group commit.
                    let mut answers = vec![(object, result)];
                    answers.extend(fetch_rx.try_iter());
                    self.on_fetched(answers);
                }
                Incoming::Tick => {}
                Incoming::Drain => self.flush_one_staged(),
            }
            self.expire_inbound();
            self.dispatch();
            self.maybe_steal();
            self.maybe_publish_load();
        }
        // Staged submissions must not die with the loop: index them so
        // their specs' states (and any spill decisions) are durable
        // before the drain barrier below.
        self.flush_staging();
        // Drain: stop workers, deregister from the fabric.
        for (_, tx) in self.workers.drain() {
            let _ = tx.send(WorkerCommand::Stop);
        }
        self.services.fabric.unregister(self.address);
    }

    fn announce(&mut self) {
        let up = SchedWire::NodeUp {
            node: self.config.node,
            sched_address: self.address.as_u64(),
        };
        let report = self.load_report();
        self.services
            .kv
            .set(load_key(self.config.node), encode_to_bytes(&report));
        // NodeUp and the first load report travel as one coalesced
        // frame per shard: every global shard learns reachability and
        // capacity together (one hop), so the formation barrier never
        // observes a node that is reachable but loadless.
        let up = encode_to_bytes(&up);
        let load = encode_to_bytes(&SchedWire::Load(report));
        for target in self.services.global.all() {
            let _ = self.services.fabric.send_batch(
                self.address,
                *target,
                vec![up.clone(), load.clone()],
            );
        }
        self.load_dirty = false;
        self.last_load = Instant::now();
    }

    fn on_local(&mut self, msg: LocalMsg) {
        match msg {
            LocalMsg::Submit { spec, via_global } => self.on_submit(spec, via_global),
            LocalMsg::SubmitBatch { specs, via_global } => self.on_submit_batch(specs, via_global),
            LocalMsg::ObjectSealed(object) => self.on_sealed(object),
            LocalMsg::WorkerDone { worker, task } => self.on_worker_done(worker, task),
            LocalMsg::AddWorker(handle) => self.add_worker(handle),
            LocalMsg::RemoveWorker(worker) => self.remove_worker(worker),
            LocalMsg::WorkerBlocked { worker: _, task } => self.on_blocked(task),
            LocalMsg::WorkerUnblocked { worker: _, task } => self.on_unblocked(task),
            LocalMsg::Shutdown => unreachable!("handled by run()"),
        }
    }

    fn on_net(&mut self, payload: bytes::Bytes) {
        match decode_from_slice::<SchedWire>(&payload) {
            Ok(SchedWire::Place { spec, hops: _ }) => self.on_submit(spec, true),
            Ok(SchedWire::PlaceBatch { specs, hops: _ }) => self.on_submit_batch(specs, true),
            Ok(SchedWire::Spill(spec)) => {
                // Misdirected spill (we are not a global scheduler);
                // treat as a local submission rather than dropping work.
                self.on_submit(spec, false)
            }
            Ok(SchedWire::SpillBatch(specs)) => self.on_submit_batch(specs, false),
            Ok(SchedWire::StealRequest {
                thief,
                reply_address,
                capacity,
                max_tasks,
                local_objects_hint,
            }) => self.on_steal_request(
                thief,
                reply_address,
                capacity,
                max_tasks as usize,
                local_objects_hint,
            ),
            Ok(SchedWire::StealGrant { victim, tasks }) => self.on_steal_grant(victim, tasks),
            Ok(_) | Err(_) => {}
        }
    }

    /// Thief side of the steal plane, run once per scheduler-loop turn:
    /// when the ready queue has drained while workers sit idle, sample
    /// a victim from the kv-published load reports and ask it for a
    /// batch. At most one request is in flight; [`StealConfig::timeout`]
    /// re-arms the loop when a victim dies mid-request.
    fn maybe_steal(&mut self) {
        let cfg = &self.config.stealing;
        if !cfg.enabled || !self.ready.is_empty() || self.idle.is_empty() || self.workers.is_empty()
        {
            return;
        }
        // Accepted-but-unindexed local work exists: index it before
        // pulling remote work.
        if !self.staging.is_empty() {
            return;
        }
        // Work is already here, short only of inputs that are on the
        // wire: tasks waiting on a requested object will take the idle
        // workers when it lands. Asking for more now would only move
        // tasks (and a second copy of their inputs) to a node that
        // cannot start them any sooner.
        let about_to_run: usize = self
            .inbound
            .keys()
            .filter_map(|object| self.watchers.get(object))
            .map(Vec::len)
            .sum();
        if about_to_run >= self.idle.len() {
            return;
        }
        if let Some(inflight) = &self.steal_inflight {
            if Instant::now() < inflight.deadline {
                return;
            }
            // Victim never answered (died, or the request was lost —
            // a partition can swallow the request or the grant):
            // declare the request dead and try someone else.
            self.steal_inflight = None;
            self.stats.steal.timeouts.inc();
            self.steal_failures = self.steal_failures.saturating_add(1);
        }
        // Consecutive fruitless attempts back the re-arm pause off
        // exponentially (seeded per node, so the schedule is
        // reproducible); any non-empty grant snaps it back to the flat
        // interval.
        let pause = if self.steal_failures == 0 {
            cfg.interval
        } else {
            let attempt = (self.steal_failures - 1).min(16);
            cfg.interval
                .max(cfg.retry.backoff(attempt, u64::from(self.config.node.0)))
        };
        if self.last_steal.elapsed() < pause {
            return;
        }
        self.last_steal = Instant::now();
        let me = self.config.node;
        // The load reports every scheduler already mirrors into the kv
        // store, read by key for the nodes the transfer directory lists
        // (every live node has a transfer service): one batched point
        // read, whose cost does not grow with what else the control
        // plane holds.
        // Reports older than a few heartbeat periods are ghosts: the
        // publisher is dead, partitioned, or wedged, and a steal
        // request at it would only burn a timeout. Live schedulers
        // republish at least every `load_interval * 16` (the heartbeat
        // branch of `maybe_publish_load`), so 64 intervals of silence
        // is decisive, not jitter.
        let stale_nanos = self
            .config
            .load_interval
            .saturating_mul(64)
            .max(Duration::from_millis(100))
            .as_nanos() as u64;
        let now_nanos = rtml_common::time::now_nanos();
        let peers: Vec<bytes::Bytes> = self
            .services
            .directory
            .nodes()
            .into_iter()
            .filter(|node| *node != me)
            .map(load_key)
            .collect();
        if peers.is_empty() {
            return;
        }
        let candidates: Vec<LoadReport> = self
            .services
            .kv
            .get_many(&peers)
            .into_iter()
            .flatten()
            .filter_map(|bytes| decode_from_slice::<LoadReport>(&bytes).ok())
            .filter(|report| {
                report.node != me
                    && report.ready > cfg.min_backlog
                    && now_nanos.saturating_sub(report.at_nanos) <= stale_nanos
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        // Residency hint: a bounded, deterministic sample of what is
        // already local here, for the victim's locality scoring (and
        // our own tiebreak below). Enumerating the store is O(n), so
        // the hint is rebuilt on a TTL — several times the attempt
        // interval — rather than per attempt, and partial selection
        // keeps the rebuild at O(n + cap·log cap), not a full sort.
        if self.steal_hint_at.elapsed() >= cfg.interval.saturating_mul(16) {
            let mut hint = self.services.store.list();
            let cap = cfg.hint_objects;
            if hint.len() > cap && cap > 0 {
                hint.select_nth_unstable(cap);
            }
            hint.truncate(cap);
            hint.sort_unstable();
            self.steal_hint = hint;
            self.steal_hint_at = Instant::now();
        }
        let hint = self.steal_hint.clone();
        let Some(victim) = choose_victim(
            &candidates,
            &hint,
            &self.services.objects,
            &mut self.steal_rng,
        ) else {
            return;
        };
        let request = SchedWire::StealRequest {
            thief: me,
            reply_address: self.address.as_u64(),
            capacity: self.config.total_resources.saturating_sub(&self.in_use),
            max_tasks: cfg.max_tasks as u32,
            local_objects_hint: hint,
        };
        self.stats.steal.attempts.inc();
        let sent = self.services.fabric.send(
            self.address,
            NetAddress::from_u64(victim.sched_address),
            encode_to_bytes(&request),
        );
        if sent.is_ok() {
            let seq = self.steal_seq;
            self.steal_seq += 1;
            self.steal_inflight = Some(StealInflight {
                victim: victim.node,
                deadline: Instant::now() + cfg.timeout,
                sent_at: Instant::now(),
                seq,
            });
            // Open the request→grant span (closed by StealRoundTrip
            // when this victim's answer arrives).
            self.services.events.append(
                me,
                Event::now(
                    Component::LocalScheduler,
                    EventKind::StealRequested {
                        thief: me,
                        victim: victim.node,
                        seq,
                    },
                ),
            );
        }
        // Send refused: the victim's endpoint is gone (stale report from
        // a dead node). No request is in flight, so the next turn simply
        // samples again.
    }

    /// Victim side: answer a steal request with one granted batch —
    /// possibly empty, when the queue drained since the thief read our
    /// load report (the stale-victim answer; the thief must never be
    /// left waiting on silence while we are alive).
    fn on_steal_request(
        &mut self,
        thief: NodeId,
        reply_address: u64,
        capacity: Resources,
        max_tasks: usize,
        hint: Vec<ObjectId>,
    ) {
        let me = self.config.node;
        let granted: Vec<TaskSpec> = if !self.config.stealing.enabled || self.ready.is_empty() {
            Vec::new()
        } else {
            // Score every ready candidate by the bytes of its
            // dependencies already resident on the thief: one batched
            // `get_many` sweep over the distinct dependencies (the same
            // grouping discipline as dispatch-time prefetch), never a
            // point probe per object.
            let mut distinct: Vec<ObjectId> = Vec::new();
            let mut seen: FastSet<ObjectId> = FastSet::default();
            for spec in &self.ready {
                for dep in spec.dependencies() {
                    if seen.insert(dep) {
                        distinct.push(dep);
                    }
                }
            }
            let hint: FastSet<ObjectId> = hint.into_iter().collect();
            let mut thief_bytes: FastMap<ObjectId, u64> = FastMap::default();
            if !distinct.is_empty() {
                let infos = self.services.objects.get_many(&distinct);
                for (dep, info) in distinct.into_iter().zip(infos) {
                    let (size, located) = info
                        .as_ref()
                        .map(|i| (i.size.max(1), i.locations.contains(&thief)))
                        .unwrap_or((1, false));
                    if located || hint.contains(&dep) {
                        thief_bytes.insert(dep, size);
                    }
                }
            }
            let candidates: Vec<(Resources, u64)> = self
                .ready
                .iter()
                .map(|spec| {
                    let local: u64 = spec
                        .dependencies()
                        .map(|dep| thief_bytes.get(&dep).copied().unwrap_or(0))
                        .sum();
                    (spec.resources.clone(), local)
                })
                .collect();
            let picks = plan_steal_grant(&candidates, &capacity, max_tasks);
            // Remove back-to-front so earlier indices stay valid, then
            // restore the preference order for the grant itself.
            let mut by_index: Vec<usize> = picks.clone();
            by_index.sort_unstable_by(|a, b| b.cmp(a));
            let mut extracted: FastMap<usize, TaskSpec> = fast_map_with_capacity(by_index.len());
            for idx in by_index {
                let spec = self.ready.remove(idx).expect("plan indices are in range");
                extracted.insert(idx, spec);
            }
            picks
                .into_iter()
                .map(|idx| extracted.remove(&idx).expect("extracted above"))
                .collect()
        };
        let granted_ids: Vec<TaskId> = granted.iter().map(|spec| spec.task_id).collect();
        if !granted.is_empty() {
            for spec in &granted {
                // The task leaves this node: its dependency pins and any
                // steal-latency bookkeeping go with it.
                self.release_pins(spec.task_id);
                self.stolen_pending.remove(&spec.task_id);
            }
            // Ownership transfer, crash-consistent: the specs and their
            // `Queued(thief)` states are group-committed to the task
            // table BEFORE the grant frame leaves, so a thief that dies
            // with the batch is repaired like any other lost queue
            // (states on the dead node become `Lost`, lineage replays).
            self.services
                .tasks
                .record_many(&granted, &TaskState::Queued(thief));
            self.load_dirty = true;
        }
        let grant = SchedWire::StealGrant {
            victim: me,
            tasks: granted,
        };
        let sent = self.services.fabric.send(
            self.address,
            NetAddress::from_u64(reply_address),
            encode_to_bytes(&grant),
        );
        if sent.is_err() {
            // The thief vanished before the grant left (its endpoint is
            // gone) — but ownership is already committed as
            // `Queued(thief)`, and a node killed *before* this commit
            // landed has already run its one-shot task-table repair.
            // Take the batch back: the same batched ingest re-records
            // `Queued(me)` and re-gates dependencies, so the work is
            // never stranded on a ghost. Nothing was logged or counted
            // yet, so the event log never claims a transfer that was
            // undone.
            if let SchedWire::StealGrant { tasks, .. } = grant {
                if !tasks.is_empty() {
                    self.on_submit_batch(tasks, true);
                }
            }
        } else if !granted_ids.is_empty() {
            // Stats and the durable TaskStolen records reflect grants
            // that actually left. (A send that succeeds but dies in
            // flight is the thief-crash case the task-table repair and
            // lineage replay already cover.)
            let at_nanos = rtml_common::time::now_nanos();
            self.services.events.append_many(
                me,
                granted_ids
                    .iter()
                    .map(|task| Event {
                        at_nanos,
                        component: Component::LocalScheduler,
                        kind: EventKind::TaskStolen {
                            task: *task,
                            from: me,
                            to: thief,
                        },
                    })
                    .collect(),
            );
            self.stats.steal.tasks_granted.add(granted_ids.len() as u64);
        }
    }

    /// Thief side: a grant arrived. Empty grants re-arm the steal loop
    /// (stale victim); non-empty ones ingest exactly like a global
    /// placement batch (one spill/dependency scan, no re-spill), with
    /// per-task arrival stamps for the steal-to-run histogram.
    fn on_steal_grant(&mut self, victim: NodeId, tasks: Vec<TaskSpec>) {
        // Only the grant we are actually waiting on re-arms the loop: a
        // late answer from a victim we already timed out must not
        // cancel the deadline of the newer in-flight request.
        if self
            .steal_inflight
            .as_ref()
            .is_some_and(|inflight| inflight.victim == victim)
        {
            let inflight = self.steal_inflight.take().expect("checked above");
            // Close the request→grant span. Empty grants close it too
            // (tasks = 0): a wasted round trip is exactly what the
            // trace should show.
            self.services.events.append(
                self.config.node,
                Event::now(
                    Component::LocalScheduler,
                    EventKind::StealRoundTrip {
                        thief: self.config.node,
                        victim,
                        seq: inflight.seq,
                        tasks: tasks.len() as u32,
                        micros: inflight.sent_at.elapsed().as_micros() as u64,
                    },
                ),
            );
        }
        if tasks.is_empty() {
            self.stats.steal.empty_grants.inc();
            self.steal_failures = self.steal_failures.saturating_add(1);
            return;
        }
        self.steal_failures = 0;
        self.stats.steal.grants.inc();
        self.stats.steal.tasks_stolen.add(tasks.len() as u64);
        let now = Instant::now();
        for spec in &tasks {
            // Locality scoring working end to end: the stolen task's
            // dependencies are already here.
            if spec
                .dependencies()
                .any(|dep| self.services.store.contains(dep))
            {
                self.stats.steal.locality_hits.inc();
            }
            self.stolen_pending.insert(spec.task_id, now);
        }
        self.on_submit_batch(tasks, true);
    }

    fn add_worker(&mut self, handle: WorkerHandle) {
        self.idle.push_back(handle.id);
        self.workers.insert(handle.id, handle.tx);
        self.spawn_pending = false;
        self.load_dirty = true;
    }

    /// A task blocked inside `get`/`wait`: hand its grant back so other
    /// work can use the node (and, if needed, ask for one more worker).
    fn on_blocked(&mut self, task: TaskId) {
        if let Some((_, grant)) = self.running.get(&task) {
            if self.released.insert(task) {
                self.in_use = self.in_use.saturating_sub(grant);
                self.load_dirty = true;
            }
        }
    }

    /// A blocked task resumed: take its grant back (transient
    /// oversubscription is accepted rather than pausing a live thread).
    fn on_unblocked(&mut self, task: TaskId) {
        if self.released.remove(&task) {
            if let Some((_, grant)) = self.running.get(&task) {
                self.in_use = self.in_use.add(grant);
                self.load_dirty = true;
            }
        }
    }

    fn remove_worker(&mut self, worker: WorkerId) {
        self.workers.remove(&worker);
        self.idle.retain(|w| *w != worker);
        let lost: Vec<TaskId> = self
            .running
            .iter()
            .filter(|(_, (w, _))| *w == worker)
            .map(|(t, _)| *t)
            .collect();
        for task in lost {
            let (_, grant) = self.running.remove(&task).expect("collected above");
            if !self.released.remove(&task) {
                self.in_use = self.in_use.saturating_sub(&grant);
            }
            self.release_pins(task);
            self.services.tasks.set_state(task, &TaskState::Lost);
        }
        self.services.events.append(
            self.config.node,
            Event::now(Component::LocalScheduler, EventKind::WorkerLost { worker }),
        );
        self.load_dirty = true;
    }

    /// Single-task ingest: a batch of one.
    fn on_submit(&mut self, spec: TaskSpec, via_global: bool) {
        self.on_submit_batch(vec![spec], via_global);
    }

    /// Batch ingest: the same decisions as N sequential single
    /// submissions, but with one spill/dependency scan over the batch,
    /// one group-committed state write, one event-log append, and (when
    /// tasks must travel) one fabric frame — per-task costs become
    /// per-batch costs (R2).
    ///
    /// `via_global` marks placements made by the global scheduler,
    /// which must not spill again (except when the node genuinely can
    /// never satisfy the demand — stale capacity information).
    ///
    /// With pipelined ingest on, this is only the cheap *accept* stage:
    /// the batch lands on the staging ring and the expensive *index*
    /// stage ([`Core::ingest_batch`]) runs on a later loop turn — while
    /// the submitter is already marshalling its next batch. Batches
    /// flush FIFO, so indexing order (and thus every spill decision and
    /// state write) is identical to the serialized path.
    fn on_submit_batch(&mut self, specs: Vec<TaskSpec>, via_global: bool) {
        if !self.config.pipelined_ingest {
            self.ingest_batch(specs, via_global);
            return;
        }
        let seq = self.staging_seq;
        self.staging_seq += 1;
        self.staged_tasks += specs.len();
        // Open the staging span: BatchIndexed with the same seq closes
        // it when the index stage runs. `depth` is the ring occupancy
        // including this batch — the pipelining backlog signal.
        self.services.events.append(
            self.config.node,
            Event::now(
                Component::LocalScheduler,
                EventKind::BatchStaged {
                    node: self.config.node,
                    seq,
                    tasks: specs.len() as u32,
                    depth: (self.staging.len() + 1) as u32,
                },
            ),
        );
        self.staging.push_back((seq, specs, via_global));
        self.load_dirty = true;
        if self.staging.len() > self.config.staging_depth.max(1) {
            self.flush_one_staged();
        }
    }

    /// Indexes the oldest staged batch (the deferred half of pipelined
    /// ingest). One batch per call keeps mailbox latency bounded: a
    /// worker-done or seal message never waits behind the whole ring.
    fn flush_one_staged(&mut self) {
        if let Some((seq, specs, via_global)) = self.staging.pop_front() {
            self.staged_tasks = self.staged_tasks.saturating_sub(specs.len());
            let tasks = specs.len() as u32;
            let started = Instant::now();
            self.ingest_batch(specs, via_global);
            self.services.events.append(
                self.config.node,
                Event::now(
                    Component::LocalScheduler,
                    EventKind::BatchIndexed {
                        node: self.config.node,
                        seq,
                        tasks,
                        micros: started.elapsed().as_micros() as u64,
                    },
                ),
            );
        }
    }

    /// Indexes every staged batch, FIFO — the drain barrier used before
    /// shutdown.
    fn flush_staging(&mut self) {
        while !self.staging.is_empty() {
            self.flush_one_staged();
        }
    }

    /// The index stage of batch ingest: spill decisions, dependency
    /// gating, group-committed state writes, event appends, and missing
    /// dependency resolution for one batch.
    fn ingest_batch(&mut self, specs: Vec<TaskSpec>, via_global: bool) {
        let node = self.config.node;
        // Single pass: spill decision plus dependency gating. `backlog`
        // advances as runnable tasks are accepted, so the spill rule
        // sees exactly the queue depths a sequential loop would.
        let mut backlog = self.ready.len();
        let mut accepted: Vec<(TaskSpec, Vec<ObjectId>)> = Vec::with_capacity(specs.len());
        let mut spilled: Vec<TaskSpec> = Vec::new();
        // Batch-local store-presence cache: `store.contains` takes the
        // object store's lock, and batches overwhelmingly share
        // dependencies (fan-out from one input), so one lookup per
        // *distinct* object replaces one lock round trip per task. An
        // object sealing mid-batch is caught downstream (the watcher
        // path re-checks presence before resolving).
        let mut present_cache: FastMap<ObjectId, bool> = FastMap::default();
        for spec in specs {
            let must_spill = if via_global {
                !self.config.total_resources.fits(&spec.resources)
            } else {
                self.config
                    .spill
                    .should_spill(&spec, backlog, &self.config.total_resources)
            };
            if must_spill {
                spilled.push(spec);
                continue;
            }
            // A task's distinct unmet dependencies. Arg lists are short,
            // so a Vec with a linear dedup beats a hash set per task on
            // the ingest hot path.
            let mut missing: Vec<ObjectId> = Vec::new();
            for object in spec.dependencies() {
                if missing.contains(&object) {
                    continue;
                }
                let present = *present_cache
                    .entry(object)
                    .or_insert_with(|| self.services.store.contains(object));
                if !present {
                    missing.push(object);
                }
            }
            if missing.is_empty() {
                backlog += 1;
            }
            accepted.push((spec, missing));
        }

        if !accepted.is_empty() {
            let ids: Vec<TaskId> = accepted.iter().map(|(s, _)| s.task_id).collect();
            self.services
                .tasks
                .set_states_many(&ids, &TaskState::Queued(node));
            let at_nanos = rtml_common::time::now_nanos();
            self.services.events.append_many(
                node,
                accepted
                    .iter()
                    .map(|(s, _)| Event {
                        at_nanos,
                        component: Component::LocalScheduler,
                        kind: EventKind::TaskQueuedLocal {
                            task: s.task_id,
                            node,
                        },
                    })
                    .collect(),
            );
            // Gate each task on its dependencies, collecting the batch's
            // distinct unresolved objects so the whole set resolves as
            // one prefetch pass (one FetchMany per holder) instead of
            // one reactive watcher per object.
            let mut unresolved: Vec<ObjectId> = Vec::new();
            let mut unresolved_seen: FastSet<ObjectId> = FastSet::default();
            for (spec, missing) in accepted {
                if missing.is_empty() {
                    self.ready.push_back(spec);
                } else {
                    let count = missing.len();
                    for object in missing {
                        self.watchers.entry(object).or_default().push(spec.task_id);
                        // Dedup before the presence re-check so each
                        // distinct object pays at most one store lock
                        // round trip per batch (the re-check catches
                        // objects sealed since the gating scan above).
                        if !self.resolving.contains(&object)
                            && unresolved_seen.insert(object)
                            && !self.services.store.contains(object)
                        {
                            unresolved.push(object);
                        }
                    }
                    self.waiting.insert(spec.task_id, (spec, count));
                }
            }
            if !unresolved.is_empty() {
                self.resolve_missing(unresolved);
            }
            self.load_dirty = true;
        }
        if !spilled.is_empty() {
            self.spill_batch(spilled);
        }
    }

    /// Starts resolution for a batch's distinct missing dependencies.
    ///
    /// With prefetch on, objects the table already locates are grouped
    /// by holder (rendezvous-ranked, so different objects of a
    /// replicated set pull from different holders) and requested
    /// **now**, in this loop turn, while their tasks are still queued —
    /// one non-blocking [`FetchAgent::request_many`] per holder,
    /// transfer overlapped with queueing, dispatch still gated on
    /// arrival; the answers come back to [`Core::on_fetched`].
    /// Admission is budgeted **and prioritized**: the batch is scanned
    /// in submission order, so dependencies of tasks nearest the head of
    /// the ready queue claim the unpinned-capacity budget first. An
    /// object larger than the whole headroom is skipped outright
    /// (counted in [`LocalSchedulerStats::prefetch_skipped_capacity`]);
    /// one that fits alone but lost the budget to higher-priority
    /// dependencies is deferred (counted in
    /// [`LocalSchedulerStats::prefetch_deferred_priority`]). Both
    /// resolve reactively. Objects with no live copy (producer still
    /// running, or lost) get the patient per-object watcher, which also
    /// triggers lineage reconstruction. With prefetch off, everything
    /// takes the watcher path — the reactive, per-object baseline.
    fn resolve_missing(&mut self, objects: Vec<ObjectId>) {
        for object in &objects {
            self.resolving.insert(*object);
        }
        if !self.config.prefetch {
            for object in objects {
                self.spawn_watcher(object);
            }
            return;
        }
        let me = self.config.node;
        let infos = self.services.objects.get_many(&objects);
        // Prefetch admission budget: what could become resident by
        // evicting everything evictable. Pinned bytes are running
        // tasks' arguments — prefetch must not thrash against them.
        let budget = self
            .services
            .store
            .capacity_bytes()
            .saturating_sub(self.services.store.pinned_bytes());
        let mut admitted_bytes = 0u64;
        let mut groups: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        let mut hints: BTreeMap<NodeId, Vec<(ObjectId, u64)>> = BTreeMap::new();
        let mut unlocated: Vec<ObjectId> = Vec::new();
        for (object, info) in objects.into_iter().zip(infos) {
            let located = info
                .as_ref()
                .and_then(|i| i.fetch_holder(object, me).map(|h| (h, i.size)));
            let Some((holder, size)) = located else {
                unlocated.push(object);
                continue;
            };
            // Demand travels whether or not we prefetch: the fan-in
            // beyond the single coalesced request frame (`waiters - 1`)
            // is what the holder's counters cannot see from the wire.
            let fan_in = self.watchers.get(&object).map_or(0, |w| w.len() as u64);
            if fan_in > 1 {
                hints.entry(holder).or_default().push((object, fan_in - 1));
            }
            if size > budget {
                // Could not become resident even with everything
                // evictable gone: prefetching would move bytes only to
                // fail the put.
                self.stats.prefetch_skipped_capacity.inc();
                unlocated.push(object);
            } else if admitted_bytes + size > budget {
                // Fits on its own, but dependencies of tasks nearer the
                // head of the ready queue (the batch is scanned in
                // submission order) consumed the budget first —
                // prioritization under a tight budget, not a capacity
                // verdict. Resolves reactively.
                self.stats.prefetch_deferred_priority.inc();
                unlocated.push(object);
            } else {
                admitted_bytes += size;
                groups.entry(holder).or_default().push(object);
            }
        }
        for (holder, entries) in &hints {
            (self.services.replicate_hint)(*holder, entries);
        }
        let sent_at_nanos = rtml_common::time::now_nanos();
        for (holder, group) in &groups {
            self.services.agent.request_many(
                group,
                *holder,
                self.config.fetch_timeout,
                &self.fetch_tx,
            );
            for object in group {
                self.inbound.insert(*object, sent_at_nanos);
            }
        }
        if !groups.is_empty() {
            self.services.events.append_many(
                me,
                groups
                    .values()
                    .flatten()
                    .map(|object| Event {
                        at_nanos: sent_at_nanos,
                        component: Component::LocalScheduler,
                        kind: EventKind::PrefetchIssued {
                            object: *object,
                            node: me,
                        },
                    })
                    .collect(),
            );
        }
        for object in unlocated {
            self.spawn_watcher(object);
        }
    }

    /// Answers to this scheduler's dependency requests, and whatever
    /// the node's fetch agent sealed with nobody waiting for it: the
    /// new locations (and any eviction fallout) go to the object table
    /// as one group commit, each transfer that sealed new bytes is
    /// logged from the moment its request left — a result pushed by its
    /// producer from the moment its frame did — and an object the
    /// holder could not deliver (died, evicted it) falls back to the
    /// patient per-object watcher so retry and lineage reconstruction
    /// still happen. The tasks themselves were already woken by the
    /// seal.
    fn on_fetched(&mut self, answers: Vec<(ObjectId, FetchResult)>) {
        let me = self.config.node;
        let at_nanos = rtml_common::time::now_nanos();
        commit_fetched(&self.services.objects, me, &answers);
        let mut events = Vec::new();
        for (object, result) in answers {
            let pushed_at_nanos = result
                .as_ref()
                .ok()
                .and_then(|(_, fetched)| fetched.pushed_at_nanos);
            let Some(sent_at_nanos) = self.inbound.remove(&object).or(pushed_at_nanos) else {
                // Given up on already; its watcher has it.
                continue;
            };
            match result {
                // Only fetches that actually sealed new bytes here are
                // transfers; local hits moved nothing over the wire.
                Ok((_, fetched)) if fetched.inserted => {
                    events.extend(transfer_events(
                        object,
                        fetched.from,
                        me,
                        sent_at_nanos,
                        at_nanos,
                    ));
                }
                Ok(_) => {}
                Err(_) => self.spawn_watcher(object),
            }
        }
        if !events.is_empty() {
            self.services.events.append_many(me, events);
        }
    }

    /// Gives up on requests nothing has answered within the fetch
    /// timeout (lost on the wire: a partition, a dead holder or relay)
    /// and hands their objects to the per-object watcher.
    fn expire_inbound(&mut self) {
        if self.inbound.is_empty() {
            return;
        }
        let overdue = rtml_common::time::now_nanos()
            .saturating_sub(self.config.fetch_timeout.as_nanos() as u64);
        let expired: Vec<ObjectId> = self
            .inbound
            .iter()
            .filter(|(_, sent_at_nanos)| **sent_at_nanos <= overdue)
            .map(|(object, _)| *object)
            .collect();
        for object in expired {
            self.inbound.remove(&object);
            self.spawn_watcher(object);
        }
    }

    /// Spawns the per-object watcher thread. The caller is responsible
    /// for the `resolving` bookkeeping.
    fn spawn_watcher(&self, object: ObjectId) {
        let services = self.services.clone();
        let node = self.config.node;
        let fetch_timeout = self.config.fetch_timeout;
        std::thread::Builder::new()
            .name(format!("rtml-resolver-{node}"))
            .spawn(move || resolve_object(services, object, node, fetch_timeout))
            .expect("spawn resolver");
    }

    /// Forwards a whole batch of spilling tasks to the global scheduler
    /// as one frame (`Spill` for a single task, `SpillBatch` otherwise):
    /// one state group commit, one event append, one fabric hop.
    fn spill_batch(&mut self, specs: Vec<TaskSpec>) {
        let node = self.config.node;
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        self.services
            .tasks
            .set_states_many(&ids, &TaskState::Spilled);
        let at_nanos = rtml_common::time::now_nanos();
        self.services.events.append_many(
            node,
            specs
                .iter()
                .map(|s| Event {
                    at_nanos,
                    component: Component::LocalScheduler,
                    kind: EventKind::TaskSpilled {
                        task: s.task_id,
                        from: node,
                    },
                })
                .collect(),
        );
        // Partition the batch by owning global shard (the FNV-64 task
        // keyspace split) and send one coalesced frame per shard. With
        // one shard this degenerates to the old single-frame path.
        let routes = self.services.global.clone();
        let num_shards = routes.num_shards();
        let mut groups: Vec<Vec<TaskSpec>> = vec![Vec::new(); num_shards];
        for spec in specs {
            groups[routes.shard_of(spec.task_id)].push(spec);
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let msg = if group.len() == 1 {
                SchedWire::Spill(group[0].clone())
            } else {
                SchedWire::SpillBatch(group.clone())
            };
            // Pre-size the frame: ~96 bytes per spec avoids the doubling
            // series on large spilled bursts.
            let mut w = rtml_common::codec::Writer::with_capacity(32 + 96 * group.len());
            msg.encode(&mut w);
            if self
                .services
                .fabric
                .send(self.address, routes.address_of(shard), w.into_bytes())
                .is_err()
            {
                // No global scheduler (shutdown race). Keep whatever work
                // this node can possibly run rather than losing it.
                for spec in group {
                    if self.config.total_resources.fits(&spec.resources) {
                        self.services
                            .tasks
                            .set_state(spec.task_id, &TaskState::Queued(node));
                        self.ready.push_back(spec);
                    } else {
                        self.services
                            .tasks
                            .set_state(spec.task_id, &TaskState::Lost);
                    }
                }
            }
        }
        self.load_dirty = true;
    }

    fn on_sealed(&mut self, object: ObjectId) {
        self.resolving.remove(&object);
        let Some(tasks) = self.watchers.remove(&object) else {
            return;
        };
        for task in tasks {
            if let Some((_, missing)) = self.waiting.get_mut(&task) {
                // Pin the arrived dependency on this task's behalf: LRU
                // eviction must not drop a fetched/prefetched argument
                // between arrival and execution. Released at
                // completion ([`Core::release_pins`]).
                if self.services.store.pin(object) {
                    self.task_pins.entry(task).or_default().push(object);
                }
                *missing -= 1;
                if *missing == 0 {
                    let (spec, _) = self.waiting.remove(&task).expect("present");
                    self.ready.push_back(spec);
                }
            }
        }
        self.load_dirty = true;
    }

    /// Releases every dependency pin held on `task`'s behalf.
    fn release_pins(&mut self, task: TaskId) {
        if let Some(objects) = self.task_pins.remove(&task) {
            for object in objects {
                self.services.store.unpin(object);
            }
        }
    }

    fn on_worker_done(&mut self, worker: WorkerId, task: TaskId) {
        if let Some((granted_worker, grant)) = self.running.remove(&task) {
            debug_assert_eq!(granted_worker, worker, "completion from wrong worker");
            if !self.released.remove(&task) {
                self.in_use = self.in_use.saturating_sub(&grant);
            }
        }
        self.release_pins(task);
        if self.workers.contains_key(&worker) {
            self.idle.push_back(worker);
        }
        self.load_dirty = true;
    }

    fn dispatch(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        while !self.idle.is_empty() {
            let available = self.config.total_resources.saturating_sub(&self.in_use);
            // First-fit over the ready queue: lets small tasks overtake a
            // task waiting for scarce resources (R4).
            let Some(pos) = self.ready.iter().position(|s| available.fits(&s.resources)) else {
                break;
            };
            let spec = self.ready.remove(pos).expect("position valid");
            // Before the worker can seal: what is queued behind the task.
            self.stats
                .ready_depth
                .store(self.ready.len() as u64, Relaxed);
            let worker = self.idle.pop_front().expect("non-empty");
            let Some(worker_tx) = self.workers.get(&worker) else {
                // Worker vanished between bookkeeping steps; retry.
                self.ready.insert(pos.min(self.ready.len()), spec);
                continue;
            };
            let grant = spec.resources.clone();
            let task = spec.task_id;
            if worker_tx.send(WorkerCommand::Run(spec.clone())).is_ok() {
                self.in_use = self.in_use.add(&grant);
                self.running.insert(task, (worker, grant));
                if let Some(arrived) = self.stolen_pending.remove(&task) {
                    self.stats
                        .steal
                        .steal_to_run
                        .record_duration(arrived.elapsed());
                }
            } else {
                // Dead worker: drop it and put the task back.
                self.workers.remove(&worker);
                self.ready.insert(pos.min(self.ready.len()), spec);
            }
            self.load_dirty = true;
        }
        self.stats
            .ready_depth
            .store(self.ready.len() as u64, Relaxed);
        // Nested-task deadlock avoidance: runnable work, no idle worker,
        // and at least one worker parked in get/wait -> grow the pool.
        if !self.ready.is_empty()
            && self.idle.is_empty()
            && !self.released.is_empty()
            && !self.spawn_pending
        {
            self.spawn_pending = true;
            (self.services.request_worker)();
        }
    }

    fn maybe_publish_load(&mut self) {
        let elapsed = self.last_load.elapsed();
        if self.load_dirty && elapsed >= self.config.load_interval {
            self.publish_load();
        } else if elapsed >= self.config.load_interval.saturating_mul(16) {
            // Heartbeat: even with nothing new to say, republish so the
            // report's timestamp stays fresh — peers read staleness as
            // death evidence (steal-candidate filtering, the runtime's
            // health tracker), and an idle-but-alive node must not look
            // like a ghost.
            self.publish_load();
        }
    }

    fn load_report(&self) -> LoadReport {
        LoadReport {
            node: self.config.node,
            sched_address: self.address.as_u64(),
            ready: self.ready.len() as u32,
            waiting: (self.waiting.len() + self.staged_tasks) as u32,
            running: self.running.len() as u32,
            idle_workers: self.idle.len() as u32,
            available: self.config.total_resources.saturating_sub(&self.in_use),
            total: self.config.total_resources.clone(),
            at_nanos: rtml_common::time::now_nanos(),
        }
    }

    fn publish_load(&mut self) {
        let report = self.load_report();
        self.services
            .kv
            .set(load_key(self.config.node), encode_to_bytes(&report));
        let load = encode_to_bytes(&SchedWire::Load(report));
        for target in self.services.global.all() {
            let _ = self
                .services
                .fabric
                .send(self.address, *target, load.clone());
        }
        self.load_dirty = false;
        self.last_load = Instant::now();
    }
}

/// The event pair of one completed transfer onto `to`: started when the
/// request left, fed by `from` — the holder asked, or the relay it
/// handed the request to.
fn transfer_events(
    object: ObjectId,
    from: NodeId,
    to: NodeId,
    sent_at_nanos: u64,
    at_nanos: u64,
) -> [Event; 2] {
    [
        Event {
            at_nanos: sent_at_nanos,
            component: Component::FetchAgent,
            kind: EventKind::TransferStarted { object, from, to },
        },
        Event {
            at_nanos,
            component: Component::FetchAgent,
            kind: EventKind::TransferFinished {
                object,
                to,
                micros: at_nanos.saturating_sub(sent_at_nanos) / 1_000,
            },
        },
    ]
}

/// Fetches one holder's group of objects through `agent` and commits
/// the outcome to the object table ([`commit_fetched`]). Returns the
/// per-object results in group order. The blocking fetch-and-commit
/// shared by the scheduler's per-object resolver and replication pulls;
/// the scheduler's dispatch-time requests and the runtime's `get` engine
/// issue [`FetchAgent::request_many`] themselves and commit with the
/// same function.
pub fn fetch_group_commit(
    objects: &ObjectTable,
    agent: &FetchAgent,
    group: &[ObjectId],
    holder: NodeId,
    me: NodeId,
    timeout: Duration,
) -> Vec<(ObjectId, FetchResult)> {
    let results: Vec<(ObjectId, FetchResult)> = group
        .iter()
        .copied()
        .zip(agent.fetch_many(group, holder, timeout))
        .collect();
    commit_fetched(objects, me, &results);
    results
}

/// Commits a set of fetch outcomes on node `me` to the object table as
/// group commits: one `add_location_many` for everything now local,
/// one deduplicated `remove_location_many` for the eviction fallout.
pub fn commit_fetched(objects: &ObjectTable, me: NodeId, results: &[(ObjectId, FetchResult)]) {
    let mut located: Vec<(ObjectId, u64)> = Vec::new();
    let mut evicted_all: Vec<ObjectId> = Vec::new();
    for (object, result) in results {
        if let Ok((data, outcome)) = result {
            located.push((*object, data.len() as u64));
            evicted_all.extend(outcome.evicted.iter().copied());
        }
    }
    if !located.is_empty() {
        objects.add_location_many(&located, me);
    }
    if !evicted_all.is_empty() {
        evicted_all.sort();
        evicted_all.dedup();
        objects.remove_location_many(&evicted_all, me);
    }
}

/// Watches one missing object until it is sealed into the local store.
///
/// Runs on its own short-lived thread. Terminates when the object becomes
/// local (the store's seal listener wakes the scheduler) or when the
/// control plane shuts down.
fn resolve_object(services: SchedServices, object: ObjectId, me: NodeId, fetch_timeout: Duration) {
    // The store holds the only sender, so a cleared store (node crash)
    // disconnects the channel and ends this thread.
    let (local_tx, local_rx) = crossbeam::channel::unbounded();
    let _local = services.store.subscribe_local_many(&[object], &local_tx);
    drop(local_tx);
    let (mut pending_info, stream) = services.objects.subscribe(object);
    loop {
        if services.store.contains(object) {
            return;
        }
        let info = pending_info.take().or_else(|| services.objects.get(object));
        if let Some(info) = info {
            // Same capacity headroom check as the prefetch admission
            // guard: while the object provably cannot become resident
            // (store capacity minus pinned bytes), fetching it would
            // move the full payload over the fabric only to fail the
            // put and retry — wait for the headroom instead of
            // hammering the holder's egress link every poll slice.
            let fits = info.size
                <= services
                    .store
                    .capacity_bytes()
                    .saturating_sub(services.store.pinned_bytes());
            if info.is_available() && !fits {
                // Copies exist; only residency is blocked. Fall through
                // to the timed wait below — never to reconstruction.
            } else if info.is_available() {
                if let Some(holder) = info.fetch_holder(object, me) {
                    let sent_at_nanos = rtml_common::time::now_nanos();
                    let (_, result) = fetch_group_commit(
                        &services.objects,
                        &services.agent,
                        &[object],
                        holder,
                        me,
                        fetch_timeout,
                    )
                    .pop()
                    .expect("one object in, one result out");
                    match result {
                        Ok((_, fetched)) => {
                            // Log the transfer only if this fetch sealed
                            // new bytes (not a local hit or a join of an
                            // in-flight transfer logged elsewhere).
                            if fetched.inserted {
                                let events = transfer_events(
                                    object,
                                    fetched.from,
                                    me,
                                    sent_at_nanos,
                                    rtml_common::time::now_nanos(),
                                );
                                services.events.append_many(me, events.to_vec());
                            }
                            return;
                        }
                        Err(_) => {
                            // Holder unreachable or object gone; fall
                            // through and wait for table changes.
                        }
                    }
                }
            } else if object.producer_task().is_some() || info.producer.is_some() {
                // No live copy but we know the producer (embedded in the
                // ID, or recorded in the table): ask the runtime to
                // replay lineage (idempotent; the hook deduplicates).
                (services.reconstruct)(object);
            }
        } else if object.producer_task().is_some() {
            // No record at all. Submission writes no object records, so
            // this is the ordinary in-flight look — and also what a
            // producer that died before sealing looks like. The replay
            // hook derives the producer from the ID and no-ops while
            // the task is in flight.
            (services.reconstruct)(object);
        }
        // Block until the table changes, the object seals locally, or a
        // poll interval passes (covers lost notifications and retries).
        crossbeam::channel::select! {
            recv(local_rx) -> msg => {
                if msg.is_ok() {
                    return;
                }
                // Store dropped: node is gone, give up.
                return;
            }
            recv(stream.receiver()) -> msg => {
                match msg {
                    Ok(bytes) => {
                        pending_info = decode_from_slice(&bytes).ok();
                    }
                    Err(_) => return, // control plane gone
                }
            }
            default(Duration::from_millis(20)) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rtml_common::ids::{DriverId, FunctionId};
    use rtml_common::task::ArgSpec;
    use rtml_net::FabricConfig;
    use rtml_store::{StoreConfig, TransferService};

    struct Rig {
        services: SchedServices,
        global_endpoint: rtml_net::Endpoint,
        _transfer: TransferService,
        worker_rx: Receiver<WorkerCommand>,
        worker_id: WorkerId,
        handle: LocalSchedulerHandle,
    }

    fn rig(config: LocalSchedulerConfig) -> Rig {
        rig_with_workers(config, 1)
    }

    fn rig_with_workers(config: LocalSchedulerConfig, n_workers: u32) -> Rig {
        let kv = KvStore::new(2);
        let fabric = Fabric::new(FabricConfig::default());
        let directory = TransferDirectory::new();
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node: config.node,
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let transfer = TransferService::spawn(fabric.clone(), store.clone(), &directory);
        let agent = Arc::new(FetchAgent::spawn(
            fabric.clone(),
            store.clone(),
            directory.clone(),
        ));
        let global_endpoint = fabric.register(NodeId(1000), "fake-global");
        let services = SchedServices {
            kv: kv.clone(),
            objects: ObjectTable::new(kv.clone()),
            tasks: TaskTable::new(kv.clone()),
            events: EventLog::new(kv.clone()),
            fabric,
            directory,
            store,
            agent,
            global: crate::global::GlobalRoutes::single(global_endpoint.address()),
            reconstruct: Arc::new(|_| {}),
            request_worker: Arc::new(|| {}),
            replicate_hint: Arc::new(|_, _| {}),
        };
        let (worker_tx, worker_rx) = unbounded();
        let worker_id = WorkerId::new(config.node, 0);
        let mut workers = vec![WorkerHandle {
            id: worker_id,
            tx: worker_tx,
        }];
        for i in 1..n_workers {
            let (tx, rx) = unbounded();
            // Extra workers silently discard commands.
            std::thread::spawn(move || while rx.recv().is_ok() {});
            workers.push(WorkerHandle {
                id: WorkerId::new(config.node, i),
                tx,
            });
        }
        let handle = LocalScheduler::spawn(config, services.clone(), workers);
        Rig {
            services,
            global_endpoint,
            _transfer: transfer,
            worker_rx,
            worker_id,
            handle,
        }
    }

    fn spec_with(args: Vec<ArgSpec>, idx: u64) -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        TaskSpec::simple(root.child(idx), FunctionId::from_name("f"), args)
    }

    fn recv_run(rx: &Receiver<WorkerCommand>) -> TaskSpec {
        match rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker command")
        {
            WorkerCommand::Run(spec) => spec,
            WorkerCommand::Stop => panic!("unexpected stop"),
        }
    }

    #[test]
    fn no_dep_task_dispatches_immediately() {
        let mut r = rig(LocalSchedulerConfig::default());
        let spec = spec_with(vec![], 0);
        r.handle.submit(spec.clone());
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        assert_eq!(
            r.services.tasks.get_state(spec.task_id),
            Some(TaskState::Queued(NodeId(0)))
        );
        r.handle.shutdown();
    }

    #[test]
    fn batch_submit_queues_every_task() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(8.0),
            spill: SpillMode::NeverSpill,
            ..LocalSchedulerConfig::default()
        });
        let specs: Vec<TaskSpec> = (0..6).map(|i| spec_with(vec![], i)).collect();
        r.handle.submit_batch(specs.clone());
        // One worker: the first dispatches, the rest queue.
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, specs[0].task_id);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let all_queued = specs
                .iter()
                .all(|s| matches!(r.services.tasks.get_state(s.task_id), Some(TaskState::Queued(n)) if n == NodeId(0)));
            if all_queued {
                break;
            }
            assert!(Instant::now() < deadline, "batch not fully queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        r.handle.shutdown();
    }

    #[test]
    fn batch_with_dependencies_gates_like_single_submits() {
        let mut r = rig(LocalSchedulerConfig::default());
        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(99)
            .return_object(0);
        let blocked = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        let runnable = spec_with(vec![], 1);
        r.handle
            .submit_batch(vec![blocked.clone(), runnable.clone()]);
        // The dependency-free task dispatches; the gated one waits.
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, runnable.task_id);
        assert!(r.worker_rx.recv_timeout(Duration::from_millis(80)).is_err());
        // Free the worker, then seal the dependency.
        r.handle
            .sender()
            .send(LocalMsg::WorkerDone {
                worker: r.worker_id,
                task: runnable.task_id,
            })
            .unwrap();
        r.services.store.put(dep, Bytes::from_static(b"v")).unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, blocked.task_id);
        r.handle.shutdown();
    }

    #[test]
    fn batch_spillover_travels_as_one_frame() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::Hybrid { queue_threshold: 1 },
            ..LocalSchedulerConfig::default()
        });
        let specs: Vec<TaskSpec> = (0..8).map(|i| spec_with(vec![], i)).collect();
        r.handle.submit_batch(specs);
        // The overflow beyond the threshold arrives as one SpillBatch.
        let spilled = loop {
            let d = r
                .global_endpoint
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("spill batch");
            match decode_from_slice::<SchedWire>(&d.payload).unwrap() {
                SchedWire::SpillBatch(specs) => break specs,
                _ => continue, // loads, node-up
            }
        };
        assert!(spilled.len() > 1, "expected a multi-task spill batch");
        for spec in &spilled {
            assert_eq!(
                r.services.tasks.get_state(spec.task_id),
                Some(TaskState::Spilled)
            );
        }
        r.handle.shutdown();
    }

    #[test]
    fn place_batch_from_global_does_not_respill() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::AlwaysSpill,
            ..LocalSchedulerConfig::default()
        });
        let specs: Vec<TaskSpec> = (0..3).map(|i| spec_with(vec![], i)).collect();
        let place = SchedWire::PlaceBatch {
            specs: specs.clone(),
            hops: 1,
        };
        r.services
            .fabric
            .send(
                r.global_endpoint.address(),
                r.handle.address(),
                encode_to_bytes(&place),
            )
            .unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, specs[0].task_id);
        r.handle.shutdown();
    }

    #[test]
    fn dependent_task_waits_for_local_seal() {
        let mut r = rig(LocalSchedulerConfig::default());
        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(99)
            .return_object(0);
        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        r.handle.submit(spec.clone());
        // Not dispatched while the dependency is missing.
        assert!(r.worker_rx.recv_timeout(Duration::from_millis(80)).is_err());
        // Seal the dependency locally; the seal listener wakes the
        // scheduler.
        r.services.store.put(dep, Bytes::from_static(b"v")).unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        r.handle.shutdown();
    }

    #[test]
    fn worker_done_frees_resources_for_next_task() {
        // One worker, 1 CPU: two tasks must run strictly in sequence.
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            ..LocalSchedulerConfig::default()
        });
        let a = spec_with(vec![], 0);
        let b = spec_with(vec![], 1);
        r.handle.submit(a.clone());
        r.handle.submit(b.clone());
        let first = recv_run(&r.worker_rx);
        assert_eq!(first.task_id, a.task_id);
        // Second task must not arrive while the first runs.
        assert!(r.worker_rx.recv_timeout(Duration::from_millis(80)).is_err());
        r.handle
            .sender()
            .send(LocalMsg::WorkerDone {
                worker: r.worker_id,
                task: a.task_id,
            })
            .unwrap();
        let second = recv_run(&r.worker_rx);
        assert_eq!(second.task_id, b.task_id);
        r.handle.shutdown();
    }

    #[test]
    fn infeasible_task_spills_to_global() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(4.0), // no GPU
            ..LocalSchedulerConfig::default()
        });
        let mut spec = spec_with(vec![], 0);
        spec.resources = Resources::gpu(1.0);
        r.handle.submit(spec.clone());
        // The fake global receives the spill.
        let spilled = loop {
            let d = r
                .global_endpoint
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("spill");
            match decode_from_slice::<SchedWire>(&d.payload).unwrap() {
                SchedWire::Spill(s) => break s,
                _ => continue, // loads, node-up
            }
        };
        assert_eq!(spilled.task_id, spec.task_id);
        assert_eq!(
            r.services.tasks.get_state(spec.task_id),
            Some(TaskState::Spilled)
        );
        r.handle.shutdown();
    }

    #[test]
    fn backlog_past_threshold_spills() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::Hybrid { queue_threshold: 2 },
            ..LocalSchedulerConfig::default()
        });
        // Worker takes the first task; then ready backlog builds.
        for i in 0..8 {
            r.handle.submit(spec_with(vec![], i));
        }
        let mut spills = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && spills == 0 {
            if let Ok(d) = r
                .global_endpoint
                .receiver()
                .recv_timeout(Duration::from_millis(200))
            {
                if matches!(
                    decode_from_slice::<SchedWire>(&d.payload),
                    Ok(SchedWire::Spill(_))
                ) {
                    spills += 1;
                }
            }
        }
        assert!(spills > 0, "expected at least one spill");
        r.handle.shutdown();
    }

    #[test]
    fn placement_from_global_does_not_respill() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::AlwaysSpill,
            ..LocalSchedulerConfig::default()
        });
        let spec = spec_with(vec![], 0);
        // Deliver a placement as the global scheduler would.
        let place = SchedWire::Place {
            spec: spec.clone(),
            hops: 1,
        };
        r.services
            .fabric
            .send(
                r.global_endpoint.address(),
                r.handle.address(),
                encode_to_bytes(&place),
            )
            .unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        r.handle.shutdown();
    }

    #[test]
    fn first_fit_lets_small_tasks_overtake() {
        let mut r = rig_with_workers(
            LocalSchedulerConfig {
                total_resources: Resources::new(2.0, 0.0).with_custom("slot", 1.0),
                spill: SpillMode::NeverSpill,
                ..LocalSchedulerConfig::default()
            },
            2,
        );
        // Task A consumes the only "slot"; task B (also slot) must wait;
        // task C (cpu only) overtakes B.
        let mut a = spec_with(vec![], 0);
        a.resources = Resources::cpu(1.0).with_custom("slot", 1.0);
        let mut b = spec_with(vec![], 1);
        b.resources = Resources::cpu(1.0).with_custom("slot", 1.0);
        let mut c = spec_with(vec![], 2);
        c.resources = Resources::cpu(1.0);
        r.handle.submit(a.clone());
        // Wait until A occupies the slot (worker 0 receives it).
        let first = recv_run(&r.worker_rx);
        assert_eq!(first.task_id, a.task_id);
        r.handle.submit(b.clone());
        r.handle.submit(c.clone());
        // C dispatches (to the discard worker) even though B is ahead.
        // Give the scheduler a moment, then check the task table.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let b_state = r.services.tasks.get_state(b.task_id);
            let c_queued = r.services.tasks.get_state(c.task_id).is_some();
            if c_queued && matches!(b_state, Some(TaskState::Queued(_))) {
                break;
            }
            assert!(Instant::now() < deadline, "timed out waiting for states");
            std::thread::sleep(Duration::from_millis(5));
        }
        r.handle.shutdown();
    }

    #[test]
    fn remove_worker_marks_running_task_lost() {
        let mut r = rig(LocalSchedulerConfig::default());
        let spec = spec_with(vec![], 0);
        r.handle.submit(spec.clone());
        let _ = recv_run(&r.worker_rx);
        r.handle
            .sender()
            .send(LocalMsg::RemoveWorker(r.worker_id))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if r.services.tasks.get_state(spec.task_id) == Some(TaskState::Lost) {
                break;
            }
            assert!(Instant::now() < deadline, "task never marked lost");
            std::thread::sleep(Duration::from_millis(5));
        }
        r.handle.shutdown();
    }

    #[test]
    fn load_report_published_to_kv() {
        let mut r = rig(LocalSchedulerConfig::default());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(bytes) = r.services.kv.get(&load_key(NodeId(0))) {
                let report: LoadReport = decode_from_slice(&bytes).unwrap();
                assert_eq!(report.node, NodeId(0));
                assert_eq!(report.total, Resources::cpu(4.0));
                break;
            }
            assert!(Instant::now() < deadline, "no load report");
            std::thread::sleep(Duration::from_millis(5));
        }
        r.handle.shutdown();
    }

    #[test]
    fn resolver_fetches_remote_dependency() {
        // Node 0 scheduler; dependency lives on node 7's store.
        let kv = KvStore::new(2);
        let fabric = Fabric::new(FabricConfig::default());
        let directory = TransferDirectory::new();
        let store0 = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let store7 = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(7),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let _t0 = TransferService::spawn(fabric.clone(), store0.clone(), &directory);
        let _t7 = TransferService::spawn(fabric.clone(), store7.clone(), &directory);
        let agent = Arc::new(FetchAgent::spawn(
            fabric.clone(),
            store0.clone(),
            directory.clone(),
        ));
        let global = fabric.register(NodeId(1000), "fake-global");
        let objects = ObjectTable::new(kv.clone());
        let services = SchedServices {
            kv: kv.clone(),
            objects: objects.clone(),
            tasks: TaskTable::new(kv.clone()),
            events: EventLog::new(kv.clone()),
            fabric,
            directory,
            store: store0.clone(),
            agent,
            global: crate::global::GlobalRoutes::single(global.address()),
            reconstruct: Arc::new(|_| {}),
            request_worker: Arc::new(|| {}),
            replicate_hint: Arc::new(|_, _| {}),
        };
        let (worker_tx, worker_rx) = unbounded();
        let mut handle = LocalScheduler::spawn(
            LocalSchedulerConfig::default(),
            services,
            vec![WorkerHandle {
                id: WorkerId::new(NodeId(0), 0),
                tx: worker_tx,
            }],
        );

        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(50)
            .return_object(0);
        store7.put(dep, Bytes::from_static(b"remote")).unwrap();
        objects.add_location(dep, NodeId(7), 6);

        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        handle.submit(spec.clone());
        let got = recv_run(&worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        // The object must now be local. The fetching thread commits the
        // new location after the store has sealed it, so the dispatch
        // can come first.
        assert!(store0.contains(dep));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !objects.get(dep).unwrap().locations.contains(&NodeId(0)) {
            assert!(Instant::now() < deadline, "location never committed");
            std::thread::yield_now();
        }
        handle.shutdown();
    }

    struct RemoteDepRig {
        services: SchedServices,
        store_local: Arc<ObjectStore>,
        store_remote: Arc<ObjectStore>,
        remote_service: TransferService,
        worker_rx: Receiver<WorkerCommand>,
        worker_id: WorkerId,
        handle: LocalSchedulerHandle,
        _local_service: TransferService,
        _global: rtml_net::Endpoint,
    }

    /// A node-0 scheduler plus a remote node-7 store holding
    /// dependencies, with configurable prefetch and local capacity.
    fn remote_dep_rig(prefetch: bool, local_capacity: u64) -> RemoteDepRig {
        let config = LocalSchedulerConfig {
            prefetch,
            ..LocalSchedulerConfig::default()
        };
        remote_dep_rig_with(config, local_capacity)
    }

    fn remote_dep_rig_with(config: LocalSchedulerConfig, local_capacity: u64) -> RemoteDepRig {
        remote_dep_rig_on(FabricConfig::default(), config, local_capacity)
    }

    fn remote_dep_rig_on(
        fabric: FabricConfig,
        config: LocalSchedulerConfig,
        local_capacity: u64,
    ) -> RemoteDepRig {
        let kv = KvStore::new(2);
        let fabric = Fabric::new(fabric);
        let directory = TransferDirectory::new();
        let store_local = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: local_capacity,
            ..StoreConfig::default()
        }));
        let store_remote = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(7),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let local_service = TransferService::spawn(fabric.clone(), store_local.clone(), &directory);
        let remote_service =
            TransferService::spawn(fabric.clone(), store_remote.clone(), &directory);
        let agent = Arc::new(FetchAgent::spawn(
            fabric.clone(),
            store_local.clone(),
            directory.clone(),
        ));
        let global = fabric.register(NodeId(1000), "fake-global");
        let services = SchedServices {
            kv: kv.clone(),
            objects: ObjectTable::new(kv.clone()),
            tasks: TaskTable::new(kv.clone()),
            events: EventLog::new(kv.clone()),
            fabric,
            directory,
            store: store_local.clone(),
            agent,
            global: crate::global::GlobalRoutes::single(global.address()),
            reconstruct: Arc::new(|_| {}),
            request_worker: Arc::new(|| {}),
            replicate_hint: Arc::new(|_, _| {}),
        };
        let (worker_tx, worker_rx) = unbounded();
        let worker_id = WorkerId::new(NodeId(0), 0);
        let handle = LocalScheduler::spawn(
            config,
            services.clone(),
            vec![WorkerHandle {
                id: worker_id,
                tx: worker_tx,
            }],
        );
        RemoteDepRig {
            services,
            store_local,
            store_remote,
            remote_service,
            worker_rx,
            worker_id,
            handle,
            _local_service: local_service,
            _global: global,
        }
    }

    #[test]
    fn prefetch_coalesces_batch_dependencies_into_one_request() {
        let mut r = remote_dep_rig(true, 1 << 20);
        let deps: Vec<ObjectId> = (0..8)
            .map(|i| {
                TaskId::driver_root(DriverId::from_index(0))
                    .child(100 + i)
                    .return_object(0)
            })
            .collect();
        for (i, &dep) in deps.iter().enumerate() {
            r.store_remote
                .put(dep, Bytes::from(vec![i as u8; 32]))
                .unwrap();
            r.services.objects.add_location(dep, NodeId(7), 32);
        }
        let args: Vec<ArgSpec> = deps.iter().map(|d| ArgSpec::ObjectRef(*d)).collect();
        let spec = spec_with(args, 0);
        r.handle.submit(spec.clone());
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        // All 8 dependencies crossed as ONE coalesced request frame.
        assert_eq!(r.remote_service.stats().requests.get(), 1);
        assert_eq!(r.remote_service.stats().objects_served.get(), 8);
        for dep in &deps {
            assert!(r.store_local.contains(*dep));
        }
        // Each transfer is logged as started when the request left —
        // before it finished — and fed by the holder.
        let deadline = Instant::now() + Duration::from_secs(5);
        let events = loop {
            let events = r.services.events.read_all();
            let finished = |e: &&Event| matches!(e.kind, EventKind::TransferFinished { .. });
            if events.iter().filter(finished).count() == deps.len() {
                break events;
            }
            assert!(Instant::now() < deadline, "transfers never logged");
            std::thread::sleep(Duration::from_millis(2));
        };
        for dep in &deps {
            let at = |wanted: fn(&EventKind) -> Option<ObjectId>| {
                let event = events.iter().find(|e| wanted(&e.kind) == Some(*dep));
                event.expect("logged").at_nanos
            };
            let started = at(|kind| match kind {
                EventKind::TransferStarted { object, from, to } => {
                    assert_eq!((*from, *to), (NodeId(7), NodeId(0)));
                    Some(*object)
                }
                _ => None,
            });
            let finished = at(|kind| match kind {
                EventKind::TransferFinished { object, .. } => Some(*object),
                _ => None,
            });
            assert!(started < finished);
        }
        r.handle.shutdown();
    }

    #[test]
    fn a_request_lost_on_the_wire_falls_back_to_the_watcher() {
        // The request leaves in the loop turn that queues the task and
        // vanishes in a partition. Nothing ever answers it: after the
        // fetch timeout the scheduler hands the object to the patient
        // watcher, which fetches it once the link is back.
        let mut r = remote_dep_rig_with(
            LocalSchedulerConfig {
                fetch_timeout: Duration::from_millis(30),
                ..LocalSchedulerConfig::default()
            },
            1 << 20,
        );
        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(250)
            .return_object(0);
        r.store_remote.put(dep, Bytes::from(vec![4u8; 48])).unwrap();
        r.services.objects.add_location(dep, NodeId(7), 48);
        r.services.fabric.partition(NodeId(0), NodeId(7));
        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        r.handle.submit(spec.clone());
        assert!(r
            .worker_rx
            .recv_timeout(Duration::from_millis(100))
            .is_err());
        assert_eq!(r.remote_service.stats().requests.get(), 0);
        let issued = |r: &RemoteDepRig| {
            let events = r.services.events.read_all();
            let is_issue = |e: &&Event| matches!(e.kind, EventKind::PrefetchIssued { .. });
            events.iter().filter(is_issue).count()
        };
        assert_eq!(issued(&r), 1);
        r.services.fabric.heal(NodeId(0), NodeId(7));
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        assert!(r.store_local.contains(dep));
        // The transfer is logged from the moment its request left, and
        // names who fed it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let (started, finished) = loop {
            let events = r.services.events.read_all();
            let started = events.iter().find_map(|e| match e.kind {
                EventKind::TransferStarted { from, to, .. } => Some((e.at_nanos, from, to)),
                _ => None,
            });
            let finished = events.iter().find_map(|e| match e.kind {
                EventKind::TransferFinished { micros, .. } => Some((e.at_nanos, micros)),
                _ => None,
            });
            if let (Some(started), Some(finished)) = (started, finished) {
                break (started, finished);
            }
            assert!(Instant::now() < deadline, "transfer never logged");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!((started.1, started.2), (NodeId(7), NodeId(0)));
        assert!(started.0 < finished.0, "started stamped at the end");
        assert_eq!((finished.0 - started.0) / 1_000, finished.1);
        assert_eq!(issued(&r), 1);
        r.handle.shutdown();
    }

    #[test]
    fn an_arrival_nobody_waits_for_is_listed_and_its_victims_are_not() {
        // 20 ms hops against a 5 ms wait: the reply to the request below
        // cannot land before whoever asked has gone. It is sealed into a
        // full store all the same, and somebody has to say so.
        let slow = FabricConfig {
            latency: rtml_net::LatencyModel::Constant(Duration::from_millis(20)),
            ..FabricConfig::default()
        };
        let mut r = remote_dep_rig_on(slow, LocalSchedulerConfig::default(), 32 << 20);
        let block = |i: u64| {
            TaskId::driver_root(DriverId::from_index(0))
                .child(1000 + i)
                .return_object(0)
        };
        const BLOCK: usize = 256 << 10;
        for i in 0..128 {
            r.store_local
                .put(block(i), Bytes::from(vec![i as u8; BLOCK]))
                .unwrap();
            r.services
                .objects
                .add_location(block(i), NodeId(0), BLOCK as u64);
        }
        let late = block(500);
        r.store_remote
            .put(late, Bytes::from(vec![9u8; BLOCK]))
            .unwrap();
        r.services
            .objects
            .add_location(late, NodeId(7), BLOCK as u64);
        let gone = r
            .services
            .agent
            .fetch_one(late, NodeId(7), Duration::from_millis(5));
        assert_eq!(gone.unwrap_err(), rtml_common::error::Error::Timeout);

        // Table locations stay a subset of store residency: the arrival
        // is listed here, what it evicted no longer is.
        let listed = |object: ObjectId| {
            let info = r.services.objects.get(object).expect("declared above");
            info.locations.contains(&NodeId(0))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(listed(late)
            && (0..128).all(|i| listed(block(i)) == r.store_local.contains(block(i))))
        {
            assert!(
                Instant::now() < deadline,
                "the late arrival was never owned"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(r.store_local.contains(late));
        assert!((0..128).any(|i| !r.store_local.contains(block(i))));
        r.handle.shutdown();
    }

    #[test]
    fn prefetch_off_falls_back_to_per_object_watchers() {
        let mut r = remote_dep_rig(false, 1 << 20);
        let deps: Vec<ObjectId> = (0..4)
            .map(|i| {
                TaskId::driver_root(DriverId::from_index(0))
                    .child(200 + i)
                    .return_object(0)
            })
            .collect();
        for &dep in &deps {
            r.store_remote.put(dep, Bytes::from(vec![1u8; 16])).unwrap();
            r.services.objects.add_location(dep, NodeId(7), 16);
        }
        let args: Vec<ArgSpec> = deps.iter().map(|d| ArgSpec::ObjectRef(*d)).collect();
        let spec = spec_with(args, 0);
        r.handle.submit(spec.clone());
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        // The reactive baseline pays one request frame per object.
        assert_eq!(r.remote_service.stats().requests.get(), 4);
        r.handle.shutdown();
    }

    #[test]
    fn prefetch_admission_guard_skips_objects_beyond_unpinned_capacity() {
        // Store: 256 bytes, 200 of them pinned (a running task's
        // argument). A 64-byte remote dependency does not fit in the
        // 56-byte unpinned headroom: prefetch must skip it (counted),
        // and the reactive watcher must still deliver the task once the
        // pin releases — the guard defers bytes, never work.
        let mut r = remote_dep_rig(true, 256);
        let resident = TaskId::driver_root(DriverId::from_index(0))
            .child(400)
            .return_object(0);
        r.store_local
            .put(resident, Bytes::from(vec![1u8; 200]))
            .unwrap();
        assert!(r.store_local.pin(resident));

        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(401)
            .return_object(0);
        r.store_remote.put(dep, Bytes::from(vec![9u8; 64])).unwrap();
        r.services.objects.add_location(dep, NodeId(7), 64);
        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        r.handle.submit(spec.clone());

        let deadline = Instant::now() + Duration::from_secs(5);
        while r.handle.stats().prefetch_skipped_capacity.get() == 0 {
            assert!(Instant::now() < deadline, "skip never counted");
            std::thread::sleep(Duration::from_millis(2));
        }
        // No PrefetchIssued event for the skipped object.
        let issued = r
            .services
            .events
            .read_all()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PrefetchIssued { .. }))
            .count();
        assert_eq!(issued, 0);
        // While the headroom is missing, no bytes move at all: the
        // watcher waits instead of fetch-and-fail-the-put hammering.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(r.remote_service.stats().requests.get(), 0);
        // Free the headroom: the watcher path resolves and the task runs.
        r.store_local.unpin(resident);
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        assert!(r.store_local.contains(dep));
        // Exactly one transfer crossed the wire for the dependency.
        assert_eq!(r.remote_service.stats().requests.get(), 1);
        r.handle.shutdown();
    }

    #[test]
    fn arrived_dependencies_stay_pinned_until_task_completes() {
        // Local store fits ~4 x 64B. The fetched dependency must survive
        // eviction pressure while its task is queued/running, and become
        // evictable once the task completes.
        let mut r = remote_dep_rig(true, 256);
        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(300)
            .return_object(0);
        r.store_remote.put(dep, Bytes::from(vec![9u8; 64])).unwrap();
        r.services.objects.add_location(dep, NodeId(7), 64);
        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        r.handle.submit(spec.clone());
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        // The task is running; its argument is pinned. A put that would
        // need the whole store must fail rather than evict it.
        let filler = |i: u64| {
            TaskId::driver_root(DriverId::from_index(9))
                .child(i)
                .return_object(0)
        };
        let err = r
            .store_local
            .put(filler(0), Bytes::from(vec![0u8; 250]))
            .unwrap_err();
        assert!(matches!(err, rtml_common::error::Error::StoreFull { .. }));
        assert!(r.store_local.contains(dep), "pinned argument was evicted");
        // Completion releases the pin; now the same put evicts it.
        r.handle
            .sender()
            .send(LocalMsg::WorkerDone {
                worker: r.worker_id,
                task: spec.task_id,
            })
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if r.store_local
                .put(filler(1), Bytes::from(vec![0u8; 250]))
                .is_ok()
            {
                break;
            }
            assert!(Instant::now() < deadline, "pin never released");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!r.store_local.contains(dep));
        r.handle.shutdown();
    }

    /// A kv-published load report for a fake loaded peer, pointing the
    /// steal plane at `endpoint`.
    fn publish_fake_load(
        services: &SchedServices,
        node: NodeId,
        ready: u32,
        endpoint: &rtml_net::Endpoint,
    ) {
        let report = LoadReport {
            node,
            sched_address: endpoint.address().as_u64(),
            ready,
            waiting: 0,
            running: 0,
            idle_workers: 0,
            available: Resources::cpu(0.0),
            total: Resources::cpu(4.0),
            at_nanos: rtml_common::time::now_nanos(),
        };
        services.kv.set(load_key(node), encode_to_bytes(&report));
        // Thieves look for victims among the nodes the directory lists.
        services.directory.insert(node, endpoint.address());
    }

    #[test]
    fn idle_scheduler_steals_a_granted_batch() {
        let mut r = rig(LocalSchedulerConfig {
            stealing: StealConfig {
                min_backlog: 1,
                timeout: Duration::from_millis(200),
                ..StealConfig::default()
            },
            ..LocalSchedulerConfig::default()
        });
        let victim = r.services.fabric.register(NodeId(7), "fake-victim");
        publish_fake_load(&r.services, NodeId(7), 50, &victim);
        // The idle thief must ask the loaded peer for a batch, naming
        // its full spare capacity.
        let reply_address = loop {
            let d = victim
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("steal request");
            if let Ok(SchedWire::StealRequest {
                thief,
                reply_address,
                capacity,
                max_tasks,
                ..
            }) = decode_from_slice::<SchedWire>(&d.payload)
            {
                assert_eq!(thief, NodeId(0));
                assert_eq!(capacity, Resources::cpu(4.0));
                assert!(max_tasks >= 1);
                break reply_address;
            }
        };
        // Grant two tasks as ONE frame; the thief must run them.
        let specs = vec![spec_with(vec![], 0), spec_with(vec![], 1)];
        r.services
            .fabric
            .send(
                victim.address(),
                NetAddress::from_u64(reply_address),
                encode_to_bytes(&SchedWire::StealGrant {
                    victim: NodeId(7),
                    tasks: specs.clone(),
                }),
            )
            .unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, specs[0].task_id);
        let stats = r.handle.stats().clone();
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.steal.tasks_stolen.get() < 2 {
            assert!(Instant::now() < deadline, "steal never counted");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(stats.steal.grants.get() >= 1);
        assert!(stats.steal.attempts.get() >= 1);
        // The dispatched stolen task feeds the steal-to-run histogram
        // (the scheduler thread records it just after handing the task
        // to the worker, so poll rather than race it).
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.steal.steal_to_run.count() == 0 {
            assert!(Instant::now() < deadline, "steal-to-run never recorded");
            std::thread::sleep(Duration::from_millis(2));
        }
        r.handle.shutdown();
    }

    #[test]
    fn a_thief_whose_waiting_tasks_cover_its_idle_workers_does_not_steal() {
        // One worker, idle. Its one task waits on an object that was
        // requested from node 7 the moment the task was queued — and
        // cannot arrive: the request vanished in a partition.
        let mut r = remote_dep_rig(true, 1 << 20);
        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(600)
            .return_object(0);
        r.store_remote.put(dep, Bytes::from(vec![3u8; 64])).unwrap();
        r.services.objects.add_location(dep, NodeId(7), 64);
        r.services.fabric.partition(NodeId(0), NodeId(7));
        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        r.handle.submit(spec.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.services.agent.in_flight_len() == 0 {
            assert!(Instant::now() < deadline, "dependency never requested");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A deep victim appears. The waiting task will take the idle
        // worker when its input lands: no request goes out.
        let victim = r.services.fabric.register(NodeId(9), "fake-victim");
        publish_fake_load(&r.services, NodeId(9), 50, &victim);
        assert!(victim
            .receiver()
            .recv_timeout(Duration::from_millis(100))
            .is_err());
        assert_eq!(r.handle.stats().steal.attempts.get(), 0);
        // The input arrives some other way, the task runs and finishes:
        // idle with nothing waiting, the scheduler steals (from a report
        // fresh enough not to pass for a ghost's).
        publish_fake_load(&r.services, NodeId(9), 50, &victim);
        r.store_local.put(dep, Bytes::from(vec![3u8; 64])).unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        r.handle
            .sender()
            .send(LocalMsg::WorkerDone {
                worker: r.worker_id,
                task: spec.task_id,
            })
            .unwrap();
        let request = victim
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("steal request");
        assert!(matches!(
            decode_from_slice::<SchedWire>(&request.payload),
            Ok(SchedWire::StealRequest { .. })
        ));
        r.handle.shutdown();
    }

    #[test]
    fn stale_or_dead_victims_do_not_wedge_the_steal_loop() {
        // Satellite regression: a victim that never answers (killed
        // mid-request), answers empty (queue drained), or whose
        // endpoint is gone must each leave the thief's steal loop
        // live — and local work must still dispatch.
        let mut r = rig(LocalSchedulerConfig {
            stealing: StealConfig {
                min_backlog: 1,
                timeout: Duration::from_millis(10),
                ..StealConfig::default()
            },
            ..LocalSchedulerConfig::default()
        });
        let victim = r.services.fabric.register(NodeId(7), "fake-victim");
        publish_fake_load(&r.services, NodeId(7), 50, &victim);
        let stats = r.handle.stats().clone();
        // 1) Silence: the thief must time out and attempt again.
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.steal.timeouts.get() < 1 || stats.steal.attempts.get() < 2 {
            assert!(Instant::now() < deadline, "thief wedged on a silent victim");
            std::thread::sleep(Duration::from_millis(2));
        }
        // 2) Stale victim: an empty grant is a first-class answer.
        let d = victim
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("request");
        let Ok(SchedWire::StealRequest { reply_address, .. }) =
            decode_from_slice::<SchedWire>(&d.payload)
        else {
            panic!("expected steal request");
        };
        r.services
            .fabric
            .send(
                victim.address(),
                NetAddress::from_u64(reply_address),
                encode_to_bytes(&SchedWire::StealGrant {
                    victim: NodeId(7),
                    tasks: vec![],
                }),
            )
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.steal.empty_grants.get() < 1 {
            assert!(Instant::now() < deadline, "empty grant never processed");
            std::thread::sleep(Duration::from_millis(2));
        }
        // 3) Dead victim: unregister the endpoint; sends fail fast and
        // the loop keeps cycling rather than waiting on a ghost.
        r.services.fabric.unregister(victim.address());
        let attempts_before = stats.steal.attempts.get();
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.steal.attempts.get() < attempts_before + 2 {
            assert!(Instant::now() < deadline, "thief wedged on a dead victim");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Local work still runs.
        let spec = spec_with(vec![], 9);
        r.handle.submit(spec.clone());
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        r.handle.shutdown();
    }

    #[test]
    fn steal_request_grants_half_the_queue_and_commits_ownership() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::NeverSpill,
            ..LocalSchedulerConfig::default()
        });
        // One worker, 1 cpu: the first task runs, eight sit ready.
        let specs: Vec<TaskSpec> = (0..9).map(|i| spec_with(vec![], i)).collect();
        r.handle.submit_batch(specs.clone());
        let _ = recv_run(&r.worker_rx);
        let thief = r.services.fabric.register(NodeId(9), "fake-thief");
        r.services
            .fabric
            .send(
                thief.address(),
                r.handle.address(),
                encode_to_bytes(&SchedWire::StealRequest {
                    thief: NodeId(9),
                    reply_address: thief.address().as_u64(),
                    capacity: Resources::cpu(8.0),
                    max_tasks: 16,
                    local_objects_hint: vec![],
                }),
            )
            .unwrap();
        let d = thief
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("grant");
        let Ok(SchedWire::StealGrant { victim, tasks }) =
            decode_from_slice::<SchedWire>(&d.payload)
        else {
            panic!("expected steal grant");
        };
        assert_eq!(victim, NodeId(0));
        assert_eq!(tasks.len(), 4, "half of the 8-deep ready queue");
        // Ownership was group-committed before the grant left.
        for task in &tasks {
            assert_eq!(
                r.services.tasks.get_state(task.task_id),
                Some(TaskState::Queued(NodeId(9))),
                "stolen task not committed to the thief"
            );
        }
        // The victim counts the grant just after the frame leaves; poll
        // rather than race its scheduler thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.handle.stats().steal.tasks_granted.get() != 4 {
            assert!(Instant::now() < deadline, "tasks_granted never counted");
            std::thread::sleep(Duration::from_millis(2));
        }
        r.handle.shutdown();
    }

    #[test]
    fn steal_grants_prefer_tasks_with_thief_local_dependencies() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::NeverSpill,
            ..LocalSchedulerConfig::default()
        });
        // A dependency resident here (so its task is ready) that the
        // object table also locates on the thief.
        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(70)
            .return_object(0);
        r.services
            .store
            .put(dep, Bytes::from(vec![1u8; 64]))
            .unwrap();
        r.services.objects.add_location(dep, NodeId(0), 64);
        r.services.objects.add_location(dep, NodeId(9), 64);
        let blocker = spec_with(vec![], 0);
        let plain_a = spec_with(vec![], 1);
        let local_dep = spec_with(vec![ArgSpec::ObjectRef(dep)], 2);
        let plain_b = spec_with(vec![], 3);
        r.handle.submit_batch(vec![
            blocker.clone(),
            plain_a.clone(),
            local_dep.clone(),
            plain_b.clone(),
        ]);
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, blocker.task_id);
        // Three ready tasks -> a one-task grant, and the locality score
        // must pick the task whose dependency lives on the thief.
        let thief = r.services.fabric.register(NodeId(9), "fake-thief");
        r.services
            .fabric
            .send(
                thief.address(),
                r.handle.address(),
                encode_to_bytes(&SchedWire::StealRequest {
                    thief: NodeId(9),
                    reply_address: thief.address().as_u64(),
                    capacity: Resources::cpu(8.0),
                    max_tasks: 16,
                    local_objects_hint: vec![],
                }),
            )
            .unwrap();
        let d = thief
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("grant");
        let Ok(SchedWire::StealGrant { tasks, .. }) = decode_from_slice::<SchedWire>(&d.payload)
        else {
            panic!("expected steal grant");
        };
        assert_eq!(tasks.len(), 1);
        assert_eq!(
            tasks[0].task_id, local_dep.task_id,
            "victim must grant the thief-local task first"
        );
        r.handle.shutdown();
    }

    #[test]
    fn failed_grant_send_reclaims_the_batch() {
        // The thief's endpoint is gone by the time the victim answers:
        // ownership was already committed as Queued(thief), so the
        // victim must take the batch back (re-record, re-queue) rather
        // than strand it on a ghost.
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::NeverSpill,
            ..LocalSchedulerConfig::default()
        });
        let specs: Vec<TaskSpec> = (0..5).map(|i| spec_with(vec![], i)).collect();
        r.handle.submit_batch(specs.clone());
        let first = recv_run(&r.worker_rx);
        assert_eq!(first.task_id, specs[0].task_id);
        // A request whose reply address was never registered: the grant
        // send fails after the ownership commit.
        let requester = r.services.fabric.register(NodeId(9), "fake-thief");
        r.services
            .fabric
            .send(
                requester.address(),
                r.handle.address(),
                encode_to_bytes(&SchedWire::StealRequest {
                    thief: NodeId(9),
                    reply_address: 0xdead_beef,
                    capacity: Resources::cpu(8.0),
                    max_tasks: 16,
                    local_objects_hint: vec![],
                }),
            )
            .unwrap();
        // Every task still runs locally and ends Queued(0).
        r.handle
            .sender()
            .send(LocalMsg::WorkerDone {
                worker: r.worker_id,
                task: first.task_id,
            })
            .unwrap();
        for _ in &specs[1..] {
            let ran = recv_run(&r.worker_rx);
            r.handle
                .sender()
                .send(LocalMsg::WorkerDone {
                    worker: r.worker_id,
                    task: ran.task_id,
                })
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let all_home = specs.iter().all(|s| {
                matches!(
                    r.services.tasks.get_state(s.task_id),
                    Some(TaskState::Queued(n)) if n == NodeId(0)
                )
            });
            if all_home {
                break;
            }
            assert!(Instant::now() < deadline, "batch not reclaimed");
            std::thread::sleep(Duration::from_millis(5));
        }
        r.handle.shutdown();
    }

    #[test]
    fn stale_victim_answers_with_an_empty_grant() {
        let mut r = rig(LocalSchedulerConfig::default());
        // Ready queue is empty: the grant must come back empty rather
        // than not at all (the thief's loop re-arms on any answer).
        let thief = r.services.fabric.register(NodeId(9), "fake-thief");
        r.services
            .fabric
            .send(
                thief.address(),
                r.handle.address(),
                encode_to_bytes(&SchedWire::StealRequest {
                    thief: NodeId(9),
                    reply_address: thief.address().as_u64(),
                    capacity: Resources::cpu(8.0),
                    max_tasks: 16,
                    local_objects_hint: vec![],
                }),
            )
            .unwrap();
        let d = thief
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("grant");
        match decode_from_slice::<SchedWire>(&d.payload) {
            Ok(SchedWire::StealGrant { tasks, .. }) => assert!(tasks.is_empty()),
            other => panic!("expected empty grant, got {other:?}"),
        }
        r.handle.shutdown();
    }

    #[test]
    fn prefetch_prioritizes_head_of_queue_under_tight_budget() {
        // 256-byte store, two 150-byte remote dependencies: the batch
        // head's dependency claims the prefetch budget; the second fits
        // alone but is deferred (prioritization, not capacity) and
        // resolves reactively once the head task completes.
        let mut r = remote_dep_rig(true, 256);
        let dep = |i: u64| {
            TaskId::driver_root(DriverId::from_index(0))
                .child(500 + i)
                .return_object(0)
        };
        for i in 0..2 {
            r.store_remote
                .put(dep(i), Bytes::from(vec![i as u8; 150]))
                .unwrap();
            r.services.objects.add_location(dep(i), NodeId(7), 150);
        }
        let head = spec_with(vec![ArgSpec::ObjectRef(dep(0))], 0);
        let tail = spec_with(vec![ArgSpec::ObjectRef(dep(1))], 1);
        r.handle.submit_batch(vec![head.clone(), tail.clone()]);
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.handle.stats().prefetch_deferred_priority.get() == 0 {
            assert!(Instant::now() < deadline, "deferral never counted");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            r.handle.stats().prefetch_skipped_capacity.get(),
            0,
            "a budget loss is a deferral, not a capacity skip"
        );
        // The head task runs on its prefetched dependency; completing
        // it releases the pin and the deferred dependency follows.
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, head.task_id);
        r.handle
            .sender()
            .send(LocalMsg::WorkerDone {
                worker: r.worker_id,
                task: head.task_id,
            })
            .unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, tail.task_id);
        r.handle.shutdown();
    }

    #[test]
    fn resolver_triggers_reconstruction_for_lost_object() {
        let kv = KvStore::new(2);
        let fabric = Fabric::new(FabricConfig::default());
        let directory = TransferDirectory::new();
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let _t = TransferService::spawn(fabric.clone(), store.clone(), &directory);
        let agent = Arc::new(FetchAgent::spawn(
            fabric.clone(),
            store.clone(),
            directory.clone(),
        ));
        let global = fabric.register(NodeId(1000), "fake-global");
        let objects = ObjectTable::new(kv.clone());
        let (hook_tx, hook_rx) = unbounded();
        let services = SchedServices {
            kv: kv.clone(),
            objects: objects.clone(),
            tasks: TaskTable::new(kv.clone()),
            events: EventLog::new(kv.clone()),
            fabric,
            directory,
            store,
            agent,
            global: crate::global::GlobalRoutes::single(global.address()),
            reconstruct: Arc::new(move |obj| {
                let _ = hook_tx.send(obj);
            }),
            request_worker: Arc::new(|| {}),
            replicate_hint: Arc::new(|_, _| {}),
        };
        let (worker_tx, _worker_rx) = unbounded();
        let mut handle = LocalScheduler::spawn(
            LocalSchedulerConfig::default(),
            services,
            vec![WorkerHandle {
                id: WorkerId::new(NodeId(0), 0),
                tx: worker_tx,
            }],
        );

        // A dependency whose producer is known but which has no copies.
        let root = TaskId::driver_root(DriverId::from_index(0));
        let producer = root.child(77);
        let dep = producer.return_object(0);
        objects.declare(dep, Some(producer));

        handle.submit(spec_with(vec![ArgSpec::ObjectRef(dep)], 0));
        let asked = hook_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(asked, dep);
        handle.shutdown();
    }
}
