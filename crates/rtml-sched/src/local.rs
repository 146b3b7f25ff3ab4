//! The per-node local scheduler (paper §3.2.2, Figure 3).
//!
//! One instance runs per node, as the node's one control thread. Its
//! loop reads the node's one fabric mailbox, which carries two
//! protocols: the scheduler's own frames, and the object plane's —
//! peers' requests to serve, the chunks and misses answering the node's
//! own — which go to the plane's core ([`rtml_store::PlaneCore`]) in
//! the turn they arrive. It keeps what only
//! it knows — ingest, spill, dependency gating, load reports —
//! and *pushes* what became runnable onto the node's [`RunQueue`], which
//! it shares with the node's workers. A worker takes its own next task
//! from there and never messages the loop — not even when it runs dry
//! and parks: the loop reads the idleness off the queue when its next
//! load tick publishes, as it does every change a direct admission
//! makes. A burst costs this loop no turn per task and none per worker.
//!
//! - `waiting`: tasks with unsatisfied dataflow dependencies. Their
//!   distinct missing objects are handed to the scheduler's [`Resolver`]
//!   — the engine a blocked `get` runs too — in the loop turn that
//!   queued the tasks; the loop feeds it from the channels it selects on
//!   and never blocks for it (`deps.rs` has the glue, and what only the
//!   scheduler knows: the admission budget, pins). When an
//!   object seals locally its tasks are pushed onto the run queue, the
//!   dependencies pinned for them riding along — the paper's "tasks
//!   become available for execution if and only if their dependencies
//!   have finished executing". The loop hears of exactly those seals: it
//!   registers each missing object in the store's local-seal table when
//!   the object gets its first waiting task, and a seal nobody here
//!   waits for does not wake it. The loop also commits the location of
//!   whatever the node's fetch agent seals with no waiter left to do it
//!   ([`rtml_store::FetchAgent::deliver_unclaimed_to`]).
//! - the run queue ([`crate::runq`]): runnable tasks awaiting a worker
//!   and resources, the tasks on workers with their resource grants, and
//!   the worker pool. Taking is first-fit: a small CPU task may overtake
//!   a GPU task that is waiting for a free GPU (heterogeneity, R4).
//!
//! Submissions from same-node workers arrive on an in-process channel
//! (the latency-critical path, R1) — unless the loop would accept them
//! whole and runnable, which the submitter admits itself
//! ([`crate::admit`]); placements from the global scheduler arrive over
//! the fabric; spill decisions follow the configured [`SpillMode`].
//! Either way a batch is ingested in the loop turn that receives it
//! (`Core::on_submit_batch`): the unbounded mailbox is the only queue in
//! front of this loop, so a submitter never waits for ingest and ingest
//! never defers its own work. Spill is the only way a task leaves this
//! node: nothing pulls queued work away.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use rtml_common::codec::{decode_from_slice, encode_to_bytes};
use rtml_common::collections::IdMap;
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId, TaskId, WorkerId};
use rtml_common::metrics::{Counter, MetricsRegistry};
use rtml_common::resources::Resources;
use rtml_common::spin::SpinStats;
use rtml_common::task::{TaskSpec, TaskState};
use rtml_kv::{EventLog, KvStore, ObjectTable, TaskTable};
use rtml_net::{Fabric, NetAddress};
use rtml_store::{
    FetchAgent, FetchResult, LocalSealGuard, ObjectStore, PlaneCore, TransferDirectory,
};

use crate::admit::{Admission, LocalSubmitter};
use crate::health::HealthTracker;
use crate::msg::{LoadReport, LocalMsg};
use crate::resolve::{Goal, Replays, Resolver, Wiring};
use crate::runq::{Candidate, RunQueue, Runnable};
use crate::spill::SpillMode;
use crate::wire::SchedWire;

/// How often an idle scheduler loop ticks, and the least time between
/// two of its load publications; an unchanged load is republished every
/// 16 intervals as a heartbeat. The heartbeat has two readers: the
/// global scheduler, which writes off a `PlaceBatch` frame that a report
/// measured long after it was sent still does not count, and the health
/// tracker, which calls a node whose last report is older than
/// [`crate::REPORT_STALE_AFTER`] suspect.
pub const LOAD_INTERVAL: Duration = Duration::from_millis(1);

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
}

impl Default for LocalSchedulerConfig {
    fn default() -> Self {
        LocalSchedulerConfig {
            node: NodeId(0),
            total_resources: Resources::cpu(4.0),
            spill: SpillMode::default(),
            fetch_timeout: Duration::from_secs(2),
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
    /// The node table: node → address map; the scheduler lists its node
    /// there, at its own address, when it starts, and the global
    /// scheduler places only on nodes it lists.
    pub directory: Arc<TransferDirectory>,
    /// This node's object store.
    pub store: Arc<ObjectStore>,
    /// The global scheduler's address: spilled tasks and load reports
    /// go there.
    pub global: NetAddress,
    /// Peer health view: ranks the holders dependencies are pulled from
    /// and is told how each request went.
    pub health: Arc<HealthTracker>,
    /// Runtime hook into lineage reconstruction, invoked when a watched
    /// object has no live copy ([`Replay::Missing`](crate::Replay::Missing):
    /// once a tick while it is waited for, which also feeds the
    /// runtime's stuck-producer backstop and, for an object that never
    /// sealed, reads its record and no task state; and at once when it
    /// is first waited for with its last copy already lost — a
    /// dependency that has not sealed yet reads no lineage on ingest) or
    /// a whole sweep of its listed holders failed to deliver it
    /// ([`Replay::Forced`](crate::Replay::Forced)) — everything one
    /// resolver pass found, in one call. The runtime deduplicates and
    /// resubmits producing tasks. The hook runs **on the scheduler
    /// thread**: it must not block — control-plane reads and writes and
    /// unbounded channel sends only.
    pub reconstruct: Arc<dyn Fn(&Replays) + Send + Sync>,
    /// Runtime hook asking the node to grow its worker pool: invoked by
    /// the run queue, from whichever thread made it true, when runnable
    /// tasks exist, no worker is idle, and at least one worker is
    /// blocked inside `get`/`wait` (nested-task deadlock avoidance). The
    /// hook attaches the new worker to the queue, then starts its thread.
    /// The queue calls it with no lock held.
    pub request_worker: Arc<dyn Fn() + Send + Sync>,
    /// Optional runtime hook the loop runs every `interval` (the node's
    /// telemetry sample), after a turn's work once it is due, and once
    /// more as the loop exits; an idle loop wakes for it. It runs **on
    /// the scheduler thread**, like `reconstruct`: it must not block. A
    /// zero interval spins the loop.
    pub periodic: Option<(Duration, Arc<dyn Fn() + Send + Sync>)>,
}

/// Live counters for one local scheduler (beyond the event log).
#[derive(Debug, Default)]
pub struct LocalSchedulerStats {
    /// Dependencies not requested when first offered because the object
    /// would not fit in the store's unpinned capacity headroom
    /// (`capacity - pinned`): moving bytes is pointless if they cannot
    /// become resident, and evicting pinned-adjacent working state to
    /// make room would be worse. Skipped objects are offered again every
    /// tick and requested once the headroom is there.
    pub prefetch_skipped_capacity: Counter,
    /// Dependencies deferred by *prioritization* when first offered:
    /// the object fits the headroom on its own, but dependencies of
    /// tasks submitted earlier consumed the pass's budget first.
    /// Deferred objects are offered again every tick.
    pub prefetch_deferred_priority: Counter,
    /// Gauge: tasks in the ready queue, held in a worker's batch or
    /// reserved for it ([`RunQueue::reserve`]), written by the run queue
    /// inside every critical section that changes them: exact, not "as
    /// of the last dispatch pass". The node's workers read it without a
    /// lock when they seal a result: one with nothing queued behind it
    /// is pushed to its submitter's node, one of a backlog is left to
    /// the batched pull that moves a burst's results in a few frames.
    /// The spill rule reads the queue itself ([`RunQueue::backlog`]). It
    /// publishes no other data, so it is read and written relaxed.
    pub ready_depth: std::sync::atomic::AtomicU64,
    /// The delay of the cross-node frames the node's endpoint received
    /// ([`rtml_net::Endpoint::delay`]): twice it is the round trip the
    /// spill rule weighs the work ahead against.
    pub delay: Arc<rtml_net::DelayEstimate>,
    /// Runnable tasks kept on the node past the spill rule's count
    /// threshold, because the measured work ahead of them drained within
    /// one measured round trip: counted by the run queue's walk, for a
    /// reservation only once it succeeds.
    pub kept_short: Counter,
    /// Times a worker found nothing to take and went idle. A park
    /// sends nothing: a burst moves this by about the number of
    /// workers, and [`turns`](Self::turns) not at all.
    pub worker_parks: Counter,
    /// What idle workers' spins before sleeping caught and cost
    /// (`sched.spin_hits`, `sched.spin_misses`, `sched.spin_ns`; see
    /// [`crate::runq`]).
    pub spin: SpinStats,
    /// Condvar waits workers actually took: a park that a spin or a
    /// re-check ends sleeps none, a worker woken for a task another
    /// took sleeps again.
    pub worker_sleeps: Counter,
    /// Turns of the scheduler loop: one per wake-up, whatever woke it —
    /// a message, a frame, a seal or fetch answer it waits for, or its
    /// tick. A seal no waiting task needs does not move it, nor does a
    /// worker that parks.
    pub turns: Counter,
    /// The turns its timer took — its load tick, a periodic run or the
    /// object plane's reap came due and nothing had arrived — so they
    /// follow the clock, not the work. `turns − ticks` are the times
    /// another thread woke the loop.
    pub ticks: Counter,
    /// Tasks admitted on their submitter's thread ([`crate::admit`]).
    pub admitted_direct: Counter,
}

impl LocalSchedulerStats {
    /// Registers the counters some reader reads: prefetch admission,
    /// direct admission, tasks kept short, loop turns and ticks, worker
    /// parks, spins and sleeps (`sched.*`), and the
    /// `sched.round_trip_us` gauge (0 until a cross-node frame has
    /// arrived).
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        type Read = fn(&LocalSchedulerStats) -> &Counter;
        let counters: [(&str, Read); 11] = [
            ("sched.prefetch_skipped_capacity", |s| {
                &s.prefetch_skipped_capacity
            }),
            ("sched.prefetch_deferred_priority", |s| {
                &s.prefetch_deferred_priority
            }),
            ("sched.admitted_direct", |s| &s.admitted_direct),
            ("sched.kept_short", |s| &s.kept_short),
            ("sched.turns", |s| &s.turns),
            ("sched.ticks", |s| &s.ticks),
            ("sched.worker_parks", |s| &s.worker_parks),
            ("sched.spin_hits", |s| &s.spin.hits),
            ("sched.spin_misses", |s| &s.spin.misses),
            ("sched.spin_ns", |s| &s.spin.spin_ns),
            ("sched.worker_sleeps", |s| &s.worker_sleeps),
        ];
        for (name, read) in counters {
            let stats = self.clone();
            registry.register_value(name, move || read(&stats).get());
        }
        let delay = self.delay.clone();
        registry.register_value("sched.round_trip_us", move || {
            delay.round_trip().map_or(0, |d| d.as_micros() as u64)
        });
    }
}

/// Running handle for a local scheduler.
pub struct LocalSchedulerHandle {
    submitter: LocalSubmitter,
    address: NetAddress,
    node: NodeId,
    stats: Arc<LocalSchedulerStats>,
    queue: Arc<RunQueue>,
    agent: Arc<FetchAgent>,
    fabric: Arc<Fabric>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl LocalSchedulerHandle {
    /// The node's object plane as its callers see it (fetches, pushes);
    /// the scheduler's loop handles its frames.
    pub fn agent(&self) -> &Arc<FetchAgent> {
        &self.agent
    }

    /// The in-process control channel (batches go through
    /// [`Self::submitter`]).
    pub fn sender(&self) -> Sender<LocalMsg> {
        self.submitter.tx.clone()
    }

    /// How the node's own submitters — same-node workers and the driver
    /// whose home it is — hand this scheduler their batches.
    pub fn submitter(&self) -> LocalSubmitter {
        self.submitter.clone()
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

    /// The node's run queue: workers take their tasks from it, the
    /// node's [`SchedServices::request_worker`] hook attaches workers to
    /// it, blocking calls hand grants back through it.
    pub fn queue(&self) -> &Arc<RunQueue> {
        &self.queue
    }

    /// Submits a whole batch of tasks to the loop as **one** message.
    pub fn submit_batch(&self, specs: Vec<TaskSpec>) {
        let _ = self.submitter.submit(specs, false);
    }

    /// Stops scheduling and closes the run queue, and leaves the loop
    /// serving the node's object plane until [`Self::shutdown`]
    /// ([`LocalMsg::Close`]). A graceful node shutdown joins its workers
    /// in between.
    pub fn close(&self) {
        let _ = self.submitter.tx.send(LocalMsg::Close);
    }

    /// Stops the loop, scheduling or (once closed) serving the plane
    /// alone, by withdrawing the node's endpoint, and joins the thread.
    pub fn shutdown(&mut self) {
        self.fabric.unregister(self.address);
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
    /// `workers` are the node's initial worker pool, attached to the run
    /// queue before this returns — so their threads, started after it,
    /// can never find themselves unknown; more can be attached later
    /// with [`RunQueue::attach`]. The scheduler registers its fabric
    /// endpoint, lists the node in the node table at it, and announces
    /// itself to the global scheduler with its first load report.
    pub fn spawn(
        config: LocalSchedulerConfig,
        services: SchedServices,
        workers: Vec<WorkerId>,
    ) -> LocalSchedulerHandle {
        let (tx, rx) = unbounded();
        let endpoint = services.fabric.register(config.node, "node");
        let address = endpoint.address();
        let fabric = services.fabric.clone();
        let node = config.node;
        let (agent, plane) = FetchAgent::on_mailbox(
            services.fabric.clone(),
            services.store.clone(),
            &services.directory,
            address,
        );
        let agent = Arc::new(agent);
        let stats = Arc::new(LocalSchedulerStats {
            delay: endpoint.delay().clone(),
            ..LocalSchedulerStats::default()
        });
        let stats2 = stats.clone();
        let queue = Arc::new(RunQueue::new(
            config.total_resources.clone(),
            config.spill.clone(),
            services.store.clone(),
            stats.clone(),
            services.request_worker.clone(),
        ));
        for worker in workers {
            queue.attach(worker);
        }
        let queue2 = queue.clone();
        let admission = Arc::new(Admission {
            node,
            tasks: services.tasks.clone(),
            events: services.events.clone(),
            store: services.store.clone(),
            directory: services.directory.clone(),
            queue: queue.clone(),
            in_mailbox: AtomicUsize::new(0),
        });
        let submitter = LocalSubmitter {
            tx: tx.clone(),
            admission: Some(admission.clone()),
        };

        let (seal_tx, seal_rx) = unbounded();
        let seals = services.store.subscribe_local_many(&[], 1, seal_tx.clone());
        let (fetch_tx, fetch_rx) = unbounded();
        // What the agent seals with nobody left waiting for it (results
        // pushed here by their producers, replies that outlived their
        // request) is committed like the answers this loop asked for.
        agent.deliver_unclaimed_to(fetch_tx.clone());
        let resolver = Resolver::new(
            Goal::Values,
            Wiring {
                node,
                objects: services.objects.clone(),
                store: Some(services.store.clone()),
                agent: Some(agent.clone()),
                answers: fetch_tx,
                health: services.health.clone(),
                fetch_timeout: config.fetch_timeout,
            },
        );
        let join = std::thread::Builder::new()
            .name(format!("rtml-lsched-{node}"))
            .spawn(move || {
                let mut core = Core {
                    config,
                    services,
                    address,
                    stats: stats2,
                    queue: queue2,
                    admission,
                    waiting: IdMap::default(),
                    watchers: IdMap::default(),
                    _seal_tx: seal_tx,
                    seals,
                    resolver,
                    plane,
                    published: None,
                    last_load: Instant::now() - Duration::from_secs(1),
                    last_flush: Instant::now(),
                    ingested: 0,
                };
                core.announce();
                let events = core.services.events.clone();
                let closed = core.run(&rx, &endpoint, seal_rx, fetch_rx);
                // The scheduling state goes; a closed loop's plane serves
                // on until the handle withdraws the endpoint, and the
                // node's last events, its workers' included, go to the
                // log. A loop stopped without a close (a killed node)
                // flushes nothing more.
                let mut plane = core.into_plane();
                if closed {
                    plane.run(&endpoint);
                    events.flush(node);
                }
            })
            .expect("spawn local scheduler");

        LocalSchedulerHandle {
            submitter,
            address,
            node,
            stats,
            queue,
            agent,
            fabric,
            join: Some(join),
        }
    }
}

/// A task gated on its dependencies.
pub(crate) struct Waiting {
    pub(crate) spec: TaskSpec,
    /// Distinct objects still missing.
    pub(crate) missing: usize,
    /// Dependencies that arrived and were pinned on the task's behalf,
    /// so LRU eviction cannot drop a fetched argument between arrival
    /// and execution. They go onto the run queue with the task.
    pub(crate) pins: Vec<ObjectId>,
    /// Placed here by the global scheduler: it runs here once runnable,
    /// whatever the backlog then.
    pub(crate) via_global: bool,
}

pub(crate) struct Core {
    pub(crate) config: LocalSchedulerConfig,
    pub(crate) services: SchedServices,
    pub(crate) address: NetAddress,
    pub(crate) stats: Arc<LocalSchedulerStats>,
    /// Runnable and running tasks and the worker pool, shared with the
    /// workers. This loop only pushes onto it and reads it.
    pub(crate) queue: Arc<RunQueue>,
    /// What it admits batches with, shared with the node's submitters.
    pub(crate) admission: Arc<Admission>,
    /// Tasks short of a dependency.
    pub(crate) waiting: IdMap<TaskId, Waiting>,
    /// missing object → tasks waiting on it.
    pub(crate) watchers: IdMap<ObjectId, Vec<TaskId>>,
    /// Where the store wakes this loop when a key of `watchers` sealed.
    /// This loop keeps a sender, so the channel never disconnects.
    pub(crate) _seal_tx: Sender<()>,
    /// The keys of `watchers`, registered in the store's local-seal table
    /// when they got their first waiter: each registration ends when its
    /// object seals here (the loop takes what fired when woken), and
    /// what is left is withdrawn when the loop exits and drops this.
    pub(crate) seals: LocalSealGuard,
    /// Resolves the keys of `watchers`: added when an object gets its
    /// first waiter, retired when it seals here. Its requests are
    /// answered on the channel `run` holds the other end of.
    pub(crate) resolver: Resolver,
    /// The node's object plane: handles the frames of this loop's
    /// mailbox that are not the scheduler's.
    pub(crate) plane: PlaneCore,
    /// The load report last published, with the `ingested` it went out
    /// with. Workers take and finish tasks without telling this loop, so
    /// a report goes out when the node's load *reads* different, not
    /// when the loop did something.
    pub(crate) published: Option<(LoadReport, u64)>,
    pub(crate) last_load: Instant,
    /// When the loop last appended the node's event buffer.
    pub(crate) last_flush: Instant,
    /// `PlaceBatch` tasks ingested from the global scheduler, ever: each
    /// load frame — and each spill — carries the count, so the scheduler
    /// knows which of its placements the report beside it contains.
    pub(crate) ingested: u64,
}

impl Core {
    /// Runs the scheduler until [`LocalMsg::Close`] (returns `true`) or
    /// until its endpoint is withdrawn (`false`), then takes the last
    /// periodic run and closes the run queue.
    fn run(
        &mut self,
        rx: &Receiver<LocalMsg>,
        endpoint: &rtml_net::Endpoint,
        seal_rx: Receiver<()>,
        fetch_rx: Receiver<(ObjectId, FetchResult)>,
    ) -> bool {
        let records = self.resolver.updates().clone();
        let mut due = self
            .services
            .periodic
            .as_ref()
            .map(|(every, _)| Instant::now() + *every);
        let closed = loop {
            let wake = due.map_or(self.plane.next_tick(), |due| {
                due.min(self.plane.next_tick())
            });
            let until = wake.saturating_duration_since(Instant::now());
            let idle = LOAD_INTERVAL.min(until);
            crossbeam::channel::select! {
                recv(rx) -> msg => match msg {
                    Ok(LocalMsg::Close) => break true,
                    Err(_) => break false,
                    Ok(msg) => self.on_local(msg),
                },
                // One mailbox, two protocols. Every frame already due
                // rides this turn: a burst of pushed results costs one
                // turn, and one commit of what they sealed, not one each.
                recv(endpoint.receiver()) -> delivery => match delivery {
                    Ok(delivery) => {
                        let due = endpoint.receiver().try_iter();
                        let now_nanos = rtml_common::time::now_nanos();
                        for delivery in std::iter::once(delivery).chain(due) {
                            endpoint.received(&delivery, now_nanos);
                            if PlaneCore::takes(&delivery.payload) {
                                self.plane.on_frame(delivery);
                            } else {
                                self.on_net(delivery.from, delivery.payload);
                            }
                        }
                    }
                    Err(_) => break false,
                },
                // One wake-up for every seal since the last turn took
                // them.
                recv(seal_rx) -> _ => {
                    for object in self.seals.take(1) {
                        self.on_sealed(object);
                    }
                }
                // Whatever else was answered or recorded meanwhile rides
                // the same turn: one group commit, one round of requests.
                recv(fetch_rx) -> answer => {
                    let mut answers: Vec<_> = answer.into_iter().collect();
                    answers.extend(fetch_rx.try_iter());
                    self.on_fetched(answers);
                }
                recv(records) -> record => {
                    for record in record.into_iter().chain(records.try_iter()) {
                        self.resolver.on_update(record);
                    }
                }
                default(idle) => self.stats.ticks.inc(),
            }
            self.stats.turns.inc();
            self.resolve_dependencies();
            self.maybe_publish_load();
            let now = Instant::now();
            // The node's events reach the log on the load tick: one
            // frame per stream, off every submitter's and worker's path.
            if now - self.last_flush >= LOAD_INTERVAL {
                self.services.events.flush(self.config.node);
                self.last_flush = now;
            }
            self.plane.tick(now);
            if let (Some((every, hook)), Some(due)) = (&self.services.periodic, due.as_mut()) {
                if now >= *due {
                    hook();
                    *due = now + *every;
                }
            }
        };
        // The last run: what the loop did up to here is in it.
        if let Some((_, hook)) = &self.services.periodic {
            hook();
        }
        // Nothing is taken from here on: the workers wake and exit, and
        // what is queued stays `Queued(node)` for the kill repair.
        self.queue.close();
        closed
    }

    /// The object plane, the rest of the loop's state dropped.
    fn into_plane(self) -> PlaneCore {
        self.plane
    }

    /// Announces the node: its first load report. The node table lists
    /// it at this loop's address already, so the global scheduler places
    /// on it from this report on.
    fn announce(&mut self) {
        let report = self.load_report();
        self.publish_load(report);
    }

    fn on_local(&mut self, msg: LocalMsg) {
        match msg {
            LocalMsg::SubmitBatch(specs) => {
                self.on_submit_batch(specs, false);
                self.admission.in_mailbox.fetch_sub(1, SeqCst);
            }
            LocalMsg::RemoveWorker(worker) => self.remove_worker(worker),
            LocalMsg::Close => unreachable!("handled by run()"),
        }
    }

    fn on_net(&mut self, from: NetAddress, payload: bytes::Bytes) {
        if let Ok(SchedWire::PlaceBatch { specs }) = decode_from_slice(&payload) {
            // Counted before the ingest, which may spill an infeasible
            // task on: the count and the spill's report then agree.
            if from == self.services.global {
                self.ingested += specs.len() as u64;
            }
            self.on_submit_batch(specs, true)
        }
    }

    /// A worker died (failure injection): whatever it had taken from
    /// the queue, started or not, is lost with it.
    fn remove_worker(&mut self, worker: WorkerId) {
        let lost = self.queue.detach(worker);
        self.services.tasks.set_states_many(&lost, &TaskState::Lost);
        self.services.events.append(
            self.config.node,
            Event::now(Component::LocalScheduler, EventKind::WorkerLost { worker }),
        );
    }

    /// Ingests a batch in the loop turn that received it: the same
    /// decisions as N sequential single submissions, but with one
    /// spill/dependency scan over the batch, one group-committed state
    /// write, one event-log frame, and (when tasks must travel) one
    /// fabric frame — per-task costs become per-batch costs (R2). Batches
    /// are ingested in arrival order, so every spill decision and state
    /// write follows the order the senders sent in.
    ///
    /// `via_global` marks placements made by the global scheduler,
    /// which must not spill again (except when the node genuinely can
    /// never satisfy the demand — stale capacity information).
    pub(crate) fn on_submit_batch(&mut self, specs: Vec<TaskSpec>, via_global: bool) {
        let started = Instant::now();
        // Each task's distinct unmet dependencies, found before the spill
        // rule's walk, which calls nothing under the queue's lock. Arg
        // lists are short, so a Vec with a linear dedup beats a hash set
        // per task. `store.contains` takes the object store's lock, and
        // batches overwhelmingly share dependencies (fan-out from one
        // input), so it is asked once per *distinct* object. An object
        // sealing mid-batch is caught downstream: registering it below
        // announces it at once.
        let (store, mut present) = (&self.services.store, IdMap::default());
        let tasks: Vec<(TaskSpec, Vec<ObjectId>)> = specs
            .into_iter()
            .map(|spec| {
                let mut missing = Vec::new();
                for object in spec.dependencies() {
                    let here = *present
                        .entry(object)
                        .or_insert_with(|| store.contains(object));
                    if !here && !missing.contains(&object) {
                        missing.push(object);
                    }
                }
                (spec, missing)
            })
            .collect();
        // One walk of the spill rule, whose backlog advances as runnable
        // tasks are kept: the queue depths a sequential loop would see.
        let candidates: Vec<Candidate> = tasks
            .iter()
            .map(|(spec, missing)| Candidate {
                spec,
                runnable: missing.is_empty(),
                placed: via_global,
            })
            .collect();
        let verdicts = self.queue.judge(&candidates, self.admission.alone());

        // Gate each kept task on its dependencies, collecting the objects
        // nobody here waited for yet, in submission order, so the store
        // and the resolver take the batch's whole set at once (one
        // local-seal registration, which announces at once an object
        // that sealed since the presence check above; one table
        // registration; one request per holder when this turn's pump
        // runs). What needs nothing goes to the workers as one push.
        let mut queued: Vec<TaskId> = Vec::with_capacity(tasks.len());
        let mut spilled: Vec<TaskSpec> = Vec::new();
        let mut unresolved: Vec<ObjectId> = Vec::new();
        let mut runnable: Vec<Runnable> = Vec::new();
        for ((spec, missing), verdict) in tasks.into_iter().zip(verdicts) {
            if verdict.spills() {
                spilled.push(spec);
                continue;
            }
            queued.push(spec.task_id);
            if missing.is_empty() {
                runnable.push(spec.into());
                continue;
            }
            let count = missing.len();
            for object in missing {
                let waiters = self.watchers.entry(object).or_default();
                if waiters.is_empty() {
                    unresolved.push(object);
                }
                waiters.push(spec.task_id);
            }
            let waiting = Waiting {
                spec,
                missing: count,
                pins: Vec::new(),
                via_global,
            };
            self.waiting.insert(waiting.spec.task_id, waiting);
        }
        // The loop pushes only while its queue is open: nothing comes back.
        let left: Vec<TaskId> = spilled.iter().map(|s| s.task_id).collect();
        let _ = self
            .admission
            .admit(&queued, &left, runnable, started, false);
        self.seals.add(&unresolved);
        self.resolver.add(&unresolved);
        if !spilled.is_empty() {
            self.spill_batch(spilled);
        }
    }

    /// Publishes the node's load when it reads different from what was
    /// last published (at most once a [`LOAD_INTERVAL`]), and as a
    /// heartbeat.
    fn maybe_publish_load(&mut self) {
        let elapsed = self.last_load.elapsed();
        if elapsed < LOAD_INTERVAL {
            return;
        }
        let report = self.load_report();
        // Heartbeat: even with nothing new to say, republish so the
        // report's timestamp stays fresh — the health tracker reads
        // staleness as death evidence, and an idle-but-alive node must
        // not look like a ghost.
        let heartbeat = elapsed >= LOAD_INTERVAL.saturating_mul(16);
        // The global scheduler counts its placements here as in flight
        // until a report says they were ingested, so an ingest is news
        // even when the load reads the same as before it.
        let ingested = self.ingested;
        let load = |r: &LoadReport| (r.ready, r.waiting, r.running, r.idle_workers);
        let same = |(last, last_ingested): &(LoadReport, u64)| {
            load(last) == load(&report)
                && last.available == report.available
                && *last_ingested == ingested
        };
        if heartbeat || !self.published.as_ref().is_some_and(same) {
            self.publish_load(report);
        }
    }

    pub(crate) fn load_report(&self) -> LoadReport {
        let load = self.queue.load();
        LoadReport {
            node: self.config.node,
            sched_address: self.address.as_u64(),
            ready: load.ready as u32,
            waiting: self.waiting.len() as u32,
            running: load.running as u32,
            idle_workers: load.idle as u32,
            available: load.available,
            total: self.config.total_resources.clone(),
            at_nanos: rtml_common::time::now_nanos(),
        }
    }

    /// Hands `report` to the health tracker and sends it to the global
    /// scheduler in a `Load` frame, with how many of the scheduler's
    /// placements it contains.
    fn publish_load(&mut self, report: LoadReport) {
        self.services.health.heard(&report);
        let load = encode_to_bytes(&SchedWire::Load {
            report: report.clone(),
            ingested: self.ingested,
        });
        let _ = self
            .services
            .fabric
            .send(self.address, self.services.global, load);
        self.published = Some((report, self.ingested));
        self.last_load = Instant::now();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::runq::RunTime;
    use bytes::Bytes;
    use rtml_common::ids::{DriverId, FunctionId};
    use rtml_common::task::ArgSpec;
    use rtml_net::FabricConfig;
    use rtml_store::StoreConfig;
    use std::sync::atomic::AtomicBool;

    struct Rig {
        services: SchedServices,
        global_endpoint: rtml_net::Endpoint,
        worker_rx: Receiver<TaskSpec>,
        worker_done: Sender<()>,
        worker_id: WorkerId,
        handle: LocalSchedulerHandle,
    }

    /// A stand-in for worker `id`'s thread: takes batches from the run
    /// queue, shows the test each task as it starts (the receiver), and
    /// finishes it — starting the next of its batch, or taking the next
    /// batch — when the test says so (a `()` on the sender). A task's
    /// run time is the time from showing it to being told.
    fn fake_worker(queue: &Arc<RunQueue>, id: WorkerId) -> (Receiver<TaskSpec>, Sender<()>) {
        let (taken_tx, taken_rx) = unbounded();
        let (done_tx, done_rx) = unbounded();
        let queue = queue.clone();
        std::thread::spawn(move || {
            while let Some(batch) = queue.next(id, None) {
                let mut next = Some(batch.first);
                while let Some(spec) = next {
                    let (function, started) = (spec.function, Instant::now());
                    if taken_tx.send(spec).is_err() || done_rx.recv().is_err() {
                        return;
                    }
                    let took = started.elapsed();
                    next = queue.start(id, &[], RunTime { function, took });
                }
            }
        });
        (taken_rx, done_tx)
    }

    fn rig(config: LocalSchedulerConfig) -> Rig {
        rig_with_workers(config, 1)
    }

    fn rig_with_workers(config: LocalSchedulerConfig, n_workers: u32) -> Rig {
        rig_on(config, n_workers, None)
    }

    fn rig_on(
        config: LocalSchedulerConfig,
        n_workers: u32,
        periodic: Option<(Duration, Arc<dyn Fn() + Send + Sync>)>,
    ) -> Rig {
        let kv = KvStore::new(2);
        let fabric = Fabric::new(FabricConfig::default());
        let directory = TransferDirectory::new();
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node: config.node,
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let global_endpoint = fabric.register(NodeId(1000), "fake-global");
        // A peer in the node table: a node alone would keep every task
        // the tests send to the global scheduler.
        directory.insert(NodeId(1000), global_endpoint.address());
        let services = SchedServices {
            kv: kv.clone(),
            objects: ObjectTable::new(kv.clone()),
            tasks: TaskTable::new(kv.clone()),
            events: EventLog::new(kv.clone()),
            fabric,
            directory,
            store,
            global: global_endpoint.address(),
            health: HealthTracker::new(),
            reconstruct: Arc::new(|_| {}),
            request_worker: Arc::new(|| {}),
            periodic,
        };
        let worker_id = WorkerId::new(config.node, 0);
        let workers: Vec<WorkerId> = (0..n_workers)
            .map(|i| WorkerId::new(config.node, i))
            .collect();
        let handle = LocalScheduler::spawn(config, services.clone(), workers);
        // Workers beyond the first are attached; a test that wants one
        // of them to take tasks starts its thread.
        let (worker_rx, worker_done) = fake_worker(handle.queue(), worker_id);
        Rig {
            services,
            global_endpoint,
            worker_rx,
            worker_done,
            worker_id,
            handle,
        }
    }

    fn spec_with(args: Vec<ArgSpec>, idx: u64) -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        TaskSpec::simple(root.child(idx), FunctionId::from_name("f"), args)
    }

    fn recv_run(rx: &Receiver<TaskSpec>) -> TaskSpec {
        rx.recv_timeout(Duration::from_secs(5)).expect("task taken")
    }

    #[test]
    fn no_dep_task_dispatches_immediately() {
        let mut r = rig(LocalSchedulerConfig::default());
        let spec = spec_with(vec![], 0);
        r.handle.submit_batch(vec![spec.clone()]);
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
        r.worker_done.send(()).unwrap();
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
                SchedWire::SpillBatch { specs, .. } => break specs,
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
        r.handle.submit_batch(vec![spec.clone()]);
        // Not dispatched while the dependency is missing.
        assert!(r.worker_rx.recv_timeout(Duration::from_millis(80)).is_err());
        // Seal the dependency locally; its registration in the store's
        // local-seal table wakes the scheduler.
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
        r.handle.submit_batch(vec![a.clone()]);
        r.handle.submit_batch(vec![b.clone()]);
        let first = recv_run(&r.worker_rx);
        assert_eq!(first.task_id, a.task_id);
        // Second task must not arrive while the first runs.
        assert!(r.worker_rx.recv_timeout(Duration::from_millis(80)).is_err());
        r.worker_done.send(()).unwrap();
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
        r.handle.submit_batch(vec![spec.clone()]);
        // The fake global receives the spill.
        let spilled = loop {
            let d = r
                .global_endpoint
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("spill");
            match decode_from_slice::<SchedWire>(&d.payload).unwrap() {
                SchedWire::SpillBatch { specs, .. } => break specs,
                _ => continue, // loads, node-up
            }
        };
        assert_eq!(spilled, vec![spec.clone()]);
        assert_eq!(
            r.services.tasks.get_state(spec.task_id),
            Some(TaskState::Spilled)
        );
        r.handle.shutdown();
    }

    #[test]
    fn a_spill_nobody_receives_keeps_what_fits_in_one_commit_and_one_push() {
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::AlwaysSpill,
            ..LocalSchedulerConfig::default()
        });
        // No global scheduler at its address: every spill send fails.
        r.services.fabric.unregister(r.global_endpoint.address());
        const FEASIBLE: u64 = 8;
        let mut specs: Vec<TaskSpec> = (0..FEASIBLE).map(|i| spec_with(vec![], i)).collect();
        let mut gpu = spec_with(vec![], FEASIBLE);
        gpu.resources = Resources::gpu(1.0);
        specs.insert(4, gpu.clone());
        let state_log = rtml_kv::tables::task_table::STATE_LOG_KEY;
        let records = || r.services.kv.read_log(state_log).len();
        let before = records();
        r.handle.submit_batch(specs.clone());
        // What the node fits runs here, in order, as one push: the one
        // worker takes it as one batch.
        for spec in specs.iter().filter(|s| s.task_id != gpu.task_id) {
            assert_eq!(recv_run(&r.worker_rx).task_id, spec.task_id);
            r.worker_done.send(()).unwrap();
        }
        let lost = r.services.tasks.get_state(gpu.task_id);
        assert_eq!(lost, Some(TaskState::Lost));
        // One `Spilled` commit for the batch, then one for what stays
        // and one for what is lost: not one a task.
        assert!(records() - before <= 3, "{} records", records() - before);
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
            r.handle.submit_batch(vec![spec_with(vec![], i)]);
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
                    Ok(SchedWire::SpillBatch { .. })
                ) {
                    spills += 1;
                }
            }
        }
        assert!(spills > 0, "expected at least one spill");
        r.handle.shutdown();
    }

    /// The next `SpillBatch` the fake global receives, if one comes
    /// within `wait`.
    fn next_spill(r: &Rig, wait: Duration) -> Option<Vec<TaskSpec>> {
        let deadline = Instant::now() + wait;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            let Ok(d) = r.global_endpoint.receiver().recv_timeout(left) else {
                break;
            };
            if let Ok(SchedWire::SpillBatch { specs, .. }) = decode_from_slice(&d.payload) {
                return Some(specs);
            }
        }
        None
    }

    #[test]
    fn a_task_that_waited_for_its_input_meets_the_spill_rule_when_runnable() {
        // Four tasks submitted before their input exists: none is
        // runnable, so none spills at ingest. When the input seals they
        // become runnable together, and the backlog past the threshold
        // spills then, as one frame.
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(1.0),
            spill: SpillMode::Hybrid { queue_threshold: 1 },
            ..LocalSchedulerConfig::default()
        });
        let input = |i: u64| {
            TaskId::driver_root(DriverId::from_index(0))
                .child(900 + i)
                .return_object(0)
        };
        let gated = |task: u64, on: u64| spec_with(vec![ArgSpec::ObjectRef(input(on))], task);
        let specs: Vec<TaskSpec> = (0..4).map(|i| gated(i, 0)).collect();
        r.handle.submit_batch(specs.clone());
        assert_eq!(next_spill(&r, Duration::from_millis(100)), None);
        r.services
            .store
            .put(input(0), Bytes::from_static(b"v"))
            .unwrap();
        let spilled = next_spill(&r, Duration::from_secs(5)).expect("a spill");
        assert_eq!(spilled, specs[2..]);
        for spec in &spilled {
            let state = r.services.tasks.get_state(spec.task_id);
            assert_eq!(state, Some(TaskState::Spilled));
        }
        for spec in &specs[..2] {
            assert_eq!(recv_run(&r.worker_rx).task_id, spec.task_id);
            r.worker_done.send(()).unwrap();
        }
        // The same shape placed here by the global scheduler: it runs
        // here, all of it, however deep the backlog it becomes.
        let placed: Vec<TaskSpec> = (4..8).map(|i| gated(i, 1)).collect();
        let place = SchedWire::PlaceBatch {
            specs: placed.clone(),
        };
        let from = r.global_endpoint.address();
        let sent = r
            .services
            .fabric
            .send(from, r.handle.address(), encode_to_bytes(&place));
        sent.unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.services.tasks.get_state(placed[3].task_id) != Some(TaskState::Queued(NodeId(0))) {
            assert!(Instant::now() < deadline, "placement never ingested");
            std::thread::sleep(Duration::from_millis(1));
        }
        r.services
            .store
            .put(input(1), Bytes::from_static(b"v"))
            .unwrap();
        for spec in &placed {
            assert_eq!(recv_run(&r.worker_rx).task_id, spec.task_id);
            r.worker_done.send(()).unwrap();
        }
        assert_eq!(next_spill(&r, Duration::from_millis(50)), None);
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
        let place = SchedWire::PlaceBatch {
            specs: vec![spec.clone()],
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
        r.handle.submit_batch(vec![a.clone()]);
        // Wait until A occupies the slot (worker 0 receives it).
        let first = recv_run(&r.worker_rx);
        assert_eq!(first.task_id, a.task_id);
        // The second worker takes what it can and never finishes it.
        let (queue, second) = (r.handle.queue().clone(), WorkerId::new(NodeId(0), 1));
        std::thread::spawn(move || queue.next(second, None));
        r.handle.submit_batch(vec![b.clone()]);
        r.handle.submit_batch(vec![c.clone()]);
        // C is taken (by the second worker) even though B is ahead.
        // Give the scheduler a moment, then check the task table — and
        // that one task is left in the queue: B, which needs the slot A
        // holds, so the second worker's task is C.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let b_state = r.services.tasks.get_state(b.task_id);
            let c_queued = r.services.tasks.get_state(c.task_id).is_some();
            let load = r.handle.queue().load();
            let b_waits = load.ready == 1 && load.running == 2;
            if c_queued && matches!(b_state, Some(TaskState::Queued(_))) && b_waits {
                break;
            }
            assert!(Instant::now() < deadline, "timed out waiting for states");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(r.handle.queue().load().running, 2);
        r.handle.shutdown();
    }

    #[test]
    fn remove_worker_marks_running_task_lost() {
        let mut r = rig(LocalSchedulerConfig::default());
        let spec = spec_with(vec![], 0);
        r.handle.submit_batch(vec![spec.clone()]);
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
    fn a_load_report_reaches_the_health_tracker_and_the_global_endpoint() {
        let mut r = rig(LocalSchedulerConfig::default());
        // The first report announces the node, at its one address.
        let sent = next_load(&r);
        assert_eq!(sent.node, NodeId(0));
        assert_eq!(sent.sched_address, r.handle.address().as_u64());
        assert_eq!(sent.total, Resources::cpu(4.0));
        // The tracker heard each report as it went out: it holds this one
        // or a later one.
        let heard = r.services.health.report(NodeId(0)).expect("a report");
        assert_eq!(heard.sched_address, sent.sched_address);
        assert!(heard.at_nanos >= sent.at_nanos);
        assert!(!r.services.health.is_suspect(NodeId(0)));
        // No kv write carries it.
        assert!(r.services.kv.scan_prefix(b"load:").is_empty());
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
        let _holder = FetchAgent::spawn(fabric.clone(), store7.clone(), &directory);
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
            global: global.address(),
            health: HealthTracker::new(),
            reconstruct: Arc::new(|_| {}),
            request_worker: Arc::new(|| {}),
            periodic: None,
        };
        let worker = WorkerId::new(NodeId(0), 0);
        let mut handle =
            LocalScheduler::spawn(LocalSchedulerConfig::default(), services, vec![worker]);
        let (worker_rx, _worker_done) = fake_worker(handle.queue(), worker);

        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(50)
            .return_object(0);
        store7.put(dep, Bytes::from_static(b"remote")).unwrap();
        objects.add_location(dep, NodeId(7), 6);

        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        handle.submit_batch(vec![spec.clone()]);
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
        remote_agent: FetchAgent,
        worker_rx: Receiver<TaskSpec>,
        worker_done: Sender<()>,
        handle: LocalSchedulerHandle,
        _global: rtml_net::Endpoint,
    }

    /// A node-0 scheduler plus a remote node-7 store holding
    /// dependencies, with configurable local capacity.
    fn remote_dep_rig(local_capacity: u64) -> RemoteDepRig {
        remote_dep_rig_with(LocalSchedulerConfig::default(), local_capacity)
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
        let remote_agent = FetchAgent::spawn(fabric.clone(), store_remote.clone(), &directory);
        let global = fabric.register(NodeId(1000), "fake-global");
        let services = SchedServices {
            kv: kv.clone(),
            objects: ObjectTable::new(kv.clone()),
            tasks: TaskTable::new(kv.clone()),
            events: EventLog::new(kv.clone()),
            fabric,
            directory,
            store: store_local.clone(),
            global: global.address(),
            health: HealthTracker::new(),
            reconstruct: Arc::new(|_| {}),
            request_worker: Arc::new(|| {}),
            periodic: None,
        };
        let worker_id = WorkerId::new(NodeId(0), 0);
        let handle = LocalScheduler::spawn(config, services.clone(), vec![worker_id]);
        let (worker_rx, worker_done) = fake_worker(handle.queue(), worker_id);
        RemoteDepRig {
            services,
            store_local,
            store_remote,
            remote_agent,
            worker_rx,
            worker_done,
            handle,
            _global: global,
        }
    }

    #[test]
    fn prefetch_coalesces_batch_dependencies_into_one_request() {
        let mut r = remote_dep_rig(1 << 20);
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
        r.handle.submit_batch(vec![spec.clone()]);
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        // All 8 dependencies crossed as ONE coalesced request frame.
        assert_eq!(r.remote_agent.stats().requests.get(), 1);
        assert_eq!(r.remote_agent.stats().objects_served.get(), 8);
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
    fn a_closed_scheduler_serves_the_object_plane_until_shutdown() {
        // A graceful node shutdown closes the scheduler, joins the
        // workers, then shuts it down. In between, a worker's fetch in
        // flight still completes and a peer still reads the node.
        let slow = FabricConfig {
            latency: rtml_net::LatencyModel::Constant(Duration::from_millis(20)),
            ..FabricConfig::default()
        };
        let mut r = remote_dep_rig_on(slow, LocalSchedulerConfig::default(), 1 << 20);
        let id = |i| {
            TaskId::driver_root(DriverId::from_index(0))
                .child(i)
                .return_object(0)
        };
        let (theirs, ours, ours_later) = (id(300), id(301), id(302));
        r.store_remote
            .put(theirs, Bytes::from_static(b"theirs"))
            .unwrap();
        r.store_local
            .put(ours, Bytes::from_static(b"ours"))
            .unwrap();
        r.store_local
            .put(ours_later, Bytes::from_static(b"later"))
            .unwrap();

        let agent = r.handle.agent().clone();
        let (done, answers) = unbounded();
        agent.request_many(&[theirs], NodeId(7), Duration::from_secs(5), &done);
        r.handle.close();
        let (object, answer) = answers.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(object, theirs);
        assert_eq!(&answer.expect("fetched while closed").0[..], b"theirs");
        let (bytes, _) = r
            .remote_agent
            .fetch_one(ours, NodeId(0), Duration::from_secs(5))
            .expect("served while closed");
        assert_eq!(&bytes[..], b"ours");
        // The run queue is closed: the worker's thread has exited.
        assert!(matches!(
            r.worker_rx.recv_timeout(Duration::from_secs(5)),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected)
        ));

        r.handle.shutdown();
        assert!(r
            .remote_agent
            .fetch_one(ours_later, NodeId(0), Duration::from_millis(200))
            .is_err());
    }

    #[test]
    fn a_request_lost_on_the_wire_is_given_up_on_and_a_later_sweep_fetches() {
        // The request leaves in the loop turn that queues the task and
        // vanishes in a partition. Nothing ever answers it: after the
        // fetch timeout the resolver gives up on it, finds the sweep of
        // the one holder exhausted, asks for the producer's replay and
        // starts a new sweep on the next tick — so the object is fetched
        // once the link is back. Only the first request is announced.
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
        r.handle.submit_batch(vec![spec.clone()]);
        assert!(r
            .worker_rx
            .recv_timeout(Duration::from_millis(100))
            .is_err());
        assert_eq!(r.remote_agent.stats().requests.get(), 0);
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
            .handle
            .agent()
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
    fn prefetch_admission_guard_skips_objects_beyond_unpinned_capacity() {
        // Store: 256 bytes, 200 of them pinned (a running task's
        // argument). A 64-byte remote dependency does not fit in the
        // 56-byte unpinned headroom: it must not be requested (counted
        // once, however many ticks offer it again), and the task must
        // still run once the pin releases — the guard defers bytes,
        // never work.
        let mut r = remote_dep_rig(256);
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
        r.handle.submit_batch(vec![spec.clone()]);

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
        // While the headroom is missing, no bytes move at all — the
        // object waits instead of fetch-and-fail-the-put hammering —
        // and a copy exists, so nobody is asked to reconstruct it.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(r.remote_agent.stats().requests.get(), 0);
        assert_eq!(r.handle.stats().prefetch_skipped_capacity.get(), 1);
        // Free the headroom: the next tick's offer is admitted and the
        // task runs.
        r.store_local.unpin(resident);
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, spec.task_id);
        assert!(r.store_local.contains(dep));
        // Exactly one transfer crossed the wire for the dependency.
        assert_eq!(r.remote_agent.stats().requests.get(), 1);
        r.handle.shutdown();
    }

    #[test]
    fn arrived_dependencies_stay_pinned_until_task_completes() {
        // Local store fits ~4 x 64B. The fetched dependency must survive
        // eviction pressure while its task is queued/running, and become
        // evictable once the task completes.
        let mut r = remote_dep_rig(256);
        let dep = TaskId::driver_root(DriverId::from_index(0))
            .child(300)
            .return_object(0);
        r.store_remote.put(dep, Bytes::from(vec![9u8; 64])).unwrap();
        r.services.objects.add_location(dep, NodeId(7), 64);
        let spec = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        r.handle.submit_batch(vec![spec.clone()]);
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
        r.worker_done.send(()).unwrap();
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

    #[test]
    fn prefetch_prioritizes_head_of_queue_under_tight_budget() {
        // 256-byte store, two 150-byte remote dependencies: the batch
        // head's dependency claims the prefetch budget; the second fits
        // alone but is deferred (prioritization, not capacity) and is
        // requested once the head task has completed.
        let mut r = remote_dep_rig(256);
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
        r.worker_done.send(()).unwrap();
        let got = recv_run(&r.worker_rx);
        assert_eq!(got.task_id, tail.task_id);
        r.handle.shutdown();
    }

    /// The next load report node 0's scheduler sent the rig's global
    /// endpoint.
    fn next_load(r: &Rig) -> LoadReport {
        loop {
            let delivery = r
                .global_endpoint
                .receiver()
                .recv_timeout(Duration::from_secs(5));
            let delivery = delivery.expect("a load report");
            if let Ok(SchedWire::Load { report, .. }) = decode_from_slice(&delivery.payload) {
                return report;
            }
        }
    }

    /// A scheduler that keeps every task where it was submitted, whose
    /// global endpoint has heard a report of its worker parked: its
    /// load reads the same from here on, so its next publication is a
    /// heartbeat, 16 load intervals after the last.
    fn quiet_rig() -> Rig {
        let r = rig(LocalSchedulerConfig {
            spill: SpillMode::NeverSpill,
            ..LocalSchedulerConfig::default()
        });
        while next_load(&r).idle_workers == 0 {}
        r
    }

    /// The loop's turns so far that something other than its timer
    /// woke (`turns − ticks`). A timer turn counts its tick before its
    /// turn, so a read between the two is retried: two reads 100 µs
    /// apart must agree.
    fn woken(stats: &LocalSchedulerStats) -> u64 {
        let read = || stats.turns.get().wrapping_sub(stats.ticks.get());
        let mut last = read();
        loop {
            std::thread::sleep(Duration::from_micros(100));
            let now = read();
            if now == last {
                return now;
            }
            last = now;
        }
    }

    /// A quiet scheduler given one batch of `n` tasks, each gated on its
    /// own object that no one has produced yet. Returns once every object
    /// is registered with the resolver.
    fn gated_batch(n: u64) -> (Rig, Vec<ObjectId>, usize, u64) {
        let r = quiet_rig();
        let subscribers = r.services.kv.subscriber_count();
        let locks = r.services.kv.stats().total_locks();
        let deps: Vec<ObjectId> = (0..n)
            .map(|i| {
                TaskId::driver_root(DriverId::from_index(0))
                    .child(7000 + i)
                    .return_object(0)
            })
            .collect();
        let specs = deps.iter().enumerate();
        r.handle.submit_batch(
            specs
                .map(|(i, dep)| spec_with(vec![ArgSpec::ObjectRef(*dep)], i as u64))
                .collect(),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.services.kv.subscriber_count() < subscribers + n as usize {
            assert!(Instant::now() < deadline, "dependencies never registered");
            std::thread::yield_now();
        }
        (r, deps, subscribers, locks)
    }

    #[test]
    fn a_batch_of_unmet_dependencies_registers_once_per_kv_shard_and_starts_no_thread() {
        let (mut r, _, _, locks_before) = gated_batch(64);
        let locks = r.services.kv.stats().total_locks() - locks_before;
        // What ingesting the batch took from the control plane: the
        // tasks' state commit and the 64 registrations, each at most one
        // lock per kv shard, plus the batch's one event frame — not one
        // lock, let alone four, per object. The load tick went on
        // meanwhile and wrote nothing there.
        let shards = r.services.kv.stats().locks_per_shard.len() as u64;
        assert!(locks <= 2 * shards + 1, "{locks} kv locks for one batch");
        // And nobody was hired to watch them. (The name such threads
        // had, in two halves: a search for it should only ever find code
        // that starts one.)
        let watcher = concat!("rtml-", "resolver");
        if let Ok(threads) = std::fs::read_dir("/proc/self/task") {
            let names =
                threads.filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok());
            let watchers: Vec<String> = names.filter(|n| n.starts_with(watcher)).collect();
            assert!(watchers.is_empty(), "watcher threads: {watchers:?}");
        }
        r.handle.shutdown();
    }

    /// The events on node 0's `LocalScheduler` stream, in push order
    /// (the log's reader sorts stably by time, and a batch's events
    /// share one instant).
    fn scheduler_events(services: &SchedServices) -> Vec<Event> {
        let events = services.events.read_all().into_iter();
        events
            .filter(|e| e.component == Component::LocalScheduler)
            .collect()
    }

    #[test]
    fn each_batch_is_ingested_in_the_turn_that_received_it_and_logs_one_span() {
        // Its load ticks log no event: each run below is a batch's
        // ingest — its tasks' `TaskQueuedLocal`, then one
        // `BatchIngested`, pushed together. One worker, which takes the
        // first task and keeps it.
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(8.0),
            spill: SpillMode::NeverSpill,
            ..LocalSchedulerConfig::default()
        });
        let before = scheduler_events(&r.services).len();
        let queue = r.handle.queue().clone();
        let ready_reaches = |depth: usize| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while queue.load().ready != depth {
                assert!(Instant::now() < deadline, "ready never reached {depth}");
                std::thread::yield_now();
            }
        };
        // A local batch of one ...
        let one = spec_with(vec![], 0);
        r.handle.submit_batch(vec![one.clone()]);
        assert_eq!(recv_run(&r.worker_rx).task_id, one.task_id);
        // ... a local batch of 64 ...
        let many: Vec<TaskSpec> = (1..65).map(|i| spec_with(vec![], i)).collect();
        r.handle.submit_batch(many.clone());
        ready_reaches(64);
        // ... and a placement off the fabric.
        let placed: Vec<TaskSpec> = (65..68).map(|i| spec_with(vec![], i)).collect();
        let place = SchedWire::PlaceBatch {
            specs: placed.clone(),
        };
        let from = r.global_endpoint.address();
        let sent = r
            .services
            .fabric
            .send(from, r.handle.address(), encode_to_bytes(&place));
        sent.unwrap();
        ready_reaches(64 + 3);
        // The thread has exited: what it logged is all there will be.
        r.handle.shutdown();
        let events = scheduler_events(&r.services);
        let runs: Vec<&[Event]> = events[before..]
            .split_inclusive(|e| matches!(e.kind, EventKind::BatchIngested { .. }))
            .collect();
        let batches = [vec![one], many, placed];
        assert_eq!(runs.len(), batches.len(), "{runs:?}");
        for (run, batch) in runs.iter().zip(&batches) {
            let (span, queued) = run.split_last().expect("never empty");
            let queued: Vec<TaskId> = queued
                .iter()
                .map(|e| match e.kind {
                    EventKind::TaskQueuedLocal {
                        task,
                        node: NodeId(0),
                    } => task,
                    ref other => panic!("unexpected {other:?}"),
                })
                .collect();
            let ids: Vec<TaskId> = batch.iter().map(|s| s.task_id).collect();
            assert_eq!(queued, ids);
            match span.kind {
                EventKind::BatchIngested { node, tasks, .. } => {
                    assert_eq!((node, tasks as usize), (NodeId(0), batch.len()))
                }
                ref other => panic!("the run ends with {other:?}"),
            }
        }
    }

    #[test]
    fn sealed_dependencies_leave_no_registration_behind() {
        let (r, deps, subscribers_before, _) = gated_batch(64);
        // The scheduler hears of a local seal only through the store's
        // per-object table: one registration per missing object, made in
        // the turn that queued its task, before the resolver's.
        let store = &r.services.store;
        assert_eq!(store.local_waiter_count(), deps.len());
        for dep in &deps {
            store.put(*dep, Bytes::from_static(b"v")).unwrap();
        }
        // A registration ends with its seal.
        assert_eq!(store.local_waiter_count(), 0);
        let _first = recv_run(&r.worker_rx);
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.services.kv.subscriber_count() != subscribers_before {
            assert!(
                Instant::now() < deadline,
                "registrations outlived the seals"
            );
            std::thread::yield_now();
        }
        assert_eq!(store.local_waiter_count(), 0);
        // A scheduler that dies with dependencies pending takes its
        // registrations with it: the table's and the store's.
        let (mut r, deps, subscribers_before, _) = gated_batch(8);
        assert_eq!(r.services.store.local_waiter_count(), deps.len());
        r.handle.shutdown();
        assert_eq!(r.services.kv.subscriber_count(), subscribers_before);
        assert_eq!(r.services.store.local_waiter_count(), 0);
    }

    #[test]
    fn a_seal_no_waiting_task_needs_leaves_the_scheduler_asleep() {
        let mut r = quiet_rig();
        let stats = r.handle.stats().clone();
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.handle.stats().worker_parks.get() == 0 {
            assert!(Instant::now() < deadline, "the worker never parked");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        // The load tick turns the loop every interval; a seal would
        // turn it between ticks.
        let before = woken(&stats);
        let object = |i: u64| {
            TaskId::driver_root(DriverId::from_index(0))
                .child(20_000 + i)
                .return_object(0)
        };
        for i in 0..1000 {
            r.services
                .store
                .put(object(i), Bytes::from_static(b"v"))
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        let wakes = woken(&stats) - before;
        assert!(wakes <= 2, "1000 seals nobody waits for: {wakes} turns");
        // A seal a waiting task needs still reaches it.
        let dep = object(5000);
        let gated = spec_with(vec![ArgSpec::ObjectRef(dep)], 0);
        r.handle.submit_batch(vec![gated.clone()]);
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.services.store.local_waiter_count() == 0 {
            assert!(Instant::now() < deadline, "the input never registered");
            std::thread::yield_now();
        }
        r.services.store.put(dep, Bytes::from_static(b"v")).unwrap();
        assert_eq!(recv_run(&r.worker_rx).task_id, gated.task_id);
        r.handle.shutdown();
    }

    #[test]
    fn the_periodic_hook_runs_on_time_and_once_on_exit() {
        let counting = |every: Duration| {
            let runs = Arc::new(Counter::new());
            let hook: Arc<dyn Fn() + Send + Sync> = {
                let runs = runs.clone();
                Arc::new(move || runs.inc())
            };
            (
                runs,
                rig_on(LocalSchedulerConfig::default(), 1, Some((every, hook))),
            )
        };
        // Due every 2 ms: the idle loop runs it on time.
        let (runs, mut r) = counting(Duration::from_millis(2));
        let deadline = Instant::now() + Duration::from_secs(1);
        while runs.get() < 3 {
            assert!(Instant::now() < deadline, "{} runs in 1 s", runs.get());
            std::thread::sleep(Duration::from_millis(1));
        }
        r.handle.shutdown();
        let after = runs.get();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.get(), after, "the hook ran after the loop exited");
        // Due in an hour: it never runs on time here, and exactly once
        // when the loop exits.
        let (runs, mut r) = counting(Duration::from_secs(3600));
        r.handle.submit_batch(vec![spec_with(vec![], 0)]);
        recv_run(&r.worker_rx);
        assert_eq!(runs.get(), 0);
        r.handle.shutdown();
        assert_eq!(runs.get(), 1);
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
            global: global.address(),
            health: HealthTracker::new(),
            reconstruct: Arc::new(move |replays| {
                for (obj, _) in replays {
                    let _ = hook_tx.send(*obj);
                }
            }),
            request_worker: Arc::new(|| {}),
            periodic: None,
        };
        let mut handle = LocalScheduler::spawn(
            LocalSchedulerConfig::default(),
            services,
            vec![WorkerId::new(NodeId(0), 0)],
        );

        // A dependency whose producer is known but which has no copies.
        let root = TaskId::driver_root(DriverId::from_index(0));
        let producer = root.child(77);
        let dep = producer.return_object(0);
        objects.declare(dep, Some(producer));

        handle.submit_batch(vec![spec_with(vec![ArgSpec::ObjectRef(dep)], 0)]);
        let asked = hook_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(asked, dep);
        handle.shutdown();
    }

    /// Waits for every task of `tasks` to read a state `done` accepts.
    fn settle_states(r: &Rig, tasks: &[TaskId], done: impl Fn(&TaskState) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let states = || r.services.tasks.get_states_many(tasks);
        while !states().iter().all(|s| s.as_ref().is_some_and(&done)) {
            assert!(Instant::now() < deadline, "never settled: {:?}", states());
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn direct_admissions_never_take_the_ready_depth_past_the_spill_threshold() {
        const THRESHOLD: usize = 2;
        let mut r = rig(LocalSchedulerConfig {
            total_resources: Resources::cpu(8.0),
            spill: SpillMode::Hybrid {
                queue_threshold: THRESHOLD,
            },
            ..LocalSchedulerConfig::default()
        });
        let submitter = r.handle.submitter();
        let stats = r.handle.stats().clone();
        // The one worker takes a first task and keeps it: nothing leaves
        // the ready queue from here on.
        let first = spec_with(vec![], 0);
        submitter.submit(vec![first.clone()], true).unwrap();
        assert_eq!(recv_run(&r.worker_rx).task_id, first.task_id);
        assert_eq!(stats.admitted_direct.get(), 1);
        // Eight threads race single runnable tasks in.
        let specs: Vec<TaskSpec> = (1..=64).map(|i| spec_with(vec![], i)).collect();
        std::thread::scope(|scope| {
            for chunk in specs.chunks(8) {
                let submitter = submitter.clone();
                scope.spawn(move || {
                    for spec in chunk {
                        submitter.submit(vec![spec.clone()], true).unwrap();
                    }
                });
            }
        });
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        settle_states(&r, &ids, |s| {
            matches!(s, TaskState::Queued(_) | TaskState::Spilled)
        });
        // Each admitted task found at most `THRESHOLD` ahead of it, so
        // `THRESHOLD + 1` were; every later one met a deeper backlog,
        // went to the loop and was spilled there, as it always was.
        let load = r.handle.queue().load();
        assert_eq!(stats.admitted_direct.get(), 1 + THRESHOLD as u64 + 1);
        assert_eq!(load.ready, THRESHOLD + 1);
        let queued = r
            .services
            .tasks
            .get_states_many(&ids)
            .into_iter()
            .filter(|s| *s == Some(TaskState::Queued(NodeId(0))))
            .count();
        assert_eq!(queued, THRESHOLD + 1);
        r.handle.shutdown();
    }

    #[test]
    fn a_batch_in_the_mailbox_is_never_overtaken_by_a_direct_admission() {
        // A periodic hook that holds the loop while `hold` is set.
        let (hold, held) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let hook: Arc<dyn Fn() + Send + Sync> = {
            let (hold, held) = (hold.clone(), held.clone());
            Arc::new(move || {
                while hold.load(SeqCst) {
                    held.store(true, SeqCst);
                    std::thread::sleep(Duration::from_micros(100));
                }
                held.store(false, SeqCst);
            })
        };
        let config = LocalSchedulerConfig {
            total_resources: Resources::cpu(8.0),
            spill: SpillMode::NeverSpill,
            ..LocalSchedulerConfig::default()
        };
        let mut r = rig_on(config, 1, Some((Duration::from_millis(1), hook)));
        let submitter = r.handle.submitter();
        let stats = r.handle.stats().clone();
        hold.store(true, SeqCst);
        while !held.load(SeqCst) {
            std::thread::yield_now();
        }
        // A batch the loop must take (its second task waits for an
        // input), then a runnable one: the second queues behind the
        // first in the mailbox instead of being admitted beside it.
        let missing = TaskId::driver_root(DriverId::from_index(0))
            .child(99)
            .return_object(0);
        let first = spec_with(vec![], 0);
        let gated = spec_with(vec![ArgSpec::ObjectRef(missing)], 1);
        let second = spec_with(vec![], 2);
        submitter.submit(vec![first.clone(), gated], true).unwrap();
        submitter.submit(vec![second.clone()], true).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(stats.admitted_direct.get(), 0);
        assert_eq!(r.handle.queue().load().ready, 0);
        hold.store(false, SeqCst);
        assert_eq!(recv_run(&r.worker_rx).task_id, first.task_id);
        r.worker_done.send(()).unwrap();
        assert_eq!(recv_run(&r.worker_rx).task_id, second.task_id);
        // Both ingested, a runnable batch is admitted beside the loop.
        let deadline = Instant::now() + Duration::from_secs(5);
        while submitter.in_mailbox() > 0 {
            assert!(Instant::now() < deadline, "the mailbox never drained");
            std::thread::yield_now();
        }
        let third = spec_with(vec![], 3);
        submitter.submit(vec![third.clone()], true).unwrap();
        assert_eq!(stats.admitted_direct.get(), 1);
        r.worker_done.send(()).unwrap();
        assert_eq!(recv_run(&r.worker_rx).task_id, third.task_id);
        r.handle.shutdown();
    }
}
