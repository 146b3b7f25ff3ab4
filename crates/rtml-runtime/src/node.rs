//! Per-node assembly: object store + object plane (one transfer agent,
//! one thread) + local scheduler + worker pool (one column of the
//! paper's Figure 3).

use std::sync::Arc;

use crossbeam::channel::unbounded;

use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, WorkerId};
use rtml_common::metrics::Counter;
use rtml_common::resources::Resources;
use rtml_sched::{
    GlobalRoutes, LocalMsg, LocalScheduler, LocalSchedulerConfig, LocalSchedulerHandle, Replay,
    SchedServices, SpillMode,
};
use rtml_store::{FetchAgent, ObjectStore, StoreConfig, TransferStats};

use crate::lineage::ReconstructionManager;
use crate::services::Services;
use crate::worker::WorkerRuntime;

/// Static description of one node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Number of worker threads.
    pub workers: u32,
    /// CPU capacity advertised to the scheduler (defaults to `workers`).
    pub cpus: f64,
    /// GPU capacity.
    pub gpus: f64,
    /// Named custom resources.
    pub custom: Vec<(String, f64)>,
    /// Object store capacity in bytes.
    pub store_capacity: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            workers: 4,
            cpus: 4.0,
            gpus: 0.0,
            custom: Vec::new(),
            store_capacity: 256 * 1024 * 1024,
        }
    }
}

impl NodeConfig {
    /// A CPU-only node with `workers` workers (capacity = worker count).
    pub fn cpu_only(workers: u32) -> Self {
        NodeConfig {
            workers,
            cpus: workers as f64,
            ..NodeConfig::default()
        }
    }

    /// Adds GPUs builder-style.
    pub fn with_gpus(mut self, gpus: f64) -> Self {
        self.gpus = gpus;
        self
    }

    /// Adds a custom resource builder-style.
    pub fn with_custom(mut self, name: &str, amount: f64) -> Self {
        self.custom.push((name.to_string(), amount));
        self
    }

    /// Sets store capacity builder-style.
    pub fn with_store_capacity(mut self, bytes: u64) -> Self {
        self.store_capacity = bytes;
        self
    }

    /// The node's resource vector.
    pub fn total_resources(&self) -> Resources {
        let mut r = Resources::new(self.cpus, self.gpus);
        for (name, amount) in &self.custom {
            r = r.with_custom(name, *amount);
        }
        r
    }
}

/// Scheduler tuning shared by all nodes (subset of cluster config).
#[derive(Clone, Debug)]
pub struct NodeTuning {
    /// Spill rule for local schedulers.
    pub spill: SpillMode,
    /// Fetch timeout for dependency resolution.
    pub fetch_timeout: std::time::Duration,
    /// Load-report publication interval.
    pub load_interval: std::time::Duration,
    /// Maximum payload bytes per transfer frame (object chunking).
    pub transfer_chunk_bytes: u64,
    /// Pull-based work-stealing policy (see [`rtml_sched::steal`]).
    pub stealing: rtml_sched::StealConfig,
    /// Retry discipline for the local schedulers' dependency
    /// resolution (see [`rtml_common::retry`]).
    pub retry: rtml_common::retry::RetryPolicy,
    /// Per-node telemetry sampling (see [`crate::telemetry`]).
    pub telemetry: crate::telemetry::TelemetryConfig,
}

/// A live node: all per-node components plus their control handles.
pub struct NodeRuntime {
    /// Node identity.
    pub node: NodeId,
    /// The node's object store.
    pub store: Arc<ObjectStore>,
    config: NodeConfig,
    agent: Arc<FetchAgent>,
    sched: LocalSchedulerHandle,
    /// Shared with the pool-manager thread, which appends on-demand
    /// workers (nested-task deadlock avoidance).
    workers: Arc<parking_lot::Mutex<Vec<WorkerRuntime>>>,
    /// Every plane's live counters, registered once at build time.
    registry: Arc<rtml_common::metrics::MetricsRegistry>,
    /// The telemetry sampler, when the plane is on.
    sampler: Option<crate::telemetry::TelemetrySampler>,
}

impl NodeRuntime {
    /// Builds and starts all components for `node`, registering it with
    /// the shared services.
    pub fn build(
        node: NodeId,
        config: NodeConfig,
        services: &Arc<Services>,
        recon: &Arc<ReconstructionManager>,
        global: GlobalRoutes,
        tuning: &NodeTuning,
    ) -> NodeRuntime {
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node,
            capacity_bytes: config.store_capacity,
            chunk_bytes: tuning.transfer_chunk_bytes,
        }));
        let agent = Arc::new(FetchAgent::spawn(
            services.fabric.clone(),
            store.clone(),
            &services.directory,
        ));

        // Runs on the scheduler thread: kv reads and writes and unbounded
        // channel sends only (see `SchedServices::reconstruct`).
        let recon_hook = {
            let recon = recon.clone();
            Arc::new(move |object, how| match how {
                Replay::Missing => recon.handle_missing(object),
                Replay::Forced => recon.force_replay(object),
            })
        };
        let (pool_tx, pool_rx) = unbounded::<()>();
        let request_worker = Arc::new(move || {
            let _ = pool_tx.send(());
        });
        let sched_services = SchedServices {
            kv: services.kv.clone(),
            objects: services.objects.clone(),
            tasks: services.tasks.clone(),
            events: services.events.clone(),
            fabric: services.fabric.clone(),
            directory: services.directory.clone(),
            store: store.clone(),
            agent: agent.clone(),
            global,
            health: services.health.clone(),
            reconstruct: recon_hook,
            request_worker,
        };
        let worker_ids: Vec<WorkerId> = (0..config.workers)
            .map(|index| WorkerId::new(node, index))
            .collect();
        let sched = LocalScheduler::spawn(
            LocalSchedulerConfig {
                node,
                total_resources: config.total_resources(),
                spill: tuning.spill.clone(),
                fetch_timeout: tuning.fetch_timeout,
                load_interval: tuning.load_interval,
                stealing: tuning.stealing.clone(),
                retry: tuning.retry.clone(),
            },
            sched_services,
            worker_ids.clone(),
        );

        // The scheduler attached them to its run queue before `spawn`
        // returned, so no thread can come up unknown to it.
        let spawn_worker = {
            let (services, recon) = (services.clone(), recon.clone());
            move |id, queue| WorkerRuntime::spawn(id, services.clone(), recon.clone(), queue)
        };
        let workers: Vec<WorkerRuntime> = worker_ids
            .into_iter()
            .map(|id| spawn_worker(id, sched.queue().clone()))
            .collect();
        let workers = Arc::new(parking_lot::Mutex::new(workers));

        // Pool manager: grows the worker pool on the run queue's
        // request, up to a cap. Exits when the queue (and with it the
        // request hook) is gone — so it must not keep the queue alive.
        {
            let workers = workers.clone();
            let queue = Arc::downgrade(sched.queue());
            let max_workers = (config.workers as usize * 4).max(16);
            let mut next_index = config.workers;
            std::thread::Builder::new()
                .name(format!("rtml-pool-{node}"))
                .spawn(move || {
                    while pool_rx.recv().is_ok() {
                        let Some(queue) = queue.upgrade() else {
                            break;
                        };
                        if workers.lock().len() >= max_workers {
                            continue;
                        }
                        let id = WorkerId::new(node, next_index);
                        next_index += 1;
                        // Known to the queue before its thread exists.
                        queue.attach(id);
                        workers.lock().push(spawn_worker(id, queue));
                    }
                })
                .expect("spawn pool manager");
        }

        services.attach_node(
            node,
            store.clone(),
            agent.clone(),
            sched.sender(),
            config.total_resources(),
        );

        // The sensing plane: register every component's live counters
        // once, then (if enabled) sample them all into the kv-backed
        // telemetry ring on a period — one group-committed record per
        // node per interval.
        let registry = Arc::new(rtml_common::metrics::MetricsRegistry::new());
        Self::register_metrics(&registry, services, &agent, &sched, &store);
        let sampler = if tuning.telemetry.enabled {
            Some(crate::telemetry::TelemetrySampler::spawn(
                node,
                registry.clone(),
                rtml_kv::TelemetryTable::with_retention(
                    services.kv.clone(),
                    tuning.telemetry.retention,
                ),
                tuning.telemetry.interval,
            ))
        } else {
            None
        };

        NodeRuntime {
            node,
            store,
            config,
            agent,
            sched,
            workers,
            registry,
            sampler,
        }
    }

    /// Registers every plane's counters under stable dotted names.
    /// Names are per-node streams except `fabric.*` and `kv.*`, which
    /// read cluster-wide shared state (documented as aggregates).
    fn register_metrics(
        registry: &Arc<rtml_common::metrics::MetricsRegistry>,
        services: &Arc<Services>,
        agent: &Arc<FetchAgent>,
        sched: &LocalSchedulerHandle,
        store: &Arc<ObjectStore>,
    ) {
        // The object plane: what it served (`transfer.*`) and what it
        // fetched for this node (`fetch.*`).
        type Read = fn(&TransferStats) -> &Counter;
        let counters: [(&str, Read); 11] = [
            ("transfer.requests", |s| &s.requests),
            ("transfer.objects_served", |s| &s.objects_served),
            ("transfer.misses", |s| &s.misses_served),
            ("transfer.chunks_sent", |s| &s.chunks_sent),
            ("transfer.pushed", |s| &s.pushed),
            ("fetch.transfers", |s| &s.transfers),
            ("fetch.requests_sent", |s| &s.requests_sent),
            ("fetch.duplicates_suppressed", |s| &s.duplicates_suppressed),
            ("fetch.objects_fetched", |s| &s.objects_fetched),
            ("fetch.pushes_received", |s| &s.pushes_received),
            ("fetch.timeouts", |s| &s.timeouts),
        ];
        for (name, read) in counters {
            let stats = agent.stats().clone();
            registry.register_value(name, move || read(&stats).get());
        }

        // Scheduler: prefetch and steal planes.
        let stats = sched.stats().clone();
        registry.register_value("sched.prefetch_skipped_capacity", move || {
            stats.prefetch_skipped_capacity.get()
        });
        let stats = sched.stats().clone();
        registry.register_value("sched.prefetch_deferred_priority", move || {
            stats.prefetch_deferred_priority.get()
        });
        let stats = sched.stats().clone();
        registry.register_value("steal.attempts", move || stats.steal.attempts.get());
        let stats = sched.stats().clone();
        registry.register_value("steal.grants", move || stats.steal.grants.get());
        let stats = sched.stats().clone();
        registry.register_value("steal.empty_grants", move || stats.steal.empty_grants.get());
        let stats = sched.stats().clone();
        registry.register_value("steal.tasks_stolen", move || stats.steal.tasks_stolen.get());
        let stats = sched.stats().clone();
        registry.register_value("steal.tasks_granted", move || {
            stats.steal.tasks_granted.get()
        });
        let stats = sched.stats().clone();
        registry.register_histogram("steal.steal_to_run", move || {
            stats.steal.steal_to_run.snapshot()
        });

        // Local store occupancy (gauge).
        let s = store.clone();
        registry.register_value("store.used_bytes", move || s.used_bytes());
        let s = store.clone();
        registry.register_value("store.objects", move || s.len() as u64);

        // Cluster-wide shared state: the fabric and the control-plane
        // store. Same totals from every node's sampler.
        services.fabric.register_metrics(registry);
        let kv = services.kv.clone();
        registry.register_value("kv.ops", move || kv.stats().total_ops());
        let kv = services.kv.clone();
        registry.register_value("kv.locks", move || kv.stats().total_locks());
        let events = services.events.clone();
        registry.register_value("events.dropped", move || events.dropped_count());
    }

    /// The node's static configuration (used for restarts).
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The node's object-plane counters.
    pub fn transfer_stats(&self) -> &Arc<rtml_store::TransferStats> {
        self.agent.stats()
    }

    /// The node's local-scheduler counters.
    pub fn sched_stats(&self) -> &Arc<rtml_sched::LocalSchedulerStats> {
        self.sched.stats()
    }

    /// The node's metrics registry (every plane's counters, registered
    /// at build time).
    pub fn registry(&self) -> &Arc<rtml_common::metrics::MetricsRegistry> {
        &self.registry
    }

    /// Kills one worker: crash semantics (in-flight task effects
    /// discarded, scheduler notified). Returns whether the worker
    /// existed.
    pub fn kill_worker(&mut self, worker: WorkerId) -> bool {
        let mut workers = self.workers.lock();
        let Some(runtime) = workers.iter_mut().find(|w| w.id == worker) else {
            return false;
        };
        runtime.kill();
        runtime.detach();
        // The scheduler detaches it from the run queue, which wakes the
        // thread if it is parked there, and marks what it had taken lost.
        let _ = self.sched.sender().send(LocalMsg::RemoveWorker(worker));
        true
    }

    /// Simulates a whole-node crash: workers die (discarding in-flight
    /// effects), the store's contents vanish, and all registrations are
    /// withdrawn. The caller (cluster) handles task-table repair and
    /// notifying the global scheduler.
    pub fn kill(self, services: &Arc<Services>) {
        // Throw the worker kill switches BEFORE detaching the node's
        // services: a worker that observes its own store missing must
        // already see the kill flag, so it discards its in-flight task
        // (crash semantics) instead of publishing a Failed state the
        // task-table repair would mistake for an application error.
        // (Parked workers wake when the scheduler closes its run queue
        // below.)
        for runtime in self.workers.lock().iter_mut() {
            runtime.kill();
            runtime.detach();
        }
        // Stop routing new work here.
        services.detach_node(self.node);
        // The sampler dies with the node; its committed ring survives
        // in the control plane (telemetry outlives the node, like the
        // event log).
        if let Some(sampler) = &self.sampler {
            sampler.shutdown();
        }
        let mut this = self;
        this.sched.shutdown();
        // Retract the kv-mirrored load report: a dead node must stop
        // attracting steal requests (stale victims are handled, but a
        // ghost with a deep frozen backlog would waste thief attempts).
        services.kv.delete(&rtml_sched::load_key(this.node));
        // Drop the store contents and erase their locations from the
        // table as one group commit.
        let dropped = this.store.clear();
        services.objects.remove_location_many(&dropped, this.node);
        services.directory.remove(this.node);
        this.agent.shutdown();
        services.events.append(
            this.node,
            Event::now(
                Component::Supervisor,
                EventKind::NodeLost { node: this.node },
            ),
        );
    }

    /// Graceful shutdown: drains schedulers and joins workers.
    pub fn shutdown(mut self, services: &Arc<Services>) {
        services.detach_node(self.node);
        // Stop the sampler last-ish so its final snapshot sees a
        // near-final counter state; the committed ring stays readable
        // through `Cluster::timeseries` after shutdown.
        if let Some(sampler) = &self.sampler {
            sampler.shutdown();
        }
        // The scheduler's shutdown closes its run queue: every worker
        // finishes what it is running and exits.
        self.sched.shutdown();
        services.kv.delete(&rtml_sched::load_key(self.node));
        for runtime in self.workers.lock().iter_mut() {
            runtime.join();
        }
        services.directory.remove(self.node);
        self.agent.shutdown();
    }
}
