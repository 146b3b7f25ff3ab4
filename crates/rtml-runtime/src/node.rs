//! Per-node assembly: object store + local scheduler, whose loop also
//! runs the node's object plane + worker pool (one column of the
//! paper's Figure 3).
//!
//! A node runs one control thread, `rtml-lsched-N`, beside its workers,
//! and has one fabric endpoint. Its other chores ride threads that
//! already run: the scheduler's loop handles the object plane's frames
//! and takes the telemetry sample, and whichever thread asks for one
//! more worker starts it.

use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, WorkerId};
use rtml_common::metrics::MetricsRegistry;
use rtml_common::resources::Resources;
use rtml_net::NetAddress;
use rtml_sched::{
    LocalMsg, LocalScheduler, LocalSchedulerConfig, LocalSchedulerHandle, Replays, RunQueue,
    SchedServices,
};
use rtml_store::{ObjectStore, StoreConfig};

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

/// A live node: all per-node components plus their control handles.
pub struct NodeRuntime {
    /// Node identity.
    pub node: NodeId,
    /// The node's object store.
    pub store: Arc<ObjectStore>,
    config: NodeConfig,
    sched: LocalSchedulerHandle,
    /// Shared with the run queue's `request_worker` hook, which appends
    /// on-demand workers (nested-task deadlock avoidance). Never held
    /// across a join, or across a call that can reach the hook.
    pool: Arc<Mutex<Pool>>,
    /// The node's components' live counters, registered once at build
    /// time.
    registry: Arc<MetricsRegistry>,
}

/// A node's workers, and the run queue a grown one attaches to.
struct Pool {
    /// Every worker ever started here, killed ones included, so the next
    /// worker's index is the length.
    workers: Vec<WorkerRuntime>,
    /// Set once the scheduler exists; emptied when the node stops, so a
    /// late request starts nothing. Weak: the queue owns the hook that
    /// owns this.
    queue: Weak<RunQueue>,
}

impl NodeRuntime {
    /// Builds and starts all components for `node`, registering it with
    /// the shared services; cluster-wide settings come from
    /// [`Services::config`].
    pub fn build(
        node: NodeId,
        config: NodeConfig,
        services: &Arc<Services>,
        recon: &Arc<ReconstructionManager>,
        global: NetAddress,
    ) -> NodeRuntime {
        let cluster = &services.config;
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node,
            capacity_bytes: config.store_capacity,
            ..StoreConfig::default()
        }));

        // Runs on the scheduler thread: kv reads and writes and unbounded
        // channel sends only (see `SchedServices::reconstruct`).
        let recon_hook = {
            let recon = recon.clone();
            Arc::new(move |replays: &Replays| recon.replay(replays))
        };
        // Grows the worker pool on the run queue's request, up to a cap,
        // on the thread that asked: the new worker is known to the queue
        // before its thread exists.
        let pool = Arc::new(Mutex::new(Pool {
            workers: Vec::new(),
            queue: Weak::new(),
        }));
        let request_worker = {
            let (pool, services, recon) = (pool.clone(), services.clone(), recon.clone());
            let max_workers = (config.workers as usize * 4).max(16);
            Arc::new(move || {
                let mut pool = pool.lock();
                let Some(queue) = pool.queue.upgrade() else {
                    return;
                };
                if pool.workers.len() >= max_workers {
                    return;
                }
                let id = WorkerId::new(node, pool.workers.len() as u32);
                queue.attach(id);
                let worker = WorkerRuntime::spawn(id, services.clone(), recon.clone(), queue);
                pool.workers.push(worker);
            })
        };

        // The sensing plane: every component registers its own live
        // counters once, and the scheduler's loop records them into the
        // kv-backed telemetry ring every interval — one group-committed
        // record per node per interval. The cluster-wide counters ride
        // the lowest live node's record alone, so they are recorded
        // once, not once a node. The scheduler's counters exist only
        // once it runs, and the node is live only once it is attached,
        // so the sample waits for both: every record has every column.
        let registry = Arc::new(MetricsRegistry::new());
        store.register_metrics(&registry);
        let columns = Arc::new(OnceLock::<[Arc<MetricsRegistry>; 2]>::new());
        let periodic = cluster.telemetry.then(|| {
            let (columns, services) = (columns.clone(), services.clone());
            let table = rtml_kv::TelemetryTable::new(services.kv.clone());
            let sample: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
                if let Some(registries) = columns.get() {
                    let lowest = services.any_alive() == Some(node);
                    let registries = if lowest {
                        &registries[..]
                    } else {
                        &registries[..1]
                    };
                    crate::telemetry::sample(node, registries, &table);
                }
            });
            (crate::telemetry::INTERVAL, sample)
        });

        let sched_services = SchedServices {
            kv: services.kv.clone(),
            objects: services.objects.clone(),
            tasks: services.tasks.clone(),
            events: services.events.clone(),
            fabric: services.fabric.clone(),
            directory: services.directory.clone(),
            store: store.clone(),
            global,
            health: services.health.clone(),
            reconstruct: recon_hook,
            request_worker,
            periodic,
        };
        let worker_ids: Vec<WorkerId> = (0..config.workers)
            .map(|index| WorkerId::new(node, index))
            .collect();
        let sched = LocalScheduler::spawn(
            LocalSchedulerConfig {
                node,
                total_resources: config.total_resources(),
                spill: cluster.spill.clone(),
                fetch_timeout: cluster.fetch_timeout,
            },
            sched_services,
            worker_ids.clone(),
        );

        sched.agent().stats().register_metrics(&registry);
        sched.stats().register_metrics(&registry);

        // The scheduler attached them to its run queue before `spawn`
        // returned, so no thread can come up unknown to it.
        {
            let mut pool = pool.lock();
            pool.queue = Arc::downgrade(sched.queue());
            pool.workers = worker_ids
                .into_iter()
                .map(|id| {
                    let queue = sched.queue().clone();
                    WorkerRuntime::spawn(id, services.clone(), recon.clone(), queue)
                })
                .collect();
        }

        services.attach_node(
            node,
            store.clone(),
            sched.agent().clone(),
            sched.submitter(),
            config.total_resources(),
        );
        let _ = columns.set([registry.clone(), services.metrics.clone()]);

        NodeRuntime {
            node,
            store,
            config,
            sched,
            pool,
            registry,
        }
    }

    /// Stops pool growth and hands back every worker started here.
    fn take_workers(&self) -> Vec<WorkerRuntime> {
        let mut pool = self.pool.lock();
        pool.queue = Weak::new();
        std::mem::take(&mut pool.workers)
    }

    /// The node's static configuration (used for restarts).
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The node's metrics registry (its components' counters,
    /// registered at build time).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Kills one worker: crash semantics (in-flight task effects
    /// discarded, scheduler notified). Returns whether the worker
    /// existed.
    pub fn kill_worker(&mut self, worker: WorkerId) -> bool {
        let mut pool = self.pool.lock();
        let Some(runtime) = pool.workers.iter_mut().find(|w| w.id == worker) else {
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
    /// withdrawn — the node table's too, which is how the global
    /// scheduler learns of it. The caller (cluster) handles task-table
    /// repair.
    pub fn kill(self, services: &Arc<Services>) {
        // Throw the worker kill switches BEFORE detaching the node's
        // services: a worker that observes its own store missing must
        // already see the kill flag, so it discards its in-flight task
        // (crash semantics) instead of publishing a Failed state the
        // task-table repair would mistake for an application error.
        // (Parked workers wake when the scheduler closes its run queue
        // below.)
        for mut runtime in self.take_workers() {
            runtime.kill();
            runtime.detach();
        }
        // Stop routing new work here.
        services.detach_node(self.node);
        // The scheduler takes the node's last telemetry sample as it
        // stops; the committed ring survives in the control plane
        // (telemetry outlives the node, like the event log).
        let mut this = self;
        this.sched.shutdown();
        // What the node had logged and its loop had not yet flushed dies
        // with it, counted.
        services.events.discard(this.node);
        // Retract its load report: a dead node leaves no frozen backlog
        // behind for a reader to trust (its failure evidence stays).
        services.health.drop_report(this.node);
        // Drop the store contents and erase their locations from the
        // table as one group commit.
        let dropped = this.store.clear();
        services.objects.remove_location_many(&dropped, this.node);
        services.directory.remove(this.node);
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
        // Closing the scheduler takes the node's last telemetry sample
        // (the ring stays readable through `Cluster::timeseries`), then
        // closes its run queue: every worker finishes what it is running
        // and exits. Its loop keeps serving the object plane, so a
        // worker's fetch in flight completes and peers still read this
        // node until the workers are joined. A worker still running may
        // ask for one more, so the pool is not held while they are.
        self.sched.close();
        for mut runtime in self.take_workers() {
            runtime.join();
        }
        services.directory.remove(self.node);
        self.sched.shutdown();
        // Once the loop is joined: it publishes no report after this.
        services.health.drop_report(self.node);
    }
}
