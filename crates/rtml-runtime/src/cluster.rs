//! Cluster assembly: the whole of the paper's Figure 3 in one value.
//!
//! [`Cluster::start`] builds the sharded control plane, the simulated
//! fabric, the global scheduler, and every node (store + transfer +
//! local scheduler + workers), then hands out [`Driver`] connections.
//! Failure injection ([`Cluster::kill_worker`], [`Cluster::kill_node`],
//! [`Cluster::restart_node`]) drives the fault-tolerance experiments.
//!
//! [`ClusterConfig`] holds only what a user chooses. It is kept whole
//! in [`Services::config`], where every component reads its setting;
//! a value no caller varies (the global scheduler's node, the telemetry
//! interval and ring size, the load interval, the retry bound, the
//! staleness bound, the transfer chunk size, the default `get`
//! deadline) is a constant beside the code that reads it.
//!
//! A count of zero is refused, not rounded up: `Cluster::start` returns
//! [`Error::InvalidArgument`] for a `kv_shards` of 0, as for an empty
//! node list.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use rtml_common::codec::Codec;
use rtml_common::error::{Error, Result};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{DriverId, NodeId, WorkerId};
use rtml_common::metrics::{Histogram, MetricsRegistry, Reading};
use rtml_kv::FunctionInfo;
use rtml_net::LatencyModel;
use rtml_sched::{GlobalScheduler, GlobalSchedulerHandle, PlacementPolicy, SpillMode};

use crate::actors::ActorHandle;
use crate::caller::{Driver, TaskContext};
use crate::lineage::ReconstructionManager;
use crate::node::{NodeConfig, NodeRuntime};
use crate::profiling::ProfileReport;
use crate::registry::{Func0, Func1, Func2, Func3, Func4};
use crate::services::Services;

/// Whole-cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// One entry per node.
    pub nodes: Vec<NodeConfig>,
    /// Control-plane shard count (R2 scaling knob).
    pub kv_shards: usize,
    /// Cross-node message latency.
    pub latency: LatencyModel,
    /// Cross-node bandwidth (None = infinite).
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Local-scheduler spill rule.
    pub spill: SpillMode,
    /// Global placement policy. The global scheduler runs on node 0.
    pub placement: PlacementPolicy,
    /// Per-attempt timeout for cross-node object fetches.
    pub fetch_timeout: Duration,
    /// Seed for the fabric's jitter.
    pub seed: u64,
    /// Per-node telemetry sampling: every node's plane counters are
    /// registered on a [`rtml_common::metrics::MetricsRegistry`] and the
    /// node's local scheduler group-commits a snapshot to the kv-backed
    /// telemetry table every [`crate::telemetry::INTERVAL`], from its
    /// own loop, as a bounded ring ([`Cluster::timeseries`]). On by
    /// default: the cost is one kv append per node per interval, noise
    /// against the submission hot path's lock budget.
    pub telemetry: bool,
    /// Chaos plane: a seeded, deterministic fault-injection plan on the
    /// fabric (per-link drops, duplication, delay spikes, gray links,
    /// scheduled partition windows). Empty by default — a fault-free
    /// cluster pays one branch per send and keeps a byte-identical
    /// jitter stream.
    pub faults: rtml_net::FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: vec![NodeConfig::default()],
            kv_shards: 8,
            latency: LatencyModel::Constant(Duration::from_micros(100)),
            bandwidth_bytes_per_sec: None,
            spill: SpillMode::default(),
            placement: PlacementPolicy::LocalityAware,
            fetch_timeout: Duration::from_secs(2),
            seed: 0x5eed,
            telemetry: true,
            faults: rtml_net::FaultPlan::default(),
        }
    }
}

impl ClusterConfig {
    /// A quick local cluster: `nodes` CPU-only nodes with
    /// `workers_per_node` workers each.
    pub fn local(nodes: usize, workers_per_node: u32) -> Self {
        ClusterConfig {
            nodes: (0..nodes)
                .map(|_| NodeConfig::cpu_only(workers_per_node))
                .collect(),
            ..ClusterConfig::default()
        }
    }

    /// Replaces the latency model builder-style.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the spill mode builder-style.
    pub fn with_spill(mut self, spill: SpillMode) -> Self {
        self.spill = spill;
        self
    }

    /// Replaces the shard count builder-style.
    pub fn with_kv_shards(mut self, shards: usize) -> Self {
        self.kv_shards = shards;
        self
    }

    /// Disables per-node telemetry sampling builder-style (for
    /// overhead A/B measurements).
    pub fn without_telemetry(mut self) -> Self {
        self.telemetry = false;
        self
    }
}

/// A running rtml cluster.
pub struct Cluster {
    services: Arc<Services>,
    recon: Arc<ReconstructionManager>,
    global: Mutex<Option<GlobalSchedulerHandle>>,
    nodes: Mutex<HashMap<NodeId, NodeRuntime>>,
    driver_counter: AtomicU64,
    actor_counter: AtomicU64,
}

impl Cluster {
    /// Builds and starts every component described by `config`.
    pub fn start(config: ClusterConfig) -> Result<Cluster> {
        if config.nodes.is_empty() {
            return Err(Error::InvalidArgument(
                "cluster needs at least one node".into(),
            ));
        }
        if config.kv_shards == 0 {
            return Err(Error::InvalidArgument(
                "kv_shards must be at least 1".into(),
            ));
        }
        let services = Services::create(&config);
        let recon = ReconstructionManager::new(services.clone());

        let global = GlobalScheduler::spawn(
            config.placement,
            services.fabric.clone(),
            services.directory.clone(),
            services.objects.clone(),
            services.events.clone(),
        );
        // Before any node takes a telemetry sample, so every record has
        // every column.
        recon.register_metrics(&services.metrics);
        global.register_metrics(&services.metrics);

        let mut nodes = HashMap::new();
        for (i, node_config) in config.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            let runtime = NodeRuntime::build(
                node,
                node_config.clone(),
                &services,
                &recon,
                global.address(),
            );
            nodes.insert(node, runtime);
        }

        // Formation barrier: do not hand out drivers until the global
        // scheduler has heard every node's first load report (it pays
        // the fabric's latency). Without this, an immediate submission
        // burst would see a one-node cluster.
        let expected = config.nodes.len();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while global.stats().nodes_known.load(Ordering::Acquire) < expected {
            if std::time::Instant::now() > deadline {
                return Err(Error::Timeout);
            }
            std::thread::sleep(Duration::from_micros(50));
        }

        Ok(Cluster {
            services,
            recon,
            global: Mutex::new(Some(global)),
            nodes: Mutex::new(nodes),
            driver_counter: AtomicU64::new(0),
            actor_counter: AtomicU64::new(0),
        })
    }

    /// The shared services bundle (tables, registry, fabric).
    pub fn services(&self) -> &Arc<Services> {
        &self.services
    }

    /// The lineage-replay coordinator (exposes reconstruction counters).
    pub fn reconstructions(&self) -> u64 {
        self.recon.reconstructions.get()
    }

    /// Connects a new driver program (homed on the lowest alive node).
    pub fn driver(&self) -> Driver {
        let id = DriverId::from_index(self.driver_counter.fetch_add(1, Ordering::Relaxed));
        let home = self.services.any_alive().unwrap_or(NodeId(0));
        Driver::new(self.services.clone(), self.recon.clone(), home, id)
    }

    /// Nodes currently alive.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.services.alive_nodes()
    }

    /// Kills one worker (crash semantics). Its in-flight task, if any, is
    /// marked lost and reconstructed on demand.
    pub fn kill_worker(&self, worker: WorkerId) -> Result<()> {
        let mut nodes = self.nodes.lock();
        let node = nodes
            .get_mut(&worker.node)
            .ok_or(Error::NodeDown(worker.node))?;
        // The node's scheduler logs the loss once it has handled it.
        if node.kill_worker(worker) {
            Ok(())
        } else {
            Err(Error::InvalidArgument(format!("no such worker {worker}")))
        }
    }

    /// Kills a whole node: store contents vanish, queued and running
    /// tasks are marked lost (reconstructible), and the node leaves the
    /// node table, so the global scheduler stops placing there.
    pub fn kill_node(&self, node: NodeId) -> Result<()> {
        let runtime = self
            .nodes
            .lock()
            .remove(&node)
            .ok_or(Error::NodeDown(node))?;
        runtime.kill(&self.services);

        // Repair the task table: anything bound to the dead node is lost.
        self.services.tasks.lose_node(node);
        Ok(())
    }

    /// Restarts a previously-killed node with its original configuration
    /// — the paper's "recover by restarting stateless components". The
    /// store starts empty; lost objects reappear via lineage replay when
    /// next needed.
    pub fn restart_node(&self, node: NodeId, config: NodeConfig) -> Result<()> {
        let mut nodes = self.nodes.lock();
        if nodes.contains_key(&node) {
            return Err(Error::InvalidArgument(format!("{node} is alive")));
        }
        let global = self
            .global
            .lock()
            .as_ref()
            .map(|g| g.address())
            .ok_or(Error::ShuttingDown)?;
        // A rejoining node starts with a clean health slate: suspicion
        // earned by the dead incarnation does not outlive it.
        self.services.health.forget(node);
        let runtime = NodeRuntime::build(node, config, &self.services, &self.recon, global);
        nodes.insert(node, runtime);
        self.services.events.append(
            node,
            Event::now(Component::Supervisor, EventKind::NodeRestarted { node }),
        );
        Ok(())
    }

    /// The stored configuration of an alive node (useful for restarts).
    pub fn node_config(&self, node: NodeId) -> Option<NodeConfig> {
        self.nodes.lock().get(&node).map(|n| n.config().clone())
    }

    /// Builds a profiling report from the event log (R7), with the live
    /// counters of the whole cluster ([`Cluster::counters`]).
    pub fn profile(&self) -> ProfileReport {
        let events = &self.services.events;
        let mut report = ProfileReport::from_events(&events.read_all());
        report.dropped_records = events.dropped_count();
        report.lost_records = events.lost_count();
        report.partial = report.dropped_records + report.lost_records > 0;
        report.counters = self.counters();
        report
    }

    /// Every counter of the cluster, read by the name it is registered
    /// under: the cluster-wide ones ([`Services::metrics`]) plus every
    /// alive node's registry, summed — values add, histograms merge
    /// bucket by bucket. A killed node's counts leave with it.
    pub fn counters(&self) -> MetricsRegistry {
        let mut values: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        let nodes = self.nodes.lock();
        let registries = nodes
            .values()
            .map(NodeRuntime::registry)
            .chain([&self.services.metrics]);
        for registry in registries {
            for (name, reading) in registry.read() {
                match reading {
                    Reading::Value(value) => *values.entry(name).or_default() += value,
                    Reading::Histogram(snap) => {
                        histograms.entry(name).or_default().merge_snapshot(&snap)
                    }
                }
            }
        }
        let sum = MetricsRegistry::new();
        for (name, value) in values {
            sum.register_value(&name, move || value);
        }
        for (name, histogram) in histograms {
            let snap = histogram.snapshot();
            sum.register_histogram(&name, move || snap.clone());
        }
        sum
    }

    /// Critical-path attribution for the task that produced `sink`
    /// (usually `some_ref.id().producer_task()`): walks the binding
    /// dependency chain through the event log, splitting the end-to-end
    /// span into ingest / placement / queue / transfer / execution.
    /// Dependencies come from the durable task specs, so the walk works
    /// for completed, failed, and reconstructed chains alike. `None`
    /// when the log has no trace of the task (never ran, or its events
    /// fell to retention).
    pub fn critical_path(
        &self,
        sink: rtml_common::ids::TaskId,
    ) -> Option<crate::critical_path::CriticalPath> {
        let tasks = self.services.tasks.clone();
        crate::critical_path::critical_path(
            &self.services.events.read_all(),
            move |task| {
                tasks
                    .get_spec(task)
                    .map(|spec| spec.dependencies().collect())
                    .unwrap_or_default()
            },
            sink,
        )
    }

    /// Reads the telemetry time-series: every node's ring of sampled
    /// metric snapshots, sorted by node. Rings are bounded (see
    /// [`rtml_kv::TelemetryTable::RETENTION`]) and survive node
    /// death — a killed node's history stays readable, like its events.
    /// Empty when the telemetry plane is disabled.
    pub fn timeseries(&self) -> Vec<(NodeId, Vec<rtml_kv::TelemetryRecord>)> {
        rtml_kv::TelemetryTable::new(self.services.kv.clone()).read_all()
    }

    /// One node's metrics registry: the live counters its own
    /// components count (its telemetry sample records them, and the
    /// lowest live node's records [`Services::metrics`] beside them).
    /// `None` if the node is not alive.
    pub fn node_registry(&self, node: NodeId) -> Option<Arc<MetricsRegistry>> {
        self.nodes
            .lock()
            .get(&node)
            .map(|runtime| runtime.registry().clone())
    }

    /// Spawns a stateful actor on `node` (an extension beyond the paper's
    /// task-only model; see [`crate::actors`]).
    pub fn spawn_actor<S: Send + 'static>(
        &self,
        name: &str,
        node: NodeId,
        init: impl FnOnce() -> S + Send + 'static,
    ) -> Result<ActorHandle<S>> {
        if self.services.store(node).is_none() {
            return Err(Error::NodeDown(node));
        }
        let counter = self.actor_counter.fetch_add(1, Ordering::Relaxed);
        ActorHandle::spawn(name, counter, node, self.services.clone(), init)
    }

    /// Gracefully stops every component and joins their threads.
    pub fn shutdown(self) {
        let nodes: Vec<NodeRuntime> = {
            let mut guard = self.nodes.lock();
            guard.drain().map(|(_, n)| n).collect()
        };
        for node in nodes {
            node.shutdown(&self.services);
        }
        if let Some(mut global) = self.global.lock().take() {
            global.shutdown();
        }
    }
}

macro_rules! cluster_register {
    ($name:ident, $name_ctx:ident, $reg:ident, $reg_ctx:ident, $token:ident, [$($ty:ident),*]) => {
        impl Cluster {
            /// Registers a typed remote function cluster-wide.
            ///
            /// A [`bytes::Bytes`] argument (or `Bytes` field of one) is
            /// a view of the executing node's stored copy of the object,
            /// not a copy of it: it stays valid — and keeps that buffer
            /// alive — even if the object is evicted while the task
            /// runs. Other argument types decode into owned values. The
            /// result is copied once, as it is sealed.
            pub fn $name<$($ty: Codec + 'static,)* R: Codec + 'static>(
                &self,
                name: &str,
                f: impl Fn($($ty),*) -> Result<R> + Send + Sync + 'static,
            ) -> $token<$($ty,)* R> {
                let token = self.services.registry.$reg(name, f);
                self.record_function(name, token.id());
                token
            }

            /// Registers a typed remote function that receives the
            /// [`TaskContext`] (for nested submissions). Arguments and
            /// result are handled as for the context-free form: `Bytes`
            /// arguments are views of the store's buffer.
            pub fn $name_ctx<$($ty: Codec + 'static,)* R: Codec + 'static>(
                &self,
                name: &str,
                f: impl Fn(&TaskContext $(, $ty)*) -> Result<R> + Send + Sync + 'static,
            ) -> $token<$($ty,)* R> {
                let token = self.services.registry.$reg_ctx(name, f);
                self.record_function(name, token.id());
                token
            }
        }
    };
}

cluster_register!(
    register_fn0,
    register_fn0_ctx,
    register0,
    register0_ctx,
    Func0,
    []
);
cluster_register!(
    register_fn1,
    register_fn1_ctx,
    register1,
    register1_ctx,
    Func1,
    [A]
);
cluster_register!(
    register_fn2,
    register_fn2_ctx,
    register2,
    register2_ctx,
    Func2,
    [A, B]
);
cluster_register!(
    register_fn3,
    register_fn3_ctx,
    register3,
    register3_ctx,
    Func3,
    [A, B, C]
);
cluster_register!(
    register_fn4,
    register_fn4_ctx,
    register4,
    register4_ctx,
    Func4,
    [A, B, C, D]
);

impl Cluster {
    fn record_function(&self, name: &str, id: rtml_common::ids::FunctionId) {
        let arity = self.services.registry.arity_of(id).unwrap_or(0);
        self.services.functions.register(&FunctionInfo {
            id,
            name: name.to_string(),
            arity,
        });
    }
}
