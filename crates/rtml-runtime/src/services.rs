//! The shared service bundle threaded through every runtime component.
//!
//! It carries the one [`ClusterConfig`] the cluster was started with
//! ([`Services::config`]); every component reads the setting it needs
//! from there, with no per-layer copy in between. What no caller sets
//! is a constant beside the code that reads it, not a field.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use rtml_common::error::{Error, Result};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::metrics::{Counter, MetricsRegistry};
use rtml_common::resources::Resources;
use rtml_common::spin::SpinStats;
use rtml_common::task::{TaskSpec, TaskState};
use rtml_kv::{EventLog, FunctionTable, Inbound, KvStore, ObjectTable, TaskTable};
use rtml_net::{Fabric, FabricConfig};
use rtml_sched::{HealthTracker, LocalSubmitter, RunQueue};
use rtml_store::{FetchAgent, ObjectStore, TransferDirectory};

use crate::cluster::ClusterConfig;
use crate::registry::FunctionRegistry;

/// Everything a component needs to participate in the cluster: the
/// control-plane tables, the function registry, the fabric, and the
/// table of live nodes.
///
/// All mutable state lives in the control plane or behind the node
/// table; `Services` itself can be shared freely.
pub struct Services {
    /// Control-plane store.
    pub kv: Arc<KvStore>,
    /// Object table view.
    pub objects: ObjectTable,
    /// Task table view.
    pub tasks: TaskTable,
    /// Function metadata table.
    pub functions: FunctionTable,
    /// Event log (R7).
    pub events: EventLog,
    /// In-process callables.
    pub registry: Arc<FunctionRegistry>,
    /// Simulated network.
    pub fabric: Arc<Fabric>,
    /// The node table: each live node's one fabric address, where its
    /// object plane and its scheduler are reached. The global scheduler
    /// places only on the nodes it lists.
    pub directory: Arc<TransferDirectory>,
    /// Peer health view (each node's last load report + failure
    /// evidence), steering holder rankings away from suspect nodes.
    pub health: Arc<HealthTracker>,
    /// The configuration the cluster was started with.
    pub config: ClusterConfig,
    /// The counters of cluster-wide state — the fabric, the control
    /// plane, the event log, the object and task tables, and (registered
    /// by the cluster) the global scheduler and lineage replay — named
    /// once for the whole cluster. The lowest live node's telemetry sample
    /// records them beside its own registry's; the others' do not.
    pub metrics: Arc<MetricsRegistry>,
    /// Times a blocking `get`, `get_many` or `wait` went to wait
    /// (`runtime.blocked_waits`), whether or not a spin then caught its
    /// wake-up.
    pub blocked_waits: Arc<Counter>,
    /// What spins before a wait at home caught and cost
    /// (`runtime.get_spin_hits`, `runtime.get_spin_misses`,
    /// `runtime.get_spin_ns`). Every blocked wait a spin did not catch
    /// slept: `blocked_waits − get_spin_hits`.
    pub get_spin: Arc<SpinStats>,
    /// Live nodes, in id order: a node is in it whole or not at all.
    nodes: RwLock<BTreeMap<NodeId, LiveNode>>,
}

/// What the rest of the cluster reaches a live node through.
struct LiveNode {
    store: Arc<ObjectStore>,
    agent: Arc<FetchAgent>,
    sched: LocalSubmitter,
    total: Resources,
}

impl Services {
    /// Creates the service bundle (control plane, fabric, registry) for
    /// a cluster started with `config`.
    pub fn create(config: &ClusterConfig) -> Arc<Self> {
        let kv = KvStore::new(config.kv_shards);
        let events = EventLog::new(kv.clone());
        let objects = ObjectTable::new(kv.clone());
        let tasks = TaskTable::new(kv.clone());
        let fabric = Fabric::new(FabricConfig {
            latency: config.latency.clone(),
            bandwidth_bytes_per_sec: config.bandwidth_bytes_per_sec,
            jitter_seed: config.seed,
            faults: config.faults.clone(),
        });
        let metrics = Arc::new(MetricsRegistry::new());
        fabric.register_metrics(&metrics);
        kv.register_metrics(&metrics);
        events.register_metrics(&metrics);
        objects.register_metrics(&metrics);
        tasks.register_metrics(&metrics);
        let blocked_waits = Arc::new(Counter::new());
        let counter = blocked_waits.clone();
        metrics.register_value("runtime.blocked_waits", move || counter.get());
        let get_spin = Arc::new(SpinStats::default());
        type Read = fn(&SpinStats) -> &Counter;
        let spins: [(&str, Read); 3] = [
            ("runtime.get_spin_hits", |s| &s.hits),
            ("runtime.get_spin_misses", |s| &s.misses),
            ("runtime.get_spin_ns", |s| &s.spin_ns),
        ];
        for (name, read) in spins {
            let stats = get_spin.clone();
            metrics.register_value(name, move || read(&stats).get());
        }
        Arc::new(Services {
            objects,
            tasks,
            functions: FunctionTable::new(kv.clone()),
            events,
            registry: FunctionRegistry::new(),
            fabric,
            directory: TransferDirectory::new(),
            health: HealthTracker::new(),
            config: config.clone(),
            metrics,
            blocked_waits,
            get_spin,
            nodes: RwLock::new(BTreeMap::new()),
            kv,
        })
    }

    /// Registers a live node's store, fetch agent, scheduler submitter,
    /// and capacity, in one write.
    pub fn attach_node(
        &self,
        node: NodeId,
        store: Arc<ObjectStore>,
        agent: Arc<FetchAgent>,
        sched: LocalSubmitter,
        total: Resources,
    ) {
        let live = LiveNode {
            store,
            agent,
            sched,
            total,
        };
        self.nodes.write().insert(node, live);
    }

    /// Removes a node from the node table (kill or shutdown), in one
    /// write.
    pub fn detach_node(&self, node: NodeId) {
        self.nodes.write().remove(&node);
    }

    /// The node's object store, if the node is alive.
    pub fn store(&self, node: NodeId) -> Option<Arc<ObjectStore>> {
        Some(self.nodes.read().get(&node)?.store.clone())
    }

    /// The node's object plane (its transfer agent: serves its peers,
    /// fetches and pushes for the node), if the node is alive.
    pub fn fetch_agent(&self, node: NodeId) -> Option<Arc<FetchAgent>> {
        Some(self.nodes.read().get(&node)?.agent.clone())
    }

    /// The node's run queue, if the node is alive.
    pub fn run_queue(&self, node: NodeId) -> Option<Arc<RunQueue>> {
        self.nodes.read().get(&node)?.sched.queue().cloned()
    }

    /// Seals each of `objects` into `store` and publishes the copies —
    /// the one place a put becomes object-table writes, whoever seals.
    /// `sealed` runs for each object once its bytes are resident and
    /// before any location is committed: the locations are what unblock
    /// consumers' `get`s, so whatever it logs they will find, and a push
    /// it announces rides that object's commit
    /// ([`ObjectTable::add_location_pushed`]). The seals and what the
    /// puts evicted are logged as one frame, the locations land as one
    /// group commit (a pushed one each with its announcement), and what
    /// the puts evicted leaves the table as one more: a listed location
    /// is a resident copy. An object the store cannot take stays
    /// unsealed; the first such error is returned once the rest are
    /// published.
    pub(crate) fn seal_and_publish(
        &self,
        store: &ObjectStore,
        objects: Vec<(ObjectId, bytes::Bytes)>,
        mut sealed: impl FnMut(ObjectId, &bytes::Bytes) -> Option<Inbound>,
    ) -> Result<()> {
        let node = store.node();
        let mut events = Vec::with_capacity(objects.len());
        let mut located = Vec::with_capacity(objects.len());
        let (mut pushed, mut evicted, mut refused) = (Vec::new(), Vec::new(), Ok(()));
        for (object, bytes) in objects {
            let size = bytes.len() as u64;
            let outcome = match store.put(object, bytes.clone()) {
                Ok(outcome) => outcome,
                Err(err) => {
                    refused = refused.and(Err(err));
                    continue;
                }
            };
            evicted.extend(outcome.evicted);
            let kind = EventKind::ObjectSealed { object, node, size };
            events.push(Event::now(Component::ObjectStore, kind));
            match sealed(object, &bytes) {
                Some(inbound) => pushed.push((object, size, inbound)),
                None => located.push((object, size)),
            }
        }
        let at_nanos = rtml_common::time::now_nanos();
        events.extend(evicted.iter().map(|&object| Event {
            at_nanos,
            component: Component::ObjectStore,
            kind: EventKind::ObjectEvicted { object, node },
        }));
        self.events.append_many(node, events);
        if !located.is_empty() {
            self.objects.add_location_many(&located, node);
        }
        for (object, size, inbound) in pushed {
            self.objects
                .add_location_pushed(object, node, size, inbound);
        }
        if !evicted.is_empty() {
            self.objects.remove_location_many(&evicted, node);
        }
        refused
    }

    /// Sends a batch of tasks (one task is a batch of one) to `node`'s
    /// local scheduler as one message — the routing half of the batched
    /// hot path. Falls back to any alive node when the target is gone
    /// (e.g. reconstruction onto a dead submitter).
    pub fn submit_batch_to(&self, node: NodeId, specs: Vec<TaskSpec>) -> Result<()> {
        self.try_submit_batch_to(node, specs, false)
            .map_err(|(_specs, err)| err)
    }

    /// [`Self::submit_batch_to`] for a fresh batch of a submitter on
    /// `home` itself (its driver or one of its workers), which this
    /// records: a batch the node's loop would accept whole and runnable
    /// is recorded `Queued` and admitted on the calling thread, anything
    /// else recorded `Submitted` before it is sent
    /// ([`LocalSubmitter::submit`]). If `home`'s scheduler dies
    /// mid-send, the batch goes again to a loop — the lowest alive
    /// node's once `home` has left the node table — up to
    /// [`rtml_common::retry::MAX_ATTEMPTS`] attempts; each failed send
    /// hands the specs back, so none is lost, and none is recorded
    /// twice.
    pub fn submit_batch_home(&self, home: NodeId, specs: Vec<TaskSpec>) -> Result<()> {
        let (mut specs, mut fresh) = (specs, true);
        let mut last = Error::ShuttingDown;
        for _ in 0..rtml_common::retry::MAX_ATTEMPTS {
            match self.try_submit_batch_to(home, specs, fresh) {
                Ok(()) => return Ok(()),
                Err((returned, err)) => {
                    specs = returned;
                    // No node took them: still unrecorded.
                    fresh &= matches!(err, Error::ShuttingDown);
                    last = err;
                }
            }
        }
        Err(last)
    }

    /// The lowest-numbered alive node (the driver's preferred home).
    pub fn any_alive(&self) -> Option<NodeId> {
        self.nodes.read().keys().next().copied()
    }

    /// The one routing step under every submission: `node`'s scheduler,
    /// or the lowest alive node's when it is gone. A `fresh` batch is not
    /// recorded yet: on `node` itself its submitter records it (and may
    /// admit it on the calling thread), elsewhere it is recorded
    /// `Submitted` here before it is sent. Hands the specs back on
    /// failure so the caller can fail over without losing the batch;
    /// with [`Error::ShuttingDown`] when no node took them.
    fn try_submit_batch_to(
        &self,
        node: NodeId,
        specs: Vec<TaskSpec>,
        fresh: bool,
    ) -> std::result::Result<(), (Vec<TaskSpec>, Error)> {
        let nodes = self.nodes.read();
        let lowest = || nodes.values().next().map(|live| (live, false));
        let Some((target, own)) = nodes.get(&node).map(|live| (live, fresh)).or_else(lowest) else {
            return Err((specs, Error::ShuttingDown));
        };
        let target = target.sched.clone();
        drop(nodes);
        if fresh && !own {
            self.tasks.record_many(&specs, &TaskState::Submitted);
        }
        target
            .submit(specs, own)
            .map_err(|specs| (specs, Error::Disconnected("local scheduler")))
    }

    /// Nodes currently routable, in id order.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes.read().keys().copied().collect()
    }

    /// Whether any alive node's total capacity fits `demand` — the
    /// admission-control check that rejects permanently unschedulable
    /// tasks at submission time.
    pub fn cluster_fits(&self, demand: &Resources) -> bool {
        self.nodes
            .read()
            .values()
            .any(|live| live.total.fits(demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use rtml_sched::LocalMsg;
    use rtml_store::StoreConfig;

    fn services() -> Arc<Services> {
        Services::create(&ClusterConfig {
            kv_shards: 2,
            latency: rtml_net::LatencyModel::Zero,
            seed: 0,
            ..ClusterConfig::default()
        })
    }

    fn store_and_agent(
        sv: &Services,
        node: NodeId,
    ) -> (Arc<ObjectStore>, Arc<rtml_store::FetchAgent>) {
        let store = Arc::new(ObjectStore::new(StoreConfig {
            node,
            ..StoreConfig::default()
        }));
        let agent = Arc::new(rtml_store::FetchAgent::spawn(
            sv.fabric.clone(),
            store.clone(),
            &sv.directory,
        ));
        (store, agent)
    }

    #[test]
    fn attach_detach_lifecycle() {
        let sv = services();
        assert_eq!(sv.any_alive(), None);
        assert!(!sv.cluster_fits(&Resources::cpu(1.0)));

        let (store, agent) = store_and_agent(&sv, NodeId(3));
        let (tx, _rx) = unbounded();
        sv.attach_node(
            NodeId(3),
            store,
            agent,
            tx.clone().into(),
            Resources::cpu(4.0),
        );
        assert_eq!(sv.any_alive(), Some(NodeId(3)));
        assert!(sv.cluster_fits(&Resources::cpu(4.0)));
        assert!(!sv.cluster_fits(&Resources::gpu(1.0)));
        assert!(sv.store(NodeId(3)).is_some());
        assert!(sv.fetch_agent(NodeId(3)).is_some());
        assert_eq!(sv.alive_nodes(), vec![NodeId(3)]);
        let (store, agent) = store_and_agent(&sv, NodeId(1));
        sv.attach_node(NodeId(1), store, agent, tx.into(), Resources::gpu(1.0));
        assert_eq!(sv.alive_nodes(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(sv.any_alive(), Some(NodeId(1)));
        assert!(sv.cluster_fits(&Resources::gpu(1.0)));
        sv.detach_node(NodeId(1));

        sv.detach_node(NodeId(3));
        assert_eq!(sv.any_alive(), None);
        assert!(sv.store(NodeId(3)).is_none());
        assert!(sv.fetch_agent(NodeId(3)).is_none());
    }

    #[test]
    fn submit_falls_back_to_alive_node() {
        let sv = services();
        let (store, agent) = store_and_agent(&sv, NodeId(0));
        let (tx, rx) = unbounded();
        sv.attach_node(NodeId(0), store, agent, tx.into(), Resources::cpu(4.0));

        use rtml_common::ids::{DriverId, FunctionId, TaskId};
        let root = TaskId::driver_root(DriverId::from_index(0));
        let spec = TaskSpec::simple(root.child(0), FunctionId::from_name("f"), vec![]);
        // Target node 9 is dead; the task must land on node 0.
        sv.submit_batch_to(NodeId(9), vec![spec.clone()]).unwrap();
        match rx.recv().unwrap() {
            LocalMsg::SubmitBatch(specs) => assert_eq!(specs, vec![spec]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn submit_with_no_nodes_errors() {
        let sv = services();
        use rtml_common::ids::{DriverId, FunctionId, TaskId};
        let root = TaskId::driver_root(DriverId::from_index(0));
        let spec = TaskSpec::simple(root.child(0), FunctionId::from_name("f"), vec![]);
        assert_eq!(
            sv.submit_batch_to(NodeId(0), vec![spec]),
            Err(Error::ShuttingDown)
        );
    }
}
