//! The global scheduler (paper §3.2.2), sharded.
//!
//! Receives spilled tasks from local schedulers over the fabric, and
//! places each on a node chosen from cluster-wide information: per-node
//! load reports (pushed by local schedulers) and object locality (read
//! from the object table). Placements are sent back over the fabric to
//! the chosen node's local scheduler — every hop through here costs
//! cross-node latency, which is exactly why the hybrid design keeps the
//! common case local.
//!
//! # Sharding
//!
//! A single global scheduler serializes every placement, capping submit
//! throughput (requirement R2). The scheduler therefore runs as `K`
//! independent shards: the **task keyspace** is partitioned by the same
//! FNV-64 fold that routes every other id in the system
//! ([`rtml_common::ids::UniqueId::bucket`]), and a local scheduler sends
//! each spilled task to the shard owning its `TaskId` (see
//! [`GlobalRoutes`]). Node state (`NodeUp`/`NodeDown`/`Load`) is
//! broadcast to every shard, so each shard holds a full replica of the
//! cluster view and places without cross-shard locks.
//!
//! Placement under the paper policies is a pure function of the task
//! spec and the load view ([`crate::policy`]), so partitioning a batch
//! across shards cannot change where any task goes — determinism
//! survives sharding by construction. What shards *cannot* see is each
//! other's in-flight placements between load reports; the **load
//! digest** ([`rtml_kv::LoadDigestTable`]) closes that gap: after every
//! batch a shard group-commits its placed-since-report counters to the
//! kv store, and every shard folds the sibling digests into its
//! effective load view at the next batch.
//!
//! Tasks that currently fit no node (e.g. GPU demand while the only GPU
//! node is down) are **parked** and retried whenever the cluster view
//! changes (new load report, node up).

use std::collections::VecDeque;

use crossbeam::channel::{unbounded, Receiver, Sender};

use rtml_common::codec::{decode_from_slice, Codec};
use rtml_common::collections::{fast_map_with_capacity, FastMap};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, TaskId};
use rtml_common::metrics::Counter;
use rtml_common::task::TaskSpec;
use rtml_kv::{DigestEntry, EventLog, LoadDigest, LoadDigestTable, ObjectTable};
use rtml_net::{Fabric, NetAddress};

use crate::msg::LoadReport;
use crate::policy::{LoadView, PlacementPolicy, PolicyState, DEFAULT_TOP_K};
use crate::wire::SchedWire;

/// Placement attempts before a task is parked to await a cluster change
/// (guards against local/global ping-pong on stale state).
const MAX_HOPS: u32 = 8;

/// Most objects remembered as inbound to one node between two of its
/// load reports; dependencies beyond that simply earn no credit.
const MAX_INBOUND: usize = 64;

/// Static configuration for the global scheduler.
#[derive(Clone, Debug)]
pub struct GlobalSchedulerConfig {
    /// Node hosting the global scheduler (its fabric endpoints live
    /// there; co-located components reach it without paying latency).
    pub host_node: NodeId,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Seed for randomized policies.
    pub seed: u64,
    /// Number of independent scheduler shards (≥ 1). The task keyspace
    /// is FNV-partitioned across them; every shard sees every node.
    pub shards: usize,
}

impl Default for GlobalSchedulerConfig {
    fn default() -> Self {
        GlobalSchedulerConfig {
            host_node: NodeId(0),
            policy: PlacementPolicy::LocalityAware,
            seed: 0x5eed,
            shards: 1,
        }
    }
}

/// Shard routing table handed to every local scheduler: which fabric
/// address owns which slice of the task keyspace.
///
/// Cheap to clone (the address list is shared). Routing uses the same
/// FNV-64 fold as every other keyspace partition in the system, so a
/// task's owning shard is a pure function of its id.
#[derive(Clone, Debug)]
pub struct GlobalRoutes {
    addresses: std::sync::Arc<Vec<NetAddress>>,
}

impl GlobalRoutes {
    /// Builds routes over the shard addresses, in shard order.
    pub fn new(addresses: Vec<NetAddress>) -> Self {
        assert!(!addresses.is_empty(), "at least one global shard");
        GlobalRoutes {
            addresses: std::sync::Arc::new(addresses),
        }
    }

    /// Routes for an unsharded (K = 1) global scheduler.
    pub fn single(address: NetAddress) -> Self {
        GlobalRoutes::new(vec![address])
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.addresses.len()
    }

    /// The shard owning `task`'s slice of the keyspace.
    pub fn shard_of(&self, task: TaskId) -> usize {
        task.bucket(self.addresses.len())
    }

    /// Fabric address of the shard owning `task`.
    pub fn address_for(&self, task: TaskId) -> NetAddress {
        self.addresses[self.shard_of(task)]
    }

    /// Fabric address of shard `shard`.
    pub fn address_of(&self, shard: usize) -> NetAddress {
        self.addresses[shard]
    }

    /// Every shard address, in shard order (broadcast targets for node
    /// lifecycle and load messages).
    pub fn all(&self) -> &[NetAddress] {
        &self.addresses
    }
}

/// Aggregate counters for experiments (one instance per shard).
#[derive(Debug, Default)]
pub struct GlobalStats {
    /// Tasks received via spill.
    pub spills: Counter,
    /// Placements issued.
    pub placements: Counter,
    /// Tasks currently or ever parked.
    pub parked: Counter,
    /// Nodes currently known (NodeUp received, not NodeDown). Used by the
    /// cluster to barrier on formation before accepting work.
    pub nodes_known: std::sync::atomic::AtomicUsize,
}

enum Control {
    Shutdown,
}

struct ShardHandle {
    address: NetAddress,
    control: Sender<Control>,
    join: Option<std::thread::JoinHandle<()>>,
    stats: std::sync::Arc<GlobalStats>,
}

/// Running handle over all global-scheduler shards.
pub struct GlobalSchedulerHandle {
    shards: Vec<ShardHandle>,
    routes: GlobalRoutes,
}

impl GlobalSchedulerHandle {
    /// The shard routing table local schedulers spill through.
    pub fn routes(&self) -> GlobalRoutes {
        self.routes.clone()
    }

    /// Fabric address of shard 0 (the primary; with K = 1 this is the
    /// single global scheduler's address).
    pub fn address(&self) -> NetAddress {
        self.shards[0].address
    }

    /// Number of shards running.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard 0's live counters (the whole scheduler's when K = 1).
    pub fn stats(&self) -> &GlobalStats {
        &self.shards[0].stats
    }

    /// Live counters of shard `shard`.
    pub fn shard_stats(&self, shard: usize) -> &GlobalStats {
        &self.shards[shard].stats
    }

    /// `(spills, placements, parked)` summed across shards.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.stats.spills.get(),
                acc.1 + s.stats.placements.get(),
                acc.2 + s.stats.parked.get(),
            )
        })
    }

    /// The minimum `nodes_known` across shards — the cluster formation
    /// barrier: every shard must see every node before work is admitted.
    pub fn nodes_known_min(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.stats
                    .nodes_known
                    .load(std::sync::atomic::Ordering::Acquire)
            })
            .min()
            .unwrap_or(0)
    }

    /// Requests shutdown and joins every shard thread.
    pub fn shutdown(&mut self) {
        for shard in &self.shards {
            let _ = shard.control.send(Control::Shutdown);
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for GlobalSchedulerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Namespace for spawning the global scheduler.
pub struct GlobalScheduler;

impl GlobalScheduler {
    /// Spawns `config.shards` independent scheduler shard threads.
    pub fn spawn(
        config: GlobalSchedulerConfig,
        fabric: std::sync::Arc<Fabric>,
        objects: ObjectTable,
        events: EventLog,
        digests: LoadDigestTable,
    ) -> GlobalSchedulerHandle {
        let num_shards = config.shards.max(1);
        let mut shards = Vec::with_capacity(num_shards);
        let mut addresses = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let endpoint = fabric.register(config.host_node, &format!("global-sched-{shard}"));
            let address = endpoint.address();
            addresses.push(address);
            let (control_tx, control_rx) = unbounded();
            let stats = std::sync::Arc::new(GlobalStats::default());
            let stats2 = stats.clone();
            let config2 = config.clone();
            let fabric2 = fabric.clone();
            let objects2 = objects.clone();
            let events2 = events.clone();
            let digests2 = digests.clone();
            let join = std::thread::Builder::new()
                .name(format!("rtml-gsched-{shard}"))
                .spawn(move || {
                    let seed = config2.seed ^ (shard as u64).wrapping_mul(0x9e37_79b9);
                    let mut core = GlobalCore {
                        config: config2,
                        shard: shard as u32,
                        num_shards,
                        fabric: fabric2,
                        objects: objects2,
                        events: events2,
                        digests: digests2,
                        address,
                        loads: FastMap::default(),
                        scheds: FastMap::default(),
                        placed_since: FastMap::default(),
                        parked: VecDeque::new(),
                        policy_state: PolicyState::new(seed),
                        stats: stats2,
                    };
                    core.run(endpoint, control_rx);
                })
                .expect("spawn global scheduler shard");
            shards.push(ShardHandle {
                address,
                control: control_tx,
                join: Some(join),
                stats,
            });
        }
        GlobalSchedulerHandle {
            shards,
            routes: GlobalRoutes::new(addresses),
        }
    }
}

struct GlobalCore {
    config: GlobalSchedulerConfig,
    shard: u32,
    num_shards: usize,
    fabric: std::sync::Arc<Fabric>,
    objects: ObjectTable,
    events: EventLog,
    digests: LoadDigestTable,
    address: NetAddress,
    /// Per-node load and reachability. Deterministic FNV maps: layout is
    /// a function of insertion history, and placement never iterates
    /// them without an explicit total order.
    loads: FastMap<NodeId, LoadReport>,
    scheds: FastMap<NodeId, NetAddress>,
    /// This shard's placements since each node's current load report —
    /// folded into its own view every batch and published as the load
    /// digest for sibling shards.
    placed_since: FastMap<NodeId, DigestEntry>,
    parked: VecDeque<(TaskSpec, u32)>,
    policy_state: PolicyState,
    stats: std::sync::Arc<GlobalStats>,
}

impl GlobalCore {
    fn run(&mut self, endpoint: rtml_net::Endpoint, control: Receiver<Control>) {
        loop {
            crossbeam::channel::select! {
                recv(endpoint.receiver()) -> msg => match msg {
                    Ok(delivery) => self.on_net(delivery.payload),
                    Err(_) => break,
                },
                recv(control) -> msg => match msg {
                    Ok(Control::Shutdown) | Err(_) => break,
                },
            }
        }
        if self.num_shards > 1 {
            self.digests.clear(self.shard);
        }
        self.fabric.unregister(self.address);
    }

    fn on_net(&mut self, payload: bytes::Bytes) {
        match decode_from_slice::<SchedWire>(&payload) {
            Ok(SchedWire::SpillBatch(specs)) => {
                self.stats.spills.add(specs.len() as u64);
                self.place_batch(specs, 0);
            }
            // A local scheduler bounced a placement (stale capacity);
            // try again with the hop count preserved.
            Ok(SchedWire::PlaceBatch { specs, hops }) => {
                self.place_batch(specs, hops);
            }
            Ok(SchedWire::Load(report)) => {
                // A fresh report already observed every earlier placement
                // in the queue it measured: retire the digest counters it
                // supersedes.
                if let Some(entry) = self.placed_since.get(&report.node) {
                    if entry.version < report.at_nanos {
                        self.placed_since.remove(&report.node);
                    }
                }
                self.loads.insert(report.node, report);
                self.update_known();
                self.retry_parked();
            }
            Ok(SchedWire::NodeUp {
                node,
                sched_address,
            }) => {
                self.scheds
                    .insert(node, NetAddress::from_u64(sched_address));
                self.update_known();
                self.retry_parked();
            }
            Ok(SchedWire::NodeDown { node }) => {
                self.loads.remove(&node);
                self.scheds.remove(&node);
                self.placed_since.remove(&node);
                self.update_known();
            }
            // Steal traffic flows local → local by design; a misrouted
            // frame carries nothing the global scheduler can act on.
            Ok(SchedWire::StealRequest { .. }) | Ok(SchedWire::StealGrant { .. }) => {}
            Err(_) => {}
        }
    }

    /// The effective load view for one batch: reachable nodes' reports
    /// with this shard's own and every sibling's placed-since-report
    /// counters and inbound objects folded in (version-matched — a newer
    /// report already includes them).
    fn effective_view(&self) -> LoadView {
        let mut effective: FastMap<NodeId, LoadReport> = fast_map_with_capacity(self.loads.len());
        for (node, report) in &self.loads {
            if self.scheds.contains_key(node) {
                effective.insert(*node, report.clone());
            }
        }
        let siblings = match self.num_shards {
            1 => Vec::new(),
            k => self.digests.sweep(self.shard, k as u32),
        };
        let live: Vec<&DigestEntry> = siblings
            .iter()
            .flat_map(|digest| &digest.entries)
            .chain(self.placed_since.values())
            .filter(|entry| {
                let report = effective.get(&entry.node);
                report.is_some_and(|report| report.at_nanos == entry.version)
            })
            .collect();
        for entry in &live {
            let report = effective.get_mut(&entry.node).expect("filtered above");
            report.ready = report.ready.saturating_add(entry.placed as u32);
        }
        let mut view = LoadView::build(effective, DEFAULT_TOP_K);
        for entry in live {
            for object in &entry.inbound {
                view.note_inbound(entry.node, *object);
            }
        }
        view
    }

    /// Records a placement in this shard's digest, keyed to the load
    /// report it was decided against: one more task queued on `node`,
    /// and its dependencies inbound there.
    fn note_placed(&mut self, node: NodeId, spec: &TaskSpec) {
        let version = self.loads.get(&node).map(|l| l.at_nanos).unwrap_or(0);
        let entry = self.placed_since.entry(node).or_insert(DigestEntry {
            node,
            version,
            placed: 0,
            inbound: Vec::new(),
        });
        if entry.version != version {
            entry.version = version;
            entry.placed = 0;
            entry.inbound.clear();
        }
        entry.placed += 1;
        for object in spec.dependencies() {
            if entry.inbound.len() < MAX_INBOUND && !entry.inbound.contains(&object) {
                entry.inbound.push(object);
            }
        }
    }

    /// Publishes this shard's digest as one group-committed kv write so
    /// sibling shards can fold it into their next batch's view.
    fn publish_digest(&self) {
        let mut entries: Vec<DigestEntry> = self.placed_since.values().cloned().collect();
        entries.sort_unstable_by_key(|e| e.node);
        self.digests.publish(self.shard, &LoadDigest { entries });
    }

    /// Places a batch of tasks with one cluster-view snapshot, then
    /// coalesces all placements destined for the same node into a single
    /// `PlaceBatch` frame — a spilled burst pays one fabric hop per
    /// destination instead of one per task.
    ///
    /// Each task's placement is a pure function of `(spec, view)`: the
    /// snapshot is not mutated mid-batch, so splitting this batch across
    /// shards sharing the view would place every task identically (the
    /// sharded-equals-single determinism property). Equal candidates are
    /// spread by the per-task hash inside the policy; batch-to-batch
    /// spreading comes from folding `placed_since` into the next view.
    fn place_batch(&mut self, specs: Vec<TaskSpec>, hops: u32) {
        if specs.is_empty() {
            return;
        }
        if hops >= MAX_HOPS {
            for spec in specs {
                self.park(spec, hops);
            }
            return;
        }
        let started = std::time::Instant::now();
        let view = self.effective_view();
        let mut groups: FastMap<NodeId, Vec<TaskSpec>> = FastMap::default();
        let at_nanos = rtml_common::time::now_nanos();
        let mut events = Vec::with_capacity(specs.len() + 1);
        for spec in specs {
            let choice =
                self.config
                    .policy
                    .place(&spec, &view, &self.objects, &mut self.policy_state);
            match choice {
                Some(node) => {
                    events.push(Event {
                        at_nanos,
                        component: Component::GlobalScheduler,
                        kind: EventKind::TaskPlaced {
                            task: spec.task_id,
                            node,
                        },
                    });
                    self.note_placed(node, &spec);
                    groups.entry(node).or_default().push(spec);
                }
                None => self.park(spec, hops),
            }
        }
        let placed: u32 = groups.values().map(|g| g.len() as u32).sum();
        // One span per batch, riding the same frame as the per-task
        // placement events (same component → no extra kv append).
        events.push(Event::now(
            Component::GlobalScheduler,
            EventKind::PlacementBatch {
                node: self.config.host_node,
                shard: self.shard,
                tasks: placed,
                micros: started.elapsed().as_micros() as u64,
            },
        ));
        self.events.append_many(self.config.host_node, events);
        if self.num_shards > 1 && !groups.is_empty() {
            self.publish_digest();
        }
        // Deterministic send order regardless of map layout.
        let mut groups: Vec<(NodeId, Vec<TaskSpec>)> = groups.into_iter().collect();
        groups.sort_unstable_by_key(|(node, _)| *node);
        for (node, group) in groups {
            let Some(target) = self.scheds.get(&node).copied() else {
                for spec in group {
                    self.park(spec, hops);
                }
                continue;
            };
            let count = group.len() as u64;
            let msg = SchedWire::PlaceBatch {
                specs: group,
                hops: hops + 1,
            };
            // Pre-size the frame encode: ~96 bytes per spec covers the
            // common small-spec case without a doubling series.
            let mut w = rtml_common::codec::Writer::with_capacity(32 + 96 * count as usize);
            msg.encode(&mut w);
            if self
                .fabric
                .send(self.address, target, w.into_bytes())
                .is_ok()
            {
                self.stats.placements.add(count);
            } else {
                // The node vanished mid-send; forget it and park.
                self.scheds.remove(&node);
                self.loads.remove(&node);
                self.placed_since.remove(&node);
                let SchedWire::PlaceBatch { specs, hops } = msg else {
                    unreachable!("constructed above")
                };
                for spec in specs {
                    self.park(spec, hops);
                }
            }
        }
    }

    /// A node counts as known once it is both reachable (NodeUp) and has
    /// reported load — i.e. it is a viable placement candidate.
    fn update_known(&self) {
        let known = self
            .scheds
            .keys()
            .filter(|n| self.loads.contains_key(n))
            .count();
        self.stats
            .nodes_known
            .store(known, std::sync::atomic::Ordering::Release);
    }

    fn park(&mut self, spec: TaskSpec, hops: u32) {
        self.stats.parked.inc();
        self.parked.push_back((spec, hops.min(MAX_HOPS - 1)));
    }

    fn retry_parked(&mut self) {
        let mut batch: VecDeque<(TaskSpec, u32)> = std::mem::take(&mut self.parked);
        while let Some((spec, hops)) = batch.pop_front() {
            self.place_batch(vec![spec], hops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::codec::encode_to_bytes;
    use rtml_common::ids::{DriverId, FunctionId, TaskId};
    use rtml_common::resources::Resources;
    use rtml_kv::KvStore;
    use rtml_net::FabricConfig;
    use std::time::Duration;

    struct Rig {
        fabric: std::sync::Arc<Fabric>,
        kv: std::sync::Arc<KvStore>,
        handle: GlobalSchedulerHandle,
    }

    fn rig_sharded(policy: PlacementPolicy, shards: usize) -> Rig {
        let fabric = Fabric::new(FabricConfig::default());
        let kv = KvStore::new(2);
        let handle = GlobalScheduler::spawn(
            GlobalSchedulerConfig {
                host_node: NodeId(0),
                policy,
                seed: 7,
                shards,
            },
            fabric.clone(),
            ObjectTable::new(kv.clone()),
            EventLog::new(kv.clone()),
            LoadDigestTable::new(kv.clone()),
        );
        Rig { fabric, kv, handle }
    }

    fn rig(policy: PlacementPolicy) -> Rig {
        rig_sharded(policy, 1)
    }

    /// Announces a fake node to every shard (NodeUp + Load broadcast,
    /// exactly like a real local scheduler).
    fn fake_node(rig: &Rig, node: NodeId, queue: u32, total: Resources) -> rtml_net::Endpoint {
        let endpoint = rig.fabric.register(node, "fake-local");
        for target in rig.handle.routes().all() {
            let up = SchedWire::NodeUp {
                node,
                sched_address: endpoint.address().as_u64(),
            };
            rig.fabric
                .send(endpoint.address(), *target, encode_to_bytes(&up))
                .unwrap();
            let load = SchedWire::Load(LoadReport {
                node,
                sched_address: endpoint.address().as_u64(),
                ready: queue,
                waiting: 0,
                running: 0,
                idle_workers: 1,
                available: total.clone(),
                total: total.clone(),
                at_nanos: 0,
            });
            rig.fabric
                .send(endpoint.address(), *target, encode_to_bytes(&load))
                .unwrap();
        }
        endpoint
    }

    fn spill(rig: &Rig, from: &rtml_net::Endpoint, spec: TaskSpec) {
        let target = rig.handle.routes().address_for(spec.task_id);
        rig.fabric
            .send(
                from.address(),
                target,
                encode_to_bytes(&SchedWire::SpillBatch(vec![spec])),
            )
            .unwrap();
    }

    fn expect_place(endpoint: &rtml_net::Endpoint) -> TaskSpec {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .expect("timed out waiting for placement");
            let d = endpoint
                .receiver()
                .recv_timeout(remaining)
                .expect("delivery");
            if let Ok(SchedWire::PlaceBatch { mut specs, .. }) = decode_from_slice(&d.payload) {
                assert_eq!(specs.len(), 1, "one spilled task, one placement");
                return specs.remove(0);
            }
        }
    }

    fn task(idx: u64, resources: Resources) -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let mut spec = TaskSpec::simple(root.child(idx), FunctionId::from_name("f"), vec![]);
        spec.resources = resources;
        spec
    }

    fn wait_counter(counter: &rtml_common::metrics::Counter, expected: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while counter.get() != expected {
            assert!(
                std::time::Instant::now() < deadline,
                "counter stuck at {} (expected {expected})",
                counter.get()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn places_on_least_loaded() {
        let mut r = rig(PlacementPolicy::LeastLoaded);
        let busy = fake_node(&r, NodeId(1), 10, Resources::cpu(4.0));
        let idle = fake_node(&r, NodeId(2), 0, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20)); // let loads land
        spill(&r, &busy, task(0, Resources::cpu(1.0)));
        let placed = expect_place(&idle);
        assert_eq!(placed.task_id, task(0, Resources::cpu(1.0)).task_id);
        // With zero fabric latency, delivery is synchronous inside the
        // scheduler's send: observing the placement does not order-after the
        // scheduler's own counter updates, so give them a bounded wait.
        wait_counter(&r.handle.stats().spills, 1);
        wait_counter(&r.handle.stats().placements, 1);
        r.handle.shutdown();
    }

    #[test]
    fn respects_resource_fit() {
        let mut r = rig(PlacementPolicy::LeastLoaded);
        let cpu_node = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let gpu_node = fake_node(&r, NodeId(2), 50, Resources::new(4.0, 2.0));
        std::thread::sleep(Duration::from_millis(20));
        // GPU task must land on the busy GPU node, not the idle CPU node.
        spill(&r, &cpu_node, task(0, Resources::gpu(1.0)));
        let placed = expect_place(&gpu_node);
        assert_eq!(placed.resources, Resources::gpu(1.0));
        r.handle.shutdown();
    }

    #[test]
    fn parks_until_fitting_node_appears() {
        let mut r = rig(PlacementPolicy::LeastLoaded);
        let cpu_node = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        spill(&r, &cpu_node, task(0, Resources::gpu(1.0)));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(r.handle.stats().parked.get(), 1);
        assert_eq!(r.handle.stats().placements.get(), 0);
        // A GPU node joins; the parked task must be placed there.
        let gpu_node = fake_node(&r, NodeId(2), 0, Resources::new(4.0, 1.0));
        let placed = expect_place(&gpu_node);
        assert_eq!(placed.resources, Resources::gpu(1.0));
        r.handle.shutdown();
    }

    #[test]
    fn locality_aware_places_near_data() {
        let mut r = rig(PlacementPolicy::LocalityAware);
        let objects = ObjectTable::new(r.kv.clone());
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(9).return_object(0);
        objects.add_location(dep, NodeId(2), 1 << 20);

        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 3, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        let mut spec = task(0, Resources::cpu(1.0));
        spec.args = vec![rtml_common::task::ArgSpec::ObjectRef(dep)];
        spill(&r, &n1, spec);
        let placed = expect_place(&n2);
        assert_eq!(placed.dependency_count(), 1);
        r.handle.shutdown();
    }

    #[test]
    fn a_spilled_burst_fills_every_first_wave_before_any_second() {
        // 4 nodes x 4 slots. Node 0 holds the burst's 1 MiB dependency
        // and reports 13 queued (its own share of the burst); the other
        // 19 tasks spill one at a time against frozen load reports.
        let mut r = rig(PlacementPolicy::LocalityAware);
        let objects = ObjectTable::new(r.kv.clone());
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(999).return_object(0);
        objects.add_location(dep, NodeId(0), 1 << 20);
        let nodes: Vec<rtml_net::Endpoint> = (0..4)
            .map(|n| {
                fake_node(
                    &r,
                    NodeId(n),
                    if n == 0 { 13 } else { 0 },
                    Resources::cpu(4.0),
                )
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let mut placed_on: Vec<usize> = Vec::new();
        for i in 0..19 {
            let mut spec = task(i, Resources::cpu(1.0));
            spec.args = vec![rtml_common::task::ArgSpec::ObjectRef(dep)];
            spill(&r, &nodes[0], spec);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let node = 'placed: loop {
                for (n, endpoint) in nodes.iter().enumerate() {
                    while let Ok(d) = endpoint.receiver().try_recv() {
                        if let Ok(SchedWire::PlaceBatch { .. }) = decode_from_slice(&d.payload) {
                            break 'placed n;
                        }
                    }
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "spill {i} never placed"
                );
                std::thread::yield_now();
            };
            placed_on.push(node);
        }
        let count =
            |upto: usize, node: usize| placed_on[..upto].iter().filter(|n| **n == node).count();
        // The holder is three waves deep: nothing returns to it. Each
        // idle node's first wave fills in turn — the object is inbound
        // there after its first task — so all three are fetching by the
        // ninth placement, and none starts a second wave before every
        // one has a first.
        assert_eq!(count(19, 0), 0, "{placed_on:?}");
        for node in 1..4 {
            assert!(
                count(9, node) >= 1,
                "node {node} idle after 9 placements: {placed_on:?}"
            );
            assert_eq!(count(12, node), 4, "{placed_on:?}");
        }
        let totals: Vec<usize> = (1..4).map(|node| count(19, node)).collect();
        let spread = totals.iter().max().unwrap() - totals.iter().min().unwrap();
        assert!(spread <= 4, "more than a wave apart: {totals:?}");
        r.handle.shutdown();
    }

    #[test]
    fn node_down_removes_candidate() {
        let mut r = rig(PlacementPolicy::LeastLoaded);
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 5, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        r.fabric
            .send(
                n1.address(),
                r.handle.address(),
                encode_to_bytes(&SchedWire::NodeDown { node: NodeId(1) }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        spill(&r, &n1, task(0, Resources::cpu(1.0)));
        // Node 1 is gone; the busier node 2 must receive the task.
        let placed = expect_place(&n2);
        assert_eq!(placed.resources, Resources::cpu(1.0));
        r.handle.shutdown();
    }

    #[test]
    fn spill_batch_is_placed_in_coalesced_frames() {
        let mut r = rig(PlacementPolicy::LeastLoaded);
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 0, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        let specs: Vec<TaskSpec> = (0..10).map(|i| task(i, Resources::cpu(1.0))).collect();
        r.fabric
            .send(
                n1.address(),
                r.handle.address(),
                encode_to_bytes(&SchedWire::SpillBatch(specs)),
            )
            .unwrap();
        // All ten tasks arrive, spread over both nodes, and the whole
        // batch crosses the fabric in at most one frame per node.
        let mut placed = 0;
        let mut frames = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while placed < 10 {
            assert!(std::time::Instant::now() < deadline, "placed {placed}/10");
            for endpoint in [&n1, &n2] {
                while let Ok(d) = endpoint.receiver().try_recv() {
                    if let Ok(SchedWire::PlaceBatch { specs, hops }) = decode_from_slice(&d.payload)
                    {
                        assert_eq!(hops, 1);
                        placed += specs.len();
                        frames += 1;
                    }
                }
            }
            std::thread::yield_now();
        }
        assert_eq!(placed, 10);
        assert!(frames <= 2, "expected coalesced frames, got {frames}");
        assert_eq!(r.handle.stats().spills.get(), 10);
        assert_eq!(r.handle.stats().placements.get(), 10);
        r.handle.shutdown();
    }

    #[test]
    fn burst_spreads_via_hash_and_batch_digest() {
        let mut r = rig(PlacementPolicy::LeastLoaded);
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 0, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        // Ten spills with no intervening load reports: the per-task
        // spread hash plus the placed-since-report fold keep the two
        // equal nodes within one task of each other.
        for i in 0..10 {
            spill(&r, &n1, task(i, Resources::cpu(1.0)));
        }
        let mut count1 = 0;
        let mut count2 = 0;
        for _ in 0..10 {
            crossbeam::channel::select! {
                recv(n1.receiver()) -> d => {
                    if let Ok(SchedWire::PlaceBatch { .. }) = decode_from_slice(&d.unwrap().payload) {
                        count1 += 1;
                    }
                }
                recv(n2.receiver()) -> d => {
                    if let Ok(SchedWire::PlaceBatch { .. }) = decode_from_slice(&d.unwrap().payload) {
                        count2 += 1;
                    }
                }
            }
        }
        assert_eq!(count1 + count2, 10);
        assert!(count1 >= 3 && count2 >= 3, "skewed: {count1}/{count2}");
        r.handle.shutdown();
    }

    #[test]
    fn routes_partition_and_reach_every_shard() {
        let mut r = rig_sharded(PlacementPolicy::LeastLoaded, 4);
        assert_eq!(r.handle.num_shards(), 4);
        let routes = r.handle.routes();
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 0, Resources::cpu(4.0));
        // Formation: every shard must see both nodes.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while r.handle.nodes_known_min() < 2 {
            assert!(std::time::Instant::now() < deadline, "formation stalled");
            std::thread::yield_now();
        }
        // Spill 32 tasks, each to its owning shard; every one must come
        // back as a placement on some node.
        let mut owners = std::collections::BTreeSet::new();
        for i in 0..32 {
            let spec = task(i, Resources::cpu(1.0));
            owners.insert(routes.shard_of(spec.task_id));
            spill(&r, &n1, spec);
        }
        assert!(owners.len() > 1, "expected tasks across multiple shards");
        let mut placed = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while placed < 32 {
            assert!(std::time::Instant::now() < deadline, "placed {placed}/32");
            for endpoint in [&n1, &n2] {
                while let Ok(d) = endpoint.receiver().try_recv() {
                    if let Ok(SchedWire::PlaceBatch { specs, .. }) = decode_from_slice(&d.payload) {
                        placed += specs.len();
                    }
                }
            }
            std::thread::yield_now();
        }
        let (spills, placements, _parked) = r.handle.totals();
        assert_eq!(spills, 32);
        assert_eq!(placements, 32);
        // Every shard that owned tasks actually placed some.
        for shard in owners {
            assert!(
                r.handle.shard_stats(shard).placements.get() > 0,
                "shard {shard} idle"
            );
        }
        r.handle.shutdown();
    }

    #[test]
    fn sibling_digest_steers_next_batch_away() {
        // Shard 0 places a burst onto the single idle node and publishes
        // its digest; shard 1's next batch must see that node as loaded
        // and prefer the other one.
        let mut r = rig_sharded(PlacementPolicy::LeastLoaded, 2);
        let routes = r.handle.routes();
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let _n2 = fake_node(&r, NodeId(2), 4, Resources::cpu(4.0));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while r.handle.nodes_known_min() < 2 {
            assert!(std::time::Instant::now() < deadline, "formation stalled");
            std::thread::yield_now();
        }
        // Find task ids owned by each shard.
        let mut shard0 = Vec::new();
        let mut shard1 = Vec::new();
        for i in 0..64 {
            let spec = task(i, Resources::cpu(1.0));
            match routes.shard_of(spec.task_id) {
                0 => shard0.push(spec),
                _ => shard1.push(spec),
            }
        }
        // One batch of 8 tasks through shard 0: all land somewhere and
        // the digest records them.
        let batch: Vec<TaskSpec> = shard0.drain(..).take(8).collect();
        r.fabric
            .send(
                n1.address(),
                routes.address_of(0),
                encode_to_bytes(&SchedWire::SpillBatch(batch)),
            )
            .unwrap();
        wait_counter(&r.handle.shard_stats(0).placements, 8);
        // Shard 1 now places one task; its view folds shard 0's digest,
        // so node 1's effective depth is 0 + placements(n1), node 2's is
        // 4 + placements(n2). Whatever the split, placements happened
        // and shard 1 still places successfully.
        let spec = shard1.remove(0);
        r.fabric
            .send(
                n1.address(),
                routes.address_of(1),
                encode_to_bytes(&SchedWire::SpillBatch(vec![spec])),
            )
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while r.handle.shard_stats(1).placements.get() < 1 {
            assert!(std::time::Instant::now() < deadline, "shard 1 never placed");
            std::thread::yield_now();
        }
        // The digest itself is readable and versioned.
        let digests = LoadDigestTable::new(r.kv.clone());
        let seen = digests.sweep(1, 2);
        assert_eq!(seen.len(), 1, "shard 0 digest missing");
        let placed: u64 = seen[0].entries.iter().map(|e| e.placed).sum();
        assert_eq!(placed, 8);
        r.handle.shutdown();
    }
}
