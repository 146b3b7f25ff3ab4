//! The global scheduler (paper §3.2.2).
//!
//! Receives spilled tasks from local schedulers over the fabric, and
//! places each on a node chosen from cluster-wide information: per-node
//! load reports (pushed by local schedulers) and object locality (read
//! from the object table). Placements are sent back over the fabric to
//! the chosen node's local scheduler — every hop through here costs
//! cross-node latency, which is exactly why the hybrid design keeps the
//! common case local.
//!
//! It is one thread at one fabric address, on node 0. Local schedulers
//! handle the common case; only spillover reaches it.
//!
//! # Which nodes it places on
//!
//! Membership is the node table ([`TransferDirectory`]), which lists
//! each live node at its one fabric address; no frame announces a node
//! or its death. A node is a candidate while the table lists it at the
//! address its last report carries ([`LoadReport::sched_address`]). A
//! killed node is no longer listed; a report of a dead incarnation
//! carries an address the table no longer lists (fabric addresses are
//! never reused); and a restarted node is not placed on against its
//! old report. A node's first `Load` announces it, and a report from a
//! new address starts its in-flight count afresh.
//!
//! # What the scheduler sees of a node
//!
//! Its view of a node is what the node measured, plus what is still on
//! the wire to it, plus what the current batch just added:
//!
//! - **The report.** Each node sends its [`LoadReport`] in a `Load`
//!   frame, and a spilling node sends a fresh one inside the
//!   `SpillBatch` itself — so a spill is never placed back on its
//!   sender against a report up to a [`crate::local::LOAD_INTERVAL`]
//!   old. An older report overtaken on the wire by a newer one is
//!   ignored.
//! - **In flight.** The scheduler counts the `PlaceBatch` tasks it sent
//!   each node; the node counts the ones it ingested and returns that
//!   count in every frame addressed to the scheduler, measured in the
//!   same turn as the report beside it. `sent − ingested` is exactly
//!   what the report cannot contain yet, so it is added to the node's
//!   depth until a report shows it ingested — a report measured before
//!   a batch arrived retires nothing. A frame the fabric lost is written
//!   off once a report measured `LOST_AFTER` (100 ms) after it was sent
//!   still does not count it.
//! - **The batch.** Each pick is fed back into the batch's view
//!   ([`LoadView::note_placed`]), so one `SpillBatch` fills nodes as it
//!   is placed instead of landing on whichever node looked emptiest
//!   when it arrived.
//!
//! Placement is therefore a pure function of the batch and the view it
//! started from ([`crate::policy`]).
//!
//! Tasks that currently fit no node (e.g. GPU demand while the only GPU
//! node is down) are **parked** and retried whenever a load report
//! arrives.

use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use rtml_common::codec::{decode_from_slice, Codec};
use rtml_common::collections::FastMap;
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::metrics::{Counter, MetricsRegistry};
use rtml_common::task::TaskSpec;
use rtml_kv::{EventLog, ObjectTable};
use rtml_net::{Fabric, NetAddress};
use rtml_store::TransferDirectory;

use crate::msg::LoadReport;
use crate::policy::{LoadView, PlacementPolicy, PolicyState, DEFAULT_TOP_K};
use crate::wire::SchedWire;

/// The node the scheduler's endpoint lives on: components there reach
/// it without fabric latency.
const HOST: NodeId = NodeId(0);

/// Most objects remembered as inbound to one node while tasks needing
/// them are in flight there; dependencies beyond that earn no credit.
const MAX_INBOUND: usize = 64;

/// A `PlaceBatch` frame a report measured this long after it was sent
/// still does not count was lost on the wire: its tasks stop counting.
const LOST_AFTER: u64 = 100_000_000;

/// The scheduler's placements onto one node that the node has not
/// reported ingesting. Counts are over the node's lifetime (reset when a
/// report comes from a new address), because the node's own count is.
#[derive(Debug, Default)]
struct InFlight {
    /// Tasks sent in `PlaceBatch` frames.
    sent: u64,
    /// Of those, ingested (the node's count) or written off as lost.
    retired: u64,
    /// The node's own count, as last reported.
    ingested: u64,
    /// Frames not yet retired: `(sent after the frame, sent at nanos)`.
    frames: VecDeque<(u64, u64)>,
    /// Dependencies of in-flight tasks: `(object, sent after the last
    /// task needing it)` — inbound until that task is retired.
    inbound: Vec<(ObjectId, u64)>,
}

impl InFlight {
    fn count(&self) -> u64 {
        self.sent - self.retired
    }

    /// `group` was sent to the node at `at_nanos`.
    fn note_sent(&mut self, group: &[TaskSpec], at_nanos: u64) {
        for spec in group {
            self.sent += 1;
            for object in spec.dependencies() {
                if let Some(entry) = self.inbound.iter_mut().find(|(o, _)| *o == object) {
                    entry.1 = self.sent;
                } else if self.inbound.len() < MAX_INBOUND {
                    self.inbound.push((object, self.sent));
                }
            }
        }
        self.frames.push_back((self.sent, at_nanos));
    }

    /// The node reported `ingested` of the scheduler's tasks in a report
    /// measured at `at_nanos`.
    fn on_report(&mut self, ingested: u64, at_nanos: u64) {
        // A duplicated frame is ingested twice; never retire more than
        // was sent.
        self.retired += ingested.saturating_sub(self.ingested);
        self.retired = self.retired.min(self.sent);
        self.ingested = self.ingested.max(ingested);
        while let Some(&(upto, sent_at)) = self.frames.front() {
            if upto > self.retired && sent_at + LOST_AFTER > at_nanos {
                break;
            }
            self.retired = self.retired.max(upto);
            self.frames.pop_front();
        }
        let retired = self.retired;
        self.inbound.retain(|(_, upto)| *upto > retired);
    }
}

/// Aggregate counters for experiments.
#[derive(Debug, Default)]
pub struct GlobalStats {
    /// Tasks received via spill.
    pub spills: Counter,
    /// Placements issued.
    pub placements: Counter,
    /// Tasks currently or ever parked.
    pub parked: Counter,
    /// Placement candidates as of the last load report: nodes the node
    /// table lists at the address their report carries. Used by the
    /// cluster to barrier on formation before accepting work.
    pub nodes_known: std::sync::atomic::AtomicUsize,
}

enum Control {
    Shutdown,
}

/// Running handle over the global scheduler thread.
pub struct GlobalSchedulerHandle {
    address: NetAddress,
    control: Sender<Control>,
    join: Option<std::thread::JoinHandle<()>>,
    stats: Arc<GlobalStats>,
}

impl GlobalSchedulerHandle {
    /// Fabric address local schedulers spill to and report load to.
    pub fn address(&self) -> NetAddress {
        self.address
    }

    /// Live counters.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Registers the counters (`global.*`).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        type Read = fn(&GlobalStats) -> &Counter;
        let counters: [(&str, Read); 3] = [
            ("global.spills", |s| &s.spills),
            ("global.placements", |s| &s.placements),
            ("global.parked", |s| &s.parked),
        ];
        for (name, read) in counters {
            let stats = self.stats.clone();
            registry.register_value(name, move || read(&stats).get());
        }
    }

    /// Requests shutdown and joins the scheduler thread.
    pub fn shutdown(&mut self) {
        let _ = self.control.send(Control::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
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
    /// Spawns the scheduler thread, placing by `policy` on the nodes
    /// `directory` lists.
    pub fn spawn(
        policy: PlacementPolicy,
        fabric: Arc<Fabric>,
        directory: Arc<TransferDirectory>,
        objects: ObjectTable,
        events: EventLog,
    ) -> GlobalSchedulerHandle {
        let endpoint = fabric.register(HOST, "global-sched");
        let address = endpoint.address();
        let (control_tx, control_rx) = unbounded();
        let stats = Arc::new(GlobalStats::default());
        let mut core = GlobalCore {
            policy,
            fabric,
            directory,
            objects,
            events,
            address,
            loads: FastMap::default(),
            in_flight: FastMap::default(),
            parked: VecDeque::new(),
            stats: stats.clone(),
        };
        let join = std::thread::Builder::new()
            .name("rtml-gsched".into())
            .spawn(move || core.run(endpoint, control_rx))
            .expect("spawn global scheduler");
        GlobalSchedulerHandle {
            address,
            control: control_tx,
            join: Some(join),
            stats,
        }
    }
}

struct GlobalCore {
    policy: PlacementPolicy,
    fabric: Arc<Fabric>,
    /// The node table: who is alive, and at which address.
    directory: Arc<TransferDirectory>,
    objects: ObjectTable,
    events: EventLog,
    address: NetAddress,
    /// Each node's last report. Deterministic FNV maps: layout is a
    /// function of insertion history, and placement never iterates
    /// them without an explicit total order.
    loads: FastMap<NodeId, LoadReport>,
    /// Placements each node has not reported ingesting, folded into the
    /// view every batch.
    in_flight: FastMap<NodeId, InFlight>,
    parked: VecDeque<TaskSpec>,
    stats: Arc<GlobalStats>,
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
        self.fabric.unregister(self.address);
    }

    fn on_net(&mut self, payload: bytes::Bytes) {
        match decode_from_slice::<SchedWire>(&payload) {
            Ok(SchedWire::SpillBatch {
                specs,
                load,
                ingested,
            }) => {
                self.stats.spills.add(specs.len() as u64);
                self.on_load(load, ingested);
                self.place_batch(specs);
            }
            Ok(SchedWire::Load { report, ingested }) => self.on_load(report, ingested),
            Ok(SchedWire::PlaceBatch { .. }) | Err(_) => {}
        }
    }

    /// A node's report (a `Load` frame, or the one a spill carries),
    /// with how many of the scheduler's placements it has ingested.
    fn on_load(&mut self, report: LoadReport, ingested: u64) {
        let node = report.node;
        match self.loads.get(&node) {
            Some(last) if last.at_nanos >= report.at_nanos => {
                return; // measured no later than the report already applied
            }
            // A node restarted at a new address counts its ingests from
            // zero.
            Some(last) if last.sched_address != report.sched_address => {
                self.in_flight.remove(&node);
            }
            _ => {}
        }
        if let Some(flight) = self.in_flight.get_mut(&node) {
            flight.on_report(ingested, report.at_nanos);
        }
        self.loads.insert(node, report);
        self.update_known();
        self.retry_parked();
    }

    /// Drops everything known about `node` (it vanished mid-send).
    fn forget(&mut self, node: NodeId) {
        self.loads.remove(&node);
        self.in_flight.remove(&node);
    }

    /// The placement candidates' reports: nodes the node table lists at
    /// the address their last report carries, read under one lock.
    fn candidates(&self) -> impl Iterator<Item = (NodeId, &LoadReport)> {
        self.directory
            .entries()
            .into_iter()
            .filter_map(|(node, address)| {
                let report = self.loads.get(&node)?;
                (report.sched_address == address.as_u64()).then_some((node, report))
            })
    }

    /// The view one batch starts from: the candidates' reports with the
    /// in-flight placements and their inbound objects folded in.
    fn effective_view(&self) -> LoadView {
        let effective: FastMap<NodeId, LoadReport> = self
            .candidates()
            .map(|(node, report)| (node, report.clone()))
            .collect();
        let mut view = LoadView::build(effective, DEFAULT_TOP_K);
        for (node, flight) in &self.in_flight {
            if view.get(*node).is_some() {
                let inbound = flight.inbound.iter().map(|(object, _)| *object);
                view.note_queued(*node, flight.count() as u32, inbound);
            }
        }
        view
    }

    /// Places a batch of tasks, then coalesces all placements destined
    /// for the same node into a single `PlaceBatch` frame — a spilled
    /// burst pays one fabric hop per destination instead of one per
    /// task.
    ///
    /// Each pick is fed back into the view before the next, so the
    /// batch's placement is a pure function of the batch and the view
    /// it started from: the same batch against the same view places
    /// identically on every run. Equal candidates
    /// are spread by the per-task hash inside the policy.
    fn place_batch(&mut self, specs: Vec<TaskSpec>) {
        if specs.is_empty() {
            return;
        }
        let started = std::time::Instant::now();
        let mut view = self.effective_view();
        let mut groups: FastMap<NodeId, Vec<TaskSpec>> = FastMap::default();
        let at_nanos = rtml_common::time::now_nanos();
        let mut events = Vec::with_capacity(specs.len() + 1);
        // Placement is pure: the policy state is never read.
        let mut state = PolicyState::default();
        for spec in specs {
            let choice = self.policy.place(&spec, &view, &self.objects, &mut state);
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
                    view.note_placed(node, &spec);
                    groups.entry(node).or_default().push(spec);
                }
                None => self.park(spec),
            }
        }
        let placed: u32 = groups.values().map(|g| g.len() as u32).sum();
        // One span per batch, riding the same frame as the per-task
        // placement events (same component → no extra kv append).
        events.push(Event::now(
            Component::GlobalScheduler,
            EventKind::PlacementBatch {
                node: HOST,
                tasks: placed,
                micros: started.elapsed().as_micros() as u64,
            },
        ));
        self.events.append_many(HOST, events);
        // Deterministic send order regardless of map layout. Every frame
        // is counted in flight before any is sent, so no report can count
        // a task before the scheduler does.
        let mut groups: Vec<(NodeId, Vec<TaskSpec>)> = groups.into_iter().collect();
        groups.sort_unstable_by_key(|(node, _)| *node);
        for (node, group) in &groups {
            let flight = self.in_flight.entry(*node).or_default();
            flight.note_sent(group, at_nanos);
        }
        for (node, group) in groups {
            // The address the node table lists: the view holds only
            // nodes listed where their report says.
            let target = self
                .loads
                .get(&node)
                .map(|report| NetAddress::from_u64(report.sched_address))
                .expect("the view holds listed nodes only");
            let count = group.len() as u64;
            let msg = SchedWire::PlaceBatch { specs: group };
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
                self.forget(node);
                let SchedWire::PlaceBatch { specs } = msg else {
                    unreachable!("constructed above")
                };
                for spec in specs {
                    self.park(spec);
                }
            }
        }
    }

    /// A node counts as known while it is a placement candidate.
    fn update_known(&self) {
        let known = self.candidates().count();
        self.stats
            .nodes_known
            .store(known, std::sync::atomic::Ordering::Release);
    }

    fn park(&mut self, spec: TaskSpec) {
        self.stats.parked.inc();
        self.parked.push_back(spec);
    }

    fn retry_parked(&mut self) {
        for spec in std::mem::take(&mut self.parked) {
            self.place_batch(vec![spec]);
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
        fabric: Arc<Fabric>,
        kv: Arc<KvStore>,
        directory: Arc<TransferDirectory>,
        handle: GlobalSchedulerHandle,
    }

    fn rig() -> Rig {
        let fabric = Fabric::new(FabricConfig::default());
        let kv = KvStore::new(2);
        let directory = TransferDirectory::new();
        let handle = GlobalScheduler::spawn(
            PlacementPolicy::LocalityAware,
            fabric.clone(),
            directory.clone(),
            ObjectTable::new(kv.clone()),
            EventLog::new(kv.clone()),
        );
        Rig {
            fabric,
            kv,
            directory,
            handle,
        }
    }

    /// A fake node's load: `queue` ready tasks on `total`, measured at
    /// `at_nanos`.
    fn report(
        endpoint: &rtml_net::Endpoint,
        queue: u32,
        total: Resources,
        at_nanos: u64,
    ) -> LoadReport {
        LoadReport {
            node: endpoint.node(),
            sched_address: endpoint.address().as_u64(),
            ready: queue,
            waiting: 0,
            running: 0,
            idle_workers: 1,
            available: total.clone(),
            total,
            at_nanos,
        }
    }

    /// Sends `report` from `from` in a `Load` frame that counts
    /// `ingested` of the scheduler's placements.
    fn send_load(rig: &Rig, from: &rtml_net::Endpoint, report: LoadReport, ingested: u64) {
        let load = SchedWire::Load { report, ingested };
        rig.fabric
            .send(from.address(), rig.handle.address(), encode_to_bytes(&load))
            .unwrap();
    }

    /// Announces a fake node exactly like a real local scheduler: lists
    /// it in the node table, then sends its first `Load`, stamped 0.
    fn fake_node(rig: &Rig, node: NodeId, queue: u32, total: Resources) -> rtml_net::Endpoint {
        let endpoint = rig.fabric.register(node, "fake-local");
        rig.directory.insert(node, endpoint.address());
        send_load(rig, &endpoint, report(&endpoint, queue, total, 0), 0);
        endpoint
    }

    /// Sends `specs` from `from` as one spill, carrying `load` and
    /// `ingested`.
    fn spill_batch(
        rig: &Rig,
        from: &rtml_net::Endpoint,
        load: LoadReport,
        ingested: u64,
        specs: Vec<TaskSpec>,
    ) {
        let msg = SchedWire::SpillBatch {
            specs,
            load,
            ingested,
        };
        rig.fabric
            .send(from.address(), rig.handle.address(), encode_to_bytes(&msg))
            .unwrap();
    }

    /// Spills one task. The load it carries is stamped 0, like the
    /// announcement, so it is not newer than what the scheduler has: the
    /// sender keeps the load the test announced for it.
    fn spill(rig: &Rig, from: &rtml_net::Endpoint, spec: TaskSpec) {
        let stale = report(from, 0, Resources::cpu(4.0), 0);
        spill_batch(rig, from, stale, 0, vec![spec]);
    }

    /// Waits for `n` placed tasks across `nodes`: each task's index in
    /// `nodes`.
    fn placements(nodes: &[&rtml_net::Endpoint], n: usize) -> FastMap<TaskId, usize> {
        let mut placed = FastMap::default();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while placed.len() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "placed {}/{n}",
                placed.len()
            );
            for (idx, endpoint) in nodes.iter().enumerate() {
                while let Ok(d) = endpoint.receiver().try_recv() {
                    if let Ok(SchedWire::PlaceBatch { specs, .. }) = decode_from_slice(&d.payload) {
                        for spec in specs {
                            placed.insert(spec.task_id, idx);
                        }
                    }
                }
            }
            std::thread::yield_now();
        }
        placed
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
        let mut r = rig();
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
        let mut r = rig();
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
        let mut r = rig();
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
        let mut r = rig();
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

    /// 4 nodes x 4 slots. Node 0 holds the burst's 1 MiB dependency and
    /// reports 13 queued (its own share of the burst); the other 19
    /// tasks, `i` needing `dep`, are the spill.
    fn burst_rig() -> (Rig, Vec<rtml_net::Endpoint>, Vec<TaskSpec>) {
        let r = rig();
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
        let specs = (0..19)
            .map(|i| {
                let mut spec = task(i, Resources::cpu(1.0));
                spec.args = vec![rtml_common::task::ArgSpec::ObjectRef(dep)];
                spec
            })
            .collect();
        (r, nodes, specs)
    }

    /// `placed_on[i]` is where the burst's `i`th task went. The holder
    /// is three waves deep: nothing returns to it. Each idle node's
    /// first wave fills in turn — the object is inbound there after its
    /// first task — so all three are fetching by the ninth placement,
    /// and none starts a second wave before every one has a first.
    fn assert_first_waves_fill_first(placed_on: &[usize]) {
        let count =
            |upto: usize, node: usize| placed_on[..upto].iter().filter(|n| **n == node).count();
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
    }

    #[test]
    fn a_spilled_burst_fills_every_first_wave_before_any_second() {
        // The 19 tasks spill one at a time against frozen load reports:
        // each placement is counted in flight for the next.
        let (mut r, nodes, specs) = burst_rig();
        let endpoints: Vec<&rtml_net::Endpoint> = nodes.iter().collect();
        let mut placed_on: Vec<usize> = Vec::new();
        for spec in specs {
            let id = spec.task_id;
            spill(&r, &nodes[0], spec);
            placed_on.push(placements(&endpoints, 1)[&id]);
        }
        assert_first_waves_fill_first(&placed_on);
        r.handle.shutdown();
    }

    #[test]
    fn a_spilled_batch_fills_every_first_wave_before_any_second() {
        // The same 19 tasks as one SpillBatch: placed against one view,
        // each pick fed back into it before the next, they spread exactly
        // as the one-at-a-time spills do.
        let (mut r, nodes, specs) = burst_rig();
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        let sender = report(&nodes[0], 13, Resources::cpu(4.0), 1);
        spill_batch(&r, &nodes[0], sender, 0, specs);
        let placed = placements(&nodes.iter().collect::<Vec<_>>(), ids.len());
        let placed_on: Vec<usize> = ids.iter().map(|id| placed[id]).collect();
        assert_first_waves_fill_first(&placed_on);
        r.handle.shutdown();
    }

    #[test]
    fn a_report_measured_before_a_batch_arrived_does_not_forget_it() {
        // Node 1 is the only GPU node, node 2 has three CPU tasks queued.
        // Eight GPU tasks go to node 1. Node 1 then reports — idle, and
        // having ingested none of them: they are still on the wire, so
        // the next CPU task goes to node 2 although node 1's report is
        // newer than the placements.
        let mut r = rig();
        let gpu = Resources::new(4.0, 4.0);
        let n1 = fake_node(&r, NodeId(1), 0, gpu.clone());
        let n2 = fake_node(&r, NodeId(2), 3, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        let gpu_tasks: Vec<TaskSpec> = (0..8).map(|i| task(i, Resources::gpu(1.0))).collect();
        spill_batch(
            &r,
            &n2,
            report(&n2, 3, Resources::cpu(4.0), 1),
            0,
            gpu_tasks,
        );
        assert!(placements(&[&n1], 8).values().all(|n| *n == 0));
        send_load(&r, &n1, report(&n1, 0, gpu.clone(), 2), 0);
        spill_batch(
            &r,
            &n1,
            report(&n1, 0, gpu.clone(), 3),
            0,
            vec![task(100, Resources::cpu(1.0))],
        );
        assert_eq!(placements(&[&n1, &n2], 1).values().next(), Some(&1));
        // Once a report counts the eight — six of them already run —
        // they are counted once: node 1 at 2 is shallower than node 2 at
        // 3 + the one just placed.
        spill_batch(
            &r,
            &n1,
            report(&n1, 2, gpu, 4),
            8,
            vec![task(101, Resources::cpu(1.0))],
        );
        assert_eq!(placements(&[&n1, &n2], 1).values().next(), Some(&0));
        r.handle.shutdown();
    }

    #[test]
    fn a_spill_carrying_its_senders_load_places_nothing_back_on_it() {
        // Every node announced itself idle. Node 0 then spills eight
        // tasks with its own load attached: three waves deep. Nodes 1
        // and 2 take a wave each, and node 0 — idle in its older report
        // — gets none of its own spill back.
        let mut r = rig();
        let nodes: Vec<rtml_net::Endpoint> = (0..3)
            .map(|n| fake_node(&r, NodeId(n), 0, Resources::cpu(4.0)))
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let specs: Vec<TaskSpec> = (0..8).map(|i| task(i, Resources::cpu(1.0))).collect();
        let deep = report(&nodes[0], 12, Resources::cpu(4.0), 1);
        spill_batch(&r, &nodes[0], deep, 0, specs);
        let placed = placements(&nodes.iter().collect::<Vec<_>>(), 8);
        let on = |node: usize| placed.values().filter(|n| **n == node).count();
        assert_eq!((on(0), on(1), on(2)), (0, 4, 4));
        r.handle.shutdown();
    }

    #[test]
    fn a_placement_lost_on_the_wire_stops_counting() {
        // Eight GPU tasks — two waves — go to node 1, the only GPU node,
        // and are never ingested (the frame was lost). A report measured
        // LOST_AFTER later still not counting them writes them off: node
        // 1 is idle again, and a wave shallower than node 2.
        let mut r = rig();
        let gpu = Resources::new(4.0, 4.0);
        let n1 = fake_node(&r, NodeId(1), 0, gpu.clone());
        let n2 = fake_node(&r, NodeId(2), 4, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        let now = rtml_common::time::now_nanos();
        let specs: Vec<TaskSpec> = (0..8).map(|i| task(i, Resources::gpu(1.0))).collect();
        spill_batch(&r, &n2, report(&n2, 4, Resources::cpu(4.0), now), 0, specs);
        placements(&[&n1], 8);
        let later = report(&n1, 0, gpu, now + 2 * LOST_AFTER);
        spill_batch(&r, &n1, later, 0, vec![task(100, Resources::cpu(1.0))]);
        assert_eq!(placements(&[&n1, &n2], 1).values().next(), Some(&0));
        r.handle.shutdown();
    }

    #[test]
    fn a_report_from_a_node_the_table_does_not_list_there_places_nothing_on_it() {
        // Node 1 is idle and node 2 five deep, so node 1 would take every
        // task while the table lists it where its report says.
        let mut r = rig();
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 5, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        // Killed: the table no longer lists node 1, and a report it sent
        // before it died arrives late.
        r.directory.remove(NodeId(1));
        send_load(&r, &n1, report(&n1, 0, Resources::cpu(4.0), 1), 0);
        std::thread::sleep(Duration::from_millis(20));
        spill(&r, &n2, task(0, Resources::cpu(1.0)));
        assert_eq!(placements(&[&n1, &n2], 1).values().next(), Some(&1));
        // Restarted at a new address that has not reported yet: another
        // late report of the dead incarnation still places nothing there,
        // nor at the new address.
        let reborn = r.fabric.register(NodeId(1), "fake-local");
        r.directory.insert(NodeId(1), reborn.address());
        send_load(&r, &n1, report(&n1, 0, Resources::cpu(4.0), 2), 0);
        std::thread::sleep(Duration::from_millis(20));
        spill(&r, &n2, task(1, Resources::cpu(1.0)));
        assert_eq!(
            placements(&[&n1, &n2, &reborn], 1).values().next(),
            Some(&1)
        );
        r.handle.shutdown();
    }

    #[test]
    fn a_relisted_node_is_placed_on_at_its_new_address_with_its_old_in_flight_forgotten() {
        // Eight GPU tasks go to node 1, the only GPU node, and are never
        // ingested: node 1 dies with them. Its restart lists it at a new
        // address and reports idle, having ingested none. Those eight
        // went with the dead incarnation, so node 1 is a wave shallower
        // than node 2 at 4, and the next task goes to its new address.
        let mut r = rig();
        let gpu = Resources::new(4.0, 4.0);
        let n1 = fake_node(&r, NodeId(1), 0, gpu.clone());
        let n2 = fake_node(&r, NodeId(2), 4, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        let gpu_tasks: Vec<TaskSpec> = (0..8).map(|i| task(i, Resources::gpu(1.0))).collect();
        let deep = report(&n2, 4, Resources::cpu(4.0), 1);
        spill_batch(&r, &n2, deep, 0, gpu_tasks);
        assert!(placements(&[&n1], 8).values().all(|n| *n == 0));
        r.directory.remove(NodeId(1));
        let reborn = r.fabric.register(NodeId(1), "fake-local");
        r.directory.insert(NodeId(1), reborn.address());
        send_load(&r, &reborn, report(&reborn, 0, gpu, 1), 0);
        std::thread::sleep(Duration::from_millis(20));
        spill(&r, &n2, task(100, Resources::cpu(1.0)));
        assert_eq!(
            placements(&[&n1, &n2, &reborn], 1).values().next(),
            Some(&2)
        );
        r.handle.shutdown();
    }

    #[test]
    fn spill_batch_is_placed_in_coalesced_frames() {
        let mut r = rig();
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 0, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        let specs: Vec<TaskSpec> = (0..10).map(|i| task(i, Resources::cpu(1.0))).collect();
        spill_batch(&r, &n1, report(&n1, 0, Resources::cpu(4.0), 1), 0, specs);
        // All ten tasks arrive, spread over both nodes, and the whole
        // batch crosses the fabric in at most one frame per node.
        let mut placed = 0;
        let mut frames = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while placed < 10 {
            assert!(std::time::Instant::now() < deadline, "placed {placed}/10");
            for endpoint in [&n1, &n2] {
                while let Ok(d) = endpoint.receiver().try_recv() {
                    if let Ok(SchedWire::PlaceBatch { specs }) = decode_from_slice(&d.payload) {
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
        let mut r = rig();
        let n1 = fake_node(&r, NodeId(1), 0, Resources::cpu(4.0));
        let n2 = fake_node(&r, NodeId(2), 0, Resources::cpu(4.0));
        std::thread::sleep(Duration::from_millis(20));
        // Ten spills with no intervening load reports: the in-flight
        // fold keeps the two equal nodes within a wave of each other,
        // and the per-task spread hash shares each wave.
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
}
