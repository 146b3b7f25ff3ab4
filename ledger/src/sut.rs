//! The adapter: every call the ledger makes into the program is in this
//! file, so the surface it depends on can be read off in one place (the
//! README lists it as *pinned*). Workloads and probes see only the types
//! re-exported here.
//!
//! Clusters run the **default** `ClusterConfig`. Only environment fields
//! are set — node list, store capacity, link bandwidth — and no plane
//! knob is touched, so a change that deletes a knob cannot break the
//! ledger.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

pub use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use rtml_common::codec::{decode_from_slice, encode_to_bytes, Codec};
pub use rtml_common::error::{Error, Result};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{DriverId, FunctionId, NodeId, ObjectId, TaskId};
use rtml_common::resources::Resources;
use rtml_common::task::{ArgSpec, TaskSpec, TaskState};
use rtml_kv::{EventLog, KvStore, ObjectTable, TaskTable};
use rtml_net::{Endpoint, Fabric, FabricConfig, LatencyModel};
use rtml_runtime::{Cluster, ClusterConfig, Driver, IntoArg, NodeConfig, TaskOptions};
pub use rtml_runtime::{Func1, Func2, ObjectRef};
use rtml_sched::{
    choose_victim, LoadReport, LoadView, PlacementPolicy, PolicyState, DEFAULT_TOP_K,
};
use rtml_store::{FetchAgent, ObjectStore, StoreConfig, TransferDirectory, TransferService};

use crate::trace::{Recorder, SpanId};

/// One-way latency the fabric is configured with (the `ClusterConfig`
/// default); the cross-node probe reports what it adds on top.
pub const HOP: Duration = Duration::from_micros(100);
/// Link speed of the workloads that move payloads, and of the probes
/// that time the same transfers.
pub const GIB_PER_S: u64 = 1 << 30;
/// The custom resource only the remote node of `rtt_remote` has.
const PIN: &str = "pin";

/// The environment of one simulated node.
#[derive(Clone, Copy)]
pub struct NodeSpec {
    pub workers: u32,
    /// Object-store capacity; `None` keeps the default.
    pub store_bytes: Option<u64>,
    /// Whether the node carries the `pin` resource.
    pub pinned: bool,
}

impl NodeSpec {
    pub const fn workers(workers: u32) -> NodeSpec {
        NodeSpec {
            workers,
            store_bytes: None,
            pinned: false,
        }
    }
}

/// Monotonic counters of the shared fabric and control plane.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub net_sent: u64,
    pub net_bytes: u64,
    pub net_egress_wait_ns: u64,
    pub kv_ops: u64,
    pub kv_locks: u64,
}

/// A running cluster.
pub struct Sut {
    cluster: Cluster,
}

impl Sut {
    pub fn start(nodes: &[NodeSpec], bandwidth_bytes_per_sec: Option<u64>) -> Result<Sut> {
        let nodes = nodes
            .iter()
            .map(|spec| {
                let mut node = NodeConfig::cpu_only(spec.workers);
                if let Some(bytes) = spec.store_bytes {
                    node = node.with_store_capacity(bytes);
                }
                if spec.pinned {
                    node = node.with_custom(PIN, 1.0);
                }
                node
            })
            .collect();
        let cluster = Cluster::start(ClusterConfig {
            nodes,
            bandwidth_bytes_per_sec,
            ..ClusterConfig::default()
        })?;
        Ok(Sut { cluster })
    }

    pub fn register1<A: Codec + 'static, R: Codec + 'static>(
        &self,
        name: &str,
        f: impl Fn(A) -> Result<R> + Send + Sync + 'static,
    ) -> Func1<A, R> {
        self.cluster.register_fn1(name, f)
    }

    pub fn register2<A: Codec + 'static, B: Codec + 'static, R: Codec + 'static>(
        &self,
        name: &str,
        f: impl Fn(A, B) -> Result<R> + Send + Sync + 'static,
    ) -> Func2<A, B, R> {
        self.cluster.register_fn2(name, f)
    }

    /// A driver connection whose calls are recorded on `rec`.
    pub fn client<'a>(&self, rec: &'a Recorder, lane: u32) -> Client<'a> {
        Client {
            driver: self.cluster.driver(),
            rec,
            lane,
        }
    }

    pub fn counters(&self) -> Counters {
        let services = self.cluster.services();
        let net = &services.fabric.stats;
        let kv = services.kv.stats();
        Counters {
            net_sent: net.sent.get(),
            net_bytes: net.bytes.get(),
            net_egress_wait_ns: net.egress_wait_nanos.get(),
            kv_ops: kv.total_ops(),
            kv_locks: kv.total_locks(),
        }
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// The driver-side API, each call wrapped in a span under the op's root.
pub struct Client<'a> {
    driver: Driver,
    rec: &'a Recorder,
    lane: u32,
}

impl Client<'_> {
    pub fn submit1<A: Codec + 'static, R: Codec + 'static>(
        &self,
        op: SpanId,
        f: &Func1<A, R>,
        a: impl IntoArg<A>,
    ) -> Result<ObjectRef<R>> {
        self.rec
            .call("submit1", op, self.lane, 1, || self.driver.submit1(f, a))
    }

    /// `submit1` demanding the `pin` resource, which forces the task
    /// onto the node that has it.
    pub fn submit1_pinned<A: Codec + 'static, R: Codec + 'static>(
        &self,
        op: SpanId,
        f: &Func1<A, R>,
        a: impl IntoArg<A>,
    ) -> Result<ObjectRef<R>> {
        let opts = TaskOptions::resources(Resources::cpu(1.0).with_custom(PIN, 1.0));
        self.rec.call("submit1_opts", op, self.lane, 1, || {
            self.driver.submit1_opts(f, a, opts)
        })
    }

    pub fn submit2<A: Codec + 'static, B: Codec + 'static, R: Codec + 'static>(
        &self,
        op: SpanId,
        f: &Func2<A, B, R>,
        a: impl IntoArg<A>,
        b: impl IntoArg<B>,
    ) -> Result<ObjectRef<R>> {
        self.rec
            .call("submit2", op, self.lane, 1, || self.driver.submit2(f, a, b))
    }

    pub fn submit_many<A: Codec + Clone + 'static, R: Codec + 'static>(
        &self,
        op: SpanId,
        f: &Func1<A, R>,
        args: &[A],
    ) -> Result<Vec<ObjectRef<R>>> {
        self.rec
            .call("submit_many", op, self.lane, args.len() as u64, || {
                self.driver.submit_many(f, args)
            })
    }

    pub fn put(&self, op: SpanId, value: &Bytes) -> Result<ObjectRef<Bytes>> {
        self.rec.call("put", op, self.lane, value.len() as u64, || {
            self.driver.put(value)
        })
    }

    pub fn get<T: Codec>(&self, op: SpanId, fut: &ObjectRef<T>) -> Result<T> {
        self.rec
            .call("get", op, self.lane, 1, || self.driver.get(fut))
    }

    pub fn get_many<T: Codec>(&self, op: SpanId, futs: &[ObjectRef<T>]) -> Result<Vec<T>> {
        self.rec
            .call("get_many", op, self.lane, futs.len() as u64, || {
                self.driver.get_many(futs)
            })
    }
}

// --- Per-layer probe fixtures: one crate each, nothing else running ----

fn probe_task(batch: u64, index: u64) -> TaskId {
    TaskId::driver_root(DriverId::from_index(batch)).child(index)
}

/// A `TaskSpec` shaped like the ones `burst_spill` submits: one small
/// by-value argument, one return.
fn probe_spec(batch: u64, index: u64) -> TaskSpec {
    TaskSpec::simple(
        probe_task(batch, index),
        FunctionId::from_name("ledger.probe"),
        vec![ArgSpec::Value(encode_to_bytes(&index))],
    )
}

/// `count` fresh specs that no other batch number shares ids with.
pub fn probe_specs(batch: u64, count: usize) -> Vec<TaskSpec> {
    (0..count as u64).map(|i| probe_spec(batch, i)).collect()
}

/// `rtml-common`: the codec free functions.
pub fn spec_encode(spec: &TaskSpec) -> Bytes {
    encode_to_bytes(spec)
}

pub fn spec_decode(bytes: &[u8]) -> Result<TaskSpec> {
    decode_from_slice(bytes)
}

pub fn value_encode(value: &Bytes) -> Bytes {
    encode_to_bytes(value)
}

/// `rtml-kv`: a bare store and its tables.
pub struct KvProbe {
    kv: Arc<KvStore>,
    tasks: TaskTable,
    objects: ObjectTable,
    events: EventLog,
}

impl KvProbe {
    pub fn new() -> KvProbe {
        let kv = KvStore::new(ClusterConfig::default().kv_shards);
        KvProbe {
            tasks: TaskTable::new(kv.clone()),
            objects: ObjectTable::new(kv.clone()),
            events: EventLog::new(kv.clone()),
            kv,
        }
    }

    pub fn locks(&self) -> u64 {
        self.kv.stats().total_locks()
    }

    pub fn record_many(&self, specs: &[TaskSpec]) {
        self.tasks.record_many(specs, &TaskState::Queued(NodeId(0)));
    }

    pub fn set_state(&self, spec: &TaskSpec) {
        self.tasks.set_state(spec.task_id, &TaskState::Finished);
    }

    pub fn get_states_many(&self, specs: &[TaskSpec]) -> usize {
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        self.tasks.get_states_many(&ids).iter().flatten().count()
    }

    /// Declares the return objects of `specs` and returns their ids.
    pub fn declare(&self, specs: &[TaskSpec]) -> Vec<ObjectId> {
        specs
            .iter()
            .map(|s| {
                let object = s.task_id.return_object(0);
                self.objects.declare(object, Some(s.task_id));
                object
            })
            .collect()
    }

    pub fn add_location(&self, object: ObjectId) {
        self.objects.add_location(object, NodeId(0), 8);
    }

    pub fn object_get_many(&self, objects: &[ObjectId]) -> usize {
        self.objects.get_many(objects).iter().flatten().count()
    }

    /// Subscribes to `object`'s record and blocks until it has a
    /// location: the wait a blocked `get` sits in.
    pub fn wait_located(&self, object: ObjectId, timeout: Duration) -> bool {
        let (current, stream) = self.objects.subscribe(object);
        current.is_some_and(|info| info.is_available())
            || stream
                .recv_timeout(timeout)
                .is_some_and(|info| info.is_available())
    }

    pub fn event_append(&self, spec: &TaskSpec) {
        self.events.append(NodeId(0), submitted(spec));
    }

    pub fn event_append_many(&self, specs: &[TaskSpec]) {
        self.events
            .append_many(NodeId(0), specs.iter().map(submitted).collect());
    }

    /// Fills the store with `keys` resident entries and `loads` entries
    /// under the `load:` prefix.
    pub fn fill(&self, keys: usize, loads: usize) {
        for i in 0..keys {
            self.kv.set(
                Bytes::from(format!("fill:{i:08}")),
                Bytes::from_static(b"resident"),
            );
        }
        for i in 0..loads {
            self.kv.set(
                Bytes::from(format!("load:{i}")),
                Bytes::from_static(b"report"),
            );
        }
    }

    /// The prefix scan the idle steal loop issues.
    pub fn scan_load(&self) -> usize {
        self.kv.scan_prefix(b"load:").len()
    }
}

fn submitted(spec: &TaskSpec) -> Event {
    Event::now(
        Component::Driver,
        EventKind::TaskSubmitted { task: spec.task_id },
    )
}

/// How long a probe waits for a cross-node message before it concludes
/// that the fabric's delivery pump slept through it. The pump checks its
/// queue and then waits for a notification under a different lock, so a
/// message queued in between sits there until the next send wakes the
/// pump. A cluster always has a next send (load reports); a bare fabric
/// carrying one probe message at a time does not, so the probes send one
/// themselves, and count how often they had to.
const PUMP_STALL: Duration = Duration::from_millis(50);
/// Nudges after which a probe gives up.
const MAX_STALLS: u64 = 20;

/// `rtml-net`: a bare fabric with one sender and a receiver on the same
/// node and on another node.
pub struct NetProbe {
    fabric: Arc<Fabric>,
    from: Endpoint,
    same: Endpoint,
    cross: Endpoint,
    /// Takes the nudges; never read.
    sink: Endpoint,
    stalls: Cell<u64>,
}

impl NetProbe {
    pub fn new() -> NetProbe {
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Constant(HOP),
            bandwidth_bytes_per_sec: Some(GIB_PER_S),
            ..FabricConfig::default()
        });
        NetProbe {
            from: fabric.register(NodeId(0), "from"),
            same: fabric.register(NodeId(0), "same"),
            cross: fabric.register(NodeId(1), "cross"),
            sink: fabric.register(NodeId(1), "sink"),
            stalls: Cell::new(0),
            fabric,
        }
    }

    /// Messages that waited for a nudge (see [`PUMP_STALL`]).
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Sends one small message to the same node and receives it.
    pub fn same_node(&self, payload: &Bytes) -> Result<()> {
        self.fabric
            .send(self.from.address(), self.same.address(), payload.clone())?;
        self.same
            .receiver()
            .recv()
            .map(drop)
            .map_err(|_| Error::Disconnected("probe receiver"))
    }

    /// Sends `frames` as one chunked stream to the other node and
    /// receives them all.
    pub fn cross_node(&self, frames: Vec<Bytes>) -> Result<()> {
        let count = frames.len();
        self.fabric
            .send_chunks(self.from.address(), self.cross.address(), frames)?;
        for _ in 0..count {
            while let Err(e) = self.cross.receiver().recv_timeout(PUMP_STALL) {
                if e != RecvTimeoutError::Timeout || self.stalls.get() >= MAX_STALLS {
                    return Err(Error::Disconnected("probe receiver"));
                }
                self.stalls.set(self.stalls.get() + 1);
                self.fabric
                    .send(self.from.address(), self.sink.address(), Bytes::new())?;
            }
        }
        Ok(())
    }
}

fn bare_store(node: u32, capacity_bytes: u64) -> Arc<ObjectStore> {
    Arc::new(ObjectStore::new(StoreConfig {
        node: NodeId(node),
        capacity_bytes,
        ..StoreConfig::default()
    }))
}

/// `rtml-store`: a bare store.
pub struct StoreProbe {
    store: Arc<ObjectStore>,
}

impl StoreProbe {
    pub fn new(capacity_bytes: u64) -> StoreProbe {
        StoreProbe {
            store: bare_store(0, capacity_bytes),
        }
    }

    pub fn put(&self, object: ObjectId, data: Bytes) -> Result<usize> {
        self.store
            .put(object, data)
            .map(|outcome| outcome.evicted.len())
    }

    pub fn get(&self, object: ObjectId) -> bool {
        self.store.get(object).is_some()
    }

    pub fn wait_local(&self, object: ObjectId, timeout: Duration) -> Result<Bytes> {
        self.store.wait_local(object, timeout)
    }
}

/// `rtml-store`: a holder store behind a `TransferService` on node 0 and
/// a `FetchAgent` pulling into a second store on node 1.
pub struct FetchProbe {
    holder: Arc<ObjectStore>,
    service: TransferService,
    agent: FetchAgent,
    stalls: Cell<u64>,
}

impl FetchProbe {
    pub fn new() -> FetchProbe {
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Constant(HOP),
            bandwidth_bytes_per_sec: Some(GIB_PER_S),
            ..FabricConfig::default()
        });
        let directory = TransferDirectory::new();
        let capacity = StoreConfig::default().capacity_bytes;
        let holder = bare_store(0, capacity);
        let service = TransferService::spawn(fabric.clone(), holder.clone(), &directory);
        let agent = FetchAgent::spawn(fabric, bare_store(1, capacity), directory);
        FetchProbe {
            holder,
            service,
            agent,
            stalls: Cell::new(0),
        }
    }

    pub fn seed(&self, object: ObjectId, data: Bytes) -> Result<()> {
        self.holder.put(object, data).map(drop)
    }

    /// Fetches that timed out and were asked again (see [`PUMP_STALL`]).
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Pulls `objects` from the holder; returns the bytes that arrived.
    /// A fetch that times out is asked again: the new request wakes the
    /// pump, which then delivers the first one too.
    pub fn fetch_many(&self, objects: &[ObjectId]) -> Result<usize> {
        loop {
            let results = self.agent.fetch_many(objects, NodeId(0), PUMP_STALL * 4);
            let timed_out = results.iter().any(|r| matches!(r, Err(Error::Timeout)));
            if timed_out && self.stalls.get() < MAX_STALLS {
                self.stalls.set(self.stalls.get() + 1);
                continue;
            }
            return results.into_iter().map(|r| Ok(r?.0.len())).sum();
        }
    }

    pub fn shutdown(mut self) {
        self.agent.shutdown();
        self.service.shutdown();
    }
}

/// `rtml-sched`: the pure placement and victim-choice functions over a
/// synthetic load view of `nodes` equally idle nodes.
pub struct SchedProbe {
    view: LoadView,
    reports: Vec<LoadReport>,
    objects: ObjectTable,
    policy: PlacementPolicy,
    state: PolicyState,
}

impl SchedProbe {
    pub fn new(nodes: u32) -> SchedProbe {
        let defaults = ClusterConfig::default();
        let total = Resources::cpu(4.0);
        let reports: Vec<LoadReport> = (0..nodes)
            .map(|n| LoadReport {
                node: NodeId(n),
                sched_address: u64::from(n) + 1,
                // Distinct backlogs, so victim choice never needs its
                // object-table tiebreak.
                ready: 8 + n,
                waiting: 0,
                running: 4,
                idle_workers: 0,
                available: Resources::cpu(0.0),
                total: total.clone(),
                at_nanos: 0,
            })
            .collect();
        SchedProbe {
            view: LoadView::from_reports(reports.clone(), DEFAULT_TOP_K),
            reports,
            objects: ObjectTable::new(KvStore::new(defaults.kv_shards)),
            policy: defaults.placement,
            state: PolicyState::new(defaults.seed),
        }
    }

    pub fn place(&mut self, spec: &TaskSpec) -> Option<u32> {
        self.policy
            .place(spec, &self.view, &self.objects, &mut self.state)
            .map(|node| node.0)
    }

    pub fn choose_victim(&mut self) -> Option<u32> {
        choose_victim(&self.reports, &[], &self.objects, &mut self.state)
            .map(|report| report.node.0)
    }
}

/// A fresh object id for store probes.
pub fn probe_object(batch: u64, index: u64) -> ObjectId {
    probe_task(batch, index).return_object(0)
}
