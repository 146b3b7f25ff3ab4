//! The replication plane: demand-driven replica placement for hot
//! objects — the third per-node plane, after the control plane (batched
//! submission) and the transfer plane (chunked, coalesced fetches).
//!
//! The paper's object store assumes reads scale with the cluster, but a
//! popular immutable object (a broadcast policy, shared weights) is
//! produced on one node, and every remote read funnels to that node's
//! egress link — the exact hot-spot the multi-holder
//! `ObjectInfo::locations` set exists to avoid. This module closes the
//! loop:
//!
//! - the node's [`crate::TransferService`] counts **per-object remote
//!   read demand** ([`crate::TransferStats::record_demand`]), including
//!   scheduler hints that restore the fan-in coalesced prefetches hide;
//! - a per-node [`ReplicationAgent`] sweeps that demand on an interval,
//!   and when an object it holds crosses
//!   [`ReplicationPolicy::read_threshold`], pulls it onto up to
//!   [`ReplicationPolicy::max_replicas`] additional holders (rendezvous-
//!   ranked, so different hot objects land on different nodes) through
//!   the runtime-supplied [`ReplicationHooks::pull`] — the existing
//!   chunked `FetchMany` path plus a group-committed
//!   `add_location_many`;
//! - readers then spread across the enlarged holder set via the shared
//!   rendezvous ranking (`ObjectInfo::holders_ranked`), and replica
//!   copies are **second-class for eviction**
//!   ([`crate::ObjectStore::mark_replica`]): dropped before sole
//!   copies, never preferentially dropped when they *are* the last
//!   sealed copy.
//!
//! This crate cannot see the control-plane tables (`rtml-kv` sits above
//! it), so the agent's view of the world arrives through
//! [`ReplicationHooks`]: the runtime wires `lookup` to the object
//! table, `alive_nodes` to the cluster routing map, and `pull` to the
//! target node's `FetchAgent`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};

use rtml_common::ids::{rendezvous_rank, NodeId, ObjectId, REPLICA_PLACEMENT_SALT};
use rtml_common::metrics::Counter;

use crate::transfer::TransferStats;

/// When (and how far) a node replicates the hot objects it serves.
#[derive(Clone, Debug)]
pub struct ReplicationPolicy {
    /// Master switch. Off: no agent runs, no demand is tracked, and
    /// behavior is identical to a build without the replication plane.
    pub enabled: bool,
    /// Remote reads of one object that make it hot. Accumulated demand
    /// is **halved every sweep** it fails to cross the threshold, so
    /// this is effectively a rate: sustained demand compounds past the
    /// threshold, while a trickle of occasional reads decays away (and
    /// the agent's demand memory stays bounded).
    pub read_threshold: u64,
    /// Maximum *additional* holders beyond the copies that already
    /// exist; total holders are also capped by the cluster size.
    pub max_replicas: usize,
    /// How often the agent drains demand counters and acts.
    pub sweep_interval: Duration,
    /// Reclamation: a replica copy this node holds is *cold* in a sweep
    /// when its observed read demand sits below this. Cold replicas are
    /// proactively dropped (store evict + group-committed
    /// `remove_location_many`), returning capacity before eviction
    /// pressure forces it. `0` keeps every replica warm forever.
    pub release_threshold: u64,
    /// How many **consecutive** cold sweeps a replica survives before
    /// release — hysteresis, so one quiet interval does not throw away
    /// a copy the next burst would have used.
    pub release_after_sweeps: u32,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy {
            enabled: true,
            read_threshold: 16,
            max_replicas: 2,
            sweep_interval: Duration::from_millis(10),
            release_threshold: 1,
            release_after_sweeps: 8,
        }
    }
}

impl ReplicationPolicy {
    /// Disabled policy (for ablations and PR-3-identical behavior).
    pub fn disabled() -> Self {
        ReplicationPolicy {
            enabled: false,
            ..ReplicationPolicy::default()
        }
    }

    /// How many new replicas to create for an object with
    /// `current_holders` copies in an `alive`-node cluster: enough to
    /// reach `1 + max_replicas` total holders, never exceeding the
    /// cluster.
    pub fn replicas_needed(&self, current_holders: usize, alive: usize) -> usize {
        let want_total = (1 + self.max_replicas).min(alive);
        want_total.saturating_sub(current_holders)
    }

    /// Deterministic placement: the top `n` rendezvous-ranked
    /// candidates for `object`. Different hot objects hash to different
    /// candidate orders, so replicas spread over the cluster instead of
    /// piling onto one favorite node.
    pub fn choose_targets(
        &self,
        object: ObjectId,
        candidates: impl IntoIterator<Item = NodeId>,
        n: usize,
    ) -> Vec<NodeId> {
        let mut ranked = rendezvous_rank(object, REPLICA_PLACEMENT_SALT, candidates);
        ranked.truncate(n);
        ranked
    }
}

/// What the control plane knows about one object, as supplied by
/// [`ReplicationHooks::lookup`] (this crate cannot read the object
/// table itself).
#[derive(Clone, Debug)]
pub struct ReplicaView {
    /// Whether the object has been sealed anywhere.
    pub sealed: bool,
    /// Nodes currently holding a sealed copy.
    pub locations: Vec<NodeId>,
}

/// Runtime-supplied capabilities the agent acts through.
#[derive(Clone)]
pub struct ReplicationHooks {
    /// Reads the object's control-plane record (object table).
    pub lookup: Arc<dyn Fn(ObjectId) -> Option<ReplicaView> + Send + Sync>,
    /// Nodes currently routable (replica placement candidates).
    pub alive_nodes: Arc<dyn Fn() -> Vec<NodeId> + Send + Sync>,
    /// Pulls `object` from `from` onto `target` — the runtime drives
    /// the target's `FetchAgent` through the chunked `FetchMany` path,
    /// group-commits the new location, and marks the copy as a replica
    /// in the target's store. Returns whether the replica now exists.
    pub pull: Arc<dyn Fn(ObjectId, NodeId, NodeId) -> bool + Send + Sync>,
    /// Replica-marked entries currently in this node's own store — the
    /// reclamation candidate set ([`crate::ObjectStore::list_replicas`]).
    pub list_replicas: Arc<dyn Fn() -> Vec<ObjectId> + Send + Sync>,
    /// Drops the listed replica copies from this node: store evict plus
    /// one group-committed `remove_location_many`. The runtime must
    /// re-verify per object that the copy is still replica-marked,
    /// unpinned, and that another sealed holder exists (reclamation
    /// never eats the last copy) — and, because that check-then-delete
    /// is not atomic across nodes, apply a deterministic tiebreak (the
    /// rendezvous anchor holder never releases) so two concurrently
    /// cold holders cannot both drop the last copies. Returns how many
    /// were actually dropped.
    pub release: Arc<dyn Fn(&[ObjectId]) -> usize + Send + Sync>,
    /// Called at the end of every sweep with its summary — the runtime
    /// turns this into a `ReplicationSweep` span event. `None` keeps
    /// the agent free of any event-log dependency.
    pub observe_sweep: Option<Arc<dyn Fn(SweepReport) + Send + Sync>>,
}

/// Summary of one demand sweep, handed to
/// [`ReplicationHooks::observe_sweep`].
#[derive(Clone, Copy, Debug)]
pub struct SweepReport {
    /// Objects whose demand crossed the threshold this sweep.
    pub hot: u32,
    /// Replica copies created this sweep.
    pub placed: u32,
    /// Cold replica copies reclaimed this sweep.
    pub released: u32,
    /// Wall time of the sweep.
    pub micros: u64,
}

/// Counters for one node's replication agent.
#[derive(Debug, Default)]
pub struct ReplicationStats {
    /// Sweeps executed.
    pub sweeps: Counter,
    /// Objects whose demand crossed the threshold.
    pub hot_objects: Counter,
    /// Replica copies successfully placed.
    pub replicas_created: Counter,
    /// Replica copies proactively dropped by the demand-decay
    /// reclamation sweep (read demand collapsed below
    /// [`ReplicationPolicy::release_threshold`]).
    pub replicas_released: Counter,
    /// Pull attempts that failed (target died, store pressure, ...).
    pub failures: Counter,
}

/// Per-node background agent: watches the demand its node's transfer
/// service observes and replicates hot objects outward. Spawn one per
/// node when the policy is enabled; [`ReplicationAgent::shutdown`] (or
/// drop) stops it.
pub struct ReplicationAgent {
    stats: Arc<ReplicationStats>,
    stop: Sender<()>,
    /// Checked between individual pulls too, so a shutdown (or node
    /// kill) interrupts a sweep mid-way instead of waiting out one
    /// fetch timeout per remaining target.
    stopping: Arc<std::sync::atomic::AtomicBool>,
    handle: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ReplicationAgent {
    /// Spawns the sweep thread for `node`. Demand tracking on `demand`
    /// is enabled as a side effect — without an agent the counters stay
    /// off and cost nothing.
    pub fn spawn(
        node: NodeId,
        policy: ReplicationPolicy,
        demand: Arc<TransferStats>,
        hooks: ReplicationHooks,
    ) -> ReplicationAgent {
        demand.enable_demand_tracking();
        let stats = Arc::new(ReplicationStats::default());
        let stats2 = stats.clone();
        let stopping = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stopping2 = stopping.clone();
        let (stop_tx, stop_rx) = unbounded::<()>();
        let handle = std::thread::Builder::new()
            .name(format!("rtml-replicate-{node}"))
            .spawn(move || {
                let mut pending: HashMap<ObjectId, u64> = HashMap::new();
                let mut cold_streaks: HashMap<ObjectId, u32> = HashMap::new();
                loop {
                    match stop_rx.recv_timeout(policy.sweep_interval) {
                        Ok(()) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    }
                    sweep(
                        node,
                        &policy,
                        &demand,
                        &hooks,
                        &stats2,
                        &mut pending,
                        &mut cold_streaks,
                        || stopping2.load(std::sync::atomic::Ordering::Acquire),
                    );
                }
            })
            .expect("spawn replication agent");
        ReplicationAgent {
            stats,
            stop: stop_tx,
            stopping,
            handle: parking_lot::Mutex::new(Some(handle)),
        }
    }

    /// The agent's counters.
    pub fn stats(&self) -> &Arc<ReplicationStats> {
        &self.stats
    }

    /// Stops the sweep thread and joins it. A sweep in the middle of
    /// replica pulls notices the flag between pulls, so the join is
    /// bounded by one fetch timeout, not one per target.
    pub fn shutdown(&self) {
        self.stopping
            .store(true, std::sync::atomic::Ordering::Release);
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplicationAgent {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One sweep: drain fresh demand, merge into `pending`, reclaim the
/// cold replica copies this node holds, and replicate every object
/// that crossed the threshold. Hot objects are processed in id order
/// (the drain is sorted) so placement is reproducible. Entries that
/// stay below the threshold are halved (and dropped at zero) so
/// `pending` tracks a demand *rate* with bounded memory, not a
/// lifetime total.
#[allow(clippy::too_many_arguments)]
fn sweep(
    me: NodeId,
    policy: &ReplicationPolicy,
    demand: &TransferStats,
    hooks: &ReplicationHooks,
    stats: &ReplicationStats,
    pending: &mut HashMap<ObjectId, u64>,
    cold_streaks: &mut HashMap<ObjectId, u32>,
    stopping: impl Fn() -> bool,
) {
    let started = std::time::Instant::now();
    let mut hot_seen: u32 = 0;
    let mut placed: u32 = 0;
    let mut released: u32 = 0;
    stats.sweeps.inc();
    let drained = demand.drain_demand();
    for (object, reads) in &drained {
        *pending.entry(*object).or_insert(0) += reads;
    }
    let mut hot: Vec<ObjectId> = pending
        .iter()
        .filter(|(_, reads)| **reads >= policy.read_threshold)
        .map(|(object, _)| *object)
        .collect();
    hot.sort();
    // Reclamation (demand decay on replica *copies*): judged against
    // the merged, pre-decay demand, so a replica serving even one read
    // per sweep stays warm. Cold streaks accrue hysteresis; only a
    // replica cold for `release_after_sweeps` consecutive sweeps is
    // dropped, through the runtime's release hook (which re-verifies
    // that another sealed holder exists — never the last copy).
    if policy.release_after_sweeps > 0 && policy.release_threshold > 0 {
        let mut replicas = (hooks.list_replicas)();
        replicas.sort();
        let replica_set: std::collections::HashSet<ObjectId> = replicas.iter().copied().collect();
        // Entries that stopped being replicas (evicted, demoted to the
        // last copy) forget their streak.
        cold_streaks.retain(|object, _| replica_set.contains(object));
        let mut release: Vec<ObjectId> = Vec::new();
        for object in replicas {
            if pending.get(&object).copied().unwrap_or(0) >= policy.release_threshold {
                cold_streaks.remove(&object);
                continue;
            }
            let streak = cold_streaks.entry(object).or_insert(0);
            *streak += 1;
            if *streak >= policy.release_after_sweeps {
                cold_streaks.remove(&object);
                release.push(object);
            }
        }
        if !release.is_empty() {
            let dropped = (hooks.release)(&release);
            stats.replicas_released.add(dropped as u64);
            released = dropped as u32;
        }
    }
    // Exponential decay for everything that stayed cold: a one-off
    // burst fades in a few sweeps instead of counting toward hotness
    // forever, and the map cannot grow without bound on a node that
    // serves many barely-read objects.
    pending.retain(|_, reads| {
        *reads /= 2;
        *reads > 0
    });
    'hot: for object in hot {
        // Processed (or abandoned) either way: the counter re-arms from
        // zero, so sustained demand re-triggers on later sweeps while a
        // one-off burst does not keep replicating forever.
        pending.remove(&object);
        let Some(view) = (hooks.lookup)(object) else {
            continue;
        };
        // Only sealed objects this node still holds are candidates: an
        // evicted object cannot be pushed from here, and an unsealed
        // record is a table race.
        if !view.sealed || !view.locations.contains(&me) {
            continue;
        }
        stats.hot_objects.inc();
        hot_seen += 1;
        let alive = (hooks.alive_nodes)();
        let needed = policy.replicas_needed(view.locations.len(), alive.len());
        if needed == 0 {
            continue;
        }
        let candidates = alive.into_iter().filter(|n| !view.locations.contains(n));
        for target in policy.choose_targets(object, candidates, needed) {
            // Shutdown/kill must not wait out one fetch timeout per
            // remaining target: abandon the sweep between pulls (the
            // observer still sees the partial sweep's summary).
            if stopping() {
                break 'hot;
            }
            if (hooks.pull)(object, target, me) {
                stats.replicas_created.inc();
                placed += 1;
            } else {
                stats.failures.inc();
            }
        }
    }
    if let Some(observe) = &hooks.observe_sweep {
        observe(SweepReport {
            hot: hot_seen,
            placed,
            released,
            micros: started.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ObjectStore, StoreConfig};
    use crate::transfer::{TransferDirectory, TransferService};
    use bytes::Bytes;
    use parking_lot::Mutex;
    use rtml_common::ids::{DriverId, TaskId};
    use rtml_net::{Fabric, FabricConfig, LatencyModel};
    use std::time::Instant;

    fn obj(i: u64) -> ObjectId {
        TaskId::driver_root(DriverId::from_index(3))
            .child(i)
            .return_object(0)
    }

    #[test]
    fn replicas_needed_caps_at_cluster_size() {
        let policy = ReplicationPolicy {
            max_replicas: 3,
            ..ReplicationPolicy::default()
        };
        assert_eq!(policy.replicas_needed(1, 8), 3);
        assert_eq!(policy.replicas_needed(2, 8), 2);
        assert_eq!(policy.replicas_needed(4, 8), 0);
        // Two-node cluster: at most one replica can exist.
        assert_eq!(policy.replicas_needed(1, 2), 1);
        assert_eq!(policy.replicas_needed(1, 1), 0);
    }

    #[test]
    fn choose_targets_is_deterministic_and_object_dependent() {
        let policy = ReplicationPolicy::default();
        let candidates: Vec<NodeId> = (0..8).map(NodeId).collect();
        let a = policy.choose_targets(obj(1), candidates.clone(), 2);
        let b = policy.choose_targets(obj(1), candidates.clone(), 2);
        assert_eq!(a, b, "placement must be a pure function");
        assert_eq!(a.len(), 2);
        // Across many objects, placement must not pile onto one node.
        let mut distinct = std::collections::HashSet::new();
        for i in 0..32 {
            distinct.extend(policy.choose_targets(obj(i), candidates.clone(), 2));
        }
        assert!(
            distinct.len() >= 4,
            "placement too concentrated: {distinct:?}"
        );
    }

    #[test]
    fn agent_replicates_objects_past_threshold() {
        // A real serve records demand (node 0 holds the object, a
        // one-shot reader on node 1 fetches it), then a scheduler-style
        // hint pushes the counter over the threshold in one atomic
        // batch (trickled reads are subject to per-sweep decay by
        // design): the agent must pull the object onto its two chosen
        // targets through the hook.
        let fabric = Fabric::new(FabricConfig {
            latency: LatencyModel::Zero,
            ..FabricConfig::default()
        });
        let directory = TransferDirectory::new();
        let store0 = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let store1 = Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(1),
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let svc0 = TransferService::spawn(fabric.clone(), store0.clone(), &directory);
        let _svc1 = TransferService::spawn(fabric.clone(), store1.clone(), &directory);
        store0.put(obj(7), Bytes::from_static(b"hot")).unwrap();

        let pulls: Arc<Mutex<Vec<(ObjectId, NodeId, NodeId)>>> = Arc::new(Mutex::new(Vec::new()));
        let pulls2 = pulls.clone();
        let hooks = ReplicationHooks {
            lookup: Arc::new(|object| {
                Some(ReplicaView {
                    sealed: true,
                    locations: vec![NodeId(0)],
                })
                .filter(|_| object == obj(7))
            }),
            alive_nodes: Arc::new(|| vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
            pull: Arc::new(move |object, target, from| {
                pulls2.lock().push((object, target, from));
                true
            }),
            list_replicas: Arc::new(Vec::new),
            release: Arc::new(|_| 0),
            observe_sweep: None,
        };
        let policy = ReplicationPolicy {
            enabled: true,
            read_threshold: 4,
            max_replicas: 2,
            sweep_interval: Duration::from_millis(2),
            ..ReplicationPolicy::default()
        };
        // Serve-loop demand recording, checked before the agent exists
        // (an agent's sweeps would drain the counter underneath us).
        svc0.stats().enable_demand_tracking();
        crate::transfer::FetchAgent::spawn(fabric.clone(), store1.clone(), directory.clone())
            .fetch_one(obj(7), NodeId(0), Duration::from_secs(5))
            .unwrap();
        assert_eq!(svc0.stats().demand_of(obj(7)), 1);

        let agent = ReplicationAgent::spawn(NodeId(0), policy, svc0.stats().clone(), hooks);
        // The coalesced-prefetch hint: threshold's worth of fan-in in
        // one batch, crossed atomically on the next sweep.
        svc0.stats().record_demand(obj(7), 4);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pulls.lock().len() < 2 {
            assert!(Instant::now() < deadline, "agent never replicated");
            std::thread::sleep(Duration::from_millis(2));
        }
        let got = pulls.lock().clone();
        assert_eq!(got.len(), 2, "exactly max_replicas pulls: {got:?}");
        for (object, target, from) in &got {
            assert_eq!(*object, obj(7));
            assert_eq!(*from, NodeId(0));
            assert!(*target != NodeId(0), "never replicates onto a holder");
        }
        assert_eq!(agent.stats().replicas_created.get(), 2);
        assert_eq!(agent.stats().hot_objects.get(), 1);
        agent.shutdown();
    }

    #[test]
    fn agent_skips_objects_below_threshold_and_already_replicated() {
        let stats = Arc::new(TransferStats::default());
        stats.enable_demand_tracking();
        let pulls = Arc::new(Mutex::new(Vec::<ObjectId>::new()));
        let pulls2 = pulls.clone();
        let hooks = ReplicationHooks {
            // Every object already has a full holder set.
            lookup: Arc::new(|_| {
                Some(ReplicaView {
                    sealed: true,
                    locations: vec![NodeId(0), NodeId(1), NodeId(2)],
                })
            }),
            alive_nodes: Arc::new(|| vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
            pull: Arc::new(move |object, _, _| {
                pulls2.lock().push(object);
                true
            }),
            list_replicas: Arc::new(Vec::new),
            release: Arc::new(|_| 0),
            observe_sweep: None,
        };
        let policy = ReplicationPolicy {
            enabled: true,
            read_threshold: 10,
            max_replicas: 2,
            sweep_interval: Duration::from_millis(1),
            ..ReplicationPolicy::default()
        };
        let mut pending = HashMap::new();
        let mut cold = HashMap::new();
        let agent_stats = ReplicationStats::default();
        // Below threshold: nothing happens; demand carries over with
        // decay (6 -> 3), so a cold trickle fades instead of counting
        // toward hotness forever.
        stats.record_demand(obj(1), 6);
        sweep(
            NodeId(0),
            &policy,
            &stats,
            &hooks,
            &agent_stats,
            &mut pending,
            &mut cold,
            || false,
        );
        assert!(pulls.lock().is_empty());
        assert_eq!(pending.get(&obj(1)), Some(&3));
        // Crosses threshold across sweeps (3 + 7 = 10), but the holder
        // set is full: hot is noted, no pull is issued, and the counter
        // re-arms.
        stats.record_demand(obj(1), 7);
        sweep(
            NodeId(0),
            &policy,
            &stats,
            &hooks,
            &agent_stats,
            &mut pending,
            &mut cold,
            || false,
        );
        assert!(pulls.lock().is_empty());
        assert_eq!(agent_stats.hot_objects.get(), 1);
        assert!(!pending.contains_key(&obj(1)), "counter re-armed");
        // A cold entry left alone decays to nothing: bounded memory.
        stats.record_demand(obj(2), 3);
        for _ in 0..3 {
            sweep(
                NodeId(0),
                &policy,
                &stats,
                &hooks,
                &agent_stats,
                &mut pending,
                &mut cold,
                || false,
            );
        }
        assert!(pending.is_empty(), "cold demand must decay away");
    }

    #[test]
    fn cold_replicas_are_released_after_the_streak() {
        // A replica-marked copy with no read demand must be dropped
        // after exactly `release_after_sweeps` consecutive cold sweeps
        // — and a single warm sweep must reset the streak.
        let stats = Arc::new(TransferStats::default());
        stats.enable_demand_tracking();
        let released: Arc<Mutex<Vec<ObjectId>>> = Arc::new(Mutex::new(Vec::new()));
        let released2 = released.clone();
        let hooks = ReplicationHooks {
            lookup: Arc::new(|_| None),
            alive_nodes: Arc::new(Vec::new),
            pull: Arc::new(|_, _, _| true),
            list_replicas: Arc::new(move || vec![obj(4)]),
            release: Arc::new(move |objects| {
                released2.lock().extend_from_slice(objects);
                objects.len()
            }),
            observe_sweep: None,
        };
        let policy = ReplicationPolicy {
            enabled: true,
            read_threshold: 100,
            release_threshold: 1,
            release_after_sweeps: 3,
            ..ReplicationPolicy::default()
        };
        let mut pending = HashMap::new();
        let mut cold = HashMap::new();
        let agent_stats = ReplicationStats::default();
        let run = |pending: &mut HashMap<ObjectId, u64>, cold: &mut HashMap<ObjectId, u32>| {
            sweep(
                NodeId(1),
                &policy,
                &stats,
                &hooks,
                &agent_stats,
                pending,
                cold,
                || false,
            )
        };
        // Two cold sweeps: streak builds, nothing released yet.
        run(&mut pending, &mut cold);
        run(&mut pending, &mut cold);
        assert!(released.lock().is_empty());
        // A read arrives: the warm sweep resets the streak.
        stats.record_demand(obj(4), 1);
        run(&mut pending, &mut cold);
        assert!(released.lock().is_empty());
        assert!(cold.is_empty(), "warm replica must not carry a streak");
        // Three consecutive cold sweeps: released exactly once.
        run(&mut pending, &mut cold);
        run(&mut pending, &mut cold);
        run(&mut pending, &mut cold);
        assert_eq!(released.lock().clone(), vec![obj(4)]);
        assert_eq!(agent_stats.replicas_released.get(), 1);
    }

    #[test]
    fn reclamation_is_off_when_thresholds_are_zero() {
        let stats = Arc::new(TransferStats::default());
        stats.enable_demand_tracking();
        let released = Arc::new(Mutex::new(0usize));
        let released2 = released.clone();
        let hooks = ReplicationHooks {
            lookup: Arc::new(|_| None),
            alive_nodes: Arc::new(Vec::new),
            pull: Arc::new(|_, _, _| true),
            list_replicas: Arc::new(move || vec![obj(5)]),
            release: Arc::new(move |objects| {
                *released2.lock() += objects.len();
                objects.len()
            }),
            observe_sweep: None,
        };
        let policy = ReplicationPolicy {
            enabled: true,
            read_threshold: 100,
            release_threshold: 0,
            release_after_sweeps: 1,
            ..ReplicationPolicy::default()
        };
        let mut pending = HashMap::new();
        let mut cold = HashMap::new();
        let agent_stats = ReplicationStats::default();
        for _ in 0..4 {
            sweep(
                NodeId(1),
                &policy,
                &stats,
                &hooks,
                &agent_stats,
                &mut pending,
                &mut cold,
                || false,
            );
        }
        assert_eq!(*released.lock(), 0, "threshold 0 disables reclamation");
        assert_eq!(agent_stats.replicas_released.get(), 0);
    }
}
