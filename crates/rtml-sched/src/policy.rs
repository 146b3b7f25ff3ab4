//! Global placement.
//!
//! The paper (§3.2.2): "Global schedulers can then assign tasks to local
//! schedulers based on global information about factors including object
//! locality and resource availability." [`PlacementPolicy::LocalityAware`]
//! is that design, and the only policy.
//!
//! `LocalityAware` ranks a candidate by two things, in this order:
//!
//! 1. **waves ahead** — how many full waves of the node's own slots the
//!    task would wait behind: everything queued there (ready, waiting,
//!    running, on the wire to it, placed earlier in this batch) divided
//!    by how many tasks of this shape the node runs side by side;
//! 2. **missing bytes** — the argument bytes that would have to move
//!    there, an object counting as present where it is sealed *or
//!    inbound*: a task needing it was placed there and the node has not
//!    reported it yet, or it was placed there earlier in this batch
//!    ([`LoadView::note_inbound`]), so it will have arrived, once,
//!    before any task placed now can start.
//!
//! Exact ties are spread by a per-task hash. Time first, bytes second:
//! a wave is a task's run time, a transfer is paid once per *node*, and
//! both used to be folded into one scalar that charged every task the
//! full transfer and priced a queue slot at a fixed 64 KiB — so a
//! megabyte argument glued a burst to its holder until that node was 16
//! tasks deeper than an idle one, while the idle nodes never saw the
//! burst at all. Under the ranking above the first task of a
//! burst goes to an idle node, the next ones follow it there (the
//! object is inbound) until its first wave is full, then the next idle
//! node's wave fills — every node that will run part of the burst
//! starts fetching within the burst's first placements, and no node is
//! given a second wave before every node has a first.
//!
//! Placement is a **pure function** of the task spec, the [`LoadView`]
//! and the object table, and a batch's placement
//! is a pure function of the batch and the view it started from: the
//! caller feeds each pick back with [`LoadView::note_placed`] — one
//! more task queued on that node, its dependencies inbound there — so
//! the batch's later tasks see the load its earlier ones created, and
//! a spilled burst fills nodes as it is placed instead of landing on
//! whichever node one frozen snapshot made look emptiest. The same
//! batch against the same view places identically on every run. Exact
//! ties are spread by a deterministic per-task FNV hash, so equal nodes
//! share a burst without any other state.

use std::collections::BTreeSet;

use rtml_common::collections::{fast_map_with_capacity, fnv1a_64, FastMap, IdMap};
use rtml_common::ids::{NodeId, ObjectId, TaskId};
use rtml_common::task::TaskSpec;
use rtml_kv::ObjectTable;

use crate::msg::LoadReport;

/// Default bound on the per-batch candidate set: placement considers the
/// k least-loaded nodes (plus every dependency holder) instead of
/// scanning the full load map per task.
pub const DEFAULT_TOP_K: usize = 16;

/// How the global scheduler picks a node for a spilled task.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Fewest full waves of queued work ahead of the task, then fewest
    /// argument bytes to move (sealed or inbound counts as there); ties
    /// by a deterministic per-task hash. The paper's design.
    #[default]
    LocalityAware,
}

/// Seeded random state for [`choose_victim`]'s sampling. Placement
/// itself is pure and never reads it.
#[derive(Debug, Default)]
pub struct PolicyState {
    /// Deterministic RNG state.
    pub rng: u64,
}

impl PolicyState {
    /// Creates state with a fixed seed for reproducible choices.
    pub fn new(seed: u64) -> Self {
        PolicyState { rng: seed | 1 }
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

/// Per-node load for one placement batch: the reports, plus what the
/// batch itself has placed so far.
///
/// Wraps a [`FastMap`] of load reports plus an ordered index of the
/// nodes by `(queue_depth, node)`, whose first `k` entries are the
/// candidate set; per-task placement then touches `k + dependency
/// holders` candidates instead of the whole cluster, and
/// [`LoadView::note_placed`] re-files one node in `O(log n)`. The view
/// is a pure value: building it from the same reports — in any
/// insertion order — and noting the same placements yields the same
/// placements.
pub struct LoadView {
    reports: FastMap<NodeId, LoadReport>,
    /// Every node by `(queue_depth, node)`, ascending.
    order: BTreeSet<(u32, NodeId)>,
    /// How many of `order`'s least-loaded nodes are candidates.
    k: usize,
    /// Nodes each object is on its way to (see
    /// [`LoadView::note_inbound`]).
    inbound: IdMap<ObjectId, Vec<NodeId>>,
}

impl LoadView {
    /// Builds a view over `reports`, indexing the `k` least-loaded nodes.
    pub fn build(reports: FastMap<NodeId, LoadReport>, k: usize) -> Self {
        let order = reports
            .values()
            .map(|l| (l.queue_depth(), l.node))
            .collect();
        LoadView {
            reports,
            order,
            k,
            inbound: IdMap::default(),
        }
    }

    /// Records that `object` is inbound to `node`: a task that needs it
    /// was placed there and not yet reported by the node (or earlier in
    /// this batch), so the node has asked for it — or will, before any
    /// task placed now can start — and placement counts it as present.
    pub fn note_inbound(&mut self, node: NodeId, object: ObjectId) {
        let nodes = self.inbound.entry(object).or_default();
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }

    /// Feeds a placement back into the view: `spec` is now queued on
    /// `node` — one more task deep, its dependencies inbound there — so
    /// the next decision of the batch sees the load this one created.
    pub fn note_placed(&mut self, node: NodeId, spec: &TaskSpec) {
        self.note_queued(node, 1, spec.dependencies());
    }

    /// `tasks` more queued on `node` than its report says, with their
    /// dependencies `inbound` there; keeps the candidate index ordered.
    pub(crate) fn note_queued(
        &mut self,
        node: NodeId,
        tasks: u32,
        inbound: impl IntoIterator<Item = ObjectId>,
    ) {
        if let Some(report) = self.reports.get_mut(&node) {
            self.order.remove(&(report.queue_depth(), node));
            report.ready = report.ready.saturating_add(tasks);
            self.order.insert((report.queue_depth(), node));
        }
        for object in inbound {
            self.note_inbound(node, object);
        }
    }

    /// The nodes `object` is inbound to.
    fn inbound(&self, object: ObjectId) -> &[NodeId] {
        self.inbound.get(&object).map_or(&[], Vec::as_slice)
    }

    /// Convenience constructor from a plain report list (tests, pure
    /// reference placer).
    pub fn from_reports(reports: impl IntoIterator<Item = LoadReport>, k: usize) -> Self {
        let mut map: FastMap<NodeId, LoadReport> = FastMap::default();
        for l in reports {
            map.insert(l.node, l);
        }
        Self::build(map, k)
    }

    /// The report for `node`, if known.
    pub fn get(&self, node: NodeId) -> Option<&LoadReport> {
        self.reports.get(&node)
    }

    /// The top-k least-loaded nodes, ascending by `(queue_depth, node)`.
    pub fn top_k(&self) -> impl Iterator<Item = &LoadReport> {
        self.order
            .iter()
            .take(self.k)
            .filter_map(|(_, n)| self.reports.get(n))
    }

    /// Every known report (the full-scan fallback).
    pub fn all(&self) -> impl Iterator<Item = &LoadReport> {
        self.reports.values()
    }

    /// Number of nodes in the view.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

/// Deterministic per-task spread hash: where several candidates land in
/// the same cost band, `(hash(task, node), node)` picks the winner, so a
/// burst of distinct tasks fans out across equal nodes without any
/// sequential state.
fn spread_hash(task: TaskId, node: NodeId) -> u64 {
    let mut buf = [0u8; 20];
    buf[..16].copy_from_slice(&task.unique().as_u128().to_le_bytes());
    buf[16..].copy_from_slice(&node.0.to_le_bytes());
    fnv1a_64(&buf)
}

/// Among ranked candidates, one of the best-ranked — which one is the
/// spread hash's pick, so strictly better always wins and equals share.
fn pick_spread<R: Ord + Copy>(ranked: &[(R, NodeId)], task: TaskId) -> Option<NodeId> {
    let best = ranked.iter().map(|(rank, _)| *rank).min()?;
    ranked
        .iter()
        .filter(|(rank, _)| *rank == best)
        .min_by_key(|(_, n)| (spread_hash(task, *n), *n))
        .map(|(_, n)| *n)
}

impl PlacementPolicy {
    /// Chooses a node for `spec` in `view`, or `None` if no node's total
    /// capacity fits the demand (the task must be parked until the
    /// cluster changes).
    ///
    /// The choice is a pure function of `(spec, view)` and the object
    /// table; the policy state is not read.
    pub fn place(
        &self,
        spec: &TaskSpec,
        view: &LoadView,
        objects: &ObjectTable,
        _state: &mut PolicyState,
    ) -> Option<NodeId> {
        let deps: Vec<ObjectId> = spec.dependencies().collect();
        let mut present: FastMap<NodeId, u64> = fast_map_with_capacity(deps.len());
        let mut total_bytes: u64 = 0;
        // One group-committed table sweep for the whole argument
        // list instead of a point read per dependency. Every
        // holder of a dependency is credited its size, so a
        // hot input its readers hold widens the set of nodes
        // that look local, and so is every node it is inbound
        // to.
        for (dep, info) in deps.iter().zip(objects.get_many(&deps)) {
            let Some(info) = info else { continue };
            total_bytes += info.size;
            let inbound = view.inbound(*dep);
            let there = info
                .locations
                .iter()
                .chain(inbound.iter().filter(|n| !info.locations.contains(n)));
            for node in there {
                *present.entry(*node).or_insert(0) += info.size;
            }
        }
        // (full waves ahead, bytes to move) per candidate.
        let mut ranked: Vec<((u64, u64), NodeId)> = Vec::new();
        let push = |l: &LoadReport, ranked: &mut Vec<((u64, u64), NodeId)>| {
            if l.total.fits(&spec.resources) {
                let slots = l.total.slots_for(&spec.resources).max(1);
                let waves = u64::from(l.queue_depth()) / slots;
                let there = present.get(&l.node).copied().unwrap_or(0);
                ranked.push(((waves, total_bytes.saturating_sub(there)), l.node));
            }
        };
        // Candidates: the k least-loaded nodes plus every node
        // holding or awaiting a dependency (one outside the
        // top-k must stay eligible or a busy holder could never
        // win its wave on locality).
        for l in view.top_k() {
            push(l, &mut ranked);
        }
        for node in present.keys() {
            if !ranked.iter().any(|(_, n)| n == node) {
                if let Some(l) = view.get(*node) {
                    push(l, &mut ranked);
                }
            }
        }
        if ranked.is_empty() {
            // Nothing in the bounded candidate set fits (e.g. a
            // GPU task while every GPU node is busy enough to
            // fall out of the top-k): full scan.
            for l in view.all() {
                push(l, &mut ranked);
            }
        }
        pick_spread(&ranked, spec.task_id)
    }
}

/// Picks the most loaded of `candidates` by power-of-two choices (classic
/// low-state load sampling): the deeper ready backlog wins; an exact tie
/// falls to a **locality** tiebreak — the node holding more bytes of
/// `thief_resident` wins. The tiebreak reads the object table as one
/// batched `get_many` sweep, and only when a tie makes it necessary.
/// Deterministic given `state`.
///
/// No scheduler calls this any more: it was the work-stealing plane's
/// victim choice, and that plane is gone. It stays only because the
/// perf ledger times it (`sched.choose_victim_ns`); it leaves with that
/// probe.
pub fn choose_victim<'a>(
    candidates: &'a [LoadReport],
    thief_resident: &[ObjectId],
    objects: &ObjectTable,
    state: &mut PolicyState,
) -> Option<&'a LoadReport> {
    match candidates.len() {
        0 => None,
        1 => Some(&candidates[0]),
        n => {
            let a = &candidates[(state.next_rand() as usize) % n];
            let b = &candidates[(state.next_rand() as usize) % n];
            Some(match a.ready.cmp(&b.ready) {
                std::cmp::Ordering::Greater => a,
                std::cmp::Ordering::Less => b,
                std::cmp::Ordering::Equal if a.node == b.node => a,
                std::cmp::Ordering::Equal => {
                    let infos = objects.get_many(thief_resident);
                    let shared = |node: NodeId| {
                        infos
                            .iter()
                            .flatten()
                            .filter(|info| info.locations.contains(&node))
                            .map(|info| info.size)
                            .sum::<u64>()
                    };
                    let (sa, sb) = (shared(a.node), shared(b.node));
                    match sa.cmp(&sb) {
                        std::cmp::Ordering::Greater => a,
                        std::cmp::Ordering::Less => b,
                        std::cmp::Ordering::Equal if a.node <= b.node => a,
                        std::cmp::Ordering::Equal => b,
                    }
                }
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::{DriverId, FunctionId, TaskId};
    use rtml_common::resources::Resources;
    use rtml_common::task::ArgSpec;
    use rtml_kv::KvStore;

    fn load(node: u32, queue: u32, total: Resources) -> LoadReport {
        LoadReport {
            node: NodeId(node),
            sched_address: node as u64,
            ready: queue,
            waiting: 0,
            running: 0,
            idle_workers: 1,
            available: total.clone(),
            total,
            at_nanos: 0,
        }
    }

    fn view(reports: impl IntoIterator<Item = LoadReport>) -> LoadView {
        LoadView::from_reports(reports, DEFAULT_TOP_K)
    }

    fn cpu_task(args: Vec<ArgSpec>) -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        TaskSpec::simple(root.child(0), FunctionId::from_name("f"), args)
    }

    #[test]
    fn no_fitting_node_parks() {
        let v = view([load(0, 0, Resources::cpu(4.0))]);
        let objects = ObjectTable::new(KvStore::new(1));
        let mut spec = cpu_task(vec![]);
        spec.resources = Resources::gpu(1.0);
        let mut state = PolicyState::new(1);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&spec, &v, &objects, &mut state),
            None
        );
    }

    #[test]
    fn least_loaded_picks_shallowest() {
        // With no argument to weigh, the node the fewest waves deep
        // wins: 5, 1 and 3 waves of four slots.
        let v = view([
            load(0, 20, Resources::cpu(4.0)),
            load(1, 4, Resources::cpu(4.0)),
            load(2, 12, Resources::cpu(4.0)),
        ]);
        let objects = ObjectTable::new(KvStore::new(1));
        let mut state = PolicyState::new(1);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&cpu_task(vec![]), &v, &objects, &mut state),
            Some(NodeId(1))
        );
    }

    #[test]
    fn locality_beats_load() {
        let kv = KvStore::new(1);
        let objects = ObjectTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(9).return_object(0);
        // A large argument lives on node 0, which is busier than node 1
        // but still within its first wave of four slots.
        objects.add_location(dep, NodeId(0), 1_000_000);

        let v = view([
            load(0, 3, Resources::cpu(4.0)),
            load(1, 0, Resources::cpu(4.0)),
        ]);
        let spec = cpu_task(vec![ArgSpec::ObjectRef(dep)]);
        let mut state = PolicyState::new(1);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&spec, &v, &objects, &mut state),
            Some(NodeId(0))
        );
        // Without the dependency the two are equals within a wave, and
        // a burst of such tasks is shared between them by hash.
        let picks: std::collections::BTreeSet<NodeId> = (0..16)
            .map(|i| {
                let spec = TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]);
                PlacementPolicy::LocalityAware
                    .place(&spec, &v, &objects, &mut state)
                    .unwrap()
            })
            .collect();
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn a_full_wave_ahead_outweighs_locality() {
        // The same argument, but its holder already has a full wave
        // queued: the task would start a run time later there, which no
        // single transfer costs. The idle node wins — once it has been
        // given the object's first task, the following ones find the
        // object inbound and join it until its own wave is full.
        let objects = ObjectTable::new(KvStore::new(1));
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(9).return_object(0);
        objects.add_location(dep, NodeId(0), 1_000_000);
        let reports = [
            load(0, 4, Resources::cpu(4.0)),
            load(1, 0, Resources::cpu(4.0)),
            load(2, 0, Resources::cpu(4.0)),
        ];
        let spec = cpu_task(vec![ArgSpec::ObjectRef(dep)]);
        let mut state = PolicyState::new(1);
        let first = PlacementPolicy::LocalityAware
            .place(&spec, &view(reports.clone()), &objects, &mut state)
            .unwrap();
        assert_ne!(first, NodeId(0));
        let other = NodeId(3 - first.0);
        // Three tasks placed there since its report: one slot left in
        // its first wave, and the object on its way.
        let mut folded = reports.clone();
        folded[first.0 as usize].ready = 3;
        let mut v = view(folded.clone());
        v.note_inbound(first, dep);
        for i in 0..16 {
            let spec = TaskSpec::simple(
                root.child(100 + i),
                FunctionId::from_name("f"),
                vec![ArgSpec::ObjectRef(dep)],
            );
            assert_eq!(
                PlacementPolicy::LocalityAware.place(&spec, &v, &objects, &mut state),
                Some(first)
            );
        }
        // Its wave full, the next idle node's begins.
        folded[first.0 as usize].ready = 4;
        let mut v = view(folded);
        v.note_inbound(first, dep);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&spec, &v, &objects, &mut state),
            Some(other)
        );
    }

    #[test]
    fn waves_count_the_slots_that_fit_the_tasks_shape() {
        // Eight queued tasks are two waves for a 1-cpu task on a 4-cpu
        // node but one wave on an 8-cpu node — and four waves for a
        // task that needs two cpus of the small one.
        let objects = ObjectTable::new(KvStore::new(1));
        let v = view([
            load(0, 8, Resources::cpu(4.0)),
            load(1, 15, Resources::cpu(8.0)),
        ]);
        let mut state = PolicyState::new(1);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&cpu_task(vec![]), &v, &objects, &mut state),
            Some(NodeId(1))
        );
        let v = view([
            load(0, 8, Resources::cpu(4.0)),
            load(1, 12, Resources::cpu(8.0)),
        ]);
        let mut wide = cpu_task(vec![]);
        wide.resources = Resources::cpu(2.0);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&wide, &v, &objects, &mut state),
            Some(NodeId(1))
        );
    }

    #[test]
    fn replicated_input_lets_locality_pick_the_idle_holder() {
        // A large input resident only on node 0 draws the task there
        // while node 0 is within a wave of the idle nodes. Once a
        // replica exists on idle node 1 both look local, tasks are
        // shared between the two holders — replication widens placement
        // — and node 2, which would have to fetch, gets none.
        let kv = KvStore::new(1);
        let objects = ObjectTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(9).return_object(0);
        objects.add_location(dep, NodeId(0), 1_000_000);
        let v = view([
            load(0, 3, Resources::cpu(4.0)),
            load(1, 0, Resources::cpu(4.0)),
            load(2, 0, Resources::cpu(4.0)),
        ]);
        let mut state = PolicyState::new(1);
        let mut place = |i: u64| {
            let spec = TaskSpec::simple(
                root.child(i),
                FunctionId::from_name("f"),
                vec![ArgSpec::ObjectRef(dep)],
            );
            PlacementPolicy::LocalityAware
                .place(&spec, &v, &objects, &mut state)
                .unwrap()
        };
        assert!((0..16).all(|i| place(i) == NodeId(0)));
        objects.add_location(dep, NodeId(1), 1_000_000);
        let picks: std::collections::BTreeSet<NodeId> = (0..16).map(place).collect();
        assert_eq!(picks, [NodeId(0), NodeId(1)].into_iter().collect());
    }

    #[test]
    fn locality_only_considers_fitting_nodes() {
        let kv = KvStore::new(1);
        let objects = ObjectTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(9).return_object(0);
        // The data is on a CPU-only node, but the task needs a GPU.
        objects.add_location(dep, NodeId(0), 1_000_000);
        let v = view([
            load(0, 0, Resources::cpu(4.0)),
            load(1, 0, Resources::new(4.0, 1.0)),
        ]);
        let mut spec = cpu_task(vec![ArgSpec::ObjectRef(dep)]);
        spec.resources = Resources::gpu(1.0);
        let mut state = PolicyState::new(1);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&spec, &v, &objects, &mut state),
            Some(NodeId(1))
        );
    }

    #[test]
    fn choose_victim_prefers_deeper_backlog() {
        let objects = ObjectTable::new(KvStore::new(1));
        let candidates: Vec<LoadReport> = vec![
            load(0, 2, Resources::cpu(4.0)),
            load(1, 50, Resources::cpu(4.0)),
        ];
        let mut state = PolicyState::new(7);
        // Whenever the two samples differ, the 50-deep queue wins; only
        // a double draw of node 0 (~25%) picks it. Majority check.
        let mut deep = 0;
        for _ in 0..32 {
            if choose_victim(&candidates, &[], &objects, &mut state)
                .unwrap()
                .node
                == NodeId(1)
            {
                deep += 1;
            }
        }
        assert!(deep > 20, "deep victim picked only {deep}/32 times");
        assert!(choose_victim(&[], &[], &objects, &mut state).is_none());
        assert_eq!(
            choose_victim(&candidates[..1], &[], &objects, &mut state)
                .unwrap()
                .node,
            NodeId(0)
        );
    }

    #[test]
    fn choose_victim_ties_break_on_shared_resident_bytes() {
        // Two equally-deep victims; the thief already holds an object
        // that node 2 also holds — shared working set, so node 2 wins
        // every tie. Only a double draw of node 1 (~25%) avoids the
        // tiebreak, hence the majority check.
        let kv = KvStore::new(1);
        let objects = ObjectTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let resident: ObjectId = root.child(5).return_object(0);
        objects.add_location(resident, NodeId(2), 4096);
        let candidates: Vec<LoadReport> = vec![
            load(1, 10, Resources::cpu(4.0)),
            load(2, 10, Resources::cpu(4.0)),
        ];
        let mut state = PolicyState::new(3);
        let mut node2 = 0;
        for _ in 0..32 {
            if choose_victim(&candidates, &[resident], &objects, &mut state)
                .unwrap()
                .node
                == NodeId(2)
            {
                node2 += 1;
            }
        }
        assert!(
            node2 > 20,
            "locality tiebreak picked node 2 only {node2}/32"
        );
    }

    #[test]
    fn placement_is_deterministic_given_state() {
        let v = view([
            load(0, 1, Resources::cpu(4.0)),
            load(1, 2, Resources::cpu(4.0)),
        ]);
        let objects = ObjectTable::new(KvStore::new(1));
        let a = PlacementPolicy::LocalityAware.place(
            &cpu_task(vec![]),
            &v,
            &objects,
            &mut PolicyState::new(7),
        );
        let b = PlacementPolicy::LocalityAware.place(
            &cpu_task(vec![]),
            &v,
            &objects,
            &mut PolicyState::new(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn placement_is_independent_of_view_insertion_order() {
        // The FastMap replacing BTreeMap must not leak iteration order
        // into decisions: build the same view with reports inserted in
        // opposite orders and demand identical placements for a burst.
        let reports = [
            load(0, 0, Resources::cpu(4.0)),
            load(1, 0, Resources::cpu(4.0)),
            load(2, 1, Resources::cpu(4.0)),
            load(3, 2, Resources::cpu(4.0)),
        ];
        let forward = LoadView::from_reports(reports.clone(), DEFAULT_TOP_K);
        let reverse = LoadView::from_reports(reports.into_iter().rev(), DEFAULT_TOP_K);
        let objects = ObjectTable::new(KvStore::new(1));
        let root = TaskId::driver_root(DriverId::from_index(3));
        let policy = PlacementPolicy::LocalityAware;
        for i in 0..64 {
            let spec = TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]);
            let a = policy.place(&spec, &forward, &objects, &mut PolicyState::new(7));
            let b = policy.place(&spec, &reverse, &objects, &mut PolicyState::new(7));
            assert_eq!(a, b, "task {i} placed differently");
        }
    }

    #[test]
    fn equal_nodes_spread_a_burst_by_task_hash() {
        // Two idle, identical nodes and a burst of distinct tasks: the
        // cost band makes them equal candidates and the per-task hash
        // must fan the burst out over both — deterministically.
        let v = view([
            load(1, 0, Resources::cpu(4.0)),
            load(2, 0, Resources::cpu(4.0)),
        ]);
        let objects = ObjectTable::new(KvStore::new(1));
        let root = TaskId::driver_root(DriverId::from_index(0));
        let mut counts = [0u32; 3];
        for i in 0..32 {
            let spec = TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]);
            let node = PlacementPolicy::LocalityAware
                .place(&spec, &v, &objects, &mut PolicyState::new(1))
                .unwrap();
            counts[node.0 as usize] += 1;
        }
        assert_eq!(counts[1] + counts[2], 32);
        assert!(
            counts[1] >= 8 && counts[2] >= 8,
            "skewed: {}/{}",
            counts[1],
            counts[2]
        );
    }

    #[test]
    fn top_k_bounds_candidates_but_fallback_finds_special_nodes() {
        // With k = 1 only the single least-loaded node is a candidate —
        // but a GPU task must still find the (busier) GPU node via the
        // full-scan fallback.
        let reports = [
            load(0, 0, Resources::cpu(4.0)),
            load(1, 5, Resources::new(4.0, 1.0)),
        ];
        let v = LoadView::from_reports(reports, 1);
        let objects = ObjectTable::new(KvStore::new(1));
        let mut state = PolicyState::new(1);
        let cpu = cpu_task(vec![]);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&cpu, &v, &objects, &mut state),
            Some(NodeId(0))
        );
        let mut gpu = cpu_task(vec![]);
        gpu.resources = Resources::gpu(1.0);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&gpu, &v, &objects, &mut state),
            Some(NodeId(1))
        );
    }

    #[test]
    fn note_placed_refiles_the_node_in_the_candidate_index() {
        // k = 1: only the least-loaded node is a candidate (ties to the
        // lower id). Each pick fed back makes node 1 one deeper, until
        // node 2 is the shallower one and takes over the index — and the
        // inbound credit follows the pick.
        let objects = ObjectTable::new(KvStore::new(1));
        let mut v = LoadView::from_reports(
            [
                load(1, 0, Resources::cpu(4.0)),
                load(2, 2, Resources::cpu(4.0)),
            ],
            1,
        );
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(9).return_object(0);
        let mut state = PolicyState::new(1);
        let mut picks = Vec::new();
        for i in 0..4 {
            let spec = TaskSpec::simple(
                root.child(i),
                FunctionId::from_name("f"),
                vec![ArgSpec::ObjectRef(dep)],
            );
            let node = PlacementPolicy::LocalityAware
                .place(&spec, &v, &objects, &mut state)
                .unwrap();
            v.note_placed(node, &spec);
            picks.push(node);
        }
        assert_eq!(picks, [NodeId(1), NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(v.get(NodeId(1)).unwrap().queue_depth(), 3);
        assert_eq!(v.get(NodeId(2)).unwrap().queue_depth(), 3);
        assert_eq!(v.top_k().map(|l| l.node).collect::<Vec<_>>(), [NodeId(1)]);
        assert_eq!(v.inbound(dep), [NodeId(1), NodeId(2)]);
    }

    #[test]
    fn dependency_holder_outside_top_k_stays_eligible() {
        // k = 1 selects idle node 1; the 1 MB input lives on node 0
        // whose queue keeps it out of the top-k (but within the same
        // wave). Locality must still win: the holder is appended to the
        // candidate set.
        let kv = KvStore::new(1);
        let objects = ObjectTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let dep = root.child(9).return_object(0);
        objects.add_location(dep, NodeId(0), 1_000_000);
        let v = LoadView::from_reports(
            [
                load(0, 3, Resources::cpu(4.0)),
                load(1, 0, Resources::cpu(4.0)),
            ],
            1,
        );
        let spec = cpu_task(vec![ArgSpec::ObjectRef(dep)]);
        let mut state = PolicyState::new(1);
        assert_eq!(
            PlacementPolicy::LocalityAware.place(&spec, &v, &objects, &mut state),
            Some(NodeId(0))
        );
    }
}
