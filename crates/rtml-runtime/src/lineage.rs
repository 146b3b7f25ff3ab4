//! Lineage-based fault tolerance (paper §3.2.1 / R6).
//!
//! "The database stores the computation lineage, which allows us to
//! reconstruct lost data by replaying the computation." The lineage *is*
//! the task table: every task spec is durable at submission time, task
//! IDs are deterministic functions of the submission structure, and
//! object IDs are deterministic functions of task IDs. So reconstruction
//! is: find the producer of the missing object, re-submit its spec, and
//! let the ordinary scheduling/dependency machinery do the rest —
//! including recursively reconstructing the producer's own missing
//! inputs.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use rtml_common::collections::{IdMap, IdSet};
use rtml_common::event::{Component, Event, EventKind};
use rtml_common::ids::{ObjectId, TaskId};
use rtml_common::metrics::{Counter, MetricsRegistry};
use rtml_common::task::TaskState;
use rtml_sched::{Replay, Replays};

use crate::envelope;
use crate::services::Services;

/// Cap on concurrently active lineage replays, so a churn burst cannot
/// trigger a reconstruction storm. Deferred replays are retried by the
/// callers' poll loops.
const RECONSTRUCTION_CAP: usize = 64;

/// Deduplicating lineage-replay coordinator. One per cluster.
pub struct ReconstructionManager {
    services: Arc<Services>,
    /// Tasks between the resubmission decision and the Submitted state
    /// write (a very small window, but enough for duplicate triggers).
    inflight: Mutex<IdSet<TaskId>>,
    /// Replays resubmitted and not yet observed back in a terminal
    /// state — the window [`RECONSTRUCTION_CAP`] counts — with the
    /// attempt each was resubmitted as.
    active: Mutex<IdMap<TaskId, u32>>,
    /// Producers observed blocking a consumer, for the stuck-task
    /// backstop: task -> when it was first nudged (or last seen running).
    watch: Mutex<IdMap<TaskId, Instant>>,
    /// Size at which watched producers that moved on are pruned; doubled
    /// past whatever survives, so pruning stays O(1) reads per insert
    /// however many are legitimately in flight at once. Out of reach
    /// while a prune runs, so one runs at a time.
    prune_at: AtomicUsize,
    /// How long a producer is watched before the backstop reads its
    /// state: one still pre-running this long (its queue message
    /// swallowed by a partition, its spill placement dropped on the
    /// wire) is declared lost and replayed.
    stuck_after: Duration,
    /// Total reconstructions performed (for experiments).
    pub reconstructions: Counter,
    /// Replays deferred by the cap; the callers' poll loops re-trigger
    /// them once active replays drain. Shared with the registry it is
    /// registered on (the services' own, so not through `self`: that
    /// would be a cycle).
    deferred: Arc<Counter>,
}

impl ReconstructionManager {
    /// Creates a manager over `services`.
    pub fn new(services: Arc<Services>) -> Arc<Self> {
        let stuck_after = services.config.fetch_timeout.saturating_mul(4);
        Arc::new(ReconstructionManager {
            services,
            inflight: Mutex::new(IdSet::default()),
            active: Mutex::new(IdMap::default()),
            watch: Mutex::new(IdMap::default()),
            prune_at: AtomicUsize::new(256),
            stuck_after,
            reconstructions: Counter::new(),
            deferred: Arc::default(),
        })
    }

    /// Registers the count of replays the cap deferred
    /// (`recon.deferred`).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let deferred = self.deferred.clone();
        registry.register_value("recon.deferred", move || deferred.get());
    }

    /// What a resolver pass asks for: the producers of the objects with
    /// no live copy, looked at together, and the forced replays.
    pub fn replay(&self, replays: &Replays) {
        let missing: Vec<ObjectId> = replays
            .iter()
            .filter(|(_, how)| *how == Replay::Missing)
            .map(|(object, _)| *object)
            .collect();
        self.handle_missing(&missing);
        for (object, how) in replays {
            if *how == Replay::Forced {
                self.force_replay(*object);
            }
        }
    }

    /// Called when someone needs `objects` but no live copy of them
    /// exists: a resolver's nudge, in the pass that found a copy lost or
    /// once a tick while a wait stays blocked.
    ///
    /// Idempotent and cheap when a producer is already in flight;
    /// resubmits a producer that terminated without leaving a copy (node
    /// failure, eviction); seals error envelopes for an object that can
    /// never be produced (failed producer, broken lineage). The records
    /// are read in one batched call — a `get` of a whole burst nudges
    /// every result's producer at once — and split by what they say:
    ///
    /// - an object that never sealed asks the task table only which
    ///   producers it [marked lost](rtml_kv::TaskTable::marked_lost),
    ///   with no kv read, replays those and watches the rest;
    /// - an object sealed once whose copies are all gone reads its
    ///   producer's state through the state index, in one batch.
    ///
    /// No spec is read unless a producer is replayed or failed.
    pub fn handle_missing(&self, objects: &[ObjectId]) {
        if objects.is_empty() {
            return;
        }
        let (mut unsealed, mut gone) = (Vec::new(), Vec::new());
        for (object, info) in objects.iter().zip(self.services.objects.get_many(objects)) {
            if info.as_ref().is_some_and(|i| i.is_available()) {
                continue;
            }
            // The producer normally rides inside the ID itself
            // ([`ObjectId::producer_task`]); an explicit table record
            // (which the table synthesizes from the ID anyway) covers
            // IDs that lost their provenance in transit. Note there may
            // be *no* record at all: the submission path writes none, so
            // a never-sealed return object is just an ID plus a durable
            // task spec.
            let producer = object
                .producer_task()
                .or_else(|| info.as_ref().and_then(|i| i.producer));
            let sealed = info.is_some_and(|i| i.sealed);
            match (producer, sealed) {
                (Some(producer), false) => unsealed.push((*object, producer)),
                (Some(producer), true) => gone.push((*object, producer)),
                // No producing task (a `put` or an actor result). If it
                // was sealed and now has no copies, the value is gone
                // for good: no lineage to replay. Otherwise it is simply
                // not produced yet — keep waiting.
                (None, true) => self.seal_missing_as_error(
                    &[*object],
                    "lineage broken: object has no producing task and its last copy was lost",
                ),
                (None, false) => {}
            }
        }
        if !unsealed.is_empty() {
            let tasks: Vec<TaskId> = unsealed.iter().map(|(_, task)| *task).collect();
            let lost = self.services.tasks.marked_lost(&tasks);
            for ((object, producer), lost) in unsealed.into_iter().zip(lost) {
                match lost {
                    true => self.on_missing(object, producer, Some(TaskState::Lost)),
                    false => self.note_inflight(object, producer),
                }
            }
        }
        if !gone.is_empty() {
            let tasks: Vec<TaskId> = gone.iter().map(|(_, task)| *task).collect();
            let states = self.services.tasks.get_recorded_states_many(&tasks);
            for ((object, producer), state) in gone.into_iter().zip(states) {
                self.on_missing(object, producer, state);
            }
        }
    }

    /// Decides for one object with no live copy by its producer's
    /// explicit state record (`None`: it has none).
    fn on_missing(&self, object: ObjectId, producer: TaskId, state: Option<TaskState>) {
        match state {
            // No record (submitted and not yet queued, or not submitted
            // at all), or in flight: the seal will come — unless the
            // message moving it forward was swallowed by a partition or
            // an injected drop, which the stuck-task backstop watches for.
            None
            | Some(
                TaskState::Submitted
                | TaskState::Queued(_)
                | TaskState::Spilled
                | TaskState::Running(_),
            ) => self.note_inflight(object, producer),
            Some(TaskState::Failed(message)) => {
                // The producer ran and failed; its error envelopes should
                // exist, but a node death may have taken them. Re-seal.
                let returns: Vec<ObjectId> = self
                    .services
                    .tasks
                    .get_spec(producer)
                    .map(|s| s.return_ids())
                    .unwrap_or_else(|| vec![object]);
                self.seal_missing_as_error(&returns, &message);
            }
            Some(TaskState::Finished) | Some(TaskState::Lost) => {
                // The record was read before the state: a producer that
                // sealed and finished in between looks like one that
                // finished without leaving a copy. A worker publishes
                // the location before `Finished`, so a second look at
                // the record tells the two apart.
                if !self.services.objects.is_available(object) {
                    self.resubmit(producer);
                }
            }
        }
    }

    /// Forces a replay of `object`'s producer even though copies appear
    /// to exist — called after fetches to every listed holder failed
    /// (network partition, silently dead node). The evidence bar is
    /// high (a full fetch timeout elapsed), so the occasional redundant
    /// replay is an acceptable price for liveness. [`Self::resubmit`]
    /// replays only a producer that finished or was lost.
    pub fn force_replay(&self, object: ObjectId) {
        let producer = object
            .producer_task()
            .or_else(|| self.services.objects.get(object).and_then(|i| i.producer));
        if let Some(producer) = producer {
            self.resubmit(producer);
        }
    }

    /// The stuck-task backstop. Watches `producer` from its first nudge;
    /// once it has been watched `stuck_after`, reads its state once and
    /// decides:
    ///
    /// - submitted, queued or spilled: its forward-progress message was
    ///   lost (a spill or a placement dropped by the fault plan or
    ///   swallowed by a partition), so it is declared lost and replayed —
    ///   a redundant replay racing the original is safe, because task and
    ///   object IDs are deterministic and both executions seal identical
    ///   values;
    /// - running: watched afresh;
    /// - finished, failed or lost: decided as for a lost copy;
    /// - never submitted: no longer watched.
    fn note_inflight(&self, object: ObjectId, producer: TaskId) {
        let (stuck, watched) = {
            let mut watch = self.watch.lock();
            let since = *watch.entry(producer).or_insert_with(Instant::now);
            (since.elapsed() >= self.stuck_after, watch.len())
        };
        let at = self.prune_at.load(Relaxed);
        if watched > at
            && self
                .prune_at
                .compare_exchange(at, usize::MAX, Relaxed, Relaxed)
                .is_ok()
        {
            let left = self.prune_watch();
            self.prune_at.store((2 * left).max(256), Relaxed);
        }
        if !stuck {
            return;
        }
        // The full read synthesizes `Submitted` from the spec, so a
        // producer that was never submitted reads `None`.
        let state = self.services.tasks.get_state(producer);
        if let Some(TaskState::Running(_)) = state {
            self.watch.lock().insert(producer, Instant::now());
            return;
        }
        self.watch.lock().remove(&producer);
        match state {
            None => {}
            Some(TaskState::Submitted | TaskState::Queued(_) | TaskState::Spilled) => {
                self.services.tasks.set_state(producer, &TaskState::Lost);
                self.resubmit(producer);
            }
            terminal => self.on_missing(object, producer, terminal),
        }
    }

    /// Resubmits `task` from its durable spec, bumping the attempt
    /// counter. No-op if another trigger beat us to it or it is not
    /// finished or lost, deferred if the reconstruction cap is reached
    /// (callers' poll loops re-trigger).
    pub fn resubmit(&self, task: TaskId) {
        // Replays that have since reached a terminal state are pruned
        // before the cap is declared hit.
        let full = self.active.lock().len() >= RECONSTRUCTION_CAP;
        if full && self.prune_active() >= RECONSTRUCTION_CAP {
            self.deferred.inc();
            return;
        }
        {
            let mut inflight = self.inflight.lock();
            if !inflight.insert(task) {
                return;
            }
        }
        if let Some(attempt) = self.resubmit_inner(task) {
            self.active.lock().insert(task, attempt);
        }
        self.inflight.lock().remove(&task);
    }

    /// Drops the watched producers whose first result is available, and
    /// returns how many are left. One batched read of their results'
    /// records, with no lock held — blocked `get`s and every node loop
    /// nudge through here — and no task state: a producer whose result
    /// is not available stays watched until the backstop reads it.
    fn prune_watch(&self) -> usize {
        let tasks: Vec<TaskId> = self.watch.lock().keys().copied().collect();
        let results: Vec<ObjectId> = tasks.iter().map(|task| task.return_object(0)).collect();
        let infos = self.services.objects.get_many(&results);
        let mut watch = self.watch.lock();
        for (task, info) in tasks.iter().zip(infos) {
            if info.is_some_and(|i| i.is_available()) {
                watch.remove(task);
            }
        }
        watch.len()
    }

    /// Drops the replays that reached a terminal state, read in one batch
    /// through the state index with no lock held, and returns how many
    /// are left. A replay resubmitted again meanwhile stays.
    fn prune_active(&self) -> usize {
        let snapshot: Vec<(TaskId, u32)> =
            self.active.lock().iter().map(|(t, a)| (*t, *a)).collect();
        let tasks: Vec<TaskId> = snapshot.iter().map(|(task, _)| *task).collect();
        let states = self.services.tasks.get_recorded_states_many(&tasks);
        let mut active = self.active.lock();
        for ((task, attempt), state) in snapshot.into_iter().zip(states) {
            if state.is_some_and(|s| s.is_terminal()) && active.get(&task) == Some(&attempt) {
                active.remove(&task);
            }
        }
        active.len()
    }

    /// Resubmits `task`; the attempt it went out as, or `None` if there
    /// was nothing to resubmit.
    fn resubmit_inner(&self, task: TaskId) -> Option<u32> {
        let mut spec = self.services.tasks.get_spec(task)?;
        // Re-check state under the inflight guard: another thread may
        // have already resubmitted.
        match self.services.tasks.get_state(task) {
            Some(TaskState::Finished) | Some(TaskState::Lost) | None => {}
            _ => return None,
        }
        spec.attempt += 1;
        self.services.tasks.record(&spec, &TaskState::Submitted);
        self.reconstructions.inc();
        let home = self.services.any_alive().unwrap_or(spec.submitter_node);
        self.services.events.append(
            home,
            Event::now(
                Component::Supervisor,
                EventKind::TaskReconstructed {
                    task,
                    attempt: spec.attempt,
                },
            ),
        );
        // Routing failure (cluster shutting down) leaves callers to
        // time out; the resubmission itself still happened.
        let attempt = spec.attempt;
        let _ = self
            .services
            .submit_batch_to(spec.submitter_node, vec![spec]);
        Some(attempt)
    }

    /// Seals error envelopes for objects that can never be produced, so
    /// consumers fail fast instead of hanging.
    fn seal_missing_as_error(&self, objects: &[ObjectId], message: &str) {
        let Some(store) = self
            .services
            .any_alive()
            .and_then(|n| self.services.store(n))
        else {
            return;
        };
        let bytes = envelope::seal_error(message);
        let missing = objects
            .iter()
            .filter(|object| !self.services.objects.is_available(**object))
            .map(|object| (*object, bytes.clone()));
        let _ = self
            .services
            .seal_and_publish(&store, missing.collect(), |_, _| None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use rtml_common::ids::{DriverId, FunctionId, NodeId, WorkerId};
    use rtml_common::task::TaskSpec;

    /// A manager over a cluster's services with no nodes, whose stuck
    /// producers are declared lost after 20 ms.
    fn manager() -> (Arc<Services>, Arc<ReconstructionManager>) {
        let services = Services::create(&ClusterConfig {
            fetch_timeout: Duration::from_millis(5),
            ..ClusterConfig::default()
        });
        let recon = ReconstructionManager::new(services.clone());
        (services, recon)
    }

    /// Submits task `i` as the submit path does: its spec in a segment,
    /// no state record.
    fn submitted(services: &Services, i: u64) -> TaskId {
        let task = TaskId::driver_root(DriverId::from_index(0)).child(i);
        let spec = TaskSpec::simple(task, FunctionId::from_name("f"), vec![]);
        services.tasks.record_many(&[spec], &TaskState::Submitted);
        task
    }

    #[test]
    fn a_nudge_for_a_producer_with_no_state_record_folds_no_segment() {
        let (services, recon) = manager();
        let task = submitted(&services, 1);
        recon.handle_missing(&[task.return_object(0)]);
        assert_eq!(services.metrics.get("kv.spec_index_entries"), Some(0));
        assert!(recon.watch.lock().contains_key(&task));
        assert_eq!(recon.reconstructions.get(), 0);
    }

    #[test]
    fn a_nudge_of_an_object_that_never_sealed_reads_no_task_state() {
        let services = Services::create(&ClusterConfig {
            kv_shards: 1,
            fetch_timeout: Duration::from_millis(5),
            ..ClusterConfig::default()
        });
        let recon = ReconstructionManager::new(services.clone());
        let root = TaskId::driver_root(DriverId::from_index(2));
        // One producer with no record; one queued by a `set_state` that
        // 256 newer records have followed since.
        let (unrecorded, queued) = (root.child(0), root.child(1));
        services
            .tasks
            .set_state(queued, &TaskState::Queued(NodeId(0)));
        for i in 0..256 {
            services
                .tasks
                .set_state(root.child(100 + i), &TaskState::Finished);
        }
        let locks = services.kv.stats().total_locks();
        recon.handle_missing(&[unrecorded.return_object(0), queued.return_object(0)]);
        // One lock, for the objects' records, and no index folded.
        assert_eq!(services.kv.stats().total_locks(), locks + 1);
        assert_eq!(services.metrics.get("kv.state_index_entries"), Some(0));
        assert_eq!(services.metrics.get("kv.spec_index_entries"), Some(0));
        let watch = recon.watch.lock();
        assert!(watch.contains_key(&unrecorded) && watch.contains_key(&queued));
        drop(watch);
        assert_eq!(recon.reconstructions.get(), 0);
        // One queued on a node that died: a node death's repair marks it
        // lost, and its first nudge replays it.
        let dead = NodeId(3);
        let lost = submitted(&services, 2);
        services.tasks.set_state(lost, &TaskState::Queued(dead));
        assert_eq!(services.tasks.lose_node(dead), [lost]);
        recon.handle_missing(&[lost.return_object(0)]);
        assert_eq!(recon.reconstructions.get(), 1);
        assert_eq!(services.tasks.get_spec(lost).map(|s| s.attempt), Some(1));
    }

    #[test]
    fn a_lost_producer_whose_copy_is_gone_is_resubmitted_at_its_first_nudge() {
        let (services, recon) = manager();
        let task = submitted(&services, 1);
        let object = task.return_object(0);
        services.objects.add_location(object, NodeId(0), 5);
        services.tasks.set_state(task, &TaskState::Finished);
        // Its node died: the copy went with it and the task reads lost.
        services.objects.remove_location(object, NodeId(0));
        services.tasks.set_state(task, &TaskState::Lost);
        recon.handle_missing(&[object]);
        assert_eq!(recon.reconstructions.get(), 1);
        assert_eq!(services.tasks.get_state(task), Some(TaskState::Submitted));
        assert_eq!(services.tasks.get_spec(task).map(|s| s.attempt), Some(1));
    }

    #[test]
    fn a_submitted_producer_wedged_past_stuck_after_is_declared_lost_and_replayed() {
        let (services, recon) = manager();
        let wedged = submitted(&services, 1);
        // Named by an object, never submitted: watched the same way,
        // never declared lost.
        let unsubmitted = TaskId::driver_root(DriverId::from_index(0)).child(2);
        let objects = [wedged.return_object(0), unsubmitted.return_object(0)];
        recon.handle_missing(&objects);
        assert_eq!(recon.watch.lock().len(), 2);
        std::thread::sleep(recon.stuck_after + Duration::from_millis(5));
        recon.handle_missing(&objects);
        assert_eq!(recon.reconstructions.get(), 1);
        assert_eq!(services.tasks.get_spec(wedged).map(|s| s.attempt), Some(1));
        assert_eq!(services.tasks.get_state(wedged), Some(TaskState::Submitted));
        assert_eq!(services.tasks.get_state(unsubmitted), None);
    }

    #[test]
    fn a_producer_that_moved_between_pre_running_states_is_replayed_at_stuck_after() {
        let (services, recon) = manager();
        let task = submitted(&services, 1);
        services
            .tasks
            .set_state(task, &TaskState::Queued(NodeId(0)));
        recon.handle_missing(&[task.return_object(0)]);
        std::thread::sleep(recon.stuck_after + Duration::from_millis(5));
        // A move that came and went: the clock runs from the first nudge.
        services.tasks.set_state(task, &TaskState::Spilled);
        recon.handle_missing(&[task.return_object(0)]);
        assert_eq!(recon.reconstructions.get(), 1);
        assert_eq!(services.tasks.get_spec(task).map(|s| s.attempt), Some(1));
        assert!(recon.watch.lock().is_empty());
    }

    #[test]
    fn a_running_producer_past_stuck_after_is_watched_afresh_not_replayed() {
        let (services, recon) = manager();
        let task = submitted(&services, 1);
        let running = TaskState::Running(WorkerId::new(NodeId(0), 0));
        services.tasks.set_state(task, &running);
        recon.handle_missing(&[task.return_object(0)]);
        std::thread::sleep(recon.stuck_after + Duration::from_millis(5));
        let rearmed = Instant::now();
        recon.handle_missing(&[task.return_object(0)]);
        assert_eq!(recon.reconstructions.get(), 0);
        assert_eq!(services.tasks.get_state(task), Some(running));
        let since = recon.watch.lock().get(&task).copied();
        assert!(since.is_some_and(|since| since >= rearmed), "{since:?}");
    }

    #[test]
    fn a_never_submitted_producer_past_stuck_after_is_dropped_from_the_watch() {
        let (services, recon) = manager();
        let task = TaskId::driver_root(DriverId::from_index(0)).child(7);
        recon.handle_missing(&[task.return_object(0)]);
        assert!(recon.watch.lock().contains_key(&task));
        std::thread::sleep(recon.stuck_after + Duration::from_millis(5));
        recon.handle_missing(&[task.return_object(0)]);
        assert!(recon.watch.lock().is_empty());
        assert_eq!(recon.reconstructions.get(), 0);
        assert_eq!(services.tasks.get_state(task), None);
    }

    #[test]
    fn a_watched_producer_that_finished_without_a_copy_is_replayed_at_stuck_after() {
        let (services, recon) = manager();
        let task = submitted(&services, 1);
        recon.handle_missing(&[task.return_object(0)]);
        services.tasks.set_state(task, &TaskState::Finished);
        std::thread::sleep(recon.stuck_after + Duration::from_millis(5));
        recon.handle_missing(&[task.return_object(0)]);
        assert_eq!(recon.reconstructions.get(), 1);
        assert_eq!(services.tasks.get_spec(task).map(|s| s.attempt), Some(1));
    }

    #[test]
    fn a_prune_drops_a_producer_whose_result_is_available_unread() {
        let (services, recon) = manager();
        // 300 producers finished long since, each result with a copy: a
        // read of their states would fold the log.
        let root = TaskId::driver_root(DriverId::from_index(1));
        let done: Vec<TaskId> = (0..300).map(|i| root.child(i)).collect();
        for task in &done {
            services.tasks.set_state(*task, &TaskState::Finished);
            services
                .objects
                .add_location(task.return_object(0), NodeId(0), 5);
        }
        {
            let mut watch = recon.watch.lock();
            for task in &done {
                watch.insert(*task, Instant::now());
            }
        }
        recon.prune_at.store(done.len(), Relaxed);
        let waiting = submitted(&services, 300);
        recon.handle_missing(&[waiting.return_object(0)]);
        let watch = recon.watch.lock();
        assert_eq!(watch.keys().collect::<Vec<_>>(), [&waiting]);
        assert_eq!(services.metrics.get("kv.state_index_entries"), Some(0));
    }

    #[test]
    fn a_prune_of_the_watch_reads_no_task_state() {
        const SHARDS: usize = 4;
        let services = Services::create(&ClusterConfig {
            kv_shards: SHARDS,
            ..ClusterConfig::default()
        });
        let recon = ReconstructionManager::new(services.clone());
        let root = TaskId::driver_root(DriverId::from_index(0));
        let tasks: Vec<TaskId> = (0..1000).map(|i| root.child(i)).collect();
        let queued = TaskState::Queued(NodeId(0));
        // Every other producer has finished since it was watched, its
        // result sealed.
        for (i, task) in tasks.iter().enumerate() {
            if i % 2 == 0 {
                services.tasks.set_state(*task, &TaskState::Finished);
                services
                    .objects
                    .add_location(task.return_object(0), NodeId(0), 5);
            } else {
                services.tasks.set_state(*task, &queued);
            }
        }
        {
            let mut watch = recon.watch.lock();
            for task in &tasks {
                watch.insert(*task, Instant::now());
            }
        }
        recon.prune_at.store(tasks.len() - 1, Relaxed);
        let before = services.kv.stats().total_locks();
        recon.note_inflight(tasks[1].return_object(0), tasks[1]);
        // One batched read of the results' records, a lock a shard.
        let locks = services.kv.stats().total_locks() - before;
        assert!(locks <= SHARDS as u64, "{locks} kv locks");
        assert_eq!(services.metrics.get("kv.state_index_entries"), Some(0));
        assert_eq!(services.metrics.get("kv.spec_index_entries"), Some(0));
        let watch = recon.watch.lock();
        assert_eq!(watch.len(), tasks.len() / 2);
        assert!(tasks
            .iter()
            .skip(1)
            .step_by(2)
            .all(|t| watch.contains_key(t)));
        assert_eq!(recon.prune_at.load(Relaxed), tasks.len());
    }
}
