//! The task table: task ID → spec (the lineage record), kept in the
//! append-only spec-segment log ([`crate::segment`]), and a
//! separately-keyed mutable state.
//!
//! Storing the spec durably at submission time is the heart of the paper's
//! fault-tolerance story: any finished-or-lost task can be re-executed
//! from its spec alone, and the spec's argument list carries the lineage
//! edges to *its* inputs, recursively.

use std::sync::Arc;

use bytes::Bytes;

use rtml_common::codec::{decode_from_slice, encode_to_bytes};
use rtml_common::ids::TaskId;
use rtml_common::metrics::MetricsRegistry;
use rtml_common::task::{TaskSpec, TaskState};

use crate::segment::{self, SegmentIndex};
use crate::shard::Subscription;
use crate::store::KvStore;

const STATE_PREFIX: &[u8] = b"tstate:";

/// Typed task-table handle.
#[derive(Clone)]
pub struct TaskTable {
    kv: Arc<KvStore>,
    /// Lazily built index over the append-only spec segments that
    /// [`TaskTable::record_many`] commits. Clones share it; independent
    /// handles over the same kv each converge to the same entries
    /// (segments are immutable), so a fresh handle is a valid recovery
    /// path.
    segments: Arc<SegmentIndex>,
}

impl TaskTable {
    /// Creates a handle over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        TaskTable {
            kv,
            segments: Arc::new(SegmentIndex::new()),
        }
    }

    fn state_key(task: TaskId) -> Bytes {
        super::id_key(STATE_PREFIX, task.unique())
    }

    /// Reads a task spec: the copy of the latest segment that holds it,
    /// so a resubmission's attempt-bumped record wins.
    pub fn get_spec(&self, task: TaskId) -> Option<TaskSpec> {
        self.segments.lookup(&self.kv, task)
    }

    /// Records one task again — a resubmission, or a task sealed as
    /// failed before it ran — as a one-spec segment, which supersedes any
    /// earlier copy, then writes `state`. Unlike
    /// [`TaskTable::record_many`] it writes `Submitted` too: a task
    /// recorded again may have a state record that must not outlive it.
    pub fn record(&self, spec: &TaskSpec, state: &TaskState) {
        segment::commit(&self.kv, std::slice::from_ref(spec));
        self.set_state(spec.task_id, state);
    }

    /// Group-commits a batch of task submissions: every spec is recorded
    /// durably as **one append-only segment** — a single shard-lock
    /// acquisition for the whole batch, not a per-entry insert — then
    /// every task transitions to `state`. The segment append completes
    /// before any state becomes visible, preserving the "durable lineage
    /// first" submission invariant, and its atomicity means concurrent
    /// readers see the whole batch's specs or none. The per-task-id
    /// index over segments is built lazily (first `get_spec` miss or
    /// recovery scan), so ingest pays nothing for it.
    ///
    /// When `state` is [`TaskState::Submitted`] the state phase is
    /// skipped entirely: a task with a durable spec and no state record
    /// *is* `Submitted` by definition, and every state reader in this
    /// table synthesizes that. One lock per batch instead of two writes
    /// per task is what lets the driver-side hot path clear a million
    /// records per second.
    pub fn record_many(&self, specs: &[TaskSpec], state: &TaskState) {
        if specs.is_empty() {
            return;
        }
        segment::commit(&self.kv, specs);
        if matches!(state, TaskState::Submitted) {
            return;
        }
        let encoded = encode_to_bytes(state);
        let keys = super::id_keys_arena(STATE_PREFIX, specs.iter().map(|s| s.task_id.unique()));
        self.kv
            .set_many(keys.into_iter().map(|key| (key, encoded.clone())).collect());
    }

    /// Transitions a task's state; notifies state subscribers.
    pub fn set_state(&self, task: TaskId, state: &TaskState) {
        self.kv.set(Self::state_key(task), encode_to_bytes(state));
    }

    /// Transitions many tasks to the same state with one group-committed
    /// write (the batch-ingest path in the local scheduler). One task
    /// takes [`TaskTable::set_state`]'s path: a lone task's commits cost
    /// what they did before workers took batches.
    pub fn set_states_many(&self, tasks: &[TaskId], state: &TaskState) {
        if let [task] = tasks {
            return self.set_state(*task, state);
        }
        let encoded = encode_to_bytes(state);
        let keys = super::id_keys_arena(STATE_PREFIX, tasks.iter().map(|t| t.unique()));
        self.kv
            .set_many(keys.into_iter().map(|key| (key, encoded.clone())).collect());
    }

    /// Batched state reads (positional). The batch-submission replay
    /// check uses this so a batch costs one lock per shard, not one per
    /// task.
    ///
    /// A task with a durable spec but no state record yet reads as
    /// [`TaskState::Submitted`] — the submit fast path records only the
    /// spec, so "spec exists, no explicit state" *means* submitted. One
    /// task takes [`TaskTable::get_state`]'s path.
    pub fn get_states_many(&self, tasks: &[TaskId]) -> Vec<Option<TaskState>> {
        if let [task] = tasks {
            return vec![self.get_state(*task)];
        }
        let mut out = self.get_recorded_states_many(tasks);
        let missing: Vec<usize> = out
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if !missing.is_empty() {
            let ids: Vec<TaskId> = missing.iter().map(|&i| tasks[i]).collect();
            for (&i, hit) in missing
                .iter()
                .zip(self.segments.contains_many(&self.kv, &ids))
            {
                if hit {
                    out[i] = Some(TaskState::Submitted);
                }
            }
        }
        out
    }

    /// Batched reads of explicit state records (positional): `None` where
    /// a task has no `tstate:` record, whether it was submitted and not
    /// yet queued or never submitted at all. Never synthesizes
    /// `Submitted` and never touches the spec segments, so it builds no
    /// segment index: the read of a reconstruction nudge, which runs on
    /// every tick a wait is blocked.
    pub fn get_recorded_states_many(&self, tasks: &[TaskId]) -> Vec<Option<TaskState>> {
        let decode = |bytes: Option<Bytes>| bytes.and_then(|b| decode_state(&b));
        if let [task] = tasks {
            return vec![decode(self.kv.get(&Self::state_key(*task)))];
        }
        let keys = super::id_keys_arena(STATE_PREFIX, tasks.iter().map(|t| t.unique()));
        self.kv.get_many(&keys).into_iter().map(decode).collect()
    }

    /// Registers how many tasks the spec-segment index holds
    /// (`kv.spec_index_entries`): 0 until a read needs a
    /// segment-committed spec (a replay's `get_spec`, a state read that
    /// synthesizes `Submitted`, a recovery scan).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let segments = self.segments.clone();
        registry.register_value("kv.spec_index_entries", move || segments.len() as u64);
    }

    /// Reads a task's state. A task with a durable spec and no state
    /// record is `Submitted` (see [`TaskTable::get_states_many`]).
    pub fn get_state(&self, task: TaskId) -> Option<TaskState> {
        if let Some(bytes) = self.kv.get(&Self::state_key(task)) {
            return decode_state(&bytes);
        }
        self.segments
            .contains(&self.kv, task)
            .then_some(TaskState::Submitted)
    }

    /// Subscribes to recorded state transitions: the current state
    /// record, if any, plus the stream of the ones written after it.
    /// `None` where the task has no state record yet — submitted and not
    /// yet queued, or never submitted: unlike [`TaskTable::get_state`]
    /// it never synthesizes `Submitted`, so it reads no spec and builds
    /// no segment index. A caller that must tell those two apart reads
    /// `get_state`.
    pub fn subscribe_state(&self, task: TaskId) -> (Option<TaskState>, TaskStateStream) {
        let (mut current, sub) = self.kv.subscribe_many(&[Self::state_key(task)]);
        let current = current.pop().flatten().and_then(|b| decode_state(&b));
        (current, TaskStateStream { sub })
    }

    /// Scans every task's current state. Recovery/tooling path (full
    /// scan); the data path never calls this. Tasks whose only record is
    /// their spec (the submit fast path writes no explicit state) are
    /// reported as `Submitted`, so failure repair sees the
    /// submitted-but-never-queued window.
    pub fn scan_states(&self) -> Vec<(TaskId, TaskState)> {
        let mut out: Vec<(TaskId, TaskState)> = self
            .kv
            .scan_prefix(STATE_PREFIX)
            .into_iter()
            .filter_map(|(k, v)| {
                let id = super::parse_id_key(STATE_PREFIX, &k)?;
                let state = decode_state(&v)?;
                Some((TaskId::from_unique(id), state))
            })
            .collect();
        let mut seen: std::collections::HashSet<TaskId> =
            out.iter().map(|(task, _)| *task).collect();
        for task in self.segments.task_ids(&self.kv) {
            if seen.insert(task) {
                out.push((task, TaskState::Submitted));
            }
        }
        out
    }

    /// Counts tasks currently recorded in each lifecycle state. Tooling
    /// path (full scan) for the debugging requirement R7.
    pub fn state_census(&self) -> TaskCensus {
        let mut census = TaskCensus::default();
        for (_task, state) in self.scan_states() {
            match state {
                TaskState::Submitted => census.submitted += 1,
                TaskState::Queued(_) => census.queued += 1,
                TaskState::Spilled => census.spilled += 1,
                TaskState::Running(_) => census.running += 1,
                TaskState::Finished => census.finished += 1,
                TaskState::Failed(_) => census.failed += 1,
                TaskState::Lost => census.lost += 1,
            }
        }
        census
    }
}

/// Counts of tasks per lifecycle state (R7 debugging view).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskCensus {
    /// Tasks submitted but not yet queued anywhere.
    pub submitted: usize,
    /// Tasks in some local scheduler's queues.
    pub queued: usize,
    /// Tasks waiting at the global scheduler.
    pub spilled: usize,
    /// Tasks currently executing.
    pub running: usize,
    /// Tasks completed successfully.
    pub finished: usize,
    /// Tasks that raised application errors.
    pub failed: usize,
    /// Tasks lost to failures and eligible for reconstruction.
    pub lost: usize,
}

impl TaskCensus {
    /// Total tasks observed.
    pub fn total(&self) -> usize {
        self.submitted
            + self.queued
            + self.spilled
            + self.running
            + self.finished
            + self.failed
            + self.lost
    }
}

/// Decodes a stored state record; `None` for an undecodable one.
fn decode_state(bytes: &[u8]) -> Option<TaskState> {
    decode_from_slice(bytes).ok()
}

/// A decoded subscription stream of [`TaskState`] transitions.
pub struct TaskStateStream {
    sub: Subscription,
}

impl TaskStateStream {
    /// Blocks until the next transition or `timeout`.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<TaskState> {
        loop {
            let (_, bytes) = self.sub.recv_timeout(timeout).ok()?;
            if let Some(state) = decode_state(&bytes) {
                return Some(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::{DriverId, FunctionId, NodeId, WorkerId};
    use std::time::Duration;

    fn spec() -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        TaskSpec::simple(root.child(0), FunctionId::from_name("f"), vec![])
    }

    #[test]
    fn spec_round_trips() {
        let kv = KvStore::new(2);
        let table = TaskTable::new(kv);
        let s = spec();
        table.record(&s, &TaskState::Submitted);
        assert_eq!(table.get_spec(s.task_id), Some(s.clone()));
        assert_eq!(table.get_state(s.task_id), Some(TaskState::Submitted));
        assert!(table.get_spec(s.task_id.child(9)).is_none());
        // Recorded again, attempt bumped, over a stale state record: the
        // new copy and the new state win, for this handle and a fresh one.
        table.set_state(s.task_id, &TaskState::Lost);
        let mut bumped = s.clone();
        bumped.attempt += 1;
        table.record(&bumped, &TaskState::Submitted);
        assert_eq!(table.get_spec(s.task_id), Some(bumped.clone()));
        assert_eq!(table.get_state(s.task_id), Some(TaskState::Submitted));
        let fresh = TaskTable::new(table.kv.clone());
        assert_eq!(fresh.get_spec(s.task_id), Some(bumped));
        assert_eq!(fresh.scan_states(), vec![(s.task_id, TaskState::Submitted)]);
    }

    #[test]
    fn state_transitions_and_subscription() {
        let kv = KvStore::new(2);
        let table = TaskTable::new(kv);
        let s = spec();
        table.set_state(s.task_id, &TaskState::Submitted);
        let (cur, stream) = table.subscribe_state(s.task_id);
        assert_eq!(cur, Some(TaskState::Submitted));

        let t2 = table.clone();
        let id = s.task_id;
        std::thread::spawn(move || {
            t2.set_state(id, &TaskState::Running(WorkerId::new(NodeId(0), 1)));
            t2.set_state(id, &TaskState::Finished);
        });
        assert_eq!(
            stream.recv_timeout(Duration::from_secs(5)),
            Some(TaskState::Running(WorkerId::new(NodeId(0), 1)))
        );
        assert_eq!(
            stream.recv_timeout(Duration::from_secs(5)),
            Some(TaskState::Finished)
        );
    }

    #[test]
    fn record_many_commits_specs_and_states() {
        let kv = KvStore::new(4);
        let table = TaskTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let specs: Vec<TaskSpec> = (0..10)
            .map(|i| TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]))
            .collect();
        table.record_many(&specs, &TaskState::Submitted);
        for spec in &specs {
            assert_eq!(table.get_spec(spec.task_id), Some(spec.clone()));
            assert_eq!(table.get_state(spec.task_id), Some(TaskState::Submitted));
        }
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        table.set_states_many(&ids, &TaskState::Queued(NodeId(1)));
        let states = table.get_states_many(&ids);
        assert!(states
            .iter()
            .all(|s| *s == Some(TaskState::Queued(NodeId(1)))));
        // Unknown tasks read back as None, positionally.
        let mixed = table.get_states_many(&[ids[0], root.child(999)]);
        assert_eq!(mixed[0], Some(TaskState::Queued(NodeId(1))));
        assert_eq!(mixed[1], None);
    }

    #[test]
    fn recorded_states_are_explicit_records_and_fold_no_segment() {
        let table = TaskTable::new(KvStore::new(4));
        let root = TaskId::driver_root(DriverId::from_index(0));
        let specs: Vec<TaskSpec> = (0..2)
            .map(|i| TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]))
            .collect();
        table.record_many(&specs, &TaskState::Submitted);
        let queued = TaskState::Queued(NodeId(1));
        table.set_state(specs[1].task_id, &queued);
        let ids = [specs[0].task_id, specs[1].task_id, root.child(999)];
        for tasks in [&ids[..], &ids[..1]] {
            let recorded = table.get_recorded_states_many(tasks);
            assert_eq!(recorded, [None, Some(queued.clone()), None][..tasks.len()]);
        }
        assert_eq!(table.segments.len(), 0);
        // The synthesizing read tells the submitted task from the
        // unknown one, and folds the segment to do it.
        let states = table.get_states_many(&ids);
        assert_eq!(states, [Some(TaskState::Submitted), Some(queued), None]);
        assert_eq!(table.segments.len(), 2);
    }

    #[test]
    fn subscribing_to_a_fresh_batch_reads_no_spec() {
        let table = TaskTable::new(KvStore::new(4));
        let root = TaskId::driver_root(DriverId::from_index(0));
        let specs: Vec<TaskSpec> = (0..4096)
            .map(|i| TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]))
            .collect();
        table.record_many(&specs, &TaskState::Submitted);
        // Not queued yet: no record to report, and no spec read to say
        // it was submitted.
        let last = specs[4095].task_id;
        let (current, stream) = table.subscribe_state(last);
        assert_eq!(current, None);
        assert_eq!(table.segments.len(), 0);
        let queued = TaskState::Queued(NodeId(0));
        table.set_state(last, &queued);
        assert_eq!(stream.recv_timeout(Duration::from_secs(5)), Some(queued));
        assert_eq!(table.segments.len(), 0);
        // The one-task read still tells a submitted task apart.
        assert_eq!(
            table.get_state(specs[0].task_id),
            Some(TaskState::Submitted)
        );
    }

    #[test]
    fn census_counts_states() {
        let kv = KvStore::new(2);
        let table = TaskTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(1));
        table.set_state(root.child(0), &TaskState::Finished);
        table.set_state(root.child(1), &TaskState::Finished);
        table.set_state(root.child(2), &TaskState::Lost);
        let census = table.state_census();
        assert_eq!(census.finished, 2);
        assert_eq!(census.lost, 1);
        assert_eq!(census.total(), 3);
    }
}
