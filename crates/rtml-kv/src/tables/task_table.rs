//! The task table: task ID → spec (the lineage record) and task ID →
//! state, each kept in an append-only kv log.
//!
//! Storing the spec durably at submission time is the heart of the paper's
//! fault-tolerance story: any finished-or-lost task can be re-executed
//! from its spec alone, and the spec's argument list carries the lineage
//! edges to *its* inputs, recursively. Specs go into the spec-segment log
//! ([`crate::segment`]).
//!
//! States go into one state log, [`STATE_LOG_KEY`]. Every write appends
//! one record — `varint(count)`, the state, then the `count` task ids,
//! 16 bytes each — so a batch's transition costs one append (one shard
//! lock) whatever its size, and the kv keeps its bytes, not a map entry
//! per task. There is one log for the cluster, not one per node: a
//! task's transitions come from several nodes (admission on its
//! submitter's, `Running` and `Finished` on the one that ran it, `Lost`
//! from a node death's repair), and the log's append order is the one
//! order in which the latest record wins. Reads go through a
//! [`LogIndex`] folded from the log on demand, which keeps each task's
//! latest state in 32 bytes. A batch admitted on its submitter's thread
//! records its spec segment and `Queued(node)` as one append: the state
//! rides the segment ([`TaskTable::record_many`]) and is the tasks'
//! state until the state log holds a record for them, as a spec with no
//! state record is `Submitted`. A run that reads no state builds none, and
//! neither does a fault-free one: a blocked wait's reconstruction nudge
//! asks only [`TaskTable::marked_lost`], which the handle answers from
//! the tasks it wrote `Lost` for, with no kv read.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use rtml_common::codec::{Codec, Reader, Writer};
use rtml_common::collections::{IdMap, IdSet};
use rtml_common::ids::{NodeId, TaskId, UniqueId, WorkerId};
use rtml_common::metrics::MetricsRegistry;
use rtml_common::task::{TaskSpec, TaskState};

use crate::segment::{self, Fold, LogIndex, SegmentIndex};
use crate::shard::Subscription;
use crate::store::KvStore;

/// The kv log key under which every state record is appended.
pub const STATE_LOG_KEY: &[u8] = b"tstate!";

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
    /// Lazily built index over the state log, shared and rebuilt the
    /// same way.
    states: Arc<LogIndex<States>>,
    /// The tasks this handle and its clones wrote `Lost` for and have not
    /// recorded again since (see [`TaskTable::marked_lost`]). Every write
    /// that changes it holds its lock across the kv append, so it follows
    /// the log's order. A fresh handle over an existing kv starts with it
    /// empty: it is not folded from the log.
    lost: Arc<Mutex<IdSet<TaskId>>>,
}

impl TaskTable {
    /// Creates a handle over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        TaskTable {
            kv,
            segments: Arc::new(SegmentIndex::new()),
            states: Arc::new(LogIndex::new()),
            lost: Arc::default(),
        }
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
    /// It is no longer [marked lost](TaskTable::marked_lost), unless
    /// `state` is `Lost`.
    pub fn record(&self, spec: &TaskSpec, state: &TaskState) {
        segment::commit(&self.kv, std::slice::from_ref(spec), None);
        self.append(std::iter::once(spec.task_id), state, true);
    }

    /// Group-commits a batch of task submissions: every spec is recorded
    /// durably as **one append-only segment** — a single shard-lock
    /// acquisition for the whole batch, not a per-entry insert — then
    /// every task transitions to `state` in one state record. The
    /// segment append completes before any state becomes visible,
    /// preserving the "durable lineage first" submission invariant, and
    /// its atomicity means concurrent readers see the whole batch's specs
    /// or none. The per-task-id index over segments is built lazily
    /// (first `get_spec` miss or recovery scan), so ingest pays nothing
    /// for it.
    ///
    /// When `state` is [`TaskState::Submitted`] the state phase is
    /// skipped entirely: a task with a durable spec and no state record
    /// *is* `Submitted` by definition, and every state reader in this
    /// table synthesizes that. Any other state but `Lost` rides the
    /// segment — the state a batch was admitted with, `Queued(node)` —
    /// and readers synthesize it the same way: it is the tasks' state
    /// until the state log holds a record for them, so it is for tasks
    /// recorded for the first time (a task recorded again goes through
    /// [`TaskTable::record`]), and [`TaskTable::subscribe_state`] does
    /// not see it. Either way a batch costs one lock, which is what lets
    /// the driver-side hot path clear a million records per second. A
    /// `Lost` batch is marked lost as [`TaskTable::set_states_many`]
    /// marks it, with a state record of its own.
    pub fn record_many(&self, specs: &[TaskSpec], state: &TaskState) {
        if specs.is_empty() {
            return;
        }
        match state {
            TaskState::Submitted => segment::commit(&self.kv, specs, None),
            TaskState::Lost => {
                segment::commit(&self.kv, specs, None);
                self.append(specs.iter().map(|s| s.task_id), state, false);
            }
            admitted => segment::commit(&self.kv, specs, Some(admitted)),
        }
    }

    /// Transitions a task's state; notifies state subscribers.
    pub fn set_state(&self, task: TaskId, state: &TaskState) {
        self.append(std::iter::once(task), state, false);
    }

    /// Transitions many tasks to the same state with one state record
    /// (the batch-ingest path in the local scheduler, a worker's batch).
    pub fn set_states_many(&self, tasks: &[TaskId], state: &TaskState) {
        self.append(tasks.iter().copied(), state, false);
    }

    /// Appends one state record for `tasks` (nothing for none). A `Lost`
    /// record marks them lost; one that records them `again` unmarks them
    /// first. Either holds the lost set's lock across the append, so the
    /// set changes in the log's order; any other record takes no lock
    /// but the kv's.
    fn append(
        &self,
        tasks: impl ExactSizeIterator<Item = TaskId> + Clone,
        state: &TaskState,
        again: bool,
    ) {
        if tasks.len() == 0 {
            return;
        }
        let mut w = Writer::with_capacity(8 + 16 * tasks.len());
        w.put_varint(tasks.len() as u64);
        state.encode(&mut w);
        for task in tasks.clone() {
            w.put_u128(task.unique().as_u128());
        }
        let key = Bytes::from_static(STATE_LOG_KEY);
        let lost = matches!(state, TaskState::Lost);
        if !lost && !again {
            self.kv.append(key, w.into_bytes());
            return;
        }
        let mut marked = self.lost.lock();
        for task in tasks {
            match lost {
                true => marked.insert(task),
                false => marked.remove(&task),
            };
        }
        self.kv.append(key, w.into_bytes());
    }

    /// Which of `tasks` this handle and its clones wrote `Lost` for and
    /// have not recorded again since (positional), read with no kv read:
    /// the question a reconstruction nudge for an object that never
    /// sealed asks. It never misses a task whose latest record is `Lost`
    /// written through this table; it may name one whose latest record
    /// is no longer `Lost` (a killed worker's thread that ran on and
    /// published `Finished`), which a full state read tells apart. A
    /// fresh handle over an existing kv starts with no task marked: the
    /// set is not folded from the log.
    pub fn marked_lost(&self, tasks: &[TaskId]) -> Vec<bool> {
        let lost = self.lost.lock();
        tasks.iter().map(|task| lost.contains(task)).collect()
    }

    /// Batched state reads (positional), under one fold of the state log.
    ///
    /// A task with a durable spec but no state record yet reads as the
    /// state its segment gives it: [`TaskState::Submitted`] — the submit
    /// fast path records only the spec, so "spec exists, no explicit
    /// state" *means* submitted — or the state it was admitted with
    /// ([`TaskTable::record_many`]). One task takes
    /// [`TaskTable::get_state`]'s path.
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
            for (&i, state) in missing
                .iter()
                .zip(self.segments.states_many(&self.kv, &ids))
            {
                out[i] = state;
            }
        }
        out
    }

    /// Batched reads of explicit state records (positional), through the
    /// state index: `None` where a task has no state record, whether it
    /// was submitted and not yet queued or never submitted at all. Never
    /// synthesizes `Submitted` and never touches the spec segments, so it
    /// builds no segment index.
    pub fn get_recorded_states_many(&self, tasks: &[TaskId]) -> Vec<Option<TaskState>> {
        self.states.read(&self.kv, |states| {
            tasks.iter().map(|&t| states.get(t)).collect()
        })
    }

    /// Registers how many tasks the spec-segment index holds
    /// (`kv.spec_index_entries`): 0 until a read needs a
    /// segment-committed spec (a replay's `get_spec`, a state read that
    /// synthesizes `Submitted`, a recovery scan); and how many the state
    /// index holds (`kv.state_index_entries`): 0 until a state is read.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let segments = self.segments.clone();
        registry.register_value("kv.spec_index_entries", move || segments.len() as u64);
        let states = self.states.clone();
        registry.register_value("kv.state_index_entries", move || states.len() as u64);
    }

    /// Reads a task's state. A task with a durable spec and no state
    /// record reads as its segment gives it: `Submitted`, or the state
    /// it was admitted with (see [`TaskTable::get_states_many`]).
    pub fn get_state(&self, task: TaskId) -> Option<TaskState> {
        if let Some(state) = self.states.read(&self.kv, |states| states.get(task)) {
            return Some(state);
        }
        self.segments.states_many(&self.kv, &[task]).pop().flatten()
    }

    /// Subscribes to recorded state transitions: the current state
    /// record, if any, plus the stream of the ones written after it.
    /// `None` where the task has no state record yet — submitted and not
    /// yet queued, admitted by a segment, or never submitted: unlike
    /// [`TaskTable::get_state`] it never reads a segment's state, so it
    /// reads no spec and builds no segment index. A caller that must
    /// tell those apart reads `get_state`.
    ///
    /// It registers on the state log before it reads the index, so a
    /// record appended in between is never lost between the two: it is
    /// on the stream, and may be in the current state too. The stream
    /// yields the task's records in log order from the registration on,
    /// so it may first replay states the current one already reflects.
    pub fn subscribe_state(&self, task: TaskId) -> (Option<TaskState>, TaskStateStream) {
        let (_, sub) = self.kv.subscribe_many(&[Bytes::from_static(STATE_LOG_KEY)]);
        let current = self.states.read(&self.kv, |states| states.get(task));
        (current, TaskStateStream { sub, task })
    }

    /// Scans every task's current state. Recovery/tooling path (full
    /// scan); the data path never calls this. Tasks whose only record is
    /// their spec are reported as their segment gives them — `Submitted`
    /// (the submit fast path writes no explicit state), so failure
    /// repair sees the submitted-but-never-queued window, or the state
    /// they were admitted with.
    pub fn scan_states(&self) -> Vec<(TaskId, TaskState)> {
        let specs = self.segments.states(&self.kv);
        self.states.read(&self.kv, |states| {
            let mut out: Vec<(TaskId, TaskState)> = states
                .latest
                .iter()
                .map(|(&id, &held)| (TaskId::from_unique(id), states.state(held)))
                .collect();
            out.extend(
                specs
                    .into_iter()
                    .filter(|(task, _)| !states.latest.contains_key(&task.unique())),
            );
            out
        })
    }

    /// Marks `Lost` every task bound to `node`, which died: queued there,
    /// running on one of its workers, or submitted from it and queued
    /// nowhere yet — in one state record. Returns those tasks.
    pub fn lose_node(&self, node: NodeId) -> Vec<TaskId> {
        let lost: Vec<TaskId> = self
            .scan_states()
            .into_iter()
            .filter(|(task, state)| match state {
                TaskState::Queued(n) => *n == node,
                TaskState::Running(w) => w.node == node,
                TaskState::Submitted => self
                    .get_spec(*task)
                    .is_some_and(|s| s.submitter_node == node),
                _ => false,
            })
            .map(|(task, _)| task)
            .collect();
        self.set_states_many(&lost, &TaskState::Lost);
        lost
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

/// A task's latest state as the state index holds it: 12 bytes, so an
/// entry is 32 with its id (48 with a [`TaskState`]). A `Failed`
/// message is kept once per record, in [`States::failures`].
#[derive(Clone, Copy)]
enum Held {
    Submitted,
    Queued(NodeId),
    Spilled,
    Running(WorkerId),
    Finished,
    Failed(u32),
    Lost,
}

/// The state-log fold: each task's latest state.
#[derive(Default)]
struct States {
    latest: IdMap<UniqueId, Held>,
    /// The messages of the `Failed` records, in log order.
    failures: Vec<String>,
}

impl States {
    /// `task`'s latest recorded state.
    fn get(&self, task: TaskId) -> Option<TaskState> {
        self.latest
            .get(&task.unique())
            .map(|&held| self.state(held))
    }

    fn state(&self, held: Held) -> TaskState {
        match held {
            Held::Submitted => TaskState::Submitted,
            Held::Queued(node) => TaskState::Queued(node),
            Held::Spilled => TaskState::Spilled,
            Held::Running(worker) => TaskState::Running(worker),
            Held::Finished => TaskState::Finished,
            Held::Failed(i) => TaskState::Failed(self.failures[i as usize].clone()),
            Held::Lost => TaskState::Lost,
        }
    }
}

impl Fold for States {
    const KEY: &'static [u8] = STATE_LOG_KEY;

    /// Folds one record in whole, or — torn or corrupt — not at all.
    fn fold(&mut self, record: &Bytes) -> bool {
        let Some((state, ids)) = decode_record(record) else {
            return false;
        };
        let held = match state {
            TaskState::Submitted => Held::Submitted,
            TaskState::Queued(node) => Held::Queued(node),
            TaskState::Spilled => Held::Spilled,
            TaskState::Running(worker) => Held::Running(worker),
            TaskState::Finished => Held::Finished,
            TaskState::Failed(message) => {
                self.failures.push(message);
                Held::Failed(self.failures.len() as u32 - 1)
            }
            TaskState::Lost => Held::Lost,
        };
        for id in ids.chunks_exact(16) {
            self.latest.insert(unique_id(id), held);
        }
        true
    }

    fn entries(&self) -> usize {
        self.latest.len()
    }
}

/// A task id as a state record holds it.
fn unique_id(bytes: &[u8]) -> UniqueId {
    UniqueId::from_u128(u128::from_le_bytes(bytes.try_into().expect("16 bytes")))
}

/// Splits a state record into its state and its task ids (16 bytes
/// each); `None` for a torn or corrupt one.
fn decode_record(record: &[u8]) -> Option<(TaskState, &[u8])> {
    let mut r = Reader::new(record);
    let count = r.take_varint().ok()?;
    let state = TaskState::decode(&mut r).ok()?;
    let ids = &record[record.len() - r.remaining()..];
    (Some(ids.len() as u64) == count.checked_mul(16)).then_some((state, ids))
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

/// A decoded subscription stream of one task's [`TaskState`]
/// transitions.
pub struct TaskStateStream {
    sub: Subscription,
    task: TaskId,
}

impl TaskStateStream {
    /// Blocks until the task's next transition or `timeout`; the state
    /// log's records of other tasks are passed over.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TaskState> {
        let deadline = Instant::now() + timeout;
        let id = self.task.unique().as_u128().to_le_bytes();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let (_, record) = self.sub.recv_timeout(left).ok()?;
            if let Some((state, ids)) = decode_record(&record) {
                if ids.chunks_exact(16).any(|other| other == id) {
                    return Some(state);
                }
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
    fn an_admitted_batch_is_one_append_and_reads_queued_until_a_state_record_lands() {
        let kv = KvStore::new(4);
        let table = TaskTable::new(kv.clone());
        let root = TaskId::driver_root(DriverId::from_index(0));
        let specs: Vec<TaskSpec> = (0..3)
            .map(|i| TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]))
            .collect();
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        let queued = TaskState::Queued(NodeId(1));
        let locks = kv.stats().total_locks();
        table.record_many(&specs, &queued);
        assert_eq!(kv.stats().total_locks() - locks, 1);
        assert_eq!(table.get_spec(ids[0]), Some(specs[0].clone()));
        assert_eq!(table.get_state(ids[0]), Some(queued.clone()));
        assert!(table
            .get_states_many(&ids)
            .iter()
            .all(|s| *s == Some(queued.clone())));
        // Not a state record: the explicit reads do not see it.
        assert_eq!(table.get_recorded_states_many(&ids), vec![None; 3]);
        // A later record outranks it, and a node's death repair finds
        // the tasks still queued there.
        table.set_state(ids[0], &TaskState::Running(WorkerId::new(NodeId(1), 0)));
        table.set_state(ids[1], &TaskState::Finished);
        let lost = table.lose_node(NodeId(1));
        assert_eq!(lost.len(), 2, "{lost:?}");
        let states = table.get_states_many(&ids);
        assert_eq!(states[0], Some(TaskState::Lost));
        assert_eq!(states[1], Some(TaskState::Finished));
        assert_eq!(states[2], Some(TaskState::Lost));
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
    fn a_batch_transition_is_one_append_and_folds_nothing() {
        let kv = KvStore::new(8);
        let table = TaskTable::new(kv.clone());
        let root = TaskId::driver_root(DriverId::from_index(0));
        let ids: Vec<TaskId> = (0..256).map(|i| root.child(i)).collect();
        let before = kv.stats();
        table.set_states_many(&ids, &TaskState::Queued(NodeId(0)));
        table.set_states_many(&[], &TaskState::Lost);
        let after = kv.stats();
        assert_eq!(after.total_locks() - before.total_locks(), 1);
        assert_eq!(after.total_ops() - before.total_ops(), 1);
        assert_eq!(table.states.len(), 0);
        assert_eq!(
            table.get_state(ids[255]),
            Some(TaskState::Queued(NodeId(0)))
        );
        assert_eq!(table.states.len(), 256);
    }

    #[test]
    fn the_latest_record_wins_for_a_task_written_from_two_handles() {
        let kv = KvStore::new(4);
        let (a, b) = (TaskTable::new(kv.clone()), TaskTable::new(kv));
        let s = spec();
        let unknown = s.task_id.child(1);
        a.record_many(std::slice::from_ref(&s), &TaskState::Queued(NodeId(0)));
        let steps = [
            (&b, TaskState::Running(WorkerId::new(NodeId(1), 0))),
            (&a, TaskState::Finished),
            (&b, TaskState::Lost),
        ];
        for (writer, state) in steps {
            writer.set_state(s.task_id, &state);
            for reader in [&a, &b] {
                assert_eq!(reader.get_state(s.task_id), Some(state.clone()));
                assert_eq!(
                    reader.get_recorded_states_many(&[unknown, s.task_id]),
                    [None, Some(state.clone())]
                );
            }
        }
        // Recorded again: `Submitted` is written, and wins over `Lost`.
        a.record(&s, &TaskState::Submitted);
        for reader in [&a, &b] {
            assert_eq!(reader.get_state(s.task_id), Some(TaskState::Submitted));
            assert_eq!(
                reader.get_recorded_states_many(&[s.task_id]),
                [Some(TaskState::Submitted)]
            );
        }
    }

    #[test]
    fn a_fresh_table_over_the_same_kv_converges_on_the_same_states() {
        let kv = KvStore::new(4);
        let table = TaskTable::new(kv.clone());
        let root = TaskId::driver_root(DriverId::from_index(2));
        let specs: Vec<TaskSpec> = (0..64)
            .map(|i| TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]))
            .collect();
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        table.record_many(&specs, &TaskState::Submitted);
        table.set_states_many(&ids[..48], &TaskState::Queued(NodeId(0)));
        // A read midway: the old handle's index folds in two steps.
        assert_eq!(table.get_state(ids[0]), Some(TaskState::Queued(NodeId(0))));
        let worker = WorkerId::new(NodeId(0), 1);
        table.set_states_many(&ids[..32], &TaskState::Running(worker));
        table.set_states_many(&ids[..16], &TaskState::Finished);
        table.set_state(ids[20], &TaskState::Failed("boom".into()));
        table.set_state(ids[40], &TaskState::Lost);
        let sorted = |table: &TaskTable| {
            let mut states = table.scan_states();
            states.sort_by_key(|(task, _)| *task);
            states
        };
        let fresh = TaskTable::new(kv);
        assert_eq!(sorted(&fresh), sorted(&table));
        assert_eq!(fresh.get_states_many(&ids), table.get_states_many(&ids));
        assert_eq!(
            fresh.get_state(ids[20]),
            Some(TaskState::Failed("boom".into()))
        );
        assert_eq!(
            fresh.state_census(),
            TaskCensus {
                submitted: 16,
                queued: 15,
                spilled: 0,
                running: 15,
                finished: 16,
                failed: 1,
                lost: 1,
            }
        );
    }

    #[test]
    fn a_state_subscription_misses_no_record_of_its_task_and_sees_no_other() {
        const LAST: u32 = 2_000;
        let table = TaskTable::new(KvStore::new(4));
        let root = TaskId::driver_root(DriverId::from_index(3));
        let (task, other) = (root.child(0), root.child(1));
        let writer = {
            let table = table.clone();
            std::thread::spawn(move || {
                for n in 0..=LAST {
                    let worker = WorkerId::new(NodeId(n), 0);
                    table.set_state(other, &TaskState::Running(worker));
                    table.set_states_many(&[other, task], &TaskState::Queued(NodeId(n)));
                    table.set_state(other, &TaskState::Lost);
                }
            })
        };
        // Subscribe again after every transition seen, so that many
        // subscriptions register while records land. Each stream starts
        // where its registration did, so it may replay records its
        // current state already reflects, in order, but must reach the
        // next one without a gap.
        let mut seen: Option<u32> = None;
        while seen != Some(LAST) {
            let (current, stream) = table.subscribe_state(task);
            let current = current.map(|state| match state {
                TaskState::Queued(n) => n.0,
                other => panic!("{other:?} is another task's state"),
            });
            assert!(current >= seen, "the current state went back");
            if current == Some(LAST) {
                break;
            }
            let target = current.map_or(0, |n| n + 1);
            let mut previous: Option<u32> = None;
            while previous != Some(target) {
                let next = match stream.recv_timeout(Duration::from_secs(10)) {
                    Some(TaskState::Queued(n)) => n.0,
                    other => panic!("{other:?} on the stream after {current:?}"),
                };
                assert!(
                    next <= target && previous.is_none_or(|p| next == p + 1),
                    "{next} came after {previous:?} (current {current:?}): a record was missed"
                );
                previous = Some(next);
            }
            seen = previous;
        }
        writer.join().unwrap();
    }

    #[test]
    fn losing_a_node_marks_lost_exactly_the_tasks_bound_to_it() {
        let table = TaskTable::new(KvStore::new(4));
        let (dead, alive) = (NodeId(1), NodeId(0));
        let root = TaskId::driver_root(DriverId::from_index(4));
        let specs: Vec<TaskSpec> = (0..10)
            .map(|i| {
                let mut spec = TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]);
                spec.submitter_node = if i == 8 { dead } else { alive };
                spec
            })
            .collect();
        table.record_many(&specs, &TaskState::Submitted);
        let states = [
            Some(TaskState::Queued(dead)),
            Some(TaskState::Queued(alive)),
            Some(TaskState::Running(WorkerId::new(dead, 1))),
            Some(TaskState::Running(WorkerId::new(alive, 1))),
            Some(TaskState::Spilled),
            Some(TaskState::Finished),
            Some(TaskState::Failed("boom".into())),
            Some(TaskState::Lost),
            // Submitted from the dead node, and from a live one.
            None,
            None,
        ];
        for (spec, state) in specs.iter().zip(&states) {
            if let Some(state) = state {
                table.set_state(spec.task_id, state);
            }
        }
        let records = table.kv.read_log(STATE_LOG_KEY).len();
        let mut lost = table.lose_node(dead);
        lost.sort();
        let bound = [0, 2, 8];
        let mut expected = bound.map(|i| specs[i].task_id);
        expected.sort();
        assert_eq!(lost, expected);
        assert_eq!(table.kv.read_log(STATE_LOG_KEY).len(), records + 1);
        for (i, (spec, state)) in specs.iter().zip(states).enumerate() {
            let expected = match bound.contains(&i) {
                true => TaskState::Lost,
                false => state.unwrap_or(TaskState::Submitted),
            };
            assert_eq!(table.get_state(spec.task_id), Some(expected), "task {i}");
        }
    }

    #[test]
    fn a_lost_write_marks_its_tasks_lost_until_they_are_recorded_again() {
        let table = TaskTable::new(KvStore::new(4));
        let (dead, alive) = (NodeId(1), NodeId(0));
        let root = TaskId::driver_root(DriverId::from_index(8));
        let specs: Vec<TaskSpec> = (0..4)
            .map(|i| TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]))
            .collect();
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        table.record_many(&specs, &TaskState::Queued(alive));
        table.set_state(ids[2], &TaskState::Queued(dead));
        assert_eq!(table.marked_lost(&ids), [false; 4]);
        // Each writer of `Lost` marks: one task, a batch, a node's repair.
        table.set_state(ids[0], &TaskState::Lost);
        table.set_states_many(&ids[1..2], &TaskState::Lost);
        assert_eq!(table.lose_node(dead), [ids[2]]);
        assert_eq!(table.marked_lost(&ids), [true, true, true, false]);
        // Recorded again, it is no longer lost; a later state of another
        // kind leaves the mark, which a full read tells apart.
        table.record(&specs[0], &TaskState::Submitted);
        table.set_state(ids[1], &TaskState::Finished);
        assert_eq!(table.marked_lost(&ids), [false, true, true, false]);
        // Clones share the set; the reads took no kv lock.
        let locks = table.kv.stats().total_locks();
        assert_eq!(table.clone().marked_lost(&ids[2..3]), [true]);
        assert_eq!(table.kv.stats().total_locks(), locks);
    }

    #[test]
    fn the_lost_set_follows_the_log() {
        const ROUNDS: u64 = 40;
        let table = TaskTable::new(KvStore::new(4));
        let root = TaskId::driver_root(DriverId::from_index(9));
        let specs: Vec<TaskSpec> = (0..8)
            .map(|i| TaskSpec::simple(root.child(i), FunctionId::from_name("f"), vec![]))
            .collect();
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        for round in 0..ROUNDS {
            // One thread writes `Lost` one task and a batch at a time,
            // the other records the same tasks again, in turns that
            // interleave however the threads are scheduled.
            let loser = {
                let (table, ids) = (table.clone(), ids.clone());
                std::thread::spawn(move || {
                    for i in 0..64 {
                        match (i + round) % 3 {
                            0 => table.set_states_many(&ids[..4], &TaskState::Lost),
                            1 => table.set_states_many(&ids[4..], &TaskState::Lost),
                            _ => table.set_state(ids[(i % 8) as usize], &TaskState::Lost),
                        }
                    }
                })
            };
            let recorder = {
                let (table, specs) = (table.clone(), specs.clone());
                std::thread::spawn(move || {
                    for i in 0..64 {
                        let spec = &specs[((i + round) % 8) as usize];
                        table.record(spec, &TaskState::Submitted);
                    }
                })
            };
            loser.join().unwrap();
            recorder.join().unwrap();
            let latest = TaskTable::new(table.kv.clone()).get_recorded_states_many(&ids);
            for ((task, state), marked) in ids.iter().zip(latest).zip(table.marked_lost(&ids)) {
                let lost = state == Some(TaskState::Lost);
                assert_eq!(marked, lost, "round {round}: {task} reads {state:?}");
            }
        }
    }

    #[test]
    fn an_undecodable_state_record_is_skipped_and_counted() {
        let table = TaskTable::new(KvStore::new(4));
        let task = spec().task_id;
        let id = task.unique().as_u128();
        let append = |record: Writer| {
            table
                .kv
                .append(Bytes::from_static(STATE_LOG_KEY), record.into_bytes())
        };
        table.set_state(task, &TaskState::Queued(NodeId(0)));
        let (current, stream) = table.subscribe_state(task);
        assert_eq!(current, Some(TaskState::Queued(NodeId(0))));
        // Torn: claims two ids, carries one.
        let mut torn = Writer::new();
        torn.put_varint(2);
        TaskState::Finished.encode(&mut torn);
        torn.put_u128(id);
        append(torn);
        // Corrupt: a state tag no state has.
        let mut corrupt = Writer::new();
        corrupt.put_varint(1);
        corrupt.put_u8(99);
        corrupt.put_u128(id);
        append(corrupt);
        assert_eq!(table.get_state(task), Some(TaskState::Queued(NodeId(0))));
        assert_eq!(table.states.skipped(), 2);
        table.set_state(task, &TaskState::Lost);
        assert_eq!(table.get_state(task), Some(TaskState::Lost));
        assert_eq!(table.states.skipped(), 2);
        // The stream passes over both to the good record.
        assert_eq!(
            stream.recv_timeout(Duration::from_secs(5)),
            Some(TaskState::Lost)
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
