//! Append-only spec segments: group-committed batches of task specs —
//! and the lazily folded index over an append-only log that they share
//! with the task table's state log.
//!
//! The submit hot path used to pay one kv point-insert per spec (~0.3–0.6
//! µs each — the dominant ingest cost at batch 4096). A *segment* instead
//! commits the whole encoded batch as one immutable record appended to a
//! single kv log: one shard-lock acquisition per batch, all-or-nothing by
//! construction (the append happens entirely inside one lock hold). The
//! per-task-id index over segment contents is built lazily — on the
//! first read that needs a spec, or on a recovery scan — so ingest pays
//! nothing for it.
//!
//! A segment may also carry the state its tasks were admitted with — a
//! batch its submitter admitted on its own thread is `Queued(node)` as
//! it becomes durable — so the spec and that first transition are one
//! append. It is the tasks' state only until the task table's state log
//! holds a record for them (see [`crate::TaskTable::record_many`]).
//!
//! The log is the one record of every spec. A task recorded again — a
//! resubmission with a bumped attempt counter, an unschedulable task
//! sealed as failed — is appended as a segment of its own, and the
//! latest segment holding a task wins: a lookup folds every segment
//! appended since the last one before it answers.
//!
//! [`LogIndex`] is that fold, over any log whose records name tasks: it
//! reads the records appended since it last looked
//! ([`KvStore::read_log_range`]) and folds them in, in log order, so the
//! latest record of a task wins. What it keeps of a record is its
//! [`Fold`]'s choice: [`Specs`] here, the task table's states there.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;
use parking_lot::Mutex;

use rtml_common::codec::{Codec, Reader, Writer};
use rtml_common::collections::IdMap;
use rtml_common::ids::{TaskId, UniqueId};
use rtml_common::task::{TaskSpec, TaskState};

use crate::store::KvStore;

/// The kv log key under which every spec segment is appended.
pub const SEGMENT_LOG_KEY: &[u8] = b"tseg!";

fn log_key() -> Bytes {
    Bytes::from_static(SEGMENT_LOG_KEY)
}

/// Encodes a batch of specs as one immutable segment payload:
/// `varint(count)` followed by each spec's self-delimiting encoding,
/// then the state the tasks were admitted with, if any.
pub fn encode_segment(specs: &[TaskSpec], admitted: Option<&TaskState>) -> Bytes {
    let mut w = Writer::with_capacity(16 + specs.len() * 96);
    w.put_varint(specs.len() as u64);
    for spec in specs {
        spec.encode(&mut w);
    }
    if let Some(state) = admitted {
        state.encode(&mut w);
    }
    w.into_bytes()
}

/// Group-commits `specs` as one segment, with the state they were
/// `admitted` with: a single log append, hence a single shard-lock
/// acquisition, for the entire batch. The commit is atomic — concurrent
/// readers observe either the whole batch's specs or none of them.
pub fn commit(kv: &KvStore, specs: &[TaskSpec], admitted: Option<&TaskState>) {
    if specs.is_empty() {
        return;
    }
    kv.append(log_key(), encode_segment(specs, admitted));
}

/// What a [`LogIndex`] keeps of the records of one append-only log.
pub trait Fold: Default {
    /// The kv log the records are appended to.
    const KEY: &'static [u8];

    /// Folds in one record, after every record before it. `false`: the
    /// record is torn or corrupt and was skipped from the tear on.
    fn fold(&mut self, record: &Bytes) -> bool;

    /// How many tasks the fold holds an entry for.
    fn entries(&self) -> usize;
}

struct Folded<F> {
    fold: F,
    /// How many records of the log have been folded into `fold`.
    consumed: usize,
}

/// A lazily folded index over the append-only log [`Fold::KEY`]. Cheap
/// to share ([`crate::TaskTable`] clones share theirs via `Arc`) and
/// correct to rebuild from scratch: records are immutable and
/// append-only, so a fresh index over the same kv converges to the same
/// entries.
pub struct LogIndex<F> {
    inner: Mutex<Folded<F>>,
    /// The fold's `len()` as of the last refresh, readable while a
    /// refresh holds the lock: a telemetry sample must not wait out a
    /// fold.
    len: AtomicUsize,
    /// Records skipped as torn or corrupt.
    skipped: AtomicUsize,
}

impl<F: Fold> Default for LogIndex<F> {
    fn default() -> Self {
        LogIndex {
            inner: Mutex::new(Folded {
                fold: F::default(),
                consumed: 0,
            }),
            len: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
        }
    }
}

impl<F: Fold> LogIndex<F> {
    /// Creates an empty index; entries materialize on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds any records appended since the last refresh into the index
    /// (one kv lock; the log only grows).
    fn refresh(&self, kv: &KvStore, inner: &mut Folded<F>) {
        let (records, total) = kv.read_log_range(F::KEY, inner.consumed);
        inner.consumed = total;
        for record in &records {
            if !inner.fold.fold(record) {
                self.skipped.fetch_add(1, Relaxed);
            }
        }
        self.len.store(inner.fold.entries(), Relaxed);
    }

    /// Runs `read` on the index once it has folded every record appended
    /// so far.
    pub fn read<R>(&self, kv: &KvStore, read: impl FnOnce(&F) -> R) -> R {
        let mut inner = self.inner.lock();
        self.refresh(kv, &mut inner);
        read(&inner.fold)
    }

    /// How many tasks the index held after its last refresh; takes no
    /// lock.
    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// Whether the index held no task after its last refresh.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many records were skipped as torn or corrupt.
    pub fn skipped(&self) -> usize {
        self.skipped.load(Relaxed)
    }
}

/// The spec-segment fold: task unique id → a zero-copy slice of the
/// latest segment payload that holds its spec, and the state that
/// segment admitted it with, if it carried one.
#[derive(Default)]
pub struct Specs {
    specs: IdMap<UniqueId, Bytes>,
    admitted: IdMap<UniqueId, TaskState>,
}

impl Specs {
    /// The state `task`'s latest segment gives it: the state it was
    /// admitted with, else `Submitted`; `None` if no segment holds it.
    fn state(&self, task: TaskId) -> Option<TaskState> {
        let id = task.unique();
        let admitted = || self.admitted.get(&id).cloned();
        self.specs
            .contains_key(&id)
            .then(|| admitted().unwrap_or(TaskState::Submitted))
    }
}

impl Fold for Specs {
    const KEY: &'static [u8] = SEGMENT_LOG_KEY;

    /// Decodes one segment payload, inserting zero-copy spec slices.
    /// Segments are folded in log order, so a later segment's copy of a
    /// task replaces an earlier one, and its admitted state (or the lack
    /// of one) the earlier one's.
    fn fold(&mut self, segment: &Bytes) -> bool {
        let mut r = Reader::new(segment);
        let Ok(count) = r.take_varint() else {
            return false;
        };
        let mut ids = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let before = segment.len() - r.remaining();
            let Ok(spec) = TaskSpec::decode(&mut r) else {
                // Torn or corrupt segment: drop its unread remainder
                // rather than index garbage.
                return false;
            };
            let after = segment.len() - r.remaining();
            let id = spec.task_id.unique();
            self.specs.insert(id, segment.slice(before..after));
            ids.push(id);
        }
        let admitted = match r.remaining() {
            0 => None,
            _ => match TaskState::decode(&mut r) {
                Ok(state) if r.remaining() == 0 => Some(state),
                _ => return false,
            },
        };
        for id in ids {
            match &admitted {
                Some(state) => self.admitted.insert(id, state.clone()),
                None => self.admitted.remove(&id),
            };
        }
        true
    }

    fn entries(&self) -> usize {
        self.specs.len()
    }
}

/// The index over the spec segments.
pub type SegmentIndex = LogIndex<Specs>;

impl LogIndex<Specs> {
    /// The encoded spec for `task` in the latest segment that holds it.
    /// Folds whatever was appended since the last refresh first: a copy
    /// this index served before may have been recorded again since.
    pub fn lookup_bytes(&self, kv: &KvStore, task: TaskId) -> Option<Bytes> {
        self.read(kv, |specs| specs.specs.get(&task.unique()).cloned())
    }

    /// The decoded spec for `task` in the latest segment that holds it.
    pub fn lookup(&self, kv: &KvStore, task: TaskId) -> Option<TaskSpec> {
        let bytes = self.lookup_bytes(kv, task)?;
        let mut r = Reader::new(&bytes);
        TaskSpec::decode(&mut r).ok()
    }

    /// Positional: the state each task's latest segment gives it (its
    /// admitted state, else `Submitted`), `None` where no segment holds
    /// it. Refreshes the index at most once, and only on a miss: a
    /// task's segment state changes only when it is recorded again,
    /// which writes it a state record that outranks the segment's.
    pub fn states_many(&self, kv: &KvStore, tasks: &[TaskId]) -> Vec<Option<TaskState>> {
        let mut inner = self.inner.lock();
        let mut out: Vec<Option<TaskState>> = tasks.iter().map(|&t| inner.fold.state(t)).collect();
        if out.iter().any(Option::is_none) {
            self.refresh(kv, &mut inner);
            for (slot, &task) in out.iter_mut().zip(tasks) {
                if slot.is_none() {
                    *slot = inner.fold.state(task);
                }
            }
        }
        out
    }

    /// Every task recorded in any segment, with the state its latest
    /// segment gives it (recovery/tooling scan).
    pub fn states(&self, kv: &KvStore) -> Vec<(TaskId, TaskState)> {
        self.read(kv, |specs| {
            let task = |&id: &UniqueId| TaskId::from_unique(id);
            let state = |t: TaskId| specs.state(t).expect("a task the fold holds");
            specs
                .specs
                .keys()
                .map(task)
                .map(|t| (t, state(t)))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::codec::encode_to_bytes;
    use rtml_common::ids::{DriverId, FunctionId};

    fn specs(base: u64, n: u64) -> Vec<TaskSpec> {
        let root = TaskId::driver_root(DriverId::from_index(7));
        (0..n)
            .map(|i| TaskSpec::simple(root.child(base + i), FunctionId::from_name("f"), vec![]))
            .collect()
    }

    #[test]
    fn commit_is_one_lock_per_batch() {
        let kv = KvStore::new(4);
        let before = kv.stats().total_locks();
        commit(&kv, &specs(0, 100), None);
        assert_eq!(kv.stats().total_locks() - before, 1);
    }

    #[test]
    fn lazy_index_returns_bit_identical_specs() {
        let kv = KvStore::new(4);
        let batch = specs(0, 16);
        commit(&kv, &batch, None);
        let index = SegmentIndex::new();
        for spec in &batch {
            assert_eq!(
                index.lookup_bytes(&kv, spec.task_id),
                Some(encode_to_bytes(spec))
            );
            assert_eq!(index.lookup(&kv, spec.task_id), Some(spec.clone()));
        }
        let root = TaskId::driver_root(DriverId::from_index(7));
        assert_eq!(index.lookup(&kv, root.child(999)), None);
    }

    #[test]
    fn index_catches_up_across_segments_and_prefers_latest() {
        let kv = KvStore::new(4);
        let first = specs(0, 4);
        commit(&kv, &first, None);
        // A later segment re-records the same task with a bumped attempt.
        let mut bumped = first[1].clone();
        bumped.attempt += 1;
        commit(&kv, std::slice::from_ref(&bumped), None);
        commit(&kv, &specs(100, 4), None);
        // Folding all three segments resolves the duplicate to the
        // latest copy.
        let index = SegmentIndex::new();
        assert_eq!(index.lookup(&kv, bumped.task_id), Some(bumped));
        let root = TaskId::driver_root(DriverId::from_index(7));
        assert!(index.states_many(&kv, &[root.child(103)])[0].is_some());
        assert_eq!(index.states(&kv).len(), 8);
        // An index that is already caught up folds only the new tail.
        commit(&kv, &specs(200, 2), None);
        assert!(index.states_many(&kv, &[root.child(201)])[0].is_some());
        assert_eq!(index.states(&kv).len(), 10);
    }

    #[test]
    fn states_many_is_positional_and_refreshes_once() {
        let kv = KvStore::new(4);
        let batch = specs(0, 3);
        commit(&kv, &batch, None);
        let index = SegmentIndex::new();
        let root = TaskId::driver_root(DriverId::from_index(7));
        let locks = kv.stats().total_locks();
        let tasks = [batch[2].task_id, root.child(999), batch[0].task_id];
        let states = index.states_many(&kv, &tasks);
        let submitted = Some(TaskState::Submitted);
        assert_eq!(states, vec![submitted.clone(), None, submitted]);
        assert_eq!(kv.stats().total_locks() - locks, 1);
    }

    #[test]
    fn a_segment_carries_its_admitted_state_until_the_task_is_recorded_again() {
        let kv = KvStore::new(4);
        let batch = specs(0, 2);
        let queued = TaskState::Queued(rtml_common::ids::NodeId(3));
        let locks = kv.stats().total_locks();
        commit(&kv, &batch, Some(&queued));
        assert_eq!(kv.stats().total_locks() - locks, 1);
        let index = SegmentIndex::new();
        let ids = [batch[0].task_id, batch[1].task_id];
        let states = index.states_many(&kv, &ids);
        assert_eq!(states, vec![Some(queued.clone()), Some(queued.clone())]);
        assert_eq!(index.lookup(&kv, ids[1]), Some(batch[1].clone()));
        // A copy recorded again in a plain segment is `Submitted` there;
        // its batch-mate keeps the admitted state.
        let mut bumped = batch[0].clone();
        bumped.attempt += 1;
        commit(&kv, std::slice::from_ref(&bumped), None);
        let states = SegmentIndex::new().states(&kv);
        let of = |task| {
            states
                .iter()
                .find(|(t, _)| *t == task)
                .map(|(_, s)| s.clone())
        };
        assert_eq!(of(ids[0]), Some(TaskState::Submitted));
        assert_eq!(of(ids[1]), Some(queued));
    }

    #[test]
    fn a_handle_that_served_a_spec_serves_the_copy_a_later_segment_records() {
        let kv = KvStore::new(4);
        let batch = specs(0, 4);
        commit(&kv, &batch, None);
        let index = SegmentIndex::new();
        assert_eq!(index.lookup(&kv, batch[2].task_id), Some(batch[2].clone()));
        // A resubmission records the task again, attempt bumped, as a
        // one-spec segment: the index that already served the first copy
        // serves the bumped one, and a fresh index agrees.
        let mut bumped = batch[2].clone();
        bumped.attempt += 1;
        commit(&kv, std::slice::from_ref(&bumped), None);
        assert_eq!(index.lookup(&kv, bumped.task_id), Some(bumped.clone()));
        assert_eq!(
            index.lookup_bytes(&kv, bumped.task_id),
            Some(encode_to_bytes(&bumped))
        );
        assert_eq!(
            SegmentIndex::new().lookup(&kv, bumped.task_id),
            Some(bumped)
        );
        // The rest of the first segment is untouched.
        assert_eq!(index.lookup(&kv, batch[1].task_id), Some(batch[1].clone()));
        assert_eq!(index.states(&kv).len(), 4);
    }

    #[test]
    fn corrupt_segment_is_skipped() {
        let kv = KvStore::new(2);
        let mut w = Writer::with_capacity(8);
        w.put_varint(3); // claims 3 specs, carries none
        kv.append(Bytes::from_static(SEGMENT_LOG_KEY), w.into_bytes());
        let good = specs(0, 2);
        commit(&kv, &good, None);
        let index = SegmentIndex::new();
        assert_eq!(index.lookup(&kv, good[0].task_id), Some(good[0].clone()));
        assert_eq!(index.states(&kv).len(), 2);
        assert_eq!(index.skipped(), 1);
    }
}
