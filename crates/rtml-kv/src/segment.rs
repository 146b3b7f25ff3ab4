//! Append-only spec segments: group-committed batches of task specs with
//! a lazily built per-task-id index.
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
//! The log is the one record of every spec. A task recorded again — a
//! resubmission with a bumped attempt counter, an unschedulable task
//! sealed as failed — is appended as a segment of its own, and the
//! latest segment holding a task wins: a lookup folds every segment
//! appended since the last one before it answers.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;
use parking_lot::Mutex;

use rtml_common::codec::{Codec, Reader, Writer};
use rtml_common::collections::FastMap;
use rtml_common::ids::{TaskId, UniqueId};
use rtml_common::task::TaskSpec;

use crate::store::KvStore;

/// The kv log key under which every spec segment is appended. The `!`
/// keeps it outside the `tstate:` point-key prefix.
pub const SEGMENT_LOG_KEY: &[u8] = b"tseg!";

fn log_key() -> Bytes {
    Bytes::from_static(SEGMENT_LOG_KEY)
}

/// Encodes a batch of specs as one immutable segment payload:
/// `varint(count)` followed by each spec's self-delimiting encoding.
pub fn encode_segment(specs: &[TaskSpec]) -> Bytes {
    let mut w = Writer::with_capacity(16 + specs.len() * 96);
    w.put_varint(specs.len() as u64);
    for spec in specs {
        spec.encode(&mut w);
    }
    w.into_bytes()
}

/// Group-commits `specs` as one segment: a single log append, hence a
/// single shard-lock acquisition, for the entire batch. The commit is
/// atomic — concurrent readers observe either the whole batch's specs or
/// none of them.
pub fn commit(kv: &KvStore, specs: &[TaskSpec]) {
    if specs.is_empty() {
        return;
    }
    kv.append(log_key(), encode_segment(specs));
}

struct IndexInner {
    /// task unique id → zero-copy slice of the owning segment payload.
    entries: FastMap<UniqueId, Bytes>,
    /// How many segment records have been folded into `entries`.
    consumed: usize,
}

/// A lazily built index from task id to its encoded spec inside the
/// segment log. Cheap to share ([`crate::TaskTable`] clones share one via
/// `Arc`) and correct to rebuild from scratch: segments are immutable and
/// append-only, so a fresh index over the same kv converges to the same
/// entries.
pub struct SegmentIndex {
    inner: Mutex<IndexInner>,
    /// `entries.len()` as of the last refresh, readable while a refresh
    /// holds the lock: a telemetry sample must not wait out a fold.
    len: AtomicUsize,
}

impl Default for SegmentIndex {
    fn default() -> Self {
        SegmentIndex {
            inner: Mutex::new(IndexInner {
                entries: FastMap::default(),
                consumed: 0,
            }),
            len: AtomicUsize::new(0),
        }
    }
}

impl SegmentIndex {
    /// Creates an empty index; entries materialize on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds any segments appended since the last refresh into the
    /// index (one kv lock; the log only grows).
    fn refresh(&self, kv: &KvStore, inner: &mut IndexInner) {
        let (records, total) = kv.read_log_range(SEGMENT_LOG_KEY, inner.consumed);
        inner.consumed = total;
        for segment in records {
            Self::fold_segment(&segment, &mut inner.entries);
        }
        self.len.store(inner.entries.len(), Relaxed);
    }

    /// Decodes one segment payload, inserting zero-copy spec slices.
    /// Segments are folded in log order, so a later segment's copy of a
    /// task replaces an earlier one.
    fn fold_segment(segment: &Bytes, entries: &mut FastMap<UniqueId, Bytes>) {
        let mut r = Reader::new(segment);
        let Ok(count) = r.take_varint() else {
            return;
        };
        for _ in 0..count {
            let before = segment.len() - r.remaining();
            let Ok(spec) = TaskSpec::decode(&mut r) else {
                // Torn or corrupt segment: drop its unread remainder
                // rather than index garbage.
                return;
            };
            let after = segment.len() - r.remaining();
            entries.insert(spec.task_id.unique(), segment.slice(before..after));
        }
    }

    /// The encoded spec for `task` in the latest segment that holds it.
    /// Folds whatever was appended since the last refresh first: a copy
    /// this index served before may have been recorded again since.
    pub fn lookup_bytes(&self, kv: &KvStore, task: TaskId) -> Option<Bytes> {
        let mut inner = self.inner.lock();
        self.refresh(kv, &mut inner);
        inner.entries.get(&task.unique()).cloned()
    }

    /// The decoded spec for `task` in the latest segment that holds it.
    pub fn lookup(&self, kv: &KvStore, task: TaskId) -> Option<TaskSpec> {
        let bytes = self.lookup_bytes(kv, task)?;
        let mut r = Reader::new(&bytes);
        TaskSpec::decode(&mut r).ok()
    }

    /// Whether any segment holds a spec for `task`. Membership never
    /// changes once true (the log only grows), so a hit reads no kv.
    pub fn contains(&self, kv: &KvStore, task: TaskId) -> bool {
        self.contains_many(kv, &[task])[0]
    }

    /// Positional membership for a batch, refreshing the index at most
    /// once, and only on a miss (the batched implicit-`Submitted` read
    /// path).
    pub fn contains_many(&self, kv: &KvStore, tasks: &[TaskId]) -> Vec<bool> {
        let mut inner = self.inner.lock();
        let mut out: Vec<bool> = tasks
            .iter()
            .map(|t| inner.entries.contains_key(&t.unique()))
            .collect();
        if out.iter().any(|hit| !hit) {
            self.refresh(kv, &mut inner);
            for (slot, task) in out.iter_mut().zip(tasks) {
                if !*slot {
                    *slot = inner.entries.contains_key(&task.unique());
                }
            }
        }
        out
    }

    /// How many tasks the index held after its last refresh; takes no
    /// lock.
    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// Every task id recorded in any segment (recovery/tooling scan).
    pub fn task_ids(&self, kv: &KvStore) -> Vec<TaskId> {
        let mut inner = self.inner.lock();
        self.refresh(kv, &mut inner);
        inner
            .entries
            .keys()
            .map(|&id| TaskId::from_unique(id))
            .collect()
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
        commit(&kv, &specs(0, 100));
        assert_eq!(kv.stats().total_locks() - before, 1);
    }

    #[test]
    fn lazy_index_returns_bit_identical_specs() {
        let kv = KvStore::new(4);
        let batch = specs(0, 16);
        commit(&kv, &batch);
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
        commit(&kv, &first);
        // A later segment re-records the same task with a bumped attempt.
        let mut bumped = first[1].clone();
        bumped.attempt += 1;
        commit(&kv, std::slice::from_ref(&bumped));
        commit(&kv, &specs(100, 4));
        // Folding all three segments resolves the duplicate to the
        // latest copy.
        let index = SegmentIndex::new();
        assert_eq!(index.lookup(&kv, bumped.task_id), Some(bumped));
        let root = TaskId::driver_root(DriverId::from_index(7));
        assert!(index.contains(&kv, root.child(103)));
        assert_eq!(index.task_ids(&kv).len(), 8);
        // An index that is already caught up folds only the new tail.
        commit(&kv, &specs(200, 2));
        assert!(index.contains(&kv, root.child(201)));
        assert_eq!(index.task_ids(&kv).len(), 10);
    }

    #[test]
    fn contains_many_is_positional_and_refreshes_once() {
        let kv = KvStore::new(4);
        let batch = specs(0, 3);
        commit(&kv, &batch);
        let index = SegmentIndex::new();
        let root = TaskId::driver_root(DriverId::from_index(7));
        let hits = index.contains_many(&kv, &[batch[2].task_id, root.child(999), batch[0].task_id]);
        assert_eq!(hits, vec![true, false, true]);
    }

    #[test]
    fn a_handle_that_served_a_spec_serves_the_copy_a_later_segment_records() {
        let kv = KvStore::new(4);
        let batch = specs(0, 4);
        commit(&kv, &batch);
        let index = SegmentIndex::new();
        assert_eq!(index.lookup(&kv, batch[2].task_id), Some(batch[2].clone()));
        // A resubmission records the task again, attempt bumped, as a
        // one-spec segment: the index that already served the first copy
        // serves the bumped one, and a fresh index agrees.
        let mut bumped = batch[2].clone();
        bumped.attempt += 1;
        commit(&kv, std::slice::from_ref(&bumped));
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
        assert_eq!(index.task_ids(&kv).len(), 4);
    }

    #[test]
    fn corrupt_segment_is_skipped() {
        let kv = KvStore::new(2);
        let mut w = Writer::with_capacity(8);
        w.put_varint(3); // claims 3 specs, carries none
        kv.append(Bytes::from_static(SEGMENT_LOG_KEY), w.into_bytes());
        let good = specs(0, 2);
        commit(&kv, &good);
        let index = SegmentIndex::new();
        assert_eq!(index.lookup(&kv, good[0].task_id), Some(good[0].clone()));
        assert_eq!(index.task_ids(&kv).len(), 2);
    }
}
