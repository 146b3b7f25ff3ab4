//! A single control-plane shard: a mutex-protected map plus subscriber
//! registry and append-only logs.
//!
//! Shards are independent; the [`crate::store::KvStore`] façade routes
//! each key to one shard by hash. All operations on one shard are
//! linearizable (they execute under the shard lock); operations on
//! different shards are concurrent — this is precisely the scaling story
//! of the paper's §3.2.1.
//!
//! A log keeps what it is given for the life of the cluster (the event
//! streams, the spec segments, the telemetry rings), so a record costs
//! its bytes and little more. A small record (≤ 1 KiB, `PACKED_MAX`) is
//! copied into its log's open block, a 16 KiB buffer; a full block is
//! sealed into one shared [`Bytes`], and the record's entry is an 8-byte
//! slot (block, offset, length). A larger record is kept whole: the
//! buffer it arrived in, uncopied. A read returns a record of
//! a sealed block as a window of it ([`Bytes::slice`]; one of up to 24
//! bytes is an inline copy) and copies only a record still in the open
//! block. A window keeps its whole block alive: a block is freed once
//! the log has dropped its last record *and* nobody holds a window of
//! it — a dropped record handed back by a capped append is such a
//! window — so a reader that keeps one record of a dropped block pins
//! 16 KiB.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use rtml_common::collections::{FastMap, FastSet};
use rtml_common::metrics::Counter;

/// What a record of a log counts for against a retention cap.
type Weight = fn(&[u8]) -> usize;

/// Records of at most this many bytes are packed: copied into their
/// log's open block. What a lone task leaves is far below it — its event
/// frames are 34–54 B, its spec segment 47 B — and each such record
/// held alone cost ≈ 155 B resident (a deque slot, an `Arc` box and its
/// own buffer). A 16-task worker batch's frame (881 B) and a telemetry
/// record (≈ 725 B) still pack. A 256-task batch's frames and segment
/// (5–12 KiB) are over it and keep the buffers they arrived in: their
/// own overhead is under 1 % of their bytes, and copying them would
/// not pay.
const PACKED_MAX: usize = 1024;

/// The size of a log's blocks. One holds ≈ 350 of a lone round trip's
/// frames, so a block's own cost (its `Arc` box and entry) is a fraction
/// of a byte a record, and a record that does not fit in the open
/// block's tail leaves less than [`PACKED_MAX`] of it unused (≤ 6 %).
/// Measured with a counting allocator (`tests/budgets.rs`), a lone
/// round trip on a 1×2 cluster retains ≈ 760 B of heap, ≈ 1 335 B when
/// every record was held alone.
const BLOCK_SIZE: usize = 16 * 1024;

// A slot's offset and length are `u16`s, and `u16::MAX` is [`WHOLE`].
const _: () = assert!(BLOCK_SIZE < u16::MAX as usize && PACKED_MAX <= BLOCK_SIZE);

/// [`Slot::start`] of a record kept whole, as it arrived.
const WHOLE: u16 = u16::MAX;

/// Where one record of a log lives: bytes `start..start + len` of packed
/// block `block`, or whole record `block` when `start` is [`WHOLE`].
#[derive(Clone, Copy)]
struct Slot {
    block: u32,
    start: u16,
    len: u16,
}

impl Slot {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// A sealed block of packed records.
struct Block {
    bytes: Bytes,
    /// Records of this block the log still holds.
    live: usize,
}

/// One append-only log: its small records packed into blocks, its large
/// ones kept whole, each indexed by a slot. A record's position is its
/// slot's index, which retention shifts as the front drops and nothing
/// else moves. Records drop oldest first, so both the sealed blocks and
/// the whole records leave from the front, in id order. Ids wrap, which
/// is harmless: far fewer than 2^32 are ever held at once.
#[derive(Default)]
struct Log {
    /// One slot per record, oldest first.
    slots: VecDeque<Slot>,
    /// Sealed blocks, oldest first: `sealed[i]` is block `first + i`.
    sealed: VecDeque<Block>,
    first: u32,
    /// The open block, block `first + sealed.len()`: its bytes so far,
    /// and how many of its records the log still holds.
    open: Vec<u8>,
    open_live: usize,
    /// Whole records, oldest first: `whole[i]` is record `first_whole + i`.
    whole: VecDeque<Bytes>,
    first_whole: u32,
    /// The records' summed weight, once a capped append has weighed
    /// them, so the cap costs O(1) a record; an unbounded append
    /// forgets it.
    weight: Option<usize>,
}

impl Log {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn open_id(&self) -> u32 {
        self.first.wrapping_add(self.sealed.len() as u32)
    }

    /// Appends `record`: packed when small, else whole (a reference, not
    /// a copy).
    fn push(&mut self, record: &Bytes) {
        let slot = if record.len() > PACKED_MAX {
            self.whole.push_back(record.clone());
            Slot {
                block: self.first_whole.wrapping_add(self.whole.len() as u32 - 1),
                start: WHOLE,
                len: 0,
            }
        } else {
            if self.open.len() + record.len() > BLOCK_SIZE {
                let bytes = Bytes::from(std::mem::take(&mut self.open));
                let live = std::mem::take(&mut self.open_live);
                self.sealed.push_back(Block { bytes, live });
            }
            // A fresh buffer after a seal; the same one, emptied, after
            // the log dropped every record of the open block.
            self.open.reserve_exact(BLOCK_SIZE - self.open.len());
            let start = self.open.len() as u16;
            self.open.extend_from_slice(record);
            self.open_live += 1;
            Slot {
                block: self.open_id(),
                start,
                len: record.len() as u16,
            }
        };
        self.slots.push_back(slot);
    }

    /// The record in `slot`: a window of its sealed block (no copy), the
    /// whole record, or a copy while its block is still open.
    fn record(&self, slot: Slot) -> Bytes {
        if slot.start == WHOLE {
            return self.whole[slot.block.wrapping_sub(self.first_whole) as usize].clone();
        }
        match self
            .sealed
            .get(slot.block.wrapping_sub(self.first) as usize)
        {
            Some(block) => block.bytes.slice(slot.range()),
            None => Bytes::copy_from_slice(&self.open[slot.range()]),
        }
    }

    /// The records from position `start` on.
    fn records(&self, start: usize) -> Vec<Bytes> {
        let start = start.min(self.len());
        self.slots.range(start..).map(|&s| self.record(s)).collect()
    }

    /// The summed `weight` of every record.
    fn weigh(&self, weight: Weight) -> usize {
        self.slots.iter().map(|&s| weight(&self.record(s))).sum()
    }

    /// Drops the oldest record and returns it. A sealed block is
    /// released with its last record; the open block, emptied, keeps its
    /// buffer for the records to come.
    fn pop_front(&mut self) -> Option<Bytes> {
        let slot = self.slots.pop_front()?;
        let record = self.record(slot);
        if slot.start == WHOLE {
            self.whole.pop_front();
            self.first_whole = self.first_whole.wrapping_add(1);
        } else if slot.block == self.open_id() {
            self.open_live -= 1;
            if self.open_live == 0 {
                self.open.clear();
            }
        } else {
            let front = self.sealed.front_mut().expect("the oldest record's block");
            front.live -= 1;
            if front.live == 0 {
                self.sealed.pop_front();
                self.first = self.first.wrapping_add(1);
            }
        }
        Some(record)
    }
}

/// Interior state of one shard.
#[derive(Default)]
struct ShardState {
    /// Point values.
    map: FastMap<Bytes, Bytes>,
    /// Append-only logs, kept separate from point values so that appends
    /// do not rewrite history. Each packs its small records into shared
    /// blocks and indexes them by slot (see [`Log`]); a bounded log drops
    /// its oldest records in O(1) a record (ring-buffer retention) and
    /// frees a block with its last record.
    logs: FastMap<Bytes, Log>,
    /// Per-key subscribers. An entry lives exactly as long as the
    /// [`Subscription`] that registered it: dropping the subscription
    /// removes it, so a shard nobody is blocked on has an empty map and
    /// writes take the no-subscriber fast path.
    subs: FastMap<Bytes, Vec<Sub>>,
}

/// One registered key of one [`Subscription`]: every key of a
/// subscription shares its one channel, and each value travels tagged
/// with the tag the key was registered under.
struct Sub {
    /// The owning [`Subscription`]'s id, for removal on drop.
    id: u64,
    tag: usize,
    tx: Sender<(usize, Bytes)>,
}

impl Sub {
    fn send(&self, value: &Bytes) {
        // A failed send means the receiver is mid-drop; its guard
        // removes the entry right after.
        drop(self.tx.send((self.tag, value.clone())));
    }
}

static NEXT_SUBSCRIPTION: AtomicU64 = AtomicU64::new(1);

/// A live subscription to any number of keys on one channel: every
/// update of a key arrives as `(the tag its key was registered under,
/// the value)`. Dereferences to the channel's [`Receiver`]; dropping it
/// unsubscribes every key it still has registered (one lock per touched
/// shard), so a finished waiter leaves nothing behind in the shard. It
/// can take more keys and give keys up while it lives
/// ([`crate::store::KvStore::subscribe_more`],
/// [`crate::store::KvStore::unsubscribe`]).
pub struct Subscription {
    rx: Receiver<(usize, Bytes)>,
    /// Handed to the shards with every key registered later.
    tx: Sender<(usize, Bytes)>,
    id: u64,
    /// The keys currently registered, by shard.
    registered: Vec<(Arc<Shard>, FastSet<Bytes>)>,
}

impl Subscription {
    /// A subscription with no key registered yet.
    pub(crate) fn new() -> Self {
        let (tx, rx) = unbounded();
        Subscription {
            rx,
            tx,
            id: NEXT_SUBSCRIPTION.fetch_add(1, Ordering::Relaxed),
            registered: Vec::new(),
        }
    }

    /// Registers every `(tag, key)` of `shard` under one lock acquisition
    /// and returns the keys' current values, in order: each read is
    /// atomic with its registration, so no write can fall between them.
    pub(crate) fn register(
        &mut self,
        shard: &Arc<Shard>,
        keys: &[(usize, Bytes)],
    ) -> Vec<Option<Bytes>> {
        let current = shard.subscribe_tagged(self.id, keys, &self.tx);
        let known = self
            .registered
            .iter()
            .position(|(s, _)| Arc::ptr_eq(s, shard));
        let at = known.unwrap_or_else(|| {
            self.registered.push((shard.clone(), FastSet::default()));
            self.registered.len() - 1
        });
        self.registered[at]
            .1
            .extend(keys.iter().map(|(_, key)| key.clone()));
        current
    }

    /// Withdraws `key` if it is registered on `shard` (one lock
    /// acquisition, none when it is not).
    pub(crate) fn untrack(&mut self, shard: &Arc<Shard>, key: &Bytes) {
        let registered = self
            .registered
            .iter_mut()
            .find(|(s, _)| Arc::ptr_eq(s, shard));
        if registered.is_some_and(|(_, keys)| keys.remove(key)) {
            shard.unsubscribe(self.id, [key]);
        }
    }
}

impl std::ops::Deref for Subscription {
    type Target = Receiver<(usize, Bytes)>;

    fn deref(&self) -> &Receiver<(usize, Bytes)> {
        &self.rx
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        for (shard, keys) in &self.registered {
            if !keys.is_empty() {
                shard.unsubscribe(self.id, keys);
            }
        }
    }
}

/// One independent shard of the control plane.
#[derive(Default)]
pub struct Shard {
    state: Mutex<ShardState>,
    /// Operations served (reads + writes), for throughput experiments.
    /// A batched call counts once per record it touches.
    pub ops: Counter,
    /// Lock acquisitions performed. The group-commit story in one
    /// number: a batched call acquires the lock once however many
    /// records it carries, so `ops / locks` is the effective commit
    /// batch size.
    pub locks: Counter,
}

impl Shard {
    /// Creates an empty shard.
    pub fn new() -> Self {
        Shard::default()
    }

    /// Point read.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.ops.inc();
        self.locks.inc();
        self.state.lock().map.get(key).cloned()
    }

    /// Point write; notifies subscribers with the new value.
    pub fn set(&self, key: Bytes, value: Bytes) {
        self.ops.inc();
        self.locks.inc();
        let mut st = self.state.lock();
        if st.subs.is_empty() {
            st.map.insert(key, value);
        } else {
            st.map.insert(key.clone(), value.clone());
            Self::notify(&mut st, &key, &value);
        }
    }

    /// Batched point reads under a single lock acquisition. Results are
    /// positional: `out[i]` corresponds to `keys[i]`.
    pub fn get_many(&self, keys: &[Bytes]) -> Vec<Option<Bytes>> {
        self.ops.add(keys.len() as u64);
        self.locks.inc();
        let st = self.state.lock();
        keys.iter().map(|k| st.map.get(k).cloned()).collect()
    }

    /// Batched read-modify-writes under a single lock acquisition. Each
    /// closure sees the current value of its key; returning `None`
    /// deletes. Semantics per entry match [`Shard::update`].
    pub fn update_many<F>(&self, entries: Vec<(Bytes, F)>)
    where
        F: FnOnce(Option<&Bytes>) -> Option<Bytes>,
    {
        if entries.is_empty() {
            return;
        }
        self.ops.add(entries.len() as u64);
        self.locks.inc();
        let mut st = self.state.lock();
        if st.subs.is_empty() {
            for (key, f) in entries {
                match f(st.map.get(&key)) {
                    Some(new) => {
                        st.map.insert(key, new);
                    }
                    None => {
                        st.map.remove(&key);
                    }
                }
            }
            return;
        }
        for (key, f) in entries {
            let current = st.map.get(&key);
            match f(current) {
                Some(new) => {
                    st.map.insert(key.clone(), new.clone());
                    Self::notify(&mut st, &key, &new);
                }
                None => {
                    st.map.remove(&key);
                }
            }
        }
    }

    /// Atomic read-modify-write. `f` maps the current value (if any) to
    /// the new value; returning `None` deletes the key. Returns the value
    /// after the update. Subscribers are notified when the value changes
    /// or is first created (deletes do not notify).
    pub fn update<F>(&self, key: Bytes, f: F) -> Option<Bytes>
    where
        F: FnOnce(Option<&Bytes>) -> Option<Bytes>,
    {
        self.ops.inc();
        self.locks.inc();
        let mut st = self.state.lock();
        let current = st.map.get(&key);
        match f(current) {
            Some(new) => {
                st.map.insert(key.clone(), new.clone());
                Self::notify(&mut st, &key, &new);
                Some(new)
            }
            None => {
                st.map.remove(&key);
                None
            }
        }
    }

    /// Deletes a key. Returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        self.ops.inc();
        self.locks.inc();
        self.state.lock().map.remove(key).is_some()
    }

    /// Appends a record to the log at `key`; notifies subscribers with the
    /// record.
    pub fn append(&self, key: Bytes, record: Bytes) {
        self.append_bounded(key, std::slice::from_ref(&record), None);
    }

    /// Group-committed, bounded log appends: all `records` land on the
    /// log at `key` (and notify) under a single lock acquisition, and
    /// the log is a ring buffer under a cap on its records' summed
    /// `weight` (a weight of 1 caps their number): the oldest records
    /// are dropped until the log weighs at most `cap`, except that the
    /// newest record is always kept. Returns the dropped records
    /// (popping is O(1) per record).
    pub fn append_many_capped(
        &self,
        key: Bytes,
        records: Vec<Bytes>,
        cap: usize,
        weight: Weight,
    ) -> Vec<Bytes> {
        self.append_bounded(key, &records, Some((cap, weight)))
    }

    fn append_bounded(
        &self,
        key: Bytes,
        records: &[Bytes],
        retention: Option<(usize, Weight)>,
    ) -> Vec<Bytes> {
        if records.is_empty() {
            return Vec::new();
        }
        self.ops.add(records.len() as u64);
        self.locks.inc();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // Subscribers hear of each record as it was handed in, before it
        // lands — nobody can tell, under one lock hold — so a record is
        // shared only when its own key has subscribers, and never copied
        // back out of a block for them.
        if let Some(subs) = (!st.subs.is_empty()).then(|| st.subs.get(&key)).flatten() {
            for record in records {
                for sub in subs {
                    sub.send(record);
                }
            }
        }
        let log = st.logs.entry(key).or_default();
        let weighed = log.weight.take();
        for record in records {
            log.push(record);
        }
        let mut dropped = Vec::new();
        if let Some((cap, weight)) = retention {
            let mut total = match weighed {
                Some(total) => total + records.iter().map(|r| weight(r)).sum::<usize>(),
                None => log.weigh(weight),
            };
            while total > cap && log.len() > 1 {
                let record = log.pop_front().expect("len checked");
                total -= weight(&record);
                dropped.push(record);
            }
            log.weight = Some(total);
        }
        // The caller's `records` outlive the guard: the buffers of the
        // packed ones are freed outside the lock.
        drop(guard);
        dropped
    }

    /// Reads the full log at `key`.
    pub fn read_log(&self, key: &[u8]) -> Vec<Bytes> {
        self.ops.inc();
        self.locks.inc();
        self.state
            .lock()
            .logs
            .get(key)
            .map(|log| log.records(0))
            .unwrap_or_default()
    }

    /// Reads the suffix of the log at `key` starting at position
    /// `start`, plus the log's total length, under one lock — the
    /// incremental-catch-up primitive for lazily built indexes over
    /// append-only logs. Positions are stable only for unbounded logs
    /// (no retention); a retention cap shifts them as the front pops.
    pub fn read_log_range(&self, key: &[u8], start: usize) -> (Vec<Bytes>, usize) {
        self.ops.inc();
        self.locks.inc();
        let st = self.state.lock();
        match st.logs.get(key) {
            Some(log) => (log.records(start), log.len()),
            None => (Vec::new(), 0),
        }
    }

    /// Registers subscription `id` on every `(tag, key)` under a single
    /// lock acquisition and returns the keys' current values, in order.
    /// Later writes to a key arrive on `tx` as `(tag, value)`. The
    /// shard half of [`Subscription::register`], which tracks the keys
    /// so that dropping the subscription undoes this.
    fn subscribe_tagged(
        &self,
        id: u64,
        keys: &[(usize, Bytes)],
        tx: &Sender<(usize, Bytes)>,
    ) -> Vec<Option<Bytes>> {
        self.ops.add(keys.len() as u64);
        self.locks.inc();
        let mut st = self.state.lock();
        keys.iter()
            .map(|(tag, key)| {
                let current = st.map.get(key).cloned();
                st.subs.entry(key.clone()).or_default().push(Sub {
                    id,
                    tag: *tag,
                    tx: tx.clone(),
                });
                current
            })
            .collect()
    }

    /// Removes subscription `id` from `keys` (one lock acquisition; no
    /// record is read or written, so it is not counted as an op).
    fn unsubscribe<'a>(&self, id: u64, keys: impl IntoIterator<Item = &'a Bytes>) {
        self.locks.inc();
        let mut st = self.state.lock();
        for key in keys {
            if let Some(subs) = st.subs.get_mut(key) {
                subs.retain(|sub| sub.id != id);
                if subs.is_empty() {
                    st.subs.remove(key);
                }
            }
        }
    }

    /// Number of live subscriber registrations (one per subscribed key
    /// per subscription). Leak detector: zero whenever nothing is
    /// blocked on this shard.
    pub fn subscriber_count(&self) -> usize {
        self.state.lock().subs.values().map(Vec::len).sum()
    }

    /// Point values whose keys start with `prefix`. Linear scan — intended
    /// for offline tooling (profilers, debuggers), not the data path.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Bytes, Bytes)> {
        self.ops.inc();
        self.locks.inc();
        self.state
            .lock()
            .map
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Logs whose keys start with `prefix`, concatenated per key.
    pub fn scan_logs_prefix(&self, prefix: &[u8]) -> Vec<(Bytes, Vec<Bytes>)> {
        self.ops.inc();
        self.locks.inc();
        self.state
            .lock()
            .logs
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, log)| (k.clone(), log.records(0)))
            .collect()
    }

    /// Number of point keys stored.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// Whether the shard holds no point keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn notify(st: &mut ShardState, key: &Bytes, value: &Bytes) {
        // Fast path: most shards have no subscribers most of the time
        // (subscriptions are per blocked `get`/resolver); skip the
        // per-write hash lookup entirely then.
        if st.subs.is_empty() {
            return;
        }
        if let Some(subs) = st.subs.get(key) {
            for sub in subs {
                sub.send(value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    fn shard() -> Arc<Shard> {
        Arc::new(Shard::new())
    }

    /// A subscription to `key` alone, registered under tag 0.
    fn subscribe(s: &Arc<Shard>, key: Bytes) -> (Option<Bytes>, Subscription) {
        let mut sub = Subscription::new();
        let current = sub.register(s, &[(0, key)]).pop().flatten();
        (current, sub)
    }

    /// The next value `sub` hears, untagged.
    fn next(sub: &Subscription) -> Bytes {
        sub.recv().unwrap().1
    }

    /// Weighs every record 1: a cap on their number.
    fn one(_: &[u8]) -> usize {
        1
    }

    /// Appends `records` to the unbounded log `log`, one at a time.
    fn append_all(s: &Shard, records: &[Bytes]) {
        for record in records {
            s.append(b("log"), record.clone());
        }
    }

    #[test]
    fn get_set_delete() {
        let s = shard();
        assert_eq!(s.get(b"k".as_ref()), None);
        s.set(b("k"), b("v"));
        assert_eq!(s.get(b"k".as_ref()), Some(b("v")));
        assert!(s.delete(b"k".as_ref()));
        assert!(!s.delete(b"k".as_ref()));
        assert_eq!(s.get(b"k".as_ref()), None);
    }

    #[test]
    fn update_read_modify_write() {
        let s = shard();
        s.set(b("n"), Bytes::from(vec![1]));
        let new = s.update(b("n"), |cur| {
            let mut v = cur.unwrap().to_vec();
            v[0] += 1;
            Some(Bytes::from(v))
        });
        assert_eq!(new, Some(Bytes::from(vec![2])));
        // Returning None deletes.
        assert_eq!(s.update(b("n"), |_| None), None);
        assert_eq!(s.get(b"n".as_ref()), None);
    }

    #[test]
    fn subscribe_sees_current_then_updates() {
        let s = shard();
        s.set(b("k"), b("v0"));
        let (cur, rx) = subscribe(&s, b("k"));
        assert_eq!(cur, Some(b("v0")));
        s.set(b("k"), b("v1"));
        s.set(b("k"), b("v2"));
        assert_eq!(next(&rx), b("v1"));
        assert_eq!(next(&rx), b("v2"));
    }

    #[test]
    fn subscribe_before_create() {
        let s = shard();
        let (cur, rx) = subscribe(&s, b("later"));
        assert_eq!(cur, None);
        s.set(b("later"), b("v"));
        assert_eq!(next(&rx), b("v"));
    }

    #[test]
    fn dropping_a_subscription_unsubscribes_without_a_write() {
        let s = shard();
        // Notified, then dropped: a sealed record is never written
        // again, so the drop itself must clean up.
        for _ in 0..1000 {
            let (_cur, sub) = subscribe(&s, b("k"));
            s.set(b("k"), b("v"));
            assert_eq!(next(&sub), b("v"));
        }
        assert!(s.state.lock().subs.is_empty());
        // Never notified at all (a `get` that timed out).
        for _ in 0..1000 {
            let (_cur, _sub) = subscribe(&s, b("never-written"));
        }
        assert!(s.state.lock().subs.is_empty());
        assert_eq!(s.subscriber_count(), 0);
    }

    #[test]
    fn dropping_one_subscription_keeps_the_keys_other_subscribers() {
        let s = shard();
        let (_cur, keep) = subscribe(&s, b("k"));
        let (_cur, gone) = subscribe(&s, b("k"));
        drop(gone);
        assert_eq!(s.subscriber_count(), 1);
        s.set(b("k"), b("v"));
        assert_eq!(next(&keep), b("v"));
    }

    #[test]
    fn tagged_subscribers_share_one_channel() {
        let s = shard();
        s.set(b("a"), b("a0"));
        let mut sub = Subscription::new();
        let current = sub.register(&s, &[(0, b("a")), (5, b("b"))]);
        assert_eq!(current, vec![Some(b("a0")), None]);
        s.set(b("b"), b("b1"));
        s.set(b("a"), b("a1"));
        assert_eq!(sub.recv().unwrap(), (5, b("b1")));
        assert_eq!(sub.recv().unwrap(), (0, b("a1")));
        drop(sub);
        assert_eq!(s.subscriber_count(), 0);
    }

    #[test]
    fn logs_append_and_read() {
        let s = shard();
        s.append(b("log"), b("r1"));
        s.append(b("log"), b("r2"));
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("r1"), b("r2")]);
        assert_eq!(s.read_log(b"other".as_ref()), Vec::<Bytes>::new());
    }

    #[test]
    fn log_appends_notify_subscribers() {
        let s = shard();
        let (_cur, rx) = subscribe(&s, b("log"));
        s.append(b("log"), b("rec"));
        assert_eq!(next(&rx), b("rec"));
    }

    #[test]
    fn scan_prefix_filters() {
        let s = shard();
        s.set(b("a:1"), b("x"));
        s.set(b("a:2"), b("y"));
        s.set(b("b:1"), b("z"));
        let mut hits = s.scan_prefix(b"a:");
        hits.sort();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].1, b("x"));
    }

    #[test]
    fn get_many_is_positional() {
        let s = shard();
        s.set(b("a"), b("1"));
        s.set(b("c"), b("3"));
        let got = s.get_many(&[b("a"), b("b"), b("c")]);
        assert_eq!(got, vec![Some(b("1")), None, Some(b("3"))]);
    }

    #[test]
    fn update_many_applies_per_key() {
        let s = shard();
        s.set(b("n"), Bytes::from(vec![1]));
        let bump: fn(Option<&Bytes>) -> Option<Bytes> = |cur| {
            let mut v = cur.map(|b| b.to_vec()).unwrap_or_else(|| vec![8]);
            v[0] += 1;
            Some(Bytes::from(v))
        };
        s.update_many(vec![(b("n"), bump), (b("m"), bump)]);
        assert_eq!(s.get(b"n".as_ref()), Some(Bytes::from(vec![2])));
        assert_eq!(s.get(b"m".as_ref()), Some(Bytes::from(vec![9])));
    }

    #[test]
    fn append_many_is_ordered_and_notifies() {
        let s = shard();
        let (_cur, rx) = subscribe(&s, b("log"));
        let dropped = s.append_many_capped(b("log"), vec![b("r1"), b("r2"), b("r3")], 3, one);
        assert!(dropped.is_empty());
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("r1"), b("r2"), b("r3")]);
        assert_eq!(next(&rx), b("r1"));
        assert_eq!(next(&rx), b("r2"));
    }

    #[test]
    fn bounded_append_drops_oldest() {
        let s = shard();
        s.append_many_capped(b("log"), vec![b("r1"), b("r2")], 4, one);
        let dropped = s.append_many_capped(b("log"), vec![b("r3"), b("r4"), b("r5")], 4, one);
        assert_eq!(dropped, vec![b("r1")]);
        assert_eq!(
            s.read_log(b"log".as_ref()),
            vec![b("r2"), b("r3"), b("r4"), b("r5")]
        );
    }

    #[test]
    fn a_capped_append_bounds_the_summed_weight_and_keeps_the_newest() {
        let s = shard();
        // Each record weighs its length.
        let len = |r: &[u8]| r.len();
        s.append_many_capped(b("log"), vec![b("a"), b("bb")], 4, len);
        let dropped = s.append_many_capped(b("log"), vec![b("ccc")], 4, len);
        assert_eq!(dropped, vec![b("a"), b("bb")]);
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("ccc")]);
        // A record heavier than the cap alone is kept: it is the newest.
        let dropped = s.append_many_capped(b("log"), vec![b("ddddd")], 4, len);
        assert_eq!(dropped, vec![b("ccc")]);
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("ddddd")]);
        let dropped = s.append_many_capped(b("log"), vec![b("e"), b("f")], 4, len);
        assert_eq!(dropped, vec![b("ddddd")]);
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("e"), b("f")]);
        // A record appended unbounded still counts at the next cap.
        s.append(b("log"), b("ggg"));
        let dropped = s.append_many_capped(b("log"), vec![b("h")], 4, len);
        assert_eq!(dropped, vec![b("e"), b("f")]);
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("ggg"), b("h")]);
    }

    /// `n` distinct records of `len` bytes each (`len` ≥ 6).
    fn numbered(n: usize, len: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(format!("{i:0len$}").into_bytes()))
            .collect()
    }

    /// How many 46-byte records one block holds.
    const PER_BLOCK: usize = BLOCK_SIZE / 46;

    #[test]
    fn a_sealed_blocks_record_is_a_window_of_one_shared_buffer() {
        let s = shard();
        let records = numbered(PER_BLOCK + 10, 46);
        append_all(&s, &records);
        let (first, second) = (s.read_log(b"log".as_ref()), s.read_log(b"log".as_ref()));
        assert_eq!(first, records);
        assert_eq!(second, records);
        // Both reads of a sealed record are windows of the same buffer,
        // and so are its neighbours.
        assert_eq!(first[0].as_ptr(), second[0].as_ptr());
        assert_eq!(first[1].as_ptr(), first[0].as_ptr().wrapping_add(46));
        // The newest record is still in the open block: each read copies.
        assert_ne!(
            first[PER_BLOCK + 9].as_ptr(),
            second[PER_BLOCK + 9].as_ptr()
        );
    }

    #[test]
    fn read_log_range_positions_hold_across_a_block_seal() {
        let s = shard();
        let records = numbered(PER_BLOCK + 50, 46);
        let open = PER_BLOCK - 10;
        append_all(&s, &records[..open]);
        let (tail, total) = s.read_log_range(b"log".as_ref(), open - 5);
        assert_eq!((tail, total), (records[open - 5..open].to_vec(), open));
        // This append seals the first block and opens a second.
        append_all(&s, &records[open..]);
        let (tail, total) = s.read_log_range(b"log".as_ref(), open - 5);
        assert_eq!((tail, total), (records[open - 5..].to_vec(), records.len()));
        assert_eq!(s.read_log_range(b"log".as_ref(), 0).0, records);
        let past_the_end = s.read_log_range(b"log".as_ref(), records.len() + 1);
        assert_eq!(past_the_end, (Vec::new(), records.len()));
    }

    #[test]
    fn a_capped_log_returns_exactly_what_it_drops_and_frees_a_block_with_its_last_record() {
        let s = shard();
        let records = numbered(3 * PER_BLOCK, 46);
        let first_block = |s: &Shard| s.state.lock().logs[b"log".as_ref()].first;
        let mut dropped = Vec::new();
        let mut appended = 0;
        for chunk in records.chunks(50) {
            dropped.extend(s.append_many_capped(b("log"), chunk.to_vec(), 100, one));
            appended += chunk.len();
            assert_eq!(dropped, records[..appended.saturating_sub(100)]);
            assert_eq!(
                s.read_log(b"log".as_ref()),
                records[dropped.len()..appended]
            );
            // A block goes with its last record, not before.
            let freed = dropped.len() / PER_BLOCK;
            assert_eq!(first_block(&s) as usize, freed, "{} dropped", dropped.len());
        }
        assert_eq!(dropped.len(), 3 * PER_BLOCK - 100);
        // A dropped record still reads as it was: its window holds the
        // buffer of a block the log has let go.
        assert_eq!(dropped[0], records[0]);
    }

    #[test]
    fn a_record_over_the_cut_off_comes_back_as_the_buffer_appended() {
        let s = shard();
        let big = Bytes::from(vec![7u8; PACKED_MAX + 1]);
        let edge = Bytes::from(vec![8u8; PACKED_MAX]);
        append_all(&s, &[b("before"), big.clone(), edge.clone()]);
        let log = s.read_log(b"log".as_ref());
        assert_eq!(log, vec![b("before"), big.clone(), edge.clone()]);
        assert_eq!(log[1].as_ptr(), big.as_ptr());
        // A record at the cut-off is packed: a copy.
        assert_ne!(log[2].as_ptr(), edge.as_ptr());
    }

    #[test]
    fn packed_and_whole_records_interleave_and_drop_in_order() {
        let s = shard();
        let records: Vec<Bytes> = numbered(2 * PER_BLOCK, 46)
            .into_iter()
            .enumerate()
            .map(|(i, r)| match i % 7 {
                3 => Bytes::from(vec![i as u8; PACKED_MAX + 1 + i]),
                _ => r,
            })
            .collect();
        let mut dropped = Vec::new();
        for (i, record) in records.iter().enumerate() {
            dropped.extend(s.append_many_capped(b("log"), vec![record.clone()], 30, one));
            let kept = (i + 1).saturating_sub(30);
            assert_eq!(dropped, records[..kept]);
            assert_eq!(s.read_log(b"log".as_ref()), records[kept..=i]);
        }
        // Only what holds the last 30 records is left: at most one
        // sealed block beside the open one, and 5 whole records.
        let st = s.state.lock();
        let log = &st.logs[b"log".as_ref()];
        assert!(log.sealed.len() <= 1, "{} sealed blocks", log.sealed.len());
        assert!(log.whole.len() <= 5, "{} whole records", log.whole.len());
    }

    #[test]
    fn small_records_cost_their_bytes_and_a_slot_each() {
        const RECORDS: usize = 100_000;
        const LEN: usize = 46;
        let s = shard();
        append_all(&s, &numbered(RECORDS, LEN));
        let st = s.state.lock();
        let log = &st.logs[b"log".as_ref()];
        assert_eq!(log.len(), RECORDS);
        // Every block, sealed ones too, is allocated `BLOCK_SIZE` long
        // and never grows.
        assert_eq!(log.open.capacity(), BLOCK_SIZE);
        let footprint = log.slots.capacity() * std::mem::size_of::<Slot>()
            + log.sealed.capacity() * std::mem::size_of::<Block>()
            + log.sealed.len() * BLOCK_SIZE
            + log.open.capacity();
        assert!(
            footprint <= RECORDS * (LEN + 16) + BLOCK_SIZE,
            "{footprint} B for {RECORDS} records of {LEN} B"
        );
    }

    #[test]
    fn ops_counter_increments() {
        let s = shard();
        let before = s.ops.get();
        s.set(b("k"), b("v"));
        s.get(b"k".as_ref());
        assert!(s.ops.get() >= before + 2);
    }
}
