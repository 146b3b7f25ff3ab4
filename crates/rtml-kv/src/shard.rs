//! A single control-plane shard: a mutex-protected map plus subscriber
//! registry and append-only logs.
//!
//! Shards are independent; the [`crate::store::KvStore`] façade routes
//! each key to one shard by hash. All operations on one shard are
//! linearizable (they execute under the shard lock); operations on
//! different shards are concurrent — this is precisely the scaling story
//! of the paper's §3.2.1.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use rtml_common::metrics::Counter;

/// FNV-1a/64 over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`]). Shared by shard-interior maps and the façade's
/// shard routing so the two can never drift apart. Control-plane keys
/// are fixed-format identifiers (mostly already-hashed 128-bit ids),
/// not attacker-chosen strings, so trading SipHash's flood resistance
/// for speed is safe here — and every point operation pays this hash
/// several times (routing + map + subscriber lookup), putting it on
/// the submit hot path.
pub(crate) fn fnv1a_64(state: u64, bytes: &[u8]) -> u64 {
    // Folds 8 bytes per multiply instead of the textbook 1: control-plane
    // keys are `prefix + 128-bit already-hashed id`, so every chunk is
    // high-entropy and one multiply mixes plenty for bucket selection —
    // while the hash stays ~8x cheaper on the 22-byte hot-path keys.
    let mut state = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        state ^= u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a/64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_64(self.0, bytes);
    }
}

#[derive(Clone, Default)]
struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

type FnvMap<V> = HashMap<Bytes, V, FnvBuild>;

/// What a record of a log counts for against a retention cap.
type Weight = fn(&[u8]) -> usize;

/// Interior state of one shard.
#[derive(Default)]
struct ShardState {
    /// Point values.
    map: FnvMap<Bytes>,
    /// Append-only logs, kept separate from point values so that appends
    /// do not rewrite history. Stored as deques so a bounded log can
    /// drop its oldest records in O(1) (ring-buffer retention).
    logs: FnvMap<VecDeque<Bytes>>,
    /// The summed weights of the logs appended under a retention cap,
    /// kept beside them so the cap costs O(1) a record.
    log_weights: FnvMap<usize>,
    /// Per-key subscribers. An entry lives exactly as long as the
    /// [`Subscription`] that registered it: dropping the subscription
    /// removes it, so a shard nobody is blocked on has an empty map and
    /// writes take the no-subscriber fast path.
    subs: FnvMap<Vec<Sub>>,
}

/// One registered subscriber of one key.
struct Sub {
    /// The owning [`Subscription`]'s id, for removal on drop.
    id: u64,
    tx: SubTx,
}

/// Where a subscriber's notifications go.
enum SubTx {
    /// Single-key subscription: the bare value.
    Plain(Sender<Bytes>),
    /// One key of a multi-key subscription: all of its keys share one
    /// channel, and each value travels tagged with its key's position
    /// in the subscribe call.
    Tagged(usize, Sender<(usize, Bytes)>),
}

impl SubTx {
    fn send(&self, value: &Bytes) {
        // A failed send means the receiver is mid-drop; its guard
        // removes the entry right after.
        match self {
            SubTx::Plain(tx) => drop(tx.send(value.clone())),
            SubTx::Tagged(tag, tx) => drop(tx.send((*tag, value.clone()))),
        }
    }
}

static NEXT_SUBSCRIPTION: AtomicU64 = AtomicU64::new(1);

/// A live subscription: the update channel plus the registration it
/// stands for. Dereferences to the channel's [`Receiver`]; dropping it
/// unsubscribes every key it still has registered (one lock per touched
/// shard), so a finished waiter leaves nothing behind in the shard.
///
/// `T` is [`Bytes`] for a single-key subscription and `(usize, Bytes)` —
/// the tag its key was registered under, then the value — for a
/// multi-key one ([`crate::store::KvStore::subscribe_many`]), which can
/// take more keys and give keys up while it lives
/// ([`crate::store::KvStore::subscribe_more`],
/// [`crate::store::KvStore::unsubscribe`]).
pub struct Subscription<T = Bytes> {
    rx: Receiver<T>,
    /// Handed to the shards with every key registered later.
    pub(crate) tx: Sender<T>,
    id: u64,
    /// The keys currently registered, by shard.
    registered: Vec<(Arc<Shard>, HashSet<Bytes, FnvBuild>)>,
}

impl<T> Subscription<T> {
    pub(crate) fn new(tx: Sender<T>, rx: Receiver<T>) -> Self {
        Subscription {
            rx,
            tx,
            id: NEXT_SUBSCRIPTION.fetch_add(1, Ordering::Relaxed),
            registered: Vec::new(),
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Records that `keys` were registered on `shard` under this
    /// subscription's id.
    pub(crate) fn track(&mut self, shard: &Arc<Shard>, keys: impl IntoIterator<Item = Bytes>) {
        let known = self
            .registered
            .iter()
            .position(|(s, _)| Arc::ptr_eq(s, shard));
        let at = known.unwrap_or_else(|| {
            self.registered.push((shard.clone(), HashSet::default()));
            self.registered.len() - 1
        });
        self.registered[at].1.extend(keys);
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

impl<T> std::ops::Deref for Subscription<T> {
    type Target = Receiver<T>;

    fn deref(&self) -> &Receiver<T> {
        &self.rx
    }
}

impl<T> Drop for Subscription<T> {
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

    /// Group-committed point writes: all entries land (and notify) under
    /// a single lock acquisition. The batch is one linearization point —
    /// readers observe either none or all of it per shard.
    pub fn set_many(&self, entries: Vec<(Bytes, Bytes)>) {
        if entries.is_empty() {
            return;
        }
        self.ops.add(entries.len() as u64);
        self.locks.inc();
        let mut st = self.state.lock();
        // Pre-size for the whole batch: without this a large group commit
        // triggers a rehash-doubling series under the shard lock, which
        // profiling showed dominating the submit hot path.
        st.map.reserve(entries.len());
        if st.subs.is_empty() {
            // No subscriber anywhere on this shard: insert by move — no
            // per-entry refcount traffic, no subscriber lookups. This is
            // the common case for the submit hot path (subscriptions are
            // per blocked `get`/resolver, not per write).
            for (key, value) in entries {
                st.map.insert(key, value);
            }
        } else {
            for (key, value) in entries {
                st.map.insert(key.clone(), value.clone());
                Self::notify(&mut st, &key, &value);
            }
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

    /// Writes only if the key is vacant. Returns whether the write
    /// happened.
    pub fn set_if_absent(&self, key: Bytes, value: Bytes) -> bool {
        self.ops.inc();
        self.locks.inc();
        let mut st = self.state.lock();
        if st.map.contains_key(&key) {
            return false;
        }
        st.map.insert(key.clone(), value.clone());
        Self::notify(&mut st, &key, &value);
        true
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
        self.append_many(key, vec![record], None);
    }

    /// Group-committed log appends: all `records` land on the log at
    /// `key` (and notify) under a single lock acquisition. When
    /// `retention` is set the log behaves as a ring buffer bounded to
    /// that many records; the records dropped from the front to enforce
    /// the cap are returned (popping is O(1) per record).
    pub fn append_many(
        &self,
        key: Bytes,
        records: Vec<Bytes>,
        retention: Option<usize>,
    ) -> Vec<Bytes> {
        fn one(_: &[u8]) -> usize {
            1
        }
        let cap = retention.map(|cap| (cap, one as Weight));
        self.append_bounded(key, records, cap)
    }

    /// [`Shard::append_many`] under a cap on the records' summed
    /// `weight` rather than their number: the oldest records are dropped
    /// until the log weighs at most `cap`, except that the newest record
    /// is always kept. Returns the dropped records.
    pub fn append_many_capped(
        &self,
        key: Bytes,
        records: Vec<Bytes>,
        cap: usize,
        weight: Weight,
    ) -> Vec<Bytes> {
        self.append_bounded(key, records, Some((cap, weight)))
    }

    fn append_bounded(
        &self,
        key: Bytes,
        records: Vec<Bytes>,
        retention: Option<(usize, Weight)>,
    ) -> Vec<Bytes> {
        if records.is_empty() {
            return Vec::new();
        }
        self.ops.add(records.len() as u64);
        self.locks.inc();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // Most shards have no subscribers: the records then move into
        // the log uncloned.
        let notified = if st.subs.is_empty() {
            Vec::new()
        } else {
            records.clone()
        };
        let log = st.logs.entry(key.clone()).or_default();
        let mut dropped = Vec::new();
        if let Some((cap, weight)) = retention {
            let total = st
                .log_weights
                .entry(key.clone())
                .or_insert_with(|| log.iter().map(|r| weight(r)).sum());
            *total += records.iter().map(|r| weight(r)).sum::<usize>();
            log.extend(records);
            while *total > cap && log.len() > 1 {
                let record = log.pop_front().expect("len checked");
                *total -= weight(&record);
                dropped.push(record);
            }
        } else {
            log.extend(records);
        }
        for record in &notified {
            Self::notify(st, &key, record);
        }
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
            .map(|log| log.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Length of the log at `key`.
    pub fn log_len(&self, key: &[u8]) -> usize {
        self.state.lock().logs.get(key).map_or(0, VecDeque::len)
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
            Some(log) => {
                let total = log.len();
                let records = log.iter().skip(start).cloned().collect();
                (records, total)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Subscribes to a key: returns the current point value and a channel
    /// of subsequent notifications, atomically with respect to writers —
    /// a writer cannot slip between the read and the registration. The
    /// registration ends when the returned [`Subscription`] is dropped.
    pub fn subscribe(self: &Arc<Self>, key: Bytes) -> (Option<Bytes>, Subscription) {
        self.ops.inc();
        self.locks.inc();
        let (tx, rx) = unbounded();
        let mut sub = Subscription::new(tx.clone(), rx);
        let current = {
            let mut st = self.state.lock();
            let current = st.map.get(&key).cloned();
            st.subs.entry(key.clone()).or_default().push(Sub {
                id: sub.id(),
                tx: SubTx::Plain(tx),
            });
            current
        };
        sub.track(self, [key]);
        (current, sub)
    }

    /// Registers subscription `id` on every `(tag, key)` under a single
    /// lock acquisition and returns the keys' current values, in order.
    /// Later writes to a key arrive on `tx` as `(tag, value)`. The
    /// shard half of [`crate::store::KvStore::subscribe_more`], which
    /// tracks the keys in the [`Subscription`] that undoes this.
    pub(crate) fn subscribe_tagged(
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
                    tx: SubTx::Tagged(*tag, tx.clone()),
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
            .map(|(k, v)| (k.clone(), v.iter().cloned().collect()))
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

    /// Clones the entire shard contents (a snapshot).
    pub fn snapshot(&self) -> (Vec<(Bytes, Bytes)>, Vec<(Bytes, Vec<Bytes>)>) {
        let st = self.state.lock();
        (
            st.map.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            st.logs
                .iter()
                .map(|(k, v)| (k.clone(), v.iter().cloned().collect()))
                .collect(),
        )
    }

    /// Restores shard contents from a snapshot, dropping existing state.
    pub fn restore(&self, map: Vec<(Bytes, Bytes)>, logs: Vec<(Bytes, Vec<Bytes>)>) {
        let mut st = self.state.lock();
        st.map = map.into_iter().collect();
        st.logs = logs
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect();
        st.log_weights.clear();
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
                sub.tx.send(value);
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
    fn set_if_absent_only_once() {
        let s = shard();
        assert!(s.set_if_absent(b("k"), b("a")));
        assert!(!s.set_if_absent(b("k"), b("b")));
        assert_eq!(s.get(b"k".as_ref()), Some(b("a")));
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
        let (cur, rx) = s.subscribe(b("k"));
        assert_eq!(cur, Some(b("v0")));
        s.set(b("k"), b("v1"));
        s.set(b("k"), b("v2"));
        assert_eq!(rx.recv().unwrap(), b("v1"));
        assert_eq!(rx.recv().unwrap(), b("v2"));
    }

    #[test]
    fn subscribe_before_create() {
        let s = shard();
        let (cur, rx) = s.subscribe(b("later"));
        assert_eq!(cur, None);
        s.set(b("later"), b("v"));
        assert_eq!(rx.recv().unwrap(), b("v"));
    }

    #[test]
    fn dropping_a_subscription_unsubscribes_without_a_write() {
        let s = shard();
        // Notified, then dropped: a sealed record is never written
        // again, so the drop itself must clean up.
        for _ in 0..1000 {
            let (_cur, sub) = s.subscribe(b("k"));
            s.set(b("k"), b("v"));
            assert_eq!(sub.recv().unwrap(), b("v"));
        }
        assert!(s.state.lock().subs.is_empty());
        // Never notified at all (a `get` that timed out).
        for _ in 0..1000 {
            let (_cur, _sub) = s.subscribe(b("never-written"));
        }
        assert!(s.state.lock().subs.is_empty());
        assert_eq!(s.subscriber_count(), 0);
    }

    #[test]
    fn dropping_one_subscription_keeps_the_keys_other_subscribers() {
        let s = shard();
        let (_cur, keep) = s.subscribe(b("k"));
        let (_cur, gone) = s.subscribe(b("k"));
        drop(gone);
        assert_eq!(s.subscriber_count(), 1);
        s.set(b("k"), b("v"));
        assert_eq!(keep.recv().unwrap(), b("v"));
    }

    #[test]
    fn tagged_subscribers_share_one_channel() {
        let s = shard();
        s.set(b("a"), b("a0"));
        let (tx, rx) = unbounded();
        let current = s.subscribe_tagged(7, &[(0, b("a")), (5, b("b"))], &tx);
        assert_eq!(current, vec![Some(b("a0")), None]);
        s.set(b("b"), b("b1"));
        s.set(b("a"), b("a1"));
        assert_eq!(rx.recv().unwrap(), (5, b("b1")));
        assert_eq!(rx.recv().unwrap(), (0, b("a1")));
        s.unsubscribe(7, &[b("a"), b("b")]);
        assert_eq!(s.subscriber_count(), 0);
    }

    #[test]
    fn logs_append_and_read() {
        let s = shard();
        s.append(b("log"), b("r1"));
        s.append(b("log"), b("r2"));
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("r1"), b("r2")]);
        assert_eq!(s.log_len(b"log".as_ref()), 2);
        assert_eq!(s.read_log(b"other".as_ref()), Vec::<Bytes>::new());
    }

    #[test]
    fn log_appends_notify_subscribers() {
        let s = shard();
        let (_cur, rx) = s.subscribe(b("log"));
        s.append(b("log"), b("rec"));
        assert_eq!(rx.recv().unwrap(), b("rec"));
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
    fn snapshot_restore_round_trips() {
        let s = shard();
        s.set(b("k"), b("v"));
        s.append(b("log"), b("r"));
        let (map, logs) = s.snapshot();
        let t = shard();
        t.restore(map, logs);
        assert_eq!(t.get(b"k".as_ref()), Some(b("v")));
        assert_eq!(t.read_log(b"log".as_ref()), vec![b("r")]);
    }

    #[test]
    fn set_many_commits_all_and_notifies() {
        let s = shard();
        let (_cur, rx) = s.subscribe(b("k1"));
        s.set_many(vec![(b("k1"), b("v1")), (b("k2"), b("v2"))]);
        assert_eq!(s.get(b"k1".as_ref()), Some(b("v1")));
        assert_eq!(s.get(b"k2".as_ref()), Some(b("v2")));
        assert_eq!(rx.recv().unwrap(), b("v1"));
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
        let (_cur, rx) = s.subscribe(b("log"));
        let dropped = s.append_many(b("log"), vec![b("r1"), b("r2"), b("r3")], None);
        assert!(dropped.is_empty());
        assert_eq!(s.read_log(b"log".as_ref()), vec![b("r1"), b("r2"), b("r3")]);
        assert_eq!(rx.recv().unwrap(), b("r1"));
        assert_eq!(rx.recv().unwrap(), b("r2"));
    }

    #[test]
    fn bounded_append_drops_oldest() {
        let s = shard();
        s.append_many(b("log"), vec![b("r1"), b("r2")], Some(4));
        let dropped = s.append_many(b("log"), vec![b("r3"), b("r4"), b("r5")], Some(4));
        assert_eq!(dropped, vec![b("r1")]);
        assert_eq!(
            s.read_log(b"log".as_ref()),
            vec![b("r2"), b("r3"), b("r4"), b("r5")]
        );
        assert_eq!(s.log_len(b"log".as_ref()), 4);
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
