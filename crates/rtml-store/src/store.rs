//! The object store proper: entries, waiters, pinning, LRU eviction.
//!
//! It holds sealed objects only. An object still arriving from another
//! node is the node's object plane's ([`crate::transfer`]) until the
//! agent seals it here.
//!
//! A seal is heard only by whoever asked for that object: the per-object
//! local-seal table ([`ObjectStore::subscribe_local_many`]) is the one way to
//! learn of one. A blocked `get`, a local scheduler's waiting tasks and
//! [`ObjectStore::wait_local`] all register there; a `put` nobody waits
//! for wakes nobody. A registration keeps what fired for its caller to
//! take under one lock ([`LocalSealGuard::take`]), and wakes the caller
//! once per threshold of seals, not once per seal: a `get` of 256
//! results its own node runs sleeps until the last of them seals.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use rtml_common::collections::IdMap;
use rtml_common::error::{Error, Result};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::metrics::{Counter, MetricsRegistry};

/// Configuration for one node's store.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Node this store belongs to.
    pub node: NodeId,
    /// Capacity in bytes; puts beyond this evict or fail.
    pub capacity_bytes: u64,
    /// Maximum payload bytes per transfer frame: objects larger than
    /// this leave the node's [`crate::FetchAgent`] as
    /// ⌈size/chunk⌉ frames streamed through the fabric's bandwidth
    /// model instead of one monolithic message. Clamped to ≥ 1.
    pub chunk_bytes: u64,
}

/// Default transfer chunk size (256 KiB).
pub const DEFAULT_CHUNK_BYTES: u64 = 256 * 1024;

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            node: NodeId(0),
            capacity_bytes: 512 * 1024 * 1024,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }
}

struct Entry {
    data: Bytes,
    pin_count: u32,
    last_access: u64,
}

#[derive(Default)]
struct StoreState {
    /// Keyed by id, hashed by the id's own bits.
    objects: IdMap<ObjectId, Entry>,
    used_bytes: u64,
    /// Bytes held by entries with at least one pin (maintained
    /// incrementally on pin/unpin transitions). The store's admission
    /// headroom is `capacity - pinned_bytes`: everything unpinned is
    /// evictable on demand.
    pinned_bytes: u64,
    access_clock: u64,
    /// Per-object local-seal registrations: the subscriptions waiting
    /// for it. An entry goes when the object seals here, when the
    /// [`LocalSealGuard`] that registered it drops (or
    /// `wait_local` gives up), or on `clear`.
    waiters: IdMap<ObjectId, Vec<u64>>,
    /// The live subscriptions, by id.
    subscriptions: IdMap<u64, Subscription>,
    /// The last subscription id given out; ids start at 1.
    next_subscription: u64,
}

/// One local-seal subscription ([`ObjectStore::subscribe_local_many`]).
struct Subscription {
    /// Its caller's wake-up. The subscription holds the caller's only
    /// sender unless the caller kept one, so `clear` disconnects it.
    wake: Sender<()>,
    /// Objects that sealed (or were here when registered) since the
    /// caller last took them.
    fired: Vec<ObjectId>,
    /// Objects registered that have not fired.
    pending: usize,
    /// How many untaken seals wake the caller.
    threshold: usize,
    /// A wake-up is out that no take has answered yet.
    woken: bool,
}

impl Subscription {
    /// Marks the caller woken if it is owed a wake-up — `threshold`
    /// seals untaken, or every registered object fired — and returns
    /// its sender to wake it with once the store's lock is dropped.
    fn due(&mut self) -> Option<Sender<()>> {
        let reached = self.fired.len() >= self.threshold || self.pending == 0;
        let due = !self.woken && !self.fired.is_empty() && reached;
        self.woken |= due;
        due.then(|| self.wake.clone())
    }

    /// Wakes the caller whether or not anything fired.
    fn nudge(&mut self) -> Option<Sender<()>> {
        let due = !self.woken;
        self.woken = true;
        due.then(|| self.wake.clone())
    }

    /// What fired, handed over; woken next at `threshold` more.
    fn take(&mut self, threshold: usize) -> Vec<ObjectId> {
        self.threshold = threshold.max(1);
        self.woken = false;
        std::mem::take(&mut self.fired)
    }
}

impl StoreState {
    /// Opens a subscription woken on `wake` (see [`Subscription::due`]).
    fn subscribe(&mut self, threshold: usize, wake: Sender<()>) -> u64 {
        self.next_subscription += 1;
        let id = self.next_subscription;
        let subscription = Subscription {
            wake,
            fired: Vec::new(),
            pending: 0,
            threshold: threshold.max(1),
            woken: false,
        };
        self.subscriptions.insert(id, subscription);
        id
    }

    /// Registers `object` for subscription `id`, unless it is here
    /// already: then it fires at once. Returns whether it was
    /// registered (`false` too for an object the subscription already
    /// waits for, or a subscription `clear` ended).
    fn register(&mut self, id: u64, object: ObjectId) -> bool {
        let present = self.objects.contains_key(&object);
        let Some(subscription) = self.subscriptions.get_mut(&id) else {
            return false;
        };
        if present {
            subscription.fired.push(object);
            return false;
        }
        let waiters = self.waiters.entry(object).or_default();
        if waiters.contains(&id) {
            return false;
        }
        waiters.push(id);
        subscription.pending += 1;
        true
    }

    /// Ends subscription `id`, withdrawing its registrations of
    /// `objects` that have not fired.
    fn unsubscribe(&mut self, id: u64, objects: &[ObjectId]) {
        let Some(subscription) = self.subscriptions.remove(&id) else {
            return;
        };
        if subscription.pending == 0 {
            return;
        }
        for object in objects {
            if let Some(waiters) = self.waiters.get_mut(object) {
                waiters.retain(|subscription| *subscription != id);
                if waiters.is_empty() {
                    self.waiters.remove(object);
                }
            }
        }
    }

    /// A read of `object`: its bytes if present, its recency bumped.
    fn read(&mut self, object: ObjectId, stats: &StoreStats) -> Option<Bytes> {
        self.access_clock += 1;
        let Some(entry) = self.objects.get_mut(&object) else {
            stats.misses.inc();
            return None;
        };
        entry.last_access = self.access_clock;
        stats.hits.inc();
        Some(entry.data.clone())
    }

    /// Whether subscription `id` still waits for `object`.
    fn is_registered(&self, id: u64, object: ObjectId) -> bool {
        let waiters = self.waiters.get(&object);
        waiters.is_some_and(|w| w.contains(&id))
    }
}

/// Wakes each caller a critical section found due, its guard dropped.
fn wake_callers(callers: impl IntoIterator<Item = Sender<()>>) {
    for caller in callers {
        let _ = caller.send(());
    }
}

/// Operation counters for one store.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Successful puts (new objects sealed).
    pub puts: Counter,
    /// Get hits.
    pub hits: Counter,
    /// Get misses.
    pub misses: Counter,
    /// Objects evicted under capacity pressure.
    pub evictions: Counter,
}

/// Result of a [`ObjectStore::put`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// Whether the object was newly inserted (false: idempotent re-put).
    pub inserted: bool,
    /// Objects evicted to make room; the caller must drop their locations
    /// from the object table.
    pub evicted: Vec<ObjectId>,
}

/// A single node's in-memory object store. See the crate docs for
/// semantics.
pub struct ObjectStore {
    config: StoreConfig,
    state: Mutex<StoreState>,
    /// Operation counters.
    pub stats: StoreStats,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Self {
        ObjectStore {
            config,
            state: Mutex::new(StoreState::default()),
            stats: StoreStats::default(),
        }
    }

    /// The node this store serves.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// Store capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes
    }

    /// Transfer chunk size for objects leaving this store (≥ 1).
    pub fn chunk_bytes(&self) -> u64 {
        self.config.chunk_bytes.max(1)
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.state.lock().used_bytes
    }

    /// Number of objects currently held.
    pub fn len(&self) -> usize {
        self.state.lock().objects.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers the store's occupancy gauges (`store.*`).
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        let store = self.clone();
        registry.register_value("store.used_bytes", move || store.used_bytes());
        let store = self.clone();
        registry.register_value("store.objects", move || store.len() as u64);
    }

    /// Inserts a sealed, immutable object.
    ///
    /// Idempotent for identical re-puts (lineage replay regenerates the
    /// same object IDs and bytes). Returns [`Error::StoreFull`] only when
    /// even after evicting every unpinned object the value cannot fit.
    pub fn put(&self, object: ObjectId, data: Bytes) -> Result<PutOutcome> {
        let size = data.len() as u64;
        let mut st = self.state.lock();

        if let Some(existing) = st.objects.get(&object) {
            debug_assert_eq!(
                existing.data.len(),
                data.len(),
                "object {object} re-put with different size"
            );
            return Ok(PutOutcome {
                inserted: false,
                evicted: Vec::new(),
            });
        }

        if size > self.config.capacity_bytes {
            return Err(Error::StoreFull {
                requested: size,
                available: self.config.capacity_bytes,
            });
        }

        // Evict until the new object fits: plain LRU over unpinned
        // entries.
        let mut evicted = Vec::new();
        while st.used_bytes + size > self.config.capacity_bytes {
            let victim = st
                .objects
                .iter()
                .filter(|(_, e)| e.pin_count == 0)
                .min_by_key(|(_, e)| e.last_access)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    let entry = st.objects.remove(&id).expect("victim exists");
                    st.used_bytes -= entry.data.len() as u64;
                    evicted.push(id);
                    self.stats.evictions.inc();
                }
                None => {
                    let available = self.config.capacity_bytes - st.used_bytes;
                    return Err(Error::StoreFull {
                        requested: size,
                        available,
                    });
                }
            }
        }

        st.access_clock += 1;
        let clock = st.access_clock;
        st.objects.insert(
            object,
            Entry {
                data,
                pin_count: 0,
                last_access: clock,
            },
        );
        st.used_bytes += size;
        self.stats.puts.inc();

        // Announce the seal to whoever registered for it, and nobody else.
        let mut due = Vec::new();
        if let Some(waiters) = st.waiters.remove(&object) {
            for id in waiters {
                let subscription =
                    (st.subscriptions.get_mut(&id)).expect("a waiter's subscription is live");
                subscription.fired.push(object);
                subscription.pending -= 1;
                due.extend(subscription.due());
            }
        }
        drop(st);
        wake_callers(due);
        Ok(PutOutcome {
            inserted: true,
            evicted,
        })
    }

    /// Fetches an object if present, bumping its recency.
    pub fn get(&self, object: ObjectId) -> Option<Bytes> {
        self.state.lock().read(object, &self.stats)
    }

    /// [`get`](Self::get) of each of `objects`, in order, under one
    /// lock.
    pub fn get_many(&self, objects: &[ObjectId]) -> Vec<Option<Bytes>> {
        let mut st = self.state.lock();
        let read = |object: &ObjectId| st.read(*object, &self.stats);
        objects.iter().map(read).collect()
    }

    /// Whether the object is present.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.state.lock().objects.contains_key(&object)
    }

    /// Blocks until `object` is sealed locally or `timeout` elapses. It
    /// waits as a one-object subscription of the local-seal table, and
    /// leaves no registration behind either way.
    pub fn wait_local(&self, object: ObjectId, timeout: Duration) -> Result<Bytes> {
        let deadline = Instant::now() + timeout;
        let (tx, rx) = unbounded();
        loop {
            let id = {
                let mut st = self.state.lock();
                if let Some(entry) = st.objects.get(&object) {
                    self.stats.hits.inc();
                    return Ok(entry.data.clone());
                }
                let id = st.subscribe(1, tx.clone());
                st.register(id, object);
                id
            };
            let left = deadline.saturating_duration_since(Instant::now());
            let woken = rx.recv_timeout(left).is_ok();
            let mut st = self.state.lock();
            st.unsubscribe(id, &[object]);
            match st.objects.get(&object) {
                Some(entry) => return Ok(entry.data.clone()),
                // Given up on: withdrawn above.
                None if !woken => return Err(Error::Timeout),
                // Sealed and evicted meanwhile: wait again.
                None => {}
            }
        }
    }

    /// Opens a local-seal subscription for `objects`, woken on `wake`:
    /// each object fires once, when it seals here — at once, if it is
    /// here already — and what fired is kept for the caller to take
    /// ([`LocalSealGuard::take`]). The caller is woken once when
    /// `threshold` untaken objects have fired, or when every object it
    /// registered has (a `get` passes how many it waits for; a caller
    /// that acts on each seal passes 1), and again only after it took
    /// them; and when a producer this node held is lost
    /// ([`ObjectStore::wake_all`]). One lock for the whole set. The
    /// returned guard takes more objects ([`LocalSealGuard::add`]) and
    /// ends the subscription when it drops, so a waiter that gives up
    /// (or is satisfied some other way) leaves nothing behind.
    /// [`clear`] (node crash) ends every subscription and drops its
    /// sender: a caller that keeps no sender of its own sees the
    /// channel disconnect.
    ///
    /// [`clear`]: ObjectStore::clear
    pub fn subscribe_local_many(
        self: &Arc<Self>,
        objects: &[ObjectId],
        threshold: usize,
        wake: Sender<()>,
    ) -> LocalSealGuard {
        let mut st = self.state.lock();
        let id = st.subscribe(threshold, wake);
        let waiting = objects.iter().copied();
        let waiting = waiting.filter(|&object| st.register(id, object)).collect();
        let due = st.subscriptions.get_mut(&id).and_then(Subscription::due);
        drop(st);
        wake_callers(due);
        LocalSealGuard {
            store: self.clone(),
            id,
            waiting,
            kept: 0,
        }
    }

    /// Wakes every subscription's caller, whether or not anything fired:
    /// a producer this node's run queue held was lost, and a caller
    /// waiting for its result here must look for it elsewhere.
    pub fn wake_all(&self) {
        let mut st = self.state.lock();
        let due = st
            .subscriptions
            .values_mut()
            .filter_map(Subscription::nudge);
        let due: Vec<_> = due.collect();
        drop(st);
        wake_callers(due);
    }

    /// Number of local-seal registrations currently held (leak detector).
    pub fn local_waiter_count(&self) -> usize {
        let st = self.state.lock();
        st.waiters.values().map(Vec::len).sum()
    }

    /// Pins an object, excluding it from eviction while pinned. Returns
    /// whether the object was present.
    pub fn pin(&self, object: ObjectId) -> bool {
        let mut st = self.state.lock();
        let mut newly_pinned = 0u64;
        let present = match st.objects.get_mut(&object) {
            Some(entry) => {
                entry.pin_count += 1;
                if entry.pin_count == 1 {
                    newly_pinned = entry.data.len() as u64;
                }
                true
            }
            None => false,
        };
        st.pinned_bytes += newly_pinned;
        present
    }

    /// Releases one pin.
    pub fn unpin(&self, object: ObjectId) {
        let mut st = self.state.lock();
        let mut released = 0u64;
        if let Some(entry) = st.objects.get_mut(&object) {
            if entry.pin_count == 1 {
                released = entry.data.len() as u64;
            }
            entry.pin_count = entry.pin_count.saturating_sub(1);
        }
        st.pinned_bytes -= released;
    }

    /// Bytes currently held by pinned entries. `capacity - pinned` is
    /// the store's admission headroom: how much could be made resident
    /// by evicting everything evictable — the budget the scheduler's
    /// prefetch admission guard checks against.
    pub fn pinned_bytes(&self) -> u64 {
        self.state.lock().pinned_bytes
    }

    /// Deletes an object regardless of pins (used by failure injection).
    /// Returns whether it was present.
    pub fn delete(&self, object: ObjectId) -> bool {
        let mut st = self.state.lock();
        if let Some(entry) = st.objects.remove(&object) {
            st.used_bytes -= entry.data.len() as u64;
            if entry.pin_count > 0 {
                st.pinned_bytes -= entry.data.len() as u64;
            }
            true
        } else {
            false
        }
    }

    /// Drops every object (node crash), returning their IDs so the
    /// caller can erase their locations from the object table. Objects
    /// still arriving are the node's agent's, and die with it.
    pub fn clear(&self) -> Vec<ObjectId> {
        let mut st = self.state.lock();
        let ids: Vec<ObjectId> = st.objects.keys().copied().collect();
        st.objects.clear();
        st.used_bytes = 0;
        st.pinned_bytes = 0;
        st.waiters.clear();
        st.subscriptions.clear();
        ids
    }

    /// IDs of all objects currently held.
    pub fn list(&self) -> Vec<ObjectId> {
        self.state.lock().objects.keys().copied().collect()
    }
}

/// One [`ObjectStore::subscribe_local_many`] subscription: its
/// registrations, and what fired for it. Dropping it ends the
/// subscription.
pub struct LocalSealGuard {
    store: Arc<ObjectStore>,
    id: u64,
    /// Objects registered that may not have fired yet.
    waiting: Vec<ObjectId>,
    /// How long `waiting` was when it last forgot what had fired.
    kept: usize,
}

impl LocalSealGuard {
    /// Registers `objects` too.
    pub fn add(&mut self, objects: &[ObjectId]) {
        if objects.is_empty() {
            return;
        }
        let (id, mut st) = (self.id, self.store.state.lock());
        // A guard that lives as long as its owner forgets what has fired
        // once its list has doubled since it last did: amortized O(1) a
        // registration, and never more than twice what it still waits
        // for.
        if self.waiting.len() > 2 * self.kept {
            self.waiting.retain(|&object| st.is_registered(id, object));
            self.kept = self.waiting.len();
        }
        let fresh = objects.iter().copied();
        self.waiting
            .extend(fresh.filter(|&object| st.register(id, object)));
        let due = st.subscriptions.get_mut(&id).and_then(Subscription::due);
        drop(st);
        wake_callers(due);
    }

    /// Hands over what fired since the last take, and arms the next
    /// wake-up: when `threshold` more have fired, or everything still
    /// registered has.
    pub fn take(&mut self, threshold: usize) -> Vec<ObjectId> {
        let mut st = self.store.state.lock();
        st.subscriptions
            .get_mut(&self.id)
            .map(|subscription| subscription.take(threshold))
            .unwrap_or_default()
    }

    /// [`take`](Self::take), each object with its bytes — read under the
    /// same lock, as a [`ObjectStore::get`] would — or `None` if it was
    /// evicted since it sealed.
    pub fn take_values(&mut self, threshold: usize) -> Vec<(ObjectId, Option<Bytes>)> {
        let mut st = self.store.state.lock();
        let Some(subscription) = st.subscriptions.get_mut(&self.id) else {
            return Vec::new();
        };
        let fired = subscription.take(threshold);
        let stats = &self.store.stats;
        let read = |object| (object, st.read(object, stats));
        fired.into_iter().map(read).collect()
    }
}

impl Drop for LocalSealGuard {
    fn drop(&mut self) {
        self.store.state.lock().unsubscribe(self.id, &self.waiting);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::{DriverId, TaskId};

    fn obj(i: u64) -> ObjectId {
        TaskId::driver_root(DriverId::from_index(0))
            .child(i)
            .return_object(0)
    }

    fn store(capacity: u64) -> Arc<ObjectStore> {
        Arc::new(ObjectStore::new(StoreConfig {
            node: NodeId(0),
            capacity_bytes: capacity,
            ..StoreConfig::default()
        }))
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store(1024);
        let outcome = s.put(obj(1), Bytes::from_static(b"hello")).unwrap();
        assert!(outcome.inserted);
        assert!(outcome.evicted.is_empty());
        assert_eq!(s.get(obj(1)).unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.used_bytes(), 5);
        assert_eq!(s.len(), 1);
        assert!(s.contains(obj(1)));
        assert!(!s.contains(obj(2)));
        assert!(s.get(obj(2)).is_none());
    }

    #[test]
    fn double_put_is_idempotent() {
        let s = store(1024);
        assert!(s.put(obj(1), Bytes::from_static(b"data")).unwrap().inserted);
        assert!(!s.put(obj(1), Bytes::from_static(b"data")).unwrap().inserted);
        assert_eq!(s.used_bytes(), 4);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let s = store(100);
        s.put(obj(1), Bytes::from(vec![1u8; 40])).unwrap();
        s.put(obj(2), Bytes::from(vec![2u8; 40])).unwrap();
        // Touch obj(1) so obj(2) becomes LRU.
        let _ = s.get(obj(1));
        let outcome = s.put(obj(3), Bytes::from(vec![3u8; 40])).unwrap();
        assert_eq!(outcome.evicted, vec![obj(2)]);
        assert!(s.contains(obj(1)));
        assert!(!s.contains(obj(2)));
        assert!(s.contains(obj(3)));
        assert_eq!(s.stats.evictions.get(), 1);
    }

    #[test]
    fn pinned_objects_survive_eviction() {
        let s = store(100);
        s.put(obj(1), Bytes::from(vec![1u8; 60])).unwrap();
        assert!(s.pin(obj(1)));
        // obj(1) is LRU but pinned; put must fail: nothing evictable.
        let err = s.put(obj(2), Bytes::from(vec![2u8; 60])).unwrap_err();
        assert!(matches!(err, Error::StoreFull { .. }));
        s.unpin(obj(1));
        let outcome = s.put(obj(2), Bytes::from(vec![2u8; 60])).unwrap();
        assert_eq!(outcome.evicted, vec![obj(1)]);
    }

    #[test]
    fn pinned_bytes_track_pin_transitions() {
        let s = store(1024);
        s.put(obj(1), Bytes::from(vec![0u8; 100])).unwrap();
        s.put(obj(2), Bytes::from(vec![0u8; 50])).unwrap();
        assert_eq!(s.pinned_bytes(), 0);
        s.pin(obj(1));
        s.pin(obj(1)); // second pin of the same entry adds nothing
        assert_eq!(s.pinned_bytes(), 100);
        s.pin(obj(2));
        assert_eq!(s.pinned_bytes(), 150);
        s.unpin(obj(1));
        assert_eq!(s.pinned_bytes(), 150, "still one pin outstanding");
        s.unpin(obj(1));
        assert_eq!(s.pinned_bytes(), 50);
        s.delete(obj(2));
        assert_eq!(s.pinned_bytes(), 0, "deleting a pinned entry releases it");
    }

    #[test]
    fn pin_missing_object_returns_false() {
        let s = store(100);
        assert!(!s.pin(obj(9)));
        s.unpin(obj(9)); // Must not panic.
    }

    #[test]
    fn oversized_put_fails_fast() {
        let s = store(10);
        let err = s.put(obj(1), Bytes::from(vec![0u8; 11])).unwrap_err();
        assert_eq!(
            err,
            Error::StoreFull {
                requested: 11,
                available: 10
            }
        );
    }

    #[test]
    fn wait_local_blocks_until_seal() {
        let s = store(1024);
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            // The waiter is one registration in the local-seal table.
            let deadline = Instant::now() + Duration::from_secs(5);
            while s2.local_waiter_count() == 0 {
                assert!(Instant::now() < deadline, "the waiter never registered");
                std::thread::yield_now();
            }
            assert_eq!(s2.local_waiter_count(), 1);
            s2.put(obj(1), Bytes::from_static(b"late")).unwrap();
        });
        let data = s.wait_local(obj(1), Duration::from_secs(5)).unwrap();
        assert_eq!(&data[..], b"late");
        t.join().unwrap();
        assert_eq!(s.local_waiter_count(), 0);
    }

    #[test]
    fn wait_local_times_out() {
        let s = store(1024);
        let started = Instant::now();
        let err = s.wait_local(obj(1), Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, Error::Timeout);
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(s.local_waiter_count(), 0, "gave up, left a registration");
    }

    #[test]
    fn subscribe_local_many_announces_present_and_later_seals_on_one_channel() {
        let s = store(1024);
        s.put(obj(1), Bytes::from_static(b"x")).unwrap();
        let (tx, rx) = unbounded();
        let mut guard = s.subscribe_local_many(&[obj(1), obj(2), obj(3)], 1, tx);
        assert_eq!(rx.try_recv(), Ok(()));
        assert_eq!(guard.take(1), vec![obj(1)]);
        assert!(rx.try_recv().is_err());
        // One wake-up until the caller takes, however many seal.
        s.put(obj(3), Bytes::from_static(b"z")).unwrap();
        s.put(obj(2), Bytes::from_static(b"y")).unwrap();
        assert_eq!(rx.try_recv(), Ok(()));
        assert!(rx.try_recv().is_err());
        assert_eq!(guard.take(1), vec![obj(3), obj(2)]);
        assert_eq!(s.local_waiter_count(), 0);
    }

    #[test]
    fn a_threshold_registration_wakes_its_caller_once_when_the_last_object_seals() {
        let s = store(1024);
        s.put(obj(1), Bytes::from_static(b"a")).unwrap();
        let (tx, rx) = unbounded();
        let objects: Vec<ObjectId> = (1..=4).map(obj).collect();
        let mut guard = s.subscribe_local_many(&objects, objects.len(), tx);
        // One of four here: no wake-up, and it is kept for the taking.
        assert!(rx.try_recv().is_err());
        assert_eq!(guard.take(3), vec![obj(1)]);
        s.put(obj(2), Bytes::from_static(b"b")).unwrap();
        s.put(obj(3), Bytes::from_static(b"c")).unwrap();
        assert!(rx.try_recv().is_err(), "woken before the last seal");
        s.put(obj(4), Bytes::from_static(b"d")).unwrap();
        assert_eq!(rx.try_recv(), Ok(()));
        assert!(rx.try_recv().is_err(), "woken more than once");
        let values = guard.take_values(1);
        let ids: Vec<ObjectId> = values.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![obj(2), obj(3), obj(4)]);
        assert_eq!(values[2].1.as_deref(), Some(&b"d"[..]));
        // Everything fired: nothing is left registered, and a loss
        // nudge still wakes the caller.
        assert_eq!(s.local_waiter_count(), 0);
        s.wake_all();
        assert_eq!(rx.try_recv(), Ok(()));
        assert!(guard.take(1).is_empty());
    }

    #[test]
    fn an_object_evicted_before_it_is_taken_is_handed_over_without_bytes() {
        let s = store(100);
        let (tx, _rx) = unbounded();
        let mut guard = s.subscribe_local_many(&[obj(1)], 1, tx);
        s.put(obj(1), Bytes::from(vec![1u8; 60])).unwrap();
        s.put(obj(2), Bytes::from(vec![2u8; 60])).unwrap();
        assert_eq!(guard.take_values(1), vec![(obj(1), None)]);
    }

    #[test]
    fn local_seal_guard_withdraws_unfired_registrations() {
        let s = store(1024);
        let (tx, _rx) = unbounded();
        let guard = s.subscribe_local_many(&[obj(1), obj(2)], 1, tx.clone());
        let other = s.subscribe_local_many(&[obj(2)], 1, tx);
        assert_eq!(s.local_waiter_count(), 3);
        drop(guard);
        assert_eq!(s.local_waiter_count(), 1);
        drop(other);
        assert_eq!(s.local_waiter_count(), 0);
    }

    #[test]
    fn clear_disconnects_local_seal_channels() {
        let s = store(1024);
        let (tx, rx) = unbounded();
        let _guard = s.subscribe_local_many(&[obj(1)], 1, tx);
        s.clear();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn a_long_lived_guard_hears_only_its_objects_and_forgets_what_fired() {
        let s = store(1 << 20);
        let (tx, rx) = unbounded();
        let mut guard = s.subscribe_local_many(&[], 1, tx);
        // A put nobody registered for is announced to nobody.
        s.put(obj(0), Bytes::from_static(b"x")).unwrap();
        assert!(rx.try_recv().is_err());
        // One object at a time, each sealed before the next is added:
        // the guard never holds more than a few it no longer waits for.
        for i in 1..=1000 {
            guard.add(&[obj(i)]);
            s.put(obj(i), Bytes::from_static(b"v")).unwrap();
            assert_eq!(rx.try_recv(), Ok(()));
            assert_eq!(guard.take(1), vec![obj(i)]);
            assert!(guard.waiting.len() <= 3, "{} kept", guard.waiting.len());
        }
        // An object already here fires as it is added.
        guard.add(&[obj(0), obj(2000)]);
        assert_eq!(rx.try_recv(), Ok(()));
        assert_eq!(guard.take(1), vec![obj(0)]);
        assert_eq!(s.local_waiter_count(), 1);
        drop(guard);
        assert_eq!(s.local_waiter_count(), 0);
    }

    #[test]
    fn clear_reports_contents() {
        let s = store(1024);
        s.put(obj(1), Bytes::from_static(b"a")).unwrap();
        s.put(obj(2), Bytes::from_static(b"b")).unwrap();
        let mut ids = s.clear();
        ids.sort();
        let mut expect = vec![obj(1), obj(2)];
        expect.sort();
        assert_eq!(ids, expect);
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn delete_frees_bytes() {
        let s = store(1024);
        s.put(obj(1), Bytes::from(vec![0u8; 100])).unwrap();
        assert!(s.delete(obj(1)));
        assert!(!s.delete(obj(1)));
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let s = store(1 << 20);
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let id = obj(t * 1000 + i);
                    s.put(id, Bytes::from(vec![0u8; 16])).unwrap();
                    assert!(s.get(id).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 400);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let s = store(1024);
        s.put(obj(1), Bytes::from_static(b"x")).unwrap();
        let _ = s.get(obj(1));
        let _ = s.get(obj(2));
        assert_eq!(s.stats.hits.get(), 1);
        assert_eq!(s.stats.misses.get(), 1);
        assert_eq!(s.stats.puts.get(), 1);
    }
}
