//! The sharded key-value façade: routes every key to a shard by hash.

use std::hash::Hasher;
use std::sync::Arc;

use bytes::Bytes;

use rtml_common::collections::FnvHasher;
use rtml_common::metrics::MetricsRegistry;

use crate::shard::{Shard, Subscription};

/// A hash-sharded, in-memory control-plane store with pub-sub.
///
/// Cloning the handle is cheap; all clones see the same store. See the
/// crate docs for the design rationale.
pub struct KvStore {
    shards: Vec<Arc<Shard>>,
}

/// Aggregate operation statistics across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvStats {
    /// Per-shard operation counts, indexed by shard.
    pub ops_per_shard: Vec<u64>,
    /// Per-shard lock acquisitions. Group-committed batches acquire
    /// once per shard per batch, so `total_ops / total_locks` is the
    /// effective commit batch size.
    pub locks_per_shard: Vec<u64>,
}

impl KvStats {
    /// Total operations across all shards.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_shard.iter().sum()
    }

    /// Total lock acquisitions across all shards.
    pub fn total_locks(&self) -> u64 {
        self.locks_per_shard.iter().sum()
    }

    /// Ratio of the busiest shard to the mean — 1.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 || self.ops_per_shard.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.ops_per_shard.len() as f64;
        let max = *self.ops_per_shard.iter().max().unwrap() as f64;
        max / mean
    }
}

impl KvStore {
    /// Creates a store with `num_shards` independent shards (≥ 1).
    pub fn new(num_shards: usize) -> Arc<Self> {
        let num_shards = num_shards.max(1);
        Arc::new(KvStore {
            shards: (0..num_shards).map(|_| Arc::new(Shard::new())).collect(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &[u8]) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// Shard index a key routes to (exposed for balance diagnostics).
    /// The workspace's one fast hash ([`FnvHasher`], which the
    /// shard-interior maps use too): a cheap 64-bit mix routes the
    /// fixed-format control-plane keys uniformly at a fraction of a
    /// 128-bit hash's cost, once per operation on the submit hot path.
    pub fn shard_index(&self, key: &[u8]) -> usize {
        let mut hasher = FnvHasher::default();
        hasher.write(key);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Point read.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.shard_for(key).get(key)
    }

    /// Point write with subscriber notification.
    pub fn set(&self, key: Bytes, value: Bytes) {
        self.shard_for(&key).set(key.clone(), value);
    }

    /// Batched point reads, one lock acquisition per touched shard.
    /// Results are positional: `out[i]` corresponds to `keys[i]`.
    pub fn get_many(&self, keys: &[Bytes]) -> Vec<Option<Bytes>> {
        if keys.len() <= 1 {
            return keys.iter().map(|k| self.get(k)).collect();
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            buckets[self.shard_index(key)].push(i);
        }
        let mut out = vec![None; keys.len()];
        for (idx, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let shard_keys: Vec<Bytes> = bucket.iter().map(|i| keys[*i].clone()).collect();
            for (i, value) in bucket
                .into_iter()
                .zip(self.shards[idx].get_many(&shard_keys))
            {
                out[i] = value;
            }
        }
        out
    }

    /// Batched read-modify-writes, one lock acquisition per touched
    /// shard. Per-entry semantics match [`KvStore::update`].
    pub fn update_many<F>(&self, entries: Vec<(Bytes, F)>)
    where
        F: FnOnce(Option<&Bytes>) -> Option<Bytes>,
    {
        let mut buckets: Vec<Vec<(Bytes, F)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (key, f) in entries {
            buckets[self.shard_index(&key)].push((key, f));
        }
        for (idx, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                self.shards[idx].update_many(bucket);
            }
        }
    }

    /// Atomic read-modify-write (see [`Shard::update`]).
    pub fn update<F>(&self, key: Bytes, f: F) -> Option<Bytes>
    where
        F: FnOnce(Option<&Bytes>) -> Option<Bytes>,
    {
        self.shard_for(&key).update(key.clone(), f)
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        self.shard_for(key).delete(key)
    }

    /// Appends to the log at `key`.
    pub fn append(&self, key: Bytes, record: Bytes) {
        self.shard_for(&key).append(key.clone(), record);
    }

    /// Group-committed, bounded log appends: all records land on `key`'s
    /// log under one shard lock acquisition, and the log is a ring
    /// buffer under a cap on its records' summed `weight` (a weight of 1
    /// caps their number): the oldest records are dropped until the log
    /// weighs at most `cap`, except that the newest record is always
    /// kept. Returns the dropped records (see [`Shard::append_many_capped`]).
    pub fn append_many_capped(
        &self,
        key: Bytes,
        records: Vec<Bytes>,
        cap: usize,
        weight: fn(&[u8]) -> usize,
    ) -> Vec<Bytes> {
        self.shard_for(&key)
            .append_many_capped(key.clone(), records, cap, weight)
    }

    /// Reads the full log at `key`.
    pub fn read_log(&self, key: &[u8]) -> Vec<Bytes> {
        self.shard_for(key).read_log(key)
    }

    /// Reads the records of the log at `key` from position `start`
    /// onward, plus the log's total length, under one shard lock (see
    /// [`Shard::read_log_range`]).
    pub fn read_log_range(&self, key: &[u8], start: usize) -> (Vec<Bytes>, usize) {
        self.shard_for(key).read_log_range(key, start)
    }

    /// Subscribes to keys: the current value of every key (positional,
    /// like [`KvStore::get_many`]) plus **one** channel carrying every
    /// later update as `(position of the key, value)`, which ends (and
    /// unregisters) when the [`Subscription`] drops. The subscription
    /// may start empty and grow: [`KvStore::subscribe_more`] does the
    /// registering.
    pub fn subscribe_many(&self, keys: &[Bytes]) -> (Vec<Option<Bytes>>, Subscription) {
        let mut sub = Subscription::new();
        let tagged: Vec<(usize, Bytes)> = keys.iter().cloned().enumerate().collect();
        let current = self.subscribe_more(&mut sub, &tagged);
        (current, sub)
    }

    /// Registers more `(tag, key)` pairs on a live multi-key
    /// subscription and returns the keys' current values, in order;
    /// every later update of a key arrives on the subscription's one
    /// channel as `(tag, value)`. One lock acquisition per touched
    /// shard; each shard's reads and registrations are atomic with
    /// respect to its writers, so no update to any key can fall between
    /// its read and its registration.
    pub fn subscribe_more(
        &self,
        sub: &mut Subscription,
        keys: &[(usize, Bytes)],
    ) -> Vec<Option<Bytes>> {
        if let [(_, key)] = keys {
            // A blocked single `get`: no bucketing.
            let shard = &self.shards[self.shard_index(key)];
            return sub.register(shard, keys);
        }
        // Positions in `keys`, by shard.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (position, (_, key)) in keys.iter().enumerate() {
            buckets[self.shard_index(key)].push(position);
        }
        let mut current = vec![None; keys.len()];
        for (shard, positions) in self.shards.iter().zip(buckets) {
            if positions.is_empty() {
                continue;
            }
            let bucket: Vec<(usize, Bytes)> = positions.iter().map(|&p| keys[p].clone()).collect();
            let values = sub.register(shard, &bucket);
            for (position, value) in positions.into_iter().zip(values) {
                current[position] = value;
            }
        }
        current
    }

    /// Ends a live subscription's interest in `key`, if it has
    /// registered it (one lock acquisition). Updates already on the
    /// channel stay there.
    pub fn unsubscribe(&self, sub: &mut Subscription, key: &Bytes) {
        sub.untrack(&self.shards[self.shard_index(key)], key);
    }

    /// Live subscriber registrations across all shards (see
    /// [`Shard::subscriber_count`]); zero whenever nothing is blocked
    /// on the control plane.
    pub fn subscriber_count(&self) -> usize {
        self.shards.iter().map(|s| s.subscriber_count()).sum()
    }

    /// All point entries whose key starts with `prefix` (tooling path;
    /// scans every shard).
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Bytes, Bytes)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.scan_prefix(prefix));
        }
        out
    }

    /// All logs whose key starts with `prefix` (tooling path).
    pub fn scan_logs_prefix(&self, prefix: &[u8]) -> Vec<(Bytes, Vec<Bytes>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.scan_logs_prefix(prefix));
        }
        out
    }

    /// Total number of point keys across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether no point keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation and lock counts per shard.
    pub fn stats(&self) -> KvStats {
        KvStats {
            ops_per_shard: self.shards.iter().map(|s| s.ops.get()).collect(),
            locks_per_shard: self.shards.iter().map(|s| s.locks.get()).collect(),
        }
    }

    /// Registers the control plane's operation and lock totals
    /// (`kv.ops`, `kv.locks`).
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        let kv = self.clone();
        registry.register_value("kv.ops", move || kv.stats().total_ops());
        let kv = self.clone();
        registry.register_value("kv.locks", move || kv.stats().total_locks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("key:{i}"))
    }

    #[test]
    fn routes_consistently() {
        let kv = KvStore::new(8);
        for i in 0..100 {
            let k = key(i);
            assert_eq!(kv.shard_index(&k), kv.shard_index(&k));
        }
        // A key's shard is a function of its bytes alone, pinned: the
        // kv-lock budgets count locks on the shards keys land on.
        let kv = KvStore::new(7);
        assert_eq!(kv.shard_index(b"tseg!"), 5);
        assert_eq!(kv.shard_index(b"key:12345678"), 0);
        assert_eq!(kv.shard_index(b"tstate:0123456789abcdef"), 3);
    }

    #[test]
    fn spreads_keys_across_shards() {
        let kv = KvStore::new(8);
        for i in 0..1000 {
            kv.set(key(i), Bytes::from_static(b"v"));
        }
        let stats = kv.stats();
        assert!(stats.ops_per_shard.iter().all(|&n| n > 0));
        assert!(stats.imbalance() < 2.0, "imbalance {}", stats.imbalance());
    }

    #[test]
    fn get_set_roundtrip_across_shards() {
        let kv = KvStore::new(4);
        for i in 0..100 {
            kv.set(key(i), Bytes::from(format!("v{i}")));
        }
        for i in 0..100 {
            assert_eq!(kv.get(&key(i)), Some(Bytes::from(format!("v{i}"))));
        }
        assert_eq!(kv.len(), 100);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let kv = KvStore::new(0);
        assert_eq!(kv.num_shards(), 1);
        kv.set(key(1), Bytes::from_static(b"v"));
        assert!(kv.get(&key(1)).is_some());
    }

    #[test]
    fn scan_prefix_spans_shards() {
        let kv = KvStore::new(4);
        for i in 0..50 {
            kv.set(Bytes::from(format!("pfx:{i}")), Bytes::from_static(b"v"));
            kv.set(Bytes::from(format!("other:{i}")), Bytes::from_static(b"v"));
        }
        assert_eq!(kv.scan_prefix(b"pfx:").len(), 50);
    }

    #[test]
    fn concurrent_updates_are_atomic() {
        let kv = KvStore::new(4);
        let k = Bytes::from_static(b"counter");
        kv.set(k.clone(), Bytes::from(0u64.to_le_bytes().to_vec()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let kv = kv.clone();
            let k = k.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    kv.update(k.clone(), |cur| {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(cur.unwrap());
                        let n = u64::from_le_bytes(a) + 1;
                        Some(Bytes::from(n.to_le_bytes().to_vec()))
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut a = [0u8; 8];
        a.copy_from_slice(&kv.get(&k).unwrap());
        assert_eq!(u64::from_le_bytes(a), 8000);
    }

    #[test]
    fn get_many_is_positional_across_shards() {
        let kv = KvStore::new(4);
        for i in 0..100 {
            kv.set(key(i), Bytes::from(format!("v{i}")));
        }
        let keys: Vec<Bytes> = (0..110).map(key).collect();
        let got = kv.get_many(&keys);
        for (i, value) in got.iter().enumerate() {
            if i < 100 {
                assert_eq!(value.as_deref(), Some(format!("v{i}").as_bytes()));
            } else {
                assert!(value.is_none());
            }
        }
    }

    #[test]
    fn update_many_spans_shards() {
        let kv = KvStore::new(4);
        for i in 0..20 {
            kv.set(key(i), Bytes::from(vec![i as u8]));
        }
        let entries: Vec<(Bytes, _)> = (0..20)
            .map(|i| {
                (key(i), move |cur: Option<&Bytes>| {
                    let mut v = cur.unwrap().to_vec();
                    v[0] += 1;
                    Some(Bytes::from(v))
                })
            })
            .collect();
        kv.update_many(entries);
        for i in 0..20 {
            assert_eq!(kv.get(&key(i)), Some(Bytes::from(vec![i as u8 + 1])));
        }
    }

    #[test]
    fn append_many_capped_through_facade() {
        let kv = KvStore::new(4);
        let k = Bytes::from_static(b"log");
        let records: Vec<Bytes> = (0..10u8).map(|i| Bytes::from(vec![i])).collect();
        let dropped = kv.append_many_capped(k.clone(), records, 6, |_| 1);
        assert_eq!(dropped.len(), 4);
        assert_eq!(&dropped[0][..], &[0u8]);
        let log = kv.read_log(&k);
        assert_eq!(log.len(), 6);
        assert_eq!(&log[0][..], &[4u8]);
    }

    #[test]
    fn subscriptions_work_through_facade() {
        let kv = KvStore::new(4);
        let (cur, rx) = kv.subscribe_many(&[Bytes::from_static(b"s")]);
        assert_eq!(cur, vec![None]);
        kv.set(Bytes::from_static(b"s"), Bytes::from_static(b"x"));
        assert_eq!(rx.recv().unwrap(), (0, Bytes::from_static(b"x")));
    }

    #[test]
    fn subscribe_many_spans_shards_on_one_channel() {
        let kv = KvStore::new(4);
        let keys: Vec<Bytes> = (0..40).map(key).collect();
        for k in &keys[..10] {
            kv.set(k.clone(), Bytes::from_static(b"old"));
        }
        let (current, sub) = kv.subscribe_many(&keys);
        for (i, value) in current.iter().enumerate() {
            assert_eq!(value.is_some(), i < 10);
        }
        assert_eq!(kv.subscriber_count(), 40);
        for (i, k) in keys.iter().enumerate().rev() {
            kv.set(k.clone(), Bytes::from(vec![i as u8]));
        }
        let mut seen: Vec<usize> = (0..40)
            .map(|_| {
                let (i, value) = sub.recv().unwrap();
                assert_eq!(&value[..], &[i as u8]);
                i
            })
            .collect();
        seen.sort();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        drop(sub);
        assert_eq!(kv.subscriber_count(), 0);
    }

    #[test]
    fn logs_work_through_facade() {
        let kv = KvStore::new(4);
        kv.append(Bytes::from_static(b"l"), Bytes::from_static(b"a"));
        kv.append(Bytes::from_static(b"l"), Bytes::from_static(b"b"));
        assert_eq!(kv.read_log(b"l").len(), 2);
    }
}
