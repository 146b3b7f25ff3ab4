//! The object table: object ID → size, seal state, producer task, and the
//! set of nodes currently holding a copy.
//!
//! This is the table the paper's global scheduler consults for locality
//! and the one `get`/`wait` subscribe to. The producer field is the
//! lineage edge used for reconstruction: *object → task that creates it*.
//!
//! Since the Ray-style [`ObjectId`] change, that edge normally rides
//! inside the object ID itself ([`ObjectId::producer_task`]) and no
//! record is written at submission time at all — the table only gains a
//! record when a copy is first sealed. Reads synthesize the producer from
//! the ID when the stored record predates it or carries none, so
//! consumers see the same `ObjectInfo` they always did. The explicit
//! [`ObjectTable::declare`] path remains for producer-less records
//! (driver `put`s) and for tests.
//!
//! # A copy on its way is not a location
//!
//! A worker that seals a small result pushes it, unasked, to the node
//! that holds its future, and names that node in the same commit that
//! records its own copy ([`ObjectTable::add_location_pushed`] →
//! [`ObjectInfo::inbound`]). The announcement is **not** a location: the
//! bytes are on the wire, not in a store, so nothing may be requested
//! from that node, counted as a copy of the object, or weighed as
//! locality on account of it — readers and placement keep reading
//! [`ObjectInfo::locations`] only. It says one
//! thing to one audience: a reader *on the announced node* need not ask
//! anyone. That rule lives in [`ObjectInfo::holders_ranked`], which every
//! reader picks its holder through: while the announcement is live it
//! offers that node no holder, the reader completes on the local seal it
//! already listens for, and once the announcement has expired — it
//! carries the time a request of the reader's own would have been given
//! — it ranks the holders as if it had never been made. An announcement ends when the
//! copy lands (the receiver's own `add_location` clears it) or when it
//! expires; a frame lost on the wire or a node restarted in between
//! therefore costs that node's readers the wait once, together, and an
//! expired announcement left in a record is inert. A record without one
//! encodes to the bytes it always did.

use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;

use rtml_common::codec::{decode_from_slice, encode_to_bytes, Codec, Reader, Writer};
use rtml_common::error::{Error, Result};
use rtml_common::ids::{rendezvous_rank, NodeId, ObjectId, TaskId};
use rtml_common::metrics::{Counter, MetricsRegistry};
use rtml_common::time::now_nanos;

use crate::shard::Subscription;
use crate::store::KvStore;

const PREFIX: &[u8] = b"obj:";

/// A copy its producer sent, unasked, to a node that has not sealed it
/// yet (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inbound {
    /// The node the copy was sent to.
    pub node: NodeId,
    /// Until when readers on `node` wait for it instead of asking a
    /// holder (nanos since the process epoch): the seal plus the time a
    /// request of their own would be given.
    pub until_nanos: u64,
}

/// Control-plane record for one object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Size in bytes (0 until first sealed).
    pub size: u64,
    /// Whether the object has been sealed (its value is final) anywhere.
    pub sealed: bool,
    /// Task that produces this object; `None` for driver `put`s and
    /// actor results, whose values did not come from a replayable task
    /// invocation (such objects cannot be reconstructed — the paper's
    /// lineage covers task outputs). Filled from
    /// [`ObjectId::producer_task`] on every read, so it is accurate even
    /// for records created by a bare seal.
    pub producer: Option<TaskId>,
    /// Nodes currently holding a sealed copy.
    pub locations: Vec<NodeId>,
    /// The node a pushed copy is on its way to, until it lands there.
    /// Not a location; only [`ObjectInfo::holders_ranked`] reads it.
    pub inbound: Option<Inbound>,
}

impl ObjectInfo {
    fn unsealed(producer: Option<TaskId>) -> ObjectInfo {
        ObjectInfo {
            size: 0,
            sealed: false,
            producer,
            locations: Vec::new(),
            inbound: None,
        }
    }

    /// Whether a copy pushed by the producer is still expected on
    /// `local`: announced to it and not yet expired.
    pub fn awaits_push(&self, local: NodeId) -> bool {
        self.inbound
            .is_some_and(|inbound| inbound.node == local && now_nanos() < inbound.until_nanos)
    }

    /// Whether at least one sealed copy exists.
    pub fn is_available(&self) -> bool {
        self.sealed && !self.locations.is_empty()
    }

    /// Every holder of a sealed copy (excluding `local`), ranked by the
    /// shared rendezvous hash of `(object, reader)`: the first entry is
    /// the holder `local` should pull from, and the rest are the retry
    /// order when holders turn out to be dead or partitioned. The
    /// ranking is deterministic per `(object, local)`, so concurrent
    /// consumers on one node group their fetches identically — while
    /// *different* reader nodes of a multi-holder object fan out across
    /// holders instead of all funnelling to one. With a single remote
    /// holder there is nothing to rank.
    ///
    /// Empty while a pushed copy is expected on `local`
    /// ([`ObjectInfo::awaits_push`]): the reader asks nobody and
    /// completes on the local seal; asked again after the announcement
    /// has expired, it is handed the holders as usual.
    pub fn holders_ranked(&self, object: ObjectId, local: NodeId) -> Vec<NodeId> {
        if !self.is_available() || self.awaits_push(local) {
            return Vec::new();
        }
        rendezvous_rank(
            object,
            local.0 as u64,
            self.locations.iter().copied().filter(|n| *n != local),
        )
    }
}

/// Bit of the record's flag byte (bit 0 is `sealed`, the byte a `bool`
/// encodes to) saying an [`Inbound`] follows the locations. A record
/// without one is byte for byte what it was before announcements
/// existed — in particular a one-holder result record stays 24 bytes,
/// the most a `Bytes` keeps inline.
const HAS_INBOUND: u8 = 2;

impl Codec for ObjectInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.size);
        w.put_u8(u8::from(self.sealed) | (u8::from(self.inbound.is_some()) * HAS_INBOUND));
        self.producer.encode(w);
        self.locations.encode(w);
        if let Some(inbound) = &self.inbound {
            inbound.node.encode(w);
            w.put_varint(inbound.until_nanos);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let size = r.take_varint()?;
        let flags = r.take_u8()?;
        if flags > (1 | HAS_INBOUND) {
            return Err(Error::Codec(format!("invalid ObjectInfo flags {flags}")));
        }
        Ok(ObjectInfo {
            size,
            sealed: flags & 1 != 0,
            producer: Option::<TaskId>::decode(r)?,
            locations: Vec::<NodeId>::decode(r)?,
            inbound: match flags & HAS_INBOUND != 0 {
                true => Some(Inbound {
                    node: NodeId::decode(r)?,
                    until_nanos: r.take_varint()?,
                }),
                false => None,
            },
        })
    }
}

/// Typed object-table handle.
#[derive(Clone)]
pub struct ObjectTable {
    kv: Arc<KvStore>,
    /// Shared by every clone of the handle.
    late_pushes: Arc<Counter>,
}

impl ObjectTable {
    /// Creates a handle over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        ObjectTable {
            kv,
            late_pushes: Arc::default(),
        }
    }

    /// Registers the count of copies that landed on a node only after
    /// the announcement naming it had expired — its readers had given up
    /// on the push and pulled, or the push was that late — over this
    /// handle and its clones (`objects.late_pushes`).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let late = self.late_pushes.clone();
        registry.register_value("objects.late_pushes", move || late.get());
    }

    fn key(object: ObjectId) -> Bytes {
        super::id_key(PREFIX, object.unique())
    }

    /// Declares an object and (optionally) its producing task.
    ///
    /// Task return objects no longer need this — their IDs embed the
    /// producer ([`ObjectId::producer_task`]) and the submission hot path
    /// writes no object records at all. Declaring is still useful to
    /// make a producer-less record exist before its value does (driver
    /// `put`s) and to pin an explicit producer in tests.
    ///
    /// Keeps an existing record's locations if the object was already
    /// declared (reconstruction re-declares).
    pub fn declare(&self, object: ObjectId, producer: Option<TaskId>) {
        self.kv.update(Self::key(object), |cur| {
            let mut info = cur
                .and_then(|bytes| decode_from_slice::<ObjectInfo>(bytes).ok())
                .unwrap_or(ObjectInfo::unsealed(producer));
            if info.producer.is_none() {
                info.producer = producer;
            }
            Some(encode_to_bytes(&info))
        });
    }

    /// Records that `node` now holds a sealed copy of `object` of `size`
    /// bytes. Notifies subscribers (this is the wake-up edge for blocked
    /// `get`s and `wait`s).
    pub fn add_location(&self, object: ObjectId, node: NodeId, size: u64) {
        self.add_location_many(&[(object, size)], node);
    }

    /// [`ObjectTable::add_location`] by the producer of a result it has
    /// also sent, unasked, to `inbound.node`: the announcement rides the
    /// seal's own commit, so whoever sees the object sealed sees where
    /// its second copy is headed (see the module docs). A node already
    /// listed is not announced.
    pub fn add_location_pushed(&self, object: ObjectId, node: NodeId, size: u64, inbound: Inbound) {
        self.commit_locations(&[(object, size)], node, Some(inbound));
    }

    /// Batched [`ObjectTable::add_location`]: records that `node` holds
    /// sealed copies of every `(object, size)` pair, one lock
    /// acquisition per touched shard instead of one per object — the
    /// object-table half of a multi-object fetch completion. A copy
    /// that was announced to `node` has landed: the announcement goes.
    pub fn add_location_many(&self, entries: &[(ObjectId, u64)], node: NodeId) {
        self.commit_locations(entries, node, None);
    }

    fn commit_locations(&self, entries: &[(ObjectId, u64)], node: NodeId, push: Option<Inbound>) {
        let late_pushes = &*self.late_pushes;
        self.kv.update_many(
            entries
                .iter()
                .map(|(object, size)| {
                    let size = *size;
                    let producer = object.producer_task();
                    let update = move |cur: Option<&Bytes>| {
                        let mut info = cur
                            .and_then(|b| decode_from_slice::<ObjectInfo>(b).ok())
                            .unwrap_or(ObjectInfo::unsealed(producer));
                        info.sealed = true;
                        info.size = size;
                        if !info.locations.contains(&node) {
                            info.locations.push(node);
                        }
                        if let Some(landed) = info.inbound.filter(|inbound| inbound.node == node) {
                            info.inbound = None;
                            if now_nanos() >= landed.until_nanos {
                                late_pushes.inc();
                            }
                        }
                        if let Some(push) = push.filter(|p| !info.locations.contains(&p.node)) {
                            info.inbound = Some(push);
                        }
                        Some(encode_to_bytes(&info))
                    };
                    (Self::key(*object), update)
                })
                .collect(),
        );
    }

    /// Records that `node` no longer holds `object` (eviction or node
    /// failure). The record itself persists — the lineage must survive the
    /// last copy so reconstruction can find the producer.
    pub fn remove_location(&self, object: ObjectId, node: NodeId) {
        self.remove_location_many(&[object], node);
    }

    /// Batched [`ObjectTable::remove_location`]: drops `node` from every
    /// listed object's location set as one group commit — the shape of
    /// an eviction sweep or a node death.
    pub fn remove_location_many(&self, objects: &[ObjectId], node: NodeId) {
        self.kv.update_many(
            objects
                .iter()
                .map(|object| {
                    let update = move |cur: Option<&Bytes>| {
                        let bytes = cur?;
                        let mut info = decode_from_slice::<ObjectInfo>(bytes).ok()?;
                        info.locations.retain(|n| *n != node);
                        Some(encode_to_bytes(&info))
                    };
                    (Self::key(*object), update)
                })
                .collect(),
        );
    }

    /// Decodes a stored record of `object` (what a raw message of
    /// [`ObjectInfoUpdates::receiver`] carries), synthesizing the
    /// producer from the ID when the record carries none. `None` for an
    /// undecodable record (foreign writes to an object key are a bug,
    /// but a stuck waiter would be worse).
    pub fn decode(object: ObjectId, bytes: &[u8]) -> Option<ObjectInfo> {
        let mut info: ObjectInfo = decode_from_slice(bytes).ok()?;
        if info.producer.is_none() {
            info.producer = object.producer_task();
        }
        Some(info)
    }

    /// Reads the record for `object`, synthesizing the producer from the
    /// ID when the stored record carries none.
    pub fn get(&self, object: ObjectId) -> Option<ObjectInfo> {
        Self::decode(object, &self.kv.get(&Self::key(object))?)
    }

    /// Batched point reads: `out[i]` is the record for `objects[i]`,
    /// with one lock acquisition per touched shard. One object takes
    /// [`ObjectTable::get`]'s path.
    pub fn get_many(&self, objects: &[ObjectId]) -> Vec<Option<ObjectInfo>> {
        if let [object] = objects {
            return vec![self.get(*object)];
        }
        let keys = super::id_keys_arena(PREFIX, objects.iter().map(|o| o.unique()));
        self.kv
            .get_many(&keys)
            .into_iter()
            .zip(objects)
            .map(|(b, object)| Self::decode(*object, &b?))
            .collect()
    }

    /// Subscribes to the record: current value plus a decoded update
    /// stream. The subscription is atomic with respect to writers and
    /// ends when the stream is dropped.
    pub fn subscribe(&self, object: ObjectId) -> (Option<ObjectInfo>, ObjectInfoStream) {
        let (mut current, sub) = self.kv.subscribe_many(&[Self::key(object)]);
        let current = current
            .pop()
            .flatten()
            .and_then(|b| Self::decode(object, &b));
        (current, ObjectInfoStream { object, sub })
    }

    /// A stream for the records of many objects at once, empty to begin
    /// with: [`ObjectInfoUpdates::add`] subscribes it to objects and
    /// [`ObjectInfoUpdates::retire`] ends their subscriptions while it
    /// lives; dropping it unsubscribes whatever is left.
    pub fn updates(&self) -> ObjectInfoUpdates {
        let (_, sub) = self.kv.subscribe_many(&[]);
        ObjectInfoUpdates {
            kv: self.kv.clone(),
            sub,
        }
    }

    /// Whether a sealed copy of `object` exists anywhere.
    pub fn is_available(&self, object: ObjectId) -> bool {
        self.get(object).is_some_and(|info| info.is_available())
    }
}

/// A decoded subscription stream of one object's [`ObjectInfo`]
/// updates, each read as [`ObjectTable::decode`] reads a record.
pub struct ObjectInfoStream {
    object: ObjectId,
    sub: Subscription,
}

impl ObjectInfoStream {
    /// Blocks until the next update or `timeout`. Undecodable records
    /// are skipped.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<ObjectInfo> {
        loop {
            let (_, bytes) = self.sub.recv_timeout(timeout).ok()?;
            if let Some(info) = ObjectTable::decode(self.object, &bytes) {
                return Some(info);
            }
        }
    }
}

/// The update stream of an [`ObjectTable::updates`]: every write to any
/// subscribed record, on one channel.
pub struct ObjectInfoUpdates {
    kv: Arc<KvStore>,
    sub: Subscription,
}

impl ObjectInfoUpdates {
    /// Subscribes this stream to more records: `out[i]` is the current
    /// record of `entries[i]`'s object, read atomically with its
    /// registration (one lock acquisition per touched shard), and its
    /// later updates arrive tagged with `entries[i].0`. A tag reused
    /// for another object after [`ObjectInfoUpdates::retire`] may still
    /// meet an update of the old one on the channel; a caller that
    /// retires hands out fresh tags.
    pub fn add(&mut self, entries: &[(usize, ObjectId)]) -> Vec<Option<ObjectInfo>> {
        let keys = super::id_keys_arena(PREFIX, entries.iter().map(|(_, o)| o.unique()));
        let tagged: Vec<(usize, Bytes)> = entries.iter().map(|(tag, _)| *tag).zip(keys).collect();
        self.kv
            .subscribe_more(&mut self.sub, &tagged)
            .into_iter()
            .zip(entries)
            .map(|(b, (_, object))| ObjectTable::decode(*object, &b?))
            .collect()
    }

    /// Ends the subscription of `object`, if it has one (one lock
    /// acquisition); the stream lives on for the rest.
    pub fn retire(&mut self, object: ObjectId) {
        self.kv
            .unsubscribe(&mut self.sub, &ObjectTable::key(object));
    }

    /// The raw channel — block on it, poll it, or `select!` over it. A
    /// raw message is the tag its object was subscribed under, then the
    /// encoded record ([`ObjectTable::decode`]).
    pub fn receiver(&self) -> &Receiver<(usize, Bytes)> {
        &self.sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::DriverId;
    use std::time::Duration;

    /// The holder a reader on `local` pulls `object` from.
    fn pick(info: &ObjectInfo, object: ObjectId, local: NodeId) -> Option<NodeId> {
        info.holders_ranked(object, local).first().copied()
    }

    fn ids() -> (ObjectId, TaskId) {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let task = root.child(0);
        (task.return_object(0), task)
    }

    #[test]
    fn declare_then_seal() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, task) = ids();
        table.declare(obj, Some(task));
        let info = table.get(obj).unwrap();
        assert!(!info.sealed);
        assert_eq!(info.producer, Some(task));
        assert!(!table.is_available(obj));

        table.add_location(obj, NodeId(1), 64);
        let info = table.get(obj).unwrap();
        assert!(info.sealed);
        assert_eq!(info.size, 64);
        assert_eq!(info.locations, vec![NodeId(1)]);
        assert!(table.is_available(obj));
    }

    #[test]
    fn add_location_is_idempotent() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, _) = ids();
        table.add_location(obj, NodeId(1), 64);
        table.add_location(obj, NodeId(1), 64);
        table.add_location(obj, NodeId(2), 64);
        let info = table.get(obj).unwrap();
        assert_eq!(info.locations, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn remove_location_preserves_lineage() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, task) = ids();
        table.declare(obj, Some(task));
        table.add_location(obj, NodeId(1), 8);
        table.remove_location(obj, NodeId(1));
        let info = table.get(obj).unwrap();
        assert!(info.locations.is_empty());
        assert!(!info.is_available());
        // The producer edge must survive losing the last copy.
        assert_eq!(info.producer, Some(task));
    }

    #[test]
    fn declare_after_seal_keeps_locations() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, task) = ids();
        table.add_location(obj, NodeId(3), 16);
        table.declare(obj, Some(task));
        let info = table.get(obj).unwrap();
        assert_eq!(info.locations, vec![NodeId(3)]);
        assert_eq!(info.producer, Some(task));
    }

    #[test]
    fn add_and_remove_location_many_match_singles() {
        let kv = KvStore::new(4);
        let table = ObjectTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let entries: Vec<(ObjectId, u64)> = (0..12)
            .map(|i| (root.child(i).return_object(0), 8 + i))
            .collect();
        table.add_location_many(&entries, NodeId(2));
        for (object, size) in &entries {
            let info = table.get(*object).unwrap();
            assert!(info.sealed);
            assert_eq!(info.size, *size);
            assert_eq!(info.locations, vec![NodeId(2)]);
        }
        let objects: Vec<ObjectId> = entries.iter().map(|(o, _)| *o).collect();
        table.remove_location_many(&objects[..6], NodeId(2));
        for (i, object) in objects.iter().enumerate() {
            let info = table.get(*object).unwrap();
            if i < 6 {
                assert!(info.locations.is_empty());
                assert!(info.sealed, "lineage record must survive the last copy");
            } else {
                assert_eq!(info.locations, vec![NodeId(2)]);
            }
        }
    }

    #[test]
    fn get_many_is_positional_across_shards() {
        let kv = KvStore::new(4);
        let table = ObjectTable::new(kv);
        let root = TaskId::driver_root(DriverId::from_index(0));
        let objects: Vec<ObjectId> = (0..20).map(|i| root.child(i).return_object(0)).collect();
        for (i, object) in objects.iter().enumerate() {
            if i % 2 == 0 {
                table.add_location(*object, NodeId(1), i as u64);
            }
        }
        let infos = table.get_many(&objects);
        for (i, info) in infos.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(info.as_ref().unwrap().size, i as u64);
            } else {
                assert!(info.is_none());
            }
        }
    }

    #[test]
    fn holders_ranked_excludes_local_and_spreads_readers() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, _) = ids();
        for node in [NodeId(1), NodeId(2), NodeId(3)] {
            table.add_location(obj, node, 8);
        }
        let info = table.get(obj).unwrap();
        // A holder never fetches from itself.
        for reader in [NodeId(1), NodeId(2), NodeId(3)] {
            let ranked = info.holders_ranked(obj, reader);
            assert_eq!(ranked.len(), 2);
            assert!(!ranked.contains(&reader));
            // Deterministic per (object, reader).
            assert_eq!(ranked, info.holders_ranked(obj, reader));
        }
        // Distinct readers spread over the holder set instead of all
        // funnelling to one node.
        let picks: std::collections::HashSet<NodeId> = (10..40)
            .map(|reader| pick(&info, obj, NodeId(reader)).unwrap())
            .collect();
        assert!(picks.len() >= 2, "no spread: {picks:?}");
    }

    #[test]
    fn holders_ranked_is_empty_until_sealed() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, task) = ids();
        table.declare(obj, Some(task));
        let info = table.get(obj).unwrap();
        assert!(info.holders_ranked(obj, NodeId(5)).is_empty());
        assert_eq!(pick(&info, obj, NodeId(5)), None);
    }

    #[test]
    fn a_pushed_copy_is_announced_to_its_node_only_until_it_lands_or_expires() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let registry = MetricsRegistry::new();
        table.register_metrics(&registry);
        let late_pushes = || registry.get("objects.late_pushes").unwrap();
        let (obj, _) = ids();
        let live = Inbound {
            node: NodeId(0),
            until_nanos: u64::MAX,
        };
        table.add_location_pushed(obj, NodeId(1), 8, live);
        let info = table.get(obj).unwrap();
        // Announced, not located.
        assert_eq!(info.locations, vec![NodeId(1)]);
        assert_eq!(info.inbound, Some(live));
        // The announced node asks nobody; any other reader pulls as ever.
        assert!(info.awaits_push(NodeId(0)));
        assert!(info.holders_ranked(obj, NodeId(0)).is_empty());
        assert_eq!(pick(&info, obj, NodeId(0)), None);
        assert_eq!(pick(&info, obj, NodeId(2)), Some(NodeId(1)));
        // The copy lands: the receiver's own commit ends the announcement.
        table.add_location(obj, NodeId(0), 8);
        let info = table.get(obj).unwrap();
        assert_eq!(info.locations, vec![NodeId(1), NodeId(0)]);
        assert_eq!(info.inbound, None);
        assert_eq!(late_pushes(), 0);
        // A replayed seal does not announce a node that already holds it.
        table.add_location_pushed(obj, NodeId(1), 8, live);
        assert_eq!(table.get(obj).unwrap().inbound, None);

        // An expired announcement is inert: the reader pulls at once.
        let other = ids().1.child(7).return_object(0);
        let stale = Inbound {
            node: NodeId(0),
            until_nanos: 0,
        };
        table.add_location_pushed(other, NodeId(1), 8, stale);
        let info = table.get(other).unwrap();
        assert!(!info.awaits_push(NodeId(0)));
        assert_eq!(pick(&info, other, NodeId(0)), Some(NodeId(1)));
        // Somebody else's location commit leaves an announcement alone.
        table.add_location(other, NodeId(2), 8);
        assert_eq!(table.get(other).unwrap().inbound, Some(stale));
        // The announced node's copy arriving now can only have been
        // pulled: counted, on every clone of the handle.
        table.clone().add_location(other, NodeId(0), 8);
        assert_eq!(table.get(other).unwrap().inbound, None);
        assert_eq!(late_pushes(), 1);
    }

    #[test]
    fn a_record_without_an_announcement_stays_inline_sized() {
        let (obj, task) = ids();
        let mut info = ObjectInfo::unsealed(Some(task));
        info.sealed = true;
        info.size = 8;
        info.locations.push(NodeId(1));
        assert_eq!(encode_to_bytes(&info).len(), 24);
        info.inbound = Some(Inbound {
            node: NodeId(0),
            until_nanos: 1 << 40,
        });
        let bytes = encode_to_bytes(&info);
        assert!(bytes.len() > 24);
        assert_eq!(ObjectTable::decode(obj, &bytes), Some(info));
        // Flag bits nobody defined are a corrupt record, not a guess.
        let mut corrupt = bytes.to_vec();
        corrupt[1] |= 4;
        assert!(decode_from_slice::<ObjectInfo>(&corrupt).is_err());
    }

    #[test]
    fn subscription_wakes_on_seal() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, task) = ids();
        table.declare(obj, Some(task));
        let (cur, stream) = table.subscribe(obj);
        assert!(cur.is_some());
        assert!(!cur.unwrap().sealed);

        let t2 = table.clone();
        std::thread::spawn(move || {
            t2.add_location(obj, NodeId(0), 10);
        });
        let info = stream.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(info.sealed);
    }

    #[test]
    fn subscribe_many_reports_current_then_updates_on_one_stream() {
        let kv = KvStore::new(4);
        let table = ObjectTable::new(kv.clone());
        let root = TaskId::driver_root(DriverId::from_index(0));
        let objects: Vec<ObjectId> = (0..32).map(|i| root.child(i).return_object(0)).collect();
        table.add_location(objects[3], NodeId(1), 8);
        let mut updates = table.updates();
        let tagged: Vec<(usize, ObjectId)> = objects.iter().copied().enumerate().collect();
        let current = updates.add(&tagged);
        for (i, info) in current.iter().enumerate() {
            assert_eq!(info.is_some(), i == 3);
        }
        assert_eq!(current[3].as_ref().unwrap().producer, Some(root.child(3)));
        assert!(updates.receiver().try_recv().is_err());
        for object in objects.iter().rev() {
            table.add_location(*object, NodeId(2), 16);
        }
        // One writer, one channel: updates arrive in write order,
        // whichever shards the records live on.
        for (i, object) in objects.iter().enumerate().rev() {
            let raw = updates
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .unwrap();
            assert_eq!(raw.0, i);
            let info = ObjectTable::decode(*object, &raw.1).unwrap();
            assert!(info.locations.contains(&NodeId(2)));
            assert_eq!(info.producer, object.producer_task());
        }
        // A retired object's later updates no longer arrive; the rest do.
        updates.retire(objects[5]);
        assert_eq!(kv.subscriber_count(), 31);
        table.add_location(objects[5], NodeId(3), 16);
        table.add_location(objects[6], NodeId(3), 16);
        assert_eq!(updates.receiver().try_recv().unwrap().0, 6);
        assert!(updates.receiver().try_recv().is_err());
        drop(updates);
        assert_eq!(kv.subscriber_count(), 0);
    }

    #[test]
    fn seal_without_declare_still_has_lineage() {
        // The submission hot path writes no object records: the first
        // record an object gets comes from its seal. The producer edge
        // must still be there — it rides inside the ID.
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, task) = ids();
        table.add_location(obj, NodeId(4), 32);
        let info = table.get(obj).unwrap();
        assert_eq!(info.producer, Some(task));
        assert_eq!(
            table.get_many(&[obj])[0].as_ref().unwrap().producer,
            Some(task)
        );
        let (cur, _stream) = table.subscribe(obj);
        assert_eq!(cur.unwrap().producer, Some(task));
        // Losing the last copy keeps the edge (it is not erasable).
        table.remove_location(obj, NodeId(4));
        assert_eq!(table.get(obj).unwrap().producer, Some(task));
    }

    #[test]
    fn missing_object_is_none() {
        let kv = KvStore::new(2);
        let table = ObjectTable::new(kv);
        let (obj, _) = ids();
        assert!(table.get(obj).is_none());
        assert!(!table.is_available(obj));
    }
}
