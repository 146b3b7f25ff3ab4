//! Deterministic 128-bit identifiers.
//!
//! The paper's control plane shards by key hash and reconstructs lost data
//! by replaying lineage. Both properties hinge on identifier discipline:
//!
//! - **Task IDs** are derived from the parent task's ID plus a per-parent
//!   submission counter, so replaying a deterministic task regenerates the
//!   same child task IDs.
//! - **Object IDs** are derived from the producing task's ID plus the
//!   return-value index, so a replayed task writes its results to the same
//!   object IDs that consumers are already waiting on.
//!
//! All identifiers hash through a 128-bit FNV-1a construction; no external
//! hashing crates are needed and the values are stable across runs,
//! platforms, and processes.

use std::fmt;

use crate::codec::{Codec, Reader, Writer};
use crate::error::Result;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit identifier with a stable, platform-independent representation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UniqueId(u128);

impl UniqueId {
    /// The all-zero identifier, used as the root of ID derivation chains.
    pub const NIL: UniqueId = UniqueId(0);

    /// Builds an identifier directly from a `u128`.
    pub const fn from_u128(value: u128) -> Self {
        UniqueId(value)
    }

    /// Returns the raw 128-bit value.
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// Hashes arbitrary bytes into an identifier (FNV-1a, 128-bit).
    pub fn hash_bytes(bytes: &[u8]) -> Self {
        let mut state = FNV_OFFSET;
        for &b in bytes {
            state ^= b as u128;
            state = state.wrapping_mul(FNV_PRIME);
        }
        UniqueId(state)
    }

    /// Derives a child identifier from `self` and a domain-separation tag
    /// plus counter. Used for task / object ID chains.
    pub fn derive(self, tag: u8, counter: u64) -> Self {
        let mut buf = [0u8; 16 + 1 + 8];
        buf[..16].copy_from_slice(&self.0.to_le_bytes());
        buf[16] = tag;
        buf[17..].copy_from_slice(&counter.to_le_bytes());
        UniqueId::hash_bytes(&buf)
    }

    /// Returns the bucket index in `[0, buckets)` this ID hashes to.
    ///
    /// Used for control-plane sharding: the paper notes that because keys
    /// are hashes, sharding is straightforward.
    pub fn bucket(self, buckets: usize) -> usize {
        debug_assert!(buckets > 0, "bucket count must be positive");
        // Fold the halves so that both low and high bits contribute.
        let folded = (self.0 as u64) ^ ((self.0 >> 64) as u64);
        (folded % buckets as u64) as usize
    }
}

impl fmt::Debug for UniqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Display for UniqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short form: high 8 hex digits are enough for human consumption.
        write!(f, "{:08x}", (self.0 >> 96) as u32)
    }
}

impl Codec for UniqueId {
    fn encode(&self, w: &mut Writer) {
        w.put_u128(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(UniqueId(r.take_u128()?))
    }
}

/// Declares a strongly-typed wrapper around [`UniqueId`].
macro_rules! typed_id {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(UniqueId);

        impl $name {
            /// The all-zero identifier.
            pub const NIL: $name = $name(UniqueId::NIL);

            /// Wraps a raw [`UniqueId`].
            pub const fn from_unique(id: UniqueId) -> Self {
                $name(id)
            }

            /// Returns the underlying [`UniqueId`].
            pub const fn unique(self) -> UniqueId {
                self.0
            }

            /// Returns the shard bucket for this identifier.
            pub fn bucket(self, buckets: usize) -> usize {
                self.0.bucket(buckets)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl Codec for $name {
            fn encode(&self, w: &mut Writer) {
                self.0.encode(w);
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok($name(UniqueId::decode(r)?))
            }
        }
    };
}

typed_id!(
    /// Identifies a single task submission (one function invocation).
    TaskId,
    "T"
);
/// Identifies an immutable object in the distributed object store.
///
/// Unlike the other identifiers, an object ID carries its own lineage
/// edge: the producing task's identifier, the derivation domain, and the
/// derivation counter are embedded alongside the derived 128-bit value
/// (Ray's ObjectID does exactly this). Any holder of the ID can name the
/// producing task without a table lookup, which removes the per-object
/// declare record from the submission hot path entirely.
///
/// Identity — equality, ordering, hashing, display, and the kv key — is
/// the derived [`UniqueId`] alone; the embedded provenance is carried
/// data, not identity.
#[derive(Clone, Copy)]
pub struct ObjectId {
    unique: UniqueId,
    origin: UniqueId,
    tag: u8,
    counter: u64,
}

impl ObjectId {
    /// The all-zero identifier.
    pub const NIL: ObjectId = ObjectId {
        unique: UniqueId::NIL,
        origin: UniqueId::NIL,
        tag: 0,
        counter: 0,
    };

    /// Wraps a raw [`UniqueId`] with no provenance (producer unknown).
    pub const fn from_unique(id: UniqueId) -> Self {
        ObjectId {
            unique: id,
            origin: UniqueId::NIL,
            tag: 0,
            counter: 0,
        }
    }

    /// Returns the underlying [`UniqueId`].
    pub const fn unique(self) -> UniqueId {
        self.unique
    }

    /// Returns the shard bucket for this identifier.
    pub fn bucket(self, buckets: usize) -> usize {
        self.unique.bucket(buckets)
    }

    /// The task that produces this object, embedded at derivation time.
    ///
    /// `Some` only for task return objects — the reconstructible case.
    /// `put` objects and raw IDs report `None`: their values never came
    /// from a replayable task, which is exactly the lineage semantics
    /// the object table used to record in its declare pass.
    pub fn producer_task(self) -> Option<TaskId> {
        (self.tag == TAG_RETURN_OBJECT).then(|| TaskId::from_unique(self.origin))
    }

    /// The return index (for return objects) or put counter this ID was
    /// derived with.
    pub const fn derivation_counter(self) -> u64 {
        self.counter
    }
}

impl PartialEq for ObjectId {
    fn eq(&self, other: &Self) -> bool {
        self.unique == other.unique
    }
}

impl Eq for ObjectId {}

impl std::hash::Hash for ObjectId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.unique.hash(state);
    }
}

impl PartialOrd for ObjectId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ObjectId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.unique.cmp(&other.unique)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({:?})", self.unique)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.unique)
    }
}

impl Codec for ObjectId {
    fn encode(&self, w: &mut Writer) {
        self.unique.encode(w);
        self.origin.encode(w);
        w.put_u8(self.tag);
        w.put_varint(self.counter);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ObjectId {
            unique: UniqueId::decode(r)?,
            origin: UniqueId::decode(r)?,
            tag: r.take_u8()?,
            counter: r.take_varint()?,
        })
    }
}
typed_id!(
    /// Identifies a registered remote function (the function table key).
    FunctionId,
    "F"
);
typed_id!(
    /// Identifies a driver program connected to the cluster.
    DriverId,
    "D"
);
typed_id!(
    /// Identifies an actor (stateful worker extension).
    ActorId,
    "A"
);

// Domain-separation tags for ID derivation. Each derivation context uses a
// distinct tag so that, e.g., the 3rd child task and the 3rd put object of
// the same parent can never collide.
const TAG_CHILD_TASK: u8 = 1;
const TAG_RETURN_OBJECT: u8 = 2;
const TAG_PUT_OBJECT: u8 = 3;
const TAG_DRIVER_ROOT: u8 = 4;
const TAG_ACTOR: u8 = 5;
const TAG_ACTOR_METHOD: u8 = 6;
const TAG_ACTOR_RESULT: u8 = 7;

impl TaskId {
    /// Root task ID for a driver: all IDs in a driver's computation descend
    /// from this.
    pub fn driver_root(driver: DriverId) -> TaskId {
        TaskId(driver.unique().derive(TAG_DRIVER_ROOT, 0))
    }

    /// Deterministically derives the ID for the `counter`-th task submitted
    /// by `self`.
    pub fn child(self, counter: u64) -> TaskId {
        TaskId(self.0.derive(TAG_CHILD_TASK, counter))
    }

    /// Deterministically derives the ID of this task's `index`-th return
    /// object. The producing task rides inside the ID (see [`ObjectId`]).
    pub fn return_object(self, index: u32) -> ObjectId {
        ObjectId {
            unique: self.0.derive(TAG_RETURN_OBJECT, index as u64),
            origin: self.0,
            tag: TAG_RETURN_OBJECT,
            counter: index as u64,
        }
    }

    /// Deterministically derives the ID for the `counter`-th `put`
    /// performed by this task. Put objects carry no replayable producer
    /// (their values did not come from a task invocation), so
    /// [`ObjectId::producer_task`] reports `None` for them.
    pub fn put_object(self, counter: u64) -> ObjectId {
        ObjectId {
            unique: self.0.derive(TAG_PUT_OBJECT, counter),
            origin: self.0,
            tag: TAG_PUT_OBJECT,
            counter,
        }
    }

    /// Deterministically derives an actor ID for the `counter`-th actor
    /// created by this task.
    pub fn actor(self, counter: u64) -> ActorId {
        ActorId(self.0.derive(TAG_ACTOR, counter))
    }

    /// Deterministically derives the ID of this (actor-method) task's
    /// `index`-th result object. Unlike [`TaskId::return_object`], the ID
    /// reports **no** producer: actor methods close over mutable state, so
    /// replaying one is not sound — the lineage edge is deliberately
    /// absent, exactly as the actor runtime used to record via a
    /// producer-less declare.
    pub fn actor_result(self, index: u32) -> ObjectId {
        ObjectId {
            unique: self.0.derive(TAG_ACTOR_RESULT, index as u64),
            origin: self.0,
            tag: TAG_ACTOR_RESULT,
            counter: index as u64,
        }
    }
}

impl ActorId {
    /// Derives the task ID for the `seq`-th method call on this actor.
    pub fn method_task(self, seq: u64) -> TaskId {
        TaskId(self.0.derive(TAG_ACTOR_METHOD, seq))
    }
}

impl FunctionId {
    /// Derives a function ID from its registered name.
    ///
    /// Names are the unit of identity: re-registering the same name yields
    /// the same ID, which is what lets a restarted worker process rebuild
    /// its registry and still satisfy lineage replay.
    pub fn from_name(name: &str) -> FunctionId {
        FunctionId(UniqueId::hash_bytes(name.as_bytes()))
    }
}

impl DriverId {
    /// Builds a driver ID from a small integer handle.
    pub fn from_index(index: u64) -> DriverId {
        let mut buf = [0u8; 9];
        buf[0] = b'd';
        buf[1..].copy_from_slice(&index.to_le_bytes());
        DriverId(UniqueId::hash_bytes(&buf))
    }
}

/// Identifies a node (machine) in the cluster. Dense small integers so that
/// they double as vector indices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the index form of this node ID.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl Codec for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(NodeId(r.take_u32()?))
    }
}

/// Identifies a worker thread: the node it lives on plus a per-node index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct WorkerId {
    /// Node hosting the worker.
    pub node: NodeId,
    /// Index of the worker within its node.
    pub index: u32,
}

impl WorkerId {
    /// Builds a worker ID.
    pub const fn new(node: NodeId, index: u32) -> Self {
        WorkerId { node, index }
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}W{}", self.node, self.index)
    }
}

crate::impl_codec_struct!(WorkerId { node, index });

/// Rendezvous (highest-random-weight) score of `node` for `(object, salt)`.
///
/// 64-bit FNV-1a over the object id, the salt, and the node index. Stable
/// across runs, platforms, and processes: every reader computes the same
/// holder ranking for the same table state.
pub fn rendezvous_score(object: ObjectId, salt: u64, node: NodeId) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut buf = [0u8; 16 + 8 + 4];
    buf[..16].copy_from_slice(&object.unique().as_u128().to_le_bytes());
    buf[16..24].copy_from_slice(&salt.to_le_bytes());
    buf[24..].copy_from_slice(&node.0.to_le_bytes());
    let mut state = OFFSET;
    for &b in &buf {
        state ^= b as u64;
        state = state.wrapping_mul(PRIME);
    }
    state
}

/// Ranks `nodes` by descending rendezvous score for `(object, salt)`,
/// breaking score ties by node id so the order is total.
///
/// One salt, one user: a reader (salt = its node index) ranking an
/// object's holders, so K readers of one object fan out across holders
/// instead of funnelling to one node. Input order does not matter.
pub fn rendezvous_rank(
    object: ObjectId,
    salt: u64,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Vec<NodeId> {
    let mut scored: Vec<(u64, NodeId)> = nodes
        .into_iter()
        .map(|n| (rendezvous_score(object, salt, n), n))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.dedup_by_key(|(_, n)| *n);
    scored.into_iter().map(|(_, n)| n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_bytes_is_stable() {
        // Pinned value: must never change across releases, or lineage replay
        // of persisted state would break.
        let a = UniqueId::hash_bytes(b"hello");
        let b = UniqueId::hash_bytes(b"hello");
        assert_eq!(a, b);
        assert_ne!(a, UniqueId::hash_bytes(b"hellp"));
    }

    #[test]
    fn derivation_is_deterministic() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        assert_eq!(root.child(0), root.child(0));
        assert_eq!(root.return_object(1), root.return_object(1));
        assert_ne!(root.child(0), root.child(1));
    }

    #[test]
    fn derivation_domains_do_not_collide() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        // Same counter, different domains.
        let child = root.child(3).unique();
        let ret = root.return_object(3).unique();
        let put = root.put_object(3).unique();
        assert_ne!(child, ret);
        assert_ne!(child, put);
        assert_ne!(ret, put);
    }

    #[test]
    fn sibling_tasks_have_distinct_objects() {
        let root = TaskId::driver_root(DriverId::from_index(7));
        let mut seen = HashSet::new();
        for c in 0..100 {
            let t = root.child(c);
            for i in 0..3 {
                assert!(seen.insert(t.return_object(i)), "collision at {c}/{i}");
            }
        }
    }

    #[test]
    fn buckets_cover_range() {
        let mut hit = [false; 8];
        for i in 0..1024u64 {
            let id = UniqueId::hash_bytes(&i.to_le_bytes());
            let b = id.bucket(8);
            assert!(b < 8);
            hit[b] = true;
        }
        assert!(hit.iter().all(|&h| h), "all 8 buckets should be hit");
    }

    #[test]
    fn function_id_is_name_stable() {
        assert_eq!(
            FunctionId::from_name("simulate"),
            FunctionId::from_name("simulate")
        );
        assert_ne!(
            FunctionId::from_name("simulate"),
            FunctionId::from_name("train")
        );
    }

    #[test]
    fn display_forms_are_short() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let shown = format!("{root}");
        assert!(shown.starts_with('T'));
        assert!(shown.len() <= 12);
    }

    #[test]
    fn producer_rides_inside_the_object_id() {
        let root = TaskId::driver_root(DriverId::from_index(2));
        let task = root.child(9);
        // Return objects name their producer without any table lookup.
        assert_eq!(task.return_object(1).producer_task(), Some(task));
        assert_eq!(task.return_object(1).derivation_counter(), 1);
        // Puts, actor results, and raw IDs carry no replayable producer.
        assert_eq!(task.put_object(3).producer_task(), None);
        assert_eq!(task.actor_result(0).producer_task(), None);
        let raw = ObjectId::from_unique(task.return_object(1).unique());
        assert_eq!(raw.producer_task(), None);
        // Identity is the derived hash alone: a raw re-wrap is the same key.
        assert_eq!(raw, task.return_object(1));
    }

    #[test]
    fn object_id_codec_round_trips_provenance() {
        let task = TaskId::driver_root(DriverId::from_index(3)).child(4);
        for object in [task.return_object(2), task.put_object(5), ObjectId::NIL] {
            let bytes = crate::codec::encode_to_bytes(&object);
            let back: ObjectId = crate::codec::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, object);
            assert_eq!(back.producer_task(), object.producer_task());
            assert_eq!(back.derivation_counter(), object.derivation_counter());
        }
    }

    #[test]
    fn actor_method_chain_is_deterministic() {
        let root = TaskId::driver_root(DriverId::from_index(1));
        let actor = root.actor(0);
        assert_eq!(actor.method_task(5), actor.method_task(5));
        assert_ne!(actor.method_task(5), actor.method_task(6));
    }
}
