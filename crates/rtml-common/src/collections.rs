//! Hot-path collections for the scheduler and control plane.
//!
//! The placement hot path used to run on `BTreeMap` (ordered, pointer-heavy)
//! and on `std::collections::HashMap` with its default SipHash hasher
//! (keyed, DoS-resistant, and slow for the 4–16 byte identifiers this
//! workspace uses everywhere). This module provides the purpose-built
//! replacement: [`FastMap`] / [`FastSet`], `HashMap`/`HashSet`
//! parameterised with a deterministic 64-bit FNV-1a hasher
//! ([`FnvHasher`]). It folds 8 bytes per multiply, so a 16-byte id costs
//! two, and because the hasher is *unkeyed* the table layout is a pure
//! function of insertion history — the same run produces the same table
//! on every machine, which keeps the determinism suite meaningful. The
//! control plane's maps and its key → shard routing hash through it too,
//! so the two can never drift apart. Scheduler code must still never
//! depend on iteration order for *placement decisions* (ties are broken
//! by explicit total orders); the fixed hasher just removes per-process
//! randomness.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic (unkeyed) 64-bit FNV-1a [`Hasher`] that folds 8
/// bytes per multiply instead of the textbook 1.
///
/// Chosen over SipHash for the control-plane hot maps: keys are short fixed
/// identifiers ([`crate::ids::UniqueId`], [`crate::ids::NodeId`], kv keys
/// of a prefix and a 128-bit id) produced internally, so hash-flooding
/// resistance buys nothing and the keyed random state would make table
/// layout differ run-to-run. Those keys are already-hashed ids, so every
/// 8-byte chunk is high-entropy and one multiply mixes plenty for bucket
/// selection, at an eighth of the byte-wise cost. Input shorter than 8
/// bytes hashes as byte-wise FNV-1a does ([`fnv1a_64`]).
#[derive(Clone, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV64_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            h ^= u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
            h = h.wrapping_mul(FNV64_PRIME);
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV64_PRIME);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`std::hash::BuildHasher`] for [`FnvHasher`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` with the deterministic FNV-1a hasher — the drop-in
/// replacement for `BTreeMap`/SipHash maps on scheduler hot paths.
pub type FastMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` with the deterministic FNV-1a hasher.
pub type FastSet<T> = HashSet<T, FnvBuildHasher>;

/// A [`Hasher`] for keys that are already hashes: an id
/// ([`crate::ids::UniqueId`], and the object and task ids built on it)
/// is a 128-bit FNV-1a value, so its low 64 bits are its hash as they
/// stand. Hashing them again — SipHash, or [`FnvHasher`]'s multiplies —
/// spends CPU for no better spread. A key written as bytes rather than
/// as one integer is folded as [`FnvHasher`] folds it.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher(FNV64_OFFSET)
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut fnv = FnvHasher(self.0);
        fnv.write(bytes);
        self.0 = fnv.finish();
    }

    fn write_u128(&mut self, id: u128) {
        self.0 = id as u64;
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by ids, hashed by their own bits ([`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed by their own bits ([`IdHasher`]).
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// A [`FastMap`] pre-sized for `capacity` entries (no rehash up to that
/// size). `FastMap::with_capacity` is unavailable because the hasher is
/// non-default-typed; this free function fills the gap.
pub fn fast_map_with_capacity<K, V>(capacity: usize) -> FastMap<K, V> {
    FastMap::with_capacity_and_hasher(capacity, FnvBuildHasher::default())
}

/// A [`FastSet`] pre-sized for `capacity` entries.
pub fn fast_set_with_capacity<T>(capacity: usize) -> FastSet<T> {
    FastSet::with_capacity_and_hasher(capacity, FnvBuildHasher::default())
}

/// Hash `bytes` with textbook (byte-wise) 64-bit FNV-1a in one call, for
/// deterministic tie-breaking where a full [`Hasher`] round-trip is
/// overkill. Its values are fixed: placement's tie-breaks read them.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_id_hashes_as_its_own_low_64_bits() {
        use crate::ids::{DriverId, ObjectId, TaskId, UniqueId};
        use std::hash::{BuildHasher, Hash};
        let build = BuildHasherDefault::<IdHasher>::default();
        let raw = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        let id = ObjectId::from_unique(UniqueId::from_u128(raw));
        assert_eq!(build.hash_one(id), 0xfedc_ba98_7654_3210);
        let task = TaskId::driver_root(DriverId::from_index(1)).child(7);
        let object = task.return_object(0);
        assert_eq!(build.hash_one(object), object.unique().as_u128() as u64);
        // Bytes fold as FNV does, so a non-id key still spreads.
        let mut hasher = IdHasher::default();
        b"not an id".hash(&mut hasher);
        let mut fnv = FnvHasher::default();
        b"not an id".hash(&mut fnv);
        assert_eq!(hasher.finish(), fnv.finish());
        let mut map: IdMap<ObjectId, u32> = IdMap::default();
        map.insert(object, 1);
        map.insert(id, 2);
        assert_eq!((map[&object], map[&id]), (1, 2));
        let set: IdSet<ObjectId> = [object, id, object].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn fnv_hasher_is_deterministic_and_spreads() {
        let h1 = fnv1a_64(b"node-1");
        let h2 = fnv1a_64(b"node-2");
        assert_ne!(h1, h2);
        // Known FNV-1a test vector: empty input hashes to the offset basis.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        // The Hasher agrees with the one-shot function below 8 bytes.
        let hash = |bytes: &[u8]| {
            let mut hasher = FnvHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(hash(b"node-1"), h1);
        // Longer input folds 8 bytes a multiply. These values place
        // every control-plane key on its kv shard and in its shard's
        // tables, so they are pinned; the byte-wise values are too.
        assert_eq!(hash(b"key:12345678"), 0xb596_2d7f_ebe3_af8e);
        assert_eq!(hash(b"tstate:0123456789abcdef"), 0x8d55_5912_1e1e_2102);
        assert_eq!(fnv1a_64(b"key:12345678"), 0x5370_0259_759f_fb02);
        assert_eq!(fnv1a_64(b"tstate:0123456789abcdef"), 0x6ecc_d4a5_0d53_82fa);
    }

    #[test]
    fn fast_map_round_trips_and_presizes() {
        let mut m: FastMap<u64, &str> = fast_map_with_capacity(8);
        assert!(m.capacity() >= 8);
        for i in 0..8u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 8);
        assert_eq!(m.get(&3), Some(&"x"));
        let mut s: FastSet<u64> = fast_set_with_capacity(4);
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
