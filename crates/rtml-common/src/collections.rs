//! Hot-path collections for the scheduler and control plane.
//!
//! The placement hot path used to run on `BTreeMap` (ordered, pointer-heavy)
//! and on `std::collections::HashMap` with its default SipHash hasher
//! (keyed, DoS-resistant, and slow for the 4–16 byte identifiers this
//! workspace uses everywhere). This module provides the purpose-built
//! replacement: [`FastMap`] / [`FastSet`], `HashMap`/`HashSet`
//! parameterised with a deterministic 64-bit FNV-1a hasher
//! ([`FnvHasher`]). FNV is a couple of multiplies for a 16-byte id, and
//! because the hasher is *unkeyed* the table layout is a pure function of
//! insertion history — the same run produces the same table on every
//! machine, which keeps the determinism suite meaningful. Scheduler code
//! must still never depend on iteration order for *placement decisions*
//! (ties are broken by explicit total orders); the fixed hasher just
//! removes per-process randomness.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic (unkeyed) 64-bit FNV-1a [`Hasher`].
///
/// Chosen over SipHash for the control-plane hot maps: keys are short fixed
/// identifiers ([`crate::ids::UniqueId`], [`crate::ids::NodeId`]) produced
/// internally, so hash-flooding resistance buys nothing and the keyed
/// random state would make table layout differ run-to-run.
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
        for &b in bytes {
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

/// Hash `bytes` with 64-bit FNV-1a in one call (used for deterministic
/// tie-breaking where a full [`Hasher`] round-trip is overkill).
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
    fn fnv_hasher_is_deterministic_and_spreads() {
        let h1 = fnv1a_64(b"node-1");
        let h2 = fnv1a_64(b"node-2");
        assert_ne!(h1, h2);
        // Known FNV-1a test vector: empty input hashes to the offset basis.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        // The Hasher impl agrees with the one-shot function.
        let mut hasher = FnvHasher::default();
        hasher.write(b"node-1");
        assert_eq!(hasher.finish(), h1);
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
