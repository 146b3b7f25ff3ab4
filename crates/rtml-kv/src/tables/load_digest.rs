//! Load-digest table: how sharded global schedulers keep a consistent
//! view of node capacity without cross-shard locks.
//!
//! Each global-scheduler shard places its own slice of the task keyspace
//! against node load reports that arrive on a period. A report counts
//! what its node has ingested; what a shard placed and the node has not
//! ingested yet is on the wire, and a shard only knows *its own* such
//! placements — work a sibling shard just sent is invisible, so every
//! shard would over-place onto the node that was least loaded at the
//! last report. The digest closes that gap: whenever a shard's in-flight
//! count for a node changes (it placed a batch, or a report retired
//! some) it group-commits its per-node counts to one kv key
//! (`gsd:<shard>`), and peers fold all digests in with a single
//! [`crate::store::KvStore::get_many`] sweep. Next to each count rides
//! what those placements made *inbound* to the node: the in-flight
//! tasks' dependencies, which placement counts as present there for the
//! next task that needs them.
//!
//! This is deliberately *eventually* consistent — a shard may act on a
//! digest one report stale. Placement stays deterministic because a
//! shard's decisions are a pure function of the load view it read, and
//! the count is self-correcting: the publisher republishes as soon as a
//! report shows its node ingested what it sent.

use std::sync::Arc;

use bytes::Bytes;

use rtml_common::codec::{decode_from_slice, encode_to_bytes};
use rtml_common::ids::{NodeId, ObjectId};
use rtml_common::impl_codec_struct;

use crate::store::KvStore;

/// Placements one shard has sent to one node that the node has not yet
/// reported ingesting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestEntry {
    /// The node placed onto.
    pub node: NodeId,
    /// Tasks sent to `node` and not in any report of it yet.
    pub in_flight: u64,
    /// Dependencies of those tasks: objects that are on `node` or on
    /// their way there, so placement counts them as present for the
    /// next task that needs them. Bounded by the publisher.
    pub inbound: Vec<ObjectId>,
}

impl_codec_struct!(DigestEntry {
    node,
    in_flight,
    inbound
});

/// One shard's full digest: its in-flight placements for every node it
/// has some on the wire to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadDigest {
    /// Per-node counters; at most one entry per node.
    pub entries: Vec<DigestEntry>,
}

impl_codec_struct!(LoadDigest { entries });

/// Typed handle for publishing and sweeping shard load digests.
#[derive(Clone)]
pub struct LoadDigestTable {
    kv: Arc<KvStore>,
}

impl LoadDigestTable {
    /// Creates a handle over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        LoadDigestTable { kv }
    }

    fn key(shard: u32) -> Bytes {
        let mut buf = [0u8; 8];
        buf[..4].copy_from_slice(b"gsd:");
        buf[4..].copy_from_slice(&shard.to_le_bytes());
        Bytes::copy_from_slice(&buf)
    }

    /// Publishes `shard`'s digest as one group-committed write.
    pub fn publish(&self, shard: u32, digest: &LoadDigest) {
        self.kv.set(Self::key(shard), encode_to_bytes(digest));
    }

    /// Reads every sibling digest (all shards except `self_shard`) in one
    /// group-committed sweep. Positions with no published digest yet are
    /// skipped.
    pub fn sweep(&self, self_shard: u32, num_shards: u32) -> Vec<LoadDigest> {
        let keys: Vec<Bytes> = (0..num_shards)
            .filter(|s| *s != self_shard)
            .map(Self::key)
            .collect();
        if keys.is_empty() {
            return Vec::new();
        }
        self.kv
            .get_many(&keys)
            .into_iter()
            .flatten()
            .filter_map(|b| decode_from_slice(&b).ok())
            .collect()
    }

    /// Clears a shard's digest (on shard shutdown).
    pub fn clear(&self, shard: u32) {
        self.kv.delete(&Self::key(shard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::{DriverId, TaskId};

    fn digest(node: u32, in_flight: u64) -> LoadDigest {
        LoadDigest {
            entries: vec![DigestEntry {
                node: NodeId(node),
                in_flight,
                inbound: Vec::new(),
            }],
        }
    }

    #[test]
    fn publish_then_sweep_sees_siblings_only() {
        let kv = KvStore::new(4);
        let table = LoadDigestTable::new(kv);
        table.publish(0, &digest(1, 7));
        table.publish(1, &digest(2, 3));
        table.publish(2, &digest(1, 1));

        let seen = table.sweep(0, 3);
        assert_eq!(seen.len(), 2);
        assert!(seen.contains(&digest(2, 3)));
        assert!(seen.contains(&digest(1, 1)));
        assert!(!seen.contains(&digest(1, 7)));
    }

    #[test]
    fn sweep_skips_unpublished_and_single_shard() {
        let kv = KvStore::new(2);
        let table = LoadDigestTable::new(kv);
        assert!(table.sweep(0, 4).is_empty());
        // K = 1 has no siblings: the sweep is free.
        table.publish(0, &digest(1, 1));
        assert!(table.sweep(0, 1).is_empty());
    }

    #[test]
    fn clear_removes_digest() {
        let kv = KvStore::new(2);
        let table = LoadDigestTable::new(kv);
        table.publish(3, &digest(5, 2));
        assert_eq!(table.sweep(0, 4).len(), 1);
        table.clear(3);
        assert!(table.sweep(0, 4).is_empty());
    }

    #[test]
    fn digest_codec_round_trips() {
        let d = LoadDigest {
            entries: vec![
                DigestEntry {
                    node: NodeId(0),
                    in_flight: 42,
                    inbound: vec![TaskId::driver_root(DriverId::from_index(1))
                        .child(3)
                        .return_object(0)],
                },
                DigestEntry {
                    node: NodeId(7),
                    in_flight: 0,
                    inbound: Vec::new(),
                },
            ],
        };
        let bytes = encode_to_bytes(&d);
        assert_eq!(decode_from_slice::<LoadDigest>(&bytes).unwrap(), d);
    }
}
