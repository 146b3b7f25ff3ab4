//! Typed views over the control-plane store — the tables of Figure 3.
//!
//! Each table is a thin wrapper that owns an `Arc<KvStore>`, encodes its
//! records with the `rtml-common` codec, and namespaces its keys with a
//! one-byte-ish prefix. All tables on one store share the same shards, so
//! control-plane load from objects, tasks, and events spreads uniformly.

pub mod event_log;
pub mod function_table;
pub mod object_table;
pub mod task_table;
pub mod telemetry;

use bytes::Bytes;
use rtml_common::ids::UniqueId;

/// Builds a namespaced key: `prefix ++ id_bytes`.
pub(crate) fn id_key(prefix: &[u8], id: UniqueId) -> Bytes {
    debug_assert!(prefix.len() <= 8, "table prefix too long for stack key");
    let mut buf = [0u8; 24];
    buf[..prefix.len()].copy_from_slice(prefix);
    buf[prefix.len()..prefix.len() + 16].copy_from_slice(&id.as_u128().to_le_bytes());
    Bytes::copy_from_slice(&buf[..prefix.len() + 16])
}

/// Builds a batch of namespaced keys carved out of **one** arena
/// allocation: `Bytes` has no inline representation, so [`id_key`] costs
/// one heap allocation per key — at batch 4096 that is the dominant
/// key-construction cost on the submission hot path. The arena form
/// allocates once and hands out reference-counted slices; the keys stay
/// alive exactly as long as the map entries that own them, and since the
/// arena consists of nothing but those keys, no dead bytes are pinned.
pub(crate) fn id_keys_arena(prefix: &[u8], ids: impl Iterator<Item = UniqueId>) -> Vec<Bytes> {
    let stride = prefix.len() + 16;
    let mut buf = Vec::new();
    for id in ids {
        buf.extend_from_slice(prefix);
        buf.extend_from_slice(&id.as_u128().to_le_bytes());
    }
    let count = buf.len() / stride;
    let arena = Bytes::from(buf);
    (0..count)
        .map(|i| arena.slice(i * stride..(i + 1) * stride))
        .collect()
}
