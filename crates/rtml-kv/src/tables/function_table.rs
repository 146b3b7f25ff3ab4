//! The function table: function ID → name and arity.
//!
//! In a multi-process deployment this table would carry serialized
//! closures; in-process we keep the callable in each worker's registry
//! (`rtml-runtime`) and store only metadata here. The metadata is still
//! load-bearing: reconstruction validates that a replayed spec's function
//! is registered, and the profiler resolves IDs back to names.

use std::sync::Arc;

use bytes::Bytes;

use rtml_common::codec::{decode_from_slice, encode_to_bytes};
use rtml_common::ids::FunctionId;

use crate::store::KvStore;

const PREFIX: &[u8] = b"fn:";

/// Metadata for one registered remote function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionInfo {
    /// Stable ID (hash of the name).
    pub id: FunctionId,
    /// Human-readable registered name.
    pub name: String,
    /// Number of arguments the function takes.
    pub arity: u32,
}

rtml_common::impl_codec_struct!(FunctionInfo { id, name, arity });

/// Typed function-table handle.
#[derive(Clone)]
pub struct FunctionTable {
    kv: Arc<KvStore>,
}

impl FunctionTable {
    /// Creates a handle over `kv`.
    pub fn new(kv: Arc<KvStore>) -> Self {
        FunctionTable { kv }
    }

    fn key(id: FunctionId) -> Bytes {
        super::id_key(PREFIX, id.unique())
    }

    /// Registers function metadata (idempotent).
    pub fn register(&self, info: &FunctionInfo) {
        self.kv.set(Self::key(info.id), encode_to_bytes(info));
    }

    /// Looks up metadata by ID.
    pub fn get(&self, id: FunctionId) -> Option<FunctionInfo> {
        let bytes = self.kv.get(&Self::key(id))?;
        decode_from_slice(&bytes).ok()
    }

    /// Resolves an ID to its registered name (for diagnostics).
    pub fn name_of(&self, id: FunctionId) -> Option<String> {
        self.get(id).map(|info| info.name)
    }

    /// Lists all registered functions (tooling path).
    pub fn list(&self) -> Vec<FunctionInfo> {
        self.kv
            .scan_prefix(PREFIX)
            .into_iter()
            .filter_map(|(_k, v)| decode_from_slice(&v).ok())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let kv = KvStore::new(2);
        let table = FunctionTable::new(kv);
        let info = FunctionInfo {
            id: FunctionId::from_name("simulate"),
            name: "simulate".into(),
            arity: 2,
        };
        table.register(&info);
        assert_eq!(table.get(info.id), Some(info.clone()));
        assert_eq!(table.name_of(info.id).as_deref(), Some("simulate"));
        assert!(table.get(FunctionId::from_name("other")).is_none());
    }

    #[test]
    fn list_returns_all() {
        let kv = KvStore::new(2);
        let table = FunctionTable::new(kv);
        for name in ["a", "b", "c"] {
            table.register(&FunctionInfo {
                id: FunctionId::from_name(name),
                name: name.into(),
                arity: 0,
            });
        }
        let mut names: Vec<_> = table.list().into_iter().map(|f| f.name).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn reregistration_is_idempotent() {
        let kv = KvStore::new(2);
        let table = FunctionTable::new(kv);
        let info = FunctionInfo {
            id: FunctionId::from_name("f"),
            name: "f".into(),
            arity: 1,
        };
        table.register(&info);
        table.register(&info);
        assert_eq!(table.list().len(), 1);
    }
}
