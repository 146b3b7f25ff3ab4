//! The per-node in-memory object store (paper Figure 3, "Object Store /
//! Shared Memory").
//!
//! Every node runs one store. Workers on the node share it through an
//! `Arc`, and because sealed objects are immutable [`bytes::Bytes`],
//! handing an object to a worker is a reference-count bump — the
//! in-process equivalent of the paper's shared-memory segment.
//!
//! Semantics:
//!
//! - Objects are **immutable once sealed** ([`ObjectStore::put`] inserts a
//!   sealed object; double-puts of identical bytes are idempotent, which
//!   is exactly what lineage replay produces).
//! - A seal wakes only who asked for that object: a blocked reader
//!   ([`ObjectStore::wait_local`], a `get`) or a local scheduler whose
//!   waiting task lacks it registers the object in the store's
//!   per-object local-seal table ([`ObjectStore::subscribe_local_many`])
//!   and takes what fired when its channel wakes it — once per
//!   threshold of seals it chose, not once per seal. There is no
//!   broadcast of every seal.
//! - The store is **capacity-bounded**; puts evict least-recently-used,
//!   unpinned objects. Evicted objects are not gone from the system: the
//!   object table keeps their lineage so they can be reconstructed
//!   (`rtml-runtime`) — the paper's answer to bounded memory.
//! - Arguments of running tasks are **pinned** so the scheduler's
//!   placement decisions stay valid while the task runs.
//!
//! Cross-node movement lives in [`transfer`]: each node runs one object
//! plane: a [`transfer::FetchAgent`] for the node's callers and a
//! [`transfer::PlaneCore`] that the node's control loop runs on the
//! node's one endpoint. It answers its peers' requests over the simulated fabric
//! — chunking large objects into size-capped frames
//! ([`StoreConfig::chunk_bytes`]) and coalescing multi-object requests
//! into one reply stream — and issues the node's own, assembling chunks
//! as they arrive and single-flighting concurrent fetches of the same
//! object. Nothing copies the payload: a chunk's body is a window of
//! the holder's sealed copy, and the reader seals the windows it was
//! sent, joined back into that one buffer. An object a node has asked
//! for but not yet sealed is kept in its agent's unsealed table, from
//! which the same thread **relays** it: a holder streaming a hot object
//! hands later readers down a chain of earlier ones, each passing
//! chunks on as they arrive, so the object leaves its holder once.
//!
//! There is no replication plane: nothing copies an object ahead of
//! demand. A hot object spreads because every reader that seals a copy
//! becomes a holder the next reader may pick, and because a burst of
//! readers is served by one relayed stream.

pub mod store;
pub mod transfer;

pub use store::{
    LocalSealGuard, ObjectStore, PutOutcome, StoreConfig, StoreStats, DEFAULT_CHUNK_BYTES,
};
pub use transfer::{
    chunk_frames, FetchAgent, FetchResult, Fetched, PlaneCore, TransferDirectory, TransferService,
    TransferStats, PUSH_MAX_BYTES,
};
