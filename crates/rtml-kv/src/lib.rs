//! The logically-centralized control plane for rtml (paper §3.2.1).
//!
//! The paper stores **all** system control state — the object table, task
//! table, function table, and event logs — in a sharded key-value store
//! with publish-subscribe, so that every other component is stateless and
//! recoverable by restart. The paper's prototype used Redis; this crate is
//! a from-scratch replacement providing exactly the operations the paper
//! requires:
//!
//! - exact-match get/set/delete on hashed keys,
//! - atomic read-modify-write (for location sets),
//! - append-only logs (for lineage-ordered event streams, and for the
//!   task table: its spec segments and its one state log, where a
//!   batch's transition is one record, read back through a lazily
//!   folded index),
//! - per-key publish-subscribe with *current value + subsequent updates*
//!   semantics (no lost-update window): a [`Subscription`] carries any
//!   number of keys on one channel, each update tagged with its key's
//!   position, and unsubscribes when it is dropped, and
//! - hash sharding for horizontal throughput scaling (requirement R2).
//!
//! # Examples
//!
//! ```
//! use rtml_kv::KvStore;
//! use bytes::Bytes;
//!
//! let kv = KvStore::new(4);
//! let (a, b) = (Bytes::from_static(b"a"), Bytes::from_static(b"b"));
//! kv.set(a.clone(), Bytes::from_static(b"v1"));
//! let (current, updates) = kv.subscribe_many(&[a.clone(), b.clone()]);
//! assert_eq!(current, [Some(Bytes::from_static(b"v1")), None]);
//! kv.set(b, Bytes::from_static(b"v2"));
//! assert_eq!(updates.recv().unwrap(), (1, Bytes::from_static(b"v2")));
//! drop(updates);
//! assert_eq!(kv.subscriber_count(), 0);
//! ```

pub mod segment;
pub mod shard;
pub mod store;
pub mod tables;

pub use segment::SegmentIndex;
pub use shard::Subscription;
pub use store::{KvStats, KvStore};
pub use tables::event_log::EventLog;
pub use tables::function_table::{FunctionInfo, FunctionTable};
pub use tables::object_table::{Inbound, ObjectInfo, ObjectInfoUpdates, ObjectTable};
pub use tables::task_table::TaskTable;
pub use tables::telemetry::{TelemetryRecord, TelemetryTable};
