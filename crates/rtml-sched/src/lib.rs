//! The hybrid, bottom-up scheduler (paper §3.2.2).
//!
//! The paper's scheduling architecture is the answer to the tension
//! between latency (R1) and throughput (R2) under *dynamic* task creation
//! (R3): tasks are born on whatever worker created them, so scheduling
//! decisions must start at the edge, not at a central choke point.
//!
//! - Every node runs a [`LocalScheduler`]: workers submit tasks to it
//!   directly (an in-process channel — no network hop), and admit a
//!   batch it would accept whole and runnable themselves, through the
//!   same admission function ([`admit`]). It tracks
//!   per-node resource availability, gates tasks on their dataflow
//!   dependencies (a task is dispatched if and only if every object it
//!   consumes is sealed in the local store), and pushes what is runnable
//!   onto the node's [`RunQueue`], from which the node's workers take
//!   their own next task. Getting those objects local is the job of the one
//!   dependency-resolution engine, [`Resolver`], which the runtime's
//!   blocking `get`/`wait` run as well.
//! - When a task's demand can never fit the node, or the local backlog
//!   exceeds the [`SpillMode`] threshold and its measured work takes
//!   longer than a measured round trip, the task **spills over** to a
//!   [`GlobalScheduler`] via the simulated fabric (paying the cross-node
//!   latency the paper's hybrid design tries to avoid on the fast path).
//! - The global scheduler places spilled tasks using cluster-wide
//!   information — per-node load reports and the object table's locality
//!   data — under the locality-aware [`PlacementPolicy`].
//!
//! Spill and global placement are the only way work moves between
//! nodes: a task queued on a node stays there unless the node dies.
//!
//! [`LocalScheduler`]: local::LocalScheduler
//! [`GlobalScheduler`]: global::GlobalScheduler

pub mod admit;
mod deps;
pub mod global;
pub mod health;
pub mod local;
pub mod msg;
pub mod policy;
pub mod resolve;
pub mod runq;
pub mod spill;
pub mod wire;

pub use admit::LocalSubmitter;
pub use global::{GlobalScheduler, GlobalSchedulerHandle, GlobalStats};
pub use health::{HealthTracker, REPORT_STALE_AFTER};
pub use local::{
    LocalScheduler, LocalSchedulerConfig, LocalSchedulerHandle, LocalSchedulerStats, SchedServices,
};
pub use msg::{LoadReport, LocalMsg};
pub use policy::{choose_victim, LoadView, PlacementPolicy, PolicyState, DEFAULT_TOP_K};
pub use resolve::{Goal, Replay, Replays, Resolver, Wiring, POLL_SLICE};
pub use runq::{Batch, Candidate, QueueLoad, RunQueue, RunTime, Runnable, MAX_BATCH};
pub use spill::{Backlog, SpillMode, Verdict};
pub use wire::SchedWire;
