//! Shared substrate for the `rtml` real-time machine-learning execution
//! framework.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace:
//!
//! - [`ids`] — 128-bit deterministic identifiers for tasks, objects,
//!   functions, nodes and workers. Determinism (same submission structure
//!   produces the same IDs) is what makes lineage replay possible.
//! - [`codec`] — a compact, dependency-free binary serialization format for
//!   values stored in the object store and the control plane.
//! - [`collections`] — deterministic fast-hash maps and a bounded top-k
//!   heap for the scheduler hot path.
//! - [`resources`] — fixed-point resource vectors (CPU / GPU / custom)
//!   used for heterogeneous task scheduling (paper requirement R4).
//! - [`task`] — the task specification exchanged between workers,
//!   schedulers, and the control plane.
//! - [`event`] — structured events appended to the control-plane event log
//!   for debugging and profiling (paper requirement R7).
//! - [`time`] — monotonic timestamps, stopwatches, and a calibrated
//!   busy-wait used to emulate compute kernels of known duration.
//! - [`metrics`] — counters and log-bucketed histograms used by the
//!   benchmark harness.
//! - [`retry`] — the one retry discipline (bounded attempts) adopted by
//!   every plane.
//! - [`spin`] — the bounded spin a waiter takes before it sleeps at a
//!   hand-off, while its recent waits were short.
//! - [`error`] — the error type shared across the workspace.

pub mod codec;
pub mod collections;
pub mod error;
pub mod event;
pub mod ids;
pub mod metrics;
pub mod resources;
pub mod retry;
pub mod spin;
pub mod task;
pub mod time;

pub use codec::Codec;
pub use error::{Error, Result};
pub use event::{Event, EventKind};
pub use ids::{ActorId, DriverId, FunctionId, NodeId, ObjectId, TaskId, UniqueId, WorkerId};
pub use resources::Resources;
pub use task::{ArgSpec, TaskSpec, TaskState};
