//! Comparator execution engines for the paper's §4.2 evaluation.
//!
//! The paper compares its prototype against (a) a **single-threaded**
//! implementation and (b) a **Spark** implementation, reporting that the
//! Spark version is 9x *slower* than single-threaded for the RL workload
//! (7 ms tasks drown in per-task overhead) while the prototype is 7x
//! *faster* — the famous 63x gap.
//!
//! This module supplies those two baselines:
//!
//! - [`SerialEngine`] — runs stage tasks inline, in order.
//! - [`BspEngine`] — a faithful *mechanism* model of a driver-coordinated
//!   bulk-synchronous engine: one central driver thread dispatches every
//!   task (paying a configurable per-task launch overhead, serialized at
//!   the driver exactly as in Spark), executors run them, and a stage
//!   barrier joins everything before the next stage may begin. The
//!   overheads are [`BspConfig`] fields.
//!
//! Both engines implement [`Engine`], so workloads can be written once
//! per execution model and compared like-for-like.

pub use crate::bsp::{BspConfig, BspEngine};
pub use crate::serial::SerialEngine;

/// One task inside a stage: a closure producing a value.
pub type StageTask<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// A bulk-synchronous execution engine: runs a vector of independent
/// tasks to completion (a *stage*) and returns their results in input
/// order. The barrier at the end of each stage is the defining BSP
/// property the paper contrasts with fine-grained dataflow (R5).
pub trait Engine: Sync {
    /// Executes one stage, blocking until every task finishes.
    fn run_stage<T: Send + 'static>(&self, tasks: Vec<StageTask<T>>) -> Vec<T>;
}
