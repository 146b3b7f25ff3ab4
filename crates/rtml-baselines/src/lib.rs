//! Comparator execution engines for the paper's §4.2 evaluation.
//!
//! The paper compares its prototype against (a) a **single-threaded**
//! implementation and (b) a **Spark** implementation, reporting that the
//! Spark version is 9x *slower* than single-threaded for the RL workload
//! (7 ms tasks drown in per-task overhead) while the prototype is 7x
//! *faster* — the famous 63x gap.
//!
//! This crate supplies those two baselines:
//!
//! - [`SerialEngine`] — runs stage tasks inline, in order.
//! - [`BspEngine`] — a faithful *mechanism* model of a driver-coordinated
//!   bulk-synchronous engine: one central driver thread dispatches every
//!   task (paying a configurable per-task launch overhead, serialized at
//!   the driver exactly as in Spark), executors run them, and a stage
//!   barrier joins everything before the next stage may begin. The
//!   overhead constants are calibration knobs; the benchmark harness
//!   sweeps them so no conclusion rests on one value.
//!
//! Both engines implement [`Engine`], so workloads can be written once
//! per execution model and compared like-for-like.

pub mod bsp;
pub mod engine;
pub mod serial;

pub use bsp::{BspConfig, BspEngine};
pub use engine::{Engine, StageTask};
pub use serial::SerialEngine;
