//! `rtml` — a Rust reproduction of *Real-Time Machine Learning: The
//! Missing Pieces* (HotOS 2017), the vision paper behind Ray.
//!
//! This facade re-exports the whole workspace:
//!
//! - [`runtime`] — the execution framework: clusters, drivers, typed
//!   futures (`submit`/`get`/`wait`/`put`), lineage fault tolerance,
//!   actors, profiling.
//! - [`kv`] — the sharded control plane (object/task/function tables,
//!   event logs, pub-sub).
//! - [`store`] — per-node object stores and cross-node transfer.
//! - [`sched`] — the hybrid local/global scheduler.
//! - [`net`] — the simulated network fabric.
//! - [`workloads`] — the paper's workloads: Atari-style RL, MCTS, RNN
//!   grids, sensor fusion, and the serial and BSP (Spark-model)
//!   comparator engines they are measured against
//!   ([`workloads::baselines`]).
//! - [`common`] — identifiers, codec, resources, metrics.
//!
//! # Quickstart
//!
//! ```
//! use rtml::prelude::*;
//!
//! let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
//! let double = cluster.register_fn1("double", |x: i64| Ok(x * 2));
//! let driver = cluster.driver();
//!
//! // Futures compose into DAGs: values and futures mix as arguments.
//! let a = driver.submit1(&double, 21).unwrap();
//! let b = driver.submit1(&double, &a).unwrap();
//! assert_eq!(driver.get(&b).unwrap(), 84);
//! cluster.shutdown();
//! ```

pub use rtml_common as common;
pub use rtml_kv as kv;
pub use rtml_net as net;
pub use rtml_runtime as runtime;
pub use rtml_sched as sched;
pub use rtml_store as store;
pub use rtml_workloads as workloads;

/// The types most programs need.
pub mod prelude {
    pub use rtml_common::error::{Error, Result};
    pub use rtml_common::ids::{NodeId, ObjectId, TaskId, WorkerId};
    pub use rtml_common::resources::Resources;
    pub use rtml_net::{FaultPlan, FaultWindow, LatencyModel, LinkFault, LinkMatch, WindowFault};
    pub use rtml_runtime::{
        Cluster, ClusterConfig, Driver, IntoArg, NodeConfig, ObjectRef, TaskContext, TaskOptions,
    };
    pub use rtml_sched::{PlacementPolicy, SpillMode};
}
