//! The rtml execution framework: the paper's programming model (§3.1) on
//! top of the paper's architecture (§3.2).
//!
//! # Programming model (paper §3.1, items 1–5)
//!
//! 1. **Task creation is non-blocking** — [`Caller::submit1`] (on
//!    [`Driver`] via deref) and friends
//!    return an [`ObjectRef`] future immediately.
//! 2. **Arbitrary functions are remote tasks** — any function registered
//!    with the cluster can be submitted with values *or futures* as
//!    arguments; futures introduce dataflow edges (R5).
//! 3. **Tasks create tasks** — the [`TaskContext`] handed to running
//!    functions exposes the same API, so the task graph grows dynamically
//!    during execution (R3) without blocking on children.
//! 4. **`get`** blocks until a future's value is available, transparently
//!    fetching it across nodes and reconstructing it from lineage if the
//!    holding node died (R6).
//! 5. **`wait`** returns the subset of futures that completed within a
//!    timeout / count bound, enabling straggler-tolerant, latency-aware
//!    code (R1).
//!
//! # Architecture
//!
//! A [`Cluster`] wires together, per node: an object store, a transfer
//! service, a local scheduler, and a pool of worker threads — plus one
//! global scheduler and the sharded control plane shared by all nodes.
//! Failure injection ([`Cluster::kill_worker`], [`Cluster::kill_node`])
//! exercises the fault-tolerance story end to end: lost objects are
//! rebuilt by replaying their producing tasks from the durable task table
//! ([`lineage::ReconstructionManager`]).
//!
//! # Examples
//!
//! ```
//! use rtml_runtime::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::start(ClusterConfig::local(2, 2)).unwrap();
//! let square = cluster.register_fn1("square", |x: i64| Ok(x * x));
//! let driver = cluster.driver();
//! let fut = driver.submit1(&square, 21).unwrap();
//! assert_eq!(driver.get(&fut).unwrap(), 441);
//! cluster.shutdown();
//! ```

pub mod actors;
pub mod caller;
pub mod cluster;
pub mod critical_path;
pub mod envelope;
pub mod fetch;
pub mod lineage;
pub mod node;
pub mod object_ref;
pub mod profiling;
pub mod registry;
pub mod services;
pub mod telemetry;
pub mod tools;
pub mod worker;

pub use actors::ActorHandle;
pub use caller::{Caller, Driver, TaskContext, TaskOptions, TaskRequest};
pub use cluster::{Cluster, ClusterConfig};
pub use critical_path::{critical_path, CriticalPath};
pub use envelope::Envelope;
pub use lineage::ReconstructionManager;
pub use node::NodeConfig;
pub use object_ref::{IntoArg, ObjectRef};
pub use profiling::{Incident, PlaneSpan, ProfileReport, TaskProfile};
pub use registry::{Func0, Func1, Func2, Func3, Func4, FunctionRegistry};
pub use rtml_sched::HealthTracker;
pub use services::Services;
