//! A simulated network fabric for in-process "distributed" clusters.
//!
//! The paper's architecture separates per-node components (workers, local
//! scheduler, object store) from cluster-level ones (global scheduler,
//! control plane). Reproducing its latency numbers — ~290 µs end-to-end
//! for a locally-scheduled task vs ~1 ms for a remotely-scheduled one —
//! requires cross-node communication to cost something. This crate
//! provides that cost model:
//!
//! - **Endpoints** register with the fabric under a [`NodeId`]; messages
//!   between endpoints on the *same* node are delivered directly (the
//!   shared-memory fast path), while cross-node messages pay a
//!   configurable [`LatencyModel`] plus a bandwidth term proportional to
//!   payload size.
//! - **Partitions** drop messages between selected node pairs, providing
//!   the failure-injection substrate for fault-tolerance experiments.
//! - **Fault plans** ([`FaultPlan`]) script deterministic chaos on top:
//!   seeded per-link drops, duplication, delay spikes, gray links, and
//!   timed partition windows, with injection counters in
//!   [`FabricStats`] so experiments can assert what was injected.
//! - Delivery ordering is FIFO per (sender, receiver) pair under constant
//!   latency, matching a TCP-like transport — with one exception when a
//!   bandwidth is configured: the egress link is a serialized queue in
//!   which a chunk stream ([`Fabric::send_chunks`], each chunk due when
//!   its own bytes have crossed) waits its turn, while any other frame
//!   waits only for the chunk on the wire, so a small control message
//!   passes the bulk queued ahead of it.
//! - A frame can be a **header plus a body**
//!   ([`Fabric::send_chunks_with_bodies`]): the body is handed over as
//!   the sender passed it — a window of a buffer it keeps — and the wire
//!   charges it like the rest of the frame.
//! - **No delivery thread.** A cross-node message goes straight into the
//!   destination mailbox stamped with its due time and is invisible
//!   there until then; the thread blocked on the mailbox waits the delay
//!   out, so a hop costs one wake-up on top of what is configured.
//!
//! [`NodeId`]: rtml_common::ids::NodeId
//!
//! # Examples
//!
//! ```
//! use rtml_net::{Fabric, FabricConfig, LatencyModel};
//! use rtml_common::ids::NodeId;
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let fabric = Fabric::new(FabricConfig {
//!     latency: LatencyModel::Constant(Duration::from_micros(100)),
//!     ..FabricConfig::default()
//! });
//! let a = fabric.register(NodeId(0), "a");
//! let b = fabric.register(NodeId(1), "b");
//! fabric.send(a.address(), b.address(), Bytes::from_static(b"ping")).unwrap();
//! let msg = b.receiver().recv().unwrap();
//! assert_eq!(&msg.payload[..], b"ping");
//! ```

pub mod fabric;
pub mod fault;
pub mod latency;

pub use fabric::{
    DelayEstimate, Delivery, Endpoint, Fabric, FabricConfig, FabricStats, NetAddress,
};
pub use fault::{FaultDecision, FaultPlan, FaultWindow, LinkFault, LinkMatch, WindowFault};
pub use latency::LatencyModel;
