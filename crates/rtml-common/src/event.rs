//! Structured events for debugging and profiling (paper requirement R7).
//!
//! Every component appends [`Event`]s to the control plane's event log.
//! The profiling tooling in `rtml-runtime` turns the log into per-task
//! latency breakdowns and Chrome-trace timelines — the paper's "profiling
//! tools / error diagnosis" box in Figure 3.

use crate::ids::{NodeId, ObjectId, TaskId, WorkerId};

/// Which subsystem emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Component {
    /// A driver program.
    Driver,
    /// A worker thread.
    Worker,
    /// A per-node local scheduler.
    LocalScheduler,
    /// A global scheduler.
    GlobalScheduler,
    /// A per-node object store.
    ObjectStore,
    /// The cluster supervisor (failure detection, recovery).
    Supervisor,
    /// A per-node fetch agent (client side of the transfer plane).
    FetchAgent,
}

// New components take the next free tag; 7 (the replication agent) is
// not reused.
crate::impl_codec_enum!(Component {
    0 => Driver,
    1 => Worker,
    2 => LocalScheduler,
    3 => GlobalScheduler,
    4 => ObjectStore,
    5 => Supervisor,
    6 => FetchAgent,
});

/// What happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A task was submitted (driver or nested worker submission).
    TaskSubmitted { task: TaskId },
    /// The local scheduler queued the task for local execution.
    TaskQueuedLocal { task: TaskId, node: NodeId },
    /// The local scheduler spilled the task to the global scheduler.
    TaskSpilled { task: TaskId, from: NodeId },
    /// The global scheduler placed the task on a node.
    TaskPlaced { task: TaskId, node: NodeId },
    /// A worker began executing the task.
    TaskStarted { task: TaskId, worker: WorkerId },
    /// The task finished and sealed its return objects.
    TaskFinished {
        task: TaskId,
        worker: WorkerId,
        micros: u64,
    },
    /// The task raised an application error.
    TaskFailed { task: TaskId, message: String },
    /// A task was resubmitted by lineage reconstruction.
    TaskReconstructed { task: TaskId, attempt: u32 },
    /// An object was sealed into a node's store.
    ObjectSealed {
        object: ObjectId,
        node: NodeId,
        size: u64,
    },
    /// An object was evicted from a node's store.
    ObjectEvicted { object: ObjectId, node: NodeId },
    /// A cross-node object transfer began.
    TransferStarted {
        object: ObjectId,
        from: NodeId,
        to: NodeId,
    },
    /// A local scheduler proactively requested an object at task-queue
    /// time, overlapping the transfer with queueing (dispatch-time
    /// prefetch). A subsequent `ObjectSealed` on the same node is a
    /// prefetch hit.
    PrefetchIssued { object: ObjectId, node: NodeId },
    /// A cross-node object transfer completed.
    TransferFinished {
        object: ObjectId,
        to: NodeId,
        micros: u64,
    },
    /// A worker was killed (failure injection or crash).
    WorkerLost { worker: WorkerId },
    /// A node was killed.
    NodeLost { node: NodeId },
    /// A node's components were restarted after failure.
    NodeRestarted { node: NodeId },
    /// One submission batch's specs were group-committed as an
    /// append-only segment (the control-plane commit point of
    /// pipelined submission). `seq` is the submitter's batch counter;
    /// `micros` covers the routing call that commits it (with the
    /// admission it rides, for a batch admitted on its submitter's
    /// thread), so the span runs backwards from this event's timestamp.
    SpecSegmentCommitted {
        node: NodeId,
        seq: u64,
        tasks: u32,
        micros: u64,
    },
    /// The global scheduler placed a batch of spilled tasks
    /// against a single cluster-view snapshot. `micros` covers the
    /// whole view-build + place loop.
    PlacementBatch {
        node: NodeId,
        tasks: u32,
        micros: u64,
    },
    /// A local scheduler ingested a submission batch (local or placed)
    /// in the loop turn that received it: `tasks` specs scanned
    /// for spill and dependencies and their states group-committed in
    /// `micros`. It is the last event of the one frame the batch writes,
    /// after its tasks' [`EventKind::TaskQueuedLocal`] and
    /// [`EventKind::TaskSpilled`].
    BatchIngested {
        node: NodeId,
        tasks: u32,
        micros: u64,
    },
}

impl EventKind {
    /// The task this event concerns, if any — used by the profiler to
    /// group events into per-task timelines.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            EventKind::TaskSubmitted { task }
            | EventKind::TaskQueuedLocal { task, .. }
            | EventKind::TaskSpilled { task, .. }
            | EventKind::TaskPlaced { task, .. }
            | EventKind::TaskStarted { task, .. }
            | EventKind::TaskFinished { task, .. }
            | EventKind::TaskFailed { task, .. }
            | EventKind::TaskReconstructed { task, .. } => Some(*task),
            _ => None,
        }
    }

    /// Short stable label for trace output.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TaskSubmitted { .. } => "task_submitted",
            EventKind::TaskQueuedLocal { .. } => "task_queued_local",
            EventKind::TaskSpilled { .. } => "task_spilled",
            EventKind::TaskPlaced { .. } => "task_placed",
            EventKind::TaskStarted { .. } => "task_started",
            EventKind::TaskFinished { .. } => "task_finished",
            EventKind::TaskFailed { .. } => "task_failed",
            EventKind::TaskReconstructed { .. } => "task_reconstructed",
            EventKind::ObjectSealed { .. } => "object_sealed",
            EventKind::ObjectEvicted { .. } => "object_evicted",
            EventKind::TransferStarted { .. } => "transfer_started",
            EventKind::PrefetchIssued { .. } => "prefetch_issued",
            EventKind::TransferFinished { .. } => "transfer_finished",
            EventKind::WorkerLost { .. } => "worker_lost",
            EventKind::NodeLost { .. } => "node_lost",
            EventKind::NodeRestarted { .. } => "node_restarted",
            EventKind::SpecSegmentCommitted { .. } => "spec_segment_committed",
            EventKind::PlacementBatch { .. } => "placement_batch",
            EventKind::BatchIngested { .. } => "batch_ingested",
        }
    }
}

// Tags 16, 19, 20, 21, 22 and 23 are retired, not reused.
crate::impl_codec_enum!(EventKind {
    0 => TaskSubmitted { task },
    1 => TaskQueuedLocal { task, node },
    2 => TaskSpilled { task, from },
    3 => TaskPlaced { task, node },
    4 => TaskStarted { task, worker },
    5 => TaskFinished { task, worker, micros },
    6 => TaskFailed { task, message },
    7 => TaskReconstructed { task, attempt },
    8 => ObjectSealed { object, node, size },
    9 => ObjectEvicted { object, node },
    10 => TransferStarted { object, from, to },
    11 => TransferFinished { object, to, micros },
    12 => WorkerLost { worker },
    13 => NodeLost { node },
    14 => NodeRestarted { node },
    15 => PrefetchIssued { object, node },
    17 => SpecSegmentCommitted { node, seq, tasks, micros },
    18 => PlacementBatch { node, tasks, micros },
    24 => BatchIngested { node, tasks, micros },
});

/// One timestamped event-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process epoch (see [`crate::time`]).
    pub at_nanos: u64,
    /// Emitting subsystem.
    pub component: Component,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event stamped with the current time.
    pub fn now(component: Component, kind: EventKind) -> Self {
        Event {
            at_nanos: crate::time::now_nanos(),
            component,
            kind,
        }
    }
}

crate::impl_codec_struct!(Event {
    at_nanos,
    component,
    kind
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_bytes, Codec};
    use crate::ids::DriverId;

    #[test]
    fn all_event_kinds_round_trip() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let t = root.child(0);
        let o = t.return_object(0);
        let n = NodeId(1);
        let wk = WorkerId::new(n, 2);
        let kinds = vec![
            EventKind::TaskSubmitted { task: t },
            EventKind::TaskQueuedLocal { task: t, node: n },
            EventKind::TaskSpilled { task: t, from: n },
            EventKind::TaskPlaced { task: t, node: n },
            EventKind::TaskStarted {
                task: t,
                worker: wk,
            },
            EventKind::TaskFinished {
                task: t,
                worker: wk,
                micros: 123,
            },
            EventKind::TaskFailed {
                task: t,
                message: "m".into(),
            },
            EventKind::TaskReconstructed {
                task: t,
                attempt: 2,
            },
            EventKind::ObjectSealed {
                object: o,
                node: n,
                size: 64,
            },
            EventKind::ObjectEvicted { object: o, node: n },
            EventKind::TransferStarted {
                object: o,
                from: n,
                to: NodeId(2),
            },
            EventKind::TransferFinished {
                object: o,
                to: NodeId(2),
                micros: 5,
            },
            EventKind::WorkerLost { worker: wk },
            EventKind::NodeLost { node: n },
            EventKind::NodeRestarted { node: n },
            EventKind::PrefetchIssued { object: o, node: n },
            EventKind::SpecSegmentCommitted {
                node: n,
                seq: 7,
                tasks: 4096,
                micros: 88,
            },
            EventKind::PlacementBatch {
                node: n,
                tasks: 17,
                micros: 9,
            },
            EventKind::BatchIngested {
                node: n,
                tasks: 256,
                micros: 42,
            },
        ];
        let components = [
            Component::Driver,
            Component::Worker,
            Component::LocalScheduler,
            Component::GlobalScheduler,
            Component::ObjectStore,
            Component::Supervisor,
            Component::FetchAgent,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = Event {
                at_nanos: 42,
                component: components[i % components.len()],
                kind: kind.clone(),
            };
            let bytes = encode_to_bytes(&ev);
            let back: Event = decode_from_slice(&bytes).unwrap();
            assert_eq!(ev, back, "kind {}", kind.label());
        }
        // The retired steal, sweep and batch events' tags decode as
        // nothing.
        for tag in [16u8, 19, 20, 21, 22, 23] {
            let mut w = crate::codec::Writer::with_capacity(16);
            w.put_u8(tag);
            n.encode(&mut w);
            w.put_varint(5);
            w.put_u32(256);
            w.put_u32(3);
            assert!(decode_from_slice::<EventKind>(&w.into_bytes()).is_err());
        }
    }

    #[test]
    fn all_components_round_trip() {
        for tag in 0..=6u8 {
            let mut w = crate::codec::Writer::with_capacity(1);
            w.put_u8(tag);
            let bytes = w.into_bytes();
            let component: Component =
                decode_from_slice(&bytes).expect("every tag through 6 decodes");
            let back = encode_to_bytes(&component);
            assert_eq!(&back[..], &bytes[..], "component tag {tag}");
        }
        // 7 is the retired replication agent's tag; 8 was never used.
        for tag in [7u8, 8] {
            let mut w = crate::codec::Writer::with_capacity(1);
            w.put_u8(tag);
            assert!(decode_from_slice::<Component>(&w.into_bytes()).is_err());
        }
    }

    #[test]
    fn task_extraction() {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let t = root.child(0);
        assert_eq!(EventKind::TaskSubmitted { task: t }.task(), Some(t));
        assert_eq!(EventKind::NodeLost { node: NodeId(0) }.task(), None);
    }

    #[test]
    fn now_uses_monotonic_epoch() {
        let a = Event::now(Component::Driver, EventKind::NodeLost { node: NodeId(0) });
        let b = Event::now(Component::Driver, EventKind::NodeLost { node: NodeId(0) });
        assert!(b.at_nanos >= a.at_nanos);
    }
}
