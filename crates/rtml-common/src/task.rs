//! Task specifications: the unit of work exchanged between workers,
//! schedulers, and the control plane.
//!
//! A [`TaskSpec`] is fully self-describing and serializable: it names the
//! function (by [`FunctionId`]), carries the arguments (inline values or
//! object references — the paper's §3.1 item 2), the number of return
//! objects, and the resource demand. Because the spec is durable in the
//! task table, any task can be re-executed after a failure: the spec *is*
//! the lineage record.

use bytes::Bytes;

use crate::ids::{FunctionId, NodeId, ObjectId, TaskId, WorkerId};
use crate::resources::Resources;

/// An argument to a task: either an inline encoded value or a reference to
/// an object produced by another task (a dataflow edge, R5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgSpec {
    /// An immediate value, already encoded.
    Value(Bytes),
    /// A dependency on the object with this ID.
    ObjectRef(ObjectId),
}

impl ArgSpec {
    /// The object dependency carried by this argument, if any.
    pub fn dependency(&self) -> Option<ObjectId> {
        match self {
            ArgSpec::Value(_) => None,
            ArgSpec::ObjectRef(id) => Some(*id),
        }
    }
}

crate::impl_codec_enum!(ArgSpec {
    0 => Value(bytes),
    1 => ObjectRef(id),
});

/// A complete, re-executable description of one task invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Unique, deterministic task identifier.
    pub task_id: TaskId,
    /// Function to invoke (function-table key).
    pub function: FunctionId,
    /// Arguments in positional order.
    pub args: Vec<ArgSpec>,
    /// Number of objects the task returns (IDs derived from `task_id`).
    pub num_returns: u32,
    /// Resource demand for admission control and placement (R4).
    pub resources: Resources,
    /// Node on which the task was submitted (locality hint and the local
    /// scheduler that first owns it).
    pub submitter_node: NodeId,
    /// Execution attempt; bumped on lineage reconstruction.
    pub attempt: u32,
}

impl TaskSpec {
    /// Creates a task spec with a single return object and default
    /// metadata. Convenience for tests and simple submissions.
    pub fn simple(task_id: TaskId, function: FunctionId, args: Vec<ArgSpec>) -> Self {
        TaskSpec {
            task_id,
            function,
            args,
            num_returns: 1,
            resources: Resources::cpu(1.0),
            submitter_node: NodeId(0),
            attempt: 0,
        }
    }

    /// IDs of the objects this task will produce, in return order.
    pub fn return_ids(&self) -> Vec<ObjectId> {
        (0..self.num_returns)
            .map(|i| self.task_id.return_object(i))
            .collect()
    }

    /// Iterates over the task's object dependencies (arguments that are
    /// futures).
    pub fn dependencies(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.args.iter().filter_map(ArgSpec::dependency)
    }

    /// Number of object dependencies.
    pub fn dependency_count(&self) -> usize {
        self.dependencies().count()
    }
}

crate::impl_codec_struct!(TaskSpec {
    task_id,
    function,
    args,
    num_returns,
    resources,
    submitter_node,
    attempt,
});

/// Lifecycle state of a task, as recorded in the task table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Submitted; not yet owned by any scheduler queue.
    Submitted,
    /// Queued at a node's local scheduler.
    Queued(NodeId),
    /// Spilled to the global scheduler, awaiting placement.
    Spilled,
    /// Running on a specific worker.
    Running(WorkerId),
    /// Finished; return objects sealed.
    Finished,
    /// Failed with an application error (not retried by lineage).
    Failed(String),
    /// Lost to a worker or node failure; eligible for reconstruction.
    Lost,
}

impl TaskState {
    /// Whether this state is terminal (no further transitions expected
    /// without an explicit resubmission).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TaskState::Finished | TaskState::Failed(_) | TaskState::Lost
        )
    }
}

crate::impl_codec_enum!(TaskState {
    0 => Submitted,
    1 => Queued(node),
    2 => Spilled,
    3 => Running(worker),
    4 => Finished,
    5 => Failed(message),
    6 => Lost,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_bytes};
    use crate::ids::DriverId;

    fn sample_spec() -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let parent_out = root.child(0).return_object(0);
        TaskSpec {
            task_id: root.child(1),
            function: FunctionId::from_name("f"),
            args: vec![
                ArgSpec::Value(Bytes::from_static(&[1, 2, 3])),
                ArgSpec::ObjectRef(parent_out),
            ],
            num_returns: 2,
            resources: Resources::new(1.0, 0.5),
            submitter_node: NodeId(3),
            attempt: 1,
        }
    }

    #[test]
    fn spec_round_trips() {
        let spec = sample_spec();
        let bytes = encode_to_bytes(&spec);
        let back: TaskSpec = decode_from_slice(&bytes).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn return_ids_are_derived_and_ordered() {
        let spec = sample_spec();
        let ids = spec.return_ids();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], spec.task_id.return_object(0));
        assert_eq!(ids[1], spec.task_id.return_object(1));
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn dependencies_skip_inline_values() {
        let spec = sample_spec();
        let deps: Vec<_> = spec.dependencies().collect();
        assert_eq!(deps.len(), 1);
        assert_eq!(spec.dependency_count(), 1);
    }

    #[test]
    fn states_round_trip() {
        for state in [
            TaskState::Submitted,
            TaskState::Queued(NodeId(2)),
            TaskState::Spilled,
            TaskState::Running(WorkerId::new(NodeId(1), 4)),
            TaskState::Finished,
            TaskState::Failed("boom".into()),
            TaskState::Lost,
        ] {
            let bytes = encode_to_bytes(&state);
            let back: TaskState = decode_from_slice(&bytes).unwrap();
            assert_eq!(state, back);
        }
    }

    #[test]
    fn terminal_states() {
        assert!(TaskState::Finished.is_terminal());
        assert!(TaskState::Failed("x".into()).is_terminal());
        assert!(TaskState::Lost.is_terminal());
        assert!(!TaskState::Submitted.is_terminal());
        assert!(!TaskState::Running(WorkerId::new(NodeId(0), 0)).is_terminal());
    }
}
