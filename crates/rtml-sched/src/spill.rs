//! Spillover policies: when does a local scheduler hand a task to the
//! global scheduler?
//!
//! The paper (§3.2.2): "Workers submit tasks to their local schedulers
//! which decide to either assign the tasks to other workers on the same
//! physical node or to 'spill over' the tasks to a global scheduler."
//! The decision rule is a knob: always spilling
//! recovers a fully-centralized scheduler (the Dask/CIEL architecture the
//! paper critiques); never spilling is pure node-local execution; the
//! hybrid threshold is the paper's proposal.
//!
//! The rule is met where a task becomes runnable: at ingest, or — for a
//! task submitted before its inputs existed — when its last input seals
//! here. A task the global scheduler placed never spills again, unless
//! the node can never fit it.
//!
//! Spilling is the only way work leaves a node: there is no work
//! stealing, so a task kept here runs here. The default threshold is 4
//! ready tasks, not 8 or 0. Measured on the perf ledger (15 s runs on a
//! 2-vCPU VM), against the work-stealing plane this scheduler once had:
//! at 8, `rl_broadcast` p50 was 6 % worse (0 of 6 pairs better), because
//! a 4-worker node kept up to twice its slots queued while its peers
//! idled; at 0, `shuffle_write` was 8 % worse (0 of 4 rounds), because
//! every task that could not start at once paid a global hop; at 4,
//! every workload's p50 was within 1.5 % of the stealing one. A
//! threshold derived from the node's slot count was not measured.

use rtml_common::codec::Codec;
use rtml_common::ids::TaskId;
use rtml_common::resources::Resources;
use rtml_common::task::{TaskSpec, TaskState};

use crate::local::Core;
use crate::wire::SchedWire;

/// The spillover decision rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillMode {
    /// Spill a task when the local backlog of runnable tasks it would
    /// join already exceeds `queue_threshold` (the paper's hybrid
    /// design).
    Hybrid {
        /// The largest backlog a task is still kept behind: a task that
        /// finds `queue_threshold` tasks ahead of it stays, so up to
        /// `queue_threshold + 1` runnable tasks are kept locally.
        queue_threshold: usize,
    },
    /// Spill every task: a fully-centralized scheduler (a baseline).
    AlwaysSpill,
    /// Keep every feasible task local: no load sharing (a baseline).
    /// Only a task this node can never fit leaves it.
    NeverSpill,
}

impl Default for SpillMode {
    fn default() -> Self {
        SpillMode::Hybrid { queue_threshold: 4 }
    }
}

impl SpillMode {
    /// Decides whether `spec` should spill to the global scheduler.
    ///
    /// Regardless of mode, a task whose demand can **never** be satisfied
    /// by this node (demand exceeds total capacity, e.g. a GPU task on a
    /// CPU-only node) must spill — only the global scheduler can see a
    /// node that fits it (R4 heterogeneity).
    pub fn should_spill(
        &self,
        spec: &TaskSpec,
        ready_backlog: usize,
        node_total: &Resources,
    ) -> bool {
        if !node_total.fits(&spec.resources) {
            return true;
        }
        match self {
            SpillMode::Hybrid { queue_threshold } => ready_backlog > *queue_threshold,
            SpillMode::AlwaysSpill => true,
            SpillMode::NeverSpill => false,
        }
    }
}

/// The scheduler's side of a spill decision.
impl Core {
    /// Forwards a whole batch of spilling tasks to the global scheduler
    /// as one `SpillBatch` frame: one state group commit, one fabric
    /// hop. The tasks' `TaskSpilled` events are in the frame
    /// [`Core::on_submit_batch`] wrote for their batch, or in the one
    /// `on_sealed` wrote when they became runnable. The frame carries
    /// this node's load as of now, with the batch's accepted tasks in it
    /// and its spilled ones not, so the global scheduler places the
    /// batch against the sender's present load rather than its last
    /// published report.
    pub(crate) fn spill_batch(&mut self, specs: Vec<TaskSpec>) {
        let node = self.config.node;
        let ids: Vec<TaskId> = specs.iter().map(|s| s.task_id).collect();
        self.services
            .tasks
            .set_states_many(&ids, &TaskState::Spilled);
        // Pre-size the frame: ~96 bytes per spec avoids the doubling
        // series on large spilled bursts.
        let mut w = rtml_common::codec::Writer::with_capacity(96 + 96 * specs.len());
        let msg = SchedWire::SpillBatch {
            specs,
            load: self.load_report(),
            ingested: self.ingested,
        };
        msg.encode(&mut w);
        if self
            .services
            .fabric
            .send(self.address, self.services.global, w.into_bytes())
            .is_ok()
        {
            return;
        }
        // No global scheduler (shutdown race). Keep whatever work this
        // node can possibly run rather than losing it.
        let SchedWire::SpillBatch { specs, .. } = msg else {
            unreachable!("constructed above")
        };
        for spec in specs {
            if self.config.total_resources.fits(&spec.resources) {
                self.services
                    .tasks
                    .set_state(spec.task_id, &TaskState::Queued(node));
                self.queue.push(vec![spec.into()]);
            } else {
                self.services
                    .tasks
                    .set_state(spec.task_id, &TaskState::Lost);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtml_common::ids::{DriverId, FunctionId, TaskId};

    fn spec(resources: Resources) -> TaskSpec {
        let root = TaskId::driver_root(DriverId::from_index(0));
        let mut s = TaskSpec::simple(root.child(0), FunctionId::from_name("f"), vec![]);
        s.resources = resources;
        s
    }

    #[test]
    fn infeasible_always_spills() {
        let node = Resources::cpu(4.0); // no GPU
        let gpu_task = spec(Resources::gpu(1.0));
        for mode in [
            SpillMode::Hybrid {
                queue_threshold: 100,
            },
            SpillMode::AlwaysSpill,
            SpillMode::NeverSpill,
        ] {
            assert!(mode.should_spill(&gpu_task, 0, &node), "{mode:?}");
        }
    }

    #[test]
    fn hybrid_spills_past_threshold() {
        let node = Resources::cpu(4.0);
        let task = spec(Resources::cpu(1.0));
        let mode = SpillMode::Hybrid { queue_threshold: 3 };
        assert!(!mode.should_spill(&task, 0, &node));
        assert!(!mode.should_spill(&task, 3, &node));
        assert!(mode.should_spill(&task, 4, &node));
    }

    #[test]
    fn always_spill_spills_feasible_tasks() {
        let node = Resources::cpu(4.0);
        let task = spec(Resources::cpu(1.0));
        assert!(SpillMode::AlwaysSpill.should_spill(&task, 0, &node));
    }

    #[test]
    fn never_spill_keeps_feasible_tasks() {
        let node = Resources::cpu(4.0);
        let task = spec(Resources::cpu(1.0));
        assert!(!SpillMode::NeverSpill.should_spill(&task, 10_000, &node));
    }

    #[test]
    fn default_is_hybrid() {
        assert_eq!(
            SpillMode::default(),
            SpillMode::Hybrid { queue_threshold: 4 }
        );
    }
}
